//! The ledger's statistics: medians, quartiles, spreads and percentiles.
//!
//! The criterion shim has no statistics engine (shims/README.md), so the
//! little the ledger needs lives here. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), because
//! that is what the benchmark driver computes its spreads with.

/// Ascending copy of `values`. Panics on NaN: a NaN sample is a ledger bug.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// Median (mean of the two middle values for an even count). Panics on
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` as Python's `statistics.quantiles(values, n=4)` gives
/// them: position `i * (n + 1) / 4` (1-based) with linear interpolation,
/// clamped to the data. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// `(min, max)` of the samples.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "min_max of no samples");
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// tolerance keeps `99.9 % of 20 000` at 19 980 despite binary fractions.
fn nearest_rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    v[nearest_rank(p, v.len()) - 1]
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 that still has at
/// least ten samples beyond it, so a reported tail is never one outlier.
/// Returns `(percentile, value)`; falls back to the median.
pub fn supported_tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    for p in [99.9, 99.0, 95.0, 90.0, 75.0] {
        if n >= nearest_rank(p, n.max(1)) + 10 {
            return (p, percentile(values, p));
        }
    }
    (50.0, percentile(values, 50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q2, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q1, q2, q3), (1.5, 4.0, 12.0));
        // Two samples: statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn window_min_max() {
        assert_eq!(min_max(&[3.0, -1.0, 9.0]), (-1.0, 9.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v), (99.0, 990.0));
        // 999 samples: ceil(989.01) = 990 leaves 9 beyond — p95 it is.
        assert_eq!(supported_tail(&v[..999]).0, 95.0);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(supported_tail(&v[..100]), (90.0, 90.0));
        // 12 samples: nothing above the median qualifies.
        assert_eq!(supported_tail(&v[..12]), (50.0, 6.0));
        // 20000 samples support p99.9.
        let big: Vec<f64> = (1..=20000).map(f64::from).collect();
        assert_eq!(supported_tail(&big), (99.9, 19980.0));
    }
}
