//! Result files, the driver's one-line result, and `--compare`.

use crate::json::Json;
use crate::layers::Span;
use crate::run::{Metric, Report};

fn metric_json(m: &Metric) -> Json {
    let mut o = vec![("value".to_string(), Json::Num(m.value)), ("unit".to_string(), Json::Str(m.unit.into()))];
    if let Some((lo, hi)) = m.spread {
        o.push(("min".into(), Json::Num(lo)));
        o.push(("max".into(), Json::Num(hi)));
    }
    o.push(("samples".into(), Json::Num(m.samples as f64)));
    Json::Obj(o)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| (m.name.clone(), metric_json(m))))
}

/// The last stdout line the benchmark driver reads: `correct`,
/// `attempted`, `failed`, and each metric's value and unit.
pub fn driver_line(report: &Report) -> String {
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|m| {
                (m.name.clone(), Json::obj([("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.into()))]))
            })),
        ),
    ])
    .compact()
}

/// One workload's entry of a result file.
pub fn workload_json(end_to_end: &Report, per_layer: Option<&Report>) -> Json {
    let attempted = end_to_end.attempted.max(1);
    let mut o = vec![
        ("attempted".to_string(), Json::Num(end_to_end.attempted as f64)),
        ("failed".to_string(), Json::Num(end_to_end.failed as f64)),
        ("fail_ratio".to_string(), Json::Num(end_to_end.failed as f64 / attempted as f64)),
        ("inputs".to_string(), Json::obj(end_to_end.facts.iter().map(|(k, v)| (*k, Json::Num(*v))))),
        ("end_to_end".to_string(), metrics_json(&end_to_end.metrics)),
    ];
    if let Some(l) = per_layer {
        o.push(("per_layer".into(), metrics_json(&l.metrics)));
    }
    Json::Obj(o)
}

/// Spans as a JSON array (written beside the metrics with `--spans`).
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("stmt", Json::Num(s.stmt as f64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_us", s.start_us.map_or(Json::Null, Json::Num)),
                    ("dur_us", Json::Num(s.dur_us)),
                ])
            })
            .collect(),
    )
}

/// Print a report's metrics, one per line, by name with unit, then the
/// inputs and host facts recorded with them.
pub fn print_metrics(title: &str, report: &Report) {
    println!("{title}  (attempted {}, failed {})", report.attempted, report.failed);
    for m in &report.metrics {
        let spread = m.spread.map_or(String::new(), |(lo, hi)| format!("  [{lo:.3} .. {hi:.3}]"));
        println!("  {:<42} {:>16.3} {:<7} n={}{spread}", m.name, m.value, m.unit, m.samples);
    }
    for (k, v) in &report.facts {
        println!("  input {k} = {v}");
    }
}

/// The verdict on one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    /// The windows of one side spread wider than the bound: no verdict.
    Unresolved,
}

/// Judge `b` against `a`: `worse_by` is the share of `a` by which `b` is
/// worse (negative when better); `spread` the larger window spread of
/// the two sides as a share of its value.
pub fn judge(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn window_spread(metric: &Json) -> f64 {
    let get = |k: &str| metric.get(k).and_then(Json::as_f64);
    match (get("min"), get("max"), get("value")) {
        (Some(lo), Some(hi), Some(v)) if v != 0.0 => (hi - lo) / v.abs(),
        _ => 0.0,
    }
}

/// Compare result file `b` against `a` under the bounds of
/// `BENCHMARK.json`. Prints one row per workload × end-to-end metric and
/// returns whether anything regressed (a higher `fail_ratio` counts).
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<bool, String> {
    let specs = benchmark.get("end_to_end").ok_or("BENCHMARK.json has no end_to_end")?.as_arr();
    let mut regressed = false;
    println!("{:<22} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict", "workload", "metric", "A", "B", "worse by", "bound");
    for (workload, wa) in a.get("workloads").ok_or("A has no workloads")?.as_obj() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<22} missing from B");
            regressed = true;
            continue;
        };
        for spec in specs {
            let name = spec.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = spec.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let lower_is_better = spec.get("better").and_then(Json::as_str) == Some("lower");
            let side = |w: &Json| w.get("end_to_end").and_then(|e| e.get(name)).cloned();
            let (Some(ma), Some(mb)) = (side(wa), side(wb)) else {
                continue;
            };
            let (va, vb) = (
                ma.get("value").and_then(Json::as_f64).ok_or("metric without a value")?,
                mb.get("value").and_then(Json::as_f64).ok_or("metric without a value")?,
            );
            let change = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
            let worse_by = if lower_is_better { change } else { -change };
            let verdict = judge(worse_by, window_spread(&ma).max(window_spread(&mb)), bound);
            regressed |= verdict == Verdict::Regressed;
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{workload:<22} {name:<14} {va:>14.3} {vb:>14.3} {:>8.1}% {:>6.0}%  {word}",
                worse_by * 100.0,
                bound * 100.0
            );
        }
        let ratio = |w: &Json| w.get("fail_ratio").and_then(Json::as_f64).unwrap_or(0.0);
        if ratio(wb) > ratio(wa) {
            println!("{workload:<22} fail_ratio rose from {} to {}  REGRESSED", ratio(wa), ratio(wb));
            regressed = true;
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn verdicts() {
        assert_eq!(judge(0.05, 0.02, 0.10), Verdict::Ok);
        assert_eq!(judge(0.15, 0.02, 0.10), Verdict::Regressed);
        assert_eq!(judge(-0.15, 0.02, 0.10), Verdict::Improved);
        assert_eq!(judge(0.15, 0.30, 0.10), Verdict::Unresolved);
    }

    fn file(stmts: f64, lo: f64, hi: f64, failed: f64) -> Json {
        parse(&format!(
            r#"{{"workloads": {{"w": {{"fail_ratio": {failed}, "end_to_end": {{
                "stmts_per_s": {{"value": {stmts}, "unit": "1/s", "min": {lo}, "max": {hi}}},
                "setup_s": {{"value": 1.0, "unit": "s"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_applies_bounds_and_direction() {
        let bench = parse(
            r#"{"end_to_end": [{"name": "stmts_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let a = file(1000.0, 990.0, 1010.0, 0.0);
        assert!(!compare(&a, &file(950.0, 940.0, 960.0, 0.0), &bench).unwrap(), "5 % is inside the bound");
        assert!(compare(&a, &file(800.0, 790.0, 810.0, 0.0), &bench).unwrap(), "20 % slower regresses");
        assert!(!compare(&a, &file(1300.0, 1290.0, 1310.0, 0.0), &bench).unwrap(), "faster is fine");
        assert!(!compare(&a, &file(800.0, 500.0, 1100.0, 0.0), &bench).unwrap(), "wide windows: unresolved");
        assert!(compare(&a, &file(1000.0, 990.0, 1010.0, 0.01), &bench).unwrap(), "fail_ratio may not rise");
    }
}
