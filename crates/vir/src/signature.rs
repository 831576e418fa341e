//! Image signatures and weighted similarity.
//!
//! §3.2.3: "Each image is represented by a signature which is an
//! abstraction of the contents of the image in terms of its visual
//! attributes. A set of numbers that are a coarse representation of the
//! signature are then stored in a table representing the index data."
//!
//! A [`Signature`] holds four channels — globalcolor, localcolor, texture,
//! structure — of [`CHANNEL_DIM`] values each in `[0, 100]`. The weighted
//! distance is a per-channel mean-absolute-difference combined by the
//! query's weights. The **coarse representation** is each channel's mean;
//! by Jensen's inequality the weighted distance over coarse values lower
//! bounds the full distance, so the multi-level filters never miss a
//! qualifying image.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use extidx_common::{Error, Result};

/// Values per channel.
pub const CHANNEL_DIM: usize = 8;
/// Number of channels.
pub const CHANNELS: usize = 4;
/// Channel names in order, matching the paper's weight list.
pub const CHANNEL_NAMES: [&str; CHANNELS] = ["globalcolor", "localcolor", "texture", "structure"];

/// A full image signature: `CHANNELS × CHANNEL_DIM` values in `[0, 100]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    pub channels: [[f64; CHANNEL_DIM]; CHANNELS],
}

/// Per-channel weights (the paper's `globalcolor=0.5,localcolor=0.0,…`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights(pub [f64; CHANNELS]);

impl Default for Weights {
    fn default() -> Self {
        Weights([0.25; CHANNELS])
    }
}

impl Weights {
    /// Parse a weight list: `"globalcolor=0.5 texture=0.5"` (commas or
    /// whitespace as separators; unnamed channels weigh 0). A negative,
    /// NaN or infinite weight is refused.
    pub fn parse(s: &str) -> Result<Weights> {
        let mut w = [0.0; CHANNELS];
        let mut any = false;
        for part in s.split(|c: char| c == ',' || c.is_whitespace()) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| Error::Semantic(format!("bad weight {part:?}")))?;
            let idx = CHANNEL_NAMES
                .iter()
                .position(|n| n.eq_ignore_ascii_case(name.trim()))
                .ok_or_else(|| Error::Semantic(format!("unknown channel {name:?}")))?;
            let v = value
                .trim()
                .parse::<f64>()
                .map_err(|_| Error::Semantic(format!("bad weight value {value:?}")))?;
            // A negative weight would let the coarse distance exceed the
            // full one, so phase 2 could dismiss a true match.
            if !(v.is_finite() && v >= 0.0) {
                return Err(Error::Semantic(format!(
                    "weight {value:?} of {name:?} must be a finite non-negative number"
                )));
            }
            w[idx] = v;
            any = true;
        }
        if !any {
            return Ok(Weights::default());
        }
        Ok(Weights(w))
    }

    /// Sum of weights (0 means "no discriminating channels").
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

impl Signature {
    /// Coarse representation: per-channel means.
    pub fn coarse(&self) -> [f64; CHANNELS] {
        let mut out = [0.0; CHANNELS];
        for (i, ch) in self.channels.iter().enumerate() {
            out[i] = ch.iter().sum::<f64>() / CHANNEL_DIM as f64;
        }
        out
    }

    /// Full weighted distance: `Σ_c w_c · meanAbsDiff(channel_c)`.
    pub fn distance(&self, other: &Signature, w: &Weights) -> f64 {
        let mut d = 0.0;
        for c in 0..CHANNELS {
            if w.0[c] == 0.0 {
                continue;
            }
            let mad: f64 = self.channels[c]
                .iter()
                .zip(&other.channels[c])
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / CHANNEL_DIM as f64;
            d += w.0[c] * mad;
        }
        d
    }

    /// [`Signature::distance`] from the signature serialized in `text` to
    /// `query`, or `None` once it is known to exceed `threshold`. Only the
    /// channels `w` weighs are parsed, and parsing stops as soon as the
    /// partial sum passes the threshold: every term is non-negative, so a
    /// partial sum never exceeds the full one. A returned distance is
    /// bit-identical to [`Signature::distance`]'s.
    pub fn distance_within(
        text: &str,
        query: &Signature,
        w: &Weights,
        threshold: f64,
    ) -> Result<Option<f64>> {
        let Some(last) = (0..CHANNELS).rev().find(|&c| w.0[c] != 0.0) else {
            return Ok((0.0 <= threshold).then_some(0.0));
        };
        let mut vals = text.split(',');
        let mut d = 0.0;
        for c in 0..=last {
            if w.0[c] == 0.0 {
                vals.by_ref().take(CHANNEL_DIM).for_each(drop);
                continue;
            }
            let mut sum = 0.0;
            for q in &query.channels[c] {
                let v = vals
                    .next()
                    .ok_or_else(|| Error::Storage(format!("signature too short: {text:?}")))?;
                let v: f64 = v
                    .trim()
                    .parse()
                    .map_err(|_| Error::Storage(format!("bad signature value {v:?}")))?;
                sum += (v - q).abs();
                if d + w.0[c] * (sum / CHANNEL_DIM as f64) > threshold {
                    return Ok(None);
                }
            }
            d += w.0[c] * (sum / CHANNEL_DIM as f64);
        }
        Ok((d <= threshold).then_some(d))
    }

    /// Coarse weighted distance: lower bound of [`Signature::distance`].
    pub fn coarse_distance(a: &[f64; CHANNELS], b: &[f64; CHANNELS], w: &Weights) -> f64 {
        (0..CHANNELS).map(|c| w.0[c] * (a[c] - b[c]).abs()).sum()
    }

    /// Serialize to the compact text form stored in the index table.
    pub fn serialize(&self) -> String {
        self.channels
            .iter()
            .flat_map(|ch| ch.iter())
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Parse the serialized form.
    pub fn deserialize(s: &str) -> Result<Signature> {
        let vals: Vec<f64> = s
            .split(',')
            .map(|v| v.trim().parse::<f64>().map_err(|_| Error::Storage(format!("bad signature value {v:?}"))))
            .collect::<Result<_>>()?;
        if vals.len() != CHANNELS * CHANNEL_DIM {
            return Err(Error::Storage(format!(
                "signature needs {} values, got {}",
                CHANNELS * CHANNEL_DIM,
                vals.len()
            )));
        }
        let mut channels = [[0.0; CHANNEL_DIM]; CHANNELS];
        for (i, v) in vals.into_iter().enumerate() {
            channels[i / CHANNEL_DIM][i % CHANNEL_DIM] = v;
        }
        Ok(Signature { channels })
    }
}

/// Deterministic signature workload generator.
pub struct SignatureWorkload {
    rng: StdRng,
}

impl SignatureWorkload {
    /// Generator with a fixed seed.
    pub fn new(seed: u64) -> Self {
        SignatureWorkload { rng: StdRng::seed_from_u64(seed) }
    }

    /// A uniformly random signature.
    pub fn random(&mut self) -> Signature {
        let mut channels = [[0.0; CHANNEL_DIM]; CHANNELS];
        for ch in &mut channels {
            for v in ch.iter_mut() {
                *v = self.rng.gen_range(0.0..100.0);
            }
        }
        Signature { channels }
    }

    /// A near-duplicate of `base`: every value jittered by ±`jitter`.
    pub fn near_duplicate(&mut self, base: &Signature, jitter: f64) -> Signature {
        let mut out = base.clone();
        for ch in &mut out.channels {
            for v in ch.iter_mut() {
                *v = (*v + self.rng.gen_range(-jitter..jitter)).clamp(0.0, 100.0);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_roundtrip() {
        let mut g = SignatureWorkload::new(4);
        let s = g.random();
        let r = Signature::deserialize(&s.serialize()).unwrap();
        // 3-decimal serialization: close, not exact.
        assert!(s.distance(&r, &Weights::default()) < 0.01);
    }

    #[test]
    fn deserialize_rejects_bad_input() {
        assert!(Signature::deserialize("1,2,3").is_err());
        assert!(Signature::deserialize("not-a-number").is_err());
    }

    #[test]
    fn distance_is_zero_for_identical() {
        let mut g = SignatureWorkload::new(1);
        let s = g.random();
        assert_eq!(s.distance(&s, &Weights::default()), 0.0);
    }

    #[test]
    fn near_duplicates_are_close() {
        let mut g = SignatureWorkload::new(2);
        let base = g.random();
        let dup = g.near_duplicate(&base, 1.0);
        let stranger = g.random();
        let w = Weights::default();
        assert!(base.distance(&dup, &w) < 1.0);
        assert!(base.distance(&stranger, &w) > base.distance(&dup, &w));
    }

    #[test]
    fn coarse_distance_lower_bounds_full() {
        let mut g = SignatureWorkload::new(3);
        let w = Weights([0.5, 0.1, 0.3, 0.1]);
        for _ in 0..50 {
            let a = g.random();
            let b = g.random();
            let cd = Signature::coarse_distance(&a.coarse(), &b.coarse(), &w);
            let fd = a.distance(&b, &w);
            assert!(cd <= fd + 1e-9, "coarse {cd} must lower-bound full {fd}");
        }
    }

    #[test]
    fn weight_parsing() {
        let w = Weights::parse("globalcolor=0.5, localcolor=0.0, texture=0.5, structure=0.0").unwrap();
        assert_eq!(w.0, [0.5, 0.0, 0.5, 0.0]);
        let w = Weights::parse("texture=1").unwrap();
        assert_eq!(w.0, [0.0, 0.0, 1.0, 0.0]);
        assert_eq!(Weights::parse("").unwrap(), Weights::default());
        assert!(Weights::parse("hue=1").is_err());
        assert!(Weights::parse("texture:1").is_err());
        for bad in ["globalcolor=-1", "texture=NaN", "texture=inf", "structure=-0.25"] {
            assert!(matches!(Weights::parse(bad), Err(Error::Semantic(_))), "{bad}");
        }
    }

    #[test]
    fn zero_weight_channels_ignored() {
        let mut g = SignatureWorkload::new(5);
        let mut a = g.random();
        let b = a.clone();
        // Perturb only the structure channel; weight it zero.
        a.channels[3][0] += 50.0;
        let w = Weights([1.0, 0.0, 0.0, 0.0]);
        assert_eq!(a.distance(&b, &w), 0.0);
    }
}
