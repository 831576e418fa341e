//! Property tests for image signatures: the filter-safety invariant (the
//! coarse distance lower-bounds the full distance, so phases 1–2 never
//! dismiss a true match) and serialization stability.

use proptest::prelude::*;

use extidx_vir::{Signature, Weights};
use extidx_vir::signature::{CHANNELS, CHANNEL_DIM};

fn arb_signature() -> impl Strategy<Value = Signature> {
    prop::collection::vec(0.0f64..100.0, CHANNELS * CHANNEL_DIM).prop_map(|vals| {
        let mut channels = [[0.0; CHANNEL_DIM]; CHANNELS];
        for (i, v) in vals.into_iter().enumerate() {
            channels[i / CHANNEL_DIM][i % CHANNEL_DIM] = v;
        }
        Signature { channels }
    })
}

fn arb_weights() -> impl Strategy<Value = Weights> {
    prop::collection::vec(0.0f64..1.0, CHANNELS).prop_map(|w| {
        Weights([w[0], w[1], w[2], w[3]])
    })
}

proptest! {
    /// Coarse distance never exceeds full distance (filter safety).
    #[test]
    fn coarse_lower_bounds_full(a in arb_signature(), b in arb_signature(), w in arb_weights()) {
        let coarse = Signature::coarse_distance(&a.coarse(), &b.coarse(), &w);
        let full = a.distance(&b, &w);
        prop_assert!(coarse <= full + 1e-9, "coarse {coarse} > full {full}");
    }

    /// Distance is a symmetric, non-negative, self-zero function.
    #[test]
    fn distance_metric_basics(a in arb_signature(), b in arb_signature(), w in arb_weights()) {
        prop_assert!(a.distance(&b, &w) >= 0.0);
        prop_assert!((a.distance(&b, &w) - b.distance(&a, &w)).abs() < 1e-9);
        prop_assert_eq!(a.distance(&a, &w), 0.0);
    }

    /// Triangle inequality holds for the weighted mean-abs-diff distance.
    #[test]
    fn distance_triangle_inequality(
        a in arb_signature(),
        b in arb_signature(),
        c in arb_signature(),
        w in arb_weights(),
    ) {
        let ab = a.distance(&b, &w);
        let bc = b.distance(&c, &w);
        let ac = a.distance(&c, &w);
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    /// Serialization round-trips within quantization error.
    #[test]
    fn serialize_roundtrip_close(a in arb_signature()) {
        let b = Signature::deserialize(&a.serialize()).unwrap();
        let w = Weights([0.25; CHANNELS]);
        prop_assert!(a.distance(&b, &w) < 0.01);
    }

    /// Phase 3's early-exit comparison of a signature's text answers
    /// exactly `distance(…) <= threshold`, with the same distance, at full
    /// precision (`{:?}` renders every bit) and at thresholds on both sides
    /// of the distance, including a weight of 0 on any channel.
    #[test]
    fn distance_within_equals_distance(
        a in arb_signature(),
        b in arb_signature(),
        w in arb_weights(),
        zero in 0usize..CHANNELS + 1,
        scale in 0.0f64..2.0,
    ) {
        let mut w = w;
        if zero < CHANNELS {
            w.0[zero] = 0.0;
        }
        let text: Vec<String> = a.channels.iter().flatten().map(|v| format!("{v:?}")).collect();
        let text = text.join(",");
        let d = a.distance(&b, &w);
        for threshold in [d, d * scale, d * (1.0 + scale), 0.0] {
            let within = Signature::distance_within(&text, &b, &w, threshold).unwrap();
            prop_assert_eq!(within, (d <= threshold).then_some(d));
        }
    }

    /// Weight parsing accepts every rendering of valid weights.
    #[test]
    fn weights_parse_rendered(w in arb_weights()) {
        let rendered = format!(
            "globalcolor={}, localcolor={}, texture={}, structure={}",
            w.0[0], w.0[1], w.0[2], w.0[3]
        );
        let parsed = Weights::parse(&rendered).unwrap();
        for c in 0..CHANNELS {
            prop_assert!((parsed.0[c] - w.0[c]).abs() < 1e-9);
        }
    }
}
