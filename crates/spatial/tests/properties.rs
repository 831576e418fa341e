//! Property tests for spatial geometry and tiling invariants, including
//! the critical one: the tile-based primary filter never misses an
//! interacting pair (no false dismissals before the exact filter).

use proptest::prelude::*;

use extidx_spatial::{Geometry, Mask, Mbr, Tessellation};

fn arb_rect() -> impl Strategy<Value = Geometry> {
    (0.0f64..900.0, 0.0f64..900.0, 1.0f64..100.0, 1.0f64..100.0).prop_map(|(x, y, w, h)| {
        Geometry::Rect(Mbr { xmin: x, ymin: y, xmax: x + w, ymax: y + h })
    })
}

fn arb_point() -> impl Strategy<Value = Geometry> {
    (0.0f64..1000.0, 0.0f64..1000.0).prop_map(|(x, y)| Geometry::Point { x, y })
}

fn arb_triangle() -> impl Strategy<Value = Geometry> {
    (50.0f64..900.0, 50.0f64..900.0, 1.0f64..50.0, 1.0f64..50.0, 1.0f64..50.0).prop_map(
        |(cx, cy, a, b, c)| {
            Geometry::Polygon(vec![(cx - a, cy - b), (cx + b, cy - c), (cx + c, cy + a)])
        },
    )
}

fn arb_geom() -> impl Strategy<Value = Geometry> {
    prop_oneof![arb_rect(), arb_point(), arb_triangle()]
}

proptest! {
    /// intersects is symmetric.
    #[test]
    fn intersects_symmetric(a in arb_geom(), b in arb_geom()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    /// contains implies intersects; equality implies both contains.
    #[test]
    fn contains_implies_intersects(a in arb_geom(), b in arb_geom()) {
        if a.contains(&b) {
            prop_assert!(a.intersects(&b));
        }
        prop_assert!(a.contains(&a));
        prop_assert!(a.relate(&a, Mask::Equal));
    }

    /// OVERLAPS, INSIDE, CONTAINS, EQUAL are mutually exclusive and each
    /// implies ANYINTERACT.
    #[test]
    fn masks_partition_interactions(a in arb_rect(), b in arb_rect()) {
        let relations = [Mask::Overlaps, Mask::Inside, Mask::Contains, Mask::Equal];
        let holding: Vec<Mask> =
            relations.into_iter().filter(|m| a.relate(&b, *m)).collect();
        prop_assert!(holding.len() <= 1, "multiple exclusive masks hold: {holding:?}");
        for m in &holding {
            prop_assert!(a.relate(&b, Mask::AnyInteract), "{m:?} without ANYINTERACT");
        }
        // INSIDE and CONTAINS are converses.
        prop_assert_eq!(a.relate(&b, Mask::Inside), b.relate(&a, Mask::Contains));
    }

    /// The primary filter is safe: interacting geometries always share at
    /// least one tile, at any tessellation level.
    #[test]
    fn primary_filter_never_misses(a in arb_geom(), b in arb_geom(), level in 1u32..8) {
        let tess = Tessellation { world: 1024.0, level };
        if a.intersects(&b) {
            let ta = tess.tiles_for(&a);
            let tb = tess.tiles_for(&b);
            prop_assert!(
                ta.iter().any(|t| tb.contains(t)),
                "interacting geometries share no tile at level {level}"
            );
        }
    }

    /// Every geometry maps to at least one tile, and all tile codes are
    /// within the grid.
    #[test]
    fn tiles_are_in_range(g in arb_geom(), level in 1u32..8) {
        let tess = Tessellation { world: 1024.0, level };
        let tiles = tess.tiles_for(&g);
        prop_assert!(!tiles.is_empty());
        let max = (tess.grid() * tess.grid()) as i64;
        for t in tiles {
            prop_assert!((0..max).contains(&t));
        }
    }

    /// MBR containment is implied by geometric containment.
    #[test]
    fn mbr_respects_containment(a in arb_geom(), b in arb_geom()) {
        if a.contains(&b) {
            prop_assert!(a.mbr().contains(&b.mbr()));
        }
        if a.intersects(&b) {
            prop_assert!(a.mbr().intersects(&b.mbr()));
        }
    }

    /// A rect always contains its own center point.
    #[test]
    fn rect_contains_center(g in arb_rect()) {
        let m = g.mbr();
        let (cx, cy) = ((m.xmin + m.xmax) / 2.0, (m.ymin + m.ymax) / 2.0);
        prop_assert!(g.covers_point(cx, cy));
        let center = Geometry::Point { x: cx, y: cy };
        prop_assert!(g.relate(&center, Mask::Contains));
    }
}
