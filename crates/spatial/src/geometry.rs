//! 2-D geometries and spatial relations.
//!
//! The cartridge models the subset of `SDO_GEOMETRY` its case study needs:
//! points, axis-aligned rectangles, and simple polygons, with the spatial
//! relations the `Sdo_Relate` masks name (§3.2.2): OVERLAPS, INSIDE,
//! CONTAINS, EQUAL, ANYINTERACT, TOUCH.
//!
//! SQL representation: an object value `SDO_GEOMETRY(gtype, coords)` with
//! `gtype` 1 = point `(x, y)`, 2 = rectangle `(xmin, ymin, xmax, ymax)`,
//! 3 = polygon `(x1, y1, …, xn, yn)`.

use extidx_common::{Error, Result, Value};

/// Geometry type codes used in the `gtype` attribute.
pub const GTYPE_POINT: i64 = 1;
pub const GTYPE_RECT: i64 = 2;
pub const GTYPE_POLYGON: i64 = 3;

/// Axis-aligned bounding rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbr {
    pub xmin: f64,
    pub ymin: f64,
    pub xmax: f64,
    pub ymax: f64,
}

impl Mbr {
    /// Whether two MBRs share any point.
    pub fn intersects(&self, o: &Mbr) -> bool {
        self.xmin <= o.xmax && o.xmin <= self.xmax && self.ymin <= o.ymax && o.ymin <= self.ymax
    }

    /// Whether `self` fully contains `o`.
    pub fn contains(&self, o: &Mbr) -> bool {
        self.xmin <= o.xmin && self.ymin <= o.ymin && self.xmax >= o.xmax && self.ymax >= o.ymax
    }
}

/// A geometry value.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    Point { x: f64, y: f64 },
    Rect(Mbr),
    /// Simple polygon, vertices in order (closed implicitly).
    Polygon(Vec<(f64, f64)>),
}

/// The spatial relationship masks of `Sdo_Relate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mask {
    AnyInteract,
    Overlaps,
    Inside,
    Contains,
    Equal,
    Touch,
}

impl Mask {
    /// Parse an `Sdo_Relate` parameter string (`"mask=OVERLAPS"` or just
    /// `"OVERLAPS"`).
    pub fn parse(s: &str) -> Result<Mask> {
        let m = s.trim();
        let m = m.strip_prefix("mask=").or_else(|| m.strip_prefix("MASK=")).unwrap_or(m);
        Ok(match m.trim().to_ascii_uppercase().as_str() {
            "ANYINTERACT" => Mask::AnyInteract,
            "OVERLAPS" | "OVERLAPBDYINTERSECT" => Mask::Overlaps,
            "INSIDE" => Mask::Inside,
            "CONTAINS" | "COVERS" => Mask::Contains,
            "EQUAL" => Mask::Equal,
            "TOUCH" => Mask::Touch,
            other => return Err(Error::Semantic(format!("unknown spatial mask {other:?}"))),
        })
    }
}

impl Geometry {
    /// Minimum bounding rectangle.
    pub fn mbr(&self) -> Mbr {
        match self {
            Geometry::Point { x, y } => Mbr { xmin: *x, ymin: *y, xmax: *x, ymax: *y },
            Geometry::Rect(r) => *r,
            Geometry::Polygon(pts) => {
                let mut m = Mbr {
                    xmin: f64::INFINITY,
                    ymin: f64::INFINITY,
                    xmax: f64::NEG_INFINITY,
                    ymax: f64::NEG_INFINITY,
                };
                for (x, y) in pts {
                    m.xmin = m.xmin.min(*x);
                    m.ymin = m.ymin.min(*y);
                    m.xmax = m.xmax.max(*x);
                    m.ymax = m.ymax.max(*y);
                }
                m
            }
        }
    }

    /// Polygon vertex list of the geometry's outline.
    fn outline(&self) -> Vec<(f64, f64)> {
        match self {
            Geometry::Point { x, y } => vec![(*x, *y)],
            Geometry::Rect(r) => {
                vec![(r.xmin, r.ymin), (r.xmax, r.ymin), (r.xmax, r.ymax), (r.xmin, r.ymax)]
            }
            Geometry::Polygon(pts) => pts.clone(),
        }
    }

    /// Whether a point is inside (or on the edge of) this geometry.
    pub fn covers_point(&self, px: f64, py: f64) -> bool {
        match self {
            Geometry::Point { x, y } => *x == px && *y == py,
            Geometry::Rect(r) => px >= r.xmin && px <= r.xmax && py >= r.ymin && py <= r.ymax,
            Geometry::Polygon(pts) => point_in_polygon(px, py, pts),
        }
    }

    /// Whether the interiors/boundaries of two geometries share any point.
    pub fn intersects(&self, other: &Geometry) -> bool {
        if !self.mbr().intersects(&other.mbr()) {
            return false;
        }
        match (self, other) {
            (Geometry::Point { x, y }, g) | (g, Geometry::Point { x, y }) => g.covers_point(*x, *y),
            (Geometry::Rect(a), Geometry::Rect(b)) => a.intersects(b),
            _ => {
                let pa = self.outline();
                let pb = other.outline();
                // Any edge crossing?
                if edges(&pa).any(|ea| edges(&pb).any(|eb| segments_intersect(ea, eb))) {
                    return true;
                }
                // Full containment either way?
                self.covers_point(pb[0].0, pb[0].1) || other.covers_point(pa[0].0, pa[0].1)
            }
        }
    }

    /// Whether `self` fully contains `other`.
    pub fn contains(&self, other: &Geometry) -> bool {
        if !self.mbr().contains(&other.mbr()) {
            return false;
        }
        match (self, other) {
            (Geometry::Rect(a), Geometry::Rect(b)) => a.contains(b),
            (g, Geometry::Point { x, y }) => g.covers_point(*x, *y),
            _ => {
                let pb = other.outline();
                // All vertices inside, and no edge of other crosses an
                // edge of self (sufficient for the simple polygons the
                // workloads generate).
                pb.iter().all(|(x, y)| self.covers_point(*x, *y))
                    && !edges(&self.outline())
                        .any(|ea| edges(&pb).any(|eb| segments_cross_strictly(ea, eb)))
            }
        }
    }

    /// Evaluate a spatial relation mask between `self` and `other`.
    pub fn relate(&self, other: &Geometry, mask: Mask) -> bool {
        match mask {
            Mask::AnyInteract => self.intersects(other),
            Mask::Equal => self == other || (self.contains(other) && other.contains(self)),
            Mask::Inside => other.contains(self) && self != other,
            Mask::Contains => self.contains(other) && self != other,
            Mask::Overlaps => {
                self.intersects(other) && !self.contains(other) && !other.contains(self)
            }
            Mask::Touch => {
                // Boundaries meet but interiors are disjoint — approximated
                // as intersecting with zero-area overlap of MBRs.
                if !self.intersects(other) {
                    return false;
                }
                let a = self.mbr();
                let b = other.mbr();
                let w = (a.xmax.min(b.xmax) - a.xmin.max(b.xmin)).max(0.0);
                let h = (a.ymax.min(b.ymax) - a.ymin.max(b.ymin)).max(0.0);
                w == 0.0 || h == 0.0
            }
        }
    }

    // ---- SQL value conversion ------------------------------------------------

    /// Convert to the `SDO_GEOMETRY` object value.
    pub fn to_value(&self) -> Value {
        let (gtype, coords): (i64, Vec<f64>) = match self {
            Geometry::Point { x, y } => (GTYPE_POINT, vec![*x, *y]),
            Geometry::Rect(r) => (GTYPE_RECT, vec![r.xmin, r.ymin, r.xmax, r.ymax]),
            Geometry::Polygon(pts) => {
                (GTYPE_POLYGON, pts.iter().flat_map(|(x, y)| [*x, *y]).collect())
            }
        };
        Value::Object(
            "SDO_GEOMETRY".into(),
            vec![
                Value::Integer(gtype),
                Value::Array(coords.into_iter().map(Value::Number).collect()),
            ],
        )
    }

    /// Parse from an `SDO_GEOMETRY` object value.
    pub fn from_value(v: &Value) -> Result<Geometry> {
        let (name, attrs) = v.as_object()?;
        if name != "SDO_GEOMETRY" {
            return Err(Error::type_mismatch("SDO_GEOMETRY", name));
        }
        let gtype = attrs[0].as_integer()?;
        let coords: Vec<f64> =
            attrs[1].as_array()?.iter().map(|c| c.as_number()).collect::<Result<_>>()?;
        Self::from_parts(gtype, &coords)
    }

    /// Build from `(gtype, coords)` parts.
    pub fn from_parts(gtype: i64, coords: &[f64]) -> Result<Geometry> {
        Ok(match gtype {
            GTYPE_POINT => {
                if coords.len() != 2 {
                    return Err(Error::Semantic("point needs 2 coordinates".into()));
                }
                Geometry::Point { x: coords[0], y: coords[1] }
            }
            GTYPE_RECT => {
                if coords.len() != 4 {
                    return Err(Error::Semantic("rectangle needs 4 coordinates".into()));
                }
                Geometry::Rect(Mbr {
                    xmin: coords[0].min(coords[2]),
                    ymin: coords[1].min(coords[3]),
                    xmax: coords[0].max(coords[2]),
                    ymax: coords[1].max(coords[3]),
                })
            }
            GTYPE_POLYGON => {
                if coords.len() < 6 || !coords.len().is_multiple_of(2) {
                    return Err(Error::Semantic("polygon needs ≥3 (x, y) pairs".into()));
                }
                Geometry::Polygon(coords.chunks(2).map(|c| (c[0], c[1])).collect())
            }
            other => return Err(Error::Semantic(format!("unknown gtype {other}"))),
        })
    }
}

fn edges(pts: &[(f64, f64)]) -> impl Iterator<Item = ((f64, f64), (f64, f64))> + '_ {
    (0..pts.len()).filter(move |_| pts.len() >= 2).map(move |i| (pts[i], pts[(i + 1) % pts.len()]))
}

fn orient(a: (f64, f64), b: (f64, f64), c: (f64, f64)) -> f64 {
    (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0)
}

fn on_segment(a: (f64, f64), b: (f64, f64), p: (f64, f64)) -> bool {
    orient(a, b, p) == 0.0
        && p.0 >= a.0.min(b.0)
        && p.0 <= a.0.max(b.0)
        && p.1 >= a.1.min(b.1)
        && p.1 <= a.1.max(b.1)
}

/// Segment intersection including endpoints.
fn segments_intersect(e1: ((f64, f64), (f64, f64)), e2: ((f64, f64), (f64, f64))) -> bool {
    let (a, b) = e1;
    let (c, d) = e2;
    let d1 = orient(c, d, a);
    let d2 = orient(c, d, b);
    let d3 = orient(a, b, c);
    let d4 = orient(a, b, d);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    on_segment(c, d, a) || on_segment(c, d, b) || on_segment(a, b, c) || on_segment(a, b, d)
}

/// Strict (interior) crossing — endpoint touches excluded.
fn segments_cross_strictly(e1: ((f64, f64), (f64, f64)), e2: ((f64, f64), (f64, f64))) -> bool {
    let (a, b) = e1;
    let (c, d) = e2;
    let d1 = orient(c, d, a);
    let d2 = orient(c, d, b);
    let d3 = orient(a, b, c);
    let d4 = orient(a, b, d);
    ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
}

/// Ray-cast point-in-polygon (boundary counts as inside).
fn point_in_polygon(px: f64, py: f64, pts: &[(f64, f64)]) -> bool {
    let n = pts.len();
    if n < 3 {
        return false;
    }
    // Boundary check first.
    for i in 0..n {
        if on_segment(pts[i], pts[(i + 1) % n], (px, py)) {
            return true;
        }
    }
    let mut inside = false;
    let mut j = n - 1;
    for i in 0..n {
        let (xi, yi) = pts[i];
        let (xj, yj) = pts[j];
        if ((yi > py) != (yj > py)) && (px < (xj - xi) * (py - yi) / (yj - yi) + xi) {
            inside = !inside;
        }
        j = i;
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Geometry {
        Geometry::Rect(Mbr { xmin: x0, ymin: y0, xmax: x1, ymax: y1 })
    }

    #[test]
    fn rect_relations() {
        let a = rect(0.0, 0.0, 10.0, 10.0);
        let b = rect(5.0, 5.0, 15.0, 15.0);
        let inner = rect(2.0, 2.0, 4.0, 4.0);
        let far = rect(20.0, 20.0, 30.0, 30.0);
        assert!(a.relate(&b, Mask::Overlaps));
        assert!(!a.relate(&inner, Mask::Overlaps), "containment is not overlap");
        assert!(a.relate(&inner, Mask::Contains));
        assert!(inner.relate(&a, Mask::Inside));
        assert!(!a.relate(&far, Mask::AnyInteract));
        assert!(a.relate(&a, Mask::Equal));
    }

    #[test]
    fn touch_relation() {
        let a = rect(0.0, 0.0, 10.0, 10.0);
        let adjacent = rect(10.0, 0.0, 20.0, 10.0);
        assert!(a.relate(&adjacent, Mask::Touch));
        let overlapping = rect(5.0, 0.0, 20.0, 10.0);
        assert!(!a.relate(&overlapping, Mask::Touch));
    }

    #[test]
    fn point_relations() {
        let p = Geometry::Point { x: 3.0, y: 3.0 };
        let a = rect(0.0, 0.0, 10.0, 10.0);
        assert!(a.relate(&p, Mask::Contains));
        assert!(p.relate(&a, Mask::Inside));
        assert!(p.relate(&a, Mask::AnyInteract));
        let q = Geometry::Point { x: 30.0, y: 3.0 };
        assert!(!q.relate(&a, Mask::AnyInteract));
    }

    #[test]
    fn polygon_relations() {
        let tri = Geometry::Polygon(vec![(0.0, 0.0), (10.0, 0.0), (5.0, 10.0)]);
        assert!(tri.covers_point(5.0, 2.0));
        assert!(!tri.covers_point(0.0, 9.0));
        let small = rect(4.0, 1.0, 6.0, 2.0);
        assert!(tri.relate(&small, Mask::Contains));
        let crossing = rect(-5.0, -1.0, 5.0, 1.0);
        assert!(tri.relate(&crossing, Mask::Overlaps));
    }

    #[test]
    fn mask_parsing() {
        assert_eq!(Mask::parse("mask=OVERLAPS").unwrap(), Mask::Overlaps);
        assert_eq!(Mask::parse(" overlaps ").unwrap(), Mask::Overlaps);
        assert_eq!(Mask::parse("MASK=inside").unwrap(), Mask::Inside);
        assert!(Mask::parse("mask=NONSENSE").is_err());
    }

    #[test]
    fn value_roundtrip() {
        for g in [
            Geometry::Point { x: 1.0, y: 2.0 },
            rect(0.0, 1.0, 2.0, 3.0),
            Geometry::Polygon(vec![(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)]),
        ] {
            assert_eq!(Geometry::from_value(&g.to_value()).unwrap(), g);
        }
    }

    #[test]
    fn rect_normalizes_corners() {
        let g = Geometry::from_parts(GTYPE_RECT, &[10.0, 12.0, 2.0, 3.0]).unwrap();
        assert_eq!(g.mbr(), Mbr { xmin: 2.0, ymin: 3.0, xmax: 10.0, ymax: 12.0 });
    }

    #[test]
    fn mbr_of_polygon() {
        let tri = Geometry::Polygon(vec![(1.0, 1.0), (5.0, 2.0), (3.0, 7.0)]);
        let m = tri.mbr();
        assert_eq!((m.xmin, m.ymin, m.xmax, m.ymax), (1.0, 1.0, 5.0, 7.0));
    }
}
