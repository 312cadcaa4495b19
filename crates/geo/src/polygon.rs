//! Planar geometry: points, segments, polygons and ray casting.
//!
//! The environment model describes buildings as 2-D footprint polygons (in a
//! sensor-local ENU frame, meters) extruded to a height. Obstruction testing
//! reduces to: does the ray from the sensor toward an emitter cross a
//! footprint edge, and if so at what distance (to compare the building
//! height against the ray's altitude at the crossing)?

use serde::{Deserialize, Serialize};

/// A point (or vector) in the local horizontal plane, meters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point2 {
    pub x: f64,
    pub y: f64,
}

impl Point2 {
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Construct from compass bearing (degrees from +y/north, clockwise)
    /// and range, matching the ENU convention (`x` = east, `y` = north).
    pub fn from_bearing(bearing_deg: f64, range_m: f64) -> Self {
        let r = bearing_deg.to_radians();
        Self::new(range_m * r.sin(), range_m * r.cos())
    }

    /// Compass bearing of this point as seen from the origin.
    pub fn bearing_deg(&self) -> f64 {
        crate::angle::normalize_bearing(self.x.atan2(self.y).to_degrees())
    }

    /// Distance from the origin.
    pub fn range_m(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }
}

/// A directed line segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment2 {
    pub a: Point2,
    pub b: Point2,
}

impl Segment2 {
    pub const fn new(a: Point2, b: Point2) -> Self {
        Self { a, b }
    }

    /// Length of the segment.
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// Intersection of two segments, if any.
    ///
    /// Returns the parameter `t ∈ [0, 1]` along `self` and the intersection
    /// point. Collinear overlapping segments report the overlap start.
    pub fn intersect(&self, other: &Segment2) -> Option<(f64, Point2)> {
        let r = Point2::new(self.b.x - self.a.x, self.b.y - self.a.y);
        let s = Point2::new(other.b.x - other.a.x, other.b.y - other.a.y);
        let denom = cross(r, s);
        let qp = Point2::new(other.a.x - self.a.x, other.a.y - self.a.y);
        if denom.abs() < 1e-12 {
            // Parallel. Collinear overlap check.
            if cross(qp, r).abs() > 1e-9 {
                return None;
            }
            let rr = r.x * r.x + r.y * r.y;
            if rr < 1e-18 {
                return None; // degenerate self
            }
            let t0 = (qp.x * r.x + qp.y * r.y) / rr;
            let t1 = t0 + (s.x * r.x + s.y * r.y) / rr;
            let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
            let t = lo.max(0.0);
            if t <= hi.min(1.0) {
                let p = Point2::new(self.a.x + t * r.x, self.a.y + t * r.y);
                return Some((t, p));
            }
            return None;
        }
        let t = cross(qp, s) / denom;
        let u = cross(qp, r) / denom;
        if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
            let p = Point2::new(self.a.x + t * r.x, self.a.y + t * r.y);
            Some((t, p))
        } else {
            None
        }
    }
}

fn cross(a: Point2, b: Point2) -> f64 {
    a.x * b.y - a.y * b.x
}

/// A simple (non-self-intersecting) polygon given by its vertex ring.
///
/// The ring may be given in either winding order; it is treated as closed
/// (an implicit edge joins the last vertex back to the first).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon2 {
    vertices: Vec<Point2>,
}

impl Polygon2 {
    /// Build a polygon from at least three vertices.
    ///
    /// Returns `None` for fewer than three vertices.
    pub fn new(vertices: Vec<Point2>) -> Option<Self> {
        if vertices.len() < 3 {
            return None;
        }
        Some(Self { vertices })
    }

    /// Axis-aligned rectangle helper: corners `(x0, y0)`–`(x1, y1)`.
    pub fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        let (xa, xb) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        let (ya, yb) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        Self {
            vertices: vec![
                Point2::new(xa, ya),
                Point2::new(xb, ya),
                Point2::new(xb, yb),
                Point2::new(xa, yb),
            ],
        }
    }

    /// Vertices of the ring.
    pub fn vertices(&self) -> &[Point2] {
        &self.vertices
    }

    /// Iterator over the closed edge list.
    pub fn edges(&self) -> impl Iterator<Item = Segment2> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment2::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Is the point strictly inside the polygon? (Even-odd rule; points on
    /// the boundary may report either way and callers must not rely on it.)
    pub fn contains(&self, p: &Point2) -> bool {
        let n = self.vertices.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if ((vi.y > p.y) != (vj.y > p.y))
                && (p.x < (vj.x - vi.x) * (p.y - vi.y) / (vj.y - vi.y) + vi.x)
            {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// All crossings of the segment `seg` with the polygon boundary, as
    /// `(t, point)` sorted by increasing `t` along the segment.
    pub fn crossings(&self, seg: &Segment2) -> Vec<(f64, Point2)> {
        let mut hits = Vec::new();
        self.crossings_into(seg, &mut hits);
        hits
    }

    /// Non-allocating form of [`crossings`](Self::crossings): clears and
    /// fills a caller-owned buffer. Bit-identical to the allocating form.
    pub fn crossings_into(&self, seg: &Segment2, hits: &mut Vec<(f64, Point2)>) {
        hits.clear();
        hits.extend(self.edges().filter_map(|e| seg.intersect(&e)));
        hits.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        // Deduplicate vertex hits (a crossing exactly at a shared vertex is
        // reported by both incident edges).
        hits.dedup_by(|a, b| (a.0 - b.0).abs() < 1e-9);
    }

    /// Total length of `seg` that lies inside the polygon. This is the
    /// through-material distance used for penetration-loss estimates.
    pub fn chord_length_inside(&self, seg: &Segment2) -> f64 {
        let crossings = self.crossings(seg);
        self.chord_length_inside_from(seg, &crossings, &mut Vec::new())
    }

    /// Non-allocating form of [`chord_length_inside`](Self::chord_length_inside)
    /// that reuses already-computed boundary `crossings` (as returned by
    /// [`crossings`](Self::crossings) for the *same* segment) and a
    /// caller-owned scratch buffer. Bit-identical to the allocating form.
    pub fn chord_length_inside_from(
        &self,
        seg: &Segment2,
        crossings: &[(f64, Point2)],
        ts: &mut Vec<f64>,
    ) -> f64 {
        ts.clear();
        ts.push(0.0);
        ts.extend(crossings.iter().map(|(t, _)| *t));
        ts.push(1.0);
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let len = seg.length();
        let mut inside_len = 0.0;
        for w in ts.windows(2) {
            let mid = (w[0] + w[1]) / 2.0;
            let p = Point2::new(
                seg.a.x + mid * (seg.b.x - seg.a.x),
                seg.a.y + mid * (seg.b.y - seg.a.y),
            );
            if self.contains(&p) {
                inside_len += (w[1] - w[0]) * len;
            }
        }
        inside_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon2 {
        Polygon2::rect(0.0, 0.0, 1.0, 1.0)
    }

    #[test]
    fn polygon_needs_three_vertices() {
        assert!(Polygon2::new(vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)]).is_none());
        assert!(Polygon2::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0)
        ])
        .is_some());
    }

    #[test]
    fn contains_basic() {
        let sq = unit_square();
        assert!(sq.contains(&Point2::new(0.5, 0.5)));
        assert!(!sq.contains(&Point2::new(1.5, 0.5)));
        assert!(!sq.contains(&Point2::new(-0.1, 0.5)));
    }

    #[test]
    fn segment_intersection_crossing() {
        let s1 = Segment2::new(Point2::new(0.0, 0.0), Point2::new(2.0, 2.0));
        let s2 = Segment2::new(Point2::new(0.0, 2.0), Point2::new(2.0, 0.0));
        let (t, p) = s1.intersect(&s2).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segment_intersection_miss_and_parallel() {
        let s1 = Segment2::new(Point2::new(0.0, 0.0), Point2::new(1.0, 0.0));
        let s2 = Segment2::new(Point2::new(0.0, 1.0), Point2::new(1.0, 1.0));
        assert!(s1.intersect(&s2).is_none());
        let s3 = Segment2::new(Point2::new(2.0, -1.0), Point2::new(2.0, 1.0));
        assert!(s1.intersect(&s3).is_none());
    }

    #[test]
    fn segment_collinear_overlap() {
        let s1 = Segment2::new(Point2::new(0.0, 0.0), Point2::new(2.0, 0.0));
        let s2 = Segment2::new(Point2::new(1.0, 0.0), Point2::new(3.0, 0.0));
        let (t, p) = s1.intersect(&s2).unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        assert!((p.x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ray_through_square_two_crossings() {
        let sq = unit_square();
        let ray = Segment2::new(Point2::new(-1.0, 0.5), Point2::new(2.0, 0.5));
        let hits = sq.crossings(&ray);
        assert_eq!(hits.len(), 2);
        assert!((hits[0].1.x - 0.0).abs() < 1e-9);
        assert!((hits[1].1.x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chord_length_through_square() {
        let sq = unit_square();
        let ray = Segment2::new(Point2::new(-1.0, 0.5), Point2::new(2.0, 0.5));
        assert!((sq.chord_length_inside(&ray) - 1.0).abs() < 1e-9);
        let outside = Segment2::new(Point2::new(-1.0, 5.0), Point2::new(2.0, 5.0));
        assert_eq!(sq.chord_length_inside(&outside), 0.0);
    }

    #[test]
    fn chord_length_from_inside_point() {
        // Sensor inside a building: ray starts inside.
        let sq = Polygon2::rect(-10.0, -10.0, 10.0, 10.0);
        let ray = Segment2::new(Point2::new(0.0, 0.0), Point2::new(50.0, 0.0));
        assert!((sq.chord_length_inside(&ray) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn point2_bearing_convention() {
        // +y is north (bearing 0), +x is east (bearing 90).
        assert!((Point2::new(0.0, 1.0).bearing_deg() - 0.0).abs() < 1e-9);
        assert!((Point2::new(1.0, 0.0).bearing_deg() - 90.0).abs() < 1e-9);
        assert!((Point2::new(0.0, -1.0).bearing_deg() - 180.0).abs() < 1e-9);
        assert!((Point2::new(-1.0, 0.0).bearing_deg() - 270.0).abs() < 1e-9);
    }

    #[test]
    fn from_bearing_round_trip() {
        for brg in [0.0, 30.0, 90.0, 200.0, 355.0] {
            let p = Point2::from_bearing(brg, 100.0);
            assert!((p.bearing_deg() - brg).abs() < 1e-9, "brg {brg}");
            assert!((p.range_m() - 100.0).abs() < 1e-9);
        }
    }
}
