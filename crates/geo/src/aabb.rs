//! Axis-aligned bounding boxes for the spatial index.
//!
//! The world's spatial index bins building footprints into a uniform grid
//! by their 2-D AABBs. The only geometric predicate the index needs is
//! *conservative*: "could this segment possibly touch this box?" — false
//! negatives would silently drop obstruction losses, false positives only
//! cost a redundant exact test downstream. The slab test below is exact
//! for closed boxes, and callers pad boxes by an epsilon so floating-point
//! corner grazes can never be missed.

use crate::polygon::{Point2, Polygon2, Segment2};
use serde::{Deserialize, Serialize};

/// A closed axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb2 {
    pub min: Point2,
    pub max: Point2,
}

impl Aabb2 {
    /// The empty box (contains nothing, unions as identity).
    pub fn empty() -> Self {
        Self {
            min: Point2::new(f64::INFINITY, f64::INFINITY),
            max: Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Is this the empty box?
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Tight bounding box of a point set; empty for an empty set.
    pub fn from_points(points: &[Point2]) -> Self {
        let mut b = Self::empty();
        for p in points {
            b.min.x = b.min.x.min(p.x);
            b.min.y = b.min.y.min(p.y);
            b.max.x = b.max.x.max(p.x);
            b.max.y = b.max.y.max(p.y);
        }
        b
    }

    /// Tight bounding box of a polygon's vertex ring.
    pub fn of_polygon(poly: &Polygon2) -> Self {
        Self::from_points(poly.vertices())
    }

    /// Grow the box by `pad` on every side.
    pub fn expand(&self, pad: f64) -> Self {
        Self {
            min: Point2::new(self.min.x - pad, self.min.y - pad),
            max: Point2::new(self.max.x + pad, self.max.y + pad),
        }
    }

    /// Union with another box.
    pub fn union(&self, other: &Aabb2) -> Self {
        Self {
            min: Point2::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point2::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Width (east-west extent).
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height (north-south extent).
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Does the closed box contain the point?
    pub fn contains(&self, p: &Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clip the segment's parameter interval `[0, 1]` against the closed
    /// box (slab method). Returns the surviving `(t0, t1)` interval, or
    /// `None` if the segment misses the box. Degenerate (zero-length)
    /// segments reduce to a point-containment test.
    pub fn clip_segment(&self, seg: &Segment2) -> Option<(f64, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut t0 = 0.0f64;
        let mut t1 = 1.0f64;
        let d = Point2::new(seg.b.x - seg.a.x, seg.b.y - seg.a.y);

        for (a, d, lo, hi) in [
            (seg.a.x, d.x, self.min.x, self.max.x),
            (seg.a.y, d.y, self.min.y, self.max.y),
        ] {
            if d == 0.0 {
                // Parallel to this slab: inside it or nowhere.
                if a < lo || a > hi {
                    return None;
                }
            } else {
                let inv = 1.0 / d;
                let (mut near, mut far) = ((lo - a) * inv, (hi - a) * inv);
                if near > far {
                    std::mem::swap(&mut near, &mut far);
                }
                t0 = t0.max(near);
                t1 = t1.min(far);
                if t0 > t1 {
                    return None;
                }
            }
        }
        Some((t0, t1))
    }

    /// Does the segment intersect the closed box?
    pub fn intersects_segment(&self, seg: &Segment2) -> bool {
        self.clip_segment(seg).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb2 {
        Aabb2 {
            min: Point2::new(0.0, 0.0),
            max: Point2::new(1.0, 1.0),
        }
    }

    #[test]
    fn empty_box_behaviour() {
        let e = Aabb2::empty();
        assert!(e.is_empty());
        assert!(!e.contains(&Point2::new(0.0, 0.0)));
        assert!(!e.intersects_segment(&Segment2::new(
            Point2::new(-1.0, -1.0),
            Point2::new(1.0, 1.0)
        )));
        let u = e.union(&unit());
        assert_eq!(u, unit());
    }

    #[test]
    fn from_polygon_is_tight() {
        let poly = Polygon2::rect(-3.0, 2.0, 5.0, 7.0);
        let b = Aabb2::of_polygon(&poly);
        assert_eq!(b.min, Point2::new(-3.0, 2.0));
        assert_eq!(b.max, Point2::new(5.0, 7.0));
        assert_eq!(b.width(), 8.0);
        assert_eq!(b.height(), 5.0);
    }

    #[test]
    fn segment_crossing_hits() {
        let b = unit();
        // Straight through.
        assert!(b.intersects_segment(&Segment2::new(
            Point2::new(-1.0, 0.5),
            Point2::new(2.0, 0.5)
        )));
        // Fully inside.
        assert!(b.intersects_segment(&Segment2::new(Point2::new(0.2, 0.2), Point2::new(0.8, 0.8))));
        // Endpoint inside.
        assert!(b.intersects_segment(&Segment2::new(Point2::new(0.5, 0.5), Point2::new(5.0, 5.0))));
        // Diagonal graze exactly through the corner.
        assert!(b.intersects_segment(&Segment2::new(
            Point2::new(-1.0, 2.0),
            Point2::new(2.0, -1.0)
        )));
    }

    #[test]
    fn segment_missing_misses() {
        let b = unit();
        assert!(!b.intersects_segment(&Segment2::new(
            Point2::new(-1.0, 2.0),
            Point2::new(2.0, 2.0)
        )));
        assert!(!b.intersects_segment(&Segment2::new(
            Point2::new(2.0, -1.0),
            Point2::new(2.0, 2.0)
        )));
        // Diagonal that passes just outside the (1, 1) corner: x + y = 2.1.
        assert!(!b.intersects_segment(&Segment2::new(
            Point2::new(-1.0, 3.1),
            Point2::new(3.1, -1.0)
        )));
    }

    #[test]
    fn degenerate_segment_is_point_test() {
        let b = unit();
        let inside = Segment2::new(Point2::new(0.5, 0.5), Point2::new(0.5, 0.5));
        let outside = Segment2::new(Point2::new(1.5, 0.5), Point2::new(1.5, 0.5));
        assert!(b.intersects_segment(&inside));
        assert!(!b.intersects_segment(&outside));
    }

    #[test]
    fn expand_pads_every_side() {
        let b = unit().expand(0.5);
        assert_eq!(b.min, Point2::new(-0.5, -0.5));
        assert_eq!(b.max, Point2::new(1.5, 1.5));
    }
}
