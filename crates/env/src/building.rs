//! Buildings: extruded footprints with materials.

use aircal_geo::{Aabb2, Point2, Polygon2, Segment2};
use aircal_rfprop::Material;
use serde::{Deserialize, Serialize};

/// A building: a 2-D footprint (in the world's local ENU frame, meters)
/// extruded to a height, with exterior wall and roof materials and a bulk
/// interior attenuation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Building {
    /// Display name for reports.
    pub name: String,
    /// Footprint polygon in world-ENU meters.
    pub footprint: Polygon2,
    /// Roof height above local ground, meters.
    pub height_m: f64,
    /// Exterior wall material (each traversal of the footprint boundary
    /// crosses one wall).
    pub wall_material: Material,
    /// Bulk interior attenuation in dB per meter of chord at 1 GHz
    /// (scaled ∝ √f; furniture, partitions, people).
    pub interior_db_per_m: f64,
}

impl Building {
    /// Construct a building with typical interior clutter (0.4 dB/m at
    /// 1 GHz, the usual dense-office figure).
    pub fn new(
        name: impl Into<String>,
        footprint: Polygon2,
        height_m: f64,
        wall: Material,
    ) -> Self {
        Self {
            name: name.into(),
            footprint,
            height_m: height_m.max(0.0),
            wall_material: wall,
            interior_db_per_m: 0.4,
        }
    }

    /// Override the bulk interior attenuation (dB/m at 1 GHz) — e.g.
    /// machinery penthouses are far denser than open-plan offices.
    pub fn with_interior_loss(mut self, db_per_m: f64) -> Self {
        self.interior_db_per_m = db_per_m.max(0.0);
        self
    }

    /// Penetration loss for a ray whose 2-D track is `seg`, at `freq_hz`,
    /// in dB: one wall per boundary crossing plus bulk interior loss along
    /// the inside chord. Zero if the ray misses the footprint.
    pub fn through_loss_db(&self, seg: &Segment2, freq_hz: f64) -> f64 {
        let crossings = self.footprint.crossings(seg);
        if crossings.is_empty() && !self.footprint.contains(&seg.a) {
            return 0.0;
        }
        let wall = self.wall_material.penetration_loss_db(freq_hz);
        let chord = self.footprint.chord_length_inside(seg);
        let f_scale = (freq_hz / 1e9).max(0.01).sqrt();
        crossings.len() as f64 * wall + chord * self.interior_db_per_m * f_scale
    }

    /// Does the ray's 2-D track cross or start inside the footprint?
    pub fn blocks_track(&self, seg: &Segment2) -> bool {
        self.footprint.contains(&seg.a) || !self.footprint.crossings(seg).is_empty()
    }

    /// Distance from `seg.a` to the first boundary crossing, if any.
    pub fn first_crossing_distance(&self, seg: &Segment2) -> Option<f64> {
        self.footprint
            .crossings(seg)
            .first()
            .map(|(t, _)| t * seg.length())
    }

    /// Tight 2-D bounding box of the footprint (for the spatial index).
    pub fn aabb(&self) -> Aabb2 {
        Aabb2::of_polygon(&self.footprint)
    }

    /// Fused obstruction test for the path-profile loop: one boundary
    /// crossings pass answers [`blocks_track`](Self::blocks_track),
    /// [`first_crossing_distance`](Self::first_crossing_distance) and
    /// [`through_loss_db`](Self::through_loss_db) together, writing into
    /// caller-owned scratch buffers. Returns `None` when the track misses
    /// the footprint; otherwise `(first_crossing_m, through_loss_db)`,
    /// bit-identical to the three separate calls.
    pub(crate) fn cut_with(
        &self,
        seg: &Segment2,
        freq_hz: f64,
        hits: &mut Vec<(f64, Point2)>,
        ts: &mut Vec<f64>,
    ) -> Option<(Option<f64>, f64)> {
        let contains_a = self.footprint.contains(&seg.a);
        self.footprint.crossings_into(seg, hits);
        if !contains_a && hits.is_empty() {
            return None;
        }
        let first = hits.first().map(|(t, _)| t * seg.length());
        let wall = self.wall_material.penetration_loss_db(freq_hz);
        let chord = self.footprint.chord_length_inside_from(seg, hits, ts);
        let f_scale = (freq_hz / 1e9).max(0.01).sqrt();
        let through = hits.len() as f64 * wall + chord * self.interior_db_per_m * f_scale;
        Some((first, through))
    }

    /// Convenience: rectangular building centered at `center` with the
    /// given width (east-west), depth (north-south) and height.
    pub fn rect(
        name: impl Into<String>,
        center: Point2,
        width_m: f64,
        depth_m: f64,
        height_m: f64,
        wall: Material,
    ) -> Self {
        let footprint = Polygon2::rect(
            center.x - width_m / 2.0,
            center.y - depth_m / 2.0,
            center.x + width_m / 2.0,
            center.y + depth_m / 2.0,
        );
        Self::new(name, footprint, height_m, wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn building() -> Building {
        Building::rect(
            "block",
            Point2::new(50.0, 0.0),
            20.0,
            20.0,
            15.0,
            Material::Concrete,
        )
    }

    #[test]
    fn ray_through_building_pays_two_walls_and_chord() {
        let b = building();
        let ray = Segment2::new(Point2::new(0.0, 0.0), Point2::new(100.0, 0.0));
        let loss = b.through_loss_db(&ray, 1e9);
        let wall = Material::Concrete.penetration_loss_db(1e9);
        let expect = 2.0 * wall + 20.0 * 0.4; // 20 m chord at 1 GHz
        assert!((loss - expect).abs() < 0.5, "loss {loss}, expect {expect}");
    }

    #[test]
    fn ray_missing_building_is_free() {
        let b = building();
        let ray = Segment2::new(Point2::new(0.0, 50.0), Point2::new(100.0, 50.0));
        assert_eq!(b.through_loss_db(&ray, 1e9), 0.0);
        assert!(!b.blocks_track(&ray));
    }

    #[test]
    fn ray_from_inside_pays_one_wall() {
        let b = building();
        let ray = Segment2::new(Point2::new(50.0, 0.0), Point2::new(200.0, 0.0));
        let loss = b.through_loss_db(&ray, 1e9);
        let wall = Material::Concrete.penetration_loss_db(1e9);
        let expect = wall + 10.0 * 0.4; // half the 20 m footprint
        assert!((loss - expect).abs() < 0.5, "loss {loss}");
        assert!(b.blocks_track(&ray));
    }

    #[test]
    fn higher_frequency_loses_more_through_building() {
        let b = building();
        let ray = Segment2::new(Point2::new(0.0, 0.0), Point2::new(100.0, 0.0));
        assert!(b.through_loss_db(&ray, 2.6e9) > b.through_loss_db(&ray, 731e6) + 5.0);
    }

    #[test]
    fn first_crossing_distance() {
        let b = building();
        let ray = Segment2::new(Point2::new(0.0, 0.0), Point2::new(100.0, 0.0));
        let d = b.first_crossing_distance(&ray).unwrap();
        assert!((d - 40.0).abs() < 1e-9, "got {d}");
        let miss = Segment2::new(Point2::new(0.0, 50.0), Point2::new(100.0, 50.0));
        assert!(b.first_crossing_distance(&miss).is_none());
    }

    #[test]
    fn height_clamped_non_negative() {
        let b = Building::rect("x", Point2::new(0.0, 0.0), 5.0, 5.0, -3.0, Material::Brick);
        assert_eq!(b.height_m, 0.0);
    }
}
