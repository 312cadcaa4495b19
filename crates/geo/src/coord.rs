//! Geographic coordinates and frame conversions.
//!
//! The simulation operates at ranges up to ~100 km (the paper's
//! FlightRadar24 query radius), where a spherical-earth model is accurate to
//! well under 0.5% — far below the RF-level uncertainties being modeled. We
//! therefore use great-circle math on a sphere of mean radius
//! [`EARTH_RADIUS_M`], plus exact WGS-84 ECEF/ENU conversions where a metric
//! local frame is needed.

use crate::angle::normalize_bearing;
use serde::{Deserialize, Serialize};

/// Mean Earth radius in meters (IUGG mean radius R₁).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// WGS-84 semi-major axis in meters.
pub const WGS84_A: f64 = 6_378_137.0;
/// WGS-84 first eccentricity squared.
pub const WGS84_E2: f64 = 6.694_379_990_141_316e-3;

/// A geographic position: latitude/longitude in degrees, altitude in meters
/// above the reference sphere/ellipsoid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatLon {
    /// Latitude in degrees, positive north, in `[-90, 90]`.
    pub lat_deg: f64,
    /// Longitude in degrees, positive east, in `[-180, 180]`.
    pub lon_deg: f64,
    /// Altitude in meters above the reference surface.
    pub alt_m: f64,
}

impl LatLon {
    /// Construct a position at the given latitude/longitude and altitude.
    pub fn new(lat_deg: f64, lon_deg: f64, alt_m: f64) -> Self {
        Self {
            lat_deg,
            lon_deg,
            alt_m,
        }
    }

    /// Construct a surface position (altitude zero).
    pub fn surface(lat_deg: f64, lon_deg: f64) -> Self {
        Self::new(lat_deg, lon_deg, 0.0)
    }

    /// Great-circle (surface) distance to `other` in meters, by the
    /// haversine formula. Altitude is ignored.
    pub fn distance_m(&self, other: &LatLon) -> f64 {
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Slant range to `other` in meters: 3-D straight-line distance
    /// accounting for the altitude difference. This is what RF path loss
    /// actually sees for an aircraft overhead.
    pub fn slant_range_m(&self, other: &LatLon) -> f64 {
        let ground = self.distance_m(other);
        let dh = other.alt_m - self.alt_m;
        (ground * ground + dh * dh).sqrt()
    }

    /// Initial great-circle bearing from `self` to `other`, degrees
    /// clockwise from true north in `[0, 360)`.
    pub fn bearing_deg(&self, other: &LatLon) -> f64 {
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        normalize_bearing(y.atan2(x).to_degrees())
    }

    /// Elevation angle in degrees from `self` up to `other` (negative if
    /// `other` is below the local horizontal).
    pub fn elevation_deg(&self, other: &LatLon) -> f64 {
        let ground = self.distance_m(other);
        let dh = other.alt_m - self.alt_m;
        dh.atan2(ground).to_degrees()
    }

    /// The point reached by traveling `distance_m` along the great circle
    /// with the given initial `bearing_deg`. Altitude is preserved.
    pub fn destination(&self, bearing_deg: f64, distance_m: f64) -> LatLon {
        self.course(bearing_deg).destination(distance_m)
    }

    /// The great circle leaving `self` on `bearing_deg`, with the trig
    /// terms of the start and the bearing computed once, for many
    /// [`Course::destination`]s along it.
    pub fn course(&self, bearing_deg: f64) -> Course {
        let lat1 = self.lat_deg.to_radians();
        let brg = bearing_deg.to_radians();
        Course {
            lon: self.lon_deg.to_radians(),
            alt_m: self.alt_m,
            sin_lat: lat1.sin(),
            cos_lat: lat1.cos(),
            sin_brg: brg.sin(),
            cos_brg: brg.cos(),
        }
    }

    /// Convert to Earth-centered Earth-fixed coordinates (WGS-84 ellipsoid).
    pub fn to_ecef(&self) -> Ecef {
        let lat = self.lat_deg.to_radians();
        let lon = self.lon_deg.to_radians();
        let n = WGS84_A / (1.0 - WGS84_E2 * lat.sin().powi(2)).sqrt();
        Ecef {
            x: (n + self.alt_m) * lat.cos() * lon.cos(),
            y: (n + self.alt_m) * lat.cos() * lon.sin(),
            z: (n * (1.0 - WGS84_E2) + self.alt_m) * lat.sin(),
        }
    }

    /// Express `other` in the local east-north-up frame anchored at `self`.
    pub fn enu_of(&self, other: &LatLon) -> Enu {
        let origin = self.to_ecef();
        let target = other.to_ecef();
        let (dx, dy, dz) = (
            target.x - origin.x,
            target.y - origin.y,
            target.z - origin.z,
        );
        let lat = self.lat_deg.to_radians();
        let lon = self.lon_deg.to_radians();
        let (sl, cl) = (lon.sin(), lon.cos());
        let (sp, cp) = (lat.sin(), lat.cos());
        Enu {
            east: -sl * dx + cl * dy,
            north: -sp * cl * dx - sp * sl * dy + cp * dz,
            up: cp * cl * dx + cp * sl * dy + sp * dz,
        }
    }
}

/// A precomputed east-north-up frame anchored at one origin.
///
/// [`LatLon::enu_of`] recomputes the origin's ECEF position and the four
/// rotation-row trig terms on every call; when thousands of emitters are
/// projected against the same anchor (the world→PHY hot path), that work
/// is pure overhead. `EnuFrame::new(o).enu_of(p)` runs the *same formulas
/// in the same operation order* as `o.enu_of(p)`, so its outputs are
/// bit-identical — it just evaluates the origin-only terms once.
#[derive(Debug, Clone, Copy)]
pub struct EnuFrame {
    origin_ecef: Ecef,
    sin_lon: f64,
    cos_lon: f64,
    sin_lat: f64,
    cos_lat: f64,
}

impl EnuFrame {
    /// Precompute the frame for an origin.
    pub fn new(origin: &LatLon) -> Self {
        let lat = origin.lat_deg.to_radians();
        let lon = origin.lon_deg.to_radians();
        Self {
            origin_ecef: origin.to_ecef(),
            sin_lon: lon.sin(),
            cos_lon: lon.cos(),
            sin_lat: lat.sin(),
            cos_lat: lat.cos(),
        }
    }

    /// Express `other` in this frame; bit-identical to
    /// `origin.enu_of(other)`.
    pub fn enu_of(&self, other: &LatLon) -> Enu {
        let target = other.to_ecef();
        let (dx, dy, dz) = (
            target.x - self.origin_ecef.x,
            target.y - self.origin_ecef.y,
            target.z - self.origin_ecef.z,
        );
        let (sl, cl) = (self.sin_lon, self.cos_lon);
        let (sp, cp) = (self.sin_lat, self.cos_lat);
        Enu {
            east: -sl * dx + cl * dy,
            north: -sp * cl * dx - sp * sl * dy + cp * dz,
            up: cp * cl * dx + cp * sl * dy + sp * dz,
        }
    }
}

/// A great circle from a start point on an initial bearing
/// ([`LatLon::course`]).
#[derive(Debug, Clone, Copy)]
pub struct Course {
    lon: f64,
    alt_m: f64,
    sin_lat: f64,
    cos_lat: f64,
    sin_brg: f64,
    cos_brg: f64,
}

impl Course {
    /// The point `distance_m` along the course, at the start's altitude:
    /// [`LatLon::destination`]'s formula, whose start and bearing terms
    /// this course holds.
    pub fn destination(&self, distance_m: f64) -> LatLon {
        let d = distance_m / EARTH_RADIUS_M;
        let lat2 = (self.sin_lat * d.cos() + self.cos_lat * d.sin() * self.cos_brg).asin();
        let lon2 = self.lon
            + (self.sin_brg * d.sin() * self.cos_lat).atan2(d.cos() - self.sin_lat * lat2.sin());
        LatLon {
            lat_deg: lat2.to_degrees(),
            lon_deg: normalize_lon(lon2.to_degrees()),
            alt_m: self.alt_m,
        }
    }
}

/// An observer's position with the trig terms of its own latitude and
/// longitude computed once, for the great-circle geometry to many targets.
///
/// [`Observer::look`] runs the formulas of [`LatLon::distance_m`],
/// [`LatLon::bearing_deg`] and [`LatLon::elevation_deg`] in the same
/// operation order, sharing the terms they have in common, so each of its
/// outputs is bit-identical to the matching method's.
#[derive(Debug, Clone, Copy)]
pub struct Observer {
    alt_m: f64,
    lat: f64,
    lon: f64,
    sin_lat: f64,
    cos_lat: f64,
}

/// Where a target sits as seen from an [`Observer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Look {
    /// Great-circle (surface) distance, meters: [`LatLon::distance_m`].
    pub ground_m: f64,
    /// Initial bearing, degrees in `[0, 360)`: [`LatLon::bearing_deg`].
    pub bearing_deg: f64,
    /// Elevation angle, degrees: [`LatLon::elevation_deg`].
    pub elevation_deg: f64,
}

impl Observer {
    /// Precompute the observer-only terms for `at`.
    pub fn new(at: &LatLon) -> Self {
        let lat = at.lat_deg.to_radians();
        Self {
            alt_m: at.alt_m,
            lat,
            lon: at.lon_deg.to_radians(),
            sin_lat: lat.sin(),
            cos_lat: lat.cos(),
        }
    }

    /// Ground distance, bearing and elevation of `other`.
    pub fn look(&self, other: &LatLon) -> Look {
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let (dlat, dlon) = (lat2 - self.lat, lon2 - self.lon);
        let cos_lat2 = lat2.cos();
        let a = (dlat / 2.0).sin().powi(2) + self.cos_lat * cos_lat2 * (dlon / 2.0).sin().powi(2);
        let ground_m = 2.0 * EARTH_RADIUS_M * a.sqrt().asin();
        let y = dlon.sin() * cos_lat2;
        let x = self.cos_lat * lat2.sin() - self.sin_lat * cos_lat2 * dlon.cos();
        let dh = other.alt_m - self.alt_m;
        Look {
            ground_m,
            bearing_deg: normalize_bearing(y.atan2(x).to_degrees()),
            elevation_deg: dh.atan2(ground_m).to_degrees(),
        }
    }
}

/// Normalize a longitude into `[-180, 180)`.
fn normalize_lon(deg: f64) -> f64 {
    let mut r = (deg + 180.0) % 360.0;
    if r < 0.0 {
        r += 360.0;
    }
    r - 180.0
}

/// Earth-centered Earth-fixed Cartesian coordinates, meters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ecef {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

/// A vector in a local east-north-up frame, meters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Enu {
    pub east: f64,
    pub north: f64,
    pub up: f64,
}

impl Enu {
    /// Horizontal (ground) distance, meters.
    pub fn horizontal_m(&self) -> f64 {
        (self.east * self.east + self.north * self.north).sqrt()
    }

    /// 3-D distance, meters.
    pub fn range_m(&self) -> f64 {
        (self.east * self.east + self.north * self.north + self.up * self.up).sqrt()
    }

    /// Compass bearing of the horizontal component, degrees from north.
    pub fn bearing_deg(&self) -> f64 {
        normalize_bearing(self.east.atan2(self.north).to_degrees())
    }

    /// Elevation angle above the horizontal plane, degrees.
    pub fn elevation_deg(&self) -> f64 {
        self.up.atan2(self.horizontal_m()).to_degrees()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's experiment site is in Berkeley, CA; use it as a fixture.
    fn berkeley() -> LatLon {
        LatLon::surface(37.8716, -122.2727)
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = berkeley();
        assert!(p.distance_m(&p) < 1e-6);
    }

    #[test]
    fn known_distance_sf_to_la() {
        let sf = LatLon::surface(37.7749, -122.4194);
        let la = LatLon::surface(34.0522, -118.2437);
        let d = sf.distance_m(&la);
        // Published great-circle distance ≈ 559 km.
        assert!((d - 559_000.0).abs() < 5_000.0, "distance {d}");
    }

    #[test]
    fn bearing_cardinal_directions() {
        let p = berkeley();
        let north = p.destination(0.0, 10_000.0);
        let east = p.destination(90.0, 10_000.0);
        assert!(p.bearing_deg(&north) < 0.1 || p.bearing_deg(&north) > 359.9);
        assert!((p.bearing_deg(&east) - 90.0).abs() < 0.1);
    }

    #[test]
    fn destination_round_trip() {
        let p = berkeley();
        for brg in [0.0, 45.0, 137.0, 270.0, 359.0] {
            for dist in [100.0, 5_000.0, 100_000.0] {
                let q = p.destination(brg, dist);
                assert!(
                    (p.distance_m(&q) - dist).abs() < 1.0,
                    "brg {brg} dist {dist}"
                );
                assert!((p.bearing_deg(&q) - brg).abs() < 0.5 || dist < 200.0);
            }
        }
    }

    #[test]
    fn slant_range_includes_altitude() {
        let p = berkeley();
        let mut above = p;
        above.alt_m = 10_000.0;
        assert!((p.slant_range_m(&above) - 10_000.0).abs() < 1e-6);
        let far = p.destination(90.0, 30_000.0);
        let mut far_high = far;
        far_high.alt_m = 10_000.0;
        let expect = (30_000.0f64.powi(2) + 10_000.0f64.powi(2)).sqrt();
        assert!((p.slant_range_m(&far_high) - expect).abs() < 20.0);
    }

    #[test]
    fn elevation_angle_overhead() {
        let p = berkeley();
        let mut up = p;
        up.alt_m = 5_000.0;
        assert!((p.elevation_deg(&up) - 90.0).abs() < 1e-9);
        let far = p.destination(0.0, 10_000.0);
        let mut q = far;
        q.alt_m = 10_000.0;
        assert!((p.elevation_deg(&q) - 45.0).abs() < 0.5);
    }

    #[test]
    fn ecef_magnitude_reasonable() {
        let p = berkeley().to_ecef();
        let r = (p.x * p.x + p.y * p.y + p.z * p.z).sqrt();
        assert!(r > 6.3e6 && r < 6.4e6);
    }

    #[test]
    fn enu_matches_bearing_distance() {
        let p = berkeley();
        let q = p.destination(60.0, 20_000.0);
        let enu = p.enu_of(&q);
        assert!((enu.bearing_deg() - 60.0).abs() < 0.2);
        assert!((enu.horizontal_m() - 20_000.0).abs() < 100.0);
    }

    #[test]
    fn enu_up_axis() {
        let p = berkeley();
        let mut q = p;
        q.alt_m = 1_000.0;
        let enu = p.enu_of(&q);
        assert!(enu.up > 999.0 && enu.up < 1_001.0);
        assert!(enu.horizontal_m() < 1.0);
        assert!((enu.elevation_deg() - 90.0).abs() < 0.1);
    }

    #[test]
    fn enu_frame_bit_identical_to_enu_of() {
        let p = berkeley();
        let frame = EnuFrame::new(&p);
        for brg in [0.0, 33.0, 127.5, 213.9, 290.0] {
            let mut q = p.destination(brg, 12_345.0);
            q.alt_m = 8_000.0;
            let a = p.enu_of(&q);
            let b = frame.enu_of(&q);
            assert_eq!(a.east.to_bits(), b.east.to_bits());
            assert_eq!(a.north.to_bits(), b.north.to_bits());
            assert_eq!(a.up.to_bits(), b.up.to_bits());
        }
    }

    proptest::proptest! {
        /// `Observer::look` is the three `LatLon` methods, bit for bit,
        /// anywhere on the globe (poles, dateline, targets below the
        /// observer and at its own position included).
        #[test]
        fn observer_look_is_bit_identical_to_the_latlon_methods(
            a in (-90.0f64..=90.0, -180.0f64..=180.0, -100.0f64..3_000.0),
            b in (-90.0f64..=90.0, -180.0f64..=180.0, -100.0f64..15_000.0),
            near in 0u8..4,
        ) {
            let p = LatLon::new(a.0, a.1, a.2);
            let q = match near {
                0 => p,
                1 => LatLon::new(a.0 + b.0 * 1e-3, a.1 + b.1 * 1e-3, b.2),
                _ => LatLon::new(b.0, b.1, b.2),
            };
            let look = Observer::new(&p).look(&q);
            proptest::prop_assert_eq!(look.ground_m.to_bits(), p.distance_m(&q).to_bits());
            proptest::prop_assert_eq!(look.bearing_deg.to_bits(), p.bearing_deg(&q).to_bits());
            proptest::prop_assert_eq!(look.elevation_deg.to_bits(), p.elevation_deg(&q).to_bits());
        }
    }

    #[test]
    fn lon_normalization_across_dateline() {
        let p = LatLon::surface(0.0, 179.9);
        let q = p.destination(90.0, 50_000.0);
        assert!(q.lon_deg < -179.0 || q.lon_deg > 179.9);
        assert!((p.distance_m(&q) - 50_000.0).abs() < 1.0);
    }
}
