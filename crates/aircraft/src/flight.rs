//! Individual flights and their kinematics.

use aircal_adsb::IcaoAddress;
use aircal_geo::{Course, LatLon};
use serde::{Deserialize, Serialize};

/// A simulated flight: identity plus a constant-velocity state at `t0`.
///
/// Over the ≤2-minute calibration windows, real aircraft fly essentially
/// straight great-circle segments, so the kinematic model is a constant
/// ground track/speed and a constant vertical rate (clamped to a sane
/// altitude band).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flight {
    /// Transponder address.
    pub icao: IcaoAddress,
    /// Callsign, e.g. `"UAL123"`.
    pub callsign: String,
    /// Position at `t0` (altitude in meters).
    pub origin: LatLon,
    /// Reference time for `origin`, seconds.
    pub t0: f64,
    /// Ground track, degrees clockwise from north.
    pub track_deg: f64,
    /// Ground speed, m/s.
    pub ground_speed_mps: f64,
    /// Vertical rate, m/s (positive climbing).
    pub vertical_rate_mps: f64,
    /// Does the transponder broadcast ADS-B OUT (DF17 position/velocity)?
    /// Mode S-only aircraft (`false`) still emit 1 Hz DF11 acquisition
    /// squitters, so they remain visible to presence matching.
    pub adsb_out: bool,
}

/// A [`Flight`]'s positions over time ([`Flight::trajectory`]).
#[derive(Debug, Clone, Copy)]
pub struct Trajectory<'a> {
    flight: &'a Flight,
    course: Course,
}

impl Trajectory<'_> {
    /// Position at absolute time `t` seconds: [`Flight::position_at`].
    pub fn at(&self, t: f64) -> LatLon {
        let f = self.flight;
        let dt = t - f.t0;
        let mut p = self.course.destination(f.ground_speed_mps * dt);
        p.alt_m =
            (f.origin.alt_m + f.vertical_rate_mps * dt).clamp(Flight::MIN_ALT_M, Flight::MAX_ALT_M);
        p
    }
}

impl Flight {
    /// Altitude band aircraft stay within (m): floor keeps them airborne,
    /// ceiling is a practical service ceiling.
    pub const MIN_ALT_M: f64 = 300.0;
    /// See [`Self::MIN_ALT_M`].
    pub const MAX_ALT_M: f64 = 13_500.0;

    /// Position at absolute time `t` seconds.
    pub fn position_at(&self, t: f64) -> LatLon {
        self.trajectory().at(t)
    }

    /// The flight's great-circle track with its course terms computed
    /// once, for the many positions an emission schedule reads.
    pub fn trajectory(&self) -> Trajectory<'_> {
        Trajectory {
            flight: self,
            course: self.origin.course(self.track_deg),
        }
    }

    /// Velocity components in knots (east, north) — the units ADS-B
    /// velocity messages carry.
    pub fn velocity_kt(&self) -> (f64, f64) {
        const MPS_TO_KT: f64 = 1.943_844;
        let speed_kt = self.ground_speed_mps * MPS_TO_KT;
        let t = self.track_deg.to_radians();
        (speed_kt * t.sin(), speed_kt * t.cos())
    }

    /// Vertical rate in ft/min (ADS-B units).
    pub fn vertical_rate_fpm(&self) -> f64 {
        self.vertical_rate_mps / 0.3048 * 60.0
    }

    /// Ground distance from a reference point at time `t`, meters.
    pub fn ground_distance_m(&self, from: &LatLon, t: f64) -> f64 {
        from.distance_m(&self.position_at(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flight() -> Flight {
        Flight {
            icao: IcaoAddress::new(0xA0B1C2),
            callsign: "TST001".into(),
            origin: LatLon::new(37.9, -122.3, 10_000.0),
            t0: 100.0,
            track_deg: 90.0,
            ground_speed_mps: 200.0,
            vertical_rate_mps: 0.0,
            adsb_out: true,
        }
    }

    #[test]
    fn stationary_at_t0() {
        let f = flight();
        let p = f.position_at(100.0);
        assert!(f.origin.distance_m(&p) < 0.01);
        assert_eq!(p.alt_m, 10_000.0);
    }

    #[test]
    fn moves_along_track() {
        let f = flight();
        let p = f.position_at(160.0); // 60 s → 12 km east
        assert!((f.origin.distance_m(&p) - 12_000.0).abs() < 1.0);
        assert!((f.origin.bearing_deg(&p) - 90.0).abs() < 0.1);
    }

    #[test]
    fn climb_clamped_at_ceiling() {
        let mut f = flight();
        f.vertical_rate_mps = 15.0;
        let p = f.position_at(100.0 + 3_600.0); // would be 64 km up
        assert_eq!(p.alt_m, Flight::MAX_ALT_M);
    }

    #[test]
    fn descent_clamped_at_floor() {
        let mut f = flight();
        f.vertical_rate_mps = -20.0;
        let p = f.position_at(100.0 + 3_600.0);
        assert_eq!(p.alt_m, Flight::MIN_ALT_M);
    }

    #[test]
    fn velocity_components_match_track() {
        let mut f = flight();
        f.track_deg = 0.0; // due north
        let (e, n) = f.velocity_kt();
        assert!(e.abs() < 1e-9);
        assert!((n - 200.0 * 1.943_844).abs() < 0.01);

        f.track_deg = 270.0; // due west
        let (e, n) = f.velocity_kt();
        assert!(e < 0.0);
        assert!(n.abs() < 1e-6);
    }

    #[test]
    fn vertical_rate_units() {
        let mut f = flight();
        f.vertical_rate_mps = 5.08; // 1000 ft/min
        assert!((f.vertical_rate_fpm() - 1_000.0).abs() < 0.1);
    }

    #[test]
    fn backwards_in_time_works_too() {
        let f = flight();
        let p = f.position_at(40.0); // 60 s before t0 → 12 km west
        assert!((f.origin.bearing_deg(&p) - 270.0).abs() < 0.1);
    }
}
