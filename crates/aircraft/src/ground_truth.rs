//! A FlightRadar24-style ground-truth service.
//!
//! The paper queries FlightRadar24 mid-measurement: "15 seconds into the
//! measurement, we retrieve all flight data … in a radius of 100 km" and
//! notes "FlightRadar24 reports a latency of 10 s, meaning reported
//! aircraft are within 2.5 km of reported location, sufficient for our
//! purpose." This service reproduces that interface — including the
//! staleness — against the simulated traffic.

use crate::generator::TrafficSim;
use aircal_adsb::IcaoAddress;
use aircal_geo::LatLon;
use serde::{Deserialize, Serialize};

/// One aircraft as reported by the tracking service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruthAircraft {
    /// ICAO address (the matching key).
    pub icao: IcaoAddress,
    /// Callsign as filed.
    pub callsign: String,
    /// Reported position — where the aircraft was `latency_s` ago.
    pub position: LatLon,
    /// Reported ground speed, m/s.
    pub ground_speed_mps: f64,
    /// Reported track, degrees.
    pub track_deg: f64,
}

/// The tracking-service facade over the simulated world.
#[derive(Debug, Clone)]
pub struct GroundTruthService {
    /// Reporting latency in seconds (paper: 10 s for FlightRadar24).
    pub latency_s: f64,
}

impl Default for GroundTruthService {
    fn default() -> Self {
        Self { latency_s: 10.0 }
    }
}

impl GroundTruthService {
    /// Create a service with a given latency.
    pub fn new(latency_s: f64) -> Self {
        Self {
            latency_s: latency_s.max(0.0),
        }
    }

    /// Query all aircraft within `radius_m` of `center` at query time
    /// `t_query`. Both the membership test and the reported positions use
    /// the stale time `t_query − latency`, as a real aggregator would.
    pub fn query(
        &self,
        sim: &TrafficSim,
        center: &LatLon,
        radius_m: f64,
        t_query: f64,
    ) -> Vec<GroundTruthAircraft> {
        let t_stale = t_query - self.latency_s;
        sim.flights
            .iter()
            .filter(|f| f.ground_distance_m(center, t_stale) <= radius_m)
            .map(|f| GroundTruthAircraft {
                icao: f.icao,
                callsign: f.callsign.clone(),
                position: f.position_at(t_stale),
                ground_speed_mps: f.ground_speed_mps,
                track_deg: f.track_deg,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TrafficConfig;

    fn center() -> LatLon {
        LatLon::surface(37.8716, -122.2727)
    }

    fn sim() -> TrafficSim {
        TrafficSim::generate(TrafficConfig::paper_default(center()), 21)
    }

    #[test]
    fn zero_latency_reports_true_positions() {
        let s = sim();
        let svc = GroundTruthService::new(0.0);
        let report = svc.query(&s, &center(), 100_000.0, 30.0);
        for r in &report {
            let truth = s.by_icao(r.icao).unwrap().position_at(30.0);
            assert!(r.position.distance_m(&truth) < 0.01);
        }
    }

    #[test]
    fn latency_introduces_bounded_staleness_error() {
        let s = sim();
        let svc = GroundTruthService::new(10.0);
        let report = svc.query(&s, &center(), 100_000.0, 30.0);
        assert!(!report.is_empty());
        for r in &report {
            let truth = s.by_icao(r.icao).unwrap().position_at(30.0);
            let err = r.position.distance_m(&truth);
            // The paper's bound: 10 s at ≤ 260 m/s → ≤ 2.6 km.
            assert!(err <= 2_600.0 + 1.0, "staleness error {err} m");
        }
        // Fast movers do show measurable staleness.
        let max_err = report
            .iter()
            .map(|r| {
                r.position
                    .distance_m(&s.by_icao(r.icao).unwrap().position_at(30.0))
            })
            .fold(0.0, f64::max);
        assert!(max_err > 500.0, "expected some staleness, max {max_err}");
    }

    #[test]
    fn radius_filter_respected() {
        let s = sim();
        let svc = GroundTruthService::default();
        let t = 15.0;
        let near = svc.query(&s, &center(), 30_000.0, t);
        let all = svc.query(&s, &center(), 100_000.0, t);
        assert!(near.len() < all.len());
        let t_stale = t - svc.latency_s;
        for r in &near {
            let d = s
                .by_icao(r.icao)
                .unwrap()
                .ground_distance_m(&center(), t_stale);
            assert!(d <= 30_000.0 + 1.0);
        }
    }

    #[test]
    fn report_carries_callsigns_and_kinematics() {
        let s = sim();
        let svc = GroundTruthService::default();
        let report = svc.query(&s, &center(), 100_000.0, 15.0);
        for r in &report {
            let f = s.by_icao(r.icao).unwrap();
            assert_eq!(r.callsign, f.callsign);
            assert_eq!(r.ground_speed_mps, f.ground_speed_mps);
            assert_eq!(r.track_deg, f.track_deg);
        }
    }

    #[test]
    fn negative_latency_clamped() {
        let svc = GroundTruthService::new(-5.0);
        assert_eq!(svc.latency_s, 0.0);
    }
}
