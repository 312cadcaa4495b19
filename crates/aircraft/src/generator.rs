//! Stochastic traffic generation over a survey disc.
//!
//! Populates the paper's 100 km FlightRadar24 query disc with a plausible
//! mix: mostly airliners in cruise or climb/descent, some low general
//! aviation. Everything derives from one seed, so a survey is exactly
//! reproducible.

use crate::flight::Flight;
use aircal_adsb::IcaoAddress;
use aircal_geo::LatLon;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Traffic-mix configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Center of the populated disc (the sensor's location).
    pub center: LatLon,
    /// Disc radius, meters (paper: 100 km).
    pub radius_m: f64,
    /// Number of aircraft inside the disc at t = 0.
    pub count: usize,
    /// Fraction of general-aviation (low/slow) traffic, 0–1.
    pub ga_fraction: f64,
    /// Fraction of aircraft with ADS-B OUT (the rest are Mode S-only and
    /// emit acquisition squitters but no positions). US airspace is ~90%
    /// equipped post-2020.
    pub adsb_out_fraction: f64,
}

impl TrafficConfig {
    /// The paper's setting: a 100 km disc around the sensor. Bay-Area-like
    /// density: ~60 aircraft in the disc.
    pub fn paper_default(center: LatLon) -> Self {
        Self {
            center,
            radius_m: 100_000.0,
            count: 60,
            ga_fraction: 0.2,
            adsb_out_fraction: 0.88,
        }
    }
}

/// A generated traffic snapshot: flights that can be propagated to any time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrafficSim {
    /// The generated flights.
    pub flights: Vec<Flight>,
    /// The configuration that produced them.
    pub config: TrafficConfig,
}

impl TrafficSim {
    /// Generate traffic from a seed. Positions are uniform over the disc,
    /// tracks uniform, altitude/speed drawn per class.
    pub fn generate(config: TrafficConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut used_icao = HashSet::new();
        let mut flights = Vec::with_capacity(config.count);
        for i in 0..config.count {
            // Uniform over the disc: r ∝ √u.
            let r = config.radius_m * rng.gen_range(0.0f64..1.0).sqrt();
            let bearing = rng.gen_range(0.0..360.0);
            let mut pos = config.center.destination(bearing, r);

            let is_ga = rng.gen_range(0.0..1.0) < config.ga_fraction;
            let (alt, speed) = if is_ga {
                (rng.gen_range(600.0..3_000.0), rng.gen_range(50.0..110.0))
            } else {
                (
                    rng.gen_range(6_000.0..12_500.0),
                    rng.gen_range(180.0..260.0),
                )
            };
            pos.alt_m = alt;

            // 70% level flight, otherwise climbing or descending.
            let vr = match rng.gen_range(0u8..10) {
                0..=6 => 0.0,
                7 | 8 => rng.gen_range(2.0..12.0),
                _ => -rng.gen_range(2.0..12.0),
            };

            let icao = loop {
                let candidate = rng.gen_range(1u32..0x1_000_000);
                if used_icao.insert(candidate) {
                    break IcaoAddress::new(candidate);
                }
            };
            let callsign = format!(
                "{}{}{}{:03}",
                rng.gen_range(b'A'..=b'Z') as char,
                rng.gen_range(b'A'..=b'Z') as char,
                rng.gen_range(b'A'..=b'Z') as char,
                i % 1000
            );

            let adsb_out = rng.gen_range(0.0..1.0) < config.adsb_out_fraction;
            flights.push(Flight {
                icao,
                callsign,
                origin: pos,
                t0: 0.0,
                track_deg: rng.gen_range(0.0..360.0),
                ground_speed_mps: speed,
                vertical_rate_mps: vr,
                adsb_out,
            });
        }
        Self { flights, config }
    }

    /// Flights within `radius_m` of `center` at time `t`.
    pub fn within(&self, center: &LatLon, radius_m: f64, t: f64) -> Vec<&Flight> {
        self.flights
            .iter()
            .filter(|f| f.ground_distance_m(center, t) <= radius_m)
            .collect()
    }

    /// Find a flight by address.
    pub fn by_icao(&self, icao: IcaoAddress) -> Option<&Flight> {
        self.flights.iter().find(|f| f.icao == icao)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn center() -> LatLon {
        LatLon::surface(37.8716, -122.2727)
    }

    #[test]
    fn generates_requested_count_inside_disc() {
        let sim = TrafficSim::generate(TrafficConfig::paper_default(center()), 1);
        assert_eq!(sim.flights.len(), 60);
        for f in &sim.flights {
            assert!(f.ground_distance_m(&center(), 0.0) <= 100_000.0 + 1.0);
            assert!(f.origin.alt_m >= 600.0 && f.origin.alt_m <= 12_500.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TrafficSim::generate(TrafficConfig::paper_default(center()), 42);
        let b = TrafficSim::generate(TrafficConfig::paper_default(center()), 42);
        assert_eq!(a.flights, b.flights);
        let c = TrafficSim::generate(TrafficConfig::paper_default(center()), 43);
        assert_ne!(a.flights, c.flights);
    }

    #[test]
    fn icao_addresses_unique() {
        let sim = TrafficSim::generate(TrafficConfig::paper_default(center()), 7);
        let mut set = HashSet::new();
        for f in &sim.flights {
            assert!(set.insert(f.icao), "duplicate {}", f.icao);
        }
    }

    #[test]
    fn positions_spread_across_bearings() {
        // Sanity against clustering: all four quadrants populated.
        let sim = TrafficSim::generate(TrafficConfig::paper_default(center()), 3);
        let mut quadrants = [0u32; 4];
        for f in &sim.flights {
            let b = center().bearing_deg(&f.origin);
            quadrants[(b / 90.0) as usize % 4] += 1;
        }
        for (q, &n) in quadrants.iter().enumerate() {
            assert!(n >= 5, "quadrant {q} only has {n}");
        }
    }

    #[test]
    fn within_filter_shrinks_with_radius() {
        let sim = TrafficSim::generate(TrafficConfig::paper_default(center()), 9);
        let all = sim.within(&center(), 100_000.0, 0.0).len();
        let near = sim.within(&center(), 20_000.0, 0.0).len();
        assert!(near < all);
    }

    #[test]
    fn by_icao_finds_flights() {
        let sim = TrafficSim::generate(TrafficConfig::paper_default(center()), 5);
        let probe = sim.flights[10].icao;
        assert_eq!(sim.by_icao(probe).unwrap().icao, probe);
        // An address guaranteed unused (0 is never generated).
        assert!(sim.by_icao(IcaoAddress::new(0)).is_none());
    }

    #[test]
    fn ga_fraction_zero_means_all_airliners() {
        let cfg = TrafficConfig {
            ga_fraction: 0.0,
            ..TrafficConfig::paper_default(center())
        };
        let sim = TrafficSim::generate(cfg, 11);
        for f in &sim.flights {
            assert!(f.origin.alt_m >= 6_000.0, "GA aircraft leaked in");
        }
    }
}
