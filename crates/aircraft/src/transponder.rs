//! Transponder emission schedules.
//!
//! DO-260B airborne broadcast rates: position and velocity squitters every
//! 0.4–0.6 s (so "at least two times per second", as the paper puts it),
//! identification every ~5 s. Position messages alternate CPR even/odd.
//! Each aircraft gets a random phase offset so bursts from different
//! aircraft rarely collide — and when they do, the decoder sees a garbled
//! overlap, exactly like the real channel.

use crate::flight::Flight;
use aircal_adsb::altitude::m_to_ft;
use aircal_adsb::cpr::{self, CprFormat};
use aircal_adsb::frame::{ModeSFrame, ShortSquitter};
use aircal_adsb::me::MePayload;
use aircal_adsb::AdsbFrame;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One scheduled transmission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Emission {
    /// Transmission start time, seconds.
    pub time_s: f64,
    /// The frame on the air (DF17 extended or DF11 short).
    pub frame: ModeSFrame,
    /// The transmitting aircraft's true position at `time_s` (for the
    /// channel model; not visible to the receiver except through CPR).
    pub position: aircal_geo::LatLon,
    /// Transmit power, dBm. DO-260B class A1+ transponders emit 75–500 W;
    /// the generator draws per-aircraft values across that range.
    pub tx_power_dbm: f64,
}

/// Generates the emission timeline for a set of flights over a window.
#[derive(Debug, Clone)]
pub struct TransponderSchedule {
    /// Position squitter interval, seconds (default 0.5).
    pub position_interval_s: f64,
    /// Velocity squitter interval, seconds (default 0.5).
    pub velocity_interval_s: f64,
    /// Identification interval, seconds (default 5.0).
    pub ident_interval_s: f64,
    /// DF11 acquisition-squitter interval, seconds (default 1.0) —
    /// emitted by every Mode S transponder, ADS-B-capable or not.
    pub acquisition_interval_s: f64,
}

impl Default for TransponderSchedule {
    fn default() -> Self {
        Self {
            position_interval_s: 0.5,
            velocity_interval_s: 0.5,
            ident_interval_s: 5.0,
            acquisition_interval_s: 1.0,
        }
    }
}

impl TransponderSchedule {
    /// Produce all emissions from `flights` in `[t_start, t_end)`, sorted
    /// by time. Deterministic in `seed` (per-aircraft phases and transmit
    /// powers).
    pub fn emissions(
        &self,
        flights: &[Flight],
        t_start: f64,
        t_end: f64,
        seed: u64,
    ) -> Vec<Emission> {
        let mut out = Vec::new();
        for (idx, f) in flights.iter().enumerate() {
            // Decorrelate aircraft deterministically by address.
            let mut rng =
                ChaCha8Rng::seed_from_u64(seed ^ (f.icao.value() as u64) << 8 ^ idx as u64);
            // 75–500 W, log-uniform: 48.75–57 dBm.
            let tx_power_dbm = rng.gen_range(48.75..57.0);
            let track = f.trajectory();
            let phase: f64 = rng.gen_range(0.0..self.position_interval_s);

            // Every Mode S transponder emits 1 Hz acquisition squitters.
            let a_phase = rng.gen_range(0.0..self.acquisition_interval_s);
            let mut k = ((t_start - a_phase) / self.acquisition_interval_s).ceil() as i64;
            loop {
                let t = a_phase + k as f64 * self.acquisition_interval_s;
                if t >= t_end {
                    break;
                }
                if t >= t_start {
                    out.push(Emission {
                        time_s: t,
                        frame: ModeSFrame::Short(ShortSquitter::new(f.icao)),
                        position: track.at(t),
                        tx_power_dbm,
                    });
                }
                k += 1;
            }
            if !f.adsb_out {
                continue; // Mode S-only: no DF17 broadcasts.
            }

            // Position squitters, alternating even/odd.
            let mut k = ((t_start - phase) / self.position_interval_s).ceil() as i64;
            loop {
                let t = phase + k as f64 * self.position_interval_s;
                if t >= t_end {
                    break;
                }
                if t >= t_start {
                    let pos = track.at(t);
                    let fmt = if k.rem_euclid(2) == 0 {
                        CprFormat::Even
                    } else {
                        CprFormat::Odd
                    };
                    let payload = MePayload::AirbornePosition {
                        altitude_ft: m_to_ft(pos.alt_m),
                        cpr: cpr::encode(pos.lat_deg, pos.lon_deg, fmt),
                    };
                    out.push(Emission {
                        time_s: t,
                        frame: ModeSFrame::Extended(AdsbFrame::new(f.icao, payload)),
                        position: pos,
                        tx_power_dbm,
                    });
                }
                k += 1;
            }

            // Velocity squitters, offset half an interval from positions.
            let v_phase = phase + self.velocity_interval_s / 2.0;
            let mut k = ((t_start - v_phase) / self.velocity_interval_s).ceil() as i64;
            loop {
                let t = v_phase + k as f64 * self.velocity_interval_s;
                if t >= t_end {
                    break;
                }
                if t >= t_start {
                    let (east_kt, north_kt) = f.velocity_kt();
                    let payload = MePayload::AirborneVelocity {
                        east_kt: east_kt.round(),
                        north_kt: north_kt.round(),
                        vertical_rate_fpm: (f.vertical_rate_fpm() / 64.0).round() * 64.0,
                    };
                    out.push(Emission {
                        time_s: t,
                        frame: ModeSFrame::Extended(AdsbFrame::new(f.icao, payload)),
                        position: track.at(t),
                        tx_power_dbm,
                    });
                }
                k += 1;
            }

            // Identification, sparse.
            let i_phase = rng.gen_range(0.0..self.ident_interval_s);
            let mut k = ((t_start - i_phase) / self.ident_interval_s).ceil() as i64;
            loop {
                let t = i_phase + k as f64 * self.ident_interval_s;
                if t >= t_end {
                    break;
                }
                if t >= t_start {
                    let payload = MePayload::Identification {
                        callsign: f.callsign.clone(),
                    };
                    out.push(Emission {
                        time_s: t,
                        frame: ModeSFrame::Extended(AdsbFrame::new(f.icao, payload)),
                        position: track.at(t),
                        tx_power_dbm,
                    });
                }
                k += 1;
            }
        }
        out.sort_by(|a, b| a.time_s.partial_cmp(&b.time_s).unwrap());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_adsb::IcaoAddress;
    use aircal_geo::LatLon;

    fn flight() -> Flight {
        Flight {
            icao: IcaoAddress::new(0x123456),
            callsign: "TST42".into(),
            origin: LatLon::new(37.9, -122.3, 9_000.0),
            t0: 0.0,
            track_deg: 45.0,
            ground_speed_mps: 220.0,
            vertical_rate_mps: 0.0,
            adsb_out: true,
        }
    }

    #[test]
    fn rates_match_do260b() {
        let sched = TransponderSchedule::default();
        let e = sched.emissions(&[flight()], 0.0, 30.0, 1);
        let positions = e
            .iter()
            .filter(|m| matches!(m.frame.payload(), Some(MePayload::AirbornePosition { .. })))
            .count();
        let velocities = e
            .iter()
            .filter(|m| matches!(m.frame.payload(), Some(MePayload::AirborneVelocity { .. })))
            .count();
        let idents = e
            .iter()
            .filter(|m| matches!(m.frame.payload(), Some(MePayload::Identification { .. })))
            .count();
        // 30 s at 2 Hz → 59–61 depending on phase; ident ≈ 6.
        assert!((58..=62).contains(&positions), "positions {positions}");
        assert!((58..=62).contains(&velocities), "velocities {velocities}");
        assert!((5..=7).contains(&idents), "idents {idents}");
    }

    #[test]
    fn emissions_sorted_and_in_window() {
        let sched = TransponderSchedule::default();
        let flights = vec![flight(), {
            let mut f = flight();
            f.icao = IcaoAddress::new(0x654321);
            f
        }];
        let e = sched.emissions(&flights, 10.0, 20.0, 2);
        assert!(!e.is_empty());
        for w in e.windows(2) {
            assert!(w[0].time_s <= w[1].time_s);
        }
        assert!(e.iter().all(|m| m.time_s >= 10.0 && m.time_s < 20.0));
    }

    #[test]
    fn cpr_formats_alternate() {
        let sched = TransponderSchedule::default();
        let e = sched.emissions(&[flight()], 0.0, 5.0, 3);
        let formats: Vec<CprFormat> = e
            .iter()
            .filter_map(|m| match m.frame.payload() {
                Some(MePayload::AirbornePosition { cpr, .. }) => Some(cpr.format),
                _ => None,
            })
            .collect();
        assert!(formats.len() >= 8);
        for w in formats.windows(2) {
            assert_ne!(w[0], w[1], "even/odd must alternate");
        }
    }

    #[test]
    fn tx_power_in_spec_range() {
        let sched = TransponderSchedule::default();
        let sim = crate::generator::TrafficSim::generate(
            crate::generator::TrafficConfig::paper_default(LatLon::surface(37.87, -122.27)),
            4,
        );
        let e = sched.emissions(&sim.flights, 0.0, 2.0, 4);
        for m in &e {
            assert!(
                (48.7..=57.01).contains(&m.tx_power_dbm),
                "power {}",
                m.tx_power_dbm
            );
        }
        // Different aircraft draw different powers.
        let p0 = e[0].tx_power_dbm;
        assert!(e.iter().any(|m| (m.tx_power_dbm - p0).abs() > 0.1));
    }

    #[test]
    fn deterministic_per_seed() {
        let sched = TransponderSchedule::default();
        let a = sched.emissions(&[flight()], 0.0, 10.0, 9);
        let b = sched.emissions(&[flight()], 0.0, 10.0, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn moving_aircraft_position_advances_between_squitters() {
        let sched = TransponderSchedule::default();
        let e = sched.emissions(&[flight()], 0.0, 10.0, 5);
        let positions: Vec<_> = e
            .iter()
            .filter(|m| matches!(m.frame.payload(), Some(MePayload::AirbornePosition { .. })))
            .collect();
        let first = positions.first().unwrap();
        let last = positions.last().unwrap();
        assert!(first.position.distance_m(&last.position) > 1_000.0);
    }
}
