//! Integration: the full PHY stack — aircraft kinematics → DO-260B frame
//! encoding → PPM modulation → RF channel + front end → preamble
//! detection → bit slicing → CRC → CPR position recovery — checked
//! against ground truth at the geodetic level.

use aircal::adsb::cpr::{decode_global, CprFormat, CprPair};
use aircal::adsb::me::MePayload;
use aircal::adsb::{Decoder, ADSB_FREQ_HZ, SAMPLE_RATE_HZ};
use aircal::aircraft::{TrafficConfig, TrafficSim, TransponderSchedule};
use aircal::core::survey::frame_chips;
use aircal::geo::LatLon;
use aircal::rfprop::{LinkBudget, PathProfile};
use aircal::sdr::{BurstPlan, CaptureRenderer, Frontend, FrontendConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn berkeley() -> LatLon {
    LatLon::surface(37.8716, -122.2727)
}

/// Every message transmitted over a clean 40 km LOS channel must decode,
/// and the CPR-decoded track must follow the true trajectory.
#[test]
fn clean_channel_full_stack() {
    let sensor = berkeley();
    let traffic = TrafficSim::generate(
        TrafficConfig {
            count: 5,
            radius_m: 40_000.0,
            ..TrafficConfig::paper_default(sensor)
        },
        77,
    );
    let emissions = TransponderSchedule::default().emissions(&traffic.flights, 0.0, 5.0, 77);
    assert!(!emissions.is_empty());

    let frontend = Frontend::new(FrontendConfig::bladerf_xa9(ADSB_FREQ_HZ, SAMPLE_RATE_HZ));
    let renderer = CaptureRenderer::new(frontend);
    let mut rng = ChaCha8Rng::seed_from_u64(77);

    let plans: Vec<BurstPlan> = emissions
        .iter()
        .map(|e| {
            let path = PathProfile::line_of_sight(sensor.slant_range_m(&e.position), ADSB_FREQ_HZ);
            let budget = LinkBudget::new(e.tx_power_dbm, 0.0, 2.0);
            BurstPlan {
                start_s: e.time_s,
                chips: frame_chips(&e.frame.encode_bytes()),
                rx_power_dbm: budget.median_rx_dbm(&path),
                phase0: 1.1,
            }
        })
        .collect();

    let decoder = Decoder::default();
    let mut decoded = Vec::new();
    for w in renderer.render(&plans, &mut rng) {
        decoded.extend(decoder.scan(&w.samples, w.start_s));
    }
    // Clean LOS at ≤40 km: essentially everything decodes (rare overlap
    // collisions may eat a couple of bursts).
    assert!(
        decoded.len() * 100 >= emissions.len() * 95,
        "{}/{} decoded",
        decoded.len(),
        emissions.len()
    );

    // CPR-decode a track for one aircraft and compare against the truth.
    let target = traffic.flights[0].icao;
    let mut even = None;
    let mut odd = None;
    let mut checked = 0;
    for m in decoded.iter().filter(|m| m.frame.icao() == target) {
        if let Some(MePayload::AirbornePosition { cpr, .. }) = m.frame.payload() {
            match cpr.format {
                CprFormat::Even => even = Some(*cpr),
                CprFormat::Odd => odd = Some(*cpr),
            }
            if let (Some(e), Some(o)) = (even, odd) {
                let (lat, lon) = decode_global(&CprPair {
                    even: e,
                    odd: o,
                    latest: cpr.format,
                })
                .expect("CPR pair decodes");
                let decoded_pos = LatLon::surface(lat, lon);
                let truth = traffic.flights[0].position_at(m.time_s);
                let err = decoded_pos.distance_m(&LatLon::surface(truth.lat_deg, truth.lon_deg));
                // One squitter interval of motion (≤130 m) + CPR
                // quantization (~5 m).
                assert!(err < 300.0, "track error {err} m at t={}", m.time_s);
                checked += 1;
            }
        }
    }
    assert!(checked >= 3, "only {checked} positions verified");
}

/// Message loss must be monotone in obstruction depth: deeper shadowing
/// decodes strictly fewer messages.
#[test]
fn decode_count_monotone_in_obstruction() {
    let sensor = berkeley();
    let traffic = TrafficSim::generate(
        TrafficConfig {
            count: 12,
            radius_m: 80_000.0,
            ..TrafficConfig::paper_default(sensor)
        },
        78,
    );
    let emissions = TransponderSchedule::default().emissions(&traffic.flights, 0.0, 4.0, 78);
    let frontend = Frontend::new(FrontendConfig::bladerf_xa9(ADSB_FREQ_HZ, SAMPLE_RATE_HZ));
    let renderer = CaptureRenderer::new(frontend);
    let decoder = Decoder::default();

    let decoded_with_extra_loss = |loss_db: f64| -> usize {
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let plans: Vec<BurstPlan> = emissions
            .iter()
            .map(|e| {
                let mut path =
                    PathProfile::line_of_sight(sensor.slant_range_m(&e.position), ADSB_FREQ_HZ);
                path.excess_db = loss_db;
                let budget = LinkBudget::new(e.tx_power_dbm, 0.0, 2.0);
                BurstPlan {
                    start_s: e.time_s,
                    chips: frame_chips(&e.frame.encode_bytes()),
                    rx_power_dbm: budget.median_rx_dbm(&path),
                    phase0: 0.0,
                }
            })
            .collect();
        renderer
            .render(&plans, &mut rng)
            .iter()
            .map(|w| decoder.scan(&w.samples, w.start_s).len())
            .sum()
    };

    let counts: Vec<usize> = [0.0, 15.0, 25.0, 35.0, 60.0]
        .iter()
        .map(|&l| decoded_with_extra_loss(l))
        .collect();
    for w in counts.windows(2) {
        assert!(w[0] >= w[1], "counts not monotone: {counts:?}");
    }
    assert!(counts[0] > 0);
    assert_eq!(*counts.last().unwrap(), 0, "60 dB must kill everything");
}

/// The antenna-pattern angular helper in `rfprop` must agree with the
/// canonical one in `geo` (they are intentionally duplicated).
#[test]
fn angle_separation_consistency() {
    use aircal::rfprop::AntennaPattern;
    let sector = AntennaPattern::Sector {
        boresight_deg: 10.0,
        beamwidth_deg: 60.0,
        peak_gain_dbi: 10.0,
        back_gain_dbi: -20.0,
    };
    for az in [0.0, 40.0, 170.0, 350.0, 355.5] {
        let sep = aircal::geo::angle::separation(az, 10.0);
        // Reconstruct the separation from the Gaussian rolloff and compare.
        let gain = sector.gain_dbi(az, 0.0);
        if gain > -20.0 {
            let implied = (((10.0 - gain) / 3.0).sqrt()) * 30.0;
            assert!((implied - sep).abs() < 1e-6, "az {az}: {implied} vs {sep}");
        }
    }
}
