//! Seeded, deterministic adversarial sensor behaviours.
//!
//! PR 2's chaos layer modelled links that *drop*; this models sensors that
//! *lie*. Each misbehaviour is a concrete data-plane attack from the
//! crowd-sensing literature (Electrosense+, crowdsourced anomaly
//! detection): spoofed ADS-B receptions, replayed stale survey windows,
//! gain-inflated band powers, frozen front ends, and slow calibration
//! poisoning designed to stay under per-step thresholds.
//!
//! Everything is seeded and counter-driven — no wall clock, no global RNG —
//! so an adversarial campaign replays bit-identically, and the adversary's
//! whole mutable state fits in a handful of words (snapshot/restore uses
//! exactly those words).

use aircal_adsb::IcaoAddress;
use aircal_cellular::CellMeasurement;
use aircal_core::survey::SurveyResult;
use aircal_geo::LatLon;
use aircal_tv::TvMeasurement;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// ICAO block used for spoofed aircraft: deliberately outside any
/// ground-truth roster (the traffic simulator allocates well below this).
pub const SPOOFED_ICAO_BASE: u32 = 0xADB000;

/// Which lie a compromised node tells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdversaryKind {
    /// Inject ADS-B receptions from aircraft that never existed (ICAOs
    /// absent from the tracking service's ground truth).
    SpoofAdsb {
        /// Ghost aircraft injected per survey.
        ghosts: usize,
    },
    /// Serve the *first* survey window forever: the node records one
    /// honest capture, then replays it for every later commissioned seed.
    ReplayStale,
    /// Report band powers inflated by a flat gain error — a poor
    /// installation dressed up as a premium one.
    GainInflate {
        /// Inflation applied to every reported band power, dB.
        db: f64,
    },
    /// Stuck front end: every sweep and survey returns the identical
    /// capture regardless of the commissioned seed.
    FrozenFrontend,
    /// Calibration poisoning: reported band powers drift upward a little
    /// more each round, each step small enough to pass per-step checks.
    CalibrationPoison {
        /// Added drift per completed sweep round, dB.
        db_per_round: f64,
    },
}

impl AdversaryKind {
    /// Short tag for logs, tables, and CLI flags.
    pub fn tag(&self) -> &'static str {
        match self {
            AdversaryKind::SpoofAdsb { .. } => "spoof",
            AdversaryKind::ReplayStale => "replay",
            AdversaryKind::GainInflate { .. } => "gain",
            AdversaryKind::FrozenFrontend => "frozen",
            AdversaryKind::CalibrationPoison { .. } => "poison",
        }
    }

    /// Parse a CLI `--adversary <kind>` value (with default parameters).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "spoof" => Ok(AdversaryKind::SpoofAdsb { ghosts: 12 }),
            "replay" => Ok(AdversaryKind::ReplayStale),
            "gain" => Ok(AdversaryKind::GainInflate { db: 25.0 }),
            "frozen" => Ok(AdversaryKind::FrozenFrontend),
            "poison" => Ok(AdversaryKind::CalibrationPoison { db_per_round: 2.5 }),
            other => Err(format!(
                "unknown adversary kind {other:?} (expected spoof|replay|gain|frozen|poison)"
            )),
        }
    }
}

impl core::fmt::Display for AdversaryKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdversaryKind::SpoofAdsb { ghosts } => write!(f, "spoof ({ghosts} ghosts)"),
            AdversaryKind::ReplayStale => write!(f, "replay stale surveys"),
            AdversaryKind::GainInflate { db } => write!(f, "gain +{db:.0} dB"),
            AdversaryKind::FrozenFrontend => write!(f, "frozen frontend"),
            AdversaryKind::CalibrationPoison { db_per_round } => {
                write!(f, "poison +{db_per_round:.1} dB/round")
            }
        }
    }
}

/// The adversary's entire mutable state — a handful of counters, so a
/// snapshot captures it exactly and a restored node resumes its campaign
/// of lies bit-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversaryState {
    /// First commissioned survey seed (what `ReplayStale` keeps serving).
    pub stale_survey_seed: Option<u64>,
    /// Surveys served so far.
    pub surveys_served: u64,
    /// Cellular sweeps served so far (drives poison drift).
    pub cells_served: u64,
    /// TV sweeps served so far (drives poison drift).
    pub tv_served: u64,
}

/// A compromised node's misbehaviour engine.
#[derive(Debug, Clone)]
pub struct Adversary {
    /// The lie.
    pub kind: AdversaryKind,
    /// Private adversary seed (spoofed positions derive from it).
    pub seed: u64,
    state: Arc<Mutex<AdversaryState>>,
}

impl Adversary {
    /// Create with empty state.
    pub fn new(kind: AdversaryKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            state: Arc::new(Mutex::new(AdversaryState::default())),
        }
    }

    /// The seed the node actually uses for a commissioned survey. Honest
    /// kinds pass the commissioned seed through; `ReplayStale` pins the
    /// first seed it ever saw; `FrozenFrontend` always uses its own.
    pub fn survey_seed(&self, commissioned: u64) -> u64 {
        let mut st = self.state.lock().expect("adversary state poisoned");
        st.surveys_served += 1;
        match self.kind {
            AdversaryKind::ReplayStale => *st.stale_survey_seed.get_or_insert(commissioned),
            AdversaryKind::FrozenFrontend => self.seed,
            _ => commissioned,
        }
    }

    /// The seed used for a commissioned cells/TV sweep.
    pub fn sweep_seed(&self, commissioned: u64) -> u64 {
        match self.kind {
            AdversaryKind::FrozenFrontend => self.seed,
            _ => commissioned,
        }
    }

    /// Post-process a survey before it goes on the wire.
    pub fn corrupt_survey(&self, commissioned: u64, survey: &mut SurveyResult) {
        if let AdversaryKind::SpoofAdsb { ghosts } = self.kind {
            // Ghost receptions: plausible-looking positions, ICAOs the
            // ground truth has never heard of. Deterministic in
            // (adversary seed, commissioned seed).
            let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ commissioned.rotate_left(17));
            let origin = survey
                .decoded_positions
                .first()
                .map(|(_, p)| *p)
                .unwrap_or_else(|| LatLon::new(37.87, -122.27, 9_000.0));
            for g in 0..ghosts {
                let icao = IcaoAddress::new(SPOOFED_ICAO_BASE + g as u32);
                let pos = LatLon::new(
                    origin.lat_deg + rng.gen_range(-0.3..0.3),
                    origin.lon_deg + rng.gen_range(-0.3..0.3),
                    rng.gen_range(6_000.0..11_000.0),
                );
                survey.decoded_positions.push((icao, pos));
            }
            survey
                .decoded_positions
                .sort_by_key(|(icao, _)| icao.value());
            survey.total_messages += ghosts * 8;
            survey.unmatched_messages += ghosts * 8;
        }
    }

    /// Post-process a cellular sweep before it goes on the wire
    /// (increments the round counter that drives poison drift).
    pub fn corrupt_cells(&self, cells: &mut [CellMeasurement]) {
        let shift = {
            let mut st = self.state.lock().expect("adversary state poisoned");
            let rounds_before = st.cells_served;
            st.cells_served += 1;
            self.power_shift_db(rounds_before)
        };
        if shift != 0.0 {
            for c in cells.iter_mut() {
                if let Some(r) = c.rsrp_dbm.as_mut() {
                    *r += shift;
                }
            }
        }
    }

    /// Post-process a TV sweep before it goes on the wire.
    pub fn corrupt_tv(&self, tv: &mut [TvMeasurement]) {
        let shift = {
            let mut st = self.state.lock().expect("adversary state poisoned");
            let rounds_before = st.tv_served;
            st.tv_served += 1;
            self.power_shift_db(rounds_before)
        };
        if shift != 0.0 {
            for t in tv.iter_mut() {
                t.power_dbfs += shift;
            }
        }
    }

    fn power_shift_db(&self, rounds_before: u64) -> f64 {
        match self.kind {
            AdversaryKind::GainInflate { db } => db,
            AdversaryKind::CalibrationPoison { db_per_round } => {
                db_per_round * rounds_before as f64
            }
            _ => 0.0,
        }
    }

    /// Copy out the mutable state (for snapshots).
    pub fn state(&self) -> AdversaryState {
        *self.state.lock().expect("adversary state poisoned")
    }

    /// Overwrite the mutable state (for restore).
    pub fn restore_state(&self, state: AdversaryState) {
        *self.state.lock().expect("adversary state poisoned") = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn survey_stub() -> SurveyResult {
        SurveyResult {
            points: Vec::new(),
            total_messages: 100,
            unmatched_messages: 0,
            skipped_low_snr: 0,
            decoded_positions: vec![(
                IcaoAddress::new(0xA0_0001),
                LatLon::new(37.9, -122.3, 9_000.0),
            )],
            config: aircal_core::survey::SurveyConfig::quick(),
        }
    }

    #[test]
    fn parse_kinds() {
        assert_eq!(AdversaryKind::parse("spoof").unwrap().tag(), "spoof");
        for k in ["replay", "gain", "frozen", "poison"] {
            assert_eq!(AdversaryKind::parse(k).unwrap().tag(), k);
        }
        assert!(AdversaryKind::parse("nope").is_err());
    }

    #[test]
    fn spoof_injects_unknown_icaos_deterministically() {
        let a = Adversary::new(AdversaryKind::SpoofAdsb { ghosts: 4 }, 9);
        let mut s1 = survey_stub();
        let mut s2 = survey_stub();
        a.corrupt_survey(123, &mut s1);
        a.corrupt_survey(123, &mut s2);
        assert_eq!(s1.decoded_positions.len(), 5);
        assert_eq!(s1.unmatched_messages, 32);
        let spoofed: Vec<u32> = s1
            .decoded_positions
            .iter()
            .map(|(i, _)| i.value())
            .filter(|v| *v >= SPOOFED_ICAO_BASE)
            .collect();
        assert_eq!(spoofed.len(), 4);
        // Bit-identical for the same (adversary seed, commissioned seed).
        assert_eq!(
            serde_json::to_string(&s1.decoded_positions).unwrap(),
            serde_json::to_string(&s2.decoded_positions).unwrap()
        );
    }

    #[test]
    fn replay_pins_the_first_seed() {
        let a = Adversary::new(AdversaryKind::ReplayStale, 1);
        assert_eq!(a.survey_seed(41), 41);
        assert_eq!(a.survey_seed(42), 41);
        assert_eq!(a.survey_seed(999), 41);
        assert_eq!(a.state().surveys_served, 3);
    }

    #[test]
    fn frozen_always_uses_its_own_seed() {
        let a = Adversary::new(AdversaryKind::FrozenFrontend, 77);
        assert_eq!(a.survey_seed(1), 77);
        assert_eq!(a.sweep_seed(2), 77);
        assert_eq!(a.survey_seed(3), 77);
    }

    #[test]
    fn poison_drifts_per_round_and_gain_is_flat() {
        let p = Adversary::new(AdversaryKind::CalibrationPoison { db_per_round: 2.0 }, 5);
        let mut tv = vec![TvMeasurement {
            station: "KSE".into(),
            rf_channel: 22,
            center_hz: 521e6,
            power_dbfs: -30.0,
            predicted_dbfs: -30.0,
            obstruction_db: 0.0,
        }];
        p.corrupt_tv(&mut tv); // round 0: no drift yet
        assert_eq!(tv[0].power_dbfs, -30.0);
        p.corrupt_tv(&mut tv); // round 1: +2
        assert_eq!(tv[0].power_dbfs, -28.0);
        p.corrupt_tv(&mut tv); // round 2: +4
        assert_eq!(tv[0].power_dbfs, -24.0);

        let g = Adversary::new(AdversaryKind::GainInflate { db: 25.0 }, 5);
        let mut tv2 = tv.clone();
        let before = tv2[0].power_dbfs;
        g.corrupt_tv(&mut tv2);
        g.corrupt_tv(&mut tv2);
        assert_eq!(tv2[0].power_dbfs, before + 50.0);
    }

    #[test]
    fn state_roundtrip() {
        let a = Adversary::new(AdversaryKind::ReplayStale, 1);
        a.survey_seed(10);
        a.survey_seed(11);
        let st = a.state();
        let b = Adversary::new(AdversaryKind::ReplayStale, 1);
        b.restore_state(st);
        // The restored adversary keeps replaying the same stale window.
        assert_eq!(b.survey_seed(999), 10);
        assert_eq!(b.state().surveys_served, 3);
    }
}
