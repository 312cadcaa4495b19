//! Frequency-response profiling across bands (§3.2).
//!
//! "Our automatic evaluation technique aims to effectively characterize
//! the node's performance at all frequency bands supported by the node."
//! The profiler measures every known source (cellular RSRP, TV band
//! power), predicts what an *unobstructed* installation at the same
//! coordinates would have measured, and reports the difference as the
//! band's attenuation. A failed measurement (no cell sync) is a **blind**
//! band.

use aircal_cellular::{CellMeasurement, CellScanner, TowerDatabase};
use aircal_env::{GeoAccel, SensorSite, World};
use aircal_tv::{TvMeasurement, TvPowerProbe, TvTower};
use serde::{Deserialize, Serialize};

/// Which opportunistic source produced a band measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SourceKind {
    /// 4G/5G downlink (RSRP, dBm scale).
    Cellular,
    /// ATSC broadcast (band power, dBFS scale).
    BroadcastTv,
}

/// Verdict for one band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BandVerdict {
    /// Within ~6 dB of the unobstructed expectation.
    Full,
    /// Usable but attenuated by the given dB.
    Degraded(f64),
    /// No measurement possible.
    Blind,
}

impl core::fmt::Display for BandVerdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BandVerdict::Full => write!(f, "full"),
            BandVerdict::Degraded(db) => write!(f, "degraded −{db:.1} dB"),
            BandVerdict::Blind => write!(f, "blind"),
        }
    }
}

/// One band's measurement vs expectation (both on the source's own scale).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandMeasurement {
    /// Source label ("Tower 2", "KSE-22 (521 MHz)").
    pub label: String,
    /// Carrier/center frequency, Hz.
    pub freq_hz: f64,
    /// Source type.
    pub source: SourceKind,
    /// Measured value (RSRP dBm or band power dBFS); `None` = no decode.
    pub measured_db: Option<f64>,
    /// Predicted value for an unobstructed outdoor installation at the
    /// same coordinates.
    pub expected_clear_db: f64,
}

impl BandMeasurement {
    /// Estimated excess attenuation, dB (`None` if the band is blind or
    /// either side of the comparison is non-finite — corrupted inputs are
    /// treated as blind rather than propagated).
    pub fn attenuation_db(&self) -> Option<f64> {
        self.measured_db
            .filter(|m| m.is_finite() && self.expected_clear_db.is_finite())
            .map(|m| (self.expected_clear_db - m).max(0.0))
    }

    /// Classify the band.
    pub fn verdict(&self) -> BandVerdict {
        match self.attenuation_db() {
            None => BandVerdict::Blind,
            Some(a) if a < 6.0 => BandVerdict::Full,
            Some(a) => BandVerdict::Degraded(a),
        }
    }
}

/// The full per-band profile of a node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrequencyProfile {
    /// All band measurements, sorted by frequency.
    pub bands: Vec<BandMeasurement>,
    /// Sources whose sweep never arrived (a failed audit step, not a
    /// blind receiver): bands from these sources are *absent*, and the
    /// profile must be read as incomplete rather than low-coverage.
    pub missing_sources: Vec<SourceKind>,
}

impl FrequencyProfile {
    /// Pair each real cell and TV measurement with its unobstructed twin's
    /// (same order, same towers) into bands sorted by frequency. A twin
    /// cell that failed to sync stands in as −120 dBm.
    pub fn from_sweeps(
        real_cells: &[CellMeasurement],
        clear_cells: &[CellMeasurement],
        real_tv: &[TvMeasurement],
        clear_tv: &[TvMeasurement],
    ) -> Self {
        let cells = real_cells
            .iter()
            .zip(clear_cells)
            .map(|(r, c)| BandMeasurement {
                label: r.tower_name.clone(),
                freq_hz: r.freq_hz,
                source: SourceKind::Cellular,
                measured_db: r.rsrp_dbm,
                expected_clear_db: c.rsrp_dbm.unwrap_or(-120.0),
            });
        let tv = real_tv.iter().zip(clear_tv).map(|(r, c)| BandMeasurement {
            label: r.station.clone(),
            freq_hz: r.center_hz,
            source: SourceKind::BroadcastTv,
            measured_db: Some(r.power_dbfs),
            expected_clear_db: c.power_dbfs,
        });
        let mut bands: Vec<BandMeasurement> = cells.chain(tv).collect();
        bands.sort_by(|a, b| a.freq_hz.total_cmp(&b.freq_hz));
        FrequencyProfile {
            bands,
            missing_sources: Vec::new(),
        }
    }

    /// Whether every commissioned sweep actually arrived.
    pub fn is_complete(&self) -> bool {
        self.missing_sources.is_empty()
    }

    /// Fraction of bands that produced any measurement.
    pub fn usable_fraction(&self) -> f64 {
        if self.bands.is_empty() {
            return 0.0;
        }
        self.bands
            .iter()
            .filter(|b| b.measured_db.is_some_and(|m| m.is_finite()))
            .count() as f64
            / self.bands.len() as f64
    }

    /// Mean attenuation over measurable bands at or above `min_freq_hz`
    /// (blind bands count as `blind_penalty_db`).
    pub fn mean_attenuation_above(&self, min_freq_hz: f64, blind_penalty_db: f64) -> f64 {
        let xs: Vec<f64> = self
            .bands
            .iter()
            .filter(|b| b.freq_hz >= min_freq_hz)
            .map(|b| b.attenuation_db().unwrap_or(blind_penalty_db))
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Highest frequency with a non-blind measurement, Hz.
    pub fn max_usable_freq_hz(&self) -> Option<f64> {
        self.bands
            .iter()
            .filter(|b| b.measured_db.is_some_and(|m| m.is_finite()) && b.freq_hz.is_finite())
            .map(|b| b.freq_hz)
            .fold(None, |acc: Option<f64>, f| {
                Some(acc.map_or(f, |a| a.max(f)))
            })
    }
}

/// Runs the full cross-band measurement campaign.
#[derive(Debug, Clone, Default)]
pub struct FrequencyProfiler {
    /// Cellular scanner (srsUE stand-in).
    pub scanner: CellScanner,
    /// TV probe (GNU-Radio stand-in).
    pub tv_probe: TvPowerProbe,
}

impl FrequencyProfiler {
    /// Profile a node: measure all towers/stations through the real world
    /// and compare against an unobstructed twin of the site. The real
    /// sweeps resolve through a caller-owned geometry accelerator (spatial
    /// index + path memo; `&mut world.accel()` for a one-off profile). The
    /// unobstructed twin lives in an *empty* world, where brute force is
    /// already trivial, so only the real sweeps go through `accel`.
    /// Bit-identical to the brute-force profile.
    pub fn profile_with_geo(
        &self,
        world: &World,
        accel: &mut GeoAccel,
        site: &SensorSite,
        cells: &TowerDatabase,
        tv: &[TvTower],
        seed: u64,
    ) -> FrequencyProfile {
        // The unobstructed twin: same coordinates/antenna, empty world, no
        // enclosure, no fault — what a perfect install would measure. The
        // baseline is computed from *public* knowledge (tower database),
        // so it uses fault-free instruments regardless of the node's own
        // condition.
        let clear_world = World::open(world.origin);
        let clear_site = SensorSite {
            enclosure: None,
            ..site.clone()
        };
        let mut clear_scanner = self.scanner.clone();
        clear_scanner.config.fault = aircal_sdr::FrontendFault::None;
        let mut clear_probe = self.tv_probe.clone();
        clear_probe.config.fault = aircal_sdr::FrontendFault::None;

        let mut real_cell = Vec::new();
        self.scanner
            .scan_with_geo(world, accel, site, cells, seed, &mut real_cell);
        let clear_cell = clear_scanner.scan(&clear_world, &clear_site, cells, seed ^ 1);
        let real_tv = self.tv_probe.sweep_with_geo(world, accel, site, tv, seed);
        let clear_tv = clear_probe.sweep(&clear_world, &clear_site, tv, seed ^ 1);
        FrequencyProfile::from_sweeps(&real_cell, &clear_cell, &real_tv, &clear_tv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_cellular::paper_towers;
    use aircal_env::{Scenario, ScenarioKind};
    use aircal_tv::paper_tv_towers;

    fn profile(kind: ScenarioKind) -> FrequencyProfile {
        let s = Scenario::build(kind);
        let cells = paper_towers(&s.world.origin);
        let tv = paper_tv_towers(&s.world.origin);
        let mut accel = s.world.accel();
        FrequencyProfiler::default()
            .profile_with_geo(&s.world, &mut accel, &s.site, &cells, &tv, 17)
    }

    #[test]
    fn rooftop_profile_mostly_full() {
        let p = profile(ScenarioKind::Rooftop);
        assert_eq!(p.usable_fraction(), 1.0, "rooftop must measure every band");
        let full = p
            .bands
            .iter()
            .filter(|b| matches!(b.verdict(), BandVerdict::Full))
            .count();
        assert!(full >= 5, "only {full} bands Full on the rooftop");
    }

    #[test]
    fn indoor_blind_at_midband_usable_low() {
        let p = profile(ScenarioKind::Indoor);
        // Cellular towers 2–5 blind.
        let blind = p
            .bands
            .iter()
            .filter(|b| b.source == SourceKind::Cellular && b.measured_db.is_none())
            .count();
        assert_eq!(blind, 4, "indoor must lose towers 2–5");
        // But sub-600 MHz TV still usable (the paper's conclusion).
        assert!(p
            .bands
            .iter()
            .filter(|b| b.source == SourceKind::BroadcastTv)
            .all(|b| b.measured_db.is_some()));
        // Max usable frequency collapses to ≤ 731 MHz for cellular…
        let max_cell = p
            .bands
            .iter()
            .filter(|b| b.source == SourceKind::Cellular && b.measured_db.is_some())
            .map(|b| b.freq_hz)
            .fold(0.0, f64::max);
        assert_eq!(max_cell, 731e6);
    }

    #[test]
    fn attenuation_ordering_rooftop_vs_indoor() {
        let roof = profile(ScenarioKind::Rooftop);
        let indoor = profile(ScenarioKind::Indoor);
        let a_roof = roof.mean_attenuation_above(1e9, 40.0);
        let a_indoor = indoor.mean_attenuation_above(1e9, 40.0);
        assert!(
            a_indoor > a_roof + 10.0,
            "indoor attenuation {a_indoor} vs rooftop {a_roof}"
        );
    }

    #[test]
    fn verdicts_classify_sensibly() {
        let b = BandMeasurement {
            label: "x".into(),
            freq_hz: 1e9,
            source: SourceKind::Cellular,
            measured_db: Some(-60.0),
            expected_clear_db: -57.0,
        };
        assert_eq!(b.verdict(), BandVerdict::Full);
        let b2 = BandMeasurement {
            measured_db: Some(-80.0),
            ..b.clone()
        };
        match b2.verdict() {
            BandVerdict::Degraded(a) => assert!((a - 23.0).abs() < 1e-9),
            v => panic!("expected Degraded, got {v:?}"),
        }
        let b3 = BandMeasurement {
            measured_db: None,
            ..b
        };
        assert_eq!(b3.verdict(), BandVerdict::Blind);
    }

    #[test]
    fn profile_sorted_by_frequency() {
        let p = profile(ScenarioKind::Rooftop);
        for w in p.bands.windows(2) {
            assert!(w[0].freq_hz <= w[1].freq_hz);
        }
        assert_eq!(p.bands.len(), 11); // 5 cells + 6 TV stations
    }

    #[test]
    fn missing_sources_mark_profile_incomplete() {
        let mut p = profile(ScenarioKind::Rooftop);
        assert!(p.is_complete());
        p.missing_sources.push(SourceKind::BroadcastTv);
        assert!(!p.is_complete());
        // Incompleteness survives the wire.
        let back: FrequencyProfile =
            serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(back.missing_sources, vec![SourceKind::BroadcastTv]);
    }

    #[test]
    fn attenuation_never_negative() {
        for kind in [
            ScenarioKind::Rooftop,
            ScenarioKind::BehindWindow,
            ScenarioKind::Indoor,
        ] {
            for b in profile(kind).bands {
                if let Some(a) = b.attenuation_db() {
                    assert!(a >= 0.0);
                }
            }
        }
    }
}
