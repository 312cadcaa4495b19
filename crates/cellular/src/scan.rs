//! The srsUE-style cell scanner.
//!
//! For each tower in the database the scanner builds the propagation path
//! from the environment model, forms the per-resource-element link budget,
//! averages a handful of fading realizations (RSRP is averaged over many
//! subframes in a real UE), and reports the measurement — or a failed
//! synchronization when the reference signal lands below the sync floor.
//! "A missing bar indicates that the signal was too weak for srsUE to
//! decode successfully." (§3.2)

use crate::tower::{CellTower, TowerDatabase};
use aircal_dsp::simd::LaneSum;
use aircal_env::{GeoAccel, SensorSite, World};
use aircal_rfprop::noise::noise_floor_dbm;
use aircal_rfprop::{LinkBudget, PathProfile};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Scanner configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScanConfig {
    /// RSRP below which the UE cannot synchronize to the cell, dBm.
    /// (srsUE on a BladeRF with a 7 dB NF and implementation margin loses
    /// PSS/SSS around here: −108 dBm RSRP is ~17 dB of per-RE SNR.)
    pub sync_rsrp_floor_dbm: f64,
    /// Number of fading realizations averaged into one RSRP reading.
    pub averaging_draws: usize,
    /// Front-end fault at the sensor (shared with the other measurement
    /// chains — a damaged cable hurts every band).
    pub fault: aircal_sdr::FrontendFault,
}

impl Default for ScanConfig {
    fn default() -> Self {
        Self {
            sync_rsrp_floor_dbm: -108.0,
            averaging_draws: 16,
            fault: aircal_sdr::FrontendFault::None,
        }
    }
}

/// One cell-search result.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellMeasurement {
    /// Tower name (for reports; a real UE would only know PCI/EARFCN).
    pub tower_name: String,
    /// Physical cell ID.
    pub pci: u16,
    /// Downlink EARFCN.
    pub earfcn: u32,
    /// Downlink carrier frequency, Hz.
    pub freq_hz: f64,
    /// Measured RSRP in dBm — `None` when synchronization failed (the
    /// paper's missing bar).
    pub rsrp_dbm: Option<f64>,
    /// Reference-signal SNR over one RE bandwidth, dB (when synced).
    pub rs_snr_db: Option<f64>,
    /// Deterministic obstruction loss on this path (diffraction +
    /// penetration), dB — diagnostic, not observable by a real UE.
    pub obstruction_db: f64,
}

/// The scanner.
#[derive(Debug, Clone, Default)]
pub struct CellScanner {
    /// Configuration.
    pub config: ScanConfig,
}

impl CellScanner {
    /// Create a scanner.
    pub fn new(config: ScanConfig) -> Self {
        Self { config }
    }

    /// Scan every tower in the database (the srsUE "cell search sweep"),
    /// profiling each path by brute force over every building. The
    /// reference the accelerated sweep is checked against, and the scan of
    /// the unobstructed twin, whose empty world needs no index.
    pub fn scan(
        &self,
        world: &World,
        site: &SensorSite,
        db: &TowerDatabase,
        seed: u64,
    ) -> Vec<CellMeasurement> {
        let mut out = Vec::new();
        self.scan_paths(site, db, seed, &mut out, |t| {
            world.path_profile(site, &t.position, t.dl_freq_hz())
        });
        out
    }

    /// [`CellScanner::scan`] resolving each tower's propagation path
    /// through the world's spatial index and path memo, into a
    /// caller-owned buffer. Towers are static, so after the first sweep
    /// every path is a cache hit; measurements already in `out` are
    /// rewritten in place (name strings included), so a warm sweep
    /// performs zero allocations. Bit-identical to the brute-force scan.
    pub fn scan_with_geo(
        &self,
        world: &World,
        accel: &mut GeoAccel,
        site: &SensorSite,
        db: &TowerDatabase,
        seed: u64,
        out: &mut Vec<CellMeasurement>,
    ) {
        self.scan_paths(site, db, seed, out, |t| {
            accel.profile(world, site, &t.position, t.dl_freq_hz())
        });
    }

    /// The shared sweep: tower `i`'s measurement lands in `out[i]`,
    /// reusing the slot when `out` already has one.
    fn scan_paths(
        &self,
        site: &SensorSite,
        db: &TowerDatabase,
        seed: u64,
        out: &mut Vec<CellMeasurement>,
        mut path_of: impl FnMut(&CellTower) -> PathProfile,
    ) {
        let _span = aircal_obs::span!("cell_scan");
        let towers = db.all();
        out.truncate(towers.len());
        out.reserve(towers.len() - out.len());
        for (i, t) in towers.iter().enumerate() {
            let path = path_of(t);
            if i == out.len() {
                out.push(CellMeasurement::default());
            }
            self.measure_into(&path, site, t, seed, &mut out[i]);
        }
    }

    /// Measure one tower over `path` into the result slot `out`, whose
    /// fields (including its name `String`) are rewritten in place.
    /// Deterministic in `seed` (used for the fading draws).
    fn measure_into(
        &self,
        path: &PathProfile,
        site: &SensorSite,
        tower: &CellTower,
        seed: u64,
        out: &mut CellMeasurement,
    ) {
        let freq = tower.dl_freq_hz();
        let bearing = site.position.bearing_deg(&tower.position);
        let elevation = site.position.elevation_deg(&tower.position);
        let rx_gain = site.antenna.gain_dbi(bearing, elevation);
        let budget = LinkBudget::new(tower.rs_eirp_per_re_dbm(), 0.0, rx_gain);

        // RSRP averages power across subframes: average fading draws in
        // the linear domain, summed in the canonical lane order of
        // `aircal_dsp::simd` so every dispatch arm agrees bitwise.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ tower.pci as u64);
        let draws = self.config.averaging_draws.max(1);
        let mut sum = LaneSum::default();
        for _ in 0..draws {
            sum.push(10f64.powf(budget.sample_rx_dbm(path, &mut rng) / 10.0));
        }
        let mean_lin = sum.sum() / draws as f64;
        let rsrp = 10.0 * mean_lin.log10() - self.config.fault.loss_db(freq);

        let synced = rsrp >= self.config.sync_rsrp_floor_dbm;
        let rs_snr = rsrp - noise_floor_dbm(15_000.0, site.noise_figure_db);
        out.tower_name.clear();
        out.tower_name.push_str(&tower.name);
        out.pci = tower.pci;
        out.earfcn = tower.earfcn;
        out.freq_hz = freq;
        out.rsrp_dbm = synced.then_some(rsrp);
        out.rs_snr_db = synced.then_some(rs_snr);
        out.obstruction_db = path.diffraction_db + path.penetration_db;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tower::paper_towers;
    use aircal_env::{paper_scenarios, Scenario, ScenarioKind};

    fn scan_scenario(s: &Scenario) -> Vec<CellMeasurement> {
        let db = paper_towers(&s.world.origin);
        CellScanner::default().scan(&s.world, &s.site, &db, 7)
    }

    /// The paper's Figure 3 decode pattern: rooftop syncs to all five
    /// towers; the window site to towers 1–3; the indoor site to tower 1
    /// only.
    #[test]
    fn figure3_decode_pattern() {
        let scenarios = paper_scenarios();
        let pattern: Vec<Vec<bool>> = scenarios
            .iter()
            .map(|s| {
                scan_scenario(s)
                    .iter()
                    .map(|m| m.rsrp_dbm.is_some())
                    .collect()
            })
            .collect();
        assert_eq!(pattern[0], vec![true; 5], "rooftop must see all towers");
        assert_eq!(
            pattern[1],
            vec![true, true, true, false, false],
            "window must see towers 1–3 only"
        );
        assert_eq!(
            pattern[2],
            vec![true, false, false, false, false],
            "indoor must see tower 1 only"
        );
    }

    /// RSRP ordering per tower: rooftop ≥ window ≥ indoor (when measured).
    #[test]
    fn rsrp_ordering_across_locations() {
        let scenarios = paper_scenarios();
        let all: Vec<Vec<CellMeasurement>> = scenarios.iter().map(scan_scenario).collect();
        for (t, roof_m) in all[0].iter().enumerate().take(5) {
            let roof = roof_m.rsrp_dbm;
            let window = all[1][t].rsrp_dbm;
            let indoor = all[2][t].rsrp_dbm;
            if let (Some(r), Some(w)) = (roof, window) {
                assert!(r > w, "tower {t}: roof {r} !> window {w}");
            }
            if let (Some(w), Some(i)) = (window, indoor) {
                assert!(w > i - 3.0, "tower {t}: window {w} vs indoor {i}");
            }
        }
    }

    /// Tower 1 (700 MHz) penetrates indoors — the paper's headline
    /// low-band effect — at a level near the paper's ≈ −80 dBm.
    #[test]
    fn tower1_indoor_level() {
        let indoor = Scenario::build(ScenarioKind::Indoor);
        let m = &scan_scenario(&indoor)[0];
        let rsrp = m.rsrp_dbm.expect("tower 1 must be measurable indoors");
        assert!(
            (-95.0..=-65.0).contains(&rsrp),
            "indoor tower-1 RSRP {rsrp} outside plausible band"
        );
    }

    /// Rooftop RSRP levels are "very high" (paper: roughly −40…−55 for the
    /// unobstructed towers).
    #[test]
    fn rooftop_levels_strong_for_clear_towers() {
        let roof = Scenario::build(ScenarioKind::Rooftop);
        let ms = scan_scenario(&roof);
        for m in &ms[..3] {
            let rsrp = m.rsrp_dbm.unwrap();
            assert!(
                (-70.0..=-35.0).contains(&rsrp),
                "{} rooftop RSRP {rsrp}",
                m.tower_name
            );
        }
    }

    /// The geo-accelerated sweep must match the brute-force scan bit for
    /// bit, cold and warm.
    #[test]
    fn geo_scan_matches_brute_force() {
        for kind in [
            ScenarioKind::Rooftop,
            ScenarioKind::BehindWindow,
            ScenarioKind::Indoor,
        ] {
            let s = Scenario::build(kind);
            let db = paper_towers(&s.world.origin);
            let scanner = CellScanner::default();
            let brute = scanner.scan(&s.world, &s.site, &db, 7);
            let mut accel = s.world.accel();
            let mut out = Vec::new();
            scanner.scan_with_geo(&s.world, &mut accel, &s.site, &db, 7, &mut out);
            assert_eq!(brute, out, "{kind:?}: cold geo scan diverged");
            // Warm: every path a memo hit, every slot rewritten in place.
            scanner.scan_with_geo(&s.world, &mut accel, &s.site, &db, 7, &mut out);
            assert_eq!(brute, out, "{kind:?}: warm geo scan diverged");
            assert_eq!(accel.cache.hits(), db.all().len() as u64);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = Scenario::build(ScenarioKind::Rooftop);
        let db = paper_towers(&s.world.origin);
        let a = CellScanner::default().scan(&s.world, &s.site, &db, 9);
        let b = CellScanner::default().scan(&s.world, &s.site, &db, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn sync_floor_configurable() {
        // With an absurdly high floor nothing syncs; with a very low one
        // everything does.
        let s = Scenario::build(ScenarioKind::Rooftop);
        let db = paper_towers(&s.world.origin);
        let deaf = CellScanner::new(ScanConfig {
            sync_rsrp_floor_dbm: 0.0,
            averaging_draws: 4,
            ..Default::default()
        });
        assert!(deaf
            .scan(&s.world, &s.site, &db, 1)
            .iter()
            .all(|m| m.rsrp_dbm.is_none()));
        let keen = CellScanner::new(ScanConfig {
            sync_rsrp_floor_dbm: -200.0,
            averaging_draws: 4,
            ..Default::default()
        });
        assert!(keen
            .scan(&s.world, &s.site, &db, 1)
            .iter()
            .all(|m| m.rsrp_dbm.is_some()));
    }
}
