//! 5G NR: the global frequency raster (NR-ARFCN), a set of modeled bands
//! including millimeter wave, and NR cell measurement.
//!
//! §3.2: "Mobile networks in North America can operate from as low as 617
//! MHz all the way to 4499 MHz in 4G networks. In addition, 5G also
//! supports millimeter-wave bands from 24 to 48 GHz." The mmWave ablation
//! (A6) uses these carriers to show the frequency-response technique
//! extending to FR2 — where *any* obstruction is fatal.

use crate::scan::{CellMeasurement, CellScanner};
use aircal_env::{SensorSite, World};
use aircal_geo::LatLon;
use aircal_rfprop::noise::noise_floor_dbm;
use aircal_rfprop::LinkBudget;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Modeled NR operating bands (downlink ranges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NrBand {
    /// 617–652 MHz (FR1 low band; LTE B71 refarm).
    N71,
    /// 2496–2690 MHz (FR1 mid band).
    N41,
    /// 3300–4200 MHz (FR1 C-band).
    N77,
    /// 3300–3800 MHz (FR1 C-band subset).
    N78,
    /// 26.5–29.5 GHz (FR2 mmWave).
    N257,
    /// 37–40 GHz (FR2 mmWave).
    N260,
}

impl NrBand {
    /// Downlink frequency range in Hz.
    pub fn dl_range_hz(&self) -> (f64, f64) {
        match self {
            NrBand::N71 => (617e6, 652e6),
            NrBand::N41 => (2_496e6, 2_690e6),
            NrBand::N77 => (3_300e6, 4_200e6),
            NrBand::N78 => (3_300e6, 3_800e6),
            NrBand::N257 => (26_500e6, 29_500e6),
            NrBand::N260 => (37_000e6, 40_000e6),
        }
    }

    /// Is this a millimeter-wave (FR2) band?
    pub fn is_fr2(&self) -> bool {
        matches!(self, NrBand::N257 | NrBand::N260)
    }

    /// Subcarrier spacing used by our model for this band, Hz.
    pub fn scs_hz(&self) -> f64 {
        if self.is_fr2() {
            120_000.0
        } else {
            30_000.0
        }
    }

    /// Does the band contain this downlink frequency?
    pub fn contains(&self, freq_hz: f64) -> bool {
        let (lo, hi) = self.dl_range_hz();
        freq_hz >= lo && freq_hz <= hi
    }
}

/// Convert an NR-ARFCN to frequency per the TS 38.104 global raster.
///
/// Returns `None` for values outside the defined 0–3279165 range.
pub fn nr_arfcn_to_freq_hz(arfcn: u32) -> Option<f64> {
    match arfcn {
        0..=599_999 => Some(5e3 * arfcn as f64),
        600_000..=2_016_666 => Some(3_000e6 + 15e3 * (arfcn - 600_000) as f64),
        2_016_667..=3_279_165 => Some(24_250.08e6 + 60e3 * (arfcn - 2_016_667) as f64),
        _ => None,
    }
}

/// Convert a frequency to the nearest NR-ARFCN on the global raster.
pub fn freq_hz_to_nr_arfcn(freq_hz: f64) -> Option<u32> {
    if !(0.0..=100_000e6).contains(&freq_hz) {
        return None;
    }
    if freq_hz < 3_000e6 {
        Some((freq_hz / 5e3).round() as u32)
    } else if freq_hz < 24_250.08e6 {
        Some(600_000 + ((freq_hz - 3_000e6) / 15e3).round() as u32)
    } else {
        let n = 2_016_667 + ((freq_hz - 24_250.08e6) / 60e3).round() as i64;
        (n <= 3_279_165).then_some(n as u32)
    }
}

/// One NR cell (gNB carrier).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NrCell {
    /// Display name.
    pub name: String,
    /// Physical cell ID.
    pub pci: u16,
    /// Operating band.
    pub band: NrBand,
    /// NR-ARFCN on the global raster.
    pub arfcn: u32,
    /// Site position (`alt_m` = antenna height).
    pub position: LatLon,
    /// Total EIRP, dBm. (FR2 cells use massive beamforming: high EIRP,
    /// narrow beams — we model the beam pointed at the sensor, the
    /// best case.)
    pub eirp_dbm: f64,
    /// Carrier bandwidth, Hz.
    pub bandwidth_hz: f64,
}

impl NrCell {
    /// Downlink carrier frequency, Hz.
    pub fn dl_freq_hz(&self) -> f64 {
        nr_arfcn_to_freq_hz(self.arfcn).expect("cell ARFCN on the raster")
    }

    /// SSB/reference EIRP per resource element, dBm.
    pub fn rs_eirp_per_re_dbm(&self) -> f64 {
        let n_re = (self.bandwidth_hz / self.band.scs_hz()).max(1.0);
        self.eirp_dbm - 10.0 * n_re.log10()
    }
}

/// An extended tower set for the 5G ablation: FR1 low/mid/C-band plus an
/// FR2 mmWave cell, all west of the site (the rooftop's open sector).
pub fn nr_extension_cells(origin: &LatLon) -> Vec<NrCell> {
    let cell = |name: &str, pci, band: NrBand, freq_hz: f64, bearing, dist, eirp, bw| {
        let mut pos = origin.destination(bearing, dist);
        pos.alt_m = 25.0;
        NrCell {
            name: name.to_string(),
            pci,
            band,
            arfcn: freq_hz_to_nr_arfcn(freq_hz).expect("on raster"),
            position: pos,
            eirp_dbm: eirp,
            bandwidth_hz: bw,
        }
    };
    vec![
        cell("gNB-n71", 601, NrBand::N71, 632e6, 245.0, 800.0, 62.0, 10e6),
        cell(
            "gNB-n41",
            602,
            NrBand::N41,
            2_593e6,
            285.0,
            500.0,
            68.0,
            60e6,
        ),
        cell(
            "gNB-n77",
            603,
            NrBand::N77,
            3_700e6,
            300.0,
            450.0,
            70.0,
            80e6,
        ),
        cell(
            "gNB-n257",
            604,
            NrBand::N257,
            28_000e6,
            270.0,
            200.0,
            75.0,
            200e6,
        ),
    ]
}

impl CellScanner {
    /// Measure an NR cell — same synchronization model as LTE, at the NR
    /// carrier and subcarrier spacing.
    pub fn measure_nr(
        &self,
        world: &World,
        site: &SensorSite,
        cell: &NrCell,
        seed: u64,
    ) -> CellMeasurement {
        let freq = cell.dl_freq_hz();
        let path = world.path_profile(site, &cell.position, freq);
        let bearing = site.position.bearing_deg(&cell.position);
        let elevation = site.position.elevation_deg(&cell.position);
        let rx_gain = site.antenna.gain_dbi(bearing, elevation);
        let budget = LinkBudget::new(cell.rs_eirp_per_re_dbm(), 0.0, rx_gain);

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ cell.pci as u64);
        let draws = self.config.averaging_draws.max(1);
        let mean_lin: f64 = (0..draws)
            .map(|_| 10f64.powf(budget.sample_rx_dbm(&path, &mut rng) / 10.0))
            .sum::<f64>()
            / draws as f64;
        let rsrp = 10.0 * mean_lin.log10() - self.config.fault.loss_db(freq);

        let synced = rsrp >= self.config.sync_rsrp_floor_dbm;
        let rs_snr = rsrp - noise_floor_dbm(cell.band.scs_hz(), site.noise_figure_db);
        CellMeasurement {
            tower_name: cell.name.clone(),
            pci: cell.pci,
            earfcn: cell.arfcn,
            freq_hz: freq,
            rsrp_dbm: synced.then_some(rsrp),
            rs_snr_db: synced.then_some(rs_snr),
            obstruction_db: path.diffraction_db + path.penetration_db,
        }
    }

    /// Sweep an NR cell list.
    pub fn scan_nr(
        &self,
        world: &World,
        site: &SensorSite,
        cells: &[NrCell],
        seed: u64,
    ) -> Vec<CellMeasurement> {
        cells
            .iter()
            .map(|c| self.measure_nr(world, site, c, seed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_env::{Scenario, ScenarioKind};

    #[test]
    fn raster_reference_points() {
        // Boundary anchors from TS 38.104.
        assert_eq!(nr_arfcn_to_freq_hz(0), Some(0.0));
        assert_eq!(nr_arfcn_to_freq_hz(600_000), Some(3_000e6));
        assert_eq!(nr_arfcn_to_freq_hz(2_016_667), Some(24_250.08e6));
        assert_eq!(nr_arfcn_to_freq_hz(3_279_166), None);
        // A classic C-band point: 3 700 MHz → 646667 ≈ 3.7 GHz.
        let f = nr_arfcn_to_freq_hz(646_667).unwrap();
        assert!((f - 3_700.005e6).abs() < 10e3);
    }

    #[test]
    fn raster_round_trip() {
        for f in [632e6, 2_593e6, 3_700e6, 28_000e6, 39_500e6] {
            let n = freq_hz_to_nr_arfcn(f).unwrap();
            let back = nr_arfcn_to_freq_hz(n).unwrap();
            assert!((back - f).abs() <= 30e3, "{f}: {back}");
        }
        assert_eq!(freq_hz_to_nr_arfcn(-1.0), None);
        assert_eq!(freq_hz_to_nr_arfcn(150e9), None);
    }

    #[test]
    fn band_properties() {
        assert!(NrBand::N257.is_fr2());
        assert!(!NrBand::N78.is_fr2());
        assert!(NrBand::N78.contains(3_500e6));
        assert!(!NrBand::N78.contains(4_000e6));
        assert!(NrBand::N77.contains(4_000e6));
        assert_eq!(NrBand::N41.scs_hz(), 30_000.0);
        assert_eq!(NrBand::N260.scs_hz(), 120_000.0);
    }

    #[test]
    fn extension_cells_on_their_bands() {
        let origin = LatLon::surface(37.8716, -122.2727);
        for c in nr_extension_cells(&origin) {
            assert!(
                c.band.contains(c.dl_freq_hz()),
                "{} at {} Hz outside {:?}",
                c.name,
                c.dl_freq_hz(),
                c.band
            );
        }
    }

    /// The A6 story: FR1 NR cells behave like their LTE neighbors, while
    /// the 28 GHz cell is measurable only from the unobstructed rooftop —
    /// indoors the mmWave link is stone dead.
    #[test]
    fn mmwave_requires_line_of_sight() {
        let scanner = CellScanner::default();
        let roof = Scenario::build(ScenarioKind::Rooftop);
        let indoor = Scenario::build(ScenarioKind::Indoor);
        let cells = nr_extension_cells(&roof.world.origin);
        let mm = cells.iter().find(|c| c.band.is_fr2()).unwrap();

        let roof_m = scanner.measure_nr(&roof.world, &roof.site, mm, 5);
        let indoor_m = scanner.measure_nr(&indoor.world, &indoor.site, mm, 5);
        assert!(
            roof_m.rsrp_dbm.is_some(),
            "rooftop must sync to the mmWave cell: {roof_m:?}"
        );
        assert!(
            indoor_m.rsrp_dbm.is_none(),
            "indoor mmWave must be dead: {indoor_m:?}"
        );
    }

    #[test]
    fn n71_penetrates_like_lte_b71() {
        let scanner = CellScanner::default();
        let indoor = Scenario::build(ScenarioKind::Indoor);
        let cells = nr_extension_cells(&indoor.world.origin);
        let low = cells.iter().find(|c| c.band == NrBand::N71).unwrap();
        let m = scanner.measure_nr(&indoor.world, &indoor.site, low, 6);
        assert!(m.rsrp_dbm.is_some(), "600 MHz NR should survive indoors");
    }
}
