//! Cell towers and the cellmapper-style database.

use crate::bands::Band;
use aircal_geo::LatLon;
use serde::{Deserialize, Serialize};

/// One cell site (one carrier on one tower).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTower {
    /// Display name ("Tower 1" … in the paper's Figure 2).
    pub name: String,
    /// Physical cell ID.
    pub pci: u16,
    /// Operating band.
    pub band: Band,
    /// Downlink EARFCN.
    pub earfcn: u32,
    /// Tower position; `alt_m` is the antenna center height above ground.
    pub position: LatLon,
    /// Total EIRP across the carrier, dBm.
    pub eirp_dbm: f64,
    /// Downlink channel bandwidth, Hz (10 MHz typical).
    pub bandwidth_hz: f64,
}

impl CellTower {
    /// Downlink carrier frequency, Hz.
    pub fn dl_freq_hz(&self) -> f64 {
        self.band
            .dl_freq_hz(self.earfcn)
            .expect("tower EARFCN must be valid for its band")
    }

    /// Reference-signal EIRP per resource element, dBm: total EIRP spread
    /// evenly over the carrier's resource elements (12 subcarriers × 50 RB
    /// for 10 MHz → 600 RE).
    pub fn rs_eirp_per_re_dbm(&self) -> f64 {
        let n_re = (self.bandwidth_hz / 15_000.0).max(1.0);
        self.eirp_dbm - 10.0 * n_re.log10()
    }
}

/// A queryable set of towers (what cellmapper gives you for a region).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TowerDatabase {
    towers: Vec<CellTower>,
}

impl TowerDatabase {
    /// Build from a tower list.
    pub fn new(towers: Vec<CellTower>) -> Self {
        Self { towers }
    }

    /// All towers.
    pub fn all(&self) -> &[CellTower] {
        &self.towers
    }

    /// Towers within a radius of a point.
    pub fn near(&self, center: &LatLon, radius_m: f64) -> Vec<&CellTower> {
        self.towers
            .iter()
            .filter(|t| center.distance_m(&t.position) <= radius_m)
            .collect()
    }

    /// Look up by name.
    pub fn by_name(&self, name: &str) -> Option<&CellTower> {
        self.towers.iter().find(|t| t.name == name)
    }
}

/// The paper's Figure 2 testbed: five towers, 500–1000 m from the site,
/// with downlink carriers at 731 / 1970 / 2145 / 2660 / 2680 MHz.
///
/// Figure 2 is a map; exact bearings are not published. We place towers
/// 1–3 in the west-southwest (visible from the rooftop's open sector and
/// through the window site's walls) and towers 4–5 behind the rooftop
/// penthouse / the window site's flanking neighbors, which reproduces the
/// paper's reception pattern (rooftop: all 5; window: 1–3; indoor: 1).
/// The substitution is recorded in EXPERIMENTS.md.
pub fn paper_towers(origin: &LatLon) -> TowerDatabase {
    let tower = |name: &str, pci, band: Band, freq_mhz: f64, bearing, dist, eirp| {
        let mut pos = origin.destination(bearing, dist);
        pos.alt_m = 30.0;
        CellTower {
            name: name.to_string(),
            pci,
            band,
            earfcn: band
                .earfcn_for_freq(freq_mhz * 1e6)
                .expect("paper frequency on raster"),
            position: pos,
            eirp_dbm: eirp,
            bandwidth_hz: 10e6,
        }
    };
    TowerDatabase::new(vec![
        tower("Tower 1", 101, Band::B12, 731.0, 250.0, 700.0, 62.0),
        tower("Tower 2", 202, Band::B2, 1970.0, 290.0, 550.0, 62.0),
        tower("Tower 3", 303, Band::B4, 2145.0, 310.0, 850.0, 62.0),
        tower("Tower 4", 404, Band::B7, 2660.0, 200.0, 950.0, 62.0),
        tower("Tower 5", 505, Band::B7, 2680.0, 50.0, 600.0, 62.0),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> LatLon {
        LatLon::surface(37.8716, -122.2727)
    }

    #[test]
    fn paper_towers_match_figure_parameters() {
        let db = paper_towers(&origin());
        assert_eq!(db.all().len(), 5);
        let freqs: Vec<f64> = db.all().iter().map(|t| t.dl_freq_hz() / 1e6).collect();
        assert_eq!(freqs, vec![731.0, 1970.0, 2145.0, 2660.0, 2680.0]);
        for t in db.all() {
            let d = origin().distance_m(&t.position);
            assert!(
                (500.0..=1_000.0).contains(&d),
                "{} at {d} m (paper: 500–1000 m)",
                t.name
            );
        }
    }

    #[test]
    fn rs_power_per_re() {
        let db = paper_towers(&origin());
        let t = db.by_name("Tower 1").unwrap();
        // 62 dBm over ~667 RE (10 MHz / 15 kHz) ≈ 62 − 28.2.
        assert!((t.rs_eirp_per_re_dbm() - (62.0 - 28.24)).abs() < 0.1);
    }

    #[test]
    fn near_and_band_queries() {
        let db = paper_towers(&origin());
        assert_eq!(db.near(&origin(), 650.0).len(), 2); // towers 2 and 5
        assert!(db.by_name("Tower 3").is_some());
        assert!(db.by_name("Tower 9").is_none());
    }

    #[test]
    fn tower_heights_set() {
        let db = paper_towers(&origin());
        for t in db.all() {
            assert_eq!(t.position.alt_m, 30.0);
        }
    }
}
