//! Antenna gain patterns.
//!
//! The paper notes: "The antenna connected to the SDR may have directional
//! gains … Our intention is not to disentangle antenna pattern from
//! physical occlusions, but rather to determine where the combination of
//! the two allows reception." We model the common cases so the combination
//! is present in the simulation too.

use serde::{Deserialize, Serialize};

/// An antenna gain pattern: gain in dBi as a function of direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AntennaPattern {
    /// Uniform gain in all directions.
    Isotropic {
        /// Fixed gain in dBi.
        gain_dbi: f64,
    },
    /// Vertical whip/dipole: omnidirectional in azimuth, with an elevation
    /// null toward the zenith (cos² rolloff like an ideal half-wave dipole).
    VerticalDipole {
        /// Peak (horizon) gain in dBi; 2.15 for an ideal half-wave dipole.
        peak_gain_dbi: f64,
    },
    /// A sector/patch antenna pointed at an azimuth with a given beamwidth,
    /// Gaussian main-lobe rolloff and a front-to-back floor.
    Sector {
        /// Boresight azimuth, degrees.
        boresight_deg: f64,
        /// Half-power (−3 dB) beamwidth, degrees.
        beamwidth_deg: f64,
        /// Boresight gain, dBi.
        peak_gain_dbi: f64,
        /// Gain floor behind the antenna, dBi (e.g. peak − 25).
        back_gain_dbi: f64,
    },
}

impl AntennaPattern {
    /// The wideband discone-style antenna from the paper's setup (700–2700
    /// MHz wideband whip): modeled as a 2 dBi vertical dipole.
    pub fn paper_wideband_whip() -> Self {
        AntennaPattern::VerticalDipole { peak_gain_dbi: 2.0 }
    }

    /// Gain in dBi toward a direction given as (azimuth°, elevation°).
    pub fn gain_dbi(&self, azimuth_deg: f64, elevation_deg: f64) -> f64 {
        match *self {
            AntennaPattern::Isotropic { gain_dbi } => gain_dbi,
            AntennaPattern::VerticalDipole { peak_gain_dbi } => {
                // cos² elevation power rolloff: 0 dB at horizon, null at zenith.
                let el = elevation_deg.clamp(-90.0, 90.0).to_radians();
                let factor = el.cos().powi(2).max(1e-6);
                peak_gain_dbi + 10.0 * factor.log10()
            }
            AntennaPattern::Sector {
                boresight_deg,
                beamwidth_deg,
                peak_gain_dbi,
                back_gain_dbi,
            } => {
                let off = crate::antenna::angle_separation(azimuth_deg, boresight_deg);
                // Gaussian main lobe: −3 dB at ±beamwidth/2.
                let bw = beamwidth_deg.max(1.0);
                let rolloff = 3.0 * (2.0 * off / bw).powi(2);
                (peak_gain_dbi - rolloff).max(back_gain_dbi)
            }
        }
    }
}

/// Smallest absolute angular separation of two bearings (degrees).
///
/// (Duplicated from `aircal-geo` to keep this crate's antenna math
/// self-contained; the two are property-tested against each other in the
/// integration suite.)
fn angle_separation(a_deg: f64, b_deg: f64) -> f64 {
    let mut d = (a_deg - b_deg) % 360.0;
    if d > 180.0 {
        d -= 360.0;
    } else if d < -180.0 {
        d += 360.0;
    }
    d.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isotropic_is_uniform() {
        let a = AntennaPattern::Isotropic { gain_dbi: 3.0 };
        for az in [0.0, 90.0, 270.0] {
            for el in [-30.0, 0.0, 60.0] {
                assert_eq!(a.gain_dbi(az, el), 3.0);
            }
        }
    }

    #[test]
    fn dipole_horizon_peak_zenith_null() {
        let a = AntennaPattern::VerticalDipole {
            peak_gain_dbi: 2.15,
        };
        assert!((a.gain_dbi(123.0, 0.0) - 2.15).abs() < 1e-9);
        assert!(a.gain_dbi(0.0, 90.0) < -40.0, "zenith should be a null");
        // Azimuth-independent.
        assert_eq!(a.gain_dbi(10.0, 30.0), a.gain_dbi(250.0, 30.0));
    }

    #[test]
    fn dipole_rolloff_monotone_in_elevation() {
        let a = AntennaPattern::VerticalDipole { peak_gain_dbi: 2.0 };
        let mut prev = a.gain_dbi(0.0, 0.0);
        for el in (1..=9).map(|i| i as f64 * 10.0) {
            let g = a.gain_dbi(0.0, el);
            assert!(g <= prev + 1e-9, "elevation {el}");
            prev = g;
        }
    }

    #[test]
    fn sector_boresight_and_back() {
        let a = AntennaPattern::Sector {
            boresight_deg: 90.0,
            beamwidth_deg: 60.0,
            peak_gain_dbi: 14.0,
            back_gain_dbi: -11.0,
        };
        assert!((a.gain_dbi(90.0, 0.0) - 14.0).abs() < 1e-9);
        // −3 dB at the half-power points.
        assert!((a.gain_dbi(120.0, 0.0) - 11.0).abs() < 1e-9);
        assert!((a.gain_dbi(60.0, 0.0) - 11.0).abs() < 1e-9);
        // Behind: clipped at the back floor.
        assert_eq!(a.gain_dbi(270.0, 0.0), -11.0);
    }

    #[test]
    fn sector_wraps_azimuth() {
        let a = AntennaPattern::Sector {
            boresight_deg: 5.0,
            beamwidth_deg: 40.0,
            peak_gain_dbi: 10.0,
            back_gain_dbi: -15.0,
        };
        // 350° is 15° off boresight, same as 20°.
        assert!((a.gain_dbi(350.0, 0.0) - a.gain_dbi(20.0, 0.0)).abs() < 1e-9);
    }
}
