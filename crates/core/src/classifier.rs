//! Indoor/outdoor classification from combined evidence (§3.2).
//!
//! "Combining the results from multiple experiments, including ADS-B,
//! cellular networks, and broadcast TV, can provide additional insights
//! such as determining whether an installation is indoor or outdoor."
//!
//! Features are exactly the paper's cues: long-range sky visibility (from
//! the ADS-B survey) and high-frequency attenuation (from the cellular/TV
//! profile). A small logistic model combines them; the default weights are
//! hand-set from the physics, and [`IndoorOutdoorClassifier::train`] can
//! refit them from labeled scenarios.

use crate::fov::FovEstimate;
use crate::freqprofile::FrequencyProfile;
use crate::survey::SurveyResult;
use serde::{Deserialize, Serialize};

/// The classifier's input features.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstallFeatures {
    /// Fraction of the circle with long-range ADS-B visibility, 0–1.
    pub sky_open_fraction: f64,
    /// Farthest observed aircraft, normalized by 100 km, 0–1+.
    pub max_range_norm: f64,
    /// Mean excess attenuation above 1.5 GHz, dB (blind bands = 40 dB).
    pub midband_attenuation_db: f64,
    /// Fraction of bands with any measurement, 0–1.
    pub band_usable_fraction: f64,
    /// Median RSSI deficit (expected-LOS minus measured, dB) of ADS-B
    /// receptions *inside the estimated field of view*. Even through its
    /// best aperture, an indoor sensor pays glass/wall loss; an outdoor
    /// sensor in a street canyon measures its open sector at full strength.
    /// 30 dB (the maximum) when nothing in the FoV was observed.
    pub fov_rssi_deficit_db: f64,
}

impl InstallFeatures {
    /// Extract features from survey + FoV + frequency profile.
    pub fn extract(survey: &SurveyResult, fov: &FovEstimate, profile: &FrequencyProfile) -> Self {
        Self {
            sky_open_fraction: fov.open_fraction(),
            max_range_norm: (survey.max_observed_range_m() / 100_000.0).min(1.2),
            midband_attenuation_db: profile.mean_attenuation_above(1.5e9, 40.0),
            band_usable_fraction: profile.usable_fraction(),
            fov_rssi_deficit_db: fov_rssi_deficit(survey, fov),
        }
    }

    fn vector(&self) -> [f64; 6] {
        [
            1.0,
            self.sky_open_fraction,
            self.max_range_norm,
            self.midband_attenuation_db / 40.0, // normalize to ~0–1
            self.band_usable_fraction,
            (self.fov_rssi_deficit_db / 30.0).clamp(0.0, 1.5),
        ]
    }
}

/// Median (expected-LOS − measured) RSSI over observed in-FoV aircraft.
///
/// Expectation: median transponder EIRP (~53 dBm) + whip gain (2 dBi) −
/// FSPL over the slant range, converted to dBFS against the survey front
/// end's −30 dBm full scale. Transmit-power spread (75–500 W) adds ±4 dB
/// of noise that the median absorbs.
fn fov_rssi_deficit(survey: &SurveyResult, fov: &FovEstimate) -> f64 {
    let n_ring = fov.open_ring.len();
    let mut deficits: Vec<f64> = survey
        .points
        .iter()
        .filter(|p| p.observed && n_ring > 0)
        .filter(|p| {
            let idx = ((p.bearing_deg / 360.0 * n_ring as f64) as usize).min(n_ring - 1);
            fov.open_ring[idx]
        })
        .filter_map(|p| {
            let rssi = p.mean_rssi_dbfs?;
            let slant = (p.range_m.powi(2) + p.altitude_m.powi(2)).sqrt();
            let fspl = aircal_rfprop::free_space_path_loss_db(slant, 1.09e9);
            let expected_dbfs = 53.0 + 2.0 - fspl + 30.0;
            Some((expected_dbfs - rssi).clamp(-10.0, 60.0))
        })
        .collect();
    if deficits.is_empty() {
        return 30.0;
    }
    deficits.sort_by(|a, b| a.partial_cmp(b).unwrap());
    deficits[deficits.len() / 2]
}

/// The classification verdict.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstallVerdict {
    /// `true` = outdoor installation.
    pub outdoor: bool,
    /// Model probability of "outdoor", 0–1.
    pub probability_outdoor: f64,
}

/// Logistic indoor/outdoor classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndoorOutdoorClassifier {
    /// Weights over [bias, sky, range, midband-attenuation, usable,
    /// in-FoV RSSI deficit].
    pub weights: [f64; 6],
}

impl Default for IndoorOutdoorClassifier {
    /// Physics-derived default: openness, range and a clean in-FoV RSSI
    /// argue outdoor; mid-band attenuation and aperture loss argue indoor.
    fn default() -> Self {
        Self {
            weights: [-1.0, 2.0, 4.5, -5.0, 1.0, -3.0],
        }
    }
}

impl IndoorOutdoorClassifier {
    /// Classify an installation.
    pub fn classify(&self, f: &InstallFeatures) -> InstallVerdict {
        let z: f64 = self
            .weights
            .iter()
            .zip(f.vector())
            .map(|(w, x)| w * x)
            .sum();
        let p = 1.0 / (1.0 + (-z).exp());
        InstallVerdict {
            outdoor: p >= 0.5,
            probability_outdoor: p,
        }
    }

    /// Fit weights on labeled samples (label `true` = outdoor) by
    /// full-batch gradient descent on the logistic loss. Deterministic.
    pub fn train(samples: &[(InstallFeatures, bool)], epochs: usize) -> Self {
        let mut model = Self::default();
        if samples.is_empty() {
            return model;
        }
        let lr = 0.8;
        let lambda = 1e-3;
        for _ in 0..epochs.max(1) {
            let mut grad = [0.0f64; 6];
            for (f, label) in samples {
                let x = f.vector();
                let z: f64 = model.weights.iter().zip(x).map(|(w, xi)| w * xi).sum();
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - if *label { 1.0 } else { 0.0 };
                for (g, xi) in grad.iter_mut().zip(x) {
                    *g += err * xi;
                }
            }
            for (w, g) in model.weights.iter_mut().zip(grad) {
                *w -= lr * (g / samples.len() as f64 + lambda * *w);
            }
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outdoor_features() -> InstallFeatures {
        InstallFeatures {
            sky_open_fraction: 0.9,
            max_range_norm: 0.95,
            midband_attenuation_db: 2.0,
            band_usable_fraction: 1.0,
            fov_rssi_deficit_db: 2.0,
        }
    }

    fn indoor_features() -> InstallFeatures {
        InstallFeatures {
            sky_open_fraction: 0.0,
            max_range_norm: 0.15,
            midband_attenuation_db: 35.0,
            band_usable_fraction: 0.5,
            fov_rssi_deficit_db: 30.0,
        }
    }

    #[test]
    fn default_model_separates_clear_cases() {
        let c = IndoorOutdoorClassifier::default();
        let out = c.classify(&outdoor_features());
        let ind = c.classify(&indoor_features());
        assert!(out.outdoor && out.probability_outdoor > 0.8);
        assert!(!ind.outdoor && ind.probability_outdoor < 0.2);
    }

    #[test]
    fn window_site_leans_indoor() {
        // Narrow aperture, moderate attenuation — the paper's location ②.
        let c = IndoorOutdoorClassifier::default();
        let f = InstallFeatures {
            sky_open_fraction: 0.1,
            max_range_norm: 0.8,
            midband_attenuation_db: 25.0,
            band_usable_fraction: 0.7,
            fov_rssi_deficit_db: 8.0,
        };
        let v = c.classify(&f);
        assert!(!v.outdoor, "p_outdoor {}", v.probability_outdoor);
    }

    #[test]
    fn training_recovers_separation() {
        // Train on noisy variants of the two prototypes.
        let mut samples = Vec::new();
        for i in 0..20 {
            let jitter = i as f64 * 0.01;
            let mut o = outdoor_features();
            o.sky_open_fraction -= jitter;
            o.midband_attenuation_db += jitter * 10.0;
            samples.push((o, true));
            let mut ind = indoor_features();
            ind.sky_open_fraction += jitter;
            ind.midband_attenuation_db -= jitter * 10.0;
            samples.push((ind, false));
        }
        let model = IndoorOutdoorClassifier::train(&samples, 500);
        for (f, label) in &samples {
            assert_eq!(model.classify(f).outdoor, *label, "{f:?}");
        }
    }

    #[test]
    fn train_on_empty_returns_default() {
        let m = IndoorOutdoorClassifier::train(&[], 100);
        assert_eq!(m.weights, IndoorOutdoorClassifier::default().weights);
    }

    #[test]
    fn probability_is_monotone_in_attenuation() {
        let c = IndoorOutdoorClassifier::default();
        let mut f = outdoor_features();
        let mut prev = c.classify(&f).probability_outdoor;
        for atten in [10.0, 20.0, 30.0, 40.0] {
            f.midband_attenuation_db = atten;
            let p = c.classify(&f).probability_outdoor;
            assert!(p < prev, "attenuation {atten}: {p} !< {prev}");
            prev = p;
        }
    }
}
