//! Byzantine-robust fusion of overlapping frequency profiles.
//!
//! A crowd-sourced fleet contains sensors that *lie*, not just links that
//! drop: gain-inflated band powers, frozen front ends, slow calibration
//! poisoning. Per-node intake trusts each report in isolation; this module
//! fuses the overlapping reports of many nodes with estimators that a
//! strict minority of corrupted sensors (`f < n/2`) cannot steer —
//! coordinate-wise median and trimmed mean — and scores each node by its
//! residual against the fused consensus.
//!
//! All estimators are NaN-proof: non-finite samples are dropped before
//! aggregation, so a single `f64::NAN` band-power sample cannot poison a
//! fleet report.

use crate::freqprofile::{FrequencyProfile, SourceKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which robust estimator fuses overlapping band measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FusionRule {
    /// Coordinate-wise median: tolerates any corrupted strict minority.
    Median,
    /// Mean after trimming `trim_frac` of samples from each tail.
    TrimmedMean {
        /// Fraction trimmed from *each* tail, in `[0, 0.5)`.
        trim_frac: f64,
    },
}

/// Median of the finite samples in `xs` (`None` if there are none).
///
/// Non-finite values (NaN, ±∞) are dropped, never propagated; ties use
/// the even-count midpoint. Sorting uses `total_cmp`, so this never
/// panics on exotic floats.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// Mean of the finite samples in `xs` after trimming `trim_frac` of the
/// samples from each tail (`None` if there are no finite samples).
///
/// `trim_frac` is clamped to `[0, 0.5)`; if trimming would consume every
/// sample the median is returned instead.
pub fn trimmed_mean(xs: &[f64], trim_frac: f64) -> Option<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let frac = if trim_frac.is_finite() {
        trim_frac.clamp(0.0, 0.499)
    } else {
        0.0
    };
    let k = (v.len() as f64 * frac).floor() as usize;
    if 2 * k >= v.len() {
        return median(&v);
    }
    let kept = &v[k..v.len() - k];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// One fused band: the consensus value across contributing nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusedBand {
    /// Source label ("Tower 2", "KSE-22 (521 MHz)").
    pub label: String,
    /// Carrier/center frequency, Hz.
    pub freq_hz: f64,
    /// Source type.
    pub source: SourceKind,
    /// Robustly fused measured value (`None` if no node measured it).
    pub fused_db: Option<f64>,
    /// Nodes that contributed a finite measurement.
    pub contributors: usize,
    /// Max − min across finite contributions (0 with < 2 contributors).
    pub spread_db: f64,
}

/// Coordinate-wise robust fusion of a fleet's frequency profiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusedProfile {
    /// Fused bands, sorted by frequency then label.
    pub bands: Vec<FusedBand>,
    /// Estimator used.
    pub rule: FusionRule,
    /// Number of input profiles.
    pub nodes: usize,
}

impl FusedProfile {
    /// Fused value for a (label, source) coordinate, if any node measured it.
    pub fn fused_for(&self, label: &str, source: SourceKind) -> Option<f64> {
        self.bands
            .iter()
            .find(|b| b.source == source && b.label == label)
            .and_then(|b| b.fused_db)
    }
}

fn source_tag(s: SourceKind) -> u8 {
    match s {
        SourceKind::Cellular => 0,
        SourceKind::BroadcastTv => 1,
    }
}

/// Fuse overlapping frequency profiles coordinate-wise (bands aligned by
/// `(source, label)`), applying `rule` to the finite measurements of each
/// band. Deterministic: output bands are sorted by frequency, then label.
pub fn fuse_profiles(profiles: &[&FrequencyProfile], rule: FusionRule) -> FusedProfile {
    // (source tag, label) -> (freq, samples). BTreeMap keeps alignment
    // deterministic regardless of input order.
    let mut coords: BTreeMap<(u8, String), (f64, SourceKind, Vec<f64>)> = BTreeMap::new();
    for p in profiles {
        for b in &p.bands {
            let entry = coords
                .entry((source_tag(b.source), b.label.clone()))
                .or_insert((b.freq_hz, b.source, Vec::new()));
            if let Some(m) = b.measured_db {
                if m.is_finite() {
                    entry.2.push(m);
                }
            }
        }
    }
    let mut bands: Vec<FusedBand> = coords
        .into_iter()
        .map(|((_, label), (freq_hz, source, samples))| {
            let fused_db = match rule {
                FusionRule::Median => median(&samples),
                FusionRule::TrimmedMean { trim_frac } => trimmed_mean(&samples, trim_frac),
            };
            let spread_db = if samples.len() >= 2 {
                let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            } else {
                0.0
            };
            FusedBand {
                label,
                freq_hz,
                source,
                fused_db,
                contributors: samples.len(),
                spread_db,
            }
        })
        .collect();
    bands.sort_by(|a, b| {
        a.freq_hz
            .total_cmp(&b.freq_hz)
            .then_with(|| a.label.cmp(&b.label))
    });
    FusedProfile {
        bands,
        rule,
        nodes: profiles.len(),
    }
}

/// Mean absolute deviation of a node's finite band measurements from the
/// fused consensus, dB, over the coordinates both sides measured
/// (`None` if there is no overlap).
pub fn residual_db(profile: &FrequencyProfile, fused: &FusedProfile) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for b in &profile.bands {
        let Some(m) = b.measured_db.filter(|m| m.is_finite()) else {
            continue;
        };
        if let Some(f) = fused.fused_for(&b.label, b.source) {
            sum += (m - f).abs();
            n += 1;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// Map a residual (dB) to a `[0, 1]` agreement score: 1 at zero residual,
/// 0.5 at `scale_db`, falling toward 0. Non-finite residuals score 0.
pub fn residual_score(residual_db: f64, scale_db: f64) -> f64 {
    if !residual_db.is_finite() || !scale_db.is_finite() || scale_db <= 0.0 {
        return 0.0;
    }
    (1.0 / (1.0 + residual_db.max(0.0) / scale_db)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freqprofile::BandMeasurement;

    fn profile_with(values: &[f64]) -> FrequencyProfile {
        FrequencyProfile {
            bands: values
                .iter()
                .enumerate()
                .map(|(i, &v)| BandMeasurement {
                    label: format!("b{i}"),
                    freq_hz: 1e9 + i as f64 * 1e8,
                    source: SourceKind::Cellular,
                    measured_db: Some(v),
                    expected_clear_db: -58.0,
                })
                .collect(),
            missing_sources: Vec::new(),
        }
    }

    #[test]
    fn median_basics() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 9.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }

    #[test]
    fn median_ignores_non_finite() {
        assert_eq!(median(&[f64::NAN, 5.0, f64::INFINITY]), Some(5.0));
        assert_eq!(median(&[f64::NAN, f64::NEG_INFINITY]), None);
    }

    #[test]
    fn trimmed_mean_discards_tails() {
        // 10 samples, trim 20% each side -> drops the 100s and the -100.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 100.0, -100.0];
        let tm = trimmed_mean(&xs, 0.2).unwrap();
        assert!((tm - 4.5).abs() < 1e-9, "got {tm}");
        // Degenerate trim falls back to the median.
        assert_eq!(trimmed_mean(&[1.0, 100.0], 0.5), Some(50.5));
        assert_eq!(trimmed_mean(&[], 0.2), None);
    }

    #[test]
    fn fusion_resists_minority_corruption() {
        let honest: Vec<FrequencyProfile> = (0..4)
            .map(|i| profile_with(&[-60.0 + i as f64; 5]))
            .collect();
        let liar = profile_with(&[40.0; 5]); // +100 dB gain inflation
        let mut all: Vec<&FrequencyProfile> = honest.iter().collect();
        all.push(&liar);
        let fused = fuse_profiles(&all, FusionRule::Median);
        for b in &fused.bands {
            let v = b.fused_db.unwrap();
            assert!(
                (-61.0..=-57.0).contains(&v),
                "median steered to {v} by one liar"
            );
            assert_eq!(b.contributors, 5);
        }
    }

    #[test]
    fn nan_band_cannot_poison_fusion() {
        let honest: Vec<FrequencyProfile> = (0..3).map(|_| profile_with(&[-60.0; 5])).collect();
        let mut poisoned = profile_with(&[-60.0; 5]);
        poisoned.bands[2].measured_db = Some(f64::NAN);
        let mut all: Vec<&FrequencyProfile> = honest.iter().collect();
        all.push(&poisoned);
        for rule in [
            FusionRule::Median,
            FusionRule::TrimmedMean { trim_frac: 0.25 },
        ] {
            let fused = fuse_profiles(&all, rule);
            for b in &fused.bands {
                let v = b.fused_db.unwrap();
                assert!(v.is_finite(), "NaN leaked through {rule:?}");
                assert!((v - -60.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn residual_flags_the_outlier() {
        let honest: Vec<FrequencyProfile> = (0..4)
            .map(|i| profile_with(&[-60.0 + 0.1 * i as f64; 5]))
            .collect();
        let liar = profile_with(&[-20.0; 5]);
        let mut all: Vec<&FrequencyProfile> = honest.iter().collect();
        all.push(&liar);
        let fused = fuse_profiles(&all, FusionRule::Median);
        let r_honest = residual_db(&honest[0], &fused).unwrap();
        let r_liar = residual_db(&liar, &fused).unwrap();
        assert!(r_honest < 1.0, "honest residual {r_honest}");
        assert!(r_liar > 30.0, "liar residual {r_liar}");
        assert!(residual_score(r_honest, 10.0) > 0.9);
        assert!(residual_score(r_liar, 10.0) < 0.25);
        assert_eq!(residual_score(f64::NAN, 10.0), 0.0);
    }

    #[test]
    fn fusion_deterministic_in_input_order() {
        let a = profile_with(&[-60.0, -61.0, -62.0]);
        let b = profile_with(&[-59.0, -60.5, -63.0]);
        let f1 = fuse_profiles(&[&a, &b], FusionRule::Median);
        let f2 = fuse_profiles(&[&b, &a], FusionRule::Median);
        assert_eq!(f1, f2);
    }
}
