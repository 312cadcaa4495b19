//! Field-of-view estimation from survey points.
//!
//! §5: "use model-based or ML-based techniques to calibrate a sensor given
//! the observed and ground-truth airplane locations. An example of such
//! techniques is using algorithms, such as k-nearest neighbors (KNN) or a
//! support vector machine (SVM), to estimate the true sensor field of
//! view." All three families are implemented here, plus the simple
//! sector-histogram baseline, so the ablation bench can compare them.

use crate::survey::SurveyPoint;
use aircal_geo::Sector;
use serde::{Deserialize, Serialize};

/// Which estimator to run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FovMethod {
    /// Per-bearing-bin maximum observed range, thresholded.
    SectorHistogram {
        /// Bin width, degrees.
        bin_width_deg: f64,
        /// An observation beyond this range marks the bin open, meters.
        range_threshold_m: f64,
    },
    /// k-nearest-neighbors vote in the sensor-centered plane.
    Knn {
        /// Number of neighbors.
        k: usize,
        /// Range at which openness is probed, meters.
        probe_range_m: f64,
    },
    /// Linear SVM (hinge loss, SGD) over harmonic bearing features.
    Svm {
        /// SGD epochs.
        epochs: usize,
        /// Range at which openness is probed, meters.
        probe_range_m: f64,
    },
    /// Logistic regression (log loss, SGD) over the same features.
    Logistic {
        /// SGD epochs.
        epochs: usize,
        /// Range at which openness is probed, meters.
        probe_range_m: f64,
    },
}

impl FovMethod {
    /// The paper-procedure default: 15° histogram bins, 40 km threshold.
    pub fn default_histogram() -> Self {
        FovMethod::SectorHistogram {
            bin_width_deg: 15.0,
            range_threshold_m: 40_000.0,
        }
    }

    /// Sensible KNN defaults.
    pub fn default_knn() -> Self {
        FovMethod::Knn {
            k: 5,
            probe_range_m: 50_000.0,
        }
    }

    /// Sensible SVM defaults.
    pub fn default_svm() -> Self {
        FovMethod::Svm {
            epochs: 200,
            probe_range_m: 50_000.0,
        }
    }

    /// Sensible logistic-regression defaults.
    pub fn default_logistic() -> Self {
        FovMethod::Logistic {
            epochs: 200,
            probe_range_m: 50_000.0,
        }
    }

    /// Short name for reports/benches.
    pub fn name(&self) -> &'static str {
        match self {
            FovMethod::SectorHistogram { .. } => "sector-histogram",
            FovMethod::Knn { .. } => "knn",
            FovMethod::Svm { .. } => "svm",
            FovMethod::Logistic { .. } => "logistic",
        }
    }
}

/// The estimation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FovEstimate {
    /// The single widest open sector (width 0 when nothing long-range was
    /// observed).
    pub estimated: Sector,
    /// Openness ring sampled at 5° steps (72 entries), for plotting and
    /// multi-sector sites.
    pub open_ring: Vec<bool>,
    /// Method used.
    pub method_name: String,
}

impl FovEstimate {
    /// Fraction of the circle estimated open.
    pub fn open_fraction(&self) -> f64 {
        if self.open_ring.is_empty() {
            return 0.0;
        }
        self.open_ring.iter().filter(|&&b| b).count() as f64 / self.open_ring.len() as f64
    }

    /// Intersection-over-union against a ground-truth sector.
    pub fn iou(&self, truth: &Sector) -> f64 {
        self.estimated.iou(truth)
    }
}

/// The estimator front door.
#[derive(Debug, Clone)]
pub struct FovEstimator {
    /// Method configuration.
    pub method: FovMethod,
}

impl Default for FovEstimator {
    fn default() -> Self {
        Self {
            method: FovMethod::default_histogram(),
        }
    }
}

const RING_STEPS: usize = 72; // 5° resolution

impl FovEstimator {
    /// Create an estimator.
    pub fn new(method: FovMethod) -> Self {
        Self { method }
    }

    /// Estimate the field of view from survey points.
    pub fn estimate(&self, points: &[SurveyPoint]) -> FovEstimate {
        let open_ring = match self.method {
            FovMethod::SectorHistogram {
                bin_width_deg,
                range_threshold_m,
            } => histogram_ring(points, bin_width_deg, range_threshold_m),
            FovMethod::Knn { k, probe_range_m } => knn_ring(points, k, probe_range_m),
            FovMethod::Svm {
                epochs,
                probe_range_m,
            } => model_ring(points, epochs, probe_range_m, Loss::Hinge),
            FovMethod::Logistic {
                epochs,
                probe_range_m,
            } => model_ring(points, epochs, probe_range_m, Loss::Logistic),
        };
        FovEstimate {
            estimated: widest_open_sector(&open_ring),
            open_ring,
            method_name: self.method.name().to_string(),
        }
    }
}

/// Histogram baseline: openness per bin from long-range detections.
///
/// A bin opens when it holds "enough" observations beyond the range
/// threshold. With sparse data (one 30 s survey) a single detection is
/// all the evidence there is; with pooled repeated surveys, requiring a
/// detection *rate* keeps one lucky deep-shadow decode from opening a
/// blocked bin. The count floor scales as ⌈opportunities/6⌉.
fn histogram_ring(points: &[SurveyPoint], bin_width_deg: f64, threshold_m: f64) -> Vec<bool> {
    let bin_width = bin_width_deg.clamp(1.0, 120.0);
    let n_bins = (360.0 / bin_width).ceil() as usize;
    let mut observed_beyond = vec![0usize; n_bins];
    let mut opportunities_beyond = vec![0usize; n_bins];
    for p in points.iter().filter(|p| p.range_m >= threshold_m) {
        let bin = ((p.bearing_deg / bin_width) as usize).min(n_bins - 1);
        opportunities_beyond[bin] += 1;
        if p.observed {
            observed_beyond[bin] += 1;
        }
    }
    // Tri-state per bin: Some(open?) where aircraft were available, None
    // where the sky never offered a long-range test. The paper calls this
    // out explicitly: "not receiving any messages from a direction does
    // not necessarily indicate blockage. It could be the case that there
    // were no aircraft in that direction" — which is why the ground truth
    // exists. Unknown bins inherit openness only when the nearest
    // informative bins on *both* sides are open.
    let verdicts: Vec<Option<bool>> = (0..n_bins)
        .map(|bin| {
            if opportunities_beyond[bin] == 0 {
                return None;
            }
            let need = (opportunities_beyond[bin] as f64 / 6.0).ceil().max(1.0) as usize;
            Some(observed_beyond[bin] >= need)
        })
        .collect();
    let resolve = |bin: usize| -> bool {
        if let Some(v) = verdicts[bin] {
            return v;
        }
        let max_hops = n_bins / 4;
        let mut cw = None;
        let mut ccw = None;
        for hop in 1..=max_hops {
            if cw.is_none() {
                cw = verdicts[(bin + hop) % n_bins];
            }
            if ccw.is_none() {
                ccw = verdicts[(bin + n_bins - hop % n_bins) % n_bins];
            }
        }
        cw.unwrap_or(false) && ccw.unwrap_or(false)
    };
    (0..RING_STEPS)
        .map(|i| {
            let bearing = i as f64 * 360.0 / RING_STEPS as f64;
            let bin = ((bearing / bin_width) as usize).min(n_bins - 1);
            resolve(bin)
        })
        .collect()
}

/// KNN in the sensor-centered plane (km units so angle and range trade off
/// on a natural scale).
fn knn_ring(points: &[SurveyPoint], k: usize, probe_range_m: f64) -> Vec<bool> {
    if points.is_empty() {
        return vec![false; RING_STEPS];
    }
    let k = k.max(1).min(points.len());
    let xy: Vec<(f64, f64, bool)> = points
        .iter()
        .map(|p| {
            let r = p.bearing_deg.to_radians();
            (
                p.range_m / 1_000.0 * r.sin(),
                p.range_m / 1_000.0 * r.cos(),
                p.observed,
            )
        })
        .collect();
    (0..RING_STEPS)
        .map(|i| {
            let bearing = (i as f64 * 360.0 / RING_STEPS as f64).to_radians();
            let qx = probe_range_m / 1_000.0 * bearing.sin();
            let qy = probe_range_m / 1_000.0 * bearing.cos();
            let mut dists: Vec<(f64, bool)> = xy
                .iter()
                .map(|&(x, y, obs)| ((x - qx).powi(2) + (y - qy).powi(2), obs))
                .collect();
            dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let votes = dists[..k].iter().filter(|&&(_, obs)| obs).count();
            votes * 2 > k
        })
        .collect()
}

enum Loss {
    Hinge,
    Logistic,
}

/// Harmonic feature map: bearing harmonics × range interaction.
fn features(bearing_deg: f64, range_m: f64) -> [f64; 8] {
    let b = bearing_deg.to_radians();
    let r = (range_m / 100_000.0).min(1.5); // normalized to the survey disc
    [
        1.0,
        b.cos(),
        b.sin(),
        (2.0 * b).cos(),
        (2.0 * b).sin(),
        r,
        r * b.cos(),
        r * b.sin(),
    ]
}

/// Train a linear model by SGD and probe the ring at `probe_range_m`.
fn model_ring(points: &[SurveyPoint], epochs: usize, probe_range_m: f64, loss: Loss) -> Vec<bool> {
    if points.is_empty() {
        return vec![false; RING_STEPS];
    }
    let data: Vec<([f64; 8], f64)> = points
        .iter()
        .map(|p| {
            (
                features(p.bearing_deg, p.range_m),
                if p.observed { 1.0 } else { -1.0 },
            )
        })
        .collect();
    let mut w = [0.0f64; 8];
    let lambda = 1e-3;
    for epoch in 0..epochs.max(1) {
        let lr = 0.5 / (1.0 + epoch as f64 * 0.05);
        // Fixed visiting order keeps training deterministic; the harmonic
        // features make order effects negligible.
        for (x, y) in &data {
            let margin: f64 = w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() * y;
            let g_scale = match loss {
                Loss::Hinge => {
                    if margin < 1.0 {
                        *y
                    } else {
                        0.0
                    }
                }
                Loss::Logistic => y / (1.0 + margin.exp()),
            };
            for (wi, xi) in w.iter_mut().zip(x) {
                *wi = *wi * (1.0 - lr * lambda) + lr * g_scale * xi;
            }
        }
    }
    (0..RING_STEPS)
        .map(|i| {
            let bearing = i as f64 * 360.0 / RING_STEPS as f64;
            let x = features(bearing, probe_range_m);
            w.iter().zip(&x).map(|(wi, xi)| wi * xi).sum::<f64>() > 0.0
        })
        .collect()
}

/// The widest wrap-aware run of `true` in the ring, as a sector.
fn widest_open_sector(ring: &[bool]) -> Sector {
    let n = ring.len();
    if n == 0 || ring.iter().all(|&b| !b) {
        return Sector::new(0.0, 0.0);
    }
    if ring.iter().all(|&b| b) {
        return Sector::full();
    }
    let step = 360.0 / n as f64;
    let (mut best_start, mut best_len) = (0usize, 0usize);
    let (mut cur_start, mut cur_len) = (0usize, 0usize);
    // Scan twice around to handle wrap; cap runs at n.
    for i in 0..2 * n {
        if ring[i % n] {
            if cur_len == 0 {
                cur_start = i;
            }
            cur_len += 1;
            if cur_len > best_len {
                best_len = cur_len;
                best_start = cur_start;
            }
        } else {
            cur_len = 0;
        }
    }
    let best_len = best_len.min(n);
    Sector::new((best_start % n) as f64 * step, best_len as f64 * step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_adsb::IcaoAddress;

    /// Synthetic survey: observed iff inside `open` and within `max_range`,
    /// or very close (< 15 km) regardless — the paper's reception pattern.
    fn synthetic_points(open: &Sector, max_range_m: f64, n: usize) -> Vec<SurveyPoint> {
        (0..n)
            .map(|i| {
                let bearing = (i as f64 * 360.0 / n as f64) % 360.0;
                let range = 5_000.0 + (i as f64 * 7_919.0) % 95_000.0;
                let observed = (open.contains(bearing) && range <= max_range_m) || range < 15_000.0;
                SurveyPoint {
                    icao: IcaoAddress::new(i as u32 + 1),
                    callsign: format!("SYN{i:03}"),
                    bearing_deg: bearing,
                    range_m: range,
                    altitude_m: 9_000.0,
                    observed,
                    messages: usize::from(observed) * 10,
                    mean_rssi_dbfs: observed.then_some(-30.0),
                }
            })
            .collect()
    }

    #[test]
    fn histogram_recovers_west_sector() {
        let truth = Sector::centered(270.0, 120.0);
        let points = synthetic_points(&truth, 95_000.0, 400);
        let est = FovEstimator::default().estimate(&points);
        assert!(est.iou(&truth) > 0.7, "IoU {}", est.iou(&truth));
    }

    #[test]
    fn all_methods_beat_chance_on_sector_world() {
        let truth = Sector::centered(135.0, 90.0);
        let points = synthetic_points(&truth, 90_000.0, 400);
        for method in [
            FovMethod::default_histogram(),
            FovMethod::default_knn(),
            FovMethod::default_svm(),
            FovMethod::default_logistic(),
        ] {
            let est = FovEstimator::new(method).estimate(&points);
            assert!(
                est.iou(&truth) > 0.5,
                "{} IoU only {}",
                method.name(),
                est.iou(&truth)
            );
        }
    }

    #[test]
    fn blocked_everywhere_yields_empty_sector() {
        let truth = Sector::new(0.0, 0.0);
        let points = synthetic_points(&truth, 0.0, 300);
        let est = FovEstimator::default().estimate(&points);
        assert_eq!(est.estimated.width_deg, 0.0);
        assert!(est.open_fraction() < 0.1);
    }

    #[test]
    fn open_everywhere_yields_full_circle() {
        let truth = Sector::full();
        let points = synthetic_points(&truth, 100_000.0, 300);
        let est = FovEstimator::default().estimate(&points);
        assert!(est.estimated.width_deg >= 355.0, "{:?}", est.estimated);
        assert!(est.open_fraction() > 0.95);
    }

    #[test]
    fn wrap_around_sector_recovered() {
        // Open sector straddling north: 330°–30°.
        let truth = Sector::new(330.0, 60.0);
        let points = synthetic_points(&truth, 90_000.0, 400);
        let est = FovEstimator::default().estimate(&points);
        assert!(est.iou(&truth) > 0.5, "IoU {}", est.iou(&truth));
        assert!(truth.contains(est.estimated.center_deg()));
    }

    #[test]
    fn empty_points_safe() {
        for method in [
            FovMethod::default_histogram(),
            FovMethod::default_knn(),
            FovMethod::default_svm(),
            FovMethod::default_logistic(),
        ] {
            let est = FovEstimator::new(method).estimate(&[]);
            assert_eq!(est.estimated.width_deg, 0.0, "{}", method.name());
        }
    }

    #[test]
    fn widest_sector_helper() {
        assert_eq!(widest_open_sector(&[]).width_deg, 0.0);
        let ring = vec![true, false, true, true];
        // 4 bins of 90°: the widest run is bins 2–3 wrapping into 0.
        let s = widest_open_sector(&ring);
        assert_eq!(s.start_deg, 180.0);
        assert_eq!(s.width_deg, 270.0);
    }

    #[test]
    fn close_in_multipath_does_not_fake_openness() {
        // Everything < 15 km observed everywhere (the paper's multipath
        // effect); the estimators must not call the whole circle open.
        let truth = Sector::centered(90.0, 60.0);
        let points = synthetic_points(&truth, 90_000.0, 500);
        let est = FovEstimator::default().estimate(&points);
        assert!(
            est.open_fraction() < 0.4,
            "multipath fooled the estimator: {}",
            est.open_fraction()
        );
    }
}
