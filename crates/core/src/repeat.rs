//! Repeated surveys and estimate stability.
//!
//! §3.1: "We repeated these experiments over 10 times at these locations,
//! obtaining similar results." This module is that methodology as code:
//! run the survey N times against *fresh* traffic (different flights, as
//! at different times of day), pool the evidence, and quantify how stable
//! the field-of-view estimate is across runs.

use crate::fov::{FovEstimate, FovEstimator};
use crate::survey::{run_survey, SurveyConfig, SurveyPoint, SurveyResult};
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_env::{SensorSite, World};
use serde::{Deserialize, Serialize};

/// The outcome of N independent surveys of one site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepeatedSurvey {
    /// Individual runs, in execution order.
    pub runs: Vec<SurveyResult>,
}

/// Stability statistics across the runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StabilityReport {
    /// FoV estimate from each individual run.
    pub per_run: Vec<FovEstimate>,
    /// FoV estimate from all runs' points pooled together.
    pub pooled: FovEstimate,
    /// Mean pairwise IoU between the per-run estimated sectors ("similar
    /// results" ⇔ close to 1).
    pub mean_pairwise_iou: f64,
}

/// Run `n` surveys with fresh traffic per run.
pub fn run_repeated(
    world: &World,
    site: &SensorSite,
    config: &SurveyConfig,
    traffic_count: usize,
    n: usize,
    base_seed: u64,
) -> RepeatedSurvey {
    let runs = (0..n)
        .map(|k| {
            let seed = base_seed.wrapping_add(k as u64 * 0x9E3779B9);
            let traffic = TrafficSim::generate(
                TrafficConfig {
                    count: traffic_count,
                    ..TrafficConfig::paper_default(site.position)
                },
                seed,
            );
            run_survey(world, site, &traffic, config, seed)
        })
        .collect();
    RepeatedSurvey { runs }
}

impl RepeatedSurvey {
    /// All points from all runs, concatenated (each run's aircraft are
    /// distinct individuals, so pooling is sound).
    pub fn pooled_points(&self) -> Vec<SurveyPoint> {
        self.runs.iter().flat_map(|r| r.points.clone()).collect()
    }

    /// Total aircraft observed / total aircraft seen by the ground truth.
    pub fn overall_observation_rate(&self) -> f64 {
        let total: usize = self.runs.iter().map(|r| r.points.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let observed: usize = self
            .runs
            .iter()
            .map(|r| r.points.iter().filter(|p| p.observed).count())
            .sum();
        observed as f64 / total as f64
    }

    /// Estimate FoV per run and pooled; report cross-run stability.
    pub fn stability(&self, estimator: &FovEstimator) -> StabilityReport {
        let per_run: Vec<FovEstimate> = self
            .runs
            .iter()
            .map(|r| estimator.estimate(&r.points))
            .collect();
        let pooled = estimator.estimate(&self.pooled_points());
        let mut iou_sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..per_run.len() {
            for j in i + 1..per_run.len() {
                iou_sum += per_run[i].estimated.iou(&per_run[j].estimated);
                pairs += 1;
            }
        }
        StabilityReport {
            mean_pairwise_iou: if pairs == 0 {
                1.0
            } else {
                iou_sum / pairs as f64
            },
            per_run,
            pooled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_env::{Scenario, ScenarioKind};

    fn repeated(kind: ScenarioKind, n: usize) -> (Scenario, RepeatedSurvey) {
        let s = Scenario::build(kind);
        // Full paper-length captures: short surveys are legitimately less
        // stable (that's ablation A2's finding), which isn't what this
        // test probes.
        let r = run_repeated(&s.world, &s.site, &SurveyConfig::default(), 70, n, 900);
        (s, r)
    }

    /// The paper's claim: repetitions give "similar results".
    #[test]
    fn rooftop_estimates_stable_across_runs() {
        let (s, rep) = repeated(ScenarioKind::Rooftop, 4);
        let stab = rep.stability(&FovEstimator::default());
        assert!(
            stab.mean_pairwise_iou > 0.4,
            "pairwise IoU {}",
            stab.mean_pairwise_iou
        );
        // Every run's estimate points west.
        for est in &stab.per_run {
            assert!(
                s.expected_fov.contains(est.estimated.center_deg()),
                "run estimated {:?}",
                est.estimated
            );
        }
    }

    /// Pooling runs must not collapse the estimate. (It can be slightly
    /// *worse* than the best single run: the histogram opens a bin on any
    /// observation past the range threshold, and pooling gives lucky
    /// deep-shadow decodes more chances — an instructive property of the
    /// paper's any-hit matching rule.)
    #[test]
    fn pooling_does_not_collapse() {
        let (s, rep) = repeated(ScenarioKind::Rooftop, 4);
        let stab = rep.stability(&FovEstimator::default());
        let mut ious: Vec<f64> = stab
            .per_run
            .iter()
            .map(|e| e.iou(&s.expected_fov))
            .collect();
        ious.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let worst = ious[0];
        let pooled = stab.pooled.iou(&s.expected_fov);
        assert!(
            pooled >= (worst - 0.1).min(0.5),
            "pooled IoU {pooled} vs worst single-run {worst}"
        );
        // And the pooled estimate still points the right way.
        assert!(s.expected_fov.contains(stab.pooled.estimated.center_deg()));
    }

    #[test]
    fn indoor_consistently_empty() {
        let (_, rep) = repeated(ScenarioKind::Indoor, 3);
        let stab = rep.stability(&FovEstimator::default());
        for est in &stab.per_run {
            assert!(est.open_fraction() < 0.2);
        }
        assert!(rep.overall_observation_rate() < 0.2);
    }

    #[test]
    fn pooled_points_concatenate() {
        let (_, rep) = repeated(ScenarioKind::OpenField, 3);
        let total: usize = rep.runs.iter().map(|r| r.points.len()).sum();
        assert_eq!(rep.pooled_points().len(), total);
        assert!(
            total > 100,
            "three 50-aircraft runs should pool >100 points"
        );
    }

    #[test]
    fn single_run_stability_is_defined() {
        let (_, rep) = repeated(ScenarioKind::OpenField, 1);
        let stab = rep.stability(&FovEstimator::default());
        assert_eq!(stab.mean_pairwise_iou, 1.0);
        assert_eq!(stab.per_run.len(), 1);
    }
}
