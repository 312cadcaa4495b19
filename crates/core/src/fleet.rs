//! Fleet auditing: calibrate many nodes and rank them.
//!
//! The paper's deployment model is a marketplace: "node operators offer
//! spectrum sensing as a service and users pay to rent these services."
//! The auditor is the marketplace's quality gate — it calibrates every
//! node and produces a ranked roster a renter can filter ("give me
//! outdoor nodes with ≥180° of sky and usable 2 GHz").

use crate::engine::Calibrator;
use crate::report::CalibrationReport;
use aircal_env::Scenario;
use serde::{Deserialize, Serialize};

/// One audited node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeAudit {
    /// Node name.
    pub name: String,
    /// Rank within the fleet (1 = best trust score).
    pub rank: usize,
    /// The full report.
    pub report: CalibrationReport,
}

/// Fleet-level audit results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Nodes sorted by descending trust score.
    pub nodes: Vec<NodeAudit>,
}

impl FleetReport {
    /// Nodes passing a renter's filter.
    pub fn filter<F: Fn(&CalibrationReport) -> bool>(&self, pred: F) -> Vec<&NodeAudit> {
        self.nodes.iter().filter(|n| pred(&n.report)).collect()
    }

    /// The best node by trust.
    pub fn best(&self) -> Option<&NodeAudit> {
        self.nodes.first()
    }
}

/// The auditor.
#[derive(Debug, Clone, Default)]
pub struct FleetAuditor {
    /// Calibration settings applied to every node.
    pub calibrator: Calibrator,
}

impl FleetAuditor {
    /// Create with a specific calibrator.
    pub fn new(calibrator: Calibrator) -> Self {
        Self { calibrator }
    }

    /// Audit a fleet of scenarios (each its own world + site). Seeds are
    /// derived per node so results are independent but reproducible; the
    /// per-node calibrations fan out over the calibrator's `parallelism`
    /// knob (`0` = all cores) with results merged in fleet order, so the
    /// report is identical for any thread count.
    pub fn audit(&self, fleet: &[Scenario], seed: u64) -> FleetReport {
        let threads = aircal_dsp::resolve_parallelism(self.calibrator.survey.parallelism);
        let mut nodes: Vec<NodeAudit> = aircal_dsp::par_map(fleet, threads, |i, s| NodeAudit {
            name: s.site.name.clone(),
            rank: 0,
            report: self.calibrator.calibrate(
                &s.world,
                &s.site,
                seed.wrapping_add(i as u64 * 0x9E37),
            ),
        });
        // total_cmp: a NaN score (corrupted input) sorts last instead of
        // panicking the whole fleet audit.
        nodes.sort_by(|a, b| b.report.trust.score.total_cmp(&a.report.trust.score));
        for (i, n) in nodes.iter_mut().enumerate() {
            n.rank = i + 1;
        }
        FleetReport { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_env::all_scenarios;

    #[test]
    fn fleet_ranking_prefers_open_installations() {
        let fleet = all_scenarios();
        let report = FleetAuditor::new(Calibrator::quick()).audit(&fleet, 51);
        assert_eq!(report.nodes.len(), fleet.len());
        // Ranks are 1..=N and scores descend.
        for (i, n) in report.nodes.iter().enumerate() {
            assert_eq!(n.rank, i + 1);
        }
        for w in report.nodes.windows(2) {
            assert!(w[0].report.trust.score >= w[1].report.trust.score);
        }
        // The open-field node must beat the indoor node.
        let pos = |name: &str| {
            report
                .nodes
                .iter()
                .position(|n| n.name == name)
                .unwrap_or(usize::MAX)
        };
        assert!(
            pos("open-field") < pos("indoor"),
            "open-field rank {} vs indoor {}",
            pos("open-field"),
            pos("indoor")
        );
    }

    #[test]
    fn renter_filters_work() {
        let fleet = all_scenarios();
        let report = FleetAuditor::new(Calibrator::quick()).audit(&fleet, 52);
        let outdoor_wide = report.filter(|r| r.install.outdoor && r.fov.open_fraction() > 0.5);
        assert!(!outdoor_wide.is_empty());
        assert!(outdoor_wide.iter().any(|n| n.name == "open-field"));
        assert!(outdoor_wide.iter().all(|n| n.name != "indoor"));
        assert!(report.best().is_some());
    }
}
