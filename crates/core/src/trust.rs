//! Trust scoring and fabrication detection (§2, §5 "Establishing trust").
//!
//! "Since node operators are paid for these services, there is a potential
//! incentive to provide fabricated or incorrect data." A node can cheat in
//! two observable ways: claim receptions that never happened, or report
//! data inconsistent with physics. Both leave fingerprints the auditor can
//! check against the independent ground truth:
//!
//! * **Ghost aircraft** — decoded ICAOs absent from the tracking service;
//! * **Position inconsistency** — CPR-decoded positions far from where the
//!   tracking service saw the aircraft;
//! * **RSSI physics** — reported signal strengths uncorrelated with range
//!   (real receptions follow a 1/r² trend; invented ones rarely do).

use crate::freqprofile::FrequencyProfile;
use crate::survey::SurveyResult;
use aircal_aircraft::TrafficSim;
use serde::{Deserialize, Serialize};

/// Component scores (each 0–1) and the combined trust value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrustScore {
    /// Sky coverage: fraction of the circle with long-range visibility.
    pub fov_coverage: f64,
    /// Spectral coverage: fraction of bands with any measurement.
    pub spectral_coverage: f64,
    /// Consistency of decoded positions with the ground truth, 0–1.
    pub position_consistency: f64,
    /// Plausibility of the RSSI-vs-range trend, 0–1.
    pub rssi_plausibility: f64,
    /// 1 − fraction of messages from aircraft unknown to the ground truth.
    pub ghost_free: f64,
    /// Combined 0–100 score.
    pub score: f64,
    /// Human-readable flags raised during the audit.
    pub flags: Vec<String>,
}

/// Clamp a component score to `[0, 1]`; non-finite inputs (NaN/Inf from
/// corrupted measurements) earn zero credit rather than propagating.
fn clamp01(x: f64) -> f64 {
    if x.is_finite() {
        x.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

impl TrustScore {
    /// Is this node trustworthy enough to rent? (Threshold from the
    /// component weighting: a healthy outdoor node scores ≥ 70.)
    pub fn is_trustworthy(&self) -> bool {
        self.score >= 50.0 && self.flags.is_empty()
    }

    /// Dock the score for an evidence source that never arrived (an
    /// audit step that failed even with retries). Missing evidence
    /// cannot earn trust: the node keeps its verdict but is penalized
    /// and flagged rather than silently skipped, so a flaky-but-honest
    /// node ranks below a complete one and the flag blocks marketplace
    /// approval until a clean audit.
    pub fn penalize_missing_evidence(&mut self, evidence: &str) {
        if !self.score.is_finite() {
            self.score = 0.0;
        }
        self.score = (self.score - 20.0).max(0.0);
        self.flags.push(format!("missing evidence: {evidence}"));
    }

    /// Dock the score for disagreeing with the fleet's robustly fused
    /// consensus (cross-sensor residual beyond tolerance). Like
    /// [`TrustScore::penalize_missing_evidence`], the flag blocks
    /// marketplace approval until a clean audit.
    pub fn penalize_fusion_residual(&mut self, residual_db: f64) {
        if !self.score.is_finite() {
            self.score = 0.0;
        }
        self.score = (self.score - 15.0).max(0.0);
        self.flags.push(format!(
            "fusion residual {residual_db:.1} dB vs fleet consensus"
        ));
    }
}

/// The auditor.
#[derive(Debug, Clone)]
pub struct TrustAuditor {
    /// Positions decoded further than this from ground truth are
    /// inconsistent, meters (stale truth is good to ~2.6 km; CPR to ~10 m).
    pub position_tolerance_m: f64,
}

impl Default for TrustAuditor {
    fn default() -> Self {
        Self {
            position_tolerance_m: 5_000.0,
        }
    }
}

impl TrustAuditor {
    /// Audit one node from its survey, frequency profile, and the traffic
    /// ground truth.
    pub fn audit(
        &self,
        survey: &SurveyResult,
        profile: &FrequencyProfile,
        traffic: &TrafficSim,
        fov_open_fraction: f64,
    ) -> TrustScore {
        let mut flags = Vec::new();

        // A node that decoded nothing at all provides no auditable (or
        // rentable) evidence; its integrity components cannot earn credit.
        if survey.total_messages == 0 {
            flags.push("no ADS-B receptions at all".into());
            return TrustScore {
                fov_coverage: clamp01(fov_open_fraction),
                spectral_coverage: clamp01(profile.usable_fraction()),
                position_consistency: 0.0,
                rssi_plausibility: 0.0,
                ghost_free: 1.0,
                score: 100.0
                    * (0.15 * clamp01(fov_open_fraction)
                        + 0.15 * clamp01(profile.usable_fraction())),
                flags,
            };
        }

        // Ghost messages: decoded ICAOs the tracking service never saw.
        let ghost_free =
            clamp01(1.0 - survey.unmatched_messages as f64 / survey.total_messages as f64);
        if ghost_free < 0.7 {
            flags.push(format!(
                "{}% of messages from aircraft unknown to ground truth",
                ((1.0 - ghost_free) * 100.0).round()
            ));
        }

        // Position consistency: CPR decodes vs (stale) ground-truth tracks.
        let position_consistency = if survey.decoded_positions.is_empty() {
            // No decodes at all: nothing to verify; neutral-low.
            0.5
        } else {
            let mut ok = 0usize;
            for (icao, pos) in &survey.decoded_positions {
                // Unknown ICAOs are counted via ghost_free instead.
                if let Some(f) = traffic.by_icao(*icao) {
                    let best = (0..=survey.config.duration_s as usize)
                        .map(|t| f.position_at(t as f64).distance_m(pos))
                        .fold(f64::INFINITY, f64::min);
                    if best <= self.position_tolerance_m {
                        ok += 1;
                    }
                }
            }
            clamp01(ok as f64 / survey.decoded_positions.len() as f64)
        };
        if position_consistency < 0.5 {
            flags.push("decoded positions inconsistent with ground truth".into());
        }

        // RSSI physics: decoded signal strength should fall with range.
        let rssi_plausibility = clamp01(rssi_range_plausibility(survey));
        if rssi_plausibility < 0.3 {
            flags.push("RSSI does not follow a distance trend".into());
        }

        let fov_coverage = clamp01(fov_open_fraction);
        let spectral_coverage = clamp01(profile.usable_fraction());

        // Weighted blend: integrity components dominate; coverage matters
        // but a well-behaved partially-obstructed node is still usable.
        // Every component is clamped to [0, 1] above, so the blend stays
        // finite in [0, 100] no matter how corrupted the inputs were.
        let score = (100.0
            * (0.15 * fov_coverage
                + 0.15 * spectral_coverage
                + 0.25 * position_consistency
                + 0.15 * rssi_plausibility
                + 0.30 * ghost_free))
            .clamp(0.0, 100.0);

        TrustScore {
            fov_coverage,
            spectral_coverage,
            position_consistency,
            rssi_plausibility,
            ghost_free,
            score,
            flags,
        }
    }
}

/// Score in [0, 1] for how well observed RSSIs follow the expected
/// −20·log₁₀(range) trend (Pearson correlation mapped to [0,1]; too few
/// points → neutral 0.5).
fn rssi_range_plausibility(survey: &SurveyResult) -> f64 {
    let pts: Vec<(f64, f64)> = survey
        .points
        .iter()
        .filter_map(|p| {
            p.mean_rssi_dbfs
                .filter(|r| r.is_finite() && p.range_m.is_finite())
                .map(|r| (-20.0 * (p.range_m.max(1.0)).log10(), r))
        })
        .collect();
    if pts.len() < 5 {
        return 0.5;
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let cov = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
    let vx = pts.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
    let vy = pts.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>();
    if vx <= 0.0 || vy <= 0.0 {
        return 0.5;
    }
    let r = cov / (vx * vy).sqrt();
    ((r + 1.0) / 2.0).clamp(0.0, 1.0)
}

/// Fabricate a survey in which the operator claims to have observed every
/// ground-truth aircraft at implausibly uniform strength, plus `extra_ghosts`
/// invented aircraft. Used to exercise the auditor (and by the fault-
/// injection bench).
pub fn fabricate_survey(honest: &SurveyResult, extra_ghosts: usize) -> SurveyResult {
    let mut fake = honest.clone();
    for p in &mut fake.points {
        p.observed = true;
        p.messages = p.messages.max(10);
        p.mean_rssi_dbfs = Some(-28.0); // suspiciously uniform
    }
    fake.total_messages += extra_ghosts * 10;
    fake.unmatched_messages += extra_ghosts * 10;
    // Fabricated position claims: far from any real track.
    for g in 0..extra_ghosts {
        let icao = aircal_adsb::IcaoAddress::new(0xF00000 + g as u32);
        let pos = aircal_geo::LatLon::new(10.0 + g as f64, 10.0, 9_000.0);
        fake.decoded_positions.push((icao, pos));
    }
    fake
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freqprofile::{BandMeasurement, SourceKind};
    use crate::survey::{run_survey, SurveyConfig};
    use aircal_aircraft::TrafficConfig;
    use aircal_env::{Scenario, ScenarioKind};

    fn profile_stub(usable: usize, total: usize) -> FrequencyProfile {
        FrequencyProfile {
            bands: (0..total)
                .map(|i| BandMeasurement {
                    label: format!("b{i}"),
                    freq_hz: 1e9 + i as f64 * 1e8,
                    source: SourceKind::Cellular,
                    measured_db: (i < usable).then_some(-60.0),
                    expected_clear_db: -58.0,
                })
                .collect(),
            missing_sources: Vec::new(),
        }
    }

    fn honest_setup() -> (SurveyResult, TrafficSim) {
        let s = Scenario::build(ScenarioKind::OpenField);
        let traffic = TrafficSim::generate(
            TrafficConfig {
                count: 40,
                ..TrafficConfig::paper_default(s.site.position)
            },
            11,
        );
        let survey = run_survey(&s.world, &s.site, &traffic, &SurveyConfig::quick(), 11);
        (survey, traffic)
    }

    use aircal_aircraft::TrafficSim;

    #[test]
    fn honest_open_field_node_trusted() {
        let (survey, traffic) = honest_setup();
        let score = TrustAuditor::default().audit(&survey, &profile_stub(11, 11), &traffic, 0.95);
        assert!(score.is_trustworthy(), "score {:?}", score);
        assert!(score.score > 70.0);
        assert!(score.ghost_free > 0.95);
        assert!(score.position_consistency > 0.9);
    }

    #[test]
    fn fabricated_data_flagged() {
        let (survey, traffic) = honest_setup();
        // Invent enough ghost traffic to matter relative to the honest
        // message volume (a cheater padding the roster by ~50%).
        let fake = fabricate_survey(&survey, survey.total_messages / 15);
        let score = TrustAuditor::default().audit(&fake, &profile_stub(11, 11), &traffic, 1.0);
        assert!(!score.is_trustworthy(), "fabrication not caught: {score:?}");
        assert!(!score.flags.is_empty());
        assert!(score.ghost_free < 0.7);
    }

    #[test]
    fn fabricated_positions_inconsistent() {
        let (survey, traffic) = honest_setup();
        let mut fake = survey.clone();
        // Keep the honest messages but lie about where aircraft were.
        for (_, pos) in fake.decoded_positions.iter_mut() {
            *pos = aircal_geo::LatLon::new(0.0, 0.0, 9_000.0);
        }
        let score = TrustAuditor::default().audit(&fake, &profile_stub(11, 11), &traffic, 0.9);
        assert!(score.position_consistency < 0.2);
        assert!(score
            .flags
            .iter()
            .any(|f| f.contains("positions inconsistent")));
    }

    #[test]
    fn rssi_trend_detected() {
        let (survey, _) = honest_setup();
        let plaus = rssi_range_plausibility(&survey);
        assert!(plaus > 0.5, "honest RSSI plausibility {plaus}");
    }

    #[test]
    fn uniform_rssi_suspicious() {
        let (survey, traffic) = honest_setup();
        let fake = fabricate_survey(&survey, 0);
        let plaus = rssi_range_plausibility(&fake);
        assert!(plaus <= 0.55, "uniform RSSI scored {plaus}");
        let _ = traffic;
    }

    #[test]
    fn missing_evidence_penalty_blocks_trust() {
        let (survey, traffic) = honest_setup();
        let mut score =
            TrustAuditor::default().audit(&survey, &profile_stub(11, 11), &traffic, 0.95);
        assert!(score.is_trustworthy());
        let before = score.score;
        score.penalize_missing_evidence("tv");
        assert_eq!(score.score, (before - 20.0).max(0.0));
        assert!(
            score.flags.iter().any(|f| f == "missing evidence: tv"),
            "flags: {:?}",
            score.flags
        );
        assert!(
            !score.is_trustworthy(),
            "a flagged incomplete audit must not be rentable"
        );
        // The penalty floors at zero rather than going negative.
        for _ in 0..10 {
            score.penalize_missing_evidence("cells");
        }
        assert_eq!(score.score, 0.0);
    }

    #[test]
    fn single_nan_band_power_cannot_poison_report() {
        let (mut survey, traffic) = honest_setup();
        // One corrupted band-power sample in the profile and one NaN RSSI
        // point in the survey: the score must stay finite and in range.
        let mut profile = profile_stub(11, 11);
        profile.bands[3].measured_db = Some(f64::NAN);
        profile.bands[5].expected_clear_db = f64::INFINITY;
        if let Some(p) = survey
            .points
            .iter_mut()
            .find(|p| p.mean_rssi_dbfs.is_some())
        {
            p.mean_rssi_dbfs = Some(f64::NAN);
        }
        let score = TrustAuditor::default().audit(&survey, &profile, &traffic, 0.95);
        for (name, c) in [
            ("fov", score.fov_coverage),
            ("spectral", score.spectral_coverage),
            ("position", score.position_consistency),
            ("rssi", score.rssi_plausibility),
            ("ghost_free", score.ghost_free),
        ] {
            assert!(
                c.is_finite() && (0.0..=1.0).contains(&c),
                "{name} component poisoned: {c}"
            );
        }
        assert!(
            score.score.is_finite() && (0.0..=100.0).contains(&score.score),
            "score poisoned: {}",
            score.score
        );
        // The corrupted bands count as blind, not as credit.
        assert!(score.spectral_coverage <= 10.0 / 11.0 + 1e-12);
        // Downstream ranking still works (is_trustworthy is a total check).
        let _ = score.is_trustworthy();
    }

    #[test]
    fn nan_score_recovers_under_penalty() {
        let (survey, traffic) = honest_setup();
        let mut score =
            TrustAuditor::default().audit(&survey, &profile_stub(11, 11), &traffic, 0.95);
        score.score = f64::NAN; // simulate legacy corruption
        score.penalize_missing_evidence("tv");
        assert_eq!(score.score, 0.0);
        let mut score2 =
            TrustAuditor::default().audit(&survey, &profile_stub(11, 11), &traffic, 0.95);
        score2.score = f64::NAN;
        score2.penalize_fusion_residual(42.0);
        assert_eq!(score2.score, 0.0);
        assert!(score2.flags.iter().any(|f| f.contains("fusion residual")));
    }

    #[test]
    fn dead_node_scores_low_coverage() {
        let s = Scenario::build(ScenarioKind::OpenField);
        let traffic = TrafficSim::generate(
            TrafficConfig {
                count: 20,
                ..TrafficConfig::paper_default(s.site.position)
            },
            33,
        );
        let cfg = SurveyConfig {
            fault: aircal_sdr::FrontendFault::Dead,
            ..SurveyConfig::quick()
        };
        let survey = run_survey(&s.world, &s.site, &traffic, &cfg, 33);
        let score = TrustAuditor::default().audit(&survey, &profile_stub(0, 11), &traffic, 0.0);
        assert!(score.score < 50.0, "dead node scored {}", score.score);
    }
}
