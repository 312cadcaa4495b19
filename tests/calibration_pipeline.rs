//! Integration: the full calibration pipeline across every scenario —
//! the end-to-end behaviour a marketplace operator relies on.

use aircal::prelude::*;
use aircal::sdr::FrontendFault;
use aircal_core::report::CalibrationReport;

/// The paper's three locations and the open-field reference get the right
/// indoor/outdoor call. The urban canyon is a documented ambiguous case —
/// every measured band is canyon-blocked, which is exactly the paper's
/// "degradation at higher frequencies suggests indoor" signature — so for
/// it we only require a higher outdoor probability than the true indoor
/// site.
#[test]
fn classification_correct_on_all_scenarios() {
    let mut p_by_name = std::collections::HashMap::new();
    for scenario in all_scenarios() {
        let report = Calibrator::quick().calibrate(&scenario.world, &scenario.site, 301);
        p_by_name.insert(
            scenario.site.name.clone(),
            report.install.probability_outdoor,
        );
        if scenario.kind != ScenarioKind::UrbanCanyon {
            assert_eq!(
                report.install.outdoor,
                scenario.is_outdoor,
                "{}: classified {} (p={:.2})",
                scenario.site.name,
                if report.install.outdoor {
                    "outdoor"
                } else {
                    "indoor"
                },
                report.install.probability_outdoor
            );
        }
    }
    assert!(
        p_by_name["urban-canyon"] > p_by_name["indoor"] + 0.2,
        "canyon p={:.2} vs indoor p={:.2}",
        p_by_name["urban-canyon"],
        p_by_name["indoor"]
    );
}

/// FoV estimates match scenario ground truth reasonably (IoU) where a
/// sector exists, and collapse where it doesn't.
#[test]
fn fov_quality_per_scenario() {
    for scenario in all_scenarios() {
        let report = Calibrator::quick().calibrate(&scenario.world, &scenario.site, 302);
        if scenario.expected_fov.width_deg == 0.0 {
            assert!(
                report.fov.estimated.width_deg <= 90.0,
                "{}: expected no FoV, estimated {:?}",
                scenario.site.name,
                report.fov.estimated
            );
        } else {
            let iou = report.fov.iou(&scenario.expected_fov);
            assert!(
                iou > 0.25,
                "{}: IoU {iou:.2} (estimated {:?}, truth {:?})",
                scenario.site.name,
                report.fov.estimated,
                scenario.expected_fov
            );
        }
    }
}

/// Reports survive a JSON round trip with their verdicts intact.
#[test]
fn report_serialization_end_to_end() {
    let scenario = Scenario::build(ScenarioKind::BehindWindow);
    let report = Calibrator::quick().calibrate(&scenario.world, &scenario.site, 303);
    let json = report.to_json();
    let back = CalibrationReport::from_json(&json).expect("round trip");
    assert_eq!(back.site_name, report.site_name);
    assert_eq!(back.install.outdoor, report.install.outdoor);
    assert_eq!(back.trust.score, report.trust.score);
    assert_eq!(back.frequency.bands.len(), report.frequency.bands.len());
}

/// A cable fault degrades the trust/coverage of an otherwise perfect node,
/// and a band-limited antenna is exposed by the frequency profile.
#[test]
fn faults_visible_in_reports() {
    let scenario = Scenario::build(ScenarioKind::OpenField);

    let healthy = Calibrator::quick().calibrate(&scenario.world, &scenario.site, 304);
    assert_eq!(healthy.frequency.usable_fraction(), 1.0);

    // 25 dB of cable loss: ADS-B range collapses and weak cells drop out.
    let lossy = Calibrator::quick()
        .with_fault(FrontendFault::CableLoss { db: 25.0 })
        .calibrate(&scenario.world, &scenario.site, 304);
    assert!(
        lossy.survey.max_observed_range_m < healthy.survey.max_observed_range_m,
        "cable loss did not shrink range"
    );

    // Deaf above 900 MHz: the profile must lose every cellular band above
    // 900 MHz while TV (below) stays.
    let deaf = Calibrator::quick()
        .with_fault(FrontendFault::DeafAbove {
            cutoff_hz: 900e6,
            loss_db: 65.0,
        })
        .calibrate(&scenario.world, &scenario.site, 304);
    for b in &deaf.frequency.bands {
        use aircal_core::freqprofile::SourceKind;
        match b.source {
            SourceKind::Cellular if b.freq_hz > 900e6 => assert!(
                b.measured_db.is_none(),
                "{} should be blind above the cutoff",
                b.label
            ),
            SourceKind::BroadcastTv => assert!(
                b.measured_db.is_some(),
                "{} below the cutoff should survive",
                b.label
            ),
            _ => {}
        }
    }
    assert!(deaf.frequency.usable_fraction() < 1.0);
    assert!(
        deaf.frequency.max_usable_freq_hz().unwrap() <= 900e6,
        "claimed usable {:?}",
        deaf.frequency.max_usable_freq_hz()
    );
}

/// The fleet auditor ranks the healthy open-field node above everything
/// else and the indoor node at (or near) the bottom.
#[test]
fn fleet_ordering_stable() {
    use aircal_core::fleet::FleetAuditor;
    let fleet = all_scenarios();
    for seed in [401u64, 402] {
        let report = FleetAuditor::new(Calibrator::quick()).audit(&fleet, seed);
        let names: Vec<&str> = report.nodes.iter().map(|n| n.name.as_str()).collect();
        let pos = |n: &str| names.iter().position(|&x| x == n).unwrap();
        assert!(
            pos("open-field") <= 1,
            "seed {seed}: open-field ranked {names:?}"
        );
        assert!(
            pos("indoor") >= 3,
            "seed {seed}: indoor ranked too high: {names:?}"
        );
    }
}
