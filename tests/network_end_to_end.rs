//! Integration: the full networked deployment — threads, links, the cloud
//! auditor, and the rented-measurement product — end to end.

use aircal::net::{spawn_node, Cloud, NodeAgent, NodeBehavior, Request, Response};
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_dsp::psd::band_power_from_psd;
use aircal_env::{scenarios::testbed_origin, Scenario, ScenarioKind};
use std::sync::Arc;

fn sky(seed: u64) -> Arc<TrafficSim> {
    Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 40,
            ..TrafficConfig::paper_default(testbed_origin())
        },
        seed,
    ))
}

/// The whole lifecycle: register a mixed fleet, audit it, rent the best
/// node, and verify the rented spectrum data is what the calibration
/// promised.
#[test]
fn marketplace_lifecycle() {
    let sky = sky(9001);
    let cloud = Cloud::new(sky.clone());

    for (i, (kind, behavior)) in [
        (ScenarioKind::OpenField, NodeBehavior::Honest),
        (ScenarioKind::Indoor, NodeBehavior::Honest),
        (ScenarioKind::BehindWindow, NodeBehavior::FalseClaims),
    ]
    .into_iter()
    .enumerate()
    {
        let agent = NodeAgent::new(Scenario::build(kind), behavior, sky.clone());
        assert!(cloud
            .register(spawn_node(agent, 0.0, 9000 + i as u64))
            .is_some());
    }
    assert_eq!(cloud.node_count(), 3);

    let verdicts = cloud.audit_all(12345);
    assert_eq!(verdicts.len(), 3);

    // The liar is excluded; the honest open-field node is listed.
    let market = cloud.marketplace();
    let names: Vec<&str> = market.iter().map(|(n, _, _)| n.as_str()).collect();
    assert!(names.contains(&"open-field"));
    assert!(!names.contains(&"behind-window"), "market: {names:?}");

    // Verdicts carry enough detail for a renter to choose by capability.
    for (name, v) in &verdicts {
        let v = v.as_ref().expect("all reachable");
        if name == "open-field" {
            assert!(v.measured_max_freq_hz.unwrap() >= 2.6e9);
            assert!(v.fov.open_fraction() > 0.8);
        }
        if name == "indoor" {
            assert!(v.outdoor_claim_verified, "honest indoor claim verifies");
            // No mid-band capability (a rare shadowing tail can sneak one
            // 2 GHz cell past the sync floor, but never the 2.6 GHz pair).
            assert!(
                v.measured_max_freq_hz.unwrap() < 2.5e9,
                "indoor claimed usable up to {:?}",
                v.measured_max_freq_hz
            );
        }
    }
    cloud.shutdown();
}

/// Renting spectrum from nodes of different quality: the product (a PSD
/// of a broadcast channel) differs exactly as calibration predicts, and
/// the messages survive a JSON round trip (a real wire would carry JSON).
#[test]
fn rented_psd_matches_calibration_promise() {
    let sky = sky(9002);
    let request = Request::MonitorBand {
        center_hz: 545e6, // KST-26, west of the site
        span_hz: 8e6,
        seed: 77,
    };
    // JSON round trip of the request, as a networked deployment would.
    let wire = serde_json::to_string(&request).unwrap();
    let request: Request = serde_json::from_str(&wire).unwrap();

    let mut in_band = Vec::new();
    for kind in [ScenarioKind::OpenField, ScenarioKind::Indoor] {
        let mut link = spawn_node(
            NodeAgent::new(Scenario::build(kind), NodeBehavior::Honest, sky.clone()),
            0.0,
            kind as u64,
        );
        match link.call(request.clone()) {
            Ok(Response::Psd { bins, span_hz, .. }) => {
                let p = band_power_from_psd(&bins, span_hz, -2.7e6, 2.7e6);
                in_band.push(aircal_dsp::power::lin_to_db(p));
            }
            other => panic!("unexpected {other:?}"),
        }
        link.shutdown();
    }
    let (open, indoor) = (in_band[0], in_band[1]);
    assert!(
        open > indoor + 10.0,
        "open-field {open:.1} dBFS vs indoor {indoor:.1} dBFS"
    );
}

/// A flaky node is degraded or reported unreachable by the audit rather
/// than wedging the cloud.
#[test]
fn flaky_node_survives_audit_loop() {
    let sky = sky(9003);
    let cloud = Cloud::new(sky.clone());
    // 60% request loss: the cloud's own retry policy (3 attempts per
    // call) usually lands registration; spawn fresh links until it does.
    let mut registered = false;
    for attempt in 0..20 {
        let link = spawn_node(
            NodeAgent::new(
                Scenario::build(ScenarioKind::OpenField),
                NodeBehavior::Honest,
                sky.clone(),
            ),
            0.6,
            9100 + attempt,
        );
        if cloud.register(link).is_some() {
            registered = true;
            break;
        }
    }
    assert!(registered, "20 attempts over a 60% lossy link");
    // Each audit step gets 3 attempts at 40% per-attempt success; a step
    // can still fail. Whatever happens must be clean: a verdict entry is
    // produced either way, partial if steps were lost.
    let verdicts = cloud.audit_all(555);
    assert_eq!(verdicts.len(), 1);
    if let Some(v) = &verdicts[0].1 {
        for f in &v.failed_steps {
            assert!(f.attempts > 1, "retryable losses must have been retried");
        }
    }
    cloud.shutdown();
}
