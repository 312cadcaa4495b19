//! Chaos: a fleet audit under an aggressive seeded fault plan.
//!
//! Every fault the transport can inject fires somewhere in this fleet —
//! burst outages, a crashed daemon, a wedged thread, garbled frames,
//! latency, probabilistic loss — and the audit must neither panic nor
//! hang, every node that answers `Describe` must get a verdict, the wire
//! counters must match the injected schedule exactly, and the same seed
//! must reproduce the same verdicts bit for bit.

use aircal::net::{
    spawn_node_with_faults, BurstOutage, Cloud, LinkError, LinkFaults, LinkStats, NodeAgent,
    NodeBehavior, NodeHealth, RetryPolicy, VerificationVerdict,
};
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_core::freqprofile::SourceKind;
use aircal_env::{scenarios::testbed_origin, Scenario, ScenarioKind};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sky() -> Arc<TrafficSim> {
    Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 40,
            ..TrafficConfig::paper_default(testbed_origin())
        },
        4242,
    ))
}

/// The chaos fleet: one node per fault family, plus a healthy control.
/// Each entry is `(name, scenario, faults, link_seed)`.
fn fleet() -> Vec<(&'static str, ScenarioKind, LinkFaults, u64)> {
    vec![
        ("steady", ScenarioKind::OpenField, LinkFaults::none(), 100),
        (
            "laggy",
            ScenarioKind::Rooftop,
            LinkFaults {
                latency_ms: 5,
                ..LinkFaults::none()
            },
            101,
        ),
        // Wire attempts: registration=0, describe=1, survey=2,3 (outage)
        // then 4 succeeds, cells=5, tv=6.
        (
            "bursty",
            ScenarioKind::OpenField,
            LinkFaults {
                burst_outages: vec![BurstOutage { start: 2, len: 2 }],
                ..LinkFaults::none()
            },
            102,
        ),
        // Daemon serves registration + describe + survey, then dies:
        // cells and tv fail permanently (SendFailed, no retry).
        (
            "crashy",
            ScenarioKind::Rooftop,
            LinkFaults {
                crash_after: Some(3),
                ..LinkFaults::none()
            },
            103,
        ),
        // Node-side requests: registration=0, describe=1, survey=2,
        // cells=3 wedges (timeout), the retry (4) and tv (5) succeed.
        (
            "wedged",
            ScenarioKind::OpenField,
            LinkFaults {
                hang_on: vec![3],
                ..LinkFaults::none()
            },
            104,
        ),
        // Wire attempts 2 and 3 (the survey and its first retry) come
        // back garbled as wrong-kind frames; attempt 4 is clean.
        (
            "garbled",
            ScenarioKind::Rooftop,
            LinkFaults {
                corrupt_on: vec![2, 3],
                ..LinkFaults::none()
            },
            105,
        ),
        // Plain probabilistic chaos from the seeded stream: no exact
        // schedule to assert, but bit-identical across runs.
        (
            "flaky",
            ScenarioKind::OpenField,
            LinkFaults {
                request_drop: 0.25,
                response_drop: 0.1,
                latency_ms: 1,
                ..LinkFaults::none()
            },
            106,
        ),
    ]
}

struct RunOutput {
    verdicts_json: String,
    health: Vec<(String, NodeHealth, u32)>,
    stats: Vec<(String, LinkStats)>,
}

/// Register the fleet, audit it once, and capture everything observable.
fn run_fleet() -> RunOutput {
    let sky = sky();
    let mut cloud = Cloud::new(sky.clone());
    cloud.retry_policy = RetryPolicy::quick();
    // The wedged node costs one cells budget of wall clock; keep it small
    // (still ≫ the millisecond-scale honest scan time).
    cloud.retry_policy.budgets.cells = Duration::from_secs(1);

    for (name, kind, faults, link_seed) in fleet() {
        let mut agent = NodeAgent::new(Scenario::build(kind), NodeBehavior::Honest, sky.clone());
        agent.claims.name = name.to_string();
        let link = spawn_node_with_faults(agent, faults, link_seed);
        assert_eq!(
            cloud.register(link).as_deref(),
            Some(name),
            "{name} must survive registration"
        );
    }
    assert_eq!(cloud.node_count(), 7);

    let verdicts = cloud.audit_all(777);
    let verdicts_json = serde_json::to_string(&verdicts).expect("verdicts serialize");
    let health = cloud.health_report();
    let stats = cloud.link_stats();
    cloud.shutdown();
    RunOutput {
        verdicts_json,
        health,
        stats,
    }
}

#[test]
fn chaos_fleet_audit_is_deterministic_and_bounded() {
    let started = Instant::now();
    let first = run_fleet();

    // --- no hangs: the whole chaotic audit is wall-clock bounded. The
    // only deliberate stall is the wedged node's 1 s cells budget.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "fleet audit took {:?}",
        started.elapsed()
    );

    // --- every node that answered Describe got a verdict. (Verdicts
    // round-trip through JSON, as they would on a real wire.)
    let verdicts: Vec<(String, Option<VerificationVerdict>)> =
        serde_json::from_str(&first.verdicts_json).unwrap();
    assert_eq!(verdicts.len(), 7);
    let names: Vec<&str> = verdicts.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        vec!["bursty", "crashy", "flaky", "garbled", "laggy", "steady", "wedged"],
        "registry reports sorted by name"
    );
    for (name, v) in &verdicts {
        assert!(
            v.is_some(),
            "{name} answered Describe, so it gets a verdict"
        );
    }

    // --- the victim of the mid-audit crash still gets a usable partial
    // verdict: FoV from the survey, profile marked incomplete, trust
    // penalized but present.
    let crashy = verdicts[1].1.as_ref().unwrap();
    assert!(!crashy.is_complete());
    let failed: Vec<&str> = crashy
        .failed_steps
        .iter()
        .map(|f| f.step.as_str())
        .collect();
    assert_eq!(failed, vec!["cells", "tv"]);
    assert!(
        crashy
            .failed_steps
            .iter()
            .all(|f| f.error == LinkError::SendFailed),
        "a crashed daemon reads as SendFailed: {:?}",
        crashy.failed_steps
    );
    assert!(!crashy.fov.open_ring.is_empty(), "FoV survives the crash");
    assert_eq!(
        crashy.profile.missing_sources,
        vec![SourceKind::Cellular, SourceKind::BroadcastTv]
    );
    assert!(!crashy.profile.is_complete());
    assert!(
        crashy
            .trust
            .flags
            .iter()
            .any(|f| f.contains("missing evidence")),
        "trust must record the missing evidence: {:?}",
        crashy.trust.flags
    );
    assert!(!crashy.approved);

    // --- scheduled faults: the wire counters match the plan exactly.
    let stat = |name: &str| -> LinkStats {
        first
            .stats
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no stats for {name}"))
            .1
    };
    // steady/laggy: 5 clean calls (registration + 4 audit steps).
    for name in ["steady", "laggy"] {
        let s = stat(name);
        assert_eq!(
            (s.attempts, s.ok, s.retries, s.gave_up),
            (5, 5, 0, 0),
            "{name}"
        );
    }
    // bursty: 2 drops in the outage window, 2 retries, recovered.
    let s = stat("bursty");
    assert_eq!(
        (s.attempts, s.ok, s.dropped, s.retries, s.gave_up),
        (7, 5, 2, 2, 0),
        "bursty {s:?}"
    );
    // crashy: 3 clean calls, then cells and tv each fail once — dead
    // threads are not retried.
    let s = stat("crashy");
    assert_eq!(
        (s.attempts, s.ok, s.send_failed, s.retries, s.gave_up),
        (5, 3, 2, 0, 2),
        "crashy {s:?}"
    );
    // wedged: one timeout on cells, one retry, recovered.
    let s = stat("wedged");
    assert_eq!(
        (s.attempts, s.ok, s.timeouts, s.retries, s.gave_up),
        (6, 5, 1, 1, 0),
        "wedged {s:?}"
    );
    // garbled: two wrong-kind replies on the survey, recovered on the
    // third attempt.
    let s = stat("garbled");
    assert_eq!(
        (s.attempts, s.ok, s.wrong_kind, s.retries, s.gave_up),
        (7, 5, 2, 2, 0),
        "garbled {s:?}"
    );
    // flaky: no exact schedule, but the counters must be consistent —
    // every attempt is accounted for by exactly one outcome.
    let s = stat("flaky");
    assert_eq!(
        s.attempts,
        s.ok + s.dropped + s.timeouts + s.send_failed + s.wrong_kind,
        "flaky {s:?}"
    );

    // --- health lifecycle after one round: only the partial audit
    // (crashy) is penalized; recovered-via-retry nodes stay Healthy.
    for (name, health, failures) in &first.health {
        match name.as_str() {
            "crashy" => {
                assert_eq!(*health, NodeHealth::Degraded, "{name}");
                assert_eq!(*failures, 1, "{name}");
            }
            "flaky" => {} // seed-dependent: may or may not have lost a step
            _ => {
                assert_eq!(*health, NodeHealth::Healthy, "{name}");
                assert_eq!(*failures, 0, "{name}");
            }
        }
    }

    // --- same seed ⇒ same verdicts, same health, same wire counters.
    let second = run_fleet();
    assert_eq!(
        first.verdicts_json, second.verdicts_json,
        "verdicts must reproduce"
    );
    assert_eq!(first.health, second.health, "health must reproduce");
    assert_eq!(first.stats, second.stats, "wire counters must reproduce");
}

/// Shutdown under chaos: a fleet whose nodes crash, wedge and drop
/// replies must still shut down promptly (no deadlock in `shutdown` or
/// `Drop`).
#[test]
fn chaotic_fleet_shuts_down_promptly() {
    let sky = sky();
    let started = Instant::now();
    let mut links = Vec::new();
    for (name, kind, faults, link_seed) in fleet() {
        let mut agent = NodeAgent::new(Scenario::build(kind), NodeBehavior::Honest, sky.clone());
        agent.claims.name = name.to_string();
        links.push(spawn_node_with_faults(agent, faults, link_seed));
    }
    // Two extra nodes whose fault lands on the Shutdown message itself:
    // a daemon that is already dead, and one that swallows the Shutdown
    // (the capped Bye drain + channel disconnect must still unwedge it).
    for (i, faults) in [
        LinkFaults {
            crash_after: Some(0),
            ..LinkFaults::none()
        },
        LinkFaults {
            hang_on: vec![0],
            ..LinkFaults::none()
        },
    ]
    .into_iter()
    .enumerate()
    {
        let mut agent = NodeAgent::new(
            Scenario::build(ScenarioKind::OpenField),
            NodeBehavior::Honest,
            sky.clone(),
        );
        agent.claims.name = format!("shutdown-victim-{i}");
        links.push(spawn_node_with_faults(agent, faults, 300 + i as u64));
    }
    // Half through shutdown(), half through Drop, with no prior traffic.
    for (i, mut link) in links.into_iter().enumerate() {
        if i % 2 == 0 {
            link.shutdown();
        } else {
            link.timeout = Duration::from_millis(200);
            drop(link);
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "shutdown took {:?}",
        started.elapsed()
    );
}

/// An unreachable node cannot block its neighbors: registration fails
/// fast for a dead daemon and the rest of the fleet audits normally.
#[test]
fn dead_node_does_not_block_fleet() {
    let sky = sky();
    let mut cloud = Cloud::new(sky.clone());
    cloud.retry_policy = RetryPolicy::quick();

    let dead = spawn_node_with_faults(
        NodeAgent::new(
            Scenario::build(ScenarioKind::OpenField),
            NodeBehavior::Honest,
            sky.clone(),
        ),
        LinkFaults {
            crash_after: Some(0),
            ..LinkFaults::none()
        },
        200,
    );
    assert!(
        cloud.register(dead).is_none(),
        "dead daemon cannot register"
    );

    let mut alive = NodeAgent::new(
        Scenario::build(ScenarioKind::OpenField),
        NodeBehavior::Honest,
        sky.clone(),
    );
    alive.claims.name = "survivor".into();
    cloud
        .register(spawn_node_with_faults(alive, LinkFaults::none(), 201))
        .expect("healthy node registers");

    let verdicts = cloud.audit_all(888);
    assert_eq!(verdicts.len(), 1);
    let v = verdicts[0].1.as_ref().expect("survivor audited");
    assert!(v.is_complete());
    assert!(v.failed_steps.is_empty());
    cloud.shutdown();
}
