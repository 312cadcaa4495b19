//! Observability is a *witness*, not a participant: enabling the metrics
//! registry and the audit event log must not change a single output bit,
//! and the telemetry itself must be deterministic — the same seed yields
//! the same event stream and the same counters at any parallelism.
//!
//! Three claims, each load-bearing for quarantine replay:
//!
//! 1. a fleet audit's `AuditEvent` JSONL and metric counters are
//!    byte-identical at survey parallelism 1 and 8, and the `wire.*`
//!    counters equal the transport's own per-link stats exactly;
//! 2. a multi-round quarantine lifecycle (degrade → quarantine →
//!    re-admit) can be replayed from the event log alone: health
//!    transitions, trust deltas, and fault observations appear in order
//!    with exact values;
//! 3. a `Calibrator` run with metrics + tracing enabled produces a
//!    bit-identical report to a run with observability disabled.

use aircal::net::{
    spawn_node_with_faults, BurstOutage, Cloud, LinkFaults, LinkStats, NodeAgent, NodeBehavior,
    NodeHealth, RetryPolicy,
};
use aircal::obs::{trace, AuditEvent, AuditEventKind, Obs};
use aircal::prelude::*;
use aircal_aircraft::{TrafficConfig, TrafficSim};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn sky() -> Arc<TrafficSim> {
    Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 40,
            ..TrafficConfig::paper_default(aircal_env::scenarios::testbed_origin())
        },
        4242,
    ))
}

/// The scheduled-fault fleet from `chaos_network.rs`, minus the
/// probabilistic `flaky` node: every wire event below happens at a
/// planned attempt index, so the telemetry totals are exact.
fn deterministic_fleet() -> Vec<(&'static str, ScenarioKind, LinkFaults, u64)> {
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
        (
            "bursty",
            ScenarioKind::OpenField,
            LinkFaults {
                burst_outages: vec![BurstOutage { start: 2, len: 2 }],
                ..LinkFaults::none()
            },
            102,
        ),
        (
            "crashy",
            ScenarioKind::Rooftop,
            LinkFaults {
                crash_after: Some(3),
                ..LinkFaults::none()
            },
            103,
        ),
        (
            "wedged",
            ScenarioKind::OpenField,
            LinkFaults {
                hang_on: vec![3],
                ..LinkFaults::none()
            },
            104,
        ),
        (
            "garbled",
            ScenarioKind::Rooftop,
            LinkFaults {
                corrupt_on: vec![2, 3],
                ..LinkFaults::none()
            },
            105,
        ),
    ]
}

struct FleetRun {
    verdicts_json: String,
    events_jsonl: String,
    counters: BTreeMap<String, u64>,
    stats: Vec<(String, LinkStats)>,
}

fn run_fleet(parallelism: usize, recording: bool) -> FleetRun {
    let sky = sky();
    let mut cloud = Cloud::new(sky.clone());
    if recording {
        cloud.obs = Obs::recording();
    }
    cloud.retry_policy = RetryPolicy::quick();
    cloud.retry_policy.budgets.cells = Duration::from_secs(1);
    cloud.survey_config.parallelism = parallelism;

    for (name, kind, faults, link_seed) in deterministic_fleet() {
        let mut agent = NodeAgent::new(Scenario::build(kind), NodeBehavior::Honest, sky.clone());
        agent.claims.name = name.to_string();
        let link = spawn_node_with_faults(agent, faults, link_seed);
        assert_eq!(cloud.register(link).as_deref(), Some(name));
    }

    let verdicts = cloud.audit_all(777);
    let out = FleetRun {
        verdicts_json: serde_json::to_string(&verdicts).unwrap(),
        events_jsonl: cloud.obs.events_jsonl(),
        counters: cloud.obs.snapshot().counters,
        stats: cloud.link_stats(),
    };
    cloud.shutdown();
    out
}

/// Claim 1: telemetry is parallelism-invariant and exact, and the
/// verdicts are identical whether or not anyone is watching.
#[test]
fn fleet_telemetry_is_deterministic_across_parallelism() {
    let serial = run_fleet(1, true);
    let threaded = run_fleet(8, true);
    let unobserved = run_fleet(1, false);

    // The witness changes nothing: obs on/off, 1 vs 8 worker threads —
    // same verdicts, bit for bit.
    assert_eq!(serial.verdicts_json, threaded.verdicts_json);
    assert_eq!(serial.verdicts_json, unobserved.verdicts_json);
    assert!(
        unobserved.events_jsonl.is_empty(),
        "disabled obs records nothing"
    );
    assert!(
        unobserved.counters.is_empty(),
        "disabled obs counts nothing"
    );

    // The telemetry itself is deterministic: identical event stream and
    // identical counters at any parallelism.
    assert!(!serial.events_jsonl.is_empty());
    assert_eq!(serial.events_jsonl, threaded.events_jsonl);
    assert_eq!(serial.counters, threaded.counters);

    // Exact totals from the fault schedule: 6 registrations (1 wire
    // attempt each) plus per-node audit plans — steady/laggy 4 clean
    // calls; bursty 2 drops + 2 retries; crashy 2 dead sends, not
    // retried; wedged 1 timeout + 1 retry; garbled 2 wrong-kind + 2
    // retries.
    let c = |name: &str| serial.counters.get(name).copied().unwrap_or(0);
    assert_eq!(c("wire.attempts"), 35);
    assert_eq!(c("wire.ok"), 28);
    assert_eq!(c("wire.dropped"), 2);
    assert_eq!(c("wire.timeouts"), 1);
    assert_eq!(c("wire.send_failed"), 2);
    assert_eq!(c("wire.wrong_kind"), 2);
    assert_eq!(c("wire.retries"), 5);
    assert_eq!(c("wire.gave_up"), 2);
    assert_eq!(c("cloud.nodes_registered"), 6);
    assert_eq!(c("audit.rounds"), 1);
    assert_eq!(c("audit.nodes_audited"), 6);
    assert_eq!(c("audit.steps_total"), 24, "4 steps x 6 nodes");
    assert_eq!(c("audit.steps_failed"), 2, "crashy loses cells and tv");
    assert_eq!(c("health.transitions"), 1, "only crashy degrades");

    // The registry's counters are the transport's counters: every
    // `wire.*` total equals the sum over the per-link stats.
    let sum = |f: fn(&LinkStats) -> u64| serial.stats.iter().map(|(_, s)| f(s)).sum::<u64>();
    assert_eq!(c("wire.attempts"), sum(|s| s.attempts));
    assert_eq!(c("wire.ok"), sum(|s| s.ok));
    assert_eq!(c("wire.retries"), sum(|s| s.retries));
    assert_eq!(c("wire.gave_up"), sum(|s| s.gave_up));
    assert_eq!(c("wire.wrong_kind"), sum(|s| s.wrong_kind));
    assert_eq!(c("wire.dropped"), sum(|s| s.dropped));
    assert_eq!(c("wire.timeouts"), sum(|s| s.timeouts));
    assert_eq!(c("wire.send_failed"), sum(|s| s.send_failed));

    // Sequence numbers are a gapless total order — the property replay
    // tooling relies on.
    let events: Vec<AuditEvent> = serial
        .events_jsonl
        .lines()
        .map(|l| serde_json::from_str(l).expect("every event line parses back"))
        .collect();
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "gapless sequence");
    }

    // The crashy node's story is replayable from the log alone: its
    // dead daemon shows up as two send-failure faults, two failed
    // steps, a −20·2 trust delta, and a healthy→degraded transition.
    let crashy: Vec<&AuditEvent> = events.iter().filter(|e| e.node == "crashy").collect();
    let faults: Vec<&str> = crashy
        .iter()
        .filter_map(|e| match &e.kind {
            AuditEventKind::FaultObserved {
                step,
                fault,
                count: 1,
            } => {
                assert_eq!(fault, "send_failed");
                Some(step.as_str())
            }
            _ => None,
        })
        .collect();
    assert_eq!(faults, vec!["cells", "tv"]);
    let failed: Vec<&str> = crashy
        .iter()
        .filter_map(|e| match &e.kind {
            AuditEventKind::StepFailed {
                step,
                error,
                wire_attempts: 1,
            } => {
                assert_eq!(error, "node thread dead");
                Some(step.as_str())
            }
            _ => None,
        })
        .collect();
    assert_eq!(failed, vec!["cells", "tv"]);
    assert!(crashy.iter().any(|e| matches!(
        &e.kind,
        AuditEventKind::TrustDelta { delta, reasons, .. }
            if *delta == -40.0 && reasons == &["cells".to_string(), "tv".to_string()]
    )));
    assert!(crashy.iter().any(|e| matches!(
        &e.kind,
        AuditEventKind::HealthTransition { from, to, consecutive_failures: 1 }
            if from == "healthy" && to == "degraded"
    )));
}

/// Claim 2: the full quarantine lifecycle — three straight partial
/// audits, a probe-gated quarantine round, and clean re-admission — is
/// replayable from the event log with exact transitions and deltas.
#[test]
fn quarantine_lifecycle_replays_from_event_log() {
    let sky = sky();
    let mut cloud = Cloud::new(sky.clone());
    cloud.obs = Obs::recording();
    cloud.retry_policy = RetryPolicy::quick();
    // No retries and a tight deadline: each wedge costs exactly one
    // timed-out attempt.
    cloud.retry_policy.max_attempts = 1;
    cloud.retry_policy.budgets.tv = Duration::from_millis(500);

    // Node-side requests: registration=0, then 4 per audit round. The
    // tv step (requests 4, 8, 12) wedges in rounds 1–3, then recovers.
    let mut agent = NodeAgent::new(
        Scenario::build(ScenarioKind::OpenField),
        NodeBehavior::Honest,
        sky.clone(),
    );
    agent.claims.name = "relapse".to_string();
    let link = spawn_node_with_faults(
        agent,
        LinkFaults {
            hang_on: vec![4, 8, 12],
            ..LinkFaults::none()
        },
        900,
    );
    assert_eq!(cloud.register(link).as_deref(), Some("relapse"));

    let mut healths = Vec::new();
    for round in 0..4u64 {
        cloud.audit_all(1000 + round);
        healths.push(cloud.health_report()[0].1);
    }
    assert_eq!(
        healths,
        vec![
            NodeHealth::Degraded,
            NodeHealth::Degraded,
            NodeHealth::Quarantined,
            NodeHealth::Healthy,
        ]
    );

    let events: Vec<AuditEvent> = cloud
        .obs
        .events_jsonl()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();

    // Health transitions, in order, with exact failure counts: the
    // second round changes nothing (still Degraded), so it emits none.
    let transitions: Vec<(String, String, u32)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            AuditEventKind::HealthTransition {
                from,
                to,
                consecutive_failures,
            } => Some((from.clone(), to.clone(), *consecutive_failures)),
            _ => None,
        })
        .collect();
    assert_eq!(
        transitions,
        vec![
            ("healthy".to_string(), "degraded".to_string(), 1),
            ("degraded".to_string(), "quarantined".to_string(), 3),
            ("quarantined".to_string(), "healthy".to_string(), 0),
        ]
    );

    // Trust deltas: −20 per lost tv step in rounds 1–3, nothing to
    // forgive in round 4.
    let deltas: Vec<(f64, Vec<String>)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            AuditEventKind::TrustDelta { delta, reasons, .. } => Some((*delta, reasons.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(deltas.len(), 4);
    for (delta, reasons) in &deltas[..3] {
        assert_eq!(*delta, -20.0);
        assert_eq!(reasons, &vec!["tv".to_string()]);
    }
    assert_eq!(deltas[3], (0.0, Vec::new()));

    // Each wedge is both observed as a fault and recorded as the step's
    // failure, with the transport's own words.
    let tv_failures = events
        .iter()
        .filter(|e| {
            matches!(
                &e.kind,
                AuditEventKind::StepFailed { step, error, wire_attempts: 1 }
                    if step == "tv" && error == "timed out"
            )
        })
        .count();
    assert_eq!(tv_failures, 3);

    // Round 4 leads with the quarantine probe before the full audit.
    assert!(events.iter().any(|e| matches!(
        &e.kind,
        AuditEventKind::StepCompleted { step, .. } if step == "probe"
    )));

    // Counter cross-check: 1 registration + 3×4 + probe + 4 wire calls,
    // three of which timed out with no retry budget.
    let c = |name: &str| cloud.obs.counter(name);
    assert_eq!(c("audit.rounds"), 4);
    assert_eq!(c("audit.steps_total"), 17, "16 audit steps + 1 probe");
    assert_eq!(c("audit.steps_failed"), 3);
    assert_eq!(c("wire.attempts"), 18);
    assert_eq!(c("wire.ok"), 15);
    assert_eq!(c("wire.timeouts"), 3);
    assert_eq!(c("wire.gave_up"), 3);
    assert_eq!(c("wire.retries"), 0);
    assert_eq!(c("health.transitions"), 3);
    cloud.shutdown();
}

/// Claim 3: a fully observed calibration (metrics registry + global
/// tracer) produces a bit-identical report to an unobserved one, and
/// the metrics agree with the report they watched.
#[test]
fn calibrator_report_unchanged_by_observability() {
    let s = Scenario::build(ScenarioKind::Rooftop);
    let plain = Calibrator::quick().calibrate(&s.world, &s.site, 42);

    let obs = Obs::recording();
    trace::enable();
    let watched = Calibrator::quick()
        .with_obs(obs.clone())
        .calibrate(&s.world, &s.site, 42);
    trace::disable();
    let spans = trace::drain();

    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&watched).unwrap(),
        "observability must not change the report"
    );

    // The registry saw the same pipeline the report describes.
    let snap = obs.snapshot();
    assert_eq!(
        snap.counters["survey.messages"],
        watched.survey.messages as u64
    );
    assert_eq!(
        snap.counters["survey.aircraft_observed"],
        watched.survey.aircraft_observed as u64
    );
    assert_eq!(snap.gauges["trust.score"], watched.trust.score);
    for stage in [
        "stage.survey",
        "stage.fov",
        "stage.profile",
        "stage.classify",
        "stage.trust",
    ] {
        let h = &snap.histograms[stage];
        assert_eq!(h.count, 1, "{stage} ran exactly once");
        assert!(h.sum > 0.0, "{stage} took measurable time");
    }
    // The tracer saw the instrumented kernels. (Other tests may add
    // spans concurrently — membership, not equality.)
    let names: Vec<String> = trace::summarize(&spans)
        .iter()
        .map(|s| s.name.clone())
        .collect();
    for expected in ["survey", "preamble_scan", "tv_sweep", "cell_scan"] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing span {expected}: {names:?}"
        );
    }
}
