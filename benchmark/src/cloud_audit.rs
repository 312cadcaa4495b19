//! `cloud_audit`: one `Cloud` audits an adversarial fleet (six honest
//! nodes, one node per adversary kind) over fault-free in-process links,
//! one `audit_all` round after another, each round under a fresh seed.
//! This is the only workload that runs the transport, the judge, the
//! consistency pass, the health ladders and the real cloud's WAL.

use crate::report::Outcome;
use crate::spans::Spans;
use crate::{setup_median, timed, timing_metrics, Args};
use aircal::aircraft::{TrafficConfig, TrafficSim};
use aircal::dsp::derive_stream_seed;
use aircal::env::scenarios::testbed_origin;
use aircal::env::{Scenario, ScenarioKind};
use aircal::net::{
    spawn_node, AdversaryKind, Cloud, NodeAgent, NodeBehavior, NodeHealth, Request, Response,
    RetryPolicy, StepOutcome, VerificationVerdict,
};
use aircal::obs::Obs;
use std::sync::Arc;
use std::time::Instant;

/// `(node name, installation, adversary)`, sorted by name so the row
/// index is also the node's index in the cloud's registry (which fixes
/// its per-round audit seed).
pub type FleetRow = (&'static str, ScenarioKind, Option<AdversaryKind>);

/// The robustness fleet of the perfreport campaign and the byzantine
/// suite.
pub const FLEET: [FleetRow; 11] = [
    (
        "adv-frozen",
        ScenarioKind::Rooftop,
        Some(AdversaryKind::FrozenFrontend),
    ),
    (
        "adv-gain",
        ScenarioKind::OpenField,
        Some(AdversaryKind::GainInflate { db: 25.0 }),
    ),
    (
        "adv-poison",
        ScenarioKind::OpenField,
        Some(AdversaryKind::CalibrationPoison { db_per_round: 2.5 }),
    ),
    (
        "adv-replay",
        ScenarioKind::Rooftop,
        Some(AdversaryKind::ReplayStale),
    ),
    (
        "adv-spoof",
        ScenarioKind::OpenField,
        Some(AdversaryKind::SpoofAdsb { ghosts: 24 }),
    ),
    ("h-canyon", ScenarioKind::UrbanCanyon, None),
    ("h-field-a", ScenarioKind::OpenField, None),
    ("h-field-b", ScenarioKind::OpenField, None),
    ("h-roof-a", ScenarioKind::Rooftop, None),
    ("h-roof-b", ScenarioKind::Rooftop, None),
    ("h-window", ScenarioKind::BehindWindow, None),
];

/// The poison adversary is evicted in round 6 (0-based), so every run
/// audits at least this many rounds.
pub const MIN_ROUNDS: u64 = 8;

/// The audit seed of round `round`: a pure function of the workload seed.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    derive_stream_seed(seed ^ 0xA0D1_7000_0000_0000, round)
}

/// The seed `Cloud::audit_all` gives the node at registry index `i`.
fn node_seed(round_seed: u64, i: usize) -> u64 {
    round_seed.wrapping_add(i as u64 * 0x9E37_79B9)
}

/// Node `i` of [`FLEET`], built fresh (its own adversary state).
pub fn agent(i: usize, sky: &Arc<TrafficSim>) -> NodeAgent {
    let (name, kind, adversary) = FLEET[i];
    let scenario = Scenario::build(kind);
    let mut agent = match adversary {
        Some(k) => NodeAgent::with_adversary(scenario, sky.clone(), k, 0xBAD5_EED0 + i as u64),
        None => NodeAgent::new(scenario, NodeBehavior::Honest, sky.clone()),
    };
    agent.claims.name = name.to_string();
    agent
}

fn sky() -> Arc<TrafficSim> {
    Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 40,
            ..TrafficConfig::paper_default(testbed_origin())
        },
        4242,
    ))
}

/// A cloud with the campaign's settings: quick retry budgets and the
/// commissioned survey pinned to one worker thread.
fn new_cloud(sky: Arc<TrafficSim>) -> Cloud {
    let mut cloud = Cloud::new(sky);
    cloud.retry_policy = RetryPolicy::quick();
    cloud.survey_config.parallelism = 1;
    cloud
}

/// Build the sky and every node, spawn each behind a fault-free link and
/// register it. Metrics are recorded from the first audit on.
fn fleet() -> Cloud {
    let sky = sky();
    let mut cloud = new_cloud(sky.clone());
    for i in 0..FLEET.len() {
        cloud
            .register(spawn_node(agent(i, &sky), 0.0, 7000 + i as u64))
            .expect("fault-free link registers");
    }
    cloud.obs = Obs::recording();
    // Warm-up: a throwaway cloud audits a throwaway twin of one honest
    // node, so one-time costs are not charged to the first round. The
    // fleet itself is untouched (adversaries keep state across audits).
    let mut warm_link = spawn_node(agent(WARM_UP_NODE, &sky), 0.0, 0);
    std::hint::black_box(new_cloud(sky).audit_one(&mut warm_link, 0));
    warm_link.shutdown();
    cloud
}

/// The honest rooftop node, twinned for the set-up warm-up.
const WARM_UP_NODE: usize = 8;

fn is_adversary(name: &str) -> bool {
    FLEET.iter().any(|(n, _, adv)| *n == name && adv.is_some())
}

/// No honest node may ever reach Quarantined; once the campaign is over
/// (`finished`), every adversary must be Evicted.
pub fn check_health(health: &[(String, NodeHealth, u32)], finished: bool) -> Result<(), String> {
    for (name, h, _) in health {
        let adversary = is_adversary(name);
        if !adversary && h.severity() >= NodeHealth::Quarantined.severity() {
            return Err(format!("honest node {name} is {h}"));
        }
        if adversary && finished && *h != NodeHealth::Evicted {
            return Err(format!("adversary {name} survived as {h}"));
        }
    }
    Ok(())
}

fn active_nodes(cloud: &Cloud) -> usize {
    cloud
        .health_report()
        .iter()
        .filter(|(_, h, _)| *h != NodeHealth::Evicted)
        .count()
}

/// Untraced run: `audit_all` rounds until `seconds` have passed (and at
/// least [`MIN_ROUNDS`]), each round timed on its own.
pub fn run(args: &Args) -> Outcome {
    let (setup_s, cloud) = setup_median(fleet);
    let mut o = Outcome::default();
    let mut times = Vec::new();
    let mut audited = 0usize;
    let mut problems = Vec::new();
    let started = Instant::now();
    let mut round = 0u64;
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        audited += active_nodes(&cloud);
        let t = Instant::now();
        std::hint::black_box(cloud.audit_all(round_seed(args.seed, round)));
        times.push(t.elapsed().as_secs_f64());
        problems.extend(check_health(&cloud.health_report(), false).err());
        round += 1;
    }
    problems.extend(check_health(&cloud.health_report(), true).err());
    for p in &problems {
        eprintln!("cloud_audit: {p}");
    }
    o.correct = problems.is_empty();
    o.attempted = cloud.obs.counter("audit.steps_total");
    o.failed = cloud.obs.counter("audit.steps_failed");
    o.note("rounds", round);
    o.note("audited_nodes", audited);
    o.note("tv_sweep_threads", aircal::dsp::resolve_parallelism(0));
    cloud.shutdown();
    let ops_per_s = audited as f64 / times.iter().sum::<f64>();
    timing_metrics(&mut o, ops_per_s, &times, setup_s, "audit_all round");
    o
}

/// Wall seconds spent in each outside-timed layer call, summed.
#[derive(Default)]
struct Calls {
    describe: f64,
    survey: f64,
    cells: f64,
    tv: f64,
    judge: f64,
    judge_partial: f64,
}

/// Replay one node's audit outside the cloud: its in-process twin serves
/// each request through `NodeAgent::handle` (timed per kind), then a
/// second cloud judges the replies with `judge` and `judge_partial`
/// (both timed). Returns the `judge_partial` verdict.
fn replay_audit(
    twin: &NodeAgent,
    judge: &Cloud,
    seed: u64,
    calls: &mut Calls,
) -> Result<VerificationVerdict, String> {
    let claims = match timed(&mut calls.describe, || twin.handle(&Request::Describe)) {
        Response::Description(c) => c,
        other => return Err(format!("describe answered {}", other.kind())),
    };
    let survey = match timed(&mut calls.survey, || {
        twin.handle(&Request::RunSurvey {
            config: judge.survey_config,
            seed,
        })
    }) {
        Response::Survey(s) => s,
        other => return Err(format!("survey answered {}", other.kind())),
    };
    let cells = match timed(&mut calls.cells, || {
        twin.handle(&Request::ScanCells {
            seed: seed ^ 0xCE11,
        })
    }) {
        Response::Cells(c) => c,
        other => return Err(format!("cells answered {}", other.kind())),
    };
    let tv = match timed(&mut calls.tv, || {
        twin.handle(&Request::SweepTv {
            seed: seed ^ 0x7E1E,
        })
    }) {
        Response::Tv(t) => t,
        other => return Err(format!("tv answered {}", other.kind())),
    };
    let inputs = (claims.clone(), survey.clone(), cells.clone(), tv.clone());
    std::hint::black_box(timed(&mut calls.judge, || {
        judge.judge(inputs.0, inputs.1, inputs.2, inputs.3, seed)
    }));
    Ok(timed(&mut calls.judge_partial, || {
        judge.judge_partial(
            claims,
            StepOutcome::Complete(survey),
            StepOutcome::Complete(cells),
            StepOutcome::Complete(tv),
            seed,
        )
    }))
}

fn verdicts_json(v: &Vec<(String, Option<VerificationVerdict>)>) -> String {
    serde_json::to_string(v).expect("verdicts serialize")
}

fn verdict_json(v: &VerificationVerdict) -> String {
    serde_json::to_string(v).expect("verdict serializes")
}

/// Traced run. Each round is audited by two identical fleets, one with
/// tracing off and one with it on (their ratio is the tracing overhead);
/// the traced one's spans and `Obs` counters give the PHY, link and WAL
/// figures. Every audited node is then replayed outside the cloud on an
/// in-process twin (node service and judge times), and checked against
/// `Cloud::audit_one` of a third, spawned twin under the same seed. Layer
/// times are ms per `audit_all` round.
pub fn run_traced(args: &Args) -> Outcome {
    let (_, plain) = setup_median(fleet);
    let traced = fleet();
    let sky = traced.sky.clone();
    let twins: Vec<NodeAgent> = (0..FLEET.len()).map(|i| agent(i, &sky)).collect();
    let judge = new_cloud(sky.clone());
    let reference = new_cloud(sky.clone());
    let mut reference_links: Vec<_> = (0..FLEET.len())
        .map(|i| spawn_node(agent(i, &sky), 0.0, 9000 + i as u64))
        .collect();

    let mut o = Outcome::default();
    let mut calls = Calls::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let (mut link_call, mut survey, mut render, mut decode) = (0.0, 0.0, 0.0, 0.0);
    let (mut cell_scan, mut tv_sweep, mut preamble_scans) = (0.0, 0.0, 0u64);
    let mut problems = Vec::new();
    let started = Instant::now();
    let mut round = 0u64;
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        let seed = round_seed(args.seed, round);
        let health = traced.health_report();
        let plain_verdicts = timed(&mut plain_s, || plain.audit_all(seed));
        let (traced_verdicts, spans) =
            Spans::record(|| timed(&mut traced_s, || traced.audit_all(seed)));
        if verdicts_json(&plain_verdicts) != verdicts_json(&traced_verdicts) {
            problems.push(format!("round {round}: tracing changed the verdicts"));
        }
        link_call += spans.secs("link_call");
        survey += spans.secs("survey");
        render += spans.secs("render_windows");
        decode += spans.secs("decode_windows");
        preamble_scans += spans.count("preamble_scan");
        cell_scan += spans.secs("cell_scan");
        tv_sweep += spans.secs("tv_sweep");

        for (i, (name, h, _)) in health.iter().enumerate() {
            if *h == NodeHealth::Evicted {
                continue;
            }
            let seed = node_seed(seed, i);
            let replayed = replay_audit(&twins[i], &judge, seed, &mut calls);
            let audited = reference.audit_one(&mut reference_links[i], seed);
            match (replayed, audited) {
                (Err(e), _) => problems.push(format!("round {round} {name}: {e}")),
                (Ok(r), Some(a)) if verdict_json(&r) == verdict_json(&a) => {}
                _ => problems.push(format!(
                    "round {round} {name}: replayed verdict differs from Cloud::audit_one"
                )),
            }
        }
        problems.extend(check_health(&traced.health_report(), false).err());
        round += 1;
    }
    problems.extend(check_health(&traced.health_report(), true).err());
    for p in &problems {
        eprintln!("cloud_audit: {p}");
    }
    o.correct = problems.is_empty();
    o.attempted = traced.obs.counter("audit.steps_total");
    o.failed = traced.obs.counter("audit.steps_failed");

    let r = round as f64;
    let ms = |secs: f64| 1e3 * secs / r;
    let per = |name: &str| traced.obs.counter(name) as f64 / r;
    let service = calls.describe + calls.survey + calls.cells + calls.tv;
    for (name, value) in [
        ("core.survey_ms", ms(survey - render - decode)),
        ("survey.messages", per("survey.messages")),
        ("survey.skipped_low_snr", per("survey.skipped_low_snr")),
        ("sdr.render_windows_ms", ms(render)),
        ("core.decode_windows_ms", ms(decode)),
        ("adsb.preamble_scans", preamble_scans as f64 / r),
        ("cellular.scan_ms", ms(cell_scan)),
        ("tv.sweep_ms", ms(tv_sweep)),
        ("net.node_service_ms.survey", ms(calls.survey)),
        ("net.node_service_ms.cells", ms(calls.cells)),
        ("net.node_service_ms.tv", ms(calls.tv)),
        ("net.link_call_ms", ms(link_call)),
        ("net.transport_ms", ms(link_call - service)),
        ("wire.attempts", per("wire.attempts")),
        ("wire.retries", per("wire.retries")),
        ("net.judge_ms", ms(calls.judge)),
        (
            "net.judge_overhead_ms",
            ms(calls.judge_partial - calls.judge),
        ),
        (
            "net.round_commit_ms",
            ms(traced_s - link_call - calls.judge_partial),
        ),
        ("audit.anomalies", per("audit.anomalies")),
        ("audit.evictions", per("audit.evictions")),
        ("wal.append", per("wal.append")),
        ("wal.sync", per("wal.sync")),
        (
            "wal.bytes_per_round",
            traced.journal_bytes().len() as f64 / r,
        ),
        ("harness_share", render / traced_s),
        ("trace_overhead_ratio", traced_s / plain_s),
    ] {
        o.metric(name, value);
    }
    o.note("rounds", round);
    o.note("tv_sweep_threads", aircal::dsp::resolve_parallelism(0));
    plain.shutdown();
    traced.shutdown();
    drop(reference_links);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(overrides: &[(&str, NodeHealth)]) -> Vec<(String, NodeHealth, u32)> {
        FLEET
            .iter()
            .map(|(name, _, adv)| {
                let h = overrides
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, h)| *h)
                    .unwrap_or(if adv.is_some() {
                        NodeHealth::Evicted
                    } else {
                        NodeHealth::Healthy
                    });
                (name.to_string(), h, 0)
            })
            .collect()
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(round_seed(9, 3), round_seed(9, 3));
        assert_ne!(round_seed(9, 3), round_seed(10, 3));
        assert_ne!(round_seed(9, 3), round_seed(9, 4));
        // Row order is registry (name) order, which fixes each node's seed.
        let names: Vec<&str> = FLEET.iter().map(|r| r.0).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
        assert_eq!(FLEET.iter().filter(|r| r.2.is_some()).count(), 5);
        assert!(
            FLEET[WARM_UP_NODE].2.is_none(),
            "the warm-up twin is honest"
        );
    }

    #[test]
    fn health_check_rejects_a_quarantined_honest_node_and_a_surviving_adversary() {
        check_health(&health(&[]), true).expect("the expected end state passes");
        check_health(&health(&[("adv-poison", NodeHealth::Suspect)]), false)
            .expect("adversaries may still be climbing the ladder mid-campaign");
        assert!(check_health(&health(&[("adv-poison", NodeHealth::Suspect)]), true).is_err());
        for bad in [NodeHealth::Quarantined, NodeHealth::Evicted] {
            assert!(check_health(&health(&[("h-window", bad)]), false).is_err());
        }
    }
}
