//! Byzantine robustness, end to end: a crowd-sourced fleet where a
//! strict minority of sensors *lies* — spoofed ADS-B ghosts, replayed
//! stale surveys, inflated gain, frozen front ends, slow calibration
//! poisoning — must still converge on the honest consensus, and the
//! cloud must walk every liar down the quarantine ladder to eviction on
//! hard evidence, deterministically, without ever evicting an honest
//! node.
//!
//! Five claims:
//!
//! 1. coordinate-wise median fusion is steered only within the honest
//!    spread for any corrupted strict minority (`f < n/2`), and NaN
//!    poison changes nothing at all (property test);
//! 2. a mixed fleet campaign detects and evicts every adversary at an
//!    exact, replayable round — the full audit-event stream, verdicts,
//!    and health history are bit-identical across two runs — while all
//!    honest nodes stay `Healthy` with zero anomalies; round by round,
//!    every node's registry rung equals a bare `HealthLadder` fed its
//!    `(complete, anomalous)` outcomes, also when wire faults land
//!    between a cheater's convictions (a lost audit does not clear its
//!    anomaly run);
//! 3. killing the whole deployment mid-campaign (cloud *and* nodes) and
//!    restoring from snapshots resumes bit-identically: same evictions,
//!    same evidence strings, same fused consensus, byte-identical
//!    registry snapshot at the end;
//! 4. a node restarted from a stale snapshot that silently re-serves
//!    different requests is caught by ledger attestation as a history
//!    fork and quarantined on the spot;
//! 5. node snapshots reject every truncation and every single-bit flip
//!    with a typed error — never a panic, never a silently-wrong node.

use aircal::net::{
    spawn_node, spawn_node_with_faults, AdversaryKind, BurstOutage, Cloud, HealthLadder,
    LinkFaults, NodeAgent, NodeBehavior, NodeHealth, Request, RetryPolicy, VerificationVerdict,
};
use aircal::obs::{AuditEventKind, Obs};
use aircal::prelude::*;
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_core::freqprofile::{BandMeasurement, FrequencyProfile, SourceKind};
use aircal_core::robust::{fuse_profiles, FusionRule};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn sky() -> Arc<TrafficSim> {
    Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 40,
            ..TrafficConfig::paper_default(aircal_env::scenarios::testbed_origin())
        },
        4242,
    ))
}

fn new_cloud(sky: &Arc<TrafficSim>) -> Cloud {
    let mut cloud = Cloud::new(sky.clone());
    cloud.obs = Obs::recording();
    cloud.retry_policy = RetryPolicy::quick();
    cloud
}

// ---------------------------------------------------------------------------
// Claim 1: robust fusion under a corrupted strict minority (property)
// ---------------------------------------------------------------------------

/// A three-band profile whose values are `base` plus a per-node shift:
/// the synthetic fleet all measures the same sky, modulo installation.
fn synthetic_profile(base: f64, shift: f64) -> FrequencyProfile {
    let bands = [0.0, 11.0, 27.0]
        .iter()
        .enumerate()
        .map(|(i, off)| BandMeasurement {
            label: format!("band-{i}"),
            freq_hz: 500e6 + i as f64 * 8e6,
            source: SourceKind::BroadcastTv,
            measured_db: Some(base + off + shift),
            expected_clear_db: base + off,
        })
        .collect();
    FrequencyProfile {
        bands,
        missing_sources: Vec::new(),
    }
}

/// NaN-poisoned copy of [`synthetic_profile`]: every band reports NaN.
fn nan_profile() -> FrequencyProfile {
    let mut p = synthetic_profile(-60.0, 0.0);
    for b in &mut p.bands {
        b.measured_db = Some(f64::NAN);
    }
    p
}

proptest! {
    /// With `f < n/2` corrupted profiles offset arbitrarily far upward,
    /// the fused value of every band stays inside the honest spread —
    /// the liars can pick *which* honest-plausible value wins, never an
    /// implausible one. NaN poison is even weaker: it cannot move the
    /// fusion at all.
    #[test]
    fn median_fusion_recovers_honest_profile_under_minority_corruption(
        base in -85.0f64..-30.0,
        honest_shifts in proptest::collection::vec(-2.0f64..2.0, 3..=7),
        corrupt_offsets in proptest::collection::vec(8.0f64..80.0, 1..=6),
        poison_nan in proptest::any::<bool>(),
    ) {
        let h = honest_shifts.len();
        // Enforce the Byzantine bound: strictly more honest than corrupt.
        let f = corrupt_offsets.len().min(h - 1);

        let honest: Vec<FrequencyProfile> = honest_shifts
            .iter()
            .map(|s| synthetic_profile(base, *s))
            .collect();
        let corrupt: Vec<FrequencyProfile> = corrupt_offsets[..f]
            .iter()
            .map(|off| {
                if poison_nan {
                    nan_profile()
                } else {
                    synthetic_profile(base, *off)
                }
            })
            .collect();

        let honest_refs: Vec<&FrequencyProfile> = honest.iter().collect();
        let mut all_refs = honest_refs.clone();
        all_refs.extend(corrupt.iter());

        let fused_honest = fuse_profiles(&honest_refs, FusionRule::Median);
        let fused_all = fuse_profiles(&all_refs, FusionRule::Median);

        let hmin = honest_shifts.iter().copied().fold(f64::INFINITY, f64::min);
        let hmax = honest_shifts.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        for hb in &fused_honest.bands {
            let all_db = fused_all
                .fused_for(&hb.label, hb.source)
                .expect("every honest band survives fusion");
            let honest_db = hb.fused_db.expect("honest bands are finite");
            if poison_nan {
                // Non-finite samples are dropped before aggregation, so
                // the poisoned fleet fuses to the honest value exactly.
                prop_assert!(
                    (all_db - honest_db).abs() < 1e-12,
                    "NaN poison moved {} by {} dB",
                    hb.label,
                    all_db - honest_db
                );
            } else {
                // The fused value never leaves the honest envelope.
                let lo = honest_db + (hmin - hmax) - 1e-9;
                let hi = honest_db + (hmax - hmin) + 1e-9;
                prop_assert!(
                    all_db >= lo && all_db <= hi,
                    "{}: fused {all_db} left honest envelope [{lo}, {hi}] \
                     (h={h}, f={f})",
                    hb.label
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Claim 2: the adversarial fleet campaign
// ---------------------------------------------------------------------------

/// 6 honest installations (one legitimately lossy window node — large
/// residual, *no* anomaly) and one node per adversary kind: n = 11,
/// f = 5 < n/2.
fn campaign_fleet() -> Vec<(&'static str, ScenarioKind, Option<AdversaryKind>)> {
    vec![
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
    ]
}

const CAMPAIGN_ROUNDS: u64 = 8;
const CAMPAIGN_BASE_SEED: u64 = 2000;

struct CampaignRun {
    /// Per-round `(name, health)` snapshots, sorted by name.
    history: Vec<Vec<(String, NodeHealth)>>,
    /// Per-round verdict JSON (the replayable record).
    verdicts_json: Vec<String>,
    /// Round-0 and final-round verdict objects (for fusion math).
    first_verdicts: Vec<(String, Option<VerificationVerdict>)>,
    last_verdicts: Vec<(String, Option<VerificationVerdict>)>,
    /// Fused consensus after round 0 and after the final round.
    first_fused_json: String,
    last_fused_json: String,
    /// Final anomaly ladder: `(name, consecutive, eviction reason)`.
    anomalies: Vec<(String, u32, Option<String>)>,
    events_jsonl: String,
}

fn run_campaign() -> CampaignRun {
    let sky = sky();
    let cloud = new_cloud(&sky);
    for (i, (name, kind, adv)) in campaign_fleet().into_iter().enumerate() {
        let scenario = Scenario::build(kind);
        let mut agent = match adv {
            Some(kind) => {
                NodeAgent::with_adversary(scenario, sky.clone(), kind, 0xBAD5_EED0 + i as u64)
            }
            None => NodeAgent::new(scenario, NodeBehavior::Honest, sky.clone()),
        };
        agent.claims.name = name.to_string();
        assert_eq!(
            cloud
                .register(spawn_node(agent, 0.0, 7000 + i as u64))
                .as_deref(),
            Some(name)
        );
    }

    let mut history = Vec::new();
    let mut verdicts_json = Vec::new();
    let mut first_verdicts = Vec::new();
    let mut last_verdicts = Vec::new();
    let mut first_fused_json = String::new();
    let mut last_fused_json = String::new();
    for round in 0..CAMPAIGN_ROUNDS {
        // A fresh base seed per round: fingerprint repeats under a *new*
        // seed are what convict replayers and frozen front ends.
        let verdicts = cloud.audit_all(CAMPAIGN_BASE_SEED + round);
        verdicts_json.push(serde_json::to_string(&verdicts).unwrap());
        history.push(
            cloud
                .health_report()
                .into_iter()
                .map(|(name, health, _)| (name, health))
                .collect(),
        );
        let fused_json = serde_json::to_string(&cloud.fused_profile()).unwrap();
        if round == 0 {
            first_verdicts = verdicts;
            first_fused_json = fused_json;
        } else if round == CAMPAIGN_ROUNDS - 1 {
            last_verdicts = verdicts;
            last_fused_json = fused_json;
        }
    }
    let anomalies = cloud.anomaly_report();
    let events_jsonl = cloud.obs.events_jsonl();
    cloud.shutdown();
    CampaignRun {
        history,
        verdicts_json,
        first_verdicts,
        last_verdicts,
        first_fused_json,
        last_fused_json,
        anomalies,
        events_jsonl,
    }
}

/// Robustly fuse the complete profiles of the named honest nodes from
/// one round's verdicts — the oracle the cloud's own fusion is held to.
fn honest_only_fusion(verdicts: &[(String, Option<VerificationVerdict>)]) -> String {
    let profiles: Vec<&FrequencyProfile> = verdicts
        .iter()
        .filter(|(name, v)| name.starts_with("h-") && v.as_ref().is_some_and(|v| v.is_complete()))
        .map(|(_, v)| &v.as_ref().unwrap().profile)
        .collect();
    assert_eq!(profiles.len(), 6, "all six honest nodes audit complete");
    serde_json::to_string(&Some(fuse_profiles(&profiles, FusionRule::Median))).unwrap()
}

#[test]
fn adversarial_fleet_is_evicted_deterministically_and_honest_survive() {
    let run = run_campaign();

    // --- Exact detection timelines -------------------------------------
    // Spot-check (spoof) and physics overshoot (gain) need no history:
    // anomalous from round 0, evicted after 4 consecutive convictions.
    // Replay and frozen need one prior fingerprint under a different
    // seed: anomalous from round 1. Poison drifts 2.5 dB/round off its
    // round-0 baseline and crosses the 6 dB drift threshold in round 3.
    let eviction_round = |name: &str| -> Option<usize> {
        run.history.iter().position(|snap| {
            snap.iter()
                .any(|(n, h)| n == name && *h == NodeHealth::Evicted)
        })
    };
    assert_eq!(
        eviction_round("adv-spoof"),
        Some(3),
        "spoof evicted in round 3"
    );
    assert_eq!(
        eviction_round("adv-gain"),
        Some(3),
        "gain evicted in round 3"
    );
    assert_eq!(
        eviction_round("adv-replay"),
        Some(4),
        "replay evicted in round 4"
    );
    assert_eq!(
        eviction_round("adv-frozen"),
        Some(4),
        "frozen evicted in round 4"
    );
    assert_eq!(
        eviction_round("adv-poison"),
        Some(6),
        "poison evicted in round 6"
    );
    // Honest nodes are never even suspected before the liars are gone:
    // the fleet ends the campaign with exactly the 6 honest members.
    assert!(run
        .history
        .last()
        .unwrap()
        .iter()
        .all(|(n, h)| n.starts_with("adv") == (*h == NodeHealth::Evicted)));

    // Eviction is terminal: once out, out for every later round.
    for name in [
        "adv-spoof",
        "adv-gain",
        "adv-replay",
        "adv-frozen",
        "adv-poison",
    ] {
        let first = eviction_round(name).unwrap();
        for snap in &run.history[first..] {
            let (_, h) = snap.iter().find(|(n, _)| n == name).unwrap();
            assert_eq!(*h, NodeHealth::Evicted, "{name} stays evicted");
        }
    }

    // Every eviction carries its evidence, and names the check that
    // convicted the node — the replayable justification.
    let reason = |name: &str| -> String {
        run.anomalies
            .iter()
            .find(|(n, _, _)| n == name)
            .and_then(|(_, _, r)| r.clone())
            .unwrap_or_else(|| panic!("{name} has no eviction reason"))
    };
    assert!(
        reason("adv-spoof").starts_with("spot-check:"),
        "{}",
        reason("adv-spoof")
    );
    assert!(
        reason("adv-gain").starts_with("overshoot:"),
        "{}",
        reason("adv-gain")
    );
    assert!(
        reason("adv-replay").starts_with("replay:"),
        "{}",
        reason("adv-replay")
    );
    assert!(
        reason("adv-frozen").starts_with("frozen:"),
        "{}",
        reason("adv-frozen")
    );
    // By eviction time the poisoner's drift is so large it also trips the
    // absolute overshoot check, which is listed first; the slow drift
    // that convicted it is in the event log.
    assert!(
        reason("adv-poison").starts_with("overshoot:"),
        "{}",
        reason("adv-poison")
    );
    assert!(
        run.events_jsonl
            .lines()
            .any(|l| l.contains(r#""node":"adv-poison""#) && l.contains(r#""check":"drift""#)),
        "poison was convicted by the drift check"
    );
    // The terminal rung is reached in exactly `evicted_anomalies`
    // consecutive convictions — bounded detection, no lingering.
    for name in [
        "adv-spoof",
        "adv-gain",
        "adv-replay",
        "adv-frozen",
        "adv-poison",
    ] {
        let (_, consecutive, _) = run.anomalies.iter().find(|(n, _, _)| n == name).unwrap();
        assert_eq!(
            *consecutive, 4,
            "{name} evicted after exactly 4 convictions"
        );
    }

    // --- Honest nodes are never harmed ----------------------------------
    // Including the window node, whose 15–30 dB residual is an honest
    // installation fact, not ladder evidence.
    for snap in &run.history {
        for (name, health) in snap {
            if name.starts_with("h-") {
                assert_eq!(*health, NodeHealth::Healthy, "{name} never leaves Healthy");
            }
        }
    }
    for (name, consecutive, evicted) in &run.anomalies {
        if name.starts_with("h-") {
            assert_eq!(*consecutive, 0, "{name} has no anomaly run");
            assert!(evicted.is_none(), "{name} was never evicted");
        }
    }

    // --- Fusion recovers the honest consensus ---------------------------
    // Final round: every liar is evicted, so the cloud's fused profile
    // *is* the honest-only fusion, bit for bit.
    assert_eq!(run.last_fused_json, honest_only_fusion(&run.last_verdicts));
    // Round 0: all five liars still contribute (f = 5 < n/2 = 5.5), yet
    // on every band the fused consensus stays inside the envelope of
    // what the honest nodes actually measured — the median cannot be
    // steered to an honest-implausible value by a strict minority.
    let first_fused: Option<aircal_core::robust::FusedProfile> =
        serde_json::from_str(&run.first_fused_json).unwrap();
    let first_fused = first_fused.expect("round 0 fused a consensus");
    let mut compared = 0usize;
    for band in &first_fused.bands {
        let Some(fused_db) = band.fused_db else {
            continue;
        };
        let honest_vals: Vec<f64> = run
            .first_verdicts
            .iter()
            .filter(|(name, v)| name.starts_with("h-") && v.is_some())
            .filter_map(|(_, v)| {
                v.as_ref()
                    .unwrap()
                    .profile
                    .bands
                    .iter()
                    .find(|b| b.label == band.label && b.source == band.source)
                    .and_then(|b| b.measured_db)
                    .filter(|m| m.is_finite())
            })
            .collect();
        if honest_vals.is_empty() {
            continue;
        }
        let lo = honest_vals.iter().copied().fold(f64::INFINITY, f64::min) - 1e-9;
        let hi = honest_vals
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
            + 1e-9;
        assert!(
            fused_db >= lo && fused_db <= hi,
            "{}: round-0 fused {fused_db:.2} dB left the honest envelope [{lo:.2}, {hi:.2}]",
            band.label
        );
        compared += 1;
    }
    assert!(
        compared >= 8,
        "fleets overlap on at least 8 bands, got {compared}"
    );

    // --- Bit-identical replay -------------------------------------------
    let replay = run_campaign();
    assert_eq!(
        run.events_jsonl, replay.events_jsonl,
        "event stream replays bit-identically"
    );
    assert_eq!(
        run.verdicts_json, replay.verdicts_json,
        "verdicts replay bit-identically"
    );
    assert_eq!(
        format!("{:?}", run.history),
        format!("{:?}", replay.history),
        "health history replays bit-identically"
    );
    assert_eq!(
        format!("{:?}", run.anomalies),
        format!("{:?}", replay.anomalies),
        "anomaly ladder replays bit-identically"
    );
}

// ---------------------------------------------------------------------------
// Claim 2b: the registry walks one bare HealthLadder per node
// ---------------------------------------------------------------------------

/// Audit `fleet` for `rounds` rounds and, after every round, feed each
/// node's `(complete, anomalous)` outcome into a bare [`HealthLadder`]:
/// the registry's rung, link run and anomaly run must equal the bare
/// ladder's. Returns the per-round anomaly runs, keyed by node name.
fn audit_against_bare_ladders(
    fleet: Vec<(
        &'static str,
        ScenarioKind,
        Option<AdversaryKind>,
        LinkFaults,
    )>,
    rounds: u64,
) -> Vec<BTreeMap<String, (NodeHealth, u32)>> {
    let sky = sky();
    let cloud = new_cloud(&sky);
    for (i, (name, kind, adv, faults)) in fleet.into_iter().enumerate() {
        let scenario = Scenario::build(kind);
        let mut agent = match adv {
            Some(kind) => {
                NodeAgent::with_adversary(scenario, sky.clone(), kind, 0xBAD5_EED0 + i as u64)
            }
            None => NodeAgent::new(scenario, NodeBehavior::Honest, sky.clone()),
        };
        agent.claims.name = name.to_string();
        let link = spawn_node_with_faults(agent, faults, 7000 + i as u64);
        assert_eq!(cloud.register(link).as_deref(), Some(name));
    }
    let mut ladders: BTreeMap<String, HealthLadder> = BTreeMap::new();
    let mut history = Vec::new();
    for round in 0..rounds {
        let seen = cloud.obs.events().len();
        let verdicts = cloud.audit_all(CAMPAIGN_BASE_SEED + round);
        let events = cloud.obs.events();
        for (name, verdict) in &verdicts {
            let complete = verdict.as_ref().is_some_and(|v| v.is_complete());
            let anomalous = events[seen..].iter().any(|e| {
                e.node == *name && matches!(e.kind, AuditEventKind::AnomalyDetected { .. })
            });
            ladders.entry(name.clone()).or_default().record(
                &cloud.health_policy,
                complete,
                anomalous,
            );
        }
        let anomaly_runs: BTreeMap<String, u32> = cloud
            .anomaly_report()
            .into_iter()
            .map(|(name, run, _)| (name, run))
            .collect();
        let mut snap = BTreeMap::new();
        for (name, health, failures) in cloud.health_report() {
            let bare = ladders[&name];
            let anomalies = anomaly_runs[&name];
            assert_eq!(
                (health, failures, anomalies),
                (
                    bare.health,
                    bare.consecutive_failures,
                    bare.consecutive_anomalies
                ),
                "round {round}: {name} left the bare ladder"
            );
            snap.insert(name, (health, anomalies));
        }
        history.push(snap);
    }
    cloud.shutdown();
    history
}

#[test]
fn registry_health_equals_a_bare_ladder_every_round() {
    // The clean adversarial campaign of claim 2.
    let clean: Vec<_> = campaign_fleet()
        .into_iter()
        .map(|(name, kind, adv)| (name, kind, adv, LinkFaults::none()))
        .collect();
    audit_against_bare_ladders(clean, CAMPAIGN_ROUNDS);

    // Wire faults between the cheaters' anomalous rounds. Request 0 is
    // the registration and round r's describe/survey/cells/tv are wire
    // attempts 4r+1 … 4r+4; an outage as long as the retry budget (3
    // attempts) fails that step. `h-field` is cut off long enough to be
    // quarantined, fail its cheap probes, and be re-admitted.
    let outage = |start: u64, len: u64| LinkFaults {
        burst_outages: vec![BurstOutage { start, len }],
        ..LinkFaults::none()
    };
    let faulted = vec![
        (
            "adv-gain",
            ScenarioKind::OpenField,
            Some(AdversaryKind::GainInflate { db: 25.0 }),
            outage(8, 3),
        ),
        (
            "adv-replay",
            ScenarioKind::Rooftop,
            Some(AdversaryKind::ReplayStale),
            outage(11, 3),
        ),
        (
            "adv-spoof",
            ScenarioKind::OpenField,
            Some(AdversaryKind::SpoofAdsb { ghosts: 24 }),
            outage(10, 3),
        ),
        ("h-field", ScenarioKind::OpenField, None, outage(5, 20)),
        ("h-roof", ScenarioKind::Rooftop, None, LinkFaults::none()),
        (
            "h-window",
            ScenarioKind::BehindWindow,
            None,
            LinkFaults::none(),
        ),
    ];
    let history = audit_against_bare_ladders(faulted, CAMPAIGN_ROUNDS);
    let at = |round: usize, name: &str| history[round][name];
    // adv-gain: convicted in round 0, its round-1 tv sweep is lost, and
    // the failed round leaves its anomaly run at 1 instead of clearing
    // it; the conviction resumes at 2 in round 2.
    assert_eq!(at(0, "adv-gain"), (NodeHealth::Suspect, 1));
    assert_eq!(at(1, "adv-gain"), (NodeHealth::Degraded, 1));
    assert_eq!(at(2, "adv-gain"), (NodeHealth::Degraded, 2));
    // adv-spoof loses its round-2 survey between convictions the same way.
    assert_eq!(at(1, "adv-spoof"), (NodeHealth::Degraded, 2));
    assert_eq!(at(2, "adv-spoof"), (NodeHealth::Degraded, 2));
    let last = history.last().unwrap();
    for name in ["adv-gain", "adv-replay", "adv-spoof"] {
        assert_eq!(last[name].0, NodeHealth::Evicted, "{name} is still evicted");
    }
    assert!(
        history
            .iter()
            .any(|snap| snap["h-field"].0 == NodeHealth::Quarantined),
        "the cut-off honest node was quarantined"
    );
    assert_eq!(last["h-field"], (NodeHealth::Healthy, 0), "and re-admitted");
    for snap in &history {
        for name in ["h-roof", "h-window"] {
            assert_eq!(snap[name], (NodeHealth::Healthy, 0), "{name}");
        }
    }
}

// ---------------------------------------------------------------------------
// Claim 3: whole-deployment crash mid-campaign, restored from snapshots
// ---------------------------------------------------------------------------

fn restore_fleet() -> Vec<(&'static str, ScenarioKind, Option<AdversaryKind>)> {
    vec![
        (
            "adv-poison",
            ScenarioKind::OpenField,
            Some(AdversaryKind::CalibrationPoison { db_per_round: 2.5 }),
        ),
        ("h-field", ScenarioKind::OpenField, None),
        ("h-roof", ScenarioKind::Rooftop, None),
    ]
}

fn restore_agent(
    name: &str,
    kind: ScenarioKind,
    adv: Option<AdversaryKind>,
    sky: &Arc<TrafficSim>,
    i: usize,
) -> NodeAgent {
    let scenario = Scenario::build(kind);
    let mut agent = match adv {
        Some(kind) => NodeAgent::with_adversary(scenario, sky.clone(), kind, 0xFACE + i as u64),
        None => NodeAgent::new(scenario, NodeBehavior::Honest, sky.clone()),
    };
    agent.claims.name = name.to_string();
    agent
}

/// Everything the cloud knows at the end of a campaign, in comparable form.
struct FinalState {
    health: String,
    anomalies: String,
    last_verdicts_json: String,
    fused_json: String,
    registry_snapshot: Vec<u8>,
}

fn final_state(
    cloud: &Cloud,
    last_verdicts: &[(String, Option<VerificationVerdict>)],
) -> FinalState {
    FinalState {
        health: format!("{:?}", cloud.health_report()),
        anomalies: format!("{:?}", cloud.anomaly_report()),
        last_verdicts_json: serde_json::to_string(&last_verdicts.to_vec()).unwrap(),
        fused_json: serde_json::to_string(&cloud.fused_profile()).unwrap(),
        registry_snapshot: cloud.snapshot_registry(),
    }
}

const RESTORE_ROUNDS: u64 = 8;
const RESTORE_CRASH_AFTER: u64 = 4;
const RESTORE_BASE_SEED: u64 = 3000;

#[test]
fn mid_campaign_crash_restore_resumes_bit_identically() {
    let sky = sky();

    // Uninterrupted baseline.
    let baseline = {
        let cloud = new_cloud(&sky);
        for (i, (name, kind, adv)) in restore_fleet().into_iter().enumerate() {
            let agent = restore_agent(name, kind, adv, &sky, i);
            assert_eq!(
                cloud
                    .register(spawn_node(agent, 0.0, 7100 + i as u64))
                    .as_deref(),
                Some(name)
            );
        }
        let mut last = Vec::new();
        for round in 0..RESTORE_ROUNDS {
            last = cloud.audit_all(RESTORE_BASE_SEED + round);
        }
        let state = final_state(&cloud, &last);
        cloud.shutdown();
        state
    };
    // The baseline campaign itself convicts the poisoner (drift trips in
    // round 3, eviction in round 6 — after the crash point below).
    assert!(
        baseline.health.contains("Evicted"),
        "poison evicted: {}",
        baseline.health
    );

    // Interrupted run: same fleet, supervisors keep clones for snapshots.
    let cloud = new_cloud(&sky);
    let mut supervisors = Vec::new();
    for (i, (name, kind, adv)) in restore_fleet().into_iter().enumerate() {
        let agent = restore_agent(name, kind, adv, &sky, i);
        // Clones share the ledger and adversary state, so the supervisor
        // snapshots the *live* agent even after it moves into its thread.
        supervisors.push((name, kind, agent.clone()));
        assert_eq!(
            cloud
                .register(spawn_node(agent, 0.0, 7100 + i as u64))
                .as_deref(),
            Some(name)
        );
    }
    for round in 0..RESTORE_CRASH_AFTER {
        cloud.audit_all(RESTORE_BASE_SEED + round);
    }

    // Crash the whole deployment: snapshot every node and the registry,
    // then tear everything down.
    let node_snapshots: Vec<(&str, ScenarioKind, Vec<u8>)> = supervisors
        .iter()
        .map(|(name, kind, agent)| (*name, *kind, agent.snapshot()))
        .collect();
    let registry_snapshot = cloud.snapshot_registry();
    cloud.shutdown();

    // Cold start: fresh cloud, nodes rebuilt from their snapshots, the
    // registry's ladders and forensic history overlaid from its own.
    let cloud = new_cloud(&sky);
    for (i, (name, kind, snap)) in node_snapshots.iter().enumerate() {
        let agent = NodeAgent::restore(Scenario::build(*kind), sky.clone(), snap)
            .expect("node snapshot restores");
        assert_eq!(agent.claims.name, *name);
        assert_eq!(
            cloud
                .register(spawn_node(agent, 0.0, 7100 + i as u64))
                .as_deref(),
            Some(*name)
        );
    }
    assert_eq!(cloud.restore_registry(&registry_snapshot), Ok(3));

    // Resume the campaign where it died.
    let mut last = Vec::new();
    for round in RESTORE_CRASH_AFTER..RESTORE_ROUNDS {
        last = cloud.audit_all(RESTORE_BASE_SEED + round);
    }
    let resumed = final_state(&cloud, &last);
    cloud.shutdown();

    assert_eq!(
        resumed.health, baseline.health,
        "health ladder resumes identically"
    );
    assert_eq!(
        resumed.anomalies, baseline.anomalies,
        "anomaly evidence resumes identically"
    );
    assert_eq!(
        resumed.last_verdicts_json, baseline.last_verdicts_json,
        "final verdicts are bit-identical"
    );
    assert_eq!(
        resumed.fused_json, baseline.fused_json,
        "fused consensus is bit-identical"
    );
    assert_eq!(
        resumed.registry_snapshot, baseline.registry_snapshot,
        "final registry snapshots are byte-identical"
    );
}

// ---------------------------------------------------------------------------
// Claim 4: history forks are caught by attestation
// ---------------------------------------------------------------------------

#[test]
fn stale_snapshot_restart_is_flagged_as_history_fork_and_quarantined() {
    let sky = sky();
    let cloud = new_cloud(&sky);
    let mut agent = NodeAgent::new(
        Scenario::build(ScenarioKind::OpenField),
        NodeBehavior::Honest,
        sky.clone(),
    );
    agent.claims.name = "h-solo".to_string();
    let supervisor = agent.clone();
    assert_eq!(
        cloud.register(spawn_node(agent, 0.0, 7200)).as_deref(),
        Some("h-solo")
    );

    // Round A: audit, then checkpoint the service ledger.
    cloud.audit_all(5000);
    assert_eq!(cloud.attest_all(), vec![("h-solo".to_string(), true)]);
    // Re-attesting with nothing new served is also consistent.
    assert_eq!(cloud.attest_all(), vec![("h-solo".to_string(), true)]);

    // The operator keeps a snapshot from *now*…
    let stale = supervisor.snapshot();

    // …while the node serves another audit, which the cloud checkpoints.
    cloud.audit_all(5001);
    assert_eq!(cloud.attest_all(), vec![("h-solo".to_string(), true)]);

    // Crash-restart from the stale snapshot: the restarted node silently
    // re-serves a *different* round than the one the cloud recorded.
    let restored = NodeAgent::restore(
        Scenario::build(ScenarioKind::OpenField),
        sky.clone(),
        &stale,
    )
    .expect("stale snapshot still parses");
    assert!(cloud.reattach("h-solo", spawn_node(restored, 0.0, 7201)));
    cloud.audit_all(5002);

    // Attestation walks the chain back to the recorded checkpoint and
    // finds a different history there: fork detected, quarantined.
    assert_eq!(cloud.attest_all(), vec![("h-solo".to_string(), false)]);
    let report = cloud.health_report();
    assert_eq!(report.len(), 1);
    assert_eq!(
        report[0].1,
        NodeHealth::Quarantined,
        "forked node is quarantined"
    );
    assert!(
        cloud.obs.events_jsonl().contains("history-fork"),
        "the fork is in the audit log"
    );
    cloud.shutdown();
}

// ---------------------------------------------------------------------------
// Claim 5: snapshot corruption never panics, never half-restores
// ---------------------------------------------------------------------------

#[test]
fn node_snapshots_reject_every_truncation_and_bit_flip() {
    let sky = sky();
    let scenario = Scenario::build(ScenarioKind::OpenField);
    let agent = NodeAgent::with_adversary(
        scenario.clone(),
        sky.clone(),
        AdversaryKind::CalibrationPoison { db_per_round: 2.5 },
        7,
    );
    // Populate the durable state: ledger entries and adversary drift.
    let _ = agent.handle(&Request::RunSurvey {
        config: SurveyConfig::quick(),
        seed: 11,
    });
    let _ = agent.handle(&Request::ScanCells { seed: 12 });
    let _ = agent.handle(&Request::SweepTv { seed: 13 });

    let snap = agent.snapshot();

    // The pristine snapshot round-trips exactly.
    let back = NodeAgent::restore(scenario.clone(), sky.clone(), &snap).unwrap();
    assert_eq!(back.claims, agent.claims);
    assert_eq!(back.ledger(), agent.ledger());
    assert_eq!(
        back.adversary.as_ref().unwrap().state(),
        agent.adversary.as_ref().unwrap().state()
    );

    // Every truncation fails with a typed error.
    for len in 0..snap.len() {
        let res = NodeAgent::restore(scenario.clone(), sky.clone(), &snap[..len]);
        assert!(res.is_err(), "truncation to {len} bytes must be rejected");
    }

    // Every single-bit flip fails with a typed error: the header fields
    // are each validated, and the CRC covers the whole payload.
    for i in 0..snap.len() {
        for bit in 0..8 {
            let mut bad = snap.clone();
            bad[i] ^= 1 << bit;
            let res = NodeAgent::restore(scenario.clone(), sky.clone(), &bad);
            assert!(
                res.is_err(),
                "bit {bit} of byte {i} flipped must be rejected"
            );
        }
    }
}
