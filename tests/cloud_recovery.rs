//! Crash-tolerant cloud: the ISSUE 10 acceptance suite.
//!
//! The cloud journals every audit-round effect to a CRC-framed
//! write-ahead journal before applying it, checkpoints the registry at
//! round boundaries, and rebuilds from `snapshot + journal replay` after
//! a crash. These tests pin the two properties that make that durable
//! state trustworthy:
//!
//! * **crash transparency** — a fleet audited across a cloud crash and
//!   recovery ends in registry state bit-identical (FNV digest over the
//!   durable per-node encoding) to the same fleet audited by a cloud
//!   that never died, including a node behind a burst-outage partition
//!   and nodes whose replies are duplicated or reordered in flight;
//! * **exactly-once effects** — at-least-once delivery (duplicated
//!   frames, partition-absorbed retries) leaves durable state
//!   bit-identical to a fault-free wire, at the threaded transport level
//!   and, via proptest schedules, across 200-node simulated campaigns
//!   with arbitrary duplicate/reorder/crash plans.

use aircal::core::wal::{Journal, WalRecord};
use aircal::net::{
    spawn_node_with_faults, BurstOutage, Cloud, Link, LinkFaults, NodeAgent, NodeBehavior,
    RetryPolicy, SnapshotError,
};
use aircal::obs::Obs;
use aircal::sim::{run, CampaignConfig};
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_env::{scenarios::testbed_origin, Scenario, ScenarioKind};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn sky() -> Arc<TrafficSim> {
    Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 30,
            ..TrafficConfig::paper_default(testbed_origin())
        },
        7117,
    ))
}

/// The recovery fleet: a clean control, a node severed by a burst
/// outage shorter than the retry budget (a partition the transport
/// rides out), a node whose replies get duplicated, and one whose
/// replies arrive late behind newer traffic (reorder → timeout →
/// retry). Each entry is `(name, scenario, faults, link_seed)`.
fn fleet(faulted: bool) -> Vec<(&'static str, ScenarioKind, LinkFaults, u64)> {
    let f = |faults: LinkFaults| if faulted { faults } else { LinkFaults::none() };
    vec![
        (
            "alpha-steady",
            ScenarioKind::OpenField,
            LinkFaults::none(),
            501,
        ),
        (
            "bravo-partitioned",
            ScenarioKind::Rooftop,
            f(LinkFaults {
                burst_outages: vec![BurstOutage { start: 5, len: 2 }],
                ..LinkFaults::none()
            }),
            502,
        ),
        (
            "charlie-duplicated",
            ScenarioKind::OpenField,
            f(LinkFaults {
                duplicate_on: vec![2, 6],
                ..LinkFaults::none()
            }),
            503,
        ),
        (
            "delta-reordered",
            ScenarioKind::Rooftop,
            f(LinkFaults {
                reorder_on: vec![4],
                ..LinkFaults::none()
            }),
            504,
        ),
    ]
}

fn build_cloud(sky: &Arc<TrafficSim>, faulted: bool) -> Cloud {
    let mut cloud = Cloud::new(sky.clone());
    cloud.retry_policy = RetryPolicy::quick();
    for (name, kind, faults, link_seed) in fleet(faulted) {
        let mut agent = NodeAgent::new(Scenario::build(kind), NodeBehavior::Honest, sky.clone());
        agent.claims.name = name.to_string();
        let link = spawn_node_with_faults(agent, faults, link_seed);
        assert_eq!(cloud.register(link).as_deref(), Some(name));
    }
    cloud
}

/// ≥1 cloud crash + ≥1 partition: the cloud audits the fleet, takes a
/// checkpoint, audits again, then dies mid-campaign. Recovery from the
/// checkpoint snapshot plus the journal's `NodeState` upserts must land
/// on the exact registry state the continuous-run cloud holds at the
/// same point, and the next audit round must continue bit-identically.
#[test]
fn crashed_cloud_recovers_bit_identically_to_continuous_run() {
    let sky = sky();

    // Continuous twin: same fleet, same fault plans, cloud never dies.
    let continuous = build_cloud(&sky, true);
    continuous.audit_all(1001);
    continuous.audit_all(1002);
    let mid_digest = continuous.registry_digest();
    continuous.audit_all(1003);
    let final_digest = continuous.registry_digest();
    let final_health = continuous.health_report();
    let final_anomalies = continuous.anomaly_report();
    continuous.shutdown();

    // Crashy run: checkpoint after round 1, crash after round 2.
    let cloud = build_cloud(&sky, true);
    cloud.audit_all(1001);
    let snapshot = cloud.checkpoint();
    cloud.audit_all(1002);
    let (links, journal_bytes) = cloud.crash();
    assert_eq!(links.len(), 4, "node daemons outlive the cloud");

    let obs = Obs::recording();
    let (recovered, report) =
        Cloud::recover(sky.clone(), Some(&snapshot), &journal_bytes, links, obs)
            .expect("snapshot + journal recover");
    assert!(
        report.recovered_records > 0,
        "round 2 left records to replay: {report:?}"
    );
    assert!(
        report.applied_upserts > 0,
        "replay re-applied node upserts: {report:?}"
    );
    assert_eq!(
        report.truncated_bytes, 0,
        "a synced journal has no torn tail"
    );
    assert_eq!(recovered.obs.counter("wal.recoveries"), 1);
    assert!(recovered.obs.counter("wal.replay") >= report.applied_upserts);

    assert_eq!(
        recovered.registry_digest(),
        mid_digest,
        "recovered registry is bit-identical to the continuous cloud's"
    );

    // The recovered cloud continues the campaign as if nothing happened.
    recovered.audit_all(1003);
    assert_eq!(recovered.registry_digest(), final_digest);
    assert_eq!(recovered.health_report(), final_health);
    assert_eq!(recovered.anomaly_report(), final_anomalies);

    // The retry split (satellite): the partitioned node limped through
    // on retries, the duplicated node's extra frames were drained as
    // stale, the control did everything first-try — and all of it is
    // visible in the per-link counters, crash notwithstanding.
    let stats = recovered.link_stats();
    let by_name = |n: &str| {
        stats
            .iter()
            .find(|(name, _)| name == n)
            .unwrap_or_else(|| panic!("{n} registered"))
            .1
    };
    let bravo = by_name("bravo-partitioned");
    assert!(
        bravo.retried_ok > 0,
        "outage absorbed by retries: {bravo:?}"
    );
    let charlie = by_name("charlie-duplicated");
    assert!(
        charlie.stale_drained > 0,
        "duplicate copies drained: {charlie:?}"
    );
    let delta = by_name("delta-reordered");
    assert!(
        delta.timeouts > 0,
        "reordered reply cost a timeout: {delta:?}"
    );
    assert!(delta.retried_ok > 0, "…and the retry succeeded: {delta:?}");
    let alpha = by_name("alpha-steady");
    assert_eq!(alpha.retried_ok, 0, "control never retried: {alpha:?}");
    assert!(
        alpha.first_try_ok > 0,
        "control succeeds first-try: {alpha:?}"
    );
    recovered.shutdown();
}

/// Exactly-once at the wire: a fleet whose links duplicate replies and
/// black-hole requests (absorbed by retries, never reaching the node)
/// ends with durable registry state bit-identical to the same fleet on
/// perfect links. Reorder is excluded *by design*: a reordered reply
/// forces a retry the node services a second time, which the attested
/// service ledger is supposed to notice — that divergence is the
/// feature, not a bug.
#[test]
fn absorbed_wire_faults_leave_registry_identical_to_fault_free_run() {
    let sky = sky();
    let digest_of = |faults: LinkFaults, seeds: [u64; 2]| {
        let mut cloud = Cloud::new(sky.clone());
        cloud.retry_policy = RetryPolicy::quick();
        for (name, link_seed) in [("node-a", seeds[0]), ("node-b", seeds[1])] {
            let mut agent = NodeAgent::new(
                Scenario::build(ScenarioKind::OpenField),
                NodeBehavior::Honest,
                sky.clone(),
            );
            agent.claims.name = name.to_string();
            let link = spawn_node_with_faults(agent, faults.clone(), link_seed);
            assert_eq!(cloud.register(link).as_deref(), Some(name));
        }
        cloud.audit_all(2001);
        cloud.audit_all(2002);
        let digest = cloud.registry_digest();
        let health = cloud.health_report();
        cloud.shutdown();
        (digest, health)
    };

    let clean = digest_of(LinkFaults::none(), [601, 602]);
    let faulted = digest_of(
        LinkFaults {
            burst_outages: vec![BurstOutage { start: 4, len: 2 }],
            duplicate_on: vec![2, 7],
            ..LinkFaults::none()
        },
        [601, 602],
    );
    assert_eq!(
        faulted, clean,
        "at-least-once delivery must not move one bit of durable state"
    );
}

/// A snapshot/journal pair that don't belong together is refused: the
/// journal's opening `SnapshotTaken` record carries the CRC of the
/// snapshot it was reset against, and recovery checks it.
#[test]
fn recovery_refuses_a_mismatched_snapshot_journal_pair() {
    let sky = sky();
    let cloud = build_cloud(&sky, false);
    cloud.audit_all(3001);
    let snapshot = cloud.checkpoint();
    cloud.audit_all(3002);
    let (links, journal_bytes) = cloud.crash();

    // Corrupt one byte of the snapshot body: the CRC chained into the
    // journal no longer matches.
    let mut tampered = snapshot.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x01;
    let err = Cloud::recover(
        sky.clone(),
        Some(&tampered),
        &journal_bytes,
        links,
        Obs::default(),
    )
    .err()
    .expect("tampered snapshot must be refused");
    match err {
        SnapshotError::ChecksumMismatch { .. } => {}
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
}

/// Recover from `snapshot` plus every byte prefix of `journal`, and
/// require each registry to equal one of the committed states: the
/// snapshot's (`committed[0]`), or the state after the last round whose
/// `RoundCompleted` marker the prefix holds whole (`committed[k]` after
/// k markers). A round torn anywhere before its marker must vanish
/// whole. Shuts the nodes down at the end.
fn every_cut_recovers_a_committed_state(
    sky: &Arc<TrafficSim>,
    snapshot: &[u8],
    journal: &[u8],
    mut links: Vec<(String, Link)>,
    committed: &[u64],
) {
    for w in committed.windows(2) {
        assert_ne!(w[0], w[1], "every committed round moves durable state");
    }
    for cut in 0..=journal.len() {
        let torn = &journal[..cut];
        let markers = Journal::open(torn)
            .0
            .records()
            .iter()
            .filter(|r| matches!(r, WalRecord::RoundCompleted { .. }))
            .count();
        let (cloud, _) = Cloud::recover(sky.clone(), Some(snapshot), torn, links, Obs::default())
            .expect("a torn journal still recovers");
        assert_eq!(
            cloud.registry_digest(),
            committed[markers],
            "journal cut at {cut} of {} bytes, after {markers} whole rounds",
            journal.len()
        );
        links = cloud.crash().0;
    }
    for (_, link) in links {
        link.shutdown();
    }
}

/// A crash can tear round 2 anywhere. Whatever survives, recovery lands
/// on the post-round-1 or the post-round-2 registry, never on a mix of
/// the two: a round's upserts apply only with its commit marker.
#[test]
fn a_torn_round_is_discarded_whole() {
    let sky = sky();
    let cloud = build_cloud(&sky, false);
    cloud.audit_all(4001);
    let round1 = cloud.registry_digest();
    let snapshot = cloud.checkpoint();
    cloud.audit_all(4002);
    let round2 = cloud.registry_digest();
    let (links, journal) = cloud.crash();
    every_cut_recovers_a_committed_state(&sky, &snapshot, &journal, links, &[round1, round2]);
}

/// An attestation pass between the checkpoint and the crash commits as
/// its own round: recovery keeps the attestation checkpoints it
/// recorded, and a torn pass is discarded whole like a torn audit.
#[test]
fn an_attestation_pass_commits_as_its_own_round() {
    let sky = sky();
    let cloud = build_cloud(&sky, false);
    cloud.audit_all(5001);
    let round1 = cloud.registry_digest();
    let snapshot = cloud.checkpoint();
    assert!(cloud.attest_all().iter().all(|(_, ok)| *ok));
    let attested = cloud.registry_digest();
    cloud.audit_all(5002);
    let round2 = cloud.registry_digest();
    let (links, journal) = cloud.crash();
    every_cut_recovers_a_committed_state(
        &sky,
        &snapshot,
        &journal,
        links,
        &[round1, attested, round2],
    );
}

/// A cloud recovered from a torn round journals on from its last
/// committed record, not behind the torn upserts: the round it runs next
/// must survive a second crash. Cuts round 2 after each of its whole
/// upserts (the marker always missing), recovers, runs round 3, crashes
/// again and requires recovery to land on round 3's registry.
#[test]
fn a_round_after_a_torn_recovery_survives_a_second_crash() {
    let sky = sky();
    let cloud = build_cloud(&sky, false);
    cloud.audit_all(6001);
    let round1 = cloud.registry_digest();
    let snapshot = cloud.checkpoint();
    cloud.audit_all(6002);
    let (mut links, journal) = cloud.crash();
    let torn_cuts: Vec<usize> = (0..=journal.len())
        .filter(|&cut| {
            let (opened, open) = Journal::open(&journal[..cut]);
            open.truncated_bytes == 0
                && matches!(opened.records().last(), Some(WalRecord::NodeState { .. }))
        })
        .collect();
    assert_eq!(torn_cuts.len(), 4, "one cut after each of the 4 upserts");
    for (i, cut) in torn_cuts.into_iter().enumerate() {
        let torn = &journal[..cut];
        let (cloud, _) = Cloud::recover(sky.clone(), Some(&snapshot), torn, links, Obs::default())
            .expect("a torn journal still recovers");
        assert_eq!(
            cloud.registry_digest(),
            round1,
            "cut at {cut}: round 2 discarded"
        );
        cloud.audit_all(6003 + i as u64);
        let round3 = cloud.registry_digest();
        let (survivors, journal3) = cloud.crash();
        let (cloud, _) = Cloud::recover(
            sky.clone(),
            Some(&snapshot),
            &journal3,
            survivors,
            Obs::default(),
        )
        .expect("the second crash recovers");
        assert_eq!(
            cloud.registry_digest(),
            round3,
            "cut at {cut}: round 3, committed after the torn round 2, survives"
        );
        links = cloud.crash().0;
    }
    for (_, link) in links {
        link.shutdown();
    }
}

/// A 1000-node recovery campaign in the benchmark's `fleet_recovery`
/// shape: lossy links, a cloud crash every 120 ticks, and 30% of the
/// links duplicating or reordering one delivery each.
fn recovery_campaign_1000(record_log: bool) -> CampaignConfig {
    let mut cfg = CampaignConfig::paper_default(1000, 0xF1EE7);
    cfg.faults.lossy_fraction = 0.3;
    cfg.faults.drop_probability = 0.5;
    cfg.recovery.crash_ticks = (1..cfg.max_ticks / 120).map(|i| i * 120).collect();
    cfg.recovery.duplicate_fraction = 0.3;
    cfg.recovery.reorder_fraction = 0.3;
    cfg.record_log = record_log;
    cfg
}

/// The recovery campaign's digests and replay count are pinned as
/// literals, so a change to the WAL, the replay path or the digest
/// cannot move them unnoticed. Keeping the event log or not must not
/// move them either, and the final cloud state must equal the
/// crash-free twin's, bit for bit.
#[test]
fn thousand_node_recovery_campaign_matches_its_pinned_digests() {
    let mut faulted = Vec::new();
    for record_log in [false, true] {
        let r = run(&recovery_campaign_1000(record_log));
        assert!(
            r.invariant_violations.is_empty(),
            "{:?}",
            r.invariant_violations
        );
        assert_eq!(r.recoveries, 9);
        assert_eq!(r.digest, "a6be5949f970e428", "record_log = {record_log}");
        assert_eq!(
            r.state_digest, "59f90884b4891cee",
            "record_log = {record_log}"
        );
        assert_eq!(r.replayed_records, 11043, "record_log = {record_log}");
        assert_eq!(r.log.is_empty(), !record_log);
        faulted.push(r);
    }

    let mut twin = recovery_campaign_1000(false);
    twin.recovery.crash_ticks.clear();
    twin.recovery.duplicate_fraction = 0.0;
    twin.recovery.reorder_fraction = 0.0;
    let twin = run(&twin);
    assert_eq!(twin.recoveries, 0);
    for r in &faulted {
        assert_eq!(
            r.state_digest, twin.state_digest,
            "faulted run equals its crash-free twin"
        );
        assert_eq!(r.trust_table, twin.trust_table);
    }
}

/// The 200-node simulated campaign both proptest cases below diff
/// against, fault-free, computed once (it is identical for every case).
fn sim_base_config() -> CampaignConfig {
    let mut cfg = CampaignConfig::paper_default(200, 0x5EC0_7E57);
    cfg.max_ticks = 400;
    cfg
}

fn fault_free_baseline() -> &'static (String, Vec<u64>) {
    static BASELINE: OnceLock<(String, Vec<u64>)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let r = run(&sim_base_config());
        (r.state_digest, r.trust_table)
    })
}

proptest! {
    /// Satellite 3: an *arbitrary* duplicate/reorder/crash schedule over
    /// the seeded 200-node campaign yields a final cloud digest
    /// bit-identical to the fault-free run. Crash ticks may collide,
    /// repeat, or land inside audit rounds — every schedule must be
    /// invisible in the final state, and the engine's invariant monitor
    /// (no double-applied trust delta, unbroken journal chain, recovered
    /// ≡ continuous digest at every crash) must stay silent throughout.
    #[test]
    fn arbitrary_fault_schedules_are_invisible_in_the_final_digest(
        crash_ticks in proptest::collection::vec(1u64..400, 0..4),
        duplicate_fraction in 0.0f64..0.6,
        reorder_fraction in 0.0f64..0.6,
    ) {
        let mut cfg = sim_base_config();
        cfg.recovery.crash_ticks = crash_ticks.clone();
        cfg.recovery.duplicate_fraction = duplicate_fraction;
        cfg.recovery.reorder_fraction = reorder_fraction;
        let r = run(&cfg);
        prop_assert!(
            r.invariant_violations.is_empty(),
            "schedule {crash_ticks:?}/dup {duplicate_fraction:.2}/reorder {reorder_fraction:.2}: {:?}",
            r.invariant_violations
        );
        prop_assert_eq!(r.recoveries, crash_ticks.len() as u64);
        let (digest, trust) = fault_free_baseline();
        prop_assert_eq!(
            &r.state_digest, digest,
            "faulty schedule changed the final cloud digest"
        );
        prop_assert_eq!(&r.trust_table, trust);
    }
}
