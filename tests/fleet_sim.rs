//! Fleet-scale determinism suite for the discrete-event campaign
//! engine (`aircal-sim`).
//!
//! The engine's contract: identical seeds produce bit-identical event
//! orders, event logs, campaign digests, and trust tables — at any
//! worker count, and across process boundaries. This suite checks that
//! contract at the 1000-node scale the Electrosense regime lives in,
//! plus the scheduling claim that motivates the engine: the
//! utility-driven (stalest-profile-first) policy converges fleet
//! coverage in measurably fewer virtual ticks than round-robin.

use aircal::sim::{run, CampaignConfig, SchedulerKind};
use proptest::prelude::*;

/// The canonical 1000-node campaign: heavy enough chaos that every
/// fault path fires (drops, crashes, corruption, miscalibration).
fn campaign_1000(workers: usize, record_log: bool) -> CampaignConfig {
    let mut cfg = CampaignConfig::paper_default(1000, 0xF1EE7);
    cfg.workers = workers;
    cfg.record_log = record_log;
    cfg.faults.lossy_fraction = 0.3;
    cfg.faults.drop_probability = 0.5;
    cfg
}

/// A seeded 1000-node campaign replays bit-identically across worker
/// counts: full result equality — digest, event log, trust table,
/// health census, every counter. Not keeping the log changes no digest
/// either.
#[test]
fn thousand_node_campaign_is_bit_identical_across_worker_counts() {
    let serial = run(&campaign_1000(1, true));
    let streamed = run(&campaign_1000(1, false));
    assert!(streamed.log.is_empty());
    assert_eq!(
        serial.digest, streamed.digest,
        "digest depends on record_log"
    );
    assert_eq!(serial.state_digest, streamed.state_digest);
    for workers in [2, 8] {
        let parallel = run(&campaign_1000(workers, true));
        assert_eq!(
            serial.digest, parallel.digest,
            "digest diverged at workers={workers}"
        );
        assert_eq!(
            serial.log, parallel.log,
            "event log diverged at workers={workers}"
        );
        assert_eq!(
            serial.trust_table, parallel.trust_table,
            "trust table diverged at workers={workers}"
        );
        assert_eq!(serial, parallel, "result diverged at workers={workers}");
    }
    // The campaign actually exercised the machinery it claims to.
    assert!(serial.events > 10_000, "events: {}", serial.events);
    assert!(serial.dropped_requests > 0);
    assert!(serial.crashed_nodes > 0);
    assert!(serial.anomaly_flags > 0);
    assert!(!serial.log.is_empty());
}

/// Child half of the cross-process replay check: when the env var is
/// set (by the parent test spawning this same binary), run the
/// canonical campaign and print its digest. A bare `cargo test` run
/// sees the env var unset and the probe is a no-op.
#[test]
fn fleet_sim_child_digest_probe() {
    if std::env::var_os("FLEET_SIM_CHILD").is_none() {
        return;
    }
    let result = run(&campaign_1000(4, false));
    println!("CHILD_DIGEST={}", result.digest);
}

/// A seeded 1000-node campaign replays bit-identically across two
/// *processes*: the parent computes the digest in-process, then
/// re-executes this test binary (filtered to the child probe above)
/// and compares the digest the fresh process prints. Any hidden
/// process-level state — ASLR-dependent hashing, global clocks, thread
/// scheduling — would break this.
#[test]
fn thousand_node_campaign_replays_across_processes() {
    let local = run(&campaign_1000(2, false));

    let exe = std::env::current_exe().expect("test binary path");
    let output = std::process::Command::new(exe)
        .args(["--exact", "fleet_sim_child_digest_probe", "--nocapture"])
        .env("FLEET_SIM_CHILD", "1")
        .output()
        .expect("spawn child test process");
    assert!(
        output.status.success(),
        "child process failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The libtest harness may interleave its own "test ... ok" text on
    // the same line, so locate the marker anywhere in the stream.
    let child_digest = stdout
        .split("CHILD_DIGEST=")
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_hexdigit())
                .collect::<String>()
        })
        .unwrap_or_else(|| panic!("no CHILD_DIGEST marker in child output:\n{stdout}"));
    assert_eq!(
        local.digest, child_digest,
        "digest diverged across processes"
    );
}

/// The paper's measurement-scheduling sketch, quantified: with lossy
/// links, stalest-profile-first reaches 90 % fleet coverage in
/// measurably fewer virtual ticks than the round-robin baseline,
/// because a lost dispatch is retried as soon as it times out instead
/// of waiting for a full round-robin lap of the fleet.
#[test]
fn utility_scheduler_converges_measurably_faster_than_round_robin() {
    let mut cfg = campaign_1000(1, false);
    cfg.scheduler = SchedulerKind::UtilityDriven;
    let utility = run(&cfg);
    cfg.scheduler = SchedulerKind::RoundRobin;
    let round_robin = run(&cfg);

    let u = utility
        .coverage90_tick
        .expect("utility campaign reaches 90% coverage");
    let r = round_robin
        .coverage90_tick
        .expect("round-robin campaign reaches 90% coverage");
    assert!(
        u * 3 <= r * 2,
        "utility ({u} ticks) should beat round-robin ({r} ticks) by ≥ 1.5×"
    );
}

proptest! {
    /// Engine determinism, fuzzed: over random fleet sizes, fault
    /// plans, and scheduler policies, a same-seed run at parallelism 1
    /// and parallelism 8 yields a bit-identical event log, digest, and
    /// final trust table.
    #[test]
    fn random_campaigns_are_worker_count_invariant(
        nodes in 4usize..40,
        seed in proptest::any::<u64>(),
        lossy_pct in 0u32..60,
        drop_pct in 0u32..80,
        crash_pct in 0u32..15,
        corrupt_pct in 0u32..10,
        utility in proptest::any::<bool>(),
    ) {
        let mut cfg = CampaignConfig::paper_default(nodes, seed);
        cfg.max_ticks = 150;
        cfg.record_log = true;
        cfg.scheduler = if utility {
            SchedulerKind::UtilityDriven
        } else {
            SchedulerKind::RoundRobin
        };
        cfg.faults.lossy_fraction = lossy_pct as f64 / 100.0;
        cfg.faults.drop_probability = drop_pct as f64 / 100.0;
        cfg.faults.crash_fraction = crash_pct as f64 / 100.0;
        cfg.faults.corrupt_fraction = corrupt_pct as f64 / 100.0;

        cfg.workers = 1;
        let serial = run(&cfg);
        cfg.workers = 8;
        let parallel = run(&cfg);

        prop_assert!(serial.log == parallel.log, "event logs diverged");
        prop_assert!(
            serial.trust_table == parallel.trust_table,
            "trust tables diverged"
        );
        prop_assert!(
            serial == parallel,
            "results diverged: {} vs {}",
            serial.digest,
            parallel.digest
        );
    }
}
