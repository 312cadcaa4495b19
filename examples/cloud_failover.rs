//! Demonstrate the crash-tolerant cloud: a fleet campaign with cloud
//! crashes, a network partition, and at-least-once delivery faults,
//! recovered from the write-ahead journal — bit-identical to the same
//! campaign with a cloud that never dies.
//!
//! ```sh
//! cargo run --release --example cloud_failover [nodes] [seed] \
//!     [--crash-every N] [--restart-delay D] [--partition START:HEAL:MOD:REM]
//! ```
//!
//! Defaults: 1000 nodes, seed 42, a crash every 150 ticks with instant
//! restart, and a partition severing every 5th node from tick 200 to
//! 320. The final table shows the recovery ledger (journal appends,
//! replayed records, downtime) and diffs the faulted campaign's cloud
//! digest against its fault-free twin: crashes, duplicates, and
//! reorders must be invisible; the partition (which really does change
//! scheduling) is reported but excluded from the twin.

use aircal::obs::Obs;
use aircal::sim::{run_with_obs, CampaignConfig, PartitionSpec};
use std::time::Instant;

fn parse_partition(s: &str) -> PartitionSpec {
    let parts: Vec<u64> = s
        .split(':')
        .map(|p| p.parse().expect("partition field"))
        .collect();
    assert_eq!(parts.len(), 4, "--partition takes START:HEAL:MOD:REM");
    PartitionSpec {
        start_tick: parts[0],
        heal_tick: parts[1],
        modulus: parts[2] as u32,
        remainder: parts[3] as u32,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut crash_every = 150u64;
    let mut restart_delay = 0u64;
    let mut partition = Some(PartitionSpec {
        start_tick: 200,
        heal_tick: 320,
        modulus: 5,
        remainder: 2,
    });
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--crash-every" => {
                crash_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--crash-every takes ticks");
            }
            "--restart-delay" => {
                restart_delay = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--restart-delay takes ticks");
            }
            "--partition" => {
                partition = Some(parse_partition(
                    it.next().expect("--partition takes a spec"),
                ));
            }
            "--no-partition" => partition = None,
            other => positional.push(other.to_string()),
        }
    }
    let nodes: usize = positional
        .first()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let seed: u64 = positional.get(1).and_then(|v| v.parse().ok()).unwrap_or(42);

    let mut cfg = CampaignConfig::paper_default(nodes, seed);
    if crash_every > 0 {
        cfg.recovery.crash_ticks = (1..cfg.max_ticks / crash_every.max(1) + 1)
            .map(|i| i * crash_every)
            .filter(|&t| t < cfg.max_ticks)
            .collect();
    }
    cfg.recovery.restart_delay_ticks = restart_delay;
    cfg.recovery.duplicate_fraction = 0.3;
    cfg.recovery.reorder_fraction = 0.3;
    if let Some(p) = partition {
        cfg.recovery.partitions = vec![p];
    }

    println!(
        "cloud failover: {nodes} nodes, seed {seed}, crash every {crash_every} ticks \
         (restart delay {restart_delay}), partition {:?}\n",
        partition
    );

    let obs = Obs::recording();
    let start = Instant::now();
    let faulted = run_with_obs(&cfg, &obs);
    let wall = start.elapsed().as_secs_f64();

    println!("── recovery ledger ──");
    println!("  cloud crashes      {}", faulted.recoveries);
    println!("  journal appends    {}", faulted.wal_appends);
    println!("  journal syncs      {}", faulted.wal_syncs);
    println!("  replayed records   {}", faulted.replayed_records);
    println!("  downtime ticks     {}", faulted.recovery_ticks);
    println!("  backlogged reports {}", faulted.backlogged_reports);
    println!("  deduped replays    {}", faulted.deduped_reports);
    println!(
        "  duplicates/reorders {}/{}",
        faulted.duplicated_deliveries, faulted.reordered_deliveries
    );
    println!("  wall               {wall:.3} s");
    if faulted.invariant_violations.is_empty() {
        println!("  invariants         all held");
    } else {
        println!("  INVARIANT VIOLATIONS:");
        for v in &faulted.invariant_violations {
            println!("    {v}");
        }
    }

    // The fault-free twin: same seed and fleet, no crashes, duplicates,
    // reorders, or delayed restarts. Partitions and restart delays
    // genuinely change scheduling, so the twin only exists when the
    // faulted run's extras are the digest-invisible kind.
    if partition.is_none() && restart_delay == 0 {
        let mut clean_cfg = CampaignConfig::paper_default(nodes, seed);
        clean_cfg.recovery = Default::default();
        let clean = run_with_obs(&clean_cfg, &Obs::default());
        let identical =
            clean.state_digest == faulted.state_digest && clean.trust_table == faulted.trust_table;
        println!("\n── fault-free twin ──");
        println!("  faulted digest  {}", faulted.state_digest);
        println!("  clean digest    {}", clean.state_digest);
        println!(
            "  bit-identical   {}",
            if identical {
                "yes"
            } else {
                "NO — recovery is leaking state"
            }
        );
        if !identical {
            std::process::exit(1);
        }
    } else {
        println!(
            "\n(run with --no-partition --restart-delay 0 to diff against the fault-free twin)"
        );
        println!("  final digest    {}", faulted.state_digest);
        println!(
            "  90% coverage    {}",
            faulted
                .coverage90_tick
                .map_or("never".to_string(), |t| format!("tick {t}"))
        );
    }
    if !faulted.invariant_violations.is_empty() {
        std::process::exit(1);
    }
}
