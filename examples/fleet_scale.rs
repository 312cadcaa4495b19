//! Run a deterministic fleet-scale measurement campaign through the
//! discrete-event engine and compare the two scheduling policies.
//!
//! ```sh
//! cargo run --release --example fleet_scale [nodes] [seed] [--workers N]
//! ```
//!
//! Defaults: 1000 nodes, seed 42, workers 1. The engine's contract is
//! that `--workers` changes wall-clock only — the digest printed at the
//! end is bit-identical at any worker count, so you can verify the
//! determinism guarantee from the shell:
//!
//! ```sh
//! cargo run --release --example fleet_scale -- 1000 42 --workers 1
//! cargo run --release --example fleet_scale -- 1000 42 --workers 8
//! ```

use aircal::obs::Obs;
use aircal::sim::{run_with_obs, CampaignConfig, SchedulerKind};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut workers = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workers" {
            workers = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--workers takes a number");
        } else {
            positional.push(a.clone());
        }
    }
    let nodes: usize = positional
        .first()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let seed: u64 = positional.get(1).and_then(|v| v.parse().ok()).unwrap_or(42);

    println!("fleet-scale campaign: {nodes} nodes, seed {seed}, {workers} worker(s)\n");

    for scheduler in [SchedulerKind::RoundRobin, SchedulerKind::UtilityDriven] {
        let mut cfg = CampaignConfig::paper_default(nodes, seed);
        cfg.scheduler = scheduler;
        cfg.workers = workers;
        // Enough loss that the policies visibly diverge.
        cfg.faults.lossy_fraction = 0.3;
        cfg.faults.drop_probability = 0.5;

        let obs = Obs::recording();
        let start = Instant::now();
        let result = run_with_obs(&cfg, &obs);
        let wall = start.elapsed().as_secs_f64();

        println!("── scheduler: {} ──", result.scheduler);
        println!("  events            {}", result.events);
        println!(
            "  wall              {:.3} s  ({:.0} events/s)",
            wall,
            result.events as f64 / wall
        );
        println!(
            "  90% coverage at   {}",
            result
                .coverage90_tick
                .map_or("never".to_string(), |t| format!("tick {t}"))
        );
        println!(
            "  tasks completed   {}  (drops: {} req / {} resp, corrupt: {})",
            result.completed_tasks,
            result.dropped_requests,
            result.dropped_responses,
            result.corrupt_deliveries
        );
        println!(
            "  fleet health      {:?}  ({} daemons crashed)",
            result.health_counts, result.crashed_nodes
        );
        println!("  audit rounds flagged anomalies: {}", result.anomaly_flags);
        println!(
            "  sim.* metrics     dispatches={} delivered={} audits={}",
            obs.counter("sim.dispatches"),
            obs.counter("sim.dispatch.delivered"),
            obs.counter("sim.audit.rounds"),
        );
        println!("  campaign digest   {}\n", result.digest);
    }

    println!("Same seed + same scheduler ⇒ same digest, at any --workers.");
}
