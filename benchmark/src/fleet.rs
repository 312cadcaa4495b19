//! `fleet_campaign` and `fleet_recovery`: one 20k-node `aircal_sim`
//! campaign after another. No PHY runs here; the event queue, scheduler,
//! payloads, the sim's cloud, its digest and its WAL do all the work.
//! `fleet_recovery` adds periodic cloud crashes (WAL replay and snapshot
//! restore) and at-least-once delivery (dedup).

use crate::report::Outcome;
use crate::spans::Spans;
use crate::{setup_median, timing_metrics, Args};
use aircal::obs::Obs;
use aircal::sim::{run, run_with_obs, CampaignConfig, CampaignResult, SchedulerKind};
use std::time::Instant;

/// Fleet size: large enough that events/s reflects the engine at the
/// scale where its throughput is known to fall off.
pub const NODES: usize = 20_000;

/// Warm-up campaign size run during set-up.
const WARM_UP_NODES: usize = 1_000;

/// `fleet_campaign`: utility scheduling over a chaotic fleet (30% lossy
/// links dropping half their traffic), no cloud crashes, one worker.
pub fn campaign_config(nodes: usize, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::paper_default(nodes, seed);
    cfg.scheduler = SchedulerKind::UtilityDriven;
    cfg.faults.lossy_fraction = 0.3;
    cfg.faults.drop_probability = 0.5;
    cfg.workers = 1;
    cfg
}

/// `fleet_recovery`: the campaign plus a cloud crash every 120 ticks and
/// duplicated/reordered deliveries on 30% of the links each.
pub fn recovery_config(nodes: usize, seed: u64) -> CampaignConfig {
    let mut cfg = campaign_config(nodes, seed);
    cfg.recovery.crash_ticks = (1..cfg.max_ticks / 120).map(|i| i * 120).collect();
    cfg.recovery.duplicate_fraction = 0.3;
    cfg.recovery.reorder_fraction = 0.3;
    cfg
}

fn config(recovery: bool, nodes: usize, seed: u64) -> CampaignConfig {
    if recovery {
        recovery_config(nodes, seed)
    } else {
        campaign_config(nodes, seed)
    }
}

/// Repeats of one config must reproduce the campaign exactly.
pub fn check_repeat(first: &CampaignResult, again: &CampaignResult) -> Result<(), String> {
    if again.digest != first.digest || again.state_digest != first.state_digest {
        return Err(format!(
            "repeat digest {}/{} differs from {}/{}",
            again.digest, again.state_digest, first.digest, first.state_digest
        ));
    }
    Ok(())
}

/// A crashed-and-recovered campaign must end in exactly the cloud state
/// of its crash-free twin.
pub fn check_twin(faulted: &CampaignResult, clean: &CampaignResult) -> Result<(), String> {
    if faulted.recoveries == 0 {
        return Err("the recovery campaign never crashed".to_string());
    }
    if faulted.state_digest != clean.state_digest {
        return Err(format!(
            "state digest {} differs from the crash-free twin's {}",
            faulted.state_digest, clean.state_digest
        ));
    }
    if faulted.trust_table != clean.trust_table {
        return Err("trust table differs from the crash-free twin's".to_string());
    }
    Ok(())
}

/// Build the config and run a small campaign of the same shape, so page
/// faults and lazy set-up are not charged to the first timed campaign.
fn setup(recovery: bool, seed: u64) -> CampaignConfig {
    std::hint::black_box(run(&config(recovery, WARM_UP_NODES, seed)));
    config(recovery, NODES, seed)
}

/// Untraced run: repeat the seeded campaign until `seconds` have passed
/// (at least twice, so the repeat check has something to compare).
pub fn run_workload(args: &Args, recovery: bool) -> Outcome {
    let (setup_s, cfg) = setup_median(|| setup(recovery, args.seed));
    let mut o = Outcome::default();
    let mut times = Vec::new();
    let mut problems = Vec::new();
    let mut first: Option<CampaignResult> = None;
    let started = Instant::now();
    while times.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let result = run(&cfg);
        times.push(t.elapsed().as_secs_f64());
        o.attempted += result.events;
        o.failed += result.invariant_violations.len() as u64;
        match &first {
            None => first = Some(result),
            Some(f) => problems.extend(check_repeat(f, &result).err()),
        }
    }
    let first = first.expect("at least one campaign ran");
    if recovery {
        let clean = run(&campaign_config(NODES, args.seed));
        problems.extend(check_twin(&first, &clean).err());
        o.note("recoveries", first.recoveries);
        o.note("replayed_records", first.replayed_records);
    }
    for p in &problems {
        eprintln!("fleet: {p}");
    }
    o.correct = problems.is_empty();
    o.note("campaigns", times.len());
    o.note("events_per_campaign", first.events);
    o.note("digest", &first.digest);
    let ops_per_s = o.attempted as f64 / times.iter().sum::<f64>();
    timing_metrics(&mut o, ops_per_s, &times, setup_s, "campaign");
    o
}

/// Traced run: each repeat runs the campaign untraced, then with tracing
/// on and a recording `Obs`; the two results must be identical. Counts
/// are per campaign.
pub fn run_traced(args: &Args, recovery: bool) -> Outcome {
    let (_, cfg) = setup_median(|| setup(recovery, args.seed));
    let mut o = Outcome::default();
    let obs = Obs::recording();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut problems = Vec::new();
    let started = Instant::now();
    let mut repeats = 0u64;
    while repeats == 0 || started.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let plain = run(&cfg);
        plain_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (traced, _) = Spans::record(|| run_with_obs(&cfg, &obs));
        traced_s += t.elapsed().as_secs_f64();
        if traced != plain {
            problems.push("observing the campaign changed its result".to_string());
        }
        o.attempted += plain.events;
        o.failed += plain.invariant_violations.len() as u64;
        repeats += 1;
    }
    for p in &problems {
        eprintln!("fleet: {p}");
    }
    o.correct = problems.is_empty();
    let r = repeats as f64;
    let per = |name: &str| obs.counter(name) as f64 / r;
    let gauge = |name: &str| obs.snapshot().gauges.get(name).copied().unwrap_or(0.0);
    let overhead = traced_s / plain_s;
    for (name, value) in [
        ("sim.events", per("sim.events")),
        ("sim.dispatches", per("sim.dispatches")),
        (
            "sim.delivery_ratio",
            obs.counter("sim.dispatch.delivered") as f64
                / obs.counter("sim.dispatches").max(1) as f64,
        ),
        ("sim.task.completed", per("sim.task.completed")),
        ("sim.audit.rounds", per("sim.audit.rounds")),
        ("sim.obs_overhead_ratio", overhead),
        ("wal.appends", gauge("wal.appends")),
        ("wal.syncs", gauge("wal.syncs")),
        ("wal.replay", per("wal.replay")),
        ("sim.recoveries", per("sim.recoveries")),
        ("sim.dedup.dropped", per("sim.dedup.dropped")),
        ("sim.partition.backlogged", per("sim.partition.backlogged")),
        ("trace_overhead_ratio", overhead),
    ] {
        o.metric(name, value);
    }
    o.note("campaigns", repeats);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(campaign_config(NODES, 4), campaign_config(NODES, 4));
        assert_ne!(campaign_config(NODES, 4), campaign_config(NODES, 5));
        assert_eq!(recovery_config(NODES, 4), recovery_config(NODES, 4));
        let r = recovery_config(NODES, 4);
        assert_eq!(r.recovery.crash_ticks.len(), 9);
        assert!(campaign_config(NODES, 4).recovery.crash_ticks.is_empty());
    }

    #[test]
    fn output_checks_reject_a_changed_digest_or_trust_table() {
        let faulted = run(&recovery_config(300, 42));
        let clean = run(&campaign_config(300, 42));
        check_repeat(&faulted, &faulted.clone()).expect("a repeat matches");
        check_twin(&faulted, &clean).expect("recovery is exactly-once");

        let mut changed = faulted.clone();
        changed.digest = "0".repeat(16);
        assert!(check_repeat(&faulted, &changed).is_err());
        changed = faulted.clone();
        changed.state_digest = "0".repeat(16);
        assert!(check_twin(&changed, &clean).is_err());
        changed = faulted.clone();
        changed.trust_table[0] ^= 1;
        assert!(check_twin(&changed, &clean).is_err());
        assert!(
            check_twin(&clean, &clean).is_err(),
            "a twin that never crashed proves nothing"
        );
    }
}
