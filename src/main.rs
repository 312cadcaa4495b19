//! `aircal` — command-line front end for the calibration library.
//!
//! ```text
//! aircal scenarios                      list built-in worlds
//! aircal calibrate <scenario> [--json]  calibrate one node
//! aircal fleet                          audit & rank every scenario
//! aircal marketplace                    run the networked marketplace demo
//! aircal schedule <n>                   plan n capture windows
//! ```
//!
//! Global flag: `--seed N` (default 2023). All output is deterministic per
//! seed.

use aircal::prelude::*;
use aircal_core::scheduler::MeasurementScheduler;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = extract_seed(&mut args).unwrap_or(2023);
    let json = extract_flag(&mut args, "--json");

    match args.first().map(String::as_str) {
        Some("scenarios") => cmd_scenarios(),
        Some("calibrate") => cmd_calibrate(args.get(1).map(String::as_str), seed, json),
        Some("fleet") => cmd_fleet(seed),
        Some("marketplace") => cmd_marketplace(seed),
        Some("schedule") => {
            let n = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(5usize);
            cmd_schedule(n);
        }
        _ => {
            eprintln!(
                "usage: aircal <scenarios|calibrate <scenario>|fleet|marketplace|schedule <n>> [--seed N] [--json]"
            );
            std::process::exit(2);
        }
    }
}

fn extract_seed(args: &mut Vec<String>) -> Option<u64> {
    let idx = args.iter().position(|a| a == "--seed")?;
    let value = args.get(idx + 1)?.parse().ok();
    args.drain(idx..=idx + 1);
    value
}

fn extract_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(idx) = args.iter().position(|a| a == flag) {
        args.remove(idx);
        true
    } else {
        false
    }
}

fn cmd_scenarios() {
    println!(
        "{:16} {:>8} {:>16}  description",
        "name", "outdoor", "true FoV"
    );
    for s in all_scenarios() {
        println!(
            "{:16} {:>8} {:>10.0}°@{:>3.0}°  {}",
            s.site.name,
            s.is_outdoor,
            s.expected_fov.width_deg,
            s.expected_fov.center_deg(),
            match s.kind {
                ScenarioKind::Rooftop => "paper location ① (open west sector)",
                ScenarioKind::BehindWindow => "paper location ② (SE window)",
                ScenarioKind::Indoor => "paper location ③ (deep interior)",
                ScenarioKind::OpenField => "ideal reference installation",
                ScenarioKind::UrbanCanyon => "street canyon, open north",
                ScenarioKind::Suburban => "yard mast above wooden houses",
                ScenarioKind::HillShadow => "150 m ridge shadowing the north",
            }
        );
    }
}

fn cmd_calibrate(name: Option<&str>, seed: u64, json: bool) {
    let Some(kind) = name.and_then(ScenarioKind::parse) else {
        eprintln!("unknown scenario (try `aircal scenarios`)");
        std::process::exit(2);
    };
    let scenario = Scenario::build(kind);
    let report = Calibrator::default().calibrate(&scenario.world, &scenario.site, seed);
    if json {
        println!("{}", report.to_json());
    } else {
        println!("{}", report.headline());
        println!(
            "  claim check: truth={}, classified={} (p_outdoor {:.2})",
            if scenario.is_outdoor {
                "outdoor"
            } else {
                "indoor"
            },
            if report.install.outdoor {
                "outdoor"
            } else {
                "indoor"
            },
            report.install.probability_outdoor
        );
        for b in &report.frequency.bands {
            println!(
                "  {:22} {:>8.1} MHz  {}",
                b.label,
                b.freq_hz / 1e6,
                b.verdict()
            );
        }
        if !report.trust.flags.is_empty() {
            println!("  flags: {}", report.trust.flags.join("; "));
        }
    }
}

fn cmd_fleet(seed: u64) {
    let fleet = all_scenarios();
    let report = FleetAuditor::new(Calibrator::quick()).audit(&fleet, seed);
    println!(
        "{:>4}  {:14} {:>6} {:>8} {:>8}",
        "rank", "node", "trust", "fov", "install"
    );
    for n in &report.nodes {
        println!(
            "{:>4}  {:14} {:>6.0} {:>7.0}° {:>8}",
            n.rank,
            n.name,
            n.report.trust.score,
            n.report.fov.estimated.width_deg,
            if n.report.install.outdoor {
                "outdoor"
            } else {
                "indoor"
            },
        );
    }
}

fn cmd_marketplace(seed: u64) {
    use aircal::net::{Cloud, NodeAgent, NodeBehavior};
    use aircal_aircraft::{TrafficConfig, TrafficSim};
    use std::sync::Arc;

    let sky = Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 45,
            ..TrafficConfig::paper_default(aircal_env::scenarios::testbed_origin())
        },
        seed,
    ));
    let cloud = Cloud::new(sky.clone());
    for (i, (kind, behavior)) in [
        (ScenarioKind::OpenField, NodeBehavior::Honest),
        (ScenarioKind::Rooftop, NodeBehavior::Honest),
        (ScenarioKind::Indoor, NodeBehavior::FalseClaims),
        (
            ScenarioKind::Suburban,
            NodeBehavior::Fabricator { ghosts: 80 },
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let agent = NodeAgent::new(Scenario::build(kind), behavior, sky.clone());
        cloud.register(aircal::net::spawn_node(agent, 0.0, seed + i as u64));
    }
    for (name, verdict) in cloud.audit_all(seed ^ 0xA0D17) {
        match verdict {
            Some(v) => println!(
                "{:14} claim={:7} measured={:7} trust={:>3.0} approved={}",
                name,
                if v.claims.outdoor {
                    "outdoor"
                } else {
                    "indoor"
                },
                if v.install.outdoor {
                    "outdoor"
                } else {
                    "indoor"
                },
                v.trust.score,
                v.approved,
            ),
            None => println!("{name:14} UNREACHABLE"),
        }
    }
    println!("marketplace: {:?}", cloud.marketplace());
    cloud.shutdown();
}

fn cmd_schedule(n: usize) {
    let plan = MeasurementScheduler::default().plan(n);
    for c in plan {
        println!(
            "{:05.2} h  expected {:>5.1} aircraft  value {:.1}",
            c.start_hour, c.expected_aircraft, c.marginal_value
        );
    }
}
