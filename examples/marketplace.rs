//! The whole vision, end to end: a crowd-sourced network of sensor nodes
//! (each on its own thread), a cloud that audits them with commissioned
//! measurements, claim verification, and the rentable-node marketplace.
//!
//! ```sh
//! cargo run --release --example marketplace [seed] [--trace] [--adversary <kind>]
//! ```
//!
//! `--trace` records the cloud's audit event log and metric counters and
//! prints them after the marketplace listing.
//!
//! `--adversary spoof|replay|gain|frozen|poison` adds a *compromised*
//! node — honest claims, adversarial data plane — and runs a multi-round
//! audit campaign instead of a single round, so the cross-sensor
//! consistency checks can walk it down the quarantine ladder to
//! eviction. The residual table shows each node's deviation from the
//! fleet's robustly fused consensus.

use aircal::net::{
    spawn_node_with_faults, AdversaryKind, Cloud, LinkFaults, NodeAgent, NodeBehavior,
};
use aircal::obs::{fmt, Obs};
use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_env::{scenarios::testbed_origin, Scenario, ScenarioKind};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let traced = args.iter().any(|a| a == "--trace");
    let adversary: Option<AdversaryKind> = args.iter().position(|a| a == "--adversary").map(|i| {
        let kind = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--adversary needs a kind (spoof|replay|gain|frozen|poison)");
            std::process::exit(2);
        });
        AdversaryKind::parse(kind).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    });
    let seed: u64 = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !matches!(args.get(i.wrapping_sub(1)), Some(p) if p == "--adversary")
        })
        .find_map(|(_, s)| s.parse().ok())
        .unwrap_or(77);

    // The shared sky every node hears, and the tracking service the cloud
    // consults as ground truth.
    let sky = Arc::new(TrafficSim::generate(
        TrafficConfig {
            count: 45,
            ..TrafficConfig::paper_default(testbed_origin())
        },
        seed,
    ));

    let mut cloud = Cloud::new(sky.clone());
    if traced {
        cloud.obs = Obs::recording();
    }

    // Five operators sign up: three honest installs of varying quality,
    // one who lies about being outdoors, one who fabricates receptions.
    let roster: [(ScenarioKind, NodeBehavior); 5] = [
        (ScenarioKind::OpenField, NodeBehavior::Honest),
        (ScenarioKind::Rooftop, NodeBehavior::Honest),
        (ScenarioKind::Indoor, NodeBehavior::Honest),
        (ScenarioKind::BehindWindow, NodeBehavior::FalseClaims),
        (
            ScenarioKind::UrbanCanyon,
            NodeBehavior::Fabricator { ghosts: 100 },
        ),
    ];
    println!("registering {} nodes…", roster.len() + 1);
    for (i, (kind, behavior)) in roster.into_iter().enumerate() {
        let agent = NodeAgent::new(Scenario::build(kind), behavior, sky.clone());
        let name = cloud
            .register(aircal::net::spawn_node(agent, 0.0, seed + i as u64))
            .expect("registration");
        println!("  + {name}");
    }
    // A sixth operator with a good install but a dying host daemon: it
    // answers the survey, then drops off mid-audit. The audit degrades
    // to a partial verdict instead of aborting.
    let mut flaky = NodeAgent::new(
        Scenario::build(ScenarioKind::OpenField),
        NodeBehavior::Honest,
        sky.clone(),
    );
    flaky.claims.name = "open-field-flaky".into();
    let name = cloud
        .register(spawn_node_with_faults(
            flaky,
            LinkFaults {
                crash_after: Some(3),
                ..LinkFaults::none()
            },
            seed + 100,
        ))
        .expect("registration");
    println!("  + {name} (daemon will crash mid-audit)");

    // A compromised operator: the claims are honest, the *data plane*
    // lies. Only the cross-sensor consistency checks can catch it.
    if let Some(kind) = adversary {
        let mut agent = NodeAgent::with_adversary(
            Scenario::build(ScenarioKind::OpenField),
            sky.clone(),
            kind,
            seed ^ 0xBAD,
        );
        agent.claims.name = "open-field-compromised".into();
        let name = cloud
            .register(aircal::net::spawn_node(agent, 0.0, seed + 200))
            .expect("registration");
        println!("  + {name} (compromised: {kind})");
    }

    // One audit round is enough for honest-vs-dishonest claims; the
    // quarantine ladder needs consecutive convictions, so a compromised
    // fleet gets a campaign. Each round commissions fresh seeds —
    // replayed or frozen reports are only evidence under a *new* seed.
    let rounds: u64 = if adversary.is_some() { 7 } else { 1 };
    println!("\nauditing (commissioned surveys + cross-band sweeps, {rounds} round(s))…\n");
    let mut verdicts = Vec::new();
    for round in 0..rounds {
        verdicts = cloud.audit_all((seed ^ 0xA0D17).wrapping_add(round.wrapping_mul(0x9E37)));
        if adversary.is_some() {
            let ladder: Vec<String> = cloud
                .health_report()
                .iter()
                .map(|(name, health, _)| format!("{name}={health}"))
                .collect();
            println!("round {round}: {}", ladder.join("  "));
        }
    }

    println!("{}", fmt::section("verdicts"));
    let mut table = fmt::Table::new(&[
        "node",
        "claims",
        "measured",
        "claim OK?",
        "trust",
        "audit",
        "approved",
        "flags",
    ]);
    for (name, verdict) in &verdicts {
        match verdict {
            Some(v) => {
                table.row(&[
                    name.clone(),
                    if v.claims.outdoor {
                        "outdoor"
                    } else {
                        "indoor"
                    }
                    .to_string(),
                    if v.install.outdoor {
                        "outdoor"
                    } else {
                        "indoor"
                    }
                    .to_string(),
                    if v.outdoor_claim_verified {
                        "yes"
                    } else {
                        "NO"
                    }
                    .to_string(),
                    format!("{:.0}", v.trust.score),
                    if v.is_complete() { "full" } else { "partial" }.to_string(),
                    if v.approved { "yes" } else { "NO" }.to_string(),
                    if v.trust.flags.is_empty() {
                        "-".to_string()
                    } else {
                        v.trust.flags.join("; ")
                    },
                ]);
            }
            None => {
                table.row(&[name.clone(), "UNREACHABLE".to_string()]);
            }
        }
    }
    println!("{}", table.render());

    println!(
        "\n{}",
        fmt::section("consensus residuals (vs robust fused profile)")
    );
    let anomalies = cloud.anomaly_report();
    let mut residuals = fmt::Table::new(&["node", "residual", "anomaly run", "evidence"]);
    for (name, verdict) in &verdicts {
        let (run, reason) = anomalies
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, run, reason)| (*run, reason.clone()))
            .unwrap_or((0, None));
        residuals.row(&[
            name.clone(),
            match verdict.as_ref().and_then(|v| v.consensus_residual_db) {
                Some(db) => format!("{db:.1} dB"),
                None => "-".to_string(),
            },
            run.to_string(),
            reason.unwrap_or_else(|| "-".to_string()),
        ]);
    }
    println!("{}", residuals.render());

    println!("\n{}", fmt::section("node health"));
    for (name, health, failures) in cloud.health_report() {
        println!(
            "{}",
            fmt::kv(
                &name,
                format!("{health} ({failures} consecutive failed audits)")
            )
        );
    }

    println!("\n{}", fmt::section("wire traffic"));
    let mut wire = fmt::Table::new(&["node", "attempts", "ok", "retries", "gave up"]);
    for (name, s) in cloud.link_stats() {
        wire.row(&[
            name,
            s.attempts.to_string(),
            s.ok.to_string(),
            s.retries.to_string(),
            s.gave_up.to_string(),
        ]);
    }
    println!("{}", wire.render());

    println!(
        "\n{}",
        fmt::section("marketplace (approved nodes, cheapest first)")
    );
    for (name, price, trust) in cloud.marketplace() {
        println!(
            "{}",
            fmt::kv(&name, format!("{price:.2}/h  trust {trust:.0}"))
        );
    }

    if traced {
        println!("\n{}", fmt::section("audit event log (JSON lines)"));
        print!("{}", cloud.obs.events_jsonl());
        println!("\n{}", fmt::section("metrics"));
        for line in fmt::counter_lines(&cloud.obs.snapshot()) {
            println!("{line}");
        }
    }
    cloud.shutdown();
}
