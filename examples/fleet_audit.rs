//! Audit a whole fleet of sensor nodes and rank them for the rental
//! marketplace the paper envisions (§2: "node operators offer spectrum
//! sensing as a service and users pay to rent these services").
//!
//! ```sh
//! cargo run --release --example fleet_audit [seed] [--trace] [--adversary <kind>]
//! ```
//!
//! `--adversary spoof|replay|gain|frozen|poison` corrupts the top-ranked
//! node's frequency profile the way that misbehaviour would on the wire,
//! then shows how coordinate-wise median fusion shrugs it off: the
//! fused consensus barely moves, and the residual table singles the
//! liar out.

use aircal::net::AdversaryKind;
use aircal::obs::fmt;
use aircal::obs::{trace, Obs};
use aircal::prelude::*;
use aircal_core::freqprofile::FrequencyProfile;
use aircal_core::robust::{fuse_profiles, residual_db, residual_score, FusionRule};

/// Corrupt a reported profile the way each adversary kind would:
/// inflated gain, progressive poison drift across the sweep, a frozen
/// (flat) front end, a stale copy of someone else's report, or spoofed
/// too-good-to-be-true powers.
fn corrupt_profile(profile: &mut FrequencyProfile, stale: &FrequencyProfile, kind: AdversaryKind) {
    match kind {
        AdversaryKind::GainInflate { db } => {
            for b in &mut profile.bands {
                if let Some(m) = b.measured_db.as_mut() {
                    *m += db;
                }
            }
        }
        AdversaryKind::CalibrationPoison { db_per_round } => {
            for (i, b) in profile.bands.iter_mut().enumerate() {
                if let Some(m) = b.measured_db.as_mut() {
                    *m += db_per_round * i as f64;
                }
            }
        }
        AdversaryKind::FrozenFrontend => {
            let stuck = profile
                .bands
                .iter()
                .find_map(|b| b.measured_db)
                .unwrap_or(-60.0);
            for b in &mut profile.bands {
                if b.measured_db.is_some() {
                    b.measured_db = Some(stuck);
                }
            }
        }
        AdversaryKind::ReplayStale => *profile = stale.clone(),
        AdversaryKind::SpoofAdsb { .. } => {
            for b in &mut profile.bands {
                if b.measured_db.is_some() {
                    b.measured_db = Some(b.expected_clear_db + 10.0);
                }
            }
        }
    }
}

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
        .unwrap_or(5);

    let obs = if traced {
        Obs::recording()
    } else {
        Obs::disabled()
    };
    if traced {
        trace::enable();
    }
    let fleet = all_scenarios();
    println!("auditing {} nodes…\n", fleet.len());
    let report = FleetAuditor::new(Calibrator::quick().with_obs(obs.clone())).audit(&fleet, seed);
    trace::disable();

    println!("{}", fmt::section("fleet ranking"));
    let mut table = fmt::Table::new(&[
        "rank", "node", "trust", "fov", "bands", "maxrange", "install", "flags",
    ]);
    for n in &report.nodes {
        let r = &n.report;
        table.row(&[
            n.rank.to_string(),
            n.name.clone(),
            format!("{:.0}", r.trust.score),
            format!("{:.0}°", r.fov.estimated.width_deg),
            format!("{:.0}%", r.frequency.usable_fraction() * 100.0),
            format!("{:.0} km", r.survey.max_observed_range_m / 1_000.0),
            if r.install.outdoor {
                "outdoor"
            } else {
                "indoor"
            }
            .to_string(),
            if r.trust.flags.is_empty() {
                "-".to_string()
            } else {
                r.trust.flags.join("; ")
            },
        ]);
    }
    println!("{}", table.render());

    // Robust-fusion consensus: every node's frequency profile, fused with
    // the coordinate-wise median. With `--adversary` the top-ranked node's
    // report is corrupted on the wire and the fleet re-fused: the median
    // consensus barely moves (it tolerates a minority of liars), so honest
    // residuals stay put while the victim's jumps by the corruption.
    let honest: Vec<(String, FrequencyProfile)> = report
        .nodes
        .iter()
        .map(|n| (n.name.clone(), n.report.frequency.clone()))
        .collect();
    let honest_refs: Vec<&FrequencyProfile> = honest.iter().map(|(_, p)| p).collect();
    let honest_fused = fuse_profiles(&honest_refs, FusionRule::Median);

    println!("\n{}", fmt::section("consensus residuals (median fusion)"));
    let fmt_db = |r: Option<f64>| r.map_or_else(|| "-".to_string(), |db| format!("{db:.1} dB"));
    if let Some(kind) = adversary {
        let mut corrupted = honest.clone();
        let stale = corrupted[corrupted.len() - 1].1.clone();
        let victim = {
            let (name, profile) = &mut corrupted[0];
            corrupt_profile(profile, &stale, kind);
            name.clone()
        };
        println!(
            "{}",
            fmt::kv("compromised on the wire", format!("{victim} ({kind})"))
        );
        let refs: Vec<&FrequencyProfile> = corrupted.iter().map(|(_, p)| p).collect();
        let fused = fuse_profiles(&refs, FusionRule::Median);

        let mut residuals = fmt::Table::new(&["node", "honest", "under attack", "shift", "status"]);
        for ((name, before), (_, after)) in honest.iter().zip(&corrupted) {
            let r0 = residual_db(before, &honest_fused);
            let r1 = residual_db(after, &fused);
            residuals.row(&[
                name.clone(),
                fmt_db(r0),
                fmt_db(r1),
                match (r0, r1) {
                    (Some(a), Some(b)) => format!("{:+.1} dB", b - a),
                    _ => "-".to_string(),
                },
                if *name == victim {
                    "CORRUPTED"
                } else {
                    "honest"
                }
                .to_string(),
            ]);
        }
        println!("{}", residuals.render());
    } else {
        let mut residuals = fmt::Table::new(&["node", "residual", "score"]);
        for (name, profile) in &honest {
            let res = residual_db(profile, &honest_fused);
            residuals.row(&[
                name.clone(),
                fmt_db(res),
                res.map_or_else(
                    || "-".to_string(),
                    |db| format!("{:.2}", residual_score(db, 10.0)),
                ),
            ]);
        }
        println!("{}", residuals.render());
    }

    // A renter's query: outdoor nodes with at least 90° of sky and full
    // band coverage.
    let eligible = report.filter(|r| {
        r.install.outdoor
            && r.fov.estimated.width_deg >= 90.0
            && r.frequency.usable_fraction() >= 0.99
    });
    println!(
        "\n{}",
        fmt::kv(
            "rentable (outdoor, ≥90° sky, all bands)",
            format!(
                "{:?}",
                eligible.iter().map(|n| n.name.as_str()).collect::<Vec<_>>()
            )
        )
    );

    if traced {
        println!("\n{}", fmt::section("trace"));
        println!("{}", fmt::span_table(&trace::summarize(&trace::drain())));
        println!("\n{}", fmt::section("metrics"));
        for line in fmt::counter_lines(&obs.snapshot()) {
            println!("{line}");
        }
    }
}
