//! Quickstart: calibrate one sensor node and print its report.
//!
//! ```sh
//! cargo run --release --example quickstart [seed] [--trace]
//! ```
//!
//! `--trace` enables the deterministic tracer and the metrics registry:
//! the report is bit-identical either way, and the run ends with a span
//! table plus the pipeline counters.

use aircal::obs::fmt;
use aircal::obs::{trace, Obs};
use aircal::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let traced = args.iter().any(|a| a == "--trace");
    let seed: u64 = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // The paper's Location ①: a rooftop sensor with an open western view.
    let scenario = Scenario::build(ScenarioKind::Rooftop);

    let obs = if traced {
        Obs::recording()
    } else {
        Obs::disabled()
    };
    if traced {
        trace::enable();
    }
    println!("calibrating '{}' (seed {seed})…\n", scenario.site.name);
    let report =
        Calibrator::quick()
            .with_obs(obs.clone())
            .calibrate(&scenario.world, &scenario.site, seed);
    trace::disable();

    println!("{}\n", report.headline());
    println!(
        "{}",
        fmt::kv(
            "field_of_view",
            format!(
                "{:.1}° wide @ {:.0}° (truth {:.0}° @ {:.0}°, IoU {:.2})",
                report.fov.estimated.width_deg,
                report.fov.estimated.center_deg(),
                scenario.expected_fov.width_deg,
                scenario.expected_fov.center_deg(),
                report.fov.iou(&scenario.expected_fov),
            )
        )
    );
    println!(
        "{}",
        fmt::kv(
            "survey",
            format!(
                "{}/{} aircraft observed, {} messages, farthest {:.0} km",
                report.survey.aircraft_observed,
                report.survey.aircraft_total,
                report.survey.messages,
                report.survey.max_observed_range_m / 1_000.0,
            )
        )
    );
    println!(
        "{}",
        fmt::kv(
            "installation",
            format!(
                "{} (p_outdoor = {:.2})",
                if report.install.outdoor {
                    "OUTDOOR"
                } else {
                    "INDOOR"
                },
                report.install.probability_outdoor,
            )
        )
    );
    println!(
        "{}",
        fmt::kv(
            "trust",
            format!(
                "{:.0}/100 {}",
                report.trust.score,
                if report.trust.flags.is_empty() {
                    "(no flags)".to_string()
                } else {
                    format!("flags: {:?}", report.trust.flags)
                }
            )
        )
    );

    println!("\n{}", fmt::section("band profile"));
    let mut bands = fmt::Table::new(&["band", "MHz", "measured", "verdict"]);
    for b in &report.frequency.bands {
        bands.row(&[
            b.label.clone(),
            format!("{:.1}", b.freq_hz / 1e6),
            b.measured_db
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "----".into()),
            b.verdict().to_string(),
        ]);
    }
    println!("{}", bands.render());

    if traced {
        println!("\n{}", fmt::section("trace"));
        println!("{}", fmt::span_table(&trace::summarize(&trace::drain())));
        println!("\n{}", fmt::section("metrics"));
        for line in fmt::counter_lines(&obs.snapshot()) {
            println!("{line}");
        }
    }
}
