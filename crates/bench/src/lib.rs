//! Shared helpers for the figure-regeneration binaries.
//!
//! Every figure in the paper's evaluation has a regenerating target here,
//! and each measurement chain is timed in one of two places: the
//! `perfreport` binary for the kernels no workload times, or the
//! end-to-end benchmark in `benchmark/` (its `--trace 1` ledger):
//!
//! | Paper artifact | Binary | Timed by |
//! |---|---|---|
//! | Figure 1(a–c) — ADS-B directionality | `fig1` | benchmark `calibrate` (`core.survey_ms`) |
//! | Figure 2 — testbed map | `fig2map` | — |
//! | Figure 3 — cellular RSRP | `fig3` | benchmark `calibrate` (`cellular.scan_ms`) |
//! | Figure 4 — TV band power | `fig4` | benchmark `calibrate` (`tv.sweep_ms`) |
//! | Ablations A1–A8 (DESIGN.md) | `ablations` | perfreport `adsb_decode` (A4's decoder) |

use aircal_aircraft::{TrafficConfig, TrafficSim};
use aircal_core::survey::{run_survey, SurveyConfig, SurveyResult};
use aircal_env::Scenario;

pub mod alloc_counter;
pub use alloc_counter::{AllocSnapshot, CountingAllocator};

/// Standard survey used by the figure harness: the paper's 30 s procedure
/// with 70 aircraft in the disc.
pub fn paper_survey(scenario: &Scenario, seed: u64) -> SurveyResult {
    let traffic = paper_traffic(scenario, seed);
    run_survey(
        &scenario.world,
        &scenario.site,
        &traffic,
        &SurveyConfig::default(),
        seed,
    )
}

/// The traffic generator settings shared by the harness.
pub fn paper_traffic(scenario: &Scenario, seed: u64) -> TrafficSim {
    TrafficSim::generate(
        TrafficConfig {
            count: 70,
            ..TrafficConfig::paper_default(scenario.site.position)
        },
        seed,
    )
}

/// Parse a `--seed N` style argument list: returns (positional, seed).
pub fn parse_args() -> (Vec<String>, u64) {
    let mut seed = 2023;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--seed" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                seed = v;
            }
        } else {
            positional.push(a);
        }
    }
    (positional, seed)
}
