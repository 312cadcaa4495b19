//! Regenerate **Figure 1**: ADS-B performance for measuring directionality.
//!
//! Prints, per location, the full point series the paper plots (one row
//! per ground-truth aircraft: bearing, range, observed) plus the figure's
//! headline statistics. Run a single panel with `fig1 rooftop|window|indoor`.
//!
//! ```sh
//! cargo run --release -p aircal-bench --bin fig1 [-- rooftop] [--seed N]
//! ```

use aircal_bench::{paper_survey, parse_args};
use aircal_env::{paper_scenarios, Scenario, ScenarioKind};
use aircal_geo::Sector;

fn main() {
    let (positional, seed) = parse_args();
    let scenarios: Vec<Scenario> = match positional.first() {
        Some(name) => match ScenarioKind::parse(name) {
            Some(kind) => vec![Scenario::build(kind)],
            None => {
                eprintln!("unknown scenario '{name}' (rooftop|window|indoor|open|canyon)");
                std::process::exit(2);
            }
        },
        None => paper_scenarios(),
    };

    for s in &scenarios {
        let r = paper_survey(s, seed);
        let panel = match s.kind {
            ScenarioKind::Rooftop => "(a) Rooftop at ①",
            ScenarioKind::BehindWindow => "(b) Behind window at ②",
            ScenarioKind::Indoor => "(c) Inside building at ③",
            _ => "(extra)",
        };
        println!("# Figure 1{panel} — site '{}' seed {seed}", s.site.name);
        println!(
            "# shaded (ground-truth) open sector: {:.0}° wide @ {:.0}°",
            s.expected_fov.width_deg,
            s.expected_fov.center_deg()
        );
        println!("bearing_deg,range_km,altitude_m,observed,messages");
        for p in &r.points {
            println!(
                "{:.1},{:.2},{:.0},{},{}",
                p.bearing_deg,
                p.range_m / 1_000.0,
                p.altitude_m,
                if p.observed { "blue" } else { "gray" },
                p.messages
            );
        }

        // The figure's headline claims, as measured here: long-range
        // observation *rates* in vs out of the shaded sector, and the
        // close-in multipath rate. (Single max-range outliers exist in the
        // paper's scatter too; rates are the robust shape statistic.)
        let out_sector = Sector::new(s.expected_fov.end_deg(), 360.0 - s.expected_fov.width_deg);
        let rate = |sector: &Sector, lo: f64, hi: f64| -> (usize, usize) {
            let in_band: Vec<_> = r
                .points
                .iter()
                .filter(|p| sector.contains(p.bearing_deg) && p.range_m >= lo && p.range_m < hi)
                .collect();
            (in_band.iter().filter(|p| p.observed).count(), in_band.len())
        };
        let (in_obs, in_tot) = rate(&s.expected_fov, 50_000.0, 200_000.0);
        let (out_obs, out_tot) = rate(&out_sector, 50_000.0, 200_000.0);
        let (cl_obs, cl_tot) = rate(&Sector::full(), 0.0, 20_000.0);
        let pct = |o: usize, t: usize| {
            if t == 0 {
                "n/a".to_string()
            } else {
                format!("{:.0}%", o as f64 / t as f64 * 100.0)
            }
        };
        println!(
            "# summary: observed {}/{} | >50 km observed in-sector {in_obs}/{in_tot} ({}) vs out {out_obs}/{out_tot} ({}) | <20 km {cl_obs}/{cl_tot} ({})\n",
            r.points.iter().filter(|p| p.observed).count(),
            r.points.len(),
            pct(in_obs, in_tot),
            pct(out_obs, out_tot),
            pct(cl_obs, cl_tot),
        );
    }
}
