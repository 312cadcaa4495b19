//! Regenerate **Figure 3**: cellular RSRP at the three locations, five
//! towers — the rows behind the paper's grouped bar chart. A missing bar
//! ("the signal was too weak for srsUE to decode") prints as `----`.
//!
//! ```sh
//! cargo run --release -p aircal-bench --bin fig3 [--seed N]
//! ```

use aircal_bench::parse_args;
use aircal_cellular::{paper_towers, CellScanner};
use aircal_env::paper_scenarios;

fn main() {
    let (_, seed) = parse_args();
    let scanner = CellScanner::default();
    let scenarios = paper_scenarios();

    println!("# Figure 3 — RSRP (dBm) per tower per location, seed {seed}");
    print!("{:16}", "location");
    let db = paper_towers(&scenarios[0].world.origin);
    for t in db.all() {
        print!(
            " {:>14}",
            format!("{} ({:.0})", t.name, t.dl_freq_hz() / 1e6)
        );
    }
    println!();

    for s in &scenarios {
        let db = paper_towers(&s.world.origin);
        print!("{:16}", s.site.name);
        for m in scanner.scan(&s.world, &s.site, &db, seed) {
            match m.rsrp_dbm {
                Some(v) => print!(" {v:>14.1}"),
                None => print!(" {:>14}", "----"),
            }
        }
        println!();
    }

    println!("\n# paper shape: rooftop decodes all 5 (strong); window decodes towers 1–3");
    println!("# (attenuated); indoor decodes only tower 1 — 700 MHz penetrates buildings.");
}
