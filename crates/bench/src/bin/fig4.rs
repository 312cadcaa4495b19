//! Regenerate **Figure 4**: broadcast-TV band power (dBFS) at the three
//! locations, six channels, through the paper's exact measurement chain
//! (bandpass FIR → |x|² → very long moving average on simulated IQ).
//!
//! ```sh
//! cargo run --release -p aircal-bench --bin fig4 [--seed N]
//! ```

use aircal_bench::parse_args;
use aircal_env::paper_scenarios;
use aircal_tv::{paper_tv_towers, TvPowerProbe};

fn main() {
    let (_, seed) = parse_args();
    let probe = TvPowerProbe::default();
    let scenarios = paper_scenarios();

    println!("# Figure 4 — received signal strength (dBFS) per ATSC channel, seed {seed}");
    let towers = paper_tv_towers(&scenarios[0].world.origin);
    print!("{:16}", "location");
    for t in &towers {
        print!(" {:>9.0} MHz", t.channel.center_hz() / 1e6);
    }
    println!();

    let mut per_loc = Vec::new();
    for s in &scenarios {
        let towers = paper_tv_towers(&s.world.origin);
        let sweep = probe.sweep(&s.world, &s.site, &towers, seed);
        print!("{:16}", s.site.name);
        for m in &sweep {
            print!(" {:>13.1}", m.power_dbfs);
        }
        println!();
        per_loc.push(sweep);
    }

    // The figure's qualitative outlier check.
    let idx_521 = per_loc[0].iter().position(|m| m.rf_channel == 22).unwrap();
    println!(
        "\n# 521 MHz outlier: window {:.1} dBFS vs rooftop {:.1} dBFS — \"the tower",
        per_loc[1][idx_521].power_dbfs, per_loc[0][idx_521].power_dbfs
    );
    println!("# broadcasting at this frequency is in the field of view of the sensor\".");
    println!(
        "# paper shape: all locations keep usable sub-600 MHz signal; rooftop strongest overall."
    );
}
