//! What a sensor node actually ships: spectrum data. This example renders
//! the Welch PSD each paper location would report for the same ATSC
//! channel — making visceral why calibration matters: the indoor node's
//! "spectrum occupancy" product is tens of dB of fiction.
//!
//! ```sh
//! cargo run --release --example spectrum_monitor [seed]
//! ```

use aircal::dsp::psd::welch_psd;
use aircal::dsp::window::Window;
use aircal::prelude::*;
use aircal_rfprop::LinkBudget;
use aircal_sdr::{Frontend, FrontendConfig};
use aircal_tv::{paper_tv_towers, synth::synthesize_8vsb};
use rand::SeedableRng;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    let fs = 8e6;
    let towers = paper_tv_towers(&aircal_env::scenarios::testbed_origin());
    let tower = &towers[1]; // 473 MHz, west
    println!(
        "monitoring {} from the paper's three locations\n",
        tower.name
    );

    for scenario in paper_scenarios() {
        // Channel + front end, exactly as the TV probe does it.
        let path =
            scenario
                .world
                .path_profile(&scenario.site, &tower.position, tower.channel.center_hz());
        let bearing = scenario.site.position.bearing_deg(&tower.position);
        let elevation = scenario.site.position.elevation_deg(&tower.position);
        let rx_gain = scenario.site.antenna.gain_dbi(bearing, elevation);
        let budget = LinkBudget::new(tower.erp_dbm, 0.0, rx_gain);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let rx_dbm = budget.sample_rx_dbm(&path, &mut rng);

        let mut fe_cfg = FrontendConfig::bladerf_xa9(tower.channel.center_hz(), fs);
        fe_cfg.full_scale_dbm = -25.0;
        let fe = Frontend::new(fe_cfg);
        let waveform = synthesize_8vsb(32_768, fs);
        let iq = fe.render_burst(&waveform, rx_dbm, 0.0, &mut rng);

        // The node's product: a Welch PSD of the capture.
        let psd = welch_psd(&iq, 128, 0.5, Window::Hann).expect("capture long enough");
        println!(
            "{} (path obstruction {:.0} dB):",
            scenario.site.name,
            path.diffraction_db + path.penetration_db
        );
        render_psd(&psd, fs);
        println!();
    }
}

/// ASCII PSD: bins reordered to ascending frequency, log scale.
fn render_psd(psd: &[f64], fs: f64) {
    let n = psd.len();
    // Reorder two-sided FFT bins to −fs/2 … +fs/2.
    let ordered: Vec<f64> = (0..n).map(|i| psd[(i + n / 2) % n]).collect();
    let cols = 64;
    let per_col = n / cols;
    let col_db: Vec<f64> = (0..cols)
        .map(|c| {
            let sum: f64 = ordered[c * per_col..(c + 1) * per_col].iter().sum();
            10.0 * (sum / per_col as f64).max(1e-15).log10()
        })
        .collect();
    for level in (0..8).rev() {
        let threshold = -100.0 + level as f64 * 10.0;
        let row: String = col_db
            .iter()
            .map(|&db| if db >= threshold { '█' } else { ' ' })
            .collect();
        println!("  {threshold:>5.0} dB |{row}|");
    }
    println!(
        "           {:^66}",
        format!("{:.1} MHz span (channel centered)", fs / 1e6)
    );
}
