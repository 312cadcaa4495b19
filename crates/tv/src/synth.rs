//! 8VSB-like baseband synthesis.
//!
//! For band-power measurement purposes an ATSC signal is (a) a flat
//! ~5.38 MHz-wide data spectrum and (b) a pilot tone near the lower band
//! edge, ~11.3 dB below the total signal power. We synthesize exactly
//! that: a PRBS symbol stream shaped by a lowpass FIR, plus the pilot,
//! normalized to unit mean power so the front end's dBm→dBFS scaling
//! stays exact.

use crate::OCCUPIED_BANDWIDTH_HZ;
use aircal_dsp::fir::design_lowpass;
use aircal_dsp::window::Window;
use aircal_dsp::{Cplx, FirFilter, Lfsr};
use std::sync::{Arc, Mutex, PoisonError};

/// The last waveform [`synthesize_8vsb_shared`] built, keyed on the exact
/// bits of `(len, fs)`.
type Memo = Option<((u64, u64), Arc<[Cplx]>)>;

static WAVEFORM_MEMO: Mutex<Memo> = Mutex::new(None);

/// [`synthesize_8vsb`] memoised process-wide: the waveform depends only on
/// `(len, fs)`, so every probe sweep after the first shares one read-only
/// copy. The key is the exact bits of both values (like the propagation
/// memo's position keys); the memo holds one waveform, replaced on a miss.
pub fn synthesize_8vsb_shared(len: usize, fs: f64) -> Arc<[Cplx]> {
    let key = (len as u64, fs.to_bits());
    let lock = || WAVEFORM_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((k, wave)) = &*lock() {
        if *k == key {
            return Arc::clone(wave);
        }
    }
    // Synthesize outside the lock; a racing thread computes the same bits.
    let wave: Arc<[Cplx]> = synthesize_8vsb(len, fs).into();
    *lock() = Some((key, Arc::clone(&wave)));
    wave
}

/// Synthesize `len` samples of a unit-power 8VSB-like signal at sample
/// rate `fs` (complex baseband centered on the channel center).
///
/// The data spectrum spans ±`OCCUPIED_BANDWIDTH_HZ`/2; the pilot sits at
/// −2.69 MHz (lower edge + 310 kHz relative to a 6 MHz channel).
pub fn synthesize_8vsb(len: usize, fs: f64) -> Vec<Cplx> {
    let cutoff = (OCCUPIED_BANDWIDTH_HZ / 2.0 / fs).min(0.49);
    let taps = design_lowpass(cutoff, 65, Window::Hamming).expect("valid lowpass");
    let mut filter = FirFilter::from_real(&taps).expect("valid filter");
    let mut prbs = Lfsr::prbs23();

    // White bipolar symbols through the shaping filter.
    let warm = taps.len();
    let mut shaped: Vec<Cplx> = Vec::with_capacity(len + warm);
    for _ in 0..len + warm {
        let s = Cplx::new(
            if prbs.next_bit() { 1.0 } else { -1.0 },
            if prbs.next_bit() { 1.0 } else { -1.0 },
        );
        shaped.push(filter.push(s));
    }
    let mut sig: Vec<Cplx> = shaped[warm..].to_vec();

    // Pilot at the ATSC offset, 11.3 dB below the data power.
    let pilot_freq = -2.69e6;
    let data_power = aircal_dsp::cplx::mean_power(&sig).max(1e-30);
    let pilot_amp = (data_power * 10f64.powf(-11.3 / 10.0)).sqrt();
    for (n, s) in sig.iter_mut().enumerate() {
        *s += Cplx::from_polar(
            pilot_amp,
            core::f64::consts::TAU * pilot_freq / fs * n as f64,
        );
    }

    // Normalize to unit mean power.
    let p = aircal_dsp::cplx::mean_power(&sig).max(1e-30);
    let scale = 1.0 / p.sqrt();
    for s in sig.iter_mut() {
        *s = s.scale(scale);
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use aircal_dsp::cplx::mean_power;
    use aircal_dsp::fft::{bin_to_freq, power_spectrum};

    #[test]
    fn unit_power() {
        let sig = synthesize_8vsb(16_384, 8e6);
        let p = mean_power(&sig);
        assert!((p - 1.0).abs() < 1e-9, "power {p}");
    }

    #[test]
    fn spectrum_confined_to_channel() {
        let fs = 8e6;
        let sig = synthesize_8vsb(8_192, fs);
        let ps = power_spectrum(&sig[..8_192]).unwrap();
        let (mut in_band, mut out_band) = (0.0, 0.0);
        for (i, &p) in ps.iter().enumerate() {
            let f = bin_to_freq(i, ps.len(), fs);
            if f.abs() <= OCCUPIED_BANDWIDTH_HZ / 2.0 + 0.2e6 {
                in_band += p;
            } else {
                out_band += p;
            }
        }
        assert!(
            in_band / (in_band + out_band) > 0.98,
            "only {:.3} of power in band",
            in_band / (in_band + out_band)
        );
    }

    #[test]
    fn pilot_visible_in_spectrum() {
        let fs = 8e6;
        let sig = synthesize_8vsb(16_384, fs);
        let n = 16_384;
        let ps = power_spectrum(&sig[..n]).unwrap();
        // Find the strongest single bin near −2.69 MHz.
        let target_bin = aircal_dsp::fft::freq_to_bin(-2.69e6, n, fs);
        let pilot_region: f64 = (target_bin.saturating_sub(2)..target_bin + 3)
            .map(|b| ps[b % n])
            .sum();
        // A same-width region in the flat part of the spectrum.
        let flat_bin = aircal_dsp::fft::freq_to_bin(1.0e6, n, fs);
        let flat_region: f64 = (flat_bin - 2..flat_bin + 3).map(|b| ps[b]).sum();
        assert!(
            pilot_region > 3.0 * flat_region,
            "pilot region {pilot_region:e} vs flat {flat_region:e}"
        );
    }

    /// The memo hands out the bits `synthesize_8vsb` computes, on a miss
    /// and on a hit, at the probe's capture shape and at a second shape
    /// that replaces it.
    #[test]
    fn shared_waveform_is_bitwise_synthesis() {
        let probe = crate::TvProbeConfig::default();
        for (len, fs) in [(probe.capture_len(), probe.sample_rate_hz), (4_096, 6.5e6)] {
            let fresh = synthesize_8vsb(len, fs);
            for _ in 0..2 {
                let shared = synthesize_8vsb_shared(len, fs);
                assert_eq!(shared.len(), fresh.len());
                for (a, b) in fresh.iter().zip(shared.iter()) {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits())
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = synthesize_8vsb(1_024, 8e6);
        let b = synthesize_8vsb(1_024, 8e6);
        assert_eq!(a, b);
    }
}
