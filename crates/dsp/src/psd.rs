//! Power-spectral-density estimation (Welch's method).
//!
//! The sensor nodes this system calibrates exist to *monitor spectrum* —
//! their normal product is PSD data shipped to the cloud ("The host may
//! perform various processing tasks on the I/Q data, such as … computing
//! the Fast Fourier Transform", §2). This module is that product, and the
//! examples use it to visualize what a calibrated vs. obstructed node
//! actually reports.

use crate::fft::fft_in_place;
use crate::scratch::DspScratch;
use crate::window::Window;
use crate::{Cplx, Direction, DspError};

/// Welch PSD estimate over a capture.
///
/// * `segment_len` — FFT length per segment (power of two).
/// * `overlap` — fraction of a segment shared with the next, `[0, 0.95]`.
/// * `window` — taper applied per segment.
///
/// Returns `segment_len` bins of power density (linear, per bin), DC at
/// index 0, two-sided. Fails if the capture is shorter than one segment.
pub fn welch_psd(
    samples: &[Cplx],
    segment_len: usize,
    overlap: f64,
    window: Window,
) -> Result<Vec<f64>, DspError> {
    let mut scratch = DspScratch::new();
    let mut out = Vec::new();
    welch_psd_into(
        samples,
        segment_len,
        overlap,
        window,
        &mut scratch,
        &mut out,
    )?;
    Ok(out)
}

/// [`welch_psd`] with caller-owned working memory: intermediate buffers
/// come from `scratch` and the bins land in `out` (cleared first). A loop
/// that reuses both runs allocation-free once the pool is warm.
pub fn welch_psd_into(
    samples: &[Cplx],
    segment_len: usize,
    overlap: f64,
    window: Window,
    scratch: &mut DspScratch,
    out: &mut Vec<f64>,
) -> Result<(), DspError> {
    if segment_len == 0 || segment_len & (segment_len - 1) != 0 {
        return Err(DspError::NotPowerOfTwo(segment_len));
    }
    if samples.len() < segment_len {
        return Err(DspError::InvalidParameter(
            "capture shorter than one Welch segment",
        ));
    }
    let overlap = overlap.clamp(0.0, 0.95);
    let hop = ((segment_len as f64) * (1.0 - overlap)).max(1.0) as usize;
    let k = crate::simd::kernels();
    let mut taps = scratch.take_real(0);
    window.taps_into(segment_len, &mut taps);
    let win_power: f64 = (k.sum_sq_f64)(&taps) / segment_len as f64;

    out.clear();
    out.resize(segment_len, 0.0);
    let mut segments = 0usize;
    let mut start = 0usize;
    let mut buf = scratch.take_cplx(segment_len);
    let mut result = Ok(());
    while start + segment_len <= samples.len() {
        (k.scale_map)(&samples[start..start + segment_len], &taps, &mut buf);
        if let Err(e) = fft_in_place(&mut buf, Direction::Forward) {
            result = Err(e);
            break;
        }
        (k.norm_sq_accum)(&buf, out);
        segments += 1;
        start += hop;
    }
    scratch.put_real(taps);
    scratch.put_cplx(buf);
    result?;
    // Parseval: Σ_k |X[k]|² = N² · mean_power · mean(w²), so dividing by
    // N²·mean(w²) makes the PSD bins sum to the capture's mean power.
    let norm = 1.0 / (segments as f64 * (segment_len * segment_len) as f64 * win_power.max(1e-30));
    for a in out.iter_mut() {
        *a *= norm;
    }
    Ok(())
}

/// Integrate a two-sided PSD over a frequency band (Hz), given the sample
/// rate. Returns linear power.
pub fn band_power_from_psd(psd: &[f64], sample_rate: f64, lo_hz: f64, hi_hz: f64) -> f64 {
    let n = psd.len();
    if n == 0 || sample_rate <= 0.0 {
        return 0.0;
    }
    (0..n)
        .filter(|&i| {
            let f = crate::fft::bin_to_freq(i, n, sample_rate);
            f >= lo_hz && f <= hi_hz
        })
        .map(|i| psd[i])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, amp: f64, n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|i| Cplx::from_polar(amp, core::f64::consts::TAU * freq * i as f64 / fs))
            .collect()
    }

    #[test]
    fn rejects_bad_parameters() {
        let x = tone(0.0, 1.0, 1.0, 100);
        assert!(welch_psd(&x, 63, 0.5, Window::Hann).is_err());
        assert!(welch_psd(&x[..10], 64, 0.5, Window::Hann).is_err());
    }

    #[test]
    fn tone_power_preserved() {
        // Parseval-style check: total PSD power equals mean sample power.
        let fs = 1e6;
        let x = tone(125_000.0, fs, 0.7, 8_192);
        let psd = welch_psd(&x, 256, 0.5, Window::Hann).unwrap();
        let total: f64 = psd.iter().sum();
        let expected = 0.49;
        assert!(
            (total / expected - 1.0).abs() < 0.05,
            "total {total} vs {expected}"
        );
    }

    #[test]
    fn tone_lands_in_the_right_bin() {
        let fs = 1e6;
        let x = tone(250_000.0, fs, 1.0, 4_096);
        let psd = welch_psd(&x, 256, 0.5, Window::Hann).unwrap();
        let peak = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let freq = crate::fft::bin_to_freq(peak, 256, fs);
        assert!((freq - 250_000.0).abs() < fs / 256.0, "peak at {freq}");
    }

    #[test]
    fn band_power_integration() {
        let fs = 1e6;
        let x = tone(100_000.0, fs, 1.0, 8_192);
        let psd = welch_psd(&x, 512, 0.5, Window::Blackman).unwrap();
        let in_band = band_power_from_psd(&psd, fs, 80_000.0, 120_000.0);
        let out_band = band_power_from_psd(&psd, fs, -300_000.0, -200_000.0);
        assert!(in_band > 0.9);
        assert!(out_band < 1e-6, "out-of-band leakage {out_band}");
    }

    #[test]
    fn welch_variance_reduction() {
        // More averaging (smaller segments over the same capture) gives a
        // flatter noise estimate: the std/mean ratio must drop.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let noise: Vec<Cplx> = (0..16_384)
            .map(|_| crate::normal::draw(&mut rng, 1.0))
            .collect();
        let rel_spread = |psd: &[f64]| {
            let m = psd.iter().sum::<f64>() / psd.len() as f64;
            let v = psd.iter().map(|p| (p - m).powi(2)).sum::<f64>() / psd.len() as f64;
            v.sqrt() / m
        };
        let few = welch_psd(&noise, 4_096, 0.0, Window::Rect).unwrap();
        let many = welch_psd(&noise, 128, 0.5, Window::Rect).unwrap();
        assert!(
            rel_spread(&many) < rel_spread(&few) / 2.0,
            "spread few {} many {}",
            rel_spread(&few),
            rel_spread(&many)
        );
    }
}
