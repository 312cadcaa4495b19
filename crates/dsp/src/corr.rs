//! Correlation utilities for burst detection.
//!
//! The ADS-B demodulator finds the Mode S preamble by sliding a template
//! across the capture and looking for normalized-correlation peaks; these
//! are the primitives it uses.

use crate::Cplx;

/// Normalized correlation magnitude in `[0, 1]` at each lag: the cosine
/// similarity between the template and each signal window. Windows with
/// (near-)zero energy report 0.
///
/// The exact reference the decoder's sparse preamble scan is checked
/// against; output length is `signal.len() - template.len() + 1`, empty if
/// the template is longer than the signal.
pub fn normalized_correlation(signal: &[Cplx], template: &[Cplx]) -> Vec<f64> {
    if template.is_empty() || signal.len() < template.len() {
        return Vec::new();
    }
    let k = crate::simd::kernels();
    let m = template.len();
    let n = signal.len() - m + 1;
    let t_energy = (k.energy)(template);
    if t_energy < 1e-30 {
        return vec![0.0; n];
    }
    let mut out = Vec::with_capacity(n);
    // Running window energy for O(N) instead of O(N·M) energy computation.
    let mut w_energy = (k.energy)(&signal[..m]);
    for i in 0..n {
        let acc = (k.cdot_conj)(&signal[i..i + m], template);
        let denom = (t_energy * w_energy).sqrt();
        out.push(if denom < 1e-30 {
            0.0
        } else {
            acc.abs() / denom
        });
        if i + template.len() < signal.len() {
            w_energy += signal[i + template.len()].norm_sq() - signal[i].norm_sq();
            if w_energy < 0.0 {
                w_energy = 0.0;
            }
        }
    }
    out
}

/// Indices of local maxima in `values` that exceed `threshold`, with at
/// least `min_separation` samples between accepted peaks (the larger peak
/// wins inside a separation window).
///
/// The dense reference the ADS-B decoder's sparse preamble peak picker is
/// checked against.
pub fn find_peaks(values: &[f64], threshold: f64, min_separation: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (0..values.len())
        .filter(|&i| {
            values[i] >= threshold
                && (i == 0 || values[i] >= values[i - 1])
                && (i + 1 == values.len() || values[i] > values[i + 1])
        })
        .collect();
    // Peaks are at or above the threshold, so never NaN.
    suppress_peaks(
        &mut out,
        |&i| i,
        |&a, &b| values[b].partial_cmp(&values[a]).unwrap(),
        min_separation,
    );
    out
}

/// Greedy non-maximum suppression: visit `peaks` (distinct lags, `lag`
/// reading one) in `visit` order (tallest first; a stable sort, so ties
/// keep lag order), compact the ones at least `min_separation.max(1)`
/// lags from every peak kept before them into an accepted prefix, and
/// leave the kept peaks in lag order.
///
/// Checking every kept peak is O(P²) in the number of peaks; the peaks
/// of a survey window number about four.
pub fn suppress_peaks<T>(
    peaks: &mut Vec<T>,
    lag: impl Fn(&T) -> usize,
    visit: impl FnMut(&T, &T) -> core::cmp::Ordering,
    min_separation: usize,
) {
    peaks.sort_by(visit);
    let mut accepted = 0;
    for k in 0..peaks.len() {
        let at = lag(&peaks[k]);
        if peaks[..accepted]
            .iter()
            .all(|p| lag(p).abs_diff(at) >= min_separation.max(1))
        {
            peaks.swap(accepted, k);
            accepted += 1;
        }
    }
    peaks.truncate(accepted);
    peaks.sort_unstable_by_key(|p| lag(p));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> Vec<Cplx> {
        vec![Cplx::ONE, Cplx::ZERO, Cplx::ONE, Cplx::ONE]
    }

    #[test]
    fn degenerate_inputs_yield_empty() {
        assert!(normalized_correlation(&[], &template()).is_empty());
        assert!(normalized_correlation(&template(), &[]).is_empty());
        assert!(normalized_correlation(&[Cplx::ONE], &template()).is_empty());
    }

    #[test]
    fn exact_match_peaks_at_one() {
        let t = template();
        let mut sig = vec![Cplx::ZERO; 10];
        sig[3..7].copy_from_slice(&t);
        let nc = normalized_correlation(&sig, &t);
        let (best, &val) = nc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(best, 3);
        assert!((val - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_is_scale_invariant() {
        let t = template();
        let mut sig = vec![Cplx::ZERO; 12];
        for (i, v) in t.iter().enumerate() {
            sig[4 + i] = v.scale(37.5); // much louder than the template
        }
        let nc = normalized_correlation(&sig, &t);
        assert!((nc[4] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn phase_rotation_does_not_break_match() {
        let t = template();
        let rot = Cplx::phasor(1.2);
        let mut sig = vec![Cplx::ZERO; 12];
        for (i, v) in t.iter().enumerate() {
            sig[2 + i] = *v * rot;
        }
        let nc = normalized_correlation(&sig, &t);
        assert!((nc[2] - 1.0).abs() < 1e-9, "got {}", nc[2]);
    }

    #[test]
    fn find_peaks_basic() {
        let v = [0.0, 0.2, 0.9, 0.3, 0.0, 0.8, 0.1];
        assert_eq!(find_peaks(&v, 0.5, 1), vec![2, 5]);
        assert_eq!(find_peaks(&v, 0.95, 1), Vec::<usize>::new());
    }

    #[test]
    fn find_peaks_suppression_keeps_larger() {
        let v = [0.0, 0.8, 0.0, 0.9, 0.0];
        // With separation 3, the 0.9 peak at index 3 suppresses index 1.
        assert_eq!(find_peaks(&v, 0.5, 3), vec![3]);
    }

    #[test]
    fn find_peaks_plateau_takes_leading_edge_only_once() {
        let v = [0.0, 1.0, 1.0, 0.0];
        let peaks = find_peaks(&v, 0.5, 1);
        assert_eq!(peaks.len(), 1);
    }

    #[test]
    fn find_peaks_suppression_checks_every_kept_peak() {
        // Visited tallest first: 5, 16, 12, 9 (too close to 12 but not
        // to 5), 2 (too close to 5), then 20, kept after two rejections.
        let mut v = [0.0; 22];
        for (lag, height) in [
            (2, 0.6),
            (5, 0.9),
            (9, 0.7),
            (12, 0.8),
            (16, 0.85),
            (20, 0.5),
        ] {
            v[lag] = height;
        }
        assert_eq!(find_peaks(&v, 0.4, 4), vec![5, 12, 16, 20]);
    }
}
