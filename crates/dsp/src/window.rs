//! Window functions for filter design and spectral analysis.

/// Window shape selector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Window {
    /// Rectangular (no taper).
    Rect,
    /// Hann (raised cosine).
    Hann,
    /// Hamming.
    Hamming,
    /// Blackman (3-term).
    Blackman,
    /// Kaiser with shape parameter β.
    Kaiser(f64),
}

impl Window {
    /// Evaluate the window at tap `i` of an `n`-tap window (symmetric form).
    pub fn coeff(&self, i: usize, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        let x = i as f64 / (n - 1) as f64; // 0..=1 across the window
        match self {
            Window::Rect => 1.0,
            Window::Hann => 0.5 - 0.5 * (core::f64::consts::TAU * x).cos(),
            Window::Hamming => 0.54 - 0.46 * (core::f64::consts::TAU * x).cos(),
            Window::Blackman => {
                0.42 - 0.5 * (core::f64::consts::TAU * x).cos()
                    + 0.08 * (2.0 * core::f64::consts::TAU * x).cos()
            }
            Window::Kaiser(beta) => {
                let t = 2.0 * x - 1.0; // -1..=1
                bessel_i0(beta * (1.0 - t * t).max(0.0).sqrt()) / bessel_i0(*beta)
            }
        }
    }

    /// Materialize the window into a caller-owned buffer (cleared first);
    /// reusing `out` across calls keeps repeated designs allocation-free.
    pub fn taps_into(&self, n: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..n).map(|i| self.coeff(i, n)));
    }
}

/// Modified Bessel function of the first kind, order zero, by power series.
///
/// Converges quickly for the β ≤ 20 range used in window design.
pub fn bessel_i0(x: f64) -> f64 {
    let mut sum = 1.0;
    let mut term = 1.0;
    let half_x_sq = (x / 2.0) * (x / 2.0);
    for k in 1..64 {
        term *= half_x_sq / (k as f64 * k as f64);
        sum += term;
        if term < 1e-17 * sum {
            break;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn taps(w: Window, n: usize) -> Vec<f64> {
        let mut out = Vec::new();
        w.taps_into(n, &mut out);
        out
    }

    #[test]
    fn windows_are_symmetric() {
        for w in [
            Window::Rect,
            Window::Hann,
            Window::Hamming,
            Window::Blackman,
            Window::Kaiser(8.6),
        ] {
            let n = 33;
            let t = taps(w, n);
            for i in 0..n {
                assert!((t[i] - t[n - 1 - i]).abs() < 1e-12, "{w:?} tap {i}");
            }
        }
    }

    #[test]
    fn hann_endpoints_zero_center_one() {
        let t = taps(Window::Hann, 65);
        assert!(t[0].abs() < 1e-12);
        assert!(t[64].abs() < 1e-12);
        assert!((t[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kaiser_peak_at_center() {
        let t = taps(Window::Kaiser(6.0), 101);
        assert!((t[50] - 1.0).abs() < 1e-12);
        assert!(t[0] < 0.02);
    }

    #[test]
    fn bessel_known_values() {
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-15);
        // I0(1) ≈ 1.2660658777520084
        assert!((bessel_i0(1.0) - 1.2660658777520084).abs() < 1e-12);
        // I0(5) ≈ 27.239871823604442
        assert!((bessel_i0(5.0) - 27.239871823604442).abs() < 1e-9);
    }

    #[test]
    fn degenerate_lengths() {
        assert_eq!(taps(Window::Hann, 1), vec![1.0]);
        assert!(taps(Window::Blackman, 0).is_empty());
    }
}
