//! Deterministic path-loss models.

use crate::SPEED_OF_LIGHT;

/// Free-space path loss in dB (Friis) for a distance in meters and
/// frequency in Hz.
///
/// Distances below one wavelength are clamped to one wavelength: the Friis
/// far-field formula is meaningless closer than that, and clamping keeps
/// the function total and monotone.
pub fn free_space_path_loss_db(distance_m: f64, freq_hz: f64) -> f64 {
    let wavelength = SPEED_OF_LIGHT / freq_hz;
    let d = distance_m.max(wavelength);
    20.0 * (4.0 * core::f64::consts::PI * d / wavelength).log10()
}

/// Log-distance path loss: FSPL up to `reference_m`, then `10·n·log₁₀(d/d₀)`
/// beyond it with path-loss exponent `n`.
///
/// `n = 2` reduces exactly to free space; urban macro links typically use
/// 2.7–3.5; heavily cluttered/indoor links 4–6.
pub fn log_distance_path_loss_db(
    distance_m: f64,
    freq_hz: f64,
    reference_m: f64,
    exponent: f64,
) -> f64 {
    let d0 = reference_m.max(1e-3);
    let pl0 = free_space_path_loss_db(d0, freq_hz);
    let d = distance_m.max(d0);
    pl0 + 10.0 * exponent * (d / d0).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fspl_known_value_adsb() {
        // 1090 MHz at 95 km (the paper's longest rooftop reception):
        // 32.45 + 20log10(95) + 20log10(1090) ≈ 132.8 dB.
        let pl = free_space_path_loss_db(95_000.0, 1.09e9);
        assert!((pl - 132.75).abs() < 0.2, "got {pl}");
    }

    #[test]
    fn fspl_known_value_wifi() {
        // Classic textbook value: 2.4 GHz at 100 m ≈ 80.1 dB.
        let pl = free_space_path_loss_db(100.0, 2.4e9);
        assert!((pl - 80.1).abs() < 0.3, "got {pl}");
    }

    #[test]
    fn fspl_clamps_near_field() {
        let pl_zero = free_space_path_loss_db(0.0, 1e9);
        let pl_tiny = free_space_path_loss_db(1e-9, 1e9);
        assert!(pl_zero.is_finite() && pl_tiny.is_finite());
        // One wavelength of FSPL is 20log10(4π) ≈ 22 dB.
        assert!((pl_zero - 21.98).abs() < 0.1);
    }

    #[test]
    fn log_distance_reduces_to_fspl_at_exponent_two() {
        for d in [10.0, 100.0, 10_000.0] {
            let a = log_distance_path_loss_db(d, 900e6, 1.0, 2.0);
            let b = free_space_path_loss_db(d, 900e6);
            assert!((a - b).abs() < 0.01, "at {d} m: {a} vs {b}");
        }
    }

    #[test]
    fn higher_exponent_means_more_loss() {
        let d = 1_000.0;
        let n2 = log_distance_path_loss_db(d, 2e9, 10.0, 2.0);
        let n35 = log_distance_path_loss_db(d, 2e9, 10.0, 3.5);
        assert!(n35 > n2 + 25.0, "n2 {n2}, n3.5 {n35}");
    }

    proptest! {
        /// FSPL is monotonically non-decreasing in distance.
        #[test]
        fn fspl_monotone_distance(d1 in 1.0f64..1e6, d2 in 1.0f64..1e6, f in 1e8f64..1e10) {
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(free_space_path_loss_db(lo, f) <= free_space_path_loss_db(hi, f) + 1e-9);
        }

        /// FSPL increases 6.02 dB per distance doubling in the far field.
        #[test]
        fn fspl_inverse_square(d in 10.0f64..1e5, f in 1e8f64..1e10) {
            let a = free_space_path_loss_db(d, f);
            let b = free_space_path_loss_db(2.0 * d, f);
            prop_assert!((b - a - 6.0206).abs() < 1e-6);
        }

        /// Higher frequency always loses at least as much (fixed distance).
        #[test]
        fn fspl_monotone_frequency(d in 1.0f64..1e5, f1 in 1e8f64..1e10, f2 in 1e8f64..1e10) {
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            prop_assert!(free_space_path_loss_db(d, lo) <= free_space_path_loss_db(d, hi) + 1e-9);
        }
    }
}
