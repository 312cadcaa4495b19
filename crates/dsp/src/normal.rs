//! The one Gaussian sampler of the workspace: a portable polynomial
//! Box–Muller transform.
//!
//! Every normal draw — front-end thermal noise ([`crate::Kernels::noise_quantize`]),
//! fading and shadowing, and the test helpers that add noise — goes
//! through [`box_muller`]. It uses only `+ − × ÷`, `sqrt`, comparisons,
//! bit operations and exact integer↔float conversions, in a fixed order
//! with no fused multiply-add. IEEE 754 rounds each of those the same way
//! on every platform, so a draw has the same bits on every ISA, libm and
//! compiler: no sample path calls `ln`, `sin` or `cos`. The AVX2 arm of
//! `noise_quantize` replays the same operation sequence four draws at a
//! time, so its Gaussians are the scalar ones bit for bit.
//!
//! The polynomials are short Taylor and `atanh` series; their distance
//! from the exact transform is [`BOX_MULLER_ERR`] per component, far
//! below anything a 12-bit ADC or a dB-scale fade can resolve.

use crate::Cplx;
use rand::RngCore;

/// Upper bound on `|n_poly − n_exact| / σ` for each component, where
/// `n_poly` is [`box_muller`] and `n_exact` is
/// `σ·sqrt(−2·ln u1)·(cos, sin)(2π·u2)` evaluated in exact arithmetic
/// (libm's evaluation is within 1e-14 of it).
///
/// The budget is the three series remainders plus rounding:
///
/// * **Radius.** The `ATANH` series stops after `s⁹/9`, so `−ln u1` is
///   off by at most `δ = 2|s|¹¹/(11·(1 − s²))` with
///   `|s| ≤ (√2 − 1)/(√2 + 1) = 0.1716`. The radius
///   `r = sqrt(−2·ln u1)` moves by `δ/r`, and `r ≥ 2·sqrt(|s|)` when the
///   exponent is 0 (`r ≥ 0.83` otherwise), so by at most
///   `|s|^10.5/(11·(1 − s²)) = 8.6e-10`.
/// * **Angle.** The `SIN` and `COS` series stop after `a¹¹/11!` and
///   `a¹⁰/10!`, so for `|a| ≤ π/4` they are off by at most
///   `a¹³/13! = 6.9e-12` and `a¹²/12! = 1.15e-10`; times
///   `r ≤ sqrt(2·52·ln 2) = 8.49` (`u1 ≥ ε`) that is at most `9.8e-10`.
/// * **Rounding.** The operations of the evaluation (and its reduced
///   angle, exact up to an ulp of `4u + ½`) add under 1e-14.
///
/// The sum is below 1.85e-9. The measured worst case against libm over
/// 10⁶ draws plus the edge points is in `tests/properties.rs`. One
/// series term fewer in any polynomial moves its part past this bound
/// (`ATANH` to 3.6e-8, `SIN` to 1.5e-8, `COS` to 2.1e-7).
pub const BOX_MULLER_ERR: f64 = 2e-9;

/// Cody–Waite split of ln 2: `LN2_HI` has 32 significant bits, so
/// `e·LN2_HI` is exact for the exponents `ln_unit` sees.
pub(crate) const LN2_HI: f64 = 6.931_471_803_691_238e-1;
pub(crate) const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// `1/(2k+1)` for k = 4 down to 0: `ln m = 2s·Σ s^(2k)/(2k+1)` with
/// `s = (m−1)/(m+1)`, `|s| ≤ 0.172` (remainder in [`BOX_MULLER_ERR`]).
pub(crate) const ATANH: [f64; 5] = [1.0 / 9.0, 1.0 / 7.0, 1.0 / 5.0, 1.0 / 3.0, 1.0];

/// Taylor coefficients of `(sin a − a)/a³` in `a²`, highest first
/// (through `a¹¹/11!`; remainder below 6.9e-12 for `|a| ≤ π/4`).
pub(crate) const SIN: [f64; 5] = [
    -1.0 / 39_916_800.0,
    1.0 / 362_880.0,
    -1.0 / 5_040.0,
    1.0 / 120.0,
    -1.0 / 6.0,
];

/// Taylor coefficients of `(cos a − 1)/a²` in `a²`, highest first
/// (through `a¹⁰/10!`; remainder below 1.2e-10 for `|a| ≤ π/4`).
pub(crate) const COS: [f64; 5] = [
    -1.0 / 3_628_800.0,
    1.0 / 40_320.0,
    -1.0 / 720.0,
    1.0 / 24.0,
    -1.0 / 2.0,
];

#[inline(always)]
fn horner(z: f64, coeffs: &[f64]) -> f64 {
    let mut p = coeffs[0];
    for &k in &coeffs[1..] {
        p = p * z + k;
    }
    p
}

/// `ln u` for `u ∈ [2⁻⁵², 1)`: split `u = 2^e·m` with `m ∈ (√½, √2]`,
/// then `ln u = e·ln 2 + 2·atanh((m−1)/(m+1))`.
#[inline(always)]
fn ln_unit(u: f64) -> f64 {
    let bits = u.to_bits();
    let e = (bits >> 52) as f64 - 1023.0;
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    // Fold `m > √2` down by an exact halving without a branch: the
    // comparison is a coin flip per draw.
    let big = f64::from(u8::from(m > core::f64::consts::SQRT_2));
    let m = m * (1.0 - 0.5 * big);
    let e = e + big;
    let s = (m - 1.0) / (m + 1.0);
    let p = horner(s * s, &ATANH);
    e * LN2_HI + (e * LN2_LO + 2.0 * s * p)
}

/// `(sin 2πu, cos 2πu)` for `u ∈ [0, 1)`: the quadrant `j = ⌊4u + ½⌋`
/// (the nearest quarter turn) splits off exactly (`u − j/4` is exact),
/// leaving `|a| = |2π(u − j/4)| ≤ π/4` (plus an ulp where `4u + ½`
/// rounds) for the Taylor series.
#[inline(always)]
fn sincos_2pi(u: f64) -> (f64, f64) {
    // Truncation is `floor` here, and compiles to one instruction
    // where `floor` is a libm call.
    let j = (4.0 * u + 0.5) as u32;
    let a = (u - 0.25 * f64::from(j)) * core::f64::consts::TAU;
    let a2 = a * a;
    let s = a + a * a2 * horner(a2, &SIN);
    let c = 1.0 + a2 * horner(a2, &COS);
    // Quadrant `j mod 4` without a branch: odd quadrants swap sine and
    // cosine, quadrants 2–3 negate the sine and 1–2 the cosine.
    let negate = |x: f64, neg: bool| f64::from_bits(x.to_bits() ^ (u64::from(neg) << 63));
    let (sin, cos) = if j & 1 == 0 { (s, c) } else { (c, s) };
    (negate(sin, j & 2 != 0), negate(cos, (j + 1) & 2 != 0))
}

/// One Box–Muller pair of per-component σ from `u1 ∈ [ε, 1)` and
/// `u2 ∈ [0, 1)`: `r·(cos 2πu2, sin 2πu2)` with `r = σ·sqrt(−2·ln u1)`,
/// the real and imaginary parts two independent `N(0, σ²)` draws.
#[inline(always)]
pub fn box_muller(u1: f64, u2: f64, sigma: f64) -> Cplx {
    let r = sigma * (-2.0 * ln_unit(u1)).sqrt();
    let (s, c) = sincos_2pi(u2);
    Cplx::new(r * c, r * s)
}

/// [`box_muller`] from the next two words of `rng`, mapped as
/// `gen_range(ε..1.0)` and `gen_range(0.0..1.0)` map them: a site that
/// drew those two uniforms before draws the same words now.
pub fn draw<R: RngCore + ?Sized>(rng: &mut R, sigma: f64) -> Cplx {
    let u1 = rand::uniform_f64(rng.next_u64(), f64::EPSILON, 1.0);
    let u2 = rand::uniform_f64(rng.next_u64(), 0.0, 1.0);
    box_muller(u1, u2, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// `draw` takes the words two `gen_range` calls take, and maps them
    /// to the same uniforms.
    #[test]
    fn draw_consumes_two_gen_range_words() {
        let mut a = ChaCha8Rng::seed_from_u64(17);
        let mut b = a.clone();
        for _ in 0..1000 {
            let z = draw(&mut a, 0.3);
            let u1: f64 = b.gen_range(f64::EPSILON..1.0);
            let u2: f64 = b.gen_range(0.0..1.0);
            assert_eq!(z, box_muller(u1, u2, 0.3));
        }
        assert_eq!(a, b);
    }

    /// `Φ(x)`, from the complementary error function of Numerical
    /// Recipes' Chebyshev fit (`erfc` to 1.2e-7 everywhere).
    fn normal_cdf(x: f64) -> f64 {
        let z = x.abs() / core::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = [
            -1.265_512_23,
            1.000_023_68,
            0.374_091_96,
            0.096_784_18,
            -0.186_288_06,
            0.278_868_07,
            -1.135_203_98,
            1.488_515_87,
            -0.822_152_23,
            0.170_872_77,
        ];
        let p = poly.iter().rev().fold(0.0, |acc, &k| acc * t + k);
        let erfc = t * (-z * z + p).exp();
        if x >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    /// Sample moments and the Kolmogorov–Smirnov statistic of each
    /// component of `n` draws against N(0, 1). Every bound is five
    /// standard errors (the moments) or the 0.1% critical value
    /// `1.95/√n` (KS), so a correct sampler fails none of them by chance
    /// at any practical rate. The 10⁶-draw case runs in release builds
    /// (`scripts/verify.sh`); debug builds check 10⁵.
    #[test]
    fn draws_are_standard_normal() {
        let n = if cfg!(debug_assertions) {
            100_000
        } else {
            1_000_000
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0x6A05_5140);
        let (mut re, mut im): (Vec<f64>, Vec<f64>) = (0..n)
            .map(|_| draw(&mut rng, 1.0))
            .map(|z| (z.re, z.im))
            .unzip();
        let nf = n as f64;
        for (part, xs) in [("re", &mut re), ("im", &mut im)] {
            let mean = xs.iter().sum::<f64>() / nf;
            let central = |k: i32| xs.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / nf;
            let var = central(2);
            let skew = central(3) / var.powf(1.5);
            let excess_kurtosis = central(4) / (var * var) - 3.0;
            assert!(mean.abs() < 5.0 / nf.sqrt(), "{part}: mean {mean}");
            assert!(
                (var - 1.0).abs() < 5.0 * (2.0 / nf).sqrt(),
                "{part}: variance {var}"
            );
            assert!(skew.abs() < 5.0 * (6.0 / nf).sqrt(), "{part}: skew {skew}");
            assert!(
                excess_kurtosis.abs() < 5.0 * (24.0 / nf).sqrt(),
                "{part}: excess kurtosis {excess_kurtosis}"
            );
            xs.sort_by(f64::total_cmp);
            let ks = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let f = normal_cdf(x);
                    (f - i as f64 / nf).max((i + 1) as f64 / nf - f)
                })
                .fold(0.0, f64::max);
            assert!(ks < 1.95 / nf.sqrt(), "{part}: KS statistic {ks}");
        }
    }
}
