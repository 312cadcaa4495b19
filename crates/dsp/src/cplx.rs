//! A minimal complex-sample type.
//!
//! IQ samples flow through every layer of the simulation, so the type is
//! deliberately small: `f64` re/im, `Copy`, with only the arithmetic the
//! workspace needs. (We use `f64` rather than `f32` throughout: sample
//! volumes are modest because IQ is synthesized per burst, and `f64` keeps
//! the propagation math and DSP numerics in one precision.)

use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex sample: `re + j·im`.
///
/// `repr(C)` guarantees the `[re, im]` memory order that the vectorized
/// kernels in [`crate::simd`] rely on when loading interleaved IQ blocks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Cplx {
    pub re: f64,
    pub im: f64,
}

impl Cplx {
    /// Zero.
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const J: Cplx = Cplx { re: 0.0, im: 1.0 };

    /// Construct from rectangular parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Construct from polar form: `mag·e^{jφ}`.
    pub fn from_polar(mag: f64, phase_rad: f64) -> Self {
        Self::new(mag * phase_rad.cos(), mag * phase_rad.sin())
    }

    /// `e^{jφ}` — a unit phasor.
    pub fn phasor(phase_rad: f64) -> Self {
        Self::from_polar(1.0, phase_rad)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` — instantaneous power of a sample.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiply by a real scalar.
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

impl Add for Cplx {
    type Output = Cplx;
    fn add(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cplx {
    fn add_assign(&mut self, rhs: Cplx) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    fn sub(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Cplx {
    fn sub_assign(&mut self, rhs: Cplx) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    fn mul(self, rhs: Cplx) -> Cplx {
        Cplx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Cplx {
    fn mul_assign(&mut self, rhs: Cplx) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Cplx {
    type Output = Cplx;
    fn mul(self, rhs: f64) -> Cplx {
        self.scale(rhs)
    }
}

impl Div<f64> for Cplx {
    type Output = Cplx;
    fn div(self, rhs: f64) -> Cplx {
        self.scale(1.0 / rhs)
    }
}

impl Div for Cplx {
    type Output = Cplx;
    fn div(self, rhs: Cplx) -> Cplx {
        let d = rhs.norm_sq();
        Cplx::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

impl From<f64> for Cplx {
    fn from(re: f64) -> Self {
        Cplx::new(re, 0.0)
    }
}

/// Mean power (average `|z|²`) of a sample block; zero for an empty block.
///
/// Reduces in the canonical lane order of [`crate::simd`], so the result
/// is bit-identical across dispatch arms.
pub fn mean_power(samples: &[Cplx]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (crate::simd::kernels().energy)(samples) / samples.len() as f64
}

/// Total energy (sum of `|z|²`) of a sample block, in canonical lane
/// order (bit-identical across dispatch arms).
pub fn energy(samples: &[Cplx]) -> f64 {
    (crate::simd::kernels().energy)(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Cplx::new(3.0, -2.0);
        let b = Cplx::new(-1.0, 4.0);
        assert_eq!(a + b, Cplx::new(2.0, 2.0));
        assert_eq!(a - b, Cplx::new(4.0, -6.0));
        assert_eq!(a * Cplx::ONE, a);
        assert_eq!(a * Cplx::ZERO, Cplx::ZERO);
        assert_eq!(-a, Cplx::new(-3.0, 2.0));
    }

    #[test]
    fn multiplication_matches_polar() {
        let a = Cplx::from_polar(2.0, 0.3);
        let b = Cplx::from_polar(3.0, 1.1);
        let p = a * b;
        assert!((p.abs() - 6.0).abs() < 1e-12);
        assert!((p.arg() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn j_squared_is_minus_one() {
        assert_eq!(Cplx::J * Cplx::J, Cplx::new(-1.0, 0.0));
    }

    #[test]
    fn division_round_trip() {
        let a = Cplx::new(5.0, -7.0);
        let b = Cplx::new(2.0, 3.0);
        let q = (a / b) * b;
        assert!((q.re - a.re).abs() < 1e-12 && (q.im - a.im).abs() < 1e-12);
    }

    #[test]
    fn conj_and_norm() {
        let a = Cplx::new(3.0, 4.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
        let aa = a * a.conj();
        assert!((aa.re - 25.0).abs() < 1e-12 && aa.im.abs() < 1e-12);
    }

    #[test]
    fn phasor_unit_magnitude() {
        for k in 0..16 {
            let p = Cplx::phasor(k as f64 * 0.5);
            assert!((p.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn block_power_and_energy() {
        let s = vec![Cplx::new(1.0, 0.0), Cplx::new(0.0, 1.0)];
        assert!((mean_power(&s) - 1.0).abs() < 1e-12);
        assert!((energy(&s) - 2.0).abs() < 1e-12);
        assert_eq!(mean_power(&[]), 0.0);
    }
}
