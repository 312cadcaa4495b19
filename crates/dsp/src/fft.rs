//! Iterative radix-2 decimation-in-time FFT.
//!
//! Used for spectrum inspection in tests/examples and to verify Parseval's
//! identity, which underpins the paper's TV band-power measurement. Lengths
//! must be powers of two; the harness only ever uses such lengths.

use crate::simd::{kernels, Kernels};
use crate::{Cplx, DspError};

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT (`e^{-j2πkn/N}` kernel).
    Forward,
    /// Inverse DFT, including the `1/N` normalization.
    Inverse,
}

/// In-place radix-2 FFT. `data.len()` must be a power of two (1 is allowed).
pub fn fft_in_place(data: &mut [Cplx], dir: Direction) -> Result<(), DspError> {
    let n = data.len();
    if n == 0 || n & (n - 1) != 0 {
        return Err(DspError::NotPowerOfTwo(n));
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let ang = sign * core::f64::consts::TAU / len as f64;
        let wlen = Cplx::phasor(ang);
        let mut i = 0;
        while i < n {
            let mut w = Cplx::ONE;
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for x in data.iter_mut() {
            *x = x.scale(inv);
        }
    }
    Ok(())
}

/// A reusable FFT plan for one transform length.
///
/// [`fft_in_place`] recomputes the bit-reversal permutation and the
/// per-stage twiddle recurrence on every call; a planner front-loads both
/// into lookup tables so repeated transforms of the same length (the
/// overlap-save FIR, the band-power probe, PSD sweeps) pay only the
/// butterfly arithmetic, which runs in the dispatched
/// [`Kernels::fft_radix2`]. The twiddle tables are built with the same
/// `w *= wlen` recurrence the direct routine uses and every arm replays
/// its butterflies exactly, so planner output is **bit-identical** to
/// [`fft_in_place`] for every input.
#[derive(Debug, Clone)]
pub struct FftPlanner {
    n: usize,
    /// The bit-reversal permutation as its `(i, rev(i))` transpositions
    /// with `i < rev(i)`, ascending in `i` — the swaps the direct routine
    /// performs, without its per-index test.
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles, all stages flattened; stage with butterfly span
    /// `len` starts at offset `len/2 - 1` and holds `len/2` entries.
    fwd: Vec<Cplx>,
    /// Inverse twiddles, same layout.
    inv: Vec<Cplx>,
}

impl FftPlanner {
    /// Plan transforms of length `n` (must be a power of two).
    pub fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 || n & (n - 1) != 0 {
            return Err(DspError::NotPowerOfTwo(n));
        }
        let mut swaps = Vec::with_capacity(n / 2);
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        let mut fwd = Vec::with_capacity(n.saturating_sub(1));
        let mut inv = Vec::with_capacity(n.saturating_sub(1));
        for (sign, table) in [(-1.0, &mut fwd), (1.0, &mut inv)] {
            let mut len = 2;
            while len <= n {
                let ang = sign * core::f64::consts::TAU / len as f64;
                let wlen = Cplx::phasor(ang);
                let mut w = Cplx::ONE;
                for _ in 0..len / 2 {
                    table.push(w);
                    w *= wlen;
                }
                len <<= 1;
            }
        }
        Ok(Self { n, swaps, fwd, inv })
    }

    /// Planned transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate length-0 plan (unconstructable).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place transform of exactly `self.len()` samples, with the
    /// butterflies on the process's dispatched kernel arm.
    pub fn process(&self, data: &mut [Cplx], dir: Direction) -> Result<(), DspError> {
        self.process_with(kernels(), data, dir)
    }

    /// [`FftPlanner::process`] on a chosen kernel arm; every arm gives the
    /// same bits (see [`Kernels::fft_radix2`]).
    pub fn process_with(
        &self,
        arm: &Kernels,
        data: &mut [Cplx],
        dir: Direction,
    ) -> Result<(), DspError> {
        let n = self.n;
        if data.len() != n {
            return Err(DspError::InvalidParameter("data length must match plan"));
        }
        // Two loads and two stores per pair: `slice::swap` here ran about
        // three times slower (2048 points, x86-64).
        for &(i, j) in &self.swaps {
            let (i, j) = (i as usize, j as usize);
            let (a, b) = (data[i], data[j]);
            data[i] = b;
            data[j] = a;
        }
        let table = match dir {
            Direction::Forward => &self.fwd,
            Direction::Inverse => &self.inv,
        };
        (arm.fft_radix2)(data, table);
        if dir == Direction::Inverse {
            let scale = 1.0 / n as f64;
            for x in data.iter_mut() {
                *x = x.scale(scale);
            }
        }
        Ok(())
    }
}

/// Out-of-place forward FFT.
pub fn fft(input: &[Cplx]) -> Result<Vec<Cplx>, DspError> {
    let mut buf = input.to_vec();
    fft_in_place(&mut buf, Direction::Forward)?;
    Ok(buf)
}

/// Power spectral density estimate of a block: `|FFT|²/N` per bin, with the
/// DC bin at index 0. No windowing — callers window first if they need it.
pub fn power_spectrum(input: &[Cplx]) -> Result<Vec<f64>, DspError> {
    let n = input.len() as f64;
    Ok(fft(input)?.iter().map(|b| b.norm_sq() / n).collect())
}

/// Map an FFT bin index to its frequency in Hz for a given sample rate,
/// using the two-sided convention (bins above `N/2` are negative).
pub fn bin_to_freq(bin: usize, n: usize, sample_rate: f64) -> f64 {
    let k = if bin <= n / 2 {
        bin as f64
    } else {
        bin as f64 - n as f64
    };
    k * sample_rate / n as f64
}

/// Map a frequency in Hz (may be negative) to the nearest FFT bin index.
pub fn freq_to_bin(freq: f64, n: usize, sample_rate: f64) -> usize {
    let k = (freq / sample_rate * n as f64).round() as i64;
    k.rem_euclid(n as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cplx::energy;
    use proptest::prelude::*;

    #[test]
    fn rejects_non_power_of_two() {
        let mut d = vec![Cplx::ZERO; 3];
        assert_eq!(
            fft_in_place(&mut d, Direction::Forward),
            Err(DspError::NotPowerOfTwo(3))
        );
        let mut e: Vec<Cplx> = vec![];
        assert!(fft_in_place(&mut e, Direction::Forward).is_err());
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut d = vec![Cplx::ZERO; 8];
        d[0] = Cplx::ONE;
        let spec = fft(&d).unwrap();
        for b in spec {
            assert!((b.re - 1.0).abs() < 1e-12 && b.im.abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k = 5;
        let data: Vec<Cplx> = (0..n)
            .map(|i| Cplx::phasor(core::f64::consts::TAU * k as f64 * i as f64 / n as f64))
            .collect();
        let spec = fft(&data).unwrap();
        for (i, b) in spec.iter().enumerate() {
            if i == k {
                assert!((b.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(b.abs() < 1e-9, "leakage at bin {i}: {}", b.abs());
            }
        }
    }

    #[test]
    fn bin_freq_mapping() {
        let n = 8;
        let fs = 8_000.0;
        assert_eq!(bin_to_freq(0, n, fs), 0.0);
        assert_eq!(bin_to_freq(1, n, fs), 1_000.0);
        assert_eq!(bin_to_freq(7, n, fs), -1_000.0);
        assert_eq!(freq_to_bin(1_000.0, n, fs), 1);
        assert_eq!(freq_to_bin(-1_000.0, n, fs), 7);
        assert_eq!(freq_to_bin(0.0, n, fs), 0);
    }

    #[test]
    fn planner_rejects_non_power_of_two() {
        assert!(FftPlanner::new(0).is_err());
        assert!(FftPlanner::new(12).is_err());
        assert!(FftPlanner::new(16).is_ok());
    }

    #[test]
    fn planner_rejects_wrong_length_input() {
        let plan = FftPlanner::new(8).unwrap();
        let mut data = vec![Cplx::ZERO; 16];
        assert!(plan.process(&mut data, Direction::Forward).is_err());
    }

    proptest! {
        /// The planned transform is bit-identical to the direct routine in
        /// both directions — callers may swap one for the other freely.
        #[test]
        fn planner_matches_direct_fft(
            values in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..=256),
        ) {
            let n = values.len().next_power_of_two();
            let mut data: Vec<Cplx> = values.iter().map(|&(re, im)| Cplx::new(re, im)).collect();
            data.resize(n, Cplx::ZERO);
            let plan = FftPlanner::new(n).unwrap();
            let same = |a: &Cplx, b: &Cplx| {
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
            };
            let mut direct = data.clone();
            let mut planned = data;
            for dir in [Direction::Forward, Direction::Inverse] {
                fft_in_place(&mut direct, dir).unwrap();
                plan.process(&mut planned, dir).unwrap();
                for (a, b) in direct.iter().zip(&planned) {
                    prop_assert!(same(a, b), "{:?} bins differ: {:?} vs {:?}", dir, a, b);
                }
            }
        }
    }

    proptest! {
        /// Round trip: inverse(fft(x)) == x.
        #[test]
        fn fft_round_trip(values in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..=64)) {
            let n = values.len().next_power_of_two();
            let mut data: Vec<Cplx> = values.iter().map(|&(re, im)| Cplx::new(re, im)).collect();
            data.resize(n, Cplx::ZERO);
            let mut back = fft(&data).unwrap();
            fft_in_place(&mut back, Direction::Inverse).unwrap();
            for (a, b) in data.iter().zip(back.iter()) {
                prop_assert!((a.re - b.re).abs() < 1e-6);
                prop_assert!((a.im - b.im).abs() < 1e-6);
            }
        }

        /// Parseval's identity: Σ|x|² == Σ|X|²/N — the mathematical basis of
        /// the paper's TV band-power probe.
        #[test]
        fn parseval_identity(values in proptest::collection::vec((-1e2f64..1e2, -1e2f64..1e2), 1..=128)) {
            let n = values.len().next_power_of_two();
            let mut data: Vec<Cplx> = values.iter().map(|&(re, im)| Cplx::new(re, im)).collect();
            data.resize(n, Cplx::ZERO);
            let time_energy = energy(&data);
            let spec = fft(&data).unwrap();
            let freq_energy = energy(&spec) / n as f64;
            let tol = 1e-9 * (1.0 + time_energy);
            prop_assert!((time_energy - freq_energy).abs() < tol,
                "time {time_energy} vs freq {freq_energy}");
        }

        /// Linearity: fft(a·x + y) == a·fft(x) + fft(y).
        #[test]
        fn fft_linearity(
            xs in proptest::collection::vec((-1e2f64..1e2, -1e2f64..1e2), 16),
            ys in proptest::collection::vec((-1e2f64..1e2, -1e2f64..1e2), 16),
            a in -10.0f64..10.0,
        ) {
            let x: Vec<Cplx> = xs.iter().map(|&(r, i)| Cplx::new(r, i)).collect();
            let y: Vec<Cplx> = ys.iter().map(|&(r, i)| Cplx::new(r, i)).collect();
            let combined: Vec<Cplx> = x.iter().zip(&y).map(|(p, q)| p.scale(a) + *q).collect();
            let fx = fft(&x).unwrap();
            let fy = fft(&y).unwrap();
            let fc = fft(&combined).unwrap();
            for ((p, q), c) in fx.iter().zip(&fy).zip(&fc) {
                let expect = p.scale(a) + *q;
                prop_assert!((expect.re - c.re).abs() < 1e-6);
                prop_assert!((expect.im - c.im).abs() < 1e-6);
            }
        }
    }
}
