//! FIR filter design (windowed-sinc) and streaming application.
//!
//! The TV band-power probe isolates one 6 MHz ATSC channel from a wider
//! capture with a complex bandpass filter. We design a real lowpass
//! prototype by the windowed-sinc method and heterodyne it to the channel
//! center to obtain the complex bandpass.

use crate::fft::{Direction, FftPlanner};
use crate::window::Window;
use crate::{Cplx, DspError};

/// Design a real windowed-sinc lowpass filter.
///
/// * `cutoff_norm` — cutoff as a fraction of the sample rate, in `(0, 0.5)`.
/// * `taps` — filter length; odd lengths give exactly linear phase.
///
/// The taps are normalized for unity gain at DC.
pub fn design_lowpass(cutoff_norm: f64, taps: usize, window: Window) -> Result<Vec<f64>, DspError> {
    if taps == 0 {
        return Err(DspError::EmptyDesign);
    }
    if !(0.0..0.5).contains(&cutoff_norm) || cutoff_norm <= 0.0 {
        return Err(DspError::InvalidParameter(
            "cutoff_norm must be in (0, 0.5)",
        ));
    }
    let m = (taps - 1) as f64 / 2.0;
    let mut h: Vec<f64> = (0..taps)
        .map(|i| {
            let t = i as f64 - m;
            let sinc = if t.abs() < 1e-12 {
                2.0 * cutoff_norm
            } else {
                (core::f64::consts::TAU * cutoff_norm * t).sin() / (core::f64::consts::PI * t)
            };
            sinc * window.coeff(i, taps)
        })
        .collect();
    let sum: f64 = h.iter().sum();
    if sum.abs() < 1e-12 {
        return Err(DspError::EmptyDesign);
    }
    for c in &mut h {
        *c /= sum;
    }
    Ok(h)
}

/// Design a complex bandpass filter centered at `center_norm` (fraction of
/// the sample rate, may be negative) with two-sided bandwidth
/// `bandwidth_norm`, by heterodyning a lowpass prototype.
pub fn design_bandpass(
    center_norm: f64,
    bandwidth_norm: f64,
    taps: usize,
    window: Window,
) -> Result<Vec<Cplx>, DspError> {
    let lp = design_lowpass(bandwidth_norm / 2.0, taps, window)?;
    let m = (taps - 1) as f64 / 2.0;
    Ok(lp
        .iter()
        .enumerate()
        .map(|(i, &c)| Cplx::phasor(core::f64::consts::TAU * center_norm * (i as f64 - m)).scale(c))
        .collect())
}

/// A streaming FIR filter over complex samples (direct form, complex taps).
///
/// Keeps its own delay line so it can be fed sample blocks of any size.
/// Each output is a contiguous dot product `work[n..n+T] · taps_rev`
/// through the dispatched [`crate::simd`] kernel, so the direct form
/// rides the vector units too.
#[derive(Debug, Clone)]
pub struct FirFilter {
    taps: Vec<Cplx>,
    /// Taps reversed so every output is a forward contiguous dot.
    taps_rev: Vec<Cplx>,
    /// The last `T-1` inputs, oldest first.
    hist: Vec<Cplx>,
    /// `[hist | input block]`, assembled per call and reused.
    work: Vec<Cplx>,
}

impl FirFilter {
    /// Create a filter from complex taps.
    pub fn new(taps: Vec<Cplx>) -> Result<Self, DspError> {
        if taps.is_empty() {
            return Err(DspError::EmptyDesign);
        }
        let n = taps.len();
        let taps_rev: Vec<Cplx> = taps.iter().rev().copied().collect();
        Ok(Self {
            taps,
            taps_rev,
            hist: vec![Cplx::ZERO; n - 1],
            work: Vec::new(),
        })
    }

    /// Create a filter from real taps.
    pub fn from_real(taps: &[f64]) -> Result<Self, DspError> {
        Self::new(taps.iter().map(|&t| Cplx::new(t, 0.0)).collect())
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// True if the filter has no taps (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Push one sample, get one output sample.
    pub fn push(&mut self, x: Cplx) -> Cplx {
        self.work.clear();
        self.work.extend_from_slice(&self.hist);
        self.work.push(x);
        let y = (crate::simd::kernels().cdot)(&self.work, &self.taps_rev);
        if !self.hist.is_empty() {
            self.hist.copy_within(1.., 0);
            let h = self.hist.len();
            self.hist[h - 1] = x;
        }
        y
    }

    /// Filter a whole block into a caller-owned buffer (cleared first),
    /// producing one output per input. Reusing `out` across calls keeps
    /// the block loop allocation-free.
    pub fn process_into(&mut self, input: &[Cplx], out: &mut Vec<Cplx>) {
        out.clear();
        let t = self.taps.len();
        let k = crate::simd::kernels();
        self.work.clear();
        self.work.extend_from_slice(&self.hist);
        self.work.extend_from_slice(input);
        out.extend((0..input.len()).map(|n| (k.cdot)(&self.work[n..n + t], &self.taps_rev)));
        let w = self.work.len();
        let h = self.hist.len();
        self.hist.copy_from_slice(&self.work[w - h..]);
    }

    /// Filter a whole block, producing one output per input. Thin
    /// allocating wrapper over [`FirFilter::process_into`].
    pub fn process(&mut self, input: &[Cplx]) -> Vec<Cplx> {
        let mut out = Vec::with_capacity(input.len());
        self.process_into(input, &mut out);
        out
    }

    /// Reset the delay line to zeros.
    pub fn reset(&mut self) {
        self.hist.fill(Cplx::ZERO);
    }

    /// Frequency response at a normalized frequency (fraction of Fs).
    pub fn response_at(&self, freq_norm: f64) -> Cplx {
        let mut acc = Cplx::ZERO;
        for (i, t) in self.taps.iter().enumerate() {
            acc += *t * Cplx::phasor(-core::f64::consts::TAU * freq_norm * i as f64);
        }
        acc
    }
}

/// A streaming FIR filter computed by overlap-save FFT convolution.
///
/// Drop-in replacement for [`FirFilter`]: same constructor shapes, same
/// one-output-per-input streaming contract, same causal alignment — but
/// each FFT block of `B` outputs costs `O(N log N)` instead of `O(B·T)`
/// direct multiplies, which is the difference between milliseconds and
/// seconds for the TV probe's long bandpass filters.
///
/// The filter buffers up to one block of input. Full blocks are emitted
/// from a single forward/inverse transform pair; a partial tail (block
/// still filling) is evaluated by zero-padding the not-yet-received
/// future, which cannot change causal outputs, so `process` still emits
/// exactly one output per input *eagerly*. Partial-tail work is redone
/// when the block completes — negligible when callers feed blocks, and
/// only then does [`FastFirFilter::push`] (one FFT per sample) make the
/// plain [`FirFilter`] the better choice.
#[derive(Debug, Clone)]
pub struct FastFirFilter {
    taps: Vec<Cplx>,
    /// New samples consumed per FFT block: `N - (T - 1)`.
    block: usize,
    plan: FftPlanner,
    /// FFT of the zero-padded taps.
    h_spec: Vec<Cplx>,
    /// `[history (T-1) | pending (≤ block)]`, length `N`.
    buf: Vec<Cplx>,
    /// Pending new samples currently buffered.
    pending: usize,
    /// Reused transform workspace, length `N`.
    scratch: Vec<Cplx>,
}

impl FastFirFilter {
    /// Create a filter from complex taps.
    pub fn new(taps: Vec<Cplx>) -> Result<Self, DspError> {
        if taps.is_empty() {
            return Err(DspError::EmptyDesign);
        }
        let t = taps.len();
        // ~8× oversized blocks amortize each transform over many outputs.
        let n = (8 * t).next_power_of_two().max(128);
        let plan = FftPlanner::new(n)?;
        let mut h_spec = vec![Cplx::ZERO; n];
        h_spec[..t].copy_from_slice(&taps);
        plan.process(&mut h_spec, Direction::Forward)?;
        Ok(Self {
            taps,
            block: n - (t - 1),
            plan,
            h_spec,
            buf: vec![Cplx::ZERO; n],
            pending: 0,
            scratch: vec![Cplx::ZERO; n],
        })
    }

    /// Create a filter from real taps.
    pub fn from_real(taps: &[f64]) -> Result<Self, DspError> {
        Self::new(taps.iter().map(|&t| Cplx::new(t, 0.0)).collect())
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// True if the filter has no taps (cannot happen post-construction).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Inputs until the current block completes: a
    /// [`FastFirFilter::process_into`] call of at most this many samples
    /// runs exactly one transform pair.
    pub fn block_room(&self) -> usize {
        self.block - self.pending
    }

    /// Push one sample, get one output sample. Costs a full block
    /// transform per call — feed [`FastFirFilter::process`] blocks instead
    /// on hot paths.
    pub fn push(&mut self, x: Cplx) -> Cplx {
        self.process(&[x])[0]
    }

    /// Filter a whole block into a caller-owned buffer (cleared first),
    /// producing one output per input. Reusing `out` across calls keeps
    /// the block loop allocation-free.
    pub fn process_into(&mut self, input: &[Cplx], out: &mut Vec<Cplx>) {
        let t = self.taps.len();
        out.clear();
        let mut i = 0;
        while i < input.len() {
            let take = (self.block - self.pending).min(input.len() - i);
            let prev = self.pending;
            self.buf[t - 1 + prev..t - 1 + prev + take].copy_from_slice(&input[i..i + take]);
            self.pending += take;
            i += take;

            // Transform [history | pending | zero-padding]; zeros stand in
            // for the unseen future and cannot affect causal outputs.
            self.scratch.copy_from_slice(&self.buf);
            self.scratch[t - 1 + self.pending..].fill(Cplx::ZERO);
            self.plan
                .process(&mut self.scratch, Direction::Forward)
                .expect("scratch length matches plan");
            (crate::simd::kernels().cmul_assign)(&mut self.scratch, &self.h_spec);
            self.plan
                .process(&mut self.scratch, Direction::Inverse)
                .expect("scratch length matches plan");
            out.extend_from_slice(&self.scratch[t - 1 + prev..t - 1 + self.pending]);

            if self.pending == self.block {
                // Block complete: retire it, carrying the last T-1 inputs
                // forward as the next block's history.
                let n = self.buf.len();
                self.buf.copy_within(n - (t - 1)..n, 0);
                self.pending = 0;
            }
        }
    }

    /// Filter a whole block, producing one output per input. Thin
    /// allocating wrapper over [`FastFirFilter::process_into`].
    pub fn process(&mut self, input: &[Cplx]) -> Vec<Cplx> {
        let mut out = Vec::with_capacity(input.len());
        self.process_into(input, &mut out);
        out
    }

    /// Reset the delay line to zeros.
    pub fn reset(&mut self) {
        self.buf.fill(Cplx::ZERO);
        self.pending = 0;
    }

    /// Frequency response at a normalized frequency (fraction of Fs).
    pub fn response_at(&self, freq_norm: f64) -> Cplx {
        let mut acc = Cplx::ZERO;
        for (i, t) in self.taps.iter().enumerate() {
            acc += *t * Cplx::phasor(-core::f64::consts::TAU * freq_norm * i as f64);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lowpass_rejects_bad_parameters() {
        assert!(design_lowpass(0.0, 31, Window::Hamming).is_err());
        assert!(design_lowpass(0.5, 31, Window::Hamming).is_err());
        assert!(design_lowpass(0.25, 0, Window::Hamming).is_err());
        assert!(design_lowpass(0.25, 31, Window::Hamming).is_ok());
    }

    #[test]
    fn lowpass_unity_dc_gain() {
        let h = design_lowpass(0.1, 63, Window::Hamming).unwrap();
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lowpass_passband_and_stopband() {
        let f = FirFilter::from_real(&design_lowpass(0.1, 101, Window::Blackman).unwrap()).unwrap();
        // Passband: well below cutoff.
        assert!((f.response_at(0.02).abs() - 1.0).abs() < 0.01);
        // Stopband: well above cutoff.
        assert!(f.response_at(0.25).abs() < 1e-3);
        assert!(f.response_at(0.4).abs() < 1e-3);
    }

    #[test]
    fn bandpass_centered_response() {
        let taps = design_bandpass(0.2, 0.05, 101, Window::Blackman).unwrap();
        let f = FirFilter::new(taps).unwrap();
        assert!((f.response_at(0.2).abs() - 1.0).abs() < 0.01);
        assert!(f.response_at(0.0).abs() < 1e-3);
        assert!(
            f.response_at(-0.2).abs() < 1e-3,
            "complex bandpass is one-sided"
        );
    }

    #[test]
    fn streaming_matches_block_convolution() {
        let h = design_lowpass(0.2, 9, Window::Hann).unwrap();
        let x: Vec<Cplx> = (0..32)
            .map(|i| Cplx::new((i as f64 * 0.7).sin(), 0.0))
            .collect();
        // Reference: direct convolution.
        let mut expect = vec![Cplx::ZERO; x.len()];
        for (n, e) in expect.iter_mut().enumerate() {
            for (k, &hk) in h.iter().enumerate() {
                if n >= k {
                    *e += x[n - k].scale(hk);
                }
            }
        }
        let mut f = FirFilter::from_real(&h).unwrap();
        let got = f.process(&x);
        for (a, b) in expect.iter().zip(&got) {
            assert!((a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12);
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut f = FirFilter::from_real(&[0.5, 0.5]).unwrap();
        let first = f.push(Cplx::ONE);
        f.push(Cplx::new(2.0, 0.0));
        f.reset();
        let again = f.push(Cplx::ONE);
        assert_eq!(first, again);
    }

    #[test]
    fn fast_fir_rejects_empty_taps() {
        assert!(FastFirFilter::new(vec![]).is_err());
    }

    #[test]
    fn fast_fir_reset_restores_initial_state() {
        let mut f = FastFirFilter::from_real(&[0.5, 0.25, 0.25]).unwrap();
        let first = f.push(Cplx::ONE);
        f.push(Cplx::new(2.0, 0.0));
        f.reset();
        let again = f.push(Cplx::ONE);
        assert_eq!(first, again);
    }

    #[test]
    fn fast_fir_matches_direct_across_block_boundaries() {
        // Long input crossing several overlap-save blocks, fed in uneven
        // chunks so both the partial-tail path and block retirement run.
        let h = design_bandpass(0.17, 0.06, 129, Window::Blackman).unwrap();
        let mut direct = FirFilter::new(h.clone()).unwrap();
        let mut fast = FastFirFilter::new(h).unwrap();
        let x: Vec<Cplx> = (0..7_000)
            .map(|i| Cplx::phasor(0.31 * i as f64).scale(1.0 + (i as f64 * 0.01).cos()))
            .collect();
        let mut got = Vec::new();
        let mut want = Vec::new();
        let mut i = 0;
        for (k, chunk) in [1usize, 63, 500, 1, 2048, 37, 4000]
            .iter()
            .cycle()
            .enumerate()
        {
            if i >= x.len() {
                break;
            }
            let end = (i + chunk + k % 3).min(x.len());
            got.extend(fast.process(&x[i..end]));
            want.extend(direct.process(&x[i..end]));
            i = end;
        }
        assert_eq!(got.len(), want.len());
        for (a, b) in want.iter().zip(&got) {
            assert!(
                (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                "overlap-save diverged: {a:?} vs {b:?}"
            );
        }
    }

    proptest! {
        /// Overlap-save output matches the direct-form filter to 1e-9 for
        /// random taps, inputs, and chunkings.
        #[test]
        fn fast_fir_matches_direct(
            taps in proptest::collection::vec(-1.0f64..1.0, 1..80),
            xs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..400),
            split in 1usize..64,
        ) {
            let mut direct = FirFilter::from_real(&taps).unwrap();
            let mut fast = FastFirFilter::from_real(&taps).unwrap();
            let x: Vec<Cplx> = xs.iter().map(|&(r, i)| Cplx::new(r, i)).collect();
            let mut got = Vec::new();
            let mut want = Vec::new();
            for chunk in x.chunks(split) {
                got.extend(fast.process(chunk));
                want.extend(direct.process(chunk));
            }
            prop_assert_eq!(got.len(), want.len());
            for (a, b) in want.iter().zip(&got) {
                prop_assert!(
                    (a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9,
                    "overlap-save diverged: {:?} vs {:?}", a, b
                );
            }
        }
    }

    proptest! {
        /// Filtering is linear: F(ax + y) == a·F(x) + F(y) (fresh state).
        #[test]
        fn filter_linearity(
            xs in proptest::collection::vec(-10.0f64..10.0, 24),
            ys in proptest::collection::vec(-10.0f64..10.0, 24),
            a in -4.0f64..4.0,
        ) {
            let h = design_lowpass(0.15, 11, Window::Hamming).unwrap();
            let run = |data: &[f64]| -> Vec<Cplx> {
                let mut f = FirFilter::from_real(&h).unwrap();
                f.process(&data.iter().map(|&v| Cplx::new(v, 0.0)).collect::<Vec<_>>())
            };
            let combined: Vec<f64> = xs.iter().zip(&ys).map(|(x, y)| a * x + y).collect();
            let fx = run(&xs);
            let fy = run(&ys);
            let fc = run(&combined);
            for ((p, q), c) in fx.iter().zip(&fy).zip(&fc) {
                let e = p.scale(a) + *q;
                prop_assert!((e.re - c.re).abs() < 1e-9);
            }
        }
    }
}
