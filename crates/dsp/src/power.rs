//! Power measurement: dB conversions, moving averages, and the paper's
//! band-power probe.
//!
//! §3.2 of the paper: *"The received power was measured by bandpass
//! filtering a desired ATSC channel, then applying Parseval's identity to
//! measure the band's power by running the magnitude-squared time-domain
//! samples through a very long moving average filter for a live
//! measurement."* [`BandPowerMeter`] is exactly that chain.

use crate::fir::{design_bandpass, FastFirFilter};
use crate::window::Window;
use crate::{Cplx, DspError};

/// Convert a linear power ratio to decibels. Zero/negative input maps to
/// `f64::NEG_INFINITY` rather than NaN, so "no signal" stays ordered.
pub fn lin_to_db(lin: f64) -> f64 {
    if lin <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * lin.log10()
    }
}

/// Convert decibels to a linear power ratio.
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Pushes between exact recomputations of a [`MovingAverage`]'s sum.
const REBUILD_EVERY: usize = 1 << 20;

/// A running mean over the last `len` real samples (boxcar filter).
///
/// Keeps a running sum (`sum -= oldest; sum += x` per push) plus an exact
/// recomputation every 2²⁰ pushes, so drift from floating-point
/// cancellation stays bounded even over very long streams ("very long
/// moving average" per the paper). The window is a ring buffer;
/// [`MovingAverage::push_all`] pushes a block with the same operations
/// and divides once at the end.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    /// The window. Until it fills, samples are in push order; after that
    /// the oldest sample is at `next` and the order wraps around.
    buf: Vec<f64>,
    len: usize,
    next: usize,
    sum: f64,
    pushes_since_rebuild: usize,
}

impl MovingAverage {
    /// Create a moving average of length `len` (must be ≥ 1).
    pub fn new(len: usize) -> Result<Self, DspError> {
        if len == 0 {
            return Err(DspError::InvalidParameter(
                "moving average length must be >= 1",
            ));
        }
        Ok(Self {
            buf: Vec::with_capacity(len),
            len,
            next: 0,
            sum: 0.0,
            pushes_since_rebuild: 0,
        })
    }

    /// Push a sample; returns the mean over the current window (which is
    /// shorter than `len` until the filter fills).
    pub fn push(&mut self, x: f64) -> f64 {
        self.push_all(&[x])
            .expect("window holds the sample just pushed")
    }

    /// Push every sample of `xs` in order — the same running-sum updates
    /// and rebuilds as one [`MovingAverage::push`] per sample, without a
    /// division per sample. Returns the mean after the last push (`None`
    /// while the window is still empty).
    pub fn push_all(&mut self, xs: &[f64]) -> Option<f64> {
        let mut rest = xs;
        while !rest.is_empty() {
            let until_rebuild = REBUILD_EVERY - self.pushes_since_rebuild;
            let take = if self.buf.len() < self.len {
                let take = (self.len - self.buf.len())
                    .min(until_rebuild)
                    .min(rest.len());
                let block = &rest[..take];
                self.buf.extend_from_slice(block);
                for &x in block {
                    self.sum += x;
                }
                take
            } else {
                let take = (self.len - self.next).min(until_rebuild).min(rest.len());
                let mut sum = self.sum;
                for (slot, &x) in self.buf[self.next..self.next + take].iter_mut().zip(rest) {
                    sum -= *slot;
                    *slot = x;
                    sum += x;
                }
                self.sum = sum;
                self.next = (self.next + take) % self.len;
                take
            };
            self.pushes_since_rebuild += take;
            if self.pushes_since_rebuild == REBUILD_EVERY {
                let (newer, older) = self.buf.split_at(self.next);
                self.sum = older.iter().chain(newer).sum();
                self.pushes_since_rebuild = 0;
            }
            rest = &rest[take..];
        }
        self.mean()
    }

    /// Current mean without pushing; `None` until at least one sample.
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.sum / self.buf.len() as f64)
        }
    }

    /// Has the window filled to its configured length?
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.len
    }

    /// Clear all state.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.sum = 0.0;
        self.pushes_since_rebuild = 0;
    }
}

/// The paper's live band-power measurement chain: complex bandpass FIR →
/// `|x|²` → very long moving average. Output is linear power relative to
/// full scale; convert with [`lin_to_db`] for dBFS.
#[derive(Debug, Clone)]
pub struct BandPowerMeter {
    filter: FastFirFilter,
    avg: MovingAverage,
    /// Samples to discard while the filter's delay line fills.
    warmup_remaining: usize,
    /// Reused filter-output buffer so steady-state blocks don't allocate.
    scratch: Vec<Cplx>,
    /// Reused `|y|²` buffer, filled by the vectorized magnitude kernel.
    mags: Vec<f64>,
}

impl BandPowerMeter {
    /// Build a meter for a channel centered `center_hz` away from the
    /// capture center, `bandwidth_hz` wide, at `sample_rate` samples/s.
    ///
    /// * `filter_taps` — bandpass length (odd recommended; 129 is a good
    ///   default for a 6 MHz channel in a 20 MS/s capture).
    /// * `average_len` — moving-average length in samples; the paper uses a
    ///   "very long" average, i.e. ≫ filter length.
    pub fn new(
        center_hz: f64,
        bandwidth_hz: f64,
        sample_rate: f64,
        filter_taps: usize,
        average_len: usize,
    ) -> Result<Self, DspError> {
        if sample_rate <= 0.0 {
            return Err(DspError::InvalidParameter("sample_rate must be positive"));
        }
        if bandwidth_hz <= 0.0 || bandwidth_hz >= sample_rate {
            return Err(DspError::InvalidParameter(
                "bandwidth must be positive and below the sample rate",
            ));
        }
        if center_hz.abs() > sample_rate / 2.0 {
            return Err(DspError::InvalidParameter(
                "channel center is outside the captured bandwidth",
            ));
        }
        let taps = design_bandpass(
            center_hz / sample_rate,
            bandwidth_hz / sample_rate,
            filter_taps,
            Window::Blackman,
        )?;
        let filter = FastFirFilter::new(taps)?;
        let warmup = filter.len();
        Ok(Self {
            filter,
            avg: MovingAverage::new(average_len)?,
            warmup_remaining: warmup,
            scratch: Vec::new(),
            mags: Vec::new(),
        })
    }

    /// Feed a block of IQ; returns the latest averaged band power (linear,
    /// full-scale-relative), or `None` if still in filter warm-up.
    ///
    /// The capture runs through the overlap-save filter, so long captures
    /// cost O(N log N) rather than O(N·taps). It is fed one filter block
    /// at a time — the same transforms as one call over the whole
    /// capture — so the filter-output and `|y|²` buffers stay one block
    /// long.
    pub fn process(&mut self, iq: &[Cplx]) -> Option<f64> {
        let mut rest = iq;
        while !rest.is_empty() {
            let (block, tail) = rest.split_at(self.filter.block_room().min(rest.len()));
            rest = tail;
            self.filter.process_into(block, &mut self.scratch);
            self.mags.resize(self.scratch.len(), 0.0);
            (crate::simd::kernels().norm_sq_map)(&self.scratch, &mut self.mags);
            let warmup = self.warmup_remaining.min(self.mags.len());
            self.warmup_remaining -= warmup;
            self.avg.push_all(&self.mags[warmup..]);
        }
        self.avg.mean()
    }

    /// Measure a complete capture and return the band power in dB relative
    /// to full scale (dBFS). Returns `None` if the capture is shorter than
    /// the filter warm-up.
    pub fn measure_dbfs(&mut self, iq: &[Cplx]) -> Option<f64> {
        let _span = aircal_obs::span!("band_power");
        self.process(iq).map(lin_to_db)
    }

    /// Reset filter and averager state for a fresh measurement.
    pub fn reset(&mut self) {
        self.filter.reset();
        self.avg.reset();
        self.warmup_remaining = self.filter.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn db_conversions_round_trip() {
        for db in [-120.0, -30.0, 0.0, 3.0, 60.0] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-9);
        }
        assert_eq!(lin_to_db(0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn moving_average_rejects_zero_len() {
        assert!(MovingAverage::new(0).is_err());
    }

    #[test]
    fn moving_average_basic() {
        let mut ma = MovingAverage::new(3).unwrap();
        assert_eq!(ma.mean(), None);
        assert_eq!(ma.push(3.0), 3.0);
        assert_eq!(ma.push(6.0), 4.5);
        assert_eq!(ma.push(9.0), 6.0);
        assert!(ma.is_full());
        assert_eq!(ma.push(12.0), 9.0); // window is now [6, 9, 12]
    }

    #[test]
    fn moving_average_reset() {
        let mut ma = MovingAverage::new(4).unwrap();
        ma.push(1.0);
        ma.push(2.0);
        ma.reset();
        assert_eq!(ma.mean(), None);
        assert_eq!(ma.push(10.0), 10.0);
    }

    /// A tone inside the band should be measured at its true power; a tone
    /// outside should be strongly rejected.
    #[test]
    fn band_power_selectivity() {
        let fs = 1_000_000.0;
        let make_tone = |freq: f64, amp: f64, n: usize| -> Vec<Cplx> {
            (0..n)
                .map(|i| Cplx::from_polar(amp, core::f64::consts::TAU * freq * i as f64 / fs))
                .collect()
        };
        let in_band = make_tone(100_000.0, 0.5, 20_000);
        let out_band = make_tone(-300_000.0, 0.5, 20_000);

        let mut meter = BandPowerMeter::new(100_000.0, 60_000.0, fs, 129, 8_192).unwrap();
        let p_in = meter.measure_dbfs(&in_band).unwrap();
        meter.reset();
        let p_out = meter.measure_dbfs(&out_band).unwrap();
        // 0.5 amplitude tone = 0.25 linear power = ~ -6.02 dBFS.
        assert!((p_in - (-6.02)).abs() < 0.5, "in-band measured {p_in}");
        assert!(p_out < p_in - 50.0, "out-of-band measured {p_out}");
    }

    #[test]
    fn band_power_rejects_bad_config() {
        assert!(BandPowerMeter::new(0.0, 0.0, 1e6, 65, 100).is_err());
        assert!(BandPowerMeter::new(0.0, 2e6, 1e6, 65, 100).is_err());
        assert!(BandPowerMeter::new(9e5, 1e5, 1e6, 65, 100).is_err());
        assert!(BandPowerMeter::new(0.0, 1e5, 0.0, 65, 100).is_err());
    }

    #[test]
    fn band_power_short_capture_returns_none() {
        let mut meter = BandPowerMeter::new(0.0, 100_000.0, 1e6, 129, 1024).unwrap();
        assert!(meter.measure_dbfs(&[Cplx::ONE; 10]).is_none());
    }

    /// Fed exactly its warm-up plus its window, the meter reads the mean
    /// of the last `average_len` powers `|y|²` of the direct-form filter
    /// over the same taps, and its window fills on the last sample.
    #[test]
    fn meter_reads_exactly_its_window() {
        use crate::fir::FirFilter;
        use rand::{Rng, SeedableRng};
        let (fs, bw, taps, len) = (8e6, 5.38e6, 129, 16_384);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let iq: Vec<Cplx> = (0..taps + len)
            .map(|_| Cplx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let h = design_bandpass(0.0, bw / fs, taps, Window::Blackman).unwrap();
        let y = FirFilter::new(h).unwrap().process(&iq);
        let want = y[taps..].iter().map(|z| z.norm_sq()).sum::<f64>() / len as f64;

        let mut meter = BandPowerMeter::new(0.0, bw, fs, taps, len).unwrap();
        meter.process(&iq[..taps + len - 1]);
        assert!(!meter.avg.is_full());
        let got = meter.process(&iq[taps + len - 1..]).unwrap();
        assert!(meter.avg.is_full());
        assert!(
            ((got - want) / want).abs() <= 1e-9,
            "meter {got} vs direct-form window mean {want}"
        );
    }

    /// The deque-and-divide `MovingAverage` the ring buffer replaced, kept
    /// as the oracle for its exact operation sequence.
    struct DequeAverage {
        buf: std::collections::VecDeque<f64>,
        len: usize,
        sum: f64,
        pushes_since_rebuild: usize,
    }

    impl DequeAverage {
        fn new(len: usize) -> Self {
            Self {
                buf: Default::default(),
                len,
                sum: 0.0,
                pushes_since_rebuild: 0,
            }
        }

        fn push(&mut self, x: f64) -> f64 {
            if self.buf.len() == self.len {
                let old = self.buf.pop_front().expect("non-empty");
                self.sum -= old;
            }
            self.buf.push_back(x);
            self.sum += x;
            self.pushes_since_rebuild += 1;
            if self.pushes_since_rebuild >= 1_048_576 {
                self.sum = self.buf.iter().sum();
                self.pushes_since_rebuild = 0;
            }
            self.sum / self.buf.len() as f64
        }
    }

    /// `xs` cut at the (sorted, clamped) positions in `cuts`.
    fn pieces<'a, T>(xs: &'a [T], cuts: &[usize]) -> Vec<&'a [T]> {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(xs.len())).collect();
        cuts.sort_unstable();
        let mut out = Vec::new();
        let mut at = 0;
        for c in cuts.into_iter().chain([xs.len()]) {
            out.push(&xs[at..c]);
            at = c;
        }
        out
    }

    /// The exact rebuild lands on push 2²⁰ whichever call it falls in,
    /// including a block that straddles it.
    #[test]
    fn push_all_rebuilds_on_the_same_push_as_per_sample() {
        let xs: Vec<f64> = (0..REBUILD_EVERY + 3_000)
            .map(|i| 1e6 + 1e3 * (0.37 * i as f64).sin())
            .collect();
        let mut oracle = DequeAverage::new(1_000);
        let mut want = 0.0;
        for &x in &xs {
            want = oracle.push(x);
        }
        for cuts in [
            vec![REBUILD_EVERY - 3, REBUILD_EVERY + 4],
            vec![17, REBUILD_EVERY],
        ] {
            let mut ma = MovingAverage::new(1_000).unwrap();
            let mut got = None;
            for piece in pieces(&xs, &cuts) {
                got = ma.push_all(piece);
            }
            assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "cuts {cuts:?}");
        }
    }

    proptest! {
        /// Pushing a capture in blocks gives the bits of pushing it one
        /// sample at a time, through the old deque and through `push`,
        /// for any window and any split.
        #[test]
        fn push_all_matches_per_sample_push(
            len in 1usize..300,
            xs in proptest::collection::vec(-1e3f64..1e3, 0..2_000),
            cuts in proptest::collection::vec(0usize..2_000, 0..8),
        ) {
            let mut oracle = DequeAverage::new(len);
            let mut single = MovingAverage::new(len).unwrap();
            let mut batch = MovingAverage::new(len).unwrap();
            let mut want = None;
            for piece in pieces(&xs, &cuts) {
                for &x in piece {
                    let m = oracle.push(x);
                    prop_assert_eq!(single.push(x).to_bits(), m.to_bits());
                    want = Some(m);
                }
                let got = batch.push_all(piece);
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            }
        }

        /// `BandPowerMeter::process` over a capture split across calls
        /// returns, after every call, the bits of the same filter output
        /// pushed one sample at a time past the warm-up — with warm-up
        /// ending anywhere inside a block.
        #[test]
        fn meter_matches_per_sample_average(
            half_taps in 1usize..24,
            average_len in 1usize..600,
            n in 0usize..3_000,
            cuts in proptest::collection::vec(0usize..3_000, 0..6),
            phase in 0.0f64..6.0,
        ) {
            let taps = 2 * half_taps + 1;
            let mut meter = BandPowerMeter::new(1e5, 2e5, 1e6, taps, average_len).unwrap();
            let mut filter = meter.filter.clone();
            let mut warmup = filter.len();
            let mut oracle = DequeAverage::new(average_len);
            let iq: Vec<f64> = (0..2 * n).map(|i| (0.7 * i as f64 + phase).sin()).collect();
            let iq: Vec<Cplx> = iq.chunks_exact(2).map(|c| Cplx::new(c[0], c[1])).collect();
            let mut want = None;
            let mut y = Vec::new();
            for block in pieces(&iq, &cuts) {
                filter.process_into(block, &mut y);
                for z in &y {
                    if warmup > 0 {
                        warmup -= 1;
                        continue;
                    }
                    want = Some(oracle.push(z.norm_sq()));
                }
                let got = meter.process(block);
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            }
        }

        /// Moving average of a constant is that constant.
        #[test]
        fn moving_average_constant(c in -1e6f64..1e6, len in 1usize..64, pushes in 1usize..200) {
            let mut ma = MovingAverage::new(len).unwrap();
            let mut last = 0.0;
            for _ in 0..pushes {
                last = ma.push(c);
            }
            prop_assert!((last - c).abs() < 1e-6 * (1.0 + c.abs()));
        }

        /// Moving average never exceeds the extremes of its inputs.
        #[test]
        fn moving_average_bounded(xs in proptest::collection::vec(-1e3f64..1e3, 1..100), len in 1usize..16) {
            let mut ma = MovingAverage::new(len).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for &x in &xs {
                let m = ma.push(x);
                prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
            }
        }
    }
}
