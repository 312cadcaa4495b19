//! A dump1090-style scanning decoder: find preambles in raw IQ, slice bits,
//! check parity, emit messages.

use crate::frame::{ModeSFrame, DF_ALL_CALL, DF_EXTENDED_SQUITTER, SHORT_FRAME_BITS};
use crate::ppm::{self, PREAMBLE_CHIPS, SHORT_FRAME_SAMPLES};
use crate::{crc, FRAME_BITS, FRAME_BYTES, SAMPLE_RATE_HZ};
use aircal_dsp::corr::suppress_peaks;
use aircal_dsp::Cplx;
use serde::{Deserialize, Serialize};

/// Minimum lag distance between two preamble peaks the decoder keeps:
/// half a short frame. Two hits closer than this cannot be two bursts,
/// so the taller suppresses the other. It is also the decoder's whole
/// look-back from a burst's preamble, which sizes the renderer's noise
/// guard (`aircal_sdr::CaptureRenderer::new`).
pub const PEAK_SEPARATION: usize = SHORT_FRAME_SAMPLES / 2;

/// `energy(preamble_template())`: the canonical lane reduction over the
/// template's four unit pulses is exactly 4.
const TEMPLATE_ENERGY: f64 = ppm::PREAMBLE_PULSES.len() as f64;

/// Relative slack of the scan's second gate. Passing it needs
/// `|acc|² ≥ threshold²·4·w·(1 − ACC_GATE_MARGIN)`; the few roundings
/// between that test and the exact `hypot(acc)/sqrt(4w) ≥ threshold`
/// (two squares and a sum, three products, `hypot`, `sqrt` and the
/// divide) move the ratio by under 2⁻⁴⁸, so a lag the gate rejects is
/// below the threshold on the exact path too.
const ACC_GATE_MARGIN: f64 = 1.0 / (1u64 << 40) as f64;

/// Lags per block of the preamble scan: one bit each in the power gate's
/// `u64` mask.
const ENERGY_BLOCK: usize = 64;

/// The matched-filter sum of the four preamble pulses at lag `i`, in the
/// order the canonical 8-lane reduction of the 16-chip template gives:
/// pulses 0 and 8 share lane 0, 9 sits in lane 1, 2 in lane 2 and 7 in
/// lane 7, and the lane tree adds them as `((s0 + s9) + s2) + s7`. The
/// twelve zero chips contribute signed zeros, which change no sum of
/// finite samples except the sign of a zero total — and `abs` drops that.
/// (An `inf` on a zero chip would make the 16-term product NaN; at a
/// positive threshold the power gate rejects every window holding one,
/// its energy being `inf`, before this sum runs.)
#[inline(always)]
fn pulse_sum(iq: &[Cplx], i: usize) -> Cplx {
    ((iq[i] + iq[i + 9]) + iq[i + 2]) + iq[i + 7]
}

/// Working memory and result of the sparse preamble scan
/// ([`PreambleScan::run`]).
///
/// On finite IQ the scan matches
/// `normalized_correlation(iq, &ppm::preamble_template())` followed by
/// `find_peaks(…, threshold, min_separation)`, bit for bit, without
/// materializing the dense correlation:
///
/// 1. **Power gate** (Cauchy–Schwarz). With the four unit pulses as
///    template, `|Σ_pulses s|² ≤ 4·Σ_pulses |s|²`, so
///    `corr² ≤ (Σ_pulses |s|²) / w` for window energy `w`. A lag with
///    `Σ_pulses |s|² < threshold²·w` is below the threshold.
/// 2. **Correlation gate.** At a surviving lag the exact 4-term pulse sum
///    `acc` is formed; a lag with `|acc|²` below `threshold²·4·w` by more
///    than a 2⁻⁴⁰ margin is below the threshold too, and skips
///    `hypot`, `sqrt` and the divide.
/// 3. **Candidates.** Every other lag gets its exact correlation, computed
///    as the dense scan does; it is kept when it is at or above the
///    threshold, or NaN. About 3% of lags of a survey window are kept.
/// 4. **Peaks.** A kept lag is a peak when it is at or above the threshold,
///    at least its left neighbor's value and above its right neighbor's.
///    A neighbor that was not kept holds a value below the threshold, so
///    those tests pass against it; a NaN neighbor fails them, as in the
///    dense scan. Peaks closer than `min_separation` are suppressed
///    tallest-first with ties in lag order, as `find_peaks` does.
///
/// On IQ holding an `inf` or NaN the scan follows its power gate, not the
/// dense reference. A window whose energy is `inf` can have a finite pulse
/// sum; the gate drops that lag as below the threshold where the dense
/// correlation is NaN, so the lag next to it, which the dense reference
/// cannot report (its NaN neighbor fails the peak tests), can be reported
/// here. The decoder's power-gated scan has always behaved this way, so
/// its output on such input is unchanged; the exactness tests cover
/// finite IQ only.
///
/// Every buffer is cleared and refilled on use, so a warm scan is
/// allocation-free.
#[derive(Debug, Default)]
pub struct PreambleScan {
    /// `|iq[i]|²`, from the dispatched magnitude kernel.
    mags: Vec<f64>,
    /// Lags whose correlation is at or above the threshold or NaN, in lag
    /// order, with that value.
    candidates: Vec<(usize, f64)>,
    /// The preamble peaks of the last run, in lag order, with their values.
    peaks: Vec<(usize, f64)>,
}

impl PreambleScan {
    /// Scan `iq` for preamble peaks (see the type docs) and return them in
    /// lag order with their normalized correlation.
    pub fn run(&mut self, iq: &[Cplx], threshold: f64, min_separation: usize) -> &[(usize, f64)] {
        self.find_candidates(iq, threshold);
        self.pick_peaks(threshold, min_separation);
        &self.peaks
    }

    fn find_candidates(&mut self, iq: &[Cplx], threshold: f64) {
        self.candidates.clear();
        let m = PREAMBLE_CHIPS;
        if iq.len() < m {
            return;
        }
        let kernels = aircal_dsp::kernels();
        let mags = &mut self.mags;
        mags.resize(iq.len(), 0.0);
        (kernels.norm_sq_map)(iq, mags);
        // Both gates bound the correlation from above, so they only apply
        // to a positive threshold; at zero they reject nothing.
        let power_gate = if threshold > 0.0 {
            threshold * threshold
        } else {
            0.0
        };
        let acc_gate = power_gate * TEMPLATE_ENERGY * (1.0 - ACC_GATE_MARGIN);
        let n = iq.len() - m + 1;
        let [p0, p1, p2, p3] = ppm::PREAMBLE_PULSES;
        // Lane-reduced like `normalized_correlation`'s `energy(&signal[..m])`:
        // same per-element values, lane assignment and tree.
        let mut w: f64 = (kernels.sum_f64)(&mags[..m]);
        // Blocks of 64 lags: the running window energy (a serial chain,
        // rounded step by step as the dense scan does), then the power gate
        // for the whole block as a bitmask, then the exact path for the
        // lags that pass it. Kept apart, the first two run without the
        // exact path's data-dependent branches.
        let mut energy = [0.0f64; ENERGY_BLOCK];
        for start in (0..n).step_by(ENERGY_BLOCK) {
            let block = &mut energy[..(n - start).min(ENERGY_BLOCK)];
            for (j, e) in block.iter_mut().enumerate() {
                *e = w;
                let i = start + j;
                if i + m < iq.len() {
                    w += mags[i + m] - mags[i];
                    if w < 0.0 {
                        w = 0.0;
                    }
                }
            }
            // The pulse offsets ascend, so `p3` is the furthest reach.
            let x = &mags[start..start + block.len() + p3];
            let mut pass = 0u64;
            for (j, &e) in block.iter().enumerate() {
                // Fails only when provably below: a NaN side passes.
                let pulses = ((x[j + p0] + x[j + p1]) + x[j + p2]) + x[j + p3];
                let below = pulses < power_gate * e;
                pass |= u64::from(!below) << j;
            }
            while pass != 0 {
                let j = pass.trailing_zeros() as usize;
                pass &= pass - 1;
                let (i, w) = (start + j, block[j]);
                let acc = pulse_sum(iq, i);
                let bound = acc_gate * w;
                if acc.norm_sq() < bound && bound >= f64::MIN_POSITIVE {
                    continue;
                }
                let denom = (TEMPLATE_ENERGY * w).sqrt();
                let corr = if denom < 1e-30 {
                    0.0
                } else {
                    acc.abs() / denom
                };
                if corr >= threshold || corr.is_nan() {
                    self.candidates.push((i, corr));
                }
            }
        }
    }

    fn pick_peaks(&mut self, threshold: f64, min_separation: usize) {
        let c = &self.candidates;
        let peaks = &mut self.peaks;
        peaks.clear();
        for (j, &(i, v)) in c.iter().enumerate() {
            let left = j.checked_sub(1).map(|p| c[p]).filter(|&(p, _)| p + 1 == i);
            let right = c.get(j + 1).copied().filter(|&(q, _)| q == i + 1);
            if v >= threshold
                && left.is_none_or(|(_, lv)| v >= lv)
                && right.is_none_or(|(_, rv)| v > rv)
            {
                peaks.push((i, v));
            }
        }
        // Peak values are at or above the threshold, so never NaN, and
        // never -0.0: `total_cmp` is the numeric order on them.
        suppress_peaks(peaks, |p| p.0, |a, b| b.1.total_cmp(&a.1), min_separation);
    }
}

/// Decoder tuning knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DecoderConfig {
    /// Normalized preamble-correlation threshold in (0, 1]; dump1090's
    /// default detector corresponds to roughly 0.60 here.
    pub preamble_threshold: f64,
    /// Candidate frames whose weakest bit decision falls below this
    /// confidence are attempted anyway (CRC is the final arbiter), but the
    /// value is reported so callers can study marginal decodes.
    pub min_reported_confidence: f64,
    /// Maximum number of low-confidence bits to try flipping when the CRC
    /// fails (dump1090's `--fix` behaviour). 0 disables repair; values
    /// above 2 are clamped — beyond that the false-decode risk outweighs
    /// the gain, as dump1090's authors found.
    pub max_repaired_bits: u8,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        Self {
            preamble_threshold: 0.60,
            min_reported_confidence: 0.0,
            max_repaired_bits: 1,
        }
    }
}

/// One successfully decoded message with its PHY metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodedMessage {
    /// The parsed frame (short DF11 or extended DF17).
    pub frame: ModeSFrame,
    /// Sample index of the preamble start within the scanned capture.
    pub sample_index: usize,
    /// Receive time in seconds (capture start time + sample offset).
    pub time_s: f64,
    /// RSSI in dBFS (mean pulse power relative to full scale).
    pub rssi_dbfs: f64,
    /// Weakest bit decision's confidence, [0, 1].
    pub min_confidence: f64,
    /// How many bits the CRC-guided repair flipped (0 = clean decode).
    pub repaired_bits: u8,
}

/// Reusable working memory for [`Decoder::scan_with`]. One instance per
/// worker thread; every buffer is cleared and refilled on use, so a warm
/// scratch makes repeated scans allocation-free.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// The sparse preamble scan: its peaks, and the `|iq|²` every frame
    /// is demodulated from.
    scan: PreambleScan,
    /// Demodulated bits/confidences for the frame under test.
    demod: ppm::Demodulated,
}

/// Bit decisions single-bit repair tries flipping, weakest first.
const REPAIR_ONE: usize = 8;
/// Bit decisions two-bit repair pairs up (15 pairs).
const REPAIR_TWO: usize = 6;

/// The indices of the `K` weakest of `confidences` (at least `K` long),
/// weakest first: the first `K` of a stable ascending sort, so ties keep
/// bit order. A NaN confidence (an infinite chip) ranks weakest.
/// Confidences are never -0.0, so on every other value `total_cmp` is the
/// numeric order.
fn weakest_bits<const K: usize>(confidences: &[f64]) -> [usize; K] {
    debug_assert!(confidences.len() >= K);
    let mut kept = [(f64::INFINITY, 0usize); K];
    let mut len = 0;
    for (bit, &c) in confidences.iter().enumerate() {
        let key = if c.is_nan() { f64::NEG_INFINITY } else { c };
        // After every kept decision at most as weak: `bit` is the latest.
        let mut at = len;
        while at > 0 && kept[at - 1].0.total_cmp(&key).is_gt() {
            at -= 1;
        }
        if at == K {
            continue;
        }
        len = (len + 1).min(K);
        kept.copy_within(at..len - 1, at + 1);
        kept[at] = (key, bit);
    }
    kept.map(|(_, bit)| bit)
}

/// The scanning decoder. Stateless between captures; cheap to construct.
#[derive(Debug, Clone, Default)]
pub struct Decoder {
    config: DecoderConfig,
}

impl Decoder {
    /// Create a decoder with the given configuration.
    pub fn new(config: DecoderConfig) -> Self {
        Self { config }
    }

    /// Scan a capture (complex baseband at 2 Msps) starting at absolute
    /// time `capture_start_s`, returning every frame that passes parity.
    /// Thin allocating wrapper over [`Decoder::scan_with`].
    pub fn scan(&self, iq: &[Cplx], capture_start_s: f64) -> Vec<DecodedMessage> {
        let mut scratch = DecodeScratch::default();
        let mut out = Vec::new();
        self.scan_with(iq, capture_start_s, &mut scratch, &mut out);
        out
    }

    /// [`Decoder::scan`] with caller-owned working memory: intermediate
    /// buffers live in `scratch` and decoded messages land in `out`
    /// (cleared first). Reusing both across captures keeps the steady-state
    /// scan loop allocation-free. Output is identical to [`Decoder::scan`].
    pub fn scan_with(
        &self,
        iq: &[Cplx],
        capture_start_s: f64,
        scratch: &mut DecodeScratch,
        out: &mut Vec<DecodedMessage>,
    ) {
        let _span = aircal_obs::span!("preamble_scan");
        out.clear();
        if iq.len() < SHORT_FRAME_SAMPLES {
            return;
        }
        // Candidate preambles: peaks far enough apart that two hits can't
        // be the same burst.
        let DecodeScratch { scan, demod } = scratch;
        scan.run(iq, self.config.preamble_threshold, PEAK_SEPARATION);
        // The scan leaves `mags[i] = |iq[i]|²` for every sample: the
        // magnitudes the demodulator reads.
        let mags = &scan.mags[..iq.len()];
        for &(idx, _) in &scan.peaks {
            if idx + SHORT_FRAME_SAMPLES > iq.len() {
                continue;
            }
            out.extend(self.try_decode_at(mags, idx, capture_start_s, demod));
        }
    }

    /// Attempt to decode a frame whose preamble starts at `mags[idx]`
    /// (with at least a short frame of magnitudes from there on): read the
    /// 5-bit downlink format (as dump1090 does), demodulate the 56 or 112
    /// bits it calls for, then parity-check with CRC-guided repair of up
    /// to `max_repaired_bits` low-confidence bits.
    fn try_decode_at(
        &self,
        mags: &[f64],
        idx: usize,
        capture_start_s: f64,
        demod: &mut ppm::Demodulated,
    ) -> Option<DecodedMessage> {
        let mags = &mags[idx..];
        let n_bits = match ppm::downlink_format(mags) {
            DF_ALL_CALL => SHORT_FRAME_BITS,
            DF_EXTENDED_SQUITTER => FRAME_BITS,
            _ => return None,
        };
        if !ppm::demodulate_into(mags, n_bits, demod) {
            return None;
        }
        let (bytes, repaired_bits) = self.repair(demod)?;
        // `repair` returns only bytes whose parity checks, so the CRC is
        // not run a second time.
        let frame = ModeSFrame::parse(&bytes[..demod.bytes().len()]).ok()?;
        Some(DecodedMessage {
            frame,
            sample_index: idx,
            time_s: capture_start_s + idx as f64 / SAMPLE_RATE_HZ,
            rssi_dbfs: demod.rssi_dbfs(),
            min_confidence: demod.min_confidence(),
            repaired_bits,
        })
    }

    /// dump1090-style bit repair: if parity fails, flip the one (or pair
    /// of) lowest-confidence bit decisions that makes it pass. Only the
    /// weakest few candidates are tried, keeping the extra false-accept
    /// probability negligible against CRC-24. Returns the bytes whose
    /// parity checks (only the demodulated length is meaningful) and how
    /// many bits were flipped.
    fn repair(&self, demod: &ppm::Demodulated) -> Option<([u8; FRAME_BYTES], u8)> {
        let n = demod.bytes().len();
        let mut bytes = [0u8; FRAME_BYTES];
        bytes[..n].copy_from_slice(demod.bytes());
        // A frame's parity checks exactly when the CRC of the whole frame
        // is zero.
        let verify = |bytes: &[u8; FRAME_BYTES]| crc::crc24(&bytes[..n]) == 0;
        if verify(&bytes) {
            return Some((bytes, 0));
        }
        let budget = self.config.max_repaired_bits.min(2);
        if budget == 0 {
            return None;
        }
        let flipped = |bits: &[usize]| {
            let mut b = bytes;
            for &bit in bits {
                b[bit / 8] ^= 1 << (7 - bit % 8);
            }
            b
        };
        let weakest: [usize; REPAIR_ONE] = weakest_bits(demod.confidences());
        // Single-bit repair over the 8 weakest decisions.
        for &bit in &weakest {
            let b = flipped(&[bit]);
            if verify(&b) {
                return Some((b, 1));
            }
        }
        if budget >= 2 {
            // Two-bit repair over the 6 weakest decisions (15 pairs).
            let pairs = &weakest[..REPAIR_TWO];
            for (i, &b1) in pairs.iter().enumerate() {
                for &b2 in &pairs[i + 1..] {
                    let b = flipped(&[b1, b2]);
                    if verify(&b) {
                        return Some((b, 2));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpr::{self, CprFormat};
    use crate::frame::AdsbFrame;
    use crate::icao::IcaoAddress;
    use crate::me::MePayload;
    use crate::ppm::FRAME_SAMPLES;
    use aircal_dsp::corr::{find_peaks, normalized_correlation};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn test_frame(icao: u32) -> AdsbFrame {
        AdsbFrame::new(
            IcaoAddress::new(icao),
            MePayload::AirbornePosition {
                altitude_ft: 30_000.0,
                cpr: cpr::encode(37.9, -122.2, CprFormat::Even),
            },
        )
    }

    fn add_noise(iq: &mut [Cplx], sigma: f64, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for s in iq.iter_mut() {
            *s += aircal_dsp::normal::draw(&mut rng, sigma);
        }
    }

    #[test]
    fn finds_single_burst_in_capture() {
        let frame = test_frame(0xABC123);
        let burst = ppm::modulate(&frame.encode(), 0.5, 1.0);
        let mut capture = vec![Cplx::ZERO; 2_000];
        capture[700..700 + FRAME_SAMPLES].copy_from_slice(&burst);
        add_noise(&mut capture, 0.02, 1);

        let msgs = Decoder::default().scan(&capture, 10.0);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].frame, ModeSFrame::Extended(frame));
        assert_eq!(msgs[0].sample_index, 700);
        assert!((msgs[0].time_s - (10.0 + 700.0 / 2e6)).abs() < 1e-9);
        assert!(
            (msgs[0].rssi_dbfs - (-6.02)).abs() < 1.0,
            "rssi {}",
            msgs[0].rssi_dbfs
        );
    }

    #[test]
    fn finds_multiple_bursts_from_different_aircraft() {
        let f1 = test_frame(0x111111);
        let f2 = test_frame(0x222222);
        let mut capture = vec![Cplx::ZERO; 4_000];
        capture[500..500 + FRAME_SAMPLES].copy_from_slice(&ppm::modulate(&f1.encode(), 0.4, 0.0));
        capture[2_500..2_500 + FRAME_SAMPLES].copy_from_slice(&ppm::modulate(
            &f2.encode(),
            0.6,
            2.0,
        ));
        add_noise(&mut capture, 0.02, 2);

        let msgs = Decoder::default().scan(&capture, 0.0);
        assert_eq!(msgs.len(), 2);
        let icaos: Vec<u32> = msgs.iter().map(|m| m.frame.icao().value()).collect();
        assert!(icaos.contains(&0x111111) && icaos.contains(&0x222222));
    }

    /// The dense reference the sparse scan must reproduce: every lag of
    /// `normalized_correlation` at or above `thr`, and `find_peaks` on it.
    fn dense_reference(iq: &[Cplx], thr: f64) -> (Vec<(usize, f64)>, Vec<usize>) {
        let dense = normalized_correlation(iq, &ppm::preamble_template());
        let above = dense
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, v)| v >= thr)
            .collect();
        (above, find_peaks(&dense, thr, PEAK_SEPARATION))
    }

    fn assert_scan_matches_dense(iq: &[Cplx], thr: f64, what: &str) {
        let (above, peaks) = dense_reference(iq, thr);
        let mut scan = PreambleScan::default();
        let got: Vec<usize> = scan
            .run(iq, thr, PEAK_SEPARATION)
            .iter()
            .map(|&(lag, _)| lag)
            .collect();
        let bits =
            |v: &[(usize, f64)]| v.iter().map(|&(i, x)| (i, x.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&scan.candidates), bits(&above), "{what}: candidates");
        assert_eq!(got, peaks, "{what}: peaks");
    }

    /// Random IQ, with and without bursts: the sparse candidates are the
    /// dense scan's lags at or above the threshold, value for value, and
    /// the peaks are `find_peaks` of the dense scan. Thresholds are also
    /// set to exact correlation values and their float neighbours, so the
    /// `>=` edge and the correlation gate's margin are both exercised.
    #[test]
    fn sparse_scan_matches_dense_correlation_and_peaks() {
        let thr = DecoderConfig::default().preamble_threshold;
        let mut rng = ChaCha8Rng::seed_from_u64(0x5CA9);
        for seed in 0..24u64 {
            let len = rng.gen_range(16..3_000);
            let mut capture = vec![Cplx::ZERO; len];
            add_noise(&mut capture, 0.05, seed);
            if seed % 3 != 0 && len > 2 * FRAME_SAMPLES {
                let frame = test_frame(0x0F00 + seed as u32);
                let amp = [0.02, 0.05, 0.1, 0.5][seed as usize % 4];
                let burst = ppm::modulate(&frame.encode(), amp, 0.7 * seed as f64);
                let at = rng.gen_range(0..len - FRAME_SAMPLES);
                for (s, b) in capture[at..].iter_mut().zip(&burst) {
                    *s += *b;
                }
            }
            assert_scan_matches_dense(&capture, thr, &format!("seed {seed}"));
            let dense = normalized_correlation(&capture, &ppm::preamble_template());
            for _ in 0..4 {
                let edge = dense[rng.gen_range(0..dense.len())];
                if edge <= 0.0 {
                    continue;
                }
                for t in [
                    edge,
                    f64::from_bits(edge.to_bits() - 1),
                    f64::from_bits(edge.to_bits() + 1),
                ] {
                    assert_scan_matches_dense(
                        &capture,
                        t,
                        &format!("seed {seed}, threshold {t:e}"),
                    );
                }
            }
        }
    }

    /// The gates only skip work: thresholds at and below zero keep every
    /// lag, and an exactly scaled preamble sits on the threshold.
    #[test]
    fn sparse_scan_is_exact_at_degenerate_thresholds() {
        let mut capture = vec![Cplx::ZERO; 600];
        add_noise(&mut capture, 0.05, 9);
        capture[200..200 + FRAME_SAMPLES].copy_from_slice(&ppm::modulate(
            &test_frame(0x1234).encode(),
            0.4,
            1.0,
        ));
        for thr in [0.0, -0.5, 1e-300, 1.0, 1.5] {
            assert_scan_matches_dense(&capture, thr, &format!("threshold {thr}"));
        }
    }

    /// The four-pulse sum is the 16-chip matched filter's magnitude on
    /// finite IQ. On non-finite IQ it is pinned here: an `inf` on a zero
    /// chip leaves the 4-term sum finite where the 16-term product is
    /// NaN, and the power gate rejects that lag (window energy `inf`).
    #[test]
    fn pulse_sum_matches_template_dot_and_is_pinned_on_non_finite_iq() {
        let dot = |w: &[Cplx]| (aircal_dsp::kernels().cdot_conj)(w, &ppm::preamble_template());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..2_000 {
            let mut w: Vec<Cplx> = (0..PREAMBLE_CHIPS)
                .map(|_| Cplx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            if rng.gen_bool(0.3) {
                w[rng.gen_range(0..PREAMBLE_CHIPS)] = Cplx::new(-0.0, 0.0);
            }
            assert_eq!(pulse_sum(&w, 0).abs().to_bits(), dot(&w).abs().to_bits());
        }
        let mut w = vec![Cplx::new(0.25, -0.5); PREAMBLE_CHIPS];
        w[4] = Cplx::new(f64::INFINITY, 0.0);
        assert!(dot(&w).abs().is_nan());
        assert_eq!(pulse_sum(&w, 0), Cplx::new(1.0, -2.0));
        w[7] = Cplx::new(f64::INFINITY, 0.0);
        assert_eq!(pulse_sum(&w, 0).re, f64::INFINITY);
        w[9] = Cplx::new(f64::NEG_INFINITY, 0.0);
        assert!(pulse_sum(&w, 0).re.is_nan());
        let mut w = vec![Cplx::new(1e200, 1e200); PREAMBLE_CHIPS];
        w[3] = Cplx::new(f64::NAN, 0.0);
        assert!(pulse_sum(&w, 0).re.is_finite());
        let mut scan = PreambleScan::default();
        assert!(scan.run(&w, 0.6, 64).is_empty());
        assert_eq!(scan.candidates.len(), 1);
        assert!(scan.candidates[0].1.is_nan());
    }

    /// Decoding is total: captures with NaN, ±inf and 1e200-magnitude
    /// samples anywhere (preamble, data chips, empty chips, guard) scan
    /// without panicking, under every repair budget.
    #[test]
    fn decoder_is_total_on_non_finite_and_huge_samples() {
        let frame = test_frame(0x70A1);
        let burst = ppm::modulate(&frame.encode(), 0.5, 0.3);
        let decoders: Vec<Decoder> = (0..=2)
            .map(|b| {
                Decoder::new(DecoderConfig {
                    max_repaired_bits: b,
                    ..Default::default()
                })
            })
            .collect();
        let poison = [
            Cplx::new(f64::NAN, 0.0),
            Cplx::new(0.0, f64::NAN),
            Cplx::new(f64::INFINITY, 0.0),
            Cplx::new(f64::NEG_INFINITY, f64::INFINITY),
            Cplx::new(1e200, -1e200),
            Cplx::new(-1e200, 0.0),
        ];
        let mut scratch = DecodeScratch::default();
        let mut out = Vec::new();
        for (k, &bad) in poison.iter().enumerate() {
            for at in [0usize, 102, 105, 117, 118, 200, 290, 339, 480] {
                let mut capture = vec![Cplx::ZERO; 500];
                capture[100..100 + FRAME_SAMPLES].copy_from_slice(&burst);
                add_noise(&mut capture, 0.01, k as u64);
                capture[at] = bad;
                for d in &decoders {
                    let msgs = d.scan(&capture, 0.0);
                    d.scan_with(&capture, 0.0, &mut scratch, &mut out);
                    assert_eq!(msgs, out, "{bad:?} at {at}");
                    for m in &msgs {
                        assert_eq!(
                            m.frame,
                            ModeSFrame::Extended(frame.clone()),
                            "{bad:?} at {at}"
                        );
                    }
                }
            }
        }
    }

    /// Regression: an `inf` on a data bit's empty chip makes that bit's
    /// confidence `inf/inf = NaN` and fails the CRC. Repair used to rank
    /// the bits with `partial_cmp(..).unwrap()` and panicked; NaN now
    /// ranks weakest, so the one-bit repair flips that bit back.
    #[test]
    fn infinite_sample_on_an_empty_data_chip_is_repaired_not_a_panic() {
        let frame = test_frame(0x1CF1);
        let bytes = frame.encode();
        for bit in [40usize, 41, 60, 77] {
            let mut burst = ppm::modulate(&bytes, 0.5, 0.0);
            let one = bytes[bit / 8] & (0x80 >> (bit % 8)) != 0;
            let empty_chip = PREAMBLE_CHIPS + 2 * bit + usize::from(one);
            burst[empty_chip] = Cplx::new(f64::INFINITY, 0.0);
            let mut capture = vec![Cplx::ZERO; 700];
            capture[200..200 + FRAME_SAMPLES].copy_from_slice(&burst);
            add_noise(&mut capture, 0.005, bit as u64);
            let msgs = Decoder::default().scan(&capture, 0.0);
            assert_eq!(msgs.len(), 1, "bit {bit}");
            assert_eq!(
                msgs[0].frame,
                ModeSFrame::Extended(frame.clone()),
                "bit {bit}"
            );
            assert_eq!(msgs[0].repaired_bits, 1, "bit {bit}");
        }
    }

    proptest::proptest! {
        /// Repair's ranking equals the stable sort it replaced: the first
        /// 8 (and 6) bits of an ascending stable sort on confidence with
        /// NaN weakest, over confidences full of ties, zeros, ones and NaNs.
        #[test]
        fn weakest_bits_are_the_head_of_the_stable_sort(
            draws in proptest::collection::vec(proptest::prelude::any::<u64>(), 8..=112),
        ) {
            let confidences: Vec<f64> = draws
                .iter()
                .map(|&d| match d % 8 {
                    0 => f64::NAN,
                    1 => 0.0,
                    2 => 1.0,
                    3 => 0.5,
                    _ => (d >> 11) as f64 / (1u64 << 53) as f64,
                })
                .collect();
            let key = |bit: usize| {
                let c = confidences[bit];
                if c.is_nan() { f64::NEG_INFINITY } else { c }
            };
            let mut order: Vec<usize> = (0..confidences.len()).collect();
            order.sort_by(|&a, &b| key(a).total_cmp(&key(b)));
            proptest::prop_assert_eq!(weakest_bits::<REPAIR_ONE>(&confidences), order[..REPAIR_ONE]);
            proptest::prop_assert_eq!(weakest_bits::<REPAIR_TWO>(&confidences), order[..REPAIR_TWO]);
        }
    }

    #[test]
    fn pure_noise_yields_nothing() {
        let mut capture = vec![Cplx::ZERO; 10_000];
        add_noise(&mut capture, 0.1, 3);
        let msgs = Decoder::default().scan(&capture, 0.0);
        assert!(msgs.is_empty(), "got {} phantom messages", msgs.len());
    }

    #[test]
    fn weak_burst_below_noise_not_decoded() {
        let frame = test_frame(0xDEAD01);
        let burst = ppm::modulate(&frame.encode(), 0.01, 0.0); // −40 dBFS
        let mut capture = vec![Cplx::ZERO; 2_000];
        capture[600..600 + FRAME_SAMPLES].copy_from_slice(&burst);
        add_noise(&mut capture, 0.1, 4); // noise 20 dB above the signal
        let msgs = Decoder::default().scan(&capture, 0.0);
        assert!(msgs.is_empty());
    }

    #[test]
    fn decode_survives_moderate_noise() {
        // SNR ≈ 14 dB: pulse amplitude 0.5, noise σ 0.1.
        let frame = test_frame(0xBEEF42);
        let burst = ppm::modulate(&frame.encode(), 0.5, 0.7);
        let mut capture = vec![Cplx::ZERO; 1_000];
        capture[300..300 + FRAME_SAMPLES].copy_from_slice(&burst);
        add_noise(&mut capture, 0.1, 5);
        let msgs = Decoder::default().scan(&capture, 0.0);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].frame, ModeSFrame::Extended(frame));
        assert!(msgs[0].min_confidence < 1.0);
    }

    #[test]
    fn short_capture_is_fine() {
        assert!(Decoder::default().scan(&[Cplx::ZERO; 10], 0.0).is_empty());
    }

    /// Corrupt one data bit so its decision flips with near-zero
    /// confidence: the CRC-guided repair must recover the frame and report
    /// one repaired bit.
    fn corrupt_bit(burst: &mut [Cplx], bit: usize) {
        let base = crate::ppm::PREAMBLE_CHIPS + 2 * bit;
        // Make the wrong chip marginally stronger than the right one.
        let (a, b) = (burst[base], burst[base + 1]);
        if a.norm_sq() > b.norm_sq() {
            burst[base] = a.scale(0.50);
            burst[base + 1] = a.scale(0.51);
        } else {
            burst[base] = b.scale(0.51);
            burst[base + 1] = b.scale(0.50);
        }
    }

    #[test]
    fn single_bit_repair_recovers_frame() {
        let frame = test_frame(0xF1D0A1);
        let mut burst = ppm::modulate(&frame.encode(), 0.5, 0.3);
        corrupt_bit(&mut burst, 37);
        let mut capture = vec![Cplx::ZERO; 1_000];
        capture[400..400 + FRAME_SAMPLES].copy_from_slice(&burst);
        add_noise(&mut capture, 0.01, 2);

        let msgs = Decoder::default().scan(&capture, 0.0);
        assert_eq!(msgs.len(), 1, "repair failed");
        assert_eq!(msgs[0].frame, ModeSFrame::Extended(frame));
        assert_eq!(msgs[0].repaired_bits, 1);
    }

    #[test]
    fn two_bit_repair_requires_budget() {
        let frame = test_frame(0x2B17F1);
        let mut burst = ppm::modulate(&frame.encode(), 0.5, 0.0);
        corrupt_bit(&mut burst, 20);
        corrupt_bit(&mut burst, 75);
        let mut capture = vec![Cplx::ZERO; 1_000];
        capture[300..300 + FRAME_SAMPLES].copy_from_slice(&burst);
        add_noise(&mut capture, 0.005, 7);

        let one_bit = Decoder::new(DecoderConfig {
            max_repaired_bits: 1,
            ..Default::default()
        });
        assert!(
            one_bit.scan(&capture, 0.0).is_empty(),
            "1-bit budget must fail"
        );

        let two_bit = Decoder::new(DecoderConfig {
            max_repaired_bits: 2,
            ..Default::default()
        });
        let msgs = two_bit.scan(&capture, 0.0);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].frame, ModeSFrame::Extended(frame));
        assert_eq!(msgs[0].repaired_bits, 2);
    }

    #[test]
    fn repair_disabled_rejects_corruption() {
        let frame = test_frame(0x3C4D5E);
        let mut burst = ppm::modulate(&frame.encode(), 0.5, 0.0);
        corrupt_bit(&mut burst, 50);
        let mut capture = vec![Cplx::ZERO; 800];
        capture[200..200 + FRAME_SAMPLES].copy_from_slice(&burst);
        add_noise(&mut capture, 0.005, 8);
        let strict = Decoder::new(DecoderConfig {
            max_repaired_bits: 0,
            ..Default::default()
        });
        assert!(strict.scan(&capture, 0.0).is_empty());
    }

    #[test]
    fn clean_decodes_report_zero_repairs() {
        let frame = test_frame(0x456789);
        let burst = ppm::modulate(&frame.encode(), 0.5, 0.0);
        let mut capture = vec![Cplx::ZERO; 800];
        capture[100..100 + FRAME_SAMPLES].copy_from_slice(&burst);
        add_noise(&mut capture, 0.01, 2);
        let msgs = Decoder::default().scan(&capture, 0.0);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].repaired_bits, 0);
    }

    /// Repair must improve decode probability at marginal SNR without
    /// manufacturing frames from pure noise.
    #[test]
    fn repair_helps_at_marginal_snr_without_false_positives() {
        let frame = test_frame(0x7E57AB);
        let burst = ppm::modulate(&frame.encode(), 0.55, 0.0); // ~11.8 dB SNR vs σ=0.1
        let strict = Decoder::new(DecoderConfig {
            max_repaired_bits: 0,
            ..Default::default()
        });
        let fixer = Decoder::new(DecoderConfig {
            max_repaired_bits: 2,
            ..Default::default()
        });
        let (mut ok_strict, mut ok_fix) = (0, 0);
        for trial in 0..60u64 {
            let mut capture = vec![Cplx::ZERO; 600];
            capture[150..150 + FRAME_SAMPLES].copy_from_slice(&burst);
            add_noise(&mut capture, 0.1, 1_000 + trial);
            ok_strict += usize::from(!strict.scan(&capture, 0.0).is_empty());
            let fixed = fixer.scan(&capture, 0.0);
            if let Some(m) = fixed.first() {
                assert_eq!(m.frame.icao().value(), 0x7E57AB, "false decode");
                ok_fix += 1;
            }
        }
        assert!(
            ok_fix > ok_strict,
            "repair should help: strict {ok_strict}, fix {ok_fix}"
        );

        // Pure noise must stay silent even with repair enabled.
        for trial in 0..20u64 {
            let mut noise = vec![Cplx::ZERO; 2_000];
            add_noise(&mut noise, 0.1, 5_000 + trial);
            assert!(
                fixer.scan(&noise, 0.0).is_empty(),
                "phantom decode from noise"
            );
        }
    }

    #[test]
    fn burst_at_capture_edge_is_skipped_not_panicking() {
        let frame = test_frame(0xC0FFEE);
        let burst = ppm::modulate(&frame.encode(), 0.5, 0.0);
        let mut capture = vec![Cplx::ZERO; FRAME_SAMPLES + 100];
        // Burst starts 50 samples before the end-minus-frame boundary: fits.
        capture[100..100 + FRAME_SAMPLES].copy_from_slice(&burst);
        let msgs = Decoder::default().scan(&capture, 0.0);
        assert_eq!(msgs.len(), 1);
    }
}
