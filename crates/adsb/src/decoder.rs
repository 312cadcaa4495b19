//! A dump1090-style scanning decoder: find preambles in raw IQ, slice bits,
//! check parity, emit messages.

use crate::frame::{AdsbFrame, ModeSFrame, ShortSquitter, DF_ALL_CALL, DF_EXTENDED_SQUITTER};
use crate::ppm::{self, FRAME_SAMPLES, SHORT_FRAME_SAMPLES};
use crate::{AdsbError, SAMPLE_RATE_HZ};
use aircal_dsp::corr::find_peaks_into;
use aircal_dsp::Cplx;
use serde::{Deserialize, Serialize};

/// Preamble correlation with a power gate — the decoder's scan fast path.
///
/// Produces the same values as
/// `normalized_correlation(iq, &ppm::preamble_template())` at every lag
/// that could reach `threshold`, and writes `0.0` at lags provably below
/// it. Sample magnitudes are computed once for the whole capture and
/// reused for both the running window energy and the gate.
///
/// The gate is the Cauchy–Schwarz bound: with the four unit preamble
/// pulses as template, `|Σ_pulses s|² ≤ 4·Σ_pulses |s|²`, so
/// `corr² ≤ (Σ_pulses |s|²) / w_energy`. When that bound is already
/// below `threshold²`, the exact correlation (4 complex adds, a sqrt and
/// a divide per lag) is skipped. Gated lags can never enter the peak set
/// (their true value is below threshold too), and since every reported
/// candidate's own value is exact and neighbors' true values are below
/// it, the resulting peak list is **identical** to the ungated scan —
/// the gate changes throughput, not decodes.
pub fn gated_preamble_correlation(iq: &[Cplx], threshold: f64) -> Vec<f64> {
    let mut mags = Vec::new();
    let mut out = Vec::new();
    gated_preamble_correlation_into(iq, threshold, &mut mags, &mut out);
    out
}

/// [`gated_preamble_correlation`] into caller-owned buffers: `mags` holds
/// the per-sample magnitudes, `out` the gated correlation. Both are
/// cleared and refilled; reusing them keeps the scan loop allocation-free.
pub fn gated_preamble_correlation_into(
    iq: &[Cplx],
    threshold: f64,
    mags: &mut Vec<f64>,
    out: &mut Vec<f64>,
) {
    out.clear();
    let m = ppm::PREAMBLE_CHIPS;
    if iq.len() < m {
        return;
    }
    let kernels = aircal_dsp::kernels();
    mags.resize(iq.len(), 0.0);
    (kernels.norm_sq_map)(iq, mags);
    // Canonical lane reduction over the template yields exactly 4.0 (one
    // unit pulse per contributing lane), so the closed form stays
    // bit-identical to `normalized_correlation`'s `energy(template)`.
    let t_energy = ppm::PREAMBLE_PULSES.len() as f64;
    let thr_sq = threshold * threshold;
    let n = iq.len() - m + 1;
    // Lane-reduced like the ungated scan's `energy(&signal[..m])`: the
    // per-element values are identical (`norm_sq_map` output), and the
    // lane assignment and tree match, so the two inits agree bitwise.
    let mut w_energy: f64 = (kernels.sum_f64)(&mags[..m]);
    for i in 0..n {
        let pulse_sum: f64 = ppm::PREAMBLE_PULSES.iter().map(|&k| mags[i + k]).sum();
        if pulse_sum < thr_sq * w_energy {
            out.push(0.0);
        } else {
            // The exact value must match the ungated scan bit-for-bit, so
            // it runs the same matched-filter kernel over the full
            // 16-chip template rather than the 4-pulse shortcut.
            let acc = (kernels.cdot_conj)(&iq[i..i + m], &ppm::PREAMBLE_TEMPLATE);
            let denom = (t_energy * w_energy).sqrt();
            out.push(if denom < 1e-30 { 0.0 } else { acc.abs() / denom });
        }
        if i + m < iq.len() {
            w_energy += mags[i + m] - mags[i];
            if w_energy < 0.0 {
                w_energy = 0.0;
            }
        }
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
    /// Per-sample magnitudes for the gated correlation.
    mags: Vec<f64>,
    /// Gated preamble correlation at each lag.
    corr: Vec<f64>,
    /// Candidate preamble peak indices.
    peaks: Vec<usize>,
    /// Demodulated bits/confidences for the frame under test.
    demod: ppm::Demodulated,
    /// Bit positions ranked by decision confidence (repair ordering).
    order: Vec<usize>,
    /// Candidate byte string the CRC-guided repair mutates.
    bytes: Vec<u8>,
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
        gated_preamble_correlation_into(
            iq,
            self.config.preamble_threshold,
            &mut scratch.mags,
            &mut scratch.corr,
        );
        // Candidate preambles: peaks far enough apart that two hits can't
        // be the same burst (half a short frame).
        find_peaks_into(
            &scratch.corr,
            self.config.preamble_threshold,
            SHORT_FRAME_SAMPLES / 2,
            &mut scratch.peaks,
        );
        let peaks = std::mem::take(&mut scratch.peaks);
        for &idx in &peaks {
            if idx + SHORT_FRAME_SAMPLES > iq.len() {
                continue;
            }
            if let Ok(msg) = self.try_decode_at_with(iq, idx, capture_start_s, scratch) {
                out.push(msg);
            }
        }
        scratch.peaks = peaks;
    }

    /// Attempt to decode a frame whose preamble starts at `idx`: slice the
    /// first 5 bits to learn the downlink format (as dump1090 does), pick
    /// the 56- or 112-bit length accordingly, then parity-check with
    /// CRC-guided repair of up to `max_repaired_bits` low-confidence bits.
    /// Runs in caller-owned working memory; the allocation-free core the
    /// scan loop runs on.
    pub fn try_decode_at_with(
        &self,
        iq: &[Cplx],
        idx: usize,
        capture_start_s: f64,
        scratch: &mut DecodeScratch,
    ) -> Result<DecodedMessage, AdsbError> {
        let head = iq
            .get(idx..)
            .filter(|s| s.len() >= SHORT_FRAME_SAMPLES)
            .ok_or(AdsbError::InvalidField("capture too short for frame"))?;
        if !ppm::demodulate_bits_into(head, 5, &mut scratch.demod) {
            return Err(AdsbError::InvalidField("demod failed"));
        }
        let df = scratch.demod.bytes[0] >> 3;

        let (n_bits, want) = match df {
            DF_ALL_CALL => (56usize, SHORT_FRAME_SAMPLES),
            DF_EXTENDED_SQUITTER => (112usize, FRAME_SAMPLES),
            other => return Err(AdsbError::UnsupportedFormat(other)),
        };
        let slice = iq
            .get(idx..idx + want)
            .ok_or(AdsbError::InvalidField("capture too short for frame"))?;
        if !ppm::demodulate_bits_into(slice, n_bits, &mut scratch.demod) {
            return Err(AdsbError::InvalidField("demod failed"));
        }
        let repaired_bits =
            self.repair_into(&scratch.demod, &mut scratch.order, &mut scratch.bytes)?;
        let frame = match df {
            DF_ALL_CALL => {
                let mut b = [0u8; 7];
                b.copy_from_slice(&scratch.bytes);
                ModeSFrame::Short(ShortSquitter::decode(&b)?)
            }
            _ => {
                let mut b = [0u8; 14];
                b.copy_from_slice(&scratch.bytes);
                ModeSFrame::Extended(AdsbFrame::decode(&b)?)
            }
        };
        Ok(DecodedMessage {
            frame,
            sample_index: idx,
            time_s: capture_start_s + idx as f64 / SAMPLE_RATE_HZ,
            rssi_dbfs: scratch.demod.rssi_dbfs(),
            min_confidence: scratch.demod.min_confidence(),
            repaired_bits,
        })
    }

    /// dump1090-style bit repair: if parity fails, flip the one (or pair
    /// of) lowest-confidence bit decisions and re-check. Only the weakest
    /// few candidates are tried, keeping the extra false-accept
    /// probability negligible against CRC-24.
    fn repair_into(
        &self,
        demod: &ppm::Demodulated,
        order: &mut Vec<usize>,
        bytes: &mut Vec<u8>,
    ) -> Result<u8, AdsbError> {
        let verify = |bytes: &[u8]| -> bool {
            match bytes.len() {
                7 => {
                    let mut b = [0u8; 7];
                    b.copy_from_slice(bytes);
                    crate::crc::verify_short_frame(&b)
                }
                14 => {
                    let mut b = [0u8; 14];
                    b.copy_from_slice(bytes);
                    crate::crc::verify_frame(&b)
                }
                _ => false,
            }
        };
        let reset = |bytes: &mut Vec<u8>| {
            bytes.clear();
            bytes.extend_from_slice(&demod.bytes);
        };
        reset(bytes);
        if verify(bytes) {
            return Ok(0);
        }
        let budget = self.config.max_repaired_bits.min(2);
        if budget == 0 {
            return Err(AdsbError::BadParity);
        }
        // Rank bit positions by ascending decision confidence.
        order.clear();
        order.extend(0..demod.confidences.len());
        order.sort_by(|&a, &b| {
            demod.confidences[a]
                .partial_cmp(&demod.confidences[b])
                .unwrap()
        });
        let flip = |bytes: &mut [u8], bit: usize| bytes[bit / 8] ^= 1 << (7 - bit % 8);

        // Single-bit repair over the 8 weakest decisions.
        for &b in order.iter().take(8) {
            reset(bytes);
            flip(bytes, b);
            if verify(bytes) {
                return Ok(1);
            }
        }
        if budget >= 2 {
            // Two-bit repair over the 6 weakest decisions (15 pairs).
            let pl = order.len().min(6);
            for i in 0..pl {
                for j in i + 1..pl {
                    let (b1, b2) = (order[i], order[j]);
                    reset(bytes);
                    flip(bytes, b1);
                    flip(bytes, b2);
                    if verify(bytes) {
                        return Ok(2);
                    }
                }
            }
        }
        Err(AdsbError::BadParity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpr::{self, CprFormat};
    use crate::icao::IcaoAddress;
    use crate::me::MePayload;
    use aircal_dsp::corr::find_peaks;
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
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = sigma * (-2.0 * u1.ln()).sqrt();
            *s += Cplx::from_polar(r, core::f64::consts::TAU * u2);
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
        assert!((msgs[0].rssi_dbfs - (-6.02)).abs() < 1.0, "rssi {}", msgs[0].rssi_dbfs);
    }

    #[test]
    fn finds_multiple_bursts_from_different_aircraft() {
        let f1 = test_frame(0x111111);
        let f2 = test_frame(0x222222);
        let mut capture = vec![Cplx::ZERO; 4_000];
        capture[500..500 + FRAME_SAMPLES]
            .copy_from_slice(&ppm::modulate(&f1.encode(), 0.4, 0.0));
        capture[2_500..2_500 + FRAME_SAMPLES]
            .copy_from_slice(&ppm::modulate(&f2.encode(), 0.6, 2.0));
        add_noise(&mut capture, 0.02, 2);

        let msgs = Decoder::default().scan(&capture, 0.0);
        assert_eq!(msgs.len(), 2);
        let icaos: Vec<u32> = msgs.iter().map(|m| m.frame.icao().value()).collect();
        assert!(icaos.contains(&0x111111) && icaos.contains(&0x222222));
    }

    /// The power gate is an upper bound, never an approximation: every lag
    /// whose true correlation reaches the threshold must carry the exact
    /// ungated value, and the resulting peak set must be identical.
    #[test]
    fn gated_scan_matches_ungated_correlation() {
        use aircal_dsp::corr::normalized_correlation;
        let thr = DecoderConfig::default().preamble_threshold;
        for seed in 0..4u64 {
            let mut capture = vec![Cplx::ZERO; 6_000];
            let frame = test_frame(0x0F00 + seed as u32);
            let burst = ppm::modulate(&frame.encode(), 0.5, 0.7);
            capture[1_000..1_000 + FRAME_SAMPLES].copy_from_slice(&burst);
            capture[4_000..4_000 + FRAME_SAMPLES].copy_from_slice(&burst);
            add_noise(&mut capture, 0.05, seed);

            let gated = gated_preamble_correlation(&capture, thr);
            let exact = normalized_correlation(&capture, &ppm::preamble_template());
            assert_eq!(gated.len(), exact.len());
            let mut skipped = 0usize;
            for (i, (&g, &e)) in gated.iter().zip(&exact).enumerate() {
                if g == 0.0 && e != 0.0 {
                    // Gated lag: the true value must indeed be sub-threshold.
                    assert!(e < thr, "lag {i} gated but true corr {e} >= {thr}");
                    skipped += 1;
                } else {
                    assert_eq!(g, e, "lag {i}: gated {g} != exact {e}");
                }
            }
            assert!(skipped > gated.len() / 2, "gate skipped only {skipped} lags");
            let peaks_gated = find_peaks(&gated, thr, SHORT_FRAME_SAMPLES / 2);
            let peaks_exact = find_peaks(&exact, thr, SHORT_FRAME_SAMPLES / 2);
            assert_eq!(peaks_gated, peaks_exact, "seed {seed}");
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
        assert!(one_bit.scan(&capture, 0.0).is_empty(), "1-bit budget must fail");

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
            assert!(fixer.scan(&noise, 0.0).is_empty(), "phantom decode from noise");
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
