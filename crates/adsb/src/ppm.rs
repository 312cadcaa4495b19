//! Mode S pulse-position modulation at 2 Msps (half-microsecond chips).
//!
//! The downlink waveform is on-off keying of 0.5 µs pulses:
//!
//! * **Preamble** (8 µs, 16 chips): pulses at 0, 1.0, 3.5 and 4.5 µs —
//!   the pattern every receiver (dump1090 included) correlates against;
//! * **Data** (112 µs, 224 chips): each bit occupies 1 µs; a `1` puts the
//!   pulse in the first half, a `0` in the second.
//!
//! At the native 2 Msps, one chip is exactly one sample, so a full frame is
//! 240 samples.

use crate::{FRAME_BYTES, SAMPLE_RATE_HZ};
use aircal_dsp::Cplx;

/// Chips in the preamble.
pub const PREAMBLE_CHIPS: usize = 16;
/// Chips in the data section (112 bits × 2).
pub const DATA_CHIPS: usize = 224;
/// Total samples in a modulated frame at 2 Msps.
pub const FRAME_SAMPLES: usize = PREAMBLE_CHIPS + DATA_CHIPS;

/// The preamble chip pattern (1 = pulse).
pub const PREAMBLE_PATTERN: [u8; PREAMBLE_CHIPS] = [1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0];

/// Chip offsets of the four preamble pulses (the `1`s in
/// [`PREAMBLE_PATTERN`]) — the only samples that contribute to preamble
/// correlation, which the decoder's sparse preamble scan exploits.
pub const PREAMBLE_PULSES: [usize; 4] = [0, 2, 7, 9];

/// Duration of one frame in seconds (120 µs).
pub fn frame_duration_s() -> f64 {
    FRAME_SAMPLES as f64 / SAMPLE_RATE_HZ
}

/// The preamble as a complex template (unit amplitude), for correlation.
pub fn preamble_template() -> Vec<Cplx> {
    PREAMBLE_PATTERN
        .iter()
        .map(|&c| if c == 1 { Cplx::ONE } else { Cplx::ZERO })
        .collect()
}

/// Samples in a modulated *short* (56-bit) frame at 2 Msps.
pub const SHORT_FRAME_SAMPLES: usize = PREAMBLE_CHIPS + 2 * 56;

/// Chips in the modulated form of a `frame_bytes`-byte frame (preamble
/// plus two chips per bit).
pub fn chip_count(frame_bytes: usize) -> usize {
    PREAMBLE_CHIPS + 16 * frame_bytes
}

/// The chips that carry a pulse when `frame` is modulated, ascending: the
/// four preamble pulses, then for each bit the first chip of its pair for
/// a `1` and the second for a `0`. Every other chip of the
/// [`chip_count`] is silent.
pub fn pulse_chips(frame: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let data = (0..8 * frame.len()).map(move |bit| {
        let one = frame[bit / 8] & (0x80 >> (bit % 8)) != 0;
        PREAMBLE_CHIPS + 2 * bit + usize::from(!one)
    });
    PREAMBLE_PULSES.into_iter().chain(data)
}

/// Modulate any Mode S byte string (7 or 14 bytes) into baseband samples
/// with the given pulse amplitude and carrier phase.
pub fn modulate_bytes(frame: &[u8], amplitude: f64, phase_rad: f64) -> Vec<Cplx> {
    let pulse = Cplx::from_polar(amplitude, phase_rad);
    let mut samples = vec![Cplx::ZERO; chip_count(frame.len())];
    for chip in pulse_chips(frame) {
        samples[chip] = pulse;
    }
    samples
}

/// Modulate a 14-byte frame into 240 complex baseband samples with the
/// given pulse amplitude and carrier phase.
pub fn modulate(frame: &[u8; FRAME_BYTES], amplitude: f64, phase_rad: f64) -> Vec<Cplx> {
    modulate_bytes(frame, amplitude, phase_rad)
}

/// Result of demodulating one frame's worth of samples.
#[derive(Debug, Clone, Default)]
pub struct Demodulated {
    /// The recovered bytes (7 or 14; parity not yet checked).
    pub bytes: Vec<u8>,
    /// Per-bit confidence in [0, 1]: energy asymmetry between chip halves.
    pub confidences: Vec<f64>,
    /// Mean pulse power (linear) — the dump1090-style RSSI numerator.
    pub signal_power: f64,
    /// Reused `|chip|²` buffer, filled by the vectorized magnitude kernel.
    chip_mags: Vec<f64>,
}

impl Demodulated {
    /// The weakest bit decision's confidence.
    pub fn min_confidence(&self) -> f64 {
        self.confidences.iter().cloned().fold(1.0, f64::min)
    }

    /// RSSI in dBFS given that samples are full-scale-relative.
    pub fn rssi_dbfs(&self) -> f64 {
        aircal_dsp::lin_to_db(self.signal_power.max(1e-30))
    }
}

/// Demodulate `n_bits` (starting at the preamble) into bytes and per-bit
/// confidences, in a caller-owned [`Demodulated`] whose buffers are reused
/// across calls, keeping the decode loop allocation-free. Returns `false`
/// (leaving `out` cleared) if the slice is too short.
pub fn demodulate_bits_into(samples: &[Cplx], n_bits: usize, out: &mut Demodulated) -> bool {
    out.bytes.clear();
    out.confidences.clear();
    out.signal_power = 0.0;
    if samples.len() < PREAMBLE_CHIPS + 2 * n_bits {
        return false;
    }
    out.bytes.resize(n_bits.div_ceil(8), 0u8);
    // One vectorized magnitude pass over the data chips; the bit loop then
    // reads plain f64s (same values as per-sample `norm_sq`).
    out.chip_mags.resize(2 * n_bits, 0.0);
    (aircal_dsp::kernels().norm_sq_map)(
        &samples[PREAMBLE_CHIPS..PREAMBLE_CHIPS + 2 * n_bits],
        &mut out.chip_mags,
    );
    let mut pulse_power = 0.0;
    for bit_idx in 0..n_bits {
        let first = out.chip_mags[2 * bit_idx];
        let second = out.chip_mags[2 * bit_idx + 1];
        let bit = first > second;
        if bit {
            out.bytes[bit_idx / 8] |= 1 << (7 - bit_idx % 8);
        }
        let total = first + second;
        out.confidences.push(if total > 0.0 {
            (first - second).abs() / total
        } else {
            0.0
        });
        pulse_power += first.max(second);
    }
    out.signal_power = pulse_power / n_bits as f64;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Demodulate 240 samples (starting at the preamble) as a 112-bit frame.
    fn demodulate(samples: &[Cplx]) -> Option<Demodulated> {
        let mut out = Demodulated::default();
        demodulate_bits_into(samples, 112, &mut out).then_some(out)
    }

    fn frame_bytes() -> [u8; FRAME_BYTES] {
        [
            0x8D, 0x48, 0x40, 0xD6, 0x20, 0x2C, 0xC3, 0x71, 0xC3, 0x2C, 0xE0, 0x57, 0x60, 0x98,
        ]
    }

    #[test]
    fn frame_geometry() {
        assert_eq!(FRAME_SAMPLES, 240);
        assert!((frame_duration_s() - 120e-6).abs() < 1e-12);
    }

    #[test]
    fn clean_round_trip() {
        let tx = modulate(&frame_bytes(), 0.7, 0.3);
        let rx = demodulate(&tx).unwrap();
        assert_eq!(rx.bytes, frame_bytes());
        assert_eq!(rx.min_confidence(), 1.0);
        assert!((rx.signal_power - 0.49).abs() < 1e-9);
    }

    #[test]
    fn exactly_one_pulse_per_bit() {
        let tx = modulate(&frame_bytes(), 1.0, 0.0);
        for bit in 0..112 {
            let base = PREAMBLE_CHIPS + 2 * bit;
            let pulses = (tx[base].abs() > 0.5) as u32 + (tx[base + 1].abs() > 0.5) as u32;
            assert_eq!(pulses, 1, "bit {bit}");
        }
    }

    #[test]
    fn preamble_matches_pattern() {
        let tx = modulate(&frame_bytes(), 1.0, 0.0);
        for (i, &c) in PREAMBLE_PATTERN.iter().enumerate() {
            assert_eq!(tx[i].abs() > 0.5, c == 1, "chip {i}");
        }
    }

    /// One pulse chip per bit plus the four preamble pulses, ascending,
    /// each inside the frame's chip count.
    #[test]
    fn pulse_chips_are_the_on_chips_of_the_waveform() {
        for frame in [&frame_bytes()[..], &frame_bytes()[..7]] {
            let chips: Vec<usize> = pulse_chips(frame).collect();
            assert_eq!(chips.len(), 4 + 8 * frame.len());
            assert!(chips.windows(2).all(|w| w[0] < w[1]));
            let wave = modulate_bytes(frame, 1.0, 0.0);
            assert_eq!(wave.len(), chip_count(frame.len()));
            let on: Vec<usize> = (0..wave.len()).filter(|&k| wave[k] != Cplx::ZERO).collect();
            assert_eq!(chips, on);
            // A unit pulse is exactly `1 + 0i`, the value a chip mask stands for.
            for k in on {
                assert_eq!(
                    (wave[k].re.to_bits(), wave[k].im.to_bits()),
                    (1f64.to_bits(), 0)
                );
            }
        }
    }

    #[test]
    fn short_input_returns_none() {
        assert!(demodulate(&[Cplx::ZERO; 239]).is_none());
    }

    #[test]
    fn noise_lowers_confidence() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut tx = modulate(&frame_bytes(), 1.0, 0.0);
        for s in tx.iter_mut() {
            *s += Cplx::new(rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2));
        }
        let rx = demodulate(&tx).unwrap();
        assert!(rx.min_confidence() < 1.0);
        // Still decodes at this SNR.
        assert_eq!(rx.bytes, frame_bytes());
    }

    #[test]
    fn rssi_tracks_amplitude() {
        let strong = demodulate(&modulate(&frame_bytes(), 0.5, 0.0)).unwrap();
        let weak = demodulate(&modulate(&frame_bytes(), 0.05, 0.0)).unwrap();
        assert!((strong.rssi_dbfs() - weak.rssi_dbfs() - 20.0).abs() < 0.1);
    }

    proptest! {
        /// Modulation → demodulation is the identity on bytes for any
        /// payload and any carrier phase, on a clean channel.
        #[test]
        fn random_payload_round_trip(
            payload in proptest::collection::vec(any::<u8>(), FRAME_BYTES),
            phase in 0.0f64..core::f64::consts::TAU,
            amp in 0.01f64..1.0,
        ) {
            let mut frame = [0u8; FRAME_BYTES];
            frame.copy_from_slice(&payload);
            let rx = demodulate(&modulate(&frame, amp, phase)).unwrap();
            prop_assert_eq!(rx.bytes, frame);
        }
    }
}
