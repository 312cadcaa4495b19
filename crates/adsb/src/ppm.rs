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

use crate::{FRAME_BITS, FRAME_BYTES, SAMPLE_RATE_HZ};
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
pub const fn chip_count(frame_bytes: usize) -> usize {
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

/// The pulse chips of one data byte as a 16-chip mask: bit `2j` for a `1`
/// in bit `j` (MSB first) and bit `2j + 1` for a `0`.
const BYTE_CHIPS: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut j = 0;
        while j < 8 {
            let zero = (byte >> (7 - j)) & 1 == 0;
            table[byte] |= 1 << (2 * j + zero as usize);
            j += 1;
        }
        byte += 1;
    }
    table
};

/// Words of a chip mask for the longest (14-byte) frame's 240 chips.
pub const MAX_CHIP_WORDS: usize = chip_count(FRAME_BYTES).div_ceil(64);

/// The chips [`pulse_chips`] lists for `frame` (at most 14 bytes), as a
/// bit mask: chip `c` is bit `c % 64` of word `c / 64`, and every chip at
/// or past [`chip_count`] is clear. Built a byte at a time from a
/// 256-entry table: a byte's 16 chips start at a multiple of 16, so they
/// never straddle two words.
///
/// # Panics
/// If `frame` is longer than 14 bytes.
pub fn pulse_chip_words(frame: &[u8]) -> [u64; MAX_CHIP_WORDS] {
    assert!(frame.len() <= FRAME_BYTES, "{}-byte frame", frame.len());
    let mut words = [0u64; MAX_CHIP_WORDS];
    words[0] = PREAMBLE_PULSES.iter().fold(0, |m, &c| m | 1 << c);
    for (k, &byte) in frame.iter().enumerate() {
        let chip = PREAMBLE_CHIPS + 16 * k;
        words[chip / 64] |= u64::from(BYTE_CHIPS[usize::from(byte)]) << (chip % 64);
    }
    words
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

/// Result of demodulating one frame's worth of chip magnitudes, in fixed
/// arrays sized for the longest (112-bit) frame, so a caller-owned value
/// is reused across frames without allocating.
#[derive(Debug, Clone)]
pub struct Demodulated {
    /// Bits demodulated by the last call.
    n_bits: usize,
    /// The recovered bits, MSB-first; `n_bits.div_ceil(8)` bytes are live.
    bytes: [u8; FRAME_BYTES],
    /// Per-bit confidence in [0, 1]; `n_bits` entries are live.
    confidences: [f64; FRAME_BITS],
    /// Mean pulse power (linear) — the dump1090-style RSSI numerator.
    pub signal_power: f64,
}

impl Default for Demodulated {
    fn default() -> Self {
        Self {
            n_bits: 0,
            bytes: [0; FRAME_BYTES],
            confidences: [0.0; FRAME_BITS],
            signal_power: 0.0,
        }
    }
}

impl Demodulated {
    /// The recovered bytes (7 or 14 for a frame; parity not yet checked).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..self.n_bits.div_ceil(8)]
    }

    /// Per-bit confidence in [0, 1]: energy asymmetry between chip halves
    /// (NaN where both halves are infinite).
    pub fn confidences(&self) -> &[f64] {
        &self.confidences[..self.n_bits]
    }

    /// The weakest bit decision's confidence (NaN confidences ignored; 1
    /// when every one is NaN).
    pub fn min_confidence(&self) -> f64 {
        self.confidences().iter().copied().fold(1.0, f64::min)
    }

    /// RSSI in dBFS given that samples are full-scale-relative.
    pub fn rssi_dbfs(&self) -> f64 {
        aircal_dsp::lin_to_db(self.signal_power.max(1e-30))
    }
}

/// The 5-bit downlink format of a frame whose preamble starts at
/// `mags[0]`, from five chip-pair compares: the first byte
/// [`demodulate_into`] would give, shifted right by three (a pulse in the
/// first chip half is a `1`; a tie or a NaN is a `0`).
///
/// # Panics
/// If `mags` holds fewer than the `PREAMBLE_CHIPS + 10` chips it reads.
pub fn downlink_format(mags: &[f64]) -> u8 {
    mags[PREAMBLE_CHIPS..PREAMBLE_CHIPS + 10]
        .chunks_exact(2)
        .fold(0u8, |df, p| df << 1 | u8::from(p[0] > p[1]))
}

/// Demodulate `n_bits` (≤ 112) of a frame whose preamble starts at
/// `mags[0]` into `out`, reading only chip magnitudes: `mags[k]` is
/// `|s[k]|²` of the frame's sample `k`, as the decoder's preamble scan
/// already holds them. Returns `false` (with `out` emptied) if `mags` is
/// too short or `n_bits` too large.
///
/// Three passes, each over the data chips in order: bytes packed from
/// the chip-pair compares without a branch on the data, confidences
/// `|a − b| / (a + b)` with no loop-carried value, and the pulse power
/// `Σ max(a, b)` as one serial sum in bit order (its rounding, and so
/// the reported RSSI, depends on that order).
pub fn demodulate_into(mags: &[f64], n_bits: usize, out: &mut Demodulated) -> bool {
    out.n_bits = 0;
    out.signal_power = 0.0;
    let Some(chips) = mags
        .get(PREAMBLE_CHIPS..PREAMBLE_CHIPS + 2 * n_bits)
        .filter(|_| n_bits <= FRAME_BITS)
    else {
        return false;
    };
    for (byte, pairs) in out.bytes.iter_mut().zip(chips.chunks(16)) {
        *byte = pairs
            .chunks_exact(2)
            .enumerate()
            .fold(0u8, |b, (j, p)| b | u8::from(p[0] > p[1]) << (7 - j));
    }
    for (c, p) in out.confidences.iter_mut().zip(chips.chunks_exact(2)) {
        let total = p[0] + p[1];
        *c = if total > 0.0 {
            (p[0] - p[1]).abs() / total
        } else {
            0.0
        };
    }
    let pulse_power = chips
        .chunks_exact(2)
        .fold(0.0, |acc, p| acc + p[0].max(p[1]));
    out.n_bits = n_bits;
    out.signal_power = pulse_power / n_bits as f64;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SHORT_FRAME_BYTES;
    use proptest::prelude::*;

    /// `|s|²` of every sample, from the dispatched kernel the decoder's
    /// preamble scan uses.
    fn mags_of(samples: &[Cplx]) -> Vec<f64> {
        let mut mags = vec![0.0; samples.len()];
        (aircal_dsp::kernels().norm_sq_map)(samples, &mut mags);
        mags
    }

    /// Demodulate 240 samples (starting at the preamble) as a 112-bit frame.
    fn demodulate(samples: &[Cplx]) -> Option<Demodulated> {
        let mut out = Demodulated::default();
        demodulate_into(&mags_of(samples), 112, &mut out).then_some(out)
    }

    /// What the per-bit demodulator [`demodulate_into`] replaced returned:
    /// bytes, confidences and mean pulse power.
    type OracleDemod = (Vec<u8>, Vec<f64>, f64);

    /// The per-bit demodulator [`demodulate_into`] replaced, which took
    /// samples, ran its own magnitude pass over the data chips and
    /// branched on each bit: the oracle the three-pass form is held to.
    fn demodulate_bits_oracle(samples: &[Cplx], n_bits: usize) -> Option<OracleDemod> {
        if samples.len() < PREAMBLE_CHIPS + 2 * n_bits {
            return None;
        }
        let mut bytes = vec![0u8; n_bits.div_ceil(8)];
        let mut confidences = Vec::new();
        let mut chip_mags = vec![0.0; 2 * n_bits];
        (aircal_dsp::kernels().norm_sq_map)(
            &samples[PREAMBLE_CHIPS..PREAMBLE_CHIPS + 2 * n_bits],
            &mut chip_mags,
        );
        let mut pulse_power = 0.0;
        for bit_idx in 0..n_bits {
            let first = chip_mags[2 * bit_idx];
            let second = chip_mags[2 * bit_idx + 1];
            let bit = first > second;
            if bit {
                bytes[bit_idx / 8] |= 1 << (7 - bit_idx % 8);
            }
            let total = first + second;
            confidences.push(if total > 0.0 {
                (first - second).abs() / total
            } else {
                0.0
            });
            pulse_power += first.max(second);
        }
        Some((bytes, confidences, pulse_power / n_bits as f64))
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
        assert_eq!(rx.bytes(), frame_bytes());
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

    /// The table-built mask has exactly the chips [`pulse_chips`] lists,
    /// for every byte value at every position of a 7- and a 14-byte frame
    /// (a byte's chips depend on its value and position only).
    #[test]
    fn pulse_chip_words_hold_every_byte_at_every_position() {
        let oracle = |frame: &[u8]| {
            let mut words = [0u64; MAX_CHIP_WORDS];
            for chip in pulse_chips(frame) {
                words[chip / 64] |= 1 << (chip % 64);
            }
            words
        };
        for len in [SHORT_FRAME_BYTES, FRAME_BYTES] {
            for pos in 0..len {
                for byte in 0..=255u8 {
                    let mut frame = vec![0x5A; len];
                    frame[pos] = byte;
                    assert_eq!(
                        pulse_chip_words(&frame),
                        oracle(&frame),
                        "{len} bytes, [{pos}] = {byte:#04x}"
                    );
                }
            }
        }
    }

    #[test]
    fn short_input_returns_none() {
        assert!(demodulate(&[Cplx::ZERO; 239]).is_none());
        let mut out = Demodulated::default();
        assert!(!demodulate_into(&[0.0; 300], 113, &mut out));
        assert!(out.bytes().is_empty() && out.confidences().is_empty());
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
        assert_eq!(rx.bytes(), frame_bytes());
    }

    #[test]
    fn rssi_tracks_amplitude() {
        let strong = demodulate(&modulate(&frame_bytes(), 0.5, 0.0)).unwrap();
        let weak = demodulate(&modulate(&frame_bytes(), 0.05, 0.0)).unwrap();
        assert!((strong.rssi_dbfs() - weak.rssi_dbfs() - 20.0).abs() < 0.1);
    }

    /// A burst with each chip drawn from noise, a pulse, or one of the
    /// values that stress the compares and sums: zero, NaN, ±inf and
    /// 1e200 (whose square overflows), on either quadrature.
    fn stressed_burst(draws: &[u64]) -> Vec<Cplx> {
        let special = [
            Cplx::ZERO,
            Cplx::new(f64::NAN, 0.0),
            Cplx::new(0.0, f64::NAN),
            Cplx::new(f64::INFINITY, 0.0),
            Cplx::new(0.0, f64::NEG_INFINITY),
            Cplx::new(1e200, 0.0),
            Cplx::new(-1e200, 1e200),
        ];
        draws
            .iter()
            .map(|&d| {
                let (re, im) = ((d >> 8) as u32 as f64, (d >> 40) as u16 as f64);
                match d % 16 {
                    k @ 0..=6 => special[k as usize],
                    7..=10 => Cplx::new(re / 4e9, im / 7e4),
                    _ => Cplx::new(re * 1e-12, -im * 1e-5),
                }
            })
            .collect()
    }

    proptest! {
        /// The three-pass demodulator equals the per-bit oracle bit for
        /// bit at every frame length the decoder uses (the 5-bit format
        /// peek, 56 and 112 bits) on bursts mixing zero, NaN, ±inf and
        /// 1e200 chips with noise: bytes, every confidence, the mean pulse
        /// power and the weakest confidence. The 5-compare format peek
        /// equals the oracle's 5-bit demodulation.
        #[test]
        fn demodulation_from_magnitudes_equals_the_per_bit_oracle(
            draws in proptest::collection::vec(any::<u64>(), FRAME_SAMPLES),
        ) {
            let samples = stressed_burst(&draws);
            let mags = mags_of(&samples);
            let mut out = Demodulated::default();
            for n_bits in [5usize, 56, 112] {
                let (bytes, confidences, power) =
                    demodulate_bits_oracle(&samples, n_bits).unwrap();
                prop_assert!(demodulate_into(&mags, n_bits, &mut out));
                prop_assert_eq!(out.bytes(), &bytes[..], "{} bits", n_bits);
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(out.confidences()), bits(&confidences), "{} bits", n_bits);
                prop_assert_eq!(out.signal_power.to_bits(), power.to_bits(), "{} bits", n_bits);
                let min = confidences.iter().cloned().fold(1.0, f64::min);
                prop_assert_eq!(out.min_confidence().to_bits(), min.to_bits());
                if n_bits == 5 {
                    prop_assert_eq!(downlink_format(&mags), bytes[0] >> 3);
                }
            }
        }

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
            prop_assert_eq!(rx.bytes(), &frame[..]);
        }
    }
}
