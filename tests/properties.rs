//! Property tests (vendored `proptest` shim, 256 deterministic cases per
//! suite): invariants the paper's pipeline silently relies on.
//!
//! * CPR airborne encode→decode round-trips to within its quantisation
//!   resolution (~5.1 m) anywhere a global decode is defined;
//! * the Mode S CRC-24 detects every 1- and 2-bit corruption of a
//!   112-bit frame (minimum distance ≥ 6 on the (112, 88) code);
//! * the overlap-save [`FastFirFilter`] is the direct-form [`FirFilter`]
//!   to within 1e-9 for arbitrary taps, inputs, and chunking;
//! * the front end's bulk noise path ([`Frontend::finalize`]) is the
//!   per-sample draw-and-quantize computation bit for bit on every kernel
//!   arm, and the portable Box–Muller sampler stays inside its documented
//!   error bound against libm.

use aircal::adsb::cpr::{self, CprFormat, CprPair};
use aircal::adsb::crc::{apply_parity, crc24, verify_frame};
use aircal::dsp::normal::{self, BOX_MULLER_ERR};
use aircal::dsp::Kernels;
use aircal::dsp::{Cplx, FastFirFilter, FirFilter};
use aircal::geo::LatLon;
use aircal::sdr::{Frontend, FrontendConfig};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The worst-case airborne CPR quantisation error: half a bin of
/// 360° / 2^17 / 15 latitude (~2.5 m) plus the matching longitude bin
/// at the equator, with margin. The paper's audits localise aircraft
/// to tens of metres, so 5.1 m of codec error is in the noise.
const CPR_RESOLUTION_M: f64 = 5.1;

proptest! {
    /// Encode a position as an even/odd pair and globally decode it:
    /// the result is within CPR resolution of the input. Pairs that
    /// straddle an NL zone boundary may legitimately fail to decode
    /// (the two messages disagree on zone count); everything that
    /// decodes must be accurate.
    #[test]
    fn cpr_global_roundtrip_within_resolution(
        lat in -85.0f64..85.0,
        lon in -179.99f64..179.99,
        latest_even in proptest::any::<bool>(),
    ) {
        let pair = CprPair {
            even: cpr::encode(lat, lon, CprFormat::Even),
            odd: cpr::encode(lat, lon, CprFormat::Odd),
            latest: if latest_even { CprFormat::Even } else { CprFormat::Odd },
        };
        if let Ok((dlat, dlon)) = cpr::decode_global(&pair) {
            let truth = LatLon::new(lat, lon, 0.0);
            let decoded = LatLon::new(dlat, dlon, 0.0);
            let err_m = truth.distance_m(&decoded);
            prop_assert!(
                err_m <= CPR_RESOLUTION_M,
                "CPR round-trip error {err_m:.3} m at ({lat}, {lon})"
            );
        }
    }

    /// A locally-anchored decode (reference within one zone) never
    /// fails and has the same resolution bound.
    #[test]
    fn cpr_local_roundtrip_within_resolution(
        lat in -85.0f64..85.0,
        lon in -179.99f64..179.99,
        use_even in proptest::any::<bool>(),
        // Reference offset inside the guaranteed-unambiguous half-zone.
        dlat_deg in -0.2f64..0.2,
        dlon_deg in -0.2f64..0.2,
    ) {
        let format = if use_even { CprFormat::Even } else { CprFormat::Odd };
        let pos = cpr::encode(lat, lon, format);
        let (dlat, dlon) = cpr::decode_local(&pos, lat + dlat_deg, lon + dlon_deg)
            .expect("in-range reference always decodes");
        let err_m = LatLon::new(lat, lon, 0.0).distance_m(&LatLon::new(dlat, dlon, 0.0));
        prop_assert!(
            err_m <= CPR_RESOLUTION_M,
            "CPR local decode error {err_m:.3} m at ({lat}, {lon})"
        );
    }

    /// CRC-24 detects every single-bit flip anywhere in a 112-bit frame.
    #[test]
    fn crc24_detects_all_single_bit_flips(
        payload in proptest::collection::vec(proptest::any::<u8>(), 11),
        flip in 0usize..112,
    ) {
        let mut frame = [0u8; 14];
        frame[..11].copy_from_slice(&payload);
        apply_parity(&mut frame);
        prop_assert!(verify_frame(&frame));

        let mut corrupted = frame;
        corrupted[flip / 8] ^= 0x80 >> (flip % 8);
        prop_assert!(
            !verify_frame(&corrupted),
            "undetected single-bit flip at bit {flip}"
        );
    }

    /// CRC-24 detects every double-bit flip: the (112, 88) Mode S code
    /// has minimum distance ≥ 6, so any 2-bit error pattern changes the
    /// syndrome.
    #[test]
    fn crc24_detects_all_double_bit_flips(
        payload in proptest::collection::vec(proptest::any::<u8>(), 11),
        a in 0usize..112,
        b in 0usize..112,
    ) {
        prop_assume!(a != b);
        let mut frame = [0u8; 14];
        frame[..11].copy_from_slice(&payload);
        apply_parity(&mut frame);

        let mut corrupted = frame;
        corrupted[a / 8] ^= 0x80 >> (a % 8);
        corrupted[b / 8] ^= 0x80 >> (b % 8);
        prop_assert!(
            !verify_frame(&corrupted),
            "undetected double-bit flip at bits {a}, {b}"
        );
    }

    /// The syndrome is linear: flipping data bits changes the CRC by
    /// the XOR of the per-bit contributions, so crc(data) over the
    /// payload region is a group homomorphism. Checked indirectly:
    /// crc(x ^ y ^ x) == crc(y).
    #[test]
    fn crc24_is_involutive_under_double_xor(
        x in proptest::collection::vec(proptest::any::<u8>(), 11),
        y in proptest::collection::vec(proptest::any::<u8>(), 11),
    ) {
        let mixed: Vec<u8> = x.iter().zip(&y).map(|(a, b)| a ^ b).collect();
        let back: Vec<u8> = mixed.iter().zip(&x).map(|(a, b)| a ^ b).collect();
        prop_assert_eq!(crc24(&back), crc24(&y));
    }

    /// Overlap-save FIR ≡ direct FIR for arbitrary complex taps, input,
    /// and chunk boundaries (streaming state must carry across calls).
    #[test]
    fn fast_fir_matches_direct_fir(
        taps in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..96),
        xs in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..512),
        split in 1usize..97,
    ) {
        let taps: Vec<Cplx> = taps.into_iter().map(|(re, im)| Cplx::new(re, im)).collect();
        let xs: Vec<Cplx> = xs.into_iter().map(|(re, im)| Cplx::new(re, im)).collect();
        let mut direct = FirFilter::new(taps.clone()).unwrap();
        let mut fast = FastFirFilter::new(taps).unwrap();

        // Direct filter in one shot; fast filter in two chunks split at
        // an arbitrary point — outputs must still agree sample-for-sample.
        let want = direct.process(&xs);
        let cut = split.min(xs.len());
        let mut got = fast.process(&xs[..cut]);
        got.extend(fast.process(&xs[cut..]));

        prop_assert_eq!(want.len(), got.len());
        let scale = 1.0 + xs.iter().map(|x| x.abs()).fold(0.0, f64::max);
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            let err = (*w - *g).abs();
            prop_assert!(
                err <= 1e-9 * scale,
                "FIR divergence {err:.3e} at sample {i}"
            );
        }
    }
}

/// Collision census for [`aircal::dsp::derive_stream_seed`] at fleet
/// scale: the audit loop hands node `i` the seed
/// `base + i * 0x9E37_79B9`, each measurement family salts it
/// (`^ 0xFADE` survey, `^ 0xCE11` cells, `^ 0x7E1E` TV), and the
/// parallel pipelines then derive one stream per burst index. If any
/// two (node, family, burst) streams collided, two "independent"
/// measurements would share every random draw — a correlation the
/// trust machinery could never see. This walks a 10 000-node fleet
/// (the Electrosense regime) across all three families and 8 burst
/// indices and demands every derived stream be unique.
///
/// The derivation survives this census by construction: SplitMix64's
/// finalizer is bijective, so a collision requires two *inputs*
/// `salted_seed + K * (index + 1)` to coincide mod 2^64 — and for
/// audit-seed spacing (multiples of 0x9E37_79B9) with burst indices
/// below 8, the golden-ratio increments never land that close. This
/// test is the regression guard for anyone changing the derivation.
#[test]
fn derive_stream_seed_has_no_cross_node_collisions_at_10k_scale() {
    use aircal::dsp::derive_stream_seed;
    use std::collections::HashSet;

    const NODES: u64 = 10_000;
    const BURSTS: u64 = 8;
    const FAMILY_SALTS: [u64; 3] = [0xFADE, 0xCE11, 0x7E1E];
    // A handful of realistic campaign base seeds, including adversarial
    // edges (0, all-ones, the golden ratio itself).
    const BASE_SEEDS: [u64; 4] = [600, 0, u64::MAX, 0x9E37_79B9_7F4A_7C15];

    for base in BASE_SEEDS {
        let mut seen: HashSet<u64> =
            HashSet::with_capacity((NODES * BURSTS * FAMILY_SALTS.len() as u64) as usize);
        for node in 0..NODES {
            let audit_seed = base.wrapping_add(node * 0x9E37_79B9);
            for salt in FAMILY_SALTS {
                for burst in 0..BURSTS {
                    let stream = derive_stream_seed(audit_seed ^ salt, burst);
                    assert!(
                        seen.insert(stream),
                        "stream collision: base={base:#x} node={node} salt={salt:#x} burst={burst}"
                    );
                }
            }
        }
        assert_eq!(seen.len() as u64, NODES * BURSTS * 3);
    }
}

/// The per-sample front-end noise path: two `gen_range` words per sample
/// through the portable sampler, DC offset on I, and the clipping ADC
/// quantizer with `f64::round`. The oracle for [`Frontend::finalize`].
fn oracle_finalize(fe: &Frontend, buf: &mut [Cplx], rng: &mut ChaCha8Rng) {
    let sigma = fe.noise_sigma_fs();
    let levels = (1u64 << fe.config.adc_bits) as f64 / 2.0;
    let q = |v: f64| (v.clamp(-1.0, 1.0) * levels).round() / levels;
    for x in buf.iter_mut() {
        x.re += fe.config.dc_offset;
        *x += normal::draw(rng, sigma);
        *x = Cplx::new(q(x.re), q(x.im));
    }
}

/// [`Frontend::finalize`] equals the per-sample oracle bit for bit, on
/// the dispatched arm and on every kernel arm the host supports (each
/// arm's words, whole and partial ChaCha8 steps alike) — every output component
/// and the generator's state afterwards — over 3000 randomized buffers:
/// lengths around the 64-sample chunk edges and past 4096, 8/12/14-bit
/// ADCs, DC offsets, noise figures 0.5–50 dB, amplitudes from silence to
/// far past clipping, samples on half-step boundaries (with noise far
/// below an ADC step, and with noise below half an ulp, so ties reach the
/// quantizer), NaN/±inf/−0.0 entries, and generators entered at odd word
/// offsets.
#[test]
fn finalize_is_bit_identical_to_per_sample_oracle() {
    const EDGE_LENGTHS: [usize; 6] = [0, 1, 63, 64, 65, 4097];
    let mut gen = ChaCha8Rng::seed_from_u64(0xF14A_112E);
    let mut mismatches = 0usize;
    for case in 0..3000 {
        let mut cfg = FrontendConfig::bladerf_xa9(1.09e9, 2e6);
        cfg.adc_bits = [8, 12, 14][case % 3];
        cfg.noise_figure_db = gen.gen_range(0.5..50.0);
        cfg.dc_offset = match case % 4 {
            0 => 0.0,
            1 => gen.gen_range(-0.05..0.05),
            2 => 1.0 / 4096.0,
            _ => -3.0 / 8192.0,
        };
        // A front end so quiet that noise is ~1e-9 ADC steps, or (every
        // other such case) below half an ulp of the signal, fed samples on
        // half-step boundaries: the quantizer sees near-ties and ties.
        let on_boundaries = case % 11 == 0;
        if on_boundaries {
            cfg.full_scale_dbm = if case % 22 == 0 { 130.0 } else { 330.0 };
        }
        let fe = Frontend::new(cfg);
        let levels = (1u64 << cfg.adc_bits) as f64 / 2.0;
        let len = if case < 60 {
            EDGE_LENGTHS[case % EDGE_LENGTHS.len()]
        } else {
            gen.gen_range(0usize..300)
        };
        // Signal amplitude: silence, the noise floor, strong, clipping.
        let amp = match case % 5 {
            0 => 0.0,
            1 => 10f64.powf(gen.gen_range(-6.0..-3.0)),
            2 => 10f64.powf(gen.gen_range(-3.0..-0.5)),
            3 => 10f64.powf(gen.gen_range(-0.5..0.5)),
            _ => 10f64.powf(gen.gen_range(0.5..12.0)),
        };
        let mut buf: Vec<Cplx> = (0..len)
            .map(|_| Cplx::phasor(gen.gen_range(0.0..6.3)).scale(amp * gen.gen_range(0.0..1.0)))
            .collect();
        if on_boundaries {
            let half_step = |v: f64| ((v * levels).floor() + 0.5) / levels;
            for x in &mut buf {
                *x = Cplx::new(half_step(x.re) - cfg.dc_offset, half_step(x.im));
            }
        }
        if len > 0 && case % 7 == 0 {
            for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
                let i = gen.gen_range(0..len);
                if gen.gen_bool(0.5) {
                    buf[i].re = special;
                } else {
                    buf[i].im = special;
                }
            }
        }
        let mut rng_ref = ChaCha8Rng::seed_from_u64(gen.next_u64());
        for _ in 0..gen.gen_range(0..41) {
            rng_ref.next_u32();
        }
        let mut runs = Vec::new();
        let (mut out, mut rng) = (buf.clone(), rng_ref.clone());
        fe.finalize(&mut out, &mut rng);
        runs.push(("dispatched", out, rng));
        for arm in Kernels::supported() {
            let (mut out, mut rng) = (buf.clone(), rng_ref.clone());
            fe.finalize_with(arm, &mut out, &mut rng);
            runs.push((arm.label, out, rng));
        }
        oracle_finalize(&fe, &mut buf, &mut rng_ref);
        let bits = |z: &Cplx| (z.re.to_bits(), z.im.to_bits());
        for (label, out, mut rng) in runs {
            for (i, (o, r)) in out.iter().zip(&buf).enumerate() {
                if bits(o) != bits(r) {
                    mismatches += 1;
                    eprintln!("case {case} sample {i}: {label} {o:?}, oracle {r:?}");
                }
            }
            assert_eq!(
                rng, rng_ref,
                "case {case}: {label} generator state diverged"
            );
            assert_eq!(rng.next_u64(), rng_ref.clone().next_u64());
        }
    }
    assert_eq!(
        mismatches, 0,
        "samples differing from the per-sample oracle"
    );
}

/// The portable Box–Muller stays within [`BOX_MULLER_ERR`]·σ of libm's
/// per component over 10⁶ random draws and the edge points: `u1 = ε`,
/// `u1 → 1⁻`, the exponent-split seams, and `u2` on and beside every
/// quadrant and octant boundary.
#[test]
fn fast_box_muller_within_documented_bound() {
    let err = |u1: f64, u2: f64| {
        let f = normal::box_muller(u1, u2, 1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (core::f64::consts::TAU * u2).sin_cos();
        (f.re - r * c).abs().max((f.im - r * s).abs())
    };
    let mut worst = 0.0f64;
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0C5);
    for _ in 0..1_000_000 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        worst = worst.max(err(u1, u2));
    }
    let mut u1s = vec![
        f64::EPSILON,
        f64::EPSILON.next_up(),
        1.0f64.next_down(),
        0.5,
    ];
    for seam in [
        core::f64::consts::FRAC_1_SQRT_2,
        0.25 * core::f64::consts::SQRT_2,
    ] {
        u1s.extend([seam.next_down(), seam, seam.next_up()]);
    }
    let mut u2s = vec![0.0, 1.0f64.next_down()];
    for k in 1..8 {
        let b = k as f64 / 8.0;
        u2s.extend([b.next_down(), b, b.next_up()]);
    }
    for &u1 in &u1s {
        for &u2 in &u2s {
            worst = worst.max(err(u1, u2));
        }
    }
    eprintln!("portable Box–Muller worst |error|/σ = {worst:.3e}");
    assert!(
        worst <= BOX_MULLER_ERR,
        "worst error {worst:e} exceeds {BOX_MULLER_ERR:e}"
    );
}
