//! Bit-level equivalence proofs for the SIMD dispatch arms.
//!
//! Every kernel in `aircal_dsp::simd` — scalar fallback included —
//! computes in the same fixed 8-lane chunked order with the same pairwise
//! reduction tree, so the runtime-detected vector arm must return
//! **bit-identical** results to the scalar arm on every input: any
//! length (including non-multiple-of-8 tails), any slice offset
//! (unaligned starts), and non-finite values (canonical NaN, ±inf, −0.0).
//!
//! The suite compares [`Kernels::scalar`] against every arm in
//! [`Kernels::supported`] directly — on an AVX-512 host that is the
//! AVX2 and AVX-512 arms, so the AVX2 arm stays proven where the
//! dispatcher passes it over — and it proves the same property on the
//! `AIRCAL_FORCE_SCALAR=1` CI leg as on the native one: `supported()`
//! ignores the env override.
//!
//! Special values: the suite injects canonical NaN, ±inf, and −0.0 and
//! requires results to match bitwise **up to the sign of NaN outputs** —
//! finite values, infinities, and signed zeros must match exactly. The
//! sign carve-out is forced, not chosen: when two NaNs meet at one
//! reduction node (an injected canonical `0x7FF8…` against the `0xFFF8…`
//! indefinite that `inf − inf` creates, or a canonical NaN that a
//! conjugation sign-flipped), x86 keeps the *first operand's* NaN, and
//! LLVM is free to commute a `fadd`/`fmul` — so that one bit cannot be
//! pinned by any implementation, including two builds of the scalar arm
//! alone. Every NaN producible here carries the canonical mantissa, so
//! masking the sign bit is exact, not a tolerance.
//!
//! `noise_quantize` is held to the stricter contract: exact bits, NaN
//! sign included. Its only NaN operands come from the input sample, one
//! per operation, so no operand order can pick a different NaN.

use aircal_dsp::simd::{AdcNoise, Kernels, LaneSum};
use aircal_dsp::{fft_in_place, kernels, normal, Cplx, Direction, FftPlanner};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The scalar reference and every arm the host supports (scalar
/// included, so the list is never empty), each to be held to it.
fn arms() -> (&'static Kernels, Vec<&'static Kernels>) {
    (Kernels::scalar(), Kernels::supported())
}

fn cplx_vec(pairs: &[(f64, f64)]) -> Vec<Cplx> {
    pairs.iter().map(|&(re, im)| Cplx::new(re, im)).collect()
}

fn assert_same_bits(label: &str, a: f64, b: f64) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{label}: scalar {a:?} vs arm {b:?}"
    );
}

/// Both transforms equal up to the sign of NaN outputs.
fn assert_same_spectrum(label: &str, want: &[Cplx], got: &[Cplx]) {
    assert_eq!(want.len(), got.len(), "{label}: length");
    for (i, (a, b)) in want.iter().zip(got).enumerate() {
        assert!(
            nan_sign_masked(a.re) == nan_sign_masked(b.re)
                && nan_sign_masked(a.im) == nan_sign_masked(b.im),
            "{label}: bin {i}: {a:?} vs {b:?}"
        );
    }
}

/// The non-finite / signed-zero specials the reduction contract covers.
fn special(sel: u8) -> f64 {
    match sel % 4 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => -0.0,
    }
}

/// The value's bits with the sign masked off NaNs (and only NaNs): the
/// one bit NaN-vs-NaN operand selection leaves to the compiler. See the
/// module docs for why this is exact for every NaN these kernels can
/// produce.
fn nan_sign_masked(v: f64) -> u64 {
    if v.is_nan() {
        v.to_bits() & !(1u64 << 63)
    } else {
        v.to_bits()
    }
}

/// Every remainder class mod 8 (and then some), both arms, all kernels:
/// the deterministic sweep that catches a broken tail path immediately,
/// without waiting on proptest's random lengths.
#[test]
fn all_tail_remainders_bitwise_identical() {
    let (s, arms) = arms();
    for d in arms {
        let xs: Vec<f64> = (0..130).map(|i| (0.7 * i as f64).sin() * 1e3).collect();
        let za: Vec<Cplx> = (0..130).map(|i| Cplx::phasor(0.37 * i as f64)).collect();
        let zb: Vec<Cplx> = (0..130)
            .map(|i| Cplx::phasor(0.11 * i as f64 + 0.5))
            .collect();
        let taps: Vec<f64> = (0..130)
            .map(|i| 0.5 - 0.5 * (0.05 * i as f64).cos())
            .collect();
        for n in 0..=xs.len() {
            assert_same_bits(
                &format!("{} sum_f64", d.label),
                (s.sum_f64)(&xs[..n]),
                (d.sum_f64)(&xs[..n]),
            );
            assert_same_bits(
                &format!("{} sum_sq_f64", d.label),
                (s.sum_sq_f64)(&xs[..n]),
                (d.sum_sq_f64)(&xs[..n]),
            );
            assert_same_bits(
                &format!("{} energy", d.label),
                (s.energy)(&za[..n]),
                (d.energy)(&za[..n]),
            );
            let (cs, cd) = ((s.cdot)(&za[..n], &zb[..n]), (d.cdot)(&za[..n], &zb[..n]));
            assert_same_bits(&format!("{} cdot.re", d.label), cs.re, cd.re);
            assert_same_bits(&format!("{} cdot.im", d.label), cs.im, cd.im);
            let (cs, cd) = (
                (s.cdot_conj)(&za[..n], &zb[..n]),
                (d.cdot_conj)(&za[..n], &zb[..n]),
            );
            assert_same_bits(&format!("{} cdot_conj.re", d.label), cs.re, cd.re);
            assert_same_bits(&format!("{} cdot_conj.im", d.label), cs.im, cd.im);

            let (mut ms, mut md) = (vec![0.0; n], vec![0.0; n]);
            (s.norm_sq_map)(&za[..n], &mut ms);
            (d.norm_sq_map)(&za[..n], &mut md);
            for (a, b) in ms.iter().zip(&md) {
                assert_same_bits(&format!("{} norm_sq_map", d.label), *a, *b);
            }
            (s.norm_sq_accum)(&zb[..n], &mut ms);
            (d.norm_sq_accum)(&zb[..n], &mut md);
            for (a, b) in ms.iter().zip(&md) {
                assert_same_bits(&format!("{} norm_sq_accum", d.label), *a, *b);
            }

            let (mut ws, mut wd) = (za[..n].to_vec(), za[..n].to_vec());
            (s.cmul_assign)(&mut ws, &zb[..n]);
            (d.cmul_assign)(&mut wd, &zb[..n]);
            for (a, b) in ws.iter().zip(&wd) {
                assert_same_bits(&format!("{} cmul_assign.re", d.label), a.re, b.re);
                assert_same_bits(&format!("{} cmul_assign.im", d.label), a.im, b.im);
            }
            (s.scale_map)(&za[..n], &taps[..n], &mut ws);
            (d.scale_map)(&za[..n], &taps[..n], &mut wd);
            for (a, b) in ws.iter().zip(&wd) {
                assert_same_bits(&format!("{} scale_map.re", d.label), a.re, b.re);
                assert_same_bits(&format!("{} scale_map.im", d.label), a.im, b.im);
            }
        }
    }
}

fn lane_sum(xs: &[f64]) -> f64 {
    let mut acc = LaneSum::default();
    for &x in xs {
        acc.push(x);
    }
    acc.sum()
}

/// The streaming lane accumulator equals the `sum_f64` kernel of the
/// process's dispatch arm and of both arms in-process, bit for bit, at
/// every length 0..=4096 — so a buffered sum can become a streamed one
/// under the `AIRCAL_FORCE_SCALAR=1` leg and the native leg alike.
#[test]
fn lane_sum_matches_sum_f64_at_every_length() {
    let xs: Vec<f64> = (0..4096).map(|i| (0.7 * i as f64).sin() * 1e3).collect();
    for n in 0..=xs.len() {
        let got = lane_sum(&xs[..n]);
        assert_same_bits("lane_sum vs kernels()", (kernels().sum_f64)(&xs[..n]), got);
        for d in Kernels::supported() {
            let label = format!("lane_sum vs {}", d.label);
            assert_same_bits(&label, (d.sum_f64)(&xs[..n]), got);
        }
    }
}

/// Samples per block in the noise tests: the front end's chunk size.
const BLOCK: usize = 64;

/// One block's generator words, two per sample, as the front end
/// draws them.
fn words(rng: &mut ChaCha8Rng) -> [u64; 2 * BLOCK] {
    core::array::from_fn(|_| rng.next_u64())
}

/// The extreme words 0 and 2¹¹ − 1 (the low end of both ranges:
/// `u1 = ε`, the largest radius, and `u2 = 0`), 2¹¹ (one step up),
/// 2⁶³ − 1 and 2⁶³ (either side of the top bit of `w >> 11`, where a
/// two-half conversion carries) and `u64::MAX` (the top of both ranges),
/// in every pairing, then random words.
fn extreme_words() -> Vec<u64> {
    let extremes = [0, (1 << 11) - 1, 1 << 11, (1 << 63) - 1, 1 << 63, u64::MAX];
    let mut rng = ChaCha8Rng::seed_from_u64(0x0DD5);
    let mut pairs: Vec<[u64; 2]> = extremes
        .iter()
        .flat_map(|&w1| extremes.iter().map(move |&w2| [w1, w2]))
        .collect();
    pairs.resize_with(BLOCK, || [rng.next_u64(), rng.next_u64()]);
    pairs.concat()
}

/// The Box–Muller uniforms of a sample's two words, as `gen_range`
/// draws them.
fn uniforms(w: &[u64]) -> (f64, f64) {
    (
        rand::uniform_f64(w[0], f64::EPSILON, 1.0),
        rand::uniform_f64(w[1], 0.0, 1.0),
    )
}

/// The per-sample reference of `noise_quantize`: the uniforms, the
/// portable sampler, the DC offset on I, and the ADC quantizer with
/// `f64::round`.
fn oracle_sample(w: &[u64], (sigma, dc, levels): (f64, f64, f64), x: Cplx) -> Cplx {
    let (u1, u2) = uniforms(w);
    let n = normal::box_muller(u1, u2, sigma);
    let q = |v: f64| (v.clamp(-1.0, 1.0) * levels).round() / levels;
    Cplx::new(q((x.re + dc) + n.re), q(x.im + n.im))
}

/// `noise_quantize` on arm `k` over a copy of `input`.
fn noise_quantized(
    k: &Kernels,
    w: &[u64],
    (sigma, dc, levels): (f64, f64, f64),
    input: &[Cplx],
) -> Vec<Cplx> {
    let mut block = input.to_vec();
    (k.noise_quantize)(w, &AdcNoise::new(sigma, dc, levels), &mut block);
    block
}

fn assert_same_samples(label: &str, a: &[Cplx], b: &[Cplx]) {
    assert_eq!(a.len(), b.len(), "{label}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_same_bits(&format!("{label}[{i}].re"), x.re, y.re);
        assert_same_bits(&format!("{label}[{i}].im"), x.im, y.im);
    }
}

/// Every block length 0..=64 (all tails of the 8- and 4-wide arms), with NaN,
/// ±inf and −0.0 entries, clipping amplitudes and three ADC widths: the
/// samples of both arms and of the dispatched arm are the per-sample
/// reference's bit for bit, NaN included (a NaN output carries its
/// input's NaN, the only NaN operand on its path).
#[test]
fn noise_quantize_final_samples_match_across_arms() {
    let (_, arms) = arms();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    for n in 0..=BLOCK {
        for (t, &p) in [
            (1.4e-4, 0.0, 2048.0),
            (3e-2, 1e-3, 128.0),
            (1e-6, -2e-4, 8192.0),
        ]
        .iter()
        .enumerate()
        {
            let w = words(&mut rng);
            let input: Vec<Cplx> = (0..n)
                .map(|i| match (i + t) % 9 {
                    0 => Cplx::new(f64::NAN, 0.1),
                    1 => Cplx::new(0.2, f64::INFINITY),
                    2 => Cplx::new(f64::NEG_INFINITY, -0.0),
                    3 => Cplx::new(-0.0, -0.0),
                    4 => Cplx::phasor(i as f64).scale(3.0),
                    5 => Cplx::new(-f64::NAN, f64::NAN),
                    _ => Cplx::phasor(0.7 * i as f64).scale(1e-3 * i as f64),
                })
                .collect();
            let want: Vec<Cplx> = (0..n)
                .map(|i| oracle_sample(&w[2 * i..], p, input[i]))
                .collect();
            for k in arms.iter().chain([&kernels()]) {
                let got = noise_quantized(k, &w, p, &input);
                assert_same_samples(&format!("{} vs reference", k.label), &got, &want);
            }
        }
    }
}

/// The Gaussians themselves agree across arms, bit for bit: through an
/// ADC of 2¹⁰⁰⁰ levels, on a zero input, every draw (`|n| < 1` at
/// σ = 1/16) is a whole number of steps, so the kernel returns the raw
/// [`normal::box_muller`] draw. Random and extreme words, every block
/// length.
#[test]
fn noise_quantize_gaussians_match_across_arms() {
    let (_, arms) = arms();
    let p = (1.0 / 16.0, 0.0, 2f64.powi(1000));
    let mut rng = ChaCha8Rng::seed_from_u64(0x6A55);
    let mut blocks: Vec<Vec<u64>> = (0..200).map(|_| words(&mut rng).to_vec()).collect();
    blocks.push(extreme_words());
    for (b, w) in blocks.iter().enumerate() {
        let n = if b < BLOCK { b + 1 } else { BLOCK };
        let input = vec![Cplx::ZERO; n];
        let want: Vec<Cplx> = (0..n)
            .map(|i| {
                let (u1, u2) = uniforms(&w[2 * i..]);
                normal::box_muller(u1, u2, p.0)
            })
            .map(|g| Cplx::new(0.0 + g.re, 0.0 + g.im))
            .collect();
        for k in arms.iter().chain([&kernels()]) {
            let got = noise_quantized(k, w, p, &input);
            assert_same_samples(&format!("{} Gaussians", k.label), &got, &want);
        }
    }
}

/// With no noise, a value on a half step rounds away from zero, as
/// `f64::round` does, on every arm, and signed zeros come out as the
/// per-sample reference has them: ties reach the quantizer now that no
/// guard screens them out.
#[test]
fn noise_quantize_rounds_ties_away_from_zero() {
    let (_, arms) = arms();
    let levels = 2048.0;
    let p = (0.0, 0.0, levels);
    let steps = [0.5, -0.5, 1.5, -2.5, 300.5, -1023.5, 2047.5];
    let input: Vec<Cplx> = steps
        .iter()
        .map(|&k| Cplx::new(k / levels, -k / levels))
        .chain([Cplx::new(0.0, -0.0), Cplx::new(-0.0, 0.0)])
        .collect();
    let w = words(&mut ChaCha8Rng::seed_from_u64(0x71E5));
    let rounded: Vec<Cplx> = steps
        .iter()
        .map(|&k: &f64| Cplx::new(k.round() / levels, (-k).round() / levels))
        .collect();
    assert_eq!(rounded[0], Cplx::new(1.0 / levels, -1.0 / levels));
    let want: Vec<Cplx> = (0..input.len())
        .map(|i| oracle_sample(&w[2 * i..], p, input[i]))
        .collect();
    assert_same_samples("reference ties", &want[..steps.len()], &rounded);
    for k in arms.iter().chain([&kernels()]) {
        let got = noise_quantized(k, &w, p, &input);
        assert_same_samples(&format!("{} ties", k.label), &got, &want);
    }
}

/// The extreme words reach every arm's samples as the per-sample
/// reference computes them, at noise levels where the draws move the
/// quantized output.
#[test]
fn noise_quantize_arms_agree_at_the_extreme_draws() {
    let (_, arms) = arms();
    let w = extreme_words();
    let input: Vec<Cplx> = (0..BLOCK)
        .map(|i| Cplx::phasor(0.7 * i as f64).scale(1e-3 * i as f64))
        .collect();
    for &p in &[
        (1.4e-4, 0.0, 2048.0),
        (3e-2, 1e-3, 128.0),
        (0.1, 0.0, 8192.0),
    ] {
        let want: Vec<Cplx> = (0..BLOCK)
            .map(|i| oracle_sample(&w[2 * i..], p, input[i]))
            .collect();
        for k in arms.iter().chain([&kernels()]) {
            let got = noise_quantized(k, &w, p, &input);
            assert_same_samples(&format!("{} vs reference", k.label), &got, &want);
        }
    }
}

proptest! {
    /// Random words, noise levels, DC offsets, ADC widths and inputs
    /// with injected NaN / ±inf / −0.0: every arm's samples agree with
    /// the scalar arm's bit for bit.
    #[test]
    fn noise_quantize_arms_agree(
        seed in proptest::any::<u64>(),
        xs in proptest::collection::vec((-1.5f64..1.5, -1.5f64..1.5), 0..=64),
        inject in proptest::collection::vec((0usize..64, 0u8..4, 0u8..2), 0..=4),
        log_sigma in -7.0f64..-0.5,
        dc in -0.01f64..0.01,
        bits in 8u32..15,
    ) {
        let (s, arms) = arms();
        for d in arms {
            let mut input = cplx_vec(&xs);
            for &(pos, sel, part) in &inject {
                if let Some(x) = input.get_mut(pos) {
                    if part == 0 { x.re = special(sel) } else { x.im = special(sel) }
                }
            }
            let w = words(&mut ChaCha8Rng::seed_from_u64(seed));
            let p = (10f64.powf(log_sigma), dc, (1u64 << bits) as f64 / 2.0);
            let ss = noise_quantized(s, &w, p, &input);
            let sd = noise_quantized(d, &w, p, &input);
            prop_assert!(ss.iter().zip(&sd).all(|(x, y)|
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()), "{}", d.label);
        }
    }

    /// The lane accumulator agrees with `sum_f64` (up to NaN sign, as for
    /// every reduction here) with canonical NaN / ±inf / −0.0 injected at
    /// random positions of random-length inputs.
    #[test]
    fn lane_sum_special_values_bitwise(
        values in proptest::collection::vec(-1e6f64..1e6, 0..=4096),
        inject in proptest::collection::vec((0usize..4096, 0u8..4), 0..=8),
    ) {
        let (s, arms) = arms();
        for d in arms {
            let mut xs = values.clone();
            let n = xs.len();
            if n > 0 {
                for &(pos, sel) in &inject {
                    xs[pos % n] = special(sel);
                }
            }
            let got = nan_sign_masked(lane_sum(&xs));
            prop_assert_eq!(nan_sign_masked((kernels().sum_f64)(&xs)), got);
            prop_assert_eq!(nan_sign_masked((s.sum_f64)(&xs)), got);
            prop_assert_eq!(nan_sign_masked((d.sum_f64)(&xs)), got);
        }
    }

    /// Real reductions agree bitwise over random lengths 0..4096 and
    /// random (unaligned) slice starts.
    #[test]
    fn real_reductions_bitwise(
        values in proptest::collection::vec(-1e6f64..1e6, 0..=4096),
        offset in 0usize..16,
    ) {
        let (s, arms) = arms();
        for d in arms {
            let xs = &values[offset.min(values.len())..];
            prop_assert_eq!((s.sum_f64)(xs).to_bits(), (d.sum_f64)(xs).to_bits());
            prop_assert_eq!((s.sum_sq_f64)(xs).to_bits(), (d.sum_sq_f64)(xs).to_bits());
        }
    }

    /// Complex reductions (burst energy, FIR dot, correlation dot) agree
    /// bitwise, including when the two operand slices have different
    /// lengths (kernels truncate to the shorter).
    #[test]
    fn complex_reductions_bitwise(
        a in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 0..=1024),
        b in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 0..=1024),
        offset in 0usize..16,
    ) {
        let (s, arms) = arms();
        for d in arms {
            let za = cplx_vec(&a);
            let zb = cplx_vec(&b);
            let za = &za[offset.min(za.len())..];
            prop_assert_eq!((s.energy)(za).to_bits(), (d.energy)(za).to_bits());
            let (cs, cd) = ((s.cdot)(za, &zb), (d.cdot)(za, &zb));
            prop_assert_eq!(cs.re.to_bits(), cd.re.to_bits());
            prop_assert_eq!(cs.im.to_bits(), cd.im.to_bits());
            let (cs, cd) = ((s.cdot_conj)(za, &zb), (d.cdot_conj)(za, &zb));
            prop_assert_eq!(cs.re.to_bits(), cd.re.to_bits());
            prop_assert_eq!(cs.im.to_bits(), cd.im.to_bits());
        }
    }

    /// Elementwise kernels (|z|² map/accumulate, spectral multiply,
    /// window application) agree bitwise at every output index.
    #[test]
    fn elementwise_kernels_bitwise(
        a in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 0..=1024),
        b in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 0..=1024),
        taps in proptest::collection::vec(-2.0f64..2.0, 0..=1024),
    ) {
        let (s, arms) = arms();
        for d in arms {
            let za = cplx_vec(&a);
            let zb = cplx_vec(&b);
            let n = za.len();

            let (mut ms, mut md) = (vec![0.1f64; n], vec![0.1f64; n]);
            (s.norm_sq_map)(&za, &mut ms);
            (d.norm_sq_map)(&za, &mut md);
            prop_assert!(ms.iter().zip(&md).all(|(x, y)| x.to_bits() == y.to_bits()));
            (s.norm_sq_accum)(&zb, &mut ms);
            (d.norm_sq_accum)(&zb, &mut md);
            prop_assert!(ms.iter().zip(&md).all(|(x, y)| x.to_bits() == y.to_bits()));

            let (mut ws, mut wd) = (za.clone(), za.clone());
            (s.cmul_assign)(&mut ws, &zb);
            (d.cmul_assign)(&mut wd, &zb);
            prop_assert!(ws.iter().zip(&wd).all(|(x, y)|
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()));

            let (mut vs, mut vd) = (vec![Cplx::ZERO; n], vec![Cplx::ZERO; n]);
            (s.scale_map)(&za, &taps, &mut vs);
            (d.scale_map)(&za, &taps, &mut vd);
            let m = n.min(taps.len());
            prop_assert!(vs[..m].iter().zip(&vd[..m]).all(|(x, y)|
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()));
        }
    }

    /// Canonical NaN / ±inf / −0.0 injected at random positions propagate
    /// identically (up to NaN sign) through both arms of the real
    /// reductions.
    #[test]
    fn real_special_values_bitwise(
        values in proptest::collection::vec(-1e3f64..1e3, 1..=512),
        inject in proptest::collection::vec((0usize..512, 0u8..4), 1..=8),
        offset in 0usize..16,
    ) {
        let (s, arms) = arms();
        for d in arms {
            let mut xs = values.clone();
            let n = xs.len();
            for &(pos, sel) in &inject {
                xs[pos % n] = special(sel);
            }
            let xs = &xs[offset.min(n)..];
            prop_assert_eq!(nan_sign_masked((s.sum_f64)(xs)), nan_sign_masked((d.sum_f64)(xs)));
            prop_assert_eq!(nan_sign_masked((s.sum_sq_f64)(xs)), nan_sign_masked((d.sum_sq_f64)(xs)));
        }
    }

    /// Canonical NaN / ±inf / −0.0 in either complex operand propagate
    /// identically (up to NaN sign) through energy, both dot kernels, and
    /// the elementwise multiply — the paths a corrupted capture buffer
    /// would exercise.
    #[test]
    fn complex_special_values_bitwise(
        a in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..=256),
        b in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 1..=256),
        inject in proptest::collection::vec((0usize..256, 0u8..4, 0u8..2), 1..=8),
    ) {
        let (s, arms) = arms();
        for d in arms {
            let mut za = cplx_vec(&a);
            let mut zb = cplx_vec(&b);
            for &(pos, sel, part) in &inject {
                let v = special(sel);
                let i = pos % za.len();
                if part == 0 { za[i].re = v } else { za[i].im = v }
                let j = pos % zb.len();
                if part == 0 { zb[j].im = v } else { zb[j].re = v }
            }
            prop_assert_eq!(nan_sign_masked((s.energy)(&za)), nan_sign_masked((d.energy)(&za)));
            let (cs, cd) = ((s.cdot)(&za, &zb), (d.cdot)(&za, &zb));
            prop_assert_eq!(nan_sign_masked(cs.re), nan_sign_masked(cd.re));
            prop_assert_eq!(nan_sign_masked(cs.im), nan_sign_masked(cd.im));
            let (cs, cd) = ((s.cdot_conj)(&za, &zb), (d.cdot_conj)(&za, &zb));
            prop_assert_eq!(nan_sign_masked(cs.re), nan_sign_masked(cd.re));
            prop_assert_eq!(nan_sign_masked(cs.im), nan_sign_masked(cd.im));

            let (mut ws, mut wd) = (za.clone(), za.clone());
            (s.cmul_assign)(&mut ws, &zb);
            (d.cmul_assign)(&mut wd, &zb);
            prop_assert!(ws.iter().zip(&wd).all(|(x, y)|
                nan_sign_masked(x.re) == nan_sign_masked(y.re)
                    && nan_sign_masked(x.im) == nan_sign_masked(y.im)));
        }
    }
}

/// The inputs an FFT check draws from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FftInput {
    /// Uniform values with subnormals and ±0 sprinkled in.
    Plain,
    /// `Plain` plus NaN and ±inf (which spread to most bins).
    Specials,
    /// Mostly ±0 with a few ±1 and subnormals: the signs of zero decide
    /// the output bits, so a skipped `·(1 + 0i)` shows.
    Zeros,
}

/// A transform input of length `n` of the given kind.
fn fft_input(n: usize, rng: &mut ChaCha8Rng, kind: FftInput) -> Vec<Cplx> {
    let part = |rng: &mut ChaCha8Rng| match (kind, rng.gen_range(0u32..40)) {
        (FftInput::Zeros, 0..=3) => [1.0, -1.0, f64::MIN_POSITIVE / 8.0][rng.gen_range(0..3)],
        (FftInput::Zeros, k) => [0.0, -0.0][k as usize % 2],
        (_, 0) => f64::MIN_POSITIVE * rng.gen_range(-1.0..1.0),
        (_, 1) => 0.0,
        (_, 2) => -0.0,
        (FftInput::Specials, 3) => special(rng.gen_range(0u8..3)),
        _ => rng.gen_range(-1e3..1e3),
    };
    (0..n).map(|_| Cplx::new(part(rng), part(rng))).collect()
}

/// The planner's stage tables for length `n`, built as `FftPlanner` does.
fn twiddles(n: usize, dir: Direction) -> Vec<Cplx> {
    let sign = if dir == Direction::Forward { -1.0 } else { 1.0 };
    let mut table = Vec::new();
    let mut len = 2;
    while len <= n {
        let wlen = Cplx::phasor(sign * core::f64::consts::TAU / len as f64);
        let mut w = Cplx::ONE;
        for _ in 0..len / 2 {
            table.push(w);
            w *= wlen;
        }
        len <<= 1;
    }
    table
}

/// Every power-of-two length 1..=8192, both directions, plain,
/// special-laden and zero-heavy inputs: the planner on the scalar arm,
/// the detected arm and the process's dispatched arm equals
/// `fft_in_place` (the scalar reference oracle) bit for bit up to NaN
/// sign — and so does the detected arm's butterfly kernel against the
/// scalar arm's on the planner's tables, whose first stage multiplies by
/// exactly `1 + 0i`.
#[test]
fn fft_arms_match_scalar_at_every_power_of_two() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFF7);
    for log_n in 0..=13 {
        let n = 1usize << log_n;
        let plan = FftPlanner::new(n).unwrap();
        for kind in [FftInput::Plain, FftInput::Specials, FftInput::Zeros] {
            let x = fft_input(n, &mut rng, kind);
            for dir in [Direction::Forward, Direction::Inverse] {
                let label = format!("n={n} {dir:?} {kind:?}");
                let mut want = x.clone();
                fft_in_place(&mut want, dir).unwrap();
                let mut got = x.clone();
                plan.process(&mut got, dir).unwrap();
                assert_same_spectrum(&format!("dispatched planner, {label}"), &want, &got);

                let table = twiddles(n, dir);
                let mut reference = x.clone();
                (Kernels::scalar().fft_radix2)(&mut reference, &table);
                for arm in Kernels::supported() {
                    let mut got = x.clone();
                    plan.process_with(arm, &mut got, dir).unwrap();
                    assert_same_spectrum(&format!("{} planner, {label}", arm.label), &want, &got);
                    let mut got = x.clone();
                    (arm.fft_radix2)(&mut got, &table);
                    assert_same_spectrum(
                        &format!("{} kernel, {label}", arm.label),
                        &reference,
                        &got,
                    );
                }
            }
        }
    }
}

proptest! {
    /// The butterfly kernels agree with the scalar arm for arbitrary
    /// twiddle tables — not only unit phasors — with NaN, ±inf and −0.0
    /// injected into the data and the tables.
    #[test]
    fn fft_kernel_arbitrary_twiddles_bitwise(
        log_n in 0usize..=9,
        seed in any::<u64>(),
        inject in proptest::collection::vec((0usize..1024, 0u8..4, any::<bool>(), any::<bool>()), 0..=6),
    ) {
        let n = 1usize << log_n;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut data = fft_input(n, &mut rng, FftInput::Plain);
        let mut table = fft_input(n.saturating_sub(1), &mut rng, FftInput::Plain);
        for &(pos, sel, in_table, re) in &inject {
            let target = if in_table && !table.is_empty() { &mut table } else { &mut data };
            let i = pos % target.len();
            let z = &mut target[i];
            if re { z.re = special(sel) } else { z.im = special(sel) }
        }
        let mut want = data.clone();
        (Kernels::scalar().fft_radix2)(&mut want, &table);
        for arm in Kernels::supported() {
            let mut got = data.clone();
            (arm.fft_radix2)(&mut got, &table);
            for (a, b) in want.iter().zip(&got) {
                prop_assert!(
                    nan_sign_masked(a.re) == nan_sign_masked(b.re)
                        && nan_sign_masked(a.im) == nan_sign_masked(b.im),
                    "{}: {:?} vs {:?}", arm.label, a, b
                );
            }
        }
    }
}
