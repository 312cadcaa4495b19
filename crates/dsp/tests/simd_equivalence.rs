//! Bit-level equivalence proofs for the SIMD dispatch arms.
//!
//! Every kernel in `aircal_dsp::simd` — scalar fallback included —
//! computes in the same fixed 8-lane chunked order with the same pairwise
//! reduction tree, so the runtime-detected vector arm must return
//! **bit-identical** results to the scalar arm on every input: any
//! length (including non-multiple-of-8 tails), any slice offset
//! (unaligned starts), and non-finite values (canonical NaN, ±inf, −0.0).
//!
//! The suite compares [`Kernels::scalar`] against [`Kernels::detect`]
//! directly, so it proves the same property on the `AIRCAL_FORCE_SCALAR=1`
//! CI leg as on the native one — `detect()` ignores the env override.
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

use aircal_dsp::simd::{Kernels, LaneSum};
use aircal_dsp::{kernels, Cplx};
use proptest::prelude::*;

fn arms() -> (&'static Kernels, &'static Kernels) {
    (Kernels::scalar(), Kernels::detect())
}

fn cplx_vec(pairs: &[(f64, f64)]) -> Vec<Cplx> {
    pairs.iter().map(|&(re, im)| Cplx::new(re, im)).collect()
}

fn assert_same_bits(label: &str, a: f64, b: f64) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{label}: scalar {a:?} vs dispatched {b:?}"
    );
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
    let (s, d) = arms();
    let xs: Vec<f64> = (0..130).map(|i| (0.7 * i as f64).sin() * 1e3).collect();
    let za: Vec<Cplx> = (0..130).map(|i| Cplx::phasor(0.37 * i as f64)).collect();
    let zb: Vec<Cplx> = (0..130).map(|i| Cplx::phasor(0.11 * i as f64 + 0.5)).collect();
    let taps: Vec<f64> = (0..130).map(|i| 0.5 - 0.5 * (0.05 * i as f64).cos()).collect();
    for n in 0..=xs.len() {
        assert_same_bits("sum_f64", (s.sum_f64)(&xs[..n]), (d.sum_f64)(&xs[..n]));
        assert_same_bits("sum_sq_f64", (s.sum_sq_f64)(&xs[..n]), (d.sum_sq_f64)(&xs[..n]));
        assert_same_bits("energy", (s.energy)(&za[..n]), (d.energy)(&za[..n]));
        let (cs, cd) = ((s.cdot)(&za[..n], &zb[..n]), (d.cdot)(&za[..n], &zb[..n]));
        assert_same_bits("cdot.re", cs.re, cd.re);
        assert_same_bits("cdot.im", cs.im, cd.im);
        let (cs, cd) = ((s.cdot_conj)(&za[..n], &zb[..n]), (d.cdot_conj)(&za[..n], &zb[..n]));
        assert_same_bits("cdot_conj.re", cs.re, cd.re);
        assert_same_bits("cdot_conj.im", cs.im, cd.im);

        let (mut ms, mut md) = (vec![0.0; n], vec![0.0; n]);
        (s.norm_sq_map)(&za[..n], &mut ms);
        (d.norm_sq_map)(&za[..n], &mut md);
        for (a, b) in ms.iter().zip(&md) {
            assert_same_bits("norm_sq_map", *a, *b);
        }
        (s.norm_sq_accum)(&zb[..n], &mut ms);
        (d.norm_sq_accum)(&zb[..n], &mut md);
        for (a, b) in ms.iter().zip(&md) {
            assert_same_bits("norm_sq_accum", *a, *b);
        }

        let (mut ws, mut wd) = (za[..n].to_vec(), za[..n].to_vec());
        (s.cmul_assign)(&mut ws, &zb[..n]);
        (d.cmul_assign)(&mut wd, &zb[..n]);
        for (a, b) in ws.iter().zip(&wd) {
            assert_same_bits("cmul_assign.re", a.re, b.re);
            assert_same_bits("cmul_assign.im", a.im, b.im);
        }
        (s.scale_map)(&za[..n], &taps[..n], &mut ws);
        (d.scale_map)(&za[..n], &taps[..n], &mut wd);
        for (a, b) in ws.iter().zip(&wd) {
            assert_same_bits("scale_map.re", a.re, b.re);
            assert_same_bits("scale_map.im", a.im, b.im);
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
    let (s, d) = arms();
    let xs: Vec<f64> = (0..4096).map(|i| (0.7 * i as f64).sin() * 1e3).collect();
    for n in 0..=xs.len() {
        let got = lane_sum(&xs[..n]);
        assert_same_bits("lane_sum vs kernels()", (kernels().sum_f64)(&xs[..n]), got);
        assert_same_bits("lane_sum vs scalar", (s.sum_f64)(&xs[..n]), got);
        assert_same_bits("lane_sum vs detected", (d.sum_f64)(&xs[..n]), got);
    }
}

proptest! {
    /// The lane accumulator agrees with `sum_f64` (up to NaN sign, as for
    /// every reduction here) with canonical NaN / ±inf / −0.0 injected at
    /// random positions of random-length inputs.
    #[test]
    fn lane_sum_special_values_bitwise(
        values in proptest::collection::vec(-1e6f64..1e6, 0..=4096),
        inject in proptest::collection::vec((0usize..4096, 0u8..4), 0..=8),
    ) {
        let (s, d) = arms();
        let mut xs = values;
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

    /// Real reductions agree bitwise over random lengths 0..4096 and
    /// random (unaligned) slice starts.
    #[test]
    fn real_reductions_bitwise(
        values in proptest::collection::vec(-1e6f64..1e6, 0..=4096),
        offset in 0usize..16,
    ) {
        let (s, d) = arms();
        let xs = &values[offset.min(values.len())..];
        prop_assert_eq!((s.sum_f64)(xs).to_bits(), (d.sum_f64)(xs).to_bits());
        prop_assert_eq!((s.sum_sq_f64)(xs).to_bits(), (d.sum_sq_f64)(xs).to_bits());
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
        let (s, d) = arms();
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

    /// Elementwise kernels (|z|² map/accumulate, spectral multiply,
    /// window application) agree bitwise at every output index.
    #[test]
    fn elementwise_kernels_bitwise(
        a in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 0..=1024),
        b in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 0..=1024),
        taps in proptest::collection::vec(-2.0f64..2.0, 0..=1024),
    ) {
        let (s, d) = arms();
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

    /// Canonical NaN / ±inf / −0.0 injected at random positions propagate
    /// identically (up to NaN sign) through both arms of the real
    /// reductions.
    #[test]
    fn real_special_values_bitwise(
        values in proptest::collection::vec(-1e3f64..1e3, 1..=512),
        inject in proptest::collection::vec((0usize..512, 0u8..4), 1..=8),
        offset in 0usize..16,
    ) {
        let (s, d) = arms();
        let mut xs = values;
        let n = xs.len();
        for &(pos, sel) in &inject {
            xs[pos % n] = special(sel);
        }
        let xs = &xs[offset.min(n)..];
        prop_assert_eq!(nan_sign_masked((s.sum_f64)(xs)), nan_sign_masked((d.sum_f64)(xs)));
        prop_assert_eq!(nan_sign_masked((s.sum_sq_f64)(xs)), nan_sign_masked((d.sum_sq_f64)(xs)));
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
        let (s, d) = arms();
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
