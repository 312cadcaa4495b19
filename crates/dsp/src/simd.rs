//! Vectorized DSP kernels with runtime ISA dispatch and a deterministic
//! lane-reduction model.
//!
//! Every hot inner loop in the workspace — magnitude-squared maps, FIR
//! dot products, matched-filter correlation, Welch PSD accumulation —
//! bottoms out in one of the kernels here. The kernels come in several
//! arms (portable scalar, AVX2 and SSE2 on x86_64, NEON on aarch64)
//! behind a single [`Kernels`] vtable selected once at startup by
//! [`kernels`].
//!
//! # The deterministic lane-reduction model
//!
//! The repo's bit-identity discipline (golden vectors, parallel ≡ serial
//! gates, cross-process digests) requires that switching ISA arms never
//! changes a single output bit. Floating-point addition is not
//! associative, so a naive "sum with whatever width the ISA has" breaks
//! that immediately. Instead, **every reduction — the scalar fallback
//! included — computes in a fixed 8-lane chunked order**:
//!
//! 1. Eight lane accumulators `l[0..8]`. Element `i` is folded into lane
//!    `i % 8`, in ascending `i` order within each lane.
//! 2. The remainder (when `len % 8 != 0`) continues the same lane
//!    assignment: element `8k + j` of the tail still lands in lane `j`.
//! 3. The lanes collapse in a fixed pairwise tree:
//!    `((l0+l1) + (l2+l3)) + ((l4+l5) + (l6+l7))`.
//!
//! A SIMD arm then reproduces the *exact* per-lane operation sequence
//! with vertical vector ops (one vector slot = one lane chain), so its
//! rounding is identical by construction — the vector arms are
//! bit-for-bit equal to the scalar arm, not merely close. Two
//! consequences shape the implementations:
//!
//! * **No FMA, ever.** A fused multiply-add rounds once where scalar
//!   `mul` + `add` round twice; the arms stick to the scalar op
//!   sequence.
//! * **Operand order is preserved.** `x86` min/max/add NaN semantics and
//!   `a + (-b)` vs `a - b` sign behavior depend on operand order, so the
//!   vector arms keep the scalar order (e.g. `_mm256_addsub_pd` computes
//!   the complex multiply's `t1 - t2` / `t1 + t2` with the same operand
//!   order as [`Cplx`]'s `Mul`).
//!
//! Elementwise kernels (`norm_sq_map`, `cmul_assign`, `scale_map`,
//! `norm_sq_accum`) have no reduction at all, so they are bit-identical
//! across arms as long as the per-element op sequence matches — which the
//! equivalence suite (`crates/dsp/tests/simd_equivalence.rs`) proves over
//! randomized lengths, alignments, tails, and NaN/inf payloads.
//!
//! # Dispatch
//!
//! [`kernels`] picks the widest arm the host supports exactly once (via
//! `OnceLock`) using `std::arch` runtime feature detection. Setting
//! `AIRCAL_FORCE_SCALAR=1` in the environment pins the portable scalar
//! arm — CI runs the whole tier-1 suite on both arms. [`Kernels::scalar`]
//! and [`Kernels::detect`] expose both arms directly so tests and
//! benchmarks can compare them inside a single process regardless of the
//! environment.

use crate::Cplx;
use std::sync::OnceLock;

/// Number of independent accumulator lanes in the canonical reduction.
pub const LANES: usize = 8;

/// Fixed pairwise reduction tree over the eight lane accumulators.
#[inline(always)]
fn tree8(l: &[f64; LANES]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Streaming `Σ x[i]` in the canonical lane order: the `i`-th pushed
/// value folds into lane `i % 8` and [`LaneSum::sum`] finishes with the
/// same pairwise tree, so the result equals [`Kernels::sum_f64`] over the
/// pushed values on every arm — without buffering them.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneSum {
    lanes: [f64; LANES],
    len: usize,
}

impl LaneSum {
    /// Fold the next value into its lane.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.lanes[self.len % LANES] += x;
        self.len += 1;
    }

    /// The sum of every pushed value (0 when none were).
    #[inline]
    pub fn sum(&self) -> f64 {
        tree8(&self.lanes)
    }
}

/// One ISA arm: a vtable of kernel entry points plus its dispatch label.
///
/// All arms are bit-identical; the only observable difference is speed
/// (and [`Kernels::label`]).
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// Dispatch label: `"scalar"`, `"sse2"`, `"avx2"`, or `"neon"`.
    pub label: &'static str,
    /// `Σ x[i]` in canonical lane order.
    pub sum_f64: fn(&[f64]) -> f64,
    /// `Σ x[i]²` in canonical lane order.
    pub sum_sq_f64: fn(&[f64]) -> f64,
    /// `Σ |z[i]|²` in canonical lane order (block energy).
    pub energy: fn(&[Cplx]) -> f64,
    /// `Σ a[i]·b[i]` (complex dot product) in canonical lane order.
    pub cdot: fn(&[Cplx], &[Cplx]) -> Cplx,
    /// `Σ a[i]·conj(b[i])` (matched-filter dot) in canonical lane order.
    pub cdot_conj: fn(&[Cplx], &[Cplx]) -> Cplx,
    /// Elementwise `dst[i] = |src[i]|²`.
    pub norm_sq_map: fn(&[Cplx], &mut [f64]),
    /// Elementwise `dst[i] += |src[i]|²`.
    pub norm_sq_accum: fn(&[Cplx], &mut [f64]),
    /// Elementwise `a[i] *= b[i]` (complex multiply).
    pub cmul_assign: fn(&mut [Cplx], &[Cplx]),
    /// Elementwise `dst[i] = src[i] · taps[i]` (real taper).
    pub scale_map: fn(&[Cplx], &[f64], &mut [Cplx]),
}

static DISPATCH: OnceLock<&'static Kernels> = OnceLock::new();

/// The arm selected for this process: the widest ISA the host supports,
/// or the scalar fallback when `AIRCAL_FORCE_SCALAR` is set. Selected
/// once; every later call returns the same vtable.
pub fn kernels() -> &'static Kernels {
    DISPATCH.get_or_init(|| {
        if force_scalar() {
            &SCALAR
        } else {
            Kernels::detect()
        }
    })
}

/// Label of the arm [`kernels`] selected (`"scalar"`, `"sse2"`,
/// `"avx2"`, or `"neon"`).
pub fn dispatch_label() -> &'static str {
    kernels().label
}

fn force_scalar() -> bool {
    std::env::var_os("AIRCAL_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
}

impl Kernels {
    /// The portable scalar arm (the canonical reference implementation).
    pub fn scalar() -> &'static Kernels {
        &SCALAR
    }

    /// The widest arm the host's vector units support, ignoring
    /// `AIRCAL_FORCE_SCALAR`. Use this (against [`Kernels::scalar`]) to
    /// compare both arms inside one process.
    pub fn detect() -> &'static Kernels {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return &x86::AVX2;
            }
            if std::arch::is_x86_feature_detected!("sse2") {
                return &x86::SSE2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return &neon::NEON;
            }
        }
        &SCALAR
    }
}

// ---------------------------------------------------------------------
// Scalar arm: the canonical reference. Every other arm must reproduce
// these op sequences bit-for-bit.
// ---------------------------------------------------------------------

/// The portable scalar arm.
pub static SCALAR: Kernels = Kernels {
    label: "scalar",
    sum_f64: scalar_sum_f64,
    sum_sq_f64: scalar_sum_sq_f64,
    energy: scalar_energy,
    cdot: scalar_cdot,
    cdot_conj: scalar_cdot_conj,
    norm_sq_map: scalar_norm_sq_map,
    norm_sq_accum: scalar_norm_sq_accum,
    cmul_assign: scalar_cmul_assign,
    scale_map: scalar_scale_map,
};

fn scalar_sum_f64(xs: &[f64]) -> f64 {
    let mut l = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for j in 0..LANES {
            l[j] += c[j];
        }
    }
    for (j, &x) in chunks.remainder().iter().enumerate() {
        l[j] += x;
    }
    tree8(&l)
}

fn scalar_sum_sq_f64(xs: &[f64]) -> f64 {
    let mut l = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for j in 0..LANES {
            l[j] += c[j] * c[j];
        }
    }
    for (j, &x) in chunks.remainder().iter().enumerate() {
        l[j] += x * x;
    }
    tree8(&l)
}

fn scalar_energy(xs: &[Cplx]) -> f64 {
    let mut l = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for j in 0..LANES {
            l[j] += c[j].re * c[j].re + c[j].im * c[j].im;
        }
    }
    for (j, z) in chunks.remainder().iter().enumerate() {
        l[j] += z.re * z.re + z.im * z.im;
    }
    tree8(&l)
}

fn scalar_cdot(a: &[Cplx], b: &[Cplx]) -> Cplx {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut lr = [0.0f64; LANES];
    let mut li = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            let p = xa[j] * xb[j];
            lr[j] += p.re;
            li[j] += p.im;
        }
    }
    for (j, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        let p = *x * *y;
        lr[j] += p.re;
        li[j] += p.im;
    }
    Cplx::new(tree8(&lr), tree8(&li))
}

fn scalar_cdot_conj(a: &[Cplx], b: &[Cplx]) -> Cplx {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut lr = [0.0f64; LANES];
    let mut li = [0.0f64; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..LANES {
            let p = xa[j] * xb[j].conj();
            lr[j] += p.re;
            li[j] += p.im;
        }
    }
    for (j, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        let p = *x * y.conj();
        lr[j] += p.re;
        li[j] += p.im;
    }
    Cplx::new(tree8(&lr), tree8(&li))
}

fn scalar_norm_sq_map(src: &[Cplx], dst: &mut [f64]) {
    let n = src.len().min(dst.len());
    for i in 0..n {
        dst[i] = src[i].re * src[i].re + src[i].im * src[i].im;
    }
}

fn scalar_norm_sq_accum(src: &[Cplx], dst: &mut [f64]) {
    let n = src.len().min(dst.len());
    for i in 0..n {
        dst[i] += src[i].re * src[i].re + src[i].im * src[i].im;
    }
}

fn scalar_cmul_assign(a: &mut [Cplx], b: &[Cplx]) {
    let n = a.len().min(b.len());
    for i in 0..n {
        a[i] *= b[i];
    }
}

fn scalar_scale_map(src: &[Cplx], taps: &[f64], dst: &mut [Cplx]) {
    let n = src.len().min(taps.len()).min(dst.len());
    for i in 0..n {
        dst[i] = Cplx::new(src[i].re * taps[i], src[i].im * taps[i]);
    }
}

// ---------------------------------------------------------------------
// x86_64 arms.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{tree8, Kernels, LANES};
    use crate::Cplx;
    use core::arch::x86_64::*;

    /// AVX2 arm: all nine kernels vectorized 4 doubles (2 complexes) per
    /// register, two/four registers per canonical 8-lane chunk.
    pub static AVX2: Kernels = Kernels {
        label: "avx2",
        sum_f64: avx2_sum_f64,
        sum_sq_f64: avx2_sum_sq_f64,
        energy: avx2_energy,
        cdot: avx2_cdot,
        cdot_conj: avx2_cdot_conj,
        norm_sq_map: avx2_norm_sq_map,
        norm_sq_accum: avx2_norm_sq_accum,
        cmul_assign: avx2_cmul_assign,
        scale_map: avx2_scale_map,
    };

    /// SSE2 arm: the two pure-`f64` reductions run 2-wide; the
    /// interleaved-complex kernels delegate to the scalar arm (their
    /// shuffle sequences need SSE3+, and SSE2-only hosts are legacy).
    pub static SSE2: Kernels = Kernels {
        label: "sse2",
        sum_f64: sse2_sum_f64,
        sum_sq_f64: sse2_sum_sq_f64,
        energy: super::scalar_energy,
        cdot: super::scalar_cdot,
        cdot_conj: super::scalar_cdot_conj,
        norm_sq_map: super::scalar_norm_sq_map,
        norm_sq_accum: super::scalar_norm_sq_accum,
        cmul_assign: super::scalar_cmul_assign,
        scale_map: super::scalar_scale_map,
    };

    // Every safe wrapper below is only reachable through a vtable that
    // `Kernels::detect` installs after `is_x86_feature_detected!`
    // confirmed the ISA, so the target_feature call is sound.

    fn avx2_sum_f64(xs: &[f64]) -> f64 {
        unsafe { avx2_sum_f64_impl(xs) }
    }
    fn avx2_sum_sq_f64(xs: &[f64]) -> f64 {
        unsafe { avx2_sum_sq_f64_impl(xs) }
    }
    fn avx2_energy(xs: &[Cplx]) -> f64 {
        unsafe { avx2_energy_impl(xs) }
    }
    fn avx2_cdot(a: &[Cplx], b: &[Cplx]) -> Cplx {
        unsafe { avx2_cdot_impl(a, b, false) }
    }
    fn avx2_cdot_conj(a: &[Cplx], b: &[Cplx]) -> Cplx {
        unsafe { avx2_cdot_impl(a, b, true) }
    }
    fn avx2_norm_sq_map(src: &[Cplx], dst: &mut [f64]) {
        unsafe { avx2_norm_sq_map_impl(src, dst, false) }
    }
    fn avx2_norm_sq_accum(src: &[Cplx], dst: &mut [f64]) {
        unsafe { avx2_norm_sq_map_impl(src, dst, true) }
    }
    fn avx2_cmul_assign(a: &mut [Cplx], b: &[Cplx]) {
        unsafe { avx2_cmul_assign_impl(a, b) }
    }
    fn avx2_scale_map(src: &[Cplx], taps: &[f64], dst: &mut [Cplx]) {
        unsafe { avx2_scale_map_impl(src, taps, dst) }
    }
    fn sse2_sum_f64(xs: &[f64]) -> f64 {
        unsafe { sse2_sum_f64_impl(xs) }
    }
    fn sse2_sum_sq_f64(xs: &[f64]) -> f64 {
        unsafe { sse2_sum_sq_f64_impl(xs) }
    }

    /// Complex multiply of two packed pairs `[re0, im0, re1, im1]`,
    /// reproducing `Cplx::mul`'s exact op and operand order:
    /// `re = ar·br − ai·bi`, `im = ar·bi + ai·br` (addsub's even lanes
    /// subtract `t2` from `t1`, odd lanes add — same order as scalar).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul4(a: __m256d, b: __m256d) -> __m256d {
        let a_re = _mm256_movedup_pd(a); // [ar0, ar0, ar1, ar1]
        let a_im = _mm256_permute_pd(a, 0xF); // [ai0, ai0, ai1, ai1]
        let b_swap = _mm256_permute_pd(b, 0x5); // [bi0, br0, bi1, br1]
        let t1 = _mm256_mul_pd(a_re, b); // [ar·br, ar·bi, ..]
        let t2 = _mm256_mul_pd(a_im, b_swap); // [ai·bi, ai·br, ..]
        _mm256_addsub_pd(t1, t2)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_sum_f64_impl(xs: &[f64]) -> f64 {
        let mut a0 = _mm256_setzero_pd(); // lanes 0..4
        let mut a1 = _mm256_setzero_pd(); // lanes 4..8
        let mut chunks = xs.chunks_exact(LANES);
        for c in &mut chunks {
            a0 = _mm256_add_pd(a0, _mm256_loadu_pd(c.as_ptr()));
            a1 = _mm256_add_pd(a1, _mm256_loadu_pd(c.as_ptr().add(4)));
        }
        let mut l = [0.0f64; LANES];
        _mm256_storeu_pd(l.as_mut_ptr(), a0);
        _mm256_storeu_pd(l.as_mut_ptr().add(4), a1);
        for (j, &x) in chunks.remainder().iter().enumerate() {
            l[j] += x;
        }
        tree8(&l)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_sum_sq_f64_impl(xs: &[f64]) -> f64 {
        let mut a0 = _mm256_setzero_pd();
        let mut a1 = _mm256_setzero_pd();
        let mut chunks = xs.chunks_exact(LANES);
        for c in &mut chunks {
            let v0 = _mm256_loadu_pd(c.as_ptr());
            let v1 = _mm256_loadu_pd(c.as_ptr().add(4));
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(v0, v0));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(v1, v1));
        }
        let mut l = [0.0f64; LANES];
        _mm256_storeu_pd(l.as_mut_ptr(), a0);
        _mm256_storeu_pd(l.as_mut_ptr().add(4), a1);
        for (j, &x) in chunks.remainder().iter().enumerate() {
            l[j] += x * x;
        }
        tree8(&l)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_energy_impl(xs: &[Cplx]) -> f64 {
        // hadd(sq(v0), sq(v1)) yields |z|² for four complexes in the
        // constant permuted lane order [0, 2, 1, 3]. The permutation is
        // identical every iteration, so each vector slot is one scalar
        // lane chain; un-permute at extraction, before the tree.
        let mut acc_a = _mm256_setzero_pd(); // canonical lanes [0, 2, 1, 3]
        let mut acc_b = _mm256_setzero_pd(); // canonical lanes [4, 6, 5, 7]
        let mut chunks = xs.chunks_exact(LANES);
        for c in &mut chunks {
            let p = c.as_ptr() as *const f64;
            let v0 = _mm256_loadu_pd(p);
            let v1 = _mm256_loadu_pd(p.add(4));
            let v2 = _mm256_loadu_pd(p.add(8));
            let v3 = _mm256_loadu_pd(p.add(12));
            let h0 = _mm256_hadd_pd(_mm256_mul_pd(v0, v0), _mm256_mul_pd(v1, v1));
            let h1 = _mm256_hadd_pd(_mm256_mul_pd(v2, v2), _mm256_mul_pd(v3, v3));
            acc_a = _mm256_add_pd(acc_a, h0);
            acc_b = _mm256_add_pd(acc_b, h1);
        }
        let mut ta = [0.0f64; 4];
        let mut tb = [0.0f64; 4];
        _mm256_storeu_pd(ta.as_mut_ptr(), acc_a);
        _mm256_storeu_pd(tb.as_mut_ptr(), acc_b);
        let mut l = [ta[0], ta[2], ta[1], ta[3], tb[0], tb[2], tb[1], tb[3]];
        for (j, z) in chunks.remainder().iter().enumerate() {
            l[j] += z.re * z.re + z.im * z.im;
        }
        tree8(&l)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_cdot_impl(a: &[Cplx], b: &[Cplx], conj_b: bool) -> Cplx {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        // Flips the sign bit of the imaginary slots — bitwise identical
        // to the scalar `conj()` negation, including for NaN and -0.0.
        let conj_mask = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
        // acc[k] holds [Σ p.re, Σ p.im] for complex lanes 2k and 2k+1.
        let mut acc = [_mm256_setzero_pd(); 4];
        let pa = a.as_ptr() as *const f64;
        let pb = b.as_ptr() as *const f64;
        let full = n / LANES;
        for c in 0..full {
            let base = c * 2 * LANES;
            for (k, slot) in acc.iter_mut().enumerate() {
                let va = _mm256_loadu_pd(pa.add(base + 4 * k));
                let mut vb = _mm256_loadu_pd(pb.add(base + 4 * k));
                if conj_b {
                    vb = _mm256_xor_pd(vb, conj_mask);
                }
                *slot = _mm256_add_pd(*slot, cmul4(va, vb));
            }
        }
        let mut lr = [0.0f64; LANES];
        let mut li = [0.0f64; LANES];
        for (k, slot) in acc.iter().enumerate() {
            let mut t = [0.0f64; 4];
            _mm256_storeu_pd(t.as_mut_ptr(), *slot);
            lr[2 * k] = t[0];
            li[2 * k] = t[1];
            lr[2 * k + 1] = t[2];
            li[2 * k + 1] = t[3];
        }
        for (j, (x, y)) in a[full * LANES..]
            .iter()
            .zip(&b[full * LANES..])
            .enumerate()
        {
            let p = if conj_b { *x * y.conj() } else { *x * *y };
            lr[j] += p.re;
            li[j] += p.im;
        }
        Cplx::new(tree8(&lr), tree8(&li))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_norm_sq_map_impl(src: &[Cplx], dst: &mut [f64], accumulate: bool) {
        let n = src.len().min(dst.len());
        let ps = src.as_ptr() as *const f64;
        let pd = dst.as_mut_ptr();
        let full = n / 4;
        for c in 0..full {
            let v0 = _mm256_loadu_pd(ps.add(8 * c));
            let v1 = _mm256_loadu_pd(ps.add(8 * c + 4));
            let h = _mm256_hadd_pd(_mm256_mul_pd(v0, v0), _mm256_mul_pd(v1, v1));
            // hadd order is [n0, n2, n1, n3]; restore sequential order.
            let mut r = _mm256_permute4x64_pd(h, 0xD8);
            if accumulate {
                r = _mm256_add_pd(_mm256_loadu_pd(pd.add(4 * c)), r);
            }
            _mm256_storeu_pd(pd.add(4 * c), r);
        }
        for i in full * 4..n {
            let v = src[i].re * src[i].re + src[i].im * src[i].im;
            if accumulate {
                dst[i] += v;
            } else {
                dst[i] = v;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_cmul_assign_impl(a: &mut [Cplx], b: &[Cplx]) {
        let n = a.len().min(b.len());
        let pa = a.as_mut_ptr() as *mut f64;
        let pb = b.as_ptr() as *const f64;
        let full = n / 2;
        for c in 0..full {
            let va = _mm256_loadu_pd(pa.add(4 * c));
            let vb = _mm256_loadu_pd(pb.add(4 * c));
            _mm256_storeu_pd(pa.add(4 * c), cmul4(va, vb));
        }
        for i in full * 2..n {
            a[i] *= b[i];
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn avx2_scale_map_impl(src: &[Cplx], taps: &[f64], dst: &mut [Cplx]) {
        let n = src.len().min(taps.len()).min(dst.len());
        let ps = src.as_ptr() as *const f64;
        let pt = taps.as_ptr();
        let pd = dst.as_mut_ptr() as *mut f64;
        let full = n / 4;
        for c in 0..full {
            let t = _mm256_loadu_pd(pt.add(4 * c)); // [t0, t1, t2, t3]
            let t_lo = _mm256_permute4x64_pd(t, 0x50); // [t0, t0, t1, t1]
            let t_hi = _mm256_permute4x64_pd(t, 0xFA); // [t2, t2, t3, t3]
            let v0 = _mm256_loadu_pd(ps.add(8 * c));
            let v1 = _mm256_loadu_pd(ps.add(8 * c + 4));
            _mm256_storeu_pd(pd.add(8 * c), _mm256_mul_pd(v0, t_lo));
            _mm256_storeu_pd(pd.add(8 * c + 4), _mm256_mul_pd(v1, t_hi));
        }
        for i in full * 4..n {
            dst[i] = Cplx::new(src[i].re * taps[i], src[i].im * taps[i]);
        }
    }

    #[target_feature(enable = "sse2")]
    unsafe fn sse2_sum_f64_impl(xs: &[f64]) -> f64 {
        // Four 2-wide accumulators cover the eight canonical lanes.
        let mut a = [_mm_setzero_pd(); 4];
        let mut chunks = xs.chunks_exact(LANES);
        for c in &mut chunks {
            for (k, slot) in a.iter_mut().enumerate() {
                *slot = _mm_add_pd(*slot, _mm_loadu_pd(c.as_ptr().add(2 * k)));
            }
        }
        let mut l = [0.0f64; LANES];
        for (k, slot) in a.iter().enumerate() {
            _mm_storeu_pd(l.as_mut_ptr().add(2 * k), *slot);
        }
        for (j, &x) in chunks.remainder().iter().enumerate() {
            l[j] += x;
        }
        tree8(&l)
    }

    #[target_feature(enable = "sse2")]
    unsafe fn sse2_sum_sq_f64_impl(xs: &[f64]) -> f64 {
        let mut a = [_mm_setzero_pd(); 4];
        let mut chunks = xs.chunks_exact(LANES);
        for c in &mut chunks {
            for (k, slot) in a.iter_mut().enumerate() {
                let v = _mm_loadu_pd(c.as_ptr().add(2 * k));
                *slot = _mm_add_pd(*slot, _mm_mul_pd(v, v));
            }
        }
        let mut l = [0.0f64; LANES];
        for (k, slot) in a.iter().enumerate() {
            _mm_storeu_pd(l.as_mut_ptr().add(2 * k), *slot);
        }
        for (j, &x) in chunks.remainder().iter().enumerate() {
            l[j] += x * x;
        }
        tree8(&l)
    }
}

// ---------------------------------------------------------------------
// aarch64 arm.
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{tree8, Kernels, LANES};
    use crate::Cplx;
    use core::arch::aarch64::*;

    /// NEON arm: pure-`f64` reductions and the magnitude-squared kernels
    /// run 2-wide (`vpaddq_f64` computes `re² + im²` in scalar order);
    /// the remaining complex kernels delegate to the scalar arm.
    pub static NEON: Kernels = Kernels {
        label: "neon",
        sum_f64: neon_sum_f64,
        sum_sq_f64: neon_sum_sq_f64,
        energy: neon_energy,
        cdot: super::scalar_cdot,
        cdot_conj: super::scalar_cdot_conj,
        norm_sq_map: neon_norm_sq_map,
        norm_sq_accum: super::scalar_norm_sq_accum,
        cmul_assign: super::scalar_cmul_assign,
        scale_map: super::scalar_scale_map,
    };

    // NEON is baseline on aarch64, so the intrinsics are safe to issue
    // on any host that reached this arm through detection.

    fn neon_sum_f64(xs: &[f64]) -> f64 {
        unsafe { neon_sum_f64_impl(xs) }
    }
    fn neon_sum_sq_f64(xs: &[f64]) -> f64 {
        unsafe { neon_sum_sq_f64_impl(xs) }
    }
    fn neon_energy(xs: &[Cplx]) -> f64 {
        unsafe { neon_energy_impl(xs) }
    }
    fn neon_norm_sq_map(src: &[Cplx], dst: &mut [f64]) {
        unsafe { neon_norm_sq_map_impl(src, dst) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn neon_sum_f64_impl(xs: &[f64]) -> f64 {
        let mut a = [vdupq_n_f64(0.0); 4];
        let mut chunks = xs.chunks_exact(LANES);
        for c in &mut chunks {
            for (k, slot) in a.iter_mut().enumerate() {
                *slot = vaddq_f64(*slot, vld1q_f64(c.as_ptr().add(2 * k)));
            }
        }
        let mut l = [0.0f64; LANES];
        for (k, slot) in a.iter().enumerate() {
            vst1q_f64(l.as_mut_ptr().add(2 * k), *slot);
        }
        for (j, &x) in chunks.remainder().iter().enumerate() {
            l[j] += x;
        }
        tree8(&l)
    }

    #[target_feature(enable = "neon")]
    unsafe fn neon_sum_sq_f64_impl(xs: &[f64]) -> f64 {
        let mut a = [vdupq_n_f64(0.0); 4];
        let mut chunks = xs.chunks_exact(LANES);
        for c in &mut chunks {
            for (k, slot) in a.iter_mut().enumerate() {
                let v = vld1q_f64(c.as_ptr().add(2 * k));
                *slot = vaddq_f64(*slot, vmulq_f64(v, v));
            }
        }
        let mut l = [0.0f64; LANES];
        for (k, slot) in a.iter().enumerate() {
            vst1q_f64(l.as_mut_ptr().add(2 * k), *slot);
        }
        for (j, &x) in chunks.remainder().iter().enumerate() {
            l[j] += x * x;
        }
        tree8(&l)
    }

    #[target_feature(enable = "neon")]
    unsafe fn neon_energy_impl(xs: &[Cplx]) -> f64 {
        // vpaddq(sq(z0), sq(z1)) = [re0²+im0², re1²+im1²] — sequential
        // lane order, so the four accumulators map straight onto the
        // canonical lanes.
        let mut a = [vdupq_n_f64(0.0); 4];
        let p = xs.as_ptr() as *const f64;
        let full = xs.len() / LANES;
        for c in 0..full {
            let base = c * 2 * LANES;
            for (k, slot) in a.iter_mut().enumerate() {
                let v0 = vld1q_f64(p.add(base + 4 * k));
                let v1 = vld1q_f64(p.add(base + 4 * k + 2));
                let n = vpaddq_f64(vmulq_f64(v0, v0), vmulq_f64(v1, v1));
                *slot = vaddq_f64(*slot, n);
            }
        }
        let mut l = [0.0f64; LANES];
        for (k, slot) in a.iter().enumerate() {
            vst1q_f64(l.as_mut_ptr().add(2 * k), *slot);
        }
        for (j, z) in xs[full * LANES..].iter().enumerate() {
            l[j] += z.re * z.re + z.im * z.im;
        }
        tree8(&l)
    }

    #[target_feature(enable = "neon")]
    unsafe fn neon_norm_sq_map_impl(src: &[Cplx], dst: &mut [f64]) {
        let n = src.len().min(dst.len());
        let ps = src.as_ptr() as *const f64;
        let pd = dst.as_mut_ptr();
        let full = n / 2;
        for c in 0..full {
            let v0 = vld1q_f64(ps.add(4 * c));
            let v1 = vld1q_f64(ps.add(4 * c + 2));
            vst1q_f64(pd.add(2 * c), vpaddq_f64(vmulq_f64(v0, v0), vmulq_f64(v1, v1)));
        }
        for i in full * 2..n {
            dst[i] = src[i].re * src[i].re + src[i].im * src[i].im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|i| Cplx::phasor(0.37 * i as f64).scale(1.0 + 0.03 * i as f64))
            .collect()
    }

    fn reals(n: usize) -> Vec<f64> {
        (0..n).map(|i| (0.91 * i as f64).sin() * 3.0).collect()
    }

    /// Every arm reachable on this host is bit-identical to the scalar
    /// reference over awkward lengths (the proptest suite goes further).
    #[test]
    fn detected_arm_matches_scalar_bitwise() {
        let s = Kernels::scalar();
        let d = Kernels::detect();
        for n in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let zs = samples(n);
            let xs = reals(n);
            assert_eq!((s.sum_f64)(&xs).to_bits(), (d.sum_f64)(&xs).to_bits());
            assert_eq!((s.sum_sq_f64)(&xs).to_bits(), (d.sum_sq_f64)(&xs).to_bits());
            assert_eq!((s.energy)(&zs).to_bits(), (d.energy)(&zs).to_bits());
            let t = samples(n.min(16));
            let (cs, cd) = ((s.cdot)(&zs, &zs), (d.cdot)(&zs, &zs));
            assert_eq!(cs.re.to_bits(), cd.re.to_bits());
            assert_eq!(cs.im.to_bits(), cd.im.to_bits());
            let (cs, cd) = ((s.cdot_conj)(&zs, &t), (d.cdot_conj)(&zs, &t));
            assert_eq!(cs.re.to_bits(), cd.re.to_bits());
            assert_eq!(cs.im.to_bits(), cd.im.to_bits());
        }
    }

    /// The canonical reduction applied to the ADS-B preamble template
    /// yields exactly 4.0 — the gated scan's closed-form template energy.
    #[test]
    fn preamble_energy_is_exact() {
        let pulses = [0usize, 2, 7, 9];
        let mut t = vec![Cplx::ZERO; 16];
        for &p in &pulses {
            t[p] = Cplx::ONE;
        }
        assert_eq!((Kernels::scalar().energy)(&t), 4.0);
        assert_eq!((Kernels::detect().energy)(&t), 4.0);
    }

    /// The dispatch label is one of the known arms and stable.
    #[test]
    fn dispatch_label_is_stable() {
        let l = dispatch_label();
        assert!(["scalar", "sse2", "avx2", "neon"].contains(&l));
        assert_eq!(dispatch_label(), l);
    }

    /// Kernels tolerate mismatched slice lengths by truncating to the
    /// shortest, and empty inputs reduce to zero.
    #[test]
    fn length_mismatch_and_empty() {
        let k = kernels();
        assert_eq!((k.sum_f64)(&[]), 0.0);
        assert_eq!((k.energy)(&[]), 0.0);
        let a = samples(10);
        let b = samples(4);
        let want = (k.cdot)(&a[..4], &b);
        let got = (k.cdot)(&a, &b);
        assert_eq!(want.re.to_bits(), got.re.to_bits());
        let mut dst = vec![0.0; 3];
        (k.norm_sq_map)(&a, &mut dst);
        assert_eq!(dst.len(), 3);
        assert_eq!(dst[2].to_bits(), a[2].norm_sq().to_bits());
    }
}
