//! Vectorized DSP kernels with runtime ISA dispatch and a deterministic
//! lane-reduction model.
//!
//! Every hot inner loop in the workspace — magnitude-squared maps, FIR
//! dot products, matched-filter correlation, Welch PSD accumulation —
//! bottoms out in one of the kernels here. The kernels come in three
//! arms (portable scalar, and AVX2 and AVX-512 on x86_64) behind a
//! single [`Kernels`] vtable selected once at startup by [`kernels`].
//! Other targets run the scalar arm. An arm belongs here only while
//! some host or CI leg holds it to the scalar arm bit for bit.
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
//! # Exact FFT butterflies
//!
//! [`Kernels::fft_radix2`] runs every radix-2 stage of an in-place FFT.
//! Each butterfly is `t = v·w; (u + t, u − t)` with `v·w` in `Cplx::mul`'s
//! operand order, so an arm may order butterflies however it likes — and
//! fuse adjacent stages in registers — as long as every element goes
//! through the same operations. The `w = 1` multiplies stay: `x·(1 + 0i)`
//! is not always `x` — it can flip the sign of a zero component, and an
//! infinite component turns the other one into NaN.
//!
//! # Portable noise before a quantizer
//!
//! [`Kernels::noise_quantize`] draws Box–Muller noise with the portable
//! polynomial sampler of [`crate::normal`], adds it and quantizes to the
//! ADC grid. It takes the generator's raw words and maps them to
//! uniforms itself, as `rand::uniform_f64` does. The sampler uses only
//! IEEE operations in a fixed order, so the AVX2 and AVX-512 arms replay
//! the scalar op sequence like every other kernel, and their Gaussians
//! and quantized samples are the scalar arm's bit for bit. See
//! [`AdcNoise`] for the per-sample formula.
//!
//! # Dispatch
//!
//! [`kernels`] picks the widest arm the host supports exactly once (via
//! `OnceLock`) using `std::arch` runtime feature detection. Setting
//! `AIRCAL_FORCE_SCALAR=1` in the environment pins the portable scalar
//! arm — CI runs the whole tier-1 suite on both arms. [`Kernels::scalar`],
//! [`Kernels::detect`] and [`Kernels::supported`] expose the arms directly
//! so tests and benchmarks can compare them inside a single process
//! regardless of the environment.

use crate::{normal, Cplx};
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
    /// Dispatch label: `"scalar"`, `"avx2"` or `"avx512"`.
    pub label: &'static str,
    /// The counter a calibration increments to record the arm that
    /// produced it: `dsp.dispatch.` and the label.
    pub counter: &'static str,
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
    /// Thermal noise, DC offset and ADC quantization, in place, for
    /// `block.len()` samples from `2·block.len()` generator words: sample
    /// `i` takes its Box–Muller draws `u1 ∈ [ε, 1)` and `u2 ∈ [0, 1)`
    /// from `words[2i]` and `words[2i + 1]`, mapped as
    /// `rand::uniform_f64(w, ε, 1)` and `rand::uniform_f64(w, 0, 1)` map
    /// them (so as `gen_range` would draw them). See [`AdcNoise`].
    pub noise_quantize: fn(&[u64], &AdcNoise, &mut [Cplx]),
    /// Every radix-2 decimation-in-time stage of an in-place FFT whose
    /// input is already in bit-reversed order. `data.len()` must be a
    /// power of two and `twiddles` the stage tables of
    /// [`crate::FftPlanner`], flattened: the stage with butterfly span
    /// `2h` holds `h` entries starting at index `h − 1`.
    pub fft_radix2: fn(&mut [Cplx], &[Cplx]),
}

/// Parameters of one [`Kernels::noise_quantize`] pass: per-component
/// noise σ, the DC offset added to I, and the ADC half-range `levels`
/// (`2^(bits−1)`).
///
/// Per sample, the kernel draws `n` = [`normal::box_muller`]`(u1, u2, σ)`
/// and outputs, per component, `round(clamp(v, −1, 1)·levels)/levels`
/// with `v = (x.re + dc) + n.re` and `v = x.im + n.im`, `round` halving
/// away from zero as [`f64::round`] does. Every step is an IEEE operation
/// in a fixed order, so every arm gives the same bits, NaN included.
#[derive(Debug, Clone, Copy)]
pub struct AdcNoise {
    sigma: f64,
    dc_offset: f64,
    levels: f64,
    /// `1/levels`, exact because `levels` is a power of two, so
    /// `k·inv_levels` has the bits of `k / levels`.
    inv_levels: f64,
}

impl AdcNoise {
    /// Noise of per-component σ (full-scale units), DC offset added to I,
    /// and an ADC with `levels` steps per unit full scale.
    ///
    /// # Panics
    ///
    /// Unless `levels` is a power of two (`2^(bits−1)` for a `bits`-bit
    /// ADC) in the normal range, where its reciprocal is exact.
    pub fn new(sigma: f64, dc_offset: f64, levels: f64) -> Self {
        let mantissa = levels.to_bits() & 0x000F_FFFF_FFFF_FFFF;
        assert!(
            levels > 0.0 && levels.is_normal() && (1.0 / levels).is_normal() && mantissa == 0,
            "ADC levels {levels} is not a power of two"
        );
        Self {
            sigma,
            dc_offset,
            levels,
            inv_levels: 1.0 / levels,
        }
    }
}

/// Every `f64` at or above 2⁵² is an integer.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// One quantized component: `round(clamp(x, −1, 1)·levels)/levels`.
/// Below 2⁵² truncation is `floor` and needs no libm call (`floor` and
/// `round` are calls on baseline x86_64); from 2⁵² up `a` is already
/// whole; a NaN takes that branch too and stays NaN.
#[inline(always)]
fn quantize(x: f64, p: &AdcNoise) -> f64 {
    let v = x.clamp(-1.0, 1.0) * p.levels;
    let a = v.abs();
    let whole = if a < TWO_POW_52 { a as u64 as f64 } else { a };
    // `a − whole` is exact; a tie rounds up, away from zero.
    let k = whole + f64::from(u8::from(a - whole >= 0.5));
    k.copysign(v) * p.inv_levels
}

/// One sample from its two words: the uniforms, the Gaussian, the op
/// order `(x.re + dc) + n.re` and `x.im + n.im`, then the quantizer.
#[inline(always)]
fn noise_quantize_one(w1: u64, w2: u64, p: &AdcNoise, x: Cplx) -> Cplx {
    let u1 = rand::uniform_f64(w1, f64::EPSILON, 1.0);
    let u2 = rand::uniform_f64(w2, 0.0, 1.0);
    let n = normal::box_muller(u1, u2, p.sigma);
    Cplx::new(
        quantize((x.re + p.dc_offset) + n.re, p),
        quantize(x.im + n.im, p),
    )
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

/// Label of the arm [`kernels`] selected (`"scalar"`, `"avx2"` or
/// `"avx512"`).
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

    /// The widest arm the host's vector units support (the last of
    /// [`Kernels::supported`]), ignoring `AIRCAL_FORCE_SCALAR`.
    pub fn detect() -> &'static Kernels {
        Self::supported().pop().unwrap_or(&SCALAR)
    }

    /// Every arm this host can run, scalar first, then narrowest to
    /// widest: [`Kernels::detect`] is the last. Tests and perfreport
    /// hold each against the scalar arm, so an arm the dispatcher passes
    /// over on a wider host is still checked there.
    pub fn supported() -> Vec<&'static Kernels> {
        let mut arms = vec![&SCALAR];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx2") {
                arms.push(&x86::AVX2);
                if has!("avx512f") && has!("avx512dq") {
                    arms.push(&x86::AVX512);
                }
            }
        }
        arms
    }
}

// ---------------------------------------------------------------------
// Scalar arm: the canonical reference. Every other arm must reproduce
// these op sequences bit-for-bit.
// ---------------------------------------------------------------------

/// The portable scalar arm.
pub static SCALAR: Kernels = Kernels {
    label: "scalar",
    counter: "dsp.dispatch.scalar",
    sum_f64: scalar_sum_f64,
    sum_sq_f64: scalar_sum_sq_f64,
    energy: scalar_energy,
    cdot: scalar_cdot,
    cdot_conj: scalar_cdot_conj,
    norm_sq_map: scalar_norm_sq_map,
    norm_sq_accum: scalar_norm_sq_accum,
    cmul_assign: scalar_cmul_assign,
    scale_map: scalar_scale_map,
    noise_quantize: scalar_noise_quantize,
    fft_radix2: scalar_fft_radix2,
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

fn scalar_noise_quantize(words: &[u64], p: &AdcNoise, block: &mut [Cplx]) {
    assert!(words.len() >= 2 * block.len());
    for (x, w) in block.iter_mut().zip(words.chunks_exact(2)) {
        *x = noise_quantize_one(w[0], w[1], p, *x);
    }
}

/// Panics unless `data` and `twiddles` fit [`Kernels::fft_radix2`]'s
/// contract, which bounds every access the vector arms make.
fn check_fft_shape(data: &[Cplx], twiddles: &[Cplx]) {
    let n = data.len();
    assert!(
        n.is_power_of_two() && twiddles.len() + 1 >= n,
        "fft_radix2 needs a power-of-two length and its stage tables"
    );
}

fn scalar_fft_radix2(data: &mut [Cplx], twiddles: &[Cplx]) {
    check_fft_shape(data, twiddles);
    let n = data.len();
    let mut half = 1;
    while half < n {
        let stage = &twiddles[half - 1..2 * half - 1];
        for block in data.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((u, v), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(stage) {
                let a = *u;
                let t = *v * w;
                *u = a + t;
                *v = a - t;
            }
        }
        half *= 2;
    }
}

// ---------------------------------------------------------------------
// x86_64 arms.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{tree8, AdcNoise, Kernels, LANES};
    use crate::normal::{ATANH, COS, LN2_HI, LN2_LO, SIN};
    use crate::Cplx;
    use core::arch::x86_64::*;

    /// 2⁻⁵³, the unit step of `rand::uniform_f64`.
    const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

    /// AVX2 arm: all nine kernels vectorized 4 doubles (2 complexes) per
    /// register, two/four registers per canonical 8-lane chunk.
    pub static AVX2: Kernels = Kernels {
        label: "avx2",
        counter: "dsp.dispatch.avx2",
        sum_f64: avx2_sum_f64,
        sum_sq_f64: avx2_sum_sq_f64,
        energy: avx2_energy,
        cdot: avx2_cdot,
        cdot_conj: avx2_cdot_conj,
        norm_sq_map: avx2_norm_sq_map,
        norm_sq_accum: avx2_norm_sq_accum,
        cmul_assign: avx2_cmul_assign,
        scale_map: avx2_scale_map,
        noise_quantize: avx2_noise_quantize,
        fft_radix2: avx2_fft_radix2,
    };

    /// AVX-512 arm: `noise_quantize` runs eight samples per step (see
    /// [`avx512_noise_quantize_impl`]); every other kernel is the AVX2
    /// arm's, none of them being a large share of any layer. Installed
    /// only where AVX2, AVX-512F and AVX-512DQ are all detected.
    pub static AVX512: Kernels = Kernels {
        label: "avx512",
        counter: "dsp.dispatch.avx512",
        sum_f64: avx2_sum_f64,
        sum_sq_f64: avx2_sum_sq_f64,
        energy: avx2_energy,
        cdot: avx2_cdot,
        cdot_conj: avx2_cdot_conj,
        norm_sq_map: avx2_norm_sq_map,
        norm_sq_accum: avx2_norm_sq_accum,
        cmul_assign: avx2_cmul_assign,
        scale_map: avx2_scale_map,
        noise_quantize: avx512_noise_quantize,
        fft_radix2: avx2_fft_radix2,
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
    fn avx2_noise_quantize(words: &[u64], p: &AdcNoise, block: &mut [Cplx]) {
        unsafe { avx2_noise_quantize_impl(words, p, block) }
    }
    fn avx512_noise_quantize(words: &[u64], p: &AdcNoise, block: &mut [Cplx]) {
        unsafe { avx512_noise_quantize_impl(words, p, block) }
    }
    fn avx2_fft_radix2(data: &mut [Cplx], twiddles: &[Cplx]) {
        super::check_fft_shape(data, twiddles);
        unsafe { avx2_fft_radix2_impl(data, twiddles) }
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
        for (j, (x, y)) in a[full * LANES..].iter().zip(&b[full * LANES..]).enumerate() {
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

    /// `[re0, im0, re1, im1]`, `[re2, im2, re3, im3]` →
    /// `([re0..re3], [im0..im3])`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn deinterleave(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
        let t0 = _mm256_permute2f128_pd(a, b, 0x20); // [re0, im0, re2, im2]
        let t1 = _mm256_permute2f128_pd(a, b, 0x31); // [re1, im1, re3, im3]
        (_mm256_unpacklo_pd(t0, t1), _mm256_unpackhi_pd(t0, t1))
    }

    /// Inverse of [`deinterleave`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn interleave(re: __m256d, im: __m256d) -> (__m256d, __m256d) {
        let t0 = _mm256_unpacklo_pd(re, im); // [re0, im0, re2, im2]
        let t1 = _mm256_unpackhi_pd(re, im); // [re1, im1, re3, im3]
        (
            _mm256_permute2f128_pd(t0, t1, 0x20),
            _mm256_permute2f128_pd(t0, t1, 0x31),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn horner4(z: __m256d, coeffs: &[f64]) -> __m256d {
        let mut p = _mm256_set1_pd(coeffs[0]);
        for &k in &coeffs[1..] {
            p = _mm256_add_pd(_mm256_mul_pd(p, z), _mm256_set1_pd(k));
        }
        p
    }

    /// Four lanes of `normal::ln_unit`, same op sequence (the √2 fold is
    /// a blend here, a multiply by 1 or ½ there: the same values).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn ln_unit4(u: __m256d) -> __m256d {
        let one = _mm256_set1_pd(1.0);
        let bits = _mm256_castpd_si256(u);
        // Biased exponent → f64 through the magic number, then unbias.
        let e_bits = _mm256_or_si256(
            _mm256_srli_epi64(bits, 52),
            _mm256_set1_epi64x(0x4330_0000_0000_0000),
        );
        let mut e = _mm256_sub_pd(
            _mm256_castsi256_pd(e_bits),
            _mm256_set1_pd(4_503_599_627_370_496.0 + 1023.0),
        );
        let m_bits = _mm256_or_si256(
            _mm256_and_si256(bits, _mm256_set1_epi64x(0x000F_FFFF_FFFF_FFFF)),
            _mm256_set1_epi64x(0x3FF0_0000_0000_0000),
        );
        let mut m = _mm256_castsi256_pd(m_bits);
        let big = _mm256_cmp_pd(m, _mm256_set1_pd(core::f64::consts::SQRT_2), _CMP_GT_OQ);
        m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), big);
        e = _mm256_add_pd(e, _mm256_and_pd(big, one));
        let s = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
        let p = horner4(_mm256_mul_pd(s, s), &ATANH);
        let hi = _mm256_mul_pd(e, _mm256_set1_pd(LN2_HI));
        let lo = _mm256_mul_pd(e, _mm256_set1_pd(LN2_LO));
        let two_s = _mm256_mul_pd(_mm256_set1_pd(2.0), s);
        _mm256_add_pd(hi, _mm256_add_pd(lo, _mm256_mul_pd(two_s, p)))
    }

    /// Four lanes of `normal::sincos_2pi`, same op sequence; the quadrant
    /// swap and sign flips are blends and sign-bit XORs.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sincos_2pi4(u: __m256d) -> (__m256d, __m256d) {
        let j = _mm256_floor_pd(_mm256_add_pd(
            _mm256_mul_pd(_mm256_set1_pd(4.0), u),
            _mm256_set1_pd(0.5),
        ));
        let f = _mm256_sub_pd(u, _mm256_mul_pd(_mm256_set1_pd(0.25), j));
        let a = _mm256_mul_pd(f, _mm256_set1_pd(core::f64::consts::TAU));
        let a2 = _mm256_mul_pd(a, a);
        let s = _mm256_add_pd(a, _mm256_mul_pd(_mm256_mul_pd(a, a2), horner4(a2, &SIN)));
        let c = _mm256_add_pd(_mm256_set1_pd(1.0), _mm256_mul_pd(a2, horner4(a2, &COS)));
        let q1 = _mm256_cmp_pd(j, _mm256_set1_pd(1.0), _CMP_EQ_OQ);
        let q2 = _mm256_cmp_pd(j, _mm256_set1_pd(2.0), _CMP_EQ_OQ);
        let q3 = _mm256_cmp_pd(j, _mm256_set1_pd(3.0), _CMP_EQ_OQ);
        let swap = _mm256_or_pd(q1, q3);
        let sign = _mm256_set1_pd(-0.0);
        let sin = _mm256_blendv_pd(s, c, swap);
        let cos = _mm256_blendv_pd(c, s, swap);
        (
            _mm256_xor_pd(sin, _mm256_and_pd(_mm256_or_pd(q2, q3), sign)),
            _mm256_xor_pd(cos, _mm256_and_pd(_mm256_or_pd(q1, q2), sign)),
        )
    }

    /// Four lanes of `super::quantize`. `max(−1, x)` then `min(1, ·)`
    /// keep `x` as the second operand, which is the one x86 returns when
    /// it is NaN, so a NaN passes the clamp as it does in `f64::clamp`.
    /// `floor` of a NaN or of `a ≥ 2⁵²` is `a` itself, as the scalar
    /// branch picks; `k` is non-negative (or a NaN with the sign of
    /// `|v|`), so OR-ing in the sign of `v` is `copysign`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize4(x: __m256d, levels: __m256d, inv_levels: __m256d) -> __m256d {
        let clamped = _mm256_min_pd(_mm256_set1_pd(1.0), _mm256_max_pd(_mm256_set1_pd(-1.0), x));
        let v = _mm256_mul_pd(clamped, levels);
        let sign = _mm256_set1_pd(-0.0);
        let a = _mm256_andnot_pd(sign, v);
        let whole = _mm256_floor_pd(a);
        let tie_or_up = _mm256_cmp_pd(_mm256_sub_pd(a, whole), _mm256_set1_pd(0.5), _CMP_GE_OQ);
        let k = _mm256_add_pd(whole, _mm256_and_pd(tie_or_up, _mm256_set1_pd(1.0)));
        _mm256_mul_pd(_mm256_or_pd(k, _mm256_and_pd(v, sign)), inv_levels)
    }

    /// Four words as `rand::uniform_f64(w, lo, lo + span)` maps them,
    /// per lane: `k = w >> 11` exactly as an `f64`, then `k·2⁻⁵³` and
    /// `lo + span·unit`. AVX2 has no `u64 → f64` conversion, so the low
    /// 52 bits of `k` go under the exponent of 2⁵², which reads
    /// `2⁵² + (k mod 2⁵²)`: that is `k` when its top bit (bit 63 of `w`)
    /// is set, and `k + 2⁵²` otherwise, where 2⁵² is subtracted. Every
    /// step is exact, as the scalar conversion is.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn uniform4(w: __m256i, lo: __m256d, span: __m256d) -> __m256d {
        let two_pow_52 = _mm256_set1_pd(super::TWO_POW_52);
        let low = _mm256_or_si256(
            _mm256_and_si256(
                _mm256_srli_epi64(w, 11),
                _mm256_set1_epi64x(0x000F_FFFF_FFFF_FFFF),
            ),
            _mm256_castpd_si256(two_pow_52),
        );
        let top = _mm256_castsi256_pd(_mm256_cmpgt_epi64(_mm256_setzero_si256(), w));
        let k = _mm256_sub_pd(_mm256_castsi256_pd(low), _mm256_andnot_pd(top, two_pow_52));
        let unit = _mm256_mul_pd(k, _mm256_set1_pd(UNIT));
        _mm256_add_pd(lo, _mm256_mul_pd(span, unit))
    }

    /// # Safety
    ///
    /// The host must support AVX2. Memory accesses stay in bounds for
    /// any slices: the assert below covers every load and store.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_noise_quantize_impl(words: &[u64], p: &AdcNoise, block: &mut [Cplx]) {
        let n = block.len();
        // Step `c < n / 4` reads words `8c..8c + 8` and samples
        // `4c..4c + 4`, so this bounds every unaligned load and store.
        assert!(words.len() >= 2 * n);
        let pw = words.as_ptr() as *const __m256i;
        let pb = block.as_mut_ptr() as *mut f64;
        // `(lo, hi − lo)` of `u1` and `u2`, alternating as the words do.
        let lo = _mm256_setr_pd(f64::EPSILON, 0.0, f64::EPSILON, 0.0);
        let span = _mm256_setr_pd(1.0 - f64::EPSILON, 1.0 - 0.0, 1.0 - f64::EPSILON, 1.0 - 0.0);
        let sigma = _mm256_set1_pd(p.sigma);
        let dc = _mm256_set1_pd(p.dc_offset);
        let levels = _mm256_set1_pd(p.levels);
        let inv_levels = _mm256_set1_pd(p.inv_levels);
        let full = n / 4;
        for c in 0..full {
            // [u1₀, u2₀, u1₁, u2₁], [u1₂, u2₂, u1₃, u2₃] → per draw.
            let ua = uniform4(_mm256_loadu_si256(pw.add(2 * c)), lo, span);
            let ub = uniform4(_mm256_loadu_si256(pw.add(2 * c + 1)), lo, span);
            let (u1, u2) = deinterleave(ua, ub);
            let minus_two_ln = _mm256_mul_pd(_mm256_set1_pd(-2.0), ln_unit4(u1));
            let r = _mm256_mul_pd(sigma, _mm256_sqrt_pd(minus_two_ln));
            let (sin, cos) = sincos_2pi4(u2);

            let (re, im) = deinterleave(
                _mm256_loadu_pd(pb.add(8 * c)),
                _mm256_loadu_pd(pb.add(8 * c + 4)),
            );
            let re = _mm256_add_pd(_mm256_add_pd(re, dc), _mm256_mul_pd(r, cos));
            let im = _mm256_add_pd(im, _mm256_mul_pd(r, sin));
            let (qa, qb) = interleave(
                quantize4(re, levels, inv_levels),
                quantize4(im, levels, inv_levels),
            );
            _mm256_storeu_pd(pb.add(8 * c), qa);
            _mm256_storeu_pd(pb.add(8 * c + 4), qb);
        }
        super::scalar_noise_quantize(&words[8 * full..], p, &mut block[4 * full..]);
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn horner8(z: __m512d, coeffs: &[f64]) -> __m512d {
        let mut p = _mm512_set1_pd(coeffs[0]);
        for &k in &coeffs[1..] {
            p = _mm512_add_pd(_mm512_mul_pd(p, z), _mm512_set1_pd(k));
        }
        p
    }

    /// Eight words as `rand::uniform_f64(w, lo, hi)` maps them: `w >> 11`
    /// is below 2⁵³, so its `u64 → f64` conversion is exact, as the
    /// scalar cast is; then the same `lo + (hi − lo)·(k·2⁻⁵³)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn uniform8(w: __m512i, lo: f64, hi: f64) -> __m512d {
        let unit = _mm512_mul_pd(
            _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(w)),
            _mm512_set1_pd(UNIT),
        );
        _mm512_add_pd(
            _mm512_set1_pd(lo),
            _mm512_mul_pd(_mm512_set1_pd(hi - lo), unit),
        )
    }

    /// Eight lanes of `normal::ln_unit`, op for op. The exponent converts
    /// exactly (`cvtepu64_pd`); the √2 fold is a masked multiply by ½ and
    /// a masked `+ 1`, where the scalar code multiplies by 1 or ½ and
    /// adds 0 or 1 (`m·1 = m`, and `e + 0 = e` since `e ≤ −1` is never a
    /// zero).
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn ln_unit8(u: __m512d) -> __m512d {
        let one = _mm512_set1_pd(1.0);
        let bits = _mm512_castpd_si512(u);
        let e = _mm512_sub_pd(
            _mm512_cvtepu64_pd(_mm512_srli_epi64::<52>(bits)),
            _mm512_set1_pd(1023.0),
        );
        let m = _mm512_castsi512_pd(_mm512_or_si512(
            _mm512_and_si512(bits, _mm512_set1_epi64(0x000F_FFFF_FFFF_FFFF)),
            _mm512_set1_epi64(0x3FF0_0000_0000_0000),
        ));
        let big = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(m, _mm512_set1_pd(core::f64::consts::SQRT_2));
        let m = _mm512_mask_mul_pd(m, big, m, _mm512_set1_pd(0.5));
        let e = _mm512_mask_add_pd(e, big, e, one);
        let s = _mm512_div_pd(_mm512_sub_pd(m, one), _mm512_add_pd(m, one));
        let p = horner8(_mm512_mul_pd(s, s), &ATANH);
        let hi = _mm512_mul_pd(e, _mm512_set1_pd(LN2_HI));
        let lo = _mm512_mul_pd(e, _mm512_set1_pd(LN2_LO));
        let two_s = _mm512_mul_pd(_mm512_set1_pd(2.0), s);
        _mm512_add_pd(hi, _mm512_add_pd(lo, _mm512_mul_pd(two_s, p)))
    }

    /// Eight lanes of `normal::sincos_2pi`, op for op: `roundscale`
    /// toward −∞ is the scalar truncating cast (`4u + ½ > 0`), the
    /// quadrant swap is a mask blend and the sign flips masked XORs.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn sincos_2pi8(u: __m512d) -> (__m512d, __m512d) {
        let j = _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(
            _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(4.0), u), _mm512_set1_pd(0.5)),
        );
        let f = _mm512_sub_pd(u, _mm512_mul_pd(_mm512_set1_pd(0.25), j));
        let a = _mm512_mul_pd(f, _mm512_set1_pd(core::f64::consts::TAU));
        let a2 = _mm512_mul_pd(a, a);
        let s = _mm512_add_pd(a, _mm512_mul_pd(_mm512_mul_pd(a, a2), horner8(a2, &SIN)));
        let c = _mm512_add_pd(_mm512_set1_pd(1.0), _mm512_mul_pd(a2, horner8(a2, &COS)));
        let quadrant = |q: f64| _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(j, _mm512_set1_pd(q));
        let (q1, q2, q3) = (quadrant(1.0), quadrant(2.0), quadrant(3.0));
        let swap = q1 | q3;
        let sign = _mm512_set1_pd(-0.0);
        let sin = _mm512_mask_blend_pd(swap, s, c);
        let cos = _mm512_mask_blend_pd(swap, c, s);
        (
            _mm512_mask_xor_pd(sin, q2 | q3, sin, sign),
            _mm512_mask_xor_pd(cos, q1 | q2, cos, sign),
        )
    }

    /// Eight lanes of `super::quantize`, as [`quantize4`] does it:
    /// `max`/`min` keep a NaN `x` (the second operand), `roundscale`
    /// toward −∞ is `floor`, the tie adds 1 under a mask (the scalar
    /// code adds 0 or 1; `whole + 0` is `whole`, which is never −0), and
    /// OR-ing the sign of `v` into the non-negative `k` is `copysign`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn quantize8(x: __m512d, levels: __m512d, inv_levels: __m512d) -> __m512d {
        let clamped = _mm512_min_pd(_mm512_set1_pd(1.0), _mm512_max_pd(_mm512_set1_pd(-1.0), x));
        let v = _mm512_mul_pd(clamped, levels);
        let sign = _mm512_set1_pd(-0.0);
        let a = _mm512_andnot_pd(sign, v);
        let whole = _mm512_roundscale_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(a);
        let tie_or_up =
            _mm512_cmp_pd_mask::<_CMP_GE_OQ>(_mm512_sub_pd(a, whole), _mm512_set1_pd(0.5));
        let k = _mm512_mask_add_pd(whole, tie_or_up, whole, _mm512_set1_pd(1.0));
        _mm512_mul_pd(_mm512_or_pd(k, _mm512_and_pd(v, sign)), inv_levels)
    }

    /// Eight samples per step: the words of `u1` and `u2`, and the
    /// samples' I and Q, are split with two-source permutes, mapped,
    /// drawn and quantized as the scalar arm does per sample, and
    /// interleaved back. A tail of fewer than eight samples goes to the
    /// AVX2 kernel.
    ///
    /// # Safety
    ///
    /// The host must support AVX2, AVX-512F and AVX-512DQ. Memory
    /// accesses stay in bounds for any slices: the assert below covers
    /// every load and store.
    #[target_feature(enable = "avx2,avx512f,avx512dq")]
    unsafe fn avx512_noise_quantize_impl(words: &[u64], p: &AdcNoise, block: &mut [Cplx]) {
        let n = block.len();
        // Step `c < n / 8` reads words `16c..16c + 16` and samples
        // `8c..8c + 8`, so this bounds every unaligned load and store.
        assert!(words.len() >= 2 * n);
        let pw = words.as_ptr() as *const __m512i;
        let pb = block.as_mut_ptr() as *mut f64;
        let even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        let first = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
        let second = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
        let sigma = _mm512_set1_pd(p.sigma);
        let dc = _mm512_set1_pd(p.dc_offset);
        let levels = _mm512_set1_pd(p.levels);
        let inv_levels = _mm512_set1_pd(p.inv_levels);
        let full = n / 8;
        for c in 0..full {
            let wa = _mm512_loadu_si512(pw.add(2 * c));
            let wb = _mm512_loadu_si512(pw.add(2 * c + 1));
            let u1 = uniform8(_mm512_permutex2var_epi64(wa, even, wb), f64::EPSILON, 1.0);
            let u2 = uniform8(_mm512_permutex2var_epi64(wa, odd, wb), 0.0, 1.0);
            let minus_two_ln = _mm512_mul_pd(_mm512_set1_pd(-2.0), ln_unit8(u1));
            let r = _mm512_mul_pd(sigma, _mm512_sqrt_pd(minus_two_ln));
            let (sin, cos) = sincos_2pi8(u2);

            let xa = _mm512_loadu_pd(pb.add(16 * c));
            let xb = _mm512_loadu_pd(pb.add(16 * c + 8));
            let re = _mm512_permutex2var_pd(xa, even, xb);
            let im = _mm512_permutex2var_pd(xa, odd, xb);
            let re = _mm512_add_pd(_mm512_add_pd(re, dc), _mm512_mul_pd(r, cos));
            let im = _mm512_add_pd(im, _mm512_mul_pd(r, sin));
            let re = quantize8(re, levels, inv_levels);
            let im = quantize8(im, levels, inv_levels);
            _mm512_storeu_pd(pb.add(16 * c), _mm512_permutex2var_pd(re, first, im));
            _mm512_storeu_pd(pb.add(16 * c + 8), _mm512_permutex2var_pd(re, second, im));
        }
        avx2_noise_quantize_impl(&words[16 * full..], p, &mut block[8 * full..]);
    }

    /// Two butterflies on packed pairs: `t = v·w`, then `(u + t, u − t)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bfly4(u: __m256d, v: __m256d, w: __m256d) -> (__m256d, __m256d) {
        let t = cmul4(v, w);
        (_mm256_add_pd(u, t), _mm256_sub_pd(u, t))
    }

    /// The first two stages on four consecutive elements `[x0, x1]`,
    /// `[x2, x3]`: span 2 pairs `(x0, x1)`, `(x2, x3)` with `w1 = [T₁₀, T₁₀]`,
    /// then span 4 pairs `(x0, x2)`, `(x1, x3)` with `w2 = [T₂₀, T₂₁]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn first_two_stages(
        r0: __m256d,
        r1: __m256d,
        w1: __m256d,
        w2: __m256d,
    ) -> (__m256d, __m256d) {
        let (a, b) = bfly4(
            _mm256_permute2f128_pd(r0, r1, 0x20), // [x0, x2]
            _mm256_permute2f128_pd(r0, r1, 0x31), // [x1, x3]
            w1,
        );
        bfly4(
            _mm256_permute2f128_pd(a, b, 0x20), // [x0', x1']
            _mm256_permute2f128_pd(a, b, 0x31), // [x2', x3']
            w2,
        )
    }

    /// Every stage, two complexes per register. Stages are fused in
    /// registers: the first three on 8-element blocks, then pairs of
    /// stages (spans `2h` and `4h`) on 4-element columns, and a last
    /// single stage when an odd number remain. Each element still sees
    /// the scalar arm's butterflies in the scalar arm's order.
    ///
    /// # Safety
    ///
    /// The host must support AVX2, and `check_fft_shape` must hold: every
    /// pointer offset below is below `n` (data) or `n − 1` (twiddles).
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_fft_radix2_impl(data: &mut [Cplx], twiddles: &[Cplx]) {
        let n = data.len();
        if n < 4 {
            return super::scalar_fft_radix2(data, twiddles);
        }
        let p = data.as_mut_ptr() as *mut f64;
        let t = twiddles.as_ptr() as *const f64;
        // Complex element `i` of data / twiddles as a packed pair.
        let ld = |i: usize| _mm256_loadu_pd(p.add(2 * i));
        let st = |i: usize, v: __m256d| _mm256_storeu_pd(p.add(2 * i), v);
        let tw = |i: usize| _mm256_loadu_pd(t.add(2 * i));
        let w1 = _mm256_permute2f128_pd(tw(0), tw(0), 0x00); // [T₁₀, T₁₀]
        let w2 = tw(1);
        let mut half = if n == 4 {
            let (s0, s1) = first_two_stages(ld(0), ld(2), w1, w2);
            st(0, s0);
            st(2, s1);
            4
        } else {
            let (w4a, w4b) = (tw(3), tw(5));
            for b in (0..n).step_by(8) {
                let (s0, s1) = first_two_stages(ld(b), ld(b + 2), w1, w2);
                let (s2, s3) = first_two_stages(ld(b + 4), ld(b + 6), w1, w2);
                let (o0, o2) = bfly4(s0, s2, w4a);
                let (o1, o3) = bfly4(s1, s3, w4b);
                st(b, o0);
                st(b + 2, o1);
                st(b + 4, o2);
                st(b + 6, o3);
            }
            8
        };
        while half < n {
            if 2 * half < n {
                // Spans `2h` then `4h` over columns `k, k+h, k+2h, k+3h`.
                let (h, t1, t2) = (half, half - 1, 2 * half - 1);
                for b in (0..n).step_by(4 * h) {
                    for k in (0..h).step_by(2) {
                        let i = b + k;
                        let w = tw(t1 + k);
                        let (a1, b1) = bfly4(ld(i), ld(i + h), w);
                        let (c1, d1) = bfly4(ld(i + 2 * h), ld(i + 3 * h), w);
                        let (a2, c2) = bfly4(a1, c1, tw(t2 + k));
                        let (b2, d2) = bfly4(b1, d1, tw(t2 + k + h));
                        st(i, a2);
                        st(i + h, b2);
                        st(i + 2 * h, c2);
                        st(i + 3 * h, d2);
                    }
                }
                half *= 4;
            } else {
                let h = half;
                for b in (0..n).step_by(2 * h) {
                    for k in (0..h).step_by(2) {
                        let (lo, hi) = bfly4(ld(b + k), ld(b + k + h), tw(h - 1 + k));
                        st(b + k, lo);
                        st(b + k + h, hi);
                    }
                }
                half *= 2;
            }
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
    fn supported_arms_match_scalar_bitwise() {
        let s = Kernels::scalar();
        for (d, n) in Kernels::supported()
            .into_iter()
            .flat_map(|d| [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000].map(|n| (d, n)))
        {
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
    /// yields exactly 4.0 — the preamble scan's closed-form template energy.
    #[test]
    fn preamble_energy_is_exact() {
        let pulses = [0usize, 2, 7, 9];
        let mut t = vec![Cplx::ZERO; 16];
        for &p in &pulses {
            t[p] = Cplx::ONE;
        }
        assert_eq!((Kernels::scalar().energy)(&t), 4.0);
        for k in Kernels::supported() {
            assert_eq!((k.energy)(&t), 4.0, "{}", k.label);
        }
    }

    /// The dispatch label is one of the known arms and stable, and every
    /// arm's counter names its label.
    #[test]
    fn dispatch_label_is_stable() {
        let l = dispatch_label();
        assert!(["scalar", "avx2", "avx512"].contains(&l));
        assert_eq!(dispatch_label(), l);
        let arms = Kernels::supported();
        assert_eq!(arms[0].label, "scalar");
        assert_eq!(arms.last().unwrap().label, Kernels::detect().label);
        for k in arms {
            assert_eq!(k.counter, format!("dsp.dispatch.{}", k.label));
        }
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
