//! Reusable scratch buffers for the per-burst hot paths.
//!
//! Every DSP kernel in this crate has an `_into` variant that writes into
//! caller-owned buffers instead of allocating fresh ones. [`DspScratch`]
//! is the companion pool those callers draw from: it hands out `Vec`s,
//! takes them back, and reuses their capacity on the next request, so a
//! steady-state loop (render one burst, decode it, return the buffers)
//! performs **zero heap allocations** once the pool is warm.
//!
//! Design rules (also documented in DESIGN.md §9):
//!
//! * **Ownership**: a buffer obtained with `take_*` is owned by the caller
//!   until it is handed back with `put_*`. Returning it is optional —
//!   a buffer that escapes (e.g. becomes part of a result) simply costs
//!   one warm-up allocation the next time the pool is asked for that
//!   size class.
//! * **Contents**: `take_*` returns a buffer of exactly the requested
//!   length, zero-filled. Callers never see stale data.
//! * **Reuse**: the pool is LIFO per element type, and always hands out
//!   the buffer with the largest capacity first, so mixed-size workloads
//!   (capture windows of varying cluster lengths) converge on a small set
//!   of max-sized buffers instead of thrashing.
//! * **Threading**: a pool is deliberately `!Sync`-shaped (all methods
//!   take `&mut self`); parallel pipelines give each worker its own pool
//!   via [`crate::par::par_map_with`], never share one.

use crate::Cplx;

/// A pool of reusable scratch buffers (complex and real).
#[derive(Debug, Default)]
pub struct DspScratch {
    cplx: Vec<Vec<Cplx>>,
    real: Vec<Vec<f64>>,
}

/// Pop the pooled buffer with the largest capacity, or a fresh one.
fn take_largest<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    if pool.is_empty() {
        return Vec::new();
    }
    let best = (0..pool.len())
        .max_by_key(|&i| pool[i].capacity())
        .expect("non-empty pool");
    pool.swap_remove(best)
}

impl DspScratch {
    /// An empty pool. The first `take_*` calls allocate (warm-up); after
    /// buffers have been `put_*` back, subsequent takes reuse them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a zero-filled complex buffer of exactly `len` samples.
    pub fn take_cplx(&mut self, len: usize) -> Vec<Cplx> {
        let mut buf = take_largest(&mut self.cplx);
        buf.clear();
        buf.resize(len, Cplx::ZERO);
        buf
    }

    /// Return a complex buffer to the pool for reuse.
    pub fn put_cplx(&mut self, buf: Vec<Cplx>) {
        self.cplx.push(buf);
    }

    /// Take a zero-filled real buffer of exactly `len` samples.
    pub fn take_real(&mut self, len: usize) -> Vec<f64> {
        let mut buf = take_largest(&mut self.real);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Return a real buffer to the pool for reuse.
    pub fn put_real(&mut self, buf: Vec<f64>) {
        self.real.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_exact_length() {
        let mut s = DspScratch::new();
        let mut b = s.take_cplx(16);
        assert_eq!(b.len(), 16);
        assert!(b.iter().all(|&x| x == Cplx::ZERO));
        b[3] = Cplx::ONE;
        s.put_cplx(b);
        // Reused buffer must come back zeroed, not with stale data.
        let b2 = s.take_cplx(8);
        assert_eq!(b2.len(), 8);
        assert!(b2.iter().all(|&x| x == Cplx::ZERO));
    }

    #[test]
    fn capacity_is_reused_not_reallocated() {
        let mut s = DspScratch::new();
        let b = s.take_real(1024);
        let ptr = b.as_ptr();
        s.put_real(b);
        // Same or smaller request must reuse the same backing storage.
        let b2 = s.take_real(512);
        assert_eq!(b2.as_ptr(), ptr);
        s.put_real(b2);
        let b3 = s.take_real(1024);
        assert_eq!(b3.as_ptr(), ptr);
    }

    #[test]
    fn largest_capacity_is_preferred() {
        let mut s = DspScratch::new();
        let small = s.take_cplx(4);
        let large = s.take_cplx(4096);
        s.put_cplx(small);
        s.put_cplx(large);
        let got = s.take_cplx(2048);
        assert!(got.capacity() >= 4096, "expected the large buffer back");
    }
}
