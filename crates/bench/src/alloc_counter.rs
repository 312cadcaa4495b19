//! Counting global allocator for the allocation-budget gate.
//!
//! [`CountingAllocator`] wraps [`std::alloc::System`] and counts every
//! allocation and allocated byte with relaxed atomics. Register it as the
//! `#[global_allocator]` in a binary or integration test, then bracket the
//! region of interest with [`AllocSnapshot::now`] and subtract:
//!
//! ```
//! #[global_allocator]
//! static ALLOC: aircal_bench::CountingAllocator = aircal_bench::CountingAllocator::new();
//! # fn hot_path() {}
//! # fn main() {
//!
//! let before = aircal_bench::AllocSnapshot::now();
//! hot_path();
//! let during = aircal_bench::AllocSnapshot::now() - before;
//! assert_eq!(during.allocs, 0);
//! # }
//! ```
//!
//! The counters are monotonic (never reset), so concurrent threads can
//! take snapshots without coordinating; `realloc` counts as one
//! allocation of the new size, `dealloc` is not counted. This matches
//! what the budget cares about: allocator round-trips on the hot path,
//! not live-heap accounting.
//!
//! Every allocation is also counted on its own thread:
//! [`AllocSnapshot::this_thread`] brackets a serial hot path without
//! picking up what other threads allocate meanwhile (a test harness
//! reporting on a test that just finished, for one).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialized and drop-free, so touching it from inside the
    // allocator never allocates.
    static THREAD: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD.try_with(|c| {
        let (allocs, total) = c.get();
        c.set((allocs + 1, total + bytes as u64));
    });
}

/// A [`GlobalAlloc`] wrapper over the system allocator that counts
/// allocations and bytes. Zero-sized and `const`-constructible so it can
/// be a `static` `#[global_allocator]`.
pub struct CountingAllocator;

impl CountingAllocator {
    /// Create the allocator (for the `#[global_allocator]` static).
    pub const fn new() -> Self {
        Self
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: pure delegation to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Monotonic counter reading: allocations and bytes since process start.
/// Subtract two snapshots to get the cost of the code between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocator round-trips (`alloc` + `alloc_zeroed` + `realloc`).
    pub allocs: u64,
    /// Bytes requested across those round-trips.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Read the current process-wide counters.
    pub fn now() -> Self {
        Self {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Read the calling thread's counters: what this thread alone has
    /// allocated since it started.
    pub fn this_thread() -> Self {
        let (allocs, bytes) = THREAD.with(Cell::get);
        Self { allocs, bytes }
    }
}

impl std::ops::Sub for AllocSnapshot {
    type Output = AllocSnapshot;

    fn sub(self, rhs: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(rhs.allocs),
            bytes: self.bytes.saturating_sub(rhs.bytes),
        }
    }
}
