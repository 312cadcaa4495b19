//! Deterministic thread fan-out for the measurement pipelines.
//!
//! The survey, fleet-audit, and TV-sweep hot paths are all "independent
//! work items, order-stable results" shapes. [`par_map`] runs them on
//! scoped worker threads with an atomic work queue (good load balance
//! for uneven burst costs) and returns results **in item order**, so a
//! parallel caller produces output bit-identical to a serial one as long
//! as each item's computation is self-contained (e.g. derives its own
//! RNG stream instead of sharing one).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Derive an independent per-item RNG seed from a base seed and an item
/// index (SplitMix64 finalizer over their combination). Work items seeded
/// this way get decorrelated streams whose values depend only on
/// `(seed, index)` — never on which thread runs the item or in what
/// order — which is what makes parallel pipelines bit-identical to
/// serial ones.
pub fn derive_stream_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolve a user-facing parallelism knob: `0` means "all available
/// cores", anything else is used as given.
pub fn resolve_parallelism(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Map `f` over `items` on up to `threads` worker threads, returning the
/// results in input order. `f` receives `(index, &item)`.
///
/// `threads <= 1` (or a short input) runs inline with no thread setup,
/// so the serial path stays allocation- and synchronization-free. A
/// panic in any worker propagates to the caller.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.max(1).min(items.len()).max(1);
    let mut scratches = vec![(); workers];
    let mut slots = Vec::new();
    let mut out = Vec::with_capacity(items.len());
    par_map_with(
        items,
        threads,
        &mut scratches,
        &mut slots,
        &mut out,
        |i, t, ()| f(i, t),
    );
    out
}

/// A raw pointer into the result-slot buffer that workers write through.
/// Each slot index is claimed by exactly one worker (the atomic queue
/// hands out each index once), so the writes are disjoint; the thread
/// scope's join provides the happens-before edge back to the caller.
struct SlotWriter<R>(*mut Option<R>);

unsafe impl<R: Send> Send for SlotWriter<R> {}
unsafe impl<R: Send> Sync for SlotWriter<R> {}

/// [`par_map`] with per-worker scratch state and caller-owned result
/// buffers — the zero-allocation variant the burst pipelines run on.
///
/// * `scratches` — one scratch value per worker (at least one, and at
///   least as many as the effective thread count). Worker `w` gets
///   exclusive `&mut` access to `scratches[w]` for the whole call; with
///   `threads <= 1` every item runs inline on `scratches[0]`.
/// * `slots` — reusable staging buffer; its capacity is retained across
///   calls so steady-state calls never grow it.
/// * `out` — cleared and filled with the results in item order.
///
/// Ordering and panic behavior are identical to [`par_map`]; the only
/// difference is where results and intermediate state live. Once
/// `slots`/`out` capacities and every scratch are warm, a call performs
/// no heap allocation beyond what `f` itself does (and the fixed
/// per-call cost of spawning workers when `threads > 1`).
pub fn par_map_with<T, R, S, F>(
    items: &[T],
    threads: usize,
    scratches: &mut [S],
    slots: &mut Vec<Option<R>>,
    out: &mut Vec<R>,
    f: F,
) where
    T: Sync,
    R: Send,
    S: Send,
    F: Fn(usize, &T, &mut S) -> R + Sync,
{
    out.clear();
    if items.is_empty() {
        return;
    }
    assert!(
        !scratches.is_empty(),
        "par_map_with needs at least one scratch"
    );
    let threads = threads.max(1).min(items.len()).min(scratches.len());
    if threads <= 1 {
        let scratch = &mut scratches[0];
        out.extend(items.iter().enumerate().map(|(i, t)| f(i, t, scratch)));
        return;
    }

    let next = AtomicUsize::new(0);
    slots.clear();
    slots.resize_with(items.len(), || None);
    let writer = SlotWriter(slots.as_mut_ptr());
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = scratches
            .iter_mut()
            .take(threads)
            .map(|scratch| {
                let next = &next;
                let writer = &writer;
                s.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let r = f(i, item, scratch);
                        // SAFETY: `i < items.len() == slots.len()`, and the
                        // atomic queue yields each index to exactly one
                        // worker, so this write is in bounds and disjoint
                        // from every other worker's writes.
                        unsafe { *writer.0.add(i) = Some(r) };
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    out.extend(
        slots
            .drain(..)
            .map(|r| r.expect("every index was computed")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial_for_stateful_items() {
        // Each item derives its own deterministic stream from its index —
        // the pattern the survey pipeline uses for per-burst RNGs.
        let items: Vec<u64> = (0..64).collect();
        let work = |_: usize, &seed: &u64| {
            let mut h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD6E8_FEB8_6659_FD93;
            for _ in 0..100 {
                h ^= h >> 33;
                h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            }
            h
        };
        let serial = par_map(&items, 1, work);
        let parallel = par_map(&items, 8, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, 4, |_, &x| {
                if x == 17 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn resolve_parallelism_zero_is_auto() {
        assert!(resolve_parallelism(0) >= 1);
        assert_eq!(resolve_parallelism(3), 3);
    }

    #[test]
    fn par_map_with_matches_par_map_and_reuses_buffers() {
        let items: Vec<u64> = (0..500).collect();
        let expect = par_map(&items, 4, |i, &x| x * 3 + i as u64);
        let mut scratches = vec![0u64; 8];
        let mut slots = Vec::new();
        let mut out = Vec::new();
        for threads in [1usize, 2, 8] {
            par_map_with(
                &items,
                threads,
                &mut scratches,
                &mut slots,
                &mut out,
                |i, &x, s| {
                    *s += 1; // scratch is usable per-worker state
                    x * 3 + i as u64
                },
            );
            assert_eq!(out, expect, "threads {threads}");
        }
        // Scratch state accumulated across calls: total work = 3 × items.
        assert_eq!(scratches.iter().sum::<u64>(), 3 * items.len() as u64);
    }

    #[test]
    fn par_map_with_serial_uses_first_scratch_only() {
        let items = [1u32, 2, 3];
        let mut scratches = vec![Vec::<u32>::new(), Vec::new()];
        let (mut slots, mut out) = (Vec::new(), Vec::new());
        par_map_with(
            &items,
            1,
            &mut scratches,
            &mut slots,
            &mut out,
            |_, &x, s| {
                s.push(x);
                x
            },
        );
        assert_eq!(scratches[0], vec![1, 2, 3]);
        assert!(scratches[1].is_empty());
    }

    #[test]
    fn par_map_with_empty_items() {
        let items: Vec<u32> = vec![];
        let mut scratches = vec![(); 1];
        let (mut slots, mut out) = (Vec::new(), Vec::<u32>::new());
        out.push(9); // must be cleared
        par_map_with(
            &items,
            4,
            &mut scratches,
            &mut slots,
            &mut out,
            |_, &x, ()| x,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_with_worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            let mut scratches = vec![(); 4];
            let (mut slots, mut out) = (Vec::new(), Vec::new());
            par_map_with(
                &items,
                4,
                &mut scratches,
                &mut slots,
                &mut out,
                |_, &x, ()| {
                    if x == 33 {
                        panic!("boom");
                    }
                    x
                },
            );
            out
        });
        assert!(result.is_err());
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 42, u64::MAX] {
            for idx in 0..1000u64 {
                assert!(
                    seen.insert(derive_stream_seed(seed, idx)),
                    "collision at {seed}/{idx}"
                );
                assert_eq!(derive_stream_seed(seed, idx), derive_stream_seed(seed, idx));
            }
        }
    }
}
