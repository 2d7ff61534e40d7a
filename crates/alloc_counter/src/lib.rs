//! A counting [`GlobalAlloc`] wrapper for zero-allocation tests.
//!
//! The hot control-plane paths (admission round trip, conflict
//! resolution, ADVERTISE/UPDATE processing) are specified to allocate
//! nothing in steady state: every buffer they touch is resident and
//! reuses its capacity. That property regresses silently — a stray
//! `collect()` or `clone()` compiles fine and only shows up as p99
//! jitter under load — so tests pin it with this allocator: install it
//! as `#[global_allocator]`, warm the path once (first calls may grow
//! resident buffers to their high-water mark), then assert
//! [`allocation_count`] does not move across subsequent events.
//!
//! The tally is per thread (a `const`-initialised `thread_local!`
//! `Cell`, so bumping it neither allocates nor registers a destructor):
//! a delta taken on one thread counts that thread's allocations only.
//! `cargo test` runs each `#[test]` on its own thread, so zero-allocation
//! tests need neither `--test-threads=1` nor a lock around the measured
//! section — the harness reporting a sibling test, or the sibling
//! itself, allocates on another thread. Work the measured closure hands
//! to a thread it spawns is, by the same rule, not counted.
//!
//! This crate is the workspace's only home for `unsafe`: implementing
//! `GlobalAlloc` requires it, and the production crates all
//! `#![forbid(unsafe_code)]`. The wrapper adds no behavior beyond the
//! tally — every call forwards verbatim to [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Number of `alloc`/`realloc` calls this thread has made. `dealloc`
    /// is deliberately not counted: freeing a buffer that was allocated
    /// during warm-up is benign, while any *new* allocation is the
    /// regression the tests hunt.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation against the calling thread. `try_with`: the
/// allocator must not panic, whatever state the thread is in.
fn tally() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// A [`System`]-backed allocator that counts allocations.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: arm_alloc_counter::CountingAlloc = arm_alloc_counter::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: every method forwards directly to `System`, which upholds the
// `GlobalAlloc` contract; the added thread-local tally does not touch
// the returned memory and, being `const`-initialised without a
// destructor, never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }
}

/// The calling thread's allocations (alloc + realloc + alloc_zeroed) so
/// far. Take a reading before and after the section under test, on the
/// same thread, and compare.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Run `f` and return how many allocations it performed on this thread.
pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocation_count();
    let out = f();
    (out, allocation_count() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Installed for this test binary so the counter actually ticks.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_vec_growth_and_not_reuse() {
        let (mut v, grew) = allocations_during(|| Vec::<u64>::with_capacity(64));
        assert!(grew >= 1, "with_capacity must allocate, counted {grew}");
        let (_, refill) = allocations_during(|| {
            for i in 0..64u64 {
                v.push(i);
            }
            v.clear();
            for i in 0..64u64 {
                v.push(i);
            }
        });
        assert_eq!(refill, 0, "reusing capacity must not allocate");
        let (_, boxed) = allocations_during(|| std::hint::black_box(Box::new(7u64)));
        assert!(boxed >= 1, "boxing must allocate, counted {boxed}");
    }

    #[test]
    fn another_threads_allocations_are_not_counted() {
        let (theirs, ours) = allocations_during(|| {
            std::thread::scope(|s| {
                let busy = || {
                    for i in 0..1000u64 {
                        std::hint::black_box(Box::new(i));
                    }
                };
                s.spawn(move || allocations_during(busy).1)
                    .join()
                    .expect("the counting thread does not panic")
            })
        });
        assert!(
            theirs >= 1000,
            "the spawned thread counts its own: {theirs}"
        );
        // What is counted here is the spawn itself (packet, handle, name).
        assert!(
            ours < 100,
            "{ours} foreign allocations leaked into the tally"
        );
    }
}
