//! A counting `#[global_allocator]`: the system allocator plus a count of
//! every allocation, process-wide and per thread, so a binary can measure
//! its allocations rather than assert them from code review.  Frees are not
//! counted: the discipline measured is "no fresh memory on the hot path".
//!
//! This file is not a module of `salsa-bench`'s library, which forbids
//! `unsafe` code like every library crate.  The binaries that install it
//! (`fig_live_query`, `fig_serve` and the `alloc_discipline` test) include
//! it from their crate roots with `#[path]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's share of `ALLOCATIONS`.  Const-initialized and
    /// without a destructor, so reading it never allocates.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards verbatim to the system allocator; the
// counter bumps (a relaxed atomic and a thread-local `Cell`, neither of
// which allocates) have no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: pure delegation; the contract is `System`'s own.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: pure delegation; the contract is `System`'s own.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: pure delegation; the contract is `System`'s own.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: pure delegation; the contract is `System`'s own.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap allocations made by the calling thread so far.
#[allow(dead_code)] // Only `alloc_discipline` counts per thread.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}
