//! Allocation-discipline gate for the steady-state serving and ingest hot
//! paths.
//!
//! The zero-allocation contract (see README "Hot path & allocation
//! discipline"): once a live pipeline's snapshot arena and a merge
//! helper's scratch are warm, point queries served through the serve
//! path's view cache, a zero-window [`Coalescer`](salsa_serve::Coalescer)
//! — before and after the pipeline rescales under the same handle — and
//! helper-based shard
//! merges (simple and compact encoding) and subtractions into a refreshed
//! destination buffer touch the heap **zero times**; so do batched
//! updates into a warm SALSA CMS (simple and compact encoding) and
//! resetting it.  This test proves it with a
//! counting `#[global_allocator]` rather than asserting it from code
//! review: any `Vec` growth, `clone`, or box sneaking back into the
//! serve/merge/ingest path fails the count.
//!
//! All phases live in one `#[test]` on purpose — the allocation counter
//! is process-global, so concurrently running test threads would pollute
//! each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use salsa_core::traits::MergeOp;
use salsa_integration_tests::view_cache;
use salsa_pipeline::{MergeHelper, PipelineConfig, ShardedPipeline};
use salsa_serve::CachePolicy;
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

/// Counts every heap allocation in the process.  Frees are not counted:
/// the discipline under test is "no fresh memory on the hot path".
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards verbatim to the system allocator; the
// relaxed counter bump has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const SHARDS: usize = 4;
const DEPTH: usize = 4;
const WIDTH: usize = 1 << 12;
const SEED: u64 = 7;
const QUERIES: usize = 256;
const MERGES: usize = 64;
const INGEST_BATCHES: usize = 256;
const INGEST_BATCH: usize = 1_024;

fn cms() -> CountMin<SalsaRow> {
    CountMin::salsa(DEPTH, WIDTH, 8, MergeOp::Sum, SEED)
}

fn compact_cms() -> CountMin<SalsaRow<LayoutCodes>> {
    CountMin::salsa_compact(DEPTH, WIDTH, 8, MergeOp::Sum, SEED)
}

#[test]
fn steady_state_queries_and_merges_do_not_allocate() {
    let items = TraceSpec::Zipf {
        universe: 10_000,
        skew: 1.0,
    }
    .generate(50_000, SEED)
    .items()
    .to_vec();

    // --- Phase 1: cached point queries against a live pipeline. ---
    let config = PipelineConfig::new(SHARDS);
    let mut pipeline = ShardedPipeline::new(&config, |_| cms());
    pipeline.extend(&items);
    let handle = pipeline.live_handle();
    let cached = view_cache(
        handle.clone(),
        CachePolicy::new(Duration::from_secs(3_600), u64::MAX),
    );

    // Warm-up: the first snapshot assembles (and allocates) the cached
    // view; every query below re-serves it.
    let view = cached.view().expect("pipeline is live");
    let mut sink = view.estimate(items[0]);
    drop(view);

    // Ingest is quiescent and the worker threads are parked on their
    // command channels, so the counter window isolates the serve path.
    let before = allocations();
    for i in 0..QUERIES {
        let view = cached.view().expect("pipeline is live");
        sink ^= view.estimate(items[i % items.len()]);
    }
    let query_allocs = allocations() - before;
    assert_eq!(
        query_allocs, 0,
        "steady-state cached point queries must not touch the heap \
         ({query_allocs} allocations across {QUERIES} queries)"
    );

    // --- Phase 2: cached point queries through the same handle after a
    // rescale: the served view folds the sealed generation, and a hit
    // resolves the live generation to measure its lag. ---
    pipeline.rescale(SHARDS / 2).expect("a real rescale");
    let cached = view_cache(
        handle,
        CachePolicy::new(Duration::from_secs(3_600), u64::MAX),
    );
    let view = cached.view().expect("pipeline is live");
    assert_eq!(view.generation(), 1, "the view spans the rescale");
    sink ^= view.estimate(items[0]);
    drop(view);

    let before = allocations();
    for i in 0..QUERIES {
        let view = cached.view().expect("pipeline is live");
        sink ^= view.estimate(items[i % items.len()]);
    }
    let rescaled_allocs = allocations() - before;
    assert_eq!(
        rescaled_allocs, 0,
        "cached point queries after a rescale must not touch the heap \
         ({rescaled_allocs} allocations across {QUERIES} queries)"
    );
    std::hint::black_box(sink);

    let out = pipeline.finish();
    assert_eq!(out.items as usize, items.len());

    // --- Phase 3: helper-based shard merges, and subtractions, into a
    // warm destination. ---
    let (left, right) = items.split_at(items.len() / 2);
    let mut base = cms();
    let mut other = cms();
    for &item in left {
        base.update(item, 1);
    }
    for &item in right {
        other.update(item, 1);
    }

    // Warm-up: one refresh+merge cycle sizes the destination buffer and
    // the helper's scratch; steady state repeats the cycle for free.
    let mut helper = MergeHelper::new();
    let mut dst = base.clone();
    dst.merge_with_helper(&other, &mut helper);

    let before = allocations();
    for _ in 0..MERGES {
        dst.copy_from(&base);
        dst.merge_with_helper(&other, &mut helper);
    }
    let merge_allocs = allocations() - before;
    assert_eq!(
        merge_allocs, 0,
        "helper-based merges into a warm buffer must not touch the heap \
         ({merge_allocs} allocations across {MERGES} merges)"
    );

    // The refreshed-and-merged sketch answers like a fresh full merge.
    let mut reference = base.clone();
    reference.merge_from(&other);
    for &item in items.iter().take(64) {
        assert_eq!(dst.estimate(item), reference.estimate(item));
    }

    // The same cycle over compact-encoding sketches, whose word fold marks
    // newly merged counters in the layout codes.
    let mut compact_base = compact_cms();
    let mut compact_other = compact_cms();
    for &item in left {
        compact_base.update(item, 1);
    }
    for &item in right {
        compact_other.update(item, 1);
    }
    let mut compact_dst = compact_base.clone();
    compact_dst.merge_with_helper(&compact_other, &mut helper);

    let before = allocations();
    for _ in 0..MERGES {
        compact_dst.copy_from(&compact_base);
        compact_dst.merge_with_helper(&compact_other, &mut helper);
    }
    let compact_allocs = allocations() - before;
    assert_eq!(
        compact_allocs, 0,
        "helper-based compact-encoding merges into a warm buffer must not \
         touch the heap ({compact_allocs} allocations across {MERGES} merges)"
    );
    let mut compact_reference = compact_base.clone();
    compact_reference.merge_from(&compact_other);
    for &item in items.iter().take(64) {
        assert_eq!(compact_dst.estimate(item), compact_reference.estimate(item));
    }

    // Refresh-and-subtract cycles: the union minus one operand, folded
    // into the warm destination.
    dst.copy_from(&reference);
    dst.subtract(&other);

    let before = allocations();
    for _ in 0..MERGES {
        dst.copy_from(&reference);
        dst.subtract(&other);
    }
    let subtract_allocs = allocations() - before;
    assert_eq!(
        subtract_allocs, 0,
        "subtracting into a warm buffer must not touch the heap \
         ({subtract_allocs} allocations across {MERGES} subtractions)"
    );
    let mut difference = reference.clone();
    difference.subtract(&other);
    for &item in items.iter().take(64) {
        assert_eq!(dst.estimate(item), difference.estimate(item));
    }

    // --- Phase 4: batched ingest into warm SALSA CMSs, then reset. ---
    let mut simple = cms();
    let mut compact = compact_cms();
    let mut batches = items.chunks_exact(INGEST_BATCH).cycle();
    // Warm-up: the first batch sizes each sketch's bucket scratch.
    let warm = batches.next().expect("the stream holds a full batch");
    simple.update_batch(warm);
    compact.update_batch(warm);

    let before = allocations();
    for batch in batches.by_ref().take(INGEST_BATCHES) {
        simple.update_batch(batch);
    }
    for batch in batches.by_ref().take(INGEST_BATCHES) {
        compact.update_batch(batch);
    }
    let ingest_allocs = allocations() - before;
    assert_eq!(
        ingest_allocs,
        0,
        "batched ingest into warm SALSA CMSs must not touch the heap \
         ({ingest_allocs} allocations across {} batches)",
        2 * INGEST_BATCHES
    );
    assert!(simple.estimate(items[0]) > 0 && compact.estimate(items[0]) > 0);

    let before = allocations();
    simple.reset();
    compact.reset();
    let reset_allocs = allocations() - before;
    assert_eq!(
        reset_allocs, 0,
        "resetting a SALSA CMS must not touch the heap ({reset_allocs} allocations)"
    );
    assert_eq!(simple.estimate(items[0]), 0);
    assert_eq!(compact.estimate(items[0]), 0);
}
