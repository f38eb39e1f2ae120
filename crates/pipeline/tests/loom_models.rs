//! loom-lite interleaving models of the pipeline's two query protocols.
//!
//! These are distilled re-implementations of the shared-state protocols in
//! `src/sharded.rs` and `src/live.rs`, built directly on `loom_lite::sync`
//! so they run (and exhaust their bounded schedule space) under a plain
//! `cargo test`.  The real types can additionally be compiled against the
//! modeled primitives with `--features loom-lite`; the distilled models
//! exist because the real ingest path spawns OS worker threads and blocks
//! on `mpsc` channels, which a schedule explorer cannot preempt — so the
//! models keep the protocol (who publishes what, in which order, under
//! which lock) and drop the channel plumbing that FIFO order makes
//! deterministic anyway.
//!
//! 1. **Monotone-epoch snapshot acquisition** (`LiveHandle::snapshot` /
//!    `acknowledged`): workers only ever advance their per-shard `applied`
//!    counters, and a snapshot sums per-shard prefixes; successive sums
//!    through one handle must never decrease.
//! 2. **Seal-window retry** (`LiveHandle::snapshot` racing
//!    `ShardedPipeline::rescale`): a query that races a rescale retries
//!    against the freshly published generation, and epochs stay monotone
//!    because sealing folds the stopped generation's acknowledged items
//!    into the sealed count in the same publish that replaces it.

use loom_lite::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom_lite::sync::{Arc, RwLock};
use loom_lite::{thread, Builder};

/// Model 1: the monotone-epoch protocol of `LiveHandle`.
///
/// Two shard workers advance their `ShardProgress::applied` counters (each
/// store models "batch applied, progress published"); the handle takes
/// successive snapshots, each summing the per-shard counters exactly as
/// `LiveHandle::acknowledged` does.  Because every counter is monotone and
/// each is read once per snapshot, the sums must be non-decreasing — the
/// property `SnapshotView::epoch` relies on for staleness accounting.
#[test]
fn live_handle_epochs_are_monotone() {
    let report = Builder::default().preemption_bound(3).check(|| {
        let shard0 = Arc::new(AtomicU64::new(0));
        let shard1 = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = [&shard0, &shard1]
            .into_iter()
            .map(|shard| {
                let applied = Arc::clone(shard);
                thread::spawn(move || {
                    for batch in 1..=2u64 {
                        applied.store(batch, Ordering::Release);
                    }
                })
            })
            .collect();
        // The handle: successive epoch reads must never go backwards.
        let mut last_epoch = 0;
        for _ in 0..3 {
            let epoch = shard0.load(Ordering::Acquire) + shard1.load(Ordering::Acquire);
            assert!(
                epoch >= last_epoch,
                "epoch went backwards: {epoch} < {last_epoch}"
            );
            last_epoch = epoch;
        }
        for worker in workers {
            worker.join().ok();
        }
        let final_epoch = shard0.load(Ordering::Acquire) + shard1.load(Ordering::Acquire);
        assert!(final_epoch >= last_epoch, "epoch went backwards at the end");
        assert_eq!(final_epoch, 4, "after joins every batch is visible");
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.interleavings >= 1_000, "{}", report.interleavings);
}

/// One generation of the distilled elastic pipeline: the live worker set's
/// progress counter plus the flag a seal raises when the set stops.
struct Generation {
    applied: AtomicU64,
    dead: AtomicBool,
}

/// What `LiveHandle` reads under the `RwLock` (the pipeline's published
/// state): the epoch base (items acknowledged by sealed generations) and
/// the live generation.  `rescale` republishes both together under the
/// write lock.
struct SharedState {
    base_epoch: u64,
    generation: u64,
    live: Arc<Generation>,
}

/// Runs the distilled producer: gen-0 ingest, then the seal (drain, go
/// dark, fold into the base, publish gen 1), then gen-1 ingest.
///
/// The seal's internal order mirrors `ShardedPipeline::rescale`, where
/// stopping the old workers runs *before* the write-lock publish: the
/// drained count is captured, the generation goes dark (`dead`), its
/// counter is invalidated (the real sketch is *moved out* when its worker
/// stops, so reads after death return garbage — modeled as a store of
/// `POISON`), and only then are base/generation/live republished together
/// under the write lock.
fn run_producer(shared: &Arc<RwLock<SharedState>>, gen0: &Arc<Generation>, gen1_items: u64) {
    for item in 1..=GEN0_ITEMS {
        gen0.applied.store(item, Ordering::Release);
    }
    // Drain is complete (this thread wrote every batch): capture the count.
    let final0 = gen0.applied.load(Ordering::Acquire);
    // Workers stop: the generation goes dark *before* its data becomes
    // invalid, so a reader that got a garbage value is guaranteed to see
    // `dead == true` afterwards and retry.
    gen0.dead.store(true, Ordering::Release);
    gen0.applied.store(POISON, Ordering::Release);
    let gen1 = Arc::new(Generation {
        applied: AtomicU64::new(0),
        dead: AtomicBool::new(false),
    });
    {
        let mut state = shared.write().expect("poisoning is not modeled");
        state.base_epoch += final0;
        state.generation += 1;
        state.live = Arc::clone(&gen1);
    }
    for item in 1..=gen1_items {
        gen1.applied.store(item, Ordering::Release);
    }
}

const GEN0_ITEMS: u64 = 2;
/// Stands in for the garbage a dead generation's moved-out state yields.
const POISON: u64 = 1_000;

/// Model 2: the seal-window retry protocol of `LiveHandle::snapshot`.
///
/// The querier does what the real handle does: copy the shared state under
/// the read lock, release it, read the live generation's progress, and
/// only *then* check whether that generation died — if it did, the value
/// may be garbage (the seal moved the data out), so retry against the
/// republished state.  Checked invariants: epochs never decrease across
/// the rescale, and after the join the final epoch counts every item
/// exactly once (nothing lost or double-counted by the seal).
#[test]
fn elastic_seal_window_retry_keeps_epochs_monotone() {
    const GEN1_ITEMS: u64 = 1;
    // Two threads only, so a deeper preemption bound is affordable — and
    // needed to push past 1,000 distinct interleavings.
    let report = Builder::default().preemption_bound(4).check(|| {
        let gen0 = Arc::new(Generation {
            applied: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        });
        let shared = Arc::new(RwLock::new(SharedState {
            base_epoch: 0,
            generation: 0,
            live: Arc::clone(&gen0),
        }));
        // Worker + rescaler, fused so the model mirrors the real control
        // flow: `rescale` runs on the ingest thread, between pushes.
        let producer_shared = Arc::clone(&shared);
        let producer = thread::spawn(move || {
            run_producer(&producer_shared, &gen0, GEN1_ITEMS);
        });

        // The handle: snapshot with dead-checked-last retry, exactly like
        // `LiveHandle::snapshot` (sleep replaced by a modeled yield).
        let mut last_epoch = 0;
        for _ in 0..2 {
            let epoch = loop {
                let (base, live) = {
                    let state = shared.read().expect("poisoning is not modeled");
                    (state.base_epoch, Arc::clone(&state.live))
                };
                let applied = live.applied.load(Ordering::Acquire);
                if live.dead.load(Ordering::Acquire) {
                    // Raced the seal window: the generation died under us,
                    // so `applied` may be garbage.  Retry against the
                    // republished state.
                    thread::yield_now();
                    continue;
                }
                break base + applied;
            };
            assert!(
                epoch >= last_epoch,
                "epoch went backwards: {epoch} < {last_epoch}"
            );
            assert!(epoch <= GEN0_ITEMS + GEN1_ITEMS, "epoch counts garbage");
            last_epoch = epoch;
        }

        producer.join().ok();
        let state = shared.read().expect("poisoning is not modeled");
        let final_epoch = state.base_epoch + state.live.applied.load(Ordering::Acquire);
        assert_eq!(
            final_epoch,
            GEN0_ITEMS + GEN1_ITEMS,
            "seal lost or double-counted items"
        );
        assert_eq!(state.generation, 1);
        assert!(final_epoch >= last_epoch);
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.complete, "schedule space must be exhausted");
    assert!(report.interleavings >= 1_000, "{}", report.interleavings);
}

/// The retry protocol's load-bearing detail: `dead` must be checked
/// *after* reading `applied`.  The variant that checks liveness *first*
/// has a window between the check and the read where the seal can kill
/// the generation and move its data out, so the querier computes an epoch
/// from garbage — the checker must find that interleaving.
#[test]
fn checker_catches_liveness_check_before_snapshot() {
    let report = Builder::default().check(|| {
        let gen0 = Arc::new(Generation {
            applied: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        });
        let shared = Arc::new(RwLock::new(SharedState {
            base_epoch: 0,
            generation: 0,
            live: Arc::clone(&gen0),
        }));
        let producer_shared = Arc::clone(&shared);
        let producer = thread::spawn(move || {
            run_producer(&producer_shared, &gen0, 1);
        });
        let (base, live) = {
            let state = shared.read().expect("poisoning is not modeled");
            (state.base_epoch, Arc::clone(&state.live))
        };
        // BUG under test: liveness checked before the progress read.  The
        // yield widens the window so the explorer can land the whole seal
        // between the check and the read.
        if !live.dead.load(Ordering::Acquire) {
            thread::yield_now();
            let applied = live.applied.load(Ordering::Acquire);
            let epoch = base + applied;
            assert!(
                epoch <= GEN0_ITEMS + 1,
                "epoch computed from a dead generation's garbage: {epoch}"
            );
        }
        producer.join().ok();
    });
    let failure = report
        .failure
        .expect("the garbage-epoch interleaving must be found");
    assert!(failure.message.contains("garbage"), "{}", failure.message);
}
