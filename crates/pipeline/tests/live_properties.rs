//! Property-based tests of the live snapshot path.
//!
//! The crucial invariant of serving queries mid-stream is that queries are
//! *free of side effects*: a snapshot clones shard state and merges the
//! clones, so interleaving any number of snapshots (or drains) with
//! ingestion must leave the final merged sketch byte-identical to the run
//! that never snapshotted.  On top of that, producer-side snapshots sit at
//! exactly the flushed epoch, epochs are monotone, and for sum-merge rows
//! each snapshot equals an unsharded sketch over the first `epoch` pushed
//! items.

use proptest::prelude::*;
use salsa_core::prelude::*;
use salsa_pipeline::{PipelineConfig, ShardedPipeline, SnapshotSummary};
use salsa_sketches::prelude::*;

const UNIVERSE: u64 = 300;

fn make_sketch() -> impl Fn(usize) -> CountMin<SimpleSalsaRow> + Copy {
    |_| CountMin::salsa(3, 128, 8, MergeOp::Sum, 77)
}

/// Feeds `items` through the batched hot path into one unsharded sketch.
fn unsharded(items: &[u64]) -> CountMin<SimpleSalsaRow> {
    let mut sketch = make_sketch()(0);
    for chunk in items.chunks(64) {
        sketch.ingest(chunk);
    }
    sketch
}

fn check_interleaved_snapshots(
    items: &[u64],
    cuts: &[usize],
    shards: usize,
) -> Result<(), TestCaseError> {
    let config = PipelineConfig::new(shards).batch_size(32);
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(items.len())).collect();
    cuts.sort_unstable();

    let mut pipeline = ShardedPipeline::new(&config, make_sketch());
    let mut fed = 0usize;
    let mut last_epoch = 0u64;
    for &cut in &cuts {
        pipeline.extend(&items[fed..cut.max(fed)]);
        fed = cut.max(fed);
        let view = pipeline
            .snapshot()
            .expect("a healthy pipeline serves views");
        // Producer-side snapshots land exactly on the flushed epoch, and
        // epochs never move backwards.
        prop_assert_eq!(view.epoch(), fed as u64);
        prop_assert!(view.epoch() >= last_epoch);
        last_epoch = view.epoch();
        // Sum-merge: the view equals the unsharded sketch over the first
        // `epoch` pushed items.
        let prefix = unsharded(&items[..fed]);
        for item in 0..UNIVERSE {
            prop_assert_eq!(view.estimate(item), prefix.estimate(item) as i64);
        }
    }
    pipeline.extend(&items[fed..]);
    let snapshotted = pipeline.finish();

    // A run that never snapshots must end in the identical merged state.
    let baseline = salsa_pipeline::run_sharded(&config, make_sketch(), items);
    for item in 0..UNIVERSE {
        prop_assert_eq!(
            snapshotted.merged.estimate(item),
            baseline.merged.estimate(item),
            "item {} ({} shards)",
            item,
            shards
        );
    }
    prop_assert_eq!(snapshotted.items, items.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn interleaved_snapshots_leave_no_trace_by_key(
        items in prop::collection::vec(0u64..UNIVERSE, 1..400),
        cuts in prop::collection::vec(0usize..400, 0..5),
        shards in 1usize..5,
    ) {
        check_interleaved_snapshots(&items, &cuts, shards)?;
    }

    #[test]
    fn merge_into_new_agrees_with_snapshot_merging(
        a in prop::collection::vec(0u64..UNIVERSE, 1..200),
        b in prop::collection::vec(0u64..UNIVERSE, 1..200),
    ) {
        // The SnapshotSummary assembly primitive: merging two prefix
        // sketches into a new one equals sketching the concatenation, and
        // leaves the operands untouched.
        let sa = unsharded(&a);
        let sb = unsharded(&b);
        let merged = SnapshotSummary::merge_into_new(&sa, &sb);
        let concat: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let direct = unsharded(&concat);
        let sa_untouched = unsharded(&a);
        for item in 0..UNIVERSE {
            prop_assert_eq!(merged.estimate(item), direct.estimate(item));
            prop_assert_eq!(sa.estimate(item), sa_untouched.estimate(item));
        }
        prop_assert!(SnapshotSummary::clone_cost_bytes(&sa) >= sa.size_bytes());
    }
}
