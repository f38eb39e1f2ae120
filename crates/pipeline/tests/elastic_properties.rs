//! Property-based tests of generation-based resharding.
//!
//! The elastic control plane's correctness claim is strong: rescaling is
//! *invisible* to sum-merge queries.  Whatever sequence of grows and
//! shrinks happens mid-stream — including back-to-back rescales with
//! nothing pushed in between — the final merged sketch must be
//! **counter-identical** (every bucket of every row equal, i.e.
//! byte-identical state) to the single unsharded sketch of the same
//! stream, and every producer-side snapshot must sit exactly at the pushed
//! epoch and equal the unsharded prefix sketch.

use proptest::prelude::*;
use salsa_core::prelude::*;
use salsa_pipeline::{PipelineConfig, ShardedPipeline};
use salsa_sketches::prelude::*;

const UNIVERSE: u64 = 300;

fn make_sketch() -> impl FnMut(usize) -> CountMin<SimpleSalsaRow> + Send + 'static {
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

/// Every bucket of every row equal — byte-identical sketch state, a
/// strictly stronger check than equal estimates.
fn assert_counter_identical(
    a: &CountMin<SimpleSalsaRow>,
    b: &CountMin<SimpleSalsaRow>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.depth(), b.depth());
    for (row_index, (ra, rb)) in a.rows().iter().zip(b.rows().iter()).enumerate() {
        prop_assert_eq!(ra.width(), rb.width());
        for idx in 0..ra.width() {
            prop_assert_eq!(
                ra.read(idx),
                rb.read(idx),
                "row {} bucket {} diverged",
                row_index,
                idx
            );
        }
    }
    Ok(())
}

/// Drives a [`ShardedPipeline`] through an arbitrary rescale schedule:
/// feed up to each cut, rescale to the scheduled shard count (possibly a
/// no-op, possibly back-to-back with zero items in between), snapshot, and
/// verify the snapshot against the unsharded prefix; then finish and
/// verify counter-identity with the unsharded full stream.
fn check_rescale_schedule(
    items: &[u64],
    schedule: &[(usize, usize)],
    initial_shards: usize,
) -> Result<(), TestCaseError> {
    let config = PipelineConfig::new(initial_shards).batch_size(32);
    let mut schedule: Vec<(usize, usize)> = schedule
        .iter()
        .map(|&(cut, shards)| (cut.min(items.len()), shards))
        .collect();
    schedule.sort_unstable_by_key(|&(cut, _)| cut);

    let mut pipeline = ShardedPipeline::new(&config, make_sketch());
    let mut fed = 0usize;
    let mut rescales = 0u64;
    for &(cut, shards) in &schedule {
        pipeline.extend(&items[fed..cut.max(fed)]);
        fed = cut.max(fed);
        if pipeline.rescale(shards).is_some() {
            rescales += 1;
        }
        prop_assert_eq!(pipeline.shards(), shards.max(1));
        prop_assert_eq!(pipeline.generation(), rescales);
        let view = pipeline
            .snapshot()
            .expect("a healthy pipeline serves views");
        prop_assert_eq!(view.epoch(), fed as u64);
        prop_assert_eq!(view.generation(), rescales);
        let prefix = unsharded(&items[..fed]);
        for item in 0..UNIVERSE {
            prop_assert_eq!(view.estimate(item), prefix.estimate(item) as i64);
        }
    }
    pipeline.extend(&items[fed..]);
    let out = pipeline.finish();
    prop_assert_eq!(out.items, items.len() as u64);
    prop_assert_eq!(out.rescales() as u64, rescales);
    prop_assert_eq!(out.events.len() as u64, rescales);
    assert_counter_identical(&out.merged, &unsharded(items))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn arbitrary_rescales_are_invisible_by_key(
        items in prop::collection::vec(0u64..UNIVERSE, 1..400),
        schedule in prop::collection::vec((0usize..400, 0usize..6), 0..5),
        initial_shards in 1usize..5,
    ) {
        check_rescale_schedule(&items, &schedule, initial_shards)?;
    }

    #[test]
    fn helper_based_folds_are_invisible_across_1_3_2_rescale(
        items in prop::collection::vec(0u64..UNIVERSE, 3..400),
        cut_a in 0usize..400,
        cut_b in 0usize..400,
    ) {
        // The fixed 1 → 3 → 2 schedule exercised by the zero-allocation
        // work: every merge on this path — the sealed-generation folds on
        // rescale, and the consumer handle's rebase of live views over
        // sealed state — goes through `merge_with_helper` into reused
        // scratch, and must stay byte-identical to the one-shot merges it
        // replaced.  The same handle takes both snapshots, so its arena
        // and helper are reused across the generation bump.
        let (first, second) = {
            let a = cut_a.min(items.len());
            let b = cut_b.min(items.len());
            (a.min(b), a.max(b))
        };
        let config = PipelineConfig::new(1).batch_size(32);
        let mut pipeline = ShardedPipeline::new(&config, make_sketch());
        let handle = pipeline.live_handle();

        pipeline.extend(&items[..first]);
        pipeline.rescale(3);
        let view = handle.snapshot().expect("pipeline is live");
        prop_assert_eq!(view.epoch(), first as u64);
        let prefix = unsharded(&items[..first]);
        for item in 0..UNIVERSE {
            prop_assert_eq!(view.estimate(item), prefix.estimate(item) as i64, "item {}", item);
        }

        pipeline.extend(&items[first..second]);
        pipeline.rescale(2);
        let view = handle.snapshot().expect("pipeline is live");
        prop_assert_eq!(view.epoch(), second as u64);
        let prefix = unsharded(&items[..second]);
        for item in 0..UNIVERSE {
            prop_assert_eq!(view.estimate(item), prefix.estimate(item) as i64, "item {}", item);
        }

        pipeline.extend(&items[second..]);
        let out = pipeline.finish();
        prop_assert_eq!(out.items, items.len() as u64);
        assert_counter_identical(&out.merged, &unsharded(&items))?;
    }

    #[test]
    fn back_to_back_rescales_with_no_items_between(
        items in prop::collection::vec(0u64..UNIVERSE, 1..300),
        cut in 0usize..300,
        counts in prop::collection::vec(1usize..6, 2..5),
    ) {
        // All rescales happen at one stream position, one directly after
        // the other: generations of zero items must still seal cleanly.
        let cut = cut.min(items.len());
        let config = PipelineConfig::new(2).batch_size(16);
        let mut pipeline = ShardedPipeline::new(&config, make_sketch());
        pipeline.extend(&items[..cut]);
        for &count in &counts {
            pipeline.rescale(count);
        }
        let view = pipeline.snapshot().expect("a healthy pipeline serves views");
        prop_assert_eq!(view.epoch(), cut as u64);
        pipeline.extend(&items[cut..]);
        let out = pipeline.finish();
        prop_assert_eq!(out.items, items.len() as u64);
        assert_counter_identical(&out.merged, &unsharded(&items))?;
    }
}
