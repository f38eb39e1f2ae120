//! Property-based chaos tests: degraded views against ground truth.
//!
//! Faults trigger on shard-local applied counts, which under by-key
//! routing are a deterministic function of the stream, the routing and the
//! batching — so for *any* scripted panic schedule the
//! test can compute exactly which part of the stream survives and check
//! the degraded pipeline against it:
//!
//! * the merged output of the surviving shards is **byte-identical** to an
//!   unsharded sketch over exactly the items routed to surviving shards
//!   (sum-merge exactness is not weakened by deaths elsewhere);
//! * the coverage metadata matches ground truth: every item routed to a
//!   dead shard is accounted as lost, and a degraded snapshot's uncovered
//!   count is exactly what the dead incarnations had acknowledged before
//!   panicking.

use std::sync::Arc;

use proptest::prelude::*;
use salsa_core::prelude::*;
use salsa_pipeline::{silence_worker_panics, FaultPlan, PipelineConfig, ShardedPipeline};
use salsa_sketches::prelude::*;

const UNIVERSE: u64 = 300;
const SHARDS: usize = 4;

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

/// How many of a shard's sub-stream items survive a panic scripted at
/// `after_items`: full batches are applied until the first batch that
/// would cross the trigger, which panics *before* being applied.
fn survived_prefix(substream_len: usize, batch_size: usize, after_items: u64) -> u64 {
    let mut applied = 0u64;
    let mut remaining = substream_len;
    while remaining > 0 {
        let batch = remaining.min(batch_size) as u64;
        if applied + batch > after_items {
            return applied;
        }
        applied += batch;
        remaining -= batch as usize;
    }
    applied
}

fn check_panic_schedule(
    items: &[u64],
    schedule: &[(usize, u64)],
    batch_size: usize,
) -> Result<(), TestCaseError> {
    silence_worker_panics();
    let mut plan = FaultPlan::new();
    for &(shard, after_items) in schedule {
        plan = plan.panic_shard(shard, after_items);
    }
    let plan = Arc::new(plan);
    let config = PipelineConfig::new(SHARDS)
        .batch_size(batch_size)
        .chaos(Arc::clone(&plan));
    let mut pipeline = ShardedPipeline::new(&config, make_sketch());

    // Ground truth, from the same routing the pipeline uses: each shard's
    // sub-stream in arrival order.
    let mut substreams: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    for &item in items {
        substreams[pipeline.shard_of(item)].push(item);
    }
    // Items a dead shard acknowledged before its panic — uncovered in any
    // later view.  A fault whose trigger the sub-stream never reaches does
    // not fire, so that shard stays up and loses nothing.
    let mut acknowledged_lost = 0u64;
    let mut fired = Vec::new();
    for &(shard, after_items) in schedule {
        let substream = substreams[shard].len();
        if (substream as u64) > after_items {
            acknowledged_lost += survived_prefix(substream, batch_size, after_items);
            fired.push(shard);
        }
    }
    let survivor_items: Vec<u64> = items
        .iter()
        .copied()
        .filter(|&item| !fired.contains(&pipeline.shard_of(item)))
        .collect();
    let routed_to_fired: u64 = fired
        .iter()
        .map(|&shard| substreams[shard].len() as u64)
        .sum();

    pipeline.extend(items);
    let epoch = pipeline
        .try_drain()
        .expect("panicked shards degrade the drain, they don't wedge it");
    prop_assert_eq!(epoch, items.len() as u64);
    prop_assert_eq!(plan.fired(), fired.len());

    if !fired.is_empty() {
        let view = pipeline
            .snapshot()
            .expect("survivors keep serving degraded views");
        prop_assert!(view.is_degraded());
        prop_assert_eq!(view.shards_failed(), fired.len());
        // The survivors' prefixes are complete after the drain, so the
        // view's epoch is every item routed to a surviving shard plus what
        // the dead incarnations had applied, and the uncovered gap is
        // exactly the latter.
        prop_assert_eq!(
            view.epoch(),
            items.len() as u64 - routed_to_fired + acknowledged_lost
        );
        prop_assert_eq!(view.coverage().uncovered_items, acknowledged_lost);
    }

    let out = pipeline.finish();
    let mut failed = out.failed_shards.clone();
    failed.sort_unstable();
    let mut expected_failed = fired.clone();
    expected_failed.sort_unstable();
    prop_assert_eq!(failed, expected_failed);
    // Everything routed to a panicked shard is lost — the acknowledged
    // prefix died with the incarnation, the rest was dropped at dispatch.
    prop_assert_eq!(out.lost_items, routed_to_fired);
    prop_assert_eq!(out.items, items.len() as u64);

    // Byte-identical survivors: the merged output equals an unsharded
    // sketch over exactly the items routed to surviving shards.
    let truth = unsharded(&survivor_items);
    for item in 0..UNIVERSE {
        prop_assert_eq!(out.merged.estimate(item), truth.estimate(item));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn degraded_views_match_ground_truth(
        items in proptest::collection::vec(0..UNIVERSE, 200..2_000),
        first_shard in 0..SHARDS,
        first_after in 0u64..1_500,
        second_shard in 0..SHARDS,
        second_after in 0u64..1_500,
        second_fault in 0u32..2,
        batch_pick in 0usize..3,
    ) {
        let batch_size = [32usize, 64, 128][batch_pick];
        // One or two victims on distinct shards, each with an arbitrary
        // trigger count (possibly past the end of its sub-stream, in which
        // case the fault never fires and the shard survives).
        let mut schedule = vec![(first_shard, first_after)];
        if second_fault == 1 && second_shard != first_shard {
            schedule.push((second_shard, second_after));
        }
        check_panic_schedule(&items, &schedule, batch_size)?;
    }

    #[test]
    fn healthy_supervised_runs_stay_exact(
        items in proptest::collection::vec(0..UNIVERSE, 200..1_000),
    ) {
        // A fault plan whose triggers sit past the stream: nothing fires,
        // and the supervised pipeline must behave exactly like a plain one.
        check_panic_schedule(&items, &[(1, 1_000_000)], 64)?;
    }
}
