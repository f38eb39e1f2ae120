//! End-to-end runs of **non-frequency** summaries through the sharded
//! pipeline — the acceptance tests of the `StreamSummary` redesign.
//!
//! Two scenarios:
//!
//! * **Sharded UnivMon**: entropy / frequency-moment / distinct estimates of
//!   the merged view agree with an unsharded UnivMon of the same stream
//!   (within tolerance — merging rebuilds each level's heavy-hitter heap, so
//!   membership can differ at the margin even though the underlying Count
//!   Sketches merge exactly), and a live snapshot serves entropy mid-stream.
//! * **Sharded distinct counting**: a [`DistinctCounter`] over sum-merge
//!   SALSA rows is **byte-exact** — the merged zero-counter pattern equals
//!   the unsharded one, so Linear Counting returns the identical estimate,
//!   through both `run_sharded` and a `ShardedPipeline` that rescales
//!   mid-stream.
//!
//! Plus the [`Tracked`] wrapper: per-shard heavy-hitter trackers merged at
//! snapshot time surface the true heavy hitters, with tracked estimates
//! equal to the merged view's.

use std::collections::HashMap;

use salsa_core::prelude::*;
use salsa_pipeline::{
    run_sharded, Partition, PipelineConfig, ShardedPipeline, StreamSummary, Tracked,
};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

const UNIVERSE: usize = 10_000;
const UPDATES: usize = 80_000;

fn trace(seed: u64) -> Vec<u64> {
    TraceSpec::Zipf {
        universe: UNIVERSE,
        skew: 1.0,
    }
    .generate(UPDATES, seed)
    .items()
    .to_vec()
}

fn exact_stats(items: &[u64]) -> (f64, f64, f64) {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &item in items {
        *counts.entry(item).or_insert(0) += 1;
    }
    let n = items.len() as f64;
    let entropy = -counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>();
    let f2 = counts.values().map(|&c| (c as f64) * (c as f64)).sum();
    (entropy, f2, counts.len() as f64)
}

fn rel_err(est: f64, truth: f64) -> f64 {
    (est - truth).abs() / truth.abs().max(1.0)
}

fn make_univmon(seed: u64) -> impl Fn(usize) -> UnivMon<SimpleSalsaSignedRow> + Copy {
    move |_shard| UnivMon::salsa(12, 5, 1 << 11, 8, 100, seed)
}

#[test]
fn sharded_univmon_matches_unsharded_statistics() {
    let items = trace(3);
    let (true_entropy, true_f2, true_distinct) = exact_stats(&items);

    let mut single = make_univmon(21)(0);
    single.ingest(&items);

    for partition in [Partition::ByKey, Partition::RoundRobin] {
        for shards in [2usize, 4] {
            let config = PipelineConfig::new(shards).partition(partition);
            let out = run_sharded(&config, make_univmon(21), &items);
            assert_eq!(out.items, items.len() as u64);
            let merged = &out.merged;
            let label = format!("{} x{shards}", partition.name());

            // Merged estimates track the unsharded sketch: the level
            // sketches merge exactly, only heap membership can drift.
            assert!(
                rel_err(merged.entropy(), single.entropy()) < 0.15,
                "{label}: entropy {} vs unsharded {}",
                merged.entropy(),
                single.entropy()
            );
            assert!(
                rel_err(merged.fp_moment(2.0), single.fp_moment(2.0)) < 0.25,
                "{label}: F2 {} vs unsharded {}",
                merged.fp_moment(2.0),
                single.fp_moment(2.0)
            );
            assert!(
                rel_err(merged.distinct(), single.distinct()) < 0.35,
                "{label}: distinct {} vs unsharded {}",
                merged.distinct(),
                single.distinct()
            );

            // And both stay anchored to the ground truth.
            assert!(
                rel_err(merged.entropy(), true_entropy) < 0.2,
                "{label}: entropy {} vs truth {true_entropy}",
                merged.entropy()
            );
            assert!(
                rel_err(merged.fp_moment(2.0), true_f2) < 0.35,
                "{label}: F2 {} vs truth {true_f2}",
                merged.fp_moment(2.0)
            );
            assert!(
                rel_err(merged.distinct(), true_distinct) < 0.45,
                "{label}: distinct {} vs truth {true_distinct}",
                merged.distinct()
            );
        }
    }
}

#[test]
fn sharded_univmon_serves_entropy_from_live_snapshot() {
    let items = trace(9);
    let config = PipelineConfig::new(3).batch_size(512);
    let mut pipeline = ShardedPipeline::new(&config, make_univmon(33));

    let cut = items.len() / 2;
    pipeline.extend(&items[..cut]);
    let view = pipeline.snapshot();
    assert_eq!(view.epoch(), cut as u64);
    let (prefix_entropy, _, prefix_distinct) = exact_stats(&items[..cut]);
    assert!(
        rel_err(view.entropy(), prefix_entropy) < 0.2,
        "live entropy {} vs prefix truth {prefix_entropy}",
        view.entropy()
    );
    assert!(
        rel_err(view.distinct(), prefix_distinct) < 0.45,
        "live distinct {} vs prefix truth {prefix_distinct}",
        view.distinct()
    );
    assert!(view.fp_moment(1.0) > 0.0, "F1 of a non-empty stream");

    // Snapshots are side-effect free: ingestion continues and the final
    // merged summary covers the whole stream.
    pipeline.extend(&items[cut..]);
    let out = pipeline.finish();
    let (true_entropy, _, _) = exact_stats(&items);
    assert!(
        rel_err(out.merged.entropy(), true_entropy) < 0.2,
        "final entropy {} vs truth {true_entropy}",
        out.merged.entropy()
    );
}

fn make_distinct(seed: u64) -> impl Fn(usize) -> DistinctCounter<SimpleSalsaRow> + Copy {
    move |_shard| DistinctCounter::new(CountMin::salsa(4, 1 << 13, 8, MergeOp::Sum, seed))
}

#[test]
fn sharded_distinct_counter_is_exact_under_sum_merge() {
    let items = trace(5);
    let mut single = make_distinct(17)(0);
    single.ingest(&items);
    let reference = single.estimate_distinct();
    assert!(
        reference.is_some(),
        "sketch must not saturate on this trace"
    );

    for partition in [Partition::ByKey, Partition::RoundRobin] {
        for shards in [2usize, 3, 5] {
            let config = PipelineConfig::new(shards).partition(partition);
            let out = run_sharded(&config, make_distinct(17), &items);
            // Sum-merge makes the merged counter array byte-identical to the
            // unsharded one, so Linear Counting sees the same zero pattern
            // and the estimate matches *exactly* — not within tolerance.
            assert_eq!(
                out.merged.estimate_distinct(),
                reference,
                "{} x{shards}",
                partition.name()
            );
        }
    }

    // Sanity: the (exact-under-merge) estimate is also a good estimate.
    let (_, _, true_distinct) = exact_stats(&items);
    assert!(
        rel_err(reference.unwrap(), true_distinct) < 0.05,
        "linear counting {} vs truth {true_distinct}",
        reference.unwrap()
    );
}

#[test]
fn distinct_counter_stays_exact_across_elastic_rescales() {
    let items = trace(7);
    let mut single = make_distinct(29)(0);
    single.ingest(&items);

    let config = PipelineConfig::new(1).batch_size(256);
    let mut pipeline = ShardedPipeline::new(&config, make_distinct(29));
    let chunks: Vec<&[u64]> = items.chunks(items.len() / 4 + 1).collect();
    pipeline.extend(chunks[0]);
    assert!(pipeline.rescale(3).is_some());
    pipeline.extend(chunks[1]);
    pipeline.extend(chunks[2]);
    assert!(pipeline.rescale(2).is_some());
    pipeline.extend(chunks[3]);
    let out = pipeline.finish();
    assert_eq!(out.items, items.len() as u64);
    assert_eq!(
        out.merged.estimate_distinct(),
        single.estimate_distinct(),
        "resharding must not perturb the merged zero pattern"
    );
}

#[test]
fn tracked_top_k_survives_sharding() {
    // Frequencies 1..=100 for ids 0..100, shuffled: strongly separated, so
    // the per-shard trackers (merged at snapshot time) must surface the true
    // heaviest keys, with estimates equal to the merged view's.
    let mut items = Vec::new();
    for id in 0u64..100 {
        for _ in 0..=id {
            items.push(id);
        }
    }
    let mut state = 11u64;
    for i in (1..items.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }

    let make = |_shard: usize| Tracked::new(CountMin::salsa(4, 1 << 12, 8, MergeOp::Sum, 13), 8);
    let config = PipelineConfig::new(3).batch_size(64);
    let mut pipeline = ShardedPipeline::new(&config, make);
    pipeline.extend(&items);
    let view = pipeline.snapshot();

    let tracked = view.top_k_tracked();
    assert_eq!(tracked.len(), 8);
    for heavy in 96..100u64 {
        assert!(tracked.contains(heavy), "missing heavy hitter {heavy}");
    }
    // Rebuilt-on-merge invariant: every tracked estimate is the merged
    // view's estimate, which under sum-merge is the exact count.
    for (item, est) in tracked.items() {
        assert_eq!(est, view.estimate(item) as u64, "item {item}");
        assert_eq!(est, item + 1, "sum-merge CMS is exact here");
    }
    pipeline.finish();
}
