//! End-to-end tests of the live query subsystem: snapshots and queries
//! served *while ingestion continues*, through the real worker threads and
//! command channels of `salsa-pipeline`.
//!
//! The acceptance bar (cf. Section V's mergeability): a snapshot taken at
//! epoch `E` must, for sum-merge rows, give the same estimates as a single
//! unsharded sketch fed exactly the first `E` pushed items — queries during
//! ingestion are consistent, not merely approximate; and concurrent
//! [`LiveHandle`] snapshots have monotonically non-decreasing epochs.

use std::time::Duration;

use salsa_core::prelude::*;
use salsa_pipeline::{
    CachePolicy, LiveHandle, Partition, PipelineConfig, ShardedPipeline, SnapshotSummary,
};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

const UNIVERSE: usize = 5_000;
const UPDATES: usize = 60_000;

fn trace() -> Vec<u64> {
    TraceSpec::Zipf {
        universe: UNIVERSE,
        skew: 1.0,
    }
    .generate(UPDATES, 11)
    .items()
    .to_vec()
}

fn make_cms() -> impl Fn(usize) -> CountMin<SimpleSalsaRow> + Copy {
    |_| CountMin::salsa(4, 2048, 8, MergeOp::Sum, 19)
}

fn unsharded(items: &[u64]) -> CountMin<SimpleSalsaRow> {
    let mut sketch = make_cms()(0);
    for chunk in items.chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
        sketch.ingest(chunk);
    }
    sketch
}

#[test]
fn snapshot_at_epoch_e_equals_unsharded_prefix_sketch() {
    let items = trace();
    for partition in [Partition::ByKey, Partition::RoundRobin] {
        let config = PipelineConfig::new(4).partition(partition);
        let mut pipeline = ShardedPipeline::new(&config, make_cms());
        let mut fed = 0usize;
        for cut in [7_001, 23_456, 44_000, UPDATES] {
            pipeline.extend(&items[fed..cut]);
            fed = cut;
            let view = pipeline.snapshot();
            assert_eq!(view.epoch(), fed as u64, "{}", partition.name());
            let prefix = unsharded(&items[..fed]);
            for item in 0..UNIVERSE as u64 {
                assert_eq!(
                    view.estimate(item),
                    prefix.estimate(item) as i64,
                    "{} epoch {fed} item {item}",
                    partition.name()
                );
            }
        }
        // Snapshots are side-effect free: the final output still matches.
        let out = pipeline.finish();
        let single = unsharded(&items);
        for item in 0..UNIVERSE as u64 {
            assert_eq!(out.merged.estimate(item), single.estimate(item));
        }
    }
}

#[test]
fn concurrent_snapshots_have_monotone_epochs_and_consistent_bounds() {
    let items = trace();
    let config = PipelineConfig::new(3).batch_size(256);
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    let handle = pipeline.live_handle();
    let single = unsharded(&items);

    let querier = std::thread::spawn(move || {
        let mut epochs = Vec::new();
        let mut probes_ok = true;
        // The `while let` ends if the pipeline finishes mid-snapshot (the
        // handle goes dark), though this test drains before joining.
        while let Some(view) = handle.snapshot() {
            epochs.push(view.epoch());
            // Sum-merge estimates only grow with the epoch, so any live view
            // is bounded by the full-stream sketch.
            probes_ok &= (0..64u64).all(|item| view.estimate(item) <= single.estimate(item) as i64);
            if view.epoch() == UPDATES as u64 {
                break;
            }
            std::thread::yield_now();
        }
        (epochs, probes_ok)
    });

    for chunk in items.chunks(512) {
        pipeline.extend(chunk);
    }
    pipeline.drain();
    let (epochs, probes_ok) = querier.join().expect("query thread panicked");
    pipeline.finish();

    assert!(!epochs.is_empty());
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "snapshot epochs must be monotone: {epochs:?}"
    );
    assert!(probes_ok, "a live view exceeded the full-stream sketch");
    assert_eq!(
        *epochs.last().unwrap(),
        UPDATES as u64,
        "after drain, a snapshot reaches the full epoch"
    );
}

#[test]
fn live_handle_point_queries_use_the_owning_shard() {
    let items = trace();
    let config = PipelineConfig::new(4); // ByKey: every key has one owner
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    pipeline.extend(&items);
    let epoch = pipeline.drain();
    assert_eq!(epoch, items.len() as u64);

    let handle = pipeline.live_handle();
    assert_eq!(handle.shards(), 4);
    assert_eq!(handle.acknowledged(), items.len() as u64);
    let full = pipeline.snapshot();
    let mut truth = std::collections::HashMap::new();
    for &item in &items {
        *truth.entry(item).or_insert(0i64) += 1;
    }
    for item in (0..UNIVERSE as u64).step_by(53) {
        let owner = handle.owner_of(item).expect("by-key always has an owner");
        assert!(owner < 4);
        let fast = handle.estimate(item).expect("pipeline is live");
        let exact = truth.get(&item).copied().unwrap_or(0);
        // The owning shard holds the key's whole sub-stream: never below
        // the truth, never above the merged view (which adds the other
        // shards' collisions).
        assert!(fast >= exact, "item {item}: {fast} < {exact}");
        assert!(
            fast <= full.estimate(item),
            "item {item}: single-shard {fast} > merged {}",
            full.estimate(item)
        );
    }
    pipeline.finish();
}

#[test]
fn snapshot_top_k_finds_the_heavy_hitters() {
    // Frequencies 1..=100 with ids 0..100: strongly separated, so the CMS
    // top-k (which never under-estimates under sum-merge) must surface the
    // true heaviest keys.
    let mut items = Vec::new();
    for id in 0u64..100 {
        for _ in 0..=id {
            items.push(id);
        }
    }
    let mut state = 3u64;
    for i in (1..items.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        items.swap(i, (state >> 33) as usize % (i + 1));
    }
    let config = PipelineConfig::new(3).batch_size(128);
    let mut pipeline =
        ShardedPipeline::new(&config, |_| CountMin::salsa(4, 4096, 8, MergeOp::Sum, 23));
    pipeline.extend(&items);
    let view = pipeline.snapshot();
    let top = view.top_k(5, 0..100);
    assert_eq!(top.len(), 5);
    for heavy in 95..100u64 {
        assert!(top.contains(heavy), "missing heavy hitter {heavy}");
        assert_eq!(top.estimate(heavy), Some(heavy + 1));
    }
    pipeline.finish();
}

#[test]
fn handles_go_dark_after_finish() {
    let config = PipelineConfig::new(2);
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    pipeline.extend(&trace()[..10_000]);
    let handle: LiveHandle<_> = pipeline.live_handle();
    assert!(handle.snapshot().is_some());
    assert!(handle.estimate(7).is_some());
    pipeline.finish();
    assert!(handle.snapshot().is_none(), "snapshot after finish");
    assert!(handle.snapshot_shard(0).is_none(), "shard after finish");
    assert!(handle.estimate(7).is_none(), "estimate after finish");
}

#[test]
fn cached_snapshots_reuse_views_within_the_staleness_budget() {
    let items = trace();
    let config = PipelineConfig::new(3).batch_size(256);
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    pipeline.extend(&items[..30_000]);
    pipeline.drain();

    // Generous budget: every query after the first is a cache hit, and all
    // clones of the cached handle share the one entry (and the counters).
    let cached = pipeline
        .live_handle()
        .cached(CachePolicy::new(Duration::from_secs(3_600), u64::MAX));
    let sharer = cached.clone();
    let first = cached.snapshot().expect("pipeline is live");
    for _ in 0..9 {
        let view = sharer.snapshot().expect("pipeline is live");
        assert_eq!(view.epoch(), first.epoch());
    }
    assert_eq!(cached.misses(), 1, "one assembly served ten queries");
    assert_eq!(cached.hits(), 9);
    assert_eq!(sharer.hits(), 9, "clones share the counters");

    // An item-lag bound of zero expires the entry as soon as any new
    // update is acknowledged.
    let strict = pipeline
        .live_handle()
        .cached(CachePolicy::new(Duration::from_secs(3_600), 0));
    let before = strict.snapshot().expect("pipeline is live");
    assert_eq!(before.epoch(), 30_000);
    pipeline.extend(&items[30_000..]);
    pipeline.drain();
    let after = strict.snapshot().expect("pipeline is live");
    assert_eq!(after.epoch(), UPDATES as u64, "lag bound forced a refresh");
    assert_eq!(strict.misses(), 2);
    assert_eq!(strict.hits(), 0);
    assert_eq!(strict.policy().max_lag_items, 0);
    pipeline.finish();
}

#[test]
fn snapshot_views_report_serving_metadata() {
    let items = trace();
    let config = PipelineConfig::new(2);
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    pipeline.extend(&items[..30_000]);
    let view = pipeline.snapshot();
    assert_eq!(view.shards().len(), 2);
    assert_eq!(
        view.shards().iter().map(|s| s.items).sum::<u64>(),
        view.epoch()
    );
    assert!(view.shards().iter().all(|s| s.snapshots >= 1));
    assert!(view.assembly_time() <= view.staleness());
    // Clone-cost accounting: a snapshot copies at least the counter
    // storage of every shard's sketch.
    assert!(SnapshotSummary::clone_cost_bytes(view.merged()) >= view.merged().size_bytes());
    pipeline.finish();
}
