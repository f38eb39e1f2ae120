//! End-to-end chaos tests: the supervised pipeline under injected worker
//! failures, through the real worker threads and command channels.
//!
//! The acceptance bar for the fault-tolerance layer: a pipeline with four
//! shards that loses one worker to a panic mid-stream must **keep serving**
//! point and top-k queries from the survivors — no process panic, no
//! poisoned pipeline — with coverage metadata that names the gap exactly;
//! under a restart policy the dead shard must come back and routing
//! capacity recover; and a swallowed drain acknowledgement must surface as
//! a typed timeout, not a hang.  Routing is by key, so each scenario places
//! its faults with the pipeline's own `shard_of`.

use std::sync::Arc;
use std::time::Duration;

use salsa_core::prelude::*;
use salsa_pipeline::{
    silence_worker_panics, FaultPlan, PipelineConfig, PipelineError, Recovery, ShardState,
    ShardedPipeline, SnapshotSummary, Tracked,
};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

const UNIVERSE: usize = 2_000;
const UPDATES: usize = 40_000;

fn trace() -> Vec<u64> {
    TraceSpec::Zipf {
        universe: UNIVERSE,
        skew: 1.0,
    }
    .generate(UPDATES, 23)
    .items()
    .to_vec()
}

fn make_cms() -> impl Fn(usize) -> CountMin<SimpleSalsaRow> + Copy + Send + 'static {
    |_| CountMin::salsa(4, 2048, 8, MergeOp::Sum, 19)
}

/// The first `n` keys `pipeline` routes to `shard`, in key order.
fn keys_of(
    pipeline: &ShardedPipeline<'_, impl SnapshotSummary>,
    shard: usize,
    n: usize,
) -> Vec<u64> {
    (0u64..)
        .filter(|&key| pipeline.shard_of(key) == shard)
        .take(n)
        .collect()
}

/// The headline scenario: four shards, one dies to an injected panic at a
/// scripted point, and the pipeline keeps answering point and top-k
/// queries from the survivors with correct coverage accounting.
#[test]
fn one_dead_shard_of_four_keeps_serving_queries() {
    silence_worker_panics();
    let items = trace();
    let plan = Arc::new(FaultPlan::new().panic_shard(2, 4_000));
    let config = PipelineConfig::new(4)
        .batch_size(256)
        .chaos(Arc::clone(&plan));
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    let counters = Arc::clone(pipeline.counters());

    // Ground truth before the stream flows: by-key routing is pure.
    let routed_to_dead = items
        .iter()
        .filter(|&&item| pipeline.shard_of(item) == 2)
        .count() as u64;

    pipeline.extend(&items);
    let epoch = pipeline.try_drain().expect("drain degrades past the death");
    assert_eq!(epoch, UPDATES as u64);
    assert_eq!(plan.fired(), 1);
    assert_eq!(pipeline.health().state(2), ShardState::Down);
    assert_eq!(counters.worker_panics.get(), 1);

    // Point and top-k queries keep working, served by the survivors.
    let view = pipeline
        .snapshot()
        .expect("three survivors serve a degraded view");
    assert!(view.is_degraded());
    assert_eq!(view.shards_failed(), 1);
    assert_eq!(view.shards_ok(), 3);
    assert_eq!(
        view.epoch() - view.coverage().uncovered_items,
        UPDATES as u64 - routed_to_dead
    );
    // Coverage names the gap exactly: the view covers every item routed to
    // a survivor, and the uncovered count is what shard 2 acknowledged.
    let fraction = (view.epoch() - view.coverage().uncovered_items) as f64 / view.epoch() as f64;
    assert!((view.coverage_fraction() - fraction).abs() < 1e-12);
    assert!(view.coverage_fraction() < 1.0);
    let mut served = 0u64;
    for item in 0..UNIVERSE as u64 {
        if pipeline.shard_of(item) != 2 {
            served += 1;
            assert!(view.estimate(item) >= 0, "survivor estimates stay sane");
        }
    }
    assert!(served > 0);
    let top = view.top_k(10, 0..UNIVERSE as u64);
    assert_eq!(top.len(), 10, "top-k keeps serving from the survivors");

    // Ingestion continues after the death — still no process panic.
    pipeline.extend(&items[..1_000]);
    let out = pipeline.finish();
    assert_eq!(out.failed_shards, vec![2]);
    assert!(out.is_degraded());
    assert!(out.lost_items >= routed_to_dead);
}

/// Under `Recovery::Restart` the dead shard comes back with an empty
/// sketch: health returns to all-up, later pushes to that shard are
/// accepted again, and the restart is visible in the counters.
#[test]
fn restart_policy_brings_the_shard_back() {
    silence_worker_panics();
    let items = trace();
    let plan = Arc::new(FaultPlan::new().panic_shard(1, 2_000));
    let config = PipelineConfig::new(4)
        .batch_size(256)
        .recovery(Recovery::Restart { max_restarts: 3 })
        .chaos(Arc::clone(&plan));
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    let counters = Arc::clone(pipeline.counters());

    pipeline.extend(&items);
    pipeline.try_drain().expect("drain restarts the dead shard");
    assert_eq!(plan.fired(), 1);
    assert!(pipeline.health().all_up(), "the shard is back");
    assert_eq!(pipeline.health().restarts(1), 1);
    assert_eq!(counters.worker_restarts.get(), 1);

    // The restarted shard ingests again: a fresh burst routed at it lands.
    pipeline.extend(&items);
    let epoch = pipeline.try_drain().expect("second drain is healthy");
    assert_eq!(epoch, 2 * UPDATES as u64);
    let view = pipeline.snapshot().expect("the pipeline serves views");
    assert_eq!(view.shards_failed(), 0, "every worker replies");
    assert!(
        view.coverage().uncovered_items > 0,
        "the dead incarnation's items stay uncovered"
    );
    let out = pipeline.finish();
    assert!(out.failed_shards.is_empty());
    assert!(out.lost_items > 0);
}

/// Restart recovery works in every generation: the pipeline keeps the one
/// factory it was built with, so a shard that exists only after a 1 → 3
/// rescale is restarted like any other, and the handle taken before the
/// rescale names the dead incarnation's items as uncovered.
#[test]
fn restart_policy_recovers_a_shard_after_a_rescale() {
    silence_worker_panics();
    let plan = Arc::new(FaultPlan::new().panic_shard(2, 128));
    let config = PipelineConfig::new(1)
        .batch_size(64)
        .recovery(Recovery::Restart { max_restarts: 1 })
        .chaos(Arc::clone(&plan));
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    let counters = Arc::clone(pipeline.counters());
    let handle = pipeline.live_handle();
    pipeline.extend(&(0..256).collect::<Vec<u64>>());
    pipeline.rescale(3).expect("1 -> 3 is a real rescale");
    // 192 keys of each of the three shards: three 64-item batches each.
    // Shard 2 applies two, then panics on the third.
    let keys: Vec<Vec<u64>> = (0..3).map(|shard| keys_of(&pipeline, shard, 256)).collect();
    for shard_keys in &keys {
        pipeline.extend(&shard_keys[..192]);
    }
    pipeline.try_drain().expect("drain restarts the dead shard");
    assert_eq!(plan.fired(), 1);
    assert!(pipeline.health().all_up(), "shard 2 is back");
    assert_eq!(pipeline.health().restarts(2), 1);
    assert_eq!(counters.worker_restarts.get(), 1);
    assert_eq!(
        pipeline.lost_items(),
        192,
        "128 applied-then-lost + 64 in flight"
    );

    // The restarted shard ingests again: one more batch per shard.
    for shard_keys in &keys {
        pipeline.extend(&shard_keys[192..]);
    }
    pipeline.drain();
    let view = handle.snapshot().expect("the pre-rescale handle serves");
    assert_eq!(view.generation(), 1);
    assert_eq!(view.shards_ok(), 3, "every worker replies");
    assert_eq!(view.coverage().uncovered_items, 128, "the loss is named");
    assert_eq!(view.epoch(), 256 + 3 * 256 - 64, "every acknowledged item");
    let out = pipeline.finish();
    assert!(out.failed_shards.is_empty());
    assert_eq!(out.lost_items, 192);
    assert_eq!(out.rescales(), 1);
}

/// A swallowed drain acknowledgement surfaces as `PipelineError::Timeout`
/// within the configured deadline — a wedged barrier cannot hang the
/// producer.
#[test]
fn swallowed_drain_ack_times_out_with_a_typed_error() {
    silence_worker_panics();
    let plan = Arc::new(FaultPlan::new().drop_ack(0, 0));
    let config = PipelineConfig::new(2)
        .batch_size(16)
        .reply_timeout(Duration::from_millis(150))
        .chaos(plan);
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    pipeline.extend(&(0..64).collect::<Vec<u64>>());
    let started = std::time::Instant::now();
    assert_eq!(
        pipeline.try_drain(),
        Err(PipelineError::Timeout {
            operation: "drain",
            waited: Duration::from_millis(150),
        })
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the deadline bounds the wait"
    );
    // The fault fires once: the barrier works again afterwards.
    assert_eq!(pipeline.try_drain(), Ok(64));
    assert_eq!(pipeline.finish().lost_items, 0);
}

/// The fault-tolerance layer composes with the capability traits: a
/// `Tracked` summary keeps serving its on-arrival top-k through a degraded
/// view.
#[test]
fn tracked_top_k_survives_a_dead_shard() {
    silence_worker_panics();
    let items = trace();
    let plan = Arc::new(FaultPlan::new().panic_shard(0, 1_000));
    let config = PipelineConfig::new(4)
        .batch_size(256)
        .recovery(Recovery::Degrade)
        .chaos(Arc::clone(&plan));
    let mut pipeline =
        ShardedPipeline::new(&config, move |shard| Tracked::new(make_cms()(shard), 16));
    pipeline.extend(&items);
    pipeline.try_drain().expect("drain degrades");
    assert_eq!(plan.fired(), 1);
    let view = pipeline.snapshot().expect("degraded view serves");
    assert!(view.is_degraded());
    let tracked = view.top_k_tracked();
    assert!(
        !tracked.is_empty(),
        "the survivors' tracked heavy hitters merge and serve"
    );
    assert_eq!(pipeline.finish().failed_shards, vec![0], "survivors merge");
}
