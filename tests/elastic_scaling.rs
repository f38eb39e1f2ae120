//! End-to-end tests of the elastic control plane: shard scaling *while
//! ingesting*, through the real worker threads, generation sealing, and
//! cross-generation query serving of `salsa-pipeline`.
//!
//! The acceptance bar: a run that rescales 1 → 4 → 2 shards mid-stream
//! must produce a merged sum-merge CMS **counter-identical** (every bucket
//! of every row — byte-identical state) to the unsharded run, while
//! concurrent [`LiveHandle`] queries keep succeeding throughout with
//! monotonically non-decreasing epochs and no lost counts.

use std::time::Duration;

use salsa_core::prelude::*;
use salsa_pipeline::{
    CachePolicy, LoadMonitor, Manual, Partition, PipelineConfig, ShardedPipeline, Threshold,
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
    .generate(UPDATES, 31)
    .items()
    .to_vec()
}

fn make_cms() -> impl FnMut(usize) -> CountMin<SimpleSalsaRow> + Send + 'static {
    |_| CountMin::salsa(4, 2048, 8, MergeOp::Sum, 19)
}

fn unsharded(items: &[u64]) -> CountMin<SimpleSalsaRow> {
    let mut sketch = make_cms()(0);
    for chunk in items.chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
        sketch.ingest(chunk);
    }
    sketch
}

/// Byte-identical sketch state: every bucket of every row equal.
fn assert_counter_identical(a: &CountMin<SimpleSalsaRow>, b: &CountMin<SimpleSalsaRow>) {
    assert_eq!(a.depth(), b.depth());
    assert_eq!(a.width(), b.width());
    for (row_index, (ra, rb)) in a.rows().iter().zip(b.rows().iter()).enumerate() {
        assert_eq!(ra.width(), rb.width());
        for idx in 0..ra.width() {
            assert_eq!(
                ra.read(idx),
                rb.read(idx),
                "row {row_index} bucket {idx} diverged"
            );
        }
    }
}

#[test]
fn rescaling_1_4_2_mid_stream_is_byte_identical_with_live_queries_throughout() {
    let items = trace();
    let config = PipelineConfig::new(1).batch_size(256);
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    let handle = pipeline.live_handle();
    let full = unsharded(&items);
    let full_probe: Vec<i64> = (0..64u64)
        .map(|item| FrequencyEstimator::estimate(&full, item))
        .collect();

    // Query continuously across both rescales: epochs must never decrease,
    // estimates never exceed the full-stream sketch (sum-merge estimates
    // only grow with the epoch), and the handle must never go dark.
    let querier = std::thread::spawn(move || {
        let mut epochs = Vec::new();
        let mut generations = Vec::new();
        let mut probes_ok = true;
        while let Some(view) = handle.snapshot() {
            probes_ok &= (0..64u64).all(|item| view.estimate(item) <= full_probe[item as usize]);
            epochs.push(view.epoch());
            generations.push(view.generation());
            if view.epoch() == UPDATES as u64 {
                break;
            }
            std::thread::yield_now();
        }
        (epochs, generations, probes_ok)
    });

    pipeline.extend(&items[..20_000]);
    let grow = pipeline.rescale(4).expect("1 -> 4 rescale");
    assert_eq!((grow.from_shards, grow.to_shards), (1, 4));
    pipeline.extend(&items[20_000..40_000]);
    let shrink = pipeline.rescale(2).expect("4 -> 2 rescale");
    assert_eq!((shrink.from_shards, shrink.to_shards), (4, 2));
    pipeline.extend(&items[40_000..]);
    let epoch = pipeline.drain();
    assert_eq!(epoch, UPDATES as u64, "no counts lost before finish");

    let (epochs, generations, probes_ok) = querier.join().expect("query thread panicked");
    let out = pipeline.finish();

    assert!(!epochs.is_empty(), "queries were served");
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "snapshot epochs must be monotone across rescales: {epochs:?}"
    );
    assert!(
        generations.windows(2).all(|w| w[0] <= w[1]),
        "generations must be monotone: {generations:?}"
    );
    assert!(probes_ok, "a live view exceeded the full-stream sketch");
    assert_eq!(
        *epochs.last().unwrap(),
        UPDATES as u64,
        "after drain, a snapshot reaches the full epoch — no lost counts"
    );

    // The acceptance bar: merged state byte-identical to the unsharded run.
    assert_eq!(out.items, UPDATES as u64);
    assert_eq!(out.rescales(), 2);
    assert_counter_identical(&out.merged, &full);
}

#[test]
fn round_robin_elastic_runs_are_also_exact() {
    let items = trace();
    let config = PipelineConfig::new(3)
        .partition(Partition::RoundRobin)
        .batch_size(128);
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    pipeline.extend(&items[..25_000]);
    pipeline.rescale(1);
    pipeline.extend(&items[25_000..45_000]);
    pipeline.rescale(5);
    pipeline.extend(&items[45_000..]);
    let out = pipeline.finish();
    assert_counter_identical(&out.merged, &unsharded(&items));
}

#[test]
fn manual_policy_drives_rescales_through_autoscale() {
    let items = trace();
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), make_cms());
    let mut monitor = LoadMonitor::new();
    let mut policy = Manual::new(2);
    assert!(
        pipeline.autoscale(&mut monitor, &mut policy).is_none(),
        "target equals current count: no rescale"
    );
    pipeline.extend(&items[..30_000]);
    policy.set_target(4);
    let event = pipeline
        .autoscale(&mut monitor, &mut policy)
        .expect("manual target differs: rescale");
    assert_eq!(event.to_shards, 4);
    assert_eq!(monitor.gauges().shards.get(), 2.0, "sampled before rescale");
    pipeline.extend(&items[30_000..]);
    let out = pipeline.finish();
    assert_counter_identical(&out.merged, &unsharded(&items));
}

#[test]
fn threshold_policy_grows_under_synthetic_backlog() {
    // Integration smoke of the closed loop: a policy with zero patience
    // cost and a saturated queue signal must grow the pipeline.  (The
    // policy unit tests cover the decision logic exhaustively; here we
    // check the loop actually rescales a running pipeline.)
    let items = trace();
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(1).batch_size(32), make_cms());
    let mut monitor = LoadMonitor::new();
    let mut policy = Threshold::new(1, 4, 1, 0.0)
        .with_patience(1)
        .with_cooldown(0);
    let mut rescaled = false;
    for chunk in items.chunks(1_024) {
        pipeline.extend(chunk);
        if pipeline.autoscale(&mut monitor, &mut policy).is_some() {
            rescaled = true;
            break;
        }
    }
    // With a 1-item high watermark any in-flight batch triggers growth;
    // if every sample somehow caught the worker fully drained, force the
    // last tick after a burst without letting it catch up.
    if !rescaled {
        pipeline.extend(&items);
        rescaled = pipeline.autoscale(&mut monitor, &mut policy).is_some();
    }
    assert!(rescaled, "threshold policy never grew the pipeline");
    assert!(pipeline.shards() > 1);
    assert!(monitor.gauges().shards.get() >= 1.0);
    let out = pipeline.finish();
    assert!(out.rescales() >= 1);
}

#[test]
fn elastic_handle_cache_serves_across_rescales() {
    let items = trace();
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), make_cms());
    let cached = pipeline
        .live_handle()
        .cached(CachePolicy::new(Duration::from_secs(3_600), u64::MAX));
    pipeline.extend(&items[..20_000]);
    let first = cached.snapshot().expect("pipeline is live");
    let again = cached.snapshot().expect("pipeline is live");
    assert_eq!(first.epoch(), again.epoch(), "served from cache");
    assert_eq!(cached.misses(), 1);
    assert_eq!(cached.hits(), 1);
    pipeline.rescale(4);
    pipeline.extend(&items[20_000..]);
    // The cached view predates the rescale but is still within policy, so
    // it is re-served; the handle itself survived the generation change.
    let stale = cached.snapshot().expect("cache still serves");
    assert_eq!(stale.generation(), first.generation());
    assert_eq!(cached.hits(), 2);
    // A cache whose entry is always out of bounds must re-assemble every
    // time — and once the pipeline finishes, it goes dark.
    let strict = pipeline
        .live_handle()
        .cached(CachePolicy::new(Duration::ZERO, 0));
    assert!(strict.snapshot().is_some());
    pipeline.finish();
    assert!(
        strict.snapshot().is_none(),
        "expired entry after finish: the cache drops it instead of serving it"
    );
    assert_eq!(strict.misses(), 1, "the dark refresh is not a miss");
}
