//! # salsa-pipeline — sharded, batched, mergeable SALSA ingestion
//!
//! Section V of the paper shows that SALSA sketches built with the *same*
//! hash functions can be combined counter-wise, which is exactly what makes
//! the design distributable: a stream can be split across worker shards,
//! each shard sketches its slice independently, and the per-shard sketches
//! fold into a single queryable global view.  This crate turns that
//! observation into an ingestion layer:
//!
//! * The transport is bound only to the minimal [`StreamSummary`] contract
//!   (*ingest a batch, merge counter-wise*) — anything a summary can be
//!   **queried** for lives in capability traits ([`FrequencyQueries`],
//!   [`DistinctQueries`], [`UniversalQueries`], [`TrackedQueries`]) that the
//!   snapshot/handle types expose only when the summary supports them.  So
//!   the same machinery shards CMS/CUS/CS frequency sketches, UnivMon
//!   universal statistics, and pure distinct counters.  The traits are
//!   defined next to the sketches, in [`salsa_sketches::summary`], and
//!   re-exported here.
//! * [`ShardedPipeline`] partitions an item stream across `N` worker shards
//!   (each a `std::thread` owning its own summary), feeds each shard in
//!   configurable batches through [`StreamSummary::ingest`], and on
//!   [`ShardedPipeline::finish`] merges the shard summaries into one
//!   [`PipelineOutput`] whose `merged` summary answers queries for the
//!   whole stream.
//! * [`Partition::ByKey`] routes every key to one shard via an independent
//!   router hash, so each shard holds its keys' *entire* sub-stream.  With
//!   sum-merge rows the merged view is then **identical** to the sketch a
//!   single thread would have built — sharding is exact, not approximate.
//! * [`Partition::RoundRobin`] (the "replicated" mode) deals items to
//!   shards in turn, so every shard sees an arbitrary slice of the stream
//!   and correctness comes entirely from the counter-wise union via
//!   [`salsa_core::merge::RowMerge`].  Sum-merge rows again reproduce the
//!   unsharded sketch exactly; max-merge rows give a never-underestimating
//!   over-approximation (Theorem V.2).
//! * The pipeline serves queries **while the stream is still flowing**:
//!   [`ShardedPipeline::snapshot`] assembles an epoch-stamped
//!   [`SnapshotView`] by merging per-shard sketch clones, and
//!   [`ShardedPipeline::live_handle`] hands out clonable [`LiveHandle`]s
//!   that snapshot and query from other threads without stopping the
//!   workers (a [`SnapshotSummary`] clone per shard is the entire cost).
//!   Every live answer is the merged view's, so with sum-merge rows it
//!   equals the unsharded sketch at the view's epoch.  Re-serving one
//!   assembled view within a staleness budget, so high query rates don't
//!   multiply the clone cost, is `salsa-serve`'s `Coalescer`, generic over
//!   [`SnapshotSource`].
//! * The shard count itself is **elastic**:
//!   [`ShardedPipeline::rescale`] changes it while ingesting via
//!   generation-based resharding (drain → seal → fresh worker set), the
//!   same [`LiveHandle`]s keep serving across rescales at monotone epochs,
//!   a [`policy::LoadMonitor`] samples queue depth / busy time / ingest
//!   rate into `salsa-metrics` gauges, and pluggable
//!   [`policy::ScalingPolicy`] implementations decide when to scale
//!   ([`ShardedPipeline::autoscale`]).  For sum-merge rows the merged view
//!   stays byte-identical to an unsharded run no matter how many rescales
//!   happen mid-stream.
//! * The pipeline is **fault-tolerant**: worker panics are caught and
//!   published to a [`ShardHealth`] board instead of poisoning the
//!   pipeline, queries degrade to the surviving shards (every
//!   [`SnapshotView`] carries [`CoverageMeta`] naming the gap), a
//!   [`SupervisorConfig`] picks the [`Recovery`] policy (degrade, or
//!   restart dead shards with empty sketches) and bounds every blocking
//!   edge with deadlines, `try_*` variants report failures as typed
//!   [`PipelineError`]s, and a [`chaos`] fault-injection module scripts
//!   worker failures deterministically for tests and benches.
//!
//! ```
//! use salsa_pipeline::{run_sharded, PipelineConfig};
//! use salsa_sketches::prelude::*;
//!
//! let items: Vec<u64> = (0..10_000u64).map(|i| i % 100).collect();
//! let config = PipelineConfig::new(4);
//! let out = run_sharded(&config, |_| CountMin::salsa(4, 1024, 8, MergeOp::Sum, 7), &items);
//!
//! // The merged view agrees with an unsharded sketch of the same stream.
//! let mut single = CountMin::salsa(4, 1024, 8, MergeOp::Sum, 7);
//! for &item in &items {
//!     single.update(item, 1);
//! }
//! assert_eq!(out.merged.estimate(42), single.estimate(42));
//! ```
//!
//! Querying mid-stream, without stopping ingestion:
//!
//! ```
//! use salsa_pipeline::{PipelineConfig, ShardedPipeline};
//! use salsa_sketches::prelude::*;
//!
//! let make = |_shard: usize| CountMin::salsa(4, 1024, 8, MergeOp::Sum, 7);
//! let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), make);
//! pipeline.extend(&(0..5_000u64).map(|i| i % 100).collect::<Vec<_>>());
//!
//! let view = pipeline.snapshot(); // consistent, epoch-stamped, non-blocking
//! assert_eq!(view.epoch(), 5_000);
//! assert_eq!(view.estimate(42), 50);
//! assert_eq!(view.top_k(3, 0..100).len(), 3);
//!
//! pipeline.extend(&[42, 42]); // ingestion never stopped
//! let out = pipeline.finish();
//! assert_eq!(out.merged.estimate(42), 52);
//! ```
//!
//! Beyond frequency sketches — the same pipeline shards UnivMon and serves
//! entropy from a live snapshot:
//!
//! ```
//! use salsa_pipeline::{PipelineConfig, ShardedPipeline};
//! use salsa_sketches::prelude::*;
//!
//! let make = |_shard: usize| UnivMon::salsa(8, 5, 1 << 10, 8, 100, 7);
//! let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), make);
//! pipeline.extend(&(0..4_000u64).map(|i| i % 64).collect::<Vec<_>>());
//!
//! let view = pipeline.snapshot();
//! let entropy = view.entropy(); // ≈ log2(64) for this uniform stream
//! assert!((entropy - 6.0).abs() < 0.5);
//! let _out = pipeline.finish();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod error;
pub mod live;
pub mod policy;
pub mod sharded;
pub mod snapshot;
pub mod supervisor;
pub mod sync;

pub use chaos::{silence_worker_panics, FaultKind, FaultPlan, INJECTED_PANIC};
pub use error::PipelineError;
pub use live::{LiveHandle, SnapshotSource};
pub use policy::{LoadMonitor, LoadSnapshot, Manual, ScalingPolicy, Threshold};
pub use salsa_sketches::helper::MergeHelper;
pub use salsa_sketches::summary::{
    DistinctQueries, FrequencyQueries, SnapshotSummary, StreamSummary, Tracked, TrackedQueries,
    UniversalQueries,
};
pub use sharded::{
    run_sharded, PipelineOutput, RescaleEvent, ShardLoad, ShardStats, ShardedPipeline,
};
pub use snapshot::{CoverageMeta, SnapshotView};
pub use supervisor::{Backoff, Recovery, ShardHealth, ShardState, SupervisorConfig};

/// Default seed of the router hash.  It is fixed (and distinct from typical
/// sketch seeds) so that routing is independent of the row hash functions:
/// correlating the two would funnel each shard's keys into a biased subset
/// of each row's buckets.
pub const DEFAULT_ROUTER_SEED: u64 = 0x5A15_A0DE_57A6_ED01;

/// How the pipeline assigns stream items to worker shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partition {
    /// Route each key to one shard via the router hash, so a key's entire
    /// sub-stream lands on a single shard.  With sum-merge rows the merged
    /// global view is byte-identical to the unsharded sketch.
    #[default]
    ByKey,
    /// Deal items to shards round-robin (the "replicated" mode): every
    /// shard sees an arbitrary slice of the stream and the global view is
    /// the counter-wise union of all shards.  Load is perfectly balanced
    /// even for skewed key distributions; sum-merge rows still reproduce
    /// the unsharded sketch exactly.
    RoundRobin,
}

impl Partition {
    /// A short name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Partition::ByKey => "by_key",
            Partition::RoundRobin => "round_robin",
        }
    }
}

/// The shard that owns a key with router hash `hash` under
/// [`Partition::ByKey`]: `hash % shards`.  The producer's routing
/// ([`ShardedPipeline::shard_of`]) is its only caller.
#[inline]
pub(crate) fn by_key_shard(hash: u64, shards: usize) -> usize {
    (hash % shards as u64) as usize
}

/// Configuration of a [`ShardedPipeline`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Number of worker shards; each runs on its own thread.
    pub shards: usize,
    /// Items buffered per shard before a batch is dispatched to its worker.
    pub batch_size: usize,
    /// How items are assigned to shards.
    pub partition: Partition,
    /// Seed of the router hash (must be independent of the sketch seeds).
    pub router_seed: u64,
}

impl PipelineConfig {
    /// Default batch size: large enough to amortize channel traffic, small
    /// enough that a batch of `u64`s stays well inside L1.
    pub const DEFAULT_BATCH_SIZE: usize = 1024;

    /// A configuration with `shards` workers, the default batch size,
    /// [`Partition::ByKey`] routing and the default router seed — the entry
    /// point of the builder:
    ///
    /// ```
    /// use salsa_pipeline::{Partition, PipelineConfig};
    ///
    /// let config = PipelineConfig::new(4)
    ///     .batch_size(256)
    ///     .partition(Partition::RoundRobin)
    ///     .router_seed(0xFEED);
    /// assert_eq!(config.shards, 4);
    /// assert_eq!(config.batch_size, 256);
    /// ```
    ///
    /// A shard count of `0` is clamped to `1`, mirroring
    /// [`PipelineConfig::batch_size`]: no builder-style configuration can
    /// produce a config that panics at pipeline construction.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            batch_size: Self::DEFAULT_BATCH_SIZE,
            partition: Partition::default(),
            router_seed: DEFAULT_ROUTER_SEED,
        }
    }

    /// Sets the shard count.
    ///
    /// A shard count of `0` is clamped to `1` — same rule as
    /// [`PipelineConfig::batch_size`], so builders can't configure a
    /// pipeline that trips the `shards > 0` assertion in
    /// [`ShardedPipeline::new`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the batch size.
    ///
    /// A batch size of `0` is clamped to `1` (every push becomes its own
    /// batch): it used to configure a pipeline whose buffers could never
    /// reach their dispatch threshold.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Sets the partitioning mode.
    pub fn partition(mut self, partition: Partition) -> Self {
        self.partition = partition;
        self
    }

    /// Sets the router-hash seed.
    ///
    /// Keep it independent of the sketch seeds (see
    /// [`DEFAULT_ROUTER_SEED`]); it mainly exists so tests and experiments
    /// can exercise different routings.
    pub fn router_seed(mut self, router_seed: u64) -> Self {
        self.router_seed = router_seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_key_shard_is_the_hash_modulo_the_shard_count() {
        let router = salsa_hash::BobHash::new(DEFAULT_ROUTER_SEED);
        for key in 0..20_000u64 {
            for hash in [router.hash_u64(key), key, u64::MAX - key] {
                for shards in 1..=8usize {
                    assert_eq!(
                        by_key_shard(hash, shards),
                        (hash % shards as u64) as usize,
                        "hash {hash:#x} over {shards} shards"
                    );
                }
            }
        }
    }
}
