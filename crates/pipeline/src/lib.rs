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
//! * Routing is **by key**: the producer hashes every key with an
//!   independent router hash (seeded with [`DEFAULT_ROUTER_SEED`]), so each
//!   shard holds its keys' *entire* sub-stream.  With sum-merge rows the
//!   merged view is then **identical** to the sketch a single thread would
//!   have built — sharding is exact, not approximate; max-merge rows give
//!   a never-underestimating over-approximation (Theorem V.2).
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
//!   [`SnapshotView`] carries [`CoverageMeta`] naming the gap, and a
//!   [`PipelineOutput`] its lost items), the [`PipelineConfig`] picks the
//!   [`Recovery`] policy (degrade, or restart dead shards with empty
//!   sketches) and bounds every blocking edge with deadlines, what no
//!   degradation can absorb (no shard left to serve a view, an exhausted
//!   deadline) surfaces as a typed [`PipelineError`], and a [`chaos`]
//!   fault-injection module scripts worker failures deterministically for
//!   tests and benches.
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
//! // Consistent, epoch-stamped, non-blocking; an error only when no view
//! // can be served at all.
//! let view = pipeline.snapshot().expect("a healthy pipeline serves views");
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
//! let view = pipeline.snapshot().expect("a healthy pipeline serves views");
//! // ≈ log2(64) for this uniform stream; `None` would mean the estimate failed.
//! let entropy = view.entropy().expect("a non-negative estimate");
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

use std::time::Duration;

use crate::sync::Arc;

pub use chaos::{silence_worker_panics, FaultKind, FaultPlan, INJECTED_PANIC};
pub use error::PipelineError;
pub use live::{LiveHandle, SnapshotSource};
pub use policy::{LoadMonitor, LoadSnapshot, ScalingPolicy, Threshold};
pub use salsa_sketches::helper::MergeHelper;
pub use salsa_sketches::summary::{
    DistinctQueries, FrequencyQueries, SnapshotSummary, StreamSummary, Tracked, TrackedQueries,
    UniversalQueries,
};
pub use sharded::{
    run_sharded, PipelineOutput, RescaleEvent, ShardLoad, ShardStats, ShardedPipeline,
};
pub use snapshot::{CoverageMeta, SnapshotView};
pub use supervisor::{Recovery, ShardHealth, ShardState};

/// Default seed of the router hash.  It is fixed (and distinct from typical
/// sketch seeds) so that routing is independent of the row hash functions:
/// correlating the two would funnel each shard's keys into a biased subset
/// of each row's buckets.
pub const DEFAULT_ROUTER_SEED: u64 = 0x5A15_A0DE_57A6_ED01;

/// The shard that owns a key with router hash `hash`: `hash % shards`.
/// The producer's routing ([`ShardedPipeline::shard_of`] per item,
/// [`ShardedPipeline::extend`] over digests hashed a chunk at a time) is
/// its only user.
#[inline]
pub(crate) fn by_key_shard(hash: u64, shards: usize) -> usize {
    (hash % shards as u64) as usize
}

/// Configuration of a [`ShardedPipeline`]: its shape (shards, batch size)
/// and its fault tolerance (what to do about a dead worker, how long each
/// blocking edge may wait, and an optional fault-injection plan).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of worker shards; each runs on its own thread.
    pub shards: usize,
    /// Items buffered per shard before a batch is dispatched to its worker.
    pub batch_size: usize,
    /// What to do when a shard worker dies (default: [`Recovery::Degrade`]).
    pub recovery: Recovery,
    /// How long a snapshot or drain waits for each shard's reply before the
    /// call reports a timeout, and how long a live-handle query retries
    /// through a rescale's seal window.
    pub reply_timeout: Duration,
    /// Bound on a dispatch blocked by backpressure.  `None` (the default)
    /// blocks indefinitely: full channels are flow control, not a fault.
    /// Set a bound when a stalled worker must not stall the producer (the
    /// batch is then counted as dropped).
    pub dispatch_timeout: Option<Duration>,
    /// Fault-injection plan threaded into the worker loops; `None` outside
    /// chaos tests and benches.
    pub chaos: Option<Arc<FaultPlan>>,
}

impl PipelineConfig {
    /// Default batch size: large enough to amortize channel traffic, small
    /// enough that a batch of `u64`s stays well inside L1.
    pub const DEFAULT_BATCH_SIZE: usize = 1024;

    /// A configuration with `shards` workers, the default batch size,
    /// [`Recovery::Degrade`], 30 s reply deadlines (unreachable in healthy
    /// runs, small enough that a wedged worker cannot hang a caller
    /// forever) and unbounded dispatch — the entry point of the builder:
    ///
    /// ```
    /// use std::time::Duration;
    /// use salsa_pipeline::{PipelineConfig, Recovery};
    ///
    /// let config = PipelineConfig::new(4)
    ///     .batch_size(256)
    ///     .recovery(Recovery::Restart { max_restarts: 2 })
    ///     .reply_timeout(Duration::from_millis(100));
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
            recovery: Recovery::default(),
            reply_timeout: Duration::from_secs(30),
            dispatch_timeout: None,
            chaos: None,
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

    /// Sets the recovery policy.
    pub fn recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the per-shard reply deadline of snapshots and drains (see the
    /// field docs).
    pub fn reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = timeout;
        self
    }

    /// Bounds dispatch under backpressure (see the field docs).
    pub fn dispatch_timeout(mut self, timeout: Duration) -> Self {
        self.dispatch_timeout = Some(timeout);
        self
    }

    /// Threads a fault-injection plan into the worker loops.
    pub fn chaos(mut self, plan: Arc<FaultPlan>) -> Self {
        self.chaos = Some(plan);
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
