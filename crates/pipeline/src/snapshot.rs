//! Epoch-stamped, point-in-time views of a running pipeline.
//!
//! A [`SnapshotView`] is assembled by merging clones of the per-shard
//! summaries (Section V: same-seed sketches combine counter-wise), so it
//! can be queried freely — per-shard stats always; point estimates, top-k,
//! distinct counts, entropy and the like whenever the summary implements
//! the matching capability trait ([`FrequencyQueries`],
//! [`DistinctQueries`], [`UniversalQueries`], [`TrackedQueries`]) — without
//! holding any lock and without slowing the workers beyond the one-off
//! clone.  The view is immutable: it represents the stream *as of its
//! epoch* and only grows stale, never inconsistent.

use std::time::{Duration, Instant};

use salsa_sketches::heavy_hitters::TopK;

use crate::sharded::ShardStats;
use crate::{DistinctQueries, FrequencyQueries, TrackedQueries, UniversalQueries};

/// How much of the acknowledged stream a [`SnapshotView`] actually covers.
///
/// A healthy pipeline serves *full* views (`shards_failed == 0`,
/// `uncovered_items == 0`).  When shard workers have died, the surviving
/// shards still assemble into a view — an answer-with-caveats — and this
/// metadata names the gap, so a caller can decide whether a degraded
/// answer is good enough.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageMeta {
    /// Shards whose state is represented in the view.
    pub shards_ok: usize,
    /// Shards that are dead (or unreachable) and contribute nothing.
    pub shards_failed: usize,
    /// Items that were acknowledged (applied by some worker), and so are
    /// counted in the view's epoch, but are *not* reflected in its summary:
    /// applied by a shard that later died, or by a dead incarnation of a
    /// since-restarted shard — in the live generation or a sealed one.
    pub uncovered_items: u64,
}

impl CoverageMeta {
    /// Full coverage over `shards` shards — the healthy-pipeline value.
    pub fn full(shards: usize) -> Self {
        Self {
            shards_ok: shards,
            shards_failed: 0,
            uncovered_items: 0,
        }
    }

    /// `true` when nothing is missing.
    pub fn is_full(&self) -> bool {
        self.shards_failed == 0 && self.uncovered_items == 0
    }
}

/// An immutable, epoch-stamped snapshot of the pipeline's merged state.
///
/// **Epoch semantics:** the epoch counts every update any worker had
/// acknowledged when the view's per-shard prefixes were taken, covered or
/// not: the sealed generations' acknowledged items plus, per live shard,
/// the items of every worker incarnation (a dead shard counts with its
/// final applied count).  [`CoverageMeta::uncovered_items`] names the part
/// the view's summary does not cover.  Every term only grows, so
/// successive snapshots taken through one [`LiveHandle`] have
/// monotonically non-decreasing epochs across shard deaths, restarts and
/// rescales.  A view taken through [`ShardedPipeline::snapshot`] on a
/// healthy pipeline sits at epoch [`ShardedPipeline::pushed`]; for
/// sum-merge rows its estimates then equal an unsharded sketch over
/// exactly the first `epoch` pushed items.
///
/// [`ShardedPipeline::snapshot`]: crate::ShardedPipeline::snapshot
/// [`ShardedPipeline::pushed`]: crate::ShardedPipeline::pushed
/// [`LiveHandle`]: crate::LiveHandle
#[derive(Debug)]
pub struct SnapshotView<S> {
    merged: S,
    epoch: u64,
    generation: u64,
    coverage: CoverageMeta,
    shards: Vec<ShardStats>,
    issued: Instant,
    assembled: Instant,
}

impl<S> SnapshotView<S> {
    /// A view with explicit (possibly degraded) coverage metadata; `shards`
    /// holds the stats of the *surviving* live shards only.  A healthy
    /// assembly passes [`CoverageMeta::full`].
    pub(crate) fn with_coverage(
        merged: S,
        epoch: u64,
        generation: u64,
        coverage: CoverageMeta,
        shards: Vec<ShardStats>,
        issued: Instant,
    ) -> Self {
        Self {
            merged,
            epoch,
            generation,
            coverage,
            shards,
            issued,
            assembled: Instant::now(),
        }
    }

    /// Builds a view around an externally produced summary, issued now.
    ///
    /// [`SnapshotSource`](crate::SnapshotSource) is a public trait, so
    /// custom sources (test doubles, proxies over remote pipelines) need a
    /// way to mint the views they serve; this is it.  The view carries no
    /// per-shard statistics.
    #[must_use]
    pub fn synthetic(merged: S, epoch: u64, generation: u64, coverage: CoverageMeta) -> Self {
        let now = Instant::now();
        Self {
            merged,
            epoch,
            generation,
            coverage,
            // ALLOC-OK: empty Vec (no heap storage); synthetic views carry
            // no shard statistics, and minting one is not the query path.
            shards: Vec::new(),
            issued: now,
            assembled: now,
        }
    }

    /// Acknowledged updates this view accounts for, covered or not (see
    /// the type docs).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Which worker-set generation served this view: the number of
    /// completed [`rescales`](crate::ShardedPipeline::rescale) at serve
    /// time (`0` for a pipeline that never rescaled).  The view folds every
    /// sealed generation, so its estimates cover the whole stream.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// How much of the acknowledged stream this view covers.  Full for a
    /// healthy pipeline; a view assembled while shard workers are dead
    /// names the gap here instead of failing.
    #[inline]
    pub fn coverage(&self) -> CoverageMeta {
        self.coverage
    }

    /// Shards represented in this view (see [`CoverageMeta`]).
    #[inline]
    pub fn shards_ok(&self) -> usize {
        self.coverage.shards_ok
    }

    /// Dead shards contributing nothing to this view (see [`CoverageMeta`]).
    #[inline]
    pub fn shards_failed(&self) -> usize {
        self.coverage.shards_failed
    }

    /// Fraction of acknowledged items this view covers:
    /// `(epoch - uncovered_items) / epoch`, i.e. `1.0` for a full view.
    /// Estimates from a degraded view under-count roughly in proportion.
    pub fn coverage_fraction(&self) -> f64 {
        if self.epoch == 0 {
            1.0
        } else {
            self.epoch.saturating_sub(self.coverage.uncovered_items) as f64 / self.epoch as f64
        }
    }

    /// `true` when any shard is missing from the view or acknowledged items
    /// are uncovered — i.e. when answers carry caveats.
    pub fn is_degraded(&self) -> bool {
        !self.coverage.is_full()
    }

    /// Per-shard statistics at the moment each shard was cloned.
    pub fn shards(&self) -> &[ShardStats] {
        &self.shards
    }

    /// The merged summary backing this view.
    pub fn merged(&self) -> &S {
        &self.merged
    }

    /// Consumes the view, returning the merged summary.
    pub fn into_merged(self) -> S {
        self.merged
    }

    /// How long assembling the view took (clone + merge of every shard) —
    /// the latency a synchronous snapshot query pays.
    pub fn assembly_time(&self) -> Duration {
        self.assembled.duration_since(self.issued)
    }

    /// How stale the view is *right now*: time elapsed since the snapshot
    /// was requested.  Any update acknowledged within the last
    /// `staleness()` may be missing from the view — this is the pipeline's
    /// staleness model, and it grows monotonically while a view is held.
    pub fn staleness(&self) -> Duration {
        self.issued.elapsed()
    }
}

impl<S: FrequencyQueries> SnapshotView<S> {
    /// Estimates the frequency of `item` as of this view's epoch.
    #[inline]
    pub fn estimate(&self, item: u64) -> i64 {
        self.merged.estimate(item)
    }

    /// The `k` candidates with the largest estimates as of this view's
    /// epoch, via [`TopK`].  Sketches cannot enumerate their keys, so the
    /// caller supplies the candidate set (a key universe, a tracked
    /// hot-set, …); negative estimates (possible under Count Sketch) are
    /// treated as absent.
    ///
    /// **Exactness:** relative to the merged view this is *exact over the
    /// supplied candidates* — every candidate is re-estimated against the
    /// merged summary, so nothing the caller names can be missed.  The
    /// trade-off is that the caller must be able to name the candidates;
    /// when no candidate universe is available, wrap the summary in
    /// [`Tracked`](crate::Tracked) and use
    /// [`SnapshotView::top_k_tracked`], which needs no candidate set but is
    /// approximate (an item can be missing if no shard ever tracked it).
    pub fn top_k(&self, k: usize, candidates: impl IntoIterator<Item = u64>) -> TopK {
        let mut topk = TopK::new(k);
        for item in candidates {
            let estimate = self.estimate(item);
            if estimate > 0 {
                topk.offer(item, estimate as u64);
            }
        }
        topk
    }
}

impl<S: TrackedQueries> SnapshotView<S> {
    /// The heavy hitters tracked on-arrival by the shards, merged at
    /// snapshot time (see [`Tracked`](crate::Tracked)).
    ///
    /// **Exactness:** the tracked *estimates* are exact with respect to this
    /// view — the merge re-estimates every surviving item against the merged
    /// summary, so `top_k_tracked().estimate(x) == estimate(x)` for every
    /// tracked `x`.  The tracked *set* is approximate: an item is missing
    /// only if no shard ever tracked it.  With by-key routing each key's
    /// whole sub-stream lands on one shard, so any item a single-threaded
    /// tracker of the same `k` would hold is tracked by its home shard;
    /// under round-robin routing a key's occurrences are split across
    /// shards and a borderline item can fall below every per-shard
    /// threshold.  Use [`SnapshotView::top_k`] with an explicit candidate
    /// set when the caller can enumerate candidates and needs exactness.
    pub fn top_k_tracked(&self) -> &TopK {
        self.merged.tracked()
    }
}

impl<S: DistinctQueries> SnapshotView<S> {
    /// Estimates the number of distinct items as of this view's epoch;
    /// `None` once the underlying estimator has saturated.
    pub fn estimate_distinct(&self) -> Option<f64> {
        self.merged.estimate_distinct()
    }
}

impl<S: UniversalQueries> SnapshotView<S> {
    /// Estimates the empirical entropy of the stream as of this view's
    /// epoch (UnivMon G-sum estimator).
    pub fn entropy(&self) -> f64 {
        self.merged.entropy()
    }

    /// Estimates the `p`-th frequency moment `F_p = Σ_x f_x^p` as of this
    /// view's epoch.
    pub fn fp_moment(&self, p: f64) -> f64 {
        self.merged.fp_moment(p)
    }

    /// Estimates the number of distinct items (`F_0`) as of this view's
    /// epoch.
    pub fn distinct(&self) -> f64 {
        self.merged.distinct()
    }
}
