//! The summary contract and its capability traits.
//!
//! SALSA's counter-wise mergeability (Section V) is not specific to
//! frequency estimation, so the transport layer of `salsa-pipeline` —
//! sharded workers, live snapshots, elastic resharding — is bound only to
//! the minimal [`StreamSummary`] contract: *ingest a batch, merge
//! counter-wise*.  Everything a summary can be **asked** lives in small
//! capability traits ([`FrequencyQueries`], [`DistinctQueries`],
//! [`UniversalQueries`], [`TrackedQueries`]) that the pipeline's
//! `SnapshotView` and live/elastic handles surface only when the summary
//! implements them.
//!
//! Every sketch implements these traits once, in its own module, and the
//! trait method *is* the operation: there is no inherent twin behind it.
//! A merge that needs scratch space ([`UnivMon`](crate::univmon::UnivMon),
//! [`Tracked`]) holds its only algorithm in
//! [`SnapshotSummary::merge_with_helper`]; its [`StreamSummary::merge_from`]
//! runs that algorithm with a fresh [`MergeHelper`].

use crate::heavy_hitters::TopK;
use crate::helper::MergeHelper;

/// A summary whose same-seed, same-shape instances can ingest item batches
/// and be combined counter-wise into a summary of the union stream.
///
/// This is the *entire* contract a type must satisfy to run sharded: it must
/// be movable onto a worker thread (`Send + 'static`), consume batches of
/// items, and merge at the summary level.  What the summary can be queried
/// for afterwards is expressed separately through the capability traits
/// ([`FrequencyQueries`], [`DistinctQueries`], [`UniversalQueries`], …).
/// Implementations enforce the "same hash functions, same shape" merge
/// precondition themselves and panic on mismatch.
pub trait StreamSummary: Send + 'static {
    /// Processes a batch of unit-weight updates (`⟨item, 1⟩` per item) —
    /// the worker shard's hot path.  Implementations are expected to
    /// monomorphize the loop (row-major where update order allows) so a
    /// shard pays any dispatch cost once per batch, not once per item.
    fn ingest(&mut self, items: &[u64]);

    /// Counter-wise merges `other` into `self`, so that `self` afterwards
    /// summarizes the union of the two input streams.
    ///
    /// # Panics
    ///
    /// Panics if the operands were built with different seeds or shapes.
    fn merge_from(&mut self, other: &Self);
}

/// A [`StreamSummary`] that can additionally serve live queries: cloning it
/// is cheap and bounded (a flat copy of its counter storage), so a shard
/// worker can produce a point-in-time copy on demand without stalling
/// ingestion for longer than one memcpy.
///
/// This is the contract behind the pipeline's snapshots and live handles:
/// a snapshot is assembled by copying each shard's summary and folding the
/// copies counter-wise, leaving the live summaries untouched.
pub trait SnapshotSummary: StreamSummary + Clone {
    /// Bytes copied per clone — the cost one snapshot imposes on each
    /// shard.  Implementations report their counter storage plus encoding
    /// metadata (see `Row::clone_cost_bytes` in `salsa-core`).
    fn clone_cost_bytes(&self) -> usize;

    /// Counter-wise merges two summaries into a *new* one, leaving both
    /// operands untouched — the one-shot snapshot-assembly primitive.  Same
    /// seed/shape contract as [`StreamSummary::merge_from`].  Steady-state
    /// paths should prefer [`SnapshotSummary::copy_from`] +
    /// [`SnapshotSummary::merge_with_helper`], which reuse existing buffers.
    fn merge_into_new(&self, other: &Self) -> Self {
        // ALLOC-OK: one-shot entry point; steady-state callers reuse buffers
        // via copy_from + merge_with_helper instead.
        let mut merged = self.clone();
        merged.merge_from(other);
        merged
    }

    /// Overwrites `self` with `src`'s contents, reusing `self`'s existing
    /// backing storage where the implementation supports it — the
    /// snapshot-refresh primitive.  Both operands must share seeds and
    /// shapes (the same contract as [`StreamSummary::merge_from`]).
    fn copy_from(&mut self, src: &Self) {
        // ALLOC-OK: default fallback clones; summaries with flat counter
        // storage override this with an in-place, allocation-free copy.
        *self = src.clone();
    }

    /// Counter-wise merges `other` into `self`, drawing any scratch space
    /// from `helper` instead of allocating.  Semantically identical to
    /// [`StreamSummary::merge_from`] (same seed/shape contract); the default
    /// simply delegates to it, which is allocation-free for summaries made
    /// of counter rows alone.
    fn merge_with_helper(&mut self, other: &Self, helper: &mut MergeHelper) {
        let _ = helper;
        self.merge_from(other);
    }
}

/// Capability: per-item frequency queries.
///
/// Implemented by the frequency sketches (CMS/CUS/CS and wrappers around
/// them); the pipeline's `estimate`/`top_k` views and its point-query fast
/// paths are gated on it.
pub trait FrequencyQueries {
    /// Estimates the current frequency of `item` (signed, so Turnstile
    /// summaries fit the same surface).
    fn estimate(&self, item: u64) -> i64;
}

/// Capability: distinct-count (F0) estimation.
///
/// Gates the pipeline's `SnapshotView::estimate_distinct`.
pub trait DistinctQueries {
    /// Estimates the number of distinct items summarized so far; `None`
    /// when the underlying estimator has saturated.
    fn estimate_distinct(&self) -> Option<f64>;
}

/// Capability: UnivMon-style universal statistics (any G-sum in
/// Stream-PolyLog).
///
/// Gates the pipeline's `entropy`/`fp_moment`/`distinct` views.
pub trait UniversalQueries {
    /// Estimates the empirical entropy of the frequency distribution;
    /// `None` when the estimate failed (for the G-sum estimator, when it
    /// came out negative), so a failure never reads as an answer.
    fn entropy(&self) -> Option<f64>;

    /// Estimates the `p`-th frequency moment `F_p = Σ_x f_x^p`.
    fn fp_moment(&self, p: f64) -> f64;

    /// Estimates the number of distinct items (`F_0`).
    fn distinct(&self) -> f64;
}

/// Capability: an on-arrival heavy-hitter tracker rides along with the
/// summary (see [`Tracked`]).
///
/// Gates the pipeline's `SnapshotView::top_k_tracked`.
pub trait TrackedQueries {
    /// The tracked heavy hitters of this summary.
    fn tracked(&self) -> &TopK;
}

/// A frequency summary with an on-arrival [`TopK`] tracker riding along.
///
/// Every ingested item's fresh estimate is offered to the tracker (the
/// Section III heavy-hitter loop), so each shard tracks the top `k` of *its*
/// sub-stream.  On merge the inner summaries combine counter-wise and the
/// tracker is rebuilt by re-estimating the union of both trackers' items
/// against the merged summary — so in an assembled snapshot every tracked
/// estimate equals the merged view's estimate for that item.  An item is
/// missing only if **no** shard ever tracked it; with by-key routing a
/// key's entire sub-stream lands on one shard, so any item that would enter
/// a single-threaded tracker of the same `k` is tracked by its home shard.
///
/// The pipeline's `SnapshotView::top_k_tracked` exposes the merged tracker.
#[derive(Debug, Clone)]
pub struct Tracked<S> {
    inner: S,
    tracker: TopK,
}

impl<S> Tracked<S> {
    /// Wraps `inner`, tracking the `k` items with the largest estimates.
    pub fn new(inner: S, k: usize) -> Self {
        Self {
            inner,
            tracker: TopK::new(k),
        }
    }

    /// Borrows the wrapped summary.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the summary, discarding the tracker.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S> StreamSummary for Tracked<S>
where
    S: SnapshotSummary + FrequencyQueries,
{
    fn ingest(&mut self, items: &[u64]) {
        self.inner.ingest(items);
        // Offer post-batch estimates; `TopK::offer` keeps the max per item,
        // so duplicates within the batch are harmless.
        for &item in items {
            let est = self.inner.estimate(item).max(0) as u64;
            self.tracker.offer(item, est);
        }
    }

    fn merge_from(&mut self, other: &Self) {
        // ALLOC-OK: one-shot entry point; steady-state folds thread a warm
        // helper through `merge_with_helper` instead.
        self.merge_with_helper(other, &mut MergeHelper::new());
    }
}

impl<S> SnapshotSummary for Tracked<S>
where
    S: SnapshotSummary + FrequencyQueries,
{
    fn clone_cost_bytes(&self) -> usize {
        self.inner.clone_cost_bytes() + self.tracker.clone_cost_bytes()
    }

    fn copy_from(&mut self, src: &Self) {
        self.inner.copy_from(&src.inner);
        self.tracker.copy_from(&src.tracker);
    }

    fn merge_with_helper(&mut self, other: &Self, helper: &mut MergeHelper) {
        self.inner.merge_with_helper(&other.inner, helper);
        let inner = &self.inner;
        helper.rebuild_tracker(&mut self.tracker, &other.tracker, |item| {
            inner.estimate(item)
        });
    }
}

impl<S: FrequencyQueries> FrequencyQueries for Tracked<S> {
    fn estimate(&self, item: u64) -> i64 {
        self.inner.estimate(item)
    }
}

impl<S: DistinctQueries> DistinctQueries for Tracked<S> {
    fn estimate_distinct(&self) -> Option<f64> {
        self.inner.estimate_distinct()
    }
}

impl<S> TrackedQueries for Tracked<S> {
    fn tracked(&self) -> &TopK {
        &self.tracker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cms::CountMin;
    use crate::distinct::DistinctCounter;
    use salsa_core::prelude::MergeOp;

    fn summary_ingest<S: StreamSummary>(summary: &mut S, items: &[u64]) {
        summary.ingest(items);
    }

    #[test]
    fn tracked_ingest_tracks_heavy_hitters() {
        let mut tracked = Tracked::new(CountMin::baseline(4, 1 << 12, 32, 9), 4);
        let mut items = Vec::new();
        for item in 0..100u64 {
            for _ in 0..=item {
                items.push(item);
            }
        }
        summary_ingest(&mut tracked, &items);
        let tops: Vec<u64> = tracked.tracked().items().iter().map(|&(i, _)| i).collect();
        assert_eq!(tops, vec![99, 98, 97, 96]);
    }

    #[test]
    fn tracked_merge_rebuilds_against_merged_summary() {
        let make = || Tracked::new(CountMin::baseline(4, 1 << 12, 32, 9), 8);
        let mut whole = make();
        let mut left = make();
        let mut right = make();
        let mut items = Vec::new();
        for item in 0..50u64 {
            for _ in 0..=item {
                items.push(item);
            }
        }
        whole.ingest(&items);
        let (a, b) = items.split_at(items.len() / 2);
        left.ingest(a);
        right.ingest(b);
        left.merge_from(&right);
        // Rebuilt estimates reflect the *merged* summary, not the partials.
        for (item, est) in left.tracked().items() {
            assert_eq!(est, left.estimate(item) as u64);
        }
        assert!(left.tracked().contains(49));
        assert!(left.tracked().contains(48));
    }

    #[test]
    fn tracked_merge_with_helper_matches_merge_from() {
        let make = || Tracked::new(CountMin::baseline(4, 1 << 12, 32, 9), 8);
        let mut items = Vec::new();
        for item in 0..50u64 {
            for _ in 0..=item {
                items.push(item);
            }
        }
        let (a, b) = items.split_at(items.len() / 3);

        let mut plain = make();
        let mut plain_rhs = make();
        plain.ingest(a);
        plain_rhs.ingest(b);
        plain.merge_from(&plain_rhs);

        let mut helped = make();
        let mut helped_rhs = make();
        helped.ingest(a);
        helped_rhs.ingest(b);
        let mut helper = MergeHelper::new();
        helped.merge_with_helper(&helped_rhs, &mut helper);

        assert_eq!(plain.tracked().items(), helped.tracked().items());
        for item in 0..50u64 {
            assert_eq!(plain.estimate(item), helped.estimate(item));
        }
    }

    #[test]
    fn tracked_copy_from_refreshes_in_place() {
        let mut src = Tracked::new(CountMin::baseline(4, 1 << 12, 32, 9), 4);
        src.ingest(&[7, 7, 7, 3, 3, 1]);
        let mut dst = Tracked::new(CountMin::baseline(4, 1 << 12, 32, 9), 4);
        dst.ingest(&[100, 100, 200]);
        dst.copy_from(&src);
        assert_eq!(dst.estimate(7), src.estimate(7));
        assert_eq!(dst.tracked().items(), src.tracked().items());
    }

    #[test]
    fn distinct_counter_is_a_stream_summary_without_frequency_queries() {
        // Compile-time proof that the transport bound does not require
        // FrequencyQueries: DistinctCounter implements StreamSummary only.
        let mut counter = DistinctCounter::new(CountMin::salsa(4, 1 << 12, 8, MergeOp::Sum, 5));
        summary_ingest(&mut counter, &[1, 2, 3, 2, 1]);
        assert!(counter.estimate_distinct().is_some());
    }
}
