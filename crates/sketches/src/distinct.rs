//! Distinct-count (F0) estimation via Linear Counting over sketch rows.
//!
//! Linear Counting (Whang et al.) estimates the number of distinct items
//! from the fraction `p` of counters that remain zero: `F̂0 = −w·ln p`.
//! A CMS row can be used directly; a SALSA row cannot tell exactly how many
//! *base* counters stayed zero (some were swallowed by merges), so the paper
//! uses a heuristic (Section V): among merged counters, assume zero sub-slots
//! occur at the same rate `f` as among the unmerged ones.  That heuristic is
//! implemented by [`Row::estimated_zero_base_slots`].

use salsa_core::merge::RowMerge;
use salsa_core::traits::Row;

use crate::cms::CountMin;
use crate::summary::{DistinctQueries, SnapshotSummary, StreamSummary};

/// The Linear Counting estimate for a row with `width` slots of which
/// `zero_slots` are (estimated to be) zero.
///
/// Returns `None` when no slot is zero — the estimator saturates (the paper
/// notes Linear Counting with `w` buckets can count only up to ≈ `w·ln w`
/// distinct items, so small sketches cannot produce estimates on large
/// streams; Fig. 14 shows exactly this failure region).
pub fn linear_counting(zero_slots: f64, width: usize) -> Option<f64> {
    if width == 0 || zero_slots <= 0.0 {
        return None;
    }
    let p = (zero_slots / width as f64).min(1.0);
    if p >= 1.0 {
        return Some(0.0);
    }
    Some(-(width as f64) * p.ln())
}

/// Averages the Linear Counting estimates of several rows (e.g. all the rows
/// of a CMS).  Returns `None` if every row has saturated.
pub fn distinct_from_rows<'a, R: Row + 'a>(rows: impl IntoIterator<Item = &'a R>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for row in rows {
        if let Some(est) = linear_counting(row.estimated_zero_base_slots(), row.width()) {
            sum += est;
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// A stream summary that *only* counts distinct items.
///
/// Wraps a [`CountMin`] whose counters serve purely as the Linear Counting
/// occupancy map — the wrapper deliberately exposes no per-item frequency
/// surface, which is what lets it demonstrate that the `salsa-pipeline`
/// machinery accepts summaries outside the `FrequencyEstimator` family.
/// With sum-merge rows (e.g. [`FixedRow`](salsa_core::fixed::FixedRow)) the
/// counter state after a counter-wise merge is byte-identical to a single
/// unsharded run, so the sharded distinct estimate is *exactly* the
/// unsharded one (Section V).
#[derive(Debug, Clone)]
pub struct DistinctCounter<R: Row> {
    cms: CountMin<R>,
}

impl<R: Row> DistinctCounter<R> {
    /// Wraps an (empty) Count-Min sketch as a distinct counter.
    pub fn new(cms: CountMin<R>) -> Self {
        Self { cms }
    }

    /// Records one occurrence of `item`.
    pub fn update(&mut self, item: u64) {
        self.cms.update(item, 1);
    }

    /// Total memory used, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.cms.size_bytes()
    }

    /// Borrows the underlying occupancy sketch.
    pub fn inner(&self) -> &CountMin<R> {
        &self.cms
    }
}

impl<R: Row + RowMerge + Send + 'static> StreamSummary for DistinctCounter<R> {
    fn ingest(&mut self, items: &[u64]) {
        self.cms.update_batch(items);
    }

    /// Counter-wise merges `other` into `self` (same seed/shape enforced);
    /// afterwards the estimate covers the union of both input streams.
    fn merge_from(&mut self, other: &Self) {
        self.cms.merge_from(&other.cms);
    }
}

impl<R: Row + RowMerge + Clone + Send + 'static> SnapshotSummary for DistinctCounter<R> {
    fn clone_cost_bytes(&self) -> usize {
        self.cms.clone_cost_bytes()
    }

    fn copy_from(&mut self, src: &Self) {
        self.cms.copy_from(&src.cms);
    }
}

impl<R: Row> DistinctQueries for DistinctCounter<R> {
    /// Linear Counting averaged over the rows; `None` once every counter is
    /// occupied.
    fn estimate_distinct(&self) -> Option<f64> {
        self.cms.estimate_distinct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_core::prelude::*;

    #[test]
    fn empty_row_estimates_zero_distinct() {
        let row = FixedRow::new(1024, 32);
        let est = linear_counting(row.estimated_zero_base_slots(), row.width()).unwrap();
        assert_eq!(est, 0.0);
    }

    #[test]
    fn saturated_row_gives_none() {
        assert_eq!(linear_counting(0.0, 1024), None);
        assert_eq!(linear_counting(5.0, 0), None);
    }

    #[test]
    fn baseline_cms_distinct_count_is_accurate() {
        let mut cms = CountMin::baseline(4, 1 << 14, 32, 3);
        let distinct = 4_000u64;
        for item in 0..distinct {
            // Several occurrences each; repeats must not change the estimate.
            for _ in 0..3 {
                cms.update(item, 1);
            }
        }
        let est = cms.estimate_distinct().expect("not saturated");
        let rel_err = (est - distinct as f64).abs() / distinct as f64;
        assert!(rel_err < 0.05, "relative error {rel_err}");
    }

    #[test]
    fn salsa_cms_distinct_count_is_accurate_with_quarter_the_memory() {
        // SALSA rows with s = 8 have 4× the slots of a 32-bit baseline at the
        // same memory, so Linear Counting saturates later (Fig. 14).
        let mut cms = CountMin::salsa(4, 1 << 16, 8, MergeOp::Max, 3);
        let distinct = 20_000u64;
        for item in 0..distinct {
            cms.update(item, 1);
        }
        let est = cms.estimate_distinct().expect("not saturated");
        let rel_err = (est - distinct as f64).abs() / distinct as f64;
        assert!(rel_err < 0.05, "relative error {rel_err}");
    }

    #[test]
    fn repeated_items_do_not_inflate_the_estimate() {
        let mut cms = CountMin::salsa(4, 1 << 14, 8, MergeOp::Max, 9);
        for item in 0..1_000u64 {
            cms.update(item, 1);
        }
        let before = cms.estimate_distinct().unwrap();
        for item in 0..1_000u64 {
            for _ in 0..20 {
                cms.update(item, 1);
            }
        }
        let after = cms.estimate_distinct().unwrap();
        // Merges may slightly move the heuristic, but the estimate must stay
        // in the same ballpark rather than scaling with the repetitions.
        assert!(
            (after - before).abs() / before < 0.25,
            "before {before}, after {after}"
        );
    }

    #[test]
    fn distinct_counter_merge_is_exact_for_sum_rows() {
        let make = || DistinctCounter::new(CountMin::baseline(4, 1 << 14, 32, 7));
        let mut whole = make();
        let mut left = make();
        let mut right = make();
        for item in 0..6_000u64 {
            whole.update(item);
            if item % 2 == 0 {
                left.update(item);
            } else {
                right.update(item);
            }
        }
        left.merge_from(&right);
        // Sum-merge rows: the merged occupancy map is byte-identical to the
        // unsharded one, so the estimates match exactly.
        assert_eq!(left.estimate_distinct(), whole.estimate_distinct());
        let est = whole.estimate_distinct().expect("not saturated");
        assert!((est - 6_000.0).abs() / 6_000.0 < 0.05);
    }

    #[test]
    fn distinct_counter_batch_matches_loop() {
        let items: Vec<u64> = (0..3_000u64).map(|i| i % 500).collect();
        let mut batched = DistinctCounter::new(CountMin::baseline(4, 1 << 12, 32, 3));
        batched.ingest(&items);
        let mut looped = DistinctCounter::new(CountMin::baseline(4, 1 << 12, 32, 3));
        for &item in &items {
            looped.update(item);
        }
        assert_eq!(batched.estimate_distinct(), looped.estimate_distinct());
    }

    #[test]
    fn small_sketch_saturates_on_large_streams() {
        let mut cms = CountMin::baseline(4, 256, 32, 1);
        for item in 0..100_000u64 {
            cms.update(item, 1);
        }
        assert!(
            cms.estimate_distinct().is_none(),
            "small sketch should saturate"
        );
    }
}
