//! The Conservative Update Sketch (CUS) and its SALSA variant.
//!
//! CUS (Estan & Varghese) improves CMS accuracy in the Cash Register model:
//! on an update `⟨x, v⟩` it only raises each of `x`'s counters to
//! `max{current, v + f̂_x}`, where `f̂_x` is the estimate *before* the update.
//! SALSA CUS must use max-merging (Theorem V.3).

use salsa_core::compact::LayoutCodes;
use salsa_core::encoding::MergeEncoding;
use salsa_core::fixed::FixedRow;
use salsa_core::merge::RowMerge;
use salsa_core::row::SalsaRow;
use salsa_core::tango::TangoRow;
use salsa_core::traits::{MergeOp, Row};
use salsa_hash::RowHashers;

use crate::distinct::distinct_from_rows;
use crate::estimator::FrequencyEstimator;
use crate::summary::{DistinctQueries, FrequencyQueries, SnapshotSummary, StreamSummary};

/// A Conservative Update Sketch over an arbitrary row type.
#[derive(Debug, Clone)]
pub struct ConservativeUpdate<R: Row> {
    rows: Vec<R>,
    hashers: RowHashers,
    /// Scratch space for per-row buckets, avoiding re-hashing during the
    /// read-then-raise update.
    buckets: Vec<usize>,
    seed: u64,
}

impl<R: Row> ConservativeUpdate<R> {
    /// Builds a sketch from pre-constructed rows and a hash seed.
    pub fn from_rows(rows: Vec<R>, seed: u64) -> Self {
        assert!(!rows.is_empty(), "a sketch needs at least one row");
        let width = rows[0].width();
        assert!(
            rows.iter().all(|r| r.width() == width),
            "all rows must have the same width"
        );
        let depth = rows.len();
        let hashers = RowHashers::new(depth, width, seed);
        Self {
            rows,
            hashers,
            buckets: vec![0; depth],
            seed,
        }
    }

    /// The hash seed the sketch was built with.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of rows (`d`).
    #[inline]
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// Counters per row (`w`).
    #[inline]
    pub fn width(&self) -> usize {
        self.hashers.width()
    }

    /// Immutable access to the rows.
    pub fn rows(&self) -> &[R] {
        &self.rows
    }

    /// Processes the update `⟨item, value⟩` (Cash Register: `value > 0`).
    pub fn update(&mut self, item: u64, value: u64) {
        let mut estimate = u64::MAX;
        for row_idx in 0..self.rows.len() {
            let bucket = self.hashers.bucket(row_idx, item);
            self.buckets[row_idx] = bucket;
            estimate = estimate.min(self.rows[row_idx].read(bucket));
        }
        let target = estimate.saturating_add(value);
        for (row, &bucket) in self.rows.iter_mut().zip(self.buckets.iter()) {
            row.raise_to(bucket, target);
        }
    }

    /// Processes a batch of unit-weight updates.
    ///
    /// The conservative update reads the item's estimate *before* raising
    /// its counters, so updates cannot be reordered across items the way CMS
    /// updates can; this loop therefore stays item-major, and the win over
    /// the generic path is monomorphization (no per-item virtual dispatch).
    pub fn update_batch(&mut self, items: &[u64]) {
        for &item in items {
            self.update(item, 1);
        }
    }

    /// Estimates the frequency of `item`.
    #[inline]
    pub fn estimate(&self, item: u64) -> u64 {
        let mut est = u64::MAX;
        for (row_idx, row) in self.rows.iter().enumerate() {
            est = est.min(row.read(self.hashers.bucket(row_idx, item)));
        }
        est
    }

    /// Total memory used by the sketch, including encoding overhead.
    pub fn size_bytes(&self) -> usize {
        self.rows.iter().map(Row::size_bytes).sum()
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        self.rows.iter_mut().for_each(Row::reset);
    }

    /// Panics unless `other` was built with the same seed and shape (see
    /// `CountMin`'s counterpart).
    fn assert_compatible(&self, other: &Self) {
        assert_eq!(self.seed, other.seed, "sketches must share hash seeds");
        assert_eq!(self.depth(), other.depth(), "sketch depths must match");
        assert_eq!(self.width(), other.width(), "sketch widths must match");
    }
}

impl ConservativeUpdate<FixedRow> {
    /// The paper's *Baseline* CUS with fixed-width counters.
    pub fn baseline(depth: usize, width: usize, bits: u32, seed: u64) -> Self {
        Self::from_rows(
            (0..depth).map(|_| FixedRow::new(width, bits)).collect(),
            seed,
        )
    }
}

impl<E: MergeEncoding> ConservativeUpdate<SalsaRow<E>> {
    /// A SALSA CUS with an explicit merge encoding.  Max-merge is enforced
    /// (Theorem V.3 requires it).
    pub fn salsa_with_encoding(depth: usize, width: usize, base_bits: u32, seed: u64) -> Self {
        Self::from_rows(
            (0..depth)
                .map(|_| SalsaRow::<E>::new(width, base_bits, MergeOp::Max))
                .collect(),
            seed,
        )
    }
}

impl ConservativeUpdate<SalsaRow<salsa_core::bitmap::MergeBitmap>> {
    /// A SALSA CUS with the simple encoding (the paper's default).
    pub fn salsa(depth: usize, width: usize, base_bits: u32, seed: u64) -> Self {
        Self::salsa_with_encoding(depth, width, base_bits, seed)
    }
}

impl ConservativeUpdate<SalsaRow<LayoutCodes>> {
    /// A SALSA CUS with the near-optimal encoding.
    pub fn salsa_compact(depth: usize, width: usize, base_bits: u32, seed: u64) -> Self {
        Self::salsa_with_encoding(depth, width, base_bits, seed)
    }
}

impl ConservativeUpdate<TangoRow> {
    /// A Tango CUS (fine-grained merging, max-merge).
    pub fn tango(depth: usize, width: usize, base_bits: u32, seed: u64) -> Self {
        Self::from_rows(
            (0..depth)
                .map(|_| TangoRow::new(width, base_bits, MergeOp::Max))
                .collect(),
            seed,
        )
    }
}

impl<R: Row> FrequencyEstimator for ConservativeUpdate<R> {
    fn update(&mut self, item: u64, value: i64) {
        debug_assert!(value >= 0, "CUS operates in the Cash Register model");
        ConservativeUpdate::update(self, item, value as u64);
    }

    fn estimate(&self, item: u64) -> i64 {
        FrequencyQueries::estimate(self, item)
    }

    fn size_bytes(&self) -> usize {
        ConservativeUpdate::size_bytes(self)
    }

    fn name(&self) -> String {
        "ConservativeUpdate".to_string()
    }
}

impl<R: Row + RowMerge + Send + 'static> StreamSummary for ConservativeUpdate<R> {
    fn ingest(&mut self, items: &[u64]) {
        self.update_batch(items);
    }

    /// Counter-wise merges `other` into `self` (same seeds and shape
    /// enforced): every counter becomes the sum of the two operands'
    /// counters.
    ///
    /// The result never under-estimates the union stream (each operand
    /// counter upper-bounds its shard's frequencies, so their sum
    /// upper-bounds the total), but it is *not* the sketch a single CUS
    /// would have built from the concatenated stream — conservative updates
    /// are order-dependent and use cross-row information that counter-wise
    /// merging cannot reconstruct.  Merged estimates are therefore looser
    /// than single-sketch CUS estimates, while staying upper-bounded by the
    /// merged CMS with the same configuration.
    fn merge_from(&mut self, other: &Self) {
        self.assert_compatible(other);
        for (a, b) in self.rows.iter_mut().zip(other.rows.iter()) {
            a.absorb(b);
        }
    }
}

impl<R: Row + RowMerge + Clone + Send + 'static> SnapshotSummary for ConservativeUpdate<R> {
    /// The rows' counter storage + encoding plus the per-update bucket
    /// scratch.
    fn clone_cost_bytes(&self) -> usize {
        self.rows.iter().map(Row::clone_cost_bytes).sum::<usize>()
            + self.buckets.len() * std::mem::size_of::<usize>()
    }

    /// Refreshes a warm snapshot buffer in place, **without allocating**.
    fn copy_from(&mut self, src: &Self) {
        self.assert_compatible(src);
        for (dst, src_row) in self.rows.iter_mut().zip(src.rows.iter()) {
            dst.copy_from(src_row);
        }
    }
}

impl<R: Row> FrequencyQueries for ConservativeUpdate<R> {
    fn estimate(&self, item: u64) -> i64 {
        ConservativeUpdate::estimate(self, item).min(i64::MAX as u64) as i64
    }
}

impl<R: Row> DistinctQueries for ConservativeUpdate<R> {
    /// Linear Counting averaged over the rows.
    fn estimate_distinct(&self) -> Option<f64> {
        distinct_from_rows(&self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cms::CountMin;
    use std::collections::HashMap;

    fn zipfish_stream(n: usize, universe: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
                ((1.0 / u) as u64).min(universe - 1)
            })
            .collect()
    }

    #[test]
    fn never_underestimates() {
        let mut cus = ConservativeUpdate::salsa(4, 256, 8, 3);
        let stream = zipfish_stream(30_000, 1_000, 17);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &item in &stream {
            cus.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        for (&item, &count) in &truth {
            assert!(cus.estimate(item) >= count, "item {item}");
        }
    }

    #[test]
    fn cus_is_at_most_cms() {
        // The CUS estimate is always upper-bounded by the CMS estimate for
        // the same configuration and stream.
        let seed = 8;
        let mut cus = ConservativeUpdate::baseline(4, 256, 32, seed);
        let mut cms = CountMin::baseline(4, 256, 32, seed);
        let stream = zipfish_stream(50_000, 5_000, 23);
        for &item in &stream {
            cus.update(item, 1);
            cms.update(item, 1);
        }
        for item in 0..5_000u64 {
            assert!(cus.estimate(item) <= cms.estimate(item), "item {item}");
        }
    }

    #[test]
    fn salsa_cus_is_at_most_baseline_cus_with_same_counters() {
        // Theorem V.3 consequence: SALSA CUS (8-bit base, growing as needed)
        // with the same number of counters as a 32-bit CUS never estimates
        // higher, because its counters are a refinement.
        let seed = 5;
        let width = 512;
        let mut salsa = ConservativeUpdate::salsa(4, width, 8, seed);
        let mut wide = ConservativeUpdate::baseline(4, width / 4, 32, seed);
        let stream = zipfish_stream(80_000, 3_000, 31);
        for &item in &stream {
            salsa.update(item, 1);
            wide.update(item, 1);
        }
        // Compare aggregate over-estimation (per-item dominance needs the
        // underlying sketch to share hashes, which `⌊h/2^ℓ⌋` provides in the
        // theorem; with independent hashes we check the aggregate instead).
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &item in &stream {
            *truth.entry(item).or_insert(0) += 1;
        }
        let salsa_err: u64 = truth.iter().map(|(&i, &c)| salsa.estimate(i) - c).sum();
        let wide_err: u64 = truth.iter().map(|(&i, &c)| wide.estimate(i) - c).sum();
        assert!(
            salsa_err <= wide_err,
            "SALSA CUS total error {salsa_err} should not exceed baseline {wide_err}"
        );
    }

    #[test]
    fn weighted_updates() {
        let mut cus = ConservativeUpdate::salsa(4, 1024, 8, 2);
        cus.update(1, 10);
        cus.update(1, 5);
        cus.update(2, 100_000);
        assert!(cus.estimate(1) >= 15);
        assert!(cus.estimate(2) >= 100_000);
    }

    #[test]
    fn single_heavy_item_is_exact_without_collisions() {
        let mut cus = ConservativeUpdate::salsa(4, 1 << 12, 8, 6);
        for _ in 0..70_000 {
            cus.update(99, 1);
        }
        assert_eq!(cus.estimate(99), 70_000);
    }

    #[test]
    fn reset_clears() {
        let mut cus = ConservativeUpdate::salsa(2, 128, 8, 1);
        cus.update(1, 1000);
        cus.reset();
        assert_eq!(cus.estimate(1), 0);
    }

    #[test]
    fn merge_from_never_underestimates_the_union_stream() {
        let seed = 31;
        let mut sa = ConservativeUpdate::salsa(4, 128, 8, seed);
        let mut sb = ConservativeUpdate::salsa(4, 128, 8, seed);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &item in &zipfish_stream(20_000, 500, 3) {
            sa.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        for &item in &zipfish_stream(20_000, 500, 4) {
            sb.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        sa.merge_from(&sb);
        for (&item, &count) in &truth {
            assert!(sa.estimate(item) >= count, "item {item}");
        }
    }

    #[test]
    #[should_panic(expected = "share hash seeds")]
    fn merge_from_rejects_different_seeds() {
        let mut sa = ConservativeUpdate::salsa(2, 128, 8, 1);
        let sb = ConservativeUpdate::salsa(2, 128, 8, 2);
        sa.merge_from(&sb);
    }

    #[test]
    fn update_batch_matches_per_item_updates() {
        let mut batched = ConservativeUpdate::salsa(4, 256, 8, 7);
        let mut looped = ConservativeUpdate::salsa(4, 256, 8, 7);
        let items = zipfish_stream(10_000, 400, 9);
        for chunk in items.chunks(128) {
            batched.update_batch(chunk);
        }
        for &item in &items {
            looped.update(item, 1);
        }
        for item in 0..400u64 {
            assert_eq!(batched.estimate(item), looped.estimate(item), "item {item}");
        }
    }
}
