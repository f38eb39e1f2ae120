//! The Count-Min Sketch (CMS) and its SALSA / Tango variants.
//!
//! CMS (Cormode & Muthukrishnan) keeps `d × w` counters and `d` hash
//! functions; an update adds the value to one counter per row and a query
//! returns the minimum of the item's counters, which over-estimates the true
//! frequency in the Strict Turnstile model.
//!
//! The struct is generic over the row type: plugging in
//! [`FixedRow`] gives the vanilla sketch,
//! [`SalsaRow`] the SALSA CMS (Theorems V.1/V.2),
//! and [`TangoRow`] the Tango CMS.

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

/// A Count-Min Sketch over an arbitrary row type.
///
/// The sketches that differ from CMS only in their update rule
/// ([`ConservativeUpdate`](crate::cus::ConservativeUpdate),
/// [`AeeCountMin`](crate::aee::AeeCountMin),
/// [`SalsaAee`](crate::aee::SalsaAee)) wrap a `CountMin` and update its
/// fields directly; its estimate, shape checks, merge, copy and size serve
/// them as they are.
#[derive(Debug, Clone)]
pub struct CountMin<R: Row> {
    pub(crate) rows: Vec<R>,
    pub(crate) hashers: RowHashers,
    seed: u64,
    /// Scratch space for bucket indices: one per batch item in
    /// [`CountMin::update_batch`], so the batched hot path does not pay an
    /// allocation per batch, and one per row in the wrapping sketches'
    /// per-item updates.
    pub(crate) scratch: Vec<usize>,
}

impl<R: Row> CountMin<R> {
    /// Builds a sketch from pre-constructed rows (all rows must have the same
    /// width) and a hash seed.
    pub fn from_rows(rows: Vec<R>, seed: u64) -> Self {
        assert!(!rows.is_empty(), "a sketch needs at least one row");
        let width = rows[0].width();
        assert!(
            rows.iter().all(|r| r.width() == width),
            "all rows must have the same width"
        );
        let hashers = RowHashers::new(rows.len(), width, seed);
        Self {
            rows,
            hashers,
            seed,
            scratch: Vec::new(),
        }
    }

    /// The hash seed the sketch was built with.  Two sketches can only be
    /// combined counter-wise when their seeds (and shapes) are equal.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of rows (`d`).
    #[inline]
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// Counters per row (`w`, in base-counter units).
    #[inline]
    pub fn width(&self) -> usize {
        self.hashers.width()
    }

    /// Immutable access to the rows (used by distinct-count estimation and
    /// the experiment harness).
    pub fn rows(&self) -> &[R] {
        &self.rows
    }

    /// The hash family shared by this sketch.
    pub fn hashers(&self) -> &RowHashers {
        &self.hashers
    }

    /// Processes the update `⟨item, value⟩` (Cash Register / Strict
    /// Turnstile: `value ≥ 0`).
    #[inline]
    pub fn update(&mut self, item: u64, value: u64) {
        for (row_idx, row) in self.rows.iter_mut().enumerate() {
            let bucket = self.hashers.bucket(row_idx, item);
            row.add(bucket, value);
        }
    }

    /// Processes a batch of unit-weight updates row-major: every item of the
    /// batch is applied to row 0, then to row 1, and so on.
    ///
    /// CMS updates are independent across rows, so reordering them is exact;
    /// the row-major order keeps one row's counters (and one hash function)
    /// hot in cache across the whole batch, which is what makes this the
    /// pipeline's fast path.  Each row's buckets come from
    /// [`RowHashers::buckets_into`], which hashes eight items at a time in
    /// AVX2 lanes where the CPU has them, into the reused scratch buffer.
    pub fn update_batch(&mut self, items: &[u64]) {
        let buckets = &mut self.scratch;
        buckets.resize(items.len(), 0);
        for (row_idx, row) in self.rows.iter_mut().enumerate() {
            self.hashers.buckets_into(row_idx, items, buckets);
            row.add_unit_batch(buckets);
        }
    }

    /// Writes `item`'s bucket in each row to the scratch buffer, which the
    /// wrapping sketches size to the depth for their per-item updates.
    pub(crate) fn hash_into_scratch(&mut self, item: u64) {
        for (row_idx, bucket) in self.scratch.iter_mut().enumerate() {
            *bucket = self.hashers.bucket(row_idx, item);
        }
    }

    /// Estimates the frequency of `item` (minimum over the item's counters).
    #[inline]
    pub fn estimate(&self, item: u64) -> u64 {
        let mut est = u64::MAX;
        for (row_idx, row) in self.rows.iter().enumerate() {
            let bucket = self.hashers.bucket(row_idx, item);
            est = est.min(row.read(bucket));
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

    /// Panics unless `other` was built with the same hash functions over
    /// the same shape — equal seeds, depths and widths, the precondition of
    /// every counter-wise combination (Section V).
    fn assert_compatible(&self, other: &Self) {
        assert_eq!(self.seed, other.seed, "sketches must share hash seeds");
        assert_eq!(self.depth(), other.depth(), "sketch depths must match");
        assert_eq!(self.width(), other.width(), "sketch widths must match");
    }
}

impl<R: Row + RowMerge> CountMin<R> {
    /// Subtracts another sketch built with the same seed and dimensions.
    ///
    /// Valid in the Strict Turnstile model when the subtracted stream is a
    /// subset of this one (`B ⊆ A`), as discussed in Section V.
    ///
    /// # Panics
    ///
    /// Panics if the operands were built with different seeds or shapes.
    pub fn subtract(&mut self, other: &Self) {
        self.assert_compatible(other);
        for (a, b) in self.rows.iter_mut().zip(other.rows.iter()) {
            a.subtract(b);
        }
    }
}

impl CountMin<FixedRow> {
    /// The paper's *Baseline* CMS: `depth × width` fixed-width counters
    /// (32-bit unless stated otherwise).
    pub fn baseline(depth: usize, width: usize, bits: u32, seed: u64) -> Self {
        Self::from_rows(
            (0..depth).map(|_| FixedRow::new(width, bits)).collect(),
            seed,
        )
    }
}

impl<E: MergeEncoding> CountMin<SalsaRow<E>> {
    /// A SALSA CMS with an explicit merge encoding (simple or compact).
    pub fn salsa_with_encoding(
        depth: usize,
        width: usize,
        base_bits: u32,
        merge_op: MergeOp,
        seed: u64,
    ) -> Self {
        Self::from_rows(
            (0..depth)
                .map(|_| SalsaRow::<E>::new(width, base_bits, merge_op))
                .collect(),
            seed,
        )
    }
}

impl CountMin<SalsaRow<salsa_core::bitmap::MergeBitmap>> {
    /// A SALSA CMS with the simple (1 bit/counter) encoding — the paper's
    /// default configuration.
    pub fn salsa(depth: usize, width: usize, base_bits: u32, merge_op: MergeOp, seed: u64) -> Self {
        Self::salsa_with_encoding(depth, width, base_bits, merge_op, seed)
    }
}

impl CountMin<SalsaRow<LayoutCodes>> {
    /// A SALSA CMS with the near-optimal (≤0.594 bits/counter) encoding.
    pub fn salsa_compact(
        depth: usize,
        width: usize,
        base_bits: u32,
        merge_op: MergeOp,
        seed: u64,
    ) -> Self {
        Self::salsa_with_encoding(depth, width, base_bits, merge_op, seed)
    }
}

impl CountMin<TangoRow> {
    /// A Tango CMS (fine-grained merging).
    pub fn tango(depth: usize, width: usize, base_bits: u32, merge_op: MergeOp, seed: u64) -> Self {
        Self::from_rows(
            (0..depth)
                .map(|_| TangoRow::new(width, base_bits, merge_op))
                .collect(),
            seed,
        )
    }
}

impl<R: Row> FrequencyEstimator for CountMin<R> {
    fn update(&mut self, item: u64, value: i64) {
        debug_assert!(value >= 0, "CMS operates on non-negative updates");
        CountMin::update(self, item, value as u64);
    }

    fn size_bytes(&self) -> usize {
        CountMin::size_bytes(self)
    }
}

impl<R: Row + RowMerge + Send + 'static> StreamSummary for CountMin<R> {
    fn ingest(&mut self, items: &[u64]) {
        self.update_batch(items);
    }

    /// Counter-wise merges `other` into `self` (Section V): afterwards this
    /// sketch summarizes the union of the two input streams.  The operands
    /// must have been built with the *same hash functions* over the *same
    /// shape* (equal seeds, depths and widths are asserted).
    ///
    /// With sum-merge rows the merged sketch's estimates are identical to
    /// the sketch of the concatenated stream; with max-merge rows they are a
    /// (never-underestimating) over-approximation.
    fn merge_from(&mut self, other: &Self) {
        self.assert_compatible(other);
        for (a, b) in self.rows.iter_mut().zip(other.rows.iter()) {
            a.absorb(b);
        }
    }
}

impl<R: Row + RowMerge + Clone + Send + 'static> SnapshotSummary for CountMin<R> {
    /// Every row's counter storage + encoding, plus the batch scratch buffer
    /// (the hashers are a handful of seeds and are ignored).
    fn clone_cost_bytes(&self) -> usize {
        self.rows.iter().map(Row::clone_cost_bytes).sum::<usize>()
            + self.scratch.len() * std::mem::size_of::<usize>()
    }

    /// Refreshes a warm snapshot buffer in place, **without allocating**.
    fn copy_from(&mut self, src: &Self) {
        self.assert_compatible(src);
        for (dst, src_row) in self.rows.iter_mut().zip(src.rows.iter()) {
            dst.copy_from(src_row);
        }
    }
}

impl<R: Row> FrequencyQueries for CountMin<R> {
    fn estimate(&self, item: u64) -> i64 {
        CountMin::estimate(self, item).min(i64::MAX as u64) as i64
    }
}

impl<R: Row> DistinctQueries for CountMin<R> {
    /// Linear Counting averaged over the rows.
    fn estimate_distinct(&self) -> Option<f64> {
        distinct_from_rows(&self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_never_underestimates() {
        let mut sketch = CountMin::baseline(4, 256, 32, 1);
        for item in 0u64..1000 {
            sketch.update(item % 50, 1);
        }
        for item in 0u64..50 {
            assert!(sketch.estimate(item) >= 20);
        }
        assert_eq!(sketch.estimate(12345), sketch.estimate(12345)); // deterministic
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut sketch = CountMin::baseline(4, 1 << 12, 32, 7);
        for item in 0u64..10 {
            for _ in 0..=item {
                sketch.update(item, 1);
            }
        }
        // With 4096 counters and 10 items, collisions across all 4 rows are
        // essentially impossible.
        for item in 0u64..10 {
            assert_eq!(sketch.estimate(item), item + 1);
        }
    }

    #[test]
    fn salsa_cms_never_underestimates() {
        let mut sketch = CountMin::salsa(4, 256, 8, MergeOp::Max, 3);
        let mut truth = std::collections::HashMap::new();
        let mut state = 5u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let item = (state >> 33) % 200;
            sketch.update(item, 1);
            *truth.entry(item).or_insert(0u64) += 1;
        }
        for (&item, &count) in &truth {
            assert!(
                sketch.estimate(item) >= count,
                "item {item}: estimate {} < truth {count}",
                sketch.estimate(item)
            );
        }
    }

    #[test]
    fn weighted_updates_accumulate() {
        let mut sketch = CountMin::salsa(4, 512, 8, MergeOp::Sum, 11);
        sketch.update(42, 1_000_000);
        sketch.update(42, 500_000);
        assert!(sketch.estimate(42) >= 1_500_000);
    }

    #[test]
    fn size_bytes_matches_configuration() {
        let baseline = CountMin::baseline(4, 1 << 17, 32, 1);
        assert_eq!(baseline.size_bytes(), 4 * (1 << 17) * 4); // 2 MiB
        let salsa = CountMin::salsa(4, 1 << 19, 8, MergeOp::Max, 1);
        // 8 data bits + 1 merge bit per counter.
        assert_eq!(salsa.size_bytes(), 4 * ((1 << 19) + (1 << 19) / 8));
    }

    #[test]
    fn salsa_dominance_over_underlying_wide_cms() {
        // Theorem V.1/V.2: f_x ≤ f̂_SALSA ≤ f̂ of the underlying CMS whose
        // counters are as wide as SALSA's largest counter.  We verify the
        // weaker empirical consequence on a skewed stream: the SALSA estimate
        // with 4× the counters is never *worse* than the 32-bit baseline with
        // the same memory, for items that did not force large merges.
        let depth = 4;
        let seed = 9;
        let mut baseline = CountMin::baseline(depth, 256, 32, seed);
        let mut salsa = CountMin::salsa(depth, 1024, 8, MergeOp::Max, seed);
        let mut truth = std::collections::HashMap::new();
        let mut state = 77u64;
        for _ in 0..50_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Zipf-ish: item = floor(1/u) capped.
            let u = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-9);
            let item = ((1.0 / u) as u64).min(5_000);
            baseline.update(item, 1);
            salsa.update(item, 1);
            *truth.entry(item).or_insert(0u64) += 1;
        }
        let mut salsa_err = 0f64;
        let mut base_err = 0f64;
        for (&item, &count) in &truth {
            salsa_err += (salsa.estimate(item) - count) as f64;
            base_err += (baseline.estimate(item) - count) as f64;
        }
        assert!(
            salsa_err <= base_err,
            "SALSA total over-estimation {salsa_err} should not exceed baseline {base_err}"
        );
    }

    #[test]
    fn tango_is_at_least_as_tight_as_salsa() {
        let seed = 21;
        let mut tango = CountMin::tango(4, 512, 8, MergeOp::Max, seed);
        let mut salsa = CountMin::salsa(4, 512, 8, MergeOp::Max, seed);
        let mut state = 3u64;
        for _ in 0..100_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let item = (state >> 33) % 2_000;
            tango.update(item, 1);
            salsa.update(item, 1);
        }
        for item in 0..2_000u64 {
            assert!(
                tango.estimate(item) <= salsa.estimate(item),
                "item {item}: Tango {} > SALSA {}",
                tango.estimate(item),
                salsa.estimate(item)
            );
        }
    }

    #[test]
    fn absorb_equals_union_stream() {
        let seed = 4;
        let mut sa = CountMin::salsa(3, 256, 8, MergeOp::Sum, seed);
        let mut sb = CountMin::salsa(3, 256, 8, MergeOp::Sum, seed);
        let mut sab = CountMin::salsa(3, 256, 8, MergeOp::Sum, seed);
        for item in 0u64..300 {
            sa.update(item, 2);
            sab.update(item, 2);
        }
        for item in 200u64..500 {
            sb.update(item, 5);
            sab.update(item, 5);
        }
        sa.merge_from(&sb);
        for item in (0u64..500).step_by(7) {
            // The absorbed sketch over-estimates the union stream but is
            // never below the directly-built union sketch's lower bound
            // (the true union frequency).
            let direct = sab.estimate(item);
            let merged = sa.estimate(item);
            assert!(
                merged >= direct.min(7),
                "item {item}: merged {merged} direct {direct}"
            );
        }
    }

    #[test]
    fn update_batch_matches_per_item_updates() {
        let mut batched = CountMin::salsa(4, 256, 8, MergeOp::Sum, 9);
        let mut looped = CountMin::salsa(4, 256, 8, MergeOp::Sum, 9);
        let mut state = 1u64;
        let items: Vec<u64> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) % 500
            })
            .collect();
        for chunk in items.chunks(256) {
            batched.update_batch(chunk);
        }
        for &item in &items {
            looped.update(item, 1);
        }
        for item in 0..500u64 {
            assert_eq!(batched.estimate(item), looped.estimate(item), "item {item}");
        }
    }

    #[test]
    fn merge_from_of_sum_sketches_equals_concatenated_stream() {
        let seed = 13;
        let mut sa = CountMin::salsa(3, 128, 8, MergeOp::Sum, seed);
        let mut sb = CountMin::salsa(3, 128, 8, MergeOp::Sum, seed);
        let mut concat = CountMin::salsa(3, 128, 8, MergeOp::Sum, seed);
        for item in 0u64..400 {
            sa.update(item, item % 90);
            concat.update(item, item % 90);
        }
        for item in 100u64..500 {
            sb.update(item, 3);
            concat.update(item, 3);
        }
        sa.merge_from(&sb);
        for item in 0u64..500 {
            assert_eq!(sa.estimate(item), concat.estimate(item), "item {item}");
        }
    }

    #[test]
    fn merge_into_new_leaves_operands_untouched() {
        let seed = 29;
        let mut sa = CountMin::salsa(3, 128, 8, MergeOp::Sum, seed);
        let mut sb = CountMin::salsa(3, 128, 8, MergeOp::Sum, seed);
        for item in 0u64..200 {
            sa.update(item, 2);
            sb.update(item + 100, 3);
        }
        let before_a: Vec<u64> = (0..300).map(|i| sa.estimate(i)).collect();
        let before_b: Vec<u64> = (0..300).map(|i| sb.estimate(i)).collect();
        let merged = sa.merge_into_new(&sb);
        let mut reference = sa.clone();
        reference.merge_from(&sb);
        for item in 0u64..300 {
            assert_eq!(merged.estimate(item), reference.estimate(item));
            assert_eq!(sa.estimate(item), before_a[item as usize]);
            assert_eq!(sb.estimate(item), before_b[item as usize]);
        }
    }

    #[test]
    fn clone_cost_covers_counter_storage() {
        let mut sketch = CountMin::salsa(4, 512, 8, MergeOp::Sum, 3);
        assert!(sketch.clone_cost_bytes() >= sketch.size_bytes());
        // After a batched update the scratch buffer is accounted for too.
        sketch.update_batch(&[1, 2, 3, 4]);
        assert!(sketch.clone_cost_bytes() >= sketch.size_bytes());
    }

    #[test]
    #[should_panic(expected = "share hash seeds")]
    fn merge_from_rejects_different_seeds() {
        let mut sa = CountMin::salsa(3, 128, 8, MergeOp::Sum, 1);
        let sb = CountMin::salsa(3, 128, 8, MergeOp::Sum, 2);
        sa.merge_from(&sb);
    }

    #[test]
    #[should_panic(expected = "share hash seeds")]
    fn subtract_rejects_different_seeds() {
        let mut sa = CountMin::salsa(3, 128, 8, MergeOp::Sum, 1);
        let mut sb = CountMin::salsa(3, 128, 8, MergeOp::Sum, 2);
        for item in 0u64..200 {
            sa.update(item, 3);
            sb.update(item, 1);
        }
        sa.subtract(&sb);
    }

    #[test]
    fn reset_restores_empty_sketch() {
        let mut sketch = CountMin::salsa(2, 128, 8, MergeOp::Max, 5);
        sketch.update(7, 100_000);
        sketch.reset();
        assert_eq!(sketch.estimate(7), 0);
    }

    #[test]
    fn frequency_estimator_trait_is_usable() {
        let mut sketch: Box<dyn FrequencyEstimator> =
            Box::new(CountMin::salsa(4, 256, 8, MergeOp::Max, 2));
        sketch.update(9, 3);
        assert!(sketch.estimate(9) >= 3);
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn mismatched_row_widths_panic() {
        let rows = vec![FixedRow::new(128, 32), FixedRow::new(256, 32)];
        let _ = CountMin::from_rows(rows, 1);
    }
}
