//! The Count Sketch (CS) and its SALSA variant.
//!
//! CS (Charikar, Chen & Farach-Colton) works in the general Turnstile model
//! and provides an L2 guarantee.  Each row has an index hash and a
//! pairwise-independent sign hash; an update adds `v·g_i(x)` to the item's
//! counter in each row and the estimate is the median of
//! `C[i, h_i(x)]·g_i(x)` over the rows.
//!
//! The SALSA variant stores counters in sign-magnitude representation so the
//! overflow (merge) event is symmetric in the sign of the counter, keeping
//! the estimate unbiased (Lemma V.4) with per-row variance no larger than the
//! underlying CS (Lemma V.5, Theorem V.6).

use salsa_core::compact::LayoutCodes;
use salsa_core::encoding::MergeEncoding;
use salsa_core::fixed::FixedSignedRow;
use salsa_core::merge::RowMerge;
use salsa_core::row::SalsaSignedRow;
use salsa_core::traits::SignedRow;
use salsa_hash::{RowHashers, SignHash};

use crate::estimator::FrequencyEstimator;
use crate::summary::{FrequencyQueries, SnapshotSummary, StreamSummary};

/// Rows up to this depth take the stack-buffer median path in
/// [`CountSketch::estimate`]; deeper sketches (unheard of in practice — the
/// paper uses single-digit depths) fall back to a heap buffer.
const MEDIAN_STACK_DEPTH: usize = 32;

/// A Count Sketch over an arbitrary signed-row type.
#[derive(Debug, Clone)]
pub struct CountSketch<S: SignedRow> {
    rows: Vec<S>,
    hashers: RowHashers,
    signs: SignHash,
    seed: u64,
}

impl<S: SignedRow> CountSketch<S> {
    /// Builds a sketch from pre-constructed rows and a hash seed.
    pub fn from_rows(rows: Vec<S>, seed: u64) -> Self {
        assert!(!rows.is_empty(), "a sketch needs at least one row");
        let width = rows[0].width();
        assert!(
            rows.iter().all(|r| r.width() == width),
            "all rows must have the same width"
        );
        let depth = rows.len();
        Self {
            rows,
            hashers: RowHashers::new(depth, width, seed),
            signs: SignHash::new(depth, seed),
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

    /// Counters per row (`w`, in base-counter units).
    #[inline]
    pub fn width(&self) -> usize {
        self.hashers.width()
    }

    /// Immutable access to the rows.
    pub fn rows(&self) -> &[S] {
        &self.rows
    }

    /// Processes the update `⟨item, value⟩` (Turnstile: any sign).
    #[inline]
    pub fn update(&mut self, item: u64, value: i64) {
        for (row_idx, row) in self.rows.iter_mut().enumerate() {
            let bucket = self.hashers.bucket(row_idx, item);
            let sign = self.signs.sign(row_idx, item);
            row.add(bucket, value * sign);
        }
    }

    /// Processes a batch of unit-weight updates row-major (all items against
    /// row 0, then row 1, …).
    ///
    /// Count Sketch updates are independent across rows, so the reordering
    /// is exact while keeping one row's counters, index hash and sign hash
    /// hot in cache across the whole batch.
    pub fn update_batch(&mut self, items: &[u64]) {
        for (row_idx, row) in self.rows.iter_mut().enumerate() {
            for &item in items {
                let bucket = self.hashers.bucket(row_idx, item);
                row.add(bucket, self.signs.sign(row_idx, item));
            }
        }
    }

    /// Estimates the frequency of `item` (median over the rows).
    ///
    /// The per-row values are collected into a stack buffer for the depths
    /// used in practice, so point queries allocate nothing — this sits on
    /// the steady-state query hot path.
    pub fn estimate(&self, item: u64) -> i64 {
        let n = self.rows.len();
        if n <= MEDIAN_STACK_DEPTH {
            let mut buf = [0i64; MEDIAN_STACK_DEPTH];
            for (row_idx, row) in self.rows.iter().enumerate() {
                buf[row_idx] =
                    row.read(self.hashers.bucket(row_idx, item)) * self.signs.sign(row_idx, item);
            }
            Self::median(&mut buf[..n])
        } else {
            // ALLOC-OK: depths beyond the stack buffer are outside every
            // practical configuration; correctness wins over allocation here.
            let mut per_row: Vec<i64> = self
                .rows
                .iter()
                .enumerate()
                .map(|(row_idx, row)| {
                    row.read(self.hashers.bucket(row_idx, item)) * self.signs.sign(row_idx, item)
                })
                .collect();
            Self::median(&mut per_row)
        }
    }

    /// Median of the (unsorted) per-row values; even lengths average the two
    /// middle values, rounded toward zero.
    fn median(per_row: &mut [i64]) -> i64 {
        per_row.sort_unstable();
        let n = per_row.len();
        if n % 2 == 1 {
            per_row[n / 2]
        } else {
            // Average of the two middle values, rounded toward zero.
            (per_row[n / 2 - 1] + per_row[n / 2]) / 2
        }
    }

    /// Total memory used by the sketch, including encoding overhead.
    pub fn size_bytes(&self) -> usize {
        self.rows.iter().map(SignedRow::size_bytes).sum()
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        self.rows.iter_mut().for_each(SignedRow::reset);
    }

    /// Panics unless `other` was built with the same seed and shape (see
    /// `CountMin`'s counterpart).
    fn assert_compatible(&self, other: &Self) {
        assert_eq!(self.seed, other.seed, "sketches must share hash seeds");
        assert_eq!(self.depth(), other.depth(), "sketch depths must match");
        assert_eq!(self.width(), other.width(), "sketch widths must match");
    }
}

impl<S: SignedRow + RowMerge> CountSketch<S> {
    /// Subtracts another sketch built with the same seed and dimensions:
    /// `s(A \ B) = s(A) − s(B)` (general Turnstile difference, used by
    /// change detection).
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

impl CountSketch<FixedSignedRow> {
    /// The paper's *Baseline* CS with fixed-width (32-bit by default)
    /// counters.
    pub fn baseline(depth: usize, width: usize, bits: u32, seed: u64) -> Self {
        Self::from_rows(
            (0..depth)
                .map(|_| FixedSignedRow::new(width, bits))
                .collect(),
            seed,
        )
    }
}

impl<E: MergeEncoding> CountSketch<SalsaSignedRow<E>> {
    /// A SALSA CS with an explicit merge encoding (sum-merge, sign-magnitude
    /// counters).
    pub fn salsa_with_encoding(depth: usize, width: usize, base_bits: u32, seed: u64) -> Self {
        Self::from_rows(
            (0..depth)
                .map(|_| SalsaSignedRow::<E>::new(width, base_bits))
                .collect(),
            seed,
        )
    }
}

impl CountSketch<SalsaSignedRow<salsa_core::bitmap::MergeBitmap>> {
    /// A SALSA CS with the simple encoding (the paper's default).
    pub fn salsa(depth: usize, width: usize, base_bits: u32, seed: u64) -> Self {
        Self::salsa_with_encoding(depth, width, base_bits, seed)
    }
}

impl CountSketch<SalsaSignedRow<LayoutCodes>> {
    /// A SALSA CS with the near-optimal encoding.
    pub fn salsa_compact(depth: usize, width: usize, base_bits: u32, seed: u64) -> Self {
        Self::salsa_with_encoding(depth, width, base_bits, seed)
    }
}

impl<S: SignedRow> FrequencyEstimator for CountSketch<S> {
    fn update(&mut self, item: u64, value: i64) {
        CountSketch::update(self, item, value);
    }

    fn estimate(&self, item: u64) -> i64 {
        CountSketch::estimate(self, item)
    }

    fn size_bytes(&self) -> usize {
        CountSketch::size_bytes(self)
    }

    fn name(&self) -> String {
        "CountSketch".to_string()
    }
}

impl<S: SignedRow + RowMerge + Send + 'static> StreamSummary for CountSketch<S> {
    fn ingest(&mut self, items: &[u64]) {
        self.update_batch(items);
    }

    /// Counter-wise merges `other` into `self` (same seeds and shape
    /// enforced): afterwards this sketch summarizes the union of the two
    /// input streams.
    ///
    /// Count Sketch counters are plain signed sums, so the merged sketch's
    /// per-row values equal those of a sketch fed both streams; the SALSA
    /// variant keeps the estimate unbiased across the merge (Lemma V.4).
    fn merge_from(&mut self, other: &Self) {
        self.assert_compatible(other);
        for (a, b) in self.rows.iter_mut().zip(other.rows.iter()) {
            a.absorb(b);
        }
    }
}

impl<S: SignedRow + RowMerge + Clone + Send + 'static> SnapshotSummary for CountSketch<S> {
    /// The rows' signed counter storage + encoding (the hash state is a
    /// handful of seeds and is ignored).
    fn clone_cost_bytes(&self) -> usize {
        self.rows.iter().map(SignedRow::clone_cost_bytes).sum()
    }

    /// Refreshes a warm snapshot buffer in place, **without allocating**.
    fn copy_from(&mut self, src: &Self) {
        self.assert_compatible(src);
        for (dst, src_row) in self.rows.iter_mut().zip(src.rows.iter()) {
            dst.copy_from(src_row);
        }
    }
}

impl<S: SignedRow> FrequencyQueries for CountSketch<S> {
    fn estimate(&self, item: u64) -> i64 {
        CountSketch::estimate(self, item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn exact_when_no_collisions() {
        let mut cs = CountSketch::baseline(5, 1 << 12, 32, 1);
        for item in 0u64..10 {
            for _ in 0..(item + 1) * 3 {
                cs.update(item, 1);
            }
        }
        for item in 0u64..10 {
            assert_eq!(cs.estimate(item), ((item + 1) * 3) as i64);
        }
    }

    #[test]
    fn supports_negative_updates_and_deletions() {
        let mut cs = CountSketch::salsa(5, 1 << 10, 8, 3);
        for _ in 0..500 {
            cs.update(7, 1);
        }
        for _ in 0..200 {
            cs.update(7, -1);
        }
        assert_eq!(cs.estimate(7), 300);
    }

    #[test]
    fn heavy_hitter_estimates_are_close() {
        let stream = zipfish_stream(100_000, 10_000, 5);
        let mut truth: HashMap<u64, i64> = HashMap::new();
        let mut baseline = CountSketch::baseline(5, 1 << 10, 32, 7);
        let mut salsa = CountSketch::salsa(5, 1 << 12, 8, 7);
        for &item in &stream {
            baseline.update(item, 1);
            salsa.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        // The heaviest item should be estimated within a few percent by both.
        let (&heavy, &count) = truth.iter().max_by_key(|(_, &c)| c).unwrap();
        let be = baseline.estimate(heavy);
        let se = salsa.estimate(heavy);
        assert!(
            (be - count).abs() as f64 <= 0.05 * count as f64,
            "baseline {be} vs {count}"
        );
        assert!(
            (se - count).abs() as f64 <= 0.05 * count as f64,
            "salsa {se} vs {count}"
        );
    }

    #[test]
    fn salsa_cs_beats_baseline_on_mse_at_equal_memory() {
        // The headline claim for CS (Fig. 11): at equal memory, SALSA (8-bit
        // base counters, 4× the counters) has lower on-arrival error than the
        // 32-bit baseline on a skewed stream.
        let stream = zipfish_stream(200_000, 50_000, 11);
        let mut truth: HashMap<u64, i64> = HashMap::new();
        let mut baseline = CountSketch::baseline(5, 1 << 9, 32, 13);
        // Same memory: 4× the counters at 8 bits + 1 bit overhead ≈ within budget.
        let mut salsa = CountSketch::salsa(5, 1 << 11, 8, 13);
        assert!(salsa.size_bytes() <= baseline.size_bytes() * 9 / 8);
        let mut base_se = 0f64;
        let mut salsa_se = 0f64;
        for &item in &stream {
            let t = *truth.get(&item).unwrap_or(&0);
            let be = baseline.estimate(item) - t;
            let se = salsa.estimate(item) - t;
            base_se += (be * be) as f64;
            salsa_se += (se * se) as f64;
            baseline.update(item, 1);
            salsa.update(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        assert!(
            salsa_se < base_se,
            "SALSA CS on-arrival SSE {salsa_se} should beat baseline {base_se}"
        );
    }

    #[test]
    fn median_of_even_depth_works() {
        let mut cs = CountSketch::baseline(4, 256, 32, 2);
        for _ in 0..50 {
            cs.update(1, 1);
        }
        assert!((cs.estimate(1) - 50).abs() <= 2);
    }

    #[test]
    fn subtract_recovers_frequency_changes() {
        let seed = 19;
        let mut sa = CountSketch::salsa(5, 1 << 10, 8, seed);
        let mut sb = CountSketch::salsa(5, 1 << 10, 8, seed);
        // Item 1: 100 → 40 (change −60); item 2: 10 → 200 (change +190).
        for _ in 0..100 {
            sa.update(1, 1);
        }
        for _ in 0..10 {
            sa.update(2, 1);
        }
        for _ in 0..40 {
            sb.update(1, 1);
        }
        for _ in 0..200 {
            sb.update(2, 1);
        }
        let mut diff = sa.clone();
        diff.subtract(&sb);
        assert_eq!(diff.estimate(1), 60);
        assert_eq!(diff.estimate(2), -190);
    }

    #[test]
    fn absorb_sums_streams() {
        let seed = 23;
        let mut sa = CountSketch::baseline(5, 512, 32, seed);
        let mut sb = CountSketch::baseline(5, 512, 32, seed);
        for _ in 0..30 {
            sa.update(5, 1);
            sb.update(5, 2);
        }
        sa.merge_from(&sb);
        assert_eq!(sa.estimate(5), 90);
    }

    #[test]
    fn merge_from_equals_single_sketch_when_counters_do_not_overflow() {
        // With 16-bit base counters and 30 000 total unit updates no
        // sign-magnitude counter can overflow (|sum| ≤ 30 000 < 2^15 − 1),
        // so merging is exactly counter-wise addition and must reproduce the
        // single sketch of the concatenated stream.  (With merges the two
        // can legitimately diverge: sign cancellation across shards changes
        // which counters overflow.)
        let seed = 29;
        let mut sa = CountSketch::salsa(5, 512, 16, seed);
        let mut sb = CountSketch::salsa(5, 512, 16, seed);
        let mut concat = CountSketch::salsa(5, 512, 16, seed);
        for &item in &zipfish_stream(15_000, 300, 41) {
            sa.update(item, 1);
            concat.update(item, 1);
        }
        for &item in &zipfish_stream(15_000, 300, 43) {
            sb.update(item, 1);
            concat.update(item, 1);
        }
        sa.merge_from(&sb);
        for item in 0..300u64 {
            assert_eq!(sa.estimate(item), concat.estimate(item), "item {item}");
        }
    }

    #[test]
    fn merge_from_preserves_row_mass_even_with_merges() {
        // Sum-merging never loses signed mass: per row, the sum over the
        // logical counters equals the signed sum of all updates hashed into
        // the row, whether the stream was sketched in one pass or sketched
        // in shards and merged — even when the narrow 8-bit counters force
        // many merge events along the way.
        let seed = 47;
        let mut sa = CountSketch::salsa(5, 256, 8, seed);
        let mut sb = CountSketch::salsa(5, 256, 8, seed);
        let mut concat = CountSketch::salsa(5, 256, 8, seed);
        for &item in &zipfish_stream(20_000, 300, 51) {
            sa.update(item, 1);
            concat.update(item, 1);
        }
        for &item in &zipfish_stream(20_000, 300, 53) {
            sb.update(item, 1);
            concat.update(item, 1);
        }
        sa.merge_from(&sb);
        assert!(
            sa.rows()
                .iter()
                .any(|r| r.counters().any(|(_, l, _)| l > 0)),
            "the 8-bit configuration should actually trigger merges"
        );
        for (merged_row, concat_row) in sa.rows().iter().zip(concat.rows().iter()) {
            let merged_mass: i64 = merged_row.counters().map(|(_, _, v)| v).sum();
            let concat_mass: i64 = concat_row.counters().map(|(_, _, v)| v).sum();
            assert_eq!(merged_mass, concat_mass);
        }
    }

    #[test]
    #[should_panic(expected = "share hash seeds")]
    fn merge_from_rejects_different_seeds() {
        let mut sa = CountSketch::salsa(3, 128, 8, 1);
        let sb = CountSketch::salsa(3, 128, 8, 2);
        sa.merge_from(&sb);
    }

    #[test]
    #[should_panic(expected = "share hash seeds")]
    fn subtract_rejects_different_seeds() {
        let mut sa = CountSketch::salsa(3, 128, 8, 1);
        let mut sb = CountSketch::salsa(3, 128, 8, 2);
        for item in 0u64..200 {
            sa.update(item, 3);
            sb.update(item, 1);
        }
        sa.subtract(&sb);
    }

    #[test]
    fn update_batch_matches_per_item_updates() {
        let mut batched = CountSketch::salsa(5, 512, 8, 3);
        let mut looped = CountSketch::salsa(5, 512, 8, 3);
        let items = zipfish_stream(10_000, 400, 21);
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

    #[test]
    fn estimate_is_unbiased_over_seeds() {
        // Lemma V.4: the SALSA CS row estimate is unbiased.  Average the
        // estimate of a fixed item over many independent single-row sketches;
        // the mean should be close to the true frequency even though each row
        // is noisy and merges occur.  The stream is flat (500 items × 40) so
        // the per-row noise has bounded variance and the empirical mean
        // concentrates.
        let true_f = 40i64;
        let probe = 123u64;
        let mut sum_est = 0f64;
        let trials = 60;
        for seed in 0..trials {
            // Narrow 8-bit sketch so merges actually happen.
            let mut cs = CountSketch::salsa(1, 128, 8, seed);
            for item in 0..500u64 {
                for _ in 0..40 {
                    cs.update(item, 1);
                }
            }
            sum_est += cs.estimate(probe) as f64;
        }
        let mean = sum_est / trials as f64;
        // Per-row variance ≤ F2/w = 500·40²/128 = 6 250 (σ ≈ 79); the mean of
        // 60 trials has a standard error of ≈ 10, so a ±40 band is ≈ 4 SE.
        assert!(
            (mean - true_f as f64).abs() < 40.0,
            "mean estimate {mean} is far from the true frequency {true_f}"
        );
    }

    #[test]
    fn reset_clears() {
        let mut cs = CountSketch::salsa(3, 128, 8, 1);
        cs.update(3, 10);
        cs.reset();
        assert_eq!(cs.estimate(3), 0);
    }
}
