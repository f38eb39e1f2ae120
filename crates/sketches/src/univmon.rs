//! UnivMon — the universal monitoring sketch.
//!
//! UnivMon (Liu et al., SIGCOMM'16) maintains `L = O(log u)` Count Sketches;
//! level 0 sees the full stream and level `j` sees the substream of items
//! whose sampling hash passes `j` coin flips (probability `2^{-j}`).  Each
//! level tracks its heavy hitters with a small heap.  Any G-sum
//! `Σ_x G(f_x)` in Stream-PolyLog (entropy, frequency moments, distinct
//! count, …) is estimated with the standard recursive estimator over the
//! per-level heavy hitters.
//!
//! Replacing the per-level Count Sketches with SALSA Count Sketches gives
//! "SALSA UnivMon" (Fig. 12) with the same guarantees, because SALSA CS is
//! at least as accurate as the underlying CS (Theorem V.6).

use salsa_core::compact::LayoutCodes;
use salsa_core::encoding::MergeEncoding;
use salsa_core::fixed::FixedSignedRow;
use salsa_core::merge::RowMerge;
use salsa_core::row::SalsaSignedRow;
use salsa_core::traits::SignedRow;
use salsa_hash::BobHash;

use crate::cs::CountSketch;
use crate::heavy_hitters::TopK;
use crate::helper::MergeHelper;
use crate::summary::{SnapshotSummary, StreamSummary, UniversalQueries};

/// One UnivMon level: a Count Sketch plus a heap of its heavy hitters.
#[derive(Debug, Clone)]
struct Level<S: SignedRow> {
    sketch: CountSketch<S>,
    heap: TopK,
}

/// The universal sketch, generic over the Count Sketch row type.
#[derive(Debug, Clone)]
pub struct UnivMon<S: SignedRow> {
    levels: Vec<Level<S>>,
    sampler: BobHash,
    total: u64,
}

impl<S: SignedRow> UnivMon<S> {
    /// Builds a UnivMon with `num_levels` levels, a per-level heap of
    /// `heap_size` items, constructing each level's Count Sketch with
    /// `make_cs(level)`.
    pub fn new_with(
        num_levels: usize,
        heap_size: usize,
        seed: u64,
        mut make_cs: impl FnMut(usize) -> CountSketch<S>,
    ) -> Self {
        assert!(num_levels > 0, "UnivMon needs at least one level");
        let levels = (0..num_levels)
            .map(|level| Level {
                sketch: make_cs(level),
                heap: TopK::new(heap_size),
            })
            .collect();
        Self {
            levels,
            sampler: BobHash::new(seed ^ 0x5A5A_F00D_BAAD_CAFE),
            total: 0,
        }
    }

    /// Number of levels.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total stream volume processed so far.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total memory used by all levels, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.sketch.size_bytes()).sum()
    }

    /// The deepest level `item` is sampled into (level 0 always accepts).
    #[inline]
    fn deepest_level(&self, item: u64) -> usize {
        let h = self.sampler.hash_u64(item);
        let passes = h.trailing_ones() as usize;
        passes.min(self.levels.len() - 1)
    }

    /// `true` if `item` is sampled into `level`.
    #[inline]
    fn in_level(&self, item: u64, level: usize) -> bool {
        self.deepest_level(item) >= level
    }

    /// Processes the update `⟨item, value⟩` (Cash Register model).
    pub fn update(&mut self, item: u64, value: u64) {
        self.total += value;
        let deepest = self.deepest_level(item);
        for level in 0..=deepest {
            let entry = &mut self.levels[level];
            entry.sketch.update(item, value as i64);
            let est = entry.sketch.estimate(item).max(0) as u64;
            entry.heap.offer(item, est);
        }
    }

    /// Estimates the G-sum `Σ_x G(f_x)` with the recursive UnivMon estimator.
    ///
    /// `g` receives an estimated frequency (always ≥ 1) and returns `G(f)`.
    pub fn g_sum(&self, g: impl Fn(f64) -> f64) -> f64 {
        let top = self.levels.len() - 1;
        // Y_top = Σ_{x ∈ HH_top} G(f̂_top(x))
        let mut y = self.levels[top]
            .heap
            .items()
            .iter()
            .filter(|&&(_, est)| est > 0)
            .map(|&(_, est)| g(est as f64))
            .sum::<f64>();
        // Y_j = 2·Y_{j+1} + Σ_{x ∈ HH_j} (1 − 2·[x ∈ level j+1])·G(f̂_j(x))
        for level in (0..top).rev() {
            let mut correction = 0.0;
            for &(item, est) in &self.levels[level].heap.items() {
                if est == 0 {
                    continue;
                }
                let indicator = if self.in_level(item, level + 1) {
                    1.0
                } else {
                    0.0
                };
                correction += (1.0 - 2.0 * indicator) * g(est as f64);
            }
            y = 2.0 * y + correction;
        }
        y.max(0.0)
    }
}

impl<S> StreamSummary for UnivMon<S>
where
    S: SignedRow + RowMerge + Clone + Send + 'static,
{
    fn ingest(&mut self, items: &[u64]) {
        for &item in items {
            self.update(item, 1);
        }
    }

    fn merge_from(&mut self, other: &Self) {
        // ALLOC-OK: one-shot entry point; steady-state callers thread a warm
        // helper through `merge_with_helper` instead.
        self.merge_with_helper(other, &mut MergeHelper::new());
    }
}

impl<S> SnapshotSummary for UnivMon<S>
where
    S: SignedRow + RowMerge + Clone + Send + 'static,
{
    /// The counter storage of every level's Count Sketch plus the tracked
    /// heap entries (the sampler is a single seed and is ignored).
    fn clone_cost_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.sketch.clone_cost_bytes() + l.heap.len() * TopK::ENTRY_COST_BYTES)
            .sum()
    }

    /// Reuses the level sketches' buffers (the per-level heaps reuse what
    /// their containers allow).  Both sketches must have the same level
    /// count and shape.
    fn copy_from(&mut self, src: &Self) {
        assert_eq!(
            self.levels.len(),
            src.levels.len(),
            "UnivMon level counts must match"
        );
        for (dst, src_level) in self.levels.iter_mut().zip(src.levels.iter()) {
            dst.sketch.copy_from(&src_level.sketch);
            dst.heap.copy_from(&src_level.heap);
        }
        self.sampler = src.sampler;
        self.total = src.total;
    }

    /// Counter-wise merges `other` into `self` (same seeds, level count and
    /// per-level shape enforced): afterwards this sketch summarizes the union
    /// of the two input streams.
    ///
    /// Every level's Count Sketch merges counter-wise (plain signed sums, so
    /// per-row values are identical to a sketch fed both streams — Section V;
    /// SALSA CS stays unbiased across the merge, Lemma V.4).  The level's
    /// heavy-hitter heap cannot be summed the same way: the tracked estimates
    /// were taken on-arrival against each operand's *partial* stream.  It is
    /// instead rebuilt by re-estimating the union of both heaps' tracked
    /// items against the merged level sketch, which restores the invariant
    /// that every tracked estimate reflects the full merged stream.  An item
    /// is lost only if *neither* operand tracked it — the same items a
    /// single-stream heap of the combined capacity could have evicted — so
    /// `g_sum`-class estimates (entropy, moments, distinct) stay within the
    /// estimator's usual tolerance of an unsharded run (pinned by the
    /// `univmon_properties` proptests in `salsa-pipeline`).
    ///
    /// The heap-rebuild scratch comes from `helper`, so a warm helper makes
    /// repeated merges nearly allocation-free (the per-level heaps still
    /// insert into their tree set).
    fn merge_with_helper(&mut self, other: &Self, helper: &mut MergeHelper) {
        assert_eq!(
            self.levels.len(),
            other.levels.len(),
            "UnivMon level counts must match"
        );
        self.total += other.total;
        for (mine, theirs) in self.levels.iter_mut().zip(other.levels.iter()) {
            mine.sketch.merge_from(&theirs.sketch);
            let sketch = &mine.sketch;
            helper.rebuild_tracker(&mut mine.heap, &theirs.heap, |item| sketch.estimate(item));
        }
    }
}

impl<S: SignedRow> UniversalQueries for UnivMon<S> {
    /// `H = log2(N) − (1/N)·Σ_x f_x·log2(f_x)`.
    fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        let flogf = self.g_sum(|f| f * f.log2());
        (n.log2() - flogf / n).max(0.0)
    }

    fn fp_moment(&self, p: f64) -> f64 {
        self.g_sum(|f| f.powf(p))
    }

    fn distinct(&self) -> f64 {
        self.g_sum(|f| if f >= 0.5 { 1.0 } else { 0.0 })
    }
}

impl UnivMon<FixedSignedRow> {
    /// The baseline UnivMon of the paper's evaluation: `num_levels` Count
    /// Sketches with `depth` rows of `width` fixed-width (32-bit) counters
    /// and a heap of `heap_size` (100 in the paper) per level.
    pub fn baseline(
        num_levels: usize,
        depth: usize,
        width: usize,
        bits: u32,
        heap_size: usize,
        seed: u64,
    ) -> Self {
        Self::new_with(num_levels, heap_size, seed, |level| {
            CountSketch::baseline(
                depth,
                width,
                bits,
                seed.wrapping_add(level as u64 * 1315423911),
            )
        })
    }
}

impl<E: MergeEncoding> UnivMon<SalsaSignedRow<E>> {
    /// SALSA UnivMon: each level's Count Sketch uses SALSA sign-magnitude
    /// rows with `base_bits`-bit counters.
    pub fn salsa_with_encoding(
        num_levels: usize,
        depth: usize,
        width: usize,
        base_bits: u32,
        heap_size: usize,
        seed: u64,
    ) -> Self {
        Self::new_with(num_levels, heap_size, seed, |level| {
            CountSketch::salsa_with_encoding(
                depth,
                width,
                base_bits,
                seed.wrapping_add(level as u64 * 1315423911),
            )
        })
    }
}

impl UnivMon<SalsaSignedRow<salsa_core::bitmap::MergeBitmap>> {
    /// SALSA UnivMon with the simple encoding (the paper's default).
    pub fn salsa(
        num_levels: usize,
        depth: usize,
        width: usize,
        base_bits: u32,
        heap_size: usize,
        seed: u64,
    ) -> Self {
        Self::salsa_with_encoding(num_levels, depth, width, base_bits, heap_size, seed)
    }
}

impl UnivMon<SalsaSignedRow<LayoutCodes>> {
    /// SALSA UnivMon with the near-optimal encoding.
    pub fn salsa_compact(
        num_levels: usize,
        depth: usize,
        width: usize,
        base_bits: u32,
        heap_size: usize,
        seed: u64,
    ) -> Self {
        Self::salsa_with_encoding(num_levels, depth, width, base_bits, heap_size, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic Zipf-ish stream with known exact statistics.
    fn stream_and_truth(n: usize, universe: u64, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut counts = vec![0u64; universe as usize];
        let mut stream = Vec::with_capacity(n);
        let mut state = seed;
        for _ in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
            let item = ((1.0 / u.powf(0.8)) as u64).min(universe - 1);
            stream.push(item);
            counts[item as usize] += 1;
        }
        (stream, counts)
    }

    fn exact_entropy(counts: &[u64]) -> f64 {
        let n: u64 = counts.iter().sum();
        let nf = n as f64;
        let flogf: f64 = counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| (c as f64) * (c as f64).log2())
            .sum();
        nf.log2() - flogf / nf
    }

    fn exact_fp(counts: &[u64], p: f64) -> f64 {
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| (c as f64).powf(p))
            .sum()
    }

    #[test]
    fn entropy_estimate_is_reasonable() {
        let (stream, counts) = stream_and_truth(60_000, 5_000, 7);
        let mut um = UnivMon::salsa(12, 5, 1 << 10, 8, 100, 3);
        for &item in &stream {
            um.update(item, 1);
        }
        let est = um.entropy();
        let truth = exact_entropy(&counts);
        let rel = (est - truth).abs() / truth;
        assert!(
            rel < 0.15,
            "entropy estimate {est} vs exact {truth} (rel {rel})"
        );
    }

    #[test]
    fn f2_moment_estimate_is_reasonable() {
        let (stream, counts) = stream_and_truth(60_000, 5_000, 11);
        let mut um = UnivMon::salsa(12, 5, 1 << 10, 8, 100, 5);
        for &item in &stream {
            um.update(item, 1);
        }
        let est = um.fp_moment(2.0);
        let truth = exact_fp(&counts, 2.0);
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.3, "F2 estimate {est} vs exact {truth} (rel {rel})");
    }

    #[test]
    fn f1_matches_stream_volume_roughly() {
        let (stream, _) = stream_and_truth(40_000, 5_000, 13);
        let mut um = UnivMon::baseline(12, 5, 1 << 10, 32, 100, 9);
        for &item in &stream {
            um.update(item, 1);
        }
        let est = um.fp_moment(1.0);
        let rel = (est - 40_000.0).abs() / 40_000.0;
        assert!(rel < 0.35, "F1 estimate {est} (rel {rel})");
    }

    #[test]
    fn level_sampling_halves_per_level() {
        let um = UnivMon::baseline(10, 5, 256, 32, 10, 4);
        let mut per_level = [0usize; 10];
        for item in 0..100_000u64 {
            per_level[um.deepest_level(item)] += 1;
        }
        // Roughly half the items stop at level 0, a quarter at level 1, ….
        assert!((per_level[0] as f64 / 100_000.0 - 0.5).abs() < 0.02);
        assert!((per_level[1] as f64 / 100_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn total_counts_volume() {
        let mut um = UnivMon::baseline(4, 5, 128, 32, 10, 1);
        um.update(1, 5);
        um.update(2, 7);
        assert_eq!(um.total(), 12);
    }

    #[test]
    fn size_accounts_all_levels() {
        let um = UnivMon::baseline(16, 5, 256, 32, 100, 1);
        assert_eq!(um.size_bytes(), 16 * 5 * 256 * 4);
        let salsa = UnivMon::salsa(16, 5, 1024, 8, 100, 1);
        assert_eq!(salsa.size_bytes(), 16 * 5 * (1024 + 128));
    }

    #[test]
    fn merge_preserves_g_sum_estimates() {
        let (stream, counts) = stream_and_truth(60_000, 5_000, 17);
        let make = || UnivMon::salsa(12, 5, 1 << 10, 8, 100, 3);
        let mut single = make();
        for &item in &stream {
            single.update(item, 1);
        }
        // Split the stream in three, sketch each part, merge.
        let mut merged = make();
        let mut part_b = make();
        let mut part_c = make();
        for (i, &item) in stream.iter().enumerate() {
            match i % 3 {
                0 => merged.update(item, 1),
                1 => part_b.update(item, 1),
                _ => part_c.update(item, 1),
            }
        }
        merged.merge_from(&part_b);
        merged.merge_from(&part_c);
        assert_eq!(merged.total(), single.total());
        let truth = exact_entropy(&counts);
        let est = merged.entropy();
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.15, "merged entropy {est} vs exact {truth} ({rel})");
        let single_est = single.entropy();
        let drift = (est - single_est).abs() / single_est;
        assert!(
            drift < 0.1,
            "merged entropy {est} vs single-stream {single_est} ({drift})"
        );
    }

    #[test]
    fn merge_into_new_leaves_operands_untouched() {
        let mut a = UnivMon::baseline(6, 4, 512, 32, 20, 5);
        let mut b = UnivMon::baseline(6, 4, 512, 32, 20, 5);
        a.update(1, 10);
        b.update(2, 20);
        let merged = a.merge_into_new(&b);
        assert_eq!(merged.total(), 30);
        assert_eq!(a.total(), 10);
        assert_eq!(b.total(), 20);
    }

    #[test]
    #[should_panic(expected = "level counts must match")]
    fn merge_level_count_mismatch_panics() {
        let mut a = UnivMon::baseline(6, 4, 512, 32, 20, 5);
        let b = UnivMon::baseline(8, 4, 512, 32, 20, 5);
        a.merge_from(&b);
    }

    #[test]
    fn batch_update_matches_unit_updates() {
        let items: Vec<u64> = (0..2_000u64).map(|i| i % 97).collect();
        let mut batched = UnivMon::baseline(6, 4, 512, 32, 20, 5);
        batched.ingest(&items);
        let mut looped = UnivMon::baseline(6, 4, 512, 32, 20, 5);
        for &item in &items {
            looped.update(item, 1);
        }
        assert_eq!(batched.total(), looped.total());
        assert_eq!(batched.entropy(), looped.entropy());
    }

    #[test]
    fn clone_cost_covers_levels_and_heaps() {
        let mut um = UnivMon::baseline(4, 5, 128, 32, 10, 1);
        let empty_cost = um.clone_cost_bytes();
        assert_eq!(empty_cost, 4 * 5 * 128 * 4); // 32-bit counters, empty heaps
        um.update(7, 3);
        assert!(um.clone_cost_bytes() > empty_cost);
    }

    #[test]
    fn distinct_estimate_counts_each_item_once() {
        let mut um = UnivMon::salsa(12, 5, 1 << 10, 8, 100, 2);
        for item in 0..2_000u64 {
            for _ in 0..5 {
                um.update(item, 1);
            }
        }
        let est = um.distinct();
        let rel = (est - 2_000.0).abs() / 2_000.0;
        assert!(rel < 0.5, "distinct estimate {est} (rel {rel})");
    }
}
