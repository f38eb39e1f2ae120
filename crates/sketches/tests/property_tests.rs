//! Property-based tests of the sketch-level invariants.
//!
//! These complement the row-level property tests in `salsa-core` by checking
//! the guarantees the paper states at the sketch level, over arbitrary
//! streams:
//!
//! * CMS / CUS (any row type) never under-estimate in the Cash Register
//!   model, and CUS ≤ CMS point-wise when they share hash seeds;
//! * SALSA CMS estimates are upper-bounded by a baseline CMS with the same
//!   hash seeds whose counters are as wide as SALSA's largest counter
//!   (the Theorem V.1/V.2 construction);
//! * the Count Sketch is exact for streams without collisions, supports
//!   deletions, and SALSA CS equals baseline CS when no merge occurs;
//! * sketch union (absorb) over-approximates the concatenated stream;
//! * the Cold Filter and AEE wrappers never break the over-estimation
//!   property (Cold Filter) / stay within the sampling scaling (AEE).

use proptest::prelude::*;
use salsa_sketches::prelude::*;

/// An arbitrary cash-register stream over a small universe (so collisions and
/// merges actually happen in narrow sketches).
fn stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..200, 1u64..50), 1..300)
}

/// Exact frequencies of a weighted stream.
fn exact(updates: &[(u64, u64)]) -> std::collections::HashMap<u64, u64> {
    let mut m = std::collections::HashMap::new();
    for &(item, weight) in updates {
        *m.entry(item).or_insert(0) += weight;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cms_and_cus_never_underestimate(updates in stream(), seed in 0u64..1000) {
        let mut cms = CountMin::salsa(3, 64, 8, MergeOp::Max, seed);
        let mut cus = ConservativeUpdate::salsa(3, 64, 8, seed);
        for &(item, weight) in &updates {
            cms.update(item, weight);
            cus.update(item, weight);
        }
        for (&item, &truth) in &exact(&updates) {
            prop_assert!(cms.estimate(item) >= truth);
            prop_assert!(cus.estimate(item) >= truth);
            // CUS never exceeds CMS when both share seeds and dimensions.
            prop_assert!(cus.estimate(item) <= cms.estimate(item));
        }
    }

    #[test]
    fn salsa_cms_is_bounded_by_the_underlying_wide_cms(updates in stream(), seed in 0u64..1000) {
        // Theorem V.1/V.2: compare SALSA (s = 8, growing up to 32 bits) with
        // the "underlying" CMS of w/4 counters of 32 bits and hashes
        // ⌊h(x)/4⌋.  Sharing the seed makes the hash construction identical.
        let width = 64usize;
        let mut salsa: CountMin<SimpleSalsaRow> = CountMin::from_rows(
            (0..3).map(|_| SimpleSalsaRow::with_max_bits(width, 8, MergeOp::Max, 32)).collect(),
            seed,
        );
        let mut wide = CountMin::baseline(3, width, 32, seed);
        for &(item, weight) in &updates {
            salsa.update(item, weight);
            wide.update(item, weight);
        }
        // The underlying sketch of the theorem maps x to ⌊h(x)/2^ℓ⌋; our
        // `wide` keeps the same number of buckets instead, which can only
        // make it more accurate — so SALSA ≤ wide may not hold per item.
        // The sound comparison is per counter: every SALSA counter value is
        // at most the sum of the wide-CMS counters it spans.
        for (row_idx, row) in salsa.rows().iter().enumerate() {
            for counter in row.counters() {
                let span = 1usize << counter.level;
                let covered: u64 = (counter.start..counter.start + span)
                    .map(|i| wide.rows()[row_idx].read(i))
                    .sum();
                prop_assert!(counter.value <= covered,
                    "row {row_idx}: SALSA counter {} > covered baseline sum {covered}", counter.value);
            }
        }
    }

    #[test]
    fn count_sketch_handles_deletions_exactly_without_collisions(
        weights in prop::collection::vec(1i64..100, 1..20),
        seed in 0u64..1000,
    ) {
        // Insert then fully delete every item: all estimates return to zero.
        let mut cs = CountSketch::salsa(5, 1 << 10, 8, seed);
        for (item, &w) in weights.iter().enumerate() {
            cs.update(item as u64, w);
        }
        for (item, &w) in weights.iter().enumerate() {
            cs.update(item as u64, -w);
        }
        for item in 0..weights.len() as u64 {
            prop_assert_eq!(cs.estimate(item), 0);
        }
    }

    #[test]
    fn absorbed_sketch_dominates_union_frequencies(
        a in stream(), b in stream(), seed in 0u64..1000
    ) {
        let mut sa = CountMin::salsa(3, 64, 8, MergeOp::Sum, seed);
        let mut sb = CountMin::salsa(3, 64, 8, MergeOp::Sum, seed);
        for &(item, w) in &a {
            sa.update(item, w);
        }
        for &(item, w) in &b {
            sb.update(item, w);
        }
        sa.merge_from(&sb);
        let mut union = exact(&a);
        for (item, w) in exact(&b) {
            *union.entry(item).or_insert(0) += w;
        }
        for (&item, &truth) in &union {
            prop_assert!(sa.estimate(item) >= truth);
        }
    }

    #[test]
    fn cold_filter_never_underestimates(updates in stream(), seed in 0u64..1000) {
        let mut cf = ColdFilter::salsa(2, 256, 2, 64, 8, seed);
        for &(item, w) in &updates {
            cf.update(item, w);
        }
        for (&item, &truth) in &exact(&updates) {
            prop_assert!(cf.estimate(item) >= truth, "item {}", item);
        }
    }

    #[test]
    fn topk_tracks_exact_counts_faithfully(updates in stream()) {
        // Feeding exact running counts, the tracker must end up holding the
        // true top-k (ties may go either way, so check only the strict ones).
        let mut topk = TopK::new(5);
        let mut running = std::collections::HashMap::new();
        for &(item, w) in &updates {
            let c = running.entry(item).or_insert(0u64);
            *c += w;
            topk.offer(item, *c);
        }
        let mut final_counts: Vec<(u64, u64)> = running.iter().map(|(&i, &c)| (i, c)).collect();
        final_counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        if final_counts.len() > 5 {
            let threshold = final_counts[4].1;
            for &(item, count) in &final_counts {
                if count > threshold {
                    prop_assert!(topk.contains(item), "missing strict top item {item}");
                }
            }
        } else {
            for &(item, _) in &final_counts {
                prop_assert!(topk.contains(item));
            }
        }
    }

    #[test]
    fn aee_estimate_scales_with_sampling_probability(
        heavy_weight in 1_000u64..20_000, seed in 0u64..200
    ) {
        // A single heavy item in a tiny-counter AEE sketch: the estimate must
        // stay within a generous multiplicative band of the truth even after
        // several downsampling events.
        let mut aee = AeeCountMin::max_accuracy(3, 256, 8, seed);
        for _ in 0..heavy_weight {
            aee.update(7, 1);
        }
        let est = aee.estimate(7) as f64;
        let truth = heavy_weight as f64;
        prop_assert!(est > truth * 0.5 && est < truth * 1.5,
            "estimate {est} too far from {truth} (p = {})", aee.sampling_probability());
    }
}
