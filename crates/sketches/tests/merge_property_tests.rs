//! Property-based tests of sketch-level merging (`merge_from`).
//!
//! Section V of the paper: sketches built with the same hash functions can
//! be combined counter-wise into a sketch of the union stream.  These tests
//! pin down, over arbitrary streams and across **both merge encodings**
//! (simple merge bits and compact layout codes), what the combined sketch
//! guarantees relative to a single sketch fed the concatenated stream:
//!
//! * **CMS, sum-merge**: merging is *lossless* — the merged sketch's
//!   estimates equal the concatenated-stream sketch's estimates exactly
//!   (sum-merge counters always hold their block's exact total, so the
//!   final levels and values only depend on those totals);
//! * **CMS, max-merge**: the merged sketch never under-estimates the union
//!   stream and dominates both operands (merging sums counters, which
//!   over-approximates under max-merge);
//! * **CUS** (max-merge, Theorem V.3): the merged sketch never
//!   under-estimates the union stream and stays upper-bounded by the merged
//!   CMS of the same configuration;
//! * **Count Sketch** (signed, sum-merge): while no counter overflows,
//!   merging equals the concatenated-stream sketch exactly; and merging
//!   always preserves each row's signed mass even once merges occur.

use proptest::prelude::*;
use salsa_sketches::prelude::*;

/// An arbitrary cash-register stream over a small universe, so collisions
/// and merge events actually happen in narrow sketches.
fn stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..200, 1u64..60), 1..250)
}

/// Exact frequencies of a weighted stream.
fn exact(updates: &[(u64, u64)]) -> std::collections::HashMap<u64, u64> {
    let mut m = std::collections::HashMap::new();
    for &(item, weight) in updates {
        *m.entry(item).or_insert(0) += weight;
    }
    m
}

/// Union of the exact frequencies of two streams.
fn exact_union(a: &[(u64, u64)], b: &[(u64, u64)]) -> std::collections::HashMap<u64, u64> {
    let mut m = exact(a);
    for (item, weight) in exact(b) {
        *m.entry(item).or_insert(0) += weight;
    }
    m
}

/// Checks the sum-merge CMS equality property for one merge encoding.
fn check_cms_sum_merge_is_lossless<E: MergeEncoding + Send + 'static>(
    a: &[(u64, u64)],
    b: &[(u64, u64)],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut sa = CountMin::<SalsaRow<E>>::salsa_with_encoding(3, 64, 8, MergeOp::Sum, seed);
    let mut sb = CountMin::<SalsaRow<E>>::salsa_with_encoding(3, 64, 8, MergeOp::Sum, seed);
    let mut concat = CountMin::<SalsaRow<E>>::salsa_with_encoding(3, 64, 8, MergeOp::Sum, seed);
    for &(item, weight) in a {
        sa.update(item, weight);
        concat.update(item, weight);
    }
    for &(item, weight) in b {
        sb.update(item, weight);
        concat.update(item, weight);
    }
    sa.merge_from(&sb);
    for item in 0..200u64 {
        prop_assert_eq!(sa.estimate(item), concat.estimate(item), "item {}", item);
    }
    Ok(())
}

/// Checks the max-merge CMS dominance properties for one merge encoding.
fn check_cms_max_merge_dominates<E: MergeEncoding + Send + 'static>(
    a: &[(u64, u64)],
    b: &[(u64, u64)],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut sa = CountMin::<SalsaRow<E>>::salsa_with_encoding(3, 64, 8, MergeOp::Max, seed);
    let mut sb = CountMin::<SalsaRow<E>>::salsa_with_encoding(3, 64, 8, MergeOp::Max, seed);
    for &(item, weight) in a {
        sa.update(item, weight);
    }
    for &(item, weight) in b {
        sb.update(item, weight);
    }
    let mut merged = sa.clone();
    merged.merge_from(&sb);
    let truth = exact_union(a, b);
    for (&item, &count) in &truth {
        prop_assert!(merged.estimate(item) >= count, "item {} truth", item);
    }
    for item in 0..200u64 {
        prop_assert!(
            merged.estimate(item) >= sa.estimate(item),
            "item {} vs a",
            item
        );
        prop_assert!(
            merged.estimate(item) >= sb.estimate(item),
            "item {} vs b",
            item
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cms_sum_merge_equals_concatenated_stream_simple_encoding(
        a in stream(), b in stream(), seed in 0u64..500
    ) {
        check_cms_sum_merge_is_lossless::<MergeBitmap>(&a, &b, seed)?;
    }

    #[test]
    fn cms_sum_merge_equals_concatenated_stream_compact_encoding(
        a in stream(), b in stream(), seed in 0u64..500
    ) {
        check_cms_sum_merge_is_lossless::<LayoutCodes>(&a, &b, seed)?;
    }

    #[test]
    fn cms_max_merge_dominates_simple_encoding(
        a in stream(), b in stream(), seed in 0u64..500
    ) {
        check_cms_max_merge_dominates::<MergeBitmap>(&a, &b, seed)?;
    }

    #[test]
    fn cms_max_merge_dominates_compact_encoding(
        a in stream(), b in stream(), seed in 0u64..500
    ) {
        check_cms_max_merge_dominates::<LayoutCodes>(&a, &b, seed)?;
    }

    #[test]
    fn cus_merge_never_underestimates_and_stays_below_merged_cms(
        a in stream(), b in stream(), seed in 0u64..500
    ) {
        // Same streams through CUS and CMS shards sharing seeds: the merged
        // CUS must still never under-estimate the union stream, and each
        // estimate stays upper-bounded by the merged CMS (CUS counters are
        // point-wise ≤ CMS counters on every shard, and merging sums them).
        let mut cus_a = ConservativeUpdate::salsa(3, 64, 8, seed);
        let mut cus_b = ConservativeUpdate::salsa(3, 64, 8, seed);
        let mut cms_a = CountMin::salsa(3, 64, 8, MergeOp::Max, seed);
        let mut cms_b = CountMin::salsa(3, 64, 8, MergeOp::Max, seed);
        for &(item, weight) in &a {
            cus_a.update(item, weight);
            cms_a.update(item, weight);
        }
        for &(item, weight) in &b {
            cus_b.update(item, weight);
            cms_b.update(item, weight);
        }
        cus_a.merge_from(&cus_b);
        cms_a.merge_from(&cms_b);
        for (&item, &count) in &exact_union(&a, &b) {
            prop_assert!(cus_a.estimate(item) >= count, "item {} truth", item);
            prop_assert!(
                cus_a.estimate(item) <= cms_a.estimate(item),
                "item {} CUS above CMS", item
            );
        }
    }

    #[test]
    fn count_sketch_merge_equals_concatenated_stream_without_overflow(
        a in prop::collection::vec(0u64..200, 1..300),
        b in prop::collection::vec(0u64..200, 1..300),
        seed in 0u64..500
    ) {
        // ≤ 600 unit updates in total and 16-bit base counters: no
        // sign-magnitude counter can overflow (|sum| ≤ 600 < 2^15 − 1), so
        // merging is exactly counter-wise addition in both encodings.
        let mut simple_a = CountSketch::<SalsaSignedRow<MergeBitmap>>::salsa_with_encoding(3, 64, 16, seed);
        let mut simple_b = CountSketch::<SalsaSignedRow<MergeBitmap>>::salsa_with_encoding(3, 64, 16, seed);
        let mut simple_cat = CountSketch::<SalsaSignedRow<MergeBitmap>>::salsa_with_encoding(3, 64, 16, seed);
        let mut compact_a = CountSketch::<SalsaSignedRow<LayoutCodes>>::salsa_with_encoding(3, 64, 16, seed);
        let mut compact_b = CountSketch::<SalsaSignedRow<LayoutCodes>>::salsa_with_encoding(3, 64, 16, seed);
        let mut compact_cat = CountSketch::<SalsaSignedRow<LayoutCodes>>::salsa_with_encoding(3, 64, 16, seed);
        for &item in &a {
            simple_a.update(item, 1);
            simple_cat.update(item, 1);
            compact_a.update(item, 1);
            compact_cat.update(item, 1);
        }
        for &item in &b {
            simple_b.update(item, 1);
            simple_cat.update(item, 1);
            compact_b.update(item, 1);
            compact_cat.update(item, 1);
        }
        simple_a.merge_from(&simple_b);
        compact_a.merge_from(&compact_b);
        for item in 0..200u64 {
            prop_assert_eq!(simple_a.estimate(item), simple_cat.estimate(item), "simple item {}", item);
            prop_assert_eq!(compact_a.estimate(item), compact_cat.estimate(item), "compact item {}", item);
        }
    }

    #[test]
    fn count_sketch_merge_preserves_row_mass_with_overflows(
        a in prop::collection::vec(0u64..50, 50..400),
        b in prop::collection::vec(0u64..50, 50..400),
        seed in 0u64..500
    ) {
        // Narrow 8-bit counters over a tiny universe force merge events;
        // sum-merging still never loses signed mass, so per row the sum
        // over logical counters matches the concatenated-stream sketch.
        let mut sa = CountSketch::salsa(3, 32, 8, seed);
        let mut sb = CountSketch::salsa(3, 32, 8, seed);
        let mut concat = CountSketch::salsa(3, 32, 8, seed);
        for &item in &a {
            sa.update(item, 1);
            concat.update(item, 1);
        }
        for &item in &b {
            sb.update(item, 1);
            concat.update(item, 1);
        }
        sa.merge_from(&sb);
        for (merged_row, concat_row) in sa.rows().iter().zip(concat.rows().iter()) {
            let merged_mass: i64 = merged_row.counters().map(|(_, _, v)| v).sum();
            let concat_mass: i64 = concat_row.counters().map(|(_, _, v)| v).sum();
            prop_assert_eq!(merged_mass, concat_mass);
        }
    }
}
