//! Integration tests of sketch merging and subtraction (Section V,
//! "Merging and Subtracting SALSA Sketches") and the change-detection
//! workflow built on them.

use salsa_integration_tests::test_stream;
use salsa_metrics::error::change_detection_nrmse;
use salsa_sketches::prelude::*;
use salsa_workloads::stream;

#[test]
fn merged_cms_estimates_the_union_stream() {
    let stream_a = test_stream(50_000, 20_000, 1.0, 1);
    let stream_b = test_stream(50_000, 20_000, 1.0, 2);
    let seed = 7;
    let mut sa = CountMin::salsa(4, 1 << 12, 8, MergeOp::Sum, seed);
    let mut sb = CountMin::salsa(4, 1 << 12, 8, MergeOp::Sum, seed);
    let mut direct = CountMin::salsa(4, 1 << 12, 8, MergeOp::Sum, seed);
    for &i in &stream_a {
        sa.update(i, 1);
        direct.update(i, 1);
    }
    for &i in &stream_b {
        sb.update(i, 1);
        direct.update(i, 1);
    }
    sa.merge_from(&sb);
    // The merged sketch never under-estimates the union frequencies.
    let truth = salsa_metrics::GroundTruth::from_items(
        &stream_a
            .iter()
            .chain(stream_b.iter())
            .copied()
            .collect::<Vec<_>>(),
    );
    for (item, count) in truth.iter() {
        assert!(sa.estimate(item) >= count, "item {item}");
        // And it is never more optimistic than the sketch that saw the whole
        // union directly with the same configuration cannot be *smaller* than
        // the true count either; both are upper bounds of the same quantity.
        assert!(direct.estimate(item) >= count);
    }
}

#[test]
fn count_sketch_difference_recovers_changes() {
    let items = test_stream(200_000, 50_000, 1.0, 3);
    let (first, second) = stream::split_halves(&items);
    let exact = stream::exact_changes(first, second);
    let seed = 11;
    let mut sa = CountSketch::salsa(5, 1 << 12, 8, seed);
    let mut sb = CountSketch::salsa(5, 1 << 12, 8, seed);
    for &i in first {
        sa.update(i, 1);
    }
    for &i in second {
        sb.update(i, 1);
    }
    let mut diff = sb.clone();
    diff.subtract(&sa);

    // The heaviest true changes should be recovered within a small relative
    // error by the difference sketch.
    let mut changes: Vec<(u64, i64)> = exact.iter().map(|(&i, &c)| (i, c)).collect();
    changes.sort_by_key(|&(_, c)| std::cmp::Reverse(c.abs()));
    for &(item, change) in changes.iter().take(5) {
        if change.abs() < 100 {
            continue;
        }
        let est = diff.estimate(item);
        assert!(
            (est - change).abs() as f64 <= 0.2 * change.abs() as f64 + 50.0,
            "item {item}: change {change}, estimate {est}"
        );
    }

    // And the difference sketch beats naively subtracting two separate
    // estimates is not required, but its NRMSE must be finite and small.
    let nrmse = change_detection_nrmse(&exact, |i| diff.estimate(i), first.len() as u64);
    assert!(nrmse < 1e-2, "change-detection NRMSE {nrmse}");
}

#[test]
fn salsa_difference_beats_baseline_difference_at_equal_memory() {
    let items = test_stream(300_000, 100_000, 1.0, 5);
    let (first, second) = stream::split_halves(&items);
    let exact = stream::exact_changes(first, second);
    let seed = 13;

    // Equal memory: baseline 2^10×32-bit vs SALSA 2^12×8-bit (+ merge bits).
    let mut base_a = CountSketch::baseline(5, 1 << 10, 32, seed);
    let mut base_b = CountSketch::baseline(5, 1 << 10, 32, seed);
    let mut salsa_a = CountSketch::salsa(5, 1 << 12, 8, seed);
    let mut salsa_b = CountSketch::salsa(5, 1 << 12, 8, seed);
    for &i in first {
        base_a.update(i, 1);
        salsa_a.update(i, 1);
    }
    for &i in second {
        base_b.update(i, 1);
        salsa_b.update(i, 1);
    }
    let mut base_diff = base_b.clone();
    base_diff.subtract(&base_a);
    let mut salsa_diff = salsa_b.clone();
    salsa_diff.subtract(&salsa_a);

    let base_nrmse = change_detection_nrmse(&exact, |i| base_diff.estimate(i), first.len() as u64);
    let salsa_nrmse =
        change_detection_nrmse(&exact, |i| salsa_diff.estimate(i), first.len() as u64);
    assert!(
        salsa_nrmse <= base_nrmse,
        "SALSA change detection {salsa_nrmse} should not exceed baseline {base_nrmse}"
    );
}

#[test]
fn strict_turnstile_subtraction_of_a_subset_never_goes_negative() {
    // CMS subtraction is defined for B ⊆ A; the result stays a valid
    // over-estimate of A \ B.
    let stream_a = test_stream(80_000, 30_000, 1.0, 9);
    let stream_b: Vec<u64> = stream_a.iter().copied().step_by(2).collect();
    let seed = 17;
    let mut sa = CountMin::salsa(4, 1 << 12, 8, MergeOp::Sum, seed);
    let mut sb = CountMin::salsa(4, 1 << 12, 8, MergeOp::Sum, seed);
    for &i in &stream_a {
        sa.update(i, 1);
    }
    for &i in &stream_b {
        sb.update(i, 1);
    }
    sa.subtract(&sb);
    // Exact residual frequencies.
    let full = salsa_metrics::GroundTruth::from_items(&stream_a);
    let removed = salsa_metrics::GroundTruth::from_items(&stream_b);
    for (item, count) in full.iter() {
        let remaining = count - removed.frequency(item);
        assert!(
            sa.estimate(item) >= remaining,
            "item {item}: estimate {} < remaining {remaining}",
            sa.estimate(item)
        );
    }
}
