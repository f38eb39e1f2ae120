//! End-to-end task tests: miniature versions of the paper's task experiments
//! (distinct counting, heavy hitters, top-k, UnivMon G-sums, Cold Filter)
//! asserting the qualitative results the evaluation reports.

use salsa_integration_tests::test_stream;
use salsa_metrics::{relative_error, topk_accuracy, GroundTruth};
use salsa_sketches::prelude::*;

#[test]
fn distinct_counting_salsa_saturates_later_than_baseline() {
    // Fig. 14: at the same memory, the SALSA sketch has 4× the (base)
    // counters, so Linear Counting keeps working on streams where the
    // baseline's counters are all non-zero.
    let distinct = 60_000u64;
    let items: Vec<u64> = (0..distinct).flat_map(|i| [i, i]).collect();
    let mut baseline = CountMin::baseline(4, 1 << 14, 32, 3);
    let mut salsa = CountMin::salsa(4, 1 << 16, 8, MergeOp::Max, 3);
    for &i in &items {
        baseline.update(i, 1);
        salsa.update(i, 1);
    }
    let salsa_est = salsa
        .estimate_distinct()
        .expect("SALSA should still produce an estimate");
    assert!(relative_error(salsa_est, distinct as f64) < 0.1);
    match baseline.estimate_distinct() {
        None => {} // saturated, as expected for 16k buckets vs 60k distinct
        Some(est) => {
            // If it does produce an estimate it must be worse or comparable.
            assert!(
                relative_error(est, distinct as f64) + 1e-9
                    >= relative_error(salsa_est, distinct as f64)
            );
        }
    }
}

#[test]
fn heavy_hitter_relative_error_is_small_for_salsa_cus() {
    let items = test_stream(400_000, 100_000, 1.1, 7);
    let truth = GroundTruth::from_items(&items);
    let mut sketch = ConservativeUpdate::salsa(4, 1 << 13, 8, 5);
    for &i in &items {
        sketch.update(i, 1);
    }
    for (item, count) in truth.heavy_hitters(1e-3) {
        let rel = relative_error(sketch.estimate(item) as f64, count as f64);
        assert!(rel < 0.05, "heavy hitter {item}: relative error {rel}");
    }
}

#[test]
fn topk_with_salsa_cs_is_more_accurate_than_baseline_at_tight_memory() {
    let items = test_stream(300_000, 100_000, 0.8, 9);
    let truth = GroundTruth::from_items(&items);
    let k = 256;
    let true_top: Vec<u64> = truth.top_k(k).into_iter().map(|(i, _)| i).collect();

    let run = |mut sketch: Box<dyn FrequencyEstimator>| -> f64 {
        let mut heap = TopK::new(k);
        for &i in &items {
            sketch.update(i, 1);
            heap.offer(i, sketch.estimate(i).max(0) as u64);
        }
        let reported: Vec<u64> = heap.items().into_iter().map(|(i, _)| i).collect();
        topk_accuracy(&reported, &true_top)
    };
    // Equal memory: 2^9 32-bit counters vs 2^11 8-bit counters per row.
    let baseline_acc = run(Box::new(CountSketch::baseline(5, 1 << 9, 32, 13)));
    let salsa_acc = run(Box::new(CountSketch::salsa(5, 1 << 11, 8, 13)));
    assert!(
        salsa_acc >= baseline_acc,
        "SALSA top-k accuracy {salsa_acc} should not trail baseline {baseline_acc}"
    );
    assert!(salsa_acc > 0.6, "SALSA top-k accuracy {salsa_acc} too low");
}

#[test]
fn univmon_entropy_and_moments_are_estimated_sensibly() {
    let items = test_stream(200_000, 50_000, 1.0, 11);
    let truth = GroundTruth::from_items(&items);
    let mut um = UnivMon::salsa(12, 5, 1 << 10, 8, 100, 17);
    for &i in &items {
        um.update(i, 1);
    }
    assert!(
        relative_error(
            um.entropy().expect("a non-negative estimate"),
            truth.entropy()
        ) < 0.2
    );
    assert!(relative_error(um.fp_moment(2.0), truth.moment(2.0)) < 0.35);
    assert!(relative_error(um.fp_moment(1.0), truth.total() as f64) < 0.35);
}

#[test]
fn cold_filter_with_salsa_stage2_never_underestimates_and_beats_baseline() {
    let items = test_stream(400_000, 150_000, 1.0, 13);
    let truth = GroundTruth::from_items(&items);
    let mut baseline = ColdFilter::baseline(3, 1 << 13, 3, 1 << 9, 32, 19);
    let mut salsa = ColdFilter::salsa(3, 1 << 13, 3, 1 << 11, 8, 19);
    assert!(salsa.size_bytes() <= baseline.size_bytes() * 9 / 8);
    for &i in &items {
        baseline.update(i, 1);
        salsa.update(i, 1);
    }
    let mut base_total_err = 0u64;
    let mut salsa_total_err = 0u64;
    for (item, count) in truth.iter() {
        assert!(salsa.estimate(item) >= count);
        base_total_err += baseline.estimate(item) - count;
        salsa_total_err += salsa.estimate(item) - count;
    }
    assert!(
        salsa_total_err <= base_total_err,
        "SALSA Cold Filter error {salsa_total_err} vs baseline {base_total_err}"
    );
}

#[test]
fn aee_and_salsa_aee_estimate_heavy_flows_with_bounded_relative_error() {
    let items = test_stream(400_000, 50_000, 1.2, 15);
    let truth = GroundTruth::from_items(&items);
    let (heavy, heavy_count) = truth.top_k(1)[0];

    let mut aee = AeeCountMin::max_accuracy(4, 1 << 12, 8, 21);
    let mut hybrid = SalsaAee::with_dimensions(4, 1 << 12, 21);
    for &i in &items {
        aee.update(i, 1);
        hybrid.update(i, 1);
    }
    let aee_rel = relative_error(aee.estimate(heavy) as f64, heavy_count as f64);
    let hybrid_rel = relative_error(hybrid.estimate(heavy) as f64, heavy_count as f64);
    assert!(aee_rel < 0.15, "AEE relative error {aee_rel}");
    assert!(hybrid_rel < 0.15, "SALSA-AEE relative error {hybrid_rel}");
}
