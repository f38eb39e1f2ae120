//! Integration tests for the estimator integrations (Fig. 16 / Fig. 17):
//! AEE variants and the SALSA-AEE hybrid behave sensibly across memory
//! regimes, and the hybrid is never much worse than the better of its two
//! ingredients.

use salsa_integration_tests::{on_arrival_nrmse, test_stream};
use salsa_sketches::prelude::*;

#[test]
fn salsa_aee_tracks_the_better_of_salsa_and_aee() {
    let items = test_stream(300_000, 100_000, 1.0, 3);
    // A generous memory budget: merging should dominate, so SALSA-AEE should
    // land close to plain SALSA.
    let width = 1 << 13;
    let mut salsa = CountMin::salsa(4, width, 8, MergeOp::Max, 7);
    let mut aee = AeeCountMin::max_accuracy(4, width, 8, 7);
    let mut hybrid = SalsaAee::with_dimensions(4, width, 7);
    let (salsa_err, _) = on_arrival_nrmse(&mut salsa, &items);
    let (aee_err, _) = on_arrival_nrmse(&mut aee, &items);
    let (hybrid_err, _) = on_arrival_nrmse(&mut hybrid, &items);
    let best = salsa_err.min(aee_err);
    assert!(
        hybrid_err <= best * 2.0 + 1e-12,
        "hybrid {hybrid_err} should track the best ingredient {best}"
    );
}

#[test]
fn salsa_aee_never_downsamples_when_memory_is_plentiful() {
    let items = test_stream(100_000, 50_000, 1.0, 5);
    let mut hybrid = SalsaAee::with_dimensions(4, 1 << 15, 9);
    for &i in &items {
        hybrid.update(i, 1);
    }
    assert_eq!(hybrid.sampling_probability(), 1.0);
    assert_eq!(hybrid.downsample_events(), 0);
}

#[test]
fn salsa_aee_stays_accurate_on_a_tiny_sketch_under_heavy_load() {
    // A tiny sketch fed a long concentrated stream: whether it copes by
    // merging, downsampling or both, the per-item estimates must stay in a
    // narrow band around the truth.
    let mut hybrid = SalsaAee::with_dimensions(2, 64, 11);
    for round in 0..200_000u64 {
        hybrid.update(round % 16, 1);
    }
    let truth = 200_000 / 16;
    for item in 0..16u64 {
        let est = hybrid.estimate(item);
        assert!(
            est as f64 > truth as f64 * 0.5 && (est as f64) < truth as f64 * 4.0,
            "item {item}: estimate {est} vs truth {truth}"
        );
    }
}

#[test]
fn speed_variant_is_at_least_as_heavily_sampled_as_the_accuracy_variant() {
    let items = test_stream(300_000, 20_000, 1.1, 13);
    let mut accuracy = SalsaAee::with_dimensions(4, 512, 15);
    let mut speed = SalsaAee::speed_variant(4, 512, 8, 15);
    for &i in &items {
        accuracy.update(i, 1);
        speed.update(i, 1);
    }
    assert!(speed.sampling_probability() <= accuracy.sampling_probability());
    assert!(speed.downsample_events() >= 8);
}

#[test]
fn aee_max_speed_is_faster_but_not_wildly_inaccurate() {
    let items = test_stream(200_000, 50_000, 1.0, 17);
    let mut max_speed = AeeCountMin::max_speed(4, 1 << 12, 8, 50_000, 19);
    let (err, truth) = on_arrival_nrmse(&mut max_speed, &items);
    assert!(err.is_finite());
    // The heaviest flow stays within 30 % despite aggressive sampling.
    let (heavy, count) = truth.top_k(1)[0];
    let rel = (max_speed.estimate(heavy) as f64 - count as f64).abs() / count as f64;
    assert!(rel < 0.3, "relative error {rel}");
}

#[test]
fn max_accuracy_downsampling_keeps_the_heaviest_flow_close() {
    let items = test_stream(200_000, 10_000, 1.2, 21);
    let mut aee = AeeCountMin::max_accuracy(4, 1 << 10, 8, 23);
    for &i in &items {
        aee.update(i, 1);
    }
    let truth = salsa_metrics::GroundTruth::from_items(&items);
    let (heavy, count) = truth.top_k(1)[0];
    let rel = (aee.estimate(heavy) as f64 - count as f64).abs() / count as f64;
    assert!(rel < 0.25, "relative error {rel}");
}
