//! Evaluation loops shared by the experiment binaries.

use salsa_metrics::{
    average_errors, AverageErrors, GroundTruth, OnArrivalError, Summary, Throughput,
};
use salsa_sketches::estimator::FrequencyEstimator;
use salsa_sketches::heavy_hitters::TopK;
use salsa_workloads::TraceSpec;

/// Runs the on-arrival evaluation of Section VI: feeds every item to the
/// sketch and records, on each arrival, the error of the sketch's estimate of
/// that item's frequency so far.  Returns the accumulated error statistics
/// and the update+query throughput in million operations per second.
pub fn on_arrival(sketch: &mut dyn FrequencyEstimator, items: &[u64]) -> (OnArrivalError, f64) {
    let mut truth = GroundTruth::new();
    let mut err = OnArrivalError::new();
    let mut clock = Throughput::start();
    for &item in items {
        sketch.update(item, 1);
        let estimate = sketch.estimate(item);
        let exact = truth.record(item);
        err.record(estimate, exact as i64);
    }
    clock.add_ops(items.len() as u64);
    let mops = clock.mops();
    (err, mops)
}

/// Measures pure update throughput (no per-arrival queries), which is what
/// the speed plots of Figs. 8 and 10 report.
pub fn update_throughput(sketch: &mut dyn FrequencyEstimator, items: &[u64]) -> f64 {
    let mut clock = Throughput::start();
    for &item in items {
        sketch.update(item, 1);
    }
    clock.add_ops(items.len() as u64);
    clock.mops()
}

/// Feeds the whole stream and then computes AAE/ARE over every item with
/// frequency at least `phi·N` (use `phi = 0` for "all items", the standard
/// AAE/ARE of Figs. 8e–8h).
pub fn final_errors(sketch: &mut dyn FrequencyEstimator, items: &[u64], phi: f64) -> AverageErrors {
    let truth = GroundTruth::from_items(items);
    for &item in items {
        sketch.update(item, 1);
    }
    let pairs = truth
        .heavy_hitters(phi)
        .into_iter()
        .map(|(item, count)| (count, sketch.estimate(item).max(0) as u64));
    average_errors(pairs)
}

/// Runs the on-arrival top-k workflow (query each arriving item, keep the `k`
/// largest estimates in a heap) and returns the fraction of the true top-k
/// that was found — the accuracy metric of Fig. 15a/b.
pub fn topk_accuracy_run(sketch: &mut dyn FrequencyEstimator, items: &[u64], k: usize) -> f64 {
    let mut heap = TopK::new(k);
    for &item in items {
        sketch.update(item, 1);
        heap.offer(item, sketch.estimate(item).max(0) as u64);
    }
    let truth = GroundTruth::from_items(items);
    let true_topk: Vec<u64> = truth.top_k(k).into_iter().map(|(i, _)| i).collect();
    let reported: Vec<u64> = heap.items().into_iter().map(|(i, _)| i).collect();
    salsa_metrics::topk_accuracy(&reported, &true_topk)
}

/// Runs `trials` trials of `run` (each receiving a distinct seed derived from
/// `seed`) and summarizes the resulting measurements.
pub fn run_trials(trials: usize, seed: u64, mut run: impl FnMut(u64) -> f64) -> Summary {
    let values: Vec<f64> = (0..trials.max(1))
        .map(|t| {
            run(seed
                .wrapping_add(t as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
        .collect();
    Summary::of(&values)
}

/// Generates a trace for `spec` of length `updates` with the given seed and
/// returns its items — a thin convenience wrapper so experiment binaries
/// stay short.
pub fn trace_items(spec: TraceSpec, updates: usize, seed: u64) -> Vec<u64> {
    spec.generate(updates, seed).items().to_vec()
}

/// Prints a CSV header.
pub fn csv_header(columns: &[&str]) {
    println!("{}", columns.join(","));
}

/// Prints one CSV row.
pub fn csv_row(fields: &[String]) {
    println!("{}", fields.join(","));
}

/// Formats a float compactly for CSV output.
pub fn fmt(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 0.01 && value.abs() < 1e6 {
        format!("{value:.6}")
    } else {
        format!("{value:.6e}")
    }
}

/// Clamps a non-finite rate to 0.0 so JSON perf snapshots stay parseable
/// no matter what the clocks measured.
pub fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::*;
    use salsa_core::traits::MergeOp;

    #[test]
    fn on_arrival_loop_produces_finite_errors() {
        let items = trace_items(
            TraceSpec::Zipf {
                universe: 1_000,
                skew: 1.0,
            },
            20_000,
            1,
        );
        let mut sketch = salsa_cms(64 * 1024, 8, MergeOp::Max, 1);
        let (err, mops) = on_arrival(sketch.as_mut(), &items);
        assert_eq!(err.samples(), 20_000);
        assert!(err.nrmse().is_finite());
        assert!(mops > 0.0);
    }

    #[test]
    fn salsa_beats_baseline_on_arrival_at_equal_memory() {
        // The core claim of the paper, as a harness-level smoke test.
        let items = trace_items(
            TraceSpec::Zipf {
                universe: 100_000,
                skew: 1.0,
            },
            200_000,
            3,
        );
        let budget = 32 * 1024;
        let mut base = baseline_cms(budget, 7);
        let mut salsa = salsa_cms(budget, 8, MergeOp::Max, 7);
        let (base_err, _) = on_arrival(base.as_mut(), &items);
        let (salsa_err, _) = on_arrival(salsa.as_mut(), &items);
        assert!(
            salsa_err.nrmse() < base_err.nrmse(),
            "SALSA {} should beat baseline {}",
            salsa_err.nrmse(),
            base_err.nrmse()
        );
    }

    #[test]
    fn final_errors_with_threshold_only_counts_heavy_hitters() {
        let items = trace_items(
            TraceSpec::Zipf {
                universe: 10_000,
                skew: 1.2,
            },
            50_000,
            5,
        );
        let mut sketch = baseline_cms(256 * 1024, 3);
        let all = final_errors(sketch.as_mut(), &items, 0.0);
        let mut sketch2 = baseline_cms(256 * 1024, 3);
        let heavy = final_errors(sketch2.as_mut(), &items, 1e-3);
        // Relative error on heavy hitters is much smaller than on the tail.
        assert!(heavy.are <= all.are);
    }

    #[test]
    fn topk_run_finds_most_of_the_top() {
        let items = trace_items(
            TraceSpec::Zipf {
                universe: 10_000,
                skew: 1.1,
            },
            100_000,
            9,
        );
        let mut sketch = salsa_cs(256 * 1024, 8, 9);
        let acc = topk_accuracy_run(sketch.as_mut(), &items, 32);
        assert!(acc > 0.8, "top-k accuracy {acc}");
    }

    #[test]
    fn run_trials_summarizes() {
        let summary = run_trials(5, 1, |seed| (seed % 7) as f64);
        assert_eq!(summary.n, 5);
        assert!(summary.mean.is_finite());
    }

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(1.5e-7).contains('e'));
        assert!(!fmt(3.25).contains('e'));
    }
}
