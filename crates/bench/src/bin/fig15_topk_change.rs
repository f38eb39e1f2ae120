//! Figure 15: Count Sketch tasks — (a) top-k accuracy vs k on the NY18-like
//! trace at 640 KB, (b) top-1024 accuracy vs Zipf skew at 640 KB,
//! (c) change-detection NRMSE vs memory on the NY18-like trace,
//! (d) change-detection NRMSE vs skew at 2.5 MB.
//!
//! Change detection sketches the two halves `A` and `B` of the stream with
//! the same hash functions, computes the difference sketch `s(A\B)` and
//! evaluates the NRMSE of the per-item frequency-change estimates over the
//! items appearing in either half.
//!
//! Output columns: `panel,x,algorithm,value_mean,value_ci95`.

use salsa_bench::*;
use salsa_metrics::Summary;
use salsa_sketches::prelude::*;
use salsa_workloads::{stream, TraceSpec};

/// Change-detection trial: returns the NRMSE of the difference sketch.
fn change_detection_trial(salsa: bool, budget: usize, items: &[u64], seed: u64) -> f64 {
    let (first, second) = stream::split_halves(items);
    let exact = stream::exact_changes(first, second);
    let normalizer = items.len() as u64 / 2;
    if salsa {
        let w = width_for_budget_bits(budget, CS_DEPTH, 8, 1.0);
        let mut sa = CountSketch::salsa(CS_DEPTH, w, 8, seed);
        let mut sb = CountSketch::salsa(CS_DEPTH, w, 8, seed);
        for &i in first {
            sa.update(i, 1);
        }
        for &i in second {
            sb.update(i, 1);
        }
        sb.subtract(&sa); // s(B \ A): positive change means growth in B
        salsa_metrics::error::change_detection_nrmse(&exact, |item| sb.estimate(item), normalizer)
    } else {
        let w = width_for_budget(budget, CS_DEPTH, 32);
        let mut sa = CountSketch::baseline(CS_DEPTH, w, 32, seed);
        let mut sb = CountSketch::baseline(CS_DEPTH, w, 32, seed);
        for &i in first {
            sa.update(i, 1);
        }
        for &i in second {
            sb.update(i, 1);
        }
        sb.subtract(&sa);
        salsa_metrics::error::change_detection_nrmse(&exact, |item| sb.estimate(item), normalizer)
    }
}

fn main() {
    let args = Args::parse(1_000_000, 3);
    let topk_budget = 640 * 1024;
    csv_header(&["panel", "x", "algorithm", "value_mean", "value_ci95"]);

    // (a) Top-k accuracy vs k, NY18-like, 640 KB.
    let ks = [16usize, 32, 64, 128, 256, 512, 1024];
    for &k in &ks {
        for (name, salsa) in [("Baseline", false), ("SALSA", true)] {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let items = trace_items(TraceSpec::CaidaNy18, args.updates, seed);
                let mut sketch = if salsa {
                    salsa_cs(topk_budget, 8, seed)
                } else {
                    baseline_cs(topk_budget, seed)
                };
                topk_accuracy_run(sketch.as_mut(), &items, k)
            });
            csv_row(&[
                "topk_vs_k_ny18_640kb".into(),
                format!("{k}"),
                name.into(),
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }

    // (b) Top-1024 accuracy vs skew, 640 KB.
    for skew in [0.6, 0.8, 1.0, 1.2, 1.4] {
        let spec = TraceSpec::Zipf {
            universe: 1_000_000,
            skew,
        };
        for (name, salsa) in [("Baseline", false), ("SALSA", true)] {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let items = trace_items(spec, args.updates, seed);
                let mut sketch = if salsa {
                    salsa_cs(topk_budget, 8, seed)
                } else {
                    baseline_cs(topk_budget, seed)
                };
                topk_accuracy_run(sketch.as_mut(), &items, 1024)
            });
            csv_row(&[
                "top1024_vs_skew_640kb".into(),
                format!("{skew}"),
                name.into(),
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }

    // (c) Change detection NRMSE vs memory, NY18-like.
    let budgets = if args.quick {
        memory_sweep_quick()
    } else {
        memory_sweep()
    };
    for &budget in &budgets {
        for (name, salsa) in [("Baseline", false), ("SALSA", true)] {
            let mut values = Vec::new();
            for t in 0..args.trials.max(1) {
                let seed = args.seed.wrapping_add(t as u64 * 613);
                let items = trace_items(TraceSpec::CaidaNy18, args.updates, seed);
                values.push(change_detection_trial(salsa, budget, &items, seed));
            }
            let s = Summary::of(&values);
            csv_row(&[
                "change_vs_memory_ny18".into(),
                format!("{}", budget / 1024),
                name.into(),
                fmt(s.mean),
                fmt(s.ci95),
            ]);
        }
    }

    // (d) Change detection NRMSE vs skew at 2.5 MB.
    for skew in [0.6, 0.8, 1.0, 1.2, 1.4] {
        let spec = TraceSpec::Zipf {
            universe: 1_000_000,
            skew,
        };
        for (name, salsa) in [("Baseline", false), ("SALSA", true)] {
            let mut values = Vec::new();
            for t in 0..args.trials.max(1) {
                let seed = args.seed.wrapping_add(t as u64 * 127);
                let items = trace_items(spec, args.updates, seed);
                values.push(change_detection_trial(salsa, 5 << 19, &items, seed));
            }
            let s = Summary::of(&values);
            csv_row(&[
                "change_vs_skew_2.5mb".into(),
                format!("{skew}"),
                name.into(),
                fmt(s.mean),
                fmt(s.ci95),
            ]);
        }
    }
}
