//! Figure 16: integrating estimators — Baseline CMS, AEE MaxAccuracy, AEE
//! MaxSpeed, SALSA, SALSA-AEE and SALSA-AEE10, on the NY18-like and
//! CH16-like traces: on-arrival NRMSE (a,b) and update throughput (c,d) as a
//! function of memory.
//!
//! Output columns: `trace,memory_kb,algorithm,nrmse_mean,nrmse_ci95,throughput_mops`.

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_workloads::TraceSpec;

fn algorithms(budget: usize) -> Vec<(String, SketchBuilder)> {
    vec![
        (
            "Baseline".into(),
            Box::new(move |seed| baseline_cms(budget, seed)) as _,
        ),
        (
            "AEE MaxAccuracy".into(),
            Box::new(move |seed| aee_max_accuracy(budget, seed)) as _,
        ),
        (
            "AEE MaxSpeed".into(),
            Box::new(move |seed| aee_max_speed(budget, seed)) as _,
        ),
        (
            "SALSA".into(),
            Box::new(move |seed| salsa_cms(budget, 8, MergeOp::Max, seed)) as _,
        ),
        (
            "SALSA AEE".into(),
            Box::new(move |seed| salsa_aee(budget, seed)) as _,
        ),
        (
            "SALSA AEE10".into(),
            Box::new(move |seed| salsa_aee_d(budget, 10, seed)) as _,
        ),
    ]
}

fn main() {
    let args = Args::parse(2_000_000, 3);
    csv_header(&[
        "trace",
        "memory_kb",
        "algorithm",
        "nrmse_mean",
        "nrmse_ci95",
        "throughput_mops",
    ]);
    let budgets = if args.quick {
        memory_sweep_quick()
    } else {
        memory_sweep()
    };

    for spec in [TraceSpec::CaidaNy18, TraceSpec::CaidaCh16] {
        for &budget in &budgets {
            for (name, build) in algorithms(budget) {
                let summary = run_trials(args.trials, args.seed, |seed| {
                    let items = trace_items(spec, args.updates, seed);
                    let mut sketch = build(seed);
                    let (err, _) = on_arrival(sketch.as_mut(), &items);
                    err.nrmse()
                });
                let items = trace_items(spec, args.updates, args.seed);
                let mut sketch = build(args.seed);
                let mops = update_throughput(sketch.as_mut(), &items);
                csv_row(&[
                    spec.name(),
                    format!("{}", budget / 1024),
                    name,
                    fmt(summary.mean),
                    fmt(summary.ci95),
                    fmt(mops),
                ]);
            }
        }
    }
}
