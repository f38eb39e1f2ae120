//! Figure 10: L1 sketches (Count-Min and Conservative Update, baseline vs
//! SALSA) — on-arrival NRMSE (a–d) and update throughput (e–h) as a function
//! of memory, on the four trace stand-ins.
//!
//! Output columns: `trace,memory_kb,algorithm,nrmse_mean,nrmse_ci95,throughput_mops`.

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_workloads::TraceSpec;

fn algorithms(budget: usize) -> Vec<(String, SketchBuilder)> {
    vec![
        (
            "Baseline CMS".into(),
            Box::new(move |seed| baseline_cms(budget, seed)) as _,
        ),
        (
            "Baseline CUS".into(),
            Box::new(move |seed| baseline_cus(budget, seed)) as _,
        ),
        (
            "SALSA CMS".into(),
            Box::new(move |seed| salsa_cms(budget, 8, MergeOp::Max, seed)) as _,
        ),
        (
            "SALSA CUS".into(),
            Box::new(move |seed| salsa_cus(budget, 8, seed)) as _,
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

    for spec in TraceSpec::real_trace_standins() {
        for &budget in &budgets {
            for (name, build) in algorithms(budget) {
                let summary = run_trials(args.trials, args.seed, |seed| {
                    let items = trace_items(spec, args.updates, seed);
                    let mut sketch = build(seed);
                    let (err, _) = on_arrival(sketch.as_mut(), &items);
                    err.nrmse()
                });
                // Separate pure-update throughput measurement (single trial).
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
