//! Figure 11: Count Sketch, baseline vs SALSA — on-arrival NRMSE as a
//! function of memory, on the four trace stand-ins.
//!
//! Output columns: `trace,memory_kb,algorithm,nrmse_mean,nrmse_ci95`.

use salsa_bench::*;
use salsa_workloads::TraceSpec;

fn main() {
    let args = Args::parse(2_000_000, 3);
    csv_header(&[
        "trace",
        "memory_kb",
        "algorithm",
        "nrmse_mean",
        "nrmse_ci95",
    ]);
    let budgets = if args.quick {
        memory_sweep_quick()
    } else {
        memory_sweep()
    };

    for spec in TraceSpec::real_trace_standins() {
        for &budget in &budgets {
            let algorithms: Vec<(String, SketchBuilder)> = vec![
                (
                    "Baseline CS".into(),
                    Box::new(move |seed| baseline_cs(budget, seed)) as _,
                ),
                (
                    "SALSA CS".into(),
                    Box::new(move |seed| salsa_cs(budget, 8, seed)) as _,
                ),
            ];
            for (name, build) in algorithms {
                let summary = run_trials(args.trials, args.seed, |seed| {
                    let items = trace_items(spec, args.updates, seed);
                    let mut sketch = build(seed);
                    let (err, _) = on_arrival(sketch.as_mut(), &items);
                    err.nrmse()
                });
                csv_row(&[
                    spec.name(),
                    format!("{}", budget / 1024),
                    name,
                    fmt(summary.mean),
                    fmt(summary.ci95),
                ]);
            }
        }
    }
}
