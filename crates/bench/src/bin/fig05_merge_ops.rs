//! Figure 5: SALSA CMS with sum-merge vs max-merge — (a) error vs memory on
//! the NY18-like trace, (b) error vs Zipf skew at 2 MB.
//!
//! Output columns: `panel,x,merge,nrmse_mean,nrmse_ci95`.

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_workloads::TraceSpec;

fn main() {
    let args = Args::parse(1_000_000, 3);
    csv_header(&["panel", "x", "merge", "nrmse_mean", "nrmse_ci95"]);

    // (a) vs memory, NY18-like trace.
    let budgets = if args.quick {
        memory_sweep_quick()
    } else {
        memory_sweep()
    };
    for &budget in &budgets {
        for (name, op) in [("Max", MergeOp::Max), ("Sum", MergeOp::Sum)] {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let items = trace_items(TraceSpec::CaidaNy18, args.updates, seed);
                let mut sketch = salsa_cms(budget, 8, op, seed);
                let (err, _) = on_arrival(sketch.as_mut(), &items);
                err.nrmse()
            });
            csv_row(&[
                "memory_ny18".into(),
                format!("{}", budget / 1024),
                name.into(),
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }

    // (b) vs skew, 2 MB.
    for skew in [0.6, 0.8, 1.0, 1.2, 1.4] {
        for (name, op) in [("Max", MergeOp::Max), ("Sum", MergeOp::Sum)] {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let spec = TraceSpec::Zipf {
                    universe: 1_000_000,
                    skew,
                };
                let items = trace_items(spec, args.updates, seed);
                let mut sketch = salsa_cms(2 << 20, 8, op, seed);
                let (err, _) = on_arrival(sketch.as_mut(), &items);
                err.nrmse()
            });
            csv_row(&[
                "zipf_2mb".into(),
                format!("{skew}"),
                name.into(),
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }
}
