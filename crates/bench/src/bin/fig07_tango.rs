//! Figure 7: SALSA (power-of-two merges, s = 8) vs Tango (fine-grained
//! merges, s ∈ {2,4,8}) — (a) error vs memory on the NY18-like trace,
//! (b) error vs Zipf skew (2 MB-class budgets).
//!
//! Output columns: `panel,x,variant,nrmse_mean,nrmse_ci95`.

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_workloads::TraceSpec;

fn variants(budget: usize) -> Vec<(String, SketchBuilder)> {
    let mut v: Vec<(String, SketchBuilder)> = Vec::new();
    v.push((
        "SALSA".into(),
        Box::new(move |seed| salsa_cms(budget, 8, MergeOp::Max, seed)),
    ));
    for s in [2u32, 4, 8] {
        v.push((
            format!("Tango{s}"),
            Box::new(move |seed| tango_cms(budget, s, MergeOp::Max, seed)),
        ));
    }
    v
}

fn main() {
    let args = Args::parse(1_000_000, 3);
    csv_header(&["panel", "x", "variant", "nrmse_mean", "nrmse_ci95"]);

    let budgets = if args.quick {
        memory_sweep_quick()
    } else {
        memory_sweep()
    };
    for &budget in &budgets {
        for (name, build) in variants(budget) {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let items = trace_items(TraceSpec::CaidaNy18, args.updates, seed);
                let mut sketch = build(seed);
                let (err, _) = on_arrival(sketch.as_mut(), &items);
                err.nrmse()
            });
            csv_row(&[
                "memory_ny18".into(),
                format!("{}", budget / 1024),
                name,
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }

    for skew in [0.6, 0.8, 1.0, 1.2, 1.4] {
        for (name, build) in variants(2 << 20) {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let spec = TraceSpec::Zipf {
                    universe: 1_000_000,
                    skew,
                };
                let items = trace_items(spec, args.updates, seed);
                let mut sketch = build(seed);
                let (err, _) = on_arrival(sketch.as_mut(), &items);
                err.nrmse()
            });
            csv_row(&[
                "zipf".into(),
                format!("{skew}"),
                name,
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }
}
