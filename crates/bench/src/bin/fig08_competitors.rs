//! Figure 8: SALSA vs Pyramid Sketch vs ABC vs the 32-bit baseline (all
//! Count-Min based), on the NY18-like and CH16-like traces — update
//! throughput (a,b), on-arrival NRMSE (c,d), AAE (e,f) and ARE (g,h), all as
//! a function of memory.
//!
//! Output columns:
//! `trace,memory_kb,algorithm,throughput_mops,nrmse,aae,are`.

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
            "SALSA".into(),
            Box::new(move |seed| salsa_cms(budget, 8, MergeOp::Max, seed)) as _,
        ),
        (
            "Pyramid".into(),
            Box::new(move |seed| pyramid_cms(budget, seed)) as _,
        ),
        (
            "ABC".into(),
            Box::new(move |seed| abc_cms(budget, seed)) as _,
        ),
    ]
}

fn main() {
    let args = Args::parse(2_000_000, 3);
    csv_header(&[
        "trace",
        "memory_kb",
        "algorithm",
        "throughput_mops",
        "nrmse",
        "aae",
        "are",
    ]);
    let budgets = if args.quick {
        memory_sweep_quick()
    } else {
        memory_sweep()
    };

    for spec in [TraceSpec::CaidaNy18, TraceSpec::CaidaCh16] {
        for &budget in &budgets {
            for (name, build) in algorithms(budget) {
                let mut nrmse = Vec::new();
                let mut mops = Vec::new();
                let mut aae = Vec::new();
                let mut are = Vec::new();
                for t in 0..args.trials.max(1) {
                    let seed = args.seed.wrapping_add(t as u64 * 7919);
                    let items = trace_items(spec, args.updates, seed);
                    // On-arrival error pass.
                    let mut sketch = build(seed);
                    let (err, _) = on_arrival(sketch.as_mut(), &items);
                    nrmse.push(err.nrmse());
                    // Pure-update throughput pass (no queries).
                    let mut sketch = build(seed);
                    mops.push(update_throughput(sketch.as_mut(), &items));
                    // Final AAE/ARE over all items with non-zero frequency.
                    let mut sketch = build(seed);
                    let e = final_errors(sketch.as_mut(), &items, 0.0);
                    aae.push(e.aae);
                    are.push(e.are);
                }
                let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
                csv_row(&[
                    spec.name(),
                    format!("{}", budget / 1024),
                    name,
                    fmt(mean(&mops)),
                    fmt(mean(&nrmse)),
                    fmt(mean(&aae)),
                    fmt(mean(&are)),
                ]);
            }
        }
    }
}
