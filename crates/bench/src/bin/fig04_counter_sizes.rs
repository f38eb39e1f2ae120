//! Figure 4: accuracy of SALSA-s (s ∈ {2,4,8,16}) vs the 32-bit baseline as a
//! function of Zipf skew, for the Count-Min Sketch (2 MB) and the Count
//! Sketch (2.5 MB).
//!
//! Output columns: `sketch,variant,skew,nrmse_mean,nrmse_ci95`.

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_workloads::TraceSpec;

fn main() {
    let args = Args::parse(1_000_000, 3);
    let skews = [0.6, 0.8, 1.0, 1.2, 1.4];
    let cms_budget = 2 << 20;
    let cs_budget = 5 << 19; // 2.5 MB
    let universe = 1_000_000;

    csv_header(&["sketch", "variant", "skew", "nrmse_mean", "nrmse_ci95"]);
    for &skew in &skews {
        let spec = TraceSpec::Zipf { universe, skew };
        // --- Count-Min Sketch @ 2 MB -----------------------------------
        let mut cms_variants: Vec<(String, SketchBuilder)> = Vec::new();
        cms_variants.push((
            "Baseline".into(),
            Box::new(move |seed| baseline_cms(cms_budget, seed)),
        ));
        for s in [2u32, 4, 8, 16] {
            cms_variants.push((
                format!("SALSA{s}"),
                Box::new(move |seed| salsa_cms(cms_budget, s, MergeOp::Max, seed)),
            ));
        }
        for (variant, build) in &cms_variants {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let items = trace_items(spec, args.updates, seed);
                let mut sketch = build(seed);
                let (err, _) = on_arrival(sketch.as_mut(), &items);
                err.nrmse()
            });
            csv_row(&[
                "CMS".into(),
                variant.clone(),
                format!("{skew}"),
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
        // --- Count Sketch @ 2.5 MB --------------------------------------
        let mut cs_variants: Vec<(String, SketchBuilder)> = Vec::new();
        cs_variants.push((
            "Baseline".into(),
            Box::new(move |seed| baseline_cs(cs_budget, seed)),
        ));
        for s in [2u32, 4, 8, 16] {
            cs_variants.push((
                format!("SALSA{s}"),
                Box::new(move |seed| salsa_cs(cs_budget, s, seed)),
            ));
        }
        for (variant, build) in &cs_variants {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let items = trace_items(spec, args.updates, seed);
                let mut sketch = build(seed);
                let (err, _) = on_arrival(sketch.as_mut(), &items);
                err.nrmse()
            });
            csv_row(&[
                "CS".into(),
                variant.clone(),
                format!("{skew}"),
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }
}
