//! Figure 6: can one simply use small fixed-width counters?  SALSA CMS vs
//! CMS with 8/16/32-bit saturating counters (2 MB, Zipf skew 1.0) —
//! (a) heavy-hitter ARE as a function of the threshold φ, (b) ARE at
//! φ = 10⁻⁴ as a function of stream length.
//!
//! Output columns: `panel,x,variant,are_mean,are_ci95`.

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_workloads::TraceSpec;

fn variants(budget: usize) -> Vec<(String, SketchBuilder)> {
    let mut v: Vec<(String, SketchBuilder)> = Vec::new();
    v.push((
        "SALSA".into(),
        Box::new(move |seed| salsa_cms(budget, 8, MergeOp::Max, seed)),
    ));
    for bits in [8u32, 16, 32] {
        v.push((
            format!("CMS {bits}-bit"),
            Box::new(move |seed| small_counter_cms(budget, bits, seed)),
        ));
    }
    v
}

fn main() {
    let args = Args::parse(2_000_000, 3);
    let budget = 2 << 20;
    let spec = TraceSpec::Zipf {
        universe: 1_000_000,
        skew: 1.0,
    };
    csv_header(&["panel", "x", "variant", "are_mean", "are_ci95"]);

    // (a) ARE of items above threshold φ, varying φ.
    let phis = [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
    for &phi in &phis {
        for (name, build) in variants(budget) {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let items = trace_items(spec, args.updates, seed);
                let mut sketch = build(seed);
                final_errors(sketch.as_mut(), &items, phi).are
            });
            csv_row(&[
                "vs_threshold".into(),
                format!("{phi:e}"),
                name,
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }

    // (b) ARE at φ = 10⁻⁴, varying stream length.
    let lengths = [10_000usize, 100_000, 1_000_000, args.updates.max(2_000_000)];
    for &len in &lengths {
        for (name, build) in variants(budget) {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let items = trace_items(spec, len, seed);
                let mut sketch = build(seed);
                final_errors(sketch.as_mut(), &items, 1e-4).are
            });
            csv_row(&[
                "vs_length".into(),
                format!("{len}"),
                name,
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }
}
