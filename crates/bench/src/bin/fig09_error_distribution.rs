//! Figure 9: per-flow error distributions of Baseline, Pyramid, ABC and
//! SALSA CMS at 2 MB.  As in the paper, one random element is sampled per
//! distinct true frequency to reduce clutter; the output is a scatter of
//! (true frequency, estimation error) points per algorithm.
//!
//! Output columns: `trace,algorithm,true_frequency,error`.

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_metrics::GroundTruth;
use salsa_workloads::TraceSpec;

fn main() {
    let args = Args::parse(2_000_000, 1);
    let budget = 2 << 20;
    csv_header(&["trace", "algorithm", "true_frequency", "error"]);

    for spec in [TraceSpec::CaidaNy18, TraceSpec::CaidaCh16] {
        let items = trace_items(spec, args.updates, args.seed);
        let truth = GroundTruth::from_items(&items);

        // One representative item per distinct frequency (the first seen).
        let mut representative: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        for (item, count) in truth.iter() {
            representative.entry(count).or_insert(item);
        }

        let algorithms: Vec<(String, SketchBuilder)> = vec![
            (
                "Baseline".into(),
                Box::new(move |seed| baseline_cms(budget, seed)) as _,
            ),
            (
                "Pyramid".into(),
                Box::new(move |seed| pyramid_cms(budget, seed)) as _,
            ),
            (
                "ABC".into(),
                Box::new(move |seed| abc_cms(budget, seed)) as _,
            ),
            (
                "SALSA".into(),
                Box::new(move |seed| salsa_cms(budget, 8, MergeOp::Max, seed)) as _,
            ),
        ];
        for (name, build) in algorithms {
            let mut sketch = build(args.seed);
            for &item in &items {
                sketch.update(item, 1);
            }
            for (&count, &item) in &representative {
                let error = sketch.estimate(item) - count as i64;
                csv_row(&[
                    spec.name(),
                    name.clone(),
                    format!("{count}"),
                    format!("{error}"),
                ]);
            }
        }
    }
}
