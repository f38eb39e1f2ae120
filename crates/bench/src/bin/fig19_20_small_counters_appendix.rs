//! Figures 19 & 20 (Appendix B): heavy-hitter size estimation with small
//! fixed counters and the trivial "0" estimator (always answer 0) — ARE
//! (Fig. 19) and AAE (Fig. 20) as a function of the heavy-hitter threshold φ
//! at 2 MB on a Zipf(1.0) trace.  The leftmost point (φ = 10⁻⁸) corresponds
//! to the plain ARE/AAE metrics over all items, where answering 0 for
//! everything "wins" — the paper's argument for preferring NRMSE.
//!
//! Output columns: `metric,phi,algorithm,value_mean,value_ci95`.

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_metrics::GroundTruth;
use salsa_workloads::TraceSpec;

fn main() {
    let args = Args::parse(2_000_000, 3);
    let budget = 2 << 20;
    let spec = TraceSpec::Zipf {
        universe: 1_000_000,
        skew: 1.0,
    };
    let phis = [1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
    csv_header(&["metric", "phi", "algorithm", "value_mean", "value_ci95"]);

    let algorithms: Vec<(String, Option<u32>)> = vec![
        ("0".into(), None), // the trivial always-zero estimator
        ("SALSA".into(), Some(0)),
        ("CMS 4-bit".into(), Some(4)),
        ("CMS 8-bit".into(), Some(8)),
        ("CMS 16-bit".into(), Some(16)),
        ("CMS 32-bit".into(), Some(32)),
    ];

    for &phi in &phis {
        for (name, kind) in &algorithms {
            let mut aae_vals = Vec::new();
            let mut are_vals = Vec::new();
            for t in 0..args.trials.max(1) {
                let seed = args.seed.wrapping_add(t as u64 * 911);
                let items = trace_items(spec, args.updates, seed);
                let truth = GroundTruth::from_items(&items);
                let estimates: Box<dyn Fn(u64) -> u64> = match kind {
                    None => Box::new(|_| 0u64),
                    Some(0) => {
                        let mut s = salsa_cms(budget, 8, MergeOp::Max, seed);
                        for &i in &items {
                            s.update(i, 1);
                        }
                        Box::new(move |item| s.estimate(item).max(0) as u64)
                    }
                    Some(bits) => {
                        let mut s = small_counter_cms(budget, *bits, seed);
                        for &i in &items {
                            s.update(i, 1);
                        }
                        Box::new(move |item| s.estimate(item).max(0) as u64)
                    }
                };
                let pairs = truth
                    .heavy_hitters(phi)
                    .into_iter()
                    .map(|(item, count)| (count, estimates(item)));
                let e = salsa_metrics::average_errors(pairs);
                aae_vals.push(e.aae);
                are_vals.push(e.are);
            }
            let aae = salsa_metrics::Summary::of(&aae_vals);
            let are = salsa_metrics::Summary::of(&are_vals);
            csv_row(&[
                "ARE".into(),
                format!("{phi:e}"),
                name.clone(),
                fmt(are.mean),
                fmt(are.ci95),
            ]);
            csv_row(&[
                "AAE".into(),
                format!("{phi:e}"),
                name.clone(),
                fmt(aae.mean),
                fmt(aae.ci95),
            ]);
        }
    }
}
