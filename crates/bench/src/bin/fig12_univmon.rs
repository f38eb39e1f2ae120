//! Figure 12: SALSA UnivMon vs baseline UnivMon on the NY18-like trace —
//! (a) entropy-estimation ARE vs memory, (b) Fp-moment ARE vs p at a 400 KB
//! budget.  SALSA variants use s ∈ {2,4,8}-bit base counters, as in the
//! paper.
//!
//! Output columns: `panel,x,variant,are_mean,are_ci95`.

use salsa_bench::*;
use salsa_metrics::{relative_error, GroundTruth};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

/// UnivMon configuration from the paper: 16 CS instances with d = 5 and a
/// heap of 100 per level.
const LEVELS: usize = 16;
const DEPTH: usize = 5;
const HEAP: usize = 100;

enum AnyUnivMon {
    Baseline(UnivMon<FixedSignedRow>),
    Salsa(UnivMon<SimpleSalsaSignedRow>),
}

impl AnyUnivMon {
    fn update(&mut self, item: u64, value: u64) {
        match self {
            AnyUnivMon::Baseline(u) => u.update(item, value),
            AnyUnivMon::Salsa(u) => u.update(item, value),
        }
    }
    /// A failed (negative) estimate reads 0.0, the value this figure has
    /// always plotted for it.
    fn entropy(&self) -> f64 {
        match self {
            AnyUnivMon::Baseline(u) => u.entropy(),
            AnyUnivMon::Salsa(u) => u.entropy(),
        }
        .unwrap_or(0.0)
    }
    fn fp_moment(&self, p: f64) -> f64 {
        match self {
            AnyUnivMon::Baseline(u) => u.fp_moment(p),
            AnyUnivMon::Salsa(u) => u.fp_moment(p),
        }
    }
}

/// Width of each per-level Count Sketch for a total memory budget.
fn level_width(total_budget: usize, bits_per_counter: f64) -> usize {
    let per_level = total_budget as f64 * 8.0 / LEVELS as f64;
    let mut w = 2usize;
    while (w * 2) as f64 * DEPTH as f64 * bits_per_counter <= per_level {
        w *= 2;
    }
    w
}

fn build(variant: &str, budget: usize, seed: u64) -> AnyUnivMon {
    match variant {
        "Baseline" => {
            let w = level_width(budget, 32.0);
            AnyUnivMon::Baseline(UnivMon::baseline(LEVELS, DEPTH, w, 32, HEAP, seed))
        }
        "SALSA2" => {
            let w = level_width(budget, 3.0);
            AnyUnivMon::Salsa(UnivMon::salsa(LEVELS, DEPTH, w, 2, HEAP, seed))
        }
        "SALSA4" => {
            let w = level_width(budget, 5.0);
            AnyUnivMon::Salsa(UnivMon::salsa(LEVELS, DEPTH, w, 4, HEAP, seed))
        }
        "SALSA8" => {
            let w = level_width(budget, 9.0);
            AnyUnivMon::Salsa(UnivMon::salsa(LEVELS, DEPTH, w, 8, HEAP, seed))
        }
        _ => unreachable!("unknown variant"),
    }
}

fn main() {
    let args = Args::parse(1_000_000, 3);
    let variants = ["Baseline", "SALSA2", "SALSA4", "SALSA8"];
    csv_header(&["panel", "x", "variant", "are_mean", "are_ci95"]);

    // (a) Entropy ARE vs memory.
    let budgets: Vec<usize> = if args.quick {
        vec![64 * 1024, 400 * 1024]
    } else {
        vec![32, 64, 128, 256, 400, 512, 1024]
            .into_iter()
            .map(|kb| kb * 1024)
            .collect()
    };
    for &budget in &budgets {
        for variant in variants {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let items = trace_items(TraceSpec::CaidaNy18, args.updates, seed);
                let truth = GroundTruth::from_items(&items);
                let mut um = build(variant, budget, seed);
                for &item in &items {
                    um.update(item, 1);
                }
                relative_error(um.entropy(), truth.entropy())
            });
            csv_row(&[
                "entropy_vs_memory".into(),
                format!("{}", budget / 1024),
                variant.into(),
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }

    // (b) Fp-moment ARE vs p at 400 KB.
    let ps = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0];
    for &p in &ps {
        for variant in variants {
            let summary = run_trials(args.trials, args.seed, |seed| {
                let items = trace_items(TraceSpec::CaidaNy18, args.updates, seed);
                let truth = GroundTruth::from_items(&items);
                let mut um = build(variant, 400 * 1024, seed);
                for &item in &items {
                    um.update(item, 1);
                }
                relative_error(um.fp_moment(p), truth.moment(p))
            });
            csv_row(&[
                "moment_vs_p_400kb".into(),
                format!("{p}"),
                variant.into(),
                fmt(summary.mean),
                fmt(summary.ci95),
            ]);
        }
    }
}
