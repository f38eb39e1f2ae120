//! Universal monitoring: estimate entropy, frequency moments and the distinct
//! count of a stream from a single SALSA UnivMon sketch — the "one sketch to
//! rule them all" workload of Fig. 12.
//!
//! Run with: `cargo run --release -p salsa-examples --bin univmon_entropy`

use salsa_examples::{human_bytes, percent};
use salsa_metrics::{relative_error, GroundTruth};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

fn main() {
    let trace = TraceSpec::YouTube.generate(1_000_000, 5);
    let items = trace.items();
    let truth = GroundTruth::from_items(items);

    // The paper's UnivMon configuration: 16 Count-Sketch levels, d = 5, and a
    // heap of 100 heavy hitters per level — here with SALSA (8-bit) counters.
    let mut univmon = UnivMon::salsa(16, 5, 1 << 11, 8, 100, 77);
    for &item in items {
        univmon.update(item, 1);
    }

    println!("== SALSA UnivMon ==");
    println!(
        "stream: {} views over {} videos; sketch: {}",
        items.len(),
        truth.distinct(),
        human_bytes(univmon.size_bytes())
    );
    println!();

    let entropy_true = truth.entropy();
    // `None` means the G-sum estimate failed (came out negative): the
    // sketch is too small for this stream.
    match univmon.entropy() {
        Some(entropy_est) => println!(
            "entropy:        estimated {entropy_est:.4} bits, exact {entropy_true:.4} bits (error {})",
            percent(relative_error(entropy_est, entropy_true))
        ),
        None => println!("entropy:        estimate failed, exact {entropy_true:.4} bits"),
    }

    for p in [0.5, 1.0, 1.5, 2.0] {
        let est = univmon.fp_moment(p);
        let exact = truth.moment(p);
        println!(
            "F_{p}:           estimated {est:.3e}, exact {exact:.3e} (error {})",
            percent(relative_error(est, exact))
        );
    }

    let f0_est = univmon.distinct();
    println!(
        "distinct count: estimated {f0_est:.0}, exact {} (error {})",
        truth.distinct(),
        percent(relative_error(f0_est, truth.distinct() as f64))
    );
}
