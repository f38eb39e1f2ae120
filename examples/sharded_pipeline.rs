//! Sharded ingestion with `salsa-pipeline`: split a heavy stream across
//! worker shards, then query one merged global view.
//!
//! ```text
//! cargo run --release -p salsa-examples --example sharded_pipeline
//! ```
//!
//! The demo streams a skewed (Zipf) trace through a 4-shard pipeline, which
//! routes each key to the one shard that owns it, and shows that with
//! sum-merge rows the merged view is *identical* to a single sketch built
//! unsharded, while each shard only had to absorb part of the load.

use salsa_examples::human_bytes;
use salsa_metrics::mops_for;
use salsa_pipeline::{run_sharded, PipelineConfig};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

fn main() {
    let updates = 400_000;
    let universe = 50_000;
    let items = TraceSpec::Zipf {
        universe,
        skew: 1.0,
    }
    .generate(updates, 99)
    .items()
    .to_vec();

    // All shards (and the reference sketch) share seed and shape — that is
    // what makes their counters combinable.
    let make = |_shard: usize| CountMin::salsa(4, 1 << 15, 8, MergeOp::Sum, 7);

    let mut single = make(0);
    single.update_batch(&items);
    println!(
        "stream: {updates} updates over {universe} keys; sketch: {} per shard",
        human_bytes(single.size_bytes())
    );

    let out = run_sharded(&PipelineConfig::new(4), make, &items);
    let diff = (0..universe as u64)
        .map(|item| out.merged.estimate(item).abs_diff(single.estimate(item)))
        .max()
        .unwrap_or(0);
    println!();
    for (shard, stats) in out.shards.iter().enumerate() {
        println!(
            "  shard {shard}: {:>7} items in {:>4} batches ({:.1} Mops busy)",
            stats.items,
            stats.batches,
            mops_for(stats.items, stats.busy_secs)
        );
    }
    println!(
        "  critical path {:.1} Mops vs single-thread {:.1} Mops equivalent",
        mops_for(out.items, out.critical_path_secs()),
        mops_for(out.items, out.total_busy_secs())
    );
    println!("  max |merged − unsharded| over all keys: {diff} (sum-merge is lossless)");
    assert_eq!(diff, 0);
}
