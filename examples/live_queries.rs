//! Live queries against a running pipeline: a query thread serves top-k and
//! point estimates from epoch-stamped snapshots while the main thread keeps
//! ingesting — the workers never stop.
//!
//! ```text
//! cargo run --release -p salsa-examples --example live_queries
//! ```
//!
//! The demo streams a skewed (Zipf) trace through a 4-shard pipeline.  A
//! concurrent `LiveHandle` thread periodically snapshots the pipeline
//! (cloning each shard's sketch and folding the clones counter-wise,
//! Section V) and prints the current epoch, the hottest keys, and how stale
//! the served view is.  At the end, a producer-side snapshot at the final
//! epoch is compared against the finished pipeline's merged view.

use std::time::Duration;

use salsa_examples::human_bytes;
use salsa_pipeline::{PipelineConfig, ShardedPipeline, SnapshotSummary};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

fn main() {
    let updates = 600_000;
    let universe = 50_000;
    let items = TraceSpec::Zipf {
        universe,
        skew: 1.0,
    }
    .generate(updates, 2024)
    .items()
    .to_vec();

    // Sketches cannot enumerate their keys, so a serving layer tracks a
    // candidate hot-set to rank; sampling the stream is the simplest one.
    let candidates: Vec<u64> = items.iter().step_by(101).copied().collect();

    let make = |_shard: usize| CountMin::salsa(4, 1 << 15, 8, MergeOp::Sum, 7);
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(4), make);
    let handle = pipeline.live_handle();
    println!(
        "4 shards, {} per snapshot clone; querying while {updates} updates stream in\n",
        human_bytes(SnapshotSummary::clone_cost_bytes(&make(0)))
    );

    let querier = std::thread::spawn(move || {
        let mut served = 0u32;
        // A live snapshot: consistent per-shard prefixes, merged into one
        // queryable view. An error means the pipeline has finished.
        while let Ok(view) = handle.snapshot() {
            let top = view.top_k(3, candidates.iter().copied());
            println!(
                "epoch {:>7}: top-3 {:?}  (assembled in {:?}, {} behind live)",
                view.epoch(),
                top.items(),
                view.assembly_time(),
                handle.acknowledged().saturating_sub(view.epoch()),
            );
            served += 1;
            std::thread::sleep(Duration::from_millis(3));
        }
        served
    });

    // Ingest in chunks; the query thread interleaves freely.
    for chunk in items.chunks(4_096) {
        pipeline.extend(chunk);
    }
    let final_epoch = pipeline.drain();
    let final_view = pipeline
        .snapshot()
        .expect("a healthy pipeline serves views");
    let out = pipeline.finish();
    let served = querier.join().expect("query thread panicked");

    println!(
        "\nfinal snapshot epoch {final_epoch} == items {}",
        out.items
    );
    let diff = items
        .iter()
        .map(|&item| {
            (final_view.estimate(item)
                - salsa_sketches::summary::FrequencyQueries::estimate(&out.merged, item))
            .unsigned_abs()
        })
        .max()
        .unwrap_or(0);
    println!("max |final snapshot − finished view| over all keys: {diff} (sum-merge is lossless)");
    println!("queries served while ingesting: {served}");
    assert_eq!(final_epoch, out.items);
    assert_eq!(diff, 0);
}
