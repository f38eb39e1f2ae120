//! Sharded UnivMon: universal statistics (entropy, frequency moments,
//! distinct count) served live from a sharded pipeline — no frequency
//! sketch anywhere in the transport.
//!
//! ```text
//! cargo run --release -p salsa-examples --example sharded_univmon
//! ```
//!
//! The pipeline is bound only to the `StreamSummary` contract (*ingest a
//! batch, merge counter-wise*), so UnivMon rides the same worker shards,
//! snapshots, and merges as CMS/CUS/CS.  The demo streams a Zipf trace
//! through 4 UnivMon shards, takes a live mid-stream snapshot and prints
//! its entropy/F2/distinct estimates against exact values, then compares
//! the finished merged sketch to an unsharded run of the same stream.

use std::collections::HashMap;

use salsa_pipeline::{PipelineConfig, ShardedPipeline, StreamSummary};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

/// Exact (entropy, F2, distinct) of `items`.
fn exact_stats(items: &[u64]) -> (f64, f64, f64) {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &item in items {
        *counts.entry(item).or_insert(0) += 1;
    }
    let n = items.len() as f64;
    let entropy = -counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            p * p.log2()
        })
        .sum::<f64>();
    let f2 = counts.values().map(|&c| (c as f64) * (c as f64)).sum();
    (entropy, f2, counts.len() as f64)
}

fn main() {
    let updates = 400_000;
    let universe = 20_000;
    let items = TraceSpec::Zipf {
        universe,
        skew: 1.0,
    }
    .generate(updates, 2026)
    .items()
    .to_vec();

    // 12 levels of 5×2^12 SALSA Count Sketches, a 100-item heap per level.
    let make = |_shard: usize| UnivMon::salsa(12, 5, 1 << 12, 8, 100, 7);
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(4), make);
    println!("4 UnivMon shards, {updates} Zipf updates over {universe} keys\n");

    // Mid-stream: a live snapshot merges per-shard clones into one queryable
    // UnivMon, and the view exposes the universal queries directly.
    let cut = items.len() / 2;
    pipeline.extend(&items[..cut]);
    let view = pipeline
        .snapshot()
        .expect("a healthy pipeline serves views");
    let (entropy, f2, distinct) = exact_stats(&items[..cut]);
    println!("live snapshot at epoch {}:", view.epoch());
    println!(
        "  entropy  {:>10.4}  (exact {entropy:.4})",
        view.entropy().expect("a non-negative estimate")
    );
    println!(
        "  F2       {:>10.3e}  (exact {f2:.3e})",
        view.fp_moment(2.0)
    );
    println!("  distinct {:>10.0}  (exact {distinct})", view.distinct());

    // The snapshot had no side effects; finish and compare the merged
    // sketch against an unsharded UnivMon of the same stream.
    pipeline.extend(&items[cut..]);
    let out = pipeline.finish();
    let mut single = make(0);
    single.ingest(&items);
    let (entropy, _, _) = exact_stats(&items);
    println!("\nfull stream ({} items):", out.items);
    let sharded_entropy = out.merged.entropy().expect("a non-negative estimate");
    println!(
        "  entropy: sharded {sharded_entropy:.4}, unsharded {:.4}, exact {entropy:.4}",
        single.entropy().expect("a non-negative estimate")
    );
    println!(
        "  distinct: sharded {:.0}, unsharded {:.0}",
        out.merged.distinct(),
        single.distinct()
    );
    assert!((sharded_entropy - entropy).abs() / entropy < 0.2);
    assert_eq!(out.merged.total(), single.total(), "totals merge exactly");
}
