//! Pipeline scaling: update throughput vs shard count, and merged-view
//! accuracy vs a single unsharded sketch, for the `salsa-pipeline` sharded
//! ingestion layer (this figure is ours, not the paper's — it evaluates the
//! Section V merge results as a distribution mechanism).
//!
//! For every shard count the binary streams a Zipf trace through a
//! [`salsa_pipeline::ShardedPipeline`] of SALSA sum-merge CMS shards and
//! reports two throughputs:
//!
//! * `wall_mops` — items over wall-clock time of the whole run, which only
//!   scales with shard count when the host actually has that many cores;
//! * `scaled_mops` — items over the busiest shard's busy time (the
//!   ingestion critical path), i.e. the throughput the sharded system
//!   sustains with one core per shard.  This is the number tracked in the
//!   perf snapshot, because CI runners have few cores.
//!
//! Accuracy: with sum-merge rows the merged view must match the unsharded
//! sketch *exactly*, so `max_abs_diff` (over a probe set of items) is
//! expected to be 0.
//!
//! Output columns: `partition,shards,wall_mops,scaled_mops,speedup,max_abs_diff`
//! where `partition` is always `by_key` (the pipeline's one routing mode;
//! the column keeps the snapshot's row names stable) and `speedup` is
//! `scaled_mops` relative to the 1-shard run.  `--json PATH` additionally writes a machine-readable
//! snapshot (see `bench-smoke` in CI, which uploads it as
//! `BENCH_pipeline.json`).

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_metrics::{mops_for, Throughput};
use salsa_pipeline::{run_sharded, PipelineConfig};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

/// The pipeline's routing mode, as the CSV and the perf snapshot name it.
const PARTITION: &str = "by_key";

/// One measured point of the figure.
struct Point {
    shards: usize,
    wall_mops: f64,
    scaled_mops: f64,
    speedup: f64,
    max_abs_diff: u64,
}

fn main() {
    let args = Args::parse(2_000_000, 1);
    let shard_counts: &[usize] = if args.quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    let depth = 4;
    let width = if args.quick { 1 << 14 } else { 1 << 17 };
    let make =
        |seed: u64| move |_shard: usize| CountMin::salsa(depth, width, 8, MergeOp::Sum, seed);

    let items = trace_items(
        TraceSpec::Zipf {
            universe: 100_000,
            skew: 1.0,
        },
        args.updates,
        args.seed,
    );
    // Probe the low ids (where a Zipf stream concentrates its mass) plus a
    // slice of the tail for the merged-vs-unsharded comparison.
    let probes: Vec<u64> = (0..5_000u64).chain((5_000..100_000).step_by(97)).collect();

    // Unsharded reference: one sketch, same batched hot path.
    let mut single = make(args.seed)(0);
    let mut clock = Throughput::start();
    for chunk in items.chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
        single.update_batch(chunk);
    }
    clock.add_ops(items.len() as u64);
    let single_secs = clock.elapsed_secs();

    csv_header(&[
        "partition",
        "shards",
        "wall_mops",
        "scaled_mops",
        "speedup",
        "max_abs_diff",
    ]);
    let mut points: Vec<Point> = Vec::new();
    let mut one_shard_scaled = f64::NAN;
    for &shards in shard_counts {
        let mut wall = Throughput::start();
        let out = run_sharded(&PipelineConfig::new(shards), make(args.seed), &items);
        wall.add_ops(items.len() as u64);
        let wall_mops = wall.mops();
        // A coarse clock can measure zero busy time on a tiny --quick run,
        // which mops_for saturates to infinity; fall back to the unsharded
        // wall rate so every reported point stays finite (the JSON snapshot
        // must never contain `inf`).
        let raw_scaled = mops_for(out.items, out.critical_path_secs());
        let scaled_mops = if raw_scaled.is_finite() {
            raw_scaled
        } else {
            mops_for(out.items, single_secs)
        };
        if shards == 1 {
            one_shard_scaled = scaled_mops;
        }
        let speedup = scaled_mops / one_shard_scaled;
        let max_abs_diff = probes
            .iter()
            .map(|&item| out.merged.estimate(item).abs_diff(single.estimate(item)))
            .max()
            .unwrap_or(0);
        csv_row(&[
            PARTITION.into(),
            format!("{shards}"),
            fmt(wall_mops),
            fmt(scaled_mops),
            fmt(speedup),
            format!("{max_abs_diff}"),
        ]);
        points.push(Point {
            shards,
            wall_mops,
            scaled_mops,
            speedup,
            max_abs_diff,
        });
    }

    if let Some(path) = &args.json {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"fig_pipeline_scaling\",\n");
        json.push_str("  \"sketch\": \"salsa_cms_sum\",\n");
        json.push_str(&format!("  \"updates\": {},\n", args.updates));
        json.push_str(&format!("  \"seed\": {},\n", args.seed));
        json.push_str("  \"points\": [\n");
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"partition\": \"{}\", \"shards\": {}, \"wall_mops\": {:.3}, \"scaled_mops\": {:.3}, \"speedup\": {:.3}, \"max_abs_diff\": {}}}{}\n",
                PARTITION,
                p.shards,
                finite(p.wall_mops),
                finite(p.scaled_mops),
                finite(p.speedup),
                p.max_abs_diff,
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, json)
            .unwrap_or_else(|e| panic!("failed to write perf snapshot {path}: {e}"));
        eprintln!("wrote perf snapshot to {path}");
    }
}
