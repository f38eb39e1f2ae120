//! Elastic scaling: ingest throughput and rescale pause time of the
//! generation-based elastic control plane (this figure is ours, not the
//! paper's — it evaluates SALSA's self-adjustment idea applied to the
//! pipeline layer: shard count adapting to load while the merged view
//! stays exact).
//!
//! Three modes over the same Zipf trace (repeated until a minimum wall
//! time, as in `fig_live_query`):
//!
//! * `fixed` — a 2-shard [`ShardedPipeline`]: the no-control-plane
//!   baseline.
//! * `elastic` — a [`ShardedPipeline`] cycling a scripted 1 → 4 → 2
//!   rescale schedule mid-stream (the acceptance scenario); reports wall
//!   ingest throughput *including* every drain-and-seal pause, plus the
//!   mean/max pause itself.
//! * `adaptive` — a bursty workload (full-speed bursts alternating with
//!   throttled idle phases) driven by the [`Threshold`] policy through
//!   [`LoadMonitor`]: the closed loop deciding on its own.  Reported for
//!   information (its wall clock is dominated by the scripted idle
//!   sleeps): rescale count and final shard count.
//!
//! Exactness: `max_abs_diff` comes from a dedicated untimed single-pass
//! run per mode (fixed 2-shard, and elastic with the scripted 1 → 4 → 2
//! rescales) compared against the unsharded reference over a probe set;
//! with sum-merge rows both are expected to be exactly 0.  The adaptive
//! row reports `-`: its multiset is policy-timing dependent, and its
//! exactness is the same sealing mechanism the elastic row already pins.
//!
//! Output columns:
//! `mode,cycles,rescales,elastic_mops,mean_pause_ms,max_pause_ms,max_abs_diff`.
//! `--json PATH` writes the perf snapshot (uploaded as
//! `BENCH_elastic.json` by the `bench-smoke` CI job); the `elastic_mops`
//! metrics of the `fixed` and `elastic` rows are gated by `compare_bench`.
//!
//! [`ShardedPipeline`]: salsa_pipeline::ShardedPipeline
//! [`Threshold`]: salsa_pipeline::Threshold
//! [`LoadMonitor`]: salsa_pipeline::LoadMonitor

use std::time::{Duration, Instant};

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_metrics::mops_for;
use salsa_pipeline::{LoadMonitor, PipelineConfig, ShardedPipeline, Threshold};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

/// One measured point of the figure.
struct Point {
    mode: &'static str,
    cycles: u64,
    rescales: u64,
    final_shards: usize,
    elastic_mops: Option<f64>,
    mean_pause_ms: f64,
    max_pause_ms: f64,
    max_abs_diff: Option<u64>,
}

/// `|merged − single|` over the probe set: 0 means the (sharded or
/// elastic) run is exactly the unsharded run.
fn max_abs_diff<R>(
    merged: &salsa_sketches::cms::CountMin<R>,
    single: &salsa_sketches::cms::CountMin<R>,
    probes: &[u64],
) -> u64
where
    R: salsa_core::traits::Row,
{
    probes
        .iter()
        .map(|&item| merged.estimate(item).abs_diff(single.estimate(item)))
        .max()
        .unwrap_or(0)
}

fn main() {
    let args = Args::parse(2_000_000, 1);
    let depth = 4;
    let width = if args.quick { 1 << 14 } else { 1 << 16 };
    let min_secs = if args.quick { 0.25 } else { 2.0 };
    let idle_sleep = Duration::from_millis(if args.quick { 4 } else { 20 });
    let seed = args.seed;
    let make = move |_shard: usize| CountMin::salsa(depth, width, 8, MergeOp::Sum, seed);

    let items = trace_items(
        TraceSpec::Zipf {
            universe: 100_000,
            skew: 1.0,
        },
        args.updates,
        args.seed,
    );
    let probes: Vec<u64> = (0..5_000u64).chain((5_000..100_000).step_by(97)).collect();
    let third = items.len() / 3;

    // Unsharded single-pass reference (same batched hot path).
    let mut single = make(0);
    for chunk in items.chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
        single.update_batch(chunk);
    }

    // Dedicated untimed exactness passes: one trace each, merged view vs
    // the unsharded reference (expected 0 for sum-merge rows).
    let fixed_diff = {
        let out = salsa_pipeline::run_sharded(&PipelineConfig::new(2), make, &items);
        max_abs_diff(&out.merged, &single, &probes)
    };
    let elastic_diff = {
        let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(1), make);
        pipeline.extend(&items[..third]);
        pipeline.rescale(4);
        pipeline.extend(&items[third..2 * third]);
        pipeline.rescale(2);
        pipeline.extend(&items[2 * third..]);
        let out = pipeline.finish();
        max_abs_diff(&out.merged, &single, &probes)
    };

    csv_header(&[
        "mode",
        "cycles",
        "rescales",
        "elastic_mops",
        "mean_pause_ms",
        "max_pause_ms",
        "max_abs_diff",
    ]);
    let mut points = Vec::new();

    // -- fixed: 2 shards, no control plane ------------------------------
    {
        let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), make);
        let started = Instant::now();
        let mut cycles = 0u64;
        loop {
            pipeline.extend(&items);
            cycles += 1;
            if started.elapsed().as_secs_f64() >= min_secs {
                break;
            }
        }
        let out = pipeline.finish();
        let secs = started.elapsed().as_secs_f64();
        points.push(Point {
            mode: "fixed",
            cycles,
            rescales: 0,
            final_shards: 2,
            elastic_mops: Some(finite(mops_for(out.items, secs))),
            mean_pause_ms: 0.0,
            max_pause_ms: 0.0,
            max_abs_diff: Some(fixed_diff),
        });
    }

    // -- elastic: scripted 1 -> 4 -> 2 rescales each cycle ---------------
    {
        let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(1), make);
        let started = Instant::now();
        let mut cycles = 0u64;
        loop {
            pipeline.rescale(1); // no-op on the first cycle
            pipeline.extend(&items[..third]);
            pipeline.rescale(4);
            pipeline.extend(&items[third..2 * third]);
            pipeline.rescale(2);
            pipeline.extend(&items[2 * third..]);
            cycles += 1;
            if started.elapsed().as_secs_f64() >= min_secs {
                break;
            }
        }
        let out = pipeline.finish();
        let secs = started.elapsed().as_secs_f64();
        points.push(Point {
            mode: "elastic",
            cycles,
            rescales: out.rescales() as u64,
            final_shards: 2,
            elastic_mops: Some(finite(mops_for(out.items, secs))),
            mean_pause_ms: finite(out.mean_pause_secs() * 1e3),
            max_pause_ms: finite(out.max_pause_secs() * 1e3),
            max_abs_diff: Some(elastic_diff),
        });
    }

    // -- adaptive: bursts + idle phases, Threshold policy deciding -------
    {
        let batch = PipelineConfig::DEFAULT_BATCH_SIZE as u64;
        let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(1), make);
        let mut monitor = LoadMonitor::new();
        let mut policy = Threshold::new(1, 4, 2 * batch, 0.2);
        let mut cycles = 0u64;
        let bursts = if args.quick { 2 } else { 3 };
        for _ in 0..bursts {
            // Burst: full speed, ticking the control loop per chunk.
            for chunk in items.chunks(8_192) {
                pipeline.extend(chunk);
                pipeline.autoscale(&mut monitor, &mut policy);
            }
            cycles += 1;
            // Idle: a trickle of items with real time passing, so the
            // utilization signal can trigger a shrink.
            for chunk in items.chunks(items.len() / 8 + 1).take(8) {
                std::thread::sleep(idle_sleep);
                pipeline.extend(&chunk[..64.min(chunk.len())]);
                pipeline.drain();
                pipeline.autoscale(&mut monitor, &mut policy);
            }
        }
        let final_shards = pipeline.shards();
        let out = pipeline.finish();
        points.push(Point {
            mode: "adaptive",
            cycles,
            rescales: out.rescales() as u64,
            final_shards,
            elastic_mops: None, // wall clock is dominated by scripted sleeps
            mean_pause_ms: finite(out.mean_pause_secs() * 1e3),
            max_pause_ms: finite(out.max_pause_secs() * 1e3),
            max_abs_diff: None, // timing-dependent multiset; see module docs
        });
    }

    for p in &points {
        csv_row(&[
            p.mode.into(),
            format!("{}", p.cycles),
            format!("{}", p.rescales),
            p.elastic_mops.map_or_else(|| "-".into(), fmt),
            fmt(p.mean_pause_ms),
            fmt(p.max_pause_ms),
            p.max_abs_diff
                .map_or_else(|| "-".into(), |d| format!("{d}")),
        ]);
    }

    if let Some(path) = &args.json {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"fig_elastic\",\n");
        json.push_str("  \"sketch\": \"salsa_cms_sum\",\n");
        json.push_str(&format!("  \"updates\": {},\n", args.updates));
        json.push_str(&format!("  \"seed\": {},\n", args.seed));
        json.push_str("  \"points\": [\n");
        for (i, p) in points.iter().enumerate() {
            let mops_field = p
                .elastic_mops
                .map(|m| format!("\"elastic_mops\": {m:.3}, "))
                .unwrap_or_default();
            let diff_field = p
                .max_abs_diff
                .map(|d| format!(", \"max_abs_diff\": {d}"))
                .unwrap_or_default();
            json.push_str(&format!(
                "    {{\"mode\": \"{}\", \"cycles\": {}, \"rescales\": {}, \"final_shards\": {}, {}\"mean_pause_ms\": {:.4}, \"max_pause_ms\": {:.4}{}}}{}\n",
                p.mode,
                p.cycles,
                p.rescales,
                p.final_shards,
                mops_field,
                p.mean_pause_ms,
                p.max_pause_ms,
                diff_field,
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, json)
            .unwrap_or_else(|e| panic!("failed to write perf snapshot {path}: {e}"));
        eprintln!("wrote perf snapshot to {path}");
    }
}
