//! Fault tolerance: throughput and recovery behaviour of the supervised
//! pipeline under injected worker failures (this figure is ours, not the
//! paper's — it prices the supervision layer: what a shard death costs,
//! what degraded mode sustains, and how fast a restart brings the shard
//! back).
//!
//! Three modes over the same Zipf trace on a 4-shard by-key pipeline
//! (repeated until a minimum wall time, as in `fig_elastic`):
//!
//! * `healthy` — supervision on, no faults: the baseline the other rows
//!   are compared against, pricing the supervision bookkeeping itself.
//! * `degraded` — a [`FaultPlan`] panics shard 1 early in the stream and
//!   the pipeline keeps ingesting on the three survivors for the rest of
//!   the run: `degraded_mops` is the wall ingest rate *including* the
//!   death and every fast-failed dispatch to the dead shard, and
//!   `coverage` is the fraction of pushed items the final merged output
//!   covers.
//! * `restart` — the same early death under `Recovery::Restart`:
//!   `recovery_ms` is the wall time from the chunk that first observed the
//!   panic to the supervisor reporting the shard up again (an upper bound
//!   at ingest-chunk granularity — detection and respawn happen inside one
//!   `extend` call on the producer thread).
//!
//! Output columns:
//! `mode,cycles,mops,degraded_mops,coverage,recovery_ms,lost_items`.
//! `--json PATH` writes the perf snapshot (uploaded as `BENCH_faults.json`
//! by the `bench-smoke` CI job); the `degraded` row's `degraded_mops` is
//! gated by `compare_bench`.
//!
//! [`FaultPlan`]: salsa_pipeline::FaultPlan

use std::sync::Arc;
use std::time::Instant;

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_metrics::mops_for;
use salsa_pipeline::{
    silence_worker_panics, FaultPlan, PipelineConfig, ShardedPipeline, SupervisorConfig,
};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

const SHARDS: usize = 4;
const VICTIM: usize = 1;

/// One measured point of the figure.
struct Point {
    mode: &'static str,
    cycles: u64,
    mops: Option<f64>,
    degraded_mops: Option<f64>,
    coverage: f64,
    recovery_ms: Option<f64>,
    lost_items: u64,
    restarts: u64,
}

fn main() {
    silence_worker_panics();
    let args = Args::parse(2_000_000, 1);
    let depth = 4;
    let width = if args.quick { 1 << 14 } else { 1 << 16 };
    let min_secs = if args.quick { 0.25 } else { 2.0 };
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
    // Kill the victim early, so nearly the whole measured run is degraded
    // (respectively: runs on the restarted incarnation).
    let fault_after = (items.len() / (8 * SHARDS)).max(1) as u64;

    csv_header(&[
        "mode",
        "cycles",
        "mops",
        "degraded_mops",
        "coverage",
        "recovery_ms",
        "lost_items",
    ]);
    let mut points = Vec::new();

    // -- healthy: supervision on, no faults ------------------------------
    {
        let config = PipelineConfig::new(SHARDS);
        let mut pipeline = ShardedPipeline::supervised(&config, SupervisorConfig::new(), make);
        let started = Instant::now();
        let mut cycles = 0u64;
        loop {
            pipeline.extend(&items);
            cycles += 1;
            if started.elapsed().as_secs_f64() >= min_secs {
                break;
            }
        }
        let out = pipeline.try_finish().expect("no faults were injected");
        let secs = started.elapsed().as_secs_f64();
        assert!(out.failed_shards.is_empty() && out.lost_items == 0);
        points.push(Point {
            mode: "healthy",
            cycles,
            mops: Some(finite(mops_for(out.items, secs))),
            degraded_mops: None,
            coverage: 1.0,
            recovery_ms: None,
            lost_items: 0,
            restarts: 0,
        });
    }

    // -- degraded: shard 1 dies early, survivors carry the run -----------
    {
        let plan = Arc::new(FaultPlan::new().panic_shard(VICTIM, fault_after));
        let config = PipelineConfig::new(SHARDS);
        let supervisor = SupervisorConfig::new().chaos(plan);
        let mut pipeline = ShardedPipeline::supervised(&config, supervisor, make);
        let started = Instant::now();
        let mut cycles = 0u64;
        loop {
            pipeline.extend(&items);
            cycles += 1;
            if started.elapsed().as_secs_f64() >= min_secs {
                break;
            }
        }
        let out = pipeline
            .try_finish()
            .expect("three survivors still assemble an output");
        let secs = started.elapsed().as_secs_f64();
        assert_eq!(out.failed_shards, vec![VICTIM]);
        points.push(Point {
            mode: "degraded",
            cycles,
            mops: None,
            degraded_mops: Some(finite(mops_for(out.items, secs))),
            coverage: finite((out.items - out.lost_items) as f64 / out.items as f64),
            recovery_ms: None,
            lost_items: out.lost_items,
            restarts: 0,
        });
    }

    // -- restart: the same death, healed by the restart policy -----------
    {
        let plan = Arc::new(FaultPlan::new().panic_shard(VICTIM, fault_after));
        let config = PipelineConfig::new(SHARDS);
        let supervisor = SupervisorConfig::new().restart(1).chaos(plan);
        let counters = Arc::clone(&supervisor.counters);
        let mut pipeline = ShardedPipeline::supervised(&config, supervisor, make);
        let started = Instant::now();
        let mut cycles = 0u64;
        let mut recovery_ms = None;
        loop {
            for chunk in items.chunks(4_096) {
                let chunk_started = Instant::now();
                pipeline.extend(chunk);
                if recovery_ms.is_none()
                    && counters.worker_restarts.get() >= 1
                    && pipeline.health().all_up()
                {
                    recovery_ms = Some(chunk_started.elapsed().as_secs_f64() * 1e3);
                }
            }
            cycles += 1;
            if started.elapsed().as_secs_f64() >= min_secs {
                break;
            }
        }
        let restarts = counters.worker_restarts.get();
        let out = pipeline
            .try_finish()
            .expect("the restarted shard reports like any other");
        let secs = started.elapsed().as_secs_f64();
        assert!(out.failed_shards.is_empty(), "the restart healed the set");
        assert_eq!(restarts, 1, "the single scripted fault fires once");
        points.push(Point {
            mode: "restart",
            cycles,
            mops: Some(finite(mops_for(out.items, secs))),
            degraded_mops: None,
            coverage: finite((out.items - out.lost_items) as f64 / out.items as f64),
            recovery_ms: recovery_ms.map(finite),
            lost_items: out.lost_items,
            restarts,
        });
    }

    for p in &points {
        csv_row(&[
            p.mode.into(),
            format!("{}", p.cycles),
            p.mops.map_or_else(|| "-".into(), fmt),
            p.degraded_mops.map_or_else(|| "-".into(), fmt),
            fmt(p.coverage),
            p.recovery_ms.map_or_else(|| "-".into(), fmt),
            format!("{}", p.lost_items),
        ]);
    }

    if let Some(path) = &args.json {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"fig_faults\",\n");
        json.push_str("  \"sketch\": \"salsa_cms_sum\",\n");
        json.push_str(&format!("  \"updates\": {},\n", args.updates));
        json.push_str(&format!("  \"seed\": {},\n", args.seed));
        json.push_str("  \"points\": [\n");
        for (i, p) in points.iter().enumerate() {
            let mops_field = p
                .mops
                .map(|m| format!("\"mops\": {m:.3}, "))
                .unwrap_or_default();
            let degraded_field = p
                .degraded_mops
                .map(|m| format!("\"degraded_mops\": {m:.3}, "))
                .unwrap_or_default();
            let recovery_field = p
                .recovery_ms
                .map(|r| format!(", \"recovery_ms\": {r:.4}"))
                .unwrap_or_default();
            json.push_str(&format!(
                "    {{\"mode\": \"{}\", \"cycles\": {}, {}{}\"coverage\": {:.6}, \"lost_items\": {}, \"restarts\": {}{}}}{}\n",
                p.mode,
                p.cycles,
                mops_field,
                degraded_field,
                p.coverage,
                p.lost_items,
                p.restarts,
                recovery_field,
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, json)
            .unwrap_or_else(|e| panic!("failed to write perf snapshot {path}: {e}"));
        eprintln!("wrote perf snapshot to {path}");
    }
}
