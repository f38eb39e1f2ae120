//! Live-query serving: ingest throughput under concurrent snapshot/query
//! load, plus query latency and snapshot staleness (this figure is ours,
//! not the paper's — it evaluates the Section V merge machinery as a
//! *serving* mechanism: per-shard sketches are cloned and folded into
//! epoch-stamped views while the stream keeps flowing).
//!
//! For each query rate (0, 10 and 100 queries per second) the binary
//! streams a Zipf trace through a [`salsa_pipeline::ShardedPipeline`] of
//! SALSA sum-merge CMS shards, repeating the trace until a minimum wall
//! time has elapsed, while a separate query thread takes
//! [`salsa_pipeline::LiveHandle`] snapshots at the configured rate and runs
//! a top-k query against each view.  Reported per rate:
//!
//! * `ingest_mops` — wall-clock ingest throughput *under that query load*
//!   (the 0-qps row is the do-nothing baseline);
//! * `p50_query_ms` / `p99_query_ms` — snapshot-query latency quantiles
//!   over *steady-state* queries (the first query of a lane pays the
//!   arena's cold-start allocations and is excluded as warm-up; later
//!   snapshots refresh recycled buffers and fold through a reused merge
//!   helper);
//! * `max_staleness_items` / `max_staleness_ms` — worst observed snapshot
//!   staleness: acknowledged updates missing from a served view, and the
//!   view's age when the query finished using it;
//! * `allocs_per_query` — heap allocations per steady-state point query
//!   served through the serve path's view cache (a zero-window
//!   [`salsa_serve::Coalescer`]), counted by this binary's
//!   `#[global_allocator]` with ingest quiesced and the cache warm.  The
//!   whole point of the arena/helper machinery is that this stays at
//!   exactly zero; `compare_bench` gates it lower-is-better.
//!
//! Output columns:
//! `qps,queries,ingest_mops,p50_query_ms,p99_query_ms,max_staleness_items,max_staleness_ms,allocs_per_query`.
//! `--json PATH` additionally writes a machine-readable snapshot (uploaded
//! as `BENCH_live_query.json` by the `bench-smoke` CI job and diffed
//! against `BENCH_baseline.json` by `compare_bench`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_metrics::{mops_for, CacheGauges, LatencySeries, ServeCounters, StalenessTracker};
use salsa_pipeline::{PipelineConfig, ShardedPipeline, SnapshotSummary};
use salsa_serve::{CachePolicy, Coalescer};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

#[path = "../counting_alloc.rs"]
mod counting_alloc;

/// One measured point of the figure.
struct Point {
    qps: u32,
    queries: u64,
    ingest_mops: f64,
    p50_query_ms: f64,
    p99_query_ms: f64,
    max_staleness_items: u64,
    max_staleness_ms: f64,
    allocs_per_query: f64,
}

/// Measures heap allocations per point query with ingest quiesced: the
/// workers are idle (parked on their channels) and the cache layer is
/// warm, so the counter isolates the steady-state serve path — cache
/// hit, `Arc` bump, counter-array point estimate.  Runs before
/// `finish()` so the handle still resolves snapshots.
fn measure_allocs_per_query<S>(handle: &salsa_pipeline::LiveHandle<S>, candidates: &[u64]) -> f64
where
    S: SnapshotSummary + salsa_pipeline::FrequencyQueries,
{
    const QUERIES: u64 = 512;
    let cached = Coalescer::new(
        handle.clone(),
        CachePolicy::new(Duration::from_secs(3_600), u64::MAX),
        Duration::ZERO,
        Arc::new(ServeCounters::new()),
        Arc::new(CacheGauges::new()),
    );
    let mut sink = 0i64;
    // Warm-up: the first snapshot assembles (and allocates) the cached
    // view; later queries are expected to reuse it allocation-free.
    for &item in candidates.iter().take(8) {
        let view = cached.view().expect("pipeline is still live");
        sink ^= view.estimate(item);
    }
    let before = counting_alloc::allocations();
    for i in 0..QUERIES {
        let item = candidates[i as usize % candidates.len()];
        let view = cached.view().expect("pipeline is still live");
        sink ^= view.estimate(item);
    }
    let allocs = counting_alloc::allocations() - before;
    std::hint::black_box(sink);
    finite(allocs as f64 / QUERIES as f64)
}

fn main() {
    let args = Args::parse(1_000_000, 1);
    let shards = 4;
    let depth = 4;
    let width = if args.quick { 1 << 14 } else { 1 << 16 };
    let min_secs = if args.quick { 0.5 } else { 2.0 };
    let top_k = 8;

    let items = trace_items(
        TraceSpec::Zipf {
            universe: 100_000,
            skew: 1.0,
        },
        args.updates,
        args.seed,
    );
    // The served top-k query ranks a tracked candidate hot-set; sample the
    // trace so the candidates are real (hashed) keys, not dense ranks.
    let candidates: Vec<u64> = items
        .iter()
        .step_by(items.len() / 2_048 + 1)
        .copied()
        .collect();

    csv_header(&[
        "qps",
        "queries",
        "ingest_mops",
        "p50_query_ms",
        "p99_query_ms",
        "max_staleness_items",
        "max_staleness_ms",
        "allocs_per_query",
    ]);
    let mut points = Vec::new();
    for qps in [0u32, 10, 100] {
        let config = PipelineConfig::new(shards);
        let mut pipeline = ShardedPipeline::new(&config, |_| {
            CountMin::salsa(depth, width, 8, MergeOp::Sum, args.seed)
        });
        let handle = pipeline.live_handle();
        let stop = Arc::new(AtomicBool::new(false));

        let query_thread = (qps > 0).then(|| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let candidates = candidates.clone();
            let period = Duration::from_secs_f64(1.0 / qps as f64);
            std::thread::spawn(move || {
                let mut latency = LatencySeries::new();
                let mut staleness = StalenessTracker::new();
                let mut warmed_up = false;
                while !stop.load(Ordering::Acquire) {
                    let issued = Instant::now();
                    let Some(view) = handle.snapshot() else {
                        break; // the pipeline has been finished
                    };
                    // The served query: top-k over the candidate hot set.
                    let hot = view.top_k(top_k, candidates.iter().copied());
                    assert!(hot.len() <= top_k);
                    // The lane's first query is cold: it allocates the
                    // snapshot buffers the arena recycles ever after.
                    // The quantiles describe the steady state.
                    if warmed_up {
                        latency.record(issued.elapsed());
                    }
                    warmed_up = true;
                    staleness.record(
                        handle.acknowledged().saturating_sub(view.epoch()),
                        view.staleness(),
                    );
                    std::thread::sleep(period.saturating_sub(issued.elapsed()));
                }
                (latency, staleness)
            })
        });

        // Ingest: repeat the trace until the minimum wall time has elapsed,
        // so slower machines still measure under sustained query load.
        let started = Instant::now();
        let mut pushed = 0u64;
        loop {
            pipeline.extend(&items);
            pushed += items.len() as u64;
            if started.elapsed().as_secs_f64() >= min_secs {
                break;
            }
        }
        let ingest_secs = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        let (latency, staleness) = match query_thread {
            Some(thread) => thread.join().expect("query thread panicked"),
            None => (LatencySeries::new(), StalenessTracker::new()),
        };
        // With ingest done and the query thread joined, the workers are
        // idle: measure the steady-state allocation discipline before
        // finishing the pipeline tears the workers down.
        let allocs_per_query = measure_allocs_per_query(&handle, &candidates);
        let out = pipeline.finish();
        assert_eq!(out.items, pushed);

        let point = Point {
            qps,
            queries: latency.len() as u64,
            ingest_mops: finite(mops_for(pushed, ingest_secs)),
            p50_query_ms: finite(latency.p50_secs() * 1e3),
            p99_query_ms: finite(latency.p99_secs() * 1e3),
            max_staleness_items: staleness.max_lag_items(),
            max_staleness_ms: finite(staleness.max_age_secs() * 1e3),
            allocs_per_query,
        };
        csv_row(&[
            format!("{}", point.qps),
            format!("{}", point.queries),
            fmt(point.ingest_mops),
            fmt(point.p50_query_ms),
            fmt(point.p99_query_ms),
            format!("{}", point.max_staleness_items),
            fmt(point.max_staleness_ms),
            fmt(point.allocs_per_query),
        ]);
        points.push(point);

        if qps == 0 {
            // Sanity context for the snapshot cost model, printed once.
            let per_snapshot = SnapshotSummary::clone_cost_bytes(&out.merged) * shards;
            eprintln!("snapshot clone cost: {per_snapshot} bytes across {shards} shards");
        }
    }

    if let Some(path) = &args.json {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"fig_live_query\",\n");
        json.push_str("  \"sketch\": \"salsa_cms_sum\",\n");
        json.push_str(&format!("  \"updates\": {},\n", args.updates));
        json.push_str(&format!("  \"seed\": {},\n", args.seed));
        json.push_str(&format!("  \"shards\": {shards},\n"));
        json.push_str("  \"points\": [\n");
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"qps\": {}, \"queries\": {}, \"ingest_mops\": {:.3}, \"p50_query_ms\": {:.4}, \"p99_query_ms\": {:.4}, \"max_staleness_items\": {}, \"max_staleness_ms\": {:.4}, \"allocs_per_query\": {:.4}}}{}\n",
                p.qps,
                p.queries,
                p.ingest_mops,
                p.p50_query_ms,
                p.p99_query_ms,
                p.max_staleness_items,
                p.max_staleness_ms,
                p.allocs_per_query,
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(path, json)
            .unwrap_or_else(|e| panic!("failed to write perf snapshot {path}: {e}"));
        eprintln!("wrote perf snapshot to {path}");
    }
}
