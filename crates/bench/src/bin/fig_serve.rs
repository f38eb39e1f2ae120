//! Network serving throughput: the `salsa-serve` TCP frontend measured
//! end to end over loopback sockets (this figure is ours, not the
//! paper's — it evaluates the query frontend the way `fig_live_query`
//! evaluates the snapshot machinery, but through the real wire protocol,
//! request coalescing and admission control).
//!
//! Three lanes, labeled by `mode`:
//!
//! * `point` — four closed-loop clients hammer point queries while the
//!   pipeline keeps ingesting.  Reported: `serve_qps` (answers per
//!   second across all clients), `p50_query_ms` / `p99_query_ms`
//!   (client-observed round-trip quantiles, warm-up excluded) and
//!   `coalesced_share` (fraction of admitted queries served from a
//!   shared snapshot fetch — the coalescer doing its job);
//! * `subscribe` — four push-mode subscribers at a fixed cadence while
//!   ingest continues; `serve_qps` counts delivered updates per second
//!   (cadence-bound, so it doubles as a liveness gate);
//! * `alloc` — ingest quiesced, the coalescer's cached view warm under
//!   an effectively infinite policy: `allocs_per_query` counts heap
//!   allocations per steady-state point query across the *whole* process
//!   (client encode, server decode, coalescer, estimate, response) using
//!   this binary's `#[global_allocator]`, exactly as `fig_live_query`
//!   does.  The serve path's promise is that this is exactly zero;
//!   `compare_bench` gates it absolutely against the zero baseline.
//!
//! Output columns:
//! `mode,clients,queries,serve_qps,p50_query_ms,p99_query_ms,coalesced_share,allocs_per_query`
//! (`-` marks fields a lane does not measure; the `--json` snapshot
//! omits them so the perf gate only sees measured numbers).  `--json
//! PATH` writes the machine-readable snapshot uploaded as
//! `BENCH_serve.json` by the `bench-smoke` CI job and diffed against
//! `BENCH_baseline.json` by `compare_bench`, which gates `serve_qps`
//! (higher is better) and `p50_query_ms` / `allocs_per_query` (lower is
//! better).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use salsa_bench::*;
use salsa_core::traits::MergeOp;
use salsa_metrics::LatencySeries;
use salsa_pipeline::{PipelineConfig, ShardedPipeline};
use salsa_serve::{serve, CachePolicy, QueryClient, ServeConfig};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

/// Counts every heap allocation in the process so `allocs_per_query` can
/// be measured rather than asserted (same discipline as `fig_live_query`).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards verbatim to the system allocator; the
// relaxed counter bump has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: pure delegation; the contract is `System`'s own.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: pure delegation; the contract is `System`'s own.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: pure delegation; the contract is `System`'s own.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by the process so far.
fn heap_allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const CLIENTS: usize = 4;

fn make_sketch(seed: u64) -> impl FnMut(usize) -> CountMin<SimpleSalsaRow> + Send + 'static {
    // A modest sketch: this figure measures the serving stack, and the
    // snapshot fetch behind a coalesced round memcpys every row — a
    // capacity-sized sketch would turn the figure into a memcpy bench.
    move |_| CountMin::salsa(4, 1 << 12, 8, MergeOp::Sum, seed)
}

/// One measured lane of the figure.  `None` fields are not measured by
/// that lane and stay out of the JSON snapshot (a zero would otherwise
/// become an absolute lower-is-better gate).
struct Point {
    mode: &'static str,
    clients: usize,
    queries: u64,
    serve_qps: Option<f64>,
    p50_query_ms: Option<f64>,
    p99_query_ms: Option<f64>,
    coalesced_share: Option<f64>,
    allocs_per_query: Option<f64>,
}

/// Lane 1: closed-loop point queries against an ingesting pipeline.
fn run_point_lane(items: &[u64], seed: u64, min_secs: f64) -> Point {
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), make_sketch(seed));
    let server = serve(
        "127.0.0.1:0",
        pipeline.live_handle(),
        ServeConfig::default(),
    )
    .expect("bind a loopback socket");
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|worker| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(addr).expect("connect");
                let mut latencies: Vec<Duration> = Vec::new();
                let mut served = 0u64;
                let mut item = worker as u64;
                while !stop.load(Ordering::Acquire) {
                    let issued = Instant::now();
                    client.point(item).expect("point query");
                    latencies.push(issued.elapsed());
                    served += 1;
                    item = item
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(worker as u64);
                }
                (served, latencies)
            })
        })
        .collect();

    // Ingest: repeat the trace until the minimum wall time has elapsed,
    // so the clients measure against a moving stream throughout.
    let started = Instant::now();
    loop {
        pipeline.extend(items);
        if started.elapsed().as_secs_f64() >= min_secs {
            break;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Release);
    let mut total = 0u64;
    let mut latency = LatencySeries::new();
    for handle in clients {
        let (served, latencies) = handle.join().expect("client thread panicked");
        total += served;
        // The first queries of a connection are cold (handler spawn,
        // buffer growth, arena cold start); quantiles are steady state.
        for observed in latencies.into_iter().skip(16) {
            latency.record(observed);
        }
    }
    let counters = server.counters();
    let coalesced_share = counters.coalesced.get() as f64 / counters.accepted.get().max(1) as f64;
    drop(server);
    pipeline.drain();
    pipeline.finish();
    Point {
        mode: "point",
        clients: CLIENTS,
        queries: total,
        serve_qps: Some(finite(total as f64 / elapsed)),
        p50_query_ms: Some(finite(latency.p50_secs() * 1e3)),
        p99_query_ms: Some(finite(latency.p99_secs() * 1e3)),
        coalesced_share: Some(finite(coalesced_share)),
        allocs_per_query: None,
    }
}

/// Lane 2: push-mode subscribers at a fixed cadence under live ingest.
fn run_subscribe_lane(items: &[u64], seed: u64, min_secs: f64) -> Point {
    let interval = Duration::from_millis(10);
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), make_sketch(seed));
    let server = serve(
        "127.0.0.1:0",
        pipeline.live_handle(),
        ServeConfig::default(),
    )
    .expect("bind a loopback socket");
    let addr = server.addr();
    let candidates: Vec<u64> = items
        .iter()
        .step_by(items.len() / 256 + 1)
        .copied()
        .collect();
    pipeline.extend(items);

    let deadline = Duration::from_secs_f64(min_secs);
    let subscribers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let candidates = candidates.clone();
            std::thread::spawn(move || {
                let client = QueryClient::connect(addr).expect("connect");
                let mut sub = client
                    .subscribe(8, interval, &candidates)
                    .expect("subscribe");
                sub.set_timeout(Some(Duration::from_secs(5)))
                    .expect("timeout");
                let started = Instant::now();
                let mut received = 0u64;
                while started.elapsed() < deadline {
                    sub.next_update().expect("pushed update");
                    received += 1;
                }
                received
            })
        })
        .collect();

    // Keep the stream moving so every push serves a fresh view.
    let started = Instant::now();
    while started.elapsed() < deadline {
        pipeline.extend(&items[..items.len().min(4_096)]);
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut received = 0u64;
    for handle in subscribers {
        received += handle.join().expect("subscriber thread panicked");
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop(server);
    pipeline.drain();
    pipeline.finish();
    Point {
        mode: "subscribe",
        clients: CLIENTS,
        queries: received,
        serve_qps: Some(finite(received as f64 / elapsed)),
        p50_query_ms: None,
        p99_query_ms: None,
        coalesced_share: None,
        allocs_per_query: None,
    }
}

/// Lane 3: the allocation discipline, measured process-wide.  Ingest is
/// quiesced and the coalescer's cached view warm under an effectively
/// infinite policy, so the counter isolates the steady-state serve path:
/// client encode → server frame read → decode → admission → coalesced
/// cache hit → point estimate → response encode → client decode.
fn run_alloc_lane(items: &[u64], seed: u64) -> Point {
    const QUERIES: u64 = 512;
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), make_sketch(seed));
    let config = ServeConfig {
        cache: CachePolicy::new(Duration::from_secs(3_600), u64::MAX),
        coalesce_window: Duration::ZERO,
        ..Default::default()
    };
    let server =
        serve("127.0.0.1:0", pipeline.live_handle(), config).expect("bind a loopback socket");
    pipeline.extend(items);
    pipeline.drain();

    let mut client = QueryClient::connect(server.addr()).expect("connect");
    let mut sink = 0i64;
    // Warm-up: connection handler spawn, buffer growth on both sides, and
    // the one cached snapshot assembly.
    for &item in items.iter().take(8) {
        sink ^= client.point(item).expect("warm-up query").estimate;
    }
    let before = heap_allocations();
    for i in 0..QUERIES {
        let item = items[i as usize % items.len()];
        sink ^= client.point(item).expect("steady-state query").estimate;
    }
    let allocs = heap_allocations() - before;
    std::hint::black_box(sink);
    drop(client);
    drop(server);
    pipeline.finish();
    Point {
        mode: "alloc",
        clients: 1,
        queries: QUERIES,
        serve_qps: None,
        p50_query_ms: None,
        p99_query_ms: None,
        coalesced_share: None,
        allocs_per_query: Some(finite(allocs as f64 / QUERIES as f64)),
    }
}

fn opt(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_string(), fmt)
}

fn main() {
    let args = Args::parse(400_000, 1);
    let json_path = parse_json_path();
    let min_secs = if args.quick { 0.4 } else { 2.0 };
    let items = trace_items(
        TraceSpec::Zipf {
            universe: 100_000,
            skew: 1.0,
        },
        args.updates,
        args.seed,
    );

    csv_header(&[
        "mode",
        "clients",
        "queries",
        "serve_qps",
        "p50_query_ms",
        "p99_query_ms",
        "coalesced_share",
        "allocs_per_query",
    ]);
    let points = [
        run_point_lane(&items, args.seed, min_secs),
        run_subscribe_lane(&items, args.seed, min_secs),
        run_alloc_lane(&items, args.seed),
    ];
    for p in &points {
        csv_row(&[
            p.mode.to_string(),
            format!("{}", p.clients),
            format!("{}", p.queries),
            opt(p.serve_qps),
            opt(p.p50_query_ms),
            opt(p.p99_query_ms),
            opt(p.coalesced_share),
            opt(p.allocs_per_query),
        ]);
    }

    if let Some(path) = json_path {
        let mut json = String::from("{\n");
        json.push_str("  \"bench\": \"fig_serve\",\n");
        json.push_str("  \"sketch\": \"salsa_cms_sum\",\n");
        json.push_str(&format!("  \"updates\": {},\n", args.updates));
        json.push_str(&format!("  \"seed\": {},\n", args.seed));
        json.push_str("  \"points\": [\n");
        for (i, p) in points.iter().enumerate() {
            let mut fields = vec![
                format!("\"mode\": \"{}\"", p.mode),
                format!("\"clients\": {}", p.clients),
                format!("\"queries\": {}", p.queries),
            ];
            if let Some(v) = p.serve_qps {
                fields.push(format!("\"serve_qps\": {v:.3}"));
            }
            if let Some(v) = p.p50_query_ms {
                fields.push(format!("\"p50_query_ms\": {v:.4}"));
            }
            if let Some(v) = p.p99_query_ms {
                fields.push(format!("\"p99_query_ms\": {v:.4}"));
            }
            if let Some(v) = p.coalesced_share {
                fields.push(format!("\"coalesced_share\": {v:.4}"));
            }
            if let Some(v) = p.allocs_per_query {
                fields.push(format!("\"allocs_per_query\": {v:.4}"));
            }
            json.push_str(&format!(
                "    {{{}}}{}\n",
                fields.join(", "),
                if i + 1 == points.len() { "" } else { "," }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json)
            .unwrap_or_else(|e| panic!("failed to write perf snapshot {path}: {e}"));
        eprintln!("wrote perf snapshot to {path}");
    }
}
