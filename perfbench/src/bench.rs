//! The two workloads, their output checks and their measurements.
//!
//! Both workloads drive the whole service: a seeded `TraceSpec::CaidaNy18`
//! stream is pushed on a fixed schedule into a 2-shard `ShardedPipeline`
//! under `PipelineConfig` defaults and drained, `salsa-serve` answers
//! closed-loop queries over it under `ServeConfig::default()` (every
//! snapshot assembly folds the two shards' SALSA sketches), and at the end
//! the final answers are read back over the wire and checked.  They differ
//! in which side carries the load:
//!
//! * `ingest` — ingest passes, each into a fresh pipeline, for most of the
//!   run, then a short query phase over the last one;
//! * `query` — one slower ingest pass, then queries for the whole measured
//!   time.
//!
//! The host lends this machine more or less of its two vCPUs from one
//! moment to the next; CPU-bound figures are taken over the stretches in
//! which the hypervisor stole the least of them (`steal` in `/proc/stat`).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Builder;
use std::time::{Duration, Instant};

use salsa_core::traits::Row;
use salsa_metrics::HealthCounters;
use salsa_pipeline::{
    FrequencyQueries, LiveHandle, PipelineConfig, PipelineOutput, ShardedPipeline, SnapshotSummary,
};
use salsa_serve::wire::MAX_CANDIDATES;
use salsa_serve::{serve, ServeConfig, ServerHandle};
use salsa_workloads::TraceSpec;

use crate::client::{self, Check, Conn, QueryMix, ServeTally};
use crate::trace::{self, Traced, TracedSource};
use crate::{alloc, cpu, replay, sketch, Cms, Metric, WIDTH};

/// Items in the generated stream.
const STREAM_LEN: usize = 4_000_000;
/// Heavy hitters: keys with at least this share of the stream.
const HEAVY_SHARE: f64 = 1e-4;
/// Cold bring-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Share of `--seconds` the `ingest` workload spends on ingest passes; the
/// rest is its query phase.  An even split gives a 40-second run about
/// twenty passes and twenty query windows to keep the calmest quarter of.
const INGEST_SHARE: f64 = 0.5;
/// Shards of every pipeline.  With one shard a snapshot is a copy without
/// a fold, and a query's cost is mostly thread wake-ups across the two
/// vCPUs: over whole runs the host moved that 1-shard query CPU by up to
/// 45%, and it spread 0.25 over ten seeds, against 0.09–0.14 for the
/// 2-shard fold.
const SHARDS: usize = 2;
/// Every workload pushes its stream in 2048-item chunks on a fixed
/// schedule, in items per second.  Max-rate ingest keeps the producer and
/// a shard worker busy on both vCPUs at once, and both slow down together
/// for whole runs with where the host places the VM: over ten seeds its
/// CPU per item spread 0.22, and one seed read 106 and 84 ns/item in two
/// runs.  A paced producer leaves the threads idle between chunks.
/// `ingest_mops` therefore reads the paced rate unless ingest falls below
/// it, and `cpu_ns_per_item` carries the cost of ingest.
const INGEST_RATE: f64 = 4_000_000.0;
const QUERY_LOAD_RATE: f64 = 2_000_000.0;
const PACED_CHUNK: usize = 2048;
/// Share of the ingest passes and of the query windows that figures are
/// at least taken over: those in which the hypervisor stole the least
/// time.  Per one-second query window, steal tracked answers per second at
/// a correlation of -0.9, and the CPU per query at 0.6-0.8.
const CALM_SHARE: f64 = 0.25;

/// Thread names, as `/proc/self/task/*/comm` shows them (15 bytes at most).
const PRODUCER_THREAD: &str = "bench-producer";
const CLIENT_THREAD: &str = "bench-client";
const SHARD_THREADS: &str = "salsa-shard-";
const HANDLER_THREADS: &str = "salsa-serve-con";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Query,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "query" => Some(Workload::Query),
            _ => None,
        }
    }
}

/// The summary and snapshot-source types a run uses: the bare ones, or the
/// tracing wrappers around them.
pub trait Flavor {
    type S: SnapshotSummary + FrequencyQueries + Send + Sync + 'static;
    fn summary(seed: u64) -> Self::S;
    fn cms(summary: &Self::S) -> &Cms;
    fn serve(handle: LiveHandle<Self::S>) -> ServerHandle;
}

pub struct Plain;

impl Flavor for Plain {
    type S = Cms;
    fn summary(seed: u64) -> Cms {
        sketch(seed)
    }
    fn cms(summary: &Cms) -> &Cms {
        summary
    }
    fn serve(handle: LiveHandle<Cms>) -> ServerHandle {
        serve("127.0.0.1:0", handle, ServeConfig::default()).expect("bind a loopback socket")
    }
}

pub struct Instrumented;

impl Flavor for Instrumented {
    type S = Traced<Cms>;
    fn summary(seed: u64) -> Traced<Cms> {
        Traced(sketch(seed))
    }
    fn cms(summary: &Traced<Cms>) -> &Cms {
        &summary.0
    }
    fn serve(handle: LiveHandle<Traced<Cms>>) -> ServerHandle {
        serve("127.0.0.1:0", TracedSource(handle), ServeConfig::default())
            .expect("bind a loopback socket")
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, count: u64, why: String) {
        if count > 0 {
            self.failed += count;
            self.failures.push(why);
        }
    }

    fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }
}

/// The seeded inputs of a run, all built before anything is timed.
struct Inputs {
    seed: u64,
    stream: Vec<u64>,
    /// Unsharded single-threaded sketch of the stream: every answer must
    /// equal this sketch's.
    reference: Cms,
    reference_ns: u64,
    /// Exact heavy hitters of the stream: (key, count).
    heavy: Vec<(u64, u64)>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let trace = TraceSpec::CaidaNy18.generate(STREAM_LEN, seed);
        let stream = trace.items().to_vec();
        drop(trace);
        let mut reference = sketch(seed);
        let started = Instant::now();
        for batch in stream.chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
            reference.update_batch(batch);
        }
        let reference_ns = started.elapsed().as_nanos() as u64;
        let mut sorted = stream.clone();
        sorted.sort_unstable();
        let threshold = (HEAVY_SHARE * stream.len() as f64).ceil() as u64;
        let mut heavy = Vec::new();
        for run in sorted.chunk_by(|a, b| a == b) {
            if run.len() as u64 >= threshold {
                heavy.push((run[0], run.len() as u64));
            }
        }
        Self {
            seed,
            stream,
            reference,
            reference_ns,
            heavy,
        }
    }

    fn items(&self) -> u64 {
        self.stream.len() as u64
    }
}

/// One timed ingest phase: from the first push until `drain` returned.
#[derive(Debug, Default, Clone, Copy)]
struct Pass {
    items: u64,
    wall_ns: u64,
    extend_ns: u64,
    proc_ns: u64,
    producer_ns: u64,
    producer_extend_ns: u64,
    shard_ns: u64,
    busy_ns: u64,
    batches: u64,
    allocs: u64,
    /// Share of the machine's ticks the hypervisor stole during the pass.
    steal: f64,
}

fn sum(passes: &[Pass], field: impl Fn(&Pass) -> u64) -> f64 {
    passes.iter().map(field).sum::<u64>() as f64
}

/// Pushes the stream into the pipeline in chunks, `rate` items per
/// second, then drains.  Runs on the producer thread.  Shard-worker CPU is
/// read before the caller finishes the pipeline, while the worker threads
/// are still alive.
fn timed_ingest<S: SnapshotSummary>(
    pipeline: &mut ShardedPipeline<S>,
    stream: &[u64],
    rate: f64,
) -> Pass {
    let mut pass = Pass {
        items: stream.len() as u64,
        ..Pass::default()
    };
    let allocs = alloc::allocations();
    let proc = cpu::process_ns();
    let producer = cpu::thread_ns();
    let host = cpu::host_ticks();
    let started = Instant::now();
    for (index, chunk) in stream.chunks(PACED_CHUNK).enumerate() {
        let due = started + Duration::from_secs_f64((index * PACED_CHUNK) as f64 / rate);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let extend_cpu = cpu::thread_ns();
        let extend_started = Instant::now();
        pipeline.extend(chunk);
        pass.extend_ns += extend_started.elapsed().as_nanos() as u64;
        pass.producer_extend_ns += cpu::thread_ns() - extend_cpu;
    }
    pipeline.drain();
    pass.wall_ns = started.elapsed().as_nanos() as u64;
    pass.steal = cpu::steal_share(host, cpu::host_ticks());
    pass.producer_ns = cpu::thread_ns() - producer;
    pass.proc_ns = cpu::process_ns() - proc;
    pass.allocs = alloc::allocations() - allocs;
    pass.shard_ns = cpu::group_ns(&cpu::threads(), SHARD_THREADS);
    pass.busy_ns = pipeline
        .shard_loads()
        .iter()
        .map(|load| (load.busy_secs * 1e9) as u64)
        .sum();
    pass
}

/// Runs `work` on the benchmark's named producer thread and waits for it.
fn on_producer<R: Send>(work: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        Builder::new()
            .name(PRODUCER_THREAD.into())
            .spawn_scoped(scope, work)
            .expect("spawn the producer thread")
            .join()
            .expect("producer thread panicked")
    })
}

/// Counters of two sketches that differ, row by row and counter by
/// counter.  Walks both rows in step without collecting them, so checking a
/// pass allocates nothing inside the heap window.
fn mismatched_counters(got: &Cms, want: &Cms) -> u64 {
    got.rows()
        .iter()
        .zip(want.rows())
        .map(|(a, b)| {
            let (mut a, mut b) = (a.counters(), b.counters());
            let mut differing = 0;
            loop {
                match (a.next(), b.next()) {
                    (None, None) => break differing,
                    (x, y) => differing += u64::from(x != y),
                }
            }
        })
        .sum()
}

/// Settles a finished pipeline: its sketch must equal the reference
/// counter for counter, and nothing may have been lost.  Records the last
/// pass's batch count and returns the pipeline's fault count and sketch.
fn settle<F: Flavor>(
    out: PipelineOutput<F::S>,
    counters: &HealthCounters,
    reference: &Cms,
    passes: &mut [Pass],
    outcome: &mut Outcome,
) -> (u64, F::S) {
    if let Some(last) = passes.last_mut() {
        last.batches = out.shards.iter().map(|s| s.batches).sum();
    }
    let mismatches = mismatched_counters(F::cms(&out.merged), reference);
    outcome.fail(
        mismatches,
        format!("{mismatches} counters differ from the reference"),
    );
    outcome.fail(out.lost_items, format!("{} items lost", out.lost_items));
    let faults = out.lost_items + counters.timeouts.get() + counters.degraded_snapshots.get();
    (faults, out.merged)
}

/// Median of a sample (0 when empty).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

/// Cold bring-up to first answer, repeated; the median in seconds: build
/// the pipeline and the server, connect, and have a first point query
/// answered.
fn setup_s<F: Flavor>(seed: u64, first_key: u64, outcome: &mut Outcome) -> f64 {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let pipeline = ShardedPipeline::new(&PipelineConfig::new(SHARDS), |_| F::summary(seed));
        let server = F::serve(pipeline.live_handle());
        let mut conns: Vec<Conn> = (0..client::CONNECTIONS)
            .map(|_| Conn::connect(server.addr()).expect("connect to the server"))
            .collect();
        let answer = conns[0].point(first_key);
        samples.push(started.elapsed().as_secs_f64());
        outcome.attempted += 1;
        match answer {
            Ok((meta, 0)) if meta.epoch == 0 && meta.is_full() => {}
            other => outcome.fail(1, format!("first answer {other:?}")),
        }
        drop(conns);
        drop(server);
        drop(pipeline.finish());
    }
    median(&mut samples)
}

/// What the server and the process did during a query phase.
struct ServeSample {
    proc_ns: u64,
    allocs: u64,
    handler_ns: u64,
    accepted: u64,
    shed: u64,
    coalesced: u64,
    hit_ratio: f64,
}

/// Runs a closed-loop query phase: the client thread queries until
/// `control` returns.
fn with_client(
    server: &ServerHandle,
    mix: &mut QueryMix,
    check: &Check,
    tally: &mut ServeTally,
    control: impl FnOnce(),
) -> ServeSample {
    let mut conns: Vec<Conn> = (0..client::CONNECTIONS)
        .map(|_| Conn::connect(server.addr()).expect("connect to the server"))
        .collect();
    let stop = AtomicBool::new(false);
    let allocs = alloc::allocations();
    let proc = cpu::process_ns();
    std::thread::scope(|scope| {
        let client = Builder::new()
            .name(CLIENT_THREAD.into())
            .spawn_scoped(scope, || client::run(&mut conns, mix, check, &stop, tally))
            .expect("spawn the client thread");
        control();
        stop.store(true, Ordering::Release);
        client.join().expect("client thread panicked");
    });
    let proc_ns = cpu::process_ns() - proc;
    let allocs = alloc::allocations() - allocs;
    // Handler threads live as long as their connections: read them first.
    let handler_ns = cpu::group_ns(&cpu::threads(), HANDLER_THREADS);
    drop(conns);
    let counters = server.counters();
    ServeSample {
        proc_ns,
        allocs,
        handler_ns,
        accepted: counters.accepted.get(),
        shed: counters.shed.get(),
        coalesced: counters.coalesced.get(),
        hit_ratio: server.cache_gauges().hit_rate(),
    }
}

/// Reads every heavy hitter's final answer back over the wire, as
/// candidate-set top-k queries naming all of them, once the stream has
/// been drained; every answer must equal the reference's.  Returns the ARE
/// of the answers against the exact counts.
fn read_back(addr: SocketAddr, inputs: &Inputs, outcome: &mut Outcome) -> f64 {
    // A view cached before the final drain may be re-served for up to the
    // cache's age bound; wait it out so every answer is final.
    std::thread::sleep(ServeConfig::default().cache.max_age * 2);
    let mut conn = Conn::connect(addr).expect("connect to the server");
    let mut are = 0.0;
    let mut wrong = 0;
    for chunk in inputs.heavy.chunks(MAX_CANDIDATES) {
        outcome.attempted += chunk.len() as u64;
        let candidates = chunk.iter().map(|&(key, _)| key).collect();
        let answers: HashMap<u64, u64> = match conn.top_k(chunk.len() as u16, candidates) {
            Ok((meta, entries))
                if meta.epoch == inputs.items()
                    && meta.is_full()
                    && meta.shards_ok == SHARDS as u32 =>
            {
                entries.into_iter().collect()
            }
            _ => HashMap::new(),
        };
        for &(key, truth) in chunk {
            let want = FrequencyQueries::estimate(&inputs.reference, key);
            match answers.get(&key) {
                Some(&estimate) if estimate as i64 == want => {
                    are += estimate.abs_diff(truth) as f64 / truth as f64;
                }
                _ => wrong += 1,
            }
        }
    }
    outcome.fail(wrong, format!("{wrong} final answers wrong or missing"));
    are / inputs.heavy.len().max(1) as f64
}

/// Everything a run measured, before it becomes metrics.
struct Measured {
    setup_s: f64,
    /// The timed ingest phases.
    passes: Vec<Pass>,
    serve: ServeSample,
    tally: ServeTally,
    heap_bytes: u64,
    hh_are: f64,
    faults: u64,
    final_sketch: Cms,
}

pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    if traced {
        run_flavor::<Instrumented>(workload, seed, seconds, true)
    } else {
        run_flavor::<Plain>(workload, seed, seconds, false)
    }
}

fn run_flavor<F: Flavor>(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let inputs = Inputs::new(seed);
    let mut outcome = Outcome::default();
    let span_ns = if traced { calibrate_span_ns() } else { 0.0 };
    let measured = measure::<F>(workload, &inputs, seconds, traced, &mut outcome);
    outcome.attempted += measured.passes.iter().map(|p| p.items).sum::<u64>();
    end_to_end(&measured, &mut outcome);
    if traced {
        layers(&inputs, &measured, span_ns, &mut outcome);
    }
    outcome
}

/// Sample buffers for a phase of `seconds`, allocated before the heap
/// baseline.
fn tally_for(seconds: f64) -> ServeTally {
    ServeTally::with_capacity((seconds * 20_000.0) as usize + 1024)
}

fn measure<F: Flavor>(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    traced: bool,
    outcome: &mut Outcome,
) -> Measured {
    let (rate, ingest_for, query_for) = match workload {
        Workload::Ingest => (
            INGEST_RATE,
            seconds * INGEST_SHARE,
            seconds * (1.0 - INGEST_SHARE),
        ),
        // A single pass: the loop below stops after the first.
        Workload::Query => (QUERY_LOAD_RATE, 0.0, seconds),
    };
    let first_key = inputs.heavy.first().map_or(1, |h| h.0);
    let setup_s = setup_s::<F>(inputs.seed, first_key, outcome);
    let mut mix = QueryMix::new(&inputs.stream, inputs.seed);
    let check = Check {
        reference: &inputs.reference,
        expected_topk: mix.expected_topks(&inputs.reference),
        epoch: inputs.items(),
        shards: SHARDS as u32,
    };
    let mut tally = tally_for(seconds);
    let mut passes = Vec::with_capacity(1024);
    let mut faults = 0;
    let passes_until = Instant::now() + Duration::from_secs_f64(ingest_for);
    let baseline = alloc::reset_peak();
    trace::set_enabled(traced);
    let pipeline = on_producer(|| loop {
        let mut pipeline =
            ShardedPipeline::new(&PipelineConfig::new(SHARDS), |_| F::summary(inputs.seed));
        passes.push(timed_ingest(&mut pipeline, &inputs.stream, rate));
        if Instant::now() >= passes_until {
            return pipeline;
        }
        let counters = Arc::clone(pipeline.counters());
        let out = pipeline.finish();
        faults += settle::<F>(out, &counters, &inputs.reference, &mut passes, outcome).0;
    });
    let server = F::serve(pipeline.live_handle());
    let serve = with_client(&server, &mut mix, &check, &mut tally, || {
        std::thread::sleep(Duration::from_secs_f64(query_for))
    });
    trace::set_enabled(false);
    let heap_bytes = alloc::peak_bytes().saturating_sub(baseline);
    let hh_are = read_back(server.addr(), inputs, outcome);
    drop(server);
    let counters = Arc::clone(pipeline.counters());
    let out = pipeline.finish();
    let (last_faults, merged) =
        settle::<F>(out, &counters, &inputs.reference, &mut passes, outcome);
    Measured {
        setup_s,
        passes,
        serve,
        tally,
        heap_bytes,
        hh_are,
        faults: faults + last_faults,
        final_sketch: F::cms(&merged).clone(),
    }
}

/// What one window of a query phase measured.
struct Window {
    qps: f64,
    cpu_us_per_query: f64,
    steal: f64,
    latency_ns: Vec<u64>,
}

fn windows(tally: &ServeTally) -> Vec<Window> {
    tally
        .marks
        .windows(2)
        .filter_map(|pair| {
            let (from, to) = (pair[0], pair[1]);
            let answers = to.answered - from.answered;
            let mut latency_ns: Vec<u64> = tally
                .answered_at_ns
                .iter()
                .zip(&tally.latency_ns)
                .filter(|(&at, _)| (from.at_ns..to.at_ns).contains(&at))
                .map(|(_, &ns)| ns)
                .collect();
            if latency_ns.is_empty() {
                return None;
            }
            latency_ns.sort_unstable();
            Some(Window {
                qps: answers as f64 / (to.at_ns - from.at_ns) as f64 * 1e9,
                cpu_us_per_query: (to.process_ns - from.process_ns) as f64 / answers as f64 / 1e3,
                steal: cpu::steal_share(from.host_ticks, to.host_ticks),
                latency_ns,
            })
        })
        .collect()
}

/// The samples in which the hypervisor stole no more time than in the
/// calmest `CALM_SHARE` of them (every sample, when none was stolen from).
/// A stretch of host contention shorter than the rest of the run does not
/// move a figure taken over them, and a slower program is slower in every
/// sample.
fn calm<T>(mut samples: Vec<T>, steal: impl Fn(&T) -> f64) -> Vec<T> {
    samples.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    let quarter = ((samples.len() as f64 * CALM_SHARE).ceil() as usize).max(1);
    if let Some(bound) = samples.get(quarter - 1).map(&steal) {
        samples.retain(|sample| steal(sample) <= bound);
    }
    samples
}

fn end_to_end(m: &Measured, outcome: &mut Outcome) {
    let tally = &m.tally;
    outcome.attempted += tally.sent;
    outcome.fail(
        tally.failed,
        format!(
            "{} queries failed, first: {}",
            tally.failed,
            tally.first_failure.as_deref().unwrap_or("-")
        ),
    );
    let all_windows = windows(tally);
    let mut steal: Vec<f64> = all_windows.iter().map(|w| w.steal).collect();
    let windows = calm(all_windows, |w| w.steal);
    let per_window =
        |value: fn(&Window) -> f64| median(&mut windows.iter().map(value).collect::<Vec<_>>());
    outcome.e2e("setup_s", m.setup_s, "s");
    let passes = calm(m.passes.clone(), |p| p.steal);
    let items = sum(&passes, |p| p.items);
    outcome.e2e(
        "ingest_mops",
        items / sum(&passes, |p| p.wall_ns) * 1e3,
        "Mitem/s",
    );
    outcome.e2e(
        "cpu_ns_per_item",
        sum(&passes, |p| p.proc_ns) / items,
        "ns/item",
    );
    outcome.e2e("query_qps", per_window(|w| w.qps), "query/s");
    outcome.e2e(
        "query_p50_ms",
        per_window(|w| quantile(&w.latency_ns, 0.5) / 1e6),
        "ms",
    );
    outcome.e2e(
        "query_cpu_us",
        per_window(|w| w.cpu_us_per_query),
        "us/query",
    );
    outcome.e2e("hh_are", m.hh_are, "ratio");
    outcome.e2e("heap_mb", m.heap_bytes as f64 / 1e6, "MB");
    steal.extend(m.passes.iter().map(|p| p.steal));
    outcome.notes.push(format!(
        "{} ingest passes ({} kept), {} queries answered ({} top-k), {} latency samples in {} \
         windows ({} kept); median host steal {:.3}",
        m.passes.len(),
        passes.len(),
        tally.answered,
        tally.topk,
        tally.latency_ns.len(),
        tally.marks.len().saturating_sub(1),
        windows.len(),
        median(&mut steal),
    ));
    // The tail follows the host more than the program, so it is printed,
    // not reported as a metric.
    outcome.notes.push(format!(
        "query latency p90 {:.3} ms (median over the kept windows, not gated)",
        per_window(|w| quantile(&w.latency_ns, 0.9) / 1e6),
    ));
}

/// The cost of recording one span, measured on this thread.
fn calibrate_span_ns() -> f64 {
    const SPANS: u32 = 20_000;
    trace::set_enabled(true);
    let started = Instant::now();
    for _ in 0..SPANS {
        drop(trace::enter("calibration"));
    }
    let ns = started.elapsed().as_nanos() as f64 / f64::from(SPANS);
    trace::set_enabled(false);
    trace::clear();
    ns
}

fn layers(inputs: &Inputs, m: &Measured, span_ns: f64, outcome: &mut Outcome) {
    let spans = trace::spans();
    let self_ns = trace::self_times(&spans);
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let items = sum(&m.passes, |p| p.items);
    let batches = sum(&m.passes, |p| p.batches).max(1.0);
    let wall = sum(&m.passes, |p| p.wall_ns);
    let answered = m.tally.answered.max(1) as f64;

    outcome.layer(
        "hash.ns_per_key",
        replay::hash_ns_per_key(&inputs.stream),
        "ns/key",
    );
    outcome.layer(
        "core.row.ns_per_add",
        replay::row_ns_per_add(&inputs.stream, &inputs.reference),
        "ns/add",
    );
    let rows = m.final_sketch.rows();
    let merge_events: u64 = rows.iter().map(|r| r.merge_events()).sum();
    let merged_slots: usize = rows
        .iter()
        .map(|r| (0..r.width()).filter(|&i| r.level_of(i) >= 1).count())
        .sum();
    outcome.layer("core.row.merge_events", merge_events as f64, "count");
    outcome.layer(
        "core.row.merged_slot_share",
        merged_slots as f64 / (rows.len() * WIDTH) as f64,
        "ratio",
    );
    outcome.layer(
        "sketches.cms.ingest_ns_per_item",
        inputs.reference_ns as f64 / inputs.items() as f64,
        "ns/item",
    );
    let mut keys_mix = QueryMix::new(&inputs.stream, inputs.seed ^ 1);
    let keys: Vec<u64> = (0..1_000_000)
        .map(|_| match keys_mix.next() {
            client::Kind::Point(key) => key,
            client::Kind::TopK(set) => keys_mix.topk_set(set)[0],
        })
        .collect();
    let estimate_ns = replay::estimate_ns(&keys, &inputs.reference);
    outcome.layer("sketches.cms.estimate_ns", estimate_ns, "ns");

    // A worker copies into a recycled buffer when the requester attached
    // one, and clones otherwise: both are the snapshot's per-shard copy.
    let copies: Vec<u64> = named(trace::COPY)
        .chain(named(trace::CLONE))
        .map(|s| s.ns())
        .collect();
    outcome.layer(
        "sketches.cms.copy_us",
        copies.iter().sum::<u64>() as f64 / copies.len().max(1) as f64 / 1e3,
        "us",
    );
    let assemblies: Vec<&trace::Span> = named(trace::ASSEMBLE).collect();
    let n_assemblies = assemblies.len().max(1) as f64;
    let fold_ns: u64 = named(trace::FOLD).map(|s| s.ns()).sum();
    outcome.layer(
        "sketches.cms.fold_ms",
        fold_ns as f64 / n_assemblies / 1e6,
        "ms",
    );

    outcome.layer(
        "pipeline.producer.ns_per_item",
        sum(&m.passes, |p| p.producer_ns) / items,
        "ns/item",
    );
    outcome.layer(
        "pipeline.producer.blocked_share",
        1.0 - sum(&m.passes, |p| p.producer_extend_ns) / sum(&m.passes, |p| p.extend_ns).max(1.0),
        "ratio",
    );
    outcome.layer(
        "pipeline.producer.allocs_per_batch",
        sum(&m.passes, |p| p.allocs) / batches,
        "allocs/batch",
    );
    let busy = sum(&m.passes, |p| p.busy_ns);
    let shard_cpu = sum(&m.passes, |p| p.shard_ns);
    outcome.layer(
        "pipeline.worker.busy_share",
        busy / (wall * SHARDS as f64).max(1.0),
        "ratio",
    );
    let ingest_self: u64 = named(trace::INGEST).map(|s| self_ns[&s.id]).sum();
    outcome.layer(
        "pipeline.worker.ns_per_item",
        ingest_self as f64 / items,
        "ns/item",
    );
    outcome.layer(
        "pipeline.worker.overhead_ns_per_batch",
        (shard_cpu - trace::ingest_cpu_ns() as f64) / batches,
        "ns/batch",
    );
    let proc = sum(&m.passes, |p| p.proc_ns);
    let producer = sum(&m.passes, |p| p.producer_ns);
    outcome.layer(
        "pipeline.unexplained_ns_per_item",
        (proc - producer - shard_cpu) / items,
        "ns/item",
    );

    outcome.layer(
        "pipeline.snapshot.assemblies",
        assemblies.len() as f64,
        "count",
    );
    let assembly_ns: u64 = assemblies.iter().map(|s| s.ns()).sum();
    outcome.layer(
        "pipeline.snapshot.assembly_ms",
        assembly_ns as f64 / n_assemblies / 1e6,
        "ms",
    );
    let mut wait_ns = 0u64;
    for assembly in &assemblies {
        let children = spans.iter().filter(|s| s.parent == assembly.id);
        let (mut fold, mut copy) = (0, 0);
        for child in children {
            match child.name {
                trace::FOLD => fold += child.ns(),
                _ => copy = copy.max(child.ns()),
            }
        }
        wait_ns += assembly.ns().saturating_sub(fold + copy);
    }
    outcome.layer(
        "pipeline.snapshot.wait_ms",
        wait_ns as f64 / n_assemblies / 1e6,
        "ms",
    );
    outcome.layer("pipeline.cache.hit_ratio", m.serve.hit_ratio, "ratio");
    outcome.layer("pipeline.health.faults", m.faults as f64, "count");

    let s = &m.serve;
    outcome.layer(
        "serve.coalesce.shared_share",
        s.coalesced as f64 / s.accepted.max(1) as f64,
        "ratio",
    );
    outcome.layer(
        "serve.shed.refused_share",
        s.shed as f64 / (s.accepted + s.shed).max(1) as f64,
        "ratio",
    );
    let codec_ns = replay::codec_ns_per_query(
        &mut QueryMix::new(&inputs.stream, inputs.seed),
        20_000,
        &inputs.reference,
    );
    outcome.layer("serve.wire.codec_ns", codec_ns, "ns/query");
    outcome.layer(
        "serve.handler.cpu_us_per_query",
        s.handler_ns as f64 / answered / 1e3,
        "us/query",
    );
    outcome.layer(
        "serve.allocs_per_query",
        s.allocs as f64 / answered,
        "allocs/query",
    );
    let latency = &m.tally.latency_ns;
    let mean_latency = latency.iter().sum::<u64>() as f64 / latency.len().max(1) as f64;
    let rounds = s.accepted.saturating_sub(s.coalesced).max(1) as f64;
    let window = ServeConfig::default().coalesce_window.as_nanos() as f64;
    let estimate_share = named(trace::ESTIMATE).map(|s| s.ns()).sum::<u64>() as f64 / answered;
    let explained = window + assembly_ns as f64 / rounds + estimate_share + codec_ns;
    outcome.layer(
        "serve.unexplained_ms",
        (mean_latency - explained) / 1e6,
        "ms",
    );

    outcome.layer(
        "trace.overhead_share",
        spans.len() as f64 * span_ns / (proc + s.proc_ns as f64).max(1.0),
        "ratio",
    );
    outcome.notes.push(format!(
        "trace: {} spans at {span_ns:.0} ns each; mean query latency {:.3} ms = window {:.3} \
         + assembly share {:.3} + estimate {:.4} + codec {:.4} + unexplained",
        spans.len(),
        mean_latency / 1e6,
        window / 1e6,
        assembly_ns as f64 / rounds / 1e6,
        estimate_share / 1e6,
        codec_ns / 1e6,
    ));
    outcome.notes.push(format!(
        "ingest CPU per item: process {:.1} ns = producer {:.1} + shard workers {:.1} + unexplained",
        proc / items,
        producer / items,
        shard_cpu / items,
    ));
}
