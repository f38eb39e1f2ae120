//! End-to-end tests of the `salsa-serve` network frontend over a live
//! elastic pipeline: real loopback sockets, real worker threads, real
//! rescales and injected shard deaths.
//!
//! The acceptance bar: a server fronting an ingesting pipeline must keep
//! answering concurrent clients through a 1 → 2 rescale *and* an injected
//! shard panic — per-client epochs monotone, coverage metadata naming the
//! dead shard exactly — and under deliberate overload it must shed with
//! typed `Overloaded` responses while ingestion keeps acknowledging, never
//! by stalling the pipeline or the accept loop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use salsa_core::prelude::*;
use salsa_pipeline::{silence_worker_panics, FaultPlan, PipelineConfig, ShardedPipeline};
use salsa_serve::{serve, AdmissionConfig, ClientError, ErrorCode, QueryClient, ServeConfig};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

const UNIVERSE: usize = 2_000;
const UPDATES: usize = 40_000;

fn trace() -> Vec<u64> {
    TraceSpec::Zipf {
        universe: UNIVERSE,
        skew: 1.0,
    }
    .generate(UPDATES, 47)
    .items()
    .to_vec()
}

fn make_cms() -> impl FnMut(usize) -> CountMin<SimpleSalsaRow> + Send + 'static {
    |_| CountMin::salsa(4, 2048, 8, MergeOp::Sum, 19)
}

/// The headline scenario: four concurrent clients query through a rescale
/// and a scripted worker panic.  Every client's epoch sequence stays
/// monotone, generations never regress, and the post-mortem view's
/// coverage names the gap: one dead shard, uncovered items counted.
#[test]
fn serves_across_rescale_and_shard_death_with_monotone_epochs() {
    silence_worker_panics();
    let items = trace();
    // Shard 1 only exists in generation 1 (the pipeline starts with one
    // shard), so the panic is guaranteed to land after the rescale.
    let plan = Arc::new(FaultPlan::new().panic_shard(1, 2_000));
    let config = PipelineConfig::new(1)
        .batch_size(256)
        .chaos(Arc::clone(&plan));
    let mut pipeline = ShardedPipeline::new(&config, make_cms());
    let server = serve(
        "127.0.0.1:0",
        pipeline.live_handle(),
        ServeConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.addr();

    let done = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(addr).expect("connect");
                client
                    .set_timeout(Some(Duration::from_secs(5)))
                    .expect("timeout");
                let mut epochs = Vec::new();
                let mut generations = Vec::new();
                while !done.load(Ordering::Acquire) {
                    match client.point(c as u64) {
                        Ok(answer) => {
                            epochs.push(answer.meta.epoch);
                            generations.push(answer.meta.generation);
                        }
                        Err(ClientError::Overloaded { .. }) => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(e) => panic!("client {c} query failed: {e}"),
                    }
                }
                (epochs, generations)
            })
        })
        .collect();

    pipeline.extend(&items[..10_000]);
    let event = pipeline.rescale(2).expect("1 -> 2 rescale");
    assert_eq!((event.from_shards, event.to_shards), (1, 2));
    pipeline.extend(&items[10_000..]);
    let epoch = pipeline.drain();
    assert_eq!(epoch, UPDATES as u64, "drain degrades past the death");
    assert_eq!(plan.fired(), 1, "the scripted panic fired exactly once");

    // A fresh query after the cache TTL sees the final, degraded truth.
    std::thread::sleep(Duration::from_millis(10));
    let mut probe = QueryClient::connect(addr).expect("connect probe");
    let answer = probe.point(0).expect("degraded view still serves");
    assert_eq!(answer.meta.generation, 1, "one completed rescale");
    assert_eq!(
        answer.meta.shards_failed, 1,
        "coverage names the dead shard"
    );
    assert_eq!(answer.meta.shards_ok, 1);
    assert!(
        answer.meta.uncovered_items > 0,
        "the dead shard's items are counted as uncovered"
    );
    assert!(answer.meta.epoch < UPDATES as u64, "lost items missing");

    done.store(true, Ordering::Release);
    for handle in clients {
        let (epochs, generations) = handle.join().expect("client thread panicked");
        assert!(!epochs.is_empty(), "every client was served");
        assert!(
            epochs.windows(2).all(|w| w[0] <= w[1]),
            "served epochs must be monotone per client: {epochs:?}"
        );
        assert!(
            generations.windows(2).all(|w| w[0] <= w[1]),
            "served generations must be monotone per client: {generations:?}"
        );
    }
    drop(server);
    let out = pipeline.finish();
    assert_eq!(out.rescales(), 1, "the survivors still merge and report");
}

/// Overload sheds instead of stalling: with a tiny in-flight cap and a
/// wide coalescing window, eight hammering clients see typed `Overloaded`
/// responses carrying the configured backoff hint, while the pipeline
/// behind the server keeps ingesting to a full drain.  The measured-load
/// path sheds too: a backlog published into the shared gauges (what a
/// `LoadMonitor` whose gauges are the config's `load` does in production)
/// turns queries away until it clears.
#[test]
fn overload_sheds_with_typed_responses_while_ingest_continues() {
    let items = trace();
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2).batch_size(64), make_cms());
    let config = ServeConfig {
        coalesce_window: Duration::from_millis(2),
        admission: AdmissionConfig {
            max_inflight: 2,
            max_pending_items: 10_000.0,
            retry_after: Duration::from_millis(7),
        },
        ..Default::default()
    };
    let load = Arc::clone(&config.load);
    let server = serve("127.0.0.1:0", pipeline.live_handle(), config).expect("bind loopback");
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..8)
        .map(|c| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(addr).expect("connect");
                client
                    .set_timeout(Some(Duration::from_secs(5)))
                    .expect("timeout");
                let (mut served, mut shed) = (0u64, 0u64);
                while !stop.load(Ordering::Acquire) {
                    match client.point(c as u64) {
                        Ok(_) => served += 1,
                        Err(ClientError::Overloaded { retry_after_ms }) => {
                            assert_eq!(retry_after_ms, 7, "the configured hint rides the wire");
                            shed += 1;
                        }
                        Err(e) => panic!("hammer {c} failed: {e}"),
                    }
                }
                (served, shed)
            })
        })
        .collect();

    // Ingest the whole trace while the hammers saturate the query path.
    for chunk in items.chunks(4_096) {
        pipeline.extend(chunk);
        std::thread::sleep(Duration::from_millis(10));
    }
    let epoch = pipeline.drain();
    assert_eq!(epoch, UPDATES as u64, "ingest never stalled behind queries");
    stop.store(true, Ordering::Release);
    let (mut served, mut shed) = (0u64, 0u64);
    for handle in hammers {
        let (s, r) = handle.join().expect("hammer thread panicked");
        served += s;
        shed += r;
    }
    assert!(served > 0, "admitted queries were answered");
    assert!(
        shed > 0,
        "eight clients against a cap of two must shed ({served} served)"
    );
    assert_eq!(server.counters().shed.get(), shed);
    assert_eq!(server.counters().accepted.get(), served);

    // The measured-load branch: a published backlog above the watermark
    // refuses queries without taking a slot; clearing it re-admits.
    load.pending_items.set(1e9);
    let mut probe = QueryClient::connect(addr).expect("connect probe");
    match probe.point(0) {
        Err(ClientError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 7),
        other => panic!("backlog above watermark must shed, got {other:?}"),
    }
    load.pending_items.set(0.0);
    probe.point(0).expect("cleared backlog re-admits");
    drop(server);
    pipeline.finish();
}

/// Push mode: a subscription streams seq-stamped top-k updates with
/// monotone epochs, a zero-k handshake is a typed `BadRequest`, the wire
/// stats agree with the server's counters, and a finished pipeline ends
/// the stream with a typed `Finished` — client loops terminate cleanly.
#[test]
fn subscriptions_stream_monotone_updates_and_finish_typed() {
    let items = trace();
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), make_cms());
    let server = serve(
        "127.0.0.1:0",
        pipeline.live_handle(),
        ServeConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.addr();
    pipeline.extend(&items);
    pipeline.drain();

    // A structurally invalid handshake gets a typed refusal, not a hang.
    let bad = QueryClient::connect(addr).expect("connect");
    let mut bad_sub = bad
        .subscribe(0, Duration::from_millis(20), &[1, 2, 3])
        .expect("handshake bytes go out");
    match bad_sub.next_update() {
        Err(ClientError::Server(ErrorCode::BadRequest)) => {}
        other => panic!("k = 0 must be a typed BadRequest, got {other:?}"),
    }

    let candidates: Vec<u64> = (0..64).collect();
    let client = QueryClient::connect(addr).expect("connect");
    let mut sub = client
        .subscribe(5, Duration::from_millis(25), &candidates)
        .expect("subscribe");
    sub.set_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut updates = Vec::new();
    while updates.len() < 3 {
        updates.push(sub.next_update().expect("pushed update"));
    }
    assert!(
        updates.windows(2).all(|w| w[0].seq < w[1].seq),
        "seq is strictly increasing"
    );
    assert!(
        updates
            .windows(2)
            .all(|w| w[0].meta.epoch <= w[1].meta.epoch),
        "pushed epochs are monotone"
    );
    for update in &updates {
        assert!(update.entries.len() <= 5);
        assert!(
            update.entries.windows(2).all(|w| w[0].1 >= w[1].1),
            "top-k entries arrive largest first"
        );
        assert_eq!(update.meta.epoch, UPDATES as u64, "drained view is full");
    }

    // The wire stats agree with the server-side counters.  (Only the
    // subscription is running; it touches neither accepted nor shed.)
    let mut stats_client = QueryClient::connect(addr).expect("connect");
    let stats = stats_client.stats().expect("stats");
    assert_eq!(stats.subscribed, server.counters().subscribed.get());
    assert_eq!(stats.subscribed, 1, "only the accepted handshake counts");
    assert_eq!(stats.accepted, server.counters().accepted.get());
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.acknowledged, UPDATES as u64);
    assert!(stats.cache_hits + stats.cache_misses > 0);
    assert!(
        server.cache_gauges().misses.get() > 0,
        "the cache gauges count the coalescer's misses"
    );

    // A finished pipeline ends the stream with a typed Finished within a
    // few ticks (the coalescer's staleness budget may re-serve the last
    // view once).
    pipeline.finish();
    let finished = loop {
        match sub.next_update() {
            Ok(_) => continue,
            Err(err) => break err,
        }
    };
    match finished {
        ClientError::Server(ErrorCode::Finished) => {}
        other => panic!("a finished pipeline must end the stream typed, got {other:?}"),
    }
    drop(server);
}
