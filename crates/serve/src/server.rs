//! The TCP query server: accept loop, per-connection handlers, push-mode
//! subscriptions, graceful shutdown.
//!
//! Dependency-free (`std::net`, blocking I/O, one thread per connection):
//! the server's job is to be a thin, allocation-disciplined front for a
//! [`SnapshotSource`], not an async runtime.  Per connection, the steady
//! state re-uses one header buffer, one payload buffer and one output
//! buffer; a point query's whole path — frame read, decode, coalesced view
//! ([`Coalescer`]), estimate, encode, write — allocates nothing once those
//! buffers are warm.
//!
//! Shutdown: [`ServerHandle::shutdown`] raises a stop flag, nudges the
//! acceptor awake with a loopback connection, and joins every handler
//! thread (handlers poll the flag at their read-timeout cadence, so they
//! exit within one timeout).  Dropping the handle shuts down too.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use salsa_metrics::load::LoadGauges;
use salsa_metrics::{CacheGauges, ServeCounters};
use salsa_pipeline::{
    CachePolicy, CachedSnapshots, FrequencyQueries, SnapshotSource, SnapshotView,
};

use crate::coalesce::Coalescer;
use crate::shed::{Admission, AdmissionConfig};
use crate::wire::{check_frame_len, ErrorCode, Request, Response, WireMeta, WireStats};

/// Everything tunable about a server; start from `default()` and override.
#[derive(Clone)]
pub struct ServeConfig {
    /// Staleness bounds for the snapshot cache behind the coalescer.  The
    /// default re-serves a view for 2 ms or 10k missed updates, whichever
    /// trips first — tune to the deployment's staleness budget.
    pub cache: CachePolicy,
    /// How long a fetch round holds its window open for concurrent
    /// requests to join (see [`Coalescer`]).  Also the floor on a point
    /// query's latency.
    pub coalesce_window: Duration,
    /// Admission thresholds (see [`AdmissionConfig`]).
    pub admission: AdmissionConfig,
    /// Floor on a subscription's push cadence, protecting the server from
    /// `interval_ms: 0` subscribers.
    pub min_push_interval: Duration,
    /// Socket read timeout: the cadence at which idle handlers poll the
    /// stop flag.
    pub read_timeout: Duration,
    /// Connections are dropped on frames announcing more than this many
    /// payload bytes.
    pub max_frame_bytes: usize,
    /// Ingest-load gauges consulted by admission.  Share the same `Arc`
    /// with the pipeline's `LoadMonitor` so shedding reacts to *observed*
    /// backlog; a fresh (never-published) gauge set disables that check.
    pub load: Arc<LoadGauges>,
    /// Counter sink for accepted/shed/coalesced/subscribed and push stats.
    pub counters: Arc<ServeCounters>,
    /// Gauge sink mirroring the snapshot cache's hit/miss counters.
    pub cache_gauges: Arc<CacheGauges>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            cache: CachePolicy::new(Duration::from_millis(2), 10_000),
            coalesce_window: Duration::from_micros(500),
            admission: AdmissionConfig::default(),
            min_push_interval: Duration::from_millis(10),
            read_timeout: Duration::from_millis(50),
            max_frame_bytes: crate::wire::MAX_FRAME_BYTES,
            load: Arc::new(LoadGauges::new()),
            counters: Arc::new(ServeCounters::new()),
            cache_gauges: Arc::new(CacheGauges::new()),
        }
    }
}

/// State shared by the acceptor and every handler thread.
struct Shared<H, S> {
    coalescer: Coalescer<H, S>,
    admission: Admission,
    counters: Arc<ServeCounters>,
    stop: Arc<AtomicBool>,
    min_push_interval: Duration,
    read_timeout: Duration,
    max_frame_bytes: usize,
}

/// A running server.  Keep it alive for as long as queries should be
/// served; [`ServerHandle::shutdown`] (or dropping it) stops the acceptor
/// and joins every connection thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    counters: Arc<ServeCounters>,
    cache_gauges: Arc<CacheGauges>,
}

impl ServerHandle {
    /// The bound address (use this to connect when binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters (same `Arc` as the config's).
    pub fn counters(&self) -> &Arc<ServeCounters> {
        &self.counters
    }

    /// The snapshot-cache gauges (same `Arc` as the config's).
    pub fn cache_gauges(&self) -> &Arc<CacheGauges> {
        &self.cache_gauges
    }

    /// Stops accepting, wakes idle handlers, and joins every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // Nudge the blocking accept() awake; an error just means the
        // acceptor already exited.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and serves queries against `source` until the returned
/// handle is shut down.  `source` is any [`SnapshotSource`] — a
/// `LiveHandle` (across restarts and rescales) or a custom impl; the
/// server wraps it in a [`CachedSnapshots`] + [`Coalescer`] stack per the
/// config.
pub fn serve<H, S>(
    addr: impl ToSocketAddrs,
    source: H,
    config: ServeConfig,
) -> io::Result<ServerHandle>
where
    H: SnapshotSource<S> + Send + Sync + 'static,
    S: FrequencyQueries + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let counters = Arc::clone(&config.counters);
    let cache_gauges = Arc::clone(&config.cache_gauges);
    let cache = CachedSnapshots::new(source, config.cache).with_gauges(Arc::clone(&cache_gauges));
    let shared = Arc::new(Shared {
        coalescer: Coalescer::new(cache, config.coalesce_window, Arc::clone(&counters)),
        admission: Admission::new(
            config.admission,
            Arc::clone(&config.load),
            Arc::clone(&counters),
        ),
        counters: Arc::clone(&counters),
        stop: Arc::clone(&stop),
        min_push_interval: config.min_push_interval,
        read_timeout: config.read_timeout,
        max_frame_bytes: config.max_frame_bytes,
    });
    let acceptor = std::thread::Builder::new()
        .name("salsa-serve-accept".into())
        .spawn(move || accept_loop(listener, shared))?;
    Ok(ServerHandle {
        addr,
        stop,
        acceptor: Some(acceptor),
        counters,
        cache_gauges,
    })
}

fn accept_loop<H, S>(listener: TcpListener, shared: Arc<Shared<H, S>>)
where
    H: SnapshotSource<S> + Send + Sync + 'static,
    S: FrequencyQueries + Send + Sync + 'static,
{
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // Transient accept failures (EMFILE, aborted handshake): keep
            // serving unless we are being shut down.
            Err(_) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("salsa-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &shared);
            });
        if let Ok(handle) = spawned {
            handlers.push(handle);
        }
        // Reap finished handlers so a long-lived server does not
        // accumulate join handles for dead connections.
        handlers.retain(|h| !h.is_finished());
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// What one blocking-with-timeout read attempt concluded.
enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// The peer closed the connection (possibly mid-frame).
    Closed,
    /// The server is shutting down.
    Stopped,
}

/// `read_exact`, interruptible: read timeouts poll the stop flag instead
/// of failing, so an idle connection neither blocks shutdown nor loses
/// frame sync (the partial prefix stays in `buf` across polls).
fn read_frame_bytes(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> io::Result<ReadOutcome> {
    let mut at = 0;
    while at < buf.len() {
        if stop.load(Ordering::Acquire) {
            return Ok(ReadOutcome::Stopped);
        }
        match stream.read(&mut buf[at..]) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(n) => at += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

fn meta_of<S>(view: &SnapshotView<S>) -> WireMeta {
    let coverage = view.coverage();
    WireMeta {
        epoch: view.epoch(),
        generation: view.generation(),
        shards_ok: coverage.shards_ok.min(u32::MAX as usize) as u32,
        shards_failed: coverage.shards_failed.min(u32::MAX as usize) as u32,
        uncovered_items: coverage.uncovered_items,
    }
}

fn handle_connection<H, S>(mut stream: TcpStream, shared: &Shared<H, S>) -> io::Result<()>
where
    H: SnapshotSource<S> + Send + Sync,
    S: FrequencyQueries + Send + Sync,
{
    stream.set_read_timeout(Some(shared.read_timeout))?;
    // A consumer that stops reading eventually blocks our writes; a
    // bounded write timeout turns that into a dropped connection instead
    // of a handler thread that shutdown can never join.
    stream.set_write_timeout(Some(Duration::from_secs(1)))?;
    stream.set_nodelay(true)?;
    let mut header = [0u8; 4];
    let mut payload: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    loop {
        match read_frame_bytes(&mut stream, &mut header, &shared.stop)? {
            ReadOutcome::Full => {}
            ReadOutcome::Closed | ReadOutcome::Stopped => return Ok(()),
        }
        let announced = u32::from_le_bytes(header);
        let Ok(len) = check_frame_len(announced, shared.max_frame_bytes) else {
            // An oversized frame is a broken or hostile peer: drop it.
            return Ok(());
        };
        payload.clear();
        payload.resize(len, 0);
        match read_frame_bytes(&mut stream, &mut payload, &shared.stop)? {
            ReadOutcome::Full => {}
            ReadOutcome::Closed | ReadOutcome::Stopped => return Ok(()),
        }
        let Ok(request) = Request::decode(&payload) else {
            // Garbage is a typed decode error, never a panic; the peer is
            // out of protocol, so the connection ends here.
            return Ok(());
        };
        match request {
            Request::Point { item } => {
                let response = match shared.admission.try_admit() {
                    Err(shed) => Response::Overloaded {
                        retry_after_ms: shed.retry_after_ms,
                    },
                    Ok(_permit) => match shared.coalescer.view() {
                        Some(view) => Response::Point {
                            meta: meta_of(&view),
                            estimate: view.estimate(item),
                        },
                        None => Response::Error(ErrorCode::Finished),
                    },
                };
                write_response(&mut stream, &response, &mut out)?;
            }
            Request::TopK { k, candidates } => {
                let response = answer_top_k(shared, k, &candidates);
                write_response(&mut stream, &response, &mut out)?;
            }
            Request::Stats => {
                let cache = shared.coalescer.cache();
                let response = Response::Stats(WireStats {
                    accepted: shared.counters.accepted.get(),
                    shed: shared.counters.shed.get(),
                    coalesced: shared.counters.coalesced.get(),
                    subscribed: shared.counters.subscribed.get(),
                    cache_hits: cache.hits(),
                    cache_misses: cache.misses(),
                    acknowledged: cache.source().acknowledged(),
                });
                write_response(&mut stream, &response, &mut out)?;
            }
            Request::Subscribe {
                k,
                interval_ms,
                candidates,
            } => {
                if k == 0 || candidates.is_empty() {
                    write_response(
                        &mut stream,
                        &Response::Error(ErrorCode::BadRequest),
                        &mut out,
                    )?;
                    continue;
                }
                match shared.admission.try_admit() {
                    Err(shed) => {
                        write_response(
                            &mut stream,
                            &Response::Overloaded {
                                retry_after_ms: shed.retry_after_ms,
                            },
                            &mut out,
                        )?;
                    }
                    Ok(permit) => {
                        // The admission slot covers the handshake only; a
                        // long-lived subscription must not pin one.
                        drop(permit);
                        shared.counters.subscribed.incr();
                        // Push mode takes over the connection for good.
                        return run_subscription(
                            &mut stream,
                            shared,
                            k as usize,
                            Duration::from_millis(u64::from(interval_ms))
                                .max(shared.min_push_interval),
                            &candidates,
                            &mut out,
                        );
                    }
                }
            }
        }
    }
}

fn answer_top_k<H, S>(shared: &Shared<H, S>, k: u16, candidates: &[u64]) -> Response
where
    H: SnapshotSource<S> + Send + Sync,
    S: FrequencyQueries + Send + Sync,
{
    if k == 0 || candidates.is_empty() {
        return Response::Error(ErrorCode::BadRequest);
    }
    match shared.admission.try_admit() {
        Err(shed) => Response::Overloaded {
            retry_after_ms: shed.retry_after_ms,
        },
        Ok(_permit) => match shared.coalescer.view() {
            Some(view) => {
                let topk = view.top_k(k as usize, candidates.iter().copied());
                Response::TopK {
                    meta: meta_of(&view),
                    entries: topk.items(),
                }
            }
            None => Response::Error(ErrorCode::Finished),
        },
    }
}

fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    if response.encode(out).is_err() {
        // Only over-long entry lists fail to encode, and the server never
        // builds one (top-k `k` is bounded by the decoded request's cap).
        return Ok(());
    }
    stream.write_all(out)
}

/// The push loop: a refreshed top-k every `interval`, seq-stamped by tick
/// index so a slow consumer sees *gaps* rather than a growing backlog —
/// while a blocked `write_all` holds us up, missed ticks are simply never
/// produced (latest-only delivery), and the skip count lands in
/// [`ServeCounters::lagged_updates`].
fn run_subscription<H, S>(
    stream: &mut TcpStream,
    shared: &Shared<H, S>,
    k: usize,
    interval: Duration,
    candidates: &[u64],
    out: &mut Vec<u8>,
) -> io::Result<()>
where
    H: SnapshotSource<S> + Send + Sync,
    S: FrequencyQueries + Send + Sync,
{
    let started = Instant::now();
    let interval_nanos = interval.as_nanos().max(1);
    let mut last_seq = 0u64;
    loop {
        // The next tick strictly after "now": ticks missed while the last
        // write blocked are skipped, not queued.
        let seq = (started.elapsed().as_nanos() / interval_nanos) as u64 + 1;
        let due = started + Duration::from_nanos((seq as u128 * interval_nanos) as u64);
        loop {
            if shared.stop.load(Ordering::Acquire) {
                return Ok(());
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            // Sleep in stop-poll-sized slices so shutdown is not gated on
            // a slow subscription cadence.
            std::thread::sleep((due - now).min(shared.read_timeout));
        }
        if seq > last_seq + 1 {
            shared.counters.lagged_updates.add(seq - last_seq - 1);
        }
        let response = match shared.coalescer.view() {
            Some(view) => {
                let topk = view.top_k(k, candidates.iter().copied());
                Response::Update {
                    seq,
                    meta: meta_of(&view),
                    entries: topk.items(),
                }
            }
            None => Response::Error(ErrorCode::Finished),
        };
        let finished = matches!(response, Response::Error(_));
        write_response(stream, &response, out)?;
        shared.counters.pushed_updates.incr();
        if finished {
            return Ok(());
        }
        last_seq = seq;
    }
}
