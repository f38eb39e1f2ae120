//! The query side of the load generator: one thread holding two
//! connections with one request in flight on each (a closed loop), and the
//! one-at-a-time point queries of set-up and read-back.
//!
//! The client speaks the wire protocol itself (`Request::encode`,
//! `Response::decode`) instead of using `QueryClient`, whose calls block
//! one request at a time.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use salsa_pipeline::FrequencyQueries;
use salsa_serve::wire::{check_frame_len, MAX_FRAME_BYTES};
use salsa_serve::{Request, Response, WireMeta};
use salsa_sketches::heavy_hitters::TopK;

use crate::{cpu, trace, Cms};

/// Connections held by the client thread.
pub const CONNECTIONS: usize = 2;
/// Every `TOPK_EVERY`-th query is a candidate-set top-k; the rest are
/// point queries.
const TOPK_EVERY: u64 = 16;
pub const TOPK_K: u16 = 8;
const TOPK_CANDIDATES: usize = 64;
const TOPK_SETS: usize = 16;
/// Answers per connection left out of the latency quantiles: the first
/// ones pay for the handler thread's start, buffer growth and a cold
/// snapshot arena.
const WARMUP_PER_CONN: u64 = 16;
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Length of the windows query timings are taken over.
const WINDOW: Duration = Duration::from_secs(1);

/// A small deterministic generator (xorshift64*), so the query mix follows
/// from the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniformly chosen stream position's key, so popular keys are
    /// queried as often as they occur.
    fn key(&mut self, stream: &[u64]) -> u64 {
        stream[(self.next() % stream.len() as u64) as usize]
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Point(u64),
    TopK(usize),
}

/// The seeded query mix: point queries for keys drawn from the stream and
/// every `TOPK_EVERY`-th query a top-k over one of a few fixed candidate
/// sets drawn the same way.
pub struct QueryMix<'a> {
    stream: &'a [u64],
    rng: Rng,
    issued: u64,
    topk_sets: Vec<Vec<u64>>,
}

impl<'a> QueryMix<'a> {
    pub fn new(stream: &'a [u64], seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x51AE_C0DE);
        let topk_sets = (0..TOPK_SETS)
            .map(|_| (0..TOPK_CANDIDATES).map(|_| rng.key(stream)).collect())
            .collect();
        Self {
            stream,
            rng,
            issued: 0,
            topk_sets,
        }
    }

    pub fn next(&mut self) -> Kind {
        self.issued += 1;
        if self.issued.is_multiple_of(TOPK_EVERY) {
            Kind::TopK((self.rng.next() % TOPK_SETS as u64) as usize)
        } else {
            Kind::Point(self.rng.key(self.stream))
        }
    }

    pub fn topk_set(&self, set: usize) -> &[u64] {
        &self.topk_sets[set]
    }

    /// The answers top-k queries over each set must have against `summary`.
    pub fn expected_topks(&self, summary: &Cms) -> Vec<Vec<(u64, u64)>> {
        (0..TOPK_SETS)
            .map(|set| self.expected_topk(set, summary))
            .collect()
    }

    /// The answer a top-k over `set` must have against `summary`: the same
    /// ranking the server computes over a view.
    pub fn expected_topk(&self, set: usize, summary: &Cms) -> Vec<(u64, u64)> {
        let mut topk = TopK::new(TOPK_K as usize);
        for &item in &self.topk_sets[set] {
            let estimate = FrequencyQueries::estimate(summary, item);
            if estimate > 0 {
                topk.offer(item, estimate as u64);
            }
        }
        topk.items()
    }

    fn request(&mut self, kind: Kind) -> Request {
        match kind {
            Kind::Point(item) => Request::Point { item },
            Kind::TopK(set) => Request::TopK {
                k: TOPK_K,
                candidates: std::mem::take(&mut self.topk_sets[set]),
            },
        }
    }

    /// Takes a top-k request's candidate buffer back, so the mix allocates
    /// nothing per query.
    fn restore(&mut self, kind: Kind, request: Request) {
        if let (Kind::TopK(set), Request::TopK { candidates, .. }) = (kind, request) {
            self.topk_sets[set] = candidates;
        }
    }
}

/// What every answer must equal: the stream is fully loaded and drained,
/// so every answer equals the reference's, at `epoch`, from every one of
/// `shards` shards.
pub struct Check<'a> {
    pub reference: &'a Cms,
    pub expected_topk: Vec<Vec<(u64, u64)>>,
    pub epoch: u64,
    pub shards: u32,
}

/// The tally of a serve phase.
#[derive(Debug, Default)]
pub struct ServeTally {
    pub sent: u64,
    pub answered: u64,
    pub failed: u64,
    pub topk: u64,
    pub latency_ns: Vec<u64>,
    /// When each latency sample's answer arrived, in ns since the phase
    /// started.
    pub answered_at_ns: Vec<u64>,
    pub first_failure: Option<String>,
    /// Taken at the phase start and then about once a second: consecutive
    /// marks bound the windows the query timings are taken over.
    pub marks: Vec<Mark>,
    origin: Option<Instant>,
}

/// The state of the phase at one window boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at_ns: u64,
    pub answered: u64,
    pub process_ns: u64,
    pub host_ticks: (u64, u64),
}

impl ServeTally {
    /// A tally whose sample buffers are allocated up front, so recording
    /// samples does not show in the heap figures of the timed phase.
    pub fn with_capacity(samples: usize) -> Self {
        Self {
            latency_ns: Vec::with_capacity(samples),
            answered_at_ns: Vec::with_capacity(samples),
            marks: Vec::with_capacity(samples / 100 + 16),
            ..Self::default()
        }
    }

    fn mark(&mut self, now: Instant) {
        let origin = *self.origin.get_or_insert(now);
        self.marks.push(Mark {
            at_ns: (now - origin).as_nanos() as u64,
            answered: self.answered,
            process_ns: cpu::process_ns(),
            host_ticks: cpu::host_ticks(),
        });
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }
}

struct Pending {
    kind: Kind,
    query: u64,
    span: u32,
    sent: Instant,
    sent_ns: u64,
}

/// One connection with its reusable buffers.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    payload: Vec<u8>,
    pending: Option<Pending>,
    answered: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Self {
            stream,
            out: Vec::with_capacity(1024),
            payload: Vec::with_capacity(1024),
            pending: None,
            answered: 0,
        })
    }

    fn send(&mut self, mix: &mut QueryMix, kind: Kind, query: u64) -> io::Result<()> {
        let span = if trace::enabled() {
            trace::next_id()
        } else {
            0
        };
        let sent_ns = if span != 0 { trace::now() } else { 0 };
        let sent = Instant::now();
        let request = mix.request(kind);
        let encoded = {
            let _span = trace::enter_under(trace::ENCODE, span);
            request.encode(&mut self.out)
        };
        mix.restore(kind, request);
        encoded.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.stream.write_all(&self.out)?;
        self.pending = Some(Pending {
            kind,
            query,
            span,
            sent,
            sent_ns,
        });
        Ok(())
    }

    fn receive(&mut self, span: u32) -> io::Result<Response> {
        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header)?;
        let len = check_frame_len(u32::from_le_bytes(header), MAX_FRAME_BYTES)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.payload.clear();
        self.payload.resize(len, 0);
        self.stream.read_exact(&mut self.payload)?;
        let _span = trace::enter_under(trace::DECODE, span);
        Response::decode(&self.payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// One blocking point query.
    pub fn point(&mut self, item: u64) -> io::Result<(WireMeta, i64)> {
        Request::Point { item }
            .encode(&mut self.out)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.stream.write_all(&self.out)?;
        match self.receive(0)? {
            Response::Point { meta, estimate } => Ok((meta, estimate)),
            other => Err(io::Error::other(format!("unexpected reply {other:?}"))),
        }
    }

    /// One blocking top-k query.
    pub fn top_k(
        &mut self,
        k: u16,
        candidates: Vec<u64>,
    ) -> io::Result<(WireMeta, Vec<(u64, u64)>)> {
        Request::TopK { k, candidates }
            .encode(&mut self.out)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.stream.write_all(&self.out)?;
        match self.receive(0)? {
            Response::TopK { meta, entries } => Ok((meta, entries)),
            other => Err(io::Error::other(format!("unexpected reply {other:?}"))),
        }
    }

    /// Reads the answer to the request in flight and checks it.  Returns
    /// `false` when the connection is no longer usable.
    fn complete(&mut self, check: &Check, tally: &mut ServeTally) -> bool {
        let Some(pending) = self.pending.take() else {
            return true;
        };
        let response = match self.receive(pending.span) {
            Ok(response) => response,
            Err(e) => {
                tally.fail(format!("query {}: {e}", pending.query));
                return false;
            }
        };
        let done = Instant::now();
        if pending.span != 0 {
            trace::record(
                trace::QUERY,
                pending.span,
                0,
                pending.query,
                pending.sent_ns,
                trace::now(),
            );
        }
        match verify(&pending, &response, check, tally) {
            Ok(()) => {
                tally.answered += 1;
                self.answered += 1;
                if self.answered > WARMUP_PER_CONN {
                    tally
                        .latency_ns
                        .push((done - pending.sent).as_nanos() as u64);
                    let origin = tally
                        .origin
                        .expect("the phase's first mark sets the origin");
                    tally.answered_at_ns.push((done - origin).as_nanos() as u64);
                }
            }
            Err(why) => tally.fail(format!("query {}: {why}", pending.query)),
        }
        true
    }
}

/// Checks one answer against the reference.
fn verify(
    pending: &Pending,
    response: &Response,
    check: &Check,
    tally: &mut ServeTally,
) -> Result<(), String> {
    let meta = match (pending.kind, response) {
        (Kind::Point(_), Response::Point { meta, .. }) => meta,
        (Kind::TopK(_), Response::TopK { meta, .. }) => {
            tally.topk += 1;
            meta
        }
        (_, other) => return Err(format!("reply {other:?}")),
    };
    if meta.epoch != check.epoch || !meta.is_full() || meta.shards_ok != check.shards {
        return Err(format!("meta {meta:?}, expected epoch {}", check.epoch));
    }
    match (pending.kind, response) {
        (Kind::Point(item), Response::Point { estimate, .. }) => {
            let want = FrequencyQueries::estimate(check.reference, item);
            if *estimate != want {
                return Err(format!("item {item}: {estimate} != {want}"));
            }
        }
        (Kind::TopK(set), Response::TopK { entries, .. }) => {
            if *entries != check.expected_topk[set] {
                return Err(format!("top-k over set {set} differs"));
            }
        }
        _ => unreachable!("reply kind checked above"),
    }
    Ok(())
}

/// Drives the closed loop over `conns` in rounds until `stop` is raised:
/// one request goes out on every connection, then every answer is read
/// before the next round.  Sending the round's requests back to back lets
/// them join one coalescing window, so how many queries share a snapshot
/// fetch does not depend on how the client thread happens to be scheduled.
pub fn run(
    conns: &mut [Conn],
    mix: &mut QueryMix,
    check: &Check,
    stop: &AtomicBool,
    tally: &mut ServeTally,
) {
    let mut alive = vec![true; conns.len()];
    let origin = Instant::now();
    tally.mark(origin);
    while !stop.load(Ordering::Acquire) && alive.iter().any(|&up| up) {
        let now = Instant::now();
        if now - origin >= WINDOW * tally.marks.len() as u32 {
            tally.mark(now);
        }
        for (conn, up) in conns.iter_mut().zip(alive.iter_mut()) {
            if !*up {
                continue;
            }
            let kind = mix.next();
            tally.sent += 1;
            if let Err(e) = conn.send(mix, kind, tally.sent) {
                tally.fail(format!("send: {e}"));
                *up = false;
            }
        }
        for (conn, up) in conns.iter_mut().zip(alive.iter_mut()) {
            if *up && !conn.complete(check, tally) {
                *up = false;
            }
        }
    }
}
