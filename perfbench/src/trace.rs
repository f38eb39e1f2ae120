//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written out when the run ends.
//!
//! The program is observed from outside: [`Traced`] wraps the summary type
//! the pipeline is generic over and [`TracedSource`] wraps the
//! `SnapshotSource` the server is generic over.  Both forward every trait
//! method to the wrapped one (a wrapper that fell back to a default, say a
//! clone instead of `copy_from`, would measure a different program) and
//! time the calls that the pipeline, the server and the shard workers make
//! through them.  Untraced runs use the bare types.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use salsa_pipeline::{
    FrequencyQueries, MergeHelper, SnapshotSource, SnapshotSummary, SnapshotView, StreamSummary,
};

use crate::cpu;

pub const INGEST: &str = "pipeline.worker.ingest";
pub const MERGE: &str = "sketches.cms.merge_from";
pub const MERGE_NEW: &str = "sketches.cms.merge_into_new";
pub const CLONE: &str = "sketches.cms.clone";
pub const COPY: &str = "sketches.cms.copy";
pub const FOLD: &str = "sketches.cms.fold";
pub const ESTIMATE: &str = "sketches.cms.estimate";
pub const ASSEMBLE: &str = "pipeline.snapshot";
pub const QUERY: &str = "loadgen.query";
pub const ENCODE: &str = "serve.wire.encode";
pub const DECODE: &str = "serve.wire.decode";

/// One timed call.  Times are nanoseconds since the trace origin; `parent`
/// is 0 for a root span; `query` is the client's query id on client spans.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub thread: u32,
    pub query: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static THREADS: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();
/// CPU time the shard workers spent inside `StreamSummary::ingest` while
/// recording was on.  Unlike the span, it leaves out the time a worker was
/// descheduled in the middle of a batch.
static INGEST_CPU_NS: AtomicU64 = AtomicU64::new(0);
/// The span id of the snapshot assembly in flight, so the copies the shard
/// workers make for it name it as their parent.  The server's snapshot
/// cache assembles under a lock, so at most one assembly is in flight.
static ASSEMBLY: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_ID: u32 = {
        let id = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current().name().unwrap_or("unnamed").to_string();
        THREADS.lock().expect("trace thread table poisoned").push((id, name));
        id
    };
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off; spans are only recorded while it is on.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace origin.
pub fn now() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fresh span id, for spans recorded with [`record`].
pub fn next_id() -> u32 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records a finished span on the calling thread.
pub fn record(name: &'static str, id: u32, parent: u32, query: u64, start: u64, end: u64) {
    let thread = THREAD_ID.with(|t| *t);
    let span = Span {
        name,
        id,
        parent,
        thread,
        query,
        start,
        end,
    };
    SPANS.lock().expect("trace span buffer poisoned").push(span);
}

/// An open span; recorded when dropped.  Spans opened through [`enter`]
/// nest: the innermost open span on the thread is the parent.
pub struct Guard {
    name: &'static str,
    id: u32,
    parent: u32,
    start: u64,
}

impl Guard {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Opens a span whose parent is the innermost open span of this thread.
pub fn enter(name: &'static str) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    Some(open(name, parent))
}

/// Opens a span with an explicit parent (a span on another thread).
pub fn enter_under(name: &'static str, parent: u32) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    Some(open(name, parent))
}

fn open(name: &'static str, parent: u32) -> Guard {
    let id = next_id();
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        name,
        id,
        parent,
        start: now(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now();
        STACK.with(|s| s.borrow_mut().pop());
        record(self.name, self.id, self.parent, 0, self.start, end);
    }
}

/// CPU nanoseconds the shard workers spent inside `StreamSummary::ingest`
/// while recording was on.
pub fn ingest_cpu_ns() -> u64 {
    INGEST_CPU_NS.load(Ordering::Relaxed)
}

/// Drops every span recorded so far.
pub fn clear() {
    SPANS.lock().expect("trace span buffer poisoned").clear();
}

/// Every span recorded so far, in recording order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("trace span buffer poisoned").clone()
}

/// Self time of every span: its duration minus the part of it that its
/// children (on any thread) cover.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start, span.end));
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut cursor = span.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (span.id, span.ns().saturating_sub(covered))
        })
        .collect()
}

/// Writes every span as one tab-separated line, with its thread's name and
/// its self time.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let names: HashMap<u32, String> = THREADS
        .lock()
        .expect("trace thread table poisoned")
        .iter()
        .cloned()
        .collect();
    let self_ns = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id\tparent\tthread\tthread_name\tname\tquery\tstart_ns\tend_ns\tself_ns"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.thread,
            names.get(&s.thread).map_or("?", String::as_str),
            s.name,
            s.query,
            s.start,
            s.end,
            self_ns[&s.id]
        )?;
    }
    out.flush()
}

/// A summary whose every trait method forwards to `S`, timing ingest,
/// merges, copies, clones and estimates.
pub struct Traced<S>(pub S);

impl<S: Clone> Clone for Traced<S> {
    fn clone(&self) -> Self {
        // A shard worker clones when a snapshot arrives without a recycled
        // buffer: that is the copy of the assembly in flight.
        let _span = enter_under(CLONE, ASSEMBLY.load(Ordering::SeqCst));
        Traced(self.0.clone())
    }
}

impl<S: StreamSummary> StreamSummary for Traced<S> {
    fn ingest(&mut self, items: &[u64]) {
        let span = enter(INGEST);
        let cpu = span.as_ref().map(|_| cpu::thread_ns());
        self.0.ingest(items);
        if let Some(cpu) = cpu {
            // RELAXED-OK: a statistic read after the workers have drained.
            INGEST_CPU_NS.fetch_add(cpu::thread_ns() - cpu, Ordering::Relaxed);
        }
    }

    fn merge_from(&mut self, other: &Self) {
        let _span = enter(MERGE);
        self.0.merge_from(&other.0);
    }
}

impl<S: SnapshotSummary> SnapshotSummary for Traced<S> {
    fn clone_cost_bytes(&self) -> usize {
        self.0.clone_cost_bytes()
    }

    fn merge_into_new(&self, other: &Self) -> Self {
        let _span = enter(MERGE_NEW);
        Traced(self.0.merge_into_new(&other.0))
    }

    fn copy_from(&mut self, src: &Self) {
        let _span = enter_under(COPY, ASSEMBLY.load(Ordering::SeqCst));
        self.0.copy_from(&src.0);
    }

    fn merge_with_helper(&mut self, other: &Self, helper: &mut MergeHelper) {
        let _span = enter(FOLD);
        self.0.merge_with_helper(&other.0, helper);
    }
}

impl<S: FrequencyQueries> FrequencyQueries for Traced<S> {
    fn estimate(&self, item: u64) -> i64 {
        let _span = enter(ESTIMATE);
        self.0.estimate(item)
    }
}

/// A snapshot source that forwards to `H` and times each assembly.
pub struct TracedSource<H>(pub H);

impl<S, H: SnapshotSource<S>> SnapshotSource<S> for TracedSource<H> {
    fn snapshot(&self) -> Option<SnapshotView<S>> {
        let span = enter(ASSEMBLE);
        ASSEMBLY.store(span.as_ref().map_or(0, Guard::id), Ordering::SeqCst);
        let view = self.0.snapshot();
        ASSEMBLY.store(0, Ordering::SeqCst);
        view
    }

    fn acknowledged(&self) -> u64 {
        self.0.acknowledged()
    }

    fn recycle(&self, spare: S) {
        self.0.recycle(spare);
    }
}
