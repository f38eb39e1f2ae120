//! Concurrent query access to a running pipeline.
//!
//! A [`LiveHandle`] is a clonable, `Send` handle that injects
//! `Command::Snapshot` requests into the shard workers' command channels.
//! Because each channel is FIFO, a snapshot observes exactly the batches
//! queued before it on every shard — a consistent per-shard prefix of the
//! acknowledged stream — and successive snapshots through one handle have
//! monotonically non-decreasing epochs.  The workers never stop ingesting:
//! serving a snapshot costs one summary clone per shard, accounted in
//! [`ShardStats::snapshot_secs`](crate::ShardStats::snapshot_secs) and
//! bounded by [`SnapshotSummary::clone_cost_bytes`].
//!
//! A handle resolves the live generation on every query from one state the
//! pipeline publishes behind one `RwLock`: restarts and rescales republish
//! it, so one handle keeps serving across both.
//!
//! Every answer a handle gives comes from the merged view: the counter-wise
//! union of every reachable shard and sealed generation, which for
//! sum-merge rows equals the unsharded sketch at the view's epoch.  Callers
//! that re-serve one view within a staleness budget do so through the
//! [`SnapshotSource`] trait (`salsa-serve`'s `Coalescer`), which hands
//! replaced views back to the handle's arena through
//! [`SnapshotSource::recycle`].

use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, RwLock};

use salsa_metrics::HealthCounters;
use salsa_sketches::helper::MergeHelper;

use crate::error::PipelineError;
use crate::sharded::{Command, ShardProgress, ShardSnapshot};
use crate::snapshot::{CoverageMeta, SnapshotView};
use crate::supervisor::{next_pause, ShardHealth, ShardState, FIRST_PAUSE};
use crate::SnapshotSummary;

/// The live generation's workers as handles reach them: command senders,
/// published progress, and the health board.  Immutable once published; a
/// restart or rescale publishes a fresh one.
pub(crate) struct WorkerSet<S> {
    pub(crate) senders: Vec<SyncSender<Command<S>>>,
    pub(crate) progress: Vec<Arc<ShardProgress>>,
    pub(crate) health: Arc<ShardHealth>,
}

impl<S> WorkerSet<S> {
    /// Items the live workers have applied, across incarnations.
    pub(crate) fn acknowledged(&self) -> u64 {
        self.progress
            .iter()
            .map(|p| p.applied.load(Ordering::Acquire))
            .sum()
    }
}

/// The state every [`LiveHandle`] resolves its queries against, written
/// only by the pipeline (on restart, rescale, finish and drop) and read as
/// one consistent whole under the lock.
///
/// **Epoch rule.**  A view's epoch counts every item any worker
/// acknowledged, covered or not: the sealed generations' acknowledged
/// items plus, per live shard, every incarnation's applied items.  Each
/// term only grows, so epochs through one handle are monotone across
/// deaths, restarts and rescales by construction; `uncovered_items` names
/// the part a view does not cover.
pub(crate) struct Published<S> {
    /// Index of the live generation (number of completed rescales).
    pub(crate) generation: u64,
    /// The live generation's workers; `None` once finished or dropped.
    pub(crate) live: Option<Arc<WorkerSet<S>>>,
    /// Counter-wise union of every sealed generation (`None` before the
    /// first rescale).  Rebuilt — never mutated — at each seal, so a query
    /// clones a pointer under the read lock instead of the counters, and
    /// in-flight queries keep their consistent copy across a seal.
    pub(crate) sealed: Option<Arc<S>>,
    /// Items the sealed generations' workers acknowledged, covered or not.
    pub(crate) sealed_acknowledged: u64,
    /// The part of `sealed_acknowledged` that `sealed` does not cover:
    /// applied by incarnations that died.
    pub(crate) sealed_uncovered: u64,
}

impl<S> Published<S> {
    /// Items acknowledged across all generations.
    pub(crate) fn acknowledged(&self) -> u64 {
        self.sealed_acknowledged + self.live.as_ref().map_or(0, |live| live.acknowledged())
    }
}

/// One consistent read of [`Published`]: what a single query runs against.
struct Resolved<S> {
    generation: u64,
    live: Arc<WorkerSet<S>>,
    sealed: Option<Arc<S>>,
    sealed_acknowledged: u64,
    sealed_uncovered: u64,
}

/// A per-handle pool of spare summary buffers, recycled between snapshot
/// assemblies: shard replies fold into the view and fold *back* into the
/// pool, so after warm-up a handle's snapshots refresh existing counter
/// storage (via [`SnapshotSummary::copy_from`] on the worker side) instead
/// of cloning from scratch.  Bounded by one spare per live shard plus one
/// for a merged view handed back through [`SnapshotSource::recycle`] —
/// exactly what one steady-state assembly consumes — so a burst of
/// concurrent snapshots cannot hoard memory.
struct SnapshotArena<S> {
    spares: Mutex<Vec<S>>,
    cap: AtomicUsize,
}

impl<S> SnapshotArena<S> {
    fn new() -> Self {
        Self {
            // ALLOC-OK: empty Vec (no heap storage) at handle creation.
            spares: Mutex::new(Vec::new()),
            cap: AtomicUsize::new(0),
        }
    }

    /// Sizes the pool for a generation of `shards` shards.
    fn fit(&self, shards: usize) {
        // RELAXED-OK: a sizing hint; the spares themselves are guarded by
        // the mutex, and a stale cap only keeps or drops one buffer.
        self.cap.store(shards + 1, Ordering::Relaxed);
    }

    /// Takes one spare buffer, if any.
    fn take(&self) -> Option<S> {
        // PANIC-OK: the lock only guards a Vec push/pop; no user code runs
        // under it, so poisoning is unreachable.
        let mut spares = self.spares.lock().expect("snapshot arena lock poisoned");
        spares.pop()
    }

    /// Returns a buffer to the pool; buffers beyond the cap are dropped.
    fn put(&self, spare: S) {
        // PANIC-OK: as for `take` — the lock guards a plain Vec operation.
        let mut spares = self.spares.lock().expect("snapshot arena lock poisoned");
        // RELAXED-OK: see `fit`.
        if spares.len() < self.cap.load(Ordering::Relaxed) {
            spares.push(spare);
        }
    }
}

/// A clonable handle for querying a [`ShardedPipeline`] from other threads
/// while ingestion continues.
///
/// Obtain one with [`ShardedPipeline::live_handle`].  Every query resolves
/// the live generation afresh, so a handle keeps serving across shard
/// restarts and rescales: a query that races a rescale's drain-and-seal
/// window retries against the freshly published generation, sleeping
/// between attempts, for at most [`PipelineConfig::reply_timeout`].  Every
/// snapshot reports [`PipelineError::Finished`] once
/// [`ShardedPipeline::finish`] has shut the workers down (or the pipeline
/// was dropped), so a query thread can simply loop until its handle goes
/// dark.  While shard workers are *dead*
/// (panicked) rather than stopped, queries keep working against the
/// survivors: views carry coverage metadata naming the gap, and
/// [`LiveHandle::snapshot`] reports the states where no view can be served
/// as typed [`PipelineError`]s.
///
/// [`ShardedPipeline`]: crate::ShardedPipeline
/// [`ShardedPipeline::live_handle`]: crate::ShardedPipeline::live_handle
/// [`ShardedPipeline::finish`]: crate::ShardedPipeline::finish
/// [`PipelineConfig::reply_timeout`]: crate::PipelineConfig::reply_timeout
pub struct LiveHandle<S: SnapshotSummary> {
    published: Arc<RwLock<Published<S>>>,
    counters: Arc<HealthCounters>,
    reply_timeout: Duration,
    /// Spare snapshot buffers, recycled across this handle's snapshots.
    arena: SnapshotArena<S>,
    /// Reusable merge scratch for this handle's snapshot folds.
    helper: Mutex<MergeHelper>,
}

impl<S: SnapshotSummary> Clone for LiveHandle<S> {
    fn clone(&self) -> Self {
        Self {
            published: Arc::clone(&self.published),
            counters: Arc::clone(&self.counters),
            reply_timeout: self.reply_timeout,
            // Fresh (empty) scratch: arenas and helpers are per-handle so
            // clones on different threads never contend on them.
            arena: SnapshotArena::new(),
            helper: Mutex::new(MergeHelper::new()),
        }
    }
}

impl<S: SnapshotSummary> LiveHandle<S> {
    pub(crate) fn new(
        published: Arc<RwLock<Published<S>>>,
        counters: Arc<HealthCounters>,
        reply_timeout: Duration,
    ) -> Self {
        Self {
            published,
            counters,
            reply_timeout,
            arena: SnapshotArena::new(),
            helper: Mutex::new(MergeHelper::new()),
        }
    }

    /// Runs `read` on the published state under the read lock.
    fn read<R>(&self, read: impl FnOnce(&Published<S>) -> R) -> R {
        let published = self
            .published
            .read()
            // PANIC-OK: the pipeline runs no user code under the state
            // lock, so poisoning is unreachable.
            .expect("pipeline state lock poisoned");
        read(&published)
    }

    /// The live generation and the sealed state, read together; `Finished`
    /// once the pipeline is gone.
    fn resolve(&self) -> Result<Resolved<S>, PipelineError> {
        self.read(|published| {
            let live = published.live.as_ref().ok_or(PipelineError::Finished)?;
            Ok(Resolved {
                generation: published.generation,
                live: Arc::clone(live),
                // ALLOC-OK: an `Arc` refcount bump, no heap data.
                sealed: published.sealed.clone(),
                sealed_acknowledged: published.sealed_acknowledged,
                sealed_uncovered: published.sealed_uncovered,
            })
        })
    }

    /// Runs one query attempt against the live generation, retrying while
    /// that generation's workers are stopped but not yet replaced — the
    /// drain-and-seal window of a rescale, or a finish in progress.  Other
    /// outcomes, degraded views included, pass straight through.
    fn retrying(
        &self,
        mut attempt: impl FnMut(&Resolved<S>) -> Result<SnapshotView<S>, PipelineError>,
    ) -> Result<SnapshotView<S>, PipelineError> {
        let started = Instant::now();
        let mut pause = FIRST_PAUSE;
        loop {
            let resolved = self.resolve()?;
            match attempt(&resolved) {
                Err(PipelineError::Finished) => {}
                other => return other,
            }
            let replaced = self.read(|published| {
                published
                    .live
                    .as_ref()
                    .is_none_or(|live| !Arc::ptr_eq(live, &resolved.live))
            });
            if replaced {
                continue;
            }
            // Sleep rather than spin: the seal window is drain-bound
            // (milliseconds), and a pure yield loop would burn a core per
            // waiting query thread, competing with the very drain being
            // waited on.  Past the deadline the pipeline is stuck, not
            // sealing.
            if started.elapsed() >= self.reply_timeout {
                self.counters.timeouts.incr();
                return Err(PipelineError::Timeout {
                    operation: "seal-window retry",
                    waited: started.elapsed(),
                });
            }
            std::thread::sleep(pause);
            pause = next_pause(pause);
        }
    }

    /// Sends one snapshot request to a worker, attaching a spare buffer;
    /// `None` when the worker is gone (the spare is reclaimed).
    fn request(&self, tx: &SyncSender<Command<S>>) -> Option<Receiver<ShardSnapshot<S>>> {
        let (reply, reply_rx) = sync_channel(1);
        let command = Command::Snapshot {
            reply,
            recycled: self.arena.take(),
        };
        match tx.send(command) {
            Ok(()) => Some(reply_rx),
            Err(err) => {
                if let Command::Snapshot {
                    recycled: Some(buf),
                    ..
                } = err.0
                {
                    self.arena.put(buf);
                }
                None
            }
        }
    }

    /// Waits for a requested reply until `deadline`: `Ok(None)` when the
    /// worker is gone (never requested, or died before replying).
    fn reply(
        &self,
        request: Option<Receiver<ShardSnapshot<S>>>,
        deadline: Instant,
    ) -> Result<Option<ShardSnapshot<S>>, PipelineError> {
        let Some(reply_rx) = request else {
            return Ok(None);
        };
        match reply_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(reply) => Ok(Some(reply)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => {
                self.counters.timeouts.incr();
                Err(PipelineError::Timeout {
                    operation: "snapshot",
                    waited: self.reply_timeout,
                })
            }
        }
    }

    /// Merges every reachable live shard's copy with the sealed union.
    fn assemble(&self, resolved: &Resolved<S>) -> Result<SnapshotView<S>, PipelineError> {
        let issued = Instant::now();
        let live = &resolved.live;
        self.arena.fit(live.senders.len());
        // Request every shard before collecting any reply, so the per-shard
        // prefixes are taken as close together in time as the channels
        // allow.  A failed send means that worker is gone; its fate is
        // classified below, from the health board.
        // ALLOC-OK: one reply channel and one request slot per shard; the
        // dominant per-snapshot cost (the summary copies) is recycled
        // through the arena instead.
        let requests: Vec<_> = live.senders.iter().map(|tx| self.request(tx)).collect();
        let deadline = issued + self.reply_timeout;
        let mut epoch = resolved.sealed_acknowledged;
        let mut uncovered = resolved.sealed_uncovered;
        let mut shards_ok = 0usize;
        let mut shards_failed = 0usize;
        let mut merged: Option<S> = None;
        for (shard, request) in requests.into_iter().enumerate() {
            let Some(reply) = self.reply(request, deadline)? else {
                // A disconnected channel: a cleanly stopped worker means its
                // generation ended (sealed or finished); anything else is a
                // dead shard.  The worker publishes its fate *before* the
                // channel disconnects, so this read is never ahead of the
                // failure it explains.
                if live.health.state(shard) == ShardState::Stopped {
                    return Err(PipelineError::Finished);
                }
                // A dead shard's published count is frozen; everything it
                // acknowledged is missing from this view.
                shards_failed += 1;
                let applied = live.progress[shard].applied.load(Ordering::Acquire);
                epoch += applied;
                uncovered += applied;
                continue;
            };
            // A restarted shard's reply covers its incarnation only; what
            // prior incarnations acknowledged is uncovered.
            epoch += reply.applied_base + reply.stats.items;
            uncovered += reply.applied_base;
            shards_ok += 1;
            match merged.as_mut() {
                None => merged = Some(reply.sketch),
                Some(m) => {
                    // PANIC-OK: the lock only guards the scratch buffer; no
                    // user code runs under it.
                    let mut helper = self.helper.lock().expect("merge helper lock poisoned");
                    m.merge_with_helper(&reply.sketch, &mut helper);
                    drop(helper);
                    // The absorbed reply keeps its allocation alive as a
                    // spare for the next snapshot.
                    self.arena.put(reply.sketch);
                }
            }
        }
        let Some(mut merged) = merged else {
            return Err(PipelineError::AllShardsDown);
        };
        if let Some(sealed) = &resolved.sealed {
            // PANIC-OK: as above — the lock guards the scratch buffer.
            let mut helper = self.helper.lock().expect("merge helper lock poisoned");
            merged.merge_with_helper(sealed, &mut helper);
        }
        let coverage = CoverageMeta {
            shards_ok,
            shards_failed,
            uncovered_items: uncovered,
        };
        if !coverage.is_full() {
            self.counters.degraded_snapshots.incr();
        }
        Ok(SnapshotView::with_coverage(
            merged,
            epoch,
            resolved.generation,
            coverage,
            issued,
        ))
    }

    /// Number of worker shards in the live generation, or `0` once the
    /// pipeline has finished.
    pub fn shards(&self) -> usize {
        self.read(|published| published.live.as_ref().map_or(0, |live| live.senders.len()))
    }

    /// Total updates acknowledged (applied by workers) so far, across all
    /// shards, worker incarnations and generations — covered or not, so it
    /// only grows.  Comparing this against a view's
    /// [`SnapshotView::epoch`] gives the view's staleness in items.  After
    /// the pipeline finishes this stays at the final count.
    pub fn acknowledged(&self) -> u64 {
        self.read(Published::acknowledged)
    }

    /// Takes a consistent snapshot of every *reachable* shard and merges
    /// the clones — and every sealed generation — into one epoch-stamped
    /// [`SnapshotView`], without stopping ingestion.
    ///
    /// The epoch counts every acknowledged item the view's per-shard
    /// prefixes and sealed generations reflect, covered or not; successive
    /// calls through one handle see non-decreasing epochs, across deaths,
    /// restarts and rescales.  Dead shards do not fail the call: the view
    /// degrades past them, and [`SnapshotView::coverage`] names the gap.
    /// Errors are reserved for states where no view can be served at all:
    ///
    /// * [`PipelineError::Finished`] — the pipeline shut down cleanly;
    /// * [`PipelineError::AllShardsDown`] — every live worker died;
    /// * [`PipelineError::Timeout`] — a shard's reply missed the configured
    ///   [`reply_timeout`](crate::PipelineConfig::reply_timeout) (a wedged
    ///   worker, not a dead one), or a seal window outlasted it.
    #[must_use = "assembling a snapshot clones every shard's summary; dropping it wastes that work"]
    pub fn snapshot(&self) -> Result<SnapshotView<S>, PipelineError> {
        self.retrying(|resolved| self.assemble(resolved))
    }
}

/// Anything that can produce merged, epoch-stamped views of a running
/// pipeline and report its live acknowledged count: a [`LiveHandle`], or a
/// custom source (a test double, a proxy over a remote pipeline).
/// `salsa-serve`'s `Coalescer`, the view cache every served query passes
/// through, is generic over this.
pub trait SnapshotSource<S> {
    /// A fresh consistent view, or `None` when none can be served (the
    /// pipeline has finished, or [`LiveHandle::snapshot`]'s other errors).
    fn snapshot(&self) -> Option<SnapshotView<S>>;

    /// Total updates acknowledged by the pipeline right now; comparing it
    /// against a view's epoch gives the view's staleness in items.
    fn acknowledged(&self) -> u64;

    /// Hands a no-longer-needed summary buffer (e.g. an expired view's)
    /// back to the source, so a future snapshot assembly can refresh it in
    /// place instead of allocating.  The default drops the buffer.
    fn recycle(&self, spare: S) {
        drop(spare);
    }
}

impl<S: SnapshotSummary> SnapshotSource<S> for LiveHandle<S> {
    fn snapshot(&self) -> Option<SnapshotView<S>> {
        LiveHandle::snapshot(self).ok()
    }

    fn acknowledged(&self) -> u64 {
        LiveHandle::acknowledged(self)
    }

    fn recycle(&self, spare: S) {
        self.arena.put(spare);
    }
}
