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

use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, RwLock};

use salsa_hash::BobHash;
use salsa_metrics::HealthCounters;
use salsa_sketches::helper::MergeHelper;

use crate::error::PipelineError;
use crate::sharded::{Command, ShardProgress, ShardSnapshot};
use crate::snapshot::{CoverageMeta, SnapshotView};
use crate::supervisor::{Backoff, ShardHealth, ShardState, SupervisorConfig};
use crate::{by_key_shard, FrequencyQueries, Partition, SnapshotSummary};

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
/// for a recycled merged view — exactly what one steady-state assembly
/// consumes — so a burst of concurrent snapshots cannot hoard memory.
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
/// window retries against the freshly published generation, with the
/// [`SupervisorConfig::backoff`] schedule, for at most
/// [`SupervisorConfig::snapshot_timeout`].  Every query returns `None` once
/// [`ShardedPipeline::finish`] has shut the workers down (or the pipeline
/// was dropped), so a query thread can simply loop until its handle goes
/// dark.  While shard workers are *dead* (panicked) rather than stopped,
/// queries keep working against the survivors: views carry coverage
/// metadata naming the gap, and the `try_` variants report the failure
/// modes as typed [`PipelineError`]s.
///
/// [`ShardedPipeline`]: crate::ShardedPipeline
/// [`ShardedPipeline::live_handle`]: crate::ShardedPipeline::live_handle
/// [`ShardedPipeline::finish`]: crate::ShardedPipeline::finish
pub struct LiveHandle<S: SnapshotSummary> {
    published: Arc<RwLock<Published<S>>>,
    partition: Partition,
    router: BobHash,
    counters: Arc<HealthCounters>,
    snapshot_timeout: Duration,
    backoff: Backoff,
    /// Spare snapshot buffers, recycled across this handle's snapshots.
    arena: SnapshotArena<S>,
    /// Reusable merge scratch for this handle's snapshot folds.
    helper: Mutex<MergeHelper>,
}

impl<S: SnapshotSummary> Clone for LiveHandle<S> {
    fn clone(&self) -> Self {
        Self {
            published: Arc::clone(&self.published),
            partition: self.partition,
            router: self.router,
            counters: Arc::clone(&self.counters),
            snapshot_timeout: self.snapshot_timeout,
            backoff: self.backoff,
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
        partition: Partition,
        router: BobHash,
        supervisor: &SupervisorConfig,
    ) -> Self {
        Self {
            published,
            partition,
            router,
            counters: Arc::clone(&supervisor.counters),
            snapshot_timeout: supervisor.snapshot_timeout,
            backoff: supervisor.backoff,
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
        let mut pause = self.backoff.initial;
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
            if started.elapsed() >= self.snapshot_timeout {
                self.counters.timeouts.incr();
                return Err(PipelineError::Timeout {
                    operation: "seal-window retry",
                    waited: started.elapsed(),
                });
            }
            std::thread::sleep(pause);
            pause = self.backoff.next(pause);
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
                    waited: self.snapshot_timeout,
                })
            }
        }
    }

    /// Classifies a shard whose channel turned out to be disconnected: a
    /// cleanly stopped worker means its generation ended (sealed or
    /// finished); anything else is a dead shard.  The worker publishes its
    /// fate *before* the channel disconnects, so this read is never ahead
    /// of the failure it explains.
    fn shard_gone(live: &WorkerSet<S>, shard: usize) -> PipelineError {
        if live.health.state(shard) == ShardState::Stopped {
            PipelineError::Finished
        } else {
            PipelineError::ShardDown { shard }
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
        let deadline = issued + self.snapshot_timeout;
        let mut epoch = resolved.sealed_acknowledged;
        let mut uncovered = resolved.sealed_uncovered;
        let mut shards_failed = 0usize;
        let mut shards = Vec::with_capacity(requests.len());
        let mut merged: Option<S> = None;
        for (shard, request) in requests.into_iter().enumerate() {
            let Some(reply) = self.reply(request, deadline)? else {
                if let PipelineError::Finished = Self::shard_gone(live, shard) {
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
            shards.push(reply.stats);
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
            shards_ok: shards.len(),
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
            shards,
            issued,
        ))
    }

    /// One live shard's copy, as a shard-local view.
    fn assemble_shard(
        &self,
        resolved: &Resolved<S>,
        shard: usize,
    ) -> Result<SnapshotView<S>, PipelineError> {
        let issued = Instant::now();
        let live = &resolved.live;
        self.arena.fit(live.senders.len());
        let tx = live
            .senders
            .get(shard)
            .ok_or(PipelineError::ShardDown { shard })?;
        let Some(reply) = self.reply(self.request(tx), issued + self.snapshot_timeout)? else {
            return Err(Self::shard_gone(live, shard));
        };
        let coverage = CoverageMeta {
            shards_ok: 1,
            shards_failed: 0,
            uncovered_items: reply.applied_base,
        };
        if !coverage.is_full() {
            self.counters.degraded_snapshots.incr();
        }
        Ok(SnapshotView::with_coverage(
            reply.sketch,
            reply.applied_base + reply.stats.items,
            resolved.generation,
            coverage,
            // ALLOC-OK: one-element stats Vec per single-shard view.
            vec![reply.stats],
            issued,
        ))
    }

    /// Number of worker shards in the live generation, or `0` once the
    /// pipeline has finished.
    pub fn shards(&self) -> usize {
        self.read(|published| published.live.as_ref().map_or(0, |live| live.senders.len()))
    }

    /// The pipeline's partitioning mode.
    #[inline]
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// Total updates acknowledged (applied by workers) so far, across all
    /// shards, worker incarnations and generations — covered or not, so it
    /// only grows.  Comparing this against a view's
    /// [`SnapshotView::epoch`] gives the view's staleness in items.  After
    /// the pipeline finishes this stays at the final count.
    pub fn acknowledged(&self) -> u64 {
        self.read(Published::acknowledged)
    }

    fn owner(&self, item: u64, shards: usize) -> usize {
        by_key_shard(self.router.hash_u64(item), shards)
    }

    /// The shard of the live generation that owns `item`'s entire
    /// sub-stream, if the partitioning mode gives keys an owner (`None`
    /// under [`Partition::RoundRobin`], where every shard sees an arbitrary
    /// slice, and once the pipeline has finished).
    pub fn owner_of(&self, item: u64) -> Option<usize> {
        match (self.partition, self.shards()) {
            (Partition::ByKey, shards) if shards > 0 => Some(self.owner(item, shards)),
            _ => None,
        }
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
    ///   [`snapshot_timeout`](crate::SupervisorConfig::snapshot_timeout)
    ///   (a wedged worker, not a dead one), or a seal window outlasted it.
    #[must_use = "assembling a snapshot clones every shard's summary; dropping it wastes that work"]
    pub fn try_snapshot(&self) -> Result<SnapshotView<S>, PipelineError> {
        self.retrying(|resolved| self.assemble(resolved))
    }

    /// [`LiveHandle::try_snapshot`] flattened to an `Option`: `None` once
    /// the pipeline has finished — or when no view can be assembled at all
    /// (every worker dead, or a deadline expired).  Degraded views are
    /// `Some`; check [`SnapshotView::is_degraded`].
    #[must_use = "assembling a snapshot clones every shard's summary; dropping it wastes that work"]
    pub fn snapshot(&self) -> Option<SnapshotView<S>> {
        self.try_snapshot().ok()
    }

    /// Takes a snapshot of a single shard of the live generation.  The
    /// view's epoch (and its coverage metadata) is shard-local: every item
    /// that shard acknowledged, with its earlier incarnations' items named
    /// as uncovered.
    ///
    /// Under [`Partition::ByKey`] the owning shard holds a key's *entire*
    /// sub-stream of the live generation, so for sum-merge rows a
    /// single-shard view never under-estimates that key's live count and
    /// is at most the full merged view's estimate (it sees only same-shard
    /// hash collisions, not the other shards') — a point-query fast path at
    /// a fraction of the clone cost.
    ///
    /// Unlike [`LiveHandle::try_snapshot`], a dead shard is an error here
    /// ([`PipelineError::ShardDown`]): there is no survivor to degrade to.
    #[must_use = "the snapshot clones the shard's summary; dropping it wastes that work"]
    pub fn try_snapshot_shard(&self, shard: usize) -> Result<SnapshotView<S>, PipelineError> {
        self.retrying(|resolved| self.assemble_shard(resolved, shard))
    }

    /// [`LiveHandle::try_snapshot_shard`] flattened to an `Option`: `None`
    /// when the shard (or the pipeline) is gone or the reply deadline
    /// expired.
    #[must_use = "the snapshot clones the shard's summary; dropping it wastes that work"]
    pub fn snapshot_shard(&self, shard: usize) -> Option<SnapshotView<S>> {
        self.try_snapshot_shard(shard).ok()
    }

    /// Wraps this handle in a [`CachedSnapshots`] layer that re-serves one
    /// assembled view until it exceeds the given staleness bounds — see
    /// [`CachePolicy`] for the bounds' semantics.  The cache carries over
    /// rescales because the handle does.
    pub fn cached(self, policy: CachePolicy) -> CachedSnapshots<Self, S> {
        CachedSnapshots::new(self, policy)
    }
}

impl<S: SnapshotSummary + FrequencyQueries> LiveHandle<S> {
    /// Estimates the frequency of `item` over the whole stream, against
    /// fresh shard state.
    ///
    /// Under [`Partition::ByKey`], while no generation is sealed, this
    /// snapshots only the owning shard; otherwise (round-robin routing, or
    /// after a rescale, when no single shard owns a key's whole history) it
    /// falls back to a full merged snapshot.  Returns `None` once the
    /// pipeline has been finished.  Either way the view's summary buffer is
    /// recycled into the handle's arena afterwards, so repeated point
    /// queries refresh one buffer instead of cloning per call.
    pub fn estimate(&self, item: u64) -> Option<i64> {
        let view = self
            .retrying(|resolved| match (self.partition, &resolved.sealed) {
                (Partition::ByKey, None) => {
                    self.assemble_shard(resolved, self.owner(item, resolved.live.senders.len()))
                }
                _ => self.assemble(resolved),
            })
            .ok()?;
        let estimate = view.estimate(item);
        self.arena.put(view.into_merged());
        Some(estimate)
    }
}

/// Anything that can produce merged, epoch-stamped views of a running
/// pipeline and report its live acknowledged count: a [`LiveHandle`], or a
/// custom source (a test double, a proxy over a remote pipeline).  The
/// [`CachedSnapshots`] layer and the network server are generic over this.
pub trait SnapshotSource<S> {
    /// A fresh consistent view, or `None` once the pipeline has finished.
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
        LiveHandle::snapshot(self)
    }

    fn acknowledged(&self) -> u64 {
        LiveHandle::acknowledged(self)
    }

    fn recycle(&self, spare: S) {
        self.arena.put(spare);
    }
}

/// When a cached view is still fresh enough to re-serve.
///
/// A view is re-served while **both** bounds hold: it is younger than
/// `max_age` *and* fewer than `max_lag_items` updates were acknowledged
/// after its epoch.  Set a bound to its type's maximum to disable it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Maximum age of a served view (the "T ms" staleness budget).
    pub max_age: Duration,
    /// Maximum number of acknowledged updates a served view may miss.
    pub max_lag_items: u64,
}

impl CachePolicy {
    /// A policy bounding both view age and missed updates.
    pub fn new(max_age: Duration, max_lag_items: u64) -> Self {
        Self {
            max_age,
            max_lag_items,
        }
    }
}

struct CacheState<S> {
    cached: Mutex<Option<Arc<SnapshotView<S>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Optional exporter mirror: every lookup republishes the counters
    /// here, so watchers (the serve layer, benches) can read cache
    /// effectiveness without holding this cache.
    gauges: Option<Arc<salsa_metrics::CacheGauges>>,
}

impl<S> CacheState<S> {
    fn publish(&self) {
        if let Some(gauges) = self.gauges.as_ref() {
            // RELAXED-OK: statistics mirror; the gauges carry no other
            // memory, so no ordering is needed on either side.
            let hits = self.hits.load(Ordering::Relaxed);
            let misses = self.misses.load(Ordering::Relaxed);
            gauges.hits.set(hits as f64);
            gauges.misses.set(misses as f64);
        }
    }
}

/// A TTL cache in front of a snapshot-producing handle: instead of cloning
/// every shard on every query, one assembled [`SnapshotView`] is re-served
/// (behind an `Arc`) until it is older than the policy's `max_age` or more
/// than `max_lag_items` acknowledged updates behind the live stream.
///
/// Clones share the cache, so a pool of query threads cloning one
/// `CachedSnapshots` pays for at most one snapshot assembly per staleness
/// window regardless of its query rate.  [`CachedSnapshots::hits`] /
/// [`CachedSnapshots::misses`] expose the cache's effectiveness.
pub struct CachedSnapshots<H, S> {
    source: H,
    policy: CachePolicy,
    state: Arc<CacheState<S>>,
}

impl<H: Clone, S> Clone for CachedSnapshots<H, S> {
    fn clone(&self) -> Self {
        Self {
            // ALLOC-OK: handle cloning is setup, not the query hot path.
            source: self.source.clone(),
            policy: self.policy,
            state: Arc::clone(&self.state),
        }
    }
}

impl<H: SnapshotSource<S>, S> CachedSnapshots<H, S> {
    /// Wraps `source` with the given staleness policy.
    pub fn new(source: H, policy: CachePolicy) -> Self {
        Self {
            source,
            policy,
            state: Arc::new(CacheState {
                cached: Mutex::new(None),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                gauges: None,
            }),
        }
    }

    /// Mirrors this cache's hit/miss counters into the given
    /// [`salsa_metrics::CacheGauges`] on every lookup, so exporters can
    /// watch cache effectiveness without holding the cache itself.  Resets
    /// the cache state (clones made *before* this call keep the old,
    /// un-gauged state).
    pub fn with_gauges(self, gauges: Arc<salsa_metrics::CacheGauges>) -> Self {
        Self {
            source: self.source,
            policy: self.policy,
            state: Arc::new(CacheState {
                cached: Mutex::new(None),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                gauges: Some(gauges),
            }),
        }
    }

    /// The underlying (uncached) handle.
    pub fn source(&self) -> &H {
        &self.source
    }

    /// The staleness policy views are served under.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Queries served from the cached view, across all clones.
    pub fn hits(&self) -> u64 {
        // RELAXED-OK: a monotone statistics counter read on its own; no
        // other memory is published through it, so no ordering is needed.
        self.state.hits.load(Ordering::Relaxed)
    }

    /// Queries that had to assemble a fresh view, across all clones.
    pub fn misses(&self) -> u64 {
        // RELAXED-OK: same as `hits` — an isolated statistics counter.
        self.state.misses.load(Ordering::Relaxed)
    }

    /// A view no staler than the policy allows: the cached one when it is
    /// still within bounds, otherwise a freshly assembled (and re-cached)
    /// one.  After the pipeline finishes, a still-in-bounds cached view is
    /// served as usual (it is exact for the final stream up to its lag);
    /// once it expires, the entry is dropped and the call returns `None`.
    #[must_use = "a cache miss assembles a full snapshot; dropping the view wastes that work"]
    pub fn snapshot(&self) -> Option<Arc<SnapshotView<S>>> {
        let mut cached = self
            .state
            .cached
            .lock()
            // PANIC-OK: the lock only guards cache replacement (no user
            // code runs under it), so poisoning means a peer clone
            // panicked mid-assembly and the cache state is unknowable.
            .expect("snapshot cache lock poisoned");
        if let Some(view) = cached.as_ref() {
            let lag = self.source.acknowledged().saturating_sub(view.epoch());
            if view.staleness() <= self.policy.max_age && lag <= self.policy.max_lag_items {
                // RELAXED-OK: statistics counter; the view itself is
                // published by the cache mutex, not by this increment.
                self.state.hits.fetch_add(1, Ordering::Relaxed);
                self.state.publish();
                return Some(Arc::clone(view));
            }
        }
        // The cached view expired.  When no query thread still holds it,
        // reclaim its summary buffer for the source's arena so the refresh
        // below copies into it instead of allocating a fresh clone.
        if let Some(stale) = cached.take() {
            if let Ok(view) = Arc::try_unwrap(stale) {
                self.source.recycle(view.into_merged());
            }
        }
        // Assemble while holding the lock: under a thundering herd of
        // expired queries exactly one clone pays the assembly and the rest
        // serve its result, which is the point of the cache.
        match self.source.snapshot() {
            Some(fresh) => {
                // RELAXED-OK: statistics counter, as for `hits` above.
                self.state.misses.fetch_add(1, Ordering::Relaxed);
                self.state.publish();
                let fresh = Arc::new(fresh);
                *cached = Some(Arc::clone(&fresh));
                Some(fresh)
            }
            None => {
                *cached = None;
                None
            }
        }
    }
}
