//! The sharded ingestion pipeline: worker threads, batching, snapshots,
//! rescaling, and the merged global view.
//!
//! One `std::thread` per shard owns that shard's summary for the worker's
//! whole lifetime — summaries are never shared or locked, so the hot path
//! has no synchronization beyond the bounded command channel.  Each worker
//! drains a stream of commands:
//!
//! * `Ingest(batch)` — apply a batch through [`StreamSummary::ingest`](crate::StreamSummary::ingest) (the
//!   hot path);
//! * `Snapshot { reply, recycled }` — copy the shard's summary *as of every
//!   previously queued batch* (into the recycled buffer when one is
//!   supplied, else a fresh clone) and send it back, so queries can run
//!   against a consistent point-in-time copy while ingestion continues;
//! * `Drain(ack)` — acknowledge once all previously queued batches have been
//!   applied (a per-shard barrier);
//! * `Stop` — hand the final sketch back for the merged
//!   [`PipelineOutput`].
//!
//! Because the channel is FIFO, a snapshot command enqueued after `k` ingest
//! commands observes exactly those `k` batches — that per-shard prefix
//! property is what makes [`ShardedPipeline::snapshot`] (which flushes first)
//! land on a well-defined global epoch, and what keeps concurrent
//! [`LiveHandle`] snapshot epochs monotone.
//!
//! **Rescaling.**  The shard count is a runtime quantity — SALSA's
//! self-adjustment applied to the pipeline layer.  At any moment one worker
//! set ingests; it is *generation `g`*.  [`ShardedPipeline::rescale`]
//! drains and stops it, folds its shard summaries counter-wise into the
//! immutable **sealed** union of all earlier generations (Section V
//! mergeability), and starts generation `g + 1` from empty summaries with
//! the new shard count and by-key routing over that count.  A view is
//! always `sealed ⊎ live`: for sum-merge rows the counter-wise union over
//! *any* split of the stream equals the unsharded sketch, so views and the
//! final merged summary are byte-identical to a run that never rescaled.
//! *When* to rescale is decoupled from this mechanism: see
//! [`crate::policy`] and [`ShardedPipeline::autoscale`].
//!
//! **Fault tolerance.**  Every worker loop runs inside `catch_unwind`: a
//! panicking summary kills that worker only, and the thread's last act
//! before its channel disconnects is to publish the death into the shared
//! [`ShardHealth`] board.  The producer reacts per its
//! [`PipelineConfig::recovery`] policy — degrade (keep serving from the
//! survivors, with coverage metadata on every view and every lost batch
//! counted) or restart the shard with an empty sketch from the pipeline's
//! factory.  Snapshot and drain replies wait at most
//! [`PipelineConfig::reply_timeout`]; dispatch under backpressure can be
//! bounded too.  A [`FaultPlan`] threaded through
//! [`PipelineConfig::chaos`] scripts these failures deterministically for
//! the chaos tests and benches.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, RwLock};

use salsa_hash::BobHash;
use salsa_metrics::HealthCounters;
use salsa_sketches::helper::MergeHelper;

use crate::chaos::{FaultKind, FaultPlan, INJECTED_PANIC};
use crate::error::PipelineError;
use crate::live::{LiveHandle, Published, WorkerSet};
use crate::policy::{LoadMonitor, ScalingPolicy};
use crate::snapshot::SnapshotView;
use crate::supervisor::{next_pause, Recovery, ShardHealth, ShardState, FIRST_PAUSE};
use crate::{by_key_shard, PipelineConfig, SnapshotSummary, DEFAULT_ROUTER_SEED};

/// How many commands may queue per worker before `push` applies
/// backpressure.  Small on purpose: it bounds memory, keeps producers from
/// racing arbitrarily far ahead of slow shards, and bounds how stale a
/// freshly assembled snapshot can be (at most this many batches per shard).
const CHANNEL_DEPTH: usize = 4;

/// Keys whose router digests [`ShardedPipeline::extend`] hashes per
/// [`BobHash::hash_u64_into`] call: a whole number of eight-key lane
/// groups, small enough for a stack buffer.
const HASH_CHUNK: usize = 64;

/// Progress counters a worker publishes after every applied batch, read
/// lock-free by [`LiveHandle`] (epochs and staleness accounting) and by the
/// load monitor (queue depth and utilization sampling).
///
/// Both are cumulative across worker incarnations: a restarted worker
/// publishes `base + incarnation`, so both stay monotone over a restart
/// (model-checked in `tests/loom_supervision.rs`).
#[derive(Debug, Default)]
pub(crate) struct ShardProgress {
    /// Items applied on this shard, across all worker incarnations.
    pub(crate) applied: AtomicU64,
    /// Cumulative wall-clock nanoseconds this shard's workers have spent
    /// inside `ingest` — busy time, excluding channel waits.
    pub(crate) busy_nanos: AtomicU64,
}

/// A point-in-time load reading for one shard, taken producer-side without
/// talking to the worker (see [`ShardedPipeline::shard_loads`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardLoad {
    /// Items dispatched to this worker (excludes producer-side buffers).
    pub dispatched: u64,
    /// Items the worker has applied so far.
    pub applied: u64,
    /// Cumulative seconds the worker has spent applying batches.
    pub busy_secs: f64,
}

impl ShardLoad {
    /// Items sitting in this shard's channel: dispatched but not yet
    /// applied.  The saturation signal — a persistently deep queue means
    /// the worker cannot keep up with its slice of the stream.
    pub fn queue_depth(&self) -> u64 {
        self.dispatched.saturating_sub(self.applied)
    }
}

/// What the producer and live handles send to a shard worker.
pub(crate) enum Command<S> {
    /// Apply a batch of items to the shard's sketch.
    Ingest(Vec<u64>),
    /// Copy the shard's sketch (reflecting every previously queued batch)
    /// and reply with it plus the shard's statistics.  When the requester
    /// supplies a `recycled` buffer (a same-shape summary from a previous
    /// snapshot), the worker refreshes it in place instead of allocating a
    /// fresh clone.
    Snapshot {
        reply: SyncSender<ShardSnapshot<S>>,
        recycled: Option<S>,
    },
    /// Acknowledge once every previously queued batch has been applied.
    Drain(SyncSender<()>),
    /// Shut down and hand the final sketch back through the join handle.
    Stop,
}

/// A worker's reply to [`Command::Snapshot`]: the cloned sketch plus the
/// shard statistics at the moment of the clone.
pub(crate) struct ShardSnapshot<S> {
    pub(crate) sketch: S,
    pub(crate) stats: ShardStats,
    /// Items applied by this shard's earlier, dead incarnations: counted in
    /// a view's epoch, but not covered by `sketch`.
    pub(crate) applied_base: u64,
}

/// What a worker thread hands back when it stops cleanly.  A panicked
/// worker hands back `None` (see [`spawn_worker`]).
struct WorkerReport<S> {
    sketch: S,
    stats: ShardStats,
}

struct Worker<S> {
    tx: SyncSender<Command<S>>,
    handle: JoinHandle<Option<WorkerReport<S>>>,
}

/// Everything a worker thread needs besides its sketch, bundled so spawn
/// and restart share one code path.
struct WorkerSeat {
    shard: usize,
    progress: Arc<ShardProgress>,
    health: Arc<ShardHealth>,
    counters: Arc<HealthCounters>,
    chaos: Option<Arc<FaultPlan>>,
    /// `applied` published by prior incarnations; the fresh worker adds its
    /// own count on top so the shared counter stays monotone.
    applied_base: u64,
    /// Same, for `busy_nanos`.
    busy_nanos_base: u64,
}

/// Spawns one shard worker thread.  The loop itself runs inside
/// `catch_unwind`; the thread's final acts are (in order) publishing its
/// fate into [`ShardHealth`] and *then* disconnecting its channel, so any
/// observer of a failed send/recv can classify the shard by reading the
/// board — the supervision protocol's core invariant, model-checked in
/// `tests/loom_supervision.rs`.
fn spawn_worker<S: SnapshotSummary>(seat: WorkerSeat, sketch: S) -> Worker<S> {
    let (tx, rx) = sync_channel::<Command<S>>(CHANNEL_DEPTH);
    let handle = std::thread::Builder::new()
        .name(format!("salsa-shard-{}", seat.shard))
        .spawn(move || {
            let WorkerSeat {
                shard,
                progress,
                health,
                counters,
                chaos,
                applied_base,
                busy_nanos_base,
            } = seat;
            // UNWIND-OK: a panicking summary must kill this worker only;
            // the catch turns it into ShardHealth state instead of
            // poisoning the whole pipeline.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                worker_loop(
                    &rx,
                    sketch,
                    &progress,
                    chaos.as_deref(),
                    shard,
                    applied_base,
                    busy_nanos_base,
                )
            }));
            let report = match outcome {
                Ok(report) => {
                    health.mark(shard, ShardState::Stopped);
                    Some(report)
                }
                Err(_) => {
                    counters.worker_panics.incr();
                    health.mark(shard, ShardState::Down);
                    None
                }
            };
            // Disconnect strictly after the fate is visible on the board.
            drop(rx);
            report
        })
        // PANIC-OK: spawn only fails on OS thread exhaustion, which
        // construction cannot recover from.
        .expect("failed to spawn shard worker thread");
    Worker { tx, handle }
}

/// The shard worker's command loop — the part of the thread body that runs
/// under `catch_unwind`.  `stats` counts this incarnation only; the shared
/// progress counters are published with the bases added (see
/// [`ShardProgress`]).
fn worker_loop<S: SnapshotSummary>(
    rx: &Receiver<Command<S>>,
    mut sketch: S,
    progress: &ShardProgress,
    chaos: Option<&FaultPlan>,
    shard: usize,
    applied_base: u64,
    busy_nanos_base: u64,
) -> WorkerReport<S> {
    let mut stats = ShardStats::default();
    let mut busy_nanos = 0u64;
    // Acknowledgements swallowed by a scripted DropAck fault: held open (not
    // dropped) until the worker exits, so the requester waits out its drain
    // deadline instead of seeing an instant disconnect.
    let mut swallowed: Vec<SyncSender<()>> = Vec::new();
    while let Ok(command) = rx.recv() {
        match command {
            Command::Ingest(batch) => {
                if let Some(plan) = chaos {
                    match plan.before_batch(shard, stats.items, batch.len() as u64) {
                        // PANIC-OK: a scripted chaos fault — this panic *is*
                        // the test subject, caught by the worker's
                        // catch_unwind and turned into health state.
                        Some(FaultKind::Panic) => panic!("{INJECTED_PANIC}"),
                        Some(FaultKind::Stall(pause)) => std::thread::sleep(pause),
                        Some(FaultKind::DropAck) | None => {}
                    }
                }
                let start = Instant::now();
                sketch.ingest(&batch);
                // One accumulator (integer nanos) for busy time; the f64 in
                // ShardStats is derived from it, so the two can never drift.
                busy_nanos += start.elapsed().as_nanos() as u64;
                stats.busy_secs = busy_nanos as f64 / 1e9;
                stats.items += batch.len() as u64;
                stats.batches += 1;
                // Publish progress once per batch so live handles can
                // measure snapshot staleness (and the load monitor queue
                // depth and utilization) without touching the hot path per
                // item.  `busy_nanos` goes first: `shard_loads` reads
                // `applied` first with Acquire, so a reader that observes
                // batch k's item count also observes (at least) the busy
                // time that produced it — storing `applied` first let a
                // reader pair a new item count with stale busy time and
                // overestimate utilization.  The loom-lite model in
                // tests/loom_models.rs checks exactly this pairing.
                progress
                    .busy_nanos
                    .store(busy_nanos_base + busy_nanos, Ordering::Release);
                progress
                    .applied
                    .store(applied_base + stats.items, Ordering::Release);
            }
            Command::Snapshot { reply, recycled } => {
                let start = Instant::now();
                let clone = match recycled {
                    Some(mut buf) => {
                        buf.copy_from(&sketch);
                        buf
                    }
                    // ALLOC-OK: cold path — the first snapshot (or an arena
                    // miss) has no spare buffer to refresh in place.
                    None => sketch.clone(),
                };
                stats.snapshot_secs += start.elapsed().as_secs_f64();
                stats.snapshots += 1;
                // The requester may have given up (its thread exited
                // between send and recv, or its reply deadline expired);
                // that is not the worker's problem.
                let _ = reply.send(ShardSnapshot {
                    sketch: clone,
                    stats,
                    applied_base,
                });
            }
            Command::Drain(ack) => {
                if chaos.is_some_and(|plan| plan.on_drain(shard, stats.items)) {
                    swallowed.push(ack); // scripted fault: the ack never comes
                    continue;
                }
                let _ = ack.send(());
            }
            Command::Stop => break,
        }
    }
    WorkerReport { sketch, stats }
}

/// Per-shard ingestion statistics, reported by [`ShardedPipeline::finish`]
/// and carried by every [`SnapshotView`].  For a shard that was restarted,
/// these count the *reporting incarnation* only; the shared progress
/// counters (and [`PipelineOutput::lost_items`]) account for the rest.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ShardStats {
    /// Items this shard has applied.
    pub items: u64,
    /// Batches this shard has applied.
    pub batches: u64,
    /// Wall-clock seconds the shard spent inside `ingest` (excludes time
    /// blocked on the channel).
    pub busy_secs: f64,
    /// Snapshot clones this shard has served.
    pub snapshots: u64,
    /// Wall-clock seconds the shard spent cloning its sketch for snapshots
    /// — the ingestion time stolen by the query path.
    pub snapshot_secs: f64,
}

/// One completed rescale, as returned by [`ShardedPipeline::rescale`] and
/// listed in [`PipelineOutput::events`].
#[derive(Debug, Clone, Copy)]
pub struct RescaleEvent {
    /// The generation that started serving after this rescale.
    pub generation: u64,
    /// Global epoch (items pushed) at which the rescale happened.
    pub epoch: u64,
    /// Shard count before.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// Drain-and-seal duration — how long ingestion (and queries) paused.
    pub pause: Duration,
}

/// The result of a finished pipeline run: the merged global sketch plus
/// per-shard statistics and the rescale history — and, after worker
/// deaths, the gap between what was pushed and what `merged` covers.
#[derive(Debug)]
pub struct PipelineOutput<S> {
    /// The counter-wise union of every generation's surviving shard
    /// sketches — the queryable global view of the (covered part of the)
    /// stream.
    pub merged: S,
    /// Per-shard ingestion statistics of the last generation, indexed by
    /// shard.  A failed shard's entry is synthesized from its published
    /// progress counters (items and busy time only).
    pub shards: Vec<ShardStats>,
    /// Total items pushed through the pipeline, across all generations.
    pub items: u64,
    /// Shards of the last generation whose worker died and was not
    /// restarted; they contribute nothing to `merged`.  Empty for a
    /// healthy run.
    pub failed_shards: Vec<usize>,
    /// Items pushed but missing from `merged`, across all generations:
    /// dropped on the ingest path (their shard was down or a bounded
    /// dispatch timed out, including batches in flight when a worker died)
    /// or applied by a worker incarnation that later died.  `0` for a
    /// healthy run.
    pub lost_items: u64,
    /// Every rescale that happened, in order.
    pub events: Vec<RescaleEvent>,
}

impl<S> PipelineOutput<S> {
    /// The busiest shard's busy time — the ingestion critical path.  On a
    /// machine with one core per shard this is the wall-clock time the
    /// sharded system needs for the stream, so
    /// `items / critical_path_secs()` is the throughput sharding sustains.
    pub fn critical_path_secs(&self) -> f64 {
        self.shards.iter().map(|s| s.busy_secs).fold(0.0, f64::max)
    }

    /// Sum of all shards' busy times (total CPU work spent updating).
    pub fn total_busy_secs(&self) -> f64 {
        self.shards.iter().map(|s| s.busy_secs).sum()
    }

    /// Fraction of pushed items `merged` covers: `1.0` for a healthy run.
    pub fn coverage(&self) -> f64 {
        if self.items == 0 {
            1.0
        } else {
            self.items.saturating_sub(self.lost_items) as f64 / self.items as f64
        }
    }

    /// `true` when any pushed item is missing from `merged`.
    pub fn is_degraded(&self) -> bool {
        self.lost_items > 0 || !self.failed_shards.is_empty()
    }

    /// Number of rescales the run went through.
    pub fn rescales(&self) -> usize {
        self.events.len()
    }

    /// The longest rescale pause, in seconds (`0.0` if no rescale
    /// happened).
    pub fn max_pause_secs(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.pause.as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Mean rescale pause, in seconds (`0.0` if no rescale happened).
    pub fn mean_pause_secs(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.events
            .iter()
            .map(|e| e.pause.as_secs_f64())
            .sum::<f64>()
            / self.events.len() as f64
    }
}

/// What stopping one generation's workers leaves behind (see
/// [`ShardedPipeline::stop_generation`]).
struct StoppedGeneration<S> {
    /// Union of the cleanly stopped shards' summaries; `None` when every
    /// worker had died.
    merged: Option<S>,
    shards: Vec<ShardStats>,
    failed_shards: Vec<usize>,
    /// Items any of the generation's workers applied, covered or not.
    acknowledged: u64,
    /// The part of `acknowledged` that `merged` covers.
    covered: u64,
}

/// Outcome of one bounded channel send (see
/// [`ShardedPipeline::send_bounded`]); `Disconnected` hands the command
/// back so a restarted worker can receive it.
enum SendOutcome<S> {
    TimedOut,
    Disconnected(Command<S>),
}

/// A sharded, batched ingestion pipeline over any [`SnapshotSummary`],
/// whose shard count can change while it ingests.
///
/// Build one with [`ShardedPipeline::new`], feed it with
/// [`ShardedPipeline::push`] / [`ShardedPipeline::extend`], query it
/// *while it runs* via [`ShardedPipeline::snapshot`] or a cloned-off
/// [`ShardedPipeline::live_handle`], change its shard count with
/// [`ShardedPipeline::rescale`] (or [`ShardedPipeline::autoscale`]), and
/// call [`ShardedPipeline::finish`] to obtain the merged global view.  See
/// the crate docs for by-key routing and its exactness guarantees.
///
/// The pipeline keeps its summary factory for its whole life (rescales and
/// restarts draw from it), so `'f` is the lifetime of whatever the factory
/// borrows.
pub struct ShardedPipeline<'f, S: SnapshotSummary> {
    config: PipelineConfig,
    router: BobHash,
    buffers: Vec<Vec<u64>>,
    workers: Vec<Worker<S>>,
    progress: Vec<Arc<ShardProgress>>,
    dispatched: Vec<u64>,
    /// Per shard, the applied items of dead incarnations already counted
    /// into `lost_items`, so repeated detection of one death adds nothing.
    settled: Vec<u64>,
    pushed: u64,
    /// Supervision event counters (panics, restarts, timeouts, drops),
    /// owned by this pipeline and shared with its workers and handles.
    counters: Arc<HealthCounters>,
    health: Arc<ShardHealth>,
    /// Builds every shard summary: each generation's, and each restart's.
    factory: Box<dyn FnMut(usize) -> S + Send + 'f>,
    lost_items: u64,
    /// What every [`LiveHandle`] resolves its queries against: republished
    /// on each restart, rescale and finish.
    published: Arc<RwLock<Published<S>>>,
    events: Vec<RescaleEvent>,
    /// Reusable merge scratch for the producer-side sealing folds.
    helper: MergeHelper,
}

impl<S: SnapshotSummary> Drop for ShardedPipeline<'_, S> {
    /// Darkens outstanding handles if the pipeline is dropped without
    /// [`ShardedPipeline::finish`]: the workers exit once their channels
    /// close, and without this a concurrent [`LiveHandle::snapshot`] would
    /// retry against them until its deadline instead of reporting
    /// [`PipelineError::Finished`].
    /// The live generation's applied items are folded into the sealed
    /// count first, so [`LiveHandle::acknowledged`] never moves backwards.
    /// (After [`ShardedPipeline::finish`] this is a no-op.)
    fn drop(&mut self) {
        // A poisoned lock is left alone: Drop must not panic.
        if let Ok(mut published) = self.published.write() {
            if let Some(live) = published.live.take() {
                published.sealed_acknowledged += live.acknowledged();
            }
        }
    }
}

impl<'f, S: SnapshotSummary> ShardedPipeline<'f, S> {
    /// Creates the pipeline and spawns one worker thread per shard.
    ///
    /// `factory` is called once per shard (with the shard index) to build
    /// that shard's summary — again for every generation a rescale starts
    /// and for every restarted shard.  Every call **must** use the same
    /// seed and dimensions — the pipeline cannot check this generically,
    /// but [`StreamSummary::merge_from`](crate::StreamSummary::merge_from)
    /// enforces it when shard summaries are folded together.
    ///
    /// The config's fault-tolerance settings apply to every generation's
    /// workers: by default worker panics degrade rather than poison, and
    /// under [`Recovery::Restart`] a dead shard respawns with a fresh, empty
    /// sketch from `factory` (the dead incarnation's items are counted as
    /// lost — see [`ShardedPipeline::lost_items`] and the coverage metadata
    /// on every [`SnapshotView`]).
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0` or `config.batch_size == 0`.
    pub fn new(config: &PipelineConfig, factory: impl FnMut(usize) -> S + Send + 'f) -> Self {
        assert!(config.shards > 0, "a pipeline needs at least one shard");
        assert!(config.batch_size > 0, "batch size must be positive");
        let mut pipeline = Self {
            config: config.clone(),
            router: BobHash::new(DEFAULT_ROUTER_SEED),
            buffers: Vec::new(),
            workers: Vec::new(),
            progress: Vec::new(),
            dispatched: Vec::new(),
            settled: Vec::new(),
            pushed: 0,
            counters: Arc::new(HealthCounters::new()),
            health: Arc::new(ShardHealth::new(0)),
            factory: Box::new(factory),
            lost_items: 0,
            published: Arc::new(RwLock::new(Published {
                generation: 0,
                live: None,
                sealed: None,
                sealed_acknowledged: 0,
                sealed_uncovered: 0,
            })),
            events: Vec::new(),
            helper: MergeHelper::new(),
        };
        pipeline.start_generation(config.shards);
        let live = pipeline.worker_set();
        pipeline.publish(|published| published.live = Some(live));
        pipeline
    }

    /// Spawns a fresh worker set of `shards` workers from the factory and
    /// makes it the one the producer feeds.  Publishing it to handles is
    /// the caller's job.
    fn start_generation(&mut self, shards: usize) {
        self.config.shards = shards;
        self.health = Arc::new(ShardHealth::new(shards));
        self.progress = (0..shards).map(|_| Arc::default()).collect();
        self.workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let sketch = (self.factory)(shard);
            self.workers
                .push(spawn_worker(self.seat(shard, 0, 0), sketch));
        }
        // One `with_capacity` per buffer: `vec![buffer; n]` clones, and a
        // cloned `Vec` drops its spare capacity.
        self.buffers = (0..shards)
            .map(|_| Vec::with_capacity(self.config.batch_size))
            .collect();
        self.dispatched = vec![0; shards];
        self.settled = vec![0; shards];
    }

    fn seat(&self, shard: usize, applied_base: u64, busy_nanos_base: u64) -> WorkerSeat {
        WorkerSeat {
            shard,
            progress: Arc::clone(&self.progress[shard]),
            health: Arc::clone(&self.health),
            counters: Arc::clone(&self.counters),
            chaos: self.config.chaos.clone(),
            applied_base,
            busy_nanos_base,
        }
    }

    /// The live workers as handles see them.
    fn worker_set(&self) -> Arc<WorkerSet<S>> {
        Arc::new(WorkerSet {
            senders: self.workers.iter().map(|w| w.tx.clone()).collect(),
            progress: self.progress.clone(),
            health: Arc::clone(&self.health),
        })
    }

    /// Updates the state every handle resolves its queries against.
    fn publish<R>(&self, update: impl FnOnce(&mut Published<S>) -> R) -> R {
        let mut published = self
            .published
            .write()
            // PANIC-OK: no user code runs under the state lock (the sealing
            // folds happen before it is taken), so poisoning is
            // unreachable.
            .expect("pipeline state lock poisoned");
        update(&mut published)
    }

    /// Current number of worker shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Index of the live generation (number of completed rescales).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.events.len() as u64
    }

    /// Items pushed so far, across all generations (buffered or
    /// dispatched).
    #[inline]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Items applied by workers so far, across all generations and worker
    /// incarnations — covered or not (see [`LiveHandle::acknowledged`]).
    pub fn acknowledged(&self) -> u64 {
        self.publish(|published| published.acknowledged())
    }

    /// The live generation's per-shard health board (see [`ShardHealth`]).
    /// A rescale replaces the board along with the workers, so don't cache
    /// the reference across one.
    #[inline]
    pub fn health(&self) -> &Arc<ShardHealth> {
        &self.health
    }

    /// The supervision event counters (panics, restarts, timeouts, drops)
    /// of this pipeline, its workers and its handles.
    #[inline]
    pub fn counters(&self) -> &Arc<HealthCounters> {
        &self.counters
    }

    /// Items pushed but known to be missing from any future view: dropped
    /// on the ingest path (dead or stalled shard) or applied by a worker
    /// incarnation that died.  `0` while the pipeline is healthy.
    #[inline]
    pub fn lost_items(&self) -> u64 {
        self.lost_items
    }

    /// The shard that owns `item`: a pure function of the key and the
    /// current shard count.
    #[inline]
    pub fn shard_of(&self, item: u64) -> usize {
        by_key_shard(self.router.hash_u64(item), self.workers.len())
    }

    /// Feeds one item into the pipeline, dispatching a batch to the owning
    /// worker when that shard's buffer fills up.
    ///
    /// Infallible by design: a batch that cannot be delivered (dead shard,
    /// bounded dispatch timed out) is counted into
    /// [`ShardedPipeline::lost_items`] and the health counters instead of
    /// failing the push.
    #[inline]
    pub fn push(&mut self, item: u64) {
        self.buffer_item(self.shard_of(item), item);
    }

    /// Feeds a slice of items into the pipeline, exactly as pushing them
    /// one by one would.
    ///
    /// The router digests of each 64 items (`HASH_CHUNK`) are computed in
    /// one [`BobHash::hash_u64_into`] call (AVX2 lanes where the CPU has
    /// them) into a stack buffer before the items are routed.
    pub fn extend(&mut self, items: &[u64]) {
        let mut digests = [0u64; HASH_CHUNK];
        for chunk in items.chunks(HASH_CHUNK) {
            let digests = &mut digests[..chunk.len()];
            self.router.hash_u64_into(chunk, digests);
            for (&item, &digest) in chunk.iter().zip(digests.iter()) {
                self.buffer_item(by_key_shard(digest, self.workers.len()), item);
            }
        }
    }

    /// Appends a routed item to `shard`'s buffer and dispatches the buffer
    /// once it holds a full batch, swapping in a fresh one with room for
    /// the next.
    #[inline]
    fn buffer_item(&mut self, shard: usize, item: u64) {
        self.pushed += 1;
        let buffer = &mut self.buffers[shard];
        buffer.push(item);
        if buffer.len() >= self.config.batch_size {
            let batch = self.take_buffer(shard);
            self.dispatch(shard, batch);
        }
    }

    /// Takes `shard`'s buffer, leaving an empty one with room for a whole
    /// batch, so the next pushes do not regrow it.
    fn take_buffer(&mut self, shard: usize) -> Vec<u64> {
        std::mem::replace(
            &mut self.buffers[shard],
            Vec::with_capacity(self.config.batch_size),
        )
    }

    /// Dispatches every non-empty buffer to its worker, regardless of fill
    /// level.
    pub fn flush(&mut self) {
        for shard in 0..self.buffers.len() {
            if !self.buffers[shard].is_empty() {
                let batch = self.take_buffer(shard);
                self.dispatch(shard, batch);
            }
        }
    }

    /// Delivers one batch to `shard`'s worker, applying the recovery policy
    /// when the worker turns out to be dead.  A batch that cannot be
    /// delivered is counted as lost.
    fn dispatch(&mut self, shard: usize, batch: Vec<u64>) {
        let len = batch.len() as u64;
        // Fast path for a shard already known dead: don't touch the channel.
        if self.health.state(shard) == ShardState::Down && !self.handle_down(shard) {
            self.drop_batch(len);
            return;
        }
        let mut command = Command::Ingest(batch);
        loop {
            match self.send_bounded(shard, command) {
                Ok(()) => {
                    self.dispatched[shard] += len;
                    return;
                }
                Err(SendOutcome::TimedOut) => {
                    self.counters.timeouts.incr();
                    self.drop_batch(len);
                    return;
                }
                Err(SendOutcome::Disconnected(returned)) => {
                    // The worker died since the health check above.  The
                    // death is on the board by now (it precedes the
                    // disconnect); settle the books and maybe restart.
                    if !self.handle_down(shard) {
                        self.drop_batch(len);
                        return;
                    }
                    command = returned; // retry against the fresh worker
                }
            }
        }
    }

    /// One channel send under the configured dispatch bound: blocking when
    /// `dispatch_timeout` is `None` (backpressure is flow control), else a
    /// try/backoff loop against the deadline.
    fn send_bounded(&self, shard: usize, command: Command<S>) -> Result<(), SendOutcome<S>> {
        let tx = &self.workers[shard].tx;
        match self.config.dispatch_timeout {
            // Blocks when the worker is CHANNEL_DEPTH commands behind; only
            // errors if the worker died.
            None => tx
                .send(command)
                .map_err(|err| SendOutcome::Disconnected(err.0)),
            Some(timeout) => {
                let deadline = Instant::now() + timeout;
                let mut sleep = FIRST_PAUSE;
                let mut command = command;
                loop {
                    match tx.try_send(command) {
                        Ok(()) => return Ok(()),
                        Err(TrySendError::Disconnected(returned)) => {
                            return Err(SendOutcome::Disconnected(returned));
                        }
                        Err(TrySendError::Full(returned)) => {
                            let now = Instant::now();
                            if now >= deadline {
                                return Err(SendOutcome::TimedOut);
                            }
                            std::thread::sleep(sleep.min(deadline - now));
                            sleep = next_pause(sleep);
                            command = returned;
                        }
                    }
                }
            }
        }
    }

    /// Settles the books for a dead shard, then applies the recovery
    /// policy.  Returns `true` when the shard is up again (restarted).
    fn handle_down(&mut self, shard: usize) -> bool {
        self.note_shard_down(shard);
        self.try_restart(shard)
    }

    /// Accounts a detected worker death: batches in flight (dispatched but
    /// never applied) and the dead incarnation's applied items both become
    /// lost.  Idempotent — `settled` marks what is already counted.
    fn note_shard_down(&mut self, shard: usize) {
        let applied = self.progress[shard].applied.load(Ordering::Acquire);
        let in_flight = self.dispatched[shard].saturating_sub(applied);
        self.dispatched[shard] = applied;
        let lost = in_flight + applied.saturating_sub(self.settled[shard]);
        self.settled[shard] = applied;
        if lost > 0 {
            self.lost_items += lost;
            self.counters.dropped_items.add(lost);
        }
    }

    /// Respawns `shard`'s worker with an empty sketch when the recovery
    /// policy allows it, and republishes the worker set so live handles
    /// reach the new incarnation.  The new incarnation publishes progress
    /// on top of the dead one's counts, so `applied` stays monotone for
    /// readers.
    fn try_restart(&mut self, shard: usize) -> bool {
        let Recovery::Restart { max_restarts } = self.config.recovery else {
            return false;
        };
        if self.health.restarts(shard) >= max_restarts {
            return false;
        }
        let sketch = (self.factory)(shard);
        let applied = self.progress[shard].applied.load(Ordering::Acquire);
        let busy = self.progress[shard].busy_nanos.load(Ordering::Acquire);
        self.workers[shard] = spawn_worker(self.seat(shard, applied, busy), sketch);
        let live = self.worker_set();
        self.publish(|published| published.live = Some(live));
        self.health.record_restart(shard);
        self.health.mark(shard, ShardState::Up);
        self.counters.worker_restarts.incr();
        true
    }

    /// Applies the recovery policy to every shard currently marked down —
    /// a sweep for deaths detected by reply paths that cannot restart.
    fn recover_down_shards(&mut self) {
        if matches!(self.config.recovery, Recovery::Restart { .. }) {
            for shard in 0..self.workers.len() {
                if self.health.state(shard) == ShardState::Down {
                    let _ = self.handle_down(shard);
                }
            }
        }
    }

    /// Counts a batch that could not be delivered.
    fn drop_batch(&mut self, len: u64) {
        self.lost_items += len;
        self.counters.dropped_items.add(len);
    }

    /// Items currently sitting in the producer-side buffers (pushed but not
    /// yet dispatched to any worker).
    pub fn buffered(&self) -> u64 {
        self.buffers.iter().map(|b| b.len() as u64).sum()
    }

    /// A producer-side load reading per shard of the live generation:
    /// items dispatched, items applied, and cumulative busy time — taken
    /// from the workers' published progress counters without sending them
    /// any command, so sampling is free for the ingest path.  This is the
    /// raw signal behind [`LoadMonitor`].
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.progress
            .iter()
            .zip(&self.dispatched)
            .map(|(progress, &dispatched)| ShardLoad {
                dispatched,
                applied: progress.applied.load(Ordering::Acquire),
                busy_secs: progress.busy_nanos.load(Ordering::Acquire) as f64 / 1e9,
            })
            .collect()
    }

    /// Returns a clonable, `Send` handle that can snapshot and query this
    /// pipeline from other threads while ingestion continues — across
    /// restarts and rescales.
    ///
    /// Handles stay valid until [`ShardedPipeline::finish`] shuts the
    /// workers down (or the pipeline is dropped), after which their
    /// snapshots report [`PipelineError::Finished`]; while shard workers are
    /// dead, their views degrade (see [`LiveHandle::snapshot`]).
    pub fn live_handle(&self) -> LiveHandle<S> {
        LiveHandle::new(
            Arc::clone(&self.published),
            Arc::clone(&self.counters),
            self.config.reply_timeout,
        )
    }

    /// Takes a consistent point-in-time snapshot of the whole pipeline
    /// *without stopping it*: flushes the producer-side buffers, then merges
    /// a clone of every live shard's sketch with the sealed generations.
    ///
    /// Because flushing dispatches everything pushed so far and each shard's
    /// channel is FIFO, the returned view sits at **epoch
    /// [`ShardedPipeline::pushed`]** while the pipeline is healthy: for
    /// sum-merge rows its estimates are identical to an unsharded sketch
    /// over exactly the items pushed so far.  With dead shards the view is
    /// degraded — it covers the survivors, its epoch still counts every
    /// acknowledged item, and [`SnapshotView::coverage`] names the part it
    /// does not cover.  Ingestion resumes (or rather, never stopped) after
    /// the call.
    ///
    /// Degraded views are `Ok` — check [`SnapshotView::is_degraded`].  An
    /// error means no view can be served at all (see
    /// [`LiveHandle::snapshot`]).
    #[must_use = "assembling a snapshot clones every shard's sketch; dropping it wastes that work"]
    pub fn snapshot(&mut self) -> Result<SnapshotView<S>, PipelineError> {
        self.flush();
        self.recover_down_shards();
        self.live_handle().snapshot()
    }

    /// Blocks until every item pushed so far has been applied by its worker
    /// (a full-pipeline barrier), and returns that epoch.
    ///
    /// After `drain`, [`LiveHandle::acknowledged`] equals
    /// [`ShardedPipeline::pushed`] until the next push — while the pipeline
    /// is healthy; dead shards are skipped (their gap shows up in
    /// [`ShardedPipeline::lost_items`] and the coverage metadata).
    ///
    /// # Panics
    ///
    /// Panics when a drain acknowledgement misses its deadline — use
    /// [`ShardedPipeline::try_drain`] to handle that as a typed error.
    pub fn drain(&mut self) -> u64 {
        self.try_drain()
            // PANIC-OK: dead shards degrade to Ok(..); Err is an exhausted
            // deadline (a wedged worker), which this convenience treats as
            // the bug it is.  The try_ variant reports instead.
            .expect("pipeline drain failed")
    }

    /// Like [`ShardedPipeline::drain`], but an exhausted acknowledgement
    /// deadline surfaces as [`PipelineError::Timeout`] instead of a panic.
    /// Shards found dead along the way are settled per the recovery policy
    /// and do not fail the drain.
    pub fn try_drain(&mut self) -> Result<u64, PipelineError> {
        self.flush();
        let mut pending: Vec<(usize, Receiver<()>)> = Vec::with_capacity(self.workers.len());
        let mut dead: Vec<usize> = Vec::new();
        for (shard, worker) in self.workers.iter().enumerate() {
            let (tx, rx) = sync_channel(1);
            if worker.tx.send(Command::Drain(tx)).is_ok() {
                pending.push((shard, rx));
            } else {
                dead.push(shard);
            }
        }
        let deadline = Instant::now() + self.config.reply_timeout;
        for (shard, rx) in pending {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok(()) => {}
                Err(RecvTimeoutError::Disconnected) => dead.push(shard),
                Err(RecvTimeoutError::Timeout) => {
                    self.counters.timeouts.incr();
                    return Err(PipelineError::Timeout {
                        operation: "drain",
                        waited: self.config.reply_timeout,
                    });
                }
            }
        }
        for shard in dead {
            let _ = self.handle_down(shard);
        }
        Ok(self.pushed)
    }

    /// Changes the worker-shard count to `target_shards` (clamped to at
    /// least 1), sealing the live generation and starting a fresh one.
    ///
    /// Returns `None` (and does nothing) when the pipeline already runs
    /// `target_shards` shards.  Otherwise the call:
    ///
    /// 1. drains and stops the old workers, folding their summaries into
    ///    the sealed union — the *pause window*, during which concurrent
    ///    [`LiveHandle`] queries keep the old generation's answers and
    ///    then retry against the new one,
    /// 2. spawns the new generation's workers from the factory,
    /// 3. atomically publishes the sealed union, the sealed generation's
    ///    acknowledged and uncovered counts, and the new workers to every
    ///    handle — so coverage gaps and epochs carry over the boundary.
    ///
    /// Exactness is unaffected: for sum-merge rows the final merged view
    /// is identical to a run that never rescaled.
    pub fn rescale(&mut self, target_shards: usize) -> Option<RescaleEvent> {
        let to_shards = target_shards.max(1);
        let from_shards = self.shards();
        if to_shards == from_shards {
            return None;
        }
        let pause_started = Instant::now();
        let old = self.stop_generation();
        self.start_generation(to_shards);
        // The producer is the only writer, so the union it folds into
        // cannot change before the publish below.
        let union = self.publish(|published| published.sealed.clone());
        let sealed = match (old.merged, union) {
            (Some(mut sealing), Some(union)) => {
                sealing.merge_with_helper(&union, &mut self.helper);
                Some(Arc::new(sealing))
            }
            (sealing, union) => sealing.map(Arc::new).or(union),
        };
        let live = self.worker_set();
        self.publish(|published| {
            published.sealed = sealed;
            published.sealed_acknowledged += old.acknowledged;
            published.sealed_uncovered += old.acknowledged - old.covered;
            published.generation += 1;
            published.live = Some(live);
        });
        let event = RescaleEvent {
            generation: self.generation() + 1,
            epoch: self.pushed,
            from_shards,
            to_shards,
            pause: pause_started.elapsed(),
        };
        self.events.push(event);
        Some(event)
    }

    /// Samples the current load through `monitor`, asks `policy` for a
    /// target shard count, and rescales if it differs from the current one
    /// — one tick of the closed control loop.  Call it periodically from
    /// the ingest thread (e.g. every few thousand pushes).
    pub fn autoscale<P: ScalingPolicy + ?Sized>(
        &mut self,
        monitor: &mut LoadMonitor,
        policy: &mut P,
    ) -> Option<RescaleEvent> {
        let load = monitor.sample(self);
        let target = policy.decide(&load)?;
        self.rescale(target)
    }

    /// Ends the live generation: flushes, stops and joins its workers,
    /// settles the books of the dead ones, and merges the survivors.
    fn stop_generation(&mut self) -> StoppedGeneration<S> {
        self.flush();
        let workers = std::mem::take(&mut self.workers);
        let mut stopped = StoppedGeneration {
            merged: None,
            shards: Vec::with_capacity(workers.len()),
            failed_shards: Vec::new(),
            acknowledged: 0,
            covered: 0,
        };
        for (shard, worker) in workers.into_iter().enumerate() {
            // An explicit stop (rather than relying on channel closure)
            // lets outstanding live handles keep their senders: their next
            // send simply fails once the worker has exited.  A send error
            // here means the worker is already dead; the join tells us how.
            let _ = worker.tx.send(Command::Stop);
            drop(worker.tx);
            let report = worker.handle.join().unwrap_or(None);
            let applied = self.progress[shard].applied.load(Ordering::Acquire);
            stopped.acknowledged += applied;
            match report {
                Some(report) => {
                    stopped.covered += report.stats.items;
                    stopped.shards.push(report.stats);
                    match stopped.merged.as_mut() {
                        None => stopped.merged = Some(report.sketch),
                        Some(m) => m.merge_from(&report.sketch),
                    }
                }
                None => {
                    self.note_shard_down(shard);
                    stopped.failed_shards.push(shard);
                    // Synthesize what the published counters still know.
                    stopped.shards.push(ShardStats {
                        items: applied,
                        busy_secs: self.progress[shard].busy_nanos.load(Ordering::Acquire) as f64
                            / 1e9,
                        ..ShardStats::default()
                    });
                }
            }
        }
        stopped
    }

    /// Flushes remaining buffers, shuts the workers down, and merges every
    /// shard's sketch — and every sealed generation — into the global
    /// view.
    ///
    /// Outstanding [`LiveHandle`]s remain safe to use: their snapshots
    /// report [`PipelineError::Finished`] once the workers have stopped.
    ///
    /// Shards whose worker died along the way degrade rather than poison:
    /// the survivors merge, and [`PipelineOutput::failed_shards`] /
    /// [`PipelineOutput::lost_items`] name the gap.  Even total failure
    /// (every worker dead and no generation sealed) returns: `merged` is
    /// then an empty summary from the factory, every shard is in
    /// `failed_shards`, and [`PipelineOutput::coverage`] reads `0.0` — check
    /// [`PipelineOutput::is_degraded`].
    ///
    /// # Panics
    ///
    /// Panics if the shard summaries were built with mismatched
    /// seeds/shapes (see
    /// [`StreamSummary::merge_from`](crate::StreamSummary::merge_from)).
    pub fn finish(mut self) -> PipelineOutput<S> {
        let last = self.stop_generation();
        let sealed = self.publish(|published| {
            published.sealed_acknowledged += last.acknowledged;
            published.sealed_uncovered += last.acknowledged - last.covered;
            published.live = None;
            published.sealed.take()
        });
        let merged = match (last.merged, sealed) {
            (Some(mut merged), Some(sealed)) => {
                merged.merge_with_helper(&sealed, &mut self.helper);
                merged
            }
            (Some(merged), None) => merged,
            // Handles may still hold the union for a moment; copy it then.
            (None, Some(sealed)) => Arc::try_unwrap(sealed).unwrap_or_else(|arc| (*arc).clone()),
            (None, None) => (self.factory)(0),
        };
        PipelineOutput {
            merged,
            shards: last.shards,
            items: self.pushed,
            failed_shards: last.failed_shards,
            lost_items: self.lost_items,
            events: std::mem::take(&mut self.events),
        }
    }
}

/// Convenience: builds a pipeline for `config`, streams `items` through it,
/// and finishes it — the one-call form used by benches and examples.
pub fn run_sharded<S: SnapshotSummary>(
    config: &PipelineConfig,
    factory: impl FnMut(usize) -> S + Send,
    items: &[u64],
) -> PipelineOutput<S> {
    let mut pipeline = ShardedPipeline::new(config, factory);
    pipeline.extend(items);
    pipeline.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use salsa_core::traits::MergeOp;
    use salsa_sketches::cms::CountMin;
    use salsa_sketches::cs::CountSketch;
    use salsa_sketches::cus::ConservativeUpdate;

    fn zipfish_stream(n: usize, universe: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
                ((1.0 / u) as u64).min(universe - 1)
            })
            .collect()
    }

    fn unsharded<S: SnapshotSummary>(mut sketch: S, items: &[u64]) -> S {
        for chunk in items.chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
            sketch.ingest(chunk);
        }
        sketch
    }

    /// How many of `items` each shard of `pipeline` owns.
    fn routed_counts(
        pipeline: &ShardedPipeline<'_, impl SnapshotSummary>,
        items: &[u64],
    ) -> Vec<u64> {
        let mut routed = vec![0u64; pipeline.shards()];
        for &item in items {
            routed[pipeline.shard_of(item)] += 1;
        }
        routed
    }

    /// The first `n` keys routed to `shard`, in key order.
    fn keys_of(
        pipeline: &ShardedPipeline<'_, impl SnapshotSummary>,
        shard: usize,
        n: usize,
    ) -> Vec<u64> {
        (0u64..)
            .filter(|&key| pipeline.shard_of(key) == shard)
            .take(n)
            .collect()
    }

    #[test]
    fn by_key_sum_merge_cms_equals_unsharded() {
        let items = zipfish_stream(50_000, 2_000, 5);
        let make = |_: usize| CountMin::salsa(4, 512, 8, MergeOp::Sum, 11);
        let out = run_sharded(&PipelineConfig::new(4), make, &items);
        let single = unsharded(make(0), &items);
        assert_eq!(out.items, items.len() as u64);
        for item in 0..2_000u64 {
            assert_eq!(
                out.merged.estimate(item),
                single.estimate(item),
                "item {item}"
            );
        }
    }

    #[test]
    fn max_merge_cms_never_underestimates_across_shards() {
        let items = zipfish_stream(40_000, 1_000, 9);
        let mut truth = std::collections::HashMap::new();
        for &item in &items {
            *truth.entry(item).or_insert(0u64) += 1;
        }
        let out = run_sharded(
            &PipelineConfig::new(4),
            |_| CountMin::salsa(4, 512, 8, MergeOp::Max, 17),
            &items,
        );
        for (&item, &count) in &truth {
            assert!(out.merged.estimate(item) >= count, "item {item}");
        }
    }

    #[test]
    fn cus_and_cs_run_sharded() {
        let items = zipfish_stream(30_000, 800, 21);
        let mut truth = std::collections::HashMap::new();
        for &item in &items {
            *truth.entry(item).or_insert(0i64) += 1;
        }
        let cus = run_sharded(
            &PipelineConfig::new(4),
            |_| ConservativeUpdate::salsa(4, 512, 8, 23),
            &items,
        );
        for (&item, &count) in &truth {
            assert!(cus.merged.estimate(item) >= count as u64, "CUS item {item}");
        }
        // The Count Sketch merged view is the exact counter-wise union;
        // check the heaviest item is recovered within a loose band.
        let cs = run_sharded(
            &PipelineConfig::new(4),
            |_| CountSketch::salsa(5, 1024, 16, 29),
            &items,
        );
        let (&heavy, &count) = truth.iter().max_by_key(|(_, &c)| c).unwrap();
        let est = cs.merged.estimate(heavy);
        assert!(
            (est - count).abs() as f64 <= 0.1 * count as f64,
            "CS heavy item {heavy}: {est} vs {count}"
        );
    }

    #[test]
    fn by_key_routes_each_key_to_one_shard() {
        let config = PipelineConfig::new(5);
        let pipeline =
            ShardedPipeline::new(&config, |_| CountMin::salsa(2, 64, 8, MergeOp::Sum, 1));
        for key in 0..500u64 {
            let first = pipeline.shard_of(key);
            assert!(first < 5);
            assert_eq!(first, pipeline.shard_of(key), "routing must be pure");
        }
    }

    /// Logs the items its shard applied, in order; a merge appends the
    /// other summary's logs, so a finished pipeline's union lists every
    /// shard's sub-stream.
    #[derive(Debug, Clone, PartialEq)]
    struct SubStreams(Vec<(usize, Vec<u64>)>);

    impl crate::StreamSummary for SubStreams {
        fn ingest(&mut self, items: &[u64]) {
            self.0[0].1.extend_from_slice(items);
        }

        fn merge_from(&mut self, other: &Self) {
            self.0.extend(other.0.iter().cloned());
        }
    }

    impl SnapshotSummary for SubStreams {
        fn clone_cost_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn extend_gives_each_shard_the_sub_stream_of_per_item_pushes() {
        // Slices of every length 0..=200, back to back: each length once,
        // so chunk tails, whole lane groups and multi-chunk slices all
        // occur, and a batch size of 7 makes extend dispatch mid-slice.
        let stream = zipfish_stream(200 * 201 / 2, 1 << 20, 23);
        for shards in [2, 3] {
            let config = PipelineConfig::new(shards).batch_size(7);
            let factory = |shard| SubStreams(vec![(shard, Vec::new())]);
            let mut pushed = ShardedPipeline::new(&config, factory);
            let mut extended = ShardedPipeline::new(&config, factory);
            let mut rest = stream.as_slice();
            for len in 0..=200 {
                let (slice, tail) = rest.split_at(len);
                for &item in slice {
                    pushed.push(item);
                }
                extended.extend(slice);
                assert_eq!(extended.pushed(), pushed.pushed());
                rest = tail;
            }
            let (pushed, extended) = (pushed.finish(), extended.finish());
            assert_eq!(extended.items, stream.len() as u64);
            assert_eq!(extended.merged, pushed.merged, "over {shards} shards");
            let total: usize = extended.merged.0.iter().map(|(_, log)| log.len()).sum();
            assert_eq!(total, stream.len());
        }
    }

    #[test]
    fn stats_account_for_every_item_and_batch() {
        let items: Vec<u64> = (0..10_000).map(|i| i % 97).collect();
        let config = PipelineConfig::new(4).batch_size(128);
        let mut pipeline =
            ShardedPipeline::new(&config, |_| CountMin::salsa(2, 128, 8, MergeOp::Sum, 3));
        let routed = routed_counts(&pipeline, &items);
        pipeline.extend(&items);
        let out = pipeline.finish();
        assert_eq!(out.items, 10_000);
        assert_eq!(out.shards.len(), 4);
        assert_eq!(out.shards.iter().map(|s| s.items).sum::<u64>(), 10_000);
        assert!(out.failed_shards.is_empty());
        assert_eq!(out.lost_items, 0);
        assert_eq!(out.coverage(), 1.0);
        assert!(!out.is_degraded());
        // Each shard applies exactly its keys' items, in full batches plus
        // the partial one `finish` flushes.
        for (stats, &routed) in out.shards.iter().zip(&routed) {
            assert_eq!(stats.items, routed);
            assert_eq!(stats.batches, routed.div_ceil(128));
            assert!(stats.busy_secs >= 0.0);
            assert_eq!(stats.snapshots, 0);
        }
        assert!(out.critical_path_secs() <= out.total_busy_secs());
    }

    #[test]
    fn single_shard_pipeline_degenerates_to_one_sketch() {
        let items = zipfish_stream(5_000, 200, 31);
        let make = |_: usize| CountMin::salsa(4, 256, 8, MergeOp::Sum, 37);
        let out = run_sharded(&PipelineConfig::new(1).batch_size(1), make, &items);
        let single = unsharded(make(0), &items);
        for item in 0..200u64 {
            assert_eq!(out.merged.estimate(item), single.estimate(item));
        }
    }

    #[test]
    fn zero_batch_size_is_clamped_to_one() {
        // `batch_size(0)` used to configure a pipeline that could never
        // dispatch a batch; the builder now clamps to 1 (every push becomes
        // its own batch) and the pipeline behaves like batch_size == 1.
        let config = PipelineConfig::new(2).batch_size(0);
        assert_eq!(config.batch_size, 1);
        let items = zipfish_stream(2_000, 100, 41);
        let make = |_: usize| CountMin::salsa(2, 128, 8, MergeOp::Sum, 43);
        let out = run_sharded(&config, make, &items);
        let single = unsharded(make(0), &items);
        assert_eq!(out.items, items.len() as u64);
        for item in 0..100u64 {
            assert_eq!(out.merged.estimate(item), single.estimate(item));
        }
    }

    #[test]
    fn snapshot_mid_stream_sits_at_the_flushed_epoch() {
        let items = zipfish_stream(20_000, 500, 47);
        let make = |_: usize| CountMin::salsa(3, 512, 8, MergeOp::Sum, 53);
        let config = PipelineConfig::new(3).batch_size(64);
        let mut pipeline = ShardedPipeline::new(&config, make);
        pipeline.extend(&items[..12_345]);
        let view = pipeline
            .snapshot()
            .expect("a healthy pipeline serves views");
        assert_eq!(view.epoch(), 12_345);
        assert!(!view.is_degraded());
        assert_eq!(view.shards_failed(), 0);
        assert_eq!(view.coverage_fraction(), 1.0);
        let prefix = unsharded(make(0), &items[..12_345]);
        for item in 0..500u64 {
            assert_eq!(
                view.estimate(item),
                prefix.estimate(item) as i64,
                "item {item}"
            );
        }
        // The snapshot must not perturb the final state.
        pipeline.extend(&items[12_345..]);
        let out = pipeline.finish();
        let single = unsharded(make(0), &items);
        for item in 0..500u64 {
            assert_eq!(out.merged.estimate(item), single.estimate(item));
        }
        assert_eq!(out.shards.iter().map(|s| s.snapshots).sum::<u64>(), 3);
    }

    #[test]
    fn drain_acknowledges_everything_pushed() {
        let items = zipfish_stream(8_000, 300, 59);
        let config = PipelineConfig::new(4).batch_size(32);
        let mut pipeline =
            ShardedPipeline::new(&config, |_| CountMin::salsa(2, 256, 8, MergeOp::Sum, 61));
        let handle = pipeline.live_handle();
        pipeline.extend(&items);
        let epoch = pipeline.drain();
        assert_eq!(epoch, items.len() as u64);
        assert_eq!(handle.acknowledged(), items.len() as u64);
        pipeline.finish();
    }

    #[test]
    #[should_panic(expected = "share hash seeds")]
    fn mismatched_shard_seeds_panic_at_finish() {
        let items = zipfish_stream(1_000, 100, 1);
        let _ = run_sharded(
            &PipelineConfig::new(2),
            |shard| CountMin::salsa(2, 128, 8, MergeOp::Sum, shard as u64),
            &items,
        );
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        // Builder-style configuration can't panic: both `new(0)` and
        // `shards(0)` clamp to a single shard, mirroring the
        // `batch_size(0)` rule.
        assert_eq!(PipelineConfig::new(0).shards, 1);
        assert_eq!(PipelineConfig::new(4).shards(0).shards, 1);
        assert_eq!(PipelineConfig::new(4).shards(3).shards, 3);
        let items = zipfish_stream(2_000, 100, 67);
        let make = |_: usize| CountMin::salsa(2, 128, 8, MergeOp::Sum, 71);
        let out = run_sharded(&PipelineConfig::new(0), make, &items);
        let single = unsharded(make(0), &items);
        assert_eq!(out.shards.len(), 1);
        for item in 0..100u64 {
            assert_eq!(out.merged.estimate(item), single.estimate(item));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_in_a_handcrafted_config_panics() {
        // The defensive assertion still guards direct field construction,
        // which bypasses the clamping builders.
        let config = PipelineConfig {
            shards: 0,
            ..PipelineConfig::new(1)
        };
        let _ = ShardedPipeline::new(&config, |_| CountMin::salsa(2, 64, 8, MergeOp::Sum, 1));
    }

    #[test]
    fn shard_loads_track_dispatch_apply_and_busy_time() {
        let items: Vec<u64> = (0..4_096).collect();
        let config = PipelineConfig::new(2).batch_size(256);
        let mut pipeline =
            ShardedPipeline::new(&config, |_| CountMin::salsa(2, 256, 8, MergeOp::Sum, 73));
        let routed = routed_counts(&pipeline, &items);
        pipeline.extend(&items);
        assert_eq!(
            pipeline.buffered()
                + pipeline
                    .shard_loads()
                    .iter()
                    .map(|l| l.dispatched)
                    .sum::<u64>(),
            items.len() as u64,
            "every pushed item is buffered or dispatched"
        );
        pipeline.drain();
        let loads = pipeline.shard_loads();
        assert_eq!(pipeline.buffered(), 0);
        for (load, &routed) in loads.iter().zip(&routed) {
            assert_eq!(load.dispatched, routed);
            assert_eq!(load.applied, routed, "drained: everything applied");
            assert_eq!(load.queue_depth(), 0);
            assert!(load.busy_secs >= 0.0);
        }
        let out = pipeline.finish();
        for (load, stats) in loads.iter().zip(&out.shards) {
            // Both derive from the worker's single nanos accumulator, so
            // (after a drain) they agree exactly.
            assert_eq!(
                load.busy_secs, stats.busy_secs,
                "published busy time diverged from the final accounting"
            );
        }
    }

    // ---- fault tolerance ---------------------------------------------

    fn cms(
        seed: u64,
    ) -> impl FnMut(usize) -> CountMin<salsa_core::row::SalsaRow<salsa_core::bitmap::MergeBitmap>>
           + Send
           + 'static {
        move |_| CountMin::salsa(2, 256, 8, MergeOp::Sum, seed)
    }

    #[test]
    fn panicked_shard_degrades_instead_of_poisoning() {
        crate::chaos::silence_worker_panics();
        let plan = Arc::new(FaultPlan::new().panic_shard(1, 128));
        let config = PipelineConfig::new(2)
            .batch_size(128)
            .chaos(Arc::clone(&plan));
        let mut pipeline = ShardedPipeline::new(&config, cms(79));
        let counters = Arc::clone(pipeline.counters());
        // 256 keys of each shard: each shard sees two 128-item batches.
        // Shard 1 applies its first batch, then panics on the second
        // (128 + 128 > 128).
        let (zero, one) = (keys_of(&pipeline, 0, 256), keys_of(&pipeline, 1, 256));
        pipeline.extend(&zero);
        pipeline.extend(&one);
        assert_eq!(
            pipeline.try_drain().expect("drain degrades, not errors"),
            512
        );
        assert_eq!(plan.fired(), 1);
        assert_eq!(pipeline.health().state(1), ShardState::Down);
        assert_eq!(pipeline.health().state(0), ShardState::Up);
        assert_eq!(counters.worker_panics.get(), 1);
        assert_eq!(
            pipeline.lost_items(),
            256,
            "128 applied-then-lost + 128 in flight"
        );
        let view = pipeline.snapshot().expect("degraded views are served");
        assert!(view.is_degraded());
        assert_eq!(view.shards_failed(), 1);
        assert_eq!(view.shards_ok(), 1);
        assert_eq!(view.epoch(), 384, "256 on the survivor + 128 acknowledged");
        assert_eq!(view.coverage().uncovered_items, 128, "acknowledged, lost");
        assert!((view.coverage_fraction() - 256.0 / 384.0).abs() < 1e-9);
        for &item in &zero {
            assert!(view.estimate(item) >= 1, "survivor keeps serving queries");
        }
        assert!(counters.degraded_snapshots.get() >= 1);
        let out = pipeline.finish();
        assert_eq!(out.failed_shards, vec![1]);
        assert_eq!(out.lost_items, 256);
        assert!((out.coverage() - 0.5).abs() < 1e-9);
        assert!(out.is_degraded());
        assert_eq!(out.shards[1].items, 128, "synthesized from progress");
    }

    #[test]
    fn restart_policy_recovers_routing_capacity() {
        crate::chaos::silence_worker_panics();
        let plan = Arc::new(FaultPlan::new().panic_shard(1, 256));
        let config = PipelineConfig::new(2)
            .batch_size(128)
            .recovery(Recovery::Restart { max_restarts: 2 })
            .chaos(Arc::clone(&plan));
        let mut pipeline = ShardedPipeline::new(&config, cms(83));
        let counters = Arc::clone(pipeline.counters());
        let (zero, one) = (keys_of(&pipeline, 0, 640), keys_of(&pipeline, 1, 640));
        pipeline.extend(&zero[..256]);
        pipeline.extend(&one[..256]);
        pipeline.drain();
        assert!(pipeline.health().all_up());
        // Shard 1's third batch crosses 256 applied items and panics
        // (before applying), so exactly 256 acknowledged items die with the
        // incarnation and the 128-item batch in flight is dropped.
        pipeline.extend(&zero[256..384]);
        pipeline.extend(&one[256..384]);
        assert_eq!(pipeline.try_drain().expect("drain restarts the shard"), 768);
        assert!(pipeline.health().all_up(), "shard 1 is back up");
        assert_eq!(pipeline.health().restarts(1), 1);
        assert_eq!(counters.worker_restarts.get(), 1);
        assert_eq!(counters.worker_panics.get(), 1);
        assert_eq!(
            pipeline.lost_items(),
            384,
            "256 applied-then-lost + 128 in flight"
        );
        // The restarted shard ingests from an empty sketch.
        pipeline.extend(&zero[384..]);
        pipeline.extend(&one[384..]);
        pipeline.drain();
        let view = pipeline.snapshot().expect("every shard replies");
        assert_eq!(view.shards_failed(), 0, "everything replies again");
        assert!(view.is_degraded(), "restarted-away items stay uncovered");
        assert_eq!(
            view.epoch(),
            1_152,
            "640 on shard 0 + 512 across incarnations"
        );
        assert_eq!(
            view.coverage().uncovered_items,
            256,
            "only *acknowledged* losses count as uncovered"
        );
        let out = pipeline.finish();
        assert!(out.failed_shards.is_empty());
        assert_eq!(out.lost_items, 384);
        assert_eq!(out.shards[0].items, 640);
        assert_eq!(out.shards[1].items, 256, "fresh incarnation's items only");
    }

    #[test]
    fn pushes_to_a_dead_shard_are_counted_as_lost() {
        crate::chaos::silence_worker_panics();
        let plan = Arc::new(FaultPlan::new().panic_shard(1, 0));
        let config = PipelineConfig::new(2).batch_size(1).chaos(plan);
        let mut pipeline = ShardedPipeline::new(&config, cms(89));
        let counters = Arc::clone(pipeline.counters());
        // Shard 1 panics on its first one-item batch; every later push to
        // it is dropped at dispatch or dies in its channel.
        let (zero, one) = (keys_of(&pipeline, 0, 100), keys_of(&pipeline, 1, 100));
        for (&survivor, &victim) in zero.iter().zip(&one) {
            pipeline.push(survivor);
            pipeline.push(victim);
        }
        assert_eq!(pipeline.try_drain(), Ok(200), "the drain degrades");
        assert_eq!(pipeline.health().state(1), ShardState::Down);
        assert_eq!(pipeline.lost_items(), 100, "every push to shard 1");
        assert_eq!(counters.dropped_items.get(), pipeline.lost_items());
        assert_eq!(
            counters.timeouts.get(),
            0,
            "unbounded dispatch never times out"
        );
        let out = pipeline.finish();
        assert_eq!(out.failed_shards, vec![1]);
        assert_eq!(out.lost_items, 100);
        assert!((out.coverage() - 0.5).abs() < 1e-9);
        assert_eq!(counters.dropped_items.get(), 100, "finish adds nothing");
    }

    #[test]
    fn dropped_drain_ack_hits_the_deadline() {
        let plan = Arc::new(FaultPlan::new().drop_ack(0, 0));
        let config = PipelineConfig::new(1)
            .batch_size(8)
            .reply_timeout(Duration::from_millis(200))
            .chaos(plan);
        let mut pipeline = ShardedPipeline::new(&config, cms(97));
        pipeline.extend(&[1, 2, 3]);
        assert_eq!(
            pipeline.try_drain(),
            Err(PipelineError::Timeout {
                operation: "drain",
                waited: Duration::from_millis(200),
            })
        );
        assert_eq!(pipeline.counters().timeouts.get(), 1);
        assert_eq!(
            pipeline.drain(),
            3,
            "the fault fires once; the worker lives"
        );
        assert_eq!(pipeline.finish().lost_items, 0, "nothing was actually lost");
    }

    #[test]
    fn bounded_dispatch_times_out_on_a_stalled_shard() {
        let plan = Arc::new(FaultPlan::new().stall_shard(0, 0, Duration::from_millis(400)));
        let config = PipelineConfig::new(1)
            .batch_size(1)
            .dispatch_timeout(Duration::from_millis(30))
            .chaos(plan);
        let mut pipeline = ShardedPipeline::new(&config, cms(101));
        let counters = Arc::clone(pipeline.counters());
        // The first batch stalls the worker; the channel backs up, and a
        // bounded dispatch must give up within its deadline instead of
        // blocking behind the wedged shard: the push returns, and its batch
        // is counted as a timeout and a drop.
        for item in 0..32u64 {
            pipeline.push(item);
        }
        assert!(
            counters.timeouts.get() >= 1,
            "a stalled worker must not block a bounded push"
        );
        assert!(pipeline.lost_items() >= 1);
        assert_eq!(
            counters.dropped_items.get(),
            pipeline.lost_items(),
            "every timed-out batch is dropped"
        );
        assert_eq!(
            counters.timeouts.get(),
            pipeline.lost_items(),
            "one-item batches"
        );
        let out = pipeline.finish();
        assert_eq!(
            out.items - out.lost_items,
            out.shards[0].items,
            "accounting matches what the worker really applied"
        );
    }

    #[test]
    fn healthy_run_under_restart_policy_matches_default_config() {
        let items = zipfish_stream(20_000, 500, 103);
        let plain = PipelineConfig::new(4).batch_size(64);
        let config = plain
            .clone()
            .recovery(Recovery::Restart { max_restarts: 3 });
        let mut pipeline = ShardedPipeline::new(&config, cms(107));
        let counters = Arc::clone(pipeline.counters());
        pipeline.extend(&items);
        let out = pipeline.finish();
        let plain = run_sharded(&plain, cms(107), &items);
        for item in 0..500u64 {
            assert_eq!(out.merged.estimate(item), plain.merged.estimate(item));
        }
        assert!(!out.is_degraded());
        assert_eq!(counters.worker_panics.get(), 0);
        assert_eq!(counters.dropped_items.get(), 0);
    }

    #[test]
    fn served_epochs_stay_monotone_across_a_shard_death() {
        crate::chaos::silence_worker_panics();
        let plan = Arc::new(FaultPlan::new().panic_shard(1, 128));
        let config = PipelineConfig::new(2)
            .batch_size(64)
            .chaos(Arc::clone(&plan));
        let mut pipeline = ShardedPipeline::new(&config, cms(109));
        let handle = pipeline.live_handle();
        let (zero, one) = (keys_of(&pipeline, 0, 256), keys_of(&pipeline, 1, 256));
        pipeline.extend(&zero[..128]);
        pipeline.extend(&one[..128]);
        pipeline.drain();
        let before = handle.snapshot().expect("healthy view");
        assert_eq!(before.epoch(), 256);
        assert!(!before.is_degraded());
        // Shard 1's next batch crosses its trigger: it dies with 128
        // acknowledged items, which stay in every later epoch as uncovered.
        pipeline.extend(&one[128..]);
        pipeline.drain();
        assert_eq!(plan.fired(), 1);
        let after = handle.snapshot().expect("degraded view");
        assert!(after.epoch() >= before.epoch(), "epochs must not drop");
        assert_eq!(after.epoch(), 256);
        assert_eq!(after.coverage().uncovered_items, 128);
        assert_eq!(after.shards_failed(), 1);
        assert!((after.coverage_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(
            handle.acknowledged() - after.epoch(),
            0,
            "a drained view lags nothing, dead shard or not"
        );
        pipeline.finish();
    }

    #[test]
    fn finish_keeps_sealed_generations_when_every_live_worker_died() {
        crate::chaos::silence_worker_panics();
        // Shard 0's trigger lies past generation 0's 64 items; shard 1
        // exists only in generation 1.  Both die there.
        let plan = Arc::new(FaultPlan::new().panic_shard(0, 64).panic_shard(1, 0));
        let config = PipelineConfig::new(1)
            .batch_size(64)
            .chaos(Arc::clone(&plan));
        let mut pipeline = ShardedPipeline::new(&config, cms(131));
        let sealed_items: Vec<u64> = (0..64).map(|i| i % 50).collect();
        pipeline.extend(&sealed_items);
        pipeline.rescale(2).expect("1 -> 2 is a real rescale");
        // 128 keys of each new shard: shard 0 applies one 64-item batch and
        // panics on its second, shard 1 panics on its first.
        pipeline.extend(&keys_of(&pipeline, 0, 128));
        pipeline.extend(&keys_of(&pipeline, 1, 128));
        let out = pipeline.finish();
        assert_eq!(plan.fired(), 2);
        assert_eq!(out.failed_shards, vec![0, 1]);
        assert_eq!(out.lost_items, 256, "all of generation 1");
        let sealed = unsharded(cms(131)(0), &sealed_items);
        for item in 0..50u64 {
            assert_eq!(out.merged.estimate(item), sealed.estimate(item));
        }
    }

    #[test]
    fn finish_reports_total_failure_in_band() {
        crate::chaos::silence_worker_panics();
        // Every worker dies on its first batch and nothing was sealed:
        // `finish` still returns, with nothing covered.
        let plan = Arc::new(FaultPlan::new().panic_shard(0, 0).panic_shard(1, 0));
        let config = PipelineConfig::new(2)
            .batch_size(32)
            .recovery(Recovery::Degrade)
            .chaos(Arc::clone(&plan));
        let mut pipeline = ShardedPipeline::new(&config, cms(137));
        let items = zipfish_stream(1_000, 200, 139);
        pipeline.extend(&items);
        let out = pipeline.finish();
        assert_eq!(plan.fired(), 2);
        assert_eq!(out.items, 1_000);
        assert_eq!(out.failed_shards, vec![0, 1], "every shard failed");
        assert_eq!(out.lost_items, out.items, "nothing was covered");
        assert_eq!(out.coverage(), 0.0);
        assert!(out.is_degraded());
        for item in 0..200u64 {
            assert_eq!(out.merged.estimate(item), 0, "an empty summary");
        }
    }

    #[test]
    fn coverage_gaps_survive_a_rescale() {
        crate::chaos::silence_worker_panics();
        let plan = Arc::new(FaultPlan::new().panic_shard(1, 128));
        let config = PipelineConfig::new(2)
            .batch_size(64)
            .chaos(Arc::clone(&plan));
        let mut pipeline = ShardedPipeline::new(&config, cms(127));
        let handle = pipeline.live_handle();
        let (zero, one) = (keys_of(&pipeline, 0, 256), keys_of(&pipeline, 1, 256));
        pipeline.extend(&zero[..128]);
        pipeline.extend(&one);
        pipeline.drain();
        assert_eq!(plan.fired(), 1);
        let before = handle.snapshot().expect("degraded view");
        assert!(before.is_degraded());
        assert_eq!(before.epoch(), 256, "128 covered + 128 acknowledged, lost");
        assert_eq!(before.coverage().uncovered_items, 128);

        pipeline.rescale(3).expect("2 -> 3 is a real rescale");
        let after = handle
            .snapshot()
            .expect("the handle serves the new generation");
        assert_eq!(after.generation(), 1);
        assert_eq!(after.shards_failed(), 0, "every live shard replies");
        assert!(after.is_degraded(), "the sealed gap is still named");
        assert_eq!(after.coverage().uncovered_items, 128);
        assert!(after.epoch() >= before.epoch(), "epochs must not drop");
        assert_eq!(after.epoch(), 256);
        let dead_key = one[200];
        assert_eq!(after.estimate(dead_key), 0, "its items died with shard 1");
        let out = pipeline.finish();
        assert!(out.is_degraded());
        assert_eq!(out.lost_items, 256, "128 applied-then-lost + 128 dropped");
        assert!(
            out.failed_shards.is_empty(),
            "the last generation is healthy"
        );
    }

    // ---- rescaling ---------------------------------------------------

    fn stream(n: usize, universe: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) % universe
            })
            .collect()
    }

    fn baseline(_: usize) -> CountMin<salsa_core::fixed::FixedRow> {
        CountMin::baseline(3, 256, 32, 97)
    }

    #[test]
    fn rescale_preserves_sum_merge_exactness() {
        let items = stream(30_000, 500, 3);
        let config = PipelineConfig::new(1).batch_size(64);
        let mut pipeline = ShardedPipeline::new(&config, baseline);
        pipeline.extend(&items[..10_000]);
        let grown = pipeline.rescale(4).expect("1 -> 4 is a real rescale");
        assert_eq!(grown.from_shards, 1);
        assert_eq!(grown.to_shards, 4);
        assert_eq!(grown.epoch, 10_000);
        pipeline.extend(&items[10_000..20_000]);
        let shrunk = pipeline.rescale(2).expect("4 -> 2 is a real rescale");
        assert_eq!(shrunk.generation, 2);
        pipeline.extend(&items[20_000..]);
        let out = pipeline.finish();
        assert_eq!(out.items, items.len() as u64);
        assert_eq!(out.rescales(), 2);
        assert_eq!(out.events.len(), 2);
        let single = unsharded(baseline(0), &items);
        for item in 0..500u64 {
            assert_eq!(out.merged.estimate(item), single.estimate(item));
        }
    }

    #[test]
    fn rescale_to_current_count_is_a_noop() {
        let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), baseline);
        pipeline.extend(&stream(1_000, 100, 5));
        assert!(pipeline.rescale(2).is_none());
        assert_eq!(pipeline.generation(), 0);
        // A zero target is clamped to one shard, like the config builder.
        let event = pipeline.rescale(0).expect("2 -> 1 is a real rescale");
        assert_eq!(event.to_shards, 1);
        assert_eq!(pipeline.shards(), 1);
        pipeline.finish();
    }

    #[test]
    fn producer_snapshot_covers_all_generations_at_pushed_epoch() {
        let items = stream(12_000, 300, 7);
        let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2).batch_size(128), baseline);
        pipeline.extend(&items[..5_000]);
        pipeline.rescale(3);
        pipeline.extend(&items[5_000..9_000]);
        let view = pipeline
            .snapshot()
            .expect("a healthy pipeline serves views");
        assert_eq!(view.epoch(), 9_000);
        assert_eq!(view.generation(), 1);
        let prefix = unsharded(baseline(0), &items[..9_000]);
        for item in 0..300u64 {
            assert_eq!(view.estimate(item), prefix.estimate(item) as i64);
        }
        pipeline.extend(&items[9_000..]);
        pipeline.finish();
    }

    #[test]
    fn handle_survives_rescales_and_goes_dark_after_finish() {
        let items = stream(8_000, 200, 9);
        let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(1).batch_size(64), baseline);
        let handle = pipeline.live_handle();
        pipeline.extend(&items[..4_000]);
        let before = handle.snapshot().expect("live before rescale");
        pipeline.rescale(3);
        let after = handle.snapshot().expect("live after rescale");
        assert!(after.epoch() >= before.epoch());
        assert_eq!(after.generation(), 1);
        assert_eq!(handle.shards(), 3);
        pipeline.extend(&items[4_000..]);
        let epoch = pipeline.drain();
        assert_eq!(epoch, items.len() as u64);
        assert_eq!(handle.acknowledged(), items.len() as u64);
        let final_view = handle.snapshot().expect("live before finish");
        assert_eq!(final_view.epoch(), items.len() as u64);
        pipeline.finish();
        assert_eq!(
            handle.snapshot().err(),
            Some(PipelineError::Finished),
            "snapshot after finish"
        );
        assert_eq!(handle.shards(), 0);
        assert_eq!(handle.acknowledged(), items.len() as u64);
    }

    #[test]
    fn dropping_without_finish_darkens_handles() {
        let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2).batch_size(32), baseline);
        pipeline.extend(&stream(2_000, 100, 13));
        pipeline.drain();
        let handle = pipeline.live_handle();
        assert!(handle.snapshot().is_ok());
        let acknowledged_before = handle.acknowledged();
        assert_eq!(acknowledged_before, 2_000);
        drop(pipeline);
        // Without the Drop impl this would retry against the stopped
        // workers until the snapshot deadline.
        assert_eq!(
            handle.snapshot().err(),
            Some(PipelineError::Finished),
            "snapshot after drop"
        );
        assert_eq!(handle.shards(), 0);
        // The live generation's progress is folded into the sealed count
        // at drop, so the acknowledged count never moves backwards.
        assert!(handle.acknowledged() >= acknowledged_before);
    }

    #[test]
    fn generation_history_partitions_the_stream() {
        let items = stream(9_000, 150, 11);
        let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2).batch_size(32), baseline);
        pipeline.extend(&items[..3_000]);
        pipeline.rescale(4);
        pipeline.extend(&items[3_000..7_500]);
        pipeline.rescale(1);
        pipeline.extend(&items[7_500..]);
        let out = pipeline.finish();
        assert_eq!(out.events.len(), 2);
        for (i, event) in out.events.iter().enumerate() {
            assert_eq!(event.generation, i as u64 + 1);
        }
        assert_eq!(
            out.events.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            vec![3_000, 7_500]
        );
        assert_eq!(
            out.events
                .iter()
                .map(|e| (e.from_shards, e.to_shards))
                .collect::<Vec<_>>(),
            vec![(2, 4), (4, 1)]
        );
        assert_eq!(out.items, items.len() as u64);
        assert_eq!(out.shards.len(), 1, "stats of the last generation");
        assert_eq!(out.shards[0].items, 1_500);
        assert!(out.max_pause_secs() >= out.mean_pause_secs());
    }
}
