//! The elastic control plane: generation-based online resharding.
//!
//! A fixed [`ShardedPipeline`] spends the same number of cores whether the
//! stream is idle or bursting.  [`ElasticPipeline`] makes the shard count a
//! *runtime* quantity — SALSA's self-adjustment applied to the pipeline
//! layer itself — while keeping the merged view exact for sum-merge rows:
//!
//! 1. **Generations.**  At any moment one worker set (a `ShardedPipeline`)
//!    ingests; it is *generation `g`*.  On a rescale the current workers
//!    are drained and stopped, their shard summaries are folded counter-wise
//!    into the immutable **sealed** summary (the union of all previous
//!    generations, Section V mergeability), and a fresh worker set with the
//!    new shard count — and new by-key routing over that count — starts
//!    from empty sketches as generation `g + 1`.
//! 2. **Queries.**  A view is always `sealed ⊎ live`: the live shards'
//!    copies are assembled into one view, and the sealed union is folded
//!    into it with [`SnapshotSummary::merge_with_helper`], drawing scratch
//!    from a reused [`MergeHelper`].  For sum-merge rows the
//!    counter-wise union over *any* split of the stream equals the
//!    unsharded sketch, so the merged view is byte-identical to a run that
//!    never rescaled — no counts are lost or double-counted, regardless of
//!    how many rescales happened mid-stream.
//! 3. **Epochs.**  A view's epoch is `sealed items + live items applied`.
//!    Sealing moves items from the live term to the sealed term without
//!    shrinking the sum, so epochs stay monotone across rescales — an
//!    [`ElasticHandle`] keeps serving throughout, pausing only for the
//!    drain-and-seal window (reported per generation as
//!    [`GenerationInfo::seal_pause`]).
//!
//! *When* to rescale is decoupled from this mechanism: see
//! [`crate::policy`] for the load monitor and the pluggable
//! [`ScalingPolicy`] implementations, and
//! [`ElasticPipeline::autoscale`] for the closed loop.

use std::time::{Duration, Instant};

use crate::sync::{Arc, Mutex, RwLock};

use salsa_sketches::helper::MergeHelper;

use crate::error::PipelineError;
use crate::live::{CachePolicy, CachedSnapshots, LiveHandle, SnapshotSource};
use crate::policy::{LoadMonitor, ScalingPolicy};
use crate::sharded::{PipelineOutput, ShardLoad, ShardStats, ShardedPipeline};
use crate::snapshot::SnapshotView;
use crate::supervisor::{RetryPolicy, SupervisorConfig};
use crate::{FrequencyQueries, PipelineConfig, SnapshotSummary};

/// State shared between the producer and every [`ElasticHandle`], swapped
/// under a write lock at each rescale.
struct Shared<S: SnapshotSummary> {
    /// Counter-wise union of every sealed generation (`None` before the
    /// first rescale).  Behind an `Arc` and rebuilt — never mutated — at
    /// each seal, so a query clones a pointer under the read lock instead
    /// of deep-copying the counters, and in-flight queries keep their
    /// consistent copy across a concurrent seal.
    sealed: Option<Arc<S>>,
    /// Items contained in `sealed` — the epoch base of the live generation.
    base_epoch: u64,
    /// Index of the live generation (number of completed rescales).
    generation: u64,
    /// Handle to the live generation's workers; `None` once finished.
    live: Option<LiveHandle<S>>,
}

/// Everything recorded about one sealed (or final) generation.
#[derive(Debug, Clone)]
pub struct GenerationInfo {
    /// The generation's index: `0` for the initial worker set.
    pub generation: u64,
    /// Worker shards this generation ran with.
    pub shards: usize,
    /// Items ingested by this generation.
    pub items: u64,
    /// Global epoch at which this generation started.
    pub start_epoch: u64,
    /// Global epoch at which it was sealed (`start_epoch + items`).
    pub end_epoch: u64,
    /// How long sealing took (drain + stop + fold into the sealed summary):
    /// the window during which concurrent queries block or retry — the
    /// rescale "pause".  Zero for the final generation, which is sealed by
    /// [`ElasticPipeline::finish`] with nothing left to serve.
    pub seal_pause: Duration,
    /// Per-shard ingestion statistics of this generation's workers.
    pub shard_stats: Vec<ShardStats>,
}

/// One completed rescale, as returned by [`ElasticPipeline::rescale`].
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

/// The result of a finished [`ElasticPipeline`] run.
#[derive(Debug)]
pub struct ElasticOutput<S> {
    /// Counter-wise union of every generation — the queryable global view
    /// of the whole stream, exact for sum-merge rows.
    pub merged: S,
    /// Total items pushed across all generations.
    pub items: u64,
    /// Every generation that ran, in order (the last one is the generation
    /// that was live at [`ElasticPipeline::finish`]).
    pub generations: Vec<GenerationInfo>,
    /// Every rescale that happened, in order.
    pub events: Vec<RescaleEvent>,
}

impl<S> ElasticOutput<S> {
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

/// A sharded pipeline whose shard count can change **while ingesting**,
/// via generation-based resharding (see the module docs for the model).
///
/// Build one with [`ElasticPipeline::new`] — the `factory` must produce
/// same-seed, same-shape summaries and is re-invoked for every generation's
/// workers.  Feed it like a [`ShardedPipeline`]; call
/// [`ElasticPipeline::rescale`] (or [`ElasticPipeline::autoscale`] with a
/// policy) at any point; query it concurrently through
/// [`ElasticPipeline::handle`]; finish with [`ElasticPipeline::finish`].
pub struct ElasticPipeline<S: SnapshotSummary> {
    /// The live generation's worker set.  `Some` for the pipeline's whole
    /// life; taken only by [`ElasticPipeline::finish`] (which consumes
    /// `self`), so the accessors' expects cannot fire.
    inner: Option<ShardedPipeline<S>>,
    config: PipelineConfig,
    /// Fault-tolerance configuration, re-applied to every generation's
    /// worker set (chaos plans trigger on shard-local counts, so they fire
    /// in whichever generation reaches them).
    supervisor: SupervisorConfig,
    factory: Box<dyn FnMut(usize) -> S + Send>,
    shared: Arc<RwLock<Shared<S>>>,
    /// Mirror of `shared.base_epoch`, readable without the lock (the
    /// producer is the only writer).
    base_epoch: u64,
    generations: Vec<GenerationInfo>,
    events: Vec<RescaleEvent>,
    /// Reusable merge scratch for the producer-side folds (seal, finish,
    /// snapshot rebase).
    helper: MergeHelper,
}

impl<S: SnapshotSummary> Drop for ElasticPipeline<S> {
    /// Darkens outstanding handles if the pipeline is dropped without
    /// [`ElasticPipeline::finish`]: the inner workers exit when their
    /// channels close, so without this a concurrent
    /// [`ElasticHandle::snapshot`] would retry against the dead generation
    /// forever instead of returning `None`.  The live generation's applied
    /// items are folded into the epoch base first, so
    /// [`ElasticHandle::acknowledged`] never moves backwards.
    ///
    /// (After a normal [`ElasticPipeline::finish`] the shared state is
    /// already dark and this is a no-op.)
    fn drop(&mut self) {
        // PANIC-OK: poisoning means a rescale/finish panicked mid-publish;
        // the shared state is unknowable, and a panic inside Drop during
        // that same unwind aborts anyway — nothing gentler exists here.
        let mut shared = self.shared.write().expect("elastic state lock poisoned");
        if let Some(live) = shared.live.take() {
            shared.base_epoch += SnapshotSource::acknowledged(&live);
        }
    }
}

impl<S: SnapshotSummary> ElasticPipeline<S> {
    /// Creates the pipeline with `config.shards` initial workers.
    ///
    /// `factory` is called once per shard *per generation* (with the shard
    /// index); every call must use the same seed and dimensions, exactly as
    /// for [`ShardedPipeline::new`].
    pub fn new(config: &PipelineConfig, factory: impl FnMut(usize) -> S + Send + 'static) -> Self {
        Self::supervised(config, SupervisorConfig::default(), factory)
    }

    /// Like [`ElasticPipeline::new`], but with an explicit fault-tolerance
    /// configuration applied to *every* generation's worker set — chaos
    /// plans, recovery modes and timeouts carry across rescales.  (Restart
    /// recovery is not available through the elastic plane: the factory
    /// belongs to the control plane, and a dead shard's items are surfaced
    /// as degraded coverage instead.)
    pub fn supervised(
        config: &PipelineConfig,
        supervisor: SupervisorConfig,
        factory: impl FnMut(usize) -> S + Send + 'static,
    ) -> Self {
        let mut factory: Box<dyn FnMut(usize) -> S + Send> = Box::new(factory);
        let config = *config;
        let inner = ShardedPipeline::build(&config, supervisor.clone(), &mut *factory);
        let shared = Arc::new(RwLock::new(Shared {
            sealed: None,
            base_epoch: 0,
            generation: 0,
            live: Some(inner.live_handle()),
        }));
        Self {
            inner: Some(inner),
            config,
            supervisor,
            factory,
            shared,
            base_epoch: 0,
            generations: Vec::new(),
            events: Vec::new(),
            helper: MergeHelper::new(),
        }
    }

    fn inner(&self) -> &ShardedPipeline<S> {
        // PANIC-OK: `inner` is only taken by `finish`, which consumes
        // `self`, so no accessor can run afterwards (see the field docs).
        self.inner.as_ref().expect("pipeline is live until finish")
    }

    fn inner_mut(&mut self) -> &mut ShardedPipeline<S> {
        // PANIC-OK: same invariant as `inner`.
        self.inner.as_mut().expect("pipeline is live until finish")
    }

    /// Current number of worker shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.inner().shards()
    }

    /// Index of the live generation (number of completed rescales).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generations.len() as u64
    }

    /// Total items pushed across all generations (buffered or dispatched).
    #[inline]
    pub fn pushed(&self) -> u64 {
        self.base_epoch + self.inner().pushed()
    }

    /// Total items applied by workers across all generations (sealed
    /// generations count fully; the live one by its acknowledged progress).
    pub fn acknowledged(&self) -> u64 {
        self.base_epoch
            + self
                .inner()
                .shard_loads()
                .iter()
                .map(|l| l.applied)
                .sum::<u64>()
    }

    /// Items pushed but not yet dispatched to a live worker.
    #[inline]
    pub fn buffered(&self) -> u64 {
        self.inner().buffered()
    }

    /// Load readings for the live generation's shards (see
    /// [`ShardedPipeline::shard_loads`]).
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.inner().shard_loads()
    }

    /// The live generation's per-shard health board (see
    /// [`ShardHealth`](crate::ShardHealth)).  A rescale replaces the board
    /// along with the workers, so don't cache the reference across one.
    pub fn health(&self) -> &Arc<crate::ShardHealth> {
        self.inner().health()
    }

    /// Feeds one item into the live generation.
    #[inline]
    pub fn push(&mut self, item: u64) {
        self.inner_mut().push(item);
    }

    /// Feeds a slice of items into the live generation.
    pub fn extend(&mut self, items: &[u64]) {
        self.inner_mut().extend(items);
    }

    /// Dispatches every buffered item to the live workers.
    pub fn flush(&mut self) {
        self.inner_mut().flush();
    }

    /// Blocks until every pushed item has been applied, and returns the
    /// global epoch (equal to [`ElasticPipeline::pushed`]).
    pub fn drain(&mut self) -> u64 {
        let drained = self.inner_mut().drain();
        self.base_epoch + drained
    }

    /// Changes the worker-shard count to `target_shards` (clamped to at
    /// least 1), sealing the live generation and starting a fresh one.
    ///
    /// Returns `None` (and does nothing) when the pipeline already runs
    /// `target_shards` shards.  Otherwise the call:
    ///
    /// 1. spawns the new generation's workers (so they boot while the old
    ///    ones drain),
    /// 2. drains and stops the old workers, folding their summaries into
    ///    the sealed union — the *pause window*, during which concurrent
    ///    [`ElasticHandle`] queries keep the old generation's answers and
    ///    then retry against the new one,
    /// 3. atomically publishes the new generation to every handle.
    ///
    /// Exactness is unaffected: for sum-merge rows the final merged view
    /// is identical to a run that never rescaled.
    pub fn rescale(&mut self, target_shards: usize) -> Option<RescaleEvent> {
        let target = target_shards.max(1);
        if target == self.inner().shards() {
            return None;
        }
        let from_shards = self.inner().shards();
        self.config.shards = target;
        let fresh =
            ShardedPipeline::build(&self.config, self.supervisor.clone(), &mut *self.factory);
        let old = self
            .inner
            .replace(fresh)
            // PANIC-OK: same invariant as `inner` — only `finish` takes it.
            .expect("pipeline is live until finish");

        // The pause window: everything queued on the old workers is applied,
        // the workers stop, and their sketches fold into the sealed union.
        let pause_started = Instant::now();
        let PipelineOutput {
            merged: mut sealing,
            shards: shard_stats,
            items,
            ..
        } = old.finish();
        let start_epoch = self.base_epoch;
        self.base_epoch += items;
        {
            // PANIC-OK: writers (rescale/finish/drop) never panic while
            // holding the lock short of a summary-merge seed mismatch, which
            // is already a programming error worth propagating.
            let mut shared = self.shared.write().expect("elastic state lock poisoned");
            // Fold the previous union into the freshly sealed generation
            // and publish the result as a *new* Arc: queries holding the
            // old one stay consistent, and none of this clones counters.
            if let Some(previous) = &shared.sealed {
                sealing.merge_with_helper(previous, &mut self.helper);
            }
            shared.sealed = Some(Arc::new(sealing));
            shared.base_epoch = self.base_epoch;
            shared.generation += 1;
            shared.live = Some(self.inner().live_handle());
        }
        let pause = pause_started.elapsed();

        self.generations.push(GenerationInfo {
            generation: self.generations.len() as u64,
            shards: from_shards,
            items,
            start_epoch,
            end_epoch: self.base_epoch,
            seal_pause: pause,
            shard_stats,
        });
        let event = RescaleEvent {
            generation: self.generations.len() as u64,
            epoch: self.base_epoch,
            from_shards,
            to_shards: target,
            pause,
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

    /// Returns a clonable, `Send` handle that snapshots and queries this
    /// pipeline from other threads — across rescales — while ingestion
    /// continues.  Unlike a [`LiveHandle`], it survives generation changes:
    /// queries keep succeeding with monotone epochs until
    /// [`ElasticPipeline::finish`].
    pub fn handle(&self) -> ElasticHandle<S> {
        ElasticHandle {
            shared: Arc::clone(&self.shared),
            retry: RetryPolicy::default(),
            live: Mutex::new(None),
            helper: Mutex::new(MergeHelper::new()),
        }
    }

    /// Takes a consistent snapshot of the whole stream — sealed generations
    /// folded with a clone of every live shard — without stopping
    /// ingestion.  The view sits exactly at epoch
    /// [`ElasticPipeline::pushed`]; for sum-merge rows its estimates are
    /// identical to an unsharded sketch over everything pushed so far.
    #[must_use = "assembling a snapshot clones every shard's summary; dropping it wastes that work"]
    pub fn snapshot(&mut self) -> SnapshotView<S> {
        let view = self.inner_mut().snapshot();
        let (sealed, generation) = {
            // PANIC-OK: see the write-side justification in `rescale`.
            let shared = self.shared.read().expect("elastic state lock poisoned");
            (shared.sealed.clone(), shared.generation)
        };
        rebase(view, sealed, self.base_epoch, generation, &mut self.helper)
    }

    /// Flushes and stops the live generation, folds it into the sealed
    /// union, and returns the merged global view plus the full generation
    /// and rescale history.  Outstanding [`ElasticHandle`]s go dark (their
    /// queries return `None`).
    pub fn finish(mut self) -> ElasticOutput<S> {
        let PipelineOutput {
            merged: last,
            shards: shard_stats,
            items,
            ..
        } = self
            .inner
            .take()
            // PANIC-OK: `finish` consumes `self`, so it runs at most once.
            .expect("pipeline is live until finish")
            .finish();
        let start_epoch = self.base_epoch;
        self.base_epoch += items;
        // PANIC-OK: see the write-side justification in `rescale`.
        let mut shared = self.shared.write().expect("elastic state lock poisoned");
        shared.live = None;
        shared.base_epoch = self.base_epoch;
        let merged = match shared.sealed.take() {
            None => last,
            Some(sealed) => {
                let mut merged = last;
                merged.merge_with_helper(&sealed, &mut self.helper);
                merged
            }
        };
        drop(shared);
        self.generations.push(GenerationInfo {
            generation: self.generations.len() as u64,
            shards: shard_stats.len(),
            items,
            start_epoch,
            end_epoch: self.base_epoch,
            seal_pause: Duration::ZERO,
            shard_stats,
        });
        ElasticOutput {
            merged,
            items: self.base_epoch,
            generations: std::mem::take(&mut self.generations),
            events: std::mem::take(&mut self.events),
        }
    }
}

/// Folds the sealed union into a live view and re-stamps its epoch and
/// generation.  The live merged summary is owned, so the fold is a single
/// counter-wise merge drawing scratch from `helper` — no summary is cloned
/// and nothing beyond the helper's warm capacity is allocated here.
fn rebase<S: SnapshotSummary>(
    view: SnapshotView<S>,
    sealed: Option<Arc<S>>,
    base_epoch: u64,
    generation: u64,
    helper: &mut MergeHelper,
) -> SnapshotView<S> {
    let (mut live_merged, live_epoch, coverage, shards, issued) = view.into_parts();
    if let Some(sealed) = sealed {
        live_merged.merge_with_helper(&sealed, helper);
    }
    SnapshotView::from_parts(
        live_merged,
        base_epoch + live_epoch,
        generation,
        coverage,
        shards,
        issued,
    )
}

/// A clonable handle for querying an [`ElasticPipeline`] from other
/// threads, across rescales.
///
/// Where a [`LiveHandle`] goes dark when its worker set stops, an
/// `ElasticHandle` re-resolves the live generation on every query: a
/// snapshot that races a rescale simply retries against the freshly
/// published generation, so queries keep succeeding throughout, and
/// successive epochs never decrease (sealing converts live progress into
/// sealed base, it never shrinks the sum).  Queries return `None` only
/// after [`ElasticPipeline::finish`].
pub struct ElasticHandle<S: SnapshotSummary> {
    shared: Arc<RwLock<Shared<S>>>,
    retry: RetryPolicy,
    /// The live generation's handle, cloned once per generation (keyed by
    /// the generation index) and reused across queries — so its snapshot
    /// arena actually warms up instead of being re-created per call.
    live: Mutex<Option<(u64, LiveHandle<S>)>>,
    /// Reusable merge scratch for this handle's sealed-union rebases.
    helper: Mutex<MergeHelper>,
}

impl<S: SnapshotSummary> Clone for ElasticHandle<S> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            retry: self.retry,
            // Fresh (empty) scratch, as for `LiveHandle`: clones on
            // different threads never contend on each other's caches.
            live: Mutex::new(None),
            helper: Mutex::new(MergeHelper::new()),
        }
    }
}

impl<S: SnapshotSummary> ElasticHandle<S> {
    /// Number of worker shards in the live generation, or `None` once the
    /// pipeline has finished.
    pub fn shards(&self) -> Option<usize> {
        // PANIC-OK: see the write-side justification in
        // `ElasticPipeline::rescale` — readers inherit it.
        let shared = self.shared.read().expect("elastic state lock poisoned");
        shared.live.as_ref().map(|live| live.shards())
    }

    /// Index of the live generation (number of completed rescales).
    pub fn generation(&self) -> u64 {
        self.shared
            .read()
            // PANIC-OK: same poisoning argument as `shards`.
            .expect("elastic state lock poisoned")
            .generation
    }

    /// Total updates acknowledged across all generations: sealed items plus
    /// the live generation's applied items.  After the pipeline finishes
    /// this stays at the final item count.
    pub fn acknowledged(&self) -> u64 {
        // PANIC-OK: same poisoning argument as `shards`.
        let shared = self.shared.read().expect("elastic state lock poisoned");
        shared.base_epoch
            + shared
                .live
                .as_ref()
                .map_or(0, |live| SnapshotSource::acknowledged(live))
    }

    /// Returns this handle with a different [`RetryPolicy`] bounding its
    /// seal-window retry loop (see [`ElasticHandle::try_snapshot`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Takes a consistent, epoch-stamped snapshot covering the *whole*
    /// stream — every sealed generation folded with clones of the live
    /// shards — without stopping ingestion.
    ///
    /// Successive calls through one handle see non-decreasing epochs, even
    /// across rescales.  A call that races a rescale retries against the
    /// freshly published generation with exponential backoff, bounded by
    /// the handle's [`RetryPolicy`] deadline (5s by default, configurable
    /// via [`ElasticHandle::with_retry`]) — far above any drain-bound seal
    /// window, so the deadline fires only when the pipeline is genuinely
    /// stuck, as [`PipelineError::Timeout`].  Other failure modes pass
    /// through from [`LiveHandle::try_snapshot`]: views over dead shards
    /// degrade (check [`SnapshotView::is_degraded`]), a finished pipeline
    /// is [`PipelineError::Finished`].
    #[must_use = "assembling a snapshot clones every shard's summary; dropping it wastes that work"]
    pub fn try_snapshot(&self) -> Result<SnapshotView<S>, PipelineError> {
        let started = Instant::now();
        let mut pause = self.retry.backoff.initial;
        loop {
            // Hold the cached-handle lock across resolve + snapshot so the
            // (generation, live handle, sealed union) triple stays coherent
            // even when clones of this handle race a rescale.
            let result = {
                // PANIC-OK: the lock only guards the cached clone; no user
                // code runs under it.
                let mut cached = self.live.lock().expect("cached live handle lock poisoned");
                let (sealed, base_epoch, generation) = {
                    // PANIC-OK: same poisoning argument as `shards`.
                    let shared = self.shared.read().expect("elastic state lock poisoned");
                    let Some(live) = shared.live.as_ref() else {
                        return Err(PipelineError::Finished);
                    };
                    if cached.as_ref().is_none_or(|(g, _)| *g != shared.generation) {
                        *cached = Some((shared.generation, live.clone()));
                    }
                    (shared.sealed.clone(), shared.base_epoch, shared.generation)
                };
                // PANIC-OK: refreshed just above and never cleared.
                let (_, live) = cached.as_ref().expect("live handle cached above");
                live.try_snapshot()
                    .map(|view| (view, sealed, base_epoch, generation))
            };
            match result {
                Ok((view, sealed, base_epoch, generation)) => {
                    // PANIC-OK: the lock only guards the scratch buffer.
                    let mut helper = self.helper.lock().expect("merge helper lock poisoned");
                    return Ok(rebase(view, sealed, base_epoch, generation, &mut helper));
                }
                // A wedged worker missed its reply deadline: retrying
                // against the same generation cannot help.
                Err(err @ PipelineError::Timeout { .. }) => return Err(err),
                // The generation died between reading the state and the
                // snapshot reply: a rescale is sealing it.  Sleep briefly
                // rather than spin — the seal window is drain-bound
                // (milliseconds), so a pure yield loop would burn a core
                // per waiting query thread, competing with the very drain
                // being waited on.  Backoff doubles up to the policy cap;
                // past the deadline the pipeline is stuck, not sealing.
                Err(_) => {
                    if started.elapsed() >= self.retry.deadline {
                        return Err(PipelineError::Timeout {
                            operation: "seal-window retry",
                            waited: started.elapsed(),
                        });
                    }
                    std::thread::sleep(pause);
                    pause = self.retry.backoff.next(pause);
                }
            }
        }
    }

    /// [`ElasticHandle::try_snapshot`] flattened to an `Option`: `None`
    /// once the pipeline has finished or when no view could be assembled
    /// within the retry deadline.
    #[must_use = "assembling a snapshot clones every shard's summary; dropping it wastes that work"]
    pub fn snapshot(&self) -> Option<SnapshotView<S>> {
        self.try_snapshot().ok()
    }

    /// Wraps this handle in a [`CachedSnapshots`] layer (see
    /// [`LiveHandle::cached`]); the cache carries over rescales because the
    /// handle does.
    pub fn cached(self, policy: CachePolicy) -> CachedSnapshots<Self, S> {
        CachedSnapshots::new(self, policy)
    }
}

impl<S: SnapshotSummary + FrequencyQueries> ElasticHandle<S> {
    /// Estimates the frequency of `item` over the whole stream, from a
    /// fresh snapshot.  (Across generations there is no single owning
    /// shard, so no single-shard fast path exists — use a
    /// [`CachedSnapshots`] layer to amortize the snapshot cost instead.)
    /// The view's summary buffer is recycled into the live generation's
    /// arena afterwards, as for [`LiveHandle::estimate`].
    pub fn estimate(&self, item: u64) -> Option<i64> {
        let view = self.snapshot()?;
        let estimate = view.estimate(item);
        SnapshotSource::recycle(self, view.into_merged());
        Some(estimate)
    }
}

impl<S: SnapshotSummary> SnapshotSource<S> for ElasticHandle<S> {
    fn snapshot(&self) -> Option<SnapshotView<S>> {
        ElasticHandle::snapshot(self)
    }

    fn acknowledged(&self) -> u64 {
        ElasticHandle::acknowledged(self)
    }

    fn recycle(&self, spare: S) {
        // PANIC-OK: the lock only guards the cached clone.
        let cached = self.live.lock().expect("cached live handle lock poisoned");
        if let Some((_, live)) = cached.as_ref() {
            SnapshotSource::recycle(live, spare);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamSummary;
    use salsa_sketches::cms::CountMin;

    fn stream(n: usize, universe: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) % universe
            })
            .collect()
    }

    fn make() -> impl FnMut(usize) -> CountMin<salsa_core::fixed::FixedRow> {
        |_| CountMin::baseline(3, 256, 32, 97)
    }

    fn unsharded(items: &[u64]) -> CountMin<salsa_core::fixed::FixedRow> {
        let mut sketch = make()(0);
        for chunk in items.chunks(64) {
            sketch.ingest(chunk);
        }
        sketch
    }

    #[test]
    fn rescale_preserves_sum_merge_exactness() {
        let items = stream(30_000, 500, 3);
        let config = PipelineConfig::new(1).batch_size(64);
        let mut pipeline = ElasticPipeline::new(&config, make());
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
        assert_eq!(out.generations.len(), 3);
        let single = unsharded(&items);
        for item in 0..500u64 {
            assert_eq!(out.merged.estimate(item), single.estimate(item));
        }
    }

    #[test]
    fn rescale_to_current_count_is_a_noop() {
        let mut pipeline = ElasticPipeline::new(&PipelineConfig::new(2), make());
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
        let mut pipeline = ElasticPipeline::new(&PipelineConfig::new(2).batch_size(128), make());
        pipeline.extend(&items[..5_000]);
        pipeline.rescale(3);
        pipeline.extend(&items[5_000..9_000]);
        let view = pipeline.snapshot();
        assert_eq!(view.epoch(), 9_000);
        assert_eq!(view.generation(), 1);
        let prefix = unsharded(&items[..9_000]);
        for item in 0..300u64 {
            assert_eq!(view.estimate(item), prefix.estimate(item) as i64);
        }
        pipeline.extend(&items[9_000..]);
        pipeline.finish();
    }

    #[test]
    fn handle_survives_rescales_and_goes_dark_after_finish() {
        let items = stream(8_000, 200, 9);
        let mut pipeline = ElasticPipeline::new(&PipelineConfig::new(1).batch_size(64), make());
        let handle = pipeline.handle();
        pipeline.extend(&items[..4_000]);
        let before = handle.snapshot().expect("live before rescale");
        pipeline.rescale(3);
        let after = handle.snapshot().expect("live after rescale");
        assert!(after.epoch() >= before.epoch());
        assert_eq!(after.generation(), 1);
        assert_eq!(handle.shards(), Some(3));
        pipeline.extend(&items[4_000..]);
        let epoch = pipeline.drain();
        assert_eq!(epoch, items.len() as u64);
        assert_eq!(handle.acknowledged(), items.len() as u64);
        let final_view = handle.snapshot().expect("live before finish");
        assert_eq!(final_view.epoch(), items.len() as u64);
        pipeline.finish();
        assert!(handle.snapshot().is_none(), "snapshot after finish");
        assert!(handle.estimate(1).is_none(), "estimate after finish");
        assert_eq!(handle.shards(), None);
        assert_eq!(handle.acknowledged(), items.len() as u64);
    }

    #[test]
    fn dropping_without_finish_darkens_handles() {
        let mut pipeline = ElasticPipeline::new(&PipelineConfig::new(2).batch_size(32), make());
        pipeline.extend(&stream(2_000, 100, 13));
        pipeline.drain();
        let handle = pipeline.handle();
        assert!(handle.snapshot().is_some());
        let acknowledged_before = handle.acknowledged();
        assert_eq!(acknowledged_before, 2_000);
        drop(pipeline);
        // Without the Drop impl this would spin forever retrying against
        // the dead generation.
        assert!(handle.snapshot().is_none(), "snapshot after drop");
        assert_eq!(handle.shards(), None);
        // The live generation's progress is folded into the base at drop,
        // so the acknowledged count never moves backwards.
        assert!(handle.acknowledged() >= acknowledged_before);
    }

    #[test]
    fn generation_history_partitions_the_stream() {
        let items = stream(9_000, 150, 11);
        let mut pipeline = ElasticPipeline::new(&PipelineConfig::new(2).batch_size(32), make());
        pipeline.extend(&items[..3_000]);
        pipeline.rescale(4);
        pipeline.extend(&items[3_000..7_500]);
        pipeline.rescale(1);
        pipeline.extend(&items[7_500..]);
        let out = pipeline.finish();
        assert_eq!(out.generations.len(), 3);
        let mut epoch = 0u64;
        for (i, generation) in out.generations.iter().enumerate() {
            assert_eq!(generation.generation, i as u64);
            assert_eq!(generation.start_epoch, epoch);
            epoch += generation.items;
            assert_eq!(generation.end_epoch, epoch);
            assert_eq!(
                generation.shard_stats.iter().map(|s| s.items).sum::<u64>(),
                generation.items
            );
            assert_eq!(generation.shard_stats.len(), generation.shards);
        }
        assert_eq!(epoch, items.len() as u64);
        assert_eq!(
            out.generations.iter().map(|g| g.shards).collect::<Vec<_>>(),
            vec![2, 4, 1]
        );
        assert!(out.max_pause_secs() >= out.mean_pause_secs());
    }
}
