//! The query path's one view cache: one snapshot fetch per window, shared
//! by every request that arrives while the window is open, and one
//! assembled view re-served while it stays within a [`CachePolicy`].
//!
//! The [`Coalescer`] runs a ticketed fetch protocol:
//!
//! 1. Every requester takes the current **ticket** (`next_fetch`) under the
//!    state lock.
//! 2. The first requester to find no fetch in flight becomes the
//!    **fetcher**: it holds the window open for `window` (so concurrent
//!    arrivals can join), *then* advances `next_fetch` and consults the
//!    cache — the last published view, re-served while the policy holds,
//!    else a fresh assembly from the [`SnapshotSource`].  Because the
//!    advance happens before the consult, every ticket at or below the
//!    fetched round joined **before** the fetch began — so the view they
//!    are served reflects a cache consult that started after they arrived.
//!    With a zero [`CachePolicy`] that means an epoch at least as fresh as
//!    the pipeline's acknowledged count at join time; with a nonzero
//!    policy, staleness is bounded by the policy.
//! 3. Everyone else parks on a condvar and is handed the fetched view
//!    (an `Arc` clone — no allocation, no sketch access) when their round
//!    completes.  These are the **coalesced** requests, counted in
//!    [`ServeCounters::coalesced`].
//!
//! Each round counts one hit or one miss in [`CacheGauges`].  A view that
//! a miss replaces goes back to [`SnapshotSource::recycle`] once its
//! successor is published and no requester still holds it, so the next
//! assembly refreshes its buffer instead of allocating.  The slot is never
//! emptied mid-round: a waiter of the previous round may still read it
//! after the next round has closed.
//!
//! The steady-state cost per window is therefore one cache consult (often a
//! hit: an `Arc` clone) regardless of how many requests share it, and the
//! steady-state serve path performs no allocation.  A zero window turns
//! the coalescer into a plain single-flight cache for in-process callers.
//!
//! This protocol has a loom-lite model (`tests/loom_coalesce.rs`)
//! checking the join-epoch guarantee, plus a deliberately-buggy twin the
//! checker catches — see the ROADMAP's concurrency notes.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use salsa_metrics::{CacheGauges, ServeCounters};
use salsa_pipeline::{SnapshotSource, SnapshotView};

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

/// Shared fetch-round state (see the module docs for the protocol).
struct CoalesceState<S> {
    /// Ticket the next arriving requester takes; advanced by the fetcher
    /// right before it consults the cache.
    next_fetch: u64,
    /// Highest round whose view has been published.
    completed: u64,
    /// Whether a fetcher currently holds the window open or is fetching.
    fetching: bool,
    /// The most recently published view (`None` before the first round and
    /// after the pipeline finishes).
    view: Option<Arc<SnapshotView<S>>>,
}

/// The coalescing view cache in front of a [`SnapshotSource`]; see the
/// module docs.
///
/// Share one behind an `Arc` between all serving threads; every thread
/// calls [`Coalescer::view`] per request.
pub struct Coalescer<H, S> {
    source: H,
    policy: CachePolicy,
    window: Duration,
    counters: Arc<ServeCounters>,
    gauges: Arc<CacheGauges>,
    state: Mutex<CoalesceState<S>>,
    round_done: Condvar,
}

impl<H: SnapshotSource<S>, S> Coalescer<H, S> {
    /// Caches `source`'s views under `policy`, with a coalescing window of
    /// `window`.  Coalesced requests land in `counters`, each round's hit
    /// or miss in `gauges`.
    pub fn new(
        source: H,
        policy: CachePolicy,
        window: Duration,
        counters: Arc<ServeCounters>,
        gauges: Arc<CacheGauges>,
    ) -> Self {
        Self {
            source,
            policy,
            window,
            counters,
            gauges,
            // At rest the invariant is `completed == next_fetch - 1`: the
            // next arriving ticket is exactly the round that has not run.
            state: Mutex::new(CoalesceState {
                next_fetch: 1,
                completed: 0,
                fetching: false,
                view: None,
            }),
            round_done: Condvar::new(),
        }
    }

    /// The underlying (uncached) source.
    pub fn source(&self) -> &H {
        &self.source
    }

    /// The staleness policy views are re-served under.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// The coalescing window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The cache's hit and miss counts, one per fetch round.
    pub fn gauges(&self) -> &CacheGauges {
        &self.gauges
    }

    fn lock(&self) -> MutexGuard<'_, CoalesceState<S>> {
        // PANIC-OK: the lock guards plain counter/Arc state; the only code
        // that runs while it is held is this module's, which does not panic.
        self.state.lock().expect("coalesce state lock poisoned")
    }

    /// Whether `view` may be re-served under the policy.
    fn fresh(&self, view: &SnapshotView<S>) -> bool {
        let lag = self.source.acknowledged().saturating_sub(view.epoch());
        view.staleness() <= self.policy.max_age && lag <= self.policy.max_lag_items
    }

    /// A view from this request's fetch round: the shared result of one
    /// cache consult that began after this call did.  Blocks for at most
    /// roughly the window plus one snapshot assembly.  `None` once the
    /// pipeline has finished and the last cached view expired.
    pub fn view(&self) -> Option<Arc<SnapshotView<S>>> {
        let mut state = self.lock();
        let ticket = state.next_fetch;
        loop {
            if state.completed >= ticket {
                // Published by a fetch that began after we took the ticket:
                // a coalesced answer.
                self.counters.coalesced.incr();
                // ALLOC-OK: an `Arc` refcount bump, no heap data.
                return state.view.clone();
            }
            if !state.fetching {
                // We are the fetcher for round `ticket` (at rest,
                // `completed == next_fetch - 1`, so our ticket is exactly
                // the round about to run).
                state.fetching = true;
                drop(state);
                // Hold the window open so concurrent arrivals join this
                // round instead of queueing behind it.
                if !self.window.is_zero() {
                    std::thread::sleep(self.window);
                }
                return self.fetch();
            }
            // A fetcher is mid-round; park until it publishes.
            state = self
                .round_done
                .wait(state)
                // PANIC-OK: as in `lock` — the lock guards plain state.
                .expect("coalesce state lock poisoned");
        }
    }

    /// Runs the open round as its fetcher: closes it, consults the cache,
    /// publishes the round's view and wakes its waiters.
    fn fetch(&self) -> Option<Arc<SnapshotView<S>>> {
        // Close the round *before* consulting the cache: tickets taken
        // from here on belong to the next fetch, so everyone this round
        // serves joined before the consult below.
        let (round, cached) = {
            let mut state = self.lock();
            let round = state.next_fetch;
            state.next_fetch = round + 1;
            // ALLOC-OK: an `Arc` refcount bump, no heap data.
            (round, state.view.clone())
        };
        // Only the fetcher writes the slot, so until the publish below it
        // keeps serving late waiters of the previous round.
        let fetched = if cached.as_deref().is_some_and(|view| self.fresh(view)) {
            self.gauges.hits.incr();
            cached
        } else {
            // Let go of the stale view, so it can be reclaimed below.
            drop(cached);
            let fetched = self.source.snapshot().map(Arc::new);
            // A finished pipeline's dark refresh is not a miss.
            if fetched.is_some() {
                self.gauges.misses.incr();
            }
            fetched
        };
        let mut state = self.lock();
        // ALLOC-OK: an `Arc` refcount bump, no heap data.
        let replaced = std::mem::replace(&mut state.view, fetched.clone());
        state.completed = round;
        state.fetching = false;
        drop(state);
        self.round_done.notify_all();
        // The successor is published: reclaim the replaced view's buffer,
        // unless a requester still holds the view (or it was re-served).
        if let Some(stale) = replaced.and_then(|stale| Arc::try_unwrap(stale).ok()) {
            self.source.recycle(stale.into_merged());
        }
        fetched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A snapshot source whose epoch is a shared counter, so tests can
    /// advance the "stream" without a pipeline.
    #[derive(Clone)]
    struct FakeSource {
        epoch: Arc<AtomicU64>,
        assemblies: Arc<AtomicU64>,
        recycled: Arc<AtomicU64>,
    }

    impl SnapshotSource<u64> for FakeSource {
        fn snapshot(&self) -> Option<SnapshotView<u64>> {
            self.assemblies.fetch_add(1, Ordering::Relaxed);
            let epoch = self.epoch.load(Ordering::Relaxed);
            Some(SnapshotView::synthetic(
                epoch,
                epoch,
                0,
                salsa_pipeline::CoverageMeta::full(1),
            ))
        }

        fn acknowledged(&self) -> u64 {
            self.epoch.load(Ordering::Relaxed)
        }

        fn recycle(&self, _spare: u64) {
            self.recycled.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn coalescer(
        window_ms: u64,
        policy: CachePolicy,
    ) -> (Arc<AtomicU64>, Coalescer<FakeSource, u64>) {
        let epoch = Arc::new(AtomicU64::new(0));
        let source = FakeSource {
            epoch: Arc::clone(&epoch),
            assemblies: Arc::new(AtomicU64::new(0)),
            recycled: Arc::new(AtomicU64::new(0)),
        };
        (
            epoch,
            Coalescer::new(
                source,
                policy,
                Duration::from_millis(window_ms),
                Arc::new(ServeCounters::new()),
                Arc::new(CacheGauges::new()),
            ),
        )
    }

    #[test]
    fn concurrent_requests_share_one_fetch() {
        // Zero staleness budget: every round must consult the source.
        let (_, coalescer) = coalescer(20, CachePolicy::new(Duration::ZERO, 0));
        let coalescer = Arc::new(coalescer);
        let views: Vec<_> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let coalescer = Arc::clone(&coalescer);
                    scope.spawn(move || coalescer.view().expect("source never finishes"))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("requester panicked"))
                .collect()
        });
        let assemblies = coalescer.source().assemblies.load(Ordering::Relaxed);
        assert!(
            assemblies < 8,
            "8 concurrent requests must share fetches, got {assemblies} assemblies"
        );
        assert!(!views.is_empty());
        assert!(coalescer.gauges().misses.get() >= 1);
    }

    #[test]
    fn served_epoch_is_at_least_join_epoch() {
        let (epoch, coalescer) = coalescer(1, CachePolicy::new(Duration::ZERO, 0));
        for round in 1..=50u64 {
            epoch.store(round * 10, Ordering::Relaxed);
            let at_join = epoch.load(Ordering::Relaxed);
            let view = coalescer.view().expect("source never finishes");
            assert!(
                view.epoch() >= at_join,
                "round {round}: served epoch {} < join epoch {at_join}",
                view.epoch()
            );
        }
    }

    #[test]
    fn replaced_views_go_back_to_the_source() {
        let (epoch, coalescer) = coalescer(0, CachePolicy::new(Duration::ZERO, 0));
        for _ in 0..100 {
            // Every round lags the stream, so every round misses.
            epoch.fetch_add(1, Ordering::Relaxed);
            drop(coalescer.view().expect("source never finishes"));
        }
        assert_eq!(coalescer.gauges().misses.get(), 100);
        let recycled = coalescer.source().recycled.load(Ordering::Relaxed);
        assert!(
            recycled >= 99,
            "each miss after the first must recycle the view it replaced, got {recycled} of 99"
        );
    }

    #[test]
    fn every_call_is_a_hit_a_miss_or_coalesced() {
        const THREADS: u64 = 8;
        const CALLS: u64 = 200;
        let (epoch, coalescer) = coalescer(0, CachePolicy::new(Duration::from_micros(50), 4));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..CALLS {
                        epoch.fetch_add(1, Ordering::Relaxed);
                        assert!(coalescer.view().is_some(), "the source never finishes");
                    }
                });
            }
        });
        let gauges = coalescer.gauges();
        let coalesced = coalescer.counters.coalesced.get();
        assert_eq!(
            gauges.hits.get() + gauges.misses.get() + coalesced,
            THREADS * CALLS,
            "hits {} + misses {} + coalesced {coalesced}",
            gauges.hits.get(),
            gauges.misses.get()
        );
    }
}
