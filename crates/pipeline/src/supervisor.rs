//! Worker supervision: shard health, recovery policy, and bounded waits.
//!
//! Every shard worker runs inside `catch_unwind` (see
//! [`crate::sharded`]): a panicking summary kills *that worker only*.  The
//! thread's last act before its channel disconnects is to publish the death
//! into a shared [`ShardHealth`] board, so the producer and every live
//! handle can tell a panicked shard from a cleanly finished one — the
//! loom-lite model in `tests/loom_supervision.rs` checks exactly this
//! publication order.  What happens next is the [`Recovery`] policy's call:
//! degrade (serve the surviving shards, with coverage metadata on every
//! view) or restart the shard with an empty sketch.
//!
//! The same module carries the pipeline's *bounded-wait* knobs: snapshot
//! and drain replies wait at most a configurable deadline, dispatch under
//! backpressure can be bounded too, and a [`LiveHandle`] retries through a
//! rescale's seal window with exponential [`Backoff`] under the snapshot
//! deadline instead of forever.
//!
//! [`LiveHandle`]: crate::LiveHandle

use std::time::Duration;

use crate::sync::atomic::{AtomicU32, Ordering};
use crate::sync::Arc;

use salsa_metrics::HealthCounters;

use crate::chaos::FaultPlan;

/// What a shard's worker is currently doing, as recorded in [`ShardHealth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The worker thread is alive and serving commands.
    Up,
    /// The worker died to a panic and has not been restarted: its items are
    /// lost and views over the pipeline are degraded.
    Down,
    /// The worker exited cleanly (the pipeline finished or this generation
    /// was sealed).
    Stopped,
}

const STATE_UP: u32 = 0;
const STATE_DOWN: u32 = 1;
const STATE_STOPPED: u32 = 2;

#[derive(Debug)]
struct HealthCell {
    state: AtomicU32,
    restarts: AtomicU32,
}

/// The shared per-shard health board: one [`ShardState`] plus a restart
/// count per shard, written by the workers and the supervisor, read
/// lock-free by the producer, every live handle, and the load monitor.
///
/// A dying worker stores `Down` *before* its channel disconnects, so any
/// observer that sees the disconnect also sees the state — that ordering is
/// the supervision protocol's core invariant (model-checked in
/// `tests/loom_supervision.rs`).
#[derive(Debug)]
pub struct ShardHealth {
    cells: Vec<HealthCell>,
}

impl ShardHealth {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            cells: (0..shards)
                .map(|_| HealthCell {
                    state: AtomicU32::new(STATE_UP),
                    restarts: AtomicU32::new(0),
                })
                .collect(),
        }
    }

    /// Number of shards on the board.
    #[inline]
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// The recorded state of `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn state(&self, shard: usize) -> ShardState {
        match self.cells[shard].state.load(Ordering::Acquire) {
            STATE_UP => ShardState::Up,
            STATE_DOWN => ShardState::Down,
            _ => ShardState::Stopped,
        }
    }

    /// How often `shard` has been restarted by the recovery policy.
    pub fn restarts(&self, shard: usize) -> u32 {
        self.cells[shard].restarts.load(Ordering::Acquire)
    }

    /// Number of shards currently [`ShardState::Down`].
    pub fn shards_down(&self) -> usize {
        (0..self.cells.len())
            .filter(|&shard| self.state(shard) == ShardState::Down)
            .count()
    }

    /// `true` while no shard is down.
    pub fn all_up(&self) -> bool {
        self.shards_down() == 0
    }

    pub(crate) fn mark(&self, shard: usize, state: ShardState) {
        let value = match state {
            ShardState::Up => STATE_UP,
            ShardState::Down => STATE_DOWN,
            ShardState::Stopped => STATE_STOPPED,
        };
        self.cells[shard].state.store(value, Ordering::Release);
    }

    pub(crate) fn record_restart(&self, shard: usize) {
        self.cells[shard].restarts.fetch_add(1, Ordering::Release);
    }
}

/// What the pipeline does about a dead shard worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Recovery {
    /// Leave the shard down.  The pipeline keeps ingesting and serving from
    /// the surviving shards; items routed to the dead shard are counted as
    /// dropped, and every view carries coverage metadata naming the gap.
    #[default]
    Degrade,
    /// Respawn the worker with an empty sketch (from the pipeline's
    /// factory), up to `max_restarts` times per shard; beyond that the
    /// shard degrades.  Counts the dead incarnation's applied items as
    /// lost — an empty sketch cannot recover them — but restores full
    /// routing capacity.
    Restart {
        /// Restart budget per shard before falling back to degrading.
        max_restarts: u32,
    },
}

/// Exponential backoff between bounded retries: sleeps start at `initial`
/// and double up to `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First sleep between retries.
    pub initial: Duration,
    /// Cap on the sleep between retries.
    pub max: Duration,
}

impl Backoff {
    /// The next sleep after one of `current`: doubled, capped at `max`.
    pub fn next(&self, current: Duration) -> Duration {
        (current * 2).min(self.max)
    }
}

impl Default for Backoff {
    /// 50µs doubling to at most 5ms — short enough that a seal window or a
    /// briefly full channel is re-checked promptly, long enough that a
    /// waiting thread never busy-spins against the very work it waits on.
    fn default() -> Self {
        Self {
            initial: Duration::from_micros(50),
            max: Duration::from_millis(5),
        }
    }
}

/// Fault-tolerance configuration of a supervised pipeline — what to do
/// about dead workers, how long each blocking edge may wait, and the
/// observability hooks.  Pass it to
/// [`ShardedPipeline::supervised`](crate::ShardedPipeline::supervised).
#[derive(Clone)]
pub struct SupervisorConfig {
    /// What to do when a shard worker dies (default: [`Recovery::Degrade`]).
    pub recovery: Recovery,
    /// How long a snapshot waits for each shard's reply before the call
    /// reports a timeout — and how long a live-handle query retries
    /// through a rescale's seal window.
    pub snapshot_timeout: Duration,
    /// How long a drain waits for each shard's barrier acknowledgement.
    pub drain_timeout: Duration,
    /// Bound on a dispatch blocked by backpressure.  `None` (the default)
    /// blocks indefinitely, exactly like an unsupervised pipeline — full
    /// channels are flow control, not a fault; set a bound when a stalled
    /// worker must not stall the producer (the batch is then counted as
    /// dropped).
    pub dispatch_timeout: Option<Duration>,
    /// Sleep schedule for bounded waits that poll (dispatch under a
    /// timeout, a live-handle query retrying through a seal window).
    pub backoff: Backoff,
    /// Fault-injection plan threaded into the worker loops; `None` outside
    /// chaos tests and benches.
    pub chaos: Option<Arc<FaultPlan>>,
    /// Event counters the supervision layer records into; share the `Arc`
    /// to observe panics/restarts/timeouts/drops from outside.
    pub counters: Arc<HealthCounters>,
}

impl std::fmt::Debug for SupervisorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisorConfig")
            .field("recovery", &self.recovery)
            .field("snapshot_timeout", &self.snapshot_timeout)
            .field("drain_timeout", &self.drain_timeout)
            .field("dispatch_timeout", &self.dispatch_timeout)
            .field("backoff", &self.backoff)
            .field("chaos", &self.chaos.as_ref().map(|_| "FaultPlan"))
            .finish_non_exhaustive()
    }
}

impl Default for SupervisorConfig {
    /// Degrade on death; 30s reply deadlines (unreachable in healthy runs,
    /// small enough that a wedged worker cannot hang a caller forever);
    /// unbounded dispatch (backpressure is flow control).
    fn default() -> Self {
        Self {
            recovery: Recovery::default(),
            snapshot_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(30),
            dispatch_timeout: None,
            backoff: Backoff::default(),
            chaos: None,
            counters: Arc::new(HealthCounters::new()),
        }
    }
}

impl SupervisorConfig {
    /// The default configuration (see [`SupervisorConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the recovery policy.
    pub fn recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// Shorthand for [`Recovery::Restart`] with the given budget.
    pub fn restart(self, max_restarts: u32) -> Self {
        self.recovery(Recovery::Restart { max_restarts })
    }

    /// Sets the per-shard snapshot reply deadline.
    pub fn snapshot_timeout(mut self, timeout: Duration) -> Self {
        self.snapshot_timeout = timeout;
        self
    }

    /// Sets the per-shard drain acknowledgement deadline.
    pub fn drain_timeout(mut self, timeout: Duration) -> Self {
        self.drain_timeout = timeout;
        self
    }

    /// Bounds dispatch under backpressure (see the field docs).
    pub fn dispatch_timeout(mut self, timeout: Duration) -> Self {
        self.dispatch_timeout = Some(timeout);
        self
    }

    /// Threads a fault-injection plan into the worker loops.
    pub fn chaos(mut self, plan: Arc<FaultPlan>) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Records supervision events into caller-shared counters.
    pub fn counters(mut self, counters: Arc<HealthCounters>) -> Self {
        self.counters = counters;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_board_tracks_states_and_restarts() {
        let health = ShardHealth::new(3);
        assert_eq!(health.shards(), 3);
        assert!(health.all_up());
        assert_eq!(health.shards_down(), 0);
        health.mark(1, ShardState::Down);
        assert_eq!(health.state(1), ShardState::Down);
        assert_eq!(health.shards_down(), 1);
        assert!(!health.all_up());
        health.record_restart(1);
        health.mark(1, ShardState::Up);
        assert_eq!(health.restarts(1), 1);
        assert_eq!(health.restarts(0), 0);
        assert!(health.all_up());
        health.mark(2, ShardState::Stopped);
        assert_eq!(health.state(2), ShardState::Stopped);
        assert_eq!(health.shards_down(), 0, "stopped is not down");
    }

    #[test]
    fn backoff_doubles_to_its_cap() {
        let backoff = Backoff::default();
        let mut sleep = backoff.initial;
        assert_eq!(sleep, Duration::from_micros(50));
        sleep = backoff.next(sleep);
        assert_eq!(sleep, Duration::from_micros(100));
        for _ in 0..20 {
            sleep = backoff.next(sleep);
        }
        assert_eq!(sleep, backoff.max, "capped");
    }

    #[test]
    fn config_builders_compose() {
        let config = SupervisorConfig::new()
            .restart(2)
            .snapshot_timeout(Duration::from_millis(100))
            .drain_timeout(Duration::from_millis(200))
            .dispatch_timeout(Duration::from_millis(50));
        assert_eq!(config.recovery, Recovery::Restart { max_restarts: 2 });
        assert_eq!(config.snapshot_timeout, Duration::from_millis(100));
        assert_eq!(config.drain_timeout, Duration::from_millis(200));
        assert_eq!(config.dispatch_timeout, Some(Duration::from_millis(50)));
        let clone = config.clone();
        assert!(
            Arc::ptr_eq(&clone.counters, &config.counters),
            "clones share the counters"
        );
    }
}
