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
//! The same module carries the pipeline's *bounded-wait* schedule: snapshot
//! and drain replies wait at most the configured
//! [`reply_timeout`](crate::PipelineConfig::reply_timeout), dispatch under
//! backpressure can be bounded too, and the waits that poll (a bounded
//! dispatch, a [`LiveHandle`] retrying through a rescale's seal window)
//! sleep on an exponential schedule instead of spinning.
//!
//! [`LiveHandle`]: crate::LiveHandle

use std::time::Duration;

use crate::sync::atomic::{AtomicU32, Ordering};

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

/// First sleep of a wait that polls (a dispatch under a timeout, a
/// live-handle query retrying through a seal window): short enough that a
/// seal window or a briefly full channel is re-checked promptly.
pub(crate) const FIRST_PAUSE: Duration = Duration::from_micros(50);

/// Cap on the sleep between polls: long enough that a waiting thread never
/// busy-spins against the very work it waits on.
const MAX_PAUSE: Duration = Duration::from_millis(5);

/// The sleep after one of `pause`: doubled, capped at [`MAX_PAUSE`].
pub(crate) fn next_pause(pause: Duration) -> Duration {
    (pause * 2).min(MAX_PAUSE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Arc;
    use crate::{FaultPlan, PipelineConfig};

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
        let mut pause = FIRST_PAUSE;
        assert_eq!(pause, Duration::from_micros(50));
        pause = next_pause(pause);
        assert_eq!(pause, Duration::from_micros(100));
        for _ in 0..20 {
            pause = next_pause(pause);
        }
        assert_eq!(pause, Duration::from_millis(5), "capped");
    }

    #[test]
    fn config_builders_compose() {
        let plan = Arc::new(FaultPlan::new());
        let config = PipelineConfig::new(2)
            .shards(3)
            .batch_size(64)
            .recovery(Recovery::Restart { max_restarts: 2 })
            .reply_timeout(Duration::from_millis(100))
            .dispatch_timeout(Duration::from_millis(50))
            .chaos(Arc::clone(&plan));
        assert_eq!(config.shards, 3);
        assert_eq!(config.batch_size, 64);
        assert_eq!(config.recovery, Recovery::Restart { max_restarts: 2 });
        assert_eq!(config.reply_timeout, Duration::from_millis(100));
        assert_eq!(config.dispatch_timeout, Some(Duration::from_millis(50)));
        let clone = config.clone();
        assert!(
            clone
                .chaos
                .is_some_and(|shared| Arc::ptr_eq(&shared, &plan)),
            "clones share the fault plan"
        );
        let defaults = PipelineConfig::new(1);
        assert_eq!(defaults.recovery, Recovery::Degrade);
        assert_eq!(defaults.reply_timeout, Duration::from_secs(30));
        assert_eq!(defaults.dispatch_timeout, None);
        assert!(defaults.chaos.is_none());
    }
}
