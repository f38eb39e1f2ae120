//! Fault injection for chaos-testing the supervised pipeline.
//!
//! A [`FaultPlan`] scripts worker failures deterministically: *panic shard
//! `k` once it has applied `n` items*, *stall shard `k` for `d` before its
//! next batch*, *drop shard `k`'s next drain acknowledgement*.  The plan is
//! threaded into the worker loops via
//! [`PipelineConfig::chaos`](crate::PipelineConfig::chaos) and checked
//! once per command on the worker side — zero cost when no plan is
//! configured, and entirely absent from production call sites.
//!
//! Faults trigger on *shard-local applied item counts*, which are a
//! deterministic function of the stream and the batching, so a chaos test
//! can compute exactly which prefix of a shard's sub-stream survives a
//! scripted panic and assert the degraded view against ground truth (see
//! `tests/chaos_properties.rs`).

use std::time::{Duration, Instant};

use crate::sync::Mutex;

/// What an injected fault does to its shard's worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the worker thread (before applying the triggering batch), as
    /// a buggy summary would.
    Panic,
    /// Sleep for the given duration before applying the triggering batch —
    /// a wedged worker, backing the channel up under backpressure.
    Stall(Duration),
    /// Swallow the shard's next drain acknowledgement: the worker stays
    /// alive but the barrier never completes, exercising the drain
    /// deadline.
    DropAck,
}

#[derive(Debug)]
struct Fault {
    shard: usize,
    after_items: u64,
    kind: FaultKind,
    fired_at: Option<Instant>,
}

/// A deterministic schedule of injected faults, shared with the worker
/// loops behind an `Arc`.
///
/// Each fault fires at most once.  `after_items` counts the owning shard's
/// *applied* items: the fault triggers on the first batch that would push
/// the shard past that count (before the batch is applied, so the shard's
/// surviving prefix is exactly the batches wholly before the trigger).
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Mutex<Vec<Fault>>,
}

impl FaultPlan {
    /// An empty plan; add faults with the builder methods.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(self, shard: usize, after_items: u64, kind: FaultKind) -> Self {
        self.faults
            .lock()
            // PANIC-OK: plan construction happens before any worker shares
            // the plan; the lock cannot be contended, let alone poisoned.
            .expect("fault plan lock poisoned")
            .push(Fault {
                shard,
                after_items,
                kind,
                fired_at: None,
            });
        self
    }

    /// Panics `shard`'s worker on the first batch past `after_items`
    /// applied items.
    pub fn panic_shard(self, shard: usize, after_items: u64) -> Self {
        self.add(shard, after_items, FaultKind::Panic)
    }

    /// Stalls `shard`'s worker for `pause` on the first batch past
    /// `after_items` applied items.
    pub fn stall_shard(self, shard: usize, after_items: u64, pause: Duration) -> Self {
        self.add(shard, after_items, FaultKind::Stall(pause))
    }

    /// Swallows `shard`'s next drain acknowledgement once it has applied at
    /// least `after_items` items.
    pub fn drop_ack(self, shard: usize, after_items: u64) -> Self {
        self.add(shard, after_items, FaultKind::DropAck)
    }

    /// Number of faults in the plan.
    pub fn planned(&self) -> usize {
        // PANIC-OK: no user code runs under the plan lock (workers only
        // scan and flip flags), so poisoning is unreachable.
        self.faults.lock().expect("fault plan lock poisoned").len()
    }

    /// Number of faults that have fired so far.
    pub fn fired(&self) -> usize {
        // PANIC-OK: same as `planned`.
        self.faults
            .lock()
            .expect("fault plan lock poisoned")
            .iter()
            .filter(|fault| fault.fired_at.is_some())
            .count()
    }

    /// When the first fault fired, if any has — the chaos benches measure
    /// recovery time from this instant.
    pub fn first_fired_at(&self) -> Option<Instant> {
        // PANIC-OK: same as `planned`.
        self.faults
            .lock()
            .expect("fault plan lock poisoned")
            .iter()
            .filter_map(|fault| fault.fired_at)
            .min()
    }

    /// Worker-side hook, called before applying a batch: the fault to
    /// execute now, if one triggers.  Any panic happens in the caller,
    /// *after* the plan lock is released, so the plan is never poisoned.
    pub(crate) fn before_batch(
        &self,
        shard: usize,
        applied: u64,
        batch_len: u64,
    ) -> Option<FaultKind> {
        // PANIC-OK: same as `planned` — the lock guards only flag flips.
        let mut faults = self.faults.lock().expect("fault plan lock poisoned");
        let fault = faults.iter_mut().find(|fault| {
            fault.fired_at.is_none()
                && fault.shard == shard
                && fault.kind != FaultKind::DropAck
                && applied + batch_len > fault.after_items
        })?;
        fault.fired_at = Some(Instant::now());
        Some(fault.kind)
    }

    /// Worker-side hook, called on a drain barrier: `true` when the
    /// acknowledgement must be swallowed.
    pub(crate) fn on_drain(&self, shard: usize, applied: u64) -> bool {
        // PANIC-OK: same as `planned`.
        let mut faults = self.faults.lock().expect("fault plan lock poisoned");
        match faults.iter_mut().find(|fault| {
            fault.fired_at.is_none()
                && fault.shard == shard
                && fault.kind == FaultKind::DropAck
                && applied >= fault.after_items
        }) {
            Some(fault) => {
                fault.fired_at = Some(Instant::now());
                true
            }
            None => false,
        }
    }
}

/// Message injected panics carry, so tests can tell a scripted fault from
/// a genuine bug in a panic hook or an unwind payload.
pub const INJECTED_PANIC: &str = "chaos: injected worker panic";

/// Silences the default panic-hook backtrace for pipeline worker threads
/// (names starting with `salsa-shard-`), leaving every other thread's
/// panics as loud as ever.  Worker panics are *caught* and turned into
/// shard health state, so their stderr noise is pure confusion in chaos
/// tests and benches; call this once at the top of such a harness.
///
/// The hook is installed process-wide (chained onto the previous hook) —
/// meant for test binaries and benches, not for library code.
pub fn silence_worker_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let worker = std::thread::current()
                .name()
                .is_some_and(|name| name.starts_with("salsa-shard-"));
            if !worker {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_fires_on_the_crossing_batch_once() {
        let plan = FaultPlan::new().panic_shard(1, 100);
        assert_eq!(plan.planned(), 1);
        assert_eq!(plan.fired(), 0);
        assert_eq!(plan.before_batch(0, 90, 64), None, "wrong shard");
        assert_eq!(plan.before_batch(1, 0, 64), None, "0+64 <= 100");
        assert_eq!(
            plan.before_batch(1, 64, 64),
            Some(FaultKind::Panic),
            "64+64 crosses 100"
        );
        assert_eq!(plan.fired(), 1);
        assert!(plan.first_fired_at().is_some());
        assert_eq!(plan.before_batch(1, 128, 64), None, "fires at most once");
    }

    #[test]
    fn drop_ack_fires_on_drain_not_on_batches() {
        let plan = FaultPlan::new().drop_ack(2, 10);
        assert_eq!(plan.before_batch(2, 100, 64), None);
        assert!(!plan.on_drain(2, 5), "below the trigger count");
        assert!(!plan.on_drain(0, 100), "wrong shard");
        assert!(plan.on_drain(2, 10));
        assert!(!plan.on_drain(2, 50), "fires at most once");
    }

    #[test]
    fn stall_and_panic_on_one_shard_fire_independently() {
        let plan = FaultPlan::new()
            .stall_shard(0, 10, Duration::from_millis(1))
            .panic_shard(0, 50);
        assert_eq!(
            plan.before_batch(0, 0, 16),
            Some(FaultKind::Stall(Duration::from_millis(1)))
        );
        assert_eq!(plan.before_batch(0, 16, 16), None, "stall spent, 32 <= 50");
        assert_eq!(plan.before_batch(0, 48, 16), Some(FaultKind::Panic));
        assert_eq!(plan.fired(), 2);
    }
}
