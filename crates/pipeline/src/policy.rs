//! *When* to scale, decoupled from *how*: load monitoring and pluggable
//! scaling policies for [`ShardedPipeline::autoscale`].
//!
//! [`LoadMonitor::sample`] turns the workers' free-running progress
//! counters into a [`LoadSnapshot`] — per-shard queue depth, busy-seconds
//! utilization, and the ingest rate over the sampling interval — and
//! publishes the signals to a shared
//! [`salsa_metrics::LoadGauges`] so exporters and tests can watch
//! the control plane without touching it.  A [`ScalingPolicy`] then maps
//! snapshots to target shard counts; the shipped implementation is
//! [`Threshold`] (high/low-watermark with hysteresis and cooldown, so the
//! controller doesn't flap).  An externally chosen target (an operator
//! command, a schedule, a test) needs no policy: call
//! [`ShardedPipeline::rescale`] directly.
//!
//! The split matters: policies are pure, deterministic functions of the
//! observed load, so they unit-test without threads, and swapping the
//! policy never touches the resharding machinery in
//! [`ShardedPipeline::rescale`].

use std::sync::Arc;
use std::time::Instant;

use salsa_metrics::LoadGauges;

use crate::sharded::ShardedPipeline;
use crate::SnapshotSummary;

/// One observation of the pipeline's load, produced by
/// [`LoadMonitor::sample`] and consumed by a [`ScalingPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSnapshot {
    /// Worker shards in the live generation.
    pub shards: usize,
    /// Total items pushed so far (all generations).
    pub pushed: u64,
    /// Total items applied by workers so far (all generations).
    pub applied: u64,
    /// Deepest per-shard channel queue: items dispatched to one worker but
    /// not yet applied.  Backpressure bounds it, so "queue pinned at its
    /// bound" is the saturation signal.
    pub max_queue_depth: u64,
    /// Seconds since the previous sample (`0.0` on the first).
    pub interval_secs: f64,
    /// Ingest rate over the interval, in million updates/sec (`0.0` on the
    /// first sample).
    pub ingest_mops: f64,
    /// Busiest shard's utilization over the interval: busy-seconds divided
    /// by wall-seconds, clamped to `0.0..=1.0` (`0.0` on the first sample
    /// and right after a rescale, when the busy baseline resets).
    pub utilization: f64,
}

impl LoadSnapshot {
    /// Items pushed but not yet applied anywhere (producer buffers plus
    /// every channel) — the global backlog.
    pub fn pending(&self) -> u64 {
        self.pushed.saturating_sub(self.applied)
    }
}

/// Samples a [`ShardedPipeline`]'s load and publishes it to shared
/// [`LoadGauges`].
///
/// Sampling is producer-side and lock-free (it reads the workers' published
/// progress counters), so calling it every few thousand pushes costs
/// nothing measurable.  Rates are computed against the previous sample;
/// across a rescale the busy baseline resets, so the first post-rescale
/// utilization reads `0.0` — policies with a cooldown (see [`Threshold`])
/// ignore that window anyway.
pub struct LoadMonitor {
    gauges: Arc<LoadGauges>,
    last: Option<Baseline>,
}

struct Baseline {
    at: Instant,
    pushed: u64,
    generation: u64,
    busy_secs: Vec<f64>,
}

impl Default for LoadMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl LoadMonitor {
    /// A monitor publishing to its own fresh gauges; share them through
    /// [`LoadMonitor::gauges`] (for example as the query server's load
    /// signal).
    pub fn new() -> Self {
        Self {
            gauges: Arc::new(LoadGauges::new()),
            last: None,
        }
    }

    /// The gauges this monitor publishes to.
    pub fn gauges(&self) -> &Arc<LoadGauges> {
        &self.gauges
    }

    /// Takes one load sample and publishes it to the gauges.
    pub fn sample<S: SnapshotSummary>(
        &mut self,
        pipeline: &ShardedPipeline<'_, S>,
    ) -> LoadSnapshot {
        let now = Instant::now();
        let loads = pipeline.shard_loads();
        let pushed = pipeline.pushed();
        let applied = pipeline.acknowledged();
        let generation = pipeline.generation();
        let max_queue_depth = loads.iter().map(|l| l.queue_depth()).max().unwrap_or(0);

        let (interval_secs, ingest_mops, utilization) = match &self.last {
            Some(last) => {
                let interval = now.duration_since(last.at).as_secs_f64();
                let rate = if interval > 0.0 {
                    (pushed - last.pushed) as f64 / interval / 1e6
                } else {
                    0.0
                };
                // Busy deltas only compare within one generation: new
                // workers restart their busy clocks at zero.
                let busiest = if last.generation == generation && interval > 0.0 {
                    loads
                        .iter()
                        .zip(&last.busy_secs)
                        .map(|(l, &was)| (l.busy_secs - was).max(0.0) / interval)
                        .fold(0.0, f64::max)
                        .clamp(0.0, 1.0)
                } else {
                    0.0
                };
                (interval, rate, busiest)
            }
            None => (0.0, 0.0, 0.0),
        };
        self.last = Some(Baseline {
            at: now,
            pushed,
            generation,
            busy_secs: loads.iter().map(|l| l.busy_secs).collect(),
        });

        let snapshot = LoadSnapshot {
            shards: loads.len(),
            pushed,
            applied,
            max_queue_depth,
            interval_secs,
            ingest_mops,
            utilization,
        };
        self.gauges.shards.set(snapshot.shards as f64);
        self.gauges
            .shards_down
            .set(pipeline.health().shards_down() as f64);
        self.gauges.pending_items.set(snapshot.pending() as f64);
        self.gauges.max_queue_depth.set(max_queue_depth as f64);
        self.gauges.ingest_mops.set(ingest_mops);
        self.gauges.utilization.set(utilization);
        snapshot
    }
}

/// Decides target shard counts from observed load.
///
/// `decide` returns `Some(target)` to request that shard count (a no-op
/// request equal to the current count is fine — the pipeline ignores it)
/// or `None` to leave the count alone.  Policies are plain mutable state
/// machines: deterministic functions of the snapshot sequence, so they can
/// be unit-tested by feeding synthetic snapshots.
pub trait ScalingPolicy {
    /// One control decision for one load sample.
    fn decide(&mut self, load: &LoadSnapshot) -> Option<usize>;
}

/// High/low-watermark scaling with hysteresis and cooldown.
///
/// * **Grow** (double the shards, capped at `max_shards`) after `patience`
///   consecutive samples whose deepest per-shard queue reaches
///   `grow_queue_depth` — the workers cannot keep up.  **Watermark
///   reachability:** channel backpressure caps a shard's queue at roughly
///   6 × the pipeline's batch size (the channel depth plus in-flight
///   batches), so a `grow_queue_depth` above that bound can never fire
///   and the policy silently never grows.  1–2 × the batch size is the
///   useful range ("the channel is backing up").
/// * **Shrink** (halve the shards, floored at `min_shards`) after
///   `patience` consecutive samples whose busiest-shard utilization is at
///   most `shrink_utilization` — the workers are mostly idle.
/// * After any decision, `cooldown` samples are ignored entirely, so one
///   burst cannot trigger a grow-shrink-grow flap while the system settles.
///
/// Breach counters reset whenever a sample lands between the watermarks,
/// so only *sustained* pressure (or idleness) moves the shard count.
#[derive(Debug, Clone)]
pub struct Threshold {
    /// Lower bound on the shard count.
    pub min_shards: usize,
    /// Upper bound on the shard count.
    pub max_shards: usize,
    /// High watermark: grow when the deepest per-shard queue reaches this
    /// many items.  1–2 × the batch size ≈ "channel backing up"; values
    /// above ~6 × the batch size are unreachable under backpressure (see
    /// the type docs) and disable growing entirely.
    pub grow_queue_depth: u64,
    /// Low watermark: shrink when the busiest shard's utilization is at or
    /// below this fraction of wall time.
    pub shrink_utilization: f64,
    /// Consecutive breaching samples required before acting (hysteresis).
    pub patience: u32,
    /// Samples ignored after a decision (cooldown).
    pub cooldown: u32,
    breaching_high: u32,
    breaching_low: u32,
    cooldown_left: u32,
}

impl Threshold {
    /// A policy scaling between `min_shards` and `max_shards` with the
    /// given watermarks, acting after 2 consecutive breaches and cooling
    /// down for 2 samples after each decision.
    pub fn new(
        min_shards: usize,
        max_shards: usize,
        grow_queue_depth: u64,
        shrink_utilization: f64,
    ) -> Self {
        Self {
            min_shards: min_shards.max(1),
            max_shards: max_shards.max(min_shards.max(1)),
            grow_queue_depth,
            shrink_utilization,
            patience: 2,
            cooldown: 2,
            breaching_high: 0,
            breaching_low: 0,
            cooldown_left: 0,
        }
    }

    /// Returns the policy with a different patience (consecutive breaches
    /// required before acting; clamped to at least 1).
    pub fn with_patience(mut self, patience: u32) -> Self {
        self.patience = patience.max(1);
        self
    }

    /// Returns the policy with a different cooldown (samples ignored after
    /// each decision).
    pub fn with_cooldown(mut self, cooldown: u32) -> Self {
        self.cooldown = cooldown;
        self
    }
}

impl ScalingPolicy for Threshold {
    fn decide(&mut self, load: &LoadSnapshot) -> Option<usize> {
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            self.breaching_high = 0;
            self.breaching_low = 0;
            return None;
        }
        // Streaks cap at `patience`: the counter can't overflow while the
        // shard count is pinned at a bound, and "sustained for at least
        // `patience` samples" is all a decision ever needs to know.
        if load.max_queue_depth >= self.grow_queue_depth {
            self.breaching_high = (self.breaching_high + 1).min(self.patience);
            self.breaching_low = 0;
        } else if load.utilization <= self.shrink_utilization && load.interval_secs > 0.0 {
            self.breaching_low = (self.breaching_low + 1).min(self.patience);
            self.breaching_high = 0;
        } else {
            self.breaching_high = 0;
            self.breaching_low = 0;
        }
        if self.breaching_high >= self.patience && load.shards < self.max_shards {
            self.breaching_high = 0;
            self.cooldown_left = self.cooldown;
            return Some((load.shards * 2).min(self.max_shards));
        }
        if self.breaching_low >= self.patience && load.shards > self.min_shards {
            self.breaching_low = 0;
            self.cooldown_left = self.cooldown;
            return Some((load.shards / 2).max(self.min_shards));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(shards: usize, max_queue_depth: u64, utilization: f64) -> LoadSnapshot {
        LoadSnapshot {
            shards,
            pushed: 1_000,
            applied: 1_000 - max_queue_depth,
            max_queue_depth,
            interval_secs: 0.1,
            ingest_mops: 1.0,
            utilization,
        }
    }

    #[test]
    fn threshold_grows_after_sustained_pressure_only() {
        let mut policy = Threshold::new(1, 8, 100, 0.1)
            .with_patience(2)
            .with_cooldown(0);
        assert_eq!(policy.decide(&load(2, 500, 0.9)), None, "first breach");
        assert_eq!(
            policy.decide(&load(2, 500, 0.9)),
            Some(4),
            "second consecutive breach doubles"
        );
        // One calm sample resets the streak.
        assert_eq!(policy.decide(&load(4, 500, 0.9)), None);
        assert_eq!(policy.decide(&load(4, 10, 0.5)), None, "calm resets");
        assert_eq!(policy.decide(&load(4, 500, 0.9)), None, "streak restarts");
        assert_eq!(policy.decide(&load(4, 500, 0.9)), Some(8));
        // At the cap, pressure changes nothing.
        assert_eq!(policy.decide(&load(8, 500, 0.9)), None);
        assert_eq!(policy.decide(&load(8, 500, 0.9)), None);
    }

    #[test]
    fn threshold_shrinks_when_idle_and_respects_floor() {
        let mut policy = Threshold::new(2, 8, 100, 0.2)
            .with_patience(2)
            .with_cooldown(0);
        assert_eq!(policy.decide(&load(8, 0, 0.05)), None);
        assert_eq!(policy.decide(&load(8, 0, 0.05)), Some(4), "halves");
        assert_eq!(policy.decide(&load(4, 0, 0.05)), None);
        assert_eq!(policy.decide(&load(4, 0, 0.05)), Some(2));
        assert_eq!(policy.decide(&load(2, 0, 0.05)), None, "at the floor");
        assert_eq!(policy.decide(&load(2, 0, 0.05)), None);
    }

    #[test]
    fn threshold_cooldown_suppresses_flapping() {
        let mut policy = Threshold::new(1, 8, 100, 0.1)
            .with_patience(1)
            .with_cooldown(2);
        assert_eq!(policy.decide(&load(2, 500, 0.9)), Some(4));
        // The next two samples are ignored even though they breach low.
        assert_eq!(policy.decide(&load(4, 0, 0.0)), None, "cooldown 1");
        assert_eq!(policy.decide(&load(4, 0, 0.0)), None, "cooldown 2");
        assert_eq!(policy.decide(&load(4, 0, 0.0)), Some(2), "cooldown over");
    }

    #[test]
    fn threshold_ignores_idle_signal_on_first_sample() {
        // interval_secs == 0.0 marks a first sample: utilization is
        // meaningless there, so it must not count as a shrink breach.
        let mut policy = Threshold::new(1, 8, 100, 0.2)
            .with_patience(1)
            .with_cooldown(0);
        let first = LoadSnapshot {
            interval_secs: 0.0,
            utilization: 0.0,
            ..load(4, 0, 0.0)
        };
        assert_eq!(policy.decide(&first), None);
    }
}
