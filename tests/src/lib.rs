//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in the sibling `*.rs` files declared as `[[test]]`
//! targets in this package's manifest; they exercise the workspace crates
//! together the way the experiment harness does (workload generation →
//! sketching → metrics) and assert the *qualitative* results the paper
//! reports (dominance relations, accuracy orderings, crossovers).

use std::sync::Arc;
use std::time::Duration;

use salsa_metrics::{CacheGauges, GroundTruth, OnArrivalError, ServeCounters};
use salsa_pipeline::{LiveHandle, SnapshotSummary};
use salsa_serve::{CachePolicy, Coalescer};
use salsa_sketches::estimator::FrequencyEstimator;
use salsa_workloads::TraceSpec;

/// Generates a reproducible skewed test stream.
pub fn test_stream(updates: usize, universe: usize, skew: f64, seed: u64) -> Vec<u64> {
    TraceSpec::Zipf { universe, skew }
        .generate(updates, seed)
        .items()
        .to_vec()
}

/// Runs the on-arrival loop and returns (NRMSE, ground truth).
pub fn on_arrival_nrmse(sketch: &mut dyn FrequencyEstimator, items: &[u64]) -> (f64, GroundTruth) {
    let mut truth = GroundTruth::new();
    let mut err = OnArrivalError::new();
    for &item in items {
        sketch.update(item, 1);
        let exact = truth.record(item);
        err.record(sketch.estimate(item), exact as i64);
    }
    (err.nrmse(), truth)
}

/// The serve path's view cache over `handle` with a zero coalescing
/// window: a single-flight cache under `policy` for in-process queries.
pub fn view_cache<S: SnapshotSummary>(
    handle: LiveHandle<S>,
    policy: CachePolicy,
) -> Coalescer<LiveHandle<S>, S> {
    Coalescer::new(
        handle,
        policy,
        Duration::ZERO,
        Arc::new(ServeCounters::new()),
        Arc::new(CacheGauges::new()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_stream_is_reproducible() {
        assert_eq!(
            test_stream(1000, 100, 1.0, 3),
            test_stream(1000, 100, 1.0, 3)
        );
    }
}
