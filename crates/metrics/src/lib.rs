//! # salsa-metrics — error metrics and statistics for the SALSA evaluation
//!
//! Implements every metric the paper reports:
//!
//! * on-arrival **MSE / RMSE / NRMSE** (Section VI, "Metrics") via
//!   [`error::OnArrivalError`];
//! * **AAE** and **ARE** over the items with non-zero frequency
//!   ([`error::average_errors`]), as used by the Pyramid/ABC/Cold-Filter
//!   comparisons;
//! * relative error of scalar estimates (entropy, frequency moments,
//!   distinct counts) via [`error::relative_error`];
//! * **top-k accuracy** ([`topk_accuracy`]) and threshold heavy-hitter
//!   selection ([`ground_truth::GroundTruth::heavy_hitters`]);
//! * exact ground-truth statistics ([`ground_truth::GroundTruth`]);
//! * mean / 95 % Student-t confidence intervals over trials
//!   ([`stats::Summary`]);
//! * throughput measurement ([`throughput::Throughput`]);
//! * live-query serving metrics — query-latency quantiles
//!   ([`latency::LatencySeries`]) and snapshot staleness
//!   ([`latency::StalenessTracker`]) — for the concurrent snapshot/query
//!   path of `salsa-pipeline`;
//! * lock-free load gauges ([`load::LoadGauges`]) published by the elastic
//!   control plane's monitor (shard count, queue depth, ingest rate,
//!   utilization) for scaling policies and exporters to read;
//! * fault-tolerance counters ([`health::HealthCounters`]) recorded by the
//!   pipeline's supervision layer (worker panics, restarts, degraded
//!   snapshots, timeouts, dropped items);
//! * serving-layer metrics ([`serve::ServeCounters`],
//!   [`serve::CacheGauges`]) recorded by the network query frontend's
//!   admission layer and its coalescing view cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ground_truth;
pub mod health;
pub mod latency;
pub mod load;
pub mod serve;
pub mod stats;
pub mod sync;
pub mod throughput;

pub use error::{average_errors, relative_error, AverageErrors, OnArrivalError};
pub use ground_truth::GroundTruth;
pub use health::{Counter, HealthCounters};
pub use latency::{LatencySeries, StalenessTracker};
pub use load::{Gauge, LoadGauges};
pub use serve::{CacheGauges, ServeCounters};
pub use stats::Summary;
pub use throughput::{mops_for, Throughput};

/// Fraction of the true top-`k` items that appear in the reported top-`k`
/// (the "Accuracy" metric of Fig. 15a/b).
pub fn topk_accuracy(reported: &[u64], true_topk: &[u64]) -> f64 {
    if true_topk.is_empty() {
        return 1.0;
    }
    let reported_set: salsa_hash::FxHashSet<u64> = reported.iter().copied().collect();
    let hits = true_topk
        .iter()
        .filter(|i| reported_set.contains(i))
        .count();
    hits as f64 / true_topk.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_accuracy_counts_overlap() {
        assert_eq!(topk_accuracy(&[1, 2, 3, 4], &[1, 2, 3, 4]), 1.0);
        assert_eq!(topk_accuracy(&[1, 2, 9, 8], &[1, 2, 3, 4]), 0.5);
        assert_eq!(topk_accuracy(&[], &[1, 2]), 0.0);
        assert_eq!(topk_accuracy(&[5], &[]), 1.0);
    }
}
