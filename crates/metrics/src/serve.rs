//! Serving-layer metrics: admission counters and view-cache counters.
//!
//! The network query frontend (`salsa-serve`) is the first consumer of the
//! pipeline that lives *outside* the process that owns the ingest loop, so
//! its health signals follow the same pattern as
//! [`LoadGauges`](crate::load::LoadGauges) and
//! [`HealthCounters`](crate::health::HealthCounters): lock-free shared
//! cells behind an `Arc`, written on the serve path without blocking it and
//! readable by exporters, benches and tests.  [`ServeCounters`] counts the
//! admission/coalescing events the server emits; [`CacheGauges`] counts the
//! view cache's hits and misses, written by the cache itself, so cache
//! effectiveness can be reported next to the load gauges.

use crate::health::Counter;

/// The admission and coalescing events a query server records.  Share one
/// instance (behind an `Arc`) between the server and whoever watches it.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Requests admitted past the load-shedding layer.
    pub accepted: Counter,
    /// Requests refused with a typed `Overloaded` response instead of being
    /// queued (admission saw too many requests in flight, or the ingest
    /// path's published backlog above the configured watermark).
    pub shed: Counter,
    /// Point queries answered from a snapshot fetch another request
    /// initiated — the requests that *shared* instead of fetched.
    pub coalesced: Counter,
    /// Top-k subscriptions accepted (one per `Subscribe` request).
    pub subscribed: Counter,
    /// Subscription updates pushed to clients.
    pub pushed_updates: Counter,
    /// Subscription ticks skipped because the consumer was still draining
    /// the previous update — the latest-only degradation for slow readers.
    pub lagged_updates: Counter,
}

impl ServeCounters {
    /// Fresh counters, all reading `0`.
    pub fn new() -> Self {
        Self::default()
    }
}

/// View-cache effectiveness: the coalescer in `salsa-serve` counts each
/// fetch round here as one hit or one miss, so the server and the perf
/// harness can report the cache's hit rate without holding the cache.
#[derive(Debug, Default)]
pub struct CacheGauges {
    /// Fetch rounds that re-served the cached view.
    pub hits: Counter,
    /// Fetch rounds that assembled a fresh view.
    pub misses: Counter,
}

impl CacheGauges {
    /// Fresh counters, both reading `0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of lookups served from the cached view; `1.0` when no
    /// lookup has happened yet (an empty cache has not missed anything).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits.get();
        let total = hits + self.misses.get();
        if total == 0 {
            1.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn serve_counters_compose_across_threads() {
        let counters = Arc::new(ServeCounters::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let counters = Arc::clone(&counters);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        counters.accepted.incr();
                    }
                    counters.shed.add(3);
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("writer thread panicked");
        }
        assert_eq!(counters.accepted.get(), 2_000);
        assert_eq!(counters.shed.get(), 12);
        assert_eq!(counters.coalesced.get(), 0);
    }

    #[test]
    fn cache_hit_rate_handles_empty_and_mixed() {
        let gauges = CacheGauges::new();
        assert_eq!(gauges.hit_rate(), 1.0);
        gauges.hits.add(3);
        gauges.misses.incr();
        assert_eq!(gauges.hit_rate(), 0.75);
    }
}
