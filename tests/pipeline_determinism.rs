//! Determinism of the sharded pipeline: with hash (by-key) partitioning and
//! sum-merge rows, the merged global view must give **byte-identical**
//! estimates to a single unsharded sketch of the same stream — sharding is
//! a pure implementation detail, invisible to queries.
//!
//! This is the end-to-end counterpart of the sketch-level merge property
//! tests in `salsa-sketches`: it goes through the real worker threads,
//! batching, routing, and final merge of `salsa-pipeline`, on a realistic
//! Zipf trace, for both the baseline (fixed-row) and SALSA (both merge
//! encodings) CMS.

use salsa_core::prelude::*;
use salsa_pipeline::{run_sharded, FrequencyQueries, PipelineConfig, SnapshotSummary};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

const UNIVERSE: usize = 20_000;
const UPDATES: usize = 120_000;

fn trace() -> Vec<u64> {
    TraceSpec::Zipf {
        universe: UNIVERSE,
        skew: 1.0,
    }
    .generate(UPDATES, 7)
    .items()
    .to_vec()
}

/// Feeds the whole stream to one sketch through the same batched hot path
/// the pipeline workers use.
fn unsharded<S: SnapshotSummary>(mut sketch: S, items: &[u64]) -> S {
    for chunk in items.chunks(PipelineConfig::DEFAULT_BATCH_SIZE) {
        sketch.ingest(chunk);
    }
    sketch
}

fn assert_identical<S, F>(make: F, items: &[u64], label: &str)
where
    S: SnapshotSummary + FrequencyQueries,
    F: Fn(usize) -> S + Copy + Send,
{
    let single = unsharded(make(0), items);
    for shards in [2usize, 4, 5] {
        let out = run_sharded(&PipelineConfig::new(shards), make, items);
        assert_eq!(out.items, items.len() as u64);
        for item in 0..UNIVERSE as u64 {
            assert_eq!(
                out.merged.estimate(item),
                single.estimate(item),
                "{label}, {} shards, item {item}",
                shards
            );
        }
    }
}

#[test]
fn hash_partitioned_salsa_cms_matches_unsharded_exactly() {
    let items = trace();
    assert_identical(
        |_| CountMin::salsa(4, 4096, 8, MergeOp::Sum, 42),
        &items,
        "SALSA CMS (simple encoding)",
    );
}

#[test]
fn hash_partitioned_compact_salsa_cms_matches_unsharded_exactly() {
    let items = trace();
    assert_identical(
        |_| CountMin::salsa_compact(4, 4096, 8, MergeOp::Sum, 42),
        &items,
        "SALSA CMS (compact encoding)",
    );
}

#[test]
fn hash_partitioned_baseline_cms_matches_unsharded_exactly() {
    let items = trace();
    assert_identical(
        |_| CountMin::baseline(4, 4096, 32, 42),
        &items,
        "Baseline CMS",
    );
}
