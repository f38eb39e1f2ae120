//! Layer costs measured by replaying a workload's inputs through single
//! functions on one thread: the router hash, one SALSA row, sketch
//! estimates and the wire codec.  For calls this short a span's own two
//! clock reads would cost as much as the call, so these are timed in bulk.

use std::hint::black_box;
use std::time::Instant;

use salsa_core::row::SimpleSalsaRow;
use salsa_core::traits::{MergeOp, Row};
use salsa_hash::BobHash;
use salsa_pipeline::{FrequencyQueries, PipelineConfig, DEFAULT_ROUTER_SEED};
use salsa_serve::{Request, Response, WireMeta};

use crate::client::{Kind, QueryMix};
use crate::{Cms, BASE_BITS, WIDTH};

/// Nanoseconds per key of the pipeline's router hash over the stream.
pub fn hash_ns_per_key(stream: &[u64]) -> f64 {
    let router = BobHash::new(DEFAULT_ROUTER_SEED);
    let started = Instant::now();
    let mut acc = 0u64;
    for &key in stream {
        acc = acc.wrapping_add(router.hash_u64(black_box(key)));
    }
    black_box(acc);
    started.elapsed().as_nanos() as f64 / stream.len() as f64
}

/// Nanoseconds per unit add of one fresh SALSA row, fed the stream's row-0
/// buckets in pipeline-sized batches.  Bucket hashing is outside the timer.
pub fn row_ns_per_add(stream: &[u64], reference: &Cms) -> f64 {
    let batch = PipelineConfig::DEFAULT_BATCH_SIZE;
    let mut row = SimpleSalsaRow::new(WIDTH, BASE_BITS, MergeOp::Sum);
    let mut buckets = Vec::with_capacity(batch);
    let mut ns = 0u128;
    for chunk in stream.chunks(batch) {
        buckets.clear();
        buckets.extend(chunk.iter().map(|&k| reference.hashers().bucket(0, k)));
        let started = Instant::now();
        row.add_unit_batch(&buckets);
        ns += started.elapsed().as_nanos();
    }
    black_box(row.read(0));
    ns as f64 / stream.len() as f64
}

/// Nanoseconds per `FrequencyQueries::estimate` over `keys`.
pub fn estimate_ns(keys: &[u64], summary: &Cms) -> f64 {
    let started = Instant::now();
    let mut acc = 0i64;
    for &key in keys {
        acc = acc.wrapping_add(FrequencyQueries::estimate(summary, black_box(key)));
    }
    black_box(acc);
    started.elapsed().as_nanos() as f64 / keys.len() as f64
}

/// Nanoseconds per query of the wire codec: encoding and decoding the
/// workload's requests and the responses the server sends for them.
pub fn codec_ns_per_query(mix: &mut QueryMix, queries: usize, summary: &Cms) -> f64 {
    let meta = WireMeta {
        epoch: 1,
        shards_ok: 2,
        ..WireMeta::default()
    };
    let mut answers = Vec::with_capacity(queries);
    let requests: Vec<Request> = (0..queries)
        .map(|_| match mix.next() {
            Kind::Point(item) => {
                let estimate = FrequencyQueries::estimate(summary, item);
                answers.push(Response::Point { meta, estimate });
                Request::Point { item }
            }
            Kind::TopK(set) => {
                answers.push(Response::TopK {
                    meta,
                    entries: mix.expected_topk(set, summary),
                });
                Request::TopK {
                    k: crate::client::TOPK_K,
                    candidates: mix.topk_set(set).to_vec(),
                }
            }
        })
        .collect();
    let mut out = Vec::with_capacity(1 << 12);
    let started = Instant::now();
    for (request, answer) in requests.iter().zip(&answers) {
        request.encode(&mut out).expect("requests encode");
        black_box(Request::decode(&out[4..]).expect("requests decode"));
        answer.encode(&mut out).expect("responses encode");
        black_box(Response::decode(&out[4..]).expect("responses decode"));
    }
    started.elapsed().as_nanos() as f64 / queries as f64
}
