//! A network query server over a live pipeline: `salsa-serve` fronts an
//! elastic pipeline on a loopback socket while clients issue point
//! queries, candidate-set top-k, and a push-mode subscription — all over
//! the length-delimited wire protocol, with request coalescing and load
//! shedding in between.
//!
//! ```text
//! cargo run --release -p salsa-examples --example query_server
//! ```
//!
//! The demo streams a skewed (Zipf) trace through a 2-shard elastic
//! pipeline, stands a TCP server in front of its handle, and runs three
//! kinds of client against it: a burst of concurrent point-queriers
//! (whose snapshot fetches coalesce), one top-k query, and a subscriber
//! that receives seq-stamped pushes while ingestion continues through a
//! 2 → 4 rescale.  Every answer carries the serving view's epoch and
//! coverage; the server's counters tell the coalescing story at the end.

use std::time::Duration;

use salsa_pipeline::{PipelineConfig, ShardedPipeline};
use salsa_serve::{serve, QueryClient, ServeConfig};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

fn main() {
    let updates = 400_000;
    let universe = 50_000;
    let items = TraceSpec::Zipf {
        universe,
        skew: 1.0,
    }
    .generate(updates, 2026)
    .items()
    .to_vec();
    let candidates: Vec<u64> = items.iter().step_by(101).copied().collect();

    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(2), |_| {
        CountMin::salsa(4, 1 << 15, 8, MergeOp::Sum, 7)
    });
    // Port 0: the OS picks a free port; handle.addr() is the real one.
    let server = serve(
        "127.0.0.1:0",
        pipeline.live_handle(),
        ServeConfig::default(),
    )
    .expect("bind a loopback socket");
    let addr = server.addr();
    println!("serving on {addr}\n");

    pipeline.extend(&items[..updates / 2]);

    // A burst of concurrent point queries: requests landing inside one
    // coalescing window share a single snapshot fetch.
    let queriers: Vec<_> = (0..4)
        .map(|worker| {
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(addr).expect("connect");
                for item in 0..200u64 {
                    let answer = client.point(item).expect("point query");
                    if worker == 0 && item % 50 == 0 {
                        println!(
                            "item {item:>3}: estimate {:>6}  (epoch {}, gen {})",
                            answer.estimate, answer.meta.epoch, answer.meta.generation
                        );
                    }
                }
            })
        })
        .collect();
    for handle in queriers {
        handle.join().expect("querier panicked");
    }

    // Push mode: the server streams a refreshed top-k at a fixed cadence
    // while the main thread keeps ingesting and rescales underneath it.
    let subscriber = {
        let candidates = candidates.clone();
        std::thread::spawn(move || {
            let client = QueryClient::connect(addr).expect("connect");
            let mut sub = client
                .subscribe(3, Duration::from_millis(20), &candidates)
                .expect("subscribe");
            for _ in 0..8 {
                let update = sub.next_update().expect("pushed update");
                println!(
                    "push #{:<2} epoch {:>7} gen {}: top-3 {:?}",
                    update.seq, update.meta.epoch, update.meta.generation, update.entries
                );
            }
        })
    };

    pipeline.rescale(4).expect("2 -> 4 rescale");
    for chunk in items[updates / 2..].chunks(4_096) {
        pipeline.extend(chunk);
        std::thread::sleep(Duration::from_millis(2));
    }
    let epoch = pipeline.drain();
    subscriber.join().expect("subscriber panicked");

    // One classic request-response top-k against the drained stream.
    let mut client = QueryClient::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(5)); // let the cache TTL lapse
    let top = client.top_k(5, &candidates).expect("top-k query");
    println!(
        "\nfinal top-5 at epoch {}: {:?}",
        top.meta.epoch, top.entries
    );
    let stats = client.stats().expect("stats");
    println!(
        "server counters: accepted {}, coalesced {} ({}% of point/top-k), \
         shed {}, cache {} hits / {} misses",
        stats.accepted,
        stats.coalesced,
        100 * stats.coalesced / stats.accepted.max(1),
        stats.shed,
        stats.cache_hits,
        stats.cache_misses,
    );
    assert_eq!(epoch, updates as u64);
    assert_eq!(top.meta.epoch, updates as u64);
    drop(server);
    pipeline.finish();
    println!("server drained and shut down cleanly");
}
