//! Self-adjusting shard scaling: an elastic pipeline rides out a bursty
//! workload, growing when the workers saturate and shrinking when they
//! idle — while a concurrent handle keeps querying across every rescale.
//!
//! ```text
//! cargo run --release -p salsa-examples --example elastic_scaling
//! ```
//!
//! The demo alternates full-speed bursts of a Zipf trace with throttled
//! idle phases.  A [`LoadMonitor`] samples queue depth and utilization
//! into shared gauges; a [`Threshold`] policy turns sustained saturation
//! into grow decisions and sustained idleness into shrink decisions (with
//! hysteresis and cooldown, so nothing flaps).  Every rescale seals the
//! current worker generation into an immutable sketch and starts a fresh
//! worker set — queries fold sealed generations with the live shards, so
//! estimates cover the whole stream at monotone epochs, and the final
//! merged view is *identical* to an unsharded run (sum-merge rows).
//!
//! [`LoadMonitor`]: salsa_pipeline::LoadMonitor
//! [`Threshold`]: salsa_pipeline::Threshold

use std::time::Duration;

use salsa_pipeline::{LoadMonitor, PipelineConfig, ShardedPipeline, Threshold};
use salsa_sketches::prelude::*;
use salsa_workloads::TraceSpec;

fn main() {
    let universe = 50_000;
    let items = TraceSpec::Zipf {
        universe,
        skew: 1.0,
    }
    .generate(400_000, 2026)
    .items()
    .to_vec();

    let make = |_shard: usize| CountMin::salsa(4, 1 << 15, 8, MergeOp::Sum, 7);
    let mut pipeline = ShardedPipeline::new(&PipelineConfig::new(1), make);
    let handle = pipeline.live_handle();
    let mut monitor = LoadMonitor::new();
    let gauges = std::sync::Arc::clone(monitor.gauges());
    // Grow on a sustained two-batch backlog, shrink below 20% utilization.
    let mut policy = Threshold::new(1, 4, 2 * PipelineConfig::DEFAULT_BATCH_SIZE as u64, 0.2);

    // A query thread that never stops: across every rescale it sees
    // monotone epochs and whole-stream estimates.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let querier = {
        let handle = handle.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut served = 0u32;
            let mut last_epoch = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let Ok(view) = handle.snapshot() else { break };
                assert!(view.epoch() >= last_epoch, "epochs must be monotone");
                last_epoch = view.epoch();
                served += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            served
        })
    };

    println!("phase      tick  shards  queue_depth  utilization  decision");
    for (phase, burst) in [(1, true), (2, false), (3, true), (4, false)] {
        for tick in 0..12 {
            if burst {
                // Burst: a quarter of the trace at full speed per tick.
                pipeline.extend(&items[..items.len() / 4]);
            } else {
                // Idle: a trickle, with real time passing.
                std::thread::sleep(Duration::from_millis(15));
                pipeline.extend(&items[..256]);
                pipeline.drain();
            }
            let event = pipeline.autoscale(&mut monitor, &mut policy);
            let decision = match event {
                Some(e) => format!(
                    "rescale {} -> {} ({:?})",
                    e.from_shards, e.to_shards, e.pause
                ),
                None => "-".to_string(),
            };
            println!(
                "phase {phase}   {tick:>4}  {:>6}  {:>11.0}  {:>11.2}  {decision}",
                pipeline.shards(),
                gauges.max_queue_depth.get(),
                gauges.utilization.get(),
            );
        }
    }

    stop.store(true, std::sync::atomic::Ordering::Release);
    let final_epoch = pipeline.drain();
    let final_view = pipeline
        .snapshot()
        .expect("a healthy pipeline serves views");
    assert_eq!(final_view.epoch(), final_epoch);
    let out = pipeline.finish();
    let served = querier.join().expect("query thread panicked");

    println!("\nrescales: {}", out.rescales());
    for event in &out.events {
        println!(
            "  epoch {:>8}: {} -> {} shards, paused {:?}",
            event.epoch, event.from_shards, event.to_shards, event.pause
        );
    }
    println!(
        "shard counts over time: {:?}",
        std::iter::once(1)
            .chain(out.events.iter().map(|e| e.to_shards))
            .collect::<Vec<_>>()
    );
    println!("queries served across rescales: {served}");
    println!("final epoch {final_epoch} == items {}", out.items);

    // Exactness: the elastic run's merged view equals an unsharded sketch
    // fed the identical stream.
    let mut single = make(0);
    let per_burst = items.len() / 4;
    for _ in 0..24 {
        single.update_batch(&items[..per_burst]);
    }
    for _ in 0..24 {
        single.update_batch(&items[..256]);
    }
    let diff = (0..universe as u64)
        .map(|item| {
            FrequencyQueries::estimate(&out.merged, item)
                .abs_diff(FrequencyQueries::estimate(&single, item))
        })
        .max()
        .unwrap_or(0);
    println!("max |elastic − unsharded| over all keys: {diff} (sum-merge is lossless)");
    assert_eq!(final_epoch, out.items);
    assert_eq!(diff, 0);
}
