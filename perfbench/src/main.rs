//! The repository's benchmark: seeded `ingest` and `query` workloads run
//! against the unmodified pipeline and query server through their public
//! APIs.
//!
//! ```text
//! salsa-perfbench --workload <ingest|query> --seed <n> --seconds <s> --trace <0|1> [--trace-out <dir>]
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding every end-to-end metric; with `--trace 1` it holds every
//! per-layer metric, and the lines before it report the traced run's own
//! end-to-end numbers, so the tracing overhead shows.  `--trace-out` names
//! a directory for the traced run's spans (one TSV file per run).
//! See `README.md` for the metrics and what each should move.

mod alloc;
mod bench;
mod client;
mod cpu;
mod replay;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use salsa_core::row::SimpleSalsaRow;
use salsa_core::traits::MergeOp;
use salsa_sketches::cms::CountMin;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The sketch under test: SALSA CMS, 4 rows of 2^16 8-bit base counters.
pub type Cms = CountMin<SimpleSalsaRow>;
pub const DEPTH: usize = 4;
pub const WIDTH: usize = 1 << 16;
pub const BASE_BITS: u32 = 8;

/// A fresh sketch under test; every shard and the reference use the same
/// seed, so their counters line up.
pub fn sketch(seed: u64) -> Cms {
    CountMin::salsa(DEPTH, WIDTH, BASE_BITS, MergeOp::Sum, seed)
}

/// One reported number.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workload: bench::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    bench::Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// A JSON number with every digit Rust prints for the `f64`; non-finite
/// values (which JSON cannot carry) become 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("salsa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = bench::run(args.workload, args.seed, args.seconds, args.trace);
    println!(
        "# workload {:?}, seed {}, {} s, trace {}, {} threads available",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.failures {
        println!("# FAILED: {failure}");
    }
    let label = if args.trace {
        "traced end-to-end"
    } else {
        "end-to-end"
    };
    for m in &outcome.end_to_end {
        println!("# {label} {:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.layers {
        println!("# per-layer {:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        if let Some(dir) = &args.trace_out {
            let path =
                dir.join(format!("{:?}-seed{}.tsv", args.workload, args.seed).to_lowercase());
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| trace::write_tsv(&path, &trace::spans()));
            match written {
                Ok(()) => println!("# spans written to {}", path.display()),
                Err(e) => eprintln!("salsa-perfbench: writing {}: {e}", path.display()),
            }
        }
    }
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
