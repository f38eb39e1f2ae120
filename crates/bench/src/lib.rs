//! # salsa-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation (see `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results).
//!
//! Every binary prints CSV to stdout (one row per plotted point) and accepts
//! the same flags:
//!
//! * `--updates N` — stream length per trial (defaults are scaled down from
//!   the paper's 98 M so the whole suite runs on a laptop);
//! * `--trials T` — number of trials per point (the paper uses 10);
//! * `--seed S` — master seed;
//! * `--quick` — an extra-small configuration for smoke tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod harness;
pub mod json;

pub use builders::*;
pub use harness::*;

/// Command-line arguments shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Stream length per trial.
    pub updates: usize,
    /// Number of trials per data point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Whether `--quick` was passed.
    pub quick: bool,
}

impl Args {
    /// Parses `std::env::args`, using `default_updates` / `default_trials`
    /// when the flags are absent.
    pub fn parse(default_updates: usize, default_trials: usize) -> Self {
        let argv: Vec<String> = std::env::args().collect();
        let mut args = Self {
            updates: default_updates,
            trials: default_trials,
            seed: 42,
            quick: false,
        };
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--updates" => {
                    args.updates = argv
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(args.updates);
                    i += 1;
                }
                "--trials" => {
                    args.trials = argv
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(args.trials);
                    i += 1;
                }
                "--seed" => {
                    args.seed = argv
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(args.seed);
                    i += 1;
                }
                "--quick" => {
                    args.quick = true;
                    args.updates = args.updates.min(100_000);
                    args.trials = 1;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --updates N (default {default_updates})  --trials T (default {default_trials})  --seed S  --quick"
                    );
                }
                _ => {}
            }
            i += 1;
        }
        args
    }
}
