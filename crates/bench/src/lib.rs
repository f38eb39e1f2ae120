//! # salsa-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation; README "Regenerating a
//! paper figure" says how to run them.  No record of the paper's numbers
//! against the measured ones exists yet: the binaries print CSV, and
//! nothing asserts a figure's claim (ROADMAP, "The paper's claims as
//! deterministic tests").
//!
//! Every binary prints CSV to stdout (one row per plotted point) and accepts
//! the same flags:
//!
//! * `--updates N` — stream length per trial (defaults are scaled down from
//!   the paper's 98 M so the whole suite runs on a laptop);
//! * `--trials T` — number of trials per point (the paper uses 10);
//! * `--seed S` — master seed;
//! * `--quick` — an extra-small configuration for smoke tests;
//! * `--json PATH` — where the perf-snapshot binaries (`fig_pipeline_*`,
//!   `fig_live_query`, `fig_elastic`, `fig_faults`, `fig_serve`) write
//!   their JSON snapshot; the paper figures write none.
//!
//! `--help` prints the usage and exits 0; an unknown flag or a value that
//! does not parse prints it to stderr and exits 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod harness;
pub mod json;

pub use builders::*;
pub use harness::*;

/// Command-line arguments shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Stream length per trial.
    pub updates: usize,
    /// Number of trials per data point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Whether `--quick` was passed.
    pub quick: bool,
    /// `--json PATH`: where the perf-snapshot binaries write their JSON
    /// snapshot.
    pub json: Option<String>,
}

/// Why a command line did not yield [`Args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` or `-h` was passed.
    Help,
    /// An unknown flag, a missing value or one that does not parse.
    Invalid(String),
}

impl Args {
    /// Parses `std::env::args`, using `default_updates` / `default_trials`
    /// when the flags are absent.  On `--help` prints the usage and exits
    /// 0; on any other error prints it to stderr and exits 2.
    pub fn parse(default_updates: usize, default_trials: usize) -> Self {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        let argv: Vec<String> = argv.collect();
        let usage = format!(
            "usage: {program} [--updates N (default {default_updates})] [--trials T (default \
             {default_trials})] [--seed S (default 42)] [--quick] [--json PATH]"
        );
        match Self::from_argv(&argv, default_updates, default_trials) {
            Ok(args) => args,
            Err(ArgsError::Help) => {
                println!("{usage}");
                std::process::exit(0)
            }
            Err(ArgsError::Invalid(message)) => {
                eprintln!("{message}\n{usage}");
                std::process::exit(2)
            }
        }
    }

    /// Parses `argv` (without the program name).  Flags apply in order:
    /// `--quick` caps the updates at 100,000 and sets one trial, so an
    /// `--updates` or `--trials` after it overrides it.
    pub fn from_argv(
        argv: &[String],
        default_updates: usize,
        default_trials: usize,
    ) -> Result<Self, ArgsError> {
        let mut args = Self {
            updates: default_updates,
            trials: default_trials,
            seed: 42,
            quick: false,
            json: None,
        };
        let mut argv = argv.iter();
        while let Some(flag) = argv.next() {
            let mut value = || {
                argv.next()
                    .ok_or_else(|| ArgsError::Invalid(format!("{flag} needs a value")))
            };
            match flag.as_str() {
                "--updates" => args.updates = number(flag, value()?)?,
                "--trials" => args.trials = number(flag, value()?)?,
                "--seed" => args.seed = number(flag, value()?)?,
                "--json" => args.json = Some(value()?.clone()),
                "--quick" => {
                    args.quick = true;
                    args.updates = args.updates.min(100_000);
                    args.trials = 1;
                }
                "--help" | "-h" => return Err(ArgsError::Help),
                _ => return Err(ArgsError::Invalid(format!("unknown flag {flag}"))),
            }
        }
        Ok(args)
    }
}

/// Parses the value of a numeric flag.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ArgsError> {
    value
        .parse()
        .map_err(|_| ArgsError::Invalid(format!("{flag}: not a number: {value}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, ArgsError> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::from_argv(&argv, 1_000_000, 3)
    }

    #[test]
    fn defaults_apply_without_flags() {
        let args = parse(&[]).unwrap();
        assert_eq!((args.updates, args.trials, args.seed), (1_000_000, 3, 42));
        assert!(!args.quick);
        assert_eq!(args.json, None);
    }

    #[test]
    fn flags_apply_in_order() {
        let args = parse(&["--quick", "--updates", "20000", "--trials", "2"]).unwrap();
        assert_eq!((args.updates, args.trials), (20_000, 2));
        assert!(args.quick);
        let args = parse(&["--updates", "5000000", "--quick", "--seed", "7"]).unwrap();
        assert_eq!((args.updates, args.trials, args.seed), (100_000, 1, 7));
    }

    #[test]
    fn json_path_is_a_field() {
        let args = parse(&["--json", "BENCH.json", "--quick"]).unwrap();
        assert_eq!(args.json.as_deref(), Some("BENCH.json"));
    }

    #[test]
    fn help_is_not_a_run() {
        assert_eq!(parse(&["--help"]), Err(ArgsError::Help));
        assert_eq!(parse(&["--quick", "-h"]), Err(ArgsError::Help));
    }

    #[test]
    fn unknown_flags_and_bad_values_are_errors() {
        for argv in [
            &["--update", "5000"][..],
            &["--updates", "5k"],
            &["--updates"],
            &["--seed", "-1"],
            &["--json"],
            &["quick"],
        ] {
            assert!(
                matches!(parse(argv), Err(ArgsError::Invalid(_))),
                "{argv:?} parsed"
            );
        }
    }
}
