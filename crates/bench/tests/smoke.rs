//! Smoke tests: every `fig*` experiment binary must run in its quick
//! configuration, exit successfully, and emit CSV with a header row.
//!
//! This keeps the figure harness from bit-rotting: `cargo test` exercises
//! each binary end-to-end with `--quick --updates 1000 --trials 1`.

use std::process::Command;

/// `(name, path)` for every experiment binary in this package, resolved at
/// compile time so the test fails to build if a binary is renamed.
const BINARIES: &[(&str, &str)] = &[
    (
        "fig04_counter_sizes",
        env!("CARGO_BIN_EXE_fig04_counter_sizes"),
    ),
    ("fig05_merge_ops", env!("CARGO_BIN_EXE_fig05_merge_ops")),
    (
        "fig06_small_counters",
        env!("CARGO_BIN_EXE_fig06_small_counters"),
    ),
    ("fig07_tango", env!("CARGO_BIN_EXE_fig07_tango")),
    ("fig08_competitors", env!("CARGO_BIN_EXE_fig08_competitors")),
    (
        "fig09_error_distribution",
        env!("CARGO_BIN_EXE_fig09_error_distribution"),
    ),
    ("fig10_l1_sketches", env!("CARGO_BIN_EXE_fig10_l1_sketches")),
    (
        "fig11_count_sketch",
        env!("CARGO_BIN_EXE_fig11_count_sketch"),
    ),
    ("fig12_univmon", env!("CARGO_BIN_EXE_fig12_univmon")),
    ("fig13_cold_filter", env!("CARGO_BIN_EXE_fig13_cold_filter")),
    ("fig14_distinct_hh", env!("CARGO_BIN_EXE_fig14_distinct_hh")),
    ("fig15_topk_change", env!("CARGO_BIN_EXE_fig15_topk_change")),
    ("fig16_estimators", env!("CARGO_BIN_EXE_fig16_estimators")),
    ("fig17_split", env!("CARGO_BIN_EXE_fig17_split")),
    (
        "fig19_20_small_counters_appendix",
        env!("CARGO_BIN_EXE_fig19_20_small_counters_appendix"),
    ),
    (
        "fig_pipeline_scaling",
        env!("CARGO_BIN_EXE_fig_pipeline_scaling"),
    ),
    (
        "fig_pipeline_univmon",
        env!("CARGO_BIN_EXE_fig_pipeline_univmon"),
    ),
    ("fig_live_query", env!("CARGO_BIN_EXE_fig_live_query")),
    ("fig_elastic", env!("CARGO_BIN_EXE_fig_elastic")),
    ("fig_faults", env!("CARGO_BIN_EXE_fig_faults")),
    ("fig_serve", env!("CARGO_BIN_EXE_fig_serve")),
];

#[test]
fn every_figure_binary_runs_quick_and_emits_csv() {
    for (name, path) in BINARIES {
        let output = Command::new(path)
            .args(["--quick", "--updates", "1000", "--trials", "1"])
            .output()
            .unwrap_or_else(|e| panic!("{name}: failed to spawn: {e}"));
        assert!(
            output.status.success(),
            "{name}: exited with {:?}\nstderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines();
        let header = lines
            .next()
            .unwrap_or_else(|| panic!("{name}: no output at all"));
        // A CSV header row: at least two comma-separated column names, each
        // starting with a letter (data rows start fields with digits/signs).
        let fields: Vec<&str> = header.split(',').collect();
        assert!(
            fields.len() >= 2
                && fields
                    .iter()
                    .all(|f| f.chars().next().is_some_and(|c| c.is_ascii_alphabetic())),
            "{name}: first line does not look like a CSV header: {header:?}"
        );
        let data_rows = lines.filter(|l| !l.trim().is_empty()).count();
        assert!(data_rows > 0, "{name}: header but no data rows");
    }
}
