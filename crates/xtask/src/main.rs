//! Repository automation: `cargo run -p xtask -- lint` runs **salsa-lint**,
//! a hand-rolled invariant pass over the workspace sources (no `syn`, no
//! dependencies — a line/token scanner is enough for the invariants below
//! and keeps the tool building offline).
//!
//! Enforced invariants:
//!
//! 1. **`unsafe` needs a proof** — every occurrence of the `unsafe` keyword
//!    must have a `// SAFETY:` comment within the three preceding lines
//!    (all scanned files).
//! 2. **Crates declare their unsafety** — every `crates/*/src/lib.rs` must
//!    carry `#![forbid(unsafe_code)]`, with one named exception:
//!    `crates/hash/src/lib.rs` may carry `#![deny(unsafe_code)]` instead,
//!    because its AVX2 lane kernel needs one `unsafe` call (a safe
//!    `#[target_feature]` function called after run-time detection).  The
//!    exception is capped: one lint run accepts exactly one attribute that
//!    loosens `unsafe_code` (`allow`, `expect` or `warn`, as in
//!    `#[allow(unsafe_code)]`), and only under `crates/hash/src`; one
//!    anywhere else, or a second one there, is a finding (all scanned
//!    files, test modules included).
//! 3. **No bare `Ordering::Relaxed` on protocol state** — in the
//!    concurrency-bearing crates (`pipeline`, `metrics`, `serve`), a
//!    `Relaxed` access must carry a `// RELAXED-OK:` proof of why no
//!    ordering is needed; everything else uses Acquire/Release or stronger.
//! 4. **No unproven panics or stray prints in library code** — in
//!    `pipeline`, `metrics`, `serve`, and `core`, `.unwrap()` / `.expect(` need a
//!    `// PANIC-OK:` justification, and `println!` / `print!` /
//!    `eprintln!` / `dbg!` are banned outright (library crates must not
//!    write to stdio).
//! 5. **Snapshots are `#[must_use]`** — a `pub fn` in `crates/pipeline/src`
//!    whose return type mentions `SnapshotView` must be `#[must_use]`
//!    (assembling one clones every shard's sketch).
//! 6. **Deprecations name their replacement** — every `#[deprecated]`
//!    attribute must carry `note = "…"` whose text names the replacement
//!    in backticks, so `cargo`'s deprecation warning tells the user where
//!    to go instead of just "don't" (all scanned files).
//! 7. **Caught panics need a proof** — every `catch_unwind(` call site
//!    must have a `// UNWIND-OK:` comment within the three preceding
//!    lines explaining why swallowing the panic is sound (what invariant
//!    survives the unwind, and where the failure is re-surfaced).  Applies
//!    to all scanned files: a silently eaten panic is as dangerous in a
//!    test harness as in library code.
//! 8. **Hot paths justify their allocations** — in the zero-allocation
//!    hot-path modules (`snapshot.rs`, `live.rs`, the serve path's view
//!    cache `coalesce.rs`, the `merge.rs` merge impls, the `summary.rs`
//!    merge/copy defaults, and the ingest row modules `row.rs`,
//!    `bitmap.rs` and `compact.rs` under `crates/*/src`), an allocating
//!    construct (`Vec::new(`, `vec![`, `.to_vec(`, `.clone()`) must carry
//!    a `// ALLOC-OK:` justification within the three preceding lines.
//!    These modules back the steady-state query/merge/ingest path, which
//!    is supposed to reuse buffers (`copy_from` / `merge_with_helper` /
//!    `reset`) — an unjustified allocation there is a regression waiting
//!    for the alloc gate.
//!
//! `#[cfg(test)]` modules are skipped (rules 3–6 and 8; rules 1 and 7
//! apply everywhere).  In tree mode (no file arguments) only
//! `crates/*/src` is scanned and the per-crate scopes above apply; with
//! explicit file arguments every rule is applied to every named file,
//! which is what the fixture self-tests use.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation, printed as `file:line: [rule] message`.
#[derive(Debug)]
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

/// Which path-scoped rules apply to a file.
#[derive(Debug, Clone, Copy)]
struct Scope {
    /// Rule 3: `Ordering::Relaxed` needs `// RELAXED-OK:`.
    relaxed: bool,
    /// Rule 4: panics need `// PANIC-OK:`, stdio macros are banned.
    panics: bool,
    /// Rule 5: snapshot-returning `pub fn` needs `#[must_use]`.
    must_use: bool,
    /// Rule 2: this file is a crate root that must forbid unsafe code.
    crate_root: bool,
    /// Rule 2: this file belongs to `crates/hash/src`, the one crate that
    /// may deny (not forbid) unsafe code and hold the one allowed site.
    unsafe_exception: bool,
    /// Rule 8: allocating constructs need `// ALLOC-OK:`.
    hot_path_alloc: bool,
}

impl Scope {
    /// Every rule on: the strict mode used for explicit file arguments.
    fn strict(path: &Path) -> Self {
        Self {
            relaxed: true,
            panics: true,
            must_use: true,
            crate_root: path.file_name().is_some_and(|n| n == "lib.rs"),
            unsafe_exception: in_unsafe_exception(path),
            hot_path_alloc: true,
        }
    }

    /// Tree-mode scope, derived from the workspace-relative path.
    fn for_tree_path(path: &Path) -> Self {
        let normalized = path.to_string_lossy().replace('\\', "/");
        let in_crate = |name: &str| normalized.contains(&format!("crates/{name}/src/"));
        let hot_module = [
            "/snapshot.rs",
            "/live.rs",
            "/coalesce.rs",
            "/merge.rs",
            "/summary.rs",
            "/row.rs",
            "/bitmap.rs",
            "/compact.rs",
        ]
        .iter()
        .any(|name| normalized.ends_with(name));
        Self {
            relaxed: in_crate("pipeline") || in_crate("metrics") || in_crate("serve"),
            panics: in_crate("pipeline")
                || in_crate("metrics")
                || in_crate("serve")
                || in_crate("core"),
            must_use: in_crate("pipeline"),
            crate_root: normalized.contains("crates/") && normalized.ends_with("/src/lib.rs"),
            unsafe_exception: in_unsafe_exception(path),
            hot_path_alloc: normalized.contains("crates/") && hot_module,
        }
    }
}

/// Rule 2's one exception: sources under `crates/hash/src` (in both modes,
/// so a fixture reproduces it by mirroring that path).
fn in_unsafe_exception(path: &Path) -> bool {
    path.to_string_lossy()
        .replace('\\', "/")
        .contains("crates/hash/src/")
}

/// Rule 2's cap: `#[allow(unsafe_code)]` sites one lint run accepts, all
/// of them under `crates/hash/src`.
const UNSAFE_ALLOW_CAP: usize = 1;

/// Rule 2: the lint level a line sets on `unsafe_code` if that level lets
/// unsafe code compile — `allow`, `expect` (an allow that also demands a
/// use) or `warn` — so each spelling counts as one site toward the cap.
fn unsafe_code_opened(code: &str) -> Option<&'static str> {
    if !has_token(code, "unsafe_code") {
        return None;
    }
    ["allow", "expect", "warn"]
        .into_iter()
        .find(|level| code.contains(&format!("{level}(")))
}

/// The `unsafe` keyword, assembled so the scanner's own source never
/// contains the contiguous token (the tree scan includes this file).
fn unsafe_keyword() -> &'static str {
    concat!("un", "safe")
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `text` contains `token` delimited by non-word bytes — i.e. as a
/// standalone keyword/macro, not as a fragment of a longer identifier
/// (`unsafe_code` for rule 1, `eprintln!` vs `println!` for rule 4).
fn has_token(text: &str, token: &str) -> bool {
    let t = text.as_bytes();
    let k = token.as_bytes();
    if k.is_empty() || t.len() < k.len() {
        return false;
    }
    for p in 0..=t.len() - k.len() {
        if &t[p..p + k.len()] == k {
            let before_ok = p == 0 || !is_word_byte(t[p - 1]);
            let after = p + k.len();
            let after_ok = after >= t.len() || !is_word_byte(t[after]);
            if before_ok && after_ok {
                return true;
            }
        }
    }
    false
}

/// Removes string-literal contents and line comments, so token rules don't
/// fire on text inside `"…"` or after `//`.  (Char literals and raw
/// strings are not handled — good enough for this workspace's style.)
fn strip_code(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_string = false;
    while let Some(ch) = chars.next() {
        if in_string {
            match ch {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_string = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => {
                in_string = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(ch),
        }
    }
    out
}

/// Marks every line that belongs to a `#[cfg(test)]`-gated item, by brace
/// counting from the attribute to the item's closing brace.
fn test_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !strip_code(lines[i]).contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            mask[j] = true;
            for ch in strip_code(lines[j]).chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// Whether line `idx` or any of the three raw lines above it carries the
/// annotation marker (markers live in comments, so raw lines are checked).
fn has_annotation(lines: &[&str], idx: usize, marker: &str) -> bool {
    let start = idx.saturating_sub(3);
    lines[start..=idx].iter().any(|line| line.contains(marker))
}

/// Scans one file's source and appends findings.  `unsafe_allows` counts
/// the `#[allow(unsafe_code)]` sites the run has accepted so far (rule 2's
/// cap spans files).
fn scan_source(
    path_label: &str,
    source: &str,
    scope: Scope,
    findings: &mut Vec<Finding>,
    unsafe_allows: &mut usize,
) {
    let lines: Vec<&str> = source.lines().collect();
    let mask = test_mask(&lines);
    let mut push = |line: usize, rule: &'static str, message: String| {
        findings.push(Finding {
            file: path_label.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };

    if scope.crate_root && !source.contains("#![forbid(unsafe_code)]") {
        let denies = source.contains("#![deny(unsafe_code)]");
        if !(denies && scope.unsafe_exception) {
            let message = if denies {
                "#![deny(unsafe_code)] is reserved for crates/hash/src/lib.rs; \
                 declare #![forbid(unsafe_code)]"
            } else {
                "crate root must declare #![forbid(unsafe_code)]"
            };
            push(0, "forbid-unsafe", message.to_string());
        }
    }

    for (idx, raw) in lines.iter().enumerate() {
        let code = strip_code(raw);
        // Rule 2's allow sites count everywhere, test modules included.
        if let Some(level) = unsafe_code_opened(&code) {
            if !scope.unsafe_exception {
                push(
                    idx,
                    "unsafe-allow",
                    format!("{level}(unsafe_code) outside crates/hash/src"),
                );
            } else {
                *unsafe_allows += 1;
                if *unsafe_allows > UNSAFE_ALLOW_CAP {
                    push(
                        idx,
                        "unsafe-allow",
                        format!(
                            "{level}(unsafe_code) is site {} of at most {UNSAFE_ALLOW_CAP} \
                             in crates/hash/src",
                            *unsafe_allows
                        ),
                    );
                }
            }
        }
        // Rule 1 applies even inside test modules: a test's soundness
        // argument is as load-bearing as a library's.
        if has_token(&code, unsafe_keyword()) && !has_annotation(&lines, idx, "// SAFETY:") {
            push(
                idx,
                "safety-comment",
                format!("`{}` without a // SAFETY: comment", unsafe_keyword()),
            );
        }
        // Rule 7 also applies everywhere (call sites only — `use` imports
        // don't swallow anything): a caught panic needs the same kind of
        // proof as an `unsafe` block, wherever it lives.
        if code.contains("catch_unwind(") && !has_annotation(&lines, idx, "// UNWIND-OK:") {
            push(
                idx,
                "unproven-unwind",
                "catch_unwind( without a // UNWIND-OK: justification".to_string(),
            );
        }
        if mask[idx] {
            continue;
        }
        // Rule 6 is scope-free: a replacement-less deprecation is equally
        // unhelpful wherever it lives.
        if has_token(&code, "deprecated") && code.contains("#[deprecated") {
            if let Some(message) = check_deprecated_note(&lines, idx) {
                push(idx, "deprecated-note", message);
            }
        }
        if scope.relaxed
            && code.contains("Ordering::Relaxed")
            && !has_annotation(&lines, idx, "// RELAXED-OK:")
        {
            push(
                idx,
                "bare-relaxed",
                "Ordering::Relaxed without a // RELAXED-OK: proof".to_string(),
            );
        }
        if scope.panics {
            for needle in [".unwrap()", ".expect("] {
                if code.contains(needle) && !has_annotation(&lines, idx, "// PANIC-OK:") {
                    push(
                        idx,
                        "unproven-panic",
                        format!("{needle} without a // PANIC-OK: justification"),
                    );
                }
            }
            for banned in ["println!", "print!", "eprintln!", "eprint!", "dbg!"] {
                if has_token(&code, banned) {
                    push(idx, "stdio-in-library", format!("{banned} in library code"));
                }
            }
        }
        if scope.hot_path_alloc {
            for needle in ["Vec::new(", "vec![", ".to_vec(", ".clone()"] {
                if code.contains(needle) && !has_annotation(&lines, idx, "// ALLOC-OK:") {
                    push(
                        idx,
                        "hot-path-alloc",
                        format!(
                            "{needle} in a hot-path module without an // ALLOC-OK: justification"
                        ),
                    );
                }
            }
        }
        if scope.must_use && code.contains("pub fn") {
            // Join the signature until its body/terminator to catch
            // multi-line return types.
            let mut signature = String::new();
            for sig_line in lines.iter().skip(idx).take(8) {
                let sig_code = strip_code(sig_line);
                signature.push_str(&sig_code);
                signature.push(' ');
                if sig_code.contains('{') || sig_code.contains(';') {
                    break;
                }
            }
            let returns_snapshot = signature
                .split_once("->")
                .is_some_and(|(_, ret)| ret.contains("SnapshotView"));
            if returns_snapshot && !preceded_by_must_use(&lines, idx) {
                push(
                    idx,
                    "snapshot-must-use",
                    "pub fn returning SnapshotView without #[must_use]".to_string(),
                );
            }
        }
    }
}

/// Rule 6: joins the `#[deprecated…]` attribute starting at `idx` (up to
/// four raw lines, until its closing `]`) and checks it carries a
/// `note = "…"` whose text is non-empty and names the replacement in
/// backticks.  Returns the violation message, or `None` when compliant.
fn check_deprecated_note(lines: &[&str], idx: usize) -> Option<String> {
    let mut attr = String::new();
    for raw in lines.iter().skip(idx).take(4) {
        attr.push_str(raw);
        attr.push(' ');
        if raw.contains(']') {
            break;
        }
    }
    let after_note = match attr.split_once("note") {
        Some((_, rest)) => rest,
        None => return Some("#[deprecated] without a note = \"…\" naming the replacement".into()),
    };
    let quoted = after_note
        .split_once('"')
        .and_then(|(_, rest)| rest.split_once('"'))
        .map(|(text, _)| text)
        .unwrap_or("");
    if quoted.trim().is_empty() {
        Some("#[deprecated] note must not be empty".into())
    } else if !quoted.contains('`') {
        Some("#[deprecated] note must name the replacement in `backticks`".into())
    } else {
        None
    }
}

/// Walks backwards over the attribute/doc lines directly above a `fn` and
/// reports whether one of them is `#[must_use…]`.
fn preceded_by_must_use(lines: &[&str], fn_idx: usize) -> bool {
    for idx in (0..fn_idx).rev() {
        let trimmed = lines[idx].trim_start();
        if trimmed.starts_with("#[") || trimmed.starts_with("//") {
            if trimmed.starts_with("#[must_use") {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

/// Directories never scanned in tree mode: build output, vendored stand-ins
/// (external idiom, not ours to lint), and the lint's own bad-on-purpose
/// fixtures.
const SKIPPED_DIRS: [&str; 3] = ["target", "vendor", "fixtures"];

fn collect_tree_files(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if SKIPPED_DIRS.iter().any(|skip| name == *skip) {
                continue;
            }
            collect_tree_files(&path, files)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let normalized = path.to_string_lossy().replace('\\', "/");
            // Library sources only: integration tests and benches make
            // their own rules.
            if normalized.contains("/src/") {
                files.push(path);
            }
        }
    }
    Ok(())
}

/// Lints every library source under `<workspace>/crates`.
fn lint_tree(workspace: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    collect_tree_files(&workspace.join("crates"), &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let mut unsafe_allows = 0;
    for path in &files {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let label = path
            .strip_prefix(workspace)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let scope = Scope::for_tree_path(path);
        scan_source(&label, &source, scope, &mut findings, &mut unsafe_allows);
    }
    Ok(findings)
}

/// Lints explicitly named files with every rule enabled.
fn lint_files(paths: &[String]) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let mut unsafe_allows = 0;
    for raw in paths {
        let path = Path::new(raw);
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let scope = Scope::strict(path);
        scan_source(raw, &source, scope, &mut findings, &mut unsafe_allows);
    }
    Ok(findings)
}

fn workspace_root() -> PathBuf {
    // xtask always lives at <workspace>/crates/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("lint") {
        eprintln!("usage: cargo run -p xtask -- lint [files...]");
        eprintln!("  no files: lint every library source under crates/");
        eprintln!("  with files: apply every rule to each named file");
        return ExitCode::from(2);
    }
    let result = if args.len() > 1 {
        lint_files(&args[1..])
    } else {
        lint_tree(&workspace_root())
    };
    let findings = match result {
        Ok(findings) => findings,
        Err(message) => {
            eprintln!("salsa-lint: {message}");
            return ExitCode::from(2);
        }
    };
    for finding in &findings {
        eprintln!(
            "{}:{}: [{}] {}",
            finding.file, finding.line, finding.rule, finding.message
        );
    }
    if findings.is_empty() {
        eprintln!("salsa-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("salsa-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(rel: &str) -> String {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(rel)
            .to_string_lossy()
            .into_owned()
    }

    fn strict_findings(rel: &str) -> Vec<Finding> {
        lint_files(&[fixture(rel)]).expect("fixture must be readable")
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn bad_fixtures_each_trip_their_rule() {
        assert!(rules(&strict_findings("bad/unsafe_no_safety.rs")).contains(&"safety-comment"));
        assert!(rules(&strict_findings("bad/missing_forbid/lib.rs")).contains(&"forbid-unsafe"));
        assert!(rules(&strict_findings("bad/bare_relaxed.rs")).contains(&"bare-relaxed"));
        let panics = strict_findings("bad/panics.rs");
        assert!(rules(&panics).contains(&"unproven-panic"));
        assert!(rules(&panics).contains(&"stdio-in-library"));
        assert!(
            rules(&strict_findings("bad/snapshot_no_must_use.rs")).contains(&"snapshot-must-use")
        );
        assert_eq!(
            rules(&strict_findings("bad/catch_unwind_no_comment.rs")),
            vec!["unproven-unwind"],
            "exactly the call site trips, nothing else"
        );
        let deprecated = strict_findings("bad/deprecated_no_note.rs");
        assert_eq!(
            rules(&deprecated),
            vec!["deprecated-note"; 3],
            "bare, empty-note and vague-note deprecations each trip: {deprecated:?}"
        );
        let allocs = strict_findings("bad/hot_path_alloc.rs");
        assert_eq!(
            rules(&allocs),
            vec!["hot-path-alloc"; 4],
            "Vec::new, vec!, to_vec and clone each trip: {allocs:?}"
        );
        let second_allow = strict_findings("bad/second_unsafe_allow/crates/hash/src/lib.rs");
        assert_eq!(
            rules(&second_allow),
            vec!["unsafe-allow"],
            "only the second allow site trips; the deny root is the exception: {second_allow:?}"
        );
        assert_eq!(second_allow[0].line, 16, "{second_allow:?}");
        let second_expect = strict_findings("bad/second_unsafe_expect/crates/hash/src/lib.rs");
        assert_eq!(
            rules(&second_expect),
            vec!["unsafe-allow"],
            "an expect site counts toward the cap like an allow: {second_expect:?}"
        );
        assert_eq!(second_expect[0].line, 16, "{second_expect:?}");
        let deny_elsewhere = strict_findings("bad/deny_outside_hash/lib.rs");
        assert_eq!(
            rules(&deny_elsewhere),
            vec!["forbid-unsafe"],
            "deny is no substitute for forbid outside crates/hash: {deny_elsewhere:?}"
        );
    }

    #[test]
    fn good_fixtures_are_clean() {
        for rel in [
            "good/lib.rs",
            "good/unsafe_ok.rs",
            "good/test_mod.rs",
            "good/deprecated_note.rs",
            "good/catch_unwind_ok.rs",
            "good/hot_path_alloc_ok.rs",
            "good/audited_unsafe/crates/hash/src/lib.rs",
        ] {
            let findings = strict_findings(rel);
            assert!(findings.is_empty(), "{rel}: {findings:?}");
        }
    }

    #[test]
    fn tree_scan_of_this_workspace_is_clean() {
        let findings = lint_tree(&workspace_root()).expect("workspace must be readable");
        assert!(
            findings.is_empty(),
            "the tree must lint clean: {findings:#?}"
        );
    }

    #[test]
    fn hot_path_scope_covers_the_ingest_row_modules() {
        for file in [
            "row.rs",
            "bitmap.rs",
            "compact.rs",
            "snapshot.rs",
            "live.rs",
        ] {
            let path = PathBuf::from(format!("crates/core/src/{file}"));
            assert!(Scope::for_tree_path(&path).hot_path_alloc, "{file}");
        }
        assert!(!Scope::for_tree_path(Path::new("crates/core/src/tango.rs")).hot_path_alloc);
    }

    #[test]
    fn hot_path_scope_covers_the_view_cache() {
        let path = Path::new("crates/serve/src/coalesce.rs");
        assert!(Scope::for_tree_path(path).hot_path_alloc);
        assert!(!Scope::for_tree_path(Path::new("crates/serve/src/server.rs")).hot_path_alloc);
    }

    /// Runs rule 2 over `(path, source)` files in one run, in tree scope.
    fn tree_findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let mut findings = Vec::new();
        let mut unsafe_allows = 0;
        for (path, source) in files {
            let scope = Scope::for_tree_path(Path::new(path));
            scan_source(path, source, scope, &mut findings, &mut unsafe_allows);
        }
        findings
    }

    #[test]
    fn unsafe_allow_cap_spans_files_and_names_one_crate() {
        let allow = "#[allow(unsafe_code)]\nfn f() {}\n";
        let one = tree_findings(&[("crates/hash/src/lanes.rs", allow)]);
        assert!(one.is_empty(), "{one:?}");
        let two = tree_findings(&[
            ("crates/hash/src/lanes.rs", allow),
            ("crates/hash/src/bob.rs", allow),
        ]);
        assert_eq!(rules(&two), vec!["unsafe-allow"], "{two:?}");
        assert_eq!(two[0].file, "crates/hash/src/bob.rs");
        let elsewhere = tree_findings(&[("crates/core/src/row.rs", allow)]);
        assert_eq!(rules(&elsewhere), vec!["unsafe-allow"], "{elsewhere:?}");
        for opener in ["#[expect(unsafe_code)]\n", "#![warn(unsafe_code)]\n"] {
            let after_allow = tree_findings(&[
                ("crates/hash/src/lanes.rs", allow),
                ("crates/hash/src/bob.rs", opener),
            ]);
            assert_eq!(rules(&after_allow), vec!["unsafe-allow"], "{after_allow:?}");
            let elsewhere = tree_findings(&[("crates/core/src/row.rs", opener)]);
            assert_eq!(rules(&elsewhere), vec!["unsafe-allow"], "{elsewhere:?}");
        }
        let closers = "#![forbid(unsafe_code)]\n#[deny(unsafe_code)]\nfn f() {}\n";
        assert!(tree_findings(&[("crates/core/src/row.rs", closers)]).is_empty());
        let deny_root = "#![deny(unsafe_code)]\n";
        assert!(tree_findings(&[("crates/hash/src/lib.rs", deny_root)]).is_empty());
        assert_eq!(
            rules(&tree_findings(&[("crates/core/src/lib.rs", deny_root)])),
            vec!["forbid-unsafe"]
        );
    }

    #[test]
    fn token_matching_respects_word_boundaries() {
        assert!(has_token("call println!(..)", "println!"));
        assert!(!has_token("call eprintln!(..)", "println!"));
        assert!(has_token(
            &format!("{} fn f()", unsafe_keyword()),
            unsafe_keyword()
        ));
        assert!(!has_token("#![forbid(unsafe_code)]", unsafe_keyword()));
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        assert_eq!(
            strip_code(r#"let s = ".unwrap()"; // .expect("#),
            r#"let s = ""; "#
        );
        assert!(!strip_code("// Ordering::Relaxed").contains("Relaxed"));
    }

    #[test]
    fn cfg_test_mask_covers_the_gated_block() {
        let source = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let lines: Vec<&str> = source.lines().collect();
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }
}
