//! Fixture-driven end-to-end tests for the four lint rules.
//!
//! Each rule has one known-good and one known-bad fixture under
//! `tests/fixtures/`. The bad fixtures assert the *exact* (file, line,
//! rule id) of every finding — a lint that fires on the right file but
//! the wrong line is a lint nobody can act on. Fixtures are linted
//! under synthetic workspace-relative paths so the per-file allowlists
//! (hot paths, the audited thread layer, bench exemption) engage exactly
//! as they would in the real tree.

use mbus_analysis::lexer::verify_round_trip;
use mbus_analysis::rules::{check_file, Finding};
use mbus_analysis::walk::{lint_workspace, workspace_root_from};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints the named fixture as if it lived at `as_path` in the
/// workspace, and returns `(line, rule-id)` pairs.
fn lint_as(name: &str, as_path: &str) -> Vec<(u32, &'static str)> {
    let findings = check_file(as_path, &fixture(name));
    for f in &findings {
        assert_eq!(f.file, as_path, "findings must carry the linted path");
    }
    findings.iter().map(|f| (f.line, f.rule.id())).collect()
}

#[test]
fn unsafe_rule_good_and_bad() {
    assert_eq!(
        lint_as("unsafe_good.rs", "crates/core/src/fleet/shard.rs"),
        []
    );
    assert_eq!(
        lint_as("unsafe_bad.rs", "crates/core/src/fleet/shard.rs"),
        [
            (4, "unsafe-safety-comment"),  // unjustified unsafe block
            (7, "unsafe-safety-comment"),  // unsafe fn without # Safety
            (13, "unsafe-safety-comment"), // unsafe impl Send
        ]
    );
}

#[test]
fn thread_rule_good_and_bad() {
    assert_eq!(lint_as("thread_good.rs", "crates/core/src/fleet.rs"), []);
    assert_eq!(
        lint_as("thread_bad.rs", "crates/core/src/fleet.rs"),
        [
            (6, "thread-outside-audited"),  // std::thread::scope
            (11, "thread-outside-audited"), // thread::spawn
        ]
    );
    // The same source is legal inside the audited shard layer.
    assert_eq!(
        lint_as("thread_bad.rs", "crates/core/src/fleet/shard.rs"),
        []
    );
}

#[test]
fn clock_rule_good_and_bad() {
    assert_eq!(
        lint_as("clock_good.rs", "crates/core/src/fleet/shard.rs"),
        []
    );
    assert_eq!(
        lint_as("clock_bad.rs", "crates/core/src/fleet/shard.rs"),
        [
            (3, "nondeterministic-clock"), // SystemTime import
            (6, "nondeterministic-clock"), // Instant::now
            (7, "nondeterministic-clock"), // SystemTime::now
        ]
    );
    // The bench harness is exempt wholesale.
    assert_eq!(lint_as("clock_bad.rs", "crates/bench/src/harness.rs"), []);
}

#[test]
fn hot_path_rule_good_and_bad() {
    assert_eq!(
        lint_as("hot_path_good.rs", "crates/core/src/analytic.rs"),
        []
    );
    assert_eq!(
        lint_as("hot_path_bad.rs", "crates/core/src/analytic.rs"),
        [(4, "hot-path-unwrap"), (8, "hot-path-unwrap")]
    );
    // Outside the named hot paths the same source is fine.
    assert_eq!(
        lint_as("hot_path_bad.rs", "crates/core/src/scenario.rs"),
        []
    );
}

#[test]
fn lexer_round_trips_every_fixture() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        verify_round_trip(&src)
            .unwrap_or_else(|e| panic!("round trip failed for {}: {e}", path.display()));
        checked += 1;
    }
    assert!(checked >= 9, "expected all fixtures, saw {checked}");
}

#[test]
fn lexer_torture_file_yields_no_findings_anywhere() {
    // Every forbidden keyword in the torture file sits inside a string,
    // comment, or identifier — no rule may fire even under the
    // strictest path (an engine hot-path file).
    assert_eq!(
        lint_as("lexer_torture.rs", "crates/core/src/analytic.rs"),
        []
    );
}

/// The whole repository lints clean. This is the acceptance criterion
/// "the lint binary exits 0 on the repo", pinned as a tier-1 test so a
/// violation fails `cargo test` locally, not just the CI lint job.
#[test]
fn workspace_lints_clean() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = workspace_root_from(here).expect("workspace root above crates/analysis");
    let (scanned, findings) = lint_workspace(&root).unwrap_or_else(|(p, e)| {
        panic!("unreadable source file {}: {e}", p.display());
    });
    assert!(scanned > 20, "workspace walk found only {scanned} files");
    let rendered: Vec<String> = findings.iter().map(Finding::to_string).collect();
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
}
