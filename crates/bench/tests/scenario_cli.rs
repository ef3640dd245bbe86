//! The `scenario` CLI rejects malformed flags with a usage error (exit
//! 2) instead of falling back to defaults, and replays a corpus trace
//! cleanly (exit 0) when the flags are well formed.

use std::process::{Command, Output};

fn storm_trace() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus/storm.mbt").to_string()
}

/// Runs the `scenario` bin in the temp directory, so a run that wrongly
/// writes its default report leaves nothing in the source tree.
fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn scenario")
}

#[test]
fn malformed_flags_are_usage_errors() {
    let trace = storm_trace();
    let cases: [&[&str]; 6] = [
        &["replay", &trace, "--shards", "2,x"],
        &["replay", &trace, "--shards", "x"],
        &["replay", &trace, "--shards", "0"],
        &["replay", &trace, "--out"],
        &["fuzz", "--seeds", "abc"],
        &["fuzz", "--start", "abc"],
    ];
    for args in cases {
        let out = scenario(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn well_formed_replay_succeeds() {
    let report = std::env::temp_dir().join(format!("scenario_cli_{}.json", std::process::id()));
    let report_arg = report.to_str().expect("utf-8 temp path");
    let out = scenario(&[
        "replay",
        &storm_trace(),
        "--shards",
        "2,3",
        "--out",
        report_arg,
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&report).expect("report written");
    let _ = std::fs::remove_file(&report);
    assert!(json.contains("\"shards\":[2,3]"), "{json}");
}
