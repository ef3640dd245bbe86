//! Parser-rejection suite for the `.mbt` trace format, mirroring the
//! `mbus-analysis` lint-fixture idiom: every malformed trace under
//! `tests/trace_fixtures/` must fail with exactly one diagnostic whose
//! *entire* `file:line:col: message` rendering is pinned here — spans
//! included, so a tokenizer off-by-one is a test failure, not a
//! confusing error message three PRs later. None of them may panic.

use std::path::Path;

use mbus_core::trace::TraceFile;

/// Parses a fixture and returns the full rendered diagnostic. The
/// parser sees just the file name (not the absolute path) as the
/// source, so the pinned strings stay machine-independent.
fn diagnose(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/trace_fixtures")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    match TraceFile::parse_str(name, &text) {
        Err(err) => err.to_string(),
        Ok(_) => panic!("fixture {name} parsed cleanly — it must be rejected"),
    }
}

/// Every fixture, with the exact diagnostic it must produce.
const EXPECTED: &[(&str, &str)] = &[
    (
        "bad_magic.mbt",
        "bad_magic.mbt:1:1: expected `mbt <version> <workload|fleet>` magic header",
    ),
    (
        "bad_version.mbt",
        "bad_version.mbt:1:5: unsupported trace version `9` (this parser reads versions 1..=2)",
    ),
    (
        "bad_kind.mbt",
        "bad_kind.mbt:1:7: unknown trace kind `ring` (expected workload or fleet)",
    ),
    (
        "truncated_magic.mbt",
        "truncated_magic.mbt:1:7: missing trace kind (workload|fleet)",
    ),
    (
        "duplicate_seed.mbt",
        "duplicate_seed.mbt:4:1: duplicate `seed` header",
    ),
    // A key given twice on one line is rejected where the second
    // starts, never kept-last.
    (
        "duplicate_config_field.mbt",
        "duplicate_config_field.mbt:3:21: duplicate config field `clock`",
    ),
    (
        "duplicate_replay_field.mbt",
        "duplicate_replay_field.mbt:3:24: duplicate replay field `engine`",
    ),
    (
        "duplicate_node_field.mbt",
        "duplicate_node_field.mbt:3:21: duplicate node field `prefix`",
    ),
    (
        "node_index_range.mbt",
        "node_index_range.mbt:4:6: node index 1 out of range (1 node(s) declared)",
    ),
    (
        "cluster_range.mbt",
        "cluster_range.mbt:4:7: cluster index 1 out of range (1 cluster(s) declared)",
    ),
    (
        "truncated_step.mbt",
        "truncated_step.mbt:4:14: missing payload hex (or -)",
    ),
    (
        "odd_payload.mbt",
        "odd_payload.mbt:4:14: odd-length payload hex `abc` (3 digit(s))",
    ),
    (
        "bad_payload_digit.mbt",
        "bad_payload_digit.mbt:4:16: invalid payload hex digit in `zz`",
    ),
    // The bad pair cuts a multi-byte char, so it shows up to the
    // char's end.
    (
        "payload_multibyte_digit.mbt",
        "payload_multibyte_digit.mbt:4:14: invalid payload hex digit in `aé`",
    ),
    (
        "topology_after_steps.mbt",
        "topology_after_steps.mbt:5:1: `node` appears after a later section \
         (topology lines must come before steps)",
    ),
    (
        "kind_mismatch.mbt",
        "kind_mismatch.mbt:4:1: `send` is a single-bus step (use local/remote/drain-rounds here)",
    ),
    (
        "bad_address.mbt",
        "bad_address.mbt:4:8: malformed address `0x1` (missing `.fu` suffix; \
         expected 0xP.F, full:0xPPPPP.F, or bcast.C)",
    ),
    (
        "missing_name.mbt",
        "missing_name.mbt:3:0: missing `name` header",
    ),
    (
        "bad_sensor_flag.mbt",
        "bad_sensor_flag.mbt:3:9: bad sensor flag `x` (each sensor is `a`lways-on \
         or `g`ated; `-` for an empty cluster)",
    ),
    (
        "cluster_too_many_sensors.mbt",
        "cluster_too_many_sensors.mbt:3:22: too many sensors (a cluster holds at most 13)",
    ),
    (
        "too_many_nodes.mbt",
        "too_many_nodes.mbt:67:1: too many nodes (a bus holds at most 64)",
    ),
    (
        "unknown_directive.mbt",
        "unknown_directive.mbt:3:1: unknown directive `frobnicate`",
    ),
    (
        "bad_behavior_kind.mbt",
        "bad_behavior_kind.mbt:4:14: unknown behavior kind `explode` \
         (expected reply, agg, or cascade)",
    ),
    (
        "ttl_range.mbt",
        "ttl_range.mbt:5:25: envelope TTL 16 out of range (1..=15)",
    ),
    (
        "route_cycle.mbt",
        "route_cycle.mbt:5:14: mesh route cycle: next hop 1 is in the route's own domain 1",
    ),
    (
        "behavior_undeclared_node.mbt",
        "behavior_undeclared_node.mbt:4:10: node index 3 out of range on cluster 0 \
         (2 sensor(s) + gateway)",
    ),
    (
        "v2_directive_in_v1.mbt",
        "v2_directive_in_v1.mbt:4:1: `behavior` requires trace version 2 \
         (this file declares version 1)",
    ),
    (
        "payload_too_long.mbt",
        "payload_too_long.mbt:6:14: payload too long: message of 1025 bytes exceeds \
         maximum length 1024 (`send!` queues it unchecked)",
    ),
    (
        "forwarding_port_payload.mbt",
        "forwarding_port_payload.mbt:4:17: payload `00` sent to the gateway forwarding \
         port is not an envelope (use `remote`, or a gateway fu other than 0)",
    ),
    (
        "remote_too_long.mbt",
        "remote_too_long.mbt:6:18: payload too long: message of 1025 bytes exceeds \
         maximum length 1024 (counting the 4-byte envelope header)",
    ),
    (
        "remote_ttl_too_long.mbt",
        "remote_ttl_too_long.mbt:6:18: payload too long: message of 1025 bytes exceeds \
         maximum length 1024 (counting the 6-byte `ttl=` envelope header)",
    ),
    // CRLF line ends and tab, VT, FF, U+00A0 and U+3000 separators:
    // columns count bytes, so `zz` sits at byte 26 after the
    // three-byte U+3000 and the two-byte U+00A0.
    (
        "whitespace_columns.mbt",
        "whitespace_columns.mbt:7:26: unexpected trailing token `zz` (only `ttl=<n>` and \
         `prio` may follow)",
    ),
    (
        "remote_to_forwarding_port.mbt",
        "remote_to_forwarding_port.mbt:5:16: a remote message may not target a gateway \
         forwarding port (node 0, fu 0)",
    ),
    // Out-of-range numbers are rejected where they would otherwise
    // wrap in a narrowing cast (257 → fu 1, 0x102 → short 0x2, …).
    (
        "remote_fu_range.mbt",
        "remote_fu_range.mbt:5:16: functional unit 257 out of range (0..=15)",
    ),
    (
        "behavior_fu_range.mbt",
        "behavior_fu_range.mbt:4:20: functional unit 259 out of range (0..=15)",
    ),
    (
        "short_prefix_range.mbt",
        "short_prefix_range.mbt:3:27: short prefix 0x102 out of range (0x1..=0xE)",
    ),
    (
        "address_prefix_range.mbt",
        "address_prefix_range.mbt:5:8: malformed address `0x103.0` (short prefix out of range \
         (0x1..=0xE); expected 0xP.F, full:0xPPPPP.F, or bcast.C)",
    ),
    (
        "medwake_range.mbt",
        "medwake_range.mbt:3:41: medwake 4294967297 out of range (0..=4294967295)",
    ),
    // Every directive ends after its last argument: a token past it
    // is rejected where it starts, never silently dropped.
    (
        "trailing_magic.mbt",
        "trailing_magic.mbt:1:16: unexpected trailing token `extra`",
    ),
    (
        "trailing_seed.mbt",
        "trailing_seed.mbt:3:8: unexpected trailing token `junk`",
    ),
    (
        "trailing_expect.mbt",
        "trailing_expect.mbt:3:29: unexpected trailing token `extra`",
    ),
    (
        "trailing_wake_nulls.mbt",
        "trailing_wake_nulls.mbt:3:12: unexpected trailing token `on`",
    ),
    (
        "trailing_horizon.mbt",
        "trailing_horizon.mbt:3:11: unexpected trailing token `rounds`",
    ),
    (
        "trailing_drain.mbt",
        "trailing_drain.mbt:6:7: unexpected trailing token `now`",
    ),
    (
        "trailing_drain_partial.mbt",
        "trailing_drain_partial.mbt:6:17: unexpected trailing token `more`",
    ),
    (
        "trailing_drain_rounds.mbt",
        "trailing_drain_rounds.mbt:6:16: unexpected trailing token `more`",
    ),
    (
        "trailing_wakeup.mbt",
        "trailing_wakeup.mbt:4:10: unexpected trailing token `now`",
    ),
    (
        "trailing_fleet_wakeup.mbt",
        "trailing_fleet_wakeup.mbt:4:12: unexpected trailing token `junk`",
    ),
    (
        "trailing_after_prio.mbt",
        "trailing_after_prio.mbt:5:22: unexpected trailing token `junk`",
    ),
    (
        "trailing_local_prio.mbt",
        "trailing_local_prio.mbt:4:25: unexpected trailing token `junk`",
    ),
];

#[test]
fn every_malformed_fixture_reports_the_pinned_span() {
    for &(fixture, expected) in EXPECTED {
        assert_eq!(diagnose(fixture), expected, "{fixture}");
    }
}

/// The fixture directory and the pin table stay in sync: a fixture
/// added without a pinned diagnostic (or a stale pin for a deleted
/// fixture) fails here instead of silently losing coverage.
#[test]
fn every_fixture_on_disk_is_pinned() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/trace_fixtures");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixture dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut pinned: Vec<String> = EXPECTED.iter().map(|&(f, _)| f.to_string()).collect();
    pinned.sort();
    assert_eq!(on_disk, pinned);
}

/// Unreadable paths surface through the same error type with the
/// whole-file span (`:0:0:`), not an `io::Error` panic.
#[test]
fn missing_file_is_a_whole_file_error() {
    let err = TraceFile::parse_file("does/not/exist.mbt").unwrap_err();
    assert_eq!((err.line, err.col), (0, 0));
    assert!(err.message.starts_with("cannot read trace:"), "{err}");
}
