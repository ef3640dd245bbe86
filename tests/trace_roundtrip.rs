//! Round-trip property suite for the `.mbt` trace format: for seeded
//! generator output, serialize → parse → re-run must yield the
//! identical [`ScenarioSignature`] / [`FleetSignature`] on every
//! comparable engine kind — the format loses nothing an engine can
//! observe. Walks ≥200 seeds per layer at the default
//! `MBUS_SEED_SCALE` (the weekly cron multiplies by 10).
//!
//! [`ScenarioSignature`]: mbus_core::scenario::ScenarioSignature
//! [`FleetSignature`]: mbus_core::FleetSignature

mod common;

use mbus_core::trace::{Trace, TraceFile};
use mbus_core::{FleetSchedule, FleetWorkload, Workload};

/// Serialize → parse, panicking with the full text on any failure so a
/// format regression is immediately reproducible.
fn reparse(tf: &TraceFile, what: &str) -> TraceFile {
    let text = tf.to_mbt();
    TraceFile::parse_str(what, &text)
        .unwrap_or_else(|e| panic!("{what} failed to re-parse: {e}\n--- trace ---\n{text}"))
}

#[test]
fn seeded_workloads_round_trip_on_every_engine() {
    for seed in 0..common::scaled_seeds(200) {
        let original = Workload::seeded(seed);
        let tf = reparse(
            &TraceFile::workload(original.clone()).with_seed(seed),
            &format!("seeded/{seed}"),
        );
        assert_eq!(tf.meta.seed, Some(seed));
        let Trace::Workload(parsed) = &tf.trace else {
            panic!("seed {seed}: workload came back as a fleet");
        };
        assert_eq!(parsed.name(), original.name(), "seed {seed}");
        assert_eq!(
            parsed.wire_comparable(),
            original.wire_comparable(),
            "seed {seed}"
        );
        for kind in common::comparable_kinds(&original) {
            assert_eq!(
                original.run_on(kind).signature(),
                parsed.run_on(kind).signature(),
                "seed {seed}: round-trip changed behavior on {kind}"
            );
        }
    }
}

#[test]
fn seeded_fleets_round_trip_on_every_engine() {
    for seed in 0..common::scaled_seeds(200) {
        let original = FleetWorkload::seeded(seed);
        let tf = reparse(
            &TraceFile::fleet(original.clone()).with_seed(seed),
            &format!("fleet_seeded/{seed}"),
        );
        let Trace::Fleet(parsed) = &tf.trace else {
            panic!("seed {seed}: fleet came back as a workload");
        };
        assert_eq!(
            parsed.cluster_specs(),
            original.cluster_specs(),
            "seed {seed}"
        );
        assert_eq!(
            parsed.strict_nulls(),
            original.strict_nulls(),
            "seed {seed}"
        );
        // The v2 constructs survive structurally, not just
        // behaviorally: behavior tables, mesh domains and routes, and
        // the reply horizon all come back token-identical.
        assert_eq!(parsed.behaviors(), original.behaviors(), "seed {seed}");
        assert_eq!(
            parsed.cluster_domains(),
            original.cluster_domains(),
            "seed {seed}"
        );
        assert_eq!(parsed.mesh_routes(), original.mesh_routes(), "seed {seed}");
        assert_eq!(
            parsed.reply_horizon(),
            original.reply_horizon(),
            "seed {seed}"
        );
        for kind in common::fleet_comparable_kinds(&original) {
            assert_eq!(
                original.run_on(kind).signature(),
                parsed.run_on(kind).signature(),
                "seed {seed}: round-trip changed behavior on {kind}"
            );
        }
    }
}

/// The 200-seed fleet battery actually covers the v2 step and
/// topology kinds it exists to round-trip: some seeds must draw
/// behavior tables, mesh routes (hence version-2 serialization), and
/// explicit-TTL remotes. A generator regression that stops producing
/// them would otherwise silently shrink this suite back to v1
/// coverage.
#[test]
fn seeded_fleet_battery_covers_the_v2_constructs() {
    let (mut behaviors, mut routes, mut ttls, mut v2) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..common::scaled_seeds(200) {
        let w = FleetWorkload::seeded(seed);
        behaviors += u64::from(!w.behaviors().is_empty());
        routes += u64::from(!w.mesh_routes().is_empty());
        let text = TraceFile::fleet(w).to_mbt();
        ttls += u64::from(text.contains(" ttl="));
        v2 += u64::from(text.starts_with("mbt 2 "));
    }
    let seeds = common::scaled_seeds(200);
    assert!(behaviors * 3 >= seeds, "behaviors: {behaviors}/{seeds}");
    assert!(routes * 8 >= seeds, "mesh routes: {routes}/{seeds}");
    assert!(ttls * 16 >= seeds, "explicit TTLs: {ttls}/{seeds}");
    assert!(v2 * 3 >= seeds, "v2 serializations: {v2}/{seeds}");
}

/// Every separator `char::is_whitespace` accepts splits tokens alike:
/// a fleet trace written with tab, VT, FF, U+00A0 and U+3000
/// separators and CRLF line ends serializes exactly as its
/// space-separated form.
#[test]
fn unicode_separators_parse_like_spaces() {
    let spaced = "mbt 2 fleet\n\
                  name ws\n\
                  config clock=400000 maxmsg=1024 medwake=3\n\
                  cluster aa domain=1\n\
                  cluster ag\n\
                  route 0 0..0 0\n\
                  behavior 1.2 agg 2 3 beef\n\
                  local 0.1 0x2.0 0511 prio\n\
                  remote 0.1 1.2 1 a0a1 ttl=3 prio\n\
                  wakeup 1.1\n\
                  drain-rounds 2\n";
    let separated = "mbt\t2\u{3000}fleet\r\n\
                     \u{c}# a comment after a form feed\r\n\
                     \u{3000}\r\n\
                     name\u{a0}ws\r\n\
                     config\u{b}clock=400000\tmaxmsg=1024\u{3000}medwake=3\r\n\
                     cluster\u{c}aa\u{a0}domain=1\r\n\
                     \tcluster ag\u{3000}\r\n\
                     route\u{3000}0\t0..0\u{b}0\r\n\
                     behavior\u{a0}1.2 agg\t2\u{c}3\u{3000}beef\r\n\
                     local\t0.1\u{b}0x2.0\u{c}0511\u{a0}prio\r\n\
                     remote\u{3000}0.1\t1.2\u{b}1\u{c}a0a1\u{a0}ttl=3\u{3000}prio\r\n\
                     \u{3000}wakeup\u{3000}1.1\u{3000}\r\n\
                     drain-rounds\u{b}2\r\n";
    let parse = |what: &str, text: &str| {
        TraceFile::parse_str(what, text)
            .unwrap_or_else(|e| panic!("{what} failed to parse: {e}"))
            .to_mbt()
    };
    let expected = parse("spaced", spaced);
    assert_eq!(parse("separated", separated), expected);
    assert_eq!(parse("reparsed", &expected), expected);
}

/// A rest-of-line value (`name`, node `name=`) ends before any `\r`
/// left at the end of its line, so a line ending `\r\r\n` (or a bare
/// `\r` at the end of the file) serializes as if it ended `\n`, and
/// `to_mbt` reaches its fixed point in one pass.
#[test]
fn rest_of_line_values_drop_trailing_carriage_returns() {
    let lf = "mbt 1 workload\n\
              name foo\n\
              node prefix=0x00300 short=0x1 name=n 0\n\
              node prefix=0x00301 short=0x2 name=last\n";
    let cr = "mbt 1 workload\r\n\
              name foo\r\r\n\
              node prefix=0x00300 short=0x1 name=n 0\r\r\r\n\
              node prefix=0x00301 short=0x2 name=last\r";
    let parse = |what: &str, text: &str| {
        TraceFile::parse_str(what, text)
            .unwrap_or_else(|e| panic!("{what} failed to parse: {e}"))
            .to_mbt()
    };
    let expected = parse("lf", lf);
    let first = parse("cr", cr);
    assert_eq!(first, expected);
    assert_eq!(parse("reparsed", &first), first);
    let Trace::Workload(w) = TraceFile::parse_str("cr", cr).unwrap().trace else {
        panic!("a workload trace");
    };
    assert_eq!(w.name(), "foo");
}

/// The parsed fleet honors the schedule-independence contract exactly
/// like the original (spot-checked on a slice of seeds: the full
/// schedule grid per seed is what `tests/corpus_replay.rs` pins for
/// the golden traces).
#[test]
fn reparsed_fleets_stay_schedule_independent() {
    for seed in 0..common::scaled_seeds(20) {
        let tf = reparse(
            &TraceFile::fleet(FleetWorkload::seeded(seed)),
            &format!("fleet_seeded/{seed}"),
        );
        let Trace::Fleet(parsed) = &tf.trace else {
            panic!("seed {seed}: fleet came back as a workload");
        };
        for kind in common::fleet_comparable_kinds(parsed) {
            let reference = parsed.run_scheduled_on(kind, FleetSchedule::Interleaved);
            common::sharded_crosscheck(parsed, kind, &reference, 2);
        }
    }
}
