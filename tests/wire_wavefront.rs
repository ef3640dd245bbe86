//! Wavefront-vs-oracle equivalence for the wire engine.
//!
//! The wavefront fast path (see `mbus_sim::Scheduler`'s docs) claims to
//! be *bit-identical* to the edge-at-a-time heap path, not merely
//! behaviorally close: same `History` transition streams, same
//! `WireTransaction`-derived records, same `BusStats`, same
//! `ScenarioSignature` digests. This suite holds it to that claim over
//! the seeded battery and the golden corpus; any divergence is a bug in
//! the lane's `(time, seq)` merge, not an acceptable approximation.

mod common;

use mbus_core::engine::BusEngine;
use mbus_core::trace::{fleet_digest, scenario_digest, Trace, TraceFile};
use mbus_core::wire::{WireBus, WireEngine};
use mbus_core::{EngineKind, ScenarioReport, Workload};

/// Runs `w` on a wire engine with the chosen propagation path and the
/// transition history on, returning the report *and* the engine so the
/// raw kernel history stays inspectable.
fn run_wire(w: &Workload, wavefront: bool) -> (ScenarioReport, WireEngine) {
    let mut engine = WireEngine::new(*w.config())
        .with_wavefront(wavefront)
        .with_history(true);
    for spec in w.node_specs() {
        engine.add_node(spec.clone());
    }
    let report = w.apply(&mut engine);
    (report, engine)
}

/// The always-on edge counts and the opt-in history are two records of
/// one transition stream: every net's count must equal its history
/// length, and the per-member `segment_edges` the energy model charges
/// must equal the same sum taken from the history.
fn assert_counts_match_history(w: &Workload, bus: &WireBus) {
    let (trace, history) = (bus.trace(), bus.history().expect("recorded"));
    for net in trace.nets() {
        assert_eq!(
            trace.edge_count(net),
            history.transitions(net).len() as u64,
            "{}: net {} count drifted from its history",
            w.name(),
            trace.net_name(net)
        );
    }
    let from_history: Vec<u64> = (0..bus.node_count())
        .map(|i| {
            let driven = [bus.clk_nets()[i + 1], bus.data_nets()[i + 1]];
            driven
                .iter()
                .map(|&net| history.transitions(net).len() as u64)
                .sum()
        })
        .collect();
    assert_eq!(bus.segment_edges(), from_history, "{}", w.name());
}

/// The full bit-identity assertion: every observable of the two runs,
/// from kernel-level net transitions up to the signature digest.
fn assert_bit_identical(w: &Workload) {
    let (fast_report, fast) = run_wire(w, true);
    let (oracle_report, oracle) = run_wire(w, false);

    // Kernel level: the per-net transition streams (what the ½CV²
    // energy model charges) must match edge for edge, timestamp for
    // timestamp.
    let (fast_bus, oracle_bus) = (
        fast.wire_bus().expect("ran"),
        oracle.wire_bus().expect("ran"),
    );
    let (ft, ot) = (fast_bus.trace(), oracle_bus.trace());
    assert_eq!(ft.total_edges(), ot.total_edges(), "{}", w.name());
    let (fh, oh) = (
        fast_bus.history().expect("recorded"),
        oracle_bus.history().expect("recorded"),
    );
    for net in ot.nets() {
        assert_eq!(
            fh.transitions(net),
            oh.transitions(net),
            "{}: net {} diverged",
            w.name(),
            ot.net_name(net)
        );
    }
    assert_counts_match_history(w, fast_bus);
    assert_counts_match_history(w, oracle_bus);

    // Engine level: records, receive logs, wake accounting, stats
    // (including the new per-segment edge counters).
    assert_eq!(fast_report.records, oracle_report.records, "{}", w.name());
    assert_eq!(fast_report.rx, oracle_report.rx, "{}", w.name());
    assert_eq!(
        fast_report.wake_events,
        oracle_report.wake_events,
        "{}",
        w.name()
    );
    assert_eq!(fast_report.stats, oracle_report.stats, "{}", w.name());

    // Signature level: the digest the corpus pins.
    let (fast_sig, oracle_sig) = (fast_report.signature(), oracle_report.signature());
    assert_eq!(fast_sig, oracle_sig, "{}", w.name());
    assert_eq!(
        scenario_digest(&fast_sig),
        scenario_digest(&oracle_sig),
        "{}",
        w.name()
    );
}

/// The 200-seed battery (`MBUS_SEED_SCALE` multiplies it in the weekly
/// cron): every wire-comparable seeded workload must be bit-identical
/// across the two propagation paths.
#[test]
fn seeded_battery_is_bit_identical_across_paths() {
    let seeds = common::scaled_seeds(200);
    let mut ran = 0u64;
    for seed in 0..seeds {
        let w = Workload::seeded(seed);
        if !w.wire_comparable() {
            continue;
        }
        assert_bit_identical(&w);
        ran += 1;
    }
    // Census guard against the generator collapsing to all-partial
    // drains. ~45% of seeds are wire-comparable since the reactive
    // behavior draws joined the stream; 40% keeps headroom while still
    // catching a real collapse.
    assert!(
        ran * 5 >= seeds * 2,
        "battery mostly skipped ({ran}/{seeds}); seeded generator drifted?"
    );
}

/// The paper's named scenarios and the hostile mixes exercise shapes
/// the uniform seeded generator rarely hits (priority storms, runaway
/// cuts, rx-buffer aborts, broadcast channels).
#[test]
fn named_scenarios_are_bit_identical_across_paths() {
    for w in [
        Workload::sense_and_send(3),
        Workload::monitor_alert(4, 16),
        Workload::many_node_storm(6, 3),
        Workload::many_node_storm(14, 2),
        Workload::fault_injection(),
    ] {
        if w.wire_comparable() {
            assert_bit_identical(&w);
        }
    }
}

/// Every committed `.mbt` corpus trace, replayed against both paths.
/// Single-bus traces get the direct oracle comparison; fleet traces
/// (whose engines are built internally) are held to their pinned
/// digests, which were recorded before the wavefront path existed —
/// matching them *is* the oracle comparison.
#[test]
fn golden_corpus_is_bit_identical_across_paths() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "mbt"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 7, "corpus shrank: {entries:?}");
    for path in entries {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let tf = TraceFile::parse_file(&path).unwrap_or_else(|e| panic!("{e}"));
        let pinned = tf
            .meta
            .expect_sig
            .unwrap_or_else(|| panic!("{file}: corpus traces must pin `expect sig=`"));
        match &tf.trace {
            Trace::Workload(w) => {
                if w.wire_comparable() {
                    assert_bit_identical(w);
                    let digest = scenario_digest(&run_wire(w, true).0.signature());
                    assert_eq!(digest, pinned, "{file}: wavefront drifted from pin");
                }
            }
            Trace::Fleet(w) => {
                if w.wire_comparable() {
                    let digest = fleet_digest(&w.run_on(EngineKind::Wire).signature());
                    assert_eq!(digest, pinned, "{file}: wavefront drifted from pin");
                }
            }
        }
    }
}
