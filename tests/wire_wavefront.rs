//! Golden edge timing for the wire engine.
//!
//! The wire kernel schedules every CLK/DATA edge through one path: the
//! wavefront lane and fuse slot of `mbus_sim::Scheduler`, merged with
//! the timer heap by `(time, seq)`. The heap-only path it replaced
//! popped the same events in the same order; its edge timing is kept
//! here as data. Each pin is an FNV-1a digest of a run's full `History`
//! (net, time in ps and level of every transition), minted from the
//! heap-only path, so a scheduling bug that moves an edge without
//! changing any record still fails this suite. The test names' "across
//! paths" means the live lane path against those pinned heap runs.
//!
//! Each run also checks that the always-on edge counts and the
//! per-member `segment_edges` the energy model charges agree with the
//! history, and corpus traces must still match their `expect sig=`.

mod common;

use mbus_core::engine::BusEngine;
use mbus_core::trace::{fleet_digest, scenario_digest, Trace, TraceFile};
use mbus_core::wire::{WireBus, WireEngine};
use mbus_core::{EngineKind, Workload};
use mbus_sim::{History, Logic};

use common::{fnv1a, FNV_OFFSET};

/// FNV-1a over every recorded transition, net by net in id order: the
/// net index, the time in picoseconds and the level. Two runs with the
/// same digest put the same edges on the same nets at the same instants.
fn history_digest(history: &History) -> u64 {
    let mut h = FNV_OFFSET;
    for net in history.nets() {
        for t in history.transitions(net) {
            let level: u8 = match t.value {
                Logic::Low => 0,
                Logic::High => 1,
                Logic::Floating => 2,
            };
            h = fnv1a(h, &(net.index() as u64).to_le_bytes());
            h = fnv1a(h, &t.time.as_ps().to_le_bytes());
            h = fnv1a(h, &[level]);
        }
    }
    h
}

/// Edge digests minted from the heap-only propagation path, one per
/// named scenario (keyed by `Workload::name`).
const NAMED_EDGE_PINS: &[(&str, u64)] = &[
    ("sense_and_send/3", 0x8b9d_7edd_7d3a_0665),
    ("monitor_alert/4x16", 0xf97b_9e2d_08a0_326d),
    ("many_node_storm/6n3r", 0x3f2c_bc31_6e59_a671),
    ("many_node_storm/14n2r", 0x2f2a_7daa_583a_8594),
    ("fault_injection", 0x5011_d0d9_072f_9bfb),
];

/// Edge digests minted from the heap-only propagation path, one per
/// wire-comparable single-bus corpus trace (keyed by file name).
const CORPUS_EDGE_PINS: &[(&str, u64)] = &[
    ("hostile.mbt", 0x5011_d0d9_072f_9bfb),
    ("storm.mbt", 0x3f2c_bc31_6e59_a671),
];

/// `fnv1a` fold of `(seed, history_digest)` over the wire-comparable
/// seeds in `Workload::seeded(0..200)`, minted from the heap-only path.
const SEEDED_EDGE_PIN: u64 = 0x1f86_3bf7_0d86_f7f0;

fn pin_for(pins: &[(&str, u64)], key: &str) -> u64 {
    pins.iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("no edge pin for {key}"))
        .1
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

/// Runs `w` on a wire engine with the transition history on, checks
/// its counts against that history, and returns the edge digest and
/// the signature digest.
fn run_wire(w: &Workload) -> (u64, u64) {
    let mut engine = WireEngine::new(*w.config()).with_history(true);
    for spec in w.node_specs() {
        engine.add_node(spec.clone());
    }
    let signature = scenario_digest(&w.apply(&mut engine).signature());
    let bus = engine.wire_bus().expect("ran");
    assert_counts_match_history(w, bus);
    (history_digest(bus.history().expect("recorded")), signature)
}

/// The 200-seed battery (`MBUS_SEED_SCALE` multiplies it in the weekly
/// cron): every wire-comparable seeded workload's counts must match its
/// history, and the edge digests of seeds 0..200 must fold to the pin.
#[test]
fn seeded_battery_is_bit_identical_across_paths() {
    let seeds = common::scaled_seeds(200);
    let mut ran = 0u64;
    let mut fold = FNV_OFFSET;
    for seed in 0..seeds {
        let w = Workload::seeded(seed);
        if !w.wire_comparable() {
            continue;
        }
        let (digest, _) = run_wire(&w);
        if seed < 200 {
            fold = fnv1a(fold, &seed.to_le_bytes());
            fold = fnv1a(fold, &digest.to_le_bytes());
        }
        ran += 1;
    }
    assert_eq!(
        fold, SEEDED_EDGE_PIN,
        "seeded 0..200 edge digest fold drifted"
    );
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
/// cuts, rx-buffer aborts, broadcast channels); each has its own pin.
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
            let (digest, _) = run_wire(&w);
            assert_eq!(digest, pin_for(NAMED_EDGE_PINS, w.name()), "{}", w.name());
        }
    }
}

/// Every committed `.mbt` corpus trace on the wire engine. Single-bus
/// traces are held to their edge pins and their `expect sig=`; fleet
/// traces (whose engines are built internally) to their `expect sig=`,
/// which was recorded before the wavefront path existed.
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
                    let (edges, digest) = run_wire(w);
                    assert_eq!(
                        edges,
                        pin_for(CORPUS_EDGE_PINS, &file),
                        "{file}: edges drifted"
                    );
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
