//! Golden-corpus regression suite: every `.mbt` trace committed under
//! `tests/corpus/` must replay to the identical signature across every
//! comparable engine kind and every fleet schedule, AND match the
//! digest its `expect sig=` header pinned when the trace was exported.
//!
//! This is the durable, diffable form of the conformance batteries:
//! the traces survive refactors of the generators that produced them
//! (`cargo run -p mbus-bench --bin scenario -- export <builtin> --pin`
//! regenerates one deliberately). A digest mismatch here means
//! observable protocol behavior changed — bump the pin only with a
//! changelog entry explaining why.

mod common;

use mbus_core::trace::{fleet_digest, scenario_digest, Trace, TraceFile};
use mbus_core::EngineKind;

/// Every committed corpus trace, parsed — fails loudly if the
/// directory is missing or any trace no longer parses.
fn corpus() -> Vec<(String, TraceFile)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "mbt"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 10,
        "corpus unexpectedly small: {entries:?} — traces deleted without replacement?"
    );
    entries
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let tf = TraceFile::parse_file(&path).unwrap_or_else(|e| panic!("{e}"));
            (name, tf)
        })
        .collect()
}

/// The tier-1 acceptance gate: identical signatures across
/// Analytic/Wire × one shard/sharded, pinned digests intact.
#[test]
fn corpus_replays_identically_across_engines_and_schedules() {
    for (file, tf) in corpus() {
        let pinned = tf
            .meta
            .expect_sig
            .unwrap_or_else(|| panic!("{file}: corpus traces must pin `expect sig=`"));
        match &tf.trace {
            Trace::Workload(w) => {
                // Cross-engine signature identity (the helper asserts).
                let reports = common::crosscheck_all_engines(w);
                let digest = scenario_digest(&reports[0].signature());
                assert_eq!(
                    digest, pinned,
                    "{file}: behavior drifted from pinned digest (got {digest:016x})"
                );
            }
            Trace::Fleet(w) => {
                // Cross-engine identity on one shard...
                let reports = common::fleet_crosscheck_all_engines(w);
                let digest = fleet_digest(&reports[0].signature());
                assert_eq!(
                    digest, pinned,
                    "{file}: behavior drifted from pinned digest (got {digest:016x})"
                );
                // ...then schedule-independence per comparable kind:
                // one shard ≡ sharded(2|3).
                for reference in &reports {
                    for shards in [2, 3] {
                        common::sharded_crosscheck(w, reference.kind, reference, shards);
                    }
                }
            }
        }
    }
}

/// Round-tripping a corpus trace through serialize → parse preserves
/// behavior — the committed bytes aren't load-bearing beyond what the
/// grammar captures.
#[test]
fn corpus_survives_reserialization() {
    for (file, tf) in corpus() {
        let text = tf.to_mbt();
        let reparsed =
            TraceFile::parse_str(&file, &text).unwrap_or_else(|e| panic!("{file} re-parse: {e}"));
        assert_eq!(reparsed.meta.expect_sig, tf.meta.expect_sig, "{file}");
        let digest = |t: &Trace| match t {
            Trace::Workload(w) => scenario_digest(&w.run_on(EngineKind::Analytic).signature()),
            Trace::Fleet(w) => fleet_digest(&w.run_on(EngineKind::Analytic).signature()),
        };
        assert_eq!(digest(&reparsed.trace), digest(&tf.trace), "{file}");
    }
}

/// The corpus spans the shapes the suite exists to guard: single-bus
/// and fleet traces, partial drains (wire-incomparable), priority
/// remotes, gateway drops, and — since the closed-loop golden traces
/// landed — reactive behavior tables and multi-hop mesh routes at
/// 1000+ bus scale.
#[test]
fn corpus_covers_the_advertised_shapes() {
    let corpus = corpus();
    let fleets = corpus.iter().filter(|(_, t)| t.trace.is_fleet()).count();
    let workloads = corpus.len() - fleets;
    assert!(fleets >= 6, "fleet coverage shrank");
    assert!(workloads >= 4, "single-bus coverage shrank");
    assert!(
        corpus.iter().any(|(_, t)| !t.trace.wire_comparable()),
        "no partial-drain trace left in the corpus"
    );
    // The PR 5 aliasing-regression trace must keep exercising drops.
    let (_, gateway) = corpus
        .iter()
        .find(|(f, _)| f == "gateway_forwarding.mbt")
        .expect("gateway_forwarding.mbt present");
    let Trace::Fleet(w) = &gateway.trace else {
        panic!("gateway_forwarding.mbt must be a fleet trace");
    };
    let report = w.run_on(EngineKind::Analytic);
    assert!(report.forwarded >= 3, "forwarding legs disappeared");
    assert!(report.dropped >= 1, "unroutable-envelope drop disappeared");
}

/// The three closed-loop golden traces keep their advertised shapes:
/// 1000+ bridged buses, a non-empty behavior table, a mesh with routes
/// in both domains, and reply traffic that actually crosses the
/// inter-gateway boundary. The duty-cycled request/response day is the
/// acceptance scenario — its reply traffic (each injected reply is one
/// source transmission plus one forwarded delivery leg) must stay at
/// least 30% of all bus transactions.
#[test]
fn closed_loop_golden_traces_keep_their_shapes() {
    let corpus = corpus();
    let fleet = |file: &str| {
        let (_, tf) = corpus
            .iter()
            .find(|(f, _)| f == file)
            .unwrap_or_else(|| panic!("{file} present"));
        match &tf.trace {
            Trace::Fleet(w) => w,
            Trace::Workload(_) => panic!("{file} must be a fleet trace"),
        }
    };
    for file in [
        "duty_cycle_day.mbt",
        "alarm_cascade.mbt",
        "aggregate_fanin.mbt",
    ] {
        let w = fleet(file);
        assert!(
            w.cluster_specs().len() >= 1000,
            "{file}: fleet shrank below 1000 buses"
        );
        assert!(!w.behaviors().is_empty(), "{file}: behavior table emptied");
        assert!(
            w.mesh_routes().len() >= 2,
            "{file}: mesh routes disappeared"
        );
        let report = w.run_on(EngineKind::Analytic);
        assert!(
            report.injected_replies > 0,
            "{file}: no closed-loop replies"
        );
        assert!(
            report.hop_forwards > 0,
            "{file}: reply traffic no longer crosses the mesh"
        );
    }
    let report = fleet("duty_cycle_day.mbt").run_on(EngineKind::Analytic);
    let transactions = report.transactions() as u64;
    assert!(
        10 * 2 * report.injected_replies >= 3 * transactions,
        "duty_cycle_day.mbt: reply share fell below 30% ({} replies / {} transactions)",
        report.injected_replies,
        transactions
    );
}
