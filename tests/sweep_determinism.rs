//! `SweepRunner` determinism: sharding a sweep across threads must be
//! observationally invisible — the output vector is bit-identical to
//! the serial run, with real engines built and run inside the workers.

use mbus_core::{EngineKind, SweepRunner, Workload};

/// A digest of one sweep point's full scenario outcome.
fn storm_digest(nodes: usize, rounds: usize, kind: EngineKind) -> (usize, u64, usize, Vec<u64>) {
    let report = Workload::many_node_storm(nodes, rounds).run_on(kind);
    (
        report.records.len(),
        report.total_cycles(),
        report.delivered_messages(),
        report.stats.tx_bits.clone(),
    )
}

#[test]
fn analytic_sweep_is_identical_serial_and_parallel() {
    let points: Vec<(usize, usize)> = (2..=10).flat_map(|n| [(n, 1), (n, 3)]).collect();
    let f = |&(n, r): &(usize, usize)| storm_digest(n, r, EngineKind::Analytic);
    let serial = SweepRunner::serial().run(&points, f);
    for threads in [2, 4, 7] {
        let sharded = SweepRunner::with_threads(threads).run(&points, f);
        assert_eq!(serial, sharded, "{threads} threads");
    }
    let auto = SweepRunner::auto().run(&points, f);
    assert_eq!(serial, auto, "auto-sized runner");
}

#[test]
fn wire_sweep_is_identical_serial_and_parallel() {
    // Each worker thread builds its own wire-level circuit per point,
    // so no engine is ever shared between workers.
    // The wavefront fast path makes ring sizes up to the paper's
    // ten-chip stack (§6) affordable here; these points were capped at
    // 5 when every CLK hop paid a heap sift.
    let points: Vec<usize> = (2..=10).collect();
    let f = |&n: &usize| storm_digest(n, 1, EngineKind::Wire);
    let serial = SweepRunner::serial().run(&points, f);
    let sharded = SweepRunner::with_threads(4).run(&points, f);
    assert_eq!(serial, sharded);
}

#[test]
fn cross_engine_agreement_holds_inside_sweep_workers() {
    // Run the cross-check itself as the sweep body: every point builds
    // both engines in the worker and compares signatures there.
    let points: Vec<usize> = (2..=10).collect();
    let agree = SweepRunner::with_threads(3).run(&points, |&n| {
        let w = Workload::many_node_storm(n, 2);
        w.run_on(EngineKind::Analytic).signature() == w.run_on(EngineKind::Wire).signature()
    });
    assert!(agree.iter().all(|&ok| ok));
}
