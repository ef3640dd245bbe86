//! Many-node contention storms (§6.4 flavor), engine-generic: the same
//! [`Workload`] floods rings of increasing population on both protocol
//! engines, cross-checks the record streams, and reports throughput.
//!
//! Usage: `cargo run -p mbus-bench --bin storm [-- <nodes> <rounds>]`
//! (defaults: every population 2..=14, 3 rounds).

use std::time::Instant;

use mbus_bench::two_col_table;
use mbus_core::{EngineKind, SweepRunner, Workload};

fn run_population(nodes: usize, rounds: usize) {
    let workload = Workload::many_node_storm(nodes, rounds);
    println!("workload '{}':", workload.name());
    let mut signatures = Vec::new();
    for kind in EngineKind::ALL {
        let start = Instant::now();
        let report = workload.run_on(kind);
        let wall = start.elapsed();
        println!(
            "  [{:>8}] {} transactions, {} bus cycles, {} deliveries in {:.2?}",
            kind.name(),
            report.records.len(),
            report.total_cycles(),
            report.delivered_messages(),
            wall,
        );
        signatures.push(report.signature());
    }
    for (kind, signature) in EngineKind::ALL.iter().zip(&signatures).skip(1) {
        assert_eq!(
            &signatures[0],
            signature,
            "{kind} disagrees with {} on '{}'",
            EngineKind::ALL[0],
            workload.name()
        );
    }
    println!(
        "  cross-check: all {} signatures identical\n",
        signatures.len()
    );
}

/// Steady-state throughput: one long-lived 14-node analytic engine
/// (shared with the `engines` bench via [`mbus_bench::storm_ring`]),
/// one storm round queued per iteration and stepped to quiescence with
/// [`mbus_core::AnalyticBus::run_transaction`].
fn run_steady_state_throughput(rounds: usize) {
    let mut bus = mbus_bench::storm_ring();
    let mut transactions = 0u64;
    let start = Instant::now();
    for round in 0..rounds {
        mbus_bench::queue_storm_round(&mut bus, round);
        while bus.run_transaction().is_some() {
            transactions += 1;
        }
        bus.take_rx(0);
    }
    let wall = start.elapsed();
    println!(
        "steady-state drain (14 nodes, {rounds} rounds): {} transactions in {:.2?} ({:.0} txn/s)\n",
        transactions,
        wall,
        transactions as f64 / wall.as_secs_f64(),
    );
}

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();

    println!("=== Many-node storm: one workload, both engines ===\n");
    match args.as_slice() {
        [nodes, rounds, ..] => run_population(*nodes, *rounds),
        _ => {
            run_population(4, 3);
            run_population(14, 3);
        }
    }

    run_steady_state_throughput(512);

    // Analytic-engine population sweep, sharded across threads (at
    // least 4 workers even on small machines).
    let populations: Vec<usize> = (2..=14).collect();
    let runner = SweepRunner::with_threads(SweepRunner::auto().threads().max(4));
    let rows: Vec<(f64, f64)> = runner
        .run(&populations, |&n| {
            let report = Workload::many_node_storm(n, 3).run_on(EngineKind::Analytic);
            (n as f64, report.total_cycles() as f64)
        })
        .into_iter()
        .collect();
    print!(
        "{}",
        two_col_table(
            &format!(
                "storm cost by population (analytic engine, {} sweep threads)",
                runner.threads()
            ),
            "nodes",
            "bus cycles",
            &rows,
        )
    );
}
