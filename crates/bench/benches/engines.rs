//! Micro-benches over the two protocol engines: how fast can the
//! reproduction itself execute MBus traffic? These quantify the
//! analytic-vs-wire-level speed gap that justifies keeping both
//! engines (DESIGN.md ablation #4) and guard the analytic kernel's
//! steady-state drain (the 14-node storm points — README records
//! the before/after numbers), the cross-engine storm point, the
//! 224-node fleet row, and the `.mbt` parser's throughput.
//!
//! Run with `cargo bench -p mbus-bench --bench engines`; CI runs it
//! with `-- --smoke` to keep the harness from rotting.

use mbus_bench::harness::{bench, bench_timed};
use mbus_core::trace::TraceFile;
use mbus_core::wire::WireBusBuilder;
use mbus_core::{
    Address, AnalyticBus, BusConfig, EngineKind, FleetWorkload, FuId, FullPrefix, Message,
    NodeSpec, ShortPrefix, Workload,
};

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

fn analytic_bus(n: usize) -> AnalyticBus {
    let mut bus = AnalyticBus::new(BusConfig::default());
    for i in 0..n {
        bus.add_node(
            NodeSpec::new(format!("n{i}"), FullPrefix::new(0x900 + i as u32).unwrap())
                .with_short_prefix(sp((i + 1) as u8)),
        );
    }
    bus
}

fn bench_analytic_transactions() {
    for payload in [8usize, 64, 1024] {
        let mut bus = analytic_bus(3);
        let dest = Address::short(sp(0x2), FuId::ZERO);
        bench(
            &format!("analytic_engine/transaction/{payload}B"),
            2_000,
            5,
            || {
                bus.queue(0, Message::new(dest, vec![0xA5; payload]))
                    .unwrap();
                let record = bus.run_transaction().unwrap();
                bus.take_rx(1);
                std::hint::black_box(record.cycles);
            },
        );
    }
}

/// The 14-node analytic ring the steady-state drain point drives.
fn storm_ring() -> AnalyticBus {
    let mut bus = AnalyticBus::new(BusConfig::default());
    for i in 0..14u32 {
        bus.add_node(
            NodeSpec::new(format!("n{i}"), FullPrefix::new(0x500 + i).unwrap())
                .with_short_prefix(sp((i + 1) as u8)),
        );
    }
    bus
}

/// Queues one storm round on a [`storm_ring`] bus: members 1..=13 each
/// send a 3-byte message to the mediator node.
fn queue_storm_round(bus: &mut AnalyticBus, round: usize) {
    let dest = Address::short(sp(0x1), FuId::ZERO);
    for i in 1..14usize {
        bus.queue(i, Message::new(dest, vec![round as u8, i as u8, 0]))
            .unwrap();
    }
}

/// A full 14-node contention storm on the analytic engine, drained
/// through the `BusEngine` trait exactly as the scenario layer does
/// it. This is the number the kernel's incremental contender index
/// must keep ≥2× over the pre-batching kernel (see README).
fn bench_analytic_storm() {
    let workload = Workload::many_node_storm(14, 32);
    bench("analytic_engine/storm/14n32r", 100, 5, || {
        let report = workload.run_on(EngineKind::Analytic);
        std::hint::black_box(report.records.len());
    });

    // Steady-state drain on a long-lived engine: queue one storm round,
    // step it to quiescence with `run_transaction`, repeat — no engine
    // construction in the loop.
    let mut bus = storm_ring();
    let mut round = 0usize;
    bench("analytic_engine/storm_drain/14n", 2_000, 5, || {
        queue_storm_round(&mut bus, round);
        round += 1;
        let mut transactions = 0usize;
        while bus.run_transaction().is_some() {
            transactions += 1;
        }
        bus.take_rx(0);
        std::hint::black_box(transactions);
    });
}

/// The 42-transaction storm point (14 nodes, 3 rounds) on both
/// engines: identical traffic, so the two rows are the
/// analytic-vs-wire speed gap.
fn bench_cross_engine_storm() {
    let workload = Workload::many_node_storm(14, 3);
    for (kind, iters) in [(EngineKind::Analytic, 500), (EngineKind::Wire, 10)] {
        bench(&format!("{kind}_engine/storm/14n3r"), iters, 5, || {
            let report = workload.run_on(kind);
            std::hint::black_box(report.records.len());
        });
    }
}

/// The 224-node fleet row: 16 gateway-bridged analytic buses of 13
/// sensors each, 8 sense-and-aggregate rounds, built and drained per
/// iteration.
fn bench_fleet() {
    let workload = FleetWorkload::sense_and_aggregate(16, 13, 8);
    bench("fleet/sense_aggregate/224n8r", 50, 5, || {
        let report = workload.run_on(EngineKind::Analytic);
        std::hint::black_box(report.transactions());
    });
}

/// The `.mbt` parser over a ≈1.3 MB fleet trace: the 4096-bus,
/// 16-round duty-cycle day (the shape of fleetbench's `duty_closed`),
/// serialized once and parsed per iteration.
fn bench_trace_parse() {
    let name = "trace/parse/duty_day_4096r16";
    let text = TraceFile::fleet(FleetWorkload::duty_cycle_day(4096, 16)).to_mbt();
    let secs = bench_timed(name, 10, 5, || {
        let file = TraceFile::parse_str(name, &text).expect("a serialized trace parses");
        std::hint::black_box(file);
    });
    println!(
        "{:<44} {:>9.1} MB/s  ({} bytes)",
        format!("{name} (throughput)"),
        text.len() as f64 / secs / 1e6,
        text.len()
    );
}

fn bench_wire_transactions() {
    for payload in [8usize, 64] {
        bench(
            &format!("wire_engine/transaction/{payload}B"),
            20,
            5,
            || {
                let mut bus = WireBusBuilder::new(BusConfig::default())
                    .node(
                        NodeSpec::new("a", FullPrefix::new(0x1).unwrap())
                            .with_short_prefix(sp(0x1)),
                    )
                    .node(
                        NodeSpec::new("b", FullPrefix::new(0x2).unwrap())
                            .with_short_prefix(sp(0x2)),
                    )
                    .node(
                        NodeSpec::new("c", FullPrefix::new(0x3).unwrap())
                            .with_short_prefix(sp(0x3)),
                    )
                    .build();
                let dest = Address::short(sp(0x2), FuId::ZERO);
                bus.queue(0, Message::new(dest, vec![0xA5; payload]))
                    .unwrap();
                let records = bus.run_until_quiescent(50_000_000);
                std::hint::black_box(records.len());
            },
        );
    }
}

fn bench_ring_scaling() {
    for nodes in [2usize, 8, 14] {
        bench(&format!("wire_engine/ring_scaling/{nodes}n"), 10, 5, || {
            let mut builder = WireBusBuilder::new(BusConfig::default());
            for i in 0..nodes {
                builder = builder.node(
                    NodeSpec::new(format!("n{i}"), FullPrefix::new(0xA00 + i as u32).unwrap())
                        .with_short_prefix(sp((i + 1) as u8)),
                );
            }
            let mut bus = builder.build();
            let dest = Address::short(sp(0x1), FuId::ZERO);
            bus.queue(nodes - 1, Message::new(dest, vec![0x42; 8]))
                .unwrap();
            let records = bus.run_until_quiescent(100_000_000);
            std::hint::black_box(records.len());
        });
    }
}

fn bench_enumeration() {
    bench("enumeration_14_nodes", 200, 5, || {
        let mut bus = AnalyticBus::new(BusConfig::default());
        for i in 0..14 {
            bus.add_node(NodeSpec::new(
                format!("chip{i}"),
                FullPrefix::new(0xB00 + i).unwrap(),
            ));
        }
        let assignments = mbus_core::enumeration::enumerate(&mut bus, 0).unwrap();
        std::hint::black_box(assignments.len());
    });
}

fn main() {
    bench_analytic_transactions();
    bench_analytic_storm();
    bench_cross_engine_storm();
    bench_fleet();
    bench_trace_parse();
    bench_wire_transactions();
    bench_ring_scaling();
    bench_enumeration();
}
