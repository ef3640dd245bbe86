//! Interleaved fleet demo: many analytic buses advancing together on
//! one thread.
//!
//! Two parts:
//!
//! 1. Step a single [`AnalyticBus`] by hand with `run_transaction` —
//!    the one-transaction step the scheduler is built on.
//! 2. Build an 8-cluster analytic fleet and drain it on one thread
//!    with a single-shard [`ShardedFleet`] (one
//!    `InterleavedScheduler`), printing the round-robin emission
//!    order, then show that two shards emit the identical stream.
//!
//! Run with: `cargo run --release --example interleaved_fleet`

use mbus_core::fleet::{Fleet, FleetNodeId};
use mbus_core::{
    Address, AnalyticBus, BusConfig, EngineKind, FleetSchedule, FleetWorkload, FuId, FullPrefix,
    Message, NodeSpec, ShardedFleet, ShortPrefix,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. One bus, stepped by hand. -------------------------------
    let mut bus = AnalyticBus::new(BusConfig::default());
    let cpu = bus.add_node(
        NodeSpec::new("cpu", FullPrefix::new(0x1)?).with_short_prefix(ShortPrefix::new(0x1)?),
    );
    let sensor = bus.add_node(
        NodeSpec::new("sensor", FullPrefix::new(0x2)?).with_short_prefix(ShortPrefix::new(0x2)?),
    );
    for k in 0..3u8 {
        bus.queue(
            cpu,
            Message::new(Address::short(ShortPrefix::new(0x2)?, FuId::ZERO), vec![k]),
        )?;
    }
    println!("single analytic bus, stepped one transaction at a time:");
    while let Some(record) = bus.run_transaction() {
        println!(
            "  step -> seq {} winner {:?} ({} cycles)",
            record.seq, record.winner, record.cycles
        );
    }
    println!(
        "  idle after drain; {} rx messages\n",
        bus.take_rx(sensor).len()
    );

    // --- 2. A fleet of buses, interleaved. --------------------------
    let clusters = 8;
    let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
    let mut sensors = Vec::new();
    for _ in 0..clusters {
        let c = fleet.add_cluster();
        sensors.push(fleet.add_sensor(c, false));
    }
    // Every cluster sends one local reading and one cross-cluster
    // message to the next cluster's sensor.
    for (c, &src) in sensors.iter().enumerate() {
        fleet.queue(
            src,
            Message::new(
                Address::short(ShortPrefix::new(0x1)?, FuId::new(0x1)?),
                vec![c as u8],
            ),
        )?;
        let dest = sensors[(c + 1) % clusters];
        fleet.queue_remote(src, dest, FuId::ZERO, vec![0xC0 | c as u8])?;
    }
    let mut interleaved = ShardedFleet::new(1);
    let mut order = Vec::new();
    interleaved.drive(&mut fleet, &mut |record| order.push(record.cluster));
    println!(
        "{} buses drained interleaved on one thread: {} transactions in {} epochs",
        clusters,
        interleaved.transactions(),
        interleaved.epochs()
    );
    println!("  round-robin emission order: {order:?}");

    // The same workload on two shards emits the identical stream:
    // every schedule has one record order.
    let w = FleetWorkload::sense_and_aggregate(clusters, 3, 1);
    let interleaved = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
    let sharded = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Sharded { shards: 2 });
    assert_eq!(interleaved.records, sharded.records);
    let prefix = |r: &mbus_core::FleetReport| {
        r.records
            .iter()
            .take(8)
            .map(|fr| fr.cluster)
            .collect::<Vec<_>>()
    };
    println!("\nsense-and-aggregate on {clusters} clusters, first 8 records:");
    println!("  interleaved (one shard): {:?}", prefix(&interleaved));
    println!("  sharded     (2 shards):  {:?}", prefix(&sharded));
    println!("  record streams identical: true");

    // Cross-cluster deliveries arrived despite the finer interleaving.
    let got = fleet.take_rx(FleetNodeId::new(0, 1));
    assert!(got
        .iter()
        .any(|m| m.payload == vec![0xC0 | (clusters as u8 - 1)]));
    Ok(())
}
