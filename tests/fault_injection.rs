//! Fault injection: §3 requires that "it must be impossible for the bus
//! to enter a 'locked-up' state due to any transient faults". These
//! tests throw pathological workloads at both engines and verify the
//! bus always returns to idle with sane bookkeeping.

use mbus_core::interject::InterjectionDetector;
use mbus_core::wire::WireBusBuilder;
use mbus_core::{
    Address, AnalyticBus, BusConfig, BusEngine, FuId, FullPrefix, Message, NodeSpec, ShortPrefix,
    TxOutcome,
};
use mbus_sim::Edge;

const MAX_EVENTS: u64 = 80_000_000;

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

fn addr(x: u8) -> Address {
    Address::short(sp(x), FuId::ZERO)
}

fn wire_bus(n: usize) -> mbus_core::wire::WireBus {
    let mut b = WireBusBuilder::new(BusConfig::default());
    for i in 0..n {
        b = b.node(
            NodeSpec::new(format!("n{i}"), FullPrefix::new(0x600 + i as u32).unwrap())
                .with_short_prefix(sp((i + 1) as u8)),
        );
    }
    b.build()
}

#[test]
fn runaway_transmitter_cannot_hold_the_bus() {
    // A node streams an unbounded message; the mediator must cut it
    // and the bus must be usable immediately afterwards.
    let mut bus = wire_bus(3);
    bus.queue_unchecked(1, Message::new(addr(0x3), vec![0xFF; 4000]))
        .unwrap();
    let records = bus.run_until_quiescent(MAX_EVENTS);
    assert!(records[0].runaway);
    // Bus still works.
    bus.queue(0, Message::new(addr(0x2), vec![0x01])).unwrap();
    let records = bus.run_until_quiescent(MAX_EVENTS);
    assert_eq!(records.len(), 1);
    assert!(records[0].control.unwrap().is_acked());
    assert_eq!(bus.take_rx(1).len(), 1);
}

#[test]
fn overrun_receiver_does_not_wedge_the_transmitter() {
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(
            NodeSpec::new("tiny", FullPrefix::new(0x2).unwrap())
                .with_short_prefix(sp(0x2))
                .with_rx_buffer(4),
        )
        .build();
    bus.queue(0, Message::new(addr(0x2), vec![0; 32])).unwrap();
    bus.run_until_quiescent(MAX_EVENTS);
    assert_eq!(bus.take_outcomes(0), vec![TxOutcome::ReceiverAbort]);
    // A message that fits still goes through.
    bus.queue(0, Message::new(addr(0x2), vec![1, 2, 3, 4]))
        .unwrap();
    bus.run_until_quiescent(MAX_EVENTS);
    assert_eq!(bus.take_rx(1).len(), 1);
}

#[test]
fn wakeup_storm_resolves_to_a_single_null_transaction() {
    // Every node asserts its interrupt port at once.
    let mut bus = wire_bus(5);
    for i in 0..5 {
        bus.request_wakeup(i).unwrap();
    }
    let records = bus.run_until_quiescent(MAX_EVENTS);
    assert_eq!(records.len(), 1, "one null transaction serves them all");
    assert!(records[0].null_transaction);
    for i in 0..5 {
        assert_eq!(bus.wake_events(i), 1, "node {i} woke");
    }
}

#[test]
fn contention_storm_drains_fairly_by_topology() {
    let mut bus = wire_bus(6);
    for round in 0..3u8 {
        for node in 1..6usize {
            bus.queue(node, Message::new(addr(0x1), vec![round, node as u8]))
                .unwrap();
        }
    }
    let records = bus.run_until_quiescent(MAX_EVENTS);
    assert_eq!(records.len(), 15);
    let rx = bus.take_rx(0);
    assert_eq!(rx.len(), 15);
    // No message lost or duplicated.
    let mut seen: Vec<(u8, u8)> = rx.iter().map(|m| (m.payload[0], m.payload[1])).collect();
    seen.sort_unstable();
    let mut expect: Vec<(u8, u8)> = (0..3u8)
        .flat_map(|r| (1..6u8).map(move |n| (r, n)))
        .collect();
    expect.sort_unstable();
    assert_eq!(seen, expect);
}

#[test]
fn message_to_nobody_still_frees_the_bus() {
    let mut bus = wire_bus(2);
    bus.queue(0, Message::new(addr(0xD), vec![0; 8])).unwrap();
    let records = bus.run_until_quiescent(MAX_EVENTS);
    assert_eq!(records.len(), 1);
    assert_eq!(bus.take_outcomes(0), vec![TxOutcome::Nacked]);
    // Next message delivers fine.
    bus.queue(0, Message::new(addr(0x2), vec![7])).unwrap();
    bus.run_until_quiescent(MAX_EVENTS);
    assert_eq!(bus.take_rx(1).len(), 1);
}

#[test]
fn mixed_failure_workload_never_locks_up() {
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(
            NodeSpec::new("b", FullPrefix::new(0x2).unwrap())
                .with_short_prefix(sp(0x2))
                .with_rx_buffer(8),
        )
        .node(NodeSpec::new("c", FullPrefix::new(0x3).unwrap()).with_short_prefix(sp(0x3)))
        .build();
    // Interleave: good message, overrun, no-destination, runaway, wake.
    bus.queue(0, Message::new(addr(0x3), vec![1])).unwrap();
    bus.queue(0, Message::new(addr(0x2), vec![0; 64])).unwrap(); // overrun
    bus.queue(2, Message::new(addr(0xE), vec![2])).unwrap(); // nobody
    bus.queue_unchecked(0, Message::new(addr(0x3), vec![0; 2000]))
        .unwrap(); // runaway
    bus.request_wakeup(1).unwrap();
    bus.queue(2, Message::new(addr(0x1), vec![3])).unwrap(); // good

    let records = bus.run_until_quiescent(MAX_EVENTS);
    assert!(records.len() >= 5, "{} transactions", records.len());
    // The two good messages arrived.
    assert!(bus.take_rx(2).iter().any(|m| m.payload == vec![1]));
    assert!(bus.take_rx(0).iter().any(|m| m.payload == vec![3]));
}

#[test]
fn analytic_engine_survives_the_same_mixed_workload() {
    let mut bus = AnalyticBus::new(BusConfig::default());
    bus.add_node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)));
    bus.add_node(
        NodeSpec::new("b", FullPrefix::new(0x2).unwrap())
            .with_short_prefix(sp(0x2))
            .with_rx_buffer(8),
    );
    bus.add_node(NodeSpec::new("c", FullPrefix::new(0x3).unwrap()).with_short_prefix(sp(0x3)));

    bus.queue(0, Message::new(addr(0x3), vec![1])).unwrap();
    bus.queue(0, Message::new(addr(0x2), vec![0; 64])).unwrap();
    bus.queue(2, Message::new(addr(0xE), vec![2])).unwrap();
    bus.queue_unchecked(0, Message::new(addr(0x3), vec![0; 2000]))
        .unwrap();
    bus.request_wakeup(1).unwrap();
    bus.queue(2, Message::new(addr(0x1), vec![3])).unwrap();

    let records = bus.run_until_quiescent();
    assert!(records.len() >= 5);
    let outcomes: Vec<TxOutcome> = records.iter().map(|r| r.outcome).collect();
    assert!(outcomes.contains(&TxOutcome::Acked));
    assert!(outcomes.contains(&TxOutcome::ReceiverAbort));
    assert!(outcomes.contains(&TxOutcome::LengthEnforced));
    assert!(bus.run_transaction().is_none(), "bus fully idle afterwards");
}

#[test]
fn detector_tolerates_glitch_bursts_during_normal_traffic() {
    // Two DATA edges between clock edges (the §4.3 hand-off glitch
    // case) must never assert the detector; three must.
    let mut det = InterjectionDetector::new();
    for _ in 0..1_000 {
        det.on_data_edge(Edge::Falling);
        det.on_data_edge(Edge::Rising);
        det.on_clk_edge(Edge::Rising);
        assert!(!det.is_asserted());
    }
    det.on_data_edge(Edge::Falling);
    det.on_data_edge(Edge::Rising);
    det.on_data_edge(Edge::Falling);
    assert!(det.is_asserted());
}

#[test]
fn zero_length_flood_terminates() {
    let mut bus = wire_bus(3);
    for _ in 0..20 {
        bus.queue(0, Message::new(addr(0x2), vec![])).unwrap();
    }
    let records = bus.run_until_quiescent(MAX_EVENTS);
    assert_eq!(records.len(), 20);
    assert!(records.iter().all(|r| r.cycles == 19));
    assert_eq!(bus.take_rx(1).len(), 20);
}
