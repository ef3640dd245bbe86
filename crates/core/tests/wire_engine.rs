//! Wire-level engine tests: the edge-accurate FSMs must reproduce the
//! paper's protocol behavior (Figs. 5–7) and the §6.1 cycle budget.

use mbus_core::wire::{WireBus, WireBusBuilder};
use mbus_core::{
    Address, BroadcastChannel, BusConfig, ControlBits, FuId, FullPrefix, Message, NodeSpec,
    ShortPrefix, TxOutcome,
};

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

fn addr(x: u8) -> Address {
    Address::short(sp(x), FuId::ZERO)
}

/// cpu(0, 0x1) + sensor(1, 0x2, power-aware) + radio(2, 0x3, power-aware)
fn three_node_bus() -> WireBus {
    WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("cpu", FullPrefix::new(0x00001).unwrap()).with_short_prefix(sp(0x1)))
        .node(
            NodeSpec::new("sensor", FullPrefix::new(0x00002).unwrap())
                .with_short_prefix(sp(0x2))
                .power_aware(true),
        )
        .node(
            NodeSpec::new("radio", FullPrefix::new(0x00003).unwrap())
                .with_short_prefix(sp(0x3))
                .power_aware(true),
        )
        .build()
}

#[test]
fn simple_send_delivers_payload() {
    let mut bus = three_node_bus();
    let records = bus.send_and_run(0, addr(0x2), vec![0xDE, 0xAD]).unwrap();
    assert_eq!(records.len(), 1);
    let rx = bus.take_rx(1);
    assert_eq!(rx.len(), 1);
    assert_eq!(rx[0].payload, vec![0xDE, 0xAD]);
    assert_eq!(rx[0].dest, addr(0x2));
    assert_eq!(bus.take_outcomes(0), vec![TxOutcome::Acked]);
}

#[test]
fn measured_cycles_match_the_19_plus_8n_budget() {
    // §6.1: overhead is 19 cycles for short addresses, independent of
    // message length.
    for n in [0usize, 1, 4, 8, 32] {
        let mut bus = three_node_bus();
        let records = bus.send_and_run(0, addr(0x2), vec![0xA5; n]).unwrap();
        assert_eq!(records.len(), 1, "payload {n}");
        assert_eq!(
            records[0].cycles,
            (19 + 8 * n) as u64,
            "payload {n}: wire-level cycle count must match the paper"
        );
        assert!(records[0].control.unwrap().is_acked());
    }
}

#[test]
fn full_addresses_cost_43_cycles() {
    let mut bus = three_node_bus();
    let dest = Address::full(FullPrefix::new(0x00003).unwrap(), FuId::ZERO);
    let records = bus.send_and_run(0, dest, vec![0x42; 4]).unwrap();
    assert_eq!(records[0].cycles, 43 + 32);
    let rx = bus.take_rx(2);
    assert_eq!(rx.len(), 1);
    assert_eq!(rx[0].payload, vec![0x42; 4]);
}

#[test]
fn empty_payload_message_works() {
    let mut bus = three_node_bus();
    let records = bus.send_and_run(0, addr(0x3), vec![]).unwrap();
    assert_eq!(records[0].cycles, 19);
    let rx = bus.take_rx(2);
    assert_eq!(rx.len(), 1);
    assert!(rx[0].payload.is_empty());
}

#[test]
fn member_to_member_transfer_forwards_through_ring() {
    // sensor (1) -> radio (2): the message passes the wrap through the
    // mediator for the ACK path.
    let mut bus = three_node_bus();
    let records = bus.send_and_run(1, addr(0x3), vec![1, 2, 3]).unwrap();
    // The sleeping sensor first runs a null transaction to wake itself,
    // then the real transfer.
    assert_eq!(records.len(), 2);
    assert!(records[0].null_transaction);
    assert!(!records[1].null_transaction);
    assert_eq!(records[1].cycles, 19 + 24);
    assert_eq!(bus.take_rx(2)[0].payload, vec![1, 2, 3]);
}

#[test]
fn awake_member_sends_without_null_transaction() {
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("cpu", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(NodeSpec::new("mem", FullPrefix::new(0x2).unwrap()).with_short_prefix(sp(0x2)))
        .build();
    let records = bus.send_and_run(1, addr(0x1), vec![9]).unwrap();
    assert_eq!(records.len(), 1);
    assert!(!records[0].null_transaction);
    assert_eq!(bus.take_rx(0)[0].payload, vec![9]);
}

#[test]
fn arbitration_prefers_topologically_first_requester() {
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(NodeSpec::new("b", FullPrefix::new(0x2).unwrap()).with_short_prefix(sp(0x2)))
        .node(NodeSpec::new("c", FullPrefix::new(0x3).unwrap()).with_short_prefix(sp(0x3)))
        .build();
    // Both b and c want to send to a; b is topologically first.
    bus.queue(1, Message::new(addr(0x1), vec![0xBB])).unwrap();
    bus.queue(2, Message::new(addr(0x1), vec![0xCC])).unwrap();
    let records = bus.run_until_quiescent();
    assert_eq!(records.len(), 2);
    let rx = bus.take_rx(0);
    assert_eq!(rx.len(), 2);
    assert_eq!(rx[0].payload, vec![0xBB], "b wins the first arbitration");
    assert_eq!(rx[1].payload, vec![0xCC], "c retries and wins the second");
}

#[test]
fn priority_round_claims_bus_from_topological_winner() {
    // Fig. 5's scenario: a low-topological-priority node uses the
    // priority round to claim the bus.
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(NodeSpec::new("b", FullPrefix::new(0x2).unwrap()).with_short_prefix(sp(0x2)))
        .node(NodeSpec::new("c", FullPrefix::new(0x3).unwrap()).with_short_prefix(sp(0x3)))
        .build();
    bus.queue(1, Message::new(addr(0x1), vec![0xBB])).unwrap();
    bus.queue(2, Message::new(addr(0x1), vec![0xCC]).with_priority())
        .unwrap();
    let records = bus.run_until_quiescent();
    assert_eq!(records.len(), 2);
    let rx = bus.take_rx(0);
    assert_eq!(rx[0].payload, vec![0xCC], "priority message goes first");
    assert_eq!(rx[1].payload, vec![0xBB]);
}

#[test]
fn broadcast_reaches_all_subscribers() {
    let mut bus = three_node_bus();
    let dest = Address::broadcast(BroadcastChannel::CONFIGURATION);
    bus.queue(0, Message::new(dest, vec![0x11, 0x22])).unwrap();
    bus.run_until_quiescent();
    assert_eq!(bus.take_rx(1).len(), 1);
    assert_eq!(bus.take_rx(2).len(), 1);
    assert!(bus.take_rx(0).is_empty(), "sender does not receive itself");
}

#[test]
fn broadcast_channel_filtering() {
    let ch7 = BroadcastChannel::new(7).unwrap();
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(
            NodeSpec::new("b", FullPrefix::new(0x2).unwrap())
                .with_short_prefix(sp(0x2))
                .listen(ch7),
        )
        .node(NodeSpec::new("c", FullPrefix::new(0x3).unwrap()).with_short_prefix(sp(0x3)))
        .build();
    bus.queue(0, Message::new(Address::broadcast(ch7), vec![7]))
        .unwrap();
    bus.run_until_quiescent();
    assert_eq!(bus.take_rx(1).len(), 1, "subscriber hears channel 7");
    assert!(bus.take_rx(2).is_empty(), "non-subscriber ignores it");
}

#[test]
fn unmatched_address_reads_nak() {
    let mut bus = three_node_bus();
    let records = bus.send_and_run(0, addr(0xE), vec![1]).unwrap();
    let ctl = records[0].control.unwrap();
    assert!(ctl.is_end_of_message());
    assert!(!ctl.is_acked(), "nobody drives the ACK low");
    assert_eq!(bus.take_outcomes(0), vec![TxOutcome::Nacked]);
}

#[test]
fn null_transaction_wakes_node_and_costs_11_cycles() {
    let mut bus = three_node_bus();
    assert!(!bus.layer_on(2));
    bus.request_wakeup(2).unwrap();
    let records = bus.run_until_quiescent();
    assert_eq!(records.len(), 1);
    assert!(records[0].null_transaction);
    assert_eq!(records[0].cycles, 11, "3 arb + 5 interjection + 3 control");
    assert_eq!(records[0].control, Some(ControlBits::GENERAL_ERROR));
    assert_eq!(bus.wake_events(2), 1);
    assert_eq!(bus.wake_events(1), 0);
}

#[test]
fn power_oblivious_delivery_wakes_only_destination() {
    let mut bus = three_node_bus();
    assert!(!bus.layer_on(1) && !bus.layer_on(2));
    bus.send_and_run(0, addr(0x2), vec![0x55]).unwrap();
    assert_eq!(bus.take_rx(1).len(), 1);
    assert_eq!(bus.layer_wakes(1), 1, "destination layer woke");
    assert_eq!(bus.layer_wakes(2), 0, "bystander layer stayed gated");
    assert!(
        bus.bus_ctl_wakes(2) >= 1,
        "bystander bus controller woke for addressing"
    );
    // Power-aware nodes re-gate after the transaction (standby).
    assert!(!bus.layer_on(1));
    assert!(!bus.bus_ctl_on(1));
}

#[test]
fn receiver_buffer_overrun_aborts_mid_message() {
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(
            NodeSpec::new("tiny", FullPrefix::new(0x2).unwrap())
                .with_short_prefix(sp(0x2))
                .with_rx_buffer(8),
        )
        .build();
    let records = bus.send_and_run(0, addr(0x2), vec![0; 64]).unwrap();
    assert_eq!(records.len(), 1);
    let ctl = records[0].control.unwrap();
    assert!(ctl.is_error(), "receiver abort reads as general error");
    // 19 + 8×8 allowed bytes + 1 excess bit.
    assert_eq!(records[0].cycles, 19 + 64 + 1);
    assert!(
        bus.take_rx(1).is_empty(),
        "aborted message is not delivered"
    );
    assert_eq!(bus.take_outcomes(0), vec![TxOutcome::ReceiverAbort]);
}

#[test]
fn mediator_runaway_counter_kills_endless_message() {
    let mut bus = three_node_bus();
    // 1.5 kB into a 1 kB-limited bus, bypassing the polite check.
    bus.queue_unchecked(0, Message::new(addr(0x2), vec![0; 1536]))
        .unwrap();
    let records = bus.run_until_quiescent();
    assert_eq!(records.len(), 1);
    assert!(records[0].runaway, "mediator enforced the length limit");
    assert_eq!(records[0].cycles, 19 + 8 * 1024 + 1);
    assert!(bus.take_rx(1).is_empty());
    assert_eq!(bus.take_outcomes(0), vec![TxOutcome::ReceiverAbort]);
}

#[test]
fn exactly_max_length_message_is_fine() {
    let mut bus = three_node_bus();
    let records = bus.send_and_run(0, addr(0x2), vec![0x77; 1024]).unwrap();
    assert!(!records[0].runaway);
    assert_eq!(records[0].cycles, 19 + 8 * 1024);
    assert_eq!(bus.take_rx(1)[0].payload.len(), 1024);
}

#[test]
fn back_to_back_messages_from_one_node() {
    let mut bus = three_node_bus();
    for i in 0..5u8 {
        bus.queue(0, Message::new(addr(0x2), vec![i])).unwrap();
    }
    let records = bus.run_until_quiescent();
    assert_eq!(records.len(), 5);
    let rx = bus.take_rx(1);
    assert_eq!(rx.len(), 5);
    for (i, r) in rx.iter().enumerate() {
        assert_eq!(r.payload, vec![i as u8], "in-order delivery");
    }
}

#[test]
fn wire_time_matches_cycle_budget() {
    // Wall-clock sanity: (19 + 8n) cycles at 400 kHz.
    let mut bus = three_node_bus();
    let records = bus.send_and_run(0, addr(0x2), vec![0; 8]).unwrap();
    let span = records[0].idle_at - records[0].clock_start;
    let period = bus.config().clock_period();
    assert_eq!(span.as_ps(), period.as_ps() * (19 + 64));
}

#[test]
fn glitches_resolve_before_latch_edges() {
    // The paper (Fig. 5 caption): momentary glitches from drive/forward
    // hand-off resolve before the next rising clock edge. If they did
    // not, payload integrity would break — so hammer the bus with
    // varied payloads and verify exact delivery.
    let mut bus = three_node_bus();
    let payloads: Vec<Vec<u8>> = vec![
        vec![0x00; 16],
        vec![0xFF; 16],
        vec![0xAA; 16],
        vec![0x55; 16],
        (0..=255u8).collect(),
    ];
    for p in &payloads {
        bus.queue(0, Message::new(addr(0x3), p.clone())).unwrap();
    }
    bus.run_until_quiescent();
    let rx = bus.take_rx(2);
    assert_eq!(rx.len(), payloads.len());
    for (got, want) in rx.iter().zip(&payloads) {
        assert_eq!(&got.payload, want);
    }
}

#[test]
fn fourteen_node_ring_operates() {
    // The maximum short-addressed population (§4.7).
    let mut builder = WireBusBuilder::new(BusConfig::default());
    for i in 0..14 {
        builder = builder.node(
            NodeSpec::new(format!("n{i}"), FullPrefix::new(0x100 + i).unwrap())
                .with_short_prefix(sp((i + 1) as u8)),
        );
    }
    let mut bus = builder.build();
    // Farthest node sends to the first.
    let records = bus.send_and_run(13, addr(0x1), vec![0xEE]).unwrap();
    assert_eq!(records.last().unwrap().cycles, 19 + 8);
    assert_eq!(bus.take_rx(0)[0].payload, vec![0xEE]);
}
