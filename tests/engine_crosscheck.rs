//! Cross-checks the MBus engines against each other through the
//! engine-generic scenario layer: every workload is defined *once* and
//! executed on every `EngineKind` — the transaction-level
//! `AnalyticBus` (the §6.1 cycle budget) and the edge-accurate
//! `WireEngine`; the normalized [`ScenarioSignature`]s — records,
//! winners, deliveries, outcomes, control bits, wake accounting — must
//! be identical.
//!
//! [`ScenarioSignature`]: mbus_core::scenario::ScenarioSignature

mod common;

use mbus_core::{
    timing, Address, BroadcastChannel, BusConfig, EngineKind, FuId, FullPrefix, Message, NodeSet,
    NodeSpec, ScenarioReport, ShortPrefix, TxOutcome, Workload,
};

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

fn addr(x: u8) -> Address {
    Address::short(sp(x), FuId::ZERO)
}

/// A plain `n`-node ring (no power gating) as a workload base.
fn ring(n: usize) -> Workload {
    let mut w = Workload::new(format!("ring{n}"), BusConfig::default());
    for i in 0..n {
        w = w.node(
            NodeSpec::new(format!("n{i}"), FullPrefix::new(0x300 + i as u32).unwrap())
                .with_short_prefix(sp((i + 1) as u8)),
        );
    }
    w
}

/// Runs `workload` on every engine kind, asserts signature equality
/// (the shared helper), and returns the `(analytic, wire)` reports for
/// extra, scenario-specific assertions.
fn crosscheck(workload: &Workload) -> (ScenarioReport, ScenarioReport) {
    let mut reports = common::crosscheck_all_engines(workload);
    assert_eq!(reports.len(), EngineKind::ALL.len());
    let wire = reports.remove(1);
    let analytic = reports.remove(0);
    assert_eq!(analytic.kind, EngineKind::Analytic);
    assert_eq!(wire.kind, EngineKind::Wire);
    (analytic, wire)
}

#[test]
fn paper_suite_agrees() {
    // All five paper scenarios — sense-and-send, monitor-alert, storm,
    // enumeration churn, fault injection — from one definition each.
    for workload in Workload::paper_suite() {
        crosscheck(&workload);
    }
}

#[test]
fn cycle_counts_agree_across_payload_sizes() {
    for payload in [0usize, 1, 2, 7, 8, 16, 64, 200] {
        let msg = Message::new(addr(0x2), vec![0x3C; payload]);
        let workload = ring(3).send(0, msg.clone());
        let (analytic, _) = crosscheck(&workload);
        assert_eq!(analytic.records.len(), 1, "payload {payload}");
        assert_eq!(
            analytic.records[0].cycles,
            timing::transaction_cycles(&msg) as u64,
            "payload {payload}"
        );
    }
}

#[test]
fn full_address_cycles_agree() {
    let dest = Address::full(FullPrefix::new(0x302).unwrap(), FuId::ZERO);
    let workload = ring(3).send(0, Message::new(dest, vec![9; 12]));
    let (analytic, wire) = crosscheck(&workload);
    assert_eq!(analytic.records[0].cycles, 43 + 96);
    assert_eq!(wire.rx[2][0].payload, vec![9; 12]);
}

#[test]
fn arbitration_order_agrees_under_contention() {
    // Nodes 3, 1, 2 all want to talk to node 0 (queued out of ring
    // order); topological priority must serve 1, 2, 3.
    let mut workload = ring(4);
    for i in [3usize, 1, 2] {
        workload = workload.send(i, Message::new(addr(0x1), vec![i as u8]));
    }
    let (analytic, _) = crosscheck(&workload);
    let order: Vec<u8> = analytic.rx[0].iter().map(|m| m.payload[0]).collect();
    assert_eq!(order, vec![1, 2, 3], "topological order");
    let winners: Vec<_> = analytic.records.iter().filter_map(|r| r.winner).collect();
    assert_eq!(winners, vec![1, 2, 3]);
}

#[test]
fn priority_claim_agrees() {
    let workload = ring(4)
        .send(1, Message::new(addr(0x1), vec![0x0B]))
        .send(3, Message::new(addr(0x1), vec![0x0C]).with_priority());
    let (analytic, _) = crosscheck(&workload);
    let order: Vec<u8> = analytic.rx[0].iter().map(|m| m.payload[0]).collect();
    assert_eq!(order, vec![0x0C, 0x0B], "priority message first");
}

#[test]
fn broadcast_fanout_agrees() {
    let workload = ring(5).send(
        0,
        Message::new(
            Address::broadcast(BroadcastChannel::CONFIGURATION),
            vec![0x11],
        ),
    );
    let (analytic, wire) = crosscheck(&workload);
    assert_eq!(analytic.records[0].delivered_to, NodeSet::from_iter(1..5));
    for node in 1..5 {
        assert_eq!(wire.rx[node].len(), 1, "wire node {node}");
    }
    assert!(analytic.rx[0].is_empty(), "sender does not hear itself");
}

#[test]
fn null_transaction_cycles_agree() {
    let workload = ring(3).wakeup(2);
    let (analytic, wire) = crosscheck(&workload);
    assert_eq!(analytic.records.len(), 1);
    assert!(analytic.records[0].is_null());
    assert_eq!(analytic.records[0].cycles, 11);
    assert_eq!(wire.wake_events[2], 1);
    assert_eq!(wire.wake_events[1], 0);
}

#[test]
fn runaway_enforcement_agrees() {
    let workload = ring(3).send_unchecked(0, Message::new(addr(0x2), vec![0; 1500]));
    let (analytic, wire) = crosscheck(&workload);
    assert_eq!(analytic.records[0].cycles, 19 + 8 * 1024 + 1);
    assert_eq!(analytic.records[0].outcome, TxOutcome::LengthEnforced);
    assert!(wire.rx[1].is_empty(), "cut message is not delivered");
}

#[test]
fn receiver_abort_cycles_agree() {
    let workload = Workload::new("rx_abort", BusConfig::default())
        .node(NodeSpec::new("n0", FullPrefix::new(0x300).unwrap()).with_short_prefix(sp(1)))
        .node(
            NodeSpec::new("n1", FullPrefix::new(0x301).unwrap())
                .with_short_prefix(sp(2))
                .with_rx_buffer(16),
        )
        .node(NodeSpec::new("n2", FullPrefix::new(0x302).unwrap()).with_short_prefix(sp(3)))
        .send(0, Message::new(addr(0x2), vec![0x44; 100]));
    let (analytic, _) = crosscheck(&workload);
    assert_eq!(analytic.records[0].cycles, 19 + 8 * 16 + 1);
    assert_eq!(analytic.records[0].outcome, TxOutcome::ReceiverAbort);
    assert!(analytic.records[0].control.is_error());
}

#[test]
fn unmatched_address_naks_on_both() {
    let workload = ring(3).send(0, Message::new(addr(0xD), vec![1, 2]));
    let (analytic, _) = crosscheck(&workload);
    assert_eq!(analytic.records[0].outcome, TxOutcome::NoDestination);
    assert!(analytic.records[0].control.is_end_of_message());
    assert!(!analytic.records[0].control.is_acked());
    assert!(analytic.records[0].delivered_to.is_empty());
}

#[test]
fn power_wake_accounting_agrees() {
    let mut workload = Workload::new("wakes", BusConfig::default());
    for i in 0..3u32 {
        let spec = NodeSpec::new(format!("n{i}"), FullPrefix::new(0x300 + i).unwrap())
            .with_short_prefix(sp((i + 1) as u8))
            .power_aware(i > 0);
        workload = workload.node(spec);
    }
    let workload = workload.send(0, Message::new(addr(0x2), vec![0x01]));
    // Signature equality covers layer wakes; spot-check the §4.4 claim:
    // only the destination powers past its bus controller.
    let (analytic, wire) = crosscheck(&workload);
    assert_eq!(analytic.stats.layer_wakes[1], 1);
    assert_eq!(wire.stats.layer_wakes[1], 1);
    assert_eq!(analytic.stats.layer_wakes[2], 0);
    assert_eq!(wire.stats.layer_wakes[2], 0);
}

#[test]
fn back_to_back_stream_cycles_agree() {
    let mut workload = ring(3);
    for i in 0..10u8 {
        workload = workload.send(0, Message::new(addr(0x3), vec![i; (i as usize % 5) + 1]));
    }
    let (analytic, wire) = crosscheck(&workload);
    assert_eq!(analytic.total_cycles(), wire.total_cycles());
    assert_eq!(analytic.rx[2].len(), 10);
}

#[test]
fn storm_scales_to_the_fourteen_node_limit() {
    crosscheck(&Workload::many_node_storm(14, 2));
}

#[test]
fn storm_agrees_at_every_population_from_two_to_ten() {
    // Every ring size up to the paper's ten-chip stack (§6), not just
    // the fourteen-node limit above.
    for n in 2..=10 {
        crosscheck(&Workload::many_node_storm(n, 2));
    }
}

#[test]
fn oversized_message_to_small_buffer_cuts_at_the_receiver() {
    // Hostile-traffic overlap case: when a runaway message targets a
    // small-buffer receiver, the receiver's abort (one bit past its
    // buffer) fires long before the mediator's 1024-byte runaway
    // counter — all engines must attribute the cut to the receiver.
    let workload = Workload::new("runaway_vs_rx_buffer", BusConfig::default())
        .node(NodeSpec::new("n0", FullPrefix::new(0x300).unwrap()).with_short_prefix(sp(1)))
        .node(
            NodeSpec::new("n1", FullPrefix::new(0x301).unwrap())
                .with_short_prefix(sp(2))
                .with_rx_buffer(8),
        )
        .send_unchecked(0, Message::new(addr(0x2), vec![0x5A; 1500]));
    let (analytic, _) = crosscheck(&workload);
    assert_eq!(analytic.records[0].outcome, TxOutcome::ReceiverAbort);
    assert_eq!(analytic.records[0].cycles, 19 + 8 * 8 + 1);
    assert!(analytic.rx[1].is_empty());
}

#[test]
fn back_to_back_overrun_bursts_agree() {
    // Hostile traffic: several deliveries queued to one small-buffer
    // destination before any drain — fits and overruns interleave, and
    // the record stream (including each abort's cycle count) must be
    // identical on every engine.
    let mut workload = Workload::new("rx_burst", BusConfig::default())
        .node(NodeSpec::new("n0", FullPrefix::new(0x310).unwrap()).with_short_prefix(sp(1)))
        .node(
            NodeSpec::new("tiny", FullPrefix::new(0x311).unwrap())
                .with_short_prefix(sp(2))
                .with_rx_buffer(8),
        )
        .node(NodeSpec::new("n2", FullPrefix::new(0x312).unwrap()).with_short_prefix(sp(3)));
    for len in [2usize, 20, 8, 64, 1] {
        workload = workload.send(0, Message::new(addr(0x2), vec![len as u8; len]));
        workload = workload.send(2, Message::new(addr(0x2), vec![0xC0; len.min(9)]));
    }
    let (analytic, _) = crosscheck(&workload);
    let aborts = analytic
        .records
        .iter()
        .filter(|r| r.outcome == TxOutcome::ReceiverAbort)
        .count();
    assert_eq!(aborts, 4, "the 20-, 64-, and two 9-byte messages overran");
    assert_eq!(analytic.rx[1].len(), 6, "the fitting messages delivered");
}

#[test]
fn mid_drain_queueing_pins_the_analytic_delivery_order() {
    // Hostile traffic: a partial drain stops the bus with a message
    // still pending, then more traffic (including a priority claim)
    // arrives mid-drain. The wire engine legally runs ahead of
    // `run_transaction` (trait contract), so only the analytic engine
    // is comparable; the golden digest fold in
    // `tests/analytic_batching.rs` covers its kernel paths.
    let workload = ring(4)
        .send(1, Message::new(addr(0x1), vec![0x11]))
        .send(1, Message::new(addr(0x1), vec![0x12]))
        .drain_partial(1)
        .send(3, Message::new(addr(0x1), vec![0x33]).with_priority())
        .send(2, Message::new(addr(0x1), vec![0x22]))
        .drain();
    assert!(!workload.wire_comparable());
    assert_eq!(
        common::comparable_kinds(&workload),
        vec![EngineKind::Analytic]
    );
    let report = workload.run_on(EngineKind::Analytic);
    // The priority message queued mid-drain preempts the remainder.
    let order: Vec<u8> = report.rx[0].iter().map(|m| m.payload[0]).collect();
    assert_eq!(order, vec![0x11, 0x33, 0x12, 0x22]);
}

#[test]
fn gated_transmitter_wake_nulls_are_the_only_divergence() {
    // The documented engine difference: a power-gated transmitter
    // self-wakes with a null transaction at the wire level. The
    // non-null record streams still agree (that is what the relaxed
    // signature checks); additionally the wire run must contain
    // exactly one more record than the analytic run here.
    let workload = Workload::sense_and_send(1);
    let (analytic, wire) = crosscheck(&workload);
    let nulls = |r: &ScenarioReport| r.records.iter().filter(|r| r.is_null()).count();
    assert_eq!(nulls(&analytic), 0, "analytic folds the self-wake away");
    assert_eq!(nulls(&wire), 1, "wire self-wakes the gated sensor once");
}
