//! Trait-conformance suite: one battery of observable-behavior checks,
//! executed against every [`BusEngine`] implementation through
//! `Box<dyn BusEngine>`. Where the cross-check suite compares the two
//! engines against *each other*, this suite pins each engine to the
//! documented contract on its own.

use mbus_core::{
    build_engine, timing, Address, BusConfig, BusEngine, EngineKind, FuId, FullPrefix, MbusError,
    Message, NodeSet, NodeSpec, ShortPrefix, TxOutcome,
};

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

fn addr(x: u8) -> Address {
    Address::short(sp(x), FuId::ZERO)
}

/// A fresh engine with a 3-node ring: mediator node, power-aware
/// sensor, power-aware radio.
fn engine_with_ring(kind: EngineKind) -> Box<dyn BusEngine> {
    let mut engine = build_engine(kind, BusConfig::default());
    engine.add_node(
        NodeSpec::new("cpu", FullPrefix::new(0x00001).unwrap()).with_short_prefix(sp(0x1)),
    );
    engine.add_node(
        NodeSpec::new("sensor", FullPrefix::new(0x00002).unwrap())
            .with_short_prefix(sp(0x2))
            .power_aware(true),
    );
    engine.add_node(
        NodeSpec::new("radio", FullPrefix::new(0x00003).unwrap())
            .with_short_prefix(sp(0x3))
            .power_aware(true),
    );
    engine
}

#[test]
fn kind_and_topology_accessors() {
    for kind in EngineKind::ALL {
        let mut engine = build_engine(kind, BusConfig::default());
        assert_eq!(engine.kind(), kind);
        assert_eq!(engine.node_count(), 0);
        let a = engine.add_node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()));
        let b = engine.add_node(NodeSpec::new("b", FullPrefix::new(0x2).unwrap()));
        assert_eq!((a, b), (0, 1), "{kind}: indices are sequential");
        assert_eq!(engine.node_count(), 2, "{kind}");
        assert_eq!(engine.spec(0).name(), "a", "{kind}");
        assert_eq!(engine.config().clock_hz(), 400_000, "{kind}");
    }
}

#[test]
fn idle_engine_runs_to_nothing() {
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        assert!(engine.run_transaction().is_none(), "{kind}");
        assert!(engine.run_until_quiescent().is_empty(), "{kind}");
        assert_eq!(engine.stats().transactions, 0, "{kind}");
    }
}

#[test]
fn unknown_node_is_rejected_everywhere() {
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        assert!(
            matches!(
                engine.queue(9, Message::new(addr(0x2), vec![])),
                Err(MbusError::UnknownNode { index: 9 })
            ),
            "{kind}: queue"
        );
        assert!(
            matches!(
                engine.queue_unchecked(7, Message::new(addr(0x2), vec![])),
                Err(MbusError::UnknownNode { index: 7 })
            ),
            "{kind}: queue_unchecked"
        );
        assert!(engine.request_wakeup(5).is_err(), "{kind}: wakeup");
    }
}

#[test]
fn oversized_messages_are_rejected_by_checked_queue() {
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        let oversized = Message::new(addr(0x2), vec![0; 2048]);
        assert!(
            matches!(
                engine.queue(0, oversized.clone()),
                Err(MbusError::MessageTooLong { .. })
            ),
            "{kind}"
        );
        // The unchecked path accepts it — and the mediator cuts it.
        engine.queue_unchecked(0, oversized).unwrap();
        let records = engine.run_until_quiescent();
        assert_eq!(records[0].outcome, TxOutcome::LengthEnforced, "{kind}");
    }
}

#[test]
fn queue_run_take_rx_roundtrip() {
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        let msg = Message::new(addr(0x2), vec![0xDE, 0xAD]);
        engine.queue(0, msg.clone()).unwrap();
        let record = engine.run_transaction().expect("one transaction");
        assert_eq!(record.seq, 0, "{kind}");
        assert_eq!(record.winner, Some(0), "{kind}");
        assert_eq!(record.delivered_to, NodeSet::from_iter([1]), "{kind}");
        assert_eq!(record.outcome, TxOutcome::Acked, "{kind}");
        assert_eq!(
            record.cycles,
            timing::transaction_cycles(&msg) as u64,
            "{kind}"
        );
        let rx = engine.take_rx(1);
        assert_eq!(rx.len(), 1, "{kind}");
        assert_eq!(rx[0].from, 0, "{kind}");
        assert_eq!(rx[0].dest, addr(0x2), "{kind}");
        assert_eq!(rx[0].payload, vec![0xDE, 0xAD], "{kind}");
        assert!(engine.take_rx(1).is_empty(), "{kind}: take_rx drains");
        assert!(engine.run_transaction().is_none(), "{kind}: idle again");
    }
}

#[test]
fn records_are_sequential_across_run_calls() {
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        for k in 0..3u8 {
            engine.queue(0, Message::new(addr(0x3), vec![k])).unwrap();
        }
        let first = engine.run_transaction().unwrap();
        let rest = engine.run_until_quiescent();
        let mut seqs = vec![first.seq];
        seqs.extend(rest.iter().map(|r| r.seq));
        assert_eq!(seqs, vec![0, 1, 2], "{kind}");
        assert_eq!(engine.take_rx(2).len(), 3, "{kind}");
    }
}

#[test]
fn wakeup_produces_one_wake_event() {
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        engine.request_wakeup(2).unwrap();
        let records = engine.run_until_quiescent();
        assert_eq!(records.len(), 1, "{kind}");
        assert!(records[0].is_null(), "{kind}");
        assert_eq!(records[0].cycles, 11, "{kind}");
        assert_eq!(engine.wake_events(2), 1, "{kind}");
        assert_eq!(engine.wake_events(1), 0, "{kind}");
    }
}

#[test]
fn power_oblivious_delivery_and_regating() {
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        assert!(!engine.layer_on(1), "{kind}: power-aware node boots gated");
        assert!(engine.layer_on(0), "{kind}: plain node boots powered");
        engine
            .queue(0, Message::new(addr(0x2), vec![0x55]))
            .unwrap();
        engine.run_until_quiescent();
        assert_eq!(engine.take_rx(1).len(), 1, "{kind}: delivered while gated");
        assert!(
            !engine.layer_on(1),
            "{kind}: power-aware node re-gates after the transaction"
        );
        let stats = engine.stats();
        assert_eq!(stats.layer_wakes[1], 1, "{kind}: destination woke once");
        assert_eq!(stats.layer_wakes[2], 0, "{kind}: bystander stayed gated");
    }
}

#[test]
fn stats_accumulate_identically_shaped_activity() {
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        engine
            .queue(0, Message::new(addr(0x2), vec![0; 8]))
            .unwrap();
        engine.run_until_quiescent();
        let stats = engine.stats();
        let bits = (19 + 64) as u64;
        assert_eq!(stats.transactions, 1, "{kind}");
        assert_eq!(stats.busy_cycles, bits, "{kind}");
        assert_eq!(stats.tx_bits[0], bits, "{kind}");
        assert_eq!(stats.rx_bits[1], bits, "{kind}");
        assert_eq!(stats.fwd_bits[2], bits, "{kind}");
    }
}

/// A ring with an always-on contender and a power-gated one, in both
/// topological orders.
fn mixed_power_ring(kind: EngineKind, gated_first: bool) -> Box<dyn BusEngine> {
    let mut engine = build_engine(kind, BusConfig::default());
    engine.add_node(
        NodeSpec::new("med", FullPrefix::new(0x00001).unwrap()).with_short_prefix(sp(0x1)),
    );
    let (a, b) = if gated_first {
        (true, false)
    } else {
        (false, true)
    };
    engine.add_node(
        NodeSpec::new("n1", FullPrefix::new(0x00002).unwrap())
            .with_short_prefix(sp(0x2))
            .power_aware(a),
    );
    engine.add_node(
        NodeSpec::new("n2", FullPrefix::new(0x00003).unwrap())
            .with_short_prefix(sp(0x3))
            .power_aware(b),
    );
    engine
}

#[test]
fn priority_round_is_restricted_to_contenders() {
    // §4.3–4.4: a gated node's bus controller is still being woken by
    // the transaction's own arbitration edges, so a queued priority
    // message cannot claim a transaction the node never contended for.
    // Both engines must serve the awake contender first.
    for kind in EngineKind::ALL {
        let mut engine = mixed_power_ring(kind, false); // node 2 gated
        engine
            .queue(1, Message::new(addr(0x1), vec![0xAA]))
            .unwrap();
        engine
            .queue(2, Message::new(addr(0x1), vec![0xBB]).with_priority())
            .unwrap();
        let records = engine.run_until_quiescent();
        let winners: Vec<_> = records.iter().filter_map(|r| r.winner).collect();
        assert_eq!(winners, vec![1, 2], "{kind}");
    }
}

#[test]
fn sleeping_requester_cannot_win_plain_arbitration() {
    // The same rule for the plain round: topological priority only
    // applies among nodes that could actually assert a request.
    for kind in EngineKind::ALL {
        let mut engine = mixed_power_ring(kind, true); // node 1 gated
        engine
            .queue(1, Message::new(addr(0x1), vec![0x11]))
            .unwrap();
        engine
            .queue(2, Message::new(addr(0x1), vec![0x22]))
            .unwrap();
        let records = engine.run_until_quiescent();
        let winners: Vec<_> = records.iter().filter_map(|r| r.winner).collect();
        assert_eq!(winners, vec![2, 1], "{kind}");
    }
}

#[test]
fn null_transactions_charge_gated_bus_controllers_on_both_engines() {
    // §4.4: a null transaction's arbitration edges clock the ring like
    // any other transaction, so every gated bus controller — requester
    // and bystander alike — is woken (and charged) once. The engines
    // must account identically.
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind); // nodes 1 and 2 gated
        engine.request_wakeup(2).unwrap();
        let records = engine.run_until_quiescent();
        assert_eq!(records.len(), 1, "{kind}");
        assert!(records[0].is_null(), "{kind}");
        let stats = engine.stats();
        assert_eq!(
            stats.bus_ctl_wakes,
            vec![0, 1, 1],
            "{kind}: requester AND gated bystander each woke once"
        );
        assert_eq!(stats.layer_wakes, vec![0, 0, 1], "{kind}: requester only");
        assert_eq!(engine.wake_events(2), 1, "{kind}");
    }
}

#[test]
fn bus_ctl_wake_accounting_is_per_transaction_on_both_engines() {
    // Two back-to-back message transactions re-gate and re-wake a
    // power-aware bystander each time: one bus_ctl wake per
    // transaction, no layer wakes, on both engines.
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        engine
            .queue(0, Message::new(addr(0x2), vec![1, 2]))
            .unwrap();
        engine
            .queue(0, Message::new(addr(0x2), vec![3, 4]))
            .unwrap();
        let records = engine.run_until_quiescent();
        assert_eq!(records.len(), 2, "{kind}");
        let stats = engine.stats();
        assert_eq!(
            stats.bus_ctl_wakes,
            vec![0, 2, 2],
            "{kind}: every gated controller woken once per transaction"
        );
        assert_eq!(
            stats.layer_wakes,
            vec![0, 2, 0],
            "{kind}: only the destination's layer powers past the bus ctl"
        );
    }
}

#[test]
fn self_waking_node_still_receives_broadcasts() {
    // §4.4 power-oblivious delivery: a gated node whose self-wake rides
    // a broadcast transaction must still latch and deliver it — its bus
    // controller is awake by the addressing phase on both engines.
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        engine.request_wakeup(1).unwrap();
        engine
            .queue(
                0,
                Message::new(
                    Address::broadcast(mbus_core::BroadcastChannel::CONFIGURATION),
                    vec![0x77],
                ),
            )
            .unwrap();
        let records = engine.run_until_quiescent();
        assert_eq!(records.len(), 1, "{kind}: wake piggybacks, no null");
        assert_eq!(
            records[0].delivered_to,
            NodeSet::from_iter([1, 2]),
            "{kind}"
        );
        assert_eq!(engine.take_rx(1).len(), 1, "{kind}");
        assert_eq!(engine.wake_events(1), 1, "{kind}");
    }
}

#[test]
fn freeze_state_is_observable_before_add_node_panics() {
    // The `BusEngine::is_frozen` contract: true exactly when
    // `add_node` would panic, so schedulers check instead of catching
    // panics. Only the wire engine ever freezes (at its first
    // queue/wakeup/run); the analytic engine accepts nodes forever.
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        assert!(!engine.is_frozen(), "{kind}: fresh ring is open");
        engine
            .queue(0, Message::new(addr(0x2), vec![0x01]))
            .unwrap();
        engine.run_until_quiescent();
        if kind == EngineKind::Wire {
            assert!(engine.is_frozen(), "{kind}: traffic froze the ring");
            let mut frozen = engine;
            assert!(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    frozen.add_node(NodeSpec::new("late", FullPrefix::new(0x9).unwrap()));
                }))
                .is_err(),
                "{kind}: is_frozen == true must mean add_node panics"
            );
        } else {
            assert!(!engine.is_frozen(), "{kind}: never freezes");
            let late = engine.add_node(NodeSpec::new("late", FullPrefix::new(0x9).unwrap()));
            assert_eq!(late, 3, "{kind}: late add still works");
        }
    }
}

#[test]
fn virtual_time_advances_monotonically() {
    for kind in EngineKind::ALL {
        let mut engine = engine_with_ring(kind);
        let t0 = engine.now();
        engine.queue(0, Message::new(addr(0x2), vec![1])).unwrap();
        engine.run_until_quiescent();
        let t1 = engine.now();
        assert!(t1 > t0, "{kind}: time moved across a transaction");
        engine.queue(0, Message::new(addr(0x2), vec![2])).unwrap();
        engine.run_until_quiescent();
        assert!(engine.now() > t1, "{kind}");
    }
}
