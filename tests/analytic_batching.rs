//! Differential suite for the analytic engine's transaction kernel.
//!
//! The kernel maintains its contender/priority/power bookkeeping
//! incrementally, and the [`BusEngine`] trait's provided
//! [`BusEngine::run_until_quiescent`] drains a whole batch of queued
//! work in one call by looping [`AnalyticBus::run_transaction`]. These
//! tests pin such *batched* drains to a hand-stepped replay —
//! *bit-identical* [`EngineRecord`] streams, statistics, and receive
//! logs — over hundreds of seeded random workloads
//! ([`Workload::seeded`]), across both arbitration policies and
//! power-aware/always-on node mixes, and cross-check the same seeds
//! across every `EngineKind`.
//!
//! The seeded generator draws the ROADMAP's hostile-traffic cases too:
//! oversized/runaway messages past the mediator's limit, back-to-back
//! deliveries overrunning small receive buffers, and mid-drain
//! queueing (partial drains followed by more traffic). The wire engine
//! may legally run ahead of `run_transaction` (see
//! `Workload::wire_comparable`), so mid-drain seeds are covered by this
//! suite's stepped-vs-batched battery alone, not by a twin engine;
//! every other seed is also cross-checked against the wire engine.
//!
//! Set `MBUS_SEED_SCALE` (the weekly CI cron uses 10) to sweep a
//! larger seed space with the same tests.

mod common;

use mbus_core::{
    AnalyticBus, ArbitrationPolicy, BusEngine, BusStats, EngineKind, EngineRecord, ReceivedMessage,
    Step, Workload,
};

/// Replays a workload's steps on a fresh `AnalyticBus`, draining either
/// by hand-stepping the inherent `run_transaction` or with one call to
/// the trait's provided `run_until_quiescent` through `dyn BusEngine`.
/// Partial drains ([`Step::RunTransactions`]) single-step in both
/// modes — what they add to this suite is drains *entered mid-queue*,
/// after earlier traffic was partially served and fresh traffic queued
/// on top.
fn replay(
    workload: &Workload,
    policy: ArbitrationPolicy,
    batched: bool,
) -> (Vec<EngineRecord>, BusStats, Vec<Vec<ReceivedMessage>>) {
    let mut bus = AnalyticBus::new(*workload.config()).with_arbitration_policy(policy);
    for spec in workload.node_specs() {
        bus.add_node(spec.clone());
    }
    let mut records = Vec::new();
    fn drain(bus: &mut AnalyticBus, records: &mut Vec<EngineRecord>, batched: bool) {
        if batched {
            let engine: &mut dyn BusEngine = bus;
            records.extend(engine.run_until_quiescent());
        } else {
            while let Some(r) = bus.run_transaction() {
                records.push(r);
            }
        }
    }
    for step in workload.steps() {
        match step {
            Step::Queue { node, msg } => bus.queue(*node, msg.clone()).expect("queue step"),
            Step::QueueUnchecked { node, msg } => bus
                .queue_unchecked(*node, msg.clone())
                .expect("queue_unchecked step"),
            Step::Wakeup { node } => bus.request_wakeup(*node).expect("wakeup step"),
            Step::Run => drain(&mut bus, &mut records, batched),
            Step::RunTransactions { count } => {
                for _ in 0..*count {
                    match bus.run_transaction() {
                        Some(r) => records.push(r),
                        None => break,
                    }
                }
            }
        }
    }
    drain(&mut bus, &mut records, batched);
    let rx = (0..bus.node_count()).map(|i| bus.take_rx(i)).collect();
    (records, bus.stats().clone(), rx)
}

#[test]
fn batched_drain_is_bit_identical_to_single_stepping_over_200_seeds() {
    for policy in [
        ArbitrationPolicy::FixedTopological,
        ArbitrationPolicy::Rotating,
    ] {
        for seed in 0..common::scaled_seeds(200) {
            let workload = Workload::seeded(seed);
            let (stepped, stepped_stats, stepped_rx) = replay(&workload, policy, false);
            let (batched, batched_stats, batched_rx) = replay(&workload, policy, true);
            assert_eq!(
                stepped,
                batched,
                "record streams diverged: {} under {policy:?}",
                workload.name()
            );
            assert_eq!(stepped_stats, batched_stats, "{} stats", workload.name());
            assert_eq!(stepped_rx, batched_rx, "{} rx logs", workload.name());
        }
    }
}

#[test]
fn batched_drain_matches_on_the_paper_suite() {
    // The hand-written paper scenarios (power-gated senders, interrupt
    // wakeups, overruns, runaways, enumeration broadcasts), stepped by
    // hand and drained in one call.
    for workload in Workload::paper_suite() {
        for policy in [
            ArbitrationPolicy::FixedTopological,
            ArbitrationPolicy::Rotating,
        ] {
            let (stepped, stepped_stats, stepped_rx) = replay(&workload, policy, false);
            let (batched, batched_stats, batched_rx) = replay(&workload, policy, true);
            assert_eq!(stepped, batched, "{} under {policy:?}", workload.name());
            assert_eq!(stepped_stats, batched_stats);
            assert_eq!(stepped_rx, batched_rx);
        }
    }
}

#[test]
fn seeded_workloads_agree_across_all_engines_over_200_wire_seeds() {
    // The seeded generator — hostile traffic included — cross-checked
    // on every engine kind through the shared helper: analytic ≡ wire
    // on every wire-comparable seed. The walk continues until at least
    // 200 seeds have been pinned against the edge-accurate engine
    // (mid-drain seeds can't be — the wire engine legally runs ahead —
    // so they are skipped here; the stepped-vs-batched tests above
    // cover them).
    let target = common::scaled_seeds(200);
    let mut wire_checked = 0u64;
    let mut seed = 0u64;
    while wire_checked < target {
        assert!(
            seed < 20 * target,
            "generator produced too few wire-comparable seeds \
             ({wire_checked}/{target} after {seed})"
        );
        let workload = Workload::seeded(seed);
        if workload.wire_comparable() {
            let reports = common::crosscheck_all_engines(&workload);
            assert_eq!(reports.len(), EngineKind::ALL.len());
            wire_checked += 1;
        }
        seed += 1;
    }
}

#[test]
fn seeded_hostile_traffic_arms_are_reachable() {
    // The generator must actually draw each hostile case in the first
    // seed block the batteries walk, or the suites above prove nothing.
    let mut oversized = 0u64;
    let mut overrun_capable = 0u64;
    let mut mid_drain = 0u64;
    for seed in 0..200u64 {
        let workload = Workload::seeded(seed);
        let max = workload.config().max_message_bytes();
        if workload
            .steps()
            .iter()
            .any(|s| matches!(s, Step::QueueUnchecked { msg, .. } if msg.len() > max))
        {
            oversized += 1;
        }
        if workload
            .node_specs()
            .iter()
            .any(|spec| spec.rx_buffer_bytes().is_some())
        {
            overrun_capable += 1;
        }
        if !workload.wire_comparable() {
            mid_drain += 1;
        }
    }
    assert!(oversized >= 20, "{oversized} seeds drew runaway messages");
    assert!(
        overrun_capable >= 50,
        "{overrun_capable} seeds carry rx-buffered nodes"
    );
    assert!(mid_drain >= 20, "{mid_drain} seeds drew partial drains");
}

#[test]
fn seeded_workloads_are_deterministic_per_seed() {
    for seed in [0u64, 7, 99] {
        let a = Workload::seeded(seed)
            .run_on(EngineKind::Analytic)
            .signature();
        let b = Workload::seeded(seed)
            .run_on(EngineKind::Analytic)
            .signature();
        assert_eq!(a, b);
    }
}
