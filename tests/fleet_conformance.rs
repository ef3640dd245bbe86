//! Fleet conformance suite: the gateway-bridged multi-bus layer must
//! behave identically on every [`mbus_core::BusEngine`] implementation.
//!
//! Where `tests/engine_conformance.rs` pins each engine to the
//! single-bus contract, this suite pins the *fleet* semantics: a
//! cross-cluster message produces the same [`FleetSignature`] on every
//! engine kind (analytic and wire, via the shared `tests/common`
//! helper), forwarding into a power-gated destination
//! cluster wakes it exactly as a local transmission would (gated bus
//! controllers charged once per transaction, per the shared accounting),
//! and a 100+-node fleet — population no single 14-prefix bus can hold —
//! runs deterministically on every engine.

mod common;

use mbus_core::fleet::{Fleet, FleetNodeId, FleetWorkload, GATEWAY_NODE};
use mbus_core::{BusConfig, EngineKind, FuId};

/// A two-cluster fleet: cluster 0 carries an always-on reporter,
/// cluster 1 carries two power-gated sensors.
fn bridged_pair(kind: EngineKind) -> (Fleet, FleetNodeId, FleetNodeId, FleetNodeId) {
    let mut fleet = Fleet::new(kind, BusConfig::default());
    let a = fleet.add_cluster();
    let b = fleet.add_cluster();
    let reporter = fleet.add_sensor(a, false);
    let gated_dest = fleet.add_sensor(b, true);
    let gated_bystander = fleet.add_sensor(b, true);
    (fleet, reporter, gated_dest, gated_bystander)
}

#[test]
fn cross_cluster_message_produces_identical_signatures() {
    let w = FleetWorkload::new("crosscheck", BusConfig::default())
        .cluster(vec![false, false])
        .cluster(vec![false, true])
        .send_remote(
            FleetNodeId::new(0, 1),
            FleetNodeId::new(1, 2),
            FuId::ZERO,
            vec![0xCA, 0xFE],
        )
        .drain();
    let reports = common::fleet_crosscheck_all_engines(&w);
    let signatures: Vec<_> = reports.iter().map(|report| report.signature()).collect();
    assert_eq!(signatures[0].forwarded, 1);
    assert_eq!(signatures[0].dropped, 0);
    // The destination cluster saw exactly the forwarded delivery.
    assert_eq!(signatures[0].clusters[1].deliveries[2].len(), 1);
    assert_eq!(
        signatures[0].clusters[1].deliveries[2][0].payload,
        vec![0xCA, 0xFE]
    );
}

#[test]
fn forwarding_wakes_a_power_gated_destination_cluster() {
    // §4.3–4.4 through the gateway: the forwarded transaction's
    // arbitration edges wake every gated bus controller on the
    // destination bus once (PR 2 accounting), the destination's layer
    // powers up for delivery, and the always-on gateway presence is
    // never charged a wake.
    for kind in EngineKind::ALL {
        let (mut fleet, reporter, gated_dest, gated_bystander) = bridged_pair(kind);
        assert!(!fleet.layer_on(gated_dest), "{kind}: boots gated");
        fleet
            .queue_remote(reporter, gated_dest, FuId::ZERO, vec![0x42])
            .unwrap();
        let records = fleet.run_until_quiescent();
        assert_eq!(records.len(), 2, "{kind}: envelope leg + forwarded leg");
        assert_eq!(
            (records[0].cluster, records[1].cluster),
            (0, 1),
            "{kind}: store-and-forward ordering"
        );

        // Delivered while gated, then re-gated.
        let rx = fleet.take_rx(gated_dest);
        assert_eq!(rx.len(), 1, "{kind}");
        assert_eq!(rx[0].payload, vec![0x42], "{kind}");
        assert_eq!(rx[0].from, GATEWAY_NODE, "{kind}: gateway transmitted");
        assert!(
            !fleet.layer_on(gated_dest),
            "{kind}: re-gated after delivery"
        );

        // Source bus: no gated members, no wakes.
        let src_stats = fleet.stats(0);
        assert_eq!(src_stats.transactions, 1, "{kind}");
        assert_eq!(src_stats.bus_ctl_wakes, vec![0, 0], "{kind}");
        assert_eq!(src_stats.layer_wakes, vec![0, 0], "{kind}");

        // Destination bus: one forwarded transaction; each gated bus
        // controller charged exactly once, the destination's layer woke
        // once, the bystander's layer stayed down, and the always-on
        // gateway presence was charged nothing.
        let dst_stats = fleet.stats(1);
        assert_eq!(dst_stats.transactions, 1, "{kind}");
        assert_eq!(
            dst_stats.bus_ctl_wakes,
            vec![0, 1, 1],
            "{kind}: gateway uncharged, each gated controller woken once"
        );
        assert_eq!(dst_stats.layer_wakes, vec![0, 1, 0], "{kind}");
        assert_eq!(fleet.wake_events(gated_bystander), 0, "{kind}");
    }
}

#[test]
fn hundred_node_fleet_matches_across_engines() {
    // The acceptance bar: a fleet well past the single-bus 14-node
    // limit, deterministic on every engine with matching signatures.
    let w = FleetWorkload::cross_storm(8, 12, 1);
    assert!(w.total_nodes() >= 100, "{} nodes", w.total_nodes());

    let reports = common::fleet_crosscheck_all_engines(&w);
    let analytic = &reports[0];
    assert_eq!(analytic.total_nodes(), 8 * 13);
    assert_eq!(
        analytic.forwarded,
        8 * 12,
        "every message crossed the gateway"
    );
    assert_eq!(analytic.dropped, 0);

    // Determinism: the same workload replays bit-identically.
    assert_eq!(
        analytic.signature(),
        w.run_on(EngineKind::Analytic).signature()
    );
}

#[test]
fn fleet_record_interleaving_is_engine_independent() {
    // Stronger than per-cluster signatures: for a strict-null workload
    // the full scheduler-ordered (cluster, record) stream must match
    // across every engine kind, pinning the epoch schedule itself.
    let w = FleetWorkload::cross_storm(3, 2, 2);
    let reports = common::fleet_crosscheck_all_engines(&w);
    for report in &reports[1..] {
        assert_eq!(reports[0].records, report.records, "{}", report.kind);
    }
}

#[test]
fn seeded_fleets_agree_across_engines() {
    // The fleet-level fuzzer (cross-cluster destinations, priority
    // envelopes, unroutable envelopes, wakeups, gated senders,
    // mid-epoch partial drains) cross-checked against the
    // edge-accurate engine whenever the seed is wire-comparable
    // (partial-drain seeds run analytic-only here; the schedule
    // batteries cover their stepped drains).
    for seed in 0..common::scaled_seeds(24) {
        common::fleet_crosscheck_all_engines(&FleetWorkload::seeded(seed));
    }
}

#[test]
fn gateway_drop_attribution_is_engine_independent() {
    // The per-cluster drop counter in FleetSignature: engines must
    // agree not just on how many envelopes vanished but on which bus's
    // gateway presence dropped them. Two unroutable envelopes received
    // on cluster 1, none anywhere else.
    let unroutable = mbus_core::fleet::GatewayNode::encapsulate(
        mbus_core::FullPrefix::new(0x8F00D).unwrap(),
        FuId::ZERO,
        &[0x99],
    );
    let port = mbus_core::Address::short(mbus_core::ShortPrefix::new(0x1).unwrap(), FuId::ZERO);
    let mut w = FleetWorkload::new("drop_attribution", BusConfig::default())
        .cluster(vec![false])
        .cluster(vec![false, false]);
    for sensor in 1..=2 {
        w = w.send_local(
            FleetNodeId::new(1, sensor),
            mbus_core::Message::new(port, unroutable.clone()),
        );
    }
    let reports = common::fleet_crosscheck_all_engines(&w);
    let signature = reports[0].signature();
    assert_eq!(signature.dropped, 2);
    assert_eq!(
        signature.cluster_drops,
        vec![0, 2],
        "attributed to cluster 1"
    );
    assert_eq!(signature.forwarded, 0);
    // And a signature that differs only in drop attribution must not
    // compare equal: the counter is load-bearing in conformance.
    let mut tampered = signature.clone();
    tampered.cluster_drops = &[2, 0];
    assert_ne!(signature, tampered);
}

#[test]
fn seeded_fleets_are_reproducible_over_200_seeds() {
    for seed in 0..common::scaled_seeds(200) {
        let w = FleetWorkload::seeded(seed);
        let a = w.run_on(EngineKind::Analytic);
        let b = w.run_on(EngineKind::Analytic);
        assert_eq!(
            a.signature(),
            b.signature(),
            "{} not reproducible",
            w.name()
        );
        assert_eq!(a.forwarded, b.forwarded, "{}", w.name());
    }
}

#[test]
fn aggregation_pattern_collects_every_cluster_on_all_engines() {
    // sense_and_aggregate: gated sensors report locally, aggregators
    // send one cross-cluster message each; the collector must hold one
    // aggregate per cluster per round, identically on every engine.
    let (clusters, sensors, rounds) = (3, 3, 2);
    let w = FleetWorkload::sense_and_aggregate(clusters, sensors, rounds);
    let mut reports = common::fleet_crosscheck_all_engines(&w);
    for report in &mut reports {
        let kind = report.kind;
        assert_eq!(
            report.forwarded as usize,
            clusters * rounds,
            "{kind}: one aggregate per cluster per round"
        );
        let collector_rx = &report.rx[0][1];
        let aggregates = collector_rx
            .iter()
            .filter(|m| m.from == GATEWAY_NODE || m.dest.wire_bits() == 32)
            .count();
        assert!(
            aggregates >= (clusters - 1) * rounds,
            "{kind}: collector saw {aggregates} forwarded aggregates"
        );
    }
}
