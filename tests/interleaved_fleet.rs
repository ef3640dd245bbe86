//! Interleaved-vs-batched fleet equivalence: the interleaved drain (a
//! single-shard [`ShardedFleet`] — one [`InterleavedScheduler`]
//! stepping one transaction per cluster per round, the serving
//! schedule for thousands of buses on one thread) must produce the
//! *same per-cluster behavior* as the batched cluster-major drain.
//!
//! The contract, exactly as `mbus_core::fleet` documents it: both
//! schedules route gateway envelopes only at epoch barriers, so each
//! cluster performs the same autonomous drain either way —
//! per-cluster record streams, receive logs, wake accounting, and
//! gateway counters are identical, which makes [`FleetSignature`]
//! equality the single-line assertion. **How the fleet-wide
//! [`FleetRecord`] order may differ** is also pinned here: the batched
//! drain emits each epoch cluster-major (all of cluster 0's
//! transactions, then cluster 1's, …), the interleaved scheduler emits
//! the same transactions round-robin (every active cluster's first
//! transaction in cluster order, then every one's second, …). The
//! per-cluster subsequences of the two streams are equal; only the
//! merge order differs.
//!
//! [`FleetRecord`]: mbus_core::FleetRecord
//! [`FleetSignature`]: mbus_core::FleetSignature
//! [`InterleavedScheduler`]: mbus_core::InterleavedScheduler
//! [`ShardedFleet`]: mbus_core::ShardedFleet

mod common;

use mbus_core::fleet::{Fleet, FleetNodeId, ShardedFleet};
use mbus_core::{
    BusConfig, EngineKind, EngineRecord, FleetReport, FleetSchedule, FleetWorkload, FuId,
};

/// The records a report emitted on one cluster, in emission order.
fn per_cluster(report: &FleetReport, cluster: usize) -> Vec<EngineRecord> {
    report
        .records
        .iter()
        .filter(|r| r.cluster == cluster)
        .map(|r| r.record)
        .collect()
}

#[test]
fn seeded_fleets_interleave_equivalently_over_200_seeds() {
    // The satellite battery: on every seeded fleet workload the two
    // schedules must agree on per-cluster FleetSignatures (records,
    // deliveries, wakes, gateway counters) — and the full per-cluster
    // record subsequences of the raw streams must match too.
    for seed in 0..common::scaled_seeds(200) {
        let w = FleetWorkload::seeded(seed);
        let (batched, interleaved) = common::schedule_crosscheck(&w, EngineKind::Analytic);
        let clusters = w.cluster_specs().len();
        for c in 0..clusters {
            assert_eq!(
                per_cluster(&batched, c),
                per_cluster(&interleaved, c),
                "{} cluster {c}: per-cluster stream reordered",
                w.name()
            );
        }
        // Same multiset fleet-wide: the streams are permutations.
        assert_eq!(
            batched.records.len(),
            interleaved.records.len(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn interleaved_schedule_is_engine_independent() {
    // The interleaved record stream (cluster-tagged, in round-robin
    // emission order) must be identical on every engine kind, exactly
    // like the batched stream already is.
    let w = FleetWorkload::cross_storm(3, 3, 2);
    let reports: Vec<FleetReport> = EngineKind::ALL
        .iter()
        .map(|&kind| w.run_scheduled_on(kind, FleetSchedule::Interleaved))
        .collect();
    for report in &reports[1..] {
        assert_eq!(reports[0].records, report.records, "{}", report.kind);
        assert_eq!(
            reports[0].signature(),
            report.signature(),
            "{}",
            report.kind
        );
    }
}

#[test]
fn round_robin_emission_order_differs_cluster_major() {
    // Documents the exact reordering: two clusters, two local messages
    // each. The batched drain finishes cluster 0 before touching
    // cluster 1; the interleaved scheduler alternates.
    let mut w = FleetWorkload::new("order", BusConfig::default())
        .cluster(vec![false, false])
        .cluster(vec![false, false]);
    for c in 0..2 {
        for k in 0..2u8 {
            w = w.send_local(
                FleetNodeId::new(c, 1),
                mbus_core::Message::new(
                    mbus_core::Address::short(
                        mbus_core::ShortPrefix::new(0x3).unwrap(),
                        FuId::ZERO,
                    ),
                    vec![c as u8, k],
                ),
            );
        }
    }
    let (batched, interleaved) = common::schedule_crosscheck(&w, EngineKind::Analytic);
    let order = |r: &FleetReport| r.records.iter().map(|fr| fr.cluster).collect::<Vec<_>>();
    assert_eq!(order(&batched), vec![0, 0, 1, 1], "cluster-major");
    assert_eq!(order(&interleaved), vec![0, 1, 0, 1], "round-robin");
}

#[test]
fn interleaved_scheduler_handles_cross_cluster_causality() {
    // Store-and-forward through the gateway under the interleaved
    // schedule: the envelope leg runs in one epoch, the barrier routes
    // it, the forwarded leg runs on the destination bus next epoch —
    // and a power-gated destination is woken exactly as the batched
    // drain (and the single-bus engines) guarantee.
    for kind in EngineKind::ALL {
        let mut fleet = Fleet::new(kind, BusConfig::default());
        let a = fleet.add_cluster();
        let b = fleet.add_cluster();
        let src = fleet.add_sensor(a, false);
        let dst = fleet.add_sensor(b, true);
        fleet
            .queue_remote(src, dst, FuId::ZERO, vec![0x42])
            .unwrap();
        let mut records = Vec::new();
        ShardedFleet::new(1).drive(&mut fleet, &mut |r| records.push(r));
        assert_eq!(records.len(), 2, "{kind}: envelope + forwarded leg");
        assert_eq!(
            (records[0].cluster, records[1].cluster),
            (0, 1),
            "{kind}: store-and-forward ordering"
        );
        assert_eq!(fleet.gateway().forwarded(), 1, "{kind}");
        let rx = fleet.take_rx(dst);
        assert_eq!(rx.len(), 1, "{kind}: delivered while gated");
        assert_eq!(rx[0].payload, vec![0x42], "{kind}");
        assert!(!fleet.layer_on(dst), "{kind}: re-gated after delivery");
        let stats = fleet.stats(1);
        assert_eq!(stats.bus_ctl_wakes, vec![0, 1], "{kind}: one wake charged");
        assert_eq!(stats.layer_wakes, vec![0, 1], "{kind}");
    }
}

#[test]
fn scheduler_counters_and_reuse_across_drives() {
    // One single-shard ShardedFleet drives two fleets; counters accumulate
    // and the scheduler's active-list scratch is reused safely.
    let mut interleaved = ShardedFleet::new(1);
    for _ in 0..2 {
        let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
        let a = fleet.add_cluster();
        let b = fleet.add_cluster();
        let s0 = fleet.add_sensor(a, false);
        fleet.add_sensor(b, false);
        fleet
            .queue_remote(s0, FleetNodeId::new(1, 1), FuId::ZERO, vec![1, 2])
            .unwrap();
        let mut n = 0;
        interleaved.drive(&mut fleet, &mut |_| n += 1);
        assert_eq!(n, 2);
    }
    assert_eq!(interleaved.transactions(), 4);
    assert_eq!(interleaved.shard_schedulers()[0].transactions(), 4);
    // Two progress epochs per drive (envelope, then forwarded leg);
    // each drive ends once no cluster is pending — see the
    // `ShardedFleet::epochs` contract.
    assert_eq!(interleaved.epochs(), 4);
    // A drive over an already-quiescent fleet adds nothing: the
    // counter no longer inflates on back-to-back drives.
    let mut quiet = Fleet::new(EngineKind::Analytic, BusConfig::default());
    quiet.add_cluster();
    interleaved.drive(&mut quiet, &mut |_| {});
    interleaved.drive(&mut quiet, &mut |_| {});
    assert_eq!(interleaved.epochs(), 4);
}

#[test]
fn big_interleaved_fleet_matches_batched() {
    // A 100+-node fleet through both schedules on the analytic engine —
    // the shape the interleave bench runs at 4096 nodes.
    let w = FleetWorkload::sense_and_aggregate(16, 6, 2);
    assert!(w.total_nodes() > 100);
    let (batched, interleaved) = common::schedule_crosscheck(&w, EngineKind::Analytic);
    assert_eq!(batched.forwarded, interleaved.forwarded);
    assert_eq!(batched.transactions(), interleaved.transactions());
}
