//! The interleaved fleet drain: a single-shard [`ShardedFleet`] — one
//! [`InterleavedScheduler`] stepping one transaction per cluster per
//! round, the serving schedule for thousands of buses on one thread.
//!
//! Every [`FleetSchedule`] runs this drive on one or more shards and
//! emits the same [`FleetRecord`]s in the same round-robin order, so
//! the suite pins the drive itself: a golden fold of the seeded fleet
//! battery's [`FleetSignature`] digests (most seeds stop mid-epoch with
//! partial drains, which no twin engine covers), the round-robin order
//! itself, engine-independence of the record stream, store-and-forward
//! causality, and the scheduler's counters across drives.
//!
//! [`FleetRecord`]: mbus_core::FleetRecord
//! [`FleetSchedule`]: mbus_core::FleetSchedule
//! [`FleetSignature`]: mbus_core::FleetSignature
//! [`InterleavedScheduler`]: mbus_core::InterleavedScheduler
//! [`ShardedFleet`]: mbus_core::ShardedFleet

mod common;

use mbus_core::fleet::{Fleet, FleetNodeId, ShardedFleet};
use mbus_core::trace::fleet_digest;
use mbus_core::{BusConfig, EngineKind, FleetReport, FleetSchedule, FleetWorkload, FuId};

/// `common::fold_digests` of the `fleet_digest` of
/// `FleetWorkload::seeded(0..200)` on the analytic engine. Minted while
/// a second, cluster-major record order still ran beside this one and
/// was checked against it.
const SEEDED_FLEET_DIGEST_PIN: u64 = 0x4f7e_6e19_7996_efaa;

#[test]
fn seeded_fleets_fold_to_the_golden_digest() {
    // A fixed 200 seeds, not scaled: the pin is over exactly these.
    // Most of them draw partial drains (`drain-rounds`), which no twin
    // engine covers.
    let fold = common::fold_digests((0..200).map(|seed| {
        fleet_digest(
            &FleetWorkload::seeded(seed)
                .run_on(EngineKind::Analytic)
                .signature(),
        )
    }));
    assert_eq!(
        fold, SEEDED_FLEET_DIGEST_PIN,
        "seeded 0..200 fleet digest fold drifted"
    );
}

#[test]
fn interleaved_schedule_is_engine_independent() {
    // The interleaved record stream (cluster-tagged, in round-robin
    // emission order) must be identical on every engine kind.
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
fn round_robin_emission_order_alternates_clusters() {
    // The one record order, pinned: two clusters, two local messages
    // each. Every schedule alternates the clusters instead of finishing
    // cluster 0 before touching cluster 1.
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
    for schedule in [
        FleetSchedule::Batched,
        FleetSchedule::Interleaved,
        FleetSchedule::Sharded { shards: 2 },
    ] {
        let report = w.run_scheduled_on(EngineKind::Analytic, schedule);
        let order: Vec<usize> = report.records.iter().map(|fr| fr.cluster).collect();
        assert_eq!(order, vec![0, 1, 0, 1], "{schedule}");
    }
}

#[test]
fn interleaved_scheduler_handles_cross_cluster_causality() {
    // Store-and-forward through the gateway under the interleaved
    // schedule: the envelope leg runs in one epoch, the barrier routes
    // it, the forwarded leg runs on the destination bus next epoch —
    // and a power-gated destination is woken exactly as the single-bus
    // engines guarantee.
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
