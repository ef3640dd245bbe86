//! Sharded-fleet conformance: the multi-threaded sharded drain
//! ([`ShardedFleet`]) must be **bit-identical** to the single-threaded
//! interleaved drain — full fleet-wide record stream, per-cluster
//! [`FleetSignature`] content (records, deliveries, wake accounting),
//! and merged gateway counters (forwarded, dropped, per-cluster drop
//! attribution) — for every engine kind and every shard count.
//!
//! The equivalence argument lives in `mbus_core::fleet::shard`'s
//! module docs: workers issue each cluster the same autonomous-drain
//! call sequence the single-threaded scheduler would, a cluster's
//! `j`-th transaction of an epoch always lands in round `j`, so the
//! barrier's `(round, cluster)` merge reproduces the round-robin
//! order, and the per-shard gateway counters are sums that merge
//! order-independently. This suite pins all of it over hundreds of
//! seeded fleets (which include unroutable envelopes and mid-epoch
//! partial drains) at shard counts {1, 2, 4, 7} — spanning one-worker
//! degeneration, even splits, ragged splits, and more workers than
//! clusters.
//!
//! [`FleetSignature`]: mbus_core::FleetSignature
//! [`ShardedFleet`]: mbus_core::ShardedFleet

mod common;

use mbus_core::behavior::with_return_address;
use mbus_core::fleet::{Fleet, FleetNodeId, GatewayNode, ShardedFleet, GATEWAY_NODE};
use mbus_core::{
    Address, BusConfig, EngineKind, FleetSchedule, FleetWorkload, FuId, FullPrefix, Message,
    NodeBehavior, ShortPrefix,
};

/// The acceptance-bar shard counts: degenerate, even, ragged, and
/// larger than most seeded fleets' cluster counts.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

#[test]
fn seeded_fleets_shard_equivalently_over_200_seeds() {
    // The analytic engine over the full seed battery: for each
    // seed, the single-threaded interleaved drain is the reference and
    // every shard count must reproduce it bit for bit.
    for seed in 0..common::scaled_seeds(200) {
        let w = FleetWorkload::seeded(seed);
        let reference = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
        for shards in SHARD_COUNTS {
            common::sharded_crosscheck(&w, EngineKind::Analytic, &reference, shards);
        }
    }
}

#[test]
fn seeded_fleets_shard_equivalently_on_the_wire_engine() {
    // The edge-accurate engine over the same 200-seed battery.
    // Sharded-vs-interleaved is a *same-kind* comparison, so even
    // seeds with partial drains (not wire-comparable across kinds)
    // must agree here: every schedule issues the identical per-cluster
    // call sequence.
    for seed in 0..common::scaled_seeds(200) {
        let w = FleetWorkload::seeded(seed);
        let reference = w.run_scheduled_on(EngineKind::Wire, FleetSchedule::Interleaved);
        for shards in SHARD_COUNTS {
            common::sharded_crosscheck(&w, EngineKind::Wire, &reference, shards);
        }
    }
}

#[test]
fn partial_drains_preserve_schedule_independence() {
    // Interleaved ≡ sharded still holds when the workload stops
    // mid-epoch and queues into part-drained buses
    // (FleetStep::RunRounds) — each cluster runs exactly
    // min(rounds, pending) transactions under every schedule.
    let mut w = FleetWorkload::new("partial/handmade", BusConfig::default())
        .cluster(vec![false, false])
        .cluster(vec![false, false])
        .cluster(vec![false]);
    let dst = FleetNodeId::new(2, 1);
    for c in 0..2 {
        for j in 1..=2 {
            w = w.send_remote(
                FleetNodeId::new(c, j),
                dst,
                FuId::ZERO,
                vec![c as u8, j as u8],
            );
        }
    }
    // Stop after one round, then pile more traffic onto half-drained
    // buses before the full drain.
    w = w.drain_rounds(1);
    for c in 0..2 {
        w = w.send_remote(FleetNodeId::new(c, 1), dst, FuId::ZERO, vec![0xEE, c as u8]);
    }
    assert!(!w.wire_comparable(), "partial drains gate wire cross-kind");

    for kind in EngineKind::ALL {
        let interleaved = w.run_scheduled_on(kind, FleetSchedule::Interleaved);
        for shards in SHARD_COUNTS {
            common::sharded_crosscheck(&w, kind, &interleaved, shards);
        }
    }
}

#[test]
fn sharded_gateway_drops_attribute_to_the_receiving_cluster() {
    // Unroutable envelopes queued on different clusters: the merged
    // per-cluster drop counters must attribute each drop to the bus
    // whose gateway presence received it, identically at every shard
    // count.
    for kind in EngineKind::ALL {
        let mut reports = Vec::new();
        for &shards in &[0usize, 2, 7] {
            let mut fleet = Fleet::new(kind, BusConfig::default());
            for _ in 0..4 {
                let c = fleet.add_cluster();
                fleet.add_sensor(c, false);
            }
            let port = Address::short(ShortPrefix::new(0x1).unwrap(), FuId::ZERO);
            for c in [0usize, 2, 2] {
                let envelope = GatewayNode::encapsulate(
                    FullPrefix::new(0x8BAD0 + c as u32).unwrap(),
                    FuId::ZERO,
                    &[c as u8],
                );
                fleet
                    .queue(FleetNodeId::new(c, 1), Message::new(port, envelope))
                    .unwrap();
            }
            // Zero shards clamps to one: the single-threaded interleave.
            ShardedFleet::new(shards).drive(&mut fleet, &mut |_| {});
            reports.push((
                fleet.gateway().forwarded(),
                fleet.gateway().dropped(),
                (0..4)
                    .map(|c| fleet.gateway().dropped_on(c))
                    .collect::<Vec<_>>(),
            ));
        }
        for r in &reports[1..] {
            assert_eq!(&reports[0], r, "{kind}");
        }
        assert_eq!(reports[0].1, 3, "{kind}: all three envelopes dropped");
        assert_eq!(
            reports[0].2,
            vec![1, 0, 2, 0],
            "{kind}: attributed per cluster"
        );
    }
}

#[test]
fn wide_fleet_shards_with_ragged_and_oversized_counts() {
    // 32 clusters / 96 nodes: even splits, ragged splits (5 workers x
    // 7-cluster chunks), and more workers than clusters all reproduce
    // the single-threaded stream.
    let w = FleetWorkload::sense_and_aggregate(32, 2, 2);
    let reference = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
    assert!(reference.total_nodes() > 90);
    for shards in [2usize, 5, 8, 32, 64] {
        common::sharded_crosscheck(&w, EngineKind::Analytic, &reference, shards);
    }
}

#[test]
fn sharded_fairness_counters_are_consistent() {
    // The fairness report: per-cluster transaction totals must equal
    // the record stream's per-cluster counts (schedule-independent),
    // and the round-robin starvation gauge is bounded by the widest
    // shard's simultaneously active cluster count.
    let w = FleetWorkload::cross_storm(6, 2, 3);
    for shards in [1usize, 3] {
        let report = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Sharded { shards });
        let fairness = report.fairness.as_ref().expect("sharded drains report");
        for c in 0..6 {
            let counted = report.records.iter().filter(|r| r.cluster == c).count() as u64;
            assert_eq!(
                fairness.cluster_transactions[c], counted,
                "shards={shards} cluster {c}"
            );
        }
        let widest_shard = 6usize.div_ceil(shards) as u64;
        assert!(
            fairness.max_turn_gap < widest_shard,
            "shards={shards}: gap {} vs shard width {widest_shard}",
            fairness.max_turn_gap
        );
        assert!(fairness.epochs > 0, "shards={shards}");
        assert!(
            fairness.max_cluster_epoch_transactions >= 1,
            "shards={shards}"
        );
    }
}

#[test]
fn rebalance_schedules_produce_identical_merged_streams() {
    // The spawn-mode axis: workers kept across drives or spawned per
    // epoch yield the identical merged stream and signature on every
    // engine kind and shard count, including more shards than
    // clusters.
    let w = FleetWorkload::cross_storm(7, 2, 2);
    for kind in EngineKind::ALL {
        let reference = w.run_scheduled_on(kind, FleetSchedule::Interleaved);
        for shards in [2usize, 4, 7, 13] {
            let mut sharded = ShardedFleet::new(shards);
            let report = w.run_sharded_on(kind, &mut sharded);
            assert_eq!(reference.records, report.records, "{kind} shards={shards}");
            assert_eq!(
                reference.signature(),
                report.signature(),
                "{kind} shards={shards}"
            );
            let mut spawned = ShardedFleet::per_epoch_spawn(shards);
            let report = w.run_sharded_on(kind, &mut spawned);
            assert_eq!(
                reference.records, report.records,
                "{kind} shards={shards} per-epoch spawn"
            );
        }
    }
}

#[test]
fn each_cluster_runs_on_its_fixed_shard() {
    // sense_and_aggregate funnels every reading to cluster 0, so the
    // load is skewed; the cluster-to-shard map ignores load all the
    // same. Cluster `c` runs on shard `c % shards`, so each shard's
    // transaction gauge is exactly the sum of its clusters' counts,
    // and the stream stays bit-identical to the single-shard drain.
    let w = FleetWorkload::sense_and_aggregate(9, 3, 3);
    let reference = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
    let weights = &reference.fairness.as_ref().unwrap().cluster_transactions;
    assert!(
        weights[1..].iter().all(|&w| weights[0] > 3 * w),
        "cluster 0 is the clear hot spot: {weights:?}"
    );
    for shards in [2usize, 3, 4] {
        let mut sharded = ShardedFleet::new(shards);
        let report = w.run_sharded_on(EngineKind::Analytic, &mut sharded);
        assert_eq!(reference.records, report.records, "shards={shards}");
        let fairness = report.fairness.as_ref().expect("sharded drains report");
        assert_eq!(&fairness.cluster_transactions, weights, "shards={shards}");
        let by_map: Vec<u64> = (0..shards)
            .map(|s| weights.iter().skip(s).step_by(shards).sum())
            .collect();
        assert_eq!(
            fairness.shard_transactions, by_map,
            "shards={shards}: cluster c runs on shard c % shards"
        );
        assert_eq!(
            fairness.shard_transactions.iter().sum::<u64>(),
            sharded.transactions(),
            "per-shard gauges cover every transaction"
        );
    }
}

#[test]
fn per_epoch_spawn_baseline_stays_conformant_over_seeds() {
    // A smaller battery for the spawn-per-epoch baseline mode, so the
    // bench's comparison shape stays pinned to the same bit-identity
    // contract as workers kept across drives.
    for seed in 0..common::scaled_seeds(40) {
        let w = FleetWorkload::seeded(seed);
        let reference = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
        for shards in [2usize, 4] {
            let mut spawned = ShardedFleet::per_epoch_spawn(shards);
            let report = w.run_sharded_on(EngineKind::Analytic, &mut spawned);
            assert_eq!(reference.records, report.records, "seed={seed}");
            assert_eq!(reference.signature(), report.signature(), "seed={seed}");
        }
    }
}

#[test]
fn sharded_scheduler_reuse_reports_per_shard() {
    // One ShardedFleet instance across two drives: totals accumulate,
    // and the per-shard schedulers expose their own slices of the
    // work.
    let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
    for _ in 0..6 {
        let c = fleet.add_cluster();
        fleet.add_sensor(c, false);
    }
    let mut sharded = ShardedFleet::new(3);
    for round in 0..2u8 {
        for c in 0..6 {
            fleet
                .queue_remote(
                    FleetNodeId::new(c, 1),
                    FleetNodeId::new((c + 1) % 6, 1),
                    FuId::ZERO,
                    vec![round, c as u8],
                )
                .unwrap();
        }
        sharded.drive(&mut fleet, &mut |_| {});
    }
    // 6 envelope legs + 6 forwarded legs per drive.
    assert_eq!(sharded.transactions(), 24);
    assert_eq!(sharded.shard_schedulers().len(), 3);
    let per_shard: Vec<u64> = sharded
        .shard_schedulers()
        .iter()
        .map(|s| s.transactions())
        .collect();
    assert_eq!(per_shard, vec![8, 8, 8], "two clusters per shard");
    // Every sensor got its neighbor's messages; the gateway rx logs
    // stayed clean.
    for c in 0..6 {
        assert_eq!(fleet.take_rx(FleetNodeId::new(c, 1)).len(), 2);
        assert!(fleet.take_rx(FleetNodeId::new(c, GATEWAY_NODE)).is_empty());
    }
}

/// Interleaved ≡ sharded {2, 7} on both engine kinds. Every
/// schedule polls only the pending set, so a cluster the set misses
/// never runs under any of them; what catches it is the debug-build
/// check at the end of every drive (and of every drive that finds
/// nothing pending), which panics if any cluster still has work.
fn assert_schedules_agree(w: &FleetWorkload) {
    for kind in EngineKind::ALL {
        let interleaved = w.run_scheduled_on(kind, FleetSchedule::Interleaved);
        for shards in [2, 7] {
            common::sharded_crosscheck(w, kind, &interleaved, shards);
        }
    }
}

#[test]
fn pending_set_covers_a_wakeup_on_an_idle_cluster() {
    // `Fleet::request_wakeup` must mark its cluster: cluster 2 has no
    // queued traffic, only the interrupt.
    let w = FleetWorkload::new("pending/wakeup", BusConfig::default())
        .cluster(vec![false])
        .cluster(vec![false])
        .cluster(vec![true, false])
        .send_remote(
            FleetNodeId::new(0, 1),
            FleetNodeId::new(1, 1),
            FuId::ZERO,
            vec![1],
        )
        .drain()
        .wakeup(FleetNodeId::new(2, 1))
        .drain();
    // Strict nulls: the wakeup's null transaction is in the signature.
    assert!(w.strict_nulls());
    assert_schedules_agree(&w);
}

#[test]
fn pending_set_keeps_a_partly_drained_cluster_until_a_drive() {
    // `drain-rounds 1` runs cluster 0's only envelope leg, so cluster
    // 0 has no work left — but its gateway still holds the unrouted
    // envelope. The next drain brings no new traffic to cluster 0 and
    // must still route it: a partial drain clears nothing.
    let w = FleetWorkload::new("pending/partial", BusConfig::default())
        .cluster(vec![false])
        .cluster(vec![false])
        .cluster(vec![false, false])
        .send_remote(
            FleetNodeId::new(0, 1),
            FleetNodeId::new(1, 1),
            FuId::ZERO,
            vec![0xA0],
        )
        .drain_rounds(1)
        .send_local(
            FleetNodeId::new(2, 1),
            Message::new(
                Address::short(ShortPrefix::new(0x3).unwrap(), FuId::ZERO),
                vec![0xB0],
            ),
        )
        .drain();
    assert_schedules_agree(&w);
}

#[test]
fn pending_set_follows_forwarded_legs_and_replies_to_idle_clusters() {
    // Cluster 0 asks cluster 1, naming cluster 2's sensor as the
    // return address. The forwarded request lands on cluster 1 and
    // the behavior reply's forwarded leg on cluster 2, both idle until
    // then: the barrier and the reply's `Fleet::queue` must mark them.
    let reply_fu = FuId::new(0x3).unwrap();
    let topology = FleetWorkload::new("pending/reply", BusConfig::default())
        .cluster(vec![false])
        .cluster(vec![false])
        .cluster(vec![false]);
    let return_to = topology
        .instantiate(EngineKind::Analytic)
        .spec(FleetNodeId::new(2, 1))
        .full_prefix();
    let w = topology
        .behavior(
            FleetNodeId::new(1, 1),
            NodeBehavior::Reply {
                fu: reply_fu,
                payload: vec![0xAC],
            },
        )
        .send_remote(
            FleetNodeId::new(0, 1),
            FleetNodeId::new(1, 1),
            FuId::ZERO,
            with_return_address(return_to, reply_fu, &[0x01]),
        )
        .drain();
    let report = w.run_on(EngineKind::Analytic);
    assert_eq!(report.injected_replies, 1);
    assert_eq!(report.rx[2][1].len(), 1, "the reply reached cluster 2");
    assert_schedules_agree(&w);
}
