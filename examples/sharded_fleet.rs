//! Sharded fleet demo: groups of interleaved buses on worker threads,
//! synchronized at gateway barriers.
//!
//! Four parts:
//!
//! 1. Build a 12-cluster analytic fleet with a cross-cluster ring
//!    of traffic and drain it with a [`ShardedFleet`] across 4
//!    workers, printing the per-shard transaction split and the
//!    fairness gauges.
//! 2. Show the equivalence contract live: the sharded record stream is
//!    bit-identical to the single-threaded interleaved drain — not
//!    just per cluster, the whole fleet-wide order.
//! 3. Run a workload through every [`FleetSchedule`] (batched,
//!    interleaved, sharded at several widths) and verify one shared
//!    [`FleetSignature`](mbus_core::FleetSignature).
//! 4. Drain a skewed workload: each cluster stays on its fixed shard
//!    (`c % workers`), so every shard's transaction count is its
//!    clusters' sum, and the record stream matches the single-shard
//!    drain bit for bit.
//!
//! Run with: `cargo run --release --example sharded_fleet`

use mbus_core::fleet::{Fleet, FleetNodeId, ShardedFleet};
use mbus_core::{BusConfig, EngineKind, FleetSchedule, FleetWorkload, FuId};

fn ring_fleet(clusters: usize) -> Result<(Fleet, Vec<FleetNodeId>), Box<dyn std::error::Error>> {
    let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
    let mut sensors = Vec::new();
    for _ in 0..clusters {
        let c = fleet.add_cluster();
        sensors.push(fleet.add_sensor(c, false));
    }
    // Every cluster's sensor reports to the next cluster around the
    // ring, so every bus transmits an envelope and receives a
    // forwarded leg.
    for (c, &src) in sensors.iter().enumerate() {
        let dest = sensors[(c + 1) % clusters];
        fleet.queue_remote(src, dest, FuId::ZERO, vec![0xD0 | c as u8])?;
    }
    Ok((fleet, sensors))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Shard a fleet across worker threads. --------------------
    let clusters = 12;
    let workers = 4;
    let (mut fleet, sensors) = ring_fleet(clusters)?;
    let mut sharded = ShardedFleet::new(workers);
    let mut order = Vec::new();
    sharded.drive(&mut fleet, &mut |record| order.push(record.cluster));
    println!(
        "{clusters} buses drained across {workers} workers: {} transactions in {} epochs",
        sharded.transactions(),
        sharded.epochs(),
    );
    for (s, scheduler) in sharded.shard_schedulers().iter().enumerate() {
        println!(
            "  shard {s}: {} transactions, max turn gap {}",
            scheduler.transactions(),
            scheduler.max_turn_gap(),
        );
    }
    let fairness = sharded.fairness(clusters);
    println!(
        "  merged fairness: per-cluster txns {:?}, starvation gauge {}, hog {}",
        fairness.cluster_transactions,
        fairness.max_turn_gap,
        fairness.max_cluster_epoch_transactions,
    );
    for &s in &sensors {
        assert_eq!(fleet.take_rx(s).len(), 1, "every ring hop delivered");
    }

    // --- 2. Bit-identical to the single-threaded interleave. --------
    let (mut reference, _) = ring_fleet(clusters)?;
    let mut want = Vec::new();
    ShardedFleet::new(1).drive(&mut reference, &mut |record| want.push(record.cluster));
    println!("\nfleet-wide emission order (first 12): {:?}", &order[..12]);
    assert_eq!(want, order, "sharded order == single-threaded round-robin");
    println!("sharded stream identical to the single-threaded interleave: true");

    // --- 3. One signature across every schedule. --------------------
    let w = FleetWorkload::cross_storm(6, 3, 2);
    let reference = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Batched);
    for schedule in [
        FleetSchedule::Interleaved,
        FleetSchedule::Sharded { shards: 2 },
        FleetSchedule::Sharded { shards: 5 },
    ] {
        let report = w.run_scheduled_on(EngineKind::Analytic, schedule);
        assert_eq!(reference.signature(), report.signature(), "{schedule}");
        println!("schedule {schedule}: signature identical to batched");
    }

    // --- 4. One fixed cluster-to-shard map. ------------------------
    // Sense-and-aggregate funnels every reading to cluster 0, so the
    // load is skewed; cluster `c` still runs on shard `c % workers`,
    // and the stream matches the single-shard drain exactly.
    let hot = FleetWorkload::sense_and_aggregate(9, 3, 3);
    let single = hot.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
    let mut mapped = ShardedFleet::new(3);
    let report = hot.run_sharded_on(EngineKind::Analytic, &mut mapped);
    assert_eq!(single.records, report.records, "the map never moves a bit");
    let fairness = report.fairness.as_ref().expect("sharded drains report");
    println!("\nskewed aggregation drive, cluster c on shard c % 3:");
    for (s, &n) in fairness.shard_transactions.iter().enumerate() {
        let clusters: Vec<usize> = (s..9).step_by(3).collect();
        let sum: u64 = clusters
            .iter()
            .map(|&c| fairness.cluster_transactions[c])
            .sum();
        assert_eq!(n, sum, "shard {s} runs exactly clusters {clusters:?}");
        println!("  shard {s} runs clusters {clusters:?}: {n} transactions");
    }
    Ok(())
}
