//! Interleaved fleet driver: thousands of analytic buses on ONE
//! thread — then tens of thousands across the sharded runtime.
//!
//! Instead of taking each cluster bus to quiescence in turn, this
//! bin exercises the serving shape: every cluster runs on an
//! `AnalyticBus` stepped one transaction per `run_transaction`
//! call, and the `ShardedFleet`'s
//! `InterleavedScheduler` round-robins one transaction per bus per
//! round — all buses make progress together, no bus ever blocks the
//! thread.
//!
//! Four stages:
//!
//! 1. **Headline interleave** — 1024 analytic buses (1024 × 3
//!    sensors + 1024 gateway presences = 4096 nodes) running
//!    sense-and-aggregate under the interleaved schedule, with
//!    throughput in txn/s.
//! 2. **Worker scaling** — 8192 analytic buses (32768 nodes) at 1,
//!    2, 4, and 8 workers, each count run twice: workers spawned per
//!    epoch (`ShardedFleet::per_epoch_spawn`) vs workers kept as long
//!    as their `ShardedFleet` (`ShardedFleet::new`), both with cluster `c` on
//!    shard `c % workers`, so their ratio is the spawn cost alone. Both
//!    streams are asserted bit-identical to the single-threaded
//!    interleaved reference; per-shard transaction and wall-time
//!    gauges come from
//!    `FleetFairness::shard_transactions`/`shard_wall_nanos`. Each
//!    row also times `FleetReport::signature()` apart from its drain,
//!    and the bin exits non-zero if the signature took longer than the
//!    drain (a ratio measured in one process, so machine-independent).
//!    Each row reports its engine polls (`run_transaction` calls)
//!    beside its transactions, then drives the drained fleet once more:
//!    the bin exits non-zero if that quiescent drive polled any engine
//!    or emitted a record (counts, so machine-independent too).
//! 3. **64k-bus fleet** — a 65536-cluster, 262144-node cross-storm
//!    drained by the sharded runtime, the population headline.
//! 4. **Engine-kind × fleet-size grid** — whole sense-and-aggregate
//!    fleets over analytic × wire kinds and growing populations, each
//!    point drained interleaved and under `Sharded { shards: 4 }`,
//!    which must produce identical samples (schedule-independence at
//!    grid scale).
//!
//! Every stage's numbers are also written to `BENCH_interleave.json`
//! in the working directory (CI uploads it as an artifact).
//!
//! Usage: `cargo run --release -p mbus-bench --bin interleave
//! [-- <clusters> <sensors> <rounds>] [-- --smoke]`

use mbus_bench::harness::{smoke_mode, stopwatch};
use mbus_bench::json::Json;
use mbus_bench::two_col_table;
use mbus_core::{
    EngineKind, Fleet, FleetReport, FleetSchedule, FleetSignature, FleetWorkload, ShardedFleet,
};

fn run_headline(clusters: usize, sensors: usize, rounds: usize) -> Json {
    let workload = FleetWorkload::sense_and_aggregate(clusters, sensors, rounds);
    println!(
        "workload '{}': {} nodes across {} analytic buses, one thread",
        workload.name(),
        workload.total_nodes(),
        clusters,
    );
    let start = stopwatch();
    let report = workload.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
    let wall = start.elapsed();
    let txn_s = report.transactions() as f64 / wall.as_secs_f64();
    println!(
        "  [analytic/interleaved] {} transactions, {} forwarded envelopes, {} deliveries in {:.2?} ({:.0} txn/s)\n",
        report.transactions(),
        report.forwarded,
        report.delivered_messages(),
        wall,
        txn_s,
    );
    Json::obj([
        ("clusters", clusters.into()),
        ("nodes", workload.total_nodes().into()),
        ("rounds", rounds.into()),
        ("transactions", (report.transactions() as u64).into()),
        ("forwarded", report.forwarded.into()),
        ("wall_s", wall.as_secs_f64().into()),
        ("txn_per_s", txn_s.into()),
    ])
}

/// One timed sharded drain, with the report's `signature()` timed
/// apart from the drain.
struct TimedDrain {
    report: FleetReport,
    /// The drained fleet, kept for the quiescent re-drive.
    fleet: Fleet,
    drain_s: f64,
    signature_s: f64,
}

impl TimedDrain {
    fn txn_per_s(&self) -> f64 {
        self.report.transactions() as f64 / self.drain_s
    }
}

/// Runs one sharded drain and asserts its stream and signature match
/// the interleaved `reference` bit for bit.
fn timed_drain(
    workload: &FleetWorkload,
    sharded: &mut ShardedFleet,
    reference: &FleetReport,
    reference_sig: &FleetSignature<'_>,
    label: &str,
) -> TimedDrain {
    let start = stopwatch();
    let mut fleet = workload.instantiate(EngineKind::Analytic);
    let report = workload.apply_sharded(&mut fleet, sharded);
    let drain_s = start.elapsed().as_secs_f64();
    assert_eq!(
        reference.records, report.records,
        "{label} stream diverged from interleaved"
    );
    let start = stopwatch();
    let sig = report.signature();
    let signature_s = start.elapsed().as_secs_f64();
    assert_eq!(
        *reference_sig, sig,
        "{label} signature diverged from interleaved"
    );
    TimedDrain {
        report,
        fleet,
        drain_s,
        signature_s,
    }
}

/// Drives an already-drained fleet once more and returns whether that
/// drive did nothing: no engine polled, no record emitted.
fn quiescent_drive_is_free(fleet: &mut Fleet, sharded: &mut ShardedFleet) -> bool {
    let polls = sharded.polls();
    let mut records = 0u64;
    sharded.drive(fleet, &mut |_| records += 1);
    sharded.polls() == polls && records == 0
}

/// The worker-scaling stage. Returns its artifact and whether every
/// row passed both gates: `FleetReport::signature()` must take no
/// longer than the drain that produced the report, and re-driving the
/// drained fleet must poll no engine and emit no record.
fn run_worker_scaling(clusters: usize, sensors: usize, rounds: usize, smoke: bool) -> (Json, bool) {
    let workload = FleetWorkload::sense_and_aggregate(clusters, sensors, rounds);
    println!(
        "worker scaling '{}': {} nodes across {} analytic buses",
        workload.name(),
        workload.total_nodes(),
        clusters,
    );
    // Always include multi-worker rows (they stay correct when
    // oversubscribed); speedup materializes with the cores to back it.
    let worker_counts: Vec<usize> = if smoke { vec![1, 4] } else { vec![1, 2, 4, 8] };
    // The single-threaded interleaved drain is both the correctness
    // reference (bit-identical streams) and the throughput baseline.
    let start = stopwatch();
    let reference = workload.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
    let ref_wall = start.elapsed();
    let base_txn_s = reference.transactions() as f64 / ref_wall.as_secs_f64();
    println!(
        "  [interleaved] {} txns in {:>8.2?} ({:>9.0} txn/s) — single-threaded baseline",
        reference.transactions(),
        ref_wall,
        base_txn_s,
    );
    let reference_sig = reference.signature();
    let mut rows = Vec::new();
    let (mut signature_gate, mut quiescent_gate) = (true, true);
    for &workers in &worker_counts {
        // Fresh worker threads every epoch.
        let mut spawn = ShardedFleet::per_epoch_spawn(workers);
        let spawn_txn_s = timed_drain(
            &workload,
            &mut spawn,
            &reference,
            &reference_sig,
            "spawn-per-epoch",
        )
        .txn_per_s();
        // Workers kept as long as their ShardedFleet.
        let mut kept = ShardedFleet::new(workers);
        let mut drive = timed_drain(
            &workload,
            &mut kept,
            &reference,
            &reference_sig,
            "kept-workers",
        );
        let drive_txn_s = drive.txn_per_s();
        let (transactions, polls) = (kept.transactions(), kept.polls());
        let signature_pass = drive.signature_s <= drive.drain_s;
        let quiescent_pass = quiescent_drive_is_free(&mut drive.fleet, &mut kept);
        signature_gate &= signature_pass;
        quiescent_gate &= quiescent_pass;
        let fairness = drive
            .report
            .fairness
            .as_ref()
            .expect("sharded drains report");
        let (txn_lo, txn_hi) = (
            fairness
                .shard_transactions
                .iter()
                .min()
                .copied()
                .unwrap_or(0),
            fairness
                .shard_transactions
                .iter()
                .max()
                .copied()
                .unwrap_or(0),
        );
        // Per-shard throughput: each shard's transactions over its own
        // accumulated wall time.
        let shard_txn_s: Vec<f64> = fairness
            .shard_transactions
            .iter()
            .zip(&fairness.shard_wall_nanos)
            .map(|(&txns, &nanos)| txns as f64 / (nanos.max(1) as f64 / 1e9))
            .collect();
        println!(
            "  [{workers:>2} worker{}] per-epoch {:>9.0} txn/s | kept {:>9.0} txn/s ({:>4.2}x per-epoch, {:>4.2}x baseline)",
            if workers == 1 { " " } else { "s" },
            spawn_txn_s,
            drive_txn_s,
            drive_txn_s / spawn_txn_s,
            drive_txn_s / base_txn_s,
        );
        println!(
            "      per-shard txns {txn_lo}..{txn_hi}, wall imbalance {:.2}x, shard txn/s {:.0}..{:.0} | max turn gap {}, epochs {}",
            fairness.shard_imbalance(),
            shard_txn_s.iter().cloned().fold(f64::INFINITY, f64::min),
            shard_txn_s.iter().cloned().fold(0.0, f64::max),
            fairness.max_turn_gap,
            fairness.epochs,
        );
        println!(
            "      {transactions} txns, {polls} engine polls | quiescent re-drive {}",
            if quiescent_pass {
                "polled nothing"
            } else {
                "<-- FAIL: polled an engine or emitted a record"
            },
        );
        println!(
            "      signature {:.1} ms vs drain {:.1} ms{}",
            drive.signature_s * 1e3,
            drive.drain_s * 1e3,
            if signature_pass {
                ""
            } else {
                "  <-- FAIL: signature > drain"
            },
        );
        rows.push(Json::obj([
            ("workers", workers.into()),
            ("spawn_txn_per_s", spawn_txn_s.into()),
            ("drive_txn_per_s", drive_txn_s.into()),
            ("drive_speedup_vs_spawn", (drive_txn_s / spawn_txn_s).into()),
            (
                "drive_speedup_vs_baseline",
                (drive_txn_s / base_txn_s).into(),
            ),
            (
                "shard_transactions",
                Json::arr(fairness.shard_transactions.iter().copied()),
            ),
            (
                "shard_wall_nanos",
                Json::arr(fairness.shard_wall_nanos.iter().copied()),
            ),
            ("shard_wall_imbalance", fairness.shard_imbalance().into()),
            ("transactions", transactions.into()),
            ("polls", polls.into()),
            ("quiescent_drive_pass", quiescent_pass.into()),
            ("drain_s", drive.drain_s.into()),
            ("signature_s", drive.signature_s.into()),
        ]));
    }
    println!("  worker-scaling check: every stream identical to single-threaded interleave\n");
    let artifact = Json::obj([
        ("clusters", clusters.into()),
        ("nodes", workload.total_nodes().into()),
        ("rounds", rounds.into()),
        ("baseline_txn_per_s", base_txn_s.into()),
        ("rows", Json::Arr(rows)),
        ("signature_gate_pass", signature_gate.into()),
        ("quiescent_gate_pass", quiescent_gate.into()),
    ]);
    (artifact, signature_gate && quiescent_gate)
}

fn run_fleet_64k() -> Json {
    // The population headline: 65536 clusters — every FullPrefix
    // cluster field value — of 3 always-on sensors plus a gateway
    // presence, 262144 nodes, every message crossing clusters.
    let clusters = 65536usize;
    let sensors = 3usize;
    let workload = FleetWorkload::cross_storm(clusters, sensors, 1);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
    println!(
        "64k-bus fleet '{}': {} nodes across {} buses on {} workers",
        workload.name(),
        workload.total_nodes(),
        clusters,
        workers,
    );
    let mut sharded = ShardedFleet::new(workers);
    let start = stopwatch();
    let report = workload.run_sharded_on(EngineKind::Analytic, &mut sharded);
    let wall = start.elapsed();
    // Every sensor's one message is remote, so the gateway forwarded
    // exactly clusters × sensors envelopes — a cheap completion check
    // that doesn't need a second (reference) drain at this scale.
    assert_eq!(
        report.forwarded,
        (clusters * sensors) as u64,
        "64k cross-storm forwarded count"
    );
    let txn_s = report.transactions() as f64 / wall.as_secs_f64();
    let fairness = report.fairness.as_ref().expect("sharded drains report");
    println!(
        "  [{} workers] {} txns, {} forwarded in {:.2?} ({:.0} txn/s), wall imbalance {:.2}x\n",
        workers,
        report.transactions(),
        report.forwarded,
        wall,
        txn_s,
        fairness.shard_imbalance(),
    );
    Json::obj([
        ("clusters", clusters.into()),
        ("nodes", workload.total_nodes().into()),
        ("workers", workers.into()),
        ("transactions", (report.transactions() as u64).into()),
        ("forwarded", report.forwarded.into()),
        ("wall_s", wall.as_secs_f64().into()),
        ("txn_per_s", txn_s.into()),
        ("shard_wall_imbalance", fairness.shard_imbalance().into()),
    ])
}

fn run_engine_grid(smoke: bool) {
    let sizes: Vec<(usize, usize)> = if smoke {
        vec![(4, 3), (16, 3)]
    } else {
        vec![(16, 3), (64, 3), (256, 3), (1024, 3)]
    };
    // What one point cost: total nodes, transactions, forwarded
    // envelopes, bus cycles.
    let sample = |kind, clusters, sensors, schedule| {
        let report = FleetWorkload::sense_and_aggregate(clusters, sensors, 2)
            .run_scheduled_on(kind, schedule);
        (
            report.total_nodes(),
            report.transactions(),
            report.forwarded,
            report.total_cycles(),
        )
    };
    let start = stopwatch();
    for kind in EngineKind::ALL {
        let mut rows = Vec::new();
        for &(clusters, sensors) in &sizes {
            let interleaved = sample(kind, clusters, sensors, FleetSchedule::Interleaved);
            // Schedule-independence at grid scale: the same point
            // drained through the sharded schedule is identical.
            let sharded = sample(
                kind,
                clusters,
                sensors,
                FleetSchedule::Sharded { shards: 4 },
            );
            assert_eq!(
                interleaved, sharded,
                "sharded-schedule point diverged from interleaved ({kind}, {clusters} clusters)"
            );
            rows.push((interleaved.0 as f64, interleaved.1 as f64));
        }
        print!(
            "{}",
            two_col_table(
                &format!("transactions by population ({kind} engine, 2 rounds)"),
                "nodes",
                "transactions",
                &rows,
            )
        );
    }
    println!(
        "engine-kind x fleet-size grid: {} whole-fleet points in {:.2?}, sharded-schedule-identical: true",
        EngineKind::ALL.len() * sizes.len(),
        start.elapsed(),
    );
}

fn main() {
    let smoke = smoke_mode();
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();

    println!("=== Interleaved fleets: thousands of buses on one thread ===\n");
    let (clusters, sensors, rounds) = match args.as_slice() {
        [c, s, r, ..] => (*c, *s, *r),
        // Smoke mode keeps the 1024-bus shape but runs one round so CI
        // finishes in seconds.
        _ if smoke => (1024, 3, 1),
        _ => (1024, 3, 8),
    };
    let headline = run_headline(clusters, sensors, rounds);
    // The worker-scaling stage drives 8192 buses in both modes (one
    // round in smoke so CI still exercises the full comparison shape).
    let (scaling, scaling_gates) = if smoke {
        run_worker_scaling(8192, 3, 1, true)
    } else {
        run_worker_scaling(8192, 3, 4, false)
    };
    // The 64k stage runs in smoke too — CI's artifact carries the
    // population headline.
    let fleet_64k = run_fleet_64k();
    run_engine_grid(smoke);

    let artifact = Json::obj([
        ("bench", "interleave".into()),
        ("smoke", smoke.into()),
        ("headline", headline),
        ("worker_scaling", scaling),
        ("fleet_64k", fleet_64k),
    ]);
    std::fs::write("BENCH_interleave.json", format!("{artifact}\n"))
        .expect("write BENCH_interleave.json");
    println!("\nwrote BENCH_interleave.json");

    if !scaling_gates {
        eprintln!(
            "FAIL: a worker-scaling row's FleetReport::signature() took longer than its drain, \
             or re-driving its drained fleet polled an engine or emitted a record"
        );
        std::process::exit(1);
    }
}
