//! Trace replay, built-in trace exporters, and the JSON report schema
//! behind the `scenario` bin.
//!
//! The bin is a thin argument parser; everything it does lives here so
//! the unit tests can drive it: [`builtin`] materializes the named
//! golden workloads (the generators `tests/corpus/` was exported
//! from), and [`replay_trace`] runs a parsed [`TraceFile`] across
//! every comparable engine kind × fleet schedule and renders one
//! machine-readable [`Json`] report cell per run — signatures as
//! 16-hex-digit digests, gateway counters, per-cluster transaction
//! counts, and the fairness gauges of scheduled drains.

use mbus_core::trace::{fleet_digest, scenario_digest, Trace, TraceFile};
use mbus_core::{
    fleet::GatewayNode, Address, BusConfig, FleetNodeId, FleetSchedule, FleetWorkload, FuId,
    FullPrefix, Message, ShortPrefix, Workload,
};

use crate::json::Json;

/// The built-in trace names [`builtin`] accepts, besides the
/// parameterized `seeded:<n>` / `fleet-seeded:<n>` forms.
pub const BUILTINS: &[&str] = &[
    "storm",
    "storm-14",
    "sense-aggregate",
    "hostile",
    "partial-drain",
    "gateway-forwarding",
    "duty-cycle-day",
    "alarm-cascade",
    "aggregate-fanin",
];

/// Materializes a built-in trace by name: the golden workloads the
/// committed corpus pins, plus `seeded:<n>` / `fleet-seeded:<n>` for
/// exporting any generator seed as a standalone `.mbt` repro.
pub fn builtin(spec: &str) -> Option<TraceFile> {
    if let Some(seed) = spec.strip_prefix("seeded:") {
        let seed: u64 = seed.parse().ok()?;
        return Some(TraceFile::workload(Workload::seeded(seed)).with_seed(seed));
    }
    if let Some(seed) = spec.strip_prefix("fleet-seeded:") {
        let seed: u64 = seed.parse().ok()?;
        return Some(TraceFile::fleet(FleetWorkload::seeded(seed)).with_seed(seed));
    }
    match spec {
        "storm" => Some(TraceFile::workload(Workload::many_node_storm(6, 3))),
        // A ring past the paper's ten-chip stack: a size the replay
        // grid used to skip on the wire engine because every CLK hop
        // paid a heap sift; the wavefront lane makes the cell cheap.
        "storm-14" => Some(TraceFile::workload(Workload::many_node_storm(14, 2))),
        "sense-aggregate" => Some(TraceFile::fleet(FleetWorkload::sense_and_aggregate(
            3, 2, 2,
        ))),
        "hostile" => Some(TraceFile::workload(Workload::fault_injection())),
        "partial-drain" => Some(TraceFile::workload(partial_drain_workload())),
        "gateway-forwarding" => Some(TraceFile::fleet(gateway_forwarding_workload())),
        // The three closed-loop golden shapes at 1000+ bus scale:
        // every one splits into two mesh domains bridged by range
        // routes, so reply traffic takes inter-gateway hops both ways.
        "duty-cycle-day" => Some(TraceFile::fleet(FleetWorkload::duty_cycle_day(1024, 2))),
        // Cascade growth is exponential in fanout (each tripped alarm
        // re-broadcasts), so fanout stays small: 2^horizon ≈ 256
        // alarms sweeping across the 1024-cluster mesh.
        "alarm-cascade" => Some(TraceFile::fleet(FleetWorkload::alarm_cascade(1024, 2))),
        "aggregate-fanin" => Some(TraceFile::fleet(FleetWorkload::aggregate_fanin(1024, 4, 2))),
        _ => None,
    }
}

/// The mid-drain-queueing hostile case as a golden trace: traffic
/// queued while earlier traffic is still pending. Not wire-comparable
/// (partial drains), so the corpus pins it on the analytic engine only.
fn partial_drain_workload() -> Workload {
    let mut w = Workload::new("corpus/partial_drain", BusConfig::default());
    for i in 0..4u32 {
        w = w.node(
            mbus_core::NodeSpec::new(
                format!("n{i}"),
                FullPrefix::new(0x0300 + i).expect("prefix"),
            )
            .with_short_prefix(ShortPrefix::new((i + 1) as u8).expect("prefix")),
        );
    }
    let to = |n: u8| Address::short(ShortPrefix::new(n).expect("prefix"), FuId::ZERO);
    w.send(1, Message::new(to(1), vec![0x10, 0x11]))
        .send(2, Message::new(to(1), vec![0x20]))
        .send(3, Message::new(to(2), vec![0x30, 0x31, 0x32]))
        .drain_partial(2)
        // Queued mid-drain, against still-pending traffic.
        .send(1, Message::new(to(3), vec![0x40]).with_priority())
        .send(2, Message::new(to(4), vec![0x50]))
        .drain_partial(1)
        .send(3, Message::new(to(1), vec![0x60]))
        .drain()
}

/// The PR 5 gateway-forwarding aliasing surface as a golden trace:
/// remote envelopes in both directions (one priority), an
/// accidental-envelope local send to the reserved forwarding port
/// (bytes that decode as a full address ARE an envelope — forwarded,
/// never aliased into the gateway's local rx), an unroutable envelope
/// (slot `0xE` is never allocated — dropped, attributed to the
/// receiving cluster), and an ordinary local delivery to a non-zero
/// gateway FU (which must stay local).
fn gateway_forwarding_workload() -> FleetWorkload {
    let forward_port = Address::short(
        ShortPrefix::new(0x1).expect("gateway short prefix"),
        FuId::ZERO,
    );
    // Sensor ring-slot 1 on cluster 1 packs as (1 << 4) | 1.
    let sensor_1_1 = FullPrefix::new(0x11).expect("sensor prefix");
    // Slot 0xE of cluster 0 is never allocated: unroutable by design.
    let unroutable = FullPrefix::new(0x0E).expect("unroutable slot");
    FleetWorkload::new("corpus/gateway_forwarding", BusConfig::default())
        .cluster(vec![false, false])
        .cluster(vec![false, true])
        .send_remote_priority(
            FleetNodeId::new(0, 1),
            FleetNodeId::new(1, 1),
            FuId::new(1).expect("fu"),
            vec![0xA0, 0xA1],
        )
        .send_remote(
            FleetNodeId::new(1, 2),
            FleetNodeId::new(0, 2),
            FuId::new(2).expect("fu"),
            vec![0xB0],
        )
        .send_local(
            FleetNodeId::new(0, 1),
            Message::new(
                forward_port,
                GatewayNode::encapsulate(sensor_1_1, FuId::new(3).expect("fu"), &[0x42]),
            ),
        )
        .send_local(
            FleetNodeId::new(0, 2),
            Message::new(
                forward_port,
                GatewayNode::encapsulate(unroutable, FuId::ZERO, &[0x99]),
            ),
        )
        .send_local(
            FleetNodeId::new(1, 1),
            Message::new(
                Address::short(
                    ShortPrefix::new(0x1).expect("gateway short prefix"),
                    FuId::new(2).expect("fu"),
                ),
                vec![0xC0, 0xC1],
            ),
        )
        .allow_wake_nulls()
        .drain()
}

/// The outcome of replaying one trace across the whole grid.
#[derive(Debug)]
pub struct ReplayResult {
    /// The per-trace JSON report node.
    pub json: Json,
    /// Whether every cell produced the same digest AND the pinned
    /// `expect sig=` (if any) matched.
    pub ok: bool,
    /// The digest of the first cell — what `expect sig=` should pin.
    pub digest: u64,
}

/// Replays `tf` across every comparable engine kind; fleet traces also
/// sweep batched / interleaved / `sharded:<n>` for each entry of
/// `shards`. Returns the per-cell report and whether all cells agreed.
pub fn replay_trace(source: &str, tf: &TraceFile, shards: &[usize]) -> ReplayResult {
    let mut cells = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    match &tf.trace {
        Trace::Workload(w) => {
            for kind in tf.trace.comparable_kinds() {
                let report = w.run_on(kind);
                let sig = report.signature();
                let digest = scenario_digest(&sig);
                digests.push(digest);
                cells.push(Json::obj([
                    ("engine", kind.to_string().into()),
                    ("schedule", "single".into()),
                    ("sig", format!("{digest:016x}").into()),
                    ("transactions", sig.records.len().into()),
                    (
                        "deliveries",
                        sig.deliveries
                            .iter()
                            .map(|log| log.len())
                            .sum::<usize>()
                            .into(),
                    ),
                    ("cycles", report.total_cycles().into()),
                ]));
            }
        }
        Trace::Fleet(w) => {
            let mut schedules = vec![FleetSchedule::Batched, FleetSchedule::Interleaved];
            schedules.extend(shards.iter().map(|&s| FleetSchedule::Sharded { shards: s }));
            for kind in tf.trace.comparable_kinds() {
                for &schedule in &schedules {
                    let report = w.run_scheduled_on(kind, schedule);
                    let sig = report.signature();
                    let digest = fleet_digest(&sig);
                    digests.push(digest);
                    let mut fields: Vec<(&'static str, Json)> = vec![
                        ("engine", kind.to_string().into()),
                        ("schedule", schedule.to_string().into()),
                        ("sig", format!("{digest:016x}").into()),
                        ("transactions", (report.transactions() as u64).into()),
                        ("forwarded", report.forwarded.into()),
                        ("hop_forwards", report.hop_forwards.into()),
                        ("dropped", report.dropped.into()),
                        (
                            "cluster_drops",
                            Json::arr(report.cluster_drops.iter().copied()),
                        ),
                        // Per-hop TTL-exhaustion drops (mesh cycles die
                        // at the cluster whose gateway decremented TTL
                        // to zero) and the closed-loop reply gauges:
                        // how many programmed responses the behavior
                        // barriers injected, and how many injection
                        // rounds (the reply-latency proxy) it took to
                        // re-quiesce.
                        ("ttl_drops", Json::arr(report.ttl_drops.iter().copied())),
                        ("injected_replies", report.injected_replies.into()),
                        ("reply_rounds", report.reply_rounds.into()),
                        (
                            "cluster_transactions",
                            Json::arr(sig.clusters.iter().map(|c| c.records.len())),
                        ),
                    ];
                    if let Some(fairness) = &report.fairness {
                        fields.push(("max_turn_gap", fairness.max_turn_gap.into()));
                        fields.push(("epochs", fairness.epochs.into()));
                        fields.push(("shard_imbalance", fairness.shard_imbalance().into()));
                    }
                    cells.push(Json::obj(fields));
                }
            }
        }
    }
    let digest = digests[0];
    let agreed = digests.iter().all(|&d| d == digest);
    let expect_ok = tf.meta.expect_sig.is_none_or(|pinned| pinned == digest);
    let ok = agreed && expect_ok;
    let json = Json::obj([
        ("trace", source.into()),
        ("name", tf.trace.name().into()),
        (
            "kind",
            if tf.trace.is_fleet() {
                "fleet".into()
            } else {
                "workload".into()
            },
        ),
        ("wire_comparable", tf.trace.wire_comparable().into()),
        ("seed", tf.meta.seed.map_or(Json::Null, Json::from)),
        (
            "expect_sig",
            tf.meta
                .expect_sig
                .map_or(Json::Null, |s| format!("{s:016x}").into()),
        ),
        ("agreed", agreed.into()),
        ("expect_ok", expect_ok.into()),
        ("ok", ok.into()),
        ("cells", Json::Arr(cells)),
    ]);
    ReplayResult { json, ok, digest }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_all_materialize_and_replay_clean() {
        for &name in BUILTINS {
            let tf = builtin(name).expect(name);
            let result = replay_trace(name, &tf, &[2]);
            assert!(result.ok, "builtin `{name}` disagreed: {}", result.json);
        }
    }

    #[test]
    fn seeded_specs_materialize() {
        let w = builtin("seeded:7").expect("seeded");
        assert_eq!(w.meta.seed, Some(7));
        assert!(!w.trace.is_fleet());
        let f = builtin("fleet-seeded:7").expect("fleet-seeded");
        assert!(f.trace.is_fleet());
        assert!(builtin("seeded:x").is_none());
        assert!(builtin("no-such").is_none());
    }

    #[test]
    fn builtins_round_trip_through_mbt() {
        for &name in BUILTINS {
            let tf = builtin(name).expect(name);
            let text = tf.to_mbt();
            let parsed = TraceFile::parse_str(name, &text).expect(name);
            let (a, b) = (
                replay_trace(name, &tf, &[2]).digest,
                replay_trace(name, &parsed, &[2]).digest,
            );
            assert_eq!(a, b, "builtin `{name}` changed behavior across round-trip");
        }
    }

    #[test]
    fn gateway_forwarding_exercises_the_aliasing_surface() {
        let tf = builtin("gateway-forwarding").unwrap();
        let Trace::Fleet(w) = &tf.trace else {
            panic!("fleet builtin");
        };
        let report = w.run_on(mbus_core::EngineKind::Analytic);
        assert_eq!(report.forwarded, 3, "two remotes + one accidental envelope");
        assert_eq!(report.dropped, 1, "the unroutable envelope");
        assert_eq!(report.cluster_drops, vec![1, 0], "dropped on cluster 0");
    }

    #[test]
    fn wrong_pin_fails_the_replay() {
        let tf = builtin("storm").unwrap().with_expect_sig(0xDEAD_BEEF);
        let result = replay_trace("storm", &tf, &[]);
        assert!(!result.ok);
        assert_ne!(result.digest, 0xDEAD_BEEF);
    }
}
