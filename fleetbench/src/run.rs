//! The measured loops: untraced runs report the end-to-end metrics,
//! traced runs the per-layer ones. Both replay for the requested wall
//! time, one replay at a time, and report medians.

use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mbus_core::{Fleet, FleetReport, FleetSchedule, FleetWorkload, FullPrefix, ShardedFleet};

use crate::now;
use crate::replay::{drain, parse, replay, Drained, Parsed, Reference};
use crate::spans::Spans;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("replay_s", "s"),
    ("drain_txn_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("energy_pj_per_bit", "pJ/bit"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("replay.traced_s", "s"),
    ("trace.parse_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.digest_s", "s"),
    ("fleet.instantiate_s", "s"),
    ("fleet.route_entries", "count"),
    ("gateway.route_ns", "ns"),
    ("gateway.forwarded", "count"),
    ("gateway.hop_forwards", "count"),
    ("gateway.dropped", "count"),
    ("engine.batched_s", "s"),
    ("engine.transactions", "count"),
    ("engine.bus_cycles", "cycles"),
    ("scheduler.interleaved_s", "s"),
    ("scheduler.rotation_s", "s"),
    ("scheduler.epochs", "count"),
    ("shard.sharded1_s", "s"),
    ("shard.barrier_s", "s"),
    ("shard.body_s", "s"),
    ("shard.body_share_1w", "ratio"),
    ("shard.imbalance", "ratio"),
    ("shard.epochs", "count"),
    ("pool.sharded2_s", "s"),
    ("pool.speedup_2w", "ratio"),
    ("pool.spawn2_s", "s"),
    ("pool.spawn_ratio", "ratio"),
    ("behavior.injected_replies", "count"),
    ("behavior.reply_rounds", "count"),
    ("report.signature_s", "s"),
    ("report.records", "count"),
    ("wire.segment_edges", "count"),
    ("wire.edges_per_s", "1/s"),
];

/// Drain-only repetitions (parse → instantiate → `apply_sharded`)
/// after each full replay of an untraced run: a drain is a small share
/// of a replay on the signature-bound workloads, and its throughput
/// needs about a hundred drains per run.
const DRAINS_PER_REPLAY: usize = 6;

/// Gateway lookups per route-table probe (the destination list is
/// cycled until at least this many ran).
const ROUTE_LOOKUPS: usize = 200_000;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name, as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The median of its samples (0 when it has none).
    pub value: f64,
    /// How many samples the median is over.
    pub samples: usize,
}

/// The middle value of `values` (the mean of the middle two for an
/// even count; 0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Samples per declared metric.
struct Samples {
    declared: &'static [(&'static str, &'static str)],
    values: Vec<Vec<f64>>,
}

impl Samples {
    fn new(declared: &'static [(&'static str, &'static str)]) -> Self {
        Samples {
            declared,
            values: vec![Vec::new(); declared.len()],
        }
    }

    fn add(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i].push(value);
    }

    fn medians(&self) -> Vec<Metric> {
        self.declared
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), values)| Metric {
                name,
                unit,
                value: median(values),
                samples: values.len(),
            })
            .collect()
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Replays (operations) started.
    pub attempted: u64,
    /// Replays that panicked or disagreed with the reference or pin.
    pub failed: u64,
    /// Every declared metric of the run's kind, in declaration order.
    pub metrics: Vec<Metric>,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Whether every replay matched.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The share of replays that failed.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line result object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; no declared metric
            // produces one, so this only guards the format.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let why = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {why}"))
    })
}

/// Replays `text` for `seconds` of wall time (at least once), untraced
/// or traced.
///
/// # Errors
///
/// When the untimed reference run itself fails, so nothing can be
/// checked.
pub fn run(text: &str, seconds: Duration, traced: bool) -> Result<Outcome, String> {
    let reference = guarded(|| Reference::compute(text))?;
    if traced {
        run_traced(text, &reference, seconds)
    } else {
        run_untraced(text, &reference, seconds)
    }
}

fn run_untraced(text: &str, reference: &Reference, seconds: Duration) -> Result<Outcome, String> {
    let mut samples = Samples::new(END_TO_END);
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Throughput comes from the run's median drain. The drain runs two
    // threads through 64 barriers on `duty_closed`, so on a shared host
    // its fastest and slowest calls swing with the neighbours' load;
    // the median of a hundred drains moves far less between runs.
    let mut drains = Vec::new();
    let mut record_drain = |samples: &mut Samples, d: &Drained| {
        samples.add("setup_s", d.setup().as_secs_f64());
        drains.push(d.drain().as_secs_f64());
    };
    let start = now();
    while attempted == 0 || start.elapsed() < seconds {
        attempted += 1;
        let checked = guarded(|| {
            let r = replay(text)?;
            reference.mismatch(&r).map_or(Ok(r), Err)
        });
        match checked {
            Ok(r) => {
                samples.add("replay_s", r.total().as_secs_f64());
                record_drain(&mut samples, &r.drained);
            }
            Err(why) => {
                eprintln!("fleetbench: replay {attempted} failed: {why}");
                failed += 1;
            }
        }
        for _ in 0..DRAINS_PER_REPLAY {
            attempted += 1;
            let checked = guarded(|| {
                let d = drain(text)?;
                reference.drain_mismatch(&d).map_or(Ok(d), Err)
            });
            match checked {
                Ok(d) => record_drain(&mut samples, &d),
                Err(why) => {
                    eprintln!("fleetbench: drain {attempted} failed: {why}");
                    failed += 1;
                }
            }
        }
    }
    samples.add(
        "drain_txn_per_s",
        reference.transactions as f64 / median(&drains),
    );
    samples.add("peak_rss_mib", peak_rss_mib());
    samples.add("energy_pj_per_bit", reference.energy_pj_per_bit);
    Ok(Outcome {
        attempted,
        failed,
        metrics: samples.medians(),
        spans: None,
    })
}

fn run_traced(text: &str, reference: &Reference, seconds: Duration) -> Result<Outcome, String> {
    let prefixes = guarded(|| Ok(parse(text)?.remote_prefixes()))?;
    let mut spans = Spans::new(now());
    let mut samples = Samples::new(PER_LAYER);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = now();
    while attempted == 0 || start.elapsed() < seconds {
        attempted += 1;
        let op = attempted as u32;
        let traced =
            guarded(|| traced_op(text, reference, &prefixes, &mut spans, &mut samples, op));
        if let Err(why) = traced {
            eprintln!("fleetbench: traced operation {op} failed: {why}");
            failed += 1;
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: samples.medians(),
        spans: Some(spans),
    })
}

fn secs(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64()
}

/// One traced operation: a checked replay with a span around each layer
/// call, then one probe per layer, each on a freshly built fleet.
fn traced_op(
    text: &str,
    reference: &Reference,
    prefixes: &[FullPrefix],
    spans: &mut Spans,
    samples: &mut Samples,
    op: u32,
) -> Result<(), String> {
    let r = replay(text)?;
    if let Some(why) = reference.mismatch(&r) {
        return Err(why);
    }
    let d = &r.drained;
    let root = spans.record(op, None, "replay", d.start, r.digested);
    spans.record(op, Some(root), "trace.parse", d.start, d.parsed);
    spans.record(
        op,
        Some(root),
        "fleet.instantiate",
        d.parsed,
        d.instantiated,
    );
    spans.record(op, Some(root), "pool.sharded2", d.instantiated, d.drained);
    spans.record(op, Some(root), "report.signature", d.drained, r.signed);
    spans.record(op, Some(root), "trace.digest", r.signed, r.digested);

    let report = &d.report;
    let pool_s = d.drain().as_secs_f64();
    let edges: u64 = report.stats.iter().flat_map(|st| &st.segment_edges).sum();
    samples.add("replay.traced_s", r.total().as_secs_f64());
    samples.add("trace.parse_s", secs(d.start, d.parsed));
    samples.add("trace.bytes", text.len() as f64);
    samples.add("trace.digest_s", secs(r.signed, r.digested));
    samples.add("fleet.instantiate_s", secs(d.parsed, d.instantiated));
    samples.add("gateway.forwarded", report.forwarded as f64);
    samples.add("gateway.hop_forwards", report.hop_forwards as f64);
    samples.add("gateway.dropped", report.dropped as f64);
    samples.add("engine.transactions", report.transactions() as f64);
    samples.add("engine.bus_cycles", report.total_cycles() as f64);
    samples.add("pool.sharded2_s", pool_s);
    samples.add(
        "shard.imbalance",
        report
            .fairness
            .as_ref()
            .map_or(1.0, |f| f.shard_imbalance()),
    );
    samples.add("behavior.injected_replies", report.injected_replies as f64);
    samples.add("behavior.reply_rounds", report.reply_rounds as f64);
    samples.add("report.signature_s", secs(d.drained, r.signed));
    samples.add("report.records", report.records.len() as f64);
    samples.add("wire.segment_edges", edges as f64);
    samples.add("wire.edges_per_s", edges as f64 / pool_s);
    drop(r);

    let parsed = parse(text)?;
    let (entries, route_ns) = probe_routes(&parsed, prefixes, spans, op)?;
    samples.add("fleet.route_entries", entries as f64);
    samples.add("gateway.route_ns", route_ns);

    let batched_s = probe_drain(&parsed, reference, spans, op, "engine.batched", |w, f| {
        w.apply_scheduled(f, FleetSchedule::Batched)
    })?
    .1;
    let (interleaved, interleaved_s) = probe_drain(
        &parsed,
        reference,
        spans,
        op,
        "scheduler.interleaved",
        |w, f| w.apply_scheduled(f, FleetSchedule::Interleaved),
    )?;
    let (sharded1, sharded1_s) =
        probe_drain(&parsed, reference, spans, op, "shard.sharded1", |w, f| {
            w.apply_sharded(f, &mut ShardedFleet::new(1))
        })?;
    let spawn2_s = probe_drain(&parsed, reference, spans, op, "pool.spawn2", |w, f| {
        w.apply_sharded(f, &mut ShardedFleet::per_epoch_spawn(2))
    })?
    .1;

    let epochs = |report: &FleetReport| report.fairness.as_ref().map_or(0, |f| f.epochs) as f64;
    let body_s = sharded1
        .fairness
        .as_ref()
        .map_or(0, |f| f.shard_wall_nanos.iter().sum::<u64>()) as f64
        / 1e9;
    samples.add("engine.batched_s", batched_s);
    samples.add("scheduler.interleaved_s", interleaved_s);
    samples.add("scheduler.rotation_s", interleaved_s - batched_s);
    samples.add("scheduler.epochs", epochs(&interleaved));
    samples.add("shard.sharded1_s", sharded1_s);
    samples.add("shard.barrier_s", sharded1_s - interleaved_s);
    samples.add("shard.body_s", body_s);
    samples.add("shard.body_share_1w", body_s / sharded1_s);
    samples.add("shard.epochs", epochs(&sharded1));
    samples.add("pool.speedup_2w", sharded1_s / pool_s);
    samples.add("pool.spawn2_s", spawn2_s);
    samples.add("pool.spawn_ratio", spawn2_s / pool_s);
    Ok(())
}

/// Builds a fresh fleet and times `drain` on it under a `probe` span
/// with `fleet.instantiate` and `name` children. Returns the report and
/// the drain's seconds.
///
/// # Errors
///
/// When the drain ran another number of transactions than the
/// reference (every schedule runs the same per-cluster streams).
fn probe_drain(
    parsed: &Parsed,
    reference: &Reference,
    spans: &mut Spans,
    op: u32,
    name: &'static str,
    drain: impl FnOnce(&FleetWorkload, &mut Fleet) -> FleetReport,
) -> Result<(FleetReport, f64), String> {
    let start = now();
    let mut fleet = parsed.workload.instantiate(parsed.engine());
    let built = now();
    let report = drain(&parsed.workload, &mut fleet);
    let end = now();
    let probe = spans.record(op, None, "probe", start, end);
    spans.record(op, Some(probe), "fleet.instantiate", start, built);
    spans.record(op, Some(probe), name, built, end);
    if report.transactions() != reference.transactions {
        return Err(format!(
            "{name} ran {} transactions, the reference {}",
            report.transactions(),
            reference.transactions
        ));
    }
    Ok((report, secs(built, end)))
}

/// Times the gateway's route lookup over the workload's destination
/// prefixes on a fresh fleet. Returns the route-table size and the mean
/// ns per lookup.
///
/// # Errors
///
/// When a destination does not route.
fn probe_routes(
    parsed: &Parsed,
    prefixes: &[FullPrefix],
    spans: &mut Spans,
    op: u32,
) -> Result<(usize, f64), String> {
    let start = now();
    let fleet = parsed.workload.instantiate(parsed.engine());
    let built = now();
    let gateway = fleet.gateway();
    let reps = ROUTE_LOOKUPS.div_ceil(prefixes.len().max(1));
    let mut routed = 0usize;
    for _ in 0..reps {
        for &p in prefixes {
            routed += usize::from(black_box(gateway.route(black_box(p))).is_some());
        }
    }
    let end = now();
    let probe = spans.record(op, None, "probe", start, end);
    spans.record(op, Some(probe), "fleet.instantiate", start, built);
    spans.record(op, Some(probe), "gateway.route", built, end);
    let lookups = reps * prefixes.len();
    if routed != lookups {
        return Err(format!("{routed} of {lookups} lookups routed"));
    }
    let route_ns = if lookups == 0 {
        0.0
    } else {
        (end - built).as_nanos() as f64 / lookups as f64
    };
    Ok((gateway.route_count(), route_ns))
}

/// Peak resident memory of this process so far, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mib() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval`s (four
    // 64-bit words) then fourteen `long`s, the first being `ru_maxrss`
    // in KiB.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a live, writable buffer laid out as 64-bit
    // Linux's `struct rusage`, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.0[4] as f64 / 1024.0
}
