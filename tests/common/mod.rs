//! Shared helpers for the integration suites: run a workload on
//! *every* [`EngineKind`] from one place, so adding an engine extends
//! the whole conformance surface without touching each test, and scale
//! the seeded-fuzz batteries through one environment knob.
//!
//! Each `tests/*.rs` integration crate pulls this in with `mod common;`
//! and uses the slice it needs (hence the crate-level `dead_code`
//! allow — not every suite calls every helper).

#![allow(dead_code)]

use mbus_core::{EngineKind, FleetReport, FleetSchedule, FleetWorkload, ScenarioReport, Workload};

/// Multiplier for seeded-fuzz batteries, read from `MBUS_SEED_SCALE`
/// (defaults to 1). The weekly CI cron sets it to 10 so the same
/// suites sweep ten times the seed space without a separate test
/// binary.
pub fn seed_scale() -> u64 {
    std::env::var("MBUS_SEED_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&scale| scale >= 1)
        .unwrap_or(1)
}

/// `base * seed_scale()`: the number of seeds a battery should walk.
pub fn scaled_seeds(base: u64) -> u64 {
    base * seed_scale()
}

/// The FNV-1a offset basis: the start of every golden fold.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the little-endian bytes of each digest, in order: one
/// 64-bit pin for a whole seeded battery.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests
        .into_iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

/// The engine kinds `workload` can be compared on: all of them, unless
/// the workload contains partial drains — the wire engine may legally
/// run ahead of `run_transaction` (see the `BusEngine` contract), so
/// mid-drain workloads run on the analytic engine alone. Their kernel
/// paths are covered by the golden digest fold in
/// `tests/analytic_batching.rs`, not by a twin engine.
pub fn comparable_kinds(workload: &Workload) -> Vec<EngineKind> {
    EngineKind::ALL
        .iter()
        .copied()
        .filter(|&kind| workload.wire_comparable() || kind != EngineKind::Wire)
        .collect()
}

/// Runs `workload` on every comparable engine kind and asserts all
/// [`ScenarioSignature`]s are identical, returning the reports in
/// [`EngineKind::ALL`] order (wire omitted for non-wire-comparable
/// workloads) for scenario-specific follow-up assertions.
///
/// [`ScenarioSignature`]: mbus_core::scenario::ScenarioSignature
pub fn crosscheck_all_engines(workload: &Workload) -> Vec<ScenarioReport> {
    let reports: Vec<ScenarioReport> = comparable_kinds(workload)
        .into_iter()
        .map(|kind| workload.run_on(kind))
        .collect();
    let reference = reports[0].signature();
    for report in &reports[1..] {
        assert_eq!(
            reference,
            report.signature(),
            "engines {} and {} disagree on workload '{}'",
            reports[0].kind,
            report.kind,
            workload.name()
        );
    }
    reports
}

/// The engine kinds `workload` can be compared on: all of them, unless
/// the workload contains partial drains ([`mbus_core::fleet::FleetStep::RunRounds`])
/// — the wire engine may legally run ahead of `run_transaction`, so
/// such fleets run on the analytic engine alone, exactly like the
/// single-bus layer. Their stepped drains are covered by the golden
/// digest fold in `tests/interleaved_fleet.rs`, not by a twin engine.
pub fn fleet_comparable_kinds(workload: &FleetWorkload) -> Vec<EngineKind> {
    EngineKind::ALL
        .iter()
        .copied()
        .filter(|&kind| workload.wire_comparable() || kind != EngineKind::Wire)
        .collect()
}

/// Runs `workload` on every comparable engine kind and asserts all
/// [`mbus_core::FleetSignature`]s are identical, returning the reports
/// in [`EngineKind::ALL`] order (wire omitted for workloads with
/// partial drains).
pub fn fleet_crosscheck_all_engines(workload: &FleetWorkload) -> Vec<FleetReport> {
    let reports: Vec<FleetReport> = fleet_comparable_kinds(workload)
        .into_iter()
        .map(|kind| workload.run_on(kind))
        .collect();
    let reference = reports[0].signature();
    for report in &reports[1..] {
        assert_eq!(
            reference,
            report.signature(),
            "engine kinds {} and {} disagree on fleet workload '{}'",
            reports[0].kind,
            report.kind,
            workload.name()
        );
    }
    reports
}

/// Runs `workload` through [`FleetSchedule::Sharded`] across `shards`
/// workers on `kind` and asserts the drain is bit-identical to the
/// single-threaded interleaved reference: the full fleet-wide record
/// stream (not just per-cluster subsequences), the
/// [`mbus_core::FleetSignature`], and the merged gateway counters.
/// Returns the sharded run's report.
pub fn sharded_crosscheck(
    workload: &FleetWorkload,
    kind: EngineKind,
    reference: &FleetReport,
    shards: usize,
) -> FleetReport {
    let sharded = workload.run_scheduled_on(kind, FleetSchedule::Sharded { shards });
    assert_eq!(
        reference.records,
        sharded.records,
        "sharded({shards}) record stream diverged on '{}' ({kind})",
        workload.name()
    );
    assert_eq!(
        reference.signature(),
        sharded.signature(),
        "sharded({shards}) signature diverged on '{}' ({kind})",
        workload.name()
    );
    assert_eq!(
        (
            reference.forwarded,
            reference.hop_forwards,
            reference.dropped,
            &reference.cluster_drops,
            &reference.ttl_drops,
        ),
        (
            sharded.forwarded,
            sharded.hop_forwards,
            sharded.dropped,
            &sharded.cluster_drops,
            &sharded.ttl_drops,
        ),
        "sharded({shards}) gateway counters diverged on '{}' ({kind})",
        workload.name()
    );
    sharded
}
