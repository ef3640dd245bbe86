//! Closed-loop conformance suite: reactive behavior tables and the
//! multi-hop gateway mesh, pinned across every engine kind × fleet
//! schedule × shard count.
//!
//! Behaviors are injected at quiescence barriers *above* the engines
//! (see `mbus_core::behavior`), so the conformance claim is strong:
//! the programmed responses — and everything they trigger, including
//! multi-hop mesh forwards and TTL deaths — must be bit-identical on
//! the analytic and wire engines, on one shard and sharded(2|4).

mod common;

use mbus_core::{EngineKind, FleetWorkload};

/// The acceptance grid: seeded reactive fleets produce identical
/// [`mbus_core::FleetSignature`]s across both engines ×
/// one shard/sharded(2,4), over ≥200
/// seeds at the default `MBUS_SEED_SCALE`. The census assertions at
/// the bottom keep the battery honest: if the generator ever stops
/// drawing behaviors or mesh routes, this fails instead of silently
/// testing open-loop fleets.
#[test]
fn reactive_seeded_fleets_agree_across_the_full_grid() {
    let mut reactive = 0u64;
    let mut meshed = 0u64;
    for seed in 0..common::scaled_seeds(200) {
        let w = FleetWorkload::seeded(seed);
        reactive += u64::from(!w.behaviors().is_empty());
        meshed += u64::from(!w.mesh_routes().is_empty());
        // Cross-engine identity first (the helper asserts)...
        let reports = common::fleet_crosscheck_all_engines(&w);
        // ...then the shard grid per kind.
        for reference in &reports {
            for shards in [2, 4] {
                common::sharded_crosscheck(&w, reference.kind, reference, shards);
            }
        }
    }
    let seeds = common::scaled_seeds(200);
    // ~1/6 of sensors carry behaviors and ~1/3 of seeds split into two
    // mesh domains; demand a loose floor so a generator regression
    // can't hollow the battery out.
    assert!(
        reactive * 3 >= seeds,
        "only {reactive}/{seeds} seeds drew reactive behaviors"
    );
    assert!(
        meshed * 8 >= seeds,
        "only {meshed}/{seeds} seeds drew mesh routes"
    );
}

/// The ≥1000-bus acceptance scenario: a duty-cycled request/response
/// day across 1024 bridged buses in two mesh domains drains to
/// quiescence on every engine with identical signatures, every request
/// and reply crosses the inter-gateway boundary, nothing is dropped,
/// and reply traffic (each injected reply is one source transmission
/// plus one forwarded delivery leg) is at least 30% of all bus
/// transactions.
#[test]
fn duty_cycle_day_closes_the_loop_at_1024_buses() {
    let w = FleetWorkload::duty_cycle_day(1024, 2);
    let reports = common::fleet_crosscheck_all_engines(&w);
    assert_eq!(
        reports.len(),
        EngineKind::ALL.len(),
        "the duty-cycle day must stay wire-comparable"
    );
    let report = &reports[0];
    let transactions = report.transactions() as u64;
    assert_eq!(report.dropped, 0, "closed-loop traffic must not drop");
    assert_eq!(
        report.injected_replies, 1024,
        "every request must draw exactly one reply"
    );
    assert!(
        report.hop_forwards >= 2048,
        "requests and replies must each take an inter-gateway hop"
    );
    assert!(
        10 * 2 * report.injected_replies >= 3 * transactions,
        "reply share fell below 30% ({} replies / {transactions} transactions)",
        report.injected_replies
    );
    // The same day, sharded 4-ways, is bit-identical to the
    // single-threaded drain.
    common::sharded_crosscheck(&w, EngineKind::Analytic, &reports[0], 4);
}

/// The alarm cascade's wave crosses the mesh boundary and is bounded
/// by the reply horizon — on every engine, with the same hop
/// accounting.
#[test]
fn alarm_cascade_crosses_the_mesh_and_stays_horizon_bounded() {
    let w = FleetWorkload::alarm_cascade(1024, 2);
    let reports = common::fleet_crosscheck_all_engines(&w);
    let report = &reports[0];
    assert!(
        report.injected_replies > 0,
        "the spark must trip the cascade"
    );
    assert!(
        report.hop_forwards > 0,
        "the wave must cross the inter-gateway boundary"
    );
    assert_eq!(
        report.reply_rounds,
        u64::from(w.reply_horizon()),
        "an alarm cascade re-broadcasts until the horizon cuts it off"
    );
}

/// Aggregate-and-ack fan-in: 1023 reporters feed one collector, which
/// acks every 4th report back through the mesh — identical everywhere,
/// with the ack count pinned.
#[test]
fn aggregate_fanin_acks_through_the_mesh() {
    let w = FleetWorkload::aggregate_fanin(1024, 4, 2);
    let reports = common::fleet_crosscheck_all_engines(&w);
    let report = &reports[0];
    // 2 rounds × 1023 reports = 2046 triggers; every 4th draws an ack.
    assert_eq!(report.injected_replies, 2046 / 4, "ack cadence drifted");
    assert!(report.hop_forwards > 0, "acks must cross the mesh");
    assert_eq!(report.dropped, 0, "return addresses must all route");
}
