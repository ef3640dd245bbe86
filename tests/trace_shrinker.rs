//! Self-test for the delta-debugging trace shrinker: inject a known
//! "divergence" (a marker byte a predicate hunts for), bury it in a
//! noisy workload, and check the shrinker (a) converges to the minimal
//! trace that still trips the predicate, (b) is deterministic across
//! reruns, and (c) produces a `.mbt` file that re-replays the failure
//! from disk alone — the full fuzz-failure workflow without needing a
//! real engine divergence.

mod common;

use mbus_core::fleet::{FleetStep, GatewayNode};
use mbus_core::scenario::Step;
use mbus_core::trace::TraceFile;
use mbus_core::{
    shrink_fleet, shrink_workload, Address, BusConfig, EngineKind, FleetNodeId, FleetWorkload,
    FuId, FullPrefix, Message, NodeSpec, ShortPrefix, Workload,
};

/// The injected-divergence marker the predicates hunt for.
const MARKER: u8 = 0x5A;

/// "Diverges" iff the analytic run delivers a payload containing the
/// marker byte — a stand-in for a real cross-engine digest mismatch
/// that lets the suite control exactly which steps are load-bearing.
fn workload_diverges(w: &Workload) -> bool {
    w.run_on(EngineKind::Analytic)
        .rx
        .iter()
        .flatten()
        .any(|rx| rx.payload.contains(&MARKER))
}

fn fleet_diverges(w: &FleetWorkload) -> bool {
    w.run_on(EngineKind::Analytic)
        .rx
        .iter()
        .flatten()
        .flatten()
        .any(|rx| rx.payload.contains(&MARKER))
}

fn short(n: u8) -> Address {
    Address::short(ShortPrefix::new(n).expect("prefix"), FuId::ZERO)
}

/// A noisy six-node workload: wakeups, partial drains, and decoy
/// traffic around one marker send whose payload is mostly padding the
/// payload pass can chew off.
fn noisy_workload() -> Workload {
    let mut w = Workload::new("shrinker/noisy", BusConfig::default());
    for i in 0..6u32 {
        w = w.node(
            NodeSpec::new(
                format!("n{i}"),
                FullPrefix::new(0x0400 + i).expect("prefix"),
            )
            .with_short_prefix(ShortPrefix::new((i + 1) as u8).expect("prefix")),
        );
    }
    w.send(1, Message::new(short(2), vec![0x10, 0x11]))
        .wakeup(3)
        .send(2, Message::new(short(3), vec![0x20]).with_priority())
        .drain_partial(1)
        .send(4, Message::new(short(5), vec![0x30, 0x31]))
        // The injected divergence, padded so the payload pass has work.
        .send(5, Message::new(short(1), vec![MARKER, 0x00, 0x00, 0x00]))
        .send(3, Message::new(short(4), vec![0x40]))
        .drain()
        .send(1, Message::new(short(6), vec![0x50]))
        .drain()
}

/// A three-cluster fleet with the marker on one remote leg plus decoy
/// locals, remotes, and wakeups on every cluster.
fn noisy_fleet() -> FleetWorkload {
    FleetWorkload::new("shrinker/noisy_fleet", BusConfig::default())
        .cluster(vec![false, false])
        .cluster(vec![false, true, false])
        .cluster(vec![false])
        .send_local(FleetNodeId::new(0, 1), Message::new(short(2), vec![0x10]))
        .send_remote(
            FleetNodeId::new(2, 1),
            FleetNodeId::new(0, 2),
            FuId::new(1).expect("fu"),
            vec![0x20, 0x21],
        )
        .wakeup(FleetNodeId::new(1, 2))
        // The injected divergence.
        .send_remote(
            FleetNodeId::new(0, 1),
            FleetNodeId::new(1, 1),
            FuId::new(2).expect("fu"),
            vec![MARKER, 0x00],
        )
        .send_local(
            FleetNodeId::new(1, 3),
            Message::new(short(2), vec![0x30]).with_priority(),
        )
        .drain()
}

#[test]
fn shrinker_converges_to_the_minimal_workload() {
    let noisy = noisy_workload();
    assert!(
        workload_diverges(&noisy),
        "marker must trip before shrinking"
    );
    let min = shrink_workload(&noisy, &mut workload_diverges);
    assert!(workload_diverges(&min), "shrinker lost the failure");

    // 1-minimal step list: the marker send alone — even the drain goes,
    // because `Workload::apply` quiesces implicitly at end-of-trace.
    assert_eq!(
        min.steps().len(),
        1,
        "not minimal: {}",
        TraceFile::workload(min.clone()).to_mbt()
    );
    let Step::Queue { msg, .. } = &min.steps()[0] else {
        panic!("surviving step should be the marker send");
    };
    // The payload pass halved the padding away down to the bare marker.
    assert_eq!(msg.payload(), [MARKER]);
    // Unreferenced decoy nodes dropped; only sender + destination left.
    assert_eq!(min.node_specs().len(), 2, "decoy nodes survived");
}

#[test]
fn shrinker_is_stable_across_reruns() {
    let noisy = noisy_workload();
    let first = TraceFile::workload(shrink_workload(&noisy, &mut workload_diverges)).to_mbt();
    let second = TraceFile::workload(shrink_workload(&noisy, &mut workload_diverges)).to_mbt();
    assert_eq!(first, second, "shrinking is not deterministic");

    let fleet = noisy_fleet();
    let first = TraceFile::fleet(shrink_fleet(&fleet, &mut fleet_diverges)).to_mbt();
    let second = TraceFile::fleet(shrink_fleet(&fleet, &mut fleet_diverges)).to_mbt();
    assert_eq!(first, second, "fleet shrinking is not deterministic");
}

#[test]
fn shrinker_converges_to_the_minimal_fleet() {
    let noisy = noisy_fleet();
    assert!(fleet_diverges(&noisy), "marker must trip before shrinking");
    let min = shrink_fleet(&noisy, &mut fleet_diverges);
    assert!(fleet_diverges(&min), "shrinker lost the failure");

    // The marker remote alone (the fleet runner also drains
    // implicitly at end-of-trace, flushing both forwarding legs).
    assert_eq!(
        min.steps().len(),
        1,
        "not minimal: {}",
        TraceFile::fleet(min.clone()).to_mbt()
    );
    let FleetStep::Remote { src, dest, msg } = &min.steps()[0] else {
        panic!("surviving step should be the marker remote");
    };
    let (_, _, _, _, payload) = GatewayNode::open(msg.payload()).expect("an envelope");
    assert_eq!(payload, &[MARKER]);
    // Cluster 2 (the decoy sender) is unreferenced and dropped, and
    // the surviving clusters keep only the sensors the remote needs.
    assert_eq!(min.cluster_specs().len(), 2, "decoy cluster survived");
    assert_eq!((src.cluster, dest.cluster), (0, 1));
    // The minimized fleet still honors every engine/schedule contract.
    for reference in &common::fleet_crosscheck_all_engines(&min) {
        common::sharded_crosscheck(&min, reference.kind, reference, 2);
    }
}

/// The acceptance-criterion workflow end to end: a failure is
/// exportable, shrinkable, and re-replayable *from the `.mbt` file
/// alone* — parse the exported minimized trace back from disk and the
/// predicate still trips on what was read.
#[test]
fn minimized_trace_reproduces_from_disk_alone() {
    let min = shrink_workload(&noisy_workload(), &mut workload_diverges);
    let path = std::env::temp_dir().join("mbus_shrinker_selftest.min.mbt");
    std::fs::write(&path, TraceFile::workload(min).with_seed(0).to_mbt()).expect("write repro");

    let reread = TraceFile::parse_file(&path).unwrap_or_else(|e| panic!("{e}"));
    std::fs::remove_file(&path).ok();
    assert_eq!(reread.meta.seed, Some(0));
    let mbus_core::trace::Trace::Workload(w) = &reread.trace else {
        panic!("repro should be a single-bus trace");
    };
    assert!(
        workload_diverges(w),
        "re-parsed minimized trace no longer reproduces the failure"
    );
}

/// Still "diverges" while the marker arrives, a behavior answers at
/// least one delivery, and a partial drain with a nonzero count
/// survives — so the shrinker must keep one behavior entry and one
/// partial drain, and walks the count-halving path to get there.
fn workload_replies_after_partial_drain(w: &Workload) -> bool {
    let partial = w
        .steps()
        .iter()
        .any(|s| matches!(s, Step::RunTransactions { count } if *count >= 1));
    partial && {
        let report = w.run_on(EngineKind::Analytic);
        report.injected_replies >= 1
            && report
                .rx
                .iter()
                .flatten()
                .any(|rx| rx.payload.contains(&MARKER))
    }
}

/// The fleet counterpart: the marker crosses the mesh, a behavior
/// answers, and a `drain-rounds` step with a nonzero count survives.
fn fleet_replies_after_partial_drain(w: &FleetWorkload) -> bool {
    let partial = w
        .steps()
        .iter()
        .any(|s| matches!(s, FleetStep::RunRounds { rounds } if *rounds >= 1));
    partial && {
        let report = w.run_on(EngineKind::Analytic);
        report.injected_replies >= 1
            && report
                .rx
                .iter()
                .flatten()
                .flatten()
                .any(|rx| rx.payload.contains(&MARKER))
    }
}

fn parse(text: &str) -> mbus_core::trace::Trace {
    TraceFile::parse_str("pin.mbt", text)
        .unwrap_or_else(|e| panic!("{e}"))
        .trace
}

/// Pins the exact minimized text of a workload that exercises the
/// behavior-drop pass, the `drain-partial` count pass, and node
/// dropping with behavior-index remapping.
#[test]
fn minimized_workload_text_is_pinned() {
    let mbus_core::trace::Trace::Workload(w) = parse(
        "mbt 2 workload\n\
         name shrinker/pin_workload\n\
         config clock=400000 maxmsg=1024\n\
         node prefix=0x00400 short=0x1 name=n0\n\
         node prefix=0x00401 short=0x2 name=n1\n\
         node prefix=0x00402 short=0x3 name=n2\n\
         node prefix=0x00403 short=0x4 name=n3\n\
         behavior 2 reply 1 ac\n\
         behavior 3 reply 1 bd\n\
         send 1 0x3.0 5a000000\n\
         send 0 0x4.0 10\n\
         drain-partial 6\n\
         send 3 0x2.0 20\n\
         drain\n",
    ) else {
        panic!("workload fixture");
    };
    assert!(workload_replies_after_partial_drain(&w));
    let min = shrink_workload(&w, &mut workload_replies_after_partial_drain);
    assert_eq!(
        TraceFile::workload(min).to_mbt(),
        "mbt 2 workload\n\
         name shrinker/pin_workload\n\
         config clock=400000 maxmsg=1024\n\
         node prefix=0x00401 short=0x2 name=n1\n\
         node prefix=0x00402 short=0x3 name=n2\n\
         behavior 1 reply 1 ac\n\
         send 0 0x3.0 5a\n\
         drain-partial 1\n"
    );
}

/// Pins the exact minimized text of a two-domain fleet that exercises
/// the behavior-drop and mesh-route-drop passes, the route-range and
/// domain remap when a cluster is dropped, trailing-sensor trimming,
/// `drain-rounds` count shrinking, and payload shrinking on a `ttl=`
/// remote.
#[test]
fn minimized_fleet_text_is_pinned() {
    let mbus_core::trace::Trace::Fleet(w) = parse(
        "mbt 2 fleet\n\
         name shrinker/pin_fleet\n\
         config clock=400000 maxmsg=1024\n\
         cluster aaa domain=0\n\
         cluster a domain=0\n\
         cluster aa domain=1\n\
         cluster a domain=1\n\
         route 0 2..3 2\n\
         route 1 0..1 0\n\
         route 1 0..1 1\n\
         behavior 2.1 reply 3 ac\n\
         behavior 0.2 reply 3 bd\n\
         remote 0.1 2.1 3 5a000000 ttl=4\n\
         local 0.2 0x2.0 11\n\
         remote 3.1 0.3 2 20\n\
         drain-rounds 5\n\
         wakeup 1.1\n\
         drain\n",
    ) else {
        panic!("fleet fixture");
    };
    assert!(fleet_replies_after_partial_drain(&w));
    let min = shrink_fleet(&w, &mut fleet_replies_after_partial_drain);
    assert_eq!(
        TraceFile::fleet(min).to_mbt(),
        "mbt 2 fleet\n\
         name shrinker/pin_fleet\n\
         config clock=400000 maxmsg=1024\n\
         cluster a\n\
         cluster a domain=1\n\
         route 0 1..2 1\n\
         behavior 1.1 reply 3 ac\n\
         remote 0.1 1.1 3 5a ttl=4\n\
         drain-rounds 1\n"
    );
}
