//! Deterministic delta-debugging shrinker for failing traces.
//!
//! A fuzz battery that trips an engine divergence hands back a seeded
//! generator output with dozens of nodes and hundreds of steps — far
//! more than the divergence needs. [`shrink_workload`] and
//! [`shrink_fleet`] minimize such a scenario while a caller-supplied
//! predicate (*"does this still fail?"*) keeps returning `true`, so
//! fuzz failures ship as minimal `.mbt` repros.
//!
//! Both shrinkers edit the same split-into-parts form of a trace the
//! `.mbt` parser fills (`WorkloadParts` / `FleetParts`: header, topology,
//! behavior table, steps). One helper, `attempt`, does every edit: it
//! clones the parts, applies the edit, builds the clone through the
//! public workload builders, and keeps it only if the predicate still
//! fails — so the shrinker can never manufacture an out-of-range
//! reference or a scenario the builders would reject. On top of it, in
//! this order and run to a fixpoint:
//!
//! 1. **Drop steps** — ddmin over the step list, chunk sizes halving
//!    from `len/2` to 1, so the result is 1-minimal: no single
//!    remaining step can be removed.
//! 2. **Shrink each step** by a candidate function: payloads (empty,
//!    then first half, then all-zero bytes; the fixpoint loop
//!    re-halves until nothing shrinks), then partial-drain counts
//!    (toward 0, then halving).
//! 3. **Drop each entry** of the reactive tables — any [`NodeBehavior`]
//!    (closed-loop repros keep only the behaviors that fire) and, for
//!    fleets, any mesh route the divergence does not need.
//! 4. **Drop topology** — kind-specific passes over the same helper:
//!    any node (or cluster) nothing references, remapping the indices
//!    of later ones down; plus, for fleets, trimming trailing
//!    unreferenced sensors off each cluster.
//!
//! The three generic passes serve both trace kinds. There is no
//! randomness: the same input and predicate always minimize to the
//! same trace (the shrinker self-test pins this, and pins the exact
//! minimized text of fixtures that reach every pass).
//!
//! [`NodeBehavior`]: crate::behavior::NodeBehavior

use crate::fleet::{checked_envelope, open_remote, FleetNodeId, FleetStep, FleetWorkload};
use crate::message::Message;
use crate::scenario::{Step, Workload};

use super::{FleetParts, Parts, WorkloadParts};

/// Minimizes a failing single-bus workload.
///
/// `predicate` must return `true` for a *still-failing* candidate; it
/// is required to hold for `workload` itself (if it does not, the
/// input is returned unchanged). The result is 1-minimal over step
/// removal: dropping any single remaining step makes the predicate
/// pass.
pub fn shrink_workload(
    workload: &Workload,
    predicate: &mut dyn FnMut(&Workload) -> bool,
) -> Workload {
    if !predicate(workload) {
        return workload.clone();
    }
    let mut parts = WorkloadParts::of(workload);
    loop {
        let mut progress = false;
        progress |= ddmin(&mut parts, predicate, |p| &mut p.steps);
        progress |= shrink_each(&mut parts, predicate, |p| &mut p.steps, step_payloads);
        progress |= shrink_each(&mut parts, predicate, |p| &mut p.steps, step_counts);
        progress |= drop_each(&mut parts, predicate, |p| &mut p.behaviors);
        progress |= drop_unreferenced_nodes(&mut parts, predicate);
        if !progress {
            return parts.build();
        }
    }
}

/// Minimizes a failing fleet workload; the fleet counterpart of
/// [`shrink_workload`] (steps, payloads, round counts, behaviors, mesh
/// routes, unreferenced clusters, trailing unreferenced sensors).
pub fn shrink_fleet(
    workload: &FleetWorkload,
    predicate: &mut dyn FnMut(&FleetWorkload) -> bool,
) -> FleetWorkload {
    if !predicate(workload) {
        return workload.clone();
    }
    let mut parts = FleetParts::of(workload);
    loop {
        let mut progress = false;
        progress |= ddmin(&mut parts, predicate, |p| &mut p.steps);
        progress |= shrink_each(&mut parts, predicate, |p| &mut p.steps, fleet_step_payloads);
        progress |= shrink_each(&mut parts, predicate, |p| &mut p.steps, fleet_step_counts);
        progress |= drop_each(&mut parts, predicate, |p| &mut p.behaviors);
        progress |= drop_each(&mut parts, predicate, |p| &mut p.routes);
        progress |= drop_unreferenced_clusters(&mut parts, predicate);
        progress |= trim_trailing_sensors(&mut parts, predicate);
        if !progress {
            return parts.build();
        }
    }
}

/// "Does this candidate still fail?"
type Predicate<'a, P> = dyn FnMut(&<P as Parts>::Built) -> bool + 'a;

/// One list inside a parts value, for the generic passes.
type List<P, T> = fn(&mut P) -> &mut Vec<T>;

/// Applies `edit` to a copy of `parts`, builds the copy through the
/// public builders, and keeps it only if the failure survives.
fn attempt<P: Parts>(
    parts: &mut P,
    predicate: &mut Predicate<P>,
    edit: impl FnOnce(&mut P),
) -> bool {
    let mut candidate = parts.clone();
    edit(&mut candidate);
    if predicate(&candidate.clone().build()) {
        *parts = candidate;
        true
    } else {
        false
    }
}

// ----------------------------------------------------------------------
// Generic passes
// ----------------------------------------------------------------------

/// ddmin: drops chunks of the list, chunk sizes halving from `len/2`
/// to 1, so no single remaining element can be removed.
fn ddmin<P: Parts, T>(parts: &mut P, predicate: &mut Predicate<P>, list: List<P, T>) -> bool {
    let mut progress = false;
    let mut chunk = list(parts).len() / 2;
    while chunk >= 1 {
        let mut lo = 0;
        while lo < list(parts).len() {
            let hi = (lo + chunk).min(list(parts).len());
            if attempt(parts, predicate, |p| drop(list(p).drain(lo..hi))) {
                progress = true;
            } else {
                lo = hi;
            }
        }
        chunk /= 2;
    }
    progress
}

/// Replaces each element by the first of its `candidates` (tried in
/// order) the failure survives.
fn shrink_each<P: Parts, T: Clone>(
    parts: &mut P,
    predicate: &mut Predicate<P>,
    list: List<P, T>,
    candidates: fn(&P, &T) -> Vec<T>,
) -> bool {
    let mut progress = false;
    for i in 0..list(parts).len() {
        let current = list(parts)[i].clone();
        for candidate in candidates(parts, &current) {
            if attempt(parts, predicate, |p| list(p)[i] = candidate) {
                progress = true;
                break;
            }
        }
    }
    progress
}

/// Removes each entry in turn when the failure survives without it —
/// behaviors (closed-loop repros keep only those that fire) and mesh
/// routes (an envelope that loses its only route legally becomes an
/// unroutable drop; the predicate decides whether that still fails).
fn drop_each<P: Parts, T>(parts: &mut P, predicate: &mut Predicate<P>, list: List<P, T>) -> bool {
    let mut progress = false;
    let mut i = 0;
    while i < list(parts).len() {
        if attempt(parts, predicate, |p| drop(list(p).remove(i))) {
            // Re-check the entry that slid into slot `i`.
            progress = true;
        } else {
            i += 1;
        }
    }
    progress
}

// ----------------------------------------------------------------------
// Candidate functions
// ----------------------------------------------------------------------

/// Candidate reductions for one payload, in preference order: empty,
/// first half, all-zero. The fixpoint loop re-applies the half-length
/// candidate until it stops helping, so long payloads shrink
/// logarithmically.
fn payload_candidates(payload: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    if !payload.is_empty() {
        out.push(Vec::new());
        if payload.len() > 1 {
            out.push(payload[..payload.len() / 2].to_vec());
        }
        if payload.iter().any(|&b| b != 0) {
            out.push(vec![0; payload.len()]);
        }
    }
    out
}

/// `msg` with each of its [`payload_candidates`]; destination and
/// priority are kept.
fn message_candidates(msg: &Message) -> impl Iterator<Item = Message> + '_ {
    payload_candidates(msg.payload())
        .into_iter()
        .map(|payload| msg.with_payload(payload))
}

/// Partial-drain count candidates: 0, then half.
fn count_candidates(count: usize) -> Vec<usize> {
    let mut out = Vec::new();
    if count > 0 {
        out.push(0);
        if count > 1 {
            out.push(count / 2);
        }
    }
    out
}

fn step_payloads(_: &WorkloadParts, step: &Step) -> Vec<Step> {
    match step {
        Step::Queue { node, msg } => message_candidates(msg)
            .map(|msg| Step::Queue { node: *node, msg })
            .collect(),
        Step::QueueUnchecked { node, msg } => message_candidates(msg)
            .map(|msg| Step::QueueUnchecked { node: *node, msg })
            .collect(),
        _ => Vec::new(),
    }
}

fn step_counts(_: &WorkloadParts, step: &Step) -> Vec<Step> {
    match *step {
        Step::RunTransactions { count } => count_candidates(count)
            .into_iter()
            .map(|count| Step::RunTransactions { count })
            .collect(),
        _ => Vec::new(),
    }
}

/// Whether `dest` could be a gateway forwarding port: fu 0 of the
/// gateway's fixed short prefix (0x1), or fu 0 of any full prefix
/// (gateway presences own per-cluster full prefixes the shrinker
/// cannot enumerate, so it stays conservative).
fn targets_forwarding_port(dest: crate::addr::Address) -> bool {
    use crate::addr::Address;
    match dest {
        Address::Short { prefix, fu_id } => prefix.raw() == 0x1 && fu_id.raw() == 0,
        Address::Full { fu_id, .. } => fu_id.raw() == 0,
        Address::Broadcast { .. } => false,
    }
}

fn fleet_step_payloads(parts: &FleetParts, step: &FleetStep) -> Vec<FleetStep> {
    match step {
        // A local send to a forwarding port (fu 0 of a gateway
        // presence) is an envelope *because its payload decodes as
        // one* — shrinking the payload would turn it into traffic
        // `Fleet::queue` rejects, and `FleetWorkload::apply` treats a
        // rejected step as a caller bug. Leave such payloads alone;
        // the step-removal pass can still drop the whole send.
        FleetStep::Local { msg, .. } if targets_forwarding_port(msg.dest()) => Vec::new(),
        FleetStep::Local { src, msg } => message_candidates(msg)
            .map(|msg| FleetStep::Local { src: *src, msg })
            .collect(),
        FleetStep::Remote { src, dest, msg } => payload_candidates(open_remote(msg).2)
            .into_iter()
            .map(|payload| FleetStep::Remote {
                src: *src,
                dest: *dest,
                msg: reenvelope(parts, *dest, msg, payload),
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// `msg`'s envelope rebuilt by the one checked constructor for `dest`
/// on `parts`' topology, carrying `payload`, with its fu, TTL and
/// priority.
fn reenvelope(parts: &FleetParts, dest: FleetNodeId, msg: &Message, payload: Vec<u8>) -> Message {
    let (fu, ttl, _) = open_remote(msg);
    let ring = parts.clusters.get(dest.cluster).map(|s| s.len() + 1);
    let rebuilt = checked_envelope(&parts.config, ring, dest, fu, payload, ttl).expect("valid");
    msg.with_payload(rebuilt.into_payload())
}

fn fleet_step_counts(_: &FleetParts, step: &FleetStep) -> Vec<FleetStep> {
    match *step {
        FleetStep::RunRounds { rounds } => count_candidates(rounds)
            .into_iter()
            .map(|rounds| FleetStep::RunRounds { rounds })
            .collect(),
        _ => Vec::new(),
    }
}

// ----------------------------------------------------------------------
// Topology passes
// ----------------------------------------------------------------------

/// The node a step names: its sender or woken node.
fn step_node(step: &mut Step) -> Option<&mut usize> {
    match step {
        Step::Queue { node, .. } | Step::QueueUnchecked { node, .. } | Step::Wakeup { node } => {
            Some(node)
        }
        Step::Run | Step::RunTransactions { .. } => None,
    }
}

/// Drops any node no step or behavior references by index, remapping
/// the indices of later nodes down by one. Destination *addresses*
/// are left alone — a send whose receiver disappears legally resolves
/// to [`crate::TxOutcome::NoDestination`], and the predicate decides
/// whether the failure survives.
fn drop_unreferenced_nodes(
    parts: &mut WorkloadParts,
    predicate: &mut Predicate<WorkloadParts>,
) -> bool {
    let mut progress = false;
    let mut i = 0;
    while i < parts.nodes.len() {
        // A behavior entry is a reference too: the drop-behaviors pass
        // clears it first when it is not needed, then the node falls
        // on the next fixpoint iteration.
        let referenced = parts.behaviors.iter().any(|&(node, _)| node == i)
            || parts
                .steps
                .iter_mut()
                .filter_map(step_node)
                .any(|node| *node == i);
        let shift = |node: &mut usize| *node -= usize::from(*node > i);
        let dropped = !referenced
            && attempt(parts, predicate, |p| {
                p.nodes.remove(i);
                for (node, _) in &mut p.behaviors {
                    shift(node);
                }
                for node in p.steps.iter_mut().filter_map(step_node) {
                    shift(node);
                }
            });
        if dropped {
            // Re-check the node that slid into slot `i`.
            progress = true;
        } else {
            i += 1;
        }
    }
    progress
}

/// Every fleet node a step names: its source, remote destination, or
/// woken node.
fn step_ids(step: &mut FleetStep) -> Vec<&mut FleetNodeId> {
    match step {
        FleetStep::Local { src, .. } | FleetStep::Wakeup { node: src } => vec![src],
        FleetStep::Remote { src, dest, .. } => vec![src, dest],
        FleetStep::Drain | FleetStep::RunRounds { .. } => Vec::new(),
    }
}

/// Drops any cluster nothing references, remapping later cluster
/// indices down by one — the fleet analog of
/// [`drop_unreferenced_nodes`]. Remote destinations naming a dropped
/// cluster would dangle, so a cluster referenced *anywhere* (src,
/// dest, or wakeup) is kept.
fn drop_unreferenced_clusters(
    parts: &mut FleetParts,
    predicate: &mut Predicate<FleetParts>,
) -> bool {
    let mut progress = false;
    let mut i = 0;
    while i < parts.clusters.len() {
        // Behaviors hosted on the cluster and mesh routes hopping
        // *through* it count as references; the reactive-table passes
        // clear those first when they are not load-bearing.
        let referenced = parts.behaviors.iter().any(|(id, _)| id.cluster == i)
            || parts.routes.iter().any(|r| r.via == i)
            || parts
                .steps
                .iter_mut()
                .flat_map(step_ids)
                .any(|id| id.cluster == i);
        let shift = |c: &mut usize| *c -= usize::from(*c > i);
        let dropped = !referenced
            && attempt(parts, predicate, |p| {
                p.clusters.remove(i);
                p.domains.remove(i);
                // Route range bounds live in cluster-index space; shift
                // them with the clusters they cover (`via == i` is
                // excluded above).
                for r in &mut p.routes {
                    shift(&mut r.lo);
                    shift(&mut r.hi);
                    shift(&mut r.via);
                }
                for (id, _) in &mut p.behaviors {
                    shift(&mut id.cluster);
                }
                for id in p.steps.iter_mut().flat_map(step_ids) {
                    shift(&mut id.cluster);
                }
                // A remote destination past `i` moved: rebuild its header.
                let mut steps = std::mem::take(&mut p.steps);
                for step in &mut steps {
                    if let FleetStep::Remote { dest, msg, .. } = step {
                        if dest.cluster >= i {
                            *msg = reenvelope(p, *dest, msg, open_remote(msg).2.to_vec());
                        }
                    }
                }
                p.steps = steps;
            });
        if dropped {
            progress = true;
        } else {
            i += 1;
        }
    }
    progress
}

/// Trims each cluster's sensor list down to the highest ring position
/// any step or behavior still references (position 0 is the gateway;
/// sensors are 1-based), one cluster at a time.
fn trim_trailing_sensors(parts: &mut FleetParts, predicate: &mut Predicate<FleetParts>) -> bool {
    let mut progress = false;
    for c in 0..parts.clusters.len() {
        let max_node = parts
            .steps
            .iter_mut()
            .flat_map(step_ids)
            .map(|id| *id)
            .chain(parts.behaviors.iter().map(|&(id, _)| id))
            .filter(|id| id.cluster == c)
            .map(|id| id.node)
            .max()
            .unwrap_or(0);
        if max_node < parts.clusters[c].len() {
            progress |= attempt(parts, predicate, |p| p.clusters[c].truncate(max_node));
        }
    }
    progress
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, FuId, ShortPrefix};
    use crate::config::BusConfig;
    use crate::engine::EngineKind;
    use crate::message::Message;

    /// A storm shrinks to nothing when the predicate is `true` for
    /// every candidate (the degenerate always-failing case).
    #[test]
    fn always_failing_shrinks_to_empty() {
        let w = Workload::many_node_storm(6, 3);
        let min = shrink_workload(&w, &mut |_| true);
        assert!(min.steps().is_empty());
        assert!(min.node_specs().is_empty());
    }

    /// A predicate keyed on one specific payload byte pins the shrink
    /// to exactly the send carrying it (plus nothing else).
    #[test]
    fn shrinks_to_the_one_interesting_send() {
        let w = Workload::many_node_storm(6, 3);
        let needle = |w: &Workload| {
            w.steps().iter().any(|s| match s {
                Step::Queue { msg, .. } => !msg.payload().is_empty(),
                _ => false,
            })
        };
        let min = shrink_workload(&w, &mut { |w: &Workload| needle(w) });
        let sends = min
            .steps()
            .iter()
            .filter(|s| matches!(s, Step::Queue { .. }))
            .count();
        assert_eq!(sends, 1, "exactly one send survives: {:?}", min.steps());
        assert_eq!(min.steps().len(), 1, "and nothing else: {:?}", min.steps());
        // Determinism: shrinking again (or shrinking the minimum)
        // reproduces the identical trace.
        let again = shrink_workload(&w, &mut { |w: &Workload| needle(w) });
        assert_eq!(format!("{:?}", min.steps()), format!("{:?}", again.steps()));
        let fixpoint = shrink_workload(&min, &mut { |w: &Workload| needle(w) });
        assert_eq!(
            format!("{:?}", min.steps()),
            format!("{:?}", fixpoint.steps())
        );
    }

    /// Shrinking preserves predicate truth end-to-end on a real
    /// behavioral predicate (an engine actually runs the candidates).
    #[test]
    fn behavioral_predicate_survives_shrinking() {
        let w = Workload::many_node_storm(5, 2);
        let mut pred = |w: &Workload| {
            let report = w.run_on(EngineKind::Analytic);
            report.records.iter().any(|r| !r.delivered_to.is_empty())
        };
        let min = shrink_workload(&w, &mut pred);
        assert!(pred(&min), "minimized workload still delivers");
        assert!(min.steps().len() <= 2, "a send plus at most one drain");
    }

    #[test]
    fn passing_input_is_returned_unchanged() {
        let w = Workload::many_node_storm(3, 1);
        let min = shrink_workload(&w, &mut |_| false);
        assert_eq!(min.steps().len(), w.steps().len());
    }

    #[test]
    fn fleet_shrinks_to_the_remote_leg() {
        let w = FleetWorkload::cross_storm(4, 3, 2);
        let mut pred = |w: &FleetWorkload| {
            w.steps()
                .iter()
                .any(|s| matches!(s, FleetStep::Remote { .. }))
        };
        let min = shrink_fleet(&w, &mut pred);
        assert_eq!(
            min.steps().len(),
            1,
            "one remote survives: {:?}",
            min.steps()
        );
        assert!(
            min.cluster_specs().len() <= 2,
            "only the clusters the remote references survive: {:?}",
            min.cluster_specs()
        );
        // Payloads shrink too.
        let FleetStep::Remote { msg, .. } = &min.steps()[0] else {
            panic!("not a remote: {:?}", min.steps());
        };
        let payload = open_remote(msg).2;
        assert!(payload.is_empty(), "payload minimized: {payload:?}");
    }

    /// Unreferenced-cluster dropping remaps indices so a later
    /// cluster's traffic still applies cleanly.
    #[test]
    fn cluster_remap_keeps_references_valid() {
        let w = FleetWorkload::new("remap", BusConfig::default())
            .cluster(vec![false])
            .cluster(vec![false])
            .cluster(vec![false])
            .send_remote(
                crate::fleet::FleetNodeId::new(0, 1),
                crate::fleet::FleetNodeId::new(2, 1),
                FuId::ZERO,
                vec![0xAA],
            )
            .drain();
        let mut pred = |w: &FleetWorkload| {
            let report = w.run_on(EngineKind::Analytic);
            report.forwarded >= 1
        };
        assert!(pred(&w));
        let min = shrink_fleet(&w, &mut pred);
        assert!(pred(&min));
        assert_eq!(min.cluster_specs().len(), 2, "middle cluster dropped");
    }

    /// `Message::with_payload` keeps destination and priority — the
    /// payload pass must not silently drop the priority claim.
    #[test]
    fn payload_shrink_preserves_priority() {
        let w = Workload::new("prio", BusConfig::default())
            .node(
                crate::node::NodeSpec::new("a", crate::addr::FullPrefix::new(1).unwrap())
                    .with_short_prefix(ShortPrefix::new(1).unwrap()),
            )
            .node(
                crate::node::NodeSpec::new("b", crate::addr::FullPrefix::new(2).unwrap())
                    .with_short_prefix(ShortPrefix::new(2).unwrap()),
            )
            .send(
                0,
                Message::new(
                    Address::short(ShortPrefix::new(2).unwrap(), FuId::ZERO),
                    vec![1, 2, 3, 4],
                )
                .with_priority(),
            )
            .drain();
        let mut pred = |w: &Workload| {
            w.steps().iter().any(|s| match s {
                Step::Queue { msg, .. } => msg.is_priority(),
                _ => false,
            })
        };
        let min = shrink_workload(&w, &mut pred);
        let Step::Queue { msg, .. } = &min.steps()[0] else {
            panic!("send dropped: {:?}", min.steps());
        };
        assert!(msg.is_priority());
        assert!(msg.payload().is_empty());
    }
}
