//! The engine abstraction: one transaction-level surface over both
//! MBus executions.
//!
//! The repository ships two protocol engines — the transaction-level
//! [`AnalyticBus`] (§6.1 cycle budget, steppable one transaction at a
//! time for interleaving thousands of buses on one thread) and the
//! edge-accurate [`WireEngine`] — whose APIs would otherwise mirror
//! each other only by convention, so every workload and cross-check
//! would be written once per engine. The [`BusEngine`]
//! trait captures the shared surface (add nodes, queue messages,
//! request wakeups, run, drain receive logs, read statistics), and
//! [`EngineRecord`] is the normalized per-transaction observation all
//! engines can produce *identically*, which is what the cross-check
//! suite compares.
//!
//! This module also holds the bookkeeping types the two engines share:
//! [`BusStats`] (whose per-role bit accounting is one code path
//! regardless of engine), [`ReceivedMessage`], and
//! [`NodeSet`], the 64-bit node set that caps a bus at
//! [`MAX_BUS_NODES`] and keeps [`EngineRecord`] `Copy`. A record
//! allocates nothing; what a transaction does allocate is each
//! delivered payload's copy into its receiver's log.
//!
//! # Engine differences
//!
//! The engines agree cycle-for-cycle on every transaction that runs.
//! One *scheduling* difference is inherent: a power-gated node that
//! wants to transmit on an otherwise idle bus first self-wakes with a
//! null transaction at the wire level (its bus controller needs the
//! 4-edge wakeup before it may drive, see
//! `crates/core/tests/wire_engine.rs`), while the analytic engine folds
//! that wakeup into the transaction itself. The fold is applied only
//! when *every* transmit contender is gated: if any awake node is also
//! contending, the wire level serves the awake nodes first (a gated
//! node cannot assert a request, nor join the priority round, in the
//! very transaction whose edges are still waking its bus controller),
//! and the analytic engine arbitrates identically. The scenario layer
//! normalizes the folded nulls when comparing engines; see
//! [`crate::scenario::ScenarioReport::signature`].
//!
//! Wake accounting is aligned per transaction: both engines charge one
//! [`BusStats::bus_ctl_wakes`] to every gated bus controller on every
//! transaction — including null transactions, whose arbitration edges
//! clock the ring all the same (§4.4). Folded self-wake nulls are the
//! one residual delta: the analytic engine runs one transaction where
//! the wire level runs two, so gated *bystanders* see one fewer wake
//! there (`tests/engine_conformance.rs` pins the per-transaction
//! parity).
//!
//! # Example
//!
//! ```
//! use mbus_core::engine::{build_engine, BusEngine, EngineKind};
//! use mbus_core::{Address, BusConfig, FuId, FullPrefix, Message, NodeSpec, ShortPrefix};
//!
//! for kind in EngineKind::ALL {
//!     let mut bus = build_engine(kind, BusConfig::default());
//!     let a = bus.add_node(
//!         NodeSpec::new("a", FullPrefix::new(0x1)?).with_short_prefix(ShortPrefix::new(0x1)?),
//!     );
//!     let b = bus.add_node(
//!         NodeSpec::new("b", FullPrefix::new(0x2)?).with_short_prefix(ShortPrefix::new(0x2)?),
//!     );
//!     bus.queue(
//!         a,
//!         Message::new(Address::short(ShortPrefix::new(0x2)?, FuId::ZERO), vec![0x42]),
//!     )?;
//!     let records = bus.run_until_quiescent();
//!     assert_eq!(records.len(), 1);
//!     assert_eq!(records[0].cycles, 19 + 8);
//!     assert_eq!(bus.take_rx(b)[0].payload, vec![0x42]);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use mbus_sim::SimTime;

use crate::addr::Address;
use crate::analytic::AnalyticBus;
use crate::config::BusConfig;
use crate::control::{ControlBits, TxOutcome};
use crate::error::MbusError;
use crate::message::Message;
use crate::node::NodeSpec;
use crate::wire::WireEngine;

/// Index of a node on the bus; the mediator is always index 0 and
/// topological priority decreases with increasing index (§4.3).
pub type NodeIndex = usize;

/// A message delivered to a node's layer controller.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReceivedMessage {
    /// Index of the transmitting node.
    pub from: NodeIndex,
    /// The address it was sent to (broadcasts keep their channel).
    pub dest: Address,
    /// Payload bytes, byte-aligned per §4.9.
    pub payload: Vec<u8>,
    /// Bus time at delivery (end of the control phase).
    pub at: SimTime,
}

/// Cumulative statistics over a bus's lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Completed transactions (including null transactions).
    pub transactions: u64,
    /// Total bus-clock cycles spent non-idle.
    pub busy_cycles: u64,
    /// Per-node cumulative transmitted bits.
    pub tx_bits: Vec<u64>,
    /// Per-node cumulative received bits.
    pub rx_bits: Vec<u64>,
    /// Per-node cumulative forwarded bits.
    pub fwd_bits: Vec<u64>,
    /// Per-node layer wake count.
    pub layer_wakes: Vec<u64>,
    /// Per-node bus-controller wake count.
    pub bus_ctl_wakes: Vec<u64>,
    /// Per-node CLK+DATA transition counts on the ring segment each
    /// node *drives* (wire engine only — the analytic engine has no
    /// wires, so it reports zeros). Entry `i` counts edges a ½CV²
    /// model charges against node `i`'s output drivers; the
    /// mediator-driven segment into node 0 is frontend load and is not
    /// attributed to any member. Excluded from scenario signatures:
    /// it is an engine-specific physical observable, not protocol
    /// behaviour.
    pub segment_edges: Vec<u64>,
}

impl BusStats {
    pub(crate) fn ensure_nodes(&mut self, n: usize) {
        self.tx_bits.resize(n, 0);
        self.rx_bits.resize(n, 0);
        self.fwd_bits.resize(n, 0);
        self.layer_wakes.resize(n, 0);
        self.bus_ctl_wakes.resize(n, 0);
        self.segment_edges.resize(n, 0);
    }

    /// Charges one transaction to the per-role bit counters and the
    /// transaction/busy totals — the single accounting path both
    /// engines share. The winner transmits, `receivers` (the
    /// address-matched nodes, whether or not they delivered) receive,
    /// and every other ring node forwards. Every role is charged the
    /// full cycle count: the paper's per-message energy formula
    /// charges `overhead + 8n` bits to every role (§6.2). A null
    /// transaction (`winner == None`, no receivers) is all-forward.
    pub(crate) fn record_transaction(
        &mut self,
        cycles: u64,
        node_count: usize,
        winner: Option<NodeIndex>,
        receivers: NodeSet,
    ) {
        self.transactions += 1;
        self.busy_cycles += cycles;
        if let Some(w) = winner {
            self.tx_bits[w] += cycles;
        }
        for r in receivers.iter() {
            self.rx_bits[r] += cycles;
        }
        for i in 0..node_count {
            if Some(i) != winner && !receivers.contains(i) {
                self.fwd_bits[i] += cycles;
            }
        }
    }

    /// Bus utilization over `elapsed` at `clock_hz` — §6.3.1 reports
    /// 0.0022 % for the temperature system.
    pub fn utilization(&self, elapsed: SimTime, clock_hz: u64) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        let busy_secs = self.busy_cycles as f64 / clock_hz as f64;
        busy_secs / elapsed.as_secs_f64()
    }
}

/// The most nodes one bus may hold — the capacity of a [`NodeSet`].
/// MBus short prefixes cap a bus at 14 addressable nodes (§4.2), so 64
/// leaves ample room for full-prefix-only members; both engines'
/// `add_node` panic past it.
pub const MAX_BUS_NODES: usize = 64;

/// A set of ring node positions `0..`[`MAX_BUS_NODES`], one bit each.
///
/// The engines' hot paths maintain per-transaction facts — who is
/// contending, who has a priority message queued, whose bus controller
/// is gated, who received — *incrementally* at the points where they
/// change, and query them with a few word operations: membership,
/// emptiness, set algebra, and the ring-ordered next-member scan
/// arbitration needs. The set is `Copy`, so records carrying one are
/// too.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct NodeSet(u64);

impl NodeSet {
    /// An empty set.
    pub fn new() -> Self {
        NodeSet(0)
    }

    /// Adds `i` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= MAX_BUS_NODES`.
    pub fn insert(&mut self, i: usize) {
        assert!(
            i < MAX_BUS_NODES,
            "node {i} is past the {MAX_BUS_NODES}-node bus cap"
        );
        self.0 |= 1 << i;
    }

    /// Removes `i` from the set.
    pub fn remove(&mut self, i: usize) {
        if i < MAX_BUS_NODES {
            self.0 &= !(1 << i);
        }
    }

    /// Whether `i` is a member.
    pub fn contains(self, i: usize) -> bool {
        i < MAX_BUS_NODES && self.0 & (1 << i) != 0
    }

    /// Whether the set has no members.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// The members of `self` not in `other`.
    pub fn difference(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    /// The members of both `self` and `other`.
    pub fn intersection(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & other.0)
    }

    /// The members of `self`, `other`, or both.
    pub fn union(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    /// The smallest member at index `i` or later, if any.
    pub fn next_at_or_after(self, i: usize) -> Option<usize> {
        if i >= MAX_BUS_NODES {
            return None;
        }
        let rest = self.0 & (!0u64 << i);
        (rest != 0).then(|| rest.trailing_zeros() as usize)
    }

    /// The first member at ring position `start` or later, wrapping to
    /// position 0 — the arbitration scan: "first contender downstream
    /// of the ring break" (§4.3), without materializing a ring-order
    /// list.
    pub fn next_from_wrapping(self, start: usize) -> Option<usize> {
        self.next_at_or_after(start)
            .or_else(|| self.next_at_or_after(0))
    }

    /// Iterates the members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let i = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (i < MAX_BUS_NODES).then_some(i)
        })
    }
}

impl FromIterator<NodeIndex> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeIndex>>(iter: I) -> Self {
        let mut set = NodeSet::new();
        for i in iter {
            set.insert(i);
        }
        set
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// One bus transaction, normalized to the fields both engines can
/// report identically — the only transaction record, and what the
/// cross-check suite compares.
///
/// It carries no virtual-time fields: the engines agree on cycle
/// counts but not on wall-clock placement (the wire engine pays
/// request/propagation latency between transactions). Fields the
/// analytic kernel could add are implied by these: the closing
/// interjector by `outcome` (transmitter on `Acked`/`NoDestination`,
/// receiver on `ReceiverAbort`, mediator otherwise) and the bits on
/// the wire by `cycles`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EngineRecord {
    /// Monotonic transaction number (0-based per engine).
    pub seq: u64,
    /// Total bus-clock cycles consumed, per the §6.1 budget.
    pub cycles: u64,
    /// The arbitration winner (`None` for a null transaction).
    pub winner: Option<NodeIndex>,
    /// Destination nodes whose layer received the payload.
    pub delivered_to: NodeSet,
    /// Outcome from the transmitter's perspective, in the analytic
    /// engine's vocabulary (`Nacked` wire outcomes normalize to
    /// [`TxOutcome::NoDestination`]; a runaway cut normalizes to
    /// [`TxOutcome::LengthEnforced`]).
    pub outcome: TxOutcome,
    /// The control bits observed on the bus.
    pub control: ControlBits,
}

impl EngineRecord {
    /// True for a null (wake-only) transaction.
    pub fn is_null(&self) -> bool {
        self.winner.is_none()
    }
}

/// Which engine implementation to instantiate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// The transaction-level engine (§6.1 cycle budget) — fast enough
    /// for the evaluation sweeps.
    Analytic,
    /// The edge-accurate engine over the `mbus-sim` kernel — every
    /// CLK/DATA edge exists with ring propagation delays.
    Wire,
}

impl EngineKind {
    /// Every engine, for "run everything on all of them" loops. The
    /// conformance suites iterate this array, so a new engine joins the
    /// whole scenario/sweep/fleet/test stack by being added here.
    pub const ALL: [EngineKind; 2] = [EngineKind::Analytic, EngineKind::Wire];

    /// A short display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Analytic => "analytic",
            EngineKind::Wire => "wire",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Instantiates an empty engine of the requested kind.
pub fn build_engine(kind: EngineKind, config: BusConfig) -> Box<dyn BusEngine> {
    match kind {
        EngineKind::Analytic => Box::new(AnalyticBus::new(config)),
        EngineKind::Wire => Box::new(WireEngine::new(config)),
    }
}

/// The shared transaction-level surface of an MBus engine.
///
/// Everything a workload, bench binary, or cross-check needs: build the
/// ring, queue traffic, run it, observe the results. Code written
/// against this trait runs unchanged on both engines; see
/// [`crate::scenario`] for the declarative layer on top.
///
/// # Contract
///
/// * Nodes are added before traffic; index 0 hosts the mediator and
///   topological priority decreases with increasing index.
/// * [`run_transaction`](BusEngine::run_transaction) returns completed
///   transactions in order. Engines may execute ahead internally (the
///   wire engine runs its event queue to quiescence and buffers the
///   records), so interleaving `queue` calls between `run_transaction`
///   calls must not assume the bus is paused between records.
/// * [`drain_rx`](BusEngine::drain_rx) and
///   [`take_rx`](BusEngine::take_rx) drain: a second call without new
///   traffic yields nothing.
/// * Engines are `Send`: an engine owns its whole state, so the sharded
///   fleet can lend it to a worker thread for an epoch.
pub trait BusEngine: Send {
    /// Which implementation this is.
    fn kind(&self) -> EngineKind;

    /// Adds a node at the next (lowest-priority) ring position and
    /// returns its index. Index 0 is the mediator node.
    ///
    /// # Panics
    ///
    /// * Past [`MAX_BUS_NODES`] nodes, on every engine.
    /// * The wire engine freezes its ring topology at the first queue,
    ///   wakeup, or run call and panics on later `add_node`; check
    ///   [`is_frozen`](BusEngine::is_frozen) first instead of catching
    ///   the panic.
    fn add_node(&mut self, spec: NodeSpec) -> NodeIndex;

    /// Whether the ring topology is frozen — `true` exactly when
    /// [`add_node`](BusEngine::add_node) would panic. The analytic
    /// engine never freezes (always `false`, the default); the
    /// wire engine freezes at its first queue/wakeup/run call.
    /// Schedulers and fleet builders consult this instead of catching
    /// panics.
    fn is_frozen(&self) -> bool {
        false
    }

    /// Number of nodes on the ring.
    fn node_count(&self) -> usize;

    /// The bus configuration.
    fn config(&self) -> &BusConfig;

    /// Current virtual time. Engines agree on cycle counts, not on
    /// wall-clock placement; compare cycles, not times.
    fn now(&self) -> SimTime;

    /// Queues a message for transmission by `node`.
    ///
    /// # Errors
    ///
    /// * [`MbusError::UnknownNode`] for an out-of-range index.
    /// * [`MbusError::MessageTooLong`] if the payload exceeds the
    ///   mediator's limit (use
    ///   [`queue_unchecked`](BusEngine::queue_unchecked) to test
    ///   runaway enforcement).
    fn queue(&mut self, node: NodeIndex, msg: Message) -> Result<(), MbusError>;

    /// Queues a message without validating its length, so tests can
    /// exercise the mediator's runaway-message counter.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::UnknownNode`] for an out-of-range index.
    fn queue_unchecked(&mut self, node: NodeIndex, msg: Message) -> Result<(), MbusError>;

    /// Asserts a node's interrupt port (§4.5): the always-on frontend
    /// will issue a null transaction to wake the node's own domains.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::UnknownNode`] for an out-of-range index.
    fn request_wakeup(&mut self, node: NodeIndex) -> Result<(), MbusError>;

    /// Executes up to one complete bus transaction (or a null
    /// transaction), returning `None` if the bus is idle.
    fn run_transaction(&mut self) -> Option<EngineRecord>;

    /// Runs transactions until no node wants the bus; returns the
    /// records in order. Loops
    /// [`run_transaction`](BusEngine::run_transaction), so a drain and
    /// a hand-stepped replay produce the same records, statistics and
    /// receive logs.
    fn run_until_quiescent(&mut self) -> Vec<EngineRecord> {
        std::iter::from_fn(|| self.run_transaction()).collect()
    }

    /// Moves a node's received messages, in delivery order, onto the
    /// end of `out`. The engine's log keeps its capacity, so a caller
    /// that drains into one reused buffer allocates nothing per call
    /// once both have grown.
    fn drain_rx(&mut self, node: NodeIndex, out: &mut Vec<ReceivedMessage>);

    /// Drains a node's received messages into a new vec:
    /// [`drain_rx`](BusEngine::drain_rx) into an empty one.
    fn take_rx(&mut self, node: NodeIndex) -> Vec<ReceivedMessage> {
        let mut rx = Vec::new();
        self.drain_rx(node, &mut rx);
        rx
    }

    /// A snapshot of the cumulative statistics.
    fn stats(&self) -> BusStats;

    /// Number of completed self-wake events on a node.
    fn wake_events(&self, node: NodeIndex) -> u64;

    /// Whether a node's layer domain is currently powered.
    fn layer_on(&self, node: NodeIndex) -> bool;

    /// A node's spec (prefixes may change under enumeration).
    fn spec(&self, node: NodeIndex) -> &NodeSpec;
}

impl fmt::Debug for dyn BusEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BusEngine")
            .field("kind", &self.kind())
            .field("nodes", &self.node_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{FuId, FullPrefix, ShortPrefix};

    fn sp(x: u8) -> ShortPrefix {
        ShortPrefix::new(x).unwrap()
    }

    /// Engines, and a fleet of them, are `Send` by construction: each
    /// owns its state, so this is checked by the compiler, not argued.
    #[test]
    fn engines_and_fleets_are_send() {
        fn send<T: Send>() {}
        send::<WireEngine>();
        send::<AnalyticBus>();
        send::<crate::fleet::Fleet>();
        send::<Box<dyn BusEngine>>();
    }

    fn two_nodes(engine: &mut dyn BusEngine) -> (NodeIndex, NodeIndex) {
        let a = engine
            .add_node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)));
        let b = engine
            .add_node(NodeSpec::new("b", FullPrefix::new(0x2).unwrap()).with_short_prefix(sp(0x2)));
        (a, b)
    }

    #[test]
    fn both_kinds_build_and_deliver() {
        for kind in EngineKind::ALL {
            let mut engine = build_engine(kind, BusConfig::default());
            assert_eq!(engine.kind(), kind);
            let (a, b) = two_nodes(engine.as_mut());
            engine
                .queue(
                    a,
                    Message::new(Address::short(sp(0x2), FuId::ZERO), vec![1, 2, 3]),
                )
                .unwrap();
            let records = engine.run_until_quiescent();
            assert_eq!(records.len(), 1, "{kind}");
            assert_eq!(records[0].cycles, 19 + 24, "{kind}");
            assert_eq!(records[0].winner, Some(a), "{kind}");
            assert_eq!(records[0].delivered_to, NodeSet::from_iter([b]), "{kind}");
            assert_eq!(records[0].outcome, TxOutcome::Acked, "{kind}");
            let rx = engine.take_rx(b);
            assert_eq!(rx.len(), 1, "{kind}");
            assert_eq!(rx[0].from, a, "{kind}");
            assert_eq!(rx[0].payload, vec![1, 2, 3], "{kind}");
        }
    }

    #[test]
    fn record_transaction_charges_roles() {
        let mut stats = BusStats::default();
        stats.ensure_nodes(4);
        stats.record_transaction(83, 4, Some(1), NodeSet::from_iter([3]));
        assert_eq!(stats.tx_bits, vec![0, 83, 0, 0]);
        assert_eq!(stats.rx_bits, vec![0, 0, 0, 83]);
        assert_eq!(stats.fwd_bits, vec![83, 0, 83, 0]);
        // Null transaction: everyone forwards.
        stats.record_transaction(11, 4, None, NodeSet::new());
        assert_eq!(stats.fwd_bits, vec![94, 11, 94, 11]);
        assert_eq!((stats.transactions, stats.busy_cycles), (2, 94));
    }

    #[test]
    fn node_set_algebra_and_ascending_iteration() {
        let a = NodeSet::from_iter([5, 0, 63, 9]);
        let b = NodeSet::from_iter([9, 1]);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 5, 9, 63]);
        assert_eq!(a.len(), 4);
        assert_eq!(a.difference(b), NodeSet::from_iter([0, 5, 63]));
        assert_eq!(a.intersection(b), NodeSet::from_iter([9]));
        assert_eq!(a.next_from_wrapping(10), Some(63));
        assert_eq!(a.next_at_or_after(64), None);
        assert_eq!(b.next_from_wrapping(10), Some(1));
        assert!(!a.contains(64) && NodeSet::new().is_empty());
        assert_eq!(format!("{b:?}"), "{1, 9}");
    }

    #[test]
    #[should_panic(expected = "64-node bus cap")]
    fn node_set_rejects_the_65th_position() {
        NodeSet::new().insert(MAX_BUS_NODES);
    }

    #[test]
    fn engine_record_from_analytic() {
        // The kernel's inherent step and the trait's return the same
        // `Copy` record.
        let run = |via_trait: bool| {
            let mut bus = AnalyticBus::new(BusConfig::default());
            two_nodes(&mut bus);
            bus.queue(
                0,
                Message::new(Address::short(sp(0x2), FuId::ZERO), vec![9; 4]),
            )
            .unwrap();
            if via_trait {
                BusEngine::run_transaction(&mut bus)
            } else {
                bus.run_transaction()
            }
        };
        let rec = run(false).unwrap();
        assert_eq!(run(true), Some(rec));
        assert_eq!(rec.delivered_to, NodeSet::from_iter([1]));
        assert!(!rec.is_null());
    }
}
