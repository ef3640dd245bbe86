//! The transaction-level ("analytical") MBus engine.
//!
//! This engine executes the MBus protocol at message granularity using
//! the §6.1 cycle budget instead of simulating individual edges. It is
//! exact for everything the evaluation sweeps need — arbitration
//! winners, delivery, ACK/NAK, cycle counts, per-role bit counts, power
//! states — and runs orders of magnitude faster than the wire-level
//! engine, which the cross-check tests in `tests/` hold it accountable
//! to.
//!
//! # The transaction kernel
//!
//! The kernel never rescans the ring: who wants the bus, whose front
//! message is priority, and whose bus controller is gated are
//! maintained incrementally (as [`NodeSet`]
//! bit indexes) at the points where they change — queue, withdraw,
//! wakeup, power transitions. Arbitration is a wrapping next-set-bit
//! scan from the ring break; destination match goes through a prefix
//! index rebuilt only when specs change. Every transaction returns one
//! `Copy` [`EngineRecord`]; the only allocation a transaction makes is
//! each delivered payload's copy into its receiver's log.
//!
//! # Stepping
//!
//! [`AnalyticBus::run_transaction`] executes exactly one transaction —
//! message, folded wake, or null — and returns `None` when no node
//! wants the bus. Nothing runs between calls and no work is buffered
//! ahead, so a single thread can hold thousands of buses and
//! round-robin `run_transaction` across them, which is what
//! [`crate::fleet::InterleavedScheduler`] does. The provided
//! [`BusEngine::run_until_quiescent`] loops the same step, so a drain
//! and a hand-stepped replay are bit-identical
//! (`tests/analytic_batching.rs`).
//!
//! # Arbitration semantics (§4.3–§4.4, §7)
//!
//! * Only nodes whose bus controller is awake when the request line
//!   falls can contend: a gated node's controller is still being woken
//!   by this very transaction's arbitration edges, so it can neither
//!   win plain arbitration nor assert in the priority round. It
//!   contends from the *next* transaction on. When **every** transmit
//!   contender is gated, the engine folds the wire level's self-wake
//!   null transaction into the message transaction itself (see
//!   [`crate::engine`]'s module docs).
//! * Under [`ArbitrationPolicy::Rotating`] (§7's future-work scheme),
//!   the ring break advances past the winner only when the winner won
//!   *plain* arbitration. A priority-round override (§4.3) does not
//!   consume the preempted node's turn: the break — and with it the
//!   denied arbitration winner's top priority — stays put, and null
//!   transactions never move it.

// Engine hot path: a `None` or `Err` is handled, never unwrapped.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{HashMap, VecDeque};

use mbus_sim::SimTime;

use crate::addr::Address;
use crate::config::BusConfig;
use crate::config::MIN_BYTES_BEFORE_INTERJECT;
use crate::control::{ControlBits, TxOutcome};
use crate::engine::{BusEngine, EngineKind, EngineRecord, NodeSet, MAX_BUS_NODES};
use crate::error::MbusError;
use crate::message::Message;
use crate::node::NodeSpec;
use crate::power_domain::NodePower;
use crate::timing::{ARBITRATION_CYCLES, CONTROL_CYCLES, INTERJECTION_CYCLES};

// The bookkeeping types are shared with the wire-level engine and live
// in `crate::engine`; re-exported here for backward compatibility.
pub use crate::engine::{BusStats, NodeIndex, ReceivedMessage};

/// How plain (non-priority-round) arbitration resolves ties (§7,
/// "Topological Priority, Fairness, and Progress").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ArbitrationPolicy {
    /// The paper's shipping design: the ring break sits at the
    /// mediator, so the topologically-first requester always wins.
    #[default]
    FixedTopological,
    /// The discussion section's "elegant rotating priority scheme":
    /// the break is reassigned after every message, so contending
    /// nodes are served round-robin. Costs state in the always-on
    /// wire controller — which is why the paper left it future work.
    Rotating,
}

#[derive(Debug)]
struct NodeState {
    spec: NodeSpec,
    power: NodePower,
    tx_queue: VecDeque<Message>,
    rx_log: Vec<ReceivedMessage>,
    wake_requested: bool,
    /// Set when a self-wake null transaction completed; the layer event.
    wake_events: u64,
}

/// The transaction-level MBus engine.
///
/// # Example
///
/// ```
/// use mbus_core::{
///     Address, AnalyticBus, BusConfig, FuId, FullPrefix, Message, NodeSpec,
///     ShortPrefix,
/// };
///
/// let mut bus = AnalyticBus::new(BusConfig::default());
/// let cpu = bus.add_node(
///     NodeSpec::new("cpu", FullPrefix::new(0x00001)?)
///         .with_short_prefix(ShortPrefix::new(0x1)?),
/// );
/// let sensor = bus.add_node(
///     NodeSpec::new("sensor", FullPrefix::new(0x00002)?)
///         .with_short_prefix(ShortPrefix::new(0x2)?),
/// );
/// bus.queue(
///     cpu,
///     Message::new(Address::short(ShortPrefix::new(0x2)?, FuId::ZERO), vec![0xAB]),
/// )?;
/// let record = bus.run_transaction().expect("one transaction");
/// assert!(record.outcome.is_success());
/// assert_eq!(bus.take_rx(sensor)[0].payload, vec![0xAB]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AnalyticBus {
    config: BusConfig,
    nodes: Vec<NodeState>,
    now: SimTime,
    seq: u64,
    stats: BusStats,
    policy: ArbitrationPolicy,
    /// Ring position currently holding the arbitration break (the
    /// node *after* it has top priority). Only advances under
    /// [`ArbitrationPolicy::Rotating`], and only past a node that won
    /// *plain* arbitration — priority-round overrides and null
    /// transactions leave the break in place (§7; see module docs).
    rotation: usize,
    /// Nodes with a non-empty transmit queue. Maintained at every
    /// queue mutation so arbitration never rescans the ring.
    tx_pending: NodeSet,
    /// Nodes whose *front* queued message is priority (⊆ `tx_pending`).
    priority_pending: NodeSet,
    /// Nodes with an asserted interrupt wakeup (§4.5).
    wake_pending: NodeSet,
    /// Nodes whose bus-controller domain is currently power-gated —
    /// the only nodes the per-transaction §4.4 wake pass must visit.
    gated_bus_ctl: NodeSet,
    /// Power-aware nodes (derived from specs; rebuilt when dirty).
    power_aware: NodeSet,
    /// Destination match index (derived from specs; rebuilt when
    /// dirty).
    addr_index: AddrIndex,
    /// Set by `add_node`/`spec_mut`: the spec-derived indexes above
    /// must be rebuilt before the next transaction.
    specs_dirty: bool,
}

/// Destination lookup by address: short prefixes and broadcast
/// channels index small arrays, full prefixes a hash map. Each bucket
/// is the set of matching nodes.
#[derive(Debug, Default)]
struct AddrIndex {
    short: [NodeSet; 16],
    broadcast: [NodeSet; 16],
    full: HashMap<u32, NodeSet>,
}

impl AddrIndex {
    fn rebuild(&mut self, nodes: &[NodeState]) {
        self.short = Default::default();
        self.broadcast = Default::default();
        self.full.clear();
        for (i, node) in nodes.iter().enumerate() {
            if let Some(prefix) = node.spec.short_prefix() {
                self.short[prefix.raw() as usize].insert(i);
            }
            self.full
                .entry(node.spec.full_prefix().raw())
                .or_default()
                .insert(i);
            for channel in 0..16u8 {
                if node.spec.listens_to(channel) {
                    self.broadcast[channel as usize].insert(i);
                }
            }
        }
    }

    /// The nodes `dest` matches.
    fn matches(&self, dest: Address) -> NodeSet {
        match dest {
            Address::Broadcast { channel } => self.broadcast[channel.raw() as usize],
            Address::Short { prefix, .. } => self.short[prefix.raw() as usize],
            Address::Full { prefix, .. } => {
                self.full.get(&prefix.raw()).copied().unwrap_or_default()
            }
        }
    }
}

impl AnalyticBus {
    /// Creates an empty bus. The first node added (index 0) hosts the
    /// mediator, mirroring the paper's processor-integrated mediator.
    pub fn new(config: BusConfig) -> Self {
        AnalyticBus {
            config,
            nodes: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            stats: BusStats::default(),
            policy: ArbitrationPolicy::default(),
            rotation: 0,
            tx_pending: NodeSet::new(),
            priority_pending: NodeSet::new(),
            wake_pending: NodeSet::new(),
            gated_bus_ctl: NodeSet::new(),
            power_aware: NodeSet::new(),
            addr_index: AddrIndex::default(),
            specs_dirty: false,
        }
    }

    /// Selects the arbitration policy (§7's rotating-priority
    /// extension; the default is the paper's fixed topological order).
    pub fn with_arbitration_policy(mut self, policy: ArbitrationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Adds a node at the next (lowest-priority) ring position and
    /// returns its index. Index 0 is the mediator node.
    ///
    /// # Panics
    ///
    /// Panics if the bus already holds [`MAX_BUS_NODES`] nodes.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeIndex {
        let index = self.nodes.len();
        assert!(
            index < MAX_BUS_NODES,
            "a bus holds at most {MAX_BUS_NODES} nodes"
        );
        // Only power-aware nodes boot gated; everything else keeps its
        // domains on, exactly like the wire-level engine — so wake
        // counting agrees across engines.
        let mut power = NodePower::new();
        if spec.is_power_aware() {
            self.gated_bus_ctl.insert(index);
        } else {
            while power.clock_edge_toward_bus_ctl().is_some() {}
            while power.clock_edge_toward_layer().is_some() {}
        }
        self.nodes.push(NodeState {
            spec,
            power,
            tx_queue: VecDeque::new(),
            rx_log: Vec::new(),
            wake_requested: false,
            wake_events: 0,
        });
        self.stats.ensure_nodes(self.nodes.len());
        self.specs_dirty = true;
        index
    }

    /// Number of nodes on the ring.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Replaces the bus configuration — modelling the configuration
    /// broadcast of §7 (clock speed, max message length).
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::BusBusy`] if any transaction is pending, as
    /// the broadcast itself would have to win the bus first.
    pub fn apply_config(&mut self, config: BusConfig) -> Result<(), MbusError> {
        if !self.tx_pending.is_empty() || !self.wake_pending.is_empty() {
            return Err(MbusError::BusBusy);
        }
        self.config = config;
        Ok(())
    }

    /// Current bus time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances idle time (nodes stay asleep; no bus activity).
    pub fn advance_idle(&mut self, duration: SimTime) {
        self.now += duration;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// A node's spec.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn spec(&self, node: NodeIndex) -> &NodeSpec {
        &self.nodes[node].spec
    }

    /// Mutable access to a node's spec (enumeration assigns prefixes).
    pub fn spec_mut(&mut self, node: NodeIndex) -> &mut NodeSpec {
        // The caller may change prefixes, channel subscriptions, or
        // power-awareness; rebuild the spec-derived indexes lazily.
        self.specs_dirty = true;
        &mut self.nodes[node].spec
    }

    /// Queues a message for transmission by `node`.
    ///
    /// # Errors
    ///
    /// * [`MbusError::UnknownNode`] for an out-of-range index.
    /// * [`MbusError::MessageTooLong`] if the payload exceeds the
    ///   mediator's limit (use [`AnalyticBus::queue_unchecked`] to test
    ///   runaway enforcement).
    pub fn queue(&mut self, node: NodeIndex, msg: Message) -> Result<(), MbusError> {
        if node >= self.nodes.len() {
            return Err(MbusError::UnknownNode { index: node });
        }
        msg.validate(&self.config)?;
        self.nodes[node].tx_queue.push_back(msg);
        self.refresh_queue_bits(node);
        Ok(())
    }

    /// Queues a message without validating its length, so tests can
    /// exercise the mediator's runaway-message counter.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::UnknownNode`] for an out-of-range index.
    pub fn queue_unchecked(&mut self, node: NodeIndex, msg: Message) -> Result<(), MbusError> {
        if node >= self.nodes.len() {
            return Err(MbusError::UnknownNode { index: node });
        }
        self.nodes[node].tx_queue.push_back(msg);
        self.refresh_queue_bits(node);
        Ok(())
    }

    /// Asserts a node's interrupt port (§4.5): the always-on frontend
    /// will issue a null transaction to wake the node's own domains.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::UnknownNode`] for an out-of-range index.
    pub fn request_wakeup(&mut self, node: NodeIndex) -> Result<(), MbusError> {
        if node >= self.nodes.len() {
            return Err(MbusError::UnknownNode { index: node });
        }
        self.nodes[node].wake_requested = true;
        self.wake_pending.insert(node);
        Ok(())
    }

    /// Withdraws the frontmost queued message of a node, returning
    /// whether one was removed. Hardware equivalent: a bus controller
    /// cancelling a now-stale pending request, as enumeration losers do
    /// when another node claims the prefix (§4.7).
    pub fn withdraw_front(&mut self, node: NodeIndex) -> bool {
        let withdrew = self
            .nodes
            .get_mut(node)
            .map(|n| n.tx_queue.pop_front().is_some())
            .unwrap_or(false);
        if withdrew {
            self.refresh_queue_bits(node);
        }
        withdrew
    }

    /// Moves a node's received messages onto the end of `out` (see
    /// [`BusEngine::drain_rx`]).
    pub fn drain_rx(&mut self, node: NodeIndex, out: &mut Vec<ReceivedMessage>) {
        out.append(&mut self.nodes[node].rx_log);
    }

    /// Drains a node's received messages.
    pub fn take_rx(&mut self, node: NodeIndex) -> Vec<ReceivedMessage> {
        BusEngine::take_rx(self, node)
    }

    /// Number of completed self-wake events on a node.
    pub fn wake_events(&self, node: NodeIndex) -> u64 {
        self.nodes[node].wake_events
    }

    /// Whether a node's layer domain is currently powered.
    pub fn layer_on(&self, node: NodeIndex) -> bool {
        self.nodes[node].power.layer().is_on()
    }

    /// Executes one complete bus transaction (or a null transaction),
    /// returning `None` if the bus is idle. A `None` bus steps again as
    /// soon as traffic is queued or a wakeup is requested. All
    /// contender bookkeeping is incremental (see module docs) — nothing
    /// here scans every node.
    pub fn run_transaction(&mut self) -> Option<EngineRecord> {
        if self.tx_pending.is_empty() && self.wake_pending.is_empty() {
            return None;
        }
        self.ensure_spec_indexes();

        // Wake-only requesters issue a null transaction: they pull DATA
        // low then resume forwarding before the arbitration edge, so
        // they never *win*. Real transmitters take precedence.
        if self.tx_pending.is_empty() {
            // Every transaction's arbitration CLK edges wake every ring
            // node's gated bus controller (§4.4) — null transactions
            // included, exactly like the wire level.
            self.wake_all_bus_controllers();
            return Some(self.run_null_transaction());
        }

        // The contender field (§4.3): a request can only be driven by
        // an *awake* bus controller — a gated node's controller is
        // still being woken by this transaction's own edges, so it
        // contends (and may assert priority) only from the next
        // transaction. When every transmit contender is gated, fold
        // the wire level's self-wake null into this transaction and
        // let them all arbitrate (see `crate::engine` docs).
        let mut field = self.tx_pending.difference(self.gated_bus_ctl);
        if field.is_empty() {
            field = self.tx_pending;
        }
        self.wake_all_bus_controllers();

        // Arbitration: first contender downstream of the ring break.
        // With the fixed policy the break sits at the mediator (index 0
        // wins ties, "the mediator always has top priority", §7); with
        // the rotating policy the break advances past each plain winner.
        let break_at = match self.policy {
            ArbitrationPolicy::FixedTopological => 0,
            ArbitrationPolicy::Rotating => self.rotation,
        };
        let n = self.nodes.len();
        let Some(arb_winner) = field.next_from_wrapping(break_at) else {
            unreachable!("arbitration entered with a nonempty contender field");
        };

        // Priority round: first priority claimant in the contender
        // field downstream of the arbitration winner, wrapping around
        // the ring (§4.3, Fig. 5).
        let winner = field
            .intersection(self.priority_pending)
            .next_from_wrapping((arb_winner + 1) % n)
            .unwrap_or(arb_winner);

        let Some(msg) = self.nodes[winner].tx_queue.pop_front() else {
            unreachable!("the contender field only holds nodes with queued messages");
        };
        self.refresh_queue_bits(winner);

        // Losers stay queued: LostArbitration is implicit (they contend
        // again next transaction).
        let record = self.execute_message(winner, msg);
        if self.policy == ArbitrationPolicy::Rotating && winner == arb_winner {
            // §7's rotating scheme: the break moves past a served
            // *plain* winner. A priority override does not consume the
            // preempted arbitration winner's turn, so the break stays.
            self.rotation = (winner + 1) % n;
        }

        // Any pure wake requests piggyback on this transaction's edges:
        // the arbitration + message clocks wake their domains too.
        for j in self.wake_pending.difference(self.tx_pending).iter() {
            self.complete_self_wake(j);
        }

        self.return_power_aware_nodes_to_sleep();
        Some(record)
    }

    /// Rebuilds the spec-derived indexes (address match, power
    /// awareness) if `add_node`/`spec_mut` touched the specs.
    fn ensure_spec_indexes(&mut self) {
        if !self.specs_dirty {
            return;
        }
        self.addr_index.rebuild(&self.nodes);
        self.power_aware = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].spec.is_power_aware())
            .collect();
        self.specs_dirty = false;
    }

    /// Keeps `tx_pending`/`priority_pending` in sync with a node's
    /// queue after any mutation of it.
    fn refresh_queue_bits(&mut self, node: NodeIndex) {
        match self.nodes[node].tx_queue.front() {
            Some(front) => {
                self.tx_pending.insert(node);
                if front.is_priority() {
                    self.priority_pending.insert(node);
                } else {
                    self.priority_pending.remove(node);
                }
            }
            None => {
                self.tx_pending.remove(node);
                self.priority_pending.remove(node);
            }
        }
    }

    fn wake_all_bus_controllers(&mut self) {
        // Only currently-gated controllers need visiting; the set
        // mirrors the power state exactly.
        for j in self.gated_bus_ctl.iter() {
            let node = &mut self.nodes[j];
            debug_assert!(!node.power.bus_ctl().is_on());
            while node.power.clock_edge_toward_bus_ctl().is_some() {}
            self.stats.bus_ctl_wakes[j] += 1;
        }
        self.gated_bus_ctl.clear();
    }

    fn complete_self_wake(&mut self, node: NodeIndex) {
        self.wake_pending.remove(node);
        let state = &mut self.nodes[node];
        state.wake_requested = false;
        if !state.power.layer().is_on() {
            while state.power.clock_edge_toward_layer().is_some() {}
            self.stats.layer_wakes[node] += 1;
        }
        state.wake_events += 1;
    }

    fn run_null_transaction(&mut self) -> EngineRecord {
        // Fig. 6: mediator wakes, finds no arbitration winner, raises a
        // general error, and returns the bus to idle. The generated
        // edges wake every hierarchical power domain of the requesters.
        let cycles = (ARBITRATION_CYCLES + INTERJECTION_CYCLES + CONTROL_CYCLES) as u64;
        for j in self.wake_pending.iter() {
            self.complete_self_wake(j);
        }
        let record = self.finish_transaction(
            cycles,
            None,
            NodeSet::new(),
            NodeSet::new(),
            TxOutcome::NoDestination,
            ControlBits::GENERAL_ERROR,
        );
        self.return_power_aware_nodes_to_sleep();
        record
    }

    fn execute_message(&mut self, winner: NodeIndex, msg: Message) -> EngineRecord {
        let dest = msg.dest();
        let addr_cycles = dest.wire_bits() as u64;

        // Resolve destinations through the address index (rebuilt only
        // when specs change).
        let mut dest_nodes = self.addr_index.matches(dest);
        dest_nodes.remove(winner);

        // How many payload bytes actually cross the wire before an
        // abort — receiver buffer overrun or mediator length limit. An
        // abort is only *observable* after one excess bit has crossed
        // the wire, so aborted transactions carry one extra data cycle
        // (matching the wire-level engine exactly).
        let mediator_cap = self.config.max_message_bytes();
        // Bus controllers honor the 4-byte progress floor (§7) even for
        // tiny receive buffers.
        let rx_allowed = dest_nodes
            .iter()
            .filter_map(|i| self.nodes[i].spec.rx_buffer_bytes())
            .min()
            .map(|cap| cap.max(MIN_BYTES_BEFORE_INTERJECT));

        // Both counters can only observe an overrun one excess bit
        // past their own cap, so whichever boundary is *smaller* is hit
        // first on the wire: a small receive buffer aborts before the
        // mediator's runaway counter ever trips. On the same-bit tie
        // the mediator's runaway flag labels the cut (matching the
        // wire-level record normalization).
        let rx_cut = rx_allowed.filter(|&allowed| allowed < mediator_cap && msg.len() > allowed);
        let (bytes_on_wire, extra_bits, outcome, control) = if let Some(allowed) = rx_cut {
            (
                allowed,
                1,
                TxOutcome::ReceiverAbort,
                ControlBits::GENERAL_ERROR,
            )
        } else if msg.len() > mediator_cap {
            // Also covers an `rx_allowed >= mediator_cap` overrun: such
            // a message necessarily exceeds the mediator's cap too, and
            // the tie rule above says the runaway counter labels the
            // cut.
            (
                mediator_cap,
                1,
                TxOutcome::LengthEnforced,
                ControlBits::GENERAL_ERROR,
            )
        } else if dest_nodes.is_empty() {
            (
                msg.len(),
                0,
                TxOutcome::NoDestination,
                ControlBits::END_OF_MESSAGE_NAK,
            )
        } else {
            (
                msg.len(),
                0,
                TxOutcome::Acked,
                ControlBits::END_OF_MESSAGE_ACK,
            )
        };

        let data_cycles = 8 * bytes_on_wire as u64 + extra_bits;
        let cycles = ARBITRATION_CYCLES as u64
            + addr_cycles
            + data_cycles
            + (INTERJECTION_CYCLES + CONTROL_CYCLES) as u64;

        // Deliver to destination layers on success; wake them first
        // (§4.4: only the destination node powers past the bus ctl).
        // The payload moves into the last receiver's log; only the
        // earlier receivers of a multicast or broadcast get a copy.
        let mut delivered_to = NodeSet::new();
        if matches!(outcome, TxOutcome::Acked) {
            let at = self.now + self.config.clock_period() * cycles;
            let mut payload = msg.into_payload();
            let mut copies = dest_nodes.len();
            for i in dest_nodes.iter() {
                if !self.nodes[i].power.layer().is_on() {
                    while self.nodes[i].power.clock_edge_toward_layer().is_some() {}
                    self.stats.layer_wakes[i] += 1;
                }
                copies -= 1;
                let payload = if copies == 0 {
                    std::mem::take(&mut payload)
                } else {
                    payload.clone()
                };
                self.nodes[i].rx_log.push(ReceivedMessage {
                    from: winner,
                    dest,
                    payload,
                    at,
                });
            }
            delivered_to = dest_nodes;
        }

        // Activity: winner transmits, address-matched nodes receive
        // (even on an abort — their controller latched bits), every
        // other node forwards.
        self.finish_transaction(
            cycles,
            Some(winner),
            dest_nodes,
            delivered_to,
            outcome,
            control,
        )
    }

    /// Charges the transaction's role bits, advances the sequence
    /// number and bus time, and returns its record.
    fn finish_transaction(
        &mut self,
        cycles: u64,
        winner: Option<NodeIndex>,
        receivers: NodeSet,
        delivered_to: NodeSet,
        outcome: TxOutcome,
        control: ControlBits,
    ) -> EngineRecord {
        let record = EngineRecord {
            seq: self.seq,
            cycles,
            winner,
            delivered_to,
            outcome,
            control,
        };
        self.seq += 1;
        self.stats
            .record_transaction(cycles, self.nodes.len(), winner, receivers);
        let wakeup = self.config.clock_period() * self.config.mediator_wakeup_cycles() as u64;
        self.now += wakeup + self.config.clock_period() * cycles;
        record
    }

    fn return_power_aware_nodes_to_sleep(&mut self) {
        // Only power-aware nodes can regate; visit just those.
        let idle = self
            .power_aware
            .difference(self.tx_pending)
            .difference(self.wake_pending);
        for j in idle.iter() {
            self.nodes[j].power.sleep();
            self.gated_bus_ctl.insert(j);
        }
    }
}

impl BusEngine for AnalyticBus {
    fn kind(&self) -> EngineKind {
        EngineKind::Analytic
    }

    fn add_node(&mut self, spec: NodeSpec) -> NodeIndex {
        AnalyticBus::add_node(self, spec)
    }

    fn node_count(&self) -> usize {
        AnalyticBus::node_count(self)
    }

    fn config(&self) -> &BusConfig {
        AnalyticBus::config(self)
    }

    fn now(&self) -> SimTime {
        AnalyticBus::now(self)
    }

    fn queue(&mut self, node: NodeIndex, msg: Message) -> Result<(), MbusError> {
        AnalyticBus::queue(self, node, msg)
    }

    fn queue_unchecked(&mut self, node: NodeIndex, msg: Message) -> Result<(), MbusError> {
        AnalyticBus::queue_unchecked(self, node, msg)
    }

    fn request_wakeup(&mut self, node: NodeIndex) -> Result<(), MbusError> {
        AnalyticBus::request_wakeup(self, node)
    }

    fn run_transaction(&mut self) -> Option<EngineRecord> {
        AnalyticBus::run_transaction(self)
    }

    fn drain_rx(&mut self, node: NodeIndex, out: &mut Vec<ReceivedMessage>) {
        AnalyticBus::drain_rx(self, node, out)
    }

    fn stats(&self) -> BusStats {
        AnalyticBus::stats(self).clone()
    }

    fn wake_events(&self, node: NodeIndex) -> u64 {
        AnalyticBus::wake_events(self, node)
    }

    fn layer_on(&self, node: NodeIndex) -> bool {
        AnalyticBus::layer_on(self, node)
    }

    fn spec(&self, node: NodeIndex) -> &NodeSpec {
        AnalyticBus::spec(self, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{BroadcastChannel, FuId, FullPrefix, ShortPrefix};

    fn sp(x: u8) -> ShortPrefix {
        ShortPrefix::new(x).unwrap()
    }

    fn addr(x: u8) -> Address {
        Address::short(sp(x), FuId::ZERO)
    }

    /// mediator(0, 0x1), sensor(1, 0x2), radio(2, 0x3)
    fn three_node_bus() -> AnalyticBus {
        let mut bus = AnalyticBus::new(BusConfig::default());
        bus.add_node(
            NodeSpec::new("cpu+mediator", FullPrefix::new(0x00001).unwrap())
                .with_short_prefix(sp(0x1)),
        );
        bus.add_node(
            NodeSpec::new("sensor", FullPrefix::new(0x00002).unwrap())
                .with_short_prefix(sp(0x2))
                .power_aware(true),
        );
        bus.add_node(
            NodeSpec::new("radio", FullPrefix::new(0x00003).unwrap())
                .with_short_prefix(sp(0x3))
                .power_aware(true),
        );
        bus
    }

    #[test]
    fn simple_delivery_and_cycles() {
        let mut bus = three_node_bus();
        bus.queue(0, Message::new(addr(0x2), vec![1, 2, 3, 4]))
            .unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.winner, Some(0));
        assert_eq!(r.cycles, 19 + 32);
        assert_eq!(r.outcome, TxOutcome::Acked);
        assert!(r.control.is_acked());
        let rx = bus.take_rx(1);
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].payload, vec![1, 2, 3, 4]);
        assert_eq!(rx[0].from, 0);
    }

    #[test]
    fn idle_bus_returns_none() {
        let mut bus = three_node_bus();
        assert!(bus.run_transaction().is_none());
    }

    #[test]
    fn full_address_costs_43_overhead() {
        let mut bus = three_node_bus();
        let full = Address::full(FullPrefix::new(0x00003).unwrap(), FuId::ZERO);
        bus.queue(0, Message::new(full, vec![0; 8])).unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.cycles, 43 + 64);
        assert_eq!(bus.take_rx(2).len(), 1);
    }

    #[test]
    fn topological_priority_decides_arbitration() {
        let mut bus = three_node_bus();
        bus.queue(2, Message::new(addr(0x1), vec![0xAA])).unwrap();
        bus.queue(1, Message::new(addr(0x1), vec![0xBB])).unwrap();
        let r1 = bus.run_transaction().unwrap();
        assert_eq!(r1.winner, Some(1), "lower index is topologically first");
        let r2 = bus.run_transaction().unwrap();
        assert_eq!(r2.winner, Some(2), "loser retries and wins next");
        let rx = bus.take_rx(0);
        assert_eq!(rx[0].payload, vec![0xBB]);
        assert_eq!(rx[1].payload, vec![0xAA]);
    }

    #[test]
    fn priority_round_overrides_topology() {
        // Fig. 5's scenario: node 1 requests first, node 3 (here index 2)
        // claims the bus with a priority request.
        let mut bus = three_node_bus();
        bus.queue(1, Message::new(addr(0x1), vec![0x01])).unwrap();
        bus.queue(2, Message::new(addr(0x1), vec![0x02]).with_priority())
            .unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.winner, Some(2));
    }

    #[test]
    fn mediator_wins_plain_arbitration() {
        let mut bus = three_node_bus();
        bus.queue(0, Message::new(addr(0x2), vec![0x00])).unwrap();
        bus.queue(1, Message::new(addr(0x1), vec![0x11])).unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.winner, Some(0), "mediator has top topological priority");
    }

    #[test]
    fn broadcast_reaches_all_listeners() {
        let mut bus = three_node_bus();
        let msg = Message::new(Address::broadcast(BroadcastChannel::CONFIGURATION), vec![9]);
        bus.queue(0, msg).unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.delivered_to, NodeSet::from_iter([1, 2]));
        assert_eq!(bus.take_rx(1).len(), 1);
        assert_eq!(bus.take_rx(2).len(), 1);
        assert!(bus.take_rx(0).is_empty(), "sender does not hear itself");
    }

    #[test]
    fn broadcast_channel_filtering() {
        let mut bus = three_node_bus();
        let ch7 = BroadcastChannel::new(7).unwrap();
        bus.spec_mut(2);
        // Node 2 subscribes to ch7 by rebuilding its spec.
        let spec = NodeSpec::new("radio", FullPrefix::new(0x00003).unwrap())
            .with_short_prefix(sp(0x3))
            .listen(ch7);
        *bus.spec_mut(2) = spec;
        bus.queue(0, Message::new(Address::broadcast(ch7), vec![1]))
            .unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(
            r.delivered_to,
            NodeSet::from_iter([2]),
            "only subscribers hear the channel"
        );
    }

    #[test]
    fn unmatched_address_naks() {
        let mut bus = three_node_bus();
        bus.queue(0, Message::new(addr(0xE), vec![1, 2])).unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.outcome, TxOutcome::NoDestination);
        assert_eq!(r.control, ControlBits::END_OF_MESSAGE_NAK);
        assert!(r.delivered_to.is_empty());
    }

    #[test]
    fn receiver_buffer_overrun_aborts() {
        let mut bus = three_node_bus();
        *bus.spec_mut(1) = NodeSpec::new("sensor", FullPrefix::new(0x00002).unwrap())
            .with_short_prefix(sp(0x2))
            .with_rx_buffer(8);
        bus.queue(0, Message::new(addr(0x2), vec![0; 64])).unwrap();
        let r = bus.run_transaction().unwrap();
        // The receiver interjected: a `ReceiverAbort` outcome.
        assert_eq!(r.outcome, TxOutcome::ReceiverAbort);
        assert_eq!(r.control, ControlBits::GENERAL_ERROR);
        assert!(
            bus.take_rx(1).is_empty(),
            "aborted message is not delivered"
        );
        // 8 bytes crossed: 19 overhead + 64 bits + the 1 excess bit
        // that makes the overrun observable.
        assert_eq!(r.cycles, 19 + 8 * 8 + 1);
    }

    #[test]
    fn tiny_rx_buffer_honors_progress_floor() {
        // §7: at least 4 bytes must cross before an interjection, so a
        // 2-byte buffer still accepts a 3-byte message.
        let mut bus = three_node_bus();
        *bus.spec_mut(1) = NodeSpec::new("sensor", FullPrefix::new(0x00002).unwrap())
            .with_short_prefix(sp(0x2))
            .with_rx_buffer(2);
        bus.queue(0, Message::new(addr(0x2), vec![1, 2, 3]))
            .unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.outcome, TxOutcome::Acked, "3 bytes fit under the floor");
        assert_eq!(bus.take_rx(1).len(), 1);
        // A 5-byte message overruns at the 4-byte floor.
        bus.queue(0, Message::new(addr(0x2), vec![0; 5])).unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.outcome, TxOutcome::ReceiverAbort);
        assert_eq!(r.cycles, 19 + 8 * 4 + 1, "cut after the 4-byte floor");
    }

    #[test]
    fn mediator_enforces_runaway_limit() {
        let mut bus = three_node_bus();
        let oversized = Message::new(addr(0x2), vec![0; 2048]);
        assert!(bus.queue(0, oversized.clone()).is_err());
        bus.queue_unchecked(0, oversized).unwrap();
        let r = bus.run_transaction().unwrap();
        // The mediator interjected: a `LengthEnforced` outcome after
        // 1024 bytes plus the excess bit.
        assert_eq!(r.outcome, TxOutcome::LengthEnforced);
        assert_eq!(r.control, ControlBits::GENERAL_ERROR);
        assert_eq!(r.cycles, 19 + 8 * 1024 + 1);
        assert!(bus.take_rx(1).is_empty());
    }

    #[test]
    fn small_rx_buffer_aborts_before_the_runaway_counter() {
        // An oversized message to a tiny-buffer destination: on the
        // wire the receiver's abort (one bit past its 8-byte buffer)
        // fires long before the mediator's 1024-byte runaway counter,
        // so the analytic kernel must attribute the cut to the
        // receiver, not the mediator.
        let mut bus = three_node_bus();
        *bus.spec_mut(1) = NodeSpec::new("sensor", FullPrefix::new(0x00002).unwrap())
            .with_short_prefix(sp(0x2))
            .with_rx_buffer(8);
        bus.queue_unchecked(0, Message::new(addr(0x2), vec![0; 2048]))
            .unwrap();
        let r = bus.run_transaction().unwrap();
        // The receiver, not the mediator, interjected after 8 bytes.
        assert_eq!(r.outcome, TxOutcome::ReceiverAbort);
        assert_eq!(r.cycles, 19 + 8 * 8 + 1);
        assert!(bus.take_rx(1).is_empty());
    }

    #[test]
    fn null_transaction_wakes_requester_only() {
        let mut bus = three_node_bus();
        bus.request_wakeup(2).unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.winner, None);
        assert_eq!(r.control, ControlBits::GENERAL_ERROR);
        assert_eq!(r.cycles, 11); // 3 arb + 5 interjection + 3 control
        assert_eq!(bus.wake_events(2), 1);
        assert_eq!(bus.wake_events(1), 0);
        // The woken node keeps its layer on (it has work to do);
        // power-aware node 1 re-gated after the transaction.
        assert_eq!(bus.stats().layer_wakes[2], 1);
    }

    #[test]
    fn power_oblivious_delivery_to_sleeping_node() {
        let mut bus = three_node_bus();
        // Node 1 is power-aware and starts fully asleep.
        assert!(!bus.layer_on(1));
        bus.queue(0, Message::new(addr(0x2), vec![0x55])).unwrap();
        bus.run_transaction().unwrap();
        let rx = bus.take_rx(1);
        assert_eq!(rx.len(), 1, "message received regardless of power state");
        assert_eq!(bus.stats().layer_wakes[1], 1, "bus woke the destination");
        assert_eq!(
            bus.stats().layer_wakes[2],
            0,
            "only the destination node powers on (§4.4)"
        );
    }

    #[test]
    fn power_aware_nodes_regate_after_transaction() {
        let mut bus = three_node_bus();
        bus.queue(0, Message::new(addr(0x2), vec![0x55])).unwrap();
        bus.run_transaction().unwrap();
        assert!(!bus.layer_on(1), "power-aware node returns to sleep");
        assert!(bus.layer_on(0) || !bus.spec(0).is_power_aware());
    }

    #[test]
    fn stats_accumulate_roles() {
        let mut bus = three_node_bus();
        bus.queue(0, Message::new(addr(0x2), vec![0; 8])).unwrap();
        bus.run_transaction().unwrap();
        let bits = (19 + 64) as u64;
        assert_eq!(bus.stats().tx_bits[0], bits);
        assert_eq!(bus.stats().rx_bits[1], bits);
        assert_eq!(bus.stats().fwd_bits[2], bits);
        assert_eq!(bus.stats().busy_cycles, bits);
    }

    #[test]
    fn utilization_matches_sense_and_send() {
        // §6.3.1: request (4 B) + response (8 B) every 15 s at 400 kHz
        // gives 0.0022 % utilization.
        let mut bus = three_node_bus();
        bus.queue(0, Message::new(addr(0x2), vec![0; 4])).unwrap();
        bus.run_transaction().unwrap();
        bus.queue(1, Message::new(addr(0x3), vec![0; 8])).unwrap();
        bus.run_transaction().unwrap();
        let elapsed = SimTime::from_s(15);
        let util = bus.stats().utilization(elapsed, 400_000) * 100.0;
        assert!((util - 0.0022).abs() < 0.0003, "{util}");
    }

    #[test]
    fn run_until_quiescent_drains_queues() {
        let mut bus = three_node_bus();
        for i in 0..5 {
            bus.queue(0, Message::new(addr(0x2), vec![i])).unwrap();
        }
        bus.queue(1, Message::new(addr(0x3), vec![99])).unwrap();
        let records = bus.run_until_quiescent();
        assert_eq!(records.len(), 6);
        assert_eq!(bus.take_rx(1).len(), 5);
        assert_eq!(bus.take_rx(2).len(), 1);
        assert!(bus.run_transaction().is_none());
    }

    /// Three always-on nodes with short prefixes 0x1..=0x3.
    fn plain_ring() -> AnalyticBus {
        let mut bus = AnalyticBus::new(BusConfig::default());
        for i in 0..3u32 {
            bus.add_node(
                NodeSpec::new(format!("n{i}"), FullPrefix::new(0x500 + i).unwrap())
                    .with_short_prefix(sp((i + 1) as u8)),
            );
        }
        bus
    }

    #[test]
    fn run_transaction_steps_one_transaction_then_none() {
        let mut bus = plain_ring();
        assert!(bus.run_transaction().is_none(), "idle bus");
        bus.queue(0, Message::new(addr(0x2), vec![1])).unwrap();
        bus.queue(1, Message::new(addr(0x3), vec![2])).unwrap();
        assert_eq!(bus.run_transaction().unwrap().winner, Some(0));
        assert_eq!(bus.run_transaction().unwrap().winner, Some(1));
        assert!(bus.run_transaction().is_none());
    }

    #[test]
    fn stepping_resumes_after_idle() {
        let mut bus = plain_ring();
        assert!(bus.run_transaction().is_none());
        bus.request_wakeup(2).unwrap();
        assert_eq!(bus.run_transaction().unwrap().winner, None, "wake null");
        assert_eq!(bus.wake_events(2), 1);
    }

    #[test]
    fn time_advances_with_cycles() {
        let mut bus = three_node_bus();
        bus.queue(0, Message::new(addr(0x2), vec![0; 8])).unwrap();
        let before = bus.now();
        let r = bus.run_transaction().unwrap();
        let period = bus.config().clock_period();
        let expect = period * (r.cycles + 1); // +1 mediator wakeup cycle
        assert_eq!(bus.now() - before, expect);
    }

    #[test]
    fn config_change_requires_idle_bus() {
        let mut bus = three_node_bus();
        bus.queue(0, Message::new(addr(0x2), vec![0])).unwrap();
        assert_eq!(
            bus.apply_config(BusConfig::new(1_000_000).unwrap()),
            Err(MbusError::BusBusy)
        );
        bus.run_until_quiescent();
        assert!(bus.apply_config(BusConfig::new(1_000_000).unwrap()).is_ok());
        assert_eq!(bus.config().clock_hz(), 1_000_000);
    }

    #[test]
    fn rotating_priority_serves_round_robin() {
        // §7's rotating scheme: two flooding nodes alternate instead of
        // the near node starving the far one.
        let mut bus = AnalyticBus::new(BusConfig::default())
            .with_arbitration_policy(ArbitrationPolicy::Rotating);
        bus.add_node(
            NodeSpec::new("med", FullPrefix::new(0x00001).unwrap()).with_short_prefix(sp(0x1)),
        );
        bus.add_node(
            NodeSpec::new("near", FullPrefix::new(0x00002).unwrap()).with_short_prefix(sp(0x2)),
        );
        bus.add_node(
            NodeSpec::new("far", FullPrefix::new(0x00003).unwrap()).with_short_prefix(sp(0x3)),
        );
        for k in 0..4u8 {
            bus.queue(1, Message::new(addr(0x1), vec![0x10 + k]))
                .unwrap();
            bus.queue(2, Message::new(addr(0x1), vec![0x20 + k]))
                .unwrap();
        }
        let records = bus.run_until_quiescent();
        let winners: Vec<_> = records.iter().filter_map(|r| r.winner).collect();
        assert_eq!(winners, vec![1, 2, 1, 2, 1, 2, 1, 2], "round robin");
    }

    #[test]
    fn fixed_priority_starves_the_far_node() {
        // Contrast case for the rotating test: the default policy
        // drains the near node's queue first.
        let mut bus = three_node_bus();
        for k in 0..3u8 {
            bus.queue(1, Message::new(addr(0x1), vec![0x10 + k]))
                .unwrap();
            bus.queue(2, Message::new(addr(0x1), vec![0x20 + k]))
                .unwrap();
        }
        let records = bus.run_until_quiescent();
        let winners: Vec<_> = records.iter().filter_map(|r| r.winner).collect();
        assert_eq!(winners, vec![1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn priority_round_restricted_to_contenders() {
        // Regression (the "contender leak"): a power-gated node with a
        // queued priority message must not win a transaction it could
        // not contend for — its bus controller is still being woken by
        // this transaction's own arbitration edges (§4.3–4.4), exactly
        // as at the wire level. The old kernel searched every node
        // with a queued priority message and handed it the bus.
        let mut bus = AnalyticBus::new(BusConfig::default());
        bus.add_node(
            NodeSpec::new("med", FullPrefix::new(0x00001).unwrap()).with_short_prefix(sp(0x1)),
        );
        bus.add_node(
            NodeSpec::new("awake", FullPrefix::new(0x00002).unwrap()).with_short_prefix(sp(0x2)),
        );
        bus.add_node(
            NodeSpec::new("gated", FullPrefix::new(0x00003).unwrap())
                .with_short_prefix(sp(0x3))
                .power_aware(true),
        );
        bus.queue(1, Message::new(addr(0x1), vec![0xAA])).unwrap();
        bus.queue(2, Message::new(addr(0x1), vec![0xBB]).with_priority())
            .unwrap();
        let records = bus.run_until_quiescent();
        let winners: Vec<_> = records.iter().filter_map(|r| r.winner).collect();
        assert_eq!(
            winners,
            vec![1, 2],
            "the awake contender wins; the gated node contends next transaction"
        );
    }

    #[test]
    fn sleeping_requester_excluded_from_plain_arbitration() {
        // Same §4.4 rule for the plain round: a gated node cannot have
        // asserted the request, so an awake contender downstream of it
        // wins even though the gated node is topologically first.
        let mut bus = AnalyticBus::new(BusConfig::default());
        bus.add_node(
            NodeSpec::new("med", FullPrefix::new(0x00001).unwrap()).with_short_prefix(sp(0x1)),
        );
        bus.add_node(
            NodeSpec::new("gated", FullPrefix::new(0x00002).unwrap())
                .with_short_prefix(sp(0x2))
                .power_aware(true),
        );
        bus.add_node(
            NodeSpec::new("awake", FullPrefix::new(0x00003).unwrap()).with_short_prefix(sp(0x3)),
        );
        bus.queue(1, Message::new(addr(0x1), vec![0x11])).unwrap();
        bus.queue(2, Message::new(addr(0x1), vec![0x22])).unwrap();
        let records = bus.run_until_quiescent();
        let winners: Vec<_> = records.iter().filter_map(|r| r.winner).collect();
        assert_eq!(winners, vec![2, 1]);
    }

    #[test]
    fn all_gated_contenders_fold_the_self_wake() {
        // When *every* transmit contender is gated the engine folds the
        // wire level's self-wake null transaction: they all arbitrate
        // (and run the priority round) as if already awake — which is
        // what the wire level reaches one null transaction later.
        let mut bus = three_node_bus();
        bus.queue(1, Message::new(addr(0x1), vec![0x01])).unwrap();
        bus.queue(2, Message::new(addr(0x1), vec![0x02]).with_priority())
            .unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.winner, Some(2), "priority round runs in the fold");
    }

    #[test]
    fn rotating_break_stays_on_priority_override() {
        // §7 semantics choice (documented in the module docs): a
        // priority-round override does not consume the preempted
        // arbitration winner's rotation turn.
        let mut bus = AnalyticBus::new(BusConfig::default())
            .with_arbitration_policy(ArbitrationPolicy::Rotating);
        for i in 0..4u32 {
            bus.add_node(
                NodeSpec::new(format!("n{i}"), FullPrefix::new(0x10 + i).unwrap())
                    .with_short_prefix(sp((i + 1) as u8)),
            );
        }
        bus.queue(1, Message::new(addr(0x1), vec![0x11])).unwrap();
        bus.queue(2, Message::new(addr(0x1), vec![0x22]).with_priority())
            .unwrap();
        bus.queue(3, Message::new(addr(0x1), vec![0x33])).unwrap();
        let records = bus.run_until_quiescent();
        let winners: Vec<_> = records.iter().filter_map(|r| r.winner).collect();
        // Node 2 preempts via priority; the break must still sit before
        // node 1, so node 1 — not node 3 — is served next.
        assert_eq!(winners, vec![2, 1, 3]);
    }

    #[test]
    fn rotating_break_ignores_null_transactions() {
        // A null transaction serves nobody; the break must not move.
        let mut bus = AnalyticBus::new(BusConfig::default())
            .with_arbitration_policy(ArbitrationPolicy::Rotating);
        for i in 0..3u32 {
            bus.add_node(
                NodeSpec::new(format!("n{i}"), FullPrefix::new(0x20 + i).unwrap())
                    .with_short_prefix(sp((i + 1) as u8)),
            );
        }
        // First, a plain win by node 1 advances the break past it.
        bus.queue(1, Message::new(addr(0x1), vec![1])).unwrap();
        assert_eq!(bus.run_transaction().unwrap().winner, Some(1));
        // A wake-only null transaction follows…
        bus.request_wakeup(2).unwrap();
        assert_eq!(bus.run_transaction().unwrap().winner, None);
        // …and the break still sits after node 1: node 2 outranks the
        // mediator even though the mediator queued first.
        bus.queue(0, Message::new(addr(0x2), vec![2])).unwrap();
        bus.queue(2, Message::new(addr(0x1), vec![3])).unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.winner, Some(2), "break unchanged by the null");
    }

    #[test]
    fn rotating_advances_when_arb_winner_claims_priority() {
        // If the plain arbitration winner is itself the only priority
        // claimant it is served on its own turn — the break advances.
        let mut bus = AnalyticBus::new(BusConfig::default())
            .with_arbitration_policy(ArbitrationPolicy::Rotating);
        for i in 0..3u32 {
            bus.add_node(
                NodeSpec::new(format!("n{i}"), FullPrefix::new(0x30 + i).unwrap())
                    .with_short_prefix(sp((i + 1) as u8)),
            );
        }
        bus.queue(0, Message::new(addr(0x2), vec![1]).with_priority())
            .unwrap();
        bus.queue(1, Message::new(addr(0x1), vec![2])).unwrap();
        let records = bus.run_until_quiescent();
        let winners: Vec<_> = records.iter().filter_map(|r| r.winner).collect();
        assert_eq!(winners, vec![0, 1], "mediator served, break advanced");
    }

    #[test]
    #[should_panic(expected = "at most 64 nodes")]
    fn add_node_past_the_bus_cap_panics() {
        let mut bus = AnalyticBus::new(BusConfig::default());
        for i in 0..=MAX_BUS_NODES as u32 {
            bus.add_node(NodeSpec::new(
                format!("n{i}"),
                FullPrefix::new(0x700 + i).unwrap(),
            ));
        }
    }

    #[test]
    fn withdraw_and_requeue_keep_the_contender_index_fresh() {
        // The incremental index must track queue mutations exactly:
        // withdrawing the only message leaves the bus idle; withdrawing
        // a priority front demotes the node in the priority round.
        let mut bus = three_node_bus();
        bus.queue(1, Message::new(addr(0x1), vec![1]).with_priority())
            .unwrap();
        assert!(bus.withdraw_front(1));
        assert!(bus.run_transaction().is_none(), "no contender left");
        bus.queue(1, Message::new(addr(0x1), vec![2]).with_priority())
            .unwrap();
        bus.queue(1, Message::new(addr(0x1), vec![3])).unwrap();
        bus.queue(2, Message::new(addr(0x1), vec![4]).with_priority())
            .unwrap();
        assert!(bus.withdraw_front(1), "drop node 1's priority head");
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.winner, Some(2), "only node 2 still claims priority");
    }

    #[test]
    fn spec_mut_rebuilds_the_address_index() {
        let mut bus = three_node_bus();
        bus.queue(0, Message::new(addr(0x7), vec![1])).unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.outcome, TxOutcome::NoDestination);
        // Re-prefix node 2 to 0x7 and send again: the index must see it.
        bus.spec_mut(2).assign_short_prefix(sp(0x7));
        bus.queue(0, Message::new(addr(0x7), vec![2])).unwrap();
        let r = bus.run_transaction().unwrap();
        assert_eq!(r.outcome, TxOutcome::Acked);
        assert_eq!(r.delivered_to, NodeSet::from_iter([2]));
    }

    #[test]
    fn unknown_node_errors() {
        let mut bus = three_node_bus();
        assert!(matches!(
            bus.queue(9, Message::new(addr(0x2), vec![])),
            Err(MbusError::UnknownNode { index: 9 })
        ));
        assert!(bus.request_wakeup(9).is_err());
    }
}
