//! [`WireEngine`]: the edge-accurate engine behind the transaction-level
//! [`BusEngine`] surface.
//!
//! [`WireBus`] simulates every CLK/DATA edge but only
//! reports what the mediator can see (cycle counts, control bits,
//! null/runaway flags). This wrapper reconstructs full
//! [`EngineRecord`]s — winner, deliveries, outcome — by correlating the
//! mediator's per-transaction idle windows with the timestamped events
//! each member logs (transmit completions, deliveries, engaged-receiver
//! aborts). Virtual time is totally ordered and each member event falls
//! strictly inside the transaction that produced it, so the attribution
//! is exact, not heuristic.
//!
//! The wrapper also owns the ring construction: nodes are added
//! incrementally like on [`AnalyticBus`](crate::AnalyticBus) and the
//! circuit is frozen lazily at the first queue/wakeup/run call.

use std::collections::VecDeque;

use mbus_sim::SimTime;

use crate::config::BusConfig;
use crate::control::{ControlBits, TxOutcome};
use crate::engine::{
    BusEngine, BusStats, EngineKind, EngineRecord, NodeIndex, NodeSet, ReceivedMessage,
    MAX_BUS_NODES,
};
use crate::error::MbusError;
use crate::message::Message;
use crate::node::NodeSpec;
use crate::wire::bus::{WireBus, WireBusBuilder};

/// The wire-level engine, adapted to the [`BusEngine`] surface.
///
/// # Example
///
/// ```
/// use mbus_core::engine::BusEngine;
/// use mbus_core::wire::WireEngine;
/// use mbus_core::{Address, BusConfig, FuId, FullPrefix, Message, NodeSpec, ShortPrefix};
///
/// let mut bus = WireEngine::new(BusConfig::default());
/// let a = bus.add_node(
///     NodeSpec::new("a", FullPrefix::new(0x1)?).with_short_prefix(ShortPrefix::new(0x1)?),
/// );
/// let b = bus.add_node(
///     NodeSpec::new("b", FullPrefix::new(0x2)?).with_short_prefix(ShortPrefix::new(0x2)?),
/// );
/// bus.queue(
///     a,
///     Message::new(Address::short(ShortPrefix::new(0x2)?, FuId::ZERO), vec![7; 4]),
/// )?;
/// let records = bus.run_until_quiescent();
/// assert_eq!(records.len(), 1);
/// assert_eq!(records[0].cycles, 19 + 32);
/// assert_eq!(records[0].winner, Some(a));
/// assert_eq!(records[0].delivered_to.iter().collect::<Vec<_>>(), vec![b]);
/// assert_eq!(bus.take_rx(b)[0].from, a);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct WireEngine {
    config: BusConfig,
    specs: Vec<NodeSpec>,
    bus: Option<WireBus>,
    record_history: bool,
    /// Normalized records not yet handed out by `run_transaction`.
    buffered: VecDeque<EngineRecord>,
    /// Per-node deliveries of absorbed transactions, `from` attributed,
    /// not yet taken by `take_rx`.
    rx: Vec<Vec<ReceivedMessage>>,
    /// `stats.exhausted` is set when a run blew its event budget
    /// mid-flight: the circuit is wedged at an arbitrary point, so the
    /// engine freezes and refuses to run (or hand out records) from
    /// then on.
    stats: BusStats,
    seq: u64,
}

impl WireEngine {
    /// Creates an empty wire-level engine. Nodes are added with
    /// [`BusEngine::add_node`]; the ring is frozen at the first
    /// queue/wakeup/run call.
    pub fn new(config: BusConfig) -> Self {
        WireEngine {
            config,
            specs: Vec::new(),
            bus: None,
            record_history: false,
            buffered: VecDeque::new(),
            rx: Vec::new(),
            stats: BusStats::default(),
            seq: 0,
        }
    }

    /// Keeps the ring's timestamped transition history (default
    /// `false`); see [`WireBusBuilder::record_history`]. Read it
    /// through [`WireEngine::wire_bus`] and [`WireBus::history`].
    pub fn with_history(mut self, on: bool) -> Self {
        assert!(!self.built(), "set history recording before running");
        self.record_history = on;
        self
    }

    /// True when a run exhausted its event budget mid-flight. The
    /// engine is then frozen ([`BusEngine::is_frozen`]) and every
    /// subsequent run call returns nothing: the interrupted run's
    /// records are withheld rather than handed out as if the queue had
    /// drained.
    pub fn is_exhausted(&self) -> bool {
        self.stats.exhausted
    }

    /// The underlying wire-level bus, if the ring has been built —
    /// for edge-count and waveform access beyond the `BusEngine`
    /// surface.
    pub fn wire_bus(&self) -> Option<&WireBus> {
        self.bus.as_ref()
    }

    fn built(&self) -> bool {
        self.bus.is_some()
    }

    fn ensure_built(&mut self) -> &mut WireBus {
        if self.bus.is_none() {
            assert!(
                !self.specs.is_empty(),
                "a wire engine needs at least one node before running"
            );
            let mut builder = WireBusBuilder::new(self.config).record_history(self.record_history);
            for spec in &self.specs {
                builder = builder.node(spec.clone());
            }
            self.bus = Some(builder.build());
        }
        self.bus.as_mut().expect("just built")
    }

    fn check_node(&self, node: NodeIndex) -> Result<(), MbusError> {
        if node >= self.specs.len() {
            return Err(MbusError::UnknownNode { index: node });
        }
        Ok(())
    }

    /// Runs the circuit to quiescence, normalizes every newly completed
    /// mediator record into an [`EngineRecord`], and moves the member
    /// events those records absorbed out of the members' logs —
    /// deliveries into the engine's rx logs with `from` set. A run
    /// that exhausts its budget absorbs nothing, so an interrupted
    /// transaction's deliveries are withheld with its record.
    fn run_and_absorb(&mut self) {
        if self.specs.is_empty() || self.is_exhausted() {
            return;
        }
        let Some(raw) = self.ensure_built().try_run_until_quiescent() else {
            // The budget ran out mid-transaction. Quiescence was never
            // reached, so whatever the mediator recorded so far is a
            // truncated prefix of the run — handing it out would make
            // the cap look like a clean drain. Freeze instead.
            self.stats.exhausted = true;
            return;
        };
        let n = self.specs.len();
        self.stats.ensure_nodes(n);
        let bus = self.bus.as_mut().expect("built");
        // Per-member counts of log entries absorbed so far in this run.
        let mut tx_read = vec![0; n];
        let mut rx_read = vec![0; n];
        let mut engaged_read = vec![0; n];
        // `(idle_at, winner)` of each record of this run, in order.
        let mut windows = Vec::with_capacity(raw.len());
        for t in raw {
            // Attribute the transaction to the member whose transmit
            // completed inside this record's window. Events are
            // timestamped in virtual time, which is totally ordered
            // across the ring, so `<= idle_at` with a monotonic cursor
            // is exact.
            let mut winner = None;
            let mut member_outcome = None;
            let mut receivers = NodeSet::new();
            let mut delivered = NodeSet::new();
            for i in 0..n {
                let Some(s) = bus.try_member(i) else { continue };
                while let Some(&(at, outcome)) = s.tx_finished.get(tx_read[i]) {
                    if at > t.idle_at {
                        break;
                    }
                    debug_assert!(
                        winner.is_none(),
                        "two transmitters finished in one transaction window"
                    );
                    winner = Some(i);
                    member_outcome = Some(outcome);
                    tx_read[i] += 1;
                }
                while let Some(w) = s.rx_log.get(rx_read[i]) {
                    if w.at > t.idle_at {
                        break;
                    }
                    delivered.insert(i);
                    receivers.insert(i);
                    rx_read[i] += 1;
                }
                while let Some(&at) = s.rx_engaged.get(engaged_read[i]) {
                    if at > t.idle_at {
                        break;
                    }
                    receivers.insert(i);
                    engaged_read[i] += 1;
                }
            }

            // Normalize to the analytic engine's outcome vocabulary.
            let outcome = if t.runaway {
                TxOutcome::LengthEnforced
            } else if t.null_transaction {
                TxOutcome::NoDestination
            } else {
                match member_outcome {
                    Some(TxOutcome::Nacked) | None => TxOutcome::NoDestination,
                    Some(o) => o,
                }
            };
            let winner = if t.null_transaction { None } else { winner };
            let control = t.control.unwrap_or(ControlBits::GENERAL_ERROR);

            let record = EngineRecord {
                seq: self.seq,
                cycles: t.cycles,
                winner,
                delivered_to: delivered,
                outcome,
                control,
            };
            self.seq += 1;
            self.stats
                .record_transaction(record.cycles, n, winner, receivers);
            windows.push((t.idle_at, winner));
            self.buffered.push_back(record);
        }
        for (i, rx) in self.rx.iter_mut().enumerate() {
            let Some(s) = bus.try_member_mut(i) else {
                continue;
            };
            s.tx_finished.drain(..tx_read[i]);
            s.rx_engaged.drain(..engaged_read[i]);
            rx.extend(s.rx_log.drain(..rx_read[i]).map(|w| {
                let window = windows.partition_point(|&(idle, _)| idle < w.at);
                ReceivedMessage {
                    from: windows[window]
                        .1
                        .expect("a delivering transaction has a winner"),
                    dest: w.dest,
                    payload: w.payload,
                    at: w.at,
                }
            }));
        }
    }
}

impl BusEngine for WireEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Wire
    }

    fn is_frozen(&self) -> bool {
        self.built() || self.is_exhausted()
    }

    /// Adds a node at the next (lowest-priority) ring position and
    /// returns its index.
    ///
    /// # Panics
    ///
    /// Panics once the ring is frozen ([`BusEngine::is_frozen`]), or
    /// if the bus already holds [`MAX_BUS_NODES`] nodes.
    fn add_node(&mut self, spec: NodeSpec) -> NodeIndex {
        assert!(
            !self.built(),
            "the wire engine's ring topology is frozen once traffic starts; \
             add all nodes before the first queue/wakeup/run"
        );
        let index = self.specs.len();
        assert!(
            index < MAX_BUS_NODES,
            "a bus holds at most {MAX_BUS_NODES} nodes"
        );
        self.specs.push(spec);
        self.rx.push(Vec::new());
        self.stats.ensure_nodes(self.specs.len());
        index
    }

    fn node_count(&self) -> usize {
        self.specs.len()
    }

    fn config(&self) -> &BusConfig {
        &self.config
    }

    fn now(&self) -> SimTime {
        self.bus.as_ref().map_or(SimTime::ZERO, WireBus::now)
    }

    fn queue(&mut self, node: NodeIndex, msg: Message) -> Result<(), MbusError> {
        self.check_node(node)?;
        msg.validate(&self.config)?;
        self.queue_unchecked(node, msg)
    }

    fn queue_unchecked(&mut self, node: NodeIndex, msg: Message) -> Result<(), MbusError> {
        self.check_node(node)?;
        self.ensure_built().queue_unchecked(node, msg)
    }

    fn request_wakeup(&mut self, node: NodeIndex) -> Result<(), MbusError> {
        self.check_node(node)?;
        self.ensure_built().request_wakeup(node)
    }

    fn run_transaction(&mut self) -> Option<EngineRecord> {
        if self.buffered.is_empty() {
            self.run_and_absorb();
        }
        self.buffered.pop_front()
    }

    fn drain_rx(&mut self, node: NodeIndex, out: &mut Vec<ReceivedMessage>) {
        out.append(&mut self.rx[node]);
    }

    fn stats(&self) -> BusStats {
        let mut stats = self.stats.clone();
        stats.ensure_nodes(self.specs.len());
        if let Some(bus) = &self.bus {
            for i in 0..bus.node_count() {
                if let Some(s) = bus.try_member(i) {
                    stats.layer_wakes[i] = s.layer_wakes;
                    stats.bus_ctl_wakes[i] = s.bus_ctl_wakes;
                }
            }
            stats.segment_edges = bus.segment_edges();
        }
        stats
    }

    fn wake_events(&self, node: NodeIndex) -> u64 {
        match &self.bus {
            Some(bus) => bus.wake_events(node),
            None => 0,
        }
    }

    fn layer_on(&self, node: NodeIndex) -> bool {
        match &self.bus {
            Some(bus) => bus.layer_on(node),
            None => !self.specs[node].is_power_aware(),
        }
    }

    fn spec(&self, node: NodeIndex) -> &NodeSpec {
        match &self.bus {
            Some(bus) => bus.spec(node),
            None => &self.specs[node],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, FuId, FullPrefix, ShortPrefix};

    fn sp(x: u8) -> ShortPrefix {
        ShortPrefix::new(x).unwrap()
    }

    fn three_node_engine() -> WireEngine {
        let mut e = WireEngine::new(BusConfig::default());
        for i in 0..3u32 {
            e.add_node(
                NodeSpec::new(format!("n{i}"), FullPrefix::new(0x700 + i).unwrap())
                    .with_short_prefix(sp((i + 1) as u8)),
            );
        }
        e
    }

    #[test]
    fn attribution_reconstructs_winner_and_delivery() {
        let mut e = three_node_engine();
        e.queue(
            1,
            Message::new(Address::short(sp(0x3), FuId::ZERO), vec![0xAB, 0xCD]),
        )
        .unwrap();
        let records = e.run_until_quiescent();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].winner, Some(1));
        assert_eq!(records[0].delivered_to, NodeSet::from_iter([2]));
        assert_eq!(records[0].outcome, TxOutcome::Acked);
        let rx = e.take_rx(2);
        assert_eq!(rx[0].from, 1);
    }

    #[test]
    fn run_transaction_steps_through_buffered_records() {
        let mut e = three_node_engine();
        for k in 0..3u8 {
            e.queue(
                0,
                Message::new(Address::short(sp(0x2), FuId::ZERO), vec![k]),
            )
            .unwrap();
        }
        let mut seqs = Vec::new();
        while let Some(r) = e.run_transaction() {
            seqs.push(r.seq);
        }
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(e.take_rx(1).len(), 3);
    }

    #[test]
    fn unknown_node_errors_before_building() {
        let mut e = WireEngine::new(BusConfig::default());
        e.add_node(NodeSpec::new("only", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(1)));
        assert!(matches!(
            e.queue(5, Message::new(Address::short(sp(0x1), FuId::ZERO), vec![])),
            Err(MbusError::UnknownNode { index: 5 })
        ));
        assert!(e.request_wakeup(9).is_err());
        assert!(!e.built(), "errors must not freeze the topology");
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn add_node_after_freeze_panics() {
        let mut e = three_node_engine();
        e.request_wakeup(1).unwrap();
        e.add_node(NodeSpec::new("late", FullPrefix::new(0x9).unwrap()));
    }

    #[test]
    #[should_panic(expected = "at most 64 nodes")]
    fn add_node_past_the_bus_cap_panics() {
        let mut e = WireEngine::new(BusConfig::default());
        for i in 0..=MAX_BUS_NODES as u32 {
            e.add_node(NodeSpec::new(
                format!("n{i}"),
                FullPrefix::new(0x700 + i).unwrap(),
            ));
        }
    }

    #[test]
    fn is_frozen_tracks_the_topology_freeze() {
        // The trait contract: `is_frozen()` is true exactly when
        // `add_node` would panic, so schedulers can check instead of
        // catching panics. Errors must not freeze; traffic must.
        let mut e = three_node_engine();
        assert!(!BusEngine::is_frozen(&e), "fresh ring is open");
        assert!(e
            .queue(9, Message::new(Address::short(sp(0x1), FuId::ZERO), vec![]))
            .is_err());
        assert!(!BusEngine::is_frozen(&e), "a rejected call must not freeze");
        e.add_node(NodeSpec::new(
            "late-but-legal",
            FullPrefix::new(0x8).unwrap(),
        ));
        e.request_wakeup(1).unwrap();
        assert!(BusEngine::is_frozen(&e), "first traffic freezes the ring");
    }

    #[test]
    fn cap_exhaustion_freezes_and_withholds_partial_records() {
        // Regression: a run that blows its event budget used to panic
        // deep in the kernel (or, with a naive capped loop, would stop
        // mid-transaction and look exactly like quiescence, handing out
        // a truncated record set). The contract now: no panic, no
        // records, engine frozen, later runs are no-ops.
        let mut e = three_node_engine();
        e.queue(
            0,
            Message::new(Address::short(sp(0x2), FuId::ZERO), vec![0xEE; 4]),
        )
        .unwrap();
        e.ensure_built().max_events = Some(50);
        let records = e.run_until_quiescent();
        assert!(
            records.is_empty(),
            "an exhausted run must withhold its partial records"
        );
        assert!(e.is_exhausted());
        assert!(
            BusEngine::is_frozen(&e),
            "cap exhaustion wedges the circuit at an arbitrary point"
        );
        assert!(e.run_transaction().is_none(), "frozen engines stay frozen");
        assert_eq!(e.stats().transactions, 0);
        assert!(e.stats().exhausted, "the stats report the freeze");
    }

    #[test]
    fn completed_records_survive_a_later_exhaustion() {
        // Only the interrupted run's records are withheld; transactions
        // already absorbed from earlier clean runs remain valid.
        let mut e = three_node_engine();
        e.queue(
            0,
            Message::new(Address::short(sp(0x2), FuId::ZERO), vec![1]),
        )
        .unwrap();
        assert_eq!(e.run_until_quiescent().len(), 1);
        e.ensure_built().max_events = Some(50);
        e.queue(
            0,
            Message::new(Address::short(sp(0x2), FuId::ZERO), vec![2]),
        )
        .unwrap();
        assert!(e.run_until_quiescent().is_empty());
        assert!(e.is_exhausted());
        let stats = e.stats();
        assert_eq!(stats.transactions, 1, "the clean run's accounting stands");
    }

    #[test]
    fn segment_edges_count_driven_segments() {
        let mut e = three_node_engine();
        e.queue(
            0,
            Message::new(Address::short(sp(0x2), FuId::ZERO), vec![0xA5]),
        )
        .unwrap();
        e.run_until_quiescent();
        let stats = e.stats();
        assert_eq!(stats.segment_edges.len(), 3);
        assert!(
            stats.segment_edges.iter().all(|&edges| edges > 0),
            "every member forwarded CLK (and at least the arbitration \
             pulses on DATA): {:?}",
            stats.segment_edges
        );
        // The driven-segment counts are exactly the edge counts on the
        // member-driven nets, the quantity the ½CV² model in
        // `mbus-power` charges — and they need no transition history.
        let bus = e.wire_bus().unwrap();
        assert!(bus.history().is_none(), "history is opt-in");
        let from_trace: Vec<u64> = bus.segment_edges();
        assert_eq!(stats.segment_edges, from_trace);
    }

    #[test]
    fn stats_match_activity_accounting() {
        let mut e = three_node_engine();
        e.queue(
            0,
            Message::new(Address::short(sp(0x2), FuId::ZERO), vec![0; 8]),
        )
        .unwrap();
        e.run_until_quiescent();
        let stats = e.stats();
        let bits = 19 + 64;
        assert_eq!(stats.tx_bits[0], bits);
        assert_eq!(stats.rx_bits[1], bits);
        assert_eq!(stats.fwd_bits[2], bits);
        assert_eq!(stats.busy_cycles, bits);
        assert_eq!(stats.transactions, 1);
    }

    #[test]
    fn take_rx_after_any_event_budget_names_handed_out_records() {
        // Sweep the event budget across one transaction's whole life:
        // wherever the budget runs out, `take_rx` must not panic, and
        // every delivery it returns belongs to a record the engine
        // handed out. A budget that runs out after a delivery but
        // before quiescence withholds the delivery with its record.
        let mut delivered = 0;
        for budget in 1..4000 {
            let mut e = WireEngine::new(BusConfig::default());
            let a = e.add_node(
                NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(1)),
            );
            let b = e.add_node(
                NodeSpec::new("b", FullPrefix::new(0x2).unwrap()).with_short_prefix(sp(2)),
            );
            e.queue(
                a,
                Message::new(Address::short(sp(2), FuId::ZERO), vec![7; 4]),
            )
            .unwrap();
            e.ensure_built().max_events = Some(budget);
            let records = e.run_until_quiescent();
            for rx in e.take_rx(b) {
                delivered += 1;
                assert!(
                    records
                        .iter()
                        .any(|r| r.winner == Some(rx.from) && r.delivered_to.contains(b)),
                    "budget {budget}: delivery from {} has no handed-out record",
                    rx.from
                );
            }
        }
        assert!(delivered > 0, "the sweep reaches a completed delivery");
    }
}
