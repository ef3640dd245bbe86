//! The [`WireBus`] harness: assembles the CLK and DATA rings of Fig. 4
//! over the `mbus-sim` kernel and offers a transaction-level API that
//! mirrors [`AnalyticBus`](crate::AnalyticBus) for cross-checking.

use mbus_sim::{Circuit, Component, ComponentId, History, Logic, NetId, PinId, SimTime, Trace};

use crate::addr::Address;
use crate::config::BusConfig;
use crate::control::{ControlBits, TxOutcome};
use crate::error::MbusError;
use crate::message::Message;
use crate::node::NodeSpec;
use crate::wire::mediator::MediatorComp;
use crate::wire::member::{MemberComp, MemberShared, WireReceived};

/// A completed transaction as the mediator observed it on the wire.
#[derive(Clone, Debug)]
pub struct WireTransaction {
    /// When the request first pulled DATA low at the mediator.
    pub request_at: SimTime,
    /// First driven falling edge of the bus clock.
    pub clock_start: SimTime,
    /// Bus idle again.
    pub idle_at: SimTime,
    /// Measured bus-clock cycles — compare with
    /// [`timing::transaction_cycles`](crate::timing::transaction_cycles).
    pub cycles: u64,
    /// Control bits the mediator latched, if the control phase ran.
    pub control: Option<ControlBits>,
    /// True for a null transaction (no arbitration winner).
    pub null_transaction: bool,
    /// True when the mediator's runaway counter ended the message.
    pub runaway: bool,
}

/// The four ring pins (plus the interrupt port) handed to a custom
/// ring occupant bound through [`WireBusBuilder::raw_node`].
#[derive(Debug, Clone, Copy)]
pub struct RawNodeIo {
    /// CLK ring input.
    pub clk_in: PinId,
    /// DATA ring input.
    pub data_in: PinId,
    /// CLK ring output (this node drives the next segment).
    pub clk_out: PinId,
    /// DATA ring output.
    pub data_out: PinId,
    /// Interrupt/kick input (toggled by the harness).
    pub int_in: PinId,
}

enum NodeKind {
    Member(NodeSpec),
    Raw {
        name: String,
        bind: Box<dyn FnOnce(RawNodeIo) -> Box<dyn Component>>,
    },
}

impl std::fmt::Debug for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeKind::Member(spec) => write!(f, "Member({})", spec.name()),
            NodeKind::Raw { name, .. } => write!(f, "Raw({name})"),
        }
    }
}

/// Builder for a [`WireBus`].
///
/// # Example
///
/// ```
/// use mbus_core::wire::WireBusBuilder;
/// use mbus_core::{BusConfig, FullPrefix, NodeSpec, ShortPrefix};
///
/// let bus = WireBusBuilder::new(BusConfig::default())
///     .node(
///         NodeSpec::new("cpu", FullPrefix::new(0x00001)?)
///             .with_short_prefix(ShortPrefix::new(0x1)?),
///     )
///     .node(
///         NodeSpec::new("sensor", FullPrefix::new(0x00002)?)
///             .with_short_prefix(ShortPrefix::new(0x2)?),
///     )
///     .build();
/// assert_eq!(bus.node_count(), 2);
/// # Ok::<(), mbus_core::MbusError>(())
/// ```
#[derive(Debug)]
pub struct WireBusBuilder {
    config: BusConfig,
    specs: Vec<NodeKind>,
    record_history: bool,
}

impl WireBusBuilder {
    /// Starts a builder with the given bus configuration.
    pub fn new(config: BusConfig) -> Self {
        WireBusBuilder {
            config,
            specs: Vec::new(),
            record_history: false,
        }
    }

    /// Keeps the timestamped transition history of every ring net
    /// (default `false`), for waveforms and VCD export through
    /// [`WireBus::history`]. Without it the bus records only per-net
    /// edge counts, which is all the energy accounting reads.
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Appends a node at the next ring position. The first node sits
    /// immediately downstream of the mediator frontend and therefore
    /// has top arbitration priority — in the paper's systems this is
    /// the processor hosting the mediator.
    pub fn node(mut self, spec: NodeSpec) -> Self {
        self.specs.push(NodeKind::Member(spec));
        self
    }

    /// Appends a *custom* ring occupant — any [`Component`] wired to
    /// the four bus pins, such as the bitbang-MCU node of §6.6. The
    /// closure receives the pin handles and returns the component to
    /// bind. Custom nodes have no member bookkeeping (`take_rx` and
    /// friends panic for their index); they interact with the bus
    /// purely electrically, which is the point.
    ///
    /// Like every [`Component`], the occupant must be `Send`: the
    /// circuit owns it, and the finished bus (and any engine wrapping
    /// it) may move to another thread.
    pub fn raw_node(
        mut self,
        name: impl Into<String>,
        bind: impl FnOnce(RawNodeIo) -> Box<dyn Component> + 'static,
    ) -> Self {
        self.specs.push(NodeKind::Raw {
            name: name.into(),
            bind: Box::new(bind),
        });
        self
    }

    /// Builds the circuit: one mediator frontend plus one member
    /// component per node, chained into CLK and DATA rings.
    ///
    /// # Panics
    ///
    /// Panics if no nodes were added.
    pub fn build(self) -> WireBus {
        assert!(!self.specs.is_empty(), "a bus needs at least one node");
        let mut circuit = Circuit::new();
        if self.record_history {
            circuit.record_history();
        }
        let n = self.specs.len();
        let hop = self.config.hop_delay();
        let period = self.config.clock_period();

        // Nets: segment i carries the signal *into* member i; segment n
        // wraps from the last member back into the mediator.
        let clk_nets: Vec<NetId> = (0..=n).map(|i| circuit.net(format!("clk{i}"))).collect();
        let data_nets: Vec<NetId> = (0..=n).map(|i| circuit.net(format!("data{i}"))).collect();

        // Mediator frontend: drives segment 0, listens on segment n.
        // The mediator shares a die with the first member (the paper's
        // processor chip hosts it as a block), so the mediator→member0
        // link is an on-chip connection, not a 10 ns chip-to-chip hop;
        // the wrap from the last member back into the mediator is a
        // real hop. This keeps the ring delay at n·hop, matching the
        // Fig. 9 ceiling.
        let on_chip = if hop > SimTime::from_ns(1) {
            SimTime::from_ns(1)
        } else {
            hop
        };
        let med = circuit.add_component("mediator");
        let med_clk_in = circuit.input_delayed(med, clk_nets[n], hop);
        let med_data_in = circuit.input_delayed(med, data_nets[n], hop);
        let med_clk_out = circuit.output(med, clk_nets[0]);
        let med_data_out = circuit.output(med, data_nets[0]);
        circuit.bind(
            med,
            MediatorComp::new(
                med_clk_in,
                med_data_in,
                med_clk_out,
                med_data_out,
                period,
                self.config.mediator_wakeup_cycles(),
                self.config.max_message_bytes(),
            ),
        );

        // Members: member i listens on segment i, drives segment i+1.
        let mut members = Vec::with_capacity(n);
        let mut int_nets = Vec::with_capacity(n);
        for (i, kind) in self.specs.into_iter().enumerate() {
            let name = match &kind {
                NodeKind::Member(spec) => spec.name().to_string(),
                NodeKind::Raw { name, .. } => name.clone(),
            };
            let comp = circuit.add_component(&name);
            let int_net = circuit.net_with(format!("int{i}"), Logic::Low);
            let in_delay = if i == 0 { on_chip } else { hop };
            let io = RawNodeIo {
                clk_in: circuit.input_delayed(comp, clk_nets[i], in_delay),
                data_in: circuit.input_delayed(comp, data_nets[i], in_delay),
                clk_out: circuit.output(comp, clk_nets[i + 1]),
                data_out: circuit.output(comp, data_nets[i + 1]),
                int_in: circuit.input(comp, int_net),
            };
            match kind {
                NodeKind::Member(spec) => {
                    circuit.bind(
                        comp,
                        MemberComp::new(
                            io.clk_in,
                            io.data_in,
                            io.clk_out,
                            io.data_out,
                            io.int_in,
                            period,
                            spec,
                        ),
                    );
                    members.push(Some(comp));
                }
                NodeKind::Raw { bind, .. } => {
                    let model = bind(io);
                    circuit.bind_boxed(comp, model);
                    members.push(None);
                }
            }
            int_nets.push(int_net);
        }

        WireBus {
            circuit,
            config: self.config,
            mediator: med,
            members,
            int_nets,
            clk_nets,
            data_nets,
            int_level: vec![false; n],
        }
    }
}

/// The assembled wire-level bus.
///
/// The API mirrors [`AnalyticBus`](crate::AnalyticBus): queue messages,
/// request wakeups, run to quiescence, drain receive logs — but every
/// CLK/DATA edge in between is simulated and counted.
pub struct WireBus {
    circuit: Circuit,
    config: BusConfig,
    mediator: ComponentId,
    /// Each node's [`MemberComp`]; `None` entries are raw/custom ring
    /// occupants.
    members: Vec<Option<ComponentId>>,
    int_nets: Vec<NetId>,
    clk_nets: Vec<NetId>,
    data_nets: Vec<NetId>,
    int_level: Vec<bool>,
}

impl std::fmt::Debug for WireBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireBus")
            .field("nodes", &self.members.len())
            .field("now", &self.circuit.now())
            .finish()
    }
}

impl WireBus {
    /// Number of member nodes (the mediator frontend is not counted).
    pub fn node_count(&self) -> usize {
        self.members.len()
    }

    /// The bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.circuit.now()
    }

    /// Per-net edge counts (for energy accounting).
    pub fn trace(&self) -> &Trace {
        self.circuit.trace()
    }

    /// The timestamped transition history (for waveforms and VCD
    /// export), or `None` unless the bus was built with
    /// [`WireBusBuilder::record_history`].
    pub fn history(&self) -> Option<&History> {
        self.circuit.history()
    }

    /// Kernel events processed so far (throughput accounting).
    pub fn events_processed(&self) -> u64 {
        self.circuit.events_processed()
    }

    /// How many of those events were fused deliveries — ring hops the
    /// wavefront walk ran in place instead of round-tripping the queue.
    pub fn fused_events(&self) -> u64 {
        self.circuit.fused_events()
    }

    /// The CLK-ring segment nets, in ring order: `clk[i]` enters member
    /// `i`; the last entry wraps into the mediator.
    pub fn clk_nets(&self) -> &[NetId] {
        &self.clk_nets
    }

    /// The DATA-ring segment nets, in ring order (see
    /// [`WireBus::clk_nets`]).
    pub fn data_nets(&self) -> &[NetId] {
        &self.data_nets
    }

    /// Per-node driven-segment transition counts from the edge counts:
    /// entry `i` is the total CLK + DATA edge count on the ring
    /// segments member `i` *drives* (`clk[i+1]` and `data[i+1]`) —
    /// the switching activity that node's driver pays ½CV² for in the
    /// §6.2 energy models. The mediator-driven segment 0 belongs to
    /// the frontend, not to any member, and is not included.
    pub fn segment_edges(&self) -> Vec<u64> {
        let trace = self.circuit.trace();
        (0..self.members.len())
            .map(|i| {
                trace.edge_count(self.clk_nets[i + 1]) + trace.edge_count(self.data_nets[i + 1])
            })
            .collect()
    }

    /// Queues a message for transmission by `node` and notifies the
    /// node's frontend (the layer-side "send" strobe).
    ///
    /// # Errors
    ///
    /// * [`MbusError::UnknownNode`] for an out-of-range index.
    /// * [`MbusError::MessageTooLong`] if the payload exceeds the
    ///   mediator limit (use [`WireBus::queue_unchecked`] to exercise
    ///   the runaway counter).
    pub fn queue(&mut self, node: usize, msg: Message) -> Result<(), MbusError> {
        msg.validate(&self.config)?;
        self.queue_unchecked(node, msg)
    }

    /// Queues a message without the length check, so tests can exercise
    /// the mediator's runaway-message counter.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::UnknownNode`] for an out-of-range index.
    pub fn queue_unchecked(&mut self, node: usize, msg: Message) -> Result<(), MbusError> {
        self.try_member_mut(node)
            .ok_or(MbusError::UnknownNode { index: node })?
            .tx_queue
            .push_back(msg);
        self.pulse_int(node);
        Ok(())
    }

    /// Asserts a node's interrupt port (§4.5): its always-on frontend
    /// will issue a null transaction to wake the node.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::UnknownNode`] for an out-of-range index.
    pub fn request_wakeup(&mut self, node: usize) -> Result<(), MbusError> {
        self.try_member_mut(node)
            .ok_or(MbusError::UnknownNode { index: node })?
            .wake_requested = true;
        self.pulse_int(node);
        Ok(())
    }

    /// The harness-visible state of member `node`, or `None` if `node`
    /// is out of range or a raw/custom occupant.
    pub(crate) fn try_member(&self, node: usize) -> Option<&MemberShared> {
        let comp = (*self.members.get(node)?)?;
        Some(&self.circuit.component::<MemberComp>(comp)?.shared)
    }

    /// Mutable [`WireBus::try_member`].
    pub(crate) fn try_member_mut(&mut self, node: usize) -> Option<&mut MemberShared> {
        let comp = (*self.members.get(node)?)?;
        Some(&mut self.circuit.component_mut::<MemberComp>(comp)?.shared)
    }

    /// The harness-visible state of member `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or a raw/custom occupant.
    fn member(&self, node: usize) -> &MemberShared {
        self.try_member(node).unwrap_or_else(|| not_a_member(node))
    }

    /// Mutable [`WireBus::member`].
    fn member_mut(&mut self, node: usize) -> &mut MemberShared {
        self.try_member_mut(node)
            .unwrap_or_else(|| not_a_member(node))
    }

    fn pulse_int(&mut self, node: usize) {
        // Toggle the INT net so the member component gets an event.
        let level = !self.int_level[node];
        self.int_level[node] = level;
        self.circuit.drive_external(
            self.int_nets[node],
            Logic::from_bool(level),
            self.circuit.now(),
        );
    }

    /// Runs the circuit until all queues drain and the bus is idle.
    /// Returns the transactions completed since the last call.
    ///
    /// # Panics
    ///
    /// Panics if the circuit fails to settle within `max_events`
    /// simulator events — a protocol livelock, which the fault-injection
    /// tests rely on detecting.
    pub fn run_until_quiescent(&mut self, max_events: u64) -> Vec<WireTransaction> {
        self.circuit.run_to_idle(max_events);
        self.take_records()
    }

    /// Like [`WireBus::run_until_quiescent`], but returns `None`
    /// instead of panicking when the event budget runs out with the
    /// bus still active. An exhausted run yields *no* records — the
    /// transaction the cap interrupted never completed at the
    /// mediator, and handing out the earlier records while the queue
    /// still holds undrained traffic would make the truncation look
    /// like quiescence. The caller must treat the bus as wedged (the
    /// [`WireEngine`](crate::wire::WireEngine) freezes itself).
    pub fn try_run_until_quiescent(&mut self, max_events: u64) -> Option<Vec<WireTransaction>> {
        if self.circuit.run_to_idle_capped(max_events) {
            Some(self.take_records())
        } else {
            None
        }
    }

    /// Runs for a bounded virtual duration (for waveform capture at a
    /// precise window), returning completed transactions.
    pub fn run_for(&mut self, duration: SimTime) -> Vec<WireTransaction> {
        self.circuit.run_for(duration);
        self.take_records()
    }

    fn take_records(&mut self) -> Vec<WireTransaction> {
        let mediator = self.circuit.component_mut::<MediatorComp>(self.mediator);
        let mediator = mediator.expect("mediator slot holds the MediatorComp");
        std::mem::take(&mut mediator.records)
    }

    /// Drains a node's received messages.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn take_rx(&mut self, node: usize) -> Vec<WireReceived> {
        std::mem::take(&mut self.member_mut(node).rx_log)
    }

    /// Drains a node's transmit outcomes, in completion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn take_outcomes(&mut self, node: usize) -> Vec<TxOutcome> {
        std::mem::take(&mut self.member_mut(node).outcomes)
    }

    /// Number of completed self-wake events on a node.
    pub fn wake_events(&self, node: usize) -> u64 {
        self.member(node).wake_events
    }

    /// Whether a node's layer domain is powered.
    pub fn layer_on(&self, node: usize) -> bool {
        self.member(node).layer_on
    }

    /// Whether a node's bus-controller domain is powered.
    pub fn bus_ctl_on(&self, node: usize) -> bool {
        self.member(node).bus_ctl_on
    }

    /// Cumulative layer wake count for a node.
    pub fn layer_wakes(&self, node: usize) -> u64 {
        self.member(node).layer_wakes
    }

    /// Cumulative bus-controller wake count for a node.
    pub fn bus_ctl_wakes(&self, node: usize) -> u64 {
        self.member(node).bus_ctl_wakes
    }

    /// A node's spec (prefixes may change under enumeration).
    pub fn spec(&self, node: usize) -> &NodeSpec {
        &self.member(node).spec
    }

    /// Sends one message and runs to quiescence, returning the
    /// transaction record — the one-line "send and wait" helper used by
    /// examples and tests.
    ///
    /// # Errors
    ///
    /// Propagates queueing errors; see [`WireBus::queue`].
    pub fn send_and_run(
        &mut self,
        node: usize,
        dest: Address,
        payload: Vec<u8>,
    ) -> Result<Vec<WireTransaction>, MbusError> {
        self.queue(node, Message::new(dest, payload))?;
        Ok(self.run_until_quiescent(5_000_000))
    }
}

fn not_a_member(node: usize) -> ! {
    panic!("node {node} is out of range or a raw/custom ring occupant")
}
