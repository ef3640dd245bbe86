//! Declarative, engine-generic workloads.
//!
//! A [`Workload`] is a ring description plus a step list (queue,
//! wakeup, run), written once and executable on *any*
//! [`BusEngine`] — which is how every paper scenario, cross-check, and
//! bench binary avoids being hand-written twice. The built-in
//! constructors cover the paper's evaluation:
//!
//! * [`Workload::sense_and_send`] — §6.3.1's temperature system
//!   (request / direct-reply pattern with power-gated chips);
//! * [`Workload::monitor_alert`] — §6.3.2's motion camera (interrupt
//!   wakeup, then a row-by-row frame transfer);
//! * [`Workload::many_node_storm`] — §6.4-style contention storms on
//!   up to 14 nodes;
//! * [`Workload::enumeration_churn`] — §4.7-style discovery broadcasts
//!   and full-addressed identification replies;
//! * [`Workload::fault_injection`] — §3's lockup-freedom workload
//!   (overruns, runaways, unmatched addresses, wakeups).
//!
//! Running a workload yields a [`ScenarioReport`]; two reports from two
//! engines compare via [`ScenarioReport::signature`], which is the
//! cross-check suite's single point of truth.
//!
//! # Example
//!
//! ```
//! use mbus_core::{EngineKind, Workload};
//!
//! let workload = Workload::many_node_storm(4, 2);
//! let analytic = workload.run_on(EngineKind::Analytic);
//! let wire = workload.run_on(EngineKind::Wire);
//! assert_eq!(analytic.signature(), wire.signature());
//! ```

use crate::addr::{Address, BroadcastChannel, FuId, FullPrefix, ShortPrefix};
use crate::behavior::{self, NodeBehavior, DEFAULT_REPLY_HORIZON};
use crate::config::BusConfig;
use crate::engine::{
    build_engine, BusEngine, BusStats, EngineKind, EngineRecord, NodeIndex, ReceivedMessage,
};
use crate::enumeration::{CMD_ENUMERATE, CMD_IDENTIFY};
use crate::message::Message;
use crate::node::NodeSpec;
use std::collections::BTreeMap;

/// One step of a workload.
#[derive(Clone, Debug)]
pub enum Step {
    /// Queue a message for transmission by `node`.
    Queue {
        /// Transmitting node.
        node: NodeIndex,
        /// The message.
        msg: Message,
    },
    /// Queue without the mediator length check (runaway testing).
    QueueUnchecked {
        /// Transmitting node.
        node: NodeIndex,
        /// The (oversized) message.
        msg: Message,
    },
    /// Assert a node's interrupt port (§4.5).
    Wakeup {
        /// Node to wake.
        node: NodeIndex,
    },
    /// Run the bus until quiescent, collecting the records.
    Run,
    /// Run *at most* `count` transactions and stop — leaving the bus
    /// mid-drain, so following queue/wakeup steps land while earlier
    /// traffic is still pending (the ROADMAP's "mid-drain queueing"
    /// hostile case). The analytic engine executes exactly the
    /// requested transactions; the wire engine is *allowed* to run
    /// ahead internally (see the [`crate::engine::BusEngine`] contract
    /// on `run_transaction`), so workloads containing this step are not
    /// wire-comparable — [`Workload::wire_comparable`] returns `false`
    /// and the cross-engine suites run them on the analytic engine only.
    RunTransactions {
        /// Maximum transactions to execute before stopping.
        count: usize,
    },
}

/// A declarative, engine-generic scenario: node specs plus steps.
#[derive(Clone, Debug)]
pub struct Workload {
    name: String,
    config: BusConfig,
    nodes: Vec<NodeSpec>,
    steps: Vec<Step>,
    strict_nulls: bool,
    behaviors: BTreeMap<NodeIndex, NodeBehavior>,
    reply_horizon: u32,
}

impl Workload {
    /// Starts an empty workload.
    pub fn new(name: impl Into<String>, config: BusConfig) -> Self {
        Workload {
            name: name.into(),
            config,
            nodes: Vec::new(),
            steps: Vec::new(),
            strict_nulls: true,
            behaviors: BTreeMap::new(),
            reply_horizon: DEFAULT_REPLY_HORIZON,
        }
    }

    /// Appends a node at the next ring position.
    pub fn node(mut self, spec: NodeSpec) -> Self {
        self.nodes.push(spec);
        self
    }

    /// Appends a queue step.
    pub fn send(mut self, node: NodeIndex, msg: Message) -> Self {
        self.steps.push(Step::Queue { node, msg });
        self
    }

    /// Appends an unchecked queue step (runaway testing).
    pub fn send_unchecked(mut self, node: NodeIndex, msg: Message) -> Self {
        self.steps.push(Step::QueueUnchecked { node, msg });
        self
    }

    /// Appends an interrupt-port wakeup step.
    pub fn wakeup(mut self, node: NodeIndex) -> Self {
        self.steps.push(Step::Wakeup { node });
        self
    }

    /// Appends a run-until-quiescent step.
    pub fn drain(mut self) -> Self {
        self.steps.push(Step::Run);
        self
    }

    /// Replaces the step list with `steps`, moved in one go.
    /// Crate-internal: the trace parser and shrinker hand over a whole
    /// list. Every step builder is a bare push, so this checks nothing
    /// they would.
    pub(crate) fn with_steps(mut self, steps: Vec<Step>) -> Self {
        self.steps = steps;
        self
    }

    /// Appends a partial-drain step: run at most `count` transactions,
    /// then stop mid-drain (see [`Step::RunTransactions`] for the
    /// engine-comparability caveat).
    pub fn drain_partial(mut self, count: usize) -> Self {
        self.steps.push(Step::RunTransactions { count });
        self
    }

    /// Attaches a reactive behavior to an already-declared node (see
    /// [`crate::behavior`]): each drain step is followed by bounded
    /// reply-injection rounds in which every delivery to a behavior
    /// node enqueues its programmed response at the quiescence
    /// barrier. Attaching [`NodeBehavior::Inert`] removes the entry.
    /// A power-gated behavior node transmits its responses, so such
    /// workloads want [`Workload::allow_wake_nulls`] just like any
    /// other gated transmitter.
    ///
    /// # Panics
    ///
    /// Panics if `node` has not been declared yet or the behavior's
    /// parameters are out of range (see
    /// [`crate::behavior::MAX_BEHAVIOR_PAYLOAD`]).
    pub fn behavior(mut self, node: NodeIndex, behavior: NodeBehavior) -> Self {
        assert!(
            node < self.nodes.len(),
            "behavior on undeclared node {node} in workload '{}'",
            self.name
        );
        if behavior.is_inert() {
            self.behaviors.remove(&node);
        } else {
            behavior.validate();
            self.behaviors.insert(node, behavior);
        }
        self
    }

    /// Overrides the reply-injection horizon: the maximum number of
    /// injection rounds per drain step (default
    /// [`DEFAULT_REPLY_HORIZON`]). Cascade loops terminate after at
    /// most this many generations.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero (that would disable behaviors
    /// silently — attach [`NodeBehavior::Inert`] instead).
    pub fn with_reply_horizon(mut self, horizon: u32) -> Self {
        assert!(horizon >= 1, "reply horizon must be at least 1");
        self.reply_horizon = horizon;
        self
    }

    /// Declares that this workload transmits from power-gated nodes, so
    /// the wire engine inserts self-wake null transactions the analytic
    /// engine folds away (see [`crate::engine`]'s module docs). The
    /// [`signature`](ScenarioReport::signature) then compares the
    /// non-null record stream instead of the full stream.
    pub fn allow_wake_nulls(mut self) -> Self {
        self.strict_nulls = false;
        self
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bus configuration the workload runs with.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// The ring description.
    pub fn node_specs(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// The step list.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Whether null transactions are part of the comparable signature.
    pub fn strict_nulls(&self) -> bool {
        self.strict_nulls
    }

    /// The reactive behavior table, in node order.
    pub fn behaviors(&self) -> &BTreeMap<NodeIndex, NodeBehavior> {
        &self.behaviors
    }

    /// The reply-injection horizon (rounds per drain step).
    pub fn reply_horizon(&self) -> u32 {
        self.reply_horizon
    }

    /// Whether this workload's observable behavior is comparable
    /// against the wire engine. Partial drains
    /// ([`Step::RunTransactions`]) make it not so: the wire engine may
    /// legally run ahead of a `run_transaction` call (the
    /// [`crate::engine::BusEngine`] contract), so traffic queued after
    /// a partial drain meets an already-empty bus there while the
    /// analytic kernel arbitrates it against the still-pending
    /// remainder. Cross-engine suites skip wire for such workloads;
    /// the golden digest fold of the seeded battery
    /// (`tests/analytic_batching.rs`) covers them instead.
    pub fn wire_comparable(&self) -> bool {
        !self
            .steps
            .iter()
            .any(|s| matches!(s, Step::RunTransactions { .. }))
    }

    /// Builds an engine of `kind` with this workload's ring on it.
    pub fn instantiate(&self, kind: EngineKind) -> Box<dyn BusEngine> {
        let mut engine = build_engine(kind, self.config);
        for spec in &self.nodes {
            engine.add_node(spec.clone());
        }
        engine
    }

    /// Runs the steps on an engine that already carries this workload's
    /// ring (see [`Workload::instantiate`]), returning the report.
    ///
    /// A trailing [`Step::Run`] is implied if the step list does not
    /// end with one, so queued traffic is never silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if the engine's ring does not match the workload's, or if
    /// a queue step is rejected (workloads are static; a rejection is a
    /// bug in the workload definition).
    pub fn apply<E: BusEngine + ?Sized>(&self, engine: &mut E) -> ScenarioReport {
        assert_eq!(
            engine.node_count(),
            self.nodes.len(),
            "engine ring does not match workload '{}'",
            self.name
        );
        let n = engine.node_count();
        let mut records = Vec::new();
        // Receive logs drained early by the behavior settle loop, in
        // delivery order, re-joined with the engine's remainder at
        // report time.
        let mut collected: Vec<Vec<ReceivedMessage>> = vec![Vec::new(); n];
        let mut agg_seen: BTreeMap<NodeIndex, u32> = BTreeMap::new();
        let mut injected_replies = 0u64;
        let mut reply_rounds = 0u64;
        for step in &self.steps {
            match step {
                Step::Queue { node, msg } => {
                    engine
                        .queue(*node, msg.clone())
                        .expect("workload queue step");
                }
                Step::QueueUnchecked { node, msg } => {
                    engine
                        .queue_unchecked(*node, msg.clone())
                        .expect("workload queue_unchecked step");
                }
                Step::Wakeup { node } => {
                    engine.request_wakeup(*node).expect("workload wakeup step");
                }
                // `run_until_quiescent` hits each engine's batched
                // drain (the analytic kernel builds the records
                // in-place); extending moves them without a re-clone.
                // Behaviors inject only here, at the quiescence
                // barrier — never mid-drain — so every engine and
                // schedule reaches the identical injection state.
                Step::Run => {
                    records.extend(engine.run_until_quiescent());
                    self.settle_behaviors(
                        engine,
                        &mut records,
                        &mut collected,
                        &mut agg_seen,
                        &mut injected_replies,
                        &mut reply_rounds,
                    );
                }
                Step::RunTransactions { count } => {
                    for _ in 0..*count {
                        match engine.run_transaction() {
                            Some(record) => records.push(record),
                            None => break,
                        }
                    }
                }
            }
        }
        if !matches!(self.steps.last(), Some(Step::Run)) {
            records.extend(engine.run_until_quiescent());
            self.settle_behaviors(
                engine,
                &mut records,
                &mut collected,
                &mut agg_seen,
                &mut injected_replies,
                &mut reply_rounds,
            );
        }
        ScenarioReport {
            workload: self.name.clone(),
            kind: engine.kind(),
            rx: (0..n)
                .map(|i| {
                    let mut log = std::mem::take(&mut collected[i]);
                    log.extend(engine.take_rx(i));
                    log
                })
                .collect(),
            wake_events: (0..n).map(|i| engine.wake_events(i)).collect(),
            stats: engine.stats(),
            records,
            strict_nulls: self.strict_nulls,
            injected_replies,
            reply_rounds,
        }
    }

    /// The behavior settle loop: at a quiescence barrier, drain every
    /// behavior node's receive log, compute the programmed responses
    /// (a pure function of the drained deliveries — see
    /// [`crate::behavior`]'s determinism rules), enqueue them through
    /// the ordinary `queue` API, and re-drain; at most
    /// [`Workload::reply_horizon`] rounds.
    fn settle_behaviors<E: BusEngine + ?Sized>(
        &self,
        engine: &mut E,
        records: &mut Vec<EngineRecord>,
        collected: &mut [Vec<ReceivedMessage>],
        agg_seen: &mut BTreeMap<NodeIndex, u32>,
        injected: &mut u64,
        rounds: &mut u64,
    ) {
        if self.behaviors.is_empty() {
            return;
        }
        for _ in 0..self.reply_horizon {
            let mut batch: Vec<(NodeIndex, Message)> = Vec::new();
            for (&node, b) in &self.behaviors {
                let triggers = engine.take_rx(node);
                for m in &triggers {
                    // A node never reacts to its own transmissions
                    // (self-deliveries via broadcast).
                    if m.from == node {
                        continue;
                    }
                    self.respond(node, b, m, agg_seen, &mut batch);
                }
                collected[node].extend(triggers);
            }
            if batch.is_empty() {
                return;
            }
            for (node, msg) in batch {
                engine.queue(node, msg).expect("behavior response");
                *injected += 1;
            }
            records.extend(engine.run_until_quiescent());
            *rounds += 1;
        }
    }

    /// Appends `node`'s programmed responses to one trigger delivery.
    fn respond(
        &self,
        node: NodeIndex,
        b: &NodeBehavior,
        trigger: &ReceivedMessage,
        agg_seen: &mut BTreeMap<NodeIndex, u32>,
        batch: &mut Vec<(NodeIndex, Message)>,
    ) {
        let fu = b.fu();
        match b {
            NodeBehavior::Inert => {}
            NodeBehavior::Reply { payload, .. } => {
                if let Some(dest) = self.reply_dest(trigger, fu) {
                    batch.push((node, Message::new(dest, payload.clone())));
                }
            }
            NodeBehavior::AggregateAck { n, payload, .. } => {
                let seen = agg_seen.entry(node).or_insert(0);
                *seen += 1;
                if (*seen).is_multiple_of(*n) {
                    if let Some(dest) = self.reply_dest(trigger, fu) {
                        batch.push((node, Message::new(dest, payload.clone())));
                    }
                }
            }
            NodeBehavior::AlarmCascade {
                fanout, payload, ..
            } => {
                let count = self.nodes.len();
                // Ring successors in declaration order; at most the
                // other `count - 1` nodes, self skipped.
                for k in 0..(*fanout as usize).min(count.saturating_sub(1)) {
                    let target = (node + 1 + k) % count;
                    if target == node {
                        continue;
                    }
                    let dest = Address::full(self.nodes[target].full_prefix(), fu);
                    batch.push((node, Message::new(dest, payload.clone())));
                }
            }
        }
    }

    /// Where a `Reply`/`AggregateAck` response goes: the trigger's
    /// embedded return address when present
    /// ([`behavior::return_address`]), otherwise the full address of
    /// the bus-level transmitter.
    fn reply_dest(&self, trigger: &ReceivedMessage, fu: FuId) -> Option<Address> {
        if let Some((prefix, rfu)) = behavior::return_address(&trigger.payload) {
            return Some(Address::full(prefix, rfu));
        }
        let sender = self.nodes.get(trigger.from)?;
        Some(Address::full(sender.full_prefix(), fu))
    }

    /// Builds an engine of `kind` and runs the workload on it.
    pub fn run_on(&self, kind: EngineKind) -> ScenarioReport {
        let mut engine = self.instantiate(kind);
        self.apply(engine.as_mut())
    }

    // ------------------------------------------------------------------
    // The paper's scenarios.
    // ------------------------------------------------------------------

    /// §6.3.1 "sense and send": the processor asks the power-gated
    /// temperature sensor for a reading every round; the sensor replies
    /// *directly* to the power-gated radio (any-to-any routing — the
    /// point of the comparison against master-routed buses).
    pub fn sense_and_send(rounds: usize) -> Workload {
        let mut w = Workload::new(format!("sense_and_send/{rounds}"), BusConfig::default())
            .node(spec("cpu+mediator", 0x0_0001, 0x1, false))
            .node(spec("temp-sensor", 0x0_0002, 0x2, true))
            .node(spec("radio", 0x0_0003, 0x3, true))
            // The gated sensor transmits, so the wire engine self-wakes it
            // with a null transaction the analytic engine folds away.
            .allow_wake_nulls();
        for round in 0..rounds {
            // 4-byte read request to the sensor's FU 3 (§6.3.1).
            w = w
                .send(
                    0,
                    Message::new(short(0x2, 0x3), vec![0x51, round as u8, 0, 0]),
                )
                .drain();
            // 8-byte reading straight to the radio.
            let seq = (round as u16).to_be_bytes();
            let reading = ((round as u16) * 40 + 29_315 / 10).to_be_bytes();
            w = w
                .send(
                    1,
                    Message::new(
                        short(0x3, 0x0),
                        vec![seq[0], seq[1], reading[0], reading[1], 0, 0, 0, 0],
                    ),
                )
                .drain();
        }
        w
    }

    /// §6.3.2 "monitor and alert": the always-on motion detector wakes
    /// the imager through its interrupt port (one null transaction),
    /// then the imager streams `rows` messages of `row_bytes` straight
    /// to the radio.
    pub fn monitor_alert(rows: usize, row_bytes: usize) -> Workload {
        let mut w = Workload::new(
            format!("monitor_alert/{rows}x{row_bytes}"),
            BusConfig::default(),
        )
        .node(spec("cpu+mediator", 0x0_0011, 0x1, false))
        .node(spec("imager", 0x0_0012, 0x2, false))
        .node(spec("radio", 0x0_0013, 0x3, true))
        .wakeup(1)
        .drain();
        for row in 0..rows {
            // Deterministic pixel-row stand-in.
            let payload: Vec<u8> = (0..row_bytes)
                .map(|i| (row.wrapping_mul(31).wrapping_add(i.wrapping_mul(7))) as u8)
                .collect();
            w = w.send(1, Message::new(short(0x3, 0x0), payload));
        }
        w.drain()
    }

    /// §6.4-style contention storm: every member floods the mediator
    /// node each round, with a priority claim from the far node every
    /// third round, exercising arbitration, the priority round, and
    /// queue fairness at population sizes up to the 14-node limit.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= nodes <= 14`.
    pub fn many_node_storm(nodes: usize, rounds: usize) -> Workload {
        assert!((2..=14).contains(&nodes), "2..=14 short-addressed nodes");
        let mut w = Workload::new(
            format!("many_node_storm/{nodes}n{rounds}r"),
            BusConfig::default(),
        );
        for i in 0..nodes {
            w = w.node(spec(
                format!("n{i}"),
                0x0_0100 + i as u32,
                (i + 1) as u8,
                false,
            ));
        }
        for round in 0..rounds {
            for i in 1..nodes {
                let mut msg = Message::new(
                    short(0x1, 0x0),
                    vec![round as u8, i as u8, (round * nodes + i) as u8],
                );
                if round % 3 == 2 && i == nodes - 1 {
                    msg = msg.with_priority();
                }
                w = w.send(i, msg);
            }
            // The mediator answers one member per round.
            let target = (round % (nodes - 1)) + 1;
            w = w.send(
                0,
                Message::new(short((target + 1) as u8, 0x0), vec![0xA0 | round as u8]),
            );
            w = w.drain();
        }
        w
    }

    /// §4.7-style enumeration churn: discovery broadcasts from the
    /// initiator interleaved with full-prefix-addressed identification
    /// replies — the 43-cycle addressing path under broadcast fan-out.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= nodes <= 14`.
    pub fn enumeration_churn(nodes: usize) -> Workload {
        assert!((2..=14).contains(&nodes), "2..=14 nodes");
        let mut w = Workload::new(format!("enumeration_churn/{nodes}n"), BusConfig::default());
        for i in 0..nodes {
            w = w.node(spec(
                format!("chip{i}"),
                0x0_0200 + i as u32,
                (i + 1) as u8,
                false,
            ));
        }
        for i in 1..nodes {
            // Enumerate broadcast on the discovery channel.
            w = w
                .send(
                    0,
                    Message::new(
                        Address::broadcast(BroadcastChannel::DISCOVERY),
                        vec![CMD_ENUMERATE, i as u8],
                    ),
                )
                .drain();
            // Identification reply, full-prefix addressed (43-cycle
            // overhead) back to the initiator.
            let full = FullPrefix::new(0x0_0200).expect("initiator prefix");
            let p = 0x0_0200 + i as u32;
            w = w
                .send(
                    i,
                    Message::new(
                        Address::full(full, FuId::ZERO),
                        vec![CMD_IDENTIFY, (p >> 16) as u8, (p >> 8) as u8, p as u8],
                    ),
                )
                .drain();
        }
        w
    }

    /// §3's lockup-freedom workload: a receive-buffer overrun, an
    /// unmatched address, a mediator-enforced runaway, an interrupt
    /// wakeup, and good traffic in between — the bus must come back
    /// idle with every good message delivered.
    pub fn fault_injection() -> Workload {
        let oversized = vec![0x0F; 1500];
        Workload::new("fault_injection", BusConfig::default())
            .node(spec("a", 0x0_0301, 0x1, false))
            .node(
                NodeSpec::new("tiny", FullPrefix::new(0x0_0302).expect("prefix"))
                    .with_short_prefix(ShortPrefix::new(0x2).expect("prefix"))
                    .with_rx_buffer(8),
            )
            .node(spec("c", 0x0_0303, 0x3, true))
            .send(0, Message::new(short(0x3, 0x0), vec![1]))
            .drain()
            .send(0, Message::new(short(0x2, 0x0), vec![0; 64])) // overrun
            .drain()
            .send(1, Message::new(short(0xE, 0x0), vec![2])) // nobody home
            .drain()
            .send_unchecked(0, Message::new(short(0x3, 0x0), oversized)) // runaway
            .drain()
            .wakeup(2)
            .drain()
            .send(0, Message::new(short(0x2, 0x0), vec![3, 4, 5, 6])) // fits
            .drain()
    }

    /// Small instances of all five paper scenarios — the cross-check
    /// suite's standard battery (sized so the wire engine stays fast).
    pub fn paper_suite() -> Vec<Workload> {
        vec![
            Workload::sense_and_send(2),
            Workload::monitor_alert(6, 32),
            Workload::many_node_storm(6, 3),
            Workload::enumeration_churn(4),
            Workload::fault_injection(),
        ]
    }

    /// A seeded random workload (ROADMAP's "scenario fuzzing"): ring
    /// size, power-awareness, priority traffic, unmatched addresses,
    /// broadcasts, full-prefix routed destinations (the 43-cycle
    /// addressing form a fleet gateway's forwarded legs use, §4.6),
    /// interrupt wakeups, and drain points are all drawn from a
    /// [`mbus_sim::SmallRng`] stream, so every seed is a reproducible
    /// scenario. The differential suite (`tests/analytic_batching.rs`)
    /// runs hundreds of these through both kernel paths and all
    /// engines; [`crate::fleet::FleetWorkload::seeded`] lifts the same
    /// generator to multi-bus fleets with cross-cluster destinations.
    ///
    /// The generator also draws the ROADMAP's *hostile-traffic* cases:
    ///
    /// * **oversized / runaway messages** — unchecked sends whose
    ///   payload exceeds [`BusConfig::max_message_bytes`], so the
    ///   mediator's length counter cuts them
    ///   ([`crate::TxOutcome::LengthEnforced`]);
    /// * **rx-buffer overruns** — some members advertise a small
    ///   receive buffer, and a burst arm queues back-to-back deliveries
    ///   to one such destination before any drain, mixing fits with
    ///   overruns ([`crate::TxOutcome::ReceiverAbort`], §7 progress
    ///   floor included);
    /// * **mid-drain queueing** — partial drains
    ///   ([`Workload::drain_partial`]) stop the bus mid-queue so later
    ///   sends arbitrate against still-pending traffic. Seeds that draw
    ///   this arm are not wire-comparable (the wire engine may run
    ///   ahead — see [`Workload::wire_comparable`]); the golden digest
    ///   fold in `tests/analytic_batching.rs` covers them instead.
    ///
    /// Workloads that transmit from power-gated nodes get
    /// [`Workload::allow_wake_nulls`], like every hand-written
    /// gated-transmitter scenario.
    pub fn seeded(seed: u64) -> Workload {
        let mut rng = mbus_sim::SmallRng::seed_from_u64(seed);
        let nodes = rng.gen_index(2..9);
        let config = BusConfig::default();
        let mut w = Workload::new(format!("seeded/{seed}"), config);
        let mut gated = Vec::with_capacity(nodes);
        for i in 0..nodes {
            // Node 0 hosts the mediator and stays always-on, like the
            // paper's processor chip; roughly a third of the members
            // are power-aware.
            let power_aware = i != 0 && rng.gen_index(0..3) == 0;
            gated.push(power_aware);
            let mut node_spec = spec(
                format!("f{i}"),
                0x0_0400 + i as u32,
                (i + 1) as u8,
                power_aware,
            );
            // Roughly a quarter of the members advertise a small
            // receive buffer, the overrun targets of the burst arm
            // below (§7's 4-byte progress floor still applies).
            if i != 0 && rng.gen_index(0..4) == 0 {
                node_spec = node_spec.with_rx_buffer(4 + rng.gen_index(0..13));
            }
            w = w.node(node_spec);
        }
        // Roughly a sixth of the members react to deliveries
        // (closed-loop traffic; see [`crate::behavior`]). A gated
        // behavior node transmits its responses, so it flips the
        // wake-null allowance like any gated sender below.
        let mut gated_tx = false;
        for (i, &node_gated) in gated.iter().enumerate().skip(1) {
            if rng.gen_index(0..6) != 0 {
                continue;
            }
            let fu = FuId::new(rng.gen_index(0..16) as u8).expect("fu");
            let payload_len = 1 + rng.gen_index(0..3);
            let payload = rng.gen_bytes(payload_len);
            let b = match rng.gen_index(0..3) {
                0 => NodeBehavior::Reply { fu, payload },
                1 => NodeBehavior::AggregateAck {
                    n: 1 + rng.gen_index(0..3) as u32,
                    fu,
                    payload,
                },
                _ => NodeBehavior::AlarmCascade {
                    fanout: 1 + rng.gen_index(0..2) as u8,
                    fu,
                    payload,
                },
            };
            gated_tx |= node_gated;
            w = w.behavior(i, b);
        }
        let steps = 4 + rng.gen_index(0..32);
        for _ in 0..steps {
            match rng.gen_index(0..24) {
                0..=13 => {
                    let src = rng.gen_index(0..nodes);
                    gated_tx |= gated[src];
                    let len = rng.gen_index(1..13);
                    let payload = rng.gen_bytes(len);
                    let mut msg = if rng.gen_index(0..8) == 0 {
                        // Broadcast on the configuration channel.
                        Message::new(Address::broadcast(BroadcastChannel::CONFIGURATION), payload)
                    } else if rng.gen_index(0..8) == 0 {
                        // An address nobody owns: NAK path.
                        Message::new(short(0xE, 0x0), payload)
                    } else if rng.gen_index(0..6) == 0 {
                        // Full-prefix routed, like a gateway's
                        // forwarded leg (§4.6's 43-cycle form).
                        let dest = rng.gen_index(0..nodes) as u32;
                        Message::new(
                            Address::full(
                                FullPrefix::new(0x0_0400 + dest).expect("prefix"),
                                FuId::ZERO,
                            ),
                            payload,
                        )
                    } else {
                        let dest = rng.gen_index(1..nodes + 1) as u8;
                        Message::new(short(dest, 0x0), payload)
                    };
                    if rng.gen_index(0..5) == 0 {
                        msg = msg.with_priority();
                    }
                    w = w.send(src, msg);
                }
                14..=15 => w = w.wakeup(rng.gen_index(0..nodes)),
                16..=17 => {
                    // Hostile: an oversized/runaway message past the
                    // mediator's validated limit, queued unchecked so
                    // the length counter has to cut it on the wire.
                    let src = rng.gen_index(0..nodes);
                    gated_tx |= gated[src];
                    let over = config.max_message_bytes() + 1 + rng.gen_index(0..32);
                    let dest = rng.gen_index(1..nodes + 1) as u8;
                    w = w.send_unchecked(src, Message::new(short(dest, 0x0), rng.gen_bytes(over)));
                }
                18..=20 => {
                    // Hostile: back-to-back deliveries to one
                    // destination before any drain — payloads up to
                    // 24 bytes overrun the 4..=16-byte receive buffers
                    // drawn above, while short ones still fit.
                    let dest = rng.gen_index(1..nodes);
                    let burst = 2 + rng.gen_index(0..3);
                    for _ in 0..burst {
                        let src = rng.gen_index(0..nodes);
                        gated_tx |= gated[src];
                        let len = 1 + rng.gen_index(0..24);
                        w = w.send(
                            src,
                            Message::new(short((dest + 1) as u8, 0x0), rng.gen_bytes(len)),
                        );
                    }
                }
                21 => {
                    // Hostile: stop mid-drain so later steps enqueue
                    // against a still-pending bus (not wire-comparable;
                    // see the builder docs).
                    w = w.drain_partial(1 + rng.gen_index(0..4));
                }
                _ => w = w.drain(),
            }
        }
        w = w.drain();
        if gated_tx {
            w = w.allow_wake_nulls();
        }
        w
    }
}

fn spec(name: impl Into<String>, full: u32, short_prefix: u8, power_aware: bool) -> NodeSpec {
    NodeSpec::new(name, FullPrefix::new(full).expect("prefix"))
        .with_short_prefix(ShortPrefix::new(short_prefix).expect("prefix"))
        .power_aware(power_aware)
}

fn short(prefix: u8, fu: u8) -> Address {
    Address::short(
        ShortPrefix::new(prefix).expect("prefix"),
        FuId::new(fu).expect("fu"),
    )
}

/// Everything observable from one workload execution on one engine.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// The workload's name.
    pub workload: String,
    /// Which engine produced this report.
    pub kind: EngineKind,
    /// Transaction records, in completion order.
    pub records: Vec<EngineRecord>,
    /// Per-node drained receive logs.
    pub rx: Vec<Vec<ReceivedMessage>>,
    /// Final cumulative statistics.
    pub stats: BusStats,
    /// Per-node self-wake event counts.
    pub wake_events: Vec<u64>,
    /// Messages enqueued by reactive behaviors (closed-loop traffic).
    /// A reporting gauge, not part of [`ScenarioReport::signature`] —
    /// the injected traffic's records and deliveries already are.
    pub injected_replies: u64,
    /// Reply-injection rounds run across all drain steps (the
    /// deliveries-to-quiescence latency gauge: how many behavior
    /// generations it took to settle).
    pub reply_rounds: u64,
    strict_nulls: bool,
}

/// The engine-independent essence of a report, borrowed from it: what
/// two engines must agree on. Compare with `assert_eq!`; equality, like
/// the digest, ignores each delivery's engine-stamped time `at` and
/// each record's stored `seq` (a record's number in the signature is
/// its position in `records`).
#[derive(Clone, Debug)]
pub struct ScenarioSignature<'r> {
    /// The record stream (non-null records only when the workload
    /// transmits from power-gated nodes; see
    /// [`Workload::allow_wake_nulls`]), numbered by position.
    pub records: Vec<&'r EngineRecord>,
    /// Per node: every delivery, in order.
    pub deliveries: &'r [Vec<ReceivedMessage>],
    /// Per-node wake events and layer wakes (strict workloads only —
    /// wire-level self-wake nulls also count as wake events).
    pub wakes: Option<(&'r [u64], &'r [u64])>,
}

impl<'r> PartialEq for ScenarioSignature<'r> {
    fn eq(&self, other: &Self) -> bool {
        let record = |r: &&'r EngineRecord| EngineRecord { seq: 0, ..**r };
        let key = |m: &'r ReceivedMessage| (m.from, m.dest, &m.payload);
        self.records
            .iter()
            .map(record)
            .eq(other.records.iter().map(record))
            && self.wakes == other.wakes
            && self.deliveries.len() == other.deliveries.len()
            && (self.deliveries.iter().zip(other.deliveries))
                .all(|(a, b)| a.iter().map(key).eq(b.iter().map(key)))
    }
}

impl Eq for ScenarioSignature<'_> {}

/// The one signature builder, one [`ScenarioSignature`] per bus, for
/// both report kinds: a counting pass sizes each bus's bucket, then a
/// second pass fills it with borrowed `(bus, record)` pairs (ignoring
/// buses outside `rx`, and nulls unless `strict_nulls`). No record,
/// delivery or wake is copied.
pub(crate) fn bus_signatures<'r>(
    records: impl Iterator<Item = (usize, &'r EngineRecord)> + Clone,
    rx: &'r [Vec<Vec<ReceivedMessage>>],
    wake_events: &'r [Vec<u64>],
    stats: &'r [BusStats],
    strict_nulls: bool,
) -> Vec<ScenarioSignature<'r>> {
    let kept = records.filter(|&(bus, r)| bus < rx.len() && (strict_nulls || !r.is_null()));
    let mut counts = vec![0; rx.len()];
    for (bus, _) in kept.clone() {
        counts[bus] += 1;
    }
    let mut buckets: Vec<Vec<&EngineRecord>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (bus, r) in kept {
        buckets[bus].push(r);
    }
    (buckets.into_iter().zip(rx).enumerate())
        .map(|(bus, (records, deliveries))| ScenarioSignature {
            records,
            deliveries,
            wakes: strict_nulls.then(|| (&wake_events[bus][..], &stats[bus].layer_wakes[..])),
        })
        .collect()
}

impl ScenarioReport {
    /// The comparable signature; see [`ScenarioSignature`].
    pub fn signature(&self) -> ScenarioSignature<'_> {
        bus_signatures(
            self.records.iter().map(|r| (0, r)),
            std::slice::from_ref(&self.rx),
            std::slice::from_ref(&self.wake_events),
            std::slice::from_ref(&self.stats),
            self.strict_nulls,
        )
        .swap_remove(0)
    }

    /// Total bus-clock cycles across all records.
    pub fn total_cycles(&self) -> u64 {
        self.records.iter().map(|r| r.cycles).sum()
    }

    /// Total messages delivered to any layer.
    pub fn delivered_messages(&self) -> usize {
        self.rx.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_runnable_workloads() {
        for w in Workload::paper_suite() {
            let report = w.run_on(EngineKind::Analytic);
            assert!(!report.records.is_empty(), "{}", w.name());
            assert_eq!(report.rx.len(), w.node_specs().len());
        }
    }

    #[test]
    fn implied_trailing_run_drains_queues() {
        let w = Workload::new("implied", BusConfig::default())
            .node(spec("a", 0x1, 0x1, false))
            .node(spec("b", 0x2, 0x2, false))
            .send(0, Message::new(short(0x2, 0x0), vec![7]));
        let report = w.run_on(EngineKind::Analytic);
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.delivered_messages(), 1);
    }

    #[test]
    fn signature_is_stable_within_one_engine() {
        let w = Workload::many_node_storm(5, 2);
        let a = w.run_on(EngineKind::Analytic);
        let b = w.run_on(EngineKind::Analytic);
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn non_strict_signature_drops_nulls_and_renumbers() {
        // The same send with and without a leading null: the null is
        // dropped, and the send then counts as record 0 in both
        // signatures, so they compare and digest equal although the
        // stored `seq`s differ.
        let send = |w: Workload| {
            w.send(0, Message::new(short(0x2, 0x0), vec![1]))
                .drain()
                .allow_wake_nulls()
        };
        let nodes = Workload::new("nulls", BusConfig::default())
            .node(spec("a", 0x1, 0x1, false))
            .node(spec("b", 0x2, 0x2, true));
        let with_null = send(nodes.clone().wakeup(1).drain()).run_on(EngineKind::Analytic);
        let without = send(nodes).run_on(EngineKind::Analytic);
        assert!(with_null.records[0].is_null());
        assert_eq!(with_null.records[1].seq, 1);
        assert_eq!(without.records.len(), 1);
        assert_eq!(without.records[0].seq, 0);
        let sig = with_null.signature();
        assert_eq!(sig.records.len(), 1, "null dropped");
        assert!(sig.wakes.is_none());
        assert_eq!(sig, without.signature());
        assert_eq!(
            crate::trace::scenario_digest(&sig),
            crate::trace::scenario_digest(&without.signature()),
            "renumbered"
        );
    }

    #[test]
    fn storm_population_bounds() {
        assert!(std::panic::catch_unwind(|| Workload::many_node_storm(1, 1)).is_err());
        assert!(std::panic::catch_unwind(|| Workload::many_node_storm(15, 1)).is_err());
    }

    #[test]
    fn reply_behavior_closes_the_loop() {
        let w = Workload::new("reply", BusConfig::default())
            .node(spec("a", 0x0_0501, 0x1, false))
            .node(spec("b", 0x0_0502, 0x2, false))
            .behavior(
                1,
                NodeBehavior::Reply {
                    fu: FuId::new(0x4).expect("fu"),
                    payload: vec![0xAA],
                },
            )
            .send(0, Message::new(short(0x2, 0x0), vec![0x51]))
            .drain();
        let report = w.run_on(EngineKind::Analytic);
        assert_eq!(report.injected_replies, 1);
        assert_eq!(report.reply_rounds, 1);
        // The reply came back to the requester's full address.
        assert_eq!(report.rx[0].len(), 1);
        assert_eq!(report.rx[0][0].payload, vec![0xAA]);
        assert_eq!(report.rx[0][0].from, 1);
        // And the trigger still shows in the responder's log.
        assert_eq!(report.rx[1].len(), 1);
    }

    #[test]
    fn reply_behavior_honors_return_addresses() {
        // Node 0 asks node 1, but embeds node 2's address: the reply
        // is redirected there (the request/response idiom).
        let ret = crate::behavior::with_return_address(
            FullPrefix::new(0x0_0513).expect("prefix"),
            FuId::new(0x7).expect("fu"),
            &[0x51],
        );
        let w = Workload::new("reply_redirect", BusConfig::default())
            .node(spec("a", 0x0_0511, 0x1, false))
            .node(spec("b", 0x0_0512, 0x2, false))
            .node(spec("c", 0x0_0513, 0x3, false))
            .behavior(
                1,
                NodeBehavior::Reply {
                    fu: FuId::ZERO,
                    payload: vec![0xBB],
                },
            )
            .send(0, Message::new(short(0x2, 0x0), ret))
            .drain();
        let report = w.run_on(EngineKind::Analytic);
        assert_eq!(report.injected_replies, 1);
        assert!(report.rx[0].is_empty());
        assert_eq!(report.rx[2].len(), 1);
        assert_eq!(report.rx[2][0].payload, vec![0xBB]);
    }

    #[test]
    fn aggregate_ack_counts_across_drains() {
        let w = Workload::new("agg", BusConfig::default())
            .node(spec("a", 0x0_0521, 0x1, false))
            .node(spec("collector", 0x0_0522, 0x2, false))
            .behavior(
                1,
                NodeBehavior::AggregateAck {
                    n: 2,
                    fu: FuId::ZERO,
                    payload: vec![0xCC],
                },
            )
            .send(0, Message::new(short(0x2, 0x0), vec![1]))
            .drain()
            .send(0, Message::new(short(0x2, 0x0), vec![2]))
            .drain();
        let report = w.run_on(EngineKind::Analytic);
        // The counter persisted across the first drain: exactly one
        // ack, fired by the second trigger.
        assert_eq!(report.injected_replies, 1);
        assert_eq!(report.rx[0].len(), 1);
        assert_eq!(report.rx[0][0].payload, vec![0xCC]);
    }

    #[test]
    fn cascade_loops_terminate_at_the_horizon() {
        // Two mutual repliers ping-pong forever; the horizon caps the
        // generations deterministically.
        let w = Workload::new("pingpong", BusConfig::default())
            .node(spec("a", 0x0_0531, 0x1, false))
            .node(spec("b", 0x0_0532, 0x2, false))
            .behavior(
                0,
                NodeBehavior::Reply {
                    fu: FuId::ZERO,
                    payload: vec![0xD0],
                },
            )
            .behavior(
                1,
                NodeBehavior::Reply {
                    fu: FuId::ZERO,
                    payload: vec![0xD1],
                },
            )
            .with_reply_horizon(3)
            .send(0, Message::new(short(0x2, 0x0), vec![1]))
            .drain();
        let report = w.run_on(EngineKind::Analytic);
        assert_eq!(report.reply_rounds, 3, "horizon bounds the loop");
        assert_eq!(report.injected_replies, 3);
    }

    #[test]
    fn behaviors_are_engine_independent() {
        let w = Workload::new("behavior_conformance", BusConfig::default())
            .node(spec("a", 0x0_0541, 0x1, false))
            .node(spec("b", 0x0_0542, 0x2, false))
            .node(spec("c", 0x0_0543, 0x3, false))
            .behavior(
                1,
                NodeBehavior::AlarmCascade {
                    fanout: 2,
                    fu: FuId::new(0x2).expect("fu"),
                    payload: vec![0xEE],
                },
            )
            .behavior(
                2,
                NodeBehavior::Reply {
                    fu: FuId::ZERO,
                    payload: vec![0xEF],
                },
            )
            .send(0, Message::new(short(0x2, 0x0), vec![9]))
            .drain();
        let analytic = w.run_on(EngineKind::Analytic);
        let wire = w.run_on(EngineKind::Wire);
        assert_eq!(analytic.signature(), wire.signature());
        assert!(analytic.injected_replies >= 3, "cascade + reply traffic");
        assert_eq!(analytic.injected_replies, wire.injected_replies);
    }

    #[test]
    fn behavior_on_undeclared_node_panics() {
        assert!(std::panic::catch_unwind(|| {
            Workload::new("bad", BusConfig::default()).behavior(
                0,
                NodeBehavior::Reply {
                    fu: FuId::ZERO,
                    payload: vec![],
                },
            )
        })
        .is_err());
    }
}
