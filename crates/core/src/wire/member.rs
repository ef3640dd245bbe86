//! A member node: wire controller (forwarding), sleep controller
//! (power-gating + wakeup counting), interrupt frontend, and the bus
//! controller state machine of Fig. 3 / Fig. 8.

use std::collections::VecDeque;

use mbus_sim::{Component, Ctx, Logic, PinId, SimTime};

use crate::addr::Address;
use crate::config::MIN_BYTES_BEFORE_INTERJECT;
use crate::control::TxOutcome;
use crate::interject::InterjectionDetector;
use crate::message::{bits_to_bytes, Message};
use crate::node::NodeSpec;

/// A message delivered to a member's layer controller by the wire-level
/// engine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireReceived {
    /// The address it arrived on (decoded from the latched bits).
    pub dest: Address,
    /// Byte-aligned payload (§4.9: non-aligned tails are discarded).
    pub payload: Vec<u8>,
    /// Delivery time (the control-phase ACK edge).
    pub at: SimTime,
}

/// The member state the [`WireBus`](super::WireBus) harness reads and
/// feeds (queues, logs, power state), owned by the [`MemberComp`] and
/// reached through the circuit.
#[derive(Debug)]
pub(crate) struct MemberShared {
    pub spec: NodeSpec,
    pub tx_queue: VecDeque<Message>,
    pub rx_log: Vec<WireReceived>,
    pub outcomes: Vec<TxOutcome>,
    pub wake_requested: bool,
    pub wake_events: u64,
    pub bus_ctl_on: bool,
    pub layer_on: bool,
    pub bus_ctl_wakes: u64,
    pub layer_wakes: u64,
    /// Timestamped transmit completions — the
    /// [`WireEngine`](crate::wire::WireEngine) wrapper attributes each
    /// mediator record to its winner by matching these (and `rx_log`
    /// timestamps) against the record's idle window, draining each
    /// entry once its record is absorbed.
    pub tx_finished: Vec<(SimTime, TxOutcome)>,
    /// Timestamps where this node was an address-matched receiver that
    /// did *not* deliver (its own abort, or a mediator cut) — it still
    /// spent receive energy on the bits that crossed.
    pub rx_engaged: Vec<SimTime>,
}

impl MemberShared {
    fn new(spec: NodeSpec) -> Self {
        let power_aware = spec.is_power_aware();
        MemberShared {
            spec,
            tx_queue: VecDeque::new(),
            rx_log: Vec::new(),
            outcomes: Vec::new(),
            wake_requested: false,
            wake_events: 0,
            bus_ctl_on: !power_aware,
            layer_on: !power_aware,
            bus_ctl_wakes: 0,
            layer_wakes: 0,
            tx_finished: Vec::new(),
            rx_engaged: Vec::new(),
        }
    }
}

const KIND_REQUEST: u64 = 1;

fn token(gen: u64, kind: u64) -> u64 {
    (gen << 2) | kind
}

fn split(token: u64) -> (u64, u64) {
    (token >> 2, token & 0x3)
}

/// The member's transaction role once the bus is active.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Role {
    /// Drove a request low; awaiting the arbitration sample.
    Contending,
    /// Driving high in the priority round.
    PriorityContending,
    /// Won the bus; drives address + payload bits.
    Winner,
    /// Latching address bits to check for a match.
    Listening,
    /// Address matched; latching payload bits.
    Receiving,
    /// Not involved; forwarding only.
    Ignoring,
}

/// What the node must do during the control phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtlRole {
    /// Transmitter: drive bit 0 high (end of message).
    TxEom,
    /// Transmitter whose message was cut short (it observes the error).
    TxAborted,
    /// Receiver abort: drive bit 0 low (general error).
    RxAbort,
    /// Successful receiver: drive bit 1 low (ACK) and deliver.
    RxAck,
    /// Everyone else: forward and observe.
    Passive,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum State {
    /// Forwarding an idle bus.
    Idle,
    /// Driving DATA low (or about to release, for wake-only) while the
    /// mediator self-starts.
    Requesting { wake_only: bool },
    /// The bus is clocking; `half` counts CLK_IN edges observed since
    /// the first falling edge (even = falls, odd = rises).
    Active { half: u32, role: Role },
    /// Post-interjection control phase; `half` counts CLK_IN edges
    /// since the detector asserted.
    Control { half: u32 },
}

/// A member-node component on both rings.
pub(crate) struct MemberComp {
    clk_in: PinId,
    data_in: PinId,
    clk_out: PinId,
    data_out: PinId,
    int_in: PinId,
    period: SimTime,
    pub(crate) shared: MemberShared,

    state: State,
    detector: InterjectionDetector,
    data_forward: bool,
    clk_hold: bool,
    last_clk: Logic,
    last_data: Logic,
    gen: u64,

    /// Wakeup-sequence progress of the gated bus-controller domain.
    bus_ctl_wake_edges: u32,
    /// Bits of the message being transmitted (taken from the queue once
    /// the win is confirmed at the reserved cycle).
    tx_bits: Vec<bool>,
    /// Latched address bits (Listening) — kept for decode.
    addr_bits: Vec<bool>,
    addr_len: Option<usize>,
    /// Latched payload bits (Receiving).
    payload_bits: Vec<bool>,
    rx_allowed_bytes: Option<usize>,
    /// Set when an rx-buffer abort fires; cleared by any later CLK
    /// edge. Discriminates a real mid-message overrun (more CLK edges
    /// follow before the interjection) from the phantom excess bit a
    /// receiver latches off the mediator's park-high rise when the
    /// message ended exactly at its buffer (no CLK edge can follow —
    /// the mediator has already detected the winner's EoM hold).
    abort_awaiting_clk: bool,
    ctl_role: CtlRole,
    ctl_bit0: bool,
    ctl_bit1: bool,
}

impl std::fmt::Debug for MemberComp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberComp")
            .field("state", &self.state)
            .finish()
    }
}

impl MemberComp {
    pub(crate) fn new(
        clk_in: PinId,
        data_in: PinId,
        clk_out: PinId,
        data_out: PinId,
        int_in: PinId,
        period: SimTime,
        spec: NodeSpec,
    ) -> Self {
        MemberComp {
            clk_in,
            data_in,
            clk_out,
            data_out,
            int_in,
            period,
            shared: MemberShared::new(spec),
            state: State::Idle,
            detector: InterjectionDetector::new(),
            data_forward: true,
            clk_hold: false,
            last_clk: Logic::High,
            last_data: Logic::High,
            gen: 0,
            bus_ctl_wake_edges: 0,
            tx_bits: Vec::new(),
            addr_bits: Vec::new(),
            addr_len: None,
            payload_bits: Vec::new(),
            rx_allowed_bytes: None,
            abort_awaiting_clk: false,
            ctl_role: CtlRole::Passive,
            ctl_bit0: false,
            ctl_bit1: false,
        }
    }

    fn set_data_forward(&mut self, ctx: &mut Ctx<'_>, on: bool) {
        if self.data_forward == on {
            return;
        }
        self.data_forward = on;
        if on {
            // Drive/forward hand-off: snap to the current input. The
            // momentary glitch this can cause is the one Fig. 5's
            // caption mentions; it resolves before the next latch edge.
            let v = ctx.pin_value(self.data_in);
            ctx.drive(self.data_out, v);
        }
    }

    fn drive_data(&mut self, ctx: &mut Ctx<'_>, value: Logic) {
        self.data_forward = false;
        ctx.drive(self.data_out, value);
    }

    fn set_clk_hold(&mut self, ctx: &mut Ctx<'_>, on: bool) {
        if self.clk_hold == on {
            return;
        }
        self.clk_hold = on;
        if on {
            ctx.drive(self.clk_out, Logic::High);
        } else {
            let v = ctx.pin_value(self.clk_in);
            ctx.drive(self.clk_out, v);
        }
    }

    /// Begin a bus request: drive DATA low. The mediator wakes on the
    /// falling edge.
    fn try_request(&mut self, ctx: &mut Ctx<'_>) {
        if self.state != State::Idle {
            return;
        }
        let has_tx = !self.shared.tx_queue.is_empty();
        if has_tx && self.shared.bus_ctl_on {
            self.state = State::Requesting { wake_only: false };
            self.drive_data(ctx, Logic::Low);
        } else if has_tx || self.shared.wake_requested {
            // Power-gated with pending work, or an interrupt-port wake:
            // the always-on frontend issues a null transaction (§4.5).
            self.shared.wake_requested = true;
            self.state = State::Requesting { wake_only: true };
            self.drive_data(ctx, Logic::Low);
        }
    }

    fn schedule_request_retry(&mut self, ctx: &mut Ctx<'_>) {
        if !self.shared.tx_queue.is_empty() || self.shared.wake_requested {
            self.gen += 1;
            ctx.set_timer_after(token(self.gen, KIND_REQUEST), self.period * 2);
        }
    }

    /// The sleep controller: every CLK edge advances the gated
    /// bus-controller domain's 4-edge wakeup (§4.4).
    fn sleep_controller_edge(&mut self) {
        let s = &mut self.shared;
        if !s.bus_ctl_on {
            self.bus_ctl_wake_edges += 1;
            if self.bus_ctl_wake_edges >= 4 {
                s.bus_ctl_on = true;
                s.bus_ctl_wakes += 1;
                self.bus_ctl_wake_edges = 0;
            }
        }
    }

    fn wake_layer(&mut self) {
        let s = &mut self.shared;
        if !s.layer_on {
            s.layer_on = true;
            s.layer_wakes += 1;
        }
    }

    fn on_clk_edge(&mut self, value: Logic, ctx: &mut Ctx<'_>) {
        let maybe_edge = self.last_clk.edge_to(value);
        self.last_clk = value;
        let Some(edge) = maybe_edge else { return };
        // A CLK edge after an rx abort proves the message really was
        // still running — the abort was a genuine overrun.
        self.abort_awaiting_clk = false;
        self.detector.on_clk_edge(edge);
        self.sleep_controller_edge();
        // Forward CLK downstream *before* any DATA drive this edge may
        // trigger. Scheduling order is pop order for same-time events
        // (the scheduler breaks ties by insertion seq, on the heap and
        // on the wavefront lane alike), so the CLK wavefront always
        // stays ahead of the data it clocks as it walks the ring.
        if !self.clk_hold {
            ctx.drive(self.clk_out, value);
        }
        let falling = value.is_low();

        match self.state.clone() {
            State::Idle => {
                if falling {
                    // A transaction is starting (someone else requested).
                    self.begin_active(Role::Listening);
                    self.handle_active_edge(0, ctx);
                }
            }
            State::Requesting { wake_only } => {
                if falling {
                    if wake_only {
                        // Null transaction: resume forwarding before the
                        // arbitration sample (Fig. 6). The node still
                        // *listens* — §4.4's power-oblivious guarantee:
                        // the arbitration edges wake its bus controller
                        // before the addressing phase, so a transaction
                        // addressed to it (e.g. a broadcast riding the
                        // same edges that complete its self-wake) is
                        // latched exactly like by any gated bystander.
                        self.set_data_forward(ctx, true);
                        self.begin_active(Role::Listening);
                    } else {
                        self.begin_active(Role::Contending);
                    }
                    self.handle_active_edge(0, ctx);
                }
            }
            State::Active { half, role: _ } => {
                let next = half + 1;
                if let State::Active { half, .. } = &mut self.state {
                    *half = next;
                }
                self.handle_active_edge(next, ctx);
            }
            State::Control { half } => {
                let next = half + 1;
                if let State::Control { half } = &mut self.state {
                    *half = next;
                }
                self.handle_control_edge(next, ctx);
            }
        }
    }

    fn begin_active(&mut self, role: Role) {
        self.state = State::Active { half: 0, role };
        self.addr_bits.clear();
        self.addr_len = None;
        self.payload_bits.clear();
        self.tx_bits.clear();
        self.rx_allowed_bytes = None;
        self.ctl_role = CtlRole::Passive;
    }

    fn role(&self) -> Role {
        match &self.state {
            State::Active { role, .. } => role.clone(),
            _ => Role::Ignoring,
        }
    }

    fn set_role(&mut self, role: Role) {
        if let State::Active { role: r, .. } = &mut self.state {
            *r = role;
        }
    }

    fn handle_active_edge(&mut self, half: u32, ctx: &mut Ctx<'_>) {
        let falling = half.is_multiple_of(2);
        match half {
            0 => {} // cycle 0 falling: requesters keep holding low
            1 => {
                // Arbitration sample (Fig. 5): a requester wins iff its
                // DATA_IN is high — nothing upstream outranked it.
                if self.role() == Role::Contending {
                    if ctx.pin_value(self.data_in).is_high() {
                        self.set_role(Role::Winner);
                    } else {
                        self.set_data_forward(ctx, true);
                        self.set_role(Role::Listening);
                    }
                }
            }
            2 => {
                // Priority drive: nodes with a pending priority message
                // (and an awake bus controller) pull DATA high (§4.3).
                let s = &self.shared;
                let wants_priority =
                    s.bus_ctl_on && s.tx_queue.front().is_some_and(Message::is_priority);
                if wants_priority && self.role() != Role::Winner {
                    self.set_role(Role::PriorityContending);
                    self.drive_data(ctx, Logic::High);
                }
            }
            3 => {
                // Priority latch.
                match self.role() {
                    Role::PriorityContending => {
                        if ctx.pin_value(self.data_in).is_low() {
                            // The arbitration winner's low reached us
                            // unbroken: we claim the bus.
                            self.set_role(Role::Winner);
                        } else {
                            self.set_data_forward(ctx, true);
                            self.set_role(Role::Listening);
                        }
                    }
                    Role::Winner if ctx.pin_value(self.data_in).is_high() => {
                        // Priority requested: back off; the message
                        // stays queued for the next transaction.
                        self.set_data_forward(ctx, true);
                        self.set_role(Role::Listening);
                    }
                    _ => {}
                }
            }
            4 => {
                // Reserved cycle: the confirmed winner parks DATA high
                // and commits its message.
                if self.role() == Role::Winner {
                    let msg = self.shared.tx_queue.pop_front();
                    self.tx_bits = msg.expect("winner has a queued message").to_bits();
                    self.drive_data(ctx, Logic::High);
                }
            }
            5 => {}
            _ => {
                // Address/data region: bit i is driven on the falling
                // edge of half 6+2i and latched on the rising edge
                // 7+2i.
                if falling {
                    if self.role() == Role::Winner {
                        let i = ((half - 6) / 2) as usize;
                        if i < self.tx_bits.len() {
                            self.drive_data(ctx, Logic::from_bool(self.tx_bits[i]));
                        }
                    }
                } else {
                    self.handle_latch_edge(half, ctx);
                }
            }
        }
    }

    fn handle_latch_edge(&mut self, half: u32, ctx: &mut Ctx<'_>) {
        let i = ((half - 7) / 2) as usize;
        match self.role() {
            Role::Winner if i + 1 == self.tx_bits.len() => {
                // Last bit latched ring-wide: request interjection by
                // releasing DATA and holding CLK high (§4.9).
                self.set_data_forward(ctx, true);
                self.set_clk_hold(ctx, true);
                self.ctl_role = CtlRole::TxEom;
            }
            Role::Listening => {
                let bit = ctx.pin_value(self.data_in).is_high();
                self.addr_bits.push(bit);
                self.evaluate_address(ctx);
            }
            Role::Receiving => {
                let bit = ctx.pin_value(self.data_in).is_high();
                self.payload_bits.push(bit);
                if let Some(allowed) = self.rx_allowed_bytes {
                    // Buffer overrun: the first bit of the byte past the
                    // buffer has landed — abort (§4.8).
                    if self.payload_bits.len() > 8 * allowed {
                        self.set_clk_hold(ctx, true);
                        self.ctl_role = CtlRole::RxAbort;
                        self.abort_awaiting_clk = true;
                        self.set_role(Role::Ignoring);
                    }
                }
            }
            _ => {}
        }
    }

    fn evaluate_address(&mut self, _ctx: &mut Ctx<'_>) {
        if self.addr_len.is_none() && self.addr_bits.len() == 8 {
            let nibble = self.addr_bits[..4]
                .iter()
                .fold(0u8, |acc, &b| (acc << 1) | b as u8);
            self.addr_len = Some(if nibble == 0xF { 32 } else { 8 });
        }
        let Some(len) = self.addr_len else { return };
        if self.addr_bits.len() < len {
            return;
        }
        // Full address collected: match against our identity.
        let (bytes, _) = bits_to_bytes(&self.addr_bits);
        let decoded = Address::decode(&bytes);
        let spec = &self.shared.spec;
        let matched = match decoded {
            Ok(Address::Short { prefix, .. }) => spec.short_prefix() == Some(prefix),
            Ok(Address::Full { prefix, .. }) => spec.full_prefix() == prefix,
            Ok(Address::Broadcast { channel }) => spec.listens_to(channel.raw()),
            Err(_) => false,
        };
        if matched {
            self.rx_allowed_bytes = spec.rx_buffer_bytes().map(|cap| {
                // The bus controller honors the 4-byte progress floor
                // (§7) even for tiny buffers.
                cap.max(MIN_BYTES_BEFORE_INTERJECT)
            });
            self.set_role(Role::Receiving);
        } else {
            self.set_role(Role::Ignoring);
        }
    }

    fn enter_control(&mut self, ctx: &mut Ctx<'_>) {
        // An interjection resets the bus controller into control mode
        // regardless of what it was doing (§4.9).
        if matches!(self.state, State::Control { .. }) {
            return;
        }
        if self.ctl_role == CtlRole::RxAbort && self.abort_awaiting_clk {
            // Phantom overrun: not one CLK edge followed the "excess"
            // bit, so it was the mediator's park-high rise after the
            // winner's EoM hold, not payload — the message ended
            // exactly at our buffer. Ack and deliver (byte alignment
            // drops the dangling bit); if some *other* receiver really
            // aborted this message, control bit 0 reads low and the
            // RxAck path withholds delivery as usual.
            self.ctl_role = CtlRole::RxAck;
        }
        if let State::Active { role, .. } = &self.state {
            match (role, self.ctl_role) {
                (Role::Winner, CtlRole::Passive) => {
                    // We were still transmitting: someone cut us off.
                    self.ctl_role = CtlRole::TxAborted;
                }
                (Role::Receiving, CtlRole::Passive) => {
                    // Message ended normally while we were receiving.
                    self.ctl_role = CtlRole::RxAck;
                }
                _ => {}
            }
        }
        self.set_clk_hold(ctx, false);
        self.set_data_forward(ctx, true);
        self.state = State::Control { half: 0 };
        self.ctl_bit0 = false;
        self.ctl_bit1 = false;
        // `half` counts edges *after* assert; the first control falling
        // edge will arrive as half 1... we pre-set to 0 and bump on each
        // edge, so falls are odd here. Normalize by treating the next
        // edge (a fall) as half 1.
    }

    fn handle_control_edge(&mut self, half: u32, ctx: &mut Ctx<'_>) {
        // Control timing (mediator-driven falling edges F0, F1, F2):
        // F0 = interjector drives bit 0; F1 = everyone negedge-latches
        // bit 0 and the receiver drives bit 1 (ACK); F2 = everyone
        // negedge-latches bit 1 and the mediator reclaims DATA.
        // Negative-edge latching gives wrapped control bits a full
        // period of margin — the same trick §4.8 applies to the
        // transmit FIFO — so the control phase works at the Fig. 9
        // propagation ceiling.
        match half {
            1 => {
                // F0 — control bit 0: the interjector explains itself.
                match self.ctl_role {
                    CtlRole::TxEom => self.drive_data(ctx, Logic::High),
                    CtlRole::RxAbort => self.drive_data(ctx, Logic::Low),
                    _ => {}
                }
            }
            3 => {
                // F1 — latch bit 0; the receiver answers with bit 1.
                self.ctl_bit0 = ctx.pin_value(self.data_in).is_high();
                match self.ctl_role {
                    CtlRole::TxEom | CtlRole::RxAbort => self.set_data_forward(ctx, true),
                    CtlRole::RxAck if self.ctl_bit0 => {
                        self.drive_data(ctx, Logic::Low); // ACK
                    }
                    _ => {}
                }
            }
            5 => {
                // F2 — latch bit 1 and wrap up.
                self.ctl_bit1 = ctx.pin_value(self.data_in).is_high();
                self.conclude_roles(ctx);
                if self.ctl_role == CtlRole::RxAck {
                    self.set_data_forward(ctx, true);
                }
            }
            6 => {
                self.finish_transaction(ctx);
            }
            _ => {}
        }
    }

    fn conclude_roles(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        match self.ctl_role {
            CtlRole::TxEom => {
                let outcome = if self.ctl_bit0 && !self.ctl_bit1 {
                    TxOutcome::Acked
                } else if self.ctl_bit0 {
                    TxOutcome::Nacked
                } else {
                    TxOutcome::ReceiverAbort
                };
                self.shared.outcomes.push(outcome);
                self.shared.tx_finished.push((now, outcome));
            }
            CtlRole::TxAborted => {
                self.shared.outcomes.push(TxOutcome::ReceiverAbort);
                self.shared
                    .tx_finished
                    .push((now, TxOutcome::ReceiverAbort));
            }
            CtlRole::RxAck => {
                if self.ctl_bit0 {
                    // End of message confirmed: deliver byte-aligned
                    // payload to the layer, waking it if gated (§4.4).
                    self.wake_layer();
                    let (bytes, _dropped) = bits_to_bytes(&self.payload_bits);
                    let (addr_bytes, _) = bits_to_bytes(&self.addr_bits);
                    if let Ok(dest) = Address::decode(&addr_bytes) {
                        self.shared.rx_log.push(WireReceived {
                            dest,
                            payload: bytes,
                            at: now,
                        });
                    }
                } else {
                    // We were receiving, but the control phase reports
                    // an error (e.g. the mediator cut a runaway).
                    self.shared.rx_engaged.push(now);
                }
            }
            CtlRole::RxAbort => self.shared.rx_engaged.push(now),
            CtlRole::Passive => {}
        }
    }

    fn finish_transaction(&mut self, ctx: &mut Ctx<'_>) {
        self.state = State::Idle;
        let s = &mut self.shared;
        if s.wake_requested {
            // The transaction's edges completed our self-wake (§4.5).
            s.wake_requested = false;
            if !s.layer_on {
                s.layer_on = true;
                s.layer_wakes += 1;
            }
            if !s.bus_ctl_on {
                s.bus_ctl_on = true;
                s.bus_ctl_wakes += 1;
            }
            s.wake_events += 1;
        }
        // Power-aware nodes with no pending work re-gate (standby).
        if s.spec.is_power_aware() && s.tx_queue.is_empty() {
            s.bus_ctl_on = false;
            s.layer_on = false;
        }
        self.bus_ctl_wake_edges = 0;
        self.schedule_request_retry(ctx);
    }

    fn on_data_edge(&mut self, value: Logic, ctx: &mut Ctx<'_>) {
        let Some(edge) = self.last_data.edge_to(value) else {
            self.last_data = value;
            return;
        };
        self.last_data = value;
        if self.data_forward {
            ctx.drive(self.data_out, value);
        }
        if self.detector.on_data_edge(edge) {
            self.enter_control(ctx);
        }
    }
}

impl Component for MemberComp {
    fn on_signal(&mut self, pin: PinId, value: Logic, ctx: &mut Ctx<'_>) {
        if pin == self.clk_in {
            self.on_clk_edge(value, ctx);
        } else if pin == self.data_in {
            self.on_data_edge(value, ctx);
        } else if pin == self.int_in {
            // The interrupt port (§4.5) / the layer asking to transmit.
            self.try_request(ctx);
        }
    }

    fn on_timer(&mut self, tok: u64, ctx: &mut Ctx<'_>) {
        let (gen, kind) = split(tok);
        if gen != self.gen {
            return;
        }
        if kind == KIND_REQUEST {
            self.try_request(ctx);
        }
    }
}
