//! The mediator frontend (§4.2–4.3): clock generation, arbitration
//! mediation, interjection generation, and the runaway-message counter.
//!
//! The mediator is deliberately *not* a member node: in the authors'
//! systems it is a block inside the processor chip whose member bus
//! controller sits immediately downstream in the ring. The
//! [`WireBus`](super::WireBus) harness wires it the same way, which is
//! what gives the mediator-attached node top arbitration priority (§7).

use mbus_sim::{Component, Ctx, Logic, PinId, SimTime};

use crate::control::ControlBits;
use crate::wire::{phase, WireTransaction};

// Every mediator timer fires at least a quarter period (625 ns at the
// default clock) after it is set — two orders of magnitude beyond the
// ~10 ns hop delays of in-flight propagation. The scheduler keeps
// timers on its binary heap and Drive/Deliver events on the wavefront
// lane and merges the two by `(time, seq)`, so the gap does not decide
// any order; it keeps the lane cheap: the edges a timer starts find
// the previous wavefront gone and append at the lane's tail.
const KIND_START: u64 = 1;
const KIND_TICK: u64 = 2;
const KIND_TOGGLE: u64 = 3;
const KIND_RESUME: u64 = 4;
const KIND_IDLE: u64 = 5;
const KIND_IDLE_CHECK: u64 = 6;

fn token(gen: u64, kind: u64) -> u64 {
    (gen << 4) | kind
}

fn split(token: u64) -> (u64, u64) {
    (token >> 4, token & 0xF)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// CLK and DATA driven high; waiting for a request edge.
    Idle,
    /// Request seen; self-start timer running.
    Starting,
    /// Toggling CLK through arbitration / address / data cycles.
    Clocking,
    /// CLK held high; toggling DATA.
    Interjecting,
    /// Clocking the three control cycles.
    Control,
}

/// The mediator frontend component.
pub(crate) struct MediatorComp {
    clk_in: PinId,
    data_in: PinId,
    clk_out: PinId,
    data_out: PinId,
    period: SimTime,
    wakeup: SimTime,
    max_message_bytes: usize,
    /// Transactions completed since the harness last drained them
    /// through the circuit.
    pub(crate) records: Vec<WireTransaction>,

    gen: u64,
    state: State,
    data_forwarding: bool,
    /// Next CLK edge to drive is falling.
    next_is_fall: bool,
    /// CLK_IN fell since the last driven falling edge.
    got_fall: bool,
    /// Index of the cycle whose falling edge was driven last.
    cycle: u32,
    control_subcycle: u32,
    toggles_left: u64,
    /// This transaction had no arbitration winner.
    no_winner: bool,
    runaway: bool,
    mediator_interjects: bool,
    /// Negative-edge-latched DATA bits for the address/data region.
    addr_bits: Vec<bool>,
    addr_len: Option<u32>,
    data_bits: u64,
    ctl_bit0: Option<bool>,
    ctl_bit1: Option<bool>,
    request_at: SimTime,
    clock_start: SimTime,
}

impl std::fmt::Debug for MediatorComp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MediatorComp")
            .field("state", &self.state)
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl MediatorComp {
    pub(crate) fn new(
        clk_in: PinId,
        data_in: PinId,
        clk_out: PinId,
        data_out: PinId,
        period: SimTime,
        wakeup_cycles: u32,
        max_message_bytes: usize,
    ) -> Self {
        MediatorComp {
            clk_in,
            data_in,
            clk_out,
            data_out,
            period,
            wakeup: period * wakeup_cycles as u64,
            max_message_bytes,
            records: Vec::new(),
            gen: 0,
            state: State::Idle,
            data_forwarding: false,
            next_is_fall: true,
            got_fall: true,
            cycle: 0,
            control_subcycle: 0,
            toggles_left: 0,
            no_winner: false,
            runaway: false,
            mediator_interjects: false,
            addr_bits: Vec::new(),
            addr_len: None,
            data_bits: 0,
            ctl_bit0: None,
            ctl_bit1: None,
            request_at: SimTime::ZERO,
            clock_start: SimTime::ZERO,
        }
    }

    fn half(&self) -> SimTime {
        self.period / 2
    }

    fn bump_gen(&mut self) {
        self.gen += 1;
    }

    fn begin_transaction(&mut self, ctx: &mut Ctx<'_>) {
        self.state = State::Starting;
        self.request_at = ctx.now();
        self.no_winner = false;
        self.runaway = false;
        self.mediator_interjects = false;
        self.addr_bits.clear();
        self.addr_len = None;
        self.data_bits = 0;
        self.ctl_bit0 = None;
        self.ctl_bit1 = None;
        self.bump_gen();
        ctx.set_timer_after(token(self.gen, KIND_START), self.wakeup);
    }

    /// Negative-edge latch: when driving the falling edge of `cycle`,
    /// the bit driven during `cycle − 1` has had a full period to wrap
    /// around the ring (the same negedge trick §4.8 uses for the TX
    /// FIFO).
    fn negedge_latch(&mut self, ctx: &Ctx<'_>) {
        if self.no_winner || self.cycle < phase::ADDRESS_START_CYCLE + 1 {
            return;
        }
        let value = ctx.pin_value(self.data_in).is_high();
        match self.addr_len {
            None => {
                self.addr_bits.push(value);
                if self.addr_bits.len() == 8 {
                    let nibble = self.addr_bits[..4]
                        .iter()
                        .fold(0u8, |acc, &b| (acc << 1) | b as u8);
                    self.addr_len = Some(if nibble == 0xF { 32 } else { 8 });
                }
            }
            Some(len) if self.addr_bits.len() < len as usize => self.addr_bits.push(value),
            Some(_) => self.data_bits += 1,
        }
    }

    /// Strictly *more* than the limit: the counter can only observe an
    /// overrun after one excess bit has crossed the wire.
    fn runaway_tripped(&self) -> bool {
        self.data_bits > 8 * self.max_message_bytes as u64
    }

    /// Begins the interjection sequence (§4.9): CLK is held at its
    /// current (high) level while DATA toggles; then the control phase
    /// resumes.
    ///
    /// Toggle edges are spaced a quarter period apart so that even when
    /// a still-driving transmitter splits the DATA ring, the nodes past
    /// the break see at least the detector threshold of edges once the
    /// transmitter's own detector asserts and it resumes forwarding.
    ///
    /// `mediator_origin` entries (null transaction, runaway) start at
    /// the suppressed-slot itself and therefore pad one extra period so
    /// the end-to-end budget stays at 5 interjection + 3 control cycles.
    fn start_interjection(&mut self, ctx: &mut Ctx<'_>, mediator_origin: bool) {
        self.state = State::Interjecting;
        self.mediator_interjects = mediator_origin;
        self.toggles_left = phase::INTERJECTION_TOGGLES;
        self.data_forwarding = false;
        self.bump_gen();
        let (toggle_delay, resume_delay) = if mediator_origin { (2, 5) } else { (1, 4) };
        ctx.set_timer_after(token(self.gen, KIND_TOGGLE), self.period * toggle_delay);
        ctx.set_timer_after(token(self.gen, KIND_RESUME), self.period * resume_delay);
    }

    fn finish_idle(&mut self, ctx: &mut Ctx<'_>) {
        self.state = State::Idle;
        self.data_forwarding = false;
        ctx.drive(self.data_out, Logic::High);
        ctx.drive(self.clk_out, Logic::High);
        let idle_at = ctx.now();
        // Rounded division: half-period timers truncate to integer
        // picoseconds, so at MHz-scale clocks the accumulated span can
        // sit a few ps under an exact multiple of the period.
        let period_ps = self.period.as_ps();
        let cycles = ((idle_at - self.clock_start).as_ps() + period_ps / 2) / period_ps;
        let control = match (self.ctl_bit0, self.ctl_bit1) {
            (Some(bit0), Some(bit1)) => Some(ControlBits { bit0, bit1 }),
            _ => None,
        };
        self.records.push(WireTransaction {
            request_at: self.request_at,
            clock_start: self.clock_start,
            idle_at,
            cycles,
            control,
            null_transaction: self.no_winner,
            runaway: self.runaway,
        });
        self.bump_gen();
        // A requester may have pulled DATA low during the control tail,
        // in which case no fresh falling edge will arrive. But the line
        // can also *read* low right now simply because our own
        // park-high wave has not wrapped the ring yet — so re-check one
        // full period from now (the wrap bound), when a low can only
        // mean a genuine request.
        ctx.set_timer_after(token(self.gen, KIND_IDLE_CHECK), self.period);
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        match self.state {
            State::Clocking => self.clocking_tick(ctx),
            State::Control => self.control_tick(ctx),
            _ => {}
        }
    }

    fn clocking_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.next_is_fall {
            // Detect a suppressed edge: our previous falling edge never
            // made it around the ring — someone is requesting an
            // interjection (§4.9).
            if !self.got_fall {
                self.start_interjection(ctx, false);
                return;
            }
            let next_cycle = self.cycle + 1;
            // Null transaction: no winner means nothing will drive the
            // address phase; the mediator raises a general error
            // (Fig. 6) starting where addressing would have begun.
            if self.no_winner && next_cycle == phase::ADDRESS_START_CYCLE {
                self.cycle = next_cycle;
                self.start_interjection(ctx, true);
                return;
            }
            self.cycle = next_cycle;
            self.negedge_latch(ctx);
            // Runaway enforcement (§7): hold the clock and interject.
            if self.runaway_tripped() {
                self.runaway = true;
                self.start_interjection(ctx, true);
                return;
            }
            self.got_fall = false;
            ctx.drive(self.clk_out, Logic::Low);
            if self.cycle == phase::PRIORITY_CYCLE {
                // "Begin Forwarding": from the priority round onward the
                // mediator forwards DATA so the winner's value wraps.
                self.set_forwarding(ctx, true);
            }
            self.next_is_fall = false;
        } else {
            ctx.drive(self.clk_out, Logic::High);
            if self.cycle == phase::ARBITRATION_CYCLE {
                // Arbitration sample: DATA_IN low means some requester
                // is holding the ring down — a winner exists.
                self.no_winner = ctx.pin_value(self.data_in).is_high();
            }
            self.next_is_fall = true;
        }
        ctx.set_timer_after(token(self.gen, KIND_TICK), self.half());
    }

    fn control_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.next_is_fall {
            // Negative-edge latch of the control bits: bit 0 is latched
            // when driving the fall of subcycle 1, bit 1 at subcycle 2.
            match self.control_subcycle {
                1 => self.ctl_bit0 = Some(ctx.pin_value(self.data_in).is_high()),
                2 => self.ctl_bit1 = Some(ctx.pin_value(self.data_in).is_high()),
                _ => {}
            }
            match self.control_subcycle {
                0 => {
                    if self.mediator_interjects {
                        // General error: the mediator drives bit 0 low.
                        self.set_forwarding(ctx, false);
                        ctx.drive(self.data_out, Logic::Low);
                    } else {
                        self.set_forwarding(ctx, true);
                    }
                }
                1 => {
                    if self.mediator_interjects {
                        self.set_forwarding(ctx, true);
                    }
                }
                2 => {
                    // Members negedge-latch bit 1 on this edge; the
                    // mediator reclaims DATA half a period later (on
                    // the rising edge below) so the park cannot race
                    // their latch.
                }
                _ => unreachable!("control has 3 subcycles"),
            }
            ctx.drive(self.clk_out, Logic::Low);
            self.next_is_fall = false;
            ctx.set_timer_after(token(self.gen, KIND_TICK), self.half());
        } else {
            if self.control_subcycle == 2 {
                // Return-to-idle: park DATA high.
                self.set_forwarding(ctx, false);
                ctx.drive(self.data_out, Logic::High);
            }
            ctx.drive(self.clk_out, Logic::High);
            self.next_is_fall = true;
            self.control_subcycle += 1;
            if self.control_subcycle >= phase::CONTROL_CYCLES {
                self.bump_gen();
                ctx.set_timer_after(token(self.gen, KIND_IDLE), self.half());
            } else {
                ctx.set_timer_after(token(self.gen, KIND_TICK), self.half());
            }
        }
    }

    fn set_forwarding(&mut self, ctx: &mut Ctx<'_>, on: bool) {
        if self.data_forwarding == on {
            return;
        }
        self.data_forwarding = on;
        if on {
            // Snap the output to the current input — the drive/forward
            // hand-off the paper notes can glitch momentarily.
            let v = ctx.pin_value(self.data_in);
            ctx.drive(self.data_out, v);
        }
    }
}

impl Component for MediatorComp {
    fn on_signal(&mut self, pin: PinId, value: Logic, ctx: &mut Ctx<'_>) {
        if pin == self.data_in {
            if self.data_forwarding {
                ctx.drive(self.data_out, value);
            }
            if self.state == State::Idle && value.is_low() {
                self.begin_transaction(ctx);
            }
        } else if pin == self.clk_in && value.is_low() {
            self.got_fall = true;
        }
    }

    fn on_timer(&mut self, tok: u64, ctx: &mut Ctx<'_>) {
        let (gen, kind) = split(tok);
        if gen != self.gen {
            return; // stale timer from a superseded state
        }
        match kind {
            KIND_START => {
                // Self-start complete: drive the first falling edge.
                self.state = State::Clocking;
                self.clock_start = ctx.now();
                self.cycle = phase::ARBITRATION_CYCLE;
                self.got_fall = false;
                self.next_is_fall = false;
                // During arbitration the mediator does not forward DATA;
                // it drives high into the ring (the "break").
                self.data_forwarding = false;
                ctx.drive(self.data_out, Logic::High);
                ctx.drive(self.clk_out, Logic::Low);
                ctx.set_timer_after(token(self.gen, KIND_TICK), self.half());
            }
            KIND_TICK => self.on_tick(ctx),
            KIND_TOGGLE => {
                if self.state != State::Interjecting || self.toggles_left == 0 {
                    return;
                }
                let current = ctx.pin_value(self.data_out);
                ctx.drive(self.data_out, !current);
                self.toggles_left -= 1;
                if self.toggles_left > 0 {
                    ctx.set_timer_after(token(self.gen, KIND_TOGGLE), self.period / 4);
                }
            }
            KIND_RESUME => {
                if self.state != State::Interjecting {
                    return;
                }
                self.state = State::Control;
                self.control_subcycle = 0;
                self.next_is_fall = true;
                self.control_tick(ctx);
            }
            KIND_IDLE => self.finish_idle(ctx),
            KIND_IDLE_CHECK => {
                if self.state == State::Idle && ctx.pin_value(self.data_in).is_low() {
                    self.begin_transaction(ctx);
                }
            }
            _ => unreachable!("unknown mediator timer kind"),
        }
    }
}
