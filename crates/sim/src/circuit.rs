//! The circuit: nets, pins, components, and the simulation loop.

use std::any::Any;
use std::fmt;

use crate::event::{EventKind, Scheduler};
use crate::logic::Logic;
use crate::time::SimTime;
use crate::trace::{History, Recorder, Trace};

/// Identifies a net (a wire segment) within a [`Circuit`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The arena index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a component within a [`Circuit`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ComponentId(pub(crate) u32);

/// Identifies a pin (an input subscription or output driver) within a
/// [`Circuit`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct PinId(pub(crate) u32);

/// Token returned when arming a timer, echoing the component's own value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerToken(pub u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PinDir {
    Input,
    Output,
}

#[derive(Debug)]
struct Pin {
    component: ComponentId,
    net: NetId,
    dir: PinDir,
    /// Propagation delay from a net transition to delivery (inputs only).
    delay: SimTime,
    /// Last delivered (input) or driven (output) level.
    value: Logic,
}

#[derive(Debug)]
struct NetState {
    name: String,
    value: Logic,
    /// Input pins subscribed to this net.
    listeners: Vec<PinId>,
    /// The single output pin allowed to drive this net, if registered.
    driver: Option<PinId>,
}

/// A behavioral hardware model attached to a [`Circuit`].
///
/// Components react to input-pin transitions ([`Component::on_signal`])
/// and to timers they armed ([`Component::on_timer`]); in both callbacks
/// they may drive output pins and arm further timers through [`Ctx`].
/// Components never call each other directly — all interaction flows
/// through nets and the event queue, which is what keeps the kernel
/// deterministic.
///
/// A component owns its state outright: the circuit holds the only
/// handle, and harnesses read a model back through
/// [`Circuit::component`]. That single ownership is what makes a whole
/// circuit `Send`, so it can migrate between threads.
pub trait Component: Any + Send {
    /// Called when a subscribed net's transition reaches `pin` after its
    /// propagation delay.
    fn on_signal(&mut self, pin: PinId, value: Logic, ctx: &mut Ctx<'_>);

    /// Called when a timer armed with `token` fires. Default: ignore.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let _ = (token, ctx);
    }
}

/// The capabilities a component callback has: observe time and pins,
/// drive outputs, and arm timers.
pub struct Ctx<'a> {
    now: SimTime,
    component: ComponentId,
    nets: &'a mut Vec<NetState>,
    pins: &'a mut Vec<Pin>,
    scheduler: &'a mut Scheduler,
    recorder: &'a mut Recorder,
}

impl fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx").field("now", &self.now).finish()
    }
}

impl Ctx<'_> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Drives `pin` to `value` now, in place (see
    /// [`drive_after`](Ctx::drive_after)).
    #[inline]
    pub fn drive(&mut self, pin: PinId, value: Logic) {
        self.drive_after(pin, value, SimTime::ZERO);
    }

    /// Drives `pin` to `value` after `delay`.
    ///
    /// A zero-delay drive is applied *in place* — net updated,
    /// transition recorded, deliveries scheduled — before this call
    /// returns, instead of round-tripping a `Drive` event through the
    /// queue. Its deliveries therefore draw their `seq` before anything
    /// the callback schedules afterwards: a zero-delay listener hears
    /// the edge before a zero-delay timer armed later in the same
    /// callback, where a queued `Drive` would have let that timer fire
    /// first. So the two are not always interchangeable; on the MBus
    /// ring, where every segment has a hop delay (§6.1), the queued
    /// drives of the old heap-only kernel produced the same edges at
    /// the same instants, and the wire engine's pinned `History`
    /// digests hold the kernel to that.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `pin` is not an output pin of the
    /// calling component.
    #[inline]
    pub fn drive_after(&mut self, pin: PinId, value: Logic, delay: SimTime) {
        debug_assert_eq!(self.pins[pin.0 as usize].dir, PinDir::Output);
        debug_assert_eq!(self.pins[pin.0 as usize].component, self.component);
        if delay == SimTime::ZERO {
            apply_drive(
                self.nets,
                self.pins,
                self.scheduler,
                self.recorder,
                self.now,
                pin,
                value,
            );
        } else {
            self.scheduler
                .schedule(self.now + delay, EventKind::Drive { pin, value });
        }
    }

    /// Arms a timer that calls `on_timer(token)` after `delay`.
    #[inline]
    pub fn set_timer_after(&mut self, token: u64, delay: SimTime) -> TimerToken {
        self.scheduler.schedule(
            self.now + delay,
            EventKind::Timer {
                component: self.component,
                token,
            },
        );
        TimerToken(token)
    }

    /// Last level delivered to an input pin, or last level driven on an
    /// output pin, of the calling component.
    #[inline]
    pub fn pin_value(&self, pin: PinId) -> Logic {
        self.pins[pin.0 as usize].value
    }
}

/// Applies a drive: pin value, net value, edge count (plus a history
/// entry when recorded), and one scheduled delivery per listener, each
/// through the fuse slot or the lane. Shared by `Circuit::step` popping
/// a `Drive` and `Ctx::drive_after` applying a zero-delay drive in
/// place.
fn apply_drive(
    nets: &mut [NetState],
    pins: &mut [Pin],
    scheduler: &mut Scheduler,
    recorder: &mut Recorder,
    now: SimTime,
    pin: PinId,
    value: Logic,
) {
    pins[pin.0 as usize].value = value;
    let net = pins[pin.0 as usize].net;
    let net_state = &mut nets[net.0 as usize];
    if net_state.value == value {
        // Members whose outputs did not actually change schedule
        // nothing: the wavefront dies here instead of re-queueing the
        // rest of the ring.
        return;
    }
    net_state.value = value;
    recorder.record(net, now, value);
    for &lpin in &nets[net.0 as usize].listeners {
        let delay = pins[lpin.0 as usize].delay;
        scheduler.schedule_deliver(now + delay, lpin, value);
    }
}

/// A complete circuit: nets, components, event queue, virtual clock,
/// per-net edge counts, and (on opt-in) the transition history.
///
/// See the [crate-level documentation](crate) for a worked example.
pub struct Circuit {
    nets: Vec<NetState>,
    pins: Vec<Pin>,
    components: Vec<Option<Box<dyn Component>>>,
    scheduler: Scheduler,
    now: SimTime,
    recorder: Recorder,
    events_processed: u64,
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Circuit")
            .field("nets", &self.nets.len())
            .field("components", &self.components.len())
            .field("now", &self.now)
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

impl Circuit {
    /// Creates an empty circuit at time zero.
    pub fn new() -> Self {
        Circuit {
            nets: Vec::new(),
            pins: Vec::new(),
            components: Vec::new(),
            scheduler: Scheduler::new(),
            now: SimTime::ZERO,
            recorder: Recorder::default(),
            events_processed: 0,
        }
    }

    /// Adds a net initialized to `High` — the MBus idle level for both
    /// CLK and DATA rings (§4.3).
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        self.net_with(name, Logic::High)
    }

    /// Adds a net with an explicit initial level.
    pub fn net_with(&mut self, name: impl Into<String>, initial: Logic) -> NetId {
        let id = NetId(self.nets.len() as u32);
        let name = name.into();
        self.recorder.register_net(id, name.clone(), initial);
        self.nets.push(NetState {
            name,
            value: initial,
            listeners: Vec::new(),
            driver: None,
        });
        id
    }

    /// Registers a component slot; bind behavior later with
    /// [`Circuit::bind`] once its pins are known. The name labels the
    /// call site only; the circuit does not keep it.
    pub fn add_component(&mut self, _name: impl Into<String>) -> ComponentId {
        let id = ComponentId(self.components.len() as u32);
        self.components.push(None);
        id
    }

    /// Binds the behavioral model for a component slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already bound.
    pub fn bind(&mut self, component: ComponentId, model: impl Component) {
        self.bind_boxed(component, Box::new(model));
    }

    /// Binds an already-boxed model (for callers assembling components
    /// dynamically).
    ///
    /// # Panics
    ///
    /// Panics if the slot is already bound.
    pub fn bind_boxed(&mut self, component: ComponentId, model: Box<dyn Component>) {
        let slot = &mut self.components[component.0 as usize];
        assert!(slot.is_none(), "component already bound");
        *slot = Some(model);
    }

    /// Subscribes `component` to `net` with zero propagation delay.
    pub fn input(&mut self, component: ComponentId, net: NetId) -> PinId {
        self.input_delayed(component, net, SimTime::ZERO)
    }

    /// Subscribes `component` to `net`; transitions arrive after `delay`.
    ///
    /// The delay models the wire + pad + input-buffer path between chips;
    /// the MBus specification budgets 10 ns per node-to-node hop (§6.1).
    pub fn input_delayed(&mut self, component: ComponentId, net: NetId, delay: SimTime) -> PinId {
        let id = PinId(self.pins.len() as u32);
        let initial = self.nets[net.0 as usize].value;
        self.pins.push(Pin {
            component,
            net,
            dir: PinDir::Input,
            delay,
            value: initial,
        });
        self.nets[net.0 as usize].listeners.push(id);
        id
    }

    /// Registers `component` as the single driver of `net`.
    ///
    /// # Panics
    ///
    /// Panics if the net already has a driver — MBus segments are
    /// point-to-point and the kernel enforces it.
    pub fn output(&mut self, component: ComponentId, net: NetId) -> PinId {
        let id = PinId(self.pins.len() as u32);
        let initial = self.nets[net.0 as usize].value;
        self.pins.push(Pin {
            component,
            net,
            dir: PinDir::Output,
            delay: SimTime::ZERO,
            value: initial,
        });
        let net_state = &mut self.nets[net.0 as usize];
        assert!(
            net_state.driver.is_none(),
            "net {:?} already has a driver; MBus segments are point-to-point",
            net_state.name
        );
        net_state.driver = Some(id);
        id
    }

    /// Schedules a drive of `pin` at absolute time `at` (setup helper).
    pub fn drive_at(&mut self, pin: PinId, value: Logic, at: SimTime) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.scheduler.schedule(at, EventKind::Drive { pin, value });
    }

    /// Forces `net` to `value` at time `at` without an output pin — a
    /// testbench stimulus, bypassing the single-driver check.
    pub fn drive_external(&mut self, net: NetId, value: Logic, at: SimTime) {
        assert!(at >= self.now, "cannot schedule in the past");
        // Synthesize a transient drive by scheduling directly against the
        // net: we reuse the Drive event with a reserved external pin per
        // net, created lazily.
        let pin = self.external_pin(net);
        self.scheduler.schedule(at, EventKind::Drive { pin, value });
    }

    fn external_pin(&mut self, net: NetId) -> PinId {
        // One hidden external-driver pin per net, created on first use.
        // It does not occupy the net's driver slot so that testbenches
        // can override component-driven nets.
        let found = self.pins.iter().position(|p| {
            p.net == net && p.dir == PinDir::Output && p.component == ComponentId(u32::MAX)
        });
        match found {
            Some(idx) => PinId(idx as u32),
            None => {
                let id = PinId(self.pins.len() as u32);
                let initial = self.nets[net.0 as usize].value;
                self.pins.push(Pin {
                    component: ComponentId(u32::MAX),
                    net,
                    dir: PinDir::Output,
                    delay: SimTime::ZERO,
                    value: initial,
                });
                id
            }
        }
    }

    /// Current level of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.nets[net.0 as usize].value
    }

    /// Name given to a net at creation.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.nets[net.0 as usize].name
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The per-net edge counts recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.recorder.trace
    }

    /// Keeps the timestamped transition history of every net from now
    /// on, for waveforms, VCD export and edge-timing queries. Without
    /// it a run stores only edge counts.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has already processed an event: a history
    /// that starts mid-run would silently miss the early edges.
    pub fn record_history(&mut self) {
        assert_eq!(
            self.events_processed, 0,
            "record history before the first event"
        );
        if self.recorder.history.is_none() {
            self.recorder.history = Some(History::mirroring(&self.recorder.trace));
        }
    }

    /// The transition history, if [`Circuit::record_history`] was
    /// called; `None` otherwise.
    pub fn history(&self) -> Option<&History> {
        self.recorder.history.as_ref()
    }

    /// Total events processed (for throughput benches).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// How many of the processed events were fused deliveries — run in
    /// place by the wavefront walk instead of round-tripping the queue.
    pub fn fused_events(&self) -> u64 {
        self.scheduler.fused_total()
    }

    /// Runs until the queue is empty or the next event is after
    /// `deadline`; leaves `now == deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        // Fused deliveries may run ahead of the popped event, but never
        // past the deadline the caller asked for.
        self.scheduler.set_fuse_horizon(deadline);
        while let Some(t) = self.scheduler.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if deadline > self.now {
            self.now = deadline;
        }
    }

    /// Runs for `duration` past the current time.
    pub fn run_for(&mut self, duration: SimTime) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// Runs until the event queue drains completely.
    ///
    /// # Panics
    ///
    /// Panics after `max_events` to catch runaway oscillation (a real
    /// hazard when modelling combinational rings).
    pub fn run_to_idle(&mut self, max_events: u64) {
        assert!(
            self.run_to_idle_capped(max_events),
            "circuit did not settle within {max_events} events; \
             combinational loop or free-running clock?"
        );
    }

    /// Runs until the event queue drains, giving up after `max_events`.
    ///
    /// Returns `true` if the circuit settled and `false` if the budget
    /// ran out with events still pending — the circuit is then stopped
    /// mid-flight at an arbitrary point, and the caller must treat it
    /// as wedged rather than quiescent (the wire engine freezes itself
    /// and withholds the interrupted run's records).
    #[must_use]
    pub fn run_to_idle_capped(&mut self, max_events: u64) -> bool {
        self.scheduler.set_fuse_horizon(SimTime::MAX);
        let start = self.events_processed;
        // `step` pops for itself, so the loop only has to know whether
        // anything is pending — no separate peek of the merged front.
        // Fused deliveries count toward the budget in lump per step, so
        // the cap can overshoot by at most one walk (`MAX_FUSE_WALK`).
        while self.step() {
            if self.events_processed - start >= max_events && !self.scheduler.is_empty() {
                return false;
            }
        }
        true
    }

    /// Upper bound on fused deliveries executed inside one [`step`]
    /// call, so `run_to_idle_capped` can overshoot its event budget by
    /// at most one walk before re-checking.
    const MAX_FUSE_WALK: u32 = 64;

    /// Processes exactly one queue event, if any is pending.
    ///
    /// A step then *walks* the fuse slot:
    /// each delivery whose event is provably the globally next one is
    /// executed in place — and its callback typically stashes the next
    /// hop's delivery right back into the slot, so a CLK edge crossing
    /// an N-segment ring costs one queue pop plus N slot hops instead
    /// of N queue round trips. Every fused delivery counts toward
    /// `events_processed` and advances the clock exactly as its queued
    /// twin would have; the walk runs strictly *after* the previous
    /// callback returned, so anything that callback scheduled is
    /// already visible to the next-event comparison.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.scheduler.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "event queue went backwards");
        self.now = event.time;
        self.events_processed += 1;
        match event.kind {
            EventKind::Drive { pin, value } => self.apply_drive(pin, value),
            EventKind::Deliver { pin, value } => {
                let p = &mut self.pins[pin.0 as usize];
                p.value = value;
                let component = p.component;
                self.dispatch_signal(component, pin, value);
            }
            EventKind::Timer { component, token } => {
                self.dispatch_timer(component, token);
            }
        }
        let mut walked = 0;
        while walked < Self::MAX_FUSE_WALK {
            let Some(fused) = self.scheduler.take_fused_next() else {
                break;
            };
            debug_assert!(fused.time >= self.now, "fused walk went backwards");
            self.now = fused.time;
            self.events_processed += 1;
            let EventKind::Deliver { pin, value } = fused.kind else {
                unreachable!("only deliveries ride the fuse slot");
            };
            let p = &mut self.pins[pin.0 as usize];
            p.value = value;
            let component = p.component;
            self.dispatch_signal(component, pin, value);
            walked += 1;
        }
        true
    }

    fn apply_drive(&mut self, pin: PinId, value: Logic) {
        apply_drive(
            &mut self.nets,
            &mut self.pins,
            &mut self.scheduler,
            &mut self.recorder,
            self.now,
            pin,
            value,
        );
    }

    fn dispatch_signal(&mut self, component: ComponentId, pin: PinId, value: Logic) {
        if component.0 == u32::MAX {
            return; // external testbench pin
        }
        // Split borrow: the model lives in `components`, which `Ctx`
        // never touches, so no take/put-back round trip is needed —
        // delivery is always via the queue or the post-callback fused
        // walk, never reentrant.
        let model = self.components[component.0 as usize]
            .as_mut()
            .expect("component not bound");
        let mut ctx = Ctx {
            now: self.now,
            component,
            nets: &mut self.nets,
            pins: &mut self.pins,
            scheduler: &mut self.scheduler,
            recorder: &mut self.recorder,
        };
        model.on_signal(pin, value, &mut ctx);
    }

    fn dispatch_timer(&mut self, component: ComponentId, token: u64) {
        let model = self.components[component.0 as usize]
            .as_mut()
            .expect("component not bound");
        let mut ctx = Ctx {
            now: self.now,
            component,
            nets: &mut self.nets,
            pins: &mut self.pins,
            scheduler: &mut self.scheduler,
            recorder: &mut self.recorder,
        };
        model.on_timer(token, &mut ctx);
    }

    /// The model bound to `id`, if it is a `T`; `None` for an unbound
    /// slot or a model of another type.
    pub fn component<T: Component>(&self, id: ComponentId) -> Option<&T> {
        let model: &dyn Any = self.components[id.0 as usize].as_deref()?;
        model.downcast_ref()
    }

    /// Mutable access to the model bound to `id`, if it is a `T` (see
    /// [`Circuit::component`]).
    pub fn component_mut<T: Component>(&mut self, id: ComponentId) -> Option<&mut T> {
        let model: &mut dyn Any = self.components[id.0 as usize].as_deref_mut()?;
        model.downcast_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        input: PinId,
        seen: Vec<(SimTime, Logic)>,
    }

    // Records what it saw; tests read it back through
    // `Circuit::component`.
    impl Component for Probe {
        fn on_signal(&mut self, pin: PinId, value: Logic, ctx: &mut Ctx<'_>) {
            assert_eq!(pin, self.input);
            self.seen.push((ctx.now(), value));
        }
    }

    struct Repeater {
        output: PinId,
        delay: SimTime,
    }

    impl Component for Repeater {
        fn on_signal(&mut self, _pin: PinId, value: Logic, ctx: &mut Ctx<'_>) {
            ctx.drive_after(self.output, value, self.delay);
        }
    }

    #[test]
    fn nets_default_high() {
        let mut c = Circuit::new();
        let n = c.net("idle");
        assert_eq!(c.value(n), Logic::High);
        assert_eq!(c.net_name(n), "idle");
    }

    #[test]
    fn propagation_delay_is_applied() {
        let mut c = Circuit::new();
        c.record_history();
        let a = c.net("a");
        let b = c.net("b");
        let comp = c.add_component("rep");
        let _input = c.input_delayed(comp, a, SimTime::from_ns(10));
        let output = c.output(comp, b);
        c.bind(
            comp,
            Repeater {
                output,
                delay: SimTime::from_ns(2),
            },
        );
        c.drive_external(a, Logic::Low, SimTime::from_ns(100));
        c.run_until(SimTime::from_ns(200));
        // Transition on a at 100, delivered at 110, driven out at 112.
        let b_trace = c.history().unwrap().transitions(b);
        assert_eq!(b_trace.len(), 1);
        assert_eq!(b_trace[0].time, SimTime::from_ns(112));
        assert_eq!(b_trace[0].value, Logic::Low);
    }

    #[test]
    fn redundant_drives_do_not_create_transitions() {
        let mut c = Circuit::new();
        let a = c.net("a");
        c.drive_external(a, Logic::High, SimTime::from_ns(1));
        c.drive_external(a, Logic::High, SimTime::from_ns(2));
        c.run_until(SimTime::from_ns(10));
        assert_eq!(c.trace().edge_count(a), 0);
    }

    #[test]
    fn shoot_through_chain_accumulates_delay() {
        // Three repeaters in a chain, 10 ns input delay each: the Fig. 9
        // topology in miniature.
        let mut c = Circuit::new();
        c.record_history();
        let hop = SimTime::from_ns(10);
        let n0 = c.net("n0");
        let n1 = c.net("n1");
        let n2 = c.net("n2");
        let n3 = c.net("n3");
        let nets = [n0, n1, n2, n3];
        for i in 0..3 {
            let comp = c.add_component(format!("rep{i}"));
            let _input = c.input_delayed(comp, nets[i], hop);
            let output = c.output(comp, nets[i + 1]);
            c.bind(
                comp,
                Repeater {
                    output,
                    delay: SimTime::ZERO,
                },
            );
        }
        c.drive_external(n0, Logic::Low, SimTime::ZERO);
        c.run_until(SimTime::from_ns(100));
        let n3_history = c.history().unwrap().transitions(n3);
        assert_eq!(n3_history[0].time, SimTime::from_ns(30));
    }

    #[test]
    fn glitches_propagate_with_transport_delay() {
        let mut c = Circuit::new();
        c.record_history();
        let a = c.net("a");
        let b = c.net("b");
        let comp = c.add_component("rep");
        let _input = c.input_delayed(comp, a, SimTime::from_ns(5));
        let output = c.output(comp, b);
        c.bind(
            comp,
            Repeater {
                output,
                delay: SimTime::ZERO,
            },
        );
        // 1 ns glitch low.
        c.drive_external(a, Logic::Low, SimTime::from_ns(10));
        c.drive_external(a, Logic::High, SimTime::from_ns(11));
        c.run_until(SimTime::from_ns(50));
        let transitions = c.history().unwrap().transitions(b);
        assert_eq!(transitions.len(), 2, "transport delay keeps glitches");
        assert_eq!(transitions[0].time, SimTime::from_ns(15));
        assert_eq!(transitions[1].time, SimTime::from_ns(16));
    }

    #[test]
    #[should_panic(expected = "point-to-point")]
    fn double_driver_rejected() {
        let mut c = Circuit::new();
        let n = c.net("n");
        let c1 = c.add_component("a");
        let c2 = c.add_component("b");
        c.output(c1, n);
        c.output(c2, n);
    }

    #[test]
    fn run_to_idle_panics_on_oscillator() {
        struct Osc {
            output: PinId,
            state: bool,
        }
        impl Component for Osc {
            fn on_signal(&mut self, _: PinId, _: Logic, _: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
                self.state = !self.state;
                ctx.drive(self.output, Logic::from_bool(self.state));
                ctx.set_timer_after(0, SimTime::from_ns(1));
            }
        }
        let mut c = Circuit::new();
        let n = c.net("osc");
        let comp = c.add_component("osc");
        let output = c.output(comp, n);
        c.bind(
            comp,
            Osc {
                output,
                state: false,
            },
        );
        // Kick it off through a scheduled drive and timer.
        c.drive_at(output, Logic::Low, SimTime::ZERO);
        c.scheduler.schedule(
            SimTime::from_ns(1),
            EventKind::Timer {
                component: comp,
                token: 0,
            },
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.run_to_idle(1_000);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn run_to_idle_capped_reports_exhaustion_without_panicking() {
        struct Osc {
            output: PinId,
            state: bool,
        }
        impl Component for Osc {
            fn on_signal(&mut self, _: PinId, _: Logic, _: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
                self.state = !self.state;
                ctx.drive(self.output, Logic::from_bool(self.state));
                ctx.set_timer_after(0, SimTime::from_ns(1));
            }
        }
        let mut c = Circuit::new();
        let n = c.net("osc");
        let comp = c.add_component("osc");
        let output = c.output(comp, n);
        c.bind(
            comp,
            Osc {
                output,
                state: false,
            },
        );
        c.scheduler.schedule(
            SimTime::from_ns(1),
            EventKind::Timer {
                component: comp,
                token: 0,
            },
        );
        assert!(
            !c.run_to_idle_capped(1_000),
            "a free-running clock must exhaust the budget"
        );
        let after_cap = c.events_processed();
        assert!(after_cap <= 1_000, "the cap bounds the work done");
        // The circuit is stopped, not corrupted: a further capped run
        // picks up where it left off.
        assert!(!c.run_to_idle_capped(10));
        assert_eq!(c.events_processed(), after_cap + 10);
    }

    /// Listens on its own output with zero delay and logs, in order,
    /// the delivery of its drive and a zero-delay timer armed after it.
    struct SameInstant {
        kick: PinId,
        output: PinId,
        log: Vec<&'static str>,
    }

    impl Component for SameInstant {
        fn on_signal(&mut self, pin: PinId, _: Logic, ctx: &mut Ctx<'_>) {
            if pin == self.kick {
                ctx.drive(self.output, Logic::Low);
                ctx.set_timer_after(0, SimTime::ZERO);
            } else {
                self.log.push("delivery");
            }
        }

        fn on_timer(&mut self, _: u64, _: &mut Ctx<'_>) {
            self.log.push("timer");
        }
    }

    /// The in-place drive's deliveries take their `seq` at the drive,
    /// so a zero-delay listener hears the edge before a zero-delay
    /// timer armed later in the same callback. A queued `Drive` would
    /// have scheduled the delivery only when it popped, after the
    /// timer.
    #[test]
    fn zero_delay_drive_delivers_before_a_later_same_instant_timer() {
        let mut c = Circuit::new();
        let kick = c.net("kick");
        let out = c.net("out");
        let comp = c.add_component("same_instant");
        let kick_in = c.input(comp, kick);
        let _out_in = c.input(comp, out);
        let output = c.output(comp, out);
        c.bind(
            comp,
            SameInstant {
                kick: kick_in,
                output,
                log: Vec::new(),
            },
        );
        c.drive_external(kick, Logic::Low, SimTime::from_ns(5));
        c.run_to_idle(100);
        let model = c.component::<SameInstant>(comp).unwrap();
        assert_eq!(model.log, ["delivery", "timer"]);
        assert_eq!(c.now(), SimTime::from_ns(5));
    }

    #[test]
    fn component_downcasts_to_the_bound_type_only() {
        let mut c = Circuit::new();
        let a = c.net("a");
        let probe = c.add_component("probe");
        let input = c.input(probe, a);
        c.bind(
            probe,
            Probe {
                input,
                seen: Vec::new(),
            },
        );
        let unbound = c.add_component("unbound");
        c.drive_external(a, Logic::Low, SimTime::from_ns(3));
        c.run_to_idle(100);
        let seen = &c.component::<Probe>(probe).expect("bound probe").seen;
        assert_eq!(seen, &[(SimTime::from_ns(3), Logic::Low)]);
        c.component_mut::<Probe>(probe).unwrap().seen.clear();
        assert!(c.component::<Probe>(probe).unwrap().seen.is_empty());
        assert!(c.component::<Repeater>(probe).is_none(), "wrong type");
        assert!(c.component_mut::<Repeater>(probe).is_none(), "wrong type");
        assert!(c.component::<Probe>(unbound).is_none(), "unbound slot");
        assert!(c.component_mut::<Probe>(unbound).is_none(), "unbound slot");
    }

    #[test]
    fn probe_sees_time_ordered_values() {
        let mut c = Circuit::new();
        let a = c.net("a");
        let comp = c.add_component("probe");
        let input = c.input(comp, a);
        c.bind(
            comp,
            Probe {
                input,
                seen: Vec::new(),
            },
        );
        c.drive_external(a, Logic::Low, SimTime::from_ns(3));
        c.drive_external(a, Logic::High, SimTime::from_ns(7));
        c.run_until(SimTime::from_ns(10));
        assert_eq!(c.now(), SimTime::from_ns(10));
        assert_eq!(c.trace().edge_count(a), 2);
    }

    #[test]
    fn history_is_opt_in_and_covers_every_net() {
        let mut c = Circuit::new();
        let early = c.net("early");
        c.drive_external(early, Logic::Low, SimTime::from_ns(1));
        assert!(c.history().is_none(), "counts only by default");
        c.record_history();
        let late = c.net("late");
        c.drive_external(late, Logic::Low, SimTime::from_ns(2));
        c.run_until(SimTime::from_ns(5));
        let history = c.history().expect("opted in");
        for net in [early, late] {
            assert_eq!(history.transitions(net).len(), 1);
            assert_eq!(c.trace().edge_count(net), 1);
            assert_eq!(history.net_name(net), c.net_name(net));
        }
    }

    #[test]
    #[should_panic(expected = "before the first event")]
    fn record_history_after_the_first_event_panics() {
        let mut c = Circuit::new();
        let a = c.net("a");
        c.drive_external(a, Logic::Low, SimTime::from_ns(1));
        c.run_until(SimTime::from_ns(5));
        c.record_history();
    }
}
