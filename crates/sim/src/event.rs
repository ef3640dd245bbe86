//! The event queue at the heart of the kernel.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::circuit::{ComponentId, PinId};
use crate::logic::Logic;
use crate::time::SimTime;

/// What a scheduled event does when it fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// An output pin drives its net to `value`.
    Drive {
        /// The driving output pin.
        pin: PinId,
        /// The level to drive.
        value: Logic,
    },
    /// A net transition arrives at an input pin after its propagation
    /// delay; the owning component's `on_signal` runs.
    Deliver {
        /// The receiving input pin.
        pin: PinId,
        /// The delivered level.
        value: Logic,
    },
    /// A component timer fires; the component's `on_timer` runs.
    Timer {
        /// The component that set the timer.
        component: ComponentId,
        /// The token the component chose when setting the timer.
        token: u64,
    },
}

/// A scheduled event: a time, a tie-breaking sequence number, and a kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic insertion index; equal-time events fire in insertion
    /// order, making every simulation bit-for-bit reproducible.
    pub seq: u64,
    /// What happens.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue.
///
/// Ties in time are broken by insertion order (`seq`), never by heap
/// internals, so replaying the same stimulus always produces the same
/// trace — a property the cross-checking tests between the wire-level
/// and analytical MBus engines rely on.
///
/// # The wavefront lane
///
/// `Drive` and `Deliver` events bypass the binary heap and ride a small
/// `(time, seq)`-sorted deque instead — the **wavefront lane**. A CLK
/// edge propagating around an MBus ring is a short chain of
/// drive→deliver events a few nanoseconds apart; keeping that in-flight
/// wavefront in a deque makes scheduling an O(1) append at the tail
/// (or an O(walk) insert near the head for same-instant drives) and
/// popping an O(1) front read, where the heap pays a sift per event.
/// Timers (clock ticks, retries — always at least a quarter-period
/// away) stay on the heap.
///
/// Every event draws its `seq` from the single shared counter, the lane
/// is kept sorted by `(time, seq)`, and [`pop`](Scheduler::pop) merges
/// fuse slot, lane and heap by that same key, so the pop stream is the
/// one a single `(time, seq)` heap would produce. The unit tests pin
/// that against a plain `BinaryHeap`, and the wire-engine suite pins
/// the resulting edge timing as golden `History` digests.
///
/// # Example
///
/// ```
/// use mbus_sim::{EventKind, Scheduler, SimTime};
///
/// let mut q = Scheduler::new();
/// q.schedule(SimTime::from_ns(5), EventKind::Timer { component: Default::default(), token: 1 });
/// q.schedule(SimTime::from_ns(5), EventKind::Timer { component: Default::default(), token: 2 });
/// let first = q.pop().unwrap();
/// let second = q.pop().unwrap();
/// assert!(first.seq < second.seq);
/// ```
#[derive(Debug, Default)]
pub struct Scheduler {
    heap: BinaryHeap<Event>,
    /// The wavefront lane: pending propagation events, sorted by
    /// `(time, seq)`.
    lane: VecDeque<Event>,
    next_seq: u64,
    scheduled_total: u64,
    /// A one-event buffer holding the most recently scheduled delivery
    /// while it is free. The slot is a *queue position* like any
    /// other — its event carries a real `seq`, and [`pop`],
    /// [`peek_time`](Scheduler::peek_time), `len`, and `is_empty` all
    /// merge it — but the circuit's step loop can consume it without a
    /// queue round trip when it is provably the globally next event
    /// (see [`take_fused_next`](Scheduler::take_fused_next)). A ring
    /// wavefront is exactly this shape: each hop's delivery is the
    /// next event, and each delivery stashes the next hop's.
    fuse_slot: Option<Event>,
    /// Latest time up to which the circuit's run loop allows fused
    /// consumption. Zero until a run loop opens it, so a bare `step()`
    /// stream never runs ahead of what the caller asked for. Purely a
    /// fast-path gate: the slot still pops in order regardless.
    fuse_horizon: SimTime,
    /// Deliveries consumed through the fused fast path (observability:
    /// how much of the event stream bypassed the queue).
    fused_total: u64,
}

impl Scheduler {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Schedules `kind` to fire at absolute time `time`.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let event = Event { time, seq, kind };
        if matches!(kind, EventKind::Timer { .. }) {
            self.heap.push(event);
        } else {
            self.lane_insert(event);
        }
    }

    /// Inserts into the lane keeping it sorted by `(time, seq)`. Seqs
    /// are monotonic, so a new event sorts after every entry whose time
    /// is `<=` its own; the scan runs from the back because deliveries
    /// extend the wavefront (tail append) and same-instant drives land
    /// just behind the entries already due now (short walk).
    ///
    /// The walk is *bounded*: an event that would have to displace more
    /// than a handful of later entries — a testbench stimulus scheduled
    /// far behind a queue of future ones, say — is parked on the heap
    /// instead. [`pop`](Scheduler::pop) merges both sides by
    /// `(time, seq)`, so where an event waits never changes the pop
    /// order; the bound only keeps the lane O(1) per schedule instead
    /// of degrading to an O(pending) shifting insert.
    #[inline]
    fn lane_insert(&mut self, event: Event) {
        const MAX_WALK: usize = 16;
        let mut idx = self.lane.len();
        let floor = self.lane.len().saturating_sub(MAX_WALK);
        while idx > floor && self.lane[idx - 1].time > event.time {
            idx -= 1;
        }
        if idx > 0 && self.lane[idx - 1].time > event.time {
            // Still out of order at the walk bound: the lane is the
            // wrong home for this event.
            self.heap.push(event);
        } else if idx == self.lane.len() {
            self.lane.push_back(event);
        } else {
            self.lane.insert(idx, event);
        }
    }

    /// The `(time, seq)` key of the earliest lane-or-heap event (the
    /// fuse slot excluded), if any.
    #[inline]
    fn queue_front_key(&self) -> Option<(SimTime, u64)> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => Some((l.time, l.seq).min((h.time, h.seq))),
            (Some(l), None) => Some((l.time, l.seq)),
            (None, h) => h.map(|e| (e.time, e.seq)),
        }
    }

    /// Removes and returns the earliest event, if any: slot, lane and
    /// heap merged by `(time, seq)` — the exact order a single heap
    /// would produce.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        if let Some(s) = &self.fuse_slot {
            match self.queue_front_key() {
                Some(q) if q < (s.time, s.seq) => {}
                _ => return self.fuse_slot.take(),
            }
        }
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => {
                if (h.time, h.seq) < (l.time, l.seq) {
                    self.heap.pop()
                } else {
                    self.lane.pop_front()
                }
            }
            (Some(_), None) => self.lane.pop_front(),
            (None, _) => self.heap.pop(),
        }
    }

    /// The time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let q = self.queue_front_key().map(|(t, _)| t);
        match (&self.fuse_slot, q) {
            (Some(s), Some(t)) => Some(s.time.min(t)),
            (Some(s), None) => Some(s.time),
            (None, t) => t,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len() + usize::from(self.fuse_slot.is_some())
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty() && self.fuse_slot.is_none()
    }

    /// Total number of events ever scheduled (for throughput benches).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Opens the fused-consumption window up to `deadline`: the
    /// circuit's run loops call this so the step loop's fused walk
    /// never runs past the time bound the caller asked for. The slot
    /// remains an ordinary queue position either way.
    pub(crate) fn set_fuse_horizon(&mut self, deadline: SimTime) {
        self.fuse_horizon = deadline;
    }

    /// Schedules a delivery, preferring the fuse slot when it is free.
    /// The event draws its `seq` from the same counter as every other,
    /// so wherever it waits — slot, lane, or heap — it fires in exactly
    /// the same global order.
    #[inline]
    pub(crate) fn schedule_deliver(&mut self, time: SimTime, pin: PinId, value: Logic) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let event = Event {
            time,
            seq,
            kind: EventKind::Deliver { pin, value },
        };
        if self.fuse_slot.is_none() {
            self.fuse_slot = Some(event);
        } else {
            self.lane_insert(event);
        }
    }

    /// Takes the slot event if it is provably the globally next event
    /// and within the run loop's horizon: strictly earlier than the
    /// lane and heap fronts, or tied on time — the slot's `seq` is
    /// newer than anything queued before it was stashed, so a time tie
    /// still needs the full `(time, seq)` comparison. Returns `None`
    /// (leaving the slot to pop in order later) otherwise.
    #[inline]
    pub(crate) fn take_fused_next(&mut self) -> Option<Event> {
        let s = self.fuse_slot.as_ref()?;
        if s.time > self.fuse_horizon {
            return None;
        }
        match self.queue_front_key() {
            Some(q) if q < (s.time, s.seq) => None,
            _ => {
                self.fused_total += 1;
                self.fuse_slot.take()
            }
        }
    }

    /// Total deliveries that ran through the fused fast path.
    pub fn fused_total(&self) -> u64 {
        self.fused_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(token: u64) -> EventKind {
        EventKind::Timer {
            component: ComponentId::default(),
            token,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = Scheduler::new();
        q.schedule(SimTime::from_ns(30), timer(3));
        q.schedule(SimTime::from_ns(10), timer(1));
        q.schedule(SimTime::from_ns(20), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = Scheduler::new();
        for token in 0..100 {
            q.schedule(SimTime::from_ns(7), timer(token));
        }
        for expect in 0..100 {
            match q.pop().unwrap().kind {
                EventKind::Timer { token, .. } => assert_eq!(token, expect),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn peek_time_tracks_minimum() {
        let mut q = Scheduler::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ns(9), timer(0));
        q.schedule(SimTime::from_ns(4), timer(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(4)));
    }

    #[test]
    fn len_and_counters() {
        let mut q = Scheduler::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, timer(0));
        q.schedule(SimTime::ZERO, timer(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    fn drive(pin: u32) -> EventKind {
        EventKind::Drive {
            pin: PinId(pin),
            value: Logic::High,
        }
    }

    fn deliver(pin: u32) -> EventKind {
        EventKind::Deliver {
            pin: PinId(pin),
            value: Logic::Low,
        }
    }

    /// A deterministic xorshift so the equivalence test covers odd
    /// interleavings without external crates.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn lane_pops_identically_to_a_binary_heap() {
        // The reference is a plain `BinaryHeap<Event>` fed the same
        // stream with the same seq numbering: slot, lane and heap
        // together must pop exactly what it pops, including the seqs,
        // and a fused take may hand out only that same next event, no
        // later than the horizon.
        //
        // A 10 ns span makes same-instant ties common; 50 ns spreads
        // the queue past the lane's walk bound. Times come from high
        // bits so they do not track the kind (`r % 5`).
        for (seed, span) in (1..15u64).zip([10, 50].into_iter().cycle()) {
            let mut rng = seed;
            let mut q = Scheduler::new();
            let mut reference = BinaryHeap::new();
            let mut next_seq = 0u64;
            for step in 0..400 {
                let r = xorshift(&mut rng);
                let schedule = reference.is_empty() || !r.is_multiple_of(3);
                if schedule {
                    let time = SimTime::from_ns((r >> 20) % span);
                    let kind = match r % 5 {
                        0 => timer(step),
                        1 | 2 => drive(step as u32),
                        _ => deliver(step as u32),
                    };
                    // Interleave pops with schedules: times may go
                    // backwards here relative to popped events, which
                    // the lane insert must still order correctly.
                    match kind {
                        EventKind::Deliver { pin, value } => q.schedule_deliver(time, pin, value),
                        _ => q.schedule(time, kind),
                    }
                    reference.push(Event {
                        time,
                        seq: next_seq,
                        kind,
                    });
                    next_seq += 1;
                } else if r.is_multiple_of(2) {
                    let horizon = SimTime::from_ns((r >> 16) % 60);
                    q.set_fuse_horizon(horizon);
                    if let Some(fused) = q.take_fused_next() {
                        assert!(fused.time <= horizon, "seed {seed} step {step}");
                        assert_eq!(Some(fused), reference.pop(), "seed {seed} step {step}");
                    }
                } else {
                    assert_eq!(q.pop(), reference.pop(), "seed {seed} step {step}");
                }
                assert_eq!(q.peek_time(), reference.peek().map(|e| e.time));
                assert_eq!(q.len(), reference.len());
            }
            loop {
                let (got, want) = (q.pop(), reference.pop());
                assert_eq!(got, want, "seed {seed} drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
