//! Switching-activity capture: per-net edge counts on every run, and
//! the full transition history only when a caller opts in.

use crate::circuit::NetId;
use crate::logic::{Edge, Logic};
use crate::time::SimTime;

/// One recorded net transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transition {
    /// When the net changed.
    pub time: SimTime,
    /// The level it changed to.
    pub value: Logic,
}

#[derive(Debug, Clone)]
struct NetCount {
    name: String,
    initial: Logic,
    edges: u64,
}

/// Per-net switching activity of a simulation run: one edge count per
/// net, kept on every run at the cost of one increment per transition.
///
/// The counts are the bridge between the wire-level simulator and the
/// energy model: ½CV² accounting in `mbus-power` charges every driven
/// transition against the capacitance of its segment, the same
/// abstraction post-APR power tools use at chip interfaces. *When*
/// each edge happened is not kept here; a run that needs timestamps
/// (waveforms, VCD export) opts in with [`Circuit::record_history`]
/// and reads them from [`Circuit::history`].
///
/// [`Circuit::record_history`]: crate::Circuit::record_history
/// [`Circuit::history`]: crate::Circuit::history
///
/// # Example
///
/// ```
/// use mbus_sim::{Circuit, Logic, SimTime};
///
/// let mut c = Circuit::new();
/// let n = c.net("clk");
/// c.drive_external(n, Logic::Low, SimTime::from_ns(5));
/// c.drive_external(n, Logic::High, SimTime::from_ns(10));
/// c.run_until(SimTime::from_ns(20));
/// assert_eq!(c.trace().edge_count(n), 2);
/// assert_eq!(c.trace().total_edges(), 2);
/// assert!(c.history().is_none(), "no timestamps unless asked for");
/// ```
///
/// Timing queries are [`History`] methods, so asking the counts for
/// them does not compile:
///
/// ```compile_fail
/// use mbus_sim::{Circuit, SimTime};
///
/// let mut c = Circuit::new();
/// let n = c.net("clk");
/// let _ = c.trace().value_at(n, SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Indexed by `NetId`: ids are dense arena indices handed out in
    /// registration order, so a flat `Vec` replaces a map lookup on the
    /// record hot path.
    nets: Vec<NetCount>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    pub(crate) fn register_net(&mut self, net: NetId, name: String, initial: Logic) {
        assert_eq!(
            net.index(),
            self.nets.len(),
            "nets must register in id order"
        );
        self.nets.push(NetCount {
            name,
            initial,
            edges: 0,
        });
    }

    #[inline]
    pub(crate) fn record(&mut self, net: NetId) {
        self.nets[net.index()].edges += 1;
    }

    /// The nets known to the trace, in id order.
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// The registered name of a net.
    pub fn net_name(&self, net: NetId) -> &str {
        self.nets
            .get(net.index())
            .map(|n| n.name.as_str())
            .unwrap_or("?")
    }

    /// The level a net held before any transition.
    pub fn initial_value(&self, net: NetId) -> Logic {
        self.nets
            .get(net.index())
            .map(|n| n.initial)
            .unwrap_or_default()
    }

    /// Total number of transitions on a net (each is one charged edge in
    /// the energy model).
    pub fn edge_count(&self, net: NetId) -> u64 {
        self.nets.get(net.index()).map_or(0, |n| n.edges)
    }

    /// Sum of transitions across all nets — the total switching activity
    /// of the run.
    pub fn total_edges(&self) -> u64 {
        self.nets.iter().map(|n| n.edges).sum()
    }
}

#[derive(Debug, Clone)]
struct NetHistory {
    name: String,
    initial: Logic,
    transitions: Vec<Transition>,
}

/// The timestamped transition history of a run, for waveform
/// rendering, VCD export and edge-timing queries.
///
/// Only a circuit that called [`Circuit::record_history`] before its
/// first event keeps one, so a run that just needs edge counts (the
/// energy model, fleet drains) stores nothing per transition.
///
/// [`Circuit::record_history`]: crate::Circuit::record_history
///
/// # Example
///
/// ```
/// use mbus_sim::{Circuit, Logic, SimTime};
///
/// let mut c = Circuit::new();
/// c.record_history();
/// let n = c.net("clk");
/// c.drive_external(n, Logic::Low, SimTime::from_ns(5));
/// c.drive_external(n, Logic::High, SimTime::from_ns(10));
/// c.run_until(SimTime::from_ns(20));
/// let history = c.history().expect("recorded");
/// assert_eq!(history.transitions(n).len(), 2);
/// assert_eq!(history.value_at(n, SimTime::from_ns(7)), Logic::Low);
/// ```
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Indexed by `NetId`, like [`Trace`].
    nets: Vec<NetHistory>,
}

impl History {
    /// A history for the nets `trace` already knows, none of which has
    /// transitioned yet.
    pub(crate) fn mirroring(trace: &Trace) -> Self {
        let mut history = History::default();
        for net in trace.nets() {
            history.register_net(net, trace.net_name(net).into(), trace.initial_value(net));
        }
        history
    }

    pub(crate) fn register_net(&mut self, net: NetId, name: String, initial: Logic) {
        assert_eq!(
            net.index(),
            self.nets.len(),
            "nets must register in id order"
        );
        self.nets.push(NetHistory {
            name,
            initial,
            transitions: Vec::new(),
        });
    }

    pub(crate) fn record(&mut self, net: NetId, time: SimTime, value: Logic) {
        let entry = &mut self.nets[net.index()];
        if entry.transitions.capacity() == entry.transitions.len() {
            // Skip the doubling crawl through tiny capacities: a net
            // that transitions at all usually transitions thousands of
            // times (every CLK edge of every transaction crosses it).
            entry.transitions.reserve(256.max(entry.transitions.len()));
        }
        entry.transitions.push(Transition { time, value });
    }

    /// The nets known to the history, in id order.
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// The registered name of a net.
    pub fn net_name(&self, net: NetId) -> &str {
        self.nets
            .get(net.index())
            .map(|n| n.name.as_str())
            .unwrap_or("?")
    }

    /// The level a net held before any transition.
    pub fn initial_value(&self, net: NetId) -> Logic {
        self.nets
            .get(net.index())
            .map(|n| n.initial)
            .unwrap_or_default()
    }

    /// All transitions recorded on `net`, in time order.
    pub fn transitions(&self, net: NetId) -> &[Transition] {
        self.nets
            .get(net.index())
            .map(|n| n.transitions.as_slice())
            .unwrap_or(&[])
    }

    /// Number of transitions on `net` within `[from, to)`.
    pub fn edge_count_between(&self, net: NetId, from: SimTime, to: SimTime) -> usize {
        let t = self.transitions(net);
        let lo = t.partition_point(|tr| tr.time < from);
        let hi = t.partition_point(|tr| tr.time < to);
        hi - lo
    }

    /// Number of rising (or falling) edges on a net.
    pub fn directed_edge_count(&self, net: NetId, edge: Edge) -> usize {
        let mut prev = self.initial_value(net);
        let mut count = 0;
        for tr in self.transitions(net) {
            if prev.edge_to(tr.value) == Some(edge) {
                count += 1;
            }
            prev = tr.value;
        }
        count
    }

    /// The level of `net` at time `t`. A transition at exactly `t` has
    /// already taken effect.
    pub fn value_at(&self, net: NetId, t: SimTime) -> Logic {
        let Some(entry) = self.nets.get(net.index()) else {
            return Logic::default();
        };
        let idx = entry.transitions.partition_point(|tr| tr.time <= t);
        if idx == 0 {
            entry.initial
        } else {
            entry.transitions[idx - 1].value
        }
    }

    /// Times of every edge of the given direction on a net.
    pub fn edge_times(&self, net: NetId, edge: Edge) -> Vec<SimTime> {
        let mut prev = self.initial_value(net);
        let mut out = Vec::new();
        for tr in self.transitions(net) {
            if prev.edge_to(tr.value) == Some(edge) {
                out.push(tr.time);
            }
            prev = tr.value;
        }
        out
    }

    /// The time of the last transition anywhere, or zero.
    pub fn last_activity(&self) -> SimTime {
        self.nets
            .iter()
            .filter_map(|n| n.transitions.last())
            .map(|t| t.time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// What a circuit records per transition: the edge count always, the
/// history entry only once [`History`] recording was opted into.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    pub(crate) trace: Trace,
    pub(crate) history: Option<History>,
}

impl Recorder {
    pub(crate) fn register_net(&mut self, net: NetId, name: String, initial: Logic) {
        if let Some(history) = &mut self.history {
            history.register_net(net, name.clone(), initial);
        }
        self.trace.register_net(net, name, initial);
    }

    #[inline]
    pub(crate) fn record(&mut self, net: NetId, time: SimTime, value: Logic) {
        self.trace.record(net);
        if let Some(history) = &mut self.history {
            history.record(net, time, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Recorder, NetId) {
        let mut rec = Recorder {
            trace: Trace::new(),
            history: Some(History::default()),
        };
        let net = NetId(0);
        rec.register_net(net, "clk".into(), Logic::High);
        rec.record(net, SimTime::from_ns(10), Logic::Low);
        rec.record(net, SimTime::from_ns(20), Logic::High);
        rec.record(net, SimTime::from_ns(30), Logic::Low);
        (rec, net)
    }

    #[test]
    fn value_at_walks_history() {
        let (rec, net) = sample();
        let history = rec.history.unwrap();
        assert_eq!(history.value_at(net, SimTime::from_ns(5)), Logic::High);
        assert_eq!(history.value_at(net, SimTime::from_ns(10)), Logic::Low);
        assert_eq!(history.value_at(net, SimTime::from_ns(25)), Logic::High);
        assert_eq!(history.value_at(net, SimTime::from_ns(99)), Logic::Low);
    }

    #[test]
    fn edge_counting() {
        let (rec, net) = sample();
        assert_eq!(rec.trace.edge_count(net), 3);
        let history = rec.history.unwrap();
        assert_eq!(history.directed_edge_count(net, Edge::Falling), 2);
        assert_eq!(history.directed_edge_count(net, Edge::Rising), 1);
        assert_eq!(
            history.edge_count_between(net, SimTime::from_ns(10), SimTime::from_ns(30)),
            2
        );
    }

    #[test]
    fn edge_times_are_directional() {
        let (rec, net) = sample();
        let history = rec.history.unwrap();
        assert_eq!(
            history.edge_times(net, Edge::Falling),
            vec![SimTime::from_ns(10), SimTime::from_ns(30)]
        );
        assert_eq!(
            history.edge_times(net, Edge::Rising),
            vec![SimTime::from_ns(20)]
        );
    }

    #[test]
    fn totals() {
        let (rec, net) = sample();
        assert_eq!(rec.trace.total_edges(), 3);
        assert_eq!(rec.trace.net_name(net), "clk");
        assert_eq!(rec.trace.initial_value(net), Logic::High);
        let history = rec.history.unwrap();
        assert_eq!(history.last_activity(), SimTime::from_ns(30));
        assert_eq!(history.net_name(net), "clk");
        assert_eq!(history.initial_value(net), Logic::High);
    }

    #[test]
    fn unknown_net_is_empty() {
        assert_eq!(Trace::new().edge_count(NetId(9)), 0);
        let history = History::default();
        assert!(history.transitions(NetId(9)).is_empty());
        assert_eq!(history.value_at(NetId(9), SimTime::ZERO), Logic::High);
    }
}
