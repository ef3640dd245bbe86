//! Property-style tests over the discrete-event kernel: determinism,
//! trace consistency, and transport-delay conservation.
//!
//! Cases are generated with the kernel's own deterministic [`SmallRng`]
//! (the container image carries no external property-testing crate), so
//! every failure reproduces from the printed seed.

use mbus_sim::{Circuit, Component, Ctx, Logic, PinId, SimTime, SmallRng, Transition};

struct Repeater {
    output: PinId,
    delay: SimTime,
}

impl Component for Repeater {
    fn on_signal(&mut self, _pin: PinId, value: Logic, ctx: &mut Ctx<'_>) {
        ctx.drive_after(self.output, value, self.delay);
    }
}

/// Builds a chain of `len` repeaters and applies the stimulus, returning
/// the circuit plus the first and last nets. `history` opts the run in
/// to keeping timestamped transitions.
fn run_chain(
    len: usize,
    hop_ns: u64,
    stimulus: &[(u64, bool)],
    history: bool,
) -> (Circuit, mbus_sim::NetId, mbus_sim::NetId) {
    let mut c = Circuit::new();
    if history {
        c.record_history();
    }
    let first = c.net("n0");
    let mut prev = first;
    for i in 0..len {
        let next = c.net(format!("n{}", i + 1));
        let comp = c.add_component(format!("rep{i}"));
        let _input = c.input_delayed(comp, prev, SimTime::from_ns(hop_ns));
        let output = c.output(comp, next);
        c.bind(
            comp,
            Repeater {
                output,
                delay: SimTime::ZERO,
            },
        );
        prev = next;
    }
    for &(t, level) in stimulus {
        c.drive_external(first, Logic::from_bool(level), SimTime::from_us(t));
    }
    c.run_to_idle(10_000_000);
    (c, first, prev)
}

/// 1–39 edges at distinct microsecond timestamps in [0, 500).
fn random_stimulus(rng: &mut SmallRng) -> Vec<(u64, bool)> {
    let n = rng.gen_index(1..40);
    let mut s: Vec<(u64, bool)> = (0..n)
        .map(|_| (rng.gen_range(0..500), rng.gen_bool()))
        .collect();
    s.sort_by_key(|&(t, _)| t);
    s.dedup_by_key(|&mut (t, _)| t);
    s
}

/// Replays are bit-identical: the kernel is deterministic.
#[test]
fn replays_are_identical() {
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let stim = random_stimulus(&mut rng);
        let len = rng.gen_index(1..8);
        let (a, _, last_a) = run_chain(len, 10, &stim, true);
        let (b, _, last_b) = run_chain(len, 10, &stim, true);
        let ta: &[Transition] = a.history().unwrap().transitions(last_a);
        let tb: &[Transition] = b.history().unwrap().transitions(last_b);
        assert_eq!(ta, tb, "seed {seed}");
        assert_eq!(a.events_processed(), b.events_processed(), "seed {seed}");
    }
}

/// Transport delay conserves transitions: every edge on the first net
/// arrives at the last, shifted by the chain delay.
#[test]
fn transitions_are_conserved() {
    for seed in 100..164u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let stim = random_stimulus(&mut rng);
        let len = rng.gen_index(1..8);
        let (c, first, last) = run_chain(len, 10, &stim, true);
        let history = c.history().unwrap();
        let t_in = history.transitions(first);
        let t_out = history.transitions(last);
        assert_eq!(t_in.len(), t_out.len(), "seed {seed}");
        let chain = SimTime::from_ns(10 * len as u64);
        for (i, o) in t_in.iter().zip(t_out) {
            assert_eq!(o.time, i.time + chain, "seed {seed}");
            assert_eq!(o.value, i.value, "seed {seed}");
        }
    }
}

/// `value_at` agrees with the running net value at every recorded
/// transition boundary, and the final value matches the live net.
#[test]
fn trace_value_at_is_consistent() {
    for seed in 200..264u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let stim = random_stimulus(&mut rng);
        let (c, first, _) = run_chain(1, 10, &stim, true);
        let history = c.history().unwrap();
        let mut prev = history.initial_value(first);
        for tr in history.transitions(first) {
            // Just before the transition: the previous value.
            if tr.time > SimTime::ZERO {
                let before = tr.time - SimTime::from_ps(1);
                assert_eq!(history.value_at(first, before), prev, "seed {seed}");
            }
            assert_eq!(history.value_at(first, tr.time), tr.value, "seed {seed}");
            prev = tr.value;
        }
        assert_eq!(
            history.value_at(first, SimTime::from_s(1)),
            c.value(first),
            "seed {seed}"
        );
    }
}

/// Edge counts partition: rising + falling == total transitions (when
/// the net starts from a driven level).
#[test]
fn directed_edges_partition() {
    use mbus_sim::Edge;
    for seed in 300..364u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let stim = random_stimulus(&mut rng);
        let (c, first, _) = run_chain(1, 10, &stim, true);
        let history = c.history().unwrap();
        let rising = history.directed_edge_count(first, Edge::Rising);
        let falling = history.directed_edge_count(first, Edge::Falling);
        assert_eq!(
            (rising + falling) as u64,
            c.trace().edge_count(first),
            "seed {seed}"
        );
        // Alternation: rising and falling counts differ by at most 1.
        assert!(rising.abs_diff(falling) <= 1, "seed {seed}");
    }
}

/// Edges the stimulus produces on a net idling high: one per level
/// change (redundant drives create none).
fn expected_edges(stimulus: &[(u64, bool)]) -> u64 {
    let mut level = true;
    let mut edges = 0;
    for &(_, next) in stimulus {
        if next != level {
            edges += 1;
            level = next;
        }
    }
    edges
}

/// A default run keeps no history, yet its edge counts are exact on
/// every net of the chain — and identical to an opted-in run's, whose
/// history holds exactly that many transitions per net.
#[test]
fn default_run_counts_edges_without_history() {
    for seed in 400..464u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let stim = random_stimulus(&mut rng);
        let len = rng.gen_index(1..8);
        let (counted, _, _) = run_chain(len, 10, &stim, false);
        assert!(counted.history().is_none(), "seed {seed}");
        let (recorded, _, _) = run_chain(len, 10, &stim, true);
        let history = recorded.history().unwrap();
        let want = expected_edges(&stim);
        for net in counted.trace().nets() {
            assert_eq!(counted.trace().edge_count(net), want, "seed {seed}");
            assert_eq!(recorded.trace().edge_count(net), want, "seed {seed}");
            assert_eq!(history.transitions(net).len() as u64, want, "seed {seed}");
        }
        assert_eq!(
            counted.trace().total_edges(),
            want * (len as u64 + 1),
            "seed {seed}"
        );
    }
}
