//! Micro-benches over the discrete-event kernel itself: event
//! scheduling throughput, waveform/trace handling, and the wire
//! engine's wavefront fast path against its edge-at-a-time oracle.
//!
//! Run with `cargo bench -p mbus-bench --bench kernel`; CI runs it
//! with `-- --smoke`. Every row lands in `BENCH_kernel.json` (uploaded
//! as a CI artifact), and the wire rows feed a regression gate: if the
//! measured wavefront-vs-oracle speedup falls more than 20% below the
//! recorded baseline, the bench exits nonzero and fails the smoke
//! step. The gate compares a *ratio of two rows measured back to back
//! in one process*, so it holds across machines — absolute times are
//! reported but never gated.

use mbus_bench::harness::{bench_timed, bench_timed_exact, smoke_mode};
use mbus_bench::json::Json;
use mbus_core::engine::BusEngine;
use mbus_core::wire::WireEngine;
use mbus_core::Workload;
use mbus_sim::{Circuit, Component, Ctx, Logic, PinId, SimTime};

/// Recorded baseline speedup of the wavefront path over the oracle on
/// the wire rows below (min across rows, measured at introduction:
/// storm6 ≈ 2.3×, ring14 ≈ 2.1–2.4× on the reference container; the
/// pure-propagation `kernel_pipeline` chain shape, where scheduling
/// overhead dominates member logic, shows ≈ 3.9×). The gate fires when
/// a run measures less than 80% of this — i.e. a >20% regression of
/// the fast path relative to the unchanged oracle.
const BASELINE_WIRE_SPEEDUP: f64 = 2.2;

/// A repeater chain exercises the drive→deliver→drive pipeline.
struct Repeater {
    output: PinId,
}

impl Component for Repeater {
    fn on_signal(&mut self, _pin: PinId, value: Logic, ctx: &mut Ctx<'_>) {
        ctx.drive_after(self.output, value, SimTime::from_ns(1));
    }
}

fn chain_circuit(len: usize) -> (Circuit, mbus_sim::NetId) {
    let mut c = Circuit::new();
    let first = c.net("n0");
    let mut prev = first;
    for i in 0..len {
        let next = c.net(format!("n{}", i + 1));
        let comp = c.add_component(format!("rep{i}"));
        let _input = c.input_delayed(comp, prev, SimTime::from_ns(10));
        let output = c.output(comp, next);
        c.bind(comp, Repeater { output });
        prev = next;
    }
    (c, first)
}

fn bench_event_pipeline(rows: &mut Vec<(String, f64)>) {
    for len in [10usize, 100] {
        let name = format!("kernel_pipeline/chain/{len}");
        let median = bench_timed(&name, 50, 5, || {
            let (mut circuit, first) = chain_circuit(len);
            for k in 0..100u64 {
                circuit.drive_external(
                    first,
                    if k % 2 == 0 { Logic::Low } else { Logic::High },
                    SimTime::from_us(k),
                );
            }
            circuit.run_to_idle(1_000_000);
            std::hint::black_box(circuit.events_processed());
        });
        rows.push((name, median));
    }
}

fn bench_scheduler(rows: &mut Vec<(String, f64)>) {
    use mbus_sim::{EventKind, Scheduler};
    let median = bench_timed("scheduler_push_pop_10k", 50, 5, || {
        let mut q = Scheduler::new();
        for i in 0..10_000u64 {
            q.schedule(
                SimTime::from_ps(i * 37 % 5_000),
                EventKind::Timer {
                    component: Default::default(),
                    token: i,
                },
            );
        }
        let mut count = 0u64;
        while q.pop().is_some() {
            count += 1;
        }
        std::hint::black_box(count);
    });
    rows.push(("scheduler_push_pop_10k".into(), median));
}

fn bench_trace_queries(rows: &mut Vec<(String, f64)>) {
    let (mut circuit, first) = chain_circuit(20);
    circuit.record_history();
    for k in 0..1_000u64 {
        circuit.drive_external(
            first,
            if k % 2 == 0 { Logic::Low } else { Logic::High },
            SimTime::from_us(k),
        );
    }
    circuit.run_to_idle(10_000_000);
    let history = circuit.history().expect("recorded").clone();
    let nets: Vec<_> = history.nets().collect();
    let median = bench_timed("trace_value_at_lookups", 20, 5, || {
        let mut acc = 0usize;
        for &net in &nets {
            for t in (0..1_000u64).step_by(97) {
                acc += history.value_at(net, SimTime::from_us(t)).is_high() as usize;
            }
        }
        std::hint::black_box(acc);
    });
    rows.push(("trace_value_at_lookups".into(), median));
}

/// One full wire-level workload run with the chosen propagation path.
fn run_wire_workload(w: &Workload, wavefront: bool) {
    let mut engine = WireEngine::new(*w.config()).with_wavefront(wavefront);
    for spec in w.node_specs() {
        engine.add_node(spec.clone());
    }
    let report = w.apply(&mut engine);
    std::hint::black_box(report.records.len());
}

/// Wavefront vs oracle over representative ring shapes; returns the
/// measured speedups. These rows bypass the smoke clamp (a 2×1 sample
/// is too noisy to gate on) and pick reduced counts of their own.
fn bench_wire(rows: &mut Vec<(String, f64)>) -> Vec<(String, f64)> {
    let (iters, batches) = if smoke_mode() { (3, 3) } else { (10, 5) };
    let mut speedups = Vec::new();
    for (label, w) in [
        ("storm6", Workload::many_node_storm(6, 3)),
        ("ring14", Workload::many_node_storm(14, 2)),
    ] {
        let fast_name = format!("wire_kernel/{label}/wavefront");
        let fast = bench_timed_exact(&fast_name, iters, batches, || run_wire_workload(&w, true));
        rows.push((fast_name, fast));
        let oracle_name = format!("wire_kernel/{label}/oracle");
        let oracle = bench_timed_exact(&oracle_name, iters, batches, || {
            run_wire_workload(&w, false)
        });
        rows.push((oracle_name, oracle));
        let speedup = oracle / fast;
        println!("wire_kernel/{label}: wavefront speedup {speedup:.2}x");
        speedups.push((label.to_string(), speedup));
    }
    speedups
}

fn main() {
    let mut rows: Vec<(String, f64)> = Vec::new();
    bench_event_pipeline(&mut rows);
    bench_scheduler(&mut rows);
    bench_trace_queries(&mut rows);
    let speedups = bench_wire(&mut rows);

    let min_speedup = speedups
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::INFINITY, f64::min);
    let gate = BASELINE_WIRE_SPEEDUP * 0.8;
    let pass = min_speedup >= gate;

    let artifact = Json::obj([
        ("bench", "kernel".into()),
        ("smoke", smoke_mode().into()),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|(name, median)| {
                        Json::obj([
                            ("name", name.clone().into()),
                            ("median_s", (*median).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "wire_speedups",
            Json::Arr(
                speedups
                    .iter()
                    .map(|(label, s)| {
                        Json::obj([("shape", label.clone().into()), ("speedup", (*s).into())])
                    })
                    .collect(),
            ),
        ),
        ("baseline_speedup", BASELINE_WIRE_SPEEDUP.into()),
        ("gate", gate.into()),
        ("gate_pass", pass.into()),
    ]);
    std::fs::write("BENCH_kernel.json", format!("{artifact}\n")).expect("write BENCH_kernel.json");
    println!("\nwrote BENCH_kernel.json");

    if !pass {
        eprintln!(
            "FAIL: wavefront speedup {min_speedup:.2}x fell below the gate \
             ({gate:.2}x = 80% of the {BASELINE_WIRE_SPEEDUP:.2}x baseline)"
        );
        std::process::exit(1);
    }
}
