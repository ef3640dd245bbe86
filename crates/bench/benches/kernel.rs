//! Micro-benches over the discrete-event kernel itself: event
//! scheduling throughput, waveform/trace handling, and the wire
//! engine's cost against the analytic engine on the same workloads.
//!
//! Run with `cargo bench -p mbus-bench --bench kernel`; CI runs it
//! with `-- --smoke`. Every row lands in `BENCH_kernel.json` (uploaded
//! as a CI artifact), and the wire rows feed a regression gate: if the
//! wire ÷ analytic time ratio on a shape rises more than 25% above its
//! recorded baseline (the wire path more than 20% slower), the bench
//! exits nonzero and fails the smoke step. The gate compares a *ratio
//! of two rows measured back to back in one process*, so it holds
//! across machines — absolute times are reported but never gated.

use std::time::Instant;

use mbus_bench::harness::{bench_timed, format_duration, smoke_mode};
use mbus_bench::json::Json;
use mbus_core::{EngineKind, Workload};
use mbus_sim::{Circuit, Component, Ctx, Logic, PinId, SimTime};

/// The gated shapes — `(label, nodes, rounds)` of a
/// `Workload::many_node_storm` — and each one's recorded wire ÷ analytic
/// time ratio: the median of 5 full (non-smoke) runs on a shared 2-vCPU
/// KVM guest (Intel Xeon), whose per-run ratios spanned 58.4–64.8× and
/// 101.9–108.7×. The gate fires when a run measures more than 125% of
/// the baseline.
const WIRE_SHAPES: [(&str, usize, usize, f64); 2] =
    [("storm6", 6, 3, 60.7), ("ring14", 14, 2, 107.0)];

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

/// Shortest time one timed sample may take: a sample repeats the
/// workload until it lasts at least this long.
const MIN_SAMPLE_S: f64 = 10e-3;

/// Seconds per run of `run`, averaged over one sample of `iters` runs.
fn sample(iters: u32, run: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        run();
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

/// Iterations per sample: doubled from 1 until one sample lasts at
/// least [`MIN_SAMPLE_S`] (the doubling runs double as warmup).
fn iters_for(run: &mut impl FnMut()) -> u32 {
    let mut iters = 1;
    while sample(iters, run) * f64::from(iters) < MIN_SAMPLE_S {
        iters *= 2;
    }
    iters
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Wire vs analytic over [`WIRE_SHAPES`]; returns each shape's label,
/// wire ÷ analytic time ratio and baseline. The two engines' samples
/// alternate, so load that shifts during the run hits both alike, and
/// the ratio is the median of the per-pair ratios.
fn bench_wire(rows: &mut Vec<(String, f64)>) -> Vec<(&'static str, f64, f64)> {
    let pairs = if smoke_mode() { 5 } else { 11 };
    let mut ratios = Vec::new();
    for (label, nodes, rounds, baseline) in WIRE_SHAPES {
        let w = Workload::many_node_storm(nodes, rounds);
        let mut analytic = || {
            std::hint::black_box(w.run_on(EngineKind::Analytic).records.len());
        };
        let mut wire = || {
            std::hint::black_box(w.run_on(EngineKind::Wire).records.len());
        };
        let (a_iters, w_iters) = (iters_for(&mut analytic), iters_for(&mut wire));
        let (a_times, w_times): (Vec<f64>, Vec<f64>) = (0..pairs)
            .map(|_| (sample(a_iters, &mut analytic), sample(w_iters, &mut wire)))
            .unzip();
        let ratio = median(w_times.iter().zip(&a_times).map(|(w, a)| w / a).collect());
        for (kind, times) in [("analytic", a_times), ("wire", w_times)] {
            let name = format!("engine_kernel/{label}/{kind}");
            let t = median(times);
            println!("{name:<44} {:>12}", format_duration(t));
            rows.push((name, t));
        }
        println!("engine_kernel/{label}: wire / analytic {ratio:.1}x");
        ratios.push((label, ratio, baseline));
    }
    ratios
}

fn main() {
    let mut rows: Vec<(String, f64)> = Vec::new();
    bench_event_pipeline(&mut rows);
    bench_scheduler(&mut rows);
    bench_trace_queries(&mut rows);
    let ratios = bench_wire(&mut rows);

    let mut pass = true;
    let gated: Vec<Json> = ratios
        .iter()
        .map(|&(label, ratio, baseline)| {
            let gate = baseline * 1.25;
            if ratio > gate {
                pass = false;
                eprintln!(
                    "FAIL: {label} wire / analytic {ratio:.1}x rose above the gate \
                     ({gate:.1}x = 125% of the {baseline:.1}x baseline)"
                );
            }
            Json::obj([
                ("shape", label.into()),
                ("wire_over_analytic", ratio.into()),
                ("baseline", baseline.into()),
                ("gate", gate.into()),
            ])
        })
        .collect();

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
        ("wire_over_analytic", Json::Arr(gated)),
        ("gate_pass", pass.into()),
    ]);
    std::fs::write("BENCH_kernel.json", format!("{artifact}\n")).expect("write BENCH_kernel.json");
    println!("\nwrote BENCH_kernel.json");

    if !pass {
        std::process::exit(1);
    }
}
