//! Parallel parameter sweeps over the engines: the Fig. 9 / Fig. 14
//! grids executed point-by-point with real engine runs, sharded across
//! threads by [`SweepRunner`] — and verified bit-identical to the
//! serial run, which is the determinism contract the sweep layer
//! guarantees.
//!
//! Usage: `cargo run --release -p mbus-bench --bin sweep`

use std::time::Instant;

use mbus_bench::multi_series_table;
use mbus_core::{
    config, Address, AnalyticBus, BusConfig, EngineKind, FuId, FullPrefix, Message, NodeSpec,
    ShortPrefix, SweepRunner, Workload,
};
use mbus_sim::SimTime;

/// One Fig. 14-style point: saturating transaction rate measured by
/// actually running back-to-back messages on a fresh engine.
fn measured_rate(clock_hz: u64, payload: usize) -> f64 {
    let config = BusConfig::new(clock_hz)
        .expect("valid clock")
        .with_mediator_wakeup_cycles(0);
    let mut bus = AnalyticBus::new(config);
    for i in 0..2u32 {
        bus.add_node(
            NodeSpec::new(format!("n{i}"), FullPrefix::new(0x100 + i).expect("prefix"))
                .with_short_prefix(ShortPrefix::new((i + 1) as u8).expect("prefix")),
        );
    }
    let dest = Address::short(ShortPrefix::new(0x2).expect("prefix"), FuId::ZERO);
    let duration = SimTime::from_ms(250);
    let mut transactions = 0u64;
    // Queue blocks of back-to-back messages and drain them: identical
    // transaction stream (every message is one fixed-cost transaction),
    // a fraction of the setup overhead.
    while bus.now() < duration {
        for _ in 0..32 {
            bus.queue(0, Message::new(dest, vec![0xA5; payload]))
                .expect("payload fits");
        }
        while bus.run_transaction().is_some() {
            transactions += 1;
        }
        bus.take_rx(1);
    }
    transactions as f64 / bus.now().as_secs_f64()
}

fn main() {
    println!("=== Engine-backed parameter sweeps, serial vs sharded ===\n");

    // Fig. 14 grid: 4 clock rates x 11 payload lengths = 44 engine runs.
    let clocks = [100_000u64, 400_000, 1_000_000, 7_100_000];
    let payloads: Vec<usize> = (0..=40).step_by(4).collect();
    let points: Vec<(u64, usize)> = clocks
        .iter()
        .flat_map(|&hz| payloads.iter().map(move |&n| (hz, n)))
        .collect();
    let f = |&(hz, n): &(u64, usize)| measured_rate(hz, n);

    let start = Instant::now();
    let serial = SweepRunner::serial().run(&points, f);
    let serial_wall = start.elapsed();

    // At least 4 workers even on small machines, so the sharded path
    // (chunking, scoped threads, re-concatenation) genuinely runs.
    let runner = SweepRunner::with_threads(SweepRunner::auto().threads().max(4));
    let start = Instant::now();
    let sharded = runner.run(&points, f);
    let sharded_wall = start.elapsed();

    assert_eq!(serial, sharded, "sharded sweep diverged from serial");
    println!(
        "fig14 grid: {} engine-backed points; serial {:.2?}, {} threads {:.2?} ({:.1}x), outputs identical: {}",
        points.len(),
        serial_wall,
        runner.threads(),
        sharded_wall,
        serial_wall.as_secs_f64() / sharded_wall.as_secs_f64().max(1e-9),
        serial == sharded,
    );

    let names: Vec<String> = clocks
        .iter()
        .map(|&hz| format!("{:.1}kHz", hz as f64 / 1e3))
        .collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let rows: Vec<(f64, Vec<f64>)> = payloads
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            (
                n as f64,
                (0..clocks.len())
                    .map(|c| sharded[c * payloads.len() + i])
                    .collect(),
            )
        })
        .collect();
    print!(
        "\n{}",
        multi_series_table(
            "measured transactions/second vs payload (bytes)",
            "bytes",
            &name_refs,
            &rows
        )
    );

    // Fig. 9: the propagation-limited frequency ceiling (closed form,
    // but swept through the same runner for shape consistency).
    let populations: Vec<usize> = (2..=14).collect();
    let ceilings = runner.run(&populations, |&n| {
        config::max_clock_hz(n, SimTime::from_ns(10)) as f64 / 1e6
    });
    println!("\nfig09 ceilings (MHz): {ceilings:.1?}");
    println!("paper anchors: 2 nodes -> 50 MHz; 14 nodes -> 7.1 MHz\n");

    // Cross-engine storm sweep: each worker runs BOTH engines on its
    // point and verifies the signatures agree — the cross-check itself,
    // sharded.
    let storm_points: Vec<usize> = (2..=8).collect();
    let all_agree = runner
        .run(&storm_points, |&n| {
            let w = Workload::many_node_storm(n, 2);
            w.run_on(EngineKind::Analytic).signature() == w.run_on(EngineKind::Wire).signature()
        })
        .into_iter()
        .all(|ok| ok);
    println!("sharded cross-engine storm sweep (2..=8 nodes): all signatures agree: {all_agree}");
    assert!(all_agree);
}
