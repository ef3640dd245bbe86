//! Quickstart: build a three-chip MBus ring, send a message to a
//! power-gated node, and print the transaction with its waveform.
//!
//! Run with: `cargo run -p mbus-systems --example quickstart`

use mbus_core::wire::WireBusBuilder;
use mbus_core::{Address, BusConfig, FuId, FullPrefix, NodeSpec, ShortPrefix};
use mbus_sim::{SimTime, WaveformRenderer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A bus like the paper's temperature system: processor (hosting
    // the mediator), a power-aware sensor, and a power-aware radio.
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(
            NodeSpec::new("cpu+mediator", FullPrefix::new(0x0_0001)?)
                .with_short_prefix(ShortPrefix::new(0x1)?),
        )
        .node(
            NodeSpec::new("sensor", FullPrefix::new(0x0_0002)?)
                .with_short_prefix(ShortPrefix::new(0x2)?)
                .power_aware(true),
        )
        .node(
            NodeSpec::new("radio", FullPrefix::new(0x0_0003)?)
                .with_short_prefix(ShortPrefix::new(0x3)?)
                .power_aware(true),
        )
        .record_history(true)
        .build();

    println!("MBus quickstart: 3-node ring at 400 kHz\n");
    println!("sensor power-gated? {}", !bus.layer_on(1));

    // Power-oblivious communication: just send — the bus wakes the
    // destination (§4.4 of the paper).
    let dest = Address::short(ShortPrefix::new(0x2)?, FuId::ZERO);
    let records = bus.send_and_run(0, dest, vec![0xCA, 0xFE])?;

    for r in &records {
        println!(
            "transaction: {} cycles ({} -> {}), control = {}",
            r.cycles,
            r.clock_start,
            r.idle_at,
            r.control.map(|c| c.to_string()).unwrap_or_default(),
        );
    }
    let rx = bus.take_rx(1);
    println!("sensor received: {:02x?}", rx[0].payload);
    println!(
        "sensor layer woke {} time(s); radio layer woke {} time(s)",
        bus.layer_wakes(1),
        bus.layer_wakes(2)
    );

    // Render the first chunk of the transaction as a timing diagram
    // (the Fig. 5-style view).
    let window_end = records[0].clock_start + SimTime::from_us(80);
    let nets = [
        bus.clk_nets()[0],
        bus.data_nets()[0],
        bus.data_nets()[1],
        bus.data_nets()[2],
    ];
    let wave = WaveformRenderer::new()
        .from(records[0].request_at)
        .until(window_end)
        .sample_every(SimTime::from_ns(1_250)) // half a bus cycle
        .label_width(10)
        .render(bus.history().expect("recorded"), &nets);
    println!("\nwaveform (request through early data bits):\n{wave}");
    Ok(())
}
