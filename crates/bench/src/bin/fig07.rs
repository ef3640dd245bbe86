//! Fig. 7: MBus interjection and control — the end of a message from
//! node 2 to node 1, ACK'd in the two-cycle control phase.

use mbus_core::wire::WireBusBuilder;
use mbus_core::{Address, BusConfig, FuId, FullPrefix, Message, NodeSpec, ShortPrefix};
use mbus_sim::{SimTime, WaveformRenderer};

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

fn main() {
    println!("=== Fig. 7: MBus Interjection and Control ===\n");

    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("node1", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(NodeSpec::new("node2", FullPrefix::new(0x2).unwrap()).with_short_prefix(sp(0x2)))
        .node(NodeSpec::new("node3", FullPrefix::new(0x3).unwrap()).with_short_prefix(sp(0x3)))
        .record_history(true)
        .build();

    // Node 2 transmits one byte to node 1; node 3 forwards.
    bus.queue(
        1,
        Message::new(Address::short(sp(0x1), FuId::ZERO), vec![0xA7]),
    )
    .unwrap();
    let records = bus.run_until_quiescent();
    let r = &records[0];

    println!(
        "transaction: {} cycles, control = {}",
        r.cycles,
        r.control.map(|c| c.to_string()).unwrap_or_default()
    );
    println!(
        "payload delivered to node1: {:02x?}\n",
        bus.take_rx(0)[0].payload
    );

    // Window over the tail: last data bits, interjection, control.
    let period = SimTime::from_ns(2_500);
    let tail_cycles = 14u64;
    let start = r.idle_at.saturating_sub(period * tail_cycles);
    let nets = vec![
        bus.clk_nets()[0],
        bus.clk_nets()[2], // CLK out of node 2 (the transmitter's hold)
        bus.data_nets()[0],
        bus.data_nets()[2], // DATA out of node 2
    ];
    let wave = WaveformRenderer::new()
        .from(start)
        .until(r.idle_at + SimTime::from_us(2))
        .sample_every(SimTime::from_ns(312))
        .label_width(8)
        .render(bus.history().expect("recorded"), &nets);
    println!(
        "tail of the transaction (note CLK held high while DATA toggles — the interjection):\n"
    );
    println!("{wave}");
    println!("events: TX requests interjection by holding CLK | mediator toggles DATA |");
    println!("        control bit 0 (EoM, high) | control bit 1 (ACK, low) | idle");
}
