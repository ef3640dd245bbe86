//! Fig. 3: high-level behavior of MBus — walks a real wire-level
//! transaction through the states of the figure and prints the
//! transitions each node took.

use mbus_core::wire::WireBusBuilder;
use mbus_core::{timing, Address, BusConfig, FuId, FullPrefix, Message, NodeSpec, ShortPrefix};

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

fn main() {
    println!("=== Fig. 3: High-Level Behavior of MBus ===\n");
    println!("state walk for: node1 transmits 2 bytes to node2; node3 forwards\n");

    let phases = [
        ("IDLE", "all nodes forward high CLK and DATA"),
        ("Request", "node1 pulls DATA low; mediator self-starts"),
        ("Arbitrate (1 cycle)", "node1 samples DATA_IN high -> wins"),
        (
            "Priority (1 cycle)",
            "no priority requests; node1 keeps the bus",
        ),
        (
            "Reserved (1 cycle)",
            "winner parks DATA high, commits message",
        ),
        (
            "Address (8 cycles)",
            "node2 matches -> Receiving; node3 -> Ignore/forward",
        ),
        (
            "Data (16 cycles)",
            "drive on falling edges, latch on rising",
        ),
        (
            "Interjection (5 cycles)",
            "node1 holds CLK; mediator toggles DATA",
        ),
        (
            "Control (3 cycles)",
            "bit0 = EoM (node1), bit1 = ACK (node2)",
        ),
        (
            "IDLE",
            "mediator parks DATA high; power-aware nodes re-gate",
        ),
    ];
    for (state, what) in phases {
        println!("  {state:<24} {what}");
    }

    // Prove the walk against the engine.
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("node1", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(NodeSpec::new("node2", FullPrefix::new(0x2).unwrap()).with_short_prefix(sp(0x2)))
        .node(NodeSpec::new("node3", FullPrefix::new(0x3).unwrap()).with_short_prefix(sp(0x3)))
        .build();
    let msg = Message::new(Address::short(sp(0x2), FuId::ZERO), vec![0x12, 0x34]);
    let expected = timing::transaction_cycles(&msg);
    bus.queue(0, msg).unwrap();
    let records = bus.run_until_quiescent();

    println!("\nwire-level check:");
    println!(
        "  measured {} cycles (budget {}: 3 arb + 8 addr + 16 data + 5 interjection + 3 control)",
        records[0].cycles, expected
    );
    println!(
        "  control bits observed: {}",
        records[0]
            .control
            .map(|c| c.to_string())
            .unwrap_or_default()
    );
    println!("  node2 received: {:02x?}", bus.take_rx(1)[0].payload);
}
