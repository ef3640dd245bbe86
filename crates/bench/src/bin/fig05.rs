//! Fig. 5: MBus arbitration — node 1 requests the bus, node 3 claims it
//! through the priority round. Rendered from the wire-level engine's
//! actual trace.

use mbus_core::wire::WireBusBuilder;
use mbus_core::{Address, BusConfig, FuId, FullPrefix, Message, NodeSpec, ShortPrefix};
use mbus_sim::{SimTime, WaveformRenderer};

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

fn main() {
    println!("=== Fig. 5: MBus Arbitration (with priority round) ===\n");

    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("node1", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(NodeSpec::new("node2", FullPrefix::new(0x2).unwrap()).with_short_prefix(sp(0x2)))
        .node(NodeSpec::new("node3", FullPrefix::new(0x3).unwrap()).with_short_prefix(sp(0x3)))
        .record_history(true)
        .build();

    // The paper's scenario: node 1 requests; node 3 wants the bus with
    // priority and claims it in the priority-arbitration cycle.
    bus.queue(
        0,
        Message::new(Address::short(sp(0x2), FuId::ZERO), vec![0xB1]),
    )
    .unwrap();
    bus.queue(
        2,
        Message::new(Address::short(sp(0x2), FuId::ZERO), vec![0xC3]).with_priority(),
    )
    .unwrap();
    let records = bus.run_until_quiescent(50_000_000);

    // Node 3's priority message wins the first transaction.
    let rx = bus.take_rx(1);
    println!(
        "delivery order: 0x{:02x} then 0x{:02x}  (0xc3 = node 3's priority message first)\n",
        rx[0].payload[0], rx[1].payload[0]
    );

    // Render the first transaction's arbitration region: CLK, then the
    // DATA segments around each node (data[i] = into node i).
    let start = records[0].request_at;
    let window = SimTime::from_us(30); // ~12 bus cycles at 400 kHz
    let mut nets = vec![bus.clk_nets()[0]];
    nets.extend_from_slice(bus.data_nets());
    let wave = WaveformRenderer::new()
        .from(start)
        .until(start + window)
        .sample_every(SimTime::from_ns(625)) // quarter cycle
        .label_width(8)
        .render(bus.history().expect("recorded"), &nets);
    println!("CLK (mediator out) and DATA ring segments");
    println!("(data0 = mediator->node1, data1 = node1->node2, …):\n");
    println!("{wave}");
    println!("cycle guide: |arb|prio|rsvd|addr x8|data…  (drive on falling, latch on rising)");
    println!(
        "transaction cycles: {} (= 19 + 8x1 payload byte)",
        records[0].cycles
    );
}
