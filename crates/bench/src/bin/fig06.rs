//! Fig. 6: MBus wakeup — a power-gated node self-wakes with a null
//! transaction; the mediator finds no arbitration winner and raises a
//! general error, and the generated clock edges wake the node's
//! hierarchical power domains.

use mbus_core::wire::WireBusBuilder;
use mbus_core::{BusConfig, FullPrefix, NodeSpec, ShortPrefix};
use mbus_sim::{SimTime, WaveformRenderer};

fn main() {
    println!("=== Fig. 6: MBus Wakeup (null transaction) ===\n");

    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(
            NodeSpec::new("cpu", FullPrefix::new(0x1).unwrap())
                .with_short_prefix(ShortPrefix::new(0x1).unwrap()),
        )
        .node(
            NodeSpec::new("imager", FullPrefix::new(0x2).unwrap())
                .with_short_prefix(ShortPrefix::new(0x2).unwrap())
                .power_aware(true),
        )
        .record_history(true)
        .build();

    println!(
        "imager fully power-gated: bus_ctl={}, layer={}",
        bus.bus_ctl_on(1),
        bus.layer_on(1)
    );
    println!("motion detector asserts the interrupt port…\n");
    bus.request_wakeup(1).unwrap();
    let records = bus.run_until_quiescent(50_000_000);

    let r = &records[0];
    println!(
        "null transaction: {} cycles, control = {} (the \"General Error\")",
        r.cycles,
        r.control.map(|c| c.to_string()).unwrap_or_default()
    );
    println!("wake events on the imager: {}\n", bus.wake_events(1));

    let start = r.request_at;
    let nets = vec![
        bus.clk_nets()[0],
        bus.data_nets()[0],
        bus.data_nets()[1],
        bus.data_nets()[2],
    ];
    let wave = WaveformRenderer::new()
        .from(start)
        .until(r.idle_at + SimTime::from_us(3))
        .sample_every(SimTime::from_ns(625))
        .label_width(8)
        .render(bus.history().expect("recorded"), &nets);
    println!("{wave}");
    println!("regions: request | mediator wakeup | arbitration (no winner) | interjection | control | idle");
}
