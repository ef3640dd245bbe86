//! End-to-end system tests: the §6.3 microbenchmarks run on the
//! protocol engines, including a wire-level (edge-accurate) rendition
//! of the temperature system's transaction pattern.

use mbus_core::wire::WireBusBuilder;
use mbus_core::{
    enumeration, Address, AnalyticBus, BusConfig, FuId, FullPrefix, Message, NodeSpec, ShortPrefix,
};
use mbus_systems::imager::{self, ImagerSystem};
use mbus_systems::temperature::{Routing, SenseAndSendComparison, TemperatureSystem};

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

#[test]
fn headline_sense_and_send_numbers() {
    let cmp = SenseAndSendComparison::run(3);
    assert!((cmp.direct.as_nj() - 100.0).abs() < 1.0);
    assert!((cmp.savings().as_nj() - 6.6).abs() < 0.1);
    assert!((cmp.via_days - 44.5).abs() < 0.5);
    assert!((cmp.direct_days - 47.5).abs() < 0.5);
}

#[test]
fn temperature_pattern_on_the_wire_engine() {
    // The same request/response/radio pattern, edge-accurate: the
    // processor asks the power-gated sensor for a reading; the sensor
    // replies directly to the power-gated radio.
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("cpu", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
        .node(
            NodeSpec::new("sensor", FullPrefix::new(0x2).unwrap())
                .with_short_prefix(sp(0x2))
                .power_aware(true),
        )
        .node(
            NodeSpec::new("radio", FullPrefix::new(0x3).unwrap())
                .with_short_prefix(sp(0x3))
                .power_aware(true),
        )
        .build();

    // Request: 4 bytes to the sensor.
    bus.queue(
        0,
        Message::new(Address::short(sp(0x2), FuId::ZERO), vec![0x51, 0x03, 0, 0]),
    )
    .unwrap();
    let r1 = bus.run_until_quiescent();
    assert_eq!(r1[0].cycles, 19 + 32);
    let req = bus.take_rx(1);
    assert_eq!(req.len(), 1);

    // Response: 8 bytes straight to the radio (any-to-any). The
    // power-gated sensor first self-wakes via a null transaction.
    let reading = vec![0, 1, 0x73, 0xAC, 0, 0, 0, 0];
    bus.queue(
        1,
        Message::new(Address::short(sp(0x3), FuId::ZERO), reading.clone()),
    )
    .unwrap();
    let r2 = bus.run_until_quiescent();
    assert_eq!(r2.last().unwrap().cycles, 19 + 64);
    assert_eq!(bus.take_rx(2)[0].payload, reading);
    // The CPU never saw the reading — no relay energy spent.
    assert!(bus.take_rx(0).is_empty());
    // Wire-level totals match §6.3.1's (64 + 19)-bit accounting for
    // the response message.
    let response_bits = 64 + 19;
    assert_eq!(r2.last().unwrap().cycles, response_bits);
}

#[test]
fn imager_flow_delivers_a_pixel_perfect_frame() {
    let mut sys = ImagerSystem::new();
    sys.motion_detected();
    let received = sys.transfer_row_by_row();
    assert_eq!(&received, sys.captured().unwrap());
    assert_eq!(sys.motion_events, 1);
}

#[test]
fn imager_rows_on_the_wire_engine() {
    // A scaled-down wire-level version: four rows of the real image
    // cross the edge-accurate ring intact.
    let image = imager::Image::synthetic(99);
    let mut bus = WireBusBuilder::new(BusConfig::default())
        .node(NodeSpec::new("cpu", FullPrefix::new(0x11).unwrap()).with_short_prefix(sp(0x1)))
        .node(NodeSpec::new("imager", FullPrefix::new(0x12).unwrap()).with_short_prefix(sp(0x2)))
        .node(NodeSpec::new("radio", FullPrefix::new(0x13).unwrap()).with_short_prefix(sp(0x3)))
        .build();
    for y in 0..4 {
        let row = image.pack_row(y);
        assert_eq!(row.len(), 180);
        bus.queue(1, Message::new(Address::short(sp(0x3), FuId::ZERO), row))
            .unwrap();
    }
    let records = bus.run_until_quiescent();
    assert_eq!(records.len(), 4);
    for r in &records {
        assert_eq!(r.cycles, 19 + 8 * 180, "row message cycle budget");
    }
    let rx = bus.take_rx(2);
    for (y, m) in rx.iter().enumerate() {
        let pixels = imager::Image::unpack_row(&m.payload);
        for (x, &p) in pixels.iter().enumerate() {
            assert_eq!(p, image.pixel(x, y));
        }
    }
}

#[test]
fn enumeration_then_traffic_end_to_end() {
    // Boot a 5-chip system with no static prefixes, enumerate, then
    // exchange messages using the assigned prefixes.
    let mut bus = AnalyticBus::new(BusConfig::default());
    for i in 0..5 {
        bus.add_node(NodeSpec::new(
            format!("chip{i}"),
            FullPrefix::new(0x700 + i).unwrap(),
        ));
    }
    let assignments = enumeration::enumerate(&mut bus, 0).unwrap();
    assert_eq!(assignments.len(), 5);
    // Drain the enumeration broadcasts every node overheard.
    for i in 0..5 {
        let _ = bus.take_rx(i);
    }

    // Use the freshly assigned prefix of node 3 to reach it.
    let dest = Address::short(assignments[3].prefix, FuId::ZERO);
    bus.queue(0, Message::new(dest, vec![0xCA, 0xFE])).unwrap();
    bus.run_transaction().unwrap();
    let rx = bus.take_rx(3);
    assert_eq!(rx.len(), 1);
    assert_eq!(rx[0].payload, vec![0xCA, 0xFE]);
}

#[test]
fn sample_period_is_respected() {
    let mut sys = TemperatureSystem::new(Routing::Direct);
    sys.run_events(4);
    // Four 15 s periods elapsed.
    let elapsed = sys.bus().now().as_secs_f64();
    assert!((elapsed - 60.0).abs() < 0.1, "{elapsed}");
}

#[test]
fn imager_single_vs_rows_tradeoff() {
    // One message saves 3,021 bits of overhead but locks the bus for
    // the whole frame; rows cost 1.31 % more and interleave. Both are
    // lossless; the analysis quantifies the tradeoff.
    let mut single = ImagerSystem::new();
    single.motion_detected();
    single.transfer_single_message();
    let single_cycles = single.bus().stats().busy_cycles;

    let mut rows = ImagerSystem::new();
    rows.motion_detected();
    rows.transfer_row_by_row();
    let rows_cycles = rows.bus().stats().busy_cycles;

    assert_eq!(rows_cycles - single_cycles, 3_021, "the paper's extra bits");
}
