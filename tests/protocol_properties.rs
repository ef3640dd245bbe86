//! Property-style tests over the MBus protocol invariants.
//!
//! Cases are generated with `mbus_sim::SmallRng` (no external
//! property-testing crate is available in the build image); each case
//! derives from a printed seed so failures reproduce exactly.

use mbus_core::message::bits_to_bytes;
use mbus_core::wire::WireBusBuilder;
use mbus_core::{
    enumeration, timing, Address, AnalyticBus, BusConfig, FuId, FullPrefix, Message, NodeSpec,
    ParallelMbus, ShortPrefix,
};
use mbus_sim::SmallRng;

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

fn random_short_addr(rng: &mut SmallRng) -> Address {
    let p = rng.gen_range(1..0xF) as u8;
    let f = rng.gen_range(0..0x10) as u8;
    Address::short(sp(p), FuId::new(f).unwrap())
}

fn random_addr(rng: &mut SmallRng) -> Address {
    match rng.gen_index(0..3) {
        0 => random_short_addr(rng),
        1 => Address::full(
            FullPrefix::new(rng.gen_range(0..1 << 20) as u32).unwrap(),
            FuId::new(rng.gen_range(0..0x10) as u8).unwrap(),
        ),
        _ => Address::broadcast(
            mbus_core::BroadcastChannel::new(rng.gen_range(0..0x10) as u8).unwrap(),
        ),
    }
}

/// Every address survives the wire encoding round trip.
#[test]
fn address_codec_round_trips() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let addr = random_addr(&mut rng);
        let bytes = addr.encode();
        let decoded = Address::decode(&bytes).unwrap();
        assert_eq!(addr, decoded, "seed {seed}");
        assert_eq!(bytes.len() as u32 * 8, addr.wire_bits(), "seed {seed}");
    }
}

/// Message bit streams are byte-aligned and reassemble exactly.
#[test]
fn message_bits_round_trip() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let addr = random_short_addr(&mut rng);
        let len = rng.gen_index(0..64);
        let payload = rng.gen_bytes(len);
        let msg = Message::new(addr, payload.clone());
        let bits = msg.to_bits();
        assert_eq!(bits.len() % 8, 0, "seed {seed}");
        let (bytes, dropped) = bits_to_bytes(&bits);
        assert_eq!(dropped, 0, "seed {seed}");
        assert_eq!(&bytes[1..], payload.as_slice(), "seed {seed}");
    }
}

/// §4.9: receivers discard up to 7 trailing bits; the whole bytes
/// always survive.
#[test]
fn byte_alignment_discards_only_the_tail() {
    for seed in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(2000 + seed);
        let len = rng.gen_index(0..32);
        let payload = rng.gen_bytes(len);
        let extra = rng.gen_index(0..8);
        let mut bits: Vec<bool> = payload
            .iter()
            .flat_map(|&b| (0..8).map(move |i| b & (0x80 >> i) != 0))
            .collect();
        bits.extend(std::iter::repeat_n(true, extra));
        let (bytes, dropped) = bits_to_bytes(&bits);
        assert_eq!(bytes, payload, "seed {seed}");
        assert_eq!(dropped, extra, "seed {seed}");
    }
}

/// The analytic engine's cycle count always equals the §6.1 budget for
/// deliverable messages.
#[test]
fn analytic_cycles_match_budget() {
    for seed in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(3000 + seed);
        let len = rng.gen_index(0..200);
        let payload = rng.gen_bytes(len);
        let full = rng.gen_bool();
        let mut bus = AnalyticBus::new(BusConfig::default());
        bus.add_node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)));
        bus.add_node(NodeSpec::new("b", FullPrefix::new(0x2).unwrap()).with_short_prefix(sp(0x2)));
        let dest = if full {
            Address::full(FullPrefix::new(0x2).unwrap(), FuId::ZERO)
        } else {
            Address::short(sp(0x2), FuId::ZERO)
        };
        let msg = Message::new(dest, payload);
        bus.queue(0, msg.clone()).unwrap();
        let record = bus.run_transaction().unwrap();
        assert_eq!(
            record.cycles,
            timing::transaction_cycles(&msg) as u64,
            "seed {seed}"
        );
    }
}

/// Arbitration winner is always the topologically-first contender (no
/// priority messages involved).
#[test]
fn arbitration_is_topological() {
    for seed in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(4000 + seed);
        let n = rng.gen_index(5..9);
        let contenders: Vec<bool> = (0..n).map(|_| rng.gen_bool()).collect();
        if !contenders.iter().any(|&c| c) {
            continue;
        }
        let mut bus = AnalyticBus::new(BusConfig::default());
        for i in 0..n {
            bus.add_node(
                NodeSpec::new(format!("n{i}"), FullPrefix::new(0x400 + i as u32).unwrap())
                    .with_short_prefix(sp((i + 1) as u8)),
            );
        }
        let first = contenders.iter().position(|&c| c).unwrap();
        let dest = Address::short(sp(((first + 1) % n + 1) as u8), FuId::ZERO);
        for (i, &wants) in contenders.iter().enumerate() {
            if wants {
                bus.queue(i, Message::new(dest, vec![i as u8])).unwrap();
            }
        }
        let record = bus.run_transaction().unwrap();
        assert_eq!(record.winner, Some(first), "seed {seed}");
    }
}

/// Parallel-MBus striping is lossless for every lane count.
#[test]
fn parallel_stripe_round_trips() {
    for seed in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(5000 + seed);
        let wires = rng.gen_range(1..9) as u32;
        let len = rng.gen_index(0..64);
        let payload = rng.gen_bytes(len);
        let p = ParallelMbus::new(wires).unwrap();
        let lanes = p.stripe(&payload);
        let bits = p.destripe(&lanes, payload.len() * 8);
        let (bytes, dropped) = bits_to_bytes(&bits);
        assert_eq!(dropped, 0, "seed {seed}");
        assert_eq!(bytes, payload, "seed {seed}");
    }
}

/// Enumeration always assigns unique prefixes in topological order, for
/// any population that fits.
#[test]
fn enumeration_is_unique_and_ordered() {
    for n in 1usize..=14 {
        let mut bus = AnalyticBus::new(BusConfig::default());
        for i in 0..n {
            bus.add_node(NodeSpec::new(
                format!("chip{i}"),
                FullPrefix::new(0x500 + i as u32).unwrap(),
            ));
        }
        let assignments = enumeration::enumerate(&mut bus, 0).unwrap();
        assert_eq!(assignments.len(), n);
        for (k, a) in assignments.iter().enumerate() {
            assert_eq!(a.node, k);
            assert_eq!(a.prefix.raw() as usize, k + 1);
        }
    }
}

/// MBus overhead is payload-independent; length-dependent protocols
/// always cross it eventually (Fig. 10's structure).
#[test]
fn overhead_crossover_exists() {
    for per_byte in 1u32..4 {
        let mbus = timing::SHORT_OVERHEAD_CYCLES;
        let crossover = (0..200).find(|&n| per_byte * n > mbus);
        assert!(crossover.is_some());
        let n = crossover.unwrap();
        assert!(per_byte * (n - 1) <= mbus);
    }
}

/// Any payload crosses the wire-level ring intact — the end-to-end
/// integrity property that subsumes glitch, latch-timing, and alignment
/// concerns. (Wire-level cases are slower; fewer but still meaningful.)
#[test]
fn wire_engine_delivers_arbitrary_payloads() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(6000 + seed);
        let len = rng.gen_index(0..48);
        let payload = rng.gen_bytes(len);
        let sender = rng.gen_index(0..3);
        let mut bus = WireBusBuilder::new(BusConfig::default())
            .node(NodeSpec::new("a", FullPrefix::new(0x1).unwrap()).with_short_prefix(sp(0x1)))
            .node(NodeSpec::new("b", FullPrefix::new(0x2).unwrap()).with_short_prefix(sp(0x2)))
            .node(NodeSpec::new("c", FullPrefix::new(0x3).unwrap()).with_short_prefix(sp(0x3)))
            .build();
        let dest_node = (sender + 1) % 3;
        let dest = Address::short(sp((dest_node + 1) as u8), FuId::ZERO);
        bus.queue(sender, Message::new(dest, payload.clone()))
            .unwrap();
        let records = bus.run_until_quiescent();
        assert!(!records.is_empty(), "seed {seed}");
        let rx = bus.take_rx(dest_node);
        assert_eq!(rx.len(), 1, "seed {seed}");
        assert_eq!(&rx[0].payload, &payload, "seed {seed}");
    }
}
