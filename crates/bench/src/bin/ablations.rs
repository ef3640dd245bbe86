//! Ablation studies for the design choices DESIGN.md calls out:
//! end-of-message mechanisms, the priority round, and message
//! coalescing.

use mbus_core::{
    timing, Address, AnalyticBus, BusConfig, BusEngine, FuId, FullPrefix, Message, NodeSpec,
    ShortPrefix,
};
use mbus_power::mbus_model::{energy_per_goodput_bit, Calibration};

fn sp(x: u8) -> ShortPrefix {
    ShortPrefix::new(x).unwrap()
}

fn main() {
    println!("=== Ablation 1: end-of-message mechanism ===\n");
    println!("overhead bits charged per n-byte message under three designs:");
    println!(
        "{:>8} {:>22} {:>22} {:>22}",
        "bytes", "interjection (MBus)", "16-bit length header", "per-byte ACK (I2C)"
    );
    for n in [1usize, 4, 8, 16, 64, 256, 1024, 28_800] {
        // Interjection: fixed 19. Length header: arb(3)+addr(8)+16-bit
        // header+control-ish(3) but no interjection needed -> 3+8+16+3.
        // Per-byte ACK: 10 + n (I2C framing).
        let interjection = timing::SHORT_OVERHEAD_CYCLES;
        let header = 3 + 8 + 16 + 3;
        let per_byte = 10 + n as u32;
        println!("{n:>8} {interjection:>22} {header:>22} {per_byte:>22}");
    }
    println!("\nthe length header beats interjection by 11 bits for a *known-length* message,");
    println!("but cannot end a message early (receiver error), cannot rescue a hung bus,");
    println!(
        "and caps message length at its field width — the paper's in-band reset argument (§4.9)."
    );

    println!("\n=== Ablation 2: priority round latency ===\n");
    // A far node (index 5) with an urgent message contends against a
    // stream from near node 1. Measure queue delay with and without
    // the priority flag.
    for priority in [false, true] {
        let mut bus = AnalyticBus::new(BusConfig::default());
        for i in 0..6 {
            bus.add_node(
                NodeSpec::new(format!("n{i}"), FullPrefix::new(0x800 + i).unwrap())
                    .with_short_prefix(sp((i + 1) as u8)),
            );
        }
        // Near node floods; far node has one urgent message.
        for k in 0..8u8 {
            bus.queue(
                1,
                Message::new(Address::short(sp(0x1), FuId::ZERO), vec![k; 32]),
            )
            .unwrap();
        }
        let urgent = Message::new(Address::short(sp(0x1), FuId::ZERO), vec![0xEE]);
        let urgent = if priority {
            urgent.with_priority()
        } else {
            urgent
        };
        bus.queue(5, urgent).unwrap();
        let records = bus.run_until_quiescent();
        let position = records
            .iter()
            .position(|r| r.winner == Some(5))
            .expect("urgent message sent");
        let wait_cycles: u64 = records[..position].iter().map(|r| r.cycles).sum();
        println!(
            "  priority={priority:<5}: urgent message was transaction #{}, waited {} bus cycles",
            position + 1,
            wait_cycles
        );
    }
    println!("\nwithout the priority round a topologically-last node waits out the whole flood.");

    println!("\n=== Ablation 3: message coalescing (Fig. 11b's advice) ===\n");
    println!("energy per goodput bit, 3-chip system, measured calibration:");
    for n in [1usize, 2, 4, 8, 16, 64] {
        let e = energy_per_goodput_bit(n, 3, Calibration::Measured);
        println!("  {n:>3}-byte messages: {:>8.1} pJ/bit", e.as_pj());
    }
    println!("\ncoalescing 1-byte updates into 8-byte batches cuts energy/bit by ~2.4x;");
    println!("\"systems should attempt to coalesce messages if possible\" (§6.2).");
}
