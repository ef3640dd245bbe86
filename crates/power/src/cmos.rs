//! CMOS switching-energy accounting over wire-level traces.
//!
//! The wire-level engine records every CLK/DATA transition; charging a
//! segment's capacitance to `V` and dumping it again costs `½CV²` per
//! transition at the driver. This is the same interface-level
//! abstraction PrimeTime applies in the paper's §6.2 simulation.

use mbus_core::engine::BusStats;
use mbus_core::wire::WireBus;
use mbus_sim::{NetId, Trace};

use crate::units::{Capacitance, Energy};

/// Electrical parameters of one ring segment (driver pad → wire →
/// receiver pad).
///
/// The defaults are the paper's §6.2 simulation parameters: 1.2 V,
/// "a conservative pad model, estimating 2 pF per pad", 0.25 pF of
/// wire.
///
/// # Example
///
/// ```
/// use mbus_power::cmos::SegmentModel;
///
/// let seg = SegmentModel::default();
/// assert!((seg.capacitance().as_pf() - 4.25).abs() < 1e-9);
/// // One full transition: ½ × 4.25 pF × 1.2² ≈ 3.06 pJ.
/// assert!((seg.energy_per_edge().as_pj() - 3.06).abs() < 0.01);
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SegmentModel {
    /// Supply voltage.
    pub vdd: f64,
    /// Capacitance of one bonding pad.
    pub pad: Capacitance,
    /// Capacitance of the wire between pads.
    pub wire: Capacitance,
}

impl Default for SegmentModel {
    fn default() -> Self {
        SegmentModel {
            vdd: 1.2,
            pad: Capacitance::from_pf(2.0),
            wire: Capacitance::from_pf(0.25),
        }
    }
}

impl SegmentModel {
    /// Total switched capacitance per segment: driver pad + wire +
    /// receiver pad.
    pub fn capacitance(&self) -> Capacitance {
        self.pad + self.wire + self.pad
    }

    /// Energy charged to the driver per transition: ½CV².
    pub fn energy_per_edge(&self) -> Energy {
        self.capacitance().stored_energy(self.vdd)
    }
}

/// Energy accounting for one wire-level bus run.
#[derive(Clone, Debug)]
pub struct EnergyReport {
    /// Energy charged per CLK segment, in ring order.
    pub clk_segments: Vec<Energy>,
    /// Energy charged per DATA segment, in ring order.
    pub data_segments: Vec<Energy>,
}

impl EnergyReport {
    /// Total switching energy over both rings.
    pub fn total(&self) -> Energy {
        self.clk_segments.iter().copied().sum::<Energy>()
            + self.data_segments.iter().copied().sum::<Energy>()
    }

    /// Energy charged to the driver of ring position `i` (the mediator
    /// drives segment 0; member `i` drives segment `i + 1`).
    pub fn driver_energy(&self, i: usize) -> Energy {
        self.clk_segments[i] + self.data_segments[i]
    }
}

/// Charges every counted transition on the given nets against the
/// segment model.
pub fn account_trace(
    trace: &Trace,
    clk: &[NetId],
    data: &[NetId],
    seg: &SegmentModel,
) -> EnergyReport {
    let per_edge = seg.energy_per_edge();
    let charge = |nets: &[NetId]| -> Vec<Energy> {
        nets.iter()
            .map(|&n| per_edge * trace.edge_count(n) as f64)
            .collect()
    };
    EnergyReport {
        clk_segments: charge(clk),
        data_segments: charge(data),
    }
}

/// Convenience: account every ring segment of a [`WireBus`] from its
/// edge counts.
pub fn account_bus(bus: &WireBus, seg: &SegmentModel) -> EnergyReport {
    account_trace(bus.trace(), bus.clk_nets(), bus.data_nets(), seg)
}

/// Per-member driver energy from a [`BusStats`] snapshot — the
/// engine-trait route into the §6.2 model.
///
/// `stats.segment_edges[i]` already folds CLK and DATA transitions on
/// the segment member `i` drives, so any [`BusEngine`] run that fills
/// it (the wire engine does) can be charged without keeping the bus
/// and its per-net [`Trace`] alive. The mediator's own drive energy
/// (segment 0) is not attributed to any member and is therefore absent
/// here — use [`account_bus`] when the frontend matters.
///
/// [`BusEngine`]: mbus_core::engine::BusEngine
pub fn driver_energy_from_stats(stats: &BusStats, seg: &SegmentModel) -> Vec<Energy> {
    let per_edge = seg.energy_per_edge();
    stats
        .segment_edges
        .iter()
        .map(|&edges| per_edge * edges as f64)
        .collect()
}

/// First-principles estimate of MBus energy per bit per chip: two CLK
/// transitions per bit plus `data_activity` DATA transitions, each
/// charging one segment.
///
/// With the paper's stated 2 pF pads this yields ≈ 7.6 pJ/bit/chip —
/// about 2.2× the paper's 3.5 pJ PrimeTime result; EXPERIMENTS.md
/// discusses the gap (their post-APR netlist evidently sees less
/// effective pad capacitance than the "conservative" 2 pF estimate).
pub fn mbus_bit_energy_estimate(seg: &SegmentModel, data_activity: f64) -> Energy {
    seg.energy_per_edge() * (2.0 + data_activity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbus_core::wire::WireBusBuilder;
    use mbus_core::{Address, BusConfig, FuId, FullPrefix, NodeSpec, ShortPrefix};

    fn two_node_bus() -> WireBus {
        WireBusBuilder::new(BusConfig::default())
            .node(
                NodeSpec::new("a", FullPrefix::new(0x1).unwrap())
                    .with_short_prefix(ShortPrefix::new(0x1).unwrap()),
            )
            .node(
                NodeSpec::new("b", FullPrefix::new(0x2).unwrap())
                    .with_short_prefix(ShortPrefix::new(0x2).unwrap()),
            )
            .build()
    }

    #[test]
    fn idle_bus_consumes_nothing() {
        let bus = two_node_bus();
        let report = account_bus(&bus, &SegmentModel::default());
        assert_eq!(report.total().as_pj(), 0.0);
    }

    #[test]
    fn transaction_energy_scales_with_length() {
        let seg = SegmentModel::default();
        let mut short = two_node_bus();
        short
            .send_and_run(
                0,
                Address::short(ShortPrefix::new(0x2).unwrap(), FuId::ZERO),
                vec![0xAA; 1],
            )
            .unwrap();
        let e_short = account_bus(&short, &seg).total();

        let mut long = two_node_bus();
        long.send_and_run(
            0,
            Address::short(ShortPrefix::new(0x2).unwrap(), FuId::ZERO),
            vec![0xAA; 32],
        )
        .unwrap();
        let e_long = account_bus(&long, &seg).total();

        assert!(e_long > e_short * 2.0, "{e_long} vs {e_short}");
    }

    #[test]
    fn clock_dominates_for_sparse_data() {
        // An all-zeros payload after the address toggles DATA rarely;
        // CLK toggles twice per cycle everywhere.
        let seg = SegmentModel::default();
        let mut bus = two_node_bus();
        bus.send_and_run(
            0,
            Address::short(ShortPrefix::new(0x2).unwrap(), FuId::ZERO),
            vec![0x00; 16],
        )
        .unwrap();
        let report = account_bus(&bus, &seg);
        let clk: Energy = report.clk_segments.iter().copied().sum();
        let data: Energy = report.data_segments.iter().copied().sum();
        assert!(clk.as_pj() > 3.0 * data.as_pj(), "clk {clk} data {data}");
    }

    #[test]
    fn per_bit_estimate_bounds_measured_trace() {
        // The analytic per-bit estimate should be within 2× of what the
        // traced run actually charges per bit per hop.
        let seg = SegmentModel::default();
        let payload = 64usize;
        let mut bus = two_node_bus();
        bus.send_and_run(
            0,
            Address::short(ShortPrefix::new(0x2).unwrap(), FuId::ZERO),
            (0..payload as u8)
                .map(|i| i.wrapping_mul(37))
                .take(payload)
                .collect(),
        )
        .unwrap();
        let report = account_bus(&bus, &seg);
        let cycles = (19 + 8 * payload) as f64;
        let hops = 3.0; // 2 members + mediator each drive one segment pair
        let traced_per_bit_chip = report.total() / (cycles * hops);
        let estimate = mbus_bit_energy_estimate(&seg, 0.5);
        let ratio = traced_per_bit_chip / estimate;
        assert!(ratio > 0.4 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn stats_route_matches_trace_route_per_member() {
        // The trait-level path (BusStats::segment_edges → energy) must
        // charge each member exactly what the full-trace path charges
        // its driven segment pair.
        use mbus_core::engine::BusEngine;
        use mbus_core::wire::WireEngine;

        let seg = SegmentModel::default();
        let mut e = WireEngine::new(BusConfig::default());
        for i in 0..3u32 {
            e.add_node(
                NodeSpec::new(format!("n{i}"), FullPrefix::new(0x10 + i).unwrap())
                    .with_short_prefix(ShortPrefix::new((i + 1) as u8).unwrap()),
            );
        }
        e.queue(
            0,
            mbus_core::Message::new(
                Address::short(ShortPrefix::new(0x2).unwrap(), FuId::ZERO),
                vec![0xC3; 6],
            ),
        )
        .unwrap();
        e.run_until_quiescent();

        let from_stats = driver_energy_from_stats(&e.stats(), &seg);
        let report = account_bus(e.wire_bus().unwrap(), &seg);
        assert_eq!(from_stats.len(), 3);
        for (i, &energy) in from_stats.iter().enumerate() {
            // Member i drives segment i + 1 (the mediator drives 0).
            let traced = report.driver_energy(i + 1);
            assert!(
                (energy.as_pj() - traced.as_pj()).abs() < 1e-9,
                "member {i}: stats {energy} vs trace {traced}"
            );
        }
        assert!(from_stats.iter().any(|e| e.as_pj() > 0.0));
    }

    #[test]
    fn driver_attribution_covers_total() {
        let seg = SegmentModel::default();
        let mut bus = two_node_bus();
        bus.send_and_run(
            0,
            Address::short(ShortPrefix::new(0x2).unwrap(), FuId::ZERO),
            vec![0x5A; 8],
        )
        .unwrap();
        let report = account_bus(&bus, &seg);
        let by_driver: Energy = (0..report.clk_segments.len())
            .map(|i| report.driver_energy(i))
            .sum();
        assert!((by_driver.as_pj() - report.total().as_pj()).abs() < 1e-9);
    }
}
