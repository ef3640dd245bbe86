//! The paper's modelled energy per delivered bit, applied to a fleet
//! run.
//!
//! Every bus-clock bit a node transmits, receives or forwards is
//! charged at its Table 3 role energy
//! ([`mbus_power::mbus_model`]`::MEASURED_*_PJ_PER_BIT`); the sum over
//! every node of every cluster is divided by the payload bits delivered
//! to any layer. Gateway envelope legs are charged but their payloads
//! are not counted as delivered, so the figure includes the cost of
//! bridging. The value is simulated and deterministic: it moves only
//! when the modelled traffic moves.

use mbus_core::{BusStats, FleetReport};
use mbus_power::mbus_model::{
    MEASURED_FWD_PJ_PER_BIT, MEASURED_RX_PJ_PER_BIT, MEASURED_TX_PJ_PER_BIT,
};

/// Total role energy of `stats`, in pJ.
pub fn role_energy_pj(stats: &[BusStats]) -> f64 {
    let (mut tx, mut rx, mut fwd) = (0u64, 0u64, 0u64);
    for s in stats {
        tx += s.tx_bits.iter().sum::<u64>();
        rx += s.rx_bits.iter().sum::<u64>();
        fwd += s.fwd_bits.iter().sum::<u64>();
    }
    tx as f64 * MEASURED_TX_PJ_PER_BIT
        + rx as f64 * MEASURED_RX_PJ_PER_BIT
        + fwd as f64 * MEASURED_FWD_PJ_PER_BIT
}

/// Payload bits delivered to any node's layer across the fleet.
pub fn delivered_payload_bits(report: &FleetReport) -> u64 {
    report
        .rx
        .iter()
        .flatten()
        .flatten()
        .map(|m| 8 * m.payload.len() as u64)
        .sum()
}

/// Modelled pJ per delivered payload bit of one fleet run (0 when
/// nothing was delivered).
pub fn pj_per_delivered_bit(report: &FleetReport) -> f64 {
    let bits = delivered_payload_bits(report);
    if bits == 0 {
        return 0.0;
    }
    role_energy_pj(&report.stats) / bits as f64
}
