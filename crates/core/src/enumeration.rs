//! Run-time enumeration of short prefixes (§4.7).
//!
//! "Enumeration is a series of broadcast messages containing short
//! prefixes that can be sent by any node […]. All unassigned nodes
//! attempt to reply with an identification message and the arbitration
//! winner is assigned the enumerated short prefix. A result of this
//! enumeration protocol is that a node's short prefix encodes its
//! topological priority."

use crate::addr::{Address, BroadcastChannel, ShortPrefix};
use crate::analytic::AnalyticBus;
use crate::engine::NodeIndex;
use crate::error::MbusError;
use crate::message::Message;

/// Command byte on the discovery channel asking unassigned nodes to
/// identify themselves for the given short prefix.
pub const CMD_ENUMERATE: u8 = 0x01;
/// Command byte carrying an identification reply (full prefix follows).
pub const CMD_IDENTIFY: u8 = 0x02;

/// One prefix assignment produced by enumeration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Assignment {
    /// The node that replied and won arbitration.
    pub node: NodeIndex,
    /// The short prefix it now owns.
    pub prefix: ShortPrefix,
}

/// Runs the enumeration protocol from `initiator` (usually the
/// mediator-attached microcontroller) until every node has a short
/// prefix or the namespace is exhausted.
///
/// Each round is two bus transactions — the enumerate broadcast and the
/// winning identification reply — exactly the traffic a real system
/// would see, so enumeration cost shows up in the bus statistics.
///
/// # Errors
///
/// * [`MbusError::UnknownNode`] if `initiator` is out of range.
/// * [`MbusError::PrefixesExhausted`] if more than 14 nodes need
///   prefixes.
///
/// # Example
///
/// ```
/// use mbus_core::{enumeration, AnalyticBus, BusConfig, FullPrefix, NodeSpec};
///
/// let mut bus = AnalyticBus::new(BusConfig::default());
/// bus.add_node(NodeSpec::new("cpu", FullPrefix::new(0x00001)?));
/// bus.add_node(NodeSpec::new("sensor", FullPrefix::new(0x00002)?));
/// let assignments = enumeration::enumerate(&mut bus, 0)?;
/// assert_eq!(assignments.len(), 2);
/// // Topological order: node 0 gets 0x1, node 1 gets 0x2.
/// assert_eq!(assignments[0].prefix.raw(), 0x1);
/// assert_eq!(assignments[1].prefix.raw(), 0x2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn enumerate(
    bus: &mut AnalyticBus,
    initiator: NodeIndex,
) -> Result<Vec<Assignment>, MbusError> {
    if initiator >= bus.node_count() {
        return Err(MbusError::UnknownNode { index: initiator });
    }
    let mut assignments = Vec::new();
    // Prefixes not already statically assigned, in ascending order.
    let taken: Vec<ShortPrefix> = (0..bus.node_count())
        .filter_map(|i| bus.spec(i).short_prefix())
        .collect();
    let mut free = ShortPrefix::all().filter(move |p| !taken.contains(p));

    loop {
        let unassigned: Vec<NodeIndex> = (0..bus.node_count())
            .filter(|&i| bus.spec(i).short_prefix().is_none())
            .collect();
        if unassigned.is_empty() {
            return Ok(assignments);
        }
        let Some(prefix) = free.next() else {
            return Err(MbusError::PrefixesExhausted);
        };

        // Round part 1: the enumerate broadcast.
        bus.queue(
            initiator,
            Message::new(
                Address::broadcast(BroadcastChannel::DISCOVERY),
                vec![CMD_ENUMERATE, prefix.raw()],
            ),
        )?;
        bus.run_transaction();

        // Round part 2: every unassigned node replies; topological
        // arbitration picks the winner. We queue all replies and let the
        // engine arbitrate — the losers' replies are withdrawn once
        // they see the winner claim the prefix (modelled by clearing
        // their queues after the transaction).
        for &i in &unassigned {
            let payload = identification_payload(bus, i);
            bus.queue(
                i,
                Message::new(Address::broadcast(BroadcastChannel::DISCOVERY), payload),
            )?;
        }
        let record = bus
            .run_transaction()
            .expect("identification transaction must run");
        let winner = record.winner.expect("identification has a winner");
        debug_assert_eq!(
            winner,
            *unassigned.iter().min().expect("nonempty"),
            "enumeration winner must be the topologically first node"
        );
        bus.spec_mut(winner).assign_short_prefix(prefix);
        assignments.push(Assignment {
            node: winner,
            prefix,
        });

        // Losers withdraw their pending identification replies.
        withdraw_identifications(bus, &unassigned, winner);
    }
}

fn identification_payload(bus: &AnalyticBus, node: NodeIndex) -> Vec<u8> {
    let full = bus.spec(node).full_prefix().raw();
    vec![
        CMD_IDENTIFY,
        (full >> 16) as u8,
        (full >> 8) as u8,
        full as u8,
    ]
}

fn withdraw_identifications(bus: &mut AnalyticBus, contenders: &[NodeIndex], winner: NodeIndex) {
    // Each loser pops its stale identification message. In hardware the
    // bus controller withdraws the pending reply when it sees another
    // node claim the prefix; here we run the queues dry equivalently.
    for &i in contenders {
        if i != winner {
            // Drain exactly one message (the identification reply).
            let _ = drain_one(bus, i);
        }
    }
}

fn drain_one(bus: &mut AnalyticBus, node: NodeIndex) -> bool {
    bus.withdraw_front(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::FullPrefix;
    use crate::config::BusConfig;
    use crate::node::NodeSpec;

    fn bus_with(n: usize) -> AnalyticBus {
        let mut bus = AnalyticBus::new(BusConfig::default());
        for i in 0..n {
            bus.add_node(NodeSpec::new(
                format!("chip{i}"),
                FullPrefix::new(0x100 + i as u32).unwrap(),
            ));
        }
        bus
    }

    #[test]
    fn prefixes_encode_topological_priority() {
        let mut bus = bus_with(5);
        let assignments = enumerate(&mut bus, 0).unwrap();
        assert_eq!(assignments.len(), 5);
        for (k, a) in assignments.iter().enumerate() {
            assert_eq!(a.node, k, "assignment order follows the ring");
            assert_eq!(a.prefix.raw(), (k + 1) as u8);
        }
    }

    #[test]
    fn static_prefixes_are_skipped_and_kept() {
        let mut bus = bus_with(3);
        bus.spec_mut(1)
            .assign_short_prefix(ShortPrefix::new(0x1).unwrap());
        let assignments = enumerate(&mut bus, 0).unwrap();
        assert_eq!(assignments.len(), 2);
        // 0x1 is taken; nodes 0 and 2 get 0x2 and 0x3.
        assert_eq!(assignments[0].node, 0);
        assert_eq!(assignments[0].prefix.raw(), 0x2);
        assert_eq!(assignments[1].node, 2);
        assert_eq!(assignments[1].prefix.raw(), 0x3);
        assert_eq!(bus.spec(1).short_prefix().unwrap().raw(), 0x1);
    }

    #[test]
    fn all_fourteen_prefixes_assignable() {
        let mut bus = bus_with(14);
        let assignments = enumerate(&mut bus, 0).unwrap();
        assert_eq!(assignments.len(), 14);
        let mut prefixes: Vec<u8> = assignments.iter().map(|a| a.prefix.raw()).collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 14, "assignments are unique");
    }

    #[test]
    fn fifteen_nodes_exhaust_the_namespace() {
        let mut bus = bus_with(15);
        assert_eq!(enumerate(&mut bus, 0), Err(MbusError::PrefixesExhausted));
    }

    #[test]
    fn enumeration_costs_two_transactions_per_node() {
        let mut bus = bus_with(4);
        enumerate(&mut bus, 0).unwrap();
        // 4 rounds × (1 broadcast + 1 identification).
        assert_eq!(bus.stats().transactions, 8);
        assert!(bus.run_transaction().is_none(), "queues fully drained");
    }

    #[test]
    fn already_enumerated_bus_is_a_no_op() {
        let mut bus = bus_with(2);
        enumerate(&mut bus, 0).unwrap();
        let before = bus.stats().transactions;
        let again = enumerate(&mut bus, 0).unwrap();
        assert!(again.is_empty());
        assert_eq!(bus.stats().transactions, before);
    }

    #[test]
    fn unknown_initiator_rejected() {
        let mut bus = bus_with(2);
        assert!(matches!(
            enumerate(&mut bus, 7),
            Err(MbusError::UnknownNode { index: 7 })
        ));
    }
}
