//! Reactive node behaviors: delivery-triggered programmed responses.
//!
//! Every workload below this module is *open-loop* — scripted queues
//! drain to quiescence. A [`NodeBehavior`] closes the loop: it is a
//! small deterministic rule attached to a node in a
//! [`Workload`](crate::scenario::Workload) or
//! [`FleetWorkload`](crate::fleet::FleetWorkload) that turns each
//! *delivery* to that node into programmed response traffic — the §6.3
//! application shapes (request/response, aggregate-and-ack, alarm
//! cascades) the bus exists to serve.
//!
//! Behaviors live **above** the two engines. The scenario layer
//! consults the table only at quiescence barriers — the same points
//! where gateway envelopes already route — drains the behavior nodes'
//! receive logs, and enqueues the responses through the ordinary
//! `queue` API. The engines never see a behavior; they see more queued
//! traffic. That placement is what keeps the conformance story intact:
//!
//! * **Engine-independence.** Responses are computed from drained
//!   [`ReceivedMessage`](crate::engine::ReceivedMessage)s, which every
//!   engine produces identically (that *is* the conformance contract),
//!   so the injected traffic — and therefore the extended record
//!   stream — is identical on the analytic and wire engines.
//! * **Schedule-independence.** Injection happens only when the bus
//!   (or the whole fleet) is quiescent, so every schedule reaches the
//!   identical pre-injection state, injects the identical batch, and
//!   drains again: every shard count's stream stays pinned.
//! * **Termination.** Behaviors can feed each other (two `Reply`
//!   nodes, a cascade loop), so each drain step runs at most
//!   [`DEFAULT_REPLY_HORIZON`] (configurable per workload) injection
//!   rounds; traffic still pending after the horizon simply stays in
//!   the receive logs, deterministically, on every engine.
//!
//! # Determinism rules
//!
//! Responses are a pure function of the drained deliveries and the
//! behavior table, evaluated in node order:
//!
//! * a node never responds to its own transmissions (self-deliveries
//!   via broadcast are skipped);
//! * a trigger whose payload *leads with a 4-byte encoded full
//!   address* ([`return_address`]) is answered to that address — the
//!   request/response idiom: the requester writes its own return
//!   address into the first four payload bytes;
//! * otherwise the response goes to the bus-level transmitter
//!   (`ReceivedMessage::from`), except that replies which would land
//!   on a gateway's reserved forwarding port are suppressed (a
//!   forwarded leg's bus-level sender is the gateway presence —
//!   answering its fu 0 would forge an envelope);
//! * [`NodeBehavior::AggregateAck`] keeps one per-node counter for the
//!   whole workload run (it does not reset at drain steps).
#![allow(clippy::len_without_is_empty)]

use crate::addr::{Address, FuId, FullPrefix};

/// Default bound on reply-injection rounds per drain step. Each round
/// drains every behavior node's receive log, queues all responses, and
/// re-drains the bus; cascade loops therefore terminate after at most
/// this many generations per drain step.
pub const DEFAULT_REPLY_HORIZON: u32 = 8;

/// Largest response payload a behavior may carry — far below any legal
/// bus maximum, so injected replies can never be rejected for length.
pub const MAX_BEHAVIOR_PAYLOAD: usize = 64;

/// A deterministic delivery-triggered behavior, attached per node by
/// [`Workload::behavior`](crate::scenario::Workload::behavior) /
/// [`FleetWorkload::behavior`](crate::fleet::FleetWorkload::behavior).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum NodeBehavior {
    /// The default: deliveries trigger nothing. Attaching `Inert`
    /// removes a node's table entry.
    #[default]
    Inert,
    /// Answer every trigger with one response message — the
    /// request/response shape.
    Reply {
        /// Destination functional unit of the response (used when the
        /// trigger carries no return address; a return address's own
        /// fu wins otherwise).
        fu: FuId,
        /// The response payload.
        payload: Vec<u8>,
    },
    /// Answer every `n`-th trigger with one acknowledgment — the
    /// aggregate-and-ack fan-in shape. The trigger counter persists
    /// across drain steps within one workload run.
    AggregateAck {
        /// Ack every `n`-th delivery (`n >= 1`; `1` acks everything).
        n: u32,
        /// Destination functional unit of the ack (return-address fu
        /// wins when present).
        fu: FuId,
        /// The ack payload.
        payload: Vec<u8>,
    },
    /// Re-broadcast every trigger to `fanout` ring (or cluster)
    /// successors — the alarm-cascade shape. Successors are the next
    /// `fanout` nodes after the behavior node in declaration order
    /// (wrapping; the node itself is skipped); at the fleet layer,
    /// the next `fanout` *clusters* (own cluster skipped).
    AlarmCascade {
        /// How many successors each trigger propagates to (`>= 1`).
        fanout: u8,
        /// Destination functional unit of the propagated alarms.
        fu: FuId,
        /// The alarm payload.
        payload: Vec<u8>,
    },
}

impl NodeBehavior {
    /// Whether this behavior is [`NodeBehavior::Inert`].
    pub fn is_inert(&self) -> bool {
        matches!(self, NodeBehavior::Inert)
    }

    /// The response payload (empty for `Inert`).
    pub fn payload(&self) -> &[u8] {
        match self {
            NodeBehavior::Inert => &[],
            NodeBehavior::Reply { payload, .. }
            | NodeBehavior::AggregateAck { payload, .. }
            | NodeBehavior::AlarmCascade { payload, .. } => payload,
        }
    }

    /// The response functional unit ([`FuId::ZERO`] for `Inert`).
    pub fn fu(&self) -> FuId {
        match self {
            NodeBehavior::Inert => FuId::ZERO,
            NodeBehavior::Reply { fu, .. }
            | NodeBehavior::AggregateAck { fu, .. }
            | NodeBehavior::AlarmCascade { fu, .. } => *fu,
        }
    }

    /// Panics unless the behavior's parameters are in range — called
    /// by the workload builders so a bad table is a construction-time
    /// error, not a mid-drain surprise.
    pub(crate) fn validate(&self) {
        assert!(
            self.payload().len() <= MAX_BEHAVIOR_PAYLOAD,
            "behavior payload exceeds {MAX_BEHAVIOR_PAYLOAD} bytes"
        );
        match self {
            NodeBehavior::AggregateAck { n, .. } => {
                assert!(*n >= 1, "AggregateAck acks every n-th trigger; n >= 1")
            }
            NodeBehavior::AlarmCascade { fanout, .. } => {
                assert!(
                    *fanout >= 1,
                    "AlarmCascade propagates to fanout >= 1 successors"
                )
            }
            _ => {}
        }
    }
}

/// Extracts the *return address* convention from a trigger payload:
/// its first four bytes, when they decode as an encoded
/// [`Address::Full`]. Requesters that want a directed response embed
/// their own full address there (exactly the gateway envelope header
/// encoding, so fleet-level requests can round-trip the responder
/// through the mesh).
pub fn return_address(payload: &[u8]) -> Option<(FullPrefix, FuId)> {
    if payload.len() < 4 {
        return None;
    }
    match Address::decode(&payload[..4]) {
        Ok(Address::Full { prefix, fu_id }) => Some((prefix, fu_id)),
        _ => None,
    }
}

/// Encodes the [`return_address`] header for a request payload:
/// `encode(full, fu) ++ rest`. The counterpart the §6.3 request
/// scenarios use to ask for directed replies.
pub fn with_return_address(prefix: FullPrefix, fu: FuId, rest: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(4 + rest.len());
    bytes.extend_from_slice(&Address::full(prefix, fu).encode());
    bytes.extend_from_slice(rest);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn return_address_round_trips() {
        let prefix = FullPrefix::new(0x00042).unwrap();
        let fu = FuId::new(0x3).unwrap();
        let payload = with_return_address(prefix, fu, &[9, 8]);
        assert_eq!(return_address(&payload), Some((prefix, fu)));
        assert_eq!(&payload[4..], &[9, 8]);
        assert_eq!(return_address(&[1, 2, 3]), None);
        assert_eq!(return_address(&[0x12, 0x34, 0x56, 0x78]), None);
    }

    #[test]
    fn validation_bounds() {
        NodeBehavior::Reply {
            fu: FuId::ZERO,
            payload: vec![0; MAX_BEHAVIOR_PAYLOAD],
        }
        .validate();
        assert!(std::panic::catch_unwind(|| {
            NodeBehavior::Reply {
                fu: FuId::ZERO,
                payload: vec![0; MAX_BEHAVIOR_PAYLOAD + 1],
            }
            .validate()
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            NodeBehavior::AggregateAck {
                n: 0,
                fu: FuId::ZERO,
                payload: vec![],
            }
            .validate()
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            NodeBehavior::AlarmCascade {
                fanout: 0,
                fu: FuId::ZERO,
                payload: vec![],
            }
            .validate()
        })
        .is_err());
    }
}
