//! The two-cycle control phase that follows every interjection (§4.9).
//!
//! "MBus control is two cycles long and is used to express why the bus
//! was interjected, either an end-of-message that is ACK'd or NAK'd or
//! to express some type of error."

use std::fmt;

/// The decoded meaning of the two control bits.
///
/// Bit 0 is driven by the interjector on the first control cycle; bit 1
/// by the receiver on the second. Encoding (Fig. 7 and the MBus
/// specification):
///
/// * bit 0 **high** — the interjection marks a normal end of message;
///   bit 1 is then the receiver's acknowledgment, driven **low** to ACK.
/// * bit 0 **low** — a general error: receiver abort, no-winner null
///   transaction, or mediator length enforcement.
///
/// # Example
///
/// ```
/// use mbus_core::control::ControlBits;
///
/// let ctl = ControlBits::END_OF_MESSAGE_ACK;
/// assert!(ctl.is_end_of_message());
/// assert!(ctl.is_acked());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ControlBits {
    /// First control cycle: high = end-of-message.
    pub bit0: bool,
    /// Second control cycle: low = ACK (when `bit0` is high).
    pub bit1: bool,
}

impl ControlBits {
    /// Normal completion, receiver acknowledged.
    pub const END_OF_MESSAGE_ACK: ControlBits = ControlBits {
        bit0: true,
        bit1: false,
    };
    /// Normal completion, receiver refused (NAK).
    pub const END_OF_MESSAGE_NAK: ControlBits = ControlBits {
        bit0: true,
        bit1: true,
    };
    /// General error — receiver abort, null transaction, or mediator
    /// enforcement. Fig. 6 shows this pattern for the self-wakeup null
    /// transaction. Bit 1 reads low because nothing drives it after the
    /// interjector's low bit 0, and the ring circulates the last driven
    /// value.
    pub const GENERAL_ERROR: ControlBits = ControlBits {
        bit0: false,
        bit1: false,
    };

    /// True if the interjection was a normal end of message.
    pub fn is_end_of_message(self) -> bool {
        self.bit0
    }

    /// True if the receiver acknowledged (only meaningful for
    /// end-of-message control sequences).
    pub fn is_acked(self) -> bool {
        self.bit0 && !self.bit1
    }

    /// True for the general-error pattern.
    pub fn is_error(self) -> bool {
        !self.bit0
    }
}

impl fmt::Display for ControlBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_acked() {
            write!(f, "eom+ack")
        } else if self.is_end_of_message() {
            write!(f, "eom+nak")
        } else {
            write!(f, "general error")
        }
    }
}

/// The outcome of a completed transaction as seen by the transmitter —
/// the `TX_SUCC` / `TX_FAIL` signals of the Fig. 8 bus controller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxOutcome {
    /// Message delivered and acknowledged.
    Acked,
    /// Message delivered but the receiver NAK'd the control phase.
    Nacked,
    /// Transmission aborted: receiver interjected mid-message.
    ReceiverAbort,
    /// Transmission aborted: the mediator's maximum-message-length
    /// counter fired (§7 "Runaway Messages").
    LengthEnforced,
    /// No receiver matched the address; the message timed out into a
    /// mediator general error.
    NoDestination,
    /// Lost arbitration (still queued; will retry next idle period).
    LostArbitration,
    /// Interrupted by a higher-priority node's interjection after the
    /// 4-byte progress guarantee (§7).
    Interrupted,
}

impl TxOutcome {
    /// True if the payload fully reached an acknowledging receiver.
    pub fn is_success(self) -> bool {
        matches!(self, TxOutcome::Acked)
    }
}

impl fmt::Display for TxOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TxOutcome::Acked => "acked",
            TxOutcome::Nacked => "nacked",
            TxOutcome::ReceiverAbort => "receiver abort",
            TxOutcome::LengthEnforced => "length enforced",
            TxOutcome::NoDestination => "no destination",
            TxOutcome::LostArbitration => "lost arbitration",
            TxOutcome::Interrupted => "interrupted",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eom_ack_encoding_matches_fig7() {
        // Fig. 7: "The transmitter signals a complete message by driving
        // Control Bit 0 high. The receiver ACK's the message by driving
        // Control Bit 1 low."
        let ctl = ControlBits::END_OF_MESSAGE_ACK;
        assert!(ctl.bit0);
        assert!(!ctl.bit1);
        assert!(ctl.is_acked());
        assert!(!ctl.is_error());
    }

    #[test]
    fn nak_and_error_are_distinct() {
        assert!(ControlBits::END_OF_MESSAGE_NAK.is_end_of_message());
        assert!(!ControlBits::END_OF_MESSAGE_NAK.is_acked());
        assert!(ControlBits::GENERAL_ERROR.is_error());
        assert_ne!(ControlBits::END_OF_MESSAGE_NAK, ControlBits::GENERAL_ERROR);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ControlBits::END_OF_MESSAGE_ACK.to_string(), "eom+ack");
        assert_eq!(ControlBits::END_OF_MESSAGE_NAK.to_string(), "eom+nak");
        assert_eq!(ControlBits::GENERAL_ERROR.to_string(), "general error");
    }

    #[test]
    fn outcome_success_only_for_ack() {
        assert!(TxOutcome::Acked.is_success());
        for o in [
            TxOutcome::Nacked,
            TxOutcome::ReceiverAbort,
            TxOutcome::LengthEnforced,
            TxOutcome::NoDestination,
            TxOutcome::LostArbitration,
            TxOutcome::Interrupted,
        ] {
            assert!(!o.is_success(), "{o}");
        }
    }
}
