//! Messages: a destination address plus an arbitrary-length payload.

use std::fmt;

use crate::addr::Address;
use crate::config::BusConfig;
use crate::error::MbusError;

/// An MBus message: destination address, payload bytes, and the
/// transmit-side priority flag used in the priority-arbitration round
/// (§4.3).
///
/// MBus messages are byte-aligned on the wire; the interjection
/// mechanism makes the observed bit count ambiguous by up to 7 bits, so
/// receivers discard any non-byte-aligned tail (§4.9). Payloads are kept
/// as bytes here and serialized MSB-first bit by bit by the engines.
///
/// # Example
///
/// ```
/// use mbus_core::{Address, BroadcastChannel, Message};
///
/// let msg = Message::new(
///     Address::broadcast(BroadcastChannel::CONFIGURATION),
///     vec![0x01, 0x02],
/// );
/// assert_eq!(msg.wire_bits(), 8 + 16); // 1 address byte + 2 payload bytes
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Message {
    dest: Address,
    payload: Vec<u8>,
    priority: bool,
}

impl Message {
    /// Creates a normal-priority message.
    pub fn new(dest: Address, payload: Vec<u8>) -> Self {
        Message {
            dest,
            payload,
            priority: false,
        }
    }

    /// Creates a message that will contend in the priority-arbitration
    /// round, claiming the bus over topologically higher nodes.
    pub fn with_priority(mut self) -> Self {
        self.priority = true;
        self
    }

    /// Replaces the payload, keeping the destination and priority flag
    /// — the reduction hook the [`crate::trace::shrink`] payload pass
    /// uses.
    pub fn with_payload(&self, payload: Vec<u8>) -> Self {
        Message {
            dest: self.dest,
            payload,
            priority: self.priority,
        }
    }

    /// The destination address.
    pub fn dest(&self) -> Address {
        self.dest
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Consumes the message, returning the payload.
    pub fn into_payload(self) -> Vec<u8> {
        self.payload
    }

    /// Whether the sender requests priority arbitration.
    pub fn is_priority(&self) -> bool {
        self.priority
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True if the payload is empty (address-only message).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Bits clocked during address + data phases (excludes arbitration,
    /// interjection, and control cycles).
    pub fn wire_bits(&self) -> u32 {
        self.dest.wire_bits() + 8 * self.payload.len() as u32
    }

    /// Validates the message against a bus configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::MessageTooLong`] if the payload exceeds the
    /// mediator's maximum message length.
    pub fn validate(&self, config: &BusConfig) -> Result<(), MbusError> {
        if self.payload.len() > config.max_message_bytes() {
            Err(MbusError::MessageTooLong {
                len: self.payload.len(),
                max: config.max_message_bytes(),
            })
        } else {
            Ok(())
        }
    }

    /// The full bit stream for the address + data phases, MSB-first.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(self.wire_bits() as usize);
        for &byte in self.dest.encode().iter() {
            push_byte(&mut bits, byte);
        }
        for &byte in &self.payload {
            push_byte(&mut bits, byte);
        }
        bits
    }
}

fn push_byte(bits: &mut Vec<bool>, byte: u8) {
    for i in 0..8 {
        bits.push(byte & (0x80 >> i) != 0);
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} <- {} byte(s){}",
            self.dest,
            self.payload.len(),
            if self.priority { " [priority]" } else { "" }
        )
    }
}

/// Reassembles bytes from a latched bit stream, discarding any
/// non-byte-aligned tail as §4.9 requires.
///
/// Returns the whole bytes and the number of discarded trailing bits.
///
/// # Example
///
/// ```
/// use mbus_core::message::bits_to_bytes;
///
/// let mut bits = vec![false; 8];
/// bits.extend([true, true, true]); // 3 stray bits from interjection skew
/// let (bytes, dropped) = bits_to_bytes(&bits);
/// assert_eq!(bytes, vec![0x00]);
/// assert_eq!(dropped, 3);
/// ```
pub fn bits_to_bytes(bits: &[bool]) -> (Vec<u8>, usize) {
    let whole = bits.len() / 8;
    let mut bytes = Vec::with_capacity(whole);
    for chunk in bits.chunks_exact(8) {
        let mut byte = 0u8;
        for &bit in chunk {
            byte = (byte << 1) | bit as u8;
        }
        bytes.push(byte);
    }
    (bytes, bits.len() - whole * 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{BroadcastChannel, FuId, ShortPrefix};

    fn short_addr() -> Address {
        Address::short(ShortPrefix::new(0x2).unwrap(), FuId::ZERO)
    }

    #[test]
    fn wire_bits_counts_address_and_payload() {
        let msg = Message::new(short_addr(), vec![0xAB; 8]);
        assert_eq!(msg.wire_bits(), 8 + 64);
        let full = Address::full(crate::FullPrefix::new(0x12345).unwrap(), FuId::ZERO);
        let msg = Message::new(full, vec![0xAB; 8]);
        assert_eq!(msg.wire_bits(), 32 + 64);
    }

    #[test]
    fn bit_stream_is_msb_first() {
        let msg = Message::new(short_addr(), vec![0b1010_0001]);
        let bits = msg.to_bits();
        // Address byte 0x20 then payload byte 0xA1.
        let expect_addr = [false, false, true, false, false, false, false, false];
        assert_eq!(&bits[..8], &expect_addr);
        let expect_payload = [true, false, true, false, false, false, false, true];
        assert_eq!(&bits[8..], &expect_payload);
    }

    #[test]
    fn bits_round_trip_through_reassembly() {
        let msg = Message::new(short_addr(), vec![0xDE, 0xAD, 0xBE, 0xEF]);
        let bits = msg.to_bits();
        let (bytes, dropped) = bits_to_bytes(&bits);
        assert_eq!(dropped, 0);
        assert_eq!(&bytes[1..], msg.payload());
    }

    #[test]
    fn partial_bytes_are_discarded() {
        let (bytes, dropped) = bits_to_bytes(&[true; 15]);
        assert_eq!(bytes, vec![0xFF]);
        assert_eq!(dropped, 7);
        let (bytes, dropped) = bits_to_bytes(&[]);
        assert!(bytes.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn validate_enforces_max_length() {
        let config = BusConfig::default();
        let ok = Message::new(short_addr(), vec![0; config.max_message_bytes()]);
        assert!(ok.validate(&config).is_ok());
        let too_long = Message::new(short_addr(), vec![0; config.max_message_bytes() + 1]);
        assert!(matches!(
            too_long.validate(&config),
            Err(MbusError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn priority_flag() {
        let msg = Message::new(short_addr(), vec![]).with_priority();
        assert!(msg.is_priority());
        assert!(msg.is_empty());
    }

    #[test]
    fn display_mentions_destination_and_length() {
        let msg = Message::new(
            Address::broadcast(BroadcastChannel::DISCOVERY),
            vec![1, 2, 3],
        );
        let s = msg.to_string();
        assert!(s.contains("bcast.ch0"));
        assert!(s.contains("3 byte"));
    }
}
