//! MBus addressing: short prefixes, full prefixes, functional unit IDs,
//! and broadcast channels (§4.6–4.7 of the paper).
//!
//! An MBus address has two parts: a *prefix* naming a physical chip and a
//! 4-bit *functional unit ID* (FU-ID) naming a sub-component behind that
//! chip's bus frontend. Prefixes come in two widths:
//!
//! * 4-bit **short prefixes**, assigned at run time by enumeration.
//!   Prefix `0x0` is reserved for broadcast and `0xF` escapes to full
//!   addressing, leaving 14 usable short prefixes per system.
//! * 20-bit **full prefixes**, unique per chip design, usable
//!   interchangeably with short prefixes at the cost of 24 more address
//!   bits on the wire (8-bit vs. 32-bit address phase).

use std::fmt;
use std::ops::Deref;

use crate::error::MbusError;

/// A 4-bit functional unit ID addressing a sub-component of a chip.
///
/// # Example
///
/// ```
/// use mbus_core::FuId;
///
/// let fu = FuId::new(0x3)?;
/// assert_eq!(fu.raw(), 0x3);
/// # Ok::<(), mbus_core::MbusError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FuId(u8);

impl FuId {
    /// FU-ID 0, the conventional "main" functional unit.
    pub const ZERO: FuId = FuId(0);

    /// Creates an FU-ID.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::FuIdOutOfRange`] if `raw > 0xF`.
    pub fn new(raw: u8) -> Result<Self, MbusError> {
        if raw > 0xF {
            Err(MbusError::FuIdOutOfRange { raw })
        } else {
            Ok(FuId(raw))
        }
    }

    /// The 4-bit value.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for FuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fu{:x}", self.0)
    }
}

/// A 4-bit short prefix assigned by enumeration (or statically).
///
/// Values `0x1..=0xE` address chips; `0x0` (broadcast) and `0xF` (full
/// address escape) are reserved and rejected by [`ShortPrefix::new`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ShortPrefix(u8);

impl ShortPrefix {
    /// The number of usable short prefixes in a system (`0x1..=0xE`).
    pub const USABLE: usize = 14;

    /// Creates a short prefix.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::ReservedPrefix`] for `0x0` / `0xF` and
    /// [`MbusError::PrefixOutOfRange`] for values above 4 bits.
    pub fn new(raw: u8) -> Result<Self, MbusError> {
        match raw {
            0x0 | 0xF => Err(MbusError::ReservedPrefix { raw }),
            0x1..=0xE => Ok(ShortPrefix(raw)),
            _ => Err(MbusError::PrefixOutOfRange { raw: raw as u32 }),
        }
    }

    /// The 4-bit value.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Iterates all usable short prefixes in ascending order.
    pub fn all() -> impl Iterator<Item = ShortPrefix> {
        (0x1..=0xE).map(ShortPrefix)
    }
}

impl fmt::Display for ShortPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A 20-bit full prefix, unique per chip design.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FullPrefix(u32);

impl FullPrefix {
    /// Creates a full prefix.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::PrefixOutOfRange`] if `raw` does not fit in
    /// 20 bits.
    pub fn new(raw: u32) -> Result<Self, MbusError> {
        if raw >= (1 << 20) {
            Err(MbusError::PrefixOutOfRange { raw })
        } else {
            Ok(FullPrefix(raw))
        }
    }

    /// The 20-bit value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FullPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:05x}", self.0)
    }
}

/// A broadcast channel, carried in the FU-ID field of a broadcast
/// message (§4.6): "MBus repurposes the FU-ID of broadcast messages as
/// broadcast channel identifiers".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BroadcastChannel(u8);

impl BroadcastChannel {
    /// Channel 0: discovery / enumeration traffic.
    pub const DISCOVERY: BroadcastChannel = BroadcastChannel(0);
    /// Channel 1: bus configuration (clock speed, max message length —
    /// §7 "Runaway Messages").
    pub const CONFIGURATION: BroadcastChannel = BroadcastChannel(1);
    /// Channel 2: member events (wakeup notifications and the like).
    pub const MEMBER_EVENT: BroadcastChannel = BroadcastChannel(2);

    /// Creates a broadcast channel.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::FuIdOutOfRange`] if `raw > 0xF`.
    pub fn new(raw: u8) -> Result<Self, MbusError> {
        if raw > 0xF {
            Err(MbusError::FuIdOutOfRange { raw })
        } else {
            Ok(BroadcastChannel(raw))
        }
    }

    /// The 4-bit channel number.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for BroadcastChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// A complete MBus destination address.
///
/// The on-wire encoding is produced by [`Address::encode`] and recovered
/// by [`Address::decode`]:
///
/// * short: 1 byte — `prefix[7:4] | fu_id[3:0]`
/// * broadcast: 1 byte — `0x0[7:4] | channel[3:0]`
/// * full: 4 bytes — `0xF[31:28] | prefix[27:8] | fu_id[7:4] | 0[3:0]`
///
/// # Example
///
/// ```
/// use mbus_core::{Address, FuId, ShortPrefix};
///
/// let addr = Address::short(ShortPrefix::new(0x5)?, FuId::new(0x2)?);
/// let bytes = addr.encode();
/// assert_eq!(*bytes, [0x52]);
/// assert_eq!(Address::decode(&bytes)?, addr);
/// # Ok::<(), mbus_core::MbusError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Address {
    /// A short-prefixed unicast address (8-bit address phase).
    Short {
        /// The enumerated chip prefix.
        prefix: ShortPrefix,
        /// The functional unit within the chip.
        fu_id: FuId,
    },
    /// A full-prefixed unicast address (32-bit address phase).
    Full {
        /// The globally unique chip prefix.
        prefix: FullPrefix,
        /// The functional unit within the chip.
        fu_id: FuId,
    },
    /// A broadcast to every node listening on `channel`.
    Broadcast {
        /// The broadcast channel (carried in the FU-ID field).
        channel: BroadcastChannel,
    },
}

/// The escape nibble that marks a full (32-bit) address.
pub const FULL_ADDRESS_ESCAPE: u8 = 0xF;

/// The prefix nibble reserved for broadcast messages.
pub const BROADCAST_PREFIX: u8 = 0x0;

/// The 4 on-wire bytes of [`Address::Full`] `{ prefix, fu_id }`, as an
/// array, so envelope builders can write them into a buffer sized once.
pub(crate) fn full_address_bytes(prefix: FullPrefix, fu_id: FuId) -> [u8; 4] {
    let word: u32 =
        ((FULL_ADDRESS_ESCAPE as u32) << 28) | (prefix.raw() << 8) | ((fu_id.raw() as u32) << 4);
    word.to_be_bytes()
}

impl Address {
    /// Convenience constructor for a short unicast address.
    pub fn short(prefix: ShortPrefix, fu_id: FuId) -> Self {
        Address::Short { prefix, fu_id }
    }

    /// Convenience constructor for a full unicast address.
    pub fn full(prefix: FullPrefix, fu_id: FuId) -> Self {
        Address::Full { prefix, fu_id }
    }

    /// Convenience constructor for a broadcast address.
    pub fn broadcast(channel: BroadcastChannel) -> Self {
        Address::Broadcast { channel }
    }

    /// Number of address bits on the wire: 8 for short/broadcast, 32 for
    /// full — the difference between the 19- and 43-cycle overheads.
    pub fn wire_bits(&self) -> u32 {
        match self {
            Address::Short { .. } | Address::Broadcast { .. } => 8,
            Address::Full { .. } => 32,
        }
    }

    /// True for broadcast addresses.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Address::Broadcast { .. })
    }

    /// Encodes the address to its on-wire bytes (MSB-first), held
    /// inline: encoding never allocates.
    pub fn encode(&self) -> EncodedAddress {
        let byte = |b: u8| EncodedAddress {
            bytes: [b, 0, 0, 0],
            len: 1,
        };
        match *self {
            Address::Short { prefix, fu_id } => byte((prefix.raw() << 4) | fu_id.raw()),
            Address::Broadcast { channel } => byte((BROADCAST_PREFIX << 4) | channel.raw()),
            Address::Full { prefix, fu_id } => EncodedAddress {
                bytes: full_address_bytes(prefix, fu_id),
                len: 4,
            },
        }
    }

    /// Decodes an address from its on-wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::MalformedAddress`] if the byte count does not
    /// match the leading nibble's implied width.
    pub fn decode(bytes: &[u8]) -> Result<Self, MbusError> {
        match bytes {
            [b] => {
                let prefix = b >> 4;
                let low = b & 0xF;
                match prefix {
                    BROADCAST_PREFIX => Ok(Address::Broadcast {
                        channel: BroadcastChannel::new(low)?,
                    }),
                    FULL_ADDRESS_ESCAPE => Err(MbusError::MalformedAddress {
                        reason: "0xF escape nibble requires a 4-byte address",
                    }),
                    _ => Ok(Address::Short {
                        prefix: ShortPrefix::new(prefix)?,
                        fu_id: FuId::new(low)?,
                    }),
                }
            }
            [a, b, c, d] => {
                let word = u32::from_be_bytes([*a, *b, *c, *d]);
                if word >> 28 != FULL_ADDRESS_ESCAPE as u32 {
                    return Err(MbusError::MalformedAddress {
                        reason: "4-byte address must begin with the 0xF escape nibble",
                    });
                }
                let prefix = FullPrefix::new((word >> 8) & 0xF_FFFF)?;
                let fu_id = FuId::new(((word >> 4) & 0xF) as u8)?;
                Ok(Address::Full { prefix, fu_id })
            }
            _ => Err(MbusError::MalformedAddress {
                reason: "address must be 1 or 4 bytes",
            }),
        }
    }

    /// The FU-ID field (the channel for broadcasts).
    pub fn fu_id_raw(&self) -> u8 {
        match *self {
            Address::Short { fu_id, .. } | Address::Full { fu_id, .. } => fu_id.raw(),
            Address::Broadcast { channel } => channel.raw(),
        }
    }
}

/// The on-wire bytes of an [`Address`] — 1 for short and broadcast
/// addresses, 4 for full ones — as returned by [`Address::encode`].
/// Dereferences to the byte slice.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodedAddress {
    bytes: [u8; 4],
    len: u8,
}

impl Deref for EncodedAddress {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl fmt::Debug for EncodedAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Address::Short { prefix, fu_id } => write!(f, "{prefix}.{fu_id}"),
            Address::Full { prefix, fu_id } => write!(f, "{prefix}.{fu_id}"),
            Address::Broadcast { channel } => write!(f, "bcast.{channel}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_id_bounds() {
        assert!(FuId::new(0xF).is_ok());
        assert_eq!(
            FuId::new(0x10),
            Err(MbusError::FuIdOutOfRange { raw: 0x10 })
        );
    }

    #[test]
    fn short_prefix_reserved_values_rejected() {
        assert_eq!(
            ShortPrefix::new(0x0),
            Err(MbusError::ReservedPrefix { raw: 0x0 })
        );
        assert_eq!(
            ShortPrefix::new(0xF),
            Err(MbusError::ReservedPrefix { raw: 0xF })
        );
        assert!(ShortPrefix::new(0x1).is_ok());
        assert!(ShortPrefix::new(0xE).is_ok());
        assert!(ShortPrefix::new(0x10).is_err());
    }

    #[test]
    fn exactly_fourteen_usable_short_prefixes() {
        // Table 1 / §4.7: "leaving MBus with 14 usable short prefixes".
        assert_eq!(ShortPrefix::all().count(), ShortPrefix::USABLE);
    }

    #[test]
    fn full_prefix_is_twenty_bits() {
        assert!(FullPrefix::new((1 << 20) - 1).is_ok());
        assert!(FullPrefix::new(1 << 20).is_err());
    }

    #[test]
    fn short_address_round_trip() {
        let addr = Address::short(ShortPrefix::new(0xA).unwrap(), FuId::new(0x7).unwrap());
        let bytes = addr.encode();
        assert_eq!(*bytes, [0xA7]);
        assert_eq!(Address::decode(&bytes).unwrap(), addr);
        assert_eq!(addr.wire_bits(), 8);
    }

    #[test]
    fn broadcast_address_round_trip() {
        let addr = Address::broadcast(BroadcastChannel::CONFIGURATION);
        let bytes = addr.encode();
        assert_eq!(*bytes, [0x01]);
        assert_eq!(Address::decode(&bytes).unwrap(), addr);
        assert!(addr.is_broadcast());
    }

    #[test]
    fn full_address_round_trip() {
        let addr = Address::full(FullPrefix::new(0xABCDE).unwrap(), FuId::new(0x3).unwrap());
        let bytes = addr.encode();
        assert_eq!(bytes.len(), 4);
        assert_eq!(bytes[0] >> 4, 0xF);
        assert_eq!(Address::decode(&bytes).unwrap(), addr);
        assert_eq!(addr.wire_bits(), 32);
    }

    #[test]
    fn full_escape_with_one_byte_is_malformed() {
        assert!(matches!(
            Address::decode(&[0xF3]),
            Err(MbusError::MalformedAddress { .. })
        ));
    }

    #[test]
    fn four_bytes_without_escape_is_malformed() {
        assert!(matches!(
            Address::decode(&[0x12, 0x34, 0x56, 0x78]),
            Err(MbusError::MalformedAddress { .. })
        ));
    }

    #[test]
    fn wrong_length_is_malformed() {
        assert!(Address::decode(&[]).is_err());
        assert!(Address::decode(&[1, 2]).is_err());
        assert!(Address::decode(&[1, 2, 3, 4, 5]).is_err());
    }

    #[test]
    fn display_forms() {
        let short = Address::short(ShortPrefix::new(0x5).unwrap(), FuId::ZERO);
        assert_eq!(short.to_string(), "0x5.fu0");
        let bcast = Address::broadcast(BroadcastChannel::DISCOVERY);
        assert_eq!(bcast.to_string(), "bcast.ch0");
        let full = Address::full(FullPrefix::new(0x12345).unwrap(), FuId::new(1).unwrap());
        assert_eq!(full.to_string(), "0x12345.fu1");
    }

    #[test]
    fn address_space_claim_of_table1() {
        // Table 1 claims 2^24 global unique addresses: 20-bit prefix ×
        // 4-bit FU-ID.
        let prefixes = 1u64 << 20;
        let fu_ids = 1u64 << 4;
        assert_eq!(prefixes * fu_ids, 1 << 24);
    }
}
