//! The generic layer controller of Fig. 8: the register/memory
//! interface that sits behind a node's bus controller and gives its
//! functional units meaning.
//!
//! The paper's layer controller exposes, per chip: a bank of 24-bit
//! registers written by short register messages (`REG_WR_DATA[23:0]`,
//! `REG_WR_EN{0..255}`), a word-addressed memory port
//! (`MEM_ADDR/MEM_WR_DATA/MEM_REQ/...`), and interrupt-injected
//! commands (`INT{N}_CMD`). "The generic layer controller provides a
//! simple register/memory interface for a node, but its design is not
//! specific to MBus."
//!
//! Functional units dispatch the payload:
//!
//! * **FU 0 — register file.** Payload is a sequence of 4-byte records
//!   `[reg_addr, d2, d1, d0]`, writing the 24-bit value `d2:d1:d0` to
//!   `reg_addr`.
//! * **FU 1 — memory write.** Payload is a 4-byte word-aligned start
//!   address followed by 32-bit big-endian words, streamed into memory.
//! * **FU 2 — memory read request.** Payload is `[addr; 4][len; 4]`; the
//!   layer queues a reply message containing the words, which the host
//!   harness transmits.
//! * other FUs — delivered to a mailbox for chip-specific logic.

use std::collections::BTreeMap;
use std::fmt;

use crate::addr::Address;
use crate::engine::ReceivedMessage;
use crate::message::Message;

/// Number of 24-bit registers (Fig. 8: `REG_RD_DATA{0..255}`).
pub const REGISTER_COUNT: usize = 256;

/// The functional unit carrying register writes.
pub const FU_REGISTER: u8 = 0;
/// The functional unit carrying memory writes.
pub const FU_MEMORY_WRITE: u8 = 1;
/// The functional unit carrying memory read requests.
pub const FU_MEMORY_READ: u8 = 2;

/// What the layer did with one delivered message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LayerAction {
    /// Wrote `count` registers.
    RegistersWritten {
        /// Number of 4-byte records applied.
        count: usize,
    },
    /// Streamed `words` 32-bit words into memory at `addr`.
    MemoryWritten {
        /// Starting byte address (word aligned).
        addr: u32,
        /// Words written.
        words: usize,
    },
    /// Queued a read-reply message for the host to transmit.
    ReadReplyQueued {
        /// Words to be returned.
        words: usize,
    },
    /// Stashed the payload in the mailbox of a chip-specific FU.
    Mailboxed {
        /// The functional unit addressed.
        fu: u8,
    },
    /// The payload did not parse for its FU; ignored.
    Malformed,
}

impl fmt::Display for LayerAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerAction::RegistersWritten { count } => write!(f, "wrote {count} register(s)"),
            LayerAction::MemoryWritten { addr, words } => {
                write!(f, "wrote {words} word(s) at 0x{addr:08x}")
            }
            LayerAction::ReadReplyQueued { words } => write!(f, "queued {words}-word reply"),
            LayerAction::Mailboxed { fu } => write!(f, "mailboxed to fu{fu:x}"),
            LayerAction::Malformed => write!(f, "malformed payload"),
        }
    }
}

/// The generic layer controller state: registers, memory, mailboxes,
/// and pending replies.
///
/// # Example
///
/// ```
/// use mbus_core::layer::{LayerController, FU_REGISTER};
///
/// let mut layer = LayerController::new(1024);
/// let action = layer.apply_fu(FU_REGISTER, &[0x10, 0xAB, 0xCD, 0xEF]);
/// assert_eq!(layer.register(0x10), 0xABCDEF);
/// ```
#[derive(Clone, Debug)]
pub struct LayerController {
    registers: [u32; REGISTER_COUNT],
    memory: Vec<u32>,
    mailboxes: BTreeMap<u8, Vec<Vec<u8>>>,
    /// Read replies awaiting transmission `(dest, payload)`.
    pending_replies: Vec<Vec<u8>>,
    reply_dest: Option<Address>,
}

impl LayerController {
    /// Creates a layer with `memory_words` 32-bit words of memory.
    pub fn new(memory_words: usize) -> Self {
        LayerController {
            registers: [0; REGISTER_COUNT],
            memory: vec![0; memory_words],
            mailboxes: BTreeMap::new(),
            pending_replies: Vec::new(),
            reply_dest: None,
        }
    }

    /// Sets where read replies should be addressed (usually the
    /// requesting processor).
    pub fn set_reply_dest(&mut self, dest: Address) {
        self.reply_dest = Some(dest);
    }

    /// A register's current 24-bit value.
    ///
    /// # Panics
    ///
    /// Panics above register 255.
    pub fn register(&self, index: u8) -> u32 {
        self.registers[index as usize]
    }

    /// A memory word (by word index).
    pub fn memory_word(&self, word: usize) -> Option<u32> {
        self.memory.get(word).copied()
    }

    /// Drains a chip-specific FU mailbox.
    pub fn take_mailbox(&mut self, fu: u8) -> Vec<Vec<u8>> {
        self.mailboxes.remove(&fu).unwrap_or_default()
    }

    /// Drains pending read replies as ready-to-send messages.
    pub fn take_replies(&mut self) -> Vec<Message> {
        let dest = self.reply_dest;
        self.pending_replies
            .drain(..)
            .filter_map(|payload| dest.map(|d| Message::new(d, payload)))
            .collect()
    }

    /// Applies a message delivered by the bus (any engine).
    pub fn deliver(&mut self, msg: &ReceivedMessage) -> LayerAction {
        self.apply_fu(msg.dest.fu_id_raw(), &msg.payload)
    }

    /// Applies a payload addressed to the given functional unit.
    pub fn apply_fu(&mut self, fu: u8, payload: &[u8]) -> LayerAction {
        match fu {
            FU_REGISTER => self.apply_register_writes(payload),
            FU_MEMORY_WRITE => self.apply_memory_write(payload),
            FU_MEMORY_READ => self.apply_memory_read(payload),
            other => {
                self.mailboxes
                    .entry(other)
                    .or_default()
                    .push(payload.to_vec());
                LayerAction::Mailboxed { fu: other }
            }
        }
    }

    fn apply_register_writes(&mut self, payload: &[u8]) -> LayerAction {
        if payload.is_empty() || !payload.len().is_multiple_of(4) {
            return LayerAction::Malformed;
        }
        let mut count = 0;
        for rec in payload.chunks_exact(4) {
            let value = u32::from_be_bytes([0, rec[1], rec[2], rec[3]]);
            self.registers[rec[0] as usize] = value;
            count += 1;
        }
        LayerAction::RegistersWritten { count }
    }

    fn apply_memory_write(&mut self, payload: &[u8]) -> LayerAction {
        if payload.len() < 8 || !(payload.len() - 4).is_multiple_of(4) {
            return LayerAction::Malformed;
        }
        let addr = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
        if !addr.is_multiple_of(4) {
            return LayerAction::Malformed;
        }
        let first = (addr / 4) as usize;
        let mut words = 0;
        for (word, chunk) in (first..self.memory.len()).zip(payload[4..].chunks_exact(4)) {
            // Writes past the end are dropped, like the chip.
            self.memory[word] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            words += 1;
        }
        LayerAction::MemoryWritten { addr, words }
    }

    fn apply_memory_read(&mut self, payload: &[u8]) -> LayerAction {
        if payload.len() != 8 {
            return LayerAction::Malformed;
        }
        let addr = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
        let len = u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]) as usize;
        if !addr.is_multiple_of(4) {
            return LayerAction::Malformed;
        }
        let start = (addr / 4) as usize;
        let mut reply = Vec::with_capacity(4 + len * 4);
        reply.extend_from_slice(&addr.to_be_bytes());
        let mut words = 0;
        for w in start..start + len {
            let value = self.memory.get(w).copied().unwrap_or(0);
            reply.extend_from_slice(&value.to_be_bytes());
            words += 1;
        }
        self.pending_replies.push(reply);
        LayerAction::ReadReplyQueued { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{FuId, ShortPrefix};

    fn layer() -> LayerController {
        LayerController::new(64)
    }

    #[test]
    fn register_writes_are_24_bit() {
        let mut l = layer();
        let a = l.apply_fu(FU_REGISTER, &[0x05, 0x12, 0x34, 0x56]);
        assert_eq!(a, LayerAction::RegistersWritten { count: 1 });
        assert_eq!(l.register(0x05), 0x123456);
        assert_eq!(l.register(0x06), 0, "neighbors untouched");
    }

    #[test]
    fn multiple_register_records_in_one_message() {
        let mut l = layer();
        let payload = [0x00, 0, 0, 1, 0x01, 0, 0, 2, 0xFF, 0, 0, 3];
        let a = l.apply_fu(FU_REGISTER, &payload);
        assert_eq!(a, LayerAction::RegistersWritten { count: 3 });
        assert_eq!(l.register(0x00), 1);
        assert_eq!(l.register(0x01), 2);
        assert_eq!(l.register(0xFF), 3);
    }

    #[test]
    fn ragged_register_payload_is_malformed() {
        let mut l = layer();
        assert_eq!(l.apply_fu(FU_REGISTER, &[1, 2, 3]), LayerAction::Malformed);
        assert_eq!(l.apply_fu(FU_REGISTER, &[]), LayerAction::Malformed);
    }

    #[test]
    fn memory_write_streams_words() {
        let mut l = layer();
        let mut payload = 8u32.to_be_bytes().to_vec();
        payload.extend(0xDEAD_BEEFu32.to_be_bytes());
        payload.extend(0xCAFE_F00Du32.to_be_bytes());
        let a = l.apply_fu(FU_MEMORY_WRITE, &payload);
        assert_eq!(a, LayerAction::MemoryWritten { addr: 8, words: 2 });
        assert_eq!(l.memory_word(2), Some(0xDEAD_BEEF));
        assert_eq!(l.memory_word(3), Some(0xCAFE_F00D));
    }

    #[test]
    fn unaligned_or_short_memory_write_is_malformed() {
        let mut l = layer();
        assert_eq!(
            l.apply_fu(FU_MEMORY_WRITE, &[0, 0, 0, 2, 1, 2, 3, 4]),
            LayerAction::Malformed
        );
        assert_eq!(
            l.apply_fu(FU_MEMORY_WRITE, &[0, 0, 0, 0]),
            LayerAction::Malformed
        );
    }

    #[test]
    fn memory_write_past_end_is_clipped() {
        let mut l = LayerController::new(2);
        let mut payload = 4u32.to_be_bytes().to_vec();
        payload.extend(1u32.to_be_bytes());
        payload.extend(2u32.to_be_bytes()); // word index 2: off the end
        let a = l.apply_fu(FU_MEMORY_WRITE, &payload);
        assert_eq!(a, LayerAction::MemoryWritten { addr: 4, words: 1 });
        assert_eq!(l.memory_word(1), Some(1));
    }

    #[test]
    fn memory_read_round_trips_through_reply() {
        let mut l = layer();
        l.set_reply_dest(Address::short(
            ShortPrefix::new(0x1).unwrap(),
            FuId::new(0x3).unwrap(),
        ));
        // Write two words, then request them back.
        let mut w = 0u32.to_be_bytes().to_vec();
        w.extend(0x1111_2222u32.to_be_bytes());
        w.extend(0x3333_4444u32.to_be_bytes());
        l.apply_fu(FU_MEMORY_WRITE, &w);

        let mut r = 0u32.to_be_bytes().to_vec();
        r.extend(2u32.to_be_bytes());
        let a = l.apply_fu(FU_MEMORY_READ, &r);
        assert_eq!(a, LayerAction::ReadReplyQueued { words: 2 });

        let replies = l.take_replies();
        assert_eq!(replies.len(), 1);
        let payload = replies[0].payload();
        assert_eq!(&payload[4..8], &0x1111_2222u32.to_be_bytes());
        assert_eq!(&payload[8..12], &0x3333_4444u32.to_be_bytes());
    }

    #[test]
    fn chip_specific_fus_land_in_mailboxes() {
        let mut l = layer();
        l.apply_fu(0x7, &[1, 2, 3]);
        l.apply_fu(0x7, &[4]);
        l.apply_fu(0x8, &[5]);
        assert_eq!(l.take_mailbox(0x7), vec![vec![1, 2, 3], vec![4]]);
        assert_eq!(l.take_mailbox(0x8), vec![vec![5]]);
        assert!(l.take_mailbox(0x7).is_empty(), "drained");
    }

    #[test]
    fn deliver_dispatches_on_fu_id() {
        use crate::engine::ReceivedMessage;
        use mbus_sim::SimTime;
        let mut l = layer();
        let msg = ReceivedMessage {
            from: 0,
            dest: Address::short(
                ShortPrefix::new(0x2).unwrap(),
                FuId::new(FU_REGISTER).unwrap(),
            ),
            payload: vec![0x20, 0xAA, 0xBB, 0xCC],
            at: SimTime::ZERO,
        };
        let a = l.deliver(&msg);
        assert_eq!(a, LayerAction::RegistersWritten { count: 1 });
        assert_eq!(l.register(0x20), 0xAABBCC);
    }

    #[test]
    fn actions_display() {
        assert_eq!(
            LayerAction::RegistersWritten { count: 2 }.to_string(),
            "wrote 2 register(s)"
        );
        assert_eq!(LayerAction::Malformed.to_string(), "malformed payload");
    }
}
