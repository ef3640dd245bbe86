//! Allocation regression test for the analytic kernel's transaction
//! records and deliveries.
//!
//! A transaction record is a `Copy` value, and a delivery moves the
//! sent payload into the last receiver's log, so draining delivered
//! messages through `dyn BusEngine` may allocate only for what the
//! receivers keep beyond that: each payload's copy into the log of
//! every earlier receiver of a multicast, and the logs' growth. A
//! counting global allocator measures it.
//!
//! The allocator counts every allocation in this test binary, so the
//! file holds exactly one test: nothing else runs while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mbus_core::{
    Address, AnalyticBus, BroadcastChannel, BusConfig, BusEngine, EngineRecord, FuId, FullPrefix,
    Message, NodeSpec, ShortPrefix,
};

/// Forwards to [`System`], counting allocations and reallocations.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Fresh allocations of exactly [`MULTICAST_PAYLOAD`] bytes: the
/// multicast payload copies, since nothing else the drain allocates
/// has that size.
static PAYLOAD_COPIES: AtomicUsize = AtomicUsize::new(0);

fn count_alloc(layout: Layout) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if layout.size() == MULTICAST_PAYLOAD {
        PAYLOAD_COPIES.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic
// that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `layout` contract is forwarded to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout);
        // SAFETY: as for this method.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `layout` contract is forwarded to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout);
        // SAFETY: as for this method.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for this method.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for this method.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const MESSAGES: usize = 1000;

/// Receivers of each multicast message.
const MULTICAST_RECEIVERS: usize = 5;

/// Payload bytes of each multicast message; no other allocation of
/// the drain has this size.
const MULTICAST_PAYLOAD: usize = 13;

/// The broadcast channel the multicast receivers listen to.
const MULTICAST_CHANNEL: u8 = 2;

/// Allocations a drain may make beyond its payload copies: rx-log
/// growth, the spec indexes built on the first transaction, and the
/// record `Vec` of a one-call drain.
const SLACK: usize = 64;

/// An analytic bus of node 0 plus `receivers` nodes listening to
/// [`MULTICAST_CHANNEL`], with `MESSAGES` messages of `payload` bytes
/// queued from node 0 to `dest`.
fn loaded_bus(receivers: usize, dest: Address, payload: usize) -> AnalyticBus {
    let mut bus = AnalyticBus::new(BusConfig::default());
    let channel = BroadcastChannel::new(MULTICAST_CHANNEL).unwrap();
    for i in 0..=receivers as u8 {
        let spec = NodeSpec::new(
            format!("n{i}"),
            FullPrefix::new(0x100 + u32::from(i)).unwrap(),
        )
        .with_short_prefix(ShortPrefix::new(i + 1).unwrap());
        bus.add_node(if i == 0 { spec } else { spec.listen(channel) });
    }
    for k in 0..MESSAGES {
        bus.queue(0, Message::new(dest, vec![k as u8; payload]))
            .unwrap();
    }
    bus
}

/// A way to drain a bus, returning its records.
type Drain = fn(&mut dyn BusEngine) -> Vec<EngineRecord>;

/// Runs `drain` on `bus` and returns `(deliveries, allocations,
/// payload copies)`.
fn count(mut bus: AnalyticBus, drain: Drain) -> (usize, usize, usize) {
    let engine: &mut dyn BusEngine = &mut bus;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let copies_before = PAYLOAD_COPIES.load(Ordering::Relaxed);
    let records = drain(engine);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let copies = PAYLOAD_COPIES.load(Ordering::Relaxed) - copies_before;
    let deliveries = records.iter().map(|r| r.delivered_to.len()).sum();
    (deliveries, allocations, copies)
}

fn stepped(engine: &mut dyn BusEngine) -> Vec<EngineRecord> {
    let mut records = Vec::with_capacity(MESSAGES);
    while let Some(record) = engine.run_transaction() {
        records.push(record);
    }
    records
}

fn drained(engine: &mut dyn BusEngine) -> Vec<EngineRecord> {
    engine.run_until_quiescent()
}

#[test]
fn draining_delivered_messages_allocates_no_per_transaction_record() {
    let drains: [(&str, Drain); 2] = [("stepped", stepped), ("drained", drained)];
    // Unicast: the payload moves into the one receiver's log, so the
    // drain allocates nothing per message.
    let unicast = Address::short(ShortPrefix::new(2).unwrap(), FuId::ZERO);
    for (path, drain) in drains {
        let (deliveries, allocations, _) = count(loaded_bus(1, unicast, 4), drain);
        assert_eq!(deliveries, MESSAGES, "{path}");
        assert!(
            allocations <= SLACK,
            "{path}: {allocations} allocations for {deliveries} unicast deliveries"
        );
    }
    // Multicast to `k` receivers: exactly `k - 1` payload copies per
    // message, the last receiver taking the sent buffer itself.
    let multicast = Address::broadcast(BroadcastChannel::new(MULTICAST_CHANNEL).unwrap());
    for (path, drain) in drains {
        let bus = loaded_bus(MULTICAST_RECEIVERS, multicast, MULTICAST_PAYLOAD);
        let (deliveries, allocations, copies) = count(bus, drain);
        assert_eq!(deliveries, MESSAGES * MULTICAST_RECEIVERS, "{path}");
        let expected = MESSAGES * (MULTICAST_RECEIVERS - 1);
        assert_eq!(copies, expected, "{path}: multicast payload copies");
        assert!(
            allocations <= expected + SLACK,
            "{path}: {allocations} allocations for {deliveries} multicast deliveries"
        );
    }
}
