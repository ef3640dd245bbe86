//! Allocation regression test for the analytic kernel's transaction
//! records.
//!
//! A transaction record is a `Copy` value, so draining delivered
//! messages through `dyn BusEngine` may allocate only for what the
//! receivers keep: each payload's copy into its receive log, and that
//! log's growth. A counting global allocator measures it.
//!
//! The allocator counts every allocation in this test binary, so the
//! file holds exactly one test: nothing else runs while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mbus_core::{
    Address, AnalyticBus, BusConfig, BusEngine, EngineRecord, FuId, FullPrefix, Message, NodeSpec,
    ShortPrefix,
};

/// Forwards to [`System`], counting allocations and reallocations.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic
// that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `layout` contract is forwarded to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for this method.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `layout` contract is forwarded to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Allocations a drain may make beyond one per delivery: rx-log
/// growth, the spec indexes built on the first transaction, and the
/// record `Vec` of a one-call drain.
const SLACK: usize = 64;

/// A two-node analytic bus with `MESSAGES` 4-byte messages queued from
/// node 0 to node 1.
fn loaded_bus() -> AnalyticBus {
    let mut bus = AnalyticBus::new(BusConfig::default());
    for i in 0..2u8 {
        bus.add_node(
            NodeSpec::new(
                format!("n{i}"),
                FullPrefix::new(0x100 + u32::from(i)).unwrap(),
            )
            .with_short_prefix(ShortPrefix::new(i + 1).unwrap()),
        );
    }
    let dest = Address::short(ShortPrefix::new(2).unwrap(), FuId::ZERO);
    for k in 0..MESSAGES {
        bus.queue(0, Message::new(dest, vec![k as u8; 4])).unwrap();
    }
    bus
}

/// Runs `drain` on a loaded bus and returns `(deliveries, allocations)`.
fn count(drain: fn(&mut dyn BusEngine) -> Vec<EngineRecord>) -> (usize, usize) {
    let mut bus = loaded_bus();
    let engine: &mut dyn BusEngine = &mut bus;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let records = drain(engine);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let deliveries = records.iter().map(|r| r.delivered_to.len()).sum();
    (deliveries, allocations)
}

#[test]
fn draining_delivered_messages_allocates_no_per_transaction_record() {
    let stepped = count(|engine| {
        let mut records = Vec::with_capacity(MESSAGES);
        while let Some(record) = engine.run_transaction() {
            records.push(record);
        }
        records
    });
    let drained = count(|engine| engine.run_until_quiescent());
    for (path, (deliveries, allocations)) in [("stepped", stepped), ("drained", drained)] {
        assert_eq!(deliveries, MESSAGES, "{path}");
        assert!(
            allocations <= deliveries + SLACK,
            "{path}: {allocations} allocations for {deliveries} deliveries"
        );
    }
}
