//! Allocation budget for a closed-loop request/reply fleet.
//!
//! Each leg of a message allocates at most once on the fleet path:
//! the sender builds its envelope in one buffer, the kernel moves that
//! buffer into the gateway's receive log, the gateway forwards it in
//! place, and receive logs drain into reused buffers. So a round trip
//! (request envelope, mesh hop, forwarded request, reply envelope,
//! mesh hop, forwarded reply) costs a few allocations, whatever the
//! fleet size. A counting global allocator measures one apply, then
//! the report's signature, which borrows every delivery instead of
//! copying it.
//!
//! The allocator counts every allocation in this test binary, so the
//! file holds exactly one test: nothing else runs while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mbus_core::behavior::with_return_address;
use mbus_core::{
    BusConfig, EngineKind, FleetNodeId, FleetWorkload, FuId, NodeBehavior, ShardedFleet,
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

/// Request/reply rounds per apply.
const ROUNDS: usize = 32;

/// Allocations one request/reply round trip may cost, amortized over
/// the apply: the two envelopes, plus the per-drive, per-cluster and
/// report allocations spread over the round trips. Measured at 3.80
/// (512 clusters) and 3.53 (1024 clusters); copying each payload again
/// on every leg puts it above 16.
const BUDGET_PER_ROUND_TRIP: f64 = 4.0;

/// Allocations `FleetReport::signature` may cost per round trip, kept
/// below one: the signature borrows every delivery, wake and drop
/// vector and owns only its renumbered per-cluster record buckets.
/// Measured at 0.31 (512 and 1024 clusters); a signature that clones
/// both payloads of every round trip measured 2.56.
const SIGNATURE_BUDGET_PER_ROUND_TRIP: f64 = 1.0;

/// Requesters on clusters `0..half` (mesh domain 0) each ask one
/// `Reply` responder on clusters `half..` (domain 1) per round, with a
/// return address, so every request and reply takes a mesh hop.
fn request_reply(clusters: usize) -> FleetWorkload {
    let half = clusters / 2;
    let mut w = FleetWorkload::new(format!("alloc/{clusters}"), BusConfig::default());
    for c in 0..clusters {
        w = w.cluster_in(usize::from(c >= half), vec![false]);
    }
    w = w
        .route(0, half, clusters - 1, half)
        .route(1, 0, half - 1, 0);
    let reply_fu = FuId::new(0x3).unwrap();
    for c in half..clusters {
        w = w.behavior(
            FleetNodeId::new(c, 1),
            NodeBehavior::Reply {
                fu: reply_fu,
                payload: vec![c as u8; 4],
            },
        );
    }
    let topology = w.instantiate(EngineKind::Analytic);
    for round in 0..ROUNDS {
        for c in 0..half {
            let requester = FleetNodeId::new(c, 1);
            let responder = FleetNodeId::new(half + (c + round) % half, 1);
            let request = with_return_address(
                topology.spec(requester).full_prefix(),
                reply_fu,
                &[round as u8; 6],
            );
            w = w.send_remote(requester, responder, FuId::ZERO, request);
        }
        w = w.drain();
    }
    w
}

/// Allocations per round trip of one apply of [`request_reply`], then
/// of its report's signature.
fn allocations_per_round_trip(clusters: usize) -> (f64, f64) {
    let w = request_reply(clusters);
    let mut fleet = w.instantiate(EngineKind::Analytic);
    let mut sharded = ShardedFleet::new(1);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = w.apply_sharded(&mut fleet, &mut sharded);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let round_trips = clusters / 2 * ROUNDS;
    assert_eq!(report.injected_replies, round_trips as u64, "{clusters}");
    assert_eq!(report.hop_forwards, 2 * round_trips as u64, "{clusters}");
    assert_eq!(report.dropped, 0, "{clusters}");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let signature = report.signature();
    let signed = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(signature.clusters.len(), clusters);
    let per_trip = |n: usize| n as f64 / round_trips as f64;
    (per_trip(allocations), per_trip(signed))
}

#[test]
fn request_reply_round_trips_stay_within_the_allocation_budget() {
    for clusters in [512, 1024] {
        let (per_trip, signature) = allocations_per_round_trip(clusters);
        assert!(
            per_trip <= BUDGET_PER_ROUND_TRIP,
            "{clusters} clusters: {per_trip:.2} allocations per round trip"
        );
        assert!(
            signature < SIGNATURE_BUDGET_PER_ROUND_TRIP,
            "{clusters} clusters: the signature made {signature:.2} allocations per round trip"
        );
    }
}
