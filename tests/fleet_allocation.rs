//! Allocation budget for a closed-loop request/reply fleet.
//!
//! Each leg of a message allocates at most once on the fleet path:
//! the sender builds its envelope in one buffer, the kernel moves that
//! buffer into the gateway's receive log, the gateway forwards it in
//! place, and receive logs drain into reused buffers. So a round trip
//! (request envelope, mesh hop, forwarded request, reply envelope,
//! mesh hop, forwarded reply) costs a few allocations, whatever the
//! fleet size. A counting global allocator measures one apply, then
//! the report's signature, which borrows every record and delivery
//! instead of copying it, then the signature's digest, which allocates
//! nothing per delivery.
//!
//! The allocator counts every allocation in this test binary, so the
//! file holds exactly one test: nothing else runs while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mbus_core::behavior::with_return_address;
use mbus_core::{
    fleet_digest, BusConfig, EngineKind, FleetNodeId, FleetWorkload, FuId, NodeBehavior,
    ShardedFleet,
};

/// Forwards to [`System`], counting allocations and reallocations and
/// the bytes each asks for.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// that never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `layout` contract is forwarded to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as for this method.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `layout` contract is forwarded to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
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
        BYTES.fetch_add(new_size, Ordering::Relaxed);
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
/// (512 clusters) and 3.53 (1024 clusters) when first set, 3.51 and
/// 3.31 while every drive still opened a thread scope, and 3.48 and
/// 3.30 since the shard workers live in a pool; copying each payload
/// again on every leg puts it above 16.
const BUDGET_PER_ROUND_TRIP: f64 = 4.0;

/// Allocations `FleetReport::signature` may cost per round trip, kept
/// below one: the signature borrows every record, delivery, wake and
/// drop vector and owns only one exactly sized bucket of record
/// references per cluster. Measured at 0.06 (512 and 1024 clusters);
/// growing owned copies of the records measured 0.31, and a signature
/// that also clones both payloads of every round trip measured 2.56.
const SIGNATURE_BUDGET_PER_ROUND_TRIP: f64 = 1.0;

/// Bytes `FleetReport::signature` may ask for per record of the
/// report: one 8-byte reference per record, plus the per-cluster
/// views and the counting pass. Measured at 9.6 (512 and 1024
/// clusters); copying each 48-byte record into growing buckets
/// measured 94.5.
const SIGNATURE_BYTES_PER_RECORD: f64 = 16.0;

/// Allocations `fleet_digest` of the report costs, whatever the
/// cluster count: none, because the digest walks the borrowed view and
/// encodes each delivery's address inline. Encoding each address into
/// a `Vec` cost one allocation per delivery: 16384 at 512 clusters and
/// 32768 at 1024.
const DIGEST_ALLOCATIONS: usize = 0;

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

/// What one apply of [`request_reply`] costs, then its report's
/// signature, then that signature's digest.
struct Costs {
    /// Allocations of the apply, per round trip.
    apply_per_trip: f64,
    /// Allocations of the signature, per round trip.
    signature_per_trip: f64,
    /// Bytes the signature asks for, per record of the report.
    signature_bytes_per_record: f64,
    /// Allocations of the digest.
    digest: usize,
}

/// Allocations (and bytes) counted while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (allocations, bytes) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

fn costs(clusters: usize) -> Costs {
    let w = request_reply(clusters);
    let mut fleet = w.instantiate(EngineKind::Analytic);
    let mut sharded = ShardedFleet::new(1);
    let (report, applied, _) = counted(|| w.apply_sharded(&mut fleet, &mut sharded));
    let round_trips = clusters / 2 * ROUNDS;
    assert_eq!(report.injected_replies, round_trips as u64, "{clusters}");
    assert_eq!(report.hop_forwards, 2 * round_trips as u64, "{clusters}");
    assert_eq!(report.dropped, 0, "{clusters}");
    let (signature, signed, signed_bytes) = counted(|| report.signature());
    assert_eq!(signature.clusters.len(), clusters);
    let (_, digested, _) = counted(|| fleet_digest(&signature));
    let per_trip = |n: usize| n as f64 / round_trips as f64;
    Costs {
        apply_per_trip: per_trip(applied),
        signature_per_trip: per_trip(signed),
        signature_bytes_per_record: signed_bytes as f64 / report.records.len() as f64,
        digest: digested,
    }
}

#[test]
fn request_reply_round_trips_stay_within_the_allocation_budget() {
    for clusters in [512, 1024] {
        let costs = costs(clusters);
        assert!(
            costs.apply_per_trip <= BUDGET_PER_ROUND_TRIP,
            "{clusters} clusters: {:.2} allocations per round trip",
            costs.apply_per_trip
        );
        assert!(
            costs.signature_per_trip < SIGNATURE_BUDGET_PER_ROUND_TRIP,
            "{clusters} clusters: the signature made {:.2} allocations per round trip",
            costs.signature_per_trip
        );
        assert!(
            costs.signature_bytes_per_record <= SIGNATURE_BYTES_PER_RECORD,
            "{clusters} clusters: the signature asked for {:.1} bytes per record",
            costs.signature_bytes_per_record
        );
        assert_eq!(
            costs.digest, DIGEST_ALLOCATIONS,
            "{clusters} clusters: allocations of the digest"
        );
    }
}
