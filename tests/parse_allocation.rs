//! Allocation budget for parsing an `.mbt` trace.
//!
//! The parser reuses one token buffer for every line, decodes payload
//! hex straight into an exactly sized buffer (a remote step's with
//! room for the envelope header written in front of it), and moves the
//! step list into the workload in one go. So a parse allocates once
//! per non-empty payload or remote envelope and once per declared
//! cluster or behavior, plus the logarithmic growth of its lists. A counting global allocator measures one parse
//! of a generated fleet trace.
//!
//! The allocator counts every allocation in this test binary, so the
//! file holds exactly one test: nothing else runs while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use mbus_core::fleet::FleetStep;
use mbus_core::trace::{Trace, TraceFile};

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

const CLUSTERS: usize = 64;
const SENSORS: usize = 4;
const BEHAVIORS: usize = 16;
const REMOTES: usize = 12_288;

/// Allocations a parse may make beyond one per payload, cluster and
/// behavior: the growth of the step, cluster, domain and behavior
/// lists and of the token buffer, the behavior table's tree nodes, and
/// the name.
const SLACK: usize = 64;

/// A v2 fleet trace of [`CLUSTERS`] clusters and [`BEHAVIORS`] reply
/// behaviors whose steps are [`REMOTES`] remote sends (every 64th
/// with an empty payload, some with `ttl=` or `prio`), a local send
/// and a wakeup every 256 steps, and a drain every 1024.
fn generated_trace() -> String {
    let mut text = String::from(
        "mbt 2 fleet\nname parse_allocation\nseed 5\nconfig clock=400000 maxmsg=1024\n",
    );
    for c in 0..CLUSTERS {
        let _ = writeln!(text, "cluster aagg domain={}", c % 4);
    }
    for b in 0..BEHAVIORS {
        let _ = writeln!(text, "behavior {b}.{} reply 3 {b:02x}beef", 1 + b % SENSORS);
    }
    for i in 0..REMOTES {
        let (src, dest) = (i % CLUSTERS, (i * 7 + 1) % CLUSTERS);
        let node = 1 + i % SENSORS;
        let payload = if i % 64 == 0 {
            "-".to_string()
        } else {
            format!("{:0width$x}", i, width = 4 + 2 * (i % 6))
        };
        let tail = match i % 5 {
            0 => " ttl=3",
            1 => " prio",
            _ => "",
        };
        let _ = writeln!(text, "remote {src}.{node} {dest}.{node} 2 {payload}{tail}");
        if i % 256 == 255 {
            let _ = writeln!(text, "local {src}.1 0x2.1 {i:08x}");
            let _ = writeln!(text, "wakeup {dest}.2");
        }
        if i % 1024 == 1023 {
            text.push_str("drain\n");
        }
    }
    text
}

#[test]
fn parsing_allocates_once_per_payload_and_declared_item() {
    let text = generated_trace();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let file = TraceFile::parse_str("generated", &text).expect("the generated trace parses");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let Trace::Fleet(fleet) = &file.trace else {
        panic!("a fleet trace parsed as a single-bus workload");
    };
    let remotes = fleet
        .steps()
        .iter()
        .filter(|s| matches!(s, FleetStep::Remote { .. }))
        .count();
    assert_eq!(remotes, REMOTES);
    let payloads = fleet
        .steps()
        .iter()
        .filter(|s| match s {
            // A remote step's envelope always holds its header.
            FleetStep::Remote { .. } => true,
            FleetStep::Local { msg, .. } => !msg.payload().is_empty(),
            _ => false,
        })
        .count();
    let clusters = fleet.cluster_specs().len();
    let behaviors = fleet.behaviors().len();
    assert_eq!((clusters, behaviors), (CLUSTERS, BEHAVIORS));

    let items = payloads + clusters + behaviors;
    let budget = items + items / 20 + SLACK;
    assert!(
        allocations <= budget,
        "{allocations} allocations to parse {} lines ({payloads} payloads, {clusters} \
         clusters, {behaviors} behaviors): budget {budget}",
        text.lines().count()
    );
}
