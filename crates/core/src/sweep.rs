//! [`SweepRunner`]: deterministic parallel parameter sweeps.
//!
//! The paper's evaluation figures (Fig. 9, Fig. 11, Fig. 14) are
//! sweeps over independent parameter points — node counts, payload
//! lengths, clock rates. Each point builds its own engine, so points
//! share nothing and shard perfectly across threads. `SweepRunner`
//! does exactly that with `std::thread::scope`, preserving input order
//! and bit-identical results regardless of thread count: points are
//! split into contiguous near-equal parts (`balanced_parts`: sizes
//! differ by at most one, remainders dealt to the leading workers so
//! nobody gets the short straw), each worker maps its part in order,
//! and the parts are re-concatenated.
//!
//! # Determinism contract
//!
//! For any runner `r` and pure point function `f`,
//! `r.run(&points, f) == SweepRunner::serial().run(&points, f)` —
//! output position `i` is always `f(&points[i])`, computed exactly
//! once. Nothing about thread count, scheduling, or chunk boundaries
//! can leak into the results, because workers never share state and
//! never interleave their output ranges. The `sweep` bench binary and
//! `tests/sweep_determinism.rs` verify this on real engine-backed
//! grids every run.
//!
//! # Threading model
//!
//! Engines are `Send` but never shared, and a sweep never moves one:
//! the parallelism contract is *engine per point, inside the worker*,
//! which the `Fn(&P) -> R + Sync` bound enforces at compile time: the
//! closure may be called from many threads at once, so it cannot
//! drive a captured engine (that needs `&mut`) — it must build one per
//! call. This is also why sweeps scale:
//! points are embarrassingly parallel by construction.
//!
//! Worker threads are scoped (`std::thread::scope`), so borrowed
//! points work without `Arc`, and a panic in any worker propagates and
//! aborts the whole sweep rather than silently dropping a chunk.
//!
//! # Sweeping fleets
//!
//! [`SweepRunner::run_fleet_sizes`] lifts the same machinery to the
//! multi-bus [`fleet`](crate::fleet) layer: each point is a whole
//! gateway-bridged fleet (clusters × sensors), built and drained inside
//! the worker, summarized as a [`FleetSizeSample`]. This is how
//! population scaling past the 14-node single-bus limit is measured —
//! see the `fleet` bench binary.
//!
//! # Example
//!
//! ```
//! use mbus_core::sweep::SweepRunner;
//! use mbus_core::timing;
//!
//! let payloads: Vec<usize> = (0..32).collect();
//! let serial = SweepRunner::serial()
//!     .run(&payloads, |&n| timing::saturating_transaction_rate(n, 400_000));
//! let parallel = SweepRunner::with_threads(4)
//!     .run(&payloads, |&n| timing::saturating_transaction_rate(n, 400_000));
//! assert_eq!(serial, parallel);
//! ```

use std::num::NonZeroUsize;
use std::ops::Range;

use crate::engine::EngineKind;
use crate::fleet::{FleetSchedule, FleetWorkload};

/// Splits `0..len` into up to `parts` contiguous ranges whose sizes
/// differ by at most one: every part gets `len / parts` items and the
/// first `len % parts` parts get one extra. This fixes the classic
/// `div_ceil` chunking short-straw — with 10 points on 4 workers,
/// `chunks(3)` deals 3/3/3/1 (the last worker nearly idle) while this
/// deals 3/3/2/2. Returns fewer than `parts` ranges only when `len`
/// is smaller (never an empty range); `parts` of zero is treated as
/// one.
pub(crate) fn balanced_parts(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Shards independent sweep points across scoped worker threads.
///
/// A `SweepRunner` is just a worker count; it holds no other state and
/// is freely copyable. See the [module docs](self) for the determinism
/// and threading contracts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepRunner {
    threads: NonZeroUsize,
}

/// One point of a fleet-size sweep: the topology that was run and what
/// it cost. Produced by [`SweepRunner::run_fleet_sizes`] and
/// [`SweepRunner::run_engine_fleet_grid`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetSizeSample {
    /// The engine kind every cluster bus ran.
    pub kind: EngineKind,
    /// Number of cluster buses in the fleet.
    pub clusters: usize,
    /// Sensors on each cluster bus (the gateway presence is extra).
    pub sensors_per_cluster: usize,
    /// Total ring positions across the fleet, gateway presences
    /// included.
    pub total_nodes: usize,
    /// Transactions the fleet ran, across every bus.
    pub transactions: usize,
    /// Envelopes the gateway forwarded between buses.
    pub forwarded: u64,
    /// Total bus-clock cycles across every bus.
    pub total_cycles: u64,
}

impl SweepRunner {
    /// A single-threaded runner (the reference ordering).
    pub fn serial() -> Self {
        SweepRunner {
            threads: NonZeroUsize::MIN,
        }
    }

    /// A runner with exactly `threads` workers (minimum 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner {
            threads: NonZeroUsize::new(threads.max(1)).expect("max(1) is nonzero"),
        }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn auto() -> Self {
        SweepRunner {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Maps `f` over `points`, sharded across the workers. The output
    /// is in input order and identical to the serial run — workers
    /// process contiguous near-equal parts (`balanced_parts`, sizes
    /// within one of each other) and never interleave results.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the whole sweep aborts).
    pub fn run<P, R, F>(&self, points: &[P], f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> R + Sync,
    {
        let threads = self.threads().min(points.len().max(1));
        if threads <= 1 {
            return points.iter().map(f).collect();
        }
        let f = &f;
        let mut out: Vec<R> = Vec::with_capacity(points.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = balanced_parts(points.len(), threads)
                .into_iter()
                .map(|range| {
                    let part = &points[range];
                    scope.spawn(move || part.iter().map(f).collect::<Vec<R>>())
                })
                .collect();
            for handle in handles {
                out.extend(handle.join().expect("sweep worker panicked"));
            }
        });
        out
    }

    /// Sweeps over fleet topologies: for each `(clusters,
    /// sensors_per_cluster)` point, builds a fresh gateway-bridged
    /// fleet of `kind` inside the worker, runs `rounds` rounds of
    /// [`FleetWorkload::sense_and_aggregate`] on it, and summarizes the
    /// run. Points are independent whole fleets, so the usual
    /// determinism contract holds: the result is bit-identical to the
    /// serial run.
    ///
    /// # Panics
    ///
    /// Propagates topology panics from
    /// [`FleetWorkload::sense_and_aggregate`] (zero clusters, or more
    /// sensors than a bus has short prefixes for).
    pub fn run_fleet_sizes(
        &self,
        kind: EngineKind,
        sizes: &[(usize, usize)],
        rounds: usize,
    ) -> Vec<FleetSizeSample> {
        self.run(sizes, |&(clusters, sensors)| {
            fleet_sample(kind, clusters, sensors, rounds, FleetSchedule::Batched)
        })
    }

    /// Sweeps the full engine-kind × fleet-size grid: every `kinds`
    /// entry crossed with every `sizes` point, in row-major order
    /// (all sizes for `kinds[0]`, then `kinds[1]`, …), each point a
    /// whole fleet built inside the worker. This is how the
    /// `interleave` bench compares the analytic and wire engines
    /// across populations; the usual determinism contract holds
    /// (sharded ≡ serial, bit-identical).
    ///
    /// # Panics
    ///
    /// As [`SweepRunner::run_fleet_sizes`].
    pub fn run_engine_fleet_grid(
        &self,
        kinds: &[EngineKind],
        sizes: &[(usize, usize)],
        rounds: usize,
    ) -> Vec<FleetSizeSample> {
        self.run_engine_fleet_grid_scheduled(kinds, sizes, rounds, FleetSchedule::Batched)
    }

    /// [`SweepRunner::run_engine_fleet_grid`] with an explicit
    /// [`FleetSchedule`] for every point's drains. Because fleet
    /// drains are schedule-independent, the samples are bit-identical
    /// across schedules — which is exactly what makes this a useful
    /// cross-check: a grid run under `Sharded { .. }` must equal the
    /// batched grid. Note the parallelism composes: the sweep shards
    /// *points* across its own workers, and a sharded schedule
    /// additionally shards each fleet's clusters inside the point.
    pub fn run_engine_fleet_grid_scheduled(
        &self,
        kinds: &[EngineKind],
        sizes: &[(usize, usize)],
        rounds: usize,
        schedule: FleetSchedule,
    ) -> Vec<FleetSizeSample> {
        let points: Vec<(EngineKind, (usize, usize))> = kinds
            .iter()
            .flat_map(|&kind| sizes.iter().map(move |&size| (kind, size)))
            .collect();
        self.run(&points, |&(kind, (clusters, sensors))| {
            fleet_sample(kind, clusters, sensors, rounds, schedule)
        })
    }
}

/// Builds, runs, and summarizes one fleet point.
fn fleet_sample(
    kind: EngineKind,
    clusters: usize,
    sensors: usize,
    rounds: usize,
    schedule: FleetSchedule,
) -> FleetSizeSample {
    let report = FleetWorkload::sense_and_aggregate(clusters, sensors, rounds)
        .run_scheduled_on(kind, schedule);
    FleetSizeSample {
        kind,
        clusters,
        sensors_per_cluster: sensors,
        total_nodes: report.total_nodes(),
        transactions: report.transactions(),
        forwarded: report.forwarded,
        total_cycles: report.total_cycles(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use crate::scenario::Workload;

    #[test]
    fn serial_and_parallel_agree_on_pure_points() {
        let points: Vec<u64> = (0..1000).collect();
        let f = |&x: &u64| x * x + 1;
        let serial = SweepRunner::serial().run(&points, f);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                SweepRunner::with_threads(threads).run(&points, f),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn engine_per_point_sweeps_are_deterministic() {
        // Each point runs a real workload on a freshly built engine
        // inside the worker thread.
        let points: Vec<usize> = (2..=8).collect();
        let f = |&n: &usize| {
            let report = Workload::many_node_storm(n, 2).run_on(EngineKind::Analytic);
            (report.records.len(), report.total_cycles())
        };
        let serial = SweepRunner::serial().run(&points, f);
        let parallel = SweepRunner::with_threads(4).run(&points, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fleet_size_sweeps_are_deterministic_and_scale_population() {
        let sizes = [(2usize, 3usize), (4, 6), (8, 13)];
        let serial = SweepRunner::serial().run_fleet_sizes(EngineKind::Analytic, &sizes, 1);
        let sharded = SweepRunner::with_threads(3).run_fleet_sizes(EngineKind::Analytic, &sizes, 1);
        assert_eq!(serial, sharded);
        assert_eq!(serial[2].total_nodes, 8 * 14, "well past one bus's 14");
        assert!(serial.iter().all(|s| s.forwarded > 0));
        assert!(serial.iter().all(|s| s.kind == EngineKind::Analytic));
        // Bigger fleets do strictly more work.
        assert!(serial[0].total_cycles < serial[1].total_cycles);
        assert!(serial[1].total_cycles < serial[2].total_cycles);
    }

    #[test]
    fn engine_fleet_grid_crosses_kinds_with_sizes() {
        let kinds = EngineKind::ALL;
        let sizes = [(2usize, 2usize), (3, 4)];
        let grid = SweepRunner::with_threads(2).run_engine_fleet_grid(&kinds, &sizes, 1);
        assert_eq!(grid.len(), 4);
        assert_eq!(
            grid,
            SweepRunner::serial().run_engine_fleet_grid(&kinds, &sizes, 1),
            "grid sweeps shard deterministically"
        );
        // Row-major: all sizes for a kind, then the next kind — and
        // the two kinds agree on population and routing. (Transaction
        // counts differ by the wire level's self-wake nulls for the
        // gated reporters; see `crate::engine`.)
        assert_eq!(grid[0].kind, EngineKind::Analytic);
        assert_eq!(grid[2].kind, EngineKind::Wire);
        for (a, w) in grid[..2].iter().zip(&grid[2..]) {
            assert_eq!(a.total_nodes, w.total_nodes);
            assert_eq!(a.forwarded, w.forwarded);
        }
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(SweepRunner::auto().run(&empty, |&x| x).is_empty());
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
        assert_eq!(
            SweepRunner::with_threads(9).run(&[5u32], |&x| x + 1),
            vec![6]
        );
    }

    #[test]
    fn ragged_parts_are_dealt_evenly() {
        // The short-straw fix: 10 points on 4 workers used to chunk
        // 3/3/3/1; now the remainder is dealt to the leading parts.
        assert_eq!(balanced_parts(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(balanced_parts(26, 8).len(), 8);
        for parts in 1..=9 {
            for len in 0..40 {
                let ranges = balanced_parts(len, parts);
                // Contiguous, in order, covering 0..len exactly.
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "len={len} parts={parts}");
                    assert!(!r.is_empty(), "len={len} parts={parts}");
                    next = r.end;
                }
                assert_eq!(next, len, "len={len} parts={parts}");
                // Sizes within one of each other — no short straw.
                if let (Some(max), Some(min)) = (
                    ranges.iter().map(Range::len).max(),
                    ranges.iter().map(Range::len).min(),
                ) {
                    assert!(max - min <= 1, "len={len} parts={parts}: {max} vs {min}");
                }
            }
        }
        // Degenerate inputs.
        assert!(balanced_parts(0, 3).is_empty());
        assert_eq!(balanced_parts(3, 0), vec![0..3]);
        assert_eq!(balanced_parts(2, 5), vec![0..1, 1..2]);
    }

    #[test]
    fn more_threads_than_points_is_fine() {
        let points: Vec<u32> = (0..3).collect();
        assert_eq!(
            SweepRunner::with_threads(16).run(&points, |&x| x * 10),
            vec![0, 10, 20]
        );
    }
}
