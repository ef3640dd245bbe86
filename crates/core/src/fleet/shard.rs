//! Sharded fleet drains: groups of interleaved clusters on a
//! persistent worker pool, synchronized at cross-worker gateway
//! barriers, with shards rebalanced by measured load.
//!
//! The single-threaded [`InterleavedScheduler`] serves thousands of
//! buses on one core; this module scales that shape across cores. A
//! [`ShardedFleet`] partitions a fleet's clusters into **shards** —
//! contiguous under [`ShardBalance::Static`], load-balanced under
//! [`ShardBalance::Measured`] — and, each epoch, runs one
//! `InterleavedScheduler` per shard on a long-lived
//! `WorkerPool` (`fleet/pool.rs`) worker (or, in the
//! [`ShardedFleet::per_epoch_spawn`] baseline mode, a fresh
//! `std::thread::scope` worker per epoch, the PR 5 shape). When every
//! shard's clusters are quiescent, the workers hand back **per-shard
//! outboxes** (classified gateway envelopes plus local-traffic stashes
//! and drop counters) and the barrier exchanges them: forwarded legs
//! are queued onto their destination buses in **global source-cluster
//! order**, exactly as the single-threaded routing pass would.
//!
//! # Equivalence argument
//!
//! The sharded drain is *bit-identical* to the single-threaded
//! interleaved drain — not just per-cluster, but in the fleet-wide
//! record order too, for every shard count, worker-pool mode, and
//! rebalance schedule:
//!
//! * **Per-cluster streams.** Clusters share no state except through
//!   barrier routing, and a worker's epoch issues each of its clusters
//!   the identical `run_transaction`-until-quiescent call sequence the
//!   single-threaded scheduler would. So each cluster performs the
//!   same autonomous drain from the same epoch-start state — whichever
//!   shard it currently sits on.
//! * **Record order.** In round-robin, a cluster's `j`-th transaction
//!   of an epoch always runs in round `j`, *independent of every other
//!   cluster* (a cluster stays in the rotation exactly until its own
//!   work runs out). The single-threaded scheduler therefore emits an
//!   epoch's records sorted by `(round, cluster index)` — and merging
//!   all shards' `(round, cluster, record)` emissions by that same key
//!   reproduces the order exactly, whatever the shard assignment.
//! * **Gateway counters.** Workers classify their own clusters'
//!   envelopes against the shared read-only [`GatewayRoutes`] table
//!   into per-shard counters; every counter is a sum, so the
//!   barrier-time merge is order-independent and equals the
//!   single-threaded totals, per-cluster drop attribution included.
//! * **Routing order.** Forwarded legs are tagged with their source
//!   cluster and stably sorted by it at the barrier, so they are
//!   queued by (source cluster, receive position) — the
//!   single-threaded `route_cluster` loop's order — even when a
//!   rebalance has made shards non-contiguous. Queueing never executes
//!   bus work (engines only run inside epochs), so barrier-internal
//!   interleaving of `take_rx` and `queue` calls is immaterial.
//! * **Rebalancing is deterministic.** [`ShardBalance::Measured`]
//!   repartitions on the schedulers' per-cluster transaction counters,
//!   which are themselves a pure function of the (deterministic)
//!   record stream; the greedy bin-packing breaks every tie by index.
//!   The assignment therefore replays identically run-to-run, and by
//!   the points above the *output* never depends on it anyway.
//!
//! `tests/sharded_fleet.rs` pins all of this over hundreds of seeds,
//! every [`EngineKind`](crate::engine::EngineKind), shard counts
//! 1/2/4/7, and rebalance-every-epoch vs never-rebalance.
//!
//! # Threading model
//!
//! Engines are single-threaded objects (the wire engine's internals
//! are `Rc`-based by design); the parallelism contract is *exclusive
//! engine ownership per worker, per epoch*. Each worker receives the
//! epoch's `(cluster, &mut engine)` entries for its shard and the
//! barrier rendezvous returns exclusive access to the driver thread —
//! engines migrate between threads but are never shared, which is what
//! the `Send` wrapper below asserts. With the persistent pool the
//! driver runs shard 0 itself (the pool holds `workers - 1` threads),
//! and a wait-on-drop guard keeps the engine borrows alive across
//! driver unwinds until every worker has finished its generation —
//! discharging the `WorkerPool::submit` safety contract.

use std::any::Any;
use std::cmp::Reverse;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use super::pool::{run_scoped, WorkerPool};
use super::{
    Fleet, FleetFairness, FleetRecord, GatewayCounters, GatewayRoutes, GatewayVerdict,
    InterleavedScheduler, GATEWAY_NODE,
};
use crate::engine::{BusEngine, EngineRecord, ReceivedMessage};
use crate::message::Message;

/// One epoch's worth of exclusive engine access for one shard:
/// `(fleet-global cluster index, engine)` pairs in ascending cluster
/// order.
type ShardEntries<'a> = Vec<(usize, &'a mut Box<dyn BusEngine>)>;

/// Exclusive access to one shard's engines for the duration of one
/// epoch, movable onto a worker thread.
struct ShardEngines<'a>(ShardEntries<'a>);

// SEND-AUDIT: this file pairs an `impl Send` with engines whose
// internals are `Rc`-based; the audit that no `Rc`/`RefCell` is ever
// reachable from two threads is the SAFETY argument below.
//
// SAFETY: `dyn BusEngine` carries no `Send` bound only because the
// wire engine's internal object graph uses `Rc<RefCell<…>>`. Every
// such `Rc` is created inside the engine and reachable only through
// it: the `BusEngine` surface returns owned plain data (records,
// messages, stats, specs), never an alias into the graph, and the
// fleet layer builds its engines internally and touches them through
// that surface alone. Each boxed engine is therefore an isolated
// single-owner object graph, and moving the exclusive `&mut` entries
// to exactly one worker moves access to each graph wholesale — no
// reference count or `RefCell` borrow can be reached from two threads.
// The epoch rendezvous (scope join or pool barrier) hands exclusive
// access back to the driver thread before anything else touches the
// engines.
unsafe impl Send for ShardEngines<'_> {}

/// What one shard hands back at an epoch barrier.
#[derive(Default)]
struct ShardEpoch {
    /// Whether any transaction ran on this shard this epoch.
    ran: bool,
    /// `(round, global cluster, record)` emissions, already sorted by
    /// `(round, cluster)` — the merge key that reproduces the
    /// single-threaded round-robin order.
    records: Vec<(u64, usize, EngineRecord)>,
    /// Non-envelope gateway traffic, per global cluster, for the
    /// fleet's `take_rx` stash.
    stash: Vec<(usize, ReceivedMessage)>,
    /// Forwarded legs as `(source cluster, destination cluster,
    /// message)`, in (source cluster, receive position) order within
    /// the shard; the barrier's stable source sort restores the global
    /// routing order across (possibly non-contiguous) shards.
    forwards: Vec<(usize, usize, Message)>,
    /// This shard's forwarding/drop accounting for the epoch, merged
    /// into the fleet's [`GatewayNode`](super::GatewayNode) at the
    /// barrier.
    counters: GatewayCounters,
    /// Wall-clock nanoseconds the shard spent in this epoch body —
    /// the per-shard load gauge surfaced through
    /// [`FleetFairness::shard_wall_nanos`].
    wall_nanos: u64,
}

/// One worker's epoch: interleave the shard's clusters to quiescence,
/// then classify their gateway presences' receive logs against the
/// shared routing table into the shard's outbox.
fn run_shard_epoch(
    mut engines: ShardEngines<'_>,
    scheduler: &mut InterleavedScheduler,
    routes: &GatewayRoutes,
) -> ShardEpoch {
    let entries = &mut engines.0;
    let mut records = Vec::new();
    let ran = scheduler.run_epoch_entries(entries, &mut |round, cluster, record| {
        records.push((round, cluster, record))
    });
    let mut out = ShardEpoch {
        ran,
        records,
        ..ShardEpoch::default()
    };
    for (cluster, engine) in entries.iter_mut() {
        let cluster = *cluster;
        for m in engine.take_rx(GATEWAY_NODE) {
            // All counting (forwards, mesh hops, per-hop drops)
            // happens inside `classify`, against this shard's epoch
            // counters — merged at the barrier, so the totals are
            // identical to the single-threaded routing discipline.
            match routes.classify(cluster, m, &mut out.counters) {
                GatewayVerdict::Local(m) => out.stash.push((cluster, m)),
                GatewayVerdict::Forward { dest_cluster, msg } => {
                    out.forwards.push((cluster, dest_cluster, msg));
                }
                GatewayVerdict::Drop => {}
            }
        }
    }
    out
}

/// [`run_shard_epoch`] with the wall-clock gauge filled in.
fn timed_shard_epoch(
    engines: ShardEngines<'_>,
    scheduler: &mut InterleavedScheduler,
    routes: &GatewayRoutes,
) -> ShardEpoch {
    // WALL-CLOCK: per-shard load gauge for the fairness report and the
    // Measured balancer's diagnostics only; `wall_nanos` never reaches
    // a signature-bearing stream (signatures are pure functions of
    // seeds — see the determinism contract in the module docs).
    let start = Instant::now();
    let mut out = run_shard_epoch(engines, scheduler, routes);
    out.wall_nanos = start.elapsed().as_nanos() as u64;
    out
}

/// How a [`ShardedFleet`] assigns clusters to worker shards.
///
/// Either way the assignment is deterministic and the drained output
/// is *identical* — the merge key and the barrier's source-sorted
/// routing make the record stream independent of the assignment (see
/// the [module docs](self)); balancing only moves wall-clock time
/// between workers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardBalance {
    /// Contiguous near-equal cluster ranges, fixed for the fleet's
    /// size — the PR 5 shape.
    Static,
    /// Greedy bin-packing on the schedulers' accumulated per-cluster
    /// transaction counters (heaviest cluster first onto the lightest
    /// shard, every tie broken by index), refreshed at epoch
    /// boundaries. The counters are a pure function of the
    /// deterministic record stream, so the assignment replays
    /// identically run-to-run.
    Measured {
        /// Rebalance cadence in progress epochs (0 is treated as 1 —
        /// every epoch).
        every_epochs: u64,
    },
}

impl fmt::Display for ShardBalance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardBalance::Static => write!(f, "static"),
            ShardBalance::Measured { every_epochs } => write!(f, "measured({every_epochs})"),
        }
    }
}

/// A consumer of a sharded drain's record emissions — the streaming
/// alternative to the plain closure [`ShardedFleet::drive`] takes.
///
/// [`ShardedFleet::drive_sink`] calls [`FleetRecordSink::shard_records`]
/// with each shard's raw epoch emissions *as that shard completes* —
/// before the fleet-wide merge, in worker completion order (which is
/// timing-dependent and **not** deterministic) — then delivers the
/// ordered merge through [`FleetRecordSink::record`] exactly as the
/// closure form would. The merged stream is the conformance-pinned
/// one; the per-shard batches are for consumers that want records as
/// early as possible and do their own ordering (each batch is
/// internally sorted by the `(round, cluster)` merge key, so a
/// same-epoch merge of all batches equals the merged stream).
pub trait FleetRecordSink {
    /// The ordered fleet-wide stream: bit-identical to
    /// [`InterleavedScheduler::drive`]'s emission order.
    fn record(&mut self, record: FleetRecord);

    /// One shard's `(round, cluster, record)` emissions for the epoch
    /// that just completed on it, delivered in worker completion order
    /// (nondeterministic across shards; deterministic within the
    /// batch). `epoch` is the drain's cumulative progress-epoch count
    /// *before* this barrier (so all batches of one barrier share it);
    /// the final quiescent barrier delivers empty batches under the
    /// same id as the last progress barrier.
    fn shard_records(&mut self, epoch: u64, shard: usize, records: &[(u64, usize, EngineRecord)]) {
        let _ = (epoch, shard, records);
    }

    /// Called after each progress epoch's barrier has merged, with the
    /// new cumulative [`ShardedFleet::epochs`] value. Not called for
    /// the empty terminating epoch.
    fn epoch_complete(&mut self, epochs: u64) {
        let _ = epochs;
    }
}

/// Adapts the plain-closure drive to the sink interface: merged
/// records only, per-shard batches ignored.
struct MergedOnly<'a>(&'a mut dyn FnMut(FleetRecord));

impl FleetRecordSink for MergedOnly<'_> {
    fn record(&mut self, record: FleetRecord) {
        (self.0)(record)
    }
}

/// Rendezvous for the persistent-pool epoch: workers deliver their
/// shard results (or caught panics) as they finish; the driver
/// receives them in completion order.
/// What a worker reports for one shard: the epoch results, or the
/// panic payload its job caught.
type ShardOutcome = Result<ShardEpoch, Box<dyn Any + Send>>;

#[derive(Default)]
struct EpochInbox {
    slots: Mutex<Vec<(usize, ShardOutcome)>>,
    ready: Condvar,
}

impl EpochInbox {
    fn deliver(&self, shard: usize, result: ShardOutcome) {
        self.slots.lock().expect("inbox lock").push((shard, result));
        self.ready.notify_all();
    }

    fn recv(&self) -> (usize, ShardOutcome) {
        let mut slots = self.slots.lock().expect("inbox lock");
        loop {
            if let Some(item) = slots.pop() {
                return item;
            }
            slots = self.ready.wait(slots).expect("inbox lock");
        }
    }
}

/// Keeps the engine borrows handed to the pool alive until the whole
/// generation has finished, even if the driver thread unwinds (e.g. a
/// sink panics mid-epoch) — the other half of the
/// `WorkerPool::submit` safety contract.
struct EpochGuard<'a> {
    pool: &'a WorkerPool,
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        self.pool.wait_all();
    }
}

/// The multi-threaded fleet driver: cluster shards on a persistent
/// worker pool, one [`InterleavedScheduler`] per shard, gateway
/// envelopes exchanged at cross-worker epoch barriers, shards
/// rebalanced by measured per-cluster load.
///
/// Drives any [`Fleet`] exactly like [`InterleavedScheduler::drive`]
/// — same record stream, same receive logs, same statistics, same
/// gateway counters (see the [module docs](self) for why) — while
/// spreading the per-epoch bus work across up to `shards` cores.
/// Engines migrate to a worker once per *rebalance* (and the worker
/// threads themselves live across epochs and drives), not once per
/// epoch; [`ShardedFleet::per_epoch_spawn`] keeps the scoped
/// spawn-per-epoch baseline for comparison. Like the scheduler, a
/// `ShardedFleet` is reusable across drives and accumulates its
/// counters.
///
/// # Example
///
/// ```
/// use mbus_core::fleet::{Fleet, ShardedFleet};
/// use mbus_core::{BusConfig, EngineKind, FuId};
///
/// let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
/// for _ in 0..8 {
///     let c = fleet.add_cluster();
///     fleet.add_sensor(c, false);
/// }
/// let src = mbus_core::FleetNodeId::new(0, 1);
/// let dst = mbus_core::FleetNodeId::new(7, 1);
/// fleet.queue_remote(src, dst, FuId::ZERO, vec![0x42])?;
///
/// let mut sharded = ShardedFleet::new(4);
/// let mut records = Vec::new();
/// sharded.drive(&mut fleet, &mut |r| records.push(r));
/// assert_eq!(records.len(), 2); // envelope leg + forwarded leg
/// assert_eq!(sharded.transactions(), 2);
/// assert_eq!(fleet.take_rx(dst)[0].payload, vec![0x42]);
/// # Ok::<(), mbus_core::MbusError>(())
/// ```
#[derive(Debug)]
pub struct ShardedFleet {
    shards: usize,
    balance: ShardBalance,
    /// Persistent-pool mode (the default) vs the scoped
    /// spawn-per-epoch baseline.
    persistent: bool,
    /// The long-lived workers, created by the first multi-worker
    /// persistent epoch and reused for every epoch after.
    pool: Option<WorkerPool>,
    /// One persistent scheduler per worker slot, so fairness counters
    /// accumulate across epochs and drives exactly as the
    /// single-threaded scheduler's do.
    schedulers: Vec<InterleavedScheduler>,
    epochs: u64,
    /// Current cluster-to-shard assignment: `assignment[s]` lists
    /// shard `s`'s clusters in ascending order; together the lists
    /// partition `0..assigned_clusters`.
    assignment: Vec<Vec<usize>>,
    assigned_clusters: usize,
    /// The epoch count at which [`ShardBalance::Measured`] next
    /// recomputes the assignment.
    next_rebalance: u64,
    /// Cumulative wall-clock nanoseconds per shard (epoch bodies only,
    /// barrier time excluded), indexed by shard.
    shard_wall_nanos: Vec<u64>,
}

impl Default for ShardedFleet {
    fn default() -> Self {
        ShardedFleet::new(1)
    }
}

impl ShardedFleet {
    /// Creates a driver that spreads each epoch across up to `shards`
    /// workers (0 is treated as 1; the effective worker count is
    /// further clamped to the driven fleet's cluster count), using the
    /// persistent pool and rebalancing by measured load every epoch.
    pub fn new(shards: usize) -> Self {
        ShardedFleet::with_balance(shards, ShardBalance::Measured { every_epochs: 1 })
    }

    /// [`ShardedFleet::new`] with an explicit [`ShardBalance`].
    pub fn with_balance(shards: usize, balance: ShardBalance) -> Self {
        ShardedFleet {
            shards: shards.max(1),
            balance,
            persistent: true,
            pool: None,
            schedulers: Vec::new(),
            epochs: 0,
            assignment: Vec::new(),
            assigned_clusters: 0,
            next_rebalance: 0,
            shard_wall_nanos: Vec::new(),
        }
    }

    /// The pre-pool baseline: a fresh `std::thread::scope` worker per
    /// shard per epoch over static contiguous shards — the PR 5
    /// execution shape, kept so the `interleave` bench can measure
    /// exactly what the persistent pool buys. Output is identical to
    /// every other mode.
    pub fn per_epoch_spawn(shards: usize) -> Self {
        ShardedFleet {
            persistent: false,
            ..ShardedFleet::with_balance(shards, ShardBalance::Static)
        }
    }

    /// The configured shard (worker) count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The configured [`ShardBalance`] policy.
    pub fn balance(&self) -> ShardBalance {
        self.balance
    }

    /// The current cluster-to-shard assignment: entry `s` lists shard
    /// `s`'s clusters in ascending order. Empty before the first
    /// drive; refreshed at rebalance boundaries.
    pub fn shard_assignment(&self) -> &[Vec<usize>] {
        &self.assignment
    }

    /// Transactions driven across all [`drive`](Self::drive) calls,
    /// summed over every shard.
    pub fn transactions(&self) -> u64 {
        self.schedulers.iter().map(|s| s.transactions()).sum()
    }

    /// Progress epochs (cross-worker barriers that ran a transaction
    /// or routed an envelope) across all drives — the same contract as
    /// [`InterleavedScheduler::epochs`]: the empty terminating epoch
    /// is not counted, so back-to-back drives on a quiescent fleet
    /// leave the counter unchanged.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The per-shard schedulers, in shard order — each exposes its own
    /// transaction and fairness counters for per-worker reporting.
    pub fn shard_schedulers(&self) -> &[InterleavedScheduler] {
        &self.schedulers
    }

    /// The merged fairness view across all shards, normalized to
    /// `clusters` entries: per-cluster transaction totals are summed
    /// (shards own disjoint clusters, so this is exact), the
    /// starvation and hog gauges are maxima over shards,
    /// [`FleetFairness::epochs`] is the global barrier count, and the
    /// per-shard transaction/wall-time gauges expose the load balance.
    pub fn fairness(&self, clusters: usize) -> FleetFairness {
        let mut merged = FleetFairness {
            cluster_transactions: vec![0; clusters],
            epochs: self.epochs,
            shard_transactions: self.schedulers.iter().map(|s| s.transactions()).collect(),
            shard_wall_nanos: self.shard_wall_nanos.clone(),
            ..FleetFairness::default()
        };
        for s in &self.schedulers {
            for (i, &n) in s.cluster_transactions().iter().enumerate().take(clusters) {
                merged.cluster_transactions[i] += n;
            }
            merged.max_turn_gap = merged.max_turn_gap.max(s.max_turn_gap());
            merged.max_cluster_epoch_transactions = merged
                .max_cluster_epoch_transactions
                .max(s.max_cluster_epoch_transactions());
        }
        merged
    }

    /// Recomputes the cluster-to-shard assignment if it is stale (the
    /// fleet or worker count changed) or a measured rebalance is due.
    /// Deterministic: contiguous near-equal ranges for
    /// [`ShardBalance::Static`], index-tie-broken greedy bin-packing
    /// on the accumulated per-cluster transaction counters for
    /// [`ShardBalance::Measured`].
    fn refresh_assignment(&mut self, clusters: usize, workers: usize) {
        let stale = self.assignment.len() != workers || self.assigned_clusters != clusters;
        let due = matches!(self.balance, ShardBalance::Measured { .. })
            && self.epochs >= self.next_rebalance;
        if !stale && !due {
            return;
        }
        self.assignment = match self.balance {
            ShardBalance::Static => crate::sweep::balanced_parts(clusters, workers)
                .into_iter()
                .map(|range| range.collect())
                .collect(),
            ShardBalance::Measured { every_epochs } => {
                let mut weights = vec![0u64; clusters];
                for s in &self.schedulers {
                    for (c, &n) in s.cluster_transactions().iter().enumerate().take(clusters) {
                        weights[c] += n;
                    }
                }
                self.next_rebalance = self.epochs + every_epochs.max(1);
                balance_by_weight(&weights, workers)
            }
        };
        self.assigned_clusters = clusters;
    }

    /// Runs `fleet` until no bus has pending work and no envelope is
    /// in flight, handing each completed transaction to `sink` in the
    /// single-threaded interleaved drain's round-robin order (the
    /// barrier merges the shards' emissions by `(round, cluster)`;
    /// records therefore reach `sink` in epoch-sized batches).
    pub fn drive(&mut self, fleet: &mut Fleet, sink: &mut dyn FnMut(FleetRecord)) {
        self.drive_sink(fleet, &mut MergedOnly(sink));
    }

    /// [`ShardedFleet::drive`] with the full [`FleetRecordSink`]
    /// interface: per-shard record batches stream out as each shard's
    /// epoch completes, ahead of the ordered merge.
    pub fn drive_sink(&mut self, fleet: &mut Fleet, sink: &mut dyn FleetRecordSink) {
        let n = fleet.clusters.len();
        if n == 0 {
            return;
        }
        let workers = self.shards.min(n);
        if self.schedulers.len() < workers {
            self.schedulers
                .resize_with(workers, InterleavedScheduler::new);
        }
        if self.shard_wall_nanos.len() < workers {
            self.shard_wall_nanos.resize(workers, 0);
        }
        loop {
            self.refresh_assignment(n, workers);
            let epoch_id = self.epochs;

            // Epoch: every shard interleaves its clusters to
            // quiescence and classifies its gateway traffic, in
            // parallel against the shared read-only routing table.
            let (results, first_panic) = {
                let ShardedFleet {
                    persistent,
                    pool,
                    schedulers,
                    assignment,
                    ..
                } = &mut *self;
                let routes = &fleet.gateway.routes;
                let mut results: Vec<Option<ShardEpoch>> = Vec::new();
                results.resize_with(workers, || None);
                let mut first_panic: Option<Box<dyn Any + Send>> = None;

                if workers == 1 {
                    let entries: ShardEntries<'_> = fleet.clusters.iter_mut().enumerate().collect();
                    let ep = timed_shard_epoch(ShardEngines(entries), &mut schedulers[0], routes);
                    sink.shard_records(epoch_id, 0, &ep.records);
                    results[0] = Some(ep);
                } else {
                    // Hand each shard exclusive &mut access to exactly
                    // its clusters' engines.
                    let mut slots: Vec<Option<&mut Box<dyn BusEngine>>> =
                        fleet.clusters.iter_mut().map(Some).collect();
                    let mut shard_engines: Vec<ShardEngines<'_>> = assignment
                        .iter()
                        .map(|members| {
                            ShardEngines(
                                members
                                    .iter()
                                    .map(|&c| {
                                        (c, slots[c].take().expect("cluster assigned to one shard"))
                                    })
                                    .collect(),
                            )
                        })
                        .collect();

                    if !*persistent {
                        // Baseline mode: spawn-per-epoch scoped
                        // workers via the audited `pool::run_scoped`
                        // helper. Each job parks its outcome in its
                        // own shard slot (panics contained, like the
                        // pool path), and the driver drains the slots
                        // in shard order — the same order the old
                        // in-scope joins used.
                        let mut outcomes: Vec<Option<std::thread::Result<ShardEpoch>>> = Vec::new();
                        outcomes.resize_with(workers, || None);
                        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = shard_engines
                            .drain(..)
                            .zip(schedulers.iter_mut())
                            .zip(outcomes.iter_mut())
                            .map(|((engines, scheduler), slot)| {
                                Box::new(move || {
                                    *slot = Some(panic::catch_unwind(AssertUnwindSafe(|| {
                                        timed_shard_epoch(engines, scheduler, routes)
                                    })));
                                }) as Box<dyn FnOnce() + Send + '_>
                            })
                            .collect();
                        run_scoped(jobs);
                        for (shard, outcome) in outcomes.into_iter().enumerate() {
                            match outcome.expect("every scoped shard job ran") {
                                Ok(ep) => {
                                    sink.shard_records(epoch_id, shard, &ep.records);
                                    results[shard] = Some(ep);
                                }
                                Err(payload) => {
                                    first_panic = first_panic.take().or(Some(payload));
                                }
                            }
                        }
                    } else {
                        // Persistent pool: shards 1.. go to the pool's
                        // long-lived workers, the driver runs shard 0
                        // itself, and results stream back through the
                        // inbox in completion order.
                        let pool = pool.get_or_insert_with(WorkerPool::new);
                        let inbox = EpochInbox::default();
                        let mut engines_iter = shard_engines.drain(..);
                        let shard0 = engines_iter.next().expect("at least one shard");
                        let mut scheds = schedulers.iter_mut();
                        let sched0 = scheds.next().expect("a scheduler per shard");
                        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = engines_iter
                            .zip(scheds)
                            .enumerate()
                            .map(|(i, (engines, scheduler))| {
                                let shard = i + 1;
                                let inbox = &inbox;
                                Box::new(move || {
                                    // Contain shard panics here so the
                                    // rendezvous always completes; the
                                    // driver re-raises after the
                                    // barrier.
                                    let result = panic::catch_unwind(AssertUnwindSafe(|| {
                                        timed_shard_epoch(engines, scheduler, routes)
                                    }));
                                    inbox.deliver(shard, result);
                                }) as Box<dyn FnOnce() + Send + '_>
                            })
                            .collect();
                        // SAFETY: every borrow inside `jobs` (engines,
                        // schedulers, routes, inbox) outlives the
                        // generation — `guard` waits for the pool on
                        // every exit path, including unwinds, before
                        // those borrows can be touched or expire; the
                        // previous generation finished before this
                        // loop iteration re-entered.
                        let submitted = unsafe { pool.submit(jobs) };
                        let guard = EpochGuard { pool };
                        let ep = timed_shard_epoch(shard0, sched0, routes);
                        sink.shard_records(epoch_id, 0, &ep.records);
                        results[0] = Some(ep);
                        for _ in 0..submitted {
                            let (shard, result) = inbox.recv();
                            match result {
                                Ok(ep) => {
                                    sink.shard_records(epoch_id, shard, &ep.records);
                                    results[shard] = Some(ep);
                                }
                                Err(payload) => {
                                    first_panic = first_panic.take().or(Some(payload));
                                }
                            }
                        }
                        drop(guard);
                        first_panic = first_panic.take().or_else(|| pool.take_panic());
                    }
                }
                (results, first_panic)
            };
            if let Some(payload) = first_panic {
                panic::resume_unwind(payload);
            }

            // Barrier, part 1: gather the outboxes — counters merged,
            // local traffic stashed (each cluster's stash comes from
            // exactly one shard, so per-cluster order is preserved),
            // records and forwards collected for the ordered passes.
            let mut ran = false;
            let mut merged: Vec<(u64, usize, EngineRecord)> = Vec::new();
            let mut forwards: Vec<(usize, usize, Message)> = Vec::new();
            for (shard, ep) in results.into_iter().enumerate() {
                let mut ep = ep.expect("every shard reported an epoch");
                ran |= ep.ran;
                self.shard_wall_nanos[shard] += ep.wall_nanos;
                merged.append(&mut ep.records);
                fleet.gateway.counters.merge(&ep.counters);
                for (cluster, m) in ep.stash.drain(..) {
                    fleet.gateway_rx[cluster].push(m);
                }
                forwards.append(&mut ep.forwards);
            }

            // Barrier, part 2: emit the epoch's records in the
            // single-threaded round-robin order — merge by (round,
            // cluster); see the module docs for why this is exact.
            merged.sort_by_key(|&(round, cluster, _)| (round, cluster));
            for (_, cluster, record) in merged {
                sink.record(FleetRecord { cluster, record });
            }

            // Barrier, part 3: queue forwarded legs on their
            // destination buses in (source cluster, receive position)
            // order — the stable sort restores the single-threaded
            // route_cluster loop's order across non-contiguous shards.
            forwards.sort_by_key(|&(src, _, _)| src);
            let mut routed = false;
            for (_, dest_cluster, msg) in forwards {
                routed = true;
                fleet.clusters[dest_cluster]
                    .queue(GATEWAY_NODE, msg)
                    .expect("forwarded leg is shorter than its envelope");
            }
            if !ran && !routed {
                return;
            }
            self.epochs += 1;
            sink.epoch_complete(self.epochs);
        }
    }
}

/// Deterministic greedy bin-packing: clusters in descending weight
/// (index-ascending within a weight) each go to the currently
/// lightest shard (lowest index on ties); each shard's list is then
/// sorted ascending. Zero weights are floored to 1 so an unmeasured
/// fleet deals out evenly instead of piling onto shard 0.
fn balance_by_weight(weights: &[u64], shards: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&c| (Reverse(weights[c].max(1)), c));
    let mut loads = vec![0u64; shards];
    let mut assignment = vec![Vec::new(); shards];
    for c in order {
        let shard = (0..shards)
            .min_by_key(|&s| loads[s])
            .expect("at least one shard");
        loads[shard] += weights[c].max(1);
        assignment[shard].push(c);
    }
    for members in &mut assignment {
        members.sort_unstable();
    }
    assignment
}

impl fmt::Display for ShardedFleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sharded({})", self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::FuId;
    use crate::config::BusConfig;
    use crate::engine::EngineKind;
    use crate::fleet::{FleetNodeId, FleetSchedule, FleetWorkload};

    fn eight_cluster_fleet(kind: EngineKind) -> Fleet {
        let mut fleet = Fleet::new(kind, BusConfig::default());
        for _ in 0..8 {
            let c = fleet.add_cluster();
            fleet.add_sensor(c, false);
            fleet.add_sensor(c, false);
        }
        fleet
    }

    /// Shard counts the conformance sweep covers; reduced under Miri
    /// (1 = no pool, 2 = smallest real rendezvous).
    fn test_shard_counts() -> &'static [usize] {
        if cfg!(miri) {
            &[1, 2]
        } else {
            &[1, 2, 3, 5, 8, 13]
        }
    }

    #[test]
    fn sharded_matches_interleaved_stream_exactly() {
        for kind in EngineKind::ALL {
            for &shards in test_shard_counts() {
                let mut reference = eight_cluster_fleet(kind);
                let mut sharded = eight_cluster_fleet(kind);
                for f in [&mut reference, &mut sharded] {
                    for c in 0..8 {
                        f.queue_remote(
                            FleetNodeId::new(c, 1),
                            FleetNodeId::new((c + 3) % 8, 2),
                            FuId::ZERO,
                            vec![c as u8, 0xAA],
                        )
                        .unwrap();
                    }
                }
                let want = reference.run_until_quiescent_interleaved();
                let got = sharded.run_until_quiescent_sharded(shards);
                assert_eq!(want, got, "{kind} shards={shards}");
                assert_eq!(
                    reference.gateway().forwarded(),
                    sharded.gateway().forwarded(),
                    "{kind} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_counters_accumulate_across_drives() {
        let mut fleet = eight_cluster_fleet(EngineKind::Analytic);
        let mut sharded = ShardedFleet::new(4);
        for round in 0..2 {
            fleet
                .queue_remote(
                    FleetNodeId::new(0, 1),
                    FleetNodeId::new(5, 1),
                    FuId::ZERO,
                    vec![round],
                )
                .unwrap();
            let mut n = 0;
            sharded.drive(&mut fleet, &mut |_| n += 1);
            assert_eq!(n, 2, "envelope + forwarded leg");
        }
        assert_eq!(sharded.transactions(), 4);
        // Each drive: envelope epoch + forwarded epoch; the empty
        // terminating epoch is not counted (see `epochs`).
        assert_eq!(sharded.epochs(), 4);
        sharded.drive(&mut fleet, &mut |_| {});
        assert_eq!(sharded.epochs(), 4, "quiescent drive adds no epoch");
        let fairness = sharded.fairness(8);
        assert_eq!(fairness.cluster_transactions[0], 2);
        assert_eq!(fairness.cluster_transactions[5], 2);
        assert_eq!(fairness.epochs, 4);
        assert_eq!(fairness.shard_transactions.iter().sum::<u64>(), 4);
        assert_eq!(fairness.shard_wall_nanos.len(), 4);
    }

    #[test]
    fn schedule_enum_drives_sharded() {
        let w = FleetWorkload::cross_storm(5, 2, 2);
        let interleaved = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
        let sharded =
            w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Sharded { shards: 3 });
        assert_eq!(interleaved.signature(), sharded.signature());
        assert_eq!(interleaved.records, sharded.records, "order matches too");
        let fairness = sharded.fairness.as_ref().expect("sharded drains report");
        assert_eq!(
            fairness.cluster_transactions,
            interleaved
                .fairness
                .as_ref()
                .expect("interleaved drains report")
                .cluster_transactions,
            "per-cluster totals are schedule-independent"
        );
        assert!(fairness.max_turn_gap <= 5, "round-robin bounds the gap");
        assert_eq!(fairness.shard_transactions.len(), 3, "per-shard gauges");
    }

    #[test]
    fn more_shards_than_clusters_is_fine() {
        let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
        let c = fleet.add_cluster();
        let src = fleet.add_sensor(c, false);
        fleet.add_sensor(c, false);
        fleet
            .queue(
                src,
                crate::message::Message::new(
                    crate::addr::Address::short(
                        crate::addr::ShortPrefix::new(0x3).unwrap(),
                        FuId::ZERO,
                    ),
                    vec![1],
                ),
            )
            .unwrap();
        let records = fleet.run_until_quiescent_sharded(64);
        assert_eq!(records.len(), 1);

        // Degenerate inputs: zero shards clamp to one, empty fleets
        // terminate immediately.
        let mut empty = Fleet::new(EngineKind::Analytic, BusConfig::default());
        ShardedFleet::new(0).drive(&mut empty, &mut |_| panic!("no records"));
    }

    #[test]
    fn per_epoch_spawn_matches_persistent_modes() {
        // All three execution modes (persistent measured, persistent
        // static, scoped spawn-per-epoch) produce the identical
        // stream.
        for kind in EngineKind::ALL {
            let runs: Vec<Vec<FleetRecord>> = [
                ShardedFleet::new(3),
                ShardedFleet::with_balance(3, ShardBalance::Static),
                ShardedFleet::per_epoch_spawn(3),
            ]
            .into_iter()
            .map(|mut sharded| {
                let mut fleet = eight_cluster_fleet(kind);
                for c in 0..8 {
                    fleet
                        .queue_remote(
                            FleetNodeId::new(c, 1),
                            FleetNodeId::new((c + 1) % 8, 2),
                            FuId::ZERO,
                            vec![c as u8],
                        )
                        .unwrap();
                }
                let mut records = Vec::new();
                sharded.drive(&mut fleet, &mut |r| records.push(r));
                records
            })
            .collect();
            assert_eq!(runs[0], runs[1], "{kind}: measured == static");
            assert_eq!(runs[0], runs[2], "{kind}: pooled == spawn-per-epoch");
        }
    }

    #[test]
    fn greedy_balance_is_deterministic_and_even() {
        // Unmeasured weights deal out strided; a dominant cluster gets
        // a shard to itself.
        assert_eq!(
            balance_by_weight(&[0, 0, 0, 0, 0, 0], 3),
            vec![vec![0, 3], vec![1, 4], vec![2, 5]]
        );
        assert_eq!(
            balance_by_weight(&[100, 1, 1, 1], 2),
            vec![vec![0], vec![1, 2, 3]],
            "hot cluster isolated"
        );
        // Ties break by index, shards sorted ascending.
        assert_eq!(balance_by_weight(&[5, 5, 5], 2), vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn wire_engines_migrate_across_pool_threads() {
        // The Send-audit's regression test, sized to run un-reduced
        // under Miri: two Rc-based wire engines on a two-shard
        // persistent pool, so every epoch moves each engine's whole
        // object graph onto a worker thread and the rendezvous hands
        // it back — three drives deep, with cross-cluster traffic so
        // the barrier exchanges state between the shards too.
        let mut fleet = Fleet::new(EngineKind::Wire, BusConfig::default());
        for _ in 0..2 {
            let c = fleet.add_cluster();
            fleet.add_sensor(c, false);
            fleet.add_sensor(c, false);
        }
        let mut sharded = ShardedFleet::new(2);
        for round in 0..3u8 {
            for (src, dst) in [(0usize, 1usize), (1, 0)] {
                fleet
                    .queue_remote(
                        FleetNodeId::new(src, 1),
                        FleetNodeId::new(dst, 2),
                        FuId::ZERO,
                        vec![round, src as u8],
                    )
                    .unwrap();
            }
            let mut n = 0;
            sharded.drive(&mut fleet, &mut |_| n += 1);
            assert_eq!(n, 4, "round {round}: two envelopes + two forwarded legs");
        }
        assert_eq!(sharded.transactions(), 12);
    }

    #[test]
    fn assignment_refreshes_on_rebalance_and_resize() {
        let mut sharded = ShardedFleet::new(2);
        let mut fleet = eight_cluster_fleet(EngineKind::Analytic);
        fleet
            .queue_remote(
                FleetNodeId::new(0, 1),
                FleetNodeId::new(4, 1),
                FuId::ZERO,
                vec![1],
            )
            .unwrap();
        sharded.drive(&mut fleet, &mut |_| {});
        let assignment = sharded.shard_assignment().to_vec();
        assert_eq!(assignment.len(), 2);
        let mut all: Vec<usize> = assignment.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>(), "partition of the fleet");
    }
}
