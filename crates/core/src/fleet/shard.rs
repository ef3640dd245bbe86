//! Sharded fleet drains: groups of interleaved clusters on pooled
//! worker threads, synchronized at cross-worker gateway barriers, with
//! each cluster on one fixed shard.
//!
//! This is the fleet's one drive loop: every
//! [`FleetSchedule`](super::FleetSchedule) runs through it. Each epoch
//! polls only the clusters that may have work: the first epoch of a drive
//! takes the fleet's pending set (every cluster queued to or woken
//! since the last drive), and each later epoch takes the destinations
//! of the previous barrier's forwarded legs. A [`ShardedFleet`]
//! partitions those clusters into **shards** by one fixed map —
//! cluster `c` always runs on shard `c % workers` — and, each epoch,
//! runs one [`InterleavedScheduler`] per shard: shard 0 on the calling
//! thread, the others on worker threads that live as long as the
//! [`ShardedFleet`] (or, in the [`ShardedFleet::per_epoch_spawn`]
//! mode, for one epoch). With one shard no thread is spawned at all.
//! When every shard's clusters are quiescent, the shards hand back
//! **per-shard outboxes** (classified gateway envelopes plus
//! local-traffic stashes and drop counters) and the barrier exchanges
//! them: forwarded legs are queued onto their destination buses in
//! **global source-cluster order**, exactly as a single-threaded
//! routing pass would. The batched and interleaved schedules are this
//! drive on one shard, and every shard count emits the same records in
//! the same order (below), so every schedule has one record order.
//!
//! # Equivalence argument
//!
//! The drain is *bit-identical* for every shard count, spawn mode and
//! shard assignment — not just per-cluster, but in the fleet-wide
//! record order too:
//!
//! * **Omitted clusters.** A cluster an epoch does not poll has no
//!   work: it was neither queued to nor woken since its last poll, and
//!   forwarded legs are queued only at barriers, onto clusters the
//!   next epoch polls. Polled, it would have returned `None` at once
//!   and handed over an empty gateway log, so it would have emitted
//!   nothing; leaving it out changes no record, delivery or counter.
//!   The same argument lets a
//!   [`FleetStep::RunRounds`](super::FleetStep::RunRounds) partial
//!   drain poll only the pending set's members, ascending: outside a
//!   drive, that set holds every cluster with work.
//! * **Per-cluster streams.** Clusters share no state except through
//!   barrier routing, and a shard's epoch issues each of its clusters
//!   the identical `run_transaction`-until-quiescent call sequence a
//!   single shard would. So each cluster performs the same autonomous
//!   drain from the same epoch-start state — whichever shard it
//!   currently sits on.
//! * **Record order.** In round-robin, a cluster's `j`-th transaction
//!   of an epoch always runs in round `j`, *independent of every other
//!   cluster* (a cluster stays in the rotation exactly until its own
//!   work runs out). A single shard therefore emits an epoch's records
//!   sorted by `(round, cluster index)` — and merging all shards'
//!   `(round, cluster, record)` emissions by that same key reproduces
//!   the order exactly, whatever the shard assignment.
//! * **Gateway counters.** Shards classify their own clusters'
//!   envelopes against the shared read-only [`GatewayRoutes`] table
//!   into per-shard counters; every counter is a sum, so the
//!   barrier-time merge is order-independent, per-cluster drop
//!   attribution included.
//! * **Routing order.** Forwarded legs are tagged with their source
//!   cluster and stably sorted by it at the barrier, so they are
//!   queued by (source cluster, receive position) — the order of one
//!   routing pass in cluster order — even though the fixed map strides
//!   each shard's clusters across the fleet. Queueing never executes
//!   bus work (engines only run inside epochs), so barrier-internal
//!   interleaving of `drain_rx` and `queue` calls is immaterial.
//!
//! `tests/sharded_fleet.rs` pins all of this over hundreds of seeds,
//! every [`EngineKind`](crate::engine::EngineKind), shard counts
//! 1/2/4/7, and workers kept across drives vs spawned per epoch.
//!
//! The omitted-clusters bullet rests on the pending set being a
//! superset of the clusters with work. Debug builds check it: after
//! every drive, including one that found nothing pending, every
//! cluster's engine must return `None` and hold an empty gateway
//! receive log.
//!
//! # Threading model
//!
//! Every [`BusEngine`] is `Send` (each owns its whole state, the wire
//! engine's circuit included) but not shared; the parallelism contract
//! is *exclusive engine ownership per shard, per epoch*. A drive moves
//! every engine out of the fleet into a drop guard (`DriveState`).
//! Each epoch the calling thread lends every shard a lease
//! (`ShardLease`) that owns its `(cluster, engine)` entries, its
//! scheduler and a share of the routing table (`Arc<GatewayRoutes>`).
//! Shard 0 runs on the calling thread; every other shard goes over a
//! channel to its own worker in the fleet's pool, a thread spawned on
//! the first drive that needs it, which serves every later epoch and
//! drive and is joined when the [`ShardedFleet`] drops. The worker runs the epoch
//! with panics contained and sends the lease back with the outcome;
//! only when every lease is home does the barrier touch the engines
//! again. When the drive ends, normally or by unwinding, the guard puts
//! every engine back into the fleet. Engines migrate between threads
//! but are never shared: a lease moves ownership, not a borrow, so the
//! compiler needs only the `Send` bound, no worker can reach an engine
//! it does not hold, and the runtime needs no `unsafe`.

use std::fmt;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use super::{
    ClusterSet, Fleet, FleetFairness, FleetRecord, GatewayCounters, GatewayNode, GatewayRoutes,
    GatewayVerdict, InterleavedScheduler, GATEWAY_NODE,
};
use crate::engine::{BusEngine, EngineRecord, ReceivedMessage};
use crate::message::Message;

/// One epoch's worth of exclusive engine ownership for one shard:
/// `(fleet-global cluster index, engine)` pairs in ascending cluster
/// order. `Send` because every [`BusEngine`] is.
type ShardEntries = Vec<(usize, Box<dyn BusEngine>)>;

/// What one shard hands back at an epoch barrier.
#[derive(Default)]
struct ShardEpoch {
    /// Whether any transaction ran on this shard this epoch.
    ran: bool,
    /// `(round, global cluster, record)` emissions, already sorted by
    /// `(round, cluster)` — the merge key that reproduces the
    /// single-shard round-robin order.
    records: Vec<(u64, usize, EngineRecord)>,
    /// Non-envelope gateway traffic, per global cluster, for the
    /// fleet's `take_rx` stash.
    stash: Vec<(usize, ReceivedMessage)>,
    /// Forwarded legs as `(source cluster, destination cluster,
    /// message)`, in (source cluster, receive position) order within
    /// the shard; the barrier's stable source sort restores the global
    /// routing order across the strided shards.
    forwards: Vec<(usize, usize, Message)>,
    /// This shard's forwarding/drop accounting for the epoch, merged
    /// into the fleet's [`GatewayNode`] at the barrier.
    counters: GatewayCounters,
    /// Wall-clock nanoseconds the shard spent in this epoch body —
    /// the per-shard load gauge surfaced through
    /// [`FleetFairness::shard_wall_nanos`].
    wall_nanos: u64,
}

/// One shard's epoch: interleave the shard's clusters to quiescence,
/// then classify those clusters' gateway receive logs against the
/// shared routing table into the shard's outbox.
fn run_shard_epoch(
    entries: &mut ShardEntries,
    scheduler: &mut InterleavedScheduler,
    routes: &GatewayRoutes,
) -> ShardEpoch {
    #[expect(
        clippy::disallowed_methods,
        reason = "per-shard load gauge for the fairness report only; `wall_nanos` \
                  never reaches a signature-bearing stream (signatures are pure \
                  functions of seeds: see the determinism contract in the module docs)"
    )]
    let start = Instant::now();
    let mut records = Vec::new();
    let ran = scheduler.run_epoch_entries(entries, &mut |round, cluster, record| {
        records.push((round, cluster, record))
    });
    let mut out = ShardEpoch {
        ran,
        records,
        ..ShardEpoch::default()
    };
    // One inbox, reused for every cluster's gateway log.
    let mut inbox = Vec::new();
    for (cluster, engine) in entries.iter_mut() {
        let cluster = *cluster;
        engine.drain_rx(GATEWAY_NODE, &mut inbox);
        for m in inbox.drain(..) {
            // All counting (forwards, mesh hops, per-hop drops)
            // happens inside `classify`, against this shard's epoch
            // counters — merged at the barrier, so the totals do not
            // depend on the shard assignment.
            match routes.classify(cluster, m, &mut out.counters) {
                GatewayVerdict::Local(m) => out.stash.push((cluster, m)),
                GatewayVerdict::Forward { dest_cluster, msg } => {
                    out.forwards.push((cluster, dest_cluster, msg));
                }
                GatewayVerdict::Drop => {}
            }
        }
    }
    out.wall_nanos = start.elapsed().as_nanos() as u64;
    out
}

/// What the calling thread lends one shard for one epoch: ownership
/// of its clusters' engines, plus its scheduler (moved out of the
/// [`ShardedFleet`] so its counters travel with the work) and a share
/// of the routing table.
struct ShardLease {
    shard: usize,
    engines: ShardEntries,
    scheduler: InterleavedScheduler,
    routes: Arc<GatewayRoutes>,
}

/// A lease on its way home: the lease itself and the epoch's outcome
/// (the shard's outbox, or the panic payload its epoch raised).
type Returned = (ShardLease, thread::Result<ShardEpoch>);

impl ShardLease {
    /// Runs the shard's epoch with panics contained, so the lease
    /// always comes back to the calling thread and a panicking shard
    /// can never strand the barrier.
    fn run(mut self) -> Returned {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            run_shard_epoch(&mut self.engines, &mut self.scheduler, &self.routes)
        }));
        (self, outcome)
    }
}

/// One worker thread of a [`ShardedFleet`]: leases arrive on `lane`
/// and go home on `home`.
#[derive(Debug)]
struct Worker {
    lane: Sender<ShardLease>,
    home: Receiver<Returned>,
    thread: JoinHandle<()>,
}

/// The worker threads of a [`ShardedFleet`], worker `i` serving shard
/// `i + 1`. They are spawned on demand and joined on [`Pool::close`],
/// which dropping the pool calls.
#[derive(Debug, Default)]
struct Pool {
    workers: Vec<Worker>,
    /// Every worker this pool spawned: its id, and a token the worker
    /// holds until it exits.
    #[cfg(test)]
    spawned: Vec<(thread::ThreadId, std::sync::Weak<()>)>,
}

impl Pool {
    /// Spawns workers until at least `n` serve leases.
    fn grow(&mut self, n: usize) {
        while self.workers.len() < n {
            let (lane, leases) = mpsc::channel::<ShardLease>();
            let (home_tx, home) = mpsc::channel();
            #[cfg(test)]
            let alive = Arc::new(());
            #[cfg(test)]
            let token = Arc::downgrade(&alive);
            #[expect(
                clippy::disallowed_methods,
                reason = "`ShardedFleet` is the one layer that runs shards on threads"
            )]
            let thread = thread::spawn(move || {
                #[cfg(test)]
                let _alive = alive;
                for lease in leases {
                    if home_tx.send(lease.run()).is_err() {
                        return;
                    }
                }
            });
            #[cfg(test)]
            self.spawned.push((thread.thread().id(), token));
            self.workers.push(Worker { lane, home, thread });
        }
    }

    /// Joins every worker: closing its lane ends its loop. Called only
    /// while no lease is out.
    fn close(&mut self) {
        for Worker { lane, thread, .. } in self.workers.drain(..) {
            drop(lane);
            // A worker contains its leases' panics, so it exits cleanly.
            let _ = thread.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.close();
    }
}

/// The fleet, split for one drive, and the guard that puts it back.
/// Workers share the routing table while the calling thread keeps the
/// counters, the gateway stash, the pending set, and every engine no
/// shard is currently holding; dropping the state returns every engine
/// to the fleet, on every exit path, unwinding included.
struct DriveState<'f> {
    routes: &'f Arc<GatewayRoutes>,
    counters: &'f mut GatewayCounters,
    gateway_rx: &'f mut [Vec<ReceivedMessage>],
    /// The clusters the next epoch polls.
    pending: &'f mut ClusterSet,
    /// The fleet's engine list, empty until the drive ends.
    clusters: &'f mut Vec<Box<dyn BusEngine>>,
    /// Engines by cluster; `None` while lent to a shard.
    slots: Vec<Option<Box<dyn BusEngine>>>,
}

impl Drop for DriveState<'_> {
    fn drop(&mut self) {
        // The rendezvous takes every lease home before it re-raises a
        // shard's panic, so each slot is full unless a worker died
        // holding a lease, which already panicked the drive: the fleet
        // then keeps no engines rather than misnumbered ones.
        if self.slots.iter().all(Option::is_some) {
            *self.clusters = mem::take(&mut self.slots).into_iter().flatten().collect();
        }
    }
}

/// The fleet drive loop: cluster shards on pooled worker threads, one
/// [`InterleavedScheduler`] per shard, gateway envelopes exchanged at
/// cross-worker epoch barriers, cluster `c` always on shard
/// `c % workers`.
///
/// Every shard count yields the same record stream, receive logs,
/// statistics and gateway counters (see the [module docs](self) for
/// why); more shards only spread the per-epoch bus work across up to
/// `shards` cores. Each epoch polls only the clusters that may have
/// work, so a drive's cost follows its traffic, not the fleet size,
/// and driving a quiescent fleet does nothing. Cluster `c` runs on
/// shard `c % workers`, where `workers` is the shard count clamped to
/// the fleet's cluster count, so a cluster keeps its shard across
/// epochs and drives. `ShardedFleet::new(1)` is the single-threaded
/// drain of both [`FleetSchedule::Batched`](super::FleetSchedule::Batched)
/// and [`FleetSchedule::Interleaved`](super::FleetSchedule::Interleaved).
/// Its worker threads, one per shard beyond the first, are spawned on
/// the first drive that needs them, serve every later epoch and drive,
/// and are joined when the `ShardedFleet` drops;
/// [`ShardedFleet::per_epoch_spawn`] joins them after every epoch
/// instead. A `ShardedFleet` is reusable across drives and accumulates
/// its counters.
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
    /// Whether the pool outlives an epoch (the default) or is closed
    /// after each one.
    keep_workers: bool,
    /// One scheduler per shard, so fairness counters accumulate across
    /// epochs and drives. Lent to the shard's worker during an epoch.
    schedulers: Vec<InterleavedScheduler>,
    epochs: u64,
    /// Cumulative wall-clock nanoseconds per shard (epoch bodies only,
    /// barrier time excluded), indexed by shard.
    shard_wall_nanos: Vec<u64>,
    /// Worker threads for shards `1..`.
    pool: Pool,
}

impl Default for ShardedFleet {
    fn default() -> Self {
        ShardedFleet::new(1)
    }
}

impl ShardedFleet {
    /// Creates a driver that spreads each epoch across up to `shards`
    /// workers (0 is treated as 1; the effective worker count is
    /// further clamped to the driven fleet's cluster count), keeping
    /// its worker threads until it drops.
    pub fn new(shards: usize) -> Self {
        ShardedFleet {
            shards: shards.max(1),
            keep_workers: true,
            schedulers: Vec::new(),
            epochs: 0,
            shard_wall_nanos: Vec::new(),
            pool: Pool::default(),
        }
    }

    /// The spawn-per-epoch baseline: [`ShardedFleet::new`] with its
    /// worker threads joined after every epoch, kept so benches can
    /// measure what keeping workers buys. Output is identical to every
    /// other mode.
    pub fn per_epoch_spawn(shards: usize) -> Self {
        ShardedFleet {
            keep_workers: false,
            ..ShardedFleet::new(shards)
        }
    }

    /// The configured shard (worker) count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Transactions driven across all [`drive`](Self::drive) calls,
    /// summed over every shard.
    pub fn transactions(&self) -> u64 {
        self.schedulers.iter().map(|s| s.transactions()).sum()
    }

    /// Engine polls across all drives, summed over every shard (see
    /// [`InterleavedScheduler::polls`]).
    pub fn polls(&self) -> u64 {
        self.schedulers.iter().map(|s| s.polls()).sum()
    }

    /// Progress epochs (cross-worker barriers that ran a transaction
    /// or routed an envelope) across all drives. A drive ends as soon
    /// as no cluster is left to poll, and an epoch that polled only
    /// idle clusters is not counted, so driving an already-quiescent
    /// fleet leaves the counter unchanged and back-to-back drives
    /// don't inflate it:
    ///
    /// ```
    /// use mbus_core::fleet::{Fleet, ShardedFleet};
    /// use mbus_core::{BusConfig, EngineKind, FuId};
    ///
    /// let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
    /// let (a, b) = (fleet.add_cluster(), fleet.add_cluster());
    /// let src = fleet.add_sensor(a, false);
    /// let dst = fleet.add_sensor(b, false);
    /// fleet.queue_remote(src, dst, FuId::ZERO, vec![7])?;
    ///
    /// let mut sharded = ShardedFleet::new(2);
    /// sharded.drive(&mut fleet, &mut |_| {});
    /// assert_eq!(sharded.epochs(), 2); // envelope epoch + forwarded epoch
    /// sharded.drive(&mut fleet, &mut |_| {}); // quiescent: no work,
    /// sharded.drive(&mut fleet, &mut |_| {}); // so no epochs counted
    /// assert_eq!(sharded.epochs(), 2);
    /// # Ok::<(), mbus_core::MbusError>(())
    /// ```
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
    /// per-shard transaction/wall-time gauges show how the fixed
    /// cluster-to-shard map spread the load.
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

    /// Runs `fleet` until no bus has pending work and no envelope is
    /// in flight, handing each completed transaction to `sink` in the
    /// single-threaded drain's round-robin order (the barrier merges
    /// the shards' emissions by `(round, cluster)`, so records reach
    /// `sink` in epoch-sized batches). Debug builds then check that no
    /// cluster has work left.
    pub fn drive(&mut self, fleet: &mut Fleet, sink: &mut dyn FnMut(FleetRecord)) {
        if fleet.pending.is_empty() {
            #[cfg(debug_assertions)]
            assert_quiescent(fleet);
            return;
        }
        let workers = self.shards.min(fleet.clusters.len());
        if self.schedulers.len() < workers {
            self.schedulers
                .resize_with(workers, InterleavedScheduler::new);
        }
        if self.shard_wall_nanos.len() < workers {
            self.shard_wall_nanos.resize(workers, 0);
        }
        let Fleet {
            clusters,
            gateway,
            gateway_rx,
            pending,
            ..
        } = &mut *fleet;
        let GatewayNode { routes, counters } = gateway;
        let mut state = DriveState {
            routes,
            counters,
            gateway_rx,
            pending,
            slots: mem::take(clusters).into_iter().map(Some).collect(),
            clusters,
        };
        while !state.pending.is_empty() {
            self.pool.grow(workers - 1);
            self.epoch(&mut state, workers, sink);
            if !self.keep_workers {
                self.pool.close();
            }
        }
        drop(state);
        #[cfg(debug_assertions)]
        assert_quiescent(fleet);
    }

    /// Runs one epoch over the pending clusters — shard 0 here, shard
    /// `s` on the pool's worker `s - 1` — and its barrier, which leaves
    /// the destinations of the epoch's forwarded legs as the next
    /// pending set. Counts the epoch if it made progress (ran a
    /// transaction or routed an envelope).
    fn epoch(
        &mut self,
        state: &mut DriveState<'_>,
        workers: usize,
        sink: &mut dyn FnMut(FleetRecord),
    ) {
        let active = state.pending.take();

        // Lend each shard exclusive ownership of exactly its clusters'
        // engines — cluster `c` to shard `c % workers`, in one pass, so
        // each shard's entries ascend — plus its scheduler. A run of
        // consecutive clusters fills every shard's share exactly.
        let share = active.len().div_ceil(workers);
        let mut leases: Vec<ShardLease> = self
            .schedulers
            .iter_mut()
            .take(workers)
            .enumerate()
            .map(|(shard, scheduler)| ShardLease {
                shard,
                engines: Vec::with_capacity(share),
                scheduler: mem::take(scheduler),
                routes: Arc::clone(state.routes),
            })
            .collect();
        for &c in &active {
            let engine = state.slots[c]
                .take()
                .expect("each cluster polls once an epoch");
            leases[c % workers].engines.push((c, engine));
        }
        let pool = &self.pool.workers[..workers - 1];
        let mut leases = leases.into_iter();
        let local = leases.next().expect("at least one shard");
        for (lease, worker) in leases.zip(pool) {
            worker
                .lane
                .send(lease)
                .expect("workers serve until their pool closes");
        }

        // Rendezvous: take every lease home, in shard order, before
        // anything else touches the engines; a shard's panic is
        // re-raised only once all are.
        let mut results: Vec<Option<ShardEpoch>> = Vec::new();
        results.resize_with(workers, || None);
        let mut first_panic = None;
        let returned = pool.iter().map(|worker| {
            (worker.home.recv()).expect("a worker sends every lease home before it exits")
        });
        for (lease, outcome) in std::iter::once(local.run()).chain(returned) {
            for (cluster, engine) in lease.engines {
                state.slots[cluster] = Some(engine);
            }
            self.schedulers[lease.shard] = lease.scheduler;
            match outcome {
                Ok(ep) => results[lease.shard] = Some(ep),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            // The panicking shard's clusters may still have work; keep
            // the pending set a superset of them.
            for c in active {
                state.pending.insert(c);
            }
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
            if merged.is_empty() {
                // The lone shard's (or first shard's) records move, not
                // copy: one-shard epochs merge nothing.
                merged = mem::take(&mut ep.records);
            } else {
                merged.append(&mut ep.records);
            }
            state.counters.merge(&ep.counters);
            for (cluster, m) in ep.stash.drain(..) {
                state.gateway_rx[cluster].push(m);
            }
            forwards.append(&mut ep.forwards);
        }

        // Barrier, part 2: emit the epoch's records in the
        // single-shard round-robin order — merge by (round, cluster);
        // see the module docs for why this is exact.
        merged.sort_by_key(|&(round, cluster, _)| (round, cluster));
        for (_, cluster, record) in merged {
            sink(FleetRecord { cluster, record });
        }

        // Barrier, part 3: queue forwarded legs on their destination
        // buses in (source cluster, receive position) order — the
        // stable sort restores that order across non-contiguous
        // shards. The destinations are exactly the clusters the next
        // epoch polls.
        forwards.sort_by_key(|&(src, _, _)| src);
        let routed = !forwards.is_empty();
        for (_, dest_cluster, msg) in forwards {
            state.slots[dest_cluster]
                .as_mut()
                .expect("every lease is home at the barrier")
                .queue(GATEWAY_NODE, msg)
                .expect("forwarded leg is shorter than its envelope");
            state.pending.insert(dest_cluster);
        }
        if ran || routed {
            self.epochs += 1;
        }
    }
}

/// The debug-build check that the pending set missed no cluster (see
/// the module docs): every engine returns `None` and holds an empty
/// gateway log. It calls the engines directly, so no scheduler counter
/// moves. A wire engine with no traffic yet is skipped: it has no
/// work, and a poll would freeze its topology in debug builds only.
#[cfg(debug_assertions)]
fn assert_quiescent(fleet: &mut Fleet) {
    let mut inbox = Vec::new();
    for (cluster, engine) in fleet.clusters.iter_mut().enumerate() {
        if engine.kind() == crate::engine::EngineKind::Wire && !engine.is_frozen() {
            continue;
        }
        assert!(
            engine.run_transaction().is_none(),
            "cluster {cluster} has work the pending set missed"
        );
        engine.drain_rx(GATEWAY_NODE, &mut inbox);
        assert!(
            inbox.is_empty(),
            "cluster {cluster}'s gateway holds traffic the pending set missed"
        );
    }
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

    #[test]
    fn sharded_matches_interleaved_stream_exactly() {
        for kind in EngineKind::ALL {
            for shards in [1, 2, 3, 5, 8, 13] {
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
                let mut want = Vec::new();
                ShardedFleet::new(1).drive(&mut reference, &mut |r| want.push(r));
                let mut got = Vec::new();
                ShardedFleet::new(shards).drive(&mut sharded, &mut |r| got.push(r));
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
        // Each drive: envelope epoch + forwarded epoch; the drive ends
        // once no cluster is pending, with no empty sweep (see
        // `epochs`).
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
        let mut records = 0;
        ShardedFleet::new(64).drive(&mut fleet, &mut |_| records += 1);
        assert_eq!(records, 1);

        // Degenerate inputs: zero shards clamp to one, empty fleets
        // terminate immediately.
        let mut empty = Fleet::new(EngineKind::Analytic, BusConfig::default());
        ShardedFleet::new(0).drive(&mut empty, &mut |_| panic!("no records"));
    }

    #[test]
    fn a_drive_leaves_untouched_wire_clusters_open_to_new_sensors() {
        // A wire engine freezes its ring at first use. A drive polls
        // only clusters with traffic, and the debug-build check skips
        // unused wire engines, so an untouched cluster still takes a
        // sensor after a drive, on one shard or two.
        for mut sharded in [ShardedFleet::new(1), ShardedFleet::new(2)] {
            let mut fleet = Fleet::new(EngineKind::Wire, BusConfig::default());
            for sensors in [2, 1] {
                let c = fleet.add_cluster();
                for _ in 0..sensors {
                    fleet.add_sensor(c, false);
                }
            }
            let to_second = crate::addr::Address::short(
                crate::addr::ShortPrefix::new(0x3).unwrap(),
                FuId::ZERO,
            );
            fleet
                .queue(FleetNodeId::new(0, 1), Message::new(to_second, vec![1]))
                .unwrap();
            let mut records = 0;
            sharded.drive(&mut fleet, &mut |_| records += 1);
            assert_eq!(records, 1);
            assert_eq!(fleet.add_sensor(1, false), FleetNodeId::new(1, 2));
        }
    }

    #[test]
    fn per_epoch_spawn_matches_persistent_modes() {
        // Both execution modes (workers kept, workers per epoch)
        // produce the identical stream.
        for kind in EngineKind::ALL {
            let runs: Vec<Vec<FleetRecord>> =
                [ShardedFleet::new(3), ShardedFleet::per_epoch_spawn(3)]
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
            assert_eq!(runs[0], runs[1], "{kind}: kept == per-epoch workers");
        }
    }

    #[test]
    fn workers_live_as_long_as_their_sharded_fleet() {
        // Three drives of an eight-cluster exchange, two epochs each
        // (envelopes, then forwarded legs); returns the pool's spawn
        // log.
        let drive_thrice = |sharded: &mut ShardedFleet| {
            let mut fleet = eight_cluster_fleet(EngineKind::Analytic);
            for round in 0..3u8 {
                for c in 0..8 {
                    fleet
                        .queue_remote(
                            FleetNodeId::new(c, 1),
                            FleetNodeId::new((c + 1) % 8, 2),
                            FuId::ZERO,
                            vec![round],
                        )
                        .unwrap();
                }
                sharded.drive(&mut fleet, &mut |_| {});
            }
            assert_eq!(sharded.epochs(), 6);
            sharded.pool.spawned.clone()
        };
        let ids = |spawned: &[(thread::ThreadId, std::sync::Weak<()>)]| {
            spawned.iter().map(|(id, _)| *id).collect::<Vec<_>>()
        };
        let alive = |spawned: &[(thread::ThreadId, std::sync::Weak<()>)]| {
            spawned
                .iter()
                .filter(|(_, token)| token.upgrade().is_some())
                .count()
        };

        let mut kept = ShardedFleet::new(3);
        let spawned = drive_thrice(&mut kept);
        let serving: Vec<_> = (kept.pool.workers.iter())
            .map(|w| w.thread.thread().id())
            .collect();
        assert_eq!(spawned.len(), 2, "shards 1 and 2 each got one worker");
        assert_eq!(ids(&spawned), serving, "the same two served every drive");
        assert_eq!(alive(&spawned), 2);
        drop(kept);
        assert_eq!(alive(&spawned), 0, "dropping the fleet joins its workers");

        let mut per_epoch = ShardedFleet::per_epoch_spawn(3);
        let spawned = drive_thrice(&mut per_epoch);
        let distinct: std::collections::HashSet<_> = ids(&spawned).into_iter().collect();
        assert_eq!(distinct.len(), 2 * 6, "two new workers every epoch");
        assert!(per_epoch.pool.workers.is_empty());
        assert_eq!(alive(&spawned), 0, "each epoch joins its workers");
    }

    #[test]
    fn wire_engines_migrate_across_pool_threads() {
        // Conformance for the lease hand-off on the wire engine: two
        // wire engines on two shards, so every epoch moves one engine's
        // whole circuit to a worker thread and the lease channel hands
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
    fn polls_scale_with_traffic_not_fleet_size() {
        // The same two-cluster exchange on an 8-cluster and a
        // 4096-cluster fleet makes exactly the same engine polls: each
        // epoch polls only the clusters with work. Driving the
        // quiescent fleet again polls nothing and counts no epoch.
        for shards in [1, 2, 7] {
            let counts: Vec<(u64, u64, u64)> = [8, 4096]
                .into_iter()
                .map(|clusters| {
                    let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
                    for _ in 0..clusters {
                        let c = fleet.add_cluster();
                        fleet.add_sensor(c, false);
                    }
                    for (src, dst) in [(2, 5), (5, 2)] {
                        fleet
                            .queue_remote(
                                FleetNodeId::new(src, 1),
                                FleetNodeId::new(dst, 1),
                                FuId::ZERO,
                                vec![src as u8],
                            )
                            .unwrap();
                    }
                    let mut sharded = ShardedFleet::new(shards);
                    let mut records = 0;
                    sharded.drive(&mut fleet, &mut |_| records += 1);
                    assert_eq!(records, 4, "two envelopes + two forwarded legs");
                    let counts = (sharded.polls(), sharded.transactions(), sharded.epochs());
                    sharded.drive(&mut fleet, &mut |_| panic!("quiescent: no records"));
                    assert_eq!(
                        (sharded.polls(), sharded.transactions(), sharded.epochs()),
                        counts,
                        "shards={shards} clusters={clusters}: a quiescent drive is free"
                    );
                    counts
                })
                .collect();
            // Epoch 1 polls clusters 2 and 5 twice each (envelope,
            // then `None`); epoch 2 polls them again for the legs.
            assert_eq!(counts[0], (8, 4, 2), "shards={shards}");
            assert_eq!(counts[0], counts[1], "shards={shards}");
        }
    }

    #[test]
    fn sink_panic_unwinds_without_hanging_and_the_fleet_drives_again() {
        // A sink that panics at the barrier unwinds out of a two-shard
        // drive on either engine: the worker's lease is already home,
        // the drive's guard puts every engine back into the fleet, and
        // the payload reaches the caller intact. The same ShardedFleet
        // then completes the next drive on the same worker, its
        // counters intact (the first epoch's two envelope legs still
        // count).
        for kind in EngineKind::ALL {
            let mut fleet = Fleet::new(kind, BusConfig::default());
            for _ in 0..2 {
                let c = fleet.add_cluster();
                fleet.add_sensor(c, false);
            }
            let queue = |fleet: &mut Fleet, tag: u8| {
                for (src, dst) in [(0usize, 1usize), (1, 0)] {
                    fleet
                        .queue_remote(
                            FleetNodeId::new(src, 1),
                            FleetNodeId::new(dst, 1),
                            FuId::ZERO,
                            vec![tag, src as u8],
                        )
                        .unwrap();
                }
            };
            let mut sharded = ShardedFleet::new(2);
            queue(&mut fleet, 0);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                sharded.drive(&mut fleet, &mut |_| panic!("sink refused a record"))
            }));
            let payload = outcome.expect_err("{kind}: the sink's panic propagates");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"sink refused a record"),
                "{kind}"
            );
            // Each engine is back in its cluster, holding the state of
            // the envelope it ran before the sink refused the record.
            assert_eq!(fleet.cluster_count(), 2, "{kind}");
            for c in 0..2 {
                assert_eq!(fleet.clusters[c].node_count(), 2, "{kind}: cluster {c}");
                assert_eq!(fleet.stats(c).transactions, 1, "{kind}: cluster {c}");
            }
            let workers = sharded.pool.spawned.len();
            queue(&mut fleet, 1);
            let mut n = 0;
            sharded.drive(&mut fleet, &mut |_| n += 1);
            assert_eq!(n, 4, "{kind}: two envelopes + two forwarded legs");
            assert_eq!(sharded.transactions(), 6, "{kind}");
            assert_eq!((workers, sharded.pool.spawned.len()), (1, 1), "{kind}");
        }
    }
}
