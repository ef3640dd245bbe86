//! Fleet replay benchmark.
//!
//! One command replays a seeded fleet workload through the public
//! `mbus_core` API and prints its metrics as one JSON object:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path fleetbench/Cargo.toml -- \
//!     --workload duty_closed --seed 1 --seconds 55 --trace 0
//! ```
//!
//! # The operation
//!
//! A *replay* receives only the generated `.mbt` text and runs parse →
//! `FleetWorkload::instantiate` → `apply_sharded` on
//! `ShardedFleet::new(2)` → `FleetReport::signature` → `fleet_digest`
//! ([`replay::replay`]). The engine and shard count come from the
//! trace's `replay engine= schedule=` header, so the benchmark follows
//! whatever engine a trace names. Every replay is checked against an
//! untimed batched reference run of the same text (digest and energy
//! must match exactly — the schedule-independence contract), and the
//! full-size trace at the default seed also against its `expect sig=`
//! pin. A panic, a mismatch, or a pin miss counts as a failed replay
//! and makes the command exit non-zero.
//!
//! Untraced runs follow every replay with a few drain-only repetitions
//! (parse → instantiate → `apply_sharded`, checked by transaction count
//! and energy). On the signature-bound workloads a drain is a few
//! percent of a replay, and its throughput needs more drains than the
//! replays alone give. `attempted` and `failed` count both kinds.
//!
//! # Load model
//!
//! Closed loop: one replay at a time from one process, for `--seconds`
//! of wall time. At most two threads run: the main thread and one pool
//! worker (the `ShardedFleet` runs shard 0 on the calling thread).
//!
//! # Workloads
//!
//! Each is built in [`workloads`] through the public `FleetWorkload` API
//! from `mbus_sim::SmallRng(seed)`.
//!
//! * `storm_open` — open-loop cross-cluster storm, 8192 buses × 3
//!   always-on sensors × 2 rounds on the analytic engine. Every message
//!   crosses the gateway and each of the 4 epochs carries a huge batch,
//!   so it stresses the route-table build, gateway classify, the
//!   barrier merge-sort and the signature's per-cluster pass over all
//!   records. It bypasses the behavior layer (no reactive nodes).
//! * `duty_closed` — closed-loop duty-cycle day, 4096 buses × 16
//!   rounds over two mesh domains with `Reply` responders, analytic
//!   engine. Every request and reply takes an inter-gateway hop and the
//!   drain runs 64 epochs of small batches, so per-epoch pool and
//!   barrier cost, hop chase and behavior settle dominate the drain
//!   instead of sort volume. It is the workload that exercises the
//!   behavior layer and the mesh.
//! * `wire_sense` — sense-and-aggregate on the edge-level **wire**
//!   engine, 512 buses × 3 sensors (2 power-gated) × 2 rounds. The
//!   `wire` + `mbus-sim` kernel takes almost all of the drain, while
//!   the fleet layers and the signature are negligible. It bypasses the
//!   fleet runtime: a fleet-runtime change should not move it, and a
//!   wire-kernel change should move only it.
//!
//! `BENCHMARK.json` gates `duty_closed` and `wire_sense`, which between
//! them cover every layer. `storm_open` stays runnable by hand and in
//! `BASELINE.md` as the signature-cost yardstick, but is not gated: its
//! short two-thread drain is the most sensitive to host contention, and
//! its run-to-run spread exceeded the drain bound on a shared host.
//!
//! # Metrics
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics of
//! [`run::END_TO_END`]: the median replay time; the simulated
//! transactions per second of the run's median `apply_sharded` call
//! (the fastest call swings with a shared host's load far more than
//! the median of about a hundred); the median set-up time (parse plus
//! instantiate); the process's peak resident memory; and the modelled
//! energy per delivered bit ([`energy`]). The error rate is the
//! result's `failed` / `attempted`; it is not a metric of its own
//! because it is 0 on every correct run.
//!
//! Traced runs (`--trace 1`) report the per-layer metrics of
//! [`run::PER_LAYER`]. Each traced operation is a replay with a span
//! around every layer call, followed by one probe per layer on a
//! freshly built fleet: the gateway route lookup, and the drain under
//! `Batched`, `Interleaved`, `ShardedFleet::new(1)` and
//! `ShardedFleet::per_epoch_spawn(2)`. Differences between those drains
//! isolate the scheduler rotation (interleaved − batched) and the shard
//! barrier (1-worker sharded − interleaved). Spans stay in memory and
//! are written as JSON lines at exit ([`spans`]). The behavior layer's
//! settle time is private to `mbus-core`, so only its counts are
//! reported; timing it needs spans inside the program.
//!
//! `BASELINE.md` beside this crate records each layer's share of the
//! replay at the commit that introduced the benchmark.

use std::time::Instant;

/// The benchmark's one clock read.
pub fn now() -> Instant {
    // WALL-CLOCK: timings feed only metrics and spans, never a
    // workload, a trace or a signature.
    Instant::now()
}

pub mod energy;
pub mod replay;
pub mod run;
pub mod spans;
pub mod workloads;
