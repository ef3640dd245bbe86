//! # mbus-core — the MBus protocol
//!
//! A from-scratch Rust implementation of MBus, the 4-pin, ultra-low
//! power chip-to-chip interconnect of Pannuto et al., *"MBus: An
//! Ultra-Low Power Interconnect Bus for Next Generation Nanopower
//! Systems"* (ISCA 2015).
//!
//! MBus connects a *mediator* node and up to 14 short-addressed member
//! nodes in two "shoot-through" rings — one CLK, one DATA. The protocol
//! provides:
//!
//! * multi-master arbitration with a priority round (§4.3),
//! * *power-oblivious communication*: messages reach a node in any
//!   power state, with the bus itself sequencing the 4-edge wakeup
//!   (§4.4–4.5),
//! * broadcast messages with channel filtering and run-time
//!   enumeration of short prefixes (§4.6–4.7),
//! * transaction-level acknowledgments via in-band interjection
//!   (§4.8–4.9), and
//! * a fixed 19/43-cycle overhead independent of message length (§6.1).
//!
//! Two engines execute the protocol:
//!
//! * [`AnalyticBus`] — transaction-level, using the paper's §6.1 cycle
//!   budget; fast enough for the evaluation sweeps. It steps one
//!   transaction per call, so thousands of buses interleave on one
//!   thread or shard across worker threads with gateway exchange at
//!   epoch barriers (both driven by [`ShardedFleet`], one
//!   [`InterleavedScheduler`] per shard).
//! * [`wire::WireBus`] — edge-level, running real bus-controller and
//!   mediator state machines over the `mbus-sim` discrete-event kernel
//!   with per-hop propagation delays.
//!
//! The integration test-suite cross-checks the engines cycle for
//! cycle. Above the engines sit two engine-generic layers — the
//! declarative [`scenario`] workloads and the multi-bus [`fleet`]
//! composition that scales population past the 14-node short-prefix
//! limit through a store-and-forward gateway, whose [`ShardedFleet`]
//! is the one place work runs on threads. `ARCHITECTURE.md` at the repository root
//! maps the layers and the paper sections onto modules.
//!
//! ## Quickstart
//!
//! ```
//! use mbus_core::{
//!     Address, AnalyticBus, BusConfig, FuId, FullPrefix, Message, NodeSpec,
//!     ShortPrefix,
//! };
//!
//! let mut bus = AnalyticBus::new(BusConfig::default());
//! let cpu = bus.add_node(
//!     NodeSpec::new("cpu+mediator", FullPrefix::new(0x00001)?)
//!         .with_short_prefix(ShortPrefix::new(0x1)?),
//! );
//! let sensor = bus.add_node(
//!     NodeSpec::new("sensor", FullPrefix::new(0x00002)?)
//!         .with_short_prefix(ShortPrefix::new(0x2)?)
//!         .power_aware(true),
//! );
//!
//! // The sensor is fully power-gated; send to it anyway.
//! bus.queue(
//!     cpu,
//!     Message::new(Address::short(ShortPrefix::new(0x2)?, FuId::ZERO), vec![0x42]),
//! )?;
//! let record = bus.run_transaction().unwrap();
//! assert!(record.outcome.is_success());
//! assert_eq!(bus.take_rx(sensor)[0].payload, vec![0x42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod analytic;
pub mod behavior;
pub mod config;
pub mod control;
pub mod engine;
pub mod enumeration;
mod error;
pub mod fleet;
pub mod interject;
pub mod layer;
pub mod message;
pub mod node;
pub mod parallel;
pub mod power_domain;
pub mod scenario;
pub mod timing;
pub mod trace;
pub mod wire;

pub use addr::{Address, BroadcastChannel, EncodedAddress, FuId, FullPrefix, ShortPrefix};
pub use analytic::{AnalyticBus, ArbitrationPolicy};
pub use behavior::NodeBehavior;
pub use config::BusConfig;
pub use control::{ControlBits, TxOutcome};
pub use engine::{
    build_engine, BusEngine, BusStats, EngineKind, EngineRecord, NodeIndex, NodeSet,
    ReceivedMessage, MAX_BUS_NODES,
};
pub use error::MbusError;
pub use fleet::{
    Fleet, FleetFairness, FleetNodeId, FleetRecord, FleetReport, FleetSchedule, FleetSignature,
    FleetWorkload, InterleavedScheduler, MeshRoute, ShardedFleet,
};
pub use message::Message;
pub use node::NodeSpec;
pub use parallel::ParallelMbus;
pub use scenario::{ScenarioReport, Step, Workload};
pub use trace::{
    fleet_digest, scenario_digest, shrink::shrink_fleet, shrink::shrink_workload, Trace,
    TraceError, TraceFile, TraceMeta,
};
pub use wire::WireEngine;
