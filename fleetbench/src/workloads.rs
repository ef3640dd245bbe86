//! The three seeded fleet workloads, built through the public
//! [`FleetWorkload`] API and handed to the replay as `.mbt` text.
//!
//! Every random choice comes from one [`SmallRng`] stream seeded by the
//! CLI `--seed`, so a seed names one reproducible trace. Payload
//! *lengths* are fixed per workload and only their contents are drawn,
//! so the modelled energy per delivered bit depends on the workload's
//! shape, not on the seed.

use mbus_core::behavior::with_return_address;
use mbus_core::{
    Address, BusConfig, EngineKind, FleetNodeId, FleetSchedule, FleetWorkload, FuId, FullPrefix,
    Message, NodeBehavior, ShortPrefix, TraceFile,
};
use mbus_sim::SmallRng;

/// The seed whose full-size traces carry an `expect sig=` pin.
pub const DEFAULT_SEED: u64 = 1;

/// Worker threads of the replayed sharded drain: the calling thread
/// plus one pool worker.
pub const REPLAY_SHARDS: usize = 2;

/// Sensors per cluster in `storm_open` (all always-on).
const STORM_SENSORS: usize = 3;
/// Inner payload bytes of every `storm_open` message.
const STORM_PAYLOAD: usize = 3;
/// Bytes after the 4-byte return address in a `duty_closed` request.
const REQUEST_PAYLOAD: usize = 2;
/// Bytes of every `duty_closed` reply.
const REPLY_PAYLOAD: usize = 2;

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// Open-loop cross-cluster storm on the analytic engine.
    StormOpen,
    /// Closed-loop request/reply day over a two-domain mesh on the
    /// analytic engine.
    DutyClosed,
    /// Sense-and-aggregate on the edge-level wire engine.
    WireSense,
}

/// How large a generated workload is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Size {
    /// Cluster (bus) count.
    pub clusters: usize,
    /// Traffic rounds, one drain each (two for `wire_sense`).
    pub rounds: usize,
}

impl WorkloadKind {
    /// Every workload.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::StormOpen,
        WorkloadKind::DutyClosed,
        WorkloadKind::WireSense,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::StormOpen => "storm_open",
            WorkloadKind::DutyClosed => "duty_closed",
            WorkloadKind::WireSense => "wire_sense",
        }
    }

    /// Looks a workload up by its CLI name.
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The engine the replay runs, written into the trace's
    /// `replay engine=` header.
    pub fn engine(self) -> EngineKind {
        match self {
            WorkloadKind::WireSense => EngineKind::Wire,
            _ => EngineKind::Analytic,
        }
    }

    /// The size the benchmark measures.
    pub fn full_size(self) -> Size {
        match self {
            WorkloadKind::StormOpen => Size {
                clusters: 8192,
                rounds: 2,
            },
            WorkloadKind::DutyClosed => Size {
                clusters: 4096,
                rounds: 16,
            },
            WorkloadKind::WireSense => Size {
                clusters: 512,
                rounds: 2,
            },
        }
    }

    /// A size small enough for the benchmark's own tests.
    pub fn tiny_size(self) -> Size {
        match self {
            WorkloadKind::StormOpen => Size {
                clusters: 8,
                rounds: 2,
            },
            WorkloadKind::DutyClosed => Size {
                clusters: 8,
                rounds: 4,
            },
            WorkloadKind::WireSense => Size {
                clusters: 4,
                rounds: 2,
            },
        }
    }

    /// The `fleet_digest` the full-size trace at [`DEFAULT_SEED`]
    /// replays to.
    fn pinned_digest(self) -> u64 {
        match self {
            WorkloadKind::StormOpen => 0x891a_fcc5_543c_ea64,
            WorkloadKind::DutyClosed => 0x51e2_201c_cda4_ad2c,
            WorkloadKind::WireSense => 0xfb80_03e8_064f_296e,
        }
    }

    /// Builds the workload at `size` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `size` is below the workload's shape minimum (two
    /// clusters for `storm_open`, four and even for `duty_closed`, one
    /// for `wire_sense`).
    pub fn build(self, size: Size, seed: u64) -> FleetWorkload {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            WorkloadKind::StormOpen => storm_open(size, &mut rng),
            WorkloadKind::DutyClosed => duty_closed(size, &mut rng),
            WorkloadKind::WireSense => wire_sense(size, &mut rng),
        }
    }

    /// The `.mbt` text the replay receives: the workload plus its
    /// `seed`, `replay engine= schedule=` header, and — for the
    /// full-size trace at [`DEFAULT_SEED`] — its `expect sig=` pin.
    pub fn generate(self, size: Size, seed: u64) -> String {
        let mut file = TraceFile::fleet(self.build(size, seed)).with_seed(seed);
        file.meta.engine = Some(self.engine());
        file.meta.schedule = Some(FleetSchedule::Sharded {
            shards: REPLAY_SHARDS,
        });
        if size == self.full_size() && seed == DEFAULT_SEED {
            file = file.with_expect_sig(self.pinned_digest());
        }
        file.to_mbt()
    }
}

/// The full prefix the fleet assigns sensor `node` of `cluster`: the
/// documented `(cluster << 4) | slot` packing (the benchmark's tests
/// check it against [`mbus_core::Fleet::spec`]).
pub fn sensor_prefix(cluster: usize, node: usize) -> FullPrefix {
    FullPrefix::new(((cluster as u32) << 4) | node as u32).expect("sensor prefix fits 20 bits")
}

/// Every sensor sends one message per round to a random sensor on
/// another cluster, so all traffic crosses the gateway. Each round and
/// sensor slot draws one cluster offset shared by every cluster, so
/// every cluster receives exactly one message per slot and round and
/// the per-bus load does not depend on the seed.
fn storm_open(size: Size, rng: &mut SmallRng) -> FleetWorkload {
    let Size { clusters, rounds } = size;
    assert!(clusters >= 2, "a storm needs two clusters");
    let mut w = FleetWorkload::new(
        format!("storm_open/{clusters}x{STORM_SENSORS}r{rounds}"),
        BusConfig::default(),
    );
    for _ in 0..clusters {
        w = w.cluster(vec![false; STORM_SENSORS]);
    }
    for _ in 0..rounds {
        let offsets: Vec<usize> = (0..STORM_SENSORS)
            .map(|_| 1 + rng.gen_index(0..clusters - 1))
            .collect();
        for c in 0..clusters {
            for (j, offset) in (1..=STORM_SENSORS).zip(&offsets) {
                let dest_cluster = (c + offset) % clusters;
                let dest = FleetNodeId::new(dest_cluster, 1 + rng.gen_index(0..STORM_SENSORS));
                let payload = rng.gen_bytes(STORM_PAYLOAD);
                w = w.send_remote(FleetNodeId::new(c, j), dest, FuId::ZERO, payload);
            }
        }
        w = w.drain();
    }
    w
}

/// Always-on requesters in mesh domain 0 each ask a power-gated
/// responder in domain 1 (a fresh random pairing every round); the
/// responder's `Reply` behavior answers through the mesh.
fn duty_closed(size: Size, rng: &mut SmallRng) -> FleetWorkload {
    let Size { clusters, rounds } = size;
    assert!(
        clusters >= 4 && clusters.is_multiple_of(2),
        "a duty day pairs requester and responder clusters (even, >= 4)"
    );
    let half = clusters / 2;
    let mut w = FleetWorkload::new(
        format!("duty_closed/{clusters}r{rounds}"),
        BusConfig::default(),
    );
    for c in 0..clusters {
        w = w.cluster_in(usize::from(c >= half), vec![c >= half]);
    }
    w = w
        .route(0, half, clusters - 1, half)
        .route(1, 0, half - 1, 0)
        .allow_wake_nulls();
    let reply_fu = FuId::new(0x3).expect("reply fu");
    for c in half..clusters {
        let payload = rng.gen_bytes(REPLY_PAYLOAD);
        w = w.behavior(
            FleetNodeId::new(c, 1),
            NodeBehavior::Reply {
                fu: reply_fu,
                payload,
            },
        );
    }
    let mut responders: Vec<usize> = (half..clusters).collect();
    for _ in 0..rounds {
        // Fisher-Yates: every responder answers exactly one request.
        for i in (1..half).rev() {
            responders.swap(i, rng.gen_index(0..i + 1));
        }
        for (c, &r) in responders.iter().enumerate() {
            let request = with_return_address(
                sensor_prefix(c, 1),
                reply_fu,
                &rng.gen_bytes(REQUEST_PAYLOAD),
            );
            w = w.send_remote(
                FleetNodeId::new(c, 1),
                FleetNodeId::new(r, 1),
                FuId::ZERO,
                request,
            );
        }
        w = w.drain();
    }
    w
}

/// Each cluster's two power-gated sensors report a reading to the
/// always-on aggregator (sensor 1); every aggregator then forwards one
/// aggregate to the fleet collector (cluster 0's sensor 1).
fn wire_sense(size: Size, rng: &mut SmallRng) -> FleetWorkload {
    let Size { clusters, rounds } = size;
    assert!(clusters >= 1, "a fleet has a cluster");
    let mut w = FleetWorkload::new(
        format!("wire_sense/{clusters}x3r{rounds}"),
        BusConfig::default(),
    )
    .allow_wake_nulls();
    for _ in 0..clusters {
        w = w.cluster(vec![false, true, true]);
    }
    let aggregator = Address::short(
        ShortPrefix::new(0x2).expect("aggregator prefix"),
        FuId::ZERO,
    );
    let collector = FleetNodeId::new(0, 1);
    for round in 0..rounds {
        for c in 0..clusters {
            for j in 2..=3 {
                let reading = vec![round as u8, j as u8, rng.gen_u8()];
                w = w.send_local(FleetNodeId::new(c, j), Message::new(aggregator, reading));
            }
        }
        w = w.drain();
        for c in 0..clusters {
            let aggregate = vec![c as u8, round as u8, rng.gen_u8()];
            w = w.send_remote(FleetNodeId::new(c, 1), collector, FuId::ZERO, aggregate);
        }
        w = w.drain();
    }
    w
}
