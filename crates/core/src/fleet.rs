//! Gateway-bridged multi-bus fleets: scaling population past the
//! 14-node short-prefix limit.
//!
//! A single MBus has at most [`ShortPrefix::USABLE`] (14) short-addressed
//! nodes (§4.7), which caps how large a system one bus can serve. The
//! fleet layer composes *many* independent buses — one per sensor
//! cluster — bridged by a [`GatewayNode`]: one logical routing device
//! that occupies short prefix `0x1` (ring position 0, the mediator
//! position) on **every** bridged bus. Cross-cluster traffic is
//! store-and-forward:
//!
//! 1. The sender queues an *envelope* on its own bus, short-addressed to
//!    the gateway's forwarding port (`0x1.fu0`). The envelope payload is
//!    the destination's 4-byte encoded full address
//!    ([`Address::Full`], the §4.6 `0xF`-escape form) followed by the
//!    inner payload — see [`GatewayNode::encapsulate`].
//! 2. The gateway receives the envelope like any bus member, reads the
//!    destination cluster from the packed full prefix (see
//!    [`MAX_CLUSTERS`]), and queues the inner payload on that cluster's
//!    bus, **full-prefix addressed** to the final destination.
//! 3. The destination bus delivers it under normal §4.3–4.4 semantics:
//!    arbitration edges wake every power-gated bus controller on that
//!    bus (charged once per transaction, as the single-bus engines
//!    already guarantee), and a power-gated destination's layer is woken
//!    exactly as if the message had originated locally. Forwarding is
//!    power-oblivious end to end.
//!
//! A [`Fleet`] owns the per-cluster engines (any [`EngineKind`] — the
//! fleet layer is written against the [`BusEngine`] trait) and drives
//! them in deterministic epochs with routing only at the quiescence
//! barriers, through one drive loop ([`shard::ShardedFleet`]): one
//! [`InterleavedScheduler`] per cluster group, stepping one
//! transaction per cluster per round so thousands of buses — ideally
//! [`AnalyticBus`](crate::AnalyticBus)-backed — make progress
//! together; groups run on pooled worker threads, cluster `c` always
//! on group `c % workers`, with gateway envelopes exchanged at
//! cross-worker epoch barriers; one group is the single-threaded
//! interleave. A [`FleetSchedule`] picks the group count.
//! Barrier routing makes cross-bus
//! causality (which epoch a forwarded message lands in) reproducible,
//! engine-independent, *and* schedule-independent: every schedule
//! yields the same records in the same round-robin order.
//! [`FleetWorkload`] is the declarative
//! layer on top, and [`FleetSignature`] is the cross-engine comparison
//! — the same conformance story the single-bus [`crate::scenario`]
//! layer tells, lifted to fleets.
//!
//! # Example
//!
//! ```
//! use mbus_core::fleet::Fleet;
//! use mbus_core::{BusConfig, EngineKind, FuId};
//!
//! let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
//! let a = fleet.add_cluster();
//! let b = fleet.add_cluster();
//! let src = fleet.add_sensor(a, false);
//! let dst = fleet.add_sensor(b, true); // power-gated destination
//!
//! fleet.queue_remote(src, dst, FuId::ZERO, vec![0x42])?;
//! let records = fleet.run_until_quiescent();
//! assert_eq!(records.len(), 2); // envelope leg + forwarded leg
//! assert_eq!(fleet.gateway().forwarded(), 1);
//! assert_eq!(fleet.take_rx(dst)[0].payload, vec![0x42]);
//! # Ok::<(), mbus_core::MbusError>(())
//! ```

pub mod shard;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

pub use shard::ShardedFleet;

use crate::addr::{full_address_bytes, Address, FuId, FullPrefix, ShortPrefix};
use crate::behavior::{self, NodeBehavior, DEFAULT_REPLY_HORIZON};
use crate::config::BusConfig;
use crate::engine::{
    build_engine, BusEngine, BusStats, EngineKind, EngineRecord, NodeIndex, NodeSet,
    ReceivedMessage,
};
use crate::error::MbusError;
use crate::message::Message;
use crate::node::NodeSpec;
use crate::scenario::{bus_signatures, ScenarioSignature};

/// Ring position of the gateway's presence on every bridged bus. The
/// gateway hosts the mediator (index 0, §4.3's highest topological
/// priority) so each cluster bus is self-contained.
pub const GATEWAY_NODE: NodeIndex = 0;

/// The functional unit of a gateway presence that accepts forwarding
/// envelopes. Messages to any *other* FU of the gateway are ordinary
/// local deliveries, readable through [`Fleet::take_rx`].
///
/// The port is *reserved*: only well-formed forwarding envelopes may be
/// addressed to it. [`Fleet::queue`] rejects anything else with
/// [`MbusError::ReservedForwardingPort`] — an ordinary payload sent
/// here would otherwise be indistinguishable from an envelope and be
/// silently dropped (or, if its bytes happened to decode as a full
/// address, mis-forwarded to a surprise destination).
pub const GATEWAY_FORWARD_FU: FuId = FuId::ZERO;

/// Sensors a single cluster can hold: the 14 usable short prefixes
/// minus the one the gateway occupies.
pub const MAX_SENSORS_PER_CLUSTER: usize = ShortPrefix::USABLE - 1;

/// Highest cluster count a fleet supports. Every fleet-global full
/// prefix packs as `(cluster << 4) | slot`: the 20-bit prefix space
/// splits into a 16-bit cluster field and a 4-bit per-bus slot, so the
/// fleet layer addresses exactly `2^16` buses — the 65536-bus /
/// 262144-node headline fleet the `interleave` bench drives. Slots
/// `0x1..=0xD` are the ≤14 sensor ring positions, slot `0xF` is the
/// gateway's presence on that bus, and slots `0x0`/`0xE` are never
/// allocated (which gives seeded workloads a prefix block that is
/// unroutable in every legal fleet).
pub const MAX_CLUSTERS: usize = 1 << 16;

/// First byte of a **v2** (TTL-carrying) forwarding envelope. The
/// legacy v1 envelope header is a 4-byte encoded [`Address::Full`],
/// whose first byte always has `0xF` in the top nibble (the §4.6
/// escape); `0x4D`'s top nibble is `0x4`, so the two header forms can
/// never alias and both stay queueable on the reserved forwarding
/// port. v1 envelopes implicitly carry [`DEFAULT_TTL`] and hop
/// count 0.
pub const ENVELOPE_MAGIC: u8 = 0x4D;

/// TTL a v1 envelope (no explicit TTL byte) enters the mesh with.
pub const DEFAULT_TTL: u8 = 8;

/// Highest TTL an envelope can carry — the v2 header packs TTL and
/// hop count into one byte as `(ttl << 4) | hops`, so both saturate
/// at 15. This is also the hard bound on any mesh hop chase: every
/// hop decrements the TTL, so no envelope traverses more than
/// `MAX_TTL - 1` inter-gateway links before the final forwarded leg.
pub const MAX_TTL: u8 = 15;

/// The longest forwarding-envelope header: the v2 form's magic and
/// TTL/hops bytes plus the 4-byte full address (v1 is the address
/// alone).
pub(crate) const MAX_ENVELOPE_HEADER: usize = 6;

/// One hierarchical range route in a gateway mesh: gateways in
/// `domain` forward envelopes destined for clusters `lo..=hi`
/// (inclusive) to the gateway of cluster `via`, which must sit in a
/// *different* domain (the registration-time cycle guard — a next hop
/// inside the origin's own domain could never make progress, since
/// in-domain destinations forward directly). Routes are matched in
/// registration order; the first hit wins.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MeshRoute {
    /// The domain whose gateways use this route.
    pub domain: usize,
    /// First destination cluster the range covers (inclusive).
    pub lo: usize,
    /// Last destination cluster the range covers (inclusive).
    pub hi: usize,
    /// The next-hop cluster whose gateway takes the envelope (in a
    /// different domain than `domain`).
    pub via: usize,
}

/// The short prefix the gateway holds on every bridged bus.
fn gateway_short_prefix() -> ShortPrefix {
    ShortPrefix::new(0x1).expect("0x1 is a usable short prefix")
}

/// The full prefix of the gateway's presence on cluster `c`: slot
/// `0xF` of the cluster's 16-prefix block (see [`MAX_CLUSTERS`]).
fn gateway_full_prefix(cluster: usize) -> FullPrefix {
    FullPrefix::new(((cluster as u32) << 4) | 0xF)
        .expect("cluster count is capped so gateway prefixes fit 20 bits")
}

/// The globally unique full prefix of sensor ring-slot `node` on
/// cluster `cluster`: the ring position (1..=13 after the gateway's
/// mediator slot) in the low nibble, the cluster in the upper 16 bits.
/// Disjoint from every gateway presence (slot `0xF`).
fn sensor_full_prefix(cluster: usize, node: NodeIndex) -> FullPrefix {
    FullPrefix::new(((cluster as u32) << 4) | node as u32)
        .expect("cluster count is capped so sensor prefixes fit 20 bits")
}

/// Splits a packed full prefix into its `(cluster, slot)` fields (see
/// [`MAX_CLUSTERS`]).
fn unpack_prefix(prefix: FullPrefix) -> (usize, usize) {
    let raw = prefix.raw();
    ((raw >> 4) as usize, (raw & 0xF) as usize)
}

/// The full prefix fleet node `id` holds: its cluster's gateway
/// presence or one of its sensors.
fn node_full_prefix(id: FleetNodeId) -> FullPrefix {
    if id.node == GATEWAY_NODE {
        gateway_full_prefix(id.cluster)
    } else {
        sensor_full_prefix(id.cluster, id.node)
    }
}

/// `payload` behind the envelope header for `dest`'s `fu` (v1, or v2
/// carrying `ttl`), addressed to the gateway's forwarding port. The
/// header is written in front of `payload` in place. Unchecked.
fn envelope_message(dest: FullPrefix, fu: FuId, mut payload: Vec<u8>, ttl: Option<u8>) -> Message {
    let [a, b, c, d] = full_address_bytes(dest, fu);
    let v2 = [ENVELOPE_MAGIC, ttl.unwrap_or(0) << 4, a, b, c, d];
    let header = if ttl.is_some() { &v2[..] } else { &v2[2..] };
    payload.extend_from_slice(header);
    payload.rotate_right(header.len());
    let port = Address::short(gateway_short_prefix(), GATEWAY_FORWARD_FU);
    Message::new(port, payload)
}

/// A copy of `payload` with room for an envelope header in front.
fn with_header_room(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(MAX_ENVELOPE_HEADER + payload.len());
    bytes.extend_from_slice(payload);
    bytes
}

/// The one checked constructor of a remote envelope (every remote step
/// and [`Fleet::remote_message`] build through it): `payload` for
/// `dest`'s `fu`, v2 when `ttl` is given. `ring` is the destination
/// cluster's node count, `None` for an undeclared cluster. The caller
/// sets priority with [`Message::with_priority`].
///
/// # Errors
///
/// As [`Fleet::remote_message_ttl`].
pub(crate) fn checked_envelope(
    config: &BusConfig,
    ring: Option<usize>,
    dest: FleetNodeId,
    fu: FuId,
    payload: Vec<u8>,
    ttl: Option<u8>,
) -> Result<Message, MbusError> {
    if ttl.is_some_and(|t| !(1..=MAX_TTL).contains(&t)) {
        return Err(MbusError::MalformedAddress {
            reason: "envelope TTL out of range (1..=15)",
        });
    }
    let ring = ring.ok_or(MbusError::UnknownCluster {
        index: dest.cluster,
    })?;
    if dest.node >= ring {
        return Err(MbusError::UnknownNode { index: dest.node });
    }
    if dest.node == GATEWAY_NODE && fu == GATEWAY_FORWARD_FU {
        return Err(MbusError::MalformedAddress {
            reason: "a remote message may not target a gateway forwarding port",
        });
    }
    let msg = envelope_message(node_full_prefix(dest), fu, payload, ttl);
    msg.validate(config)?;
    Ok(msg)
}

/// A remote step's envelope read back: the destination fu, the TTL of
/// a v2 envelope (`None` for v1) and the inner payload.
pub(crate) fn open_remote(msg: &Message) -> (FuId, Option<u8>, &[u8]) {
    let envelope = msg.payload();
    let (_, fu, ttl, _, inner) = GatewayNode::open(envelope).expect("a checked envelope");
    (fu, (envelope[0] == ENVELOPE_MAGIC).then_some(ttl), inner)
}

/// A fleet-wide node identity: which cluster bus, and which ring
/// position on it. Position [`GATEWAY_NODE`] is the gateway's presence;
/// sensors occupy positions `1..`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FleetNodeId {
    /// The cluster (bus) index, assigned by [`Fleet::add_cluster`].
    pub cluster: usize,
    /// The ring position on that cluster's bus.
    pub node: NodeIndex,
}

impl FleetNodeId {
    /// Creates a fleet node identity.
    pub fn new(cluster: usize, node: NodeIndex) -> Self {
        FleetNodeId { cluster, node }
    }
}

impl fmt::Display for FleetNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}.n{}", self.cluster, self.node)
    }
}

/// One transaction observed somewhere in the fleet: a per-bus
/// [`EngineRecord`] tagged with the cluster it ran on. The scheduler
/// emits these in deterministic round-robin order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FleetRecord {
    /// The cluster bus the transaction ran on.
    pub cluster: usize,
    /// The per-bus record, in that bus's own sequence numbering.
    pub record: EngineRecord,
}

/// The store-and-forward router bridging a fleet's buses.
///
/// The gateway models one always-on device with a bus frontend on every
/// cluster (its per-bus presences are added by [`Fleet::add_cluster`]).
/// It routes a destination full prefix to the cluster its packed
/// cluster field names (see [`MAX_CLUSTERS`]), and counts every
/// forwarded and dropped envelope so fleet runs are auditable.
///
/// Because the gateway is *not* power-aware, its bus presences never
/// charge bus-controller wakes ([`BusStats::bus_ctl_wakes`]); a
/// forwarded transaction charges only the destination bus's gated
/// members — once per transaction, per the single-bus engines' shared
/// accounting.
#[derive(Clone, Debug, Default)]
pub struct GatewayNode {
    /// The routes — read-only during a drive, so a sharded drive
    /// hands each worker's lease a share. The builders change them
    /// through `Arc::make_mut`, which copies nothing: outside a drive
    /// no lease holds a share.
    routes: Arc<GatewayRoutes>,
    /// The mutable half: forwarding/drop counters, maintained on the
    /// routing thread (merged from per-shard counters at the barriers
    /// of a sharded drain).
    counters: GatewayCounters,
}

/// The read-only half of a [`GatewayNode`]: destination full prefix →
/// owning cluster. No per-prefix table is kept: a fleet prefix packs
/// as `(cluster << 4) | slot`, so a route is the prefix's cluster
/// field, checked against that cluster's population. Built as nodes
/// are added and never mutated by a drain, which is what lets a
/// sharded fleet share one `GatewayRoutes` across worker threads
/// (`Arc<GatewayRoutes>` is `Send + Sync`).
#[derive(Clone, Debug, Default)]
pub struct GatewayRoutes {
    /// Ring positions on each cluster's bus, gateway presence included,
    /// indexed by cluster: slots `1..nodes` are its sensors.
    nodes: Vec<usize>,
    /// Mesh domain of each cluster, indexed by cluster; clusters never
    /// placed explicitly live in domain 0. Gateways forward directly
    /// only to clusters in their own domain — anything else must hop
    /// through a [`MeshRoute`].
    domains: Vec<usize>,
    /// Hierarchical prefix-range routes, matched in registration
    /// order.
    ranges: Vec<MeshRoute>,
}

/// The mutable half of a [`GatewayNode`]: forwarding and drop
/// accounting. A sharded drain keeps one of these per worker and
/// merges them into the fleet's at each epoch barrier; merging is
/// order-independent because every field is a sum.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct GatewayCounters {
    pub(crate) forwarded: u64,
    /// Every envelope that failed to reach a destination bus, for any
    /// reason: malformed header, unroutable prefix, or TTL exhaustion.
    /// `cluster_drops` + `ttl_drops` partition this total by cause and
    /// by the hop it happened on.
    pub(crate) dropped: u64,
    /// Malformed/unroutable drops attributed to the cluster whose
    /// gateway held the doomed envelope, indexed by cluster.
    pub(crate) cluster_drops: Vec<u64>,
    /// Inter-gateway hops taken by envelopes chasing a [`MeshRoute`]
    /// (the terminal forwarded leg counts in `forwarded`, not here).
    pub(crate) hop_forwards: u64,
    /// TTL-exhaustion drops attributed to the hop (cluster) where the
    /// TTL ran out, indexed by cluster.
    pub(crate) ttl_drops: Vec<u64>,
}

impl GatewayCounters {
    /// Ensures the per-cluster drop vectors cover `clusters` entries.
    pub(crate) fn ensure_clusters(&mut self, clusters: usize) {
        if self.cluster_drops.len() < clusters {
            self.cluster_drops.resize(clusters, 0);
        }
        if self.ttl_drops.len() < clusters {
            self.ttl_drops.resize(clusters, 0);
        }
    }

    /// Counts one malformed/unroutable drop against `cluster`.
    pub(crate) fn drop_on(&mut self, cluster: usize) {
        self.ensure_clusters(cluster + 1);
        self.dropped += 1;
        self.cluster_drops[cluster] += 1;
    }

    /// Counts one TTL-exhaustion drop against the hop `cluster`.
    pub(crate) fn ttl_drop_on(&mut self, cluster: usize) {
        self.ensure_clusters(cluster + 1);
        self.dropped += 1;
        self.ttl_drops[cluster] += 1;
    }

    /// Folds a shard's epoch counters into the fleet-global ones.
    pub(crate) fn merge(&mut self, other: &GatewayCounters) {
        self.forwarded += other.forwarded;
        self.dropped += other.dropped;
        self.hop_forwards += other.hop_forwards;
        self.ensure_clusters(other.cluster_drops.len().max(other.ttl_drops.len()));
        for (mine, theirs) in self.cluster_drops.iter_mut().zip(&other.cluster_drops) {
            *mine += theirs;
        }
        for (mine, theirs) in self.ttl_drops.iter_mut().zip(&other.ttl_drops) {
            *mine += theirs;
        }
    }
}

/// What one message delivered to a gateway presence turns out to be —
/// the single classification path shared by the single-threaded
/// routing barrier and the sharded workers.
pub(crate) enum GatewayVerdict {
    /// Ordinary local traffic for the gateway device (broadcast or
    /// `fu != 0`): stash for [`Fleet::take_rx`].
    Local(ReceivedMessage),
    /// A well-formed envelope with a routable destination: queue `msg`
    /// on `dest_cluster`'s bus, full-prefix addressed.
    Forward {
        /// The cluster bus that owns the destination prefix.
        dest_cluster: usize,
        /// The forwarded leg, ready to queue from the gateway presence.
        msg: Message,
    },
    /// A malformed, unroutable, or TTL-exhausted envelope; already
    /// counted (against the hop it died on) by
    /// [`GatewayRoutes::classify`].
    Drop,
}

impl GatewayRoutes {
    /// Records that `cluster` (the next one to be added) lives in
    /// `domain`, with only its gateway presence so far.
    fn add_cluster(&mut self, cluster: usize, domain: usize) {
        assert_eq!(self.domains.len(), cluster, "clusters added out of order");
        self.domains.push(domain);
        self.nodes.push(1);
    }

    /// Appends a hierarchical range route; panics on a same-domain next
    /// hop (the degenerate route cycle that could never make progress).
    fn register_range(&mut self, route: MeshRoute) {
        assert!(route.lo <= route.hi, "mesh route range is lo..=hi");
        assert!(
            route.via < self.domains.len(),
            "mesh route via cluster {} not in fleet",
            route.via
        );
        assert_ne!(
            self.domain_of(route.via),
            route.domain,
            "mesh route cycle: next hop {} is in the route's own domain {}",
            route.via,
            route.domain
        );
        self.ranges.push(route);
    }

    /// The cluster that owns `prefix`, if any: the prefix's cluster
    /// field, when that cluster exists and the slot is its gateway
    /// presence (`0xF`) or one of its sensors.
    pub fn route(&self, prefix: FullPrefix) -> Option<usize> {
        let (cluster, slot) = unpack_prefix(prefix);
        let nodes = *self.nodes.get(cluster)?;
        (slot == 0xF || (1..nodes).contains(&slot)).then_some(cluster)
    }

    /// Number of routable full prefixes: one per node of the fleet.
    pub fn route_count(&self) -> usize {
        self.nodes.iter().sum()
    }

    /// The mesh domain `cluster` lives in (0 when never placed
    /// explicitly).
    pub fn domain_of(&self, cluster: usize) -> usize {
        self.domains.get(cluster).copied().unwrap_or(0)
    }

    /// The hierarchical range routes, in registration (= match) order.
    pub fn mesh_routes(&self) -> &[MeshRoute] {
        &self.ranges
    }

    /// Classifies one message a gateway presence received: local
    /// traffic, a routable envelope (with its forwarded leg built), or
    /// a drop. A forwarded leg is built in place: the envelope header
    /// is drained from the front of the received payload, so the leg
    /// reuses the envelope's buffer instead of copying the inner bytes.
    /// Pure with respect to the routes, so shard
    /// workers can run it concurrently against per-shard `counters`;
    /// every counter update classification implies (forwards, hop
    /// forwards, per-hop drops) happens in here, keeping the
    /// single-threaded barrier and the shard workers in lockstep.
    ///
    /// An envelope whose destination cluster is outside the receiving
    /// gateway's domain chases [`MeshRoute`]s hop by hop *inside this
    /// call*: the inter-gateway backhaul is not an MBus, so a hop
    /// re-encapsulates (TTL down, hop count up) and hands the envelope
    /// to the next gateway at the same routing barrier. The chase is a
    /// pure walk over the shared route table — schedule- and
    /// shard-independent by construction — and each hop consumes TTL,
    /// so it terminates within [`MAX_TTL`] steps.
    pub(crate) fn classify(
        &self,
        cluster: usize,
        m: ReceivedMessage,
        counters: &mut GatewayCounters,
    ) -> GatewayVerdict {
        let is_envelope = !m.dest.is_broadcast() && m.dest.fu_id_raw() == GATEWAY_FORWARD_FU.raw();
        if !is_envelope {
            return GatewayVerdict::Local(m);
        }
        let Some((prefix, fu, mut ttl, _hops, inner)) = GatewayNode::open(&m.payload) else {
            counters.drop_on(cluster);
            return GatewayVerdict::Drop;
        };
        let header = m.payload.len() - inner.len();
        if ttl == 0 {
            // A hand-built v2 header with a spent TTL cannot take even
            // the terminal leg.
            counters.ttl_drop_on(cluster);
            return GatewayVerdict::Drop;
        }
        let host = self.route(prefix);
        // Range routes match the prefix's cluster field whether or not
        // a node holds the prefix.
        let (toward, _) = unpack_prefix(prefix);
        let mut at = cluster;
        loop {
            if let Some(dest_cluster) = host {
                if self.domain_of(dest_cluster) == self.domain_of(at) {
                    counters.forwarded += 1;
                    // The forwarded leg reuses the envelope's buffer.
                    let mut inner = m.payload;
                    inner.drain(..header);
                    return GatewayVerdict::Forward {
                        dest_cluster,
                        msg: Message::new(Address::full(prefix, fu), inner),
                    };
                }
            }
            // The destination is not directly reachable from `at`'s
            // domain: find a range route out.
            if ttl <= 1 {
                counters.ttl_drop_on(at);
                return GatewayVerdict::Drop;
            }
            let Some(range) = self
                .ranges
                .iter()
                .find(|r| r.domain == self.domain_of(at) && r.lo <= toward && toward <= r.hi)
            else {
                counters.drop_on(at);
                return GatewayVerdict::Drop;
            };
            ttl -= 1;
            counters.hop_forwards += 1;
            at = range.via;
        }
    }
}

impl GatewayNode {
    /// The read-only routes.
    pub fn routes(&self) -> &GatewayRoutes {
        &self.routes
    }

    /// The cluster that owns `prefix`, if any.
    pub fn route(&self, prefix: FullPrefix) -> Option<usize> {
        self.routes.route(prefix)
    }

    /// Number of routable full prefixes: one per node of the fleet.
    pub fn route_count(&self) -> usize {
        self.routes.route_count()
    }

    /// Envelopes successfully forwarded onto a destination bus.
    pub fn forwarded(&self) -> u64 {
        self.counters.forwarded
    }

    /// Envelopes dropped for any reason: malformed header, unroutable
    /// destination prefix, or TTL exhaustion mid-mesh.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped
    }

    /// Inter-gateway mesh hops taken by envelopes chasing a
    /// [`MeshRoute`] (terminal forwarded legs count in
    /// [`GatewayNode::forwarded`], not here).
    pub fn hop_forwards(&self) -> u64 {
        self.counters.hop_forwards
    }

    /// TTL-exhaustion drops attributed to the hop (cluster) where the
    /// TTL ran out.
    pub fn ttl_dropped_on(&self, cluster: usize) -> u64 {
        self.counters.ttl_drops.get(cluster).copied().unwrap_or(0)
    }

    /// Per-hop TTL-drop counts, indexed by cluster; clusters past the
    /// last drop may be absent.
    pub fn ttl_drops(&self) -> &[u64] {
        &self.counters.ttl_drops
    }

    /// Envelopes dropped by the gateway presence on `cluster` — the
    /// per-cluster breakdown of [`GatewayNode::dropped`], so fleet
    /// conformance can catch engines disagreeing on *where* traffic
    /// vanished, not just how much.
    pub fn dropped_on(&self, cluster: usize) -> u64 {
        self.counters
            .cluster_drops
            .get(cluster)
            .copied()
            .unwrap_or(0)
    }

    /// Per-cluster drop counts, indexed by cluster; clusters past the
    /// last drop may be absent.
    pub fn cluster_drops(&self) -> &[u64] {
        &self.counters.cluster_drops
    }

    /// Builds a forwarding envelope payload: the destination's 4-byte
    /// encoded full address followed by the inner payload. The result is
    /// what the sender puts on its own bus, addressed to the gateway's
    /// forwarding port (`0x1.fu0`).
    pub fn encapsulate(dest: FullPrefix, fu: FuId, payload: &[u8]) -> Vec<u8> {
        envelope_message(dest, fu, with_header_room(payload), None).into_payload()
    }

    /// Builds a **v2** forwarding envelope carrying an explicit TTL:
    /// `[ENVELOPE_MAGIC, (ttl << 4) | hops, 4-byte full address,
    /// inner...]` with hop count 0. Panics unless `ttl` is in
    /// `1..=MAX_TTL`; [`Fleet::remote_message_ttl`] validates first
    /// and returns an error instead.
    pub fn encapsulate_ttl(dest: FullPrefix, fu: FuId, payload: &[u8], ttl: u8) -> Vec<u8> {
        assert!(
            (1..=MAX_TTL).contains(&ttl),
            "envelope TTL must be in 1..={MAX_TTL}"
        );
        envelope_message(dest, fu, with_header_room(payload), Some(ttl)).into_payload()
    }

    /// Parses either envelope form into `(dest prefix, dest fu, ttl,
    /// hops, inner payload)`: the v2 6-byte header when the payload
    /// leads with [`ENVELOPE_MAGIC`], the v1 4-byte header otherwise
    /// (entering with [`DEFAULT_TTL`] and hop count 0). `None` if
    /// neither header parses. The inner payload is borrowed from
    /// `payload`.
    pub fn open(payload: &[u8]) -> Option<(FullPrefix, FuId, u8, u8, &[u8])> {
        let (ttl, hops, rest) = match payload {
            [ENVELOPE_MAGIC, budget, rest @ ..] => (budget >> 4, budget & 0xF, rest),
            _ => (DEFAULT_TTL, 0, payload),
        };
        let (address, inner) = rest.split_at_checked(4)?;
        match Address::decode(address) {
            Ok(Address::Full { prefix, fu_id }) => Some((prefix, fu_id, ttl, hops, inner)),
            _ => None,
        }
    }
}

/// N independent cluster buses bridged by one [`GatewayNode`], driven
/// by a deterministic round-robin scheduler.
///
/// All clusters run the same [`EngineKind`]; the fleet layer only uses
/// the [`BusEngine`] trait, so an analytic fleet and a wire fleet built
/// from the same calls produce comparable [`FleetRecord`] streams (the
/// conformance suite pins this via [`FleetSignature`]).
///
/// Construction order matters to the wire engine, which freezes each
/// ring at its first traffic: add every cluster and sensor before
/// queueing.
#[derive(Debug)]
pub struct Fleet {
    kind: EngineKind,
    config: BusConfig,
    clusters: Vec<Box<dyn BusEngine>>,
    gateway: GatewayNode,
    /// Non-envelope traffic delivered to the gateway's bus frontends
    /// (broadcasts, messages to `fu != 0`), kept per cluster so
    /// [`Fleet::take_rx`] on a gateway presence still works.
    gateway_rx: Vec<Vec<ReceivedMessage>>,
    /// Clusters that may have pending work or an unrouted gateway
    /// delivery. [`Fleet::queue`] and [`Fleet::request_wakeup`] add
    /// their cluster on success, the sharded barrier adds each
    /// forwarded leg's destination, and only a drive removes members.
    /// Invariant: outside a drive this is a superset of the clusters
    /// with pending work, so a [`FleetStep::RunRounds`] partial drain
    /// (which runs only clusters with work) needs no entry of its own,
    /// and the sharded drive polls only these clusters.
    pending: ClusterSet,
}

/// A set of cluster indexes, one bit per cluster.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClusterSet {
    words: Vec<u64>,
}

impl ClusterSet {
    /// Adds `cluster`.
    pub(crate) fn insert(&mut self, cluster: usize) {
        let word = cluster / 64;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (cluster % 64);
    }

    /// Whether the set has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The members in ascending order, leaving the set unchanged.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| i * 64 + bits.trailing_zeros() as usize);
                bits &= bits.wrapping_sub(1);
                bit
            })
        })
    }

    /// Removes every member, returning them in ascending order.
    pub(crate) fn take(&mut self) -> Vec<usize> {
        let members = self.iter().collect();
        self.words.fill(0);
        members
    }
}

impl Fleet {
    /// Creates an empty fleet; every cluster added later runs `kind`
    /// with `config`.
    pub fn new(kind: EngineKind, config: BusConfig) -> Self {
        Fleet {
            kind,
            config,
            clusters: Vec::new(),
            gateway: GatewayNode::default(),
            gateway_rx: Vec::new(),
            pending: ClusterSet::default(),
        }
    }

    /// The engine kind every cluster runs.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The per-bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Number of cluster buses.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Total ring positions across all buses, gateway presences
    /// included — the fleet's population.
    pub fn total_nodes(&self) -> usize {
        self.clusters.iter().map(|c| c.node_count()).sum()
    }

    /// The fleet's router.
    pub fn gateway(&self) -> &GatewayNode {
        &self.gateway
    }

    /// Adds a new cluster bus with the gateway's presence at ring
    /// position 0 and returns the cluster index.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_CLUSTERS`].
    pub fn add_cluster(&mut self) -> usize {
        self.add_cluster_in_domain(0)
    }

    /// Adds a new cluster bus in mesh `domain`. Gateways forward
    /// directly only within their own domain; cross-domain envelopes
    /// must hop through [`Fleet::add_mesh_route`] entries, consuming
    /// TTL per hop. [`Fleet::add_cluster`] is this with domain 0.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_CLUSTERS`].
    pub fn add_cluster_in_domain(&mut self, domain: usize) -> usize {
        let cluster = self.clusters.len();
        assert!(
            cluster < MAX_CLUSTERS,
            "fleet supports {MAX_CLUSTERS} clusters"
        );
        let mut engine = build_engine(self.kind, self.config);
        let prefix = gateway_full_prefix(cluster);
        let index = engine.add_node(
            NodeSpec::new(format!("gateway/c{cluster}"), prefix)
                .with_short_prefix(gateway_short_prefix()),
        );
        debug_assert_eq!(index, GATEWAY_NODE);
        Arc::make_mut(&mut self.gateway.routes).add_cluster(cluster, domain);
        self.clusters.push(engine);
        self.gateway_rx.push(Vec::new());
        cluster
    }

    /// Registers a hierarchical mesh route: gateways in `domain`
    /// forward envelopes destined for clusters `lo..=hi` to the
    /// gateway of cluster `via`. Routes match in registration order;
    /// the first hit wins.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi`, when `via` is not a cluster of this
    /// fleet, or when `via` itself lives in `domain` (a same-domain
    /// next hop is a degenerate route cycle — it could never make
    /// progress, since in-domain destinations forward directly).
    /// Cross-domain route cycles *are* legal; the per-hop TTL bounds
    /// them.
    pub fn add_mesh_route(&mut self, domain: usize, lo: usize, hi: usize, via: usize) {
        Arc::make_mut(&mut self.gateway.routes).register_range(MeshRoute {
            domain,
            lo,
            hi,
            via,
        });
    }

    /// The mesh domain `cluster` lives in (0 unless placed with
    /// [`Fleet::add_cluster_in_domain`]).
    pub fn cluster_domain(&self, cluster: usize) -> usize {
        self.gateway.routes.domain_of(cluster)
    }

    /// Adds a sensor to `cluster` at the next ring position (short
    /// prefix = position + 1) and returns its fleet-wide identity.
    ///
    /// # Panics
    ///
    /// Panics for an unknown cluster, or past
    /// [`MAX_SENSORS_PER_CLUSTER`] sensors on one bus. The wire engine
    /// additionally panics if the cluster's ring already carried
    /// traffic (its topology is frozen at first use).
    pub fn add_sensor(&mut self, cluster: usize, power_aware: bool) -> FleetNodeId {
        let engine = self
            .clusters
            .get_mut(cluster)
            .unwrap_or_else(|| panic!("no cluster {cluster}"));
        let node = engine.node_count();
        assert!(
            node <= MAX_SENSORS_PER_CLUSTER,
            "a cluster holds at most {MAX_SENSORS_PER_CLUSTER} sensors plus the gateway"
        );
        let full = sensor_full_prefix(cluster, node);
        let short = ShortPrefix::new((node + 1) as u8).expect("ring position maps to 0x2..=0xE");
        let index = engine.add_node(
            NodeSpec::new(format!("sensor/c{cluster}.n{node}"), full)
                .with_short_prefix(short)
                .power_aware(power_aware),
        );
        debug_assert_eq!(index, node);
        Arc::make_mut(&mut self.gateway.routes).nodes[cluster] = node + 1;
        FleetNodeId::new(cluster, node)
    }

    fn engine_mut(&mut self, id: FleetNodeId) -> Result<&mut dyn BusEngine, MbusError> {
        match self.clusters.get_mut(id.cluster) {
            Some(engine) => Ok(&mut **engine),
            None => Err(MbusError::UnknownCluster { index: id.cluster }),
        }
    }

    /// A node's spec (the gateway presence at position 0, sensors
    /// above).
    ///
    /// # Panics
    ///
    /// Panics for an unknown cluster.
    pub fn spec(&self, id: FleetNodeId) -> &NodeSpec {
        self.clusters[id.cluster].spec(id.node)
    }

    /// Whether a node's layer domain is currently powered.
    ///
    /// # Panics
    ///
    /// Panics for an unknown cluster.
    pub fn layer_on(&self, id: FleetNodeId) -> bool {
        self.clusters[id.cluster].layer_on(id.node)
    }

    /// Completed self-wake events on a node.
    ///
    /// # Panics
    ///
    /// Panics for an unknown cluster.
    pub fn wake_events(&self, id: FleetNodeId) -> u64 {
        self.clusters[id.cluster].wake_events(id.node)
    }

    /// A snapshot of one cluster bus's cumulative statistics.
    ///
    /// # Panics
    ///
    /// Panics for an unknown cluster.
    pub fn stats(&self, cluster: usize) -> BusStats {
        self.clusters[cluster].stats()
    }

    /// Whether `msg`, queued on `cluster`'s bus, targets the gateway's
    /// forwarding port there — short-addressed to the gateway's ring
    /// prefix or full-addressed to its per-bus presence, FU
    /// [`GATEWAY_FORWARD_FU`] either way (broadcasts use the channel
    /// field and never alias the port).
    fn targets_forwarding_port(cluster: usize, msg: &Message) -> bool {
        match msg.dest() {
            Address::Short { prefix, fu_id } => {
                prefix == gateway_short_prefix() && fu_id == GATEWAY_FORWARD_FU
            }
            Address::Full { prefix, fu_id } => {
                prefix == gateway_full_prefix(cluster) && fu_id == GATEWAY_FORWARD_FU
            }
            Address::Broadcast { .. } => false,
        }
    }

    /// Whether `msg`, queued on `cluster`'s bus, is refused with
    /// [`MbusError::ReservedForwardingPort`]: it targets the forwarding
    /// port but its payload is not a well-formed envelope.
    pub(crate) fn misuses_forwarding_port(cluster: usize, msg: &Message) -> bool {
        Fleet::targets_forwarding_port(cluster, msg) && GatewayNode::open(msg.payload()).is_none()
    }

    /// Queues a message on the sender's own bus — cluster-local
    /// traffic, or a pre-built envelope from
    /// [`Fleet::remote_message`].
    ///
    /// The gateway's forwarding port (`0x1.fu0` on every bridged bus)
    /// is *reserved*: a message addressed there is a forwarding
    /// envelope by definition, so one whose payload is not a
    /// well-formed envelope header is rejected here instead of being
    /// silently counted dropped at the routing barrier (or worse,
    /// mis-forwarded wherever its first four bytes happened to point).
    /// Local traffic for the gateway device must use `fu != 0`.
    ///
    /// # Errors
    ///
    /// [`MbusError::UnknownCluster`] / [`MbusError::UnknownNode`] for an
    /// unknown cluster / node;
    /// [`MbusError::ReservedForwardingPort`] for a non-envelope payload
    /// addressed to the gateway's forwarding port;
    /// length errors as the underlying engine reports them.
    pub fn queue(&mut self, src: FleetNodeId, msg: Message) -> Result<(), MbusError> {
        // Validate the cluster before the port check: building the
        // gateway's full prefix for an out-of-range cluster would
        // panic where the contract promises `UnknownCluster`.
        if src.cluster >= self.clusters.len() {
            return Err(MbusError::UnknownCluster { index: src.cluster });
        }
        if Fleet::misuses_forwarding_port(src.cluster, &msg) {
            return Err(MbusError::ReservedForwardingPort);
        }
        self.engine_mut(src)?.queue(src.node, msg)?;
        self.pending.insert(src.cluster);
        Ok(())
    }

    /// Builds the envelope [`Message`] that, queued on *any* cluster
    /// bus, makes the gateway forward `payload` to `dest`'s functional
    /// unit `fu`. The returned message is addressed to the gateway's
    /// forwarding port; decorate it (e.g. with
    /// [`Message::with_priority`], which affects the sender-side leg
    /// only — the forwarded leg is queued at normal priority) and pass
    /// it to [`Fleet::queue`]. `payload` moves into the envelope.
    ///
    /// # Errors
    ///
    /// * [`MbusError::UnknownCluster`] / [`MbusError::UnknownNode`] for
    ///   an unknown destination cluster / node.
    /// * [`MbusError::MalformedAddress`] when `dest` is a gateway
    ///   presence and `fu` is the forwarding port (a forwarded envelope
    ///   must not terminate at another forwarding port).
    /// * [`MbusError::MessageTooLong`] if payload plus the 4-byte
    ///   envelope header exceeds the bus maximum.
    pub fn remote_message(
        &self,
        dest: FleetNodeId,
        fu: FuId,
        payload: Vec<u8>,
    ) -> Result<Message, MbusError> {
        let ring = self.clusters.get(dest.cluster).map(|e| e.node_count());
        checked_envelope(&self.config, ring, dest, fu, payload, None)
    }

    /// [`Fleet::remote_message`] with an explicit TTL: builds a **v2**
    /// envelope whose mesh hop budget is `ttl` instead of
    /// [`DEFAULT_TTL`] (the terminal forwarded leg is free; each
    /// inter-gateway hop costs one). The v2 header is 6 bytes instead
    /// of 4.
    ///
    /// # Errors
    ///
    /// Everything [`Fleet::remote_message`] reports, plus
    /// [`MbusError::MalformedAddress`] when `ttl` is outside
    /// `1..=`[`MAX_TTL`].
    pub fn remote_message_ttl(
        &self,
        dest: FleetNodeId,
        fu: FuId,
        payload: Vec<u8>,
        ttl: u8,
    ) -> Result<Message, MbusError> {
        let ring = self.clusters.get(dest.cluster).map(|e| e.node_count());
        checked_envelope(&self.config, ring, dest, fu, payload, Some(ttl))
    }

    /// Queues a cross-cluster message: `src` sends `payload` to `dest`'s
    /// functional unit `fu` through the gateway. Convenience for
    /// [`Fleet::remote_message`] + [`Fleet::queue`].
    ///
    /// # Errors
    ///
    /// See [`Fleet::remote_message`] and [`Fleet::queue`].
    pub fn queue_remote(
        &mut self,
        src: FleetNodeId,
        dest: FleetNodeId,
        fu: FuId,
        payload: Vec<u8>,
    ) -> Result<(), MbusError> {
        let msg = self.remote_message(dest, fu, payload)?;
        self.queue(src, msg)
    }

    /// Asserts a node's interrupt port (§4.5) on its own bus.
    ///
    /// # Errors
    ///
    /// [`MbusError::UnknownCluster`] / [`MbusError::UnknownNode`] for an
    /// unknown cluster / node.
    pub fn request_wakeup(&mut self, id: FleetNodeId) -> Result<(), MbusError> {
        self.engine_mut(id)?.request_wakeup(id.node)?;
        self.pending.insert(id.cluster);
        Ok(())
    }

    /// Runs the whole fleet until no bus has pending work and no
    /// envelope is in flight; returns the records in order.
    ///
    /// This is the one drive loop ([`ShardedFleet::drive`]) on one
    /// shard, in epochs. Each epoch steps the clusters that may have
    /// work round-robin to quiescence through
    /// [`BusEngine::run_transaction`], then — at the epoch barrier —
    /// routes their gateway envelopes in source-cluster order; epochs
    /// repeat until no forwarded leg is left to run. A forwarded leg
    /// is therefore always queued *between* epochs (store-and-forward:
    /// the gateway holds it until the destination bus's next-epoch
    /// drain), regardless of the source and destination cluster
    /// indexes.
    ///
    /// Because routing happens only at epoch barriers, each cluster's
    /// own record stream is an autonomous drain of whatever was pending
    /// at its epoch start. The fleet-wide order depends only on cluster
    /// indexes, so the sequence of [`FleetRecord`]s is identical on
    /// every engine kind and every [`FleetSchedule`].
    pub fn run_until_quiescent(&mut self) -> Vec<FleetRecord> {
        let mut records = Vec::new();
        ShardedFleet::new(1).drive(self, &mut |r| records.push(r));
        records
    }

    /// Drains a node's received messages. For a gateway presence this
    /// returns the non-envelope traffic (broadcasts, `fu != 0`
    /// deliveries); envelopes are consumed by routing. Forwarded
    /// messages arrive at sensors with `from == `[`GATEWAY_NODE`] — the
    /// bus-level transmitter is the gateway's presence on that bus.
    ///
    /// # Panics
    ///
    /// Panics for an unknown cluster.
    pub fn take_rx(&mut self, id: FleetNodeId) -> Vec<ReceivedMessage> {
        let mut rx = Vec::new();
        self.drain_rx(id, &mut rx);
        rx
    }

    /// [`Fleet::take_rx`], appending to `out` instead: the
    /// [`BusEngine::drain_rx`] of the fleet, so behavior settle moves
    /// deliveries straight into each node's collected log.
    pub(crate) fn drain_rx(&mut self, id: FleetNodeId, out: &mut Vec<ReceivedMessage>) {
        if id.node == GATEWAY_NODE {
            // The engine-side rx log is empty after a drive: frontends
            // only receive during runs, every cluster that ran since
            // the last drive is in the pending set, and a drive routes
            // (or stashes) the gateway log of every cluster it polls.
            out.append(&mut self.gateway_rx[id.cluster]);
        } else {
            self.clusters[id.cluster].drain_rx(id.node, out);
        }
    }
}

/// How many shards the fleet's one drive loop
/// ([`shard::ShardedFleet`]) runs a drain on. Every schedule produces
/// the same [`FleetRecord`]s in the same order, and therefore the same
/// [`FleetSignature`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FleetSchedule {
    /// The same single-shard drive as `Interleaved`
    /// ([`Fleet::run_until_quiescent`]). Kept as its own name because
    /// `.mbt` traces spell it `schedule=batched`.
    #[default]
    Batched,
    /// Round-robin: one transaction per cluster per round
    /// ([`InterleavedScheduler`]), so every bus makes progress
    /// together — the serving shape for thousands of buses on one
    /// thread. Runs as `Sharded { shards: 1 }`.
    Interleaved,
    /// Sharded interleave ([`shard::ShardedFleet`]): cluster groups on
    /// pooled worker threads, one interleaved scheduler each, cluster
    /// `c` always on shard `c % workers`, gateway envelopes exchanged
    /// at cross-worker epoch barriers — tens of thousands of buses
    /// across cores. The record stream stays bit-identical to
    /// [`FleetSchedule::Interleaved`] regardless of worker count.
    Sharded {
        /// Worker-thread count (clamped to the cluster count; 0 is
        /// treated as 1).
        shards: usize,
    },
}

impl fmt::Display for FleetSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetSchedule::Batched => write!(f, "batched"),
            FleetSchedule::Interleaved => write!(f, "interleaved"),
            FleetSchedule::Sharded { shards } => write!(f, "sharded({shards})"),
        }
    }
}

/// The round-robin kernel of the fleet drive loop: one transaction per
/// cluster per round instead of draining each cluster to quiescence
/// before touching the next.
///
/// Each *round* steps every still-active cluster once through
/// [`BusEngine::run_transaction`] — which on an
/// [`AnalyticBus`](crate::AnalyticBus) is exactly one transaction
/// returned as a `Copy` record, making this the engine/scheduler
/// pairing that interleaves thousands of buses on one thread. A
/// cluster that reports no work (`None`) drops out of the round
/// rotation for the rest of the epoch. [`shard::ShardedFleet`]
/// owns one scheduler per shard and the epoch barriers between them:
/// when every cluster is quiescent, the barrier routes all gateway
/// envelopes in source-cluster order and a new epoch begins.
///
/// # The record order
///
/// Every schedule runs this same kernel. A cluster's `j`-th
/// transaction of an epoch runs in round `j`, whatever the other
/// clusters do, so the barrier's merge by `(round, cluster)` gives the
/// round-robin order on any number of shards: the first transaction
/// of every active cluster, then the second of every cluster still
/// active, …
///
/// # Example
///
/// ```
/// use mbus_core::fleet::{Fleet, ShardedFleet};
/// use mbus_core::{BusConfig, EngineKind, FuId};
///
/// let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
/// let (a, b) = (fleet.add_cluster(), fleet.add_cluster());
/// let src = fleet.add_sensor(a, false);
/// let dst = fleet.add_sensor(b, false);
/// fleet.queue_remote(src, dst, FuId::ZERO, vec![0x42])?;
///
/// let mut interleaved = ShardedFleet::new(1);
/// let mut records = Vec::new();
/// interleaved.drive(&mut fleet, &mut |r| records.push(r));
/// assert_eq!(records.len(), 2); // envelope leg + forwarded leg
/// let scheduler = &interleaved.shard_schedulers()[0];
/// assert_eq!(scheduler.transactions(), 2);
/// assert_eq!(scheduler.cluster_transactions(), &[1, 1]);
/// assert_eq!(fleet.take_rx(dst)[0].payload, vec![0x42]);
/// # Ok::<(), mbus_core::MbusError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct InterleavedScheduler {
    /// Clusters still active in the current epoch, as positions into
    /// the epoch's entries (scratch, reused across epochs and drives).
    active: Vec<usize>,
    transactions: u64,
    /// `run_transaction` calls, the final `None` of each cluster's
    /// epoch included.
    polls: u64,
    /// Transactions per cluster across all drives, indexed by the
    /// cluster's fleet-global index.
    cluster_transactions: Vec<u64>,
    /// Starvation gauge: the most transactions this scheduler ran
    /// between two consecutive turns of any single cluster.
    max_turn_gap: u64,
    /// Hog gauge: the most transactions any single cluster ran within
    /// one epoch.
    max_cluster_epoch_transactions: u64,
    /// Epoch-local scratch (per-cluster turn bookkeeping), reused.
    epoch_counts: Vec<u64>,
    last_turn: Vec<u64>,
}

impl InterleavedScheduler {
    /// Creates a scheduler with zeroed counters.
    pub fn new() -> Self {
        InterleavedScheduler::default()
    }

    /// Transactions this scheduler ran across all epochs.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Engine polls this scheduler made across all epochs: every
    /// [`BusEngine::run_transaction`] call, including the `None` that
    /// ends each cluster's epoch. The cost the sharded drive keeps
    /// proportional to the clusters with work, not to fleet size.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Transactions each cluster ran across all epochs, indexed by the
    /// cluster's fleet-global index (clusters this scheduler never
    /// polled may be absent). Schedule-independent: the per-cluster
    /// totals are the same under every schedule and shard count,
    /// because the per-cluster streams themselves are.
    pub fn cluster_transactions(&self) -> &[u64] {
        &self.cluster_transactions
    }

    /// The starvation gauge: the most transactions that ran between
    /// two consecutive turns of any single cluster (measured within an
    /// epoch — each epoch starts a fresh rotation over the clusters it
    /// polls). Round-robin
    /// fairness bounds this by the number of simultaneously active
    /// clusters; draining each cluster to quiescence in turn would let
    /// it grow to a whole cluster's backlog.
    pub fn max_turn_gap(&self) -> u64 {
        self.max_turn_gap
    }

    /// The hog gauge: the most transactions any single cluster ran
    /// within one epoch — how long the busiest bus kept its round slot
    /// occupied before quiescing.
    pub fn max_cluster_epoch_transactions(&self) -> u64 {
        self.max_cluster_epoch_transactions
    }

    /// Grows the per-cluster fairness vectors to cover `end` clusters.
    fn grow(&mut self, end: usize) {
        if self.cluster_transactions.len() < end {
            self.cluster_transactions.resize(end, 0);
            self.epoch_counts.resize(end, 0);
            self.last_turn.resize(end, 0);
        }
    }

    /// Runs one epoch of round-robin rounds over `entries` — pairs of
    /// `(fleet-global cluster index, engine)` in ascending cluster
    /// order — with *no* gateway routing, handing each completed
    /// transaction to `emit` as `(round, global cluster index,
    /// record)`. One round polls every still-active cluster once in
    /// entry order; a cluster that reports no work leaves the rotation
    /// for the rest of the epoch. Returns whether any transaction ran.
    /// The caller owns the barrier and decides whether the epoch
    /// counts as progress.
    ///
    /// This is the worker-side kernel of the sharded drain
    /// ([`shard::ShardedFleet`]): each worker runs it over its shard's
    /// entries — *any* subset of the fleet's clusters, contiguous or
    /// not — and because a cluster's `j`-th transaction always lands
    /// in round `j` regardless of what other clusters do, merging all
    /// shards' emissions by `(round, cluster)` reproduces the
    /// single-threaded round-robin order exactly, whatever the
    /// assignment.
    pub(crate) fn run_epoch_entries(
        &mut self,
        entries: &mut [(usize, Box<dyn BusEngine>)],
        emit: &mut dyn FnMut(u64, usize, EngineRecord),
    ) -> bool {
        let end = entries.iter().map(|&(c, _)| c + 1).max().unwrap_or(0);
        self.grow(end);
        for &(cluster, _) in entries.iter() {
            self.epoch_counts[cluster] = 0;
            self.last_turn[cluster] = 0;
        }
        // `active` holds positions into `entries` (not cluster
        // indices), so sparse shard assignments cost nothing extra.
        self.active.clear();
        self.active.extend(0..entries.len());
        let mut epoch_txns = 0u64;
        let mut round = 0u64;
        let mut ran = false;
        while !self.active.is_empty() {
            // One round: one transaction per still-active cluster, in
            // entry order; quiescent clusters leave the epoch. The
            // survivors are compacted in place (order preserved), so a
            // round costs O(active) even when thousands of clusters
            // quiesce at once.
            let mut kept = 0;
            self.polls += self.active.len() as u64;
            for i in 0..self.active.len() {
                let pos = self.active[i];
                let (cluster, engine) = &mut entries[pos];
                let cluster = *cluster;
                if let Some(record) = engine.run_transaction() {
                    self.transactions += 1;
                    epoch_txns += 1;
                    self.cluster_transactions[cluster] += 1;
                    self.epoch_counts[cluster] += 1;
                    if self.epoch_counts[cluster] > 1 {
                        let gap = epoch_txns - self.last_turn[cluster] - 1;
                        self.max_turn_gap = self.max_turn_gap.max(gap);
                    }
                    self.last_turn[cluster] = epoch_txns;
                    self.max_cluster_epoch_transactions = self
                        .max_cluster_epoch_transactions
                        .max(self.epoch_counts[cluster]);
                    ran = true;
                    emit(round, cluster, record);
                    self.active[kept] = pos;
                    kept += 1;
                }
            }
            self.active.truncate(kept);
            round += 1;
        }
        ran
    }
}

/// One step of a [`FleetWorkload`].
#[derive(Clone, Debug)]
pub enum FleetStep {
    /// Queue a cluster-local message on the sender's own bus.
    Local {
        /// The transmitting node.
        src: FleetNodeId,
        /// The message (short-addressed within the cluster).
        msg: Message,
    },
    /// Queue a cross-cluster message through the gateway.
    Remote {
        /// The transmitting node.
        src: FleetNodeId,
        /// The final destination, on any cluster: the node the
        /// envelope header names.
        dest: FleetNodeId,
        /// The envelope, checked and built once with the step: a v1
        /// header (implicit [`DEFAULT_TTL`]) or a v2 one with a TTL,
        /// then the inner payload ([`GatewayNode::open`] reads them).
        /// Priority claims the arbitration round for the sender's leg.
        msg: Message,
    },
    /// Assert a node's interrupt port (§4.5).
    Wakeup {
        /// The node to wake.
        node: FleetNodeId,
    },
    /// Run the whole fleet until quiescent.
    Drain,
    /// Run at most `rounds` transactions on *every* cluster —
    /// round-robin, no gateway routing — then stop mid-epoch, so later
    /// queue steps land while earlier traffic is still pending: the
    /// fleet-level lift of the single-bus mid-drain-queueing hostile
    /// case ([`crate::scenario::Step::RunTransactions`]).
    ///
    /// Because the step itself runs one fixed round-robin mini-drain
    /// (it does not consult the [`FleetSchedule`]), each cluster
    /// executes exactly `min(rounds, pending)` transactions under
    /// every schedule and schedule-independence is preserved. Wire
    /// engines may legally run ahead of `run_transaction`, so
    /// workloads containing this step are not wire-comparable
    /// *across* engine kinds — [`FleetWorkload::wire_comparable`]
    /// returns `false` and the cross-engine suites run them on the
    /// analytic engine only.
    RunRounds {
        /// Maximum transactions each cluster executes before the step
        /// stops.
        rounds: usize,
    },
}

/// A declarative, engine-generic fleet scenario: cluster topology plus
/// steps — [`crate::scenario::Workload`] lifted to many bridged buses.
#[derive(Clone, Debug)]
pub struct FleetWorkload {
    name: String,
    config: BusConfig,
    /// Per cluster: each sensor's power-awareness flag.
    clusters: Vec<Vec<bool>>,
    /// Per cluster: its mesh domain (parallel to `clusters`).
    domains: Vec<usize>,
    /// Hierarchical mesh routes, in registration order.
    routes: Vec<MeshRoute>,
    /// Reactive behavior table, keyed by sensor identity.
    behaviors: BTreeMap<FleetNodeId, NodeBehavior>,
    reply_horizon: u32,
    steps: Vec<FleetStep>,
    strict_nulls: bool,
}

impl FleetWorkload {
    /// Starts an empty fleet workload.
    pub fn new(name: impl Into<String>, config: BusConfig) -> Self {
        FleetWorkload {
            name: name.into(),
            config,
            clusters: Vec::new(),
            domains: Vec::new(),
            routes: Vec::new(),
            behaviors: BTreeMap::new(),
            reply_horizon: DEFAULT_REPLY_HORIZON,
            steps: Vec::new(),
            strict_nulls: true,
        }
    }

    /// Appends a cluster whose sensors have the given power-awareness
    /// flags (one per sensor; the gateway presence is implicit and
    /// always-on). The cluster lives in mesh domain 0; see
    /// [`FleetWorkload::cluster_in`].
    pub fn cluster(self, sensor_power: Vec<bool>) -> Self {
        self.cluster_in(0, sensor_power)
    }

    /// Appends a cluster in mesh `domain` (see
    /// [`Fleet::add_cluster_in_domain`]).
    pub fn cluster_in(mut self, domain: usize, sensor_power: Vec<bool>) -> Self {
        self.clusters.push(sensor_power);
        self.domains.push(domain);
        self
    }

    /// Appends a hierarchical mesh route (see
    /// [`Fleet::add_mesh_route`]); validated when the fleet is built.
    pub fn route(mut self, domain: usize, lo: usize, hi: usize, via: usize) -> Self {
        self.routes.push(MeshRoute {
            domain,
            lo,
            hi,
            via,
        });
        self
    }

    /// Attaches a reactive [`NodeBehavior`] to a declared sensor.
    /// [`NodeBehavior::Inert`] removes the entry. Responses are
    /// injected at every fleet drain barrier, bounded by
    /// [`FleetWorkload::with_reply_horizon`]; see the
    /// [`behavior`] module docs for the determinism
    /// rules.
    ///
    /// # Panics
    ///
    /// Panics for an undeclared node, a gateway presence (node 0), or
    /// out-of-range behavior parameters.
    pub fn behavior(mut self, id: FleetNodeId, b: NodeBehavior) -> Self {
        assert!(
            id.cluster < self.clusters.len()
                && id.node >= 1
                && id.node <= self.clusters[id.cluster].len(),
            "behavior on undeclared node {id} in fleet workload '{}'",
            self.name
        );
        if b.is_inert() {
            self.behaviors.remove(&id);
        } else {
            b.validate();
            self.behaviors.insert(id, b);
        }
        self
    }

    /// Sets the bound on reply-injection rounds per drain barrier
    /// (default [`DEFAULT_REPLY_HORIZON`]).
    ///
    /// # Panics
    ///
    /// Panics when `horizon` is 0.
    pub fn with_reply_horizon(mut self, horizon: u32) -> Self {
        assert!(horizon >= 1, "the reply horizon is at least one round");
        self.reply_horizon = horizon;
        self
    }

    /// Appends a cluster-local send step.
    pub fn send_local(mut self, src: FleetNodeId, msg: Message) -> Self {
        self.steps.push(FleetStep::Local { src, msg });
        self
    }

    /// Appends a cross-cluster send step (normal priority), its
    /// envelope built and checked here.
    ///
    /// # Panics
    ///
    /// Panics for an undeclared destination cluster, a destination node
    /// past its ring, a gateway destination on fu 0, or a payload that
    /// overflows `maxmsg` with the 4-byte header.
    pub fn send_remote(
        self,
        src: FleetNodeId,
        dest: FleetNodeId,
        fu: FuId,
        payload: Vec<u8>,
    ) -> Self {
        self.push_remote(src, dest, fu, payload, None, false)
    }

    /// Appends a cross-cluster send step with an explicit mesh hop
    /// budget (a v2 envelope; see [`Fleet::remote_message_ttl`]).
    ///
    /// # Panics
    ///
    /// As [`FleetWorkload::send_remote`], with a 6-byte header, and
    /// for a `ttl` outside `1..=`[`MAX_TTL`].
    pub fn send_remote_ttl(
        self,
        src: FleetNodeId,
        dest: FleetNodeId,
        fu: FuId,
        payload: Vec<u8>,
        ttl: u8,
    ) -> Self {
        self.push_remote(src, dest, fu, payload, Some(ttl), false)
    }

    /// Appends a cross-cluster send step whose envelope leg claims the
    /// priority round on the sender's bus.
    ///
    /// # Panics
    ///
    /// As [`FleetWorkload::send_remote`].
    pub fn send_remote_priority(
        self,
        src: FleetNodeId,
        dest: FleetNodeId,
        fu: FuId,
        payload: Vec<u8>,
    ) -> Self {
        self.push_remote(src, dest, fu, payload, None, true)
    }

    /// The body of the `send_remote*` builders.
    fn push_remote(
        mut self,
        src: FleetNodeId,
        dest: FleetNodeId,
        fu: FuId,
        payload: Vec<u8>,
        ttl: Option<u8>,
        priority: bool,
    ) -> Self {
        let ring = self.clusters.get(dest.cluster).map(|s| s.len() + 1);
        let msg = checked_envelope(&self.config, ring, dest, fu, payload, ttl)
            .unwrap_or_else(|e| panic!("remote step to {dest} in '{}': {e}", self.name));
        let msg = if priority { msg.with_priority() } else { msg };
        self.steps.push(FleetStep::Remote { src, dest, msg });
        self
    }

    /// Replaces the step list with `steps`, moved in one go.
    /// Crate-internal: the trace parser and shrinker hand over a whole
    /// list, which may hold combinations the convenience builders
    /// cannot express (a priority envelope with an explicit TTL). Remote
    /// envelopes are checked when made and every other step builder is
    /// a bare push, so this checks nothing they would.
    pub(crate) fn with_steps(mut self, steps: Vec<FleetStep>) -> Self {
        self.steps = steps;
        self
    }

    /// Appends an interrupt-port wakeup step.
    pub fn wakeup(mut self, node: FleetNodeId) -> Self {
        self.steps.push(FleetStep::Wakeup { node });
        self
    }

    /// Appends a fleet-wide drain step.
    pub fn drain(mut self) -> Self {
        self.steps.push(FleetStep::Drain);
        self
    }

    /// Appends a partial-drain step: at most `rounds` transactions per
    /// cluster, no routing, stopping mid-epoch (see
    /// [`FleetStep::RunRounds`] for the wire-comparability caveat).
    pub fn drain_rounds(mut self, rounds: usize) -> Self {
        self.steps.push(FleetStep::RunRounds { rounds });
        self
    }

    /// Whether this fleet workload's observable behavior is comparable
    /// against the wire engine *across* engine kinds. Partial drains
    /// ([`FleetStep::RunRounds`]) make it not so, exactly as at the
    /// single-bus layer ([`crate::scenario::Workload::wire_comparable`]):
    /// the wire engine may legally run ahead of a `run_transaction`
    /// call, so traffic queued after a partial drain meets an
    /// already-empty bus there. Schedule-independence *within* a kind
    /// is unaffected — every schedule issues the identical per-cluster
    /// call sequence.
    pub fn wire_comparable(&self) -> bool {
        !self
            .steps
            .iter()
            .any(|s| matches!(s, FleetStep::RunRounds { .. }))
    }

    /// Declares that this workload transmits from power-gated sensors,
    /// so the wire engine inserts self-wake null transactions the
    /// analytic engine folds away; the [`FleetSignature`] then compares
    /// non-null records only (exactly like
    /// [`crate::scenario::Workload::allow_wake_nulls`]).
    pub fn allow_wake_nulls(mut self) -> Self {
        self.strict_nulls = false;
        self
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-bus configuration.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Per-cluster sensor power-awareness flags.
    pub fn cluster_specs(&self) -> &[Vec<bool>] {
        &self.clusters
    }

    /// Per-cluster mesh domains (parallel to
    /// [`FleetWorkload::cluster_specs`]).
    pub fn cluster_domains(&self) -> &[usize] {
        &self.domains
    }

    /// The hierarchical mesh routes, in registration order.
    pub fn mesh_routes(&self) -> &[MeshRoute] {
        &self.routes
    }

    /// The reactive behavior table, keyed by sensor identity.
    pub fn behaviors(&self) -> &BTreeMap<FleetNodeId, NodeBehavior> {
        &self.behaviors
    }

    /// The bound on reply-injection rounds per drain barrier.
    pub fn reply_horizon(&self) -> u32 {
        self.reply_horizon
    }

    /// Whether null transactions participate in signature comparison
    /// (`true` unless [`FleetWorkload::allow_wake_nulls`] was called) —
    /// the serialization hook [`crate::trace`] uses to round-trip the
    /// `wake-nulls` header.
    pub fn strict_nulls(&self) -> bool {
        self.strict_nulls
    }

    /// The step list.
    pub fn steps(&self) -> &[FleetStep] {
        &self.steps
    }

    /// Total nodes the instantiated fleet will have (sensors plus one
    /// gateway presence per cluster).
    pub fn total_nodes(&self) -> usize {
        self.clusters.iter().map(|c| c.len() + 1).sum()
    }

    /// Builds a [`Fleet`] of `kind` with this workload's topology —
    /// clusters (in their mesh domains), sensors, and mesh routes.
    pub fn instantiate(&self, kind: EngineKind) -> Fleet {
        let mut fleet = Fleet::new(kind, self.config);
        for (sensors, &domain) in self.clusters.iter().zip(&self.domains) {
            let c = fleet.add_cluster_in_domain(domain);
            for &power_aware in sensors {
                fleet.add_sensor(c, power_aware);
            }
        }
        for r in &self.routes {
            fleet.add_mesh_route(r.domain, r.lo, r.hi, r.via);
        }
        fleet
    }

    /// Runs the steps on a fleet carrying this workload's topology
    /// (see [`FleetWorkload::instantiate`]) on one shard.
    /// A trailing [`FleetStep::Drain`] is implied.
    ///
    /// # Panics
    ///
    /// Panics if the fleet's topology does not match — cluster count,
    /// per-cluster sensor counts, or any sensor's power-awareness — or
    /// a step's sender or local message is rejected (remote envelopes
    /// were checked when built; a rejection is a workload bug).
    pub fn apply(&self, fleet: &mut Fleet) -> FleetReport {
        self.apply_scheduled(fleet, FleetSchedule::Batched)
    }

    /// [`FleetWorkload::apply`] with an explicit [`FleetSchedule`]:
    /// every [`FleetStep::Drain`] (and the implied trailing one) runs
    /// on the chosen number of shards. The resulting
    /// [`FleetReport::records`], and so its signature, are
    /// schedule-independent.
    ///
    /// # Panics
    ///
    /// As [`FleetWorkload::apply`].
    pub fn apply_scheduled(&self, fleet: &mut Fleet, schedule: FleetSchedule) -> FleetReport {
        let mut sharded = match schedule {
            FleetSchedule::Batched | FleetSchedule::Interleaved => ShardedFleet::new(1),
            FleetSchedule::Sharded { shards } => ShardedFleet::new(shards),
        };
        self.apply_sharded(fleet, &mut sharded)
    }

    /// [`FleetWorkload::apply_scheduled`] with a caller-owned
    /// [`ShardedFleet`], so the drain's worker-spawn mode and shard
    /// count are the caller's choice (the `interleave` bench uses this
    /// to race workers kept across drives against the per-epoch-spawn
    /// baseline). Counters accumulate into `sharded` and the report's
    /// fairness snapshot is taken from it.
    ///
    /// # Panics
    ///
    /// As [`FleetWorkload::apply`].
    pub fn apply_sharded(&self, fleet: &mut Fleet, sharded: &mut ShardedFleet) -> FleetReport {
        assert_eq!(
            fleet.cluster_count(),
            self.clusters.len(),
            "fleet cluster count does not match workload '{}'",
            self.name
        );
        for (c, sensors) in self.clusters.iter().enumerate() {
            assert_eq!(
                fleet.clusters[c].node_count(),
                sensors.len() + 1,
                "cluster {c} ring size does not match workload '{}'",
                self.name
            );
            assert_eq!(
                fleet.cluster_domain(c),
                self.domains[c],
                "cluster {c} mesh domain does not match workload '{}'",
                self.name
            );
            for (j, &power_aware) in sensors.iter().enumerate() {
                assert_eq!(
                    fleet.clusters[c].spec(j + 1).is_power_aware(),
                    power_aware,
                    "cluster {c} sensor {} power-awareness does not match workload '{}'",
                    j + 1,
                    self.name
                );
            }
        }
        assert_eq!(
            fleet.gateway().routes().mesh_routes(),
            self.routes.as_slice(),
            "fleet mesh routes do not match workload '{}'",
            self.name
        );
        self.replay(fleet, sharded, &mut SettleState::new(self))
    }

    /// Builds a fleet of `kind` and runs the workload on it through a
    /// caller-owned [`ShardedFleet`] (see
    /// [`FleetWorkload::apply_sharded`]).
    pub fn run_sharded_on(&self, kind: EngineKind, sharded: &mut ShardedFleet) -> FleetReport {
        let mut fleet = self.instantiate(kind);
        self.apply_sharded(&mut fleet, sharded)
    }

    /// Replays the steps on a topology-checked fleet, driving every
    /// drain through `sharded` and settling behaviors through `settle`,
    /// and assembles the report.
    fn replay(
        &self,
        fleet: &mut Fleet,
        sharded: &mut ShardedFleet,
        settle: &mut SettleState<'_>,
    ) -> FleetReport {
        // The first block is 64 records (3.5 KiB), above the 1032-byte
        // limit of glibc's per-thread cache. That cache can hand this
        // thread a small block a shard worker allocated (the fleet's
        // engines, grown on workers, are freed here), and realloc grows
        // a block inside the arena it came from, so a 4-record first
        // block could double the whole record stream inside a worker's
        // arena (+10 MiB peak RSS on fleetbench `duty_closed` when it
        // happens). From 64 up the capacities match `Vec::new()`'s.
        let mut records = Vec::with_capacity(64);
        for step in &self.steps {
            match step {
                FleetStep::Local { src, msg } | FleetStep::Remote { src, msg, .. } => {
                    fleet.queue(*src, msg.clone()).expect("fleet queue step");
                }
                FleetStep::Wakeup { node } => {
                    fleet.request_wakeup(*node).expect("fleet wakeup step");
                }
                FleetStep::Drain => {
                    sharded.drive(fleet, &mut |r| records.push(r));
                    self.settle_behaviors(fleet, sharded, &mut records, settle);
                }
                // One fixed round-robin mini-drain regardless of the
                // schedule, so partial drains cannot break
                // schedule-independence (see the step docs). Only
                // pending clusters can have work; any other would
                // return `None`, so polling just those (ascending)
                // emits the same records.
                FleetStep::RunRounds { rounds } => {
                    let Fleet {
                        clusters, pending, ..
                    } = &mut *fleet;
                    for _ in 0..*rounds {
                        for cluster in pending.iter() {
                            if let Some(record) = clusters[cluster].run_transaction() {
                                records.push(FleetRecord { cluster, record });
                            }
                        }
                    }
                }
            }
        }
        if !matches!(self.steps.last(), Some(FleetStep::Drain)) {
            sharded.drive(fleet, &mut |r| records.push(r));
            self.settle_behaviors(fleet, sharded, &mut records, settle);
        }
        let clusters = fleet.cluster_count();
        let rx = (0..clusters)
            .map(|c| {
                (0..fleet.clusters[c].node_count())
                    .map(|n| {
                        // Behavior nodes' earlier deliveries were
                        // drained at the settle barriers; splice them
                        // back in delivery order ahead of the rest.
                        let id = FleetNodeId::new(c, n);
                        let mut log = settle.take_collected(id);
                        fleet.drain_rx(id, &mut log);
                        log
                    })
                    .collect()
            })
            .collect();
        let wake_events = (0..clusters)
            .map(|c| {
                (0..fleet.clusters[c].node_count())
                    .map(|n| fleet.wake_events(FleetNodeId::new(c, n)))
                    .collect()
            })
            .collect();
        FleetReport {
            workload: self.name.clone(),
            kind: fleet.kind(),
            records,
            rx,
            stats: (0..clusters).map(|c| fleet.stats(c)).collect(),
            wake_events,
            forwarded: fleet.gateway().forwarded(),
            dropped: fleet.gateway().dropped(),
            cluster_drops: (0..clusters)
                .map(|c| fleet.gateway().dropped_on(c))
                .collect(),
            hop_forwards: fleet.gateway().hop_forwards(),
            ttl_drops: (0..clusters)
                .map(|c| fleet.gateway().ttl_dropped_on(c))
                .collect(),
            injected_replies: settle.injected,
            reply_rounds: settle.rounds,
            fairness: Some(sharded.fairness(clusters)),
            strict_nulls: self.strict_nulls,
        }
    }

    /// Runs the horizon-bounded reply-injection loop at a drain
    /// barrier: each round drains the receive log of every behavior
    /// node that may have received something, computes responses in
    /// node order, queues them, and re-drains the fleet through the
    /// *same* `sharded` drive the quiescence barriers use —
    /// so every schedule (and shard count) reaches the identical
    /// pre-injection state and injects the identical batch.
    ///
    /// A round visits only the behavior nodes named in the
    /// `delivered_to` set of a record emitted since the previous visit
    /// (every behavior node on an apply's first visit, since the
    /// caller's fleet may already hold deliveries), clusters ascending
    /// and nodes ascending within each. That is the behavior table's
    /// own order restricted to the nodes whose logs are non-empty, so
    /// the batch matches a walk over the whole table while a round
    /// costs what its deliveries cost. It is exact because both
    /// engines put a delivery in a receive log together with the
    /// record naming it, and settle runs only after a full drive,
    /// which leaves no record buffered.
    fn settle_behaviors(
        &self,
        fleet: &mut Fleet,
        sharded: &mut ShardedFleet,
        records: &mut Vec<FleetRecord>,
        settle: &mut SettleState<'_>,
    ) {
        if settle.behaviors.is_empty() {
            return;
        }
        for _ in 0..self.reply_horizon {
            let mut batch: Vec<(FleetNodeId, Message)> = Vec::new();
            settle.mark(records);
            #[cfg(test)]
            settle.visits.push(0);
            for cluster in settle.marked_clusters.take() {
                for node in std::mem::take(&mut settle.marked[cluster]).iter() {
                    let id = FleetNodeId::new(cluster, node);
                    let slot = settle.slot(id);
                    let b = settle.behaviors[slot];
                    // Deliveries move straight into the node's
                    // collected log; the new tail is this round's
                    // triggers.
                    let log = &mut settle.collected[slot];
                    let start = log.len();
                    fleet.drain_rx(id, log);
                    for m in &log[start..] {
                        if m.from == id.node {
                            continue;
                        }
                        self.respond(fleet, id, b, m, &mut settle.agg_seen[slot], &mut batch);
                    }
                    #[cfg(test)]
                    {
                        *settle.visits.last_mut().expect("pushed this round") += 1;
                    }
                }
            }
            #[cfg(debug_assertions)]
            settle.assert_drained(fleet);
            if batch.is_empty() {
                return;
            }
            for (id, msg) in batch {
                fleet.queue(id, msg).expect("behavior response");
                settle.injected += 1;
            }
            sharded.drive(fleet, &mut |r| records.push(r));
            settle.rounds += 1;
        }
    }

    /// Computes one behavior node's responses to one trigger, pushing
    /// them onto `batch` (see the [`behavior`](crate::behavior) module
    /// docs for the addressing rules). `seen` is the node's
    /// aggregate-ack trigger counter.
    fn respond(
        &self,
        fleet: &Fleet,
        id: FleetNodeId,
        b: &NodeBehavior,
        trigger: &ReceivedMessage,
        seen: &mut u32,
        batch: &mut Vec<(FleetNodeId, Message)>,
    ) {
        match b {
            NodeBehavior::Inert => {}
            NodeBehavior::Reply { fu, payload } => {
                if let Some(msg) = self.reply_message(fleet, id, trigger, *fu, payload) {
                    batch.push((id, msg));
                }
            }
            NodeBehavior::AggregateAck { n, fu, payload } => {
                *seen += 1;
                if (*seen).is_multiple_of(*n) {
                    if let Some(msg) = self.reply_message(fleet, id, trigger, *fu, payload) {
                        batch.push((id, msg));
                    }
                }
            }
            NodeBehavior::AlarmCascade {
                fanout,
                fu,
                payload,
            } => {
                // Propagate to the next `fanout` clusters in index
                // order (wrapping; own and empty clusters skipped),
                // targeting the sensor at the alarm node's own ring
                // position (mod the target's ring size).
                let clusters = self.clusters.len();
                for k in 0..(*fanout as usize).min(clusters.saturating_sub(1)) {
                    let target_cluster = (id.cluster + 1 + k) % clusters;
                    if target_cluster == id.cluster || self.clusters[target_cluster].is_empty() {
                        continue;
                    }
                    let sensors = self.clusters[target_cluster].len();
                    let target = FleetNodeId::new(target_cluster, 1 + (id.node - 1) % sensors);
                    let msg = fleet
                        .remote_message(target, *fu, with_header_room(payload))
                        .expect("behavior cascade envelope");
                    batch.push((id, msg));
                }
            }
        }
    }

    /// Builds one directed reply from `id` to `trigger`'s originator,
    /// or `None` when no legal reply destination exists (see the
    /// [`behavior`](crate::behavior) module docs). The payload is
    /// copied once, into the reply (or its envelope).
    fn reply_message(
        &self,
        fleet: &Fleet,
        id: FleetNodeId,
        trigger: &ReceivedMessage,
        fu: FuId,
        payload: &[u8],
    ) -> Option<Message> {
        if let Some((prefix, rfu)) = behavior::return_address(&trigger.payload) {
            // The request/response idiom: answer the embedded return
            // address — directly when it lives on this cluster, back
            // through the gateway (and possibly the mesh) otherwise.
            // An unroutable return address becomes a counted gateway
            // drop, not a workload error.
            if fleet.gateway().route(prefix) == Some(id.cluster) {
                return Some(Message::new(Address::full(prefix, rfu), payload.to_vec()));
            }
            let inner = with_header_room(payload);
            return Some(envelope_message(prefix, rfu, inner, None));
        }
        if trigger.from == GATEWAY_NODE {
            // A forwarded leg's bus-level sender is the gateway
            // presence; answer its local port — unless the behavior fu
            // is the reserved forwarding port, which only envelopes
            // may target.
            if fu == GATEWAY_FORWARD_FU {
                return None;
            }
            return Some(Message::new(
                Address::short(gateway_short_prefix(), fu),
                payload.to_vec(),
            ));
        }
        // A sensor on the same bus: ring position n holds short
        // prefix n + 1.
        let prefix = ShortPrefix::new((trigger.from + 1) as u8).ok()?;
        Some(Message::new(Address::short(prefix, fu), payload.to_vec()))
    }

    /// Builds a fleet of `kind` and runs the workload on it on one
    /// shard.
    pub fn run_on(&self, kind: EngineKind) -> FleetReport {
        self.run_scheduled_on(kind, FleetSchedule::Batched)
    }

    /// Builds a fleet of `kind` and runs the workload on it with the
    /// chosen [`FleetSchedule`].
    pub fn run_scheduled_on(&self, kind: EngineKind, schedule: FleetSchedule) -> FleetReport {
        let mut fleet = self.instantiate(kind);
        self.apply_scheduled(&mut fleet, schedule)
    }

    // ------------------------------------------------------------------
    // Built-in fleet scenarios.
    // ------------------------------------------------------------------

    /// Cluster-local sense-and-send (§6.3.1 lifted per cluster) plus
    /// cross-cluster aggregation: every round, each cluster's
    /// power-gated sensors report locally to the cluster aggregator
    /// (sensor 1, always-on), which then sends one cross-cluster
    /// aggregate through the gateway to the fleet collector (cluster
    /// 0's sensor 1).
    ///
    /// Power-gated sensors transmit, so the workload carries
    /// [`FleetWorkload::allow_wake_nulls`].
    ///
    /// # Panics
    ///
    /// Panics unless `clusters >= 1` and
    /// `1 <= sensors_per_cluster <=` [`MAX_SENSORS_PER_CLUSTER`].
    pub fn sense_and_aggregate(
        clusters: usize,
        sensors_per_cluster: usize,
        rounds: usize,
    ) -> FleetWorkload {
        assert!(clusters >= 1, "a fleet has at least one cluster");
        assert!(
            (1..=MAX_SENSORS_PER_CLUSTER).contains(&sensors_per_cluster),
            "1..={MAX_SENSORS_PER_CLUSTER} sensors per cluster"
        );
        let mut w = FleetWorkload::new(
            format!("fleet_sense_aggregate/{clusters}x{sensors_per_cluster}r{rounds}"),
            BusConfig::default(),
        );
        for _ in 0..clusters {
            // Sensor 1 is the always-on cluster aggregator; the rest
            // are power-gated like §6.3.1's temperature chip.
            let mut sensors = vec![true; sensors_per_cluster];
            sensors[0] = false;
            w = w.cluster(sensors);
        }
        if sensors_per_cluster >= 2 {
            // The gated reporters transmit, so the wire engine
            // self-wakes them with nulls the analytic engine folds.
            w = w.allow_wake_nulls();
        }
        let collector = FleetNodeId::new(0, 1);
        for round in 0..rounds {
            for c in 0..clusters {
                for j in 2..=sensors_per_cluster {
                    // Local reading to the aggregator's short prefix.
                    let reading = ((round * 31 + c * 7 + j) % 251) as u8;
                    w = w.send_local(
                        FleetNodeId::new(c, j),
                        Message::new(
                            Address::short(
                                ShortPrefix::new(0x2).expect("aggregator prefix"),
                                FuId::ZERO,
                            ),
                            vec![round as u8, j as u8, reading],
                        ),
                    );
                }
            }
            w = w.drain();
            for c in 0..clusters {
                // Cross-cluster aggregate to the fleet collector.
                w = w.send_remote(
                    FleetNodeId::new(c, 1),
                    collector,
                    FuId::ZERO,
                    vec![c as u8, round as u8, (round * clusters + c) as u8],
                );
            }
            w = w.drain();
        }
        w
    }

    /// Cross-cluster contention storm: every sensor is always-on and
    /// sends one message per round to a sensor on another cluster
    /// (cluster `(c + j) % clusters`), so every gateway presence both
    /// collects envelopes and transmits forwarded legs. Strict-null
    /// comparable — the full record streams (wakes included) must match
    /// across engines.
    ///
    /// # Panics
    ///
    /// Panics unless `clusters >= 2` and
    /// `1 <= sensors_per_cluster <=` [`MAX_SENSORS_PER_CLUSTER`].
    pub fn cross_storm(
        clusters: usize,
        sensors_per_cluster: usize,
        rounds: usize,
    ) -> FleetWorkload {
        assert!(clusters >= 2, "a cross storm needs at least two clusters");
        assert!(
            (1..=MAX_SENSORS_PER_CLUSTER).contains(&sensors_per_cluster),
            "1..={MAX_SENSORS_PER_CLUSTER} sensors per cluster"
        );
        let mut w = FleetWorkload::new(
            format!("fleet_cross_storm/{clusters}x{sensors_per_cluster}r{rounds}"),
            BusConfig::default(),
        );
        for _ in 0..clusters {
            w = w.cluster(vec![false; sensors_per_cluster]);
        }
        for round in 0..rounds {
            for c in 0..clusters {
                for j in 1..=sensors_per_cluster {
                    // A same-cluster pick would be local traffic; route
                    // it to that cluster's gateway presence (fu 1)
                    // instead, keeping every message on the gateway
                    // path.
                    let dest_cluster = (c + j) % clusters;
                    let (dest, fu) = if dest_cluster == c {
                        (
                            FleetNodeId::new(dest_cluster, GATEWAY_NODE),
                            FuId::new(0x1).expect("fu 1"),
                        )
                    } else {
                        (FleetNodeId::new(dest_cluster, j), FuId::ZERO)
                    };
                    let step_priority = round % 3 == 2 && j == sensors_per_cluster;
                    let payload = vec![round as u8, c as u8, j as u8];
                    w = if step_priority {
                        w.send_remote_priority(FleetNodeId::new(c, j), dest, fu, payload)
                    } else {
                        w.send_remote(FleetNodeId::new(c, j), dest, fu, payload)
                    };
                }
            }
            w = w.drain();
        }
        w
    }

    /// Duty-cycled request/response day at fleet scale (§6.3's
    /// request/response shape, closed-loop): the fleet splits into two
    /// mesh domains — always-on requesters in the first half,
    /// power-gated responders in the second — bridged by mutual range
    /// routes. Every round, each requester sends a cross-domain
    /// request carrying its own return address
    /// ([`behavior::with_return_address`]); the paired responder's
    /// [`NodeBehavior::Reply`] answers through the mesh, so every
    /// request and every reply takes one inter-gateway hop each way.
    /// Reply traffic is half of all transactions.
    ///
    /// # Panics
    ///
    /// Panics unless `clusters` is even and at least 4.
    pub fn duty_cycle_day(clusters: usize, rounds: usize) -> FleetWorkload {
        assert!(
            clusters >= 4 && clusters.is_multiple_of(2),
            "a duty-cycle day pairs requester and responder clusters (even, >= 4)"
        );
        let half = clusters / 2;
        let mut w = FleetWorkload::new(
            format!("fleet_duty_day/{clusters}r{rounds}"),
            BusConfig::default(),
        );
        for c in 0..clusters {
            // Responders are duty-cycled (power-gated); their reply
            // transmissions self-wake with nulls on the wire engine.
            w = w.cluster_in(usize::from(c >= half), vec![c >= half]);
        }
        w = w
            .route(0, half, clusters - 1, half)
            .route(1, 0, half - 1, 0)
            .allow_wake_nulls();
        let reply_fu = FuId::new(0x3).expect("reply fu");
        for c in half..clusters {
            w = w.behavior(
                FleetNodeId::new(c, 1),
                NodeBehavior::Reply {
                    fu: reply_fu,
                    payload: vec![0xAC],
                },
            );
        }
        for round in 0..rounds {
            for c in 0..half {
                let request = behavior::with_return_address(
                    sensor_full_prefix(c, 1),
                    reply_fu,
                    &[round as u8],
                );
                w = w.send_remote(
                    FleetNodeId::new(c, 1),
                    FleetNodeId::new(c + half, 1),
                    FuId::ZERO,
                    request,
                );
            }
            w = w.drain();
        }
        w
    }

    /// Alarm cascade at fleet scale (§6.3's alarm shape, closed-loop):
    /// every cluster's sensor 1 carries
    /// [`NodeBehavior::AlarmCascade`], and one local spark on cluster
    /// 0 trips the root alarm — each generation re-broadcasts to the
    /// next `fanout` clusters until the reply horizon bounds the wave.
    /// The wave's geographic reach is only `fanout × horizon` clusters
    /// from the root (propagation advances `fanout` clusters per
    /// generation), so the two mesh domains split *inside* that reach
    /// — at `fanout × horizon / 2`, capped at the midpoint — and the
    /// cascade provably crosses the inter-gateway boundary on large
    /// fleets instead of dying in domain 0.
    ///
    /// # Panics
    ///
    /// Panics unless `clusters >= 3` and `fanout >= 1`.
    pub fn alarm_cascade(clusters: usize, fanout: u8) -> FleetWorkload {
        assert!(clusters >= 3, "a cascade needs at least three clusters");
        assert!(fanout >= 1, "fanout >= 1");
        let reach = fanout as usize * DEFAULT_REPLY_HORIZON as usize;
        let half = (reach / 2).clamp(1, clusters / 2);
        let mut w = FleetWorkload::new(
            format!("fleet_alarm_cascade/{clusters}f{fanout}"),
            BusConfig::default(),
        );
        for c in 0..clusters {
            // Cluster 0 holds the spark sensor alongside the root
            // alarm node.
            let sensors = if c == 0 {
                vec![false, false]
            } else {
                vec![false]
            };
            w = w.cluster_in(usize::from(c >= half), sensors);
        }
        w = w
            .route(0, half, clusters - 1, half)
            .route(1, 0, half - 1, 0);
        let fu = FuId::new(0x4).expect("alarm fu");
        for c in 0..clusters {
            w = w.behavior(
                FleetNodeId::new(c, 1),
                NodeBehavior::AlarmCascade {
                    fanout,
                    fu,
                    payload: vec![0xA1],
                },
            );
        }
        w.send_local(
            FleetNodeId::new(0, 2),
            Message::new(
                Address::short(
                    ShortPrefix::new(0x2).expect("alarm root prefix"),
                    FuId::ZERO,
                ),
                vec![0xFF],
            ),
        )
    }

    /// Aggregate-and-ack fan-in at fleet scale (§6.3's aggregation
    /// shape, closed-loop): every round, each non-collector cluster's
    /// sensor reports cross-cluster to the collector (cluster 0's
    /// sensor 1, [`NodeBehavior::AggregateAck`]), embedding its return
    /// address; the collector acks every `every`-th report back
    /// through the mesh to the reporter that crossed the threshold.
    /// The fleet splits into two mesh domains at the midpoint.
    ///
    /// # Panics
    ///
    /// Panics unless `clusters >= 3` and `every >= 1`.
    pub fn aggregate_fanin(clusters: usize, every: u32, rounds: usize) -> FleetWorkload {
        assert!(clusters >= 3, "a fan-in needs at least three clusters");
        assert!(every >= 1, "ack every >= 1 reports");
        let half = clusters / 2;
        let mut w = FleetWorkload::new(
            format!("fleet_agg_fanin/{clusters}e{every}r{rounds}"),
            BusConfig::default(),
        );
        for c in 0..clusters {
            w = w.cluster_in(usize::from(c >= half), vec![false]);
        }
        w = w
            .route(0, half, clusters - 1, half)
            .route(1, 0, half - 1, 0);
        let ack_fu = FuId::new(0x5).expect("ack fu");
        w = w.behavior(
            FleetNodeId::new(0, 1),
            NodeBehavior::AggregateAck {
                n: every,
                fu: ack_fu,
                payload: vec![0xCC],
            },
        );
        let collector = FleetNodeId::new(0, 1);
        for round in 0..rounds {
            for c in 1..clusters {
                let report = behavior::with_return_address(
                    sensor_full_prefix(c, 1),
                    ack_fu,
                    &[round as u8, c as u8],
                );
                w = w.send_remote(FleetNodeId::new(c, 1), collector, FuId::ZERO, report);
            }
            w = w.drain();
        }
        w
    }

    /// A seeded random fleet workload — [`crate::scenario::Workload::seeded`]
    /// lifted to bridged buses: cluster count, sensor counts,
    /// power-awareness, local and *cross-cluster* destinations,
    /// priority envelopes, wakeups, drain points, *unroutable
    /// envelopes* (well-formed headers whose prefix routes nowhere, so
    /// the gateway's per-cluster drop accounting is exercised), and
    /// mid-epoch partial drains ([`FleetStep::RunRounds`], which make
    /// the seed non-wire-comparable), plus *reactive behaviors* on
    /// ~1/6 of the sensors, a two-domain mesh split (with mutual range
    /// routes) on ~1/3 of the seeds, and explicit tight-TTL envelopes
    /// all come from one [`mbus_sim::SmallRng`] stream, so every seed
    /// is a reproducible closed-loop multi-bus scenario exercising the
    /// gateway and mesh paths.
    pub fn seeded(seed: u64) -> FleetWorkload {
        let mut rng = mbus_sim::SmallRng::seed_from_u64(seed);
        let clusters = rng.gen_index(2..5);
        let mut w = FleetWorkload::new(format!("fleet_seeded/{seed}"), BusConfig::default());
        // About a third of the seeds split the fleet into two mesh
        // domains bridged by mutual range routes, so cross-domain
        // traffic (and unroutable envelopes that chase a route before
        // dying) exercises the multi-hop path.
        let split = if rng.gen_index(0..3) == 0 {
            1 + rng.gen_index(0..clusters - 1)
        } else {
            clusters
        };
        let mut gated: Vec<Vec<bool>> = Vec::with_capacity(clusters);
        for c in 0..clusters {
            let sensors = rng.gen_index(1..5);
            let flags: Vec<bool> = (0..sensors).map(|_| rng.gen_index(0..3) == 0).collect();
            gated.push(flags.clone());
            w = w.cluster_in(usize::from(c >= split), flags);
        }
        if split < clusters {
            w = w
                .route(0, split, clusters - 1, split)
                .route(1, 0, split - 1, 0);
        }
        let mut gated_tx = false;
        // Sprinkle reactive behaviors over ~1/6 of the sensors, so
        // seeded fleets carry closed-loop traffic.
        for (c, flags) in gated.iter().enumerate() {
            for j in 1..=flags.len() {
                if rng.gen_index(0..6) != 0 {
                    continue;
                }
                let fu = FuId::new(rng.gen_index(0..16) as u8).expect("4-bit fu");
                let payload_len = 1 + rng.gen_index(0..3);
                let payload = rng.gen_bytes(payload_len);
                let b = match rng.gen_index(0..3) {
                    0 => NodeBehavior::Reply { fu, payload },
                    1 => NodeBehavior::AggregateAck {
                        n: (1 + rng.gen_index(0..3)) as u32,
                        fu,
                        payload,
                    },
                    _ => NodeBehavior::AlarmCascade {
                        fanout: (1 + rng.gen_index(0..2)) as u8,
                        fu,
                        payload,
                    },
                };
                // Responders transmit; a gated responder needs
                // self-wake nulls on the wire engine.
                gated_tx |= flags[j - 1];
                w = w.behavior(FleetNodeId::new(c, j), b);
            }
        }
        let pick_sensor = |rng: &mut mbus_sim::SmallRng, gated: &[Vec<bool>]| {
            let c = rng.gen_index(0..gated.len());
            let j = 1 + rng.gen_index(0..gated[c].len());
            FleetNodeId::new(c, j)
        };
        let steps = 4 + rng.gen_index(0..24);
        for _ in 0..steps {
            match rng.gen_index(0..10) {
                0..=2 => {
                    // Cluster-local traffic.
                    let src = pick_sensor(&mut rng, &gated);
                    gated_tx |= gated[src.cluster][src.node - 1];
                    let dest = 1 + rng.gen_index(0..gated[src.cluster].len());
                    let len = rng.gen_index(1..9);
                    let mut msg = Message::new(
                        Address::short(
                            ShortPrefix::new((dest + 1) as u8).expect("sensor prefix"),
                            FuId::ZERO,
                        ),
                        rng.gen_bytes(len),
                    );
                    if rng.gen_index(0..5) == 0 {
                        msg = msg.with_priority();
                    }
                    w = w.send_local(src, msg);
                }
                3..=5 => {
                    // Cross-cluster traffic through the gateway.
                    let src = pick_sensor(&mut rng, &gated);
                    gated_tx |= gated[src.cluster][src.node - 1];
                    let dest = pick_sensor(&mut rng, &gated);
                    let len = rng.gen_index(1..9);
                    let payload = rng.gen_bytes(len);
                    w = if rng.gen_index(0..5) == 0 {
                        w.send_remote_priority(src, dest, FuId::ZERO, payload)
                    } else if rng.gen_index(0..4) == 0 {
                        // A v2 envelope with a tight explicit TTL: a
                        // cross-domain pick may exhaust it mid-mesh,
                        // exercising per-hop TTL-drop attribution.
                        let ttl = (1 + rng.gen_index(0..4)) as u8;
                        w.send_remote_ttl(src, dest, FuId::ZERO, payload, ttl)
                    } else {
                        w.send_remote(src, dest, FuId::ZERO, payload)
                    };
                }
                6 => {
                    let node = pick_sensor(&mut rng, &gated);
                    w = w.wakeup(node);
                }
                7 => {
                    // A well-formed envelope whose destination prefix
                    // routes nowhere: slot 0xE of any cluster's
                    // 16-prefix block is never allocated (sensors take
                    // slots 0x1..=0xD, the gateway takes 0xF — see
                    // MAX_CLUSTERS), so it is unroutable in every
                    // legal fleet. The gateway must count a
                    // per-cluster drop, and every engine must agree
                    // where it vanished.
                    let src = pick_sensor(&mut rng, &gated);
                    gated_tx |= gated[src.cluster][src.node - 1];
                    // Half the hints land near the fleet's own cluster
                    // indices, so on meshed seeds the doomed envelope
                    // chases a range route first and the drop lands on
                    // the *far* hop.
                    let hint = if rng.gen_index(0..2) == 0 {
                        rng.gen_index(0..MAX_CLUSTERS)
                    } else {
                        rng.gen_index(0..gated.len() * 2)
                    };
                    let prefix = FullPrefix::new(((hint as u32) << 4) | 0xE)
                        .expect("unroutable slot fits 20 bits");
                    let len = rng.gen_index(0..5);
                    let envelope = envelope_message(prefix, FuId::ZERO, rng.gen_bytes(len), None);
                    w = w.send_local(src, envelope);
                }
                8 => {
                    // Fleet-level mid-epoch queueing: stop after a few
                    // rounds so later sends land on part-drained buses.
                    w = w.drain_rounds(1 + rng.gen_index(0..3));
                }
                _ => w = w.drain(),
            }
        }
        w = w.drain();
        if gated_tx {
            w = w.allow_wake_nulls();
        }
        w
    }
}

/// Behavior-settle bookkeeping for one [`FleetWorkload`] apply: which
/// behavior nodes a settle round must visit, and what they collected.
///
/// Behavior nodes get dense slots in `(cluster, node)` order: a
/// node's slot is its cluster's first slot plus its rank among that
/// cluster's behavior nodes.
#[derive(Debug)]
struct SettleState<'w> {
    /// Per cluster: its behavior nodes.
    masks: Vec<NodeSet>,
    /// Per cluster: the slot of its first behavior node.
    first_slot: Vec<usize>,
    /// By slot: the node's behavior.
    behaviors: Vec<&'w NodeBehavior>,
    /// By slot: deliveries settle drained, in delivery order.
    collected: Vec<Vec<ReceivedMessage>>,
    /// By slot: the aggregate-ack trigger counter.
    agg_seen: Vec<u32>,
    /// Per cluster: behavior nodes the next visit drains.
    marked: Vec<NodeSet>,
    /// Clusters with a non-empty `marked` entry.
    marked_clusters: ClusterSet,
    /// Records before this index have been marked; `None` until the
    /// apply's first visit.
    cursor: Option<usize>,
    injected: u64,
    rounds: u64,
    /// Behavior nodes visited, one entry per settle round.
    #[cfg(test)]
    visits: Vec<u64>,
}

impl<'w> SettleState<'w> {
    fn new(workload: &'w FleetWorkload) -> Self {
        let clusters = workload.clusters.len();
        let mut masks = vec![NodeSet::new(); clusters];
        let mut behaviors = Vec::with_capacity(workload.behaviors.len());
        for (id, b) in &workload.behaviors {
            masks[id.cluster].insert(id.node);
            behaviors.push(b);
        }
        let first_slot = masks
            .iter()
            .scan(0, |next, mask| {
                let first = *next;
                *next += mask.len();
                Some(first)
            })
            .collect();
        SettleState {
            masks,
            first_slot,
            collected: vec![Vec::new(); behaviors.len()],
            agg_seen: vec![0; behaviors.len()],
            behaviors,
            marked: vec![NodeSet::new(); clusters],
            marked_clusters: ClusterSet::default(),
            cursor: None,
            injected: 0,
            rounds: 0,
            #[cfg(test)]
            visits: Vec::new(),
        }
    }

    /// The slot of behavior node `id`.
    fn slot(&self, id: FleetNodeId) -> usize {
        let rank = self.masks[id.cluster]
            .iter()
            .take_while(|&node| node < id.node)
            .count();
        self.first_slot[id.cluster] + rank
    }

    /// Marks the behavior nodes the next visit drains: every one on
    /// the apply's first visit, then those named by the records since
    /// the last mark.
    fn mark(&mut self, records: &[FleetRecord]) {
        match self.cursor {
            None => {
                self.marked.clone_from(&self.masks);
                for (cluster, mask) in self.masks.iter().enumerate() {
                    if !mask.is_empty() {
                        self.marked_clusters.insert(cluster);
                    }
                }
            }
            Some(cursor) => {
                for r in &records[cursor..] {
                    let hit = r.record.delivered_to.intersection(self.masks[r.cluster]);
                    if !hit.is_empty() {
                        self.marked[r.cluster] = self.marked[r.cluster].union(hit);
                        self.marked_clusters.insert(r.cluster);
                    }
                }
            }
        }
        self.cursor = Some(records.len());
    }

    /// Removes and returns what settle collected for node `id` (empty
    /// for a node without a behavior).
    fn take_collected(&mut self, id: FleetNodeId) -> Vec<ReceivedMessage> {
        if !self.masks[id.cluster].contains(id.node) {
            return Vec::new();
        }
        let slot = self.slot(id);
        std::mem::take(&mut self.collected[slot])
    }

    /// Checks the visit-set claim: after a visit, no behavior node's
    /// receive log holds anything.
    #[cfg(debug_assertions)]
    fn assert_drained(&self, fleet: &mut Fleet) {
        let mut left = Vec::new();
        for (cluster, mask) in self.masks.iter().enumerate() {
            for node in mask.iter() {
                let id = FleetNodeId::new(cluster, node);
                fleet.drain_rx(id, &mut left);
                assert!(
                    left.is_empty(),
                    "settle skipped behavior node {id} with deliveries"
                );
            }
        }
    }
}

/// Everything observable from one fleet workload execution on one
/// engine kind.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// The workload's name.
    pub workload: String,
    /// Which engine kind every cluster ran.
    pub kind: EngineKind,
    /// The fleet-wide record stream, in scheduler order.
    pub records: Vec<FleetRecord>,
    /// Drained receive logs, indexed `[cluster][node]`.
    pub rx: Vec<Vec<Vec<ReceivedMessage>>>,
    /// Final per-cluster statistics.
    pub stats: Vec<BusStats>,
    /// Self-wake event counts, indexed `[cluster][node]`.
    pub wake_events: Vec<Vec<u64>>,
    /// Envelopes the gateway forwarded.
    pub forwarded: u64,
    /// Envelopes the gateway dropped.
    pub dropped: u64,
    /// Malformed/unroutable drops broken down by the cluster whose
    /// gateway presence held the doomed envelope, one entry per
    /// cluster.
    pub cluster_drops: Vec<u64>,
    /// Inter-gateway mesh hops taken by envelopes chasing
    /// [`MeshRoute`]s (terminal forwarded legs count in `forwarded`).
    pub hop_forwards: u64,
    /// TTL-exhaustion drops attributed to the hop (cluster) where the
    /// TTL ran out, one entry per cluster.
    pub ttl_drops: Vec<u64>,
    /// Reply messages the behavior layer injected at drain barriers.
    /// A reporting gauge (like `fairness`): identical across engines
    /// and schedules, but deliberately not part of [`FleetSignature`]
    /// — the signature pins the resulting *traffic* instead.
    pub injected_replies: u64,
    /// Reply-injection rounds run across all drain barriers — the
    /// deliveries-to-quiescence latency gauge of the closed loop.
    /// Reporting only, like `injected_replies`.
    pub reply_rounds: u64,
    /// Scheduler fairness counters — `Some` for every
    /// [`FleetWorkload`] apply, whatever its schedule.
    /// Reporting only: not part of [`FleetSignature`] (the turn-gap
    /// gauge is schedule-dependent by design).
    pub fairness: Option<FleetFairness>,
    strict_nulls: bool,
}

/// Per-cluster fairness and starvation counters from an interleaved or
/// sharded fleet drain — the serving-quality view of a schedule: did
/// every bus make progress, and how long did any bus wait for its
/// turn?
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetFairness {
    /// Transactions each cluster ran, indexed by cluster. Equal across
    /// schedules (per-cluster streams are schedule-independent).
    pub cluster_transactions: Vec<u64>,
    /// The starvation gauge: the most transactions that ran between
    /// two consecutive turns of one cluster, measured within a
    /// scheduler's own rotation (per shard, for a sharded drain).
    pub max_turn_gap: u64,
    /// The hog gauge: the most transactions any single cluster ran
    /// within one epoch.
    pub max_cluster_epoch_transactions: u64,
    /// Progress epochs the drain completed: the global barrier count
    /// (see [`ShardedFleet::epochs`]).
    pub epochs: u64,
    /// Transactions each shard's scheduler ran, indexed by shard —
    /// the load-balance view of a sharded drain. An interleaved drain
    /// is one shard, so it carries one entry. Deterministic: cluster
    /// `c` runs on shard `c % shards`, so entry `s` sums
    /// [`cluster_transactions`](Self::cluster_transactions) over
    /// those clusters.
    pub shard_transactions: Vec<u64>,
    /// Wall-clock nanoseconds each shard spent inside its epoch
    /// bodies, summed across epochs, indexed by shard — the barrier
    /// idle time is the spread between entries. One entry for an
    /// interleaved drain. **Not** deterministic: a timing gauge,
    /// excluded (like all of [`FleetFairness`]) from
    /// [`FleetSignature`].
    pub shard_wall_nanos: Vec<u64>,
}

impl FleetFairness {
    /// Busiest-to-idlest shard wall-time ratio — how much of the
    /// barrier interval the idlest worker spent waiting. `1.0` for
    /// single-threaded drains, perfectly balanced shards, or when any
    /// shard recorded zero wall time (degenerate epochs too short to
    /// measure).
    pub fn shard_imbalance(&self) -> f64 {
        let max = self.shard_wall_nanos.iter().copied().max().unwrap_or(0);
        let min = self.shard_wall_nanos.iter().copied().min().unwrap_or(0);
        if min == 0 {
            1.0
        } else {
            max as f64 / min as f64
        }
    }
}

impl FleetReport {
    /// The engine-independent essence of this run; compare with
    /// `assert_eq!` across engine kinds.
    ///
    /// Two passes over the records (count, then fill) bucket borrowed
    /// records by cluster, ignoring clusters outside
    /// [`FleetReport::rx`], in O(records + nodes); nothing is copied.
    pub fn signature(&self) -> FleetSignature<'_> {
        FleetSignature {
            clusters: bus_signatures(
                self.records.iter().map(|r| (r.cluster, &r.record)),
                &self.rx,
                &self.wake_events,
                &self.stats,
                self.strict_nulls,
            ),
            forwarded: self.forwarded,
            dropped: self.dropped,
            cluster_drops: &self.cluster_drops,
            hop_forwards: self.hop_forwards,
            ttl_drops: &self.ttl_drops,
        }
    }

    /// Total bus-clock cycles across every cluster's records.
    pub fn total_cycles(&self) -> u64 {
        self.records.iter().map(|r| r.record.cycles).sum()
    }

    /// Total transactions across the fleet.
    pub fn transactions(&self) -> usize {
        self.records.len()
    }

    /// Total messages delivered to any layer anywhere in the fleet
    /// (envelope legs consumed by the gateway are not counted).
    pub fn delivered_messages(&self) -> usize {
        self.rx
            .iter()
            .map(|cluster| cluster.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Total ring positions across the fleet.
    pub fn total_nodes(&self) -> usize {
        self.rx.iter().map(Vec::len).sum()
    }
}

/// What two engine kinds must agree on for one fleet workload, borrowed
/// from its report: a per-cluster [`ScenarioSignature`] (records,
/// deliveries, wakes) plus the gateway's forwarding counters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FleetSignature<'r> {
    /// One single-bus signature per cluster, in cluster order.
    pub clusters: Vec<ScenarioSignature<'r>>,
    /// Envelopes forwarded by the gateway.
    pub forwarded: u64,
    /// Envelopes dropped by the gateway.
    pub dropped: u64,
    /// Malformed/unroutable drops attributed to the receiving gateway
    /// presence, one entry per cluster — engines (and schedules) must
    /// agree not just on how many envelopes vanished but on *which
    /// bus* they vanished from.
    pub cluster_drops: &'r [u64],
    /// Inter-gateway mesh hops taken chasing [`MeshRoute`]s.
    pub hop_forwards: u64,
    /// TTL-exhaustion drops attributed to the hop where the TTL ran
    /// out, one entry per cluster.
    pub ttl_drops: &'r [u64],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_fleet(kind: EngineKind) -> (Fleet, FleetNodeId, FleetNodeId) {
        let mut fleet = Fleet::new(kind, BusConfig::default());
        let a = fleet.add_cluster();
        let b = fleet.add_cluster();
        let src = fleet.add_sensor(a, false);
        let dst = fleet.add_sensor(b, false);
        (fleet, src, dst)
    }

    #[test]
    fn envelope_round_trip() {
        let dest = FullPrefix::new(0x00205).unwrap();
        let fu = FuId::new(0x3).unwrap();
        let bytes = GatewayNode::encapsulate(dest, fu, &[1, 2, 3]);
        assert_eq!(bytes.len(), 4 + 3);
        let (p, f, ttl, hops, inner) = GatewayNode::open(&bytes).unwrap();
        assert_eq!((p, f, ttl, hops), (dest, fu, DEFAULT_TTL, 0));
        assert_eq!(inner, [1, 2, 3]);
        assert!(GatewayNode::open(&[0xF0]).is_none());
        assert!(GatewayNode::open(&[0x12, 0x34, 0x56, 0x78]).is_none());
    }

    #[test]
    fn cross_cluster_delivery_on_both_kinds() {
        for kind in EngineKind::ALL {
            let (mut fleet, src, dst) = two_cluster_fleet(kind);
            fleet
                .queue_remote(src, dst, FuId::ZERO, vec![0xAB, 0xCD])
                .unwrap();
            let records = fleet.run_until_quiescent();
            // Envelope leg on cluster 0, forwarded leg on cluster 1.
            assert_eq!(records.len(), 2, "{kind}");
            assert_eq!(records[0].cluster, 0, "{kind}");
            assert_eq!(records[1].cluster, 1, "{kind}");
            assert_eq!(fleet.gateway().forwarded(), 1, "{kind}");
            assert_eq!(fleet.gateway().dropped(), 0, "{kind}");
            let rx = fleet.take_rx(dst);
            assert_eq!(rx.len(), 1, "{kind}");
            assert_eq!(rx[0].payload, vec![0xAB, 0xCD], "{kind}");
            assert_eq!(rx[0].from, GATEWAY_NODE, "{kind}: forwarded by the gateway");
        }
    }

    #[test]
    fn routing_table_covers_every_node() {
        let (fleet, src, dst) = two_cluster_fleet(EngineKind::Analytic);
        // 2 gateway presences + 2 sensors.
        assert_eq!(fleet.gateway().route_count(), 4);
        assert_eq!(
            fleet.gateway().route(fleet.spec(src).full_prefix()),
            Some(0)
        );
        assert_eq!(
            fleet.gateway().route(fleet.spec(dst).full_prefix()),
            Some(1)
        );
        assert_eq!(
            fleet.gateway().route(FullPrefix::new(0xBEEF).unwrap()),
            None
        );

        // Exhaustive: an empty cluster, a full one, and a cluster in a
        // second mesh domain. Across the whole 20-bit prefix space,
        // exactly the prefixes some node holds route, each to its
        // node's cluster.
        let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
        fleet.add_cluster();
        let full = fleet.add_cluster();
        for _ in 0..MAX_SENSORS_PER_CLUSTER {
            fleet.add_sensor(full, true);
        }
        let remote = fleet.add_cluster_in_domain(1);
        fleet.add_sensor(remote, false);
        fleet.add_sensor(remote, true);
        let mut owner = vec![None; 1 << 20];
        for cluster in 0..fleet.cluster_count() {
            for node in 0..fleet.clusters[cluster].node_count() {
                let prefix = fleet.spec(FleetNodeId::new(cluster, node)).full_prefix();
                owner[prefix.raw() as usize] = Some(cluster);
            }
        }
        assert_eq!(owner.iter().flatten().count(), fleet.total_nodes());
        for (raw, &want) in owner.iter().enumerate() {
            let prefix = FullPrefix::new(raw as u32).unwrap();
            assert_eq!(fleet.gateway().route(prefix), want, "prefix {prefix}");
        }
        assert_eq!(fleet.gateway().route_count(), fleet.total_nodes());
    }

    #[test]
    fn unroutable_and_malformed_envelopes_drop_identically_on_both_kinds() {
        for kind in EngineKind::ALL {
            let (mut fleet, src, _) = two_cluster_fleet(kind);
            // An envelope to a prefix nobody owns passes the queue-time
            // shape check (it decodes) and is dropped at the routing
            // barrier with per-cluster attribution.
            let unroutable =
                GatewayNode::encapsulate(FullPrefix::new(0xBEEF).unwrap(), FuId::ZERO, &[9]);
            let forward_port = Address::short(gateway_short_prefix(), GATEWAY_FORWARD_FU);
            fleet
                .queue(src, Message::new(forward_port, unroutable))
                .unwrap();
            // A header too short to be a full address can no longer be
            // queued through the fleet; push it straight onto the
            // engine to model traffic that arrives anyway — the drop
            // accounting safety net must still catch it.
            fleet.clusters[src.cluster]
                .queue(src.node, Message::new(forward_port, vec![0xF0]))
                .unwrap();
            let records = fleet.run_until_quiescent();
            assert_eq!(records.len(), 2, "{kind}: both envelope legs ran");
            assert_eq!(fleet.gateway().forwarded(), 0, "{kind}");
            assert_eq!(fleet.gateway().dropped(), 2, "{kind}");
            assert_eq!(fleet.gateway().dropped_on(0), 2, "{kind}");
            assert_eq!(fleet.gateway().dropped_on(1), 0, "{kind}");
            assert_eq!(fleet.gateway().cluster_drops(), &[2], "{kind}");
        }
    }

    #[test]
    fn queue_rejects_unknown_clusters_without_panicking() {
        // The port check builds the gateway's full prefix for the
        // source cluster; an out-of-range cluster index must surface
        // as UnknownCluster (the documented contract), not as a panic
        // in the prefix constructor — even at or past MAX_CLUSTERS,
        // where (cluster << 4) | 0xF would overflow the 20-bit prefix
        // field.
        let (mut fleet, _, _) = two_cluster_fleet(EngineKind::Analytic);
        for cluster in [2usize, MAX_CLUSTERS, 0x10000] {
            for dest in [
                Address::full(FullPrefix::new(0x123).unwrap(), FuId::ZERO),
                Address::short(gateway_short_prefix(), GATEWAY_FORWARD_FU),
            ] {
                assert!(matches!(
                    fleet.queue(FleetNodeId::new(cluster, 1), Message::new(dest, vec![1])),
                    Err(MbusError::UnknownCluster { index }) if index == cluster
                ));
            }
        }
    }

    #[test]
    fn forwarding_port_rejects_non_envelope_traffic() {
        // The headline aliasing regression: pre-fix, an ordinary local
        // message to the gateway's fu 0 was accepted by `queue` and
        // silently counted dropped at the barrier — or mis-forwarded
        // if its payload happened to decode as a full address. The
        // port is now reserved: non-envelope payloads are rejected
        // with a typed error at queue time.
        for kind in EngineKind::ALL {
            let (mut fleet, src, dst) = two_cluster_fleet(kind);

            // (1) A payload that does NOT decode as an envelope header:
            // rejected up front, nothing queued, nothing dropped.
            let forward_port = Address::short(gateway_short_prefix(), GATEWAY_FORWARD_FU);
            assert!(
                matches!(
                    fleet.queue(src, Message::new(forward_port, vec![0x11, 0x22])),
                    Err(MbusError::ReservedForwardingPort)
                ),
                "{kind}"
            );
            // The full-address form of the same port is equally
            // reserved.
            let full_port = Address::full(gateway_full_prefix(0), GATEWAY_FORWARD_FU);
            assert!(
                matches!(
                    fleet.queue(src, Message::new(full_port, vec![0x11, 0x22])),
                    Err(MbusError::ReservedForwardingPort)
                ),
                "{kind}"
            );
            assert_eq!(fleet.run_until_quiescent().len(), 0, "{kind}");
            assert_eq!(
                fleet.gateway().dropped(),
                0,
                "{kind}: rejected, not dropped"
            );

            // (2) A payload that *accidentally* decodes as a full
            // address is indistinguishable from an envelope, so it IS
            // one by definition: these bytes equal
            // `encapsulate(dst, fu 0, [0x42])` and are forwarded to
            // the decoded destination — defined envelope semantics,
            // never a local fu-0 delivery.
            let accidental = {
                let mut bytes = Address::full(fleet.spec(dst).full_prefix(), GATEWAY_FORWARD_FU)
                    .encode()
                    .to_vec();
                bytes.push(0x42);
                bytes
            };
            fleet
                .queue(src, Message::new(forward_port, accidental))
                .unwrap();
            fleet.run_until_quiescent();
            assert_eq!(fleet.gateway().forwarded(), 1, "{kind}");
            assert_eq!(fleet.gateway().dropped(), 0, "{kind}");
            let rx = fleet.take_rx(dst);
            assert_eq!(rx.len(), 1, "{kind}: delivered as a forwarded leg");
            assert_eq!(rx[0].payload, vec![0x42], "{kind}");
            assert!(
                fleet.take_rx(FleetNodeId::new(0, GATEWAY_NODE)).is_empty(),
                "{kind}: nothing aliased into the gateway's local rx"
            );
        }
    }

    #[test]
    fn remote_message_validation() {
        let (fleet, _, dst) = two_cluster_fleet(EngineKind::Analytic);
        assert!(matches!(
            fleet.remote_message(FleetNodeId::new(9, 1), FuId::ZERO, vec![]),
            Err(MbusError::UnknownCluster { index: 9 })
        ));
        assert!(matches!(
            fleet.remote_message(FleetNodeId::new(1, 7), FuId::ZERO, vec![]),
            Err(MbusError::UnknownNode { index: 7 })
        ));
        assert!(matches!(
            fleet.remote_message(
                FleetNodeId::new(1, GATEWAY_NODE),
                GATEWAY_FORWARD_FU,
                vec![]
            ),
            Err(MbusError::MalformedAddress { .. })
        ));
        // Gateway fu != 0 is a legal remote destination.
        assert!(fleet
            .remote_message(
                FleetNodeId::new(1, GATEWAY_NODE),
                FuId::new(1).unwrap(),
                vec![]
            )
            .is_ok());
        // Envelope header pushes an exactly-max payload over the limit.
        let max = fleet.config().max_message_bytes();
        assert!(matches!(
            fleet.remote_message(dst, FuId::ZERO, vec![0; max - 3]),
            Err(MbusError::MessageTooLong { .. })
        ));
        assert!(fleet
            .remote_message(dst, FuId::ZERO, vec![0; max - 4])
            .is_ok());
    }

    #[test]
    fn gateway_local_fu_traffic_reaches_take_rx() {
        let (mut fleet, src, _) = two_cluster_fleet(EngineKind::Analytic);
        fleet
            .queue(
                src,
                Message::new(
                    Address::short(gateway_short_prefix(), FuId::new(0x2).unwrap()),
                    vec![0x11],
                ),
            )
            .unwrap();
        fleet.run_until_quiescent();
        let rx = fleet.take_rx(FleetNodeId::new(0, GATEWAY_NODE));
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].payload, vec![0x11]);
        assert_eq!(fleet.gateway().forwarded(), 0);
        assert_eq!(fleet.gateway().dropped(), 0);
    }

    #[test]
    fn population_scales_past_the_single_bus_limit() {
        let w = FleetWorkload::sense_and_aggregate(16, 13, 1);
        assert_eq!(w.total_nodes(), 16 * 14);
        assert!(w.total_nodes() > ShortPrefix::USABLE);
        let report = w.run_on(EngineKind::Analytic);
        assert_eq!(report.total_nodes(), 224);
        assert_eq!(report.forwarded, 16, "one aggregate per cluster");
        assert_eq!(report.dropped, 0);
    }

    #[test]
    fn fleet_workload_is_deterministic() {
        for seed in [0u64, 3, 17] {
            let w = FleetWorkload::seeded(seed);
            let a = w.run_on(EngineKind::Analytic);
            let b = w.run_on(EngineKind::Analytic);
            assert_eq!(a.signature(), b.signature(), "seed {seed}");
        }
    }

    #[test]
    fn cross_storm_signature_matches_across_engines() {
        let w = FleetWorkload::cross_storm(3, 3, 2);
        let analytic = w.run_on(EngineKind::Analytic);
        let wire = w.run_on(EngineKind::Wire);
        assert_eq!(analytic.signature(), wire.signature());
        assert!(analytic.forwarded > 0);
    }

    #[test]
    fn apply_rejects_mismatched_topology() {
        // Transposed cluster shapes with the same total node count.
        let w = FleetWorkload::new("shape", BusConfig::default())
            .cluster(vec![false, false, false])
            .cluster(vec![false]);
        let mut transposed = Fleet::new(EngineKind::Analytic, BusConfig::default());
        let a = transposed.add_cluster();
        let b = transposed.add_cluster();
        transposed.add_sensor(a, false);
        for _ in 0..3 {
            transposed.add_sensor(b, false);
        }
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.apply(&mut transposed)
        }))
        .is_err());

        // Right shape, wrong power-awareness.
        let w2 = FleetWorkload::new("power", BusConfig::default()).cluster(vec![true]);
        let mut wrong_power = Fleet::new(EngineKind::Analytic, BusConfig::default());
        let c = wrong_power.add_cluster();
        wrong_power.add_sensor(c, false);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w2.apply(&mut wrong_power)
        }))
        .is_err());
    }

    #[test]
    fn interleaved_scheduler_counters_accumulate() {
        let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
        let (a, b) = (fleet.add_cluster(), fleet.add_cluster());
        let src = fleet.add_sensor(a, false);
        let dst = fleet.add_sensor(b, false);
        fleet.queue_remote(src, dst, FuId::ZERO, vec![1]).unwrap();
        let mut interleaved = ShardedFleet::new(1);
        let mut n = 0u64;
        interleaved.drive(&mut fleet, &mut |_| n += 1);
        assert_eq!(n, 2, "envelope leg + forwarded leg");
        // Epoch 1 runs the envelope and routes; epoch 2 runs the
        // forwarded leg, and with nothing forwarded the drive ends.
        assert_eq!(interleaved.epochs(), 2);
        let scheduler = &interleaved.shard_schedulers()[0];
        assert_eq!(scheduler.transactions(), 2);
        assert_eq!(scheduler.cluster_transactions(), &[1, 1]);
        assert_eq!(fleet.take_rx(dst).len(), 1);
    }

    #[test]
    fn v2_envelope_round_trip_and_v1_fallback() {
        let dest = FullPrefix::new(0x00205).unwrap();
        let fu = FuId::new(0x3).unwrap();
        // v2 header: magic, TTL/hops byte, 4-byte address, payload.
        let bytes = GatewayNode::encapsulate_ttl(dest, fu, &[7, 8], 5);
        assert_eq!(bytes.len(), 6 + 2);
        assert_eq!(bytes[0], ENVELOPE_MAGIC);
        let (p, f, ttl, hops, inner) = GatewayNode::open(&bytes).unwrap();
        assert_eq!((p, f, ttl, hops), (dest, fu, 5, 0));
        assert_eq!(inner, [7, 8]);
        // v1 envelopes still open, defaulting the TTL budget.
        let v1 = GatewayNode::encapsulate(dest, fu, &[9]);
        let (p, f, ttl, hops, inner) = GatewayNode::open(&v1).unwrap();
        assert_eq!((p, f, ttl, hops), (dest, fu, DEFAULT_TTL, 0));
        assert_eq!(inner, [9]);
        // Truncated v2 headers are malformed, not panics.
        assert!(GatewayNode::open(&bytes[..5]).is_none());
        assert!(
            std::panic::catch_unwind(|| { GatewayNode::encapsulate_ttl(dest, fu, &[], 0) })
                .is_err()
        );
        assert!(std::panic::catch_unwind(|| {
            GatewayNode::encapsulate_ttl(dest, fu, &[], MAX_TTL + 1)
        })
        .is_err());
    }

    #[test]
    fn remote_message_ttl_validates_range() {
        let (fleet, _, dst) = two_cluster_fleet(EngineKind::Analytic);
        for bad in [0u8, MAX_TTL + 1] {
            assert!(
                matches!(
                    fleet.remote_message_ttl(dst, FuId::ZERO, vec![1], bad),
                    Err(MbusError::MalformedAddress { .. })
                ),
                "ttl {bad}"
            );
        }
        assert!(fleet
            .remote_message_ttl(dst, FuId::ZERO, vec![1], 1)
            .is_ok());
    }

    /// A bad remote step panics at its builder, with no fleet involved,
    /// instead of later inside apply.
    #[test]
    fn remote_steps_are_checked_when_built() {
        let w = || FleetWorkload::cross_storm(2, 1, 0);
        let (src, dst) = (FleetNodeId::new(0, 1), FleetNodeId::new(1, 1));
        let over = BusConfig::default().max_message_bytes() - 4 + 1;
        for (dest, fu, len) in [
            (FleetNodeId::new(2, 1), FuId::ZERO, 1), // undeclared cluster
            (FleetNodeId::new(1, 2), FuId::ZERO, 1), // past the ring
            (FleetNodeId::new(1, GATEWAY_NODE), GATEWAY_FORWARD_FU, 1),
            (dst, FuId::ZERO, over),
        ] {
            let built = std::panic::catch_unwind(|| w().send_remote(src, dest, fu, vec![0; len]));
            assert!(built.is_err(), "{dest} fu {fu} {len} bytes");
        }
        let ttl = std::panic::catch_unwind(|| w().send_remote_ttl(src, dst, FuId::ZERO, vec![], 0));
        assert!(ttl.is_err(), "ttl 0 was accepted");
        w().send_remote(src, dst, FuId::ZERO, vec![0; over - 1]);
    }

    /// Two domains bridged by one border gateway: an envelope from
    /// domain 0 to a cluster in domain 1 hops across the backhaul at
    /// the barrier, then forwards normally — per-hop accounting
    /// attributes the relay to the border cluster.
    #[test]
    fn mesh_route_forwards_across_domains() {
        for kind in EngineKind::ALL {
            let mut fleet = Fleet::new(kind, BusConfig::default());
            let a = fleet.add_cluster_in_domain(0);
            let b = fleet.add_cluster_in_domain(1);
            let c = fleet.add_cluster_in_domain(1);
            let src = fleet.add_sensor(a, false);
            fleet.add_sensor(b, false);
            let dst = fleet.add_sensor(c, false);
            // Domain 0 reaches domain-1 clusters through b's gateway.
            fleet.add_mesh_route(0, 1, 2, b);
            fleet
                .queue_remote(src, dst, FuId::ZERO, vec![0x5A])
                .unwrap();
            fleet.run_until_quiescent();
            assert_eq!(fleet.gateway().forwarded(), 1, "{kind}: terminal leg");
            assert_eq!(fleet.gateway().hop_forwards(), 1, "{kind}: one relay hop");
            assert_eq!(fleet.gateway().dropped(), 0, "{kind}");
            let rx = fleet.take_rx(dst);
            assert_eq!(rx.len(), 1, "{kind}");
            assert_eq!(rx[0].payload, vec![0x5A], "{kind}");
        }
    }

    /// The 2-gateway mesh cycle regression: mutual cross-domain routes
    /// whose target prefix nobody owns bounce the envelope between the
    /// two gateways until TTL exhaustion. Entry TTL 8 at cluster 0
    /// buys exactly 7 relay hops; the drop lands on cluster 1 and is
    /// attributed there — identically on every engine, schedule, and
    /// shard count.
    #[test]
    fn two_gateway_cycle_terminates_via_ttl() {
        // Slot 0xE is never allocated, so (1 << 4) | 0xE is
        // guaranteed-unroutable; its high bits hint toward cluster 1.
        let ghost = FullPrefix::new((1 << 4) | 0xE).unwrap();
        let envelope = GatewayNode::encapsulate_ttl(ghost, FuId::ZERO, &[0xDD], DEFAULT_TTL);
        let forward_port = Address::short(gateway_short_prefix(), GATEWAY_FORWARD_FU);
        let w = FleetWorkload::new("ttl_cycle", BusConfig::default())
            .cluster_in(0, vec![false])
            .cluster_in(1, vec![false])
            .route(0, 0, 1, 1)
            .route(1, 0, 1, 0)
            .send_local(FleetNodeId::new(0, 1), Message::new(forward_port, envelope))
            .drain();
        let mut reports = Vec::new();
        for kind in EngineKind::ALL {
            for schedule in [
                FleetSchedule::Interleaved,
                FleetSchedule::Sharded { shards: 2 },
            ] {
                let report = w.run_scheduled_on(kind, schedule);
                assert_eq!(report.forwarded, 0, "{kind} {schedule:?}");
                assert_eq!(report.hop_forwards, 7, "{kind} {schedule:?}");
                assert_eq!(report.dropped, 1, "{kind} {schedule:?}");
                assert_eq!(report.ttl_drops, vec![0, 1], "{kind} {schedule:?}");
                assert_eq!(report.cluster_drops, vec![0, 0], "{kind} {schedule:?}");
                reports.push(report);
            }
        }
        for report in &reports[1..] {
            let (sig, first) = (report.signature(), reports[0].signature());
            assert_eq!(sig, first, "cycle handling is grid-identical");
        }
    }

    /// A minimal closed loop: a gated responder answers a
    /// return-addressed request across clusters, identically on every
    /// engine.
    #[test]
    fn reply_behavior_closes_the_loop_across_engines() {
        let reply_fu = FuId::new(0x3).unwrap();
        let requester = FleetNodeId::new(0, 1);
        let responder = FleetNodeId::new(1, 1);
        let w = FleetWorkload::new("closed", BusConfig::default())
            .cluster(vec![false])
            .cluster(vec![false])
            .behavior(
                responder,
                NodeBehavior::Reply {
                    fu: reply_fu,
                    payload: vec![0xAC],
                },
            )
            .send_remote(
                requester,
                responder,
                FuId::new(0x2).unwrap(),
                behavior::with_return_address(sensor_full_prefix(0, 1), reply_fu, &[0x01]),
            )
            .drain();
        let mut reports = Vec::new();
        for kind in EngineKind::ALL {
            let report = w.run_on(kind);
            assert_eq!(report.injected_replies, 1, "{kind}");
            assert!(report.reply_rounds >= 1, "{kind}");
            // Request leg forwarded out, reply leg forwarded back.
            assert_eq!(report.forwarded, 2, "{kind}");
            reports.push(report);
        }
        assert_eq!(reports[0].signature(), reports[1].signature());
    }

    #[test]
    fn one_pass_signature_matches_per_cluster_filter() {
        // The definition the one-pass bucketing must reproduce: filter
        // the whole stream once per cluster, then renumber.
        fn per_cluster(report: &FleetReport) -> Vec<Vec<EngineRecord>> {
            (0..report.rx.len())
                .map(|c| {
                    report
                        .records
                        .iter()
                        .filter(|r| r.cluster == c)
                        .map(|r| &r.record)
                        .filter(|r| report.strict_nulls || !r.is_null())
                        .enumerate()
                        .map(|(i, r)| EngineRecord {
                            seq: i as u64,
                            ..*r
                        })
                        .collect()
                })
                .collect()
        }
        // That definition as a signature: the renumbered copies in place
        // of the borrowed records. It must compare and digest equal to
        // the report's own, so the digest numbers records by position.
        fn check(report: &FleetReport, sig: &FleetSignature, label: &str) {
            let want = per_cluster(report);
            let mut defined = sig.clone();
            for (cluster, records) in defined.clusters.iter_mut().zip(&want) {
                cluster.records = records.iter().collect();
            }
            assert_eq!(&defined, sig, "{label}");
            assert_eq!(
                crate::trace::fleet_digest(&defined),
                crate::trace::fleet_digest(sig),
                "{label}"
            );
        }
        // Power-gated senders on clusters 0 and 2, an empty cluster 1
        // (`cluster -`), local and cross-cluster traffic in one drain.
        let base = FleetWorkload::new("signature_buckets", BusConfig::default())
            .cluster(vec![false, true, true])
            .cluster(vec![])
            .cluster(vec![true, false])
            .send_local(
                FleetNodeId::new(0, 2),
                Message::new(
                    Address::short(ShortPrefix::new(0x2).unwrap(), FuId::ZERO),
                    vec![1],
                ),
            )
            .send_remote(
                FleetNodeId::new(2, 1),
                FleetNodeId::new(0, 1),
                FuId::ZERO,
                vec![2],
            )
            .send_remote(
                FleetNodeId::new(0, 3),
                FleetNodeId::new(2, 2),
                FuId::ZERO,
                vec![3],
            )
            .drain();
        for w in [base.clone(), base.allow_wake_nulls()] {
            for kind in EngineKind::ALL {
                let label = format!("{kind}, strict_nulls {}", w.strict_nulls());
                let report = w.run_scheduled_on(kind, FleetSchedule::Interleaved);
                let clusters: Vec<usize> = report.records.iter().map(|r| r.cluster).collect();
                assert!(
                    clusters.windows(3).any(|t| t[0] == t[2] && t[0] != t[1]),
                    "{label}: stream interleaves clusters: {clusters:?}"
                );
                let sig = report.signature();
                assert_eq!(sig.clusters.len(), 3, "{label}");
                assert!(sig.clusters[1].records.is_empty(), "{label}");
                if kind == EngineKind::Wire {
                    assert!(
                        report.records.iter().any(|r| r.record.is_null()),
                        "{label}: gated senders self-wake with nulls"
                    );
                    // Dropping those nulls leaves stored `seq`s that
                    // are not positions: renumbering shows in `check`.
                    let renumbered = (sig.clusters.iter())
                        .any(|c| c.records.iter().enumerate().any(|(i, r)| r.seq != i as u64));
                    assert_eq!(renumbered, !report.strict_nulls, "{label}");
                }
                check(&report, &sig, &label);
                // `records` is public: a record naming a cluster the
                // report does not have is ignored, not a panic.
                let stray = FleetRecord {
                    cluster: report.rx.len(),
                    record: report.records[0].record,
                };
                let mut strayed = report.clone();
                strayed.records.insert(1, stray);
                assert_eq!(strayed.signature(), sig, "{label}: out-of-range record");
                check(&strayed, &strayed.signature(), &label);
            }
        }
    }

    #[test]
    fn topology_builders_are_bounded() {
        assert!(std::panic::catch_unwind(|| FleetWorkload::cross_storm(1, 3, 1)).is_err());
        assert!(std::panic::catch_unwind(|| FleetWorkload::sense_and_aggregate(2, 14, 1)).is_err());
        let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
        let c = fleet.add_cluster();
        for _ in 0..MAX_SENSORS_PER_CLUSTER {
            fleet.add_sensor(c, false);
        }
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fleet.add_sensor(c, false)
        }))
        .is_err());
    }

    #[test]
    fn settle_visits_scale_with_deliveries_not_fleet_size() {
        // One request/reply exchange across the mesh, on an 8-cluster
        // and a 4096-cluster fleet with a `Reply` behavior on every
        // responder cluster. A leading drain makes the apply's first
        // settle visit (every behavior node) before any traffic; after
        // it, each round visits only the nodes the records delivered
        // to: the responder, then nobody.
        let counts: Vec<(Vec<u64>, u64, u64)> = [8, 4096]
            .into_iter()
            .map(|clusters| {
                let half = clusters / 2;
                let reply_fu = FuId::new(0x3).unwrap();
                let mut w = FleetWorkload::new("settle/visits", BusConfig::default());
                for c in 0..clusters {
                    w = w.cluster_in(usize::from(c >= half), vec![false]);
                }
                w = w
                    .route(0, half, clusters - 1, half)
                    .route(1, 0, half - 1, 0);
                for c in half..clusters {
                    w = w.behavior(
                        FleetNodeId::new(c, 1),
                        NodeBehavior::Reply {
                            fu: reply_fu,
                            payload: vec![0xAC],
                        },
                    );
                }
                let requester = FleetNodeId::new(1, 1);
                let request =
                    behavior::with_return_address(node_full_prefix(requester), reply_fu, &[0x5A]);
                w = w
                    .drain()
                    .send_remote(
                        requester,
                        FleetNodeId::new(half + 2, 1),
                        FuId::ZERO,
                        request,
                    )
                    .drain();
                let mut fleet = w.instantiate(EngineKind::Analytic);
                let mut sharded = ShardedFleet::new(1);
                let mut settle = SettleState::new(&w);
                let report = w.replay(&mut fleet, &mut sharded, &mut settle);
                assert_eq!(settle.visits[0], half as u64, "clusters={clusters}");
                assert_eq!(report.rx[1][1].len(), 1, "the reply reached the requester");
                (
                    settle.visits[1..].to_vec(),
                    report.injected_replies,
                    report.reply_rounds,
                )
            })
            .collect();
        assert_eq!(counts[0], (vec![1, 0], 1, 1));
        assert_eq!(counts[0], counts[1]);
    }
}
