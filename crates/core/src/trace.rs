//! `.mbt` — a compact textual trace format for workloads and fleets.
//!
//! Every workload in this repository used to exist only as Rust code:
//! a failing fuzz seed could be reproduced solely by re-running the
//! generator at the same version. A *trace file* makes the scenario
//! itself the artifact — durable, diffable, and replayable across
//! refactors of the generators (`tests/corpus/` pins a golden set as a
//! tier-1 suite; the `scenario` bench bin replays any trace against
//! any engine × schedule grid).
//!
//! The format is line-oriented and dependency-free. A trace is either
//! a single-bus [`Workload`] or a multi-bus [`FleetWorkload`]:
//!
//! ```text
//! mbt 1 workload                      # magic: format version + kind
//! name many_node_storm/4n1r           # rest of line, verbatim
//! seed 42                             # optional provenance (at most once)
//! replay engine=analytic schedule=sharded:4
//! expect sig=6d0ff72ab49e01c3         # optional pinned signature digest
//! config clock=400000 maxmsg=1024     # bus configuration
//! wake-nulls                          # = Workload::allow_wake_nulls
//! node prefix=0x00100 short=0x1 name=n0
//! node prefix=0x00101 short=0x2 gated rx=8 listen=3,7 name=n1
//! send 1 0x1.0 00ff01                 # src, dest address, payload hex
//! send 1 0x1.0 aa prio                # priority arbitration claim
//! send! 0 0x2.0 0f0f0f                # unchecked queue (runaway test)
//! send 0 bcast.1 -                    # broadcast, empty payload
//! send 0 full:0x00101.0 17            # full-prefix (43-cycle) form
//! wakeup 1
//! drain
//! drain-partial 3                     # Step::RunTransactions
//! ```
//!
//! A fleet trace declares `mbt 1 fleet`, replaces `node` lines with
//! `cluster` lines (one char per sensor: `a`lways-on or `g`ated, `-`
//! for an empty cluster) and uses `c.n` node identities:
//!
//! ```text
//! mbt 1 fleet
//! name fleet_cross/2x2r1
//! cluster aa
//! cluster ag
//! local 0.2 0x2.0 0511                # cluster-local send
//! remote 0.1 1.2 0 beef prio          # src, dest, fu, payload
//! wakeup 1.1
//! drain
//! drain-rounds 2                      # FleetStep::RunRounds
//! ```
//!
//! Sections are ordered — headers, then topology (`node` / `cluster`),
//! then steps — and comments are whole lines starting with `#` (so
//! payload and name fields never need escaping). A line ends after its
//! directive's last argument: any further token is an error, except in
//! the rest-of-line `name` values, which end before a trailing `\r`.
//! Parse errors carry an exact `file:line:col` span and never panic;
//! see [`TraceError`].
//!
//! # Round-trip and determinism contract
//!
//! [`TraceFile::to_mbt`] and [`TraceFile::parse_str`] are mutual
//! inverses over every step kind the scenario and fleet layers define:
//! serialize → parse → re-run yields an identical
//! [`ScenarioSignature`] / [`FleetSignature`] on every engine kind and
//! schedule (`tests/trace_roundtrip.rs` pins this over hundreds of
//! seeds). [`scenario_digest`] / [`fleet_digest`] reduce a signature
//! to a stable 64-bit FNV-1a digest so golden traces can pin behavior
//! with one `expect sig=…` header line.

pub mod shrink;

use std::fmt;

use crate::addr::{Address, BroadcastChannel, FuId, FullPrefix, ShortPrefix};
use crate::behavior::{NodeBehavior, DEFAULT_REPLY_HORIZON, MAX_BEHAVIOR_PAYLOAD};
use crate::config::BusConfig;
use crate::engine::{EngineKind, EngineRecord, MAX_BUS_NODES};
use crate::fleet::{
    envelope_message, node_full_prefix, Fleet, FleetNodeId, FleetSchedule, FleetSignature,
    FleetStep, FleetWorkload, MeshRoute, GATEWAY_FORWARD_FU, GATEWAY_NODE, MAX_CLUSTERS,
    MAX_ENVELOPE_HEADER, MAX_SENSORS_PER_CLUSTER, MAX_TTL,
};
use crate::message::Message;
use crate::node::NodeSpec;
use crate::scenario::{ScenarioSignature, Step, Workload};
use crate::TxOutcome;

/// The highest format version this module reads. Version 1 files
/// remain fully readable; the serializer emits `mbt 2` only when a
/// trace uses version-2 constructs (reactive `behavior` tables, a
/// non-default `horizon`, mesh `route`/`domain=` topology, or explicit
/// `ttl=` envelopes), so version-1 traces round-trip byte-identically.
pub const MBT_VERSION: u32 = 2;

/// A parse (or file-read) failure with an exact source span.
///
/// Renders as `file:line:col: message` — the same shape compilers
/// use, so editors can jump to the offending token. Lines and columns are 1-based; column 0 marks whole-file
/// errors (unreadable file, missing header).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceError {
    /// The source name given to the parser (a path, usually).
    pub file: String,
    /// 1-based line of the offending token (0 for whole-file errors).
    pub line: u32,
    /// 1-based byte column of the offending token (0 for whole-file
    /// errors).
    pub col: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}",
            self.file, self.line, self.col, self.message
        )
    }
}

impl std::error::Error for TraceError {}

/// Replay provenance and pinning carried in a trace's header lines —
/// everything about a trace that is *not* the workload itself.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct TraceMeta {
    /// The generator seed this trace was exported from (`seed` line).
    pub seed: Option<u64>,
    /// Suggested engine kind for replay (`replay engine=`).
    pub engine: Option<EngineKind>,
    /// Suggested fleet schedule for replay (`replay schedule=`).
    pub schedule: Option<FleetSchedule>,
    /// Pinned signature digest (`expect sig=`): every replay of this
    /// trace must reproduce it (see [`Trace::run_digest`]).
    pub expect_sig: Option<u64>,
}

/// The scenario a trace file describes: one bus, or a bridged fleet.
#[derive(Clone, Debug)]
pub enum Trace {
    /// A single-bus scenario.
    Workload(Workload),
    /// A gateway-bridged multi-bus scenario.
    Fleet(FleetWorkload),
}

impl Trace {
    /// The workload's name.
    pub fn name(&self) -> &str {
        match self {
            Trace::Workload(w) => w.name(),
            Trace::Fleet(w) => w.name(),
        }
    }

    /// Whether this is a fleet trace.
    pub fn is_fleet(&self) -> bool {
        matches!(self, Trace::Fleet(_))
    }

    /// Whether the trace's behavior is comparable on the wire engine
    /// (partial drains make it analytic-only — see
    /// [`Workload::wire_comparable`]).
    pub fn wire_comparable(&self) -> bool {
        match self {
            Trace::Workload(w) => w.wire_comparable(),
            Trace::Fleet(w) => w.wire_comparable(),
        }
    }

    /// The engine kinds this trace's replays can be compared across:
    /// all of [`EngineKind::ALL`], minus wire for traces with partial
    /// drains.
    pub fn comparable_kinds(&self) -> Vec<EngineKind> {
        EngineKind::ALL
            .iter()
            .copied()
            .filter(|&kind| self.wire_comparable() || kind != EngineKind::Wire)
            .collect()
    }

    /// Replays the trace on `kind` (fleet traces under `schedule`;
    /// single-bus traces ignore it) and returns the signature digest —
    /// the value an `expect sig=` header pins.
    pub fn run_digest(&self, kind: EngineKind, schedule: FleetSchedule) -> u64 {
        match self {
            Trace::Workload(w) => scenario_digest(&w.run_on(kind).signature()),
            Trace::Fleet(w) => fleet_digest(&w.run_scheduled_on(kind, schedule).signature()),
        }
    }
}

/// A parsed (or to-be-serialized) trace file: the scenario plus its
/// header metadata.
#[derive(Clone, Debug)]
pub struct TraceFile {
    /// The scenario.
    pub trace: Trace,
    /// Header metadata (seed, replay hints, pinned digest).
    pub meta: TraceMeta,
}

impl TraceFile {
    /// Wraps a single-bus workload with empty metadata.
    pub fn workload(w: Workload) -> Self {
        TraceFile {
            trace: Trace::Workload(w),
            meta: TraceMeta::default(),
        }
    }

    /// Wraps a fleet workload with empty metadata.
    pub fn fleet(w: FleetWorkload) -> Self {
        TraceFile {
            trace: Trace::Fleet(w),
            meta: TraceMeta::default(),
        }
    }

    /// Sets the `seed` header.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.meta.seed = Some(seed);
        self
    }

    /// Sets the `expect sig=` pinned digest header.
    pub fn with_expect_sig(mut self, sig: u64) -> Self {
        self.meta.expect_sig = Some(sig);
        self
    }

    /// Parses a trace from text. `source` names the origin (a path,
    /// usually) and appears verbatim in error spans.
    ///
    /// # Errors
    ///
    /// A single [`TraceError`] with an exact `file:line:col` span for
    /// the first offense: malformed headers, out-of-range node or
    /// cluster indices, truncated steps, duplicate headers, bad
    /// payload hex, misordered sections. The parser never panics on
    /// any input.
    pub fn parse_str(source: &str, text: &str) -> Result<TraceFile, TraceError> {
        Parser::new(source, text).parse()
    }

    /// Reads and parses a trace file from disk.
    ///
    /// # Errors
    ///
    /// As [`TraceFile::parse_str`]; an unreadable file reports at span
    /// `0:0`.
    pub fn parse_file(path: impl AsRef<std::path::Path>) -> Result<TraceFile, TraceError> {
        let path = path.as_ref();
        let file = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| TraceError {
            file: file.clone(),
            line: 0,
            col: 0,
            message: format!("cannot read trace: {e}"),
        })?;
        TraceFile::parse_str(&file, &text)
    }

    /// Serializes to `.mbt` text. [`TraceFile::parse_str`] of the
    /// result reconstructs an equivalent trace (identical topology,
    /// steps, and re-run signatures on every engine).
    pub fn to_mbt(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        match &self.trace {
            Trace::Workload(w) => {
                let version =
                    if !w.behaviors().is_empty() || w.reply_horizon() != DEFAULT_REPLY_HORIZON {
                        2
                    } else {
                        1
                    };
                header(&mut out, version, "workload", w.name(), &self.meta);
                write_config(&mut out, w.config());
                if w.reply_horizon() != DEFAULT_REPLY_HORIZON {
                    let _ = writeln!(out, "horizon {}", w.reply_horizon());
                }
                if !w.strict_nulls() {
                    out.push_str("wake-nulls\n");
                }
                for spec in w.node_specs() {
                    write_node(&mut out, spec);
                }
                for (node, b) in w.behaviors() {
                    let _ = writeln!(out, "behavior {node} {}", behavior_token(b));
                }
                for step in w.steps() {
                    write_step(&mut out, step);
                }
            }
            Trace::Fleet(w) => {
                let version = if !w.behaviors().is_empty()
                    || w.reply_horizon() != DEFAULT_REPLY_HORIZON
                    || !w.mesh_routes().is_empty()
                    || w.cluster_domains().iter().any(|&d| d != 0)
                    || w.steps()
                        .iter()
                        .any(|s| matches!(s, FleetStep::Remote { ttl: Some(_), .. }))
                {
                    2
                } else {
                    1
                };
                header(&mut out, version, "fleet", w.name(), &self.meta);
                write_config(&mut out, w.config());
                if w.reply_horizon() != DEFAULT_REPLY_HORIZON {
                    let _ = writeln!(out, "horizon {}", w.reply_horizon());
                }
                if !w.strict_nulls() {
                    out.push_str("wake-nulls\n");
                }
                for (sensors, &domain) in w.cluster_specs().iter().zip(w.cluster_domains()) {
                    if sensors.is_empty() {
                        out.push_str("cluster -");
                    } else {
                        out.push_str("cluster ");
                        for &gated in sensors {
                            out.push(if gated { 'g' } else { 'a' });
                        }
                    }
                    if domain != 0 {
                        let _ = write!(out, " domain={domain}");
                    }
                    out.push('\n');
                }
                for r in w.mesh_routes() {
                    let _ = writeln!(out, "route {} {}..{} {}", r.domain, r.lo, r.hi, r.via);
                }
                for (id, b) in w.behaviors() {
                    let _ = writeln!(
                        out,
                        "behavior {} {}",
                        fleet_id_token(*id),
                        behavior_token(b)
                    );
                }
                for step in w.steps() {
                    write_fleet_step(&mut out, step);
                }
            }
        }
        out
    }
}

// ----------------------------------------------------------------------
// Serialization
// ----------------------------------------------------------------------

fn header(out: &mut String, version: u32, kind: &str, name: &str, meta: &TraceMeta) {
    use fmt::Write as _;
    let _ = writeln!(out, "mbt {version} {kind}");
    let _ = writeln!(out, "name {name}");
    if let Some(seed) = meta.seed {
        let _ = writeln!(out, "seed {seed}");
    }
    if meta.engine.is_some() || meta.schedule.is_some() {
        out.push_str("replay");
        if let Some(engine) = meta.engine {
            let _ = write!(out, " engine={engine}");
        }
        if let Some(schedule) = meta.schedule {
            let _ = write!(out, " schedule={}", schedule_token(schedule));
        }
        out.push('\n');
    }
    if let Some(sig) = meta.expect_sig {
        let _ = writeln!(out, "expect sig={sig:016x}");
    }
}

fn schedule_token(schedule: FleetSchedule) -> String {
    match schedule {
        FleetSchedule::Batched => "batched".to_string(),
        FleetSchedule::Interleaved => "interleaved".to_string(),
        FleetSchedule::Sharded { shards } => format!("sharded:{shards}"),
    }
}

fn write_config(out: &mut String, config: &BusConfig) {
    use fmt::Write as _;
    let default = BusConfig::default();
    let _ = write!(
        out,
        "config clock={} maxmsg={}",
        config.clock_hz(),
        config.max_message_bytes()
    );
    if config.hop_delay() != default.hop_delay() {
        let _ = write!(out, " hop_ps={}", config.hop_delay().as_ps());
    }
    if config.mediator_wakeup_cycles() != default.mediator_wakeup_cycles() {
        let _ = write!(out, " medwake={}", config.mediator_wakeup_cycles());
    }
    out.push('\n');
}

fn write_node(out: &mut String, spec: &NodeSpec) {
    use fmt::Write as _;
    let _ = write!(out, "node prefix=0x{:05x}", spec.full_prefix().raw());
    if let Some(short) = spec.short_prefix() {
        let _ = write!(out, " short=0x{:x}", short.raw());
    }
    if spec.is_power_aware() {
        out.push_str(" gated");
    }
    if let Some(bytes) = spec.rx_buffer_bytes() {
        let _ = write!(out, " rx={bytes}");
    }
    // Channels 0 (discovery) and 1 (configuration) are implicit
    // subscriptions of every node; only the extras are serialized.
    let extra: Vec<u8> = (0u8..16).filter(|&c| c > 1 && spec.listens_to(c)).collect();
    if !extra.is_empty() {
        out.push_str(" listen=");
        for (i, c) in extra.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
    }
    // `name=` consumes the rest of the line, so it is always last.
    let _ = writeln!(out, " name={}", spec.name());
}

fn addr_token(addr: Address) -> String {
    match addr {
        Address::Short { prefix, fu_id } => format!("0x{:x}.{:x}", prefix.raw(), fu_id.raw()),
        Address::Full { prefix, fu_id } => {
            format!("full:0x{:05x}.{:x}", prefix.raw(), fu_id.raw())
        }
        Address::Broadcast { channel } => format!("bcast.{}", channel.raw()),
    }
}

fn payload_token(payload: &[u8]) -> String {
    if payload.is_empty() {
        "-".to_string()
    } else {
        let mut s = String::with_capacity(payload.len() * 2);
        for b in payload {
            use fmt::Write as _;
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

fn write_msg_tail(out: &mut String, msg: &Message) {
    use fmt::Write as _;
    let _ = write!(
        out,
        " {} {}",
        addr_token(msg.dest()),
        payload_token(msg.payload())
    );
    if msg.is_priority() {
        out.push_str(" prio");
    }
    out.push('\n');
}

fn write_step(out: &mut String, step: &Step) {
    use fmt::Write as _;
    match step {
        Step::Queue { node, msg } => {
            let _ = write!(out, "send {node}");
            write_msg_tail(out, msg);
        }
        Step::QueueUnchecked { node, msg } => {
            let _ = write!(out, "send! {node}");
            write_msg_tail(out, msg);
        }
        Step::Wakeup { node } => {
            let _ = writeln!(out, "wakeup {node}");
        }
        Step::Run => out.push_str("drain\n"),
        Step::RunTransactions { count } => {
            let _ = writeln!(out, "drain-partial {count}");
        }
    }
}

fn fleet_id_token(id: FleetNodeId) -> String {
    format!("{}.{}", id.cluster, id.node)
}

fn behavior_token(b: &NodeBehavior) -> String {
    match b {
        // Builders drop `Inert` entries; serialize defensively anyway.
        NodeBehavior::Inert => "inert".to_string(),
        NodeBehavior::Reply { fu, payload } => {
            format!("reply {} {}", fu.raw(), payload_token(payload))
        }
        NodeBehavior::AggregateAck { n, fu, payload } => {
            format!("agg {n} {} {}", fu.raw(), payload_token(payload))
        }
        NodeBehavior::AlarmCascade {
            fanout,
            fu,
            payload,
        } => format!("cascade {fanout} {} {}", fu.raw(), payload_token(payload)),
    }
}

fn write_fleet_step(out: &mut String, step: &FleetStep) {
    use fmt::Write as _;
    match step {
        FleetStep::Local { src, msg } => {
            let _ = write!(out, "local {}", fleet_id_token(*src));
            write_msg_tail(out, msg);
        }
        FleetStep::Remote {
            src,
            dest,
            fu,
            payload,
            priority,
            ttl,
        } => {
            let _ = write!(
                out,
                "remote {} {} {} {}",
                fleet_id_token(*src),
                fleet_id_token(*dest),
                fu.raw(),
                payload_token(payload)
            );
            if let Some(ttl) = ttl {
                let _ = write!(out, " ttl={ttl}");
            }
            if *priority {
                out.push_str(" prio");
            }
            out.push('\n');
        }
        FleetStep::Wakeup { node } => {
            let _ = writeln!(out, "wakeup {}", fleet_id_token(*node));
        }
        FleetStep::Drain => out.push_str("drain\n"),
        FleetStep::RunRounds { rounds } => {
            let _ = writeln!(out, "drain-rounds {rounds}");
        }
    }
}

// ----------------------------------------------------------------------
// Traces split into parts
// ----------------------------------------------------------------------

/// A trace split into the parts its public builders take: what the
/// parser fills line by line and what the [`shrink`] passes edit.
/// [`Parts::build`] moves the topology and behaviors back through the
/// builders and the step list across as one `Vec` (every step builder
/// is a bare push), so a parts value only ever becomes a workload they
/// accept.
trait Parts: Clone {
    /// The workload the parts build.
    type Built;

    /// Assembles the workload through its public builders.
    fn build(self) -> Self::Built;
}

/// A single-bus [`Workload`] split into parts.
#[derive(Clone, Default)]
struct WorkloadParts {
    name: String,
    config: BusConfig,
    nodes: Vec<NodeSpec>,
    /// Applied in order, so a later entry for a node replaces an
    /// earlier one (as a repeated `behavior` line does).
    behaviors: Vec<(usize, NodeBehavior)>,
    horizon: u32,
    steps: Vec<Step>,
    strict_nulls: bool,
}

impl WorkloadParts {
    fn of(w: &Workload) -> Self {
        WorkloadParts {
            name: w.name().to_string(),
            config: *w.config(),
            nodes: w.node_specs().to_vec(),
            behaviors: w.behaviors().iter().map(|(&n, b)| (n, b.clone())).collect(),
            horizon: w.reply_horizon(),
            steps: w.steps().to_vec(),
            strict_nulls: w.strict_nulls(),
        }
    }
}

impl Parts for WorkloadParts {
    type Built = Workload;

    fn build(self) -> Workload {
        let mut w = Workload::new(self.name, self.config);
        for spec in self.nodes {
            w = w.node(spec);
        }
        for (node, b) in self.behaviors {
            w = w.behavior(node, b);
        }
        w = w.with_reply_horizon(self.horizon).with_steps(self.steps);
        if !self.strict_nulls {
            w = w.allow_wake_nulls();
        }
        w
    }
}

/// A [`FleetWorkload`] split into parts.
#[derive(Clone, Default)]
struct FleetParts {
    name: String,
    config: BusConfig,
    clusters: Vec<Vec<bool>>,
    /// Each cluster's mesh domain, parallel to `clusters`.
    domains: Vec<usize>,
    routes: Vec<MeshRoute>,
    /// Applied in order, like [`WorkloadParts::behaviors`].
    behaviors: Vec<(FleetNodeId, NodeBehavior)>,
    horizon: u32,
    steps: Vec<FleetStep>,
    strict_nulls: bool,
}

impl FleetParts {
    fn of(w: &FleetWorkload) -> Self {
        FleetParts {
            name: w.name().to_string(),
            config: *w.config(),
            clusters: w.cluster_specs().to_vec(),
            domains: w.cluster_domains().to_vec(),
            routes: w.mesh_routes().to_vec(),
            behaviors: w
                .behaviors()
                .iter()
                .map(|(&id, b)| (id, b.clone()))
                .collect(),
            horizon: w.reply_horizon(),
            steps: w.steps().to_vec(),
            strict_nulls: w.strict_nulls(),
        }
    }
}

impl Parts for FleetParts {
    type Built = FleetWorkload;

    fn build(self) -> FleetWorkload {
        let mut w = FleetWorkload::new(self.name, self.config);
        for (sensors, domain) in self.clusters.into_iter().zip(self.domains) {
            w = w.cluster_in(domain, sensors);
        }
        for r in self.routes {
            w = w.route(r.domain, r.lo, r.hi, r.via);
        }
        for (id, b) in self.behaviors {
            w = w.behavior(id, b);
        }
        // `ttl` composes with `prio` in the file format, a pairing the
        // convenience builders don't offer, so the list moves verbatim.
        w = w.with_reply_horizon(self.horizon).with_steps(self.steps);
        if !self.strict_nulls {
            w = w.allow_wake_nulls();
        }
        w
    }
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TraceKind {
    Workload,
    Fleet,
}

/// The parts a trace fills, of the kind its magic line declares.
enum TraceParts {
    Workload(WorkloadParts),
    Fleet(FleetParts),
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Section {
    Header,
    Topology,
    Steps,
}

struct Parser<'a> {
    file: &'a str,
    text: &'a str,
    version: u32,
    section: Section,
    name: Option<String>,
    config: BusConfig,
    saw_config: bool,
    meta: TraceMeta,
    wake_nulls: bool,
    horizon: Option<u32>,
    /// `None` until the magic line names the kind.
    parts: Option<TraceParts>,
}

/// One whitespace-separated token with its 1-based byte column.
#[derive(Clone, Copy)]
struct Tok<'a> {
    col: u32,
    text: &'a str,
}

/// Whether an ASCII byte is [`char::is_whitespace`]: space, `\t`,
/// `\n`, `\x0B`, `\x0C` or `\r` (`u8::is_ascii_whitespace` leaves out
/// `\x0B`).
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// Splits `line` into `toks` at every [`char::is_whitespace`] char,
/// clearing `toks` first so one buffer serves every line. ASCII bytes
/// take the byte test; a non-ASCII byte starts a char, decoded in
/// place, so columns stay byte columns on every input.
fn tokenize<'a>(line: &'a str, toks: &mut Vec<Tok<'a>>) {
    toks.clear();
    let bytes = line.as_bytes();
    let mut start: Option<usize> = None;
    let mut i = 0;
    while i < bytes.len() {
        let (space, width) = if bytes[i].is_ascii() {
            (is_ascii_space(bytes[i]), 1)
        } else {
            let ch = line[i..].chars().next().expect("i steps by whole chars");
            (ch.is_whitespace(), ch.len_utf8())
        };
        if space {
            if let Some(s) = start.take() {
                toks.push(Tok {
                    col: (s + 1) as u32,
                    text: &line[s..i],
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
        i += width;
    }
    if let Some(s) = start {
        toks.push(Tok {
            col: (s + 1) as u32,
            text: &line[s..],
        });
    }
}

impl<'a> Parser<'a> {
    fn new(file: &'a str, text: &'a str) -> Self {
        Parser {
            file,
            text,
            version: 1,
            section: Section::Header,
            name: None,
            config: BusConfig::default(),
            saw_config: false,
            meta: TraceMeta::default(),
            wake_nulls: false,
            horizon: None,
            parts: None,
        }
    }

    fn kind(&self) -> Option<TraceKind> {
        self.parts.as_ref().map(|parts| match parts {
            TraceParts::Workload(_) => TraceKind::Workload,
            TraceParts::Fleet(_) => TraceKind::Fleet,
        })
    }

    /// The single-bus parts; reached only past a single-bus kind check.
    fn workload(&mut self) -> &mut WorkloadParts {
        match &mut self.parts {
            Some(TraceParts::Workload(parts)) => parts,
            _ => unreachable!("single-bus directive outside a workload trace"),
        }
    }

    /// The fleet parts; reached only past a fleet kind check.
    fn fleet(&mut self) -> &mut FleetParts {
        match &mut self.parts {
            Some(TraceParts::Fleet(parts)) => parts,
            _ => unreachable!("fleet directive outside a fleet trace"),
        }
    }

    fn err(&self, line: u32, col: u32, message: impl Into<String>) -> TraceError {
        TraceError {
            file: self.file.to_string(),
            line,
            col,
            message: message.into(),
        }
    }

    /// The error for a keyed field (or flag) given twice, reported
    /// where the second occurrence starts.
    fn duplicate(&self, line: u32, tok: Tok<'a>, what: &str, key: &str) -> TraceError {
        self.err(line, tok.col, format!("duplicate {what} `{key}`"))
    }

    /// The span just past the last token — where a missing argument
    /// would have started.
    fn after(&self, line_no: u32, line: &str) -> (u32, u32) {
        (line_no, (line.trim_end().len() + 2) as u32)
    }

    fn parse(mut self) -> Result<TraceFile, TraceError> {
        let mut lines = 0u32;
        let mut toks = Vec::new();
        for (idx, line) in self.text.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            lines = line_no;
            tokenize(line, &mut toks);
            // Blank lines and whole-line `#` comments.
            if toks.first().is_none_or(|tok| tok.text.starts_with('#')) {
                continue;
            }
            if self.parts.is_none() {
                self.parse_magic(line_no, line, &toks)?;
                continue;
            }
            self.parse_directive(line_no, line, &toks)?;
        }
        let Some(parts) = self.parts.take() else {
            return Err(self.err(
                lines.max(1),
                0,
                "empty trace: expected `mbt 1 workload` or `mbt 1 fleet` header",
            ));
        };
        let Some(name) = self.name.take() else {
            return Err(self.err(lines.max(1), 0, "missing `name` header"));
        };
        let config = self.config;
        let horizon = self.horizon.unwrap_or(DEFAULT_REPLY_HORIZON);
        let strict_nulls = !self.wake_nulls;
        let trace = match parts {
            TraceParts::Workload(parts) => Trace::Workload(
                WorkloadParts {
                    name,
                    config,
                    horizon,
                    strict_nulls,
                    ..parts
                }
                .build(),
            ),
            TraceParts::Fleet(parts) => Trace::Fleet(
                FleetParts {
                    name,
                    config,
                    horizon,
                    strict_nulls,
                    ..parts
                }
                .build(),
            ),
        };
        Ok(TraceFile {
            trace,
            meta: self.meta,
        })
    }

    fn parse_magic(
        &mut self,
        line_no: u32,
        line: &str,
        toks: &[Tok<'a>],
    ) -> Result<(), TraceError> {
        if toks.is_empty() || toks[0].text != "mbt" {
            let col = toks.first().map(|t| t.col).unwrap_or(1);
            return Err(self.err(
                line_no,
                col,
                "expected `mbt <version> <workload|fleet>` magic header",
            ));
        }
        let version = self.need(line_no, line, toks, 1, "format version")?;
        self.version = match version.text {
            "1" => 1,
            "2" => 2,
            other => {
                return Err(self.err(
                    line_no,
                    version.col,
                    format!(
                        "unsupported trace version `{other}` (this parser reads versions \
                         1..={MBT_VERSION})"
                    ),
                ))
            }
        };
        let kind = self.need(line_no, line, toks, 2, "trace kind (workload|fleet)")?;
        self.parts = Some(match kind.text {
            "workload" => TraceParts::Workload(WorkloadParts::default()),
            "fleet" => TraceParts::Fleet(FleetParts::default()),
            other => {
                return Err(self.err(
                    line_no,
                    kind.col,
                    format!("unknown trace kind `{other}` (expected workload or fleet)"),
                ))
            }
        });
        self.end(line_no, toks, 3)
    }

    fn need(
        &self,
        line_no: u32,
        line: &str,
        toks: &[Tok<'a>],
        i: usize,
        what: &str,
    ) -> Result<Tok<'a>, TraceError> {
        toks.get(i).copied().ok_or_else(|| {
            let (l, c) = self.after(line_no, line);
            self.err(l, c, format!("missing {what}"))
        })
    }

    /// Rejects a token at index `i` or later: the line must end after
    /// its last argument.
    fn end(&self, line_no: u32, toks: &[Tok<'a>], i: usize) -> Result<(), TraceError> {
        match toks.get(i) {
            None => Ok(()),
            Some(tok) => Err(self.err(
                line_no,
                tok.col,
                format!("unexpected trailing token `{}`", tok.text),
            )),
        }
    }

    fn enter(&mut self, line_no: u32, tok: Tok<'a>, section: Section) -> Result<(), TraceError> {
        if section < self.section {
            let place = match section {
                Section::Header => "headers",
                Section::Topology => "topology lines",
                Section::Steps => "steps",
            };
            return Err(self.err(
                line_no,
                tok.col,
                format!(
                    "`{}` appears after a later section ({place} must come before {})",
                    tok.text,
                    match self.section {
                        Section::Topology => "topology lines",
                        _ => "steps",
                    }
                ),
            ));
        }
        self.section = section;
        Ok(())
    }

    fn parse_directive(
        &mut self,
        line_no: u32,
        line: &str,
        toks: &[Tok<'a>],
    ) -> Result<(), TraceError> {
        let kind = self.kind().expect("magic parsed before directives");
        let head = toks[0];
        match head.text {
            // Most lines of a large fleet trace are `remote` steps, and
            // the arms are tried in order.
            "remote" => self.parse_remote(line_no, line, toks, head, kind)?,
            "name" => {
                self.enter(line_no, head, Section::Header)?;
                if self.name.is_some() {
                    return Err(self.err(line_no, head.col, "duplicate `name` header"));
                }
                let value = self.need(line_no, line, toks, 1, "workload name")?;
                self.name = Some(rest_of_line(line, value.col as usize - 1).to_string());
            }
            "seed" => {
                self.enter(line_no, head, Section::Header)?;
                if self.meta.seed.is_some() {
                    return Err(self.err(line_no, head.col, "duplicate `seed` header"));
                }
                let value = self.need(line_no, line, toks, 1, "seed value")?;
                self.meta.seed = Some(self.parse_u64(line_no, value, "seed")?);
                self.end(line_no, toks, 2)?;
            }
            "config" => {
                self.enter(line_no, head, Section::Header)?;
                if self.saw_config {
                    return Err(self.err(line_no, head.col, "duplicate `config` header"));
                }
                self.saw_config = true;
                self.parse_config(line_no, &toks[1..])?;
            }
            "replay" => {
                self.enter(line_no, head, Section::Header)?;
                self.parse_replay(line_no, &toks[1..])?;
            }
            "expect" => {
                self.enter(line_no, head, Section::Header)?;
                if self.meta.expect_sig.is_some() {
                    return Err(self.err(line_no, head.col, "duplicate `expect` header"));
                }
                let value = self.need(line_no, line, toks, 1, "`sig=<16-hex-digit>` field")?;
                let Some(hex) = value.text.strip_prefix("sig=") else {
                    return Err(self.err(
                        line_no,
                        value.col,
                        format!("unknown expect field `{}` (expected sig=…)", value.text),
                    ));
                };
                let sig = u64::from_str_radix(hex, 16).map_err(|_| {
                    self.err(
                        line_no,
                        value.col,
                        format!("malformed signature digest `{hex}` (expected 64-bit hex)"),
                    )
                })?;
                self.end(line_no, toks, 2)?;
                self.meta.expect_sig = Some(sig);
            }
            "wake-nulls" => {
                self.enter(line_no, head, Section::Header)?;
                self.end(line_no, toks, 1)?;
                self.wake_nulls = true;
            }
            "horizon" => {
                self.need_v2(line_no, head)?;
                self.enter(line_no, head, Section::Header)?;
                if self.horizon.is_some() {
                    return Err(self.err(line_no, head.col, "duplicate `horizon` header"));
                }
                let value = self.need(line_no, line, toks, 1, "reply horizon (rounds)")?;
                let rounds = self.parse_u64(line_no, value, "reply horizon")?;
                if rounds == 0 || rounds > u32::MAX as u64 {
                    return Err(self.err(
                        line_no,
                        value.col,
                        format!("reply horizon {rounds} out of range (1..=4294967295)"),
                    ));
                }
                self.end(line_no, toks, 2)?;
                self.horizon = Some(rounds as u32);
            }
            "node" => {
                if kind != TraceKind::Workload {
                    return Err(self.err(
                        line_no,
                        head.col,
                        "`node` is a single-bus directive (this is a fleet trace; use `cluster`)",
                    ));
                }
                self.enter(line_no, head, Section::Topology)?;
                if self.workload().nodes.len() == MAX_BUS_NODES {
                    return Err(self.err(
                        line_no,
                        head.col,
                        format!("too many nodes (a bus holds at most {MAX_BUS_NODES})"),
                    ));
                }
                self.parse_node(line_no, line, &toks[1..])?;
            }
            "cluster" => {
                if kind != TraceKind::Fleet {
                    return Err(self.err(
                        line_no,
                        head.col,
                        "`cluster` is a fleet directive (this is a workload trace; use `node`)",
                    ));
                }
                self.enter(line_no, head, Section::Topology)?;
                if self.fleet().clusters.len() == MAX_CLUSTERS {
                    return Err(self.err(
                        line_no,
                        head.col,
                        format!("too many clusters (a fleet holds at most {MAX_CLUSTERS})"),
                    ));
                }
                let flags = self.need(line_no, line, toks, 1, "sensor flags ([ag]+ or -)")?;
                let sensors = if flags.text == "-" {
                    Vec::new()
                } else {
                    let mut sensors = Vec::with_capacity(flags.text.len());
                    for (i, ch) in flags.text.chars().enumerate() {
                        if i == MAX_SENSORS_PER_CLUSTER {
                            // Every earlier flag was an ASCII `a`/`g`,
                            // so the char index is the byte offset.
                            return Err(self.err(
                                line_no,
                                flags.col + i as u32,
                                format!(
                                    "too many sensors (a cluster holds at most \
                                     {MAX_SENSORS_PER_CLUSTER})"
                                ),
                            ));
                        }
                        match ch {
                            'a' => sensors.push(false),
                            'g' => sensors.push(true),
                            other => {
                                return Err(self.err(
                                    line_no,
                                    flags.col,
                                    format!(
                                        "bad sensor flag `{other}` (each sensor is `a`lways-on \
                                         or `g`ated; `-` for an empty cluster)"
                                    ),
                                ))
                            }
                        }
                    }
                    sensors
                };
                let mut domain = 0usize;
                if let Some(&tok) = toks.get(2) {
                    let Some(value) = tok.text.strip_prefix("domain=") else {
                        return Err(self.err(
                            line_no,
                            tok.col,
                            format!(
                                "unexpected trailing token `{}` (only `domain=<d>` may follow)",
                                tok.text
                            ),
                        ));
                    };
                    self.need_v2(line_no, tok)?;
                    let value_tok = Tok {
                        col: tok.col + "domain=".len() as u32,
                        text: value,
                    };
                    domain = self.parse_u64(line_no, value_tok, "mesh domain")? as usize;
                }
                self.end(line_no, toks, 3)?;
                let fleet = self.fleet();
                fleet.clusters.push(sensors);
                fleet.domains.push(domain);
            }
            "route" => {
                self.expect_kind(line_no, head, kind, TraceKind::Fleet)?;
                self.need_v2(line_no, head)?;
                self.enter(line_no, head, Section::Topology)?;
                self.parse_route(line_no, line, toks)?;
            }
            "behavior" => {
                self.need_v2(line_no, head)?;
                self.enter(line_no, head, Section::Topology)?;
                match kind {
                    TraceKind::Workload => {
                        let node = self.parse_node_index(line_no, line, toks, 1)?;
                        let b = self.parse_behavior(line_no, line, toks)?;
                        self.workload().behaviors.push((node, b));
                    }
                    TraceKind::Fleet => {
                        let id = self.parse_fleet_id(line_no, line, toks, 1)?;
                        if id.node == 0 {
                            return Err(self.err(
                                line_no,
                                toks[1].col,
                                format!(
                                    "behavior on gateway presence `{}` (behaviors attach to \
                                     sensors, node >= 1)",
                                    toks[1].text
                                ),
                            ));
                        }
                        let b = self.parse_behavior(line_no, line, toks)?;
                        self.fleet().behaviors.push((id, b));
                    }
                }
            }
            "send" | "send!" => {
                self.expect_kind(line_no, head, kind, TraceKind::Workload)?;
                self.enter(line_no, head, Section::Steps)?;
                let node = self.parse_node_index(line_no, line, toks, 1)?;
                let msg = self.parse_msg(line_no, line, toks, 2)?;
                let step = if head.text == "send" {
                    self.check_len(line_no, toks[3], &msg, " (`send!` queues it unchecked)")?;
                    Step::Queue { node, msg }
                } else {
                    Step::QueueUnchecked { node, msg }
                };
                self.workload().steps.push(step);
            }
            "drain" => {
                self.enter(line_no, head, Section::Steps)?;
                self.end(line_no, toks, 1)?;
                match kind {
                    TraceKind::Workload => self.workload().steps.push(Step::Run),
                    TraceKind::Fleet => self.fleet().steps.push(FleetStep::Drain),
                }
            }
            "drain-partial" => {
                self.expect_kind(line_no, head, kind, TraceKind::Workload)?;
                self.enter(line_no, head, Section::Steps)?;
                let value = self.need(line_no, line, toks, 1, "transaction count")?;
                let count = self.parse_u64(line_no, value, "transaction count")? as usize;
                self.end(line_no, toks, 2)?;
                self.workload().steps.push(Step::RunTransactions { count });
            }
            "drain-rounds" => {
                self.expect_kind(line_no, head, kind, TraceKind::Fleet)?;
                self.enter(line_no, head, Section::Steps)?;
                let value = self.need(line_no, line, toks, 1, "round count")?;
                let rounds = self.parse_u64(line_no, value, "round count")? as usize;
                self.end(line_no, toks, 2)?;
                self.fleet().steps.push(FleetStep::RunRounds { rounds });
            }
            "wakeup" => {
                self.enter(line_no, head, Section::Steps)?;
                match kind {
                    TraceKind::Workload => {
                        let node = self.parse_node_index(line_no, line, toks, 1)?;
                        self.end(line_no, toks, 2)?;
                        self.workload().steps.push(Step::Wakeup { node });
                    }
                    TraceKind::Fleet => {
                        let node = self.parse_fleet_id(line_no, line, toks, 1)?;
                        self.end(line_no, toks, 2)?;
                        self.fleet().steps.push(FleetStep::Wakeup { node });
                    }
                }
            }
            "local" => {
                self.expect_kind(line_no, head, kind, TraceKind::Fleet)?;
                self.enter(line_no, head, Section::Steps)?;
                let src = self.parse_fleet_id(line_no, line, toks, 1)?;
                let msg = self.parse_msg(line_no, line, toks, 2)?;
                self.check_len(line_no, toks[3], &msg, "")?;
                if Fleet::misuses_forwarding_port(src.cluster, &msg) {
                    return Err(self.err(
                        line_no,
                        toks[3].col,
                        format!(
                            "payload `{}` sent to the gateway forwarding port is not an \
                             envelope (use `remote`, or a gateway fu other than 0)",
                            toks[3].text
                        ),
                    ));
                }
                self.fleet().steps.push(FleetStep::Local { src, msg });
            }
            other => {
                return Err(self.err(line_no, head.col, format!("unknown directive `{other}`")));
            }
        }
        Ok(())
    }

    /// Parses `remote <c.n> <c.n> <fu> <payload> [ttl=<n>] [prio]`.
    fn parse_remote(
        &mut self,
        line_no: u32,
        line: &str,
        toks: &[Tok<'a>],
        head: Tok<'a>,
        kind: TraceKind,
    ) -> Result<(), TraceError> {
        self.expect_kind(line_no, head, kind, TraceKind::Fleet)?;
        self.enter(line_no, head, Section::Steps)?;
        let src = self.parse_fleet_id(line_no, line, toks, 1)?;
        let dest = self.parse_fleet_id(line_no, line, toks, 2)?;
        let fu_tok = self.need(line_no, line, toks, 3, "destination functional unit")?;
        let fu = self.parse_fu(line_no, fu_tok)?;
        if dest.node == GATEWAY_NODE && fu == GATEWAY_FORWARD_FU {
            return Err(self.err(
                line_no,
                fu_tok.col,
                "a remote message may not target a gateway forwarding port \
                 (node 0, fu 0)",
            ));
        }
        let payload_tok = self.need(line_no, line, toks, 4, "payload hex (or -)")?;
        let payload = self.parse_payload(line_no, payload_tok)?;
        let mut ttl: Option<u8> = None;
        let mut priority = false;
        for &tok in &toks[5.min(toks.len())..] {
            if let Some(value) = tok.text.strip_prefix("ttl=") {
                if ttl.is_some() || priority {
                    return Err(self.err(
                        line_no,
                        tok.col,
                        "`ttl=` may appear once, before `prio`",
                    ));
                }
                self.need_v2(line_no, tok)?;
                let value_tok = Tok {
                    col: tok.col + "ttl=".len() as u32,
                    text: value,
                };
                let raw = self.parse_u64(line_no, value_tok, "envelope TTL")?;
                if raw < 1 || raw > MAX_TTL as u64 {
                    return Err(self.err(
                        line_no,
                        value_tok.col,
                        format!("envelope TTL {raw} out of range (1..={MAX_TTL})"),
                    ));
                }
                ttl = Some(raw as u8);
            } else if tok.text == "prio" {
                if priority {
                    return Err(self.err(line_no, tok.col, "duplicate `prio` token"));
                }
                priority = true;
            } else {
                return Err(self.err(
                    line_no,
                    tok.col,
                    format!(
                        "unexpected trailing token `{}` (only `ttl=<n>` and `prio` \
                         may follow)",
                        tok.text
                    ),
                ));
            }
        }
        // Only a payload within an envelope header of `maxmsg`
        // can overflow it, so only those pay for building the
        // envelope and validating it like any queued message.
        if payload.len() + MAX_ENVELOPE_HEADER > self.config.max_message_bytes() {
            let envelope = envelope_message(node_full_prefix(dest), fu, &payload, ttl);
            let hint = if ttl.is_some() {
                " (counting the 6-byte `ttl=` envelope header)"
            } else {
                " (counting the 4-byte envelope header)"
            };
            self.check_len(line_no, payload_tok, &envelope, hint)?;
        }
        self.fleet().steps.push(FleetStep::Remote {
            src,
            dest,
            fu,
            payload,
            priority,
            ttl,
        });
        Ok(())
    }

    /// Rejects a version-2 construct inside a file whose magic header
    /// declares version 1.
    fn need_v2(&self, line_no: u32, tok: Tok<'a>) -> Result<(), TraceError> {
        if self.version >= 2 {
            return Ok(());
        }
        Err(self.err(
            line_no,
            tok.col,
            format!(
                "`{}` requires trace version 2 (this file declares version {})",
                tok.text, self.version
            ),
        ))
    }

    fn expect_kind(
        &self,
        line_no: u32,
        head: Tok<'a>,
        kind: TraceKind,
        want: TraceKind,
    ) -> Result<(), TraceError> {
        if kind == want {
            return Ok(());
        }
        let (this, instead) = match want {
            TraceKind::Workload => ("a single-bus step", "local/remote/drain-rounds"),
            TraceKind::Fleet => ("a fleet step", "send/drain-partial"),
        };
        Err(self.err(
            line_no,
            head.col,
            format!("`{}` is {this} (use {instead} here)", head.text),
        ))
    }

    fn parse_u64(&self, line_no: u32, tok: Tok<'a>, what: &str) -> Result<u64, TraceError> {
        tok.text.parse::<u64>().map_err(|_| {
            self.err(
                line_no,
                tok.col,
                format!(
                    "malformed {what} `{}` (expected an unsigned integer)",
                    tok.text
                ),
            )
        })
    }

    /// A decimal functional unit, 0..=15.
    fn parse_fu(&self, line_no: u32, tok: Tok<'a>) -> Result<FuId, TraceError> {
        match tok.text.parse::<u8>().map(FuId::new) {
            Ok(Ok(fu)) => Ok(fu),
            _ => Err(self.fu_error(line_no, tok)),
        }
    }

    /// Why `tok` is no functional unit: malformed, or out of range.
    /// Kept out of line, so the hot path of [`Parser::parse_fu`] stays
    /// small.
    #[cold]
    #[inline(never)]
    fn fu_error(&self, line_no: u32, tok: Tok<'a>) -> TraceError {
        match self.parse_u64(line_no, tok, "functional unit") {
            Err(malformed) => malformed,
            Ok(raw) => self.err(
                line_no,
                tok.col,
                format!("functional unit {raw} out of range (0..=15)"),
            ),
        }
    }

    fn parse_hex_u32(&self, line_no: u32, tok: Tok<'a>, what: &str) -> Result<u32, TraceError> {
        let Some(hex) = tok.text.strip_prefix("0x") else {
            return Err(self.err(
                line_no,
                tok.col,
                format!("malformed {what} `{}` (expected 0x-prefixed hex)", tok.text),
            ));
        };
        u32::from_str_radix(hex, 16).map_err(|_| {
            self.err(
                line_no,
                tok.col,
                format!("malformed {what} `{}` (expected 0x-prefixed hex)", tok.text),
            )
        })
    }

    fn parse_config(&mut self, line_no: u32, toks: &[Tok<'a>]) -> Result<(), TraceError> {
        let mut clock: Option<(u64, Tok<'a>)> = None;
        let mut maxmsg: Option<(u64, Tok<'a>)> = None;
        let mut hop_ps: Option<(u64, Tok<'a>)> = None;
        let mut medwake: Option<(u64, Tok<'a>)> = None;
        for &tok in toks {
            let Some((key, value)) = tok.text.split_once('=') else {
                return Err(self.err(
                    line_no,
                    tok.col,
                    format!("malformed config field `{}` (expected key=value)", tok.text),
                ));
            };
            let value_tok = Tok {
                col: tok.col + key.len() as u32 + 1,
                text: value,
            };
            let parsed = self.parse_u64(line_no, value_tok, key)?;
            let slot = match key {
                "clock" => &mut clock,
                "maxmsg" => &mut maxmsg,
                "hop_ps" => &mut hop_ps,
                "medwake" => &mut medwake,
                other => {
                    return Err(self.err(
                        line_no,
                        tok.col,
                        format!("unknown config field `{other}`"),
                    ))
                }
            };
            if slot.is_some() {
                return Err(self.duplicate(line_no, tok, "config field", key));
            }
            *slot = Some((parsed, value_tok));
        }
        let mut config = BusConfig::default();
        if let Some((hz, tok)) = clock {
            config = BusConfig::new(hz)
                .map_err(|e| self.err(line_no, tok.col, format!("bad clock: {e}")))?;
        }
        if let Some((max, tok)) = maxmsg {
            config = config
                .with_max_message_bytes(max as usize)
                .map_err(|e| self.err(line_no, tok.col, format!("bad maxmsg: {e}")))?;
        }
        if let Some((ps, tok)) = hop_ps {
            config = config
                .with_hop_delay(mbus_sim::SimTime::from_ps(ps))
                .map_err(|e| self.err(line_no, tok.col, format!("bad hop_ps: {e}")))?;
        }
        if let Some((cycles, tok)) = medwake {
            let cycles = u32::try_from(cycles).map_err(|_| {
                self.err(
                    line_no,
                    tok.col,
                    format!("medwake {cycles} out of range (0..={})", u32::MAX),
                )
            })?;
            config = config.with_mediator_wakeup_cycles(cycles);
        }
        self.config = config;
        Ok(())
    }

    fn parse_replay(&mut self, line_no: u32, toks: &[Tok<'a>]) -> Result<(), TraceError> {
        for &tok in toks {
            let Some((key, value)) = tok.text.split_once('=') else {
                return Err(self.err(
                    line_no,
                    tok.col,
                    format!("malformed replay field `{}` (expected key=value)", tok.text),
                ));
            };
            let seen = match key {
                "engine" => self.meta.engine.is_some(),
                "schedule" => self.meta.schedule.is_some(),
                _ => false,
            };
            if seen {
                return Err(self.duplicate(line_no, tok, "replay field", key));
            }
            match key {
                "engine" => {
                    // `event` named the analytic kernel's former
                    // stepping wrapper; older traces keep replaying.
                    self.meta.engine = Some(match value {
                        "analytic" | "event" => EngineKind::Analytic,
                        "wire" => EngineKind::Wire,
                        other => {
                            return Err(self.err(
                                line_no,
                                tok.col,
                                format!(
                                    "unknown engine `{other}` (expected analytic or wire \
                                     (event is accepted as analytic))"
                                ),
                            ))
                        }
                    });
                }
                "schedule" => {
                    self.meta.schedule = Some(match value.split_once(':') {
                        None if value == "batched" => FleetSchedule::Batched,
                        None if value == "interleaved" => FleetSchedule::Interleaved,
                        Some(("sharded", n)) => FleetSchedule::Sharded {
                            shards: n.parse().map_err(|_| {
                                self.err(
                                    line_no,
                                    tok.col,
                                    format!("malformed shard count in `{}`", tok.text),
                                )
                            })?,
                        },
                        _ => {
                            return Err(self.err(
                                line_no,
                                tok.col,
                                format!(
                                    "unknown schedule `{value}` (expected batched, interleaved, \
                                     or sharded:<n>)"
                                ),
                            ))
                        }
                    });
                }
                other => {
                    return Err(self.err(
                        line_no,
                        tok.col,
                        format!("unknown replay field `{other}`"),
                    ))
                }
            }
        }
        Ok(())
    }

    fn parse_node(&mut self, line_no: u32, line: &str, toks: &[Tok<'a>]) -> Result<(), TraceError> {
        let mut prefix: Option<FullPrefix> = None;
        let mut short: Option<ShortPrefix> = None;
        let mut gated = false;
        let mut rx: Option<usize> = None;
        let mut listen: Vec<u8> = Vec::new();
        let mut name: Option<String> = None;
        for &tok in toks {
            if tok.text.starts_with("name=") {
                let start = (tok.col - 1) as usize + "name=".len();
                name = Some(rest_of_line(line, start).to_string());
                break;
            }
            let (what, key, seen) = match tok.text.split_once('=') {
                None => ("node flag", tok.text, gated && tok.text == "gated"),
                Some((key, _)) => {
                    let seen = match key {
                        "prefix" => prefix.is_some(),
                        "short" => short.is_some(),
                        "rx" => rx.is_some(),
                        // A `listen=` token adds at least one channel.
                        "listen" => !listen.is_empty(),
                        _ => false,
                    };
                    ("node field", key, seen)
                }
            };
            if seen {
                return Err(self.duplicate(line_no, tok, what, key));
            }
            match tok.text.split_once('=') {
                None if tok.text == "gated" => gated = true,
                None => {
                    return Err(self.err(
                        line_no,
                        tok.col,
                        format!("unknown node flag `{}`", tok.text),
                    ))
                }
                Some(("prefix", _)) => {
                    let value = Tok {
                        col: tok.col + "prefix=".len() as u32,
                        text: &tok.text["prefix=".len()..],
                    };
                    let raw = self.parse_hex_u32(line_no, value, "full prefix")?;
                    prefix = Some(FullPrefix::new(raw).map_err(|_| {
                        self.err(
                            line_no,
                            value.col,
                            format!("full prefix 0x{raw:x} out of range (20 bits)"),
                        )
                    })?);
                }
                Some(("short", _)) => {
                    let value = Tok {
                        col: tok.col + "short=".len() as u32,
                        text: &tok.text["short=".len()..],
                    };
                    let raw = self.parse_hex_u32(line_no, value, "short prefix")?;
                    short = Some(short_prefix(raw).ok_or_else(|| {
                        self.err(
                            line_no,
                            value.col,
                            format!("short prefix 0x{raw:x} out of range (0x1..=0xE)"),
                        )
                    })?);
                }
                Some(("rx", n)) => {
                    let value = Tok {
                        col: tok.col + "rx=".len() as u32,
                        text: n,
                    };
                    rx = Some(self.parse_u64(line_no, value, "rx buffer size")? as usize);
                }
                Some(("listen", list)) => {
                    for part in list.split(',') {
                        let channel: u8 = part.parse().map_err(|_| {
                            self.err(
                                line_no,
                                tok.col,
                                format!("malformed listen channel `{part}`"),
                            )
                        })?;
                        if channel > 0xF {
                            return Err(self.err(
                                line_no,
                                tok.col,
                                format!("listen channel {channel} out of range (0..=15)"),
                            ));
                        }
                        listen.push(channel);
                    }
                }
                Some((other, _)) => {
                    return Err(self.err(line_no, tok.col, format!("unknown node field `{other}`")))
                }
            }
        }
        let Some(prefix) = prefix else {
            let (l, c) = self.after(line_no, line);
            return Err(self.err(l, c, "missing `prefix=` on node line"));
        };
        let nodes = &mut self.workload().nodes;
        let mut spec = NodeSpec::new(name.unwrap_or_else(|| format!("n{}", nodes.len())), prefix);
        if let Some(short) = short {
            spec = spec.with_short_prefix(short);
        }
        spec = spec.power_aware(gated);
        if let Some(bytes) = rx {
            spec = spec.with_rx_buffer(bytes);
        }
        for channel in listen {
            if let Ok(channel) = BroadcastChannel::new(channel) {
                spec = spec.listen(channel);
            }
        }
        nodes.push(spec);
        Ok(())
    }

    fn parse_node_index(
        &mut self,
        line_no: u32,
        line: &str,
        toks: &[Tok<'a>],
        i: usize,
    ) -> Result<usize, TraceError> {
        let tok = self.need(line_no, line, toks, i, "node index")?;
        let node = self.parse_u64(line_no, tok, "node index")? as usize;
        let declared = self.workload().nodes.len();
        if node >= declared {
            return Err(self.err(
                line_no,
                tok.col,
                format!("node index {node} out of range ({declared} node(s) declared)"),
            ));
        }
        Ok(node)
    }

    fn parse_fleet_id(
        &mut self,
        line_no: u32,
        line: &str,
        toks: &[Tok<'a>],
        i: usize,
    ) -> Result<FleetNodeId, TraceError> {
        let tok = self.need(line_no, line, toks, i, "fleet node id (cluster.node)")?;
        let Some((c, n)) = split_at_dot(tok.text) else {
            return Err(self.err(
                line_no,
                tok.col,
                format!(
                    "malformed fleet node id `{}` (expected cluster.node)",
                    tok.text
                ),
            ));
        };
        let (Ok(cluster), Ok(node)) = (c.parse::<usize>(), n.parse::<usize>()) else {
            return Err(self.err(
                line_no,
                tok.col,
                format!(
                    "malformed fleet node id `{}` (expected cluster.node)",
                    tok.text
                ),
            ));
        };
        let clusters = &self.fleet().clusters;
        let declared = clusters.len();
        let Some(sensors) = clusters.get(cluster).map(Vec::len) else {
            return Err(self.err(
                line_no,
                tok.col,
                format!("cluster index {cluster} out of range ({declared} cluster(s) declared)"),
            ));
        };
        if node > sensors {
            return Err(self.err(
                line_no,
                tok.col,
                format!(
                    "node index {node} out of range on cluster {cluster} \
                     ({sensors} sensor(s) + gateway)"
                ),
            ));
        }
        Ok(FleetNodeId::new(cluster, node))
    }

    /// Parses `route <domain> <lo>..<hi> <via>` — a hierarchical mesh
    /// route. The next hop must already be declared and must sit in a
    /// different domain (a same-domain next hop can never make
    /// progress: the route would re-match forever).
    fn parse_route(
        &mut self,
        line_no: u32,
        line: &str,
        toks: &[Tok<'a>],
    ) -> Result<(), TraceError> {
        let domain_tok = self.need(line_no, line, toks, 1, "route domain")?;
        let domain = self.parse_u64(line_no, domain_tok, "route domain")? as usize;
        let range_tok = self.need(line_no, line, toks, 2, "cluster range (lo..hi)")?;
        let bad_range = || {
            self.err(
                line_no,
                range_tok.col,
                format!(
                    "malformed cluster range `{}` (expected lo..hi)",
                    range_tok.text
                ),
            )
        };
        let Some((lo, hi)) = range_tok.text.split_once("..") else {
            return Err(bad_range());
        };
        let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) else {
            return Err(bad_range());
        };
        if lo > hi {
            return Err(self.err(
                line_no,
                range_tok.col,
                format!("empty cluster range {lo}..{hi} (lo must not exceed hi)"),
            ));
        }
        let via_tok = self.need(line_no, line, toks, 3, "next-hop cluster")?;
        let via = self.parse_u64(line_no, via_tok, "next-hop cluster")? as usize;
        let domains = &self.fleet().domains;
        let declared = domains.len();
        let Some(&via_domain) = domains.get(via) else {
            return Err(self.err(
                line_no,
                via_tok.col,
                format!("next-hop cluster {via} out of range ({declared} cluster(s) declared)"),
            ));
        };
        if via_domain == domain {
            return Err(self.err(
                line_no,
                via_tok.col,
                format!("mesh route cycle: next hop {via} is in the route's own domain {domain}"),
            ));
        }
        self.end(line_no, toks, 4)?;
        self.fleet().routes.push(MeshRoute {
            domain,
            lo,
            hi,
            via,
        });
        Ok(())
    }

    /// Parses the behavior tail of a `behavior <id> …` line, starting
    /// at the kind token (index 2).
    fn parse_behavior(
        &self,
        line_no: u32,
        line: &str,
        toks: &[Tok<'a>],
    ) -> Result<NodeBehavior, TraceError> {
        let kind_tok = self.need(line_no, line, toks, 2, "behavior kind (reply|agg|cascade)")?;
        let (next, threshold, fanout) = match kind_tok.text {
            "reply" => (3, None, None),
            "agg" => {
                let tok = self.need(line_no, line, toks, 3, "aggregate threshold")?;
                let n = self.parse_u64(line_no, tok, "aggregate threshold")?;
                if n == 0 || n > u32::MAX as u64 {
                    return Err(self.err(
                        line_no,
                        tok.col,
                        format!("aggregate threshold {n} out of range (1..=4294967295)"),
                    ));
                }
                (4, Some(n as u32), None)
            }
            "cascade" => {
                let tok = self.need(line_no, line, toks, 3, "cascade fanout")?;
                let n = self.parse_u64(line_no, tok, "cascade fanout")?;
                if n == 0 || n > 255 {
                    return Err(self.err(
                        line_no,
                        tok.col,
                        format!("cascade fanout {n} out of range (1..=255)"),
                    ));
                }
                (4, None, Some(n as u8))
            }
            other => {
                return Err(self.err(
                    line_no,
                    kind_tok.col,
                    format!("unknown behavior kind `{other}` (expected reply, agg, or cascade)"),
                ))
            }
        };
        let fu_tok = self.need(line_no, line, toks, next, "behavior functional unit")?;
        let fu = self.parse_fu(line_no, fu_tok)?;
        let payload_tok = self.need(line_no, line, toks, next + 1, "payload hex (or -)")?;
        let payload = self.parse_payload(line_no, payload_tok)?;
        if payload.len() > MAX_BEHAVIOR_PAYLOAD {
            return Err(self.err(
                line_no,
                payload_tok.col,
                format!(
                    "behavior payload is {} byte(s) (max {MAX_BEHAVIOR_PAYLOAD})",
                    payload.len()
                ),
            ));
        }
        self.end(line_no, toks, next + 2)?;
        Ok(match (threshold, fanout) {
            (Some(n), None) => NodeBehavior::AggregateAck { n, fu, payload },
            (None, Some(fanout)) => NodeBehavior::AlarmCascade {
                fanout,
                fu,
                payload,
            },
            _ => NodeBehavior::Reply { fu, payload },
        })
    }

    fn parse_addr(&self, line_no: u32, tok: Tok<'a>) -> Result<Address, TraceError> {
        let bad = |detail: &str| {
            self.err(
                line_no,
                tok.col,
                format!(
                    "malformed address `{}` ({detail}; expected 0xP.F, full:0xPPPPP.F, \
                     or bcast.C)",
                    tok.text
                ),
            )
        };
        if let Some(rest) = tok.text.strip_prefix("bcast.") {
            let channel: u8 = rest.parse().map_err(|_| bad("bad broadcast channel"))?;
            let channel = BroadcastChannel::new(channel)
                .map_err(|_| bad("broadcast channel out of range (0..=15)"))?;
            return Ok(Address::broadcast(channel));
        }
        let (full, body) = match tok.text.strip_prefix("full:") {
            Some(rest) => (true, rest),
            None => (false, tok.text),
        };
        let Some((prefix, fu)) = body.rsplit_once('.') else {
            return Err(bad("missing `.fu` suffix"));
        };
        let Some(prefix_hex) = prefix.strip_prefix("0x") else {
            return Err(bad("prefix must be 0x-prefixed hex"));
        };
        let prefix_raw = u32::from_str_radix(prefix_hex, 16).map_err(|_| bad("bad prefix hex"))?;
        let fu_raw = u8::from_str_radix(fu, 16).map_err(|_| bad("bad functional unit"))?;
        let fu = FuId::new(fu_raw).map_err(|_| bad("functional unit out of range"))?;
        if full {
            let prefix = FullPrefix::new(prefix_raw)
                .map_err(|_| bad("full prefix out of range (20 bits)"))?;
            Ok(Address::full(prefix, fu))
        } else {
            let prefix = short_prefix(prefix_raw)
                .ok_or_else(|| bad("short prefix out of range (0x1..=0xE)"))?;
            Ok(Address::short(prefix, fu))
        }
    }

    fn parse_payload(&self, line_no: u32, tok: Tok<'a>) -> Result<Vec<u8>, TraceError> {
        if tok.text == "-" {
            return Ok(Vec::new());
        }
        let hex = tok.text;
        if !hex.len().is_multiple_of(2) {
            return Err(self.err(
                line_no,
                tok.col,
                format!("odd-length payload hex `{hex}` ({} digit(s))", hex.len()),
            ));
        }
        let mut payload = Vec::with_capacity(hex.len() / 2);
        for (pair, digits) in hex.as_bytes().chunks_exact(2).enumerate() {
            let (high, low) = (HEX_VALUE[digits[0] as usize], HEX_VALUE[digits[1] as usize]);
            if high == NOT_HEX || low == NOT_HEX {
                // Every earlier pair was two ASCII digits, so this one
                // starts a char; show it up to the next char boundary.
                let at = 2 * pair;
                let end = (at + 2..hex.len())
                    .find(|&end| hex.is_char_boundary(end))
                    .unwrap_or(hex.len());
                return Err(self.err(
                    line_no,
                    tok.col + at as u32,
                    format!("invalid payload hex digit in `{}`", &hex[at..end]),
                ));
            }
            payload.push(high << 4 | low);
        }
        Ok(payload)
    }

    fn parse_prio(&self, line_no: u32, toks: &[Tok<'a>], i: usize) -> Result<bool, TraceError> {
        match toks.get(i) {
            None => Ok(false),
            Some(tok) if tok.text == "prio" => self.end(line_no, toks, i + 1).map(|()| true),
            Some(tok) => Err(self.err(
                line_no,
                tok.col,
                format!(
                    "unexpected trailing token `{}` (only `prio` may follow)",
                    tok.text
                ),
            )),
        }
    }

    /// Rejects a checked queue step whose payload exceeds the trace's
    /// `maxmsg`, which the engine's queue would refuse at replay.
    fn check_len(
        &self,
        line_no: u32,
        payload: Tok<'a>,
        msg: &Message,
        hint: &str,
    ) -> Result<(), TraceError> {
        msg.validate(&self.config)
            .map_err(|e| self.err(line_no, payload.col, format!("payload too long: {e}{hint}")))
    }

    fn parse_msg(
        &self,
        line_no: u32,
        line: &str,
        toks: &[Tok<'a>],
        i: usize,
    ) -> Result<Message, TraceError> {
        let addr_tok = self.need(line_no, line, toks, i, "destination address")?;
        let addr = self.parse_addr(line_no, addr_tok)?;
        let payload_tok = self.need(line_no, line, toks, i + 1, "payload hex (or -)")?;
        let payload = self.parse_payload(line_no, payload_tok)?;
        let mut msg = Message::new(addr, payload);
        if self.parse_prio(line_no, toks, i + 2)? {
            msg = msg.with_priority();
        }
        Ok(msg)
    }
}

/// A rest-of-line value (`name`, node `name=`): the line from byte
/// `start` on, spaces included, up to any trailing `\r`. `to_mbt`
/// ends the value with `\n`, and a kept `\r` would turn that into a
/// CRLF ending that `str::lines` strips on the next parse.
fn rest_of_line(line: &str, start: usize) -> &str {
    line[start..].trim_end_matches('\r')
}

/// `text.split_once('.')` by a byte search: the char-pattern searcher
/// costs more than the rest of a fleet node id's parse.
fn split_at_dot(text: &str) -> Option<(&str, &str)> {
    let dot = text.bytes().position(|b| b == b'.')?;
    Some((&text[..dot], &text[dot + 1..]))
}

/// A short prefix from its parsed hex: `None` unless it is 0x1..=0xE.
fn short_prefix(raw: u32) -> Option<ShortPrefix> {
    u8::try_from(raw)
        .ok()
        .and_then(|raw| ShortPrefix::new(raw).ok())
}

/// Marks a byte that is no hex digit in [`HEX_VALUE`].
const NOT_HEX: u8 = 0xFF;

/// Each byte's hex digit value (either case), or [`NOT_HEX`].
const HEX_VALUE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        let digit = b"0123456789abcdef"[i];
        table[digit as usize] = i as u8;
        table[digit.to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

// ----------------------------------------------------------------------
// Signature digests
// ----------------------------------------------------------------------

/// A 64-bit FNV-1a accumulator over a canonical field encoding — the
/// digest golden traces pin with `expect sig=`. Deliberately *not*
/// `std::hash::Hasher`-based: the encoding must stay stable across
/// Rust releases and refactors of the signature types' `Debug` shape.
#[derive(Clone, Copy, Debug)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

fn outcome_code(outcome: TxOutcome) -> u8 {
    match outcome {
        TxOutcome::Acked => 0,
        TxOutcome::Nacked => 1,
        TxOutcome::ReceiverAbort => 2,
        TxOutcome::LengthEnforced => 3,
        TxOutcome::NoDestination => 4,
        TxOutcome::LostArbitration => 5,
        TxOutcome::Interrupted => 6,
    }
}

fn digest_records(h: &mut Fnv, records: &[EngineRecord]) {
    h.usize(records.len());
    for r in records {
        h.u64(r.seq);
        h.u64(r.cycles);
        match r.winner {
            Some(node) => {
                h.u8(1);
                h.usize(node);
            }
            None => h.u8(0),
        }
        h.usize(r.delivered_to.len());
        for node in r.delivered_to.iter() {
            h.usize(node);
        }
        h.u8(outcome_code(r.outcome));
        h.bool(r.control.bit0);
        h.bool(r.control.bit1);
    }
}

fn digest_scenario_into(h: &mut Fnv, sig: &ScenarioSignature) {
    digest_records(h, &sig.records);
    h.usize(sig.deliveries.len());
    for log in &sig.deliveries {
        h.usize(log.len());
        for (from, dest, payload) in log {
            h.usize(*from);
            h.bytes(&dest.encode());
            h.usize(payload.len());
            h.bytes(payload);
        }
    }
    match &sig.wakes {
        Some((wake_events, layer_wakes)) => {
            h.u8(1);
            h.usize(wake_events.len());
            for &n in wake_events {
                h.u64(n);
            }
            h.usize(layer_wakes.len());
            for &n in layer_wakes {
                h.u64(n);
            }
        }
        None => h.u8(0),
    }
}

/// Reduces a [`ScenarioSignature`] to a stable 64-bit digest over a
/// canonical field encoding (independent of `Debug` formatting and the
/// standard library's hashers). Equal signatures always digest
/// equally; corpus traces pin this value with `expect sig=`.
pub fn scenario_digest(sig: &ScenarioSignature) -> u64 {
    let mut h = Fnv::new();
    h.u8(b'w');
    digest_scenario_into(&mut h, sig);
    h.0
}

/// Reduces a [`FleetSignature`] to a stable 64-bit digest; the fleet
/// counterpart of [`scenario_digest`].
pub fn fleet_digest(sig: &FleetSignature) -> u64 {
    let mut h = Fnv::new();
    h.u8(b'f');
    h.usize(sig.clusters.len());
    for cluster in &sig.clusters {
        digest_scenario_into(&mut h, cluster);
    }
    h.u64(sig.forwarded);
    h.u64(sig.dropped);
    h.usize(sig.cluster_drops.len());
    for &n in &sig.cluster_drops {
        h.u64(n);
    }
    // Mesh fields entered the signature in format v2; they are hashed
    // only when nonzero so every pre-mesh pinned digest stays valid.
    if sig.hop_forwards != 0 {
        h.u8(b'h');
        h.u64(sig.hop_forwards);
    }
    if sig.ttl_drops.iter().any(|&n| n != 0) {
        h.u8(b't');
        h.usize(sig.ttl_drops.len());
        for &n in &sig.ttl_drops {
            h.u64(n);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;

    fn roundtrip(tf: &TraceFile) -> TraceFile {
        let text = tf.to_mbt();
        TraceFile::parse_str("test.mbt", &text).expect("round-trip parse")
    }

    #[test]
    fn workload_round_trips_structurally() {
        let w = Workload::fault_injection();
        let tf = TraceFile::workload(w.clone()).with_seed(7);
        let parsed = roundtrip(&tf);
        let Trace::Workload(p) = &parsed.trace else {
            panic!("kind flipped");
        };
        assert_eq!(p.name(), w.name());
        assert_eq!(p.node_specs().len(), w.node_specs().len());
        assert_eq!(p.steps().len(), w.steps().len());
        assert_eq!(p.strict_nulls(), w.strict_nulls());
        assert_eq!(parsed.meta.seed, Some(7));
        assert_eq!(
            scenario_digest(&p.run_on(EngineKind::Analytic).signature()),
            scenario_digest(&w.run_on(EngineKind::Analytic).signature()),
        );
    }

    #[test]
    fn fleet_round_trips_structurally() {
        let w = FleetWorkload::cross_storm(3, 2, 2);
        let tf = TraceFile::fleet(w.clone());
        let parsed = roundtrip(&tf);
        let Trace::Fleet(p) = &parsed.trace else {
            panic!("kind flipped");
        };
        assert_eq!(p.name(), w.name());
        assert_eq!(p.cluster_specs(), w.cluster_specs());
        assert_eq!(p.steps().len(), w.steps().len());
        assert_eq!(
            fleet_digest(&p.run_on(EngineKind::Analytic).signature()),
            fleet_digest(&w.run_on(EngineKind::Analytic).signature()),
        );
    }

    #[test]
    fn meta_round_trips() {
        let mut tf = TraceFile::workload(Workload::many_node_storm(3, 1)).with_seed(99);
        tf.meta.engine = Some(EngineKind::Wire);
        tf.meta.schedule = Some(FleetSchedule::Sharded { shards: 4 });
        tf.meta.expect_sig = Some(0x0123_4567_89ab_cdef);
        let parsed = roundtrip(&tf);
        assert_eq!(parsed.meta, tf.meta);
    }

    #[test]
    fn queue_steps_that_would_fail_at_replay_are_rejected() {
        let long = "ab".repeat(1025);
        let bus = "mbt 1 workload\nname w\nnode prefix=0x00300 short=0x1 name=n0\n";
        let fleet = "mbt 1 fleet\nname f\ncluster aa\n";
        let envelope: String = crate::fleet::GatewayNode::encapsulate(
            FullPrefix::new(0x00002).unwrap(),
            FuId::ZERO,
            &[0xaa],
        )
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
        // Each rejection points at the payload token.
        let rejected = [
            (format!("{fleet}local 0.1 0x2.0 {long}\n"), 17),
            (format!("{fleet}local 0.2 full:0x0000F.0 00\n"), 26),
        ];
        for (text, col) in &rejected {
            let err = TraceFile::parse_str("t.mbt", text).expect_err("must be rejected");
            assert_eq!((err.line, err.col), (4, *col), "{err}");
        }
        let accepted = [
            // Unchecked sends exist to exercise the runaway counter.
            format!("{bus}send! 0 0x1.0 {long}\n"),
            // Local gateway traffic on a non-forwarding fu, and a real
            // envelope on the forwarding port.
            format!("{fleet}local 0.1 0x1.1 00\n"),
            format!("{fleet}local 0.1 0x1.0 {envelope}\n"),
        ];
        for text in &accepted {
            TraceFile::parse_str("t.mbt", text).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn event_engine_header_is_an_analytic_alias() {
        let text = TraceFile::workload(Workload::many_node_storm(3, 1))
            .to_mbt()
            .replacen("\nconfig ", "\nreplay engine=event\nconfig ", 1);
        let parsed = TraceFile::parse_str("alias.mbt", &text).expect("event parses");
        assert_eq!(parsed.meta.engine, Some(EngineKind::Analytic));
        let reserialized = parsed.to_mbt();
        assert!(
            reserialized.contains("replay engine=analytic\n"),
            "{reserialized}"
        );
        assert!(!reserialized.contains("engine=event"), "{reserialized}");
    }

    #[test]
    fn every_step_kind_survives() {
        let w = Workload::new("steps", BusConfig::default())
            .node(
                NodeSpec::new("a", FullPrefix::new(0x1).unwrap())
                    .with_short_prefix(ShortPrefix::new(0x1).unwrap()),
            )
            .node(
                NodeSpec::new("b", FullPrefix::new(0x2).unwrap())
                    .with_short_prefix(ShortPrefix::new(0x2).unwrap())
                    .power_aware(true)
                    .with_rx_buffer(8)
                    .listen(BroadcastChannel::new(7).unwrap()),
            )
            .send(
                0,
                Message::new(
                    Address::short(ShortPrefix::new(0x2).unwrap(), FuId::ZERO),
                    vec![1, 2],
                )
                .with_priority(),
            )
            .send_unchecked(
                0,
                Message::new(
                    Address::full(FullPrefix::new(0x2).unwrap(), FuId::new(3).unwrap()),
                    vec![],
                ),
            )
            .send(
                1,
                Message::new(Address::broadcast(BroadcastChannel::MEMBER_EVENT), vec![9]),
            )
            .wakeup(1)
            .drain_partial(2)
            .drain()
            .allow_wake_nulls();
        let parsed = roundtrip(&TraceFile::workload(w.clone()));
        let Trace::Workload(p) = &parsed.trace else {
            panic!("kind flipped");
        };
        // Structural equality, step by step.
        assert_eq!(format!("{:?}", p.steps()), format!("{:?}", w.steps()));
        assert_eq!(
            format!("{:?}", p.node_specs()),
            format!("{:?}", w.node_specs())
        );
        assert!(!p.strict_nulls());
    }

    #[test]
    fn errors_carry_exact_spans() {
        let text =
            "mbt 1 workload\nname t\nnode prefix=0x00001 short=0x1 name=a\nsend 3 0x1.0 aa\n";
        let err = TraceFile::parse_str("t.mbt", text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "t.mbt:4:6: node index 3 out of range (1 node(s) declared)"
        );
    }

    #[test]
    fn duplicate_seed_is_one_exact_error() {
        let text = "mbt 1 workload\nname t\nseed 1\nseed 2\n";
        let err = TraceFile::parse_str("t.mbt", text).unwrap_err();
        assert_eq!(err.line, 4);
        assert_eq!(err.col, 1);
        assert!(err.message.contains("duplicate `seed`"));
    }

    #[test]
    fn cluster_past_the_fleet_limit_is_a_spanned_error() {
        // Exactly MAX_CLUSTERS clusters parse; one more is rejected at
        // its `cluster` token instead of panicking at instantiate.
        let mut text = String::from("mbt 1 fleet\nname t\n");
        text.push_str(&"cluster -\n".repeat(MAX_CLUSTERS));
        TraceFile::parse_str("t.mbt", &text).unwrap_or_else(|e| panic!("{e}"));
        text.push_str("  cluster a\n");
        let err = TraceFile::parse_str("t.mbt", &text).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "t.mbt:{}:3: too many clusters (a fleet holds at most {MAX_CLUSTERS})",
                MAX_CLUSTERS + 3
            )
        );
    }

    #[test]
    fn balance_is_an_unknown_replay_field() {
        let text = "mbt 1 workload\nname t\nreplay balance=static\n";
        let err = TraceFile::parse_str("t.mbt", text).unwrap_err();
        assert_eq!(err.to_string(), "t.mbt:3:8: unknown replay field `balance`");
    }

    #[test]
    fn v2_round_trips_behaviors_routes_and_ttl() {
        let w = FleetWorkload::new("v2", BusConfig::default())
            .cluster_in(0, vec![false, false])
            .cluster_in(1, vec![false])
            .route(0, 1, 1, 1)
            .route(1, 0, 0, 0)
            .behavior(
                FleetNodeId::new(0, 1),
                NodeBehavior::Reply {
                    fu: FuId::new(3).unwrap(),
                    payload: vec![0xAC],
                },
            )
            .behavior(
                FleetNodeId::new(0, 2),
                NodeBehavior::AlarmCascade {
                    fanout: 2,
                    fu: FuId::new(5).unwrap(),
                    payload: vec![1, 2],
                },
            )
            .behavior(
                FleetNodeId::new(1, 1),
                NodeBehavior::AggregateAck {
                    n: 2,
                    fu: FuId::new(4).unwrap(),
                    payload: vec![],
                },
            )
            .with_reply_horizon(4)
            .send_remote_ttl(
                FleetNodeId::new(0, 1),
                FleetNodeId::new(1, 1),
                FuId::ZERO,
                vec![0xAA],
                2,
            )
            .drain();
        let tf = TraceFile::fleet(w.clone());
        let text = tf.to_mbt();
        assert!(text.starts_with("mbt 2 fleet\n"), "{text}");
        assert!(text.contains("horizon 4\n"), "{text}");
        assert!(text.contains("ttl=2"), "{text}");
        let parsed = roundtrip(&tf);
        let Trace::Fleet(p) = &parsed.trace else {
            panic!("kind flipped");
        };
        assert_eq!(p.cluster_domains(), w.cluster_domains());
        assert_eq!(p.mesh_routes(), w.mesh_routes());
        assert_eq!(p.behaviors(), w.behaviors());
        assert_eq!(p.reply_horizon(), w.reply_horizon());
        assert_eq!(format!("{:?}", p.steps()), format!("{:?}", w.steps()));
        assert_eq!(
            fleet_digest(&p.run_on(EngineKind::Analytic).signature()),
            fleet_digest(&w.run_on(EngineKind::Analytic).signature()),
        );
    }

    #[test]
    fn workload_behavior_table_round_trips() {
        let w = Workload::new("wb", BusConfig::default())
            .node(
                NodeSpec::new("a", FullPrefix::new(1).unwrap())
                    .with_short_prefix(ShortPrefix::new(1).unwrap()),
            )
            .node(
                NodeSpec::new("b", FullPrefix::new(2).unwrap())
                    .with_short_prefix(ShortPrefix::new(2).unwrap()),
            )
            .behavior(
                1,
                NodeBehavior::Reply {
                    fu: FuId::new(2).unwrap(),
                    payload: vec![0xEE],
                },
            )
            .send(
                0,
                Message::new(
                    Address::short(ShortPrefix::new(2).unwrap(), FuId::ZERO),
                    vec![1],
                ),
            )
            .drain();
        let tf = TraceFile::workload(w.clone());
        assert!(
            tf.to_mbt().starts_with("mbt 2 workload\n"),
            "{}",
            tf.to_mbt()
        );
        let parsed = roundtrip(&tf);
        let Trace::Workload(p) = &parsed.trace else {
            panic!("kind flipped");
        };
        assert_eq!(p.behaviors(), w.behaviors());
        assert_eq!(
            scenario_digest(&p.run_on(EngineKind::Analytic).signature()),
            scenario_digest(&w.run_on(EngineKind::Analytic).signature()),
        );
    }

    /// Traces using no v2 construct keep serializing as version 1,
    /// byte-compatible with every pre-mesh consumer and golden file.
    #[test]
    fn v1_traces_still_serialize_as_v1() {
        let text = TraceFile::fleet(FleetWorkload::cross_storm(3, 2, 2)).to_mbt();
        assert!(text.starts_with("mbt 1 fleet\n"), "{text}");
        assert!(!text.contains("behavior "), "{text}");
        assert!(!text.contains("route "), "{text}");
        assert!(!text.contains("ttl="), "{text}");
        assert!(!text.contains("domain="), "{text}");
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let w = Workload::many_node_storm(4, 2);
        let a = scenario_digest(&w.run_on(EngineKind::Analytic).signature());
        let b = scenario_digest(&w.run_on(EngineKind::Wire).signature());
        assert_eq!(a, b, "identical signatures digest identically");
        let other = scenario_digest(
            &Workload::many_node_storm(4, 3)
                .run_on(EngineKind::Analytic)
                .signature(),
        );
        assert_ne!(a, other, "different behavior digests differently");
    }

    #[test]
    fn non_default_config_round_trips() {
        let config = BusConfig::new(1_000_000)
            .unwrap()
            .with_max_message_bytes(2048)
            .unwrap()
            .with_hop_delay(mbus_sim::SimTime::from_ps(5_000))
            .unwrap()
            .with_mediator_wakeup_cycles(3);
        let w = Workload::new("cfg", config).node(
            NodeSpec::new("a", FullPrefix::new(0x1).unwrap())
                .with_short_prefix(ShortPrefix::new(0x1).unwrap()),
        );
        let parsed = roundtrip(&TraceFile::workload(w));
        let Trace::Workload(p) = &parsed.trace else {
            panic!("kind flipped");
        };
        assert_eq!(*p.config(), config);
    }
}
