//! One replay — the operation every end-to-end metric times — and the
//! untimed reference it is checked against.
//!
//! A replay receives only the generated `.mbt` text: parse →
//! [`FleetWorkload::instantiate`] on the header's engine →
//! [`FleetWorkload::apply_sharded`] on the header's shard count →
//! [`FleetReport::signature`] → [`fleet_digest`].

use std::time::{Duration, Instant};

use mbus_core::fleet::FleetStep;
use mbus_core::{
    fleet_digest, EngineKind, Fleet, FleetReport, FleetSchedule, FleetWorkload, FullPrefix,
    ShardedFleet, Trace, TraceFile, TraceMeta,
};

use crate::energy::pj_per_delivered_bit;
use crate::now;

/// The source name parse errors carry.
const SOURCE: &str = "<generated>";

/// A parsed fleet trace: the workload plus its header.
pub struct Parsed {
    /// The fleet workload.
    pub workload: FleetWorkload,
    /// Header metadata (engine, schedule, pin).
    pub meta: TraceMeta,
}

impl Parsed {
    /// The engine the header names (analytic when absent).
    pub fn engine(&self) -> EngineKind {
        self.meta.engine.unwrap_or(EngineKind::Analytic)
    }

    /// The shard count the header's `schedule=sharded:N` names (one
    /// when the header names another schedule or none).
    pub fn shards(&self) -> usize {
        match self.meta.schedule {
            Some(FleetSchedule::Sharded { shards }) => shards,
            _ => 1,
        }
    }

    /// The full prefix of every cross-cluster destination, in step
    /// order — the lookups the gateway's route table serves.
    pub fn remote_prefixes(&self) -> Vec<FullPrefix> {
        let fleet = self.workload.instantiate(self.engine());
        self.workload
            .steps()
            .iter()
            .filter_map(|step| match step {
                FleetStep::Remote { dest, .. } => Some(fleet.spec(*dest).full_prefix()),
                _ => None,
            })
            .collect()
    }
}

/// Parses generated `.mbt` text, which must describe a fleet.
///
/// # Errors
///
/// The parser's `file:line:col` message, or a note that the trace is a
/// single-bus workload.
pub fn parse(text: &str) -> Result<Parsed, String> {
    let file = TraceFile::parse_str(SOURCE, text).map_err(|e| e.to_string())?;
    match file.trace {
        Trace::Fleet(workload) => Ok(Parsed {
            workload,
            meta: file.meta,
        }),
        Trace::Workload(_) => Err(format!("{SOURCE}: not a fleet trace")),
    }
}

/// A replay cut short after the drain: parse → instantiate →
/// `apply_sharded`, with an instant taken around each call.
pub struct Drained {
    /// The header's `expect sig=` pin, if any.
    pub expect_sig: Option<u64>,
    /// The drained fleet, kept so that dropping it stays untimed.
    pub fleet: Fleet,
    /// The drain's report.
    pub report: FleetReport,
    /// Before the parse.
    pub start: Instant,
    /// After the parse.
    pub parsed: Instant,
    /// After `instantiate`.
    pub instantiated: Instant,
    /// After `apply_sharded`.
    pub drained: Instant,
}

impl Drained {
    /// Parse plus instantiate: the replay's set-up.
    pub fn setup(&self) -> Duration {
        self.instantiated - self.start
    }

    /// The `apply_sharded` call alone.
    pub fn drain(&self) -> Duration {
        self.drained - self.instantiated
    }
}

/// Parses generated `.mbt` text and drains it on the header's engine
/// and shard count.
///
/// # Errors
///
/// As [`parse`].
pub fn drain(text: &str) -> Result<Drained, String> {
    let start = now();
    let parsed = parse(text)?;
    let stamp_parsed = now();
    let mut fleet = parsed.workload.instantiate(parsed.engine());
    let instantiated = now();
    let mut sharded = ShardedFleet::new(parsed.shards());
    let report = parsed.workload.apply_sharded(&mut fleet, &mut sharded);
    let drained = now();
    Ok(Drained {
        expect_sig: parsed.meta.expect_sig,
        fleet,
        report,
        start,
        parsed: stamp_parsed,
        instantiated,
        drained,
    })
}

/// One full replay.
pub struct Replay {
    /// Everything up to and including the drain.
    pub drained: Drained,
    /// The signature digest.
    pub digest: u64,
    /// After `signature`.
    pub signed: Instant,
    /// After `fleet_digest`.
    pub digested: Instant,
}

impl Replay {
    /// The whole replay.
    pub fn total(&self) -> Duration {
        self.digested - self.drained.start
    }
}

/// Replays generated `.mbt` text once: [`drain`], then signature and
/// digest.
///
/// # Errors
///
/// As [`parse`].
pub fn replay(text: &str) -> Result<Replay, String> {
    let drained = drain(text)?;
    let signature = drained.report.signature();
    let signed = now();
    let digest = fleet_digest(&signature);
    let digested = now();
    Ok(Replay {
        drained,
        digest,
        signed,
        digested,
    })
}

/// The untimed batched run every replay must agree with.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    /// Signature digest of the batched drain.
    pub digest: u64,
    /// Modelled pJ per delivered bit of the batched drain.
    pub energy_pj_per_bit: f64,
    /// Transactions the batched drain ran.
    pub transactions: usize,
}

impl Reference {
    /// Runs the trace once under [`FleetSchedule::Batched`] on the
    /// header's engine.
    ///
    /// # Errors
    ///
    /// As [`parse`].
    pub fn compute(text: &str) -> Result<Reference, String> {
        let parsed = parse(text)?;
        let report = parsed
            .workload
            .run_scheduled_on(parsed.engine(), FleetSchedule::Batched);
        Ok(Reference {
            digest: fleet_digest(&report.signature()),
            energy_pj_per_bit: pj_per_delivered_bit(&report),
            transactions: report.transactions(),
        })
    }

    /// Why a drain disagrees with the reference, or `None` when it
    /// agrees: every schedule runs the same transactions, and the
    /// modelled energy must match exactly.
    pub fn drain_mismatch(&self, drained: &Drained) -> Option<String> {
        let transactions = drained.report.transactions();
        if transactions != self.transactions {
            return Some(format!(
                "{transactions} transactions differ from the batched reference {}",
                self.transactions
            ));
        }
        let energy = pj_per_delivered_bit(&drained.report);
        if energy.to_bits() != self.energy_pj_per_bit.to_bits() {
            return Some(format!(
                "energy {energy} pJ/bit differs from the batched reference {}",
                self.energy_pj_per_bit
            ));
        }
        None
    }

    /// Why a replay disagrees with its pin or the reference, or `None`
    /// when it agrees. Schedule independence makes the sharded digest
    /// equal to the batched one.
    pub fn mismatch(&self, replay: &Replay) -> Option<String> {
        if let Some(pin) = replay.drained.expect_sig {
            if replay.digest != pin {
                return Some(format!(
                    "digest {:016x} differs from the pin {pin:016x}",
                    replay.digest
                ));
            }
        }
        if replay.digest != self.digest {
            return Some(format!(
                "digest {:016x} differs from the batched reference {:016x}",
                replay.digest, self.digest
            ));
        }
        self.drain_mismatch(&replay.drained)
    }
}
