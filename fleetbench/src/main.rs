//! `fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's `.mbt` text from the seed, replays it for
//! the given wall time and prints one JSON result object as the last
//! line of standard output. Exits non-zero when any replay failed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use fleetbench::run::run;
use fleetbench::workloads::{WorkloadKind, DEFAULT_SEED};

const USAGE: &str = "usage: fleetbench --workload <storm_open|duty_closed|wire_sense> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadKind::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where the traced run writes its spans: under the build directory
/// (`CARGO_TARGET_DIR`, default `.bench_build`) of the working
/// directory.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(base)
        .join("fleetbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("fleetbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kind = args.workload;
    let text = kind.generate(kind.full_size(), args.seed);
    let outcome = match run(&text, Duration::from_secs_f64(args.seconds), args.trace) {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("fleetbench: {}: reference run failed: {why}", kind.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(spans) = &outcome.spans {
        let path = spans_path(kind.name(), args.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans.to_jsonl()));
        match written {
            Ok(()) => eprintln!("fleetbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("fleetbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "fleetbench: {} seed={} trace={} operations={} failed={} error_rate={}",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.error_rate()
    );
    for m in &outcome.metrics {
        eprintln!(
            "  {:<26} {:>16.6} {:<7} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
