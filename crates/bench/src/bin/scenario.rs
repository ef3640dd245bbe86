//! Trace-driven scenario replay: run any `.mbt` trace file against
//! every engine kind × fleet schedule and emit a machine-readable
//! report — the CLI face of `mbus_core::trace`.
//!
//! Three subcommands:
//!
//! * `replay <file.mbt>... [--shards 2,4] [--out <path>]` — parse each
//!   trace, replay it across all comparable engine kinds (fleet traces
//!   also sweep batched / interleaved / sharded schedules), verify
//!   every cell produces the identical signature digest and that any
//!   `expect sig=` pin matches, and write a JSON report
//!   (`BENCH_scenario.json` by default; CI uploads it as an artifact).
//!   Exits nonzero if any trace disagrees, fails its pin, or fails to
//!   parse.
//! * `export <builtin> [--pin] [--out <path>]` — serialize a built-in
//!   workload (`storm`, `sense-aggregate`, `hostile`, `partial-drain`,
//!   `gateway-forwarding`, the closed-loop 1024-bus mesh shapes
//!   `duty-cycle-day` / `alarm-cascade` / `aggregate-fanin`,
//!   `seeded:<n>`, `fleet-seeded:<n>`) as a `.mbt` file; `--pin`
//!   replays it first and embeds the agreed digest as an `expect
//!   sig=` header. This is how `tests/corpus/` was generated.
//! * `fuzz [--seeds <n>] [--start <n>] [--out-dir <dir>]` — walk
//!   generator seeds (single-bus and fleet), cross-check every
//!   comparable engine kind's digest, and on divergence shrink the
//!   workload with `mbus_core::trace::shrink` and write both the full
//!   and the minimized `.mbt` repro. Exits nonzero on any divergence
//!   (the weekly-fuzz CI job uploads the minimized traces).
//!
//! Usage: `cargo run --release -p mbus-bench --bin scenario -- <subcommand> ...`

use std::process::ExitCode;

use mbus_bench::harness::smoke_mode;
use mbus_bench::json::Json;
use mbus_bench::scenario::{builtin, replay_trace, BUILTINS};
use mbus_core::trace::{fleet_digest, scenario_digest, TraceFile};
use mbus_core::{
    shrink_fleet, shrink_workload, EngineKind, FleetSchedule, FleetWorkload, Workload,
};

/// Prints `error` (a command-line mistake) and the usage text; exit 2.
fn usage(error: &str) -> ExitCode {
    eprintln!(
        "error: {error}\n\
         usage: scenario replay <file.mbt>... [--shards n,m] [--out <path>]\n\
         \x20      scenario export <builtin> [--pin] [--out <path>]\n\
         \x20      scenario fuzz [--seeds <n>] [--start <n>] [--out-dir <dir>]\n\
         builtins: {} seeded:<n> fleet-seeded:<n>",
        BUILTINS.join(" ")
    );
    ExitCode::from(2)
}

/// A subcommand's outcome, or the command-line mistake that stopped
/// it before it ran (reported by [`usage`]).
type CmdResult = Result<ExitCode, String>;

/// Pulls the value following `flag` out of `args`, removing both. A
/// `flag` with no value after it is an error.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Parses the number `value` given to `flag`.
fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a number"))
}

/// Parses a `--shards` list: comma-separated shard counts, each ≥ 1.
fn parse_shards(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|n| match parse_num("--shards", n)? {
            0 => Err("--shards: a shard count must be at least 1".to_string()),
            n => Ok(n),
        })
        .collect()
}

fn cmd_replay(mut args: Vec<String>) -> CmdResult {
    let out = take_flag(&mut args, "--out")?.unwrap_or_else(|| "BENCH_scenario.json".to_string());
    let shards = match take_flag(&mut args, "--shards")? {
        Some(list) => parse_shards(&list)?,
        None => vec![2],
    };
    if args.is_empty() {
        return Err("replay needs at least one trace file".to_string());
    }
    let mut traces = Vec::new();
    let mut all_ok = true;
    for path in &args {
        let tf = match TraceFile::parse_file(path) {
            Ok(tf) => tf,
            Err(err) => {
                eprintln!("error: {err}");
                all_ok = false;
                traces.push(Json::obj([
                    ("trace", path.as_str().into()),
                    ("error", err.to_string().into()),
                    ("ok", false.into()),
                ]));
                continue;
            }
        };
        let result = replay_trace(path, &tf, &shards);
        println!(
            "[{}] {} '{}' sig={:016x} {}",
            if result.ok { "ok" } else { "FAIL" },
            if tf.trace.is_fleet() {
                "fleet"
            } else {
                "workload"
            },
            tf.trace.name(),
            result.digest,
            if tf.trace.wire_comparable() {
                "(all engines)"
            } else {
                "(analytic only; partial drains)"
            },
        );
        all_ok &= result.ok;
        traces.push(result.json);
    }
    let artifact = Json::obj([
        ("bench", "scenario".into()),
        ("shards", Json::arr(shards.iter().copied())),
        ("ok", all_ok.into()),
        ("traces", Json::Arr(traces)),
    ]);
    if let Err(err) = std::fs::write(&out, format!("{artifact}\n")) {
        eprintln!("error: cannot write {out}: {err}");
        return Ok(ExitCode::FAILURE);
    }
    println!("wrote {out}");
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_export(mut args: Vec<String>) -> CmdResult {
    let out = take_flag(&mut args, "--out")?;
    let pin = if let Some(i) = args.iter().position(|a| a == "--pin") {
        args.remove(i);
        true
    } else {
        false
    };
    let [name] = args.as_slice() else {
        return Err("export takes exactly one builtin".to_string());
    };
    let Some(mut tf) = builtin(name) else {
        return Err(format!("unknown builtin `{name}`"));
    };
    if pin {
        let result = replay_trace(name, &tf, &[2]);
        if !result.ok {
            eprintln!("error: `{name}` does not replay cleanly; refusing to pin");
            return Ok(ExitCode::FAILURE);
        }
        tf = tf.with_expect_sig(result.digest);
    }
    let path = out.unwrap_or_else(|| format!("{}.mbt", name.replace([':', '/'], "-")));
    if let Err(err) = std::fs::write(&path, tf.to_mbt()) {
        eprintln!("error: cannot write {path}: {err}");
        return Ok(ExitCode::FAILURE);
    }
    println!("wrote {path}");
    Ok(ExitCode::SUCCESS)
}

/// Digests of one single-bus workload on every comparable engine kind.
fn workload_digests(w: &Workload) -> Vec<u64> {
    EngineKind::ALL
        .iter()
        .filter(|&&kind| w.wire_comparable() || kind != EngineKind::Wire)
        .map(|&kind| scenario_digest(&w.run_on(kind).signature()))
        .collect()
}

/// Digests of one fleet workload on every comparable engine kind ×
/// schedule.
fn fleet_digests(w: &FleetWorkload) -> Vec<u64> {
    let schedules = [
        FleetSchedule::Interleaved,
        FleetSchedule::Sharded { shards: 2 },
    ];
    EngineKind::ALL
        .iter()
        .filter(|&&kind| w.wire_comparable() || kind != EngineKind::Wire)
        .flat_map(|&kind| {
            schedules
                .iter()
                .map(move |&s| fleet_digest(&w.run_scheduled_on(kind, s).signature()))
        })
        .collect()
}

fn all_equal(digests: &[u64]) -> bool {
    digests.windows(2).all(|pair| pair[0] == pair[1])
}

/// Writes the full and shrunk `.mbt` repros for a diverging seed and
/// reports their paths.
fn write_repro(dir: &str, stem: &str, seed: u64, full: &TraceFile, min: &TraceFile) {
    for (suffix, tf) in [("full", full), ("min", min)] {
        let path = format!("{dir}/FUZZ_{stem}_{seed}.{suffix}.mbt");
        match std::fs::write(&path, tf.to_mbt()) {
            Ok(()) => println!("  wrote {path}"),
            Err(err) => eprintln!("  error: cannot write {path}: {err}"),
        }
    }
}

fn cmd_fuzz(mut args: Vec<String>) -> CmdResult {
    let dir = take_flag(&mut args, "--out-dir")?.unwrap_or_else(|| ".".to_string());
    let start: u64 = match take_flag(&mut args, "--start")? {
        Some(v) => parse_num("--start", &v)?,
        None => 0,
    };
    let seeds: u64 = match take_flag(&mut args, "--seeds")? {
        Some(v) => parse_num("--seeds", &v)?,
        None if smoke_mode() => 10,
        None => 100,
    };
    if let Some(extra) = args.first() {
        return Err(format!("fuzz: unexpected argument `{extra}`"));
    }
    println!("scenario fuzz: seeds {start}..{} into {dir}", start + seeds);
    let mut failures = 0u64;
    for seed in start..start + seeds {
        let w = Workload::seeded(seed);
        if !all_equal(&workload_digests(&w)) {
            failures += 1;
            println!("[FAIL] seed {seed}: engines disagree on '{}'", w.name());
            let min = shrink_workload(&w, &mut |c| !all_equal(&workload_digests(c)));
            write_repro(
                &dir,
                "workload",
                seed,
                &TraceFile::workload(w).with_seed(seed),
                &TraceFile::workload(min).with_seed(seed),
            );
        }
        let f = FleetWorkload::seeded(seed);
        if !all_equal(&fleet_digests(&f)) {
            failures += 1;
            println!(
                "[FAIL] seed {seed}: engines/schedules disagree on '{}'",
                f.name()
            );
            let min = shrink_fleet(&f, &mut |c| !all_equal(&fleet_digests(c)));
            write_repro(
                &dir,
                "fleet",
                seed,
                &TraceFile::fleet(f).with_seed(seed),
                &TraceFile::fleet(min).with_seed(seed),
            );
        }
    }
    if failures == 0 {
        println!("all {seeds} seeds agree across engines and schedules");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("{failures} diverging seed(s); minimized repros written to {dir}");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--smoke` is a harness-wide flag; strip it so subcommand
    // parsing doesn't trip over it (smoke_mode() already saw it).
    args.retain(|a| a != "--smoke");
    let result = match args.first().map(String::as_str) {
        Some("replay") => cmd_replay(args.split_off(1)),
        Some("export") => cmd_export(args.split_off(1)),
        Some("fuzz") => cmd_fuzz(args.split_off(1)),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err("missing subcommand".to_string()),
    };
    result.unwrap_or_else(|error| usage(&error))
}
