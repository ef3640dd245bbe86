//! The workspace lint driver.
//!
//! ```text
//! cargo run -p mbus-analysis --bin lint -- --workspace
//! cargo run -p mbus-analysis --bin lint -- crates/core/src/fleet/shard.rs
//! cargo run -p mbus-analysis --bin lint -- --workspace --markdown findings.md
//! ```
//!
//! `--workspace` walks every `.rs` file under the workspace root
//! (found by walking up from the current directory to the first
//! `Cargo.toml` containing `[workspace]`), skipping `target/`, `.git/`
//! and lint-fixture directories (`fixtures/` — those files *are* rule
//! violations, on purpose). Findings print one per line as
//! `file:line: [rule-id] message` and the exit code is non-zero when
//! any finding exists, so CI can gate on it. `--markdown PATH` also
//! appends a GitHub-flavored summary table (used for the CI step
//! summary).

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use mbus_analysis::rules::{check_file, Finding, RuleId};
use mbus_analysis::walk::{collect_rs_files, workspace_relative, workspace_root_from};

fn usage() -> ! {
    eprintln!(
        "usage: lint [--workspace] [--markdown PATH] [FILES...]\n\
         \n\
         --workspace      lint every .rs file under the workspace root\n\
         --markdown PATH  append a GitHub-flavored summary table to PATH\n\
         FILES            explicit files to lint (paths kept verbatim in findings)"
    );
    std::process::exit(2);
}

/// Renders findings as a GitHub-flavored markdown summary.
fn markdown(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("## mbus-analysis lint\n\n");
    if findings.is_empty() {
        out.push_str(&format!(
            "✅ No findings across {files_scanned} files — all four invariants hold.\n"
        ));
        return out;
    }
    out.push_str(&format!(
        "❌ **{} finding(s)** across {files_scanned} files.\n\n\
         | File | Line | Rule | Finding |\n|---|---|---|---|\n",
        findings.len()
    ));
    for f in findings {
        out.push_str(&format!(
            "| `{}` | {} | `{}` | {} |\n",
            f.file,
            f.line,
            f.rule,
            f.message.replace('|', "\\|")
        ));
    }
    out
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut markdown_path: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--markdown" => match args.next() {
                Some(p) => markdown_path = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => files.push(PathBuf::from(arg)),
        }
    }
    if !workspace && files.is_empty() {
        usage();
    }

    let root = if workspace {
        let cwd = std::env::current_dir().expect("cwd");
        match workspace_root_from(&cwd) {
            Some(root) => {
                collect_rs_files(&root, &mut files);
                Some(root)
            }
            None => {
                eprintln!("lint: no workspace root ([workspace] in Cargo.toml) above {cwd:?}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    let mut findings: Vec<Finding> = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let source = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        // Report paths workspace-relative (with `/` separators) so the
        // per-file allowlists in `rules` apply identically everywhere.
        let rel = workspace_relative(root.as_deref(), path);
        scanned += 1;
        findings.extend(check_file(&rel, &source));
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for f in &findings {
        println!("{f}");
    }
    let per_rule: Vec<String> = RuleId::ALL
        .iter()
        .map(|&r| {
            let n = findings.iter().filter(|f| f.rule == r).count();
            format!("{r}: {n}")
        })
        .collect();
    eprintln!(
        "lint: {} finding(s) in {scanned} file(s) [{}]",
        findings.len(),
        per_rule.join(", ")
    );

    if let Some(path) = markdown_path {
        let summary = markdown(&findings, scanned);
        let write = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(summary.as_bytes()));
        if let Err(e) = write {
            eprintln!(
                "lint: cannot write markdown summary to {}: {e}",
                path.display()
            );
            return ExitCode::from(2);
        }
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
