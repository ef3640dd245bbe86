//! # mbus-analysis — static analysis for the MBus workspace
//!
//! The fleet runtime's soundness rests on a handful of hand-written
//! invariants: the `unsafe impl Send` engine wrapper in
//! `fleet/shard.rs` (the workspace's only `unsafe` outside tests),
//! threads confined to the audited layers, and the determinism
//! contract that no wall-clock or thread-identity bit may reach a
//! signature-bearing stream. This crate checks those invariants
//! mechanically, on every change, with zero dependencies:
//!
//! * [`lexer`] — a hand-rolled, string/char/comment-aware Rust
//!   tokenizer (no `syn`), lossless by construction
//!   ([`lexer::verify_round_trip`]);
//! * [`rules`] — the five repo-specific lint rules (SAFETY comments on
//!   every `unsafe`, threading confined to the audited layers, no
//!   stray wall-clock reads, `Rc`-vs-`Send` audits, no
//!   `unwrap`/`expect` in engine hot paths);
//! * `lint` (binary) — walks the workspace and reports findings with
//!   exact locations; non-zero exit on any finding. CI runs it as the
//!   `lint` job; see ARCHITECTURE.md § "Analysis & safety".

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::{check_file, Finding, RuleId};
