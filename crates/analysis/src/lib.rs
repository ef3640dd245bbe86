//! # mbus-analysis — static analysis for the MBus workspace
//!
//! The fleet runtime's soundness rests on a handful of hand-written
//! invariants: no `unsafe` outside tests (engines are `Send` by
//! construction, so the sharded runtime needs none, and every crate is
//! `#![forbid(unsafe_code)]`), threads confined to the one audited
//! layer (`ShardedFleet`), and the determinism contract that no
//! wall-clock or thread-identity bit may reach a signature-bearing
//! stream. The SAFETY-comment rule below has no live subject; it
//! guards against an `unsafe` site coming back. This crate checks
//! those invariants mechanically, on every change, with zero
//! dependencies:
//!
//! * [`lexer`] — a hand-rolled, string/char/comment-aware Rust
//!   tokenizer (no `syn`), lossless by construction
//!   ([`lexer::verify_round_trip`]);
//! * [`rules`] — the four repo-specific lint rules (SAFETY comments on
//!   every `unsafe`, threading confined to the audited layer, no stray
//!   wall-clock reads, no `unwrap`/`expect` in engine hot paths);
//! * `lint` (binary) — walks the workspace and reports findings with
//!   exact locations; non-zero exit on any finding. CI runs it as the
//!   `lint` job; see ARCHITECTURE.md § "Analysis & safety".

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;
pub mod walk;

pub use rules::{check_file, Finding, RuleId};
