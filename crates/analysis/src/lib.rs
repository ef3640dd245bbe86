//! # mbus-analysis — static analysis for the MBus workspace
//!
//! The fleet runtime's soundness rests on a handful of hand-written
//! invariants: no `unsafe` outside tests (engines are `Send` by
//! construction, so the sharded runtime needs none, and every crate is
//! `#![forbid(unsafe_code)]`), threads confined to the audited layers,
//! and the determinism contract that no wall-clock or thread-identity
//! bit may reach a signature-bearing stream. The SAFETY-comment and
//! `Rc`-vs-`Send` rules below have no live subject; they guard against
//! an `unsafe` site or a shared `Rc` graph coming back. This crate checks those invariants
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
