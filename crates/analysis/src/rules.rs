//! The workspace's repo-specific lint rules.
//!
//! Four rules, each an invariant the codebase states in prose (module
//! docs, ARCHITECTURE.md) and that used to be enforced only by
//! convention. In the spirit of integrity-constraint checking: state
//! the constraint once, verify it mechanically on every change.
//!
//! | id | constraint |
//! |----|------------|
//! | `unsafe-safety-comment` | every `unsafe` block/fn/impl is immediately preceded by a `// SAFETY:` comment (an `unsafe fn` may carry a `# Safety` doc section instead) |
//! | `thread-outside-audited` | `std::thread::{spawn, scope, Builder}` appear only in the audited threading layer, `fleet/shard.rs` |
//! | `nondeterministic-clock` | `Instant::now` / `SystemTime` appear only in `crates/bench/` or under an explicit `// WALL-CLOCK:` marker — signatures must be pure functions of seeds |
//! | `hot-path-unwrap` | `.unwrap()` / `.expect(` are forbidden in the engine hot paths (`core/src/analytic.rs`, `core/src/engine.rs`) outside `#[cfg(test)]` |
//!
//! All rules work on the [`crate::lexer`] token stream, so strings and
//! comments can never spoof code (nor vice versa). Paths are matched
//! by suffix with `/` separators; callers pass workspace-relative
//! paths.

use crate::lexer::{lex, Token, TokenKind};
use std::fmt;

/// Identifies one lint rule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuleId {
    UnsafeSafetyComment,
    ThreadOutsideAudited,
    NondeterministicClock,
    HotPathUnwrap,
}

impl RuleId {
    /// Every rule, in reporting order.
    pub const ALL: [RuleId; 4] = [
        RuleId::UnsafeSafetyComment,
        RuleId::ThreadOutsideAudited,
        RuleId::NondeterministicClock,
        RuleId::HotPathUnwrap,
    ];

    /// The stable string id findings are reported under.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::UnsafeSafetyComment => "unsafe-safety-comment",
            RuleId::ThreadOutsideAudited => "thread-outside-audited",
            RuleId::NondeterministicClock => "nondeterministic-clock",
            RuleId::HotPathUnwrap => "hot-path-unwrap",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint finding: where, which rule, and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Files (suffix match) where `std::thread` primitives are allowed:
/// the one audited threading layer every other module must go through.
const THREAD_AUDITED: [&str; 1] = ["fleet/shard.rs"];

/// The engine hot-path files for the unwrap/expect ban.
const HOT_PATHS: [&str; 2] = ["core/src/analytic.rs", "core/src/engine.rs"];

fn suffix_match(file: &str, suffixes: &[&str]) -> bool {
    suffixes.iter().any(|s| file.ends_with(s))
}

/// Lints one file. `file` is the workspace-relative path (used both
/// for reporting and for the per-file allowlists above).
pub fn check_file(file: &str, source: &str) -> Vec<Finding> {
    let tokens = lex(source);
    debug_assert_eq!(crate::lexer::verify_round_trip(source), Ok(()));
    let mut findings = Vec::new();
    let ctx = FileContext::new(file, &tokens);
    ctx.unsafe_safety_comment(&mut findings);
    ctx.thread_outside_audited(&mut findings);
    ctx.nondeterministic_clock(&mut findings);
    ctx.hot_path_unwrap(&mut findings);
    findings.sort_by_key(|f| f.line);
    findings
}

/// Shared per-file scanning state: the token stream plus an index of
/// code (non-comment) tokens, since most patterns must skip comments.
struct FileContext<'a> {
    file: &'a str,
    tokens: &'a [Token],
    /// Indices into `tokens` of the code tokens, in order.
    code: Vec<usize>,
}

impl<'a> FileContext<'a> {
    fn new(file: &'a str, tokens: &'a [Token]) -> Self {
        let code = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_code())
            .map(|(i, _)| i)
            .collect();
        FileContext { file, tokens, code }
    }

    fn finding(&self, line: u32, rule: RuleId, message: String) -> Finding {
        Finding {
            file: self.file.to_string(),
            line,
            rule,
            message,
        }
    }

    /// The code token at code-index `ci`, if any.
    fn code_tok(&self, ci: usize) -> Option<&Token> {
        self.code.get(ci).map(|&i| &self.tokens[i])
    }

    /// True if the code token at `ci` is an identifier with this text.
    fn is_ident(&self, ci: usize, text: &str) -> bool {
        self.code_tok(ci)
            .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
    }

    /// True if the code token at `ci` is this punctuation character.
    fn is_punct(&self, ci: usize, ch: char) -> bool {
        self.code_tok(ci).is_some_and(|t| {
            t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(ch)
        })
    }

    /// Whether a marker comment (text starting, after its `//`/`/*`
    /// sigil, with `marker`) *immediately precedes* the token at
    /// stream index `ti`: walking backwards, the marker must appear
    /// before any statement/item boundary (`;`, `{`, `}`) — so a
    /// comment above the item header, or trailing the previous
    /// statement's line, both count; anything older does not.
    fn marker_precedes(&self, ti: usize, marker: &str) -> bool {
        for t in self.tokens[..ti].iter().rev() {
            match t.kind {
                TokenKind::LineComment | TokenKind::BlockComment
                    if comment_body(&t.text).starts_with(marker) =>
                {
                    return true;
                }
                TokenKind::Punct if matches!(t.text.as_str(), ";" | "{" | "}") => return false,
                _ => {}
            }
        }
        false
    }

    /// Whether the token at stream index `ti` is preceded by a doc
    /// comment run containing `needle` (for `unsafe fn` with a
    /// `# Safety` section), with the same boundary rule as
    /// [`Self::marker_precedes`].
    fn doc_with(&self, ti: usize, needle: &str) -> bool {
        for t in self.tokens[..ti].iter().rev() {
            match t.kind {
                TokenKind::LineComment if t.text.starts_with("///") && t.text.contains(needle) => {
                    return true;
                }
                TokenKind::LineComment | TokenKind::BlockComment => {}
                TokenKind::Punct if matches!(t.text.as_str(), ";" | "{" | "}") => return false,
                _ => {}
            }
        }
        false
    }

    /// `unsafe-safety-comment`: every `unsafe` keyword wants a
    /// `// SAFETY:` immediately above it. An `unsafe fn`/`unsafe trait`
    /// declaration may instead document its contract with a rustdoc
    /// `# Safety` section (the obligation there is on callers).
    fn unsafe_safety_comment(&self, findings: &mut Vec<Finding>) {
        for (ci, &ti) in self.code.iter().enumerate() {
            let t = &self.tokens[ti];
            if t.kind != TokenKind::Ident || t.text != "unsafe" {
                continue;
            }
            if self.marker_precedes(ti, "SAFETY:") {
                continue;
            }
            // `unsafe fn` / `unsafe trait` declarations: accept a
            // `# Safety` doc section.
            let declares = self.is_ident(ci + 1, "fn") || self.is_ident(ci + 1, "trait");
            if declares && self.doc_with(ti, "# Safety") {
                continue;
            }
            let what = self
                .code_tok(ci + 1)
                .map_or("block", |n| match n.text.as_str() {
                    "fn" => "fn",
                    "impl" => "impl",
                    "trait" => "trait",
                    _ => "block",
                });
            findings.push(self.finding(
                t.line,
                RuleId::UnsafeSafetyComment,
                format!(
                    "`unsafe` {what} without an immediately preceding `// SAFETY:` comment{}",
                    if declares {
                        " (or a `# Safety` doc section)"
                    } else {
                        ""
                    }
                ),
            ));
        }
    }

    /// `thread-outside-audited`: `thread::spawn` / `thread::scope` /
    /// `thread::Builder` only in the audited layer. Matching the
    /// `thread :: name` token sequence catches both direct calls and
    /// `use` imports of the forbidden items.
    fn thread_outside_audited(&self, findings: &mut Vec<Finding>) {
        if suffix_match(self.file, &THREAD_AUDITED) {
            return;
        }
        for ci in 0..self.code.len() {
            if !self.is_ident(ci, "thread")
                || !self.is_punct(ci + 1, ':')
                || !self.is_punct(ci + 2, ':')
            {
                continue;
            }
            for name in ["spawn", "scope", "Builder"] {
                if self.is_ident(ci + 3, name) {
                    let t = self.code_tok(ci).expect("matched above");
                    findings.push(self.finding(
                        t.line,
                        RuleId::ThreadOutsideAudited,
                        format!(
                            "`thread::{name}` outside the audited threading layer \
                             (fleet/shard.rs) — route threading through ShardedFleet"
                        ),
                    ));
                }
            }
        }
    }

    /// `nondeterministic-clock`: `Instant::now` / `SystemTime` only in
    /// the bench harness, or under an explicit `// WALL-CLOCK:` marker
    /// (the fairness wall-time gauges) stating why the reading cannot
    /// reach a signature-bearing stream.
    fn nondeterministic_clock(&self, findings: &mut Vec<Finding>) {
        if self.file.contains("crates/bench/") {
            return;
        }
        for ci in 0..self.code.len() {
            let hit = if self.is_ident(ci, "Instant")
                && self.is_punct(ci + 1, ':')
                && self.is_punct(ci + 2, ':')
                && self.is_ident(ci + 3, "now")
            {
                Some("Instant::now")
            } else if self.is_ident(ci, "SystemTime") {
                Some("SystemTime")
            } else {
                None
            };
            let Some(what) = hit else { continue };
            let ti = self.code[ci];
            if self.marker_precedes(ti, "WALL-CLOCK:") {
                continue;
            }
            findings.push(self.finding(
                self.tokens[ti].line,
                RuleId::NondeterministicClock,
                format!(
                    "`{what}` outside crates/bench/ without a `// WALL-CLOCK:` marker — \
                     wall time must never feed a signature-bearing stream (determinism \
                     contract: signatures are pure functions of seeds)"
                ),
            ));
        }
    }

    /// `hot-path-unwrap`: no `.unwrap()` / `.expect(` in the engine
    /// hot paths outside `#[cfg(test)]` items.
    fn hot_path_unwrap(&self, findings: &mut Vec<Finding>) {
        if !suffix_match(self.file, &HOT_PATHS) {
            return;
        }
        let test_regions = self.cfg_test_regions();
        for ci in 0..self.code.len() {
            let t = self.code_tok(ci).expect("index in range");
            if t.kind != TokenKind::Ident || (t.text != "unwrap" && t.text != "expect") {
                continue;
            }
            if !self.is_punct(ci.wrapping_sub(1), '.') || !self.is_punct(ci + 1, '(') {
                continue;
            }
            if test_regions.iter().any(|r| r.contains(&ci)) {
                continue;
            }
            findings.push(self.finding(
                t.line,
                RuleId::HotPathUnwrap,
                format!(
                    "`.{}(…)` in an engine hot path outside #[cfg(test)] — handle the \
                     None/Err arm explicitly (see the determinism & robustness notes \
                     in ARCHITECTURE.md)",
                    t.text
                ),
            ));
        }
    }

    /// Code-index ranges covered by `#[cfg(test)]` items: from each
    /// attribute, the region runs to the matching close of the next
    /// brace block (the annotated `mod`/`fn` body).
    fn cfg_test_regions(&self) -> Vec<std::ops::Range<usize>> {
        let mut regions = Vec::new();
        let mut ci = 0;
        while ci < self.code.len() {
            let attr_here = self.is_punct(ci, '#')
                && self.is_punct(ci + 1, '[')
                && self.is_ident(ci + 2, "cfg")
                && self.is_punct(ci + 3, '(')
                && self.is_ident(ci + 4, "test")
                && self.is_punct(ci + 5, ')')
                && self.is_punct(ci + 6, ']');
            if !attr_here {
                ci += 1;
                continue;
            }
            let start = ci;
            // Find the annotated item's opening brace, then skip to its
            // matching close.
            let mut j = ci + 7;
            while j < self.code.len() && !self.is_punct(j, '{') {
                // A `;` first means the attribute annotated a braceless
                // item (e.g. `#[cfg(test)] mod tests;`) — region ends.
                if self.is_punct(j, ';') {
                    break;
                }
                j += 1;
            }
            if self.is_punct(j, '{') {
                let mut depth = 0i32;
                while j < self.code.len() {
                    if self.is_punct(j, '{') {
                        depth += 1;
                    } else if self.is_punct(j, '}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
            }
            regions.push(start..j + 1);
            ci = j + 1;
        }
        regions
    }
}

/// Strips the comment sigil and leading whitespace: `// SAFETY: x` →
/// `SAFETY: x`, `/* WALL-CLOCK: y */` → `WALL-CLOCK: y */` (prefix
/// matching still works).
fn comment_body(text: &str) -> &str {
    text.trim_start_matches('/')
        .trim_start_matches('*')
        .trim_start_matches('!')
        .trim_start()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(file: &str, src: &str) -> Vec<RuleId> {
        check_file(file, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_file_has_no_findings() {
        let src = "pub fn add(a: u32, b: u32) -> u32 { a + b }";
        assert!(check_file("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_discharges_unsafe_block() {
        let good = "fn f() {\n    // SAFETY: the invariant holds.\n    unsafe { g() }\n}";
        assert!(rules_hit("a.rs", good).is_empty());
        let bad = "fn f() {\n    unsafe { g() }\n}";
        assert_eq!(rules_hit("a.rs", bad), vec![RuleId::UnsafeSafetyComment]);
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src = "fn f() { let s = \"unsafe { }\"; /* unsafe */ }";
        assert!(rules_hit("a.rs", src).is_empty());
    }

    #[test]
    fn stale_safety_comment_does_not_carry_over_statements() {
        // The marker is separated from the unsafe by a `;` boundary —
        // it annotated the previous statement, not this one.
        let src = "fn f() {\n    // SAFETY: for the first one.\n    unsafe { g() };\n    unsafe { h() }\n}";
        let f = check_file("a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn thread_rule_honors_allowlist() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_hit("crates/core/src/fleet.rs", src),
            vec![RuleId::ThreadOutsideAudited]
        );
        assert!(rules_hit("crates/core/src/fleet/shard.rs", src).is_empty());
        // One threading layer: no other core file is allowlisted.
        assert_eq!(
            rules_hit("crates/core/src/sweep.rs", src),
            vec![RuleId::ThreadOutsideAudited]
        );
    }

    #[test]
    fn clock_rule_accepts_bench_and_marker() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(
            rules_hit("crates/core/src/x.rs", src),
            vec![RuleId::NondeterministicClock]
        );
        assert!(rules_hit("crates/bench/src/harness.rs", src).is_empty());
        let marked = "fn f() {\n    // WALL-CLOCK: load gauge only, never in signatures.\n    let t = Instant::now();\n}";
        assert!(rules_hit("crates/core/src/x.rs", marked).is_empty());
    }

    #[test]
    fn hot_path_rule_applies_only_to_engine_files() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(
            rules_hit("crates/core/src/analytic.rs", src),
            vec![RuleId::HotPathUnwrap]
        );
        assert!(rules_hit("crates/core/src/scenario.rs", src).is_empty());
    }

    #[test]
    fn hot_path_rule_skips_cfg_test() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n#[cfg(test)]\nmod tests {\n    fn g() { Some(1).unwrap(); }\n}";
        assert!(rules_hit("crates/core/src/analytic.rs", src).is_empty());
    }

    #[test]
    fn expect_method_on_other_receivers_still_counts() {
        // `.expect(` is banned regardless of receiver; a bare ident
        // `expect` (not a method call) is not.
        let src = "fn f() { let expect = 1; let _ = expect; }";
        assert!(rules_hit("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn findings_carry_exact_location() {
        let src = "fn f() {\n\n    unsafe { g() }\n}";
        let f = check_file("crates/core/src/fleet/shard.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(
            (f[0].file.as_str(), f[0].line),
            ("crates/core/src/fleet/shard.rs", 3)
        );
        assert_eq!(f[0].rule.id(), "unsafe-safety-comment");
    }
}
