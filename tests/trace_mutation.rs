//! Deterministic mutation battery for the `.mbt` parser.
//!
//! Every small golden trace under `tests/corpus/` (one of them also
//! with CRLF line ends) and every rejected fixture under
//! `crates/core/tests/trace_fixtures/` is mutated at the byte and at
//! the token level, and every mutant must either
//!
//! - parse, with a `to_mbt` that re-parses to identical text, or
//! - fail with a span whose line is within the file (1 ≤ line ≤ the
//!   mutant's line count).
//!
//! No mutant may panic. Byte-level mutants delete, duplicate or
//! replace one character (ASCII or multi-byte), so every mutant stays
//! valid UTF-8. Token-level mutants drop a token, swap two neighbours,
//! append a ` zz` token, repeat a `key=value` token, or substitute a
//! numeric boundary into a number inside a token. An appended token
//! and a repeated key must each be rejected or change the
//! serialization: a parser that silently drops the token, or keeps
//! only one of a key's two values, fails the battery.
//!
//! Substitutions also check that the parser keeps the value it read:
//! two different values written into the same number of the same line
//! must not serialize to the same trace. A silently truncating cast
//! (`257 as u8 == 1`) fails that check, since `257` and the original
//! `1` would round-trip to one text. The boundaries are 0, 15, 16,
//! 255, 256, 2³², 2⁶⁴ − 1 and 2⁶⁴, plus 257 and 2³² + 1, the first
//! values past the `u8` and `u32` wrap that do not wrap to zero.
//!
//! The battery is one test, because it silences the panic hook while
//! it runs.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

use mbus_core::trace::TraceFile;

/// Corpus traces longer than this are left out: the battery mutates
/// every line, and the long generated traces add only more of the
/// same line shapes.
const MAX_CORPUS_LINES: usize = 100;

/// The corpus trace also mutated with CRLF line ends: it parses, and
/// its `name` and node `name=` lines end in rest-of-line values, so a
/// duplicated `\r` ends such a value's line `\r\r\n`.
const CRLF_TRACE: &str = "storm.mbt";

/// Lines longer than this mutate only their head and tail characters.
const LONG_LINE: usize = 64;
const HEAD: usize = 40;
const TAIL: usize = 8;

/// Tokens longer than this (long payloads) get no numeric
/// substitutions: their digits are payload bytes, not values.
const LONG_TOKEN: usize = 32;

/// The characters a byte-level mutant writes in place of another:
/// separators, digits, hex letters, punctuation the grammar uses, a
/// line break, a carriage return, and one- to four-byte non-ASCII
/// characters (two of them whitespace). Each point takes
/// [`PER_POINT`] of them, in rotation.
const REPLACEMENTS: &[char] = &[
    ' ', '\t', '\n', '\r', '0', '9', 'f', 'x', '.', '=', ':', '-', '#', 'é', '\u{a0}', '\u{3000}',
    '🦀',
];
const PER_POINT: usize = 8;

/// The numeric boundaries substituted into every number.
const BOUNDARIES: &[u128] = &[
    0,
    15,
    16,
    255,
    256,
    257,
    1 << 32,
    (1 << 32) + 1,
    u64::MAX as u128,
    1 << 64,
];

fn read_dir_sorted(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "mbt"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, text)
        })
        .collect()
}

/// The battery's inputs: the small corpus traces, [`CRLF_TRACE`] again
/// with CRLF line ends, then every rejected fixture.
fn inputs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut corpus: Vec<_> = read_dir_sorted(&root.join("tests/corpus"))
        .into_iter()
        .filter(|(_, text)| text.lines().count() <= MAX_CORPUS_LINES)
        .collect();
    assert!(corpus.len() >= 5, "small corpus traces: {}", corpus.len());
    let crlf = corpus
        .iter()
        .find(|(name, _)| name == CRLF_TRACE)
        .map(|(name, text)| (format!("{name} (CRLF)"), text.replace('\n', "\r\n")))
        .expect("the CRLF trace is a small corpus trace");
    corpus.push(crlf);
    let fixtures = read_dir_sorted(&root.join("crates/core/tests/trace_fixtures"));
    assert!(
        fixtures.len() >= 20,
        "rejected fixtures: {}",
        fixtures.len()
    );
    corpus.into_iter().chain(fixtures).collect()
}

/// Checks one mutant against the battery's rule. Returns its
/// serialization when it parses, and records any violation.
fn check(label: &str, text: &str, failures: &mut Vec<String>) -> Option<String> {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        match TraceFile::parse_str("mutant", text) {
            Ok(file) => {
                let first = file.to_mbt();
                let second = TraceFile::parse_str("reparsed", &first).map(|f| f.to_mbt());
                Ok((first, second))
            }
            Err(err) => Err(err),
        }
    }));
    let lines = text.lines().count().max(1);
    match outcome {
        Err(payload) => {
            let why = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            failures.push(format!("{label}: panicked: {why}\n{text:?}"));
            None
        }
        Ok(Err(err)) => {
            if err.line < 1 || err.line as usize > lines {
                failures.push(format!(
                    "{label}: error line {} outside 1..={lines}: {err}\n{text:?}",
                    err.line
                ));
            }
            None
        }
        Ok(Ok((first, Err(err)))) => {
            failures.push(format!(
                "{label}: serialization does not re-parse: {err}\n{first}"
            ));
            None
        }
        Ok(Ok((first, Ok(second)))) => {
            if second != first {
                failures.push(format!(
                    "{label}: serialization is not a fixed point\n{first}---\n{second}"
                ));
            }
            Some(first)
        }
    }
}

/// The line's shape: every run of hex digits folded to one `0`.
/// Only the first line of each shape is mutated, so the 64 `node`
/// lines of a fixture or the many `send` lines of a trace cost one
/// line's mutants each.
fn shape(line: &str) -> String {
    let mut out = String::new();
    for ch in line.chars() {
        if !(ch.is_ascii_hexdigit() && out.ends_with('0')) {
            out.push(if ch.is_ascii_hexdigit() { '0' } else { ch });
        }
    }
    out
}

/// The first line of each shape: its index, byte offset and text.
fn fresh_lines(text: &str) -> Vec<(usize, usize, &str)> {
    let mut shapes = std::collections::HashSet::new();
    let mut offset = 0;
    let mut out = Vec::new();
    for (line_no, line) in text.split_inclusive('\n').enumerate() {
        if shapes.insert(shape(line)) {
            out.push((line_no, offset, line));
        }
        offset += line.len();
    }
    out
}

/// The char-boundary offsets a byte-level mutant edits in `text`.
fn mutation_points(text: &str) -> Vec<usize> {
    let mut points = Vec::new();
    for (_, start, line) in fresh_lines(text) {
        let offsets: Vec<usize> = line.char_indices().map(|(i, _)| start + i).collect();
        if offsets.len() <= LONG_LINE {
            points.extend(&offsets);
        } else {
            points.extend(&offsets[..HEAD]);
            points.extend(&offsets[offsets.len() - TAIL..]);
        }
    }
    points
}

fn byte_mutants(name: &str, text: &str, failures: &mut Vec<String>) -> usize {
    let mut count = 0;
    for (k, at) in mutation_points(text).into_iter().enumerate() {
        let ch = text[at..].chars().next().expect("a point starts a char");
        let (head, tail) = (&text[..at], &text[at + ch.len_utf8()..]);
        let mut mutant = |label: String, middle: &str| {
            check(&label, &format!("{head}{middle}{tail}"), failures);
            count += 1;
        };
        mutant(format!("{name}@{at}: delete {ch:?}"), "");
        mutant(
            format!("{name}@{at}: duplicate {ch:?}"),
            &format!("{ch}{ch}"),
        );
        let n = REPLACEMENTS.len();
        for j in 0..PER_POINT {
            let with = REPLACEMENTS[(k + j * n / PER_POINT) % n];
            if with != ch {
                mutant(
                    format!("{name}@{at}: replace {ch:?} with {with:?}"),
                    &with.to_string(),
                );
            }
        }
    }
    count
}

/// A number inside a token: its byte range and whether it is the hex
/// digits after a `0x`.
struct Slot {
    start: usize,
    end: usize,
    hex: bool,
}

fn slots(token: &str) -> Vec<Slot> {
    let bytes = token.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let hex =
            bytes[i..].starts_with(b"0x") && bytes.get(i + 2).is_some_and(u8::is_ascii_hexdigit);
        let start = if hex { i + 2 } else { i };
        let digit = |b: &u8| {
            if hex {
                b.is_ascii_hexdigit()
            } else {
                b.is_ascii_digit()
            }
        };
        let end = start + bytes[start..].iter().take_while(|b| digit(b)).count();
        if end > start {
            out.push(Slot { start, end, hex });
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// The text with line `line_no` replaced by `tokens` joined by spaces.
fn with_line(lines: &[&str], line_no: usize, tokens: &[&str]) -> String {
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        if i == line_no {
            out.push_str(&tokens.join(" "));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

fn token_mutants(name: &str, text: &str, failures: &mut Vec<String>) -> usize {
    let mut count = 0;
    let lines: Vec<&str> = text.lines().collect();
    for (line_no, _, line) in fresh_lines(text) {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let at = |i: usize| format!("{name}:{}: token {i}", line_no + 1);
        let written = with_line(&lines, line_no, &tokens);
        let written = check(&format!("{name}:{}", line_no + 1), &written, failures);
        count += 1;
        if tokens.first().is_some_and(|t| !t.starts_with('#')) {
            // A token appended to a directive is either rejected or
            // read into the value (a rest-of-line name): never dropped.
            let appended = with_line(&lines, line_no, &[tokens.as_slice(), &["zz"]].concat());
            let label = format!("{name}:{}: ` zz` appended", line_no + 1);
            let mbt = check(&label, &appended, failures);
            count += 1;
            if mbt.is_some() && mbt == written {
                failures.push(format!(
                    "{label}: the trailing token was dropped\n{appended}"
                ));
            }
            // A `key=value` token given twice is either rejected or
            // read into the value: never kept once.
            for (i, &token) in tokens.iter().enumerate().filter(|(_, t)| t.contains('=')) {
                let mut repeated = tokens.clone();
                repeated.insert(i + 1, token);
                let repeated = with_line(&lines, line_no, &repeated);
                let label = format!("{} repeated", at(i));
                let mbt = check(&label, &repeated, failures);
                count += 1;
                if mbt.is_some() && mbt == written {
                    failures.push(format!(
                        "{label}: one of the two values was dropped\n{repeated}"
                    ));
                }
            }
        }
        for i in 0..tokens.len() {
            let mut dropped = tokens.clone();
            dropped.remove(i);
            check(
                &format!("{} dropped", at(i)),
                &with_line(&lines, line_no, &dropped),
                failures,
            );
            count += 1;
            if i + 1 < tokens.len() {
                let mut swapped = tokens.clone();
                swapped.swap(i, i + 1);
                let label = format!("{} swapped with the next", at(i));
                check(&label, &with_line(&lines, line_no, &swapped), failures);
                count += 1;
            }
            if tokens[i].len() > LONG_TOKEN {
                continue;
            }
            for slot in slots(tokens[i]) {
                let digits = &tokens[i][slot.start..slot.end];
                let radix = if slot.hex { 16 } else { 10 };
                // Parsed, by value: the line as written and each
                // substitution that still parses.
                let mut seen: Vec<(u128, String)> = Vec::new();
                if let (Ok(value), Some(mbt)) = (u128::from_str_radix(digits, radix), &written) {
                    seen.push((value, mbt.clone()));
                }
                for &value in BOUNDARIES {
                    let number = if slot.hex {
                        format!("{value:x}")
                    } else {
                        value.to_string()
                    };
                    let token = format!(
                        "{}{number}{}",
                        &tokens[i][..slot.start],
                        &tokens[i][slot.end..]
                    );
                    let mut substituted = tokens.clone();
                    substituted[i] = &token;
                    let label = format!("{} `{digits}` -> `{number}`", at(i));
                    let mutant = with_line(&lines, line_no, &substituted);
                    count += 1;
                    let Some(mbt) = check(&label, &mutant, failures) else {
                        continue;
                    };
                    if let Some((other, _)) = seen.iter().find(|(v, m)| *v != value && *m == mbt) {
                        failures.push(format!(
                            "{label}: {value} and {other} serialize to the same trace \
                             (the value is truncated)\n{mutant}"
                        ));
                    }
                    seen.push((value, mbt));
                }
            }
        }
    }
    count
}

#[test]
fn every_parser_mutant_parses_to_a_fixed_point_or_fails_in_bounds() {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let mut failures = Vec::new();
    let mut mutants = 0;
    for (name, text) in inputs() {
        mutants += byte_mutants(&name, &text, &mut failures);
        mutants += token_mutants(&name, &text, &mut failures);
    }
    panic::set_hook(hook);
    assert!(mutants >= 10_000, "only {mutants} mutants");
    assert!(
        failures.is_empty(),
        "{} of {mutants} mutants broke the parser's contract; the first:\n{}",
        failures.len(),
        failures
            .iter()
            .take(8)
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join("\n\n")
    );
}
