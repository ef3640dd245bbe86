//! In-memory spans for the traced run, written out once at exit.
//!
//! Each span names the layer call it wraps, the operation (one loop
//! iteration of the traced run) it belongs to, and its parent. Spans
//! of one thread never overlap their siblings, so a span's self time is
//! its duration minus the durations of its children.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed layer call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The operation this span belongs to.
    pub op: u32,
    /// This span's identifier (its index).
    pub id: u32,
    /// The span whose call caused this one.
    pub parent: Option<u32>,
    /// The layer call.
    pub name: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// End, in ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder measuring from `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span from two instants and returns its identifier.
    pub fn record(
        &mut self,
        op: u32,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its children cover, indexed
    /// by identifier.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// One JSON object per line, self time included.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\": {}, \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.op, s.id, s.name, s.start_ns, s.end_ns,
            );
        }
        out
    }
}
