//! Value-change-dump (VCD) export for viewing runs in GTKWave & friends.

use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::circuit::NetId;
use crate::logic::Logic;
use crate::trace::History;

/// Serializes a [`History`] to the IEEE 1364 VCD format.
///
/// # Example
///
/// ```
/// use mbus_sim::{Circuit, Logic, SimTime, VcdWriter};
///
/// let mut c = Circuit::new();
/// c.record_history();
/// let clk = c.net("clk");
/// c.drive_external(clk, Logic::Low, SimTime::from_ns(5));
/// c.run_until(SimTime::from_ns(10));
///
/// let mut out = Vec::new();
/// VcdWriter::new("mbus").write(c.history().expect("recorded"), &mut out)?;
/// let text = String::from_utf8(out).unwrap();
/// assert!(text.contains("$var wire 1"));
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct VcdWriter {
    module: String,
}

impl VcdWriter {
    /// Creates a writer that scopes all nets under `module`.
    pub fn new(module: impl Into<String>) -> Self {
        VcdWriter {
            module: module.into(),
        }
    }

    /// Writes every net of `history`, with all its transitions, to `out`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the underlying writer.
    pub fn write<W: Write>(&self, history: &History, mut out: W) -> io::Result<()> {
        writeln!(out, "$timescale 1ps $end")?;
        writeln!(out, "$scope module {} $end", self.module)?;
        let mut codes: BTreeMap<NetId, String> = BTreeMap::new();
        for (i, net) in history.nets().enumerate() {
            let code = identifier_code(i);
            writeln!(
                out,
                "$var wire 1 {} {} $end",
                code,
                sanitize(history.net_name(net))
            )?;
            codes.insert(net, code);
        }
        writeln!(out, "$upscope $end")?;
        writeln!(out, "$enddefinitions $end")?;

        writeln!(out, "$dumpvars")?;
        for net in history.nets() {
            writeln!(
                out,
                "{}{}",
                vcd_char(history.initial_value(net)),
                codes[&net]
            )?;
        }
        writeln!(out, "$end")?;

        // Merge all per-net transitions into one global time order.
        let mut merged: Vec<(u64, NetId, Logic)> = Vec::new();
        for net in history.nets() {
            for tr in history.transitions(net) {
                merged.push((tr.time.as_ps(), net, tr.value));
            }
        }
        merged.sort_by_key(|&(t, net, _)| (t, net));
        let mut last_time: Option<u64> = None;
        for (t, net, value) in merged {
            if last_time != Some(t) {
                writeln!(out, "#{t}")?;
                last_time = Some(t);
            }
            writeln!(out, "{}{}", vcd_char(value), codes[&net])?;
        }
        Ok(())
    }
}

fn vcd_char(value: Logic) -> char {
    match value {
        Logic::Low => '0',
        Logic::High => '1',
        Logic::Floating => 'z',
    }
}

/// VCD identifier codes use the printable ASCII range 33..=126.
fn identifier_code(mut index: usize) -> String {
    let mut code = String::new();
    loop {
        code.push((33 + (index % 94)) as u8 as char);
        index /= 94;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    code
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::time::SimTime;

    #[test]
    fn identifier_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..5_000 {
            let code = identifier_code(i);
            assert!(code.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(code), "duplicate code at {i}");
        }
    }

    #[test]
    fn writes_header_and_changes() {
        let mut c = Circuit::new();
        c.record_history();
        let clk = c.net("bus clk");
        let data = c.net("data");
        c.drive_external(clk, Logic::Low, SimTime::from_ns(1));
        c.drive_external(data, Logic::Low, SimTime::from_ns(1));
        c.drive_external(clk, Logic::High, SimTime::from_ns(2));
        c.run_until(SimTime::from_ns(5));

        let mut out = Vec::new();
        VcdWriter::new("top")
            .write(c.history().unwrap(), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("$scope module top $end"));
        assert!(text.contains("bus_clk"), "whitespace sanitized: {text}");
        assert!(text.contains("#1000"));
        assert!(text.contains("#2000"));
        // Initial dump contains both nets high.
        assert_eq!(text.matches("$dumpvars").count(), 1);
    }

    #[test]
    fn empty_trace_is_valid_vcd() {
        let mut out = Vec::new();
        VcdWriter::new("top")
            .write(&History::default(), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("$enddefinitions"));
    }
}
