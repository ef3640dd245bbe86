//! # mbus-bench — table and figure regenerators
//!
//! One binary per table/figure of the paper's evaluation (§6), printing
//! the same rows/series the paper reports:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | feature comparison matrix |
//! | `table2` | synthesized module sizes |
//! | `table3` | measured pJ/bit by role |
//! | `fig02` | I2C-variant waveforms |
//! | `fig03` | transaction state walk |
//! | `fig05` | arbitration + priority waveform |
//! | `fig06` | wakeup / null-transaction waveform |
//! | `fig07` | interjection + control waveform |
//! | `fig09` | max bus clock vs. node count |
//! | `fig10` | overhead bits vs. message length |
//! | `fig11` | power and energy-per-goodput-bit comparisons |
//! | `fig14` | saturating transaction rate |
//! | `fig15` | parallel-MBus goodput |
//! | `sense_and_send` | §6.3.1 numbers, engine-generic (both engines) |
//! | `monitor_alert` | §6.3.2 numbers, engine-generic (both engines) |
//! | `interleave` | fleet scaling: 1024 buses on one thread, worker scaling, a 65536-bus fleet |
//! | `scenario` | `.mbt` trace replay, export and differential fuzzing |
//! | `bitbang` | §6.6 numbers |
//! | `ablations` | DESIGN.md's design-choice studies |
//!
//! Run any of them with `cargo run -p mbus-bench --bin <name>`.
//! The workload binaries are written once against
//! [`mbus_core::engine::BusEngine`] and executed on both protocol
//! engines, cross-checking the record streams as they go.
//! The micro-benches (`cargo bench -p mbus-bench`, using the
//! dependency-free [`harness`]) measure the throughput of the two
//! protocol engines and the event kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

pub mod harness;
pub mod json;
pub mod scenario;

/// Formats a numeric series as an aligned two-column table.
pub fn two_col_table(title: &str, x_label: &str, y_label: &str, rows: &[(f64, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{x_label:>12}  {y_label:>16}");
    for (x, y) in rows {
        let _ = writeln!(out, "{x:>12.3}  {y:>16.3}");
    }
    out
}

/// Formats a multi-series table: one x column plus one column per
/// series.
pub fn multi_series_table(
    title: &str,
    x_label: &str,
    series_names: &[&str],
    rows: &[(f64, Vec<f64>)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let mut header = format!("{x_label:>10}");
    for name in series_names {
        let _ = write!(header, "  {name:>18}");
    }
    let _ = writeln!(out, "{header}");
    for (x, ys) in rows {
        let mut line = format!("{x:>10.2}");
        for y in ys {
            let _ = write!(line, "  {y:>18.3}");
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_col_renders_rows() {
        let t = two_col_table("T", "x", "y", &[(1.0, 2.0), (3.0, 4.5)]);
        assert!(t.contains("T"));
        assert!(t.contains("4.500"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn multi_series_renders_all_columns() {
        let t = multi_series_table(
            "M",
            "n",
            &["a", "b"],
            &[(1.0, vec![2.0, 3.0]), (2.0, vec![4.0, 5.0])],
        );
        assert!(t.contains("a"));
        assert!(t.contains("5.000"));
    }
}
