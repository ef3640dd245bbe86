//! ASCII waveform rendering, used by the figure regenerators to print
//! Fig. 2 / 5 / 6 / 7-style timing diagrams straight to the terminal.

use crate::circuit::NetId;
use crate::logic::Logic;
use crate::time::SimTime;
use crate::trace::History;

/// How to draw levels.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum WaveformStyle {
    /// One row per net using `¯` for high, `_` for low, `~` for floating.
    #[default]
    Compact,
    /// Two rows per net with `/` and `\` edge glyphs.
    Block,
}

/// Renders a set of nets from a [`History`] as text.
///
/// Each output column represents one sample interval; the renderer
/// samples net values rather than compressing edges, so the horizontal
/// axis is linear in time — matching the paper's timing diagrams.
///
/// # Example
///
/// ```
/// use mbus_sim::{Circuit, Logic, SimTime, WaveformRenderer};
///
/// let mut c = Circuit::new();
/// c.record_history();
/// let clk = c.net("CLK");
/// c.drive_external(clk, Logic::Low, SimTime::from_ns(10));
/// c.drive_external(clk, Logic::High, SimTime::from_ns(20));
/// c.run_until(SimTime::from_ns(40));
///
/// let text = WaveformRenderer::new()
///     .sample_every(SimTime::from_ns(5))
///     .until(SimTime::from_ns(40))
///     .render(c.history().expect("recorded"), &[clk]);
/// assert!(text.contains("CLK"));
/// ```
#[derive(Debug, Clone)]
pub struct WaveformRenderer {
    from: SimTime,
    to: Option<SimTime>,
    sample: SimTime,
    style: WaveformStyle,
    label_width: usize,
}

impl Default for WaveformRenderer {
    fn default() -> Self {
        WaveformRenderer::new()
    }
}

impl WaveformRenderer {
    /// Creates a renderer sampling every nanosecond from time zero to the
    /// last recorded activity.
    pub fn new() -> Self {
        WaveformRenderer {
            from: SimTime::ZERO,
            to: None,
            sample: SimTime::from_ns(1),
            style: WaveformStyle::Compact,
            label_width: 14,
        }
    }

    /// Sets the start of the rendered window.
    pub fn from(mut self, t: SimTime) -> Self {
        self.from = t;
        self
    }

    /// Sets the end of the rendered window.
    pub fn until(mut self, t: SimTime) -> Self {
        self.to = Some(t);
        self
    }

    /// Sets the sampling interval (one output column per interval).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn sample_every(mut self, interval: SimTime) -> Self {
        assert!(!interval.is_zero(), "sample interval must be nonzero");
        self.sample = interval;
        self
    }

    /// Chooses the rendering style.
    pub fn style(mut self, style: WaveformStyle) -> Self {
        self.style = style;
        self
    }

    /// Width reserved for net-name labels.
    pub fn label_width(mut self, width: usize) -> Self {
        self.label_width = width;
        self
    }

    /// Renders `nets` (in the given order) from `history`.
    pub fn render(&self, history: &History, nets: &[NetId]) -> String {
        let end = self.to.unwrap_or_else(|| history.last_activity());
        let mut out = String::new();
        let columns = self.column_count(end);
        for &net in nets {
            let label = truncate_pad(history.net_name(net), self.label_width);
            match self.style {
                WaveformStyle::Compact => {
                    out.push_str(&label);
                    out.push('|');
                    for col in 0..columns {
                        let t = self.from + self.sample * col;
                        out.push(compact_char(history.value_at(net, t)));
                    }
                    out.push('\n');
                }
                WaveformStyle::Block => {
                    let mut hi_row = String::new();
                    let mut lo_row = String::new();
                    let mut prev: Option<Logic> = None;
                    for col in 0..columns {
                        let t = self.from + self.sample * col;
                        let v = history.value_at(net, t);
                        let (hi, lo) = block_chars(prev, v);
                        hi_row.push(hi);
                        lo_row.push(lo);
                        prev = Some(v);
                    }
                    out.push_str(&label);
                    out.push('|');
                    out.push_str(&hi_row);
                    out.push('\n');
                    out.push_str(&" ".repeat(self.label_width));
                    out.push('|');
                    out.push_str(&lo_row);
                    out.push('\n');
                }
            }
        }
        out
    }

    fn column_count(&self, end: SimTime) -> u64 {
        if end <= self.from {
            return 0;
        }
        let span = end - self.from;
        span.as_ps().div_ceil(self.sample.as_ps())
    }
}

fn compact_char(value: Logic) -> char {
    match value {
        Logic::High => '\u{203e}', // overline
        Logic::Low => '_',
        Logic::Floating => '~',
    }
}

fn block_chars(prev: Option<Logic>, now: Logic) -> (char, char) {
    match (prev, now) {
        (Some(Logic::Low), Logic::High) => ('/', ' '),
        (Some(Logic::High), Logic::Low) => (' ', '\\'),
        (_, Logic::High) => ('_', ' '),
        (_, Logic::Low) => (' ', '_'),
        (_, Logic::Floating) => ('~', '~'),
    }
}

fn truncate_pad(name: &str, width: usize) -> String {
    let mut s: String = name.chars().take(width).collect();
    while s.chars().count() < width {
        s.push(' ');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    fn clock_trace() -> (Circuit, NetId) {
        let mut c = Circuit::new();
        c.record_history();
        let clk = c.net("CLK");
        for i in 0..4u64 {
            c.drive_external(clk, Logic::Low, SimTime::from_ns(10 + 20 * i));
            c.drive_external(clk, Logic::High, SimTime::from_ns(20 + 20 * i));
        }
        c.run_until(SimTime::from_ns(100));
        (c, clk)
    }

    #[test]
    fn compact_renders_one_row_per_net() {
        let (c, clk) = clock_trace();
        let text = WaveformRenderer::new()
            .sample_every(SimTime::from_ns(5))
            .until(SimTime::from_ns(100))
            .render(c.history().unwrap(), &[clk]);
        assert_eq!(text.lines().count(), 1);
        let row = text.lines().next().unwrap();
        assert!(row.starts_with("CLK"));
        assert!(row.contains('_'));
        assert!(row.contains('\u{203e}'));
    }

    #[test]
    fn block_renders_two_rows_per_net() {
        let (c, clk) = clock_trace();
        let text = WaveformRenderer::new()
            .sample_every(SimTime::from_ns(5))
            .until(SimTime::from_ns(100))
            .style(WaveformStyle::Block)
            .render(c.history().unwrap(), &[clk]);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains('/'));
        assert!(text.contains('\\'));
    }

    #[test]
    fn empty_window_renders_labels_only() {
        let (c, clk) = clock_trace();
        let text = WaveformRenderer::new()
            .from(SimTime::from_ns(50))
            .until(SimTime::from_ns(50))
            .render(c.history().unwrap(), &[clk]);
        assert_eq!(text, format!("{}|\n", truncate_pad("CLK", 14)));
    }

    #[test]
    fn label_truncation_and_padding() {
        assert_eq!(truncate_pad("abc", 5), "abc  ");
        assert_eq!(truncate_pad("abcdefgh", 4), "abcd");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_sample_interval_rejected() {
        let _ = WaveformRenderer::new().sample_every(SimTime::ZERO);
    }
}
