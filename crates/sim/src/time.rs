//! Virtual simulation time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in integer picoseconds.
///
/// Picosecond resolution lets the kernel represent both the 10 ns
/// node-to-node propagation budget of the MBus specification and the
/// sub-nanosecond skews used in glitch tests without rounding. A `u64`
/// of picoseconds covers ~213 days of virtual time, far beyond any
/// experiment in the paper.
///
/// `SimTime` is used for both absolute timestamps and durations; the
/// arithmetic operators implement the obvious affine semantics.
///
/// # Example
///
/// ```
/// use mbus_sim::SimTime;
///
/// let period = SimTime::from_ns(2500); // 400 kHz half period
/// assert_eq!(period.as_ps(), 2_500_000);
/// assert_eq!(SimTime::from_us(1) / 4, SimTime::from_ns(250));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero — the instant simulation begins.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_s(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Returns the time in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the time in nanoseconds, truncating sub-ns precision.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Returns the period of a clock of frequency `hz`.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn period_of_hz(hz: u64) -> Self {
        assert!(hz > 0, "clock frequency must be nonzero");
        SimTime(1_000_000_000_000 / hz)
    }

    /// Saturating subtraction; returns [`SimTime::ZERO`] on underflow.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// True if this is time zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;

    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;

    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0")
        } else if ps.is_multiple_of(1_000_000_000_000) {
            write!(f, "{}s", ps / 1_000_000_000_000)
        } else if ps.is_multiple_of(1_000_000_000) {
            write!(f, "{}ms", ps / 1_000_000_000)
        } else if ps.is_multiple_of(1_000_000) {
            write!(f, "{}us", ps / 1_000_000)
        } else if ps.is_multiple_of(1_000) {
            write!(f, "{}ns", ps / 1_000)
        } else {
            write!(f, "{}ps", ps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ns(), 1_000);
        assert_eq!(SimTime::from_ms(2).as_ps(), 2_000_000_000);
        assert_eq!(SimTime::from_s(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn arithmetic_behaves_affinely() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!(a + b, SimTime::from_ns(14));
        assert_eq!(a - b, SimTime::from_ns(6));
        assert_eq!(a * 3, SimTime::from_ns(30));
        assert_eq!(a / 2, SimTime::from_ns(5));
    }

    #[test]
    fn period_of_common_frequencies() {
        assert_eq!(SimTime::period_of_hz(400_000), SimTime::from_ns(2_500));
        assert_eq!(SimTime::period_of_hz(1_000_000), SimTime::from_us(1));
        // 7.1 MHz from Fig. 9 rounds down to an integer picosecond count.
        assert_eq!(SimTime::period_of_hz(7_100_000).as_ps(), 140_845);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn period_of_zero_hz_panics() {
        let _ = SimTime::period_of_hz(0);
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_ns(1));
    }

    #[test]
    fn display_picks_largest_exact_unit() {
        assert_eq!(SimTime::ZERO.to_string(), "0");
        assert_eq!(SimTime::from_ns(10).to_string(), "10ns");
        assert_eq!(SimTime::from_us(3).to_string(), "3us");
        assert_eq!(SimTime::from_ps(1_500).to_string(), "1500ps");
        assert_eq!(SimTime::from_s(2).to_string(), "2s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = [SimTime::from_ns(1), SimTime::from_ns(2)].into_iter().sum();
        assert_eq!(total, SimTime::from_ns(3));
    }
}
