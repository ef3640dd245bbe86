//! Bus-wide configuration, distributed over the broadcast configuration
//! channel in a real system (§7).

use mbus_sim::SimTime;

use crate::error::MbusError;

/// The minimum value a mediator may use for its maximum-message-length
/// counter: "MBus requires a minimum maximum length of 1 kB" (§7).
pub const MIN_MAX_MESSAGE_BYTES: usize = 1024;

/// The specification's node-to-node propagation delay budget (§6.1):
/// "The MBus specification defines a maximum node-to-node delay of
/// 10 ns."
pub const MAX_HOP_DELAY: SimTime = SimTime::from_ns(10);

/// The default bus clock of the authors' systems (§6.3.2): 400 kHz.
pub const DEFAULT_CLOCK_HZ: u64 = 400_000;

/// Progress guarantee (§7): a node that wins arbitration may send at
/// least this many payload bytes before another node may interject.
pub const MIN_BYTES_BEFORE_INTERJECT: usize = 4;

/// Bus-wide configuration: clock rate, hop delay, and the mediator's
/// runaway-message limit.
///
/// In hardware these values are broadcast on the configuration channel
/// so that "all interested nodes \[can\] track it"; here the same struct
/// is shared by construction and updated through
/// [`crate::analytic::AnalyticBus::apply_config`] or the wire-level
/// builder.
///
/// # Example
///
/// ```
/// use mbus_core::BusConfig;
///
/// let config = BusConfig::new(400_000)?
///     .with_max_message_bytes(4096)?;
/// assert_eq!(config.clock_hz(), 400_000);
/// assert_eq!(config.max_message_bytes(), 4096);
/// # Ok::<(), mbus_core::MbusError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BusConfig {
    clock_hz: u64,
    max_message_bytes: usize,
    hop_delay: SimTime,
    mediator_wakeup_cycles: u32,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            clock_hz: DEFAULT_CLOCK_HZ,
            max_message_bytes: MIN_MAX_MESSAGE_BYTES,
            hop_delay: MAX_HOP_DELAY,
            mediator_wakeup_cycles: 1,
        }
    }
}

impl BusConfig {
    /// Creates a configuration with the given bus clock.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::InvalidConfig`] if `clock_hz` is zero or
    /// beyond the 10 MHz the implemented chips tune to (§6.3.2 gives a
    /// 10 kHz – 6.67 MHz range; we allow up to 50 MHz, the 2-node
    /// theoretical ceiling of Fig. 9).
    pub fn new(clock_hz: u64) -> Result<Self, MbusError> {
        if clock_hz == 0 {
            return Err(MbusError::InvalidConfig {
                reason: "bus clock must be nonzero",
            });
        }
        if clock_hz > 50_000_000 {
            return Err(MbusError::InvalidConfig {
                reason: "bus clock above the 50 MHz two-node ceiling",
            });
        }
        Ok(BusConfig {
            clock_hz,
            ..BusConfig::default()
        })
    }

    /// Sets the mediator's maximum message length.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::InvalidConfig`] below the 1 kB
    /// minimum-maximum the specification requires.
    pub fn with_max_message_bytes(mut self, max: usize) -> Result<Self, MbusError> {
        if max < MIN_MAX_MESSAGE_BYTES {
            return Err(MbusError::InvalidConfig {
                reason: "maximum message length below the 1 kB minimum-maximum",
            });
        }
        self.max_message_bytes = max;
        Ok(self)
    }

    /// Sets the per-hop propagation delay used by the wire-level engine.
    ///
    /// # Errors
    ///
    /// Returns [`MbusError::InvalidConfig`] if the delay exceeds the
    /// specification's 10 ns budget.
    pub fn with_hop_delay(mut self, delay: SimTime) -> Result<Self, MbusError> {
        if delay > MAX_HOP_DELAY {
            return Err(MbusError::InvalidConfig {
                reason: "node-to-node delay above the 10 ns specification budget",
            });
        }
        self.hop_delay = delay;
        Ok(self)
    }

    /// Sets how many bus-clock periods the mediator's self-start takes.
    pub fn with_mediator_wakeup_cycles(mut self, cycles: u32) -> Self {
        self.mediator_wakeup_cycles = cycles;
        self
    }

    /// The bus clock frequency in Hz.
    pub fn clock_hz(&self) -> u64 {
        self.clock_hz
    }

    /// One full clock period.
    pub fn clock_period(&self) -> SimTime {
        SimTime::period_of_hz(self.clock_hz)
    }

    /// Half a clock period (the drive-to-latch spacing).
    pub fn half_period(&self) -> SimTime {
        self.clock_period() / 2
    }

    /// The mediator's maximum message length in bytes.
    pub fn max_message_bytes(&self) -> usize {
        self.max_message_bytes
    }

    /// Node-to-node propagation delay.
    pub fn hop_delay(&self) -> SimTime {
        self.hop_delay
    }

    /// Mediator self-start latency in bus-clock periods.
    pub fn mediator_wakeup_cycles(&self) -> u32 {
        self.mediator_wakeup_cycles
    }
}

/// Fig. 9's curve: the maximum bus clock for an `n`-node ring with the
/// given per-hop delay. The full ring (n hops) must settle within one
/// clock period.
///
/// # Panics
///
/// Panics if `n < 2` or the hop delay is zero.
///
/// # Example
///
/// ```
/// use mbus_core::config::max_clock_hz;
/// use mbus_sim::SimTime;
///
/// // The paper: "a 14-node MBus system can run at up to 7.1 MHz".
/// let f = max_clock_hz(14, SimTime::from_ns(10));
/// assert_eq!(f, 7_142_857);
/// ```
pub fn max_clock_hz(n: usize, hop_delay: SimTime) -> u64 {
    assert!(n >= 2, "a bus has a mediator and at least one member");
    assert!(!hop_delay.is_zero(), "hop delay must be nonzero");
    let ring_delay_ps = hop_delay.as_ps() * n as u64;
    1_000_000_000_000 / ring_delay_ps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_system() {
        let c = BusConfig::default();
        assert_eq!(c.clock_hz(), 400_000);
        assert_eq!(c.max_message_bytes(), 1024);
        assert_eq!(c.hop_delay(), SimTime::from_ns(10));
        assert_eq!(c.clock_period(), SimTime::from_ns(2_500));
        assert_eq!(c.half_period(), SimTime::from_ns(1_250));
    }

    #[test]
    fn clock_bounds() {
        assert!(BusConfig::new(0).is_err());
        assert!(BusConfig::new(50_000_001).is_err());
        assert!(BusConfig::new(10_000).is_ok());
        assert!(BusConfig::new(6_670_000).is_ok());
    }

    #[test]
    fn max_message_minimum_maximum() {
        let c = BusConfig::default();
        assert!(c.with_max_message_bytes(1023).is_err());
        assert_eq!(
            c.with_max_message_bytes(28_800)
                .unwrap()
                .max_message_bytes(),
            28_800
        );
    }

    #[test]
    fn hop_delay_budget() {
        let c = BusConfig::default();
        assert!(c.with_hop_delay(SimTime::from_ns(11)).is_err());
        assert!(c.with_hop_delay(SimTime::from_ns(3)).is_ok());
    }

    #[test]
    fn fig9_endpoints() {
        // 2 nodes -> 50 MHz; 14 nodes -> 7.1 MHz.
        assert_eq!(max_clock_hz(2, SimTime::from_ns(10)), 50_000_000);
        let f14 = max_clock_hz(14, SimTime::from_ns(10));
        assert!((7_100_000..=7_150_000).contains(&f14), "{f14}");
    }

    #[test]
    fn fig9_is_monotonically_decreasing() {
        let mut prev = u64::MAX;
        for n in 2..=14 {
            let f = max_clock_hz(n, SimTime::from_ns(10));
            assert!(f < prev);
            prev = f;
        }
    }

    #[test]
    #[should_panic(expected = "mediator")]
    fn max_clock_needs_two_nodes() {
        let _ = max_clock_hz(1, SimTime::from_ns(10));
    }
}
