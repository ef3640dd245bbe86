//! Deterministic discrete-event digital-logic simulation kernel.
//!
//! This crate is the hardware substrate of the MBus reproduction: it plays
//! the role the authors' twelve custom chips and two FPGAs play in the
//! paper. Everything above it (the MBus protocol engines, the baseline
//! buses, the microbenchmark systems) executes against this kernel.
//!
//! The kernel is intentionally small and strictly deterministic:
//!
//! * [`SimTime`] — picosecond-resolution virtual time.
//! * [`Scheduler`] — a stable-ordered event queue; ties are broken by
//!   insertion sequence so replays are bit-identical.
//! * nets (addressed by [`NetId`]) — single-driver, with per-listener
//!   propagation delay,
//!   modelling the point-to-point "shoot-through" segments of the MBus
//!   rings (§4.1 of the paper).
//! * [`Component`] — behavioral models that react to pin changes and
//!   timers, and may drive their output pins after a delay.
//! * [`Trace`] — per-net edge counts, kept on every run, which the
//!   energy model charges.
//! * [`History`] — timestamped transitions, kept only after
//!   [`Circuit::record_history`], feeding VCD export, ASCII waveform
//!   rendering and edge-timing queries.
//!
//! # Example
//!
//! ```
//! use mbus_sim::{Circuit, Component, Ctx, Logic, PinId, SimTime};
//!
//! /// An inverter with 1 ns propagation delay.
//! struct Inverter { input: PinId, output: PinId }
//!
//! impl Component for Inverter {
//!     fn on_signal(&mut self, pin: PinId, value: Logic, ctx: &mut Ctx<'_>) {
//!         if pin == self.input {
//!             ctx.drive_after(self.output, !value, SimTime::from_ns(1));
//!         }
//!     }
//! }
//!
//! let mut circuit = Circuit::new();
//! let a = circuit.net("a");
//! let b = circuit.net("b");
//! let inv = circuit.add_component("inv");
//! let input = circuit.input(inv, a);
//! let output = circuit.output(inv, b);
//! circuit.bind(inv, Inverter { input, output });
//! circuit.drive_at(output, Logic::Low, SimTime::ZERO);
//! circuit.drive_external(a, Logic::High, SimTime::from_ns(5));
//! circuit.run_until(SimTime::from_ns(20));
//! assert_eq!(circuit.value(b), Logic::Low);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod circuit;
mod event;
mod logic;
mod rng;
mod time;
mod trace;
mod vcd;
mod waveform;

pub use circuit::{Circuit, Component, ComponentId, Ctx, NetId, PinId, TimerToken};
pub use event::{Event, EventKind, Scheduler};
pub use logic::{Edge, Logic};
pub use rng::SmallRng;
pub use time::SimTime;
pub use trace::{History, Trace, Transition};
pub use vcd::VcdWriter;
pub use waveform::{WaveformRenderer, WaveformStyle};
