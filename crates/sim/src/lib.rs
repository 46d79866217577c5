//! Deterministic discrete-event simulation of the paper's system model.
//!
//! The paper — Fernández & Raynal, *From an intermittent rotating star to a
//! leader* — proves its algorithms correct against an abstract asynchronous
//! system `AS_{n,t}` in which an adversary controls every message transfer
//! delay, subject only to the behavioural assumption under study (`A′`, `A`,
//! `A_{f,g}`, or one of the special cases they generalise). This crate is
//! that system made executable:
//!
//! * [`Simulation`] drives `n` sans-IO protocol instances (anything
//!   implementing [`irs_types::Protocol`]) over a reliable network with a
//!   virtual clock, per-process timers and crash injection;
//! * [`adversary`] provides the delay/ordering models that realise each
//!   assumption, most importantly the [`adversary::star::StarAdversary`];
//! * [`CrashPlan`] injects crash-stop failures;
//! * [`Trace`], [`SimReport`] and [`Summary`] capture what experiments need
//!   to report.
//!
//! Determinism: given the same seed and configuration, a run produces the
//! same trace, byte for byte. All pseudo-randomness flows from [`SimRng`].
//!
//! # Example
//!
//! ```
//! use irs_sim::{adversary::basic::FixedDelay, CrashPlan, SimConfig, Simulation};
//! use irs_types::{Duration, Time};
//!
//! // The protocol type comes from another crate (e.g. `irs-omega`); here we
//! // only show the engine configuration surface.
//! let config = SimConfig::new(42, Time::from_ticks(100_000));
//! let adversary = FixedDelay::new(Duration::from_ticks(3));
//! let crashes = CrashPlan::new();
//! let _ = (config, adversary, crashes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
mod crash;
mod engine;
mod event;
mod rng;
mod stats;
mod trace;

pub use crash::CrashPlan;
pub use engine::{SimConfig, SimReport, Simulation, Stabilization};
pub use event::{Event, EventQueue, TimerGens};
pub use irs_obs::Histogram;
pub use rng::SimRng;
pub use stats::{percentage, Summary};
pub use trace::{LeaderChange, Trace, TraceCounters};
