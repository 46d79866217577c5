//! Experiment harness for the intermittent-rotating-star workspace.
//!
//! The paper is a theory paper: its "evaluation" is a set of lemmas and
//! theorems. This crate turns each of them into a measurable experiment
//! (E1–E10 under the simulator; E11–E16 run Ω and Theorem 5's log as a
//! replicated service over real transports; all indexed in
//! `EXPERIMENTS.md`) and provides the machinery to run them reproducibly:
//!
//! * [`Scenario`] — one fully specified cell: system size, algorithm,
//!   assumption (adversary), background-delay regime, crash schedule,
//!   horizon, seeds;
//! * [`RunOutcome`] / [`Aggregate`] — what one run produced and how a batch
//!   of seeds is summarised;
//! * [`suite`] — the sixteen experiments, each returning a [`Table`];
//! * [`Table`] — plain-text / CSV rendering used by the `irs-experiments`
//!   binary and pasted into `EXPERIMENTS.md`.
//!
//! Run the whole suite with `cargo run --release -p irs-experiments -- all`,
//! or a single experiment with e.g. `… -- e6`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod outcome;
mod scenario;
pub mod suite;
mod table;

pub use outcome::{Aggregate, RunOutcome};
pub use scenario::{run_batch, Algorithm, Assumption, Background, Scenario};
pub use table::Table;
