//! Umbrella crate for the *intermittent rotating star* workspace.
//!
//! This crate re-exports the workspace's public surface so that examples,
//! integration tests and downstream users can depend on a single name:
//!
//! * [`omega`] — the paper's Ω algorithms (Figures 1–3 and `A_{f,g}`);
//! * [`sim`] — the deterministic discrete-event simulator and the adversary
//!   models realising the paper's assumptions;
//! * [`baselines`] — earlier Ω algorithms used as comparison points;
//! * [`consensus`] — Ω-based indulgent consensus and the replicated log
//!   (Theorem 5);
//! * [`net`] — the pluggable transport subsystem: wire codec, in-memory /
//!   UDP-socket backends, fault-injecting link models;
//! * [`obs`] — dependency-free observability: the sharded metrics
//!   registry, the flight recorder, and Prometheus/JSON exposition;
//! * [`runtime`] — the one host loop over those transports, on shard
//!   threads, on a node's own thread, or stepped on a manual clock;
//! * [`svc`] — the replicated key-value service on the Ω-driven log:
//!   deployable replicas, the redirecting client library, and the
//!   load-generator harness;
//! * [`experiments`] — the experiment harness behind `EXPERIMENTS.md`;
//! * [`types`] — the shared vocabulary (ids, time, rounds, the sans-IO
//!   [`types::Protocol`] trait).
//!
//! See the `examples/` directory for runnable entry points, starting with
//! `cargo run --example quickstart`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use irs_baselines as baselines;
pub use irs_consensus as consensus;
pub use irs_experiments as experiments;
pub use irs_net as net;
pub use irs_obs as obs;
pub use irs_omega as omega;
pub use irs_runtime as runtime;
pub use irs_sim as sim;
pub use irs_svc as svc;
pub use irs_types as types;
