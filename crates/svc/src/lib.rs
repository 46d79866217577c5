//! `irs-svc` — a replicated key-value service on the Ω-driven log.
//!
//! This crate is the first layer of the stack an external user can actually
//! talk to. Everything below it is machinery from the paper's world:
//! `irs-omega` elects the leader (Theorem 3), `irs-consensus` turns the
//! leader into a totally ordered log (Theorem 5), `irs-net` moves frames
//! across links, `irs-runtime` drives the event loops. This crate closes
//! the loop the paper's introduction opens — *state-machine replication* —
//! by applying the decided log to a key-value store and serving clients.
//!
//! # Architecture
//!
//! ```text
//!  SvcClient ──Request──▶ SvcReplica (leader)   ─┐
//!      ▲                    ReplicatedLog<…,Command>  consensus traffic
//!      └──Applied/Redirect──  KvStore ◀─ apply ─┘   (LogMsg frames)
//! ```
//!
//! * [`SvcReplica`] wraps a [`irs_consensus::ReplicatedLog`] over
//!   [`irs_omega::OmegaProcess`] whose slots decide
//!   [`irs_consensus::CommandBatch`]es (the leader drains up to
//!   `batch_max` pending commands per slot, with up to `pipeline_depth`
//!   slots in flight — `SvcConfig::with_batching`), plus the [`KvStore`]
//!   apply loop: batches apply atomically in slot order and one decision
//!   may ack many clients. Every `snapshot_interval` applied slots the
//!   replica exports its store and truncates the log behind the snapshot,
//!   so memory stays bounded under sustained load and a lagging replica
//!   converges via snapshot install. It is an ordinary sans-IO
//!   [`irs_types::Protocol`], so it runs under any driver.
//! * [`run_svc_node`] drives one replica over any
//!   [`irs_net::Transport`] endpoint — the same event loop as
//!   [`irs_runtime::run_node`], with a frame-acceptance policy that also
//!   admits client frames from endpoints outside the replica group.
//! * [`SvcCluster`] deploys `n` replicas (thread-per-node) over the
//!   in-memory mesh, UDP sockets, or fault-injected links, and hands back
//!   connected [`SvcClient`]s; `examples/kv_cluster.rs` is the
//!   process-per-node UDP deployment.
//! * [`SvcClient`] is the client path: leader discovery by probing,
//!   redirect-on-`NotLeader` (the [`SvcReply::Redirect`] protocol), and
//!   seeded retry/backoff so a leader crash mid-request heals by itself.
//!   One request window holds that rule, on time passed in, for the
//!   blocking calls, the open loop and a non-blocking surface that a
//!   caller on a manual clock drives.
//! * [`loadgen`] is the load harness: closed-loop and open-loop clients
//!   with log2-bucket latency histograms ([`irs_sim::Histogram`]), feeding
//!   the E12 experiment family (ops/s, p50/p99 per transport backend).
//!
//! # Client redirect protocol
//!
//! A client sends [`SvcMsg::Request`] to the replica it believes leads.
//! The replica answers [`SvcReply::Applied`] once the command is decided
//! *and applied* at that replica (so an ack implies the write is in the
//! decided prefix), or [`SvcReply::Redirect`] naming its current Ω leader
//! output when it does not consider itself the leader. On silence the
//! client retries with seeded exponential backoff, rotating to another
//! replica — that is what rides out a leader going dark (the B1931+24
//! regime) or crashing. Commands carry a `(client, seq)` header; replicas
//! deduplicate retries by that header, so a retried command applies
//! exactly once no matter how many copies reach the log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod cluster;
mod command;
mod durability;
pub mod loadgen;
mod msg;
mod node;
mod replica;
mod store;

pub use client::{Answer, ClientError, ClientStats, SvcClient};
pub use cluster::SvcCluster;
pub use command::{KvOp, KvView, KvWrite};
pub use durability::{Durability, Recovered};
pub use irs_consensus::Command;
pub use irs_wal::FsyncPolicy;
pub use msg::{ReadTier, SvcMsg, SvcReply};
pub use node::{accept_svc_frame, run_svc_node, SvcConfig};
pub use replica::{SvcReplica, TIMER_LEASE};
pub use store::KvStore;
