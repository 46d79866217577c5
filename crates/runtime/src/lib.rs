//! Real-time execution of the sans-IO protocols: one host loop, two I/O
//! sources, three drivers.
//!
//! The discrete-event simulator (`irs-sim`) is where the assumptions of the
//! paper are reproduced faithfully and deterministically; this crate answers
//! the other question a user of the library has — *can I actually run this?*
//!
//! **One loop.** A protocol is a state machine with two effects, "broadcast"
//! and "set timer". `host.rs` holds the only code that turns those into
//! wall-clock behaviour: a shard of `k ≥ 1` processes with one timer wheel,
//! one `Actions` dispatch, one admit → stage → deliver path (a frame's
//! payload decoded once, every message — a frame's or a co-hosted
//! process's — judged by one typed admission rule), one set of
//! per-node telemetry (reign panel, leader-change trace, live scrape),
//! snapshots built only when someone reads them, and one draining shutdown.
//! Its module docs carry the hot-path notes.
//!
//! **Two I/O sources.** A shard runs over any [`irs_net::Transport`]
//! endpoint (blocking `recv`, then a zero-timeout drain of the burst; a
//! frame's shared payload is decoded as shared, so the commands it carries
//! stay ranges of it) or
//! over an [`irs_net::Reactor`] (one readiness wait across all the shard's
//! nonblocking UDP sockets, batched borrowed-bytes drains, queued
//! encode-once fan-out). Link delay and loss live in the link
//! ([`irs_net::FaultyLink`]), never in the loop.
//!
//! **Three drivers.** Who turns the loop is the only difference between
//! the deployment shapes:
//!
//! * shard threads — [`Deployment`]: `W` shards, shard `s` owning the
//!   processes `i` with `i % W == s`, each on a thread of its own with a
//!   wall clock. [`Deployment::spawn`] is the shared-memory scale shape (`W`
//!   = the machine's available parallelism by default, over the in-memory
//!   mesh behind a seeded [`irs_net::LinkModel`]), so clusters of 256+
//!   processes run on a handful of OS threads; [`Deployment::spawn_on`]
//!   takes the endpoints instead (with one per process every process has
//!   its own in-memory, UDP-socket or fault-injected link); and
//!   [`Deployment::spawn_udp`] gives every process a real UDP socket served
//!   by `W` reactor shards, a 128-socket deployment on a handful of
//!   threads. The handle takes snapshots, reads `leader()` outputs, injects
//!   crashes, shuts down draining and stops its threads on drop.
//! * the calling thread — [`run_node`] / [`run_node_with`]: one shard of
//!   one, for deployments where every process is its own OS process (see
//!   `examples/socket_cluster.rs`); the same cells reach the embedder as a
//!   [`NodeHandle`].
//! * the caller's turns — [`Stepper`]: all `n` processes on one shard over
//!   one endpoint, on an [`irs_net::ManualClock`]; each call fires the due
//!   timers, polls once without waiting and delivers, so over a
//!   deterministic endpoint (no link delay) a schedule of clock advances
//!   (and crashes, [`Stepper::crash`]) replays a run exactly.
//!
//! The protocols themselves are byte-for-byte the same state machines that
//! run under the simulator: `irs_omega::OmegaProcess`, the baselines and
//! the consensus layer all work unchanged.
//!
//! # Example
//!
//! ```no_run
//! use irs_net::LinkModel;
//! use irs_runtime::{Deployment, RealtimeConfig};
//! use irs_omega::OmegaProcess;
//! use irs_types::SystemConfig;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), irs_types::ConfigError> {
//! let system = SystemConfig::new(4, 1)?;
//! let processes: Vec<_> = system.processes().map(|id| OmegaProcess::fig3(id, system)).collect();
//! // Every link delays each frame by 50 µs – 2 ms, drawn from seed 7.
//! let link = LinkModel::new(7).with_delay(Duration::from_micros(50), Duration::from_millis(2));
//! let cluster = Deployment::spawn(processes, RealtimeConfig::default(), link);
//! std::thread::sleep(Duration::from_millis(500));
//! println!("leaders: {:?}", cluster.leaders());
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod host;
mod node;
mod step;

pub use cluster::{Deployment, RealtimeConfig};
pub use host::{accept_frame, accept_frame_bytes, admits, MuxAccept, SnapshotCell};
pub use node::{run_node, run_node_with, NodeConfig, NodeHandle};
pub use step::Stepper;
