//! Real-time execution of the sans-IO protocols: one host loop, two I/O
//! sources, three constructors.
//!
//! The discrete-event simulator (`irs-sim`) is where the assumptions of the
//! paper are reproduced faithfully and deterministically; this crate answers
//! the other question a user of the library has — *can I actually run this?*
//!
//! **One loop.** A protocol is a state machine with two effects, "broadcast"
//! and "set timer". `host.rs` holds the only code that turns those into
//! wall-clock behaviour: a shard of `k ≥ 1` processes with one timer wheel,
//! one `Actions` dispatch, one admit → stage → deliver path, one set of
//! per-node telemetry (reign panel, leader-change trace, live scrape),
//! snapshots built only when someone reads them, and one draining shutdown.
//! Its module docs carry the hot-path notes.
//!
//! **Two I/O sources.** A shard runs over any [`irs_net::Transport`]
//! endpoint (blocking `recv`, then a zero-timeout drain of the burst) or
//! over an [`irs_net::Reactor`] (one readiness wait across all the shard's
//! nonblocking UDP sockets, batched borrowed-bytes drains, queued
//! encode-once fan-out). Link delay and loss live in the link
//! ([`irs_net::FaultyLink`]), never in the loop.
//!
//! **Three constructors.** The two in-process ones dereference to the same
//! [`Deployment`] handle — snapshots, `leader()` outputs, crash injection,
//! draining shutdown, stop-on-drop; the third hands the same cells to the
//! embedder as a [`NodeHandle`]:
//!
//! * [`Cluster`] — `W` worker shards over transport endpoints, shard `s`
//!   owning the processes `i` with `i % W == s` behind one endpoint.
//!   [`Cluster::spawn`] is the shared-memory scale shape: `W` = the machine's available
//!   parallelism by default, over the in-memory mesh with seeded per-link
//!   delay, so clusters of 256+ processes run on a handful of OS threads.
//!   [`Cluster::spawn_on`] takes the endpoints instead — with one endpoint
//!   per process (`W = n`) every process has its own in-memory, UDP-socket
//!   or fault-injected link, on a thread of its own.
//! * [`MuxCluster`] — `W` shards over reactors: one real UDP socket per
//!   process, a 128-socket deployment on a handful of threads where
//!   [`Cluster::spawn_on`] with one socket per process would park 128
//!   threads in `recv`.
//! * [`run_node`] / [`run_node_with`] — one shard of one on the calling
//!   thread, for deployments where every process is its own OS process (see
//!   `examples/socket_cluster.rs`).
//!
//! The protocols themselves are byte-for-byte the same state machines that
//! run under the simulator: [`irs_omega::OmegaProcess`], the baselines and
//! the consensus layer all work unchanged.
//!
//! # Example
//!
//! ```no_run
//! use irs_runtime::{Cluster, LinkDelay, RealtimeConfig};
//! use irs_omega::OmegaProcess;
//! use irs_types::SystemConfig;
//!
//! # fn main() -> Result<(), irs_types::ConfigError> {
//! let system = SystemConfig::new(4, 1)?;
//! let processes: Vec<_> = system.processes().map(|id| OmegaProcess::fig3(id, system)).collect();
//! let cluster = Cluster::spawn(processes, RealtimeConfig::default(), LinkDelay::Jitter {
//!     min: std::time::Duration::from_micros(50),
//!     max: std::time::Duration::from_millis(2),
//! });
//! std::thread::sleep(std::time::Duration::from_millis(500));
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
mod muxcluster;
mod node;

pub use cluster::{Cluster, LinkDelay, RealtimeConfig};
pub use host::{accept_frame, accept_frame_bytes, Deployment, MuxAccept, SnapshotCell};
pub use muxcluster::{MuxCluster, MuxConfig};
pub use node::{run_node, run_node_with, NodeConfig, NodeHandle};
