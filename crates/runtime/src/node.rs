//! One protocol instance driven over one [`Transport`] endpoint.
//!
//! This is the deployment unit of a distributed run: the loop that a real
//! node — its own OS process, its own socket — executes, blocking the
//! calling thread. It is the shared host loop (`host.rs`) as one shard of
//! one process: messages are delivered the moment the transport hands them
//! over (on a real link the arrival time *is* the delivery time; shaping
//! belongs to the link model, not the node), timers are driven off the wall
//! clock, and outbound messages are wire-encoded once per broadcast.
//!
//! [`Deployment::spawn_on`](crate::Deployment::spawn_on) with one endpoint
//! per process runs the same loop on one thread per node for in-process
//! deployments, and `examples/socket_cluster.rs` calls
//! [`run_node`] directly from `main` in each spawned OS process.
//! [`run_node_with`] exposes the same loop with a caller-supplied admission
//! rule and an optional observability handle — the replicated KV service
//! (`irs-svc`) uses it to admit client messages from endpoints outside the
//! replica group, which the default rule treats as link noise.

use crate::host::{default_accept, Local, NodeCells, Shard, SnapshotCell};
use irs_net::{FaultClock, Transport, Wire};
use irs_obs::Obs;
use irs_types::{Introspect, ProcessId, Protocol};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration as StdDuration;

/// How a node maps protocol ticks onto the wall clock.
#[derive(Clone, Copy, Debug)]
pub struct NodeConfig {
    /// Number of processes in the deployment (the fan-out of a broadcast).
    pub n: usize,
    /// The wall-clock length of one logical tick.
    pub tick: StdDuration,
}

impl NodeConfig {
    /// A configuration for an `n`-process deployment with the default
    /// 100 µs tick.
    pub fn new(n: usize) -> Self {
        NodeConfig {
            n,
            tick: StdDuration::from_micros(100),
        }
    }

    /// Sets the tick length.
    #[must_use]
    pub fn with_tick(mut self, tick: StdDuration) -> Self {
        self.tick = tick.max(StdDuration::from_nanos(1));
        self
    }
}

/// The shared handles through which an embedder observes and stops a node.
#[derive(Clone, Debug, Default)]
pub struct NodeHandle {
    /// The node's snapshot, built on request: [`SnapshotCell::read`]
    /// returns one built after the call began, within one loop iteration
    /// (or the last one served, once the loop has returned).
    pub snapshot: Arc<SnapshotCell>,
    /// Set to crash-stop the process: it stops reacting to messages, timers
    /// and scrapes but keeps draining its transport until stopped.
    pub crashed: Arc<AtomicBool>,
    /// Set to stop the event loop and return the protocol state.
    pub stop: Arc<AtomicBool>,
}

impl NodeHandle {
    /// Fresh handles (not crashed, not stopped).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Drives `proto` over `transport` until [`NodeHandle::stop`] is set, then
/// returns the final protocol state. A frame's payload is decoded, and the
/// message admitted by the default rule ([`admits`](crate::admits)):
/// addressed to this node, sender inside the deployment, sized for it.
///
/// On stop, frames already queued (or held) in the transport are drained
/// and delivered until a full quiet window passes (so no in-flight message
/// is silently dropped), but sends and timers they generate are discarded —
/// the node is quiescing.
pub fn run_node<P, T>(proto: P, transport: T, config: NodeConfig, handle: NodeHandle) -> P
where
    P: Protocol + Introspect,
    P::Msg: Wire,
    T: Transport,
{
    let accept = default_accept(config.n);
    run_node_with(proto, transport, config, handle, &*accept, None)
}

/// [`run_node`] with a caller-supplied admission rule — `accept(me, from,
/// to, &msg)` says whether a decoded message may reach the protocol, or is
/// dropped as link noise, applied identically in the live loop and the
/// shutdown drain — and an optional observability handle: with `obs`, the
/// host-loop counters land on its registry (`runtime_polls`,
/// `runtime_timers_fired`, `runtime_frames_delivered`), Ω leader changes are
/// traced to its flight recorder, the node feeds the leader-reign SLO panel
/// and answers live scrape requests. [`NodeConfig`] stays `Copy`; the handle
/// rides alongside it instead of inside it.
pub fn run_node_with<P, T>(
    proto: P,
    transport: T,
    config: NodeConfig,
    handle: NodeHandle,
    accept: impl FnMut(ProcessId, ProcessId, ProcessId, &P::Msg) -> bool,
    obs: Option<&Obs>,
) -> P
where
    P: Protocol + Introspect,
    P::Msg: Wire,
    T: Transport,
{
    let cells = NodeCells {
        snapshot: handle.snapshot,
        crashed: handle.crashed,
    };
    let local = Local::new(proto, cells, obs, config.tick);
    // One shard of one: with a stride of `n` every id maps to local index 0.
    let stride = config.n.max(1);
    let clock = FaultClock::wall(config.tick);
    Shard::new(transport, vec![local], stride, config.n, clock, accept, obs)
        .run(&handle.stop)
        .pop()
        .expect("a shard returns every process it hosts")
}
