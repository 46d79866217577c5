//! The multiplexed deployment: many UDP endpoints per reactor shard.
//!
//! [`Cluster`](crate::Cluster) multiplexes *processes* onto shard threads
//! but gives every shard exactly one transport endpoint: with an endpoint
//! per process it spends one OS thread blocked in `recv` per endpoint.
//! [`MuxCluster`] is the deployment shape the socket runtime was built for:
//! every process keeps its own real UDP socket, and `W` shard threads each
//! drive an [`irs_net::Reactor`] over their processes' sockets —
//! nonblocking I/O, one readiness wait per shard per turn, batched drains
//! into recycled buffers, and encode-once broadcast fan-out through the
//! reactor's queued sends. A 128-socket election therefore runs on
//! `W ≤ cores` threads instead of 128.
//! The loop itself is the shared one (see `host.rs`).

use crate::host::{default_accept, Deployment, MuxAccept};
use irs_net::Wire;
use irs_obs::Obs;
use irs_types::{Introspect, Protocol};
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration as StdDuration;

/// How the multiplexed cluster maps ticks to the wall clock and shards its
/// sockets.
#[derive(Clone, Copy, Debug)]
pub struct MuxConfig {
    /// The wall-clock length of one logical tick.
    pub tick: StdDuration,
    /// Number of reactor shards; `0` (the default) means the machine's
    /// available parallelism. Clamped to `1..=n` at spawn time.
    pub workers: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig {
            tick: StdDuration::from_micros(100),
            workers: 0,
        }
    }
}

/// A cluster of protocol instances, each on its own UDP socket, served by
/// `W` reactor shard threads named `irs-mux-<shard>` (see module docs).
/// Derefs to the shared [`Deployment`] handle for snapshots, leaders and
/// crash injection.
#[derive(Debug)]
pub struct MuxCluster<P> {
    deployment: Deployment<P>,
    addrs: Vec<SocketAddr>,
}

impl<P> MuxCluster<P>
where
    P: Protocol + Introspect + Send + 'static,
    P::Msg: Wire,
{
    /// Binds one ephemeral localhost UDP socket per process and spawns the
    /// cluster over them with the default admission policy
    /// ([`accept_frame_bytes`](crate::accept_frame_bytes): addressed to the hosting process, sender
    /// inside the deployment, payload decodable and sized for it).
    ///
    /// # Errors
    ///
    /// Returns any socket-binding or readiness-registration error.
    ///
    /// # Panics
    ///
    /// Panics if the instances' ids are not `0..n` in order.
    pub fn spawn_udp(processes: Vec<P>, config: MuxConfig) -> std::io::Result<Self> {
        let n = processes.len();
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
            .collect::<std::io::Result<_>>()?;
        let peers: Vec<SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<std::io::Result<_>>()?;
        Self::spawn_on_sockets(processes, sockets, peers, config, default_accept(n), None)
    }

    /// Spawns the cluster over pre-bound sockets (see
    /// [`Deployment::over_sockets`] for the socket, routing-table and
    /// admission contract). With `obs` attached each shard's reactor mirrors
    /// its counters onto the registry and every hosted node joins the
    /// telemetry plane.
    ///
    /// # Errors
    ///
    /// Returns any error from switching a socket to nonblocking mode or
    /// registering it with the readiness backend.
    ///
    /// # Panics
    ///
    /// Panics if the instances' ids are not `0..n` in order, or if the
    /// socket count differs from the process count.
    pub fn spawn_on_sockets(
        processes: Vec<P>,
        sockets: Vec<UdpSocket>,
        peer_addrs: Vec<SocketAddr>,
        config: MuxConfig,
        accept: MuxAccept<P::Msg>,
        obs: Option<Arc<Obs>>,
    ) -> std::io::Result<Self> {
        let addrs = sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<std::io::Result<_>>()?;
        let deployment = Deployment::over_sockets(
            "irs-mux", processes, sockets, peer_addrs, config, accept, obs,
        )?;
        Ok(MuxCluster { deployment, addrs })
    }

    /// The local socket addresses, in process-id order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Stops every shard and returns the final protocol states in id order
    /// (see [`Deployment::shutdown`]).
    pub fn shutdown(self) -> Vec<P> {
        self.deployment.shutdown()
    }
}

impl<P> std::ops::Deref for MuxCluster<P> {
    type Target = Deployment<P>;

    fn deref(&self) -> &Deployment<P> {
        &self.deployment
    }
}
