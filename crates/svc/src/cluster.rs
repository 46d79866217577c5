//! In-process service deployments: `n` replicas on the shared host loop,
//! plus connected clients.
//!
//! A [`SvcCluster`] is an [`irs_runtime::Deployment`] of [`SvcReplica`]s —
//! one node thread per replica over any transport backend, or the
//! multiplexed socket runtime — under the service's admission policy,
//! extended with the client plane: the mesh is built with `n + c` endpoints,
//! the first `n` host replicas and the rest become [`SvcClient`]s. For the
//! process-per-node deployment over UDP see `examples/kv_cluster.rs`.

use crate::client::SvcClient;
use crate::node::SvcConfig;
use crate::replica::SvcReplica;
use irs_net::{FaultyLink, LinkModel, MemNetwork, MemTransport, Transport, UdpTransport};
use irs_runtime::{Deployment, RealtimeConfig};
use irs_types::ProcessId;
use std::sync::Arc;

/// Seed base for the deterministic per-client retry jitter.
const CLIENT_SEED: u64 = 0x5EED_C11E;

/// A running KV-service deployment. Derefs to the shared [`Deployment`]
/// handle for snapshots, leaders and crash injection.
#[derive(Debug)]
pub struct SvcCluster {
    deployment: Deployment<SvcReplica>,
    /// The shared observability handle, when the config carried one —
    /// callers scrape metrics or dump the flight recorder through it
    /// while the cluster runs (and after shutdown).
    obs: Option<Arc<irs_obs::Obs>>,
}

impl SvcCluster {
    /// Spawns `config.n` replicas, one thread each, over the given
    /// endpoints (`transports[i]` hosts replica `i`). Resilience is the
    /// largest consensus-compatible `t = ⌊(n−1)/2⌋`.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint count disagrees with `config.n`, or `n < 3`
    /// (a majority-based service needs to survive at least one crash).
    pub fn spawn<T>(transports: Vec<T>, config: SvcConfig) -> Self
    where
        T: Transport + 'static,
    {
        assert_eq!(transports.len(), config.n, "one endpoint per replica");
        let deployment = Deployment::over_transports(
            "irs-svc",
            config.replicas(),
            transports,
            config.tick,
            config.accept(),
            config.obs.clone(),
        );
        SvcCluster {
            deployment,
            obs: config.obs,
        }
    }

    /// An `n`-replica deployment over the in-memory mesh, with `clients`
    /// connected client endpoints.
    pub fn in_memory(
        n: usize,
        clients: usize,
        config: SvcConfig,
    ) -> (Self, Vec<SvcClient<MemTransport>>) {
        let mut mesh = MemNetwork::mesh(n + clients);
        let client_eps = mesh.split_off(n);
        let cluster = Self::spawn(mesh, config);
        (cluster, Self::wrap_clients(n, client_eps))
    }

    /// Like [`SvcCluster::in_memory`], with a fault-injecting link model on
    /// every *replica* endpoint (`model(p)` shapes what replica `p`
    /// receives; clients see clean links, which isolates the consensus
    /// plane as the thing under stress).
    pub fn with_link_models(
        n: usize,
        clients: usize,
        config: SvcConfig,
        mut model: impl FnMut(ProcessId) -> LinkModel,
    ) -> (Self, Vec<SvcClient<MemTransport>>) {
        let mut mesh = MemNetwork::mesh(n + clients);
        let client_eps = mesh.split_off(n);
        let mut faulty: Vec<FaultyLink<MemTransport>> = mesh
            .into_iter()
            .enumerate()
            .map(|(i, t)| FaultyLink::new(t, model(ProcessId::new(i as u32))))
            .collect();
        if let Some(obs) = &config.obs {
            for t in &mut faulty {
                t.attach_obs(obs.registry());
            }
        }
        let cluster = Self::spawn(faulty, config);
        (cluster, Self::wrap_clients(n, client_eps))
    }

    /// An `n`-replica deployment over real UDP sockets on localhost, with
    /// `clients` connected client sockets.
    ///
    /// # Errors
    ///
    /// Returns any socket-binding error.
    pub fn udp(
        n: usize,
        clients: usize,
        config: SvcConfig,
    ) -> std::io::Result<(Self, Vec<SvcClient<UdpTransport>>)> {
        let mut mesh = UdpTransport::localhost_mesh(n + clients)?;
        let client_eps = mesh.split_off(n);
        if let Some(obs) = &config.obs {
            for t in &mut mesh {
                t.attach_obs(obs.registry());
            }
        }
        let cluster = Self::spawn(mesh, config);
        Ok((cluster, Self::wrap_clients(n, client_eps)))
    }

    /// An `n`-replica deployment on the multiplexed socket runtime: every
    /// replica and every client keeps its own real UDP socket; the replicas
    /// are served by `workers` reactor shard threads (`0` = the machine's
    /// parallelism) — where [`SvcCluster::udp`] spends one thread per
    /// replica — and each client's socket by whichever thread calls that
    /// client, with no thread of its own: a call is the caller's `send_to`,
    /// a shard's turn, and the caller's `recv_from`.
    ///
    /// # Errors
    ///
    /// Returns any socket-binding or readiness-registration error.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn mux_udp(
        n: usize,
        clients: usize,
        workers: usize,
        config: SvcConfig,
    ) -> std::io::Result<(Self, Vec<SvcClient<UdpTransport>>)> {
        let mut sockets: Vec<std::net::UdpSocket> = (0..n + clients)
            .map(|_| std::net::UdpSocket::bind(("127.0.0.1", 0)))
            .collect::<std::io::Result<_>>()?;
        let peer_addrs: Vec<std::net::SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<std::io::Result<_>>()?;
        let client_sockets = sockets.split_off(n);
        let deployment = Deployment::over_sockets(
            "irs-mux",
            config.replicas(),
            sockets,
            peer_addrs.clone(),
            RealtimeConfig {
                tick: config.tick,
                workers,
            },
            config.accept(),
            config.obs.clone(),
        )?;
        let client_eps = client_sockets
            .into_iter()
            .map(|socket| UdpTransport::from_socket(socket, peer_addrs.clone()))
            .collect::<std::io::Result<Vec<_>>>()?;
        let cluster = SvcCluster {
            deployment,
            obs: config.obs,
        };
        Ok((cluster, Self::wrap_clients(n, client_eps)))
    }

    fn wrap_clients<T: Transport>(n: usize, endpoints: Vec<T>) -> Vec<SvcClient<T>> {
        endpoints
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let id = ProcessId::new((n + i) as u32);
                SvcClient::new(id, n, t, CLIENT_SEED ^ (i as u64 + 1))
            })
            .collect()
    }

    /// The shared observability handle, when the config carried one.
    pub fn obs(&self) -> Option<&Arc<irs_obs::Obs>> {
        self.obs.as_ref()
    }

    /// Stops every replica and returns the final states (stores included)
    /// in id order (see [`Deployment::shutdown`]).
    pub fn shutdown(self) -> Vec<SvcReplica> {
        self.deployment.shutdown()
    }
}

impl std::ops::Deref for SvcCluster {
    type Target = Deployment<SvcReplica>;

    fn deref(&self) -> &Deployment<SvcReplica> {
        &self.deployment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration as StdDuration;

    #[test]
    fn in_memory_service_applies_and_acks_puts() {
        let (cluster, mut clients) = SvcCluster::in_memory(3, 1, SvcConfig::new(3, 1));
        let client = &mut clients[0];
        let deadline = StdDuration::from_secs(20);
        let slot_a = client.put(b"a", b"1", deadline).expect("put a");
        let slot_b = client.put(b"b", b"2", deadline).expect("put b");
        assert!(slot_b > slot_a, "log slots grow: {slot_a} then {slot_b}");
        client.delete(b"a", deadline).expect("del a");
        let finals = cluster.shutdown();
        // The shutdown drain flushes in-flight Decides, so every replica
        // should have converged on the same state.
        for r in &finals {
            assert_eq!(r.store().get(b"b"), Some(b"2".as_slice()));
            assert_eq!(r.store().get(b"a"), None);
        }
        let digests: Vec<u64> = finals.iter().map(|r| r.store().digest()).collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "replicas diverged: {digests:x?}"
        );
        assert_eq!(client.stats.acked, 3);
    }

    #[test]
    fn udp_service_applies_a_put_end_to_end() {
        let (cluster, mut clients) =
            SvcCluster::udp(3, 1, SvcConfig::new(3, 1)).expect("bind sockets");
        let slot = clients[0]
            .put(b"k", b"v", StdDuration::from_secs(30))
            .expect("put over UDP");
        let finals = cluster.shutdown();
        assert!(finals
            .iter()
            .any(|r| r.store().get(b"k") == Some(b"v".as_slice())));
        assert!(finals[0].log().decision(slot).is_some());
    }

    #[test]
    fn mux_udp_service_applies_a_put_end_to_end() {
        let (cluster, mut clients) =
            SvcCluster::mux_udp(3, 1, 2, SvcConfig::new(3, 1)).expect("bind sockets");
        let slot = clients[0]
            .put(b"k", b"v", StdDuration::from_secs(30))
            .expect("put over multiplexed UDP");
        let finals = cluster.shutdown();
        assert!(finals
            .iter()
            .any(|r| r.store().get(b"k") == Some(b"v".as_slice())));
        assert!(finals[0].log().decision(slot).is_some());
    }

    /// Dropping a thread-backed cluster without `shutdown` must stop its
    /// replica threads. The probe watches `irs-svc-6`, which only this
    /// test's 7-replica cluster creates (the sibling tests run 3 replicas),
    /// so parallel test execution cannot perturb it.
    #[test]
    #[cfg(target_os = "linux")]
    fn dropping_a_thread_backed_cluster_stops_its_replica_threads() {
        let seventh_replica_alive = || {
            std::fs::read_dir("/proc/self/task")
                .expect("proc task dir")
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .any(|comm| comm.trim_end() == "irs-svc-6")
        };
        let wait_for = |want: bool| {
            let start = std::time::Instant::now();
            while seventh_replica_alive() != want && start.elapsed() < StdDuration::from_secs(5) {
                std::thread::sleep(StdDuration::from_millis(10));
            }
            seventh_replica_alive() == want
        };
        let (cluster, _clients) = SvcCluster::in_memory(7, 0, SvcConfig::new(7, 0));
        assert!(wait_for(true), "replica thread irs-svc-6 never appeared");
        drop(cluster);
        assert!(wait_for(false), "replica thread still alive after drop");
    }

    #[test]
    #[should_panic(expected = "n >= 3")]
    fn tiny_clusters_are_rejected() {
        let _ = SvcCluster::in_memory(2, 0, SvcConfig::new(2, 0));
    }
}
