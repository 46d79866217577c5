//! An in-process deployment over arbitrary [`Transport`] endpoints.
//!
//! Where [`Cluster`](crate::Cluster) multiplexes many processes per worker
//! shard for shared-memory scale, a [`NetCluster`] runs *one node thread per
//! process over its own transport endpoint* — the same loop a
//! separate-OS-process deployment runs ([`run_node`](crate::run_node)), just
//! hosted in one address space. That makes it the harness for exercising
//! transports: hand it [`MemTransport`](irs_net::MemTransport) endpoints for
//! the in-memory backend, [`UdpTransport`](irs_net::UdpTransport) endpoints
//! for real localhost sockets, or [`FaultyLink`](irs_net::FaultyLink)-wrapped
//! endpoints for fault-injection experiments (experiment family E11).

use crate::host::{default_accept, Deployment};
use crate::node::NodeConfig;
use irs_net::{FaultyLink, LinkModel, MemNetwork, Transport, Wire};
use irs_types::{Introspect, ProcessId, Protocol};

/// A running deployment: one node thread (`irs-node-<i>`) per process, each
/// on its own transport endpoint. Derefs to the shared [`Deployment`] handle
/// for snapshots, leaders and crash injection.
#[derive(Debug)]
pub struct NetCluster<P>(Deployment<P>);

impl<P> NetCluster<P>
where
    P: Protocol + Introspect + Send + 'static,
    P::Msg: Wire,
{
    /// Spawns one node thread per process; `transports[i]` is the endpoint
    /// of `processes[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the instances' ids are not `0..n` in order, or if the
    /// endpoint count or `config.n` disagrees with the process count.
    pub fn spawn<T>(processes: Vec<P>, transports: Vec<T>, config: NodeConfig) -> Self
    where
        T: Transport + 'static,
    {
        let n = processes.len();
        assert_eq!(n, transports.len(), "one transport endpoint per process");
        assert_eq!(
            n, config.n,
            "NodeConfig::n must equal the number of processes (broadcast fan-out)"
        );
        NetCluster(Deployment::over_transports(
            "irs-node",
            processes,
            transports,
            config.tick,
            default_accept(n),
            None,
        ))
    }

    /// Spawns the deployment over the in-memory mesh backend.
    pub fn in_memory(processes: Vec<P>, config: NodeConfig) -> Self {
        let mesh = MemNetwork::mesh(processes.len());
        Self::spawn(processes, mesh, config)
    }

    /// Spawns the deployment over the in-memory mesh with a fault-injecting
    /// link model per endpoint: `model(p)` builds the model applied to what
    /// process `p` *receives*.
    pub fn with_link_models(
        processes: Vec<P>,
        config: NodeConfig,
        mut model: impl FnMut(ProcessId) -> LinkModel,
    ) -> NetCluster<P> {
        let faulty = MemNetwork::mesh(processes.len())
            .into_iter()
            .enumerate()
            .map(|(i, t)| FaultyLink::new(t, model(ProcessId::new(i as u32))))
            .collect();
        Self::spawn(processes, faulty, config)
    }

    /// Stops every node and returns the final protocol states in id order
    /// (see [`Deployment::shutdown`]).
    pub fn shutdown(self) -> Vec<P> {
        self.0.shutdown()
    }
}

impl<P> std::ops::Deref for NetCluster<P> {
    type Target = Deployment<P>;

    fn deref(&self) -> &Deployment<P> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_omega::OmegaProcess;
    use irs_types::SystemConfig;
    use std::time::{Duration as StdDuration, Instant};

    fn wait_for<F: Fn() -> bool>(limit: StdDuration, check: F) -> bool {
        let start = Instant::now();
        while start.elapsed() < limit {
            if check() {
                return true;
            }
            std::thread::sleep(StdDuration::from_millis(10));
        }
        check()
    }

    fn omega_processes(n: usize, t: usize) -> Vec<OmegaProcess> {
        let system = SystemConfig::new(n, t).unwrap();
        system
            .processes()
            .map(|id| OmegaProcess::fig3(id, system))
            .collect()
    }

    /// Agreement alone is trivially true of the all-default initial state
    /// (every fresh Figure 3 process outputs `p1`, so a read right after
    /// `on_start` already agrees), so deployment tests additionally require
    /// every node to have progressed through real ALIVE rounds.
    fn agreed_after_progress(cluster: &NetCluster<OmegaProcess>, rounds: u64) -> bool {
        cluster.snapshots().iter().all(|s| s.sending_round > rounds)
            && cluster.agreed_leader().is_some()
    }

    #[test]
    fn in_memory_deployment_elects_a_leader() {
        let cluster = NetCluster::in_memory(omega_processes(4, 1), NodeConfig::new(4));
        assert!(
            wait_for(StdDuration::from_secs(20), || agreed_after_progress(
                &cluster, 10
            )),
            "no agreement: {:?}",
            cluster.leaders()
        );
        let finals = cluster.shutdown();
        assert_eq!(finals.len(), 4);
    }

    #[test]
    fn udp_socket_deployment_elects_and_survives_a_crash() {
        let transports = irs_net::UdpTransport::localhost_mesh(4).expect("bind sockets");
        let cluster = NetCluster::spawn(omega_processes(4, 1), transports, NodeConfig::new(4));
        assert!(
            wait_for(StdDuration::from_secs(30), || agreed_after_progress(
                &cluster, 10
            )),
            "no agreement over UDP: {:?}",
            cluster.leaders()
        );
        let first = cluster.agreed_leader().unwrap();
        cluster.crash(first);
        assert!(cluster.is_crashed(first));
        assert!(
            wait_for(StdDuration::from_secs(30), || cluster
                .agreed_leader()
                .is_some_and(|l| l != first)),
            "no re-election over UDP: {:?}",
            cluster.leaders()
        );
        cluster.shutdown();
    }

    /// A socket is an untrusted input: well-formed frames with out-of-range
    /// ids or messages sized for a different deployment must be dropped as
    /// link noise, not panic the node thread.
    #[test]
    fn stray_datagrams_do_not_kill_a_udp_node() {
        use irs_net::wire::{encode_frame, Wire};
        let transports = irs_net::UdpTransport::localhost_mesh(4).expect("bind sockets");
        let victim_addr = transports[0].local_addr().unwrap();
        let cluster = NetCluster::spawn(omega_processes(4, 1), transports, NodeConfig::new(4));

        let stray = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        // Out-of-range sender; misrouted receiver; ALIVE sized for n = 256;
        // delta entry indexing process 200.
        let mut wrong_size = Vec::new();
        irs_omega::OmegaMsg::Alive {
            rn: irs_types::RoundNum::new(3),
            susp: irs_omega::SuspVector::new(256),
        }
        .encode(&mut wrong_size);
        let mut bad_delta = Vec::new();
        irs_omega::OmegaMsg::AliveDelta {
            rn: irs_types::RoundNum::new(3),
            entries: vec![(200, 7)],
        }
        .encode(&mut bad_delta);
        let strays: [(u32, u32, &[u8]); 4] = [
            (99, 0, &wrong_size),
            (1, 77, b"not a message"),
            (1, 0, &wrong_size),
            (2, 0, &bad_delta),
        ];
        for (from, to, payload) in strays {
            let mut frame = Vec::new();
            encode_frame(
                &mut frame,
                ProcessId::new(from),
                ProcessId::new(to),
                payload,
            );
            stray.send_to(&frame, victim_addr).unwrap();
        }

        // The bombarded node keeps running and the cluster still elects
        // (with every node, the victim included, progressing through real
        // rounds).
        assert!(
            wait_for(StdDuration::from_secs(30), || agreed_after_progress(
                &cluster, 10
            )),
            "no agreement after stray datagrams: {:?}",
            cluster.leaders()
        );
        let finals = cluster.shutdown();
        assert_eq!(finals.len(), 4, "a node thread died on stray input");
    }

    #[test]
    fn faulty_links_with_random_drops_still_elect() {
        // 20% receiver-side loss on every link: the algorithm only needs
        // quorums of ALIVEs per round, so elections go through regardless.
        let cluster =
            NetCluster::with_link_models(omega_processes(5, 2), NodeConfig::new(5), |p| {
                LinkModel::new(0x00D0_5EED ^ u64::from(p.as_u32())).with_drop_prob(0.2)
            });
        assert!(
            wait_for(StdDuration::from_secs(30), || agreed_after_progress(
                &cluster, 10
            )),
            "no agreement under 20% loss: {:?}",
            cluster.leaders()
        );
        // Discriminate a dead transport: without delivered ALIVEs every
        // receiving round closes by its (initially zero-valued) timeout and
        // `r_rn` races orders of magnitude past `s_rn`; with 80% of frames
        // arriving, rounds close mostly by quorum and the two stay in step.
        for i in 0..cluster.n() as u32 {
            let snap = cluster.snapshot(ProcessId::new(i));
            assert!(
                snap.receiving_round < 50 * snap.sending_round + 200,
                "p{}: receiving rounds racing ahead of sends ({} vs {}) — links are dead",
                i + 1,
                snap.receiving_round,
                snap.sending_round
            );
        }
        cluster.shutdown();
    }
}
