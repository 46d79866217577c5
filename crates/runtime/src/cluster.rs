//! The sharded cluster: `W` worker shards over grouped transport endpoints.
//!
//! One OS thread per process plus a router is fine at `n = 4` and hopeless
//! at `n = 256`. A [`Cluster`] instead spawns `W` *worker shards* (default:
//! the machine's available parallelism), each owning `n / W` processes and
//! running the shared host loop (`host.rs`) over **one [`Transport`]
//! endpoint per shard**: a broadcast wire-encodes its payload once and fans
//! it out through [`Transport::send_many`] — the default in-memory backend
//! ([`irs_net::MemTransport`]) shares one payload allocation across the
//! whole fan-out and pushes once per destination shard — and
//! [`Cluster::spawn_on`] accepts any other backend. A 256-process cluster
//! therefore runs on `W ≤ cores` OS threads.
//!
//! Link delay is the link's business, not the shard's: [`Cluster::spawn`]
//! wraps each shard endpoint in an [`irs_net::FaultyLink`] whose per-link
//! delay stream is seeded from [`RealtimeConfig::seed`], so the same shard
//! loop runs unchanged over transports that *have* real propagation delay.

use crate::host::{default_accept, resolve_workers, Deployment};
use irs_net::{FaultyLink, LinkModel, MemNetwork, Transport, Wire};
use irs_obs::names;
use irs_types::{Introspect, Protocol};
use std::time::Duration as StdDuration;

/// How wall-clock time maps onto the protocols' logical ticks, and how the
/// cluster is sharded.
#[derive(Clone, Copy, Debug)]
pub struct RealtimeConfig {
    /// The wall-clock length of one logical tick. Protocol durations (send
    /// periods, timeout units) are multiplied by this to obtain real
    /// deadlines.
    pub tick: StdDuration,
    /// Cluster-level seed for the per-link jitter streams.
    pub seed: u64,
    /// Number of worker shards; `0` (the default) means the machine's
    /// available parallelism. Clamped to `1..=n` at spawn time.
    pub workers: usize,
}

impl Default for RealtimeConfig {
    fn default() -> Self {
        RealtimeConfig {
            tick: StdDuration::from_micros(100),
            seed: 0x5EED_CAFE,
            workers: 0,
        }
    }
}

/// Artificial delay injected on every message, emulating a (well-behaved)
/// network: the bounds of the cluster's [`LinkModel::with_delay`].
#[derive(Clone, Copy, Debug)]
pub enum LinkDelay {
    /// Deliver immediately.
    None,
    /// Deliver after a fixed delay.
    Fixed(StdDuration),
    /// Deliver after a uniformly random delay in `[min, max]`, sampled from
    /// the link's own deterministic stream.
    Jitter {
        /// Minimum delay.
        min: StdDuration,
        /// Maximum delay.
        max: StdDuration,
    },
}

/// A running cluster of protocol instances on `W` worker shard threads named
/// `irs-shard-<shard>`. Derefs to the shared [`Deployment`] handle for
/// snapshots, leaders and crash injection.
#[derive(Debug)]
pub struct Cluster<P>(Deployment<P>);

impl<P> Cluster<P>
where
    P: Protocol + Introspect + Send + 'static,
    P::Msg: Wire,
{
    /// Spawns the cluster on `min(workers, n)` shard threads over the
    /// in-memory mesh, every link delayed by `link`.
    ///
    /// `processes[i]` must be the instance whose `id()` is `ProcessId(i)`.
    ///
    /// # Panics
    ///
    /// Panics if the instances' ids are not `0..n` in order.
    pub fn spawn(processes: Vec<P>, config: RealtimeConfig, link: LinkDelay) -> Self {
        let workers = resolve_workers(config.workers, processes.len());
        let shard_of: Vec<usize> = (0..processes.len()).map(|i| i % workers).collect();
        let (min, max) = match link {
            LinkDelay::None => (StdDuration::ZERO, StdDuration::ZERO),
            LinkDelay::Fixed(d) => (d, d),
            LinkDelay::Jitter { min, max } => (min, max),
        };
        let transports = MemNetwork::grouped(&shard_of)
            .into_iter()
            .map(|t| FaultyLink::new(t, LinkModel::new(config.seed).with_delay(min, max)))
            .collect();
        Self::spawn_on(processes, config, transports)
    }

    /// Spawns the cluster over explicit per-shard transport endpoints:
    /// `transports[s]` must host every process `i` with `i % W == s`, where
    /// `W = transports.len()` (and `workers` in `config` is ignored).
    ///
    /// This is how a sharded cluster runs over a decorated or non-default
    /// backend — e.g. `FaultyLink`-wrapped endpoints for fault-injection
    /// runs. With one endpoint per process (`W = n`, e.g.
    /// [`MemNetwork::mesh`] or `UdpTransport::localhost_mesh`) every process
    /// runs on a thread of its own over its own link: the loop a
    /// process-per-node deployment runs, hosted in one address space.
    ///
    /// # Panics
    ///
    /// Panics if the instances' ids are not `0..n` in order, or if there
    /// are more endpoints than processes.
    pub fn spawn_on<T>(processes: Vec<P>, config: RealtimeConfig, transports: Vec<T>) -> Self
    where
        T: Transport + 'static,
    {
        let accept = default_accept(processes.len());
        Cluster(Deployment::over_transports(
            "irs-shard",
            processes,
            transports,
            config.tick,
            accept,
            None,
        ))
    }

    /// Total number of messages delivered to live processes so far.
    pub fn messages_routed(&self) -> u64 {
        self.snapshots()
            .iter()
            .filter_map(|s| s.gauge(names::FRAMES_DELIVERED))
            .sum()
    }

    /// Stops every shard and returns the final protocol states in id order
    /// (see [`Deployment::shutdown`]).
    pub fn shutdown(self) -> Vec<P> {
        self.0.shutdown()
    }
}

impl<P> std::ops::Deref for Cluster<P> {
    type Target = Deployment<P>;

    fn deref(&self) -> &Deployment<P> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_omega::OmegaProcess;
    use irs_types::{Duration, ProcessId, SystemConfig};
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

    fn omega_cluster(n: usize, t: usize) -> Cluster<OmegaProcess> {
        let system = SystemConfig::new(n, t).unwrap();
        let processes: Vec<_> = system
            .processes()
            .map(|id| {
                OmegaProcess::new(
                    id,
                    irs_omega::OmegaConfig::new(system, irs_omega::Variant::Fig3)
                        .with_send_period(Duration::from_ticks(20))
                        .with_timeout_unit(Duration::from_ticks(10)),
                )
            })
            .collect();
        Cluster::spawn(
            processes,
            RealtimeConfig {
                tick: StdDuration::from_micros(100),
                ..RealtimeConfig::default()
            },
            LinkDelay::Jitter {
                min: StdDuration::from_micros(50),
                max: StdDuration::from_micros(800),
            },
        )
    }

    #[test]
    fn cluster_elects_a_common_leader_in_real_time() {
        let cluster = omega_cluster(4, 1);
        // Wait until the protocol has actually run for a while (several ALIVE
        // rounds everywhere) and the live processes agree on a leader.
        let stable = wait_for(StdDuration::from_secs(20), || {
            let progressed = cluster.snapshots().iter().all(|s| s.sending_round > 10);
            progressed && cluster.agreed_leader().is_some()
        });
        assert!(
            stable,
            "no agreement within 20s: leaders {:?}",
            cluster.leaders()
        );
        assert!(cluster.messages_routed() > 0);
        let finals = cluster.shutdown();
        assert_eq!(finals.len(), 4);
    }

    #[test]
    fn crashed_leader_is_replaced_in_real_time() {
        let cluster = omega_cluster(4, 1);
        assert!(wait_for(StdDuration::from_secs(10), || cluster
            .agreed_leader()
            .is_some()));
        let first = cluster.agreed_leader().unwrap();
        cluster.crash(first);
        assert!(cluster.is_crashed(first));
        let replaced = wait_for(StdDuration::from_secs(30), || {
            cluster.agreed_leader().is_some_and(|l| l != first)
        });
        assert!(replaced, "leaders after crash: {:?}", cluster.leaders());
        cluster.shutdown();
    }

    #[test]
    fn snapshots_are_published() {
        let cluster = omega_cluster(3, 1);
        assert!(wait_for(StdDuration::from_secs(5), || {
            cluster.snapshot(ProcessId::new(0)).sending_round > 2
        }));
        let snap = cluster.snapshot(ProcessId::new(1));
        assert_eq!(snap.susp_levels.len(), 3);
        cluster.shutdown();
    }

    /// The cluster runs on a bounded number of worker shards regardless of n.
    #[test]
    fn worker_threads_are_bounded_by_parallelism() {
        let cluster = omega_cluster(12, 5);
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert!(cluster.worker_threads() <= cores.min(12));
        assert!(cluster.worker_threads() >= 1);
        cluster.shutdown();

        // An explicit worker override is honoured (clamped to n).
        let system = SystemConfig::new(4, 1).unwrap();
        let processes: Vec<_> = system
            .processes()
            .map(|id| OmegaProcess::fig3(id, system))
            .collect();
        let cluster = Cluster::spawn(
            processes,
            RealtimeConfig {
                workers: 2,
                ..RealtimeConfig::default()
            },
            LinkDelay::None,
        );
        assert_eq!(cluster.worker_threads(), 2);
        cluster.shutdown();
    }

    /// The sharded cluster runs unchanged over a fault-injecting backend:
    /// `FaultyLink`-wrapped shard endpoints with 15% receiver-side loss
    /// still elect a leader.
    #[test]
    fn sharded_cluster_over_faulty_links_elects() {
        use irs_net::{FaultyLink, LinkModel, MemNetwork};
        let system = SystemConfig::new(4, 1).unwrap();
        let processes: Vec<_> = system
            .processes()
            .map(|id| OmegaProcess::fig3(id, system))
            .collect();
        let workers = 2;
        let shard_of: Vec<usize> = (0..4).map(|i| i % workers).collect();
        let transports: Vec<_> = MemNetwork::grouped(&shard_of)
            .into_iter()
            .enumerate()
            .map(|(s, t)| {
                FaultyLink::new(t, LinkModel::new(0xFA17 ^ s as u64).with_drop_prob(0.15))
            })
            .collect();
        let cluster = Cluster::spawn_on(processes, RealtimeConfig::default(), transports);
        assert_eq!(cluster.worker_threads(), 2);
        // Gate on real round progress: agreement alone is trivially true of
        // the all-default initial state.
        let stable = wait_for(StdDuration::from_secs(30), || {
            let progressed = cluster.snapshots().iter().all(|s| s.sending_round > 10);
            progressed && cluster.agreed_leader().is_some()
        });
        assert!(
            stable,
            "no agreement under 15% loss: {:?}",
            cluster.leaders()
        );
        cluster.shutdown();
    }

    fn fig3_processes(n: usize, t: usize) -> Vec<OmegaProcess> {
        let system = SystemConfig::new(n, t).unwrap();
        system
            .processes()
            .map(|id| OmegaProcess::fig3(id, system))
            .collect()
    }

    /// One endpoint per process (`W = n`): the shape every process of a
    /// socket deployment has, hosted in one address space.
    fn one_per_process<T: Transport + 'static>(
        n: usize,
        t: usize,
        transports: Vec<T>,
    ) -> Cluster<OmegaProcess> {
        Cluster::spawn_on(fig3_processes(n, t), RealtimeConfig::default(), transports)
    }

    /// Agreement alone is trivially true of the all-default initial state
    /// (every fresh Figure 3 process outputs `p1`, so a read right after
    /// `on_start` already agrees), so deployment tests additionally require
    /// every node to have progressed through real ALIVE rounds.
    fn agreed_after_progress(cluster: &Cluster<OmegaProcess>, rounds: u64) -> bool {
        cluster.snapshots().iter().all(|s| s.sending_round > rounds)
            && cluster.agreed_leader().is_some()
    }

    #[test]
    fn udp_socket_deployment_elects_and_survives_a_crash() {
        let transports = irs_net::UdpTransport::localhost_mesh(4).expect("bind sockets");
        let cluster = one_per_process(4, 1, transports);
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
        use irs_net::wire::encode_frame;
        let transports = irs_net::UdpTransport::localhost_mesh(4).expect("bind sockets");
        let victim_addr = transports[0].local_addr().unwrap();
        let cluster = one_per_process(4, 1, transports);

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
        let transports = MemNetwork::mesh(5)
            .into_iter()
            .enumerate()
            .map(|(p, t)| {
                FaultyLink::new(
                    t,
                    LinkModel::new(0x00D0_5EED ^ p as u64).with_drop_prob(0.2),
                )
            })
            .collect();
        let cluster = one_per_process(5, 2, transports);
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

    /// Large-n smoke (run by the CI large-n job): a 256-process cluster
    /// elects a stable leader while using at most `cores` shard threads.
    #[test]
    #[ignore = "large-n smoke; run explicitly (CI large-n job) with --ignored"]
    fn large_cluster_256_elects_leader_on_bounded_threads() {
        let n = 256;
        let system = SystemConfig::new(n, (n - 1) / 2).unwrap();
        let processes: Vec<_> = system
            .processes()
            .map(|id| {
                OmegaProcess::new(
                    id,
                    irs_omega::OmegaConfig::new(system, irs_omega::Variant::Fig3)
                        .with_send_period(Duration::from_ticks(300))
                        .with_timeout_unit(Duration::from_ticks(100))
                        .with_delta_gossip(8),
                )
            })
            .collect();
        let cluster = Cluster::spawn(
            processes,
            RealtimeConfig {
                tick: StdDuration::from_millis(1),
                ..RealtimeConfig::default()
            },
            LinkDelay::Jitter {
                min: StdDuration::from_micros(100),
                max: StdDuration::from_millis(20),
            },
        );
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert!(
            cluster.worker_threads() <= cores,
            "{} shard threads for {cores} cores",
            cluster.worker_threads()
        );
        // Every process progresses through rounds, and the live cluster
        // agrees on a (live) leader.
        let stable = wait_for(StdDuration::from_secs(120), || {
            let progressed = cluster.snapshots().iter().all(|s| s.sending_round >= 3);
            progressed && cluster.agreed_leader().is_some()
        });
        assert!(
            stable,
            "no agreement within 120s (sample leaders: {:?})",
            &cluster.leaders()[..8]
        );
        assert!(cluster.messages_routed() > 0);
        let finals = cluster.shutdown();
        assert_eq!(finals.len(), n);
    }
}
