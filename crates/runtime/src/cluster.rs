//! In-process deployments: `W` shard threads, each turning the one host
//! loop (`host.rs`) over its own I/O source.
//!
//! One OS thread per process is fine at `n = 4` and hopeless at `n = 256`.
//! A [`Deployment`] spawns `W` *shards* (default: the machine's available
//! parallelism), shard `s` owning the processes `i` with `i % W == s`, over
//! one of two sources: **one [`Transport`] endpoint per shard** — a
//! broadcast wire-encodes its payload once and fans it out through
//! [`Transport::send_many`], and the in-memory mesh
//! ([`irs_net::MemTransport`]) shares one payload allocation across the
//! whole fan-out and pushes once per destination shard — or **one
//! [`irs_net::Reactor`] per shard** over one real UDP socket per process.
//! Either way a 256-process deployment runs on `W ≤ cores` OS threads.
//!
//! Link delay is the link's business, not the shard's:
//! [`Deployment::spawn`] wraps each shard endpoint in an
//! [`irs_net::FaultyLink`] whose [`LinkModel`] carries the delay and its
//! seed, so the same shard loop runs unchanged over transports that *have*
//! real propagation delay.

use crate::host::{default_accept, Local, MuxAccept, NodeCells, Shard, ShardIo, Sockets};
use irs_net::{FaultClock, FaultyLink, LinkModel, MemNetwork, Reactor, Transport, Wire};
use irs_obs::{names, Obs};
use irs_types::{Introspect, ProcessId, Protocol, Snapshot};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

/// How a deployment maps the protocols' logical ticks onto the wall clock
/// and how many shard threads it runs on.
#[derive(Clone, Copy, Debug)]
pub struct RealtimeConfig {
    /// The wall-clock length of one logical tick. Protocol durations (send
    /// periods, timeout units) are multiplied by this to obtain real
    /// deadlines.
    pub tick: StdDuration,
    /// Number of shards; `0` (the default) means the machine's available
    /// parallelism. Clamped to `1..=n` at spawn time.
    pub workers: usize,
}

impl Default for RealtimeConfig {
    fn default() -> Self {
        RealtimeConfig {
            tick: StdDuration::from_micros(100),
            workers: 0,
        }
    }
}

/// Resolves a configured worker count: `0` means the machine's available
/// parallelism; the result is clamped to `1..=n`.
fn resolve_workers(workers: usize, n: usize) -> usize {
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        w => w,
    };
    workers.clamp(1, n.max(1))
}

/// A running in-process deployment: `n` protocol instances on `W` shard
/// threads, observed through per-process snapshot cells and crash flags.
///
/// Every in-process shape is this one handle (the service's `SvcCluster`
/// derefs to it too). Dropping it without
/// [`Deployment::shutdown`] still stops the shard threads — the shared stop
/// flag is set on drop and every shard observes it within one poll budget —
/// but does not join them or recover the final states.
#[derive(Debug)]
pub struct Deployment<P> {
    cells: Vec<NodeCells>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Vec<P>>>,
}

impl<P> Deployment<P>
where
    P: Protocol + Introspect + Send + 'static,
    P::Msg: Wire,
{
    /// Spawns `processes` on `min(workers, n)` shard threads named
    /// `irs-shard-<shard>` over the in-memory mesh, one grouped endpoint per
    /// shard, every endpoint behind a [`FaultyLink`] of `link` — the
    /// shared-memory scale shape, where 256 processes run on a handful of
    /// threads. `link` carries the link delay and its seed
    /// ([`LinkModel::with_delay`]); `LinkModel::new(seed)` alone is a clean
    /// link.
    ///
    /// `processes[i]` must be the instance whose `id()` is `ProcessId(i)`.
    ///
    /// # Panics
    ///
    /// Panics if the instances' ids are not `0..n` in order.
    pub fn spawn(processes: Vec<P>, config: RealtimeConfig, link: LinkModel) -> Self {
        let workers = resolve_workers(config.workers, processes.len());
        let shard_of: Vec<usize> = (0..processes.len()).map(|i| i % workers).collect();
        let transports = MemNetwork::grouped(&shard_of)
            .into_iter()
            .map(|t| FaultyLink::new(t, link.clone()))
            .collect();
        Self::spawn_on(processes, config, transports)
    }

    /// Spawns `processes` over explicit per-shard transport endpoints with
    /// the default admission rule ([`admits`](crate::admits)):
    /// `transports[s]` must host every process `i` with `i % W == s`, where
    /// `W = transports.len()` (and `workers` in `config` is ignored). With
    /// one endpoint per process (`W = n`, e.g. [`MemNetwork::mesh`] or
    /// `UdpTransport::localhost_mesh`) every process runs on a thread of its
    /// own over its own link: the loop a process-per-node deployment runs,
    /// hosted in one address space. Threads are named `irs-shard-<shard>`.
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
        Self::over_transports(
            "irs-shard",
            processes,
            transports,
            config.tick,
            accept,
            None,
        )
    }

    /// Binds one ephemeral localhost UDP socket per process and spawns
    /// `processes` over them on `config.workers` reactor shard threads named
    /// `irs-mux-<shard>`, with the default admission rule — a 128-socket
    /// deployment on a handful of threads, where [`Deployment::spawn_on`]
    /// with one socket per process would park 128 threads in `recv`.
    ///
    /// # Errors
    ///
    /// Returns any socket-binding or readiness-registration error.
    ///
    /// # Panics
    ///
    /// Panics if the instances' ids are not `0..n` in order.
    pub fn spawn_udp(processes: Vec<P>, config: RealtimeConfig) -> std::io::Result<Self> {
        let n = processes.len();
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)))
            .collect::<std::io::Result<_>>()?;
        let peers: Vec<SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<std::io::Result<_>>()?;
        let accept = default_accept(n);
        Self::over_sockets("irs-mux", processes, sockets, peers, config, accept, None)
    }

    /// Spawns `processes` on `W = transports.len()` shard threads named
    /// `<thread_prefix>-<shard>`: shard `s` drives `transports[s]`, which
    /// must host every process `i` with `i % W == s`. `W = n` is one node
    /// thread per process over its own endpoint. `accept` is the admission
    /// rule for every inbound message; with `obs` attached every node joins
    /// the telemetry plane (host-loop counters, leader-change trace, reign
    /// panel, live scrape).
    ///
    /// # Panics
    ///
    /// Panics if the instances' ids are not `0..n` in order, or if the
    /// endpoint count is not in `1..=n`.
    pub fn over_transports<T: Transport + 'static>(
        thread_prefix: &str,
        processes: Vec<P>,
        transports: Vec<T>,
        tick: StdDuration,
        accept: MuxAccept<P::Msg>,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        Self::launch(thread_prefix, processes, transports, tick, accept, obs)
    }

    /// Spawns `processes` over pre-bound UDP sockets on `config.workers`
    /// reactor shard threads named `<thread_prefix>-<shard>`: `sockets[i]`
    /// hosts process `i`, and `peer_addrs` is the full routing table
    /// (`peer_addrs[p]` hosts `ProcessId(p)`), which may name endpoints
    /// beyond the hosted processes — that is how a service replica group
    /// routes replies to client endpoints it does not own.
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
    pub fn over_sockets(
        thread_prefix: &str,
        processes: Vec<P>,
        sockets: Vec<UdpSocket>,
        peer_addrs: Vec<SocketAddr>,
        config: RealtimeConfig,
        accept: MuxAccept<P::Msg>,
        obs: Option<Arc<Obs>>,
    ) -> std::io::Result<Self> {
        assert_eq!(sockets.len(), processes.len(), "one socket per process");
        let workers = resolve_workers(config.workers, processes.len());
        // Shard `s` registers the sockets of processes `s, s + W, …` in
        // ascending order, so reactor endpoint index == local index.
        let mut reactors: Vec<Reactor> = (0..workers).map(|_| Reactor::new()).collect();
        for (i, socket) in sockets.into_iter().enumerate() {
            reactors[i % workers].add_endpoint(socket, peer_addrs.clone())?;
        }
        for reactor in &mut reactors {
            if let Some(o) = &obs {
                reactor.attach_obs(o.registry());
            }
        }
        let sources = reactors.into_iter().map(Sockets).collect();
        Ok(Self::launch(
            thread_prefix,
            processes,
            sources,
            config.tick,
            accept,
            obs,
        ))
    }

    fn launch<Io: ShardIo + Send + 'static>(
        thread_prefix: &str,
        processes: Vec<P>,
        sources: Vec<Io>,
        tick: StdDuration,
        accept: MuxAccept<P::Msg>,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        let (n, workers) = (processes.len(), sources.len());
        assert!(
            (1..=n.max(1)).contains(&workers),
            "need 1..=n shard endpoints, got {workers} for n = {n}"
        );
        let mut cells = Vec::with_capacity(n);
        // Round-robin, so a small cluster still spreads over all shards.
        let mut per_shard: Vec<Vec<Local<P>>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, proto) in processes.into_iter().enumerate() {
            let local = Local::nth(i, proto, obs.as_deref(), tick);
            cells.push(local.cells().clone());
            per_shard[i % workers].push(local);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let threads = per_shard
            .into_iter()
            .zip(sources)
            .enumerate()
            .map(|(s, (locals, io))| {
                let (accept, stop, obs) = (Arc::clone(&accept), Arc::clone(&stop), obs.clone());
                std::thread::Builder::new()
                    .name(format!("{thread_prefix}-{s}"))
                    .spawn(move || {
                        let clock = FaultClock::wall(tick);
                        Shard::new(io, locals, workers, n, clock, &*accept, obs.as_deref())
                            .run(&stop)
                    })
                    .expect("spawn shard thread")
            })
            .collect();
        Deployment {
            cells,
            stop,
            threads,
        }
    }
}

impl<P> Deployment<P> {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.cells.len()
    }

    /// Number of shard threads the deployment runs on.
    pub fn worker_threads(&self) -> usize {
        self.threads.len()
    }

    /// Total number of frames delivered to live processes so far.
    pub fn messages_routed(&self) -> u64 {
        self.snapshots()
            .iter()
            .filter_map(|s| s.gauge(names::FRAMES_DELIVERED))
            .sum()
    }

    /// A snapshot of a process built after this call began, with the
    /// runtime gauges appended
    /// ([`SnapshotCell::read`](crate::SnapshotCell::read)): it waits at
    /// most one loop iteration of the process's shard.
    pub fn snapshot(&self, pid: ProcessId) -> Snapshot {
        self.cells[pid.index()].snapshot.read()
    }

    /// [`Deployment::snapshot`] of every process, in id order. Every cell is
    /// asked before any is waited on, so the whole read costs one loop
    /// iteration of the slowest shard, not one per process.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        let tickets: Vec<u64> = self.cells.iter().map(|c| c.snapshot.ask()).collect();
        self.cells
            .iter()
            .zip(tickets)
            .map(|(c, ticket)| c.snapshot.wait(ticket))
            .collect()
    }

    /// The current `leader()` output of a process.
    pub fn leader_of(&self, pid: ProcessId) -> ProcessId {
        self.snapshot(pid).leader
    }

    /// The current `leader()` output of every process, in id order.
    pub fn leaders(&self) -> Vec<ProcessId> {
        self.snapshots().into_iter().map(|s| s.leader).collect()
    }

    /// Returns `Some(p)` when every non-crashed process currently outputs
    /// the same leader `p` and `p` has not been crashed through
    /// [`Deployment::crash`].
    pub fn agreed_leader(&self) -> Option<ProcessId> {
        let leaders = self.leaders();
        let mut live = (0..self.n() as u32)
            .map(ProcessId::new)
            .filter(|&p| !self.is_crashed(p))
            .map(|p| leaders[p.index()]);
        let leader = live.next()?;
        (live.all(|l| l == leader) && !self.is_crashed(leader)).then_some(leader)
    }

    /// Crash-stops a process: it stops reacting to messages, timers and
    /// scrapes, while its endpoint keeps draining (arrivals are dropped).
    pub fn crash(&self, pid: ProcessId) {
        self.cells[pid.index()]
            .crashed
            .store(true, Ordering::SeqCst);
    }

    /// Returns `true` if the process has been crashed through
    /// [`Deployment::crash`].
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.cells[pid.index()].crashed.load(Ordering::SeqCst)
    }

    /// Stops every shard and returns the final protocol states (crashed
    /// processes included), in id order.
    ///
    /// Shutdown is *draining*: every live process is asked once for the
    /// output it was still holding back ([`Protocol::on_quiesce`]), and that,
    /// like every frame already handed to the I/O source when the stop was
    /// requested — queued behind backpressure, held behind a link delay, or
    /// on the wire — is still delivered to its (non-crashed) receiver before
    /// the states are returned; only the sends and timers those final
    /// deliveries would generate are discarded.
    pub fn shutdown(mut self) -> Vec<P> {
        self.stop.store(true, Ordering::SeqCst);
        let workers = self.threads.len();
        let mut slots: Vec<Option<P>> = (0..self.n()).map(|_| None).collect();
        for (s, handle) in self.threads.drain(..).enumerate() {
            let finals = handle.join().expect("shard thread panicked");
            for (li, proto) in finals.into_iter().enumerate() {
                slots[li * workers + s] = Some(proto);
            }
        }
        slots
            .into_iter()
            .map(|p| p.expect("every process returned by its shard"))
            .collect()
    }
}

impl<P> Drop for Deployment<P> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_omega::OmegaProcess;
    use irs_types::{Duration, ProcessId, SystemConfig};
    use std::time::{Duration as StdDuration, Instant};

    /// Seed of the links' delay streams.
    const SEED: u64 = 0x5EED_CAFE;

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

    fn omega_cluster(n: usize, t: usize) -> Deployment<OmegaProcess> {
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
        Deployment::spawn(
            processes,
            RealtimeConfig {
                tick: StdDuration::from_micros(100),
                ..RealtimeConfig::default()
            },
            LinkModel::new(SEED)
                .with_delay(StdDuration::from_micros(50), StdDuration::from_micros(800)),
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
        let cluster = Deployment::spawn(
            processes,
            RealtimeConfig {
                workers: 2,
                ..RealtimeConfig::default()
            },
            LinkModel::new(SEED),
        );
        assert_eq!(cluster.worker_threads(), 2);
        cluster.shutdown();
    }

    /// The sharded cluster runs unchanged over a fault-injecting backend:
    /// `FaultyLink`-wrapped shard endpoints with 15% receiver-side loss
    /// still elect a leader.
    #[test]
    fn sharded_cluster_over_faulty_links_elects() {
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
        let cluster = Deployment::spawn_on(processes, RealtimeConfig::default(), transports);
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
    ) -> Deployment<OmegaProcess> {
        Deployment::spawn_on(fig3_processes(n, t), RealtimeConfig::default(), transports)
    }

    /// Agreement alone is trivially true of the all-default initial state
    /// (every fresh Figure 3 process outputs `p1`, so a read right after
    /// `on_start` already agrees), so deployment tests additionally require
    /// every node to have progressed through real ALIVE rounds.
    fn agreed_after_progress(cluster: &Deployment<OmegaProcess>, rounds: u64) -> bool {
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
        let cluster = Deployment::spawn(
            processes,
            RealtimeConfig {
                tick: StdDuration::from_millis(1),
                ..RealtimeConfig::default()
            },
            LinkModel::new(SEED)
                .with_delay(StdDuration::from_micros(100), StdDuration::from_millis(20)),
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
