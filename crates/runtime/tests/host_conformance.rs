//! Host conformance: one scripted protocol, every host shape, one contract.
//!
//! The runtime has a single host loop behind every constructor and two I/O
//! sources. This suite runs the same tiny [`Probe`] protocol through each
//! `constructor × I/O source` combination — one node per [`Transport`]
//! endpoint, several nodes per shared endpoint, and several nodes per
//! [`irs_net::Reactor`] — and asserts the same observable contract
//! everywhere: re-arming a timer replaces it, cancelling cancels, a crashed
//! node is silent on every plane while a live one answers scrapes, frames in
//! flight at shutdown are delivered with their reactions discarded, the
//! published snapshot carries one runtime-gauge list, dropping a
//! deployment stops its threads, frames that arrive together reach each
//! hosted process as one `on_burst`, in per-link order, whoever holds a frame
//! of a turn never reads a snapshot older than that turn, and a stop asks
//! every live process once for the output it was holding back. Snapshots are
//! built on request: an unread process is never snapshotted, reading every
//! process costs one loop turn, and a read returns once the shard is gone.
//!
//! On the reactor a message between two processes of one shard skips the
//! kernel and the codec (the co-hosted route: the receiver gets it typed, and
//! it is encoded only for receivers on other shards), and the same contract
//! holds for it: per-link FIFO with one `on_burst` per poll, the admission
//! rule on every message, nothing for a crashed addressee, delivery in the
//! shutdown drain with the reactions discarded. On a `Transport` source such
//! a frame still goes through the source, so a `FaultyLink` keeps its say
//! over it.

use irs_net::wire::{put_u32, WireReader};
use irs_net::{
    FaultyLink, Frame, LinkModel, MemNetwork, MemTransport, NetError, Partition, Transport,
    TransportScraper, UdpTransport, Wire, WireError,
};
use irs_obs::collector::ScrapeSource;
use irs_obs::{Obs, ScrapeFormat};
use irs_runtime::{
    admits, run_node, Deployment, MuxAccept, NodeConfig, NodeHandle, RealtimeConfig,
};
use irs_types::{
    Actions, Duration, Introspect, LeaderOracle, ProcessId, Protocol, Snapshot, TimerId,
};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration as StdDuration, Instant};

const N: usize = 4;
const TICK: StdDuration = StdDuration::from_micros(200);

/// Fires every `PERIOD` ticks forever; each fire pings the next process and
/// the one after it — on two shards, one peer on the other shard and one on
/// its own.
const T_PERIODIC: TimerId = TimerId::new(0);
/// Armed at start for tick 50, re-armed by the first periodic fire (tick
/// 10) for 300 ticks later: it must fire exactly once, and only after
/// [`T_MARK`] — the wheel pops in deadline order however late the loop runs,
/// so the order is load-independent.
const T_REARMED: TimerId = TimerId::new(2);
/// Armed by the first periodic fire for 150 ticks later: after
/// [`T_REARMED`]'s old deadline, before its new one.
const T_MARK: TimerId = TimerId::new(4);
/// Armed at start for tick 50, cancelled by the first periodic fire: it
/// must never fire.
const T_CANCELLED: TimerId = TimerId::new(3);
const PERIOD: u64 = 10;

#[derive(Clone, Debug, PartialEq)]
enum ProbeMsg {
    Ping(u32),
    Ack(u32),
}

impl Wire for ProbeMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (tag, seq) = match *self {
            ProbeMsg::Ping(seq) => (1, seq),
            ProbeMsg::Ack(seq) => (2, seq),
        };
        buf.push(tag);
        put_u32(buf, seq);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match (r.u8()?, r.u32()?) {
            (1, seq) => Ok(ProbeMsg::Ping(seq)),
            (2, seq) => Ok(ProbeMsg::Ack(seq)),
            (tag, _) => Err(WireError::BadTag(tag)),
        }
    }
}

/// The scripted protocol (see the timer constants). Every ping is answered
/// with an ack, so "reactions discarded" is observable: a ping delivered
/// during the shutdown drain produces no ack anywhere.
#[derive(Debug)]
struct Probe {
    id: ProcessId,
    periodic_fires: u64,
    rearmed_fires: u64,
    marked: bool,
    /// Whether [`T_MARK`] had fired when the re-armed timer did.
    rearmed_after_mark: bool,
    cancelled_fires: u64,
    pings: u64,
    acks: u64,
}

impl Probe {
    fn new(id: u32) -> Self {
        Probe {
            id: ProcessId::new(id),
            periodic_fires: 0,
            rearmed_fires: 0,
            marked: false,
            rearmed_after_mark: false,
            cancelled_fires: 0,
            pings: 0,
            acks: 0,
        }
    }
}

impl Protocol for Probe {
    type Msg = ProbeMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Actions<ProbeMsg>) {
        out.set_timer(T_PERIODIC, Duration::from_ticks(PERIOD));
        out.set_timer(T_REARMED, Duration::from_ticks(50));
        out.set_timer(T_CANCELLED, Duration::from_ticks(50));
    }

    fn on_message(&mut self, from: ProcessId, msg: &ProbeMsg, out: &mut Actions<ProbeMsg>) {
        match *msg {
            ProbeMsg::Ping(seq) => {
                self.pings += 1;
                out.send(from, ProbeMsg::Ack(seq));
            }
            ProbeMsg::Ack(_) => self.acks += 1,
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Actions<ProbeMsg>) {
        if timer == T_PERIODIC {
            self.periodic_fires += 1;
            if self.periodic_fires == 1 {
                out.set_timer(T_REARMED, Duration::from_ticks(300));
                out.set_timer(T_MARK, Duration::from_ticks(150));
                out.cancel_timer(T_CANCELLED);
            }
            for ahead in [1, 2] {
                let to = ProcessId::new((self.id.as_u32() + ahead) % N as u32);
                out.send(to, ProbeMsg::Ping(self.periodic_fires as u32));
            }
            out.set_timer(T_PERIODIC, Duration::from_ticks(PERIOD));
        } else if timer == T_REARMED {
            self.rearmed_fires += 1;
            self.rearmed_after_mark = self.marked;
        } else if timer == T_MARK {
            self.marked = true;
        } else if timer == T_CANCELLED {
            self.cancelled_fires += 1;
        }
    }
}

impl LeaderOracle for Probe {
    fn leader(&self) -> ProcessId {
        ProcessId::new(0)
    }
}

impl Introspect for Probe {
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            leader: self.leader(),
            extra: vec![
                ("probe_periodic_fires", self.periodic_fires),
                ("probe_delivered", self.pings + self.acks),
            ],
            ..Snapshot::default()
        }
    }
}

fn wait_for(limit: StdDuration, check: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if check() {
            return true;
        }
        std::thread::sleep(StdDuration::from_millis(5));
    }
    check()
}

/// The host shapes under test: I/O source × processes per shard.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// `Transport` source, one process per endpoint
    /// (`Deployment::spawn_on` with `W = n`, `run_node`).
    TransportOne,
    /// `Transport` source, `N / 2` processes per shared endpoint
    /// (`Deployment::spawn`).
    TransportMany,
    /// `Reactor` source, `N / 2` sockets per shard (`Deployment::spawn_udp`).
    Reactor,
}

const KINDS: [Kind; 3] = [Kind::TransportOne, Kind::TransportMany, Kind::Reactor];

/// A running deployment of `N` probes with observability attached, plus a
/// scraper on endpoint `N` of the same network.
struct Rig {
    deployment: Deployment<Probe>,
    scraper: Box<dyn ScrapeSource>,
}

/// The endpoint outside the deployment: it hosts process ids `N` (the
/// scraper's) and `N + 1`, so a test can drive two links into one node.
enum Outside {
    Mem(irs_net::MemTransport),
    Udp(UdpTransport),
}

impl Outside {
    /// The next probe message that arrives within `timeout`.
    fn recv(&mut self, timeout: StdDuration) -> Option<ProbeMsg> {
        let frame = match self {
            Outside::Mem(t) => t.recv(timeout),
            Outside::Udp(t) => t.recv(timeout),
        };
        let frame = frame.expect("outside recv")?;
        irs_net::wire::decode_payload(&frame.payload).ok()
    }

    fn send(&mut self, from: u32, to: u32, msg: &ProbeMsg) {
        let (from, to) = (ProcessId::new(from), ProcessId::new(to));
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        match self {
            Outside::Mem(t) => t.send(from, to, &payload),
            Outside::Udp(t) => t.send(from, to, &payload),
        }
        .expect("outside send");
    }
}

fn scraper_over<T: irs_net::Transport + 'static>(endpoint: T) -> Box<dyn ScrapeSource> {
    Box::new(
        TransportScraper::new(endpoint, ProcessId::new(N as u32))
            .with_timeout(StdDuration::from_millis(200))
            .with_retries(5),
    )
}

/// Spawns a rig. `delay` holds every frame on the `Transport` kinds'
/// links for that long (the reactor's links are real sockets).
fn rig(kind: Kind, delay: StdDuration) -> Rig {
    let probes = (0..N as u32).map(Probe::new).collect();
    let (deployment, outside) = deploy(kind, delay, probes);
    let scraper = match outside {
        Outside::Mem(endpoint) => scraper_over(endpoint),
        Outside::Udp(endpoint) => scraper_over(endpoint),
    };
    Rig {
        deployment,
        scraper,
    }
}

/// Spawns `processes` (ids `0..N`) on `kind`'s host shape.
fn deploy<P>(kind: Kind, delay: StdDuration, processes: Vec<P>) -> (Deployment<P>, Outside)
where
    P: Protocol<Msg = ProbeMsg> + Introspect + Send + 'static,
{
    let accept: MuxAccept<ProbeMsg> =
        Arc::new(|me, from, to, msg: &ProbeMsg| admits(from, to, msg, me, N + 2));
    deploy_with(kind, delay, processes, accept)
}

/// [`deploy`] with the admission rule `accept`.
fn deploy_with<P>(
    kind: Kind,
    delay: StdDuration,
    processes: Vec<P>,
    accept: MuxAccept<ProbeMsg>,
) -> (Deployment<P>, Outside)
where
    P: Protocol<Msg = ProbeMsg> + Introspect + Send + 'static,
{
    let obs = Some(Arc::new(Obs::new(N)));
    if kind == Kind::Reactor {
        let mut sockets: Vec<UdpSocket> = (0..=N)
            .map(|_| UdpSocket::bind(("127.0.0.1", 0)).expect("bind"))
            .collect();
        let peers: Vec<SocketAddr> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
        let scraper_socket = sockets.pop().expect("scraper socket");
        let config = RealtimeConfig {
            tick: TICK,
            workers: workers(kind),
        };
        let routes = peers.clone();
        let deployment =
            Deployment::over_sockets("hc-rx", processes, sockets, routes, config, accept, obs)
                .expect("spawn over sockets");
        let endpoint = UdpTransport::from_socket(scraper_socket, peers).expect("scraper endpoint");
        return (deployment, Outside::Udp(endpoint));
    }
    let (endpoints, outside) = mem_endpoints(kind);
    let transports = endpoints
        .into_iter()
        .map(|t| FaultyLink::new(t, LinkModel::new(1).with_delay(delay, delay)))
        .collect();
    (
        Deployment::over_transports("hc-tx", processes, transports, TICK, accept, obs),
        Outside::Mem(outside),
    )
}

/// The number of shards `kind` spreads the `N` processes over.
fn workers(kind: Kind) -> usize {
    if kind == Kind::TransportOne {
        N
    } else {
        2
    }
}

/// The processes `kind` hosts on the shard of process `p`, `p` included.
fn cohosted(kind: Kind, p: u32) -> Vec<u32> {
    let workers = workers(kind) as u32;
    (0..N as u32)
        .filter(|q| q % workers == p % workers)
        .collect()
}

/// The in-memory shard endpoints of a `Transport` kind — endpoint `s` hosts
/// the processes `i` with `i % W == s` — and the outside endpoint, where
/// the outside ids sit alone.
fn mem_endpoints(kind: Kind) -> (Vec<MemTransport>, MemTransport) {
    let workers = workers(kind);
    let owner_of: Vec<usize> = (0..N)
        .map(|i| i % workers)
        .chain([workers, workers])
        .collect();
    let mut endpoints = MemNetwork::grouped(&owner_of);
    let outside = endpoints.pop().expect("outside endpoint");
    (endpoints, outside)
}

fn gauge(rig: &Rig, node: u32, name: &str) -> u64 {
    rig.deployment
        .snapshot(ProcessId::new(node))
        .gauge(name)
        .unwrap_or(0)
}

fn all_progressed(rig: &Rig, fires: u64) -> bool {
    (0..N as u32).all(|i| gauge(rig, i, "probe_periodic_fires") >= fires)
}

#[test]
fn rearm_replaces_and_cancel_cancels() {
    for kind in KINDS {
        let rig = rig(kind, StdDuration::ZERO);
        // 60 periodic fires = at least 600 ticks: past the re-armed
        // deadline (tick 310) and the cancelled one (tick 50).
        assert!(
            wait_for(StdDuration::from_secs(20), || all_progressed(&rig, 60)),
            "{kind:?}: timers never progressed"
        );
        let finals = rig.deployment.shutdown();
        assert_eq!(finals.len(), N);
        for (i, p) in finals.iter().enumerate() {
            assert_eq!(
                p.id,
                ProcessId::new(i as u32),
                "{kind:?}: finals in id order"
            );
            assert_eq!(p.rearmed_fires, 1, "{kind:?}: re-arming must replace");
            assert!(
                p.rearmed_after_mark,
                "{kind:?}: re-armed timer fired at its old deadline"
            );
            assert_eq!(p.cancelled_fires, 0, "{kind:?}: cancelled timer fired");
            assert!(p.pings > 0 && p.acks > 0, "{kind:?}: no traffic at {p:?}");
        }
    }
}

#[test]
fn a_crashed_node_is_silent_on_every_plane_and_a_live_one_answers() {
    for kind in KINDS {
        let mut rig = rig(kind, StdDuration::ZERO);
        assert!(wait_for(StdDuration::from_secs(20), || all_progressed(
            &rig, 5
        )));
        let scrape =
            |rig: &mut Rig, node| rig.scraper.fetch_chunk(node, ScrapeFormat::Prometheus, 0);
        let (body, _) = scrape(&mut rig, 0).unwrap_or_else(|e| panic!("{kind:?}: live p0: {e}"));
        assert!(!body.is_empty(), "{kind:?}: empty scrape body");

        let victim = ProcessId::new(0);
        rig.deployment.crash(victim);
        assert!(rig.deployment.is_crashed(victim));
        // The turn in progress at the crash may still publish once; after
        // that the snapshot must stop moving (a live probe's moves every
        // period).
        let settled = wait_for(StdDuration::from_secs(5), || {
            let before = rig.deployment.snapshot(victim);
            std::thread::sleep(StdDuration::from_millis(100));
            rig.deployment.snapshot(victim) == before
        });
        assert!(settled, "{kind:?}: a crashed node kept reacting");
        let frozen = rig.deployment.snapshot(victim);
        assert!(
            scrape(&mut rig, 0).is_err(),
            "{kind:?}: a crashed node answered a scrape"
        );
        scrape(&mut rig, 1).unwrap_or_else(|e| panic!("{kind:?}: live p1 after crash: {e}"));

        // The drain does not deliver to a crashed node either.
        let delivered = frozen.gauge("probe_delivered").unwrap();
        let finals = rig.deployment.shutdown();
        assert_eq!(finals[0].pings + finals[0].acks, delivered, "{kind:?}");
    }
}

#[test]
fn shutdown_delivers_frames_in_flight_and_discards_reactions() {
    // Without a link delay: nothing admitted before the stop is lost.
    for kind in KINDS {
        let rig = rig(kind, StdDuration::ZERO);
        assert!(wait_for(StdDuration::from_secs(20), || all_progressed(
            &rig, 5
        )));
        let seen: Vec<u64> = (0..N as u32)
            .map(|i| gauge(&rig, i, "probe_delivered"))
            .collect();
        let finals = rig.deployment.shutdown();
        for (p, seen) in finals.iter().zip(seen) {
            assert!(
                p.pings + p.acks >= seen,
                "{kind:?}: deliveries went backwards"
            );
        }
    }
    // Behind a 2 s link delay and a stop after 150 ms, *every* ping is
    // still in flight at the stop: the drain must deliver them, and the acks
    // they would trigger must never be sent.
    for kind in [Kind::TransportOne, Kind::TransportMany] {
        let rig = rig(kind, StdDuration::from_secs(2));
        std::thread::sleep(StdDuration::from_millis(150));
        for i in 0..N as u32 {
            assert_eq!(
                gauge(&rig, i, "probe_delivered"),
                0,
                "{kind:?}: delay ignored"
            );
        }
        let started = Instant::now();
        let finals = rig.deployment.shutdown();
        assert!(
            started.elapsed() < StdDuration::from_secs(8),
            "{kind:?}: drain overran"
        );
        for p in &finals {
            assert!(p.pings > 0, "{kind:?}: in-flight pings dropped at {p:?}");
            assert_eq!(p.acks, 0, "{kind:?}: a drain reaction was sent");
        }
    }
    // The reactor's sockets hold nothing back, but its shard does: a frame
    // for a co-hosted process waits in that process's inbox until the next
    // poll. What `on_quiesce` hands a co-hosted peer is in flight there at
    // the stop; the drain must deliver it and discard the answer.
    let processes = (0..N as u32).map(Farewell::new).collect();
    let (deployment, _outside) = deploy(Kind::Reactor, StdDuration::ZERO, processes);
    for p in deployment.shutdown() {
        let me = p.id.as_u32();
        for peer in cohosted(Kind::Reactor, me).into_iter().filter(|&q| q != me) {
            assert!(p.heard.contains(&peer), "p{me} missed p{peer}'s farewell");
        }
        assert_no_cohosted_answer(Kind::Reactor, &p);
    }
}

/// A peer on `p`'s shard drains when `p` does, so it never answers `p`'s
/// farewell. (A peer on another shard may still be live when the farewell
/// lands, and then it answers.)
fn assert_no_cohosted_answer(kind: Kind, p: &Farewell) {
    let me = p.id.as_u32();
    for peer in cohosted(kind, me) {
        assert!(
            !p.answered_by.contains(&peer),
            "{kind:?}: p{me} heard p{peer}'s drain reaction"
        );
    }
}

/// A link that holds frames longer than the drain cap cannot wedge
/// shutdown: the drain gives up at the cap and the frames are lost.
#[test]
fn the_drain_is_bounded_by_its_cap() {
    let rig = rig(Kind::TransportOne, StdDuration::from_secs(60));
    std::thread::sleep(StdDuration::from_millis(50));
    let started = Instant::now();
    let finals = rig.deployment.shutdown();
    let took = started.elapsed();
    assert!(
        (StdDuration::from_secs(9)..StdDuration::from_secs(20)).contains(&took),
        "drain took {took:?}, cap is 10 s"
    );
    assert!(finals.iter().all(|p| p.pings == 0));
}

#[test]
fn every_host_publishes_the_same_runtime_gauges() {
    for kind in KINDS {
        let rig = rig(kind, StdDuration::ZERO);
        assert!(wait_for(StdDuration::from_secs(20), || all_progressed(
            &rig, 5
        )));
        for i in 0..N as u32 {
            let snap = rig.deployment.snapshot(ProcessId::new(i));
            let runtime: Vec<&str> = snap
                .extra
                .iter()
                .map(|&(name, _)| name)
                .filter(|name| !name.starts_with("probe_"))
                .collect();
            let shared = ["frames_delivered", "malformed_dropped", "sends_batched"];
            assert_eq!(runtime[..3], shared, "{kind:?}");
            let source_specific: &[&str] = match kind {
                Kind::Reactor => &[
                    "frames_rx",
                    "frames_tx",
                    "send_queue_depth",
                    "sends_shed",
                    "frames_in_shard",
                ],
                _ => &[],
            };
            assert_eq!(&runtime[3..], source_specific, "{kind:?}");
            // Published in the same batch, so exactly equal.
            assert_eq!(
                snap.gauge("frames_delivered"),
                snap.gauge("probe_delivered")
            );
        }
        rig.deployment.shutdown();
    }
}

/// Records how its inbound traffic was handed over. `gate` (set on one
/// process of a shard) parks the shard thread in `on_start` until the test
/// has queued its frames, so the first poll finds all of them; `opening` is
/// sent from `on_start`, in order.
#[derive(Debug)]
struct Recorder {
    id: ProcessId,
    gate: Option<Arc<Barrier>>,
    opening: Vec<(u32, ProbeMsg)>,
    /// One entry per `on_burst`: the `(sender, seq)` of each frame, in order.
    bursts: Vec<Vec<(u32, u32)>>,
    /// Direct `on_message` calls — the host must make none.
    singles: u64,
}

impl Protocol for Recorder {
    type Msg = ProbeMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Actions<ProbeMsg>) {
        if let Some(gate) = &self.gate {
            gate.wait();
        }
        for (to, msg) in self.opening.drain(..) {
            out.send(ProcessId::new(to), msg);
        }
    }

    fn on_message(&mut self, _from: ProcessId, _msg: &ProbeMsg, _out: &mut Actions<ProbeMsg>) {
        self.singles += 1;
    }

    fn on_burst(&mut self, burst: &[(ProcessId, ProbeMsg)], _out: &mut Actions<ProbeMsg>) {
        let frames = burst.iter().map(|(from, msg)| match *msg {
            ProbeMsg::Ping(seq) | ProbeMsg::Ack(seq) => (from.as_u32(), seq),
        });
        self.bursts.push(frames.collect());
    }

    fn on_timer(&mut self, _timer: TimerId, _out: &mut Actions<ProbeMsg>) {}
}

impl LeaderOracle for Recorder {
    fn leader(&self) -> ProcessId {
        ProcessId::new(0)
    }
}

impl Introspect for Recorder {
    fn snapshot(&self) -> Snapshot {
        let frames = self.bursts.iter().map(Vec::len).sum::<usize>();
        Snapshot {
            extra: vec![
                ("rec_bursts", self.bursts.len() as u64),
                ("rec_frames", frames as u64),
            ],
            ..Snapshot::default()
        }
    }
}

impl Recorder {
    fn new(id: u32, opening: Vec<(u32, ProbeMsg)>) -> Self {
        Recorder {
            id: ProcessId::new(id),
            gate: None,
            opening,
            bursts: Vec::new(),
            singles: 0,
        }
    }

    /// The seqs that arrived from `from`, in arrival order.
    fn heard_from(&self, from: u32) -> Vec<u32> {
        let frames = self.bursts.iter().flatten();
        let from_link = frames.filter(|&&(sender, _)| sender == from);
        from_link.map(|&(_, seq)| seq).collect()
    }
}

/// Frames that arrive together reach `on_burst` together: with the shard
/// parked, two outside links interleave `PER_LINK` frames each into p0 and
/// p2 (both on shard 0); the first poll must hand each process its frames
/// in one call, every link in send order — and never through `on_message`.
fn frames_that_arrive_together_are_one_burst_per_process(kind: Kind) {
    const PER_LINK: u32 = 20; // 4 × 20 frames: under the 128-frame poll bound
    let gate = Arc::new(Barrier::new(2));
    let recorders = (0..N as u32)
        .map(|i| Recorder {
            gate: (i == 0).then(|| Arc::clone(&gate)),
            ..Recorder::new(i, Vec::new())
        })
        .collect();
    let (deployment, mut outside) = deploy(kind, StdDuration::ZERO, recorders);
    let links = [N as u32, N as u32 + 1];
    for seq in 0..PER_LINK {
        for to in [0, 2] {
            for from in links {
                outside.send(from, to, &ProbeMsg::Ping(seq));
            }
        }
    }
    gate.wait();
    let delivered = |node| {
        deployment
            .snapshot(ProcessId::new(node))
            .gauge("rec_bursts")
            > Some(0)
    };
    assert!(
        wait_for(StdDuration::from_secs(20), || delivered(0) && delivered(2)),
        "{kind:?}: the burst never arrived"
    );
    let finals = deployment.shutdown();
    for node in [0, 2] {
        let rec = &finals[node];
        assert_eq!(rec.singles, 0, "{kind:?}: p{node} was handed a lone frame");
        assert_eq!(
            rec.bursts.len(),
            1,
            "{kind:?}: p{node} took more than one turn"
        );
        let burst = &rec.bursts[0];
        assert_eq!(burst.len(), 2 * PER_LINK as usize, "{kind:?}: p{node}");
        for link in links {
            let sent: Vec<u32> = (0..PER_LINK).collect();
            assert_eq!(
                rec.heard_from(link),
                sent,
                "{kind:?}: link {link} -> p{node} reordered"
            );
        }
    }
    assert!(finals[1].bursts.is_empty() && finals[3].bursts.is_empty());
}

#[test]
fn transport_frames_that_arrive_together_are_one_burst_per_process() {
    frames_that_arrive_together_are_one_burst_per_process(Kind::TransportMany);
}

#[test]
fn reactor_frames_that_arrive_together_are_one_burst_per_process() {
    frames_that_arrive_together_are_one_burst_per_process(Kind::Reactor);
}

/// Counts its turns and answers every ping with the count. Its `snapshot`
/// is slow on purpose: a host that sent a turn's frames before publishing
/// the turn would leave the asker holding an ack for two whole milliseconds
/// while the cell still showed the turn before.
#[derive(Debug)]
struct Turns {
    id: ProcessId,
    turns: u32,
}

impl Protocol for Turns {
    type Msg = ProbeMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, _out: &mut Actions<ProbeMsg>) {}

    fn on_message(&mut self, from: ProcessId, _msg: &ProbeMsg, out: &mut Actions<ProbeMsg>) {
        self.turns += 1;
        out.send(from, ProbeMsg::Ack(self.turns));
    }

    fn on_timer(&mut self, _timer: TimerId, _out: &mut Actions<ProbeMsg>) {}
}

impl LeaderOracle for Turns {
    fn leader(&self) -> ProcessId {
        ProcessId::new(0)
    }
}

impl Introspect for Turns {
    fn snapshot(&self) -> Snapshot {
        std::thread::sleep(StdDuration::from_millis(2));
        Snapshot {
            extra: vec![("turns", u64::from(self.turns))],
            ..Snapshot::default()
        }
    }
}

/// Observation order: a peer that has received a frame of turn `k` never
/// reads a snapshot older than turn `k` — a read is served a snapshot built
/// after it began, whichever way the source sends.
fn a_frame_of_turn_k_never_outruns_the_snapshot_of_turn_k(kind: Kind) {
    let processes = (0..N as u32)
        .map(|i| Turns {
            id: ProcessId::new(i),
            turns: 0,
        })
        .collect();
    let (deployment, mut outside) = deploy(kind, StdDuration::ZERO, processes);
    for _ in 0..20 {
        outside.send(N as u32, 0, &ProbeMsg::Ping(0));
        let Some(ProbeMsg::Ack(turn)) = outside.recv(StdDuration::from_secs(20)) else {
            panic!("{kind:?}: the ping was never answered");
        };
        let seen = deployment.snapshot(ProcessId::new(0)).gauge("turns");
        assert!(
            seen >= Some(u64::from(turn)),
            "{kind:?}: holding the ack of turn {turn}, the snapshot still reads {seen:?}"
        );
    }
    deployment.shutdown();
}

#[test]
fn transport_frames_never_outrun_the_snapshot_of_their_turn() {
    a_frame_of_turn_k_never_outruns_the_snapshot_of_turn_k(Kind::TransportOne);
    a_frame_of_turn_k_never_outruns_the_snapshot_of_turn_k(Kind::TransportMany);
}

#[test]
fn reactor_frames_never_outrun_the_snapshot_of_their_turn() {
    a_frame_of_turn_k_never_outruns_the_snapshot_of_turn_k(Kind::Reactor);
}

/// Counts its periodic timer turns and its snapshot builds where the test
/// can see both without reading a snapshot.
#[derive(Debug)]
struct Counted {
    id: ProcessId,
    turns: Arc<AtomicU64>,
    builds: Arc<AtomicU64>,
}

impl Protocol for Counted {
    type Msg = ProbeMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Actions<ProbeMsg>) {
        out.set_timer(T_PERIODIC, Duration::from_ticks(PERIOD));
    }

    fn on_message(&mut self, _from: ProcessId, _msg: &ProbeMsg, _out: &mut Actions<ProbeMsg>) {}

    fn on_timer(&mut self, _timer: TimerId, out: &mut Actions<ProbeMsg>) {
        self.turns.fetch_add(1, Ordering::SeqCst);
        out.set_timer(T_PERIODIC, Duration::from_ticks(PERIOD));
    }
}

impl LeaderOracle for Counted {
    fn leader(&self) -> ProcessId {
        ProcessId::new(0)
    }
}

impl Introspect for Counted {
    fn snapshot(&self) -> Snapshot {
        self.builds.fetch_add(1, Ordering::SeqCst);
        Snapshot {
            extra: vec![("turns", self.turns.load(Ordering::SeqCst))],
            ..Snapshot::default()
        }
    }
}

/// Snapshots on request: no build across 100 turns nobody read, then
/// exactly one build per read — of the process read, none of the others —
/// each served after the read began, and a shutdown builds nothing nobody
/// asked for.
#[test]
fn an_unread_process_is_never_snapshotted() {
    for kind in KINDS {
        let counters: Vec<(Arc<AtomicU64>, Arc<AtomicU64>)> =
            (0..N).map(|_| Default::default()).collect();
        let processes = counters
            .iter()
            .enumerate()
            .map(|(i, (turns, builds))| Counted {
                id: ProcessId::new(i as u32),
                turns: Arc::clone(turns),
                builds: Arc::clone(builds),
            })
            .collect();
        let (deployment, _outside) = deploy(kind, StdDuration::ZERO, processes);
        let builds = || -> Vec<u64> {
            counters
                .iter()
                .map(|(_, b)| b.load(Ordering::SeqCst))
                .collect()
        };
        let (turns, _) = &counters[0];
        assert!(
            wait_for(StdDuration::from_secs(20), || turns.load(Ordering::SeqCst)
                >= 100),
            "{kind:?}: timers never progressed"
        );
        assert_eq!(builds(), [0; N], "{kind:?}: built without a reader");
        for read in 1..=5 {
            let before = turns.load(Ordering::SeqCst);
            let snap = deployment.snapshot(ProcessId::new(0));
            assert_eq!(builds(), [read, 0, 0, 0], "{kind:?}: read {read}");
            assert!(
                snap.gauge("turns") >= Some(before),
                "{kind:?}: served a snapshot older than the read"
            );
        }
        deployment.shutdown();
        assert_eq!(builds(), [5, 0, 0, 0], "{kind:?}: shutdown built");
    }
}

/// Reading `M` processes on one timer-less shard: the shard wakes only at
/// its poll budget, so one wait per process would take up to `M` budgets.
#[test]
fn reading_every_process_costs_one_turn() {
    const M: usize = 8;
    /// The host's longest block in its I/O source.
    const POLL_BUDGET: StdDuration = StdDuration::from_millis(20);
    for kind in [Kind::TransportMany, Kind::Reactor] {
        let recorders = timerless(M);
        let accept: MuxAccept<ProbeMsg> =
            Arc::new(|me, from, to, msg: &ProbeMsg| admits(from, to, msg, me, M));
        let deployment = if kind == Kind::Reactor {
            let sockets: Vec<UdpSocket> = (0..M)
                .map(|_| UdpSocket::bind(("127.0.0.1", 0)).expect("bind"))
                .collect();
            let peers = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
            let config = RealtimeConfig {
                tick: TICK,
                workers: 1,
            };
            Deployment::over_sockets("hc-one", recorders, sockets, peers, config, accept, None)
                .expect("spawn over sockets")
        } else {
            let endpoints = MemNetwork::grouped(&[0; M]);
            Deployment::over_transports("hc-one", recorders, endpoints, TICK, accept, None)
        };
        assert_eq!(deployment.worker_threads(), 1);
        let fastest = (0..3)
            .map(|_| {
                let started = Instant::now();
                assert_eq!(deployment.leaders().len(), M);
                started.elapsed()
            })
            .min()
            .expect("three reads");
        assert!(
            fastest < 2 * POLL_BUDGET,
            "{kind:?}: reading {M} processes took {fastest:?}"
        );
        deployment.shutdown();
    }
}

/// A `Transport` whose receive fails once `fail` is set.
struct Failing<T> {
    inner: T,
    fail: Arc<AtomicBool>,
}

impl<T: Transport> Transport for Failing<T> {
    fn send(&mut self, from: ProcessId, to: ProcessId, payload: &[u8]) -> Result<(), NetError> {
        self.inner.send(from, to, payload)
    }

    fn recv(&mut self, timeout: StdDuration) -> Result<Option<Frame>, NetError> {
        if self.fail.load(Ordering::SeqCst) {
            return Err(NetError::Closed);
        }
        self.inner.recv(timeout)
    }
}

const BOMB: u32 = 666;

/// Panics on a `Ping(BOMB)`, after meeting the test at `gate` twice so the
/// test can start a reader while the shard is stuck inside the turn.
#[derive(Debug)]
struct Bomb {
    id: ProcessId,
    gate: Arc<Barrier>,
}

impl Protocol for Bomb {
    type Msg = ProbeMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, _out: &mut Actions<ProbeMsg>) {}

    fn on_message(&mut self, _from: ProcessId, msg: &ProbeMsg, _out: &mut Actions<ProbeMsg>) {
        if *msg == ProbeMsg::Ping(BOMB) {
            self.gate.wait();
            self.gate.wait();
            panic!("{} was told to panic", self.id);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, _out: &mut Actions<ProbeMsg>) {}
}

impl LeaderOracle for Bomb {
    fn leader(&self) -> ProcessId {
        ProcessId::new(0)
    }
}

impl Introspect for Bomb {
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
}

/// A call running on a thread of its own.
struct Call<T> {
    result: std::sync::mpsc::Receiver<T>,
    thread: std::thread::JoinHandle<()>,
}

fn call<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Call<T> {
    let (tx, result) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    Call { result, thread }
}

impl<T> Call<T> {
    /// Whether the call returned within `limit`; its thread is joined if so
    /// (and left behind, blocked, if not).
    fn returned_within(self, limit: StdDuration) -> bool {
        let returned = self.result.recv_timeout(limit).is_ok();
        if returned {
            self.thread.join().expect("caller thread");
        }
        returned
    }
}

fn timerless(n: usize) -> Vec<Recorder> {
    (0..n as u32)
        .map(|i| Recorder::new(i, Vec::new()))
        .collect()
}

/// No reader waits on a shard that is gone: the shard closes its cells
/// whether it stops, loses its source, or unwinds out of a panicking
/// protocol, and a read — begun before or after — returns.
#[test]
fn a_read_returns_once_the_shard_is_gone() {
    const LIMIT: StdDuration = StdDuration::from_secs(5);

    // Stopped: one shard of one on its own thread, read as the stop lands
    // and after the thread has returned.
    let endpoint = MemNetwork::mesh(1).pop().expect("endpoint");
    let handle = NodeHandle::new();
    let node = {
        let handle = handle.clone();
        let recorder = timerless(1).pop().expect("recorder");
        std::thread::spawn(move || run_node(recorder, endpoint, NodeConfig::new(1), handle))
    };
    let racing = Arc::clone(&handle.snapshot);
    handle.stop.store(true, Ordering::SeqCst);
    let racing = call(move || racing.read());
    node.join().expect("node thread");
    assert!(racing.returned_within(LIMIT), "racing the stop");
    let after = Arc::clone(&handle.snapshot);
    assert!(
        call(move || after.read()).returned_within(LIMIT),
        "after the stop"
    );

    // The source fails: a read racing the failure returns, and the shards
    // still hand their processes back.
    for kind in [Kind::TransportOne, Kind::TransportMany] {
        let fail = Arc::new(AtomicBool::new(false));
        let (endpoints, _outside) = mem_endpoints(kind);
        let transports = endpoints
            .into_iter()
            .map(|inner| Failing {
                inner,
                fail: Arc::clone(&fail),
            })
            .collect();
        let accept: MuxAccept<ProbeMsg> =
            Arc::new(|me, from, to, msg: &ProbeMsg| admits(from, to, msg, me, N));
        let deployment = Arc::new(Deployment::over_transports(
            "hc-fail",
            timerless(N),
            transports,
            TICK,
            accept,
            None,
        ));
        assert_eq!(deployment.snapshots().len(), N);
        fail.store(true, Ordering::SeqCst);
        let racing = Arc::clone(&deployment);
        assert!(
            call(move || racing.snapshots()).returned_within(LIMIT),
            "{kind:?}: racing the failure"
        );
        let deployment = Arc::into_inner(deployment).expect("the only handle");
        assert_eq!(deployment.shutdown().len(), N, "{kind:?}");
    }

    // The protocol panics mid-turn. Whichever lands first, the read or the
    // panic, the read returns; the pause makes "already waiting" the usual
    // order.
    for kind in KINDS {
        let gate = Arc::new(Barrier::new(2));
        let bombs = (0..N as u32)
            .map(|i| Bomb {
                id: ProcessId::new(i),
                gate: Arc::clone(&gate),
            })
            .collect();
        let (deployment, mut outside) = deploy(kind, StdDuration::ZERO, bombs);
        let deployment = Arc::new(deployment);
        outside.send(N as u32, 0, &ProbeMsg::Ping(BOMB));
        gate.wait(); // p0's shard is inside the turn
        let waiting = Arc::clone(&deployment);
        let waiting = call(move || waiting.snapshot(ProcessId::new(0)));
        std::thread::sleep(StdDuration::from_millis(50));
        gate.wait(); // ... and now unwinds out of it
        assert!(waiting.returned_within(LIMIT), "{kind:?}: waiting reader");
        let after = Arc::clone(&deployment);
        assert!(
            call(move || after.snapshots()).returned_within(LIMIT),
            "{kind:?}: after the panic"
        );
    }
}

/// Arms a timer from `on_quiesce`; it must never fire.
const T_FAREWELL: TimerId = TimerId::new(5);
const FAREWELL: u32 = 999;

/// Holds one message back until the host stops, and answers each farewell
/// it hears — a reaction a peer that is already draining must discard.
#[derive(Debug)]
struct Farewell {
    id: ProcessId,
    quiesced: u64,
    /// Senders of the farewells that arrived, in arrival order.
    heard: Vec<u32>,
    /// Senders of the answers to its own farewell that arrived.
    answered_by: Vec<u32>,
    farewell_timer_fires: u64,
}

impl Farewell {
    fn new(id: u32) -> Self {
        Farewell {
            id: ProcessId::new(id),
            quiesced: 0,
            heard: Vec::new(),
            answered_by: Vec::new(),
            farewell_timer_fires: 0,
        }
    }
}

impl Protocol for Farewell {
    type Msg = ProbeMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, _out: &mut Actions<ProbeMsg>) {}

    fn on_message(&mut self, from: ProcessId, msg: &ProbeMsg, out: &mut Actions<ProbeMsg>) {
        match *msg {
            ProbeMsg::Ping(FAREWELL) => {
                self.heard.push(from.as_u32());
                out.send(from, ProbeMsg::Ack(FAREWELL));
            }
            ProbeMsg::Ack(FAREWELL) => self.answered_by.push(from.as_u32()),
            _ => {}
        }
    }

    fn on_timer(&mut self, timer: TimerId, _out: &mut Actions<ProbeMsg>) {
        if timer == T_FAREWELL {
            self.farewell_timer_fires += 1;
        }
    }

    fn on_quiesce(&mut self, out: &mut Actions<ProbeMsg>) {
        self.quiesced += 1;
        out.broadcast_others(ProbeMsg::Ping(FAREWELL));
        out.set_timer(T_FAREWELL, Duration::from_ticks(1));
    }
}

impl LeaderOracle for Farewell {
    fn leader(&self) -> ProcessId {
        ProcessId::new(0)
    }
}

impl Introspect for Farewell {
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
}

/// The quiesce law at the host: `on_quiesce` runs exactly once on every live
/// process and never on a crashed one; what it sends reaches every live peer
/// — on the same shard or another, whichever stopped first — before that
/// peer's drain concludes; a peer on the same shard is draining too, so its
/// answer is discarded; the timer it arms is ignored.
fn a_stop_asks_every_live_process_once_for_what_it_held_back(kind: Kind) {
    let processes = (0..N as u32).map(Farewell::new).collect();
    let (deployment, _outside) = deploy(kind, StdDuration::ZERO, processes);
    let crashed = N as u32 - 1;
    deployment.crash(ProcessId::new(crashed));
    let finals = deployment.shutdown();
    for p in &finals {
        let me = p.id.as_u32();
        assert_eq!(p.farewell_timer_fires, 0, "{kind:?}: p{me}'s timer fired");
        assert_no_cohosted_answer(kind, p);
        if me == crashed {
            assert_eq!(p.quiesced, 0, "{kind:?}: a crashed process was asked");
            assert!(p.heard.is_empty(), "{kind:?}: a crashed process was told");
            continue;
        }
        assert_eq!(p.quiesced, 1, "{kind:?}: p{me}");
        let mut heard = p.heard.clone();
        heard.sort_unstable();
        let live_peers: Vec<u32> = (0..crashed).filter(|&q| q != me).collect();
        assert_eq!(heard, live_peers, "{kind:?}: p{me} missed a farewell");
    }
}

#[test]
fn a_transport_stop_asks_every_live_process_once_for_what_it_held_back() {
    a_stop_asks_every_live_process_once_for_what_it_held_back(Kind::TransportOne);
    a_stop_asks_every_live_process_once_for_what_it_held_back(Kind::TransportMany);
}

#[test]
fn a_reactor_stop_asks_every_live_process_once_for_what_it_held_back() {
    a_stop_asks_every_live_process_once_for_what_it_held_back(Kind::Reactor);
}

/// `Ping(0..per_link)` to each of `peers`, interleaved across the links.
fn pings(peers: &[u32], per_link: u32) -> Vec<(u32, ProbeMsg)> {
    (0..per_link)
        .flat_map(|seq| peers.iter().map(move |&q| (q, ProbeMsg::Ping(seq))))
        .collect()
}

/// The co-hosted route keeps the burst law: what a shard's processes send
/// each other in one turn (here `on_start`) reaches each addressee in one
/// `on_burst` at the next poll, every link — self-links included — in send
/// order, and on the reactor without a datagram.
fn cohosted_frames_keep_link_order_in_one_burst(kind: Kind) {
    const PER_LINK: u32 = 20;
    let recorders = (0..N as u32)
        .map(|i| Recorder::new(i, pings(&cohosted(kind, i), PER_LINK)))
        .collect();
    let (deployment, _outside) = deploy(kind, StdDuration::ZERO, recorders);
    let links = 2 * u64::from(PER_LINK);
    let frames = |node: u32| {
        deployment
            .snapshot(ProcessId::new(node))
            .gauge("rec_frames")
            .unwrap_or(0)
    };
    assert!(
        wait_for(StdDuration::from_secs(20), || (0..N as u32)
            .all(|i| frames(i) == links)),
        "{kind:?}: the co-hosted frames never arrived"
    );
    if kind == Kind::Reactor {
        for snap in deployment.snapshots() {
            assert_eq!(snap.gauge("frames_in_shard"), Some(links));
            assert_eq!(
                snap.gauge("frames_rx"),
                Some(0),
                "a frame crossed the kernel"
            );
            assert_eq!(
                snap.gauge("frames_tx"),
                Some(0),
                "a frame crossed the kernel"
            );
        }
    }
    for rec in deployment.shutdown() {
        let me = rec.id.as_u32();
        assert_eq!(rec.singles, 0, "{kind:?}: p{me} was handed a lone frame");
        assert_eq!(
            rec.bursts.len(),
            1,
            "{kind:?}: p{me} took more than one turn"
        );
        for link in cohosted(kind, me) {
            let sent: Vec<u32> = (0..PER_LINK).collect();
            assert_eq!(
                rec.heard_from(link),
                sent,
                "{kind:?}: link {link} -> p{me} reordered"
            );
        }
    }
}

#[test]
fn reactor_cohosted_frames_keep_link_order_in_one_burst() {
    cohosted_frames_keep_link_order_in_one_burst(Kind::Reactor);
}

#[test]
fn transport_cohosted_frames_keep_link_order_in_one_burst() {
    cohosted_frames_keep_link_order_in_one_burst(Kind::TransportMany);
}

/// Encodes and decodes of [`Tally`] so far. Only
/// [`a_cohosted_receiver_costs_no_bytes`] sends it, so tests running in
/// parallel cannot move the counts.
static ENCODES: AtomicU64 = AtomicU64::new(0);
static DECODES: AtomicU64 = AtomicU64::new(0);

/// A sequence number that counts its own encodes and decodes.
#[derive(Clone, Debug, PartialEq)]
struct Tally(u32);

impl Wire for Tally {
    fn encode(&self, buf: &mut Vec<u8>) {
        ENCODES.fetch_add(1, Ordering::SeqCst);
        put_u32(buf, self.0);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        DECODES.fetch_add(1, Ordering::SeqCst);
        Ok(Tally(r.u32()?))
    }
}

const BROADCASTS: u32 = 20;

/// Broadcasts `Tally(0..BROADCASTS)` to every process, itself included,
/// at start, and records what it hears.
#[derive(Debug)]
struct Broadcaster {
    id: ProcessId,
    heard: Vec<(u32, u32)>,
}

impl Protocol for Broadcaster {
    type Msg = Tally;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Actions<Tally>) {
        for seq in 0..BROADCASTS {
            out.broadcast_all(Tally(seq));
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: &Tally, _out: &mut Actions<Tally>) {
        self.heard.push((from.as_u32(), msg.0));
    }

    fn on_timer(&mut self, _timer: TimerId, _out: &mut Actions<Tally>) {}
}

impl LeaderOracle for Broadcaster {
    fn leader(&self) -> ProcessId {
        ProcessId::new(0)
    }
}

impl Introspect for Broadcaster {
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            extra: vec![("heard", self.heard.len() as u64)],
            ..Snapshot::default()
        }
    }
}

/// On the reactor a co-hosted receiver gets the typed message: a broadcast
/// whose receivers all share the sender's shard is neither encoded nor
/// decoded, and one with receivers on another shard is encoded exactly once
/// and decoded once per remote receiver — here two of four. Either way
/// every link delivers in send order.
#[test]
fn a_cohosted_receiver_costs_no_bytes() {
    for (workers, encodes, decodes) in [(1, 0, 0), (2, 1, 2)] {
        let (encoded, decoded) = (
            ENCODES.load(Ordering::SeqCst),
            DECODES.load(Ordering::SeqCst),
        );
        let processes = (0..N as u32)
            .map(|i| Broadcaster {
                id: ProcessId::new(i),
                heard: Vec::new(),
            })
            .collect();
        let config = RealtimeConfig {
            tick: TICK,
            workers,
        };
        let deployment = Deployment::spawn_udp(processes, config).expect("spawn over sockets");
        let all = Some(N as u64 * u64::from(BROADCASTS));
        let heard = |node: u32| deployment.snapshot(ProcessId::new(node)).gauge("heard");
        assert!(
            wait_for(StdDuration::from_secs(20), || (0..N as u32)
                .all(|i| heard(i) == all)),
            "{workers} shard(s): the broadcasts never arrived"
        );
        let finals = deployment.shutdown();
        let sends = N as u64 * u64::from(BROADCASTS);
        let counted = |count: &AtomicU64, before| count.load(Ordering::SeqCst) - before;
        assert_eq!(
            counted(&ENCODES, encoded),
            encodes * sends,
            "{workers} shard(s)"
        );
        assert_eq!(
            counted(&DECODES, decoded),
            decodes * sends,
            "{workers} shard(s)"
        );
        for rec in finals {
            for from in 0..N as u32 {
                let link = rec.heard.iter().filter(|&&(sender, _)| sender == from);
                let seqs: Vec<u32> = link.map(|&(_, seq)| seq).collect();
                let sent: Vec<u32> = (0..BROADCASTS).collect();
                assert_eq!(seqs, sent, "{workers} shard(s): link {from} -> {}", rec.id);
            }
        }
    }
}

const REJECTED: u32 = 13;

/// Every message meets the admission rule, whichever route it takes: a
/// message the rule rejects is dropped on a co-hosted link and on a
/// self-link, and the messages around it still arrive in order.
#[test]
fn the_policy_rejects_cohosted_frames_too() {
    for kind in [Kind::TransportMany, Kind::Reactor] {
        let accept: MuxAccept<ProbeMsg> = Arc::new(|me, from, to, msg: &ProbeMsg| {
            admits(from, to, msg, me, N) && *msg != ProbeMsg::Ping(REJECTED)
        });
        let opening = [1, REJECTED, 2]
            .into_iter()
            .flat_map(|seq| [(2, ProbeMsg::Ping(seq)), (0, ProbeMsg::Ping(seq))])
            .collect();
        let mut recorders = timerless(N);
        recorders[0].opening = opening;
        let (deployment, _outside) = deploy_with(kind, StdDuration::ZERO, recorders, accept);
        let frames = |node: u32| {
            deployment
                .snapshot(ProcessId::new(node))
                .gauge("rec_frames")
        };
        assert!(
            wait_for(StdDuration::from_secs(20), || frames(0) >= Some(2)
                && frames(2) >= Some(2)),
            "{kind:?}: the admitted frames never arrived"
        );
        let finals = deployment.shutdown();
        for node in [0, 2] {
            assert_eq!(finals[node].heard_from(0), [1, 2], "{kind:?}: p{node}");
        }
    }
}

/// The `Transport` source's opt-out: a co-hosted link and a self-link still
/// belong to the source, so a `FaultyLink` that cuts them cuts them — here
/// p0 ↔ p2 (one shard) and p1 → p1 — while every other link delivers.
#[test]
fn a_faulty_link_still_cuts_cohosted_links() {
    const PER_LINK: u32 = 5;
    let cut = |a: u32, b: u32| Partition {
        a: vec![a],
        b: vec![b],
        from_tick: 0,
        until_tick: u64::MAX,
        symmetric: true,
    };
    let (endpoints, _outside) = mem_endpoints(Kind::TransportMany);
    let transports = endpoints
        .into_iter()
        .map(|t| {
            let model = LinkModel::new(1)
                .with_partition(cut(0, 2))
                .with_partition(cut(1, 1));
            FaultyLink::new(t, model)
        })
        .collect();
    let everyone: Vec<u32> = (0..N as u32).collect();
    let recorders = (0..N as u32)
        .map(|i| Recorder::new(i, pings(&everyone, PER_LINK)))
        .collect();
    let accept: MuxAccept<ProbeMsg> =
        Arc::new(|me, from, to, msg: &ProbeMsg| admits(from, to, msg, me, N));
    let deployment =
        Deployment::over_transports("hc-cut", recorders, transports, TICK, accept, None);
    let is_cut = |from: u32, to: u32| matches!((from, to), (0, 2) | (2, 0) | (1, 1));
    let expected = |to: u32| {
        let open = everyone.iter().filter(|&&from| !is_cut(from, to)).count();
        Some(open as u64 * u64::from(PER_LINK))
    };
    let frames = |node: u32| {
        deployment
            .snapshot(ProcessId::new(node))
            .gauge("rec_frames")
    };
    assert!(
        wait_for(StdDuration::from_secs(20), || everyone
            .iter()
            .all(|&i| frames(i) == expected(i))),
        "the open links never delivered"
    );
    // The drain delivers whatever is still in flight, so the finals are the
    // whole story.
    for rec in deployment.shutdown() {
        let to = rec.id.as_u32();
        for &from in &everyone {
            let sent: Vec<u32> = if is_cut(from, to) {
                Vec::new()
            } else {
                (0..PER_LINK).collect()
            };
            assert_eq!(rec.heard_from(from), sent, "link {from} -> p{to}");
        }
    }
}

/// Threads of this process whose name starts with `prefix`.
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("proc task dir")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// Dropping a deployment without `shutdown` must stop its threads, whichever
/// constructor built it. (Only this test of the binary uses the constructors'
/// own thread names, so sibling tests cannot perturb the counts.)
#[test]
#[cfg(target_os = "linux")]
fn dropping_any_constructor_stops_its_threads() {
    fn check<C>(prefix: &str, cluster: C) {
        assert!(
            wait_for(StdDuration::from_secs(5), || threads_named(prefix) > 0),
            "{prefix}: threads never appeared"
        );
        drop(cluster);
        assert!(
            wait_for(StdDuration::from_secs(5), || threads_named(prefix) == 0),
            "{prefix}: {} threads still alive after drop",
            threads_named(prefix)
        );
    }
    let probes = || (0..N as u32).map(Probe::new).collect::<Vec<_>>();
    let realtime = RealtimeConfig {
        tick: TICK,
        workers: 2,
    };
    check(
        "irs-shard-",
        Deployment::spawn(probes(), realtime, LinkModel::new(1)),
    );
    let one_per_endpoint = RealtimeConfig {
        tick: TICK,
        ..RealtimeConfig::default()
    };
    check(
        "irs-shard-",
        Deployment::spawn_on(probes(), one_per_endpoint, MemNetwork::mesh(N)),
    );
    let mux = RealtimeConfig {
        tick: TICK,
        workers: 2,
    };
    check(
        "irs-mux-",
        Deployment::spawn_udp(probes(), mux).expect("spawn mux"),
    );
}
