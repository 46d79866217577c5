//! The per-layer rungs that do not depend on the workload: each isolates one
//! layer through its public calls and reports a count or a time per unit of
//! that layer's work. Every traced record carries them, so that every
//! per-layer name is present on every workload, but they are measured once
//! per process: `ledger all` shares one reading among its traced runs. Each
//! is sized to a fraction of a second.

use crate::live::{election_sim, sim_events};
use crate::pump::{self, AcceptFn, Kind, Pump};
use crate::stats;
use crate::sys::{ProcSample, ScratchDir};
use crate::traced::{self, export_install_us, log_pass};
use irs_consensus::Command;
use irs_net::{BufPool, MemNetwork, Reactor, Transport};
use irs_omega::{OmegaMsg, OmegaProcess};
use irs_svc::loadgen::key_for;
use irs_svc::{FsyncPolicy, KvOp, KvStore, KvWrite, ReadTier, SvcCluster, SvcConfig, SvcMsg};
use irs_types::{Actions, ProcessId, ProcessSet, Protocol, SystemConfig};
use irs_wal::{Wal, WalRecord};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

type Metrics = BTreeMap<&'static str, f64>;

/// Runs every rung and returns its metrics.
///
/// # Errors
///
/// Returns a description of the first rung that could not run (socket or
/// file errors).
pub fn run_all() -> Result<Metrics, String> {
    let out = &mut Metrics::new();
    reactor(out).map_err(|e| format!("reactor rung: {e}"))?;
    mem(out).map_err(|e| format!("mem rung: {e}"))?;
    log_cells(out)?;
    store(out);
    wal(out).map_err(|e| format!("wal rung: {e}"))?;
    replica_idle(out)?;
    omega(out);
    set_union(out);
    sim_n256(out);
    runtime(out)?;
    obs(out);
    Ok(std::mem::take(out))
}

fn ns_per(started: Instant, n: u64) -> f64 {
    started.elapsed().as_nanos() as f64 / n as f64
}

/// `irs-net::reactor`/`poll`/`pool`: two loopback endpoints on one reactor.
fn reactor(out: &mut Metrics) -> std::io::Result<()> {
    const BURST: usize = 128;
    const BURSTS: usize = 150;
    const PINGS: usize = 1_500;
    let sockets = [
        UdpSocket::bind(("127.0.0.1", 0))?,
        UdpSocket::bind(("127.0.0.1", 0))?,
    ];
    let addrs = vec![sockets[0].local_addr()?, sockets[1].local_addr()?];
    let mut reactor = Reactor::new();
    for socket in sockets {
        reactor.add_endpoint(socket, addrs.clone())?;
    }
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let payload = [7u8; 64];
    let io = |e: irs_net::NetError| std::io::Error::other(e.to_string());
    let budget = Duration::from_millis(200);

    // Round trip: one frame there, one back, nothing else in flight.
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let started = Instant::now();
        for (ep, from, to) in [(0, p0, p1), (1, p1, p0)] {
            reactor.queue_frame(ep, from, to, &payload).map_err(io)?;
            let mut got = 0;
            while got == 0 {
                got = reactor.poll_once(budget, |_, _, _, _| {})?;
            }
        }
        rtts.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    out.insert("reactor.rtt_us", stats::median(&rtts));

    // Bursts: 128 frames queued, then polled until all arrived.
    let (rx0, mut polls) = (reactor.frames_rx(), 0u64);
    let started = Instant::now();
    for _ in 0..BURSTS {
        for _ in 0..BURST {
            reactor.queue_frame(0, p0, p1, &payload).map_err(io)?;
        }
        let mut got = 0;
        while got < BURST {
            got += reactor.poll_once(budget, |_, _, _, _| {})?;
            polls += 1;
        }
    }
    let frames = (reactor.frames_rx() - rx0) as f64;
    out.insert("reactor.frames_s", frames / started.elapsed().as_secs_f64());
    out.insert("reactor.frames_per_poll", frames / polls as f64);

    // The reactor keeps its buffer pool private; the same burst pattern on a
    // pool of the same shape shows what it allocates fresh.
    let mut pool = BufPool::new(256, irs_net::wire::FRAME_HEADER_LEN + 256);
    let mut held = Vec::with_capacity(BURST);
    for _ in 0..BURSTS {
        held.extend((0..BURST).map(|_| pool.acquire()));
        held.drain(..).for_each(|b| pool.recycle(b));
    }
    out.insert(
        "reactor.pool_fresh_per_kframe",
        pool.fresh_allocs() as f64 / (BURSTS * BURST) as f64 * 1e3,
    );
    Ok(())
}

/// `irs-net::mem`: one frame through the in-memory mesh, send plus receive.
fn mem(out: &mut Metrics) -> Result<(), irs_net::NetError> {
    const FRAMES: u64 = 100_000;
    let mut mesh = MemNetwork::mesh(2);
    let mut rx = mesh.pop().expect("endpoint 1");
    let mut tx = mesh.pop().expect("endpoint 0");
    let payload = [7u8; 64];
    let started = Instant::now();
    for _ in 0..FRAMES {
        tx.send(ProcessId::new(0), ProcessId::new(1), &payload)?;
        black_box(rx.recv(Duration::ZERO)?);
    }
    out.insert("mem.ns_per_frame", ns_per(started, FRAMES));
    Ok(())
}

fn synthetic_batches(slots: u64, per_slot: u64) -> Vec<Vec<Command>> {
    let command = |k: u64| {
        KvWrite {
            client: 9,
            seq: k + 1,
            op: KvOp::Put {
                key: key_for(9, k % 64),
                value: vec![k as u8; crate::gen::VALUE_LEN],
            },
        }
        .encode()
    };
    (0..slots)
        .map(|s| (s * per_slot..(s + 1) * per_slot).map(command).collect())
        .collect()
}

/// `irs-consensus`: the protocol's own ceiling on the zero-latency pump, at
/// two batch × depth cells.
fn log_cells(out: &mut Metrics) -> Result<(), String> {
    for (name, batch) in [("log.slots_s_b1d1", (1, 1)), ("log.slots_s_b8d4", (8, 4))] {
        let batches = synthetic_batches(1_500, batch.0 as u64);
        let pass = log_pass(5, batch, (0, 1), &batches, false, false)?;
        out.insert(name, pass.slots as f64 / pass.wall_s);
    }
    Ok(())
}

/// `irs-svc::store`: apply rate against the store's size, and the cost of
/// exporting and installing a 256-key snapshot.
fn store(out: &mut Metrics) {
    const OPS: u64 = 100_000;
    for (name, keys) in [
        ("store.apply_ns_per_op_k256", 256u64),
        ("store.apply_ns_per_op_k65536", 65_536),
    ] {
        let mut store = KvStore::new();
        let mut seq = 0;
        let mut write = |store: &mut KvStore, k: u64| {
            seq += 1;
            let w = KvWrite {
                client: 9,
                seq,
                op: KvOp::Put {
                    key: key_for(9, k % keys),
                    value: vec![k as u8; crate::gen::VALUE_LEN],
                },
            };
            store.apply(seq, &w)
        };
        for k in 0..keys {
            write(&mut store, k);
        }
        // A stride coprime to both sizes walks the key space out of order.
        let started = Instant::now();
        for k in 0..OPS {
            black_box(write(&mut store, k * 7_919));
        }
        out.insert(name, ns_per(started, OPS));
        if keys == 256 {
            let (export_us, install_us) = export_install_us(&store);
            out.insert("store.export_us", export_us);
            out.insert("store.install_us", install_us);
        }
    }
}

/// `irs-wal`: group-commit latency with a real flush (on whatever disk the
/// checkout sits on — this is the one place flush latency is read), without
/// one, and the replay rate of recovery.
fn wal(out: &mut Metrics) -> std::io::Result<()> {
    let dir = ScratchDir::new("walrung")?;
    let record = |slot: u64| WalRecord::Decide {
        slot,
        batch: vec![slot as u8; 96],
    };
    let commit_us = |wal: &mut Wal, records: u64, commits: u64| -> std::io::Result<f64> {
        let mut times = Vec::new();
        for c in 0..commits {
            let started = Instant::now();
            for r in 0..records {
                wal.append(&record(c * records + r));
            }
            wal.commit()?;
            times.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
        Ok(stats::median(&times))
    };
    let (mut synced, _) = Wal::open(dir.path().join("always.log"), FsyncPolicy::Always)?;
    out.insert("wal.commit_us_r1", commit_us(&mut synced, 1, 12)?);
    out.insert("wal.commit_us_r8", commit_us(&mut synced, 8, 12)?);
    drop(synced);
    let replay_path = dir.path().join("never.log");
    let (mut unsynced, _) = Wal::open(&replay_path, FsyncPolicy::Never)?;
    out.insert(
        "wal.commit_nosync_us_r1",
        commit_us(&mut unsynced, 1, 5_000)?,
    );
    drop(unsynced);
    let started = Instant::now();
    let (_, replayed) = Wal::open(&replay_path, FsyncPolicy::Never)?;
    out.insert(
        "wal.replay_us_per_krecord",
        started.elapsed().as_nanos() as f64 / 1e3 / (replayed.len() as f64 / 1e3),
    );
    Ok(())
}

/// `irs-svc::replica` at rest: what an idle n = 5 cluster sends per second of
/// virtual time (Ω gossip, lease probes), and what one lease-tier read
/// costs the leader.
fn replica_idle(out: &mut Metrics) -> Result<(), String> {
    const IDLE_TICKS: u64 = 10_000; // one virtual second
    const READS: u64 = 50_000;
    let mut spec = traced::spec_for("mux_put").expect("a KV workload");
    spec.ops = 64; // enough writes for the reads to find values
    let pass = traced::svc_pass(&spec, 1, false)?;
    let (lease0, gossip0) = (pass.tally.lease.get(), pass.tally.gossip.get());
    let mut pump = pass.pump;
    let t0 = pump.now();
    pump.advance_to(t0 + IDLE_TICKS);
    let per_second = |frames: u64| frames as f64 / (IDLE_TICKS as f64 / 10_000.0);
    out.insert(
        "replica.lease_frames_s",
        per_second(pass.tally.lease.get() - lease0),
    );
    out.insert(
        "omega.gossip_frames_s_n5",
        per_second(pass.tally.gossip.get() - gossip0),
    );

    let mut nodes = pump.into_nodes();
    let leader = &mut nodes[0];
    let client = ProcessId::new(5);
    let read = SvcMsg::Read {
        client: 5,
        rid: 1,
        key: key_for(5, 3),
        tier: ReadTier::Lease,
    };
    let mut actions = Actions::new();
    let started = Instant::now();
    for _ in 0..READS {
        leader.on_message(client, &read, &mut actions);
        black_box(actions.sends().len());
        actions.clear();
    }
    out.insert("replica.lease_read_ns", ns_per(started, READS));
    let served = traced::gauge(leader, irs_obs::names::READS_LEASE);
    if served < READS as f64 {
        return Err(format!(
            "lease rung: only {served} of {READS} reads took the lease path"
        ));
    }
    Ok(())
}

/// `irs-omega`: mean cost of handling one gossip message, at n = 5 and
/// n = 64, read off the pump's handler spans.
fn omega(out: &mut Metrics) {
    for (name, n, ticks) in [
        ("omega.alive_ns_n5", 5usize, 20_000u64),
        ("omega.alive_ns_n64", 64, 400),
    ] {
        let system = SystemConfig::new(n, (n - 1) / 2).expect("valid system");
        let nodes = system
            .processes()
            .map(|id| OmegaProcess::fig3(id, system))
            .collect();
        let accept: AcceptFn<OmegaMsg> =
            Box::new(move |frame, me| irs_runtime::accept_frame(frame, me, n));
        let mut pump = Pump::new(nodes, accept, true);
        pump.start();
        pump.advance_to(ticks);
        let handled = pump::totals(pump.spans(), false)[Kind::OnMessage as usize];
        out.insert(name, handled.total_ns as f64 / handled.count.max(1) as f64);
    }
}

/// `irs-types::set`: one in-place union of two 256-process sets.
fn set_union(out: &mut Metrics) {
    const UNIONS: u64 = 2_000_000;
    let odd = ProcessSet::from_ids(256, (0..256).filter(|i| i % 2 == 1).map(ProcessId::new));
    let mut acc = ProcessSet::from_ids(256, (0..256).filter(|i| i % 3 == 0).map(ProcessId::new));
    let started = Instant::now();
    for _ in 0..UNIONS {
        acc.union_in_place(black_box(&odd));
        black_box(&mut acc);
    }
    out.insert("set.union_ns_n256", ns_per(started, UNIONS));
}

/// `irs-sim`: the `BENCH_engine.json` cell that drifted — n = 256, delta
/// gossip refreshed every 8 — at a quarter of its horizon, one run.
fn sim_n256(out: &mut Metrics) {
    let mut sim = election_sim(256, 127, 1, 250, Some(8));
    let started = Instant::now();
    sim.run();
    out.insert(
        "sim.events_s_n256",
        sim_events(&sim) as f64 / started.elapsed().as_secs_f64(),
    );
}

/// `irs-runtime`: how long a fresh n = 5 mux cluster takes to agree on a
/// leader, and what share of one core it burns doing nothing afterwards.
fn runtime(out: &mut Metrics) -> Result<(), String> {
    const IDLE: Duration = Duration::from_millis(600);
    let mut elections = Vec::new();
    for round in 0..3 {
        let started = Instant::now();
        let (cluster, _clients) = SvcCluster::mux_udp(5, 1, 1, SvcConfig::new(5, 1))
            .map_err(|e| format!("runtime rung: bind sockets: {e}"))?;
        while cluster.agreed_leader().is_none() {
            if started.elapsed() > Duration::from_secs(10) {
                return Err("runtime rung: no leader within 10 s".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        elections.push(started.elapsed().as_secs_f64() * 1e3);
        if round == 0 {
            let before = ProcSample::now();
            let idle_from = Instant::now();
            std::thread::sleep(IDLE);
            let cpu = ProcSample::now().cpu_s - before.cpu_s;
            out.insert(
                "runtime.idle_cpu_share_n5",
                cpu / idle_from.elapsed().as_secs_f64(),
            );
        }
        cluster.shutdown();
    }
    out.insert("runtime.elect_ms_n5", stats::median(&elections));
    Ok(())
}

/// `irs-obs`: one counter increment and one histogram record.
fn obs(out: &mut Metrics) {
    const CALLS: u64 = 2_000_000;
    let registry = irs_obs::Registry::new();
    let counter = registry.counter(irs_obs::names::RUNTIME_POLLS);
    let hist = registry.histogram(irs_obs::names::SVC_APPLY_MICROS);
    let started = Instant::now();
    for k in 0..CALLS {
        counter.inc(black_box(k as usize & 3));
    }
    out.insert("obs.counter_ns", ns_per(started, CALLS));
    let started = Instant::now();
    for k in 0..CALLS {
        hist.record(black_box(k as usize & 3), black_box(k & 1023));
    }
    out.insert("obs.record_ns", ns_per(started, CALLS));
    black_box((counter.value(), hist.snapshot()));
}
