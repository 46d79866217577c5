//! The traced run of a KV workload: the workload's own seeded op stream
//! driven through the [`Pump`], then three replays that split the replica
//! span by layer — the bare replicated log on the same pump, the store
//! alone, and the WAL alone.
//!
//! Virtual time: one tick is the deployment's 100 µs. Each logical client
//! issues its k-th op when the virtual clock reaches `k × pace` (or as soon
//! after as its previous op completed), so timer-driven background traffic —
//! Ω gossip, lease probes — runs in its deployed proportion to the op rate.
//! The pace is the workload's nominal live rate, not a measurement.

use crate::gen::{Op, OpStream};
use crate::pump::{self, AcceptFn, Kind, Pump, Span, NONE};
use crate::stats;
use crate::sys::ScratchDir;
use irs_consensus::{Command, ConsensusConfig, LogMsg, ReplicatedLog};
use irs_omega::{OmegaMsg, OmegaProcess};
use irs_sim::SimRng;
use irs_svc::loadgen::{check_consistency, AckedWrite, ClientAcks};
use irs_svc::{
    accept_svc_frame, Durability, FsyncPolicy, KvOp, KvStore, KvWrite, ReadTier, SvcConfig, SvcMsg,
    SvcReplica, SvcReply,
};
use irs_types::{Introspect, LeaderOracle, ProcessId, SystemConfig};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// First wait before a silent request is retried, and the back-off cap, in
/// ticks — `SvcClient`'s 30 ms and 400 ms.
const BASE_RETRY: u64 = 300;
const MAX_RETRY: u64 = 4_000;
/// Virtual ticks the cluster runs before the first op (leases settle).
const SETTLE_TICKS: u64 = 400;
/// The lease/read-index probe period in ticks (the ballot-check period).
const LEASE_PERIOD: f64 = 80.0;

/// One logical client of a traced workload.
#[derive(Clone, Copy, Debug)]
pub struct LaneSpec {
    pub read_pct: u64,
    pub tier: ReadTier,
    pub keys: u64,
    /// Ticks between this client's ops, as `num / den`.
    pub pace: (u64, u64),
    /// This client's share of the run's ops, out of the lanes' total.
    pub weight: u64,
}

/// What the pump runs for one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub n: usize,
    pub lanes: Vec<LaneSpec>,
    pub batch: (usize, u64),
    pub snapshot_interval: u64,
    pub durable: bool,
    /// Crash the leader once this share of the ops completed.
    pub crash_at: Option<f64>,
    pub ops: u64,
}

/// The pump form of each KV workload (`None` for `sim_election`, which has
/// no replicas to host).
pub fn spec_for(workload: &str) -> Option<Spec> {
    let write_lane = |pace| LaneSpec {
        read_pct: 0,
        tier: ReadTier::Lease,
        keys: 64,
        pace,
        weight: 1,
    };
    let base = Spec {
        n: 5,
        lanes: vec![write_lane((2, 1))],
        batch: (1, 1),
        snapshot_interval: 1_024,
        durable: false,
        crash_at: None,
        ops: 3_000,
    };
    Some(match workload {
        "mux_put" => base,
        "durable_put" => Spec {
            n: 3,
            lanes: vec![write_lane((3, 2))],
            durable: true,
            snapshot_interval: 0,
            ..base
        },
        "mem_window" => Spec {
            lanes: vec![
                LaneSpec {
                    keys: 16,
                    ..write_lane((13, 1))
                };
                16
            ],
            batch: (8, 4),
            snapshot_interval: 256,
            ops: 6_000,
            ..base
        },
        "read_tiers" => Spec {
            lanes: vec![
                LaneSpec {
                    read_pct: 90,
                    weight: 160,
                    ..write_lane((1, 2))
                },
                LaneSpec {
                    read_pct: 100,
                    tier: ReadTier::ReadIndex,
                    ..write_lane((80, 1))
                },
            ],
            ops: 6_000,
            ..base
        },
        "failover" => Spec {
            lanes: vec![write_lane((10, 1))],
            crash_at: Some(1.0 / 3.0),
            ops: 1_500,
            ..base
        },
        _ => return None,
    })
}

/// One op as the pump's driver saw it.
#[derive(Clone, Debug)]
pub struct OpRec {
    pub lane: usize,
    pub read: Option<ReadTier>,
    pub issued_at: u64,
    pub done_at: Option<u64>,
    /// The client-receive span of the ack ([`NONE`] with spans off).
    pub recv_span: u32,
    /// The encoded command of a write (replayed through the bare log).
    pub cmd: Option<Command>,
}

#[derive(Debug)]
enum Wait {
    /// Sent; silence until this tick means retry.
    Reply { until: u64 },
    /// Backing off; resend at this tick.
    Backoff { until: u64 },
}

#[derive(Debug)]
struct Outstanding {
    op: u32,
    seq: u64,
    msg: SvcMsg,
    key: Vec<u8>,
    attempt_wait: u64,
    wait: Wait,
}

struct Lane {
    spec: LaneSpec,
    pid: ProcessId,
    stream: OpStream,
    rng: SimRng,
    seq: u64,
    hint: ProcessId,
    issued: u64,
    quota: u64,
    outstanding: Option<Outstanding>,
    acks: ClientAcks,
}

impl Lane {
    fn due(&self) -> u64 {
        SETTLE_TICKS + self.issued * self.spec.pace.0 / self.spec.pace.1
    }
}

/// Frames admitted so far, by plane; shared with the admission closure, so
/// it keeps counting for as long as the pump runs.
#[derive(Clone, Default)]
pub struct PlaneTally {
    /// Lease probes and their acks.
    pub lease: Rc<Cell<u64>>,
    /// Ω gossip carried inside log messages.
    pub gossip: Rc<Cell<u64>>,
}

/// Everything one pump pass produced.
pub struct SvcPass {
    pub pump: Pump<SvcReplica>,
    pub ops: Vec<OpRec>,
    pub acks: Vec<ClientAcks>,
    pub retries: u64,
    pub redirects: u64,
    pub wall_s: f64,
    pub tally: PlaneTally,
    pub crashed: Option<usize>,
    /// Keeps the durable replicas' directories alive as long as the pump.
    _dir: Option<ScratchDir>,
}

fn svc_config(spec: &Spec, dir: Option<&ScratchDir>) -> SvcConfig {
    let clients = spec.lanes.len();
    let config = SvcConfig::new(spec.n, clients)
        .with_batching(spec.batch.0, spec.batch.1)
        .with_snapshot_interval(spec.snapshot_interval);
    match dir {
        Some(d) => crate::live::durable_config(config, d.path()),
        None => config,
    }
}

/// Runs `spec`'s op stream through a pump of `SvcReplica`s.
///
/// # Errors
///
/// Returns a description when the scratch directory cannot be made or the
/// run stops making progress.
pub fn svc_pass(spec: &Spec, seed: u64, traced: bool) -> Result<SvcPass, String> {
    let dir = spec
        .durable
        .then(|| ScratchDir::new("pump").map_err(|e| format!("scratch dir: {e}")))
        .transpose()?;
    let config = svc_config(spec, dir.as_ref());
    let (n, peers) = (config.n, config.peers);
    let nodes = (0..n)
        .map(|i| config.replica(ProcessId::new(i as u32)))
        .collect();
    let tally = PlaneTally::default();
    let seen = tally.clone();
    let accept: AcceptFn<SvcMsg> = Box::new(move |frame, me| {
        let msg = accept_svc_frame(frame, me, n, peers)?;
        match &msg {
            SvcMsg::LeaseProbe { .. } | SvcMsg::LeaseAck { .. } => {
                seen.lease.set(seen.lease.get() + 1)
            }
            SvcMsg::Log(LogMsg::Omega(_)) => seen.gossip.set(seen.gossip.get() + 1),
            _ => {}
        }
        Some(msg)
    });
    let mut pump = Pump::new(nodes, accept, traced);
    let weight: u64 = spec.lanes.iter().map(|l| l.weight).sum();
    let mut lanes: Vec<Lane> = spec
        .lanes
        .iter()
        .enumerate()
        .map(|(i, &lane)| {
            let pid = ProcessId::new((n + i) as u32);
            let id = u64::from(pid.as_u32());
            Lane {
                spec: lane,
                pid,
                stream: OpStream::new(seed, id, lane.keys, lane.read_pct),
                rng: SimRng::from_seed(seed).fork(id ^ 0xC11E),
                seq: 0,
                hint: ProcessId::new(0),
                issued: 0,
                quota: spec.ops * lane.weight / weight,
                outstanding: None,
                acks: ClientAcks {
                    client: id,
                    acked: Vec::new(),
                },
            }
        })
        .collect();
    let total: u64 = lanes.iter().map(|l| l.quota).sum();
    let crash_after = spec.crash_at.map(|share| (total as f64 * share) as u64);
    let mut ops: Vec<OpRec> = Vec::with_capacity(total as usize);
    let (mut completed, mut retries, mut redirects) = (0u64, 0u64, 0u64);
    let mut crashed = None;

    let started = Instant::now();
    pump.start();
    pump.advance_to(SETTLE_TICKS);
    // A run that needs this many idle steps without completing anything is
    // stuck (a healthy re-election takes a few hundred).
    let mut idle_steps = 0u32;
    while completed < total {
        let now = pump.now();
        let mut acted = false;
        for lane in &mut lanes {
            let ready = lane.issued < lane.quota && lane.due() <= now;
            match &mut lane.outstanding {
                None if ready => {
                    issue(&mut pump, lane, &mut ops);
                    acted = true;
                }
                Some(o) => match o.wait {
                    Wait::Reply { until } if until <= now => {
                        // Silence: rotate the hint and back off, as
                        // `SvcClient` does.
                        retries += 1;
                        let next = lane.rng.index(n);
                        lane.hint = ProcessId::new(if next == lane.hint.index() {
                            ((next + 1) % n) as u32
                        } else {
                            next as u32
                        });
                        let jitter = o.attempt_wait * lane.rng.range_u64(0..1000) / 2_000;
                        o.wait = Wait::Backoff {
                            until: now + o.attempt_wait / 2 + jitter,
                        };
                        o.attempt_wait = (o.attempt_wait * 2).min(MAX_RETRY);
                        acted = true;
                    }
                    Wait::Backoff { until } if until <= now => {
                        o.wait = Wait::Reply {
                            until: now + o.attempt_wait,
                        };
                        pump.client_send(lane.pid, lane.hint, &o.msg, o.op);
                        acted = true;
                    }
                    _ => {}
                },
                None => {}
            }
        }
        pump.run_until_quiet();
        for d in pump.take_inbox() {
            let Some(lane) = d.to.index().checked_sub(n).and_then(|i| lanes.get_mut(i)) else {
                continue;
            };
            let SvcMsg::Reply(reply) = d.msg else {
                continue;
            };
            let Some(o) = &mut lane.outstanding else {
                continue;
            };
            let done = match reply {
                SvcReply::Applied { seq, slot, .. } if seq == o.seq => {
                    lane.acks.acked.push(AckedWrite {
                        seq,
                        key: std::mem::take(&mut o.key),
                        slot,
                    });
                    true
                }
                SvcReply::Value { rid, .. } if rid == o.seq => true,
                SvcReply::Redirect { seq, leader, .. } if seq == o.seq => {
                    redirects += 1;
                    lane.hint = if leader == lane.hint || leader.index() >= n {
                        ProcessId::new(((lane.hint.index() + 1) % n) as u32)
                    } else {
                        leader
                    };
                    o.wait = Wait::Reply {
                        until: pump.now() + o.attempt_wait,
                    };
                    pump.client_send(lane.pid, lane.hint, &o.msg, o.op);
                    false
                }
                _ => false,
            };
            acted = true;
            if done {
                let rec = &mut ops[o.op as usize];
                rec.done_at = Some(pump.now());
                rec.recv_span = d.span;
                lane.outstanding = None;
                completed += 1;
                idle_steps = 0;
                if crashed.is_none() && crash_after.is_some_and(|c| completed >= c) {
                    let victim = pump.node(0).leader().index();
                    pump.crash(victim);
                    crashed = Some(victim);
                }
            }
        }
        if acted {
            continue;
        }
        // Nothing to do at this instant: move the clock to whatever comes
        // first — a lane's next due op, a retry deadline, or a timer.
        let wake = lanes
            .iter()
            .filter_map(|l| match &l.outstanding {
                None if l.issued < l.quota => Some(l.due()),
                None => None,
                Some(o) => match o.wait {
                    Wait::Reply { until } | Wait::Backoff { until } => Some(until),
                },
            })
            .min()
            .ok_or("pump: ops outstanding but no lane is waiting for anything")?;
        if !pump.fire_next_timer(wake) {
            pump.advance_to(wake);
        }
        idle_steps += 1;
        if idle_steps > 200_000 {
            return Err(format!(
                "pump: no op completed in {idle_steps} steps ({completed}/{total} done)"
            ));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    // Let stragglers catch up (untimed) so the replicas can be compared.
    pump.advance_to(pump.now() + 4_000);
    Ok(SvcPass {
        pump,
        ops,
        acks: lanes.into_iter().map(|l| l.acks).collect(),
        retries,
        redirects,
        wall_s,
        tally,
        crashed,
        _dir: dir,
    })
}

fn issue(pump: &mut Pump<SvcReplica>, lane: &mut Lane, ops: &mut Vec<OpRec>) {
    lane.seq += 1;
    lane.issued += 1;
    let client = lane.acks.client;
    let op = ops.len() as u32;
    let (msg, key, read, cmd) = match lane.stream.next_op() {
        Op::Put { key } => {
            let cmd = KvWrite {
                client,
                seq: lane.seq,
                op: KvOp::Put {
                    key: key.clone(),
                    value: lane.stream.value(lane.seq),
                },
            }
            .encode();
            (SvcMsg::Request { cmd: cmd.clone() }, key, None, Some(cmd))
        }
        Op::Get { key } => (
            SvcMsg::Read {
                client,
                rid: lane.seq,
                key: key.clone(),
                tier: lane.spec.tier,
            },
            key,
            Some(lane.spec.tier),
            None,
        ),
    };
    ops.push(OpRec {
        lane: lane.pid.index() - pump.n(),
        read,
        issued_at: pump.now(),
        done_at: None,
        recv_span: NONE,
        cmd,
    });
    pump.client_send(lane.pid, lane.hint, &msg, op);
    lane.outstanding = Some(Outstanding {
        op,
        seq: lane.seq,
        msg,
        key,
        attempt_wait: BASE_RETRY,
        wait: Wait::Reply {
            until: pump.now() + BASE_RETRY,
        },
    });
}

impl SvcPass {
    /// The replicas still standing hold identical state and every acked
    /// write survives in it.
    pub fn check(&self) -> Result<(), String> {
        let survivors: Vec<&SvcReplica> = self
            .pump
            .nodes()
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != self.crashed)
            .map(|(_, r)| r)
            .collect();
        check_consistency(&survivors, &self.acks)
    }

    /// A live replica that believes it leads (node 0 unless it crashed).
    pub fn leader(&self) -> &SvcReplica {
        let any = (0..self.pump.n())
            .find(|&i| Some(i) != self.crashed)
            .expect("a live replica");
        let leader = self.pump.node(any).leader().index();
        self.pump.node(leader)
    }

    /// Writes among the ops.
    pub fn writes(&self) -> u64 {
        self.ops.iter().filter(|o| o.read.is_none()).count() as u64
    }
}

/// What the bare-log replay measured.
#[derive(Debug, Default)]
pub struct LogPass {
    pub slots: u64,
    /// Handler time spent for ops, ns (0 with spans off).
    pub handler_ns: u64,
    /// WAL hook time spent for ops, ns.
    pub wal_ns: u64,
    pub wal_commits: u64,
    pub wal_bytes: u64,
    pub wall_s: f64,
    /// Read by the determinism test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub counts: pump::Counts,
}

type BareLog = ReplicatedLog<OmegaProcess, Command>;

/// Replays the decided sequence — `batches[k]` is what slot `k` decided —
/// through `n` bare replicated logs on the same pump: same batches, same
/// number of slots in flight, same pace, so the log's share of the replica
/// span can be read off alone. With `durable`, every handler round's
/// accepted/decided events are committed through
/// [`Durability::append_events`] (never synced) inside a span of its own.
///
/// `pace` is ticks per command; a batch falls due when its first command
/// would have.
///
/// # Errors
///
/// Returns a description when the scratch directory cannot be made or the
/// replay stops making progress.
pub fn log_pass(
    n: usize,
    batch: (usize, u64),
    pace: (u64, u64),
    batches: &[Vec<Command>],
    durable: bool,
    traced: bool,
) -> Result<LogPass, String> {
    let system = SystemConfig::new(n, (n - 1) / 2).map_err(|e| format!("system: {e:?}"))?;
    let cfg = ConsensusConfig::new(system)
        .with_batching(batch.0, batch.1)
        .with_phase1_skip(true);
    let dir = durable
        .then(|| ScratchDir::new("logpass").map_err(|e| format!("scratch dir: {e}")))
        .transpose()?;
    let nodes: Vec<BareLog> = (0..n)
        .map(|i| {
            let id = ProcessId::new(i as u32);
            let mut log = ReplicatedLog::new(id, cfg, OmegaProcess::fig3(id, system));
            log.set_durable(durable);
            log
        })
        .collect();
    let accept: AcceptFn<LogMsg<OmegaMsg, Command>> =
        Box::new(move |frame, me| irs_runtime::accept_frame(frame, me, n));
    let mut pump = Pump::new(nodes, accept, traced);
    let commits = Rc::new(Cell::new(0u64));
    if let Some(dir) = &dir {
        let mut wals = (0..n)
            .map(|i| {
                Durability::open(&dir.path().join(format!("node-{i}")), FsyncPolicy::Never)
                    .map(|(d, _)| d)
                    .map_err(|e| format!("open WAL: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let seen = Rc::clone(&commits);
        pump.set_post(Box::new(move |i, log: &mut BareLog| {
            let events = log.take_wal_events();
            if !events.is_empty() {
                seen.set(seen.get() + 1);
                wals[i]
                    .append_events(&events)
                    .expect("append to the replay WAL");
            }
        }));
    }
    // The tick each batch falls due at.
    let due: Vec<u64> = batches
        .iter()
        .scan(0u64, |before, b| {
            let at = SETTLE_TICKS + *before * pace.0 / pace.1;
            *before += b.len() as u64;
            Some(at)
        })
        .collect();
    let started = Instant::now();
    pump.start();
    pump.advance_to(SETTLE_TICKS);
    let leader = pump.node(0).leader().index();
    let (mut submitted, mut decided) = (0usize, 0usize);
    let mut idle_steps = 0u32;
    while decided < batches.len() {
        let mut acted = false;
        while submitted < batches.len()
            && ((submitted - decided) as u64) < batch.1
            && due[submitted] <= pump.now()
        {
            let cmds = batches[submitted].clone();
            pump.call(leader, submitted as u32, |log, out| {
                cmds.into_iter().for_each(|c| log.submit(c));
                log.drive(out);
            });
            submitted += 1;
            acted = true;
        }
        pump.run_until_quiet();
        while pump.node(leader).decision(decided as u64).is_some() {
            decided += 1;
            acted = true;
            idle_steps = 0;
        }
        if acted {
            continue;
        }
        let wake = if submitted < batches.len() && ((submitted - decided) as u64) < batch.1 {
            due[submitted]
        } else {
            // Window full with the FIFO quiet: only a timer can move it.
            pump.next_timer_at()
                .ok_or("log replay: stalled with no timer armed")?
        };
        if !pump.fire_next_timer(wake) {
            pump.advance_to(wake);
        }
        idle_steps += 1;
        if idle_steps > 200_000 {
            return Err(format!(
                "log replay: stalled at {decided}/{} slots",
                batches.len()
            ));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let sums = pump::totals(pump.spans(), true);
    let handler_ns = sums[Kind::OnMessage as usize].total_ns + sums[Kind::Call as usize].total_ns;
    let wal_ns = sums[Kind::Post as usize].total_ns;
    let wal_bytes = dir.as_ref().map_or(0, |d| {
        (0..n)
            .filter_map(|i| {
                std::fs::metadata(d.path().join(format!("node-{i}")).join(irs_wal::WAL_FILE)).ok()
            })
            .map(|m| m.len())
            .sum()
    });
    Ok(LogPass {
        slots: decided as u64,
        handler_ns,
        wal_ns,
        wal_commits: commits.get(),
        wal_bytes,
        wall_s,
        counts: pump.counts.clone(),
    })
}

/// The acked writes grouped into the batches their slots decided, in slot
/// order.
pub fn decided_batches(ops: &[OpRec], acks: &[ClientAcks]) -> Vec<(u64, Vec<KvWrite>)> {
    let slot_of: BTreeMap<(u64, u64), u64> = acks
        .iter()
        .flat_map(|c| c.acked.iter().map(move |a| ((c.client, a.seq), a.slot)))
        .collect();
    let mut by_slot: BTreeMap<u64, Vec<KvWrite>> = BTreeMap::new();
    for w in ops
        .iter()
        .filter_map(|o| o.cmd.as_ref())
        .filter_map(KvWrite::decode)
    {
        if let Some(&slot) = slot_of.get(&(w.client, w.seq)) {
            by_slot.entry(slot).or_default().push(w);
        }
    }
    by_slot.into_iter().collect()
}

/// What the store replay measured.
#[derive(Debug, Default)]
pub struct StorePass {
    pub writes: u64,
    pub apply_ns: u64,
    pub exports: u64,
    pub export_ns: u64,
    pub digest: u64,
}

/// Replays the decided batches through a [`KvStore`] alone, exporting every
/// `snapshot_interval` slots as the replica does.
pub fn store_pass(batches: &[(u64, Vec<KvWrite>)], snapshot_interval: u64) -> StorePass {
    let mut pass = StorePass::default();
    let mut store = KvStore::new();
    let mut since_export = 0u64;
    for (slot, writes) in batches {
        let t0 = Instant::now();
        pass.writes += store.apply_batch(*slot, writes, |_, _| {});
        pass.apply_ns += t0.elapsed().as_nanos() as u64;
        since_export += 1;
        if snapshot_interval > 0 && since_export >= snapshot_interval {
            since_export = 0;
            let t0 = Instant::now();
            std::hint::black_box(store.export());
            pass.export_ns += t0.elapsed().as_nanos() as u64;
            pass.exports += 1;
        }
    }
    pass.digest = store.digest();
    pass
}

/// Median time of `export` and of `install` on `store`, µs.
pub fn export_install_us(store: &KvStore) -> (f64, f64) {
    let (mut exports, mut installs) = (Vec::new(), Vec::new());
    for _ in 0..21 {
        let t0 = Instant::now();
        let blob = std::hint::black_box(store.export());
        exports.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let t0 = Instant::now();
        let restored = std::hint::black_box(KvStore::install(&blob));
        installs.push(t0.elapsed().as_nanos() as f64 / 1e3);
        assert!(restored.is_some_and(|r| r.digest() == store.digest()));
    }
    (stats::median(&exports), stats::median(&installs))
}

/// The critical paths of a traced pass: for every completed op whose ack
/// walks back to its own request, the time of each outermost span on that
/// chain, attributed to the layer that spent it. Child spans tile their
/// hop, so the four layers sum to the whole path exactly.
#[derive(Debug, Default)]
pub struct Paths {
    /// Ops with a chain rooted at their own request.
    pub ops: u64,
    /// Client encode and decode, ns, summed over those ops.
    pub client_ns: u64,
    /// Frame and payload encode, frame decode.
    pub wire_ns: u64,
    /// The admission policy, payload decode included.
    pub accept_ns: u64,
    /// Protocol handlers (and the post hook).
    pub replica_ns: u64,
    /// Replica hops crossed, summed.
    pub hops: u64,
}

impl Paths {
    pub fn total_ns(&self) -> u64 {
        self.client_ns + self.wire_ns + self.accept_ns + self.replica_ns
    }
}

pub fn critical_paths(spans: &[Span], ops: &[OpRec]) -> Paths {
    // Children of each outermost span, by index range: spans are appended
    // in start order, so a hop's children directly follow it.
    let mut paths = Paths::default();
    for (k, op) in ops.iter().enumerate() {
        if op.recv_span == NONE {
            continue;
        }
        let chain = pump::chain(spans, op.recv_span);
        // Only chains rooted at this op's own request: a read answered off a
        // lease-probe round walks back to a timer instead.
        let rooted = chain.last().is_some_and(|&i| {
            let s = &spans[i as usize];
            s.kind == Kind::ClientSend && s.op == k as u32
        });
        if !rooted {
            continue;
        }
        paths.ops += 1;
        for &i in &chain {
            let s = &spans[i as usize];
            match s.kind {
                Kind::ClientSend => paths.client_ns += s.dur(),
                Kind::ClientRecv | Kind::Hop => {
                    paths.hops += u64::from(s.kind == Kind::Hop);
                    for child in spans[i as usize + 1..]
                        .iter()
                        .take_while(|c| c.parent == i && !pump::is_outermost(c.kind))
                    {
                        let bucket = match child.kind {
                            _ if s.kind == Kind::ClientRecv => &mut paths.client_ns,
                            Kind::FrameDecode | Kind::PayloadEncode | Kind::FrameEncode => {
                                &mut paths.wire_ns
                            }
                            Kind::Accept => &mut paths.accept_ns,
                            _ => &mut paths.replica_ns,
                        };
                        *bucket += child.dur();
                    }
                }
                _ => {}
            }
        }
    }
    paths
}

/// Mean read-index wait in lease periods (0 when no such read ran).
pub fn readindex_wait_periods(ops: &[OpRec]) -> f64 {
    let waits: Vec<f64> = ops
        .iter()
        .filter(|o| o.read == Some(ReadTier::ReadIndex))
        .filter_map(|o| o.done_at.map(|d| (d - o.issued_at) as f64 / LEASE_PERIOD))
        .collect();
    if waits.is_empty() {
        0.0
    } else {
        waits.iter().sum::<f64>() / waits.len() as f64
    }
}

/// Gauge `name` of a replica's snapshot, 0 when absent.
pub fn gauge<P: Introspect>(node: &P, name: &str) -> f64 {
    node.snapshot().gauge(name).unwrap_or(0) as f64
}

/// The wire size of a command as a `Request` frame payload — test helper
/// and sanity anchor for `pump.bytes_per_op`.
#[cfg(test)]
fn request_len(cmd: &Command) -> usize {
    use irs_net::Wire;
    let mut buf = Vec::new();
    SvcMsg::Request { cmd: cmd.clone() }.encode(&mut buf);
    buf.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_types::Protocol;

    fn small(workload: &str, ops: u64) -> Spec {
        Spec {
            ops,
            ..spec_for(workload).unwrap()
        }
    }

    #[test]
    fn a_put_is_sixty_two_frames_and_three_replica_hops_at_n5() {
        let pass = svc_pass(&small("mux_put", 300), 1, true).unwrap();
        pass.check().unwrap();
        assert_eq!(pass.ops.len(), 300);
        assert!(pass.ops.iter().all(|o| o.done_at.is_some()));
        // This Paxos is all-to-all: request, 5 Accept (self included), 5 × 5
        // Accepted, 30 Decide, ack — not the 14 of a leader-centric one. The
        // first op also pays the reign prepare.
        let per_op = pass.pump.counts.op_frames as f64 / 300.0;
        assert!((62.0..62.3).contains(&per_op), "frames/op = {per_op}");
        assert_eq!(pass.pump.counts.op_peer_frames / 300, 60);
        let paths = critical_paths(pass.pump.spans(), &pass.ops);
        assert_eq!((paths.ops, paths.hops), (300, 900));
        // The layers' shares are the whole path: child spans tile each hop.
        let spans = pass.pump.spans();
        let whole: u64 = pass
            .ops
            .iter()
            .flat_map(|o| pump::chain(spans, o.recv_span))
            .map(|i| spans[i as usize].dur())
            .sum();
        assert_eq!(paths.total_ns(), whole);
        assert!(paths.replica_ns > 0 && paths.wire_ns > 0 && paths.accept_ns > 0);
        let bytes = pass.pump.counts.op_bytes as usize / 300;
        assert!(bytes > 30 * request_len(pass.ops[0].cmd.as_ref().unwrap()));
    }

    #[test]
    fn same_seed_gives_byte_identical_counts_and_frame_corpus() {
        for workload in ["mux_put", "mem_window", "read_tiers", "failover"] {
            let spec = small(workload, 400);
            let a = svc_pass(&spec, 7, true).unwrap();
            let b = svc_pass(&spec, 7, false).unwrap();
            assert_eq!(a.pump.counts, b.pump.counts, "{workload}");
            assert_eq!(
                (a.retries, a.redirects),
                (b.retries, b.redirects),
                "{workload}"
            );
            assert_eq!(a.pump.now(), b.pump.now(), "{workload}");
            let c = svc_pass(&spec, 8, false).unwrap();
            assert_ne!(
                a.pump.counts.corpus_digest, c.pump.counts.corpus_digest,
                "{workload}"
            );
            a.check().unwrap();
        }
    }

    #[test]
    fn failover_pump_crashes_the_leader_and_the_client_finds_the_next() {
        let pass = svc_pass(&small("failover", 300), 1, false).unwrap();
        pass.check().unwrap();
        assert_eq!(pass.crashed, Some(0));
        assert!(pass.retries >= 1, "the silent leader was retried");
        assert!(pass.pump.counts.dropped_to_crashed > 0);
        assert_ne!(pass.leader().id().index(), 0);
        assert!(pass.ops.iter().all(|o| o.done_at.is_some()));
    }

    #[test]
    fn read_index_reads_wait_for_a_probe_round() {
        let pass = svc_pass(&small("read_tiers", 1_200), 1, false).unwrap();
        pass.check().unwrap();
        let w = readindex_wait_periods(&pass.ops);
        assert!(w > 0.1 && w < 3.0, "waited {w} periods");
        assert!(gauge(pass.leader(), irs_obs::names::READS_LEASE) > 500.0);
        assert!(gauge(pass.leader(), irs_obs::names::READS_READ_INDEX) >= 1.0);
    }

    #[test]
    fn replays_reproduce_the_decided_sequence() {
        let spec = small("durable_put", 300);
        let pass = svc_pass(&spec, 3, false).unwrap();
        pass.check().unwrap();
        let decided = decided_batches(&pass.ops, &pass.acks);
        let batches: Vec<Vec<Command>> = decided
            .iter()
            .map(|(_, ws)| ws.iter().map(KvWrite::encode).collect())
            .collect();
        let log = log_pass(3, spec.batch, spec.lanes[0].pace, &batches, true, true).unwrap();
        assert_eq!(log.slots, 300);
        assert!(log.handler_ns > 0 && log.wal_ns > 0);
        // Every node commits its accept and its decide of every slot.
        assert!(log.wal_commits >= 300 * 3);
        assert!(log.wal_bytes > 0);
        let again = log_pass(3, spec.batch, spec.lanes[0].pace, &batches, true, false).unwrap();
        assert_eq!(log.counts, again.counts);
        let store = store_pass(&decided, 64);
        assert_eq!(store.writes, 300);
        assert_eq!(store.exports, 300 / 64);
        assert_eq!(store.digest, pass.leader().store().digest());
    }
}
