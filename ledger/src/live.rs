//! The six live workloads: real threads, real sockets (or the in-memory
//! mesh), wall-clock time. One call of [`run`] is several repetitions on
//! fresh clusters; every latency is kept exactly (ns), a percentile is taken
//! within a repetition, and the reported value is the median across
//! repetitions.
//!
//! Sizing: the load generator is one busy thread with one connection, the
//! mux runtime runs with one worker, and the whole process is pinned to one
//! core (see [`crate::sys::pin_to_one_cpu`]). A fresh cluster on this 2-core
//! VM otherwise lands in one of two regimes 40 % apart. What is left is a
//! per-cluster spread of about 9 % in throughput, so a run is many short
//! repetitions rather than few long ones. No message delay is injected
//! (in-process channel or loopback UDP), so latency is processor and syscall
//! time only.

use crate::gen::{Op, OpStream};
use crate::stats;
use crate::sys::{calibrate, ProcSample, ScratchDir};
use irs_net::wire::decode_payload;
use irs_net::{MemNetwork, MemTransport, Transport, Wire};
use irs_omega::{OmegaConfig, OmegaProcess, Variant};
use irs_sim::adversary::{presets, DelayDist};
use irs_sim::{CrashPlan, SimConfig, Simulation};
use irs_svc::loadgen::{
    await_survivor_convergence, check_consistency, check_read_linearizability, seq_of_value,
    AckedWrite, ClientAcks, ClientReads, ObservedRead,
};
use irs_svc::{
    FsyncPolicy, KvOp, KvWrite, ReadTier, SvcClient, SvcCluster, SvcConfig, SvcMsg, SvcReplica,
    SvcReply,
};
use irs_types::{Duration as Ticks, Introspect, ProcessId, Protocol, SystemConfig, Time};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Repetitions per run of a KV workload, each on a fresh cluster.
pub const KV_REPS: usize = 8;
/// Repetitions per run of `sim_election` (deterministic work; repeated only
/// to take medians of the timings).
pub const SIM_REPS: usize = 5;
/// Runs of the calibration kernel at each end of a repetition.
const CAL_SAMPLES: usize = 5;
/// Per-operation deadline (retries included). Long enough to ride out a
/// re-election, so no op of any workload is expected to fail.
const OP_DEADLINE: Duration = Duration::from_secs(2);
/// Keys per client key space.
const KEYS: u64 = 64;
/// The failover SLO: an op must be acked within this of its due time.
const SLO: Duration = Duration::from_millis(10);
/// The failover arrival interval (1 000 puts/s, open loop).
const FAILOVER_INTERVAL: Duration = Duration::from_millis(1);
/// The failover window: ops that fall due within this long of the crash are
/// the workload's primary sample — the requests that keep arriving on
/// schedule while no leader exists, and the backlog behind them.
const FAILOVER_WINDOW: Duration = Duration::from_millis(100);

/// `mem_window`: logical clients on the one generator endpoint, and their
/// (smaller) key spaces — 16 × 16 keys keeps the snapshot under the
/// single-frame cap.
const WINDOW_CLIENTS: usize = 16;
const WINDOW_KEYS: u64 = 16;
/// A lane resends its write when it has heard nothing for this long (the
/// blocking client's `BASE_RETRY`).
const WINDOW_RESEND: Duration = Duration::from_millis(30);
/// How often the generator looks at its lanes' clocks, and its longest sleep.
const WINDOW_SCAN: Duration = Duration::from_millis(5);

/// `sim_election`: the paper's own experiment at n = 64, t = 31.
const SIM_N: usize = 64;
const SIM_T: usize = 31;
/// Virtual ticks simulated before the timed window opens.
const SIM_WARMUP_TICKS: u64 = 1_000;
/// Timed virtual ticks per second of `--seconds` (all repetitions together).
/// About 5 500 ticks simulate per wall second on the reference box, so the
/// simulator measures for under `--seconds`; what matters is that every
/// repetition (9 000 timed ticks at the default 12 s) runs far past the
/// latest stabilisation seen (tick 5 496 over seeds 1–40), so the run ends
/// with a leader on any seed.
const SIM_TICKS_PER_SECOND: u64 = 3_750;
/// The fewest timed ticks a repetition simulates, however short `--seconds`
/// (the traced run asks for a third): past tick 5 496 as well, because a run
/// that ends before its election settled is not a valid run.
const SIM_MIN_TICKS: u64 = 6_000;
/// One latency sample is the wall time of this many virtual ticks.
const SIM_SLICE_TICKS: u64 = 10;

/// What one repetition measured. Times are wall-clock; [`Rep::speed`] says
/// how fast the machine was while they were taken.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub window_s: f64,
    /// The machine's speed around the repetition, relative to the reference
    /// (`CALIBRATION_REF_S` ÷ the calibration kernel's time; see
    /// [`with_speed`]): 1.0 is the reference VM in its fast phase, 0.8 a
    /// machine a fifth slower right now.
    pub speed: f64,
    /// Latency of every attempted primary op, ns (sorted once the run is
    /// reduced). A failed op stays in the sample at the time it gave up.
    pub lat_ns: Vec<u64>,
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    pub redirects: u64,
    /// Process CPU seconds and context switches spent inside the window.
    pub cpu_s: f64,
    pub ctx: u64,
    /// Why the repetition's outputs are wrong, when they are.
    pub error: Option<String>,
    pub aux: Aux,
}

/// Workload-specific observations (empty where they do not apply).
#[derive(Debug, Default)]
pub struct Aux {
    pub write_lat_ns: Vec<u64>,
    pub read_lat_ns: Vec<u64>,
    pub readindex_lat_ns: Vec<u64>,
    /// How late the open-loop generator issued each op, ns.
    pub late_ns: Vec<u64>,
    pub outage_ms: f64,
    pub slo_missed: u64,
    pub election_ticks: u64,
}

/// One run: all its repetitions, reduced.
///
/// The end-to-end values are in *calibrated* time: each repetition's rate is
/// divided, and each of its times multiplied, by the machine's speed measured
/// around it, before the median over repetitions is taken — so that a run in
/// the VM's slow phase reads like one in its fast phase. The timed window of
/// a timer-bound workload (`failover`) is the exception: its numbers are set
/// by timers (1 ms arrivals, 30 ms client retry, 8 ms ballot checks) that do
/// not stretch with the machine, and stay in wall-clock time. The `live.*`
/// per-layer rows are wall-clock everywhere.
#[derive(Debug)]
pub struct LiveResult {
    pub reps: Vec<Rep>,
    timer_bound: bool,
}

impl LiveResult {
    fn new(mut reps: Vec<Rep>, timer_bound: bool) -> LiveResult {
        for rep in &mut reps {
            rep.lat_ns.sort_unstable();
        }
        LiveResult { reps, timer_bound }
    }

    /// The factor a repetition's window times are multiplied by.
    fn scale(&self, speed: f64) -> f64 {
        if self.timer_bound {
            1.0
        } else {
            speed
        }
    }

    pub fn errors(&self) -> Vec<&str> {
        self.reps
            .iter()
            .filter_map(|r| r.error.as_deref())
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        stats::median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    /// Wall-clock throughput: median over repetitions.
    pub fn ops_s(&self) -> f64 {
        self.median_of(|r| r.completed as f64 / r.window_s)
    }

    /// Wall-clock median latency: the median over repetitions of each
    /// repetition's own median — steadier than the median of the pooled
    /// samples, because a repetition's whole distribution shifts with the
    /// cluster it got.
    pub fn p50_us(&self) -> f64 {
        self.median_of(|r| stats::percentile(&r.lat_ns, 0.50) as f64 / 1e3)
    }

    /// The machine's speed over the run: median over repetitions.
    pub fn speed(&self) -> f64 {
        self.median_of(|r| r.speed)
    }

    /// Median over repetitions of each repetition's p99 (or the highest
    /// percentile with ten samples beyond it).
    pub fn p99_us(&self) -> f64 {
        self.median_of(|r| stats::tail(&r.lat_ns).1 as f64 / 1e3)
    }

    /// Primary latency samples across all repetitions.
    pub fn samples(&self) -> usize {
        self.reps.iter().map(|r| r.lat_ns.len()).sum()
    }

    /// (max − min) ÷ median of the repetitions' throughputs.
    pub fn rep_spread(&self) -> f64 {
        let rates: Vec<f64> = self
            .reps
            .iter()
            .map(|r| r.completed as f64 / r.window_s)
            .collect();
        let (lo, hi) = rates
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        (hi - lo) / stats::median(&rates)
    }

    /// The end-to-end metrics, in calibrated time (see the type's docs).
    /// Set-up is processor-bound on every workload, so it is always scaled.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let p50 = |r: &Rep| stats::percentile(&r.lat_ns, 0.50) as f64 / 1e3;
        let rate = |r: &Rep| r.completed as f64 / r.window_s;
        BTreeMap::from([
            ("setup_s", self.median_of(|r| r.setup_s * r.speed)),
            ("ops_s", self.median_of(|r| rate(r) / self.scale(r.speed))),
            ("p50_us", self.median_of(|r| p50(r) * self.scale(r.speed))),
        ])
    }

    /// The `live.*`, `client.*`, `gen.*`, `proc.*` and `harness.*` rows of
    /// the per-layer table.
    pub fn layer_metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        let pooled = |f: fn(&Aux) -> &Vec<u64>| {
            let mut v: Vec<u64> = self
                .reps
                .iter()
                .flat_map(|r| f(&r.aux).iter().copied())
                .collect();
            v.sort_unstable();
            v
        };
        let p50_us = |v: &[u64]| {
            if v.is_empty() {
                0.0
            } else {
                stats::percentile(v, 0.5) as f64 / 1e3
            }
        };
        let rate =
            |v: fn(&Aux) -> &Vec<u64>| self.median_of(|r| v(&r.aux).len() as f64 / r.window_s);
        let completed: u64 = self.reps.iter().map(|r| r.completed).sum();
        let per_kop = |total: f64| total / (completed.max(1) as f64 / 1e3);
        out.insert("live.ops_s", self.ops_s());
        out.insert("live.p50_us", self.p50_us());
        out.insert("live.p99_us", self.p99_us());
        out.insert("live.samples", self.samples() as f64);
        out.insert(
            "live.failed_share",
            self.failed() as f64 / self.attempted().max(1) as f64,
        );
        out.insert("live.write_ops_s", rate(|a| &a.write_lat_ns));
        out.insert("live.read_ops_s", rate(|a| &a.read_lat_ns));
        out.insert("live.read_p50_us", p50_us(&pooled(|a| &a.read_lat_ns)));
        out.insert(
            "live.readindex_p50_us",
            p50_us(&pooled(|a| &a.readindex_lat_ns)),
        );
        out.insert("live.outage_ms", self.median_of(|r| r.aux.outage_ms));
        out.insert(
            "live.slo_miss_share",
            self.reps.iter().map(|r| r.aux.slo_missed).sum::<u64>() as f64
                / self.attempted().max(1) as f64,
        );
        out.insert(
            "live.election_ticks",
            self.median_of(|r| r.aux.election_ticks as f64),
        );
        out.insert(
            "client.retries",
            self.reps.iter().map(|r| r.retries).sum::<u64>() as f64,
        );
        out.insert(
            "client.redirects",
            self.reps.iter().map(|r| r.redirects).sum::<u64>() as f64,
        );
        let late = pooled(|a| &a.late_ns);
        out.insert(
            "gen.late_p99_us",
            if late.is_empty() {
                0.0
            } else {
                stats::tail(&late).1 as f64 / 1e3
            },
        );
        out.insert(
            "proc.cpu_ms_per_kop",
            per_kop(self.reps.iter().map(|r| r.cpu_s).sum::<f64>() * 1e3),
        );
        out.insert(
            "proc.ctx_per_op",
            self.reps.iter().map(|r| r.ctx).sum::<u64>() as f64 / completed.max(1) as f64,
        );
        out.insert("proc.rss_mb", ProcSample::now().rss_mb);
        out.insert("harness.rep_spread", self.rep_spread());
        out.insert("harness.speed_factor", self.speed());
    }
}

/// Runs `workload` for `seconds` of timed window in total, split evenly
/// over [`KV_REPS`] fresh deployments ([`SIM_REPS`] for the simulator).
///
/// # Errors
///
/// Returns a description when the workload name is unknown or a deployment
/// could not be brought up (socket or directory errors).
pub fn run(workload: &str, seed: u64, seconds: f64) -> Result<LiveResult, String> {
    let reps = if workload == "sim_election" {
        SIM_REPS
    } else {
        KV_REPS
    };
    let window = Duration::from_secs_f64(seconds / reps as f64);
    let rep = |_: usize| -> Result<Rep, String> {
        match workload {
            "mux_put" => put_rep(seed, window, false),
            "durable_put" => put_rep(seed, window, true),
            "mem_window" => mem_window_rep(seed, window),
            "read_tiers" => read_tiers_rep(seed, window),
            "failover" => failover_rep(seed, window),
            "sim_election" => sim_election_rep(seed, seconds),
            other => Err(format!("unknown workload {other:?}")),
        }
    };
    let reps = (0..reps)
        .map(|k| with_speed(|| rep(k)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LiveResult::new(reps, workload == "failover"))
}

/// Runs one whole repetition — deployment spawned, measured, checked and
/// shut down inside `body` — between two runs of the calibration kernel, and
/// stores the machine's speed they show.
///
/// The kernel runs only while no thread of the system under test exists: the
/// process is pinned to one core, so a kernel timed beside a live cluster
/// would be slowed by whatever CPU the cluster burns, and a change that
/// burns more (a spinning thread) would slow kernel and workload alike and
/// cancel out of every calibrated value. Bracketing the deployment's whole
/// life, the kernel sees the machine and nothing of the program.
///
/// The kernel runs [`CAL_SAMPLES`] times at each end and the speed is taken
/// from the mean of all of them: the VM's speed also moves within seconds,
/// and over six runs each of `mux_put`, `mem_window` and `sim_election` the
/// run medians ranged 0.15–0.19 of their median with one kernel run per end
/// and 0.11–0.13 with five.
fn with_speed(body: impl FnOnce() -> Result<Rep, String>) -> Result<Rep, String> {
    let kernel_s = || (0..CAL_SAMPLES).map(|_| calibrate()).sum::<f64>();
    let before = kernel_s();
    let mut rep = body()?;
    let mean = (before + kernel_s()) / (2 * CAL_SAMPLES) as f64;
    rep.speed = crate::sys::CALIBRATION_REF_S / mean;
    Ok(rep)
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Polls until every live replica names the same leader.
fn await_leader(cluster: &SvcCluster) -> Result<(), String> {
    let limit = Instant::now() + Duration::from_secs(10);
    while cluster.agreed_leader().is_none() {
        if Instant::now() > limit {
            return Err("no agreed leader within 10 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// One blocking client's bookkeeping across a repetition: what it got
/// acked (for the consistency check), what it read (for the
/// linearizability check), and the per-key floors the latter needs.
struct Session {
    stream: OpStream,
    acks: ClientAcks,
    reads: ClientReads,
    acked_floor: BTreeMap<Vec<u8>, u64>,
    issued_ceiling: BTreeMap<Vec<u8>, u64>,
}

/// The outcome of one timed call.
struct Call {
    lat_ns: u64,
    ok: bool,
    read: bool,
}

impl Session {
    fn new<T: Transport>(client: &SvcClient<T>, seed: u64, read_pct: u64, tier: ReadTier) -> Self {
        let id = client.client_id();
        Session {
            stream: OpStream::new(seed, id, KEYS, read_pct),
            acks: ClientAcks {
                client: id,
                acked: Vec::new(),
            },
            reads: ClientReads {
                client: id,
                tier: Some(tier),
                reads: Vec::new(),
            },
            acked_floor: BTreeMap::new(),
            issued_ceiling: BTreeMap::new(),
        }
    }

    fn put<T: Transport>(&mut self, client: &mut SvcClient<T>, key: Vec<u8>) -> Call {
        let seq = client.next_seq();
        let value = self.stream.value(seq);
        self.issued_ceiling.insert(key.clone(), seq);
        let started = Instant::now();
        let result = client.put(&key, &value, OP_DEADLINE);
        let lat_ns = nanos(started.elapsed());
        if let Ok(slot) = result {
            self.acked_floor.insert(key.clone(), seq);
            self.acks.acked.push(AckedWrite { seq, key, slot });
        }
        Call {
            lat_ns,
            ok: result.is_ok(),
            read: false,
        }
    }

    fn get<T: Transport>(
        &mut self,
        client: &mut SvcClient<T>,
        key: Vec<u8>,
        tier: ReadTier,
    ) -> Call {
        let started = Instant::now();
        let result = client.get(&key, tier, OP_DEADLINE);
        let lat_ns = nanos(started.elapsed());
        let ok = result.is_ok();
        if let Ok((value, frontier)) = result {
            self.reads.reads.push(ObservedRead {
                value_seq: value.as_deref().and_then(seq_of_value),
                frontier,
                acked_floor: self.acked_floor.get(&key).copied(),
                issued_ceiling: self.issued_ceiling.get(&key).copied(),
                key,
            });
        }
        Call {
            lat_ns,
            ok,
            read: true,
        }
    }

    /// The stream's next op, at `tier` when it is a read.
    fn next<T: Transport>(&mut self, client: &mut SvcClient<T>, tier: ReadTier) -> Call {
        match self.stream.next_op() {
            Op::Put { key } => self.put(client, key),
            Op::Get { key } => self.get(client, key, tier),
        }
    }

    /// Writes every key of the key space once, so reads find a value.
    fn preload<T: Transport>(&mut self, client: &mut SvcClient<T>) -> Result<(), String> {
        for k in 0..KEYS {
            let key = irs_svc::loadgen::key_for(client.client_id(), k);
            if !self.put(client, key).ok {
                return Err("preload put failed".into());
            }
        }
        Ok(())
    }
}

/// Folds one primary op into the repetition's counters and samples.
fn record(rep: &mut Rep, lat_ns: u64, ok: bool) {
    rep.attempted += 1;
    rep.lat_ns.push(lat_ns);
    rep.completed += u64::from(ok);
    rep.failed += u64::from(!ok);
}

/// Closes the set-up phase that began at `t0`, then runs `body` as the timed
/// window and stores its wall time and the process CPU and context switches
/// it spent.
fn timed(rep: &mut Rep, t0: Instant, body: impl FnOnce(&mut Rep)) {
    rep.setup_s = t0.elapsed().as_secs_f64();
    let before = ProcSample::now();
    let started = Instant::now();
    body(rep);
    rep.window_s = started.elapsed().as_secs_f64();
    let after = ProcSample::now();
    rep.cpu_s = after.cpu_s - before.cpu_s;
    rep.ctx = after.ctx.saturating_sub(before.ctx);
}

/// Stops the cluster once its replicas converged, and checks that they
/// hold identical state with no acked write lost. Returns the replicas.
fn settle(
    cluster: SvcCluster,
    crashed: Option<ProcessId>,
    acks: &[ClientAcks],
) -> (Vec<SvcReplica>, Result<(), String>) {
    // An id beyond the group excludes nobody.
    let skip = crashed.unwrap_or(ProcessId::new(cluster.n() as u32));
    let converged = await_survivor_convergence(&cluster, skip, Duration::from_secs(5));
    let replicas = cluster.shutdown();
    let survivors: Vec<&SvcReplica> = replicas
        .iter()
        .filter(|r| Some(r.id()) != crashed)
        .collect();
    let check = if converged {
        check_consistency(&survivors, acks)
    } else {
        Err("replicas did not converge within 5 s of the load stopping".into())
    };
    (replicas, check)
}

/// `mux_put` (n = 5) and `durable_put` (n = 3, WAL on the blocking path):
/// one blocking client, closed loop, over the multiplexed UDP runtime.
fn put_rep(seed: u64, window: Duration, durable: bool) -> Result<Rep, String> {
    let t0 = Instant::now();
    let n = if durable { 3 } else { 5 };
    let warmup = if durable { 2_500 } else { 1_200 };
    let mut rep = Rep::default();
    let dir = durable
        .then(|| ScratchDir::new("wal").map_err(io_err("scratch dir")))
        .transpose()?;
    let mut config = SvcConfig::new(n, 1);
    if let Some(d) = &dir {
        config = durable_config(config, d.path());
    }
    let (cluster, mut clients) =
        SvcCluster::mux_udp(n, 1, 1, config.clone()).map_err(io_err("bind sockets"))?;
    await_leader(&cluster)?;
    let client = &mut clients[0];
    let mut session = Session::new(client, seed, 0, ReadTier::Lease);
    for _ in 0..warmup {
        if !session.next(client, ReadTier::Lease).ok {
            return Err("warm-up put failed".into());
        }
    }
    timed(&mut rep, t0, |rep| {
        let started = Instant::now();
        while started.elapsed() < window {
            let call = session.next(client, ReadTier::Lease);
            record(rep, call.lat_ns, call.ok);
        }
    });
    rep.retries = client.stats.retries;
    rep.redirects = client.stats.redirects;
    let (replicas, check) = settle(cluster, None, &[session.acks]);
    rep.error = check
        .and_then(|()| match &dir {
            Some(_) => recovered_state_matches(replicas, &config),
            None => Ok(()),
        })
        .err();
    Ok(rep)
}

/// The durable workload's settings. The files live inside the checkout, on
/// whatever disk that is, and an fsync there costs 2.5 ms one minute and
/// 22 ms the next — so no flush is put on the timed path: the WAL is written
/// (`append` + one `write(2)` per handler round, before the round's frames
/// leave) but never synced, and compaction is off because every rotation
/// fsyncs regardless of policy. Flush *latency* is therefore not measured;
/// the traced run reports it, and the flush count, per layer.
pub fn durable_config(config: SvcConfig, dir: &std::path::Path) -> SvcConfig {
    config
        .with_data_dir(dir)
        .with_fsync(FsyncPolicy::Never)
        .with_snapshot_interval(0)
}

/// Closes the live replicas, recovers every node directory offline, and
/// requires the recovered store to be digest-identical to the live one.
fn recovered_state_matches(replicas: Vec<SvcReplica>, config: &SvcConfig) -> Result<(), String> {
    let live: Vec<(ProcessId, u64)> = replicas
        .iter()
        .map(|r| (r.id(), r.store().digest()))
        .collect();
    drop(replicas); // closes (and flushes) every WAL before it is reopened
    for (id, digest) in live {
        let recovered = config.replica(id);
        if recovered.store().digest() != digest {
            return Err(format!(
                "replica {id}: offline WAL recovery digest {:#x} differs from live {digest:#x}",
                recovered.store().digest()
            ));
        }
    }
    Ok(())
}

/// One logical client of the windowed generator.
struct Lane {
    pid: ProcessId,
    stream: OpStream,
    seq: u64,
    acks: ClientAcks,
    outstanding: Option<Outstanding>,
}

/// A lane's write in flight.
struct Outstanding {
    payload: Vec<u8>,
    key: Vec<u8>,
    first_sent: Instant,
    last_sent: Instant,
}

/// A windowed write that finished: acked, or given up on at
/// [`OP_DEADLINE`].
struct WindowDone {
    lane: usize,
    lat_ns: u64,
    ok: bool,
}

/// The `mem_window` load generator: one thread, one in-memory endpoint,
/// [`WINDOW_CLIENTS`] logical clients with one outstanding write each.
struct WindowGen {
    ep: MemTransport,
    n: usize,
    hint: ProcessId,
    lanes: Vec<Lane>,
    last_scan: Instant,
    redirects: u64,
    retries: u64,
}

impl WindowGen {
    fn new(ep: MemTransport, n: usize, seed: u64) -> WindowGen {
        let lanes = (0..WINDOW_CLIENTS)
            .map(|i| {
                let pid = ProcessId::new((n + i) as u32);
                let id = u64::from(pid.as_u32());
                Lane {
                    pid,
                    stream: OpStream::new(seed, id, WINDOW_KEYS, 0),
                    seq: 0,
                    acks: ClientAcks {
                        client: id,
                        acked: Vec::new(),
                    },
                    outstanding: None,
                }
            })
            .collect();
        WindowGen {
            ep,
            n,
            hint: ProcessId::new(0),
            lanes,
            last_scan: Instant::now(),
            redirects: 0,
            retries: 0,
        }
    }

    fn lane_of(&self, pid: ProcessId) -> Option<usize> {
        pid.index()
            .checked_sub(self.n)
            .filter(|&i| i < self.lanes.len())
    }

    /// Issues lane `i`'s next write.
    fn issue(&mut self, i: usize) -> Result<(), String> {
        let lane = &mut self.lanes[i];
        lane.seq += 1;
        let key = lane.stream.next_op().key().to_vec();
        let write = KvWrite {
            client: lane.acks.client,
            seq: lane.seq,
            op: KvOp::Put {
                key: key.clone(),
                value: lane.stream.value(lane.seq),
            },
        };
        let mut payload = Vec::new();
        SvcMsg::Request {
            cmd: write.encode(),
        }
        .encode(&mut payload);
        let now = Instant::now();
        lane.outstanding = Some(Outstanding {
            payload,
            key,
            first_sent: now,
            last_sent: now,
        });
        self.resend(i, now)
    }

    fn resend(&mut self, i: usize, now: Instant) -> Result<(), String> {
        let lane = &mut self.lanes[i];
        let out = lane.outstanding.as_mut().expect("resend of an idle lane");
        out.last_sent = now;
        self.ep
            .send(lane.pid, self.hint, &out.payload)
            .map_err(|e| format!("generator send: {e}"))
    }

    /// Gives up on the first write past [`OP_DEADLINE`] (the next call finds
    /// the next one), and resends every write whose lane has been
    /// silent for [`WINDOW_RESEND`] — to the next replica when every lane is.
    fn scan(&mut self, now: Instant) -> Result<Option<WindowDone>, String> {
        let age = |t: Instant| now.saturating_duration_since(t);
        for (lane, l) in self.lanes.iter_mut().enumerate() {
            if let Some(out) = l.outstanding.take_if(|o| age(o.first_sent) > OP_DEADLINE) {
                let lat_ns = nanos(age(out.first_sent));
                return Ok(Some(WindowDone {
                    lane,
                    lat_ns,
                    ok: false,
                }));
            }
        }
        self.last_scan = now;
        let stale = |l: &Lane| {
            l.outstanding
                .as_ref()
                .is_some_and(|o| age(o.last_sent) > WINDOW_RESEND)
        };
        if self.lanes.iter().all(stale) {
            self.hint = ProcessId::new(((self.hint.index() + 1) % self.n) as u32);
        }
        for i in 0..self.lanes.len() {
            if stale(&self.lanes[i]) {
                self.retries += 1;
                self.resend(i, now)?;
            }
        }
        Ok(None)
    }

    fn in_flight(&self) -> usize {
        self.lanes
            .iter()
            .filter(|l| l.outstanding.is_some())
            .count()
    }

    /// Waits for one frame and handles it. Returns the write it finished:
    /// the lane whose outstanding op the frame acked, or a lane whose write
    /// ran out of time.
    fn step(&mut self) -> Result<Option<WindowDone>, String> {
        let now = Instant::now();
        if now.saturating_duration_since(self.last_scan) >= WINDOW_SCAN {
            if let Some(failed) = self.scan(now)? {
                return Ok(Some(failed));
            }
        }
        let frame = match self.ep.recv(WINDOW_SCAN) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(None),
            Err(e) => return Err(format!("generator recv: {e}")),
        };
        let Some(i) = self.lane_of(frame.to) else {
            return Ok(None);
        };
        let Ok(SvcMsg::Reply(reply)) = decode_payload::<SvcMsg>(&frame.payload) else {
            return Ok(None);
        };
        match reply {
            SvcReply::Applied { seq, slot, .. } if seq == self.lanes[i].seq => {
                let lane = &mut self.lanes[i];
                let Some(out) = lane.outstanding.take() else {
                    return Ok(None); // a duplicate ack of a retried write
                };
                lane.acks.acked.push(AckedWrite {
                    seq,
                    key: out.key,
                    slot,
                });
                Ok(Some(WindowDone {
                    lane: i,
                    lat_ns: nanos(out.first_sent.elapsed()),
                    ok: true,
                }))
            }
            SvcReply::Redirect { seq, leader, .. } if seq == self.lanes[i].seq => {
                self.redirects += 1;
                if leader.index() < self.n {
                    self.hint = leader;
                }
                if self.lanes[i].outstanding.is_some() {
                    self.resend(i, Instant::now())?;
                }
                Ok(None)
            }
            _ => Ok(None),
        }
    }
}

/// `mem_window`: thread-per-node replicas over the in-memory mesh with
/// batching (8) and pipelining (4); the only workload with concurrency.
fn mem_window_rep(seed: u64, window: Duration) -> Result<Rep, String> {
    const N: usize = 5;
    const WARMUP: u64 = 3_000;
    let t0 = Instant::now();
    let mut rep = Rep::default();
    // Replica i owns endpoint i; every logical client lives on endpoint N.
    let owner_of: Vec<usize> = (0..N)
        .chain(std::iter::repeat_n(N, WINDOW_CLIENTS))
        .collect();
    let mut endpoints = MemNetwork::grouped(&owner_of);
    let gen_ep = endpoints.pop().expect("generator endpoint");
    let config = SvcConfig::new(N, WINDOW_CLIENTS)
        .with_batching(8, 4)
        .with_snapshot_interval(256);
    let cluster = SvcCluster::spawn(endpoints, config);
    await_leader(&cluster)?;
    let mut gen = WindowGen::new(gen_ep, N, seed);
    for i in 0..WINDOW_CLIENTS {
        gen.issue(i)?;
    }
    let mut warmed = 0;
    while warmed < WARMUP {
        if let Some(done) = gen.step()? {
            if !done.ok {
                return Err("warm-up write failed".into());
            }
            warmed += 1;
            gen.issue(done.lane)?;
        }
    }
    let mut failure = None;
    timed(&mut rep, t0, |rep| {
        // Lanes issue for `window`, then every write in flight is waited
        // for, as a blocking client waits for its last call: each write
        // issued ends in the sample, acked or failed.
        let started = Instant::now();
        while gen.in_flight() > 0 {
            match gen.step() {
                Ok(Some(done)) => {
                    record(rep, done.lat_ns, done.ok);
                    if started.elapsed() < window {
                        failure = gen.issue(done.lane).err();
                    }
                }
                Ok(None) => {}
                Err(e) => failure = Some(e),
            }
            if failure.is_some() {
                return;
            }
        }
    });
    rep.retries = gen.retries;
    rep.redirects = gen.redirects;
    let acks: Vec<ClientAcks> = gen.lanes.into_iter().map(|l| l.acks).collect();
    let (_, check) = settle(cluster, None, &acks);
    rep.error = failure.or(check.err());
    Ok(rep)
}

/// `read_tiers`: connection A runs 90 % lease gets / 10 % puts closed-loop
/// (the busy thread, and the primary sample); connection B runs read-index
/// gets closed-loop beside it, asleep most of the time.
fn read_tiers_rep(seed: u64, window: Duration) -> Result<Rep, String> {
    const N: usize = 5;
    const WARMUP: usize = 4_000;
    let t0 = Instant::now();
    let mut rep = Rep::default();
    let (cluster, mut clients) =
        SvcCluster::mux_udp(N, 2, 1, SvcConfig::new(N, 2)).map_err(io_err("bind sockets"))?;
    await_leader(&cluster)?;
    let (a_half, b_half) = clients.split_at_mut(1);
    let (a, b) = (&mut a_half[0], &mut b_half[0]);
    let mut sa = Session::new(a, seed, 90, ReadTier::Lease);
    let mut sb = Session::new(b, seed, 100, ReadTier::ReadIndex);
    sa.preload(a)?;
    sb.preload(b)?;
    for _ in 0..WARMUP {
        if !sa.next(a, ReadTier::Lease).ok {
            return Err("warm-up op failed".into());
        }
    }
    let stop = AtomicBool::new(false);
    let mut b_calls = Vec::new();
    std::thread::scope(|scope| {
        let side = scope.spawn(|| {
            let mut calls = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                calls.push(sb.next(b, ReadTier::ReadIndex));
            }
            calls
        });
        timed(&mut rep, t0, |rep| {
            let started = Instant::now();
            while started.elapsed() < window {
                let call = sa.next(a, ReadTier::Lease);
                record(rep, call.lat_ns, call.ok);
                if call.read {
                    rep.aux.read_lat_ns.push(call.lat_ns);
                } else {
                    rep.aux.write_lat_ns.push(call.lat_ns);
                }
            }
        });
        stop.store(true, Ordering::SeqCst);
        b_calls = side.join().expect("read-index client thread");
    });
    for call in &b_calls {
        rep.aux.readindex_lat_ns.push(call.lat_ns);
        rep.attempted += 1;
        rep.failed += u64::from(!call.ok);
    }
    rep.retries = a.stats.retries + b.stats.retries;
    rep.redirects = a.stats.redirects + b.stats.redirects;
    let reads = [sa.reads, sb.reads];
    let (_, check) = settle(cluster, None, &[sa.acks, sb.acks]);
    rep.error = check
        .and_then(|()| check_read_linearizability(&reads))
        .err();
    Ok(rep)
}

/// `failover`: one client paced open-loop at 1 000 puts/s, latency counted
/// from each op's due time; the agreed leader is crashed a third of the way
/// into the window, so requests keep falling due while no leader exists.
/// The primary latency sample is the ops due within [`FAILOVER_WINDOW`] of
/// the crash (their median moves one-for-one with the outage); every op
/// counts for throughput, attempts and failures.
fn failover_rep(seed: u64, window: Duration) -> Result<Rep, String> {
    const N: usize = 5;
    const WARMUP: usize = 1_200;
    let t0 = Instant::now();
    let mut rep = Rep::default();
    let (cluster, mut clients) =
        SvcCluster::mux_udp(N, 1, 1, SvcConfig::new(N, 1)).map_err(io_err("bind sockets"))?;
    await_leader(&cluster)?;
    let client = &mut clients[0];
    let mut session = Session::new(client, seed, 0, ReadTier::Lease);
    for _ in 0..WARMUP {
        if !session.next(client, ReadTier::Lease).ok {
            return Err("warm-up put failed".into());
        }
    }
    let mut crashed = None;
    let mut ack_times: Vec<Instant> = Vec::new();
    timed(&mut rep, t0, |rep| {
        let started = Instant::now();
        let crash_at = window / 3;
        let mut crash_due = None;
        for k in 0u32.. {
            let due = FAILOVER_INTERVAL * k;
            if due >= window {
                break;
            }
            if crashed.is_none() && due >= crash_at {
                let victim = cluster.agreed_leader().unwrap_or(ProcessId::new(0));
                cluster.crash(victim);
                crashed = Some(victim);
                crash_due = Some(due);
            }
            // Sleep most of the way to the due time, then yield the rest:
            // a sleeping generator leaves the (one, shared) core to the
            // replicas.
            loop {
                let now = started.elapsed();
                if now >= due {
                    break;
                }
                let left = due - now;
                if left > Duration::from_micros(150) {
                    std::thread::sleep(left - Duration::from_micros(100));
                } else {
                    std::thread::yield_now();
                }
            }
            rep.aux
                .late_ns
                .push(nanos(started.elapsed().saturating_sub(due)));
            let key = session.stream.next_op().key().to_vec();
            let ok = session.put(client, key).ok;
            let done = started.elapsed();
            let lat = done.saturating_sub(due);
            rep.attempted += 1;
            rep.completed += u64::from(ok);
            rep.failed += u64::from(!ok);
            rep.aux.write_lat_ns.push(nanos(lat));
            if crash_due.is_some_and(|c| due < c + FAILOVER_WINDOW) {
                rep.lat_ns.push(nanos(lat));
            }
            if ok {
                ack_times.push(started + done);
            }
            if !ok || lat > SLO {
                rep.aux.slo_missed += 1;
            }
        }
    });
    rep.aux.outage_ms = ack_times
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    rep.retries = client.stats.retries;
    rep.redirects = client.stats.redirects;
    let (_, check) = settle(cluster, crashed, &[session.acks]);
    rep.error = check.err();
    Ok(rep)
}

/// `sim_election`: the paper's experiment — Figure 3 under the eventual
/// rotating t-star at n = 64, on the deterministic simulator. The service
/// stack does nothing here; `irs-omega`, `irs-types::set` and `irs-sim` do
/// everything. One latency sample is the wall time of ten virtual ticks.
fn sim_election_rep(seed: u64, seconds: f64) -> Result<Rep, String> {
    let t0 = Instant::now();
    let mut rep = Rep::default();
    let timed_ticks = (seconds * SIM_TICKS_PER_SECOND as f64) as u64 / SIM_REPS as u64;
    let horizon = SIM_WARMUP_TICKS + timed_ticks.max(SIM_MIN_TICKS);
    let mut sim = election_sim(SIM_N, SIM_T, seed, horizon, None);
    sim.start();
    while sim.now() < Time::from_ticks(SIM_WARMUP_TICKS) && sim.step() {}
    let events_before = sim_events(&sim);
    timed(&mut rep, t0, |rep| {
        let mut running = true;
        let mut edge = SIM_WARMUP_TICKS;
        while running && edge < horizon {
            edge += SIM_SLICE_TICKS;
            let started = Instant::now();
            while sim.now() < Time::from_ticks(edge) {
                if !sim.step() {
                    running = false;
                    break;
                }
            }
            rep.lat_ns.push(nanos(started.elapsed()));
        }
    });
    rep.attempted = rep.lat_ns.len() as u64;
    rep.completed = sim_events(&sim) - events_before;
    let report = sim.report();
    rep.aux.election_ticks = report.stabilization_ticks().unwrap_or(0);
    if report.stabilization.is_none() {
        rep.error = Some(format!(
            "simulation ended at tick {} without a stable common leader",
            report.final_time.ticks()
        ));
    }
    Ok(rep)
}

/// The `Scenario` of EXPERIMENTS.md's engine bench, built from the public
/// pieces of `irs-sim` and `irs-omega`: Figure 3, eventual rotating t-star
/// centred on the highest id, Δ = 8 ticks, uniform [1, 60] background.
pub fn election_sim(
    n: usize,
    t: usize,
    seed: u64,
    horizon: u64,
    delta_gossip: Option<u64>,
) -> Simulation<OmegaProcess, irs_sim::adversary::star::StarAdversary> {
    let system = SystemConfig::new(n, t).expect("valid (n, t)");
    let processes = system
        .processes()
        .map(|id| {
            let mut cfg = OmegaConfig::new(system, Variant::Fig3);
            if let Some(refresh) = delta_gossip {
                cfg = cfg.with_delta_gossip(refresh);
            }
            OmegaProcess::new(id, cfg)
        })
        .collect();
    let adversary = presets::rotating_star_a_prime(
        system,
        ProcessId::new(n as u32 - 1),
        Ticks::from_ticks(8),
        DelayDist::uniform(Ticks::from_ticks(1), Ticks::from_ticks(60)),
        seed,
    );
    Simulation::new(
        SimConfig::new(seed, Time::from_ticks(horizon)),
        processes,
        adversary,
        CrashPlan::new(),
    )
}

/// Events the engine has processed: deliveries (to live or crashed
/// processes) plus timer fires.
pub fn sim_events<P, A>(sim: &Simulation<P, A>) -> u64
where
    P: Protocol + Introspect,
    P::Msg: irs_types::RoundTagged,
    A: irs_sim::adversary::Adversary<P::Msg>,
{
    let c = sim.trace().counters;
    c.messages_delivered + c.dropped_to_crashed + c.timer_fires
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A thread that burns the calling thread's core until dropped — what a
    /// change that adds a spinning thread to the system under test looks
    /// like to the scheduler.
    struct Spinner {
        stop: Arc<AtomicBool>,
        thread: Option<std::thread::JoinHandle<()>>,
    }

    impl Spinner {
        fn start() -> Spinner {
            let stop = Arc::new(AtomicBool::new(false));
            let seen = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                while !seen.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
            Spinner {
                stop,
                thread: Some(thread),
            }
        }
    }

    impl Drop for Spinner {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Relaxed);
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
        }
    }

    /// The calibration kernel must see the machine, not the program: CPU
    /// burnt beside the cluster, for the cluster's lifetime, has to show in
    /// the calibrated rate instead of cancelling out of it. (The median
    /// latency barely moves — woken threads preempt the spinner, so most ops
    /// run undisturbed and a few wait a whole timeslice — which is why the
    /// assertion is on the rate.)
    #[test]
    fn a_busy_thread_beside_the_cluster_lowers_calibrated_ops_s() {
        if crate::sys::pin_to_one_cpu().is_none() {
            return; // unpinned, the spinner lands on another core
        }
        let measure = |busy: bool| {
            let rep = with_speed(|| {
                let _spinner = busy.then(Spinner::start);
                put_rep(1, Duration::from_millis(600), false)
            })
            .expect("mux_put repetition");
            assert_eq!(rep.error, None);
            LiveResult::new(vec![rep], false).end_to_end()
        };
        let (alone, beside) = (measure(false), measure(true));
        assert!(
            beside["ops_s"] < 0.8 * alone["ops_s"],
            "ops_s {} beside a busy thread, {} alone",
            beside["ops_s"],
            alone["ops_s"]
        );
    }

    /// A windowed write nobody answers is resent, then counted as failed at
    /// its deadline with its age as the latency — never dropped. (Takes the
    /// deadline's 2 s.)
    #[test]
    fn an_unanswered_windowed_write_fails_at_its_deadline() {
        const N: usize = 5;
        let owner_of: Vec<usize> = (0..N)
            .chain(std::iter::repeat_n(N, WINDOW_CLIENTS))
            .collect();
        // The replica endpoints exist but nothing serves them.
        let mut endpoints = MemNetwork::grouped(&owner_of);
        let mut gen = WindowGen::new(endpoints.pop().expect("generator endpoint"), N, 1);
        for i in 0..WINDOW_CLIENTS {
            gen.issue(i).unwrap();
        }
        let mut rep = Rep::default();
        let started = Instant::now();
        while rep.attempted < WINDOW_CLIENTS as u64 {
            assert!(started.elapsed() < 2 * OP_DEADLINE, "no failure seen");
            if let Some(done) = gen.step().unwrap() {
                record(&mut rep, done.lat_ns, done.ok);
            }
        }
        assert_eq!((rep.failed, rep.completed), (WINDOW_CLIENTS as u64, 0));
        assert_eq!(gen.in_flight(), 0);
        assert!(rep.lat_ns.iter().all(|&l| l > nanos(OP_DEADLINE)));
        assert!(
            gen.retries >= WINDOW_CLIENTS as u64,
            "lanes were not resent"
        );
        assert_ne!(
            gen.hint,
            ProcessId::new(0),
            "silence did not rotate the hint"
        );
    }
}
