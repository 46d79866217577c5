//! Four fixed `(seed, config)` runs of [`ReplicatedLog`] under the seeded
//! [`Simulation`], each reduced to one FNV-64 — the behaviour pin of the log.
//!
//! Shared by `tests/log_trace_digest.rs` (which asserts the constants) and
//! the workspace's `examples/trace_digest.rs` (which prints them for a
//! before/after diff). The digest covers, per live process in id order,
//! `log()`, `frontier_slot`, `compact_floor` and every gauge of
//! `snapshot().extra`, then the run's [`TraceCounters`]: `bytes_sent` sums
//! `estimated_size` over every frame in send order and every send draws from
//! the delay RNG, so an extra, missing or reordered frame moves it.
//!
//! Scenarios C and D put every replica behind a [`Host`] — the faulty log
//! plane of `theorem5.rs`'s `leader_centric_faults` harness, cut down to
//! what a digest needs: `irs-net`'s receive-side [`LinkModel`] on the log
//! frames (Ω's pass untouched), a state machine that applies, compacts and
//! installs, and a scripted client that submits on a schedule.

use irs_consensus::{ConsensusConfig, LogMsg, ReplicatedLog, Value};
use irs_net::wire::decode_payload;
use irs_net::{DutyCycle, Frame, LinkModel, ManualClock, Wire};
use irs_omega::{OmegaMsg, OmegaProcess};
use irs_sim::adversary::presets;
use irs_sim::adversary::star::{StarAdversary, StarConfig};
use irs_sim::adversary::{Adversary, DelayDist};
use irs_sim::{CrashPlan, SimConfig, Simulation};
use irs_types::{
    Actions, Duration, Fnv64, Introspect, LeaderOracle, ProcessId, Protocol, RoundTagged, Snapshot,
    SystemConfig, Time, TimerId,
};
use std::collections::{BTreeSet, VecDeque};

pub type Log = ReplicatedLog<OmegaProcess>;
type Msg = LogMsg<OmegaMsg, Value>;

fn system() -> SystemConfig {
    SystemConfig::new(5, 2).expect("n = 5, t = 2")
}

fn background() -> DelayDist {
    DelayDist::uniform(Duration::from_ticks(1), Duration::from_ticks(40))
}

/// The digest of a run: every live replica's visible state, then the trace.
fn digest<P, A>(sim: &Simulation<P, A>, log_of: impl Fn(&P) -> &Log) -> u64
where
    P: Protocol + Introspect,
    P::Msg: RoundTagged,
    A: Adversary<P::Msg>,
{
    let mut h = Fnv64::new();
    let mut word = |w: u64| h.write(&w.to_le_bytes());
    for p in system().processes().filter(|p| !sim.is_crashed(*p)) {
        let log = log_of(sim.process(p));
        let decided = log.log();
        word(decided.len() as u64);
        decided.iter().for_each(|v| word(v.0));
        word(log.frontier_slot());
        word(log.compact_floor());
        for (name, value) in log.snapshot().extra {
            word(Fnv64::digest_of(name.as_bytes()));
            word(value);
        }
    }
    let c = sim.trace().counters;
    for w in [
        c.messages_sent,
        c.messages_delivered,
        c.dropped_to_crashed,
        c.constrained_sent,
        c.other_sent,
        c.bytes_sent,
        c.timers_set,
        c.timer_fires,
        c.crashes,
        c.messages_held,
        c.gate_deadline_releases,
    ] {
        word(w);
    }
    h.finish()
}

/// (A) A stable reign: the star is centred at p0, which every fresh oracle
/// names, so p0 leads throughout. Batch 8 × depth 4 with the phase-1 skip;
/// 400 values submitted at the leader and 40 at follower p3.
pub fn stable_reign() -> u64 {
    let sys = system();
    let cfg = ConsensusConfig::new(sys)
        .with_batching(8, 4)
        .with_phase1_skip(true);
    let mut replicas: Vec<Log> = sys
        .processes()
        .map(|id| Log::new(id, cfg, OmegaProcess::fig3(id, sys)))
        .collect();
    (0..400).for_each(|v| replicas[0].submit(Value(1_000 + v)));
    (0..40).for_each(|v| replicas[3].submit(Value(4_000 + v)));
    let adversary = StarAdversary::new(StarConfig::a_prime(sys, ProcessId::new(0)), 17);
    let mut sim = Simulation::new(
        SimConfig::new(23, Time::from_ticks(40_000)),
        replicas,
        adversary,
        CrashPlan::new(),
    );
    sim.run();
    assert!(
        sys.processes().all(|p| sim.process(p).log().len() == 440),
        "scenario A no longer decides everything it submits"
    );
    digest(&sim, |log| log)
}

/// (B) `theorem5.rs`'s `flicker_run` at one fixed tuple: Ω flickers under
/// the intermittent rotating star centred at p2 (bursts of 12 ticks), two
/// values per replica, p1 crashed at tick 6 000; run until every surviving
/// submitter's values are decided at every live replica.
pub fn flicker(phase1_skip: bool) -> u64 {
    const SEED: u64 = 4_242;
    let sys = system();
    let crashed = ProcessId::new(1);
    let adversary = presets::intermittent_rotating_star(
        sys,
        ProcessId::new(2),
        Duration::from_ticks(12),
        4,
        background(),
        SEED ^ 0xA5A5,
    );
    let own = |p: ProcessId| {
        let base = 100 * (1 + u64::from(p.as_u32()));
        [Value(base), Value(base + 1)]
    };
    let replicas: Vec<Log> = sys
        .processes()
        .map(|id| {
            let cfg = ConsensusConfig::new(sys).with_phase1_skip(phase1_skip);
            let mut log = Log::new(id, cfg, OmegaProcess::fig3(id, sys));
            own(id).into_iter().for_each(|v| log.submit(v));
            log
        })
        .collect();
    let expected: BTreeSet<Value> = sys
        .processes()
        .filter(|p| *p != crashed)
        .flat_map(own)
        .collect();
    let mut sim = Simulation::new(
        SimConfig::new(SEED, Time::from_ticks(800_000)),
        replicas,
        adversary,
        CrashPlan::new().crash(crashed, Time::from_ticks(6_000)),
    );
    sim.start();
    let all_decided = |sim: &Simulation<Log, StarAdversary>| {
        sys.processes().filter(|p| !sim.is_crashed(*p)).all(|p| {
            let log = sim.process(p).log();
            expected.iter().all(|v| log.contains(v))
        })
    };
    let mut steps = 0u64;
    while sim.step() {
        steps += 1;
        if steps.is_multiple_of(256) && all_decided(&sim) {
            break;
        }
    }
    assert!(all_decided(&sim), "scenario B no longer terminates");
    digest(&sim, |log| log)
}

/// One replica behind a faulty log plane, playing its own host.
pub struct Host {
    log: Log,
    link: LinkModel,
    clock: ManualClock,
    /// What this replica's client submits: `(due tick, value)`, in order.
    script: VecDeque<(u64, Value)>,
    /// The state machine: the decided values applied in slot order,
    /// `cursor` slots of them.
    applied: Vec<Value>,
    cursor: u64,
    /// Compact the log behind the apply cursor whenever it is this many
    /// slots past the floor, in the very handler that decided them.
    truncate_every: Option<u64>,
    /// Exported snapshots are zero-padded to at least this many bytes.
    pad_to: usize,
}

impl Host {
    /// Submits what has fallen due. The clock is the simulator's, as of the
    /// previous event.
    fn submit_due(&mut self) {
        while self
            .script
            .front()
            .is_some_and(|(due, _)| *due <= self.clock.now())
        {
            let (_, v) = self.script.pop_front().expect("front checked");
            self.log.submit(v);
        }
    }

    /// What the link delivers on top of an admitted `msg`: a duplicate, a
    /// stale frame of the same link. A `Forward` is never echoed (a replayed
    /// one for a compacted value is a legitimate re-submission, and the run
    /// would never idle).
    fn echoes(&mut self, from: ProcessId, msg: &Msg) -> Vec<Msg> {
        if matches!(msg, LogMsg::Forward { .. }) {
            return Vec::new();
        }
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        let frame = Frame {
            from,
            to: self.log.id(),
            payload: payload.into(),
        };
        let echoed = self.link.echoes(&frame);
        echoed
            .iter()
            .map(|f| decode_payload(&f.payload).expect("the link echoes what it was given"))
            .collect()
    }

    /// The host's half of a turn: install, apply, compact.
    fn settle(&mut self) {
        if let Some((upto, blob)) = self.log.take_pending_install() {
            if upto > self.cursor {
                let word = |i: usize| {
                    u64::from_le_bytes(blob[8 * i..8 * i + 8].try_into().expect("8 bytes"))
                };
                self.applied = (1..=word(0) as usize).map(|i| Value(word(i))).collect();
                self.cursor = upto;
                self.log.complete_install(upto, blob);
            }
        }
        while let Some(batch) = self.log.decision(self.cursor) {
            self.applied.extend(batch.iter().copied());
            self.cursor += 1;
        }
        if self
            .truncate_every
            .is_some_and(|k| self.cursor >= self.log.compact_floor() + k)
        {
            let mut blob = (self.applied.len() as u64).to_le_bytes().to_vec();
            blob.extend(self.applied.iter().flat_map(|v| v.0.to_le_bytes()));
            blob.resize(blob.len().max(self.pad_to), 0);
            self.log.truncate_below(self.cursor, blob);
        }
    }
}

impl Protocol for Host {
    type Msg = Msg;

    fn id(&self) -> ProcessId {
        self.log.id()
    }

    fn on_start(&mut self, out: &mut Actions<Msg>) {
        self.log.on_start(out);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Msg, out: &mut Actions<Msg>) {
        self.submit_due();
        if matches!(msg, LogMsg::Omega(_)) {
            self.log.on_message(from, msg, out);
            return;
        }
        if !self.link.admits(from, self.log.id()) {
            return;
        }
        let echoes = self.echoes(from, msg);
        for msg in std::iter::once(msg).chain(&echoes) {
            self.log.on_message(from, msg, out);
            self.settle();
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Actions<Msg>) {
        self.submit_due();
        self.log.on_timer(timer, out);
        self.settle();
    }
}

impl LeaderOracle for Host {
    fn leader(&self) -> ProcessId {
        self.log.leader()
    }
}

impl Introspect for Host {
    fn snapshot(&self) -> Snapshot {
        self.log.snapshot()
    }
}

/// The run C and D share: batch 2 × depth 4 with the phase-1 skip under the
/// intermittent rotating star centred at p2; the log plane loses 5 %,
/// duplicates 10 % and replays stale frames after 10 % of what it admits;
/// every replica's client submits `own` values, one per 150 ticks; the
/// first leader p0 crashes at tick 5 000. Returns the digest and p4's
/// `snapshot_installs`.
fn lossy_run(
    seed: u64,
    own: u64,
    horizon: u64,
    truncate_every: Option<u64>,
    pad_to: usize,
    dark: Option<DutyCycle>,
) -> (u64, u64) {
    let sys = system();
    let clock = ManualClock::new();
    let cfg = ConsensusConfig::new(sys)
        .with_batching(2, 4)
        .with_phase1_skip(true);
    let hosts: Vec<Host> = sys
        .processes()
        .map(|id| {
            let mut link = LinkModel::new(seed)
                .with_drop_prob(0.05)
                .with_duplication(0.10)
                .with_stale_replay(0.10)
                .with_manual_clock(clock.clone());
            if let Some(duty) = dark {
                link = link.with_duty_cycle(duty);
            }
            let base = 1_000 * (1 + u64::from(id.as_u32()));
            Host {
                log: Log::new(id, cfg, OmegaProcess::fig3(id, sys)),
                link,
                clock: clock.clone(),
                script: (0..own).map(|k| (150 * k, Value(base + k))).collect(),
                applied: Vec::new(),
                cursor: 0,
                truncate_every,
                pad_to,
            }
        })
        .collect();
    let adversary = presets::intermittent_rotating_star(
        sys,
        ProcessId::new(2),
        Duration::from_ticks(12),
        4,
        background(),
        seed ^ 0xA5A5,
    );
    let mut sim = Simulation::new(
        SimConfig::new(seed, Time::from_ticks(horizon)),
        hosts,
        adversary,
        CrashPlan::new().crash(ProcessId::new(0), Time::from_ticks(5_000)),
    );
    sim.start();
    while sim.step() {
        clock.set(sim.now().ticks());
    }
    let live: Vec<&Host> = (1..5).map(|i| sim.process(ProcessId::new(i))).collect();
    for host in &live {
        assert_eq!(
            host.log.frontier_slot(),
            live[0].log.frontier_slot(),
            "the lossy run no longer converges"
        );
        assert_eq!(host.applied, live[0].applied);
        assert!(host.script.is_empty());
    }
    let installs = live[3].log.snapshot().gauge("snapshot_installs");
    (
        digest(&sim, |host| &host.log),
        installs.expect("a log gauge"),
    )
}

/// (C) Loss, duplication and stale replay at depth 4 across a leader crash.
pub fn lossy_crash() -> u64 {
    lossy_run(77, 40, 30_000, None, 0, None).0
}

/// (D) C with every host compacting three slots behind its cursor and p4
/// held dark from tick 2 000 to tick 22 000 — long enough that what it
/// missed is compacted away everywhere and only a snapshot brings it back.
/// `pad_to` sizes the exported blob (under or over one snapshot chunk).
pub fn lossy_crash_with_install(pad_to: usize) -> u64 {
    let dark = DutyCycle {
        node: 4,
        period: 100_000,
        on: 80_000,
        phase: 78_000,
    };
    let (digest, installs) = lossy_run(78, 120, 60_000, Some(3), pad_to, Some(dark));
    assert!(installs > 0, "scenario D no longer needs an install");
    digest
}
