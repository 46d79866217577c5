//! Theorem 5, executable: consensus terminates, agrees and is valid in a
//! system with a majority of correct processes and an (intermittent)
//! rotating t-star, even across leader crashes; and repeated consensus
//! yields identical logs at every correct replica.

use irs_consensus::{ConsensusConfig, ConsensusProcess, ReplicatedLog, Value};
use irs_sim::adversary::presets;
use irs_sim::adversary::star::{StarAdversary, StarConfig};
use irs_sim::adversary::DelayDist;
use irs_sim::{CrashPlan, SimConfig, Simulation};
use irs_types::{Duration, ProcessId, SystemConfig, Time};
use std::collections::BTreeSet;

fn system() -> SystemConfig {
    SystemConfig::new(5, 2).unwrap()
}

fn background() -> DelayDist {
    DelayDist::uniform(Duration::from_ticks(1), Duration::from_ticks(40))
}

fn consensus_processes(system: SystemConfig) -> Vec<ConsensusProcess<irs_omega::OmegaProcess>> {
    system
        .processes()
        .map(|id| {
            let mut p = ConsensusProcess::over_omega(id, system);
            p.propose(Value(1000 + id.as_u32() as u64));
            p
        })
        .collect()
}

fn assert_consensus_properties(
    sim: &Simulation<ConsensusProcess<irs_omega::OmegaProcess>, StarAdversary>,
    crashed: &[ProcessId],
) {
    let decisions: Vec<(ProcessId, Option<Value>)> = system()
        .processes()
        .filter(|p| !crashed.contains(p))
        .map(|p| (p, sim.process(p).decision()))
        .collect();
    // Termination: every live process decided.
    for (p, d) in &decisions {
        assert!(d.is_some(), "{p} did not decide");
    }
    // Agreement: all decisions are equal.
    let first = decisions[0].1.unwrap();
    for (p, d) in &decisions {
        assert_eq!(d.unwrap(), first, "{p} decided differently");
    }
    // Validity: the decision is one of the proposed values.
    assert!(
        (1000..1000 + system().n() as u64).contains(&first.0),
        "decided {first}"
    );
}

#[test]
fn consensus_under_a_prime_without_crashes() {
    let sys = system();
    let adversary = StarAdversary::new(StarConfig::a_prime(sys, ProcessId::new(3)), 5);
    let mut sim = Simulation::new(
        SimConfig::new(1, Time::from_ticks(400_000)),
        consensus_processes(sys),
        adversary,
        CrashPlan::new(),
    );
    sim.start();
    while sim.step() {
        if sys
            .processes()
            .all(|p| sim.is_crashed(p) || sim.process(p).decision().is_some())
        {
            break;
        }
    }
    assert_consensus_properties(&sim, &[]);
}

#[test]
fn consensus_survives_crash_of_initial_leader() {
    let sys = system();
    // The star centre is p5; the initially elected Ω leader (p1, smallest id)
    // crashes early, so the ballots it may have started must be superseded.
    let adversary = StarAdversary::new(StarConfig::a_prime(sys, ProcessId::new(4)), 9);
    let crashes = CrashPlan::new().crash(ProcessId::new(0), Time::from_ticks(2_000));
    let mut sim = Simulation::new(
        SimConfig::new(3, Time::from_ticks(600_000)),
        consensus_processes(sys),
        adversary,
        crashes,
    );
    sim.start();
    while sim.step() {
        if sys
            .processes()
            .all(|p| sim.is_crashed(p) || sim.process(p).decision().is_some())
        {
            break;
        }
    }
    assert_consensus_properties(&sim, &[ProcessId::new(0)]);
}

#[test]
fn consensus_under_intermittent_star() {
    let sys = system();
    let adversary = presets::intermittent_rotating_star(
        sys,
        ProcessId::new(2),
        Duration::from_ticks(8),
        4,
        background(),
        31,
    );
    let mut sim = Simulation::new(
        SimConfig::new(7, Time::from_ticks(600_000)),
        consensus_processes(sys),
        adversary,
        CrashPlan::new(),
    );
    sim.start();
    while sim.step() {
        if sys
            .processes()
            .all(|p| sim.is_crashed(p) || sim.process(p).decision().is_some())
        {
            break;
        }
    }
    assert_consensus_properties(&sim, &[]);
}

#[test]
fn replicated_log_converges_to_identical_prefixes() {
    let sys = system();
    let adversary = StarAdversary::new(StarConfig::a_prime(sys, ProcessId::new(1)), 13);
    let replicas: Vec<ReplicatedLog<irs_omega::OmegaProcess>> = sys
        .processes()
        .map(|id| {
            let mut r = ReplicatedLog::over_omega(id, sys);
            // Every replica submits two commands of its own.
            r.submit(Value(10 + id.as_u32() as u64));
            r.submit(Value(20 + id.as_u32() as u64));
            r
        })
        .collect();
    let mut sim = Simulation::new(
        SimConfig::new(11, Time::from_ticks(500_000)),
        replicas,
        adversary,
        CrashPlan::new(),
    );
    sim.start();
    // Run until every live replica has at least 3 log entries or the horizon.
    while sim.step() {
        let done = sys
            .processes()
            .all(|p| sim.is_crashed(p) || sim.process(p).log().len() >= 3);
        if done {
            break;
        }
    }
    let logs: Vec<Vec<Value>> = sys.processes().map(|p| sim.process(p).log()).collect();
    let min_len = logs.iter().map(|l| l.len()).min().unwrap();
    assert!(min_len >= 3, "logs too short: {logs:?}");
    // Total order: every pair of logs agrees on the common prefix.
    for log in &logs {
        assert_eq!(
            &log[..min_len],
            &logs[0][..min_len],
            "logs diverged: {logs:?}"
        );
    }
    // No duplicates within the common prefix.
    let mut seen = std::collections::BTreeSet::new();
    for v in &logs[0][..min_len] {
        assert!(seen.insert(*v), "duplicate {v} in log");
    }
}

// ---- The stable-reign fast path (phase-1 skip) ---------------------------

fn log_replicas(
    sys: SystemConfig,
    phase1_skip: bool,
) -> Vec<ReplicatedLog<irs_omega::OmegaProcess>> {
    sys.processes()
        .map(|id| {
            ReplicatedLog::new(
                id,
                ConsensusConfig::new(sys).with_phase1_skip(phase1_skip),
                irs_omega::OmegaProcess::fig3(id, sys),
            )
        })
        .collect()
}

/// A stable reign amortises one `PrepareReign` round over every later slot:
/// after convergence the leader opens slots with Accept-only rounds, and the
/// skip counter accounts for (nearly) every decided slot.
#[test]
fn stable_reign_skips_phase_one_for_later_slots() {
    let sys = system();
    let adversary = StarAdversary::new(StarConfig::a_prime(sys, ProcessId::new(1)), 13);
    let mut replicas = log_replicas(sys, true);
    for id in sys.processes() {
        replicas[id.index()].submit(Value(10 + id.as_u32() as u64));
        replicas[id.index()].submit(Value(20 + id.as_u32() as u64));
    }
    let mut sim = Simulation::new(
        SimConfig::new(11, Time::from_ticks(500_000)),
        replicas,
        adversary,
        CrashPlan::new(),
    );
    sim.start();
    while sim.step() {
        if sys.processes().all(|p| sim.process(p).log().len() >= 10) {
            break;
        }
    }
    let logs: Vec<Vec<Value>> = sys.processes().map(|p| sim.process(p).log()).collect();
    let min_len = logs.iter().map(|l| l.len()).min().unwrap();
    assert!(min_len >= 10, "logs too short: {logs:?}");
    for log in &logs {
        assert_eq!(&log[..min_len], &logs[0][..min_len], "logs diverged");
    }
    let skips: u64 = sys.processes().map(|p| sim.process(p).phase1_skips()).sum();
    let prepares: u64 = sys
        .processes()
        .map(|p| sim.process(p).reign_prepares())
        .sum();
    assert!(
        skips >= min_len as u64 / 2,
        "a stable reign should open most slots Accept-only (skips {skips} of {min_len} slots)"
    );
    assert!(
        prepares < min_len as u64,
        "reign prepares must amortise, not track slot count (prepares {prepares})"
    );
}

/// One run of the replicated log under an intermittent-rotating-star flicker
/// schedule and an optional crash. Returns whether every value submitted by
/// a never-crashed replica was decided at every live replica within the
/// horizon, plus each live replica's decided log.
fn flicker_run(
    phase1_skip: bool,
    seed: u64,
    centre: ProcessId,
    burst: u64,
    crash: Option<(ProcessId, u64)>,
) -> (bool, Vec<Vec<Value>>) {
    let sys = system();
    let adversary = presets::intermittent_rotating_star(
        sys,
        centre,
        Duration::from_ticks(burst),
        4,
        background(),
        seed ^ 0xA5A5,
    );
    let mut replicas = log_replicas(sys, phase1_skip);
    for id in sys.processes() {
        replicas[id.index()].submit(Value(100 * (1 + id.as_u32() as u64)));
        replicas[id.index()].submit(Value(100 * (1 + id.as_u32() as u64) + 1));
    }
    let mut crashes = CrashPlan::new();
    if let Some((p, at)) = crash {
        crashes = crashes.crash(p, Time::from_ticks(at));
    }
    let expected: BTreeSet<Value> = sys
        .processes()
        .filter(|p| crash.map(|(c, _)| c) != Some(*p))
        .flat_map(|p| {
            let base = 100 * (1 + p.as_u32() as u64);
            [Value(base), Value(base + 1)]
        })
        .collect();
    let mut sim = Simulation::new(
        SimConfig::new(seed, Time::from_ticks(800_000)),
        replicas,
        adversary,
        crashes,
    );
    sim.start();
    macro_rules! all_decided {
        () => {
            sys.processes().filter(|p| !sim.is_crashed(*p)).all(|p| {
                let log = sim.process(p).log();
                expected.iter().all(|v| log.contains(v))
            })
        };
    }
    let mut steps = 0u64;
    let mut done = false;
    while sim.step() {
        steps += 1;
        if steps.is_multiple_of(256) && all_decided!() {
            done = true;
            break;
        }
    }
    done = done || all_decided!();
    let logs = sys
        .processes()
        .filter(|p| !sim.is_crashed(*p))
        .map(|p| sim.process(p).log())
        .collect();
    (done, logs)
}

/// Agreement, total order, and no duplication within one run's live logs.
fn assert_safe(logs: &[Vec<Value>], label: &str) {
    let min_len = logs.iter().map(|l| l.len()).min().unwrap_or(0);
    for log in logs {
        assert_eq!(
            &log[..min_len],
            &logs[0][..min_len],
            "{label}: logs diverged: {logs:?}"
        );
    }
    let mut seen = BTreeSet::new();
    for v in &logs[0][..min_len] {
        assert!(seen.insert(*v), "{label}: duplicate {v} in log");
    }
}

mod skip_equivalence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The ISSUE's safety pin: for random request/crash/flicker
        /// schedules, the phase-1-skip build decides exactly what the
        /// per-slot-Prepare build decides — both runs satisfy agreement,
        /// total order and no-duplication, both terminate under the
        /// intermittent rotating star, and both decide every value submitted
        /// by a never-crashed replica. (Cross-run log *order* may differ —
        /// different message schedules elect leaders in different moments —
        /// but the decided *set* over surviving submitters is identical.)
        #[test]
        fn prop_skip_path_is_decision_equivalent_under_flicker(
            seed in 1u64..1_000_000,
            centre_raw in 0u32..5,
            burst in 4u64..24,
            crash_raw in 0u32..10,
            crash_at in 500u64..20_000,
        ) {
            let centre = ProcessId::new(centre_raw);
            // At most one crash (t = 2), never the star centre: a star
            // centred at a crashed process guarantees nothing, so liveness
            // would be unfalsifiable noise.
            let crash = (crash_raw < 5 && crash_raw != centre_raw)
                .then(|| (ProcessId::new(crash_raw), crash_at));
            let (done_skip, logs_skip) =
                flicker_run(true, seed, centre, burst, crash);
            let (done_slot, logs_slot) =
                flicker_run(false, seed, centre, burst, crash);
            assert_safe(&logs_skip, "phase1-skip build");
            assert_safe(&logs_slot, "per-slot build");
            prop_assert!(done_skip, "skip build missed decisions: {logs_skip:?}");
            prop_assert!(done_slot, "per-slot build missed decisions: {logs_slot:?}");
            // Decision equivalence over the surviving submitters' values.
            let survivors: BTreeSet<Value> = logs_skip[0]
                .iter()
                .chain(logs_slot[0].iter())
                .copied()
                .filter(|v| {
                    crash.is_none_or(|(c, _)| {
                        let base = 100 * (1 + c.as_u32() as u64);
                        v.0 != base && v.0 != base + 1
                    })
                })
                .collect();
            let decided_skip: BTreeSet<Value> = logs_skip[0].iter().copied().collect();
            let decided_slot: BTreeSet<Value> = logs_slot[0].iter().copied().collect();
            for v in &survivors {
                prop_assert!(decided_skip.contains(v), "skip build lost {v}");
                prop_assert!(decided_slot.contains(v), "per-slot build lost {v}");
            }
        }
    }
}

// ---- Leader-centric phase 2: its two single points of failure -------------

/// The owner's one announcement per slot — the note on its next `Accept`,
/// or a `Decide` — and the owner itself between quorum and announcement,
/// are the two things the all-to-all phase 2 had `n` copies of. These runs
/// take each away and require the log's standing recovery paths —
/// `Catchup`, the frontier advertisement, reign state transfer, WAL-restored
/// acceptances — to close the gap; the last one throws every fault at the
/// held announcements at once.
///
/// The harness is the simulator (Ω under a rotating star, virtual time)
/// with every replica wrapped in a [`Faulty`] host that applies `irs-net`'s
/// receive-side [`LinkModel`] to the *log* plane. Ω's own frames pass
/// untouched: its tolerance of lossy links is `irs-runtime`'s `faulty_link`
/// suite's subject, and an oracle that never settles would make the bounds
/// below measure Ω instead of the log.
mod leader_centric_faults {
    use super::*;
    use irs_consensus::{Batch, LogEvent, LogMsg, PaxosMsg};
    use irs_net::wire::decode_payload;
    use irs_net::{DutyCycle, Frame, LinkModel, ManualClock, Wire};
    use irs_omega::{OmegaMsg, OmegaProcess};
    use irs_types::{Actions, Introspect, LeaderOracle, Protocol, Snapshot, TimerId};
    use proptest::prelude::*;
    use std::borrow::Cow;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = ReplicatedLog<OmegaProcess>;
    type Msg = LogMsg<OmegaMsg, Value>;
    /// Written once, by the proposer that crashes: the slot and batch it had
    /// decided when it did.
    type Lost = Rc<RefCell<Option<(u64, Batch<Value>)>>>;

    /// A `PromiseReign` a replica released: the covered range, the reported
    /// `(slot, batch)` acceptances, and the slots it held decided then.
    struct Report {
        from: u64,
        accepted: Vec<(u64, Batch<Value>)>,
        frontier: u64,
    }

    /// One replica behind a faulty log plane, playing its own durable host.
    struct Faulty {
        log: Log,
        cfg: ConsensusConfig,
        link: LinkModel,
        /// Lose the first announcement that arrives for each slot — the
        /// owner's one `Decide`, or the note that stands in for it (the
        /// `Accept` under the note still arrives; a replay only comes once
        /// asked for).
        lose_announcements: bool,
        announced: BTreeSet<u64>,
        /// Crash in the handler in which this replica's own quorum decides
        /// for the k-th time: decision taken (a client could be acked from
        /// it), nothing sent, nothing announced.
        crash_at_decision: Option<usize>,
        own_decisions: usize,
        dead: bool,
        /// Also deliver what the link model echoes after an admitted frame:
        /// a duplicate, or a stale frame of the same link out of context.
        echo: bool,
        /// The host's state machine: the decided values applied in slot
        /// order, `cursor` slots of them.
        applied: Vec<Value>,
        cursor: u64,
        /// Compact the log behind the apply cursor whenever it is this many
        /// slots past the floor — in the very handler that decided them, so
        /// a held announcement's decision is gone before it is flushed.
        truncate_every: Option<u64>,
        /// Lose everything but the WAL at the first event after the
        /// proposer's crash (the oracle is kept: Ω is not under test).
        restart: bool,
        /// The WAL's length when this replica restarted from it.
        restarted_at: Option<usize>,
        /// Durability events, drained before each handler's sends leave.
        wal: Vec<LogEvent<Value>>,
        /// Reign promises released since the (re)start.
        reports: Vec<Report>,
        /// The slot and batch the crashed proposer had decided.
        lost: Lost,
    }

    impl Faulty {
        fn new(id: ProcessId, cfg: ConsensusConfig, link: LinkModel, lost: &Lost) -> Self {
            let mut log = Log::new(id, cfg, OmegaProcess::fig3(id, cfg.system));
            log.set_durable(true);
            Faulty {
                log,
                cfg,
                link,
                lose_announcements: false,
                announced: BTreeSet::new(),
                crash_at_decision: None,
                own_decisions: 0,
                dead: false,
                echo: false,
                applied: Vec::new(),
                cursor: 0,
                truncate_every: None,
                restart: false,
                restarted_at: None,
                wal: Vec::new(),
                reports: Vec::new(),
                lost: Rc::clone(lost),
            }
        }

        fn restart_from_wal(&mut self) {
            let (mut decisions, mut accepted) = (Vec::new(), Vec::new());
            for event in self.wal.iter().cloned() {
                match event {
                    LogEvent::Decided { slot, value } => decisions.push((slot, value)),
                    LogEvent::Accepted {
                        slot,
                        ballot,
                        value,
                    } => accepted.push((slot, ballot, value)),
                }
            }
            self.log = Log::recover(
                self.log.id(),
                self.cfg,
                self.log.oracle().clone(),
                None,
                decisions,
                accepted,
            );
            self.log.set_durable(true);
            self.restarted_at = Some(self.wal.len());
            self.reports.clear();
        }

        /// What the host delivers of this event, if anything.
        fn admits<'m>(&mut self, from: ProcessId, msg: &'m Msg) -> Option<Cow<'m, Msg>> {
            if self.dead {
                return None;
            }
            if self.restart && self.restarted_at.is_none() && self.lost.borrow().is_some() {
                self.restart_from_wal();
            }
            if matches!(msg, LogMsg::Omega(_)) {
                return Some(Cow::Borrowed(msg));
            }
            if !self.link.admits(from, self.log.id()) {
                return None;
            }
            match msg {
                LogMsg::Slot {
                    slot,
                    msg: PaxosMsg::Decide { .. },
                } if self.lose_announcements && self.announced.insert(*slot) => None,
                LogMsg::AcceptNoting {
                    slot,
                    b,
                    v,
                    noted_from,
                    noted_len,
                } if self.lose_announcements => {
                    let noted = *noted_from..noted_from + noted_len;
                    let first = noted.filter(|s| self.announced.insert(*s)).count() > 0;
                    Some(if first {
                        let (b, v) = (*b, v.clone());
                        Cow::Owned(LogMsg::Slot {
                            slot: *slot,
                            msg: PaxosMsg::Accept { b, v },
                        })
                    } else {
                        Cow::Borrowed(msg)
                    })
                }
                _ => Some(Cow::Borrowed(msg)),
            }
        }

        /// The frames the link delivers on top of an admitted `msg`. A
        /// `Forward` is left out: replaying one for a value whose slot was
        /// compacted away is a legitimate re-submission (deduplicating those
        /// is the host's session filter's job), and the run would never idle.
        fn echoes(&mut self, from: ProcessId, msg: &Msg) -> Vec<Msg> {
            if !self.echo || matches!(msg, LogMsg::Omega(_) | LogMsg::Forward { .. }) {
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

        /// Persist-before-send, then the crash point, the state machine and
        /// the bookkeeping. `vote` says the handler ran on an `Accepted`: a
        /// decision recorded in it is this replica's own quorum's.
        fn after(&mut self, vote: bool, out: &mut Actions<Msg>) {
            let events = self.log.take_wal_events();
            let decided_here = events.iter().find_map(|e| match e {
                LogEvent::Decided { slot, value } if vote => Some((*slot, value.clone())),
                _ => None,
            });
            self.wal.extend(events);
            if let Some(decided) = decided_here {
                if self.crash_at_decision == Some(self.own_decisions) {
                    self.dead = true;
                    *self.lost.borrow_mut() = Some(decided);
                    out.clear();
                    return;
                }
                self.own_decisions += 1;
            }
            if let Some((upto, blob)) = self.log.take_pending_install() {
                if upto > self.cursor {
                    self.applied = blob
                        .chunks_exact(8)
                        .map(|v| Value(u64::from_le_bytes(v.try_into().expect("8 bytes"))))
                        .collect();
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
                let blob: Vec<u8> = self
                    .applied
                    .iter()
                    .flat_map(|v| v.0.to_le_bytes())
                    .collect();
                self.log.truncate_below(self.cursor, blob);
            }
            for send in out.sends() {
                if let LogMsg::PromiseReign { from, accepted, .. } = &send.msg {
                    self.reports.push(Report {
                        from: *from,
                        accepted: accepted.iter().map(|(s, _, v)| (*s, v.clone())).collect(),
                        frontier: self.log.frontier_slot(),
                    });
                }
            }
        }
    }

    impl Protocol for Faulty {
        type Msg = Msg;

        fn id(&self) -> ProcessId {
            self.log.id()
        }

        fn on_start(&mut self, out: &mut Actions<Msg>) {
            self.log.on_start(out);
        }

        fn on_message(&mut self, from: ProcessId, msg: &Msg, out: &mut Actions<Msg>) {
            let Some(msg) = self.admits(from, msg) else {
                return;
            };
            let echoes = self.echoes(from, &msg);
            for msg in std::iter::once(&*msg).chain(&echoes) {
                if self.dead {
                    return;
                }
                let vote = matches!(
                    msg,
                    LogMsg::Slot {
                        msg: PaxosMsg::Accepted { .. },
                        ..
                    }
                );
                self.log.on_message(from, msg, out);
                self.after(vote, out);
            }
        }

        fn on_timer(&mut self, timer: TimerId, out: &mut Actions<Msg>) {
            if !self.dead {
                self.log.on_timer(timer, out);
                self.after(false, out);
            }
        }
    }

    impl LeaderOracle for Faulty {
        fn leader(&self) -> ProcessId {
            self.log.leader()
        }
    }

    impl Introspect for Faulty {
        fn snapshot(&self) -> Snapshot {
            self.log.snapshot()
        }
    }

    const CHECK_PERIOD: u64 = 80;

    fn cluster(
        seed: u64,
        loss_pct: u64,
        duty: Option<DutyCycle>,
        clock: &ManualClock,
    ) -> (Vec<Faulty>, Lost) {
        let cfg = ConsensusConfig::new(system()).with_phase1_skip(true);
        let link = LinkModel::new(seed).with_drop_prob(loss_pct as f64 / 100.0);
        cluster_with(cfg, link, duty, clock)
    }

    fn cluster_with(
        cfg: ConsensusConfig,
        link: LinkModel,
        duty: Option<DutyCycle>,
        clock: &ManualClock,
    ) -> (Vec<Faulty>, Lost) {
        let sys = system();
        assert_eq!(cfg.ballot_check_period.ticks(), CHECK_PERIOD);
        let lost = Rc::new(RefCell::new(None));
        let replicas = sys
            .processes()
            .map(|id| {
                let mut link = link.clone().with_manual_clock(clock.clone());
                if let Some(duty) = duty {
                    link = link.with_duty_cycle(duty);
                }
                Faulty::new(id, cfg, link, &lost)
            })
            .collect();
        (replicas, lost)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The only announcement of every slot — its note, else its
        /// `Decide` — is lost at an arbitrary subset of replicas, on top of
        /// per-link loss and one replica's B1931+24 style on/off schedule. Once the submitted values are all decided
        /// somewhere the system is idle — the lost `Decide`s include the
        /// one for the last slot — and every replica must still reach that
        /// same frontier within a bounded number of check periods.
        #[test]
        fn prop_a_lost_decide_is_recovered_within_bounded_check_periods(
            seed in 1u64..1_000_000,
            centre_raw in 0u32..5,
            deaf_mask in 0u32..32,
            loss_pct in 0u64..16,
            dark_raw in 0u32..5,
            duty_period in 300u64..2_000,
            duty_on_pct in 40u64..101,
        ) {
            let sys = system();
            let clock = ManualClock::new();
            let duty = DutyCycle {
                node: dark_raw,
                period: duty_period,
                on: duty_period * duty_on_pct / 100,
                phase: seed % duty_period,
            };
            let (mut replicas, _) = cluster(seed, loss_pct, Some(duty), &clock);
            let mut expected = BTreeSet::new();
            for (i, r) in replicas.iter_mut().enumerate() {
                r.lose_announcements = deaf_mask & (1 << i) != 0;
                for k in 0..2 {
                    let v = Value(100 * (1 + i as u64) + k);
                    r.log.submit(v);
                    expected.insert(v);
                }
            }
            let adversary = presets::intermittent_rotating_star(
                sys,
                ProcessId::new(centre_raw),
                Duration::from_ticks(12),
                4,
                background(),
                seed ^ 0xA5A5,
            );
            let mut sim = Simulation::new(
                SimConfig::new(seed, Time::from_ticks(800_000)),
                replicas,
                adversary,
                CrashPlan::new(),
            );
            sim.start();
            // Phase 1: until some replica holds every submitted value.
            let mut idle_since = None;
            while sim.step() {
                clock.set(sim.now().ticks());
                let complete = sys.processes().any(|p| {
                    let log = sim.process(p).log.log();
                    expected.iter().all(|v| log.contains(v))
                });
                if complete {
                    idle_since = Some(sim.now().ticks());
                    break;
                }
            }
            let idle_since = idle_since.expect("the values were never all decided");
            let frontier = sys
                .processes()
                .map(|p| sim.process(p).log.frontier_slot())
                .max()
                .unwrap();
            // Phase 2: nothing new is submitted. A replica learns of the
            // gap within a period (its own stalled frontier, or the idle
            // leader's advertisement), asks, and is answered 16 slots a
            // request; loss stretches that, and so does the longest dark
            // window (60% of 2 000 ticks = 15 periods). Over 8 000 cases the
            // worst run took 17 periods.
            let deadline = idle_since + 40 * CHECK_PERIOD;
            let converged = |sim: &Simulation<Faulty, _>| {
                sys.processes()
                    .all(|p| sim.process(p).log.frontier_slot() == frontier)
            };
            while !converged(&sim) && sim.now().ticks() < deadline && sim.step() {
                clock.set(sim.now().ticks());
            }
            let frontiers: Vec<u64> = sys
                .processes()
                .map(|p| sim.process(p).log.frontier_slot())
                .collect();
            prop_assert!(
                converged(&sim),
                "frontiers {frontiers:?} after {} check periods idle (target {frontier}); \
                 seed {seed}, deaf {deaf_mask:#b}, loss {loss_pct}%, duty {duty:?}",
                (sim.now().ticks() - idle_since) / CHECK_PERIOD
            );
            let logs: Vec<Vec<Value>> =
                sys.processes().map(|p| sim.process(p).log.log()).collect();
            assert_safe(&logs, "lost-Decide run");
            prop_assert!(logs.iter().all(|l| l.len() == logs[0].len()));
        }

        /// The proposer gathers its quorum, decides (a client could be
        /// acked from that handler) and crashes before any announcement —
        /// note or `Decide` — leaves;
        /// an arbitrary subset of the acceptors then restarts with nothing
        /// but its WAL. The next reign must decide that same batch in that
        /// slot, and a restarted acceptor that had voted for it must say so
        /// in its `PromiseReign`.
        #[test]
        fn prop_a_proposer_crash_before_its_decide_leaves_loses_nothing(
            seed in 1u64..1_000_000,
            crash_at_decision in 0usize..3,
            restart_mask in 0u32..32,
            loss_pct in 0u64..11,
        ) {
            let sys = system();
            let clock = ManualClock::new();
            let (mut replicas, lost) = cluster(seed, loss_pct, None, &clock);
            // Every fresh oracle points at p0 and the star is centred there,
            // so p0 is the first proposer and stays it until it crashes.
            replicas[0].crash_at_decision = Some(crash_at_decision);
            for (i, r) in replicas.iter_mut().enumerate() {
                r.restart = i != 0 && restart_mask & (1 << i) != 0;
                let own = if i == 0 { 4 } else { 1 };
                for k in 0..own {
                    r.log.submit(Value(100 * (1 + i as u64) + k));
                }
            }
            // With its centre gone the star guarantees nothing, but every
            // other link stays within `a_prime`'s 60-tick background bound,
            // which Ω's growing timeouts outlast: it elects again.
            let adversary =
                StarAdversary::new(StarConfig::a_prime(sys, ProcessId::new(0)), seed ^ 0x5A5A);
            let mut sim = Simulation::new(
                SimConfig::new(seed, Time::from_ticks(400_000)),
                replicas,
                adversary,
                CrashPlan::new(),
            );
            sim.start();
            let survivors = || sys.processes().skip(1);
            let redecided = |sim: &Simulation<Faulty, _>| {
                lost.borrow().as_ref().is_some_and(|(slot, _)| {
                    survivors().all(|p| sim.process(p).log.decision(*slot).is_some())
                })
            };
            while !redecided(&sim) && sim.step() {
                clock.set(sim.now().ticks());
            }
            let (slot, batch) = lost
                .borrow()
                .clone()
                .expect("p0 never reached its crash point");
            prop_assert!(sim.process(ProcessId::new(0)).dead);
            for p in survivors() {
                prop_assert_eq!(
                    sim.process(p).log.decision(slot),
                    Some(&batch),
                    "replica {} at slot {} after the next reign",
                    p,
                    slot
                );
            }
            let logs: Vec<Vec<Value>> =
                survivors().map(|p| sim.process(p).log.log()).collect();
            assert_safe(&logs, "proposer-crash run");
            // Restarted voters: the WAL held the vote, so every reign
            // promise covering the still-undecided slot reports it.
            for p in survivors() {
                let r = sim.process(p);
                prop_assert_eq!(r.restarted_at.is_some(), r.restart, "replica {}", p);
                let voted = r.wal[..r.restarted_at.unwrap_or(0)].iter().any(|e| {
                    matches!(e, LogEvent::Accepted { slot: s, value, .. }
                        if *s == slot && *value == batch)
                });
                if !voted {
                    continue;
                }
                for report in &r.reports {
                    if report.from <= slot && report.frontier <= slot {
                        prop_assert!(
                            report.accepted.iter().any(|(s, _)| *s == slot),
                            "replica {} promised a reign from {} without reporting slot {}",
                            p,
                            report.from,
                            slot
                        );
                    }
                }
            }
        }

        /// Held announcements under everything at once. Ω flickers under
        /// the intermittent rotating star and one replica may crash — the
        /// leader among them, between a quorum and its announcement — while
        /// the log plane loses, duplicates and replays stale frames (the
        /// star's delays reorder the rest), at window depth 1 or 4, and each
        /// host compacts its log in the very handler that decides, so a held
        /// announcement's decision is gone before its flush. Whatever carries
        /// a decision — a note, a flushed `Decide`, a replay, a snapshot —
        /// the live replicas' applied sequences never disagree, every slot
        /// decided anywhere ends up decided everywhere, and what the
        /// survivors submitted is in it. (A replica that installs a snapshot
        /// cannot tell which of its own queued submissions the snapshot
        /// covered; its forward window rotates past them, so it too is held
        /// to "everything I submitted was decided".)
        #[test]
        fn prop_every_decision_reaches_every_live_replica_whatever_carries_it(
            seed in 1u64..1_000_000,
            centre_raw in 0u32..5,
            burst in 4u64..24,
            crash_raw in 0u32..10,
            crash_at in 500u64..20_000,
            loss_pct in 0u64..11,
            dup_pct in 0u64..31,
            replay_pct in 0u64..21,
            deep in 0u8..2,
            truncate_every in 1u64..9,
        ) {
            const OWN: u64 = 6;
            let sys = system();
            let clock = ManualClock::new();
            let (batch_max, depth) = if deep == 1 { (2, 4) } else { (1, 1) };
            let cfg = ConsensusConfig::new(sys)
                .with_batching(batch_max, depth)
                .with_phase1_skip(true);
            let link = LinkModel::new(seed)
                .with_drop_prob(loss_pct as f64 / 100.0)
                .with_duplication(dup_pct as f64 / 100.0)
                .with_stale_replay(replay_pct as f64 / 100.0);
            let (mut replicas, _) = cluster_with(cfg, link, None, &clock);
            for (i, r) in replicas.iter_mut().enumerate() {
                r.echo = true;
                r.truncate_every = Some(truncate_every);
                for k in 0..OWN {
                    r.log.submit(Value(100 * (1 + i as u64) + k));
                }
            }
            // At most one crash (t = 2), never the star centre (see
            // `skip_equivalence`).
            let mut crashes = CrashPlan::new();
            if crash_raw < 5 && crash_raw != centre_raw {
                crashes = crashes.crash(ProcessId::new(crash_raw), Time::from_ticks(crash_at));
            }
            let adversary = presets::intermittent_rotating_star(
                sys,
                ProcessId::new(centre_raw),
                Duration::from_ticks(burst),
                4,
                background(),
                seed ^ 0xA5A5,
            );
            let mut sim = Simulation::new(
                SimConfig::new(seed, Time::from_ticks(800_000)),
                replicas,
                adversary,
                crashes,
            );
            sim.start();
            let live = |sim: &Simulation<Faulty, _>| -> Vec<ProcessId> {
                sys.processes().filter(|p| !sim.is_crashed(*p)).collect()
            };
            // What is still owed: the submissions of the live replicas,
            // minus what `applied` holds.
            let owed = |sim: &Simulation<Faulty, _>, applied: &[Value]| -> Vec<Value> {
                live(sim)
                    .into_iter()
                    .flat_map(|p| (0..OWN).map(move |k| Value(100 * (1 + p.index() as u64) + k)))
                    .filter(|v| !applied.contains(v))
                    .collect()
            };
            let settled = |sim: &Simulation<Faulty, _>| {
                let live = live(sim);
                let first = sim.process(live[0]);
                owed(sim, &first.applied).is_empty()
                    && live.iter().all(|p| {
                        let r = sim.process(*p);
                        r.applied == first.applied
                            && r.log.frontier_slot() == first.log.frontier_slot()
                    })
            };
            let mut steps = 0u64;
            let mut done = false;
            while !done && sim.step() {
                clock.set(sim.now().ticks());
                steps += 1;
                done = steps.is_multiple_of(64) && settled(&sim);
            }
            // Agreement holds at every moment, so also at the horizon.
            let live = live(&sim);
            let longest = live
                .iter()
                .map(|p| &sim.process(*p).applied)
                .max_by_key(|a| a.len())
                .expect("a live replica");
            for p in &live {
                let applied = &sim.process(*p).applied;
                prop_assert_eq!(
                    &applied[..],
                    &longest[..applied.len()],
                    "replica {} applied a different sequence",
                    p
                );
            }
            prop_assert!(
                done || settled(&sim),
                "never settled: frontiers {:?}, still owed {:?}; seed {seed}, centre {centre_raw}, \
                 burst {burst}, crash {crash_raw}@{crash_at}, loss {loss_pct}%, dup {dup_pct}%, \
                 replay {replay_pct}%, depth {depth}, truncate every {truncate_every}",
                live.iter().map(|p| sim.process(*p).log.frontier_slot()).collect::<Vec<_>>(),
                owed(&sim, longest)
            );
        }
    }
}
