//! The discrete-event simulation engine.
//!
//! A [`Simulation`] owns `n` protocol instances, an [`Adversary`] that decides
//! message delays, a [`CrashPlan`], and a time-ordered [`EventQueue`]. It
//! repeatedly pops the earliest event, hands it to the affected protocol
//! instance, and schedules whatever that instance asked for. Everything is
//! deterministic for a given `(seed, configuration)` pair.
//!
//! Besides driving the protocols, the engine implements the *winning-message
//! gate*: when the adversary answers [`Delivery::AfterStar`] for a message,
//! the engine holds it until the star-centre message of the same
//! `(receiver, round)` key has been delivered, guaranteeing the centre's
//! `ALIVE(rn)` is received first (and hence among the first `n − t`).
//!
//! # Hot-path layout
//!
//! The protocols are broadcast-heavy — every receiving round each process
//! sends `ALIVE(rn, susp)` to all `n − 1` peers — so the engine is organised
//! to make the per-message cost independent of the payload and of `n`:
//!
//! * **Shared payloads.** [`Event::Deliver`] and the gate's hold buffer carry
//!   `Rc<P::Msg>`. A broadcast allocates the payload once in
//!   [`apply_actions`](Simulation) and fans out pointer clones; receivers get
//!   the payload by reference ([`Protocol::on_message`] takes `&Msg`), so a
//!   round of `n` broadcasts costs `n` allocations instead of `n²` deep
//!   `SuspVector` clones.
//! * **Dense per-process state.** Timer generations live in a
//!   [`TimerGens`] — a plain `Vec<u64>` indexed by the (small, enumerable)
//!   raw timer id, not a `HashMap`. The winning-message gate keys `(receiver, round)` live in a
//!   per-receiver ring of recent rounds — sized by
//!   [`SimConfig::gate_window`] and allocated lazily the first time the
//!   adversary gates a message to that receiver, so an ungated receiver (or
//!   a whole ungated run) costs no gate memory even at `n = 256` — and held
//!   messages live in a token-checked slab whose deadline-release events
//!   keep links reliable even if a ring slot is recycled.
//! * **O(1) agreement tracking.** The system-wide leader agreement is
//!   maintained as per-candidate live vote counts: a process changing its
//!   `leader()` output moves one vote and compares one count against the
//!   live-process total, instead of rescanning all `n` processes on every
//!   change (the full scan survives only at start-up and on the ≤ `t`
//!   crashes of a run).
//! * **O(1) event queue.** The queue is a hierarchical timing wheel (see
//!   [`EventQueue`]): pushes and pops are constant-time slot operations and
//!   the `O(n²)` same-instant broadcast bursts share FIFO buckets, where a
//!   binary heap would pay `O(log len)` element moves per message.

use crate::adversary::{Adversary, Delivery};
use crate::crash::CrashPlan;
use crate::event::{Event, EventQueue, TimerGens};
use crate::rng::SimRng;
use crate::trace::{LeaderChange, Trace, TraceCounters};
use irs_types::{
    Actions, Destination, Duration, Introspect, ProcessId, Protocol, RoundNum, RoundTagged,
    Snapshot, Time, TimerRequest,
};
use std::rc::Rc;
/// Static parameters of one simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Seed of the engine's random number generator (delays, jitter).
    pub seed: u64,
    /// The run stops when simulated time would exceed this horizon.
    pub horizon: Time,
    /// How many recent rounds of winning-message-gate state are kept per
    /// receiver (the ring size of [`GATE_WINDOW`]-style slots). The default
    /// is ample for every adversary in this workspace; larger values only
    /// matter if an adversary spreads a round's sends across more rounds of
    /// simultaneous gate activity than this.
    pub gate_window: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            horizon: Time::from_ticks(1_000_000),
            gate_window: GATE_WINDOW,
        }
    }
}

impl SimConfig {
    /// Creates a configuration with the given seed and horizon.
    pub fn new(seed: u64, horizon: Time) -> Self {
        SimConfig {
            seed,
            horizon,
            gate_window: GATE_WINDOW,
        }
    }

    /// Overrides the per-receiver gate-ring size (clamped to at least 1).
    #[must_use]
    pub fn with_gate_window(mut self, slots: usize) -> Self {
        self.gate_window = slots.max(1);
        self
    }
}

/// The final agreement reached by a run, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stabilization {
    /// The commonly elected (and still live) leader.
    pub leader: ProcessId,
    /// The time of the *last* change of the agreement state — i.e. the
    /// moment from which the leadership was never disturbed again within the
    /// run.
    pub at: Time,
}

/// Everything an experiment needs to know about a finished run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Simulated time when the run stopped.
    pub final_time: Time,
    /// Aggregate counters.
    pub counters: TraceCounters,
    /// Every transition of the system-wide leader agreement.
    pub leader_history: Vec<LeaderChange>,
    /// The final stable agreement, if the run ended with all live processes
    /// agreeing on a live leader.
    pub stabilization: Option<Stabilization>,
    /// Final snapshot of every process (`None` for crashed processes).
    pub final_snapshots: Vec<Option<Snapshot>>,
    /// Processes that crashed during the run.
    pub crashed: Vec<ProcessId>,
    /// The adversary's description, for experiment tables.
    pub adversary: String,
}

impl SimReport {
    /// Returns `true` if the run ended with a stable, live, common leader.
    pub fn is_stable(&self) -> bool {
        self.stabilization.is_some()
    }

    /// The stabilisation time in ticks (`None` if the run did not stabilise).
    pub fn stabilization_ticks(&self) -> Option<u64> {
        self.stabilization.map(|s| s.at.ticks())
    }

    /// The largest suspicion level across all live processes at the end.
    pub fn max_final_susp_level(&self) -> u64 {
        self.final_snapshots
            .iter()
            .flatten()
            .map(|s| s.max_susp_level())
            .max()
            .unwrap_or(0)
    }
}

/// Default number of recent rounds of gate state kept per receiver
/// (overridable through [`SimConfig::with_gate_window`]).
///
/// Every send of a round-`rn` `ALIVE` happens at that round's broadcast
/// instant (the periodic timers of all processes fire in lockstep), so the
/// gate state of a key `(receiver, rn)` is only ever *consulted* at that one
/// instant; 64 rounds of slack is far beyond anything the adversaries
/// produce. Held messages whose slot is recycled are still delivered by
/// their deadline-release event — the window bounds memory, not reliability.
const GATE_WINDOW: usize = 64;

/// A message held by the winning-message gate, waiting in the hold slab.
struct HeldMsg<M> {
    token: u64,
    from: ProcessId,
    to: ProcessId,
    msg: Rc<M>,
    slack: Duration,
    /// When the message must be delivered even if the gate never opens.
    deadline_at: Time,
}

/// Gate state of one `(receiver, round)` key: the scheduled star-centre
/// delivery time and the slab indices of messages held behind it.
struct GateSlot {
    rn: RoundNum,
    star_at: Option<Time>,
    held: Vec<u32>,
    /// The earliest pending [`Event::ReleaseGate`] sweep for this slot's
    /// current round (`None` = no sweep pending). One sweep covers every
    /// message the slot holds, so a round that holds thousands of messages
    /// (every non-centre sender at a winning point, at large `n`) schedules
    /// one deadline event, not thousands. A message held later with an
    /// *earlier* deadline arms an additional, earlier sweep, so every
    /// message is still released no later than its own deadline even when an
    /// adversary hands out heterogeneous deadlines on one slot.
    sweep_at: Option<Time>,
}

impl GateSlot {
    fn vacant() -> Self {
        GateSlot {
            rn: RoundNum::ZERO,
            star_at: None,
            held: Vec::new(),
            sweep_at: None,
        }
    }
}

struct ProcSlot<P> {
    proto: P,
    crashed: bool,
    timer_gens: TimerGens,
    last_leader: ProcessId,
}

/// A deterministic discrete-event simulation of `n` protocol instances under
/// a programmable adversary.
///
/// # Example
///
/// See the crate-level documentation of `irs-omega` and the `quickstart`
/// example of the workspace root; constructing a simulation requires a
/// protocol implementation, which this crate deliberately does not provide.
pub struct Simulation<P, A>
where
    P: Protocol + Introspect,
    P::Msg: RoundTagged,
    A: Adversary<P::Msg>,
{
    horizon: Time,
    now: Time,
    queue: EventQueue<Rc<P::Msg>>,
    procs: Vec<ProcSlot<P>>,
    adversary: A,
    rng: SimRng,
    trace: Trace,
    /// Winning-message gate state: per receiver, a ring of the
    /// `gate_window` most recent rounds. Rings are allocated lazily, the
    /// first time the adversary gates a message to that receiver — an
    /// ungated run (or receiver) costs no gate memory at all, which matters
    /// once `n` reaches the hundreds.
    gates: Vec<Option<Box<[GateSlot]>>>,
    gate_window: usize,
    /// `live_votes[l]` = number of live processes whose `leader()` output is
    /// currently `l`. Together with `live_count` this makes the system-wide
    /// agreement check O(1) per leader change (a full O(n) rescan happens
    /// only on a crash), where the seed engine rescanned all `n` processes
    /// on every change.
    live_votes: Vec<u32>,
    live_count: u32,
    /// Slab of held messages, indexed by the `slot` of
    /// [`Event::ReleaseHeld`]; `None` entries are free.
    held_slab: Vec<Option<HeldMsg<P::Msg>>>,
    /// Free slots of `held_slab`.
    held_free: Vec<u32>,
    next_token: u64,
    crash_plan: CrashPlan,
    started: bool,
    /// Reusable action buffer: one per engine, so the per-event callback
    /// costs no allocation once its capacity has warmed up.
    scratch: Actions<P::Msg>,
    /// Optional flight recorder; events are stamped with virtual-clock
    /// ticks, so identical `(seed, config)` runs record identical streams.
    recorder: Option<std::sync::Arc<irs_obs::FlightRecorder>>,
}

impl<P, A> core::fmt::Debug for Simulation<P, A>
where
    P: Protocol + Introspect,
    P::Msg: RoundTagged,
    A: Adversary<P::Msg>,
{
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("n", &self.procs.len())
            .field("pending_events", &self.queue.len())
            .field("adversary", &self.adversary.describe())
            .finish_non_exhaustive()
    }
}

impl<P, A> Simulation<P, A>
where
    P: Protocol + Introspect,
    P::Msg: RoundTagged,
    A: Adversary<P::Msg>,
{
    /// Creates a simulation over the given protocol instances.
    ///
    /// `processes[i]` must be the instance whose `id()` is `ProcessId(i)`.
    ///
    /// # Panics
    ///
    /// Panics if the instances' ids are not `0..n` in order.
    pub fn new(config: SimConfig, processes: Vec<P>, adversary: A, crashes: CrashPlan) -> Self {
        for (i, p) in processes.iter().enumerate() {
            assert_eq!(
                p.id(),
                ProcessId::new(i as u32),
                "process at index {i} reports id {}",
                p.id()
            );
        }
        let n = processes.len();
        let procs: Vec<ProcSlot<P>> = processes
            .into_iter()
            .map(|p| {
                let last_leader = p.leader();
                ProcSlot {
                    proto: p,
                    crashed: false,
                    timer_gens: TimerGens::default(),
                    last_leader,
                }
            })
            .collect();
        let mut live_votes = vec![0u32; n];
        for slot in &procs {
            if let Some(v) = live_votes.get_mut(slot.last_leader.index()) {
                *v += 1;
            }
        }
        Simulation {
            horizon: config.horizon,
            now: Time::ZERO,
            queue: EventQueue::new(),
            procs,
            adversary,
            rng: SimRng::from_seed(config.seed),
            trace: Trace::default(),
            gates: (0..n).map(|_| None).collect(),
            gate_window: config.gate_window.max(1),
            live_votes,
            live_count: n as u32,
            held_slab: Vec::new(),
            held_free: Vec::new(),
            next_token: 0,
            crash_plan: crashes,
            started: false,
            scratch: Actions::new(),
            recorder: None,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Read access to a protocol instance (even if crashed, its last state is
    /// observable).
    pub fn process(&self, pid: ProcessId) -> &P {
        &self.procs[pid.index()].proto
    }

    /// Returns `true` if the process has crashed.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.procs[pid.index()].crashed
    }

    /// The run trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The leader currently agreed on by every live process, if any.
    pub fn agreed_leader(&self) -> Option<ProcessId> {
        self.trace.current_agreement()
    }

    /// Starts the run (idempotent): invokes `on_start` on every process and
    /// schedules the crash plan.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let crashes: Vec<_> = self.crash_plan.iter().collect();
        for (pid, at) in crashes {
            if pid.index() < self.procs.len() {
                self.queue.push(at, Event::Crash { pid });
            }
        }
        for i in 0..self.procs.len() {
            let pid = ProcessId::new(i as u32);
            let mut out = std::mem::take(&mut self.scratch);
            self.procs[i].proto.on_start(&mut out);
            self.after_callback(pid, &mut out);
            self.scratch = out;
        }
        self.refresh_agreement();
    }

    /// Processes the next event. Returns `false` when the queue is empty or
    /// the horizon has been reached.
    pub fn step(&mut self) -> bool {
        self.start();
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        if at > self.horizon {
            self.now = self.horizon;
            return false;
        }
        self.now = at;
        match event {
            Event::Deliver { from, to, msg } => {
                if self.procs[to.index()].crashed {
                    self.trace.counters.dropped_to_crashed += 1;
                } else {
                    self.trace.counters.messages_delivered += 1;
                    let mut out = std::mem::take(&mut self.scratch);
                    self.procs[to.index()]
                        .proto
                        .on_message(from, &msg, &mut out);
                    self.after_callback(to, &mut out);
                    self.scratch = out;
                }
            }
            Event::TimerFire {
                pid,
                timer,
                generation,
            } => {
                let slot = &mut self.procs[pid.index()];
                if slot.crashed {
                    return true;
                }
                if slot.timer_gens.current(timer) != generation {
                    return true; // superseded or cancelled
                }
                self.trace.counters.timer_fires += 1;
                let mut out = std::mem::take(&mut self.scratch);
                slot.proto.on_timer(timer, &mut out);
                self.after_callback(pid, &mut out);
                self.scratch = out;
            }
            Event::Crash { pid } => {
                if !self.procs[pid.index()].crashed {
                    self.procs[pid.index()].crashed = true;
                    self.trace.counters.crashes += 1;
                    // Retire the crashed process's vote; agreement may now
                    // form among the remaining live processes.
                    let voted = self.procs[pid.index()].last_leader;
                    if let Some(v) = self.live_votes.get_mut(voted.index()) {
                        *v -= 1;
                    }
                    self.live_count -= 1;
                    self.refresh_agreement();
                }
            }
            Event::ReleaseHeld { slot, token } => {
                let matches = self
                    .held_slab
                    .get(slot as usize)
                    .is_some_and(|e| e.as_ref().is_some_and(|h| h.token == token));
                if matches {
                    let h = self.free_held(slot);
                    self.trace.counters.gate_deadline_releases += 1;
                    self.queue.push(
                        self.now,
                        Event::Deliver {
                            from: h.from,
                            to: h.to,
                            msg: h.msg,
                        },
                    );
                }
            }
            Event::ReleaseGate { to, rn } => {
                // Sweep the slot if it still tracks `rn` (a recycled slot's
                // displaced messages carry their own release events). In the
                // common case — the star message opened the gate within the
                // same instant — the slot holds nothing and this is the only
                // residual cost of the whole round's held messages.
                let window = self.gate_window;
                let held = match self.gates[to.index()].as_mut() {
                    Some(ring) => {
                        let slot = &mut ring[(rn.value() % window as u64) as usize];
                        if slot.rn == rn && !slot.held.is_empty() {
                            std::mem::take(&mut slot.held)
                        } else {
                            if slot.rn == rn {
                                slot.sweep_at = None;
                            }
                            Vec::new()
                        }
                    }
                    None => Vec::new(),
                };
                if held.is_empty() {
                    return true;
                }
                // Release what is due; keep the rest and re-arm the sweep at
                // the earliest remaining deadline, so every message is still
                // delivered at exactly its own deadline tick.
                let mut remaining: Vec<u32> = Vec::new();
                let mut next_deadline: Option<Time> = None;
                for idx in held {
                    let due = self.held_slab[idx as usize]
                        .as_ref()
                        .map(|h| h.deadline_at)
                        .expect("held list entries are live");
                    if due <= self.now {
                        let h = self.free_held(idx);
                        self.trace.counters.gate_deadline_releases += 1;
                        self.queue.push(
                            self.now,
                            Event::Deliver {
                                from: h.from,
                                to: h.to,
                                msg: h.msg,
                            },
                        );
                    } else {
                        next_deadline = Some(next_deadline.map_or(due, |d| d.min(due)));
                        remaining.push(idx);
                    }
                }
                if let Some(ring) = self.gates[to.index()].as_mut() {
                    let slot = &mut ring[(rn.value() % window as u64) as usize];
                    if slot.rn == rn {
                        slot.held = remaining;
                        slot.sweep_at = next_deadline;
                        if let Some(at) = next_deadline {
                            self.queue.push(at, Event::ReleaseGate { to, rn });
                        }
                    }
                }
            }
        }
        true
    }

    /// Attaches a flight recorder; from now on every Ω leader change
    /// observed by the engine is recorded as a
    /// [`irs_obs::EventKind::LeaderChange`] event stamped with the
    /// virtual clock (ticks). Determinism is preserved: the recorder
    /// never reads wall time.
    pub fn attach_recorder(&mut self, recorder: std::sync::Arc<irs_obs::FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Runs until the horizon (or until no event is pending) and reports.
    pub fn run(&mut self) -> SimReport {
        self.start();
        while self.step() {}
        self.report()
    }

    /// Runs until the live processes have agreed on a live leader and that
    /// agreement has not changed for `quiet` ticks, or until the horizon.
    pub fn run_until_stable_for(&mut self, quiet: Duration) -> SimReport {
        self.start();
        loop {
            if !self.step() {
                break;
            }
            if let (Some(leader), Some(changed_at)) =
                (self.trace.current_agreement(), self.trace.last_change_at())
            {
                if !self.procs[leader.index()].crashed
                    && self.now.saturating_since(changed_at) >= quiet
                {
                    break;
                }
            }
        }
        self.report()
    }

    /// Builds the report for the current state of the run.
    pub fn report(&self) -> SimReport {
        let stabilization = match (self.trace.current_agreement(), self.trace.last_change_at()) {
            (Some(leader), Some(at))
                if leader.index() < self.procs.len() && !self.procs[leader.index()].crashed =>
            {
                Some(Stabilization { leader, at })
            }
            _ => None,
        };
        SimReport {
            final_time: self.now,
            counters: self.trace.counters,
            leader_history: self.trace.leader_history.clone(),
            stabilization,
            final_snapshots: self
                .procs
                .iter()
                .map(|s| {
                    if s.crashed {
                        None
                    } else {
                        Some(s.proto.snapshot())
                    }
                })
                .collect(),
            crashed: self
                .procs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.crashed)
                .map(|(i, _)| ProcessId::new(i as u32))
                .collect(),
            adversary: self.adversary.describe(),
        }
    }

    fn after_callback(&mut self, pid: ProcessId, out: &mut Actions<P::Msg>) {
        // Most deliveries record no actions (the paper's processes only act
        // on round boundaries); skip the drain machinery for them.
        if !out.is_empty() {
            self.apply_actions(pid, out);
        }
        let new_leader = self.procs[pid.index()].proto.leader();
        let old_leader = self.procs[pid.index()].last_leader;
        if new_leader != old_leader {
            self.procs[pid.index()].last_leader = new_leader;
            if let Some(rec) = &self.recorder {
                rec.emit(
                    self.now.ticks(),
                    pid.index() as u32,
                    irs_obs::EventKind::LeaderChange,
                    u64::from(old_leader.index() as u32),
                    u64::from(new_leader.index() as u32),
                );
            }
            // O(1) agreement update: move this process's vote. Only the
            // bucket that gained a vote can now hold every live vote, so no
            // rescan is needed. Votes for out-of-range leader ids (no
            // protocol in the workspace emits one, but `leader()` does not
            // forbid it) are simply not bucketed, which can only prevent a
            // count from reaching `live_count` — the conservative direction.
            if let Some(v) = self.live_votes.get_mut(old_leader.index()) {
                *v -= 1;
            }
            let agreed = match self.live_votes.get_mut(new_leader.index()) {
                Some(v) => {
                    *v += 1;
                    (*v == self.live_count).then_some(new_leader)
                }
                None => None,
            };
            self.trace.record_agreement(self.now, agreed);
        }
    }

    /// Recomputes the agreement from the maintained vote counts; O(1) apart
    /// from finding one live process. Used at start-up and after a crash —
    /// per-delivery leader changes take the incremental path in
    /// [`Simulation::after_callback`].
    fn refresh_agreement(&mut self) {
        let agreed = if self.live_count == 0 {
            None
        } else {
            // All live processes agree iff the candidate named by any one of
            // them holds every live vote.
            self.procs
                .iter()
                .find(|s| !s.crashed)
                .map(|s| s.last_leader)
                .filter(|c| self.live_votes.get(c.index()).copied() == Some(self.live_count))
        };
        self.trace.record_agreement(self.now, agreed);
    }

    fn apply_actions(&mut self, pid: ProcessId, actions: &mut Actions<P::Msg>) {
        let n = self.procs.len();
        for outbound in actions.drain_sends() {
            // One allocation per send action: the broadcast fan-out below
            // clones the pointer, not the payload. Payload metadata (size,
            // constrained round) is computed once per action too — at
            // n = 256 a broadcast otherwise re-derives it 255 times.
            let size = outbound.msg.estimated_size() as u64;
            let round = outbound.msg.constrained_round();
            let payload = Rc::new(outbound.msg);
            // Counters are bumped once per action with the fan-out count —
            // not once per receiver.
            let targets = match outbound.dest {
                Destination::To(_) => 1,
                Destination::AllOthers => (n - 1) as u64,
                Destination::All => n as u64,
            };
            self.trace.counters.messages_sent += targets;
            self.trace.counters.bytes_sent += size * targets;
            if round.is_some() {
                self.trace.counters.constrained_sent += targets;
            } else {
                self.trace.counters.other_sent += targets;
            }
            match outbound.dest {
                Destination::To(q) => self.send_one(pid, q, payload, round),
                Destination::AllOthers => {
                    for q in (0..n)
                        .map(|i| ProcessId::new(i as u32))
                        .filter(|q| *q != pid)
                    {
                        self.send_one(pid, q, Rc::clone(&payload), round);
                    }
                }
                Destination::All => {
                    for q in (0..n).map(|i| ProcessId::new(i as u32)) {
                        self.send_one(pid, q, Rc::clone(&payload), round);
                    }
                }
            }
        }
        for request in actions.drain_timers() {
            self.arm_timer(pid, request);
        }
        for id in actions.drain_cancels() {
            self.procs[pid.index()].timer_gens.bump(id);
        }
    }

    fn arm_timer(&mut self, pid: ProcessId, request: TimerRequest) {
        let generation = self.procs[pid.index()].timer_gens.bump(request.id);
        self.trace.counters.timers_set += 1;
        self.queue.push(
            self.now + request.after,
            Event::TimerFire {
                pid,
                timer: request.id,
                generation,
            },
        );
    }

    /// The gate ring slot currently associated with `(to, rn)`, claiming it
    /// from an older round if necessary. The receiver's ring is allocated on
    /// first use. Returns `None` for a stale round (older than the slot's
    /// current owner), which callers treat as "no gate state".
    ///
    /// A free function over split fields (not `&mut self`) so callers can
    /// keep using the queue and the hold slab while the returned slot borrow
    /// is live.
    fn gate_slot<'a>(
        gates: &'a mut [Option<Box<[GateSlot]>>],
        window: usize,
        queue: &mut EventQueue<Rc<P::Msg>>,
        held_slab: &[Option<HeldMsg<P::Msg>>],
        to: ProcessId,
        rn: RoundNum,
    ) -> Option<&'a mut GateSlot> {
        let ring = gates[to.index()].get_or_insert_with(|| {
            (0..window)
                .map(|_| GateSlot::vacant())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        let slot = &mut ring[(rn.value() % window as u64) as usize];
        if slot.rn == rn {
            return Some(slot);
        }
        if rn > slot.rn {
            // Recycle the slot for the newer round. Held messages of the
            // displaced round stay in the slab; each gets an individual
            // deadline-release event (the displaced round's sweep no longer
            // matches the slot), so links stay reliable.
            for idx in slot.held.drain(..) {
                if let Some(h) = held_slab.get(idx as usize).and_then(|e| e.as_ref()) {
                    queue.push(
                        h.deadline_at,
                        Event::ReleaseHeld {
                            slot: idx,
                            token: h.token,
                        },
                    );
                }
            }
            slot.rn = rn;
            slot.star_at = None;
            slot.sweep_at = None;
            return Some(slot);
        }
        None
    }

    fn hold_msg(&mut self, held: HeldMsg<P::Msg>) -> u32 {
        match self.held_free.pop() {
            Some(slot) => {
                self.held_slab[slot as usize] = Some(held);
                slot
            }
            None => {
                self.held_slab.push(Some(held));
                (self.held_slab.len() - 1) as u32
            }
        }
    }

    fn free_held(&mut self, slot: u32) -> HeldMsg<P::Msg> {
        let h = self.held_slab[slot as usize]
            .take()
            .expect("freeing a vacant hold slot");
        self.held_free.push(slot);
        h
    }

    fn send_one(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: Rc<P::Msg>,
        round: Option<RoundNum>,
    ) {
        debug_assert!(
            to.index() < self.procs.len(),
            "send to unknown process {to}"
        );
        let decision = self
            .adversary
            .delivery(self.now, from, to, &msg, &mut self.rng);
        match decision {
            Delivery::After(delay) => {
                self.queue
                    .push(self.now + delay, Event::Deliver { from, to, msg });
            }
            Delivery::StarAfter(delay) => {
                let rn = round.unwrap_or(RoundNum::ZERO);
                let star_at = self.now + delay;
                let mut released: Vec<u32> = Vec::new();
                if let Some(slot) = Self::gate_slot(
                    &mut self.gates,
                    self.gate_window,
                    &mut self.queue,
                    &self.held_slab,
                    to,
                    rn,
                ) {
                    slot.star_at = Some(match slot.star_at {
                        Some(existing) => existing.min(star_at),
                        None => star_at,
                    });
                    // Open the gate: every message currently held on this key
                    // is scheduled strictly after the star message.
                    released = std::mem::take(&mut slot.held);
                }
                for idx in released {
                    let h = self.free_held(idx);
                    self.queue.push(
                        star_at + h.slack,
                        Event::Deliver {
                            from: h.from,
                            to,
                            msg: h.msg,
                        },
                    );
                }
                self.queue.push(star_at, Event::Deliver { from, to, msg });
            }
            Delivery::AfterStar { slack, deadline } => {
                let rn = round.unwrap_or(RoundNum::ZERO);
                let now = self.now;
                let star_at = Self::gate_slot(
                    &mut self.gates,
                    self.gate_window,
                    &mut self.queue,
                    &self.held_slab,
                    to,
                    rn,
                )
                .and_then(|slot| slot.star_at);
                match star_at {
                    Some(star_at) => {
                        let at = if star_at > now {
                            star_at + slack
                        } else {
                            now + slack
                        };
                        self.queue.push(at, Event::Deliver { from, to, msg });
                    }
                    None => {
                        self.trace.counters.messages_held += 1;
                        let token = self.next_token;
                        self.next_token += 1;
                        let deadline_at = now + deadline;
                        let idx = self.hold_msg(HeldMsg {
                            token,
                            from,
                            to,
                            msg,
                            slack,
                            deadline_at,
                        });
                        match Self::gate_slot(
                            &mut self.gates,
                            self.gate_window,
                            &mut self.queue,
                            &self.held_slab,
                            to,
                            rn,
                        ) {
                            Some(slot) => {
                                slot.held.push(idx);
                                // Arm (or advance) the sweep so one is always
                                // pending at or before the earliest held
                                // deadline of the slot.
                                if slot.sweep_at.is_none_or(|at| deadline_at < at) {
                                    slot.sweep_at = Some(deadline_at);
                                    self.queue.push(deadline_at, Event::ReleaseGate { to, rn });
                                }
                            }
                            // Stale round: no slot tracks the message, so it
                            // keeps an individual deadline release.
                            None => self
                                .queue
                                .push(deadline_at, Event::ReleaseHeld { slot: idx, token }),
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::basic::FixedDelay;
    use crate::adversary::DelayDist;
    use irs_types::{LeaderOracle, TimerId};

    /// A tiny test protocol: every process periodically broadcasts a beacon
    /// carrying its id; each process elects the smallest id it has heard from
    /// (including itself) within the last few beacons. It is *not* a correct
    /// Ω implementation — it exists to exercise the engine mechanics
    /// (timers, broadcasts, crashes, agreement tracking) with something
    /// simple and predictable under a synchronous network.
    #[derive(Debug)]
    struct Beacon {
        id: ProcessId,
        n: usize,
        heard: Vec<u64>,
        ticks: u64,
    }

    #[derive(Clone, Debug)]
    struct BeaconMsg {
        round: RoundNum,
    }

    impl RoundTagged for BeaconMsg {
        fn constrained_round(&self) -> Option<RoundNum> {
            Some(self.round)
        }
    }

    const TICK: TimerId = TimerId::new(0);

    impl Beacon {
        fn new(id: ProcessId, n: usize) -> Self {
            Beacon {
                id,
                n,
                heard: vec![0; n],
                ticks: 0,
            }
        }
    }

    impl Protocol for Beacon {
        type Msg = BeaconMsg;

        fn id(&self) -> ProcessId {
            self.id
        }

        fn on_start(&mut self, out: &mut Actions<BeaconMsg>) {
            out.set_timer(TICK, Duration::from_ticks(10));
        }

        fn on_message(&mut self, from: ProcessId, _msg: &BeaconMsg, _out: &mut Actions<BeaconMsg>) {
            self.heard[from.index()] = self.ticks.max(1);
        }

        fn on_timer(&mut self, _timer: TimerId, out: &mut Actions<BeaconMsg>) {
            self.ticks += 1;
            self.heard[self.id.index()] = self.ticks;
            out.broadcast_others(BeaconMsg {
                round: RoundNum::new(self.ticks),
            });
            out.set_timer(TICK, Duration::from_ticks(10));
        }
    }

    impl LeaderOracle for Beacon {
        fn leader(&self) -> ProcessId {
            // Smallest id heard from within the last 3 beacons.
            let cutoff = self.ticks.saturating_sub(3);
            (0..self.n)
                .map(|i| ProcessId::new(i as u32))
                .find(|p| self.heard[p.index()] > cutoff)
                .unwrap_or(self.id)
        }
    }

    impl Introspect for Beacon {
        fn snapshot(&self) -> Snapshot {
            Snapshot {
                leader: self.leader(),
                sending_round: self.ticks,
                receiving_round: self.ticks,
                timer_value: 10,
                susp_levels: Vec::new(),
                extra: vec![(irs_obs::names::TICKS, self.ticks)],
            }
        }
    }

    fn build(n: usize, horizon: u64, crashes: CrashPlan) -> Simulation<Beacon, FixedDelay> {
        let procs = (0..n)
            .map(|i| Beacon::new(ProcessId::new(i as u32), n))
            .collect();
        Simulation::new(
            SimConfig::new(7, Time::from_ticks(horizon)),
            procs,
            FixedDelay::new(Duration::from_ticks(2)),
            crashes,
        )
    }

    #[test]
    fn beacons_agree_on_smallest_id() {
        let mut sim = build(4, 2000, CrashPlan::new());
        let report = sim.run();
        assert!(report.is_stable(), "history: {:?}", report.leader_history);
        assert_eq!(report.stabilization.unwrap().leader, ProcessId::new(0));
        assert!(report.counters.messages_sent > 100);
        assert_eq!(report.counters.crashes, 0);
        assert!(report.final_snapshots.iter().all(|s| s.is_some()));
    }

    #[test]
    fn crash_of_leader_moves_agreement() {
        let plan = CrashPlan::new().crash(ProcessId::new(0), Time::from_ticks(500));
        let mut sim = build(4, 3000, plan);
        let report = sim.run();
        assert_eq!(report.crashed, vec![ProcessId::new(0)]);
        assert!(report.is_stable());
        assert_eq!(report.stabilization.unwrap().leader, ProcessId::new(1));
        assert!(report.final_snapshots[0].is_none());
        assert!(report.counters.dropped_to_crashed > 0);
    }

    #[test]
    fn run_until_stable_stops_early() {
        let mut sim = build(3, 1_000_000, CrashPlan::new());
        let report = sim.run_until_stable_for(Duration::from_ticks(200));
        assert!(report.is_stable());
        assert!(report.final_time < Time::from_ticks(10_000));
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = |seed| {
            let procs = (0..5)
                .map(|i| Beacon::new(ProcessId::new(i as u32), 5))
                .collect();
            let mut sim = Simulation::new(
                SimConfig::new(seed, Time::from_ticks(3000)),
                procs,
                crate::adversary::basic::RandomDelay::new(DelayDist::uniform(
                    Duration::from_ticks(1),
                    Duration::from_ticks(9),
                )),
                CrashPlan::new().crash(ProcessId::new(1), Time::from_ticks(700)),
            );
            let r = sim.run();
            (r.counters, r.leader_history.len(), r.stabilization)
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0.messages_delivered, 0);
    }

    #[test]
    fn timer_superseding_prevents_stale_fires() {
        /// A protocol that re-arms the same timer twice in a row; only the
        /// second arming may fire.
        #[derive(Debug)]
        struct Rearm {
            id: ProcessId,
            fires: u64,
        }
        #[derive(Clone, Debug)]
        struct NoMsg;
        impl RoundTagged for NoMsg {
            fn constrained_round(&self) -> Option<RoundNum> {
                None
            }
        }
        impl Protocol for Rearm {
            type Msg = NoMsg;
            fn id(&self) -> ProcessId {
                self.id
            }
            fn on_start(&mut self, out: &mut Actions<NoMsg>) {
                out.set_timer(TimerId::new(0), Duration::from_ticks(5));
                out.set_timer(TimerId::new(0), Duration::from_ticks(50));
            }
            fn on_message(&mut self, _: ProcessId, _: &NoMsg, _: &mut Actions<NoMsg>) {}
            fn on_timer(&mut self, _: TimerId, _: &mut Actions<NoMsg>) {
                self.fires += 1;
            }
        }
        impl LeaderOracle for Rearm {
            fn leader(&self) -> ProcessId {
                ProcessId::new(0)
            }
        }
        impl Introspect for Rearm {
            fn snapshot(&self) -> Snapshot {
                Snapshot::default()
            }
        }
        let procs = vec![
            Rearm {
                id: ProcessId::new(0),
                fires: 0,
            },
            Rearm {
                id: ProcessId::new(1),
                fires: 0,
            },
        ];
        let mut sim = Simulation::new(
            SimConfig::new(1, Time::from_ticks(1000)),
            procs,
            FixedDelay::new(Duration::from_ticks(1)),
            CrashPlan::new(),
        );
        let report = sim.run();
        assert_eq!(sim.process(ProcessId::new(0)).fires, 1);
        assert_eq!(report.counters.timer_fires, 2);
        assert_eq!(report.counters.timers_set, 4);
    }

    #[test]
    #[should_panic(expected = "reports id")]
    fn mismatched_ids_panic() {
        let procs = vec![
            Beacon::new(ProcessId::new(1), 2),
            Beacon::new(ProcessId::new(0), 2),
        ];
        let _ = Simulation::new(
            SimConfig::default(),
            procs,
            FixedDelay::new(Duration::from_ticks(1)),
            CrashPlan::new(),
        );
    }
}
