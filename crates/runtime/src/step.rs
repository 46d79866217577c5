//! The host loop turned by its caller: every process on one shard over one
//! [`Transport`] endpoint, on a manual clock.
//!
//! A [`Stepper`] is the third driver of the one host loop (`host.rs`), next
//! to the shard threads of a [`Deployment`](crate::Deployment) and the
//! calling thread of [`run_node`](crate::run_node). It owns no thread and
//! reads no wall clock: time is a [`ManualClock`] that only the caller
//! advances, and a [`Stepper::turn`] fires the timers due at the clock's
//! tick, polls the endpoint once without waiting, and delivers what arrived
//! — the same calls, in the same order, as a turn on a shard thread. Over a
//! deterministic endpoint (the in-memory mesh, or a [`irs_net::FaultyLink`]
//! without link delay) the same schedule of clock advances and sends
//! therefore replays the same run, frame for frame.

use crate::host::{Local, MuxAccept, Shard};
use irs_net::{FaultClock, ManualClock, Transport, Wire};
use irs_types::{Introspect, ProcessId, Protocol, Snapshot};
use std::time::Duration as StdDuration;

/// A stepper's admission rule, owned.
type Admit<M> = Box<dyn Fn(ProcessId, ProcessId, ProcessId, &M) -> bool>;

/// `n` protocol instances on one shard over one endpoint, turned one loop
/// turn at a time by the caller on a [`ManualClock`] (see the module docs).
pub struct Stepper<P: Protocol, T> {
    shard: Shard<'static, P, T, Admit<P::Msg>>,
    clock: ManualClock,
}

impl<P, T> Stepper<P, T>
where
    P: Protocol + Introspect,
    P::Msg: Wire,
    T: Transport,
{
    /// Hosts `processes` (ids `0..n` in order, broadcasts fanning out to
    /// all `n`) over `endpoint`, which must receive every frame addressed
    /// to them, with `accept` as the admission rule — it judges each frame's
    /// decoded message, as on every other driver — and starts them at tick
    /// zero: their `on_start` sends are on the endpoint when this returns.
    ///
    /// # Panics
    ///
    /// Panics if the instances' ids are not `0..n` in order.
    pub fn new(processes: Vec<P>, endpoint: T, accept: MuxAccept<P::Msg>) -> Self {
        let n = processes.len();
        let locals = processes
            .into_iter()
            .enumerate()
            .map(|(i, proto)| Local::nth(i, proto, None, StdDuration::ZERO))
            .collect();
        let clock = ManualClock::new();
        let admit: Admit<P::Msg> = Box::new(move |me, from, to, msg| accept(me, from, to, msg));
        let time = FaultClock::Manual(clock.clone());
        let mut shard = Shard::new(endpoint, locals, 1, n, time, admit, None);
        shard.start();
        Stepper { shard, clock }
    }

    /// The clock the hosted timers run on: advance it, then
    /// [`Stepper::turn`], to fire the timers it passed.
    pub fn clock(&self) -> &ManualClock {
        &self.clock
    }

    /// One loop turn: fires every timer due at the clock's tick, polls the
    /// endpoint once without waiting, and hands each process what arrived
    /// as one burst. Returns the frames delivered.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint can no longer receive at all.
    pub fn turn(&mut self) -> usize {
        self.shard
            .turn(StdDuration::ZERO)
            .expect("the stepper's endpoint can still receive")
    }

    /// The hosted process `pid`.
    pub fn process(&self, pid: ProcessId) -> &P {
        self.shard.process(pid.index())
    }

    /// A snapshot of `pid` with the runtime gauges appended, asked for,
    /// served and read on the calling thread through the same
    /// [`SnapshotCell`](crate::SnapshotCell) path a shard thread serves.
    pub fn snapshot(&mut self, pid: ProcessId) -> Snapshot {
        let ticket = self.shard.cell(pid.index()).ask();
        self.shard.serve_reads();
        self.shard.cell(pid.index()).wait(ticket)
    }

    /// The shutdown drain with a zero quiet window: every process is asked
    /// once for what it holds back (`on_quiesce`), those sends are
    /// delivered with the reactions they trigger discarded, until a poll
    /// finds the endpoint empty. Returns the final states in id order.
    pub fn finish(self) -> Vec<P> {
        self.shard.finish(StdDuration::ZERO)
    }
}

impl<P: Protocol, T> std::fmt::Debug for Stepper<P, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stepper")
            .field("tick", &self.clock.now())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::default_accept;
    use irs_net::wire::{put_u32, WireReader};
    use irs_net::{DutyCycle, FaultyLink, LinkModel, MemNetwork, MemTransport, WireError};
    use irs_obs::names;
    use irs_omega::OmegaProcess;
    use irs_types::{Actions, Duration, LeaderOracle, SystemConfig, TimerId};

    /// One note: a number.
    #[derive(Clone, Debug, PartialEq)]
    struct Note(u32);

    impl Wire for Note {
        fn encode(&self, buf: &mut Vec<u8>) {
            put_u32(buf, self.0);
        }

        fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            Ok(Note(r.u32()?))
        }
    }

    /// A note at or above this is a reaction, and is never answered.
    const REACTION: u32 = 10_000;
    /// What `on_quiesce` broadcasts, plus the sender's index.
    const HELD_BACK: u32 = 1_000;
    const T_ONCE: TimerId = TimerId::new(0);
    const T_REARMED: TimerId = TimerId::new(1);
    const T_CANCELLED: TimerId = TimerId::new(2);

    /// Records every burst and timer fire. Armed at start: `T_ONCE` for 10
    /// ticks, `T_REARMED` for 5 and at once re-armed for 15, `T_CANCELLED`
    /// for 10 and at once cancelled. Every note below [`REACTION`] is
    /// answered; a stop broadcasts one [`HELD_BACK`] note.
    #[derive(Debug)]
    struct Recorder {
        id: ProcessId,
        bursts: Vec<Vec<(ProcessId, u32)>>,
        fired: Vec<TimerId>,
        quiesced: u32,
    }

    impl Recorder {
        fn group(n: u32) -> Vec<Recorder> {
            (0..n)
                .map(|i| Recorder {
                    id: ProcessId::new(i),
                    bursts: Vec::new(),
                    fired: Vec::new(),
                    quiesced: 0,
                })
                .collect()
        }

        fn received(&self) -> impl Iterator<Item = u32> + '_ {
            self.bursts.iter().flatten().map(|&(_, note)| note)
        }
    }

    impl Protocol for Recorder {
        type Msg = Note;

        fn id(&self) -> ProcessId {
            self.id
        }

        fn on_start(&mut self, out: &mut Actions<Note>) {
            out.set_timer(T_ONCE, Duration::from_ticks(10));
            out.set_timer(T_REARMED, Duration::from_ticks(5));
            out.set_timer(T_REARMED, Duration::from_ticks(15));
            out.set_timer(T_CANCELLED, Duration::from_ticks(10));
            out.cancel_timer(T_CANCELLED);
        }

        fn on_message(&mut self, from: ProcessId, msg: &Note, out: &mut Actions<Note>) {
            self.on_burst(&[(from, msg.clone())], out);
        }

        fn on_burst(&mut self, burst: &[(ProcessId, Note)], out: &mut Actions<Note>) {
            self.bursts
                .push(burst.iter().map(|(from, note)| (*from, note.0)).collect());
            for (from, note) in burst {
                if note.0 < REACTION {
                    out.send(*from, Note(note.0 + REACTION));
                }
            }
        }

        fn on_timer(&mut self, timer: TimerId, _out: &mut Actions<Note>) {
            self.fired.push(timer);
        }

        fn on_quiesce(&mut self, out: &mut Actions<Note>) {
            self.quiesced += 1;
            out.broadcast_others(Note(HELD_BACK + self.id.as_u32()));
        }
    }

    impl LeaderOracle for Recorder {
        fn leader(&self) -> ProcessId {
            self.id
        }
    }

    impl Introspect for Recorder {
        fn snapshot(&self) -> Snapshot {
            Snapshot::default()
        }
    }

    /// `n` recorders on a stepper, plus the endpoint of processes `n` and
    /// `n + 1` outside it.
    fn recorders(n: u32) -> (Stepper<Recorder, MemTransport>, MemTransport) {
        let mut owner: Vec<usize> = vec![0; n as usize];
        owner.extend([1, 1]);
        let mut endpoints = MemNetwork::grouped(&owner);
        let outside = endpoints.pop().expect("two endpoints");
        let hosted = endpoints.pop().expect("two endpoints");
        let accept = default_accept(owner.len());
        (Stepper::new(Recorder::group(n), hosted, accept), outside)
    }

    fn send(outside: &mut MemTransport, from: u32, to: u32, note: u32) {
        let mut payload = Vec::new();
        Note(note).encode(&mut payload);
        outside
            .send(ProcessId::new(from), ProcessId::new(to), &payload)
            .expect("in-memory send");
    }

    /// Two steppers given the same advance schedule over a lossy link, on
    /// which p1 goes dark for long windows, turn out the same leader
    /// vectors and `frames_delivered` gauges, turn for turn — and the
    /// schedule is long and uneven enough that the leader moves and frames
    /// flow.
    #[test]
    fn the_same_schedule_replays_the_same_run() {
        fn run() -> Vec<(Vec<ProcessId>, Vec<u64>)> {
            let system = SystemConfig::new(5, 2).unwrap();
            let processes = system
                .processes()
                .map(|id| OmegaProcess::fig3(id, system))
                .collect();
            let endpoint = MemNetwork::grouped(&[0; 5]).pop().expect("one endpoint");
            let link_clock = ManualClock::new();
            let dark = DutyCycle {
                node: 0,
                period: 4_000,
                on: 1_000,
                phase: 0,
            };
            let model = LinkModel::new(7)
                .with_drop_prob(0.1)
                .with_duty_cycle(dark)
                .with_manual_clock(link_clock.clone());
            let link = FaultyLink::new(endpoint, model);
            let mut stepper = Stepper::new(processes, link, default_accept(5));
            let mut trace = Vec::new();
            let mut state = 0x2545_F491_4F6C_DD1D_u64;
            for _ in 0..400 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Mostly short steps, now and then a long silence.
                let ticks = if state.is_multiple_of(50) {
                    400
                } else {
                    state % 12
                };
                stepper.clock().advance(ticks);
                link_clock.set(stepper.clock().now());
                for _ in 0..=state % 3 {
                    stepper.turn();
                    let pids = system.processes();
                    let leaders = pids.clone().map(|p| stepper.process(p).leader()).collect();
                    let delivered = pids
                        .map(|p| stepper.snapshot(p).gauge(names::FRAMES_DELIVERED).unwrap())
                        .collect();
                    trace.push((leaders, delivered));
                }
            }
            stepper.finish();
            trace
        }
        let (first, second) = (run(), run());
        assert_eq!(first, second);
        let leaders: std::collections::BTreeSet<_> = first.iter().map(|(l, _)| l[0]).collect();
        assert!(leaders.len() > 1, "the leader never moved: {leaders:?}");
        let delivered: u64 = first.last().unwrap().1.iter().sum();
        assert!(delivered > 1_000, "only {delivered} frames delivered");
    }

    #[test]
    fn timers_fire_at_their_tick_on_the_manual_clock() {
        let (mut stepper, _outside) = recorders(1);
        let fired =
            |s: &Stepper<Recorder, MemTransport>| s.process(ProcessId::new(0)).fired.clone();
        stepper.clock().advance(9);
        stepper.turn();
        assert_eq!(fired(&stepper), [], "nothing is due at tick 9");
        stepper.clock().advance(1);
        stepper.turn();
        assert_eq!(fired(&stepper), [T_ONCE], "armed for 10, fired at 10");
        stepper.clock().advance(4);
        stepper.turn();
        assert_eq!(fired(&stepper), [T_ONCE], "the re-arm superseded tick 5");
        stepper.clock().advance(1);
        stepper.turn();
        assert_eq!(fired(&stepper), [T_ONCE, T_REARMED]);
        stepper.clock().advance(1_000);
        stepper.turn();
        assert_eq!(fired(&stepper), [T_ONCE, T_REARMED], "the cancel held");
    }

    #[test]
    fn frames_queued_before_a_turn_reach_each_process_as_one_burst() {
        let (mut stepper, mut outside) = recorders(3);
        let (p, q) = (3, 4); // two links into the group from outside
        for (from, to, note) in [(p, 0, 1), (q, 0, 2), (p, 1, 3), (p, 0, 4), (q, 0, 5)] {
            send(&mut outside, from, to, note);
        }
        assert_eq!(stepper.turn(), 5);
        let pid = ProcessId::new;
        let expected = [(pid(p), 1), (pid(q), 2), (pid(p), 4), (pid(q), 5)];
        assert_eq!(stepper.process(pid(0)).bursts, [expected.to_vec()]);
        assert_eq!(stepper.process(pid(1)).bursts, [vec![(pid(p), 3)]]);
        assert!(stepper.process(pid(2)).bursts.is_empty());
        assert_eq!(stepper.turn(), 0, "the answers left the group");
    }

    #[test]
    fn finish_delivers_what_quiesce_sent_and_discards_the_reactions() {
        let (stepper, _outside) = recorders(3);
        let finals = stepper.finish();
        for r in &finals {
            assert_eq!(r.quiesced, 1, "{} asked once", r.id);
            let mut got: Vec<u32> = r.received().collect();
            got.sort_unstable();
            let others = (0..3).filter(|&j| j != r.id.as_u32());
            let held_back: Vec<u32> = others.map(|j| HELD_BACK + j).collect();
            assert_eq!(
                got, held_back,
                "{} got every held-back note, and no reaction",
                r.id
            );
        }
    }
}
