//! The real client on virtual time: five `SvcReplica`s on an
//! `irs_runtime::Stepper` over one endpoint of an in-memory mesh, and one
//! `SvcClient` on the mesh's second endpoint, driven through its
//! non-blocking surface at `now = tick × clock`. Nothing here reads the
//! wall clock, so each run is a fixed schedule of clock advances and turns
//! and replays exactly — a crash lands in the step the test names, not in
//! whatever window a thread happened to hit.

use irs_net::{MemNetwork, MemTransport};
use irs_runtime::Stepper;
use irs_svc::loadgen::{check_consistency, key_for, value_for, History};
use irs_svc::{ReadTier, SvcClient, SvcConfig, SvcReplica, SvcReply};
use irs_types::{LeaderOracle, ProcessId};
use std::time::Duration;

const N: usize = 5;
/// Virtual ticks any one scenario step may take before the test gives up
/// (10 s at the default 100 µs tick).
const STEP_LIMIT: u64 = 100_000;

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

/// The replicas on the stepper, the client, and the client's history.
struct Group {
    stepper: Stepper<SvcReplica, MemTransport>,
    client: SvcClient<MemTransport>,
    history: History,
    tick: Duration,
}

impl Group {
    fn new(seed: u64) -> Self {
        let config = SvcConfig::new(N, 1);
        let mut owner = vec![0; N];
        owner.push(1);
        let mut endpoints = MemNetwork::grouped(&owner);
        let client = SvcClient::new(pid(N), N, endpoints.pop().expect("two endpoints"), seed);
        let replicas = endpoints.pop().expect("two endpoints");
        let processes = (0..N).map(|i| config.replica(pid(i))).collect();
        Group {
            stepper: Stepper::new(processes, replicas, config.accept()),
            history: History::new(client.client_id(), ReadTier::Lease),
            client,
            tick: config.tick,
        }
    }

    /// The client's `now`: the stepper's clock in wall-clock units.
    fn now(&self) -> Duration {
        self.tick * self.stepper.clock().now() as u32
    }

    /// One loop turn, then the client's poll at the clock's time: returns
    /// the slot of the write the poll saw acked, if any.
    fn turn(&mut self) -> Option<u64> {
        self.stepper.turn();
        let answer = self.client.poll(self.now()).expect("in-memory recv")?;
        assert!(
            self.client
                .poll(self.now())
                .expect("in-memory recv")
                .is_none(),
            "one write outstanding, two answers"
        );
        match answer.reply {
            SvcReply::Applied { seq, slot, .. } => {
                let key = key_for(self.client.client_id(), seq % 4);
                self.history.ack(key, seq, slot);
                Some(slot)
            }
            other => panic!("a write was answered with {other:?}"),
        }
    }

    /// Sends the client's next write at the clock's time.
    fn start_put(&mut self) -> u64 {
        let seq = self.client.next_seq();
        let key = key_for(self.client.client_id(), seq % 4);
        self.history.issue(&key, seq);
        let started = self.client.start_put(&key, &value_for(seq, 16), self.now());
        assert_eq!(started, Ok(seq), "in-memory send");
        seq
    }

    /// Moves the clock a tick at a time, turning once a tick, until `done`
    /// holds; returns the ticks that took.
    fn run_until(&mut self, what: &str, mut done: impl FnMut(&mut Group) -> bool) -> u64 {
        let from = self.stepper.clock().now();
        while !done(self) {
            let ticks = self.stepper.clock().now() - from;
            assert!(ticks < STEP_LIMIT, "{what}: not after {ticks} ticks");
            self.stepper.clock().advance(1);
        }
        self.stepper.clock().now() - from
    }

    /// One write, issued now and run to its ack on a moving clock.
    fn put(&mut self) -> u64 {
        self.start_put();
        let mut slot = None;
        self.run_until("a put is acked", |g| {
            slot = g.turn();
            slot.is_some()
        });
        slot.expect("acked")
    }

    /// The leader every replica in `alive` names, if they agree.
    fn agreed_leader(&self, alive: &[usize]) -> Option<ProcessId> {
        let leader = self.stepper.process(pid(alive[0])).leader();
        let agree = alive
            .iter()
            .all(|&i| self.stepper.process(pid(i)).leader() == leader);
        agree.then_some(leader)
    }

    fn applied(&self, i: usize) -> u64 {
        self.stepper.process(pid(i)).store().applied()
    }

    /// The stepper's stop, then the consistency check over `alive`.
    fn finish_consistent(self, alive: &[usize]) {
        let finals = self.stepper.finish();
        let surviving: Vec<&SvcReplica> = alive.iter().map(|&i| &finals[i]).collect();
        if let Err(violation) = check_consistency(&surviving, &[self.history.acks]) {
            panic!("consistency violated after the crash: {violation}");
        }
    }
}

/// What one failover run ends with: the slot the outstanding write was
/// acked in, the client's retries and redirects, and the virtual time
/// from the crash to that ack.
type Failover = (u64, u64, u64, Duration);

/// A warmed client has a write outstanding when replica 0, the leader it was sent
/// to, crashes. The client's silence clock rotates the hint, the survivors'
/// Ω re-elects on the manual clock, and the write is acked once, by the new
/// leader; every survivor ends up holding it exactly once. (Under this
/// seed the rotation lands on a follower, whose redirect names the new
/// leader.)
fn failover_run() -> Failover {
    const WARMUP: u64 = 16;
    let mut g = Group::new(1);
    for _ in 0..WARMUP {
        g.put();
    }
    assert_eq!(g.client.stats.retries, 0, "{:?}", g.client.stats);
    assert_eq!(g.client.leader_hint(), pid(0));
    let seq = g.start_put();
    g.stepper.crash(pid(0));
    let survivors = [1, 2, 3, 4];
    let mut slot = None;
    let ticks = g.run_until("the outstanding write is acked", |g| {
        slot = g.turn();
        slot.is_some()
    });
    let slot = slot.expect("acked");
    let outage = g.tick * ticks as u32;
    let stats = g.client.stats;
    assert!(
        stats.retries >= 1,
        "silence never moved the hint: {stats:?}"
    );
    assert_eq!(g.history.acks.acked.last().map(|a| a.seq), Some(seq));
    let leader = g.client.answered_by().expect("the write was answered");
    assert_ne!(leader, pid(0), "the crashed leader answered");
    g.run_until("every survivor applies the write", |g| {
        assert_eq!(g.turn(), None, "an answer with nothing outstanding");
        survivors.iter().all(|&i| g.applied(i) == WARMUP + 1)
    });
    assert_eq!(g.agreed_leader(&survivors), Some(leader), "Ω re-elected");
    g.finish_consistent(&survivors);
    (slot, stats.retries, stats.redirects, outage)
}

#[test]
fn failover_on_virtual_time_acks_the_outstanding_write_once_and_replays() {
    let first = failover_run();
    let second = failover_run();
    assert_eq!(first, second, "one schedule, two outcomes");
    let (slot, retries, redirects, outage) = first;
    println!(
        "failover-on-virtual-time: slot {slot} retries {retries} redirects {redirects} \
         outage {outage:?}"
    );
}

/// The leader acks from the handler that counts the quorum and holds the
/// announcement for its next `Accept` or its next timer turn. Crash it in
/// the step that delivered its ack: no survivor has been told, but a quorum
/// of them accepted the batch, so the next reign's prepare finds it in a
/// counted report and decides it again (and were there no next reign, a
/// survivor would finish the slot itself) — the survivors end up holding
/// the acked write with no client traffic to prompt them. On the stepper
/// the crash lands there in every run: the last write is turned without
/// moving the clock, so no timer can flush the announcement first.
#[test]
fn a_leader_crashed_between_the_ack_and_any_announcement_loses_nothing() {
    const WRITES: u64 = 8;
    let mut g = Group::new(0xACE);
    for _ in 1..WRITES {
        g.put();
    }
    let all: Vec<usize> = (0..N).collect();
    g.run_until("the replicas agree on a leader", |g| {
        g.turn();
        g.agreed_leader(&all).is_some()
    });
    g.start_put();
    let mut turns = 0;
    while g.turn().is_none() {
        turns += 1;
        assert!(turns < 16, "the last put was not acked without a timer");
    }
    // The replica that acked.
    let leader = g
        .client
        .answered_by()
        .expect("the put was answered")
        .index();
    assert_eq!(g.applied(leader), WRITES, "{leader} acked it");
    g.stepper.crash(pid(leader));
    let survivors: Vec<usize> = all.into_iter().filter(|&i| i != leader).collect();
    let behind: Vec<u64> = survivors.iter().map(|&i| g.applied(i)).collect();
    assert!(
        behind.iter().all(|&applied| applied < WRITES),
        "a survivor was told of the acked write before the crash: {behind:?}"
    );
    g.run_until("the survivors re-decide the acked write", |g| {
        g.turn();
        survivors.iter().all(|&i| g.applied(i) == WRITES)
    });
    g.run_until("the survivors agree on a new leader", |g| {
        g.turn();
        g.agreed_leader(&survivors)
            .is_some_and(|l| l != pid(leader))
    });
    g.finish_consistent(&survivors);
}
