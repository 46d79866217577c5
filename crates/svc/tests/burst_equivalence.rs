//! Burst equivalence: however a delivery schedule is cut into bursts, the
//! service ends where the frame-at-a-time run ends.
//!
//! `SvcReplica::on_burst` coalesces the per-event tail of a turn — one
//! window drive, one apply pass, one WAL commit for everything a poll
//! handed over. This suite routes a five-replica group and a dozen
//! closed-loop clients over one FIFO of in-flight frames (no threads, no
//! clocks: the lease timer fires on script, the run ends with the host's
//! quiesce turn) and delivers that FIFO twice:
//! once a frame at a time through `on_message`, once cut into arbitrary
//! bursts through `on_burst`, each burst grouped per destination in arrival
//! order exactly as the host loop groups a poll. Both runs must apply every
//! submitted write exactly once, ack it exactly once, pass
//! `check_consistency` and `check_read_linearizability`, and end with the
//! same key-value map. Unbatched (`batch_max = 1`) slot assignment is the
//! submission order whatever the cut, so there the full store digest — which
//! also hashes each client's `(seq, slot)` cursor — must match too; batched,
//! a burst legitimately packs slots differently, and the digest is compared
//! across the replicas of a run instead.

use irs_svc::loadgen::{
    check_consistency, check_read_linearizability, key_for, seq_of_value, value_for, AckedWrite,
    ClientAcks, ClientReads, ObservedRead,
};
use irs_svc::{KvOp, KvWrite, ReadTier, SvcConfig, SvcMsg, SvcReplica, SvcReply, TIMER_LEASE};
use irs_types::{Actions, Destination, ProcessId, Protocol};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

const N: usize = 5;
const CLIENTS: u64 = 12;
const KEYS: u64 = 3;
/// Rounds between lease-timer fires.
const TICK_EVERY: usize = 3;

fn pid(i: u64) -> ProcessId {
    ProcessId::new(i as u32)
}

/// What a client is waiting for.
enum Outstanding {
    Write { seq: u64, key: Vec<u8> },
    Read { rid: u64, key: Vec<u8> },
}

/// One closed-loop logical client on endpoint `id` (≥ `N`). Its reads all
/// run at one tier, fixed by its id.
struct Client {
    id: u64,
    /// `true` = read, per scripted op.
    script: Vec<bool>,
    next_op: usize,
    seq: u64,
    rid: u64,
    outstanding: Option<Outstanding>,
    acks: ClientAcks,
    reads: ClientReads,
    acked_floor: BTreeMap<Vec<u8>, u64>,
    issued_ceiling: BTreeMap<Vec<u8>, u64>,
    /// Replies that answered nothing outstanding (a second ack of a write).
    stray_replies: u64,
}

impl Client {
    fn new(id: u64, script: Vec<bool>) -> Self {
        let tier = [ReadTier::Lease, ReadTier::ReadIndex, ReadTier::Stale][(id % 3) as usize];
        Client {
            id,
            script,
            next_op: 0,
            seq: 0,
            rid: 0,
            outstanding: None,
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
            stray_replies: 0,
        }
    }

    fn done(&self) -> bool {
        self.outstanding.is_none() && self.next_op == self.script.len()
    }

    /// Issues the next scripted op, if idle: `(destination, message)`.
    /// Writes and linearizable reads go to the leader; stale reads to a
    /// follower, which serves them from its own applied prefix.
    fn issue(&mut self) -> Option<(ProcessId, SvcMsg)> {
        if self.outstanding.is_some() || self.next_op == self.script.len() {
            return None;
        }
        let is_read = self.script[self.next_op];
        let key = key_for(self.id, self.next_op as u64 % KEYS);
        self.next_op += 1;
        if is_read {
            self.rid += 1;
            let tier = self.reads.tier.expect("tier set at construction");
            let to = if tier == ReadTier::Stale {
                pid(self.id % N as u64)
            } else {
                pid(0)
            };
            self.outstanding = Some(Outstanding::Read {
                rid: self.rid,
                key: key.clone(),
            });
            let read = SvcMsg::Read {
                client: self.id,
                rid: self.rid,
                key,
                tier,
            };
            return Some((to, read));
        }
        self.seq += 1;
        self.issued_ceiling.insert(key.clone(), self.seq);
        self.outstanding = Some(Outstanding::Write {
            seq: self.seq,
            key: key.clone(),
        });
        let write = KvWrite {
            client: self.id,
            seq: self.seq,
            op: KvOp::Put {
                key,
                value: value_for(self.seq, 16),
            },
        };
        Some((
            pid(0),
            SvcMsg::Request {
                cmd: write.encode(),
            },
        ))
    }

    fn on_reply(&mut self, reply: &SvcReply) {
        match (reply, self.outstanding.take()) {
            (SvcReply::Applied { seq, slot, .. }, Some(Outstanding::Write { seq: want, key }))
                if *seq == want =>
            {
                self.acked_floor.insert(key.clone(), want);
                self.acks.acked.push(AckedWrite {
                    seq: want,
                    key,
                    slot: *slot,
                });
            }
            (
                SvcReply::Value {
                    rid,
                    value,
                    frontier,
                    ..
                },
                Some(Outstanding::Read { rid: want, key }),
            ) if *rid == want => {
                self.reads.reads.push(ObservedRead {
                    value_seq: value.as_deref().and_then(seq_of_value),
                    frontier: *frontier,
                    acked_floor: self.acked_floor.get(&key).copied(),
                    issued_ceiling: self.issued_ceiling.get(&key).copied(),
                    key,
                });
            }
            (_, still_waiting) => {
                self.stray_replies += 1;
                self.outstanding = still_waiting;
            }
        }
    }
}

/// The routed group: replicas, clients and the one FIFO of frames in flight
/// (a global FIFO keeps every link FIFO).
struct Group {
    replicas: Vec<SvcReplica>,
    clients: Vec<Client>,
    in_flight: VecDeque<(ProcessId, ProcessId, SvcMsg)>,
    /// The largest burst any replica was handed.
    widest_burst: usize,
}

impl Group {
    fn new(batch_max: usize, scripts: Vec<Vec<bool>>) -> Self {
        let config = SvcConfig::new(N, 0)
            .with_batching(batch_max, 4)
            .with_snapshot_interval(0);
        let replicas = (0..N as u64).map(|i| config.replica(pid(i))).collect();
        let clients = scripts
            .into_iter()
            .enumerate()
            .map(|(i, script)| Client::new(N as u64 + i as u64, script))
            .collect();
        Group {
            replicas,
            clients,
            in_flight: VecDeque::new(),
            widest_burst: 0,
        }
    }

    /// Queues what `from` recorded (timers are fired by the script instead).
    fn route(&mut self, from: ProcessId, actions: Actions<SvcMsg>) {
        let (sends, _, _) = actions.into_parts();
        for send in sends {
            let everyone = (0..N as u64).map(pid);
            let targets: Vec<ProcessId> = match send.dest {
                Destination::To(q) => vec![q],
                Destination::AllOthers => everyone.filter(|&q| q != from).collect(),
                Destination::All => everyone.collect(),
            };
            for to in targets {
                self.in_flight.push_back((from, to, send.msg.clone()));
            }
        }
    }

    /// Delivers the next `cut` frames as the host delivers a poll: grouped
    /// per destination, each group in arrival order, one call per replica —
    /// `on_burst`, or frame-at-a-time `on_message` for the reference run.
    fn deliver(&mut self, cut: usize, frame_at_a_time: bool) {
        let cut = cut.min(self.in_flight.len());
        let mut groups: Vec<(ProcessId, Vec<(ProcessId, SvcMsg)>)> = Vec::new();
        for (from, to, msg) in self.in_flight.drain(..cut) {
            match groups.iter_mut().find(|(dest, _)| *dest == to) {
                Some((_, burst)) => burst.push((from, msg)),
                None => groups.push((to, vec![(from, msg)])),
            }
        }
        for (to, burst) in groups {
            let Some(replica) = self.replicas.get_mut(to.index()) else {
                let client = &mut self.clients[to.index() - N];
                for (_, msg) in &burst {
                    if let SvcMsg::Reply(reply) = msg {
                        client.on_reply(reply);
                    }
                }
                continue;
            };
            let mut out = Actions::new();
            if frame_at_a_time {
                for (from, msg) in &burst {
                    replica.on_message(*from, msg, &mut out);
                }
            } else {
                self.widest_burst = self.widest_burst.max(burst.len());
                replica.on_burst(&burst, &mut out);
            }
            self.route(to, out);
        }
    }

    /// Runs the scripts to completion: each round every idle client issues
    /// its next op, the lease timer fires on its cadence, and the FIFO is
    /// delivered to quiescence in bursts of `cuts` (cycled).
    fn run(&mut self, cuts: &[usize], frame_at_a_time: bool) {
        let mut cut = cuts.iter().copied().cycle();
        for round in 0.. {
            assert!(round < 10_000, "the group stopped making progress");
            if self.clients.iter().all(Client::done) {
                break;
            }
            for c in 0..self.clients.len() {
                if let Some((to, msg)) = self.clients[c].issue() {
                    let from = pid(self.clients[c].id);
                    self.in_flight.push_back((from, to, msg));
                }
            }
            if round % TICK_EVERY == 0 {
                for r in 0..N {
                    let mut out = Actions::new();
                    self.replicas[r].on_timer(TIMER_LEASE, &mut out);
                    self.route(pid(r as u64), out);
                }
            }
            while !self.in_flight.is_empty() {
                let next = cut.next().expect("cuts is non-empty");
                self.deliver(next, frame_at_a_time);
            }
        }
        // The host's stop. The script fires no oracle timer, so the last
        // slot's decision is still waiting for an `Accept` to ride on: every
        // replica hands over what it holds back, as `Shard::drain` asks.
        for r in 0..N {
            let mut out = Actions::new();
            self.replicas[r].on_quiesce(&mut out);
            self.route(pid(r as u64), out);
        }
        while !self.in_flight.is_empty() {
            let next = cut.next().expect("cuts is non-empty");
            self.deliver(next, frame_at_a_time);
        }
    }

    /// The end-state verdict shared by both runs.
    fn verdict(&self) -> Result<(), String> {
        let writes: u64 = self.clients.iter().map(|c| c.seq).sum();
        for c in &self.clients {
            if c.stray_replies != 0 {
                return Err(format!("client {} was answered twice", c.id));
            }
            if c.acks.acked.len() as u64 != c.seq {
                return Err(format!("client {}: a write was never acked", c.id));
            }
            let reads = c.script.iter().filter(|&&is_read| is_read).count();
            if c.reads.reads.len() != reads {
                return Err(format!("client {}: a read was never answered", c.id));
            }
        }
        for r in &self.replicas {
            let store = r.store();
            if store.applied() != writes || store.dup_skips() != 0 {
                return Err(format!(
                    "replica {}: {} writes submitted, {} applied, {} skipped as duplicates",
                    r.id(),
                    writes,
                    store.applied(),
                    store.dup_skips()
                ));
            }
        }
        let refs: Vec<&SvcReplica> = self.replicas.iter().collect();
        let acks: Vec<ClientAcks> = self.clients.iter().map(|c| c.acks.clone()).collect();
        check_consistency(&refs, &acks)?;
        let reads: Vec<ClientReads> = self.clients.iter().map(|c| c.reads.clone()).collect();
        check_read_linearizability(&reads)
    }
}

/// One scripted op per seed, dealt round-robin to the clients; about a
/// third are reads.
fn scripts_from(seeds: &[u64]) -> Vec<Vec<bool>> {
    let mut scripts = vec![Vec::new(); CLIENTS as usize];
    for (i, seed) in seeds.iter().enumerate() {
        scripts[i % CLIENTS as usize].push(seed % 3 == 0);
    }
    scripts
}

proptest! {
    #[test]
    fn any_burst_partition_ends_where_frame_at_a_time_ends(
        seeds in proptest::collection::vec(0u64..1_000, 24..96),
        cuts in proptest::collection::vec(1usize..40, 1..12),
        batched in 0u8..2,
    ) {
        let batch_max = if batched == 1 { 8 } else { 1 };
        let mut reference = Group::new(batch_max, scripts_from(&seeds));
        reference.run(&[1], true);
        let mut bursty = Group::new(batch_max, scripts_from(&seeds));
        bursty.run(&cuts, false);

        if let Err(why) = reference.verdict() {
            panic!("frame at a time: {why}");
        }
        if let Err(why) = bursty.verdict() {
            panic!("bursts of {cuts:?}: {why}");
        }
        let (store, ref_store) = (bursty.replicas[0].store(), reference.replicas[0].store());
        prop_assert_eq!(store.map(), ref_store.map(), "bursts of {:?} changed the state", cuts);
        if batch_max == 1 {
            let (digest, ref_digest) = (store.digest(), ref_store.digest());
            prop_assert_eq!(digest, ref_digest, "bursts of {:?} changed a write's slot", cuts);
        }
        // The cut is exercised, not decorative: some replica took a real
        // burst whenever the schedule offered one.
        if cuts.iter().any(|&c| c >= 16) {
            prop_assert!(bursty.widest_burst > 1);
        }
    }
}
