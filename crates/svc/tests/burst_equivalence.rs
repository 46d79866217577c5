//! Burst equivalence: however a delivery schedule is cut into bursts, the
//! service ends where the frame-at-a-time run ends.
//!
//! `SvcReplica::on_burst` coalesces the per-event tail of a turn — one
//! window drive, one apply pass, one WAL commit for everything a poll
//! handed over. This suite runs a five-replica group on the real host loop
//! — an `irs_runtime::Stepper` over one endpoint of an in-memory mesh,
//! admitting by the replicas' own policy — with a dozen closed-loop clients
//! on the mesh's second endpoint, and runs each script twice: once a frame
//! per poll (a burst of one, which the library's
//! `a_burst_of_one_is_on_message` pins to `on_message`), once with every
//! poll cut after an arbitrary number of frames by a test-local decorator
//! on the replicas' link. Every [`TICK_EVERY`] rounds the manual clock moves
//! one ballot-check period, which fires the lease timer together with Ω's
//! and the log's; the group is delivered to quiet before each move, so
//! every `ALIVE` arrives before any receive timer expires, Figure 3
//! suspects nobody, and Ω stays on replica 0. The run ends with the stepper's
//! shutdown drain. Both runs must apply every submitted write exactly once,
//! ack it exactly once, pass `check_consistency` and
//! `check_read_linearizability`, and end with the same key-value map.
//! Unbatched (`batch_max = 1`) slot assignment is the submission order
//! whatever the cut, so there the full store digest — which also hashes
//! each client's `(seq, slot)` cursor — must match too; batched, a burst
//! legitimately packs slots differently, and the digest is compared across
//! the replicas of a run instead.

use irs_net::wire::decode_payload;
use irs_net::{Frame, MemNetwork, MemTransport, NetError, Transport, Wire};
use irs_obs::names;
use irs_runtime::Stepper;
use irs_svc::loadgen::{
    check_consistency, check_read_linearizability, key_for, seq_of_value, value_for, AckedWrite,
    ClientAcks, ClientReads, ObservedRead,
};
use irs_svc::{KvOp, KvWrite, ReadTier, SvcConfig, SvcMsg, SvcReplica, SvcReply};
use irs_types::{LeaderOracle, ProcessId, Protocol};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

const N: usize = 5;
const CLIENTS: u64 = 12;
const KEYS: u64 = 3;
/// Rounds between clock moves.
const TICK_EVERY: usize = 3;
/// One move of the clock: the replicas' ballot-check period, which is the
/// lease timer's period and the log's check period.
const CHECK_PERIOD: u64 = 80;

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

/// The replicas' link, its polls cut: each poll ends after the next cut's
/// frame count (cycled), or sooner when the link runs dry.
struct Cut {
    link: MemTransport,
    cuts: Vec<usize>,
    next: usize,
    left: usize,
}

impl Cut {
    fn new(link: MemTransport, cuts: &[usize]) -> Self {
        Cut {
            link,
            cuts: cuts.to_vec(),
            next: 1,
            left: cuts[0],
        }
    }

    /// Ends the poll and arms the next cut.
    fn end_poll(&mut self) -> Result<Option<Frame>, NetError> {
        self.left = self.cuts[self.next % self.cuts.len()];
        self.next += 1;
        Ok(None)
    }
}

impl Transport for Cut {
    fn send(&mut self, from: ProcessId, to: ProcessId, payload: &[u8]) -> Result<(), NetError> {
        self.link.send(from, to, payload)
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError> {
        if self.left == 0 {
            return self.end_poll();
        }
        match self.link.recv(timeout)? {
            Some(frame) => {
                self.left -= 1;
                Ok(Some(frame))
            }
            None => self.end_poll(),
        }
    }
}

/// The group on the stepper and the clients on their endpoint.
struct Group {
    stepper: Stepper<SvcReplica, Cut>,
    clients: Vec<Client>,
    endpoint: MemTransport,
}

impl Group {
    fn new(batch_max: usize, scripts: Vec<Vec<bool>>, cuts: &[usize]) -> Self {
        let config = SvcConfig::new(N, scripts.len())
            .with_batching(batch_max, 4)
            .with_snapshot_interval(0);
        let mut owner = vec![0; N];
        owner.resize(N + scripts.len(), 1);
        let mut endpoints = MemNetwork::grouped(&owner);
        let endpoint = endpoints.pop().expect("the clients' endpoint");
        let link = Cut::new(endpoints.pop().expect("the replicas' endpoint"), cuts);
        let replicas = (0..N as u64).map(|i| config.replica(pid(i))).collect();
        let clients = scripts
            .into_iter()
            .enumerate()
            .map(|(i, script)| Client::new(N as u64 + i as u64, script))
            .collect();
        Group {
            stepper: Stepper::new(replicas, link, config.accept()),
            clients,
            endpoint,
        }
    }

    /// Turns the stepper until a turn delivers nothing, handing every
    /// reply that reached the clients' endpoint to its client.
    fn deliver_to_quiet(&mut self) {
        loop {
            let delivered = self.stepper.turn();
            while let Some(frame) = self.endpoint.recv(Duration::ZERO).expect("in-memory recv") {
                if let Ok(SvcMsg::Reply(reply)) = decode_payload(&frame.payload) {
                    self.clients[frame.to.index() - N].on_reply(&reply);
                }
            }
            if delivered == 0 {
                return;
            }
        }
    }

    /// Runs the scripts to completion: each round every idle client issues
    /// its next op, the clock moves on its cadence, and the group is
    /// delivered to quiet; then the stepper's shutdown drain. Returns the
    /// final replicas once they pass the verdict, and whether some replica
    /// took a burst of more than one frame.
    fn run(mut self) -> Result<(Vec<SvcReplica>, bool), String> {
        for round in 0.. {
            assert!(round < 10_000, "the group stopped making progress");
            if self.clients.iter().all(Client::done) {
                break;
            }
            for client in &mut self.clients {
                if let Some((to, msg)) = client.issue() {
                    let mut payload = Vec::new();
                    msg.encode(&mut payload);
                    let sent = self.endpoint.send(pid(client.id), to, &payload);
                    sent.expect("in-memory send");
                }
            }
            if round % TICK_EVERY == 0 {
                self.stepper.clock().advance(CHECK_PERIOD);
            }
            self.deliver_to_quiet();
            for i in 0..N as u64 {
                let leader = self.stepper.process(pid(i)).leader().index();
                if leader != 0 {
                    return Err(format!("round {round}: Ω at replica {i} moved to {leader}"));
                }
            }
        }
        let mut took_a_burst = false;
        for i in 0..N as u64 {
            let snap = self.stepper.snapshot(pid(i));
            // Ω staying put means something only if its rounds ran.
            if snap.receiving_round < 3 {
                return Err(format!("replica {i}: Ω closed fewer than two rounds"));
            }
            took_a_burst |= snap.gauge(names::FRAMES_DELIVERED) > snap.gauge(names::BURSTS);
        }
        let replicas = self.stepper.finish();
        verdict(&replicas, &self.clients)?;
        Ok((replicas, took_a_burst))
    }
}

/// The end-state verdict shared by both runs.
fn verdict(replicas: &[SvcReplica], clients: &[Client]) -> Result<(), String> {
    let writes: u64 = clients.iter().map(|c| c.seq).sum();
    for c in clients {
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
    for r in replicas {
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
    let refs: Vec<&SvcReplica> = replicas.iter().collect();
    let acks: Vec<ClientAcks> = clients.iter().map(|c| c.acks.clone()).collect();
    check_consistency(&refs, &acks)?;
    let reads: Vec<ClientReads> = clients.iter().map(|c| c.reads.clone()).collect();
    check_read_linearizability(&reads)
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
        let reference = Group::new(batch_max, scripts_from(&seeds), &[1]).run();
        let (reference, _) = reference.unwrap_or_else(|why| panic!("frame at a time: {why}"));
        let bursty = Group::new(batch_max, scripts_from(&seeds), &cuts).run();
        let (bursty, took_a_burst) =
            bursty.unwrap_or_else(|why| panic!("bursts of {cuts:?}: {why}"));
        let (store, ref_store) = (bursty[0].store(), reference[0].store());
        prop_assert_eq!(store.map(), ref_store.map(), "bursts of {:?} changed the state", cuts);
        if batch_max == 1 {
            let (digest, ref_digest) = (store.digest(), ref_store.digest());
            prop_assert_eq!(digest, ref_digest, "bursts of {:?} changed a write's slot", cuts);
        }
        // The cut is exercised, not decorative: some replica took a real
        // burst whenever the schedule offered one.
        if cuts.iter().any(|&c| c >= 16) {
            prop_assert!(took_a_burst);
        }
    }
}
