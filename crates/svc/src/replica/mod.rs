//! One service replica: the replicated log plus the KV apply loop plus the
//! client request handling, as a single sans-IO [`Protocol`].
//!
//! # The three planes
//!
//! *Writes.* The leader sequences a client's write into the log, applies
//! the decided prefix to its [`KvStore`] and acks the client once the
//! write's effect is in the store. A replica that does not lead redirects
//! to its Ω output; a retry of the client's latest applied write is
//! re-acked without sequencing it again.
//!
//! *Reads.* The lease plane lets a stable leader serve linearizable reads
//! without logging them: every [`TIMER_LEASE`] period the leader probes
//! the others, and a quorum of grants makes its lease valid. When the
//! lease is uncertain (just elected, grants lost, Ω flickering) a
//! lease-tier read degrades to the read-index path: it is queued with the
//! decided frontier as its read index, leadership is re-confirmed by a
//! quorum of grants for a probe round **started after the read arrived**,
//! and the answer waits until the apply cursor covers the read index.
//! Stale-tier reads skip coordination entirely: any replica answers from
//! its applied prefix, so the answer is a committed (possibly old) state —
//! never an unacked in-flight write.
//!
//! *The apply loop.* Each turn ends by adopting a parked snapshot, applying
//! what was decided (the acks), driving the log's window, answering the
//! reads that became ready, handing over the log's frames behind all of
//! those replies, and committing the WAL before any of it leaves.
//!
//! # The parts
//!
//! [`SvcReplica`] is a composition. Each part is a plain sans-IO struct
//! that owns the fields of one job; none of them sees the log, the action
//! buffer or a message. They are handed Ω's output, their own id, the
//! apply cursor or the decided frontier, and return verdicts; this file
//! builds and sends the replies.
//!
//! * `lease.rs` — **owns** the period clock, the probe round, its grants
//!   and validity, and the follower's open grant; **hides** when a round
//!   opens, when a grant is given, when a lease is valid and when it ends.
//! * `reads.rs` — **owns** the read-index queue and the three tier
//!   counters; **hides** which path a read takes and when a queued read is
//!   ready.
//! * `session.rs` — **owns** `awaiting`; **hides** what a request and an
//!   apply owe the client.
//! * this file — **owns** the log, the store, the cursor, the snapshot
//!   interval, durability and the turn counters; **hides** the order in
//!   which a turn consults the parts, the apply / snapshot / install loop
//!   and persist-before-send.
//!
//! # The rule table
//!
//! One numbered rule per transition, in the format of the log's table
//! (`irs_consensus`'s `log/mod.rs`). Every handler branch cites its rule.
//! "Ω" is the log's oracle output, Fig. 3's `leader()`: the only output of
//! the paper's algorithm the lease plane reads.
//!
//! | # | transition | fires when | reads | writes, sends | owner |
//! |---|---|---|---|---|---|
//! | R1 | door | a `Request` whose command does not parse as a `KvWrite` | — | `requests`; nothing is sent | `mod` |
//! | R2 | re-ack | a request for the client's latest applied seq | the store's `last_applied` | → `Applied` at that write's slot | `session` |
//! | R3 | stale drop | a request below the client's latest applied seq | as R2 | silence | `session` |
//! | R4 | write redirect | any other request while Ω names another replica | Ω | `redirects` → `Redirect` naming Ω | `session` |
//! | R5 | sequence | any other request while Ω names us | the log's decided and pending values | `awaiting`; `submit` unless decided or pending; the turn drives the window (R20) | `session`, `mod` |
//! | R6 | ack on apply | R22 applies a write somebody awaits | `awaiting`, whether its effect landed | the entry retired; landed → `Applied`, else silence | `session` |
//! | R7 | stale read | a `Stale` read, at any replica | the store, the apply cursor | `reads_stale` → `Value` with the cursor as witness | `reads` |
//! | R8 | read redirect | a `Lease` or `ReadIndex` read while Ω names another replica | Ω | `redirects` → `Redirect` naming Ω | `reads` |
//! | R9 | lease read | a `Lease` read at the leader while its lease is valid (R17) | `valid_until`, the store | `reads_lease` → `Value` | `reads`, `lease` |
//! | R10 | queue read | any other linearizable read at the leader | the decided frontier, `probe_rid` | the queue: read index = the frontier, confirming round = the next one | `reads` |
//! | R11 | serve queued | R17 may have confirmed a round; the end of every turn (R20) | `confirmed_rid`, the apply cursor | `reads_read_index` → `Value` for each read confirmed and covered | `reads` |
//! | R12 | redirect queued | R14 at a replica Ω no longer names | Ω | the queue emptied → `Redirect` each | `reads` |
//! | R13 | probe | the lease timer at a replica Ω names | `now` | `now`, `probe_rid`, `probe_sent_at`, the grants cleared → `LeaseProbe` to the others; the timer re-armed | `lease` |
//! | R14 | lease end on tick | the lease timer where Ω names another replica or `now ≥ valid_until` | Ω, `valid_until` | `now`, the grants cleared; a held lease ends, `lease_expiries`; not leading → R12; the timer re-armed | `lease` |
//! | R15 | grant | a `LeaseProbe` from `p`: Ω names `p`, `p` is not us, no unexpired grant to another replica | Ω, `granted`, `now` | `granted = (p, now + GRANT_PERIODS)` — counted from *receipt*; → `LeaseAck` granted or not | `lease` |
//! | R16 | grant ends own lease | R15 grants | `valid_until` | a held lease ends, `lease_expiries` | `lease` |
//! | R17 | refresh | a granted `LeaseAck` for the current round while Ω names us; `n − t` votes for the first time this round | the grants, R18's vote, `probe_sent_at` | `confirmed_rid`; `valid_until = max(·, probe_sent_at + LEASE_VALIDITY)` — counted from *send*, `lease_refreshes`; then R11 | `lease` |
//! | R18 | self vote | R17 counts votes | `granted`, `now` | the prober counts itself only while it holds no unexpired grant to another replica | `lease` |
//! | R19 | fresh-leader read point — **open** | R9 or R10 at a leader that has not yet learned every slot its predecessor acked | the frontier | nothing waits for those slots: the read index (R10) or the store (R9) can lie below an acked write. Only timing covers it: grants to the old leader hold for `GRANT_PERIODS`, and a reign is usually established within a period or two | `reads` |
//! | R20 | settle | the end of every turn: a message, a burst, a timer | `sequenced`, the cursor | R21; R22; the log's window driven if a request was sequenced or the cursor moved; R11; the log's frames behind every reply; R24 | `mod` |
//! | R21 | install | R20 finds a parked snapshot above the cursor whose blob validates | the blob | the store, the cursor, `last_snapshot`; `complete_install`; the snapshot persisted as in R23; `awaiting` cleared | `mod` |
//! | R22 | apply | R20, or `open` after replay, finds the cursor's slot decided | the decision | the store, the cursor; R6 per write; the apply histograms; then R23 | `mod` |
//! | R23 | snapshot | R22 moved the cursor `snapshot_interval` past the last snapshot | the store | the export, `truncate_below`, `snapshots_taken`; durable: the snapshot file and the WAL rotation | `mod` |
//! | R24 | persist | R20 at a durable replica | the log's WAL events | one WAL group commit, `wal_commits`, a `WalCommit` trace event — before the turn's frames leave | `mod` |
//! | R25 | log traffic | a `Log` message; any timer but the lease's; start; quiesce | — | the log's handlers; its frames behind the turn's replies | `mod` |
//! | R26 | stray reply | a `Reply` at a replica | — | nothing | `mod` |
//!
//! # Why the lease is safe
//!
//! A lease-tier read (R9) served from the leader's applied store observes
//! every write the service acknowledged, because acks are sent only after
//! local application at that same leader (R6) — provided no other replica
//! holds a valid lease at the same time. The rows that make it so:
//!
//! 1. *One leader per grant.* A replica grants only its Ω output, never
//!    itself, and only while it holds no unexpired grant to another
//!    replica (R15).
//! 2. *Grants outlive leases.* Validity counts `LEASE_VALIDITY` periods
//!    from the probe's *send* (R17); the grant binds for
//!    `GRANT_PERIODS = 2 × LEASE_VALIDITY` periods from its *receipt*
//!    (R15). Receipt never precedes send in real time, so every grant in a
//!    quorum outlives the lease it made, as long as no replica's timer runs
//!    more than twice as fast as the leader's — far beyond the drift of
//!    timers driven at one configured tick. These are purely local period
//!    clocks: the clock-rate adversary of ROADMAP item 3(d) attacks exactly
//!    this row pair.
//! 3. *The prober's own vote is exclusive too.* Granting another replica
//!    ends the granter's lease (R16), and a prober counts itself only while
//!    it holds no unexpired grant to another replica (R18). Without these
//!    two rows an Ω flicker at the leader lets it grant a rival and keep (or
//!    re-acquire) its own lease beside the rival's.
//! 4. *Quorums intersect.* Two leases valid at once would need two vote
//!    quorums of `n − t` out of `n` with `t < n/2`; they share a replica
//!    whose vote (1) and (3) make exclusive for longer than (2)'s window.
//!
//! Ω stability — the paper's intermittent rotating star — is what keeps the
//! grants flowing. R19 is what the argument does *not* cover: a lease says
//! who leads, not that the leader has learned what its predecessor acked.

mod lease;
mod reads;
mod session;

use crate::command::KvView;
use crate::durability::{Durability, Recovered};
use crate::msg::{ReadTier, ReplicaLogMsg, SvcMsg, SvcReply};
use crate::store::KvStore;
use crate::SvcConfig;
use irs_consensus::{Command, ConsensusConfig, ReplicatedLog};
use irs_omega::OmegaProcess;
use irs_types::{Actions, Introspect, LeaderOracle, ProcessId, Protocol, SystemConfig, TimerId};
use lease::Lease;
use reads::{Admit, PendingRead, Reads};
use session::{OnRequest, Session};
use std::sync::Arc;

/// The lease/read-index probe timer (disjoint from the oracle's 0..,
/// consensus' 200 and the log's 201).
pub const TIMER_LEASE: TimerId = TimerId::new(202);

/// One replica of the key-value service.
///
/// Wraps a [`ReplicatedLog`] whose slots decide *batches* of `Command`s,
/// applies its decided prefix to a [`KvStore`] (one slot may ack many
/// clients), and speaks the client protocol: requests are sequenced by the
/// leader, acknowledged once applied, and redirected when this replica
/// does not consider itself the leader. Every `snapshot_interval` applied
/// slots the replica exports its store and truncates the log's decided
/// prefix behind the snapshot, which bounds memory under sustained load; a
/// replica lagging past a truncation point converges by installing a
/// peer's snapshot instead of replaying slots.
#[derive(Debug)]
pub struct SvcReplica {
    log: ReplicatedLog<OmegaProcess, Command>,
    store: KvStore,
    /// The next log slot to apply (everything below is in the store).
    cursor: u64,
    /// Apply-slot interval between snapshots (0 = never truncate).
    snapshot_interval: u64,
    /// The cursor at the last truncation (or snapshot install).
    last_snapshot: u64,
    session: Session,
    requests: u64,
    redirects: u64,
    /// Protocol turns taken on inbound traffic (one per `on_burst`).
    bursts: u64,
    /// Turns that had durability events to commit.
    wal_commits: u64,
    snapshots_taken: u64,
    /// On-disk WAL + snapshot state; `None` runs the replica in-memory.
    durability: Option<Durability>,
    /// Optional observability hooks (metrics handles + flight-recorder
    /// tracer); `None` costs nothing on the hot path.
    obs: Option<ReplicaObs>,
    lease: Lease,
    reads: Reads,
    /// What the log recorded so far this turn. Lifted into the turn's
    /// actions only when it ends, behind every client reply: an ack never
    /// queues behind the fan-out of the next slot's `Accept`.
    log_out: Actions<ReplicaLogMsg>,
}

/// The registry handles and tracer a replica records onto once
/// [`SvcReplica::attach_obs`] ran.
#[derive(Debug)]
struct ReplicaObs {
    /// Per-slot state-machine apply latency, µs.
    apply_micros: irs_obs::HistHandle,
    /// Commands per decided batch (batch occupancy at apply time).
    batch_commands: irs_obs::HistHandle,
    /// Flight-recorder hook for WAL commits (the log layer holds its own
    /// clone for ballot/snapshot events).
    tracer: Option<irs_obs::Tracer>,
}

/// The ack of write `(client, seq)`, whose effect is in the store at `slot`.
fn applied(client: u64, seq: u64, slot: u64) -> SvcMsg {
    SvcMsg::Reply(SvcReply::Applied { client, seq, slot })
}

/// The answer to request or read `seq` of `client` at a replica that does
/// not lead: ask `leader`.
fn redirect(client: u64, seq: u64, leader: ProcessId) -> SvcMsg {
    SvcMsg::Reply(SvcReply::Redirect {
        client,
        seq,
        leader,
    })
}

impl SvcReplica {
    /// Builds replica `id` of `config`'s group over the paper's Figure 3 Ω
    /// algorithm, with resilience `t = ⌊(n−1)/2⌋` (callers check `n ≥ 3`;
    /// [`SvcConfig::replica`] is the public way in).
    ///
    /// With a data directory the replica is *durable*: it opens (or
    /// creates) `<data_dir>/node-<id>/`, replays the snapshot file plus the
    /// WAL's valid prefix into the store and the log, and from then on
    /// persists every accepted ballot and decided slot before the round's
    /// messages leave the handler. Restarting with the same directory
    /// resumes with every promise the previous incarnation made still in
    /// force, and a state machine that is digest-identical to deterministic
    /// replay of the durable prefix.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening or replaying the directory.
    pub(crate) fn open(id: ProcessId, config: &SvcConfig) -> std::io::Result<Self> {
        let system = SystemConfig::new(config.n, (config.n - 1) / 2).expect("valid replica system");
        // The service opts into the stable-reign fast path: one reign
        // prepare per leadership, Accept-only slots from then on.
        let cfg = ConsensusConfig::new(system)
            .with_batching(config.batch_max, config.pipeline_depth)
            .with_phase1_skip(true);
        let (durability, recovered) = match config.node_dir(id) {
            Some(dir) => Durability::open(&dir, config.fsync).map(|(d, r)| (Some(d), r))?,
            None => (None, Recovered::default()),
        };
        // A blob that passed the file checksum but fails semantic
        // validation is not one of our exports; recovery then starts from
        // the log floor alone and converges via peer catch-up.
        let installed = recovered
            .snapshot
            .as_ref()
            .and_then(|(upto, blob)| Some((*upto, KvStore::install(blob)?)));
        let (cursor, store) = installed.unwrap_or((0, KvStore::new()));
        let log_snapshot = recovered
            .snapshot
            .map(|(upto, blob)| (upto, Arc::from(blob)));
        let mut replica = SvcReplica {
            lease: Lease::new(cfg.ballot_check_period, system.quorum()),
            log: ReplicatedLog::recover(
                id,
                cfg,
                OmegaProcess::fig3(id, system),
                log_snapshot,
                recovered.decisions,
                recovered.accepted,
            ),
            store,
            cursor,
            snapshot_interval: config.snapshot_interval,
            last_snapshot: cursor,
            session: Session::default(),
            requests: 0,
            redirects: 0,
            bursts: 0,
            wal_commits: 0,
            snapshots_taken: 0,
            durability,
            obs: None,
            reads: Reads::default(),
            log_out: Actions::new(),
        };
        if replica.durability.is_some() {
            // R22: apply the replayed decided prefix before any message
            // flows; the drained actions go nowhere (clients re-learn
            // outcomes by retry).
            replica.apply_ready(&mut Actions::new());
            // Recording starts only now, so replay itself is never re-logged.
            replica.log.set_durable(true);
        }
        Ok(replica)
    }

    /// Wires this replica into the process-wide [`irs_obs::Obs`] handle:
    /// apply-latency and batch-occupancy histograms on the registry, WAL
    /// commit/latency histograms on the durability layer, and (when `obs`
    /// carries a flight recorder) trace events for the ballot lifecycle,
    /// snapshots and WAL commits.
    pub fn attach_obs(&mut self, obs: &irs_obs::Obs) {
        let shard = self.log.id().index();
        let tracer = obs.tracer(self.log.id().index() as u32);
        if let Some(t) = tracer.clone() {
            self.log.set_tracer(t);
        }
        if let Some(d) = self.durability.as_mut() {
            d.attach_obs(obs.registry(), shard);
        }
        self.obs = Some(ReplicaObs {
            apply_micros: obs.registry().histogram(irs_obs::names::SVC_APPLY_MICROS),
            batch_commands: obs.registry().histogram(irs_obs::names::SVC_BATCH_COMMANDS),
            tracer,
        });
    }

    /// The applied key-value state.
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    /// The underlying replicated log.
    pub fn log(&self) -> &ReplicatedLog<OmegaProcess, Command> {
        &self.log
    }

    /// Client requests received.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests answered with a redirect.
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Handles one client write. Returns whether it reached the sequencing
    /// path — the turn must then [`drive`](ReplicatedLog::drive) the log.
    fn on_request(&mut self, from: ProcessId, cmd: &Command, out: &mut Actions<SvcMsg>) -> bool {
        self.requests += 1;
        // R1: a command that does not parse as a KvWrite can never be
        // applied (the codec's equivalent of link noise).
        let Some(w) = KvView::parse(cmd.bytes()) else {
            return false;
        };
        let last = self.store.last_applied(w.client);
        let (leader, me) = (self.log.leader(), self.log.id());
        let write = (w.client, w.seq);
        match self.session.on_request(from, write, last, leader, me) {
            // R2.
            OnRequest::Reack(slot) => out.send(from, applied(w.client, w.seq, slot)),
            // R3.
            OnRequest::Stale => {}
            // R4.
            OnRequest::Redirect(leader) => {
                self.redirects += 1;
                out.send(from, redirect(w.client, w.seq, leader));
            }
            // R5: sequence the command once. The turn drives the window
            // before it ends — ack latency is bounded by round trips, not by
            // the periodic log check — and every request that arrived with
            // this one rides the same slot.
            OnRequest::Sequence => {
                if !self.log.is_decided_value(cmd) && !self.log.contains_pending(cmd) {
                    self.log.submit(cmd.clone());
                }
                return true;
            }
        }
        false
    }

    /// Answers one read under its tier's guarantee, or queues it on the
    /// read-index path.
    fn on_read(
        &mut self,
        from: ProcessId,
        (client, rid, key, tier): (u64, u64, &[u8], ReadTier),
        out: &mut Actions<SvcMsg>,
    ) {
        self.requests += 1;
        let leader = self.log.leader();
        let leading = leader == self.log.id();
        match self.reads.admit(tier, leading, self.lease.valid()) {
            // R7, R9, R19 (open).
            Admit::Serve => out.send(from, self.value(client, rid, key)),
            // R8.
            Admit::Redirect => {
                self.redirects += 1;
                out.send(from, redirect(client, rid, leader));
            }
            // R10, R19 (open).
            Admit::Queue => self.reads.pending.push(PendingRead {
                from,
                client,
                rid,
                key: key.to_vec(),
                read_index: self.log.frontier_slot(),
                confirm_rid: self.lease.next_rid(),
            }),
        }
    }

    /// The store's current binding of `key`, with the apply cursor as the
    /// staleness witness.
    fn value(&self, client: u64, rid: u64, key: &[u8]) -> SvcMsg {
        SvcMsg::Reply(SvcReply::Value {
            client,
            rid,
            value: self.store.get(key).map(<[u8]>::to_vec),
            frontier: self.cursor,
        })
    }

    /// One firing of the lease timer: advance the period clock, let a
    /// leader open the next probe round, and let a deposed leader redirect
    /// the reads it can no longer answer.
    fn on_lease_tick(&mut self, out: &mut Actions<SvcMsg>) {
        let leader = self.log.leader();
        match self.lease.tick(leader == self.log.id()) {
            // R13.
            Some(rid) => out.broadcast_others(SvcMsg::LeaseProbe { rid }),
            // R14, R12.
            None => {
                for r in self.reads.drain() {
                    out.send(r.from, redirect(r.client, r.rid, leader));
                }
            }
        }
        out.set_timer(TIMER_LEASE, self.lease.period);
    }

    /// R11: answers every queued read whose leadership round confirmed and
    /// whose read index the apply cursor has covered.
    fn serve_ready_reads(&mut self, out: &mut Actions<SvcMsg>) {
        for r in self.reads.take_ready(self.lease.confirmed_rid, self.cursor) {
            out.send(r.from, self.value(r.client, r.rid, &r.key));
        }
    }

    /// R22: applies every newly decided contiguous slot — each slot is a
    /// batch, applied atomically in order, and may ack many clients.
    /// Returns whether the cursor moved (the turn then drives the window).
    fn apply_ready(&mut self, out: &mut Actions<SvcMsg>) -> bool {
        let cursor_before = self.cursor;
        while let Some(batch) = self.log.decision(self.cursor).cloned() {
            let slot = self.cursor;
            self.cursor += 1;
            let apply_start = self.obs.as_ref().map(|_| std::time::Instant::now());
            // Each command is applied in place (an unparseable one is a
            // no-op entry), with the ack bookkeeping riding the per-write
            // callback.
            let session = &mut self.session;
            self.store.apply_commands(slot, batch.iter(), |w, fresh| {
                // R6.
                if let Some(client_ep) = session.on_apply((w.client, w.seq), fresh) {
                    out.send(client_ep, applied(w.client, w.seq, slot));
                }
            });
            if let (Some(o), Some(t0)) = (&self.obs, apply_start) {
                let shard = self.log.id().index();
                o.apply_micros
                    .record(shard, t0.elapsed().as_micros() as u64);
                o.batch_commands.record(shard, batch.len() as u64);
            }
        }
        // R23 guards itself: a cursor that did not move crosses no interval.
        self.maybe_snapshot();
        self.cursor > cursor_before
    }

    /// R23: exports the store and truncates the log once enough slots have
    /// been applied since the last snapshot. Compaction *always* proceeds:
    /// the log serves an export of any size to laggards over its chunk
    /// plane.
    fn maybe_snapshot(&mut self) {
        if self.snapshot_interval == 0 || self.cursor < self.last_snapshot + self.snapshot_interval
        {
            return;
        }
        self.last_snapshot = self.cursor;
        let blob = self.store.export();
        self.log.truncate_below(self.cursor, blob.as_slice());
        self.snapshots_taken += 1;
        self.persist_snapshot(self.cursor, &blob);
    }

    /// Writes the snapshot file and rotates the WAL down to the log's live
    /// tail. A durability failure is fatal: continuing would silently void
    /// the persist-before-send contract.
    fn persist_snapshot(&mut self, upto: u64, blob: &[u8]) {
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        // Events recorded earlier in this handler round are subsumed by
        // the rotation seed (sub-floor ones by the blob itself).
        let _ = self.log.take_wal_events();
        d.install_snapshot(upto, blob, self.log.retained(), self.log.accepted_states())
            .expect("persist snapshot + rotate WAL");
    }

    /// R24: commits this turn's durability events as one WAL group. Runs
    /// at the end of every turn — a timer, a message, or a whole burst —
    /// before the runtime releases the turn's outbound frames:
    /// persist-before-send.
    fn persist(&mut self) {
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        let events = self.log.take_wal_events();
        let syncs_before = d.syncs();
        d.append_events(&events).expect("append to WAL");
        if !events.is_empty() {
            self.wal_commits += 1;
            if let Some(t) = self.obs.as_ref().and_then(|o| o.tracer.as_ref()) {
                let fsynced = u64::from(d.syncs() > syncs_before);
                t.emit_now(irs_obs::EventKind::WalCommit, events.len() as u64, fsynced);
            }
        }
    }

    /// Routes one inbound message to its handler. Returns whether it put a
    /// request on the sequencing path (see [`Self::on_request`]).
    fn dispatch(&mut self, from: ProcessId, msg: &SvcMsg, out: &mut Actions<SvcMsg>) -> bool {
        match msg {
            // R25.
            SvcMsg::Log(m) => self.log.on_message(from, m, &mut self.log_out),
            SvcMsg::Request { cmd } => return self.on_request(from, cmd, out),
            SvcMsg::Read {
                client,
                rid,
                key,
                tier,
            } => self.on_read(from, (*client, *rid, key, *tier), out),
            // R15, R16.
            SvcMsg::LeaseProbe { rid } => {
                let granted = self.lease.probe(from, self.log.leader(), self.log.id());
                out.send(from, SvcMsg::LeaseAck { rid: *rid, granted });
            }
            // R17, R18, then R11.
            SvcMsg::LeaseAck { rid, granted: true } => {
                let me = self.log.id();
                self.lease.ack(from, *rid, self.log.leader() == me, me);
                self.serve_ready_reads(out);
            }
            // R17: a refused grant counts for nothing. R26: replies are
            // client-plane messages; at a replica they are stray traffic.
            SvcMsg::LeaseAck { granted: false, .. } | SvcMsg::Reply(_) => {}
        }
        false
    }

    /// R20: ends a turn — adopt a parked snapshot, apply what was decided
    /// (the acks), drive the window once (only when a request was
    /// sequenced or the cursor moved, so an idle follower's turn never
    /// touches the log's reign), answer the reads that became ready, hand
    /// over the log's frames behind all of those replies, and commit the
    /// WAL.
    fn settle(&mut self, sequenced: bool, out: &mut Actions<SvcMsg>) {
        self.maybe_install();
        let advanced = self.apply_ready(out);
        if sequenced || advanced {
            self.log.drive(&mut self.log_out);
        }
        self.serve_ready_reads(out);
        self.log_out.drain_into(out, SvcMsg::Log);
        self.persist();
    }

    /// R21: adopts a snapshot a peer sent us (we lag past its truncation
    /// point): validate the blob, replace the store, jump the cursor, and
    /// confirm the install to the log. A blob that fails validation is
    /// dropped — the log stays where it was and per-slot catch-up keeps
    /// trying.
    fn maybe_install(&mut self) {
        let Some((upto, blob)) = self.log.take_pending_install() else {
            return;
        };
        if upto <= self.cursor {
            return;
        }
        let Some(restored) = KvStore::install(&blob) else {
            return;
        };
        self.store = restored;
        self.cursor = upto;
        self.last_snapshot = upto;
        self.log.complete_install(upto, blob.clone());
        self.persist_snapshot(upto, &blob);
        // Anything we still owed an ack for is covered (or superseded) by
        // the snapshot; falling far enough behind to need an install means
        // those clients gave up on us long ago. A retry of a client's
        // latest applied write still re-acks (R2).
        self.session.awaiting.clear();
    }
}

impl Protocol for SvcReplica {
    type Msg = SvcMsg;

    fn id(&self) -> ProcessId {
        self.log.id()
    }

    fn on_start(&mut self, out: &mut Actions<Self::Msg>) {
        // R25.
        self.log.on_start(&mut self.log_out);
        self.log_out.drain_into(out, SvcMsg::Log);
        out.set_timer(TIMER_LEASE, self.lease.period);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, out: &mut Actions<Self::Msg>) {
        self.bursts += 1;
        let sequenced = self.dispatch(from, msg, out);
        self.settle(sequenced, out);
    }

    /// One turn for everything the poll handed over: every message is
    /// dispatched in order, then the window is driven, decisions are applied
    /// and the WAL is committed **once** for the burst — so the requests of
    /// one arrival burst share a slot instead of opening one each, and the
    /// acceptances of one burst share a commit. Persist-before-send holds by
    /// construction: the burst's frames leave only after this returns.
    fn on_burst(&mut self, burst: &[(ProcessId, Self::Msg)], out: &mut Actions<Self::Msg>) {
        self.bursts += 1;
        let mut sequenced = false;
        for (from, msg) in burst {
            sequenced |= self.dispatch(*from, msg, out);
        }
        self.settle(sequenced, out);
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Actions<Self::Msg>) {
        if timer == TIMER_LEASE {
            self.on_lease_tick(out);
        } else {
            // R25.
            self.log.on_timer(timer, &mut self.log_out);
        }
        self.settle(false, out);
    }

    /// The log's held announcements, lifted: after a stop every replica the
    /// frames reach holds what this one acked.
    fn on_quiesce(&mut self, out: &mut Actions<Self::Msg>) {
        // R25.
        self.log.on_quiesce(&mut self.log_out);
        self.log_out.drain_into(out, SvcMsg::Log);
    }
}

impl LeaderOracle for SvcReplica {
    fn leader(&self) -> ProcessId {
        self.log.leader()
    }
}

impl Introspect for SvcReplica {
    fn snapshot(&self) -> irs_types::Snapshot {
        use irs_obs::names;
        let mut snap = self.log.snapshot();
        let d = self.durability.as_ref();
        snap.extra.extend([
            (names::APPLIED, self.store.applied()),
            (names::KV_ENTRIES, self.store.len() as u64),
            (names::KV_DIGEST, self.store.digest()),
            (names::DUP_SKIPS, self.store.dup_skips()),
            (names::AWAITING, self.session.awaiting.len() as u64),
            (names::REQUESTS, self.requests),
            (names::REDIRECTS, self.redirects),
            (names::BURSTS, self.bursts),
            (names::WAL_COMMITS, self.wal_commits),
            (names::SNAPSHOTS_TAKEN, self.snapshots_taken),
            (names::READS_LEASE, self.reads.lease),
            (names::READS_READ_INDEX, self.reads.read_index),
            (names::READS_STALE, self.reads.stale),
            (names::LEASE_REFRESHES, self.lease.refreshes),
            (names::LEASE_EXPIRIES, self.lease.expiries),
            (names::WAL_APPENDED, d.map_or(0, Durability::appended)),
            (names::WAL_SYNCS, d.map_or(0, Durability::syncs)),
            (names::DECIDED_AHEAD, self.log.decided_ahead() as u64),
        ]);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::lease::{GRANT_PERIODS, LEASE_VALIDITY};
    use super::*;
    use crate::command::{KvOp, KvWrite};
    use irs_consensus::LogMsg;
    use irs_types::Destination;

    /// The `R<k>` numbers a line mentions.
    fn rows_in(line: &str) -> Vec<u32> {
        let b = line.as_bytes();
        (0..b.len())
            .filter(|&i| b[i] == b'R' && (i == 0 || !b[i - 1].is_ascii_alphanumeric()))
            .filter_map(|i| {
                let digits: String = line[i + 1..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                digits.parse().ok()
            })
            .collect()
    }

    /// The rule table and the code agree: every row of the module docs'
    /// table is cited by a handler comment in one of the four files, and
    /// every row a handler cites is in the table.
    #[test]
    fn every_rule_row_is_cited_and_every_citation_is_a_row() {
        let files = [
            include_str!("mod.rs"),
            include_str!("lease.rs"),
            include_str!("reads.rs"),
            include_str!("session.rs"),
        ];
        let table: Vec<u32> = files[0]
            .lines()
            .filter(|l| l.starts_with("//! | R"))
            .map(|l| rows_in(l)[0])
            .collect();
        assert_eq!(
            table,
            (1..=table.len() as u32).collect::<Vec<_>>(),
            "rows are numbered R1..Rk in order"
        );
        let cited: std::collections::BTreeSet<u32> = files
            .iter()
            .flat_map(|f| f.lines().take_while(|l| !l.starts_with("#[cfg(test)]")))
            .map(str::trim_start)
            .filter(|l| l.starts_with("//") && !l.starts_with("//!"))
            .flat_map(rows_in)
            .collect();
        let table: std::collections::BTreeSet<u32> = table.into_iter().collect();
        let uncited: Vec<_> = table.difference(&cited).collect();
        let unknown: Vec<_> = cited.difference(&table).collect();
        assert!(uncited.is_empty(), "rows no handler cites: {uncited:?}");
        assert!(
            unknown.is_empty(),
            "citations of rows the table lacks: {unknown:?}"
        );
    }

    /// The five-replica group (`t = 2`) every test here runs in.
    fn config() -> SvcConfig {
        SvcConfig::new(5, 0)
    }

    fn write(client: u64, seq: u64) -> KvWrite {
        KvWrite {
            client,
            seq,
            op: KvOp::Put {
                key: format!("k{client}").into_bytes(),
                value: seq.to_le_bytes().to_vec(),
            },
        }
    }

    /// Routes service messages among replicas until quiescence (timers are
    /// not modelled; the caller fires them explicitly). Sends addressed to
    /// endpoints outside the replica group — client acks — are returned.
    fn route(
        replicas: &mut [SvcReplica],
        mut pending: Vec<(ProcessId, Actions<SvcMsg>)>,
    ) -> Vec<(ProcessId, SvcMsg)> {
        let n = replicas.len();
        let mut to_clients = Vec::new();
        while let Some((from, actions)) = pending.pop() {
            let (sends, _, _) = actions.into_parts();
            for send in sends {
                let targets: Vec<usize> = match send.dest {
                    Destination::To(q) if q.index() < n => vec![q.index()],
                    Destination::To(q) => {
                        to_clients.push((q, send.msg));
                        continue;
                    }
                    Destination::AllOthers => (0..n).filter(|i| *i != from.index()).collect(),
                    Destination::All => (0..n).collect(),
                };
                for t in targets {
                    let mut out = Actions::new();
                    replicas[t].on_message(from, &send.msg, &mut out);
                    pending.push((ProcessId::new(t as u32), out));
                }
            }
        }
        to_clients
    }

    #[test]
    fn leader_sequences_applies_and_acks_a_request() {
        let mut replicas: Vec<SvcReplica> = (0..5)
            .map(|i| config().replica(ProcessId::new(i)))
            .collect();
        // p1 is the initial Ω leader. A client at endpoint 7 asks it to put.
        let client_ep = ProcessId::new(7);
        let cmd = write(7, 1).encode();
        let mut out = Actions::new();
        replicas[0].on_message(client_ep, &SvcMsg::Request { cmd }, &mut out);
        // The event-driven fast path acts right on request arrival — no
        // waiting for the periodic log check. With the phase-1 skip on,
        // the first request opens the reign prepare (slot ballots follow
        // Accept-only once a promise quorum answers).
        assert!(
            out.sends()
                .iter()
                .any(|s| matches!(s.msg, SvcMsg::Log(LogMsg::PrepareReign { .. }))),
            "request arrival must open the reign: {:?}",
            out.sends().len()
        );
        assert_eq!(replicas[0].log.pending_len(), 1);
        // Message routing then decides, applies at the leader and acks the
        // client. No timer fires while routing, so the followers hold the
        // batch accepted and wait for the announcement…
        let acks = route(&mut replicas, vec![(ProcessId::new(0), out)]);
        assert_eq!(replicas[0].store().applied(), 1);
        for r in &replicas[1..] {
            assert_eq!(r.store().applied(), 0, "replica {} ran ahead", r.id());
        }
        // …which the leader's next timer turn or the host's stop hands over.
        let mut out = Actions::new();
        replicas[0].on_quiesce(&mut out);
        let late = route(&mut replicas, vec![(ProcessId::new(0), out)]);
        assert!(late.is_empty(), "an announcement acks nobody: {late:?}");
        for r in &replicas {
            assert_eq!(r.store().applied(), 1, "replica {} lags", r.id());
            assert_eq!(r.store().get(b"k7"), Some(1u64.to_le_bytes().as_slice()));
        }
        let applied_acks: Vec<_> = acks
            .iter()
            .filter(|(to, msg)| {
                *to == client_ep
                    && matches!(
                        msg,
                        SvcMsg::Reply(SvcReply::Applied {
                            client: 7,
                            seq: 1,
                            slot: 0
                        })
                    )
            })
            .collect();
        assert_eq!(applied_acks.len(), 1, "exactly one ack: {acks:?}");
    }

    /// A five-replica group (batch 8 × depth 4) whose p0 reigns with an empty
    /// window: one routed write established the reign and decided slot 0,
    /// which p0 has applied and not announced yet.
    fn reigning_group() -> Vec<SvcReplica> {
        let mut replicas: Vec<SvcReplica> = (0..5)
            .map(|i| {
                config()
                    .with_batching(8, 4)
                    .with_snapshot_interval(0)
                    .replica(ProcessId::new(i))
            })
            .collect();
        let mut out = Actions::new();
        let cmd = write(99, 1).encode();
        replicas[0].on_message(ProcessId::new(99), &SvcMsg::Request { cmd }, &mut out);
        route(&mut replicas, vec![(ProcessId::new(0), out)]);
        assert!(replicas[0].log.reign_established());
        assert_eq!(replicas[0].store().applied(), 1);
        replicas
    }

    /// The `(slot, batch length, noted slots)` of every `Accept` broadcast
    /// in `out`, plain or noting.
    fn accept_broadcasts(out: &Actions<SvcMsg>) -> Vec<(u64, usize, Vec<u64>)> {
        out.sends()
            .iter()
            .filter_map(|s| match (&s.dest, &s.msg) {
                (
                    Destination::AllOthers,
                    SvcMsg::Log(LogMsg::Slot {
                        slot,
                        msg: irs_consensus::PaxosMsg::Accept { v, .. },
                    }),
                ) => Some((*slot, v.len(), vec![])),
                (
                    Destination::AllOthers,
                    SvcMsg::Log(LogMsg::AcceptNoting {
                        slot,
                        v,
                        noted_from,
                        noted_len,
                        ..
                    }),
                ) => Some((
                    *slot,
                    v.len(),
                    (*noted_from..noted_from + noted_len).collect(),
                )),
                _ => None,
            })
            .collect()
    }

    /// The tentpole: eight requests that arrive together fill one slot. Frame
    /// at a time, the first four each open a slot of one (the window is four
    /// deep) and the rest wait for a decision.
    #[test]
    fn a_burst_of_requests_opens_one_slot_for_all_of_them() {
        let burst: Vec<(ProcessId, SvcMsg)> = (10..18)
            .map(|c| {
                let cmd = write(c, 1).encode();
                (ProcessId::new(c as u32), SvcMsg::Request { cmd })
            })
            .collect();

        let leader = &mut reigning_group()[0];
        let mut out = Actions::new();
        leader.on_burst(&burst, &mut out);
        assert_eq!(
            accept_broadcasts(&out),
            vec![(1, 8, vec![0])],
            "one Accept of 8, carrying slot 0's decision"
        );
        assert_eq!(out.sends().len(), 1, "and nothing else");
        assert_eq!(leader.session.awaiting.len(), 8);

        let leader = &mut reigning_group()[0];
        let mut out = Actions::new();
        for (from, msg) in &burst {
            leader.on_message(*from, msg, &mut out);
        }
        assert_eq!(
            accept_broadcasts(&out),
            vec![
                (1, 1, vec![0]),
                (2, 1, vec![]),
                (3, 1, vec![]),
                (4, 1, vec![])
            ],
            "frame at a time: four slots of one, four requests left waiting"
        );
        assert_eq!(leader.session.awaiting.len(), 8);
    }

    /// The decision turn: the vote that completes the quorum is answered
    /// with the client's ack first — no `Decide` fan-out in front of it, and
    /// the next slot's `Accept` (which carries the announcement) behind it.
    #[test]
    fn the_decision_turn_sends_the_ack_before_any_peer_frame() {
        let mut replicas = reigning_group();
        let leader = &mut replicas[0];
        let requests: Vec<(ProcessId, SvcMsg)> = (10..50)
            .map(|c| {
                let cmd = write(c, 1).encode();
                (ProcessId::new(c as u32), SvcMsg::Request { cmd })
            })
            .collect();
        // Forty requests: four slots of eight fill the window, eight wait.
        let mut opened = Actions::new();
        leader.on_burst(&requests, &mut opened);
        let (b, v) = opened
            .sends()
            .iter()
            .find_map(|s| match &s.msg {
                SvcMsg::Log(LogMsg::AcceptNoting { slot: 1, b, v, .. }) => Some((*b, v.clone())),
                _ => None,
            })
            .expect("slot 1 opens, noting slot 0");
        assert_eq!(accept_broadcasts(&opened).len(), 4);
        let vote = SvcMsg::Log(LogMsg::Slot {
            slot: 1,
            msg: irs_consensus::PaxosMsg::Accepted { b, v },
        });
        let mut first_vote = Actions::new();
        leader.on_message(ProcessId::new(1), &vote, &mut first_vote);
        assert!(first_vote.sends().is_empty(), "no quorum yet");
        let mut decision = Actions::new();
        leader.on_message(ProcessId::new(2), &vote, &mut decision);
        let (acks, peer): (Vec<_>, Vec<_>) = decision
            .sends()
            .iter()
            .partition(|s| matches!(s.msg, SvcMsg::Reply(SvcReply::Applied { slot: 1, .. })));
        assert_eq!(acks.len(), 8, "every client of the slot is acked");
        assert!(
            decision.sends()[..8]
                .iter()
                .all(|s| matches!(s.msg, SvcMsg::Reply(_))),
            "the acks lead the turn: {:?}",
            decision.sends()
        );
        // The window slid: the waiting eight open slot 5, which announces
        // slot 1 — the decision's only peer frame, and not a `Decide`.
        assert_eq!(peer.len(), 1);
        assert_eq!(accept_broadcasts(&decision), vec![(5, 8, vec![1])]);
    }

    /// The burst law at the replica: a burst of one records exactly what
    /// `on_message` records, for every message kind, at leader and follower.
    #[test]
    fn a_burst_of_one_is_on_message() {
        use crate::msg::ReadTier;
        let request = |c: u64| SvcMsg::Request {
            cmd: write(c, 1).encode(),
        };
        let cases: Vec<(usize, u32, SvcMsg)> = vec![
            (0, 10, request(10)),
            (3, 10, request(10)),
            (0, 99, request(99)), // a retry of the applied write: re-acked
            (0, 11, read_msg(11, 1, b"k99", ReadTier::Stale)),
            (0, 11, read_msg(11, 2, b"k99", ReadTier::ReadIndex)),
            (2, 0, SvcMsg::LeaseProbe { rid: 1 }),
            (
                0,
                1,
                SvcMsg::LeaseAck {
                    rid: 0,
                    granted: true,
                },
            ),
            (
                1,
                0,
                SvcMsg::Log(LogMsg::Slot {
                    slot: 1,
                    msg: irs_consensus::PaxosMsg::Decide {
                        v: irs_consensus::Batch::one(write(12, 1).encode()),
                    },
                }),
            ),
            (1, 0, SvcMsg::Log(LogMsg::Catchup { from: 0 })),
        ];
        for (at, from, msg) in cases {
            let from = ProcessId::new(from);
            let (mut single, mut burst) = (Actions::new(), Actions::new());
            reigning_group()[at].on_message(from, &msg, &mut single);
            reigning_group()[at].on_burst(&[(from, msg.clone())], &mut burst);
            assert_eq!(
                format!("{single:?}"),
                format!("{burst:?}"),
                "on_burst([m]) != on_message(m) at p{at} for {msg:?}"
            );
        }
    }

    #[test]
    fn non_leader_redirects_to_its_oracle_output() {
        let mut replica = config().replica(ProcessId::new(3));
        let mut out = Actions::new();
        replica.on_message(
            ProcessId::new(9),
            &SvcMsg::Request {
                cmd: write(9, 1).encode(),
            },
            &mut out,
        );
        assert_eq!(out.sends().len(), 1);
        assert!(matches!(
            out.sends()[0].msg,
            SvcMsg::Reply(SvcReply::Redirect { client: 9, seq: 1, leader }) if leader == ProcessId::new(0)
        ));
        assert_eq!(replica.redirects(), 1);
        assert_eq!(replica.log.pending_len(), 0);
    }

    #[test]
    fn applied_retry_is_acked_immediately_without_resequencing() {
        let mut replica = config().replica(ProcessId::new(0));
        let w = write(4, 1);
        // Pretend the write is already decided and applied.
        replica.store.apply(0, &w);
        let mut out = Actions::new();
        replica.on_message(
            ProcessId::new(9),
            &SvcMsg::Request { cmd: w.encode() },
            &mut out,
        );
        assert_eq!(out.sends().len(), 1);
        assert!(matches!(
            out.sends()[0].msg,
            SvcMsg::Reply(SvcReply::Applied {
                client: 4,
                seq: 1,
                slot: 0
            })
        ));
        assert_eq!(replica.log.pending_len(), 0, "no duplicate sequencing");
    }

    /// `Applied` must never be sent for a write whose effect did not land:
    /// a request below the client's last applied seq is a write the session
    /// filter rejected (or will reject) — it gets silence, not a false ack,
    /// and a decided-but-skipped entry is likewise never acked.
    #[test]
    fn stale_writes_are_never_acked_as_applied() {
        let mut replica = config().replica(ProcessId::new(0));
        replica.store.apply(0, &write(4, 1));
        replica.store.apply(1, &write(4, 2));
        // Request for seq 1 < last applied 2: dropped, not acked.
        let mut out = Actions::new();
        replica.on_message(
            ProcessId::new(9),
            &SvcMsg::Request {
                cmd: write(4, 1).encode(),
            },
            &mut out,
        );
        assert!(out.sends().is_empty(), "stale request must get silence");
        // A decided entry the store skips as stale is not acked either,
        // even with a client awaiting it.
        replica.session.awaiting.insert((4, 1), ProcessId::new(9));
        let mut out = Actions::new();
        // Force the decision through the log's own path: decide slot 0 of
        // a fresh instance view via note-decision-equivalent message flow
        // is heavy here, so emulate apply_ready directly.
        replica.cursor = 2;
        replica.log.on_message(
            ProcessId::new(1),
            &irs_consensus::LogMsg::Slot {
                slot: 2,
                msg: irs_consensus::PaxosMsg::Decide {
                    v: irs_consensus::Batch::one(write(4, 1).encode()),
                },
            },
            &mut Actions::new(),
        );
        replica.apply_ready(&mut out);
        assert!(
            out.sends().is_empty(),
            "skipped stale decision must not be acked: {:?}",
            out.sends().len()
        );
        assert_eq!(replica.store.dup_skips(), 1);
        assert!(
            replica.session.awaiting.is_empty(),
            "awaiting entry is retired"
        );
    }

    #[test]
    fn unparseable_commands_are_dropped_at_the_door() {
        let mut replica = config().replica(ProcessId::new(0));
        let mut out = Actions::new();
        replica.on_message(
            ProcessId::new(9),
            &SvcMsg::Request {
                cmd: Command::new(vec![0xFF; 7]),
            },
            &mut out,
        );
        assert!(out.sends().is_empty());
        assert_eq!(replica.log.pending_len(), 0);
        // A stray Reply at a replica is ignored too.
        replica.on_message(
            ProcessId::new(1),
            &SvcMsg::Reply(SvcReply::Applied {
                client: 0,
                seq: 0,
                slot: 0,
            }),
            &mut out,
        );
        assert!(out.sends().is_empty());
    }

    #[test]
    fn snapshot_exposes_service_gauges() {
        let replica = config().replica(ProcessId::new(2));
        let snap = replica.snapshot();
        for gauge in [
            "applied",
            "kv_entries",
            "kv_digest",
            "dup_skips",
            "awaiting",
            "requests",
            "redirects",
            "bursts",
            "wal_commits",
            "slots_driven",
            "snapshots_taken",
            "reads_lease",
            "reads_read_index",
            "reads_stale",
            "lease_refreshes",
            "lease_expiries",
            "wal_appended",
            "wal_syncs",
            "retained_decisions",
            "decided_ahead",
            "compact_floor",
            "snapshot_installs",
            "decides_noted",
            "decides_flushed",
            "notes_unmatched",
        ] {
            assert!(snap.gauge(gauge).is_some(), "missing gauge {gauge}");
        }
    }

    /// One batched slot decision applies every command in order and acks
    /// every awaiting client — many acks per decision.
    #[test]
    fn a_batched_decision_acks_every_client_in_the_slot() {
        let mut replica = config()
            .with_batching(8, 2)
            .with_snapshot_interval(0)
            .replica(ProcessId::new(0));
        let (w1, w2, w3) = (write(7, 1), write(8, 1), write(9, 1));
        replica.session.awaiting.insert((7, 1), ProcessId::new(7));
        replica.session.awaiting.insert((8, 1), ProcessId::new(8));
        replica.session.awaiting.insert((9, 1), ProcessId::new(9));
        replica.log.on_message(
            ProcessId::new(1),
            &irs_consensus::LogMsg::Slot {
                slot: 0,
                msg: irs_consensus::PaxosMsg::Decide {
                    v: irs_consensus::Batch::new(vec![w1.encode(), w2.encode(), w3.encode()]),
                },
            },
            &mut Actions::new(),
        );
        let mut out = Actions::new();
        replica.apply_ready(&mut out);
        assert_eq!(replica.store.applied(), 3, "whole batch applied in order");
        let acks: Vec<u64> = out
            .sends()
            .iter()
            .filter_map(|s| match s.msg {
                SvcMsg::Reply(SvcReply::Applied {
                    client, slot: 0, ..
                }) => Some(client),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![7, 8, 9], "one ack per batched write");
        assert!(replica.session.awaiting.is_empty());
    }

    /// The compaction-stall regression: an export too large for one frame
    /// used to be silently dropped, leaving the whole decided log retained.
    /// It must compact anyway and keep the blob servable, two chunks of it.
    #[test]
    fn oversized_exports_still_compact_and_are_served_in_chunks() {
        let mut replica = config()
            .with_batching(1, 1)
            .with_snapshot_interval(8)
            .replica(ProcessId::new(0));
        // ~56 KiB of state: 72 keys × 800-byte values (commands stay under
        // the command/value caps; the export outgrows one snapshot chunk).
        for slot in 0..72u64 {
            let w = KvWrite {
                client: 7,
                seq: slot + 1,
                op: KvOp::Put {
                    key: format!("key-{slot:04}").into_bytes(),
                    value: vec![slot as u8; 800],
                },
            };
            replica.log.on_message(
                ProcessId::new(1),
                &irs_consensus::LogMsg::Slot {
                    slot,
                    msg: irs_consensus::PaxosMsg::Decide {
                        v: irs_consensus::Batch::one(w.encode()),
                    },
                },
                &mut Actions::new(),
            );
            replica.apply_ready(&mut Actions::new());
        }
        assert!(
            replica.store.export().len() > irs_consensus::SNAPSHOT_CHUNK_LEN,
            "test state must outgrow one chunk"
        );
        assert!(
            replica.log.retained_decisions() <= 8,
            "compaction must proceed past the cap, not stall: {} slots retained",
            replica.log.retained_decisions()
        );
        assert_eq!(replica.cursor, 72);
        assert!(replica.snapshot().gauge("compact_floor").unwrap() >= 64);
        // The oversized blob is the log's servable snapshot.
        let mut answer = Actions::new();
        let ask = SvcMsg::Log(LogMsg::Catchup { from: 0 });
        replica.on_message(ProcessId::new(3), &ask, &mut answer);
        let chunks = answer
            .sends()
            .iter()
            .filter(|s| matches!(s.msg, SvcMsg::Log(LogMsg::SnapshotChunk { total: 2, .. })));
        assert_eq!(chunks.count(), 2);
    }

    // ---- The lease/read plane ----

    /// Fires the lease timer once and returns what went out.
    fn lease_tick(replica: &mut SvcReplica) -> Actions<SvcMsg> {
        let mut out = Actions::new();
        replica.on_timer(TIMER_LEASE, &mut out);
        out
    }

    /// Grants the current probe round from `granters` (enough for quorum
    /// with n = 5, t = 2 when two grant).
    fn grant_round(replica: &mut SvcReplica, rid: u64, granters: &[u32]) -> Actions<SvcMsg> {
        let mut out = Actions::new();
        for &g in granters {
            replica.on_message(
                ProcessId::new(g),
                &SvcMsg::LeaseAck { rid, granted: true },
                &mut out,
            );
        }
        out
    }

    fn read_msg(client: u64, rid: u64, key: &[u8], tier: crate::msg::ReadTier) -> SvcMsg {
        SvcMsg::Read {
            client,
            rid,
            key: key.to_vec(),
            tier,
        }
    }

    /// The lease fast path: a probe round broadcast on the timer, a grant
    /// quorum refreshing the lease, then a lease-tier read answered
    /// locally with zero extra messages.
    #[test]
    fn a_granted_lease_serves_leader_reads_locally() {
        use crate::msg::ReadTier;
        let mut leader = config().replica(ProcessId::new(0));
        leader.store.apply(0, &write(7, 1));
        leader.cursor = 1;
        let out = lease_tick(&mut leader);
        assert!(
            out.sends()
                .iter()
                .any(|s| matches!(s.msg, SvcMsg::LeaseProbe { rid: 1 })
                    && matches!(s.dest, Destination::AllOthers)),
            "the leader opens probe round 1 on the first tick"
        );
        assert!(!leader.lease.valid(), "no quorum yet");
        grant_round(&mut leader, 1, &[1, 2]);
        assert!(leader.lease.valid(), "two grants + self = quorum of 3");
        assert_eq!(leader.lease.refreshes, 1);
        let mut out = Actions::new();
        leader.on_message(
            ProcessId::new(9),
            &read_msg(7, 5, b"k7", ReadTier::Lease),
            &mut out,
        );
        let values: Vec<_> = out
            .sends()
            .iter()
            .filter_map(|s| match &s.msg {
                SvcMsg::Reply(SvcReply::Value {
                    client: 7,
                    rid: 5,
                    value,
                    frontier,
                }) => Some((value.clone(), *frontier)),
                _ => None,
            })
            .collect();
        assert_eq!(
            values,
            vec![(Some(1u64.to_le_bytes().to_vec()), 1)],
            "served immediately from the applied store"
        );
        assert_eq!(leader.reads.lease, 1);
        assert_eq!(leader.reads.read_index, 0);
    }

    /// A lease-tier read under an uncertain lease degrades to the
    /// read-index path: queued until a probe round *started after the
    /// read* reaches a grant quorum and the cursor covers the read index.
    #[test]
    fn an_uncertain_lease_falls_back_to_a_read_index_round() {
        use crate::msg::ReadTier;
        let mut leader = config().replica(ProcessId::new(0));
        let mut out = Actions::new();
        leader.on_message(
            ProcessId::new(9),
            &read_msg(9, 1, b"nope", ReadTier::Lease),
            &mut out,
        );
        assert!(
            out.sends().is_empty(),
            "no lease yet: the read must wait, not answer early"
        );
        assert_eq!(leader.reads.pending.len(), 1);
        // The next probe round confirms leadership after the read arrived.
        lease_tick(&mut leader);
        let out = grant_round(&mut leader, 1, &[1, 2]);
        let answered = out.sends().iter().any(|s| {
            matches!(
                &s.msg,
                SvcMsg::Reply(SvcReply::Value {
                    client: 9,
                    rid: 1,
                    value: None,
                    ..
                })
            )
        });
        assert!(answered, "confirmed round answers the queued read");
        assert_eq!(leader.reads.read_index, 1);
        assert!(leader.reads.pending.is_empty());
    }

    /// An explicitly read-index read takes the quorum round even while a
    /// lease is live — the caller asked for the always-coordinated tier.
    #[test]
    fn read_index_tier_always_takes_the_quorum_round() {
        use crate::msg::ReadTier;
        let mut leader = config().replica(ProcessId::new(0));
        lease_tick(&mut leader);
        grant_round(&mut leader, 1, &[1, 2]);
        assert!(leader.lease.valid());
        let mut out = Actions::new();
        leader.on_message(
            ProcessId::new(9),
            &read_msg(9, 2, b"k", ReadTier::ReadIndex),
            &mut out,
        );
        assert_eq!(leader.reads.pending.len(), 1, "queued, not served");
        lease_tick(&mut leader);
        let out = grant_round(&mut leader, 2, &[1, 2]);
        assert!(out
            .sends()
            .iter()
            .any(|s| matches!(&s.msg, SvcMsg::Reply(SvcReply::Value { rid: 2, .. }))));
        assert_eq!(leader.reads.read_index, 1);
    }

    /// An unrefreshed lease expires after its validity window, is counted,
    /// and lease-tier reads queue again instead of serving stale
    /// leadership.
    #[test]
    fn an_unrefreshed_lease_expires_and_stops_serving() {
        use crate::msg::ReadTier;
        let mut leader = config().replica(ProcessId::new(0));
        lease_tick(&mut leader);
        grant_round(&mut leader, 1, &[1, 2]);
        assert!(leader.lease.valid());
        // Validity is counted from the send period; ticking past it with
        // no further grants must expire the lease.
        for _ in 0..=LEASE_VALIDITY {
            lease_tick(&mut leader);
        }
        assert!(!leader.lease.valid());
        assert_eq!(leader.lease.expiries, 1);
        let mut out = Actions::new();
        leader.on_message(
            ProcessId::new(9),
            &read_msg(9, 3, b"k", ReadTier::Lease),
            &mut out,
        );
        assert!(out.sends().is_empty(), "expired lease must not serve");
        assert_eq!(leader.reads.pending.len(), 1);
        assert_eq!(leader.reads.lease, 0);
    }

    /// Followers grant only their own Ω leader output, and replicas never
    /// probe for themselves.
    #[test]
    fn followers_grant_only_their_omega_leader() {
        let mut follower = config().replica(ProcessId::new(3));
        // p1 (id 0) is the initial Ω output everywhere.
        let mut out = Actions::new();
        follower.on_message(ProcessId::new(0), &SvcMsg::LeaseProbe { rid: 1 }, &mut out);
        assert!(out.sends().iter().any(|s| matches!(
            s.msg,
            SvcMsg::LeaseAck {
                rid: 1,
                granted: true
            }
        )));
        // A probe from a non-leader is acked but not granted.
        let mut out = Actions::new();
        follower.on_message(ProcessId::new(2), &SvcMsg::LeaseProbe { rid: 4 }, &mut out);
        assert!(out.sends().iter().any(|s| matches!(
            s.msg,
            SvcMsg::LeaseAck {
                rid: 4,
                granted: false
            }
        )));
        assert_eq!(
            follower.lease.granted,
            Some((ProcessId::new(0), GRANT_PERIODS))
        );
    }

    /// Linearizable tiers redirect at non-leaders; the stale tier answers
    /// anywhere.
    #[test]
    fn non_leaders_redirect_linearizable_reads_but_serve_stale_ones() {
        use crate::msg::ReadTier;
        let mut follower = config().replica(ProcessId::new(3));
        for tier in [ReadTier::Lease, ReadTier::ReadIndex] {
            let mut out = Actions::new();
            follower.on_message(ProcessId::new(9), &read_msg(9, 1, b"k", tier), &mut out);
            assert!(
                out.sends().iter().any(|s| matches!(
                    s.msg,
                    SvcMsg::Reply(SvcReply::Redirect { client: 9, seq: 1, leader })
                        if leader == ProcessId::new(0)
                )),
                "{tier:?} must redirect at a follower"
            );
        }
        let mut out = Actions::new();
        follower.on_message(
            ProcessId::new(9),
            &read_msg(9, 2, b"k", ReadTier::Stale),
            &mut out,
        );
        assert!(out.sends().iter().any(|s| matches!(
            &s.msg,
            SvcMsg::Reply(SvcReply::Value {
                client: 9,
                rid: 2,
                value: None,
                frontier: 0,
            })
        )));
        assert_eq!(follower.reads.stale, 1);
    }

    /// The stale-tier staleness bound: the answer reflects exactly the
    /// applied prefix — a write that is pending (submitted, undecided) or
    /// decided-but-unapplied is never visible, and the frontier witness
    /// equals the apply cursor.
    #[test]
    fn stale_reads_are_bounded_by_the_apply_frontier() {
        use crate::msg::ReadTier;
        let mut replica = config().replica(ProcessId::new(0));
        // Slot 0 decided and applied: k7 = 1.
        replica.log.on_message(
            ProcessId::new(1),
            &irs_consensus::LogMsg::Slot {
                slot: 0,
                msg: irs_consensus::PaxosMsg::Decide {
                    v: irs_consensus::Batch::one(write(7, 1).encode()),
                },
            },
            &mut Actions::new(),
        );
        replica.apply_ready(&mut Actions::new());
        // A newer write of the same key is in flight but NOT decided.
        replica.log.submit(write(7, 2).encode());
        let mut out = Actions::new();
        replica.on_message(
            ProcessId::new(9),
            &read_msg(9, 8, b"k7", ReadTier::Stale),
            &mut out,
        );
        let answer = out
            .sends()
            .iter()
            .find_map(|s| match &s.msg {
                SvcMsg::Reply(SvcReply::Value {
                    rid: 8,
                    value,
                    frontier,
                    ..
                }) => Some((value.clone(), *frontier)),
                _ => None,
            })
            .expect("stale read answered");
        assert_eq!(
            answer.0,
            Some(1u64.to_le_bytes().to_vec()),
            "the unacked in-flight write (seq 2) must not be visible"
        );
        assert_eq!(answer.1, 1, "frontier witness = apply cursor");
        assert!(answer.1 <= replica.log.frontier_slot());
    }

    /// The replica-level snapshot flow: an interval-triggered truncation at
    /// a loaded replica, then a wiped replica adopting the snapshot via the
    /// host-mediated install path.
    #[test]
    fn snapshots_truncate_and_install_across_replicas() {
        let mut loaded = config()
            .with_batching(1, 1)
            .with_snapshot_interval(4)
            .replica(ProcessId::new(0));
        for seq in 1..=10u64 {
            loaded.log.on_message(
                ProcessId::new(1),
                &irs_consensus::LogMsg::Slot {
                    slot: seq - 1,
                    msg: irs_consensus::PaxosMsg::Decide {
                        v: irs_consensus::Batch::one(write(7, seq).encode()),
                    },
                },
                &mut Actions::new(),
            );
            loaded.apply_ready(&mut Actions::new());
        }
        assert!(loaded.snapshots_taken >= 2, "interval 4 over 10 slots");
        assert!(
            loaded.log.retained_decisions() <= 4,
            "decided prefix truncated behind the snapshot"
        );
        // A wiped replica asks to catch up from slot 0 — below the floor —
        // and converges by install, ending digest-identical.
        let mut wiped = config()
            .with_batching(1, 1)
            .with_snapshot_interval(4)
            .replica(ProcessId::new(3));
        let mut answer = Actions::new();
        loaded.on_message(
            ProcessId::new(3),
            &SvcMsg::Log(irs_consensus::LogMsg::Catchup { from: 0 }),
            &mut answer,
        );
        assert!(
            matches!(
                answer.sends()[0].msg,
                SvcMsg::Log(LogMsg::SnapshotChunk {
                    chunk: 0,
                    total: 1,
                    ..
                })
            ),
            "sub-floor catch-up is served as a one-frame install"
        );
        for send in answer.sends() {
            wiped.on_message(ProcessId::new(0), &send.msg, &mut Actions::new());
        }
        assert_eq!(wiped.store.digest(), loaded.store.digest());
        assert_eq!(wiped.store.map(), loaded.store.map());
        assert_eq!(wiped.cursor, loaded.cursor);
        assert_eq!(wiped.store.last_applied(7), Some((10, 9)));
    }

    /// A durable replica opened over an empty directory has nothing to
    /// replay: it starts exactly like the in-memory replica of the same
    /// config — the same `on_start` actions and the same snapshot gauges.
    #[test]
    fn a_durable_replica_over_an_empty_directory_starts_like_an_in_memory_one() {
        let dir = std::env::temp_dir().join(format!("irs-replica-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tuned = config().with_batching(8, 4).with_snapshot_interval(64);
        let id = ProcessId::new(2);
        let mut memory = tuned.replica(id);
        let mut durable = tuned.clone().with_data_dir(&dir).replica(id);
        assert!(durable.durability.is_some() && memory.durability.is_none());
        let (mut from_memory, mut from_durable) = (Actions::new(), Actions::new());
        memory.on_start(&mut from_memory);
        durable.on_start(&mut from_durable);
        assert_eq!(format!("{from_durable:?}"), format!("{from_memory:?}"));
        assert_eq!(durable.snapshot(), memory.snapshot());
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
