//! Repeated consensus: a replicated, totally ordered log with batching,
//! pipelining, and snapshot-based compaction.
//!
//! Ω exists to make consensus live, and consensus exists (mostly) to build
//! total-order broadcast / state-machine replication — the application the
//! paper's introduction uses to motivate the whole line of work. A
//! [`ReplicatedLog`] runs one [`PaxosInstance`] per log slot; every process
//! observes the same prefix of decided values.
//!
//! The log is generic over the value domain `V` ([`LogValue`], default
//! [`Value`]): the Theorem 5 experiments replicate bare 64-bit values, the
//! key-value service (`irs-svc`) replicates byte [`Command`](crate::Command)s.
//!
//! # Message flow: who talks to whom
//!
//! Every slot message either leaves the slot's ballot owner or returns to
//! it (the flow is [`PaxosInstance`]'s; its module docs give the per-ballot
//! rules). On an established reign a slot costs `2(n − 1)` peer frames:
//!
//! 1. the leader accepts and votes for its own batch in the handler that
//!    opens the slot, and sends `Accept` to the `n − 1` others;
//! 2. each acceptor votes `Accepted` to the leader alone;
//! 3. at `n − t` votes (its own included) the leader decides — a client ack
//!    can leave from that handler, three replica hops after the request
//!    arrived, as the turn's first send — and *holds* the announcement: a
//!    follower that accepted `(b, v)` learns nothing from a `Decide` except
//!    "ballot `b` made its quorum", which the reign's next `Accept` can say
//!    in twelve bytes;
//! 4. the next `Accept` the leader emits at the reign ballot leaves as a
//!    [`LogMsg::AcceptNoting`]: the new slot's `Accept` plus the contiguous
//!    run of slots decided at that ballot since the last one (*the note*).
//!    A follower learns, for each noted slot, the batch it accepted at
//!    exactly `b` — "chosen at `b`" plus "one proposal per slot per ballot"
//!    is the whole safety argument, and only `b.proposer` is believed — in
//!    the handler that accepts the new slot, so the `Decided` record and the
//!    `Accepted` record share one WAL commit. A follower holding no such
//!    acceptance learns nothing and asks the leader to replay
//!    ([`LogMsg::Catchup`]) at once — the first time in a check period;
//!    further gaps in the same period wait for the period's own request.
//!
//! Whatever is still held when the log's next timer fires — any timer: the
//! oracle's send period is the shortest, well inside a follower's check
//! period — is announced by plain `Decide`, and so is everything held when
//! the host stops ([`Protocol::on_quiesce`]). Held decisions that are not one
//! run at the `Accept`'s ballot (out-of-order decisions in a deep window, a
//! reign that ended) get their own `Decide` too, so each decision is
//! announced exactly once. Only decisions the leader's *own quorum* made at
//! its *established reign ballot* are held; a decision at a per-slot ballot
//! (a stalled ballot's restart, the reign's fallback, `phase1_skip` off) or
//! one learned from somebody else is announced, or not, exactly as before.
//!
//! A follower therefore learns a decision with the reign's next `Accept`,
//! else within one oracle timer period, and so does whatever reads its state
//! without asking the leader (a `ReadTier::Stale` read in `irs-svc`, which
//! promises a committed state, not the latest). A `Decide` is never echoed
//! and never sent in reply to a vote: the `n − quorum` votes that trail every
//! decision, and late `Promise`s, are answers to the leader's own ballot.
//! Only the proposer-side messages `Prepare` and `Accept` arriving for a
//! decided slot mark their sender as lagging and are answered with the
//! decision (or, below the compaction floor, with a snapshot offer).
//!
//! Nothing is retransmitted on a timer; each lost frame is covered by a
//! mechanism that notices its *effect*:
//!
//! | lost | noticed by | recovered by |
//! |---|---|---|
//! | `Accept` to a follower | nobody, if a quorum still forms — until the note for that slot arrives and matches no acceptance | `Catchup` to the leader, from the note's handler |
//! | enough `Accept`s or `Accepted`s that no quorum forms | the leader: the slot's progress counter stands still over a check period | stalled-ballot restart (a higher per-slot ballot, with its phase 1) |
//! | the note (or the flushed `Decide`) to a follower that saw the slot's `Accept` | the follower: traffic at or above a frontier that stands still for a check period | `Catchup` to the leader, then a rotating peer |
//! | the note *and* the `Accept` (one frame carries both the note for slot `s` and the `Accept` of the next slot; or per-link loss over two frames) | the follower at the next noting `Accept` (no acceptance for the noted slot) or the next slot's traffic (a gap beyond its window); when idle, the leader's frontier advertisement ([`LogMsg::SnapshotOffer`], once per still check period) | `Catchup` |
//! | everything a replica that later leads missed | its `PrepareReign` names its frontier; or a follower that is ahead answers its advertisement with its own | `PromiseReign` replay of the decided history; `Catchup` |
//! | the leader itself, after its quorum and before any announcement left | Ω | the next reign's `PrepareReign`: quorum intersection puts the accepted batch in a counted report (a restarted acceptor's from its WAL), and it is re-proposed |
//! | the same, and no successor: Ω names nobody alive, or nobody who gets a reign through | a follower holding the slot's acceptance: its frontier stands still under seen traffic for more than `REIGN_RETRIES` (3) check periods, catch-ups unanswered | it finishes the slot itself with a per-slot ballot re-proposing the accepted batch (any process may run a ballot; the phase-1 value rule keeps it safe), the stalled replicas taking turns by period |
//! | our frames, silently, because a quorum promised a newer reign we never heard of | the leader: restarts keep stalling while nothing decides | the reign ends after `REIGN_RETRIES` such ticks and a fresh epoch is minted |
//! | a snapshot chunk | the puller: its assembly made no progress over a check period | it re-requests its lowest missing chunks from the same peer |
//!
//! # The parts
//!
//! [`ReplicatedLog`] is a composition. Each part is a plain sans-IO struct
//! that owns the fields of one job and hides one policy; none of them sees
//! the oracle, an instance, the action buffer or the tracer. They are handed
//! facts (the frontier, the floor, the leader, the depth, a ballot) and
//! return verdicts, or the fields of the frames to send in the order they
//! leave.
//!
//! * `msg.rs` — **owns** [`LogMsg`], [`LogEvent`] and the wire-facing
//!   bounds; **hides** nothing: it is the vocabulary.
//! * `decided.rs` — **owns** the compaction floor, the dense prefix of
//!   decided batches from the floor to the frontier, and the decisions held
//!   above the first gap; **hides** where a decision is kept (a slot below
//!   the frontier is an index, one above it a map entry) and how the
//!   frontier follows from that.
//! * `queue.rs` — **owns** `pending`, `inflight`, the on-demand
//!   `decided_index`; **hides** submission and forward dedup, the
//!   count-and-byte batch drain, every requeue / reclaim rule, the rotating
//!   forward window. Its header explains batching and pipelining, and when
//!   the dedup index is built.
//! * `reign.rs` — **owns** the leader's `Reign` state, the epochs and stall
//!   counters, the acceptor's range promise; **hides** when a reign begins,
//!   is re-broadcast, established, fallen back from and ended, and the
//!   promise / refuse / replay verdict. Its header carries the phase-1
//!   skip's safety argument.
//! * `announce.rs` — **owns** the held decisions; **hides** the note's run,
//!   the left-overs, the flush.
//! * `catchup.rs` — **owns** the seen-slot evidence, the still-frontier
//!   counters, the request rotation; **hides** when and whom to ask, the
//!   reply's slot-and-byte budget, when to give up on a leader. Its header
//!   says what counts as evidence of a gap.
//! * `transfer.rs` — **owns** the servable snapshot, the assembly, the
//!   parked install; **hides** chunk geometry, digests, the pull window,
//!   the resume. Its header describes compaction and the host-mediated
//!   install.
//! * this file — **owns** `instances`, `last_progress` and the durability
//!   events; **hides**
//!   the one way to open a ballot (`open_ballot`), the
//!   `record_acceptance`-before-emit discipline, and the order in which the
//!   parts are consulted.
//!
//! # The rule table
//!
//! One numbered rule per transition: the *conditions for advancement* over
//! *explicitly tracked data*. Every handler branch cites its rule.
//!
//! | # | transition | fires when | reads | writes, sends | owner |
//! |---|---|---|---|---|---|
//! | L1 | submit | the host calls `submit` | — | `pending` | `queue` |
//! | L2 | forward | a non-leader's check period; a `Forward` arrives | Ω's leader, `pending`, where last period's window ended; `decided_index`, `inflight` | the next `batch_max` pending values, wrapping → `Forward` to the leader; `pending`, then L9 | `queue` |
//! | L3 | reign prepare | a leader with the skip on holds no reign (`drive`, `check`), has caught up past the one it is preparing, or its prepare stalled ≤ `REIGN_RETRIES` checks | `max_epoch_seen`, `frontier` | `Reign::Preparing`, `reign_prepares` → `PrepareReign` to all | `reign` |
//! | L4 | reign promise | `PrepareReign` at an acceptor that knows no decision in the range | accepted state of `instances` ≥ `from` | the range promise, every instance ≥ `from` pre-promised → `PromiseReign` | `reign` |
//! | L5 | reign refuse | the acceptor promised a newer reign, or its report would exceed `REIGN_REPORT_MAX` / `_BYTES` (silence); it knows a decision in the range (→ L19) | as L4, the decided slots | — | `reign`, `decided` |
//! | L6 | reign establish | `n − t` promises for the prepared `(ballot, from)` | `promised`, `reported` | `Reign::Established`; each reported undecided slot → L9, then `drive` | `reign` |
//! | L7 | reign abandon | Ω names another leader; a ballot of a newer epoch is seen; the frontier stood still under an open proposal > `REIGN_RETRIES` checks; the skip is switched off | Ω, ballots, `stalls` | `reign = None`; on leadership loss `inflight` → `pending` | `reign`, `queue` |
//! | L8 | reign fall back | the prepare stalled > `REIGN_RETRIES` checks | `stalls` | `Reign::Fallback`: classic ballots | `reign` |
//! | L9 | open | a leader's window has a free slot and a value pending (`drive`); L6; a proposal's progress counter stood still over a check period; L25 | `pending`, the gate of L3 / L6 / L8, `last_progress` | `inflight`, the instance's proposal and ballot, `last_progress`, `slots_driven`, `phase1_skips`; the own acceptance as L10 → `Accept` to others, or `Prepare` to all | `mod` (`open_ballot`), `queue` |
//! | L10 | accept → vote to owner | an `Accept` passes the instance's promise check | the instance | its acceptance, `LogEvent::Accepted` *before* → `Accepted` to `b.proposer` | `mod` (`on_slot`, `record_acceptance`) |
//! | L11 | quorum → decide and hold | the owner counts `n − t` votes | the votes, the established reign ballot | L12; at the reign ballot the `Decide` is held, else it leaves now | `mod`, `announce` |
//! | L12 | learn | a decision arrives: own quorum, `Decide`, note, replay, recovery | the decided slots, the floor | the decision (the prefix, or ahead of a gap), `LogEvent::Decided` (once), `instances` pruned below the frontier; its values retired, a conflicting assignment requeued; then `drive` | `decided`, `mod` (`note_decision`), `queue` |
//! | L13 | note | an `Accept` leaves while decisions are held | `unannounced` | the lowest contiguous run at the `Accept`'s ballot → `AcceptNoting`; each left-over → `Decide`; `decides_noted`, `decides_flushed` | `announce` |
//! | L14 | flush | any timer of the log fires; `on_quiesce` | `unannounced` | everything held → `Decide` to others | `announce` |
//! | L15 | learn-noted / unmatched → ask | `AcceptNoting` from `b.proposer` | per noted slot, the acceptance at exactly `b` | L12 per match; else `notes_unmatched` and, first time in a check period, L18 to the sender | `mod` (`learn_noted`), `catchup` |
//! | L16 | straggler reply | `Prepare` / `Accept` for a decided or compacted slot | the decided slots, the floor | → `Decide`, or `SnapshotOffer { floor }`, to the sender | `decided`, `mod` (`on_slot`) |
//! | L17 | frontier advertisement | a leader's check finds its frontier > 0 where it was a period ago; an offer arrives | `frontier` | → `SnapshotOffer { frontier }` to others; a receiver below it → L18, above it → its own offer back | `mod` |
//! | L18 | catch-up ask | check: a seen slot ≥ `frontier + depth`, or ≥ `frontier` with the frontier still; L15; L17 | `max_seen_slot`, `last_check_frontier`, `catchups_sent`, Ω | `still_checks`, `catchups_sent` → `Catchup { frontier }` to the leader or a rotating peer | `catchup` |
//! | L19 | catch-up answer | `Catchup { from }`; L5 | the decided slots, the floor, the snapshot | from below the floor the snapshot's first window (L20), then ≤ `CATCHUP_BATCH` slots and `CATCHUP_BYTES` of `Decide`s | `decided`, `mod` (`answer_catchup`), `catchup`, `transfer` |
//! | L20 | chunk serve | L19 from below the floor; `SnapshotChunkRequest` | the snapshot | `chunks_served` → `SnapshotChunk`, or `SnapshotOffer` when the snapshot was replaced | `transfer` |
//! | L21 | chunk assemble | a `SnapshotChunk` within bounds whose digest matches | the assembly, `frontier` | the assembly → `SnapshotChunkRequest` for the next of the window; complete → the parked install | `transfer` |
//! | L22 | chunk resume | check: the assembly made no progress over a period | the assembly | `chunk_rerequests` → re-requests ≤ a window of missing chunks; a superseded assembly is dropped | `transfer` |
//! | L23 | truncate | the host calls `truncate_below(upto ≤ frontier, blob)` | `frontier` | the floor, the prefix below it drained from the front, the snapshot, `decided_index` dropped, rebuilt on demand | `decided`, `transfer`, `queue` |
//! | L24 | install | the host takes the parked blob, applies it, calls `complete_install` | the parked install | the floor; past the frontier, the run held ahead at the floor promoted; per-slot state below dropped, moot assignments requeued, the snapshot adopted, `snapshot_installs` | `decided`, `mod`, `transfer`, `queue` |
//! | L25 | leaderless finish | a non-leader's check: `still_checks > REIGN_RETRIES`, its turn, an acceptance held for the frontier slot | `still_checks`, the instance | L9 with the accepted batch, classic | `catchup`, `mod` |

mod announce;
mod catchup;
mod decided;
mod msg;
mod queue;
mod reign;
mod transfer;

pub use msg::{
    snapshot_chunk_count, LogEvent, LogMsg, CATCHUP_BATCH, CATCHUP_BYTES, MAX_SNAPSHOT_CHUNKS,
    NOTED_MAX, REIGN_REPORT_BYTES, REIGN_REPORT_MAX, SNAPSHOT_CHUNK_LEN, SNAPSHOT_CHUNK_WINDOW,
};

use crate::{Ballot, Batch, ConsensusConfig, LogValue, PaxosInstance, PaxosMsg, PaxosSend, Value};
use irs_obs::EventKind;
use irs_types::{
    Actions, Introspect, LeaderOracle, ProcessId, Protocol, RoundTagged, Snapshot, SystemConfig,
    TimerId,
};
use reign::{Gate, PrepareTick, PromiseVerdict};
use std::collections::BTreeMap;
use std::sync::Arc;
use transfer::{Chunk, Received, Served};

/// Timer used to periodically re-evaluate leadership and drive the lowest
/// undecided slot. The embedded oracle must not use timer ids at or above
/// this value.
pub const TIMER_LOG_CHECK: TimerId = TimerId::new(201);

type Out<O, V> = Actions<LogMsg<<O as Protocol>::Msg, V>>;

/// How [`ReplicatedLog::open_ballot`] opens a slot (L9).
enum Open<V> {
    /// `drive`: our own fresh batch — Accept-only at the reign ballot when
    /// one covers the slot, else (no reign, or a newer one outbid ours) the
    /// classic two-phase opening.
    Propose(Batch<V>, Option<Ballot>),
    /// L6: a batch the reign's promises reported, Accept-only at its ballot.
    Recover(Batch<V>, Ballot),
    /// A classic ballot one attempt higher: a stalled proposal's restart,
    /// or (L25) with the batch this replica accepted adopted first.
    Classic(Option<Batch<V>>),
}

/// One replica of the totally ordered log. `O` is the embedded eventual
/// leader oracle (normally [`irs_omega::OmegaProcess`]); `V` the value
/// domain.
#[derive(Debug)]
pub struct ReplicatedLog<O: Protocol, V = Value> {
    id: ProcessId,
    cfg: ConsensusConfig,
    oracle: O,
    /// What the oracle recorded this turn, before it is re-addressed.
    oracle_out: Actions<O::Msg>,
    /// Open consensus instances by slot (each slot decides a batch).
    instances: BTreeMap<u64, PaxosInstance<Batch<V>>>,
    /// The decided batches from the compaction floor up; the frontier.
    decided: decided::Decided<V>,
    /// Per-slot progress counters as of the previous check / open, used to
    /// restart only genuinely stalled ballots across the window.
    last_progress: BTreeMap<u64, u64>,
    /// Whether to record [`LogEvent`]s. Off by default: a host that never
    /// drains must not accumulate an unbounded queue.
    durable: bool,
    /// Durability events since the last [`take_wal_events`]
    /// (ReplicatedLog::take_wal_events) drain.
    wal_events: Vec<LogEvent<V>>,
    /// An instance's outbound messages on their way to `emit_slot`: one
    /// buffer, emptied by every emit, so a handler allocates none.
    sends: Vec<PaxosSend<Batch<V>>>,
    queue: queue::Queue<V>,
    reign: reign::ReignState<V>,
    held: announce::Held<V>,
    catchup: catchup::Catchup,
    transfer: transfer::Transfer,
    slots_driven: u64,
    phase1_skips: u64,
    /// `Accepted` votes refused by a slot's learner (not for the ballot this
    /// replica was running there): misrouted, stale or hostile frames.
    votes_dropped: u64,
    /// Optional flight-recorder hook: ballot lifecycle, catch-ups and
    /// snapshot traffic become [`irs_obs::TraceEvent`]s when set. The log
    /// itself is sans-IO; the tracer stamps wall-clock time only when the
    /// host built it with one.
    tracer: Option<irs_obs::Tracer>,
}

impl<V: LogValue> ReplicatedLog<irs_omega::OmegaProcess, V> {
    /// Builds a log replica over the paper's Figure 3 Ω algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the system does not have a correct majority (`t ≥ n/2`).
    pub fn over_omega(id: ProcessId, system: SystemConfig) -> Self {
        assert!(
            system.supports_consensus(),
            "replication requires t < n/2 (got n = {}, t = {})",
            system.n(),
            system.t()
        );
        Self::new(
            id,
            ConsensusConfig::new(system),
            irs_omega::OmegaProcess::fig3(id, system),
        )
    }
}

/// Drops the slots of `map` below `floor` — the one or two a decision
/// retires, popped from the front instead of a `retain` walking the map.
fn drop_below<T>(map: &mut BTreeMap<u64, T>, floor: u64) {
    while map.first_key_value().is_some_and(|(s, _)| *s < floor) {
        map.pop_first();
    }
}

impl<O, V> ReplicatedLog<O, V>
where
    O: Protocol + LeaderOracle + Introspect,
    O::Msg: RoundTagged,
    V: LogValue,
{
    /// Builds a log replica over an explicit oracle instance.
    ///
    /// # Panics
    ///
    /// Panics if `oracle.id() != id`.
    pub fn new(id: ProcessId, cfg: ConsensusConfig, oracle: O) -> Self {
        assert_eq!(oracle.id(), id, "oracle identity mismatch");
        ReplicatedLog {
            id,
            cfg,
            oracle,
            oracle_out: Actions::new(),
            instances: BTreeMap::new(),
            decided: decided::Decided::new(),
            last_progress: BTreeMap::new(),
            durable: false,
            wal_events: Vec::new(),
            sends: Vec::new(),
            queue: queue::Queue::new(),
            reign: reign::ReignState::new(),
            held: announce::Held::new(),
            catchup: catchup::Catchup::default(),
            transfer: transfer::Transfer::default(),
            slots_driven: 0,
            phase1_skips: 0,
            votes_dropped: 0,
            tracer: None,
        }
    }

    /// Rebuilds a replica from durably recovered state: the latest on-disk
    /// snapshot (if any), the decided slots replayed from the WAL, and the
    /// undecided slots' accepted acceptor state. The resulting log is
    /// exactly what a never-crashed replica holding the same facts would
    /// be: the snapshot sets the compaction floor, decisions advance the
    /// frontier, and restored acceptances keep every released vote binding.
    ///
    /// Recovery is deterministic: the same inputs (same on-disk bytes)
    /// always produce the same log state. Call
    /// [`set_durable`](ReplicatedLog::set_durable) *after* this, so
    /// replaying old decisions does not re-record them.
    pub fn recover(
        id: ProcessId,
        cfg: ConsensusConfig,
        oracle: O,
        snapshot: Option<(u64, Arc<[u8]>)>,
        decisions: impl IntoIterator<Item = (u64, Batch<V>)>,
        accepted: impl IntoIterator<Item = (u64, Ballot, Batch<V>)>,
    ) -> Self {
        let mut log = Self::new(id, cfg, oracle);
        if let Some((upto, state)) = snapshot {
            log.decided.truncate_below(upto);
            if upto > 0 {
                log.catchup.note_seen(upto - 1);
            }
            log.transfer.adopt(upto, state);
        }
        for (slot, batch) in decisions {
            log.note_decision(slot, batch);
        }
        for (slot, ballot, value) in accepted {
            if slot < log.decided.floor() || log.decided.contains(slot) {
                continue; // the decision (or the snapshot) supersedes it
            }
            log.catchup.note_seen(slot);
            log.instance(slot).restore_accepted(ballot, value);
        }
        log
    }

    /// Attaches a flight-recorder tracer; subsequent ballot openings,
    /// decisions, catch-ups and snapshot transfers are recorded on it.
    pub fn set_tracer(&mut self, tracer: irs_obs::Tracer) {
        self.tracer = Some(tracer);
    }

    #[inline]
    fn trace(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(t) = &self.tracer {
            t.emit_now(kind, a, b);
        }
    }

    /// Turns durability-event recording on or off (off by default). A host
    /// with a write-ahead log enables it and drains
    /// [`take_wal_events`](ReplicatedLog::take_wal_events) every round.
    pub fn set_durable(&mut self, durable: bool) {
        self.durable = durable;
    }

    /// Drains the durability events recorded since the last drain. The
    /// host persists them (and fsyncs, per policy) *before* releasing the
    /// round's outbound messages — persist-before-send is what makes a
    /// crash-restarted acceptor keep its promises.
    pub fn take_wal_events(&mut self) -> Vec<LogEvent<V>> {
        std::mem::take(&mut self.wal_events)
    }

    /// The retained decided slots in ascending order — the decision half
    /// of a rotated WAL's seed.
    pub fn retained(&self) -> impl Iterator<Item = (u64, &Batch<V>)> + '_ {
        self.decided.iter()
    }

    /// The undecided instances' accepted `(slot, ballot, batch)` acceptor
    /// state in ascending order — the acceptance half of a rotated WAL's
    /// seed.
    pub fn accepted_states(&self) -> impl Iterator<Item = (u64, Ballot, &Batch<V>)> + '_ {
        let undecided = self.instances.iter();
        let undecided = undecided.filter(|(s, _)| !self.decided.contains(**s));
        undecided.filter_map(|(s, i)| i.accepted().map(|(b, v)| (*s, *b, v)))
    }

    /// Snapshot chunks this replica has served (transfer-plane gauge).
    pub fn chunks_served(&self) -> u64 {
        self.transfer.chunks_served
    }

    /// Chunk re-requests this replica has issued after a stalled transfer
    /// window — each one is a resume after lost chunks.
    pub fn chunk_rerequests(&self) -> u64 {
        self.transfer.chunk_rerequests
    }

    /// Slots this replica opened directly in phase 2 under an established
    /// reign (each one saved a `Prepare` broadcast and its promises).
    pub fn phase1_skips(&self) -> u64 {
        self.phase1_skips
    }

    /// Reign-scoped prepares this replica has broadcast as a leader.
    pub fn reign_prepares(&self) -> u64 {
        self.reign.prepares
    }

    /// `Accepted` votes this replica's learners refused because they were
    /// not for a ballot it was running (see [`PaxosInstance::votes_dropped`]).
    pub fn votes_dropped(&self) -> u64 {
        self.votes_dropped
    }

    /// Returns `true` while this replica leads under an established reign
    /// (new slots take the Accept-only fast path).
    pub fn reign_established(&self) -> bool {
        self.reign.established().is_some()
    }

    /// Submits a value for eventual inclusion in the log (L1).
    pub fn submit(&mut self, v: V) {
        self.queue.submit(v);
    }

    /// The contiguous decided values from the compaction floor upward,
    /// flattened in slot-then-batch order. Before any truncation this is
    /// the whole decided prefix of the log.
    pub fn log(&self) -> Vec<V> {
        let dense = self.decided.frontier() - self.decided.floor();
        let contiguous = self.decided.values().take(dense as usize);
        contiguous.flat_map(|batch| batch.iter().cloned()).collect()
    }

    /// The decided batch of a specific slot, if known (and not truncated).
    pub fn decision(&self, slot: u64) -> Option<&Batch<V>> {
        self.decided.get(slot)
    }

    /// Number of values submitted (locally or by forwarding) and not yet
    /// decided — both unassigned and assigned to an in-flight slot.
    pub fn pending_len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if `v` is known to be decided in some retained slot.
    /// The first question after a truncation builds the dedup index over
    /// the retained slots (see `queue.rs`).
    pub fn is_decided_value(&mut self, v: &V) -> bool {
        self.queue.is_decided(v, &self.decided)
    }

    /// Returns `true` if `v` is queued (unassigned or assigned to an
    /// in-flight slot) and not yet decided.
    pub fn contains_pending(&self, v: &V) -> bool {
        self.queue.contains(v)
    }

    /// The lowest slot without a known decision (also the count of decided
    /// slots, truncated ones included).
    pub fn frontier_slot(&self) -> u64 {
        self.decided.frontier()
    }

    /// The lowest retained decision slot (0 until the first truncation).
    pub fn compact_floor(&self) -> u64 {
        self.decided.floor()
    }

    /// Number of decided batches currently held in memory: every slot from
    /// the compaction floor to the frontier, plus the decisions held above
    /// the first gap (one each, however far). Bounded by O(snapshot interval
    /// + pipeline window) when the host truncates periodically.
    pub fn retained_decisions(&self) -> usize {
        self.decided.len()
    }

    /// Number of decisions held above the frontier, the first undecided
    /// slot. Nonzero beside a frontier that does not move, this replica
    /// knows later slots and waits for the gap.
    pub fn decided_ahead(&self) -> usize {
        self.decided.ahead()
    }

    /// Read access to the embedded oracle.
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    fn depth(&self) -> u64 {
        self.cfg.pipeline_depth.max(1)
    }

    fn decide_frame(slot: u64, v: Batch<V>) -> LogMsg<O::Msg, V> {
        let msg = PaxosMsg::Decide { v };
        LogMsg::Slot { slot, msg }
    }

    /// Records `slot`'s outbound consensus messages. L13: an `Accept` that
    /// leaves while decisions are held carries off the run at its ballot as
    /// its note, behind a plain `Decide` for each held decision that is not
    /// part of it. Empties `sends` and returns it to the log's buffer.
    fn emit_slot(&mut self, slot: u64, mut sends: Vec<PaxosSend<Batch<V>>>, out: &mut Out<O, V>) {
        for (dest, msg) in sends.drain(..) {
            let msg = match msg {
                PaxosMsg::Accept { b, v } if !self.held.is_empty() => {
                    let ((noted_from, noted_len), left_over) = self.held.carry(b);
                    for (slot, v) in left_over {
                        out.broadcast_others(Self::decide_frame(slot, v));
                    }
                    match noted_len {
                        0 => LogMsg::Slot {
                            slot,
                            msg: PaxosMsg::Accept { b, v },
                        },
                        _ => LogMsg::AcceptNoting {
                            slot,
                            b,
                            v,
                            noted_from,
                            noted_len,
                        },
                    }
                }
                msg => LogMsg::Slot { slot, msg },
            };
            out.push(dest, msg);
        }
        self.sends = sends;
    }

    /// L18: asks `target` to replay the decided slots from our frontier up.
    fn ask_catchup(&mut self, target: ProcessId, out: &mut Out<O, V>) {
        let from = self.decided.frontier();
        out.send(target, LogMsg::Catchup { from });
        self.catchup.asked();
        self.trace(EventKind::CatchupSent, from, 0);
    }

    fn instance(&mut self, slot: u64) -> &mut PaxosInstance<Batch<V>> {
        let (id, system) = (self.id, self.cfg.system);
        let inst = self
            .instances
            .entry(slot)
            .or_insert_with(|| PaxosInstance::new(id, system));
        // A reign promise covers slots that do not exist yet: materialising
        // one inside the promised range starts it pre-promised (idempotent —
        // `pre_promise` only ever raises the bound).
        if let Some(b) = self.reign.promised_for(slot) {
            inst.pre_promise(b);
        }
        inst
    }

    /// The ballot of `slot`'s current acceptance, if any — read before a
    /// handler runs so [`record_acceptance`](Self::record_acceptance) can
    /// tell a fresh acceptance from a standing one.
    fn accepted_ballot(&self, slot: u64) -> Option<Ballot> {
        let inst = self.instances.get(&slot)?;
        inst.accepted().map(|(b, _)| *b)
    }

    /// L10: records a durability event if `slot`'s acceptor accepted
    /// something newer than `before` in the current handler. Every path on
    /// which an instance can accept calls this before the handler returns —
    /// a peer's `Accept`, and the proposer's own acceptance when it opens
    /// phase 2 — so the host commits the acceptance before the handler's
    /// sends (the vote, or the proposer's outbound `Accept`) leave.
    fn record_acceptance(&mut self, slot: u64, before: Option<Ballot>) {
        if !self.durable {
            return;
        }
        let Some((b, v)) = self.instances.get(&slot).and_then(|i| i.accepted()) else {
            return;
        };
        if before.is_none_or(|prev| *b > prev) {
            self.wal_events.push(LogEvent::Accepted {
                slot,
                ballot: *b,
                value: v.clone(),
            });
        }
    }

    /// L12: records a fresh decision, retires the pending / in-flight values
    /// it satisfies (reclaiming a conflicting slot assignment), and prunes
    /// the instance bookkeeping below the contiguous frontier.
    fn note_decision(&mut self, slot: u64, batch: Batch<V>) {
        self.catchup.note_seen(slot);
        let Some((batch, fresh)) = self.decided.insert(slot, batch) else {
            return; // a stale decide for a slot the snapshot already covers
        };
        let batch = batch.clone();
        if fresh {
            self.trace(EventKind::Decided, slot, batch.len() as u64);
            if self.durable {
                let value = batch.clone();
                self.wal_events.push(LogEvent::Decided { slot, value });
            }
        }
        self.queue.retire(slot, &batch, &self.decided);
        // Keep the window instances and everything above; decided slots
        // below the frontier only need their decision.
        let frontier = self.decided.frontier();
        drop_below(&mut self.instances, frontier);
        drop_below(&mut self.last_progress, frontier);
    }

    fn send_chunk(&self, to: ProcessId, c: Chunk, out: &mut Out<O, V>) {
        self.trace(
            EventKind::SnapshotChunk,
            u64::from(c.chunk),
            c.data.len() as u64,
        );
        let frame = LogMsg::SnapshotChunk {
            upto: c.upto,
            chunk: c.chunk,
            total: c.total,
            digest: c.digest,
            data: c.data,
        };
        out.send(to, frame);
    }

    /// L19: answers a catch-up request with the decided batches we hold from
    /// `first` upward, as many as one answer may carry. A request from below
    /// our compaction floor gets the snapshot first — the per-slot history
    /// it asks for no longer exists.
    fn answer_catchup(&mut self, from: ProcessId, first: u64, out: &mut Out<O, V>) {
        if first < self.decided.floor() {
            for chunk in self.transfer.open() {
                self.send_chunk(from, chunk, out);
            }
        }
        let replay = self.decided.range_from(first);
        let replayed = catchup::replay_len(replay.clone().map(|(_, v)| v.estimated_size()));
        for (slot, v) in replay.take(replayed) {
            out.send(from, Self::decide_frame(slot, v.clone()));
        }
    }

    /// Drops every retained decision below `upto`, remembering `state` as
    /// the snapshot that covers them (L23). The host calls this once it has
    /// durably applied all slots below `upto` and exported its state; from
    /// then on a replica lagging past `upto` converges via the chunk plane
    /// (one frame for a blob of at most [`SNAPSHOT_CHUNK_LEN`]) instead of
    /// per-slot replay.
    ///
    /// # Panics
    ///
    /// Panics if `upto` exceeds the frontier (undecided slots cannot be
    /// covered by a snapshot).
    pub fn truncate_below(&mut self, upto: u64, state: impl Into<Arc<[u8]>>) {
        let state = state.into();
        assert!(
            upto <= self.decided.frontier(),
            "cannot truncate undecided slots"
        );
        if upto <= self.decided.floor() {
            return;
        }
        self.trace(EventKind::SnapshotTaken, upto, state.len() as u64);
        self.decided.truncate_below(upto);
        self.transfer.adopt(upto, state);
        self.queue.drop_decided_index();
    }

    /// The install this replica received and has not yet applied, if any.
    /// The host validates and applies the blob to its state machine, then
    /// confirms with [`complete_install`](Self::complete_install); a blob
    /// that fails validation is simply dropped and the log is unchanged.
    pub fn take_pending_install(&mut self) -> Option<(u64, Arc<[u8]>)> {
        self.transfer.take_pending_install()
    }

    /// Confirms a snapshot install (L24): jumps the frontier to at least
    /// `upto`, drops all per-slot state below it, and adopts the blob as
    /// this replica's own servable snapshot. Call only after the host state
    /// machine reflects every slot below `upto`.
    pub fn complete_install(&mut self, upto: u64, state: impl Into<Arc<[u8]>>) {
        if upto <= self.decided.floor() {
            return;
        }
        self.decided.truncate_below(upto);
        self.transfer.adopt(upto, state.into());
        self.instances = self.instances.split_off(&upto);
        self.last_progress = self.last_progress.split_off(&upto);
        // The dedup index answers from the retained decisions only, so a
        // value decided in a retained slot is not re-queued. Assignments for
        // truncated slots are moot; their values go back in the queue so
        // nothing submitted is lost (those the snapshot already covers are
        // invisible here — the host's session filter absorbs the duplicates
        // this can produce).
        self.queue.drop_decided_index();
        self.queue.reclaim_below(upto, &self.decided);
        self.transfer.installs += 1;
        self.trace(EventKind::SnapshotInstalled, upto, 0);
    }

    /// L3: mints a fresh reign and broadcasts its prepare. Called by
    /// `drive`/`check` when this replica leads with `phase1_skip` on and no
    /// reign in progress.
    fn begin_reign(&mut self, out: &mut Out<O, V>) {
        let (b, from) = self.reign.begin(self.id, self.decided.frontier());
        self.trace(EventKind::BallotOpened, u64::MAX, b.reign_epoch());
        out.broadcast_all(LogMsg::PrepareReign { b, from });
    }

    /// L4, L5: the acceptor side of the reign prepare (the verdict is
    /// `reign.rs`'s; a refusal that replays is exactly what a per-slot
    /// `Prepare` for a decided slot gets, and the leader prepares again once
    /// it has caught up).
    fn on_prepare_reign(&mut self, from: ProcessId, b: Ballot, first: u64, out: &mut Out<O, V>) {
        let knows_more =
            first < self.decided.frontier() || self.decided.range_from(first).next().is_some();
        let accepted = self
            .instances
            .range(first..)
            .filter_map(|(s, i)| i.accepted().map(|(b, v)| (*s, *b, v)));
        let refuse_to_vouch = knows_more && from != self.id;
        let verdict = self.reign.on_prepare(b, first, refuse_to_vouch, accepted);
        match verdict {
            PromiseVerdict::Refuse => {}
            PromiseVerdict::Replay => self.answer_catchup(from, first, out),
            PromiseVerdict::Promise(accepted) => {
                for (_, inst) in self.instances.range_mut(first..) {
                    inst.pre_promise(b);
                }
                let promise = LogMsg::PromiseReign {
                    b,
                    from: first,
                    accepted,
                };
                out.send(from, promise);
            }
        }
    }

    /// L9, the one way to open a ballot: *accepted-before → adopt / set the
    /// proposal → start (skipped or classic) → progress → record the own
    /// acceptance → count and trace → emit*.
    fn open_ballot(&mut self, slot: u64, how: Open<V>, out: &mut Out<O, V>) {
        let accepted_before = self.accepted_ballot(slot);
        let mut sends = std::mem::take(&mut self.sends);
        let inst = self.instance(slot);
        let (reign, classic) = match how {
            Open::Propose(batch, reign) => {
                inst.set_proposal(batch);
                (reign, true)
            }
            Open::Recover(batch, b) => {
                inst.adopt_proposal(batch);
                (Some(b), false)
            }
            Open::Classic(adopt) => {
                if let Some(batch) = adopt {
                    inst.adopt_proposal(batch);
                }
                (None, true)
            }
        };
        if let Some(b) = reign {
            inst.start_ballot_skipped(b, &mut sends);
        }
        let skipped = !sends.is_empty();
        if !skipped && classic {
            inst.start_ballot(&mut sends);
        }
        let (progress, attempt) = (inst.progress_counter(), inst.ballots_started());
        self.last_progress.insert(slot, progress);
        // A skipped opening accepted our own batch just now: it must be
        // durable before the `Accept` in `sends` leaves.
        self.record_acceptance(slot, accepted_before);
        if !sends.is_empty() {
            self.slots_driven += 1;
            self.phase1_skips += u64::from(skipped);
            self.trace(EventKind::BallotOpened, slot, attempt);
        }
        self.emit_slot(slot, sends, out);
    }

    /// Event-driven fast path: if this process believes it leads, it opens
    /// ballots for undecided slots across the pipeline window, draining up
    /// to `batch_max` pending values into each slot it opens — *now*,
    /// instead of waiting for the next check tick.
    ///
    /// The timer-driven `check` remains the recovery path (it restarts
    /// stalled ballots); this method only ever opens a slot's *first*
    /// ballot, so calling it after every event is cheap and cannot thrash —
    /// a slot whose ballot is in flight is skipped until it decides and the
    /// window slides. The log calls it itself when a decision or a forwarded
    /// value arrives; the service layer calls it once at the end of every
    /// turn (a message, or a whole arrival burst) that sequenced a request
    /// or applied a decision — so requests that arrive together share a
    /// slot — which makes ack latency round-trip-bound instead of
    /// check-period-bound.
    pub fn drive(&mut self, out: &mut Out<O, V>) {
        if self.oracle.leader() != self.id {
            // L7: the fast path is only ever driven by the process Ω
            // currently points at.
            self.reign.abandon();
            return;
        }
        let reign = match self.reign.gate(self.cfg.phase1_skip) {
            Gate::Begin => return self.begin_reign(out),
            Gate::Wait => return,
            Gate::Open(reign) => reign,
        };
        let frontier = self.decided.frontier();
        let window = frontier..frontier.saturating_add(self.depth());
        for slot in window {
            if !self.queue.has_unassigned() {
                break;
            }
            // Skip a decided slot, one in flight, and one that carries an
            // orphaned proposal (assigned before a leadership bounce,
            // reclaimed since): peers may still finish it; we must not
            // re-drive it with values that now ride another slot.
            if self.decided.contains(slot)
                || self.queue.is_assigned(slot)
                || self.instance(slot).proposal().is_some()
            {
                continue;
            }
            let batch = self.queue.assign(slot, self.cfg.batch_max);
            let ballot = reign.and_then(|(b, from)| (slot >= from).then_some(b));
            self.open_ballot(slot, Open::Propose(batch, ballot), out);
        }
    }

    /// Handles one consensus message for `slot`.
    fn on_slot(
        &mut self,
        from: ProcessId,
        slot: u64,
        msg: PaxosMsg<Batch<V>>,
        out: &mut Out<O, V>,
    ) {
        if let PaxosMsg::Prepare { b }
        | PaxosMsg::Promise { b, .. }
        | PaxosMsg::Accept { b, .. }
        | PaxosMsg::Accepted { b, .. } = &msg
        {
            self.reign.note_epoch(*b);
        }
        self.catchup.note_seen(slot);
        // L16. Only the proposer-side messages mark their sender as a
        // straggler worth answering: a `Promise` or an `Accepted` answers
        // *our* ballot (the n − quorum votes that trail every decision are
        // the common case), and a `Decide` needs none.
        let from_proposer = matches!(msg, PaxosMsg::Prepare { .. } | PaxosMsg::Accept { .. });
        let known = self.decided.get(slot);
        let floor = self.decided.floor();
        if slot < floor || known.is_some() {
            if from_proposer {
                // The decision — or, gone, the snapshot that replaced it.
                let reply = match known {
                    Some(v) => Self::decide_frame(slot, v.clone()),
                    None => LogMsg::SnapshotOffer { upto: floor },
                };
                out.send(from, reply);
            }
            return;
        }
        // L11: a vote at our established reign ballot. Should it complete
        // the quorum, the announcement is held for the next `Accept`.
        let reign_vote = match &msg {
            PaxosMsg::Accepted { b, .. } => self.reign.established().filter(|at| at == b),
            _ => None,
        };
        let mut sends = std::mem::take(&mut self.sends);
        let accepted_before = self.accepted_ballot(slot);
        let inst = self.instance(slot);
        let dropped_before = inst.votes_dropped();
        inst.handle(from, msg, &mut sends);
        let decided = inst.decided().cloned();
        self.votes_dropped += inst.votes_dropped() - dropped_before;
        // L10: before the vote queued in `sends` can leave.
        self.record_acceptance(slot, accepted_before);
        if let Some(b) = reign_vote {
            let announcement = sends.pop_if(|(_, m)| matches!(m, PaxosMsg::Decide { .. }));
            if let Some((_, PaxosMsg::Decide { v })) = announcement {
                self.held.hold(slot, b, v);
            }
        }
        self.emit_slot(slot, sends, out);
        if let Some(v) = decided {
            // L12. A decision slides the window: open the next slot(s)
            // immediately if more values are queued.
            self.note_decision(slot, v);
            self.drive(out);
        }
    }

    /// L15: the note of an [`LogMsg::AcceptNoting`] from the owner of `b` —
    /// every slot in the run was chosen at `b`. For each one at or above the
    /// compaction floor and not yet decided here, the batch this replica
    /// accepted at exactly `b` is the chosen one (a ballot proposes one batch
    /// per slot) and is learned like a `Decide` carrying it. A slot without
    /// such an acceptance — never accepted, or accepted at another ballot —
    /// teaches nothing; the owner is asked to replay instead.
    fn learn_noted(&mut self, from: ProcessId, b: Ballot, run: (u64, u64), out: &mut Out<O, V>) {
        let end = run.0.saturating_add(run.1.min(NOTED_MAX));
        let mut unmatched = false;
        for slot in run.0.max(self.decided.floor())..end {
            if self.decided.contains(slot) {
                continue;
            }
            match self.instances.get(&slot).and_then(|i| i.accepted()) {
                Some((at, v)) if *at == b => {
                    let decide = PaxosMsg::Decide { v: v.clone() };
                    self.on_slot(from, slot, decide, out);
                }
                _ => unmatched = true,
            }
        }
        if unmatched && self.catchup.on_unmatched_note() {
            self.ask_catchup(from, out);
        }
    }

    fn check(&mut self, out: &mut Out<O, V>) {
        out.set_timer(TIMER_LOG_CHECK, self.cfg.ballot_check_period);
        let (frontier, n) = (self.decided.frontier(), self.cfg.system.n());
        // L22.
        if let Some((source, upto, missing)) = self.transfer.resume(frontier) {
            for chunk in missing {
                out.send(source, LogMsg::SnapshotChunkRequest { upto, chunk });
            }
        }
        // L18.
        let leader = self.oracle.leader();
        let checked = self
            .catchup
            .on_check(frontier, self.depth(), self.id, n, leader);
        if let Some(target) = checked.ask {
            self.ask_catchup(target, out);
        }
        if leader != self.id {
            // L7: discard any reign and reclaim its slot assignments.
            self.reign.abandon();
            self.queue.reclaim_below(u64::MAX, &self.decided);
            // L25. A leader acks from the handler that counts its quorum and
            // announces later; if it dies in between, the batch is chosen
            // and nobody alive knows. Decided at a per-slot ballot, the slot
            // is announced by an immediate `Decide` to everyone, replicas
            // that never saw its `Accept` included.
            if self.catchup.gives_up_on_a_leader(self.id, n) {
                let inst = self.instances.get(&frontier);
                if let Some((_, v)) = inst.and_then(|i| i.accepted()).cloned() {
                    self.open_ballot(frontier, Open::Classic(Some(v)), out);
                }
            }
            // L2.
            for v in self.queue.forward_window(self.cfg.batch_max) {
                out.send(leader, LogMsg::Forward { v: v.clone() });
            }
            return;
        }
        // L17. A replica that lost both a slot's `Accept` and its `Decide`
        // holds no evidence the slot exists, and in an idle system nothing
        // further would tell it. Under load the next slot's `Accept` carries
        // the news; a leader whose frontier stood still for a whole period
        // says it outright.
        if checked.stood_still && frontier > 0 {
            out.broadcast_others(LogMsg::SnapshotOffer { upto: frontier });
        }
        // L3, L8. A leader with nothing queued still establishes its reign
        // here, so the first burst of a quiet reign already skips phase 1.
        if self.cfg.phase1_skip {
            match self.reign.on_check(frontier) {
                PrepareTick::Begin => self.begin_reign(out),
                PrepareTick::Rebroadcast(b, from) => {
                    out.broadcast_all(LogMsg::PrepareReign { b, from })
                }
                PrepareTick::Nothing => {}
            }
        }
        // L9: restart genuinely stalled ballots across the window — every
        // instance that carries a proposal of ours, not just the assigned
        // slots: a leadership bounce reclaims the assignments (the values
        // must reach the new leader) but cannot unset an instance's
        // proposal, and such an *orphaned* slot still has to decide for the
        // frontier to ever advance.
        let proposals = self.instances.range(frontier..);
        let proposals: Vec<(u64, u64)> = proposals
            .filter(|(_, i)| i.proposal().is_some() && i.decided().is_none())
            .map(|(s, i)| (*s, i.progress_counter()))
            .collect();
        for &(slot, progress) in &proposals {
            if self.last_progress.insert(slot, progress) == Some(progress) {
                self.open_ballot(slot, Open::Classic(None), out);
            }
        }
        // L7.
        let stuck = !proposals.is_empty() && checked.stood_still;
        self.reign.on_check_stall(stuck);
        // Then open new slots for whatever is still queued.
        self.drive(out);
    }
}

impl<O, V> Protocol for ReplicatedLog<O, V>
where
    O: Protocol + LeaderOracle + Introspect,
    O::Msg: RoundTagged,
    V: LogValue,
{
    type Msg = LogMsg<O::Msg, V>;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Actions<Self::Msg>) {
        self.oracle.on_start(&mut self.oracle_out);
        self.oracle_out.drain_into(out, LogMsg::Omega);
        out.set_timer(TIMER_LOG_CHECK, self.cfg.ballot_check_period);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, out: &mut Actions<Self::Msg>) {
        match msg {
            LogMsg::Omega(m) => {
                self.oracle.on_message(from, m, &mut self.oracle_out);
                self.oracle_out.drain_into(out, LogMsg::Omega);
            }
            // L2. Open a slot for it right away if we lead (no-op
            // otherwise): forwarded traffic should not wait for the next
            // check tick either.
            LogMsg::Forward { v } => {
                if self.queue.accept_forward(v, &self.decided) {
                    self.drive(out);
                }
            }
            LogMsg::Catchup { from: first } => self.answer_catchup(from, *first, out),
            // L17.
            LogMsg::SnapshotOffer { upto } => {
                let frontier = self.decided.frontier();
                if *upto > frontier {
                    self.catchup.note_seen(upto - 1);
                    self.ask_catchup(from, out);
                } else if *upto < frontier {
                    // The advertiser is the one behind (an idle leader that
                    // missed the tail of its predecessor's reign): say so,
                    // and it will ask. Frontiers only grow and each reply
                    // needs a strict gap, so the exchange ends in a
                    // `Catchup` after at most three offers.
                    out.send(from, LogMsg::SnapshotOffer { upto: frontier });
                }
            }
            // L20.
            LogMsg::SnapshotChunkRequest { upto, chunk } => {
                match self.transfer.serve(*upto, *chunk) {
                    Served::Chunk(c) => self.send_chunk(from, c, out),
                    Served::Moved(upto) => out.send(from, LogMsg::SnapshotOffer { upto }),
                    Served::Nothing => {}
                }
            }
            // L21.
            LogMsg::SnapshotChunk {
                upto,
                chunk,
                total,
                digest,
                data,
            } => {
                let c = Chunk {
                    upto: *upto,
                    chunk: *chunk,
                    total: *total,
                    digest: *digest,
                    data: Arc::clone(data),
                };
                let frontier = self.decided.frontier();
                if let Received::Taken(next) = self.transfer.on_chunk(from, frontier, c) {
                    self.catchup.note_seen(upto - 1);
                    if let Some((source, upto, chunk)) = next {
                        out.send(source, LogMsg::SnapshotChunkRequest { upto, chunk });
                    }
                }
            }
            LogMsg::PrepareReign { b, from: first } => self.on_prepare_reign(from, *b, *first, out),
            // L6: recover the quorum's reported slots on the fast path,
            // then open queued values on it.
            LogMsg::PromiseReign {
                b,
                from: first,
                accepted,
            } => {
                let quorum = self.cfg.system.quorum();
                let established = self.reign.on_promise(from, *b, *first, accepted, quorum);
                let Some((ballot, reported)) = established else {
                    return;
                };
                for (slot, (_, v)) in reported {
                    if slot >= self.decided.frontier() && !self.decided.contains(slot) {
                        self.open_ballot(slot, Open::Recover(v, ballot), out);
                    }
                }
                self.drive(out);
            }
            LogMsg::Slot { slot, msg } => self.on_slot(from, *slot, msg.clone(), out),
            LogMsg::AcceptNoting {
                slot,
                b,
                v,
                noted_from,
                noted_len,
            } => {
                // Only the ballot's owner counted its votes.
                if from == b.proposer {
                    self.learn_noted(from, *b, (*noted_from, *noted_len), out);
                }
                let accept = PaxosMsg::Accept {
                    b: *b,
                    v: v.clone(),
                };
                self.on_slot(from, *slot, accept, out);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Actions<Self::Msg>) {
        // A decision no `Accept` has carried off by now gets its own frame:
        // the oracle's send period bounds how long a follower waits.
        self.on_quiesce(out);
        if timer == TIMER_LOG_CHECK {
            self.check(out);
        } else {
            self.oracle.on_timer(timer, &mut self.oracle_out);
            self.oracle_out.drain_into(out, LogMsg::Omega);
        }
    }

    /// L14.
    fn on_quiesce(&mut self, out: &mut Actions<Self::Msg>) {
        for (slot, v) in self.held.flush() {
            out.broadcast_others(Self::decide_frame(slot, v));
        }
    }
}

impl<O: Protocol + LeaderOracle, V> LeaderOracle for ReplicatedLog<O, V> {
    fn leader(&self) -> ProcessId {
        self.oracle.leader()
    }
}

impl<O, V> Introspect for ReplicatedLog<O, V>
where
    O: Protocol + LeaderOracle + Introspect,
    O::Msg: RoundTagged,
    V: LogValue,
{
    fn snapshot(&self) -> Snapshot {
        use irs_obs::names;
        let mut snap = self.oracle.snapshot();
        snap.extra.extend([
            (names::LOG_LEN, self.decided.frontier()),
            (names::PENDING, self.pending_len() as u64),
            (names::SLOTS_DRIVEN, self.slots_driven),
            (names::CATCHUPS_SENT, self.catchup.sent),
            (names::RETAINED_DECISIONS, self.decided.len() as u64),
            (names::COMPACT_FLOOR, self.decided.floor()),
            (names::SNAPSHOT_INSTALLS, self.transfer.installs),
            (names::PHASE1_SKIPS, self.phase1_skips),
            (names::REIGN_PREPARES, self.reign.prepares),
            (names::VOTES_DROPPED, self.votes_dropped),
            (names::DECIDES_NOTED, self.held.noted),
            (names::DECIDES_FLUSHED, self.held.flushed),
            (names::NOTES_UNMATCHED, self.catchup.notes_unmatched),
        ]);
        snap
    }
}

#[cfg(test)]
mod tests;
