//! A single-decree, ballot-based consensus instance (Paxos-style), written
//! independently of any I/O or timing machinery.
//!
//! The instance is *indulgent* in the sense of Guerraoui: its safety
//! (agreement, validity) never depends on the leader oracle behaving well —
//! quorum intersection alone protects it — while its liveness needs the
//! eventual leader that `irs-omega` provides (Theorem 5 of the paper:
//! Ω + a majority of correct processes ⇒ consensus).
//!
//! Quorums have size `n − t`; with `t < n/2` any two quorums intersect, which
//! is exactly the premise of Theorem 5.
//!
//! # Who talks to whom
//!
//! Phase 2 is *leader-centric*: every message of a ballot either leaves its
//! owner or returns to it, so a ballot costs a linear number of messages.
//!
//! * The owner sends `Prepare` to everyone and each acceptor answers
//!   `Promise` to the owner alone.
//! * With a promise quorum the owner accepts its own value through the very
//!   check every acceptor applies (`b ≥ promised`), counts that as its own
//!   vote without any loopback message, and sends `Accept` to the *others*.
//! * An acceptor that accepts `(b, v)` votes `Accepted` to `b.proposer`
//!   only. Quorum intersection — all that safety rests on — needs a quorum
//!   of acceptors to have accepted, not every learner to have heard it.
//! * The owner that counts `n − t` votes decides and records the one
//!   `Decide` of the ballot, addressed to all others. A process that
//!   receives a `Decide` records it and sends nothing, so everyone but the
//!   owner learns after the owner does: one hop later when the `Decide` is
//!   sent as recorded (this instance's single-decree composition, and every
//!   per-slot ballot of the replicated log), with the owner's next `Accept`
//!   when the replicated log holds a stable reign's announcement back to
//!   ride on it (rules L11 and L13 of the `log` module docs — the instance
//!   neither knows nor cares which).
//!
//! The learner therefore only counts votes for the ballot it currently runs
//! in phase 2. A vote for any other ballot — someone else's, or an own one
//! since abandoned — is misrouted, stale or hostile; it is dropped and
//! counted ([`PaxosInstance::votes_dropped`]).
//!
//! Nothing here retransmits. A lost `Accept` or `Accepted` shows up at the
//! owner as a ballot that stopped progressing
//! ([`PaxosInstance::progress_counter`]), which the driving protocol restarts
//! with a higher ballot; a lost `Decide` is recovered by the replicated
//! log's catch-up (rules L18 and L19 there), or in the single-decree
//! composition by the reliable links of the paper's model.
//!
//! The machinery is generic over the value domain `V` ([`LogValue`]): the
//! Theorem 5 experiments decide bare 64-bit [`Value`]s, the replicated
//! key-value service (`irs-svc`) decides [`Batch`](crate::Batch)es of byte
//! [`Command`](crate::Command)s (one ballot round trip decides a whole
//! batch — the lever behind the pipelined log's throughput). `V` defaults
//! to [`Value`], so single-decree callers never see the parameter.

use crate::{Ballot, LogValue, Value};
use irs_types::{Destination, ProcessId, SystemConfig};
use std::collections::{BTreeMap, BTreeSet};

/// Messages exchanged by a consensus instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PaxosMsg<V = Value> {
    /// Phase-1a: the ballot owner asks acceptors to promise.
    Prepare {
        /// The ballot being prepared.
        b: Ballot,
    },
    /// Phase-1b: an acceptor promises not to accept lower ballots and
    /// reports the highest value it has accepted so far.
    Promise {
        /// The ballot being promised.
        b: Ballot,
        /// The acceptor's highest accepted (ballot, value), if any.
        accepted: Option<(Ballot, V)>,
    },
    /// Phase-2a: the ballot owner asks acceptors to accept a value.
    Accept {
        /// The ballot.
        b: Ballot,
        /// The value, chosen according to the phase-1 rule.
        v: V,
    },
    /// Phase-2b: an acceptor tells the ballot owner (`b.proposer`, and nobody
    /// else) that it accepted `(b, v)`.
    Accepted {
        /// The ballot.
        b: Ballot,
        /// The accepted value.
        v: V,
    },
    /// A decided value: broadcast once, by the ballot owner that counted the
    /// vote quorum, and replayed point-to-point by the replicated log's
    /// catch-up. Receivers record it and never echo it.
    Decide {
        /// The decided value.
        v: V,
    },
}

impl<V: LogValue> PaxosMsg<V> {
    /// An estimate of the serialized size in bytes (tag + ballot fields +
    /// the value's own estimate), feeding communication-cost accounting.
    pub fn estimated_size(&self) -> usize {
        const BALLOT: usize = 12; // attempt u64 + proposer u32
        match self {
            PaxosMsg::Prepare { .. } => 1 + BALLOT,
            PaxosMsg::Promise { accepted, .. } => {
                1 + BALLOT
                    + 1
                    + accepted
                        .as_ref()
                        .map_or(0, |(_, v)| BALLOT + v.estimated_size())
            }
            PaxosMsg::Accept { v, .. } | PaxosMsg::Accepted { v, .. } => {
                1 + BALLOT + v.estimated_size()
            }
            PaxosMsg::Decide { v } => 1 + v.estimated_size(),
        }
    }
}

/// An outbound consensus message together with its destination.
pub type PaxosSend<V = Value> = (Destination, PaxosMsg<V>);

/// The state of one consensus instance at one process (every process plays
/// proposer, acceptor and learner).
#[derive(Clone, Debug)]
pub struct PaxosInstance<V = Value> {
    id: ProcessId,
    system: SystemConfig,
    /// My input value, if any.
    proposal: Option<V>,
    // --- acceptor state ---
    promised: Ballot,
    accepted: Option<(Ballot, V)>,
    // --- proposer state (only meaningful while I lead a ballot) ---
    current: Ballot,
    promises: BTreeMap<ProcessId, Option<(Ballot, V)>>,
    phase2_started: bool,
    // --- learner state ---
    /// Acceptors that voted for `current` (cleared whenever `current`
    /// moves): votes only ever reach the ballot's owner, so the current
    /// ballot's is the only tally there is to keep.
    votes: BTreeSet<ProcessId>,
    decided: Option<V>,
    // --- statistics ---
    ballots_started: u64,
    progress: u64,
    votes_dropped: u64,
}

impl<V: LogValue> PaxosInstance<V> {
    /// Creates an instance for process `id` in the given system.
    pub fn new(id: ProcessId, system: SystemConfig) -> Self {
        PaxosInstance {
            id,
            system,
            proposal: None,
            promised: Ballot::ZERO,
            accepted: None,
            current: Ballot::ZERO,
            promises: BTreeMap::new(),
            phase2_started: false,
            votes: BTreeSet::new(),
            decided: None,
            ballots_started: 0,
            progress: 0,
            votes_dropped: 0,
        }
    }

    /// Sets this process's input value (first call wins).
    pub fn set_proposal(&mut self, v: V) {
        if self.proposal.is_none() {
            self.proposal = Some(v);
        }
    }

    /// This process's input value, if any.
    pub fn proposal(&self) -> Option<&V> {
        self.proposal.as_ref()
    }

    /// The decided value, once known.
    pub fn decided(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// The acceptor's highest accepted `(ballot, value)`, if any. The
    /// replicated log compares this across a message delivery to detect
    /// fresh acceptances that must hit the write-ahead log before the
    /// corresponding vote is released.
    pub fn accepted(&self) -> Option<&(Ballot, V)> {
        self.accepted.as_ref()
    }

    /// Restores acceptor state from a durable record (crash recovery):
    /// afterwards the instance behaves as if it had promised `b` and
    /// accepted `(b, v)` before the crash, so a restarted acceptor can
    /// never un-promise a vote it already released.
    ///
    /// Keeps the highest ballot when called repeatedly (WAL replay feeds
    /// records oldest-first).
    pub fn restore_accepted(&mut self, b: Ballot, v: V) {
        if self.accepted.as_ref().is_none_or(|(prev, _)| b >= *prev) {
            self.promised = self.promised.max(b);
            self.accepted = Some((b, v));
        }
    }

    /// Number of ballots this process has started as a proposer.
    pub fn ballots_started(&self) -> u64 {
        self.ballots_started
    }

    /// `Accepted` votes the learner refused because they were not for the
    /// ballot this process currently runs in phase 2 (see the module docs).
    pub fn votes_dropped(&self) -> u64 {
        self.votes_dropped
    }

    /// A counter that increases whenever the instance makes observable
    /// progress (a promise or a vote arrives, a decision is reached).
    /// The driving protocol uses it to avoid restarting ballots that are
    /// still advancing.
    pub fn progress_counter(&self) -> u64 {
        self.progress
    }

    fn quorum(&self) -> usize {
        self.system.quorum()
    }

    /// Starts a fresh ballot strictly greater than anything seen, as the
    /// proposer. Call only when the leader oracle points at this process;
    /// calling it without being the leader is safe (indulgence) but wasteful.
    ///
    /// No-op once a value has been decided or if this process has no
    /// proposal yet.
    pub fn start_ballot(&mut self, out: &mut Vec<PaxosSend<V>>) {
        if self.decided.is_some() || self.proposal.is_none() {
            return;
        }
        let base = self.promised.max(self.current);
        self.current = base.next_for(self.id);
        self.promises.clear();
        self.votes.clear();
        self.phase2_started = false;
        self.ballots_started += 1;
        out.push((Destination::All, PaxosMsg::Prepare { b: self.current }));
    }

    /// Acceptor-side half of a reign-scoped (multi-slot) promise: raises the
    /// promised bound without replying — the replicated log aggregates one
    /// `PromiseReign` covering every slot, so no per-slot `Promise` is sent.
    ///
    /// After this call the acceptor rejects per-slot `Prepare`s and
    /// `Accept`s below `b`, exactly as if it had answered a per-slot
    /// `Prepare { b }`.
    pub fn pre_promise(&mut self, b: Ballot) {
        self.promised = self.promised.max(b);
    }

    /// The acceptor's promised bound, for reign bookkeeping and tests.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// Overwrites the proposal with a value inherited from reign promises —
    /// the phase-1 value rule ("adopt the highest reported acceptance")
    /// applied at the replicated-log level rather than per slot. Unlike
    /// [`PaxosInstance::set_proposal`], later calls win: inherited values
    /// take precedence over this process's own input.
    pub fn adopt_proposal(&mut self, v: V) {
        self.proposal = Some(v);
    }

    /// Proposer-side half of the phase-1 skip: opens this slot directly in
    /// phase 2 under an established reign ballot `b` — the proposer accepts
    /// and votes for its own value, then sends `Accept` to the others —
    /// without a per-slot `Prepare`/`Promise` round trip.
    ///
    /// The caller (the replicated log) must hold a quorum of reign promises
    /// covering this slot — that quorum plays the role of the per-slot
    /// phase-1 quorum, and quorum intersection carries the usual safety
    /// argument: any value that could have been decided below `b` was
    /// reported in some reign promise and adopted by the caller via
    /// [`PaxosInstance::set_proposal`] before this call.
    ///
    /// No-op when the slot is already decided, has no proposal, or the
    /// acceptor state has moved past `b` (a newer reign took over — the
    /// caller falls back to [`PaxosInstance::start_ballot`]).
    pub fn start_ballot_skipped(&mut self, b: Ballot, out: &mut Vec<PaxosSend<V>>) {
        if self.decided.is_some() || b < self.promised || b <= self.current {
            return;
        }
        let Some(v) = self.proposal.clone() else {
            return;
        };
        self.current = b;
        self.promises.clear();
        self.ballots_started += 1;
        self.start_phase2(b, v, out);
    }

    /// Handles one incoming consensus message.
    pub fn handle(&mut self, from: ProcessId, msg: PaxosMsg<V>, out: &mut Vec<PaxosSend<V>>) {
        match msg {
            PaxosMsg::Prepare { b } => self.on_prepare(from, b, out),
            PaxosMsg::Promise { b, accepted } => self.on_promise(from, b, accepted, out),
            PaxosMsg::Accept { b, v } => {
                if self.accept(b, &v) {
                    out.push((Destination::To(b.proposer), PaxosMsg::Accepted { b, v }));
                }
            }
            PaxosMsg::Accepted { b, v } => self.on_accepted(from, b, v, out),
            PaxosMsg::Decide { v } => self.learn(v),
        }
    }

    fn on_prepare(&mut self, from: ProcessId, b: Ballot, out: &mut Vec<PaxosSend<V>>) {
        if b >= self.promised {
            self.promised = b;
            out.push((
                Destination::To(from),
                PaxosMsg::Promise {
                    b,
                    accepted: self.accepted.clone(),
                },
            ));
        }
    }

    fn on_promise(
        &mut self,
        from: ProcessId,
        b: Ballot,
        accepted: Option<(Ballot, V)>,
        out: &mut Vec<PaxosSend<V>>,
    ) {
        if b != self.current || self.phase2_started || self.decided.is_some() {
            return;
        }
        self.progress += 1;
        self.promises.insert(from, accepted);
        if self.promises.len() < self.quorum() {
            return;
        }
        // Phase-1 value rule: adopt the value of the highest reported
        // acceptance, fall back to my own proposal.
        let inherited = self
            .promises
            .values()
            .flatten()
            .max_by_key(|(ballot, _)| *ballot)
            .map(|(_, v)| v.clone());
        let value = inherited
            .or_else(|| self.proposal.clone())
            .expect("start_ballot requires a proposal");
        self.start_phase2(b, value, out);
    }

    /// Phase 2a at the owner of `b`: accept `v` as an acceptor, through the
    /// check every `Accept` passes, and count that acceptance as this
    /// process's own vote — in this handler, with no loopback message — then
    /// ask the others. (A host that persists acceptances before releasing
    /// the handler's sends thereby persists the owner's before its `Accept`
    /// leaves.) Should the own acceptor refuse (it promised a higher ballot
    /// meanwhile) the `Accept` still goes out: the others may yet form the
    /// quorum, exactly as when a looped-back `Accept` bounced.
    fn start_phase2(&mut self, b: Ballot, v: V, out: &mut Vec<PaxosSend<V>>) {
        self.phase2_started = true;
        self.votes.clear();
        let self_vote = self.accept(b, &v);
        out.push((Destination::AllOthers, PaxosMsg::Accept { b, v: v.clone() }));
        if self_vote {
            self.count_vote(self.id, v, out);
        }
    }

    /// The acceptor's phase-2 rule; returns whether `(b, v)` was accepted.
    fn accept(&mut self, b: Ballot, v: &V) -> bool {
        if b < self.promised {
            return false;
        }
        self.promised = b;
        self.accepted = Some((b, v.clone()));
        true
    }

    fn on_accepted(&mut self, from: ProcessId, b: Ballot, v: V, out: &mut Vec<PaxosSend<V>>) {
        // `current` is only ever a ballot this process minted, so the one
        // comparison refuses both a ballot it does not own and an own ballot
        // it has since abandoned (or lost to a restart).
        if b != self.current || !self.phase2_started {
            self.votes_dropped += 1;
            return;
        }
        if self.decided.is_some() {
            return; // the quorum is in; the remaining acceptors' votes are late
        }
        self.progress += 1;
        self.count_vote(from, v, out);
    }

    /// Tallies a vote for `current`; at `n − t` votes the owner decides and
    /// makes the ballot's one announcement.
    fn count_vote(&mut self, from: ProcessId, v: V, out: &mut Vec<PaxosSend<V>>) {
        debug_assert!(
            self.accepted
                .as_ref()
                .is_none_or(|(b, mine)| *b != self.current || *mine == v),
            "two values accepted under the same ballot"
        );
        self.votes.insert(from);
        if self.votes.len() >= self.quorum() {
            self.learn(v.clone());
            out.push((Destination::AllOthers, PaxosMsg::Decide { v }));
        }
    }

    /// Records a decision (the owner's own, an announced or a replayed one).
    fn learn(&mut self, v: V) {
        if self.decided.is_none() {
            self.decided = Some(v);
            self.progress += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Command;

    fn system() -> SystemConfig {
        SystemConfig::new(5, 2).unwrap() // quorum 3, majority-compatible
    }

    fn instances() -> Vec<PaxosInstance> {
        system()
            .processes()
            .map(|id| {
                let mut inst = PaxosInstance::new(id, system());
                inst.set_proposal(Value(100 + id.as_u32() as u64));
                inst
            })
            .collect()
    }

    /// Synchronously routes every outbound message until quiescence;
    /// returns each delivered message (one entry per receiver).
    fn route<V: LogValue>(
        instances: &mut [PaxosInstance<V>],
        mut pending: Vec<(ProcessId, PaxosSend<V>)>,
    ) -> Vec<PaxosMsg<V>> {
        let n = instances.len();
        let mut delivered = Vec::new();
        while let Some((from, (dest, msg))) = pending.pop() {
            let targets: Vec<usize> = match dest {
                Destination::To(q) => vec![q.index()],
                Destination::AllOthers => (0..n).filter(|i| *i != from.index()).collect(),
                Destination::All => (0..n).collect(),
            };
            for target in targets {
                let mut out = Vec::new();
                instances[target].handle(from, msg.clone(), &mut out);
                delivered.push(msg.clone());
                let sender = ProcessId::new(target as u32);
                pending.extend(out.into_iter().map(|send| (sender, send)));
            }
        }
        delivered
    }

    #[test]
    fn single_leader_decides_its_value() {
        let mut insts = instances();
        let mut out = Vec::new();
        insts[2].start_ballot(&mut out);
        route(
            &mut insts,
            out.into_iter().map(|s| (ProcessId::new(2), s)).collect(),
        );
        for inst in &insts {
            assert_eq!(inst.decided(), Some(&Value(102)));
        }
    }

    #[test]
    fn competing_proposers_still_agree() {
        let mut insts = instances();
        // p1 and p5 both start ballots before any message is routed.
        let mut out0 = Vec::new();
        insts[0].start_ballot(&mut out0);
        let mut out4 = Vec::new();
        insts[4].start_ballot(&mut out4);
        let mut pending: Vec<(ProcessId, PaxosSend)> =
            out0.into_iter().map(|s| (ProcessId::new(0), s)).collect();
        pending.extend(out4.into_iter().map(|s| (ProcessId::new(4), s)));
        route(&mut insts, pending);
        let decisions: Vec<Option<Value>> = insts.iter().map(|i| i.decided().copied()).collect();
        let first = decisions.iter().flatten().next().copied();
        assert!(first.is_some(), "at least one ballot should have completed");
        for d in decisions.iter().flatten() {
            assert_eq!(Some(*d), first, "agreement violated: {decisions:?}");
        }
        // Validity: the decision is one of the proposals.
        assert!(matches!(first.unwrap().0, 100..=104));
    }

    #[test]
    fn later_ballot_adopts_previously_accepted_value() {
        let mut insts = instances();
        // First, p1 gets its value accepted by a quorum (full run).
        let mut out = Vec::new();
        insts[0].start_ballot(&mut out);
        route(
            &mut insts,
            out.into_iter().map(|s| (ProcessId::new(0), s)).collect(),
        );
        assert_eq!(insts[3].decided(), Some(&Value(100)));
        // A later ballot by p5 must re-decide the same value (it is inherited
        // from the promises), not propose its own.
        let mut out = Vec::new();
        insts[4].start_ballot(&mut out);
        route(
            &mut insts,
            out.into_iter().map(|s| (ProcessId::new(4), s)).collect(),
        );
        for inst in &insts {
            assert_eq!(inst.decided(), Some(&Value(100)));
        }
    }

    #[test]
    fn acceptor_ignores_stale_prepare() {
        let sys = system();
        let mut acceptor: PaxosInstance = PaxosInstance::new(ProcessId::new(1), sys);
        let high = Ballot::new(5, ProcessId::new(4));
        let low = Ballot::new(2, ProcessId::new(0));
        let mut out = Vec::new();
        acceptor.handle(ProcessId::new(4), PaxosMsg::Prepare { b: high }, &mut out);
        assert_eq!(out.len(), 1);
        let mut out = Vec::new();
        acceptor.handle(ProcessId::new(0), PaxosMsg::Prepare { b: low }, &mut out);
        assert!(out.is_empty(), "stale prepare must not be promised");
        let mut out = Vec::new();
        acceptor.handle(
            ProcessId::new(0),
            PaxosMsg::Accept {
                b: low,
                v: Value(7),
            },
            &mut out,
        );
        assert!(out.is_empty(), "stale accept must not be accepted");
    }

    #[test]
    fn no_ballot_without_a_proposal() {
        let mut inst: PaxosInstance = PaxosInstance::new(ProcessId::new(0), system());
        let mut out = Vec::new();
        inst.start_ballot(&mut out);
        assert!(out.is_empty());
        assert_eq!(inst.ballots_started(), 0);
    }

    #[test]
    fn start_ballot_after_decision_is_a_noop() {
        let mut insts = instances();
        let mut out = Vec::new();
        insts[0].start_ballot(&mut out);
        route(
            &mut insts,
            out.into_iter().map(|s| (ProcessId::new(0), s)).collect(),
        );
        let started_before = insts[0].ballots_started();
        let mut out = Vec::new();
        insts[0].start_ballot(&mut out);
        assert!(out.is_empty());
        assert_eq!(insts[0].ballots_started(), started_before);
    }

    #[test]
    fn progress_counter_moves_with_messages() {
        let mut insts = instances();
        let before = insts[0].progress_counter();
        let mut out = Vec::new();
        insts[0].start_ballot(&mut out);
        route(
            &mut insts,
            out.into_iter().map(|s| (ProcessId::new(0), s)).collect(),
        );
        assert!(insts[0].progress_counter() > before);
    }

    /// Opens `inst` (process 0) directly in phase 2 under a reign ballot,
    /// returning the ballot and the handler's sends.
    fn open_phase2(inst: &mut PaxosInstance) -> (Ballot, Vec<PaxosSend>) {
        let b = Ballot::for_reign(1, ProcessId::new(0));
        let mut out = Vec::new();
        inst.start_ballot_skipped(b, &mut out);
        (b, out)
    }

    #[test]
    fn owner_counts_its_own_vote_and_needs_a_quorum_to_decide() {
        let mut owner = instances().remove(0);
        let (b, out) = open_phase2(&mut owner);
        // The own acceptance happened in the opening handler itself.
        assert_eq!(owner.accepted(), Some(&(b, Value(100))));
        assert!(matches!(
            out[..],
            [(Destination::AllOthers, PaxosMsg::Accept { .. })]
        ));
        let vote = PaxosMsg::Accepted { b, v: Value(100) };
        let mut out = Vec::new();
        owner.handle(ProcessId::new(1), vote.clone(), &mut out);
        assert_eq!(owner.decided(), None, "own vote + 1 is not n - t = 3");
        assert!(out.is_empty());
        // A repeated vote of the same acceptor does not count twice.
        owner.handle(ProcessId::new(1), vote.clone(), &mut out);
        assert_eq!(owner.decided(), None);
        owner.handle(ProcessId::new(2), vote.clone(), &mut out);
        assert_eq!(owner.decided(), Some(&Value(100)));
        assert!(
            matches!(
                out[..],
                [(Destination::AllOthers, PaxosMsg::Decide { v: Value(100) })]
            ),
            "the owner makes the one announcement: {out:?}"
        );
        // The remaining acceptors' votes arrive after the decision: no
        // reply, no second announcement, and they are not "dropped" votes.
        let mut out = Vec::new();
        owner.handle(ProcessId::new(3), vote.clone(), &mut out);
        owner.handle(ProcessId::new(4), vote, &mut out);
        assert!(out.is_empty(), "a late vote draws no reply: {out:?}");
        assert_eq!(owner.votes_dropped(), 0);
    }

    #[test]
    fn learner_drops_votes_for_ballots_it_does_not_run() {
        let mut inst = instances().remove(0);
        // Someone else's ballot: after leader-centric routing such a frame
        // is misrouted or hostile, however many of them arrive.
        let foreign = Ballot::new(1, ProcessId::new(1));
        let mut out = Vec::new();
        for from in 1..5 {
            inst.handle(
                ProcessId::new(from),
                PaxosMsg::Accepted {
                    b: foreign,
                    v: Value(9),
                },
                &mut out,
            );
        }
        assert_eq!(inst.decided(), None);
        assert_eq!(inst.votes_dropped(), 4);
        // An own ballot still in phase 1 has asked for no votes yet.
        inst.start_ballot(&mut out);
        let phase1 = inst.current;
        inst.handle(
            ProcessId::new(1),
            PaxosMsg::Accepted {
                b: phase1,
                v: Value(9),
            },
            &mut out,
        );
        assert_eq!(inst.votes_dropped(), 5);
        // An own ballot older than the current one was abandoned.
        let (current, _) = open_phase2(&mut inst);
        assert!(current > phase1);
        for from in 1..5 {
            inst.handle(
                ProcessId::new(from),
                PaxosMsg::Accepted {
                    b: phase1,
                    v: Value(100),
                },
                &mut out,
            );
        }
        assert_eq!(inst.decided(), None, "stale votes must not add up");
        assert_eq!(inst.votes_dropped(), 9);
        assert!(inst.votes.len() == 1, "only the own vote for `current`");
    }

    #[test]
    fn acceptor_votes_to_the_owner_and_a_decide_is_not_echoed() {
        let mut follower = instances().remove(3);
        let b = Ballot::for_reign(1, ProcessId::new(0));
        let mut out = Vec::new();
        follower.handle(
            ProcessId::new(0),
            PaxosMsg::Accept { b, v: Value(100) },
            &mut out,
        );
        assert!(
            matches!(
                out[..],
                [(Destination::To(owner), PaxosMsg::Accepted { .. })] if owner == b.proposer
            ),
            "the vote goes to the ballot owner alone: {out:?}"
        );
        let mut out = Vec::new();
        follower.handle(
            ProcessId::new(0),
            PaxosMsg::Decide { v: Value(100) },
            &mut out,
        );
        assert_eq!(follower.decided(), Some(&Value(100)));
        assert!(out.is_empty(), "a learner records and stays silent");
    }

    /// The owner's acceptor may have promised a higher ballot by the time
    /// its own phase 2 opens: it then casts no vote (the same check every
    /// `Accept` passes), but the others can still carry the ballot.
    #[test]
    fn owner_that_promised_higher_meanwhile_does_not_self_vote() {
        let mut owner = instances().remove(0);
        let mut out = Vec::new();
        owner.start_ballot(&mut out);
        let b = owner.current;
        let higher = Ballot::new(b.attempt + 1, ProcessId::new(4));
        owner.handle(ProcessId::new(4), PaxosMsg::Prepare { b: higher }, &mut out);
        let mut out = Vec::new();
        for from in 1..4 {
            owner.handle(
                ProcessId::new(from),
                PaxosMsg::Promise { b, accepted: None },
                &mut out,
            );
        }
        assert!(matches!(
            out[..],
            [(Destination::AllOthers, PaxosMsg::Accept { .. })]
        ));
        assert_eq!(owner.accepted(), None, "b < promised: not accepted");
        assert!(owner.votes.is_empty());
    }

    /// Counts every message of one established-reign ballot, delivered to
    /// all `n` processes: `n - 1` each of `Accept`, `Accepted`, `Decide`.
    fn phase2_message_counts(n: usize, t: usize) -> [usize; 3] {
        let sys = SystemConfig::new(n, t).unwrap();
        let mut insts: Vec<PaxosInstance> = sys
            .processes()
            .map(|id| PaxosInstance::new(id, sys))
            .collect();
        insts[0].set_proposal(Value(7));
        let (_, out) = open_phase2(&mut insts[0]);
        let delivered = route(
            &mut insts,
            out.into_iter().map(|s| (ProcessId::new(0), s)).collect(),
        );
        let mut counts = [0usize; 3];
        for msg in &delivered {
            match msg {
                PaxosMsg::Accept { .. } => counts[0] += 1,
                PaxosMsg::Accepted { .. } => counts[1] += 1,
                PaxosMsg::Decide { .. } => counts[2] += 1,
                _ => panic!("phase 1 traffic on the skip path: {msg:?}"),
            }
        }
        assert!(insts.iter().all(|i| i.decided() == Some(&Value(7))));
        counts
    }

    #[test]
    fn an_established_reign_ballot_costs_three_times_n_minus_one_messages() {
        assert_eq!(phase2_message_counts(5, 2), [4, 4, 4]);
        assert_eq!(phase2_message_counts(3, 1), [2, 2, 2]);
    }

    /// The phase-1 skip: with a reign-wide pre-promise in place of per-slot
    /// `Prepare`s, a single `Accept` broadcast decides the slot.
    #[test]
    fn skip_opening_decides_without_prepare() {
        let mut insts = instances();
        let b = Ballot::for_reign(1, ProcessId::new(0));
        for inst in insts.iter_mut() {
            inst.pre_promise(b);
        }
        let mut out = Vec::new();
        insts[0].start_ballot_skipped(b, &mut out);
        assert_eq!(out.len(), 1, "exactly one Accept, no Prepare");
        assert!(matches!(out[0].1, PaxosMsg::Accept { .. }));
        assert_eq!(insts[0].ballots_started(), 1);
        route(
            &mut insts,
            out.into_iter().map(|s| (ProcessId::new(0), s)).collect(),
        );
        for inst in &insts {
            assert_eq!(inst.decided(), Some(&Value(100)));
        }
    }

    /// A pre-promise raises the acceptor bound exactly like a per-slot
    /// promise: lower prepares and accepts bounce.
    #[test]
    fn pre_promise_rejects_lower_ballots() {
        let mut acceptor: PaxosInstance = PaxosInstance::new(ProcessId::new(1), system());
        let reign = Ballot::for_reign(2, ProcessId::new(4));
        acceptor.pre_promise(reign);
        assert_eq!(acceptor.promised(), reign);
        let low = Ballot::new(7, ProcessId::new(0));
        let mut out = Vec::new();
        acceptor.handle(ProcessId::new(0), PaxosMsg::Prepare { b: low }, &mut out);
        assert!(
            out.is_empty(),
            "pre-promised acceptor must reject lower prepare"
        );
        acceptor.handle(
            ProcessId::new(0),
            PaxosMsg::Accept {
                b: low,
                v: Value(9),
            },
            &mut out,
        );
        assert!(
            out.is_empty(),
            "pre-promised acceptor must reject lower accept"
        );
        // A pre-promise never lowers the bound.
        acceptor.pre_promise(Ballot::for_reign(1, ProcessId::new(0)));
        assert_eq!(acceptor.promised(), reign);
    }

    /// A skipped open yields when the acceptor state moved past the reign
    /// ballot (a newer reign took over) — the caller falls back to the
    /// classic per-slot path.
    #[test]
    fn skipped_open_yields_to_newer_reign() {
        let mut inst: PaxosInstance = PaxosInstance::new(ProcessId::new(0), system());
        inst.set_proposal(Value(1));
        inst.pre_promise(Ballot::for_reign(3, ProcessId::new(2)));
        let mut out = Vec::new();
        inst.start_ballot_skipped(Ballot::for_reign(2, ProcessId::new(0)), &mut out);
        assert!(out.is_empty(), "stale reign must not open phase 2");
        assert_eq!(inst.ballots_started(), 0);
    }

    /// Inherited values overwrite the local proposal (the log-level phase-1
    /// value rule), while `set_proposal` keeps first-call-wins semantics.
    #[test]
    fn adopt_proposal_overrides_local_input() {
        let mut inst: PaxosInstance = PaxosInstance::new(ProcessId::new(0), system());
        inst.set_proposal(Value(1));
        inst.set_proposal(Value(2));
        assert_eq!(inst.proposal(), Some(&Value(1)));
        inst.adopt_proposal(Value(9));
        assert_eq!(inst.proposal(), Some(&Value(9)));
    }

    /// The same ballot flow decides whole command batches: one round trip
    /// carries a slot's entire batch, with the phase-1 inheritance rule
    /// preserving it as a unit.
    #[test]
    fn command_batches_are_decided_as_a_unit() {
        use crate::Batch;
        let batch_of = |id: u32| {
            Batch::new(vec![
                Command::new(vec![id as u8; 2]),
                Command::new(vec![id as u8 + 1; 2]),
            ])
        };
        let mut insts: Vec<PaxosInstance<Batch<Command>>> = system()
            .processes()
            .map(|id| {
                let mut inst = PaxosInstance::new(id, system());
                inst.set_proposal(batch_of(id.as_u32()));
                inst
            })
            .collect();
        // p3 gets its batch accepted; a later ballot by p5 must re-decide
        // the same whole batch via the inheritance rule.
        let mut out = Vec::new();
        insts[2].start_ballot(&mut out);
        route(
            &mut insts,
            out.into_iter().map(|s| (ProcessId::new(2), s)).collect(),
        );
        let mut out = Vec::new();
        insts[4].start_ballot(&mut out);
        route(
            &mut insts,
            out.into_iter().map(|s| (ProcessId::new(4), s)).collect(),
        );
        for inst in &insts {
            assert_eq!(inst.decided(), Some(&batch_of(2)));
        }
    }

    /// The same ballot flow decides byte commands: the machinery is
    /// value-agnostic end to end.
    #[test]
    fn commands_are_decided_like_values() {
        let mut insts: Vec<PaxosInstance<Command>> = system()
            .processes()
            .map(|id| {
                let mut inst = PaxosInstance::new(id, system());
                inst.set_proposal(Command::new(vec![id.as_u32() as u8; 4]));
                inst
            })
            .collect();
        let mut out = Vec::new();
        insts[1].start_ballot(&mut out);
        route(
            &mut insts,
            out.into_iter().map(|s| (ProcessId::new(1), s)).collect(),
        );
        let expected = Command::new(vec![1u8; 4]);
        for inst in &insts {
            assert_eq!(inst.decided(), Some(&expected));
        }
    }
}
