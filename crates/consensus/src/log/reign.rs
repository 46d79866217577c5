//! The phase-1 skip: one promise round per reign instead of one per slot.
//!
//! **Owns** the leader's [`Reign`] state (preparing / established / fallen
//! back, its ballot, range and stall counters), the highest reign epoch
//! seen, and the acceptor's range promise. **Hides** when a reign begins,
//! is re-broadcast, is established, falls back and ends, and the acceptor's
//! verdict on a reign prepare. It never touches a slot: the caller reads
//! its verdicts and does the per-slot work (pre-promising instances,
//! re-proposing reported batches).
//!
//! # The stable-reign fast path
//!
//! The paper's Ω extracts a *long-lived* leader; with
//! [`ConsensusConfig::phase1_skip`](crate::ConsensusConfig::phase1_skip)
//! enabled the log exploits that stability. On taking leadership the leader
//! mints a reign ballot ([`Ballot::for_reign`]: a fresh epoch in the
//! attempt's high bits) and runs **one** `PrepareReign` covering every slot
//! from its frontier upward. Each acceptor promises the whole range at once
//! (`PromiseReign`), reporting its accepted state for those slots; once a
//! quorum has promised, the reign is *established* and every new slot opens
//! directly in phase 2 — the message flow of the module docs, with no
//! `Prepare`/`Promise` round trip before it.
//!
//! Safety is the per-slot argument lifted to the range: the reign promise
//! quorum plays the role of each future slot's phase-1 quorum. Any value
//! that could have been decided below the reign ballot at some slot was
//! accepted by a member of that quorum *before* it promised (promising
//! forbids later low accepts), so it appears in a counted report and the
//! leader re-proposes it; an acceptor whose report would be incomplete
//! (bounded by [`REIGN_REPORT_MAX`]/[`REIGN_REPORT_BYTES`]) refuses to
//! promise, and the leader falls back to per-slot ballots. On any
//! leadership change the reign is discarded, and so it is when its ballots
//! keep stalling (the module docs' loss table); per-slot ballots (the
//! stalled-ballot restarts of `check`) remain the recovery path throughout.
//! Like per-slot promises, reign promises are *not* persisted across a
//! crash — only acceptances are; the durability model is unchanged.

use super::msg::{REIGN_REPORT_BYTES, REIGN_REPORT_MAX};
use crate::{Ballot, Batch, LogValue};
use irs_types::ProcessId;
use std::collections::{BTreeMap, BTreeSet};

/// Check ticks a reign prepare may stall (no promise quorum) before the
/// leader re-broadcasts it, how many re-broadcasts it attempts before
/// falling back to per-slot ballots, how many still periods under an open
/// proposal end a reign — and how many a follower waits on a leader before
/// it finishes its frontier slot itself (L25).
pub(super) const REIGN_RETRIES: u32 = 3;

/// The highest reported acceptance per slot, merged across promises.
type Reports<V> = BTreeMap<u64, (Ballot, Batch<V>)>;

/// Leader-side state of the phase-1 skip (see the module docs).
#[derive(Debug)]
enum Reign<V> {
    /// Collecting reign promises for `ballot`, which covers slots ≥ `from`.
    Preparing {
        ballot: Ballot,
        from: u64,
        /// Acceptors that promised so far.
        promised: BTreeSet<ProcessId>,
        reported: Reports<V>,
        /// Check ticks without a quorum; drives re-broadcast then fallback.
        stalls: u32,
    },
    /// A quorum promised: slots ≥ `from` open directly in phase 2.
    Established {
        ballot: Ballot,
        from: u64,
        /// Consecutive check ticks on which the frontier stood still under
        /// an open proposal of ours; past [`REIGN_RETRIES`] the reign ends.
        stalls: u32,
    },
    /// Establishment failed (stalled past [`REIGN_RETRIES`], or acceptors
    /// refused oversized reports): classic per-slot ballots until they too
    /// stall for that long (`stalls`, as above) or leadership changes,
    /// either of which mints a fresh reign.
    Fallback { stalls: u32 },
}

/// What `drive` may do with the window right now.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Gate {
    /// No reign yet: begin one (L3) and wait.
    Begin,
    /// Promises are being collected: queued values wait out the one-off
    /// establishment round trip the fast path amortises over the reign.
    Wait,
    /// Open slots — Accept-only at the ballot for slots at or above the
    /// range start, classically when `None` (fallen back, or the skip off).
    Open(Option<(Ballot, u64)>),
}

/// What a check tick does about a reign that is not established.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum PrepareTick {
    /// L3: begin a (fresh) reign.
    Begin,
    /// L3: the prepare stalled; broadcast it again.
    Rebroadcast(Ballot, u64),
    /// Established or fallen back (L8, possibly on this tick).
    Nothing,
}

/// The acceptor's verdict on a reign prepare (L4, L5).
#[derive(Debug, PartialEq, Eq)]
pub(super) enum PromiseVerdict<V> {
    /// L5: promised a newer reign already, or the complete report would not
    /// fit its bounds — an incomplete one could hide a decidable value from
    /// the leader's phase-1 value rule, so partial promises are never made.
    Refuse,
    /// L5: this replica knows a decision in the range. A decided slot keeps
    /// no acceptor state to report, so its promise would vouch for "nothing
    /// chosen here": it replays what it holds instead.
    Replay,
    /// L4: promised (and recorded); send this complete report.
    Promise(Vec<(u64, Ballot, Batch<V>)>),
}

#[derive(Debug)]
pub(super) struct ReignState<V> {
    /// Leader side; `None` when not leading or when the skip is off.
    reign: Option<Reign<V>>,
    /// Acceptor side: the highest `(ballot, from)` this replica has
    /// promised for all slots ≥ `from`. Applied to every instance
    /// materialised at or above `from` from then on. Like per-slot
    /// promises, not persisted across a crash — only acceptances are.
    promise: Option<(Ballot, u64)>,
    /// Highest [`Ballot::reign_epoch`] observed in any ballot, so a fresh
    /// reign always outbids every earlier reign and its fallback ballots.
    max_epoch_seen: u64,
    /// Gauge: reign prepares this replica has broadcast as a leader.
    pub(super) prepares: u64,
}

impl<V: LogValue> ReignState<V> {
    pub(super) fn new() -> Self {
        ReignState {
            reign: None,
            promise: None,
            max_epoch_seen: 0,
            prepares: 0,
        }
    }

    /// The established reign's ballot, if any.
    pub(super) fn established(&self) -> Option<Ballot> {
        match &self.reign {
            Some(Reign::Established { ballot, .. }) => Some(*ballot),
            _ => None,
        }
    }

    /// The reign ballot the acceptor promised for `slot`, if one covers it.
    pub(super) fn promised_for(&self, slot: u64) -> Option<Ballot> {
        self.promise
            .and_then(|(b, from)| (slot >= from).then_some(b))
    }

    /// L7: the reign ends — Ω points elsewhere, the skip was switched off,
    /// or its ballots stalled for good. (A newer epoch ends it in
    /// [`note_epoch`](Self::note_epoch).)
    pub(super) fn abandon(&mut self) {
        self.reign = None;
    }

    /// Tracks the highest reign epoch seen in any ballot, and discards this
    /// replica's own leader-side reign the moment a newer epoch appears (L7)
    /// — another process claimed a newer reign, so our Accept-only path can
    /// no longer gather quorums and must re-establish (or cede).
    pub(super) fn note_epoch(&mut self, b: Ballot) {
        let epoch = b.reign_epoch();
        self.max_epoch_seen = self.max_epoch_seen.max(epoch);
        if let Some(Reign::Preparing { ballot, .. } | Reign::Established { ballot, .. }) =
            &self.reign
        {
            if epoch > ballot.reign_epoch() {
                self.reign = None;
            }
        }
    }

    /// The phase-1 skip gate of `drive`, for a replica that leads.
    pub(super) fn gate(&self, phase1_skip: bool) -> Gate {
        match &self.reign {
            _ if !phase1_skip => Gate::Open(None),
            None => Gate::Begin,
            Some(Reign::Preparing { .. }) => Gate::Wait,
            Some(Reign::Established { ballot, from, .. }) => Gate::Open(Some((*ballot, *from))),
            Some(Reign::Fallback { .. }) => Gate::Open(None),
        }
    }

    /// L3: mints a fresh reign ballot (one epoch above everything seen)
    /// covering slots from `frontier`. Returns the prepare to broadcast.
    pub(super) fn begin(&mut self, me: ProcessId, frontier: u64) -> (Ballot, u64) {
        self.max_epoch_seen += 1;
        let ballot = Ballot::for_reign(self.max_epoch_seen, me);
        self.reign = Some(Reign::Preparing {
            ballot,
            from: frontier,
            promised: BTreeSet::new(),
            reported: BTreeMap::new(),
            stalls: 0,
        });
        self.prepares += 1;
        (ballot, frontier)
    }

    /// L4, L5: the acceptor side of a reign prepare for slots ≥ `first`.
    /// `knows_more` says this replica holds a decision at or above `first`;
    /// the prepare's own sender is exempt from that refusal (what the leader
    /// has learned since it sent the prepare is hidden from nobody, and its
    /// acceptor must stand behind the ballot its fallback ballots derive
    /// from). `accepted` is the accepted state of its instances ≥ `first`.
    pub(super) fn on_prepare<'a>(
        &mut self,
        b: Ballot,
        first: u64,
        knows_more: bool,
        accepted: impl Iterator<Item = (u64, Ballot, &'a Batch<V>)>,
    ) -> PromiseVerdict<V>
    where
        V: 'a,
    {
        self.note_epoch(b);
        if self.promise.is_some_and(|(prev, _)| prev > b) {
            return PromiseVerdict::Refuse;
        }
        if knows_more {
            return PromiseVerdict::Replay;
        }
        let mut reports = Vec::new();
        let mut bytes = 0usize;
        for (slot, ab, av) in accepted {
            bytes += 8 + 12 + av.estimated_size();
            reports.push((slot, ab, av.clone()));
            if reports.len() > REIGN_REPORT_MAX || bytes > REIGN_REPORT_BYTES {
                return PromiseVerdict::Refuse;
            }
        }
        self.promise = Some((b, first));
        PromiseVerdict::Promise(reports)
    }

    /// L6: the leader side of a reign promise. Merges the report (highest
    /// reported acceptance per slot); at `quorum` promises the reign is
    /// established and the merged reports are returned for the caller to
    /// re-propose under the returned ballot — any value decidable below it
    /// is among them (quorum intersection); unreported slots are provably
    /// free. Late and foreign promises are ignored.
    pub(super) fn on_promise(
        &mut self,
        from: ProcessId,
        b: Ballot,
        first: u64,
        accepted: &[(u64, Ballot, Batch<V>)],
        quorum: usize,
    ) -> Option<(Ballot, Reports<V>)> {
        let Some(Reign::Preparing {
            ballot,
            from: reign_from,
            promised,
            reported,
            ..
        }) = &mut self.reign
        else {
            return None;
        };
        if *ballot != b || *reign_from != first {
            return None;
        }
        promised.insert(from);
        for (slot, ab, av) in accepted {
            if reported.get(slot).is_none_or(|(prev, _)| ab > prev) {
                reported.insert(*slot, (*ab, av.clone()));
            }
        }
        if promised.len() < quorum {
            return None;
        }
        let (ballot, from, reported) = (*ballot, *reign_from, std::mem::take(reported));
        self.reign = Some(Reign::Established {
            ballot,
            from,
            stalls: 0,
        });
        Some((ballot, reported))
    }

    /// L3, L8: reign maintenance at a leader's check tick. A prepare that
    /// keeps stalling (lost frames, a refusing quorum) is re-broadcast
    /// [`REIGN_RETRIES`] times, then abandoned for per-slot ballots —
    /// liveness never waits on the fast path. A leader that caught up past
    /// what it prepared from prepares again: every acceptor that told it so
    /// refused the promise.
    pub(super) fn on_check(&mut self, frontier: u64) -> PrepareTick {
        match &mut self.reign {
            None => PrepareTick::Begin,
            Some(Reign::Preparing { from, .. }) if *from < frontier => PrepareTick::Begin,
            Some(Reign::Preparing {
                ballot,
                from,
                stalls,
                ..
            }) => {
                *stalls += 1;
                if *stalls > REIGN_RETRIES {
                    self.reign = Some(Reign::Fallback { stalls: 0 });
                    return PrepareTick::Nothing;
                }
                PrepareTick::Rebroadcast(*ballot, *from)
            }
            Some(Reign::Established { .. } | Reign::Fallback { .. }) => PrepareTick::Nothing,
        }
    }

    /// L7: acceptors drop an outbid ballot without a word. Proposals that
    /// stay open under our reign (or its fallback) while nothing decides may
    /// mean a quorum promised a newer reign whose every frame we missed —
    /// and restarts one attempt higher never climb an epoch. (Whether a
    /// ballot was restarted on this very tick is no measure: a minority that
    /// still answers moves the progress counter every other period, for
    /// ever.) `stuck` is "the frontier stood still under an open proposal of
    /// ours"; past [`REIGN_RETRIES`] such ticks in a row the reign ends, and
    /// the next `drive` mints a fresh epoch, which outbids whatever was
    /// promised.
    pub(super) fn on_check_stall(&mut self, stuck: bool) {
        if let Some(Reign::Established { stalls, .. } | Reign::Fallback { stalls }) =
            &mut self.reign
        {
            *stalls = if stuck { *stalls + 1 } else { 0 };
            if *stalls > REIGN_RETRIES {
                self.reign = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    const ME: ProcessId = ProcessId::new(0);

    fn batch(v: u64) -> Batch<Value> {
        Batch::one(Value(v))
    }

    /// Peers `1..=count` promise `(b, from)` with empty reports.
    fn promises(
        r: &mut ReignState<Value>,
        (b, from): (Ballot, u64),
        count: u32,
    ) -> Option<(Ballot, Reports<Value>)> {
        let mut established = None;
        for peer in 1..=count {
            established = r.on_promise(ProcessId::new(peer), b, from, &[], 3);
        }
        established
    }

    /// The leader's life cycle: no reign → preparing (values wait) →
    /// established at a quorum (Accept-only from the range start) — and the
    /// gate ignores all of it with the skip off.
    #[test]
    fn a_reign_is_prepared_once_and_established_by_a_quorum() {
        let mut r: ReignState<Value> = ReignState::new();
        assert_eq!(r.gate(true), Gate::Begin);
        assert_eq!(r.gate(false), Gate::Open(None));
        let (b, from) = r.begin(ME, 7);
        assert_eq!((b, from), (Ballot::for_reign(1, ME), 7));
        assert_eq!((r.gate(true), r.prepares), (Gate::Wait, 1));
        assert_eq!(promises(&mut r, (b, from), 2), None, "two are no quorum");
        // A repeated, a foreign and a mis-ranged promise count for nothing.
        assert_eq!(r.on_promise(ProcessId::new(2), b, from, &[], 3), None);
        let foreign = Ballot::for_reign(1, ProcessId::new(4));
        assert_eq!(r.on_promise(ProcessId::new(3), foreign, from, &[], 3), None);
        assert_eq!(r.on_promise(ProcessId::new(3), b, from + 1, &[], 3), None);
        assert_eq!(r.established(), None);
        let (at, reported) = r
            .on_promise(ProcessId::new(3), b, from, &[], 3)
            .expect("the third promise is the quorum");
        assert!(at == b && reported.is_empty());
        assert_eq!(r.established(), Some(b));
        assert_eq!(r.gate(true), Gate::Open(Some((b, 7))));
        assert_eq!(r.gate(false), Gate::Open(None));
        // Late promises of an established reign are ignored.
        assert_eq!(r.on_promise(ProcessId::new(4), b, from, &[], 3), None);
    }

    /// The phase-1 value rule, applied once for the whole range: per slot
    /// the highest reported acceptance across the quorum's promises.
    #[test]
    fn establishment_returns_the_highest_report_per_slot() {
        let mut r: ReignState<Value> = ReignState::new();
        let (b, from) = r.begin(ME, 0);
        let (low, high) = (
            Ballot::new(2, ProcessId::new(1)),
            Ballot::new(4, ProcessId::new(4)),
        );
        let first = [(0, high, batch(42)), (2, low, batch(7))];
        let second = [(0, low, batch(13)), (2, high, batch(8))];
        assert_eq!(r.on_promise(ProcessId::new(1), b, from, &first, 3), None);
        assert_eq!(r.on_promise(ProcessId::new(2), b, from, &second, 3), None);
        let (_, reported) = promises(&mut r, (b, from), 3).expect("a quorum");
        let adopted: Vec<_> = reported.iter().map(|(s, (_, v))| (*s, v.clone())).collect();
        assert_eq!(adopted, vec![(0, batch(42)), (2, batch(8))]);
    }

    /// The stall count is of ticks *in a row*: one on which the frontier
    /// moved resets it. A ballot of our own or an older epoch ends nothing.
    /// And the fallback's classic ballots staying stuck mint a fresh reign
    /// just as an established reign's do.
    #[test]
    fn stalls_count_in_a_row_and_a_stuck_fallback_mints_a_fresh_reign() {
        let mut r: ReignState<Value> = ReignState::new();
        let mine = r.begin(ME, 0);
        promises(&mut r, mine, 3).expect("established");
        r.note_epoch(Ballot::new(9, ProcessId::new(4))); // epoch 0
        r.note_epoch(mine.0);
        for stuck in [true, true, true, false, true, true, true] {
            r.on_check_stall(stuck);
            assert_eq!(r.established(), Some(mine.0));
        }
        r.on_check_stall(true);
        assert_eq!(r.gate(true), Gate::Begin, "REIGN_RETRIES + 1 in a row");
        r.begin(ME, 0);
        for _ in 0..=REIGN_RETRIES {
            r.on_check(0);
        }
        assert_eq!(r.gate(true), Gate::Open(None), "fallen back");
        (0..=REIGN_RETRIES).for_each(|_| r.on_check_stall(true));
        assert_eq!(r.gate(true), Gate::Begin);
    }

    /// The acceptor's verdict. An acceptor holding more accepted-but-
    /// undecided slots than a complete report can carry must stay silent: a
    /// partial report could hide a decidable value from the leader's phase-1
    /// value rule. At exactly the bound the report is complete.
    #[test]
    fn an_acceptor_promises_completely_or_not_at_all() {
        let b = Ballot::for_reign(2, ME);
        let accepted_at = Ballot::new(1, ME);
        let batches: Vec<Batch<Value>> = (0..=REIGN_REPORT_MAX as u64).map(batch).collect();
        let report = |count: usize| {
            let slots = batches[..count].iter().enumerate();
            slots.map(move |(slot, v)| (slot as u64, accepted_at, v))
        };
        let mut r: ReignState<Value> = ReignState::new();
        let over = r.on_prepare(b, 0, false, report(REIGN_REPORT_MAX + 1));
        assert_eq!(over, PromiseVerdict::Refuse);
        assert_eq!(r.promised_for(0), None, "a refusal promises nothing");
        let PromiseVerdict::Promise(full) = r.on_prepare(b, 3, false, report(REIGN_REPORT_MAX))
        else {
            panic!("a complete report fits, so the acceptor promises");
        };
        assert_eq!(full.len(), REIGN_REPORT_MAX);
        assert_eq!((r.promised_for(2), r.promised_for(3)), (None, Some(b)));
        // The byte budget refuses as well.
        let huge = Batch::new(vec![Value(0); crate::MAX_BATCH_LEN]);
        let per_entry = 8 + 12 + huge.estimated_size();
        let too_many = REIGN_REPORT_BYTES / per_entry + 1;
        assert!(too_many <= REIGN_REPORT_MAX);
        let mut r: ReignState<Value> = ReignState::new();
        let heavy = (0..too_many as u64).map(|slot| (slot, accepted_at, &huge));
        assert_eq!(r.on_prepare(b, 0, false, heavy), PromiseVerdict::Refuse);
        // A replica that knows a decision in the range replays instead; one
        // that promised a newer reign stays silent, whatever it knows.
        let none = || std::iter::empty::<(u64, Ballot, &Batch<Value>)>();
        assert_eq!(r.on_prepare(b, 0, true, none()), PromiseVerdict::Replay);
        assert_eq!(
            r.on_prepare(b, 0, false, none()),
            PromiseVerdict::Promise(vec![])
        );
        let older = Ballot::for_reign(1, ProcessId::new(3));
        assert_eq!(r.on_prepare(older, 0, true, none()), PromiseVerdict::Refuse);
        // A re-sent prepare of the promised reign is promised again.
        assert_eq!(
            r.on_prepare(b, 0, false, none()),
            PromiseVerdict::Promise(vec![])
        );
    }
}
