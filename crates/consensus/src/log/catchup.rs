//! Catch-up policy: noticing that decisions exist which this replica lacks.
//!
//! **Owns** the evidence (the highest slot any traffic named, the frontier
//! as of the last check, how many checks it has stood still under seen
//! traffic), the request counter that rotates the target, and the
//! once-per-period latch of the note path. **Hides** *when* to ask for a
//! replay, *whom*, how much of one request a reply may answer, and when a
//! follower has waited on a leader long enough.
//!
//! A decision is announced once, so under a lossy link a replica can miss
//! it while its peers move on. Traffic for a slot *beyond the pipeline
//! window* of its frontier proves decisions exist that it lacks (leaders
//! only open slots inside the window): it asks at the next check. Traffic
//! *inside* the window is ambiguous — usually those slots are just in
//! flight — so that case asks only once the frontier failed to move for a
//! whole check period (a missed final `Decide`); otherwise every healthy
//! replica would send a catch-up per tick under pipelined load.

use super::msg::{CATCHUP_BATCH, CATCHUP_BYTES};
use super::reign::REIGN_RETRIES;
use irs_types::ProcessId;

#[derive(Debug, Default)]
pub(super) struct Catchup {
    /// Highest slot for which this replica has seen any activity (a
    /// consensus message, a decision, an offer, a chunk).
    max_seen_slot: Option<u64>,
    /// The frontier as of the previous check tick, if there was one.
    last_check_frontier: Option<u64>,
    /// Consecutive check ticks on which the frontier stood still at or below
    /// traffic this replica has seen — how long its requests have gone
    /// unanswered.
    still_checks: u32,
    /// Gauge: requests sent. Also rotates the target.
    pub(super) sent: u64,
    /// Gauge: notes received that named a slot this replica held no
    /// matching acceptance for.
    pub(super) notes_unmatched: u64,
    /// Whether an unmatched note already asked for a replay since the last
    /// check tick. The first one asks at once; under loss at a high slot
    /// rate the rest would each draw a full answer (a snapshot, from below
    /// the leader's floor) at exactly the replica that is struggling, so
    /// they leave it to the check period's own request.
    asked_on_a_note: bool,
}

/// What a check tick found (L18).
#[derive(Debug, PartialEq, Eq)]
pub(super) struct Checked {
    /// Ask this peer for a replay now.
    pub(super) ask: Option<ProcessId>,
    /// The frontier did not move since the previous check.
    pub(super) stood_still: bool,
}

impl Catchup {
    /// Evidence: some frame or decision named `slot`, so slots up to it
    /// exist.
    pub(super) fn note_seen(&mut self, slot: u64) {
        if self.max_seen_slot.is_none_or(|m| slot > m) {
            self.max_seen_slot = Some(slot);
        }
    }

    /// L18: a request is leaving (the caller sends it and traces it).
    pub(super) fn asked(&mut self) {
        self.sent += 1;
    }

    /// L18: the periodic verdict. One peer per request, not a broadcast:
    /// every answer carries up to [`CATCHUP_BATCH`] decisions, so asking all
    /// `n − 1` peers would make the recovery path `(n − 1)`-fold redundant
    /// exactly when the cluster is already stressed.
    pub(super) fn on_check(
        &mut self,
        frontier: u64,
        depth: u64,
        me: ProcessId,
        n: usize,
        leader: ProcessId,
    ) -> Checked {
        self.asked_on_a_note = false;
        let window_end = frontier.saturating_add(depth);
        let gap_above = self.max_seen_slot.is_some_and(|m| m >= window_end);
        let stood_still = self.last_check_frontier == Some(frontier);
        let stalled_at_seen = self.max_seen_slot.is_some_and(|m| m >= frontier) && stood_still;
        let ask = (gap_above || stalled_at_seen).then(|| self.target(me, n, leader));
        self.last_check_frontier = Some(frontier);
        self.still_checks = if stalled_at_seen {
            self.still_checks + 1
        } else {
            0
        };
        Checked { ask, stood_still }
    }

    /// Whom to ask: the presumed leader on even attempts (it is the most
    /// likely to hold every decision), a rotating other peer on odd ones (so
    /// a dead or equally lagging leader cannot wedge recovery).
    fn target(&self, me: ProcessId, n: usize, leader: ProcessId) -> ProcessId {
        if self.sent.is_multiple_of(2) && leader != me {
            return leader;
        }
        let (me, n) = (u64::from(me.as_u32()), n as u64);
        let mut idx = (me + 1 + self.sent) % n;
        if idx == me {
            idx = (idx + 1) % n;
        }
        ProcessId::new(idx as u32)
    }

    /// L15: a note named a slot this replica holds no acceptance at the
    /// note's ballot for. Returns whether to ask its sender for a replay
    /// now: at once, but at most once per check period.
    pub(super) fn on_unmatched_note(&mut self) -> bool {
        self.notes_unmatched += 1;
        !std::mem::replace(&mut self.asked_on_a_note, true)
    }

    /// L25: whether this follower should stop waiting for a leader to
    /// finish its frontier slot — its requests went unanswered for more than
    /// [`REIGN_RETRIES`] check periods, and it is its turn (the stalled
    /// replicas take turns by period, so they do not duel).
    pub(super) fn gives_up_on_a_leader(&self, me: ProcessId, n: usize) -> bool {
        self.still_checks > REIGN_RETRIES && self.still_checks % n as u32 == me.as_u32()
    }
}

/// L19: how many of the decided batches a replier holds, whose
/// [`estimated_size`](crate::LogValue::estimated_size)s `sizes` yields in slot
/// order, one request's answer replays: at most [`CATCHUP_BATCH`] slots and
/// [`CATCHUP_BYTES`] of values, but always the first, so recovery progresses
/// even when single slots exceed the budget.
pub(super) fn replay_len(sizes: impl Iterator<Item = usize>) -> usize {
    let mut bytes = 0usize;
    sizes
        .take(CATCHUP_BATCH as usize)
        .take_while(|size| {
            let fits = bytes == 0 || bytes + size <= CATCHUP_BYTES;
            bytes += size;
            fits
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ME: ProcessId = ProcessId::new(3);
    const LEADER: ProcessId = ProcessId::new(0);

    /// One check tick of a replica of five whose oracle names `LEADER`.
    fn check(c: &mut Catchup, frontier: u64, depth: u64) -> Checked {
        let checked = c.on_check(frontier, depth, ME, 5, LEADER);
        if checked.ask.is_some() {
            c.asked();
        }
        checked
    }

    /// A fresh replica with no observed traffic never asks.
    #[test]
    fn a_quiet_replica_never_asks() {
        let mut c = Catchup::default();
        for _ in 0..4 {
            assert_eq!(check(&mut c, 0, 1).ask, None);
        }
        assert_eq!(c.sent, 0);
    }

    /// Traffic *at* the frontier is the normal in-flight case, not a lag
    /// signal: the first check after it stays silent, and only a frontier
    /// that fails to move across a whole check period asks for a replay
    /// (the missed-final-`Decide` case).
    #[test]
    fn in_flight_frontier_traffic_asks_only_once_the_frontier_stands_still() {
        let mut c = Catchup::default();
        c.note_seen(0);
        let first = check(&mut c, 0, 1);
        assert_eq!(
            (first.ask, first.stood_still),
            (None, false),
            "slot 0 is simply in flight"
        );
        let second = check(&mut c, 0, 1);
        assert_eq!((second.ask, second.stood_still), (Some(LEADER), true));
        // The decision arrives (the frontier moves past everything seen).
        assert_eq!(check(&mut c, 1, 1).ask, None, "caught up means quiet");
        assert_eq!(check(&mut c, 1, 1).ask, None);
    }

    /// In-window traffic must not trigger immediate requests when
    /// pipelining widens the window; traffic beyond the window must.
    #[test]
    fn the_gate_respects_the_pipeline_window() {
        let mut c = Catchup::default();
        c.note_seen(2);
        assert_eq!(check(&mut c, 0, 4).ask, None, "inside the 0..4 window");
        // Slot 4 = frontier 0 + depth 4 lies beyond it: decisions exist
        // that this replica lacks, whether or not its frontier just moved.
        c.note_seen(4);
        c.note_seen(3); // evidence only ever grows
        c.last_check_frontier = None;
        let checked = check(&mut c, 0, 4);
        assert_eq!((checked.ask, checked.stood_still), (Some(LEADER), false));
        assert_eq!(check(&mut c, 1, 4).ask, None, "4 is inside 1..5");
    }

    /// Requests go to the presumed leader, then a rotating other peer —
    /// never to this replica itself, and never to the leader twice running
    /// (a dead or equally lagging leader cannot wedge recovery).
    #[test]
    fn requests_alternate_between_the_leader_and_a_rotating_peer() {
        let mut c = Catchup::default();
        c.note_seen(9);
        let asked: Vec<u32> = (0..8)
            .map(|_| check(&mut c, 0, 1).ask.expect("a gap").as_u32())
            .collect();
        assert_eq!(asked, vec![0, 0, 0, 2, 0, 4, 0, 1]);
        assert_eq!(c.sent, 8);
        // A replica that believes it leads asks only the rotation.
        let mut c = Catchup::default();
        c.note_seen(9);
        for _ in 0..10 {
            let target = c.on_check(0, 1, ME, 5, ME).ask.expect("a gap");
            assert_ne!(target, ME);
            c.asked();
        }
    }

    /// A follower gives up on a leader after more than `REIGN_RETRIES`
    /// still periods under seen traffic, and then only on its turn.
    #[test]
    fn a_follower_gives_up_on_a_leader_late_and_in_turn() {
        let mut c = Catchup::default();
        c.note_seen(0);
        let mut turns = Vec::new();
        for period in 1..=12u32 {
            check(&mut c, 0, 1);
            if c.gives_up_on_a_leader(ME, 5) {
                turns.push(period);
            }
        }
        // `still_checks` is one behind the period (the first check only
        // records the frontier): 8 and 13 are ≡ 3 (mod 5), 3 is too early.
        assert_eq!(turns, vec![9]);
        check(&mut c, 1, 1);
        assert!(!c.gives_up_on_a_leader(ME, 5), "the frontier moved");
    }

    /// A replay is bounded by bytes as well as by slot count: with
    /// near-frame-sized batched slots, one request must not trigger a
    /// `CATCHUP_BATCH`-deep burst of huge frames — but always replays at
    /// least one decision so recovery progresses.
    #[test]
    fn a_replay_respects_the_slot_and_byte_budgets() {
        assert_eq!(
            replay_len(std::iter::repeat_n(9, 100)),
            CATCHUP_BATCH as usize
        );
        assert_eq!(replay_len(std::iter::repeat_n(9, 3)), 3);
        assert_eq!(replay_len(std::iter::empty()), 0);
        let big = 47 * (4 + crate::MAX_COMMAND_LEN); // one near-max batch
        let replayed = replay_len(std::iter::repeat_n(big, 10));
        assert!(replayed >= 1 && replayed < CATCHUP_BATCH as usize);
        assert!(replayed * big <= CATCHUP_BYTES && (replayed + 1) * big > CATCHUP_BYTES);
        assert_eq!(replay_len([CATCHUP_BYTES + 1, 1].into_iter()), 1);
        assert_eq!(replay_len([0, CATCHUP_BYTES, 1].into_iter()), 2);
    }
}
