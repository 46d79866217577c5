//! Per-round bookkeeping: `rec_from_i[rn]` and `suspicions_i[rn][k]`.

use irs_types::{ProcessId, ProcessSet, RoundNum};
use std::collections::BTreeMap;

/// Associativity of the in-[`RoundBook`] round cache. Must exceed the spread
/// of rounds that concurrently receive suspicion votes (delay spread divided
/// by the broadcast period); evictions beyond it are correct, just slower.
const WAYS: usize = 64;

/// Bits per vote-count lane (see [`VoteLanes`]).
const LANE_BITS: usize = 16;
/// Lanes per 64-bit word.
const LANES: usize = 4;
/// Mask of one lane.
const LANE_MASK: u64 = (1 << LANE_BITS) - 1;
/// The per-lane sign bit used by the SWAR quorum comparison.
const LANE_TOP: u64 = 1 << (LANE_BITS - 1);
/// `LANE_TOP` replicated into every lane.
const TOP_REP: u64 =
    LANE_TOP | LANE_TOP << LANE_BITS | LANE_TOP << (2 * LANE_BITS) | LANE_TOP << (3 * LANE_BITS);

/// `NIBBLE_LUT[m]` spreads the 4 bits of `m` into the 4 packed lanes as 0/1,
/// so adding it to a lane word counts one vote for each process whose
/// membership bit is set.
const NIBBLE_LUT: [u64; 16] = {
    let mut lut = [0u64; 16];
    let mut m = 0;
    while m < 16 {
        let mut v = 0u64;
        let mut l = 0;
        while l < LANES {
            if (m >> l) & 1 == 1 {
                v |= 1 << (l * LANE_BITS);
            }
            l += 1;
        }
        lut[m] = v;
        m += 1;
    }
    lut
};

/// The suspicion-vote counts of one round, as 16-bit lanes packed four per
/// `u64` word, plus the monotone ≥-quorum bitmask derived from them.
///
/// The packing is what makes counting a whole `SUSPICION(rn, suspects)`
/// message cheap at large `n`: each 4-bit nibble of the suspect set indexes
/// [`NIBBLE_LUT`] and one 64-bit add counts four votes, so an `n = 256`
/// message is 64 table-lookup adds instead of 256 read-modify-writes — and
/// the same pass piggybacks a SWAR "any lane ≥ quorum" test (counts stay
/// below `2^15`, so a per-lane carry can never cross lanes).
#[derive(Clone, Debug, Default)]
struct VoteLanes {
    /// `n.div_ceil(4)` words of 4 lanes each; lane `k % 4` of word `k / 4`
    /// is the vote count against process `k`.
    words: Vec<u64>,
    /// Bitmask (one bit per process, `n.div_ceil(64)` words) of the lanes
    /// whose count has reached `ge_quorum`. Counts only grow within a round,
    /// so the mask is monotone; it turns per-message candidate collection
    /// into one AND per suspect word.
    ge: Vec<u64>,
    /// The quorum `ge` is tracked against (0 = not yet tracked; the mask is
    /// rebuilt by [`VoteLanes::ensure_quorum`] when it changes).
    ge_quorum: u32,
}

impl VoteLanes {
    fn new(n: usize) -> Self {
        VoteLanes {
            words: vec![0; n.div_ceil(LANES)],
            ge: vec![0; n.div_ceil(64)],
            ge_quorum: 0,
        }
    }

    fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.ge.iter_mut().for_each(|w| *w = 0);
        self.ge_quorum = 0;
    }

    fn get(&self, k: usize) -> u32 {
        let w = self.words[k / LANES];
        ((w >> ((k % LANES) * LANE_BITS)) & LANE_MASK) as u32
    }

    fn add_one(&mut self, k: usize) -> u32 {
        self.words[k / LANES] += 1 << ((k % LANES) * LANE_BITS);
        let v = self.get(k);
        if self.ge_quorum != 0 && v >= self.ge_quorum {
            self.ge[k / 64] |= 1 << (k % 64);
        }
        v
    }

    /// Points `ge` at the given quorum, rebuilding the mask if the tracked
    /// quorum changes (at most once per round in practice: 0 → quorum).
    fn ensure_quorum(&mut self, quorum: u32) {
        if self.ge_quorum == quorum {
            return;
        }
        self.ge_quorum = quorum;
        self.ge.iter_mut().for_each(|w| *w = 0);
        for k in 0..self.words.len() * LANES {
            if self.get(k) >= quorum {
                self.ge[k / 64] |= 1 << (k % 64);
            }
        }
    }
}

/// The per-round state of one Ω process: which processes it has heard an
/// `ALIVE(rn)` from, and how many `SUSPICION(rn, …)` votes it has counted
/// against each process.
///
/// The paper's pseudo-code indexes both structures by every round number ever
/// seen; a literal implementation would grow without bound. `RoundBook`
/// stores them in ordered maps and prunes entries that can no longer
/// influence the algorithm:
///
/// * `rec_from[rn]` is only read for `rn = r_rn` (the current receiving
///   round) and only written for `rn ≥ r_rn`, so rounds below `r_rn` are
///   dropped when the round advances;
/// * `suspicions[rn][k]` is read by the line-`*` window, which looks back at
///   most `susp_level[k] + f(rn)` rounds from the round of an incoming
///   `SUSPICION`; a configurable retention (always at least the largest
///   window observed so far, plus slack) keeps what the window may need.
///   A pruned or absent round counts as "not suspected by a quorum", which
///   can only *delay* a suspicion-level increment, never cause a spurious
///   one — the conservative direction for the leader-stability lemmas.
#[derive(Clone, Debug)]
pub struct RoundBook {
    owner: ProcessId,
    n: usize,
    rec_from: BTreeMap<RoundNum, ProcessSet>,
    /// Direct-mapped cache over `rec_from`, same discipline as the suspicion
    /// cache below: a round's heard-set lives in exactly one of its cache way
    /// or the map. `ALIVE` recording and the round-close predicate then stay
    /// off the map entirely in the common case.
    rec_rn: Vec<RoundNum>,
    rec_cache: Vec<ProcessSet>,
    /// Rounds strictly below this have been pruned from `rec_from`.
    rec_floor: RoundNum,
    suspicions: BTreeMap<RoundNum, VoteLanes>,
    /// Direct-mapped cache of vote counts for recent rounds (way = `rn mod
    /// WAYS`). Suspicion votes cluster on a sliding window of rounds whose
    /// width is the message-delay spread; with the window in cache, counting
    /// a vote is an array access instead of a `BTreeMap` operation. A round's
    /// counts live in exactly one place: its cache way or the map.
    cache_rn: Vec<RoundNum>,
    cache: Vec<VoteLanes>,
    /// Rounds strictly below this have been pruned.
    floor: RoundNum,
    /// Extra rounds of suspicion history to retain beyond the largest window
    /// (0 = never prune).
    retention: u64,
    /// Largest look-back window requested so far, tracked so pruning never
    /// outpaces the window.
    max_lookback_seen: u64,
}

impl RoundBook {
    /// Creates the bookkeeping for a process `owner` of a system of `n`
    /// processes.
    pub fn new(owner: ProcessId, n: usize, retention: u64) -> Self {
        assert!(
            n < (LANE_TOP as usize),
            "suspicion-vote lanes are {LANE_BITS}-bit; n = {n} is out of range"
        );
        RoundBook {
            owner,
            n,
            rec_from: BTreeMap::new(),
            rec_rn: vec![RoundNum::ZERO; WAYS],
            rec_cache: (0..WAYS).map(|_| ProcessSet::empty(n)).collect(),
            rec_floor: RoundNum::FIRST,
            suspicions: BTreeMap::new(),
            cache_rn: vec![RoundNum::ZERO; WAYS],
            cache: (0..WAYS).map(|_| VoteLanes::new(n)).collect(),
            floor: RoundNum::FIRST,
            retention,
            max_lookback_seen: 0,
        }
    }

    /// Records the reception of `ALIVE(rn)` from `from` (line 6).
    pub fn record_alive(&mut self, rn: RoundNum, from: ProcessId) {
        if rn < self.rec_floor {
            return; // the round was pruned; it is never read again
        }
        let way = (rn.value() % WAYS as u64) as usize;
        if self.rec_rn[way] != rn {
            let occupant = self.rec_rn[way];
            let owner = self.owner;
            let incoming = self
                .rec_from
                .remove(&rn)
                .unwrap_or_else(|| ProcessSet::singleton(self.rec_cache[way].capacity(), owner));
            let spilled = std::mem::replace(&mut self.rec_cache[way], incoming);
            if occupant != RoundNum::ZERO && occupant >= self.rec_floor {
                self.rec_from.insert(occupant, spilled);
            }
            self.rec_rn[way] = rn;
        }
        self.rec_cache[way].insert(from);
    }

    /// Looks up the heard-set of `rn`, wherever it currently lives.
    fn rec_set(&self, rn: RoundNum) -> Option<&ProcessSet> {
        let way = (rn.value() % WAYS as u64) as usize;
        if self.rec_rn[way] == rn {
            return Some(&self.rec_cache[way]);
        }
        self.rec_from.get(&rn)
    }

    /// The number of processes heard from in round `rn` (the owner always
    /// counts, per the paper's initialisation `rec_from_i[rn] = {i}`).
    pub fn heard_count(&self, rn: RoundNum) -> usize {
        self.rec_set(rn).map_or(1, |s| s.len())
    }

    /// The set `Π ∖ rec_from_i[rn]` (line 9).
    pub fn suspects(&self, rn: RoundNum) -> ProcessSet {
        let all = ProcessSet::full(self.n);
        match self.rec_set(rn) {
            Some(heard) => all.difference(heard),
            None => all.difference(&ProcessSet::singleton(self.n, self.owner)),
        }
    }

    /// Records one `SUSPICION(rn, …)` vote against `k` (line 15) and returns
    /// the updated count.
    pub fn record_suspicion(&mut self, rn: RoundNum, k: ProcessId) -> u32 {
        if rn < self.floor {
            // The round was pruned; counting a vote for it could not lead to
            // an increment anyway (the window check treats pruned rounds as
            // unsatisfied), so drop it.
            return 0;
        }
        self.cached_counts(rn).add_one(k.index())
    }

    /// Records one `SUSPICION(rn, suspects)` message — one vote against
    /// every member of `suspects` — and appends the members whose count has
    /// reached `quorum` to `out` (cleared first), in increasing id order.
    ///
    /// Equivalent to calling [`RoundBook::record_suspicion`] for each member
    /// and checking each returned count against the quorum, but structured as
    /// the large-`n` inner loop it is (a `SUSPICION` names ~`n − quorum`
    /// processes at `n = 128`):
    ///
    /// * the round's cache way is resolved once per message, not per suspect;
    /// * votes land four at a time: each 4-bit nibble of the suspect set is
    ///   spread through `NIBBLE_LUT` and added onto a packed lane word;
    /// * the same adds piggyback a SWAR "did a lane just reach the quorum"
    ///   equality test that maintains the round's monotone ≥-quorum bitmask,
    ///   so collecting the candidates is one AND per suspect word.
    ///
    /// A pruned round records nothing, matching the single-vote path.
    pub fn record_suspicions_collect(
        &mut self,
        rn: RoundNum,
        suspects: &ProcessSet,
        quorum: u32,
        out: &mut Vec<ProcessId>,
    ) {
        out.clear();
        if rn < self.floor {
            return;
        }
        // A zero quorum behaves like quorum 1: every suspect of the message
        // has a count of at least one after its own vote, so the candidate
        // sets coincide — and the crossing detector needs a nonzero target.
        let quorum = quorum.max(1);
        let counts = self.cached_counts(rn);
        counts.ensure_quorum(quorum);
        // Every add here is +1, so a lane reaches the quorum exactly when it
        // *becomes equal* to it — detected with a SWAR equality test (counts
        // stay below 2^15, asserted in `new`, so per-lane arithmetic cannot
        // carry across lanes) and accumulated into the monotone `ge` mask.
        let one_rep = 1 | 1 << LANE_BITS | 1 << (2 * LANE_BITS) | 1 << (3 * LANE_BITS);
        let q_rep = u64::from(quorum) * one_rep;
        // 16 nibbles (of 4 membership bits each) per 64-bit set word; lane
        // word `wi * 16 + nib_idx` holds the counts of those 4 processes.
        for (wi, &word) in suspects.as_words().iter().enumerate() {
            if word == 0 {
                continue;
            }
            let mut w = word;
            let mut nib_idx = 0usize;
            while w != 0 {
                let nib = (w & 0xF) as usize;
                w >>= 4;
                if nib != 0 {
                    let lw = &mut counts.words[wi * 16 + nib_idx];
                    *lw += NIBBLE_LUT[nib];
                    // Zero-lane detector over `lw ^ q_rep`: flags lanes whose
                    // count just became exactly `quorum`. Setting every
                    // lane's (always-clear) top bit before subtracting one
                    // per lane makes the test exact — no borrow can cross a
                    // lane boundary, so a lane is flagged iff it is zero.
                    let y = *lw ^ q_rep;
                    let crossed = !((y | TOP_REP) - one_rep) & TOP_REP;
                    if crossed != 0 {
                        let base_k = wi * 64 + nib_idx * LANES;
                        for l in 0..LANES {
                            if crossed & (LANE_TOP << (l * LANE_BITS)) != 0 {
                                counts.ge[(base_k + l) / 64] |= 1 << ((base_k + l) % 64);
                            }
                        }
                    }
                }
                nib_idx += 1;
            }
        }
        // Candidates: the suspects of this message whose count is at (or
        // past) the quorum — one AND per word against the monotone mask.
        for (wi, &word) in suspects.as_words().iter().enumerate() {
            let mut m = word & counts.ge[wi];
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                m &= m - 1;
                out.push(ProcessId::new((wi * 64 + b) as u32));
            }
        }
    }

    /// Loads `rn`'s vote counts into its cache way and returns them.
    fn cached_counts(&mut self, rn: RoundNum) -> &mut VoteLanes {
        let way = (rn.value() % WAYS as u64) as usize;
        if self.cache_rn[way] != rn {
            let occupant = self.cache_rn[way];
            if occupant != RoundNum::ZERO && occupant >= self.floor {
                // Spill the live occupant to the map and bring in `rn`'s
                // counts (or a zeroed buffer for a fresh round).
                let incoming = self
                    .suspicions
                    .remove(&rn)
                    .unwrap_or_else(|| VoteLanes::new(self.n));
                let spilled = std::mem::replace(&mut self.cache[way], incoming);
                self.suspicions.insert(occupant, spilled);
            } else {
                // Vacant (or pruned) way: reuse its buffer.
                match self.suspicions.remove(&rn) {
                    Some(incoming) => self.cache[way] = incoming,
                    None => self.cache[way].clear(),
                }
            }
            self.cache_rn[way] = rn;
        }
        &mut self.cache[way]
    }

    /// The number of `SUSPICION(rn, …)` votes counted against `k`.
    pub fn suspicion_count(&self, rn: RoundNum, k: ProcessId) -> u32 {
        let way = (rn.value() % WAYS as u64) as usize;
        if self.cache_rn[way] == rn {
            return self.cache[way].get(k.index());
        }
        self.suspicions.get(&rn).map_or(0, |c| c.get(k.index()))
    }

    /// The line-`*` window condition: `true` iff every round
    /// `x ∈ [rn − lookback, rn]` (clamped to start at round 1) has counted at
    /// least `quorum` votes against `k`.
    ///
    /// Rounds that were pruned (below the retention floor) count as *not*
    /// satisfying the condition.
    pub fn window_suspected(
        &mut self,
        k: ProcessId,
        rn: RoundNum,
        lookback: u64,
        quorum: u32,
    ) -> bool {
        self.max_lookback_seen = self.max_lookback_seen.max(lookback);
        let low = rn.saturating_back(lookback).max(RoundNum::FIRST);
        if low < self.floor {
            return false;
        }
        for x in low.through(rn) {
            if self.suspicion_count(x, k) < quorum {
                return false;
            }
        }
        true
    }

    /// Clears the cache ways owned by rounds in `[old_floor, new_floor)`.
    ///
    /// The floor advances by one round per close, so the incremental loop is
    /// O(1); if it ever jumps past the cache size, one full sweep evicting
    /// everything below the new floor is cheaper.
    fn evict_ways(ways: &mut [RoundNum], old_floor: RoundNum, new_floor: RoundNum) {
        if new_floor - old_floor >= WAYS as u64 {
            for rn in ways {
                if *rn < new_floor {
                    *rn = RoundNum::ZERO;
                }
            }
        } else {
            let mut r = old_floor;
            while r < new_floor {
                let way = (r.value() % WAYS as u64) as usize;
                if ways[way] == r {
                    ways[way] = RoundNum::ZERO;
                }
                r = r.next();
            }
        }
    }

    /// Drops bookkeeping that can no longer influence the algorithm, given
    /// that the receiving round has advanced to `r_rn`.
    pub fn prune(&mut self, r_rn: RoundNum) {
        // rec_from is only read at r_rn and written at rn ≥ r_rn. Pop from
        // the front instead of `retain`: this runs once per closed round, and
        // scanning the whole map would make closing a round O(retained
        // rounds) instead of O(rounds actually dropped).
        if r_rn > self.rec_floor {
            Self::evict_ways(&mut self.rec_rn, self.rec_floor, r_rn);
            self.rec_floor = r_rn;
        }
        while let Some(entry) = self.rec_from.first_entry() {
            if *entry.key() >= r_rn {
                break;
            }
            entry.remove();
        }
        if self.retention == 0 {
            return;
        }
        // Keep at least the largest window ever requested, plus slack, plus
        // the configured retention.
        let keep = self.retention.max(self.max_lookback_seen.saturating_add(2));
        let new_floor = r_rn.saturating_back(keep);
        if new_floor > self.floor {
            Self::evict_ways(&mut self.cache_rn, self.floor, new_floor);
            self.floor = new_floor;
            while let Some(entry) = self.suspicions.first_entry() {
                if *entry.key() >= new_floor {
                    break;
                }
                entry.remove();
            }
        }
    }

    /// Number of rounds currently retained in the suspicion table (a gauge
    /// for the memory-boundedness experiment).
    pub fn retained_suspicion_rounds(&self) -> usize {
        self.suspicions.len()
            + self
                .cache_rn
                .iter()
                .filter(|&&rn| rn != RoundNum::ZERO && rn >= self.floor)
                .count()
    }

    /// Number of rounds currently retained in the `rec_from` table.
    pub fn retained_rec_from_rounds(&self) -> usize {
        self.rec_from.len()
            + self
                .rec_rn
                .iter()
                .filter(|&&rn| rn != RoundNum::ZERO && rn >= self.rec_floor)
                .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> RoundBook {
        RoundBook::new(ProcessId::new(0), 5, 64)
    }

    #[test]
    fn owner_always_counts_as_heard() {
        let b = book();
        assert_eq!(b.heard_count(RoundNum::new(3)), 1);
        let suspects = b.suspects(RoundNum::new(3));
        assert_eq!(suspects.len(), 4);
        assert!(!suspects.contains(ProcessId::new(0)));
    }

    #[test]
    fn record_alive_and_suspects() {
        let mut b = book();
        b.record_alive(RoundNum::new(2), ProcessId::new(1));
        b.record_alive(RoundNum::new(2), ProcessId::new(3));
        b.record_alive(RoundNum::new(2), ProcessId::new(3)); // duplicate is idempotent
        assert_eq!(b.heard_count(RoundNum::new(2)), 3);
        let suspects = b.suspects(RoundNum::new(2));
        assert_eq!(
            suspects.to_vec(),
            vec![ProcessId::new(2), ProcessId::new(4)]
        );
    }

    #[test]
    fn suspicion_counting() {
        let mut b = book();
        assert_eq!(b.suspicion_count(RoundNum::new(1), ProcessId::new(2)), 0);
        assert_eq!(b.record_suspicion(RoundNum::new(1), ProcessId::new(2)), 1);
        assert_eq!(b.record_suspicion(RoundNum::new(1), ProcessId::new(2)), 2);
        assert_eq!(b.record_suspicion(RoundNum::new(1), ProcessId::new(4)), 1);
        assert_eq!(b.suspicion_count(RoundNum::new(1), ProcessId::new(2)), 2);
    }

    #[test]
    fn window_requires_every_round_in_range() {
        let mut b = book();
        let k = ProcessId::new(3);
        for rn in 5..=10u64 {
            for _ in 0..3 {
                b.record_suspicion(RoundNum::new(rn), k);
            }
        }
        // lookback 5 from round 10 → rounds 5..=10, all have 3 votes.
        assert!(b.window_suspected(k, RoundNum::new(10), 5, 3));
        // lookback 6 from round 10 → round 4 has no votes.
        assert!(!b.window_suspected(k, RoundNum::new(10), 6, 3));
        // higher quorum fails.
        assert!(!b.window_suspected(k, RoundNum::new(10), 5, 4));
        // lookback 0 only checks rn itself.
        assert!(b.window_suspected(k, RoundNum::new(7), 0, 3));
    }

    #[test]
    fn window_clamps_at_round_one() {
        let mut b = book();
        let k = ProcessId::new(1);
        b.record_suspicion(RoundNum::new(1), k);
        b.record_suspicion(RoundNum::new(2), k);
        // lookback larger than the history: window is [1, 2] after clamping.
        assert!(b.window_suspected(k, RoundNum::new(2), 100, 1));
    }

    #[test]
    fn prune_drops_old_rounds_but_keeps_window() {
        let mut b = RoundBook::new(ProcessId::new(0), 4, 8);
        let k = ProcessId::new(2);
        for rn in 1..=100u64 {
            b.record_alive(RoundNum::new(rn), ProcessId::new(1));
            b.record_suspicion(RoundNum::new(rn), k);
        }
        assert_eq!(b.retained_rec_from_rounds(), 100);
        b.prune(RoundNum::new(100));
        // rec_from below round 100 is gone.
        assert_eq!(b.retained_rec_from_rounds(), 1);
        // suspicion history keeps the last `retention` (8) + slack rounds.
        assert!(b.retained_suspicion_rounds() <= 12);
        assert!(b.retained_suspicion_rounds() >= 8);
        // Window queries inside the retained range still work…
        assert!(b.window_suspected(k, RoundNum::new(100), 5, 1));
        // …and queries reaching below the pruned floor conservatively fail.
        assert!(!b.window_suspected(k, RoundNum::new(100), 50, 1));
        // Votes for pruned rounds are ignored.
        assert_eq!(b.record_suspicion(RoundNum::new(3), k), 0);
    }

    #[test]
    fn zero_retention_never_prunes_suspicions() {
        let mut b = RoundBook::new(ProcessId::new(0), 4, 0);
        let k = ProcessId::new(1);
        for rn in 1..=50u64 {
            b.record_suspicion(RoundNum::new(rn), k);
        }
        b.prune(RoundNum::new(50));
        assert_eq!(b.retained_suspicion_rounds(), 50);
        assert!(b.window_suspected(k, RoundNum::new(50), 49, 1));
    }

    /// The packed-lane batch kernel against the single-vote reference: for
    /// any message sequence, `record_suspicions_collect` must count exactly
    /// like per-suspect `record_suspicion` calls and collect exactly the
    /// suspects whose updated count reached the quorum, in increasing id
    /// order. Sizes straddle the 64-bit set-word and 4-lane word boundaries.
    mod batch_kernel {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_batch_record_matches_single_vote_reference(
                which in 0usize..6,
                msgs in proptest::collection::vec(
                    (1u64..5, proptest::collection::btree_set(0u32..131, 0..50)),
                    1..40,
                ),
            ) {
                let n = [5usize, 63, 64, 65, 128, 130][which];
                let quorum = (n as u32) / 2 + 1;
                let mut batch = RoundBook::new(ProcessId::new(0), n, 0);
                let mut single = RoundBook::new(ProcessId::new(0), n, 0);
                let mut out = Vec::new();
                for (rn, set) in msgs {
                    let rn = RoundNum::new(rn);
                    let suspects = ProcessSet::from_ids(
                        n,
                        set.iter()
                            .filter(|&&k| (k as usize) < n)
                            .map(|&k| ProcessId::new(k)),
                    );
                    batch.record_suspicions_collect(rn, &suspects, quorum, &mut out);
                    let mut expected = Vec::new();
                    for k in suspects.iter() {
                        if single.record_suspicion(rn, k) >= quorum {
                            expected.push(k);
                        }
                    }
                    prop_assert_eq!(&out, &expected);
                    for k in ProcessId::all(n) {
                        prop_assert_eq!(
                            batch.suspicion_count(rn, k),
                            single.suspicion_count(rn, k)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prune_respects_observed_lookback() {
        let mut b = RoundBook::new(ProcessId::new(0), 4, 4);
        let k = ProcessId::new(1);
        for rn in 1..=60u64 {
            b.record_suspicion(RoundNum::new(rn), k);
        }
        // A window of 30 has been requested: pruning must keep at least 32.
        assert!(b.window_suspected(k, RoundNum::new(60), 30, 1));
        b.prune(RoundNum::new(60));
        assert!(
            b.retained_suspicion_rounds() >= 32,
            "{}",
            b.retained_suspicion_rounds()
        );
    }
}
