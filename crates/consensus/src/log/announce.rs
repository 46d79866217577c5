//! Held announcements: the decisions a reign leader has made and not yet
//! told anyone.
//!
//! **Owns** the held decisions by slot — the ballot each was chosen at and
//! its batch (owned: the decision itself may be compacted away before the
//! announcement leaves) — and the noted / flushed counters. **Hides** how a
//! held decision is announced exactly once: as part of the one contiguous
//! run the reign's next `Accept` notes, else by a plain `Decide` beside that
//! `Accept` or at the log's next timer.

use super::msg::NOTED_MAX;
use crate::{Ballot, Batch};
use std::collections::BTreeMap;

#[derive(Debug)]
pub(super) struct Held<V> {
    /// At most `pipeline_depth` entries; emptied by the next `Accept` or
    /// the next timer, whichever comes first.
    unannounced: BTreeMap<u64, (Ballot, Batch<V>)>,
    /// Gauge: held decisions announced as the note of an `Accept`.
    pub(super) noted: u64,
    /// Gauge: held decisions announced by a `Decide` of their own after all.
    pub(super) flushed: u64,
}

/// What an `Accept` at some ballot carries off: the note's `(first slot,
/// length)` — length 0 when nothing matched — and the held decisions that
/// are not part of it, each to be announced by a plain `Decide` first.
pub(super) type Carried<V> = ((u64, u64), Vec<(u64, Batch<V>)>);

impl<V> Held<V> {
    pub(super) fn new() -> Self {
        Held {
            unannounced: BTreeMap::new(),
            noted: 0,
            flushed: 0,
        }
    }

    pub(super) fn is_empty(&self) -> bool {
        self.unannounced.is_empty()
    }

    /// L11: our own quorum decided `slot` at our established reign ballot
    /// `b`; the announcement waits for the next `Accept` to carry it.
    pub(super) fn hold(&mut self, slot: u64, b: Ballot, v: Batch<V>) {
        self.unannounced.insert(slot, (b, v));
    }

    /// L13: an `Accept` at ballot `b` is about to leave. Empties the held
    /// set: the lowest contiguous run decided at `b` (at most [`NOTED_MAX`]
    /// slots) becomes its note; out-of-order decisions of a deep window and
    /// those of a reign that ended are left over, in slot order.
    pub(super) fn carry(&mut self, b: Ballot) -> Carried<V> {
        let (mut from, mut len) = (0, 0);
        let mut left_over = Vec::new();
        for (slot, (chosen_at, v)) in std::mem::take(&mut self.unannounced) {
            if chosen_at == b && len < NOTED_MAX && (len == 0 || slot == from + len) {
                if len == 0 {
                    from = slot;
                }
                len += 1;
            } else {
                left_over.push((slot, v));
            }
        }
        self.noted += len;
        self.flushed += left_over.len() as u64;
        ((from, len), left_over)
    }

    /// L14: a timer fired, or the host is stopping: everything still held
    /// leaves as a plain `Decide`, in slot order.
    pub(super) fn flush(&mut self) -> impl Iterator<Item = (u64, Batch<V>)> {
        let held = std::mem::take(&mut self.unannounced);
        self.flushed += held.len() as u64;
        held.into_iter().map(|(slot, (_, v))| (slot, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use irs_types::ProcessId;

    fn reign(epoch: u64) -> Ballot {
        Ballot::for_reign(epoch, ProcessId::new(0))
    }

    fn held(slots: impl IntoIterator<Item = (u64, Ballot)>) -> Held<Value> {
        let mut h = Held::new();
        for (slot, b) in slots {
            h.hold(slot, b, Batch::one(Value(slot)));
        }
        h
    }

    fn slots(left_over: &[(u64, Batch<Value>)]) -> Vec<u64> {
        left_over.iter().map(|(slot, _)| *slot).collect()
    }

    /// Depth 4, decisions out of slot order: the `Accept` that the sliding
    /// window opens notes the one contiguous run and the straggler gets a
    /// plain `Decide` beside it; what no `Accept` carries off leaves at the
    /// next timer. Every decision is announced exactly once.
    #[test]
    fn out_of_order_decisions_are_announced_once_each() {
        let b = reign(1);
        // Slot 2 decided first, then slot 0: the run is slot 0 alone.
        let mut h = held([(2, b), (0, b)]);
        let (note, left_over) = h.carry(b);
        assert_eq!((note, slots(&left_over)), ((0, 1), vec![2]));
        assert_eq!(left_over[0].1, Batch::one(Value(2)), "batch and all");
        assert!(h.is_empty());
        // Slots 3 and 1 decide with nothing queued: no `Accept` comes, the
        // timer flushes both, in slot order, and a second timer nothing.
        h.hold(3, b, Batch::one(Value(3)));
        h.hold(1, b, Batch::one(Value(1)));
        assert_eq!(slots(&h.flush().collect::<Vec<_>>()), vec![1, 3]);
        assert_eq!(h.flush().count(), 0);
        assert_eq!((h.noted, h.flushed), (1, 3));
        // A contiguous run is noted whole.
        let (note, left_over) = held([(5, b), (6, b), (7, b)]).carry(b);
        assert_eq!((note, left_over.len()), ((5, 3), 0));
        // Nothing held: an empty note, nothing left over.
        assert_eq!(Held::<Value>::new().carry(b), ((0, 0), Vec::new()));
    }

    /// A window deeper than `NOTED_MAX` can hold more decisions than one
    /// note may name: the run is capped and the rest leave as `Decide`s.
    #[test]
    fn a_note_never_names_more_than_noted_max_slots() {
        let b = reign(1);
        let mut h = held((0..NOTED_MAX + 6).map(|slot| (slot, b)));
        let (note, left_over) = h.carry(b);
        assert_eq!(note, (0, NOTED_MAX));
        assert_eq!(
            slots(&left_over),
            (NOTED_MAX..NOTED_MAX + 6).collect::<Vec<_>>()
        );
        assert_eq!((h.noted, h.flushed), (NOTED_MAX, 6));
    }

    /// A held decision never rides an `Accept` of another ballot: when the
    /// reign ended it is left over, whatever its slot.
    #[test]
    fn decisions_of_another_ballot_are_left_over() {
        let (old, new) = (reign(1), reign(2));
        let (note, left_over) = held([(0, old), (1, old)]).carry(new);
        assert_eq!((note, slots(&left_over)), ((0, 0), vec![0, 1]));
        // Mixed: the run is the new ballot's, even when it starts later.
        let (note, left_over) = held([(0, old), (1, new), (2, new), (3, old)]).carry(new);
        assert_eq!((note, slots(&left_over)), ((1, 2), vec![0, 3]));
    }
}
