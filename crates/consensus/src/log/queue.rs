//! The submission queue and the leader's window assignments.
//!
//! **Owns** `pending` (values submitted here or forwarded to us, not yet
//! assigned to a slot), `inflight` (batches drained into an open slot of the
//! window, not yet decided) and `decided_values` (the dedup set of the
//! *retained* slots). **Hides** every rule about where a value may sit: a
//! value is in at most one of the three; a forward is queued once; a batch
//! is drained by count *and* bytes; whatever a slot did not decide goes back
//! to the front, in order; and which pending values a non-leader forwards
//! this period.
//!
//! # Batching and pipelining
//!
//! Like the intermittent pulsar whose duty cycle inspired the fault model,
//! a leader's stable "on" time is scarce — so the log amortises it two
//! ways, both tuned through [`ConsensusConfig`](crate::ConsensusConfig):
//!
//! * **Batching** (`batch_max`): each slot decides a [`Batch<V>`]; when the
//!   leader opens a slot it drains up to `batch_max` pending values into
//!   that slot's proposal, so one ballot round trip decides many values.
//! * **Pipelining** (`pipeline_depth`): up to `pipeline_depth` consecutive
//!   frontier slots run their own ballots concurrently.
//!   [`drive`](super::ReplicatedLog::drive) opens new slots the moment
//!   values arrive, and `note_decision` advances the cached frontier across
//!   the window as decisions land (in any order — application still follows
//!   slot order).
//!
//! With `batch_max = 1, pipeline_depth = 1` (the defaults) the protocol is
//! exactly the one-value-per-slot, one-slot-at-a-time log. Values a leader
//! assigned to a slot that ends up deciding something else (a conflicting
//! ballot inherited another proposal) are reclaimed into the pending queue
//! and re-proposed in a later slot, so nothing submitted is silently lost.

use crate::{Batch, LogValue, MAX_BATCH_BYTES, MAX_BATCH_LEN};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

#[derive(Debug)]
pub(super) struct Queue<V> {
    /// Values submitted locally or forwarded to us, not yet assigned to a
    /// slot.
    pending: VecDeque<V>,
    /// Leader-side slot assignments. A slot that decides a *different* batch
    /// gets its assignment reclaimed into `pending`.
    inflight: BTreeMap<u64, Batch<V>>,
    /// The values known to be decided in a *retained* slot. Values below the
    /// compaction floor are forgotten with their slots; re-submissions of
    /// those are the host's session filter's problem.
    decided_values: BTreeSet<V>,
    /// Where the previous period's forward window ended, as an index into
    /// `pending` (which may have shrunk since: the window then restarts).
    forwarded: usize,
}

impl<V: LogValue> Queue<V> {
    pub(super) fn new() -> Self {
        Queue {
            pending: VecDeque::new(),
            inflight: BTreeMap::new(),
            decided_values: BTreeSet::new(),
            forwarded: 0,
        }
    }

    /// L1: a local submission joins the queue (the host dedups its own).
    pub(super) fn submit(&mut self, v: V) {
        self.pending.push_back(v);
    }

    /// L2: a forwarded submission joins the queue unless it is decided in a
    /// retained slot or queued already. Returns whether it was queued.
    pub(super) fn accept_forward(&mut self, v: &V) -> bool {
        let fresh = !self.is_decided(v) && !self.contains(v);
        if fresh {
            self.pending.push_back(v.clone());
        }
        fresh
    }

    /// Values not yet decided: unassigned plus assigned to an open slot.
    pub(super) fn len(&self) -> usize {
        self.pending.len() + self.inflight.values().map(Batch::len).sum::<usize>()
    }

    pub(super) fn has_unassigned(&self) -> bool {
        !self.pending.is_empty()
    }

    pub(super) fn is_decided(&self, v: &V) -> bool {
        self.decided_values.contains(v)
    }

    /// Whether `v` is queued, unassigned or assigned.
    pub(super) fn contains(&self, v: &V) -> bool {
        self.pending.contains(v) || self.inflight.values().any(|b| b.values().contains(v))
    }

    pub(super) fn is_assigned(&self, slot: u64) -> bool {
        self.inflight.contains_key(&slot)
    }

    /// L9 (the batch): drains up to `batch_max` pending values into `slot`'s
    /// assignment — by count *and* by bytes: a count bound alone would let
    /// `MAX_BATCH_LEN` near-max commands outgrow a wire frame and panic the
    /// UDP send path. The first value is always admitted (its own domain
    /// bound keeps a singleton batch frameable). Call with a value pending.
    pub(super) fn assign(&mut self, slot: u64, batch_max: usize) -> Batch<V> {
        let take = batch_max.clamp(1, MAX_BATCH_LEN).min(self.pending.len());
        let mut values = Vec::with_capacity(take);
        let mut bytes = 0usize;
        while values.len() < take {
            let size = self.pending.front().expect("len checked").estimated_size();
            if !values.is_empty() && bytes + size > MAX_BATCH_BYTES {
                break;
            }
            bytes += size;
            values.push(self.pending.pop_front().expect("len checked"));
        }
        let batch = Batch::new(values);
        self.inflight.insert(slot, batch.clone());
        batch
    }

    /// L12 (the queue's half): `slot` decided `batch`. Its values are
    /// decided and leave the queue; if we had assigned the slot something
    /// else (a conflicting ballot inherited another leader's batch), our
    /// still-undecided values go back in front to ride the next slot.
    pub(super) fn retire(&mut self, slot: u64, batch: &Batch<V>) {
        for v in batch.iter() {
            self.decided_values.insert(v.clone());
            if let Some(pos) = self.pending.iter().position(|p| p == v) {
                self.pending.remove(pos);
            }
        }
        if let Some(mine) = self.inflight.remove(&slot) {
            self.requeue(mine);
        }
    }

    /// Puts a reclaimed assignment's still-undecided values back at the
    /// front of the queue, preserving their order. The single requeue path
    /// for every reclaim, so the dedup rules (skip values decided in a
    /// retained slot, skip values already queued) cannot drift apart.
    fn requeue(&mut self, batch: Batch<V>) {
        for v in batch.into_vec().into_iter().rev() {
            if !self.decided_values.contains(&v) && !self.pending.contains(&v) {
                self.pending.push_front(v);
            }
        }
    }

    /// L7, L24 (the queue's half): returns every assignment below `upto` to
    /// the queue, oldest slot ending up at the front — all of them
    /// (`u64::MAX`) when this replica stops leading, so the values reach
    /// the new leader instead of stranding in dead ballots; those a
    /// snapshot install just made moot otherwise. Values can end up decided
    /// twice this way (our old ballot may still complete, the snapshot may
    /// cover them); the host's session filter is the dedup of record.
    pub(super) fn reclaim_below(&mut self, upto: u64) {
        let keep = self.inflight.split_off(&upto);
        for (_, batch) in std::mem::replace(&mut self.inflight, keep)
            .into_iter()
            .rev()
        {
            self.requeue(batch);
        }
    }

    /// L23, L24 (the queue's half): the retained slots changed under a
    /// truncation or an install; `retained` is what is left of them.
    pub(super) fn rebuild_decided(&mut self, retained: &BTreeMap<u64, Batch<V>>) {
        let decided = retained.values().flat_map(|b| b.iter().cloned());
        self.decided_values = decided.collect();
    }

    /// L2 (the sender's half): what a non-leader forwards this check period
    /// — the next `batch_max` pending values after the previous period's,
    /// wrapping. The window *rotates* because a value can sit at the head
    /// for good: decided while this replica lagged and covered by the
    /// snapshot it then installed, the decision is invisible here and the
    /// leader ignores the forward as decided. Everything behind such a head
    /// is still forwarded within `len` periods.
    pub(super) fn forward_window(&mut self, batch_max: usize) -> impl Iterator<Item = &V> {
        let len = self.pending.len();
        let start = if self.forwarded < len {
            self.forwarded
        } else {
            0
        };
        let take = batch_max.clamp(1, MAX_BATCH_LEN).min(len);
        self.forwarded = start + take;
        let pending = &self.pending;
        (start..start + take).map(move |i| &pending[i % len])
    }

    #[cfg(test)]
    pub(super) fn unassigned(&self) -> &VecDeque<V> {
        &self.pending
    }

    #[cfg(test)]
    pub(super) fn assignment(&self, slot: u64) -> Option<&Batch<V>> {
        self.inflight.get(&slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Command, Value, MAX_COMMAND_LEN};

    fn queue_of(values: impl IntoIterator<Item = u64>) -> Queue<Value> {
        let mut q = Queue::new();
        values.into_iter().for_each(|v| q.submit(Value(v)));
        q
    }

    fn unassigned(q: &Queue<Value>) -> Vec<u64> {
        q.unassigned().iter().map(|v| v.0).collect()
    }

    #[test]
    fn a_forward_is_queued_once_and_never_after_its_decision() {
        let mut q: Queue<Value> = Queue::new();
        assert!(q.accept_forward(&Value(5)));
        assert!(
            !q.accept_forward(&Value(5)),
            "a second forward is a duplicate"
        );
        assert_eq!(q.len(), 1);
        // Assigned to a slot it is still queued, as far as a forward goes.
        q.assign(0, 1);
        assert!(!q.has_unassigned() && q.contains(&Value(5)));
        assert!(!q.accept_forward(&Value(5)));
        q.retire(0, &Batch::one(Value(5)));
        assert_eq!(q.len(), 0);
        assert!(q.is_decided(&Value(5)));
        assert!(!q.accept_forward(&Value(5)), "a stale forward is ignored");
        // Once the slot is compacted away the value is forgotten: the
        // re-submission is the host's session filter's to catch.
        q.rebuild_decided(&BTreeMap::new());
        assert!(q.accept_forward(&Value(5)));
    }

    /// A slot that decides a *different* batch returns our assignment's
    /// still-undecided values to the front, in order; decided ones and ones
    /// queued already are not requeued.
    #[test]
    fn a_conflicting_decision_requeues_what_it_did_not_decide_in_front() {
        let mut q = queue_of(1..=5);
        assert_eq!(q.assign(0, 2).values(), &[Value(1), Value(2)]);
        assert_eq!(q.assign(1, 2).values(), &[Value(3), Value(4)]);
        assert_eq!((q.len(), unassigned(&q)), (5, vec![5]));
        // Another leader won slot 0, and its batch happens to hold our 2.
        q.retire(0, &Batch::new(vec![Value(9), Value(2)]));
        assert_eq!(unassigned(&q), vec![1, 5]);
        assert!(q.is_decided(&Value(2)) && !q.contains(&Value(2)));
        assert!(!q.is_assigned(0) && q.is_assigned(1));
        // The next slot opened re-proposes the reclaimed value first.
        assert_eq!(q.assign(2, 2).values(), &[Value(1), Value(5)]);
        // Our own batch deciding retires it without a requeue.
        q.retire(1, &Batch::new(vec![Value(3), Value(4)]));
        assert_eq!((q.len(), q.assignment(1)), (2, None));
    }

    /// Losing leadership returns every assignment, oldest slot in front; an
    /// install returns only those below it, and skips what a retained slot
    /// decided.
    #[test]
    fn reclaims_put_assignments_back_oldest_first() {
        let mut q = queue_of(1..=6);
        for slot in 0..3 {
            q.assign(slot, 2);
        }
        q.reclaim_below(u64::MAX);
        assert_eq!(unassigned(&q), vec![1, 2, 3, 4, 5, 6]);
        for slot in 0..3 {
            q.assign(slot, 2);
        }
        q.rebuild_decided(&BTreeMap::from([(7, Batch::one(Value(3)))]));
        q.reclaim_below(2);
        assert_eq!(unassigned(&q), vec![1, 2, 4], "3 is decided in a kept slot");
        assert_eq!(q.assignment(2).map(Batch::len), Some(2));
    }

    /// The drain respects the byte budget as well as the count bound: a
    /// window of near-max commands must be split across slots, never packed
    /// into one batch that would outgrow a wire frame.
    #[test]
    fn the_batch_drain_respects_the_byte_budget() {
        let mut q: Queue<Command> = Queue::new();
        for i in 0..MAX_BATCH_LEN {
            q.submit(Command::new(vec![i as u8; MAX_COMMAND_LEN]));
        }
        let batch = q.assign(0, usize::MAX);
        assert!(
            batch.len() < MAX_BATCH_LEN,
            "64 near-max commands cannot all fit one frame"
        );
        let bytes: usize = batch.iter().map(LogValue::estimated_size).sum();
        assert!(bytes <= MAX_BATCH_BYTES, "drained {bytes} bytes");
        assert!(q.has_unassigned(), "the overflow waits for the next slot");
        // A value over the budget on its own is still admitted, alone.
        let mut q: Queue<Command> = Queue::new();
        q.submit(Command::new(vec![1; MAX_COMMAND_LEN]));
        assert_eq!(q.assign(0, 0).len(), 1, "batch_max is clamped to 1");
    }

    /// The forward window rotates. At `batch_max = 1` a head that never
    /// leaves (covered by an installed snapshot: the leader ignores it as
    /// decided and this replica never hears so) used to be the only value
    /// ever forwarded; everything behind it now goes out within `len`
    /// periods, while the head is retried once a rotation.
    #[test]
    fn a_head_that_never_leaves_does_not_starve_the_tail() {
        let mut q = queue_of([10, 11, 12]);
        let period =
            |q: &mut Queue<Value>| -> Vec<u64> { q.forward_window(1).map(|v| v.0).collect() };
        let first_rotation: Vec<u64> = (0..3).flat_map(|_| period(&mut q)).collect();
        assert_eq!(first_rotation, vec![10, 11, 12]);
        assert_eq!(period(&mut q), vec![10], "wrapping");
        // The tail is decided; the stuck head stays, alone in its window.
        q.retire(0, &Batch::new(vec![Value(11), Value(12)]));
        assert_eq!(period(&mut q), vec![10]);
        // A queue no longer than the window is forwarded whole, from the
        // head, every period — rotation only shows under a backlog.
        let mut q = queue_of([1, 2]);
        for _ in 0..3 {
            let window: Vec<u64> = q.forward_window(8).map(|v| v.0).collect();
            assert_eq!(window, vec![1, 2]);
        }
        // The last window of a rotation wraps around to the head.
        let mut q = queue_of(0..5);
        let windows: Vec<Vec<u64>> = (0..3)
            .map(|_| q.forward_window(2).map(|v| v.0).collect())
            .collect();
        assert_eq!(windows, [vec![0, 1], vec![2, 3], vec![4, 0]]);
        assert!(queue_of([]).forward_window(4).next().is_none());
    }
}
