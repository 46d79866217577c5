//! The submission queue and the leader's window assignments.
//!
//! **Owns** `pending` (values submitted here or forwarded to us, not yet
//! assigned to a slot), `inflight` (batches drained into an open slot of the
//! window, not yet decided) and `decided_index` (the dedup index of the
//! values of the *retained* slots). **Hides** every rule about where a value
//! may sit: a value is in at most one of the three; a forward is queued
//! once; a batch is drained by count *and* bytes; whatever a slot did not
//! decide goes back to the front, in order; and which pending values a
//! non-leader forwards this period.
//!
//! # The dedup index, on demand
//!
//! Whether a value is decided in a retained slot is a question about the
//! log's decided slots (`decided.rs`), which the queue does not own and only
//! iterates; it is asked only by a forward, a requeue, and the host's own
//! dedup (`is_decided_value`). The index answering it is built from the
//! retained decisions at the first such question, kept up to date from then
//! on as slots retire, and dropped when the retained slots change under a
//! truncation or an install (index dropped, rebuilt on demand). A replica nobody asks — a follower on a stable
//! reign — never builds it, and pays nothing per decided value.
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
//!   values arrive, and the frontier advances across the window as
//!   decisions land (in any order — application still follows
//!   slot order).
//!
//! With `batch_max = 1, pipeline_depth = 1` (the defaults) the protocol is
//! exactly the one-value-per-slot, one-slot-at-a-time log. Values a leader
//! assigned to a slot that ends up deciding something else (a conflicting
//! ballot inherited another proposal) are reclaimed into the pending queue
//! and re-proposed in a later slot, so nothing submitted is silently lost.

use super::decided::Decided;
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
    /// The values decided in a *retained* slot, once somebody asked (see
    /// the module docs); `None` until then and after the retained slots
    /// change. Values below the compaction floor are forgotten with their
    /// slots; re-submissions of those are the host's session filter's
    /// problem.
    decided_index: Option<BTreeSet<V>>,
    /// Where the previous period's forward window ended, as an index into
    /// `pending` (which may have shrunk since: the window then restarts).
    forwarded: usize,
}

impl<V: LogValue> Queue<V> {
    pub(super) fn new() -> Self {
        Queue {
            pending: VecDeque::new(),
            inflight: BTreeMap::new(),
            decided_index: None,
            forwarded: 0,
        }
    }

    /// L1: a local submission joins the queue (the host dedups its own).
    pub(super) fn submit(&mut self, v: V) {
        self.pending.push_back(v);
    }

    /// L2: a forwarded submission joins the queue unless it is decided in a
    /// retained slot or queued already. Returns whether it was queued.
    pub(super) fn accept_forward(&mut self, v: &V, decided: &Decided<V>) -> bool {
        let fresh = !self.is_decided(v, decided) && !self.contains(v);
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

    /// Whether `v` is decided in a retained slot — building the index from
    /// `decided` if nobody asked since it was last dropped.
    pub(super) fn is_decided(&mut self, v: &V, decided: &Decided<V>) -> bool {
        let index = self.decided_index.get_or_insert_with(|| {
            let values = decided.values().flat_map(|b| b.iter().cloned());
            values.collect()
        });
        index.contains(v)
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

    /// L12 (the queue's half): `slot` decided `batch`, which `decided`
    /// already holds (the index, if built, learns its values here).
    /// Its values leave the queue; if we had assigned the slot something
    /// else (a conflicting ballot inherited another leader's batch), our
    /// still-undecided values go back in front to ride the next slot. Our
    /// own batch deciding requeues nothing: every value of it is decided.
    pub(super) fn retire(&mut self, slot: u64, batch: &Batch<V>, decided: &Decided<V>) {
        for v in batch.iter() {
            if let Some(index) = &mut self.decided_index {
                index.insert(v.clone());
            }
            if let Some(pos) = self.pending.iter().position(|p| p == v) {
                self.pending.remove(pos);
            }
        }
        match self.inflight.remove(&slot) {
            Some(mine) if mine != *batch => self.requeue(&mine, decided),
            _ => {}
        }
    }

    /// Puts a reclaimed assignment's still-undecided values back at the
    /// front of the queue, preserving their order. The single requeue path
    /// for every reclaim, so the dedup rules (skip values decided in a
    /// retained slot, skip values already queued) cannot drift apart.
    fn requeue(&mut self, batch: &Batch<V>, decided: &Decided<V>) {
        for v in batch.iter().rev() {
            if !self.is_decided(v, decided) && !self.pending.contains(v) {
                self.pending.push_front(v.clone());
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
    pub(super) fn reclaim_below(&mut self, upto: u64, decided: &Decided<V>) {
        let keep = self.inflight.split_off(&upto);
        for (_, batch) in std::mem::replace(&mut self.inflight, keep).iter().rev() {
            self.requeue(batch, decided);
        }
    }

    /// L23, L24 (the queue's half): the retained slots changed under a
    /// truncation or an install. The index is dropped; the next question
    /// rebuilds it from what is left of them.
    pub(super) fn drop_decided_index(&mut self) {
        self.decided_index = None;
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

    fn batch(values: &[u64]) -> Batch<Value> {
        Batch::new(values.iter().map(|&v| Value(v)).collect())
    }

    /// L12 as the log runs it: the decision lands in `decided`, then the
    /// queue retires it.
    fn decide(q: &mut Queue<Value>, d: &mut Decided<Value>, slot: u64, values: &[u64]) {
        d.insert(slot, batch(values));
        q.retire(slot, &batch(values), d);
    }

    #[test]
    fn a_forward_is_queued_once_and_never_after_its_decision() {
        let (mut q, mut d): (Queue<Value>, _) = (Queue::new(), Decided::new());
        assert!(q.accept_forward(&Value(5), &d));
        assert!(
            !q.accept_forward(&Value(5), &d),
            "a second forward is a duplicate"
        );
        assert_eq!(q.len(), 1);
        // Assigned to a slot it is still queued, as far as a forward goes.
        q.assign(0, 1);
        assert!(!q.has_unassigned() && q.contains(&Value(5)));
        assert!(!q.accept_forward(&Value(5), &d));
        decide(&mut q, &mut d, 0, &[5]);
        assert_eq!(q.len(), 0);
        assert!(q.is_decided(&Value(5), &d));
        assert!(
            !q.accept_forward(&Value(5), &d),
            "a stale forward is ignored"
        );
        // Once the slot is compacted away the value is forgotten: the
        // re-submission is the host's session filter's to catch.
        d.truncate_below(1);
        q.drop_decided_index();
        assert!(q.accept_forward(&Value(5), &d));
    }

    /// A slot that decides a *different* batch returns our assignment's
    /// still-undecided values to the front, in order; decided ones and ones
    /// queued already are not requeued.
    #[test]
    fn a_conflicting_decision_requeues_what_it_did_not_decide_in_front() {
        let (mut q, mut d) = (queue_of(1..=5), Decided::new());
        assert_eq!(q.assign(0, 2).values(), &[Value(1), Value(2)]);
        assert_eq!(q.assign(1, 2).values(), &[Value(3), Value(4)]);
        assert_eq!((q.len(), unassigned(&q)), (5, vec![5]));
        // Another leader won slot 0, and its batch happens to hold our 2.
        decide(&mut q, &mut d, 0, &[9, 2]);
        assert_eq!(unassigned(&q), vec![1, 5]);
        assert!(q.is_decided(&Value(2), &d) && !q.contains(&Value(2)));
        assert!(!q.is_assigned(0) && q.is_assigned(1));
        // The next slot opened re-proposes the reclaimed value first.
        assert_eq!(q.assign(2, 2).values(), &[Value(1), Value(5)]);
        // Our own batch deciding retires it without a requeue.
        decide(&mut q, &mut d, 1, &[3, 4]);
        assert_eq!((q.len(), q.assignment(1)), (2, None));
    }

    /// Losing leadership returns every assignment, oldest slot in front; an
    /// install returns only those below it, and skips what a retained slot
    /// decided.
    #[test]
    fn reclaims_put_assignments_back_oldest_first() {
        let (mut q, mut d) = (queue_of(1..=6), Decided::new());
        for slot in 0..3 {
            q.assign(slot, 2);
        }
        q.reclaim_below(u64::MAX, &d);
        assert_eq!(unassigned(&q), vec![1, 2, 3, 4, 5, 6]);
        for slot in 0..3 {
            q.assign(slot, 2);
        }
        d.insert(7, Batch::one(Value(3)));
        q.drop_decided_index();
        q.reclaim_below(2, &d);
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
        decide(&mut q, &mut Decided::new(), 0, &[11, 12]);
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

    /// The queue as it was with an eager dedup set: every decided value
    /// inserted as its slot retires, the set rebuilt from the retained
    /// slots at every truncation and install. The reference the on-demand
    /// index must answer exactly like.
    #[derive(Default)]
    struct Eager {
        pending: VecDeque<Value>,
        inflight: BTreeMap<u64, Batch<Value>>,
        decided: BTreeSet<Value>,
    }

    impl Eager {
        fn accept_forward(&mut self, v: Value) -> bool {
            let queued = self.pending.contains(&v)
                || self.inflight.values().any(|b| b.values().contains(&v));
            let fresh = !self.decided.contains(&v) && !queued;
            if fresh {
                self.pending.push_back(v);
            }
            fresh
        }

        fn requeue(&mut self, batch: &Batch<Value>) {
            for v in batch.iter().rev() {
                if !self.decided.contains(v) && !self.pending.contains(v) {
                    self.pending.push_front(*v);
                }
            }
        }

        fn retire(&mut self, slot: u64, batch: &Batch<Value>) {
            for v in batch.iter() {
                self.decided.insert(*v);
                if let Some(pos) = self.pending.iter().position(|p| p == v) {
                    self.pending.remove(pos);
                }
            }
            if let Some(mine) = self.inflight.remove(&slot) {
                self.requeue(&mine);
            }
        }

        fn reclaim_below(&mut self, upto: u64) {
            let keep = self.inflight.split_off(&upto);
            for (_, batch) in std::mem::replace(&mut self.inflight, keep).iter().rev() {
                self.requeue(batch);
            }
        }

        fn rebuild(&mut self, retained: &Decided<Value>) {
            self.decided = retained.values().flat_map(|b| b.iter().copied()).collect();
        }
    }

    proptest::proptest! {
        /// Driven through the same random history — submissions,
        /// assignments, own and conflicting decisions (duplicates too),
        /// forwards, lost leadership, truncations and installs — the
        /// on-demand index answers `is_decided`, `accept_forward` and every
        /// requeue exactly as the eager set did.
        #[test]
        fn the_on_demand_index_answers_as_the_eager_set_did(
            ops in proptest::collection::vec(0u64..10_000, 1..160),
        ) {
            let (mut q, mut eager) = (Queue::<Value>::new(), Eager::default());
            let (mut decisions, mut floor, mut next_slot) = (Decided::new(), 0u64, 0u64);
            for op in ops {
                let (v, arg) = (Value(op / 10 % 12), op / 120);
                match op % 10 {
                    0 | 1 => {
                        q.submit(v);
                        eager.pending.push_back(v);
                    }
                    2 if q.has_unassigned() => {
                        let batch_max = 1 + arg as usize % 3;
                        let mine = q.assign(next_slot, batch_max);
                        let len = mine.len();
                        let drained: Vec<Value> = eager.pending.drain(..len).collect();
                        proptest::prop_assert_eq!(mine.values(), drained.as_slice());
                        eager.inflight.insert(next_slot, mine);
                        next_slot += 1;
                    }
                    // A slot decides: what we assigned it, or another
                    // leader's batch; a slot decided before decides the
                    // same batch again (a duplicate `Decide`).
                    3 | 4 => {
                        let slot = floor + arg % 6;
                        let decided = match (decisions.get(slot), q.assignment(slot)) {
                            (Some(b), _) => b.clone(),
                            (None, Some(mine)) if op % 10 == 3 => mine.clone(),
                            (None, _) => Batch::new(vec![v, Value(arg % 12)]),
                        };
                        let (batch, _) = decisions.insert(slot, decided).expect("above the floor");
                        let batch = batch.clone();
                        q.retire(slot, &batch, &decisions);
                        eager.retire(slot, &batch);
                        next_slot = next_slot.max(slot + 1);
                    }
                    5 => {
                        let fresh = q.accept_forward(&v, &decisions);
                        proptest::prop_assert_eq!(fresh, eager.accept_forward(v));
                    }
                    6 => {
                        q.reclaim_below(u64::MAX, &decisions);
                        eager.reclaim_below(u64::MAX);
                    }
                    // L23, and L24 with its reclaim of the moot assignments.
                    7 | 8 => {
                        floor += arg % 4;
                        decisions.truncate_below(floor);
                        q.drop_decided_index();
                        eager.rebuild(&decisions);
                        if op % 10 == 8 {
                            q.reclaim_below(floor, &decisions);
                            eager.reclaim_below(floor);
                        }
                        next_slot = next_slot.max(floor);
                    }
                    _ => {
                        let decided = q.is_decided(&v, &decisions);
                        proptest::prop_assert_eq!(decided, eager.decided.contains(&v));
                    }
                }
                proptest::prop_assert_eq!(q.unassigned(), &eager.pending);
                proptest::prop_assert_eq!(&q.inflight, &eager.inflight);
            }
            for v in (0..12).map(Value) {
                proptest::prop_assert_eq!(q.is_decided(&v, &decisions), eager.decided.contains(&v));
            }
        }
    }
}
