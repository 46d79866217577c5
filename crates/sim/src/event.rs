//! The discrete-event queue.

use irs_types::{ProcessId, RoundNum, Time, TimerId};
use std::collections::{BTreeMap, VecDeque};

/// Something that will happen at a point of simulated time.
///
/// Generic over the *payload handle* `H`: the deterministic engine
/// instantiates it with `Rc<Msg>` (single-threaded, so the broadcast
/// fan-out's reference counting needs no atomics), while the real-time
/// runtime uses `Arc<Msg>` for its cross-shard deliveries.
#[derive(Clone, Debug)]
pub enum Event<H> {
    /// A message reaches its destination process.
    ///
    /// The payload handle is reference-counted: a broadcast to `n − 1`
    /// receivers schedules `n − 1` `Deliver` events sharing one allocation,
    /// so the fan-out clones a pointer, not the message.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Shared payload handle.
        msg: H,
    },
    /// A timer armed by a protocol instance fires.
    TimerFire {
        /// Owner of the timer.
        pid: ProcessId,
        /// Which timer.
        timer: TimerId,
        /// Generation at arming time; stale generations are ignored, which
        /// implements the "re-arming replaces the pending timer" semantics.
        generation: u64,
    },
    /// A process crashes (stops taking steps forever).
    Crash {
        /// The crashing process.
        pid: ProcessId,
    },
    /// Fallback release of a single message held by the winning-message gate
    /// (used for messages displaced from a recycled gate slot).
    ReleaseHeld {
        /// Index of the held message in the engine's hold buffer.
        slot: u32,
        /// Token stamped when the message was held; a mismatch means the slot
        /// was already released (by its gate opening) and reused.
        token: u64,
    },
    /// Fallback deadline sweep of one winning-message gate slot: releases
    /// every message still held on `(to, rn)` whose deadline has passed, and
    /// re-arms itself for the earliest remaining deadline. One sweep event
    /// per `(receiver, round)` replaces one [`Event::ReleaseHeld`] per held
    /// message — at large `n` a single round can hold thousands of messages,
    /// and in the overwhelmingly common case (the star-centre message opens
    /// the gate in the same instant) every one of those deadline events
    /// would pop as a stale no-op.
    ReleaseGate {
        /// The receiver whose gate ring is swept.
        to: ProcessId,
        /// The round whose gate slot armed the sweep.
        rn: RoundNum,
    },
}

/// One process's timer generations, densely indexed by the raw [`TimerId`]
/// (grown on demand; protocols use a handful of small ids). Arming bumps
/// the generation stamped on the new [`Event::TimerFire`], cancelling only
/// bumps, and a fire whose generation is not [`TimerGens::current`] is
/// stale — "re-arming replaces the pending timer" without deleting from the
/// queue.
#[derive(Clone, Debug, Default)]
pub struct TimerGens(Vec<u64>);

impl TimerGens {
    /// Supersedes every pending instance of `id`; returns the generation
    /// for a new one.
    #[inline]
    pub fn bump(&mut self, id: TimerId) -> u64 {
        let i = id.raw() as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += 1;
        self.0[i]
    }

    /// The live generation of `id` (zero if it was never armed).
    #[inline]
    pub fn current(&self, id: TimerId) -> u64 {
        self.0.get(id.raw() as usize).copied().unwrap_or(0)
    }
}

/// Slots per wheel level (one 10-bit digit of the tick value per level).
/// 1024-tick level-0 windows cover the typical message-delay spread, so most
/// events are filed exactly once.
const SLOT_BITS: u32 = 10;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Seven levels of 1024 slots cover the full `u64` tick range (7 × 10 bits
/// plus the sign-free top bits that no simulation horizon reaches).
const LEVELS: usize = 7;

/// One wheel level: `SLOTS` FIFO deques plus an occupancy bitmap so the
/// next occupied slot is found with a handful of word operations.
#[derive(Debug)]
struct WheelLevel<M> {
    slots: Vec<VecDeque<(u64, Event<M>)>>,
    occupied: [u64; SLOTS / 64],
}

impl<M> WheelLevel<M> {
    fn new() -> Self {
        WheelLevel {
            slots: (0..SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; SLOTS / 64],
        }
    }

    fn mark(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    fn unmark(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }

    /// The first occupied slot with index ≥ `from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= SLOTS / 64 {
                return None;
            }
            bits = self.occupied[word];
        }
    }
}

/// A time-ordered queue of [`Event`]s.
///
/// Events that share a timestamp are popped in insertion order
/// (deterministic FIFO), exactly the `(time, sequence)` order a binary heap
/// with an insertion counter would produce — the property test in this module
/// checks the two against each other.
///
/// # Representation
///
/// The engine pushes and pops one event per simulated step, and a binary
/// heap pays `O(log len)` element moves on both ends. The queue is instead a
/// classic *hierarchical timing wheel*: `LEVELS` levels of `SLOTS` FIFO
/// slots, one `SLOT_BITS`-bit digit of the tick value per level. A push
/// indexes the level of the highest digit in which the timestamp differs
/// from the current cursor — O(1), no element moves. A pop drains the
/// level-0 slot of the earliest occupied tick; when a level-0 window is
/// exhausted, the next occupied coarse slot is promoted one level down,
/// which re-bins each event once per level at most. Same-tick bursts (the
/// lockstep broadcasts of the protocols) land in one slot and keep their
/// FIFO order through every promotion.
///
/// Events pushed at or before an already-popped timestamp (the engine never
/// does this, but the API allows it) go to a small ordered side table that is
/// always drained first.
///
/// # Example
///
/// ```
/// use irs_sim::{Event, EventQueue};
/// use irs_types::{ProcessId, Time};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.push(Time::from_ticks(20), Event::Crash { pid: ProcessId::new(0) });
/// q.push(Time::from_ticks(10), Event::Crash { pid: ProcessId::new(1) });
/// let (t, _) = q.pop().unwrap();
/// assert_eq!(t, Time::from_ticks(10));
/// ```
#[derive(Debug)]
pub struct EventQueue<M> {
    /// Lower bound on every timestamp stored in the wheel; only ever moves
    /// forward. Equal to the timestamp of the most recent wheel pop.
    cursor: u64,
    levels: Vec<WheelLevel<M>>,
    /// Events pushed strictly before `cursor`: globally earliest, popped
    /// first, ordered by `(time, insertion)`.
    overdue: BTreeMap<Time, VecDeque<Event<M>>>,
    len: usize,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            cursor: 0,
            levels: (0..LEVELS).map(|_| WheelLevel::new()).collect(),
            overdue: BTreeMap::new(),
            len: 0,
        }
    }

    /// The wheel level an event at tick `at ≥ cursor` belongs to: the level
    /// of the highest `SLOT_BITS`-bit digit in which `at` differs from the
    /// cursor.
    fn level_of(&self, at: u64) -> usize {
        let diff = at ^ self.cursor;
        if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros() as usize) / SLOT_BITS as usize
        }
    }

    fn wheel_insert(&mut self, at: u64, event: Event<M>) {
        let level = self.level_of(at);
        let slot = ((at >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.levels[level].slots[slot].push_back((at, event));
        self.levels[level].mark(slot);
    }

    /// Schedules `event` at time `at`.
    pub fn push(&mut self, at: Time, event: Event<M>) {
        self.len += 1;
        let t = at.ticks();
        if t < self.cursor {
            self.overdue.entry(at).or_default().push_back(event);
        } else {
            self.wheel_insert(t, event);
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, Event<M>)> {
        // Overdue events are strictly earlier than everything in the wheel
        // (the emptiness check keeps the common path free of map traversal).
        if !self.overdue.is_empty() {
            return self.pop_overdue();
        }
        self.pop_wheel()
    }

    #[cold]
    fn pop_overdue(&mut self) -> Option<(Time, Event<M>)> {
        if let Some(mut entry) = self.overdue.first_entry() {
            let at = *entry.key();
            let event = entry
                .get_mut()
                .pop_front()
                .expect("overdue bucket never left empty");
            if entry.get().is_empty() {
                entry.remove();
            }
            self.len -= 1;
            return Some((at, event));
        }
        self.pop_wheel()
    }

    fn pop_wheel(&mut self) -> Option<(Time, Event<M>)> {
        loop {
            // Fast path: the earliest occupied level-0 slot of the current
            // `SLOTS`-tick window holds the next event.
            let from = (self.cursor & SLOT_MASK) as usize;
            if let Some(slot) = self.levels[0].next_occupied(from) {
                let deque = &mut self.levels[0].slots[slot];
                let (t, event) = deque.pop_front().expect("occupied slot is non-empty");
                if deque.is_empty() {
                    self.levels[0].unmark(slot);
                }
                self.cursor = t;
                self.len -= 1;
                return Some((Time::from_ticks(t), event));
            }
            // The window is exhausted: promote the next occupied coarse slot.
            let mut promoted = false;
            for level in 1..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let from = ((self.cursor >> shift) & SLOT_MASK) as usize + 1;
                if from >= SLOTS {
                    continue; // this level's window is exhausted too
                }
                let Some(slot) = self.levels[level].next_occupied(from) else {
                    continue;
                };
                // Advance the cursor to the base of the promoted window; every
                // remaining event is at or after it. The top level's digit
                // reaches past bit 63, so the mask of the bits above it is
                // computed with a checked shift (empty mask at the top).
                let high_mask = (!0u64).checked_shl(shift + SLOT_BITS).unwrap_or(0);
                self.cursor = (self.cursor & high_mask) | ((slot as u64) << shift);
                let mut drained = std::mem::take(&mut self.levels[level].slots[slot]);
                self.levels[level].unmark(slot);
                for (t, event) in drained.drain(..) {
                    self.wheel_insert(t, event);
                }
                // Re-binning targets strictly lower levels, so the slot is
                // still empty: hand its buffer back to avoid reallocating.
                self.levels[level].slots[slot] = drained;
                promoted = true;
                break;
            }
            if !promoted {
                debug_assert_eq!(self.len, 0, "events lost by the wheel");
                return None;
            }
        }
    }

    /// Returns the time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some((&at, _)) = self.overdue.first_key_value() {
            return Some(at);
        }
        // Scan outward from the cursor; the first occupied slot of the
        // finest occupied level bounds the answer, but coarse slots are not
        // time-ordered internally, so take the minimum over their contents.
        let from = (self.cursor & SLOT_MASK) as usize;
        if let Some(slot) = self.levels[0].next_occupied(from) {
            return self.levels[0].slots[slot]
                .front()
                .map(|&(t, _)| Time::from_ticks(t));
        }
        for level in 1..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let from = ((self.cursor >> shift) & SLOT_MASK) as usize + 1;
            if from >= SLOTS {
                continue;
            }
            let Some(slot) = self.levels[level].next_occupied(from) else {
                continue;
            };
            return self.levels[level].slots[slot]
                .iter()
                .map(|&(t, _)| t)
                .min()
                .map(Time::from_ticks);
        }
        None
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(pid: u32) -> Event<u8> {
        Event::Crash {
            pid: ProcessId::new(pid),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(Time::from_ticks(30), crash(3));
        q.push(Time::from_ticks(10), crash(1));
        q.push(Time::from_ticks(20), crash(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.ticks())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(Time::from_ticks(5), crash(0));
        q.push(Time::from_ticks(5), crash(1));
        q.push(Time::from_ticks(5), crash(2));
        let pids: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Crash { pid } => pid.as_u32(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pids, vec![0, 1, 2]);
    }

    #[test]
    fn peek_len_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ticks(7), crash(0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(Time::from_ticks(7)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    /// Reference model: a binary heap over `(time, insertion sequence)` —
    /// the representation the queue replaced. The calendar queue must be
    /// observationally identical under any push/pop interleaving, including
    /// insertion-order ties at equal times.
    mod model_equivalence {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        #[derive(Default)]
        struct HeapModel {
            heap: BinaryHeap<Reverse<(u64, u64)>>,
            payloads: std::collections::HashMap<(u64, u64), u32>,
            next_seq: u64,
        }

        impl HeapModel {
            fn push(&mut self, at: u64, id: u32) {
                let key = (at, self.next_seq);
                self.next_seq += 1;
                self.heap.push(Reverse(key));
                self.payloads.insert(key, id);
            }

            fn pop(&mut self) -> Option<(u64, u32)> {
                let Reverse(key) = self.heap.pop()?;
                Some((key.0, self.payloads.remove(&key).expect("payload")))
            }
        }

        fn id_of(event: Event<u8>) -> u32 {
            match event {
                Event::Crash { pid } => pid.as_u32(),
                _ => unreachable!("model only schedules crashes"),
            }
        }

        /// Spreads the small drawn time over the wheel's levels so the
        /// interleavings exercise promotion, multi-level peeks, and the
        /// top-level (bit ≥ 60) digit, while keeping same-time ties frequent
        /// within each scale.
        const SCALES: [u64; 5] = [1, 1_000, 1_000_000, 1_000_000_000_000, 1 << 60];

        proptest! {
            /// Interleaving: each op is either a push (time drawn from a
            /// deliberately small domain so ties are frequent, then scaled
            /// across wheel levels) or a pop.
            #[test]
            fn prop_matches_binary_heap_model(
                ops in proptest::collection::vec((0u8..4, 0u64..16, 0u32..5), 1..400),
            ) {
                let mut queue: EventQueue<u8> = EventQueue::new();
                let mut model = HeapModel::default();
                let mut id = 0u32;
                for (op, small, scale) in ops {
                    let at = small * SCALES[scale as usize];
                    if op == 0 {
                        // 1-in-4 ops is a pop.
                        let got = queue.pop();
                        let want = model.pop();
                        prop_assert_eq!(got.as_ref().map(|(t, _)| t.ticks()), want.map(|(t, _)| t));
                        prop_assert_eq!(got.map(|(_, e)| id_of(e)), want.map(|(_, i)| i));
                    } else {
                        queue.push(Time::from_ticks(at), crash(id));
                        model.push(at, id);
                        id += 1;
                    }
                    prop_assert_eq!(queue.len(), model.heap.len());
                    prop_assert_eq!(queue.peek_time().map(|t| t.ticks()), model.heap.peek().map(|Reverse((t, _))| *t));
                }
                // Drain both completely: the full pop sequence must match,
                // including FIFO order among equal times.
                loop {
                    let got = queue.pop();
                    let want = model.pop();
                    prop_assert_eq!(got.as_ref().map(|(t, _)| t.ticks()), want.map(|(t, _)| t));
                    prop_assert_eq!(got.map(|(_, e)| id_of(e)), want.map(|(_, i)| i));
                    if want.is_none() {
                        break;
                    }
                }
            }
        }
    }

    /// The top wheel level's digit reaches past bit 63; promotion there must
    /// not overflow the high-bits mask computation.
    #[test]
    fn top_level_ticks_round_trip() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let times = [1u64 << 60, (1 << 60) + 5, 3, 1 << 62, u64::MAX];
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ticks(t), crash(i as u32));
        }
        let mut sorted = times;
        sorted.sort();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.ticks())
            .collect();
        assert_eq!(popped, sorted.to_vec());
        assert!(q.is_empty());
    }

    #[test]
    fn large_volume_stays_sorted() {
        let mut q: EventQueue<u8> = EventQueue::new();
        // Insert pseudo-random times and confirm the pop order is sorted.
        let mut t = 12345u64;
        for _ in 0..5000 {
            t = t.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.push(Time::from_ticks(t % 100_000), crash(0));
        }
        let mut last = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at.ticks() >= last);
            last = at.ticks();
        }
    }
}
