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

/// Buckets in the ring: one tick each, so the ring spans a window of `RING`
/// ticks from the cursor. 1 024 ticks cover the typical message-delay
/// spread, so almost every event is filed straight into its bucket.
const RING: usize = 1 << 10;
const RING_MASK: u64 = (RING - 1) as u64;
/// Occupancy words: one bit per bucket.
const WORDS: usize = RING / 64;

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
/// heap pays `O(log len)` element moves on both ends. The queue is instead
/// one *ring* of `RING` FIFO buckets, one per tick of the window
/// `[cursor, cursor + RING)`: the bucket of tick `t` is `t mod RING`, and
/// the bucket is the timestamp, so an entry is the bare event. A push is one
/// mask and one `push_back`. A pop drains the cursor's bucket, then moves
/// the cursor to the next occupied tick through a two-level occupancy bitmap
/// (one bit per bucket, one summary bit per word) — a constant number of
/// word operations however sparse the ring is. Same-tick bursts (the
/// lockstep broadcasts of the protocols) land in one bucket in push order.
///
/// Buffers stay warm: a bucket that drains hands its buffer to a LIFO spare
/// pool, and an empty bucket takes the most recently released one on its
/// first push, so the few dozen buckets in use at a time share a few dozen
/// buffers that stay in cache instead of each bucket keeping its own. The
/// pool never holds more buffers than the most buckets ever occupied at once.
///
/// Events at or past the window wait in an ordered side table by tick. When
/// the cursor's move brings their tick into the window they are copied into
/// their (then empty) bucket, before any later push can reach it, so they
/// keep their place ahead of the events pushed after them.
///
/// Events pushed strictly before the latest popped timestamp (the engine never
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
    /// Base of the ring's window: a lower bound on every timestamp in the
    /// ring and the far table; only ever moves forward. Equal to the
    /// timestamp of the most recent ring pop.
    cursor: u64,
    /// `buckets[t & RING_MASK]` holds the events at tick `t`, for every `t`
    /// in the window. An empty bucket owns no buffer.
    buckets: Box<[VecDeque<Event<M>>; RING]>,
    /// One bit per non-empty bucket.
    occupied: [u64; WORDS],
    /// One bit per non-zero word of `occupied`.
    summary: u64,
    /// Empty buffers released by drained buckets, most recent last.
    spare: Vec<VecDeque<Event<M>>>,
    /// Events at or past the window's end (`t ≥ cursor + RING`), by tick.
    far: BTreeMap<u64, VecDeque<Event<M>>>,
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
            buckets: Box::new(std::array::from_fn(|_| VecDeque::new())),
            occupied: [0; WORDS],
            summary: 0,
            spare: Vec::new(),
            far: BTreeMap::new(),
            overdue: BTreeMap::new(),
            len: 0,
        }
    }

    /// Schedules `event` at time `at`.
    #[inline]
    pub fn push(&mut self, at: Time, event: Event<M>) {
        self.len += 1;
        let t = at.ticks();
        if t < self.cursor {
            self.overdue.entry(at).or_default().push_back(event);
        } else if t - self.cursor < RING as u64 {
            let i = (t & RING_MASK) as usize;
            if self.buckets[i].is_empty() {
                self.fill(i);
            }
            self.buckets[i].push_back(event);
        } else {
            self.far.entry(t).or_default().push_back(event);
        }
    }

    /// Marks the empty bucket `i` occupied and lends it the warmest spare
    /// buffer, if any.
    #[inline]
    fn fill(&mut self, i: usize) {
        if let Some(buffer) = self.spare.pop() {
            self.buckets[i] = buffer;
        }
        self.occupied[i / 64] |= 1 << (i % 64);
        self.summary |= 1 << (i / 64);
    }

    /// Unmarks the drained bucket `i` and returns its buffer to the pool.
    #[inline]
    fn release(&mut self, i: usize) {
        self.spare.push(std::mem::take(&mut self.buckets[i]));
        self.occupied[i / 64] &= !(1 << (i % 64));
        if self.occupied[i / 64] == 0 {
            self.summary &= !(1 << (i / 64));
        }
    }

    /// The first occupied bucket at or after `from` in ring order (wrapping
    /// past the end), if any.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let word = from / 64;
        let bits = self.occupied[word] & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(word * 64 + bits.trailing_zeros() as usize);
        }
        // A later word, else the wrap: the lowest occupied word, which may be
        // `word` itself with only buckets before `from` set.
        let later = self.summary & (!0u64 << (word + 1));
        let word = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
        (word < WORDS).then(|| word * 64 + self.occupied[word].trailing_zeros() as usize)
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, Event<M>)> {
        // Overdue events are strictly earlier than everything in the ring
        // (the emptiness check keeps the common path free of map traversal).
        if !self.overdue.is_empty() {
            return self.pop_overdue();
        }
        self.pop_ring()
    }

    #[cold]
    fn pop_overdue(&mut self) -> Option<(Time, Event<M>)> {
        let mut entry = self.overdue.first_entry()?;
        let at = *entry.key();
        let event = entry
            .get_mut()
            .pop_front()
            .expect("overdue bucket never left empty");
        if entry.get().is_empty() {
            entry.remove();
        }
        self.len -= 1;
        Some((at, event))
    }

    #[inline]
    fn pop_ring(&mut self) -> Option<(Time, Event<M>)> {
        let mut i = (self.cursor & RING_MASK) as usize;
        if self.buckets[i].is_empty() {
            let next = self.first_tick()?;
            self.advance(next);
            i = (next & RING_MASK) as usize;
        }
        let event = self.buckets[i]
            .pop_front()
            .expect("the cursor's bucket is occupied");
        if self.buckets[i].is_empty() {
            self.release(i);
        }
        self.len -= 1;
        Some((Time::from_ticks(self.cursor), event))
    }

    /// The earliest tick in the ring or, when the ring is empty, in the far
    /// table.
    #[inline]
    fn first_tick(&self) -> Option<u64> {
        let i = (self.cursor & RING_MASK) as usize;
        match self.next_occupied(i) {
            Some(j) => Some(self.cursor + (j.wrapping_sub(i) as u64 & RING_MASK)),
            None => self.far.keys().next().copied(),
        }
    }

    /// Moves the cursor forward to `to` and brings every far event the new
    /// window covers into its bucket. Those buckets are empty: every tick
    /// before `to` has drained, and no push reached a tick at or past the
    /// old window's end. A far deque is copied into a pooled buffer rather
    /// than adopted, so the pool stays bounded by the peak occupancy.
    fn advance(&mut self, to: u64) {
        self.cursor = to;
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() - to >= RING as u64 {
                break;
            }
            let (t, events) = entry.remove_entry();
            let i = (t & RING_MASK) as usize;
            self.fill(i);
            self.buckets[i].extend(events);
        }
    }

    /// Returns the time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some((&at, _)) = self.overdue.first_key_value() {
            return Some(at);
        }
        self.first_tick().map(Time::from_ticks)
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

    /// Reference model: a binary heap over `(time, insertion sequence)`.
    /// The queue must be observationally identical under any push/pop
    /// interleaving, including insertion-order ties at equal times.
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

        /// Spreads the small drawn time over several scales so the
        /// interleavings exercise the ring, the far table and its migration
        /// (bit ≥ 60 ticks included), while keeping same-time ties frequent
        /// within each scale.
        const SCALES: [u64; 5] = [1, 1_000, 1_000_000, 1_000_000_000_000, 1 << 60];
        /// Offsets from the cursor at the ring window's edge: the last tick
        /// of the window, the first tick past it, and the one after.
        const EDGES: [u64; 3] = [RING as u64 - 1, RING as u64, RING as u64 + 1];

        proptest! {
            /// Interleaving: each op is either a push (time drawn from a
            /// deliberately small domain so ties are frequent, then scaled,
            /// or at the window's edge from the cursor) or a pop.
            #[test]
            fn prop_matches_binary_heap_model(
                ops in proptest::collection::vec((0u8..4, 0u64..16, 0u32..8), 1..400),
            ) {
                let mut queue: EventQueue<u8> = EventQueue::new();
                let mut model = HeapModel::default();
                let mut id = 0u32;
                // The queue's cursor: the latest time popped so far.
                let mut cursor = 0u64;
                for (op, small, scale) in ops {
                    let at = match SCALES.get(scale as usize) {
                        Some(&unit) => small * unit,
                        None => cursor + EDGES[scale as usize - SCALES.len()],
                    };
                    if op == 0 {
                        // 1-in-4 ops is a pop.
                        let got = queue.pop();
                        let want = model.pop();
                        prop_assert_eq!(got.as_ref().map(|(t, _)| t.ticks()), want.map(|(t, _)| t));
                        prop_assert_eq!(got.map(|(_, e)| id_of(e)), want.map(|(_, i)| i));
                        cursor = cursor.max(want.map_or(0, |(t, _)| t));
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

    fn pop_all(q: &mut EventQueue<u8>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Crash { pid } => (t.ticks(), pid.as_u32()),
                _ => unreachable!(),
            })
            .collect()
    }

    /// Timestamps up to `u64::MAX` round-trip through the far table and the
    /// ring, where the window's end lies past the largest tick.
    #[test]
    fn ticks_up_to_u64_max_round_trip() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let times = [1u64 << 60, (1 << 60) + 5, 3, u64::MAX, 1 << 62, u64::MAX];
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ticks(t), crash(i as u32));
        }
        assert_eq!(
            pop_all(&mut q),
            [
                (3, 2),
                (1 << 60, 0),
                ((1 << 60) + 5, 1),
                (1 << 62, 4),
                (u64::MAX, 3),
                (u64::MAX, 5)
            ]
        );
        // With the cursor near the top, pushes fall in the ring up to the
        // last tick and stay FIFO there.
        q.push(Time::from_ticks(u64::MAX - 2), crash(6));
        assert_eq!(q.pop().map(|(t, _)| t.ticks()), Some(u64::MAX - 2));
        for (i, t) in [u64::MAX, u64::MAX - 1, u64::MAX].into_iter().enumerate() {
            q.push(Time::from_ticks(t), crash(7 + i as u32));
        }
        assert_eq!(q.peek_time(), Some(Time::from_ticks(u64::MAX - 1)));
        assert_eq!(
            pop_all(&mut q),
            [(u64::MAX - 1, 8), (u64::MAX, 7), (u64::MAX, 9)]
        );
        assert!(q.is_empty());
    }

    /// An event pushed past the window waits in the far table; when the
    /// cursor's move brings its tick into the window it pops ahead of an
    /// event pushed to the same tick afterwards.
    #[test]
    fn a_far_event_joins_its_bucket_ahead_of_a_later_push() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let far = RING as u64 + 5;
        q.push(Time::from_ticks(far), crash(0));
        q.push(Time::from_ticks(10), crash(1));
        assert_eq!(q.far.len(), 1);
        assert_eq!(q.pop().map(|(t, _)| t.ticks()), Some(10));
        assert!(q.far.is_empty(), "the window [10, 10 + RING) covers it");
        q.push(Time::from_ticks(far), crash(2));
        q.push(Time::from_ticks(far - 1), crash(3));
        assert_eq!(pop_all(&mut q), [(far - 1, 3), (far, 0), (far, 2)]);
    }

    /// A push at the cursor's own tick while that tick drains lands behind
    /// the events still there, and re-occupies the tick once it has
    /// drained.
    #[test]
    fn a_push_at_the_draining_tick_pops_after_the_events_already_there() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(Time::from_ticks(5), crash(0));
        q.push(Time::from_ticks(5), crash(1));
        q.push(Time::from_ticks(6), crash(2));
        assert_eq!(q.pop().map(|(t, _)| t.ticks()), Some(5));
        q.push(Time::from_ticks(5), crash(3));
        assert_eq!(pop_all(&mut q)[..2], [(5, 1), (5, 3)]);
        // Tick 6 drained too; pushes at 6 (the cursor) start it afresh.
        q.push(Time::from_ticks(6), crash(4));
        q.push(Time::from_ticks(6), crash(5));
        assert_eq!(q.peek_time(), Some(Time::from_ticks(6)));
        assert_eq!(pop_all(&mut q), [(6, 4), (6, 5)]);
    }

    /// Pushes before the latest pop go to the overdue table, pop first in
    /// `(time, insertion)` order, and leave the cursor where it was.
    #[test]
    fn overdue_pushes_after_pops_pop_first() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(Time::from_ticks(10), crash(0));
        q.push(Time::from_ticks(20), crash(1));
        assert_eq!(q.pop().map(|(t, _)| t.ticks()), Some(10));
        q.push(Time::from_ticks(7), crash(2));
        q.push(Time::from_ticks(3), crash(3));
        q.push(Time::from_ticks(7), crash(4));
        q.push(Time::from_ticks(12), crash(5));
        assert_eq!(q.peek_time(), Some(Time::from_ticks(3)));
        assert_eq!(pop_all(&mut q), [(3, 3), (7, 2), (7, 4), (12, 5), (20, 1)]);
    }

    /// The occupancy search wraps: with the cursor in the middle of a word
    /// and only buckets earlier in that same word occupied (ticks one lap
    /// ahead), the next event is found there.
    #[test]
    fn the_occupancy_search_wraps_into_the_cursors_own_word() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(Time::from_ticks(40), crash(0));
        assert_eq!(q.pop().map(|(t, _)| t.ticks()), Some(40));
        let lap = RING as u64;
        q.push(Time::from_ticks(lap + 30), crash(1));
        q.push(Time::from_ticks(lap + 10), crash(2));
        assert_eq!(q.summary, 1, "only the cursor's word is occupied");
        assert_eq!(q.peek_time(), Some(Time::from_ticks(lap + 10)));
        assert_eq!(pop_all(&mut q), [(lap + 10, 2), (lap + 30, 1)]);
        assert_eq!((q.summary, q.occupied), (0, [0; WORDS]));
    }

    /// A far deque is copied into a pooled buffer, never adopted: after
    /// 10 000 far pushes at distinct ticks the pool holds no more buffers
    /// than the most buckets ever occupied at once.
    #[test]
    fn the_spare_pool_stays_bounded_under_far_pushes() {
        for spacing in [RING as u64 + 7, 3] {
            let mut q: EventQueue<u8> = EventQueue::new();
            let ticks: Vec<u64> = (1..=10_000u64).map(|k| k * spacing).collect();
            for (i, &t) in ticks.iter().enumerate().rev() {
                q.push(Time::from_ticks(t), crash(i as u32));
            }
            let mut peak = 0;
            let mut popped = Vec::new();
            while let Some((t, _)) = q.pop() {
                popped.push(t.ticks());
                let occupied: u32 = q.occupied.iter().map(|w| w.count_ones()).sum();
                peak = peak.max(occupied as usize + 1);
            }
            assert_eq!(popped, ticks);
            assert!(
                q.spare.len() <= peak,
                "spacing {spacing}: {} spare buffers, peak occupancy {peak}",
                q.spare.len()
            );
        }
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
