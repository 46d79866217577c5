//! The decided slots: a dense prefix from the compaction floor, and the few
//! decisions that arrived ahead of a gap.
//!
//! **Owns** the compaction floor, `prefix` (the decided batches of every
//! slot in `[floor, frontier)`) and `ahead` (decisions above the frontier).
//! **Hides** where a decision is kept and how the frontier follows from
//! that.
//!
//! Every slot from the floor up to the frontier is decided by definition,
//! so that run is a `VecDeque` and finding a slot in it is an index:
//! `prefix[slot − floor]`. The frontier is `floor + prefix.len()`; nothing
//! caches it. A decision above the frontier — out of order in a deep
//! window, a catch-up answer that arrives out of order, a far or hostile
//! slot — waits in a small ordered map and costs one entry, whatever its
//! distance: memory grows with the decisions held, not with slot numbers.
//! When the frontier slot decides, the run that now follows it moves from
//! the map into the prefix.
//!
//! Truncation (L23) drains the front of the prefix. An install (L24) that
//! jumps past the frontier empties the prefix, drops what the map holds
//! below the new floor and promotes the run that starts there.

use crate::Batch;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

#[derive(Debug)]
pub(super) struct Decided<V> {
    /// Lowest retained slot; everything below was truncated away behind a
    /// snapshot. 0 until the first truncation or install.
    floor: u64,
    /// The decided batch of every slot in `[floor, frontier)`.
    prefix: VecDeque<Batch<V>>,
    /// Decisions above the frontier, by slot. Never holds the frontier slot
    /// itself, a decision there joins the prefix; except `u64::MAX`, which
    /// never does, so the frontier stops there instead of overflowing.
    ahead: BTreeMap<u64, Batch<V>>,
}

impl<V> Decided<V> {
    pub(super) fn new() -> Self {
        Decided {
            floor: 0,
            prefix: VecDeque::new(),
            ahead: BTreeMap::new(),
        }
    }

    pub(super) fn floor(&self) -> u64 {
        self.floor
    }

    /// The lowest slot without a known decision.
    #[inline]
    pub(super) fn frontier(&self) -> u64 {
        self.floor + self.prefix.len() as u64
    }

    /// Decisions held: the prefix and those ahead of it.
    pub(super) fn len(&self) -> usize {
        self.prefix.len() + self.ahead.len()
    }

    /// Decisions held above the first gap.
    pub(super) fn ahead(&self) -> usize {
        self.ahead.len()
    }

    #[inline]
    pub(super) fn get(&self, slot: u64) -> Option<&Batch<V>> {
        let index = slot.checked_sub(self.floor)?;
        if index < self.prefix.len() as u64 {
            return Some(&self.prefix[index as usize]);
        }
        self.ahead.get(&slot)
    }

    #[inline]
    pub(super) fn contains(&self, slot: u64) -> bool {
        self.get(slot).is_some()
    }

    /// Records `batch` as `slot`'s decision unless the slot has one already.
    /// Returns the decision held for the slot and whether it is new; `None`
    /// for a slot below the floor (the snapshot covers it).
    pub(super) fn insert(&mut self, slot: u64, batch: Batch<V>) -> Option<(&Batch<V>, bool)> {
        let index = slot.checked_sub(self.floor)?;
        let len = self.prefix.len() as u64;
        if index < len {
            return Some((&self.prefix[index as usize], false));
        }
        if index > len || slot == u64::MAX {
            return Some(match self.ahead.entry(slot) {
                Entry::Occupied(held) => (held.into_mut(), false),
                Entry::Vacant(free) => (free.insert(batch), true),
            });
        }
        self.prefix.push_back(batch);
        self.promote();
        Some((&self.prefix[index as usize], true))
    }

    /// Moves the run of decisions that starts at the frontier from `ahead`
    /// into the prefix.
    fn promote(&mut self) {
        while let Some(next) = self.ahead.first_entry() {
            let slot = *next.key();
            if slot != self.floor + self.prefix.len() as u64 || slot == u64::MAX {
                break;
            }
            self.prefix.push_back(next.remove());
        }
    }

    /// L23, L24: forgets every decision below `upto` and makes it the floor.
    /// Below the frontier this drains the front of the prefix; past it (an
    /// install) the prefix empties and the run at `upto` is promoted.
    pub(super) fn truncate_below(&mut self, upto: u64) {
        if upto <= self.floor {
            return;
        }
        if upto <= self.frontier() {
            self.prefix.drain(..(upto - self.floor) as usize);
            self.floor = upto;
            return;
        }
        self.prefix.clear();
        self.floor = upto;
        self.ahead = self.ahead.split_off(&upto);
        self.promote();
    }

    /// The decisions held at or above `first`, in slot order.
    pub(super) fn range_from(
        &self,
        first: u64,
    ) -> impl Iterator<Item = (u64, &Batch<V>)> + Clone + '_ {
        let start = first.max(self.floor);
        let skip = (start - self.floor).min(self.prefix.len() as u64);
        let slot = move |(i, batch)| (start + i as u64, batch);
        let dense = self.prefix.range(skip as usize..).enumerate().map(slot);
        dense.chain(self.ahead.range(start..).map(|(s, b)| (*s, b)))
    }

    /// Every decision held, in slot order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, &Batch<V>)> + '_ {
        self.range_from(self.floor)
    }

    /// Every decided batch held, in slot order.
    pub(super) fn values(&self) -> impl Iterator<Item = &Batch<V>> + '_ {
        self.prefix.iter().chain(self.ahead.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn one(v: u64) -> Batch<Value> {
        Batch::one(Value(v))
    }

    fn slots(d: &Decided<Value>) -> Vec<u64> {
        d.iter().map(|(s, _)| s).collect()
    }

    /// Out-of-order decisions wait ahead of the gap; the one that fills it
    /// carries the whole run into the prefix.
    #[test]
    fn the_slot_that_fills_the_gap_promotes_the_run_behind_it() {
        let mut d = Decided::new();
        for slot in [2, 3, 5] {
            assert_eq!(
                d.insert(slot, one(slot)).map(|(_, fresh)| fresh),
                Some(true)
            );
        }
        assert_eq!((d.frontier(), d.ahead(), d.len()), (0, 3, 3));
        assert_eq!(d.insert(3, one(99)), Some((&one(3), false)), "first wins");
        d.insert(0, one(0));
        assert_eq!((d.frontier(), d.ahead()), (1, 3));
        d.insert(1, one(1));
        assert_eq!((d.frontier(), d.ahead()), (4, 1), "2 and 3 joined");
        assert_eq!(slots(&d), vec![0, 1, 2, 3, 5]);
        assert_eq!(d.get(4), None);
        assert_eq!(d.get(5), Some(&one(5)));
    }

    /// Truncation drains the front; an install past the frontier drops
    /// what lies below it and promotes the run that starts there.
    #[test]
    fn truncation_drains_the_front_and_an_install_jumps_the_gap() {
        let mut d = Decided::new();
        for slot in [0, 1, 2, 6, 7, 9] {
            d.insert(slot, one(slot));
        }
        d.truncate_below(2);
        assert_eq!(
            (d.floor(), d.frontier(), slots(&d)),
            (2, 3, vec![2, 6, 7, 9])
        );
        assert_eq!(d.insert(1, one(1)), None, "below the floor");
        d.truncate_below(1);
        assert_eq!(d.floor(), 2, "the floor never moves down");
        d.truncate_below(6);
        assert_eq!((d.floor(), d.frontier(), slots(&d)), (6, 8, vec![6, 7, 9]));
        assert_eq!(d.ahead(), 1);
        d.truncate_below(10);
        assert_eq!((d.floor(), d.frontier(), d.len()), (10, 10, 0));
    }

    /// The far end of the slot space: a decision there is one entry, and
    /// the frontier stops at `u64::MAX` instead of overflowing.
    #[test]
    fn a_far_slot_is_one_entry() {
        let mut d = Decided::new();
        d.insert(0, one(0));
        for slot in [u64::MAX - 1, u64::MAX, 1 << 40] {
            d.insert(slot, one(slot));
        }
        assert_eq!((d.frontier(), d.ahead(), d.len()), (1, 3, 4));
        assert_eq!(d.get(u64::MAX), Some(&one(u64::MAX)));
        assert_eq!(d.range_from(u64::MAX).count(), 1);
        d.truncate_below(u64::MAX - 1);
        assert_eq!(
            (d.frontier(), slots(&d)),
            (u64::MAX, vec![u64::MAX - 1, u64::MAX])
        );
    }

    /// The retained decisions as they were kept before: one ordered map
    /// from the floor up, the frontier its first gap at or above the floor.
    #[derive(Default)]
    struct Model {
        floor: u64,
        map: BTreeMap<u64, Batch<Value>>,
    }

    impl Model {
        fn frontier(&self) -> u64 {
            (self.floor..u64::MAX)
                .find(|s| !self.map.contains_key(s))
                .unwrap_or(u64::MAX)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Driven through random decisions in any order (duplicates, far
        /// slots up to `u64::MAX − 1`), truncations and install jumps, the
        /// prefix-and-map answers every question as one ordered map did.
        #[test]
        fn decided_answers_as_one_ordered_map_did(
            ops in proptest::collection::vec((0u64..10, 0u64..u64::MAX), 1..120),
        ) {
            let (mut d, mut m) = (Decided::new(), Model::default());
            for (op, arg) in ops {
                let frontier = m.frontier();
                match op {
                    // A decision near the frontier, duplicates included.
                    0..=4 => {
                        let slot = frontier.saturating_sub(2) + arg % 8;
                        let batch = Batch::new(vec![Value(slot), Value(arg)]);
                        let held = d.insert(slot, batch.clone()).map(|(b, f)| (b.clone(), f));
                        let expected = (slot >= m.floor).then(|| {
                            let fresh = !m.map.contains_key(&slot);
                            (m.map.entry(slot).or_insert(batch).clone(), fresh)
                        });
                        proptest::prop_assert_eq!(held, expected);
                    }
                    // A far or hostile slot.
                    5 => {
                        let held = d.insert(arg, one(arg)).map(|(b, f)| (b.clone(), f));
                        let expected = (arg >= m.floor).then(|| {
                            let fresh = !m.map.contains_key(&arg);
                            (m.map.entry(arg).or_insert(one(arg)).clone(), fresh)
                        });
                        proptest::prop_assert_eq!(held, expected);
                    }
                    // L23: a truncation at or below the frontier.
                    6 | 7 => {
                        let upto = m.floor + arg % (frontier - m.floor + 1);
                        d.truncate_below(upto);
                        m.floor = m.floor.max(upto);
                        m.map = m.map.split_off(&m.floor);
                    }
                    // L24: an install, past the frontier at times.
                    8 => {
                        let upto = frontier.saturating_sub(1) + arg % 12;
                        d.truncate_below(upto);
                        m.floor = m.floor.max(upto);
                        m.map = m.map.split_off(&m.floor);
                    }
                    _ => {
                        let first = frontier.saturating_sub(4) + arg % 10;
                        let got: Vec<_> = d.range_from(first).map(|(s, _)| s).collect();
                        let want: Vec<_> = m.map.range(first..).map(|(s, _)| *s).collect();
                        proptest::prop_assert_eq!(got, want);
                    }
                }
                let frontier = m.frontier();
                proptest::prop_assert_eq!(d.frontier(), frontier);
                proptest::prop_assert_eq!(d.floor(), m.floor);
                proptest::prop_assert_eq!(d.len(), m.map.len());
                proptest::prop_assert_eq!(d.ahead(), m.map.range(frontier..).count());
                let got: Vec<_> = d.iter().map(|(s, b)| (s, b.clone())).collect();
                let want: Vec<_> = m.map.iter().map(|(s, b)| (*s, b.clone())).collect();
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert!(d.values().eq(m.map.values()));
                let first = frontier.saturating_sub(3);
                proptest::prop_assert!(d.range_from(first).eq(m.map.range(first..).map(|(s, b)| (*s, b))));
                for slot in (m.floor.saturating_sub(2)..frontier.saturating_add(9)).chain([arg]) {
                    proptest::prop_assert_eq!(d.get(slot), m.map.get(&slot));
                    proptest::prop_assert_eq!(d.contains(slot), m.map.contains_key(&slot));
                }
            }
        }
    }
}
