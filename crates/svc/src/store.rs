//! The deterministic key-value state machine.
//!
//! A [`KvStore`] is a pure function of the decided log prefix: replicas
//! apply entries in slot order, and the per-client sequence filter makes
//! the application exactly-once under client retries. Because both the
//! order (the log) and the filter (a function of the log alone) are
//! identical everywhere, any two replicas that applied the same prefix hold
//! byte-identical state — [`KvStore::digest`] is the cheap witness the
//! consistency experiments compare.

use crate::command::{KvView, KvWrite};
use irs_consensus::Command;
use irs_net::wire::{put_bytes, put_u32, Wire, WireReader};
use std::collections::BTreeMap;

/// The applied key-value state of one replica.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Per client: the last applied `(seq, slot)`.
    last: BTreeMap<u64, (u64, u64)>,
    applied: u64,
    dup_skips: u64,
    /// Incrementally maintained state digest: the wrapping sum of one
    /// [`WordHash`] per live binding and per client cursor (a multiset
    /// hash, so it is order-independent and supports O(1) update on
    /// insert/overwrite/remove). Snapshots publish the digest after every
    /// applied frame; recomputing over the whole map there would make each
    /// consensus message O(store size).
    digest_acc: u64,
}

/// The digest's per-entry hash: eight input bytes a multiply step, then a
/// full avalanche. Stable across processes and releases, which is all a
/// cross-replica witness needs; it is not built to resist chosen
/// collisions.
struct WordHash(u64);

impl WordHash {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new(domain: u64) -> Self {
        WordHash(domain.wrapping_mul(Self::K))
    }

    fn word(&mut self, w: u64) -> &mut Self {
        self.0 = (self.0 ^ w).wrapping_mul(Self::K).rotate_left(29);
        self
    }

    /// A length word, then the bytes in little-endian words, the last one
    /// zero-padded — the length keeps `("ab", "")` apart from `("a", "b")`.
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.word(u64::from_le_bytes(tail))
    }

    /// The murmur3 64-bit finaliser.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Domain-separated hash of one `key → value` binding.
fn binding_hash(key: &[u8], value: &[u8]) -> u64 {
    WordHash::new(1).bytes(key).bytes(value).finish()
}

/// Domain-separated hash of one client's `(seq, slot)` cursor.
fn cursor_hash(client: u64, seq: u64, slot: u64) -> u64 {
    WordHash::new(2).word(client).word(seq).word(slot).finish()
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the write decided in `slot`. Returns `false` (and mutates
    /// nothing but the duplicate counter) when the write is a retry
    /// duplicate — its `seq` does not exceed the client's last applied one.
    pub fn apply(&mut self, slot: u64, w: &KvWrite) -> bool {
        self.apply_view(slot, w.view())
    }

    /// [`KvStore::apply`] over a borrowed write: a put copies its key only
    /// when the key is new, and overwrites a bound value in place.
    pub fn apply_view(&mut self, slot: u64, w: KvView<'_>) -> bool {
        if let Some(&(seq, _)) = self.last.get(&w.client) {
            if w.seq <= seq {
                self.dup_skips += 1;
                return false;
            }
        }
        let key = w.key;
        let old = match w.value {
            Some(value) => {
                self.digest_acc = self.digest_acc.wrapping_add(binding_hash(key, value));
                match self.map.get_mut(key) {
                    Some(bound) => {
                        let old = binding_hash(key, bound);
                        bound.clear();
                        bound.extend_from_slice(value);
                        Some(old)
                    }
                    None => {
                        self.map.insert(key.to_vec(), value.to_vec());
                        None
                    }
                }
            }
            None => self.map.remove(key).map(|old| binding_hash(key, &old)),
        };
        if let Some(old) = old {
            self.digest_acc = self.digest_acc.wrapping_sub(old);
        }
        if let Some((old_seq, old_slot)) = self.last.insert(w.client, (w.seq, slot)) {
            self.digest_acc = self
                .digest_acc
                .wrapping_sub(cursor_hash(w.client, old_seq, old_slot));
        }
        self.digest_acc = self
            .digest_acc
            .wrapping_add(cursor_hash(w.client, w.seq, slot));
        self.applied += 1;
        true
    }

    /// Reads a key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(Vec::as_slice)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when no key is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Writes applied (duplicates excluded).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Retry duplicates skipped by the sequence filter.
    pub fn dup_skips(&self) -> u64 {
        self.dup_skips
    }

    /// The last applied `(seq, slot)` of a client, if any.
    pub fn last_applied(&self, client: u64) -> Option<(u64, u64)> {
        self.last.get(&client).copied()
    }

    /// The full map (for whole-state comparison in tests).
    pub fn map(&self) -> &BTreeMap<Vec<u8>, Vec<u8>> {
        &self.map
    }

    /// A 64-bit witness of the applied state — the wrapping sum of one hash
    /// per live binding and per client cursor, so it is order-independent:
    /// two replicas with equal digests applied the same effective writes.
    /// The per-entry hash takes eight bytes a step and is fixed (stable
    /// across processes), but no test pins its value: compare digests, do
    /// not store them. O(1): the accumulator is maintained incrementally
    /// by every apply, so per-frame snapshot publication stays cheap
    /// regardless of store size; [`KvStore::install`] recomputes it from
    /// the installed content.
    pub fn digest(&self) -> u64 {
        self.digest_acc
    }

    /// Applies a whole decided batch of owned writes in order, returning
    /// how many were fresh (the rest were retry duplicates). `on_applied`
    /// is invoked once per write with whether its effect landed.
    /// Digest-identical to applying the writes singly.
    pub fn apply_batch<'a>(
        &mut self,
        slot: u64,
        writes: impl IntoIterator<Item = &'a KvWrite>,
        mut on_applied: impl FnMut(&KvWrite, bool),
    ) -> u64 {
        let mut fresh = 0u64;
        for w in writes {
            let applied = self.apply(slot, w);
            fresh += u64::from(applied);
            on_applied(w, applied);
        }
        fresh
    }

    /// Applies a decided batch as the log holds it, each command read in
    /// place ([`KvView::parse`]) — the replica's apply path
    /// (`SvcReplica::apply_ready`), whose ack bookkeeping rides
    /// `on_applied`. A command that does not parse is a no-op entry.
    /// Returns how many writes were fresh; state- and digest-identical to
    /// [`KvStore::apply_batch`] over the decoded writes.
    pub fn apply_commands<'a>(
        &mut self,
        slot: u64,
        commands: impl IntoIterator<Item = &'a Command>,
        mut on_applied: impl FnMut(KvView<'a>, bool),
    ) -> u64 {
        let mut fresh = 0u64;
        for w in commands
            .into_iter()
            .filter_map(|c| KvView::parse(c.bytes()))
        {
            let applied = self.apply_view(slot, w);
            fresh += u64::from(applied);
            on_applied(w, applied);
        }
        fresh
    }

    /// Serializes the applied state into an opaque snapshot blob: the live
    /// bindings, the per-client cursors, and the applied counter — enough
    /// for [`KvStore::install`] to reconstruct a store that is
    /// digest-identical and gauge-identical to this one. Deterministic
    /// (`BTreeMap` order), so two replicas with equal state export equal
    /// blobs.
    pub fn export(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.applied.encode(&mut buf);
        put_u32(&mut buf, self.map.len() as u32);
        for (key, value) in &self.map {
            put_bytes(&mut buf, key);
            put_bytes(&mut buf, value);
        }
        put_u32(&mut buf, self.last.len() as u32);
        for (&client, &(seq, slot)) in &self.last {
            (client, seq, slot).encode(&mut buf);
        }
        buf
    }

    /// Reconstructs a store from an exported snapshot blob, recomputing the
    /// order-independent digest from the installed content (so a corrupted
    /// blob cannot smuggle in a digest that does not match its state).
    /// Returns `None` on any malformed input — a snapshot crosses the wire,
    /// so it is untrusted.
    pub fn install(blob: &[u8]) -> Option<KvStore> {
        let mut r = WireReader::new(blob);
        let mut store = KvStore::new();
        store.applied = r.u64().ok()?;
        for _ in 0..r.u32().ok()? {
            // `apply` bounds neither keys nor values, so neither does the blob.
            let key = r.bytes(usize::MAX).ok()?.to_vec();
            let value = r.bytes(usize::MAX).ok()?.to_vec();
            store.digest_acc = store.digest_acc.wrapping_add(binding_hash(&key, &value));
            if store.map.insert(key, value).is_some() {
                return None; // duplicate keys: not one of our exports
            }
        }
        for _ in 0..r.u32().ok()? {
            let (client, seq, slot) = Wire::decode(&mut r).ok()?;
            store.digest_acc = store
                .digest_acc
                .wrapping_add(cursor_hash(client, seq, slot));
            if store.last.insert(client, (seq, slot)).is_some() {
                return None;
            }
        }
        r.finish().ok()?;
        Some(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::KvOp;

    fn put(client: u64, seq: u64, key: &[u8], value: &[u8]) -> KvWrite {
        KvWrite {
            client,
            seq,
            op: KvOp::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
        }
    }

    #[test]
    fn applies_in_order_and_reads_back() {
        let mut s = KvStore::new();
        assert!(s.is_empty());
        assert!(s.apply(0, &put(1, 1, b"a", b"x")));
        assert!(s.apply(1, &put(1, 2, b"a", b"y")));
        assert!(s.apply(2, &put(2, 1, b"b", b"z")));
        assert_eq!(s.get(b"a"), Some(b"y".as_slice()));
        assert_eq!(s.get(b"b"), Some(b"z".as_slice()));
        assert_eq!(s.len(), 2);
        assert_eq!(s.applied(), 3);
        assert_eq!(s.last_applied(1), Some((2, 1)));
        let del = KvWrite {
            client: 2,
            seq: 2,
            op: KvOp::Del { key: b"b".to_vec() },
        };
        assert!(s.apply(3, &del));
        assert_eq!(s.get(b"b"), None);
    }

    #[test]
    fn retry_duplicates_apply_once() {
        let mut s = KvStore::new();
        assert!(s.apply(0, &put(7, 1, b"k", b"v1")));
        // The same (client, seq) decided again in a later slot: skipped.
        assert!(!s.apply(5, &put(7, 1, b"k", b"v1")));
        // An older seq arriving late: skipped too.
        assert!(s.apply(6, &put(7, 3, b"k", b"v3")));
        assert!(!s.apply(7, &put(7, 2, b"k", b"v2")));
        assert_eq!(s.get(b"k"), Some(b"v3".as_slice()));
        assert_eq!(s.dup_skips(), 2);
        assert_eq!(s.applied(), 2);
    }

    /// The incremental accumulator must be a pure function of the final
    /// state: two stores that reach the same (map, cursors) through
    /// different intermediate values report the same digest.
    #[test]
    fn digest_is_path_independent_for_equal_states() {
        let (mut a, mut b) = (KvStore::new(), KvStore::new());
        a.apply(0, &put(1, 1, b"k", b"temporary"));
        a.apply(1, &put(1, 2, b"k", b"final"));
        b.apply(0, &put(1, 1, b"k", b"other"));
        b.apply(1, &put(1, 2, b"k", b"final"));
        assert_eq!(a.digest(), b.digest());
        // A delete cancels an insert exactly.
        let mut c = a.clone();
        c.apply(2, &put(1, 3, b"extra", b"x"));
        assert_ne!(c.digest(), a.digest());
        let del = KvWrite {
            client: 1,
            seq: 4,
            op: KvOp::Del {
                key: b"extra".to_vec(),
            },
        };
        c.apply(3, &del);
        // Maps match again; only the client cursor differs now.
        assert_eq!(c.map(), a.map());
        assert_ne!(c.digest(), a.digest(), "cursor advance is part of state");
    }

    #[test]
    fn export_install_roundtrips_digest_and_gauges() {
        let mut s = KvStore::new();
        s.apply(0, &put(1, 1, b"a", b"x"));
        s.apply(1, &put(2, 1, b"b", b"y"));
        s.apply(2, &put(1, 2, b"a", b"z"));
        s.apply(3, &put(1, 2, b"a", b"z")); // a dup skip (local stat only)
        let restored = KvStore::install(&s.export()).expect("well-formed blob");
        assert_eq!(restored.map(), s.map());
        assert_eq!(restored.digest(), s.digest());
        assert_eq!(restored.applied(), s.applied());
        assert_eq!(restored.last_applied(1), s.last_applied(1));
        assert_eq!(restored.dup_skips(), 0, "dup skips are a local stat");
        // The empty store round-trips too.
        let empty = KvStore::install(&KvStore::new().export()).unwrap();
        assert_eq!(empty.digest(), KvStore::new().digest());
        // Truncated and trailing-junk blobs are rejected.
        let blob = s.export();
        assert!(KvStore::install(&blob[..blob.len() - 1]).is_none());
        let mut long = blob.clone();
        long.push(0);
        assert!(KvStore::install(&long).is_none());
        assert!(KvStore::install(&[]).is_none());
    }

    /// A frozen export: applied count, the bindings in key order, the
    /// client cursors in client order.
    #[test]
    fn golden_export_blob() {
        let mut s = KvStore::new();
        s.apply(3, &put(2, 1, b"b", b"y"));
        s.apply(4, &put(1, 5, b"a", b"xz"));
        let blob = s.export();
        let hex: String = blob.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "020000000000000002000000010000006102000000787a0100000062010000007902000000010000000000000005000000000000000400000000000000020000000000000001000000000000000300000000000000");
        let restored = KvStore::install(&blob).expect("own export");
        assert_eq!(restored.digest(), s.digest());
    }

    #[test]
    fn digest_separates_states_and_matches_equal_ones() {
        let (mut a, mut b) = (KvStore::new(), KvStore::new());
        a.apply(0, &put(1, 1, b"a", b"x"));
        b.apply(0, &put(1, 1, b"a", b"x"));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, b);
        b.apply(1, &put(1, 2, b"a", b"x"));
        assert_ne!(a.digest(), b.digest());
        // Field boundaries matter: ("ab", "") != ("a", "b").
        let (mut c, mut d) = (KvStore::new(), KvStore::new());
        c.apply(0, &put(1, 1, b"ab", b""));
        d.apply(0, &put(1, 1, b"a", b"b"));
        assert_ne!(c.digest(), d.digest());
    }

    use proptest::prelude::*;

    /// Builds a deterministic pseudo-random write stream (clients, repeated
    /// seqs for retry duplicates, puts and deletes over a small key space)
    /// from a flat seed vector — the vendored proptest has no composite
    /// strategies.
    fn writes_from(seeds: &[u64]) -> Vec<KvWrite> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let client = s % 3;
                // Occasionally reuse a stale seq so the duplicate filter is
                // exercised inside batches too.
                let seq = 1 + (i as u64 / 2) % 8;
                let key = vec![b'k', (s % 5) as u8];
                if s % 7 == 0 {
                    KvWrite {
                        client,
                        seq,
                        op: KvOp::Del { key },
                    }
                } else {
                    KvWrite {
                        client,
                        seq,
                        op: KvOp::Put {
                            key,
                            value: s.to_le_bytes().to_vec(),
                        },
                    }
                }
            })
            .collect()
    }

    proptest! {
        /// Applying a decided batch via `apply_batch` is digest- and
        /// state-identical to applying its writes singly in the same order
        /// — batched replication must be observationally equal to the
        /// one-write-per-slot path, duplicates included.
        #[test]
        fn batch_apply_is_digest_identical_to_single_apply(
            seeds in proptest::collection::vec(0u64..1_000, 1..48),
            batch_len in 1usize..9,
        ) {
            let writes = writes_from(&seeds);
            let (mut batched, mut singly) = (KvStore::new(), KvStore::new());
            for (slot, chunk) in writes.chunks(batch_len).enumerate() {
                let fresh = batched.apply_batch(slot as u64, chunk, |_, _| {});
                let mut expect_fresh = 0;
                for w in chunk {
                    if singly.apply(slot as u64, w) {
                        expect_fresh += 1;
                    }
                }
                prop_assert_eq!(fresh, expect_fresh);
            }
            prop_assert_eq!(batched.digest(), singly.digest());
            prop_assert_eq!(batched.map(), singly.map());
            prop_assert_eq!(batched.applied(), singly.applied());
            prop_assert_eq!(batched.dup_skips(), singly.dup_skips());
        }

        /// The replica's borrowed apply — commands read in place, a bound
        /// value overwritten in place — leaves the map, the digest, the
        /// cursors and the counters exactly where `apply(&KvWrite)` leaves
        /// them, over random puts, deletes and retry duplicates, and
        /// reports the same write as fresh or skipped. A command that does
        /// not parse is a no-op entry.
        #[test]
        fn borrowed_apply_is_state_and_digest_identical_to_owned_apply(
            seeds in proptest::collection::vec(0u64..1_000, 1..64),
            batch_len in 1usize..9,
        ) {
            let writes = writes_from(&seeds);
            let commands: Vec<Command> = writes.iter().map(KvWrite::encode).collect();
            let (mut borrowed, mut owned) = (KvStore::new(), KvStore::new());
            for (slot, chunk) in commands.chunks(batch_len).enumerate() {
                let slot = slot as u64;
                let garbage = Command::new(vec![slot as u8; 3]);
                let mut seen = Vec::new();
                let fresh = borrowed.apply_commands(slot, chunk.iter().chain([&garbage]), |w, f| {
                    seen.push((w.client, w.seq, f));
                });
                let mut expect = Vec::new();
                for w in chunk.iter().filter_map(KvWrite::decode) {
                    expect.push((w.client, w.seq, owned.apply(slot, &w)));
                }
                prop_assert_eq!(fresh, expect.iter().filter(|e| e.2).count() as u64);
                prop_assert_eq!(seen, expect);
            }
            prop_assert_eq!(borrowed.map(), owned.map());
            prop_assert_eq!(borrowed.digest(), owned.digest());
            prop_assert_eq!(borrowed.applied(), owned.applied());
            prop_assert_eq!(borrowed.dup_skips(), owned.dup_skips());
            for client in 0..3 {
                prop_assert_eq!(borrowed.last_applied(client), owned.last_applied(client));
            }
            let restored = KvStore::install(&borrowed.export()).expect("own export");
            prop_assert_eq!(restored.digest(), borrowed.digest());
        }

        /// `install ∘ export` is the identity on (map, cursors, digest,
        /// applied) for any reachable store state.
        #[test]
        fn random_states_survive_export_install(
            seeds in proptest::collection::vec(0u64..1_000, 0..48),
        ) {
            let mut s = KvStore::new();
            for (slot, w) in writes_from(&seeds).iter().enumerate() {
                s.apply(slot as u64, w);
            }
            let restored = KvStore::install(&s.export()).expect("own export");
            prop_assert_eq!(restored.map(), s.map());
            prop_assert_eq!(restored.digest(), s.digest());
            prop_assert_eq!(restored.applied(), s.applied());
        }

        /// Random bytes never panic the installer — snapshots cross the
        /// wire and are untrusted input.
        #[test]
        fn random_blobs_never_panic_install(
            bytes in proptest::collection::vec(0u8..255, 0..96),
        ) {
            let _ = KvStore::install(&bytes);
        }
    }
}
