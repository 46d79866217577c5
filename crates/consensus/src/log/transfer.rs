//! Snapshot transfer: the chunk plane, both ends, and the parked install.
//!
//! **Owns** the snapshot this replica can serve (an opaque host blob and
//! the first slot it does not cover), the transfer being assembled, the
//! install parked for the host, and the transfer counters. **Hides** the
//! chunk geometry, the per-chunk digest, the pull window, the resume after
//! a stall, and which of two blobs stays parked. Every snapshot rides this
//! plane: a blob of at most [`SNAPSHOT_CHUNK_LEN`] is a transfer of one
//! chunk, pushed unprompted — one frame — and parked by the handler that
//! receives it.
//!
//! # Snapshot compaction
//!
//! Decided batches below the host's last snapshot point are dropped by
//! [`truncate_below`](super::ReplicatedLog::truncate_below): the host (e.g.
//! the KV service) hands the log an opaque state blob covering every slot
//! below `upto`, and the log forgets those decisions. A replica lagging past
//! the truncation point can no longer be replayed per slot; a peer answers
//! its `Catchup` with the blob instead, as `SnapshotChunk`s — one frame for
//! a blob of at most [`SNAPSHOT_CHUNK_LEN`], else the first
//! [`SNAPSHOT_CHUNK_WINDOW`] chunks, the receiver pulling the rest — and
//! sub-floor ballot traffic is answered with a tiny `SnapshotOffer` that
//! prompts the straggler to ask. Installation is host-mediated: the log
//! parks the assembled blob
//! ([`take_pending_install`](super::ReplicatedLog::take_pending_install))
//! and the host applies it to its state machine before confirming with
//! [`complete_install`](super::ReplicatedLog::complete_install) — a blob the
//! host cannot decode must never advance the log. Retained state is thereby
//! bounded by the snapshot interval plus the pipeline window under sustained
//! load.

use super::msg::{
    snapshot_chunk_count, MAX_SNAPSHOT_CHUNKS, SNAPSHOT_CHUNK_LEN, SNAPSHOT_CHUNK_WINDOW,
};
use irs_types::{Fnv64, ProcessId};
use std::sync::Arc;

/// The fields of one `SnapshotChunk` frame.
#[derive(Debug)]
pub(super) struct Chunk {
    pub(super) upto: u64,
    pub(super) chunk: u32,
    pub(super) total: u32,
    pub(super) digest: u64,
    pub(super) data: Arc<[u8]>,
}

/// The answer to a chunk request (L20).
#[derive(Debug)]
pub(super) enum Served {
    Chunk(Chunk),
    /// The requested snapshot is gone; restart the straggler on the one
    /// that replaced it, which covers slots below this.
    Moved(u64),
    /// No such snapshot, or a garbage chunk index.
    Nothing,
}

/// What a received chunk did (L21).
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Received {
    /// Out of bounds, or its digest does not match (corrupt in transit; the
    /// stall re-request recovers it): nothing was learned.
    Rejected,
    /// Well-formed, so slots below its `upto` exist. Kept, unless it belongs
    /// to an older snapshot than the one in flight; the pull window may have
    /// slid: request this `(source, upto, chunk)` next.
    Taken(Option<(ProcessId, u64, u32)>),
}

/// In-progress reassembly of a chunked snapshot transfer.
#[derive(Debug)]
struct Assembly {
    /// First slot not covered by the snapshot being assembled.
    upto: u64,
    total: u32,
    /// The peer serving the transfer; stall re-requests go back to it.
    source: ProcessId,
    chunks: Vec<Option<Arc<[u8]>>>,
    received: u32,
    /// Next chunk index to pull (the initial window arrives unprompted).
    next_request: u32,
    /// `received` as of the previous check tick; a window that made no
    /// progress across a whole check period re-requests its missing
    /// chunks — the resume path after a link drop.
    last_check_received: u32,
}

#[derive(Debug, Default)]
pub(super) struct Transfer {
    /// The snapshot this replica can serve: a host state blob covering
    /// every slot below the tagged slot.
    snapshot: Option<(u64, Arc<[u8]>)>,
    /// A received install waiting for the host to validate and apply.
    pending_install: Option<(u64, Arc<[u8]>)>,
    assembly: Option<Assembly>,
    /// Gauges: installs the host completed, chunks served, chunks
    /// re-requested after a stalled window.
    pub(super) installs: u64,
    pub(super) chunks_served: u64,
    pub(super) chunk_rerequests: u64,
}

impl Transfer {
    /// L23, L24: `state` covers every slot below `upto` and is what this
    /// replica serves from now on.
    pub(super) fn adopt(&mut self, upto: u64, state: Arc<[u8]>) {
        self.snapshot = Some((upto, state));
    }

    /// L19 (from below the floor): the chunks that open a transfer of our
    /// snapshot unprompted — the first window; the receiver pulls the rest.
    pub(super) fn open(&mut self) -> Vec<Chunk> {
        // (Without a snapshot nothing is served below slot 0 either.)
        let upto = self.snapshot.as_ref().map_or(0, |(upto, _)| *upto);
        let window = (0..SNAPSHOT_CHUNK_WINDOW).map_while(|chunk| match self.serve(upto, chunk) {
            Served::Chunk(c) => Some(c),
            _ => None,
        });
        window.collect()
    }

    /// L20: one chunk of our snapshot below `upto`.
    pub(super) fn serve(&mut self, upto: u64, chunk: u32) -> Served {
        match &self.snapshot {
            Some((mine, state)) if *mine == upto => {
                let total = snapshot_chunk_count(state.len());
                if chunk >= total {
                    return Served::Nothing;
                }
                let start = chunk as usize * SNAPSHOT_CHUNK_LEN;
                let end = (start + SNAPSHOT_CHUNK_LEN).min(state.len());
                // A blob of one chunk is served as itself, not as a copy.
                let data: Arc<[u8]> = match total {
                    1 => Arc::clone(state),
                    _ => state[start..end].into(),
                };
                self.chunks_served += 1;
                Served::Chunk(Chunk {
                    upto,
                    chunk,
                    total,
                    digest: Fnv64::digest_of(&data),
                    data,
                })
            }
            Some((mine, _)) if *mine > upto => Served::Moved(*mine),
            _ => Served::Nothing,
        }
    }

    /// L24: parks a complete blob covering slots below `upto` for the host,
    /// unless a further-reaching one is parked already: peers truncate on
    /// their own cursor boundaries, so concurrent answers can carry
    /// different floors and a lower one must not replace a higher one the
    /// host has not consumed yet.
    pub(super) fn park(&mut self, upto: u64, blob: Arc<[u8]>) {
        if self.pending_install.as_ref().is_none_or(|(u, _)| upto > *u) {
            self.pending_install = Some((upto, blob));
        }
    }

    pub(super) fn take_pending_install(&mut self) -> Option<(u64, Arc<[u8]>)> {
        self.pending_install.take()
    }

    /// L21: one chunk from `c`'s sender `from`, at a replica whose frontier
    /// is `frontier`. Every field is outside input: bounded before anything
    /// is allocated for it. Completing the transfer parks the blob.
    pub(super) fn on_chunk(&mut self, from: ProcessId, frontier: u64, c: Chunk) -> Received {
        let (upto, total) = (c.upto, c.total);
        if upto <= frontier
            || total == 0
            || total > MAX_SNAPSHOT_CHUNKS
            || c.chunk >= total
            || c.data.len() > SNAPSHOT_CHUNK_LEN
            || Fnv64::digest_of(&c.data) != c.digest
        {
            return Received::Rejected;
        }
        if self.assembly.as_ref().is_some_and(|a| a.upto > upto) {
            return Received::Taken(None);
        }
        let asm = match &mut self.assembly {
            Some(a) if a.upto == upto && a.total == total => a,
            stale => stale.insert(Assembly {
                upto,
                total,
                source: from,
                chunks: vec![None; total as usize],
                received: 0,
                next_request: total.min(SNAPSHOT_CHUNK_WINDOW),
                last_check_received: 0,
            }),
        };
        asm.source = from;
        if asm.chunks[c.chunk as usize].is_none() {
            asm.chunks[c.chunk as usize] = Some(c.data);
            asm.received += 1;
        }
        if asm.received == asm.total {
            let parts: Vec<&[u8]> = asm.chunks.iter().flatten().map(|c| &c[..]).collect();
            let blob = parts.concat().into();
            self.assembly = None;
            self.park(upto, blob);
            return Received::Taken(None);
        }
        // Slide the pull window.
        let next = (asm.next_request < asm.total).then(|| {
            asm.next_request += 1;
            (from, upto, asm.next_request - 1)
        });
        Received::Taken(next)
    }

    /// L22: the resume path, run at every check tick. An assembly that made
    /// no progress across a whole check period (dropped chunks, a
    /// partitioned server) re-requests its lowest missing chunks: returns
    /// `(source, upto, chunks)`.
    pub(super) fn resume(&mut self, frontier: u64) -> Option<(ProcessId, u64, Vec<u32>)> {
        let asm = self.assembly.as_mut()?;
        if asm.upto <= frontier {
            // Superseded: per-slot replay or another install caught us up.
            self.assembly = None;
            return None;
        }
        if asm.received != asm.last_check_received {
            asm.last_check_received = asm.received;
            return None; // still progressing
        }
        let missing: Vec<u32> = (0..asm.total)
            .filter(|i| asm.chunks[*i as usize].is_none())
            .take(SNAPSHOT_CHUNK_WINDOW as usize)
            .collect();
        self.chunk_rerequests += missing.len() as u64;
        Some((asm.source, asm.upto, missing))
    }

    #[cfg(test)]
    pub(super) fn assembling(&self) -> bool {
        self.assembly.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    const SERVER: ProcessId = ProcessId::new(0);

    fn serving(upto: u64, blob: &[u8]) -> Transfer {
        let mut t = Transfer::default();
        t.adopt(upto, blob.into());
        t
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn chunk_of(t: &mut Transfer, upto: u64, chunk: u32) -> Chunk {
        match t.serve(upto, chunk) {
            Served::Chunk(c) => c,
            other => panic!("chunk {chunk} below {upto}: {other:?}"),
        }
    }

    /// A transfer opens with the first window of checksummed chunks, never
    /// more; each is `SNAPSHOT_CHUNK_LEN` long except the last.
    #[test]
    fn a_transfer_opens_with_the_first_window_of_checksummed_chunks() {
        let blob = patterned(4 * SNAPSHOT_CHUNK_LEN + 7);
        let mut server = serving(4, &blob);
        let opened = server.open();
        let indices: Vec<u32> = opened.iter().map(|c| c.chunk).collect();
        assert_eq!(indices, vec![0, 1, 2, 3], "a window of a 5-chunk blob");
        for c in &opened {
            assert_eq!((c.upto, c.total), (4, snapshot_chunk_count(blob.len())));
            assert_eq!(c.data.len(), SNAPSHOT_CHUNK_LEN);
            assert_eq!(c.digest, Fnv64::digest_of(&c.data));
        }
        assert_eq!(chunk_of(&mut server, 4, 4).data.len(), 7);
        assert_eq!(server.chunks_served, 5);
        // Garbage indices and unknown snapshots are ignored; a request for
        // a snapshot the floor has moved past is pointed at the newer one.
        assert!(matches!(server.serve(4, 5), Served::Nothing));
        assert!(matches!(server.serve(9, 0), Served::Nothing));
        assert!(matches!(server.serve(3, 0), Served::Moved(4)));
        assert!(Transfer::default().open().is_empty(), "nothing to serve");
        assert_eq!(server.chunks_served, 5);
        // The empty blob is still a transfer (of one empty chunk).
        let opened = serving(1, &[]).open();
        assert!(matches!(&opened[..], [c] if c.total == 1 && c.data.is_empty()));
    }

    /// End-to-end chunked transfer with a seeded drop: the puller assembles
    /// the pushed window, pulls the rest, loses one chunk in transit,
    /// re-requests it at the stalled check tick, and finally parks a
    /// byte-identical blob.
    #[test]
    fn a_transfer_resumes_after_a_dropped_chunk() {
        let blob = patterned(5 * SNAPSHOT_CHUNK_LEN + 13);
        let total = snapshot_chunk_count(blob.len());
        assert!(total > SNAPSHOT_CHUNK_WINDOW, "needs pulls past the window");
        let mut server = serving(4, &blob);
        let mut puller = Transfer::default();
        // Route with a fault: drop chunk 1 the first time it is sent.
        let mut inbox: VecDeque<Chunk> = server.open().into();
        let mut dropped_one = false;
        while let Some(c) = inbox.pop_front() {
            if !dropped_one && c.chunk == 1 {
                dropped_one = true;
                continue;
            }
            match puller.on_chunk(SERVER, 0, c) {
                Received::Taken(Some((source, upto, next))) => {
                    assert_eq!((source, upto), (SERVER, 4));
                    inbox.push_back(chunk_of(&mut server, upto, next));
                }
                Received::Taken(None) => {}
                Received::Rejected => panic!("a served chunk was rejected"),
            }
        }
        assert!(dropped_one && puller.assembling());
        assert!(
            puller.take_pending_install().is_none(),
            "a transfer with a lost chunk cannot complete yet"
        );
        // Two check ticks: the first observes progress since the window
        // opened, the second sees the stall and re-requests the hole.
        assert_eq!(puller.resume(0), None);
        assert_eq!(puller.resume(0), Some((SERVER, 4, vec![1])));
        assert_eq!(puller.chunk_rerequests, 1);
        let last = chunk_of(&mut server, 4, 1);
        assert_eq!(puller.on_chunk(SERVER, 0, last), Received::Taken(None));
        let (upto, parked) = puller.take_pending_install().expect("complete");
        assert_eq!(upto, 4);
        assert_eq!(parked.as_ref(), &blob[..], "assembled byte-identical");
        assert!(!puller.assembling() && puller.take_pending_install().is_none());
        // An assembly the frontier has overtaken is dropped, not resumed.
        puller.on_chunk(SERVER, 0, chunk_of(&mut server, 4, 0));
        assert_eq!(puller.resume(4), None);
        assert!(!puller.assembling());
    }

    /// Corrupt or out-of-range chunks are dropped without opening (or
    /// poisoning) an assembly; every bound is checked before allocating.
    #[test]
    fn corrupt_and_bogus_chunks_are_rejected() {
        let data: Arc<[u8]> = vec![1u8; 16].into();
        let chunk = |upto, chunk, total, digest| Chunk {
            upto,
            chunk,
            total,
            digest,
            data: Arc::clone(&data),
        };
        let good = Fnv64::digest_of(&data);
        let mut t = Transfer::default();
        for (bogus, why) in [
            (chunk(4, 0, 2, 0xDEAD), "a bad digest"),
            (
                chunk(4, 0, MAX_SNAPSHOT_CHUNKS + 1, good),
                "an absurd total",
            ),
            (chunk(4, 0, 0, good), "no chunks at all"),
            (chunk(4, 7, 2, good), "an index beyond the total"),
            (chunk(3, 0, 2, good), "a snapshot at or below the frontier"),
        ] {
            assert_eq!(t.on_chunk(SERVER, 3, bogus), Received::Rejected, "{why}");
            assert!(!t.assembling(), "{why} must not open an assembly");
        }
        let oversized = Chunk {
            data: vec![0u8; SNAPSHOT_CHUNK_LEN + 1].into(),
            ..chunk(4, 0, 2, 0)
        };
        assert_eq!(t.on_chunk(SERVER, 3, oversized), Received::Rejected);
        // A good chunk opens one; a corrupt twin of its sibling leaves it be.
        assert_eq!(
            t.on_chunk(SERVER, 3, chunk(4, 0, 2, good)),
            Received::Taken(None)
        );
        assert_eq!(
            t.on_chunk(SERVER, 3, chunk(4, 1, 2, 0xBAD)),
            Received::Rejected
        );
        assert!(t.assembling() && t.take_pending_install().is_none());
    }

    /// Chunks of an older snapshot than the one in flight are ignored, a
    /// newer one restarts the assembly, and of two complete blobs the
    /// further-reaching stays parked.
    #[test]
    fn the_newest_snapshot_wins_the_assembly_and_the_parking_slot() {
        let (old, new) = (
            patterned(2 * SNAPSHOT_CHUNK_LEN),
            patterned(SNAPSHOT_CHUNK_LEN + 9),
        );
        let (mut at4, mut at8) = (serving(4, &old), serving(8, &new));
        let mut t = Transfer::default();
        let peer = ProcessId::new(2);
        assert_eq!(
            t.on_chunk(SERVER, 0, chunk_of(&mut at4, 4, 0)),
            Received::Taken(None)
        );
        // A newer snapshot takes the assembly over…
        assert_eq!(
            t.on_chunk(peer, 0, chunk_of(&mut at8, 8, 0)),
            Received::Taken(None)
        );
        // …and the older one's remaining chunk is stale now.
        assert_eq!(
            t.on_chunk(SERVER, 0, chunk_of(&mut at4, 4, 1)),
            Received::Taken(None)
        );
        assert!(t.take_pending_install().is_none());
        assert_eq!(
            t.on_chunk(peer, 0, chunk_of(&mut at8, 8, 1)),
            Received::Taken(None)
        );
        // A complete lower blob does not replace the parked higher one.
        for chunk in 0..2 {
            t.on_chunk(SERVER, 0, chunk_of(&mut at4, 4, chunk));
        }
        let (upto, parked) = t.take_pending_install().expect("parked");
        assert_eq!((upto, parked.as_ref()), (8, &new[..]));
    }
}
