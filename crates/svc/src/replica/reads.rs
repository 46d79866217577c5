//! The read queue: which path a read takes, and the reads waiting on the
//! read-index path.
//!
//! **Owns** the queued reads and the three tier counters. **Hides** the
//! tier order — stale anywhere, linearizable tiers only at the leader, the
//! lease only while it is valid — and when a queued read is ready. It is
//! handed whether Ω names this replica, the lease's verdict, the confirmed
//! probe round and the apply cursor; the replica queues each read with the
//! decided frontier as its read index, and builds and sends the replies.
//! The rows R7–R12 of the replica's rule table are its handlers.

use crate::msg::ReadTier;
use irs_types::ProcessId;

/// One read awaiting its read-index conditions at the leader.
#[derive(Debug)]
pub(super) struct PendingRead {
    /// The endpoint to answer.
    pub(super) from: ProcessId,
    pub(super) client: u64,
    pub(super) rid: u64,
    pub(super) key: Vec<u8>,
    /// The decided frontier when the read arrived; the answer waits until
    /// the apply cursor covers it.
    pub(super) read_index: u64,
    /// The probe round whose quorum confirms leadership for this read —
    /// always a round *sent after* the read arrived.
    pub(super) confirm_rid: u64,
}

/// Where an arriving read goes.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Admit {
    /// Answer now from the applied store.
    Serve,
    /// Name the leader instead.
    Redirect,
    /// Queue on the read-index path.
    Queue,
}

/// The read-index queue and the per-tier counters of one replica.
#[derive(Debug, Default)]
pub(super) struct Reads {
    pub(super) pending: Vec<PendingRead>,
    pub(super) lease: u64,
    pub(super) read_index: u64,
    pub(super) stale: u64,
}

impl Reads {
    /// R7–R10: the path of a read of `tier` arriving now, `leading` when
    /// Ω names this replica.
    pub(super) fn admit(&mut self, tier: ReadTier, leading: bool, lease_valid: bool) -> Admit {
        match tier {
            // R7.
            ReadTier::Stale => self.stale += 1,
            // R8.
            _ if !leading => return Admit::Redirect,
            // R9.
            ReadTier::Lease if lease_valid => self.lease += 1,
            // R10.
            _ => return Admit::Queue,
        }
        Admit::Serve
    }

    /// R11: removes and returns every queued read whose leadership round
    /// confirmed and whose read index the apply cursor has covered.
    pub(super) fn take_ready(&mut self, confirmed_rid: u64, cursor: u64) -> Vec<PendingRead> {
        let mut ready = Vec::new();
        let mut i = 0;
        while let Some(r) = self.pending.get(i) {
            if confirmed_rid >= r.confirm_rid && cursor >= r.read_index {
                ready.push(self.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.read_index += ready.len() as u64;
        ready
    }

    /// R12: every queued read, for a replica Ω no longer names.
    pub(super) fn drain(&mut self) -> std::vec::Drain<'_, PendingRead> {
        self.pending.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(rid: u64, read_index: u64, confirm_rid: u64) -> PendingRead {
        PendingRead {
            from: ProcessId::new(9),
            client: 9,
            rid,
            key: b"k".to_vec(),
            read_index,
            confirm_rid,
        }
    }

    #[test]
    fn stale_reads_serve_anywhere_and_linearizable_ones_only_at_the_leader() {
        let mut reads = Reads::default();
        for (tier, leading, lease_valid, path) in [
            (ReadTier::Stale, false, false, Admit::Serve),
            (ReadTier::Stale, true, true, Admit::Serve),
            (ReadTier::Lease, false, true, Admit::Redirect),
            (ReadTier::ReadIndex, false, true, Admit::Redirect),
            (ReadTier::Lease, true, true, Admit::Serve),
            (ReadTier::Lease, true, false, Admit::Queue),
            (ReadTier::ReadIndex, true, true, Admit::Queue),
        ] {
            assert_eq!(reads.admit(tier, leading, lease_valid), path, "{tier:?}");
        }
        assert_eq!((reads.stale, reads.lease, reads.read_index), (2, 1, 0));
    }

    #[test]
    fn a_queued_read_waits_for_its_confirming_round_and_its_read_index() {
        let mut reads = Reads {
            pending: vec![read(1, 5, 2), read(2, 3, 3), read(3, 3, 2)],
            ..Reads::default()
        };
        assert!(reads.take_ready(1, 10).is_empty(), "no round confirmed yet");
        assert!(reads.take_ready(3, 2).is_empty(), "the cursor is behind");
        let ready: Vec<u64> = reads.take_ready(2, 4).iter().map(|r| r.rid).collect();
        assert_eq!(ready, vec![3], "confirmed and covered");
        let ready: Vec<u64> = reads.take_ready(3, 5).iter().map(|r| r.rid).collect();
        assert_eq!(ready, vec![1, 2]);
        assert!(reads.pending.is_empty());
        assert_eq!(reads.read_index, 3);
    }
}
