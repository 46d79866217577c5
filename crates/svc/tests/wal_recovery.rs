//! Crash-recovery equivalence: a replica recovered from its WAL (and
//! snapshot) must be *digest-identical* to a replica that never crashed —
//! under random workloads, arbitrary torn tails, and crashes that land in
//! the middle of a snapshot write.
//!
//! The vendored proptest has no composite strategies, so workloads are
//! built from flat seed vectors (the same idiom as the store's proptests).

use irs_consensus::{Batch, LogMsg, PaxosMsg};
use irs_svc::{KvOp, KvWrite, SvcConfig, SvcMsg, SvcReplica};
use irs_types::{Actions, ProcessId, Protocol};
use irs_wal::WalRecord;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Replica p1 of a three-replica group (`t = 1`), unbatched, compacting
/// every `snapshot_interval` applied slots.
fn config(snapshot_interval: u64) -> SvcConfig {
    SvcConfig::new(3, 0).with_snapshot_interval(snapshot_interval)
}

fn in_memory(snapshot_interval: u64) -> SvcReplica {
    config(snapshot_interval).replica(ProcessId::new(0))
}

/// A fresh per-test scratch directory (removed up front so a previous
/// failed run cannot leak state into this one).
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("irs-walrec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic pseudo-random write stream: a few clients, occasionally
/// stale seqs (duplicate-filter work), puts and deletes over a small key
/// space.
fn writes_from(seeds: &[u64]) -> Vec<KvWrite> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let client = s % 3;
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

fn decide(slot: u64, batch: Batch<irs_svc::Command>) -> SvcMsg {
    SvcMsg::Log(LogMsg::Slot {
        slot,
        msg: PaxosMsg::Decide { v: batch },
    })
}

fn feed(replica: &mut SvcReplica, msg: &SvcMsg) {
    replica.on_message(ProcessId::new(1), msg, &mut Actions::new());
}

/// The same replica, durable under `<base>/node-0/` with fsync on every
/// commit (the config default).
fn durable(base: &Path, snapshot_interval: u64) -> SvcReplica {
    config(snapshot_interval)
        .with_data_dir(base)
        .replica(ProcessId::new(0))
}

fn state(r: &SvcReplica) -> (u64, u64, usize) {
    (r.store().digest(), r.store().applied(), r.store().len())
}

proptest! {
    /// A clean crash (process gone, files intact): recovery replays the
    /// snapshot + WAL into a store digest-identical to a replica that
    /// lived through the same decided sequence in memory — snapshots,
    /// rotations, batches and duplicate writes included.
    #[test]
    fn recovery_is_digest_identical_to_never_crashed(
        seeds in proptest::collection::vec(0u64..1_000, 1..40),
        batch_len in 1usize..5,
        interval in 0u64..7,
    ) {
        let base = tmpdir("identical");
        let writes = writes_from(&seeds);
        let mut durable_replica = durable(&base, interval);
        let mut memory = in_memory(interval);
        for (slot, chunk) in writes.chunks(batch_len).enumerate() {
            let batch = Batch::new(chunk.iter().map(KvWrite::encode).collect::<Vec<_>>());
            let msg = decide(slot as u64, batch);
            feed(&mut durable_replica, &msg);
            feed(&mut memory, &msg);
        }
        prop_assert_eq!(state(&durable_replica), state(&memory), "pre-crash divergence");
        drop(durable_replica); // the crash: nothing flushed beyond the WAL's own commits
        let recovered = durable(&base, interval);
        prop_assert_eq!(state(&recovered), state(&memory));
        prop_assert_eq!(recovered.store().map(), memory.store().map());
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A torn tail (the crash landed mid-write): recovery truncates at the
    /// first bad frame and is digest-identical to a never-crashed replica
    /// that saw exactly the surviving record prefix — for *any* cut point.
    /// Recovering the same bytes twice yields the same state.
    #[test]
    fn torn_tails_recover_to_exactly_the_surviving_prefix(
        seeds in proptest::collection::vec(0u64..1_000, 1..32),
        cut in 0usize..4_096,
    ) {
        let base = tmpdir("torn");
        let dir = base.join("node-0");
        let writes = writes_from(&seeds);
        let mut durable_replica = durable(&base, 0); // WAL-only: no rotation
        for (slot, w) in writes.iter().enumerate() {
            feed(&mut durable_replica, &decide(slot as u64, Batch::one(w.encode())));
        }
        drop(durable_replica);

        // Tear the tail at an arbitrary byte offset from the end.
        let wal_path = dir.join(irs_wal::WAL_FILE);
        let bytes = std::fs::read(&wal_path).expect("read wal");
        let keep = bytes.len().saturating_sub(cut % (bytes.len() + 1));
        std::fs::write(&wal_path, &bytes[..keep]).expect("tear wal tail");

        // The oracle replica replays only the records that survive the cut.
        let (records, valid) = irs_wal::read_records_bytes(&bytes[..keep]);
        prop_assert!(valid <= keep);
        let mut oracle = in_memory(0);
        for rec in records {
            if let WalRecord::Decide { slot, batch } = rec {
                let batch: Batch<irs_svc::Command> =
                    irs_net::wire::decode_payload(&batch).expect("own record bytes");
                feed(&mut oracle, &decide(slot, batch));
            }
        }
        let first = durable(&base, 0);
        prop_assert_eq!(state(&first), state(&oracle), "torn-tail recovery diverged");
        prop_assert_eq!(first.store().map(), oracle.store().map());
        drop(first);
        let second = durable(&base, 0);
        prop_assert_eq!(state(&second), state(&oracle), "recovery is not deterministic");
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A crash in the middle of writing a snapshot leaves a half-written
    /// tmp file next to the last complete snapshot. Recovery must ignore
    /// the tmp file and still be digest-identical to never-crashed.
    #[test]
    fn mid_snapshot_crashes_leave_recovery_intact(
        seeds in proptest::collection::vec(0u64..1_000, 8..40),
    ) {
        let base = tmpdir("midsnap");
        let dir = base.join("node-0");
        let writes = writes_from(&seeds);
        let mut durable_replica = durable(&base, 4);
        let mut memory = in_memory(4);
        for (slot, w) in writes.iter().enumerate() {
            let msg = decide(slot as u64, Batch::one(w.encode()));
            feed(&mut durable_replica, &msg);
            feed(&mut memory, &msg);
        }
        drop(durable_replica);
        // The interrupted write: garbage where the next snapshot was going.
        std::fs::write(dir.join("snapshot.bin.tmp"), b"half a snapshot, then power loss")
            .expect("write torn tmp snapshot");
        let recovered = durable(&base, 4);
        prop_assert_eq!(state(&recovered), state(&memory));
        prop_assert_eq!(recovered.store().map(), memory.store().map());
        let _ = std::fs::remove_dir_all(&base);
    }
}

/// A corrupted snapshot *file* (bit rot, not a torn write) reads as absent
/// rather than installing garbage: recovery falls back to the WAL tail,
/// never panics, and stays deterministic. State may legitimately lag the
/// never-crashed replica — the live cluster heals that via catch-up.
#[test]
fn corrupt_snapshot_files_read_as_absent_not_garbage() {
    let base = tmpdir("rot");
    let dir = base.join("node-0");
    let writes = writes_from(&(0..24u64).map(|i| i * 37 + 1).collect::<Vec<_>>());
    let mut durable_replica = durable(&base, 4);
    for (slot, w) in writes.iter().enumerate() {
        feed(
            &mut durable_replica,
            &decide(slot as u64, Batch::one(w.encode())),
        );
    }
    let full = state(&durable_replica);
    drop(durable_replica);

    let snap_path = dir.join(irs_wal::SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap_path).expect("snapshot exists after interval 4 × 24 slots");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap_path, &bytes).expect("corrupt snapshot");

    let first = durable(&base, 4);
    let second = durable(&base, 4);
    assert_eq!(
        state(&first),
        state(&second),
        "recovery must be deterministic"
    );
    assert!(
        first.store().applied() <= full.1,
        "recovery cannot invent applied writes"
    );
    let _ = std::fs::remove_dir_all(&base);
}
