//! Crash-restart durability for the replicated service: a write-ahead log
//! of consensus-critical events plus atomically written snapshot files.
//!
//! The paper's model lets a process blink out and return with its identity
//! intact; this crate supplies the persistence that makes such a restart
//! safe for the acceptor role. A replica records every *accepted ballot*
//! and every *decided slot* here before releasing the corresponding
//! protocol messages (votes, client acks), so a `kill -9` + restart cannot
//! un-promise a vote or drop an acked write.
//!
//! # Frame format
//!
//! The WAL is a flat sequence of length-prefixed, checksummed frames,
//! built on the same little-endian primitives as the network codec
//! (`irs_net::wire`):
//!
//! ```text
//! | len: u32 | checksum: u64 (FNV-1a of payload) | payload: len bytes |
//! ```
//!
//! The payload is a tagged [`WalRecord`]: `Accept { slot, ballot, batch }`,
//! `Decide { slot, batch }`, or `SnapshotMark { upto }`, where `batch` is
//! the already-wire-encoded value bytes (opaque to the WAL). Frames longer
//! than [`MAX_RECORD_LEN`] are rejected on write and treated as torn on
//! read, so a corrupt length prefix can never trigger an oversized
//! allocation.
//!
//! # Fsync policy
//!
//! Appends are buffered in memory; [`Wal::commit`] flushes them with a
//! single `write(2)` and then applies the [`FsyncPolicy`]. The intended
//! host pattern is *group commit*: append every record produced by one
//! event-loop round, then `commit()` once before releasing that round's
//! outbound messages — one write + at most one fsync per round, regardless
//! of how many slots the round touched.
//!
//! # Recovery invariants
//!
//! * **Torn tails are truncated, never propagated.** Replay stops at the
//!   first frame with a short body, an oversized length, a checksum
//!   mismatch, or an undecodable payload; [`Wal::open`] truncates the file
//!   there so the damage cannot resurface later.
//! * **Replay is deterministic.** The recovered record sequence is a pure
//!   function of the on-disk bytes ([`read_records_bytes`]), so the same
//!   bytes always rebuild the same state digest.
//! * **Snapshots are atomic.** [`write_snapshot`] writes a temp file,
//!   fsyncs it, and renames it over the live name; a crash mid-snapshot
//!   leaves the previous snapshot (or none) plus the un-rotated WAL, both
//!   of which recovery handles.
//! * **Records below the snapshot floor are inert.** After a rotation the
//!   WAL may still gain records for slots the snapshot already covers
//!   (drained late from the same event round); recovery filters by the
//!   snapshot's `upto`, so they are harmless.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use irs_consensus::Ballot;
use irs_net::wire::{decode_payload, put_bytes, put_u32, put_u64, Bytes, Wire, WireReader};
use irs_types::Fnv64;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one WAL frame's payload, far above any legal batch
/// (`MAX_BATCH_BYTES` is 48 KiB) so a garbage length prefix reads as torn
/// instead of allocating gigabytes.
pub const MAX_RECORD_LEN: usize = 256 * 1024;

/// File name of the write-ahead log inside a replica's data directory.
pub const WAL_FILE: &str = "wal.log";

/// File name of the snapshot inside a replica's data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const FRAME_HEADER: usize = 4 + 8;
const SNAPSHOT_MAGIC: &[u8; 4] = b"IRSN";

/// One durable event of the replicated log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalRecord {
    /// This replica, as an acceptor, accepted `(ballot, batch)` for `slot`.
    /// `batch` is the wire-encoded batch value, opaque to the WAL.
    Accept {
        /// The log slot.
        slot: u64,
        /// The accepted ballot.
        ballot: Ballot,
        /// Wire-encoded batch bytes.
        batch: Vec<u8>,
    },
    /// `slot` decided on `batch` (wire-encoded, opaque to the WAL).
    Decide {
        /// The log slot.
        slot: u64,
        /// Wire-encoded batch bytes.
        batch: Vec<u8>,
    },
    /// A snapshot covering every slot below `upto` was durably written;
    /// re-seeds a rotated WAL so the file is self-describing.
    SnapshotMark {
        /// First slot *not* covered by the snapshot.
        upto: u64,
    },
}

/// When [`Wal::commit`] issues an `fsync`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsyncPolicy {
    /// Fsync on every commit (group commit: one fsync per event round).
    /// The only policy that survives machine crashes; the default.
    Always,
    /// Fsync once at least this many records have accumulated since the
    /// last sync. Bounds loss to a record window; a throughput/durability
    /// trade-off knob for the E13 bench.
    EveryN(u32),
    /// Never fsync; rely on the OS page cache. Survives process crashes
    /// (`kill -9`) but not machine crashes.
    Never,
}

impl FsyncPolicy {
    /// Short human-readable name for bench tables.
    pub fn name(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".into(),
            FsyncPolicy::EveryN(n) => format!("every-{n}"),
            FsyncPolicy::Never => "never".into(),
        }
    }
}

irs_net::wire_table! {
    impl Wire for WalRecord {
        TAG_ACCEPT = 1 => Accept { slot, ballot, batch: Bytes<MAX_RECORD_LEN> },
        TAG_DECIDE = 2 => Decide { slot, batch: Bytes<MAX_RECORD_LEN> },
        TAG_SNAPSHOT_MARK = 3 => SnapshotMark { upto },
    }
}

/// Encodes one record as a full on-disk frame (`len | checksum | payload`).
///
/// Public so tests can compute exact frame boundaries when exercising
/// torn-tail truncation.
pub fn encode_frame(rec: &WalRecord) -> Vec<u8> {
    let mut frame = Vec::new();
    push_frame(&mut frame, |buf| rec.encode(buf));
    frame
}

/// Appends one frame to `buf`, its payload written by `payload` straight
/// behind the header, which is filled in afterwards.
fn push_frame(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; FRAME_HEADER]);
    payload(buf);
    let len = buf.len() - start - FRAME_HEADER;
    assert!(
        len <= MAX_RECORD_LEN,
        "WAL record of {len} bytes exceeds MAX_RECORD_LEN"
    );
    let sum = Fnv64::digest_of(&buf[start + FRAME_HEADER..]);
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[start + 4..start + FRAME_HEADER].copy_from_slice(&sum.to_le_bytes());
}

/// Replays the longest valid frame prefix of `bytes`.
///
/// Returns the decoded records and the byte length of the valid prefix.
/// Replay stops — without error — at the first short, oversized,
/// checksum-mismatched, or undecodable frame; everything from that offset
/// on is a torn tail the caller should truncate.
///
/// This function is the deterministic core of recovery: same bytes in,
/// same records (and hence same rebuilt state digest) out.
pub fn read_records_bytes(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut r = WireReader::new(bytes);
    let mut records = Vec::new();
    let mut valid = 0;
    while let Some(rec) = next_record(&mut r) {
        records.push(rec);
        valid = bytes.len() - r.remaining();
    }
    (records, valid)
}

/// Reads one frame: `None` when it is short, oversized, checksum-mismatched
/// or undecodable.
fn next_record(r: &mut WireReader<'_>) -> Option<WalRecord> {
    let len = r.len_at_most(MAX_RECORD_LEN).ok()?;
    let sum = r.u64().ok()?;
    let payload = r.take(len).ok()?;
    if Fnv64::digest_of(payload) != sum {
        return None;
    }
    decode_payload(payload).ok()
}

/// A fsync-batched write-ahead log backed by one append-only file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Frames appended but not yet written to the file.
    buf: Vec<u8>,
    /// Records appended since the last fsync (for [`FsyncPolicy::EveryN`]).
    unsynced: u32,
    /// Records appended since the last commit (the group-commit batch size).
    batch_records: u32,
    appended: u64,
    syncs: u64,
    /// Optional registry hooks: (commit latency µs, records per commit).
    obs: Option<(irs_obs::HistHandle, irs_obs::HistHandle, usize)>,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, replays its valid prefix, and
    /// truncates any torn tail in place.
    ///
    /// Returns the log handle positioned for appending plus the replayed
    /// records.
    pub fn open(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> std::io::Result<(Wal, Vec<WalRecord>)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid) = read_records_bytes(&bytes);
        if valid < bytes.len() {
            // Torn tail: cut it off so it can never be mistaken for data.
            file.set_len(valid as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid as u64))?;
        Ok((
            Wal {
                file,
                path,
                policy,
                buf: Vec::new(),
                unsynced: 0,
                batch_records: 0,
                appended: 0,
                syncs: 0,
                obs: None,
            },
            records,
        ))
    }

    /// Buffers one record for the next [`commit`](Wal::commit).
    pub fn append(&mut self, rec: &WalRecord) {
        push_frame(&mut self.buf, |buf| rec.encode(buf));
        self.count_append();
    }

    /// Buffers the record [`append`](Wal::append) would write for an
    /// `Accept { slot, ballot, batch }` (`ballot` given) or a
    /// `Decide { slot, batch }`, with `encode_batch` writing the batch bytes
    /// straight into the frame instead of into a `Vec` of their own.
    pub fn append_batch(
        &mut self,
        slot: u64,
        ballot: Option<Ballot>,
        encode_batch: impl FnOnce(&mut Vec<u8>),
    ) {
        push_frame(&mut self.buf, |buf| {
            buf.push(if ballot.is_some() {
                TAG_ACCEPT
            } else {
                TAG_DECIDE
            });
            slot.encode(buf);
            if let Some(ballot) = ballot {
                ballot.encode(buf);
            }
            let len_at = buf.len();
            put_u32(buf, 0);
            encode_batch(buf);
            let len = (buf.len() - len_at - 4) as u32;
            buf[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
        });
        self.count_append();
    }

    fn count_append(&mut self) {
        self.unsynced += 1;
        self.batch_records += 1;
        self.appended += 1;
    }

    /// Mirrors commit latency and group-commit batch sizes onto `registry`
    /// ([`irs_obs::names::WAL_COMMIT_MICROS`] /
    /// [`irs_obs::names::WAL_BATCH_RECORDS`]), recording on `shard` —
    /// pass the owning node's index so concurrent replicas do not contend
    /// on one cache line.
    pub fn attach_obs(&mut self, registry: &irs_obs::Registry, shard: usize) {
        self.obs = Some((
            registry.histogram(irs_obs::names::WAL_COMMIT_MICROS),
            registry.histogram(irs_obs::names::WAL_BATCH_RECORDS),
            shard,
        ));
    }

    /// Writes all buffered records with a single `write(2)` and fsyncs
    /// according to the policy. Call once per event round (group commit),
    /// *before* releasing the round's outbound messages.
    pub fn commit(&mut self) -> std::io::Result<()> {
        let started = self.obs.as_ref().map(|_| std::time::Instant::now());
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        let due = match self.policy {
            FsyncPolicy::Always => self.unsynced > 0,
            FsyncPolicy::EveryN(n) => self.unsynced >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        let batch = std::mem::take(&mut self.batch_records);
        if let (Some((latency, sizes, shard)), Some(t0)) = (&self.obs, started) {
            if batch > 0 {
                latency.record(*shard, t0.elapsed().as_micros() as u64);
                sizes.record(*shard, u64::from(batch));
            }
        }
        Ok(())
    }

    /// Forces buffered records to disk with an fsync, regardless of policy.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.file.sync_data()?;
        self.unsynced = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Replaces the WAL's contents with `records`, atomically (temp file +
    /// rename), and keeps appending to the new file.
    ///
    /// Called after a snapshot is durably written: the snapshot plus
    /// `records` (the still-live tail: retained decisions and undecided
    /// accepted ballots, headed by a [`WalRecord::SnapshotMark`]) supersede
    /// the old log, bounding WAL growth to one snapshot interval plus the
    /// pipeline window. Unflushed buffered records are discarded — the
    /// caller passes the *current* full live state, which subsumes them.
    pub fn rotate(&mut self, records: &[WalRecord]) -> std::io::Result<()> {
        let tmp = self.path.with_extension("log.tmp");
        let mut bytes = Vec::new();
        for rec in records {
            push_frame(&mut bytes, |buf| rec.encode(buf));
        }
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path);
        f.seek(SeekFrom::End(0))?;
        self.file = f;
        self.buf.clear();
        self.unsynced = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Total records appended (including buffered and rotated-away ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Number of fsyncs issued so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

impl Drop for Wal {
    /// Best-effort final flush so a clean shutdown loses nothing even
    /// under [`FsyncPolicy::Never`].
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

fn sync_parent_dir(path: &Path) {
    // Persist the rename itself. Directory fsync is Linux-specific
    // belt-and-braces; failure here is not actionable, so best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Atomically writes the snapshot file for `dir`:
/// `IRSN | upto u64 | len u32 | blob | FNV-1a(blob) u64`, via temp file +
/// fsync + rename, so a crash at any point leaves either the old snapshot
/// or the new one — never a mix.
pub fn write_snapshot(dir: &Path, upto: u64, blob: &[u8]) -> std::io::Result<()> {
    let live = dir.join(SNAPSHOT_FILE);
    let tmp = dir.join("snapshot.bin.tmp");
    let mut bytes = Vec::with_capacity(4 + 8 + 4 + blob.len() + 8);
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    put_u64(&mut bytes, upto);
    put_bytes(&mut bytes, blob);
    put_u64(&mut bytes, Fnv64::digest_of(blob));
    let mut f = File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, &live)?;
    sync_parent_dir(&live);
    Ok(())
}

/// Reads and validates the snapshot file in `dir`.
///
/// Returns `None` when the file is absent or fails validation (bad magic,
/// short body, checksum mismatch) — thanks to the atomic write protocol a
/// failed validation means garbage, not a half-new snapshot, so treating
/// it as absent is safe: the WAL still holds the state.
pub fn read_snapshot(dir: &Path) -> Option<(u64, Vec<u8>)> {
    let bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).ok()?;
    let mut r = WireReader::new(&bytes);
    if r.take(4).ok()? != SNAPSHOT_MAGIC {
        return None;
    }
    let upto = r.u64().ok()?;
    let blob = r.bytes(usize::MAX).ok()?;
    let sum = r.u64().ok()?;
    r.finish().ok()?;
    (Fnv64::digest_of(blob) == sum).then(|| (upto, blob.to_vec()))
}

// A name the tests below use from this module's scope.
#[cfg(test)]
use irs_types::ProcessId;

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("irs-wal-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::SnapshotMark { upto: 0 },
            WalRecord::Accept {
                slot: 3,
                ballot: Ballot::new(2, ProcessId::new(1)),
                batch: vec![9, 8, 7],
            },
            WalRecord::Decide {
                slot: 3,
                batch: vec![9, 8, 7],
            },
            WalRecord::Decide {
                slot: 4,
                batch: vec![],
            },
        ]
    }

    #[test]
    fn frames_roundtrip_through_bytes() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_frame(r));
        }
        let (back, valid) = read_records_bytes(&bytes);
        assert_eq!(back, records);
        assert_eq!(valid, bytes.len());
    }

    /// One frozen on-disk frame per record tag.
    #[test]
    fn golden_vectors_pin_every_record_tag() {
        let golden = [
            (
                WalRecord::Accept {
                    slot: 3,
                    ballot: Ballot::new(0x0102, ProcessId::new(1)),
                    batch: vec![0xAA, 0xBB],
                },
                "1b0000004ee8f57807491ad501030000000000000002010000000000000100000002000000aabb",
            ),
            (
                WalRecord::Decide {
                    slot: 4,
                    batch: vec![0xCC],
                },
                "0e000000440d5efc6053624402040000000000000001000000cc",
            ),
            (
                WalRecord::SnapshotMark { upto: 5 },
                "090000007792d7efc4ba5414030500000000000000",
            ),
        ];
        for (rec, want) in golden {
            let frame = encode_frame(&rec);
            let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "{rec:?}");
            assert_eq!(read_records_bytes(&frame), (vec![rec], frame.len()));
        }
    }

    #[test]
    fn append_commit_reopen_replays_everything() {
        let dir = tmpdir("replay");
        let path = dir.join(WAL_FILE);
        let (mut wal, replayed) = Wal::open(&path, FsyncPolicy::Always).expect("open");
        assert!(replayed.is_empty());
        for r in sample_records() {
            wal.append(&r);
        }
        wal.commit().expect("commit");
        assert_eq!(wal.appended(), 4);
        assert_eq!(wal.syncs(), 1);
        drop(wal);
        let (_, replayed) = Wal::open(&path, FsyncPolicy::Always).expect("reopen");
        assert_eq!(replayed, sample_records());
    }

    /// A batch record encoded in place is byte for byte the record
    /// `append` writes for the same bytes.
    #[test]
    fn append_batch_writes_the_bytes_append_writes() {
        let dir = tmpdir("inplace");
        let (mut owned, _) = Wal::open(dir.join("owned.log"), FsyncPolicy::Never).expect("open");
        let (mut inplace, _) =
            Wal::open(dir.join("inplace.log"), FsyncPolicy::Never).expect("open");
        for r in sample_records() {
            owned.append(&r);
            match r {
                WalRecord::Accept {
                    slot,
                    ballot,
                    batch,
                } => inplace.append_batch(slot, Some(ballot), |buf| buf.extend(&batch)),
                WalRecord::Decide { slot, batch } => {
                    inplace.append_batch(slot, None, |buf| buf.extend(&batch))
                }
                other => inplace.append(&other),
            }
        }
        owned.commit().expect("commit");
        inplace.commit().expect("commit");
        assert_eq!(owned.appended(), inplace.appended());
        drop((owned, inplace));
        let read = |name: &str| std::fs::read(dir.join(name)).expect("read");
        assert_eq!(read("owned.log"), read("inplace.log"));
    }

    #[test]
    fn torn_tail_is_truncated_on_open_and_stays_gone() {
        let dir = tmpdir("torn");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Always).expect("open");
        for r in sample_records() {
            wal.append(&r);
        }
        wal.commit().expect("commit");
        drop(wal);
        let clean_len = std::fs::metadata(&path).expect("meta").len();
        // A torn write: half a frame of a fifth record.
        let tail = encode_frame(&WalRecord::Decide {
            slot: 5,
            batch: vec![1; 40],
        });
        let mut f = OpenOptions::new().append(true).open(&path).expect("append");
        f.write_all(&tail[..tail.len() / 2]).expect("torn write");
        drop(f);
        let (_, replayed) = Wal::open(&path, FsyncPolicy::Always).expect("reopen");
        assert_eq!(replayed, sample_records(), "torn frame must not replay");
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            clean_len,
            "torn tail must be truncated off the file"
        );
    }

    #[test]
    fn checksum_flip_stops_replay_at_the_bad_frame() {
        let records = sample_records();
        let mut bytes = Vec::new();
        let mut offsets = Vec::new();
        for r in &records {
            offsets.push(bytes.len());
            bytes.extend_from_slice(&encode_frame(r));
        }
        // Flip one payload byte of the third frame.
        let mut corrupt = bytes.clone();
        corrupt[offsets[2] + FRAME_HEADER] ^= 0xFF;
        let (back, valid) = read_records_bytes(&corrupt);
        assert_eq!(back, records[..2].to_vec());
        assert_eq!(valid, offsets[2]);
    }

    #[test]
    fn oversized_length_prefix_reads_as_torn() {
        let mut bytes = encode_frame(&WalRecord::SnapshotMark { upto: 7 });
        let mut garbage = vec![0u8; FRAME_HEADER];
        garbage[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let cut = bytes.len();
        bytes.extend_from_slice(&garbage);
        let (back, valid) = read_records_bytes(&bytes);
        assert_eq!(back, vec![WalRecord::SnapshotMark { upto: 7 }]);
        assert_eq!(valid, cut);
    }

    #[test]
    fn rotation_replaces_contents_and_appends_continue() {
        let dir = tmpdir("rotate");
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Always).expect("open");
        for r in sample_records() {
            wal.append(&r);
        }
        wal.commit().expect("commit");
        let live = vec![
            WalRecord::SnapshotMark { upto: 4 },
            WalRecord::Decide {
                slot: 4,
                batch: vec![],
            },
        ];
        wal.rotate(&live).expect("rotate");
        wal.append(&WalRecord::Decide {
            slot: 5,
            batch: vec![2],
        });
        wal.commit().expect("commit post-rotate");
        drop(wal);
        let (_, replayed) = Wal::open(&path, FsyncPolicy::Always).expect("reopen");
        let mut expect = live;
        expect.push(WalRecord::Decide {
            slot: 5,
            batch: vec![2],
        });
        assert_eq!(replayed, expect);
    }

    #[test]
    fn every_n_policy_batches_fsyncs() {
        let dir = tmpdir("fsync-n");
        let (mut wal, _) = Wal::open(dir.join(WAL_FILE), FsyncPolicy::EveryN(3)).expect("open");
        for i in 0..2 {
            wal.append(&WalRecord::SnapshotMark { upto: i });
            wal.commit().expect("commit");
        }
        assert_eq!(wal.syncs(), 0, "below the batch threshold");
        wal.append(&WalRecord::SnapshotMark { upto: 2 });
        wal.commit().expect("commit");
        assert_eq!(wal.syncs(), 1, "threshold reached");
        wal.append(&WalRecord::SnapshotMark { upto: 3 });
        wal.commit().expect("commit");
        assert_eq!(wal.syncs(), 1, "counter reset after sync");
    }

    #[test]
    fn snapshot_roundtrips_and_garbage_reads_as_absent() {
        let dir = tmpdir("snap");
        assert_eq!(read_snapshot(&dir), None);
        write_snapshot(&dir, 17, b"state blob").expect("write snapshot");
        assert_eq!(read_snapshot(&dir), Some((17, b"state blob".to_vec())));
        // A crash mid-write leaves only the temp file; the live name still
        // reads as the old snapshot.
        std::fs::write(dir.join("snapshot.bin.tmp"), b"half written garbage").expect("tmp");
        assert_eq!(read_snapshot(&dir), Some((17, b"state blob".to_vec())));
        // Corrupting the live file reads as absent, never as partial data.
        let mut bytes = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(dir.join(SNAPSHOT_FILE), &bytes).expect("corrupt");
        assert_eq!(read_snapshot(&dir), None);
    }
}
