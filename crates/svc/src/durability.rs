//! Crash-restart durability for one replica: WAL + snapshot files.
//!
//! [`Durability`] owns a replica's on-disk state — an [`irs_wal::Wal`] of
//! accepted ballots and decided slots plus an atomically written snapshot
//! file — and translates between the log's typed
//! [`LogEvent`]s and the WAL's byte-level records. The contract with
//! [`crate::SvcReplica`] is *persist-before-send*: the replica drains the
//! log's durability events and commits them here at the end of every turn
//! — a timer, a message, or a whole arrival burst (`Protocol::on_burst`) —
//! before the runtime releases the turn's outbound frames. A crash at any point then loses at most messages that
//! were never sent, so a restarted acceptor still honours every promise a
//! peer may have observed.
//!
//! On snapshot (interval compaction or a peer-served install) the WAL is
//! rotated: the snapshot blob is written first (tmp + rename), then the
//! log is rewritten to a [`WalRecord::SnapshotMark`] plus the live tail —
//! retained decisions and undecided acceptances — so recovery never
//! replays what the snapshot already covers and the WAL's size tracks the
//! live window, not history.

use irs_consensus::{Ballot, Batch, Command, LogEvent};
use irs_net::wire::decode_payload;
use irs_net::Wire;
use irs_wal::{FsyncPolicy, Wal, WalRecord, WAL_FILE};
use std::io;
use std::path::{Path, PathBuf};

/// The typed result of replaying one replica's data directory.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The durable snapshot, if one was completely written: `(upto, blob)`
    /// where the blob is a [`crate::KvStore::export`] covering all slots
    /// below `upto`.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Decided slots replayed from the WAL's valid prefix, in append order.
    pub decisions: Vec<(u64, Batch<Command>)>,
    /// Accepted `(slot, ballot, batch)` acceptor states, in append order
    /// (later acceptances for a slot supersede earlier ones).
    pub accepted: Vec<(u64, Ballot, Batch<Command>)>,
}

/// One replica's durable state: the WAL plus its data directory.
#[derive(Debug)]
pub struct Durability {
    wal: Wal,
    dir: PathBuf,
}

fn batch_bytes(batch: &Batch<Command>) -> Vec<u8> {
    let mut buf = Vec::new();
    batch.encode(&mut buf);
    buf
}

impl Durability {
    /// Opens (creating if absent) the data directory `dir`, replays the
    /// snapshot file and the WAL's valid prefix, and returns the typed
    /// recovered state alongside the writable WAL. A torn WAL tail is
    /// truncated in place; a missing or corrupt snapshot file reads as
    /// absent. A WAL record whose batch bytes fail to decode is dropped
    /// (its frame checksum passed, so this only guards against foreign
    /// files, not torn writes).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or opening the
    /// WAL file.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> io::Result<(Self, Recovered)> {
        std::fs::create_dir_all(dir)?;
        let snapshot = irs_wal::read_snapshot(dir);
        let (wal, records) = Wal::open(dir.join(WAL_FILE), policy)?;
        let mut recovered = Recovered {
            snapshot,
            ..Recovered::default()
        };
        for rec in records {
            match rec {
                WalRecord::Accept {
                    slot,
                    ballot,
                    batch,
                } => {
                    if let Ok(batch) = decode_payload::<Batch<Command>>(&batch) {
                        recovered.accepted.push((slot, ballot, batch));
                    }
                }
                WalRecord::Decide { slot, batch } => {
                    if let Ok(batch) = decode_payload::<Batch<Command>>(&batch) {
                        recovered.decisions.push((slot, batch));
                    }
                }
                // Rotation seeds start with a mark; recovery takes the
                // floor from the snapshot file itself.
                WalRecord::SnapshotMark { .. } => {}
            }
        }
        Ok((
            Durability {
                wal,
                dir: dir.to_path_buf(),
            },
            recovered,
        ))
    }

    /// Appends one handler round's durability events and commits them as a
    /// single group (one write, at most one fsync per the policy).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write or fsync.
    pub fn append_events(&mut self, events: &[LogEvent<Command>]) -> io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        for ev in events {
            // Each batch is encoded straight into the WAL's write buffer.
            match ev {
                LogEvent::Accepted {
                    slot,
                    ballot,
                    value,
                } => self
                    .wal
                    .append_batch(*slot, Some(*ballot), |buf| value.encode(buf)),
                LogEvent::Decided { slot, value } => {
                    self.wal.append_batch(*slot, None, |buf| value.encode(buf))
                }
            }
        }
        self.wal.commit()
    }

    /// Persists a snapshot at `upto` and rotates the WAL down to the live
    /// tail: the retained decisions and undecided acceptances the caller
    /// passes (everything else is covered by the blob). The snapshot file
    /// lands first — a crash between the two leaves a WAL that merely
    /// over-replays slots the snapshot already covers, which recovery
    /// filters out.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from either file.
    pub fn install_snapshot<'a>(
        &mut self,
        upto: u64,
        blob: &[u8],
        decisions: impl IntoIterator<Item = (u64, &'a Batch<Command>)>,
        accepted: impl IntoIterator<Item = (u64, Ballot, &'a Batch<Command>)>,
    ) -> io::Result<()> {
        irs_wal::write_snapshot(&self.dir, upto, blob)?;
        let mut seed = vec![WalRecord::SnapshotMark { upto }];
        for (slot, batch) in decisions {
            seed.push(WalRecord::Decide {
                slot,
                batch: batch_bytes(batch),
            });
        }
        for (slot, ballot, batch) in accepted {
            seed.push(WalRecord::Accept {
                slot,
                ballot,
                batch: batch_bytes(batch),
            });
        }
        self.wal.rotate(&seed)
    }

    /// Forces an fsync regardless of policy (used at clean shutdown).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the fsync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// The data directory this state lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records appended since open (gauge).
    pub fn appended(&self) -> u64 {
        self.wal.appended()
    }

    /// Mirrors WAL commit latency and batch sizes onto `registry`,
    /// recording on `shard` (the owning node's index).
    pub fn attach_obs(&mut self, registry: &irs_obs::Registry, shard: usize) {
        self.wal.attach_obs(registry, shard);
    }

    /// Fsyncs issued since open (gauge).
    pub fn syncs(&self) -> u64 {
        self.wal.syncs()
    }
}
