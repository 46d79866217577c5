//! What the log puts on the wire and hands its host: [`LogMsg`], the
//! durability [`LogEvent`]s, and every bound a decoder or a handler applies
//! to input from outside (`irs-net`'s `wire_consensus` codec reads the same
//! constants).

use crate::{Ballot, Batch, LogValue, PaxosMsg, Value};
use irs_types::{RoundNum, RoundTagged};
use std::sync::Arc;

/// Most decided slots a single [`LogMsg::Catchup`] answer replays.
pub const CATCHUP_BATCH: u64 = 16;

/// Byte budget of a single [`LogMsg::Catchup`] answer's `Decide` replay,
/// measured by [`LogValue::estimated_size`]. With batched slots a count
/// bound alone would let one 9-byte request trigger
/// `CATCHUP_BATCH × MAX_BATCH_BYTES` (~768 KiB) of reply frames — a burst
/// big enough to overrun the socket buffers of exactly the lagging replica
/// it is meant to heal. The first decision is always replayed, so recovery
/// progresses even when single slots exceed the budget.
pub const CATCHUP_BYTES: usize = 64 * 1024;

/// Payload bytes per snapshot chunk — comfortably inside one wire frame
/// ([`irs-net`]'s payload cap is 60 KiB) with headers to spare.
pub const SNAPSHOT_CHUNK_LEN: usize = 32 * 1024;

/// How many chunk requests a pulling replica keeps in flight, and how many
/// chunks the serving side pushes unprompted to start a transfer.
pub const SNAPSHOT_CHUNK_WINDOW: u32 = 4;

/// Upper bound on a transfer's chunk count (128 MiB of state), so a
/// garbage `total` in a [`LogMsg::SnapshotChunk`] cannot trigger an
/// unbounded assembly-buffer allocation.
pub const MAX_SNAPSHOT_CHUNKS: u32 = 4096;

/// Number of chunks a snapshot of `len` bytes splits into (at least 1, so
/// `total` is never 0 on the wire).
pub fn snapshot_chunk_count(len: usize) -> u32 {
    len.max(1).div_ceil(SNAPSHOT_CHUNK_LEN) as u32
}

/// Most accepted-state reports one [`LogMsg::PromiseReign`] carries. An
/// acceptor holding more undecided acceptances than this refuses the reign
/// promise (an incomplete report would be unsafe), forcing the leader back
/// to per-slot ballots.
pub const REIGN_REPORT_MAX: usize = 64;

/// Byte budget of a [`LogMsg::PromiseReign`]'s reported batches, measured
/// by [`LogValue::estimated_size`] — keeps the reply inside one wire frame.
pub const REIGN_REPORT_BYTES: usize = 32 * 1024;

/// Most slots one [`LogMsg::AcceptNoting`] notes. The leader holds at most
/// `pipeline_depth` unannounced decisions, so this only binds a window
/// deeper than it (the excess is announced by plain `Decide`); on the wire
/// it bounds the range a receiver walks.
pub const NOTED_MAX: u64 = 64;

/// Message of the replicated log: either an oracle message or a consensus
/// message tagged with its log slot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogMsg<M, V = Value> {
    /// A message of the embedded Ω implementation.
    Omega(M),
    /// A consensus message for one log slot. Slots decide [`Batch`]es of
    /// values; a batch of length 1 is the unbatched case.
    Slot {
        /// The slot index (0-based).
        slot: u64,
        /// The consensus message.
        msg: PaxosMsg<Batch<V>>,
    },
    /// A value submitted at a non-leader replica, forwarded to the process it
    /// currently believes to be the leader.
    Forward {
        /// The forwarded value.
        v: V,
    },
    /// A lagging replica's request for the decided values from slot `from`
    /// upward. Answered with `Slot { …, Decide }` messages (at most
    /// [`CATCHUP_BATCH`] per request), preceded by the first window of
    /// [`LogMsg::SnapshotChunk`]s when `from` lies below the answering
    /// replica's compaction floor.
    Catchup {
        /// The requester's lowest undecided slot.
        from: u64,
    },
    /// An advertisement that the sender holds every slot below `upto` —
    /// as retained decisions, or behind its snapshot — and will serve them.
    /// A receiver whose frontier lies below `upto` answers with
    /// [`LogMsg::Catchup`], which the advertiser serves as a `Decide` replay
    /// or, from below its compaction floor, as a snapshot transfer; one
    /// whose frontier lies *above* `upto` answers with its own offer. Sent
    /// to a straggler whose ballot traffic addresses a compacted slot
    /// (per-slot replay is impossible there), and by an idle leader to
    /// everyone, once per check period — the only way a replica that lost
    /// both the `Accept` and the `Decide` of the last slot ever hears of it.
    SnapshotOffer {
        /// First slot the sender does *not* vouch for: its compaction
        /// floor, or (from an idle leader) its frontier.
        upto: u64,
    },
    /// A pulling replica's request for one chunk of the snapshot covering
    /// slots below `upto` (serve-repair style: the receiver drives the
    /// transfer, so a dropped chunk costs one re-request, not a restart).
    SnapshotChunkRequest {
        /// First slot *not* covered by the requested snapshot.
        upto: u64,
        /// Zero-based chunk index.
        chunk: u32,
    },
    /// One chunk of a snapshot, `SNAPSHOT_CHUNK_LEN`-sized except for the
    /// last. Carries the transfer geometry (`total`) and a per-chunk
    /// digest so a corrupted chunk is dropped (and later re-requested)
    /// instead of poisoning the assembled blob. The receiving log parks the
    /// assembled blob for its host to validate and apply (see the module
    /// docs).
    SnapshotChunk {
        /// First slot *not* covered by the snapshot.
        upto: u64,
        /// Zero-based chunk index.
        chunk: u32,
        /// Total number of chunks in this transfer.
        total: u32,
        /// FNV-1a digest of `data`.
        digest: u64,
        /// The chunk payload.
        data: Arc<[u8]>,
    },
    /// Reign-scoped phase-1a (the phase-1 skip): the leader asks every
    /// acceptor to promise ballot `b` for *all* slots `from` upward at
    /// once, instead of running a `Prepare` per slot.
    PrepareReign {
        /// The reign ballot (a fresh [`Ballot::reign_epoch`]).
        b: Ballot,
        /// First slot the reign covers (the leader's frontier).
        from: u64,
    },
    /// Reign-scoped phase-1b: one promise covering every slot ≥ `from`,
    /// carrying the acceptor's *complete* accepted state for those slots
    /// (bounded by [`REIGN_REPORT_MAX`]/[`REIGN_REPORT_BYTES`]; an acceptor
    /// that cannot report completely does not promise at all).
    PromiseReign {
        /// The promised reign ballot.
        b: Ballot,
        /// First covered slot, echoed from the prepare.
        from: u64,
        /// The acceptor's accepted `(slot, ballot, batch)` state ≥ `from`.
        accepted: Vec<(u64, Ballot, Batch<V>)>,
    },
    /// A reign `Accept` that also announces decisions: `Slot { slot, Accept
    /// { b, v } }` plus *the note* — the owner of `b` counted a vote quorum
    /// at `b` for every slot in `noted_from .. noted_from + noted_len` (one
    /// contiguous run, at most [`NOTED_MAX`]). A receiver that accepted one
    /// of those slots at exactly `b` thereby knows its batch was chosen; one
    /// that did not learns nothing from the note and asks the sender to
    /// replay. The note is believed only when `b.proposer` sent it.
    AcceptNoting {
        /// The slot the `Accept` opens.
        slot: u64,
        /// The reign ballot: of the `Accept`, and of every noted decision.
        b: Ballot,
        /// The batch proposed for `slot`.
        v: Batch<V>,
        /// First noted slot.
        noted_from: u64,
        /// Number of noted slots (≥ 1 as sent).
        noted_len: u64,
    },
}

impl<M: RoundTagged, V: LogValue> RoundTagged for LogMsg<M, V> {
    fn constrained_round(&self) -> Option<RoundNum> {
        match self {
            // The behavioural assumptions constrain only the oracle's ALIVE
            // traffic; the log's own frames are ordinary asynchronous ones.
            LogMsg::Omega(m) => m.constrained_round(),
            _ => None,
        }
    }

    fn estimated_size(&self) -> usize {
        const BALLOT: usize = 12;
        match self {
            LogMsg::Omega(m) => 1 + m.estimated_size(),
            LogMsg::Slot { msg, .. } => 1 + 8 + msg.estimated_size(),
            LogMsg::Forward { v } => 1 + v.estimated_size(),
            LogMsg::Catchup { .. } | LogMsg::SnapshotOffer { .. } => 1 + 8,
            LogMsg::SnapshotChunkRequest { .. } => 1 + 8 + 4,
            LogMsg::SnapshotChunk { data, .. } => 1 + 8 + 4 + 4 + 8 + 4 + data.len(),
            LogMsg::PrepareReign { .. } => 1 + BALLOT + 8,
            LogMsg::PromiseReign { accepted, .. } => {
                1 + BALLOT
                    + 8
                    + 4
                    + accepted
                        .iter()
                        .map(|(_, _, v)| 8 + BALLOT + v.estimated_size())
                        .sum::<usize>()
            }
            LogMsg::AcceptNoting { v, .. } => 1 + 8 + BALLOT + v.estimated_size() + 8 + 8,
        }
    }
}

/// A durability event: a state transition the host must make durable
/// *before* releasing the protocol messages of the event round that
/// produced it (the acceptor's vote, the client's ack). Recorded only
/// when [`ReplicatedLog::set_durable`](super::ReplicatedLog::set_durable)
/// enabled it; drained with
/// [`ReplicatedLog::take_wal_events`](super::ReplicatedLog::take_wal_events).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogEvent<V = Value> {
    /// This replica, as an acceptor, accepted `(ballot, value)` for `slot`.
    Accepted {
        /// The log slot.
        slot: u64,
        /// The accepted ballot.
        ballot: Ballot,
        /// The accepted batch.
        value: Batch<V>,
    },
    /// `slot` decided `value`.
    Decided {
        /// The log slot.
        slot: u64,
        /// The decided batch.
        value: Batch<V>,
    },
}
