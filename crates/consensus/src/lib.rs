//! Ω-based indulgent consensus — Theorem 5 of the paper, executable.
//!
//! The last theorem of *From an intermittent rotating star to a leader*
//! combines the paper's Ω construction with the classical results of Chandra,
//! Hadzilacos and Toueg:
//!
//! > **Theorem 5.** The consensus problem can be solved in any
//! > message-passing asynchronous system that has (1) a majority of correct
//! > processes (`t < n/2`) and (2) an intermittent rotating t-star.
//!
//! This crate supplies the missing half of that composition: an *indulgent*,
//! leader-driven consensus protocol in the style of the Ω-based algorithms
//! the paper cites ([8, 12, 17] — Guerraoui–Raynal, Paxos,
//! Mostéfaoui–Raynal). Its safety rests only on quorum intersection
//! (`n − t > n/2`); the leader oracle is consulted solely to decide who may
//! start ballots, so an unstable oracle can delay but never corrupt the
//! decision.
//!
//! * [`PaxosInstance`] — the single-decree ballot machinery (proposer,
//!   acceptor, learner in one state object), independent of timing.
//! * [`ConsensusProcess`] — the sans-IO composition of a leader oracle
//!   (normally [`irs_omega::OmegaProcess`]) with a [`PaxosInstance`]; this is
//!   what runs under the simulator in the Theorem 5 experiments (E8).
//! * [`ReplicatedLog`] — repeated consensus on top of the same machinery: a
//!   totally ordered sequence of decided values (total-order broadcast), the
//!   application the paper's introduction motivates Ω with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ballot;
mod instance;
mod log;
mod process;

pub use ballot::{
    Ballot, Batch, Command, CommandBatch, LogValue, Value, MAX_BATCH_BYTES, MAX_BATCH_LEN,
    MAX_COMMAND_LEN, REIGN_EPOCH_SHIFT,
};
pub use instance::{PaxosInstance, PaxosMsg, PaxosSend};
pub use log::{
    snapshot_chunk_count, LogEvent, LogMsg, ReplicatedLog, CATCHUP_BATCH, CATCHUP_BYTES,
    MAX_SNAPSHOT_CHUNKS, NOTED_MAX, REIGN_REPORT_BYTES, REIGN_REPORT_MAX, SNAPSHOT_CHUNK_LEN,
    SNAPSHOT_CHUNK_WINDOW, TIMER_LOG_CHECK,
};
pub use process::{ConsensusConfig, ConsensusMsg, ConsensusProcess, TIMER_BALLOT_CHECK};
