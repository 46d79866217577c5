//! Ballots and proposal values.

use core::fmt;
use irs_types::ProcessId;
use std::sync::Arc;

/// A totally ordered ballot (round) identifier for the consensus protocol.
///
/// Ballots are ordered first by attempt number, then by proposer id, so two
/// distinct processes can never issue the same ballot — the standard
/// Paxos-style construction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Ballot {
    /// Attempt number (starts at 1; 0 is the "no ballot yet" sentinel).
    pub attempt: u64,
    /// The proposer that owns the ballot.
    pub proposer: ProcessId,
}

impl Ballot {
    /// The "no ballot seen yet" sentinel, smaller than every real ballot.
    pub const ZERO: Ballot = Ballot {
        attempt: 0,
        proposer: ProcessId::new(0),
    };

    /// Creates a ballot.
    pub fn new(attempt: u64, proposer: ProcessId) -> Self {
        Ballot { attempt, proposer }
    }

    /// The next ballot owned by `proposer` that is strictly greater than
    /// `self` (regardless of who owns `self`).
    pub fn next_for(self, proposer: ProcessId) -> Ballot {
        Ballot {
            attempt: self.attempt + 1,
            proposer,
        }
    }

    /// Returns `true` for real ballots (attempt ≥ 1).
    pub fn is_real(self) -> bool {
        self.attempt > 0
    }

    /// The reign epoch carried in the high bits of the attempt number.
    ///
    /// A reign-scoped ballot (the phase-1-skip fast path of the replicated
    /// log) is the *first* attempt of an epoch: `attempt = epoch << 32`.
    /// Per-slot fallback ballots derived from it via [`Ballot::next_for`]
    /// stay inside the same epoch (the low 32 bits give over four billion
    /// retries per reign), so the first ballot of epoch `e + 1` is greater
    /// than every ballot — reign or fallback — of epoch `e`.
    pub fn reign_epoch(self) -> u64 {
        self.attempt >> REIGN_EPOCH_SHIFT
    }

    /// The first ballot of reign `epoch` owned by `proposer`.
    ///
    /// Epoch 0 is the legacy per-slot space (every ballot minted by
    /// [`Ballot::next_for`] from [`Ballot::ZERO`] lives there), so real
    /// reigns start at epoch 1.
    pub fn for_reign(epoch: u64, proposer: ProcessId) -> Ballot {
        Ballot {
            attempt: epoch << REIGN_EPOCH_SHIFT,
            proposer,
        }
    }
}

/// Bit position splitting [`Ballot::attempt`] into a reign epoch (high bits)
/// and a within-reign retry counter (low bits).
pub const REIGN_EPOCH_SHIFT: u32 = 32;

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.attempt, self.proposer)
    }
}

/// A proposal value.
///
/// Consensus is value-agnostic; the library fixes the value domain to a
/// 64-bit identifier that callers map to application data (a command id, a
/// log-entry hash, …). This keeps every message field of the protocol in a
/// finite, fixed-size domain, in the spirit of the paper's bounded-variable
/// design.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Value(pub u64);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The contract a type must satisfy to be replicated by the consensus
/// machinery.
///
/// Nothing here is protocol-specific: the ballot algorithm only ever clones
/// values, compares them for equality, and (for duplicate suppression in the
/// log) orders them. [`Value`] and [`Command`] both implement it; an
/// application with its own value domain implements the two methods below.
pub trait LogValue: Clone + Eq + Ord + fmt::Debug + Send + Sync + 'static {
    /// A 64-bit digest of the value, published through snapshot gauges
    /// (`decided_value`) so traces and experiments can identify decisions
    /// without knowing the value domain.
    fn gauge(&self) -> u64;

    /// An estimate of the wire size of the value in bytes, feeding the
    /// communication-cost accounting of the message enums that carry it.
    fn estimated_size(&self) -> usize;
}

impl LogValue for Value {
    fn gauge(&self) -> u64 {
        self.0
    }

    fn estimated_size(&self) -> usize {
        8
    }
}

impl LogValue for Command {
    /// FNV-1a over the command bytes: stable across processes, so identical
    /// decisions show identical gauges in every replica's snapshot.
    fn gauge(&self) -> u64 {
        irs_types::Fnv64::digest_of(self.bytes())
    }

    fn estimated_size(&self) -> usize {
        4 + self.len()
    }
}

/// Largest command a log entry may carry, in bytes.
///
/// Commands travel inside consensus messages inside wire frames; a bound far
/// below [`irs-net`'s] datagram payload limit keeps every `Accept`/`Promise`
/// (which may carry a previously accepted command) well inside one frame.
pub const MAX_COMMAND_LEN: usize = 1024;

/// A small, opaque byte command — the value domain of a replicated *state
/// machine* (as opposed to the bare 64-bit [`Value`] domain the Theorem 5
/// experiments use).
///
/// The consensus layer never interprets the bytes; the replicated service
/// above it (e.g. `irs-svc`'s key-value machine) defines the command
/// encoding. Cloning is cheap (`Arc`), because the ballot machinery clones
/// values freely.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Command(Arc<[u8]>);

impl Command {
    /// Wraps raw command bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds [`MAX_COMMAND_LEN`] — the caller encodes
    /// the command; an oversized command must be rejected at the service
    /// boundary, not truncated silently here.
    pub fn new(bytes: impl Into<Arc<[u8]>>) -> Self {
        let bytes = bytes.into();
        assert!(
            bytes.len() <= MAX_COMMAND_LEN,
            "command of {} bytes exceeds MAX_COMMAND_LEN",
            bytes.len()
        );
        Command(bytes)
    }

    /// The command bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the command in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty command.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cmd[{}B]", self.0.len())
    }
}

/// Most values one log slot may carry.
///
/// A count bound alone cannot keep a batch inside one wire frame
/// (64 × [`MAX_COMMAND_LEN`] already exceeds `irs-net`'s 60 KiB payload
/// cap), so the leader's drain additionally respects [`MAX_BATCH_BYTES`];
/// the two together keep every `Accept`/`Promise`/`Decide` well inside a
/// frame.
pub const MAX_BATCH_LEN: usize = 64;

/// Byte budget of one slot's batch, measured by the values'
/// [`LogValue::estimated_size`]. The leader stops draining values into a
/// slot once the batch would exceed this (the first value is always
/// admitted — a single value is bounded by its own domain limit, e.g.
/// [`MAX_COMMAND_LEN`]). Far enough under `irs-net`'s 60 KiB frame cap
/// that ballot framing and the `Promise` double-carry fit too.
pub const MAX_BATCH_BYTES: usize = 48 * 1024;

/// The value one log *slot* decides: an ordered, non-empty batch of unit
/// values.
///
/// Batching is how a leader amortises its stable "on" time (the pulsar's
/// duty cycle): one ballot round trip decides up to [`MAX_BATCH_LEN`]
/// submitted values at once instead of one. A batch of length 1 is
/// byte-for-byte the degenerate case, so `batch_max = 1` reproduces the
/// one-value-per-slot protocol exactly.
///
/// A batch is a shared slice: a clone — into an acceptance, a decision, an
/// outbound frame, the applier's cursor — bumps a reference count and
/// copies no value.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Batch<V = Value>(Arc<[V]>);

/// A batch of byte commands — the slot value of the replicated key-value
/// service (`irs-svc`).
pub type CommandBatch = Batch<Command>;

impl<V> Batch<V> {
    /// Wraps an ordered group of values as one slot value.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or longer than [`MAX_BATCH_LEN`] — a
    /// slot always decides at least one value, and the driving protocol
    /// never drains more than the bound.
    pub fn new(values: Vec<V>) -> Self {
        assert!(
            !values.is_empty(),
            "a slot batch carries at least one value"
        );
        assert!(
            values.len() <= MAX_BATCH_LEN,
            "batch of {} values exceeds MAX_BATCH_LEN",
            values.len()
        );
        Batch(values.into())
    }

    /// The single-value batch (the `batch_max = 1` path).
    pub fn one(v: V) -> Self {
        Batch(Arc::new([v]))
    }

    /// The values, in decided order.
    pub fn values(&self) -> &[V] {
        &self.0
    }

    /// Iterates the values in decided order.
    pub fn iter(&self) -> std::slice::Iter<'_, V> {
        self.0.iter()
    }

    /// Number of values in the batch (≥ 1).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Always `false`: a batch is non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl<V> From<V> for Batch<V> {
    fn from(v: V) -> Self {
        Batch::one(v)
    }
}

impl<'a, V> IntoIterator for &'a Batch<V> {
    type Item = &'a V;
    type IntoIter = std::slice::Iter<'a, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<V: LogValue> LogValue for Batch<V> {
    /// FNV-1a folded over the element gauges: stable across processes, so
    /// identical batch decisions show identical gauges everywhere.
    fn gauge(&self) -> u64 {
        let mut h = irs_types::Fnv64::new();
        for v in self.iter() {
            h.write(&v.gauge().to_le_bytes());
        }
        h.finish()
    }

    fn estimated_size(&self) -> usize {
        4 + self.0.iter().map(LogValue::estimated_size).sum::<usize>()
    }
}

impl<V: fmt::Display> fmt::Display for Batch<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch[{}]", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballots_order_by_attempt_then_proposer() {
        let a = Ballot::new(1, ProcessId::new(2));
        let b = Ballot::new(2, ProcessId::new(0));
        let c = Ballot::new(2, ProcessId::new(1));
        assert!(a < b);
        assert!(b < c);
        assert!(Ballot::ZERO < a);
        assert!(!Ballot::ZERO.is_real());
        assert!(a.is_real());
    }

    #[test]
    fn next_for_is_strictly_greater_and_owned() {
        let b = Ballot::new(3, ProcessId::new(1));
        let n = b.next_for(ProcessId::new(0));
        assert!(n > b);
        assert_eq!(n.proposer, ProcessId::new(0));
        assert_eq!(n.attempt, 4);
    }

    #[test]
    fn reign_epochs_dominate_within_epoch_retries() {
        let reign1 = Ballot::for_reign(1, ProcessId::new(2));
        assert_eq!(reign1.reign_epoch(), 1);
        assert_eq!(Ballot::ZERO.reign_epoch(), 0);
        // Legacy ballots (epoch 0) sit below every real reign.
        assert!(Ballot::new(u32::MAX as u64, ProcessId::new(4)) < reign1);
        // Per-slot retries derived from the reign ballot stay in its epoch…
        let retry = reign1.next_for(ProcessId::new(2));
        assert_eq!(retry.reign_epoch(), 1);
        assert!(retry > reign1);
        // …and the next epoch beats all of them.
        let reign2 = Ballot::for_reign(2, ProcessId::new(0));
        assert!(reign2 > retry);
        assert!(reign2 > reign1);
    }

    #[test]
    fn distinct_proposers_never_collide() {
        let x = Ballot::new(5, ProcessId::new(1));
        let y = Ballot::new(5, ProcessId::new(2));
        assert_ne!(x, y);
        assert!(x < y);
    }

    #[test]
    fn display() {
        assert_eq!(Ballot::new(2, ProcessId::new(0)).to_string(), "b2.p1");
        assert_eq!(Value(9).to_string(), "v9");
        assert_eq!(Command::new(vec![1u8, 2, 3]).to_string(), "cmd[3B]");
    }

    #[test]
    fn commands_compare_by_bytes() {
        let a = Command::new(vec![1u8, 2]);
        let b = Command::new(vec![1u8, 2]);
        let c = Command::new(vec![1u8, 3]);
        assert_eq!(a, b);
        assert!(a < c);
        assert_eq!(a.bytes(), &[1, 2]);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(Command::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "MAX_COMMAND_LEN")]
    fn oversized_commands_are_rejected() {
        let _ = Command::new(vec![0u8; MAX_COMMAND_LEN + 1]);
    }

    #[test]
    fn batches_wrap_order_and_compare_by_content() {
        let b = Batch::new(vec![Value(1), Value(2)]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.values(), &[Value(1), Value(2)]);
        let shared = b.clone();
        assert!(std::ptr::eq(shared.values(), b.values()), "a clone shares");
        assert_eq!(Batch::one(Value(1)), Batch::from(Value(1)));
        assert_ne!(b, Batch::new(vec![Value(2), Value(1)]), "order matters");
        assert_eq!(b.to_string(), "batch[2]");
        // The gauge is a pure function of the ordered contents.
        assert_eq!(b.gauge(), Batch::new(vec![Value(1), Value(2)]).gauge());
        assert_ne!(b.gauge(), Batch::one(Value(1)).gauge());
        assert!(b.estimated_size() >= 16);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_batches_are_rejected() {
        let _: Batch = Batch::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "MAX_BATCH_LEN")]
    fn oversized_batches_are_rejected() {
        let _ = Batch::new(vec![Value(0); MAX_BATCH_LEN + 1]);
    }
}
