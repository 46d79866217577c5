//! The client path: leader discovery, redirect handling, seeded
//! retry/backoff.
//!
//! A [`SvcClient`] owns one transport endpoint (id ≥ `n`, outside the
//! replica group) and speaks the request/reply protocol of [`SvcMsg`]. It
//! starts by assuming `p1` leads (the all-zero initial Ω state elects the
//! smallest id, so this is the right first guess), follows
//! [`SvcReply::Redirect`]s, and on silence retries with seeded exponential
//! backoff while rotating its leader hint — which is exactly what rides out
//! a crashed or dark leader mid-load.

use crate::command::{KvOp, KvWrite, MAX_KEY_LEN, MAX_VALUE_LEN};
use crate::msg::{ReadTier, SvcMsg, SvcReply};
use irs_net::{wire::decode_payload, Transport, Wire};
use irs_sim::SimRng;
use irs_types::ProcessId;
use std::time::{Duration as StdDuration, Instant};

/// First per-attempt wait before a request is retried.
const BASE_RETRY: StdDuration = StdDuration::from_millis(30);
/// Cap on the exponential backoff.
const MAX_RETRY: StdDuration = StdDuration::from_millis(400);
/// Consecutive redirects an attempt follows before treating the cluster as
/// unstable and falling back to the rotate-and-back-off path. During a
/// re-election two replicas can transiently point at each other; without a
/// cap the client would ping-pong requests between them at link speed for
/// the whole deadline.
const MAX_REDIRECT_STREAK: u32 = 4;

/// Why a client call failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientError {
    /// No ack arrived within the caller's deadline (the command may still
    /// land in the log — sequence numbers make a later retry idempotent).
    TimedOut,
    /// The transport can no longer send or receive at all.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::TimedOut => write!(f, "request timed out"),
            ClientError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Counters a client accumulates across calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests acknowledged.
    pub acked: u64,
    /// Redirects followed.
    pub redirects: u64,
    /// Timed-out attempts that were retried.
    pub retries: u64,
    /// Calls that exhausted their deadline.
    pub failures: u64,
}

/// A connected client of the replicated KV service.
#[derive(Debug)]
pub struct SvcClient<T> {
    id: ProcessId,
    n: usize,
    transport: T,
    hint: ProcessId,
    seq: u64,
    rng: SimRng,
    /// Accumulated call statistics.
    pub stats: ClientStats,
    scratch: Vec<u8>,
}

impl<T: Transport> SvcClient<T> {
    /// Wraps a transport endpoint as a client. `id` is the endpoint's own
    /// id (≥ `n`); `n` is the replica count; `seed` drives retry jitter and
    /// hint rotation.
    pub fn new(id: ProcessId, n: usize, transport: T, seed: u64) -> Self {
        assert!(id.index() >= n, "client ids live beyond the replica group");
        SvcClient {
            id,
            n,
            transport,
            hint: ProcessId::new(0),
            seq: 0,
            rng: SimRng::from_seed(seed),
            stats: ClientStats::default(),
            scratch: Vec::new(),
        }
    }

    /// This client's endpoint id (doubles as its logical client id).
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The logical client id used in command headers.
    pub fn client_id(&self) -> u64 {
        u64::from(self.id.as_u32())
    }

    /// The replica currently believed to lead.
    pub fn leader_hint(&self) -> ProcessId {
        self.hint
    }

    /// Next sequence number (what the next write will carry).
    pub fn next_seq(&self) -> u64 {
        self.seq + 1
    }

    /// Rotates the leader hint to a seeded pseudo-random replica other
    /// than the current one (used after silence and after a useless
    /// redirect — resending to the same confused replica wastes a trip).
    fn rotate_hint(&mut self) {
        let next = self.rng.index(self.n);
        self.hint = if ProcessId::new(next as u32) == self.hint {
            ProcessId::new(((next + 1) % self.n) as u32)
        } else {
            ProcessId::new(next as u32)
        };
    }

    /// Binds `key` to `value`, blocking until the write is acknowledged as
    /// applied or `deadline` elapses. Returns the log slot of the write.
    ///
    /// # Errors
    ///
    /// [`ClientError::TimedOut`] when no ack arrived in time,
    /// [`ClientError::Closed`] when the transport is gone.
    ///
    /// # Panics
    ///
    /// Panics if the key or value exceeds the service bounds
    /// ([`MAX_KEY_LEN`], [`MAX_VALUE_LEN`]).
    pub fn put(
        &mut self,
        key: &[u8],
        value: &[u8],
        deadline: StdDuration,
    ) -> Result<u64, ClientError> {
        assert!(key.len() <= MAX_KEY_LEN, "key too long");
        assert!(value.len() <= MAX_VALUE_LEN, "value too long");
        self.execute(
            KvOp::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
            deadline,
        )
    }

    /// Removes `key`, blocking like [`SvcClient::put`].
    ///
    /// # Errors
    ///
    /// See [`SvcClient::put`].
    ///
    /// # Panics
    ///
    /// Panics if the key exceeds [`MAX_KEY_LEN`].
    pub fn delete(&mut self, key: &[u8], deadline: StdDuration) -> Result<u64, ClientError> {
        assert!(key.len() <= MAX_KEY_LEN, "key too long");
        self.execute(KvOp::Del { key: key.to_vec() }, deadline)
    }

    /// Reads `key` at the chosen consistency tier, blocking until a value
    /// reply arrives or `deadline` elapses. Returns the binding (`None`
    /// when the key is unbound) plus the answering replica's apply
    /// frontier — the staleness witness.
    ///
    /// Linearizable tiers ([`ReadTier::Lease`], [`ReadTier::ReadIndex`])
    /// follow redirects to the leader like writes do; [`ReadTier::Stale`]
    /// is answered by whichever replica the request lands on.
    ///
    /// # Errors
    ///
    /// [`ClientError::TimedOut`] when no reply arrived in time,
    /// [`ClientError::Closed`] when the transport is gone.
    ///
    /// # Panics
    ///
    /// Panics if the key exceeds [`MAX_KEY_LEN`].
    pub fn get(
        &mut self,
        key: &[u8],
        tier: ReadTier,
        deadline: StdDuration,
    ) -> Result<(Option<Vec<u8>>, u64), ClientError> {
        assert!(key.len() <= MAX_KEY_LEN, "key too long");
        let rid = self.alloc_seq();
        let msg = SvcMsg::Read {
            client: self.client_id(),
            rid,
            key: key.to_vec(),
            tier,
        };
        match self.call(&msg, rid, deadline)? {
            ReplyOutcome::Value { value, frontier } => Ok((value, frontier)),
            _ => unreachable!("a read's call ends on a value"),
        }
    }

    /// Runs one write through the redirect/retry protocol.
    fn execute(&mut self, op: KvOp, deadline: StdDuration) -> Result<u64, ClientError> {
        let write = KvWrite {
            client: self.client_id(),
            seq: self.alloc_seq(),
            op,
        };
        let msg = SvcMsg::Request {
            cmd: write.encode(),
        };
        match self.call(&msg, write.seq, deadline)? {
            ReplyOutcome::Applied { slot } => Ok(slot),
            _ => unreachable!("a write's call ends on an ack"),
        }
    }

    /// Sends `msg` — built once, resent as is — until the reply that
    /// answers it (a value for a read, an ack for anything else) arrives
    /// under `seq`, or `deadline` elapses.
    fn call(
        &mut self,
        msg: &SvcMsg,
        seq: u64,
        deadline: StdDuration,
    ) -> Result<ReplyOutcome, ClientError> {
        let wants_value = matches!(msg, SvcMsg::Read { .. });
        let overall = Instant::now() + deadline;
        let mut attempt_wait = BASE_RETRY;
        let mut redirect_streak = 0u32;
        loop {
            if Instant::now() >= overall {
                self.stats.failures += 1;
                return Err(ClientError::TimedOut);
            }
            self.send_msg(msg)?;
            let attempt_deadline = (Instant::now() + attempt_wait).min(overall);
            match self.await_reply(seq, attempt_deadline)? {
                Some(ReplyOutcome::Redirected) if redirect_streak < MAX_REDIRECT_STREAK => {
                    // Follow the redirect immediately; a fresh hint is not a
                    // retry. A long streak of redirects, though, means the
                    // replicas disagree about the leader — fall through to
                    // the backoff path instead of ping-ponging at link speed.
                    redirect_streak += 1;
                    continue;
                }
                Some(ReplyOutcome::Redirected) | None => {}
                Some(outcome) => {
                    if matches!(outcome, ReplyOutcome::Value { .. }) == wants_value {
                        self.stats.acked += 1;
                        return Ok(outcome);
                    }
                    // A reply of the other kind under this seq cannot happen
                    // (writes and reads draw from one seq space); treat it
                    // as silence.
                }
            }
            redirect_streak = 0;
            if Instant::now() >= overall {
                self.stats.failures += 1;
                return Err(ClientError::TimedOut);
            }
            // Silence: the hinted replica is slow, dark or dead. Rotate the
            // hint pseudo-randomly (seeded) and back off with jitter.
            self.stats.retries += 1;
            self.rotate_hint();
            let jitter_unit = self.rng.range_u64(0..1000);
            let jitter = attempt_wait.mul_f64(0.5 * jitter_unit as f64 / 1000.0);
            let sleep = (attempt_wait / 2 + jitter).min(
                overall
                    .saturating_duration_since(Instant::now())
                    .max(StdDuration::from_millis(1)),
            );
            std::thread::sleep(sleep);
            attempt_wait = (attempt_wait * 2).min(MAX_RETRY);
        }
    }

    /// Sends one already-built service message to the current hint.
    fn send_msg(&mut self, msg: &SvcMsg) -> Result<(), ClientError> {
        self.scratch.clear();
        let mut scratch = std::mem::take(&mut self.scratch);
        msg.encode(&mut scratch);
        let result = self.transport.send(self.id, self.hint, &scratch);
        self.scratch = scratch;
        match result {
            Ok(()) => Ok(()),
            // Routing/IO failures to one replica are that replica's
            // problem; the retry loop rotates away from it.
            Err(irs_net::NetError::Closed) => Err(ClientError::Closed),
            Err(_) => Ok(()),
        }
    }

    /// Waits for a reply to `seq` until `deadline`. `Ok(None)` on silence.
    fn await_reply(
        &mut self,
        seq: u64,
        deadline: Instant,
    ) -> Result<Option<ReplyOutcome>, ClientError> {
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            let frame = match self.transport.recv(remaining) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(None),
                Err(_) => return Err(ClientError::Closed),
            };
            match self.digest_frame(&frame) {
                Some((got, outcome)) if got == seq => return Ok(Some(outcome)),
                _ => continue, // stale or foreign; keep waiting
            }
        }
    }

    /// Allocates the next sequence number (the open-loop path builds its
    /// own [`KvWrite`]s so it can resend them on redirects).
    pub(crate) fn alloc_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Sends one write without waiting for the reply (the open-loop path).
    pub(crate) fn send_write(&mut self, w: &KvWrite) -> Result<(), ClientError> {
        self.send_msg(&SvcMsg::Request { cmd: w.encode() })
    }

    /// Receives at most one reply event within `timeout` (the open-loop
    /// path). Redirect events update the hint; the caller decides whether
    /// to resend.
    pub(crate) fn poll_event(
        &mut self,
        timeout: StdDuration,
    ) -> Result<Option<(u64, ReplyOutcome)>, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let frame = match self.transport.recv(remaining) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Ok(None),
                Err(_) => return Err(ClientError::Closed),
            };
            if let Some(event) = self.digest_frame(&frame) {
                return Ok(Some(event));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
        }
    }

    /// Interprets one received frame: the matched sequence number plus what
    /// the reply meant. Redirects update the leader hint as a side effect.
    fn digest_frame(&mut self, frame: &irs_net::Frame) -> Option<(u64, ReplyOutcome)> {
        if frame.to != self.id {
            return None;
        }
        let msg = decode_payload::<SvcMsg>(&frame.payload).ok()?;
        match msg {
            SvcMsg::Reply(SvcReply::Applied { client, seq, slot })
                if client == self.client_id() =>
            {
                Some((seq, ReplyOutcome::Applied { slot }))
            }
            SvcMsg::Reply(SvcReply::Redirect {
                client,
                seq,
                leader,
            }) if client == self.client_id() => {
                self.stats.redirects += 1;
                if leader == self.hint || leader.index() >= self.n {
                    // A replica redirecting to itself (or nowhere useful)
                    // is still unstable; rotate instead of looping.
                    self.rotate_hint();
                } else {
                    self.hint = leader;
                }
                Some((seq, ReplyOutcome::Redirected))
            }
            SvcMsg::Reply(SvcReply::Value {
                client,
                rid,
                value,
                frontier,
            }) if client == self.client_id() => {
                Some((rid, ReplyOutcome::Value { value, frontier }))
            }
            _ => None,
        }
    }
}

/// What a reply meant for the outstanding request.
#[derive(Clone, Debug)]
pub(crate) enum ReplyOutcome {
    /// Acked: decided and applied at the answering replica.
    Applied {
        /// The log slot.
        slot: u64,
    },
    /// The hint changed; resend to the new hint.
    Redirected,
    /// A read answered with the key's binding and the apply frontier.
    Value {
        /// The binding (`None` = unbound).
        value: Option<Vec<u8>>,
        /// The answering replica's apply frontier.
        frontier: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_net::{MemNetwork, MemTransport};
    use std::time::Instant;

    /// The per-operation deadline is a hard total budget: against a cluster
    /// that never answers (here: three replica endpoints nobody serves —
    /// the fully-partitioned limit), a call returns `TimedOut` shortly after
    /// the budget instead of hanging a loadgen thread forever, and every
    /// retry/rotation stays inside it.
    fn times_out_against_an_unresponsive_cluster(
        op: impl FnOnce(&mut SvcClient<MemTransport>, StdDuration) -> Result<(), ClientError>,
    ) {
        let n = 3;
        let mut mesh = MemNetwork::mesh(n + 1);
        let ep = mesh.remove(n); // replica endpoints in `mesh` are never read
        let mut client = SvcClient::new(ProcessId::new(n as u32), n, ep, 0xDEAD);
        let budget = StdDuration::from_millis(250);
        let started = Instant::now();
        let result = op(&mut client, budget);
        let elapsed = started.elapsed();
        assert_eq!(result, Err(ClientError::TimedOut));
        assert!(elapsed >= budget, "must not give up early: {elapsed:?}");
        assert!(
            elapsed < budget + StdDuration::from_millis(500),
            "must not overshoot the budget by a backoff cycle: {elapsed:?}"
        );
        assert_eq!(client.stats.failures, 1);
        assert!(
            client.stats.retries > 0,
            "silence was retried within budget"
        );
        // The sequence number stays consumed, so a later retry of the same
        // logical call would be a fresh seq (exactly-once is per seq).
        assert_eq!(client.next_seq(), 2);
    }

    #[test]
    fn ops_time_out_against_an_unresponsive_cluster() {
        times_out_against_an_unresponsive_cluster(|client, budget| {
            client.put(b"k", b"v", budget).map(drop)
        });
    }

    #[test]
    fn lease_reads_time_out_against_an_unresponsive_cluster() {
        times_out_against_an_unresponsive_cluster(|client, budget| {
            client.get(b"k", ReadTier::Lease, budget).map(drop)
        });
    }
}
