//! The client path: leader discovery, redirect handling, and a
//! retransmission clock learned from the client's own traffic.
//!
//! A [`SvcClient`] owns one transport endpoint (id ≥ `n`, outside the
//! replica group) and speaks the request/reply protocol of [`SvcMsg`]. It
//! starts by assuming `p1` leads (the all-zero initial Ω state elects the
//! smallest id, so this is the right first guess), follows
//! [`SvcReply::Redirect`]s, and on silence rotates its leader hint and
//! resends at once — which is exactly what rides out a crashed or dark
//! leader mid-load.
//!
//! # The retransmission clock
//!
//! How long silence lasts before a request is resent is not a constant: a
//! loopback cluster acks in tens of microseconds, an fsync-always one in
//! milliseconds, a read-index read in one 8 ms probe period. Like the
//! paper's Ω, which grows its timeouts from what it has observed instead of
//! assuming a bound, the client measures. A private estimator of RFC 6298's
//! shape keeps a smoothed round trip `srtt` and its mean deviation `rttvar`
//! and yields the first per-attempt wait, `srtt + max(4·rttvar, 2·srtt)`
//! clamped to `[RTO_FLOOR, MAX_RETRY]`. The `2·srtt` under the `max` is a
//! variance floor: a reader whose every round trip is the same 8 ms has an
//! `rttvar` near zero, and a bare `srtt + 4·rttvar` would fire on every
//! call that runs a hair late; with it a read that takes two probe periods
//! still beats the clock. Before the first sample the wait is `BASE_RETRY`,
//! held as the initial `rttvar`, so it decays over the first few samples
//! rather than collapsing onto the first.
//!
//! **One clock per request class.** What a request asks for decides how
//! long a healthy cluster takes to answer it — a read-index read waits out
//! a probe period by construction, a write or a lease read does not — so
//! writes and each [`ReadTier`] keep their own estimator. One estimator
//! over a client that mixes 50 µs puts with 8 ms read-index reads settles
//! between the two and fires on every read.
//!
//! **Karn's rule.** Only a call answered on its first transmission, with
//! no redirect in between, contributes a sample: a reply to a retransmitted
//! request cannot be matched to the send that caused it, and a redirected
//! call's time spans two replicas.
//!
//! **Back-off is listening.** After a silent attempt the client rotates the
//! hint, resends immediately, and listens for the next, doubled and
//! seed-jittered wait (capped at `MAX_RETRY`). Nothing is ever slept
//! through: a late reply to an earlier transmission ends the call the moment
//! it arrives. The backed-off wait also opens the calls that follow, until
//! one of them is a sample again — without that, Karn's rule would leave a
//! client whose round trip has grown past its wait retrying every call and
//! never measuring one.
//!
//! **Why the floor is 5 ms.** See `RTO_FLOOR`.
//!
//! [`loadgen::open_loop`](crate::loadgen::open_loop) resends its unacked
//! writes off the same clock, so the crate has one retry mechanism.

use crate::command::{KvOp, KvWrite, MAX_KEY_LEN, MAX_VALUE_LEN};
use crate::msg::{ReadTier, SvcMsg, SvcReply};
use irs_net::{wire::decode_payload, Transport, Wire};
use irs_sim::SimRng;
use irs_types::ProcessId;
use std::time::{Duration as StdDuration, Instant};

/// First per-attempt wait of a client that has not measured a round trip
/// yet.
const BASE_RETRY: StdDuration = StdDuration::from_millis(30);
/// Cap on every per-attempt wait, first or backed off.
const MAX_RETRY: StdDuration = StdDuration::from_millis(400);
/// Smallest per-attempt wait the clock yields, however fast the cluster.
///
/// Do not lower it below 5 ms. At 2 ms every call's `ppoll` timeout becomes
/// the earliest pending hrtimer on a 250 Hz kernel and the ledger's
/// `mux_put` lost 15–18 % `ops_s` in three of three alternating pairs
/// (`p50_us` +25 %), while 5, 10 and 30 ms all read level with a 30 ms
/// constant on `mux_put`, `durable_put` and `read_tiers`. 5 ms is also about
/// how long Ω takes to re-elect at the default tick: at 2 ms the first retry
/// after a leader crash was redirected straight back to the dead leader
/// (16 retries and 19 redirects over 8 crashes instead of 8 and 8).
const RTO_FLOOR: StdDuration = StdDuration::from_millis(5);
/// Consecutive redirects an attempt follows before treating the cluster as
/// unstable and falling back to the rotate-and-back-off path. During a
/// re-election two replicas can transiently point at each other; without a
/// cap the client would ping-pong requests between them at link speed for
/// the whole deadline.
pub(crate) const MAX_REDIRECT_STREAK: u32 = 4;

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
    /// Smoothed round trip of the retransmission clock sampled last, µs (0
    /// before the first sample).
    pub srtt_us: u64,
    /// First per-attempt wait that clock yielded after its last sample, µs
    /// (0 before the first sample, when the wait is the built-in initial
    /// one).
    pub rto_us: u64,
}

/// The clock class of writes (reads use [`read_class`]).
pub(crate) const WRITE_CLASS: usize = 0;
/// Clock classes: writes, then one per [`ReadTier`].
const CLASSES: usize = 4;

/// The clock class of a read at `tier`.
fn read_class(tier: ReadTier) -> usize {
    1 + tier as usize
}

/// One retransmission clock: RFC 6298's estimator with a variance floor
/// proportional to `srtt` (see the module docs). Clock-free — it is fed
/// measured round trips and silences and read back as a wait.
#[derive(Clone, Copy, Debug)]
struct RtoClock {
    /// Smoothed round trip, once one has been measured.
    srtt: Option<StdDuration>,
    /// Mean deviation of the round trip. It starts at a quarter of
    /// [`BASE_RETRY`], which makes the unsampled wait `BASE_RETRY` and lets
    /// that prior decay by a quarter per sample instead of vanishing on the
    /// first one: a read-index reader's first read lands anywhere in the
    /// probe period and may be a twentieth of all that follow.
    rttvar: StdDuration,
    /// The wait the last silence backed off to, while no sample has been
    /// taken since.
    backed_off: Option<StdDuration>,
}

impl Default for RtoClock {
    fn default() -> Self {
        RtoClock {
            srtt: None,
            rttvar: BASE_RETRY / 4,
            backed_off: None,
        }
    }
}

impl RtoClock {
    /// Folds in the round trip of a call answered on its first transmission
    /// (the caller applies Karn's rule). The first sample seeds `srtt`.
    fn sample(&mut self, rtt: StdDuration) {
        let srtt = self.srtt.unwrap_or(rtt);
        self.rttvar = (self.rttvar * 3 + srtt.abs_diff(rtt)) / 4;
        self.srtt = Some((srtt * 7 + rtt) / 8);
        self.backed_off = None;
    }

    /// The first per-attempt wait of the next call.
    fn rto(&self) -> StdDuration {
        self.backed_off.unwrap_or_else(|| {
            let srtt = self.srtt.unwrap_or_default();
            (srtt + (self.rttvar * 4).max(srtt * 2)).clamp(RTO_FLOOR, MAX_RETRY)
        })
    }

    /// An attempt sat silent for the whole wait. The next wait is that one
    /// doubled, stretched by up to a quarter by `jitter` ∈ [0, 1), never
    /// above [`MAX_RETRY`].
    fn back_off(&mut self, jitter: f64) {
        let next = (self.rto() * 2).mul_f64(1.0 + 0.25 * jitter);
        self.backed_off = Some(next.min(MAX_RETRY));
    }
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
    clocks: [RtoClock; CLASSES],
    /// Accumulated call statistics.
    pub stats: ClientStats,
    scratch: Vec<u8>,
    /// The replica whose reply ended the last blocking call.
    answered_by: Option<ProcessId>,
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
            clocks: [RtoClock::default(); CLASSES],
            stats: ClientStats::default(),
            scratch: Vec::new(),
            answered_by: None,
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

    /// The replica whose reply ended the last blocking call — for a write,
    /// the replica that applied it and acked (`None` before the first).
    /// Not necessarily [`leader_hint`](Self::leader_hint): an attempt that
    /// met silence may be answered late, after the hint moved on.
    pub fn answered_by(&self) -> Option<ProcessId> {
        self.answered_by
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
        match self.call(&msg, rid, read_class(tier), deadline)? {
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
        match self.call(&msg, write.seq, WRITE_CLASS, deadline)? {
            ReplyOutcome::Applied { slot } => Ok(slot),
            _ => unreachable!("a write's call ends on an ack"),
        }
    }

    /// How long a `class` request sent now may stay silent before it is
    /// resent.
    pub(crate) fn rto(&self, class: usize) -> StdDuration {
        self.clocks[class].rto()
    }

    /// Feeds `class`'s clock the round trip of a request answered on its
    /// first transmission with no redirect (Karn's rule is the caller's to
    /// apply).
    pub(crate) fn sample_rtt(&mut self, class: usize, rtt: StdDuration) {
        let clock = &mut self.clocks[class];
        clock.sample(rtt);
        self.stats.srtt_us = clock.srtt.unwrap_or_default().as_micros() as u64;
        self.stats.rto_us = clock.rto().as_micros() as u64;
    }

    /// A `class` request sat silent for its whole wait: the hinted replica
    /// is slow, dark or dead. Counts the retry, rotates the hint
    /// pseudo-randomly (seeded) and backs `class`'s clock off for the resend
    /// the caller makes next.
    pub(crate) fn on_silence(&mut self, class: usize) {
        self.stats.retries += 1;
        self.rotate_hint();
        let jitter = self.rng.range_u64(0..1000) as f64 / 1000.0;
        self.clocks[class].back_off(jitter);
    }

    /// Sends `msg` — built once, resent as is — until the reply that
    /// answers it (a value for a read, an ack for anything else) arrives
    /// under `seq`, or `deadline` elapses.
    fn call(
        &mut self,
        msg: &SvcMsg,
        seq: u64,
        class: usize,
        deadline: StdDuration,
    ) -> Result<ReplyOutcome, ClientError> {
        let wants_value = matches!(msg, SvcMsg::Read { .. });
        let overall = Instant::now() + deadline;
        let mut redirect_streak = 0u32;
        // Karn's rule: only a first transmission that was never redirected
        // times the cluster.
        let mut first_transmission = true;
        loop {
            let sent = Instant::now();
            if sent >= overall {
                self.stats.failures += 1;
                return Err(ClientError::TimedOut);
            }
            self.send_msg(msg)?;
            // A fresh hint is not a retry: follow redirects at once. A long
            // streak of them, though, means the replicas disagree about the
            // leader — stop following and listen this attempt out instead of
            // ping-ponging at link speed.
            let follow = redirect_streak < MAX_REDIRECT_STREAK;
            let attempt_deadline = (sent + self.rto(class)).min(overall);
            match self.await_reply(seq, attempt_deadline, follow)? {
                Some(ReplyOutcome::Redirected) => {
                    redirect_streak += 1;
                    first_transmission = false;
                    continue;
                }
                // A reply of the other kind under this seq cannot happen
                // (writes and reads draw from one seq space); it would be
                // resent like silence.
                Some(outcome) if matches!(outcome, ReplyOutcome::Value { .. }) == wants_value => {
                    if first_transmission {
                        self.sample_rtt(class, sent.elapsed());
                    }
                    self.stats.acked += 1;
                    return Ok(outcome);
                }
                Some(_) | None => {}
            }
            if Instant::now() >= overall {
                self.stats.failures += 1;
                return Err(ClientError::TimedOut);
            }
            // Silence: resend at once to another replica. The back-off is
            // how long the next attempt listens, so a late reply to this one
            // is consumed, not slept through.
            redirect_streak = 0;
            first_transmission = false;
            self.on_silence(class);
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
    /// With `follow_redirects` off, a redirect still moves the hint but does
    /// not end the wait.
    fn await_reply(
        &mut self,
        seq: u64,
        deadline: Instant,
        follow_redirects: bool,
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
                Some((_, ReplyOutcome::Redirected)) if !follow_redirects => continue,
                Some((got, outcome)) if got == seq => {
                    self.answered_by = Some(frame.from);
                    return Ok(Some(outcome));
                }
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
                if leader == frame.from || leader.index() >= self.n {
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
pub(crate) mod tests {
    use super::*;
    use irs_net::{MemNetwork, MemTransport};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    /// Plays one replica on the calling thread until `stop`: every write
    /// that reaches `ep` is answered with what `script` returns, or not at
    /// all.
    pub(crate) fn serve_replica(
        mut ep: MemTransport,
        me: ProcessId,
        stop: &AtomicBool,
        mut script: impl FnMut(&KvWrite) -> Option<SvcReply>,
    ) {
        while !stop.load(Ordering::SeqCst) {
            let Ok(Some(frame)) = ep.recv(StdDuration::from_millis(5)) else {
                continue;
            };
            let Ok(SvcMsg::Request { cmd }) = decode_payload::<SvcMsg>(&frame.payload) else {
                continue;
            };
            let write = KvWrite::decode(&cmd).expect("clients send well-formed writes");
            if let Some(reply) = script(&write) {
                let mut buf = Vec::new();
                SvcMsg::Reply(reply).encode(&mut buf);
                ep.send(me, frame.from, &buf).expect("client endpoint open");
            }
        }
    }

    pub(crate) fn applied(w: &KvWrite) -> Option<SvcReply> {
        Some(SvcReply::Applied {
            client: w.client,
            seq: w.seq,
            slot: w.seq,
        })
    }

    const MS: StdDuration = StdDuration::from_millis(1);

    #[test]
    fn first_sample_seeds_the_clock() {
        let mut clock = RtoClock::default();
        assert_eq!(clock.rto(), BASE_RETRY, "unsampled: the initial wait");
        clock.sample(MS);
        assert_eq!(clock.srtt, Some(MS));
        assert_eq!(clock.rttvar, BASE_RETRY * 3 / 16, "the prior decays");
        assert_eq!(clock.rto(), MS + BASE_RETRY * 3 / 4);
        let mut slow = RtoClock::default();
        slow.sample(20 * MS);
        assert_eq!(slow.rto(), 60 * MS, "the variance floor: 3·srtt");
    }

    /// A read-index reader's round trip is one 8 ms probe period every
    /// time: the deviation decays to nothing and only the variance floor
    /// keeps the wait clear of the round trip itself. Its first read, which
    /// lands anywhere in the period, must not talk the clock down either.
    #[test]
    fn constant_samples_settle_strictly_above_the_round_trip() {
        let mut clock = RtoClock::default();
        clock.sample(StdDuration::from_micros(400));
        for _ in 0..256 {
            assert!(clock.rto() > 12 * MS, "{clock:?}");
            clock.sample(8 * MS);
        }
        assert!(clock.srtt.unwrap().abs_diff(8 * MS) < MS / 1000);
        assert!(clock.rttvar < MS / 1000, "deviation decayed: {clock:?}");
        assert!(clock.rto().abs_diff(24 * MS) < MS / 100);
    }

    #[test]
    fn the_wait_is_clamped_at_both_ends() {
        let mut fast = RtoClock::default();
        let mut slow = RtoClock::default();
        for _ in 0..32 {
            fast.sample(StdDuration::from_micros(50));
            slow.sample(StdDuration::from_secs(10));
        }
        assert_eq!(fast.rto(), RTO_FLOOR);
        assert_eq!(slow.rto(), MAX_RETRY);
    }

    #[test]
    fn backoff_doubles_up_to_the_cap_and_never_beyond() {
        for jitter in [0.0, 0.5, 0.999] {
            let mut clock = RtoClock::default();
            for _ in 0..16 {
                let wait = clock.rto();
                clock.back_off(jitter);
                let next = clock.rto();
                assert!(next <= MAX_RETRY, "{next:?} above the cap");
                assert!(next >= (wait * 2).min(MAX_RETRY), "{wait:?} -> {next:?}");
            }
            assert_eq!(clock.rto(), MAX_RETRY);
        }
    }

    /// Karn's rule alone would strand a client whose round trip grew past
    /// its wait: every call retransmits, so none is ever a sample. The
    /// backed-off wait therefore opens the following calls until one of
    /// them is answered on its first transmission.
    #[test]
    fn a_backed_off_wait_is_kept_until_the_next_sample() {
        let mut clock = RtoClock::default();
        for _ in 0..32 {
            clock.sample(StdDuration::from_micros(50));
        }
        assert_eq!(clock.rto(), RTO_FLOOR);
        clock.back_off(0.0);
        assert_eq!(clock.rto(), RTO_FLOOR * 2, "the next call opens with it");
        clock.sample(8 * MS);
        assert!(clock.rto() > 8 * MS && clock.rto() < RTO_FLOOR * 4);
    }

    /// The back-off is a listening wait: a reply sent just after the first
    /// attempt timed out — which the replicas learn from the retransmission
    /// reaching one of them — ends the call then and there. (A client that
    /// sleeps its back-off retransmits half an initial wait later at the
    /// earliest.) And by Karn's rule the retransmitted call leaves the clock
    /// unsampled.
    #[test]
    fn a_reply_arriving_during_the_backoff_is_consumed_at_once() {
        let n = 3;
        let mut mesh = MemNetwork::mesh(n + 1);
        let ep = mesh.pop().unwrap();
        let mut client = SvcClient::new(ProcessId::new(n as u32), n, ep, 7);
        let stop = AtomicBool::new(false);
        let (resent_tx, resent_rx) = std::sync::mpsc::channel();
        let (result, elapsed) = std::thread::scope(|scope| {
            let stop = &stop;
            let p0 = mesh.remove(0);
            scope.spawn(move || {
                serve_replica(p0, ProcessId::new(0), stop, |w| {
                    resent_rx
                        .recv_timeout(StdDuration::from_secs(2))
                        .expect("the client retransmits");
                    applied(w)
                })
            });
            for (i, ep) in mesh.drain(..).enumerate() {
                let resent_tx = resent_tx.clone();
                scope.spawn(move || {
                    serve_replica(ep, ProcessId::new(i as u32 + 1), stop, |_| {
                        resent_tx.send(()).expect("replica 0 is listening");
                        None
                    })
                });
            }
            let started = Instant::now();
            let result = client.put(b"k", b"v", StdDuration::from_secs(2));
            let elapsed = started.elapsed();
            stop.store(true, Ordering::SeqCst);
            (result, elapsed)
        });
        assert_eq!(result, Ok(1));
        assert_eq!(client.stats.retries, 1, "one silent attempt, then the ack");
        assert!(elapsed >= BASE_RETRY, "{elapsed:?}");
        assert!(
            elapsed < BASE_RETRY * 3 / 2,
            "the retransmission was slept before, or the reply through: {elapsed:?}"
        );
        assert_eq!(client.stats.srtt_us, 0, "a retransmitted call is no sample");
    }

    /// Karn's rule, redirect half: a call that was redirected spans two
    /// replicas and is no sample; the next, clean call is.
    #[test]
    fn a_redirected_call_contributes_no_sample_and_a_clean_one_does() {
        let n = 2;
        let mut mesh = MemNetwork::mesh(n + 1);
        let ep = mesh.remove(n);
        let p1 = mesh.remove(1);
        let p0 = mesh.remove(0);
        let mut client = SvcClient::new(ProcessId::new(n as u32), n, ep, 7);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                serve_replica(p0, ProcessId::new(0), &stop, |w| {
                    Some(SvcReply::Redirect {
                        client: w.client,
                        seq: w.seq,
                        leader: ProcessId::new(1),
                    })
                })
            });
            scope.spawn(|| serve_replica(p1, ProcessId::new(1), &stop, applied));
            let deadline = StdDuration::from_secs(2);
            assert_eq!(client.put(b"k", b"v", deadline), Ok(1));
            assert_eq!(client.stats.redirects, 1);
            assert_eq!((client.stats.srtt_us, client.stats.rto_us), (0, 0));
            assert_eq!(client.rto(WRITE_CLASS), BASE_RETRY);
            assert_eq!(client.put(b"k", b"v", deadline), Ok(2));
            stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(client.stats.redirects, 1, "the hint stuck");
        assert_eq!(client.stats.retries, 0);
        assert!(client.rto(WRITE_CLASS) < BASE_RETRY);
        assert_eq!(
            client.stats.rto_us,
            client.rto(WRITE_CLASS).as_micros() as u64
        );
    }

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
