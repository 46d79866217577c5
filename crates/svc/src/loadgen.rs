//! The load-generator harness: closed-loop and open-loop clients with
//! log2-bucket latency histograms, plus the consistency and read
//! linearizability checkers the E12–E16 experiments and the service tests
//! share.
//!
//! * [`closed_loop`] — every client keeps exactly one request outstanding
//!   (classic saturation load: ops/s is limited by latency × clients). Its
//!   `read_pct` mixes reads at one [`ReadTier`] into the writes; a run with
//!   `read_pct = 0` writes only.
//! * [`open_loop`] — one client fires writes at a fixed interval regardless
//!   of acks (arrival-rate load: latency reflects queueing, unacked
//!   requests at the end count as failures).
//!
//! Both fill one [`LoadReport`]. A run's acked writes go to
//! [`check_consistency`] and its observed reads to
//! [`check_read_linearizability`]; [`with_leader_crash`] crash-stops the
//! leader in the middle of either.
//!
//! Latencies are recorded in microseconds into [`irs_obs::Histogram`] —
//! the same log2-bucket type the metrics registry scrapes, so load-test
//! percentiles and live-service percentiles come from one implementation
//! (log2 buckets, so p50/p99 reads are factor-of-two accurate at O(1)
//! memory per client).

use crate::client::{ClientError, ReplyOutcome, SvcClient, MAX_REDIRECT_STREAK, WRITE_CLASS};
use crate::command::{KvOp, KvWrite};
use crate::msg::ReadTier;
use crate::replica::SvcReplica;
use irs_net::Transport;
use irs_obs::Histogram;
use irs_types::Protocol;
use std::collections::BTreeMap;
use std::time::{Duration as StdDuration, Instant};

/// What one load run produced. Writes are the `ops` side; a closed loop
/// with reads in its mix fills the read side too.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Acknowledged writes.
    pub ops: u64,
    /// Writes that exhausted their deadline (closed loop) or were never
    /// acked (open loop).
    pub failures: u64,
    /// Answered reads.
    pub reads: u64,
    /// Reads that exhausted their deadline.
    pub read_failures: u64,
    /// Redirects followed across all clients.
    pub redirects: u64,
    /// Timed-out attempts that were retried.
    pub retries: u64,
    /// Largest smoothed round trip any client's retransmission clock held
    /// at the end of the run, µs (0 = never sampled).
    pub srtt_us: u64,
    /// Largest first per-attempt wait any client's clock yielded at the end
    /// of the run, µs (0 = never sampled).
    pub rto_us: u64,
    /// Wall-clock span of the run.
    pub elapsed: StdDuration,
    /// Write ack latencies, µs.
    pub latency: Histogram,
    /// Read answer latencies, µs.
    pub read_latency: Histogram,
}

impl LoadReport {
    /// Acknowledged writes per second of wall clock.
    pub fn ops_per_sec(&self) -> f64 {
        self.per_sec(self.ops)
    }

    /// Answered reads per second of wall clock.
    pub fn reads_per_sec(&self) -> f64 {
        self.per_sec(self.reads)
    }

    fn per_sec(&self, count: u64) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            count as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Adds one client's counts and latencies; the clock figures take the
    /// largest of the clients'.
    fn merge(&mut self, other: &LoadReport) {
        self.ops += other.ops;
        self.failures += other.failures;
        self.reads += other.reads;
        self.read_failures += other.read_failures;
        self.redirects += other.redirects;
        self.retries += other.retries;
        self.srtt_us = self.srtt_us.max(other.srtt_us);
        self.rto_us = self.rto_us.max(other.rto_us);
        self.latency.merge(&other.latency);
        self.read_latency.merge(&other.read_latency);
    }
}

/// One acknowledged write, as the issuing client saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AckedWrite {
    /// The client's sequence number.
    pub seq: u64,
    /// The key written.
    pub key: Vec<u8>,
    /// The log slot the ack named.
    pub slot: u64,
}

/// Everything one client got acknowledged during a run.
#[derive(Clone, Debug, Default)]
pub struct ClientAcks {
    /// The logical client id.
    pub client: u64,
    /// Acked writes in issue order.
    pub acked: Vec<AckedWrite>,
}

/// One answered read, as the issuing client saw it, with the bounds the
/// linearizability checker needs: what the client had *acked* on the key
/// before issuing (the floor a linearizable read must observe) and what it
/// had *issued* (the ceiling any read may observe — a value never written
/// cannot be read).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedRead {
    /// The key read.
    pub key: Vec<u8>,
    /// The seq carried by the returned value (`None` = key unbound).
    pub value_seq: Option<u64>,
    /// The answering replica's apply frontier (staleness witness).
    pub frontier: u64,
    /// Largest write seq this client had acked on the key before issuing.
    pub acked_floor: Option<u64>,
    /// Largest write seq this client had issued on the key before issuing
    /// (timed-out writes included — they may still land).
    pub issued_ceiling: Option<u64>,
}

/// Everything one client observed through reads during a run.
#[derive(Clone, Debug, Default)]
pub struct ClientReads {
    /// The logical client id.
    pub client: u64,
    /// The tier the reads ran at.
    pub tier: Option<ReadTier>,
    /// Answered reads in issue order.
    pub reads: Vec<ObservedRead>,
}

/// Tuning of a closed-loop run.
#[derive(Clone, Copy, Debug)]
pub struct ClosedLoopOptions {
    /// Wall-clock length of the run.
    pub duration: StdDuration,
    /// Per-operation deadline (retries included).
    pub op_deadline: StdDuration,
    /// Keys each client cycles through (its own key space).
    pub keys_per_client: u64,
    /// Value payload length in bytes (the first 8 carry the seq).
    pub value_len: usize,
    /// Reads per 100 operations (0 = write-only, 95 = read-heavy, 50 =
    /// balanced). Op `i` of a client is a read iff `i % 100 < read_pct`.
    pub read_pct: u32,
    /// The consistency tier every read selects.
    pub tier: ReadTier,
}

impl Default for ClosedLoopOptions {
    fn default() -> Self {
        ClosedLoopOptions {
            duration: StdDuration::from_secs(2),
            op_deadline: StdDuration::from_secs(3),
            keys_per_client: 8,
            value_len: 16,
            read_pct: 0,
            tier: ReadTier::Lease,
        }
    }
}

/// The key client `client` uses for its `k`-th slot of the key space.
pub fn key_for(client: u64, k: u64) -> Vec<u8> {
    format!("c{client}-k{k}").into_bytes()
}

/// The value carrying `seq` (LE in the first 8 bytes, zero padded).
pub fn value_for(seq: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len.max(8)];
    v[..8].copy_from_slice(&seq.to_le_bytes());
    v
}

/// The seq a value carries (written by [`value_for`]).
pub fn seq_of_value(value: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(value.get(..8)?.try_into().ok()?))
}

/// Runs every client closed-loop (one outstanding request each) for the
/// configured duration, one OS thread per client, on the read/write mix
/// `opts.read_pct` sets. Returns the merged report, each client's acked
/// writes (for [`check_consistency`]) and each client's observed reads
/// (for [`check_read_linearizability`]; empty on a write-only run).
pub fn closed_loop<T: Transport>(
    clients: &mut [SvcClient<T>],
    opts: ClosedLoopOptions,
) -> (LoadReport, Vec<ClientAcks>, Vec<ClientReads>) {
    let started = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| scope.spawn(move || closed_loop_client(client, opts)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = LoadReport {
        elapsed: started.elapsed(),
        ..LoadReport::default()
    };
    let (mut all_acks, mut all_reads) = (Vec::new(), Vec::new());
    for (report, acks, reads) in per_client {
        merged.merge(&report);
        all_acks.push(acks);
        all_reads.push(reads);
    }
    (merged, all_acks, all_reads)
}

/// One client's thread of [`closed_loop`].
fn closed_loop_client<T: Transport>(
    client: &mut SvcClient<T>,
    opts: ClosedLoopOptions,
) -> (LoadReport, ClientAcks, ClientReads) {
    let stats_before = client.stats;
    let mut report = LoadReport::default();
    let mut acks = ClientAcks {
        client: client.client_id(),
        acked: Vec::new(),
    };
    let mut reads = ClientReads {
        client: client.client_id(),
        tier: Some(opts.tier),
        reads: Vec::new(),
    };
    // Per key: largest acked and largest issued write seq.
    let mut acked_floor: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut issued_ceiling: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let deadline = Instant::now() + opts.duration;
    let mut op = 0u64;
    while Instant::now() < deadline {
        let key = key_for(acks.client, op % opts.keys_per_client);
        // Op i is a read iff its residue falls inside the read share: each
        // 100-op window opens with its `read_pct` reads.
        let is_read = (op % 100) < u64::from(opts.read_pct.min(100));
        op += 1;
        let op_started = Instant::now();
        if is_read {
            match client.get(&key, opts.tier, opts.op_deadline) {
                Ok((value, frontier)) => {
                    report
                        .read_latency
                        .record(op_started.elapsed().as_micros() as u64);
                    report.reads += 1;
                    reads.reads.push(ObservedRead {
                        value_seq: value.as_deref().and_then(seq_of_value),
                        frontier,
                        acked_floor: acked_floor.get(&key).copied(),
                        issued_ceiling: issued_ceiling.get(&key).copied(),
                        key,
                    });
                }
                Err(ClientError::Closed) => break,
                Err(ClientError::TimedOut) => report.read_failures += 1,
            }
        } else {
            let seq = client.next_seq();
            let value = value_for(seq, opts.value_len);
            issued_ceiling.insert(key.clone(), seq);
            match client.put(&key, &value, opts.op_deadline) {
                Ok(slot) => {
                    report
                        .latency
                        .record(op_started.elapsed().as_micros() as u64);
                    report.ops += 1;
                    acked_floor.insert(key.clone(), seq);
                    acks.acked.push(AckedWrite { seq, key, slot });
                }
                Err(ClientError::Closed) => break,
                Err(ClientError::TimedOut) => report.failures += 1,
            }
        }
    }
    let stats = client.stats;
    report.redirects = stats.redirects - stats_before.redirects;
    report.retries = stats.retries - stats_before.retries;
    report.srtt_us = stats.srtt_us;
    report.rto_us = stats.rto_us;
    (report, acks, reads)
}

/// Tuning of an open-loop run.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopOptions {
    /// Wall-clock length of the sending phase.
    pub duration: StdDuration,
    /// Interval between fires (1 / target rate).
    pub interval: StdDuration,
    /// Keys the client cycles through.
    pub keys: u64,
    /// Value payload length in bytes.
    pub value_len: usize,
    /// Extra window after the last fire to collect stragglers.
    pub drain: StdDuration,
}

impl Default for OpenLoopOptions {
    fn default() -> Self {
        OpenLoopOptions {
            duration: StdDuration::from_secs(2),
            interval: StdDuration::from_millis(5),
            keys: 8,
            value_len: 16,
            drain: StdDuration::from_secs(2),
        }
    }
}

/// One fired, not yet acked open-loop write.
struct InFlight {
    write: KvWrite,
    fired_at: Instant,
    /// Sent once and never redirected, so its ack times the cluster.
    first_transmission: bool,
}

/// Resends every unacked write, oldest first, to the client's current hint.
/// All of them, because the replicas apply one client's writes in sequence
/// order: moving only some would let a newer write overtake an older one
/// and strand it.
fn resend_all<T: Transport>(
    client: &mut SvcClient<T>,
    pending: &mut BTreeMap<u64, InFlight>,
) -> Result<(), ClientError> {
    for w in pending.values_mut() {
        w.first_transmission = false;
        client.send_write(&w.write)?;
    }
    Ok(())
}

/// Runs one client open-loop: writes are fired on a fixed interval whether
/// or not earlier ones were acked. A redirect moves the hint and the
/// unacked writes with it. When writes are outstanding and nothing at all
/// has come back for a full wait of the client's retransmission clock, the
/// hinted replica is dark: the hint rotates and every unacked write is
/// resent. After the sending phase, stragglers are collected for the drain
/// window; anything still unacked then counts as a failure.
pub fn open_loop<T: Transport>(client: &mut SvcClient<T>, opts: OpenLoopOptions) -> LoadReport {
    let started = Instant::now();
    let stats_before = client.stats;
    let send_deadline = started + opts.duration;
    let drain_deadline = send_deadline + opts.drain;
    let mut next_fire = started;
    let mut pending: BTreeMap<u64, InFlight> = BTreeMap::new();
    // Since when writes have been outstanding with nothing heard.
    let mut quiet_since: Option<Instant> = None;
    // Hint changes followed in a row with no ack in between.
    let mut redirect_streak = 0u32;
    // The replica every unacked write was last sent to.
    let mut sent_to = client.leader_hint();
    let mut report = LoadReport::default();
    let mut k = 0u64;
    let client_id = client.client_id();

    loop {
        let now = Instant::now();
        let sending = now < send_deadline;
        if !sending && (pending.is_empty() || now >= drain_deadline) {
            break;
        }
        if sending && now >= next_fire {
            // A write never overtakes an older one: whatever moved the hint
            // since those went out, they go first.
            if sent_to != client.leader_hint() {
                sent_to = client.leader_hint();
                if resend_all(client, &mut pending).is_err() {
                    break;
                }
            }
            let seq = client.alloc_seq();
            let write = KvWrite {
                client: client_id,
                seq,
                op: KvOp::Put {
                    key: key_for(client_id, k % opts.keys),
                    value: value_for(seq, opts.value_len),
                },
            };
            k += 1;
            if client.send_write(&write).is_err() {
                break;
            }
            let fired_at = Instant::now();
            quiet_since.get_or_insert(fired_at);
            pending.insert(
                seq,
                InFlight {
                    write,
                    fired_at,
                    first_transmission: true,
                },
            );
            next_fire += opts.interval;
            continue;
        }
        let mut wake = if sending {
            next_fire.min(send_deadline)
        } else {
            drain_deadline
        };
        if let Some(since) = quiet_since {
            let wait = client.rto(WRITE_CLASS);
            if now >= since + wait {
                client.on_silence(WRITE_CLASS);
                sent_to = client.leader_hint();
                if resend_all(client, &mut pending).is_err() {
                    break;
                }
                redirect_streak = 0;
                quiet_since = Some(Instant::now());
                continue;
            }
            wake = wake.min(since + wait);
        }
        match client.poll_event(wake.saturating_duration_since(now)) {
            Ok(Some((seq, ReplyOutcome::Applied { .. }))) => {
                redirect_streak = 0;
                if let Some(w) = pending.remove(&seq) {
                    if w.first_transmission {
                        client.sample_rtt(WRITE_CLASS, w.fired_at.elapsed());
                    }
                    report.ops += 1;
                    report
                        .latency
                        .record(w.fired_at.elapsed().as_micros() as u64);
                }
            }
            // Like a blocking call, follow only so many hint changes in a
            // row: replicas that point at each other mid-election would be
            // chased at link speed. Past the cap the writes stay where they
            // are and the silence clock keeps running.
            Ok(Some((_, ReplyOutcome::Redirected))) if redirect_streak >= MAX_REDIRECT_STREAK => {
                continue;
            }
            Ok(Some((_, ReplyOutcome::Redirected))) => {
                if sent_to != client.leader_hint() {
                    sent_to = client.leader_hint();
                    redirect_streak += 1;
                    if resend_all(client, &mut pending).is_err() {
                        break;
                    }
                }
            }
            Ok(Some((_, ReplyOutcome::Value { .. }))) | Ok(None) => continue,
            Err(_) => break,
        }
        quiet_since = (!pending.is_empty()).then(Instant::now);
    }
    report.failures = pending.len() as u64;
    report.redirects = client.stats.redirects - stats_before.redirects;
    report.retries = client.stats.retries - stats_before.retries;
    report.srtt_us = client.stats.srtt_us;
    report.rto_us = client.stats.rto_us;
    report.elapsed = started.elapsed();
    report
}

/// Runs `load` while a side thread crash-stops whichever replica leads
/// `crash_after` into it (falling back to `p1` when no agreement is
/// visible yet). Returns what `load` returned and the crashed replica —
/// the shared harness behind the experiments' leader-crash rows and the
/// `crash_consistency` and `read_path` tests.
pub fn with_leader_crash<R>(
    cluster: &crate::SvcCluster,
    crash_after: StdDuration,
    load: impl FnOnce() -> R,
) -> (R, irs_types::ProcessId) {
    std::thread::scope(|scope| {
        let crasher = scope.spawn(move || {
            std::thread::sleep(crash_after);
            let victim = cluster
                .agreed_leader()
                .unwrap_or(irs_types::ProcessId::new(0));
            cluster.crash(victim);
            victim
        });
        let out = load();
        (out, crasher.join().expect("crasher thread"))
    })
}

/// Polls the survivors' snapshots until their `kv_digest` and `applied`
/// gauges all agree (the catch-up protocol has converged them) or `limit`
/// expires; returns whether they converged. Call after the load stops and
/// before freezing the cluster for a consistency check.
pub fn await_survivor_convergence(
    cluster: &crate::SvcCluster,
    crashed: irs_types::ProcessId,
    limit: StdDuration,
) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        let snaps: Vec<_> = cluster
            .snapshots()
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| i != crashed.index())
            .map(|(_, snap)| snap)
            .collect();
        let converged = snaps.windows(2).all(|w| {
            w[0].gauge("kv_digest") == w[1].gauge("kv_digest")
                && w[0].gauge("applied") == w[1].gauge("applied")
        });
        if converged {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(StdDuration::from_millis(25));
    }
}

/// Checks that the given (surviving) replicas hold identical applied state
/// and that no acked write was lost or reordered:
///
/// 1. every replica's store digest and full map equal the first's;
/// 2. per client, applied sequence numbers are monotone by construction
///    (the store skips non-increasing seqs) and the last applied seq is at
///    least the largest acked one — an acked write can never disappear;
/// 3. for every key a client got acks on, the surviving value carries a
///    seq no older than the newest acked write of that key.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_consistency(replicas: &[&SvcReplica], acked: &[ClientAcks]) -> Result<(), String> {
    let Some(first) = replicas.first() else {
        return Err("no surviving replicas to compare".into());
    };
    for r in &replicas[1..] {
        if r.store().digest() != first.store().digest() || r.store().map() != first.store().map() {
            return Err(format!(
                "replica {} diverged from replica {}: digests {:#x} vs {:#x}",
                r.id(),
                first.id(),
                r.store().digest(),
                first.store().digest()
            ));
        }
    }
    for client in acked {
        let Some(last) = client.acked.iter().map(|a| a.seq).max() else {
            continue;
        };
        match first.store().last_applied(client.client) {
            None => {
                return Err(format!(
                    "client {} had acks but no applied writes survive",
                    client.client
                ))
            }
            Some((applied_seq, _)) if applied_seq < last => {
                return Err(format!(
                    "client {}: acked seq {last} but replicas applied only up to {applied_seq}",
                    client.client
                ))
            }
            Some(_) => {}
        }
        // Per key: the surviving value is at least as new as the newest ack.
        let mut newest_per_key: BTreeMap<&[u8], u64> = BTreeMap::new();
        for a in &client.acked {
            let e = newest_per_key.entry(a.key.as_slice()).or_insert(a.seq);
            *e = (*e).max(a.seq);
        }
        for (key, newest) in newest_per_key {
            let Some(value) = first.store().get(key) else {
                return Err(format!(
                    "client {}: acked key {:?} missing from surviving state",
                    client.client, key
                ));
            };
            match seq_of_value(value) {
                Some(seq) if seq >= newest => {}
                other => {
                    return Err(format!(
                        "client {}: key {:?} holds {:?}, older than acked seq {newest}",
                        client.client, key, other
                    ))
                }
            }
        }
    }
    Ok(())
}

/// Verifies every observed read against the acked write order the same
/// client produced:
///
/// * **any tier** — a read never returns a value the client had not yet
///   issued on that key (values carry their write seq; an invented or
///   cross-key value is a protocol violation);
/// * **linearizable tiers** ([`ReadTier::Lease`], [`ReadTier::ReadIndex`])
///   — a read issued after the client acked write seq `s` on the key
///   returns a value with seq ≥ `s` (acked writes are visible), and the
///   seqs a client observes on one key never go backwards across its own
///   reads (real-time order at one observer).
///
/// Stale-tier reads are exempt from the floor and monotonicity — their
/// guarantee (the answer is a committed prefix) is pinned by the
/// replica-level frontier-bound test instead.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_read_linearizability(reads: &[ClientReads]) -> Result<(), String> {
    for log in reads {
        let linearizable = !matches!(log.tier, Some(ReadTier::Stale));
        let mut seen_floor: BTreeMap<&[u8], u64> = BTreeMap::new();
        for (i, r) in log.reads.iter().enumerate() {
            if let Some(seq) = r.value_seq {
                match r.issued_ceiling {
                    Some(ceiling) if seq <= ceiling => {}
                    other => {
                        return Err(format!(
                            "client {} read #{i} of {:?}: value seq {seq} above issued ceiling {other:?}",
                            log.client, r.key
                        ))
                    }
                }
            }
            if !linearizable {
                continue;
            }
            if let Some(floor) = r.acked_floor {
                match r.value_seq {
                    Some(seq) if seq >= floor => {}
                    other => {
                        return Err(format!(
                            "client {} read #{i} of {:?}: acked seq {floor} before the read, \
                             but it returned {other:?} — an acked write went invisible",
                            log.client, r.key
                        ))
                    }
                }
            }
            if let Some(seq) = r.value_seq {
                let e = seen_floor.entry(r.key.as_slice()).or_insert(seq);
                if seq < *e {
                    return Err(format!(
                        "client {} read #{i} of {:?}: observed seq went backwards {} -> {seq}",
                        log.client, r.key, *e
                    ));
                }
                *e = seq;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::tests::{applied, serve_replica};
    use irs_net::MemNetwork;
    use irs_types::ProcessId;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// The open loop resends on silence like the blocking client does: with
    /// the initial hint's endpoint never served, nothing comes back for a
    /// full wait, the hint rotates to replica 1, and every write fired —
    /// those stranded at replica 0 included — is acked through it.
    #[test]
    fn open_loop_rides_out_a_dark_hint() {
        let n = 2;
        let mut mesh = MemNetwork::mesh(n + 1);
        let ep = mesh.remove(n);
        let p1 = mesh.remove(1); // replica 0's endpoint is never read
        let mut client = SvcClient::new(ProcessId::new(n as u32), n, ep, 11);
        let stop = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            scope.spawn(|| serve_replica(p1, ProcessId::new(1), &stop, applied));
            let report = open_loop(
                &mut client,
                OpenLoopOptions {
                    duration: StdDuration::from_millis(200),
                    interval: StdDuration::from_millis(2),
                    drain: StdDuration::from_secs(2),
                    ..OpenLoopOptions::default()
                },
            );
            stop.store(true, Ordering::SeqCst);
            report
        });
        assert_eq!(report.failures, 0, "{report:?}");
        assert_eq!(report.ops, client.next_seq() - 1, "every write fired");
        assert!(report.ops >= 50, "{report:?}");
        assert_eq!(report.retries, 1, "one silence moved the hint for good");
        assert_eq!(client.leader_hint(), ProcessId::new(1));
        assert!(report.rto_us > 0, "acks through replica 1 fed the clock");
    }

    /// One in-memory n = 3 run of `closed_loop`, frozen after the load.
    fn closed_run(
        opts: ClosedLoopOptions,
    ) -> (
        LoadReport,
        Vec<ClientAcks>,
        Vec<ClientReads>,
        Vec<SvcReplica>,
    ) {
        let (cluster, mut clients) =
            crate::SvcCluster::in_memory(3, 1, crate::SvcConfig::new(3, 1));
        let (report, acked, reads) = closed_loop(&mut clients, opts);
        (report, acked, reads, cluster.shutdown())
    }

    /// The default mix writes only: the run yields acked writes and no
    /// read at all.
    #[test]
    fn a_write_only_closed_loop_yields_no_reads() {
        let (report, acked, reads, replicas) = closed_run(ClosedLoopOptions {
            duration: StdDuration::from_millis(300),
            op_deadline: StdDuration::from_secs(8),
            ..ClosedLoopOptions::default()
        });
        assert!(report.ops > 0, "{report:?}");
        assert_eq!(report.ops, acked[0].acked.len() as u64);
        assert_eq!((report.reads, report.read_failures), (0, 0));
        assert_eq!(report.read_latency.count(), 0);
        assert!(reads.iter().all(|r| r.reads.is_empty()), "{reads:?}");
        let refs: Vec<&SvcReplica> = replicas.iter().collect();
        assert_eq!(check_consistency(&refs, &acked), Ok(()));
    }

    /// At `read_pct = 50` each 100-op window is 50 reads then 50 writes, so
    /// one client's `N` ops hold exactly the reads the rule gives `N`, and
    /// the run keeps both contracts.
    #[test]
    fn a_balanced_closed_loop_interleaves_reads_and_writes() {
        let (report, acked, reads, replicas) = closed_run(ClosedLoopOptions {
            duration: StdDuration::from_millis(300),
            op_deadline: StdDuration::from_secs(8),
            read_pct: 50,
            ..ClosedLoopOptions::default()
        });
        assert_eq!(
            (report.failures, report.read_failures),
            (0, 0),
            "{report:?}"
        );
        assert!(report.reads > 0 && report.ops > 0, "{report:?}");
        let total = report.reads + report.ops;
        assert_eq!(report.reads, 50 * (total / 100) + (total % 100).min(50));
        assert_eq!(report.reads, reads[0].reads.len() as u64);
        assert_eq!(check_read_linearizability(&reads), Ok(()));
        let refs: Vec<&SvcReplica> = replicas.iter().collect();
        assert_eq!(check_consistency(&refs, &acked), Ok(()));
    }
}
