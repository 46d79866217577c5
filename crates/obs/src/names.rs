//! The canonical metric-name registry.
//!
//! Every gauge name a protocol pushes into `Snapshot::extra` and every
//! metric name registered on the [`crate::Registry`] lives here as a
//! `const`, with its documentation in [`ALL`]. Producer crates import the
//! consts instead of repeating string literals, so a copy-paste duplicate
//! or a `camelCase` slip is a compile error or a failing test in exactly
//! one place — not silent drift discovered while debugging a dashboard.
//!
//! Conventions: `Snapshot::extra` gauges keep their short historical names
//! (they are already namespaced by the protocol that owns the snapshot);
//! registry metrics carry a subsystem prefix (`net_`, `link_`, `udp_`,
//! `runtime_`, `svc_`, `wal_`) because one registry aggregates the whole
//! process.

// ── Ω core (crates/core) snapshot gauges ────────────────────────────────
/// ALIVE broadcasts sent by this process (Ω Fig. 3 sending task).
pub const ALIVE_BROADCASTS: &str = "alive_broadcasts";
/// Receiving rounds this process has closed.
pub const ROUNDS_CLOSED: &str = "rounds_closed";
/// Suspicion-counter increments applied.
pub const SUSP_INCREMENTS: &str = "susp_increments";
/// Largest timer value reached (the paper's bounded-timer claim).
pub const MAX_TIMER_TICKS: &str = "max_timer_ticks";
/// Suspicion rounds retained in the bounded-memory window.
pub const RETAINED_SUSPICION_ROUNDS: &str = "retained_suspicion_rounds";

/// Per-round `REC_FROM` bookkeeping entries currently retained (gauge).
pub const RETAINED_REC_FROM_ROUNDS: &str = "retained_rec_from_rounds";

// ── Consensus (crates/consensus) snapshot gauges ────────────────────────
/// 1 when this instance has decided, else 0.
pub const DECIDED: &str = "decided";
/// The decided value, when any.
pub const DECIDED_VALUE: &str = "decided_value";
/// Ballots this coordinator has opened.
pub const BALLOTS_STARTED: &str = "ballots_started";
/// The log's frontier: the lowest slot without a known decision, which is
/// also the count of decided slots, compacted ones included (not the
/// decisions retained: that is [`RETAINED_DECISIONS`]).
pub const LOG_LEN: &str = "log_len";
/// Commands waiting for a slot.
pub const PENDING: &str = "pending";
/// Log slots this leader has driven.
pub const SLOTS_DRIVEN: &str = "slots_driven";
/// Catchup requests sent.
pub const CATCHUPS_SENT: &str = "catchups_sent";
/// Decisions retained after compaction.
pub const RETAINED_DECISIONS: &str = "retained_decisions";
/// First slot not yet compacted away.
pub const COMPACT_FLOOR: &str = "compact_floor";
/// Peer snapshots installed into the log.
pub const SNAPSHOT_INSTALLS: &str = "snapshot_installs";
/// Slots opened directly in phase 2 under an established reign.
pub const PHASE1_SKIPS: &str = "phase1_skips";
/// Reign-scoped prepares broadcast as a leader.
pub const REIGN_PREPARES: &str = "reign_prepares";
/// `Accepted` votes dropped by a learner: not for a ballot it was running.
pub const VOTES_DROPPED: &str = "votes_dropped";
/// Decisions a reigning leader announced as the note of its next `Accept`.
pub const DECIDES_NOTED: &str = "decides_noted";
/// Held decisions announced by a `Decide` of their own (timer, stop, no run).
pub const DECIDES_FLUSHED: &str = "decides_flushed";
/// Notes received naming a slot with no matching acceptance (nothing learned).
pub const NOTES_UNMATCHED: &str = "notes_unmatched";

// ── Baselines (crates/baselines) snapshot gauges ────────────────────────
/// Queries issued (query/response baseline).
pub const QUERIES_ISSUED: &str = "queries_issued";
/// Responses sent (query/response baseline).
pub const RESPONSES_SENT: &str = "responses_sent";
/// Loser reports sent (query/response baseline).
pub const LOSER_REPORTS_SENT: &str = "loser_reports_sent";
/// Vote rounds retained (query/response baseline).
pub const VOTE_ROUNDS_RETAINED: &str = "vote_rounds_retained";
/// Accusations sent (t-source baseline).
pub const ACCUSATIONS_SENT: &str = "accusations_sent";
/// Accusations that reached a quorum (t-source baseline).
pub const QUORUM_ACCUSATIONS: &str = "quorum_accusations";
/// This process's accusation counter (t-source baseline).
pub const MY_COUNTER: &str = "my_counter";
/// Timer expiries later contradicted (timeout-all baseline).
pub const FALSE_SUSPICIONS: &str = "false_suspicions";
/// Processes currently suspected (timeout-all baseline).
pub const SUSPECTED_NOW: &str = "suspected_now";

// ── Simulator (crates/sim) snapshot gauges ──────────────────────────────
/// Virtual-clock ticks elapsed in the run.
pub const TICKS: &str = "ticks";

// ── Service replica (crates/svc) snapshot gauges ────────────────────────
/// Writes applied to the store, duplicates excluded.
pub const APPLIED: &str = "applied";
/// Keys currently in the store.
pub const KV_ENTRIES: &str = "kv_entries";
/// Order-independent digest of the store: the sum of one hash per binding
/// and per client cursor.
pub const KV_DIGEST: &str = "kv_digest";
/// Duplicate client commands skipped by the session table.
pub const DUP_SKIPS: &str = "dup_skips";
/// Writes this replica sequenced whose ack is still outstanding.
pub const AWAITING: &str = "awaiting";
/// Client requests and reads received, redirected ones included.
pub const REQUESTS: &str = "requests";
/// Client requests redirected to the leader.
pub const REDIRECTS: &str = "redirects";
/// Compaction snapshots exported.
pub const SNAPSHOTS_TAKEN: &str = "snapshots_taken";
/// WAL records appended by this replica.
pub const WAL_APPENDED: &str = "wal_appended";
/// WAL fsync batches issued by this replica.
pub const WAL_SYNCS: &str = "wal_syncs";
/// Reads served from the leader lease without any round trip.
pub const READS_LEASE: &str = "reads_lease";
/// Reads served through a read-index quorum confirmation.
pub const READS_READ_INDEX: &str = "reads_read_index";
/// Stale reads served locally from the apply frontier.
pub const READS_STALE: &str = "reads_stale";
/// Leader lease refreshes (quorum grants collected).
pub const LEASE_REFRESHES: &str = "lease_refreshes";
/// Leader lease expiries (validity window ran out unrefreshed).
pub const LEASE_EXPIRIES: &str = "lease_expiries";
/// Decisions the replica's log holds above its first undecided slot (the
/// frontier). Nonzero beside a frontier that does not move: the log waits
/// on the gap.
pub const DECIDED_AHEAD: &str = "decided_ahead";
/// Protocol turns taken on inbound traffic: one per `on_burst`, however
/// many frames it carried (`on_message` is a burst of one).
pub const BURSTS: &str = "bursts";
/// WAL group commits: turns that had durability events to persist.
pub const WAL_COMMITS: &str = "wal_commits";

// ── Runtime host (crates/runtime) snapshot gauges ───────────────────────
/// Undecodable or off-policy frames dropped by the host loop.
pub const MALFORMED_DROPPED: &str = "malformed_dropped";
/// Frames delivered to the protocol by the host loop.
pub const FRAMES_DELIVERED: &str = "frames_delivered";
/// Sends coalesced by encode-once broadcast fan-out.
pub const SENDS_BATCHED: &str = "sends_batched";
/// Datagrams read off this node's socket (reactor deployments).
pub const FRAMES_RX: &str = "frames_rx";
/// Datagrams written to this node's socket (reactor deployments).
pub const FRAMES_TX: &str = "frames_tx";
/// Frames a co-hosted process handed this node inside its shard, never
/// touching a socket (reactor deployments).
pub const FRAMES_IN_SHARD: &str = "frames_in_shard";
/// High-water send-queue depth on this node's endpoint.
pub const SEND_QUEUE_DEPTH: &str = "send_queue_depth";
/// Frames shed because the send queue was full.
pub const SENDS_SHED: &str = "sends_shed";

// ── Registry metrics: reactor (irs-net) ─────────────────────────────────
/// Datagrams received across all reactor endpoints.
pub const NET_FRAMES_RX: &str = "net_frames_rx";
/// Datagrams successfully written across all reactor endpoints.
pub const NET_FRAMES_TX: &str = "net_frames_tx";
/// Sends coalesced by the reactor's encode-once fan-out.
pub const NET_SENDS_BATCHED: &str = "net_sends_batched";
/// Malformed datagrams dropped by the reactor.
pub const NET_MALFORMED_DROPPED: &str = "net_malformed_dropped";
/// Frames shed at full reactor send queues.
pub const NET_SENDS_SHED: &str = "net_sends_shed";
/// High-water send-queue depth across reactor endpoints.
pub const NET_SEND_QUEUE_DEPTH: &str = "net_send_queue_depth";

// ── Registry metrics: thread-per-node transports (irs-net) ──────────────
/// Malformed datagrams dropped by `UdpTransport`.
pub const UDP_MALFORMED_DROPPED: &str = "udp_malformed_dropped";
/// Sends batched by `UdpTransport` broadcast fan-out.
pub const UDP_SENDS_BATCHED: &str = "udp_sends_batched";
/// Frames dropped by the fault-injecting link model.
pub const LINK_DROPPED: &str = "link_dropped";
/// Frames delivered by the fault-injecting link model.
pub const LINK_DELIVERED: &str = "link_delivered";
/// Frames duplicated by the fault-injecting link model.
pub const LINK_DUPLICATED: &str = "link_duplicated";
/// Stale frames replayed by the fault-injecting link model.
pub const LINK_REPLAYED: &str = "link_replayed";

// ── Registry metrics: runtime event loops (irs-runtime) ─────────────────
/// Poll iterations across host event loops / mux shards.
pub const RUNTIME_POLLS: &str = "runtime_polls";
/// Timer-wheel ticks fired into protocols.
pub const RUNTIME_TIMERS_FIRED: &str = "runtime_timers_fired";
/// Frames the runtime delivered into protocols.
pub const RUNTIME_FRAMES_DELIVERED: &str = "runtime_frames_delivered";
/// Frames between two processes of one shard that the runtime handed over
/// inside the shard instead of through its I/O source.
pub const RUNTIME_FRAMES_IN_SHARD: &str = "runtime_frames_in_shard";
/// Frames per `on_burst` call — how much of a poll reaches one protocol
/// turn (histogram).
pub const RUNTIME_BURST_FRAMES: &str = "runtime_burst_frames";

// ── Registry metrics: service plane (irs-svc) ───────────────────────────
/// Apply-path latency per decided batch, µs (histogram).
pub const SVC_APPLY_MICROS: &str = "svc_apply_micros";
/// Commands per decided batch — batch occupancy (histogram).
pub const SVC_BATCH_COMMANDS: &str = "svc_batch_commands";

// ── Registry metrics: write-ahead log (irs-wal) ─────────────────────────
/// WAL commit latency, µs from append to durable (histogram).
pub const WAL_COMMIT_MICROS: &str = "wal_commit_micros";
/// Records per WAL commit batch (histogram).
pub const WAL_BATCH_RECORDS: &str = "wal_batch_records";

// ── Registry metrics: leader-reign SLO panel (irs-obs reign tracker) ────
/// Completed leader-reign durations, ms (histogram) — the paper's
/// "intermittent rotating star" active-phase distribution, measured on
/// our own leaders.
pub const OMEGA_REIGN_MS: &str = "omega_reign_ms";
/// Completed leader reigns observed (counter).
pub const OMEGA_REIGNS_TOTAL: &str = "omega_reigns_total";
/// Age of the reign currently in progress, ms (gauge).
pub const OMEGA_CURRENT_REIGN_MS: &str = "omega_current_reign_ms";
/// Wall time spent under completed reigns at least the stability
/// threshold long, ms (counter).
pub const OMEGA_STABLE_REIGN_MS: &str = "omega_stable_reign_ms";
/// The stability threshold (K check periods), ms (gauge).
pub const OMEGA_REIGN_STABLE_THRESHOLD_MS: &str = "omega_reign_stable_threshold_ms";
/// Reign trackers feeding this registry — one per hosted node (counter).
pub const OMEGA_REIGN_NODES: &str = "omega_reign_nodes";
/// Process uptime since observability attach, ms (gauge).
pub const OBS_UPTIME_MS: &str = "obs_uptime_ms";
/// p99 of the measured check-period distribution, µs (gauge) — the clock
/// the self-calibrating stable-reign threshold derives from.
pub const OMEGA_CHECK_PERIOD_P99_US: &str = "omega_check_period_p99_us";

/// Every canonical name with its documentation line — the single table
/// the name-hygiene test checks and exposition can consult for `# HELP`.
pub const ALL: &[(&str, &str)] = &[
    (ALIVE_BROADCASTS, "ALIVE broadcasts sent (Ω sending task)"),
    (ROUNDS_CLOSED, "receiving rounds closed"),
    (SUSP_INCREMENTS, "suspicion-counter increments applied"),
    (MAX_TIMER_TICKS, "largest timer value reached"),
    (
        RETAINED_SUSPICION_ROUNDS,
        "suspicion rounds retained in the bounded-memory window",
    ),
    (DECIDED, "1 when the consensus instance has decided"),
    (DECIDED_VALUE, "the decided value, when any"),
    (BALLOTS_STARTED, "ballots opened by this coordinator"),
    (
        LOG_LEN,
        "log frontier: lowest undecided slot, the count of decided slots",
    ),
    (PENDING, "commands waiting for a slot"),
    (SLOTS_DRIVEN, "log slots this leader has driven"),
    (CATCHUPS_SENT, "catchup requests sent"),
    (RETAINED_DECISIONS, "decisions retained after compaction"),
    (COMPACT_FLOOR, "first slot not yet compacted away"),
    (SNAPSHOT_INSTALLS, "peer snapshots installed into the log"),
    (
        PHASE1_SKIPS,
        "slots opened phase-2-direct under an established reign",
    ),
    (REIGN_PREPARES, "reign-scoped prepares broadcast as leader"),
    (
        VOTES_DROPPED,
        "Accepted votes dropped: not for a ballot the learner runs",
    ),
    (
        DECIDES_NOTED,
        "decisions announced as the note of the reign's next Accept",
    ),
    (
        DECIDES_FLUSHED,
        "held decisions announced by a Decide of their own",
    ),
    (
        NOTES_UNMATCHED,
        "notes naming a slot with no matching acceptance (nothing learned)",
    ),
    (QUERIES_ISSUED, "queries issued (query/response baseline)"),
    (RESPONSES_SENT, "responses sent (query/response baseline)"),
    (
        LOSER_REPORTS_SENT,
        "loser reports sent (query/response baseline)",
    ),
    (
        VOTE_ROUNDS_RETAINED,
        "vote rounds retained (query/response baseline)",
    ),
    (ACCUSATIONS_SENT, "accusations sent (t-source baseline)"),
    (
        QUORUM_ACCUSATIONS,
        "accusations that reached a quorum (t-source baseline)",
    ),
    (MY_COUNTER, "own accusation counter (t-source baseline)"),
    (
        FALSE_SUSPICIONS,
        "timer expiries later contradicted (timeout-all baseline)",
    ),
    (
        SUSPECTED_NOW,
        "processes currently suspected (timeout-all baseline)",
    ),
    (TICKS, "virtual-clock ticks elapsed in the simulation run"),
    (APPLIED, "writes applied to the store, duplicates excluded"),
    (KV_ENTRIES, "keys currently in the store"),
    (
        KV_DIGEST,
        "order-independent store digest: one hash per binding and per client cursor, summed",
    ),
    (DUP_SKIPS, "duplicate client commands skipped"),
    (AWAITING, "writes sequenced here whose ack is outstanding"),
    (
        REQUESTS,
        "client requests and reads received, redirected ones included",
    ),
    (REDIRECTS, "client requests redirected to the leader"),
    (SNAPSHOTS_TAKEN, "compaction snapshots exported"),
    (WAL_APPENDED, "WAL records appended by this replica"),
    (WAL_SYNCS, "WAL fsync batches issued by this replica"),
    (READS_LEASE, "reads served from the leader lease"),
    (READS_READ_INDEX, "reads served via read-index confirmation"),
    (READS_STALE, "stale reads served from the apply frontier"),
    (LEASE_REFRESHES, "leader lease refreshes (quorum grants)"),
    (
        LEASE_EXPIRIES,
        "leader lease expiries (unrefreshed windows)",
    ),
    (
        DECIDED_AHEAD,
        "decisions held above the first undecided slot (the frontier)",
    ),
    (BURSTS, "protocol turns taken on inbound traffic"),
    (
        WAL_COMMITS,
        "WAL group commits (turns with events to persist)",
    ),
    (MALFORMED_DROPPED, "off-policy frames dropped by the host"),
    (FRAMES_DELIVERED, "frames delivered to the protocol"),
    (SENDS_BATCHED, "sends coalesced by encode-once fan-out"),
    (FRAMES_RX, "datagrams read off this node's socket"),
    (FRAMES_TX, "datagrams written to this node's socket"),
    (
        FRAMES_IN_SHARD,
        "frames handed to this node inside its shard",
    ),
    (SEND_QUEUE_DEPTH, "high-water send-queue depth on this node"),
    (SENDS_SHED, "frames shed at a full send queue"),
    (NET_FRAMES_RX, "datagrams received across reactor endpoints"),
    (NET_FRAMES_TX, "datagrams written across reactor endpoints"),
    (NET_SENDS_BATCHED, "reactor sends coalesced by fan-out"),
    (
        NET_MALFORMED_DROPPED,
        "malformed datagrams dropped (reactor)",
    ),
    (NET_SENDS_SHED, "frames shed at full reactor send queues"),
    (
        NET_SEND_QUEUE_DEPTH,
        "high-water send-queue depth (reactor)",
    ),
    (
        UDP_MALFORMED_DROPPED,
        "malformed datagrams dropped (UdpTransport)",
    ),
    (UDP_SENDS_BATCHED, "sends batched (UdpTransport fan-out)"),
    (LINK_DROPPED, "frames dropped by the link model"),
    (LINK_DELIVERED, "frames delivered by the link model"),
    (LINK_DUPLICATED, "frames duplicated by the link model"),
    (LINK_REPLAYED, "stale frames replayed by the link model"),
    (RUNTIME_POLLS, "poll iterations across host event loops"),
    (RUNTIME_TIMERS_FIRED, "timer ticks fired into protocols"),
    (
        RUNTIME_FRAMES_DELIVERED,
        "frames the runtime delivered into protocols",
    ),
    (
        RUNTIME_FRAMES_IN_SHARD,
        "frames handed over inside a shard, not through its source",
    ),
    (RUNTIME_BURST_FRAMES, "frames per on_burst protocol turn"),
    (SVC_APPLY_MICROS, "apply-path latency per decided batch, us"),
    (SVC_BATCH_COMMANDS, "commands per decided batch"),
    (WAL_COMMIT_MICROS, "WAL commit latency, us"),
    (WAL_BATCH_RECORDS, "records per WAL commit batch"),
    (OMEGA_REIGN_MS, "completed leader-reign durations, ms"),
    (OMEGA_REIGNS_TOTAL, "completed leader reigns observed"),
    (OMEGA_CURRENT_REIGN_MS, "age of the reign in progress, ms"),
    (
        OMEGA_STABLE_REIGN_MS,
        "wall time under stable (>= threshold) completed reigns, ms",
    ),
    (
        OMEGA_REIGN_STABLE_THRESHOLD_MS,
        "stable-reign threshold (K check periods), ms",
    ),
    (OMEGA_REIGN_NODES, "reign trackers feeding this registry"),
    (
        OBS_UPTIME_MS,
        "process uptime since observability attach, ms",
    ),
    (
        OMEGA_CHECK_PERIOD_P99_US,
        "p99 of the measured check-period distribution, us",
    ),
];

/// Looks up the documentation line for `name` (exposition `# HELP`).
pub fn doc(name: &str) -> Option<&'static str> {
    ALL.iter().find(|(n, _)| *n == name).map(|(_, d)| *d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_snake_case(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            && !name.starts_with('_')
            && !name.ends_with('_')
            && !name.contains("__")
    }

    /// The satellite check: every canonical name is unique, snake_case
    /// and documented.
    #[test]
    fn names_are_unique_snake_case_and_documented() {
        let mut seen = HashSet::new();
        for &(name, doc) in ALL {
            assert!(seen.insert(name), "duplicate metric name {name:?}");
            assert!(is_snake_case(name), "{name:?} is not snake_case");
            assert!(!doc.trim().is_empty(), "{name:?} has no documentation");
        }
    }

    #[test]
    fn doc_lookup_works() {
        assert_eq!(
            doc(APPLIED),
            Some("writes applied to the store, duplicates excluded")
        );
        assert_eq!(doc("no_such_metric"), None);
    }

    #[test]
    fn snake_case_rejects_the_obvious_offenders() {
        for bad in ["", "camelCase", "kebab-case", "_x", "x_", "a__b", "UPPER"] {
            assert!(!is_snake_case(bad), "{bad:?} accepted");
        }
        assert!(is_snake_case("frames_rx2"));
    }
}
