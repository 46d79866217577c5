//! Acceptance tests for the batched/pipelined replication path and
//! snapshot-based log compaction.
//!
//! * Under sustained closed-loop load with a small snapshot interval, every
//!   replica's retained decided prefix must stay bounded by
//!   O(interval + pipeline window) — the log must not grow with traffic.
//!   The run is required to cover ≥ 10× the snapshot interval of slots.
//! * The consistency contract (identical maps, acked prefix survives,
//!   per-key freshness) must hold with batching and pipelining on.
//! * A wiped replica (fresh store, empty log) whose peers have truncated
//!   their history must converge via snapshot install, not per-slot replay.

use irs_consensus::LogMsg;
use irs_svc::loadgen::{check_consistency, closed_loop, ClosedLoopOptions};
use irs_svc::{SvcCluster, SvcConfig, SvcMsg, SvcReplica};
use irs_types::{Actions, Destination, Introspect, ProcessId, Protocol};
use std::time::Duration;

const N: usize = 5;
const CLIENTS: usize = 3;
const BATCH_MAX: usize = 8;
const PIPELINE_DEPTH: u64 = 4;
const SNAPSHOT_INTERVAL: u64 = 8;

#[test]
fn compaction_bounds_log_memory_under_batched_pipelined_load() {
    let config = SvcConfig::new(N, CLIENTS)
        .with_batching(BATCH_MAX, PIPELINE_DEPTH)
        .with_snapshot_interval(SNAPSHOT_INTERVAL);
    let (cluster, mut clients) = SvcCluster::in_memory(N, CLIENTS, config);
    let (report, acked, _) = closed_loop(
        &mut clients,
        ClosedLoopOptions {
            duration: Duration::from_secs(2),
            op_deadline: Duration::from_secs(8),
            ..ClosedLoopOptions::default()
        },
    );
    assert!(report.ops > 0, "no operation acknowledged: {report:?}");

    let finals = cluster.shutdown();
    let refs: Vec<&SvcReplica> = finals.iter().collect();
    if let Err(violation) = check_consistency(&refs, &acked) {
        panic!("batched/pipelined consistency violated: {violation}");
    }

    // The run must have covered many snapshot intervals of traffic, and
    // every replica's retained history must be bounded by the interval plus
    // the pipeline window (slack for decisions landing during the drain).
    let bound = SNAPSHOT_INTERVAL + 2 * PIPELINE_DEPTH + 4;
    for r in &finals {
        let frontier = r.log().frontier_slot();
        assert!(
            frontier >= 10 * SNAPSHOT_INTERVAL,
            "replica {} decided only {frontier} slots — the run is too short \
             to exercise compaction",
            r.id()
        );
        assert!(
            r.log().compact_floor() > 0,
            "replica {} never truncated",
            r.id()
        );
        let retained = r.log().retained_decisions() as u64;
        assert!(
            retained <= bound,
            "replica {} retains {retained} decisions (> {bound}): memory is \
             not bounded by the snapshot interval + pipeline window",
            r.id()
        );
    }
    println!(
        "compaction: {} ops over ≥ {} slots, retained ≤ {bound} per replica",
        report.ops,
        finals[0].log().frontier_slot()
    );
}

#[test]
fn wiped_replica_converges_via_snapshot_install() {
    let config = SvcConfig::new(N, CLIENTS)
        .with_batching(BATCH_MAX, PIPELINE_DEPTH)
        .with_snapshot_interval(SNAPSHOT_INTERVAL);
    let (cluster, mut clients) = SvcCluster::in_memory(N, CLIENTS, config.clone());
    let (report, _, _) = closed_loop(
        &mut clients,
        ClosedLoopOptions {
            duration: Duration::from_secs(1),
            op_deadline: Duration::from_secs(8),
            ..ClosedLoopOptions::default()
        },
    );
    assert!(report.ops > 0, "no operation acknowledged: {report:?}");
    let mut finals = cluster.shutdown();
    let mut loaded = finals.remove(0);
    let loaded_id = loaded.id();
    assert!(
        loaded.log().compact_floor() > 0,
        "run too short: nothing was truncated, per-slot replay would suffice"
    );

    // A wiped replacement for p4: fresh store, empty log, far behind a
    // cluster whose decided history below the floor no longer exists.
    let wiped_id = ProcessId::new(4);
    let mut wiped = config.replica(wiped_id);

    // Catch-up conversation: the wiped replica asks from its frontier, the
    // loaded one answers (snapshot install first, then bounded Decide
    // replays), until the stores agree.
    let mut rounds = 0;
    while wiped.store().digest() != loaded.store().digest() {
        rounds += 1;
        assert!(rounds <= 64, "catch-up did not converge");
        let from = wiped.log().frontier_slot();
        let mut answer = Actions::new();
        loaded.on_message(
            wiped_id,
            &SvcMsg::Log(LogMsg::Catchup { from }),
            &mut answer,
        );
        let mut progressed = false;
        for send in answer.sends() {
            if matches!(send.dest, Destination::To(p) if p == wiped_id) {
                wiped.on_message(loaded_id, &send.msg, &mut Actions::new());
                progressed = true;
            }
        }
        assert!(progressed, "the loaded replica stopped answering");
    }
    assert_eq!(wiped.store().map(), loaded.store().map());
    assert_eq!(
        wiped.snapshot().gauge("snapshot_installs"),
        Some(1),
        "convergence must have gone through the snapshot install path"
    );
    assert_eq!(wiped.log().frontier_slot(), loaded.log().frontier_slot());
    println!(
        "wiped replica converged in {rounds} rounds to digest {:#x} \
         (floor {})",
        wiped.store().digest(),
        wiped.log().compact_floor()
    );
}
