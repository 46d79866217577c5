//! The three-tier read path end to end: an in-memory n = 5 cluster under
//! mixed read/write load at each [`ReadTier`], with every run's reads
//! machine-checked against the acked write order
//! ([`check_read_linearizability`]) and every run's writes against the
//! surviving state ([`check_consistency`]). A final crash run kills the
//! leader while its lease may still be live and requires linearizable
//! reads to stay linearizable across the reign change — the E16 acceptance
//! invariant, pinned here as a test.

use irs_svc::loadgen::{
    await_survivor_convergence, check_consistency, check_read_linearizability, closed_loop,
    with_leader_crash, ClientReads, ClosedLoopOptions, ObservedRead,
};
use irs_svc::{ReadTier, SvcCluster, SvcConfig, SvcReplica};
use irs_types::Protocol;
use std::time::Duration;

const N: usize = 5;
const CLIENTS: usize = 3;

fn mixed_run(tier: ReadTier, read_pct: u32) {
    let (cluster, mut clients) = SvcCluster::in_memory(N, CLIENTS, SvcConfig::new(N, CLIENTS));
    let (report, acked, reads) = closed_loop(
        &mut clients,
        ClosedLoopOptions {
            duration: Duration::from_millis(1500),
            op_deadline: Duration::from_secs(5),
            read_pct,
            tier,
            ..ClosedLoopOptions::default()
        },
    );
    assert!(report.ops > 0, "no write was acked: {report:?}");
    assert!(report.reads > 0, "no read was answered: {report:?}");
    if let Err(violation) = check_read_linearizability(&reads) {
        panic!("{tier:?} reads violated their guarantee: {violation}");
    }
    let finals = cluster.shutdown();
    let refs: Vec<&SvcReplica> = finals.iter().collect();
    if let Err(violation) = check_consistency(&refs, &acked) {
        panic!("write consistency violated under {tier:?} mix: {violation}");
    }
}

#[test]
fn lease_reads_are_linearizable_under_a_read_heavy_mix() {
    mixed_run(ReadTier::Lease, 95);
}

#[test]
fn read_index_reads_are_linearizable_under_a_balanced_mix() {
    mixed_run(ReadTier::ReadIndex, 50);
}

#[test]
fn stale_reads_never_observe_unissued_values() {
    mixed_run(ReadTier::Stale, 95);
}

/// Leader crash mid-lease: lease reads must remain linearizable across the
/// reign change — a deposed leader must not serve from a lease it can no
/// longer defend, and the new leader's reads must still observe every
/// acked write.
#[test]
fn lease_reads_stay_linearizable_across_a_leader_crash() {
    let (cluster, mut clients) = SvcCluster::in_memory(N, CLIENTS, SvcConfig::new(N, CLIENTS));
    let ((report, acked, reads), crashed) =
        with_leader_crash(&cluster, Duration::from_millis(900), || {
            closed_loop(
                &mut clients,
                ClosedLoopOptions {
                    duration: Duration::from_secs(3),
                    op_deadline: Duration::from_secs(8),
                    read_pct: 95,
                    tier: ReadTier::Lease,
                    ..ClosedLoopOptions::default()
                },
            )
        });
    assert!(report.ops > 0, "no write was acked: {report:?}");
    assert!(report.reads > 0, "no read was answered: {report:?}");
    if let Err(violation) = check_read_linearizability(&reads) {
        panic!("lease reads went non-linearizable across the crash: {violation}");
    }
    assert!(
        await_survivor_convergence(&cluster, crashed, Duration::from_secs(30)),
        "survivors never converged after the crash"
    );
    let finals = cluster.shutdown();
    let surviving: Vec<&SvcReplica> = finals.iter().filter(|r| r.id() != crashed).collect();
    if let Err(violation) = check_consistency(&surviving, &acked) {
        panic!("write consistency violated after leader crash: {violation}");
    }
    println!(
        "crash-lease: {} reads + {} writes acked, leader {crashed} crashed, reads linearizable",
        report.reads, report.ops
    );
}

// ---- The checker itself must catch what it claims to catch ----

fn one_read(
    value_seq: Option<u64>,
    acked_floor: Option<u64>,
    issued_ceiling: Option<u64>,
) -> ObservedRead {
    ObservedRead {
        key: b"k".to_vec(),
        value_seq,
        frontier: 0,
        acked_floor,
        issued_ceiling,
    }
}

fn log_of(tier: ReadTier, reads: Vec<ObservedRead>) -> Vec<ClientReads> {
    vec![ClientReads {
        client: 7,
        tier: Some(tier),
        reads,
    }]
}

#[test]
fn checker_flags_an_acked_write_going_invisible() {
    // The client acked seq 5 on the key, then a lease read returned seq 3.
    let log = log_of(ReadTier::Lease, vec![one_read(Some(3), Some(5), Some(5))]);
    let err = check_read_linearizability(&log).unwrap_err();
    assert!(err.contains("acked"), "wrong violation: {err}");
}

#[test]
fn checker_flags_observed_seqs_going_backwards() {
    let log = log_of(
        ReadTier::ReadIndex,
        vec![
            one_read(Some(4), Some(4), Some(4)),
            one_read(Some(2), None, Some(4)),
        ],
    );
    let err = check_read_linearizability(&log).unwrap_err();
    assert!(err.contains("backwards"), "wrong violation: {err}");
}

#[test]
fn checker_flags_values_never_issued_even_for_stale_reads() {
    // Even a stale read may never observe a seq above what was issued.
    let log = log_of(ReadTier::Stale, vec![one_read(Some(9), None, Some(4))]);
    let err = check_read_linearizability(&log).unwrap_err();
    assert!(err.contains("ceiling"), "wrong violation: {err}");
}

#[test]
fn checker_exempts_stale_reads_from_the_acked_floor() {
    // A stale read lagging the acked floor is within contract.
    let log = log_of(ReadTier::Stale, vec![one_read(Some(3), Some(5), Some(5))]);
    assert!(check_read_linearizability(&log).is_ok());
}

#[test]
fn checker_accepts_a_clean_linearizable_history() {
    let log = log_of(
        ReadTier::Lease,
        vec![
            one_read(None, None, None),
            one_read(Some(2), Some(2), Some(2)),
            one_read(Some(6), Some(6), Some(7)),
        ],
    );
    assert!(check_read_linearizability(&log).is_ok());
}
