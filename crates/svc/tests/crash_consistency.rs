//! The acceptance test of the service subsystem: an n = 5 KV cluster under
//! a seeded lossy link model, with the current leader crash-stopped in the
//! middle of a closed-loop load. Every surviving replica must converge to
//! an identical applied map, and that map must contain every write any
//! client was acked — no acked command lost, none reordered (per-client
//! applied sequences are monotone by the store's construction; an ack is
//! only ever sent for a write whose effect actually landed).

use irs_net::LinkModel;
use irs_svc::loadgen::{
    await_survivor_convergence, check_consistency, closed_loop, key_for, open_loop, value_for,
    with_leader_crash, AckedWrite, ClientAcks, ClosedLoopOptions, OpenLoopOptions,
};
use irs_svc::{SvcCluster, SvcConfig, SvcReplica};
use irs_types::Protocol;
use std::time::{Duration, Instant};

const N: usize = 5;
const CLIENTS: usize = 3;

#[test]
fn leader_crash_under_lossy_load_keeps_surviving_replicas_identical() {
    // 5% receiver-side loss on every replica link: enough to force retries,
    // catch-ups and duplicate suppression into the picture, while quorums
    // still form. Clients see clean links (the consensus plane is the thing
    // under stress).
    let (cluster, mut clients) =
        SvcCluster::with_link_models(N, CLIENTS, SvcConfig::new(N, CLIENTS), |p| {
            LinkModel::new(0xC4A5_0BAD ^ u64::from(p.as_u32())).with_drop_prob(0.05)
        });

    // Let the cluster elect and the load ramp, then kill whoever leads
    // mid-flight.
    let ((report, acked, _), crashed) =
        with_leader_crash(&cluster, Duration::from_millis(1200), || {
            closed_loop(
                &mut clients,
                ClosedLoopOptions {
                    duration: Duration::from_secs(4),
                    op_deadline: Duration::from_secs(8),
                    ..ClosedLoopOptions::default()
                },
            )
        });

    assert!(
        report.ops > 0,
        "no operation was ever acknowledged: {report:?}"
    );
    let acked_total: usize = acked.iter().map(|c| c.acked.len()).sum();
    assert_eq!(acked_total as u64, report.ops);

    // Give the survivors an idle settle window to finish catch-up, then
    // require their snapshots to agree before freezing the state.
    assert!(
        await_survivor_convergence(&cluster, crashed, Duration::from_secs(30)),
        "survivors never converged on a digest"
    );

    let finals = cluster.shutdown();
    let surviving: Vec<&SvcReplica> = finals.iter().filter(|r| r.id() != crashed).collect();
    assert_eq!(surviving.len(), N - 1);
    if let Err(violation) = check_consistency(&surviving, &acked) {
        panic!("consistency violated after leader crash: {violation}");
    }

    println!(
        "crash-consistency: {} ops acked across {} clients, leader {crashed} crashed, \
         {} survivors identical (digest {:#x})",
        report.ops,
        CLIENTS,
        surviving.len(),
        surviving[0].store().digest()
    );
}

/// The same contract with the batched/pipelined replication path and
/// compaction on: the leader is crash-stopped mid-batch (slots carry up to
/// 8 commands, 4 slots in flight) under seeded loss, and the survivors must
/// still converge to identical maps holding every acked write — a decided
/// batch is applied atomically in order or not at all, and truncated
/// history must not break post-crash catch-up.
#[test]
fn leader_crash_mid_batch_keeps_survivors_identical_under_compaction() {
    let config = SvcConfig::new(N, CLIENTS)
        .with_batching(8, 4)
        .with_snapshot_interval(32);
    let (cluster, mut clients) = SvcCluster::with_link_models(N, CLIENTS, config, |p| {
        LinkModel::new(0xBA7C_4C4A ^ u64::from(p.as_u32())).with_drop_prob(0.05)
    });
    let ((report, acked, _), crashed) =
        with_leader_crash(&cluster, Duration::from_millis(1200), || {
            closed_loop(
                &mut clients,
                ClosedLoopOptions {
                    duration: Duration::from_secs(4),
                    op_deadline: Duration::from_secs(8),
                    ..ClosedLoopOptions::default()
                },
            )
        });
    assert!(
        report.ops > 0,
        "no operation was ever acknowledged: {report:?}"
    );
    assert!(
        await_survivor_convergence(&cluster, crashed, Duration::from_secs(30)),
        "survivors never converged on a digest"
    );
    let finals = cluster.shutdown();
    let surviving: Vec<&SvcReplica> = finals.iter().filter(|r| r.id() != crashed).collect();
    assert_eq!(surviving.len(), N - 1);
    if let Err(violation) = check_consistency(&surviving, &acked) {
        panic!("batched crash-consistency violated: {violation}");
    }
    println!(
        "batched crash-consistency: {} ops acked, leader {crashed} crashed mid-batch, \
         {} survivors identical (digest {:#x}, floor {})",
        report.ops,
        surviving.len(),
        surviving[0].store().digest(),
        surviving[0].log().compact_floor()
    );
}

/// One leader crash under a warmed client: ≥ 32 acked puts feed the
/// client's retransmission clock, the agreed leader is crash-stopped, and
/// one blocking put rides out the crash. Checks that the survivors still
/// hold every acked write; returns how long that put took.
fn put_across_a_leader_crash() -> Duration {
    let (cluster, mut clients) = SvcCluster::in_memory(N, 1, SvcConfig::new(N, 1));
    let client = &mut clients[0];
    let mut acks = ClientAcks {
        client: client.client_id(),
        acked: Vec::new(),
    };
    let mut put = |client: &mut irs_svc::SvcClient<_>| {
        let seq = client.next_seq();
        let key = key_for(acks.client, seq % 8);
        let started = Instant::now();
        let slot = client
            .put(&key, &value_for(seq, 16), Duration::from_secs(8))
            .expect("put acked");
        acks.acked.push(AckedWrite { seq, key, slot });
        started.elapsed()
    };
    for _ in 0..48 {
        put(client);
    }
    assert!(
        client.stats.rto_us > 0 && client.stats.rto_us < 30_000,
        "the warm-up fed the clock: {:?}",
        client.stats
    );
    let settled = Instant::now();
    let leader = loop {
        match cluster.agreed_leader() {
            Some(leader) => break leader,
            None if settled.elapsed() > Duration::from_secs(10) => panic!("no agreed leader"),
            None => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    cluster.crash(leader);
    let outage = put(client);
    assert!(client.stats.retries >= 1, "the dead leader said nothing");
    println!(
        "failover: put across the crash of {leader} acked in {outage:?} ({:?})",
        client.stats
    );

    assert!(
        await_survivor_convergence(&cluster, leader, Duration::from_secs(30)),
        "survivors never converged on a digest"
    );
    let finals = cluster.shutdown();
    let surviving: Vec<&SvcReplica> = finals.iter().filter(|r| r.id() != leader).collect();
    if let Err(violation) = check_consistency(&surviving, &[acks]) {
        panic!("consistency violated after leader crash: {violation}");
    }
    outage
}

/// Failover at election speed: a client that has measured the cluster's
/// round trip waits out a crashed leader on a clock learned from its acks,
/// not on a constant, and listens while it backs off, so the put issued
/// right after the crash returns within 40 ms — a fixed 30 ms wait followed
/// by a 15–22 ms sleep cannot do better than 45. The bound is on the
/// client, not on Ω: when the suite's other tests hold both cores an
/// election can outlast it, so one slow crash is tried again on a fresh
/// cluster; two in a row are the clock's fault.
#[test]
fn a_warmed_client_rides_out_a_leader_crash_within_40_ms() {
    let bound = Duration::from_millis(40);
    let outages: Vec<Duration> = (0..2)
        .map(|_| put_across_a_leader_crash())
        .take_while(|&outage| outage >= bound)
        .collect();
    assert!(outages.len() < 2, "two crashes, two slow puts: {outages:?}");
}

/// The leader acks from the handler that counts the quorum and holds the
/// announcement for its next `Accept` or its next timer turn. Crash it in
/// between: no survivor has been told, but a quorum of them accepted the
/// batch, so the next reign's prepare finds it in a counted report and
/// decides it again (and were there no next reign, a survivor would finish
/// the slot itself) — the survivors end up holding the acked write with no
/// client traffic to prompt them. Ticks of 2 ms put the flush (Ω's send
/// period) up to 20 ms behind the ack, while the crash lands microseconds
/// after it; of three runs at least one must have caught every survivor
/// still a slot behind, or the scenario was not the one tested.
#[test]
fn a_leader_crashed_between_the_ack_and_any_announcement_loses_nothing() {
    const WRITES: u64 = 8;
    let mut caught_behind = 0;
    for _ in 0..3 {
        let config = SvcConfig::new(N, 1).with_tick(Duration::from_millis(2));
        let (cluster, mut clients) = SvcCluster::in_memory(N, 1, config);
        let client = &mut clients[0];
        let mut acks = ClientAcks {
            client: client.client_id(),
            acked: Vec::new(),
        };
        let mut put = |client: &mut irs_svc::SvcClient<_>| {
            let seq = client.next_seq();
            let key = key_for(acks.client, seq % 4);
            let slot = client
                .put(&key, &value_for(seq, 16), Duration::from_secs(20))
                .expect("put acked");
            acks.acked.push(AckedWrite { seq, key, slot });
        };
        for _ in 1..WRITES {
            put(client);
        }
        let settled = Instant::now();
        while cluster.agreed_leader().is_none() {
            assert!(
                settled.elapsed() < Duration::from_secs(10),
                "no agreed leader"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        put(client);
        // The replica that acked, which is not always the one the replicas
        // agreed on a moment before: early in a run Ω can still move.
        let leader = client.answered_by().expect("the put was answered");
        let applied = |p: u32| {
            cluster
                .snapshot(irs_types::ProcessId::new(p))
                .gauge("applied")
        };
        assert_eq!(applied(leader.as_u32()), Some(WRITES), "{leader} acked it");
        cluster.crash(leader);
        let survivors = || (0..N as u32).filter(|&p| p != leader.as_u32());
        if survivors().all(|p| applied(p) < Some(WRITES)) {
            caught_behind += 1;
        }
        let started = Instant::now();
        while !survivors().all(|p| applied(p) == Some(WRITES)) {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "survivors never re-decided the acked write: {:?}",
                survivors().map(applied).collect::<Vec<_>>()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let finals = cluster.shutdown();
        let surviving: Vec<&SvcReplica> = finals.iter().filter(|r| r.id() != leader).collect();
        if let Err(violation) = check_consistency(&surviving, &[acks]) {
            panic!("an acked write was lost with its leader: {violation}");
        }
    }
    assert!(caught_behind > 0, "no crash landed before the flush");
}

/// The open loop's resend-on-silence leaves a healthy cluster alone: from a
/// cold start — the first writes race the election and are redirected —
/// every write fired is acked, none is stranded behind a newer one.
#[test]
fn open_loop_over_a_live_cluster_acks_every_write() {
    let (cluster, mut clients) = SvcCluster::in_memory(N, 1, SvcConfig::new(N, 1));
    let report = open_loop(
        &mut clients[0],
        OpenLoopOptions {
            duration: Duration::from_secs(1),
            interval: Duration::from_millis(2),
            drain: Duration::from_secs(8),
            ..OpenLoopOptions::default()
        },
    );
    cluster.shutdown();
    assert_eq!(report.failures, 0, "{report:?}");
    assert_eq!(report.ops, clients[0].next_seq() - 1, "every write fired");
}
