//! Whole-log tests: everything here drives a [`ReplicatedLog`] through its
//! handlers and looks at the frames it records. A test of one part's policy
//! alone lives in that part's file, against that part's API.

use super::reign::REIGN_RETRIES;
use super::*;
use irs_types::Destination;
use std::collections::VecDeque;

type Log = ReplicatedLog<irs_omega::OmegaProcess>;
type LogActions = Actions<LogMsg<irs_omega::OmegaMsg, Value>>;

fn system() -> SystemConfig {
    SystemConfig::new(5, 2).unwrap()
}

fn with_batching(id: u32, batch_max: usize, depth: u64) -> Log {
    let system = system();
    ReplicatedLog::new(
        ProcessId::new(id),
        ConsensusConfig::new(system).with_batching(batch_max, depth),
        irs_omega::OmegaProcess::fig3(ProcessId::new(id), system),
    )
}

fn prepared_slots<M, V: LogValue>(out: &Actions<LogMsg<M, V>>) -> Vec<u64> {
    out.sends()
        .iter()
        .filter_map(|s| match &s.msg {
            LogMsg::Slot {
                slot,
                msg: PaxosMsg::Prepare { .. },
            } => Some(*slot),
            _ => None,
        })
        .collect()
}

/// The values assigned to `slot`'s open ballot.
fn assigned(log: &Log, slot: u64) -> Vec<u64> {
    let batch = log.queue.assignment(slot).expect("an assignment");
    batch.iter().map(|v| v.0).collect()
}

/// The single frame a snapshot `state` of at most one chunk travels as.
fn one_chunk(upto: u64, state: Vec<u8>) -> LogMsg<irs_omega::OmegaMsg, Value> {
    LogMsg::SnapshotChunk {
        upto,
        chunk: 0,
        total: 1,
        digest: irs_types::Fnv64::digest_of(&state),
        data: state.into(),
    }
}

#[test]
fn submit_and_empty_log() {
    let mut log = ReplicatedLog::over_omega(ProcessId::new(0), system());
    assert!(log.log().is_empty());
    log.submit(Value(1));
    log.submit(Value(2));
    assert_eq!(log.pending_len(), 2);
    assert_eq!(log.decision(0), None);
}

#[test]
fn leader_drives_the_lowest_undecided_slot() {
    let mut log = ReplicatedLog::over_omega(ProcessId::new(0), system());
    log.submit(Value(7));
    let mut out = Actions::new();
    log.on_start(&mut out);
    let mut out = Actions::new();
    log.on_timer(TIMER_LOG_CHECK, &mut out);
    assert_eq!(prepared_slots(&out), vec![0]);
}

#[test]
fn non_leader_does_not_drive_slots() {
    let mut log = ReplicatedLog::over_omega(ProcessId::new(3), system());
    log.submit(Value(7));
    let mut out = Actions::new();
    log.on_start(&mut out);
    let mut out = Actions::new();
    log.on_timer(TIMER_LOG_CHECK, &mut out);
    assert!(!out
        .sends()
        .iter()
        .any(|s| matches!(s.msg, LogMsg::Slot { .. })));
}

#[test]
fn decided_slot_answers_stragglers_with_decide() {
    let mut log = ReplicatedLog::over_omega(ProcessId::new(0), system());
    log.decided.insert(0, Batch::one(Value(9)));
    let mut out = Actions::new();
    log.on_message(
        ProcessId::new(2),
        &LogMsg::Slot {
            slot: 0,
            msg: PaxosMsg::Prepare {
                b: Ballot::new(1, ProcessId::new(2)),
            },
        },
        &mut out,
    );
    assert_eq!(out.sends().len(), 1);
    assert!(matches!(
        &out.sends()[0].msg,
        LogMsg::Slot { slot: 0, msg: PaxosMsg::Decide { v } } if *v == Batch::one(Value(9))
    ));
}

#[test]
fn decision_removes_matching_pending_value_and_prunes_instances() {
    let mut log = ReplicatedLog::over_omega(ProcessId::new(0), system());
    log.submit(Value(4));
    log.submit(Value(5));
    // Force an instance for slot 0 to exist, then record its decision.
    log.instance(0);
    log.note_decision(0, Batch::one(Value(4)));
    assert_eq!(log.log(), vec![Value(4)]);
    assert_eq!(log.pending_len(), 1);
    assert!(log.instances.is_empty(), "decided slot should be pruned");
    assert!(log.is_decided_value(&Value(4)));
    assert!(!log.is_decided_value(&Value(5)));
    assert!(log.contains_pending(&Value(5)));
    // A decision for a value we did not submit leaves pending untouched.
    log.note_decision(1, Batch::one(Value(99)));
    assert_eq!(log.pending_len(), 1);
    assert_eq!(log.log(), vec![Value(4), Value(99)]);
    assert_eq!(log.frontier_slot(), 2);
}

#[test]
fn non_leader_forwards_pending_values_to_the_leader() {
    let mut log = ReplicatedLog::over_omega(ProcessId::new(3), system());
    log.submit(Value(77));
    let mut out = Actions::new();
    log.on_start(&mut out);
    let mut out = Actions::new();
    log.on_timer(TIMER_LOG_CHECK, &mut out);
    let forwarded: Vec<_> = out
        .sends()
        .iter()
        .filter(|s| matches!(s.msg, LogMsg::Forward { v } if v == Value(77)))
        .collect();
    assert_eq!(forwarded.len(), 1);
    assert!(matches!(forwarded[0].dest, irs_types::Destination::To(p) if p == ProcessId::new(0)));
}

#[test]
fn log_prefix_stops_at_first_gap() {
    let mut log = ReplicatedLog::over_omega(ProcessId::new(0), system());
    log.decided.insert(0, Batch::one(Value(1)));
    log.decided.insert(2, Batch::one(Value(3)));
    assert_eq!(log.log(), vec![Value(1)]);
    log.decided.insert(1, Batch::one(Value(2)));
    assert_eq!(log.log(), vec![Value(1), Value(2), Value(3)]);
}

/// A `Decide` for a slot far above the frontier — 2^40 slots, or the last
/// slot there is — is one retained decision: the frontier and the dense
/// prefix stay where they were, so memory grows with the decisions held,
/// not with the distance to them.
#[test]
fn a_decide_far_above_the_frontier_costs_one_entry() {
    let mut log = ReplicatedLog::over_omega(ProcessId::new(3), system());
    for slot in 0..3 {
        log.note_decision(slot, Batch::one(Value(slot)));
    }
    assert_eq!((log.retained_decisions(), log.decided_ahead()), (3, 0));
    for (far, held) in [(3 + (1 << 40), 4), (u64::MAX, 5)] {
        let decide = LogMsg::Slot {
            slot: far,
            msg: PaxosMsg::Decide {
                v: Batch::one(Value(far)),
            },
        };
        log.on_message(ProcessId::new(0), &decide, &mut Actions::new());
        assert_eq!(log.decision(far), Some(&Batch::one(Value(far))));
        assert_eq!(log.retained_decisions(), held, "one entry for slot {far}");
        assert_eq!((log.frontier_slot(), log.compact_floor()), (3, 0));
        assert_eq!(log.decided_ahead(), held - 3, "the prefix holds 3");
    }
    assert_eq!(log.log(), vec![Value(0), Value(1), Value(2)]);
}

/// A replica that has seen traffic for a slot it has not decided asks
/// the cluster for a replay at the next check tick; a peer holding the
/// decisions answers with `Decide`s, which close the gap.
#[test]
fn lagging_replica_catches_up_via_catchup_replay() {
    let mut lagging: ReplicatedLog<_, Value> =
        ReplicatedLog::over_omega(ProcessId::new(3), system());
    // Traffic for slot 2 arrives (e.g. the leader is already driving
    // it); slots 0..=2 are undecided here.
    let mut out = Actions::new();
    lagging.on_message(
        ProcessId::new(0),
        &LogMsg::Slot {
            slot: 2,
            msg: PaxosMsg::Prepare {
                b: Ballot::new(1, ProcessId::new(0)),
            },
        },
        &mut out,
    );
    let mut out = Actions::new();
    lagging.on_timer(TIMER_LOG_CHECK, &mut out);
    let catchups: Vec<u64> = out
        .sends()
        .iter()
        .filter_map(|s| match s.msg {
            LogMsg::Catchup { from } => Some(from),
            _ => None,
        })
        .collect();
    assert_eq!(catchups, vec![0], "behind replica must request slot 0 up");

    // A peer with decisions 0..=2 answers the request…
    let mut peer = ReplicatedLog::over_omega(ProcessId::new(0), system());
    for slot in 0..3u64 {
        peer.note_decision(slot, Batch::one(Value(10 + slot)));
    }
    let mut answer = Actions::new();
    peer.on_message(ProcessId::new(3), &LogMsg::Catchup { from: 0 }, &mut answer);
    assert_eq!(answer.sends().len(), 3);

    // …and replaying the answer closes the gap at the lagging replica.
    for send in answer.sends() {
        lagging.on_message(ProcessId::new(0), &send.msg, &mut Actions::new());
    }
    assert_eq!(
        lagging.log(),
        vec![Value(10), Value(11), Value(12)],
        "replayed decisions close the gap"
    );
    // Once caught up (frontier above everything seen), the next check
    // sends no further catch-up request.
    let mut out = Actions::new();
    lagging.on_timer(TIMER_LOG_CHECK, &mut out);
    assert!(!out
        .sends()
        .iter()
        .any(|s| matches!(s.msg, LogMsg::Catchup { .. })));
}

/// With `batch_max > 1` the leader drains several pending values into
/// the one slot it opens.
#[test]
fn leader_batches_pending_values_into_one_slot() {
    let mut log = with_batching(0, 4, 1);
    for v in 1..=3 {
        log.submit(Value(v));
    }
    let mut out = Actions::new();
    log.drive(&mut out);
    assert_eq!(prepared_slots(&out), vec![0], "one slot, one ballot");
    assert_eq!(assigned(&log, 0), vec![1, 2, 3], "all three ride the batch");
    assert_eq!(log.pending_len(), 3, "in-flight values still count");
    assert!(!log.queue.has_unassigned(), "nothing left unassigned");
    // A second drive is a no-op while the ballot is in flight.
    let mut out = Actions::new();
    log.drive(&mut out);
    assert!(out.sends().is_empty());
    // The decision retires the whole batch at once.
    log.note_decision(0, Batch::new(vec![Value(1), Value(2), Value(3)]));
    assert_eq!(log.pending_len(), 0);
    assert_eq!(log.log(), vec![Value(1), Value(2), Value(3)]);
    assert_eq!(log.frontier_slot(), 1);
}

/// With `pipeline_depth > 1` the leader opens one ballot per pending
/// value across consecutive slots, and a decision slides the window.
#[test]
fn pipelined_leader_opens_a_window_of_slots() {
    let mut log = with_batching(0, 1, 3);
    for v in 1..=5 {
        log.submit(Value(v));
    }
    let mut out = Actions::new();
    log.drive(&mut out);
    assert_eq!(prepared_slots(&out), vec![0, 1, 2], "window of 3 ballots");
    assert_eq!(
        log.queue.unassigned().len(),
        2,
        "two wait outside the window"
    );
    // Slot 1 decides out of order: the frontier stays at 0, the window
    // does not move yet (slot 3 = frontier 0 + depth 3 is the edge).
    log.note_decision(1, Batch::one(Value(2)));
    let mut out = Actions::new();
    log.drive(&mut out);
    assert!(out.sends().is_empty(), "window still full at frontier 0");
    // Slot 0 decides: the frontier jumps to 2 and two new slots open.
    log.note_decision(0, Batch::one(Value(1)));
    let mut out = Actions::new();
    log.drive(&mut out);
    assert_eq!(prepared_slots(&out), vec![3, 4], "window slid to 2..5");
    assert!(!log.queue.has_unassigned());
}

/// A transient leadership bounce reclaims the in-flight assignments but
/// cannot unset an instance's proposal. When leadership returns, the
/// orphaned frontier slot must still be restarted by the periodic check
/// — otherwise its ballot is driven by nobody and the log wedges.
#[test]
fn orphaned_frontier_proposal_is_restarted_after_re_leadership() {
    let mut log = with_batching(0, 1, 1);
    log.submit(Value(9));
    let mut out = Actions::new();
    log.drive(&mut out);
    assert_eq!(prepared_slots(&out), vec![0]);
    // Ω flickers away and back: the not-leader check path reclaims the
    // assignment (so the value could be forwarded), orphaning slot 0's
    // instance with its proposal still set.
    log.queue.reclaim_below(u64::MAX, &log.decided);
    assert!(!log.queue.is_assigned(0));
    assert_eq!(log.queue.unassigned().front(), Some(&Value(9)));
    // Leading again: drive() must not re-assign the value to the
    // orphaned slot (its ballot may still decide the old proposal)…
    let mut out = Actions::new();
    log.drive(&mut out);
    assert!(out.sends().is_empty(), "orphan slots are not re-driven");
    // …but the check tick must restart the orphaned ballot once it is
    // seen stalled, so slot 0 still decides and the frontier advances.
    let mut restarts = 0;
    for _ in 0..2 {
        let mut out = Actions::new();
        log.on_timer(TIMER_LOG_CHECK, &mut out);
        restarts += prepared_slots(&out).iter().filter(|&&s| s == 0).count();
    }
    assert!(restarts >= 1, "orphaned slot 0 was never restarted");
}

/// Truncation drops the decided prefix behind a snapshot, serves
/// sub-floor catch-ups with the snapshot — one frame of it, for a small
/// blob — and points sub-floor ballot traffic at it with an offer.
#[test]
fn truncation_compacts_and_serves_snapshot_installs() {
    let mut log = ReplicatedLog::over_omega(ProcessId::new(0), system());
    for slot in 0..10u64 {
        log.note_decision(slot, Batch::one(Value(slot)));
    }
    assert_eq!(log.retained_decisions(), 10);
    log.truncate_below(10, vec![0xAB; 32]);
    assert_eq!(log.retained_decisions(), 0);
    assert_eq!(log.compact_floor(), 10);
    assert_eq!(log.frontier_slot(), 10, "truncation never loses progress");
    assert!(log.log().is_empty(), "the log view starts at the floor");
    // Re-truncating below the floor is a no-op.
    log.truncate_below(5, vec![0u8; 1]);
    assert_eq!(log.compact_floor(), 10);
    // A catch-up from below the floor gets the snapshot…
    let mut out = Actions::new();
    log.on_message(ProcessId::new(3), &LogMsg::Catchup { from: 0 }, &mut out);
    assert!(
        matches!(
            out.sends(),
            [s] if matches!(&s.msg, LogMsg::SnapshotChunk { upto: 10, chunk: 0, total: 1, data, .. } if data.len() == 32)
        ),
        "sub-floor catch-up must be answered with the snapshot: {:?}",
        out.sends()
    );
    // …and sub-floor ballot traffic gets an offer.
    let mut out = Actions::new();
    log.on_message(
        ProcessId::new(3),
        &LogMsg::Slot {
            slot: 2,
            msg: PaxosMsg::Prepare {
                b: Ballot::new(1, ProcessId::new(3)),
            },
        },
        &mut out,
    );
    assert!(matches!(
        out.sends()[0].msg,
        LogMsg::SnapshotOffer { upto: 10 }
    ));
}

/// The receiving side of the snapshot flow: an offer prompts a
/// catch-up, the install is parked for the host, and completing it
/// jumps the frontier and adopts the snapshot for serving.
#[test]
fn offers_prompt_catchup_and_installs_complete_via_the_host() {
    let mut lagging: ReplicatedLog<_, Value> =
        ReplicatedLog::over_omega(ProcessId::new(3), system());
    let mut out = Actions::new();
    lagging.on_message(
        ProcessId::new(0),
        &LogMsg::SnapshotOffer { upto: 10 },
        &mut out,
    );
    assert!(
        matches!(out.sends()[0].msg, LogMsg::Catchup { from: 0 }),
        "an offer above the frontier prompts a catch-up"
    );
    lagging.on_message(
        ProcessId::new(0),
        &one_chunk(10, vec![0xCD; 16]),
        &mut Actions::new(),
    );
    let (upto, parked) = lagging.take_pending_install().expect("install parked");
    assert_eq!((upto, parked.len()), (10, 16));
    assert!(lagging.take_pending_install().is_none(), "taken once");
    assert_eq!(lagging.frontier_slot(), 0, "nothing moves before the host");
    lagging.complete_install(upto, parked);
    assert_eq!(lagging.frontier_slot(), 10);
    assert_eq!(lagging.compact_floor(), 10);
    // The installed snapshot is now servable to even-further-behind
    // peers.
    let mut out = Actions::new();
    lagging.on_message(ProcessId::new(4), &LogMsg::Catchup { from: 0 }, &mut out);
    assert_eq!(out.sends()[0].msg, one_chunk(10, vec![0xCD; 16]));
    // A stale offer at or below the frontier is ignored.
    let mut out = Actions::new();
    lagging.on_message(
        ProcessId::new(0),
        &LogMsg::SnapshotOffer { upto: 10 },
        &mut out,
    );
    assert!(out.sends().is_empty());
}

/// Every snapshot rides the chunk plane; one of at most a chunk costs what
/// the retired single-frame install cost: exactly one frame, pushed
/// unprompted with the replay behind it, served as the blob itself (no
/// copy), and parked for the host by the handler that receives it.
#[test]
fn a_snapshot_of_one_chunk_is_one_unprompted_frame_parked_by_its_handler() {
    let mut server = Log::over_omega(ProcessId::new(0), system());
    for slot in 0..6u64 {
        server.note_decision(slot, Batch::one(Value(slot)));
    }
    let blob: Arc<[u8]> = vec![0x5A; SNAPSHOT_CHUNK_LEN].into();
    server.truncate_below(4, Arc::clone(&blob));
    let mut out = Actions::new();
    server.on_message(ProcessId::new(3), &LogMsg::Catchup { from: 1 }, &mut out);
    let [snapshot, replay @ ..] = out.sends() else {
        panic!("an empty answer");
    };
    let LogMsg::SnapshotChunk { data, .. } = &snapshot.msg else {
        panic!("the snapshot leads the answer: {snapshot:?}");
    };
    assert!(Arc::ptr_eq(data, &blob), "served as the blob, not a copy");
    assert_eq!(snapshot.msg, one_chunk(4, blob.to_vec()));
    assert!(out
        .sends()
        .iter()
        .all(|s| s.dest == Destination::To(ProcessId::new(3))));
    let replayed: Vec<u64> = replay
        .iter()
        .map(|s| match &s.msg {
            LogMsg::Slot {
                slot,
                msg: PaxosMsg::Decide { .. },
            } => *slot,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(replayed, vec![4, 5], "the retained tail follows");
    assert_eq!(server.chunks_served(), 1);
    // The receiver parks it in that one handler and asks for nothing.
    let mut lagging = Log::over_omega(ProcessId::new(3), system());
    let mut out = Actions::new();
    lagging.on_message(ProcessId::new(0), &snapshot.msg, &mut out);
    assert!(out.is_empty(), "{:?}", out.sends());
    let (upto, parked) = lagging.take_pending_install().expect("parked at once");
    assert_eq!(upto, 4);
    assert_eq!(parked, blob);
    assert!(!lagging.transfer.assembling());
    // One byte more is two frames, both inside the unprompted window.
    let mut server = Log::over_omega(ProcessId::new(0), system());
    server.note_decision(0, Batch::one(Value(0)));
    server.truncate_below(1, vec![0x5A; SNAPSHOT_CHUNK_LEN + 1]);
    let mut out = Actions::new();
    server.on_message(ProcessId::new(3), &LogMsg::Catchup { from: 0 }, &mut out);
    assert_eq!(out.sends().len(), 2);
    assert_eq!(server.chunks_served(), 2);
}

/// The chunk plane through the log's handlers: a pull request is served,
/// a request for a snapshot the floor has moved past is pointed at the
/// newer one, a received chunk is evidence of the slots below it, and a
/// stalled assembly re-requests at the check tick (the geometry, the
/// window and the resume themselves are `transfer.rs`'s tests).
#[test]
fn chunk_requests_are_served_and_a_stalled_assembly_resumes_at_the_check() {
    let mut server = Log::over_omega(ProcessId::new(0), system());
    for slot in 0..8u64 {
        server.note_decision(slot, Batch::one(Value(slot)));
    }
    let blob: Vec<u8> = (0..2 * SNAPSHOT_CHUNK_LEN + 5)
        .map(|i| (i % 251) as u8)
        .collect();
    server.truncate_below(4, blob.clone());
    let p3 = ProcessId::new(3);
    let ask = |server: &mut Log, upto, chunk| {
        let mut out = Actions::new();
        server.on_message(p3, &LogMsg::SnapshotChunkRequest { upto, chunk }, &mut out);
        out
    };
    let served = ask(&mut server, 4, 2);
    assert!(matches!(
        served.sends(),
        [s] if s.dest == Destination::To(p3)
            && matches!(&s.msg, LogMsg::SnapshotChunk { upto: 4, chunk: 2, total: 3, data, .. } if data.len() == 5)
    ));
    assert!(ask(&mut server, 4, 3).is_empty(), "a garbage index");
    assert!(ask(&mut server, 9, 0).is_empty(), "a snapshot we never had");
    // The puller takes chunk 2 (evidence of slots below 4, so the next
    // check also asks for a replay), then hears nothing more.
    let mut lagging = Log::over_omega(p3, system());
    lagging.on_message(
        ProcessId::new(0),
        &served.sends()[0].msg,
        &mut Actions::new(),
    );
    assert!(lagging.transfer.assembling());
    let requests = |out: &LogActions| -> Vec<u32> {
        out.sends()
            .iter()
            .filter_map(|s| match s.msg {
                LogMsg::SnapshotChunkRequest { upto: 4, chunk } => {
                    assert_eq!(s.dest, Destination::To(ProcessId::new(0)));
                    Some(chunk)
                }
                _ => None,
            })
            .collect()
    };
    let mut first = Actions::new();
    lagging.on_timer(TIMER_LOG_CHECK, &mut first);
    assert!(requests(&first).is_empty(), "progress since the last check");
    assert!(first
        .sends()
        .iter()
        .any(|s| matches!(s.msg, LogMsg::Catchup { from: 0 })));
    let mut second = Actions::new();
    lagging.on_timer(TIMER_LOG_CHECK, &mut second);
    assert_eq!(requests(&second), vec![0, 1]);
    assert_eq!(lagging.chunk_rerequests(), 2);
    // The server's floor moves on: the old snapshot's chunks are gone.
    server.truncate_below(8, vec![1u8; 8]);
    let moved = ask(&mut server, 4, 0);
    assert!(matches!(
        moved.sends(),
        [s] if matches!(s.msg, LogMsg::SnapshotOffer { upto: 8 })
    ));
}

/// The memory-bound pin at the consensus level: under sustained load
/// with periodic truncation (≥ 10 intervals of traffic), retained
/// decisions never exceed interval + pipeline window.
#[test]
fn retained_decisions_stay_bounded_under_periodic_truncation() {
    const INTERVAL: u64 = 16;
    let mut log = with_batching(0, 2, 4);
    let mut last_snap = 0u64;
    for slot in 0..(INTERVAL * 12) {
        log.note_decision(slot, Batch::one(Value(slot)));
        let frontier = log.frontier_slot();
        if frontier >= last_snap + INTERVAL {
            log.truncate_below(frontier, vec![0u8; 8]);
            last_snap = frontier;
        }
        assert!(
            log.retained_decisions() as u64 <= INTERVAL + log.depth(),
            "retention leak at slot {slot}: {} decisions held",
            log.retained_decisions()
        );
    }
    assert_eq!(log.compact_floor(), INTERVAL * 12);
    assert_eq!(log.retained_decisions(), 0);
}

/// With durability enabled, fresh acceptances and decisions are
/// recorded as drainable events — acceptances *before* the Accepted
/// vote is released (same event round), decisions once per slot.
#[test]
fn durability_events_record_accepts_and_decides_once() {
    let mut log: ReplicatedLog<_, Value> = ReplicatedLog::over_omega(ProcessId::new(1), system());
    log.set_durable(true);
    let b = Ballot::new(1, ProcessId::new(0));
    let batch = Batch::one(Value(42));
    let accept = LogMsg::Slot {
        slot: 0,
        msg: PaxosMsg::Accept {
            b,
            v: batch.clone(),
        },
    };
    log.on_message(ProcessId::new(0), &accept, &mut Actions::new());
    let events = log.take_wal_events();
    assert_eq!(
        events,
        vec![LogEvent::Accepted {
            slot: 0,
            ballot: b,
            value: batch.clone(),
        }]
    );
    assert!(log.take_wal_events().is_empty(), "drained once");
    // A re-delivered identical Accept must not re-record.
    log.on_message(ProcessId::new(0), &accept, &mut Actions::new());
    assert!(
        log.take_wal_events().is_empty(),
        "duplicate accept is not a fresh acceptance"
    );
    // The decision records once, even if delivered twice.
    let decide = LogMsg::Slot {
        slot: 0,
        msg: PaxosMsg::Decide { v: batch.clone() },
    };
    log.on_message(ProcessId::new(2), &decide, &mut Actions::new());
    log.on_message(ProcessId::new(4), &decide, &mut Actions::new());
    assert_eq!(
        log.take_wal_events(),
        vec![LogEvent::Decided {
            slot: 0,
            value: batch,
        }]
    );
    // With durability off (the default), nothing accumulates.
    let mut plain: ReplicatedLog<_, Value> = ReplicatedLog::over_omega(ProcessId::new(2), system());
    plain.on_message(ProcessId::new(0), &accept, &mut Actions::new());
    assert!(plain.take_wal_events().is_empty());
    // The proposer votes for its own value without a loopback frame, so
    // its acceptance must be an event of the very handler that emits
    // the `Accept` — the host commits events before releasing sends.
    let (mut leader, reign, _) = established_leader(1);
    leader.set_durable(true);
    leader.submit(Value(7));
    let mut out = Actions::new();
    leader.drive(&mut out);
    assert_eq!(accept_slots(&out), vec![(0, Batch::one(Value(7)))]);
    assert_eq!(
        leader.take_wal_events(),
        vec![LogEvent::Accepted {
            slot: 0,
            ballot: reign,
            value: Batch::one(Value(7)),
        }],
        "the own acceptance precedes the outbound Accept"
    );
    // The same holds on the classic path, where phase 2 opens in the
    // handler of the quorum-completing `Promise`.
    let mut classic = with_batching(0, 1, 1);
    classic.set_durable(true);
    classic.submit(Value(8));
    let mut out = Actions::new();
    classic.drive(&mut out);
    let b = out
        .sends()
        .iter()
        .find_map(|s| match &s.msg {
            LogMsg::Slot {
                msg: PaxosMsg::Prepare { b },
                ..
            } => Some(*b),
            _ => None,
        })
        .expect("a classic opening prepares");
    assert!(
        classic.take_wal_events().is_empty(),
        "phase 1 accepts nothing"
    );
    let mut out = Actions::new();
    for peer in [1, 2, 3] {
        out = Actions::new();
        classic.on_message(
            ProcessId::new(peer),
            &LogMsg::Slot {
                slot: 0,
                msg: PaxosMsg::Promise { b, accepted: None },
            },
            &mut out,
        );
    }
    assert_eq!(accept_slots(&out), vec![(0, Batch::one(Value(8)))]);
    assert_eq!(
        classic.take_wal_events(),
        vec![LogEvent::Accepted {
            slot: 0,
            ballot: b,
            value: Batch::one(Value(8)),
        }]
    );
}

/// The recovery constructor rebuilds exactly the state a never-crashed
/// replica would hold: floor and frontier from the snapshot, retained
/// decisions replayed, undecided acceptances binding again.
#[test]
fn recover_rebuilds_floor_decisions_and_acceptances() {
    let system = system();
    let snapshot: Arc<[u8]> = vec![0xEE; 24].into();
    let b = Ballot::new(3, ProcessId::new(2));
    let log: ReplicatedLog<_, Value> = ReplicatedLog::recover(
        ProcessId::new(1),
        ConsensusConfig::new(system),
        irs_omega::OmegaProcess::fig3(ProcessId::new(1), system),
        Some((10, Arc::clone(&snapshot))),
        vec![
            (10, Batch::one(Value(100))),
            (11, Batch::one(Value(101))),
            // A WAL record for a slot the snapshot already covers must
            // be inert.
            (3, Batch::one(Value(3))),
        ],
        vec![
            (12, b, Batch::one(Value(102))),
            // An acceptance for an already-decided slot is superseded.
            (11, b, Batch::one(Value(999))),
        ],
    );
    assert_eq!(log.compact_floor(), 10);
    assert_eq!(log.frontier_slot(), 12);
    assert_eq!(log.log(), vec![Value(100), Value(101)]);
    let restored: Vec<_> = log.accepted_states().collect();
    assert_eq!(restored.len(), 1);
    assert_eq!(restored[0].0, 12);
    assert_eq!(restored[0].1, b);
    // The restored acceptance is binding: a lower-ballot Prepare gets
    // no promise from the recovered acceptor.
    let mut recovered = log;
    let mut out = Actions::new();
    recovered.on_message(
        ProcessId::new(0),
        &LogMsg::Slot {
            slot: 12,
            msg: PaxosMsg::Prepare {
                b: Ballot::new(1, ProcessId::new(0)),
            },
        },
        &mut out,
    );
    assert!(
        !out.sends().iter().any(|s| matches!(
            &s.msg,
            LogMsg::Slot {
                msg: PaxosMsg::Promise { .. },
                ..
            }
        )),
        "a recovered acceptor must not promise below its restored ballot"
    );
    // And the snapshot is servable again.
    let mut out = Actions::new();
    recovered.on_message(ProcessId::new(4), &LogMsg::Catchup { from: 0 }, &mut out);
    assert_eq!(out.sends()[0].msg, one_chunk(10, vec![0xEE; 24]));
}

// ---- The reign fast path (phase-1 skip) ------------------------------

fn skip_leader(id: u32, depth: u64) -> Log {
    let system = system();
    ReplicatedLog::new(
        ProcessId::new(id),
        ConsensusConfig::new(system)
            .with_batching(1, depth)
            .with_phase1_skip(true),
        irs_omega::OmegaProcess::fig3(ProcessId::new(id), system),
    )
}

fn reign_prepare<M, V: LogValue>(out: &Actions<LogMsg<M, V>>) -> Option<(Ballot, u64)> {
    out.sends().iter().find_map(|s| match &s.msg {
        LogMsg::PrepareReign { b, from } => Some((*b, *from)),
        _ => None,
    })
}

fn accept_slots<M, V: LogValue>(out: &Actions<LogMsg<M, V>>) -> Vec<(u64, Batch<V>)> {
    out.sends()
        .iter()
        .filter_map(|s| match &s.msg {
            LogMsg::Slot {
                slot,
                msg: PaxosMsg::Accept { v, .. },
            } => Some((*slot, v.clone())),
            _ => None,
        })
        .collect()
}

/// Drives a fresh skip-enabled leader through establishment: start, one
/// check (broadcasts the reign prepare), then a quorum of promises from
/// peers 1 and 2 plus the self-delivered one (`Destination::All`
/// includes the sender). Returns the log, the reign ballot, and the
/// actions of the quorum-completing delivery.
fn established_leader(depth: u64) -> (Log, Ballot, LogActions) {
    let mut log = skip_leader(0, depth);
    let mut out = Actions::new();
    log.on_start(&mut out);
    let mut out = Actions::new();
    log.on_timer(TIMER_LOG_CHECK, &mut out);
    let (b, first) = reign_prepare(&out).expect("a skip-enabled leader begins its reign");
    let mut out = Actions::new();
    log.on_message(
        ProcessId::new(0),
        &LogMsg::PrepareReign { b, from: first },
        &mut out,
    );
    let own_promise = out.sends()[0].msg.clone();
    let mut out = Actions::new();
    log.on_message(ProcessId::new(0), &own_promise, &mut out);
    let mut out = Actions::new();
    for peer in [1, 2] {
        out = Actions::new();
        log.on_message(
            ProcessId::new(peer),
            &LogMsg::PromiseReign {
                b,
                from: first,
                accepted: Vec::new(),
            },
            &mut out,
        );
    }
    (log, b, out)
}

#[test]
fn reign_establishes_then_opens_slots_accept_only() {
    let mut log = skip_leader(0, 1);
    log.submit(Value(7));
    let mut out = Actions::new();
    log.on_start(&mut out);
    let mut out = Actions::new();
    log.on_timer(TIMER_LOG_CHECK, &mut out);
    // The first check broadcasts the reign prepare and opens no slot:
    // queued values wait out the one-off establishment round trip.
    let (b, first) = reign_prepare(&out).expect("leader must begin its reign");
    assert_eq!(first, 0);
    assert_eq!(b.reign_epoch(), 1);
    assert!(prepared_slots(&out).is_empty());
    assert!(accept_slots(&out).is_empty());
    assert_eq!(log.reign_prepares(), 1);
    // Route the leader's own prepare back to it; it promises itself.
    let mut out = Actions::new();
    log.on_message(
        ProcessId::new(0),
        &LogMsg::PrepareReign { b, from: first },
        &mut out,
    );
    let own_promise = out.sends()[0].msg.clone();
    assert!(matches!(own_promise, LogMsg::PromiseReign { .. }));
    let mut out = Actions::new();
    log.on_message(ProcessId::new(0), &own_promise, &mut out);
    assert!(!log.reign_established(), "one promise is not a quorum");
    // Two peer promises complete the quorum (n − t = 3); establishment
    // immediately drives the queued value with an Accept-only opening.
    let mut out = Actions::new();
    for peer in [1, 2] {
        out = Actions::new();
        log.on_message(
            ProcessId::new(peer),
            &LogMsg::PromiseReign {
                b,
                from: first,
                accepted: Vec::new(),
            },
            &mut out,
        );
    }
    assert!(log.reign_established());
    assert_eq!(accept_slots(&out), vec![(0, Batch::one(Value(7)))]);
    assert!(
        prepared_slots(&out).is_empty(),
        "no per-slot Prepare on the fast path"
    );
    assert_eq!(log.phase1_skips(), 1);
}

#[test]
fn establishment_adopts_reported_acceptances_before_new_values() {
    let mut log = skip_leader(0, 2);
    log.submit(Value(7));
    let mut out = Actions::new();
    log.on_start(&mut out);
    let mut out = Actions::new();
    log.on_timer(TIMER_LOG_CHECK, &mut out);
    let (b, first) = reign_prepare(&out).expect("reign prepare");
    // A quorum of peer promises, one reporting an acceptance a previous
    // leader left on slot 0 — the phase-1 value rule, applied once for
    // the whole range, must re-propose it under the reign ballot.
    let stale = Ballot::new(4, ProcessId::new(4));
    let mut out = Actions::new();
    log.on_message(
        ProcessId::new(1),
        &LogMsg::PromiseReign {
            b,
            from: first,
            accepted: vec![(0, stale, Batch::one(Value(42)))],
        },
        &mut out,
    );
    for peer in [2, 3] {
        out = Actions::new();
        log.on_message(
            ProcessId::new(peer),
            &LogMsg::PromiseReign {
                b,
                from: first,
                accepted: Vec::new(),
            },
            &mut out,
        );
    }
    assert!(log.reign_established());
    let accepts = accept_slots(&out);
    assert!(
        accepts.contains(&(0, Batch::one(Value(42)))),
        "the reported acceptance is re-proposed, not overwritten: {accepts:?}"
    );
    assert!(
        accepts.contains(&(1, Batch::one(Value(7)))),
        "the fresh value rides the next free slot: {accepts:?}"
    );
    assert!(prepared_slots(&out).is_empty());
    assert_eq!(log.phase1_skips(), 2);
}

#[test]
fn higher_epoch_traffic_ends_the_reign() {
    let (mut log, b, _) = established_leader(1);
    assert!(log.reign_established());
    // Per-slot traffic carrying a newer reign epoch proves another
    // process is (or was) leading; our reign's ballots can no longer
    // win, so the fast path must stop using them.
    let usurper = Ballot::for_reign(b.reign_epoch() + 1, ProcessId::new(4));
    let mut out = Actions::new();
    log.on_message(
        ProcessId::new(4),
        &LogMsg::Slot {
            slot: 0,
            msg: PaxosMsg::Prepare { b: usurper },
        },
        &mut out,
    );
    assert!(!log.reign_established());
    // If Ω still points here, the next check starts over with an epoch
    // that outbids the usurper.
    let mut out = Actions::new();
    log.on_timer(TIMER_LOG_CHECK, &mut out);
    let (b2, _) = reign_prepare(&out).expect("a new reign begins");
    assert!(b2.reign_epoch() > usurper.reign_epoch());
    assert!(b2 > usurper);
}

#[test]
fn unanswered_reign_prepare_falls_back_to_per_slot_ballots() {
    let mut log = skip_leader(0, 1);
    log.submit(Value(7));
    let mut out = Actions::new();
    log.on_start(&mut out);
    let mut out = Actions::new();
    log.on_timer(TIMER_LOG_CHECK, &mut out);
    let (b, first) = reign_prepare(&out).expect("reign prepare");
    // The next REIGN_RETRIES checks re-broadcast the same prepare…
    for _ in 0..REIGN_RETRIES {
        let mut out = Actions::new();
        log.on_timer(TIMER_LOG_CHECK, &mut out);
        assert_eq!(
            reign_prepare(&out),
            Some((b, first)),
            "a stalled prepare is re-broadcast unchanged"
        );
        assert!(prepared_slots(&out).is_empty());
    }
    // …then the fast path is abandoned and liveness reverts to the
    // classic per-slot two-phase opening.
    let mut out = Actions::new();
    log.on_timer(TIMER_LOG_CHECK, &mut out);
    assert_eq!(reign_prepare(&out), None);
    assert_eq!(prepared_slots(&out), vec![0]);
    assert_eq!(log.phase1_skips(), 0);
    assert_eq!(log.reign_prepares(), 1);
}

// ---- Leader-centric phase 2: who talks to whom ------------------------

/// `n` skip-enabled replicas (depth 1, batch 1) with replica 0's reign
/// established by routing its `PrepareReign` round through the real
/// handlers. Ω traffic is not routed: every fresh oracle already points
/// at replica 0.
fn reign_cluster(n: usize, t: usize) -> Vec<Log> {
    let sys = SystemConfig::new(n, t).unwrap();
    let mut logs: Vec<_> = sys
        .processes()
        .map(|id| {
            ReplicatedLog::new(
                id,
                ConsensusConfig::new(sys).with_phase1_skip(true),
                irs_omega::OmegaProcess::fig3(id, sys),
            )
        })
        .collect();
    let mut out = Actions::new();
    logs[0].on_timer(TIMER_LOG_CHECK, &mut out);
    route(&mut logs, 0, out);
    assert!(logs[0].reign_established());
    logs
}

/// Delivers the log messages in `out` (sent by replica `from`) and
/// everything they trigger, in FIFO order, until quiescence. Returns
/// every delivered `(from, to, message)`.
fn route(
    logs: &mut [Log],
    from: usize,
    out: LogActions,
) -> Vec<(usize, usize, LogMsg<irs_omega::OmegaMsg, Value>)> {
    route_around(logs, from, out, None)
}

/// [`route`] with replica `dead` crashed: nothing is delivered to it.
fn route_around(
    logs: &mut [Log],
    from: usize,
    out: LogActions,
    dead: Option<usize>,
) -> Vec<(usize, usize, LogMsg<irs_omega::OmegaMsg, Value>)> {
    let n = logs.len();
    let mut queue = VecDeque::new();
    let enqueue = |queue: &mut VecDeque<_>, from: usize, out: LogActions| {
        for send in out.into_parts().0 {
            if matches!(send.msg, LogMsg::Omega(_)) {
                continue;
            }
            let targets: Vec<usize> = match send.dest {
                Destination::To(q) => vec![q.index()],
                Destination::AllOthers => (0..n).filter(|i| *i != from).collect(),
                Destination::All => (0..n).collect(),
            };
            for to in targets.into_iter().filter(|to| Some(*to) != dead) {
                queue.push_back((from, to, send.msg.clone()));
            }
        }
    };
    enqueue(&mut queue, from, out);
    let mut delivered = Vec::new();
    while let Some((from, to, msg)) = queue.pop_front() {
        let mut out = Actions::new();
        logs[to].on_message(ProcessId::new(from as u32), &msg, &mut out);
        delivered.push((from, to, msg));
        enqueue(&mut queue, to, out);
    }
    delivered
}

/// Classifies delivered log frames as `[Accept (plain or noting),
/// Accepted, Decide, other]` counts, checking who may send what.
fn frame_counts(delivered: &[(usize, usize, LogMsg<irs_omega::OmegaMsg, Value>)]) -> [usize; 4] {
    let mut counts = [0usize; 4];
    for (from, to, msg) in delivered {
        let kind = match msg {
            LogMsg::AcceptNoting { .. }
            | LogMsg::Slot {
                msg: PaxosMsg::Accept { .. },
                ..
            } => {
                assert_eq!(*from, 0);
                0
            }
            LogMsg::Slot {
                msg: PaxosMsg::Accepted { .. },
                ..
            } => {
                assert_eq!(*to, 0, "votes go to the ballot owner only");
                1
            }
            LogMsg::Slot {
                msg: PaxosMsg::Decide { .. },
                ..
            } => {
                assert_eq!(*from, 0, "only the owner announces");
                2
            }
            _ => 3,
        };
        assert_ne!(from, to, "no loopback frames in phase 2");
        counts[kind] += 1;
    }
    counts
}

/// Replica 0 submits `v`, drives, and the traffic is routed to
/// quiescence (no timer fires). Returns the delivered frames.
fn put(logs: &mut [Log], v: u64) -> Vec<(usize, usize, LogMsg<irs_omega::OmegaMsg, Value>)> {
    logs[0].submit(Value(v));
    let mut out = Actions::new();
    logs[0].drive(&mut out);
    route(logs, 0, out)
}

/// The steady-state budget: `k` consecutive slots on an established
/// reign cost 2(n − 1)·k peer frames — every decision but the last rides
/// the next slot's `Accept` — plus one (n − 1)-frame `Decide` flush for
/// the last slot at the leader's next timer turn (any timer), and nothing
/// after it: no loopback, no vote fan-out, no echoed or replied `Decide`.
#[test]
fn an_established_reign_slot_costs_exactly_two_times_n_minus_one_frames() {
    const K: u64 = 6;
    for (n, t) in [(5, 2), (3, 1)] {
        let mut logs = reign_cluster(n, t);
        let mut counts = [0usize; 4];
        for v in 0..K {
            for (total, more) in counts.iter_mut().zip(frame_counts(&put(&mut logs, v))) {
                *total += more;
            }
        }
        let per_kind = (n - 1) * K as usize;
        assert_eq!(counts, [per_kind, per_kind, 0, 0], "n = {n}");
        let all: Vec<Value> = (0..K).map(Value).collect();
        assert_eq!(logs[0].log(), all);
        for follower in &logs[1..] {
            assert_eq!(
                follower.log(),
                all[..all.len() - 1],
                "n = {n}: one slot behind"
            );
        }
        // The oracle's send timer is a timer of the log: the held
        // decision leaves as one `Decide` broadcast.
        let mut out = Actions::new();
        logs[0].on_timer(irs_omega::TIMER_BROADCAST, &mut out);
        let flush = frame_counts(&route(&mut logs, 0, out));
        assert_eq!(flush, [0, 0, n - 1, 0], "n = {n}");
        for log in &logs {
            assert_eq!(log.log(), all, "n = {n}");
        }
        let mut out = Actions::new();
        logs[0].on_timer(irs_omega::TIMER_BROADCAST, &mut out);
        assert_eq!(frame_counts(&route(&mut logs, 0, out)), [0; 4], "n = {n}");
        let gauge = |name| logs[0].snapshot().gauge(name);
        assert_eq!(gauge(irs_obs::names::DECIDES_NOTED), Some(K - 1));
        assert_eq!(gauge(irs_obs::names::DECIDES_FLUSHED), Some(1));
        assert!(logs[1..]
            .iter()
            .all(|l| l.snapshot().gauge(irs_obs::names::NOTES_UNMATCHED) == Some(0)));
    }
}

// ---- Held announcements: the note on the reign's next `Accept` --------

fn reign_ballot() -> Ballot {
    Ballot::for_reign(1, ProcessId::new(0))
}

fn plain_accept(slot: u64, b: Ballot, v: u64) -> LogMsg<irs_omega::OmegaMsg, Value> {
    LogMsg::Slot {
        slot,
        msg: PaxosMsg::Accept {
            b,
            v: Batch::one(Value(v)),
        },
    }
}

/// `Accept(slot, b, v)` noting `noted_len` slots from `noted_from`.
fn noting(
    slot: u64,
    b: Ballot,
    v: u64,
    noted_from: u64,
    noted_len: u64,
) -> LogMsg<irs_omega::OmegaMsg, Value> {
    LogMsg::AcceptNoting {
        slot,
        b,
        v: Batch::one(Value(v)),
        noted_from,
        noted_len,
    }
}

fn follower() -> Log {
    ReplicatedLog::over_omega(ProcessId::new(3), system())
}

/// The slots of the `Accepted` votes and the `from`s of the `Catchup`s
/// in `out`, and nothing else may be in it.
fn votes_and_asks(out: &LogActions) -> (Vec<u64>, Vec<u64>) {
    let (mut votes, mut asks) = (Vec::new(), Vec::new());
    for send in out.sends() {
        assert_eq!(send.dest, Destination::To(ProcessId::new(0)), "{send:?}");
        match &send.msg {
            LogMsg::Slot {
                slot,
                msg: PaxosMsg::Accepted { .. },
            } => votes.push(*slot),
            LogMsg::Catchup { from } => asks.push(*from),
            other => panic!("unexpected {other:?}"),
        }
    }
    (votes, asks)
}

/// The happy path at a follower: the note turns the acceptance it holds
/// at that ballot into the decision, in the handler that accepts the next
/// slot — `Decided(s)` and `Accepted(s + 1)` are one batch of durability
/// events — and the only frame it sends is the new slot's vote.
#[test]
fn a_note_decides_the_batch_accepted_at_its_ballot_in_the_accepts_own_turn() {
    let (b, p0) = (reign_ballot(), ProcessId::new(0));
    let mut log = follower();
    log.set_durable(true);
    log.on_message(p0, &plain_accept(0, b, 7), &mut Actions::new());
    log.take_wal_events();
    let mut out = Actions::new();
    log.on_message(p0, &noting(1, b, 8, 0, 1), &mut out);
    assert_eq!(log.log(), vec![Value(7)]);
    assert_eq!(votes_and_asks(&out), (vec![1], vec![]));
    assert_eq!(
        log.take_wal_events(),
        vec![
            LogEvent::Decided {
                slot: 0,
                value: Batch::one(Value(7)),
            },
            LogEvent::Accepted {
                slot: 1,
                ballot: b,
                value: Batch::one(Value(8)),
            },
        ]
    );
    // A duplicate of the frame changes nothing and asks nothing.
    let mut out = Actions::new();
    log.on_message(p0, &noting(1, b, 8, 0, 1), &mut out);
    assert_eq!(votes_and_asks(&out), (vec![1], vec![]));
    assert!(log.take_wal_events().is_empty());
    assert_eq!(
        log.snapshot().gauge(irs_obs::names::NOTES_UNMATCHED),
        Some(0)
    );
}

/// A note claims only "chosen at `b`". A follower that holds no
/// acceptance at exactly `b` for a noted slot — it never saw the
/// `Accept`, or accepted the slot at some other ballot — must learn
/// nothing from it, and asks the leader to replay at once.
#[test]
fn a_note_without_a_matching_acceptance_teaches_nothing_and_asks() {
    let (b, p0) = (reign_ballot(), ProcessId::new(0));
    // Never accepted.
    let mut log = follower();
    let mut out = Actions::new();
    log.on_message(p0, &noting(1, b, 8, 0, 1), &mut out);
    assert_eq!(log.decision(0), None);
    assert_eq!(votes_and_asks(&out), (vec![1], vec![0]));
    // It asks at once, but once per check period: the answer to the
    // first question is on its way, and a lossy link at a high slot rate
    // must not turn every lost `Accept` into a full replay.
    log.on_message(p0, &plain_accept(3, b, 10), &mut Actions::new());
    let mut out = Actions::new();
    log.on_message(p0, &noting(4, b, 11, 2, 2), &mut out);
    assert_eq!(votes_and_asks(&out), (vec![4], vec![]));
    assert_eq!(log.decision(3), Some(&Batch::one(Value(10))));
    log.on_timer(TIMER_LOG_CHECK, &mut Actions::new());
    let mut out = Actions::new();
    log.on_message(p0, &noting(6, b, 13, 5, 1), &mut out);
    assert_eq!(votes_and_asks(&out), (vec![6], vec![0]));
    assert_eq!(
        log.snapshot().gauge(irs_obs::names::NOTES_UNMATCHED),
        Some(3)
    );
    // Accepted under a rival's higher ballot, and under a lower one of
    // the same owner: neither is the proposal ballot `b` chose.
    let rival = Ballot::for_reign(2, ProcessId::new(4));
    let earlier = Ballot::new(1, p0);
    for other in [rival, earlier] {
        let mut log = follower();
        log.on_message(
            other.proposer,
            &plain_accept(0, other, 66),
            &mut Actions::new(),
        );
        let mut out = Actions::new();
        log.on_message(p0, &noting(1, b, 8, 0, 1), &mut out);
        assert_eq!(log.decision(0), None, "accepted at {other:?}");
        assert!(log.log().is_empty());
        assert_eq!(
            votes_and_asks(&out),
            (vec![1], vec![0]),
            "accepted at {other:?}"
        );
        assert_eq!(
            log.snapshot().gauge(irs_obs::names::NOTES_UNMATCHED),
            Some(1)
        );
    }
    // One unmatched slot in a longer run: the matched ones are learned,
    // and the replay is asked from the gap.
    let mut log = follower();
    log.on_message(p0, &plain_accept(0, b, 7), &mut Actions::new());
    log.on_message(p0, &plain_accept(2, b, 9), &mut Actions::new());
    let mut out = Actions::new();
    log.on_message(p0, &noting(3, b, 10, 0, 3), &mut out);
    assert_eq!(log.decision(0), Some(&Batch::one(Value(7))));
    assert_eq!(log.decision(1), None);
    assert_eq!(log.decision(2), Some(&Batch::one(Value(9))));
    assert_eq!(votes_and_asks(&out), (vec![3], vec![1]));
    // The leader's answer is the ordinary replay.
    let mut leader = follower();
    for (slot, v) in [(0, 7), (1, 8), (2, 9)] {
        leader.note_decision(slot, Batch::one(Value(v)));
    }
    let mut replay = Actions::new();
    leader.on_message(ProcessId::new(3), &LogMsg::Catchup { from: 1 }, &mut replay);
    for send in replay.sends() {
        log.on_message(p0, &send.msg, &mut Actions::new());
    }
    assert_eq!(log.log(), vec![Value(7), Value(8), Value(9)]);
}

/// Notes that have nothing left to teach — the slot is decided here
/// already, or lies below the compaction floor — change nothing and ask
/// nothing; a note is believed only from the ballot's owner; and a
/// hostile length is walked no further than [`NOTED_MAX`].
#[test]
fn a_note_for_a_settled_slot_or_from_a_stranger_is_inert() {
    let (b, p0) = (reign_ballot(), ProcessId::new(0));
    // Already decided (here: something the note's ballot did not choose
    // — whatever it was, the decision stands).
    let mut log = follower();
    log.on_message(p0, &plain_accept(0, b, 7), &mut Actions::new());
    log.note_decision(0, Batch::one(Value(5)));
    let mut out = Actions::new();
    log.on_message(p0, &noting(1, b, 8, 0, 1), &mut out);
    assert_eq!(log.log(), vec![Value(5)]);
    assert_eq!(votes_and_asks(&out), (vec![1], vec![]));
    // Below the floor.
    let mut log: ReplicatedLog<_, Value> = ReplicatedLog::recover(
        ProcessId::new(3),
        ConsensusConfig::new(system()),
        irs_omega::OmegaProcess::fig3(ProcessId::new(3), system()),
        Some((2, vec![0xEE; 4].into())),
        Vec::new(),
        Vec::new(),
    );
    let mut out = Actions::new();
    log.on_message(p0, &noting(2, b, 9, 0, 2), &mut out);
    assert_eq!((log.compact_floor(), log.frontier_slot()), (2, 2));
    assert_eq!(votes_and_asks(&out), (vec![2], vec![]));
    // From a process that does not own the ballot: the `Accept` is an
    // `Accept` (its vote goes to the owner), the note is noise.
    let mut log = follower();
    log.on_message(p0, &plain_accept(0, b, 7), &mut Actions::new());
    let mut out = Actions::new();
    log.on_message(ProcessId::new(2), &noting(1, b, 8, 0, 1), &mut out);
    assert_eq!(log.decision(0), None);
    assert_eq!(votes_and_asks(&out), (vec![1], vec![]));
    // A length no codec would admit still terminates, as one question.
    let mut out = Actions::new();
    log.on_message(p0, &noting(2, b, 9, 1, u64::MAX), &mut out);
    assert_eq!(votes_and_asks(&out), (vec![2], vec![0]));
    assert_eq!(log.decision(1), Some(&Batch::one(Value(8))));
}

/// Completes `slot`'s quorum at the leader with votes from p1 and p2.
fn vote_quorum(leader: &mut Log, slot: u64, b: Ballot, v: &Batch<Value>) -> LogActions {
    let mut out = Actions::new();
    for peer in [1, 2] {
        let vote = LogMsg::Slot {
            slot,
            msg: PaxosMsg::Accepted { b, v: v.clone() },
        };
        leader.on_message(ProcessId::new(peer), &vote, &mut out);
    }
    out
}

/// Every slot some send in `outs` announces: `(noted, by own Decide)`.
fn announced(outs: &[&LogActions]) -> (Vec<u64>, Vec<u64>) {
    let (mut noted, mut decides) = (Vec::new(), Vec::new());
    for send in outs.iter().flat_map(|out| out.sends()) {
        match &send.msg {
            LogMsg::AcceptNoting {
                noted_from,
                noted_len,
                ..
            } => noted.extend(*noted_from..noted_from + noted_len),
            LogMsg::Slot {
                slot,
                msg: PaxosMsg::Decide { .. },
            } => {
                assert_eq!(send.dest, Destination::AllOthers);
                decides.push(*slot);
            }
            _ => {}
        }
    }
    (noted, decides)
}

/// A held decision never rides an `Accept` of another ballot: when the
/// reign ends, or leadership is lost, it leaves as a plain `Decide` — at
/// the next timer, or beside the first `Accept` of the next reign — and
/// a quorum that completes after the reign is gone announces at once.
#[test]
fn leadership_loss_and_reign_end_flush_by_decide() {
    // Reign end, then a new reign before any timer fires.
    let (mut leader, b, _) = established_leader(1);
    leader.submit(Value(7));
    let mut out = Actions::new();
    leader.drive(&mut out);
    let v = accept_slots(&out).remove(0).1;
    assert!(vote_quorum(&mut leader, 0, b, &v).sends().is_empty());
    let usurper = Ballot::for_reign(b.reign_epoch() + 1, ProcessId::new(4));
    let prepare = LogMsg::Slot {
        slot: 1,
        msg: PaxosMsg::Prepare { b: usurper },
    };
    leader.on_message(ProcessId::new(4), &prepare, &mut Actions::new());
    assert!(!leader.reign_established());
    leader.submit(Value(8));
    let mut out = Actions::new();
    leader.drive(&mut out);
    let (b2, from) = reign_prepare(&out).expect("a fresh reign");
    assert_eq!(
        announced(&[&out]),
        (vec![], vec![]),
        "nothing to carry it yet"
    );
    let mut out = Actions::new();
    for peer in [1, 2, 3] {
        let promise = LogMsg::PromiseReign {
            b: b2,
            from,
            accepted: Vec::new(),
        };
        leader.on_message(ProcessId::new(peer), &promise, &mut out);
    }
    assert_eq!(accept_slots(&out), vec![(1, Batch::one(Value(8)))]);
    assert_eq!(announced(&[&out]), (vec![], vec![0]));
    // Leadership loss (what `drive` and `check` do when Ω points
    // elsewhere), then the next timer.
    let (mut leader, b, _) = established_leader(2);
    leader.submit(Value(7));
    leader.submit(Value(8));
    let mut out = Actions::new();
    leader.drive(&mut out);
    let batches = accept_slots(&out);
    assert!(vote_quorum(&mut leader, 0, b, &batches[0].1)
        .sends()
        .is_empty());
    leader.reign.abandon();
    // The second slot's quorum arrives late: not a reign decision any
    // more, so its one `Decide` leaves from the handler.
    let late = vote_quorum(&mut leader, 1, b, &batches[1].1);
    assert_eq!(announced(&[&late]), (vec![], vec![1]));
    let mut tick = Actions::new();
    leader.on_timer(irs_omega::TIMER_ROUND, &mut tick);
    assert_eq!(announced(&[&tick]), (vec![], vec![0]));
    // And the host's stop is a flush too.
    let (mut leader, b, _) = established_leader(1);
    leader.submit(Value(7));
    let mut out = Actions::new();
    leader.drive(&mut out);
    let v = accept_slots(&out).remove(0).1;
    vote_quorum(&mut leader, 0, b, &v);
    let mut stop = Actions::new();
    leader.on_quiesce(&mut stop);
    assert_eq!(announced(&[&stop]), (vec![], vec![0]));
    assert!(stop.timers().is_empty());
    let mut again = Actions::new();
    leader.on_quiesce(&mut again);
    assert!(again.is_empty());
}

/// The held entry owns its batch: a host that compacts the decision away
/// before the announcement leaves (snapshot interval shorter than the
/// flush) still announces it, batch and all.
#[test]
fn an_announcement_survives_the_truncation_of_its_decision() {
    let (mut leader, b, _) = established_leader(1);
    leader.submit(Value(7));
    let mut out = Actions::new();
    leader.drive(&mut out);
    let v = accept_slots(&out).remove(0).1;
    vote_quorum(&mut leader, 0, b, &v);
    leader.truncate_below(1, vec![0u8; 4]);
    assert_eq!(leader.decision(0), None);
    let mut tick = Actions::new();
    leader.on_timer(irs_omega::TIMER_BROADCAST, &mut tick);
    assert!(tick.sends().iter().any(|s| matches!(
        &s.msg,
        LogMsg::Slot { slot: 0, msg: PaxosMsg::Decide { v: sent } } if *sent == v
    )));
}

/// The votes that trail every decision (n − quorum of them per slot),
/// and late promises, are answers to our own ballot: they draw no
/// `Decide`. A proposer-side message for the decided slot still does.
#[test]
fn votes_and_promises_for_a_decided_slot_draw_no_reply() {
    let mut logs = reign_cluster(5, 2);
    logs[0].submit(Value(7));
    let mut out = Actions::new();
    logs[0].drive(&mut out);
    let (b, batch) = out
        .sends()
        .iter()
        .find_map(|s| match &s.msg {
            LogMsg::Slot {
                msg: PaxosMsg::Accept { b, v },
                ..
            } => Some((*b, v.clone())),
            _ => None,
        })
        .expect("the put opens with an Accept");
    route(&mut logs, 0, out);
    assert_eq!(logs[0].frontier_slot(), 1);
    let slot_msg = |msg| LogMsg::Slot { slot: 0, msg };
    for late in [
        slot_msg(PaxosMsg::Accepted {
            b,
            v: batch.clone(),
        }),
        slot_msg(PaxosMsg::Promise { b, accepted: None }),
        slot_msg(PaxosMsg::Decide { v: batch.clone() }),
    ] {
        let mut out = Actions::new();
        logs[0].on_message(ProcessId::new(4), &late, &mut out);
        assert!(out.sends().is_empty(), "{late:?} drew {:?}", out.sends());
    }
    assert_eq!(logs[0].votes_dropped(), 0, "late is not misrouted");
    for lagging in [
        slot_msg(PaxosMsg::Prepare { b }),
        slot_msg(PaxosMsg::Accept {
            b,
            v: batch.clone(),
        }),
    ] {
        let mut out = Actions::new();
        logs[0].on_message(ProcessId::new(4), &lagging, &mut out);
        assert!(matches!(
            out.sends(),
            [send] if matches!(&send.msg, LogMsg::Slot { slot: 0, msg: PaxosMsg::Decide { v } } if *v == batch)
        ));
    }
    // Below the compaction floor the same rule picks who gets an offer.
    logs[0].truncate_below(1, vec![0u8; 4]);
    let mut out = Actions::new();
    logs[0].on_message(
        ProcessId::new(4),
        &slot_msg(PaxosMsg::Accepted { b, v: batch }),
        &mut out,
    );
    assert!(out.sends().is_empty(), "a late vote is no straggler");
}

/// A follower records the owner's `Decide` and sends nothing: no echo,
/// no vote, no catch-up.
#[test]
fn a_follower_that_receives_decide_sends_nothing() {
    let mut follower: ReplicatedLog<_, Value> =
        ReplicatedLog::over_omega(ProcessId::new(3), system());
    let mut out = Actions::new();
    follower.on_message(
        ProcessId::new(0),
        &LogMsg::Slot {
            slot: 0,
            msg: PaxosMsg::Decide {
                v: Batch::one(Value(5)),
            },
        },
        &mut out,
    );
    assert_eq!(follower.log(), vec![Value(5)]);
    assert!(out.sends().is_empty(), "sent {:?}", out.sends());
}

/// A vote for a ballot this replica does not run at that slot is
/// dropped by the learner and shows up in the replica's gauge.
#[test]
fn misrouted_votes_are_dropped_and_counted() {
    let mut logs = reign_cluster(5, 2);
    let foreign = Ballot::for_reign(9, ProcessId::new(2));
    for from in 1..5 {
        let mut out = Actions::new();
        logs[0].on_message(
            ProcessId::new(from),
            &LogMsg::Slot {
                slot: 0,
                msg: PaxosMsg::Accepted {
                    b: foreign,
                    v: Batch::one(Value(66)),
                },
            },
            &mut out,
        );
        assert!(out.sends().is_empty());
    }
    assert_eq!(logs[0].decision(0), None, "foreign votes decide nothing");
    assert_eq!(logs[0].votes_dropped(), 4);
    let snap = logs[0].snapshot();
    assert!(snap.extra.contains(&(irs_obs::names::VOTES_DROPPED, 4)));
}

/// An idle leader advertises its frontier once per check period: the
/// only way a replica that lost both the `Accept` and the `Decide` of
/// the last slot hears of it. Whoever is behind asks — the receiver, or
/// (told so by a receiver that is ahead) the advertiser itself.
#[test]
fn an_idle_leader_advertises_its_frontier_and_whoever_is_behind_asks() {
    let mut logs = reign_cluster(5, 2);
    let offers = |out: &LogActions| -> Vec<u64> {
        out.sends()
            .iter()
            .filter_map(|s| match s.msg {
                LogMsg::SnapshotOffer { upto } => Some(upto),
                _ => None,
            })
            .collect()
    };
    // Nothing decided yet: nothing to advertise.
    let mut out = Actions::new();
    logs[0].on_timer(TIMER_LOG_CHECK, &mut out);
    assert!(offers(&out).is_empty());
    // Decide slot 0 everywhere but at replica 4, which hears nothing of
    // it: neither the `Accept` nor the `Decide`.
    logs[0].submit(Value(7));
    let mut out = Actions::new();
    logs[0].drive(&mut out);
    let mut ignorant = logs.pop().expect("five replicas");
    route(&mut logs, 0, out);
    assert_eq!(logs[0].frontier_slot(), 1);
    let mut out = Actions::new();
    ignorant.on_timer(TIMER_LOG_CHECK, &mut out);
    ignorant.on_timer(TIMER_LOG_CHECK, &mut out);
    assert!(out.sends().is_empty(), "it has no reason to ask");
    // The tick that sees the frontier move advertises nothing: it
    // announces the decision no later `Accept` carried off. Only the
    // next one, a period later, advertises.
    let mut out = Actions::new();
    logs[0].on_timer(TIMER_LOG_CHECK, &mut out);
    assert!(offers(&out).is_empty());
    assert_eq!(frame_counts(&route(&mut logs, 0, out)), [0, 0, 3, 0]);
    assert_eq!(logs[1].frontier_slot(), 1);
    let mut out = Actions::new();
    logs[0].on_timer(TIMER_LOG_CHECK, &mut out);
    assert_eq!(offers(&out), vec![1]);
    assert!(matches!(
        out.sends().iter().find(|s| matches!(s.msg, LogMsg::SnapshotOffer { .. })),
        Some(s) if s.dest == Destination::AllOthers
    ));
    // The replica that is behind asks, and the replay closes the gap.
    let mut ask = Actions::new();
    ignorant.on_message(
        ProcessId::new(0),
        &LogMsg::SnapshotOffer { upto: 1 },
        &mut ask,
    );
    assert!(matches!(
        ask.sends()[..],
        [ref s] if matches!(s.msg, LogMsg::Catchup { from: 0 })
    ));
    let mut replay = Actions::new();
    logs[0].on_message(ProcessId::new(4), &ask.sends()[0].msg, &mut replay);
    for send in replay.sends() {
        ignorant.on_message(ProcessId::new(0), &send.msg, &mut Actions::new());
    }
    assert_eq!(ignorant.log(), vec![Value(7)]);
    // A replica that is level says nothing; one that is ahead of the
    // advertiser tells it so.
    let mut out = Actions::new();
    logs[1].on_message(
        ProcessId::new(0),
        &LogMsg::SnapshotOffer { upto: 1 },
        &mut out,
    );
    assert!(out.sends().is_empty());
    let mut out = Actions::new();
    logs[1].on_message(
        ProcessId::new(0),
        &LogMsg::SnapshotOffer { upto: 0 },
        &mut out,
    );
    assert_eq!(offers(&out), vec![1]);
}

/// Acceptors drop outbid ballots silently, so a leader whose ballots
/// keep stalling while nothing decides ends its reign and mints a fresh
/// epoch instead of crawling up one attempt per period forever.
#[test]
fn persistently_stalled_ballots_end_the_reign() {
    let (mut log, b, _) = established_leader(1);
    log.submit(Value(7));
    let mut out = Actions::new();
    log.drive(&mut out);
    assert_eq!(accept_slots(&out).len(), 1);
    // Nobody answers. Each check restarts the stalled ballot one
    // attempt higher, inside the old epoch…
    for _ in 0..REIGN_RETRIES {
        assert!(log.reign_established());
        let mut out = Actions::new();
        log.on_timer(TIMER_LOG_CHECK, &mut out);
        assert_eq!(prepared_slots(&out), vec![0]);
        assert_eq!(reign_prepare(&out), None);
    }
    // …until the reign is given up for a new, higher epoch.
    let mut out = Actions::new();
    log.on_timer(TIMER_LOG_CHECK, &mut out);
    let (fresh, from) = reign_prepare(&out).expect("a fresh reign is minted");
    assert!(fresh.reign_epoch() > b.reign_epoch());
    assert_eq!(from, 0);
    assert!(!log.reign_established());
}

/// A minority that still answers — the rest promised a newer reign this
/// leader never heard of — moves the stalled slot's progress counter, so
/// only every other check restarts its ballot. The frontier standing
/// still under an open proposal is what counts: the reign still ends.
#[test]
fn a_minority_that_still_answers_does_not_keep_a_stalled_reign_alive() {
    let (mut log, b, _) = established_leader(1);
    log.submit(Value(7));
    log.drive(&mut Actions::new());
    let mut fresh = None;
    for _ in 0..=REIGN_RETRIES {
        assert!(log.reign_established());
        let mut out = Actions::new();
        log.on_timer(TIMER_LOG_CHECK, &mut out);
        fresh = reign_prepare(&out);
        // p1 alone answers whatever was restarted.
        for send in out.sends() {
            if let LogMsg::Slot {
                slot,
                msg: PaxosMsg::Prepare { b },
            } = &send.msg
            {
                let promise = LogMsg::Slot {
                    slot: *slot,
                    msg: PaxosMsg::Promise {
                        b: *b,
                        accepted: None,
                    },
                };
                log.on_message(ProcessId::new(1), &promise, &mut Actions::new());
            }
        }
    }
    let (fresh, _) = fresh.expect("the reign ended within REIGN_RETRIES + 1 still periods");
    assert!(fresh.reign_epoch() > b.reign_epoch());
}

/// The leader died between its quorum and any announcement, and the
/// oracle keeps naming it: nobody will ever prepare a reign. A follower
/// that holds the slot's acceptance waits out `REIGN_RETRIES` still
/// periods of unanswered catch-ups, then — on its turn — runs the slot's
/// ballot itself, re-proposing what it accepted, and the slot decides
/// everywhere, at the replica that never saw the `Accept` too.
#[test]
fn a_stalled_frontier_slot_is_finished_without_a_leader() {
    let mut logs = reign_cluster(5, 2);
    logs[0].submit(Value(7));
    let mut out = Actions::new();
    logs[0].drive(&mut out);
    // The `Accept` reaches p1..p3; p4 hears nothing. p0 decides (it could
    // ack) and is never heard from again.
    let accept = out.sends()[0].msg.clone();
    for follower in &mut logs[1..4] {
        follower.on_message(ProcessId::new(0), &accept, &mut Actions::new());
    }
    let mut finisher = None;
    for period in 1..=(REIGN_RETRIES + 5) {
        for i in 1..5 {
            let mut out = Actions::new();
            logs[i].on_timer(TIMER_LOG_CHECK, &mut out);
            let prepares = prepared_slots(&out);
            assert!(
                prepares.is_empty() || period > REIGN_RETRIES,
                "period {period}: too early to give up on a leader"
            );
            if !prepares.is_empty() {
                assert_eq!(prepares, vec![0]);
                finisher.get_or_insert(i);
            }
            route_around(&mut logs, i, out, Some(0));
        }
    }
    let finisher = finisher.expect("some survivor took its turn");
    assert!(finisher < 4, "only a replica holding the acceptance can");
    for log in &logs[1..] {
        assert_eq!(log.log(), vec![Value(7)], "replica {}", log.id());
    }
}

/// A replica that knows a decision at or above the prepared range must
/// not promise it: a decided slot keeps no acceptance to report, so the
/// promise would vouch for "nothing chosen here" — and a new leader whose
/// quorum is made of such promises would propose afresh in a decided
/// slot. It answers with the replay alone; the leader's own promise is
/// exempt, and once the leader has caught up it prepares again.
#[test]
fn a_replica_that_knows_a_decision_in_the_range_replays_instead_of_promising() {
    let promised = |out: &LogActions| {
        out.sends()
            .iter()
            .any(|s| matches!(s.msg, LogMsg::PromiseReign { .. }))
    };
    let replayed = |out: &LogActions| announced(&[out]).1;
    let reign = Ballot::for_reign(1, ProcessId::new(4));
    let mut ahead = follower();
    ahead.note_decision(0, Batch::one(Value(7)));
    let mut out = Actions::new();
    ahead.on_message(
        reign.proposer,
        &LogMsg::PrepareReign { b: reign, from: 0 },
        &mut out,
    );
    assert!(!promised(&out), "{:?}", out.sends());
    assert_eq!(out.sends().len(), 1);
    assert!(matches!(
        &out.sends()[0],
        irs_types::Outbound { dest: Destination::To(to), msg: LogMsg::Slot { slot: 0, msg: PaxosMsg::Decide { .. } } }
            if *to == reign.proposer
    ));
    // Decided out of order above its frontier: the same.
    let mut gapped = follower();
    gapped.note_decision(1, Batch::one(Value(8)));
    let mut out = Actions::new();
    gapped.on_message(
        reign.proposer,
        &LogMsg::PrepareReign { b: reign, from: 0 },
        &mut out,
    );
    assert!(!promised(&out));
    // Level with the leader: the promise goes out, with no replay.
    let mut out = Actions::new();
    ahead.on_message(
        reign.proposer,
        &LogMsg::PrepareReign { b: reign, from: 1 },
        &mut out,
    );
    assert!(promised(&out));
    assert!(replayed(&out).is_empty());
    // The leader learns a decision after it sent its prepare: it still
    // stands behind its own ballot…
    let mut leader = skip_leader(0, 1);
    leader.on_start(&mut Actions::new());
    let mut out = Actions::new();
    leader.on_timer(TIMER_LOG_CHECK, &mut out);
    let (b, from) = reign_prepare(&out).expect("the leader prepares");
    leader.note_decision(0, Batch::one(Value(7)));
    let mut out = Actions::new();
    leader.on_message(
        ProcessId::new(0),
        &LogMsg::PrepareReign { b, from },
        &mut out,
    );
    assert!(promised(&out));
    // …and, having caught up past what it prepared from, the next check
    // prepares again from its new frontier instead of re-sending a range
    // every replica that is level with it now has to refuse.
    let mut out = Actions::new();
    leader.on_timer(TIMER_LOG_CHECK, &mut out);
    let (b2, from2) = reign_prepare(&out).expect("a fresh prepare");
    assert!(b2 > b);
    assert_eq!(from2, 1);
}
