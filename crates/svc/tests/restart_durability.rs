//! Kill -9 crash-restart durability, end to end across OS processes.
//!
//! The parent spawns `N` durable replica children over localhost UDP (the
//! `kv_cluster` re-exec harness, plus a per-node data directory), writes
//! through a real client, then SIGKILLs one replica mid-service — no
//! flush, no goodbye. The survivors keep serving (majority intact). The
//! parent respawns the victim with the *same identity*: the same UDP port
//! (`reexec::child_rejoin_mesh`) and the same data directory, so the
//! restarted process recovers from its snapshot + WAL and catches the
//! missed suffix up from its peers. The verdict is machine-checked:
//!
//! * every replica — the restarted one included — reports the same store
//!   digest, and
//! * no acked write is lost (`applied ≥ acked`), and
//! * replay is deterministic: recovering the victim's directory twice
//!   offline yields byte-identical state both times.
//!
//! Two in-process tests pin the contract underneath: a replica that dies
//! between `on_burst` returning and its frames leaving recovers every
//! acceptance and decision those frames vouch for, and a follower that dies
//! after a noting `Accept` recovers the decision the note taught it and the
//! acceptance the `Accept` asked for — from the turn's one WAL commit.

use irs_consensus::{Ballot, Batch, LogMsg, PaxosMsg};
use irs_net::{reexec, UdpTransport};
use irs_svc::{run_svc_node, KvOp, KvWrite, SvcClient, SvcConfig, SvcMsg, SvcReplica};
use irs_types::{Actions, Introspect, ProcessId, Protocol};
use std::io::BufRead;
use std::sync::atomic::Ordering;
use std::time::Duration;

const N: usize = 3;
const TICK: Duration = Duration::from_micros(500);

fn config(base: &std::path::Path) -> SvcConfig {
    SvcConfig::new(N, 1).with_tick(TICK).with_data_dir(base)
}

fn child_main(id: u32, base: &std::path::Path) {
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    // A respawned incarnation is told which port its predecessor held.
    let transport = match std::env::var("IRS_RD_PORT") {
        Ok(port) => reexec::child_rejoin_mesh(&mut lines, N + 1, port.parse().expect("port env")),
        Err(_) => reexec::child_join_mesh(&mut lines, N + 1),
    };

    let config = config(base);
    let replica = config.replica(ProcessId::new(id));
    let handle = irs_runtime::NodeHandle::new();
    let observer = handle.clone();
    let node = std::thread::spawn(move || run_svc_node(replica, transport, config, handle));

    for line in lines {
        if line.expect("stdin line").trim() == "STOP" {
            break;
        }
    }
    observer.stop.store(true, Ordering::SeqCst);
    let replica = node.join().expect("node thread");
    println!(
        "DIGEST {:x} {}",
        replica.store().digest(),
        replica.store().applied()
    );
}

/// Recovers a replica offline from its data directory and returns the
/// restored store's `(digest, applied)` — no networking, pure replay.
fn recover_offline(base: &std::path::Path, id: u32) -> (u64, u64) {
    let config = config(base);
    let replica = config.replica(ProcessId::new(id));
    (replica.store().digest(), replica.store().applied())
}

#[test]
fn killed_replica_recovers_with_identical_state_and_no_acked_loss() {
    let base = match std::env::var("IRS_RD_DIR") {
        Ok(dir) => std::path::PathBuf::from(dir),
        Err(_) => {
            let base = std::env::temp_dir().join(format!("irs-rd-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&base);
            base
        }
    };
    if let Ok(id) = std::env::var("IRS_RD_CHILD") {
        child_main(id.parse().expect("child id"), &base);
        return;
    }

    let spawn_args = |cmd: &mut std::process::Command, id: usize| {
        cmd.args([
            "--exact",
            "killed_replica_recovers_with_identical_state_and_no_acked_loss",
            "--nocapture",
        ])
        .env("IRS_RD_CHILD", id.to_string())
        .env("IRS_RD_DIR", &base);
    };
    let (mut children, mut readers) = reexec::spawn_self_children(N, |id, cmd| spawn_args(cmd, id));

    let mut client_transport = UdpTransport::bind_localhost_retry().expect("bind client socket");
    let client_port = client_transport.local_addr().expect("client addr").port();
    let replica_ports = reexec::exchange_peer_table(&mut children, &mut readers, &[client_port]);
    let mut peer_addrs: Vec<_> = replica_ports
        .iter()
        .map(|&p| reexec::localhost(p))
        .collect();
    peer_addrs.push(reexec::localhost(client_port));
    client_transport.set_peers(peer_addrs);

    let mut client = SvcClient::new(ProcessId::new(N as u32), N, client_transport, 0xDEAD);
    let deadline = Duration::from_secs(40);
    let mut acked = 0u64;
    for k in 0..4u64 {
        client
            .put(format!("pre-{k}").as_bytes(), &k.to_le_bytes(), deadline)
            .expect("acked put before the crash");
        acked += 1;
    }

    // kill -9 the initial leader: no flush, no drain, mid-service.
    let victim = 0usize;
    children.0[victim].kill().expect("SIGKILL child");
    children.0[victim].wait().expect("reap child");

    // The surviving majority keeps acking writes the victim never sees.
    for k in 0..4u64 {
        client
            .put(format!("down-{k}").as_bytes(), &k.to_le_bytes(), deadline)
            .expect("acked put while the victim is down");
        acked += 1;
    }

    // Respawn with the same identity: same UDP port, same data directory.
    let (mut respawned, mut respawned_readers) = reexec::spawn_self_children(1, |_, cmd| {
        spawn_args(cmd, victim);
        cmd.env("IRS_RD_PORT", replica_ports[victim].to_string());
    });
    let port = reexec::read_tagged_line(&mut respawned_readers[0], "PORT ", victim);
    assert_eq!(port.parse::<u16>().unwrap(), replica_ports[victim]);
    let table: Vec<String> = replica_ports
        .iter()
        .chain(std::iter::once(&client_port))
        .map(u16::to_string)
        .collect();
    reexec::send_line(&mut respawned.0[0], &format!("PEERS {}", table.join(" ")));
    children.0[victim] = respawned.0.remove(0);
    readers[victim] = respawned_readers.remove(0);

    // Writes after the restart, then let catch-up settle the rejoiner.
    for k in 0..4u64 {
        client
            .put(format!("post-{k}").as_bytes(), &k.to_le_bytes(), deadline)
            .expect("acked put after the restart");
        acked += 1;
    }
    std::thread::sleep(Duration::from_secs(2));
    reexec::broadcast_line(&mut children, "STOP");
    let digests: Vec<(String, u64)> = readers
        .iter_mut()
        .enumerate()
        .map(|(who, r)| {
            let line = reexec::read_tagged_line(r, "DIGEST ", who);
            let mut parts = line.split_whitespace();
            let digest = parts.next().expect("digest").to_string();
            let applied: u64 = parts.next().expect("applied").parse().expect("count");
            (digest, applied)
        })
        .collect();
    children.join_all();

    assert!(
        digests.iter().all(|d| d.0 == digests[0].0),
        "replicas diverged after kill -9 + restart: {digests:?}"
    );
    assert!(
        digests[0].1 >= acked,
        "acked {acked} writes but replicas applied only {}",
        digests[0].1
    );

    // Deterministic replay: the same bytes recover to the same state,
    // twice, and that state is the one the restarted process reported.
    let first = recover_offline(&base, victim as u32);
    let second = recover_offline(&base, victim as u32);
    assert_eq!(first, second, "offline recovery must be deterministic");
    assert_eq!(
        format!("{:x}", first.0),
        digests[victim].0,
        "offline recovery disagrees with the restarted replica"
    );

    let _ = std::fs::remove_dir_all(&base);
}

type Accepted = (u64, Ballot, Batch<irs_svc::Command>);
type Decided = (u64, Batch<irs_svc::Command>);

/// Every acceptance and decision the frames in `out` vouch for: an `Accept`
/// broadcast vouches for its owner's own acceptance, an `Accepted` vote for
/// the voter's, a `Decide` for the decision.
fn vouched_for(out: &Actions<SvcMsg>) -> (Vec<Accepted>, Vec<Decided>) {
    let (mut accepted, mut decided) = (Vec::new(), Vec::new());
    for send in out.sends() {
        match &send.msg {
            SvcMsg::Log(
                LogMsg::Slot {
                    slot,
                    msg: PaxosMsg::Accept { b, v } | PaxosMsg::Accepted { b, v },
                }
                | LogMsg::AcceptNoting { slot, b, v, .. },
            ) => accepted.push((*slot, *b, v.clone())),
            SvcMsg::Log(LogMsg::Slot {
                slot,
                msg: PaxosMsg::Decide { v },
            }) => decided.push((*slot, v.clone())),
            _ => {}
        }
    }
    (accepted, decided)
}

/// Drops `replica` with `unsent` never handed to a transport, recovers its
/// directory, and checks that everything the unsent frames vouch for
/// survived: persist-before-send, per burst.
fn crash_before_send_and_recover(
    config: &SvcConfig,
    replica: SvcReplica,
    unsent: Actions<SvcMsg>,
) -> SvcReplica {
    let id = replica.id();
    drop(replica);
    let recovered = config.replica(id);
    let (accepted, decided) = vouched_for(&unsent);
    assert!(
        !accepted.is_empty(),
        "the burst must have vouched for something"
    );
    for (slot, v) in decided {
        assert_eq!(recovered.log().decision(slot), Some(&v), "slot {slot}");
    }
    for (slot, b, v) in accepted {
        let survived = recovered.log().decision(slot) == Some(&v)
            || recovered
                .log()
                .accepted_states()
                .any(|(s, sb, sv)| s == slot && sb >= b && *sv == v);
        assert!(survived, "acceptance of slot {slot} at {b:?} was lost");
    }
    recovered
}

fn command(client: u64, seq: u64) -> irs_svc::Command {
    let op = KvOp::Put {
        key: format!("k{client}").into_bytes(),
        value: seq.to_le_bytes().to_vec(),
    };
    KvWrite { client, seq, op }.encode()
}

fn request(client: u64, seq: u64) -> SvcMsg {
    let cmd = command(client, seq);
    SvcMsg::Request { cmd }
}

/// Persist-before-send holds per burst: a replica that dies after
/// `on_burst` returned but before one of the burst's frames left recovers
/// every acceptance (and decision) those frames vouch for — and the burst
/// cost one WAL commit, not one per frame.
#[test]
fn a_replica_dropped_between_on_burst_and_send_recovers_what_its_frames_vouch_for() {
    let base = std::env::temp_dir().join(format!("irs-rd-burst-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let config = config(&base).with_batching(8, 4);
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let commits = |r: &SvcReplica| r.snapshot().gauge("wal_commits").expect("gauge");

    // A follower takes three `Accept`s in one burst; its three votes die
    // with it.
    let b = Ballot::for_reign(1, p0);
    let accepts: Vec<(ProcessId, SvcMsg)> = (0..3u64)
        .map(|slot| {
            let v = Batch::one(command(7, slot + 1));
            let msg = PaxosMsg::Accept { b, v };
            (p0, SvcMsg::Log(LogMsg::Slot { slot, msg }))
        })
        .collect();
    let mut follower = config.replica(p1);
    let mut votes = Actions::new();
    follower.on_burst(&accepts, &mut votes);
    assert_eq!(vouched_for(&votes).0.len(), 3, "three votes recorded");
    assert_eq!(commits(&follower), 1, "one WAL commit for the burst");
    crash_before_send_and_recover(&config, follower, votes);

    // A leader establishes its reign (its own promise plus p1's), then a
    // burst of four requests opens one slot of four: the `Accept` dies
    // unsent, the leader's own acceptance must not.
    let mut leader = config.replica(p0);
    let mut out = Actions::new();
    leader.on_burst(&[(ProcessId::new(3), request(3, 1))], &mut out);
    let (b, first) = out
        .sends()
        .iter()
        .find_map(|s| match &s.msg {
            SvcMsg::Log(LogMsg::PrepareReign { b, from }) => Some((*b, *from)),
            _ => None,
        })
        .expect("the first request opens the reign");
    let promise = SvcMsg::Log(LogMsg::PromiseReign {
        b,
        from: first,
        accepted: Vec::new(),
    });
    let mut out = Actions::new();
    leader.on_burst(&[(p0, promise.clone()), (p1, promise)], &mut out);
    assert_eq!(
        vouched_for(&out).0.len(),
        1,
        "the queued request opens slot 0"
    );
    let burst: Vec<(ProcessId, SvcMsg)> =
        (4..8).map(|c| (ProcessId::new(3), request(c, 1))).collect();
    let before = commits(&leader);
    let mut out = Actions::new();
    leader.on_burst(&burst, &mut out);
    let (accepted, _) = vouched_for(&out);
    assert_eq!(accepted.len(), 1, "one Accept for the burst");
    assert_eq!(accepted[0].2.len(), 4, "carrying all four requests");
    assert_eq!(commits(&leader), before + 1, "one WAL commit for the burst");
    crash_before_send_and_recover(&config, leader, out);

    let _ = std::fs::remove_dir_all(&base);
}

/// A follower learns slot `s` from the note on slot `s + 1`'s `Accept`, in
/// the turn that accepts `s + 1`: `Decided(s)` and `Accepted(s + 1)` are one
/// WAL commit (the `Decide` of old cost a commit of its own), and a follower
/// dropped with its vote unsent recovers both.
#[test]
fn a_follower_dropped_after_a_noting_accept_recovers_the_decision_and_the_acceptance() {
    let base = std::env::temp_dir().join(format!("irs-rd-note-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let config = config(&base);
    let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
    let commits = |r: &SvcReplica| r.snapshot().gauge("wal_commits").expect("gauge");
    let b = Ballot::for_reign(1, p0);
    let (first, second) = (Batch::one(command(7, 1)), Batch::one(command(7, 2)));

    let mut follower = config.replica(p1);
    let accept = PaxosMsg::Accept {
        b,
        v: first.clone(),
    };
    let accept = SvcMsg::Log(LogMsg::Slot {
        slot: 0,
        msg: accept,
    });
    follower.on_message(p0, &accept, &mut Actions::new());
    assert_eq!(commits(&follower), 1);
    let noting = SvcMsg::Log(LogMsg::AcceptNoting {
        slot: 1,
        b,
        v: second.clone(),
        noted_from: 0,
        noted_len: 1,
    });
    let mut vote = Actions::new();
    follower.on_message(p0, &noting, &mut vote);
    assert_eq!(
        commits(&follower),
        2,
        "the decision and the acceptance share a commit"
    );
    assert_eq!(follower.store().applied(), 1, "learned and applied");
    assert_eq!(vouched_for(&vote).0, vec![(1, b, second.clone())]);

    drop(follower);
    let recovered = config.replica(p1);
    assert_eq!(recovered.log().decision(0), Some(&first));
    assert_eq!(recovered.store().applied(), 1);
    let accepted: Vec<_> = recovered.log().accepted_states().collect();
    assert_eq!(accepted, vec![(1, b, &second)]);

    let _ = std::fs::remove_dir_all(&base);
}
