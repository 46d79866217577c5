//! The multiplexed socket runtime end to end: real UDP sockets, one per
//! process, served by a bounded set of reactor shard threads.
//!
//! The small tests run in tier-1; the 128-socket election is the scaling
//! acceptance criterion of the socket runtime and runs in the CI mux-smoke
//! job with `--ignored`.

use irs_omega::{OmegaConfig, OmegaProcess, Variant};
use irs_runtime::{Deployment, RealtimeConfig};
use irs_types::{Duration, ProcessId, SystemConfig};
use std::time::Duration as StdDuration;
use std::time::Instant;

fn wait_for<F: Fn() -> bool>(limit: StdDuration, check: F) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if check() {
            return true;
        }
        std::thread::sleep(StdDuration::from_millis(10));
    }
    check()
}

fn omega_mux(n: usize, workers: usize, tick: StdDuration) -> Deployment<OmegaProcess> {
    let system = SystemConfig::new(n, (n - 1) / 2).unwrap();
    let (send_period, timeout_unit) = if n >= 64 { (300, 100) } else { (20, 10) };
    let processes: Vec<_> = system
        .processes()
        .map(|id| {
            let mut config = OmegaConfig::new(system, Variant::Fig3)
                .with_send_period(Duration::from_ticks(send_period))
                .with_timeout_unit(Duration::from_ticks(timeout_unit));
            if n >= 64 {
                config = config.with_delta_gossip(8);
            }
            OmegaProcess::new(id, config)
        })
        .collect();
    Deployment::spawn_udp(processes, RealtimeConfig { tick, workers }).expect("spawn mux cluster")
}

/// An n = 16 election over 16 real UDP sockets on 2 reactor shards, with
/// crash failover: the multiplexed runtime runs the same state machines as
/// every other deployment shape.
#[test]
fn mux_cluster_elects_and_replaces_crashed_leader() {
    let cluster = omega_mux(16, 2, StdDuration::from_micros(200));
    assert_eq!(cluster.n(), 16);
    assert_eq!(cluster.worker_threads(), 2);
    let stable = wait_for(StdDuration::from_secs(30), || {
        let progressed = cluster.snapshots().iter().all(|s| s.sending_round > 10);
        progressed && cluster.agreed_leader().is_some()
    });
    assert!(
        stable,
        "no agreement within 30s: leaders {:?}",
        cluster.leaders()
    );

    let first = cluster.agreed_leader().unwrap();
    cluster.crash(first);
    assert!(cluster.is_crashed(first));
    let replaced = wait_for(StdDuration::from_secs(60), || {
        cluster.agreed_leader().is_some_and(|l| l != first)
    });
    assert!(replaced, "leaders after crash: {:?}", cluster.leaders());

    let finals = cluster.shutdown();
    assert_eq!(finals.len(), 16);
}

/// The runtime gauges surface through the snapshots: a broadcast-heavy
/// protocol must take the encode-once fan-out path on the reactor.
#[test]
fn mux_cluster_publishes_batched_send_gauge() {
    let cluster = omega_mux(4, 2, StdDuration::from_micros(100));
    let batched = wait_for(StdDuration::from_secs(10), || {
        (0..4).any(|i| {
            cluster
                .snapshot(ProcessId::new(i))
                .extra
                .iter()
                .any(|&(k, v)| k == "sends_batched" && v > 0)
        })
    });
    assert!(batched, "no broadcast took the batched fan-out path");
    cluster.shutdown();
}

/// Co-hosted frames skip the kernel: on one shard an n = 4 election runs
/// without a single datagram, every Ω frame handed over inside the shard;
/// on two shards it takes both routes.
#[test]
fn cohosted_frames_skip_the_kernel() {
    let gauge = |s: &irs_types::Snapshot, name| s.gauge(name).unwrap_or(0);
    let one = omega_mux(4, 1, StdDuration::from_micros(100));
    let elected = wait_for(StdDuration::from_secs(10), || {
        let progressed = one.snapshots().iter().all(|s| s.sending_round > 10);
        progressed && one.agreed_leader().is_some()
    });
    assert!(elected, "no agreement on one shard: {:?}", one.leaders());
    for s in one.snapshots() {
        assert_eq!(
            gauge(&s, "frames_tx"),
            0,
            "a datagram left a one-shard cluster"
        );
        assert_eq!(
            gauge(&s, "frames_rx"),
            0,
            "a datagram reached a one-shard cluster"
        );
        assert!(
            gauge(&s, "frames_in_shard") > 0,
            "no frame handed over in-shard"
        );
    }
    one.shutdown();

    let two = omega_mux(4, 2, StdDuration::from_micros(100));
    let both_routes = wait_for(StdDuration::from_secs(10), || {
        two.snapshots()
            .iter()
            .all(|s| gauge(s, "frames_in_shard") > 0 && gauge(s, "frames_tx") > 0)
    });
    assert!(both_routes, "two shards did not use both routes");
    two.shutdown();
}

/// Shard threads are named and bounded: `W` reactor threads serve all the
/// sockets, and dropping the cluster without `shutdown` still stops them.
/// The probe counts the thread named `irs-mux-2`, which only this test's
/// 3-shard cluster creates (the sibling tests spawn 2 shards), so parallel
/// test execution cannot perturb the count.
#[test]
#[cfg(target_os = "linux")]
fn mux_shard_threads_are_bounded_named_and_stop_on_drop() {
    let third_shard_alive = || {
        std::fs::read_dir("/proc/self/task")
            .expect("proc task dir")
            .any(|t| {
                let comm = t
                    .ok()
                    .map(|t| t.path().join("comm"))
                    .and_then(|p| std::fs::read_to_string(p).ok())
                    .unwrap_or_default();
                comm.trim_end() == "irs-mux-2"
            })
    };
    assert!(!third_shard_alive());
    let cluster = omega_mux(12, 3, StdDuration::from_micros(200));
    assert_eq!(cluster.worker_threads(), 3);
    // The shard thread names itself as it starts; allow it a moment.
    assert!(
        wait_for(StdDuration::from_secs(5), third_shard_alive),
        "shard thread irs-mux-2 never appeared"
    );
    drop(cluster);
    let stopped = wait_for(StdDuration::from_secs(5), || !third_shard_alive());
    assert!(stopped, "mux shard thread still alive after drop");
}

/// Scaling acceptance criterion (CI mux-smoke job): 128 processes, 128
/// real UDP sockets, one OS process, `W ≤ cores` reactor threads — the
/// election still converges. A thread-per-socket runtime would need 128
/// blocked threads for the same deployment.
#[test]
#[ignore = "large-n mux smoke; run explicitly (CI mux-smoke job) with --ignored"]
fn mux_cluster_128_sockets_elects_on_bounded_threads() {
    let n = 128;
    let cluster = omega_mux(n, 0, StdDuration::from_millis(1));
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    assert!(
        cluster.worker_threads() <= cores,
        "{} reactor threads for {cores} cores",
        cluster.worker_threads()
    );
    #[cfg(target_os = "linux")]
    {
        // The whole 128-socket deployment runs on exactly `W` reactor
        // threads (this test runs alone under `--ignored`, so the count is
        // not perturbed by sibling tests).
        let spawned = wait_for(StdDuration::from_secs(5), || {
            std::fs::read_dir("/proc/self/task")
                .expect("proc task dir")
                .filter(|t| {
                    let comm = t
                        .as_ref()
                        .ok()
                        .map(|t| t.path().join("comm"))
                        .and_then(|p| std::fs::read_to_string(p).ok())
                        .unwrap_or_default();
                    comm.starts_with("irs-mux-")
                })
                .count()
                == cluster.worker_threads()
        });
        assert!(spawned, "reactor thread count != worker_threads()");
    }
    let stable = wait_for(StdDuration::from_secs(120), || {
        let progressed = cluster.snapshots().iter().all(|s| s.sending_round >= 3);
        progressed && cluster.agreed_leader().is_some()
    });
    assert!(
        stable,
        "no agreement within 120s (sample leaders: {:?})",
        &cluster.leaders()[..8]
    );
    let finals = cluster.shutdown();
    assert_eq!(finals.len(), n);
}
