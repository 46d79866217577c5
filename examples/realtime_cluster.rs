//! The same Ω state machines on real threads and wall-clock timers.
//!
//! Spawns a four-process cluster of the Figure 3 algorithm with jittered
//! in-memory links, waits for a stable leader, crashes it, and waits for the
//! re-election — all in real time (a few hundred milliseconds).
//!
//! Run with: `cargo run --release --example realtime_cluster`

use intermittent_rotating_star::net::LinkModel;
use intermittent_rotating_star::omega::OmegaProcess;
use intermittent_rotating_star::runtime::{Deployment, RealtimeConfig};
use intermittent_rotating_star::types::SystemConfig;
use std::time::{Duration, Instant};

fn wait_for(limit: Duration, check: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    check()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = SystemConfig::new(4, 1)?;
    let processes: Vec<OmegaProcess> = system
        .processes()
        .map(|id| OmegaProcess::fig3(id, system))
        .collect();

    // Every link holds each frame for 50 µs – 2 ms, drawn from seed 7.
    let link = LinkModel::new(7).with_delay(Duration::from_micros(50), Duration::from_millis(2));
    let cluster = Deployment::spawn(processes, RealtimeConfig::default(), link);

    let elected = wait_for(Duration::from_secs(15), || {
        cluster.agreed_leader().is_some()
    });
    let leader = cluster.agreed_leader();
    println!("initial election: agreed = {elected}, leader = {leader:?}");
    println!("messages routed so far: {}", cluster.messages_routed());

    if let Some(leader) = leader {
        println!("crashing {leader} …");
        cluster.crash(leader);
        let replaced = wait_for(Duration::from_secs(30), || {
            cluster.agreed_leader().is_some_and(|l| l != leader)
        });
        println!(
            "re-election: agreed on a new leader = {replaced}, leaders = {:?}",
            cluster.leaders()
        );
    }

    let finals = cluster.shutdown();
    for process in &finals {
        let snapshot = irs_types::Introspect::snapshot(process);
        println!(
            "p{}: rounds sent = {}, susp_levels = {:?}",
            irs_types::Protocol::id(process).display_index(),
            snapshot.sending_round,
            snapshot.susp_levels
        );
    }
    Ok(())
}
