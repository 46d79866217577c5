//! An n = 8 election over the UDP socket backend with every node in its own
//! OS process (acceptance criterion of the `irs-net` subsystem).
//!
//! The test re-executes its own binary: the parent run spawns `N` children
//! with `IRS_UDP_CHILD=<id>` set, each of which joins the UDP mesh through
//! the shared re-exec handshake (`irs_net::reexec`), runs one Ω node over
//! the socket until its leader output is stable, reports it (`LEADER <i>`),
//! and exits. The parent collects every child's report and asserts that all
//! eight OS processes agreed on the same leader.

use irs_net::reexec;
use irs_omega::OmegaProcess;
use irs_runtime::{run_node, NodeConfig, NodeHandle};
use irs_types::{ProcessId, SystemConfig};
use std::io::BufRead;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const N: usize = 8;
const T: usize = 3;
/// Logical tick of the deployment: 500 µs keeps the ALIVE period at 5 ms —
/// gentle enough for eight unsynchronised OS processes on loopback.
const TICK: Duration = Duration::from_micros(500);

fn child_main(id: u32) {
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let transport = reexec::child_join_mesh(&mut lines, N);

    let system = SystemConfig::new(N, T).expect("system config");
    let proto = OmegaProcess::fig3(ProcessId::new(id), system);
    let handle = NodeHandle::new();
    let observer = handle.clone();
    let node = std::thread::spawn(move || {
        run_node(proto, transport, NodeConfig::new(N).with_tick(TICK), handle)
    });

    // Report once our own leader output has been stable for 2 s of real
    // progress; give up (and report whatever we see) after 40 s.
    let started = Instant::now();
    let mut last_leader = None;
    let mut stable_since = Instant::now();
    let leader = loop {
        std::thread::sleep(Duration::from_millis(50));
        let snap = observer.snapshot.read();
        let leader = snap.leader;
        if Some(leader) != last_leader {
            last_leader = Some(leader);
            stable_since = Instant::now();
        }
        let progressed = snap.sending_round > 20;
        if progressed && stable_since.elapsed() > Duration::from_secs(2) {
            break leader;
        }
        if started.elapsed() > Duration::from_secs(40) {
            break leader;
        }
    };
    println!("LEADER {}", leader.index());
    observer.stop.store(true, Ordering::SeqCst);
    node.join().expect("node thread");
}

#[test]
fn udp_cluster_across_os_processes_elects_one_leader() {
    if let Ok(id) = std::env::var("IRS_UDP_CHILD") {
        child_main(id.parse().expect("child id"));
        return;
    }

    let (mut children, mut readers) = reexec::spawn_self_children(N, |id, cmd| {
        cmd.args([
            "--exact",
            "udp_cluster_across_os_processes_elects_one_leader",
            "--nocapture",
        ])
        .env("IRS_UDP_CHILD", id.to_string());
    });
    reexec::exchange_peer_table(&mut children, &mut readers, &[]);

    let leaders: Vec<String> = readers
        .iter_mut()
        .enumerate()
        .map(|(who, r)| reexec::read_tagged_line(r, "LEADER ", who))
        .collect();
    children.join_all();

    assert!(
        leaders.iter().all(|l| l == &leaders[0]),
        "the {N} OS processes disagree on the leader: {leaders:?}"
    );
    let elected: usize = leaders[0].parse().expect("leader index");
    assert!(elected < N, "reported leader {elected} is not a process");
}
