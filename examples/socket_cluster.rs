//! An Ω deployment as genuinely separate OS processes over UDP.
//!
//! The parent run spawns `n` copies of itself (`--child <id>`), each of
//! which joins a localhost UDP mesh through the shared re-exec handshake
//! (`irs_net::reexec`: `PORT`/`PEERS` over the children's stdio) and drives
//! one Figure 3 process with `irs-runtime`'s node event loop — the same
//! state machine the simulator runs, crossing a real kernel network stack
//! between address spaces. Each child reports its leader output once it has
//! been stable for two seconds; the parent checks that all `n` OS processes
//! agreed.
//!
//! Run with: `cargo run --release --example socket_cluster -- --n 8`
//!
//! Pass `--metrics` to instrument every node: each child process then
//! rewrites `<tmp>/irs-socket-cluster-node-<id>.prom` with its Prometheus
//! metrics twice a second while it runs. Because the instrumented path
//! runs `run_node_with` with an `Obs` handle, every such node also answers live
//! `ObsMsg::ScrapeRequest` datagrams on its mesh socket — point the
//! cluster collector (see `examples/kv_cluster.rs --scrape`) at the
//! printed ports to pull the registries over the wire instead of tailing
//! the dump files.

use intermittent_rotating_star::net::reexec;
use intermittent_rotating_star::obs::Obs;
use intermittent_rotating_star::omega::{OmegaMsg, OmegaProcess};
use intermittent_rotating_star::runtime::{admits, run_node_with, NodeConfig, NodeHandle};
use intermittent_rotating_star::types::{ProcessId, SystemConfig};
use std::io::BufRead;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// 500 µs per logical tick → one ALIVE broadcast every 5 ms per process.
const TICK: Duration = Duration::from_micros(500);

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn child(id: u32, n: usize, metrics: bool) {
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let transport = reexec::child_join_mesh(&mut lines, n);

    let system = SystemConfig::new(n, (n - 1) / 2).expect("system");
    let proto = OmegaProcess::fig3(ProcessId::new(id), system);
    let handle = NodeHandle::new();
    let observer = handle.clone();
    // --metrics: per-process registry + flight recorder, dumped to a
    // Prometheus text file twice a second while the node runs.
    let obs = metrics.then(|| std::sync::Arc::new(Obs::new(n)));
    let _dump_guard = obs.as_ref().map(|o| {
        let path = std::env::temp_dir().join(format!("irs-socket-cluster-node-{id}.prom"));
        eprintln!("[child {id}] dumping metrics to {}", path.display());
        o.start_dump(Duration::from_millis(500), path)
    });
    let node = std::thread::spawn(move || {
        let config = NodeConfig::new(n).with_tick(TICK);
        let accept = move |me, from, to, msg: &OmegaMsg| admits(from, to, msg, me, n);
        run_node_with(proto, transport, config, handle, accept, obs.as_deref())
    });

    // Report once our leader output has been stable for 2 s (cap 40 s).
    let started = Instant::now();
    let (mut last, mut since) = (None, Instant::now());
    let leader = loop {
        std::thread::sleep(Duration::from_millis(50));
        let snap = observer.snapshot.read();
        if Some(snap.leader) != last {
            last = Some(snap.leader);
            since = Instant::now();
        }
        let stable = snap.sending_round > 20 && since.elapsed() > Duration::from_secs(2);
        if stable || started.elapsed() > Duration::from_secs(40) {
            break snap.leader;
        }
    };
    println!("LEADER {}", leader.index());
    observer.stop.store(true, Ordering::SeqCst);
    node.join().expect("node thread");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = arg_value(&args, "--n").map_or(8, |v| v.parse().expect("--n"));
    let metrics = args.iter().any(|a| a == "--metrics");
    assert!(n >= 2, "--n must be at least 2");
    if let Some(id) = arg_value(&args, "--child") {
        child(id.parse().expect("child id"), n, metrics);
        return;
    }

    println!("spawning {n} node processes over localhost UDP …");
    let (mut children, mut readers) = reexec::spawn_self_children(n, |id, cmd| {
        cmd.args(["--child", &id.to_string(), "--n", &n.to_string()]);
        if metrics {
            cmd.arg("--metrics");
        }
    });
    let ports = reexec::exchange_peer_table(&mut children, &mut readers, &[]);
    println!(
        "peer table: {}",
        ports
            .iter()
            .map(u16::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    );

    let leaders: Vec<String> = readers
        .iter_mut()
        .enumerate()
        .map(|(who, r)| reexec::read_tagged_line(r, "LEADER ", who))
        .collect();
    children.join_all();
    println!("per-process leader outputs: {leaders:?}");
    if leaders.iter().all(|l| l == &leaders[0]) {
        println!(
            "all {n} OS processes agree: leader is p{}",
            leaders[0].parse::<usize>().expect("index") + 1
        );
    } else {
        eprintln!("processes disagree on the leader!");
        std::process::exit(1);
    }
}
