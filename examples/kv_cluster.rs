//! The replicated KV service as separate OS processes over localhost UDP,
//! under client load.
//!
//! The parent spawns `n` replica processes (`--child <id>`), each of which
//! joins the UDP mesh through the shared re-exec handshake
//! (`irs_net::reexec`) and drives one `SvcReplica` with `run_svc_node` —
//! the same state machines the simulator runs, now serving writes across
//! the kernel network stack. The parent then connects `c` closed-loop
//! clients over their own sockets, drives load for a couple of seconds,
//! prints ops/s with p50/p99 latency, and finally checks that every
//! replica process reports the same store digest (`DIGEST <hex> <applied>`
//! after `STOP`).
//!
//! Run with: `cargo run --release --example kv_cluster -- --n 5 --clients 3`
//!
//! Pass `--metrics` to instrument every replica: each child process then
//! rewrites `<tmp>/irs-kv-cluster-node-<id>.prom` with its Prometheus
//! metrics twice a second while it runs (scrape it with any file-tailing
//! collector), and prints the path it dumps to.
//!
//! Pass `--scrape` to pull the same telemetry live over the wire instead:
//! every replica joins the scrape plane (the node loop answers
//! `ObsMsg::ScrapeRequest` datagrams in-handler), and the parent — which
//! shares no filesystem state with its children beyond the spawn — runs
//! the cluster collector mid-load over one extra UDP endpoint, merges the
//! per-process registries, writes `<tmp>/irs-kv-cluster-cluster.prom`
//! atomically, and prints the leader-reign SLO summary.

use intermittent_rotating_star::net::{reexec, TransportScraper, UdpTransport};
use intermittent_rotating_star::obs::collector::ClusterScrape;
use intermittent_rotating_star::obs::Obs;
use intermittent_rotating_star::runtime::NodeHandle;
use intermittent_rotating_star::svc::loadgen::{closed_loop, ClosedLoopOptions};
use intermittent_rotating_star::svc::{run_svc_node, SvcClient, SvcConfig};
use intermittent_rotating_star::types::ProcessId;
use std::io::BufRead;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// 500 µs per logical tick → gentle consensus timers across OS processes.
const TICK: Duration = Duration::from_micros(500);

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn child(id: u32, n: usize, clients: usize, metrics: bool, scrape: bool) {
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    // With --scrape the mesh has one extra endpoint: the parent's
    // collector socket, right after the client endpoints.
    let extra = usize::from(scrape);
    let transport = reexec::child_join_mesh(&mut lines, n + clients + extra);

    let mut config = SvcConfig::new(n, clients).with_tick(TICK);
    // --metrics: a full Obs (registry + flight recorder) per replica
    // process, with a periodic Prometheus text dump as the scrape surface.
    // --scrape attaches the same Obs but serves it over the wire instead:
    // run_svc_node answers scrape datagrams in-handler, no dump needed.
    let mut dump_guard = None;
    if metrics || scrape {
        let obs = std::sync::Arc::new(Obs::new(n));
        if metrics {
            let path = std::env::temp_dir().join(format!("irs-kv-cluster-node-{id}.prom"));
            eprintln!("[child {id}] dumping metrics to {}", path.display());
            dump_guard = Some(obs.start_dump(Duration::from_millis(500), path));
        }
        config = config.with_obs(obs);
    }
    let replica = config.replica(ProcessId::new(id));
    let handle = NodeHandle::new();
    let observer = handle.clone();
    let node = std::thread::spawn(move || run_svc_node(replica, transport, config, handle));

    for line in lines {
        if line.expect("stdin").trim() == "STOP" {
            break;
        }
    }
    observer.stop.store(true, Ordering::SeqCst);
    let replica = node.join().expect("node thread");
    drop(dump_guard); // final metrics dump before the digest report
    println!(
        "DIGEST {:x} {}",
        replica.store().digest(),
        replica.store().applied()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = arg_value(&args, "--n").map_or(5, |v| v.parse().expect("--n"));
    let clients: usize = arg_value(&args, "--clients").map_or(3, |v| v.parse().expect("--clients"));
    let secs: u64 = arg_value(&args, "--secs").map_or(2, |v| v.parse().expect("--secs"));
    let metrics = args.iter().any(|a| a == "--metrics");
    let scrape = args.iter().any(|a| a == "--scrape");
    assert!(n >= 3, "--n must be at least 3");
    assert!(clients >= 1, "--clients must be at least 1");
    if let Some(id) = arg_value(&args, "--child") {
        child(id.parse().expect("child id"), n, clients, metrics, scrape);
        return;
    }

    println!("spawning {n} replica processes over localhost UDP …");
    let (mut children, mut readers) = reexec::spawn_self_children(n, |id, cmd| {
        cmd.args([
            "--child",
            &id.to_string(),
            "--n",
            &n.to_string(),
            "--clients",
            &clients.to_string(),
        ]);
        if metrics {
            cmd.arg("--metrics");
        }
        if scrape {
            cmd.arg("--scrape");
        }
    });

    // One socket per client, endpoints n..n+clients — plus, with --scrape,
    // one collector endpoint at n+clients.
    let mut client_transports: Vec<UdpTransport> = (0..clients)
        .map(|_| UdpTransport::bind_localhost_retry().expect("bind client socket"))
        .collect();
    let mut collector_transport =
        scrape.then(|| UdpTransport::bind_localhost_retry().expect("bind collector socket"));
    let mut parent_ports: Vec<u16> = client_transports
        .iter()
        .map(|t| t.local_addr().expect("addr").port())
        .collect();
    if let Some(t) = &collector_transport {
        parent_ports.push(t.local_addr().expect("addr").port());
    }
    let replica_ports = reexec::exchange_peer_table(&mut children, &mut readers, &parent_ports);
    let all_addrs: Vec<_> = replica_ports
        .iter()
        .chain(parent_ports.iter())
        .map(|&p| reexec::localhost(p))
        .collect();
    for t in &mut client_transports {
        t.set_peers(all_addrs.clone());
    }
    if let Some(t) = &mut collector_transport {
        t.set_peers(all_addrs.clone());
    }

    let mut svc_clients: Vec<SvcClient<UdpTransport>> = client_transports
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            SvcClient::new(
                ProcessId::new((n + i) as u32),
                n,
                t,
                0xC11E_57AD ^ (i as u64 + 1),
            )
        })
        .collect();

    println!("driving {clients} closed-loop clients for {secs}s …");
    let load = std::thread::spawn(move || {
        let (report, _, _) = closed_loop(
            &mut svc_clients,
            ClosedLoopOptions {
                duration: Duration::from_secs(secs),
                ..ClosedLoopOptions::default()
            },
        );
        report
    });

    // --scrape: while the clients hammer the replicas, pull every replica
    // process's registry over the wire, merge, and persist atomically.
    if let Some(t) = collector_transport.take() {
        std::thread::sleep(Duration::from_millis((secs * 1000 / 2).max(200)));
        let collector_id = ProcessId::new((n + clients) as u32);
        let mut scraper = TransportScraper::new(t, collector_id)
            .with_timeout(Duration::from_millis(250))
            .with_retries(8);
        let cluster = ClusterScrape::collect(&mut scraper, n as u32).expect("live scrape");
        let merged = cluster.render_prometheus().expect("merge scrapes");
        assert!(
            merged.contains("omega_reign_ms"),
            "merged artifact is missing the leader-reign SLO panel"
        );
        let path = std::env::temp_dir().join("irs-kv-cluster-cluster.prom");
        cluster.write_prometheus(&path).expect("write artifact");
        println!("scraped {n} live processes mid-load -> {}", path.display());
        match cluster.reign_stats().expect("reign stats") {
            Some(stats) => println!("{}", stats.render()),
            None => println!("(no reign panel in scrape)"),
        }
    }

    let report = load.join().expect("load thread");
    println!(
        "load: {:.0} ops/s, p50 {} µs, p99 {} µs ({} acked, {} failures, {} redirects)",
        report.ops_per_sec(),
        report.latency.percentile(50.0),
        report.latency.percentile(99.0),
        report.ops,
        report.failures,
        report.redirects,
    );

    // Settle, stop, compare.
    std::thread::sleep(Duration::from_secs(2));
    reexec::broadcast_line(&mut children, "STOP");
    let digests: Vec<String> = readers
        .iter_mut()
        .enumerate()
        .map(|(who, r)| reexec::read_tagged_line(r, "DIGEST ", who))
        .collect();
    children.join_all();
    println!("per-process store digests: {digests:?}");
    let first = digests[0].split_whitespace().next().expect("digest");
    if digests
        .iter()
        .all(|d| d.split_whitespace().next() == Some(first))
    {
        println!("all {n} OS processes hold identical stores (digest {first})");
    } else {
        eprintln!("replica processes diverged!");
        std::process::exit(1);
    }
}
