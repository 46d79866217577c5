//! The process-per-node deployment harness: spawn-self children, a UDP
//! endpoint per OS process, and the stdio line protocol that wires them
//! into one mesh.
//!
//! Four deployments in this repository (the Ω `socket_cluster` example and
//! its re-exec test, the KV `kv_cluster` example and its re-exec test) run
//! every node as its own OS process and bootstrap the peer table over the
//! children's stdio. The handshake is always the same:
//!
//! ```text
//! child  → PORT <port>                 # after binding its UDP endpoint
//! parent → PEERS <p0> <p1> … <pk>     # full table: children + any
//!                                      # parent-side (client) endpoints
//! child  → <protocol-specific reports> # LEADER <i>, DIGEST <hex> …
//! ```
//!
//! This module is that shared machinery: ephemeral-port binding with
//! collision retry, the tagged-line reader (tolerant of libtest chatter on
//! the same stream), the PORT/PEERS exchange for both halves, and a child
//! guard that kills stragglers when a parent assertion fails. The
//! protocol-specific parts — what each child runs and reports — stay with
//! the callers.
//!
//! The `expect`s and `assert`s here are harness failures, not input
//! handling: they read the stdio pipe between a parent and the children it
//! spawned in the process-per-node harness of E11 and E13 (the
//! `socket_cluster`, `kv_cluster` and `restart_durability` tests and the two
//! examples), never network input. A child that cannot bind, or a parent
//! that sends a malformed `PEERS` line, should stop the run loudly.

use crate::UdpTransport;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The localhost socket address for `port`.
pub fn localhost(port: u16) -> SocketAddr {
    SocketAddr::from((std::net::Ipv4Addr::LOCALHOST, port))
}

/// Child half of the handshake: binds a localhost UDP endpoint (retrying
/// ephemeral-port collisions), advertises it as `PORT <p>` on stdout, reads
/// the parent's `PEERS …` line from `lines`, and installs the peer table.
///
/// # Panics
///
/// Panics on any malformed handshake — a child that cannot join the mesh
/// cannot do anything useful, and the panic fails the child process, which
/// the parent observes.
pub fn child_join_mesh(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    expected_peers: usize,
) -> UdpTransport {
    let mut transport = UdpTransport::bind_localhost_retry().expect("bind child endpoint");
    println!(
        "PORT {}",
        transport.local_addr().expect("local addr").port()
    );
    std::io::stdout().flush().expect("flush port line");

    let peers_line = lines.next().expect("peer table line").expect("read stdin");
    let ports: Vec<u16> = peers_line
        .trim()
        .strip_prefix("PEERS ")
        .expect("PEERS line")
        .split_whitespace()
        .map(|p| p.parse().expect("peer port"))
        .collect();
    assert_eq!(ports.len(), expected_peers, "short peer table");
    transport.set_peers(ports.iter().map(|&p| localhost(p)).collect());
    transport
}

/// Restart-same-identity half of the handshake: like [`child_join_mesh`]
/// but binding the *specific* localhost `port` a previous incarnation of
/// this node held, so the rest of the mesh keeps routing to it unchanged.
/// Still advertises `PORT <p>` and waits for `PEERS …` — the parent
/// re-sends the (unchanged) table to the respawned child only.
///
/// # Panics
///
/// Panics if the port cannot be rebound (the old process must be dead) or
/// on any malformed handshake.
pub fn child_rejoin_mesh(
    lines: &mut impl Iterator<Item = std::io::Result<String>>,
    expected_peers: usize,
    port: u16,
) -> UdpTransport {
    let mut transport = UdpTransport::bind(localhost(port)).expect("rebind former endpoint");
    println!("PORT {port}");
    std::io::stdout().flush().expect("flush port line");

    let peers_line = lines.next().expect("peer table line").expect("read stdin");
    let ports: Vec<u16> = peers_line
        .trim()
        .strip_prefix("PEERS ")
        .expect("PEERS line")
        .split_whitespace()
        .map(|p| p.parse().expect("peer port"))
        .collect();
    assert_eq!(ports.len(), expected_peers, "short peer table");
    transport.set_peers(ports.iter().map(|&p| localhost(p)).collect());
    transport
}

/// Reads the value following `tag` from the child's stdout, skipping any
/// other output sharing the stream (libtest chatter, progress prints).
/// The tag may appear anywhere in a line; everything after it (trimmed) is
/// returned.
///
/// # Panics
///
/// Panics after 60 s without the tag, or if the child closes stdout first.
pub fn read_tagged_line(reader: &mut impl BufRead, tag: &str, who: usize) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for `{tag}` from child {who}"
        );
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read child stdout");
        assert!(n > 0, "child {who} closed stdout before sending `{tag}`");
        if let Some(at) = line.find(tag) {
            return line[at + tag.len()..].trim().to_string();
        }
    }
}

/// Children spawned by a parent run; killed (then reaped) on drop so a
/// failing parent assertion cannot leak orphan node processes.
#[derive(Debug, Default)]
pub struct ChildGuard(pub Vec<Child>);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl ChildGuard {
    /// Waits for every child and asserts a clean exit, consuming the
    /// guarded list (so drop has nothing left to kill).
    ///
    /// # Panics
    ///
    /// Panics if any child exited unsuccessfully.
    pub fn join_all(&mut self) {
        for child in &mut self.0 {
            let status = child.wait().expect("child exit status");
            assert!(status.success(), "a child process failed: {status}");
        }
        self.0.clear();
    }
}

/// Spawns `n` copies of the current executable, with `configure(i, cmd)`
/// adding each child's arguments or environment (e.g. `--child <i>` or a
/// `CHILD=<i>` env var plus libtest filter flags). Stdio is piped; the
/// readers are returned alongside the guard.
///
/// # Panics
///
/// Panics if the current executable cannot be determined or a spawn fails.
pub fn spawn_self_children(
    n: usize,
    mut configure: impl FnMut(usize, &mut Command),
) -> (ChildGuard, Vec<BufReader<ChildStdout>>) {
    let exe = std::env::current_exe().expect("own executable");
    let mut guard = ChildGuard(Vec::with_capacity(n));
    for i in 0..n {
        let mut cmd = Command::new(&exe);
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        configure(i, &mut cmd);
        guard.0.push(cmd.spawn().expect("spawn child process"));
    }
    let readers = guard
        .0
        .iter_mut()
        .map(|c| BufReader::new(c.stdout.take().expect("child stdout piped")))
        .collect();
    (guard, readers)
}

/// Parent half of the handshake: collects each child's `PORT`, appends the
/// parent's own (client) ports, and broadcasts the combined `PEERS` line to
/// every child. Returns the children's ports in child order.
///
/// # Panics
///
/// Panics on a malformed handshake (see [`read_tagged_line`]) or a closed
/// child stdin.
pub fn exchange_peer_table(
    children: &mut ChildGuard,
    readers: &mut [BufReader<ChildStdout>],
    parent_ports: &[u16],
) -> Vec<u16> {
    let child_ports: Vec<u16> = readers
        .iter_mut()
        .enumerate()
        .map(|(who, r)| {
            read_tagged_line(r, "PORT ", who)
                .parse()
                .expect("child port")
        })
        .collect();
    let all: Vec<String> = child_ports
        .iter()
        .chain(parent_ports.iter())
        .map(u16::to_string)
        .collect();
    broadcast_line(children, &format!("PEERS {}", all.join(" ")));
    child_ports
}

/// Writes one line to every child's stdin.
///
/// # Panics
///
/// Panics if a child's stdin is not piped or the write fails.
pub fn broadcast_line(children: &mut ChildGuard, line: &str) {
    for child in &mut children.0 {
        send_line(child, line);
    }
}

/// Writes one line to a single child's stdin (the restart harness talks to
/// the respawned child alone while the survivors keep running).
///
/// # Panics
///
/// Panics if the child's stdin is not piped or the write fails.
pub fn send_line(child: &mut Child, line: &str) {
    let stdin = child.stdin.as_mut().expect("child stdin piped");
    stdin
        .write_all(format!("{line}\n").as_bytes())
        .expect("write to child stdin");
}
