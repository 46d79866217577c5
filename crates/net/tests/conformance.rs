//! The shared transport conformance suite, instantiated for every backend:
//! the in-memory mesh, the UDP socket transport, and the `FaultyLink`
//! decorator over both (fault-free pass-through plus seeded-determinism
//! pinning).

use irs_net::conformance::{check_all_pairs_delivery, check_per_link_fifo, scripted_trace};
use irs_net::{
    DutyCycle, FaultyLink, LinkModel, ManualClock, MemNetwork, Partition, Transport, UdpTransport,
};
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

const N: usize = 5;

fn faulty_free_mesh(n: usize) -> Vec<FaultyLink<irs_net::MemTransport>> {
    MemNetwork::mesh(n)
        .into_iter()
        .map(|t| FaultyLink::new(t, LinkModel::new(0xFEED)))
        .collect()
}

#[test]
fn mem_delivers_all_pairs() {
    check_all_pairs_delivery(&mut MemNetwork::mesh(N), Duration::from_secs(2));
}

#[test]
fn udp_delivers_all_pairs() {
    let mut mesh = UdpTransport::localhost_mesh(N).expect("bind localhost sockets");
    check_all_pairs_delivery(&mut mesh, Duration::from_secs(5));
}

#[test]
fn faulty_over_mem_delivers_all_pairs_without_faults() {
    check_all_pairs_delivery(&mut faulty_free_mesh(N), Duration::from_secs(2));
}

#[test]
fn faulty_over_udp_delivers_all_pairs_without_faults() {
    let mut mesh: Vec<_> = UdpTransport::localhost_mesh(N)
        .expect("bind localhost sockets")
        .into_iter()
        .map(|t| FaultyLink::new(t, LinkModel::new(0xFEED)))
        .collect();
    check_all_pairs_delivery(&mut mesh, Duration::from_secs(5));
}

#[test]
fn mem_preserves_per_link_fifo() {
    check_per_link_fifo(&mut MemNetwork::mesh(N), 50, Duration::from_secs(2));
}

#[test]
fn faulty_without_faults_preserves_per_link_fifo() {
    check_per_link_fifo(&mut faulty_free_mesh(N), 50, Duration::from_secs(2));
}

#[test]
fn grouped_mem_endpoints_route_by_owner() {
    // Processes 0..4 hosted by 2 endpoints: {0, 2} on endpoint 0, {1, 3} on
    // endpoint 1 — the sharded-cluster topology.
    let owner_of = [0usize, 1, 0, 1];
    let mut eps = MemNetwork::grouped(&owner_of);
    assert_eq!(eps.len(), 2);
    eps[0]
        .send(0.into(), 3.into(), b"x")
        .expect("route to other endpoint");
    eps[1].send(1.into(), 2.into(), b"y").expect("route back");
    eps[0]
        .send(2.into(), 0.into(), b"self")
        .expect("loopback within an endpoint");
    let f = eps[1].recv(Duration::from_secs(1)).unwrap().unwrap();
    assert_eq!((f.from, f.to), (0.into(), 3.into()));
    let f = eps[0].recv(Duration::from_secs(1)).unwrap().unwrap();
    assert_eq!((f.from, f.to), (1.into(), 2.into()));
    let f = eps[0].recv(Duration::from_secs(1)).unwrap().unwrap();
    assert_eq!((f.from, f.to), (2.into(), 0.into()));
    assert_eq!(&f.payload[..], b"self");
}

/// UDP keeps per-link FIFO on loopback: the caller's thread issues its
/// `send_to`s in order and the kernel queues each datagram at the receiver
/// before the call returns, so a link's sequence cannot reorder.
#[test]
fn udp_preserves_per_link_fifo() {
    let mut mesh = UdpTransport::localhost_mesh(N).expect("bind localhost sockets");
    check_per_link_fifo(&mut mesh, 50, Duration::from_secs(5));
}

/// The client-fleet shape of `SvcCluster::mux_udp`: two wrapped sockets
/// whose peer table names three replica addresses somebody else serves
/// (here: plain sockets read by the test), then the clients themselves.
#[test]
fn from_socket_routes_to_peers_it_does_not_own() {
    let bind = || UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
    let replicas: Vec<UdpSocket> = (0..3).map(|_| bind()).collect();
    let client_sockets: Vec<UdpSocket> = (0..2).map(|_| bind()).collect();
    let peers: Vec<SocketAddr> = replicas
        .iter()
        .chain(&client_sockets)
        .map(|s| s.local_addr().expect("local addr"))
        .collect();
    let mut clients: Vec<UdpTransport> = client_sockets
        .into_iter()
        .map(|s| UdpTransport::from_socket(s, peers.clone()).expect("wrap"))
        .collect();

    // Client 3 reaches every foreign replica, which answers from its own
    // socket with a frame the client accepts.
    let mut buf = [0u8; 64];
    for (r, replica) in replicas.iter().enumerate() {
        clients[0]
            .send(3.into(), (r as u32).into(), b"req")
            .expect("route to a foreign replica");
        replica
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let (len, from) = replica.recv_from(&mut buf).expect("request arrives");
        assert_eq!(from, peers[3], "sent from the wrapped socket");
        let (f, t, payload) = irs_net::wire::decode_frame(&buf[..len]).expect("a frame");
        assert_eq!((f, t, payload), (3.into(), (r as u32).into(), &b"req"[..]));
        let mut reply = Vec::new();
        irs_net::wire::encode_frame(&mut reply, t, f, b"ack");
        replica.send_to(&reply, from).expect("reply");
        let frame = clients[0]
            .recv(Duration::from_secs(5))
            .expect("recv")
            .expect("reply arrives");
        assert_eq!((frame.from, frame.to), ((r as u32).into(), 3.into()));
        assert_eq!(&frame.payload[..], b"ack");
    }
    // The fleet's own members are routable too, and ids beyond the table
    // are refused synchronously.
    clients[0].send(3.into(), 4.into(), b"peer").expect("send");
    let frame = clients[1].recv(Duration::from_secs(5)).unwrap().unwrap();
    assert_eq!((frame.from, frame.to), (3.into(), 4.into()));
    assert!(clients[1].send(4.into(), 5.into(), b"x").is_err());
}

/// Satellite: `FaultyLink` determinism. Identical `(seed, schedule)` must
/// yield an identical delivered-message trace across two independent runs;
/// a different seed must not.
#[test]
fn faulty_link_trace_is_deterministic_under_seed_and_schedule() {
    let run = |seed: u64| {
        let clock = ManualClock::new();
        let mut eps: Vec<_> = MemNetwork::mesh(4)
            .into_iter()
            .map(|t| {
                FaultyLink::new(
                    t,
                    LinkModel::new(seed)
                        .with_manual_clock(clock.clone())
                        .with_drop_prob(0.35)
                        .with_partition(Partition {
                            a: vec![0, 1],
                            b: vec![2, 3],
                            from_tick: 40,
                            until_tick: 80,
                            symmetric: true,
                        })
                        .with_duty_cycle(DutyCycle {
                            node: 3,
                            period: 30,
                            on: 18,
                            phase: 7,
                        }),
                )
            })
            .collect();
        scripted_trace(&mut eps, 120, |round| clock.set(u64::from(round)))
    };
    let first = run(11);
    let second = run(11);
    assert!(
        !first.is_empty(),
        "the schedule must let some frames through"
    );
    assert_eq!(first, second, "same (seed, schedule) ⇒ same trace");
    assert_ne!(first, run(12), "a different seed must reshuffle the drops");
}

/// Satellite: the same determinism pin over real sockets. The fault
/// model's drop decision hashes `(seed, from, to, arrival index)` and UDP
/// preserves per-link FIFO on loopback, so two runs under the same
/// `(seed, schedule)` must replay byte-identical traces even though frames
/// cross the kernel. No thread but the test's touches the sockets, and a
/// loopback datagram is queued at its receiver before `send_to` returns, so
/// no frame can slip into the next round.
#[test]
fn faulty_over_udp_trace_is_deterministic_under_seed_and_schedule() {
    let run = |seed: u64| {
        let clock = ManualClock::new();
        let mut eps: Vec<_> = UdpTransport::localhost_mesh(4)
            .expect("bind localhost sockets")
            .into_iter()
            .map(|t| {
                FaultyLink::new(
                    t,
                    LinkModel::new(seed)
                        .with_manual_clock(clock.clone())
                        .with_drop_prob(0.35)
                        .with_partition(Partition {
                            a: vec![0, 1],
                            b: vec![2, 3],
                            from_tick: 12,
                            until_tick: 26,
                            symmetric: true,
                        })
                        .with_duty_cycle(DutyCycle {
                            node: 3,
                            period: 12,
                            on: 7,
                            phase: 3,
                        }),
                )
            })
            .collect();
        scripted_trace(&mut eps, 40, |round| clock.set(u64::from(round)))
    };
    let first = run(11);
    let second = run(11);
    assert!(
        !first.is_empty(),
        "the schedule must let some frames through"
    );
    assert_eq!(first, second, "same (seed, schedule) ⇒ same trace");
    assert_ne!(first, run(12), "a different seed must reshuffle the drops");
}
