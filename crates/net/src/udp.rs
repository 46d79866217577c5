//! The UDP socket transport backend.
//!
//! One `std::net::UdpSocket` per endpoint; each message travels as one
//! datagram carrying the wire frame header (`magic, version, from, to, len`)
//! followed by the encoded payload. Datagram boundaries give framing for
//! free; the length field guards against truncated reads and the magic
//! bytes reject stray traffic on the port. Malformed datagrams are counted
//! and dropped — a socket is an untrusted input, and the protocols tolerate
//! loss by design.
//!
//! # Who waits, with what clock
//!
//! The endpoint is caller-driven: no thread stands between the caller and
//! the socket. The socket is nonblocking from construction on. `send` and
//! `send_many` are inline `send_to`s on the caller's thread; `recv(timeout)`
//! is one `recv_from`, and only when that finds nothing does the *caller's*
//! thread sleep — in [`crate::poll`]'s one-socket wait (`ppoll` on Linux,
//! nanosecond `timespec`) for what is left of the timeout on the monotonic
//! clock, then `recv_from` again. A zero timeout is the single `recv_from`.
//! A signal or a malformed datagram re-waits against the same deadline, so
//! neither extends it. `SO_RCVTIMEO` is not used: the kernel rounds it up to
//! scheduler ticks (4–8 ms on a 250 Hz build), which would quantise every
//! protocol timer a host sleeps towards and stretch a client's retry.

use crate::poll::wait_readable;
use crate::wire::{self, FRAME_HEADER_LEN, MAX_PAYLOAD};
use crate::{Frame, NetError, Transport};
use irs_types::ProcessId;
use std::io::ErrorKind;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

/// A [`Transport`] backed by one UDP socket.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    /// `peers[p]` is the socket address of the endpoint hosting `ProcessId(p)`.
    peers: Vec<SocketAddr>,
    /// Reusable receive buffer (one datagram).
    buf: Vec<u8>,
    /// Reusable send buffer (header + payload).
    out: Vec<u8>,
    /// Datagrams dropped because they failed frame validation.
    malformed: u64,
    /// Frames sent through the encode-once `send_many` fan-out.
    batched: u64,
    /// Registry mirrors of `malformed` / `batched` (see
    /// [`UdpTransport::attach_obs`]).
    obs: Option<(irs_obs::Counter, irs_obs::Counter)>,
}

impl UdpTransport {
    /// Binds a socket on `addr` (use port 0 for an ephemeral port).
    ///
    /// The peer table starts empty; fill it with [`UdpTransport::set_peers`]
    /// once every endpoint's address is known.
    ///
    /// # Errors
    ///
    /// Returns any socket-binding error.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::from_socket(UdpSocket::bind(addr)?, Vec::new())
    }

    /// Wraps an already-bound socket. `peers` is the full routing table
    /// (`peers[p]` hosts `ProcessId(p)`) and may name addresses this process
    /// does not own — this is how a client fleet routes to replica sockets
    /// served elsewhere.
    ///
    /// # Errors
    ///
    /// Returns the socket error if nonblocking mode cannot be set.
    pub fn from_socket(socket: UdpSocket, peers: Vec<SocketAddr>) -> std::io::Result<Self> {
        socket.set_nonblocking(true)?;
        Ok(UdpTransport {
            socket,
            peers,
            buf: vec![0; FRAME_HEADER_LEN + MAX_PAYLOAD],
            out: Vec::with_capacity(1500),
            malformed: 0,
            batched: 0,
            obs: None,
        })
    }

    /// Mirrors this transport's counters onto `registry` under the
    /// `udp_*` canonical names (the local counters remain authoritative
    /// for the `Transport` accessors).
    pub fn attach_obs(&mut self, registry: &irs_obs::Registry) {
        self.obs = Some((
            registry.counter(irs_obs::names::UDP_MALFORMED_DROPPED),
            registry.counter(irs_obs::names::UDP_SENDS_BATCHED),
        ));
    }

    /// The local socket address (to advertise to peers).
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error if the address cannot be read.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Installs the peer table: `peers[p]` hosts `ProcessId(p)`.
    pub fn set_peers(&mut self, peers: Vec<SocketAddr>) {
        self.peers = peers;
    }

    /// One nonblocking `recv_from`: the next queued datagram's frame, or
    /// `None` when nothing is queued — or when what was queued is malformed,
    /// which is counted and swallowed.
    fn try_recv(&mut self) -> Result<Option<Frame>, NetError> {
        let len = match self.socket.recv_from(&mut self.buf) {
            Ok((len, _)) => len,
            // A signal (profiler, debugger, SIGCHLD in the embedder)
            // interrupting the read is not a dead link.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return Ok(None)
            }
            Err(e) => return Err(NetError::Io(e)),
        };
        match wire::decode_frame(&self.buf[..len]) {
            Ok((from, to, payload)) => Ok(Some(Frame {
                from,
                to,
                payload: payload.into(),
            })),
            Err(_) => {
                self.malformed += 1;
                if let Some((malformed, _)) = &self.obs {
                    malformed.inc(0);
                }
                Ok(None)
            }
        }
    }

    /// Binds on an ephemeral localhost port, retrying transient
    /// `AddrInUse` collisions — under parallel test/CI load the port the
    /// OS reserves can race another process's bind between reservation and
    /// use. The peer table starts empty, as with [`UdpTransport::bind`].
    ///
    /// # Errors
    ///
    /// Returns the last error once the retries are exhausted, or any
    /// non-`AddrInUse` error immediately.
    pub fn bind_localhost_retry() -> std::io::Result<Self> {
        let mut last_err = None;
        for _ in 0..5 {
            match Self::bind(("127.0.0.1", 0)) {
                Ok(t) => return Ok(t),
                Err(e) if e.kind() == ErrorKind::AddrInUse => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => return Err(e),
            }
        }
        // Invariant, not input: each of the five passes returned or stored an error.
        Err(last_err.expect("retries imply an error"))
    }

    /// Binds `n` endpoints on ephemeral localhost ports, fully meshed.
    ///
    /// This is the one-address-space deployment used by tests and the E11
    /// experiment: real sockets and real framing, one OS process. For a
    /// multi-process deployment, bind each endpoint in its own process and
    /// exchange addresses out of band (see `examples/socket_cluster.rs`).
    ///
    /// # Errors
    ///
    /// Returns any socket-binding error.
    pub fn localhost_mesh(n: usize) -> std::io::Result<Vec<UdpTransport>> {
        let mut endpoints = Vec::with_capacity(n);
        for _ in 0..n {
            endpoints.push(UdpTransport::bind(("127.0.0.1", 0))?);
        }
        let peers: Vec<SocketAddr> = endpoints
            .iter()
            .map(|e| e.local_addr())
            .collect::<std::io::Result<_>>()?;
        for endpoint in &mut endpoints {
            endpoint.set_peers(peers.clone());
        }
        Ok(endpoints)
    }
}

impl Transport for UdpTransport {
    fn send(&mut self, from: ProcessId, to: ProcessId, payload: &[u8]) -> Result<(), NetError> {
        let addr = *self
            .peers
            .get(to.index())
            .ok_or(NetError::UnknownPeer(to))?;
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        wire::encode_frame(&mut out, from, to, payload);
        let result = self.socket.send_to(&out, addr);
        self.out = out;
        match result {
            Ok(_) => Ok(()),
            // A full socket buffer is packet loss, which the contract allows.
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(NetError::Io(e)),
        }
    }

    fn send_many(
        &mut self,
        from: ProcessId,
        targets: &[ProcessId],
        payload: &[u8],
    ) -> Result<(), NetError> {
        let Some((&first, _)) = targets.split_first() else {
            return Ok(());
        };
        // Validate every target up front so an unroutable receiver is an
        // error before any datagram leaves, not after a partial fan-out.
        if let Some(&bad) = targets.iter().find(|t| t.index() >= self.peers.len()) {
            return Err(NetError::UnknownPeer(bad));
        }
        // Encode the frame once; each receiver differs only in the four
        // `to` bytes, patched in place before its `send_to`.
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        wire::encode_frame(&mut out, from, first, payload);
        let mut result = Ok(());
        for &to in targets {
            let addr = self.peers[to.index()];
            wire::set_frame_to(&mut out, to);
            match self.socket.send_to(&out, addr) {
                Ok(_) => {
                    self.batched += 1;
                    if let Some((_, batched)) = &self.obs {
                        batched.inc(to.index());
                    }
                }
                // A full socket buffer is packet loss, which the contract
                // allows; the frame still took the batched path.
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.batched += 1,
                Err(e) => {
                    result = Err(NetError::Io(e));
                    break;
                }
            }
        }
        self.out = out;
        result
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError> {
        // The receive comes first: a reply that is already queued — the
        // closed-loop steady state, and every zero-timeout drain of a shard
        // loop's burst — costs one syscall and no clock read.
        if let Some(frame) = self.try_recv()? {
            return Ok(Some(frame));
        }
        if timeout.is_zero() {
            return Ok(None);
        }
        // Elapsed-since-start rather than an `Instant` deadline, so an
        // effectively unbounded `timeout` cannot overflow the clock.
        let started = Instant::now();
        loop {
            let left = timeout.saturating_sub(started.elapsed());
            if left.is_zero() {
                return Ok(None);
            }
            if wait_readable(&self.socket, left)? {
                if let Some(frame) = self.try_recv()? {
                    return Ok(Some(frame));
                }
            }
        }
    }

    fn malformed_dropped(&self) -> u64 {
        self.malformed
    }

    fn sends_batched(&self) -> u64 {
        self.batched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datagrams_carry_frames_between_sockets() {
        let mut mesh = UdpTransport::localhost_mesh(2).unwrap();
        let (a, b) = {
            let mut it = mesh.drain(..);
            (it.next().unwrap(), it.next().unwrap())
        };
        let (mut a, mut b) = (a, b);
        a.send(ProcessId::new(0), ProcessId::new(1), b"ping")
            .unwrap();
        let frame = b
            .recv(Duration::from_secs(2))
            .unwrap()
            .expect("datagram arrives on loopback");
        assert_eq!(frame.from, ProcessId::new(0));
        assert_eq!(frame.to, ProcessId::new(1));
        assert_eq!(&frame.payload[..], b"ping");
    }

    #[test]
    fn malformed_datagrams_are_dropped_not_delivered() {
        let mut mesh = UdpTransport::localhost_mesh(2).unwrap();
        let target = mesh[1].local_addr().unwrap();
        let stray = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        stray.send_to(b"not a frame", target).unwrap();
        let mut b = mesh.remove(1);
        assert!(b.recv(Duration::from_millis(300)).unwrap().is_none());
        assert_eq!(b.malformed_dropped(), 1);
    }

    #[test]
    fn recv_times_out_cleanly() {
        let mut mesh = UdpTransport::localhost_mesh(1).unwrap();
        let started = Instant::now();
        assert!(mesh[0].recv(Duration::from_millis(50)).unwrap().is_none());
        assert!(started.elapsed() >= Duration::from_millis(40));
    }

    /// Satellite: `send_many` encodes once and fans out from one buffer —
    /// every receiver still gets a frame addressed to itself, and the
    /// batched-sends gauge counts the fan-out.
    #[test]
    fn send_many_patches_to_per_receiver_and_counts() {
        let mut mesh = UdpTransport::localhost_mesh(4).unwrap();
        let targets: Vec<ProcessId> = (1..4).map(ProcessId::new).collect();
        let mut sender = mesh.remove(0);
        sender
            .send_many(ProcessId::new(0), &targets, b"fan")
            .unwrap();
        assert_eq!(sender.sends_batched(), 3);
        for (i, receiver) in mesh.iter_mut().enumerate() {
            let frame = receiver
                .recv(Duration::from_secs(2))
                .unwrap()
                .expect("fan-out arrives");
            assert_eq!(frame.from, ProcessId::new(0));
            assert_eq!(frame.to, ProcessId::new((i + 1) as u32));
            assert_eq!(&frame.payload[..], b"fan");
        }
        // An unknown receiver mid-list errors without corrupting the
        // reusable buffer for later sends.
        let err = sender
            .send_many(
                ProcessId::new(0),
                &[ProcessId::new(1), ProcessId::new(9)],
                b"x",
            )
            .unwrap_err();
        assert!(matches!(err, NetError::UnknownPeer(p) if p == ProcessId::new(9)));
        sender
            .send(ProcessId::new(0), ProcessId::new(1), b"ok")
            .unwrap();
        let frame = mesh[0].recv(Duration::from_secs(2)).unwrap().unwrap();
        assert_eq!(&frame.payload[..], b"ok");
    }

    /// Zero-timeout polls and timed waits interleave on the one nonblocking
    /// socket: every frame is seen exactly once, in order, whichever kind of
    /// call meets it.
    #[test]
    fn timeout_caching_preserves_recv_semantics() {
        let mut mesh = UdpTransport::localhost_mesh(2).unwrap();
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();

        // Idle: both kinds of call miss, and a changed timeout takes effect.
        assert!(b.recv(Duration::ZERO).unwrap().is_none());
        for wait_ms in [50, 50, 120] {
            let started = Instant::now();
            let wait = Duration::from_millis(wait_ms);
            assert!(b.recv(wait).unwrap().is_none());
            assert!(started.elapsed() >= wait);
        }
        // Eight queued frames, drained by alternating zero / non-zero calls.
        for seq in 0..8u8 {
            a.send(ProcessId::new(0), ProcessId::new(1), &[seq])
                .unwrap();
        }
        for seq in 0..8u8 {
            let timeout = if seq % 2 == 0 {
                Duration::ZERO
            } else {
                Duration::from_secs(2)
            };
            let frame = b.recv(timeout).unwrap().expect("queued frame");
            assert_eq!(frame.payload[0], seq);
        }
        assert!(b.recv(Duration::ZERO).unwrap().is_none());
        assert!(b.recv(Duration::from_millis(1)).unwrap().is_none());
    }

    fn median(mut samples: Vec<Duration>) -> Duration {
        samples.sort();
        samples[samples.len() / 2]
    }

    fn idle_waits(endpoint: &mut UdpTransport, wait: Duration, count: usize) -> Vec<Duration> {
        (0..count)
            .map(|_| {
                let started = Instant::now();
                assert!(endpoint.recv(wait).unwrap().is_none());
                started.elapsed()
            })
            .collect()
    }

    /// The wait is timed at timer precision, not in scheduler ticks: under
    /// `SO_RCVTIMEO` on a 250 Hz kernel the two medians read 8 ms and 36 ms.
    /// Medians, so a preempted sample or two under test load cannot fail it.
    #[test]
    #[cfg(target_os = "linux")]
    fn idle_waits_end_at_their_deadline_not_at_the_next_tick() {
        let mut mesh = UdpTransport::localhost_mesh(1).unwrap();
        let short = median(idle_waits(&mut mesh[0], Duration::from_micros(300), 21));
        assert!(
            (Duration::from_micros(300)..Duration::from_millis(2)).contains(&short),
            "median of 21 300 µs waits: {short:?}"
        );
        let long = median(idle_waits(&mut mesh[0], Duration::from_millis(30), 11));
        assert!(
            (Duration::from_millis(30)..Duration::from_millis(32)).contains(&long),
            "median of 11 30 ms waits: {long:?}"
        );
    }

    /// A frame that arrives while the caller sleeps ends the wait. The
    /// sender is released by the receiver just before it starts waiting, so
    /// the frame lands during (or just before) the wait with no sleep to
    /// tune. The second round waits "forever": `Duration::MAX` must overflow
    /// neither the `timespec` nor the clock arithmetic.
    #[test]
    fn a_frame_arriving_mid_wait_is_returned_before_the_deadline() {
        let mut mesh = UdpTransport::localhost_mesh(2).unwrap();
        let mut b = mesh.pop().unwrap();
        let mut a = mesh.pop().unwrap();
        let (go, released) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                while released.recv().is_ok() {
                    a.send(ProcessId::new(0), ProcessId::new(1), b"late")
                        .unwrap();
                }
            });
            for wait in [Duration::from_secs(10), Duration::MAX] {
                assert!(b.recv(Duration::ZERO).unwrap().is_none(), "nothing yet");
                let started = Instant::now();
                go.send(()).unwrap();
                let frame = b.recv(wait).unwrap().expect("woken by the frame");
                assert_eq!(&frame.payload[..], b"late");
                assert!(started.elapsed() < wait / 2, "slept through the frame");
            }
            drop(go);
        });
    }

    /// A stray datagram mid-wait is counted and swallowed, and the wait
    /// resumes against the *same* deadline: it neither returns early nor
    /// starts a fresh timeout.
    #[test]
    fn a_malformed_datagram_mid_wait_does_not_extend_the_deadline() {
        let mut mesh = UdpTransport::localhost_mesh(1).unwrap();
        let mut b = mesh.pop().unwrap();
        let target = b.local_addr().unwrap();
        let (go, released) = std::sync::mpsc::channel::<()>();
        let wait = Duration::from_millis(200);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let stray = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
                released.recv().expect("receiver is about to wait");
                // Half-way in: were the wait restarted here, the call
                // would take 1.5 × `wait`.
                std::thread::sleep(wait / 2);
                stray.send_to(b"not a frame", target).unwrap();
            });
            let started = Instant::now();
            go.send(()).unwrap();
            assert!(b.recv(wait).unwrap().is_none());
            let took = started.elapsed();
            assert!(took >= wait, "returned early: {took:?}");
            assert!(took < wait + wait / 4, "deadline extended: {took:?}");
        });
        assert_eq!(b.malformed_dropped(), 1);
    }

    #[test]
    fn unknown_peer_is_an_error() {
        let mut mesh = UdpTransport::localhost_mesh(1).unwrap();
        let err = mesh[0]
            .send(ProcessId::new(0), ProcessId::new(9), b"x")
            .unwrap_err();
        assert!(matches!(err, NetError::UnknownPeer(p) if p == ProcessId::new(9)));
    }
}
