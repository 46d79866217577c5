//! The nonblocking datagram reactor: many UDP endpoints, one thread.
//!
//! [`Reactor`] is the engine under the multiplexed runtimes: it owns a set
//! of **nonblocking** UDP sockets (one per hosted endpoint), a [`Poller`]
//! watching all of them, and a [`BufPool`] of recycled frame buffers. One
//! loop iteration is
//!
//! 1. flush the per-endpoint send queues (retrying whatever a full socket
//!    buffer pushed back last round),
//! 2. block in the poller until a socket turns readable (or the caller's
//!    timeout expires), and
//! 3. drain every readable socket in a batch loop — one wakeup pulls many
//!    datagrams, each decoded once and handed to the caller as borrowed
//!    bytes, with no per-frame allocation on this path.
//!
//! Sends are queued, not issued inline: a broadcast wire-encodes its frame
//! **once** into a pooled buffer and queues it with the full receiver list;
//! the flush loop patches the header's `to` field per receiver
//! ([`wire::set_frame_to`]) and issues one `send_to` per destination from
//! the same bytes. `EWOULDBLOCK` is backpressure — the queue keeps the
//! remainder and the next iteration retries — and a queue past its cap
//! sheds its oldest entry, which is link loss, tolerated by the protocols
//! by assumption.
//!
//! The reactor is single-threaded by design; a multi-core deployment runs
//! one reactor per shard thread (see `irs_runtime`'s `Deployment::spawn_udp`).

use crate::pool::BufPool;
use crate::wire::{self, FRAME_HEADER_LEN, MAX_PAYLOAD};
use crate::{NetError, Poller};
use irs_types::ProcessId;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Most datagrams drained from one socket per wakeup before the loop moves
/// to the next readable socket — bounds per-socket latency under a
/// flooding peer without starving the rest (level-triggered readiness
/// re-reports whatever is left).
const RECV_BATCH: usize = 128;

/// Most queued send entries per endpoint before the oldest is shed as
/// link loss. An entry is one frame (with its full receiver list), so this
/// bounds memory at roughly `cap × frame size` per endpoint.
const SEND_QUEUE_CAP: usize = 1024;

/// Idle buffers the pool retains (shared across all endpoints of the
/// reactor).
const POOL_HIGH_WATER: usize = 256;

/// One queued outbound frame: encoded once, sent to each remaining target
/// with the header's `to` field patched in place.
#[derive(Debug)]
struct QueuedSend {
    buf: Vec<u8>,
    targets: Vec<(ProcessId, SocketAddr)>,
    /// Next target index to send to (earlier ones already went out before
    /// a `WouldBlock` stopped the flush).
    next: usize,
}

/// One hosted endpoint: a nonblocking socket, its peer table, and the
/// pending send queue.
#[derive(Debug)]
struct Ep {
    socket: UdpSocket,
    /// `peers[p]` is the address of the endpoint hosting `ProcessId(p)`.
    peers: Vec<SocketAddr>,
    queue: VecDeque<QueuedSend>,
    malformed: u64,
    shed: u64,
}

/// A multiplexed, nonblocking datagram reactor (see module docs).
#[derive(Debug)]
pub struct Reactor {
    poller: Poller,
    eps: Vec<Ep>,
    pool: BufPool,
    /// Reusable receive buffer (one datagram; decoded before the next
    /// `recv_from` overwrites it).
    rbuf: Vec<u8>,
    /// Reusable readiness scratch.
    ready: Vec<usize>,
    /// Freelist for the per-send target lists, recycled like the buffers.
    targets_free: Vec<Vec<(ProcessId, SocketAddr)>>,
    frames_rx: u64,
    frames_tx: u64,
    sends_batched: u64,
    obs: Option<ObsHook>,
}

/// Registry handles mirroring the reactor's hot counters (attached once
/// via [`Reactor::attach_obs`]; every update is a relaxed atomic add,
/// sharded by endpoint index).
#[derive(Debug)]
struct ObsHook {
    frames_rx: irs_obs::Counter,
    frames_tx: irs_obs::Counter,
    sends_batched: irs_obs::Counter,
    malformed: irs_obs::Counter,
    shed: irs_obs::Counter,
    queue_depth: irs_obs::Gauge,
}

impl Reactor {
    /// An empty reactor; add endpoints with [`Reactor::add_endpoint`].
    pub fn new() -> Reactor {
        Reactor {
            poller: Poller::new(),
            eps: Vec::new(),
            pool: BufPool::new(POOL_HIGH_WATER, FRAME_HEADER_LEN + 256),
            rbuf: vec![0; FRAME_HEADER_LEN + MAX_PAYLOAD],
            ready: Vec::new(),
            targets_free: Vec::new(),
            sends_batched: 0,
            frames_rx: 0,
            frames_tx: 0,
            obs: None,
        }
    }

    /// Mirrors the reactor's counters onto `registry` under the
    /// `net_*` canonical names. The local `u64` counters stay the source
    /// of truth for the accessors; the registry cells receive the same
    /// increments so a scrape sees live totals without touching the
    /// reactor thread.
    pub fn attach_obs(&mut self, registry: &irs_obs::Registry) {
        use irs_obs::names;
        self.obs = Some(ObsHook {
            frames_rx: registry.counter(names::NET_FRAMES_RX),
            frames_tx: registry.counter(names::NET_FRAMES_TX),
            sends_batched: registry.counter(names::NET_SENDS_BATCHED),
            malformed: registry.counter(names::NET_MALFORMED_DROPPED),
            shed: registry.counter(names::NET_SENDS_SHED),
            queue_depth: registry.gauge(names::NET_SEND_QUEUE_DEPTH),
        });
    }

    /// Registers a socket as endpoint `token` (dense, in call order) with
    /// its peer address table. The socket is switched to nonblocking mode
    /// and must not be switched back while the reactor owns it.
    ///
    /// # Errors
    ///
    /// Returns any error from `set_nonblocking` or poller registration.
    pub fn add_endpoint(
        &mut self,
        socket: UdpSocket,
        peers: Vec<SocketAddr>,
    ) -> std::io::Result<usize> {
        socket.set_nonblocking(true)?;
        let token = self.poller.register(&socket)?;
        debug_assert_eq!(token, self.eps.len());
        self.eps.push(Ep {
            socket,
            peers,
            queue: VecDeque::new(),
            malformed: 0,
            shed: 0,
        });
        Ok(token)
    }

    /// Number of hosted endpoints.
    pub fn endpoints(&self) -> usize {
        self.eps.len()
    }

    /// The local address of endpoint `ep`.
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error if the address cannot be read.
    pub fn local_addr(&self, ep: usize) -> std::io::Result<SocketAddr> {
        self.eps[ep].socket.local_addr()
    }

    /// Replaces the peer table of endpoint `ep`.
    pub fn set_peers(&mut self, ep: usize, peers: Vec<SocketAddr>) {
        self.eps[ep].peers = peers;
    }

    /// Queues one frame from `from` to `to` on endpoint `ep`'s send queue
    /// (flushed by the next [`Reactor::flush`] / [`Reactor::poll_once`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownPeer`] if `to` is outside the endpoint's
    /// peer table. Queue overflow is not an error: the oldest entry is shed
    /// as link loss.
    pub fn queue_frame(
        &mut self,
        ep: usize,
        from: ProcessId,
        to: ProcessId,
        payload: &[u8],
    ) -> Result<(), NetError> {
        self.queue_fanout(ep, from, &[to], payload)
    }

    /// Queues one frame to several receivers: the frame is encoded **once**
    /// and the flush loop patches the `to` field per receiver. Counts
    /// toward the `sends_batched` gauge when the fan-out exceeds one.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownPeer`] for the first receiver outside the
    /// endpoint's peer table (nothing is queued in that case).
    pub fn queue_fanout(
        &mut self,
        ep: usize,
        from: ProcessId,
        targets: &[ProcessId],
        payload: &[u8],
    ) -> Result<(), NetError> {
        if targets.is_empty() {
            return Ok(());
        }
        let endpoint = &mut self.eps[ep];
        let mut resolved = self.targets_free.pop().unwrap_or_default();
        resolved.clear();
        for &to in targets {
            match endpoint.peers.get(to.index()) {
                Some(&addr) => resolved.push((to, addr)),
                None => {
                    self.targets_free.push(resolved);
                    return Err(NetError::UnknownPeer(to));
                }
            }
        }
        let mut buf = self.pool.acquire();
        wire::encode_frame(&mut buf, from, targets[0], payload);
        if targets.len() > 1 {
            self.sends_batched += targets.len() as u64;
            if let Some(o) = &self.obs {
                o.sends_batched.add(ep, targets.len() as u64);
            }
        }
        endpoint.queue.push_back(QueuedSend {
            buf,
            targets: resolved,
            next: 0,
        });
        if endpoint.queue.len() > SEND_QUEUE_CAP {
            endpoint.shed += 1;
            if let Some(old) = endpoint.queue.pop_front() {
                self.pool.recycle(old.buf);
                self.targets_free.push(old.targets);
            }
            if let Some(o) = &self.obs {
                o.shed.inc(ep);
            }
        }
        if let Some(o) = &self.obs {
            o.queue_depth.raise(self.eps[ep].queue.len() as u64);
        }
        Ok(())
    }

    /// Flushes every endpoint's send queue until empty or `EWOULDBLOCK`.
    /// A full socket buffer leaves the remainder queued for the next call
    /// (backpressure); any other send error drops that one target as link
    /// loss and moves on.
    pub fn flush(&mut self) {
        for ep in 0..self.eps.len() {
            self.flush_ep(ep);
        }
    }

    fn flush_ep(&mut self, ep: usize) {
        let mut sent = 0u64;
        let Ep { socket, queue, .. } = &mut self.eps[ep];
        'entries: while let Some(entry) = queue.front_mut() {
            while entry.next < entry.targets.len() {
                let (to, addr) = entry.targets[entry.next];
                wire::set_frame_to(&mut entry.buf, to);
                match socket.send_to(&entry.buf, addr) {
                    Ok(_) => {
                        entry.next += 1;
                        sent += 1;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break 'entries,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Anything else (e.g. an ICMP-reported unreachable
                    // peer) is loss on that link; the rest of the fan-out
                    // still goes out.
                    Err(_) => entry.next += 1,
                }
            }
            let done = queue.pop_front().expect("front_mut implies non-empty");
            self.pool.recycle(done.buf);
            self.targets_free.push(done.targets);
        }
        self.frames_tx += sent;
        if let Some(o) = &self.obs {
            if sent > 0 {
                o.frames_tx.add(ep, sent);
            }
        }
    }

    /// One reactor turn: flush pending sends, wait up to `timeout` for
    /// readiness, then batch-drain every readable socket, handing each
    /// valid frame to `on_frame` as `(endpoint, from, to, payload)` with
    /// the payload borrowed from the reactor's receive buffer (valid only
    /// for the duration of the callback). Malformed datagrams are counted
    /// and dropped. Returns the number of frames delivered.
    ///
    /// # Errors
    ///
    /// Returns an error only when the readiness backend itself fails;
    /// per-socket receive errors are treated as loss.
    pub fn poll_once(
        &mut self,
        timeout: Duration,
        mut on_frame: impl FnMut(usize, ProcessId, ProcessId, &[u8]),
    ) -> std::io::Result<usize> {
        self.flush();
        self.poller.wait(&mut self.ready, timeout)?;
        let mut delivered = 0usize;
        for i in 0..self.ready.len() {
            let token = self.ready[i];
            let Some(endpoint) = self.eps.get_mut(token) else {
                continue;
            };
            for _ in 0..RECV_BATCH {
                match endpoint.socket.recv_from(&mut self.rbuf) {
                    Ok((len, _)) => match wire::decode_frame(&self.rbuf[..len]) {
                        Ok((from, to, payload)) => {
                            delivered += 1;
                            on_frame(token, from, to, payload);
                        }
                        Err(_) => {
                            endpoint.malformed += 1;
                            if let Some(o) = &self.obs {
                                o.malformed.inc(token);
                            }
                        }
                    },
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // Per-socket receive errors (ICMP unreachable bounced
                    // back, etc.) are loss, not reactor failure.
                    Err(_) => break,
                }
            }
        }
        self.frames_rx += delivered as u64;
        if let Some(o) = &self.obs {
            if delivered > 0 {
                o.frames_rx.add(0, delivered as u64);
            }
        }
        self.poller.note_progress(delivered > 0);
        Ok(delivered)
    }

    /// Total valid frames delivered to callbacks. Only frames that crossed
    /// the kernel: a host shard hands a frame between two processes it
    /// hosts over itself, and such a frame never reaches the reactor.
    pub fn frames_rx(&self) -> u64 {
        self.frames_rx
    }

    /// Total datagrams successfully written to sockets — like
    /// [`Reactor::frames_rx`], only frames that crossed the kernel.
    pub fn frames_tx(&self) -> u64 {
        self.frames_tx
    }

    /// Current send-queue depth (entries not yet fully flushed) on
    /// endpoint `ep`.
    pub fn queue_depth(&self, ep: usize) -> usize {
        self.eps[ep].queue.len()
    }

    /// Frames queued through a fan-out of more than one receiver (the
    /// encode-once batched path).
    pub fn sends_batched(&self) -> u64 {
        self.sends_batched
    }

    /// Malformed datagrams dropped on endpoint `ep`.
    pub fn malformed(&self, ep: usize) -> u64 {
        self.eps[ep].malformed
    }

    /// Send-queue entries shed under backpressure on endpoint `ep`.
    pub fn shed(&self, ep: usize) -> u64 {
        self.eps[ep].shed
    }

    /// Queued send entries not yet fully flushed, across all endpoints.
    pub fn pending_sends(&self) -> usize {
        self.eps.iter().map(|e| e.queue.len()).sum()
    }

    /// Whether the underlying poller reports actual readiness (see
    /// [`Poller::is_readiness_based`]).
    pub fn is_readiness_based(&self) -> bool {
        self.poller.is_readiness_based()
    }
}

impl Default for Reactor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn mesh(n: usize) -> Reactor {
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
            .collect();
        let peers: Vec<SocketAddr> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
        let mut reactor = Reactor::new();
        for socket in sockets {
            reactor.add_endpoint(socket, peers.clone()).unwrap();
        }
        reactor
    }

    fn drain_into(
        reactor: &mut Reactor,
        out: &mut Vec<(usize, u32, u32, Vec<u8>)>,
        wait: Duration,
    ) {
        let deadline = Instant::now() + wait;
        loop {
            let got = reactor
                .poll_once(Duration::from_millis(10), |ep, from, to, payload| {
                    out.push((ep, from.as_u32(), to.as_u32(), payload.to_vec()));
                })
                .unwrap();
            if got == 0 && Instant::now() >= deadline {
                break;
            }
        }
    }

    /// Satellite: a burst of k frames to one endpoint arrives complete and
    /// in order through the batch-drain path.
    #[test]
    fn burst_of_frames_is_delivered_complete_and_in_order() {
        let mut reactor = mesh(2);
        const K: u32 = 100;
        for seq in 0..K {
            reactor
                .queue_frame(0, ProcessId::new(0), ProcessId::new(1), &seq.to_le_bytes())
                .unwrap();
        }
        let mut got = Vec::new();
        drain_into(&mut reactor, &mut got, Duration::from_millis(200));
        let seqs: Vec<u32> = got
            .iter()
            .filter(|(ep, ..)| *ep == 1)
            .map(|(_, _, _, p)| u32::from_le_bytes(p.as_slice().try_into().unwrap()))
            .collect();
        assert_eq!(seqs.len(), K as usize, "burst delivered complete");
        assert_eq!(seqs, (0..K).collect::<Vec<_>>(), "burst delivered in order");
        assert_eq!(reactor.frames_rx(), u64::from(K));
    }

    /// A fan-out encodes once and every receiver gets a frame addressed to
    /// itself (the patched `to` field routes correctly).
    #[test]
    fn fanout_patches_to_per_receiver() {
        let mut reactor = mesh(4);
        let targets: Vec<ProcessId> = (1..4).map(ProcessId::new).collect();
        reactor
            .queue_fanout(0, ProcessId::new(0), &targets, b"hello")
            .unwrap();
        assert_eq!(reactor.sends_batched(), 3);
        let mut got = Vec::new();
        drain_into(&mut reactor, &mut got, Duration::from_millis(200));
        got.sort();
        let expect: Vec<(usize, u32, u32, Vec<u8>)> = (1..4usize)
            .map(|ep| (ep, 0, ep as u32, b"hello".to_vec()))
            .collect();
        assert_eq!(got, expect, "each receiver sees its own id in `to`");
    }

    #[test]
    fn unknown_peer_is_rejected_before_queueing() {
        let mut reactor = mesh(2);
        let err = reactor
            .queue_frame(0, ProcessId::new(0), ProcessId::new(9), b"x")
            .unwrap_err();
        assert!(matches!(err, NetError::UnknownPeer(p) if p == ProcessId::new(9)));
        assert_eq!(reactor.pending_sends(), 0);
    }

    #[test]
    fn malformed_datagrams_are_counted_and_dropped() {
        let mut reactor = mesh(1);
        let stray = UdpSocket::bind("127.0.0.1:0").unwrap();
        stray
            .send_to(b"not a frame", reactor.local_addr(0).unwrap())
            .unwrap();
        let mut got = Vec::new();
        drain_into(&mut reactor, &mut got, Duration::from_millis(200));
        assert!(got.is_empty());
        assert_eq!(reactor.malformed(0), 1);
    }

    /// Overflowing the send queue sheds the oldest entry instead of
    /// growing without bound.
    #[test]
    fn send_queue_overflow_sheds_oldest() {
        let sockets: Vec<UdpSocket> = (0..2)
            .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
            .collect();
        let peers: Vec<SocketAddr> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
        let mut reactor = Reactor::new();
        for socket in sockets {
            reactor.add_endpoint(socket, peers.clone()).unwrap();
        }
        // Queue past the cap without flushing.
        for seq in 0..(SEND_QUEUE_CAP as u32 + 10) {
            reactor
                .queue_frame(0, ProcessId::new(0), ProcessId::new(1), &seq.to_le_bytes())
                .unwrap();
        }
        assert_eq!(reactor.pending_sends(), SEND_QUEUE_CAP);
        assert_eq!(reactor.shed(0), 10);
    }
}
