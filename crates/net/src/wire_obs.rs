//! Wire codec for the live telemetry plane: [`ObsMsg`] scrape
//! request/response messages, plus the transport-level helpers hosts and
//! collectors use to speak them.
//!
//! # Tag range
//!
//! `ObsMsg` owns the disjoint leading-tag range `0x30..=0x31` (see the
//! registry in [`crate::wire_consensus`]), so a scrape datagram fed to a
//! protocol decoder fails with `BadTag` — and a protocol datagram fed to
//! this decoder does too. Hosts peek at the first payload byte with
//! [`is_obs_payload`] to route scrape traffic before protocol decoding.
//!
//! # Protocol
//!
//! A scraper sends `ScrapeRequest { format, cursor }` and the node
//! answers with exactly one `ScrapeChunk { seq, last, bytes }` where
//! `seq == cursor`. Bodies larger than one datagram stream out in
//! [`irs_obs::SCRAPE_CHUNK_LEN`]-bounded chunks — the same cursor-walk
//! shape as the snapshot chunk transfer — with the rendering and session
//! caching done by [`irs_obs::Responder`]. Requests are idempotent and
//! chunks carry their cursor, so the usual datagram failure modes (loss,
//! duplication, reordering) cost a retry, never a torn body.

use crate::transport::{NetError, Transport};
use crate::wire::{decode_payload, Bytes, Tagged, Wire, WireError, WireReader};
use irs_obs::collector::ScrapeSource;
use irs_obs::{Obs, Responder, ScrapeFormat, SCRAPE_CHUNK_LEN};
use irs_types::ProcessId;
use std::time::{Duration, Instant};

/// A telemetry-plane message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsMsg {
    /// "Send me chunk `cursor` of your `format` exposition body."
    ScrapeRequest {
        /// What to render.
        format: ScrapeFormat,
        /// Zero-based chunk index; cursor 0 renders a fresh body.
        cursor: u32,
    },
    /// One chunk of an exposition body.
    ScrapeChunk {
        /// Echo of the request cursor.
        seq: u32,
        /// `true` on the final chunk of the body.
        last: bool,
        /// At most [`SCRAPE_CHUNK_LEN`] body bytes.
        bytes: Vec<u8>,
    },
}

crate::wire_table! {
    impl Wire for ObsMsg {
        TAG_OBS_SCRAPE_REQUEST = 0x30 => ScrapeRequest { format, cursor },
        TAG_OBS_SCRAPE_CHUNK = 0x31 => ScrapeChunk { seq, last, bytes: Bytes<SCRAPE_CHUNK_LEN> },
    }
}

/// One byte; an unknown format is `BadTag`.
impl Wire for ScrapeFormat {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.as_u8());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let byte = r.u8()?;
        ScrapeFormat::from_u8(byte).ok_or(WireError::BadTag(byte))
    }
}

/// `true` when `payload` leads with an observability tag — the cheap
/// route test hosts apply before protocol decoding. A `true` answer does
/// not promise a well-formed message, only that the payload belongs to
/// this plane (and would be noise to every protocol decoder).
pub fn is_obs_payload(payload: &[u8]) -> bool {
    matches!(payload.first(), Some(t) if ObsMsg::TAGS.contains(t))
}

/// Session key for [`Responder`] caching: the scraped node and the
/// scraping endpoint together, so interleaved scrapes of two nodes hosted
/// by one process never mix pages.
pub fn scrape_session_key(me: ProcessId, from: ProcessId) -> u64 {
    (u64::from(me.as_u32()) << 32) | u64::from(from.as_u32())
}

/// Encodes the reply to one already-decoded scrape request into `buf`, for
/// the host to send back to the scraper over its own send path.
pub fn encode_scrape_reply(
    responder: &Responder,
    obs: &Obs,
    session: u64,
    format: ScrapeFormat,
    cursor: u32,
    buf: &mut Vec<u8>,
) {
    let (bytes, last) = responder.chunk(obs, session, format, cursor);
    ObsMsg::ScrapeChunk {
        seq: cursor,
        last,
        bytes,
    }
    .encode(buf);
}

/// A [`ScrapeSource`] over any [`Transport`]: the collector's wire-level
/// client. Node index `i` is scraped at `ProcessId::new(i)`.
pub struct TransportScraper<T: Transport> {
    transport: T,
    me: ProcessId,
    timeout: Duration,
    retries: u32,
}

impl<T: Transport> std::fmt::Debug for TransportScraper<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportScraper")
            .field("me", &self.me)
            .field("timeout", &self.timeout)
            .field("retries", &self.retries)
            .finish_non_exhaustive()
    }
}

impl<T: Transport> TransportScraper<T> {
    /// A scraper sending from `me` over `transport`, mapping collector
    /// node `i` to `ProcessId::new(i)`.
    pub fn new(transport: T, me: ProcessId) -> Self {
        TransportScraper {
            transport,
            me,
            timeout: Duration::from_millis(250),
            retries: 8,
        }
    }

    /// Per-request receive timeout (each of the `retries` attempts waits
    /// this long).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout.max(Duration::from_millis(1));
        self
    }

    /// Attempts per chunk before the fetch fails.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries.max(1);
        self
    }

    /// Gives the transport back (to scrape again later or shut down).
    pub fn into_inner(self) -> T {
        self.transport
    }

    fn attempt(
        &mut self,
        target: ProcessId,
        format: ScrapeFormat,
        cursor: u32,
    ) -> Result<Option<(Vec<u8>, bool)>, String> {
        let mut req = Vec::with_capacity(8);
        ObsMsg::ScrapeRequest { format, cursor }.encode(&mut req);
        match self.transport.send(self.me, target, &req) {
            Ok(()) | Err(NetError::UnknownPeer(_)) => {}
            Err(e) => return Err(format!("scrape send to {target}: {e}")),
        }
        let deadline = Instant::now() + self.timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let frame = self
                .transport
                .recv(deadline - now)
                .map_err(|e| format!("scrape recv: {e}"))?;
            let Some(frame) = frame else { return Ok(None) };
            // Drop anything that is not the chunk we asked for: stale
            // retransmissions, chunks for earlier cursors, stray frames
            // from other planes on a reused endpoint.
            if frame.from != target || frame.to != self.me {
                continue;
            }
            match decode_payload::<ObsMsg>(&frame.payload) {
                Ok(ObsMsg::ScrapeChunk { seq, last, bytes }) if seq == cursor => {
                    return Ok(Some((bytes, last)));
                }
                _ => continue,
            }
        }
    }
}

/// One node's in-flight scrape session inside the pipelined collection.
struct ScrapeSession {
    body: Vec<u8>,
    cursor: u32,
    attempts_left: u32,
    deadline: Instant,
    outcome: Option<Result<Vec<u8>, String>>,
}

impl<T: Transport> TransportScraper<T> {
    fn send_request(&mut self, node: u32, format: ScrapeFormat, cursor: u32) -> Result<(), String> {
        let target = ProcessId::new(node);
        let mut req = Vec::with_capacity(8);
        ObsMsg::ScrapeRequest { format, cursor }.encode(&mut req);
        match self.transport.send(self.me, target, &req) {
            Ok(()) | Err(NetError::UnknownPeer(_)) => Ok(()),
            Err(e) => Err(format!("scrape send to {target}: {e}")),
        }
    }
}

impl<T: Transport> ScrapeSource for TransportScraper<T> {
    fn fetch_chunk(
        &mut self,
        node: u32,
        format: ScrapeFormat,
        cursor: u32,
    ) -> Result<(Vec<u8>, bool), String> {
        let target = ProcessId::new(node);
        for _ in 0..self.retries {
            if let Some(hit) = self.attempt(target, format, cursor)? {
                return Ok(hit);
            }
        }
        Err(format!(
            "node {node} ({target}) did not answer scrape cursor {cursor} after {} attempts",
            self.retries
        ))
    }

    /// Pipelined collection: one request stays in flight *per node* over
    /// the single endpoint, chunks are matched back to their session by
    /// `(sender, seq)`, and a timed-out node retries without stalling the
    /// others. The wall clock of a cluster scrape is therefore bounded by
    /// the slowest node, not the sum of all nodes — a straggler costs its
    /// own latency once, where the sequential default would serialise
    /// behind it.
    fn fetch_bodies(&mut self, n: u32, format: ScrapeFormat) -> Vec<Result<Vec<u8>, String>> {
        let now = Instant::now();
        let mut sessions: Vec<ScrapeSession> = (0..n)
            .map(|_| ScrapeSession {
                body: Vec::new(),
                cursor: 0,
                attempts_left: self.retries,
                deadline: now, // nothing in flight yet; send below
                outcome: None,
            })
            .collect();
        // Open every session: chunk 0 of every node goes out back-to-back.
        for node in 0..n {
            match self.send_request(node, format, 0) {
                Ok(()) => sessions[node as usize].deadline = Instant::now() + self.timeout,
                Err(e) => sessions[node as usize].outcome = Some(Err(e)),
            }
        }
        while sessions.iter().any(|s| s.outcome.is_none()) {
            // Wait until the earliest open deadline for the next frame.
            let horizon = sessions
                .iter()
                .filter(|s| s.outcome.is_none())
                .map(|s| s.deadline)
                .min()
                .expect("an open session exists");
            let now = Instant::now();
            let frame = if horizon > now {
                match self.transport.recv(horizon - now) {
                    Ok(frame) => frame,
                    Err(e) => {
                        // Transport gone: every open session fails.
                        for s in sessions.iter_mut().filter(|s| s.outcome.is_none()) {
                            s.outcome = Some(Err(format!("scrape recv: {e}")));
                        }
                        break;
                    }
                }
            } else {
                None
            };
            if let Some(frame) = frame {
                // Match the chunk to its session by sender and cursor;
                // anything else (stale retransmission, stray plane) drops.
                if frame.to != self.me {
                    continue;
                }
                let node = frame.from.as_u32();
                let Some(s) = sessions.get_mut(node as usize) else {
                    continue;
                };
                if s.outcome.is_some() {
                    continue;
                }
                match decode_payload::<ObsMsg>(&frame.payload) {
                    Ok(ObsMsg::ScrapeChunk { seq, last, bytes }) if seq == s.cursor => {
                        s.body.extend_from_slice(&bytes);
                        if last {
                            s.outcome = Some(Ok(std::mem::take(&mut s.body)));
                            continue;
                        }
                        s.cursor += 1;
                        if s.cursor >= irs_obs::collector::MAX_CHUNKS {
                            s.outcome = Some(Err(format!(
                                "node {node}: scrape body exceeded {} chunks",
                                irs_obs::collector::MAX_CHUNKS
                            )));
                            continue;
                        }
                        // A fresh chunk resets the retry budget, like the
                        // sequential path's per-chunk attempts.
                        s.attempts_left = self.retries;
                        match self.send_request(node, format, s.cursor) {
                            Ok(()) => s.deadline = Instant::now() + self.timeout,
                            Err(e) => s.outcome = Some(Err(e)),
                        }
                    }
                    _ => continue,
                }
            }
            // Expire overdue sessions: retry or fail, without blocking
            // the nodes that are answering.
            let now = Instant::now();
            for node in 0..n {
                let timeout = self.timeout;
                let retries = self.retries;
                let s = &mut sessions[node as usize];
                if s.outcome.is_some() || s.deadline > now {
                    continue;
                }
                s.attempts_left = s.attempts_left.saturating_sub(1);
                if s.attempts_left == 0 {
                    s.outcome = Some(Err(format!(
                        "node {node} ({}) did not answer scrape cursor {} after {retries} attempts",
                        ProcessId::new(node),
                        s.cursor
                    )));
                    continue;
                }
                let cursor = s.cursor;
                match self.send_request(node, format, cursor) {
                    Ok(()) => sessions[node as usize].deadline = Instant::now() + timeout,
                    Err(e) => sessions[node as usize].outcome = Some(Err(e)),
                }
            }
        }
        sessions
            .into_iter()
            .map(|s| s.outcome.expect("every session closed"))
            .collect()
    }
}

// A name the tests below use from this module's scope.
#[cfg(test)]
use crate::wire::put_u32;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemNetwork;
    use irs_obs::collector::ClusterScrape;
    use irs_obs::names;
    use std::sync::Arc;

    #[test]
    fn obs_msgs_roundtrip() {
        let msgs = vec![
            ObsMsg::ScrapeRequest {
                format: ScrapeFormat::Prometheus,
                cursor: 0,
            },
            ObsMsg::ScrapeRequest {
                format: ScrapeFormat::Json,
                cursor: 7,
            },
            ObsMsg::ScrapeRequest {
                format: ScrapeFormat::Trace,
                cursor: u32::MAX,
            },
            ObsMsg::ScrapeChunk {
                seq: 0,
                last: true,
                bytes: Vec::new(),
            },
            ObsMsg::ScrapeChunk {
                seq: 3,
                last: false,
                bytes: vec![0xAB; SCRAPE_CHUNK_LEN],
            },
        ];
        for msg in msgs {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let back: ObsMsg = decode_payload(&buf).expect("roundtrip");
            assert_eq!(back, msg);
        }
    }

    /// One frozen encoding per `ObsMsg` tag.
    #[test]
    fn golden_vectors_pin_every_obs_tag() {
        let golden = [
            (
                ObsMsg::ScrapeRequest {
                    format: ScrapeFormat::Json,
                    cursor: 3,
                },
                "300103000000",
            ),
            (
                ObsMsg::ScrapeChunk {
                    seq: 2,
                    last: true,
                    bytes: vec![0xAB, 0xCD],
                },
                "31020000000102000000abcd",
            ),
        ];
        for (msg, want) in golden {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "{msg:?}");
            assert_eq!(decode_payload::<ObsMsg>(&buf), Ok(msg));
        }
    }

    #[test]
    fn decoder_is_total_over_noise() {
        let mut rng = 0x0B5_u64;
        for _ in 0..2000 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let len = (rng >> 48) as usize % 64;
            let bytes: Vec<u8> = (0..len)
                .map(|i| {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                    (rng >> 32) as u8
                })
                .collect();
            let _ = decode_payload::<ObsMsg>(&bytes); // must not panic
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes never panic the scrape decoder: every host that
        /// answers scrapes decodes it.
        #[test]
        fn random_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..255, 0..96),
        ) {
            let _ = decode_payload::<ObsMsg>(&bytes);
        }
    }

    #[test]
    fn bad_inputs_are_rejected() {
        // Foreign tags: an Ω or consensus payload is noise here.
        for tag in [0x00u8, 0x10, 0x18, 0x20, 0x32, 0xFF] {
            assert!(decode_payload::<ObsMsg>(&[tag, 0, 0, 0, 0, 0]).is_err());
        }
        // Unknown scrape format.
        let bad_format = [TAG_OBS_SCRAPE_REQUEST, 9, 0, 0, 0, 0];
        assert_eq!(
            decode_payload::<ObsMsg>(&bad_format),
            Err(WireError::BadTag(9))
        );
        // Oversized chunk length.
        let mut oversized = vec![TAG_OBS_SCRAPE_CHUNK];
        put_u32(&mut oversized, 0);
        oversized.push(1);
        put_u32(&mut oversized, (SCRAPE_CHUNK_LEN + 1) as u32);
        oversized.resize(oversized.len() + SCRAPE_CHUNK_LEN + 1, 0);
        assert_eq!(
            decode_payload::<ObsMsg>(&oversized),
            Err(WireError::BadLength(SCRAPE_CHUNK_LEN + 1))
        );
        // Non-boolean `last` byte.
        let mut bad_last = vec![TAG_OBS_SCRAPE_CHUNK];
        put_u32(&mut bad_last, 0);
        bad_last.push(2);
        put_u32(&mut bad_last, 0);
        assert_eq!(
            decode_payload::<ObsMsg>(&bad_last),
            Err(WireError::BadTag(2))
        );
        // Trailing bytes after a complete message.
        let mut trailing = Vec::new();
        ObsMsg::ScrapeRequest {
            format: ScrapeFormat::Prometheus,
            cursor: 1,
        }
        .encode(&mut trailing);
        trailing.push(0);
        assert!(decode_payload::<ObsMsg>(&trailing).is_err());
    }

    #[test]
    fn payload_routing_predicate() {
        let mut req = Vec::new();
        ObsMsg::ScrapeRequest {
            format: ScrapeFormat::Prometheus,
            cursor: 0,
        }
        .encode(&mut req);
        assert!(is_obs_payload(&req));
        assert!(!is_obs_payload(&[]));
        assert!(!is_obs_payload(&[0x00]));
        assert!(!is_obs_payload(&[0x20]));
        assert!(!is_obs_payload(&[0x32]));
    }

    /// A node's side of the plane, the way the runtime host answers: decode
    /// the request, [`encode_scrape_reply`], send the chunk back.
    fn serve_scrape<T: Transport>(
        responder: &Responder,
        obs: &Obs,
        transport: &mut T,
        me: ProcessId,
        frame: &crate::Frame,
    ) {
        if let Ok(ObsMsg::ScrapeRequest { format, cursor }) = decode_payload(&frame.payload) {
            let session = scrape_session_key(me, frame.from);
            let mut buf = Vec::new();
            encode_scrape_reply(responder, obs, session, format, cursor, &mut buf);
            let _ = transport.send(me, frame.from, &buf);
        }
    }

    /// End-to-end over the in-memory mesh: a "node" thread answers with
    /// [`serve_scrape`], the collector pulls through a
    /// [`TransportScraper`], and the merged artifact carries the node's
    /// metrics.
    #[test]
    fn scrape_roundtrip_over_mem_transport() {
        let mut mesh = MemNetwork::mesh(2);
        let mut node_t = mesh.remove(0);
        let collector_t = mesh.remove(0);
        let node_id = ProcessId::new(0);
        let collector_id = ProcessId::new(1);

        let obs = Arc::new(Obs::new(1));
        obs.registry().counter(names::WAL_APPENDED).add(0, 42);
        let node_obs = Arc::clone(&obs);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let node_stop = Arc::clone(&stop);
        let server = std::thread::spawn(move || {
            let responder = Responder::new();
            while !node_stop.load(std::sync::atomic::Ordering::Acquire) {
                if let Ok(Some(frame)) = node_t.recv(Duration::from_millis(10)) {
                    serve_scrape(&responder, &node_obs, &mut node_t, node_id, &frame);
                }
            }
        });

        let mut scraper = TransportScraper::new(collector_t, collector_id);
        let cluster = ClusterScrape::collect(&mut scraper, 1).expect("scrape succeeds");
        stop.store(true, std::sync::atomic::Ordering::Release);
        server.join().unwrap();

        let merged = cluster.render_prometheus().expect("merge succeeds");
        assert!(merged.contains("wal_appended{node=\"0\"} 42"), "{merged}");
    }

    /// Satellite: the pipelined collection pays the *slowest* node once,
    /// not the sum of every node's latency. Four nodes each sit on a
    /// scrape request for `DELAY` before answering; the sequential walk
    /// would serialise to ≥ 4 × `DELAY`, the pipelined one finishes well
    /// under 2 × `DELAY` because all four delays overlap.
    #[test]
    fn cluster_scrape_overlaps_slow_nodes() {
        const N: usize = 4;
        const DELAY: Duration = Duration::from_millis(120);
        let mut mesh = MemNetwork::mesh(N + 1);
        let collector_t = mesh.remove(N);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let servers: Vec<_> = mesh
            .into_iter()
            .enumerate()
            .map(|(i, mut node_t)| {
                let node_id = ProcessId::new(i as u32);
                let node_stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let obs = Obs::new(1);
                    obs.registry()
                        .counter(names::WAL_APPENDED)
                        .add(0, i as u64 + 1);
                    let responder = Responder::new();
                    while !node_stop.load(std::sync::atomic::Ordering::Acquire) {
                        if let Ok(Some(frame)) = node_t.recv(Duration::from_millis(10)) {
                            std::thread::sleep(DELAY); // every node is a straggler
                            serve_scrape(&responder, &obs, &mut node_t, node_id, &frame);
                        }
                    }
                })
            })
            .collect();

        let mut scraper = TransportScraper::new(collector_t, ProcessId::new(N as u32))
            .with_timeout(Duration::from_secs(2));
        let started = Instant::now();
        let cluster = ClusterScrape::collect(&mut scraper, N as u32).expect("scrape succeeds");
        let elapsed = started.elapsed();
        stop.store(true, std::sync::atomic::Ordering::Release);
        for s in servers {
            s.join().unwrap();
        }

        assert_eq!(cluster.nodes.len(), N);
        let merged = cluster.render_prometheus().expect("merge succeeds");
        for node in 0..N {
            assert!(
                merged.contains(&format!("wal_appended{{node=\"{node}\"}} {}", node + 1)),
                "{merged}"
            );
        }
        // Sum would be ≥ 480 ms; overlap must land far under that. The
        // bound leaves slack for CI scheduling noise while still ruling
        // out any serialised walk.
        assert!(
            elapsed < DELAY * (N as u32) - DELAY / 2,
            "scrape took {elapsed:?}, which looks serialised (DELAY = {DELAY:?}, N = {N})"
        );
    }
}
