//! The in-memory transport backend: a mesh of mailboxes with batched
//! multicast delivery.

use crate::{Frame, NetError, Transport};
use irs_types::ProcessId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Builds the endpoints of an in-process network.
///
/// Every endpoint owns one mailbox, and every endpoint can push into every
/// mailbox. [`MemNetwork::mesh`] gives each process its own endpoint;
/// [`MemNetwork::grouped`] gives one endpoint per *group* of processes (the
/// sharded cluster runs one endpoint per worker shard).
#[derive(Debug)]
pub struct MemNetwork {}

/// What travels through a mailbox: either one frame, or one payload
/// multicast to several processes hosted by the receiving endpoint. The
/// multicast item is what makes a broadcast O(W) mailbox pushes (one per
/// endpoint) instead of O(n) (one per process) — the receiving side expands
/// it back into per-process [`Frame`]s in order.
#[derive(Debug)]
enum MemItem {
    One(Frame),
    Many {
        from: ProcessId,
        targets: Vec<ProcessId>,
        payload: Arc<[u8]>,
    },
}

impl MemNetwork {
    /// One endpoint per process: endpoint `i` hosts exactly `ProcessId(i)`.
    pub fn mesh(n: usize) -> Vec<MemTransport> {
        Self::grouped((0..n).collect::<Vec<_>>().as_slice())
    }

    /// One endpoint per group: `owner_of[p]` names the endpoint hosting
    /// process `p`. Endpoints are numbered `0..=max(owner_of)` and returned
    /// in order.
    ///
    /// # Panics
    ///
    /// Panics if `owner_of` is empty.
    pub fn grouped(owner_of: &[usize]) -> Vec<MemTransport> {
        assert!(!owner_of.is_empty(), "a network needs at least one process");
        let endpoints = owner_of.iter().max().expect("non-empty") + 1;
        let mailboxes: Arc<[Mailbox]> = (0..endpoints).map(|_| Mailbox::default()).collect();
        let owner_of: Arc<[usize]> = owner_of.into();
        let pushes: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
        (0..endpoints)
            .map(|me| MemTransport {
                mailboxes: Arc::clone(&mailboxes),
                me,
                owner_of: Arc::clone(&owner_of),
                taken: VecDeque::new(),
                ready: VecDeque::new(),
                pushes: Arc::clone(&pushes),
                scratch: Vec::new(),
            })
            .collect()
    }
}

/// One endpoint's incoming queue. A sender takes the lock once per push and
/// wakes the owner only when it is parked waiting; the owner takes the whole
/// queue under one lock. The owner parks on a condition variable at once,
/// without spinning first: on a shared core a spinning receiver only delays
/// the sender it waits for.
#[derive(Debug, Default)]
struct Mailbox {
    inbox: Mutex<Inbox>,
    wake: Condvar,
}

#[derive(Debug, Default)]
struct Inbox {
    items: VecDeque<MemItem>,
    /// The owner waits on [`Mailbox::wake`]; the first push clears it and
    /// notifies.
    parked: bool,
    /// The owner is gone: a push fails with [`NetError::Closed`].
    closed: bool,
}

impl Mailbox {
    /// Every update leaves the inbox whole, so a poisoned lock is safe to
    /// keep using (and the endpoint's `Drop` must not panic).
    fn lock(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One endpoint of a [`MemNetwork`].
///
/// `send` routes by looking up the receiver's owning endpoint; a broadcast
/// through [`Transport::send_many`] shares a single payload allocation
/// across every receiver *and* collapses the fan-out to one mailbox push
/// per destination endpoint (the PR 2 `O(W)` batching, restored on the
/// transport boundary).
#[derive(Debug)]
pub struct MemTransport {
    /// Every endpoint's mailbox, indexed by endpoint.
    mailboxes: Arc<[Mailbox]>,
    /// This endpoint's index: the mailbox it owns.
    me: usize,
    owner_of: Arc<[usize]>,
    /// The items last taken from the mailbox (kept for its capacity: taking
    /// swaps it with the mailbox's queue).
    taken: VecDeque<MemItem>,
    /// Frames taken from the mailbox, multicast items expanded, delivered
    /// before the mailbox is looked at again (preserves per-link FIFO: one
    /// queue, in-order expansion).
    ready: VecDeque<Frame>,
    /// Network-wide count of mailbox pushes — the observable the batched
    /// fan-out exists to minimise (one push per endpoint per broadcast).
    pushes: Arc<AtomicU64>,
    /// Reused `(owner, target)` scratch for grouping a multicast by
    /// endpoint without per-call nested allocations (this is the hot
    /// fan-out path of the sharded runtime).
    scratch: Vec<(usize, ProcessId)>,
}

impl MemTransport {
    fn owner(&self, to: ProcessId) -> Result<usize, NetError> {
        self.owner_of
            .get(to.index())
            .copied()
            .ok_or(NetError::UnknownPeer(to))
    }

    fn push(&self, owner: usize, item: MemItem) -> Result<(), NetError> {
        self.pushes.fetch_add(1, Ordering::Relaxed);
        let mailbox = &self.mailboxes[owner];
        let mut inbox = mailbox.lock();
        if inbox.closed {
            return Err(NetError::Closed);
        }
        inbox.items.push_back(item);
        let parked = std::mem::take(&mut inbox.parked);
        drop(inbox);
        if parked {
            mailbox.wake.notify_one();
        }
        Ok(())
    }

    /// Moves everything in this endpoint's mailbox into `ready`, first
    /// waiting up to `timeout` for something to arrive.
    fn take(&mut self, timeout: Duration) {
        let mailbox = &self.mailboxes[self.me];
        let mut inbox = mailbox.lock();
        if inbox.items.is_empty() && !timeout.is_zero() {
            inbox.parked = true;
            inbox = mailbox
                .wake
                .wait_timeout_while(inbox, timeout, |inbox| inbox.items.is_empty())
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            inbox.parked = false;
        }
        std::mem::swap(&mut inbox.items, &mut self.taken);
        drop(inbox);
        for item in self.taken.drain(..) {
            match item {
                MemItem::One(frame) => self.ready.push_back(frame),
                MemItem::Many {
                    from,
                    targets,
                    payload,
                } => self.ready.extend(targets.into_iter().map(|to| Frame {
                    from,
                    to,
                    payload: Arc::clone(&payload),
                })),
            }
        }
    }

    /// Total mailbox pushes across the whole network so far. A broadcast
    /// through [`Transport::send_many`] costs one push per destination
    /// *endpoint*, not per process — pinned by a unit test.
    pub fn channel_pushes(&self) -> u64 {
        self.pushes.load(Ordering::Relaxed)
    }
}

impl Transport for MemTransport {
    fn send(&mut self, from: ProcessId, to: ProcessId, payload: &[u8]) -> Result<(), NetError> {
        let owner = self.owner(to)?;
        self.push(
            owner,
            MemItem::One(Frame {
                from,
                to,
                payload: payload.into(),
            }),
        )
    }

    fn send_many(
        &mut self,
        from: ProcessId,
        targets: &[ProcessId],
        payload: &[u8],
    ) -> Result<(), NetError> {
        // One payload allocation for the whole fan-out, one mailbox push
        // per destination endpoint: receivers hosted by the same endpoint
        // share a single multicast item. Grouping goes through a reused
        // scratch sorted by owner (stable, so per-owner target order — and
        // with it per-link FIFO — is preserved), so the only per-call heap
        // work besides the payload is the target list of each actual
        // multi-receiver item, which the channel consumes anyway.
        let shared: Arc<[u8]> = payload.into();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for &to in targets {
            match self.owner(to) {
                Ok(owner) => scratch.push((owner, to)),
                Err(e) => {
                    self.scratch = scratch;
                    return Err(e);
                }
            }
        }
        scratch.sort_by_key(|&(owner, _)| owner);
        let mut i = 0;
        let mut result = Ok(());
        while i < scratch.len() {
            let owner = scratch[i].0;
            let mut j = i + 1;
            while j < scratch.len() && scratch[j].0 == owner {
                j += 1;
            }
            let item = if j - i == 1 {
                MemItem::One(Frame {
                    from,
                    to: scratch[i].1,
                    payload: Arc::clone(&shared),
                })
            } else {
                MemItem::Many {
                    from,
                    targets: scratch[i..j].iter().map(|&(_, to)| to).collect(),
                    payload: Arc::clone(&shared),
                }
            };
            if let Err(e) = self.push(owner, item) {
                result = Err(e);
                break;
            }
            i = j;
        }
        self.scratch = scratch;
        result
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError> {
        if self.ready.is_empty() {
            self.take(timeout);
        }
        Ok(self.ready.pop_front())
    }
}

impl Drop for MemTransport {
    /// Closes the mailbox: later pushes into it fail with
    /// [`NetError::Closed`], and what it held is freed now.
    fn drop(&mut self) {
        let mut inbox = self.mailboxes[self.me].lock();
        inbox.closed = true;
        inbox.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A multicast to `k` processes spread over `W` endpoints costs `W`
    /// mailbox pushes, not `k` — and still delivers one frame per process,
    /// in target order, sharing one payload allocation.
    #[test]
    fn send_many_batches_one_push_per_endpoint() {
        // Endpoint 0 hosts p1/p2, endpoint 1 hosts p3/p4.
        let mut eps = MemNetwork::grouped(&[0, 0, 1, 1]);
        let all: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
        let before = eps[0].channel_pushes();
        eps[0]
            .send_many(ProcessId::new(0), &all, b"payload")
            .expect("multicast");
        assert_eq!(
            eps[0].channel_pushes() - before,
            2,
            "one push per endpoint, not per process"
        );
        let mut ep1 = eps.remove(1);
        let mut ep0 = eps.remove(0);
        let mut seen = Vec::new();
        for _ in 0..2 {
            let f = ep0.recv(Duration::from_secs(1)).unwrap().expect("frame");
            assert_eq!(&f.payload[..], b"payload");
            seen.push(f.to);
        }
        for _ in 0..2 {
            let f = ep1.recv(Duration::from_secs(1)).unwrap().expect("frame");
            assert_eq!(&f.payload[..], b"payload");
            seen.push(f.to);
        }
        assert_eq!(seen, all, "every target got its frame, in order");
    }

    /// A send into the mailbox of a dropped endpoint fails as `Closed`;
    /// the endpoints still alive keep talking.
    #[test]
    fn a_send_to_a_dropped_endpoint_is_closed() {
        let mut eps = MemNetwork::mesh(3);
        drop(eps.remove(2));
        let (p0, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
        assert!(matches!(eps[0].send(p0, p2, b"x"), Err(NetError::Closed)));
        assert!(matches!(
            eps[0].send_many(p0, &[p1, p2], b"y"),
            Err(NetError::Closed)
        ));
        let f = eps[1].recv(Duration::from_secs(1)).unwrap().expect("frame");
        assert_eq!((f.from, &f.payload[..]), (p0, &b"y"[..]));
    }

    /// A receiver parked in `recv` wakes for a send from another thread,
    /// and a `recv` that finds nothing waits out its timeout.
    #[test]
    fn a_parked_receiver_wakes_for_a_send() {
        let mut eps = MemNetwork::mesh(2);
        let mut sender = eps.pop().expect("endpoint 1");
        let mut receiver = eps.pop().expect("endpoint 0");
        let started = std::time::Instant::now();
        assert!(receiver.recv(Duration::from_millis(20)).unwrap().is_none());
        assert!(started.elapsed() >= Duration::from_millis(20));
        let pinger = std::thread::spawn(move || {
            // Send only once the receiver is parked in its wait.
            while !sender.mailboxes[0].lock().parked {
                std::thread::yield_now();
            }
            sender
                .send(ProcessId::new(1), ProcessId::new(0), b"ping")
                .expect("send");
            sender
        });
        let f = receiver
            .recv(Duration::from_secs(10))
            .unwrap()
            .expect("frame");
        assert_eq!(&f.payload[..], b"ping");
        drop(pinger.join().expect("pinger"));
    }

    /// Per-link FIFO survives the multicast expansion: a unicast sent after
    /// a multicast to the same receiver arrives after it.
    #[test]
    fn multicast_expansion_preserves_per_link_fifo() {
        let mut eps = MemNetwork::grouped(&[0, 0, 1]);
        let targets = [ProcessId::new(0), ProcessId::new(1)];
        eps[1]
            .send_many(ProcessId::new(2), &targets, b"first")
            .unwrap();
        eps[1]
            .send(ProcessId::new(2), ProcessId::new(1), b"second")
            .unwrap();
        let ep0 = &mut eps[0];
        let order: Vec<(ProcessId, Vec<u8>)> = (0..3)
            .map(|_| {
                let f = ep0.recv(Duration::from_secs(1)).unwrap().expect("frame");
                (f.to, f.payload.to_vec())
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (ProcessId::new(0), b"first".to_vec()),
                (ProcessId::new(1), b"first".to_vec()),
                (ProcessId::new(1), b"second".to_vec()),
            ]
        );
    }
}
