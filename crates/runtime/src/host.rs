//! The one host loop: a shard of `k ≥ 1` sans-IO protocol instances over an
//! I/O source.
//!
//! The paper's Figure 3 is a state machine with two effects — "broadcast"
//! and "set timer" — and [`Shard`] is the only code in the stack that turns
//! those effects into behaviour. One [`Shard::turn`] fires the due timers,
//! polls the source up to the next deadline and delivers what arrived; the
//! three drivers differ only in who turns it: shard threads
//! ([`Deployment`](crate::Deployment): `W` shards over grouped endpoints,
//! `n` shards of one with an endpoint per process, or `W` shards over
//! reactors), the calling thread ([`run_node`](crate::run_node): one shard
//! of one) or the caller, one turn at a time on a manual clock
//! ([`Stepper`](crate::Stepper): all processes on one shard).
//! What a shard owns, once:
//!
//! * the **clock** — an [`irs_net::FaultClock`]: wall ticks since the shard
//!   started on a thread, a [`irs_net::ManualClock`] under the stepper;
//! * the **timer wheel** — `irs-sim`'s hierarchical [`EventQueue`], keyed in
//!   the clock's ticks, with generation-stamped entries ([`TimerGens`]):
//!   arming a timer bumps its generation and pushes a new entry, cancelling
//!   only bumps, and a popped entry whose generation is stale is skipped.
//!   That is the paper's "set timer to …" (re-arming replaces) without ever
//!   deleting from the wheel;
//! * the **`Actions` dispatch** — each outbound message is wire-encoded at
//!   most once, into a reused buffer, and handed to the I/O source with its
//!   whole receiver list, so a broadcast costs one encode however wide it
//!   is — and none when every receiver is co-hosted (below);
//! * the **admit → stage → deliver path** — the I/O source hands each
//!   arrived frame over as borrowed bytes; the shard decodes the payload
//!   once (or drops it as link noise), and the admission rule — a
//!   [`MuxAccept`], which judges the *typed* message — admits it into the
//!   addressee's staging buffer or drops it. The protocols run only after
//!   the poll returns: each hosted process with arrivals gets them in
//!   **one** [`Protocol::on_burst`] call — in arrival order, so every link
//!   stays FIFO — followed by one `Actions` dispatch. A protocol that can coalesce per-event work (the service
//!   replica opens one slot and commits one WAL group for the whole burst)
//!   does so without a delay timer or a knob: the batch is whatever the
//!   poll found, at most [`RECV_BURST`] frames per poll on a [`Transport`]
//!   source and the reactor's `RECV_BATCH` (also 128) per socket. Staging
//!   per process reuses each buffer's capacity, so a turn allocates
//!   nothing. No [`irs_net::Frame`] is assembled per datagram on the
//!   reactor path, and the source is never re-entered from inside its own
//!   receive callback;
//! * the **co-hosted route** — on a source whose [`ShardIo::IN_SHARD`] is
//!   set (the reactor), a message from one hosted process to another
//!   (itself included: Fig. 3's `SUSPICION` goes to every process) never
//!   reaches the source and never becomes bytes. Each co-hosted receiver
//!   gets a `clone()` of the typed message (a slot batch is shared, so a
//!   clone of an `Accept` is a reference-count bump), judged by the same
//!   rule as a socket frame (`accept(q, from, q, &msg)`: addressed, sender
//!   in range, `valid_for`), into its inbox; the message is encoded only if
//!   a receiver outside the shard is left. The next poll opens each burst
//!   with its inbox — without waiting, once the reactor has flushed — so a
//!   co-hosted link stays FIFO and the shutdown drain counts inboxed
//!   messages as in flight. A [`Transport`] source opts out: there a
//!   co-hosted link may be an [`irs_net::FaultyLink`] that drops, delays or
//!   partitions it, so those frames still travel through the source as
//!   bytes;
//! * the **per-node observation state** — leader-reign SLO tracker,
//!   leader-change trace, Ω check-period calibration, and the scrape
//!   [`Responder`] answering telemetry requests off the same staging path
//!   (a scrape observes a node, it never reaches the protocol);
//! * the **snapshot on request** — a node's [`Snapshot`] is built only when
//!   someone reads it, never per turn. A reader bumps its [`SnapshotCell`]'s
//!   ask counter and waits; once per loop iteration (live loop and shutdown
//!   drain alike) the shard builds `snapshot()` plus the runtime gauges for
//!   each process whose counter moved and serves it, so a read waits at
//!   most one iteration — the next frame, the next timer, or the poll
//!   budget — and an unread process costs nothing. A read returns a
//!   snapshot built after the read began: whoever holds a frame of turn `k`
//!   — a client with its ack — reads turn `k` or later. A crashed process
//!   gets one last build after its crash and is served that frozen
//!   snapshot from then on (the source's shard-wide gauges keep moving).
//!   The shard closes its cells on every exit path — stop, source failure,
//!   a panicking protocol — after which a read returns the last snapshot
//!   served, so no reader ever waits on a shard that is gone;
//! * the **shutdown drain** — on stop, every live process is first asked
//!   for the output it was holding back ([`Protocol::on_quiesce`]: once,
//!   its sends applied, its timers ignored); then frames already in flight
//!   (those, and whatever was queued in the source, held behind a link
//!   delay, or still on the wire) are delivered with the reactions they
//!   trigger discarded, until one full quiet window passes with nothing
//!   arriving and nothing held, under a hard cap. Timers are not fired: a
//!   timer is local state, not an in-flight message.
//!
//! The I/O source is the [`ShardIo`] trait, with exactly two
//! implementations: every [`Transport`] (block in `recv`, then drain the
//! burst with zero-timeout `recv`s) and the [`Reactor`] (one readiness wait
//! over all the shard's sockets, batched borrowed-bytes drain, queued
//! encode-once fan-out). Link delay is not the host's business: a frame is
//! delivered the moment the source releases it, and a slow link is a
//! [`irs_net::FaultyLink`] around the endpoint.
//!
//! The two sources do not resolve a timer deadline alike: a [`Transport`]
//! over a socket waits with a nanosecond `ppoll`, while the reactor's
//! `Epoll::wait` takes whole milliseconds and rounds a sub-millisecond
//! timeout *up*, so on the reactor source a timer due in 100 µs fires up to
//! 1 ms late (and an idle shard wakes once per millisecond at most). Whether
//! that is the right trade is an open question in ROADMAP.md, to be settled
//! against the ledger's `runtime.idle_cpu_share_n5`.
//!
//! A crashed process is halted on every plane: it fires no timer, receives
//! no message and answers no scrape (post-mortem reads go through the
//! in-process [`Obs`] handle), while the source keeps draining so its peers
//! see silence rather than backpressure.

use irs_net::wire::decode_payload;
use irs_net::wire_obs::{encode_scrape_reply, is_obs_payload, scrape_session_key};
use irs_net::{FaultClock, Frame, NetError, ObsMsg, Reactor, Transport, Wire};
use irs_obs::{names, EventKind, Obs, ReignTracker, Responder, ScrapeFormat};
use irs_sim::{Event, EventQueue, TimerGens};
use irs_types::{Actions, Destination, Introspect, ProcessId, Protocol, Snapshot, Time};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration as StdDuration, Instant};

/// Longest a shard blocks in its I/O source before re-checking the stop
/// flag.
const POLL_BUDGET: StdDuration = StdDuration::from_millis(20);
/// Poll timeout while sends are still queued behind socket backpressure:
/// short, so the flush retry is not delayed by a full poll budget.
const BACKPRESSURE_BUDGET: StdDuration = StdDuration::from_millis(1);
/// Quiet window that ends the shutdown drain. Longer than [`POLL_BUDGET`],
/// so every peer shard has observed the stop flag (and stopped sending)
/// before a drain concludes.
const DRAIN_QUIET: StdDuration = StdDuration::from_millis(50);
/// Hard cap on the shutdown drain, so a source that holds frames behind a
/// pathological delay cannot wedge shutdown forever.
const DRAIN_CAP: StdDuration = StdDuration::from_secs(10);
/// Most frames a [`Transport`] source hands over per poll, bounding how long
/// timers wait behind a flooding peer (the reactor bounds its own bursts).
const RECV_BURST: usize = 128;

/// Check periods a reign must span to count as *stable* in the leader-reign
/// SLO panel: the stable-reign threshold is `tick × STABLE_REIGN_TICKS`
/// (clamped to ≥ 1 ms; ≈ 102 ms at the default 100 µs tick — far past the
/// churn of an election, far under a healthy reign). This is the *prior*:
/// once a node has measured enough real Ω check periods the bar re-derives
/// itself from their p99 ([`ReignTracker::note_check_period_us`]) and this
/// value only caps it.
const STABLE_REIGN_TICKS: u32 = 1024;
/// Timer slot of the Ω failure detector's round (check) timer — the cadence
/// whose measured distribution calibrates the stable-reign bar. Every hosted
/// protocol in this stack forwards the oracle's timers with their ids
/// intact, so the slot is host-invariant.
const CHECK_TIMER_SLOT: u16 = 1;

/// A frame-admission rule: `(me, from, to, &msg)` for a message that
/// arrived for process `me` — decoded off the I/O source, or handed over
/// typed by a co-hosted process — returning whether the protocol may see
/// it. A message the rule refuses is dropped as link noise. The host loop
/// applies the one rule to both routes, so they cannot disagree.
pub type MuxAccept<M> = Arc<dyn Fn(ProcessId, ProcessId, ProcessId, &M) -> bool + Send + Sync>;

/// The default admission rule for an `n`-process deployment hosted at
/// `me`. A socket is an untrusted input: a misrouted frame, an out-of-range
/// sender or a message sized for a different deployment is dropped as link
/// noise — it must never take the node down.
pub fn admits<M: Wire>(from: ProcessId, to: ProcessId, msg: &M, me: ProcessId, n: usize) -> bool {
    to == me && from.index() < n && msg.valid_for(n)
}

/// The default policy over received bytes: the payload decoded (an
/// undecodable one is link noise), then judged by [`admits`] — what the
/// host loop does with a frame off its I/O source.
pub fn accept_frame_bytes<M: Wire>(
    from: ProcessId,
    to: ProcessId,
    payload: &[u8],
    me: ProcessId,
    n: usize,
) -> Option<M> {
    let msg = decode_payload::<M>(payload).ok()?;
    admits(from, to, &msg, me, n).then_some(msg)
}

/// [`admits`] as the shareable rule of an `n`-process deployment.
pub(crate) fn default_accept<M: Wire>(n: usize) -> MuxAccept<M> {
    Arc::new(move |me, from, to, msg| admits(from, to, msg, me, n))
}

/// [`accept_frame_bytes`] over an assembled [`Frame`].
pub fn accept_frame<M: Wire>(frame: &Frame, me: ProcessId, n: usize) -> Option<M> {
    accept_frame_bytes(frame.from, frame.to, &frame.payload, me, n)
}

/// Where a shard's frames come from and go to. `slot` is the local index of
/// a hosted process; a source with one socket per process (the reactor)
/// uses it to pick the socket, a shared endpoint ignores it.
pub(crate) trait ShardIo {
    /// Waits up to `timeout` for inbound traffic, then hands every frame of
    /// the burst that arrived to `on_frame(arrived_on, from, to, payload)` —
    /// `arrived_on` is the slot whose socket received it, when the source
    /// can tell. Returns the number of frames handed over.
    ///
    /// # Errors
    ///
    /// Returns an error when the source can no longer receive at all.
    fn poll(
        &mut self,
        timeout: StdDuration,
        on_frame: impl FnMut(Option<usize>, ProcessId, ProcessId, &[u8]),
    ) -> Result<usize, NetError>;

    /// Sends one encoded message from the process in `slot` to every target.
    /// A failed send is link loss, which the protocols tolerate by
    /// assumption.
    fn send(&mut self, slot: usize, from: ProcessId, targets: &[ProcessId], payload: &[u8]);

    /// Sends accepted but not yet on the wire (socket backpressure).
    fn unsent(&self) -> usize;

    /// Arrivals the source itself holds for later delivery (a link delay).
    fn held(&self) -> usize;

    /// Appends the source's gauges for the process in `slot` — always
    /// `malformed_dropped` and `sends_batched`, plus whatever else it counts.
    fn gauges(&self, slot: usize, out: &mut Vec<(&'static str, u64)>);

    /// Whether a frame between two processes this source hosts may skip it:
    /// the shard then admits it itself and stages it for the next poll (see
    /// the module docs). A source that models its links must carry those
    /// frames too, so the default is `false`.
    const IN_SHARD: bool = false;
}

impl<T: Transport> ShardIo for T {
    fn poll(
        &mut self,
        timeout: StdDuration,
        mut on_frame: impl FnMut(Option<usize>, ProcessId, ProcessId, &[u8]),
    ) -> Result<usize, NetError> {
        let mut next = self.recv(timeout)?;
        let mut handed = 0;
        while let Some(frame) = next {
            on_frame(None, frame.from, frame.to, &frame.payload);
            handed += 1;
            if handed == RECV_BURST {
                break;
            }
            // Whatever else already arrived rides in the same batch; a
            // receive error surfaces on the next blocking poll.
            next = self.recv(StdDuration::ZERO).ok().flatten();
        }
        Ok(handed)
    }

    fn send(&mut self, _slot: usize, from: ProcessId, targets: &[ProcessId], payload: &[u8]) {
        let _ = match targets {
            [to] => Transport::send(self, from, *to, payload),
            _ => self.send_many(from, targets, payload),
        };
    }

    fn unsent(&self) -> usize {
        0
    }

    fn held(&self) -> usize {
        self.pending_held()
    }

    fn gauges(&self, _slot: usize, out: &mut Vec<(&'static str, u64)>) {
        out.push((names::MALFORMED_DROPPED, self.malformed_dropped()));
        out.push((names::SENDS_BATCHED, self.sends_batched()));
    }
}

/// The reactor as an I/O source: slot `i` is the `i`-th registered socket.
/// (A local wrapper, because a blanket impl over the foreign [`Transport`]
/// trait cannot coexist with an impl for the foreign [`Reactor`] type.)
pub(crate) struct Sockets(pub(crate) Reactor);

impl ShardIo for Sockets {
    /// The reactor's links are bare kernel loopback with nothing injected.
    const IN_SHARD: bool = true;

    fn poll(
        &mut self,
        timeout: StdDuration,
        mut on_frame: impl FnMut(Option<usize>, ProcessId, ProcessId, &[u8]),
    ) -> Result<usize, NetError> {
        let timeout = if self.0.pending_sends() > 0 {
            timeout.min(BACKPRESSURE_BUDGET)
        } else {
            timeout
        };
        Ok(self.0.poll_once(timeout, |ep, from, to, payload| {
            on_frame(Some(ep), from, to, payload)
        })?)
    }

    fn send(&mut self, slot: usize, from: ProcessId, targets: &[ProcessId], payload: &[u8]) {
        // Queue overflow sheds as link loss; a target outside the peer table
        // has no route, which is loss too.
        let _ = self.0.queue_fanout(slot, from, targets, payload);
    }

    fn unsent(&self) -> usize {
        self.0.pending_sends()
    }

    fn held(&self) -> usize {
        0
    }

    fn gauges(&self, slot: usize, out: &mut Vec<(&'static str, u64)>) {
        out.push((names::MALFORMED_DROPPED, self.0.malformed(slot)));
        out.push((names::SENDS_BATCHED, self.0.sends_batched()));
        out.push((names::FRAMES_RX, self.0.frames_rx()));
        out.push((names::FRAMES_TX, self.0.frames_tx()));
        out.push((names::SEND_QUEUE_DEPTH, self.0.queue_depth(slot) as u64));
        out.push((names::SENDS_SHED, self.0.shed(slot)));
    }
}

/// Where a hosted process's [`Snapshot`] is served to its readers (see the
/// module docs): a reader asks, the hosting shard builds and serves at its
/// next loop iteration.
#[derive(Debug, Default)]
pub struct SnapshotCell {
    /// Reads begun so far; a reader's ticket is the count including its own.
    asked: AtomicU64,
    served: Mutex<Served>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct Served {
    snapshot: Snapshot,
    /// The `asked` count the shard had seen when it built `snapshot`.
    generation: u64,
    /// Set once the shard has exited: nothing will be served again.
    closed: bool,
}

impl SnapshotCell {
    /// A snapshot of the process built after this call began, with the
    /// runtime gauges appended. Waits at most one loop iteration of the
    /// hosting shard; once the shard has exited it returns the last
    /// snapshot served (a default one if there was none).
    pub fn read(&self) -> Snapshot {
        let ticket = self.ask();
        self.wait(ticket)
    }

    /// Registers a read and returns its ticket.
    pub(crate) fn ask(&self) -> u64 {
        self.asked.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Waits until the shard has served `ticket` (or closed the cell).
    pub(crate) fn wait(&self, ticket: u64) -> Snapshot {
        let mut served = self.lock();
        while served.generation < ticket && !served.closed {
            served = self
                .ready
                .wait(served)
                .unwrap_or_else(PoisonError::into_inner);
        }
        served.snapshot.clone()
    }

    /// Serves `generation`, replacing the snapshot when one was built.
    fn serve(&self, generation: u64, built: Option<Snapshot>) {
        let mut served = self.lock();
        if let Some(snapshot) = built {
            served.snapshot = snapshot;
        }
        served.generation = generation;
        drop(served);
        self.ready.notify_all();
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Every update leaves `Served` whole, so a lock poisoned by a reader
    /// that panicked mid-clone is safe to keep using — and `close` runs in
    /// a drop guard, which must not panic.
    fn lock(&self) -> MutexGuard<'_, Served> {
        self.served.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Closes a shard's cells however its thread leaves [`Shard::run`] —
/// returning, or unwinding out of a panicking protocol.
struct CloseOnExit(Vec<Arc<SnapshotCell>>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        for cell in &self.0 {
            cell.close();
        }
    }
}

/// The cells through which a hosted process is observed and crashed.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeCells {
    pub(crate) snapshot: Arc<SnapshotCell>,
    pub(crate) crashed: Arc<AtomicBool>,
}

/// A node's telemetry-plane state, present when observability is attached.
struct NodePanel {
    tracer: Option<irs_obs::Tracer>,
    reign: ReignTracker,
    /// `leader()` after the last turn (leader-change diffing).
    last_leader: ProcessId,
    /// Instant of the last Ω check-timer fire: the gap between consecutive
    /// fires is one measured check period for the self-calibrating bar.
    last_check_fire: Option<Instant>,
}

/// One process hosted by a shard.
pub(crate) struct Local<P: Protocol> {
    me: ProcessId,
    proto: P,
    cells: NodeCells,
    /// Messages the last poll admitted for this process, in arrival order:
    /// its next burst.
    staged: Vec<(ProcessId, P::Msg)>,
    /// Messages co-hosted processes sent it since the last poll, admitted
    /// and in send order: the head of its next burst.
    inbox: Vec<(ProcessId, P::Msg)>,
    /// Messages handed to it by co-hosted processes without the source.
    frames_in_shard: u64,
    timer_gens: TimerGens,
    frames_delivered: u64,
    /// The last generation served into `cells.snapshot`.
    served: u64,
    /// Whether the served snapshot is the one built after the crash.
    frozen: bool,
    panel: Option<NodePanel>,
}

impl<P: Protocol + Introspect> Local<P> {
    pub(crate) fn new(proto: P, cells: NodeCells, obs: Option<&Obs>, tick: StdDuration) -> Self {
        let me = proto.id();
        let panel = obs.map(|o| {
            let threshold_ms = ((tick * STABLE_REIGN_TICKS).as_millis() as u64).max(1);
            let mut reign = ReignTracker::new(o, me.index(), threshold_ms);
            // The initial output is a reign too: a deployment whose first
            // leader survives forever must read as maximally stable, not as
            // having no reigns at all.
            reign.on_leader_change(o.now_micros() / 1_000);
            NodePanel {
                tracer: o.tracer(me.index() as u32),
                reign,
                last_leader: proto.leader(),
                last_check_fire: None,
            }
        });
        Local {
            me,
            proto,
            cells,
            staged: Vec::new(),
            inbox: Vec::new(),
            frames_in_shard: 0,
            timer_gens: TimerGens::default(),
            frames_delivered: 0,
            served: 0,
            frozen: false,
            panel,
        }
    }

    /// Process `i` of a deployment, hosted with fresh cells.
    ///
    /// # Panics
    ///
    /// Panics if `proto` does not report id `i`: every driver hosts the
    /// processes `0..n` in id order.
    pub(crate) fn nth(i: usize, proto: P, obs: Option<&Obs>, tick: StdDuration) -> Self {
        assert_eq!(
            proto.id(),
            ProcessId::new(i as u32),
            "process at index {i} reports id {}",
            proto.id()
        );
        Local::new(proto, NodeCells::default(), obs, tick)
    }

    pub(crate) fn cells(&self) -> &NodeCells {
        &self.cells
    }

    fn crashed(&self) -> bool {
        self.cells.crashed.load(Ordering::SeqCst)
    }
}

/// A shard's registry handles and the scrape sessions of every node it hosts
/// (session keys mix in the scraped node's id, so one responder serves all).
struct ShardObs<'a> {
    obs: &'a Obs,
    polls: irs_obs::Counter,
    timers_fired: irs_obs::Counter,
    frames: irs_obs::Counter,
    frames_in_shard: irs_obs::Counter,
    burst_frames: irs_obs::HistHandle,
    responder: Responder,
    /// Registry shard the counters land on: the first hosted node's id.
    cell: usize,
    /// Whether the previous loop turn saw unsent frames (backpressure is
    /// traced on the off→on transition, not every turn).
    backpressured: bool,
}

/// One event loop over `locals` (see the module docs).
pub(crate) struct Shard<'a, P: Protocol, Io, A> {
    io: Io,
    locals: Vec<Local<P>>,
    /// Process `i` of the deployment lives at local index `i / stride` of
    /// the shard that hosts it (round-robin over `stride` shards).
    stride: usize,
    /// Broadcast fan-out: the number of processes in the deployment.
    n: usize,
    clock: FaultClock,
    wheel: EventQueue<()>,
    accept: A,
    /// What the process being turned recorded (reused, so a turn allocates
    /// nothing).
    out: Actions<P::Msg>,
    /// Scrape requests staged by the same poll: `(local, asker, format,
    /// cursor)`.
    scrapes: Vec<(usize, ProcessId, ScrapeFormat, u32)>,
    targets: Vec<ProcessId>,
    encoded: Vec<u8>,
    obs: Option<ShardObs<'a>>,
}

impl<'a, P, Io, A> Shard<'a, P, Io, A>
where
    P: Protocol + Introspect,
    P::Msg: Wire,
    Io: ShardIo,
    A: FnMut(ProcessId, ProcessId, ProcessId, &P::Msg) -> bool,
{
    pub(crate) fn new(
        io: Io,
        locals: Vec<Local<P>>,
        stride: usize,
        n: usize,
        clock: FaultClock,
        accept: A,
        obs: Option<&'a Obs>,
    ) -> Self {
        let cell = locals.first().map_or(0, |l| l.me.index());
        Shard {
            io,
            locals,
            stride,
            n,
            clock,
            wheel: EventQueue::new(),
            accept,
            out: Actions::new(),
            scrapes: Vec::new(),
            targets: Vec::new(),
            encoded: Vec::new(),
            obs: obs.map(|obs| ShardObs {
                obs,
                polls: obs.registry().counter(names::RUNTIME_POLLS),
                timers_fired: obs.registry().counter(names::RUNTIME_TIMERS_FIRED),
                frames: obs.registry().counter(names::RUNTIME_FRAMES_DELIVERED),
                frames_in_shard: obs.registry().counter(names::RUNTIME_FRAMES_IN_SHARD),
                burst_frames: obs.registry().histogram(names::RUNTIME_BURST_FRAMES),
                responder: Responder::new(),
                cell,
                backpressured: false,
            }),
        }
    }

    /// Starts, turns until `stop` is set (or the source dies), drains, and
    /// returns the final protocol states in local order.
    pub(crate) fn run(mut self, stop: &AtomicBool) -> Vec<P> {
        let cells = self.locals.iter().map(|l| Arc::clone(&l.cells.snapshot));
        let _close = CloseOnExit(cells.collect());
        self.start();
        while !stop.load(Ordering::SeqCst) {
            if self.turn(POLL_BUDGET).is_err() {
                break; // the source is gone; nothing left to serve
            }
        }
        self.finish(DRAIN_QUIET)
    }

    /// Calls every hosted process's `on_start` and applies what it recorded.
    pub(crate) fn start(&mut self) {
        for li in 0..self.locals.len() {
            let mut out = std::mem::take(&mut self.out);
            self.locals[li].proto.on_start(&mut out);
            self.note_leader(li);
            self.apply(li, &mut out);
            self.out = out;
        }
    }

    /// One turn: fires the due timers, serves the reads begun since the
    /// last turn, blocks in the source until the next wheel deadline, the
    /// next frame or `budget` — whichever comes first — and delivers what
    /// arrived. Returns the frames delivered.
    ///
    /// # Errors
    ///
    /// Returns an error when the source can no longer receive at all.
    pub(crate) fn turn(&mut self, budget: StdDuration) -> Result<usize, NetError> {
        self.run_due();
        self.note_turn();
        self.serve_reads();
        let timeout = match self.wheel.peek_time() {
            Some(at) => self.clock.until(at.ticks()).min(budget),
            None => budget,
        };
        self.poll_and_stage(timeout)?;
        self.answer_scrapes();
        Ok(self.deliver_staged(false))
    }

    /// The shutdown drain with a quiet window of `quiet`, then the last
    /// reads; returns the final protocol states in local order.
    pub(crate) fn finish(mut self, quiet: StdDuration) -> Vec<P> {
        self.drain(quiet);
        self.serve_reads();
        self.locals.into_iter().map(|l| l.proto).collect()
    }

    /// The process at local index `li`.
    pub(crate) fn process(&self, li: usize) -> &P {
        &self.locals[li].proto
    }

    /// The snapshot cell of the process at local index `li`.
    pub(crate) fn cell(&self, li: usize) -> &SnapshotCell {
        &self.locals[li].cells.snapshot
    }

    fn now_tick(&self) -> u64 {
        self.clock.now_ticks()
    }

    /// Per-turn telemetry: the poll counter, the time-derived SLO gauges
    /// (in-progress reign age, uptime), and the onset of send backpressure —
    /// traced against the first local node, once per episode.
    fn note_turn(&mut self) {
        let Some(o) = &mut self.obs else {
            return;
        };
        o.polls.inc(o.cell);
        let now_ms = o.obs.now_micros() / 1_000;
        for panel in self.locals.iter().filter_map(|l| l.panel.as_ref()) {
            panel.reign.tick(now_ms);
        }
        let unsent = self.io.unsent();
        if unsent > 0 && !o.backpressured {
            let tracer = self
                .locals
                .first()
                .and_then(|l| l.panel.as_ref()?.tracer.as_ref());
            if let Some(t) = tracer {
                t.emit_now(EventKind::Backpressure, o.cell as u64, unsent as u64);
            }
        }
        o.backpressured = unsent > 0;
    }

    /// One turn of the source. Each process's inbox of co-hosted messages
    /// opens its `staged` burst, and then the source is polled — without
    /// waiting when an inbox was non-empty. Frames are routed by addressee —
    /// a frame for a process this shard does not host, or one that arrived
    /// on another hosted node's socket, is link noise — then decoded and
    /// admitted by the rule into the addressee's `staged` burst. With
    /// observability attached, telemetry-plane payloads are routed off by
    /// their leading tag before the decode: well-formed scrape requests
    /// stage into `scrapes`, anything else obs-tagged is dropped. Returns
    /// the frames staged, inboxed ones included.
    fn poll_and_stage(&mut self, timeout: StdDuration) -> Result<usize, NetError> {
        let Shard {
            io,
            locals,
            stride,
            accept,
            scrapes,
            obs,
            ..
        } = self;
        let mut inboxed = 0;
        if Io::IN_SHARD {
            for local in locals.iter_mut() {
                inboxed += local.inbox.len();
                local.staged.append(&mut local.inbox);
            }
        }
        let timeout = if inboxed > 0 {
            StdDuration::ZERO
        } else {
            timeout
        };
        let scraping = obs.is_some();
        let polled = io.poll(timeout, |arrived_on, from, to, payload| {
            let li = to.index() / *stride;
            let hosted = locals.get(li).is_some_and(|l| l.me == to);
            if !hosted || arrived_on.is_some_and(|slot| slot != li) {
                return;
            }
            if scraping && is_obs_payload(payload) {
                if let Ok(ObsMsg::ScrapeRequest { format, cursor }) = decode_payload(payload) {
                    scrapes.push((li, from, format, cursor));
                }
            } else if let Ok(msg) = decode_payload::<P::Msg>(payload) {
                if accept(to, from, to, &msg) {
                    locals[li].staged.push((from, msg));
                }
            }
        })?;
        Ok(polled + inboxed)
    }

    /// Answers the scrape requests the last poll staged: renders/pages
    /// through the shard's [`Responder`] and sends each chunk back to the
    /// asker. A lost chunk is link loss — the scraper retries.
    fn answer_scrapes(&mut self) {
        let Some(o) = &self.obs else {
            return;
        };
        for (li, from, format, cursor) in self.scrapes.drain(..) {
            let local = &self.locals[li];
            if local.crashed() {
                continue;
            }
            let session = scrape_session_key(local.me, from);
            self.encoded.clear();
            encode_scrape_reply(
                &o.responder,
                o.obs,
                session,
                format,
                cursor,
                &mut self.encoded,
            );
            self.io.send(li, local.me, &[from], &self.encoded);
        }
    }

    /// Hands every hosted process the burst the last poll staged for it:
    /// one `on_burst`, then one `apply`. A crashed process drops its burst;
    /// while `quiescing` (the shutdown drain) a burst's reactions are
    /// discarded instead of applied. Returns the frames delivered.
    fn deliver_staged(&mut self, quiescing: bool) -> usize {
        let mut out = std::mem::take(&mut self.out);
        let mut delivered = 0;
        for li in 0..self.locals.len() {
            let local = &mut self.locals[li];
            if local.staged.is_empty() {
                continue;
            }
            let mut burst = std::mem::take(&mut local.staged);
            if !local.crashed() {
                let frames = burst.len() as u64;
                delivered += burst.len();
                local.frames_delivered += frames;
                local.proto.on_burst(&burst, &mut out);
                self.note_leader(li);
                if quiescing {
                    out.clear();
                } else {
                    self.apply(li, &mut out);
                }
                if let Some(o) = &self.obs {
                    o.frames.add(o.cell, frames);
                    o.burst_frames.record(o.cell, frames);
                }
            }
            burst.clear();
            self.locals[li].staged = burst;
        }
        self.out = out;
        delivered
    }

    /// Pops and fires every timer due at the clock's current tick. A fired
    /// timer may re-arm itself for a deadline that is already due; the loop
    /// runs until quiescent.
    fn run_due(&mut self) {
        let mut out = std::mem::take(&mut self.out);
        while self
            .wheel
            .peek_time()
            .is_some_and(|at| at.ticks() <= self.now_tick())
        {
            let Some((
                _,
                Event::TimerFire {
                    pid,
                    timer,
                    generation,
                },
            )) = self.wheel.pop()
            else {
                continue; // the wheel holds only timers
            };
            let li = pid.index() / self.stride;
            let local = &mut self.locals[li];
            if local.crashed() || local.timer_gens.current(timer) != generation {
                continue;
            }
            local.proto.on_timer(timer, &mut out);
            if let (CHECK_TIMER_SLOT, Some(panel)) = (timer.raw(), &mut local.panel) {
                let at = Instant::now();
                if let Some(prev) = panel.last_check_fire.replace(at) {
                    let us = at.duration_since(prev).as_micros();
                    panel
                        .reign
                        .note_check_period_us(us.min(u128::from(u64::MAX)) as u64);
                }
            }
            self.note_leader(li);
            self.apply(li, &mut out);
            if let Some(o) = &self.obs {
                o.timers_fired.inc(o.cell);
            }
        }
        self.out = out;
    }

    /// Executes the actions a local process recorded: sends its messages,
    /// arms timers in the wheel, and invalidates cancelled ones.
    fn apply(&mut self, li: usize, out: &mut Actions<P::Msg>) {
        if out.is_empty() {
            return;
        }
        self.send_all(li, out);
        let from = self.locals[li].me;
        let now = self.now_tick();
        for req in out.drain_timers() {
            let generation = self.locals[li].timer_gens.bump(req.id);
            self.wheel.push(
                Time::from_ticks(now + req.after.ticks()),
                Event::TimerFire {
                    pid: from,
                    timer: req.id,
                    generation,
                },
            );
        }
        for id in out.drain_cancels() {
            self.locals[li].timer_gens.bump(id);
        }
    }

    /// Hands each recorded message to its receivers: on an
    /// [`ShardIo::IN_SHARD`] source the ones this shard hosts get it typed
    /// (see `hand_over`), and the rest — if any are left — get it
    /// encoded once, through the source, with their whole receiver list.
    fn send_all(&mut self, li: usize, out: &mut Actions<P::Msg>) {
        let from = self.locals[li].me;
        for outbound in out.drain_sends() {
            self.targets.clear();
            let everyone = (0..self.n as u32).map(ProcessId::new);
            match outbound.dest {
                Destination::To(q) => self.targets.push(q),
                Destination::AllOthers => self.targets.extend(everyone.filter(|&q| q != from)),
                Destination::All => self.targets.extend(everyone),
            }
            if Io::IN_SHARD {
                self.hand_over(from, &outbound.msg);
                if self.targets.is_empty() {
                    continue;
                }
            }
            self.encoded.clear();
            outbound.msg.encode(&mut self.encoded);
            self.io.send(li, from, &self.targets, &self.encoded);
        }
    }

    /// Takes the receivers this shard hosts out of `targets` and admits a
    /// clone of `msg` for each of them into its inbox.
    fn hand_over(&mut self, from: ProcessId, msg: &P::Msg) {
        let Shard {
            locals,
            stride,
            accept,
            targets,
            obs,
            ..
        } = self;
        let sent = targets.len();
        targets.retain(|&q| {
            let Some(local) = locals.get_mut(q.index() / *stride).filter(|l| l.me == q) else {
                return true;
            };
            local.frames_in_shard += 1;
            if accept(q, from, q, msg) {
                local.inbox.push((from, msg.clone()));
            }
            false
        });
        if let Some(o) = obs {
            o.frames_in_shard.add(o.cell, (sent - targets.len()) as u64);
        }
    }

    /// The shutdown drain (see the module docs), ending after a `quiet`
    /// window with nothing arriving. A scraper racing the shutdown still
    /// gets its chunk — flushing queued sends is exactly what the drain is
    /// for.
    fn drain(&mut self, quiet: StdDuration) {
        let started = Instant::now();
        let mut sink = std::mem::take(&mut self.out);
        // Before the first drain poll, so a peer's quiet window cannot close
        // on frames a protocol had yet to hand over.
        for li in 0..self.locals.len() {
            if !self.locals[li].crashed() {
                self.locals[li].proto.on_quiesce(&mut sink);
                self.note_leader(li);
                self.send_all(li, &mut sink);
                sink.clear();
            }
        }
        self.out = sink;
        while let Ok(arrived) = self.poll_and_stage(quiet) {
            self.answer_scrapes();
            self.deliver_staged(true);
            self.serve_reads();
            let quiet = arrived == 0 && self.io.unsent() == 0 && self.io.held() == 0;
            if quiet || started.elapsed() >= DRAIN_CAP {
                break;
            }
        }
    }

    /// Serves every read begun since the last serve (see the module docs):
    /// a process whose cell was asked gets its snapshot built, with the
    /// runtime gauges appended — `frames_delivered` (frames admitted and
    /// handed to the protocol, the drain included), the source's own list
    /// and, on an [`ShardIo::IN_SHARD`] source, `frames_in_shard` — unless
    /// its post-crash snapshot is already frozen.
    pub(crate) fn serve_reads(&mut self) {
        for li in 0..self.locals.len() {
            let local = &mut self.locals[li];
            let cell = &local.cells.snapshot;
            // Loaded before the build: every ticket up to `asked` belongs to
            // a read that began before it.
            let asked = cell.asked.load(Ordering::SeqCst);
            if asked == local.served {
                continue;
            }
            local.served = asked;
            let built = if local.frozen {
                None
            } else {
                // Crashed before this build means nothing changes after it.
                local.frozen = local.crashed();
                let mut snap = local.proto.snapshot();
                snap.extra
                    .push((names::FRAMES_DELIVERED, local.frames_delivered));
                self.io.gauges(li, &mut snap.extra);
                if Io::IN_SHARD {
                    snap.extra
                        .push((names::FRAMES_IN_SHARD, local.frames_in_shard));
                }
                Some(snap)
            };
            cell.serve(asked, built);
        }
    }

    /// Diffs a process's `leader()` after a turn for the flight-recorder
    /// trace and the reign panel, when a panel is attached.
    fn note_leader(&mut self, li: usize) {
        let local = &mut self.locals[li];
        let (Some(panel), Some(o)) = (&mut local.panel, &self.obs) else {
            return;
        };
        let leader = local.proto.leader();
        if leader == panel.last_leader {
            return;
        }
        if let Some(t) = &panel.tracer {
            t.emit_now(
                EventKind::LeaderChange,
                panel.last_leader.index() as u64,
                leader.index() as u64,
            );
        }
        panel.reign.on_leader_change(o.obs.now_micros() / 1_000);
        panel.last_leader = leader;
    }
}
