//! The traced pump: the workload's replicas hosted inside the harness on one
//! thread — a FIFO of encoded frames, a timer heap on a virtual clock, zero
//! link delay. Each hop performs what a host loop performs, through the
//! layers' public calls, each call inside a span. Being single-threaded on
//! virtual time, every count it takes repeats exactly for a seed.
//!
//! A frame's journey: the sender's message is encoded (`Wire::encode`),
//! framed (`wire::encode_frame`), queued; the hop that delivers it decodes
//! the frame (`wire::decode_frame`), admits it (`accept`, which decodes the
//! payload and applies the host's admission policy), runs the protocol
//! handler, and encodes every outbound message the handler produced. A
//! handler's outputs inherit the op of the frame that caused it, and name
//! the handler span as their cause, so an ack can be walked back to the
//! request that led to it — the critical path.

use irs_net::wire::{decode_frame, encode_frame, set_frame_to};
use irs_net::{Frame, Wire};
use irs_types::{Actions, Destination, ProcessId, Protocol, TimerId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// "No span" / "no op" marker in [`Span::parent`], [`Span::op`] and causes.
pub const NONE: u32 = u32::MAX;

/// What a span measured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    /// A client building and encoding one request (`client.encode`).
    ClientSend,
    /// A client decoding one reply frame.
    ClientRecv,
    /// One delivery at a replica, outermost: everything below nests in it.
    Hop,
    /// One timer firing at a replica, outermost.
    TimerHop,
    /// `wire::decode_frame`.
    FrameDecode,
    /// The host's admission policy, payload decode included.
    Accept,
    /// `Protocol::on_message`.
    OnMessage,
    /// `Protocol::on_timer` (and `on_start`).
    OnTimer,
    /// A direct call into a node made by the driver (bare-log submits).
    Call,
    /// `Wire::encode` of one outbound message.
    PayloadEncode,
    /// `wire::encode_frame` and the patched copies of one send's fan-out.
    FrameEncode,
    /// The post-handler hook (WAL append + commit on the bare-log rung).
    Post,
}

impl Kind {
    /// Every kind, in discriminant order.
    pub const ALL: [Kind; 12] = [
        Kind::ClientSend,
        Kind::ClientRecv,
        Kind::Hop,
        Kind::TimerHop,
        Kind::FrameDecode,
        Kind::Accept,
        Kind::OnMessage,
        Kind::OnTimer,
        Kind::Call,
        Kind::PayloadEncode,
        Kind::FrameEncode,
        Kind::Post,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ClientSend => "client.encode",
            Kind::ClientRecv => "client.decode",
            Kind::Hop => "hop",
            Kind::TimerHop => "timer_hop",
            Kind::FrameDecode => "wire.decode_frame",
            Kind::Accept => "accept",
            Kind::OnMessage => "on_message",
            Kind::OnTimer => "on_timer",
            Kind::Call => "call",
            Kind::PayloadEncode => "wire.encode_payload",
            Kind::FrameEncode => "wire.encode_frame",
            Kind::Post => "post",
        }
    }

    fn is_handler(self) -> bool {
        matches!(self, Kind::OnMessage | Kind::OnTimer | Kind::Call)
    }
}

/// One span: a name, an interval, the span that caused it, and the op it
/// worked for. Times are nanoseconds since the pump was built.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    /// The enclosing span; for outermost spans (hops, client spans) the
    /// handler or client span that emitted the frame; [`NONE`] for roots.
    pub parent: u32,
    /// Index into the driver's op table, [`NONE`] for background work.
    pub op: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Counts taken at the same boundaries as the spans. Exact for a seed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Frames queued (every destination of a fan-out counts).
    pub frames: u64,
    /// Bytes of those frames, headers included.
    pub bytes: u64,
    /// The subset that worked for some op.
    pub op_frames: u64,
    pub op_bytes: u64,
    /// The subset of those that went from one replica to another.
    pub op_peer_frames: u64,
    /// Frames that left a replica as part of a multi-receiver send (the
    /// encode-once path a socket host takes).
    pub fanout_frames: u64,
    /// Frames delivered to a live replica's handler.
    pub delivered: u64,
    /// Frames the admission policy dropped.
    pub rejected: u64,
    /// Frames addressed to a crashed replica.
    pub dropped_to_crashed: u64,
    /// Frames handed to a client endpoint.
    pub to_clients: u64,
    pub timer_fires: u64,
    /// A running digest over every delivered frame's bytes, in delivery
    /// order — the frame corpus, for the determinism check.
    pub corpus_digest: u64,
}

/// `(due tick, arm order, node, timer id, generation)`; the heap pops the
/// earliest due, ties in arm order.
type ArmedTimer = (u64, u64, u32, u16, u64);

/// One queued frame.
struct Queued {
    bytes: Vec<u8>,
    /// The handler or client span that emitted it.
    cause: u32,
    op: u32,
}

/// A reply that reached a client endpoint, decoded.
#[derive(Debug)]
pub struct Delivery<M> {
    pub to: ProcessId,
    pub msg: M,
    /// The [`Kind::ClientRecv`] span (its parent is the causing handler);
    /// [`NONE`] when spans are off.
    pub span: u32,
}

/// The admission policy of the host being stood in for.
pub type AcceptFn<M> = Box<dyn Fn(&Frame, ProcessId) -> Option<M>>;
/// A hook run after every handler on the node that ran it.
pub type PostFn<P> = Box<dyn FnMut(usize, &mut P)>;

/// The pump (see module docs).
pub struct Pump<P: Protocol> {
    nodes: Vec<P>,
    crashed: Vec<bool>,
    queue: VecDeque<Queued>,
    timers: BinaryHeap<Reverse<ArmedTimer>>,
    /// Per node, per raw timer id: the live generation (re-arming replaces).
    timer_gen: Vec<Vec<u64>>,
    arm_seq: u64,
    now: u64,
    accept: AcceptFn<P::Msg>,
    post: Option<PostFn<P>>,
    epoch: Instant,
    spans: Option<Vec<Span>>,
    /// The child span open inside the current outermost one.
    open_child: u32,
    /// The last span boundary read off the clock.
    boundary: u64,
    pub counts: Counts,
    inbox: Vec<Delivery<P::Msg>>,
    out: Actions<P::Msg>,
    payload: Vec<u8>,
}

impl<P> Pump<P>
where
    P: Protocol,
    P::Msg: Wire,
{
    /// Hosts `nodes` (node `i` must be process `i`). With `traced` off no
    /// clock is read and no span is kept; counts are taken either way.
    pub fn new(nodes: Vec<P>, accept: AcceptFn<P::Msg>, traced: bool) -> Pump<P> {
        let n = nodes.len();
        Pump {
            nodes,
            crashed: vec![false; n],
            queue: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_gen: vec![Vec::new(); n],
            arm_seq: 0,
            now: 0,
            accept,
            post: None,
            epoch: Instant::now(),
            spans: traced.then(Vec::new),
            open_child: NONE,
            boundary: 0,
            counts: Counts::default(),
            inbox: Vec::new(),
            out: Actions::new(),
            payload: Vec::new(),
        }
    }

    /// Installs the post-handler hook.
    pub fn set_post(&mut self, post: PostFn<P>) {
        self.post = Some(post);
    }

    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    pub fn now(&self) -> u64 {
        self.now
    }

    pub fn node(&self, i: usize) -> &P {
        &self.nodes[i]
    }

    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// Crash-stops node `i`: no frame or timer reaches it again.
    pub fn crash(&mut self, i: usize) {
        self.crashed[i] = true;
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Replies that reached client endpoints since the last call.
    pub fn take_inbox(&mut self) -> Vec<Delivery<P::Msg>> {
        std::mem::take(&mut self.inbox)
    }

    /// The due tick of the earliest live timer.
    pub fn next_timer_at(&mut self) -> Option<u64> {
        while let Some(&Reverse((at, _, node, timer, gen))) = self.timers.peek() {
            if self.timer_gen[node as usize].get(timer as usize) == Some(&gen) {
                return Some(at);
            }
            self.timers.pop(); // superseded or cancelled
        }
        None
    }

    fn clock(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_span(&mut self, kind: Kind, start: u64, parent: u32, op: u32) -> u32 {
        let spans = self.spans.as_mut().expect("callers checked spans are on");
        spans.push(Span {
            kind,
            start,
            end: start,
            parent,
            op,
        });
        (spans.len() - 1) as u32
    }

    /// Opens an outermost span; returns its index ([`NONE`] with spans off).
    fn open(&mut self, kind: Kind, parent: u32, op: u32) -> u32 {
        if self.spans.is_none() {
            return NONE;
        }
        self.boundary = self.clock();
        self.open_child = NONE;
        self.push_span(kind, self.boundary, parent, op)
    }

    /// Opens the next child of `hop`. Children tile their parent: the clock
    /// is read once per boundary, ending the previous child (or standing at
    /// the parent's start) and starting this one at the same instant — so a
    /// hop's own time is nothing but the few instructions between calls.
    fn next(&mut self, kind: Kind, hop: u32, op: u32) -> u32 {
        if self.spans.is_none() {
            return NONE;
        }
        if self.open_child != NONE {
            self.boundary = self.clock();
            let prev = self.open_child as usize;
            self.spans.as_mut().expect("spans are on")[prev].end = self.boundary;
        }
        self.open_child = self.push_span(kind, self.boundary, hop, op);
        self.open_child
    }

    /// Closes an outermost span and the child still open inside it.
    fn close(&mut self, span: u32) {
        if self.spans.is_none() {
            return;
        }
        let end = self.clock();
        let spans = self.spans.as_mut().expect("checked above");
        if self.open_child != NONE {
            spans[self.open_child as usize].end = end;
            self.open_child = NONE;
        }
        spans[span as usize].end = end;
        self.boundary = end;
    }

    /// Calls `on_start` on every node (background work, no op).
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            let hop = self.open(Kind::TimerHop, NONE, NONE);
            let h = self.next(Kind::OnTimer, hop, NONE);
            let mut out = std::mem::take(&mut self.out);
            self.nodes[i].on_start(&mut out);
            self.after_handler(i, &mut out, hop, h, NONE);
            self.out = out;
            self.close(hop);
        }
    }

    /// A client endpoint sends `msg`: encoded, framed, queued.
    pub fn client_send(&mut self, from: ProcessId, to: ProcessId, msg: &P::Msg, op: u32) {
        let span = self.open(Kind::ClientSend, NONE, op);
        let mut payload = std::mem::take(&mut self.payload);
        payload.clear();
        msg.encode(&mut payload);
        let mut bytes = Vec::with_capacity(payload.len() + 16);
        encode_frame(&mut bytes, from, to, &payload);
        self.payload = payload;
        self.enqueue(bytes, span, op);
        self.close(span);
    }

    /// The driver calls into node `i` directly (no frame): `f` gets the node
    /// and an action buffer, whose contents are dispatched like a handler's.
    pub fn call(&mut self, i: usize, op: u32, f: impl FnOnce(&mut P, &mut Actions<P::Msg>)) {
        let hop = self.open(Kind::TimerHop, NONE, op);
        let h = self.next(Kind::Call, hop, op);
        let mut out = std::mem::take(&mut self.out);
        f(&mut self.nodes[i], &mut out);
        self.after_handler(i, &mut out, hop, h, op);
        self.out = out;
        self.close(hop);
    }

    fn enqueue(&mut self, bytes: Vec<u8>, cause: u32, op: u32) {
        self.counts.frames += 1;
        self.counts.bytes += bytes.len() as u64;
        if op != NONE {
            self.counts.op_frames += 1;
            self.counts.op_bytes += bytes.len() as u64;
            let n = self.nodes.len();
            if frame_from(&bytes) < n && frame_to(&bytes) < n {
                self.counts.op_peer_frames += 1;
            }
        }
        self.queue.push_back(Queued { bytes, cause, op });
    }

    /// Runs the post hook, then encodes and queues everything the handler
    /// recorded, and arms or cancels its timers.
    fn after_handler(
        &mut self,
        i: usize,
        out: &mut Actions<P::Msg>,
        hop: u32,
        handler: u32,
        op: u32,
    ) {
        if let Some(mut post) = self.post.take() {
            self.next(Kind::Post, hop, op);
            post(i, &mut self.nodes[i]);
            self.post = Some(post);
        }
        let me = ProcessId::new(i as u32);
        let n = self.nodes.len();
        for send in out.drain_sends() {
            self.next(Kind::PayloadEncode, hop, op);
            let mut payload = std::mem::take(&mut self.payload);
            payload.clear();
            send.msg.encode(&mut payload);
            // Encode once, patch the addressee per receiver — what the
            // reactor's fan-out does. One span covers the whole fan-out,
            // queueing included (the reactor queues in the same call).
            self.next(Kind::FrameEncode, hop, op);
            let (first, last) = match send.dest {
                Destination::To(q) => (q.index(), q.index() + 1),
                Destination::AllOthers | Destination::All => (0, n),
            };
            let skip_self = matches!(send.dest, Destination::AllOthers);
            let mut receivers = (first..last).filter(|&q| !(skip_self && q == i)).peekable();
            let mut frame = Vec::with_capacity(payload.len() + 16);
            encode_frame(&mut frame, me, me, &payload);
            let fanout = receivers.clone().count() as u64;
            while let Some(q) = receivers.next() {
                // The last receiver takes the template itself.
                let mut bytes = match receivers.peek() {
                    Some(_) => frame.clone(),
                    None => std::mem::take(&mut frame),
                };
                set_frame_to(&mut bytes, ProcessId::new(q as u32));
                self.enqueue(bytes, handler, op);
            }
            if fanout > 1 {
                self.counts.fanout_frames += fanout;
            }
            self.payload = payload;
        }
        for id in out.drain_cancels() {
            self.bump_gen(i, id);
        }
        for t in out.drain_timers() {
            let gen = self.bump_gen(i, t.id);
            self.arm_seq += 1;
            self.timers.push(Reverse((
                self.now + t.after.ticks(),
                self.arm_seq,
                i as u32,
                t.id.raw(),
                gen,
            )));
        }
    }

    fn bump_gen(&mut self, i: usize, id: TimerId) -> u64 {
        let gens = &mut self.timer_gen[i];
        let k = id.raw() as usize;
        if k >= gens.len() {
            gens.resize(k + 1, 0);
        }
        gens[k] += 1;
        gens[k]
    }

    /// Delivers the frame at the head of the FIFO. Returns `false` when the
    /// FIFO is empty.
    pub fn step(&mut self) -> bool {
        let Some(q) = self.queue.pop_front() else {
            return false;
        };
        // Folded in here, outside every span: the corpus digest is the
        // harness's own work, not a layer's.
        self.counts.corpus_digest = fold_frame(self.counts.corpus_digest, &q.bytes);
        let hop_kind = if frame_to(&q.bytes) >= self.nodes.len() {
            Kind::ClientRecv
        } else {
            Kind::Hop
        };
        let hop = self.open(hop_kind, q.cause, q.op);
        self.next(Kind::FrameDecode, hop, q.op);
        let decoded = decode_frame(&q.bytes).map(|(f, t, p)| (f, t, Arc::<[u8]>::from(p)));
        let Ok((from, to, payload)) = decoded else {
            self.counts.rejected += 1;
            self.close(hop);
            return true;
        };
        let i = to.index();
        if i >= self.nodes.len() {
            // A client endpoint: decode the payload there.
            let msg = irs_net::wire::decode_payload::<P::Msg>(&payload);
            self.close(hop);
            self.counts.to_clients += 1;
            if let Ok(msg) = msg {
                self.inbox.push(Delivery { to, msg, span: hop });
            }
            return true;
        }
        if self.crashed[i] {
            self.counts.dropped_to_crashed += 1;
            self.close(hop);
            return true;
        }
        let frame = Frame { from, to, payload };
        self.next(Kind::Accept, hop, q.op);
        let msg = (self.accept)(&frame, to);
        let Some(msg) = msg else {
            self.counts.rejected += 1;
            self.close(hop);
            return true;
        };
        self.counts.delivered += 1;
        let h = self.next(Kind::OnMessage, hop, q.op);
        let mut out = std::mem::take(&mut self.out);
        self.nodes[i].on_message(from, &msg, &mut out);
        self.after_handler(i, &mut out, hop, h, q.op);
        self.out = out;
        self.close(hop);
        true
    }

    /// Delivers frames until the FIFO is empty.
    pub fn run_until_quiet(&mut self) {
        while self.step() {}
    }

    /// Fires the earliest live timer if it is due at or before `limit`,
    /// moving the clock to its due tick. Returns whether one fired.
    pub fn fire_next_timer(&mut self, limit: u64) -> bool {
        let Some(at) = self.next_timer_at() else {
            return false;
        };
        if at > limit {
            return false;
        }
        let Reverse((at, _, node, timer, _)) = self.timers.pop().expect("peeked above");
        self.now = self.now.max(at);
        let i = node as usize;
        // A fired timer is spent: a later re-arm gets a fresh generation.
        self.bump_gen(i, TimerId::new(timer));
        if self.crashed[i] {
            return true;
        }
        self.counts.timer_fires += 1;
        let hop = self.open(Kind::TimerHop, NONE, NONE);
        let h = self.next(Kind::OnTimer, hop, NONE);
        let mut out = std::mem::take(&mut self.out);
        self.nodes[i].on_timer(TimerId::new(timer), &mut out);
        self.after_handler(i, &mut out, hop, h, NONE);
        self.out = out;
        self.close(hop);
        true
    }

    /// Advances the virtual clock to `tick`, firing every timer due on the
    /// way, each followed by the frames it caused (zero link delay).
    pub fn advance_to(&mut self, tick: u64) {
        self.run_until_quiet();
        while self.fire_next_timer(tick) {
            self.run_until_quiet();
        }
        self.now = self.now.max(tick);
    }
}

/// Folds one frame into the corpus digest: FNV-1a's multiply-xor over
/// 8-byte words (a byte-at-a-time hash would cost more than the hop it
/// fingerprints), length first so that frame boundaries count.
fn fold_frame(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    h = (h ^ bytes.len() as u64).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// The sender and addressee indices of an encoded frame (`usize::MAX` if
/// too short — the decode that follows reports it).
fn frame_from(bytes: &[u8]) -> usize {
    header_u32(bytes, 3)
}

fn frame_to(bytes: &[u8]) -> usize {
    header_u32(bytes, 7)
}

fn header_u32(bytes: &[u8], at: usize) -> usize {
    bytes
        .get(at..at + 4)
        .and_then(|b| b.try_into().ok())
        .map_or(usize::MAX, |b| u32::from_le_bytes(b) as usize)
}

/// Per-kind totals over a span list, restricted to spans that worked for
/// an op (`only_ops`) or all spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sums duration and self time (duration minus the part covered by child
/// spans) per [`Kind`].
pub fn totals(spans: &[Span], only_ops: bool) -> [KindTotal; 12] {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        // Only nesting parents count: an outermost span's `parent` names
        // its cause, which does not enclose it.
        if s.parent != NONE && !is_outermost(s.kind) {
            child_ns[s.parent as usize] += s.dur();
        }
    }
    let mut out = [KindTotal::default(); 12];
    for (s, &covered) in spans.iter().zip(&child_ns) {
        if only_ops && s.op == NONE {
            continue;
        }
        let t = &mut out[s.kind as usize];
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += s.dur().saturating_sub(covered);
    }
    out
}

pub fn is_outermost(kind: Kind) -> bool {
    matches!(
        kind,
        Kind::Hop | Kind::TimerHop | Kind::ClientSend | Kind::ClientRecv
    )
}

/// The causal chain behind the client-receive span `recv`: every outermost
/// span from the reply back to the request, newest first.
pub fn chain(spans: &[Span], recv: u32) -> Vec<u32> {
    let mut path = Vec::new();
    let mut at = recv;
    while at != NONE {
        let s = &spans[at as usize];
        if is_outermost(s.kind) {
            path.push(at);
            at = s.parent; // the causing handler (or NONE)
        } else {
            debug_assert!(s.kind.is_handler() || s.kind == Kind::ClientSend);
            at = s.parent; // a handler's enclosing hop
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_types::Duration;

    /// A toy protocol: node 0 answers every ping with a pong to the sender
    /// and a broadcast; everyone re-arms one timer.
    #[derive(Debug)]
    struct Echo(ProcessId);

    impl Protocol for Echo {
        type Msg = irs_omega::OmegaMsg;

        fn id(&self) -> ProcessId {
            self.0
        }

        fn on_start(&mut self, out: &mut Actions<Self::Msg>) {
            out.set_timer(TimerId::new(1), Duration::from_ticks(10));
        }

        fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, out: &mut Actions<Self::Msg>) {
            if self.0.index() == 0 && from.index() >= 3 {
                out.broadcast_others(msg.clone());
                out.send(from, msg.clone());
            }
        }

        fn on_timer(&mut self, timer: TimerId, out: &mut Actions<Self::Msg>) {
            out.set_timer(timer, Duration::from_ticks(10));
        }
    }

    fn ping() -> irs_omega::OmegaMsg {
        irs_omega::OmegaMsg::AliveDelta {
            rn: irs_types::RoundNum::new(3),
            entries: vec![(1, 2)],
        }
    }

    fn pump(traced: bool) -> Pump<Echo> {
        let nodes = (0..3).map(|i| Echo(ProcessId::new(i))).collect();
        let accept: AcceptFn<irs_omega::OmegaMsg> =
            Box::new(|f, _| irs_net::wire::decode_payload(&f.payload).ok());
        Pump::new(nodes, accept, traced)
    }

    fn drive(p: &mut Pump<Echo>) {
        p.start();
        for k in 0..5u32 {
            p.client_send(ProcessId::new(3), ProcessId::new(0), &ping(), k);
            p.run_until_quiet();
            p.advance_to(u64::from(k + 1) * 7);
        }
    }

    #[test]
    fn frames_fan_out_and_replies_reach_the_client() {
        let mut p = pump(true);
        drive(&mut p);
        // Per ping: 1 request + 2 broadcast copies + 1 reply.
        assert_eq!(p.counts.frames, 5 * 4);
        assert_eq!(p.counts.op_frames, 5 * 4);
        assert_eq!(p.counts.to_clients, 5);
        assert_eq!(p.counts.delivered, 5 * 3);
        let inbox = p.take_inbox();
        assert_eq!(inbox.len(), 5);
        assert!(inbox.iter().all(|d| d.to == ProcessId::new(3)));
        // 35 ticks elapsed, timers every 10: three fires on each node.
        assert_eq!(p.counts.timer_fires, 3 * 3);
        assert_eq!(p.now(), 35);
    }

    #[test]
    fn same_input_gives_identical_counts_and_corpus_with_spans_on_or_off() {
        let (mut a, mut b, mut c) = (pump(true), pump(true), pump(false));
        drive(&mut a);
        drive(&mut b);
        drive(&mut c);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts, c.counts, "tracing must not change what runs");
        assert_ne!(a.counts.corpus_digest, 0);
        assert!(c.spans().is_empty());
    }

    #[test]
    fn span_tree_is_well_formed_and_self_times_sum_to_the_roots() {
        let mut p = pump(true);
        drive(&mut p);
        let spans = p.spans();
        assert!(!spans.is_empty());
        for (i, s) in spans.iter().enumerate() {
            assert!(s.end >= s.start);
            if s.parent == NONE {
                continue;
            }
            let parent = &spans[s.parent as usize];
            assert!((s.parent as usize) < i, "a span starts after its parent");
            if is_outermost(s.kind) {
                // The parent is the cause: it finished emitting before the
                // hop ran.
                assert!(parent.start <= s.start);
            } else {
                assert!(
                    parent.start <= s.start && s.end <= parent.end,
                    "child {:?} outside parent {:?}",
                    s,
                    parent
                );
            }
        }
        let sums = totals(spans, false);
        let self_total: u64 = sums.iter().map(|t| t.self_ns).sum();
        let root_total: u64 = spans
            .iter()
            .filter(|s| is_outermost(s.kind))
            .map(Span::dur)
            .sum();
        assert_eq!(
            self_total, root_total,
            "self times partition the outermost spans"
        );
    }

    #[test]
    fn an_ack_walks_back_to_its_request() {
        let mut p = pump(true);
        drive(&mut p);
        let inbox = p.take_inbox();
        let path = chain(p.spans(), inbox[2].span);
        let kinds: Vec<Kind> = path.iter().map(|&i| p.spans()[i as usize].kind).collect();
        assert_eq!(kinds, [Kind::ClientRecv, Kind::Hop, Kind::ClientSend]);
        assert!(path.iter().all(|&i| p.spans()[i as usize].op == 2));
    }

    #[test]
    fn crashed_nodes_receive_nothing() {
        let mut p = pump(false);
        p.start();
        p.crash(1);
        p.client_send(ProcessId::new(3), ProcessId::new(0), &ping(), 0);
        p.advance_to(25);
        assert_eq!(p.counts.dropped_to_crashed, 1);
        // Node 1's timer fired into the void twice; the others ran.
        assert_eq!(p.counts.timer_fires, 2 * 2);
    }
}
