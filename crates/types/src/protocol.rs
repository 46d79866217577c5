//! The sans-IO protocol interface.
//!
//! Every algorithm in this workspace — the paper's Figures 1/2/3 and the
//! `A_{f,g}` variant (`irs-omega`), the baseline Ω implementations
//! (`irs-baselines`), and the Ω-based consensus (`irs-consensus`) — is written
//! as a pure state machine implementing [`Protocol`]. A state machine never
//! performs I/O: it is handed events (start, message reception, timer expiry)
//! and records the actions it wants performed (sends, timer resets) into an
//! [`Actions`] buffer. The embedding then executes those actions:
//!
//! * `irs-sim` executes them inside a deterministic discrete-event simulation
//!   whose adversary realises the paper's behavioural assumptions, and
//! * `irs-runtime` executes them on real threads, channels and wall-clock
//!   timers.
//!
//! Writing the algorithms this way means the *same* code is exercised by unit
//! tests, property tests, the experiment harness, and the real-time runtime.

use crate::{Duration, ProcessId, RoundNum};
use core::fmt;

/// Identifier of a logical timer owned by a protocol instance.
///
/// Each protocol may own several timers (e.g. the paper's algorithms use one
/// timer for the periodic `ALIVE` broadcast of task `T1` and one for the
/// receiving-round timeout of task `T2`). Setting a timer that is already
/// pending *replaces* it — exactly the semantics of the paper's
/// "`set timer_i to …`" statement.
///
/// Protocols that embed other protocols (the consensus crate embeds an Ω
/// instance) partition the id space between themselves; see
/// [`TimerId::offset`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u16);

impl TimerId {
    /// Creates a timer id.
    pub const fn new(raw: u16) -> Self {
        TimerId(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Returns this id shifted by `base`, used by composite protocols to give
    /// each embedded protocol a disjoint id range.
    pub const fn offset(self, base: u16) -> TimerId {
        TimerId(self.0 + base)
    }
}

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// Where an outbound message should be delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Destination {
    /// A single process.
    To(ProcessId),
    /// Every process except the sender ("for each j ≠ i do send …").
    AllOthers,
    /// Every process including the sender ("for each j do send …", line 10).
    All,
}

/// One outbound message recorded by a protocol.
#[derive(Clone, Debug)]
pub struct Outbound<M> {
    /// Where to deliver the message.
    pub dest: Destination,
    /// The message payload.
    pub msg: M,
}

/// One timer (re)arm request recorded by a protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerRequest {
    /// Which timer to arm.
    pub id: TimerId,
    /// How far in the future it should fire.
    pub after: Duration,
}

/// The buffer into which a protocol records the effects of handling one event.
///
/// # Example
///
/// ```
/// use irs_types::{Actions, Destination, Duration, ProcessId, TimerId};
///
/// let mut out: Actions<&'static str> = Actions::new();
/// out.send(ProcessId::new(2), "hello");
/// out.broadcast_all("alive");
/// out.set_timer(TimerId::new(0), Duration::from_ticks(10));
/// assert_eq!(out.sends().len(), 2);
/// assert!(matches!(out.sends()[1].dest, Destination::All));
///
/// // A composite protocol re-addresses what an embedded one recorded:
/// // sends keep their destinations, timers and cancels pass through, and
/// // the inner buffer is left empty, capacity kept, for the next turn.
/// let mut outer: Actions<String> = Actions::new();
/// out.drain_into(&mut outer, |m| format!("inner:{m}"));
/// assert!(out.is_empty());
/// assert_eq!(outer.sends()[0].msg, "inner:hello");
/// assert!(matches!(outer.sends()[0].dest, Destination::To(p) if p == ProcessId::new(2)));
/// assert_eq!(outer.timers().len(), 1);
/// outer.push(Destination::AllOthers, "own".to_string());
/// assert!(matches!(outer.sends()[2].dest, Destination::AllOthers));
/// ```
#[derive(Clone, Debug)]
pub struct Actions<M> {
    sends: Vec<Outbound<M>>,
    timers: Vec<TimerRequest>,
    cancels: Vec<TimerId>,
}

impl<M> Default for Actions<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Actions<M> {
    /// Creates an empty action buffer.
    pub fn new() -> Self {
        Actions {
            sends: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
        }
    }

    /// Records a send to an already-chosen destination.
    pub fn push(&mut self, dest: Destination, msg: M) {
        self.sends.push(Outbound { dest, msg });
    }

    /// Records a point-to-point send.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.push(Destination::To(to), msg);
    }

    /// Records a broadcast to every *other* process.
    pub fn broadcast_others(&mut self, msg: M) {
        self.push(Destination::AllOthers, msg);
    }

    /// Records a broadcast to every process, the sender included.
    pub fn broadcast_all(&mut self, msg: M) {
        self.push(Destination::All, msg);
    }

    /// Arms (or re-arms, replacing any pending instance) the given timer.
    pub fn set_timer(&mut self, id: TimerId, after: Duration) {
        self.timers.push(TimerRequest { id, after });
    }

    /// Cancels the given timer if pending.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.cancels.push(id);
    }

    /// The sends recorded so far.
    pub fn sends(&self) -> &[Outbound<M>] {
        &self.sends
    }

    /// The timer arm requests recorded so far.
    pub fn timers(&self) -> &[TimerRequest] {
        &self.timers
    }

    /// The timer cancellations recorded so far.
    pub fn cancels(&self) -> &[TimerId] {
        &self.cancels
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty() && self.cancels.is_empty()
    }

    /// Consumes the buffer, returning `(sends, timer requests, cancellations)`.
    pub fn into_parts(self) -> (Vec<Outbound<M>>, Vec<TimerRequest>, Vec<TimerId>) {
        (self.sends, self.timers, self.cancels)
    }

    /// Drains the recorded sends, leaving the buffer's capacity in place.
    ///
    /// Together with [`Actions::drain_timers`] and [`Actions::drain_cancels`]
    /// this lets a driver keep one reusable buffer per event loop instead of
    /// allocating a fresh `Actions` per callback.
    pub fn drain_sends(&mut self) -> impl Iterator<Item = Outbound<M>> + '_ {
        self.sends.drain(..)
    }

    /// Drains the recorded timer arm requests.
    pub fn drain_timers(&mut self) -> impl Iterator<Item = TimerRequest> + '_ {
        self.timers.drain(..)
    }

    /// Drains the recorded timer cancellations.
    pub fn drain_cancels(&mut self) -> impl Iterator<Item = TimerId> + '_ {
        self.cancels.drain(..)
    }

    /// Moves everything recorded here into `out`, each message re-addressed
    /// through `f` — how a composite protocol lifts an embedded protocol's
    /// turn into its own message enum. Sends keep their destinations and
    /// order; this buffer is left empty with its capacity in place.
    pub fn drain_into<N>(&mut self, out: &mut Actions<N>, mut f: impl FnMut(M) -> N) {
        out.sends.extend(self.sends.drain(..).map(|o| Outbound {
            dest: o.dest,
            msg: f(o.msg),
        }));
        out.timers.append(&mut self.timers);
        out.cancels.append(&mut self.cancels);
    }

    /// Clears the buffer for reuse.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.timers.clear();
        self.cancels.clear();
    }
}

/// A distributed algorithm written as an I/O-free state machine.
///
/// The driver guarantees:
///
/// * [`on_start`](Protocol::on_start) is called exactly once, before any other
///   callback;
/// * callbacks are never invoked concurrently for the same instance (the
///   paper's atomic-statement-block assumption);
/// * after a process crashes the driver never invokes its callbacks again.
///
/// # Zero-copy delivery
///
/// [`on_message`](Protocol::on_message) receives the payload *by reference*:
/// the driver owns the (possibly shared) message buffer, and a broadcast to
/// `n − 1` receivers hands every receiver the same allocation. The paper's
/// algorithms only ever read the payload (the gossip merge of line 5 and the
/// suspicion counting of lines 13–18 are pure reads), so this makes the
/// simulator's per-receiver fan-out allocation-free. A protocol that needs an
/// owned copy of (part of) a message clones exactly what it keeps.
///
/// # The burst law
///
/// A driver that holds several arrivals for one instance at once (a poll
/// that drained a socket) may hand them over in one
/// [`on_burst`](Protocol::on_burst) call instead of one `on_message` call
/// each. The law every implementation keeps:
///
/// * `on_burst(&[(from, m)], out)` records exactly the [`Actions`] that
///   `on_message(from, &m, out)` records;
/// * a burst is delivered in order, so frames of one link stay FIFO, and its
///   end state is one the same frames could have produced one `on_message`
///   at a time — an override may *coalesce* work that is idempotent per
///   event (open one slot for eight requests, commit one WAL group), never
///   reorder or drop a message;
/// * the recorded actions leave only after `on_burst` returns, so whatever an
///   implementation persists before returning is persisted before any send
///   of the burst.
///
/// A burst is bounded by the driver (the runtime hands over at most 128
/// frames per poll); a protocol must not assume a bound of its own. Drivers
/// that deliver one frame at a time — the simulator, replay harnesses —
/// call only `on_message`, so a protocol may never *depend* on bursts for
/// progress.
///
/// # The quiesce law
///
/// A protocol may hold output back for a later turn to carry (the
/// replicated log announces a decision on its next `Accept`). A driver that
/// *stops* an instance calls [`on_quiesce`](Protocol::on_quiesce) so that
/// nothing stays held:
///
/// * at most once per instance, after its last `on_burst`/`on_message`/
///   `on_timer` turn, and never on a crashed one;
/// * the sends it records are delivered like any turn's, before the driver
///   concludes that nothing is in flight; timers it arms are ignored (no
///   turn follows to fire them);
/// * a driver that never stops — the simulator at its horizon, a replay
///   pump — need not call it, so an implementation must also release what
///   it holds on a timer of its own: `on_quiesce` bounds the wait at a stop,
///   it is never the only way out.
pub trait Protocol {
    /// The message type exchanged by instances of this protocol.
    type Msg: Clone + fmt::Debug + Send + Sync + 'static;

    /// The identity of this process.
    fn id(&self) -> ProcessId;

    /// Invoked once at time zero, before any message or timer is delivered.
    fn on_start(&mut self, out: &mut Actions<Self::Msg>);

    /// Invoked when a message from `from` is delivered to this process.
    ///
    /// The payload is borrowed from the driver's (shared) delivery buffer;
    /// clone what must be retained.
    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, out: &mut Actions<Self::Msg>);

    /// Invoked with every message a driver's poll handed over for this
    /// process, in arrival order (see *The burst law* above). The default
    /// delivers them one `on_message` at a time.
    fn on_burst(&mut self, burst: &[(ProcessId, Self::Msg)], out: &mut Actions<Self::Msg>) {
        for (from, msg) in burst {
            self.on_message(*from, msg, out);
        }
    }

    /// Invoked when timer `timer` expires (and was not superseded or
    /// cancelled in the meantime).
    fn on_timer(&mut self, timer: TimerId, out: &mut Actions<Self::Msg>);

    /// Invoked once when the driver stops this instance, after its last turn
    /// (see *The quiesce law* above): record whatever output was being held
    /// back. The default holds nothing.
    fn on_quiesce(&mut self, _out: &mut Actions<Self::Msg>) {}
}

/// Metadata the adversary models need about a message in flight.
///
/// The assumptions of the paper constrain only messages tagged `ALIVE(rn)`
/// ("it is important to notice that the assumption A places constraints only
/// on the messages tagged ALIVE"); every other message may be delayed
/// arbitrarily. Adversary models therefore ask the message which round, if
/// any, it is constrained by.
pub trait RoundTagged {
    /// Returns `Some(rn)` if this is a message the behavioural assumption
    /// constrains (an `ALIVE(rn)` message), `None` otherwise.
    fn constrained_round(&self) -> Option<RoundNum>;

    /// An estimate of the serialized size of this message in bytes, used for
    /// communication-cost accounting (experiment E9). The default is the
    /// in-memory size.
    fn estimated_size(&self) -> usize
    where
        Self: Sized,
    {
        core::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;

    #[test]
    fn actions_record_in_order() {
        let mut a: Actions<u32> = Actions::new();
        assert!(a.is_empty());
        a.send(ProcessId::new(1), 10);
        a.broadcast_others(20);
        a.broadcast_all(30);
        a.set_timer(TimerId::new(3), Duration::from_ticks(7));
        a.cancel_timer(TimerId::new(4));
        assert!(!a.is_empty());
        assert_eq!(a.sends().len(), 3);
        assert_eq!(a.sends()[0].msg, 10);
        assert!(matches!(a.sends()[0].dest, Destination::To(p) if p == ProcessId::new(1)));
        assert!(matches!(a.sends()[1].dest, Destination::AllOthers));
        assert!(matches!(a.sends()[2].dest, Destination::All));
        assert_eq!(
            a.timers(),
            &[TimerRequest {
                id: TimerId::new(3),
                after: Duration::from_ticks(7)
            }]
        );
        assert_eq!(a.cancels(), &[TimerId::new(4)]);
    }

    #[test]
    fn into_parts_and_clear() {
        let mut a: Actions<u8> = Actions::new();
        a.send(ProcessId::new(0), 1);
        a.set_timer(TimerId::new(0), Duration::ZERO);
        let (s, t, c) = a.clone().into_parts();
        assert_eq!(s.len(), 1);
        assert_eq!(t.len(), 1);
        assert!(c.is_empty());
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn drain_into_preserves_everything_else_and_keeps_what_out_held() {
        let mut a: Actions<u8> = Actions::new();
        a.send(ProcessId::new(2), 5);
        a.broadcast_others(6);
        a.set_timer(TimerId::new(1), Duration::from_ticks(3));
        a.cancel_timer(TimerId::new(9));
        let mut b: Actions<String> = Actions::new();
        b.broadcast_all("first".to_string());
        a.drain_into(&mut b, |m| format!("v{m}"));
        assert!(a.is_empty());
        let msgs: Vec<&str> = b.sends().iter().map(|s| s.msg.as_str()).collect();
        assert_eq!(msgs, ["first", "v5", "v6"]);
        assert!(matches!(b.sends()[1].dest, Destination::To(p) if p == ProcessId::new(2)));
        assert!(matches!(b.sends()[2].dest, Destination::AllOthers));
        assert_eq!(b.timers().len(), 1);
        assert_eq!(b.cancels(), &[TimerId::new(9)]);
    }

    #[test]
    fn timer_id_offset() {
        assert_eq!(TimerId::new(2).offset(100), TimerId::new(102));
        assert_eq!(TimerId::new(7).raw(), 7);
        assert_eq!(TimerId::new(7).to_string(), "timer#7");
    }

    /// Echoes every message back to its sender.
    struct Echo;

    impl Protocol for Echo {
        type Msg = u32;

        fn id(&self) -> ProcessId {
            ProcessId::new(0)
        }

        fn on_start(&mut self, _out: &mut Actions<u32>) {}

        fn on_message(&mut self, from: ProcessId, msg: &u32, out: &mut Actions<u32>) {
            out.send(from, *msg);
        }

        fn on_timer(&mut self, _timer: TimerId, _out: &mut Actions<u32>) {}
    }

    #[test]
    fn default_on_burst_is_on_message_in_order() {
        let burst = [(ProcessId::new(1), 7), (ProcessId::new(2), 8)];
        let (mut one_call, mut per_frame) = (Actions::new(), Actions::new());
        Echo.on_burst(&burst, &mut one_call);
        for (from, msg) in &burst {
            Echo.on_message(*from, msg, &mut per_frame);
        }
        let flat = |a: &Actions<u32>| -> Vec<(Destination, u32)> {
            a.sends().iter().map(|s| (s.dest, s.msg)).collect()
        };
        assert_eq!(flat(&one_call), flat(&per_frame));
        assert_eq!(flat(&one_call)[1], (Destination::To(ProcessId::new(2)), 8));
    }

    #[test]
    fn default_on_quiesce_holds_nothing_back() {
        let mut out = Actions::new();
        Echo.on_quiesce(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn default_is_empty() {
        let a: Actions<()> = Actions::default();
        assert!(a.is_empty());
    }
}
