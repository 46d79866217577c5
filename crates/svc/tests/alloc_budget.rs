//! The allocation budget of a put: how many heap allocations the replicas
//! make for one steady-state write at n = 5.
//!
//! Five `SvcReplica`s and one client run over a single-threaded FIFO of
//! encoded frames, the shape of `burst_equivalence.rs`: every frame is
//! admitted through `accept_svc_frame` (decode plus `valid_for`), whatever
//! the FIFO holds is handed to each replica as one burst in arrival order,
//! and every message a turn sends is encoded once into a reused buffer, as
//! the host loop does. A thread-local counting allocator counts the
//! allocations made while a frame is admitted, a turn runs, or its sends
//! are encoded — the replicas' side of a put; the client's request, the
//! FIFO and the `Frame`s that carry the bytes are the harness's and are not
//! counted. This file is a crate of its own, so the counting allocator's
//! `unsafe` stays out of the library crates, which forbid it.

use irs_net::wire::decode_payload;
use irs_net::{Frame, Wire};
use irs_svc::loadgen::{key_for, value_for};
use irs_svc::{accept_svc_frame, KvOp, KvWrite, SvcConfig, SvcMsg, SvcReplica, SvcReply};
use irs_types::{Actions, Destination, ProcessId, Protocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

const N: usize = 5;
/// The client's endpoint.
const CLIENT: usize = N;
const KEYS: u64 = 64;
const VALUE_LEN: usize = 64;
const WARMUP: u64 = 256;
/// Two compactions' worth (one every 1 024 slots), so the snapshot export
/// is part of the steady state it amortises into.
const MEASURED: u64 = 2_048;
/// Allocations a steady-state put may cost the replicas: under half of
/// the 85.7 this harness counted before decided batches were shared,
/// decided writes applied in place and the dedup index built on demand
/// (22.1 after; debug and release builds count alike).
const BUDGET: f64 = 42.0;

thread_local! {
    /// Allocations counted on this thread; `None` while not counting.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` made on a thread while it counts.
struct Counting;

fn count() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = COUNTED.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` with this thread's allocations counted into `total`.
fn counted<R>(total: &mut u64, f: impl FnOnce() -> R) -> R {
    COUNTED.with(|c| c.set(Some(0)));
    let result = f();
    *total += COUNTED.with(|c| c.replace(None)).unwrap_or(0);
    result
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

/// The replicas, the FIFO of frames in flight, and the reused buffers a
/// host keeps: a burst, an action list, an encode buffer.
struct Group {
    replicas: Vec<SvcReplica>,
    in_flight: VecDeque<Frame>,
    burst: Vec<(ProcessId, SvcMsg)>,
    out: Actions<SvcMsg>,
    encoded: Vec<u8>,
    /// Allocations counted so far.
    allocations: u64,
}

impl Group {
    fn new() -> Self {
        let config = SvcConfig::new(N, 0);
        Group {
            replicas: (0..N).map(|i| config.replica(pid(i))).collect(),
            in_flight: VecDeque::new(),
            burst: Vec::new(),
            out: Actions::new(),
            encoded: Vec::new(),
            allocations: 0,
        }
    }

    fn send(&mut self, from: ProcessId, to: ProcessId, payload: &[u8]) {
        let payload: Arc<[u8]> = payload.into();
        self.in_flight.push_back(Frame { from, to, payload });
    }

    /// Encodes (counted) and queues what replica `from`'s turn sent.
    fn route(&mut self, from: ProcessId) {
        let sends: Vec<_> = self.out.drain_sends().collect();
        self.out.clear();
        for send in sends {
            let mut encoded = std::mem::take(&mut self.encoded);
            encoded.clear();
            counted(&mut self.allocations, || send.msg.encode(&mut encoded));
            let targets: Vec<ProcessId> = match send.dest {
                Destination::To(q) => vec![q],
                Destination::AllOthers => (0..N).map(pid).filter(|&q| q != from).collect(),
                Destination::All => (0..N).map(pid).collect(),
            };
            for to in targets {
                self.send(from, to, &encoded);
            }
            self.encoded = encoded;
        }
    }

    /// Delivers until the FIFO is empty: each pass hands every replica the
    /// frames addressed to it as one burst, in arrival order. Returns the
    /// replies that reached the client.
    fn run_to_quiet(&mut self) -> Vec<SvcReply> {
        let mut replies = Vec::new();
        while !self.in_flight.is_empty() {
            let frames: Vec<Frame> = self.in_flight.drain(..).collect();
            for to in 0..=N {
                let mine = frames.iter().filter(|f| f.to == pid(to));
                if to == CLIENT {
                    for f in mine {
                        if let Ok(SvcMsg::Reply(reply)) = decode_payload(&f.payload) {
                            replies.push(reply);
                        }
                    }
                    continue;
                }
                let (replica, burst, out) =
                    (&mut self.replicas[to], &mut self.burst, &mut self.out);
                counted(&mut self.allocations, || {
                    let admitted = mine.filter_map(|f| {
                        let msg = accept_svc_frame(f, pid(to), N, N + 1)?;
                        Some((f.from, msg))
                    });
                    burst.extend(admitted);
                    if !burst.is_empty() {
                        replica.on_burst(burst, out);
                    }
                    burst.clear();
                });
                self.route(pid(to));
            }
        }
        replies
    }

    /// One put from the client to replica 0 (the leader from the start:
    /// no timer fires, so Ω never moves), run to quiet. Returns its slot.
    fn put(&mut self, seq: u64) -> u64 {
        let write = KvWrite {
            client: CLIENT as u64,
            seq,
            op: KvOp::Put {
                key: key_for(CLIENT as u64, seq % KEYS),
                value: value_for(seq, VALUE_LEN),
            },
        };
        let mut request = Vec::new();
        SvcMsg::Request {
            cmd: write.encode(),
        }
        .encode(&mut request);
        self.send(pid(CLIENT), pid(0), &request);
        let replies = self.run_to_quiet();
        match replies.as_slice() {
            [SvcReply::Applied {
                seq: acked, slot, ..
            }] if *acked == seq => *slot,
            other => panic!("put {seq} was answered with {other:?}"),
        }
    }
}

#[test]
fn a_steady_state_put_stays_within_its_allocation_budget() {
    let mut group = Group::new();
    for seq in 1..=WARMUP {
        group.put(seq);
    }
    group.allocations = 0;
    let mut slot = group.put(WARMUP + 1);
    for seq in WARMUP + 2..=WARMUP + MEASURED {
        let next = group.put(seq);
        assert_eq!(next, slot + 1, "one slot per put, in order");
        slot = next;
    }
    let per_put = group.allocations as f64 / MEASURED as f64;
    // The host's stop: the last decision's held announcement goes out, and
    // every replica ends holding every write.
    for r in 0..N {
        group.replicas[r].on_quiesce(&mut group.out);
        group.route(pid(r));
    }
    group.run_to_quiet();
    for r in &group.replicas {
        assert_eq!(r.store().applied(), WARMUP + MEASURED, "{} lags", r.id());
        assert_eq!(r.store().digest(), group.replicas[0].store().digest());
    }
    println!("alloc-budget: {per_put:.1} allocations per put at n = {N} (budget {BUDGET})");
    assert!(
        per_put <= BUDGET,
        "{per_put:.1} allocations per put, over the budget of {BUDGET}"
    );
}
