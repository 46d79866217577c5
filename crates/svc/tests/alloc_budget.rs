//! The allocation budget of a put: how many heap allocations the replicas
//! make for one steady-state write at n = 5.
//!
//! Five `SvcReplica`s run on the real host loop — an `irs_runtime::Stepper`
//! over one endpoint of an in-memory mesh, admitting by the replicas' own
//! policy (`SvcConfig::accept`) — and one client sits on the mesh's second
//! endpoint. The manual clock never moves, so no timer fires and Ω stays
//! on replica 0. A thread-local counting allocator counts every allocation the
//! stepper's turns make — admission (decode plus `valid_for`), the bursts,
//! the encode of what they send, the loop's own staging and dispatch —
//! except inside the link's own `send` and `recv`, around which a
//! test-local decorator pauses the count: the mesh's channel items and
//! frames are the link's, not the loop's. The client is the real
//! `SvcClient`, driven through its non-blocking surface at the stepper's
//! virtual time; its request and its handling of the reply are not counted
//! either. This file is a crate of its own, so the counting allocator's
//! `unsafe` stays out of the library crates, which forbid it.

use irs_net::{Frame, MemNetwork, MemTransport, NetError, Transport};
use irs_runtime::Stepper;
use irs_svc::loadgen::{key_for, value_for};
use irs_svc::{SvcClient, SvcConfig, SvcReplica, SvcReply};
use irs_types::{ProcessId, Protocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

const N: usize = 5;
/// The client's endpoint.
const CLIENT: usize = N;
const KEYS: u64 = 64;
const VALUE_LEN: usize = 64;
const WARMUP: u64 = 256;
/// Two compactions' worth (one every 1 024 slots), so the snapshot export
/// is part of the steady state it amortises into.
const MEASURED: u64 = 2_048;
/// Allocations a steady-state put may cost the replicas. This harness
/// counted 85.7 before decided batches were shared, decided writes applied
/// in place and the dedup index built on demand, 22.1 after, 13.1 once a
/// command received in a frame was a range of that frame instead of a
/// copy, and 12.2 since a decided slot below the frontier is an entry of a
/// dense prefix instead of a tree node (debug and release builds count
/// alike). What is left of the decode is one `Batch` slice per decoded
/// `Accept` and `Accepted` — eight of the 12.2 at n = 5. The budget sits
/// below 13.1, so neither a copy of each received command nor a tree node
/// per decision can come back unseen.
const BUDGET: f64 = 13.0;

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

/// Runs `f` with the count paused, resuming it where it stood.
fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let paused = COUNTED.with(|c| c.replace(None));
    let result = f();
    COUNTED.with(|c| c.set(paused));
    result
}

/// A link whose own work is not counted (see the module docs).
struct Uncounted(MemTransport);

impl Transport for Uncounted {
    fn send(&mut self, from: ProcessId, to: ProcessId, payload: &[u8]) -> Result<(), NetError> {
        uncounted(|| self.0.send(from, to, payload))
    }

    fn send_many(
        &mut self,
        from: ProcessId,
        targets: &[ProcessId],
        payload: &[u8],
    ) -> Result<(), NetError> {
        uncounted(|| self.0.send_many(from, targets, payload))
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError> {
        uncounted(|| self.0.recv(timeout))
    }
}

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

/// The replicas on the stepper, the client on the mesh's second endpoint,
/// the length of a tick, and the allocations counted so far.
struct Group {
    stepper: Stepper<SvcReplica, Uncounted>,
    client: SvcClient<MemTransport>,
    tick: Duration,
    allocations: u64,
}

impl Group {
    fn new() -> Self {
        let config = SvcConfig::new(N, 1);
        let mut owner = vec![0; N];
        owner.push(1);
        let mut endpoints = MemNetwork::grouped(&owner);
        let client = SvcClient::new(pid(CLIENT), N, endpoints.pop().expect("the client's"), 1);
        let replicas = endpoints.pop().expect("the replicas' endpoint");
        let processes = (0..N).map(|i| config.replica(pid(i))).collect();
        Group {
            stepper: Stepper::new(processes, Uncounted(replicas), config.accept()),
            client,
            tick: config.tick,
            allocations: 0,
        }
    }

    /// One put from the client to replica 0 (its first hint, and the leader
    /// from the start), turned to quiet with the turns counted. Returns its
    /// slot.
    fn put(&mut self) -> u64 {
        let now = self.tick * self.stepper.clock().now() as u32;
        let seq = self.client.next_seq();
        let key = key_for(self.client.client_id(), seq % KEYS);
        let started = self.client.start_put(&key, &value_for(seq, VALUE_LEN), now);
        assert_eq!(started, Ok(seq), "in-memory send");
        let stepper = &mut self.stepper;
        counted(&mut self.allocations, || while stepper.turn() > 0 {});
        let answer = self.client.poll(now).expect("in-memory recv");
        match answer.map(|a| a.reply) {
            Some(SvcReply::Applied {
                seq: acked, slot, ..
            }) if acked == seq => slot,
            other => panic!("put {seq} was answered with {other:?}"),
        }
    }
}

#[test]
fn a_steady_state_put_stays_within_its_allocation_budget() {
    let mut group = Group::new();
    for _ in 0..WARMUP {
        group.put();
    }
    group.allocations = 0;
    let mut slot = group.put();
    for _ in 1..MEASURED {
        let next = group.put();
        assert_eq!(next, slot + 1, "one slot per put, in order");
        slot = next;
    }
    let per_put = group.allocations as f64 / MEASURED as f64;
    let stats = group.client.stats;
    assert_eq!(
        (stats.acked, stats.retries, stats.redirects),
        (WARMUP + MEASURED, 0, 0)
    );
    // The host's stop: the last decision's held announcement goes out, and
    // every replica ends holding every write.
    let replicas = group.stepper.finish();
    for r in &replicas {
        assert_eq!(r.store().applied(), WARMUP + MEASURED, "{} lags", r.id());
        assert_eq!(r.store().digest(), replicas[0].store().digest());
    }
    println!("alloc-budget: {per_put:.1} allocations per put at n = {N} (budget {BUDGET})");
    assert!(
        per_put <= BUDGET,
        "{per_put:.1} allocations per put, over the budget of {BUDGET}"
    );
}
