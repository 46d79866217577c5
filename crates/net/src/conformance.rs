//! The backend-agnostic transport conformance suite.
//!
//! Every [`Transport`] backend must pass the same checks; the functions here
//! are generic over the backend so `crates/net/tests/conformance.rs` (and
//! any future backend's tests) instantiate one suite instead of three.
//! Checks panic with a diagnostic on violation — they are test helpers.

use crate::Transport;
use irs_types::ProcessId;
use std::time::Duration;

/// Every endpoint can reach every other endpoint: endpoint `i` sends one
/// uniquely tagged message to every `j ≠ i`, and every endpoint receives
/// exactly its `n − 1` expected messages (any order) within `timeout`.
///
/// # Panics
///
/// Panics if a message is missing, duplicated, mistagged, or from an
/// unexpected sender.
pub fn check_all_pairs_delivery<T: Transport>(endpoints: &mut [T], timeout: Duration) {
    let n = endpoints.len();
    for (i, endpoint) in endpoints.iter_mut().enumerate() {
        for j in 0..n {
            if i != j {
                let payload = [i as u8, j as u8, 0xAB];
                endpoint
                    .send(ProcessId::new(i as u32), ProcessId::new(j as u32), &payload)
                    .expect("send must succeed between live endpoints");
            }
        }
    }
    for (j, endpoint) in endpoints.iter_mut().enumerate() {
        let mut pending: Vec<usize> = (0..n).filter(|&i| i != j).collect();
        while !pending.is_empty() {
            let frame = endpoint
                .recv(timeout)
                .expect("recv must not fail")
                .unwrap_or_else(|| {
                    panic!("endpoint {j} timed out still waiting for senders {pending:?}")
                });
            assert_eq!(frame.to, ProcessId::new(j as u32), "misrouted frame");
            let from = frame.from.index();
            let slot = pending
                .iter()
                .position(|&i| i == from)
                .unwrap_or_else(|| panic!("endpoint {j}: duplicate or unexpected sender {from}"));
            pending.swap_remove(slot);
            assert_eq!(
                &frame.payload[..],
                &[from as u8, j as u8, 0xAB],
                "endpoint {j}: corrupted payload from {from}"
            );
        }
    }
}

/// Under no faults, each link delivers in FIFO order: endpoint 0 sends a
/// numbered sequence to every other endpoint, and every receiver observes
/// its sequence strictly in order.
///
/// Only backends that promise per-link ordering should be run through this
/// check: the in-memory mesh and decorators over it, and UDP on loopback
/// only (one sender thread's datagrams are queued at the receiver in
/// `send_to` order; a routed network promises nothing).
///
/// # Panics
///
/// Panics on a gap, reorder, duplicate or timeout.
pub fn check_per_link_fifo<T: Transport>(endpoints: &mut [T], per_link: u8, timeout: Duration) {
    let n = endpoints.len();
    for seq in 0..per_link {
        for j in 1..n {
            endpoints[0]
                .send(ProcessId::new(0), ProcessId::new(j as u32), &[seq])
                .expect("send must succeed");
        }
    }
    for (j, endpoint) in endpoints.iter_mut().enumerate().skip(1) {
        for expected in 0..per_link {
            let frame = endpoint
                .recv(timeout)
                .expect("recv must not fail")
                .unwrap_or_else(|| panic!("endpoint {j} timed out at sequence {expected}"));
            assert_eq!(
                frame.payload[0], expected,
                "endpoint {j}: out-of-order delivery"
            );
        }
    }
}

/// Runs a fixed send/drain script and returns the delivered-frame trace as
/// `(receiver, sender, payload byte)` triples in delivery order.
///
/// Round `r` of the script: `advance(r)` is called (the hook advances a
/// [`ManualClock`](crate::ManualClock) for fault models), then every
/// endpoint sends the byte `r` to every other endpoint, then every endpoint
/// drains its inbox until a 5 ms window passes with nothing delivered. Two
/// backends (or two runs of one seeded backend) that claim determinism must
/// produce identical traces.
pub fn scripted_trace<T: Transport>(
    endpoints: &mut [T],
    rounds: u8,
    advance: impl Fn(u8),
) -> Vec<(u32, u32, u8)> {
    const QUIET: Duration = Duration::from_millis(5);
    let n = endpoints.len();
    let mut trace = Vec::new();
    for round in 0..rounds {
        advance(round);
        for (i, endpoint) in endpoints.iter_mut().enumerate() {
            for j in 0..n {
                if i != j {
                    endpoint
                        .send(ProcessId::new(i as u32), ProcessId::new(j as u32), &[round])
                        .expect("send must succeed");
                }
            }
        }
        for (j, endpoint) in endpoints.iter_mut().enumerate() {
            while let Some(frame) = endpoint.recv(QUIET).expect("recv") {
                trace.push((j as u32, frame.from.as_u32(), frame.payload[0]));
            }
        }
    }
    trace
}
