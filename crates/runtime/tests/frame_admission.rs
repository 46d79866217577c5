//! The admission rule is the one gate in front of a hosted protocol: a
//! frame off a socket is decoded and judged by [`admits`], and on the
//! reactor's co-hosted route a typed message from another process of the
//! shard is judged by the same [`admits`] without bytes. Arbitrary bytes
//! must never panic [`accept_frame_bytes`], whatever it admits must be
//! addressed to the host, come from inside the deployment and be sized for
//! it (`valid_for`) — and for bytes that decode it must say exactly what
//! decoding followed by [`admits`] says, so the two routes cannot disagree.

use irs_consensus::{Ballot, ConsensusMsg, PaxosMsg, Value};
use irs_net::wire::decode_payload;
use irs_net::Wire;
use irs_omega::{OmegaMsg, SuspVector};
use irs_runtime::{accept_frame_bytes, admits};
use irs_types::{ProcessId, ProcessSet, RoundNum};
use proptest::prelude::*;

/// The consensus process's message over the Ω oracle.
type CMsg = ConsensusMsg<OmegaMsg>;

/// A well-formed encoding, the kind it encodes and the system size it was
/// built for: mutating it gives near-misses that random bytes rarely hit.
struct Seed {
    bytes: Vec<u8>,
    consensus: bool,
    n: usize,
}

fn encoded(msg: &impl Wire) -> Vec<u8> {
    let mut bytes = Vec::new();
    msg.encode(&mut bytes);
    bytes
}

/// One message of every Ω kind and every ballot kind, each sized for 3, 5
/// and 8 processes.
fn seeds() -> Vec<Seed> {
    let mut out = Vec::new();
    for n in [3usize, 5, 8] {
        let rn = RoundNum::new(7);
        let mut suspects = ProcessSet::empty(n);
        suspects.insert(ProcessId::new(n as u32 - 1));
        let omega = [
            OmegaMsg::Alive {
                rn,
                susp: SuspVector::from_levels((0..n as u64).collect()),
            },
            OmegaMsg::AliveDelta {
                rn,
                entries: vec![(0, 2), (n as u32 - 1, 4)],
            },
            OmegaMsg::Suspicion { rn, suspects },
        ];
        let b = Ballot::new(3, ProcessId::new(n as u32 - 1));
        let paxos = [
            PaxosMsg::Prepare { b },
            PaxosMsg::Promise {
                b,
                accepted: Some((b, Value(9))),
            },
            PaxosMsg::Accept { b, v: Value(9) },
            PaxosMsg::Accepted { b, v: Value(9) },
            PaxosMsg::Decide { v: Value(9) },
        ];
        for msg in &omega {
            out.push(Seed {
                bytes: encoded(msg),
                consensus: false,
                n,
            });
            out.push(Seed {
                bytes: encoded(&CMsg::Omega(msg.clone())),
                consensus: true,
                n,
            });
        }
        for msg in paxos {
            out.push(Seed {
                bytes: encoded(&CMsg::Paxos(msg)),
                consensus: true,
                n,
            });
        }
    }
    out
}

/// Admits `bytes` as both kinds and checks what comes through.
fn check_admission(bytes: &[u8], from: ProcessId, to: ProcessId, me: ProcessId, n: usize) {
    check_kind::<OmegaMsg>(bytes, from, to, me, n);
    check_kind::<CMsg>(bytes, from, to, me, n);
}

/// Admits `bytes` as an `M`: only what is addressed and sized for the host
/// comes through, and bytes that decode are admitted exactly when the typed
/// rule admits their message.
fn check_kind<M: Wire + PartialEq + std::fmt::Debug>(
    bytes: &[u8],
    from: ProcessId,
    to: ProcessId,
    me: ProcessId,
    n: usize,
) {
    let admitted = accept_frame_bytes::<M>(from, to, bytes, me, n);
    if let Some(msg) = &admitted {
        prop_assert!(
            to == me && from.index() < n,
            "admitted {from} -> {to} at {me}, n = {n}"
        );
        prop_assert!(msg.valid_for(n), "admitted {msg:?} at n = {n}");
    }
    match decode_payload::<M>(bytes) {
        Ok(msg) => {
            let typed = admits(from, to, &msg, me, n).then_some(msg);
            prop_assert_eq!(admitted, typed, "{from} -> {to} at {me}, n = {n}");
        }
        Err(_) => prop_assert!(admitted.is_none(), "admitted undecodable {bytes:?}"),
    }
}

/// The corpus is not vacuous: every seed is admitted as its own kind at the
/// size it was built for, and — naming process `n − 1`, apart from a
/// `Decide` — refused at every smaller size.
#[test]
fn every_seed_is_admitted_at_its_own_size_and_not_below() {
    let p0 = ProcessId::new(0);
    for seed in seeds() {
        for n in [3, 5, 8] {
            let admitted = if seed.consensus {
                accept_frame_bytes::<CMsg>(p0, p0, &seed.bytes, p0, n).is_some()
            } else {
                accept_frame_bytes::<OmegaMsg>(p0, p0, &seed.bytes, p0, n).is_some()
            };
            let decide = seed.bytes[..2] == [0x11, 0x04];
            let context = format!("seed for n = {} at n = {n}: {:?}", seed.n, seed.bytes);
            if n == seed.n {
                assert!(admitted, "refused {context}");
            } else if n < seed.n && !decide {
                assert!(!admitted, "admitted {context}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Random bytes, and seeds with up to three bytes overwritten and the
    /// tail cut anywhere, from random senders to random addressees at
    /// n = 3 and n = 5: admission never panics, and admits only frames
    /// addressed to the host from inside the deployment, sized for it.
    #[test]
    fn arbitrary_bytes_never_panic_admission(
        pick in 0usize..64,
        edits in proptest::collection::vec((0usize..256, 0u8..255), 0..4),
        cut in 0usize..192,
        noise in proptest::collection::vec(0u8..255, 0..96),
        from in 0u32..7,
        to in 0u32..7,
        me in 0u32..7,
        five in 0u32..2,
    ) {
        let seeds = seeds();
        let mut bytes = match seeds.get(pick) {
            Some(seed) => seed.bytes.clone(),
            None => noise,
        };
        for (at, byte) in edits {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] = byte;
            }
        }
        bytes.truncate(cut);
        let n = if five == 1 { 5 } else { 3 };
        let (from, to, me) = (ProcessId::new(from), ProcessId::new(to), ProcessId::new(me));
        check_admission(&bytes, from, to, me, n);
    }
}
