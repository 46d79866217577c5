//! Wire codecs for the consensus layer: ballots, values, commands, and the
//! [`PaxosMsg`] / [`ConsensusMsg`] / [`LogMsg`] tables.
//!
//! This is what lets [`irs_consensus::ConsensusProcess`] and
//! [`irs_consensus::ReplicatedLog`] deploy over sockets: every message the
//! replicated log exchanges becomes a payload in the same
//! `IR|ver|from|to|len` frame format the Ω codec uses, stated in the same
//! vocabulary (see [`crate::wire`]).
//!
//! # Tag ranges
//!
//! Each transportable enum owns a disjoint leading-tag range, so a frame of
//! one kind fed to another kind's decoder fails with `BadTag` instead of
//! mis-decoding — a stray Ω datagram on a consensus port (or vice versa) is
//! link noise, not a message:
//!
//! ```text
//! OmegaMsg      0x00..=0x02   (crate::wire)
//! ConsensusMsg  0x10..=0x11   Omega | Paxos
//! LogMsg        0x18..=0x1F   Omega | Slot | Forward | Catchup
//!                             | SnapshotOffer | (0x1D retired)
//!                             | SnapshotChunkRequest | SnapshotChunk
//! (irs-svc)     0x20..=0x27   Log | Request | Reply(Applied) | Reply(Redirect)
//!                             | Read | Reply(Value) | LeaseProbe | LeaseAck
//! LogMsg (ext)  0x28..=0x2A   PrepareReign | PromiseReign | AcceptNoting
//!                             (the 0x18 range was full when the reign fast
//!                             path landed)
//! ObsMsg        0x30..=0x31   ScrapeRequest | ScrapeChunk (crate::wire_obs)
//! PaxosMsg      0x00..=0x04   (always nested behind one of the above)
//! ```
//!
//! Each table's [`Tagged`](crate::wire::Tagged) list is generated from the
//! table itself, and `irs-svc`'s
//! `msg::tests::the_tag_registry_is_disjoint_and_0x1d_stays_retired` checks
//! that the five top-level kinds' lists are pairwise disjoint and that
//! `0x1D` is `BadTag` under every one of them — the registry above is a
//! summary of a tested fact.
//!
//! A `LogMsg::Slot` payload carries a [`PaxosMsg`] over [`Batch`] values
//! (`u32` count + elements, bounded by [`MAX_BATCH_LEN`]); a snapshot — an
//! opaque host blob — rides the chunk plane in [`SNAPSHOT_CHUNK_LEN`]-bounded
//! pieces, one frame when it fits one. Tag `0x1D` carried a whole-blob
//! install until every snapshot took the chunk plane; it is *retired*, not
//! free: it decodes to `BadTag`, and a new message must not reuse it while
//! frames of that shape may still sit in a WAL-less peer's socket buffer.
//!
//! Decoders are total (arbitrary bytes decode or fail, never panic) and
//! `valid_for(n)` checks every embedded process id and the embedded Ω
//! message against the deployment size, matching the Omega codec's
//! semantics.

use crate::wire::{
    put_bytes, put_seq, put_u32, put_u64, AtMost, Bytes, Seq, Wire, WireError, WireReader,
};
use irs_consensus::{
    Ballot, Batch, Command, ConsensusMsg, LogMsg, PaxosMsg, Value, MAX_BATCH_LEN, MAX_COMMAND_LEN,
    MAX_SNAPSHOT_CHUNKS, NOTED_MAX, REIGN_REPORT_MAX, SNAPSHOT_CHUNK_LEN,
};
use irs_types::ProcessId;

impl Wire for Value {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Value(r.u64()?))
    }
}

/// A byte command: at most [`MAX_COMMAND_LEN`] bytes. Read from a shared
/// buffer ([`decode_shared`](crate::wire::decode_shared)), it is a range of
/// that buffer; read from borrowed bytes, a copy of them.
impl Wire for Command {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.bytes());
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let bytes = r.bytes(MAX_COMMAND_LEN)?;
        Ok(match r.shared() {
            Some(buf) => Command::shared(buf, r.position() - bytes.len()..r.position()),
            None => Command::new(bytes),
        })
    }
}

/// A slot's batch: one to [`MAX_BATCH_LEN`] values.
impl<V: Wire> Wire for Batch<V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self.iter());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.len_at_most(MAX_BATCH_LEN)? {
            // A slot always decides at least one value.
            0 => Err(WireError::BadLength(0)),
            // The common slot is decoded straight into its shared slice.
            1 => Ok(Batch::one(V::decode(r)?)),
            count => {
                let values = (0..count).map(|_| V::decode(r));
                Ok(Batch::new(values.collect::<Result<_, _>>()?))
            }
        }
    }

    fn valid_for(&self, n: usize) -> bool {
        self.iter().all(|v| v.valid_for(n))
    }
}

impl Wire for Ballot {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.attempt);
        put_u32(buf, self.proposer.as_u32());
    }

    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Ballot::new(r.u64()?, ProcessId::decode(r)?))
    }

    fn valid_for(&self, n: usize) -> bool {
        // Ballot::ZERO carries proposer p1; every real ballot's proposer
        // must be a process of the deployment.
        !self.is_real() || self.proposer.index() < n
    }
}

crate::wire_table! {
    impl<V: Wire> Wire for PaxosMsg<V> {
        TAG_PAXOS_PREPARE = 0x00 => Prepare { b },
        TAG_PAXOS_PROMISE = 0x01 => Promise { b, accepted },
        TAG_PAXOS_ACCEPT = 0x02 => Accept { b, v },
        TAG_PAXOS_ACCEPTED = 0x03 => Accepted { b, v },
        TAG_PAXOS_DECIDE = 0x04 => Decide { v },
    }

    fn valid_for(&self, n: usize) -> bool {
        match self {
            PaxosMsg::Prepare { b } => b.valid_for(n),
            PaxosMsg::Promise { b, accepted } => b.valid_for(n) && accepted.valid_for(n),
            PaxosMsg::Accept { b, v } | PaxosMsg::Accepted { b, v } => {
                b.valid_for(n) && v.valid_for(n)
            }
            PaxosMsg::Decide { v } => v.valid_for(n),
        }
    }
}

crate::wire_table! {
    impl<M: Wire, V: Wire> Wire for ConsensusMsg<M, V> {
        TAG_CONSENSUS_OMEGA = 0x10 => Omega(m),
        TAG_CONSENSUS_PAXOS = 0x11 => Paxos(m),
    }

    fn valid_for(&self, n: usize) -> bool {
        match self {
            ConsensusMsg::Omega(m) => m.valid_for(n),
            ConsensusMsg::Paxos(m) => m.valid_for(n),
        }
    }
}

crate::wire_table! {
    impl<M: Wire, V: Wire> Wire for LogMsg<M, V> {
        TAG_LOG_OMEGA = 0x18 => Omega(m),
        TAG_LOG_SLOT = 0x19 => Slot { slot, msg },
        TAG_LOG_FORWARD = 0x1A => Forward { v },
        TAG_LOG_CATCHUP = 0x1B => Catchup { from },
        TAG_LOG_SNAPSHOT_OFFER = 0x1C => SnapshotOffer { upto },
        // 0x1D is retired: see the tag registry above.
        TAG_LOG_SNAPSHOT_CHUNK_REQUEST = 0x1E => SnapshotChunkRequest { upto, chunk },
        TAG_LOG_SNAPSHOT_CHUNK = 0x1F => SnapshotChunk {
            upto,
            chunk,
            total,
            digest,
            data: Bytes<SNAPSHOT_CHUNK_LEN>,
        },
        TAG_LOG_PREPARE_REIGN = 0x28 => PrepareReign { b, from },
        TAG_LOG_PROMISE_REIGN = 0x29 => PromiseReign {
            b,
            from,
            accepted: Seq<REIGN_REPORT_MAX>,
        },
        TAG_LOG_ACCEPT_NOTING = 0x2A => AcceptNoting {
            slot,
            b,
            v,
            noted_from,
            noted_len: AtMost<NOTED_MAX>,
        },
    }

    fn valid_for(&self, n: usize) -> bool {
        match self {
            LogMsg::Omega(m) => m.valid_for(n),
            LogMsg::Slot { msg, .. } => msg.valid_for(n),
            LogMsg::Forward { v } => v.valid_for(n),
            LogMsg::Catchup { .. }
            | LogMsg::SnapshotOffer { .. }
            | LogMsg::SnapshotChunkRequest { .. } => true,
            LogMsg::SnapshotChunk {
                chunk, total, data, ..
            } => {
                *chunk < *total && *total <= MAX_SNAPSHOT_CHUNKS && data.len() <= SNAPSHOT_CHUNK_LEN
            }
            LogMsg::PrepareReign { b, .. } => b.valid_for(n),
            LogMsg::PromiseReign { b, accepted, .. } => {
                b.valid_for(n)
                    && accepted.len() <= REIGN_REPORT_MAX
                    && accepted.iter().all(|report| report.valid_for(n))
            }
            LogMsg::AcceptNoting {
                b, v, noted_len, ..
            } => b.valid_for(n) && v.valid_for(n) && *noted_len <= NOTED_MAX,
        }
    }
}

// A name the tests below use from this module's scope.
#[cfg(test)]
use std::sync::Arc;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_both, decode_payload, decode_shared};
    use irs_omega::{OmegaMsg, SuspVector};
    use irs_types::RoundNum;
    use proptest::prelude::*;

    type CMsg = ConsensusMsg<OmegaMsg, Value>;
    type LMsg = LogMsg<OmegaMsg, Command>;

    fn roundtrip<M: Wire + PartialEq + std::fmt::Debug>(msg: &M) -> M {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        decode_both(&buf).expect("roundtrip decode")
    }

    fn alive(n: usize) -> OmegaMsg {
        OmegaMsg::Alive {
            rn: RoundNum::new(7),
            susp: SuspVector::from_levels((0..n as u64).collect()),
        }
    }

    // The vendored proptest has no derive or recursive strategy machinery,
    // so messages are built from a flat seed tuple by hand.
    fn paxos_from(seed: u8, attempt: u64, proposer: u32, payload: u64) -> PaxosMsg<Value> {
        let b = Ballot::new(attempt, ProcessId::new(proposer));
        match seed % 5 {
            0 => PaxosMsg::Prepare { b },
            1 => PaxosMsg::Promise {
                b,
                accepted: payload
                    .is_multiple_of(2)
                    .then_some((Ballot::new(attempt / 2, ProcessId::new(proposer / 2)), {
                        Value(payload)
                    })),
            },
            2 => PaxosMsg::Accept {
                b,
                v: Value(payload),
            },
            3 => PaxosMsg::Accepted {
                b,
                v: Value(payload),
            },
            _ => PaxosMsg::Decide { v: Value(payload) },
        }
    }

    fn log_from(seed: u8, slot: u64, bytes: &[u8]) -> LMsg {
        match seed % 10 {
            5 => LogMsg::AcceptNoting {
                slot: slot + 1,
                b: Ballot::for_reign(slot + 1, ProcessId::new(seed as u32 % 4)),
                v: Batch::one(Command::new(bytes.to_vec())),
                noted_from: slot.saturating_sub(seed as u64 % 3),
                noted_len: 1 + seed as u64 % 3,
            },
            8 => LogMsg::PrepareReign {
                b: Ballot::for_reign(slot + 1, ProcessId::new(seed as u32 % 4)),
                from: slot,
            },
            9 => LogMsg::PromiseReign {
                b: Ballot::for_reign(slot + 2, ProcessId::new(seed as u32 % 4)),
                from: slot,
                accepted: (0..(seed as u64 % 3))
                    .map(|i| {
                        (
                            slot + i,
                            Ballot::new(i + 1, ProcessId::new(i as u32)),
                            Batch::one(Command::new(bytes.to_vec())),
                        )
                    })
                    .collect(),
            },
            0 => LogMsg::Omega(alive(4)),
            1 => LogMsg::Slot {
                slot,
                msg: PaxosMsg::Accept {
                    b: Ballot::new(slot + 1, ProcessId::new(seed as u32 % 4)),
                    v: Batch::new(vec![
                        Command::new(bytes.to_vec()),
                        Command::new(vec![seed; 3]),
                    ]),
                },
            },
            2 => LogMsg::Forward {
                v: Command::new(bytes.to_vec()),
            },
            3 => LogMsg::Catchup { from: slot },
            4 => LogMsg::SnapshotOffer { upto: slot },
            6 => LogMsg::SnapshotChunkRequest {
                upto: slot,
                chunk: seed as u32,
            },
            _ => LogMsg::SnapshotChunk {
                upto: slot,
                chunk: seed as u32 % 4,
                total: 4,
                digest: irs_types::Fnv64::digest_of(bytes),
                data: bytes.to_vec().into(),
            },
        }
    }

    #[test]
    fn values_commands_and_ballots_roundtrip() {
        assert_eq!(roundtrip(&Value(0)), Value(0));
        assert_eq!(roundtrip(&Value(u64::MAX)), Value(u64::MAX));
        let cmd = Command::new(vec![0u8, 255, 3, 7]);
        assert_eq!(roundtrip(&cmd), cmd);
        assert_eq!(roundtrip(&Command::default()), Command::default());
        let b = Ballot::new(9, ProcessId::new(3));
        assert_eq!(roundtrip(&b), b);
    }

    #[test]
    fn oversized_command_is_rejected_not_allocated() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert_eq!(
            decode_payload::<Command>(&buf),
            Err(WireError::BadLength(u32::MAX as usize))
        );
    }

    #[test]
    fn every_paxos_variant_roundtrips_under_both_value_domains() {
        for seed in 0..5u8 {
            let msg = paxos_from(seed, 3, 2, 41);
            assert_eq!(roundtrip(&msg), msg, "variant {seed}");
        }
        let cmd_msg: PaxosMsg<Command> = PaxosMsg::Promise {
            b: Ballot::new(2, ProcessId::new(1)),
            accepted: Some((Ballot::new(1, ProcessId::new(0)), Command::new(vec![9; 32]))),
        };
        assert_eq!(roundtrip(&cmd_msg), cmd_msg);
    }

    #[test]
    fn consensus_and_log_wrappers_roundtrip() {
        let omega: CMsg = ConsensusMsg::Omega(alive(5));
        assert_eq!(roundtrip(&omega), omega);
        let paxos: CMsg = ConsensusMsg::Paxos(paxos_from(2, 4, 1, 9));
        assert_eq!(roundtrip(&paxos), paxos);
        for seed in 0..10u8 {
            let msg = log_from(seed, 11, &[1, 2, 3]);
            assert_eq!(roundtrip(&msg), msg, "log variant {seed}");
        }
    }

    #[test]
    fn oversized_reign_reports_are_rejected_not_allocated() {
        let mut buf = vec![TAG_LOG_PROMISE_REIGN];
        Ballot::for_reign(3, ProcessId::new(1)).encode(&mut buf);
        put_u64(&mut buf, 0); // from
        put_u32(&mut buf, (REIGN_REPORT_MAX + 1) as u32);
        assert_eq!(
            decode_payload::<LMsg>(&buf),
            Err(WireError::BadLength(REIGN_REPORT_MAX + 1))
        );
        // valid_for mirrors the decoder bound and checks embedded ids.
        let report = |proposer: u32| {
            (
                4u64,
                Ballot::new(1, ProcessId::new(proposer)),
                Batch::one(Command::default()),
            )
        };
        let promise: LMsg = LogMsg::PromiseReign {
            b: Ballot::for_reign(2, ProcessId::new(1)),
            from: 4,
            accepted: vec![report(7)],
        };
        assert!(promise.valid_for(8));
        assert!(!promise.valid_for(4), "reported ballot id outside n");
        let stray: LMsg = LogMsg::PrepareReign {
            b: Ballot::for_reign(2, ProcessId::new(9)),
            from: 0,
        };
        assert!(stray.valid_for(16));
        assert!(!stray.valid_for(4));
    }

    /// A note's length is read off the wire into a loop bound: the decoder
    /// and `valid_for` both refuse a run longer than `NOTED_MAX`, and
    /// `valid_for` checks the ballot's owner like any `Accept`'s.
    #[test]
    fn accept_noting_bounds_its_note_and_checks_its_ballot() {
        let noting = |proposer: u32, noted_len: u64| -> LMsg {
            LogMsg::AcceptNoting {
                slot: 9,
                b: Ballot::for_reign(2, ProcessId::new(proposer)),
                v: Batch::new(vec![Command::new(vec![5; 7]), Command::default()]),
                noted_from: 5,
                noted_len,
            }
        };
        let widest = noting(3, NOTED_MAX);
        assert_eq!(roundtrip(&widest), widest);
        assert!(widest.valid_for(4));
        assert!(!widest.valid_for(3), "ballot owner outside n");
        assert!(!noting(1, NOTED_MAX + 1).valid_for(4));
        let mut buf = Vec::new();
        noting(1, u64::MAX).encode(&mut buf);
        assert!(matches!(
            decode_payload::<LMsg>(&buf),
            Err(WireError::BadLength(_))
        ));
        // The embedded batch keeps its own bounds.
        let mut buf = vec![TAG_LOG_ACCEPT_NOTING];
        put_u64(&mut buf, 9);
        Ballot::for_reign(2, ProcessId::new(1)).encode(&mut buf);
        put_u32(&mut buf, 0); // an empty batch is not a batch
        assert_eq!(decode_payload::<LMsg>(&buf), Err(WireError::BadLength(0)));
    }

    /// One frozen encoding per `LogMsg` tag: the wire format of every tag
    /// that predates `AcceptNoting` is byte-for-byte what it was, and the new
    /// tag's layout is `slot, b, v, noted_from, noted_len`.
    #[test]
    fn golden_vectors_pin_every_log_tag() {
        fn hex(msg: &LMsg) -> String {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            buf.iter().map(|b| format!("{b:02x}")).collect()
        }
        let b = Ballot::new(0x0102, ProcessId::new(3));
        let cmd = Command::new(vec![0xAA, 0xBB]);
        let golden: [(LMsg, &str); 10] = [
            (
                LogMsg::Omega(OmegaMsg::Alive {
                    rn: RoundNum::new(7),
                    susp: SuspVector::from_levels(vec![1, 2]),
                }),
                "180007000000000000000200000001000000000000000200000000000000",
            ),
            (
                LogMsg::Slot {
                    slot: 5,
                    msg: PaxosMsg::Accept {
                        b,
                        v: Batch::one(cmd.clone()),
                    },
                },
                "190500000000000000020201000000000000030000000100000002000000aabb",
            ),
            (LogMsg::Forward { v: cmd.clone() }, "1a02000000aabb"),
            (LogMsg::Catchup { from: 6 }, "1b0600000000000000"),
            (LogMsg::SnapshotOffer { upto: 7 }, "1c0700000000000000"),
            (
                LogMsg::SnapshotChunkRequest { upto: 9, chunk: 2 },
                "1e090000000000000002000000",
            ),
            (
                LogMsg::SnapshotChunk {
                    upto: 9,
                    chunk: 1,
                    total: 4,
                    digest: 0x1122_3344_5566_7788,
                    data: vec![9u8].into(),
                },
                "1f0900000000000000010000000400000088776655443322110100000009",
            ),
            (
                LogMsg::PrepareReign { b, from: 4 },
                "280201000000000000030000000400000000000000",
            ),
            (
                LogMsg::PromiseReign {
                    b,
                    from: 4,
                    accepted: vec![(4, b, Batch::one(cmd.clone()))],
                },
                "29020100000000000003000000040000000000000001000000\
                 04000000000000000201000000000000030000000100000002000000aabb",
            ),
            (
                LogMsg::AcceptNoting {
                    slot: 5,
                    b,
                    v: Batch::one(cmd),
                    noted_from: 3,
                    noted_len: 2,
                },
                "2a0500000000000000020100000000000003000000\
                 0100000002000000aabb03000000000000000200000000000000",
            ),
        ];
        for (msg, want) in &golden {
            assert_eq!(hex(msg), *want, "{msg:?}");
            assert_eq!(&roundtrip(msg), msg);
        }
    }

    /// One frozen encoding per `ConsensusMsg` and `PaxosMsg` tag, plus a
    /// `Promise` that reports an accepted batch of commands.
    #[test]
    fn golden_vectors_pin_every_consensus_and_paxos_tag() {
        fn hex<M: Wire>(msg: &M) -> String {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            buf.iter().map(|b| format!("{b:02x}")).collect()
        }
        let b = Ballot::new(0x0102, ProcessId::new(3));
        let paxos: [(PaxosMsg<Value>, &str); 5] = [
            (PaxosMsg::Prepare { b }, "00020100000000000003000000"),
            (
                PaxosMsg::Promise { b, accepted: None },
                "0102010000000000000300000000",
            ),
            (
                PaxosMsg::Accept { b, v: Value(5) },
                "020201000000000000030000000500000000000000",
            ),
            (
                PaxosMsg::Accepted { b, v: Value(6) },
                "030201000000000000030000000600000000000000",
            ),
            (PaxosMsg::Decide { v: Value(7) }, "040700000000000000"),
        ];
        for (msg, want) in &paxos {
            assert_eq!(hex(msg), *want, "{msg:?}");
            assert_eq!(&roundtrip(msg), msg);
        }
        let promise: PaxosMsg<Batch<Command>> = PaxosMsg::Promise {
            b,
            accepted: Some((
                Ballot::new(1, ProcessId::new(2)),
                Batch::new(vec![Command::new(vec![0xAA]), Command::default()]),
            )),
        };
        assert_eq!(
            hex(&promise),
            "01020100000000000003000000010100000000000000020000000200000001000000aa00000000"
        );
        assert_eq!(roundtrip(&promise), promise);
        let consensus: [(CMsg, &str); 2] = [
            (
                ConsensusMsg::Omega(OmegaMsg::AliveDelta {
                    rn: RoundNum::new(4),
                    entries: vec![(1, 2)],
                }),
                "1001040000000000000001000000010000000200000000000000",
            ),
            (
                ConsensusMsg::Paxos(PaxosMsg::Decide { v: Value(9) }),
                "11040900000000000000",
            ),
        ];
        for (msg, want) in &consensus {
            assert_eq!(hex(msg), *want, "{msg:?}");
            assert_eq!(&roundtrip(msg), msg);
        }
    }

    /// The largest reign promise an acceptor can legally produce (the
    /// acceptor refuses to report past `REIGN_REPORT_BYTES`, estimated at
    /// ≈ 20 bytes of per-entry overhead plus the batch) must encode within
    /// one wire frame.
    #[test]
    fn a_bound_respecting_reign_report_fits_one_wire_frame() {
        use irs_consensus::{LogValue, REIGN_REPORT_BYTES};
        // Worst case admitted by the byte bound: entries just under the
        // budget. Model it with uniform entries that sum to the cap.
        let per_value = Command::new(vec![7u8; 64]);
        let per_entry = 8 + 12 + Batch::one(per_value.clone()).estimated_size();
        let count = (REIGN_REPORT_BYTES / per_entry).min(REIGN_REPORT_MAX);
        let promise: LMsg = LogMsg::PromiseReign {
            b: Ballot::for_reign(5, ProcessId::new(2)),
            from: 10,
            accepted: (0..count as u64)
                .map(|i| {
                    (
                        10 + i,
                        Ballot::new(i + 1, ProcessId::new((i % 5) as u32)),
                        Batch::one(per_value.clone()),
                    )
                })
                .collect(),
        };
        let mut buf = Vec::new();
        promise.encode(&mut buf);
        assert!(
            buf.len() <= crate::wire::MAX_PAYLOAD,
            "reign report encodes to {} bytes > frame cap",
            buf.len()
        );
        assert_eq!(roundtrip(&promise), promise);
    }

    #[test]
    fn batches_roundtrip_and_reject_bad_counts() {
        let batch = Batch::new(vec![Value(1), Value(u64::MAX)]);
        assert_eq!(roundtrip(&batch), batch);
        let one = Batch::one(Command::new(vec![7u8; 9]));
        assert_eq!(roundtrip(&one), one);
        // A zero count is not a batch (slots always decide ≥ 1 value)…
        let mut buf = Vec::new();
        put_u32(&mut buf, 0);
        assert_eq!(
            decode_payload::<Batch<Value>>(&buf),
            Err(WireError::BadLength(0))
        );
        // …and an oversized count is rejected before allocating.
        let mut buf = Vec::new();
        put_u32(&mut buf, (MAX_BATCH_LEN + 1) as u32);
        assert_eq!(
            decode_payload::<Batch<Value>>(&buf),
            Err(WireError::BadLength(MAX_BATCH_LEN + 1))
        );
    }

    /// The worst batch the leader's byte-budgeted drain can produce —
    /// `MAX_BATCH_BYTES` of max-length commands — must encode inside one
    /// wire frame even when double-carried by a `Promise`.
    #[test]
    fn a_budget_full_batch_fits_one_wire_frame() {
        use irs_consensus::{MAX_BATCH_BYTES, MAX_COMMAND_LEN};
        let per_cmd = 4 + MAX_COMMAND_LEN; // estimated_size of a max command
        let count = MAX_BATCH_BYTES / per_cmd;
        let batch = Batch::new(
            (0..count)
                .map(|i| Command::new(vec![i as u8; MAX_COMMAND_LEN]))
                .collect::<Vec<_>>(),
        );
        let b = Ballot::new(3, ProcessId::new(1));
        let promise: LMsg = LogMsg::Slot {
            slot: 7,
            msg: PaxosMsg::Promise {
                b,
                accepted: Some((b, batch.clone())),
            },
        };
        let mut buf = Vec::new();
        promise.encode(&mut buf);
        assert!(
            buf.len() <= crate::wire::MAX_PAYLOAD,
            "budget-full batch encodes to {} bytes > frame cap",
            buf.len()
        );
        assert_eq!(roundtrip(&promise), promise);
    }

    /// Tag `0x1D` carried the whole-blob install until every snapshot took
    /// the chunk plane. It stays reserved: what was a valid frame of it is
    /// link noise now, whatever follows the tag.
    #[test]
    fn the_retired_install_tag_decodes_to_bad_tag() {
        let golden_install = [
            0x1d, 8, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3, // upto 8, len 3, blob
        ];
        for payload in [&golden_install[..], &golden_install[..1]] {
            assert_eq!(
                decode_payload::<LMsg>(payload),
                Err(WireError::BadTag(0x1D))
            );
        }
    }

    #[test]
    fn oversized_snapshot_chunks_are_rejected_not_allocated() {
        let mut buf = vec![TAG_LOG_SNAPSHOT_CHUNK];
        put_u64(&mut buf, 10); // upto
        put_u32(&mut buf, 0); // chunk
        put_u32(&mut buf, 2); // total
        put_u64(&mut buf, 0); // digest
        put_u32(&mut buf, (SNAPSHOT_CHUNK_LEN + 1) as u32);
        assert_eq!(
            decode_payload::<LMsg>(&buf),
            Err(WireError::BadLength(SNAPSHOT_CHUNK_LEN + 1))
        );
        // Semantic validity: chunk index must sit below a bounded total.
        let data: Arc<[u8]> = vec![7u8; 16].into();
        let chunk: LMsg = LogMsg::SnapshotChunk {
            upto: 10,
            chunk: 1,
            total: 4,
            digest: irs_types::Fnv64::digest_of(&data),
            data: data.clone(),
        };
        assert!(chunk.valid_for(4));
        let out_of_range: LMsg = LogMsg::SnapshotChunk {
            upto: 10,
            chunk: 4,
            total: 4,
            digest: 0,
            data: data.clone(),
        };
        assert!(!out_of_range.valid_for(4));
        let unbounded_total: LMsg = LogMsg::SnapshotChunk {
            upto: 10,
            chunk: 0,
            total: MAX_SNAPSHOT_CHUNKS + 1,
            digest: 0,
            data,
        };
        assert!(!unbounded_total.valid_for(4));
    }

    /// Cross-kind frames are link noise: a payload of one message kind fed
    /// to another kind's decoder must error (the tag ranges are disjoint),
    /// never mis-decode into a plausible message.
    #[test]
    fn cross_kind_payloads_are_rejected() {
        let mut omega_buf = Vec::new();
        alive(4).encode(&mut omega_buf);
        assert!(decode_payload::<CMsg>(&omega_buf).is_err());
        assert!(decode_payload::<LMsg>(&omega_buf).is_err());

        let mut consensus_buf = Vec::new();
        ConsensusMsg::<OmegaMsg, Value>::Paxos(paxos_from(0, 1, 0, 0)).encode(&mut consensus_buf);
        assert!(decode_payload::<OmegaMsg>(&consensus_buf).is_err());
        assert!(decode_payload::<LMsg>(&consensus_buf).is_err());

        let mut log_buf = Vec::new();
        log_from(3, 5, &[]).encode(&mut log_buf);
        assert!(decode_payload::<OmegaMsg>(&log_buf).is_err());
        assert!(decode_payload::<CMsg>(&log_buf).is_err());
    }

    #[test]
    fn valid_for_checks_embedded_ids_and_oracle_sizing() {
        // A ballot whose proposer is outside the deployment.
        let stray: CMsg = ConsensusMsg::Paxos(PaxosMsg::Prepare {
            b: Ballot::new(1, ProcessId::new(9)),
        });
        assert!(stray.valid_for(16));
        assert!(!stray.valid_for(4));
        // Ballot::ZERO inside a Promise is legal for any n.
        let zero: CMsg = ConsensusMsg::Paxos(PaxosMsg::Promise {
            b: Ballot::new(1, ProcessId::new(0)),
            accepted: None,
        });
        assert!(zero.valid_for(1));
        // The embedded Ω message keeps its own sizing semantics.
        let wrapped: LMsg = LogMsg::Omega(alive(8));
        assert!(wrapped.valid_for(8));
        assert!(!wrapped.valid_for(4));
        // A Promise reporting an acceptance from an out-of-range ballot.
        let bad_promise: LMsg = LogMsg::Slot {
            slot: 0,
            msg: PaxosMsg::Promise {
                b: Ballot::new(2, ProcessId::new(0)),
                accepted: Some((
                    Ballot::new(1, ProcessId::new(7)),
                    Batch::one(Command::default()),
                )),
            },
        };
        assert!(bad_promise.valid_for(8));
        assert!(!bad_promise.valid_for(4));
    }

    /// Whether every byte of `cmd` lies inside `frame`.
    fn points_into(cmd: &Command, frame: &Arc<[u8]>) -> bool {
        let (inside, bytes) = (frame.as_ptr_range(), cmd.bytes().as_ptr_range());
        inside.start <= bytes.start && bytes.end <= inside.end
    }

    /// A command decoded from a shared frame is a range of that frame, not
    /// a copy: it points into the frame, holds it, and lets it go when the
    /// message is dropped. From borrowed bytes the same message is a copy.
    #[test]
    fn a_shared_decode_keeps_commands_as_ranges_of_the_frame() {
        let cmds = [Command::new(vec![1u8, 2, 3]), Command::new(vec![4u8; 5])];
        let accept: LMsg = LogMsg::Slot {
            slot: 5,
            msg: PaxosMsg::Accept {
                b: Ballot::new(2, ProcessId::new(1)),
                v: Batch::new(cmds.to_vec()),
            },
        };
        let mut buf = Vec::new();
        accept.encode(&mut buf);
        let frame: Arc<[u8]> = buf.into();
        let decoded: LMsg = decode_shared(&frame).expect("decode");
        assert_eq!(decoded, accept);
        let LogMsg::Slot {
            msg: PaxosMsg::Accept { v, .. },
            ..
        } = &decoded
        else {
            unreachable!("an Accept decodes to an Accept")
        };
        assert!(v.iter().all(|cmd| points_into(cmd, &frame)));
        assert_eq!(Arc::strong_count(&frame), 1 + cmds.len());
        drop(decoded);
        assert_eq!(Arc::strong_count(&frame), 1, "the message let its frame go");
        let copied: LMsg = decode_payload(&frame).expect("decode");
        assert_eq!(copied, accept);
        assert_eq!(Arc::strong_count(&frame), 1, "a borrowed decode copies");
        // A decode that fails after its first command holds nothing either.
        let short: Arc<[u8]> = frame[..frame.len() - 1].into();
        assert_eq!(decode_shared::<LMsg>(&short), Err(WireError::Truncated));
        assert_eq!(Arc::strong_count(&short), 1);
    }

    proptest! {
        /// Random messages, every prefix of their encoding and a one-byte
        /// mutation of it decode through `decode_shared` to the same value,
        /// or the same error, as through `decode_payload`.
        #[test]
        fn shared_and_borrowed_decodes_agree_on_every_frame(
            seed in 0u8..22,
            slot in 0u64..1_000_000,
            bytes in proptest::collection::vec(0u8..255, 0..48),
            at in 0usize..4096,
            flip in 1u8..255,
        ) {
            let mut buf = Vec::new();
            log_from(seed, slot, &bytes).encode(&mut buf);
            for end in 0..=buf.len() {
                let _ = decode_both::<LMsg>(&buf[..end]);
                let _ = decode_both::<PaxosMsg<Batch<Command>>>(&buf[..end]);
            }
            let mut mutated = buf.clone();
            let i = at % mutated.len();
            mutated[i] ^= flip;
            let _ = decode_both::<LMsg>(&mutated);
        }

        /// `encode ∘ decode` is the identity on every consensus/log message
        /// (mirroring the OmegaMsg wire proptest).
        #[test]
        fn random_messages_roundtrip(
            seed in 0u8..22,
            attempt in 0u64..1_000_000,
            proposer in 0u32..64,
            payload in 0u64..u64::MAX,
            slot in 0u64..1_000_000,
            bytes in proptest::collection::vec(0u8..255, 0..64),
        ) {
            let paxos = paxos_from(seed, attempt, proposer, payload);
            prop_assert_eq!(roundtrip(&paxos), paxos.clone());
            let consensus: CMsg = if seed % 2 == 0 {
                ConsensusMsg::Omega(alive(1 + (seed as usize % 8)))
            } else {
                ConsensusMsg::Paxos(paxos)
            };
            prop_assert_eq!(roundtrip(&consensus), consensus);
            let log = log_from(seed, slot, &bytes);
            prop_assert_eq!(roundtrip(&log), log);
        }

        /// Arbitrary bytes never panic any of the new decoders — a socket is
        /// an untrusted input.
        #[test]
        fn random_bytes_never_panic_the_decoders(
            bytes in proptest::collection::vec(0u8..255, 0..96),
        ) {
            let _ = decode_both::<Value>(&bytes);
            let _ = decode_both::<Command>(&bytes);
            let _ = decode_both::<Ballot>(&bytes);
            let _ = decode_both::<Batch<Value>>(&bytes);
            let _ = decode_both::<Batch<Command>>(&bytes);
            let _ = decode_both::<PaxosMsg<Value>>(&bytes);
            let _ = decode_both::<PaxosMsg<Batch<Command>>>(&bytes);
            let _ = decode_both::<CMsg>(&bytes);
            let _ = decode_both::<LMsg>(&bytes);
        }
    }
}
