//! The service's wire messages: replica-to-replica log traffic plus the
//! client request/reply protocol, all in one [`Wire`]-encodable enum so a
//! single transport endpoint carries both planes.
//!
//! Tags live in the `0x20..=0x27` range — disjoint from the Ω (`0x00..`)
//! and consensus (`0x10..`/`0x18..`/`0x28..`) ranges, so cross-kind frames
//! die in the decoder as link noise (see the registry in
//! `irs_net::wire_consensus`, checked by this module's tests).

use crate::command::{MAX_KEY_LEN, MAX_VALUE_LEN};
use irs_consensus::{Command, LogMsg};
use irs_net::wire::{Bytes, Opt, Wire};
use irs_omega::OmegaMsg;
use irs_types::ProcessId;

/// The log-message type replicas exchange: `Command`-valued slots over the
/// Figure 3 oracle.
pub type ReplicaLogMsg = LogMsg<OmegaMsg, Command>;

/// The consistency level a client selects per read.
///
/// The three tiers trade latency for guarantee strength — the stable-reign
/// exploitation the paper's Ω construction pays for:
///
/// * [`ReadTier::Lease`] — linearizable, served by the leader from local
///   state while its quorum-refreshed lease is live; zero messages on the
///   read path. Falls back to a read-index round when the lease is
///   uncertain.
/// * [`ReadTier::ReadIndex`] — linearizable, always: the leader confirms
///   its leadership with a quorum round *started after the read arrived*
///   and waits for the apply frontier to cover the read index.
/// * [`ReadTier::Stale`] — sequentially consistent per replica: any
///   replica answers from its applied prefix immediately. Staleness is
///   bounded by the apply frontier — the answer reflects a decided prefix,
///   never an unacked in-flight write. A follower learns a decision from
///   the leader's `Decide`, one hop after the leader could ack it, so a
///   follower's answer may miss a write whose ack the client already holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadTier {
    /// Leader-local read under a live quorum lease.
    Lease,
    /// Quorum-confirmed read (leadership check + frontier wait).
    ReadIndex,
    /// Any replica's applied prefix, no coordination.
    Stale,
}

irs_net::wire_table! {
    impl Wire for ReadTier {
        TAG_TIER_LEASE = 0 => Lease,
        TAG_TIER_READ_INDEX = 1 => ReadIndex,
        TAG_TIER_STALE = 2 => Stale,
    }
}

/// A reply from a replica to a client.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SvcReply {
    /// The write is decided and applied at the answering replica.
    Applied {
        /// The client the write belongs to.
        client: u64,
        /// The client's sequence number.
        seq: u64,
        /// The log slot the write was decided in.
        slot: u64,
    },
    /// The answering replica is not the leader; try `leader`.
    Redirect {
        /// The client the request belonged to.
        client: u64,
        /// The client's sequence number.
        seq: u64,
        /// The replica's current Ω leader output.
        leader: ProcessId,
    },
    /// The answer to a [`SvcMsg::Read`].
    Value {
        /// The client the read belongs to.
        client: u64,
        /// The client's read id (its sequence number).
        rid: u64,
        /// The bound value, or `None` when the key is unbound.
        value: Option<Vec<u8>>,
        /// The answering replica's apply frontier when it served the read
        /// — the staleness witness: the answer reflects exactly the
        /// decided prefix below this slot.
        frontier: u64,
    },
}

/// One frame payload of the service plane.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SvcMsg {
    /// Replica-to-replica traffic of the replicated log (oracle gossip,
    /// ballots, forwards, catch-up).
    Log(ReplicaLogMsg),
    /// A client's write request (an encoded [`crate::KvWrite`]).
    Request {
        /// The encoded command.
        cmd: Command,
    },
    /// A replica's reply to a client.
    Reply(SvcReply),
    /// A client's read request. Reads are never logged — they are served
    /// from applied state under the tier's guarantee.
    Read {
        /// The issuing client's id.
        client: u64,
        /// The client's read id (drawn from its sequence space).
        rid: u64,
        /// The key to read.
        key: Vec<u8>,
        /// The consistency tier the client selected.
        tier: ReadTier,
    },
    /// Leader → replicas: one round of the lease/read-index probe. A
    /// quorum of granted acks for round `rid` refreshes the leader's
    /// lease and confirms its leadership for queued read-index reads.
    LeaseProbe {
        /// The probe round (monotone per leader incarnation).
        rid: u64,
    },
    /// Replica → leader: the answer to a [`SvcMsg::LeaseProbe`].
    /// `granted` is true only when the answering replica's Ω output names
    /// the probing leader and no unexpired grant to a different leader is
    /// outstanding.
    LeaseAck {
        /// The probe round being answered.
        rid: u64,
        /// Whether the grant window was (re)opened for the prober.
        granted: bool,
    },
}

irs_net::wire_table! {
    impl Wire for SvcMsg {
        TAG_SVC_LOG = 0x20 => Log(m),
        TAG_SVC_REQUEST = 0x21 => Request { cmd },
        TAG_SVC_REPLY_APPLIED = 0x22 => Reply(SvcReply::Applied { client, seq, slot }),
        TAG_SVC_REPLY_REDIRECT = 0x23 => Reply(SvcReply::Redirect { client, seq, leader }),
        TAG_SVC_READ = 0x24 => Read { client, rid, tier, key: Bytes<MAX_KEY_LEN> },
        TAG_SVC_REPLY_VALUE = 0x25 => Reply(SvcReply::Value {
            client,
            rid,
            frontier,
            value: Opt<Bytes<MAX_VALUE_LEN>>,
        }),
        TAG_SVC_LEASE_PROBE = 0x26 => LeaseProbe { rid },
        TAG_SVC_LEASE_ACK = 0x27 => LeaseAck { rid, granted },
    }

    fn valid_for(&self, n: usize) -> bool {
        match self {
            SvcMsg::Log(m) => m.valid_for(n),
            // A request's command is validated (parsed) by the replica; a
            // redirect must name a replica of this deployment.
            SvcMsg::Request { .. } => true,
            SvcMsg::Reply(SvcReply::Redirect { leader, .. }) => leader.index() < n,
            SvcMsg::Reply(SvcReply::Applied { .. }) => true,
            SvcMsg::Reply(SvcReply::Value { value, .. }) => {
                value.as_ref().is_none_or(|v| v.len() <= MAX_VALUE_LEN)
            }
            SvcMsg::Read { key, .. } => key.len() <= MAX_KEY_LEN,
            SvcMsg::LeaseProbe { .. } | SvcMsg::LeaseAck { .. } => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{KvOp, KvWrite};
    use irs_net::wire::decode_payload;

    fn roundtrip(msg: &SvcMsg) -> SvcMsg {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        decode_payload(&buf).expect("roundtrip decode")
    }

    #[test]
    fn every_variant_roundtrips() {
        let cmd = KvWrite {
            client: 8,
            seq: 3,
            op: KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
        }
        .encode();
        for msg in [
            SvcMsg::Log(LogMsg::Catchup { from: 7 }),
            SvcMsg::Log(LogMsg::Forward { v: cmd.clone() }),
            SvcMsg::Log(LogMsg::Slot {
                slot: 4,
                msg: irs_consensus::PaxosMsg::Decide {
                    v: irs_consensus::Batch::new(vec![cmd.clone(), cmd.clone()]),
                },
            }),
            SvcMsg::Log(LogMsg::SnapshotOffer { upto: 9 }),
            SvcMsg::Log(LogMsg::SnapshotChunk {
                upto: 9,
                chunk: 0,
                total: 1,
                digest: irs_types::Fnv64::digest_of(&[1, 2, 3]),
                data: vec![1u8, 2, 3].into(),
            }),
            SvcMsg::Request { cmd },
            SvcMsg::Reply(SvcReply::Applied {
                client: 8,
                seq: 3,
                slot: 11,
            }),
            SvcMsg::Reply(SvcReply::Redirect {
                client: 8,
                seq: 3,
                leader: ProcessId::new(2),
            }),
            SvcMsg::Reply(SvcReply::Value {
                client: 8,
                rid: 4,
                value: Some(b"v".to_vec()),
                frontier: 17,
            }),
            SvcMsg::Reply(SvcReply::Value {
                client: 8,
                rid: 5,
                value: None,
                frontier: 0,
            }),
            SvcMsg::Read {
                client: 8,
                rid: 6,
                key: b"k".to_vec(),
                tier: ReadTier::Lease,
            },
            SvcMsg::Read {
                client: 8,
                rid: 7,
                key: vec![],
                tier: ReadTier::ReadIndex,
            },
            SvcMsg::Read {
                client: 8,
                rid: 8,
                key: b"kk".to_vec(),
                tier: ReadTier::Stale,
            },
            SvcMsg::LeaseProbe { rid: 9 },
            SvcMsg::LeaseAck {
                rid: 9,
                granted: true,
            },
            SvcMsg::LeaseAck {
                rid: 10,
                granted: false,
            },
        ] {
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    /// One frozen encoding per `SvcMsg` tag, the value reply both bound and
    /// unbound.
    #[test]
    fn golden_vectors_pin_every_svc_tag() {
        let cmd = Command::new(vec![0xAA, 0xBB]);
        let golden: [(SvcMsg, &str); 9] = [
            (
                SvcMsg::Log(LogMsg::Catchup { from: 6 }),
                "201b0600000000000000",
            ),
            (SvcMsg::Request { cmd }, "2102000000aabb"),
            (
                SvcMsg::Reply(SvcReply::Applied {
                    client: 1,
                    seq: 2,
                    slot: 3,
                }),
                "22010000000000000002000000000000000300000000000000",
            ),
            (
                SvcMsg::Reply(SvcReply::Redirect {
                    client: 1,
                    seq: 2,
                    leader: ProcessId::new(4),
                }),
                "230100000000000000020000000000000004000000",
            ),
            (
                SvcMsg::Read {
                    client: 1,
                    rid: 5,
                    key: b"k".to_vec(),
                    tier: ReadTier::ReadIndex,
                },
                "240100000000000000050000000000000001010000006b",
            ),
            (
                SvcMsg::Reply(SvcReply::Value {
                    client: 1,
                    rid: 5,
                    value: None,
                    frontier: 7,
                }),
                "2501000000000000000500000000000000070000000000000000",
            ),
            (
                SvcMsg::Reply(SvcReply::Value {
                    client: 1,
                    rid: 5,
                    value: Some(b"v".to_vec()),
                    frontier: 7,
                }),
                "25010000000000000005000000000000000700000000000000010100000076",
            ),
            (SvcMsg::LeaseProbe { rid: 8 }, "260800000000000000"),
            (
                SvcMsg::LeaseAck {
                    rid: 8,
                    granted: true,
                },
                "27080000000000000001",
            ),
        ];
        for (msg, want) in &golden {
            let mut buf = Vec::new();
            msg.encode(&mut buf);
            let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, *want, "{msg:?}");
            assert_eq!(&roundtrip(msg), msg);
        }
    }

    /// The read-plane decoders bound untrusted lengths and reject
    /// out-of-range tier/flag bytes instead of guessing.
    #[test]
    fn read_plane_decoders_reject_malformed_frames() {
        // A Read whose declared key length exceeds the service cap.
        let mut buf = Vec::new();
        SvcMsg::Read {
            client: 1,
            rid: 1,
            key: vec![b'k'; 4],
            tier: ReadTier::Lease,
        }
        .encode(&mut buf);
        let key_len_at = 1 + 8 + 8 + 1;
        buf[key_len_at..key_len_at + 4]
            .copy_from_slice(&(crate::command::MAX_KEY_LEN as u32 + 1).to_le_bytes());
        assert!(decode_payload::<SvcMsg>(&buf).is_err());
        // An unknown tier tag.
        let mut buf = Vec::new();
        SvcMsg::Read {
            client: 1,
            rid: 1,
            key: vec![],
            tier: ReadTier::Stale,
        }
        .encode(&mut buf);
        buf[1 + 8 + 8] = 3;
        assert!(decode_payload::<SvcMsg>(&buf).is_err());
        // A lease ack whose granted flag is neither 0 nor 1.
        let mut buf = Vec::new();
        SvcMsg::LeaseAck {
            rid: 1,
            granted: true,
        }
        .encode(&mut buf);
        *buf.last_mut().unwrap() = 2;
        assert!(decode_payload::<SvcMsg>(&buf).is_err());
        // An oversized declared value length in a Value reply.
        let mut buf = Vec::new();
        SvcMsg::Reply(SvcReply::Value {
            client: 1,
            rid: 1,
            value: Some(vec![0u8; 4]),
            frontier: 0,
        })
        .encode(&mut buf);
        let value_len_at = 1 + 8 + 8 + 8 + 1;
        buf[value_len_at..value_len_at + 4]
            .copy_from_slice(&(crate::command::MAX_VALUE_LEN as u32 + 1).to_le_bytes());
        assert!(decode_payload::<SvcMsg>(&buf).is_err());
    }

    /// Oversized keys and values fail `valid_for` even when hand-built
    /// (the frame-acceptance policy runs it on every decoded frame).
    #[test]
    fn valid_for_bounds_read_plane_lengths() {
        let long_key = SvcMsg::Read {
            client: 1,
            rid: 1,
            key: vec![0u8; crate::command::MAX_KEY_LEN + 1],
            tier: ReadTier::Lease,
        };
        assert!(!long_key.valid_for(3));
        let long_value = SvcMsg::Reply(SvcReply::Value {
            client: 1,
            rid: 1,
            value: Some(vec![0u8; crate::command::MAX_VALUE_LEN + 1]),
            frontier: 0,
        });
        assert!(!long_value.valid_for(3));
        assert!(SvcMsg::LeaseProbe { rid: 1 }.valid_for(3));
    }

    #[test]
    fn cross_kind_frames_are_rejected() {
        let mut omega = Vec::new();
        OmegaMsg::Alive {
            rn: irs_types::RoundNum::new(1),
            susp: irs_omega::SuspVector::new(4),
        }
        .encode(&mut omega);
        assert!(decode_payload::<SvcMsg>(&omega).is_err());
        let mut svc = Vec::new();
        SvcMsg::Log(LogMsg::Catchup { from: 0 }).encode(&mut svc);
        assert!(decode_payload::<OmegaMsg>(&svc).is_err());
        assert!(decode_payload::<ReplicaLogMsg>(&svc).is_err());
    }

    #[test]
    fn valid_for_checks_embedded_ids() {
        let redirect = SvcMsg::Reply(SvcReply::Redirect {
            client: 1,
            seq: 1,
            leader: ProcessId::new(7),
        });
        assert!(redirect.valid_for(8));
        assert!(!redirect.valid_for(4));
    }

    /// The registry in `irs_net::wire_consensus`, as a checked fact: the
    /// five top-level kinds' leading tags, each list generated from its
    /// table, are pairwise disjoint, and the retired `0x1D` is `BadTag`
    /// under every one of them.
    #[test]
    fn the_tag_registry_is_disjoint_and_0x1d_stays_retired() {
        use irs_net::wire::{Tagged, WireError};
        use irs_net::ObsMsg;
        type Consensus = irs_consensus::ConsensusMsg<OmegaMsg, Command>;
        let kinds: [(&str, &[u8]); 5] = [
            ("OmegaMsg", OmegaMsg::TAGS),
            ("ConsensusMsg", Consensus::TAGS),
            ("LogMsg", ReplicaLogMsg::TAGS),
            ("SvcMsg", SvcMsg::TAGS),
            ("ObsMsg", ObsMsg::TAGS),
        ];
        for (i, (a, tags)) in kinds.iter().enumerate() {
            assert!(!tags.contains(&0x1D), "{a} reuses the retired 0x1D");
            for (b, others) in &kinds[i + 1..] {
                let shared: Vec<_> = tags.iter().filter(|t| others.contains(t)).collect();
                assert!(shared.is_empty(), "{a} and {b} share {shared:x?}");
            }
        }
        // A whole-blob install as it was framed (upto 8, len 3, blob): long
        // enough that Ω's decoder reads its round number and reaches the tag.
        let install = [0x1D, 8, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3];
        let retired = Err(WireError::BadTag(0x1D));
        assert_eq!(decode_payload::<OmegaMsg>(&install).map(drop), retired);
        assert_eq!(decode_payload::<Consensus>(&install).map(drop), retired);
        assert_eq!(decode_payload::<ReplicaLogMsg>(&install).map(drop), retired);
        assert_eq!(decode_payload::<SvcMsg>(&install).map(drop), retired);
        assert_eq!(decode_payload::<ObsMsg>(&install).map(drop), retired);
    }

    /// Well-formed messages the datagram proptest mutates, so its inputs
    /// reach past the tag into every field codec.
    fn samples(n: usize) -> Vec<SvcMsg> {
        let cmd = KvWrite {
            client: 9,
            seq: 2,
            op: KvOp::Put {
                key: b"key".to_vec(),
                value: b"value".to_vec(),
            },
        }
        .encode();
        vec![
            SvcMsg::Log(LogMsg::Omega(OmegaMsg::Alive {
                rn: irs_types::RoundNum::new(3),
                susp: irs_omega::SuspVector::new(n),
            })),
            SvcMsg::Log(LogMsg::Slot {
                slot: 4,
                msg: irs_consensus::PaxosMsg::Promise {
                    b: irs_consensus::Ballot::new(2, ProcessId::new(1)),
                    accepted: Some((
                        irs_consensus::Ballot::new(1, ProcessId::new(2)),
                        irs_consensus::Batch::new(vec![cmd.clone(), cmd.clone()]),
                    )),
                },
            }),
            SvcMsg::Request { cmd },
            SvcMsg::Read {
                client: 7,
                rid: 1,
                key: b"key".to_vec(),
                tier: ReadTier::Stale,
            },
            SvcMsg::Reply(SvcReply::Value {
                client: 7,
                rid: 1,
                value: Some(b"value".to_vec()),
                frontier: 3,
            }),
            SvcMsg::LeaseAck {
                rid: 5,
                granted: false,
            },
        ]
    }

    proptest::proptest! {
        /// Arbitrary bytes never panic the service decoder: it is what
        /// every replica and client port decodes.
        #[test]
        fn random_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..255, 0..96),
        ) {
            let _ = decode_payload::<SvcMsg>(&bytes);
        }

        /// Whole datagrams through the admission policy at n = 3 and n = 5:
        /// random bytes, and random, mutated or truncated payloads behind a
        /// valid header, go through `decode_frame` → `accept_svc_frame`
        /// without a panic, and whatever is admitted is valid for `n`.
        #[test]
        fn random_datagrams_never_panic_admission(
            raw in proptest::collection::vec(0u8..255, 0..96),
            body in proptest::collection::vec(0u8..255, 0..64),
            tag in 0x20u8..0x28,
            from in 0u32..8,
            to in 0u32..6,
            pick in 0usize..6,
            at in 0usize..256,
            byte in 0u8..255,
            keep in 0usize..256,
        ) {
            use irs_net::wire::{decode_frame, encode_frame};
            for n in [3, 5] {
                let mut mutated = Vec::new();
                samples(n)[pick].encode(&mut mutated);
                let at = at % mutated.len();
                mutated[at] = byte;
                mutated.truncate(keep.max(at + 1));
                let mut datagrams = vec![raw.clone()];
                for payload in [[&[tag][..], &body].concat(), mutated] {
                    let mut frame = Vec::new();
                    encode_frame(&mut frame, ProcessId::new(from), ProcessId::new(to), &payload);
                    datagrams.push(frame);
                }
                for datagram in &datagrams {
                    let Ok((from, to, payload)) = decode_frame(datagram) else {
                        continue;
                    };
                    let frame = irs_net::Frame { from, to, payload: payload.into() };
                    if let Some(msg) = crate::node::accept_svc_frame(&frame, to, n, n + 3) {
                        proptest::prop_assert!(msg.valid_for(n), "admitted {msg:?} at n = {n}");
                    }
                }
            }
        }
    }
}
