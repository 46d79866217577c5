//! The service's wire messages: replica-to-replica log traffic plus the
//! client request/reply protocol, all in one [`Wire`]-encodable enum so a
//! single transport endpoint carries both planes.
//!
//! Tags live in the `0x20..=0x27` range — disjoint from the Ω (`0x00..`)
//! and consensus (`0x10..`/`0x18..`/`0x28..`) ranges, so cross-kind frames
//! die in the decoder as link noise (see `irs_net::wire_consensus`):
//! `0x20` log, `0x21` request, `0x22` applied, `0x23` redirect, `0x24`
//! read, `0x25` value, `0x26` lease probe, `0x27` lease ack.

use crate::command::{MAX_KEY_LEN, MAX_VALUE_LEN};
use irs_consensus::{Command, LogMsg};
use irs_net::wire::{put_u32, put_u64, Wire, WireError, WireReader};
use irs_omega::OmegaMsg;
use irs_types::ProcessId;

/// The log-message type replicas exchange: `Command`-valued slots over the
/// Figure 3 oracle.
pub type ReplicaLogMsg = LogMsg<OmegaMsg, Command>;

const TAG_SVC_LOG: u8 = 0x20;
const TAG_SVC_REQUEST: u8 = 0x21;
const TAG_SVC_REPLY_APPLIED: u8 = 0x22;
const TAG_SVC_REPLY_REDIRECT: u8 = 0x23;
const TAG_SVC_READ: u8 = 0x24;
const TAG_SVC_REPLY_VALUE: u8 = 0x25;
const TAG_SVC_LEASE_PROBE: u8 = 0x26;
const TAG_SVC_LEASE_ACK: u8 = 0x27;

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

impl ReadTier {
    pub(crate) const fn tag(self) -> u8 {
        match self {
            ReadTier::Lease => 0,
            ReadTier::ReadIndex => 1,
            ReadTier::Stale => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(ReadTier::Lease),
            1 => Ok(ReadTier::ReadIndex),
            2 => Ok(ReadTier::Stale),
            other => Err(WireError::BadTag(other)),
        }
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

impl Wire for SvcMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            SvcMsg::Log(m) => {
                buf.push(TAG_SVC_LOG);
                m.encode(buf);
            }
            SvcMsg::Request { cmd } => {
                buf.push(TAG_SVC_REQUEST);
                cmd.encode(buf);
            }
            SvcMsg::Reply(SvcReply::Applied { client, seq, slot }) => {
                buf.push(TAG_SVC_REPLY_APPLIED);
                put_u64(buf, *client);
                put_u64(buf, *seq);
                put_u64(buf, *slot);
            }
            SvcMsg::Reply(SvcReply::Redirect {
                client,
                seq,
                leader,
            }) => {
                buf.push(TAG_SVC_REPLY_REDIRECT);
                put_u64(buf, *client);
                put_u64(buf, *seq);
                put_u32(buf, leader.as_u32());
            }
            SvcMsg::Reply(SvcReply::Value {
                client,
                rid,
                value,
                frontier,
            }) => {
                buf.push(TAG_SVC_REPLY_VALUE);
                put_u64(buf, *client);
                put_u64(buf, *rid);
                put_u64(buf, *frontier);
                match value {
                    Some(v) => {
                        buf.push(1);
                        put_u32(buf, v.len() as u32);
                        buf.extend_from_slice(v);
                    }
                    None => buf.push(0),
                }
            }
            SvcMsg::Read {
                client,
                rid,
                key,
                tier,
            } => {
                buf.push(TAG_SVC_READ);
                put_u64(buf, *client);
                put_u64(buf, *rid);
                buf.push(tier.tag());
                put_u32(buf, key.len() as u32);
                buf.extend_from_slice(key);
            }
            SvcMsg::LeaseProbe { rid } => {
                buf.push(TAG_SVC_LEASE_PROBE);
                put_u64(buf, *rid);
            }
            SvcMsg::LeaseAck { rid, granted } => {
                buf.push(TAG_SVC_LEASE_ACK);
                put_u64(buf, *rid);
                buf.push(u8::from(*granted));
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            TAG_SVC_LOG => Ok(SvcMsg::Log(ReplicaLogMsg::decode(r)?)),
            TAG_SVC_REQUEST => Ok(SvcMsg::Request {
                cmd: Command::decode(r)?,
            }),
            TAG_SVC_REPLY_APPLIED => Ok(SvcMsg::Reply(SvcReply::Applied {
                client: r.u64()?,
                seq: r.u64()?,
                slot: r.u64()?,
            })),
            TAG_SVC_REPLY_REDIRECT => Ok(SvcMsg::Reply(SvcReply::Redirect {
                client: r.u64()?,
                seq: r.u64()?,
                leader: ProcessId::new(r.u32()?),
            })),
            TAG_SVC_REPLY_VALUE => {
                let client = r.u64()?;
                let rid = r.u64()?;
                let frontier = r.u64()?;
                let value = match r.u8()? {
                    0 => None,
                    1 => {
                        let len = r.u32()? as usize;
                        if len > MAX_VALUE_LEN {
                            return Err(WireError::BadLength(len));
                        }
                        Some(r.take(len)?.to_vec())
                    }
                    other => return Err(WireError::BadTag(other)),
                };
                Ok(SvcMsg::Reply(SvcReply::Value {
                    client,
                    rid,
                    value,
                    frontier,
                }))
            }
            TAG_SVC_READ => {
                let client = r.u64()?;
                let rid = r.u64()?;
                let tier = ReadTier::from_tag(r.u8()?)?;
                let len = r.u32()? as usize;
                if len > MAX_KEY_LEN {
                    return Err(WireError::BadLength(len));
                }
                Ok(SvcMsg::Read {
                    client,
                    rid,
                    key: r.take(len)?.to_vec(),
                    tier,
                })
            }
            TAG_SVC_LEASE_PROBE => Ok(SvcMsg::LeaseProbe { rid: r.u64()? }),
            TAG_SVC_LEASE_ACK => {
                let rid = r.u64()?;
                let granted = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(WireError::BadTag(other)),
                };
                Ok(SvcMsg::LeaseAck { rid, granted })
            }
            other => Err(WireError::BadTag(other)),
        }
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
}
