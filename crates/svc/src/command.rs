//! The key-value command encoding: what a log entry's [`Command`] bytes
//! mean to the service.
//!
//! A [`KvWrite`] is a `(client, seq)` header plus a [`KvOp`]. The header is
//! the exactly-once handle: replicas apply entries in log order and skip an
//! entry whose `seq` is not greater than the client's last applied one, so
//! a client retry that lands in the log twice mutates the store once. The
//! encoding is stated in the wire layer's vocabulary (`irs_net::wire`:
//! LE ints, length-prefixed bytes, a [`KvOp`] table) and the decoder is
//! total — a command is untrusted input the moment it crosses a socket.

use irs_consensus::{Command, MAX_COMMAND_LEN};
use irs_net::wire::{decode_payload, Bytes, Wire, WireReader};

/// Header (client u64 + seq u64) plus op tag.
const HEADER_LEN: usize = 8 + 8 + 1;

/// Longest key the service accepts.
pub const MAX_KEY_LEN: usize = 128;
/// Longest value the service accepts (bounded so a whole encoded write fits
/// [`MAX_COMMAND_LEN`] with room to spare).
pub const MAX_VALUE_LEN: usize = MAX_COMMAND_LEN - HEADER_LEN - MAX_KEY_LEN - 8;

/// One key-value operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KvOp {
    /// Bind `key` to `value`.
    Put {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Remove `key`.
    Del {
        /// The key.
        key: Vec<u8>,
    },
}

irs_net::wire_table! {
    impl Wire for KvOp {
        TAG_PUT = 0 => Put { key: Bytes<MAX_KEY_LEN>, value: Bytes<MAX_VALUE_LEN> },
        TAG_DEL = 1 => Del { key: Bytes<MAX_KEY_LEN> },
    }
}

impl KvOp {
    /// The key the operation touches.
    pub fn key(&self) -> &[u8] {
        match self {
            KvOp::Put { key, .. } | KvOp::Del { key } => key,
        }
    }
}

/// A client write: the unit the replicated log orders and the store applies.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KvWrite {
    /// The issuing client's id (its transport endpoint id).
    pub client: u64,
    /// The client's sequence number (strictly increasing per client).
    pub seq: u64,
    /// The operation.
    pub op: KvOp,
}

impl KvWrite {
    /// Encodes the write into a log [`Command`].
    ///
    /// # Panics
    ///
    /// Panics if the key or value exceeds `MAX_KEY_LEN` (128 bytes) /
    /// `MAX_VALUE_LEN` — the client library checks at the API boundary.
    pub fn encode(&self) -> Command {
        let KvView { key, value, .. } = self.view();
        assert!(key.len() <= MAX_KEY_LEN, "key too long");
        assert!(
            value.is_none_or(|v| v.len() <= MAX_VALUE_LEN),
            "value too long"
        );
        // The header, the key's length and bytes, then the value's.
        let len = HEADER_LEN + 4 + key.len() + value.map_or(0, |v| 4 + v.len());
        let mut buf = Vec::with_capacity(len);
        self.client.encode(&mut buf);
        self.seq.encode(&mut buf);
        self.op.encode(&mut buf);
        Command::new(buf)
    }

    /// Decodes a log command back into a write. Returns `None` on any
    /// malformed input (never panics).
    pub fn decode(cmd: &Command) -> Option<KvWrite> {
        let (client, seq, op) = decode_payload(cmd.bytes()).ok()?;
        Some(KvWrite { client, seq, op })
    }

    /// The write as a borrowed [`KvView`].
    pub fn view(&self) -> KvView<'_> {
        let (key, value) = match &self.op {
            KvOp::Put { key, value } => (key, Some(value.as_slice())),
            KvOp::Del { key } => (key, None),
        };
        KvView {
            client: self.client,
            seq: self.seq,
            key,
            value,
        }
    }
}

/// A write read in place from its command bytes: what a replica applies,
/// so a decided write reaches the store without an owned copy of its key
/// and value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KvView<'a> {
    /// The issuing client's id.
    pub client: u64,
    /// The client's sequence number.
    pub seq: u64,
    /// The key.
    pub key: &'a [u8],
    /// The value a put binds; `None` for a delete.
    pub value: Option<&'a [u8]>,
}

impl<'a> KvView<'a> {
    /// Reads a command's bytes with [`KvWrite::decode`]'s bounds and its
    /// refusal of trailing bytes: `Some` exactly when `decode` is, with the
    /// same fields. Returns `None` on any malformed input (never panics).
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        let mut r = WireReader::new(bytes);
        let (client, seq, tag) = (r.u64().ok()?, r.u64().ok()?, r.u8().ok()?);
        let (key, value) = match tag {
            TAG_PUT => (
                r.bytes(MAX_KEY_LEN).ok()?,
                Some(r.bytes(MAX_VALUE_LEN).ok()?),
            ),
            TAG_DEL => (r.bytes(MAX_KEY_LEN).ok()?, None),
            _ => return None,
        };
        r.finish().ok()?;
        Some(KvView {
            client,
            seq,
            key,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn writes_roundtrip() {
        let put = KvWrite {
            client: 9,
            seq: 4,
            op: KvOp::Put {
                key: b"k1".to_vec(),
                value: vec![0, 1, 2, 255],
            },
        };
        assert_eq!(KvWrite::decode(&put.encode()), Some(put.clone()));
        assert_eq!(KvView::parse(put.encode().bytes()), Some(put.view()));
        let del = KvWrite {
            client: 1,
            seq: u64::MAX,
            op: KvOp::Del { key: vec![] },
        };
        assert_eq!(KvWrite::decode(&del.encode()), Some(del));
        assert_eq!(put.op.key(), b"k1");
    }

    /// One frozen encoding per op tag.
    #[test]
    fn golden_vectors_pin_put_and_del() {
        let golden = [
            (
                KvWrite {
                    client: 9,
                    seq: 4,
                    op: KvOp::Put {
                        key: b"k".to_vec(),
                        value: vec![0xAB, 0xCD],
                    },
                },
                "0900000000000000040000000000000000010000006b02000000abcd",
            ),
            (
                KvWrite {
                    client: 1,
                    seq: 2,
                    op: KvOp::Del {
                        key: b"kk".to_vec(),
                    },
                },
                "0100000000000000020000000000000001020000006b6b",
            ),
        ];
        for (w, want) in golden {
            let cmd = w.encode();
            let hex: String = cmd.bytes().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "{w:?}");
            assert_eq!(KvWrite::decode(&cmd), Some(w));
        }
    }

    #[test]
    fn garbage_commands_decode_to_none() {
        assert_eq!(KvWrite::decode(&Command::default()), None);
        assert_eq!(KvWrite::decode(&Command::new(vec![1u8; 10])), None);
        // A valid write with trailing junk is rejected.
        let w = KvWrite {
            client: 0,
            seq: 0,
            op: KvOp::Del { key: b"k".to_vec() },
        };
        let mut bytes = w.encode().bytes().to_vec();
        bytes.push(0);
        assert_eq!(KvWrite::decode(&Command::new(bytes)), None);
        // An impossible embedded length is rejected.
        let mut bad = w.encode().bytes().to_vec();
        let key_len_at = 8 + 8 + 1;
        bad[key_len_at..key_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(KvWrite::decode(&Command::new(bad)), None);
    }

    proptest! {
        #[test]
        fn random_writes_roundtrip(
            client in 0u64..1_000,
            seq in 0u64..1_000_000,
            key in proptest::collection::vec(0u8..255, 0..64),
            value in proptest::collection::vec(0u8..255, 0..128),
            del in 0u8..2,
        ) {
            let op = if del == 1 {
                KvOp::Del { key: key.clone() }
            } else {
                KvOp::Put { key: key.clone(), value: value.clone() }
            };
            let w = KvWrite { client, seq, op };
            prop_assert_eq!(KvWrite::decode(&w.encode()), Some(w));
        }

        #[test]
        fn random_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(0u8..255, 0..80),
        ) {
            let _ = KvWrite::decode(&Command::new(bytes));
        }

        /// The borrowed parse accepts exactly what the owned decode accepts
        /// and reads the same fields: over encoded writes, and over those
        /// writes cut short, extended, or with one byte changed.
        #[test]
        fn the_view_parses_exactly_what_decode_decodes(
            client in 0u64..1_000,
            key in proptest::collection::vec(0u8..255, 0..40),
            value in proptest::collection::vec(0u8..255, 0..40),
            del in 0u8..2,
            edit in 0usize..3,
            at in 0usize..1_000,
            byte in 0u8..255,
        ) {
            let op = if del == 1 {
                KvOp::Del { key }
            } else {
                KvOp::Put { key, value }
            };
            let w = KvWrite { client, seq: client * 7, op };
            let mut bytes = w.encode().bytes().to_vec();
            match edit {
                0 => bytes.truncate(at % (bytes.len() + 1)),
                1 => bytes.push(byte),
                _ => {
                    let i = at % bytes.len();
                    bytes[i] = byte;
                }
            }
            let owned = KvWrite::decode(&Command::new(bytes.clone()));
            let view = KvView::parse(&bytes);
            prop_assert_eq!(view, owned.as_ref().map(KvWrite::view));
        }
    }
}
