//! The hand-rolled wire format, and the one vocabulary every byte format of
//! the stack is stated in.
//!
//! Nothing in the container this workspace builds in provides `serde` or
//! `bincode`, so framing is done by hand, bincode-style: fixed-width
//! little-endian integers, `u32`-length-prefixed sequences, a one-byte tag
//! per enum variant, no padding, no self-description. A frame is:
//!
//! ```text
//! frame    := magic(2) version(1) from(4) to(4) len(4) payload(len)
//! magic    := 0x49 0x52                  ("IR")
//! version  := 0x01
//! from,to  := u32 LE (zero-based ProcessId)
//! len      := u32 LE, length of payload in bytes
//! ```
//!
//! The payload is an encoded protocol message ([`Wire`]). Each message kind
//! states its layout once, as a [`wire_table!`](crate::wire_table) table —
//! `TAG = byte => Variant { field, … }`, fields in wire order, a bound next
//! to each field that has one — and the table generates the tag constants,
//! `encode`, `decode` and the kind's [`Tagged`] list. The tables are:
//!
//! * `OmegaMsg` (the paper's `ALIVE` and `SUSPICION`) — below;
//! * `PaxosMsg`, `ConsensusMsg`, `LogMsg`, and the registry of every kind's
//!   leading tags — [`crate::wire_consensus`];
//! * `ObsMsg` — [`crate::wire_obs`];
//! * `SvcMsg`, `ReadTier` and `KvOp` in `irs-svc`, `WalRecord` in `irs-wal`.
//!
//! # Vocabulary
//!
//! * `u32`, `u64`, `ProcessId`, `RoundNum` — fixed-width little-endian;
//! * `bool` — one byte, strictly `0` or `1` (anything else is `BadTag`);
//! * `Option<T>` — a strict `bool`, then `T` when it is set;
//! * tuples — their parts in order;
//! * [`Bytes<CAP>`] — `u32` length, checked against `CAP` before any byte
//!   is taken, then the bytes;
//! * [`Seq<CAP>`] — `u32` count, checked against `CAP`, then the items; the
//!   preallocation is clamped by the bytes actually present;
//! * [`AtMost<MAX>`] — a `u64` no greater than `MAX`.
//!
//! Every decoder is total: arbitrary bytes either decode or return a
//! [`WireError`], never panic — a UDP socket is an untrusted input. The
//! proptests of each table's module round-trip random messages and feed
//! random bytes to its decoders.

use irs_omega::{OmegaMsg, SuspVector};
use irs_types::{ProcessId, ProcessSet, RoundNum};
use std::convert::identity;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// Magic bytes opening every frame ("IR").
pub const FRAME_MAGIC: [u8; 2] = [0x49, 0x52];
/// Current wire-format version.
pub const FRAME_VERSION: u8 = 1;
/// Bytes of frame header preceding the payload.
pub const FRAME_HEADER_LEN: usize = 2 + 1 + 4 + 4 + 4;
/// Largest payload a frame may carry. Fits a UDP datagram with headroom;
/// an `ALIVE` at `n = 4096` is still well under this.
pub const MAX_PAYLOAD: usize = 60 * 1024;

/// A malformed or truncated wire input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Fewer bytes than the decoder needed.
    Truncated,
    /// The frame did not start with [`FRAME_MAGIC`].
    BadMagic,
    /// An unsupported format version.
    BadVersion(u8),
    /// An unknown enum tag.
    BadTag(u8),
    /// A declared length that is impossible or over [`MAX_PAYLOAD`].
    BadLength(usize),
    /// Bytes left over after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadLength(l) => write!(f, "impossible length {l}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends a `u32` in little-endian order.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` length and the bytes: what [`WireReader::bytes`] reads.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Appends a `u32` count and every item: what [`WireReader::seq`] reads.
#[inline]
pub fn put_seq<'a, T: Wire + 'a>(buf: &mut Vec<u8>, items: impl ExactSizeIterator<Item = &'a T>) {
    put_u32(buf, items.len() as u32);
    for item in items {
        item.encode(buf);
    }
}

/// A cursor over received bytes with total, panic-free accessors.
///
/// A reader over borrowed bytes ([`WireReader::new`]) lends them only for
/// the decode, so a decoder copies what it keeps. The reader
/// [`decode_shared`] makes also names the shared buffer it reads, so a
/// [`Command`](irs_consensus::Command)'s decoder keeps a range of that
/// buffer instead: a command received in a frame stays a slice of it.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    shared: Option<&'a Arc<[u8]>>,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader {
            bytes,
            pos: 0,
            shared: None,
        }
    }

    /// Starts reading at the beginning of a shared buffer.
    #[inline]
    pub(crate) fn new_shared(buf: &'a Arc<[u8]>) -> Self {
        WireReader {
            bytes: buf,
            pos: 0,
            shared: Some(buf),
        }
    }

    /// The shared buffer this reader reads, if it was made by
    /// [`WireReader::new_shared`]: every slice it hands out lies in it, at
    /// the offset [`WireReader::position`] tells.
    #[inline]
    pub(crate) fn shared(&self) -> Option<&'a Arc<[u8]>> {
        self.shared
    }

    /// Bytes consumed so far: the offset of the next read.
    #[inline]
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u32` length or count and rejects one over `cap` with
    /// `BadLength` — before anything is taken or allocated for it.
    #[inline]
    pub fn len_at_most(&mut self, cap: usize) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(WireError::BadLength(len));
        }
        Ok(len)
    }

    /// Reads a `u32`-length-prefixed byte string of at most `cap` bytes.
    #[inline]
    pub fn bytes(&mut self, cap: usize) -> Result<&'a [u8], WireError> {
        let len = self.len_at_most(cap)?;
        self.take(len)
    }

    /// Reads a `u32`-count-prefixed sequence of at most `cap` items. The
    /// preallocation is clamped by the bytes present ([`Wire::MIN_LEN`]),
    /// so a short datagram claiming a huge count fails with `Truncated`
    /// without a count-sized allocation first.
    #[inline]
    pub fn seq<T: Wire>(&mut self, cap: usize) -> Result<Vec<T>, WireError> {
        let count = self.len_at_most(cap)?;
        let mut items = Vec::with_capacity(count.min(self.remaining() / T::MIN_LEN.max(1)));
        for _ in 0..count {
            items.push(T::decode(self)?);
        }
        Ok(items)
    }

    /// Fails if any input is left unconsumed.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }
}

/// A message type with a wire encoding.
///
/// This is the contract every transportable protocol message satisfies: the
/// encoder appends to a caller-supplied buffer (so a broadcast encodes
/// once), and the decoder is total over arbitrary byte strings. `decode`
/// must consume the reader exactly; [`decode_payload`] checks that.
pub trait Wire: Sized {
    /// A lower bound (at least 1) on the encoded length in bytes, by which
    /// [`WireReader::seq`] clamps a preallocation.
    const MIN_LEN: usize = 1;

    /// Appends this message's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one message from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed or truncated input.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Returns `true` if this (already well-formed) message is semantically
    /// valid for an `n`-process deployment.
    ///
    /// The codec alone cannot know the system size, but the protocols index
    /// by it: an `ALIVE` vector of the wrong length or a delta entry out of
    /// range would panic deep inside the state machine. Runtimes call this
    /// after decoding and drop mismatched messages as link noise — a stray
    /// datagram from another deployment on a reused port must never take a
    /// node down.
    fn valid_for(&self, n: usize) -> bool {
        let _ = n;
        true
    }
}

/// A message kind whose encoding leads with a one-byte tag, and the tags it
/// leads with — generated by [`wire_table!`](crate::wire_table), so the
/// registry of leading tags is a checked fact, not only a comment.
pub trait Tagged {
    /// Every leading tag of the kind, in table order.
    const TAGS: &'static [u8];
}

// The `#[inline]`s on the vocabulary are load-bearing: tables are
// instantiated in the crates that use them (`irs-svc`, `irs-wal`), and a
// field read that stays a cross-crate call cost 20–25 ns per log frame
// (accept path, `ledger --trace 1`), where the hand-written decoders
// inlined everything.

/// Fixed-width little-endian fields: an integer, or an id that is one.
macro_rules! wire_fixed {
    ($($t:ty: $int:ident, $to:path, $from:path;)*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$int>();
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&$to(*self).to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok($from(r.$int()?))
            }
        }
    )*};
}
wire_fixed! {
    u32: u32, identity, identity;
    u64: u64, identity, identity;
    ProcessId: u32, ProcessId::as_u32, ProcessId::new;
    RoundNum: u64, RoundNum::value, RoundNum::new;
}

/// One byte, strictly `0` or `1`.
impl Wire for bool {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::BadTag(other)),
        }
    }
}

/// A strict `bool` flag, then the value when it is set.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        Opt::<Plain>::put(self, buf);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Opt::<Plain>::get(r)
    }
    fn valid_for(&self, n: usize) -> bool {
        self.as_ref().is_none_or(|v| v.valid_for(n))
    }
}

/// Tuples: their parts in order.
macro_rules! wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)+;
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$i.encode(buf);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($t::decode(r)?,)+))
            }
            fn valid_for(&self, n: usize) -> bool {
                true $(&& self.$i.valid_for(n))+
            }
        }
    };
}
wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// How a table field is laid out when its type's own [`Wire`] form is not
/// the whole story: a bounded codec checks its bound before it takes or
/// allocates anything. A [`wire_table!`](crate::wire_table) field names its
/// codec after a colon (`key: Bytes<MAX_KEY_LEN>`).
pub trait Codec<T> {
    /// Appends `v`.
    fn put(v: &T, buf: &mut Vec<u8>);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed, truncated or out-of-bound
    /// input.
    fn get(r: &mut WireReader<'_>) -> Result<T, WireError>;
}

/// The field type's own [`Wire`] form: what an unannotated field uses.
#[derive(Debug)]
pub struct Plain;

impl<T: Wire> Codec<T> for Plain {
    fn put(v: &T, buf: &mut Vec<u8>) {
        v.encode(buf);
    }
    fn get(r: &mut WireReader<'_>) -> Result<T, WireError> {
        T::decode(r)
    }
}

/// `u32` length, then the bytes; a length over `CAP` is `BadLength` before
/// any byte is taken.
#[derive(Debug)]
pub struct Bytes<const CAP: usize>;

impl<const CAP: usize, T: AsRef<[u8]> + for<'b> From<&'b [u8]>> Codec<T> for Bytes<CAP> {
    fn put(v: &T, buf: &mut Vec<u8>) {
        put_bytes(buf, v.as_ref());
    }
    fn get(r: &mut WireReader<'_>) -> Result<T, WireError> {
        Ok(T::from(r.bytes(CAP)?))
    }
}

/// `u32` count, then the items; a count over `CAP` is `BadLength` before
/// anything is allocated (see [`WireReader::seq`]).
#[derive(Debug)]
pub struct Seq<const CAP: usize>;

impl<const CAP: usize, T: Wire> Codec<Vec<T>> for Seq<CAP> {
    fn put(v: &Vec<T>, buf: &mut Vec<u8>) {
        put_seq(buf, v.iter());
    }
    fn get(r: &mut WireReader<'_>) -> Result<Vec<T>, WireError> {
        r.seq(CAP)
    }
}

/// A strict `bool` flag, then the value in codec `C` when it is set.
#[derive(Debug)]
pub struct Opt<C>(PhantomData<C>);

impl<T, C: Codec<T>> Codec<Option<T>> for Opt<C> {
    fn put(v: &Option<T>, buf: &mut Vec<u8>) {
        v.is_some().encode(buf);
        if let Some(v) = v {
            C::put(v, buf);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Option<T>, WireError> {
        Ok(if bool::decode(r)? {
            Some(C::get(r)?)
        } else {
            None
        })
    }
}

/// A `u64` no greater than `MAX` (`BadLength` otherwise): a value the
/// receiver turns into a loop bound.
#[derive(Debug)]
pub struct AtMost<const MAX: u64>;

impl<const MAX: u64> Codec<u64> for AtMost<MAX> {
    fn put(v: &u64, buf: &mut Vec<u8>) {
        put_u64(buf, *v);
    }
    fn get(r: &mut WireReader<'_>) -> Result<u64, WireError> {
        let v = r.u64()?;
        if v > MAX {
            return Err(WireError::BadLength(
                usize::try_from(v).unwrap_or(usize::MAX),
            ));
        }
        Ok(v)
    }
}

/// States a tagged enum's byte layout once, and generates from it the tag
/// constants, the kind's [`Tagged`] list and its [`Wire`] `encode` and
/// `decode`.
///
/// The table lists every variant once, as `TAG_NAME = byte => …`, with the
/// fields in wire order:
///
/// * `Variant { a, b: Bytes<CAP> }` — a struct variant. An unannotated field
///   is in its type's own [`Wire`] form; an annotated one in the named
///   [`Codec`], which is where a field's bound is stated;
/// * `Variant(inner)` — a newtype variant;
/// * `Variant(Nested::Inner { a, b })` — one variant of a nested enum behind
///   its own tag of the outer kind;
/// * `Variant` — no fields.
///
/// The table reads like the impl it generates, so `Wire` must be in scope
/// where it is written. Fields named in brackets after the type (`impl Wire for OmegaMsg [rn]`)
/// belong to every struct variant and sit between the tag and the
/// variant's own fields; the decoder reads them before it looks at the tag,
/// so a short input is `Truncated` whatever its tag. Items after the table
/// — `valid_for`, the semantic check against the deployment size — go into
/// the generated impl as written.
///
/// ```
/// use irs_net::wire::{decode_payload, Bytes, Tagged, Wire, WireError};
///
/// #[derive(Debug, PartialEq)]
/// enum Msg {
///     Ping { seq: u64 },
///     Blob { seq: u64, data: Vec<u8> },
/// }
///
/// irs_net::wire_table! {
///     impl Wire for Msg {
///         TAG_PING = 0x40 => Ping { seq },
///         TAG_BLOB = 0x41 => Blob { seq, data: Bytes<4> },
///     }
/// }
///
/// let mut buf = Vec::new();
/// Msg::Blob { seq: 1, data: vec![7] }.encode(&mut buf);
/// assert_eq!(buf, [0x41, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 7]);
/// assert_eq!(decode_payload(&buf), Ok(Msg::Blob { seq: 1, data: vec![7] }));
/// buf[9] = 5; // a length over the cap fails before any byte is taken
/// assert_eq!(decode_payload::<Msg>(&buf), Err(WireError::BadLength(5)));
/// assert_eq!(<Msg as Tagged>::TAGS, &[TAG_PING, TAG_BLOB]);
/// ```
#[macro_export]
macro_rules! wire_table {
    (
        impl $(<$($g:ident: $b:path),*>)? $wire:ident for $ty:ty $([$($pf:ident),*])?
        { $($rows:tt)* }
        $($extra:tt)*
    ) => {
        $crate::wire_table!(@rows { [$($($g: $b),*)?] $wire $ty; $($extra)* } [$($($pf),*)?] [] $($rows)*);
    };
    // One row at a time, into `[TAG byte (pattern) (fields written) (fields read)]`.
    (@rows $h:tt [$($pf:ident),*] [$($done:tt)*]
        $tc:ident = $tag:literal => $v:ident { $($f:ident $(: $c:ty)?),* $(,)? } $(, $($rest:tt)*)?
    ) => {
        $crate::wire_table!(@rows $h [$($pf),*] [$($done)*
            [$tc $tag (Self::$v { $($pf,)* $($f),* }) ($($pf,)* $($f $(: $c)?),*) ($($f $(: $c)?),*)]
        ] $($($rest)*)?);
    };
    (@rows $h:tt $p:tt [$($done:tt)*]
        $tc:ident = $tag:literal => $v:ident ($($n:ident)::+ { $($f:ident $(: $c:ty)?),* $(,)? })
        $(, $($rest:tt)*)?
    ) => {
        $crate::wire_table!(@rows $h $p [$($done)*
            [$tc $tag (Self::$v($($n)::+ { $($f),* })) ($($f $(: $c)?),*) ($($f $(: $c)?),*)]
        ] $($($rest)*)?);
    };
    (@rows $h:tt $p:tt [$($done:tt)*]
        $tc:ident = $tag:literal => $v:ident ($f:ident $(: $c:ty)?) $(, $($rest:tt)*)?
    ) => {
        $crate::wire_table!(@rows $h $p [$($done)*
            [$tc $tag (Self::$v($f)) ($f $(: $c)?) ($f $(: $c)?)]
        ] $($($rest)*)?);
    };
    (@rows $h:tt $p:tt [$($done:tt)*] $tc:ident = $tag:literal => $v:ident $(, $($rest:tt)*)?) => {
        $crate::wire_table!(@rows $h $p [$($done)* [$tc $tag (Self::$v) () ()]] $($($rest)*)?);
    };
    (@rows { [$($g:ident: $b:path),*] $wire:ident $ty:ty; $($extra:tt)* } [$($pf:ident),*] [$(
        [$tc:ident $tag:literal ($($pat:tt)*) ($($ef:ident $(: $ec:ty)?),* $(,)?) ($($f:ident $(: $c:ty)?),*)]
    )*]) => {
        $(const $tc: u8 = $tag;)*

        impl<$($g: $b),*> $crate::wire::Tagged for $ty {
            const TAGS: &'static [u8] = &[$($tc),*];
        }

        impl<$($g: $b),*> $wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $($($pat)* => {
                        buf.push($tc);
                        $(<$crate::wire_table!(@codec $($ec)?) as $crate::wire::Codec<_>>::put($ef, buf);)*
                    })*
                }
            }

            #[inline]
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                let tag = r.u8()?;
                $(let $pf = $crate::wire::Wire::decode(r)?;)*
                match tag {
                    $($tc => {
                        $(let $f = <$crate::wire_table!(@codec $($c)?) as $crate::wire::Codec<_>>::get(r)?;)*
                        Ok($($pat)*)
                    })*
                    other => Err($crate::wire::WireError::BadTag(other)),
                }
            }

            $($extra)*
        }
    };
    (@codec) => { $crate::wire::Plain };
    (@codec $c:ty) => { $c };
}

/// Decodes a whole payload as one message, rejecting trailing bytes.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed, truncated or oversized input.
#[inline]
pub fn decode_payload<M: Wire>(payload: &[u8]) -> Result<M, WireError> {
    decode_whole(WireReader::new(payload))
}

/// [`decode_payload`] over a shared buffer: the same message or the same
/// error, but what the message keeps of the bytes (a command's) is a range
/// of `payload`, sharing it, rather than a copy.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed, truncated or oversized input.
#[inline]
pub fn decode_shared<M: Wire>(payload: &Arc<[u8]>) -> Result<M, WireError> {
    decode_whole(WireReader::new_shared(payload))
}

#[inline]
fn decode_whole<M: Wire>(mut r: WireReader<'_>) -> Result<M, WireError> {
    let msg = M::decode(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Decodes `bytes` both as borrowed and as shared, checks that the two
/// agree — the same message, or the same error — and returns that.
#[cfg(test)]
pub(crate) fn decode_both<M: Wire + PartialEq + fmt::Debug>(bytes: &[u8]) -> Result<M, WireError> {
    let borrowed = decode_payload::<M>(bytes);
    let shared: Arc<[u8]> = bytes.into();
    assert_eq!(
        decode_shared::<M>(&shared),
        borrowed,
        "shared and borrowed decodes disagree on {bytes:02x?}"
    );
    borrowed
}

/// Encodes a frame header followed by the payload into `buf`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — the caller sized the
/// message; a protocol whose messages outgrow a datagram needs a different
/// transport, not silent truncation.
pub fn encode_frame(buf: &mut Vec<u8>, from: ProcessId, to: ProcessId, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "payload of {} bytes exceeds MAX_PAYLOAD",
        payload.len()
    );
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(FRAME_VERSION);
    from.encode(buf);
    to.encode(buf);
    put_bytes(buf, payload);
}

/// Byte offset of the `to` field inside an encoded frame (after magic and
/// version, before the sender).
const FRAME_TO_OFFSET: usize = 2 + 1 + 4;

/// Rewrites the `to` field of an already-encoded frame in place.
///
/// This is what makes encode-once fan-out possible: a broadcast encodes the
/// frame a single time and patches these four bytes per receiver instead of
/// re-encoding header and payload for every destination
/// ([`crate::UdpTransport`]'s [`send_many`](crate::Transport::send_many)
/// and the reactor's send queue both use it).
///
/// # Panics
///
/// Panics if `frame` is shorter than a frame header — the caller produced
/// it with [`encode_frame`], so anything shorter is a logic error.
pub fn set_frame_to(frame: &mut [u8], to: ProcessId) {
    assert!(frame.len() >= FRAME_HEADER_LEN, "not an encoded frame");
    frame[FRAME_TO_OFFSET..FRAME_TO_OFFSET + 4].copy_from_slice(&to.as_u32().to_le_bytes());
}

/// Decodes one frame, returning `(from, to, payload)`.
///
/// # Errors
///
/// Returns a [`WireError`] if the header is malformed or the payload length
/// disagrees with the bytes present.
pub fn decode_frame(bytes: &[u8]) -> Result<(ProcessId, ProcessId, &[u8]), WireError> {
    let mut r = WireReader::new(bytes);
    if r.take(2)? != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != FRAME_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let from = ProcessId::decode(&mut r)?;
    let to = ProcessId::decode(&mut r)?;
    let payload = r.bytes(MAX_PAYLOAD)?;
    r.finish()?;
    Ok((from, to, payload))
}

/// Largest system size the codec accepts when decoding (`n` drives
/// allocation; an attacker-supplied `n` must not).
const MAX_WIRE_N: u32 = 1 << 16;

wire_table! {
    impl Wire for OmegaMsg [rn] {
        TAG_ALIVE = 0x00 => Alive { susp },
        TAG_ALIVE_DELTA = 0x01 => AliveDelta { entries: Seq<{ MAX_WIRE_N as usize }> },
        TAG_SUSPICION = 0x02 => Suspicion { suspects },
    }

    fn valid_for(&self, n: usize) -> bool {
        match self {
            OmegaMsg::Alive { susp, .. } => susp.len() == n,
            OmegaMsg::AliveDelta { entries, .. } => {
                entries.iter().all(|&(idx, _)| (idx as usize) < n)
            }
            OmegaMsg::Suspicion { suspects, .. } => suspects.capacity() == n,
        }
    }
}

/// `ALIVE`'s suspicion levels: a sequence of at most `MAX_WIRE_N` `u64`s.
impl Wire for SuspVector {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self.as_slice().iter());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SuspVector::from_levels(r.seq(MAX_WIRE_N as usize)?))
    }
}

/// `SUSPICION`'s set: its capacity `n`, then `ceil(n / 64)` words. The one
/// hand-written field codec, because of its capacity check.
impl Wire for ProcessSet {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.capacity() as u32);
        for &word in self.as_words() {
            put_u64(buf, word);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.len_at_most(MAX_WIRE_N as usize)?;
        let mut set = ProcessSet::empty(n);
        for w in 0..n.div_ceil(64) {
            let mut word = r.u64()?;
            if w == n / 64 && !n.is_multiple_of(64) && word >> (n % 64) != 0 {
                // Bits beyond the capacity would corrupt the set's
                // invariants; a well-formed encoder never sets them.
                return Err(WireError::BadLength(n));
            }
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                set.insert(ProcessId::new((w * 64 + bit) as u32));
                word &= word - 1;
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: &OmegaMsg) -> OmegaMsg {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        decode_both(&buf).expect("roundtrip decode")
    }

    #[test]
    fn alive_roundtrips() {
        let msg = OmegaMsg::Alive {
            rn: RoundNum::new(42),
            susp: SuspVector::from_levels(vec![0, 3, 1, u64::MAX, 7]),
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn alive_delta_roundtrips() {
        let msg = OmegaMsg::AliveDelta {
            rn: RoundNum::new(9),
            entries: vec![(0, 1), (130, 55), (255, u64::MAX)],
        };
        assert_eq!(roundtrip(&msg), msg);
        let empty = OmegaMsg::AliveDelta {
            rn: RoundNum::new(1),
            entries: Vec::new(),
        };
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn suspicion_roundtrips_across_word_boundaries() {
        for n in [2usize, 4, 63, 64, 65, 128, 200, 256] {
            let suspects =
                ProcessSet::from_ids(n, (0..n as u32).filter(|i| i % 3 == 0).map(ProcessId::new));
            let msg = OmegaMsg::Suspicion {
                rn: RoundNum::new(n as u64),
                suspects,
            };
            assert_eq!(roundtrip(&msg), msg, "n = {n}");
        }
    }

    #[test]
    fn frame_roundtrips() {
        let mut frame = Vec::new();
        encode_frame(&mut frame, ProcessId::new(3), ProcessId::new(7), b"hello");
        let (from, to, payload) = decode_frame(&frame).unwrap();
        assert_eq!(from, ProcessId::new(3));
        assert_eq!(to, ProcessId::new(7));
        assert_eq!(payload, b"hello");
    }

    /// A patched frame is byte-identical to one freshly encoded for the new
    /// receiver — the invariant the encode-once fan-out paths rely on.
    #[test]
    fn patched_to_field_matches_fresh_encode() {
        let mut patched = Vec::new();
        encode_frame(
            &mut patched,
            ProcessId::new(3),
            ProcessId::new(0),
            b"payload",
        );
        for to in [0u32, 1, 7, u32::MAX] {
            set_frame_to(&mut patched, ProcessId::new(to));
            let mut fresh = Vec::new();
            encode_frame(
                &mut fresh,
                ProcessId::new(3),
                ProcessId::new(to),
                b"payload",
            );
            assert_eq!(patched, fresh, "to = {to}");
            let (from, decoded_to, payload) = decode_frame(&patched).unwrap();
            assert_eq!(from, ProcessId::new(3));
            assert_eq!(decoded_to, ProcessId::new(to));
            assert_eq!(payload, b"payload");
        }
    }

    #[test]
    fn frame_rejects_garbage() {
        assert_eq!(decode_frame(b""), Err(WireError::Truncated));
        assert_eq!(decode_frame(b"XXxxxxxxxxxxxxxx"), Err(WireError::BadMagic));
        let mut frame = Vec::new();
        encode_frame(&mut frame, ProcessId::new(0), ProcessId::new(1), b"abc");
        // Wrong version.
        let mut bad = frame.clone();
        bad[2] = 9;
        assert_eq!(decode_frame(&bad), Err(WireError::BadVersion(9)));
        // Declared length longer than the bytes present.
        let mut short = frame.clone();
        short.truncate(frame.len() - 1);
        assert_eq!(decode_frame(&short), Err(WireError::Truncated));
        // Trailing junk after the payload.
        let mut long = frame.clone();
        long.push(0);
        assert_eq!(decode_frame(&long), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn payload_decoder_rejects_trailing_and_bad_tags() {
        let mut buf = Vec::new();
        OmegaMsg::AliveDelta {
            rn: RoundNum::new(1),
            entries: vec![],
        }
        .encode(&mut buf);
        buf.push(0xFF);
        assert_eq!(
            decode_payload::<OmegaMsg>(&buf),
            Err(WireError::TrailingBytes(1))
        );
        assert_eq!(
            decode_payload::<OmegaMsg>(&[0x77]),
            Err(WireError::Truncated)
        );
        assert_eq!(
            decode_payload::<OmegaMsg>(&[0x77, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(WireError::BadTag(0x77))
        );
    }

    #[test]
    fn suspicion_rejects_out_of_capacity_bits() {
        // Capacity 4 but a bit set at position 5.
        let mut buf = vec![TAG_SUSPICION];
        put_u64(&mut buf, 1);
        put_u32(&mut buf, 4);
        put_u64(&mut buf, 0b10_0000);
        assert_eq!(
            decode_payload::<OmegaMsg>(&buf),
            Err(WireError::BadLength(4))
        );
    }

    #[test]
    fn valid_for_rejects_messages_sized_for_another_deployment() {
        let alive = |n: usize| OmegaMsg::Alive {
            rn: RoundNum::new(1),
            susp: SuspVector::new(n),
        };
        assert!(alive(4).valid_for(4));
        assert!(!alive(256).valid_for(4));
        assert!(!alive(3).valid_for(4));

        let delta = OmegaMsg::AliveDelta {
            rn: RoundNum::new(1),
            entries: vec![(3, 9)],
        };
        assert!(delta.valid_for(4));
        assert!(!delta.valid_for(3), "entry index out of range");

        let suspicion = |n: usize| OmegaMsg::Suspicion {
            rn: RoundNum::new(1),
            suspects: ProcessSet::empty(n),
        };
        assert!(suspicion(4).valid_for(4));
        assert!(!suspicion(8).valid_for(4));
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocating() {
        let mut buf = vec![TAG_ALIVE];
        put_u64(&mut buf, 1);
        put_u32(&mut buf, u32::MAX);
        assert_eq!(
            decode_payload::<OmegaMsg>(&buf),
            Err(WireError::BadLength(u32::MAX as usize))
        );
        // A count within MAX_WIRE_N but without the bytes to back it fails
        // with Truncated (and, by the remaining-bytes clamp, without a
        // count-sized preallocation).
        for tag in [TAG_ALIVE, TAG_ALIVE_DELTA] {
            let mut short = vec![tag];
            put_u64(&mut short, 1);
            put_u32(&mut short, MAX_WIRE_N);
            assert_eq!(
                decode_payload::<OmegaMsg>(&short),
                Err(WireError::Truncated)
            );
        }
    }

    /// One frozen encoding per `OmegaMsg` tag.
    #[test]
    fn golden_vectors_pin_every_omega_tag() {
        let golden: [(OmegaMsg, &str); 3] = [
            (
                OmegaMsg::Alive {
                    rn: RoundNum::new(7),
                    susp: SuspVector::from_levels(vec![1, 2]),
                },
                "0007000000000000000200000001000000000000000200000000000000",
            ),
            (
                OmegaMsg::AliveDelta {
                    rn: RoundNum::new(8),
                    entries: vec![(3, 9)],
                },
                "01080000000000000001000000030000000900000000000000",
            ),
            (
                OmegaMsg::Suspicion {
                    rn: RoundNum::new(9),
                    suspects: ProcessSet::from_ids(70, [1, 65].map(ProcessId::new)),
                },
                "0209000000000000004600000002000000000000000200000000000000",
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

    proptest! {
        #[test]
        fn random_messages_roundtrip(
            rn in 0u64..1_000_000,
            levels in proptest::collection::vec(0u64..1_000, 2..40),
            members in proptest::collection::btree_set(0u32..40, 0..20),
        ) {
            let n = levels.len();
            let alive = OmegaMsg::Alive {
                rn: RoundNum::new(rn),
                susp: SuspVector::from_levels(levels.clone()),
            };
            prop_assert_eq!(roundtrip(&alive), alive);

            let capacity = 40usize;
            let suspicion = OmegaMsg::Suspicion {
                rn: RoundNum::new(rn),
                suspects: ProcessSet::from_ids(
                    capacity,
                    members.iter().copied().map(ProcessId::new),
                ),
            };
            prop_assert_eq!(roundtrip(&suspicion), suspicion);

            let delta = OmegaMsg::AliveDelta {
                rn: RoundNum::new(rn),
                entries: levels.iter().take(n.min(8)).enumerate()
                    .map(|(i, &l)| (i as u32, l)).collect(),
            };
            prop_assert_eq!(roundtrip(&delta), delta);
        }

        #[test]
        fn random_bytes_never_panic_the_decoders(
            bytes in proptest::collection::vec(0u8..255, 0..64),
        ) {
            let _ = decode_frame(&bytes);
            let _ = decode_both::<OmegaMsg>(&bytes);
        }
    }
}
