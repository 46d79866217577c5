//! `irs-net` — the pluggable transport subsystem.
//!
//! Everything above this crate is a sans-IO state machine; everything below
//! it is a link. This crate is the boundary: a [`Transport`] trait
//! (send/receive of framed message bytes, addressed per link by
//! [`irs_types::ProcessId`]), a hand-rolled [`wire`] codec, two endpoint
//! backends, a decorator, and the socket multiplexer the sharded hosts run:
//!
//! * [`MemTransport`] — the in-process MPSC mesh the runtimes always had,
//!   now just one backend among others (shared-payload broadcast fan-out,
//!   per-link FIFO);
//! * [`UdpTransport`] — the one socket endpoint handle: a nonblocking UDP
//!   socket driven entirely by its caller's thread (inline `send_to`,
//!   `recv_from`, and a `ppoll`-timed wait in between — see the [`poll`]
//!   module), whether that caller is a node loop in its own OS process
//!   (`examples/socket_cluster.rs`), a thread-per-socket host, or a client;
//! * [`FaultyLink`] — a decorator over any transport injecting seeded,
//!   receiver-driven faults: per-link drop probability, symmetric and
//!   asymmetric [`Partition`]s, and [`DutyCycle`] intermittency windows —
//!   the B1931+24-style on/off connectivity trace that motivates the
//!   paper's intermittent-star assumption;
//! * [`Reactor`] — not a [`Transport`] but the other I/O source of the
//!   host loop: many nonblocking UDP sockets served on one thread by one
//!   readiness loop ([`poll`]) with batched, buffer-recycled ([`pool`])
//!   datagram I/O. It serves the replica side of a sharded deployment; a
//!   caller that blocks on one socket uses a [`UdpTransport`] instead.
//!
//! # Wire format
//!
//! The [`wire`] module frames messages bincode-style, with no external
//! dependencies: little-endian fixed-width integers, `u32`-length-prefixed
//! sequences, one tag byte per enum variant. A frame is
//!
//! ```text
//! magic "IR" (2) | version (1) | from u32 | to u32 | len u32 | payload
//! ```
//!
//! and the payload is a [`Wire`]-encoded protocol message. [`wire`] holds
//! the field vocabulary and the [`wire_table!`] form every message kind
//! states its layout in, once — the [`irs_omega::OmegaMsg`] table among
//! them; [`wire_consensus`] extends the same format to the consensus layer
//! (`PaxosMsg`, `ConsensusMsg`, `LogMsg`, ballots, values and byte
//! commands) under disjoint message-kind tags, so
//! [`irs_consensus::ReplicatedLog`] deploys over sockets too. Decoders are
//! total: arbitrary bytes decode or fail with a [`WireError`], never panic.
//!
//! # Transport contract
//!
//! See [`Transport`] for the full contract. In short: addressing is by
//! hosted process (an endpoint may host several), delivery is best-effort
//! (the protocols tolerate loss by assumption), per-link FIFO is promised
//! by the in-memory backend and holds for UDP on loopback only, and `recv`
//! blocks with a timeout. The
//! [`conformance`] suite checks every backend against the contract and
//! pins the determinism of [`FaultyLink`] under a fixed `(seed, schedule)`.

// `deny` rather than `forbid`: the readiness layer's Linux epoll shim
// (`poll::sys`) is the one `#[allow(unsafe_code)]` island in the crate —
// five libc calls on fds the safe wrappers own or borrow. Everything else
// stays unsafe-free, and a stray `unsafe` anywhere else is still a hard
// error.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conformance;
mod faulty;
mod mem;
pub mod poll;
pub mod pool;
pub mod reactor;
pub mod reexec;
mod transport;
mod udp;
pub mod wire;
pub mod wire_consensus;
pub mod wire_obs;

pub use faulty::{DutyCycle, FaultClock, FaultyLink, LinkModel, ManualClock, Partition};
pub use mem::{MemNetwork, MemTransport};
pub use poll::Poller;
pub use pool::BufPool;
pub use reactor::Reactor;
pub use transport::{Frame, NetError, Transport};
pub use udp::UdpTransport;
pub use wire::{Wire, WireError};
pub use wire_obs::{is_obs_payload, ObsMsg, TransportScraper};
