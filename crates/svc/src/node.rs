//! Driving one [`SvcReplica`] over a [`Transport`] endpoint.
//!
//! [`run_svc_node`] is [`irs_runtime::run_node`] with a different
//! admission rule: the default rule drops messages from senders outside the
//! replica group as link noise, but a service must accept *client* messages
//! from endpoints beyond `n`. The rule here admits log and lease traffic
//! from replicas only, requests and reads from any known endpoint, and
//! drops replies (a reply arriving at a replica is stray traffic). It
//! judges the typed message ([`SvcConfig::accept`]), so the host loop
//! applies it unchanged to a frame it decoded off a socket and to a message
//! a co-hosted replica handed over without bytes — in the live loop and
//! the shutdown drain, on every deployment shape. [`accept_svc_frame`] is
//! the same rule behind a decode, for callers that hold a [`Frame`].

use crate::msg::SvcMsg;
use crate::replica::SvcReplica;
use irs_net::{wire::decode_shared, Frame, Transport, Wire};
use irs_obs::Obs;
use irs_runtime::{run_node_with, MuxAccept, NodeConfig, NodeHandle};
use irs_types::ProcessId;
use irs_wal::FsyncPolicy;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration as StdDuration;

/// Deployment shape of one service node.
#[derive(Clone, Debug)]
pub struct SvcConfig {
    /// Number of replicas (the consensus group; broadcast fan-out).
    pub n: usize,
    /// Total transport endpoints: replicas plus client endpoints. Frames
    /// from senders at or beyond this have no reply route and are dropped.
    pub peers: usize,
    /// The wall-clock length of one logical tick.
    pub tick: StdDuration,
    /// Most client commands the leader drains into one log slot's batch
    /// (1 = unbatched, the historical behaviour).
    pub batch_max: usize,
    /// Number of consecutive log slots the leader keeps in flight
    /// concurrently (1 = one-slot-at-a-time, the historical behaviour).
    pub pipeline_depth: u64,
    /// Apply-slot interval at which a replica exports its store and
    /// truncates the log's decided prefix behind the snapshot (0 disables
    /// compaction; the log then grows without bound, as before PR 5).
    pub snapshot_interval: u64,
    /// Base directory for durable state. When set, replica `i` keeps its
    /// WAL and snapshot under `<data_dir>/node-<i>/` and survives kill-9:
    /// a restart with the same directory recovers by replay. `None` (the
    /// default) runs replicas purely in memory, as before this PR.
    pub data_dir: Option<PathBuf>,
    /// When a replica syncs its WAL to disk (only meaningful with
    /// `data_dir` set). [`FsyncPolicy::Always`] is the crash-safe default.
    pub fsync: FsyncPolicy,
    /// Shared observability handle. When set, every replica this config
    /// builds records onto its registry (and flight recorder, if the
    /// handle carries one), and [`run_svc_node`] adds host-loop counters.
    /// `None` (the default) runs fully uninstrumented, as before PR 8.
    pub obs: Option<Arc<Obs>>,
}

impl SvcConfig {
    /// `n` replicas plus `clients` client endpoints, 100 µs tick, unbatched
    /// single-slot replication, compaction every 1024 applied slots.
    pub fn new(n: usize, clients: usize) -> Self {
        SvcConfig {
            n,
            peers: n + clients,
            tick: StdDuration::from_micros(100),
            batch_max: 1,
            pipeline_depth: 1,
            snapshot_interval: 1024,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            obs: None,
        }
    }

    /// Sets the tick length.
    #[must_use]
    pub fn with_tick(mut self, tick: StdDuration) -> Self {
        self.tick = tick.max(StdDuration::from_nanos(1));
        self
    }

    /// Sets the per-slot command batch bound and the in-flight slot window
    /// (both clamped to at least 1).
    #[must_use]
    pub fn with_batching(mut self, batch_max: usize, pipeline_depth: u64) -> Self {
        self.batch_max = batch_max.max(1);
        self.pipeline_depth = pipeline_depth.max(1);
        self
    }

    /// Sets the snapshot/compaction interval in applied slots (0 disables).
    #[must_use]
    pub fn with_snapshot_interval(mut self, interval: u64) -> Self {
        self.snapshot_interval = interval;
        self
    }

    /// Makes replicas durable: WAL + snapshot under `<base>/node-<i>/`.
    #[must_use]
    pub fn with_data_dir(mut self, base: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(base.into());
        self
    }

    /// Sets the WAL fsync policy (no effect without a data dir).
    #[must_use]
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Attaches a shared observability handle (see [`SvcConfig::obs`]).
    #[must_use]
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The data directory of replica `id` under this config, if durable.
    pub fn node_dir(&self, id: ProcessId) -> Option<PathBuf> {
        self.data_dir
            .as_ref()
            .map(|base| base.join(format!("node-{}", id.index())))
    }

    /// Builds the replica this config describes — the only public way to
    /// construct a [`SvcReplica`], and the node passed to
    /// [`run_svc_node`]. The batching, pipelining, compaction and
    /// durability knobs live on the config but act inside the replica, so
    /// building it here keeps the two from disagreeing. Resilience is the
    /// largest consensus-compatible `t = ⌊(n−1)/2⌋`. With a data directory
    /// the replica recovers from (and persists to) `<data_dir>/node-<id>/`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (no consensus-compatible resilience), or if a
    /// durable replica's directory cannot be opened or replayed.
    pub fn replica(&self, id: ProcessId) -> SvcReplica {
        assert!(self.n >= 3, "a replicated service needs n >= 3");
        let mut replica = SvcReplica::open(id, self).expect("open durable replica state");
        if let Some(obs) = &self.obs {
            replica.attach_obs(obs);
        }
        replica
    }

    /// Every replica of the group, in id order (see [`SvcConfig::replica`]).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub(crate) fn replicas(&self) -> Vec<SvcReplica> {
        assert!(self.n >= 3, "a replicated service needs n >= 3");
        (0..self.n as u32)
            .map(|i| self.replica(ProcessId::new(i)))
            .collect()
    }

    /// The admission rule of a replica under this config, over the typed
    /// message (see the module docs): what every driver of the replicas —
    /// shard threads, `run_svc_node`, a stepper — admits by, on every route.
    pub fn accept(&self) -> MuxAccept<SvcMsg> {
        let (n, peers) = (self.n, self.peers);
        Arc::new(move |me, from, to, msg| svc_admits(from, to, msg, me, n, peers))
    }
}

/// The service's frame-admission policy (see module docs) over an assembled
/// [`Frame`]: the payload decoded as shared (a command is a range of the
/// frame, as on the host loop), then judged by the rule of
/// [`SvcConfig::accept`]. Public so callers outside the host loop share the
/// exact policy with [`run_svc_node`].
pub fn accept_svc_frame(frame: &Frame, me: ProcessId, n: usize, peers: usize) -> Option<SvcMsg> {
    let msg = decode_shared::<SvcMsg>(&frame.payload).ok()?;
    svc_admits(frame.from, frame.to, &msg, me, n, peers).then_some(msg)
}

/// The rule itself (the service analogue of [`irs_runtime::admits`]).
fn svc_admits(
    from: ProcessId,
    to: ProcessId,
    msg: &SvcMsg,
    me: ProcessId,
    n: usize,
    peers: usize,
) -> bool {
    if to != me || !msg.valid_for(n) {
        return false;
    }
    match msg {
        // The consensus and lease planes are replicas-only.
        SvcMsg::Log(_) | SvcMsg::LeaseProbe { .. } | SvcMsg::LeaseAck { .. } => from.index() < n,
        // Requests and reads may come from any endpoint we can route a
        // reply to.
        SvcMsg::Request { .. } | SvcMsg::Read { .. } => from.index() < peers,
        // Replies belong on the client side of the link.
        SvcMsg::Reply(_) => false,
    }
}

/// Drives `replica` over `transport` until [`NodeHandle::stop`] is set,
/// then returns the final replica state (its store included). Semantics
/// match [`irs_runtime::run_node`]: wall-clock timers, crash flag, and the
/// quiet-window shutdown drain.
pub fn run_svc_node<T: Transport>(
    replica: SvcReplica,
    transport: T,
    config: SvcConfig,
    handle: NodeHandle,
) -> SvcReplica {
    let node_config = NodeConfig::new(config.n).with_tick(config.tick);
    let accept = config.accept();
    run_node_with(
        replica,
        transport,
        node_config,
        handle,
        &*accept,
        config.obs.as_deref(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{KvOp, KvWrite};
    use crate::msg::SvcReply;
    use irs_net::wire::encode_frame;
    use irs_net::Wire;
    use std::sync::Arc;

    fn frame(from: u32, to: u32, msg: &SvcMsg) -> Frame {
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        let mut bytes = Vec::new();
        encode_frame(
            &mut bytes,
            ProcessId::new(from),
            ProcessId::new(to),
            &payload,
        );
        let (f, t, p) = irs_net::wire::decode_frame(&bytes).unwrap();
        Frame {
            from: f,
            to: t,
            payload: Arc::from(p),
        }
    }

    #[test]
    fn policy_admits_clients_but_not_stray_planes() {
        let me = ProcessId::new(0);
        let (n, peers) = (5, 8);
        let request = SvcMsg::Request {
            cmd: KvWrite {
                client: 6,
                seq: 1,
                op: KvOp::Del { key: b"k".to_vec() },
            }
            .encode(),
        };
        let log = SvcMsg::Log(irs_consensus::LogMsg::Catchup { from: 0 });
        let reply = SvcMsg::Reply(SvcReply::Applied {
            client: 6,
            seq: 1,
            slot: 0,
        });
        // A client (endpoint 6) may send requests but not log traffic.
        assert!(accept_svc_frame(&frame(6, 0, &request), me, n, peers).is_some());
        assert!(accept_svc_frame(&frame(6, 0, &log), me, n, peers).is_none());
        // A replica may send log traffic.
        assert!(accept_svc_frame(&frame(2, 0, &log), me, n, peers).is_some());
        // Senders beyond the peer table have no reply route.
        assert!(accept_svc_frame(&frame(9, 0, &request), me, n, peers).is_none());
        // Replies never enter a replica; misrouted frames die too.
        assert!(accept_svc_frame(&frame(2, 0, &reply), me, n, peers).is_none());
        assert!(accept_svc_frame(&frame(2, 3, &log), me, n, peers).is_none());
    }

    /// The read plane follows the same boundary: reads are client traffic,
    /// lease probes/acks are replica-only, value replies never enter a
    /// replica.
    #[test]
    fn policy_splits_the_read_plane_like_the_write_plane() {
        let me = ProcessId::new(0);
        let (n, peers) = (5, 8);
        let read = SvcMsg::Read {
            client: 6,
            rid: 1,
            key: b"k".to_vec(),
            tier: crate::msg::ReadTier::Lease,
        };
        let probe = SvcMsg::LeaseProbe { rid: 3 };
        let ack = SvcMsg::LeaseAck {
            rid: 3,
            granted: true,
        };
        let value = SvcMsg::Reply(SvcReply::Value {
            client: 6,
            rid: 1,
            value: None,
            frontier: 0,
        });
        assert!(accept_svc_frame(&frame(6, 0, &read), me, n, peers).is_some());
        assert!(accept_svc_frame(&frame(9, 0, &read), me, n, peers).is_none());
        assert!(accept_svc_frame(&frame(2, 0, &probe), me, n, peers).is_some());
        assert!(accept_svc_frame(&frame(2, 0, &ack), me, n, peers).is_some());
        assert!(accept_svc_frame(&frame(6, 0, &probe), me, n, peers).is_none());
        assert!(accept_svc_frame(&frame(6, 0, &ack), me, n, peers).is_none());
        assert!(accept_svc_frame(&frame(2, 0, &value), me, n, peers).is_none());
    }

    /// A frame off a socket is decoded and judged by the rule, which is
    /// what `accept_svc_frame` does; a co-hosted replica's message meets
    /// `SvcConfig::accept` without bytes. For every message kind, sender
    /// class (replica, client, out of range) and addressee the two routes
    /// must agree.
    #[test]
    fn the_typed_rule_agrees_with_the_frame_policy() {
        let config = SvcConfig::new(5, 3);
        let (me, n, peers) = (ProcessId::new(0), config.n, config.peers);
        let rule = config.accept();
        let write = KvWrite {
            client: 6,
            seq: 1,
            op: KvOp::Del { key: b"k".to_vec() },
        };
        let read = |key: Vec<u8>| SvcMsg::Read {
            client: 6,
            rid: 1,
            key,
            tier: crate::msg::ReadTier::Lease,
        };
        let kinds = [
            SvcMsg::Log(irs_consensus::LogMsg::Catchup { from: 0 }),
            SvcMsg::Request {
                cmd: write.encode(),
            },
            read(b"k".to_vec()),
            read(vec![0; crate::command::MAX_KEY_LEN + 1]),
            SvcMsg::LeaseProbe { rid: 3 },
            SvcMsg::LeaseAck {
                rid: 3,
                granted: true,
            },
            SvcMsg::Reply(SvcReply::Applied {
                client: 6,
                seq: 1,
                slot: 0,
            }),
            SvcMsg::Reply(SvcReply::Redirect {
                client: 6,
                seq: 1,
                leader: ProcessId::new(1),
            }),
            SvcMsg::Reply(SvcReply::Value {
                client: 6,
                rid: 1,
                value: None,
                frontier: 0,
            }),
        ];
        let mut admitted = 0;
        for msg in &kinds {
            for from in [2, 6, 9] {
                for to in [0, 3] {
                    let by_frame = accept_svc_frame(&frame(from, to, msg), me, n, peers);
                    let by_rule = rule(me, ProcessId::new(from), ProcessId::new(to), msg);
                    assert_eq!(by_frame.is_some(), by_rule, "{msg:?} {from} -> {to}");
                    assert!(by_frame.is_none_or(|m| m == *msg));
                    admitted += usize::from(by_rule);
                }
            }
        }
        // Log, lease probe and ack from the replica; request and read from
        // the replica and the client.
        assert_eq!(admitted, 7);
    }
}
