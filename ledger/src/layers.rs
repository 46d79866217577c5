//! The traced run: every per-layer metric of one workload.
//!
//! Three sources feed the table. A shorter live run supplies what only the
//! deployment can show (process CPU, context switches, client retries, the
//! workload-specific user-visible numbers). The pump supplies spans and
//! exact counts along the op's path, and its replays split the replica span
//! into log, store and WAL. The rungs supply each layer's isolated cost.

use crate::json::Json;
use crate::live::{self, LiveResult};
use crate::names::PER_LAYER;
use crate::pump::{self, Kind, Span, NONE};
use crate::traced::{self, OpRec, Spec, SvcPass};
use crate::{rungs, sys};
use irs_consensus::Command;
use irs_obs::names as gauges;
use irs_svc::KvWrite;
use std::collections::BTreeMap;

pub type Metrics = BTreeMap<&'static str, f64>;

/// The share of `--seconds` the traced run spends on its live repetitions.
const LIVE_SHARE: f64 = 1.0 / 3.0;
/// Ops whose spans are written out in full (every op's spans are kept in
/// memory and aggregated; the file holds the first few and the totals).
const OPS_IN_FILE: u32 = 16;

/// The outcome of one traced run.
pub struct Traced {
    pub metrics: Metrics,
    pub live: LiveResult,
    /// Output-check failures of the pump and its replays.
    pub errors: Vec<String>,
}

/// Runs the traced form of `workload`. The workload-independent rungs are
/// measured when `rung_cache` is empty and left there, so that the traced
/// runs of one process share a single reading.
///
/// # Errors
///
/// Returns a description when a deployment, the pump or a rung could not run
/// at all (as opposed to running and producing wrong outputs, which lands in
/// [`Traced::errors`]).
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    rung_cache: &mut Option<Metrics>,
) -> Result<Traced, String> {
    let live = live::run(workload, seed, seconds * LIVE_SHARE)?;
    let mut metrics = Metrics::new();
    let mut errors = Vec::new();
    live.layer_metrics(&mut metrics);
    if let Some(spec) = traced::spec_for(workload) {
        pump_metrics(workload, &spec, seed, &live, &mut metrics, &mut errors)?;
    }
    if rung_cache.is_none() {
        *rung_cache = Some(rungs::run_all()?);
    }
    metrics.extend(rung_cache.iter().flatten());
    // Every name, exactly once: what does not apply to this workload is 0.
    for m in &PER_LAYER {
        metrics.entry(m.name).or_insert(0.0);
    }
    Ok(Traced {
        metrics,
        live,
        errors,
    })
}

fn pump_metrics(
    workload: &str,
    spec: &Spec,
    seed: u64,
    live: &LiveResult,
    out: &mut Metrics,
    errors: &mut Vec<String>,
) -> Result<(), String> {
    // Spans off first: its wall time is the pump's own speed, and the
    // traced pass's excess over it is what tracing costs.
    let plain = traced::svc_pass(spec, seed, false)?;
    let pass = traced::svc_pass(spec, seed, true)?;
    if plain.pump.counts != pass.pump.counts {
        errors.push("pump: counts differ between the traced and the untraced pass".into());
    }
    if let Err(e) = pass.check() {
        errors.push(format!("pump: {e}"));
    }
    let ops = pass.ops.len() as f64;
    let writes = pass.writes() as f64;
    let counts = &pass.pump.counts;
    let spans = pass.pump.spans();
    let all = pump::totals(spans, false);
    let for_ops = pump::totals(spans, true);
    let mean = |k: Kind| all[k as usize].total_ns as f64 / all[k as usize].count.max(1) as f64;

    out.insert("pump.ops_s", ops / plain.wall_s);
    out.insert("trace.overhead_share", pass.wall_s / plain.wall_s - 1.0);
    out.insert(
        "wire.encode_ns_per_frame",
        (all[Kind::PayloadEncode as usize].total_ns + all[Kind::FrameEncode as usize].total_ns)
            as f64
            / counts.frames.max(1) as f64,
    );
    out.insert("wire.decode_ns_per_frame", mean(Kind::FrameDecode));
    out.insert("accept.ns_per_frame", mean(Kind::Accept));
    out.insert(
        "wire.bytes_per_frame",
        counts.bytes as f64 / counts.frames.max(1) as f64,
    );
    out.insert("pump.frames_per_op", counts.op_frames as f64 / ops);
    out.insert("pump.bytes_per_op", counts.op_bytes as f64 / ops);
    out.insert(
        "reactor.batched_send_share",
        counts.fanout_frames as f64 / (counts.frames - ops as u64).max(1) as f64,
    );
    out.insert(
        "client.encode_ns_per_op",
        for_ops[Kind::ClientSend as usize].total_ns as f64 / ops,
    );
    let replica_ns_per_op = for_ops[Kind::OnMessage as usize].total_ns as f64 / ops;
    out.insert("replica.ns_per_op", replica_ns_per_op);
    out.insert(
        "replica.readindex_wait_periods",
        traced::readindex_wait_periods(&pass.ops),
    );

    // The ack budget: the live median is the host's share plus the mean
    // critical path, and the path is its four layers' shares.
    let paths = traced::critical_paths(spans, &pass.ops);
    let per_path_us = |ns: u64| ns as f64 / paths.ops.max(1) as f64 / 1e3;
    let critical_us = per_path_us(paths.total_ns());
    out.insert("pump.critical_path_us", critical_us);
    out.insert("path.client_us", per_path_us(paths.client_ns));
    out.insert("path.wire_us", per_path_us(paths.wire_ns));
    out.insert("path.accept_us", per_path_us(paths.accept_ns));
    out.insert("path.replica_us", per_path_us(paths.replica_ns));
    out.insert(
        "pump.hops_per_op",
        paths.hops as f64 / paths.ops.max(1) as f64,
    );
    out.insert("host.overhead_us", live.p50_us() - critical_us);

    let leader = pass.leader();
    let slots = traced::gauge(leader, gauges::LOG_LEN);
    let per_kop = |v: f64| v / (ops / 1e3);
    out.insert("log.msgs_per_op", counts.op_peer_frames as f64 / ops);
    out.insert("log.slots_per_kop", per_kop(slots));
    out.insert(
        "log.ops_per_batch",
        if slots > 0.0 { writes / slots } else { 0.0 },
    );
    out.insert(
        "log.phase1_skips_per_kop",
        per_kop(traced::gauge(leader, gauges::PHASE1_SKIPS)),
    );
    out.insert(
        "store.exports_per_kop",
        per_kop(traced::gauge(leader, gauges::SNAPSHOTS_TAKEN)),
    );
    out.insert("store.dup_skips", traced::gauge(leader, gauges::DUP_SKIPS));

    // The replays: the same decided sequence through one layer at a time.
    let decided = traced::decided_batches(&pass.ops, &pass.acks);
    let (mut log_ns, mut store_ns, mut wal_ns) = (0.0, 0.0, 0.0);
    if !decided.is_empty() {
        let batches: Vec<Vec<Command>> = decided
            .iter()
            .map(|(_, writes)| writes.iter().map(KvWrite::encode).collect())
            .collect();
        let log = traced::log_pass(
            spec.n,
            spec.batch,
            write_pace(spec),
            &batches,
            spec.durable,
            true,
        )?;
        log_ns = log.handler_ns as f64 / ops;
        wal_ns = log.wal_ns as f64 / ops;
        out.insert("log.ns_per_op", log_ns);
        out.insert("wal.ns_per_op", wal_ns);
        out.insert("wal.commits_per_op", log.wal_commits as f64 / ops);
        out.insert("wal.bytes_per_op", log.wal_bytes as f64 / ops);
        let store = traced::store_pass(&decided, spec.snapshot_interval);
        store_ns = (store.apply_ns + store.export_ns) as f64 / ops;
        out.insert("store.replay_ns_per_op", store_ns);
        if store.digest != leader.store().digest() {
            errors.push("store replay: digest differs from the pump leader's store".into());
        }
    }
    out.insert(
        "svc.self_ns_per_op",
        replica_ns_per_op - log_ns - store_ns - wal_ns,
    );

    if let Err(e) = write_trace(workload, seed, &pass, out) {
        errors.push(format!("trace file: {e}"));
    }
    Ok(())
}

/// The combined pace of the writing lanes, for the bare-log replay.
fn write_pace(spec: &Spec) -> (u64, u64) {
    let writers: Vec<_> = spec.lanes.iter().filter(|l| l.read_pct < 100).collect();
    let lane = writers.first().expect("a KV workload writes");
    // Writers share one pace; k of them together issue k times as often. A
    // mixed lane writes only its write share of the time.
    let write_pct = 100 - lane.read_pct;
    (
        lane.pace.0 * 100,
        lane.pace.1 * write_pct * writers.len() as u64,
    )
}

fn span_json(i: usize, s: &Span) -> Json {
    let id = |v: u32| {
        if v == NONE {
            Json::Null
        } else {
            Json::Num(f64::from(v))
        }
    };
    Json::obj([
        ("id", Json::Num(i as f64)),
        ("name", Json::Str(s.kind.name().into())),
        ("start_ns", Json::Num(s.start as f64)),
        ("end_ns", Json::Num(s.end as f64)),
        ("parent", id(s.parent)),
        ("op", id(s.op)),
    ])
}

/// Writes `<out_dir>/<workload>.trace.json`: the per-kind totals of every
/// span, each op's identity, and the full spans of the first ops.
fn write_trace(
    workload: &str,
    seed: u64,
    pass: &SvcPass,
    metrics: &Metrics,
) -> std::io::Result<()> {
    let spans = pass.pump.spans();
    let totals = pump::totals(spans, false);
    let by_kind = Kind::ALL.iter().map(|&k| {
        let t = totals[k as usize];
        (
            k.name(),
            Json::obj([
                ("count", Json::Num(t.count as f64)),
                ("total_ns", Json::Num(t.total_ns as f64)),
                ("self_ns", Json::Num(t.self_ns as f64)),
            ]),
        )
    });
    let op_json = |(k, o): (usize, &OpRec)| {
        Json::obj([
            ("op", Json::Num(k as f64)),
            ("client", Json::Num((pass.pump.n() + o.lane) as f64)),
            (
                "kind",
                Json::Str(if o.read.is_some() { "read" } else { "write" }.into()),
            ),
            ("issued_tick", Json::Num(o.issued_at as f64)),
            (
                "done_tick",
                o.done_at.map_or(Json::Null, |d| Json::Num(d as f64)),
            ),
        ])
    };
    // Spans are appended in start order, so the first ops' spans (and the
    // background work between them) are a prefix.
    let cut = spans
        .iter()
        .position(|s| s.op != NONE && s.op >= OPS_IN_FILE)
        .unwrap_or(spans.len());
    let doc = Json::obj([
        ("workload", Json::Str(workload.into())),
        ("seed", Json::Num(seed as f64)),
        ("ops", Json::Num(pass.ops.len() as f64)),
        ("client_retries", Json::Num(pass.retries as f64)),
        ("client_redirects", Json::Num(pass.redirects as f64)),
        ("spans_total", Json::Num(spans.len() as f64)),
        ("totals_by_name", Json::obj(by_kind)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        (
            "first_ops",
            Json::Arr(
                pass.ops
                    .iter()
                    .enumerate()
                    .take(OPS_IN_FILE as usize)
                    .map(op_json)
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans[..cut]
                    .iter()
                    .enumerate()
                    .map(|(i, s)| span_json(i, s))
                    .collect(),
            ),
        ),
    ]);
    let dir = sys::out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{workload}.trace.json")), doc.render())
}
