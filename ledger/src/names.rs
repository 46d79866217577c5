//! The metric and workload catalogue: every permanent name, its unit, its
//! direction, and (end-to-end only) the bound by which it may worsen before
//! a change counts as a regression. `BENCHMARK.json` at the repository root
//! states the same catalogue for the driver; a unit test keeps the two in
//! step. Add a metric by appending a row — never rename one, later changes
//! are judged against these names.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue row.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median; `None` for
    /// per-layer metrics, which are diagnostics and carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The default seed. Seed 7 is held out: a claim made while developing on
/// other seeds must also hold there (see the README).
pub const DEFAULT_SEED: u64 = 1;
/// Default `--seconds` (the `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 12;

/// The six workloads, in the order `ledger all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "mux_put",
    "mem_window",
    "durable_put",
    "read_tiers",
    "failover",
    "sim_election",
];

/// What one unit of work ("op") and its latency mean, per workload — the
/// end-to-end metrics are the same three names everywhere. Every value is a
/// median over the run's repetitions, in calibrated time: seconds of the
/// reference machine, not of the wall clock — each repetition is scaled by
/// the machine's speed measured before its deployment exists and after it is
/// gone (`live::with_speed`). The timed window of `failover`, which is
/// timer-bound, stays in wall-clock time — see `live::LiveResult`. The
/// wall-clock readings are the per-layer `live.ops_s` and `live.p50_us`.
///
/// There is no bounded tail metric: between two sets of ten runs the p99
/// spread up to 0.39 on `mem_window` (0.10–0.21 elsewhere), above the 0.25 a
/// bound may be, so it is reported per layer as `live.p99_us` instead.
pub const END_TO_END: [Metric; 3] = [
    // Everything before the timed window: spawn, election, first ack,
    // warm-up ops (sim: engine construction plus the warm-up ticks).
    e2e("setup_s", "s", Better::Lower, 0.25),
    // Completed primary ops per second of the timed window (acked puts;
    // lease gets + puts on read_tiers; simulated events on sim_election).
    e2e("ops_s", "1/s", Better::Higher, 0.25),
    // Median latency of the primary op: call → ack; wall time per 10 virtual
    // ticks on the sim; on the open-loop failover, due time → ack of the ops
    // that fell due within 100 ms of the crash, so it tracks the outage.
    e2e("p50_us", "us", Better::Lower, 0.25),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Metric; 77] = [
    // irs-net::wire + svc::msg, measured at the pump's frame boundaries.
    lo("wire.encode_ns_per_frame", "ns"),
    lo("wire.decode_ns_per_frame", "ns"),
    lo("wire.bytes_per_frame", "B"),
    lo("accept.ns_per_frame", "ns"),
    lo("pump.frames_per_op", "count"),
    lo("pump.bytes_per_op", "B"),
    // irs-net::reactor / poll / pool: two loopback endpoints, 128-frame bursts.
    lo("reactor.rtt_us", "us"),
    hi("reactor.frames_s", "1/s"),
    hi("reactor.frames_per_poll", "count"),
    hi("reactor.batched_send_share", "share"),
    lo("reactor.pool_fresh_per_kframe", "count"),
    // irs-net::mem.
    lo("mem.ns_per_frame", "ns"),
    // irs-consensus: the workload's decided sequence replayed through the
    // bare log, plus two fixed batch × depth cells of the protocol ceiling.
    lo("log.ns_per_op", "ns"),
    lo("log.msgs_per_op", "count"),
    lo("log.slots_per_kop", "count"),
    hi("log.ops_per_batch", "count"),
    hi("log.phase1_skips_per_kop", "count"),
    hi("log.slots_s_b1d1", "1/s"),
    hi("log.slots_s_b8d4", "1/s"),
    // irs-svc::store.
    lo("store.replay_ns_per_op", "ns"),
    lo("store.apply_ns_per_op_k256", "ns"),
    lo("store.apply_ns_per_op_k65536", "ns"),
    lo("store.export_us", "us"),
    lo("store.install_us", "us"),
    lo("store.exports_per_kop", "count"),
    lo("store.dup_skips", "count"),
    // irs-wal + svc::durability.
    lo("wal.ns_per_op", "ns"),
    lo("wal.commit_us_r1", "us"),
    lo("wal.commit_us_r8", "us"),
    lo("wal.commit_nosync_us_r1", "us"),
    lo("wal.commits_per_op", "count"),
    lo("wal.bytes_per_op", "B"),
    lo("wal.replay_us_per_krecord", "us"),
    // irs-svc::replica.
    lo("replica.ns_per_op", "ns"),
    lo("svc.self_ns_per_op", "ns"),
    lo("replica.lease_read_ns", "ns"),
    lo("replica.lease_frames_s", "1/s"),
    lo("replica.readindex_wait_periods", "count"),
    // irs-omega + irs-types::set.
    lo("omega.alive_ns_n5", "ns"),
    lo("omega.alive_ns_n64", "ns"),
    lo("omega.gossip_frames_s_n5", "1/s"),
    lo("set.union_ns_n256", "ns"),
    // irs-sim: the drifted BENCH_engine.json cell.
    hi("sim.events_s_n256", "1/s"),
    // irs-runtime (mux host loop) and the pump that stands in for it.
    lo("runtime.elect_ms_n5", "ms"),
    lo("runtime.idle_cpu_share_n5", "share"),
    lo("host.overhead_us", "us"),
    lo("pump.critical_path_us", "us"),
    lo("path.client_us", "us"),
    lo("path.wire_us", "us"),
    lo("path.accept_us", "us"),
    lo("path.replica_us", "us"),
    lo("pump.hops_per_op", "count"),
    hi("pump.ops_s", "1/s"),
    // irs-svc::client and the load generator.
    lo("client.encode_ns_per_op", "ns"),
    lo("client.retries", "count"),
    lo("client.redirects", "count"),
    lo("gen.late_p99_us", "us"),
    // irs-obs.
    lo("obs.counter_ns", "ns"),
    lo("obs.record_ns", "ns"),
    // The process and the harness itself.
    lo("proc.cpu_ms_per_kop", "ms"),
    lo("proc.rss_mb", "MB"),
    lo("proc.ctx_per_op", "count"),
    lo("harness.rep_spread", "share"),
    hi("harness.speed_factor", "share"),
    lo("trace.overhead_share", "share"),
    // What a user of this one workload sees, from the traced run's own
    // (shorter) live repetitions. Unbounded here; the three end-to-end names
    // carry the bounds.
    hi("live.ops_s", "1/s"),
    lo("live.p50_us", "us"),
    lo("live.p99_us", "us"),
    hi("live.samples", "count"),
    lo("live.failed_share", "share"),
    hi("live.write_ops_s", "1/s"),
    hi("live.read_ops_s", "1/s"),
    lo("live.read_p50_us", "us"),
    lo("live.readindex_p50_us", "us"),
    lo("live.outage_ms", "ms"),
    lo("live.slo_miss_share", "share"),
    lo("live.election_ticks", "ticks"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "bad name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w), "workload {w}");
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; it must say exactly what
    /// this catalogue says.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS as f64)
        );
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (j, m) in listed.iter().zip(catalogue) {
                assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    j.get("better").unwrap().as_str(),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
    }
}
