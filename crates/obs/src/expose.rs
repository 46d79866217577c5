//! Exposition: Prometheus-style text, JSON export, and the periodic dump
//! hook hosts attach to a running node or cluster.

use crate::names;
use crate::recorder::{Clock, FlightRecorder, Tracer};
use crate::registry::{MetricValue, Registry};
use crate::Histogram;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Renders a scrape in the Prometheus text exposition format.
///
/// Counters/gauges become one sample each; histograms expand into
/// cumulative `_bucket{le=…}` samples plus `_sum` and `_count`, with
/// bucket edges at the powers of two the log2 histogram actually uses.
/// `# HELP` lines come from the canonical name table when the name is
/// registered there.
pub fn render_prometheus(scrape: &[(&'static str, MetricValue)]) -> String {
    let mut out = String::new();
    for (name, value) in scrape {
        if let Some(doc) = names::doc(name) {
            let _ = writeln!(out, "# HELP {name} {doc}");
        }
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Hist(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (b, &c) in h.buckets().iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    cumulative += c;
                    // Bucket b holds values < 2^b (bucket 0 holds only 0).
                    let le = if b == 0 { 1u128 } else { 1u128 << b };
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{name}_sum {}", h.sum());
                let _ = writeln!(out, "{name}_count {}", h.count());
            }
        }
    }
    out
}

/// Renders a scrape as a JSON object: `{"name": n, …}` for scalars and
/// `{"name": {"count": …, "p50": …, …}}` for histograms. Hand-rolled —
/// the crate is dependency-free and the value space is just `u64`s.
pub fn render_json(scrape: &[(&'static str, MetricValue)]) -> String {
    fn hist_json(h: &Histogram) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.percentile(50.0),
            h.percentile(99.0)
        )
    }
    let mut out = String::from("{");
    for (i, (name, value)) in scrape.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let _ = write!(out, "\"{name}\":{v}");
            }
            MetricValue::Hist(h) => {
                let _ = write!(out, "\"{name}\":{}", hist_json(h));
            }
        }
    }
    out.push('}');
    out
}

/// Writes `bytes` to `path` atomically: the content lands in a `.tmp`
/// sibling first and is renamed over `path`, so an external reader (a
/// scraper tailing the examples' twice-a-second rewrites, the collector
/// artifact consumer) never observes a torn or partially written file.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The process-wide observability handle: one [`Registry`] plus an
/// optional [`FlightRecorder`], shared by every instrumented layer.
#[derive(Debug)]
pub struct Obs {
    registry: Registry,
    recorder: Option<Arc<FlightRecorder>>,
    /// One clock per `Obs`, so trace events from every layer of the
    /// process share an anchor and merge into one coherent timeline.
    clock: Clock,
}

impl Obs {
    /// Default per-node flight-recorder ring capacity.
    pub const DEFAULT_RING: usize = 512;

    /// Metrics only — no flight recorder (the cheapest enabled mode).
    pub fn metrics_only() -> Self {
        Obs {
            registry: Registry::new(),
            recorder: None,
            clock: Clock::new(),
        }
    }

    /// Metrics plus a flight recorder for `nodes` nodes with
    /// [`Obs::DEFAULT_RING`] events per node.
    pub fn new(nodes: usize) -> Self {
        Obs::with_ring(nodes, Obs::DEFAULT_RING)
    }

    /// Metrics plus a flight recorder keeping `ring` events per node.
    pub fn with_ring(nodes: usize, ring: usize) -> Self {
        Obs {
            registry: Registry::new(),
            recorder: Some(Arc::new(FlightRecorder::new(nodes, ring))),
            clock: Clock::new(),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder, when this handle carries one.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// A [`Tracer`] bound to `node` and stamped by this handle's shared
    /// clock, when a recorder is attached.
    pub fn tracer(&self, node: u32) -> Option<Tracer> {
        self.recorder
            .as_ref()
            .map(|rec| Tracer::with_clock(rec.clone(), node, self.clock))
    }

    /// Microseconds since this handle was created (the trace timeline).
    pub fn now_micros(&self) -> u64 {
        self.clock.micros()
    }

    /// Prometheus text for the current registry state.
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.registry.scrape())
    }

    /// JSON for the current registry state.
    pub fn render_json(&self) -> String {
        render_json(&self.registry.scrape())
    }

    /// The flight-recorder text dump (empty string without a recorder).
    pub fn dump_trace(&self) -> String {
        self.recorder
            .as_ref()
            .map(|r| r.dump_text())
            .unwrap_or_default()
    }

    /// Starts a background thread that rewrites `path` with the
    /// Prometheus text every `period` — the periodic dump hook for
    /// `run_node`-style hosts whose configs are `Copy` and clusters that
    /// own many nodes. The thread stops (after one final dump) when the
    /// returned guard drops.
    pub fn start_dump(self: &Arc<Self>, period: Duration, path: impl Into<PathBuf>) -> DumpGuard {
        let obs = Arc::clone(self);
        let path = path.into();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let period = period.max(Duration::from_millis(1));
        let thread = std::thread::spawn(move || {
            loop {
                // Sleep in small slices so the guard drop is prompt even
                // with a multi-second period.
                let mut slept = Duration::ZERO;
                while slept < period && !stop_thread.load(Ordering::Acquire) {
                    let slice = (period - slept).min(Duration::from_millis(20));
                    std::thread::sleep(slice);
                    slept += slice;
                }
                let _ = write_atomic(&path, obs.render_prometheus().as_bytes());
                if stop_thread.load(Ordering::Acquire) {
                    return;
                }
            }
        });
        DumpGuard {
            stop,
            thread: Some(thread),
        }
    }
}

/// Stops the periodic dump thread (one final dump included) on drop.
#[derive(Debug)]
pub struct DumpGuard {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Drop for DumpGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventKind;

    #[test]
    fn prometheus_renders_all_three_kinds() {
        let r = Registry::new();
        r.counter(names::NET_FRAMES_RX).add(0, 12);
        r.gauge(names::NET_SEND_QUEUE_DEPTH).set(3);
        let h = r.histogram(names::WAL_COMMIT_MICROS);
        h.record(0, 0);
        h.record(0, 5);
        h.record(0, 300);
        let text = render_prometheus(&r.scrape());
        assert!(text.contains("# TYPE net_frames_rx counter"), "{text}");
        assert!(text.contains("net_frames_rx 12"), "{text}");
        assert!(text.contains("# TYPE net_send_queue_depth gauge"), "{text}");
        assert!(
            text.contains("# HELP wal_commit_micros WAL commit latency, us"),
            "{text}"
        );
        assert!(
            text.contains("wal_commit_micros_bucket{le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("wal_commit_micros_bucket{le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("wal_commit_micros_sum 305"), "{text}");
        assert!(text.contains("wal_commit_micros_count 3"), "{text}");
    }

    /// The store digest's `# HELP` line (what E15's scrape reads) says what
    /// `KvStore::digest` computes: an order-independent sum.
    #[test]
    fn the_kv_digest_help_line_says_order_independent() {
        let r = Registry::new();
        r.gauge(names::KV_DIGEST).set(0xD1);
        let text = render_prometheus(&r.scrape());
        let help = text
            .lines()
            .find(|l| l.starts_with("# HELP kv_digest "))
            .unwrap_or_else(|| panic!("no kv_digest help line: {text}"));
        assert_eq!(
            help,
            "# HELP kv_digest order-independent store digest: \
             one hash per binding and per client cursor, summed"
        );
        assert!(text.contains("kv_digest 209\n"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_edge_correct() {
        let r = Registry::new();
        let h = r.histogram(names::SVC_APPLY_MICROS);
        // 5 → bucket 3 (le 8); 9 → bucket 4 (le 16).
        h.record(0, 5);
        h.record(0, 9);
        let text = render_prometheus(&r.scrape());
        assert!(
            text.contains("svc_apply_micros_bucket{le=\"8\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("svc_apply_micros_bucket{le=\"16\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = Registry::new();
        r.counter(names::RUNTIME_POLLS).add(0, 2);
        r.histogram(names::SVC_APPLY_MICROS).record(0, 7);
        let json = render_json(&r.scrape());
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"runtime_polls\":2"), "{json}");
        assert!(json.contains("\"svc_apply_micros\":{\"count\":1"), "{json}");
    }

    #[test]
    fn obs_modes_and_tracer() {
        let m = Obs::metrics_only();
        assert!(m.recorder().is_none());
        assert!(m.tracer(0).is_none());
        assert_eq!(m.dump_trace(), "");

        let full = Obs::with_ring(2, 16);
        let t = full.tracer(1).expect("recorder attached");
        t.emit(5, EventKind::LeaderChange, 0, 1);
        assert!(full.dump_trace().contains("leader_change"));
    }

    #[test]
    fn periodic_dump_writes_and_stops() {
        let dir = std::env::temp_dir().join(format!("irs-obs-dump-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let obs = Arc::new(Obs::metrics_only());
        obs.registry().counter(names::RUNTIME_POLLS).add(0, 9);
        {
            let _guard = obs.start_dump(Duration::from_millis(5), &path);
            std::thread::sleep(Duration::from_millis(40));
        }
        let text = std::fs::read_to_string(&path).expect("dump file written");
        assert!(text.contains("runtime_polls 9"), "{text}");
        // tmp+rename: the staging sibling never survives a dump cycle.
        assert!(
            !dir.join("metrics.prom.tmp").exists(),
            "staging file left behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_whole_files() {
        let dir = std::env::temp_dir().join(format!("irs-obs-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.prom");
        write_atomic(&path, b"first version, quite long").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(!dir.join("a.prom.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
