//! Pull-side of the live telemetry plane: scrape N nodes, parse their
//! Prometheus text back, verify it is well-formed, and merge it into one
//! cluster-wide artifact with `node` labels.
//!
//! The collector is transport-agnostic: it drives any [`ScrapeSource`]
//! (the wire-level implementation over a `Transport` lives in
//! `irs_net::wire_obs::TransportScraper`; tests use in-memory sources).
//! The same parser doubles as the exposition-conformance oracle — the
//! property tests feed arbitrary registry contents through
//! `render_prometheus` and require [`check_conformance`] to accept the
//! result.

use crate::reign::ReignStats;
use crate::scrape::ScrapeFormat;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Hard cap on chunks fetched per node: 1024 × 32 KiB = 32 MiB, far past
/// any real exposition body; a source that never says `last` is broken.
pub const MAX_CHUNKS: u32 = 1024;

/// Anything that can fetch one scrape chunk from one node.
pub trait ScrapeSource {
    /// Fetches the chunk at `cursor` of `node`'s `format` body, returning
    /// `(bytes, last)`.
    fn fetch_chunk(
        &mut self,
        node: u32,
        format: ScrapeFormat,
        cursor: u32,
    ) -> Result<(Vec<u8>, bool), String>;

    /// Fetches the whole `format` body of every node `0..n`, one result
    /// per node. The provided implementation walks the nodes one after
    /// another, so the collection's wall clock is the *sum* of the
    /// per-node scrape latencies. Sources that can keep one request in
    /// flight per node concurrently (the wire scraper) override this so
    /// a stalled or slow node only costs the *max* — a cluster scrape
    /// must not degrade linearly in one straggler.
    fn fetch_bodies(&mut self, n: u32, format: ScrapeFormat) -> Vec<Result<Vec<u8>, String>> {
        (0..n).map(|node| fetch_all(self, node, format)).collect()
    }
}

/// Walks the cursor until the source says `last`, returning the whole
/// body.
pub fn fetch_all<S: ScrapeSource + ?Sized>(
    source: &mut S,
    node: u32,
    format: ScrapeFormat,
) -> Result<Vec<u8>, String> {
    let mut body = Vec::new();
    for cursor in 0..MAX_CHUNKS {
        let (bytes, last) = source.fetch_chunk(node, format, cursor)?;
        body.extend_from_slice(&bytes);
        if last {
            return Ok(body);
        }
    }
    Err(format!(
        "node {node}: scrape body exceeded {MAX_CHUNKS} chunks"
    ))
}

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The sample name as written (histogram samples keep their
    /// `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, when present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed Prometheus text exposition.
#[derive(Debug, Default, Clone)]
pub struct Exposition {
    /// `# TYPE` declarations: family name → kind.
    pub types: HashMap<String, String>,
    /// `# HELP` declarations: family name → doc line.
    pub helps: HashMap<String, String>,
    /// Every sample, in source order.
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// Scalar (counter/gauge) samples as `(name, value-as-u64)` pairs —
    /// the shape [`ReignStats::from_metrics`] consumes. Histogram series
    /// are skipped.
    pub fn scalars(&self) -> impl Iterator<Item = (&str, u64)> {
        self.samples.iter().filter_map(|s| {
            let kind = self.types.get(&s.name)?;
            if kind == "counter" || kind == "gauge" {
                Some((s.name.as_str(), s.value as u64))
            } else {
                None
            }
        })
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        && !name.starts_with(|c: char| c.is_ascii_digit())
}

fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let key = rest[..eq].trim().to_string();
        let after = &rest[eq + 1..];
        let after = after
            .strip_prefix('"')
            .ok_or_else(|| format!("line {line_no}: unquoted label value"))?;
        let close = after
            .find('"')
            .ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((key, after[..close].to_string()));
        rest = after[close + 1..].trim_start_matches(',').trim();
    }
    Ok(labels)
}

/// Parses Prometheus text exposition. Accepts exactly the dialect
/// `render_prometheus` emits (plus arbitrary label sets, for merged
/// artifacts); rejects structurally broken lines with a description.
pub fn parse_prometheus(text: &str) -> Result<Exposition, String> {
    let mut out = Exposition::default();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or("").to_string();
            let kind = it.next().unwrap_or("").trim().to_string();
            if !valid_name(&name) || kind.is_empty() {
                return Err(format!("line {line_no}: malformed TYPE line {line:?}"));
            }
            if out.types.insert(name.clone(), kind).is_some() {
                return Err(format!("line {line_no}: duplicate TYPE for {name:?}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or("").to_string();
            let doc = it.next().unwrap_or("").trim().to_string();
            if !valid_name(&name) {
                return Err(format!("line {line_no}: malformed HELP line {line:?}"));
            }
            out.helps.insert(name, doc);
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal exposition
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = if let Some(open) = line.find('{') {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("line {line_no}: unterminated label set"))?;
            if close < open {
                return Err(format!("line {line_no}: mismatched braces"));
            }
            (
                (&line[..open], Some(&line[open + 1..close])),
                line[close + 1..].trim(),
            )
        } else {
            let mut it = line.splitn(2, ' ');
            (
                (it.next().unwrap_or(""), None),
                it.next().unwrap_or("").trim(),
            )
        };
        let (name, label_body) = name_part;
        if !valid_name(name) {
            return Err(format!("line {line_no}: bad sample name {name:?}"));
        }
        let labels = match label_body {
            Some(body) => parse_labels(body, line_no)?,
            None => Vec::new(),
        };
        let value: f64 = value_part
            .parse()
            .map_err(|_| format!("line {line_no}: bad sample value {value_part:?}"))?;
        out.samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(out)
}

/// The family a sample belongs to: its own name, or the base name for
/// histogram `_bucket`/`_sum`/`_count` series.
fn family_of(exp: &Exposition, sample_name: &str) -> Option<String> {
    if exp.types.contains_key(sample_name) {
        return Some(sample_name.to_string());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(suffix) {
            if exp.types.get(base).map(String::as_str) == Some("histogram") {
                return Some(base.to_string());
            }
        }
    }
    None
}

fn le_rank(le: &str) -> Result<u128, String> {
    if le == "+Inf" {
        Ok(u128::MAX)
    } else {
        le.parse::<u128>().map_err(|_| format!("bad le {le:?}"))
    }
}

/// Checks a parsed exposition for structural conformance:
///
/// * every sample belongs to a `# TYPE`-declared family;
/// * histogram buckets, per label-set, have strictly increasing `le`
///   edges, non-decreasing cumulative counts, and end in `+Inf`;
/// * per label-set, `_count` equals the `+Inf` bucket, `_sum` exists,
///   and an empty histogram has `_sum == 0`.
pub fn check_conformance(exp: &Exposition) -> Result<(), String> {
    // Group histogram series by (family, labels-minus-le).
    type Key = (String, Vec<(String, String)>);
    let mut buckets: HashMap<Key, Vec<(u128, f64)>> = HashMap::new();
    let mut sums: HashMap<Key, f64> = HashMap::new();
    let mut counts: HashMap<Key, f64> = HashMap::new();
    for s in &exp.samples {
        let family = family_of(exp, &s.name)
            .ok_or_else(|| format!("sample {:?} has no TYPE declaration", s.name))?;
        if exp.types.get(&family).map(String::as_str) != Some("histogram") {
            continue;
        }
        let other: Vec<(String, String)> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .cloned()
            .collect();
        let key = (family.clone(), other);
        if s.name.ends_with("_bucket") {
            let le = s
                .label("le")
                .ok_or_else(|| format!("bucket of {family:?} without le label"))?;
            buckets
                .entry(key)
                .or_default()
                .push((le_rank(le)?, s.value));
        } else if s.name.ends_with("_sum") {
            sums.insert(key, s.value);
        } else if s.name.ends_with("_count") {
            counts.insert(key, s.value);
        }
    }
    for (key, series) in &buckets {
        let (family, labels) = key;
        let ctx = format!("{family:?} {labels:?}");
        for w in series.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("{ctx}: le edges not increasing"));
            }
            if w[1].1 < w[0].1 {
                return Err(format!("{ctx}: cumulative bucket counts decreased"));
            }
        }
        // Invariant, not input: a series is created by pushing its first bucket.
        let (last_le, last_count) = *series.last().expect("non-empty by construction");
        if last_le != u128::MAX {
            return Err(format!("{ctx}: missing +Inf bucket"));
        }
        let count = *counts
            .get(key)
            .ok_or_else(|| format!("{ctx}: missing _count"))?;
        if count != last_count {
            return Err(format!("{ctx}: _count {count} != +Inf bucket {last_count}"));
        }
        let sum = *sums
            .get(key)
            .ok_or_else(|| format!("{ctx}: missing _sum"))?;
        if count == 0.0 && sum != 0.0 {
            return Err(format!("{ctx}: empty histogram with non-zero _sum"));
        }
    }
    // _sum/_count series must not appear without buckets.
    for key in sums.keys().chain(counts.keys()) {
        if !buckets.contains_key(key) {
            return Err(format!(
                "{:?} {:?}: _sum/_count without buckets",
                key.0, key.1
            ));
        }
    }
    Ok(())
}

/// One node's scraped bodies.
#[derive(Debug, Clone)]
pub struct NodeScrape {
    /// The node id (the `node` label value in the merged artifact).
    pub node: u32,
    /// The node's Prometheus text, exactly as scraped.
    pub prometheus: String,
}

/// A cluster-wide scrape: every node's verified exposition plus the
/// merge logic that produces the single artifact.
#[derive(Debug, Clone, Default)]
pub struct ClusterScrape {
    /// Per-node scrapes in collection order.
    pub nodes: Vec<NodeScrape>,
}

impl ClusterScrape {
    /// Scrapes nodes `0..n` from `source` — concurrently when the source
    /// supports it ([`ScrapeSource::fetch_bodies`]) — then parses and
    /// conformance-checks each body (a malformed node fails the
    /// collection with its node id in the error).
    pub fn collect<S: ScrapeSource + ?Sized>(source: &mut S, n: u32) -> Result<Self, String> {
        let bodies = source.fetch_bodies(n, ScrapeFormat::Prometheus);
        assert_eq!(bodies.len(), n as usize, "source answered wrong node count");
        let mut nodes = Vec::with_capacity(n as usize);
        for (node, body) in (0..n).zip(bodies) {
            let text = String::from_utf8(body?)
                .map_err(|_| format!("node {node}: scrape body is not UTF-8"))?;
            let exp = parse_prometheus(&text).map_err(|e| format!("node {node}: {e}"))?;
            check_conformance(&exp).map_err(|e| format!("node {node}: {e}"))?;
            nodes.push(NodeScrape {
                node,
                prometheus: text,
            });
        }
        Ok(ClusterScrape { nodes })
    }

    /// Merges every node's exposition into one artifact: each metric
    /// family keeps a single `# HELP`/`# TYPE` header and every sample
    /// gains a `node="i"` label identifying its origin.
    pub fn render_prometheus(&self) -> Result<String, String> {
        let mut parsed = Vec::with_capacity(self.nodes.len());
        for ns in &self.nodes {
            parsed.push((
                ns.node,
                parse_prometheus(&ns.prometheus).map_err(|e| format!("node {}: {e}", ns.node))?,
            ));
        }
        // Family order: sorted union of declared types, for a stable
        // artifact whatever order nodes answered in.
        let mut families: Vec<String> = parsed
            .iter()
            .flat_map(|(_, e)| e.types.keys().cloned())
            .collect();
        families.sort();
        families.dedup();
        let mut out = String::new();
        for family in &families {
            let mut kind: Option<&str> = None;
            for (node, exp) in &parsed {
                if let Some(k) = exp.types.get(family) {
                    match kind {
                        None => kind = Some(k),
                        Some(prev) if prev == k => {}
                        Some(prev) => {
                            return Err(format!(
                                "family {family:?}: node {node} declares {k:?}, others {prev:?}"
                            ))
                        }
                    }
                }
            }
            // Invariant, not input: `families` holds only declared TYPE keys.
            let kind = kind.expect("family came from a TYPE line");
            if let Some(help) = parsed.iter().find_map(|(_, e)| e.helps.get(family)) {
                let _ = writeln!(out, "# HELP {family} {help}");
            }
            let _ = writeln!(out, "# TYPE {family} {kind}");
            for (node, exp) in &parsed {
                for s in &exp.samples {
                    if family_of(exp, &s.name).as_deref() != Some(family.as_str()) {
                        continue;
                    }
                    let mut labels: Vec<String> = s
                        .labels
                        .iter()
                        .map(|(k, v)| format!("{k}=\"{v}\""))
                        .collect();
                    labels.push(format!("node=\"{node}\""));
                    // u64-valued samples render without a fractional part.
                    if s.value.fract() == 0.0 && s.value.abs() < 1e18 {
                        let _ =
                            writeln!(out, "{}{{{}}} {}", s.name, labels.join(","), s.value as i64);
                    } else {
                        let _ = writeln!(out, "{}{{{}}} {}", s.name, labels.join(","), s.value);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Merges every node's exposition into one JSON document keyed by
    /// node id: `{"node_0": {…}, …}` where each value is the node's
    /// scalar metrics (histograms summarised as their `_count`).
    pub fn render_json(&self) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, ns) in self.nodes.iter().enumerate() {
            let exp =
                parse_prometheus(&ns.prometheus).map_err(|e| format!("node {}: {e}", ns.node))?;
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"node_{}\":{{", ns.node);
            let mut first = true;
            for s in &exp.samples {
                let keep = match exp.types.get(&s.name).map(String::as_str) {
                    Some("counter") | Some("gauge") => true,
                    _ => s.name.ends_with("_count"),
                };
                if !keep {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":{}", s.name, s.value as u64);
            }
            out.push('}');
        }
        out.push('}');
        Ok(out)
    }

    /// The cluster-wide reign summary: each node's panel is summarised on
    /// its own (so every node's in-progress stable reign earns its
    /// credit), then combined with [`ReignStats::combine`]. `None` when no
    /// node exports a panel.
    pub fn reign_stats(&self) -> Result<Option<ReignStats>, String> {
        let mut per_node: Vec<ReignStats> = Vec::new();
        for ns in &self.nodes {
            let exp =
                parse_prometheus(&ns.prometheus).map_err(|e| format!("node {}: {e}", ns.node))?;
            if let Some(stats) = ReignStats::from_metrics(exp.scalars()) {
                per_node.push(stats);
            }
        }
        Ok(ReignStats::combine(&per_node))
    }

    /// Writes the merged Prometheus artifact atomically (tmp+rename).
    pub fn write_prometheus(&self, path: &std::path::Path) -> Result<(), String> {
        let body = self.render_prometheus()?;
        crate::expose::write_atomic(path, body.as_bytes()).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expose::Obs;
    use crate::names;
    use crate::reign::ReignTracker;
    use crate::scrape::{Responder, SCRAPE_CHUNK_LEN};
    use proptest::prelude::*;

    /// An in-memory source: one `Obs` per node, chunked exactly like the
    /// wire responder.
    struct MemSource {
        nodes: Vec<std::sync::Arc<Obs>>,
        responder: Responder,
    }

    impl ScrapeSource for MemSource {
        fn fetch_chunk(
            &mut self,
            node: u32,
            format: ScrapeFormat,
            cursor: u32,
        ) -> Result<(Vec<u8>, bool), String> {
            let obs = self
                .nodes
                .get(node as usize)
                .ok_or_else(|| format!("no node {node}"))?;
            Ok(self.responder.chunk(obs, u64::from(node), format, cursor))
        }
    }

    fn cluster_source(n: usize) -> MemSource {
        let nodes: Vec<_> = (0..n)
            .map(|i| {
                let obs = std::sync::Arc::new(Obs::metrics_only());
                let mut reign = ReignTracker::new(&obs, i, 100);
                reign.on_leader_change(0);
                reign.on_leader_change(500); // one stable 500 ms reign
                reign.tick(600);
                obs.registry()
                    .counter(names::WAL_APPENDED)
                    .add(i, (i as u64 + 1) * 10);
                obs.registry()
                    .histogram(names::WAL_COMMIT_MICROS)
                    .record(i, 40 + i as u64);
                obs
            })
            .collect();
        MemSource {
            nodes,
            responder: Responder::new(),
        }
    }

    #[test]
    fn collects_parses_and_merges_a_cluster() {
        let mut src = cluster_source(3);
        let cluster = ClusterScrape::collect(&mut src, 3).unwrap();
        let merged = cluster.render_prometheus().unwrap();
        // The headline SLO histogram is present, once per node.
        assert!(
            merged.contains("# TYPE omega_reign_ms histogram"),
            "{merged}"
        );
        for node in 0..3 {
            assert!(
                merged.contains(&format!("omega_reign_ms_count{{node=\"{node}\"}} 1")),
                "{merged}"
            );
        }
        // Exactly one TYPE header per family in the merged artifact.
        assert_eq!(
            merged
                .lines()
                .filter(|l| l.starts_with("# TYPE omega_reign_ms "))
                .count(),
            1
        );
        // The merged artifact itself parses and conforms.
        let exp = parse_prometheus(&merged).unwrap();
        check_conformance(&exp).unwrap();
        // Node labels round-trip: every sample carries one, covering 0..3.
        let mut seen: Vec<&str> = exp
            .samples
            .iter()
            .map(|s| s.label("node").expect("merged sample without node label"))
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen, vec!["0", "1", "2"]);
    }

    #[test]
    fn cluster_reign_stats_aggregate() {
        let mut src = cluster_source(2);
        let cluster = ClusterScrape::collect(&mut src, 2).unwrap();
        let stats = cluster.reign_stats().unwrap().expect("panel present");
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.reigns_total, 2);
        assert_eq!(stats.stable_reign_ms, 1_000);
        assert_eq!(stats.uptime_ms, 600);
        assert!(stats.stable_fraction > 0.8, "{stats:?}");
    }

    #[test]
    fn merged_json_keys_by_node() {
        let mut src = cluster_source(2);
        let cluster = ClusterScrape::collect(&mut src, 2).unwrap();
        let json = cluster.render_json().unwrap();
        assert!(json.contains("\"node_0\":{"), "{json}");
        assert!(json.contains("\"node_1\":{"), "{json}");
        assert!(json.contains("\"wal_appended\":20"), "{json}");
    }

    #[test]
    fn atomic_artifact_write() {
        let mut src = cluster_source(2);
        let cluster = ClusterScrape::collect(&mut src, 2).unwrap();
        let dir = std::env::temp_dir().join(format!("irs-collector-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster.prom");
        cluster.write_prometheus(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("omega_reign_ms"));
        assert!(!dir.join("cluster.prom.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fetch_all_reassembles_multi_chunk_bodies() {
        struct Paged {
            body: Vec<u8>,
        }
        impl ScrapeSource for Paged {
            fn fetch_chunk(
                &mut self,
                _node: u32,
                _format: ScrapeFormat,
                cursor: u32,
            ) -> Result<(Vec<u8>, bool), String> {
                let start = cursor as usize * SCRAPE_CHUNK_LEN;
                let end = (start + SCRAPE_CHUNK_LEN).min(self.body.len());
                if start >= self.body.len() {
                    return Ok((Vec::new(), true));
                }
                Ok((self.body[start..end].to_vec(), end == self.body.len()))
            }
        }
        let body: Vec<u8> = (0..(SCRAPE_CHUNK_LEN * 3 + 17))
            .map(|i| (i % 251) as u8)
            .collect();
        let mut src = Paged { body: body.clone() };
        let got = fetch_all(&mut src, 0, ScrapeFormat::Prometheus).unwrap();
        assert_eq!(got, body);
    }

    #[test]
    fn conformance_rejects_broken_expositions() {
        // No TYPE for the sample.
        let exp = parse_prometheus("orphan 3\n").unwrap();
        assert!(check_conformance(&exp).is_err());
        // Decreasing cumulative buckets.
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 5
";
        let exp = parse_prometheus(text).unwrap();
        assert!(check_conformance(&exp).is_err());
        // Missing +Inf.
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_sum 1
h_count 1
";
        let exp = parse_prometheus(text).unwrap();
        assert!(check_conformance(&exp).is_err());
        // _count disagrees with +Inf.
        let text = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 4
h_sum 1
h_count 5
";
        let exp = parse_prometheus(text).unwrap();
        assert!(check_conformance(&exp).is_err());
    }

    #[test]
    fn parser_rejects_torn_lines() {
        assert!(parse_prometheus("name{le=\"1\" 3\n").is_err());
        assert!(parse_prometheus("name notanumber\n").is_err());
        assert!(parse_prometheus("9bad 3\n").is_err());
    }

    proptest! {
        /// Satellite: `render_prometheus` output is conformant for
        /// arbitrary registry contents. Names come from the canonical
        /// pool with a deterministic kind per name (the registry panics
        /// on kind clashes by design).
        #[test]
        fn prop_render_prometheus_is_conformant(
            picks in proptest::collection::vec(
                (0usize..60, proptest::collection::vec(0u64..1_000_000, 0..20)),
                0..12,
            ),
        ) {
            let obs = Obs::metrics_only();
            for (name_idx, values) in &picks {
                let (name, _) = names::ALL[name_idx % names::ALL.len()];
                // Deterministic kind from the name bytes, so repeated
                // picks of the same name agree.
                let kind = name.len() % 3;
                match kind {
                    0 => {
                        let c = obs.registry().counter(name);
                        for &v in values {
                            c.add(0, v);
                        }
                    }
                    1 => {
                        let g = obs.registry().gauge(name);
                        for &v in values {
                            g.set(v);
                        }
                    }
                    _ => {
                        let h = obs.registry().histogram(name);
                        for &v in values {
                            h.record(0, v);
                        }
                    }
                }
            }
            let text = obs.render_prometheus();
            let exp = parse_prometheus(&text).expect("render must parse back");
            if let Err(e) = check_conformance(&exp) {
                panic!("{e}\n--- exposition ---\n{text}");
            }
        }

        /// Satellite: a scraped-and-merged cluster artifact stays
        /// conformant and round-trips node labels for any cluster size.
        #[test]
        fn prop_merged_artifact_roundtrips_node_labels(n in 1u32..6) {
            let mut src = cluster_source(n as usize);
            let cluster = ClusterScrape::collect(&mut src, n).unwrap();
            let merged = cluster.render_prometheus().unwrap();
            let exp = parse_prometheus(&merged).expect("merged artifact must parse");
            check_conformance(&exp).expect("merged artifact must conform");
            let mut seen: Vec<u32> = exp
                .samples
                .iter()
                .map(|s| s.label("node").unwrap().parse::<u32>().unwrap())
                .collect();
            seen.sort_unstable();
            seen.dedup();
            let expect: Vec<u32> = (0..n).collect();
            prop_assert_eq!(seen, expect);
        }
    }
}
