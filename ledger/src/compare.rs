//! `ledger compare A B`: applies the benchmark's own bounds to two sets of
//! run records (the line-per-run output of `ledger all`).

use crate::json::Json;
use crate::names::{self, Better, END_TO_END};
use crate::stats;
use std::collections::BTreeMap;

/// Per-layer counts that come from the pump's virtual clock (or the
/// simulator's) and so must repeat exactly for a workload and seed.
pub const EXACT: [&str; 14] = [
    "pump.frames_per_op",
    "pump.bytes_per_op",
    "pump.hops_per_op",
    "wire.bytes_per_frame",
    "log.msgs_per_op",
    "log.slots_per_kop",
    "log.ops_per_batch",
    "log.phase1_skips_per_kop",
    "store.exports_per_kop",
    "store.dup_skips",
    "wal.commits_per_op",
    "wal.bytes_per_op",
    "replica.readindex_wait_periods",
    "live.election_ticks",
];

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Run-to-run spread wider than the bound, and the two sets overlap.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The share of attempted ops that failed may rise by this much, absolute,
/// before a workload counts as regressed.
const FAILED_SHARE_BOUND: f64 = 0.001;

/// One run record.
#[derive(Debug)]
pub struct Run {
    workload: String,
    seed: u64,
    traced: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

type Set = Vec<Run>;

/// Parses a set file: one JSON run record per non-empty line.
///
/// # Errors
///
/// Returns the line number and reason of the first malformed record.
pub fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (no, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("line {}: {what}", no + 1);
        let rec = Json::parse(line).map_err(|e| bad(&e))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let seed = rec
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("no seed"))? as u64;
        let traced = rec
            .get("trace")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad("no trace"))?
            != 0.0;
        if rec.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(bad(
                "the run's outputs were not correct; it cannot be compared",
            ));
        }
        let count = |key: &str| {
            rec.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("no {key}")))
        };
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no metrics"))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        set.push(Run {
            workload: workload.to_string(),
            seed,
            traced,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        });
    }
    Ok(set)
}

fn values(set: &Set, workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Failed ÷ attempted over every run of `workload` in the set, traced or
/// not; `None` when the set has no run of it.
fn failed_share(set: &Set, workload: &str) -> Option<f64> {
    let (failed, attempted) = set
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
    (attempted > 0.0).then(|| failed / attempted)
}

/// Judges `change` against `base` on one bounded metric.
pub fn judge(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (mb, mc) = (stats::median(base), stats::median(change));
    let worse_by = match better {
        Better::Lower => (mc - mb) / mb,
        Better::Higher => (mb - mc) / mb,
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let spread = stats::quartile_spread(base).max(stats::quartile_spread(change));
    if spread <= bound {
        return Verdict::Ok;
    }
    // Too noisy to call unchanged — unless every run of the change reads
    // better than every run of the base.
    let clearly_better = match better {
        Better::Lower => max(change) < min(base),
        Better::Higher => min(change) > max(base),
    };
    if clearly_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::MAX, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::MIN, f64::max)
}

/// Compares two sets; returns the printable report and the overall verdict
/// (any regression wins over any unresolved).
pub fn compare(base: &Set, change: &Set) -> (String, Verdict) {
    let mut report = format!(
        "{:<13} {:<8} {:>14} {:>14} {:>12} {:>6} {:>7}  verdict\n",
        "workload", "metric", "base median", "change median", "change/base", "bound", "spread"
    );
    let mut overall = Verdict::Ok;
    let mut note = |v: Verdict| {
        if v == Verdict::Regressed || (v == Verdict::Unresolved && overall == Verdict::Ok) {
            overall = v;
        }
    };
    for workload in names::WORKLOADS {
        for m in &END_TO_END {
            let (b, c) = (
                values(base, workload, false, m.name),
                values(change, workload, false, m.name),
            );
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let verdict = judge(&b, &c, m.better, bound);
            note(verdict);
            let (mb, mc) = (stats::median(&b), stats::median(&c));
            report.push_str(&format!(
                "{:<13} {:<8} {:>14.3} {:>14.3} {:>12.4} {:>6.2} {:>7.3}  {}\n",
                workload,
                m.name,
                mb,
                mc,
                mc / mb,
                bound,
                stats::quartile_spread(&b).max(stats::quartile_spread(&c)),
                verdict.as_str()
            ));
        }
        // Failures: an absolute bound on the share of attempts that failed.
        if let (Some(b), Some(c)) = (failed_share(base, workload), failed_share(change, workload)) {
            let verdict = if c > b + FAILED_SHARE_BOUND {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            note(verdict);
            report.push_str(&format!(
                "{:<13} {:<8} {:>14.6} {:>14.6} {:>12} {:>6} {:>7}  {}\n",
                workload,
                "failed",
                b,
                c,
                format!("{:+.6}", c - b),
                format!("+{FAILED_SHARE_BOUND}"),
                "",
                verdict.as_str()
            ));
        }
        // Exact counts: same workload and seed must read the same.
        for b in base.iter().filter(|r| r.workload == workload && r.traced) {
            let Some(c) = change
                .iter()
                .find(|r| r.workload == workload && r.traced && r.seed == b.seed)
            else {
                continue;
            };
            for name in EXACT {
                if let (Some(x), Some(y)) = (b.metrics.get(name), c.metrics.get(name)) {
                    if x != y {
                        note(Verdict::Regressed);
                        report.push_str(&format!(
                            "{:<13} {name} differs on seed {}: base {x} change {y}  regressed\n",
                            workload, b.seed
                        ));
                    }
                }
            }
        }
    }
    report.push_str(&format!("overall: {}\n", overall.as_str()));
    (report, overall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 4 % slower with a 10 % bound and tight runs: fine.
        let ok = [104.0, 104.5, 103.5, 104.2, 103.8];
        assert_eq!(judge(&base, &ok, Better::Lower, 0.10), Verdict::Ok);
        // 20 % slower: regressed.
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(judge(&base, &slow, Better::Lower, 0.10), Verdict::Regressed);
        // For a higher-is-better metric the same numbers are a gain.
        assert_eq!(judge(&base, &slow, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&slow, &base, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Noisy and overlapping: cannot be called unchanged.
        let noisy = [80.0, 125.0, 95.0, 110.0, 100.0];
        assert_eq!(
            judge(&base, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Noisy but every run better than every base run: a clear win.
        let fast = [50.0, 80.0, 60.0, 95.0, 70.0];
        assert_eq!(judge(&base, &fast, Better::Lower, 0.10), Verdict::Ok);
    }

    fn record(workload: &str, seed: u64, trace: u8, metrics: &[(&str, f64)]) -> String {
        let m: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"correct\": true, \
             \"attempted\": 10000, \"failed\": 0, \"metrics\": {{{}}}}}\n",
            m.join(", ")
        )
    }

    #[test]
    fn sets_compare_end_to_end_and_exact_counts() {
        let mut a = String::new();
        let mut b = String::new();
        for (seed, jitter) in [(1, 0.0), (2, 1.0), (3, -1.0)] {
            let e2e = |scale: f64| {
                vec![
                    ("setup_s", 0.2),
                    ("ops_s", 5000.0 * scale + jitter),
                    ("p50_us", 170.0 / scale + jitter),
                ]
            };
            a.push_str(&record("mux_put", seed, 0, &e2e(1.0)));
            b.push_str(&record("mux_put", seed, 0, &e2e(0.7)));
            a.push_str(&record("mux_put", seed, 1, &[("pump.frames_per_op", 62.0)]));
            b.push_str(&record("mux_put", seed, 1, &[("pump.frames_per_op", 62.0)]));
        }
        let (sa, sb) = (parse_set(&a).unwrap(), parse_set(&b).unwrap());
        let (report, verdict) = compare(&sa, &sa);
        assert_eq!(verdict, Verdict::Ok, "{report}");
        let (report, verdict) = compare(&sa, &sb);
        assert_eq!(verdict, Verdict::Regressed, "{report}");
        assert!(report.contains("ops_s") && report.contains("regressed"));
        // A changed exact count is a regression on its own.
        let c = a.replace("62", "63");
        let (report, verdict) = compare(&sa, &parse_set(&c).unwrap());
        assert_eq!(verdict, Verdict::Regressed);
        assert!(
            report.contains("pump.frames_per_op differs on seed 1"),
            "{report}"
        );
        // More failed ops than the base, beyond the absolute bound, is a
        // regression even when every timing is unchanged; within it, not.
        let failing = |n: u64| a.replace("\"failed\": 0", &format!("\"failed\": {n}"));
        let (report, verdict) = compare(&sa, &parse_set(&failing(20)).unwrap());
        assert_eq!(verdict, Verdict::Regressed, "{report}");
        assert!(report.contains("failed") && report.contains("+0.002000"));
        let (report, verdict) = compare(&sa, &parse_set(&failing(5)).unwrap());
        assert_eq!(verdict, Verdict::Ok, "{report}");
        // A record of an incorrect run is refused.
        assert!(parse_set(&a.replace("true", "false")).is_err());
    }
}
