//! `ledger` — the performance ledger of the replicated KV stack.
//!
//! ```text
//! ledger run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! ledger all [--seed <n>] [--sets <k>] [--seconds <s>]
//! ledger compare <base.jsonl> <change.jsonl>
//! ```
//!
//! `run` measures one workload — untraced for the end-to-end metrics,
//! `--trace 1` for the per-layer ones — checks its outputs, and prints one
//! JSON object as the last line of standard output. `all` does both for
//! every workload, once per seed `n, n+1, …`, one record per line on standard
//! output (`ledger all --sets 10 > A.jsonl`). `compare` applies the
//! benchmark's bounds to two such files; its exit status is the verdict
//! (0 ok, 1 regressed, 3 unresolved; 2 is a usage or file error). See
//! `README.md` beside this crate for what each workload and metric is for.

// The one unsafe island is the CPU-affinity call in `sys`.
#![deny(unsafe_code)]

mod compare;
mod gen;
mod json;
mod layers;
mod live;
mod names;
mod pump;
mod rungs;
mod stats;
mod sys;
mod traced;

use json::Json;
use names::{DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage:
  ledger run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
  ledger all [--seed <n>] [--sets <k>] [--seconds <s>]
  ledger compare <base.jsonl> <change.jsonl>
workloads: mux_put mem_window durable_put read_tiers failover sim_election";

/// Exit status of a usage or file error.
const EXIT_USAGE: u8 = 2;
/// Exit status of `compare` when a metric's run-to-run spread is wider than
/// its bound, so that the sets can be called neither equal nor regressed.
const EXIT_UNRESOLVED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// `--name value` pairs; a bare `--trace` means `--trace 1`.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected {arg:?}\n{USAGE}"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().expect("peeked").as_str(),
            _ if name == "trace" => "1",
            _ => return Err(format!("--{name} needs a value\n{USAGE}")),
        };
        out.insert(name, value);
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<&str, &str>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot read {v:?}\n{USAGE}")),
    }
}

/// One run of one workload, as the record `all` writes and `compare` reads.
/// The contract object `run` prints is the same without the first four keys.
struct Record {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Record {
    /// The contract's object: `metrics` is `{name: {"value", "unit"}}` in
    /// catalogue order.
    fn contract(&self) -> Json {
        let catalogue = if self.traced {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let metrics = catalogue.iter().filter_map(|m| {
            let value = *self.metrics.get(m.name)?;
            let entry = Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.into())),
            ]);
            Some((m.name, entry))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn line(&self) -> Json {
        let Json::Obj(mut pairs) = self.contract() else {
            unreachable!("contract() builds an object");
        };
        let head = [
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
        ];
        pairs.splice(0..0, head.map(|(k, v)| (k.to_string(), v)));
        Json::Obj(pairs)
    }
}

/// Measures one workload. Progress and failed checks go to standard error;
/// standard output stays machine-readable. `rung_cache` is what the traced
/// runs of this process share (see `layers::run`).
fn measure(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    rung_cache: &mut Option<layers::Metrics>,
) -> Result<Record, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}\n{USAGE}"));
    }
    let (live, metrics, mut errors) = if traced {
        let t = layers::run(workload, seed, seconds, rung_cache)?;
        (t.live, t.metrics, t.errors)
    } else {
        let live = live::run(workload, seed, seconds)?;
        let metrics = live.end_to_end();
        (live, metrics, Vec::new())
    };
    errors.extend(live.errors().into_iter().map(String::from));
    for e in &errors {
        eprintln!("[ledger] {workload} seed {seed}: CHECK FAILED: {e}");
    }
    Ok(Record {
        workload: workload.to_string(),
        seed,
        seconds,
        traced,
        correct: errors.is_empty(),
        attempted: live.attempted(),
        failed: live.failed(),
        metrics,
    })
}

fn pin() {
    match sys::pin_to_one_cpu() {
        Some(cpu) => eprintln!("[ledger] pinned to cpu {cpu}"),
        None => eprintln!("[ledger] could not pin to one cpu; repetitions will spread wider"),
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let workload = *f
        .get("workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let seed = parsed(&f, "seed", DEFAULT_SEED)?;
    let seconds = parsed(&f, "seconds", DEFAULT_SECONDS as f64)?;
    let traced = parsed::<u8>(&f, "trace", 0)? != 0;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive\n{USAGE}"));
    }
    pin();
    let record = measure(workload, seed, seconds, traced, &mut None)?;
    println!("{}", record.contract().render());
    Ok(if record.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let first_seed = parsed(&f, "seed", DEFAULT_SEED)?;
    let sets = parsed(&f, "sets", 1u64)?;
    let seconds = parsed(&f, "seconds", DEFAULT_SECONDS as f64)?;
    pin();
    let mut all_correct = true;
    let mut rung_cache = None;
    for seed in first_seed..first_seed + sets {
        for workload in WORKLOADS {
            for traced in [false, true] {
                let record = measure(workload, seed, seconds, traced, &mut rung_cache)?;
                all_correct &= record.correct;
                println!("{}", record.line().render());
            }
        }
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, change] = args else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (report, verdict) = compare::compare(&load(base)?, &load(change)?);
    print!("{report}");
    Ok(match verdict {
        compare::Verdict::Ok => ExitCode::SUCCESS,
        compare::Verdict::Regressed => ExitCode::FAILURE,
        compare::Verdict::Unresolved => ExitCode::from(EXIT_UNRESOLVED),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_a_bare_trace() {
        let args: Vec<String> = ["--workload", "mux_put", "--trace", "--seed", "7"]
            .map(String::from)
            .to_vec();
        let f = flags(&args).unwrap();
        assert_eq!(f["workload"], "mux_put");
        assert_eq!(f["trace"], "1");
        assert_eq!(parsed(&f, "seed", 1u64).unwrap(), 7);
        assert_eq!(parsed(&f, "seconds", 9.0).unwrap(), 9.0);
        assert!(flags(&["stray".to_string()]).is_err());
        assert!(flags(&["--seed".to_string()]).is_err());
        let bad = ["--seed".to_string(), "x".to_string()];
        assert!(parsed::<u64>(&flags(&bad).unwrap(), "seed", 1).is_err());
    }

    /// The printed records carry every catalogue name exactly once, each
    /// with its unit — end-to-end names untraced, per-layer names traced.
    #[test]
    fn records_carry_every_name_once_with_its_unit() {
        for (traced, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let record = Record {
                workload: "mux_put".into(),
                seed: 1,
                seconds: 9.0,
                traced,
                correct: true,
                attempted: 10,
                failed: 0,
                metrics: catalogue.iter().map(|m| (m.name, 1.5)).collect(),
            };
            let text = record.contract().render();
            assert!(!text.contains('\n'));
            let back = Json::parse(&text).unwrap();
            let keys: Vec<&str> = back
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = back.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(metrics.len(), catalogue.len());
            for (m, (name, value)) in catalogue.iter().zip(metrics) {
                assert_eq!(name, m.name);
                assert_eq!(value.get("unit").unwrap().as_str(), Some(m.unit));
                assert_eq!(value.get("value").unwrap().as_f64(), Some(1.5));
                assert_eq!(text.matches(&format!("\"{}\":", m.name)).count(), 1);
            }
            let line = record.line().render();
            let parsed_line = Json::parse(&line).unwrap();
            assert_eq!(
                parsed_line.get("workload").unwrap().as_str(),
                Some("mux_put")
            );
            assert_eq!(
                parsed_line.get("trace").unwrap().as_f64(),
                Some(f64::from(u8::from(traced)))
            );
            assert!(compare::parse_set(&line).is_ok());
        }
    }
}
