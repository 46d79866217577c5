//! Command-line entry point: regenerate the tables of EXPERIMENTS.md.
//!
//! ```text
//! irs-experiments list              # list experiment ids
//! irs-experiments all [--quick]     # run everything
//! irs-experiments e6 e8 [--csv]     # run selected experiments
//! irs-experiments e2 --quick --n 128   # e2 at an explicit system size
//! ```

use irs_experiments::suite;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");
    // `--n 128` / `--n=128`: system-size override for the experiments that
    // support it (currently e2, the large-n smoke).
    let n_override: Option<usize> = args.iter().enumerate().find_map(|(i, a)| {
        if let Some(v) = a.strip_prefix("--n=") {
            v.parse().ok()
        } else if a == "--n" {
            args.get(i + 1).and_then(|v| v.parse().ok())
        } else {
            None
        }
    });
    if n_override.is_some_and(|n| n < 2) {
        eprintln!("--n must be at least 2 (got {})", n_override.unwrap());
        std::process::exit(2);
    }
    let selections: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            let n_value = *i > 0 && args[*i - 1] == "--n" && a.parse::<usize>().is_ok();
            !(a.starts_with("--") || n_value)
        })
        .map(|(_, a)| a.to_lowercase())
        .collect();

    let catalogue = suite::all();

    if selections.is_empty() || selections.iter().any(|s| s == "list") {
        eprintln!("usage: irs-experiments [list | all | e1 .. e16]... [--quick] [--csv]");
        eprintln!("available experiments:");
        for (id, _) in &catalogue {
            eprintln!("  {id}");
        }
        if selections.is_empty() {
            std::process::exit(2);
        }
        return;
    }

    let run_all = selections.iter().any(|s| s == "all");
    let mut ran_any = false;
    for (id, run) in catalogue {
        if run_all || selections.iter().any(|s| s == id) {
            ran_any = true;
            let started = std::time::Instant::now();
            let table = if id == "e2" && n_override.is_some() {
                suite::e2_election_under_a_sized(quick, n_override)
            } else {
                run(quick)
            };
            let elapsed = started.elapsed();
            let mut stdout = std::io::stdout().lock();
            if csv {
                let _ = writeln!(stdout, "# {} — {}", table.id, table.title);
                let _ = write!(stdout, "{}", table.to_csv());
            } else {
                let _ = write!(stdout, "{}", table.to_text());
            }
            let _ = writeln!(
                stdout,
                "({} finished in {:.1}s{})\n",
                id,
                elapsed.as_secs_f64(),
                if quick { ", quick mode" } else { "" }
            );
        }
    }
    if !ran_any {
        eprintln!("no experiment matched {selections:?}; try `irs-experiments list`");
        std::process::exit(2);
    }
}
