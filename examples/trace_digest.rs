//! Prints the full `TraceCounters` and leader history for a few fixed
//! `(seed, config)` runs. Used to verify that engine refactors preserve
//! behaviour byte-for-byte: run before and after, diff the output.
//!
//! The `engine` lines are the engine's behaviour pin — the digests
//! `tests/engine_trace_digest.rs` asserts. The last four lines are the
//! replicated log's behaviour pin — the same
//! runs and digests `crates/consensus/tests/log_trace_digest.rs` asserts.

#[path = "../crates/consensus/tests/digest/mod.rs"]
mod digest;
#[path = "../tests/engine_digest/mod.rs"]
mod engine_digest;

use intermittent_rotating_star::experiments::{Algorithm, Assumption, Background, Scenario};

fn main() {
    // Raw engine runs (see `engine_digest/mod.rs`): fig3, intermittent
    // star, one crash, fixed seeds; then the n = 64 election.
    for seed in [1u64, 42, 99] {
        let report = engine_digest::raw_run(seed);
        println!("seed {seed}: {:?}", report.counters);
        println!(
            "seed {seed}: history {:?} stab {:?}",
            report.leader_history, report.stabilization
        );
        println!(
            "engine seed {seed}: {:#018x}",
            engine_digest::digest(&report)
        );
    }
    let report = engine_digest::election_n64();
    println!(
        "engine n64: {:#018x} stab {:?}",
        engine_digest::digest(&report),
        report.stabilization
    );

    // Through the scenario layer (every assumption dispatch path).
    for assumption in [
        Assumption::RotatingStar,
        Assumption::Intermittent { d: 4 },
        Assumption::MessagePattern,
        Assumption::EventuallySynchronous,
    ] {
        let scenario = Scenario::new("digest", 5, 2, Algorithm::Fig3, assumption)
            .with_background(Background::Growing)
            .with_crash(1, 25_000)
            .with_horizon(120_000, 0)
            .with_seeds(&[7, 8]);
        for outcome in scenario.run() {
            println!(
                "{}: msgs {} bytes {} stab {:?} leader {:?} maxsusp {} rounds {}",
                assumption.label(),
                outcome.messages_sent,
                outcome.bytes_sent,
                outcome.stabilization_ticks,
                outcome.leader,
                outcome.max_susp_level,
                outcome.rounds_closed,
            );
        }
    }

    // The replicated log (see `digest/mod.rs` for the four scenarios).
    let over = irs_consensus::SNAPSHOT_CHUNK_LEN + 8 * 1024;
    println!("log A: {:#018x}", digest::stable_reign());
    println!(
        "log B: skip {:#018x} per-slot {:#018x}",
        digest::flicker(true),
        digest::flicker(false)
    );
    println!("log C: {:#018x}", digest::lossy_crash());
    println!(
        "log D: under {:#018x} over {:#018x}",
        digest::lossy_crash_with_install(0),
        digest::lossy_crash_with_install(over)
    );
}
