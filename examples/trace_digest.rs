//! Prints the full `TraceCounters` and leader history for a few fixed
//! `(seed, config)` runs. Used to verify that engine refactors preserve
//! behaviour byte-for-byte: run before and after, diff the output.
//!
//! The last four lines are the replicated log's behaviour pin — the same
//! runs and digests `crates/consensus/tests/log_trace_digest.rs` asserts.

#[path = "../crates/consensus/tests/digest/mod.rs"]
mod digest;

use intermittent_rotating_star::experiments::{Algorithm, Assumption, Background, Scenario};
use intermittent_rotating_star::omega::OmegaProcess;
use intermittent_rotating_star::sim::adversary::presets;
use intermittent_rotating_star::sim::{CrashPlan, SimConfig, Simulation};
use intermittent_rotating_star::types::{Duration, ProcessId, SystemConfig, Time};

fn main() {
    // Raw engine run: fig3, intermittent star, one crash, fixed seed.
    let system = SystemConfig::new(5, 2).unwrap();
    let center = ProcessId::new(4);
    for seed in [1u64, 42, 99] {
        let adversary = presets::intermittent_rotating_star(
            system,
            center,
            Duration::from_ticks(8),
            4,
            intermittent_rotating_star::sim::adversary::DelayDist::uniform(
                Duration::from_ticks(1),
                Duration::from_ticks(60),
            ),
            seed,
        );
        let processes: Vec<OmegaProcess> = system
            .processes()
            .map(|id| OmegaProcess::fig3(id, system))
            .collect();
        let mut sim = Simulation::new(
            SimConfig::new(seed, Time::from_ticks(150_000)),
            processes,
            adversary,
            CrashPlan::new().crash(ProcessId::new(0), Time::from_ticks(20_000)),
        );
        let report = sim.run();
        println!("seed {seed}: {:?}", report.counters);
        println!(
            "seed {seed}: history {:?} stab {:?}",
            report.leader_history, report.stabilization
        );
    }

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
