//! Fixed `(seed, config)` runs of Ω under the seeded [`Simulation`], each
//! reduced to one FNV-64 — the behaviour pin of the engine.
//!
//! Shared by `tests/engine_trace_digest.rs` (which asserts the constants) and
//! `examples/trace_digest.rs` (which prints them for a before/after diff).
//! The digest covers the run's [`TraceCounters`], its final time, and every
//! entry of its leader-agreement history. `bytes_sent` sums the estimated
//! size of every message in send order and every send draws from the delay
//! RNG, so an event popped out of its `(time, insertion)` order moves the
//! schedule and with it the counters and the history.
//!
//! [`TraceCounters`]: intermittent_rotating_star::sim::TraceCounters

use intermittent_rotating_star::omega::{OmegaConfig, OmegaProcess, Variant};
use intermittent_rotating_star::sim::adversary::{presets, DelayDist};
use intermittent_rotating_star::sim::{CrashPlan, SimConfig, SimReport, Simulation};
use intermittent_rotating_star::types::{Duration, Fnv64, ProcessId, SystemConfig, Time};

/// The n = 64 run's horizon: past seed 1's stabilisation (tick 968), short
/// enough to stay a few seconds in a debug build.
pub const N64_HORIZON: u64 = 1_600;

/// FNV-64 over a finished run's counters, final time and leader history.
pub fn digest(report: &SimReport) -> u64 {
    let mut h = Fnv64::new();
    let mut word = |w: u64| h.write(&w.to_le_bytes());
    let c = report.counters;
    for w in [
        c.messages_sent,
        c.messages_delivered,
        c.dropped_to_crashed,
        c.constrained_sent,
        c.other_sent,
        c.bytes_sent,
        c.timers_set,
        c.timer_fires,
        c.crashes,
        c.messages_held,
        c.gate_deadline_releases,
    ] {
        word(w);
    }
    word(report.final_time.ticks());
    word(report.leader_history.len() as u64);
    for change in &report.leader_history {
        word(change.at.ticks());
        word(change.agreed.map_or(u64::MAX, |p| u64::from(p.as_u32())));
    }
    h.finish()
}

/// Figure 3 at n = 5 under the intermittent rotating star centred at p4
/// (bursts of 8 ticks, d = 4, uniform [1, 60] background), p0 crashed at
/// tick 20 000, run to tick 150 000.
pub fn raw_run(seed: u64) -> SimReport {
    let system = SystemConfig::new(5, 2).expect("n = 5, t = 2");
    let adversary = presets::intermittent_rotating_star(
        system,
        ProcessId::new(4),
        Duration::from_ticks(8),
        4,
        DelayDist::uniform(Duration::from_ticks(1), Duration::from_ticks(60)),
        seed,
    );
    let processes: Vec<OmegaProcess> = system
        .processes()
        .map(|id| OmegaProcess::fig3(id, system))
        .collect();
    Simulation::new(
        SimConfig::new(seed, Time::from_ticks(150_000)),
        processes,
        adversary,
        CrashPlan::new().crash(ProcessId::new(0), Time::from_ticks(20_000)),
    )
    .run()
}

/// The benchmark's `sim_election` run: Figure 3 at n = 64, t = 31 under the
/// eventual rotating t-star centred at p63 (Δ = 8 ticks, uniform [1, 60]
/// background), seed 1, no crash, run to [`N64_HORIZON`].
pub fn election_n64() -> SimReport {
    const SEED: u64 = 1;
    let system = SystemConfig::new(64, 31).expect("n = 64, t = 31");
    let processes: Vec<OmegaProcess> = system
        .processes()
        .map(|id| OmegaProcess::new(id, OmegaConfig::new(system, Variant::Fig3)))
        .collect();
    let adversary = presets::rotating_star_a_prime(
        system,
        ProcessId::new(63),
        Duration::from_ticks(8),
        DelayDist::uniform(Duration::from_ticks(1), Duration::from_ticks(60)),
        SEED,
    );
    Simulation::new(
        SimConfig::new(SEED, Time::from_ticks(N64_HORIZON)),
        processes,
        adversary,
        CrashPlan::new(),
    )
    .run()
}
