//! The behaviour pin of the simulation engine: fixed `(seed, config)` runs of
//! Ω, each asserted against an FNV-64 of its trace counters, final time and
//! leader-agreement history (see `engine_digest/mod.rs`). A change to the
//! engine that is behaviour-preserving — the event queue's representation,
//! the dispatch, the gate — leaves every constant alone; one that pops a
//! single event out of its `(time, insertion)` order moves a run's digest.
//! `cargo run --release --example trace_digest` prints the same lines for a
//! before/after diff.
//!
//! The constants were computed on the seven-level hierarchical timing wheel
//! that was the event queue until then.

mod engine_digest;

use engine_digest::{digest, election_n64, raw_run};

#[test]
fn n5_intermittent_star_with_a_crash_seed_1() {
    assert_eq!(digest(&raw_run(1)), 0xa3df_2f44_4d67_514b);
}

#[test]
fn n5_intermittent_star_with_a_crash_seed_42() {
    assert_eq!(digest(&raw_run(42)), 0x4d06_7dd0_4483_3412);
}

#[test]
fn n5_intermittent_star_with_a_crash_seed_99() {
    assert_eq!(digest(&raw_run(99)), 0x040c_0465_8015_2a57);
}

#[test]
fn n64_rotating_star_election_seed_1() {
    let report = election_n64();
    assert!(
        report.stabilization.is_some(),
        "the n = 64 run no longer elects a stable leader before its horizon"
    );
    assert_eq!(digest(&report), 0x2767_f801_4d36_3b4c);
}
