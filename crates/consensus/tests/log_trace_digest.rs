//! The behaviour pin of `ReplicatedLog`: four fixed `(seed, config)` runs
//! under the seeded simulator, each asserted against an FNV-64 of everything
//! the run makes visible (see `digest/mod.rs` for what that covers). A
//! refactor of the log that is behaviour-preserving leaves every constant
//! alone; one that adds, drops, resizes or reorders a single frame moves the
//! run's digest. `cargo run --release --example trace_digest` prints the
//! same lines for a before/after diff.
//!
//! History of the constants. They were computed at PR 17, on the unmodified
//! `repeated.rs`:
//!
//! ```text
//! A 0x192d087b23ce50e5   B 0xcb4cc11ffb0083be / 0x5664a7084f48811f
//! C 0x94301c9b5799d6b4   D 0x2634887949ee5f51 / 0x14fe6461be37eefc
//! ```
//!
//! and PR 18 — the split of that file into `log/`'s parts, then the fold of
//! its four ballot openings into one — ran against exactly those. Two
//! deliberate behaviour changes of the same PR then moved them, each checked
//! before it was re-pinned (CHANGES.md has the detail):
//!
//! * every snapshot rides the chunk plane, whose frame header is 16 bytes
//!   longer than the retired single-frame install's: D-under kept every
//!   frame, gauge and counter and gained `163 × 16` in `bytes_sent`; D-over
//!   (a 40 KiB blob: one frame became two) is a different schedule;
//! * a non-leader's forward window rotates instead of re-sending its head:
//!   every scenario has a follower that holds more than `batch_max` values
//!   for longer than a check period (A 40 at 8, B 2 at 1, C and D a script
//!   that outpaces batch 2 under loss), so all six moved.

mod digest;

use irs_consensus::SNAPSHOT_CHUNK_LEN;

#[test]
fn a_stable_reign_batch_8_depth_4() {
    assert_eq!(digest::stable_reign(), 0xd0b6_a570_a30e_46e2);
}

#[test]
fn b_flicker_with_and_without_the_phase1_skip() {
    assert_eq!(digest::flicker(true), 0xc108_d1d0_4b51_9b6a);
    assert_eq!(digest::flicker(false), 0xf54d_9df6_e204_fbda);
}

#[test]
fn c_loss_duplication_and_stale_replay_across_a_leader_crash() {
    assert_eq!(digest::lossy_crash(), 0xa604_6f78_07c2_a59c);
}

#[test]
fn d_a_dark_replica_installs_a_snapshot_under_and_over_one_chunk() {
    assert_eq!(digest::lossy_crash_with_install(0), 0xe970_b8a1_d3a0_37ac);
    assert_eq!(
        digest::lossy_crash_with_install(SNAPSHOT_CHUNK_LEN + 8 * 1024),
        0xad9e_e618_452d_3e9d
    );
}
