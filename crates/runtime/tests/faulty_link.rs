//! Elections over `FaultyLink` link models: duty-cycle intermittency forces
//! a re-election after every off-window (acceptance criterion), and a
//! partition healed before the horizon still yields a stable leader
//! (satellite proptest).

use irs_net::{DutyCycle, FaultyLink, LinkModel, ManualClock, MemNetwork, Partition};
use irs_omega::OmegaProcess;
use irs_runtime::{Deployment, RealtimeConfig};
use irs_types::{ProcessId, SystemConfig};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn wait_until<F: Fn() -> bool>(deadline: Instant, check: F) -> bool {
    while Instant::now() < deadline {
        if check() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    check()
}

/// Waits for an agreement that *holds* for `hold` — Ω promises eventual
/// stability, and right after a disruption heals, a suspicion round already
/// past its quorum may still legitimately move the leader once more.
/// Agreement only counts once every node has progressed through real ALIVE
/// rounds: the all-default initial state trivially agrees on `p1`.
fn wait_for_stable_agreement<P>(
    cluster: &Deployment<P>,
    deadline: Instant,
    hold: Duration,
) -> Option<ProcessId>
where
    P: irs_types::Protocol + irs_types::Introspect + Send + 'static,
    P::Msg: irs_net::Wire,
{
    let mut current: Option<(ProcessId, Instant)> = None;
    while Instant::now() < deadline {
        let progressed = cluster.snapshots().iter().all(|s| s.sending_round > 10);
        let agreed = if progressed {
            cluster.agreed_leader()
        } else {
            None
        };
        match (agreed, current) {
            (Some(l), Some((held, since))) if l == held => {
                if since.elapsed() >= hold {
                    return Some(l);
                }
            }
            (Some(l), _) => current = Some((l, Instant::now())),
            (None, _) => current = None,
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

fn omega_processes(n: usize, t: usize) -> Vec<OmegaProcess> {
    let system = SystemConfig::new(n, t).unwrap();
    system
        .processes()
        .map(|id| OmegaProcess::fig3(id, system))
        .collect()
}

/// `n` Figure 3 processes, each on its own in-memory endpoint behind a
/// fault-injecting link: `model(p)` shapes what process `p` receives.
fn faulty_cluster(
    n: usize,
    t: usize,
    mut model: impl FnMut(ProcessId) -> LinkModel,
) -> Deployment<OmegaProcess> {
    let links = MemNetwork::mesh(n)
        .into_iter()
        .enumerate()
        .map(|(i, link)| FaultyLink::new(link, model(ProcessId::new(i as u32))))
        .collect();
    Deployment::spawn_on(omega_processes(n, t), RealtimeConfig::default(), links)
}

/// The per-node dark regions of the duty-cycle schedule: node `k` is dark
/// over the model-clock region `[k·10 000 + 1 000, k·10 000 + 4 000)` and
/// connected everywhere else. The test owns the [`ManualClock`], so an
/// off-window "happens" by parking the clock inside the current leader's
/// region — the receiver-driven analogue of B1931+24 switching off.
const REGION: u64 = 10_000;
const NEUTRAL_TICK: u64 = 900_000;

fn dark_region(node: u32) -> DutyCycle {
    let period = 1_000_000;
    let width = 3_000;
    let start = u64::from(node) * REGION + 1_000;
    DutyCycle {
        node,
        period,
        on: period - width,
        phase: period - width - start,
    }
}

/// Acceptance criterion: under a duty-cycle intermittency schedule, the
/// cluster re-elects after *each* off-window. Two windows, each darkening
/// the leader elected before it; each must produce a new agreed leader.
#[test]
fn duty_cycle_off_windows_force_reelection_after_each() {
    let n = 8;
    let clock = ManualClock::new();
    clock.set(NEUTRAL_TICK);
    let cluster = faulty_cluster(n, 3, |_receiver| {
        let mut model = LinkModel::new(0x0B19_3124).with_manual_clock(clock.clone());
        for node in 0..n as u32 {
            model = model.with_duty_cycle(dark_region(node));
        }
        model
    });

    // Let the deployment elect and settle before the first off-window.
    let mut leader = wait_for_stable_agreement(
        &cluster,
        Instant::now() + Duration::from_secs(20),
        Duration::from_millis(700),
    )
    .expect("no settled leader before the first off-window");

    for window in 0..2 {
        let dark = leader;
        // Off-window: park the model clock inside the current leader's dark
        // region. Its ALIVEs stop arriving anywhere; everyone else keeps a
        // full quorum and re-elects among themselves. (The dark node's own
        // output goes stale, so full agreement resumes only after the
        // window closes.)
        clock.set(u64::from(dark.as_u32()) * REGION + 2_000);
        let others_moved = wait_until(Instant::now() + Duration::from_secs(20), || {
            let mut outs = (0..n as u32)
                .map(ProcessId::new)
                .filter(|&p| p != dark)
                .map(|p| cluster.leader_of(p));
            let first = outs.next().expect("n > 1");
            first != dark && outs.all(|l| l == first)
        });
        assert!(
            others_moved,
            "window {window}: the connected majority never moved off the dark leader {dark}: {:?}",
            cluster.leaders()
        );
        // On-window: heal. The dark node merges the raised suspicion levels
        // and the whole cluster agrees on the new leader.
        clock.set(NEUTRAL_TICK);
        let next = wait_for_stable_agreement(
            &cluster,
            Instant::now() + Duration::from_secs(20),
            Duration::from_millis(700),
        )
        .unwrap_or_else(|| {
            panic!(
                "window {window}: no stable agreement after the off-window closed: {:?}",
                cluster.leaders()
            )
        });
        assert_ne!(
            next, dark,
            "window {window}: the off-window did not force a re-election"
        );
        leader = next;
    }
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A symmetric partition present from startup and healed before the
    /// horizon: once healed, the cluster still elects a stable leader
    /// (agreement that persists across a hold window).
    #[test]
    fn prop_partition_healed_before_horizon_still_elects(
        split in 1usize..4,
        heal_ms in 200u64..700,
        seed in 0u64..1_000,
    ) {
        let n = 4;
        let cluster = faulty_cluster(n, 1, |_receiver| {
            LinkModel::new(seed)
                .with_wall_clock(Duration::from_millis(1))
                .with_partition(Partition {
                    a: (0..split as u32).collect(),
                    b: (split as u32..n as u32).collect(),
                    from_tick: 0,
                    until_tick: heal_ms,
                    symmetric: true,
                })
        });
        let deadline = Instant::now() + Duration::from_millis(heal_ms) + Duration::from_secs(15);
        let stable = wait_for_stable_agreement(&cluster, deadline, Duration::from_millis(700));
        prop_assert!(
            stable.is_some(),
            "no stable agreement after the partition healed (split {split}, heal {heal_ms} ms): {:?}",
            cluster.leaders()
        );
        cluster.shutdown();
    }
}
