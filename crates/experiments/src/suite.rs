//! The experiment suite: one function per row-block of EXPERIMENTS.md.
//!
//! Every function returns a [`Table`] and takes a `quick` flag: `quick` runs
//! use fewer seeds, smaller systems and shorter horizons so that the whole
//! suite stays affordable inside CI and Criterion; the full runs are what
//! EXPERIMENTS.md records.

use crate::outcome::Aggregate;
use crate::scenario::{run_batch, Algorithm, Assumption, Background, Scenario};
use crate::table::Table;
use irs_consensus::{ConsensusProcess, Value};
use irs_omega::OmegaProcess;
use irs_sim::adversary::presets;
use irs_sim::{CrashPlan, SimConfig, Simulation};
use irs_svc::loadgen::{closed_loop, ClientAcks, ClientReads, ClosedLoopOptions, LoadReport};
use irs_types::{Duration, GrowthFn, ProcessId, SystemConfig, Time};

fn seeds(quick: bool) -> Vec<u64> {
    if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 3, 4, 5]
    }
}

/// E1 — Theorem 1: election under `A′` (rotating star every round), as a
/// function of the system size.
pub fn e1_election_under_a_prime(quick: bool) -> Table {
    let mut table = Table::new(
        "E1",
        "Eventual election under A' (rotating t-star, every round)",
        &[
            "n",
            "t",
            "algorithm",
            "stabilised",
            "median stab time",
            "median msgs",
            "leader=center",
        ],
    );
    let sizes: &[(usize, usize)] = if quick {
        &[(4, 1), (8, 3)]
    } else {
        &[(4, 1), (8, 3), (16, 7), (32, 15)]
    };
    // Build every cell first, then fan all (scenario, seed) runs out at once.
    let mut cells = Vec::new();
    let mut scenarios = Vec::new();
    for &(n, t) in sizes {
        for algorithm in [Algorithm::Fig1, Algorithm::Fig3] {
            cells.push((n, t, algorithm));
            scenarios.push(
                Scenario::new("e1", n, t, algorithm, Assumption::RotatingStar)
                    .with_horizon(if quick { 120_000 } else { 250_000 }, 15_000)
                    .with_seeds(&seeds(quick)),
            );
        }
    }
    for ((n, t, algorithm), outcomes) in cells.into_iter().zip(run_batch(&scenarios)) {
        let agg = Aggregate::from_outcomes(&outcomes);
        table.push_row(vec![
            n.to_string(),
            t.to_string(),
            algorithm.label().to_string(),
            agg.stab_cell(),
            agg.stab_time_cell(),
            format!("{}", agg.messages.median()),
            format!("{}/{}", agg.leader_was_center, agg.runs),
        ]);
    }
    table
}

/// E2 — Theorems 2/3: election under the intermittent star `A`, as a
/// function of the gap bound `D`, contrasting Figure 1 with Figures 2/3.
pub fn e2_election_under_a(quick: bool) -> Table {
    e2_election_under_a_sized(quick, None)
}

/// [`e2_election_under_a`] at an explicit system size (`--n` on the command
/// line). The default (`None`) runs the paper-scale `n = 5, t = 2` grid; an
/// override runs a reduced large-`n` smoke grid — one gap bound, Figure 3
/// only, a shorter horizon sized so `n = 128` stays a few seconds of wall
/// clock — which is what the CI large-n job executes.
pub fn e2_election_under_a_sized(quick: bool, n_override: Option<usize>) -> Table {
    let (n, t) = match n_override {
        Some(n) => (n, (n - 1) / 2),
        None => (5, 2),
    };
    let large = n_override.is_some_and(|n| n > 16);
    let mut table = Table::new(
        "E2",
        &format!("Eventual election under A (intermittent rotating t-star), varying D (n = {n})"),
        &[
            "D",
            "algorithm",
            "stabilised",
            "median stab time",
            "distinct leaders",
        ],
    );
    let ds: &[u64] = if large {
        &[4]
    } else if quick {
        &[2, 8]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let algorithms: &[Algorithm] = if large {
        &[Algorithm::Fig3]
    } else {
        &[Algorithm::Fig1, Algorithm::Fig2, Algorithm::Fig3]
    };
    let horizon = if large {
        12_000
    } else if quick {
        150_000
    } else {
        300_000
    };
    let quiet = if large { 3_000 } else { 20_000 };
    let seed_list = if large { vec![1] } else { seeds(quick) };
    let mut cells = Vec::new();
    let mut scenarios = Vec::new();
    for &d in ds {
        for &algorithm in algorithms {
            cells.push((d, algorithm));
            // At n ≥ 128 the scenario defaults into the large-n
            // configuration: delta-encoded gossip with a periodic full
            // refresh (trace-equivalent in leader history; see the
            // delta_gossip tests).
            let s = Scenario::new("e2", n, t, algorithm, Assumption::Intermittent { d })
                .with_background(Background::Growing)
                .with_horizon(horizon, quiet)
                .with_seeds(&seed_list);
            scenarios.push(s);
        }
    }
    for ((d, algorithm), outcomes) in cells.into_iter().zip(run_batch(&scenarios)) {
        let agg = Aggregate::from_outcomes(&outcomes);
        table.push_row(vec![
            d.to_string(),
            algorithm.label().to_string(),
            agg.stab_cell(),
            agg.stab_time_cell(),
            format!("{:.1}", agg.mean_distinct_leaders),
        ]);
    }
    table
}

/// E3 — Lemmas 1/3: a crashed process's suspicion level keeps growing and
/// the leadership moves off it.
pub fn e3_crash_suspicion_growth(quick: bool) -> Table {
    let mut table = Table::new(
        "E3",
        "Crash of the elected leader: suspicion growth and re-election",
        &[
            "variant",
            "crashed proc",
            "stabilised",
            "final leader != crashed",
            "max susp of crashed",
            "max susp of leader",
        ],
    );
    for algorithm in [Algorithm::Fig1, Algorithm::Fig3] {
        let scenario = Scenario::new("e3", 5, 2, algorithm, Assumption::RotatingStar)
            .with_crash(0, 40_000)
            .with_horizon(if quick { 160_000 } else { 300_000 }, 20_000)
            .with_seeds(&seeds(quick));
        let outcomes = scenario.run();
        let agg = Aggregate::from_outcomes(&outcomes);
        let moved = outcomes
            .iter()
            .filter(|o| o.leader.is_some() && o.leader != Some(ProcessId::new(0)))
            .count();
        table.push_row(vec![
            algorithm.label().to_string(),
            "p1".to_string(),
            agg.stab_cell(),
            format!("{moved}/{}", agg.runs),
            agg.max_susp_level.to_string(),
            // For Fig3 the leader's level is within 1 of the minimum by Lemma 8.
            format!("spread<={}", agg.max_spread),
        ]);
    }
    table
}

/// E4 — Lemmas 2/4/5: once elected, the leader stops being suspected — the
/// agreement never changes again over a long horizon.
pub fn e4_suspicion_stabilisation(quick: bool) -> Table {
    let mut table = Table::new(
        "E4",
        "Suspicion stabilisation: leadership changes over a long run",
        &[
            "assumption",
            "algorithm",
            "stabilised",
            "distinct leaders",
            "last change (ticks)",
            "horizon",
        ],
    );
    let horizon = if quick { 200_000 } else { 500_000 };
    for assumption in [Assumption::RotatingStar, Assumption::Intermittent { d: 4 }] {
        let scenario = Scenario::new("e4", 5, 2, Algorithm::Fig3, assumption)
            .with_horizon(horizon, 0) // run the full horizon: stability must persist
            .with_seeds(&seeds(quick));
        let outcomes = scenario.run();
        let agg = Aggregate::from_outcomes(&outcomes);
        table.push_row(vec![
            assumption.label(),
            "fig3".to_string(),
            agg.stab_cell(),
            format!("{:.1}", agg.mean_distinct_leaders),
            agg.stab_time_cell(),
            horizon.to_string(),
        ]);
    }
    table
}

/// E5 — Lemma 8 / Theorem 4: with Figure 3 every variable except the round
/// numbers is bounded; Figures 1/2 are not.
pub fn e5_bounded_variables(quick: bool) -> Table {
    let mut table = Table::new(
        "E5",
        "Bounded variables (crashed process in the system, identical schedules)",
        &[
            "variant",
            "max susp level",
            "max timer (ticks)",
            "max spread",
            "B",
            "all <= B+1",
        ],
    );
    for algorithm in [Algorithm::Fig1, Algorithm::Fig2, Algorithm::Fig3] {
        let scenario = Scenario::new("e5", 5, 2, algorithm, Assumption::RotatingStar)
            .with_crash(1, 10_000)
            .with_horizon(if quick { 150_000 } else { 300_000 }, 0)
            .with_seeds(&seeds(quick)[..1.max(seeds(quick).len() / 2)]);
        let outcomes = scenario.run();
        let agg = Aggregate::from_outcomes(&outcomes);
        let b = outcomes.iter().map(|o| o.theorem4_b).max().unwrap_or(0);
        table.push_row(vec![
            algorithm.label().to_string(),
            agg.max_susp_level.to_string(),
            agg.max_timer_ticks.to_string(),
            agg.max_spread.to_string(),
            b.to_string(),
            if agg.theorem4_all_hold {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    table
}

/// E6 — the assumption matrix: which algorithm stabilises under which
/// assumption. The paper's algorithm is the only one that covers every
/// column that admits Ω at all.
pub fn e6_assumption_matrix(quick: bool) -> Table {
    let assumptions = [
        Assumption::EventuallySynchronous,
        Assumption::TSource,
        Assumption::MovingSource,
        Assumption::MessagePattern,
        Assumption::Combined,
        Assumption::RotatingStar,
        Assumption::Intermittent { d: 4 },
    ];
    let algorithms = [
        Algorithm::Fig3,
        Algorithm::TimeoutAll,
        Algorithm::TSourceCounter,
        Algorithm::MessagePatternMMR,
    ];
    let mut headers: Vec<&str> = vec!["algorithm \\ assumption"];
    let labels: Vec<String> = assumptions.iter().map(|a| a.label()).collect();
    headers.extend(labels.iter().map(|s| s.as_str()));
    let mut table = Table::new(
        "E6",
        "Assumption matrix: runs stabilised / final min suspicion counter (growing background delays)",
        &headers,
    );
    // Full-horizon runs (no early stop): "stabilised" then means the
    // agreement reached was never disturbed again, which is the criterion
    // that separates the algorithms once the background delays have grown
    // large. The whole matrix is one batch: every (algorithm, assumption,
    // seed) simulation runs concurrently.
    let mut scenarios = Vec::new();
    for algorithm in algorithms {
        for assumption in assumptions {
            scenarios.push(
                Scenario::new("e6", 4, 1, algorithm, assumption)
                    .with_background(Background::Growing)
                    .with_horizon(if quick { 150_000 } else { 300_000 }, 0)
                    .with_seeds(if quick { &[1, 2] } else { &[1, 2, 3] }),
            );
        }
    }
    let mut results = run_batch(&scenarios).into_iter();
    for algorithm in algorithms {
        let mut row = vec![algorithm.label().to_string()];
        for _assumption in assumptions {
            let outcomes = results.next().expect("one result batch per cell");
            let agg = Aggregate::from_outcomes(&outcomes);
            // An algorithm genuinely covered by the assumption not only keeps
            // a stable leader, its suspicions of that leader *stop*: the
            // smallest final counter stays small. An algorithm outside its
            // assumption keeps charging every process forever even when its
            // arg-min output happens to look stable over the horizon.
            let settled = outcomes.iter().map(|o| o.min_susp_level).max().unwrap_or(0);
            row.push(format!("{} s={}", agg.stab_cell(), settled));
        }
        table.push_row(row);
    }
    table
}

/// E7 — Section 7: the `A_{f,g}` variant elects a leader when delays and
/// star gaps grow without bound, provided the algorithm knows `f` and `g`.
pub fn e7_fg_extension(quick: bool) -> Table {
    let mut table = Table::new(
        "E7",
        "A_{f,g}: growing timeliness bound and star gaps",
        &["f", "g", "algorithm", "stabilised", "median stab time"],
    );
    let f = GrowthFn::Log2;
    let g = GrowthFn::Log2;
    let cases = [
        ("log2", "log2", Algorithm::Fg { f, g }),
        ("log2", "log2", Algorithm::Fig3), // does not know f, g
    ];
    for (fl, gl, algorithm) in cases {
        let scenario = Scenario::new("e7", 5, 2, algorithm, Assumption::FgStar { d: 3, f, g })
            .with_horizon(if quick { 200_000 } else { 400_000 }, 25_000)
            .with_seeds(&seeds(quick));
        let agg = Aggregate::from_outcomes(&scenario.run());
        table.push_row(vec![
            fl.to_string(),
            gl.to_string(),
            algorithm.label().to_string(),
            agg.stab_cell(),
            agg.stab_time_cell(),
        ]);
    }
    table
}

/// Outcome of one consensus run used by [`e8_consensus`].
#[derive(Clone, Copy, Debug)]
pub struct ConsensusOutcome {
    /// Did every live process decide within the horizon?
    pub all_decided: bool,
    /// Time at which the last live process decided (or the horizon).
    pub decision_ticks: u64,
    /// Messages sent in total.
    pub messages: u64,
    /// Ballots started across all processes.
    pub ballots: u64,
}

/// Runs one Ω-based consensus instance to completion (or the horizon).
pub fn run_consensus_once(
    n: usize,
    t: usize,
    d: Option<u64>,
    crash_initial_leader: bool,
    horizon: u64,
    seed: u64,
) -> ConsensusOutcome {
    let system = SystemConfig::new(n, t).expect("invalid system");
    let center = ProcessId::new(n as u32 - 1);
    let dist = Background::Static.dist();
    let processes: Vec<ConsensusProcess<OmegaProcess>> = system
        .processes()
        .map(|id| {
            let mut p = ConsensusProcess::over_omega(id, system);
            p.propose(Value(1_000 + id.as_u32() as u64));
            p
        })
        .collect();
    // The initially elected Ω leader is p1 (smallest id, all levels zero).
    // Crashing it *before* its first ballot check (80 ticks) forces the
    // decision to wait for Ω to re-elect, which is the interesting case.
    let crashes = if crash_initial_leader {
        CrashPlan::new().crash(ProcessId::new(0), Time::from_ticks(60))
    } else {
        CrashPlan::new()
    };
    let adversary = match d {
        Some(d) => presets::intermittent_rotating_star(
            system,
            center,
            Duration::from_ticks(8),
            d,
            dist,
            seed,
        ),
        None => presets::rotating_star_a_prime(system, center, Duration::from_ticks(8), dist, seed),
    };
    let mut sim = Simulation::new(
        SimConfig::new(seed, Time::from_ticks(horizon)),
        processes,
        adversary,
        crashes,
    );
    sim.start();
    while sim.step() {
        let all = system
            .processes()
            .all(|p| sim.is_crashed(p) || sim.process(p).decision().is_some());
        if all {
            break;
        }
    }
    let all_decided = system
        .processes()
        .all(|p| sim.is_crashed(p) || sim.process(p).decision().is_some());
    let ballots = system
        .processes()
        .map(|p| sim.process(p).ballots_started())
        .sum();
    ConsensusOutcome {
        all_decided,
        decision_ticks: sim.now().ticks(),
        messages: sim.trace().counters.messages_sent,
        ballots,
    }
}

/// E8 — Theorem 5: Ω-based consensus decides under `A′` and `A`, with and
/// without a crash of the initially elected leader.
pub fn e8_consensus(quick: bool) -> Table {
    let mut table = Table::new(
        "E8",
        "Theorem 5: Omega-based consensus (n = 5, t = 2)",
        &[
            "assumption",
            "leader crash",
            "decided",
            "median decision time",
            "median msgs",
            "median ballots",
        ],
    );
    let horizon = if quick { 200_000 } else { 400_000 };
    let cases = [(None, false), (None, true), (Some(4u64), false)];
    for (d, crash) in cases {
        let runs: Vec<ConsensusOutcome> = seeds(quick)
            .iter()
            .map(|&seed| run_consensus_once(5, 2, d, crash, horizon, seed))
            .collect();
        let decided = runs.iter().filter(|r| r.all_decided).count();
        let med = |f: fn(&ConsensusOutcome) -> u64| {
            irs_sim::Summary::from_samples(&runs.iter().map(f).collect::<Vec<_>>()).median()
        };
        table.push_row(vec![
            match d {
                None => "rotating-star(A')".to_string(),
                Some(d) => format!("intermittent(A,D={d})"),
            },
            if crash { "yes".into() } else { "no".into() },
            format!("{decided}/{}", runs.len()),
            med(|r| r.decision_ticks).to_string(),
            med(|r| r.messages).to_string(),
            med(|r| r.ballots).to_string(),
        ]);
    }
    table
}

/// E9 — communication cost: messages and bytes per closed round, and how
/// the timer values compare between Figure 1 and Figure 3.
pub fn e9_message_cost(quick: bool) -> Table {
    let mut table = Table::new(
        "E9",
        "Communication cost per receiving round and timer growth",
        &[
            "n",
            "variant",
            "msgs/round",
            "ALIVE share",
            "bytes/round",
            "max timer (ticks)",
        ],
    );
    let sizes: &[(usize, usize)] = if quick {
        &[(4, 1), (8, 3)]
    } else {
        &[(4, 1), (8, 3), (16, 7)]
    };
    for &(n, t) in sizes {
        for algorithm in [Algorithm::Fig1, Algorithm::Fig3] {
            let scenario = Scenario::new("e9", n, t, algorithm, Assumption::RotatingStar)
                .with_crash(0, 20_000)
                .with_horizon(if quick { 100_000 } else { 200_000 }, 0)
                .with_seeds(&seeds(quick)[..1])
                .with_center(ProcessId::new(n as u32 - 1));
            let o = &scenario.run()[0];
            let rounds = o.rounds_closed.max(1);
            table.push_row(vec![
                n.to_string(),
                algorithm.label().to_string(),
                format!("{:.1}", o.messages_sent as f64 / rounds as f64),
                format!(
                    "{:.0}%",
                    100.0 * o.constrained_sent as f64 / o.messages_sent.max(1) as f64
                ),
                format!("{:.0}", o.bytes_sent as f64 / rounds as f64),
                o.max_timer_ticks.to_string(),
            ]);
        }
    }
    table
}

/// E10 — sensitivity: stabilisation time as one parameter varies at a time.
pub fn e10_sensitivity(quick: bool) -> Table {
    let mut table = Table::new(
        "E10",
        "Sensitivity of stabilisation time (fig3, n = 5, t = 2)",
        &["parameter", "value", "stabilised", "median stab time"],
    );
    let horizon = if quick { 150_000 } else { 300_000 };
    let mut cells: Vec<(&str, String)> = Vec::new();
    let mut scenarios = Vec::new();
    // Gap bound D of the intermittent star.
    let ds: &[u64] = if quick { &[2, 8] } else { &[1, 2, 4, 8, 16] };
    for &d in ds {
        cells.push(("D", d.to_string()));
        scenarios.push(
            Scenario::new(
                "e10-d",
                5,
                2,
                Algorithm::Fig3,
                Assumption::Intermittent { d },
            )
            .with_horizon(horizon, 20_000)
            .with_seeds(&seeds(quick)),
        );
    }
    // Number of crashes (up to t).
    for crashes in 0..=2u32 {
        let mut s = Scenario::new(
            "e10-crashes",
            5,
            2,
            Algorithm::Fig3,
            Assumption::RotatingStar,
        )
        .with_horizon(horizon, 20_000)
        .with_seeds(&seeds(quick));
        for c in 0..crashes {
            s = s.with_crash(c, 20_000 + 10_000 * c as u64);
        }
        cells.push(("crashes", crashes.to_string()));
        scenarios.push(s);
    }
    // Timeliness bound delta of the star.
    let deltas: &[u64] = if quick {
        &[4, 32]
    } else {
        &[2, 4, 8, 16, 32, 64]
    };
    for &delta in deltas {
        let mut s = Scenario::new("e10-delta", 5, 2, Algorithm::Fig3, Assumption::RotatingStar)
            .with_horizon(horizon, 20_000)
            .with_seeds(&seeds(quick));
        s.delta = Duration::from_ticks(delta);
        cells.push(("delta", delta.to_string()));
        scenarios.push(s);
    }
    for ((parameter, value), outcomes) in cells.into_iter().zip(run_batch(&scenarios)) {
        let agg = Aggregate::from_outcomes(&outcomes);
        table.push_row(vec![
            parameter.into(),
            value,
            agg.stab_cell(),
            agg.stab_time_cell(),
        ]);
    }
    table
}

/// Builds the Figure 3 instances of an `n`-process deployment
/// (`t = ⌊(n−1)/2⌋`, the largest consensus-compatible resilience).
fn deployment_omega(n: usize) -> Vec<irs_omega::OmegaProcess> {
    let system = SystemConfig::new(n, (n - 1) / 2).expect("valid deployment system");
    system
        .processes()
        .map(|id| OmegaProcess::fig3(id, system))
        .collect()
}

/// Calls `probe` every 10 ms until it yields a value or `limit` has
/// passed; returns the value with the wall-clock time it took, or `None`
/// on timeout.
fn poll_until<T>(
    limit: std::time::Duration,
    mut probe: impl FnMut() -> Option<T>,
) -> Option<(T, std::time::Duration)> {
    let start = std::time::Instant::now();
    loop {
        if let Some(value) = probe() {
            return Some((value, start.elapsed()));
        }
        if start.elapsed() >= limit {
            return None;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Polls a deployment until every node has made real protocol progress
/// (several ALIVE rounds) *and* all live nodes agree on a live leader;
/// returns that leader and the wall-clock latency, or `None` on timeout.
/// Without the progress gate the all-zero initial state counts as a
/// trivial agreement at t = 0.
fn await_agreement(
    cluster: &irs_runtime::Deployment<OmegaProcess>,
    limit: std::time::Duration,
) -> Option<(ProcessId, std::time::Duration)> {
    poll_until(limit, || {
        let progressed = cluster.snapshots().iter().all(|s| s.sending_round >= 5);
        progressed.then(|| cluster.agreed_leader()).flatten()
    })
}

fn ms_cell<T>(polled: Option<(T, std::time::Duration)>) -> String {
    match polled {
        Some((_, d)) => format!("{}", d.as_millis()),
        None => "timeout".to_string(),
    }
}

/// E11 — deployment: the same Figure 3 state machines leave the simulator
/// and run over real transports (`irs-net` + `irs-runtime`), realising the
/// paper's Section 3 assumption families over real links. Four link
/// regimes: the in-memory mesh, real UDP sockets on localhost, a lossy
/// link model, and a B1931+24-style duty-cycle intermittency schedule that
/// darkens the current leader — forcing one re-election per off-window.
///
/// Wall-clock latencies vary with the host; compare regimes, not absolute
/// numbers. The UDP rows here run all sockets in one OS process; the
/// separate-OS-process deployment is `examples/socket_cluster.rs` and the
/// `socket_cluster` integration test.
pub fn e11_deployment(quick: bool) -> Table {
    use irs_net::{DutyCycle, FaultyLink, LinkModel, MemNetwork, Transport, UdpTransport};
    use irs_runtime::{Deployment, RealtimeConfig};
    use std::time::Duration as StdDuration;

    // One endpoint per process: every node on its own thread and link.
    fn spawn<T: Transport + 'static>(links: Vec<T>) -> Deployment<OmegaProcess> {
        Deployment::spawn_on(
            deployment_omega(links.len()),
            RealtimeConfig::default(),
            links,
        )
    }
    // The in-memory mesh with `model(p)` shaping what process `p` receives.
    fn faulty_mem(
        n: usize,
        mut model: impl FnMut(ProcessId) -> LinkModel,
    ) -> Deployment<OmegaProcess> {
        let links = MemNetwork::mesh(n).into_iter().enumerate();
        spawn(
            links
                .map(|(i, t)| FaultyLink::new(t, model(ProcessId::new(i as u32))))
                .collect(),
        )
    }

    let mut table = Table::new(
        "E11",
        "Deployment: election and re-election over real transports and faulty links",
        &[
            "backend",
            "link model",
            "n",
            "elected",
            "election ms",
            "re-election",
        ],
    );
    let n = 8;
    let limit = StdDuration::from_secs(if quick { 20 } else { 40 });

    // Row 1/2: fault-free election + crashed-leader re-election over the
    // in-memory mesh and over real UDP sockets.
    for backend in ["mem", "udp"] {
        let cluster = match backend {
            "mem" => spawn(MemNetwork::mesh(n)),
            _ => spawn(UdpTransport::localhost_mesh(n).expect("bind localhost sockets")),
        };
        let elected = await_agreement(&cluster, limit);
        let reelect = elected.and_then(|(first, _)| {
            cluster.crash(first);
            poll_until(limit, || cluster.agreed_leader().filter(|&l| l != first))
        });
        table.push_row(vec![
            backend.to_string(),
            "none".to_string(),
            n.to_string(),
            if elected.is_some() { "yes" } else { "no" }.to_string(),
            ms_cell(elected),
            format!("crash -> {} ms", ms_cell(reelect)),
        ]);
        cluster.shutdown();
    }

    // Row 3: seeded receiver-side loss. The algorithm needs only quorums of
    // per-round ALIVEs, so 20% uniform loss merely slows the election.
    {
        let drop_p = 0.2;
        let cluster = faulty_mem(n, |p| {
            LinkModel::new(0x0E11_D20B ^ u64::from(p.as_u32())).with_drop_prob(drop_p)
        });
        let elected = await_agreement(&cluster, limit);
        table.push_row(vec![
            "mem".to_string(),
            format!("drop p={drop_p}"),
            n.to_string(),
            if elected.is_some() { "yes" } else { "no" }.to_string(),
            ms_cell(elected),
            "-".to_string(),
        ]);
        cluster.shutdown();
    }

    // Row 4: duty-cycle intermittency (the B1931+24 trace shape). Every
    // node has its own dark region on the model clock; each "off-window"
    // parks the clock inside the *current leader's* region until the
    // connected majority re-elects, then heals. One re-election per
    // off-window is the expected count.
    {
        use irs_net::ManualClock;
        let windows = if quick { 2 } else { 3 };
        let region = 10_000u64;
        let neutral = 900_000u64;
        let clock = ManualClock::new();
        clock.set(neutral);
        let cluster = faulty_mem(n, |_| {
            let mut model = LinkModel::new(0x000E_11DC).with_manual_clock(clock.clone());
            for node in 0..n as u32 {
                let (period, width) = (1_000_000, 3_000);
                let start = u64::from(node) * region + 1_000;
                model = model.with_duty_cycle(DutyCycle {
                    node,
                    period,
                    on: period - width,
                    phase: period - width - start,
                });
            }
            model
        });
        let mut history: Vec<ProcessId> = Vec::new();
        let mut reelections = 0usize;
        // Like `await_agreement`, gate on real round progress: the
        // all-default initial state trivially agrees at t = 0, and an
        // off-window parked before any actual election would measure
        // nothing.
        let settle = |exclude: Option<ProcessId>| {
            let polled = poll_until(limit, || {
                let progressed = cluster.snapshots().iter().all(|s| s.sending_round > 5);
                let leader = progressed.then(|| cluster.agreed_leader()).flatten();
                leader.filter(|&l| Some(l) != exclude)
            });
            polled.map(|(leader, _)| leader)
        };
        if let Some(mut leader) = settle(None) {
            history.push(leader);
            for _ in 0..windows {
                clock.set(u64::from(leader.as_u32()) * region + 2_000); // dark
                std::thread::sleep(StdDuration::from_millis(300));
                clock.set(neutral); // healed
                match settle(Some(leader)) {
                    Some(next) => {
                        history.push(next);
                        reelections += 1;
                        leader = next;
                    }
                    None => break,
                }
            }
        }
        table.push_row(vec![
            "mem".to_string(),
            format!("duty-cycle, {windows} off-windows"),
            n.to_string(),
            if history.is_empty() { "no" } else { "yes" }.to_string(),
            "-".to_string(),
            format!("{reelections}/{windows} windows re-elected; leaders {history:?}"),
        ]);
        cluster.shutdown();
    }

    // Scaling curve: the multiplexed socket runtime ([`irs_runtime::Deployment::spawn_udp`]).
    // One real UDP socket per process, `W = cores` reactor shard threads
    // serving all of them through the readiness runtime — where the `udp`
    // rows above park one blocking thread per socket. Quick mode runs the
    // n = 32 point; the full run adds n = 128 (the CI mux-smoke bound: the
    // election must converge on ≤ cores threads).
    {
        use irs_omega::{OmegaConfig, Variant};

        let sizes: &[usize] = if quick { &[32] } else { &[32, 128] };
        for &size in sizes {
            let system = SystemConfig::new(size, (size - 1) / 2).expect("valid system");
            let (send_period, timeout_unit) = if size >= 64 { (300, 100) } else { (20, 10) };
            let processes: Vec<OmegaProcess> = system
                .processes()
                .map(|id| {
                    let mut c = OmegaConfig::new(system, Variant::Fig3)
                        .with_send_period(Duration::from_ticks(send_period))
                        .with_timeout_unit(Duration::from_ticks(timeout_unit));
                    if size >= 64 {
                        c = c.with_delta_gossip(8);
                    }
                    OmegaProcess::new(id, c)
                })
                .collect();
            let tick = if size >= 64 {
                StdDuration::from_millis(1)
            } else {
                StdDuration::from_micros(500)
            };
            let cluster = Deployment::spawn_udp(processes, RealtimeConfig { tick, workers: 0 })
                .expect("spawn mux cluster");
            let size_limit = StdDuration::from_secs(if size >= 64 { 120 } else { 60 });
            let elected = poll_until(size_limit, || {
                let progressed = cluster.snapshots().iter().all(|s| s.sending_round >= 3);
                progressed.then(|| cluster.agreed_leader()).flatten()
            });
            // Crash failover on the small point; at n = 128 the election
            // alone is the acceptance criterion.
            let reelect = elected.filter(|_| size < 64).and_then(|(first, _)| {
                cluster.crash(first);
                poll_until(size_limit, || {
                    cluster.agreed_leader().filter(|&l| l != first)
                })
            });
            table.push_row(vec![
                "mux-udp".to_string(),
                format!("none ({} shard threads)", cluster.worker_threads()),
                size.to_string(),
                if elected.is_some() { "yes" } else { "no" }.to_string(),
                ms_cell(elected),
                if size < 64 {
                    format!("crash -> {} ms", ms_cell(reelect))
                } else {
                    format!("{size} sockets on {} threads", cluster.worker_threads())
                },
            ]);
            cluster.shutdown();
        }
    }

    // Row 5 (full mode): loss injected over the *socket* backend — the two
    // new subsystems composed.
    if !quick {
        let drop_p = 0.15;
        let sockets: Vec<_> = UdpTransport::localhost_mesh(n)
            .expect("bind localhost sockets")
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                FaultyLink::new(
                    t,
                    LinkModel::new(0x000E_1105 ^ i as u64).with_drop_prob(drop_p),
                )
            })
            .collect();
        let cluster = spawn(sockets);
        let elected = await_agreement(&cluster, limit);
        table.push_row(vec![
            "udp".to_string(),
            format!("drop p={drop_p}"),
            n.to_string(),
            if elected.is_some() { "yes" } else { "no" }.to_string(),
            ms_cell(elected),
            "-".to_string(),
        ]);
        cluster.shutdown();
    }

    table
}

/// How a service run links its replicas.
enum Links {
    /// The in-memory mesh.
    Mem,
    /// The in-memory mesh with a seeded receiver-side drop on every replica
    /// link (clients see clean links; consensus rides the loss).
    Lossy { seed: u64, drop: f64 },
    /// Real UDP sockets, one blocking thread per endpoint.
    Udp,
    /// The same sockets on the multiplexed reactor runtime.
    MuxUdp,
}

/// What one service run left behind (see [`service_run`]).
struct ServiceRun {
    report: LoadReport,
    acked: Vec<ClientAcks>,
    reads: Vec<ClientReads>,
    crashed: Option<ProcessId>,
    /// Whether the survivors' digests agreed before the cluster froze.
    converged: bool,
    /// The frozen replicas, crashed one excluded, in id order.
    survivors: Vec<irs_svc::SvcReplica>,
}

impl ServiceRun {
    fn verdict(&self) -> Result<(), String> {
        service_verdict(&self.survivors, &self.acked, &self.reads)
    }
}

/// The service contract over frozen replicas: identical state holding every
/// acked write (`check_consistency`), and every read within its tier's
/// promise (`check_read_linearizability`).
fn service_verdict(
    replicas: &[irs_svc::SvcReplica],
    acked: &[ClientAcks],
    reads: &[ClientReads],
) -> Result<(), String> {
    let refs: Vec<&irs_svc::SvcReplica> = replicas.iter().collect();
    irs_svc::loadgen::check_consistency(&refs, acked).map_err(|e| format!("INCONSISTENT: {e}"))?;
    irs_svc::loadgen::check_read_linearizability(reads)
        .map_err(|e| format!("read contract violated: {e}"))
}

/// The E12–E16 service fixture: spawns `config`'s cluster over `links`,
/// drives `load` (crash-stopping the agreed leader `crash_after` into it,
/// if set), waits up to 30 s for the survivors' digests to agree — a
/// replica behind a lossy link catches up here — and freezes the cluster.
fn service_run(
    config: irs_svc::SvcConfig,
    links: Links,
    load: ClosedLoopOptions,
    crash_after: Option<std::time::Duration>,
) -> ServiceRun {
    use irs_svc::SvcCluster;
    let (n, clients) = (config.n, config.peers - config.n);
    match links {
        Links::Mem => {
            let (cluster, cl) = SvcCluster::in_memory(n, clients, config);
            drive(cluster, cl, load, crash_after)
        }
        Links::Lossy { seed, drop } => {
            let (cluster, cl) = SvcCluster::with_link_models(n, clients, config, |p| {
                irs_net::LinkModel::new(seed ^ u64::from(p.as_u32())).with_drop_prob(drop)
            });
            drive(cluster, cl, load, crash_after)
        }
        Links::Udp => {
            let (cluster, cl) = SvcCluster::udp(n, clients, config).expect("bind sockets");
            drive(cluster, cl, load, crash_after)
        }
        Links::MuxUdp => {
            let (cluster, cl) = SvcCluster::mux_udp(n, clients, 0, config).expect("bind sockets");
            drive(cluster, cl, load, crash_after)
        }
    }
}

/// [`service_run`] past the spawn, generic over the clients' transport.
fn drive<T: irs_net::Transport>(
    cluster: irs_svc::SvcCluster,
    mut clients: Vec<irs_svc::SvcClient<T>>,
    load: ClosedLoopOptions,
    crash_after: Option<std::time::Duration>,
) -> ServiceRun {
    let mut run = || closed_loop(&mut clients, load);
    let ((report, acked, reads), crashed) = match crash_after {
        Some(after) => {
            let (out, victim) = irs_svc::loadgen::with_leader_crash(&cluster, after, run);
            (out, Some(victim))
        }
        None => (run(), None),
    };
    let survives = |i: usize| crashed.map(ProcessId::index) != Some(i);
    let converged = poll_until(std::time::Duration::from_secs(30), || {
        let snaps = cluster.snapshots().into_iter().enumerate();
        same_store(snaps.filter(|&(i, _)| survives(i)).map(|(_, s)| s)).then_some(())
    })
    .is_some();
    let survivors = cluster.shutdown().into_iter().enumerate();
    let survivors = survivors.filter(|&(i, _)| survives(i)).map(|(_, r)| r);
    ServiceRun {
        report,
        acked,
        reads,
        crashed,
        converged,
        survivors: survivors.collect(),
    }
}

/// Whether every snapshot reports the same store digest and applied count.
fn same_store(snaps: impl IntoIterator<Item = irs_types::Snapshot>) -> bool {
    let mut states = snaps
        .into_iter()
        .map(|s| (s.gauge("kv_digest"), s.gauge("applied")));
    let first = states.next();
    states.all(|s| Some(s) == first)
}

/// The verdict cell of a crash-free closed-loop run.
fn acked_cell(run: &ServiceRun) -> String {
    match run.verdict() {
        Ok(()) => format!("{} acked, replicas identical", run.report.ops),
        Err(e) => e,
    }
}

/// E12 — the service layer: the replicated KV store (Theorem 5's log with
/// a state machine on top) under client load, per transport backend.
///
/// Ops/s and latency percentiles come from the `irs-svc` load generator
/// (closed-loop clients saturate; the open-loop row fires on a fixed
/// interval). The leader-crash row kills the elected leader mid-load over
/// a seeded lossy link model and then *verifies* the service's contract:
/// every surviving replica holds identical applied state, and no
/// acked command was lost or reordered (`loadgen::check_consistency`).
///
/// Wall-clock numbers vary with the host; compare backends and regimes,
/// not absolute values.
pub fn e12_kv_service(quick: bool) -> Table {
    use irs_svc::loadgen::{open_loop, OpenLoopOptions};
    use irs_svc::{SvcCluster, SvcConfig};
    use std::time::Duration as StdDuration;

    let mut table = Table::new(
        "E12",
        "Replicated KV service under load: ops/s and latency per backend",
        &[
            "backend", "regime", "n", "clients", "ops/s", "p50 us", "p99 us", "outcome",
        ],
    );
    let n = 5;
    let clients = if quick { 3 } else { 4 };
    let opts = ClosedLoopOptions {
        duration: StdDuration::from_secs(if quick { 2 } else { 5 }),
        op_deadline: StdDuration::from_secs(8),
        ..ClosedLoopOptions::default()
    };
    let mut push_row =
        |backend: &str, regime: &str, c: usize, report: &LoadReport, outcome: String| {
            table.push_row(vec![
                backend.to_string(),
                regime.to_string(),
                n.to_string(),
                c.to_string(),
                format!("{:.0}", report.ops_per_sec()),
                report.latency.percentile(50.0).to_string(),
                report.latency.percentile(99.0).to_string(),
                outcome,
            ]);
        };

    // Rows 1–3: closed-loop saturation over the in-memory mesh, over real
    // UDP sockets (one blocking thread per endpoint), and over the
    // multiplexed socket runtime (same sockets, `W = cores` reactor shard
    // threads for all the replicas) — the same workload, so the mux row
    // measures what the readiness runtime costs or buys over thread-per-
    // socket blocking I/O.
    for (backend, links) in [
        ("mem", Links::Mem),
        ("udp", Links::Udp),
        ("mux-udp", Links::MuxUdp),
    ] {
        let run = service_run(SvcConfig::new(n, clients), links, opts, None);
        push_row(
            backend,
            "closed-loop",
            clients,
            &run.report,
            acked_cell(&run),
        );
    }

    // Batching × pipelining grid over the mem backend (the
    // decision-latency lever: up to `b` commands per slot, `d` slots in
    // flight), then saturation rows: enough closed-loop clients that the
    // pending queue actually accumulates and slots carry real batches (with
    // few clients and a wide window every request gets its own slot, so the
    // per-slot ballot cost is never amortised). The unbatched saturation
    // row is the control: the gap between the two is what batching buys.
    // Compaction stays on, and every row keeps the machine-checked
    // consistency verdict. Quick mode runs the headline grid cell only.
    let grid: &[(usize, u64)] = if quick {
        &[(8, 4)]
    } else {
        &[(8, 1), (1, 4), (8, 4), (16, 8)]
    };
    let sat_clients = if quick { 12 } else { 16 };
    let cells = grid.iter().map(|&cell| (clients, cell));
    for (c, (b, d)) in cells.chain([(sat_clients, (1, 1)), (sat_clients, (16, 4))]) {
        let config = SvcConfig::new(n, c)
            .with_batching(b, d)
            .with_snapshot_interval(256);
        let run = service_run(config, Links::Mem, opts, None);
        let regime = format!("closed b{b}xd{d}");
        push_row("mem", &regime, c, &run.report, acked_cell(&run));
    }

    // Row 3: open-loop arrival-rate load (one client, fixed fire interval).
    {
        let (cluster, mut cl) = SvcCluster::in_memory(n, 1, SvcConfig::new(n, 1));
        let report = open_loop(
            &mut cl[0],
            OpenLoopOptions {
                duration: opts.duration,
                interval: StdDuration::from_millis(if quick { 5 } else { 2 }),
                ..OpenLoopOptions::default()
            },
        );
        cluster.shutdown();
        let outcome = format!("{} unacked at drain", report.failures);
        push_row("mem", "open-loop", 1, &report, outcome);
    }

    // Row 4: closed-loop under a seeded 10% receiver-side drop on every
    // replica link.
    {
        let lossy = Links::Lossy {
            seed: 0x0E12_D20B,
            drop: 0.1,
        };
        let run = service_run(SvcConfig::new(n, clients), lossy, opts, None);
        push_row(
            "mem+drop0.1",
            "closed-loop",
            clients,
            &run.report,
            acked_cell(&run),
        );
    }

    // Row 5: the leader goes dark mid-load (crash-stop under a lossy link
    // model) with the batched/pipelined path and compaction on. The cluster
    // must re-elect, the load must keep completing, and the survivors must
    // agree with the client-acked prefix — batches, pipelined slots and
    // truncated history included.
    {
        let obs = std::sync::Arc::new(irs_obs::Obs::new(n));
        let crash_config = SvcConfig::new(n, clients)
            .with_batching(8, 4)
            .with_snapshot_interval(64)
            .with_obs(obs.clone());
        let crash_opts = ClosedLoopOptions {
            duration: StdDuration::from_secs(if quick { 4 } else { 8 }),
            ..opts
        };
        let lossy = Links::Lossy {
            seed: 0x0E12_C4A5,
            drop: 0.05,
        };
        let run = service_run(
            crash_config,
            lossy,
            crash_opts,
            Some(crash_opts.duration / 3),
        );
        let report = &run.report;
        let outcome = match run.verdict() {
            Ok(()) => format!(
                "leader {} crashed; {} survivors identical, no acked op lost/reordered; \
                 client wait {} us (srtt {} us), {} retries",
                run.crashed.expect("crash row crashes a leader"),
                run.survivors.len(),
                report.rto_us,
                report.srtt_us,
                report.retries
            ),
            Err(e) => {
                // A failed verdict is exactly what the flight recorder is
                // for: dump the per-node trace of the run's last events as
                // a CI-collectable artifact before reporting.
                let path = flight_recorder_artifact("e12-crash", &obs);
                format!("{e} (flight recorder: {path})")
            }
        };
        push_row("mem+drop0.05", "crash b8xd4", clients, report, outcome);
    }

    table
}

/// E13 — crash-restart durability. Rows 1–4 run the same closed-loop load
/// with durability dialled from off to fsync-every-commit: the ops/s and
/// latency spread is the measured price of the WAL (group commit amortises
/// it under load; `EveryN` trades a bounded suffix for throughput). Row 5
/// replays the fsync-always run's node-0 directory offline and checks the
/// recovered store is digest-identical to the live replica it crashed out
/// of. The kill -9 + same-identity restart over OS processes and real UDP
/// sockets is `irs-svc`'s `restart_durability` test
/// (`killed_replica_recovers_with_identical_state_and_no_acked_loss`).
///
/// Wall-clock numbers vary with the host (and with the filesystem under
/// the data directory — fsync on tmpfs is nearly free); compare regimes,
/// not absolute values.
pub fn e13_durability(quick: bool) -> Table {
    use irs_svc::{FsyncPolicy, SvcConfig};
    use std::time::Duration as StdDuration;

    let mut table = Table::new(
        "E13",
        "Crash-restart durability: WAL fsync policies and recovery replay",
        &[
            "scenario",
            "durability",
            "n",
            "ops/s",
            "p50 us",
            "p99 us",
            "verdict",
        ],
    );
    let n = 3;
    let clients = if quick { 2 } else { 4 };
    let base = std::env::temp_dir().join(format!("irs-e13-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let opts = ClosedLoopOptions {
        duration: StdDuration::from_secs(if quick { 2 } else { 5 }),
        op_deadline: StdDuration::from_secs(8),
        ..ClosedLoopOptions::default()
    };

    let regimes: [(&str, Option<FsyncPolicy>); 4] = [
        ("none (baseline)", None),
        ("wal, fsync always", Some(FsyncPolicy::Always)),
        ("wal, fsync every 8", Some(FsyncPolicy::EveryN(8))),
        ("wal, no fsync (OS flush)", Some(FsyncPolicy::Never)),
    ];
    // Node-0 of the fsync-always run: its final live state and data
    // directory seed the recovery-replay row.
    let mut always_state: Option<((u64, u64), std::path::PathBuf)> = None;
    for (i, (label, policy)) in regimes.iter().enumerate() {
        let dir = base.join(format!("bench-{i}"));
        let mut config = SvcConfig::new(n, clients).with_snapshot_interval(256);
        if let Some(policy) = policy {
            config = config.with_data_dir(&dir).with_fsync(*policy);
        }
        // Dropped at the end of the iteration, which closes the WALs
        // before any offline re-open.
        let run = service_run(config, Links::Mem, opts, None);
        if matches!(policy, Some(FsyncPolicy::Always)) {
            let store = run.survivors[0].store();
            always_state = Some(((store.digest(), store.applied()), dir.clone()));
        }
        table.push_row(vec![
            "closed-loop".to_string(),
            label.to_string(),
            n.to_string(),
            format!("{:.0}", run.report.ops_per_sec()),
            run.report.latency.percentile(50.0).to_string(),
            run.report.latency.percentile(99.0).to_string(),
            acked_cell(&run),
        ]);
    }

    // Row 5: offline recovery replay of the fsync-always run's node-0
    // directory — snapshot install + WAL tail, no networking.
    {
        let ((digest, applied), dir) = always_state.expect("fsync-always row ran");
        let config = SvcConfig::new(n, clients).with_data_dir(&dir);
        let started = std::time::Instant::now();
        let recovered = config.replica(ProcessId::new(0));
        let elapsed = started.elapsed();
        let store = recovered.store();
        let verdict = if (store.digest(), store.applied()) == (digest, applied) {
            format!("recovered {applied} applied writes, digest matches live replica")
        } else {
            format!(
                "FAIL: recovered ({:x}, {}) but live replica was ({digest:x}, {applied})",
                store.digest(),
                store.applied()
            )
        };
        table.push_row(vec![
            "recovery replay".to_string(),
            "wal, fsync always".to_string(),
            n.to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{}", elapsed.as_micros()),
            verdict,
        ]);
    }

    let _ = std::fs::remove_dir_all(&base);
    table
}

/// Writes the flight-recorder text dump of `obs` under `target/` (falling
/// back to the temp dir) and returns the path it landed at — the crash
/// artifact CI uploads when a verdict fails.
fn flight_recorder_artifact(tag: &str, obs: &irs_obs::Obs) -> String {
    let name = format!("{tag}-flight-recorder.txt");
    let target = std::path::Path::new("target");
    let path = if target.is_dir() {
        target.join(&name)
    } else {
        std::env::temp_dir().join(&name)
    };
    match std::fs::write(&path, obs.dump_trace()) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("<unwritable: {e}>"),
    }
}

/// E14 — Observability: what the instrumentation plane costs and what it
/// buys. The overhead rows run the same mem-backend closed-loop workload
/// with observability off, metrics-only, and metrics + flight recorder;
/// the acceptance bar is ≤ 3% throughput cost for the full mode (reported
/// as WARN, not failure, beyond that — single-core CI runners are noisy).
/// The forensics row crashes the leader of a durable, fully instrumented
/// cluster mid-load and verifies the flight-recorder dump actually tells
/// the story: leader-change and WAL-commit events leading up to the crash.
pub fn e14_observability(quick: bool) -> Table {
    use irs_obs::{EventKind, Obs};
    use irs_svc::{FsyncPolicy, SvcConfig};
    use std::sync::Arc;
    use std::time::Duration as StdDuration;

    let mut table = Table::new(
        "E14",
        "Observability: metrics/flight-recorder overhead and crash forensics",
        &[
            "mode", "n", "clients", "ops/s", "p50 us", "p99 us", "verdict",
        ],
    );
    let n = 5;
    let clients = if quick { 3 } else { 4 };
    let opts = ClosedLoopOptions {
        duration: StdDuration::from_secs(if quick { 2 } else { 5 }),
        op_deadline: StdDuration::from_secs(8),
        ..ClosedLoopOptions::default()
    };

    // One measured closed-loop run over the mem backend under the given
    // obs mode; returns the report with its verdict cell.
    let measured = |opts: ClosedLoopOptions, obs: Option<Arc<Obs>>| {
        let mut config = SvcConfig::new(n, clients);
        if let Some(obs) = obs {
            config = config.with_obs(obs);
        }
        let run = service_run(config, Links::Mem, opts, None);
        let verdict = acked_cell(&run);
        (run.report, verdict)
    };

    // Warm-up (discarded): fault in code paths and thread pools so the
    // first measured row is not paying one-time costs the others skip.
    let warm = ClosedLoopOptions {
        duration: StdDuration::from_millis(500),
        ..opts
    };
    let _ = measured(warm, None);

    // Median of three runs per mode: a single closed-loop run on a
    // contended runner jitters more than the ~3% effect under test, and
    // the median discards exactly the outlier runs (GC of another job, a
    // cold scheduler) that used to flip the gate.
    let mut ops_by_mode: Vec<(&str, f64)> = Vec::new();
    for mode in ["off", "metrics", "metrics+recorder"] {
        let mut runs: Vec<(LoadReport, String)> = (0..3)
            .map(|_| {
                let obs = match mode {
                    "off" => None,
                    "metrics" => Some(Arc::new(Obs::metrics_only())),
                    _ => Some(Arc::new(Obs::new(n))),
                };
                measured(opts, obs)
            })
            .collect();
        runs.sort_by(|a, b| a.0.ops_per_sec().total_cmp(&b.0.ops_per_sec()));
        let (report, verdict) = runs.swap_remove(1);
        ops_by_mode.push((mode, report.ops_per_sec()));
        table.push_row(vec![
            mode.to_string(),
            n.to_string(),
            clients.to_string(),
            format!("{:.0}", report.ops_per_sec()),
            report.latency.percentile(50.0).to_string(),
            report.latency.percentile(99.0).to_string(),
            verdict,
        ]);
    }

    // The ≤ 3% gate on the per-mode medians, still soft: even the median
    // jitters on a busy runner, so the row reports PASS/WARN with the
    // measured ratio instead of failing the suite.
    {
        let off = ops_by_mode[0].1.max(1.0);
        let full = ops_by_mode[2].1;
        let overhead = 100.0 * (1.0 - full / off);
        let verdict = if overhead <= 3.0 {
            format!("PASS: metrics+recorder costs {overhead:.1}% vs off (gate 3%)")
        } else {
            format!("WARN: metrics+recorder costs {overhead:.1}% vs off (gate 3%, noisy runner?)")
        };
        table.push_row(vec![
            "overhead gate".to_string(),
            n.to_string(),
            clients.to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            verdict,
        ]);
    }

    // Crash forensics: durable replicas, full instrumentation, leader
    // crashed mid-load. The dump must contain leader-change and WAL-commit
    // events leading up to the crash — the artifact a postmortem starts
    // from — and the survivors must still pass the consistency contract.
    {
        let base = std::env::temp_dir().join(format!("irs-e14-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        // The default ring is enough for forensics now that the recorder
        // tiers by severity: this row keeps loading the cluster for two
        // thirds of the run *after* the re-election, but the bulk traffic
        // can only evict other bulk events — the leader changes live in
        // the critical ring, and the crashed leader's ring freezes at the
        // crash with the WAL commits that precede it. (This row used to
        // hand-tune a 32k-deep ring to survive the same traffic.)
        let obs = Arc::new(Obs::new(n));
        let config = SvcConfig::new(n, clients)
            .with_batching(8, 4)
            .with_snapshot_interval(64)
            .with_data_dir(&base)
            .with_fsync(FsyncPolicy::EveryN(8))
            .with_obs(obs.clone());
        let crash_opts = ClosedLoopOptions {
            duration: StdDuration::from_secs(if quick { 4 } else { 8 }),
            ..opts
        };
        let run = service_run(
            config,
            Links::Mem,
            crash_opts,
            Some(crash_opts.duration / 3),
        );
        let crashed = run.crashed.expect("forensics row crashes a leader");
        let events = obs.recorder().expect("recorder attached").dump();
        let leader_changes = events
            .iter()
            .filter(|e| e.kind == EventKind::LeaderChange)
            .count();
        let wal_commits = events
            .iter()
            .filter(|e| e.kind == EventKind::WalCommit)
            .count();
        // The postmortem property itself: WAL commits *leading up to* the
        // re-election the crash forced. The dump is time-sorted and the
        // critical tier keeps every leader change (startup election
        // included), so the re-election is the *last* one; the commits
        // that precede it survive in the crashed leader's rings, frozen
        // at the crash.
        let reelection = events
            .iter()
            .rev()
            .find(|e| e.kind == EventKind::LeaderChange)
            .map(|e| e.at);
        let commits_before_change = reelection.is_some_and(|at| {
            events
                .iter()
                .any(|e| e.kind == EventKind::WalCommit && e.at < at)
        });
        let artifact = flight_recorder_artifact("e14-crash", &obs);
        let verdict = if leader_changes == 0 || wal_commits == 0 || !commits_before_change {
            format!(
                "FAIL: dump missing forensics (leader_change={leader_changes}, wal_commit={wal_commits}, commits_before_change={commits_before_change}) — {artifact}"
            )
        } else {
            match run.verdict() {
                Ok(()) => format!(
                    "leader {crashed} crashed; dump has {leader_changes} leader_change + {wal_commits} wal_commit events, commits precede re-election ({artifact}); survivors consistent"
                ),
                Err(e) => format!("{e} ({artifact})"),
            }
        };
        table.push_row(vec![
            "crash forensics".to_string(),
            n.to_string(),
            clients.to_string(),
            format!("{:.0}", run.report.ops_per_sec()),
            run.report.latency.percentile(50.0).to_string(),
            run.report.latency.percentile(99.0).to_string(),
            verdict,
        ]);
        let _ = std::fs::remove_dir_all(&base);
    }

    table
}

/// E15 — the live telemetry plane: scrape a running cluster over the wire
/// (no shared filesystem, no shared memory), merge the per-node registries
/// into one artifact, and machine-check the leader-reign SLO panel — on
/// clean UDP, under a receiver-side drop adversary, and under duty-cycle
/// intermittency. The crash-forensics window on the default recorder ring
/// is checked by E14's forensics row.
pub fn e15_live_telemetry(quick: bool) -> Table {
    use irs_net::{
        DutyCycle, FaultyLink, LinkModel, MemNetwork, Transport, TransportScraper, UdpTransport,
    };
    use irs_obs::collector::{check_conformance, parse_prometheus, ClusterScrape};
    use irs_obs::Obs;
    use irs_runtime::NodeHandle;
    use irs_svc::{run_svc_node, SvcClient, SvcConfig, SvcReplica};
    use std::sync::atomic::Ordering as AtomicOrdering;
    use std::sync::Arc;
    use std::time::Duration as StdDuration;

    let mut table = Table::new(
        "E15",
        "Live telemetry plane: scrape-over-UDP, collector merge, leader-reign SLO",
        &["row", "backend", "n", "clients", "ops/s", "verdict"],
    );
    let n = 5;
    let clients = if quick { 2 } else { 3 };
    let opts = ClosedLoopOptions {
        duration: StdDuration::from_secs(if quick { 2 } else { 4 }),
        op_deadline: StdDuration::from_secs(8),
        ..ClosedLoopOptions::default()
    };

    /// The machine-checked verdict over one collected artifact: the merge
    /// renders, parses back conformant, carries the reign panel for all
    /// `n` nodes, and reports a sane stable-reign fraction at or above the
    /// row's floor.
    fn artifact_verdict(
        scrape: &ClusterScrape,
        n: usize,
        min_stable: f64,
    ) -> Result<String, String> {
        let merged = scrape.render_prometheus()?;
        if !merged.contains("omega_reign_ms") {
            return Err("merged artifact is missing omega_reign_ms".into());
        }
        let exposition = parse_prometheus(&merged)?;
        check_conformance(&exposition)?;
        let stats = scrape
            .reign_stats()?
            .ok_or("merged artifact has no reign panel")?;
        if stats.nodes != n as u64 {
            return Err(format!("reign panel covers {} of {n} nodes", stats.nodes));
        }
        if stats.uptime_ms == 0 {
            return Err("reign panel reports zero uptime".into());
        }
        if !(0.0..=1.0).contains(&stats.stable_fraction) {
            return Err(format!(
                "stable-reign fraction {} outside [0, 1]",
                stats.stable_fraction
            ));
        }
        if stats.stable_fraction < min_stable {
            return Err(format!(
                "stable-reign fraction {:.3} below the row floor {min_stable}",
                stats.stable_fraction
            ));
        }
        Ok(format!("PASS: {}", stats.render()))
    }

    // One row's worth of work, generic over the transport backend. Spawns
    // one replica node thread per endpoint, each with its *own*
    // observability handle — the telemetry topology of the process-per-
    // node deployment (one registry per address space), which is what the
    // collector merge is for; a cluster-shared registry would make every
    // endpoint serve the same panel and the merge double-count it. Then
    // drives closed-loop load from the client endpoints of `rest`, scrapes
    // every replica live over the wire from its last (collector) endpoint
    // mid-load, settles, freezes the cluster and checks both the artifact
    // verdict and the service contract. The settle window lets replicas
    // behind an intermittent link catch back up before the digests are
    // compared.
    fn scrape_mid_load<R, C>(
        replicas: Vec<(R, Arc<Obs>)>,
        mut rest: Vec<C>,
        opts: ClosedLoopOptions,
        min_stable: f64,
        settle: StdDuration,
    ) -> (f64, String)
    where
        R: Transport + Send + 'static,
        C: Transport + Send + 'static,
    {
        let (n, clients) = (replicas.len(), rest.len() - 1);
        let collector = rest.pop().expect("collector endpoint");
        let (handles, threads): (Vec<NodeHandle>, Vec<_>) = replicas
            .into_iter()
            .enumerate()
            .map(|(i, (transport, obs))| {
                let config = SvcConfig::new(n, clients).with_obs(obs);
                let replica = config.replica(ProcessId::new(i as u32));
                let handle = NodeHandle::new();
                let inner = handle.clone();
                let thread = std::thread::Builder::new()
                    .name(format!("irs-e15-{i}"))
                    .spawn(move || run_svc_node(replica, transport, config, inner))
                    .expect("spawn replica thread");
                (handle, thread)
            })
            .unzip();
        let mut cl: Vec<SvcClient<C>> = rest
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let seed = 0x0E15_C11E ^ (i as u64 + 1);
                SvcClient::new(ProcessId::new((n + i) as u32), n, t, seed)
            })
            .collect();
        let load = std::thread::spawn(move || {
            let (report, acked, _) = closed_loop(&mut cl, opts);
            (report, acked, cl)
        });
        std::thread::sleep(opts.duration / 2);
        let mut scraper = TransportScraper::new(collector, ProcessId::new((n + clients) as u32))
            .with_timeout(StdDuration::from_millis(250))
            .with_retries(16);
        let scraped = ClusterScrape::collect(&mut scraper, n as u32);
        let (report, mut acked, mut cl) = load.join().expect("load thread");
        // Bounded convergence wait on the published snapshots. A replica
        // behind an intermittent link only notices the slots it missed
        // when newer log traffic arrives, so a silent cluster can stay
        // diverged forever — each poll therefore drives a short trickle
        // burst whose new slots give catch-up something to key off. The
        // trickle writes are acked writes like any others and join the
        // consistency input.
        let trickle = ClosedLoopOptions {
            duration: StdDuration::from_millis(100),
            op_deadline: StdDuration::from_secs(2),
            ..opts
        };
        poll_until(settle, || {
            if same_store(handles.iter().map(|h| h.snapshot.read())) {
                return Some(());
            }
            let (_, extra, _) = closed_loop(&mut cl, trickle);
            acked.extend(extra);
            // Give the burst's tail a full duty-cycle period to replicate
            // before the digests are compared again.
            std::thread::sleep(StdDuration::from_millis(400));
            None
        });
        for handle in &handles {
            handle.stop.store(true, AtomicOrdering::SeqCst);
        }
        let finals: Vec<SvcReplica> = threads
            .into_iter()
            .map(|t| t.join().expect("replica thread"))
            .collect();
        let verdict = match (scraped, service_verdict(&finals, &acked, &[])) {
            (Err(e), _) => format!("FAIL: live scrape failed: {e}"),
            (_, Err(e)) => format!("FAIL: {e}"),
            (Ok(scrape), Ok(())) => {
                artifact_verdict(&scrape, n, min_stable).unwrap_or_else(|e| format!("FAIL: {e}"))
            }
        };
        (report.ops_per_sec(), verdict)
    }

    // Row 1: clean localhost UDP — n replica node threads, each with its
    // own real socket, scraped mid-load through one extra collector
    // socket. The floor asks for a meaningfully stable cluster: most of
    // the scraped wall time under a reign at least 1024 check periods
    // long.
    {
        let mut mesh = UdpTransport::localhost_mesh(n + clients + 1).expect("bind sockets");
        let rest = mesh.split_off(n);
        let replicas = mesh
            .into_iter()
            .map(|mut t| {
                let obs = Arc::new(Obs::new(n));
                t.attach_obs(obs.registry());
                (t, obs)
            })
            .collect();
        let settle = StdDuration::from_secs(10);
        let (ops, verdict) = scrape_mid_load(replicas, rest, opts, 0.15, settle);
        table.push_row(vec![
            "live scrape".to_string(),
            "udp".to_string(),
            n.to_string(),
            clients.to_string(),
            format!("{ops:.0}"),
            verdict,
        ]);
    }

    // Rows 2–3: the same live scrape with an adversary on every *replica*
    // link (receiver-driven, mirroring `SvcCluster::with_link_models`;
    // the client and collector endpoints stay clean, so what is under
    // stress is the consensus plane and the scrape plane riding the same
    // lossy sockets). Stability floors are lower: the adversary is
    // supposed to cost reign stability, the panel is supposed to show it.
    for (row, min_stable) in [("drop 0.2", 0.08), ("duty-cycle", 0.05)] {
        let mut mesh = MemNetwork::mesh(n + clients + 1);
        let rest = mesh.split_off(n);
        let replicas = mesh
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let seed = 0x0E15_FA17 ^ (i as u64);
                let model = if row == "drop 0.2" {
                    LinkModel::new(seed).with_drop_prob(0.2)
                } else {
                    // Every replica dark for the last quarter of each
                    // 400 ms window (1 ms wall tick), phases staggered so
                    // the cluster never goes fully dark at once. Off
                    // windows are far shorter than the scraper's retry
                    // budget, so the scrape must still complete.
                    LinkModel::new(seed).with_duty_cycle(DutyCycle {
                        node: i as u32,
                        period: 400,
                        on: 300,
                        phase: (i as u64) * 80,
                    })
                };
                let mut link = FaultyLink::new(t, model);
                let obs = Arc::new(Obs::new(n));
                link.attach_obs(obs.registry());
                (link, obs)
            })
            .collect();
        let settle = StdDuration::from_secs(15);
        let (ops, verdict) = scrape_mid_load(replicas, rest, opts, min_stable, settle);
        table.push_row(vec![
            format!("live scrape, {row}"),
            "mem+faulty".to_string(),
            n.to_string(),
            clients.to_string(),
            format!("{ops:.0}"),
            verdict,
        ]);
    }

    table
}

/// E16 — The stable-reign fast path: what the leader lease buys, and
/// whether the read tiers keep their promises under load.
///
/// * **Mix rows** run an in-memory n = 5 cluster under a deterministic
///   read/write mix (95/5 read-heavy and 50/50 balanced) at each
///   [`irs_svc::ReadTier`]. Every run's reads are machine-checked against
///   the acked write order (`check_read_linearizability`) and its writes
///   against the surviving state (`check_consistency`) — the verdict is
///   the checker's, not an eyeball's. Lease reads never leave the leader,
///   so at 95/5 they should beat read-index reads (which pay a probe
///   round) by a wide margin; the summary row asserts ≥ 3×.
/// * **Crash row** kills the agreed leader mid-run while its lease may
///   still be live — the scenario the lease clock-safety argument (see
///   `irs_svc::replica` module docs) must survive. PASS requires reads to
///   stay linearizable across the reign change and no acked write lost.
///
/// Every run takes the phase-1 skip. That most slots of a stable reign
/// skip phase 1 is `irs-consensus`'s `theorem5` test
/// `stable_reign_skips_phase_one_for_later_slots`; the ledger tracks
/// `log.phase1_skips_per_kop` on every run.
pub fn e16_stable_reign_fast_path(quick: bool) -> Table {
    use irs_svc::{ReadTier, SvcConfig};
    use std::time::Duration as StdDuration;

    let mut table = Table::new(
        "E16",
        "Stable-reign fast path: leader leases, linearizable reads",
        &[
            "scenario",
            "tier",
            "mix r/w",
            "reads/s",
            "writes/s",
            "rd p50 us",
            "rd p99 us",
            "verdict",
        ],
    );
    let n = 5;
    let clients = if quick { 2 } else { 4 };
    let duration = StdDuration::from_millis(if quick { 1500 } else { 4000 });

    // Mix rows: every tier at 95/5, the linearizable tiers also at 50/50.
    let mixes: [(ReadTier, u32); 5] = [
        (ReadTier::Lease, 95),
        (ReadTier::ReadIndex, 95),
        (ReadTier::Stale, 95),
        (ReadTier::Lease, 50),
        (ReadTier::ReadIndex, 50),
    ];
    let mut reads_per_sec_at_95: std::collections::BTreeMap<&str, f64> =
        std::collections::BTreeMap::new();
    for (tier, read_pct) in mixes {
        let load = ClosedLoopOptions {
            duration,
            op_deadline: StdDuration::from_secs(8),
            read_pct,
            tier,
            ..ClosedLoopOptions::default()
        };
        let run = service_run(SvcConfig::new(n, clients), Links::Mem, load, None);
        let report = &run.report;
        let tier_name = match tier {
            ReadTier::Lease => "lease",
            ReadTier::ReadIndex => "read-index",
            ReadTier::Stale => "stale",
        };
        let verdict = match run.verdict() {
            Ok(()) => format!(
                "{} reads within contract, {} writes consistent",
                report.reads, report.ops
            ),
            Err(e) => format!("FAIL: {e}"),
        };
        if read_pct == 95 {
            reads_per_sec_at_95.insert(tier_name, report.reads_per_sec());
        }
        table.push_row(vec![
            "mixed load".to_string(),
            tier_name.to_string(),
            format!("{read_pct}/{}", 100 - read_pct),
            format!("{:.0}", report.reads_per_sec()),
            format!("{:.0}", report.ops_per_sec()),
            report.read_latency.percentile(50.0).to_string(),
            report.read_latency.percentile(99.0).to_string(),
            verdict,
        ]);
    }

    // Summary row: the lease's whole point is that reads stop paying for
    // coordination — at 95/5 it must beat the probe-per-batch read-index
    // path by at least 3×.
    {
        let lease = reads_per_sec_at_95.get("lease").copied().unwrap_or(0.0);
        let ri = reads_per_sec_at_95
            .get("read-index")
            .copied()
            .unwrap_or(0.0);
        let ratio = if ri > 0.0 { lease / ri } else { f64::INFINITY };
        let verdict = if ratio >= 3.0 {
            format!("PASS: lease reads {ratio:.1}x read-index reads at 95/5")
        } else {
            format!("FAIL: lease reads only {ratio:.1}x read-index reads (need >= 3x)")
        };
        table.push_row(vec![
            "lease vs read-index".to_string(),
            "-".to_string(),
            "95/5".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            verdict,
        ]);
    }

    // Crash row: leader dies while its lease may still be live.
    {
        let load = ClosedLoopOptions {
            duration: StdDuration::from_secs(if quick { 3 } else { 5 }),
            op_deadline: StdDuration::from_secs(10),
            read_pct: 95,
            tier: ReadTier::Lease,
            ..ClosedLoopOptions::default()
        };
        let crash_after = StdDuration::from_millis(if quick { 900 } else { 1500 });
        let run = service_run(
            SvcConfig::new(n, clients),
            Links::Mem,
            load,
            Some(crash_after),
        );
        let report = &run.report;
        let verdict = match (run.converged, run.verdict()) {
            (false, _) => "FAIL: survivors never converged".to_string(),
            (true, Ok(())) => format!(
                "PASS: leader {} crashed mid-lease; {} reads stayed linearizable, \
                 {} writes consistent",
                run.crashed.expect("crash row crashes a leader"),
                report.reads,
                report.ops
            ),
            (true, Err(e)) => format!("FAIL: {e}"),
        };
        table.push_row(vec![
            "leader crash mid-lease".to_string(),
            "lease".to_string(),
            "95/5".to_string(),
            format!("{:.0}", report.reads_per_sec()),
            format!("{:.0}", report.ops_per_sec()),
            report.read_latency.percentile(50.0).to_string(),
            report.read_latency.percentile(99.0).to_string(),
            verdict,
        ]);
    }

    table
}

/// One experiment entry point: takes the `quick` flag, returns its table.
pub type ExperimentFn = fn(bool) -> Table;

/// Every experiment, in order, as `(id, function)` pairs.
pub fn all() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("e1", e1_election_under_a_prime),
        ("e2", e2_election_under_a),
        ("e3", e3_crash_suspicion_growth),
        ("e4", e4_suspicion_stabilisation),
        ("e5", e5_bounded_variables),
        ("e6", e6_assumption_matrix),
        ("e7", e7_fg_extension),
        ("e8", e8_consensus),
        ("e9", e9_message_cost),
        ("e10", e10_sensitivity),
        ("e11", e11_deployment),
        ("e12", e12_kv_service),
        ("e13", e13_durability),
        ("e14", e14_observability),
        ("e15", e15_live_telemetry),
        ("e16", e16_stable_reign_fast_path),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_experiment_once() {
        let ids: Vec<&str> = all().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), 16);
        let unique: std::collections::BTreeSet<&&str> = ids.iter().collect();
        assert_eq!(unique.len(), 16);
    }

    #[test]
    fn consensus_runner_decides_quickly_under_a_prime() {
        let outcome = run_consensus_once(4, 1, None, false, 150_000, 1);
        assert!(outcome.all_decided);
        assert!(outcome.messages > 0);
    }

    #[test]
    fn a_service_run_crashes_the_leader_and_keeps_the_contract() {
        let load = ClosedLoopOptions {
            duration: std::time::Duration::from_millis(300),
            op_deadline: std::time::Duration::from_secs(8),
            ..ClosedLoopOptions::default()
        };
        let crash_after = Some(std::time::Duration::from_millis(100));
        let run = service_run(irs_svc::SvcConfig::new(3, 1), Links::Mem, load, crash_after);
        assert_eq!(run.verdict(), Ok(()));
        let crashed = run.crashed.expect("the run crashed a leader");
        assert_eq!(run.survivors.len(), 2);
        assert!(run
            .survivors
            .iter()
            .all(|r| irs_types::Protocol::id(r) != crashed));
    }

    // The table-producing experiments are exercised end-to-end (in quick
    // mode) by the workspace-level integration tests and the benches; here we
    // only run the cheapest one to keep the unit test suite fast.
    #[test]
    fn e9_quick_produces_rows_for_both_variants() {
        let table = e9_message_cost(true);
        assert_eq!(table.rows.len(), 4);
        assert!(table.to_text().contains("fig3"));
        assert!(table.to_csv().lines().count() > 3);
    }
}
