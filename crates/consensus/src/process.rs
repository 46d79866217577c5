//! Ω-based indulgent consensus: the composition that proves Theorem 5
//! executable.
//!
//! A [`ConsensusProcess`] embeds an eventual-leader oracle (any protocol
//! implementing [`LeaderOracle`], normally [`irs_omega::OmegaProcess`]) and a
//! [`PaxosInstance`]. The oracle decides *who is allowed to start ballots*;
//! the ballot/quorum machinery guarantees safety regardless of how many
//! leaders the oracle hallucinates before it stabilises. Once Ω stabilises on
//! a single correct leader and that leader has a proposal, its ballots stop
//! being interrupted and every correct process decides — Theorem 5:
//! consensus is solvable with `t < n/2` and an intermittent rotating t-star.
//!
//! Votes return to the ballot owner only, and the owner that counts the
//! quorum is the one process that announces the decision (see the
//! [`PaxosInstance`] module docs); everyone else records the `Decide` and
//! stays silent. Under the paper's reliable links that one announcement
//! reaches every correct process. An owner that crashes before making it is
//! replaced by Ω, and the next owner's phase 1 inherits the accepted value
//! and announces it in its stead.

use crate::{LogValue, PaxosInstance, PaxosMsg, PaxosSend, Value};
use irs_types::{
    Actions, Duration, Introspect, LeaderOracle, ProcessId, Protocol, RoundNum, RoundTagged,
    Snapshot, SystemConfig, TimerId,
};

/// Timer used to periodically re-evaluate leadership and (re)start ballots.
/// The embedded oracle must not use timer ids at or above this value
/// (`irs-omega` and the baselines use ids below 64).
pub const TIMER_BALLOT_CHECK: TimerId = TimerId::new(200);

/// Message of the composite protocol: either a message of the embedded
/// leader oracle or a consensus message. `V` is the value domain of the
/// ballots (default [`Value`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConsensusMsg<M, V = Value> {
    /// A message of the embedded Ω implementation.
    Omega(M),
    /// A consensus (ballot) message.
    Paxos(PaxosMsg<V>),
}

impl<M: RoundTagged, V: LogValue> RoundTagged for ConsensusMsg<M, V> {
    fn constrained_round(&self) -> Option<RoundNum> {
        match self {
            // The behavioural assumptions constrain only the oracle's ALIVE
            // traffic; consensus messages are ordinary asynchronous messages.
            ConsensusMsg::Omega(m) => m.constrained_round(),
            ConsensusMsg::Paxos(_) => None,
        }
    }

    fn estimated_size(&self) -> usize {
        match self {
            ConsensusMsg::Omega(m) => 1 + m.estimated_size(),
            ConsensusMsg::Paxos(m) => 1 + m.estimated_size(),
        }
    }
}

/// Tuning of the consensus driver.
#[derive(Clone, Copy, Debug)]
pub struct ConsensusConfig {
    /// The system `(n, t)`; Theorem 5 requires `t < n/2`.
    pub system: SystemConfig,
    /// How often the process re-evaluates whether it should be driving a
    /// ballot.
    pub ballot_check_period: Duration,
    /// Most pending values the replicated-log leader drains into one slot's
    /// batch (clamped to `1..=MAX_BATCH_LEN`). `1` reproduces the
    /// one-value-per-slot protocol exactly. Single-decree
    /// [`ConsensusProcess`] ignores it.
    pub batch_max: usize,
    /// Number of consecutive frontier slots the replicated-log leader may
    /// run ballots for concurrently (its in-flight window; ≥ 1). `1`
    /// reproduces the one-slot-at-a-time protocol exactly. Single-decree
    /// [`ConsensusProcess`] ignores it.
    pub pipeline_depth: u64,
    /// Whether the replicated-log leader amortises phase 1 over its reign:
    /// one reign-scoped `Prepare` covering all future slots, then
    /// Accept-only rounds per slot (falling back to per-slot ballots on any
    /// leadership change). `false` reproduces the per-slot two-phase
    /// protocol exactly. Single-decree [`ConsensusProcess`] ignores it.
    pub phase1_skip: bool,
}

impl ConsensusConfig {
    /// Default tuning: check every 80 ticks, one value per slot, one slot
    /// in flight, per-slot ballots (no phase-1 skip) — byte-for-byte the
    /// protocol the Theorem 5 experiments analyse. The replicated service
    /// layer (`irs-svc`) opts into the reign fast path explicitly.
    pub fn new(system: SystemConfig) -> Self {
        ConsensusConfig {
            system,
            ballot_check_period: Duration::from_ticks(80),
            batch_max: 1,
            pipeline_depth: 1,
            phase1_skip: false,
        }
    }

    /// Sets the per-slot batch bound and the in-flight slot window (both
    /// clamped to at least 1; `batch_max` additionally to
    /// [`crate::MAX_BATCH_LEN`]).
    #[must_use]
    pub fn with_batching(mut self, batch_max: usize, pipeline_depth: u64) -> Self {
        self.batch_max = batch_max.clamp(1, crate::MAX_BATCH_LEN);
        self.pipeline_depth = pipeline_depth.max(1);
        self
    }

    /// Enables or disables the reign-scoped phase-1 skip of the replicated
    /// log (the per-slot two-phase protocol when `false`).
    #[must_use]
    pub fn with_phase1_skip(mut self, on: bool) -> Self {
        self.phase1_skip = on;
        self
    }
}

/// One process of the Ω-based consensus protocol. `O` is the embedded
/// eventual-leader oracle.
///
/// # Example
///
/// ```
/// use irs_consensus::{ConsensusProcess, Value};
/// use irs_omega::OmegaProcess;
/// use irs_types::{ProcessId, SystemConfig};
///
/// # fn main() -> Result<(), irs_types::ConfigError> {
/// let system = SystemConfig::new(5, 2)?;
/// let id = ProcessId::new(0);
/// let mut p = ConsensusProcess::over_omega(id, system);
/// p.propose(Value(42));
/// assert_eq!(p.decision(), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConsensusProcess<O, V = Value> {
    id: ProcessId,
    cfg: ConsensusConfig,
    oracle: O,
    instance: PaxosInstance<V>,
    /// Progress counter value at the previous ballot check, used to avoid
    /// restarting ballots that are still advancing.
    last_progress: u64,
}

impl ConsensusProcess<irs_omega::OmegaProcess> {
    /// Builds a consensus process over the paper's Figure 3 Ω algorithm with
    /// default tuning — the configuration Theorem 5 talks about.
    ///
    /// # Panics
    ///
    /// Panics if the system does not have a correct majority (`t ≥ n/2`).
    pub fn over_omega(id: ProcessId, system: SystemConfig) -> Self {
        assert!(
            system.supports_consensus(),
            "consensus requires t < n/2 (got n = {}, t = {})",
            system.n(),
            system.t()
        );
        Self::new(
            id,
            ConsensusConfig::new(system),
            irs_omega::OmegaProcess::fig3(id, system),
        )
    }
}

impl<O, V> ConsensusProcess<O, V>
where
    O: Protocol + LeaderOracle + Introspect,
    O::Msg: RoundTagged,
    V: LogValue,
{
    /// Builds a consensus process over an explicit oracle instance.
    ///
    /// # Panics
    ///
    /// Panics if `oracle.id() != id`.
    pub fn new(id: ProcessId, cfg: ConsensusConfig, oracle: O) -> Self {
        assert_eq!(oracle.id(), id, "oracle identity mismatch");
        ConsensusProcess {
            id,
            cfg,
            oracle,
            instance: PaxosInstance::new(id, cfg.system),
            last_progress: 0,
        }
    }

    /// Proposes a value (first call wins). Proposing after a decision has no
    /// effect.
    pub fn propose(&mut self, v: V) {
        self.instance.set_proposal(v);
    }

    /// The decided value, once the instance has decided.
    pub fn decision(&self) -> Option<V> {
        self.instance.decided().cloned()
    }

    /// Read access to the embedded oracle.
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// Number of ballots this process started as a proposer.
    pub fn ballots_started(&self) -> u64 {
        self.instance.ballots_started()
    }

    fn emit_paxos(sends: Vec<PaxosSend<V>>, out: &mut Actions<ConsensusMsg<O::Msg, V>>) {
        for (dest, msg) in sends {
            out.push(dest, ConsensusMsg::Paxos(msg));
        }
    }

    fn ballot_check(&mut self, out: &mut Actions<ConsensusMsg<O::Msg, V>>) {
        out.set_timer(TIMER_BALLOT_CHECK, self.cfg.ballot_check_period);
        if self.instance.decided().is_some() {
            return;
        }
        if self.oracle.leader() != self.id {
            return;
        }
        // Only (re)start a ballot if nothing moved since the last check —
        // restarting a ballot that is still collecting promises would waste
        // work and, before Ω stabilises, prolong duels.
        let progress = self.instance.progress_counter();
        let stalled = progress == self.last_progress;
        self.last_progress = progress;
        if stalled {
            let mut sends = Vec::new();
            self.instance.start_ballot(&mut sends);
            Self::emit_paxos(sends, out);
        }
    }
}

impl<O, V> Protocol for ConsensusProcess<O, V>
where
    O: Protocol + LeaderOracle + Introspect,
    O::Msg: RoundTagged,
    V: LogValue,
{
    type Msg = ConsensusMsg<O::Msg, V>;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Actions<Self::Msg>) {
        let mut inner = Actions::new();
        self.oracle.on_start(&mut inner);
        inner.drain_into(out, ConsensusMsg::Omega);
        out.set_timer(TIMER_BALLOT_CHECK, self.cfg.ballot_check_period);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Self::Msg, out: &mut Actions<Self::Msg>) {
        match msg {
            ConsensusMsg::Omega(m) => {
                let mut inner = Actions::new();
                self.oracle.on_message(from, m, &mut inner);
                inner.drain_into(out, ConsensusMsg::Omega);
            }
            ConsensusMsg::Paxos(m) => {
                let mut sends = Vec::new();
                self.instance.handle(from, m.clone(), &mut sends);
                Self::emit_paxos(sends, out);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Actions<Self::Msg>) {
        if timer == TIMER_BALLOT_CHECK {
            self.ballot_check(out);
        } else {
            let mut inner = Actions::new();
            self.oracle.on_timer(timer, &mut inner);
            inner.drain_into(out, ConsensusMsg::Omega);
        }
    }
}

impl<O: LeaderOracle, V> LeaderOracle for ConsensusProcess<O, V> {
    fn leader(&self) -> ProcessId {
        self.oracle.leader()
    }
}

impl<O, V> Introspect for ConsensusProcess<O, V>
where
    O: Protocol + LeaderOracle + Introspect,
    O::Msg: RoundTagged,
    V: LogValue,
{
    fn snapshot(&self) -> Snapshot {
        use irs_obs::names;
        let mut snap = self.oracle.snapshot();
        snap.extra
            .push((names::DECIDED, u64::from(self.instance.decided().is_some())));
        snap.extra.push((
            names::DECIDED_VALUE,
            self.instance.decided().map(LogValue::gauge).unwrap_or(0),
        ));
        snap.extra
            .push((names::BALLOTS_STARTED, self.instance.ballots_started()));
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_omega::OmegaProcess;

    fn system() -> SystemConfig {
        SystemConfig::new(5, 2).unwrap()
    }

    #[test]
    fn construction_and_propose() {
        let mut p = ConsensusProcess::over_omega(ProcessId::new(1), system());
        assert_eq!(p.id(), ProcessId::new(1));
        assert_eq!(p.decision(), None);
        p.propose(Value(5));
        p.propose(Value(9)); // first proposal wins
        assert_eq!(p.instance.proposal(), Some(&Value(5)));
    }

    #[test]
    #[should_panic(expected = "t < n/2")]
    fn rejects_systems_without_majority() {
        let bad = SystemConfig::new(4, 2).unwrap();
        let _ = ConsensusProcess::over_omega(ProcessId::new(0), bad);
    }

    #[test]
    #[should_panic(expected = "identity mismatch")]
    fn rejects_mismatched_oracle() {
        let oracle = OmegaProcess::fig3(ProcessId::new(1), system());
        let _: ConsensusProcess<_, Value> =
            ConsensusProcess::new(ProcessId::new(0), ConsensusConfig::new(system()), oracle);
    }

    #[test]
    fn start_lifts_oracle_actions_and_arms_check_timer() {
        let mut p = ConsensusProcess::over_omega(ProcessId::new(0), system());
        let mut out = Actions::new();
        p.on_start(&mut out);
        // The embedded Ω broadcast its first ALIVE…
        assert!(out
            .sends()
            .iter()
            .any(|s| matches!(s.msg, ConsensusMsg::Omega(_))));
        // …and the ballot check timer is armed alongside Ω's own timers.
        assert!(out.timers().iter().any(|t| t.id == TIMER_BALLOT_CHECK));
        assert!(out.timers().len() >= 3);
    }

    #[test]
    fn non_leader_does_not_start_ballots() {
        // p5 is not the least-suspected process initially, so it must not
        // start a ballot even though it has a proposal.
        let mut p = ConsensusProcess::over_omega(ProcessId::new(4), system());
        p.propose(Value(3));
        let mut out = Actions::new();
        p.on_start(&mut out);
        let mut out = Actions::new();
        p.on_timer(TIMER_BALLOT_CHECK, &mut out);
        assert!(!out
            .sends()
            .iter()
            .any(|s| matches!(s.msg, ConsensusMsg::Paxos(_))));
        assert_eq!(p.ballots_started(), 0);
    }

    #[test]
    fn initial_leader_starts_a_ballot_when_stalled() {
        let mut p = ConsensusProcess::over_omega(ProcessId::new(0), system());
        p.propose(Value(3));
        let mut out = Actions::new();
        p.on_start(&mut out);
        // The instance has made no progress, so the very first check fires a
        // Prepare; with still no progress, the next check escalates to a
        // higher ballot.
        let mut out = Actions::new();
        p.on_timer(TIMER_BALLOT_CHECK, &mut out);
        assert!(out
            .sends()
            .iter()
            .any(|s| matches!(s.msg, ConsensusMsg::Paxos(PaxosMsg::Prepare { .. }))));
        assert_eq!(p.ballots_started(), 1);
        let mut out = Actions::new();
        p.on_timer(TIMER_BALLOT_CHECK, &mut out);
        assert_eq!(p.ballots_started(), 2);
        // The re-armed check timer is always present.
        assert!(out.timers().iter().any(|t| t.id == TIMER_BALLOT_CHECK));
    }

    #[test]
    fn round_tagging_delegates_to_oracle_messages() {
        use irs_omega::{OmegaMsg, SuspVector};
        let omega: ConsensusMsg<OmegaMsg> = ConsensusMsg::Omega(OmegaMsg::Alive {
            rn: irs_types::RoundNum::new(4),
            susp: SuspVector::new(5),
        });
        assert_eq!(omega.constrained_round(), Some(irs_types::RoundNum::new(4)));
        let paxos: ConsensusMsg<OmegaMsg> = ConsensusMsg::Paxos(PaxosMsg::Decide { v: Value(1) });
        assert_eq!(paxos.constrained_round(), None);
    }
}
