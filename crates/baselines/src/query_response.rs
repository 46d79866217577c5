//! Baseline 2: the time-free *message pattern* Ω of Mostéfaoui, Mourgaya and
//! Raynal (DSN 2003).
//!
//! No timers and no timeouts. Each process periodically broadcasts a
//! `QUERY(sn)` and waits for the first `n − t` `RESPONSE(sn)` messages — the
//! *winning* responses. It then broadcasts the identities of the *losing*
//! responders (`LOSERS(sn, set)`). A process raises its counter for `k` only
//! when at least `n − t` processes reported `k` losing for the same query
//! index — the same quorum-aggregation idea the paper's algorithm borrows
//! from \[16\]. Counters are gossiped entry-wise (max) on responses, and the
//! leader is the process with the smallest `(counter, id)` pair.
//!
//! Correctness needs the *message pattern* assumption: a correct process `p`
//! and a fixed set `Q` of `t` processes such that `p`'s response to every
//! query of every `q ∈ Q` is eventually always winning. Then `p` is winning
//! at the `t + 1` processes `Q ∪ {p}`, so at most `n − t − 1` processes can
//! report it losing and its counter stops growing, while a crashed or
//! persistently slow process keeps being reported by everyone.
//!
//! Under a timely-only (eventual t-source) or intermittent schedule the
//! winning pattern does not hold and the counter of every process keeps
//! growing, so the algorithm does not stabilise — the separation experiment
//! E6 shows exactly that.
//!
//! (The only timer used is the local query period of the querying task,
//! which the original algorithm also needs in order to issue queries
//! forever; it plays no role in failure detection.)

use irs_types::{
    Actions, Duration, Introspect, LeaderOracle, ProcessId, ProcessSet, Protocol, RoundNum,
    RoundTagged, Snapshot, SystemConfig, TimerId,
};
use std::collections::BTreeMap;

/// Timer used for the periodic query broadcast.
const TIMER_QUERY: TimerId = TimerId::new(0);
/// How many query indices of loser-vote bookkeeping to retain.
const VOTE_RETENTION: u64 = 256;

/// Message of the message-pattern baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryMsg {
    /// `QUERY(sn)` — broadcast by the querying task.
    Query {
        /// Query sequence number of the querier.
        sn: u64,
    },
    /// `RESPONSE(sn, counters)` — sent back by every process that receives a
    /// query; carries the responder's counter vector for gossip.
    Response {
        /// The sequence number of the query being answered.
        sn: u64,
        /// The responder's counter vector (max-merged by the querier).
        counters: Vec<u64>,
    },
    /// `LOSERS(sn, set)` — broadcast by the querier once its query closed,
    /// naming the processes whose responses were losing.
    Losers {
        /// The query index the report is about.
        sn: u64,
        /// The losing responders.
        losers: ProcessSet,
    },
}

impl RoundTagged for QueryMsg {
    fn constrained_round(&self) -> Option<RoundNum> {
        match self {
            // Responses to the sn-th query of a process are the messages the
            // winning/losing distinction applies to.
            QueryMsg::Response { sn, .. } => Some(RoundNum::new(*sn)),
            QueryMsg::Query { .. } | QueryMsg::Losers { .. } => None,
        }
    }

    fn estimated_size(&self) -> usize {
        match self {
            QueryMsg::Query { .. } => 1 + 8,
            QueryMsg::Response { counters, .. } => 1 + 8 + 8 * counters.len(),
            QueryMsg::Losers { losers, .. } => 1 + 8 + losers.capacity().div_ceil(8),
        }
    }
}

/// Configuration of [`OmegaMessagePattern`].
#[derive(Clone, Copy, Debug)]
pub struct MessagePatternConfig {
    /// The system `(n, t)`; the quorum `n − t` defines winning responses and
    /// the number of losing reports needed to charge a process.
    pub system: SystemConfig,
    /// Query period.
    pub period: Duration,
}

impl MessagePatternConfig {
    /// Default tuning: query period 10 ticks.
    pub fn new(system: SystemConfig) -> Self {
        MessagePatternConfig {
            system,
            period: Duration::from_ticks(10),
        }
    }
}

/// See the [module documentation](self).
#[derive(Clone, Debug)]
pub struct OmegaMessagePattern {
    id: ProcessId,
    cfg: MessagePatternConfig,
    /// Current query sequence number.
    sn: u64,
    /// Responders of the current query (self included — a process trivially
    /// "responds" to its own query first).
    responders: ProcessSet,
    /// Whether the current query has already been closed.
    closed: bool,
    /// Loser reports per query index: `votes[sn][k]` = how many processes
    /// reported `k` losing for their `sn`-th query.
    votes: BTreeMap<u64, Vec<u32>>,
    /// Quorum-confirmed losing counters (gossiped, max-merged).
    counters: Vec<u64>,
    queries_issued: u64,
    responses_sent: u64,
    loser_reports_sent: u64,
}

impl OmegaMessagePattern {
    /// Creates the process with default tuning.
    pub fn new(id: ProcessId, system: SystemConfig) -> Self {
        Self::with_config(id, MessagePatternConfig::new(system))
    }

    /// Creates the process with explicit tuning.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a process of the system.
    pub fn with_config(id: ProcessId, cfg: MessagePatternConfig) -> Self {
        assert!(cfg.system.contains(id), "process id {id} out of range");
        let n = cfg.system.n();
        OmegaMessagePattern {
            id,
            cfg,
            sn: 0,
            responders: ProcessSet::singleton(n, id),
            closed: false,
            votes: BTreeMap::new(),
            counters: vec![0; n],
            queries_issued: 0,
            responses_sent: 0,
            loser_reports_sent: 0,
        }
    }

    /// The quorum-confirmed losing counters.
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }

    fn issue_query(&mut self, out: &mut Actions<QueryMsg>) {
        self.sn += 1;
        self.queries_issued += 1;
        self.responders = ProcessSet::singleton(self.cfg.system.n(), self.id);
        self.closed = false;
        out.broadcast_others(QueryMsg::Query { sn: self.sn });
        out.set_timer(TIMER_QUERY, self.cfg.period);
    }

    /// Closes the current query: every process that did not answer among the
    /// first `n − t` is reported losing to everybody (ourselves included, so
    /// our own vote is counted through the same path).
    fn close_query(&mut self, out: &mut Actions<QueryMsg>) {
        let all = self.cfg.system.all_set();
        let losers = all.difference(&self.responders);
        self.closed = true;
        self.loser_reports_sent += 1;
        out.broadcast_all(QueryMsg::Losers {
            sn: self.sn,
            losers,
        });
    }

    fn record_loser_report(&mut self, sn: u64, losers: &ProcessSet) {
        let n = self.cfg.system.n();
        let quorum = self.cfg.system.quorum() as u32;
        let votes = self.votes.entry(sn).or_insert_with(|| vec![0; n]);
        for k in losers.iter() {
            votes[k.index()] += 1;
            if votes[k.index()] == quorum {
                self.counters[k.index()] += 1;
            }
        }
        // Bound the bookkeeping (query indices older than the retention
        // window can no longer reach a quorum that matters).
        if self.votes.len() as u64 > VOTE_RETENTION {
            let cutoff = self.sn.saturating_sub(VOTE_RETENTION);
            self.votes.retain(|&s, _| s >= cutoff);
        }
    }
}

impl Protocol for OmegaMessagePattern {
    type Msg = QueryMsg;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, out: &mut Actions<QueryMsg>) {
        self.issue_query(out);
    }

    fn on_message(&mut self, from: ProcessId, msg: &QueryMsg, out: &mut Actions<QueryMsg>) {
        match msg {
            QueryMsg::Query { sn } => {
                self.responses_sent += 1;
                out.send(
                    from,
                    QueryMsg::Response {
                        sn: *sn,
                        counters: self.counters.clone(),
                    },
                );
            }
            QueryMsg::Response { sn, counters } => {
                for (mine, theirs) in self.counters.iter_mut().zip(counters) {
                    *mine = (*mine).max(*theirs);
                }
                if *sn != self.sn || self.closed {
                    return; // response to an old query, or query already closed
                }
                self.responders.insert(from);
                if self.responders.len() >= self.cfg.system.quorum() {
                    // The first n − t responses are in: everyone else loses.
                    self.close_query(out);
                }
            }
            QueryMsg::Losers { sn, losers } => {
                self.record_loser_report(*sn, losers);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, out: &mut Actions<QueryMsg>) {
        if timer == TIMER_QUERY {
            // The algorithm is time-free: a new query is only issued once the
            // previous one has collected its n − t responses (the timer just
            // paces the querying task). Issuing a new query early would turn
            // slow-but-winning responses into losing ones and destroy the
            // message-pattern guarantee.
            out.set_timer(TIMER_QUERY, self.cfg.period);
            if self.sn == 0 || self.closed {
                self.issue_query(out);
            }
        }
    }
}

impl LeaderOracle for OmegaMessagePattern {
    fn leader(&self) -> ProcessId {
        let mut best = ProcessId::new(0);
        let mut best_key = (u64::MAX, u32::MAX);
        for p in self.cfg.system.processes() {
            let key = (self.counters[p.index()], p.as_u32());
            if key < best_key {
                best_key = key;
                best = p;
            }
        }
        best
    }
}

impl Introspect for OmegaMessagePattern {
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            leader: self.leader(),
            sending_round: self.sn,
            receiving_round: self.sn,
            timer_value: self.cfg.period.ticks(),
            susp_levels: self.counters.clone(),
            extra: vec![
                (irs_obs::names::QUERIES_ISSUED, self.queries_issued),
                (irs_obs::names::RESPONSES_SENT, self.responses_sent),
                (irs_obs::names::LOSER_REPORTS_SENT, self.loser_reports_sent),
                (
                    irs_obs::names::VOTE_ROUNDS_RETAINED,
                    self.votes.len() as u64,
                ),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> SystemConfig {
        SystemConfig::new(4, 1).unwrap() // quorum 3
    }

    fn respond(p: &mut OmegaMessagePattern, from: u32, sn: u64) -> Actions<QueryMsg> {
        let mut out = Actions::new();
        p.on_message(
            ProcessId::new(from),
            &QueryMsg::Response {
                sn,
                counters: vec![0; 4],
            },
            &mut out,
        );
        out
    }

    #[test]
    fn start_issues_first_query() {
        let mut p = OmegaMessagePattern::new(ProcessId::new(0), system());
        let mut out = Actions::new();
        p.on_start(&mut out);
        assert_eq!(out.sends().len(), 1);
        assert!(matches!(out.sends()[0].msg, QueryMsg::Query { sn: 1 }));
    }

    #[test]
    fn queries_are_answered_with_responses() {
        let mut p = OmegaMessagePattern::new(ProcessId::new(2), system());
        let mut out = Actions::new();
        p.on_start(&mut out);
        let mut out = Actions::new();
        p.on_message(ProcessId::new(0), &QueryMsg::Query { sn: 4 }, &mut out);
        assert_eq!(out.sends().len(), 1);
        match &out.sends()[0].msg {
            QueryMsg::Response { sn, .. } => assert_eq!(*sn, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn closing_a_query_broadcasts_the_losers() {
        // n = 4, quorum 3: self + 2 responders close the query; the silent
        // process p4 is reported losing.
        let mut p = OmegaMessagePattern::new(ProcessId::new(0), system());
        let mut out = Actions::new();
        p.on_start(&mut out);
        assert!(respond(&mut p, 1, 1).sends().is_empty());
        let out = respond(&mut p, 2, 1);
        assert_eq!(out.sends().len(), 1);
        match &out.sends()[0].msg {
            QueryMsg::Losers { sn, losers } => {
                assert_eq!(*sn, 1);
                assert_eq!(losers.to_vec(), vec![ProcessId::new(3)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A late response to the closed query triggers nothing further.
        assert!(respond(&mut p, 3, 1).sends().is_empty());
    }

    #[test]
    fn no_new_query_until_the_previous_one_closes() {
        let mut p = OmegaMessagePattern::new(ProcessId::new(0), system());
        let mut out = Actions::new();
        p.on_start(&mut out);
        // Only one response arrives before the query timer fires: the open
        // query stays open (time-free waiting) and no new query is issued.
        respond(&mut p, 1, 1);
        let mut out = Actions::new();
        p.on_timer(TIMER_QUERY, &mut out);
        assert!(!out
            .sends()
            .iter()
            .any(|o| matches!(o.msg, QueryMsg::Query { .. })));
        assert_eq!(p.sn, 1);
        // Once the quorum arrives the query closes, and the next timer tick
        // issues query 2.
        respond(&mut p, 2, 1);
        let mut out = Actions::new();
        p.on_timer(TIMER_QUERY, &mut out);
        assert!(out
            .sends()
            .iter()
            .any(|o| matches!(o.msg, QueryMsg::Query { sn: 2 })));
    }

    #[test]
    fn counters_rise_only_on_a_quorum_of_loser_reports() {
        let mut p = OmegaMessagePattern::new(ProcessId::new(0), system());
        let mut out = Actions::new();
        p.on_start(&mut out);
        let loser = ProcessSet::from_ids(4, [ProcessId::new(3)]);
        // Two reports (below the quorum of 3): no charge.
        for reporter in [0u32, 1] {
            p.on_message(
                ProcessId::new(reporter),
                &QueryMsg::Losers {
                    sn: 1,
                    losers: loser.clone(),
                },
                &mut Actions::new(),
            );
        }
        assert_eq!(p.counters(), &[0, 0, 0, 0]);
        // Third distinct report reaches the quorum: one charge, exactly once.
        p.on_message(
            ProcessId::new(2),
            &QueryMsg::Losers {
                sn: 1,
                losers: loser.clone(),
            },
            &mut Actions::new(),
        );
        assert_eq!(p.counters(), &[0, 0, 0, 1]);
        // A fourth report for the same sn does not double-charge.
        p.on_message(
            ProcessId::new(3),
            &QueryMsg::Losers {
                sn: 1,
                losers: loser,
            },
            &mut Actions::new(),
        );
        assert_eq!(p.counters(), &[0, 0, 0, 1]);
    }

    #[test]
    fn counters_gossip_and_leader_is_min() {
        let mut p = OmegaMessagePattern::new(ProcessId::new(3), system());
        let mut out = Actions::new();
        p.on_start(&mut out);
        p.on_message(
            ProcessId::new(1),
            &QueryMsg::Response {
                sn: 1,
                counters: vec![5, 2, 9, 4],
            },
            &mut Actions::new(),
        );
        assert_eq!(p.counters(), &[5, 2, 9, 4]);
        assert_eq!(p.leader(), ProcessId::new(1));
    }

    #[test]
    fn responses_are_constrained_other_messages_are_not() {
        assert_eq!(QueryMsg::Query { sn: 3 }.constrained_round(), None);
        assert_eq!(
            QueryMsg::Response {
                sn: 3,
                counters: vec![]
            }
            .constrained_round(),
            Some(RoundNum::new(3))
        );
        assert_eq!(
            QueryMsg::Losers {
                sn: 3,
                losers: ProcessSet::empty(4)
            }
            .constrained_round(),
            None
        );
    }

    #[test]
    fn vote_bookkeeping_is_bounded() {
        let mut p = OmegaMessagePattern::new(ProcessId::new(0), system());
        let mut out = Actions::new();
        p.on_start(&mut out);
        p.sn = 10_000;
        let loser = ProcessSet::from_ids(4, [ProcessId::new(3)]);
        for sn in 1..=2_000u64 {
            p.on_message(
                ProcessId::new(1),
                &QueryMsg::Losers {
                    sn,
                    losers: loser.clone(),
                },
                &mut Actions::new(),
            );
        }
        assert!(p.snapshot().gauge("vote_rounds_retained").unwrap() <= VOTE_RETENTION + 1);
    }
}
