//! The leader lease: the period clock, the probe rounds, the grants.
//!
//! **Owns** the local period counter, the leader side's probe round, its
//! grants and validity, and the follower side's open grant. **Hides** when a
//! probe round opens, when a grant is given, when a quorum of grants makes
//! the lease valid and for how long, and when a lease ends. It is handed Ω's
//! output and its own id; it never sees the log, a message or a timer. The
//! rows R13–R18 of the replica's rule table are its handlers, and the
//! module docs of `replica` derive why they are safe.

use irs_types::{Duration, ProcessId};
use std::collections::BTreeSet;

/// Periods a quorum-granted lease stays valid, counted from the period the
/// winning probe was *sent* (R17).
pub(super) const LEASE_VALIDITY: u64 = 4;

/// Periods a replica honours a grant, counted from probe *receipt* (R15).
/// Twice the validity window: the safety margin against relative timer
/// drift.
pub(super) const GRANT_PERIODS: u64 = 2 * LEASE_VALIDITY;

/// The lease clock and probe bookkeeping of one replica.
#[derive(Debug, Default)]
pub(super) struct Lease {
    /// Cadence of the lease timer (the consensus ballot-check period).
    pub(super) period: Duration,
    /// Local period counter — the only clock the lease logic reads.
    now: u64,
    /// Phase-1 quorum size (`n − t`), shared with the consensus layer.
    quorum: usize,
    /// Leader side: the probe round currently collecting acks.
    probe_rid: u64,
    /// Leader side: the period `probe_rid` was sent.
    probe_sent_at: u64,
    /// Leader side: replicas that granted the current round (the prober
    /// counts itself apart, R18).
    grants: BTreeSet<ProcessId>,
    /// Leader side: the highest probe round that reached a grant quorum.
    pub(super) confirmed_rid: u64,
    /// Leader side: first period at which the lease is no longer valid
    /// (0 = no lease).
    valid_until: u64,
    /// Follower side: an open grant `(leader, first period it no longer
    /// binds)`.
    pub(super) granted: Option<(ProcessId, u64)>,
    pub(super) refreshes: u64,
    /// Leases that ended: ran out unrefreshed, died with the leadership, or
    /// were given up by a grant to another replica.
    pub(super) expiries: u64,
}

impl Lease {
    pub(super) fn new(period: Duration, quorum: usize) -> Self {
        Lease {
            period,
            quorum,
            ..Lease::default()
        }
    }

    /// Whether the quorum lease currently covers a leader-local read.
    pub(super) fn valid(&self) -> bool {
        self.now < self.valid_until
    }

    /// The probe round a read arriving now waits for: the next one, always
    /// *sent after* the read arrived.
    pub(super) fn next_rid(&self) -> u64 {
        self.probe_rid + 1
    }

    /// One firing of the lease timer. Returns the round a leader probes
    /// with; `None` when Ω names somebody else.
    pub(super) fn tick(&mut self, leading: bool) -> Option<u64> {
        self.now += 1;
        self.grants.clear();
        // R14.
        if !leading || !self.valid() {
            self.end();
        }
        // R13.
        leading.then(|| {
            self.probe_rid += 1;
            self.probe_sent_at = self.now;
            self.probe_rid
        })
    }

    /// R15, R16: a probe from `from`, granted only while Ω names the prober
    /// and no unexpired grant to a different replica is open. The grant
    /// window counts from *this* period — probe receipt, which follows
    /// probe send in real time — and giving it ends our own lease.
    pub(super) fn probe(&mut self, from: ProcessId, leader: ProcessId, me: ProcessId) -> bool {
        let granted = self.free_for(from) && leader == from && from != me;
        if granted {
            self.granted = Some((from, self.now + GRANT_PERIODS));
            // R16.
            self.end();
        }
        granted
    }

    /// R17, R18: a granted ack for the current probe round while we lead.
    /// A quorum of grants — the prober counting itself only while it is
    /// free — confirms the round and refreshes the lease from the round's
    /// *send* period.
    pub(super) fn ack(&mut self, from: ProcessId, rid: u64, leading: bool, me: ProcessId) {
        if rid != self.probe_rid || !leading {
            return;
        }
        self.grants.insert(from);
        // R18.
        let votes = self.grants.len() + usize::from(self.free_for(me));
        if votes >= self.quorum && self.confirmed_rid < rid {
            self.confirmed_rid = rid;
            let fresh = self.probe_sent_at + LEASE_VALIDITY;
            if fresh > self.valid_until {
                self.valid_until = fresh;
                self.refreshes += 1;
            }
        }
    }

    /// Whether this replica holds no unexpired grant to anyone but `p`.
    fn free_for(&self, p: ProcessId) -> bool {
        self.granted
            .is_none_or(|(q, until)| q == p || self.now >= until)
    }

    /// Ends the lease, if there is one, and counts it.
    fn end(&mut self) {
        self.expiries += u64::from(self.valid_until != 0);
        self.valid_until = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: usize = 0;
    const B: usize = 1;
    const X: usize = 2;
    const Y: usize = 3;
    const Z: usize = 4;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i as u32)
    }

    /// Five leases (`n = 5`, quorum 3) and each replica's Ω output; probes
    /// and acks are delivered by hand, so every interleaving is a script.
    struct Group {
        leases: Vec<Lease>,
        omega: [usize; 5],
    }

    impl Group {
        fn new() -> Self {
            Group {
                leases: (0..5)
                    .map(|_| Lease::new(Duration::from_ticks(1), 3))
                    .collect(),
                omega: [A; 5],
            }
        }

        /// `i`'s lease timer fires. If it leads, its probe reaches `to`,
        /// and each answer comes straight back.
        fn tick(&mut self, i: usize, to: &[usize]) {
            let leading = self.omega[i] == i;
            if let Some(rid) = self.leases[i].tick(leading) {
                for &j in to {
                    if self.leases[j].probe(pid(i), pid(self.omega[j]), pid(j)) {
                        self.leases[i].ack(pid(j), rid, leading, pid(i));
                    }
                }
            }
        }

        /// One period in which every follower ticks and `A` probes `to`.
        fn a_probes(&mut self, to: &[usize]) {
            for i in [B, X, Y, Z] {
                self.tick(i, &[]);
            }
            self.tick(A, to);
        }

        fn valid(&self) -> Vec<usize> {
            (0..5).filter(|&i| self.leases[i].valid()).collect()
        }
    }

    /// Steps 1–3 of the flicker: A holds a lease from {A, y, z}; x granted
    /// A once, then named B for `GRANT_PERIODS` periods, so its grant has
    /// expired. Every replica's period clock reads 9.
    fn a_leads_and_x_is_free() -> Group {
        let mut g = Group::new();
        g.a_probes(&[X, Y, Z]);
        g.omega[X] = B;
        for _ in 0..GRANT_PERIODS {
            g.a_probes(&[Y, Z]);
        }
        assert_eq!(g.valid(), vec![A]);
        assert!(g.leases[X].free_for(pid(B)) && g.leases[X].now == 1 + GRANT_PERIODS);
        g
    }

    #[test]
    fn a_quorum_of_grants_is_valid_for_lease_validity_periods_from_the_send() {
        let mut g = Group::new();
        g.a_probes(&[B]);
        assert!(
            !g.leases[A].valid(),
            "one grant + self is not a quorum of 3"
        );
        g.a_probes(&[B, X]);
        assert_eq!((g.valid(), g.leases[A].refreshes), (vec![A], 1));
        assert_eq!(g.leases[A].confirmed_rid, 2);
        for _ in 0..LEASE_VALIDITY {
            g.a_probes(&[]);
        }
        assert!(!g.leases[A].valid());
        assert_eq!(g.leases[A].expiries, 1);
    }

    #[test]
    fn a_grant_binds_the_granter_for_grant_periods_from_receipt() {
        let mut g = Group::new();
        g.a_probes(&[X]);
        assert_eq!(g.leases[X].granted, Some((pid(A), 1 + GRANT_PERIODS)));
        // Ω at x moves to B: B's probes are refused until the grant ends.
        g.omega[X] = B;
        g.omega[B] = B;
        for _ in 1..GRANT_PERIODS {
            g.tick(X, &[]);
            assert!(!g.leases[X].probe(pid(B), pid(B), pid(X)));
        }
        g.tick(X, &[]);
        assert!(g.leases[X].probe(pid(B), pid(B), pid(X)));
        // Nobody grants a prober its Ω does not name, nor itself.
        assert!(!g.leases[Y].probe(pid(B), pid(A), pid(Y)));
        assert!(!g.leases[B].probe(pid(B), pid(B), pid(B)));
    }

    /// Step 4, both ways: after A grants B, A's lease may not still cover
    /// reads (the flip came before A's next tick), and A may not re-acquire
    /// one by counting itself beside y and z (it ticked while deposed).
    #[test]
    fn an_omega_flicker_never_leaves_two_valid_leases() {
        // Interleaving 1: A grants B between two of its own ticks.
        let mut g = a_leads_and_x_is_free();
        g.omega[A] = B;
        g.omega[B] = B;
        for i in [X, Y, Z] {
            g.tick(i, &[]);
        }
        g.tick(B, &[A, X]);
        g.omega[A] = A;
        let between_ticks = g.valid();

        // Interleaving 2: A ticks while deposed, then probes again.
        let mut g = a_leads_and_x_is_free();
        g.omega[A] = B;
        g.omega[B] = B;
        g.tick(A, &[]);
        for i in [X, Y, Z] {
            g.tick(i, &[]);
        }
        g.tick(B, &[A, X]);
        g.omega[A] = A;
        g.a_probes(&[Y, Z]);
        let after_reprobe = g.valid();

        // The grant to B ended A's lease (R16), and A's own vote stays B's
        // until that grant expires (R18): only B's lease is valid.
        assert_eq!((between_ticks, after_reprobe), (vec![B], vec![B]));
    }

    /// With one leader and no flicker the rows change nothing: every round
    /// confirms and the lease never lapses.
    #[test]
    fn a_stable_leader_keeps_its_lease_every_period() {
        let mut g = Group::new();
        for period in 1..=3 * GRANT_PERIODS {
            g.a_probes(&[B, X, Y, Z]);
            assert_eq!(g.valid(), vec![A]);
            assert_eq!(g.leases[A].confirmed_rid, period);
        }
        assert_eq!(
            (g.leases[A].refreshes, g.leases[A].expiries),
            (3 * GRANT_PERIODS, 0)
        );
    }
}
