//! The client session: who waits for which write, and what a request or
//! an apply owes the client.
//!
//! **Owns** `awaiting`, the endpoint to ack by `(client, seq)`. **Hides**
//! the two decisions of the client plane. On request: re-ack the latest
//! applied write, drop a stale one, redirect, or sequence. On apply: ack,
//! or stay silent. It is handed the store's last applied `(seq, slot)` of
//! the client and Ω's output with its own id; the replica sends the
//! replies and submits to the log. The rows R2–R6 of the replica's rule
//! table are its handlers.
//!
//! `Applied` must mean "this write's effect is in the store". The store's
//! session filter applies per-client seqs in increasing order, so only a
//! retry of the *latest* applied write can be re-acked; a request below
//! that seq was (or will be) rejected as stale, and a decided entry the
//! filter skipped (a stale seq overtaken by a pipelined later write, or a
//! retry's second copy) never landed. Both get silence: the client's
//! deadline reports the failure honestly instead of an ack lying about it.

use irs_types::ProcessId;
use std::collections::BTreeMap;

/// What a parsed request from a client is owed.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum OnRequest {
    /// Its write is the client's latest applied one, at this slot: ack it.
    Reack(u64),
    /// Below the client's latest applied write: silence.
    Stale,
    /// We do not lead: name the leader.
    Redirect(ProcessId),
    /// We lead: the replica sequences it; the ack waits for the apply.
    Sequence,
}

/// The clients awaiting an ack at one replica.
#[derive(Debug, Default)]
pub(super) struct Session {
    /// Clients awaiting an ack, by `(client, seq)` → their endpoint id.
    pub(super) awaiting: BTreeMap<(u64, u64), ProcessId>,
}

impl Session {
    /// R2–R5: a request for write `(client, seq)` from endpoint `from`;
    /// `last_applied` is the client's latest applied `(seq, slot)`.
    pub(super) fn on_request(
        &mut self,
        from: ProcessId,
        (client, seq): (u64, u64),
        last_applied: Option<(u64, u64)>,
        leader: ProcessId,
        me: ProcessId,
    ) -> OnRequest {
        match last_applied {
            // R2.
            Some((latest, slot)) if seq == latest => OnRequest::Reack(slot),
            // R3.
            Some((latest, _)) if seq < latest => OnRequest::Stale,
            // R4.
            _ if leader != me => OnRequest::Redirect(leader),
            // R5.
            _ => {
                self.awaiting.insert((client, seq), from);
                OnRequest::Sequence
            }
        }
    }

    /// R6: write `(client, seq)` was applied — `fresh` when its effect
    /// landed. Returns the endpoint to ack; the entry is retired either way.
    pub(super) fn on_apply(&mut self, (client, seq): (u64, u64), fresh: bool) -> Option<ProcessId> {
        self.awaiting.remove(&(client, seq)).filter(|_| fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_is_reacked_dropped_redirected_or_sequenced() {
        let (me, other, ep) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(9));
        let mut session = Session::default();
        let applied = Some((5, 40));
        assert_eq!(
            session.on_request(ep, (4, 5), applied, other, me),
            OnRequest::Reack(40)
        );
        assert_eq!(
            session.on_request(ep, (4, 4), applied, me, me),
            OnRequest::Stale
        );
        assert_eq!(
            session.on_request(ep, (4, 6), applied, other, me),
            OnRequest::Redirect(other)
        );
        assert!(session.awaiting.is_empty(), "only sequencing awaits an ack");
        assert_eq!(
            session.on_request(ep, (4, 6), applied, me, me),
            OnRequest::Sequence
        );
        assert_eq!(
            session.on_request(ep, (7, 1), None, me, me),
            OnRequest::Sequence
        );
        assert_eq!(session.awaiting.len(), 2);
    }

    #[test]
    fn an_apply_acks_only_a_write_that_landed_and_retires_its_entry() {
        let mut session = Session::default();
        session.awaiting.insert((4, 6), ProcessId::new(9));
        session.awaiting.insert((7, 1), ProcessId::new(8));
        assert_eq!(session.on_apply((4, 6), true), Some(ProcessId::new(9)));
        assert_eq!(session.on_apply((7, 1), false), None, "skipped: silence");
        assert_eq!(session.on_apply((5, 1), true), None, "nobody awaits it");
        assert!(session.awaiting.is_empty());
    }
}
