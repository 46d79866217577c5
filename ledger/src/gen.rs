//! The seeded op stream. `--seed` decides which key each op touches, the
//! value bytes, and the read/write mix (and, on `sim_election`, the
//! simulator seed); nothing else of the seed reaches the program.

use irs_sim::SimRng;
use irs_svc::loadgen::key_for;

/// Value payload length. The first eight bytes carry the write's sequence
/// number (the consistency checkers read it back); the rest is seeded noise.
pub const VALUE_LEN: usize = 64;

/// What the next op of a stream is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Put { key: Vec<u8> },
    Get { key: Vec<u8> },
}

impl Op {
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Put { key } | Op::Get { key } => key,
        }
    }
}

/// One logical client's op stream.
#[derive(Debug)]
pub struct OpStream {
    rng: SimRng,
    client: u64,
    keys: u64,
    read_pct: u64,
}

impl OpStream {
    /// A stream for logical client `client` over its own `keys`-key space,
    /// issuing `read_pct` reads per 100 ops. Streams of different clients
    /// under one seed are independent forks.
    pub fn new(seed: u64, client: u64, keys: u64, read_pct: u64) -> OpStream {
        OpStream {
            rng: SimRng::from_seed(seed).fork(client),
            client,
            keys,
            read_pct,
        }
    }

    /// The next op: a seeded key of this client's key space, read or write
    /// by the seeded mix.
    pub fn next_op(&mut self) -> Op {
        let key = key_for(self.client, self.rng.range_u64(0..self.keys));
        if self.rng.range_u64(0..100) < self.read_pct {
            Op::Get { key }
        } else {
            Op::Put { key }
        }
    }

    /// The value a write with sequence number `seq` carries.
    pub fn value(&mut self, seq: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(VALUE_LEN);
        v.extend_from_slice(&seq.to_le_bytes());
        while v.len() < VALUE_LEN {
            v.extend_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_svc::loadgen::seq_of_value;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut s = OpStream::new(seed, 5, 64, 50);
            (0..200)
                .map(|i| (s.next_op(), s.value(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(7));
    }

    #[test]
    fn values_carry_their_seq_and_mix_follows_the_share() {
        let mut s = OpStream::new(3, 9, 16, 90);
        let v = s.value(77);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(seq_of_value(&v), Some(77));
        let reads = (0..10_000)
            .filter(|_| matches!(s.next_op(), Op::Get { .. }))
            .count();
        assert!((8_700..9_300).contains(&reads), "reads = {reads}");
        let mut w = OpStream::new(3, 9, 16, 0);
        assert!((0..100).all(|_| matches!(w.next_op(), Op::Put { .. })));
    }
}
