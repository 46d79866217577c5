//! A tiny shared FNV-1a hasher.
//!
//! Several layers need a cheap, dependency-free, *cross-process-stable*
//! 64-bit digest (snapshot gauges for decided commands, WAL frame and
//! snapshot checksums). `std`'s `DefaultHasher` is
//! explicitly unstable across releases and processes, so the workspace
//! standardises on one FNV-1a implementation instead of each crate
//! hand-rolling the constants.

/// A streaming 64-bit FNV-1a hasher.
///
/// # Example
///
/// ```
/// use irs_types::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write(b"key");
/// h.write(b"value");
/// let digest = h.finish();
/// assert_ne!(digest, Fnv64::new().finish());
/// assert_eq!(digest, Fnv64::digest_of(b"keyvalue"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot digest of a byte string.
    pub fn digest_of(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.write(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(Fnv64::digest_of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::digest_of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::digest_of(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv64::digest_of(b"foobar"));
        assert_eq!(Fnv64::default().finish(), Fnv64::new().finish());
    }
}
