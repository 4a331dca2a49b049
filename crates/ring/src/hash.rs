//! Hash functions for keys and ring positions.
//!
//! Implemented in-repo (FNV-1a with a SplitMix64 finalizer) so the
//! workspace needs no external hashing crates, and so the web tier,
//! cache tier, and TCP protocol all agree on key hashes byte-for-byte.

/// 64-bit FNV-1a over a byte string.
///
/// # Example
///
/// ```
/// let h = proteus_ring::hash::fnv1a64(b"Main_Page");
/// assert_ne!(h, proteus_ring::hash::fnv1a64(b"main_page"));
/// ```
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// SplitMix64 finalizer: a fast, high-quality 64-bit mixing function.
///
/// Used to turn sequential integers (page IDs) and seed-xored hashes
/// into uniformly distributed ring positions.
///
/// # Example
///
/// ```
/// use proteus_ring::hash::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// ```
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded family of 64-bit key hashers.
///
/// Each [`KeyHasher`] deterministically maps byte strings and integer
/// keys to `u64`. Different seeds give (practically) independent hash
/// functions — exactly what the replication scheme of Section III-E
/// needs for its `r` distinct hash rings, and what the counting Bloom
/// filter needs for its `h` hash functions.
///
/// # Example
///
/// ```
/// use proteus_ring::hash::KeyHasher;
/// let a = KeyHasher::new(1);
/// let b = KeyHasher::new(2);
/// assert_eq!(a.hash_bytes(b"k"), KeyHasher::new(1).hash_bytes(b"k"));
/// assert_ne!(a.hash_bytes(b"k"), b.hash_bytes(b"k"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyHasher {
    seed: u64,
}

impl KeyHasher {
    /// Creates a hasher with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        KeyHasher { seed }
    }

    /// Hashes a byte string.
    #[must_use]
    pub fn hash_bytes(&self, bytes: &[u8]) -> u64 {
        splitmix64(fnv1a64(bytes) ^ self.seed)
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new(0)
    }
}

/// The hash function of ring `ring` in a family of replica rings
/// derived from `seed` (Section III-E's `r` hash functions), as
/// [`ReplicatedPlacement`](crate::ReplicatedPlacement) derives its
/// rings.
///
/// # Example
///
/// ```
/// use proteus_ring::hash::replica_ring_hasher;
/// assert_eq!(replica_ring_hasher(42, 1), replica_ring_hasher(42, 1));
/// assert_ne!(replica_ring_hasher(42, 1), replica_ring_hasher(42, 2));
/// ```
#[must_use]
pub fn replica_ring_hasher(seed: u64, ring: usize) -> KeyHasher {
    KeyHasher::new(seed.wrapping_add(ring as u64).wrapping_mul(0x9E37_79B9) | 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix_is_a_bijection_sample() {
        // Distinct inputs produce distinct outputs on a large sample
        // (SplitMix64 is bijective, so no collisions at all).
        let mut seen = std::collections::HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn hasher_is_deterministic_and_seed_sensitive() {
        let a = KeyHasher::new(7);
        assert_eq!(a.hash_bytes(b"42"), KeyHasher::new(7).hash_bytes(b"42"));
        assert_ne!(a.hash_bytes(b"42"), KeyHasher::new(8).hash_bytes(b"42"));
        assert_ne!(a.hash_bytes(b"x"), a.hash_bytes(b"y"));
    }

    #[test]
    fn hash_bytes_distributes_uniformly_across_buckets() {
        let hasher = KeyHasher::new(3);
        let buckets = 16usize;
        let mut counts = vec![0u32; buckets];
        let n = 160_000u64;
        for k in 0..n {
            counts[(hasher.hash_bytes(&k.to_le_bytes()) % buckets as u64) as usize] += 1;
        }
        let expect = n as f64 / buckets as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.03, "bucket {i}: {c} vs {expect}");
        }
    }

    #[test]
    fn default_hasher_is_seed_zero() {
        assert_eq!(
            KeyHasher::default().hash_bytes(b"x"),
            KeyHasher::new(0).hash_bytes(b"x")
        );
    }
}
