//! Shared hashing/index derivation for both filter kinds.
//!
//! Counting filters (on cache servers) and plain filters (broadcast to
//! web servers) must agree bit-for-bit on which counters/bits a key
//! touches; both derive indices from this one plan, over the
//! workspace's one FNV-1a and SplitMix64 in `proteus_ring::hash`.

use crate::config::BloomConfig;
use proteus_ring::hash::{fnv1a64, splitmix64};

/// Which of `partitions` (a power of two) equal slices of a digest
/// `key` hashes into: FNV-1a, xor-folded so the low bits see the whole
/// hash. A sharded cache routes keys to shards by the same function, so
/// shard `s` holds exactly the keys of slice `s`.
///
/// # Example
///
/// ```
/// assert_eq!(proteus_bloom::partition_of(b"any key", 1), 0);
/// assert!(proteus_bloom::partition_of(b"any key", 8) < 8);
/// ```
#[must_use]
pub fn partition_of(key: &[u8], partitions: usize) -> usize {
    debug_assert!(partitions.is_power_of_two());
    fold(fnv1a64(key), partitions - 1)
}

fn fold(base: u64, mask: usize) -> usize {
    (base ^ (base >> 32)) as usize & mask
}

/// Derives the `h` counter indices for a key via double hashing inside
/// the key's slice: `index_i = p·s + (a + i·b) mod s`, with `s = l / P`
/// counters a slice, `p` the key's [`partition_of`], and `a`, `b` mixed
/// from the key and the filter seed. Double hashing gives `h`
/// practically independent functions from two base hashes (the standard
/// Kirsch–Mitzenmacher construction). An undivided filter is the one
/// slice `s = l`, `p = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexPlan {
    /// Counters per slice, kept so no call divides `l` by `P`.
    slice: usize,
    /// `P - 1`.
    mask: usize,
    hashes: u32,
    seed: u64,
}

impl IndexPlan {
    /// # Panics
    ///
    /// Panics if `config.partitions` is not a power of two that divides
    /// `config.counters` (see [`BloomConfig::with_partitions`]).
    pub(crate) fn new(config: BloomConfig) -> Self {
        assert!(
            config.partitions.is_power_of_two()
                && config.counters.is_multiple_of(config.partitions),
            "{} counters do not split into {} partitions",
            config.counters,
            config.partitions
        );
        IndexPlan {
            slice: config.counters / config.partitions,
            mask: config.partitions - 1,
            hashes: config.hashes,
            seed: config.seed,
        }
    }

    pub(crate) fn indices(&self, key: &[u8]) -> impl Iterator<Item = usize> + '_ {
        let base = fnv1a64(key);
        let a = splitmix64(base ^ self.seed);
        let b = splitmix64(base ^ self.seed.wrapping_add(0xA5A5_A5A5)) | 1;
        let (first, s) = (fold(base, self.mask) * self.slice, self.slice as u64);
        (0..u64::from(self.hashes))
            .map(move |i| first + (a.wrapping_add(i.wrapping_mul(b)) % s) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_deterministic_and_in_range() {
        let plan = IndexPlan::new(BloomConfig::new(1000, 1, 4).with_seed(7));
        let a: Vec<usize> = plan.indices(b"key").collect();
        let b: Vec<usize> = plan.indices(b"key").collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|&i| i < 1000));
    }

    #[test]
    fn different_keys_touch_different_indices() {
        let plan = IndexPlan::new(BloomConfig::new(1 << 20, 1, 4));
        let a: Vec<usize> = plan.indices(b"alpha").collect();
        let b: Vec<usize> = plan.indices(b"beta").collect();
        assert_ne!(a, b);
    }

    #[test]
    fn seed_changes_the_function_family() {
        let p1 = IndexPlan::new(BloomConfig::new(1 << 16, 1, 4).with_seed(1));
        let p2 = IndexPlan::new(BloomConfig::new(1 << 16, 1, 4).with_seed(2));
        let a: Vec<usize> = p1.indices(b"key").collect();
        let b: Vec<usize> = p2.indices(b"key").collect();
        assert_ne!(a, b);
    }

    #[test]
    fn a_partitioned_plan_is_the_slice_plan_moved_to_the_keys_slice() {
        let whole = BloomConfig::new(1000, 1, 4).with_seed(3).with_partitions(8);
        assert_eq!(whole.counters, 8 * 128);
        let slice = BloomConfig::new(128, 1, 4).with_seed(3);
        let (whole, slice) = (IndexPlan::new(whole), IndexPlan::new(slice));
        for i in 0..500u64 {
            let key = i.to_le_bytes();
            let first = partition_of(&key, 8) * 128;
            let moved: Vec<usize> = slice.indices(&key).map(|i| first + i).collect();
            assert_eq!(whole.indices(&key).collect::<Vec<_>>(), moved);
        }
    }

    /// Partitions and digest bits for a fixed key set: a change to the
    /// hash functions or the index derivation moves this value, and a
    /// web tier holding the old functions would misread every digest.
    #[test]
    fn partitions_and_digest_bits_match_their_known_answer() {
        let config = BloomConfig::new(4096, 4, 4).with_seed(7).with_partitions(8);
        let mut filter = crate::CountingBloomFilter::new(config);
        let mut acc = 0u64;
        for i in 0..1000 {
            let key = format!("page:{i}");
            filter.insert(key.as_bytes());
            acc = acc.rotate_left(5) ^ partition_of(key.as_bytes(), 8) as u64;
        }
        for &w in filter.snapshot().words() {
            acc = acc.rotate_left(7) ^ w;
        }
        assert_eq!(acc, 0x2a2f_bdea_3f3f_1ffd);
    }

    #[test]
    #[should_panic(expected = "do not split")]
    fn a_plan_rejects_counters_its_partitions_do_not_divide() {
        let mut config = BloomConfig::new(1001, 1, 4);
        config.partitions = 8;
        let _ = IndexPlan::new(config);
    }
}
