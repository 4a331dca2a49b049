//! Plain bit-array Bloom filter: the broadcast form of a digest.

use std::fmt;

use crate::config::BloomConfig;
use crate::indexing::IndexPlan;

/// A standard Bloom filter over `l` bits with `h` hash functions.
///
/// Web servers hold one of these per (draining) cache server: the
/// [`CountingBloomFilter::snapshot`](crate::CountingBloomFilter::snapshot)
/// of that server's digest, answering "is this key hot over there?"
/// during a provisioning transition (Algorithm 2 line 6).
///
/// # Example
///
/// ```
/// use proteus_bloom::{BloomConfig, BloomFilter};
/// let mut f = BloomFilter::new(BloomConfig::new(1 << 16, 4, 4));
/// f.insert(b"page:7");
/// assert!(f.contains(b"page:7"));
/// assert!(!f.contains(b"page:8"));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BloomFilter {
    config: BloomConfig,
    words: Vec<u64>,
    set_bits: usize,
}

impl BloomFilter {
    /// Creates an empty filter. Only `counters`, `hashes`, and `seed`
    /// of the configuration are used; `counter_bits` is normalized to 1
    /// (a bit filter has no counter width), so filters from different
    /// counting-filter widths compare equal when their bits agree.
    #[must_use]
    pub fn new(mut config: BloomConfig) -> Self {
        config.counter_bits = 1;
        let words = (config.counters as u64).div_ceil(64) as usize;
        BloomFilter {
            config,
            words: vec![0; words],
            set_bits: 0,
        }
    }

    /// The filter's configuration.
    #[must_use]
    pub fn config(&self) -> BloomConfig {
        self.config
    }

    /// Number of bits set.
    #[must_use]
    pub fn set_bits(&self) -> usize {
        self.set_bits
    }

    /// Fill factor in `[0, 1]`.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.set_bits as f64 / self.config.counters as f64
    }

    fn plan(&self) -> IndexPlan {
        IndexPlan {
            counters: self.config.counters,
            hashes: self.config.hashes,
            seed: self.config.seed,
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        for i in self.plan().indices(key) {
            self.set_raw_bit(i);
        }
    }

    /// Membership query (false positives possible, false negatives not).
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.plan()
            .indices(key)
            .all(|i| self.words[i / 64] >> (i % 64) & 1 == 1)
    }

    /// Sets bit `i` directly; used when collapsing a counting filter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn set_raw_bit(&mut self, i: usize) {
        assert!(i < self.config.counters, "bit {i} out of range");
        let mask = 1u64 << (i % 64);
        if self.words[i / 64] & mask == 0 {
            self.words[i / 64] |= mask;
            self.set_bits += 1;
        }
    }

    /// Estimates the number of distinct keys from the unset-bit
    /// fraction (`-l/h · ln(z/l)`), matching
    /// [`CountingBloomFilter::estimate_cardinality`](crate::CountingBloomFilter::estimate_cardinality)
    /// so web servers can size transitions from broadcast digests.
    /// Returns `None` if every bit is set.
    #[must_use]
    pub fn estimate_cardinality(&self) -> Option<f64> {
        let zeros = self.config.counters - self.set_bits;
        if zeros == 0 {
            return None;
        }
        let l = self.config.counters as f64;
        Some(-(l / f64::from(self.config.hashes)) * (zeros as f64 / l).ln())
    }

    /// The raw bit words (for serialization).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a filter from its configuration and raw words
    /// (`counter_bits` is normalized to 1, as in [`new`](Self::new)).
    ///
    /// # Panics
    ///
    /// Panics if `words` has the wrong length for the configuration.
    #[must_use]
    pub fn from_words(mut config: BloomConfig, words: Vec<u64>) -> Self {
        config.counter_bits = 1;
        let expect = (config.counters as u64).div_ceil(64) as usize;
        assert_eq!(words.len(), expect, "word count mismatch");
        let set_bits = words.iter().map(|w| w.count_ones() as usize).sum();
        BloomFilter {
            config,
            words,
            set_bits,
        }
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.set_bits = 0;
    }
}

impl fmt::Debug for BloomFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BloomFilter")
            .field("bits", &self.config.counters)
            .field("hashes", &self.config.hashes)
            .field("set_bits", &self.set_bits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives_ever() {
        let mut f = BloomFilter::new(BloomConfig::new(4096, 1, 4));
        for i in 0..2000u64 {
            f.insert(&i.to_le_bytes());
        }
        // Massively overloaded, yet every inserted key still answers yes.
        for i in 0..2000u64 {
            assert!(f.contains(&i.to_le_bytes()));
        }
    }

    #[test]
    fn fill_ratio_and_set_bits_track_insertions() {
        let mut f = BloomFilter::new(BloomConfig::new(1 << 12, 1, 4));
        assert_eq!(f.set_bits(), 0);
        f.insert(b"one");
        assert!(f.set_bits() > 0 && f.set_bits() <= 4);
        assert!(f.fill_ratio() > 0.0 && f.fill_ratio() < 0.01);
    }

    #[test]
    fn words_roundtrip() {
        let mut f = BloomFilter::new(BloomConfig::new(1000, 1, 3));
        for i in 0..100u64 {
            f.insert(&i.to_le_bytes());
        }
        let rebuilt = BloomFilter::from_words(f.config(), f.words().to_vec());
        assert_eq!(rebuilt, f);
        assert_eq!(rebuilt.set_bits(), f.set_bits());
        for i in 0..200u64 {
            assert_eq!(
                rebuilt.contains(&i.to_le_bytes()),
                f.contains(&i.to_le_bytes())
            );
        }
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn from_words_validates_length() {
        let _ = BloomFilter::from_words(BloomConfig::new(1000, 1, 3), vec![0; 2]);
    }

    #[test]
    fn cardinality_matches_counting_twin() {
        use crate::CountingBloomFilter;
        let cfg = BloomConfig::new(1 << 14, 4, 4);
        let mut counting = CountingBloomFilter::new(cfg);
        for i in 0..2_000u64 {
            counting.insert(&i.to_le_bytes());
        }
        let snap = counting.snapshot();
        let a = counting.estimate_cardinality().unwrap();
        let b = snap.estimate_cardinality().unwrap();
        assert!((a - b).abs() < 1e-9, "counting {a} vs snapshot {b}");
        assert!((b - 2_000.0).abs() / 2_000.0 < 0.05);
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(BloomConfig::new(512, 1, 2));
        f.insert(b"x");
        f.clear();
        assert!(!f.contains(b"x"));
        assert_eq!(f.set_bits(), 0);
    }
}
