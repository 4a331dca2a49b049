//! Plain bit-array Bloom filter: the broadcast form of a digest.

use std::fmt;

use crate::config::{estimate_cardinality, BloomConfig};
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
    plan: IndexPlan,
    words: Vec<u64>,
    set_bits: usize,
}

impl BloomFilter {
    /// Creates an empty filter. Only `counters`, `hashes`, and `seed`
    /// of the configuration are used; `counter_bits` is normalized to 1
    /// (a bit filter has no counter width), so filters from different
    /// counting-filter widths compare equal when their bits agree.
    #[must_use]
    pub fn new(config: BloomConfig) -> Self {
        let words = config.counters.div_ceil(64);
        Self::from_words(config, vec![0; words])
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

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let plan = self.plan;
        for i in plan.indices(key) {
            self.set_raw_bit(i);
        }
    }

    /// Membership query (false positives possible, false negatives not).
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.plan
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
        estimate_cardinality(&self.config, self.config.counters - self.set_bits)
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
    /// Panics if `words` has the wrong length for the configuration, or
    /// sets a bit past the last counter (bytes from outside the program
    /// go through [`DigestSnapshot::from_bytes`](crate::DigestSnapshot::from_bytes),
    /// which rejects both).
    #[must_use]
    pub fn from_words(mut config: BloomConfig, words: Vec<u64>) -> Self {
        config.counter_bits = 1;
        assert_eq!(
            words.len(),
            config.counters.div_ceil(64),
            "word count mismatch"
        );
        assert_eq!(
            stray_bits(config.counters, &words),
            0,
            "bits set past the last counter"
        );
        let set_bits = words.iter().map(|w| w.count_ones() as usize).sum();
        BloomFilter {
            config,
            plan: IndexPlan::new(config),
            words,
            set_bits,
        }
    }

    /// Joins the per-partition filters of a partitioned digest, slice 0
    /// first, into the one filter a
    /// [`with_partitions`](BloomConfig::with_partitions) configuration
    /// describes: the words are concatenated, nothing is ORed. A single
    /// part is returned as it is.
    ///
    /// # Panics
    ///
    /// Panics if the parts are not a power-of-two number of undivided
    /// filters of one configuration, or — when there are several — if
    /// that configuration's `counters` is not a multiple of 64.
    #[must_use]
    pub fn concat(parts: impl IntoIterator<Item = BloomFilter>) -> BloomFilter {
        let mut parts = parts.into_iter();
        let first = parts.next().expect("a digest has at least one partition");
        let slice = first.config;
        assert_eq!(slice.partitions, 1, "parts must be undivided filters");
        let (mut words, mut partitions) = (first.words, 1);
        words.reserve(parts.size_hint().0 * words.len());
        for part in parts {
            assert_eq!(part.config, slice, "parts must share one configuration");
            words.extend_from_slice(&part.words);
            partitions += 1;
        }
        assert!(
            partitions == 1 || slice.counters.is_multiple_of(64),
            "partitions must be whole words to concatenate"
        );
        let config = BloomConfig {
            counters: slice.counters * partitions,
            partitions,
            ..slice
        };
        BloomFilter::from_words(config, words)
    }
}

/// The bits `words` sets at or past bit `counters` of its last word.
pub(crate) fn stray_bits(counters: usize, words: &[u64]) -> u64 {
    match (counters % 64, words.last()) {
        (0, _) | (_, None) => 0,
        (used, Some(last)) => last >> used,
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
    #[should_panic(expected = "bits set past the last counter")]
    fn from_words_rejects_bits_past_the_last_counter() {
        // 65 counters: only bit 0 of the second word is a counter.
        let _ = BloomFilter::from_words(BloomConfig::new(65, 1, 3), vec![0, u64::MAX]);
    }

    #[test]
    fn from_words_counts_every_bit_of_a_full_tail_word() {
        let full = BloomFilter::from_words(BloomConfig::new(65, 1, 3), vec![u64::MAX, 1]);
        assert_eq!(full.set_bits(), 65);
        assert_eq!(full.estimate_cardinality(), None);
        let one = BloomFilter::from_words(BloomConfig::new(65, 1, 3), vec![0, 1]);
        assert_eq!(one.set_bits(), 1);
        assert!(one.fill_ratio() < 0.02);
    }

    #[test]
    fn concat_joins_slices_word_for_word() {
        let slice = BloomConfig::new(128, 1, 3).with_seed(9);
        let parts: Vec<BloomFilter> = (1..=4u64)
            .map(|w| BloomFilter::from_words(slice, vec![w, w << 8]))
            .collect();
        let joined = BloomFilter::concat(parts.clone());
        let whole = BloomConfig::new(512, 1, 3).with_seed(9).with_partitions(4);
        assert_eq!(joined.config(), whole);
        assert_eq!(joined.words(), [1, 1 << 8, 2, 2 << 8, 3, 3 << 8, 4, 4 << 8]);
        assert_eq!(joined.set_bits(), 10);
        // One part of any length comes back as it is.
        let odd = BloomFilter::from_words(BloomConfig::new(65, 1, 3), vec![5, 1]);
        assert_eq!(BloomFilter::concat([odd.clone()]), odd);
    }

    #[test]
    #[should_panic(expected = "whole words")]
    fn concat_rejects_slices_that_end_inside_a_word() {
        let part = BloomFilter::new(BloomConfig::new(65, 1, 3));
        let _ = BloomFilter::concat([part.clone(), part]);
    }

    #[test]
    #[should_panic(expected = "share one configuration")]
    fn concat_rejects_mixed_configurations() {
        let a = BloomFilter::new(BloomConfig::new(128, 1, 3));
        let b = BloomFilter::new(BloomConfig::new(128, 1, 4));
        let _ = BloomFilter::concat([a, b]);
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
}
