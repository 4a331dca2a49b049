//! The counting Bloom filter used as each cache server's digest.

use std::fmt;

use crate::config::{estimate_cardinality, BloomConfig};
use crate::filter::BloomFilter;
use crate::indexing::IndexPlan;

/// What to do when a `b`-bit counter would overflow or underflow.
///
/// The paper's Eq. 5 analyzes the *wrapping* behaviour, where an
/// overflowed counter can later underflow through zero and cause false
/// negatives. Production deployments prefer *saturating* counters: a
/// counter that reaches its maximum sticks there (never decremented),
/// trading a few extra false positives for **zero**
/// overflow-induced false negatives. Both are implemented so the Fig. 8
/// experiment can measure the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverflowPolicy {
    /// Counters stick at `2^b - 1`; sticky counters are never
    /// decremented (no false negatives; slightly higher false
    /// positives). The system default.
    #[default]
    Saturate,
    /// Counters wrap modulo `2^b` — the model behind Eq. 5's
    /// false-negative bound.
    Wrap,
}

/// A counting Bloom filter: `l` packed `b`-bit counters and `h` hash
/// functions, supporting insertion, deletion, and membership queries.
///
/// In Proteus each cache server keeps one of these in sync with its
/// contents: the analogue of the paper's modified memcached, which
/// inserts into the digest from `do_item_link` and removes from
/// `do_item_unlink`.
///
/// # Example
///
/// ```
/// use proteus_bloom::{BloomConfig, CountingBloomFilter};
///
/// let mut f = CountingBloomFilter::new(BloomConfig::new(1 << 16, 4, 4));
/// f.insert(b"page:42");
/// assert!(f.contains(b"page:42"));
/// f.remove(b"page:42");
/// assert!(!f.contains(b"page:42"));
/// ```
#[derive(Clone)]
pub struct CountingBloomFilter {
    config: BloomConfig,
    plan: IndexPlan,
    policy: OverflowPolicy,
    words: Vec<u64>,
    items: u64,
    overflows: u64,
}

impl CountingBloomFilter {
    /// Creates an empty filter with saturating counters.
    #[must_use]
    pub fn new(config: BloomConfig) -> Self {
        Self::with_policy(config, OverflowPolicy::Saturate)
    }

    /// Creates an empty filter with an explicit overflow policy.
    #[must_use]
    pub fn with_policy(config: BloomConfig, policy: OverflowPolicy) -> Self {
        CountingBloomFilter {
            config,
            plan: IndexPlan::new(config),
            policy,
            words: vec![0; storage_words(config)],
            items: 0,
            overflows: 0,
        }
    }

    /// The filter's configuration.
    #[must_use]
    pub fn config(&self) -> BloomConfig {
        self.config
    }

    /// Whether no items are currently tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// How many counter increments hit the counter maximum so far
    /// (saturations or wraps, depending on policy).
    #[must_use]
    pub fn overflow_events(&self) -> u64 {
        self.overflows
    }

    fn counter_max(&self) -> u64 {
        (1u64 << self.config.counter_bits) - 1
    }

    fn get_counter(&self, i: usize) -> u64 {
        let b = u64::from(self.config.counter_bits);
        let bit = i as u64 * b;
        let word = (bit / 64) as usize;
        let off = (bit % 64) as u32;
        let mask = self.counter_max();
        if off as u64 + b <= 64 {
            (self.words[word] >> off) & mask
        } else {
            let lo = self.words[word] >> off;
            let hi = self.words[word + 1] << (64 - off);
            (lo | hi) & mask
        }
    }

    fn set_counter(&mut self, i: usize, value: u64) {
        let b = u64::from(self.config.counter_bits);
        debug_assert!(value <= self.counter_max());
        let bit = i as u64 * b;
        let word = (bit / 64) as usize;
        let off = (bit % 64) as u32;
        let mask = self.counter_max();
        if off as u64 + b <= 64 {
            self.words[word] &= !(mask << off);
            self.words[word] |= value << off;
        } else {
            let low_bits = 64 - off;
            self.words[word] &= !(mask << off);
            self.words[word] |= value << off;
            self.words[word + 1] &= !(mask >> low_bits);
            self.words[word + 1] |= value >> low_bits;
        }
    }

    /// Inserts a key (the `do_item_link` path).
    pub fn insert(&mut self, key: &[u8]) {
        let (max, plan) = (self.counter_max(), self.plan);
        for i in plan.indices(key) {
            let c = self.get_counter(i);
            if c == max {
                self.overflows += 1;
                match self.policy {
                    OverflowPolicy::Saturate => {}
                    OverflowPolicy::Wrap => self.set_counter(i, 0),
                }
            } else {
                self.set_counter(i, c + 1);
            }
        }
        self.items += 1;
    }

    /// Removes a key (the `do_item_unlink` path).
    ///
    /// The caller must only remove keys it previously inserted — in
    /// Proteus "the deletion from digest is only triggered by the
    /// deletion from Memcached", which knows its contents exactly, so
    /// deleting an absent element never happens. A zero counter is
    /// left at zero; with [`OverflowPolicy::Wrap`] it wraps to the
    /// maximum (modelling Eq. 5's underflow).
    pub fn remove(&mut self, key: &[u8]) {
        let (max, plan) = (self.counter_max(), self.plan);
        for i in plan.indices(key) {
            let c = self.get_counter(i);
            match (c, self.policy) {
                (0, OverflowPolicy::Saturate) => {}
                (0, OverflowPolicy::Wrap) => self.set_counter(i, max),
                (c, OverflowPolicy::Saturate) if c == max => {
                    // Sticky: the true count is unknown, so never
                    // decrement a saturated counter.
                }
                (c, _) => self.set_counter(i, c - 1),
            }
        }
        self.items = self.items.saturating_sub(1);
    }

    /// Membership query: `true` if every counter for `key` is nonzero.
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.plan.indices(key).all(|i| self.get_counter(i) != 0)
    }

    /// Estimates how many distinct keys are in the filter from its
    /// zero-counter fraction: `-l/h · ln(z/l)` (the classic Bloom
    /// cardinality estimator; Swamidass & Baldi 2007). Useful for
    /// digest-based remote statistics — a web server can size a
    /// transition from digests alone, without a stats round-trip.
    ///
    /// Returns `None` when no counter is zero (the filter is beyond
    /// estimation range).
    #[must_use]
    pub fn estimate_cardinality(&self) -> Option<f64> {
        let zeros = self.config.counters - count_nonzero(&self.words, self.config.counter_bits);
        estimate_cardinality(&self.config, zeros)
    }

    /// Collapses the counters to a plain bit-array [`BloomFilter`] —
    /// the compact broadcast form of the digest (Section IV-A).
    ///
    /// Membership answers of the snapshot equal the counting filter's
    /// at snapshot time.
    #[must_use]
    pub fn snapshot(&self) -> BloomFilter {
        collapse(self.config, &self.words)
    }

    /// The collapse one counter at a time: the oracle the word-parallel
    /// [`snapshot`](Self::snapshot) is tested against.
    #[cfg(test)]
    fn snapshot_per_counter(&self) -> BloomFilter {
        let mut bits = BloomFilter::new(self.config);
        for i in 0..self.config.counters {
            if self.get_counter(i) != 0 {
                bits.set_raw_bit(i);
            }
        }
        bits
    }

    /// Clears all counters.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.items = 0;
        self.overflows = 0;
    }
}

/// Words holding `l` packed `b`-bit counters, plus one spare so
/// two-word reads at the tail never bounds-check.
fn storage_words(config: BloomConfig) -> usize {
    let total_bits = config.counters as u64 * u64::from(config.counter_bits);
    (total_bits.div_ceil(64) + 1) as usize
}

/// Collapses packed `b`-bit counters a whole storage word at a time:
/// calls `visit(first, nonzero)` once per word, in order, where
/// `first` is the index of the first counter that *starts* in the word
/// and bit `j` of `nonzero` says whether counter `first + j` is nonzero
/// (bits past the word's last counter are clear).
///
/// The counters form one bit string `S`, counter `i` at bits
/// `i·b .. (i+1)·b`. **Fold:** OR-ing `S` with itself shifted down by
/// `1..b-1` leaves at bit `p` the OR of `S[p .. p+b]`, so bit `i·b`
/// says whether counter `i` is nonzero; the other bits mix two
/// neighbouring counters and are masked off. The shifts run over the
/// bit string, not over one word — each word borrows the low bits of
/// the next — so a counter that straddles a word boundary folds exactly
/// like one that does not. (The spare last word and the bits past `l·b`
/// are never written, so they fold to zero.) **Pack:** the surviving
/// bits sit `b` apart; step `s` slides every second group of `2^s` bits
/// down beside its neighbour (a shift by `2^s·(b-1)`, an OR, a mask), so
/// after at most six steps they are contiguous. Nothing depends on how
/// many counters are nonzero: no branch on the data, the same work for
/// an empty digest and a full one.
fn for_each_word(words: &[u64], b: u32, mut visit: impl FnMut(usize, u64)) {
    // Bit k·b for every k with k·b < 64: the counter starts of a word
    // whose first counter sits at bit 0.
    let grid = (0..64)
        .step_by(b as usize)
        .fold(0u64, |grid, p| grid | 1 << p);
    // (shift, mask) per pack step: groups of g bits every g·b become
    // groups of 2g bits every 2g·b.
    let mut steps = [(0u32, 0u64); 6];
    let mut used = 0;
    let mut g = 1;
    while g < 64u32.div_ceil(b) {
        let group = u64::MAX >> (64 - 2 * g);
        let mask = (0..64)
            .step_by((2 * g * b) as usize)
            .fold(0u64, |mask, p| mask | group << p);
        steps[used] = (g * (b - 1), mask);
        used += 1;
        g *= 2;
    }
    // Each word moves the grid by 64 mod b against the counters.
    let (per_word, slip) = (64 / b as usize, 64 % b);
    let (mut first, mut offset) = (0usize, 0u32);
    for pair in words.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        let mut folded = lo;
        for k in 1..b {
            folded |= (lo >> k) | (hi << (64 - k));
        }
        let mut nonzero = (folded >> offset) & grid;
        for &(shift, mask) in &steps[..used] {
            nonzero = (nonzero | nonzero >> shift) & mask;
        }
        visit(first, nonzero);
        first += per_word;
        if offset >= slip {
            offset -= slip;
        } else {
            offset += b - slip;
            first += 1;
        }
    }
}

/// How many of the packed counters are nonzero.
fn count_nonzero(words: &[u64], b: u32) -> usize {
    let mut count = 0;
    for_each_word(words, b, |_, nonzero| {
        count += nonzero.count_ones() as usize
    });
    count
}

/// The plain filter with bit `i` set iff counter `i` of `words` is
/// nonzero.
fn collapse(config: BloomConfig, words: &[u64]) -> BloomFilter {
    let mut bits = vec![0u64; config.counters.div_ceil(64)];
    for_each_word(words, config.counter_bits, |first, nonzero| {
        // Append at bit `first`. Words past the last counter report
        // nothing, possibly at an index past the end of `bits`.
        let (word, shift) = (first / 64, (first % 64) as u32);
        if let Some(low) = bits.get_mut(word) {
            *low |= nonzero << shift;
        }
        if let Some(high) = bits.get_mut(word + 1) {
            *high |= nonzero >> 1 >> (63 - shift);
        }
    });
    BloomFilter::from_words(config, bits)
}

impl fmt::Debug for CountingBloomFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CountingBloomFilter")
            .field("counters", &self.config.counters)
            .field("counter_bits", &self.config.counter_bits)
            .field("hashes", &self.config.hashes)
            .field("policy", &self.policy)
            .field("items", &self.items)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BloomConfig {
        BloomConfig::new(1 << 14, 3, 4)
    }

    #[test]
    fn insert_then_contains() {
        let mut f = CountingBloomFilter::new(small());
        for i in 0..1000u64 {
            f.insert(&i.to_le_bytes());
        }
        for i in 0..1000u64 {
            assert!(f.contains(&i.to_le_bytes()), "key {i}");
        }
        assert_eq!(f.items, 1000);
    }

    #[test]
    fn remove_restores_absence() {
        let mut f = CountingBloomFilter::new(small());
        for i in 0..500u64 {
            f.insert(&i.to_le_bytes());
        }
        for i in 0..250u64 {
            f.remove(&i.to_le_bytes());
        }
        // Removed keys are (almost always) gone; retained keys never are.
        for i in 250..500u64 {
            assert!(f.contains(&i.to_le_bytes()), "retained {i}");
        }
        let still_present = (0..250u64).filter(|i| f.contains(&i.to_le_bytes())).count();
        assert!(
            still_present < 10,
            "only false positives may remain: {still_present}"
        );
        assert_eq!(f.items, 250);
    }

    #[test]
    fn no_false_negatives_with_saturation() {
        // Tiny 1-bit counters overflow immediately; saturation must
        // still never produce a false negative for present keys.
        let cfg = BloomConfig::new(256, 1, 4);
        let mut f = CountingBloomFilter::with_policy(cfg, OverflowPolicy::Saturate);
        for i in 0..200u64 {
            f.insert(&i.to_le_bytes());
        }
        assert!(f.overflow_events() > 0, "test must exercise overflow");
        for i in 0..200u64 {
            assert!(f.contains(&i.to_le_bytes()), "key {i}");
        }
    }

    #[test]
    fn wrap_policy_can_false_negative() {
        // 1-bit wrapping counters: inserting the same slot twice wraps
        // to zero — the failure mode Eq. 5 bounds.
        let cfg = BloomConfig::new(64, 1, 2);
        let mut f = CountingBloomFilter::with_policy(cfg, OverflowPolicy::Wrap);
        let mut saw_false_negative = false;
        for i in 0..64u64 {
            f.insert(&i.to_le_bytes());
            if !f.contains(&i.to_le_bytes()) {
                saw_false_negative = true;
            }
        }
        assert!(saw_false_negative, "wrapping must eventually lose a key");
    }

    #[test]
    fn saturating_remove_keeps_sticky_counters() {
        let cfg = BloomConfig::new(16, 1, 1);
        let mut f = CountingBloomFilter::with_policy(cfg, OverflowPolicy::Saturate);
        // Two keys share a counter with high probability at l=16... use
        // the same key twice to force it.
        f.insert(b"k");
        f.insert(b"k"); // saturates at 1
        f.remove(b"k"); // sticky: stays 1
        assert!(f.contains(b"k"), "sticky counter preserves membership");
    }

    #[test]
    fn counter_packing_survives_word_boundaries() {
        // b=3 over 64-bit words: counters regularly straddle words.
        let cfg = BloomConfig::new(1000, 3, 1);
        let mut f = CountingBloomFilter::new(cfg);
        for i in 0..1000usize {
            f.set_counter(i, (i % 8) as u64);
        }
        for i in 0..1000usize {
            assert_eq!(f.get_counter(i), (i % 8) as u64, "counter {i}");
        }
    }

    #[test]
    fn counter_packing_all_widths() {
        for b in 1..=16u32 {
            let cfg = BloomConfig::new(257, b, 1);
            let mut f = CountingBloomFilter::new(cfg);
            let max = (1u64 << b) - 1;
            for i in 0..257usize {
                f.set_counter(i, (i as u64 * 7 + 3) & max);
            }
            for i in 0..257usize {
                assert_eq!(f.get_counter(i), (i as u64 * 7 + 3) & max, "b={b} i={i}");
            }
        }
    }

    #[test]
    fn snapshot_membership_matches_counting_filter() {
        let mut f = CountingBloomFilter::new(small());
        for i in 0..2000u64 {
            f.insert(&i.to_le_bytes());
        }
        for i in 500..700u64 {
            f.remove(&i.to_le_bytes());
        }
        let snap = f.snapshot();
        for i in 0..3000u64 {
            let key = i.to_le_bytes();
            assert_eq!(
                f.contains(&key),
                snap.contains(&key),
                "divergence at key {i}"
            );
        }
    }

    /// A length whose last counter straddles a word boundary, so its
    /// high bits are the last ones before the spare word (65 for the
    /// widths that divide 64 and never straddle).
    fn straddling_len(b: u32) -> usize {
        (1..=64usize)
            .find(|l| ((l - 1) * b as usize) % 64 + b as usize > 64)
            .unwrap_or(65)
    }

    fn assert_collapse_matches_oracle(f: &CountingBloomFilter) {
        let (fast, oracle) = (f.snapshot(), f.snapshot_per_counter());
        let cfg = f.config();
        assert_eq!(fast.words(), oracle.words(), "{cfg:?}");
        assert_eq!(fast.set_bits(), oracle.set_bits(), "{cfg:?}");
        assert_eq!(
            f.estimate_cardinality(),
            oracle.estimate_cardinality(),
            "{cfg:?}"
        );
    }

    #[test]
    fn collapse_matches_oracle_for_arbitrary_counter_values() {
        use proteus_ring::hash::splitmix64;
        for b in 1..=16u32 {
            for l in [1, 2, 63, 64, 65, 127, 1000, straddling_len(b)] {
                let mut f = CountingBloomFilter::new(BloomConfig::new(l, b, 1));
                let max = f.counter_max();
                // A third of the counters nonzero, any value, so runs
                // of zeros and of nonzeros both cross word boundaries.
                for i in 0..l {
                    let r = splitmix64((u64::from(b) << 32) | i as u64);
                    if r.is_multiple_of(3) {
                        f.set_counter(i, 1 + (r >> 8) % max);
                    }
                }
                assert_collapse_matches_oracle(&f);
                // Every counter nonzero, then every counter at its top
                // bit only: the fold must reach all b bits.
                (0..l).for_each(|i| f.set_counter(i, max));
                assert_collapse_matches_oracle(&f);
                assert_eq!(f.snapshot().set_bits(), l);
                (0..l).for_each(|i| f.set_counter(i, 1 << (b - 1)));
                assert_collapse_matches_oracle(&f);
                assert_eq!(f.snapshot().set_bits(), l);
            }
        }
    }

    proptest::proptest! {
        /// The word-parallel collapse equals the per-counter oracle for
        /// every width, for lengths that are not multiples of 64, under
        /// both overflow policies, after interleaved inserts and removes
        /// over a key space small enough to saturate narrow counters.
        #[test]
        fn collapse_matches_oracle_after_churn(
            b in 1u32..=16,
            len in proptest::prop_oneof![
                proptest::strategy::Just(0usize),
                proptest::strategy::Just(1usize),
                proptest::strategy::Just(63usize),
                proptest::strategy::Just(65usize),
                2usize..700,
            ],
            wrap in proptest::strategy::any::<bool>(),
            h in 1u32..6,
            ops in proptest::collection::vec((proptest::strategy::any::<bool>(), 0u8..48), 0..400),
        ) {
            // 0 stands for the width's straddling length.
            let l = if len == 0 { straddling_len(b) } else { len };
            let policy = if wrap { OverflowPolicy::Wrap } else { OverflowPolicy::Saturate };
            let mut f = CountingBloomFilter::with_policy(BloomConfig::new(l, b, h), policy);
            for (insert, key) in ops {
                if insert {
                    f.insert(&[key]);
                } else {
                    f.remove(&[key]);
                }
            }
            assert_collapse_matches_oracle(&f);
        }
    }

    #[test]
    fn clear_empties_everything() {
        let mut f = CountingBloomFilter::new(small());
        f.insert(b"a");
        f.clear();
        assert!(f.is_empty());
        assert!(!f.contains(b"a"));
        assert_eq!(f.overflow_events(), 0);
    }

    #[test]
    fn cardinality_estimate_is_accurate() {
        let cfg = BloomConfig::new(1 << 16, 4, 4);
        let mut f = CountingBloomFilter::new(cfg);
        for kappa in [100u64, 1_000, 5_000] {
            f.clear();
            for i in 0..kappa {
                f.insert(&i.to_le_bytes());
            }
            let est = f.estimate_cardinality().expect("in range");
            let err = (est - kappa as f64).abs() / kappa as f64;
            assert!(err < 0.05, "κ={kappa}: estimated {est}");
        }
        // Deletions are reflected.
        for i in 0..2_500u64 {
            f.remove(&i.to_le_bytes());
        }
        let est = f.estimate_cardinality().unwrap();
        assert!(
            (est - 2_500.0).abs() / 2_500.0 < 0.05,
            "after removes {est}"
        );
    }

    #[test]
    fn cardinality_saturates_to_none() {
        // A tiny filter crammed full has no zero counters left.
        let cfg = BloomConfig::new(32, 4, 4);
        let mut f = CountingBloomFilter::new(cfg);
        for i in 0..200u64 {
            f.insert(&i.to_le_bytes());
        }
        assert_eq!(f.estimate_cardinality(), None);
    }

    #[test]
    fn measured_false_positive_rate_tracks_eq4() {
        use crate::config::false_positive_rate;
        let cfg = BloomConfig::new(40_000, 4, 4);
        let mut f = CountingBloomFilter::new(cfg);
        let kappa = 4_000u64;
        for i in 0..kappa {
            f.insert(&i.to_le_bytes());
        }
        let probes = 100_000u64;
        let fps = (kappa..kappa + probes)
            .filter(|i| f.contains(&i.to_le_bytes()))
            .count();
        let measured = fps as f64 / probes as f64;
        let predicted = false_positive_rate(cfg.counters, cfg.hashes, kappa);
        assert!(
            (measured - predicted).abs() < predicted * 0.35 + 2e-4,
            "measured {measured}, Eq.4 predicts {predicted}"
        );
    }
}
