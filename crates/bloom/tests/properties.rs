//! Property-based tests for the Bloom filter digests.

use proptest::prelude::*;
use proteus_bloom::{
    config, BloomConfig, BloomFilter, CounterUnion, CountingBloomFilter, DigestSnapshot,
    OverflowPolicy,
};

fn keys_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 1..300)
}

/// Filter lengths that are not multiples of 64: one counter, one short
/// of and one past a word, and (`0`) the width's own straddling length.
fn odd_len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(63usize),
        Just(65usize),
        2usize..700
    ]
}

/// A length whose last counter straddles a storage-word boundary, so
/// its high bits are the last before the filter's spare word (65 for
/// the widths that divide 64 and never straddle).
fn straddling_len(b: u32) -> usize {
    (1..=64usize)
        .find(|l| ((l - 1) * b as usize) % 64 + b as usize > 64)
        .unwrap_or(65)
}

proptest! {
    /// The defining Bloom guarantee: a plain filter never false-negatives.
    #[test]
    fn plain_filter_has_no_false_negatives(keys in keys_strategy(), l in 64usize..8192, h in 1u32..8) {
        let mut f = BloomFilter::new(BloomConfig::new(l, 1, h));
        for k in &keys {
            f.insert(&k.to_le_bytes());
        }
        for k in &keys {
            prop_assert!(f.contains(&k.to_le_bytes()));
        }
    }

    /// Saturating counting filters never false-negative for currently
    /// present keys, regardless of interleaved inserts/removes of other
    /// keys and regardless of overflow pressure.
    #[test]
    fn saturating_filter_has_no_false_negatives(
        present in prop::collection::hash_set(any::<u64>(), 1..150),
        churn in prop::collection::vec(any::<u64>(), 0..150),
        l in 32usize..4096,
        b in 1u32..5,
    ) {
        let cfg = BloomConfig::new(l, b, 4);
        let mut f = CountingBloomFilter::with_policy(cfg, OverflowPolicy::Saturate);
        for k in &present {
            f.insert(&k.to_le_bytes());
        }
        // Insert and remove unrelated keys (cache churn).
        for k in &churn {
            if !present.contains(k) {
                f.insert(&k.to_le_bytes());
            }
        }
        for k in &churn {
            if !present.contains(k) {
                f.remove(&k.to_le_bytes());
            }
        }
        for k in &present {
            prop_assert!(f.contains(&k.to_le_bytes()), "lost key {k}");
        }
    }

    /// Inserting then removing every key returns the filter to an
    /// all-absent state (modulo saturation stickiness, which requires
    /// overflow; keep load below the counter maximum to avoid it).
    #[test]
    fn counting_filter_delete_is_exact_without_overflow(
        keys in prop::collection::hash_set(any::<u64>(), 1..100),
    ) {
        // Wide counters + generous table: no counter can saturate.
        let cfg = BloomConfig::new(1 << 14, 8, 4);
        let mut f = CountingBloomFilter::new(cfg);
        for k in &keys {
            f.insert(&k.to_le_bytes());
        }
        for k in &keys {
            f.remove(&k.to_le_bytes());
        }
        prop_assert!(f.is_empty());
        prop_assert_eq!(f.overflow_events(), 0);
        for k in &keys {
            prop_assert!(!f.contains(&k.to_le_bytes()), "ghost key {k}");
        }
    }

    /// A snapshot agrees with its source filter on every probed key.
    #[test]
    fn snapshot_membership_equivalence(
        inserted in prop::collection::vec(any::<u64>(), 1..200),
        probes in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let cfg = BloomConfig::new(1 << 12, 4, 4);
        let mut f = CountingBloomFilter::new(cfg);
        for k in &inserted {
            f.insert(&k.to_le_bytes());
        }
        let snap = f.snapshot();
        for k in probes.iter().chain(&inserted) {
            prop_assert_eq!(snap.contains(&k.to_le_bytes()), f.contains(&k.to_le_bytes()));
        }
    }

    /// Collapse equivalence against an oracle that shares no code with
    /// it: with saturating counters and no removes, counter `i` is
    /// nonzero exactly when some key touched it — which is bit `i` of a
    /// plain filter fed the same keys. Equal words and equal `set_bits`
    /// for every counter width, including those that straddle words.
    /// (The per-counter oracle itself is `#[cfg(test)]` inside the
    /// crate, where the same property also runs after removes and under
    /// wrapping counters.)
    #[test]
    fn collapse_equals_plain_filter_for_every_width(
        b in 1u32..=16,
        len in odd_len_strategy(),
        h in 1u32..6,
        keys in prop::collection::vec(0u8..48, 0..400),
    ) {
        let l = if len == 0 { straddling_len(b) } else { len };
        let cfg = BloomConfig::new(l, b, h);
        let mut counting = CountingBloomFilter::new(cfg);
        let mut plain = BloomFilter::new(cfg);
        for k in &keys {
            counting.insert(&[*k]);
            plain.insert(&[*k]);
        }
        let snap = counting.snapshot();
        prop_assert_eq!(snap.words(), plain.words());
        prop_assert_eq!(snap.set_bits(), plain.set_bits());
        prop_assert_eq!(snap, plain);
    }

    /// After any interleaving of inserts and removes that saturates (or
    /// wraps) narrow counters, the collapse still answers membership
    /// exactly as the counters do, counts its own bits right, and
    /// estimates the same cardinality.
    #[test]
    fn collapse_agrees_with_counters_after_churn(
        b in 1u32..=16,
        len in odd_len_strategy(),
        wrap in any::<bool>(),
        h in 1u32..6,
        ops in prop::collection::vec((any::<bool>(), 0u8..48), 0..400),
    ) {
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
        let snap = f.snapshot();
        for key in 0u8..64 {
            prop_assert_eq!(snap.contains(&[key]), f.contains(&[key]), "key {}", key);
        }
        let ones: usize = snap.words().iter().map(|w| w.count_ones() as usize).sum();
        prop_assert_eq!(snap.set_bits(), ones);
        prop_assert_eq!(snap.estimate_cardinality(), f.estimate_cardinality());
    }

    /// Snapshot wire serialization round-trips exactly.
    #[test]
    fn snapshot_bytes_roundtrip(
        inserted in prop::collection::vec(any::<u64>(), 0..100),
        l in 64usize..4096,
        seed in any::<u64>(),
    ) {
        let cfg = BloomConfig::new(l, 4, 4).with_seed(seed);
        let mut f = CountingBloomFilter::new(cfg);
        for k in &inserted {
            f.insert(&k.to_le_bytes());
        }
        let snap = DigestSnapshot::from_filter(&f.snapshot());
        let decoded = DigestSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        prop_assert_eq!(decoded.filter(), snap.filter());
    }

    /// Decoding arbitrary bytes never panics — it either succeeds or
    /// returns a structured error.
    #[test]
    fn snapshot_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = DigestSnapshot::from_bytes(&bytes);
    }

    /// Eq. 4's predictor is monotone: more counters never raise the
    /// predicted false-positive rate; more keys never lower it.
    #[test]
    fn eq4_is_monotone(l in 1000usize..100_000, kappa in 100u64..10_000, h in 1u32..8) {
        let base = config::false_positive_rate(l, h, kappa);
        prop_assert!(config::false_positive_rate(l * 2, h, kappa) <= base + 1e-12);
        prop_assert!(config::false_positive_rate(l, h, kappa * 2) >= base - 1e-12);
    }

    /// The optimizer always returns a configuration meeting both bounds.
    #[test]
    fn optimal_config_is_feasible(
        kappa in 100u64..200_000,
        h in 2u32..8,
        pp_exp in 1u32..6,
        pn_exp in 1u32..6,
    ) {
        let pp = 10f64.powi(-(pp_exp as i32));
        let pn = 10f64.powi(-(pn_exp as i32));
        let cfg = BloomConfig::optimal(kappa, h, pp, pn);
        prop_assert!(config::false_positive_rate(cfg.counters, h, kappa) <= pp * 1.001);
        prop_assert!(config::false_negative_bound(cfg.counters, cfg.counter_bits, h, kappa) <= pn);
        prop_assert!(cfg.counter_bits >= 1 && cfg.counter_bits <= 16);
    }

    /// Lambert W satisfies its defining identity across its domain.
    #[test]
    fn lambert_w_identity(x in -0.36f64..1e6) {
        let w = config::lambert_w(x);
        prop_assert!((w * w.exp() - x).abs() <= 1e-8 * (1.0 + x.abs()), "x={x} w={w}");
    }

    /// Sharding invariance: partition any key set across any shard
    /// count, OR the shards' counters into one union and collapse it —
    /// the result is bit-identical to one digest over the whole set,
    /// and to the OR of the shards' own snapshots. This is the property
    /// that lets a sharded cache answer `SET_BLOOM_FILTER` one shard at
    /// a time.
    #[test]
    fn shard_union_equals_unsharded_digest(
        keys in keys_strategy(),
        shard_count in 1usize..9,
        l in 64usize..8192,
        b in 1u32..=16,
        h in 1u32..8,
    ) {
        let cfg = BloomConfig::new(l, b, h);
        let mut whole = CountingBloomFilter::new(cfg);
        let mut shards: Vec<CountingBloomFilter> =
            (0..shard_count).map(|_| CountingBloomFilter::new(cfg)).collect();
        for k in &keys {
            whole.insert(&k.to_le_bytes());
            // Any deterministic key→shard map works; mirror the
            // cache's hash-based choice with a cheap mix.
            let shard = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shard_count;
            shards[shard].insert(&k.to_le_bytes());
        }
        let mut union = CounterUnion::new(cfg);
        let mut ored = vec![0u64; l.div_ceil(64)];
        for shard in &shards {
            union.add(shard);
            let bits = shard.snapshot();
            ored.iter_mut().zip(bits.words()).for_each(|(o, w)| *o |= w);
        }
        let merged = union.snapshot();
        prop_assert_eq!(&merged, &whole.snapshot());
        prop_assert_eq!(merged.set_bits(), whole.snapshot().set_bits());
        prop_assert_eq!(merged, BloomFilter::from_words(cfg, ored));
    }
}
