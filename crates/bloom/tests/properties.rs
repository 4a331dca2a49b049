//! Property-based tests for the Bloom filter digests.

use proptest::prelude::*;
use proteus_bloom::{
    config, partition_of, BloomConfig, BloomFilter, CountingBloomFilter, DigestSnapshot,
    OverflowPolicy,
};

/// The partition counts the partitioned-digest properties run at: one
/// (undivided), the smallest split, a default server's, and many.
const PARTITIONS: [usize; 4] = [1, 2, 8, 64];

fn partitions_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2usize), Just(8usize), Just(64usize)]
}

/// The undivided configuration of one slice of `whole`.
fn slice_of(whole: BloomConfig) -> BloomConfig {
    BloomConfig {
        counters: whole.counters / whole.partitions,
        partitions: 1,
        ..whole
    }
}

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

    /// Sharding invariance: keep one undivided filter of `l / P`
    /// counters per partition, send every insert and remove to the
    /// filter of the key's partition, collapse each and concatenate —
    /// the result is bit-identical to one whole `partitions = P` filter
    /// that saw the same operations. This is the property that lets a
    /// sharded cache hold `l·b` bits in all and answer
    /// `SET_BLOOM_FILTER` one shard at a time.
    #[test]
    fn partition_concat_equals_whole_partitioned_digest(
        ops in prop::collection::vec((any::<bool>(), 0u64..200), 1..400),
        partitions in partitions_strategy(),
        l in 1usize..8192,
        b in 1u32..=16,
        h in 1u32..8,
        seed in any::<u64>(),
    ) {
        let cfg = BloomConfig::new(l, b, h).with_seed(seed).with_partitions(partitions);
        let mut whole = CountingBloomFilter::new(cfg);
        let mut parts = vec![CountingBloomFilter::new(slice_of(cfg)); partitions];
        for (insert, key) in ops {
            let key = key.to_le_bytes();
            let part = &mut parts[partition_of(&key, partitions)];
            if insert {
                whole.insert(&key);
                part.insert(&key);
            } else if part.contains(&key) {
                // A cache only unlinks what it linked.
                whole.remove(&key);
                part.remove(&key);
            }
        }
        let joined = BloomFilter::concat(parts.iter().map(CountingBloomFilter::snapshot));
        let oracle = whole.snapshot();
        prop_assert_eq!(joined.config(), oracle.config());
        prop_assert_eq!(joined.words(), oracle.words());
        prop_assert_eq!(joined.set_bits(), oracle.set_bits());
        prop_assert_eq!(joined.estimate_cardinality(), oracle.estimate_cardinality());
        prop_assert_eq!(&joined, &oracle);
        // And it survives the wire, partition count included.
        let decoded = DigestSnapshot::from_bytes(&DigestSnapshot::from_filter(&joined).to_bytes());
        prop_assert_eq!(decoded.map(DigestSnapshot::into_filter), Ok(joined));
    }

    /// A partitioned saturating filter never false-negatives a present
    /// key under insert/remove churn, on either side of the collapse.
    #[test]
    fn partitioned_filter_has_no_false_negatives(
        present in prop::collection::hash_set(any::<u64>(), 1..150),
        churn in prop::collection::vec(any::<u64>(), 0..150),
        partitions in partitions_strategy(),
        l in 32usize..4096,
        b in 1u32..5,
    ) {
        let cfg = BloomConfig::new(l, b, 4).with_partitions(partitions);
        let mut f = CountingBloomFilter::new(cfg);
        for k in &present {
            f.insert(&k.to_le_bytes());
        }
        for k in churn.iter().filter(|k| !present.contains(k)) {
            f.insert(&k.to_le_bytes());
            f.remove(&k.to_le_bytes());
        }
        let bits = f.snapshot();
        for k in &present {
            prop_assert!(f.contains(&k.to_le_bytes()));
            prop_assert!(bits.contains(&k.to_le_bytes()));
        }
    }
}

/// A default server's digest — Eq. 10 for the 16 384 items 64 MiB holds
/// at 4 KB each: l = 622 017, b = 3, h = 4.
fn default_shape() -> BloomConfig {
    BloomConfig::optimal(16_384, 4, 1e-4, 1e-4)
}

/// Each partition holds κ/P of the keys in l/P of the counters, so the
/// observed false-positive rate stays at Eq. 4's prediction for (l, κ)
/// however many partitions the default shape is cut into — at the
/// design load and at twice it.
#[test]
fn partitioned_false_positive_rate_tracks_eq4_at_the_default_shape() {
    for partitions in PARTITIONS {
        let cfg = default_shape().with_partitions(partitions);
        let mut f = CountingBloomFilter::new(cfg);
        let mut inserted = 0u64;
        for (kappa, probes) in [(16_384u64, 1_500_000u64), (32_768, 300_000)] {
            (inserted..kappa).for_each(|i| f.insert(&i.to_le_bytes()));
            inserted = kappa;
            let bits = f.snapshot();
            let hits = (1 << 40..(1 << 40) + probes)
                .filter(|i: &u64| bits.contains(&i.to_le_bytes()))
                .count();
            let observed = hits as f64 / probes as f64;
            let predicted = config::false_positive_rate(cfg.counters, cfg.hashes, kappa);
            assert!(
                observed <= 1.25 * predicted,
                "P={partitions} κ={kappa}: observed {observed:e} ({hits} hits), Eq. 4 {predicted:e}"
            );
            // Not vacuous: the filter does produce false positives.
            assert!(hits > 0, "P={partitions} κ={kappa}");
        }
    }
}

/// The resolved shape: 622 017 counters in 8 partitions are 8 slices of
/// 77 760 (1 215 words each), which encode to the same 77 784 bytes as
/// the undivided digest, and a resolved shape resolves to itself.
#[test]
fn default_shape_in_eight_partitions() {
    let whole = default_shape();
    assert_eq!(
        (whole.counters, whole.counter_bits, whole.partitions),
        (622_017, 3, 1)
    );
    assert_eq!(whole.with_partitions(1), whole);
    let cut = whole.with_partitions(8);
    assert_eq!((cut.counters, cut.partitions), (8 * 77_760, 8));
    assert_eq!(cut.with_partitions(8), cut);
    for cfg in [whole, cut] {
        let encoded = DigestSnapshot::from_filter(&BloomFilter::new(cfg)).encoded_len();
        assert_eq!(encoded, 77_784);
    }
}

/// An undivided digest encodes exactly as it did before digests could
/// be partitioned (bytes produced by the parent commit's encoder), and a
/// partitioned one differs from it in the `hashes` word only.
#[test]
fn unpartitioned_wire_encoding_is_pinned() {
    const GOLDEN: &str = "504246318200000000000000030000000500000000000000\
                          010000004290000040000800000080000000000000000000";
    let mut f = CountingBloomFilter::new(BloomConfig::new(130, 3, 3).with_seed(5));
    for key in [&b"alpha"[..], b"beta", b"gamma", b"delta"] {
        f.insert(key);
    }
    f.remove(b"beta");
    let bytes = DigestSnapshot::from_filter(&f.snapshot()).to_bytes();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN);

    let cut = BloomFilter::new(BloomConfig::new(130, 3, 3).with_seed(5).with_partitions(2));
    assert_eq!(cut.config().counters, 256);
    let bytes = DigestSnapshot::from_filter(&cut).to_bytes();
    assert_eq!(bytes[4..12], 256u64.to_le_bytes());
    assert_eq!(bytes[12..16], [3, 0, 1, 0], "h = 3, log2 P = 1");
    let back = DigestSnapshot::from_bytes(&bytes).unwrap().into_filter();
    assert_eq!(back, cut);
}
