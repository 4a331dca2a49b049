//! Scenario tests pinning the engine's memcached-like semantics that
//! the Proteus protocol depends on.

use proteus_bloom::BloomConfig;
use proteus_cache::{CacheConfig, CacheEngine};
use proteus_sim::{SimDuration, SimTime};

fn engine_with(capacity: u64, overhead: u32) -> CacheEngine {
    CacheEngine::new(
        CacheConfig::with_capacity(capacity)
            .item_overhead(overhead)
            .digest(BloomConfig::new(1 << 14, 4, 4)),
    )
}

/// The byte accounting matches memcached's key+value+header model, so
/// capacity planning (Fig. 6's GB-per-server sweep) is faithful.
#[test]
fn byte_accounting_includes_overhead() {
    let mut c = engine_with(1 << 20, 48);
    c.put(b"abc", vec![0u8; 100], SimTime::ZERO);
    assert_eq!(c.bytes_used(), 3 + 100 + 48);
    c.put(b"abc", vec![0u8; 10], SimTime::ZERO);
    assert_eq!(c.bytes_used(), 3 + 10 + 48, "replacement re-accounts");
    c.delete(b"abc");
    assert_eq!(c.bytes_used(), 0);
}

/// The digest stays consistent through a drain-like sequence: snapshot,
/// keep serving reads, then clear — exactly the lifecycle of a
/// draining Proteus server.
#[test]
fn digest_snapshot_is_stable_while_serving_reads() {
    let mut c = engine_with(1 << 20, 0);
    for i in 0..500u32 {
        c.put(format!("page:{i}").as_bytes(), vec![0u8; 16], SimTime::ZERO);
    }
    let snapshot = c.digest_snapshot();
    // A draining server only serves gets — which must not disturb the
    // digest (gets neither link nor unlink).
    let t = SimTime::from_secs(1);
    for i in 0..500u32 {
        assert!(c.get(format!("page:{i}").as_bytes(), t).is_some());
    }
    assert_eq!(
        c.digest_snapshot(),
        snapshot,
        "reads must not perturb the digest"
    );
    c.clear();
    assert!(!c.digest_snapshot().contains(b"page:0"));
}

/// Eviction order interacts correctly with touch: touching an item
/// rescues it from the LRU tail.
#[test]
fn touch_rescues_from_eviction() {
    // Room for exactly 3 items of 10 bytes + 1-byte keys.
    let mut c = engine_with(33, 0);
    c.put(b"a", vec![0; 10], SimTime::ZERO);
    c.put(b"b", vec![0; 10], SimTime::ZERO);
    c.put(b"c", vec![0; 10], SimTime::ZERO);
    assert!(c.touch(b"a", SimTime::from_secs(1), None));
    c.put(b"d", vec![0; 10], SimTime::from_secs(2));
    assert!(c.contains(b"a"), "touched item survived");
    assert!(!c.contains(b"b"), "untouched LRU item evicted");
}

/// Values of every size round-trip exactly (binary safety end to end).
#[test]
fn binary_values_round_trip() {
    let mut c = engine_with(64 << 20, 0);
    for size in [0usize, 1, 255, 4096, 1 << 16] {
        let value: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        let key = format!("k{size}");
        c.put(key.as_bytes(), value.clone(), SimTime::ZERO);
        assert_eq!(c.get(key.as_bytes(), SimTime::ZERO), Some(&value[..]));
    }
}

/// Stress: interleaved churn across many keys maintains every invariant
/// at once (size bound, digest consistency, len/bytes agreement).
#[test]
fn churn_maintains_all_invariants() {
    let capacity = 10_000u64;
    let mut c = engine_with(capacity, 0);
    let mut t = SimTime::ZERO;
    for round in 0..20u32 {
        for i in 0..300u32 {
            t += SimDuration::from_millis(1);
            let key = format!("k{}", (i * 7 + round) % 400);
            match (i + round) % 4 {
                0 | 1 => {
                    c.put(key.as_bytes(), vec![round as u8; 32], t);
                }
                2 => {
                    let _ = c.get(key.as_bytes(), t);
                }
                _ => {
                    let _ = c.delete(key.as_bytes());
                }
            }
            assert!(c.bytes_used() <= capacity);
        }
    }
    // Every cached key is in the digest; count matches iterator.
    assert_eq!(c.keys().count(), c.len());
    let digest = c.digest_snapshot();
    let all_in_digest = c.keys().all(|key| digest.contains(key));
    assert!(all_in_digest);
}
