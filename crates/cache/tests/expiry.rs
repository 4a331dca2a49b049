//! Tests of per-item expiry — the paper's "fixed expiration duration"
//! eviction strategy (Section II makes no assumption about which
//! strategy runs; the engine supports both LRU and expiry).

use proteus_bloom::BloomConfig;
use proteus_cache::{CacheConfig, CacheEngine};
use proteus_sim::{SimDuration, SimTime};

fn engine() -> CacheEngine {
    CacheEngine::new(
        CacheConfig::with_capacity(1 << 20)
            .item_overhead(0)
            .digest(BloomConfig::new(1 << 13, 4, 4)),
    )
}

const T0: SimTime = SimTime::ZERO;

#[test]
fn items_expire_lazily_on_get() {
    let mut c = engine();
    c.put_with_expiry(b"k", b"v".to_vec(), T0, Some(SimDuration::from_secs(10)));
    assert_eq!(c.get(b"k", T0 + SimDuration::from_secs(9)), Some(&b"v"[..]));
    assert_eq!(c.get(b"k", T0 + SimDuration::from_secs(10)), None);
    assert!(!c.contains(b"k"), "expired item was unlinked");
    assert!(!c.digest().contains(b"k"), "digest updated on lazy expiry");
    assert_eq!(c.stats().expired, 1);
    assert_eq!(c.bytes_used(), 0);
}

#[test]
fn touch_reaps_expired_items() {
    let mut c = engine();
    c.put_with_expiry(b"k", b"v".to_vec(), T0, Some(SimDuration::from_secs(5)));
    assert!(!c.touch(b"k", T0 + SimDuration::from_secs(6), None));
    assert!(!c.contains(b"k"));
    assert_eq!(c.stats().expired, 1);
}

#[test]
fn plain_put_never_expires() {
    let mut c = engine();
    c.put(b"forever", b"v".to_vec(), T0);
    let far = T0 + SimDuration::from_secs(1_000_000);
    assert!(c.get(b"forever", far).is_some());
    assert_eq!(c.stats().expired, 0);
}

#[test]
fn replacement_updates_the_expiry() {
    let mut c = engine();
    c.put_with_expiry(b"k", b"old".to_vec(), T0, Some(SimDuration::from_secs(5)));
    // Replace with a longer-lived value before expiry.
    let t3 = T0 + SimDuration::from_secs(3);
    c.put_with_expiry(b"k", b"new".to_vec(), t3, Some(SimDuration::from_secs(60)));
    let t30 = T0 + SimDuration::from_secs(30);
    assert_eq!(c.get(b"k", t30), Some(&b"new"[..]));
    // Replacing with no TTL clears the expiry entirely.
    c.put(b"k", b"eternal".to_vec(), t30);
    let far = T0 + SimDuration::from_secs(1_000_000);
    assert_eq!(c.get(b"k", far), Some(&b"eternal"[..]));
}

#[test]
fn sweep_reaps_everything_due() {
    let mut c = engine();
    for i in 0..100u32 {
        let ttl = SimDuration::from_secs(u64::from(i % 10) + 1); // 1..=10 s
        c.put_with_expiry(&i.to_le_bytes(), vec![0u8; 8], T0, Some(ttl));
    }
    c.put(b"immortal", vec![0u8; 8], T0);
    // At t = 5.5 s, TTLs 1..=5 are due: i % 10 ∈ {0..4} → 50 items.
    let reaped = c.sweep_expired(T0 + SimDuration::from_millis(5_500));
    assert_eq!(reaped, 50);
    assert_eq!(c.len(), 51);
    assert_eq!(c.stats().expired, 50);
    // Digest agrees with the survivors.
    for i in 0..100u32 {
        let key = i.to_le_bytes();
        assert_eq!(c.contains(&key), c.digest().contains(&key), "key {i}");
    }
    // A later sweep takes the rest but not the immortal item.
    let reaped = c.sweep_expired(T0 + SimDuration::from_secs(100));
    assert_eq!(reaped, 50);
    assert_eq!(c.len(), 1);
    assert!(c.contains(b"immortal"));
}

#[test]
fn expired_items_do_not_resurrect_via_lru() {
    // An expired item sitting at the MRU position must still die on
    // access, not shield itself through recency.
    let mut c = engine();
    c.put_with_expiry(b"short", b"v".to_vec(), T0, Some(SimDuration::from_secs(1)));
    // Touch it right before expiry (it is MRU now), keeping the 1 s
    // deadline.
    let t900 = T0 + SimDuration::from_millis(900);
    assert!(c.touch(b"short", t900, Some(SimDuration::from_millis(100))));
    assert_eq!(c.get(b"short", T0 + SimDuration::from_secs(2)), None);
}

#[test]
fn hotness_and_expiry_are_independent_clocks() {
    let mut c = engine();
    c.put_with_expiry(b"k", b"v".to_vec(), T0, Some(SimDuration::from_secs(10)));
    // Read a second before the deadline: a hit, and the item is MRU...
    assert!(c.get(b"k", T0 + SimDuration::from_secs(9)).is_some());
    // ...which does not move the deadline: get reaps.
    let t11 = T0 + SimDuration::from_secs(11);
    assert_eq!(c.get(b"k", t11), None, "expiry still wins on access");
}
