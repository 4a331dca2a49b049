//! Slab accounting under sustained eviction churn, in the *derived*
//! page-budget regime (the production configuration, where the slab
//! may run page-starved and take extra evictions or heap fallbacks).
//!
//! The equivalence suite pins behavior against the heap oracle with
//! pages to spare; these tests instead hammer the tight-budget paths
//! and check the invariants that must hold regardless: accounting
//! stays exact, pages cover live bytes, the capacity ceiling holds,
//! and every surviving value reads back byte-identical.

use proteus_cache::{CacheConfig, CacheEngine, ShardedEngine, StorageKind};
use proteus_sim::SimTime;

/// Local copy of the splitmix64 mix (`proteus-ring` is not a
/// dependency of this crate).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const CAPACITY: u64 = 1 << 20;

/// Deterministic mixed sizes: log-uniform-ish across 16..=4096 so the
/// stream crosses many size classes (and occasionally exceeds the
/// 4 KiB page, exercising the oversize heap path).
fn value_len(i: u64) -> usize {
    let r = splitmix64(i);
    let exp = 4 + (r % 9) as u32; // 2^4 ..= 2^12
    let base = 1usize << exp;
    base + (splitmix64(r) as usize % base)
}

fn value_of(i: u64) -> Vec<u8> {
    let len = value_len(i);
    let mut v = vec![(i % 251) as u8; len];
    v[..8].copy_from_slice(&splitmix64(i ^ 0xdead).to_le_bytes());
    v
}

#[test]
fn churn_at_twice_capacity_keeps_slab_accounting_exact() {
    let mut engine = CacheEngine::new(
        CacheConfig::with_capacity(CAPACITY)
            .storage(StorageKind::Slab)
            .slab_page_bytes(4096),
    );
    let mut written = 0u64;
    let mut i = 0u64;
    // Write until 2x capacity has flowed through: every byte past the
    // first capacity's worth is stored by evicting older items.
    while written < 2 * CAPACITY {
        let key = format!("churn:{i:010}");
        let value = value_of(i);
        written += value.len() as u64;
        engine.put(key.as_bytes(), value, SimTime::ZERO);
        if i.is_multiple_of(1024) {
            engine.assert_storage_consistent();
        }
        i += 1;
    }
    engine.assert_storage_consistent();
    let stats = engine.stats();
    assert!(stats.evictions > 0, "churn never evicted");
    assert!(engine.bytes_used() <= CAPACITY, "capacity ceiling broke");

    let slab = engine.slab_stats().expect("slab backend");
    assert!(
        slab.page_bytes_total() >= slab.live_bytes(),
        "{} live bytes claimed in {} page bytes",
        slab.live_bytes(),
        slab.page_bytes_total(),
    );
    // Class item counts must agree with the engine's own item count,
    // minus any items the starved slab pushed to the heap path.
    let slab_items: u64 = slab.classes.iter().map(|c| c.items).sum();
    assert!(
        slab_items <= engine.len() as u64,
        "slab tracks {slab_items} items but the engine holds {}",
        engine.len(),
    );

    // Every survivor reads back exactly the bytes written for it.
    let keys: Vec<Vec<u8>> = engine.keys().map(<[u8]>::to_vec).collect();
    assert_eq!(keys.len(), engine.len());
    for key in &keys {
        let idx: u64 = std::str::from_utf8(&key[6..]).unwrap().parse().unwrap();
        assert_eq!(
            engine.peek(key).expect("listed key present"),
            &value_of(idx)[..],
            "value corrupted for item {idx}",
        );
    }
}

#[test]
fn sharded_churn_cycle_survives_and_reads_back() {
    let engine = ShardedEngine::new(
        CacheConfig::with_capacity(CAPACITY)
            .shards(4)
            .storage(StorageKind::Slab)
            .slab_page_bytes(4096),
    );
    let mut written = 0u64;
    let mut i = 0u64;
    while written < 2 * CAPACITY {
        let key = format!("churn:{i:010}");
        let value = value_of(i);
        written += value.len() as u64;
        engine.put(key.as_bytes(), value, SimTime::ZERO);
        i += 1;
    }
    engine.assert_storage_consistent();
    assert!(engine.bytes_used() <= CAPACITY);
    assert!(engine.stats().evictions > 0);
    let slab = engine.slab_stats().expect("slab backend");
    assert!(slab.page_bytes_total() >= slab.live_bytes());
    // Fragmentation is a ratio by construction.
    assert!((0.0..=1.0).contains(&slab.fragmentation()));

    // The most recent items are the MRU survivors on their shards:
    // re-read a recent window and verify every hit byte-for-byte.
    let mut hits = 0u32;
    for j in i.saturating_sub(200)..i {
        let key = format!("churn:{j:010}");
        if let Some(got) = engine.get(key.as_bytes(), SimTime::ZERO) {
            assert_eq!(&got[..], &value_of(j)[..], "value corrupted for item {j}");
            hits += 1;
        }
    }
    assert!(hits > 100, "recent window mostly evicted ({hits}/200 hits)");
}

#[test]
fn value_larger_than_shard_budget_is_rejected_cleanly() {
    // 4 shards split the capacity, so a quarter-capacity value can
    // never fit its shard even though it is far below the total. The
    // put must return un-stored promptly — no eviction storm wiping
    // the shard, no unbounded retry loop — and leave residents alone.
    let engine = ShardedEngine::new(
        CacheConfig::with_capacity(CAPACITY)
            .shards(4)
            .storage(StorageKind::Slab)
            .slab_page_bytes(4096),
    );
    for i in 0..500u32 {
        engine.put(
            format!("resident:{i}").as_bytes(),
            vec![7u8; 512],
            SimTime::ZERO,
        );
    }
    let before = engine.len();
    let huge = vec![0xEE; (CAPACITY / 2) as usize];
    let outcome = engine.put(b"whale", &huge[..], SimTime::ZERO);
    assert!(!outcome.stored, "over-budget value must be rejected");
    assert_eq!(outcome.evicted, 0, "rejection must not evict residents");
    assert_eq!(engine.len(), before, "residents disturbed by rejection");
    assert!(!engine.contains(b"whale"));
    assert_eq!(engine.stats().rejected, 1);
    // The same value is rejected identically on the heap backend.
    let heap = ShardedEngine::new(CacheConfig::with_capacity(CAPACITY).shards(4));
    let outcome = heap.put(b"whale", &huge[..], SimTime::ZERO);
    assert!(!outcome.stored);
    assert_eq!(heap.stats().rejected, 1);
}

/// Readers never cost the slab a page. The store owns its pages, so a
/// `set` that races readers of the same keys rewrites the key's own
/// chunk in place (under the shard lock): in a half-empty cache no page
/// is added after warm-up, nothing is evicted, nothing falls back to
/// the heap, and — because a read copies out under the same lock — no
/// reader ever sees a half-written value.
#[test]
fn overwrites_racing_readers_take_no_pages_and_tear_no_reads() {
    const KEYS: u64 = 16_000;
    const OVERWRITES: u64 = 200_000;
    const READERS: usize = 4;
    const LENS: [usize; 5] = [200, 700, 1500, 3000, 4000];
    // The server's default shape: 64 MiB over 8 shards, 1 MiB pages.
    let engine =
        ShardedEngine::new(CacheConfig::with_capacity(64 << 20).storage(StorageKind::Slab));
    let key_of = |i: u64| format!("key:{i:08}").into_bytes();
    // A value is one stamp byte repeated over a per-key length, so a
    // torn copy shows as mixed bytes or a wrong length.
    let len_of = |i: u64| LENS[(i % LENS.len() as u64) as usize];
    let whole = |i: u64, v: &[u8]| v.len() == len_of(i) && v.iter().all(|&b| b == v[0]);
    let now = SimTime::ZERO;
    for i in 0..KEYS {
        engine.put(&key_of(i), vec![0u8; len_of(i)], now);
    }
    let warm = engine.slab_stats().expect("slab backend");
    assert!(
        engine.bytes_used() > (64 << 20) / 3 && engine.bytes_used() < (64 << 20) * 2 / 3,
        "about half full, holds {}",
        engine.bytes_used()
    );

    let done = std::sync::atomic::AtomicBool::new(false);
    let start = std::sync::Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        for r in 0..READERS as u64 {
            let (engine, done, start) = (&engine, &done, &start);
            scope.spawn(move || {
                start.wait();
                let mut n = r << 32;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    n += 1;
                    let i = splitmix64(n) % KEYS;
                    let key = key_of(i);
                    // Alternate the owned-copy convenience and the
                    // borrowed read the server uses.
                    let ok = if n.is_multiple_of(2) {
                        engine.get(&key, now).is_some_and(|v| whole(i, &v))
                    } else {
                        engine
                            .with_key_shard(&key, |e| e.get(&key, now).is_some_and(|v| whole(i, v)))
                    };
                    assert!(ok, "key {i}: missing or torn read");
                }
            });
        }
        start.wait();
        for n in 0..OVERWRITES {
            let i = splitmix64(n ^ 0xfeed) % KEYS;
            let outcome = engine.put(&key_of(i), vec![(n % 251) as u8; len_of(i)], now);
            assert!(outcome.stored && outcome.evicted == 0);
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    let after = engine.slab_stats().expect("slab backend");
    assert_eq!(after.pages_allocated, warm.pages_allocated, "no page added");
    assert_eq!(after.pages_reassigned, 0);
    assert_eq!(after.heap_fallbacks, 0);
    assert_eq!(engine.stats().evictions, 0);
    assert_eq!(engine.len() as u64, KEYS);
    engine.assert_storage_consistent();
}
