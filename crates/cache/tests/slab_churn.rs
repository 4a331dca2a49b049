//! Slab accounting under sustained eviction churn, in the *derived*
//! page-budget regime (the production configuration, where the slab
//! may run page-starved and take an extra eviction or a heap fallback).
//!
//! The equivalence suite pins behavior against the heap oracle with
//! pages to spare; these tests instead hammer the tight-budget paths
//! and check the invariants that must hold regardless: accounting
//! stays exact, pages cover live bytes, the capacity ceiling holds,
//! and every surviving value reads back byte-identical. The replays at
//! the end hold the default-shaped slab (nothing set but the capacity)
//! to the heap oracle's hit ratio: it is the byte budget that fills,
//! not the pages.

use proteus_cache::{CacheConfig, CacheEngine, ShardedEngine, StorageKind};
use proteus_ring::hash::splitmix64;
use proteus_sim::SimTime;

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

/// What `proteus-cache-server` runs with when given no flags.
const SERVER_CAPACITY: u64 = 64 << 20;

fn default_shaped(storage: StorageKind) -> ShardedEngine {
    ShardedEngine::new(CacheConfig::with_capacity(SERVER_CAPACITY).storage(storage))
}

#[test]
fn churn_at_twice_capacity_keeps_slab_accounting_exact() {
    let mut engine = CacheEngine::new(CacheConfig::with_capacity(CAPACITY).slab_page_bytes(4096));
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
    let heap = ShardedEngine::new(
        CacheConfig::with_capacity(CAPACITY)
            .shards(4)
            .storage(StorageKind::Heap),
    );
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
    // The server's default shape: 64 MiB over 8 shards, 64 KiB pages.
    let engine = default_shaped(StorageKind::Slab);
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
        engine.bytes_used() > SERVER_CAPACITY / 3 && engine.bytes_used() < SERVER_CAPACITY * 2 / 3,
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

/// The benchmark's `single_churn` mix on a bare engine: 50% set, 45%
/// get, 5% delete, keys uniform over 190 000 (about four times the
/// cache at 256 B–4 KiB), each key's value one fixed log-uniform length
/// in `min..=max`. Returns the hit ratio of the gets in the second half.
fn replay_single_churn(engine: &ShardedEngine, min: usize, max: usize, ops: u64) -> f64 {
    const KEYS: u64 = 190_000;
    let pad = vec![0xA5u8; max];
    let (lo, hi) = ((min as f64).ln(), (max as f64).ln());
    let len_of = |key: u64| {
        let unit = (splitmix64(key ^ 0x5153) >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + unit * (hi - lo)).exp().round() as usize).clamp(min, max)
    };
    let now = SimTime::ZERO;
    let (mut gets, mut hits) = (0u64, 0u64);
    for n in 0..ops {
        let r = splitmix64(n);
        let k = (r >> 8) % KEYS;
        let key = format!("key:{k:08}");
        match r % 100 {
            0..45 => {
                let hit = engine.with_key_shard(key.as_bytes(), |e| {
                    e.get(key.as_bytes(), now).map(<[u8]>::len)
                });
                if n >= ops / 2 {
                    gets += 1;
                    hits += u64::from(hit.is_some());
                }
                assert!(
                    hit.is_none_or(|len| len == len_of(k)),
                    "key {k}: wrong value"
                );
            }
            45..95 => {
                assert!(engine.put(key.as_bytes(), &pad[..len_of(k)], now).stored);
            }
            _ => {
                engine.delete(key.as_bytes());
            }
        }
    }
    hits as f64 / gets as f64
}

/// Ops per replay: enough sets to turn the cache over a dozen times in
/// release (what CI's release step runs), three times in debug.
const REPLAY_OPS: u64 = if cfg!(debug_assertions) {
    600_000
} else {
    3_000_000
};

#[test]
fn default_shaped_slab_holds_the_heap_oracles_hit_ratio_on_single_churn() {
    // The oracle is dropped before the slab is built: one 64 MiB
    // engine alive at a time.
    let heap_hits =
        replay_single_churn(&default_shaped(StorageKind::Heap), 256, 4 << 10, REPLAY_OPS);
    let slab = default_shaped(StorageKind::Slab);
    let slab_hits = replay_single_churn(&slab, 256, 4 << 10, REPLAY_OPS);
    assert!(
        slab_hits >= 0.98 * heap_hits,
        "slab hit ratio {slab_hits:.4} vs heap {heap_hits:.4}"
    );
    assert!(
        slab.bytes_used() as f64 >= 0.97 * SERVER_CAPACITY as f64,
        "only {} of {SERVER_CAPACITY} bytes accounted",
        slab.bytes_used()
    );
    let stats = slab.slab_stats().expect("slab backend");
    assert_eq!(stats.page_bytes, 64 << 10, "capacity / 8 shards / 128");
    assert_eq!(stats.heap_fallbacks, 0);
    slab.assert_storage_consistent();
}

#[test]
fn default_shaped_slab_stays_within_five_per_cent_of_the_oracle_on_wide_values() {
    // 64 B–16 KiB: 25 size classes, the mix the benchmark had to narrow
    // because 13 one-MiB pages a shard could not hold one page of each.
    let heap_hits =
        replay_single_churn(&default_shaped(StorageKind::Heap), 64, 16 << 10, REPLAY_OPS);
    let slab = default_shaped(StorageKind::Slab);
    let slab_hits = replay_single_churn(&slab, 64, 16 << 10, REPLAY_OPS);
    assert!(
        slab_hits >= 0.95 * heap_hits,
        "slab hit ratio {slab_hits:.4} vs heap {heap_hits:.4}"
    );
    let reassigned = slab.slab_stats().expect("slab backend").pages_reassigned;
    let sets = slab.stats().sets;
    assert!(
        (reassigned as f64) < 0.01 * sets as f64,
        "{reassigned} page reassignments in {sets} sets"
    );
    slab.assert_storage_consistent();
}

#[test]
fn a_starved_set_evicts_one_item_of_its_own_class_or_nobody() {
    // Two 1 KiB pages and bytes to spare: one page fills with sixteen
    // 64-byte chunks, the other holds a single large chunk whose item
    // is the least recent of all.
    let mut engine = CacheEngine::new(
        CacheConfig::with_capacity(1 << 20)
            .item_overhead(0)
            .slab_page_bytes(1024)
            .slab_page_budget(2),
    );
    let now = SimTime::ZERO;
    engine.put(b"large", vec![1u8; 900], now);
    for i in 0..16u8 {
        engine.put(&[b's', i], vec![2u8; 40], now);
    }
    // A seventeenth small item: its class is starved, and the only item
    // that can give it a chunk is the least recent small one.
    let outcome = engine.put(b"s+", vec![3u8; 40], now);
    assert_eq!((outcome.stored, outcome.evicted), (true, 1));
    assert!(!engine.contains(&[b's', 0]), "least recent of its class");
    assert!(engine.contains(b"large"), "LRU tail, but of another class");
    assert_eq!(engine.peek(b"s+"), Some(&[3u8; 40][..]));
    // A class that owns no page has nobody to evict: the heap path.
    let outcome = engine.put(b"medium", vec![4u8; 300], now);
    assert_eq!((outcome.stored, outcome.evicted), (true, 0));
    assert_eq!(engine.peek(b"medium"), Some(&[4u8; 300][..]));
    assert_eq!(engine.len(), 18);
    let stats = engine.slab_stats().expect("slab backend");
    assert_eq!((stats.starved_sets, stats.heap_fallbacks), (2, 1));
    assert_eq!(stats.pages_reassigned, 0);
    assert_eq!(engine.stats().evictions, 1);
    engine.assert_storage_consistent();
}

#[test]
fn a_value_over_one_page_is_charged_evicted_and_counted_like_any_other() {
    // 64 KiB pages by default: a value between that and the wire's
    // 1 MiB limit lives on the heap inside the slab engine.
    const LEN: usize = 500 << 10;
    const PUTS: u64 = 400;
    let engine = default_shaped(StorageKind::Slab);
    let now = SimTime::ZERO;
    let value = |i: u64| vec![(i % 251) as u8; LEN];
    assert!(engine.put(b"big:0", value(0), now).stored);
    assert_eq!(engine.bytes_used(), 5 + LEN as u64 + 64);
    assert_eq!(
        &engine.get(b"big:0", now).expect("just stored")[..],
        &value(0)[..]
    );
    let mut evicted = 0;
    for i in 1..PUTS {
        let outcome = engine.put(format!("big:{i}").as_bytes(), value(i), now);
        assert!(outcome.stored);
        evicted += outcome.evicted;
    }
    // Fifty a shard, sixteen fit: the first is long gone.
    assert!(engine.get(b"big:0", now).is_none());
    assert!(engine.bytes_used() <= SERVER_CAPACITY);
    assert_eq!(engine.len() as u64 + evicted, PUTS);
    assert_eq!(engine.stats().evictions, evicted);
    let last = format!("big:{}", PUTS - 1);
    assert_eq!(
        &engine.get(last.as_bytes(), now).expect("most recent")[..],
        &value(PUTS - 1)[..]
    );
    let stats = engine.slab_stats().expect("slab backend");
    assert_eq!((stats.heap_fallbacks, stats.starved_sets), (PUTS, 0));
    assert_eq!(stats.pages_allocated, 0, "no page was ever needed");
    engine.assert_storage_consistent();
}
