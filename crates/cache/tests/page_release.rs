//! A slab page that empties gives its memory back to the kernel.
//!
//! One test, alone in its binary, so that the process's resident set
//! moves only with what the test does. It plays a grow window's shape
//! on a default-shaped engine: a survivor holds its own keys, takes a
//! second batch that needs pages of its own, and loses that batch
//! again. The pages the second batch emptied must leave the resident
//! set, and a lone key overwritten in place must not cost a release.
//! Last, a flush (`flush_all`, the benchmark's power-off) must leave no
//! page resident, the pool's reserve included.

use proteus_cache::{CacheConfig, ShardedEngine};
use proteus_sim::SimTime;

/// What `proteus-cache-server` runs with when given no flags.
const CAPACITY: u64 = 64 << 20;
/// Items per batch; one batch of `VALUE_LEN`-byte values is ~12 MiB.
const BATCH: u64 = 12_000;
const VALUE_LEN: usize = 1000;
/// The lone key's value falls in a class no batch item uses.
const LONE_LEN: usize = 3000;
const REWRITES: u64 = 100_000;
/// Share of the released pages' bytes the resident set must lose.
const RSS_DROP_BAR: f64 = 0.8;

/// Resident set size of this process, or 0 where there is no `/proc`.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
    line.map_or(0, |v| {
        let kb: u64 = v.split_whitespace().next().unwrap().parse().unwrap();
        kb * 1024
    })
}

fn key(batch: u8, i: u64) -> [u8; 9] {
    let mut key = [batch; 9];
    key[1..].copy_from_slice(&i.to_le_bytes());
    key
}

#[test]
fn pages_a_deleted_batch_empties_leave_the_resident_set() {
    let engine = ShardedEngine::new(CacheConfig::with_capacity(CAPACITY));
    let now = SimTime::ZERO;
    let value = [b'v'; LONE_LEN];
    let fill = |batch: u8| {
        for i in 0..BATCH {
            let outcome = engine.put(&key(batch, i), &value[..VALUE_LEN], now);
            assert!(outcome.stored && outcome.evicted == 0);
        }
    };
    fill(b'a');
    fill(b'b');
    let held = engine.slab_stats().expect("slab backend");
    let rss_held = rss_bytes();

    for i in 0..BATCH {
        assert!(engine.delete(&key(b'b', i)));
    }
    let emptied = engine.slab_stats().expect("slab backend");
    let rss_emptied = rss_bytes();
    engine.assert_storage_consistent();

    let released = emptied.pages_released - held.pages_released;
    assert_eq!(
        emptied.pages_allocated, held.pages_allocated,
        "address space is kept"
    );
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        // All but the tail page of each shard's class emptied, less the
        // reserve each shard keeps resident.
        assert!(
            released * emptied.page_bytes >= BATCH * VALUE_LEN as u64 * 8 / 10,
            "only {released} pages of {} B released",
            emptied.page_bytes
        );
    }
    let released_bytes = released * emptied.page_bytes;
    let dropped = rss_held.saturating_sub(rss_emptied);
    assert!(
        rss_held == 0 || dropped as f64 >= RSS_DROP_BAR * released_bytes as f64,
        "RSS fell {dropped} B for {released} released pages ({released_bytes} B)"
    );

    // A lone key in a class of its own empties and refills its page on
    // every overwrite; the page goes through the reserve, so nothing is
    // released and no page is added.
    engine.put(b"lone", &value[..], now);
    let before = engine.slab_stats().expect("slab backend");
    for _ in 0..REWRITES {
        assert!(engine.put(b"lone", &value[..], now).stored);
    }
    let after = engine.slab_stats().expect("slab backend");
    assert_eq!(
        (after.pages_released, after.pages_allocated),
        (before.pages_released, before.pages_allocated),
        "{REWRITES} overwrites of a lone key released or added pages"
    );
    engine.assert_storage_consistent();

    // A flush is never in the middle of an overwrite, so it keeps no
    // reserve: every page's memory goes back, its address space stays.
    engine.clear();
    let flushed = engine.slab_stats().expect("slab backend");
    assert_eq!(flushed.pages_allocated, after.pages_allocated);
    assert_eq!(flushed.pages_pooled, flushed.pages_allocated);
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        assert_eq!(
            flushed.pages_resident, 0,
            "a flushed default engine kept pages resident"
        );
    }
    engine.assert_storage_consistent();
}
