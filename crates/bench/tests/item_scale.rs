//! A million resident items on the slab backend: what the process
//! holds per byte the engine accounts for.
//!
//! The heap backend stores every value as its own allocation, so
//! millions of small items fragment the allocator and bloat RSS far
//! past the accounted bytes; the slab packs items into size-class pages
//! that commit lazily. Four phases on one engine (DESIGN.md §12;
//! `benchmark/` prints the numbers as `mem_bytes_per_user_byte` and
//! `cache.allocs_per_get`):
//!
//! 1. **Populate** — 10⁶ × 64 B items with 20 % headroom, none evicted;
//!    RSS grows by at most 1.6× the accounted bytes (per-item index
//!    overhead plus page rounding, no allocator blow-up).
//! 2. **Warmed gets** — the path the server runs (a borrowed read
//!    copied out under the shard lock) allocates exactly nothing.
//! 3. **Eviction churn** — mixed-size sets of new keys past capacity,
//!    so every store evicts and chunks free and refill across size
//!    classes: the accounting survives exactly, and the set p99 does
//!    not drift from the first half to the second.
//! 4. **Quarter fill** — a second engine of the same capacity a quarter
//!    full of the churn's sizes, a partly filled page in every class:
//!    resident memory follows the data held (≤ 1.5× live key + value
//!    bytes), not the pages reserved.
//!
//! One `#[test]`: RSS and the allocation count are process-wide.

use std::time::Instant;

use proteus_bench::alloc_track::{is_counting, measure, CountingAlloc};
use proteus_cache::{CacheConfig, ShardedEngine};
use proteus_ring::hash::splitmix64;
use proteus_sim::SimTime;
use proteus_store::content_size_for;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ITEMS: u64 = 1_000_000;
const VALUE_LEN: usize = 64;
const KEY_LEN: usize = 12;
/// Charged per item beyond the payload (`CacheConfig` default).
const ITEM_OVERHEAD: u64 = 64;
const CHURN_OPS: u64 = 400_000;
/// Resident memory over accounted bytes after the populate.
const RSS_BAR: f64 = 1.6;
/// Resident memory over live key + value bytes at a quarter fill.
const QUARTER_RSS_BAR: f64 = 1.5;
/// Churn p99, second half over first (wall-clock is noisy; drift is
/// what this is after).
const P99_DRIFT_BAR: f64 = 5.0;

/// The fixed-width key `<tag><i>`; each phase writes under its own tag.
fn tagged_key(tag: &[u8; 4], i: u64) -> [u8; KEY_LEN] {
    let mut key = [0u8; KEY_LEN];
    key[..4].copy_from_slice(tag);
    key[4..].copy_from_slice(&i.to_le_bytes());
    key
}

/// Resident set size of this process, or 0 where there is no `/proc`
/// (every RSS ratio then reads 0 and passes).
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
    line.map_or(0, |v| {
        let kb: u64 = v.split_whitespace().next().unwrap().parse().unwrap();
        kb * 1024
    })
}

fn p99(samples: &[u64]) -> u64 {
    let mut samples = samples.to_vec();
    let idx = (samples.len() - 1) * 99 / 100;
    *samples.select_nth_unstable(idx).1
}

#[test]
fn a_million_small_items_stay_within_their_memory_bars() {
    assert!(
        is_counting(),
        "counting allocator not registered; allocs/op would be vacuously zero"
    );
    let per_item = KEY_LEN as u64 + VALUE_LEN as u64 + ITEM_OVERHEAD;
    let capacity = ITEMS * per_item * 12 / 10;
    let slab = || ShardedEngine::new(CacheConfig::with_capacity(capacity));

    // Phase 1: populate.
    let engine = slab();
    let rss_before = rss_bytes();
    let mut value = [0u8; VALUE_LEN];
    for i in 0..ITEMS {
        value[..8].copy_from_slice(&splitmix64(i).to_le_bytes());
        engine.put(&tagged_key(b"itm:", i)[..], &value[..], SimTime::ZERO);
    }
    assert_eq!(
        engine.len() as u64,
        ITEMS,
        "populate evicted — capacity headroom miscalculated"
    );
    let rss_ratio = rss_bytes().saturating_sub(rss_before) as f64 / engine.bytes_used() as f64;
    assert!(
        rss_ratio <= RSS_BAR,
        "RSS {rss_ratio:.3}x accounted bytes exceeds the {RSS_BAR}x bar"
    );

    // Phase 2: warmed random gets, counted exactly.
    let mut out = Vec::with_capacity(VALUE_LEN);
    let ((), warm) = measure(|| {
        for i in 0..ITEMS {
            let key = tagged_key(b"itm:", splitmix64(i) % ITEMS);
            out.clear();
            let hit = engine.with_key_shard(&key, |e| {
                e.get(&key, SimTime::ZERO).map(|v| out.extend_from_slice(v))
            });
            assert!(hit.is_some(), "resident key missing");
            std::hint::black_box(&out);
        }
    });
    assert_eq!(
        warm.allocations, 0,
        "warmed gets allocated — the borrowed read under the shard lock allocates"
    );

    // Phase 3: eviction churn, sizes log-uniform in 16..=2048. The
    // first quarter is unmeasured: it burns through the populate
    // headroom, so the drift compares two steady halves, not ramp
    // against steady.
    let warmup = CHURN_OPS / 4;
    let mut latencies: Vec<u64> = Vec::with_capacity(CHURN_OPS as usize);
    let churn_value = [0xA5u8; 2048];
    for i in 0..warmup + CHURN_OPS {
        let key = tagged_key(b"chn:", i);
        let size = content_size_for(&key, 16, 2048);
        let began = Instant::now();
        engine.put(&key[..], &churn_value[..size], SimTime::ZERO);
        if i >= warmup {
            latencies.push(began.elapsed().as_nanos() as u64);
        }
    }
    // Every shard's free lists, class stats and LRU agree, and the
    // pages the slab holds cover every live byte it claims.
    engine.assert_storage_consistent();
    let churned = engine.slab_stats().expect("slab backend configured");
    assert!(
        churned.page_bytes_total() >= churned.live_bytes(),
        "slab claims {} live bytes in only {} page bytes",
        churned.live_bytes(),
        churned.page_bytes_total(),
    );
    let (first, second) = latencies.split_at(latencies.len() / 2);
    let drift = p99(second) as f64 / p99(first).max(1) as f64;
    // A debug build's p99 is the unoptimised code's, not the slab's.
    assert!(
        cfg!(debug_assertions) || drift <= P99_DRIFT_BAR,
        "churn p99 drifted {drift:.2}x (bar {P99_DRIFT_BAR}x) — \
         eviction cost is growing with fragmentation"
    );

    // Phase 4: quarter fill. The first engine stays alive, so nothing
    // it holds can be recycled into this one.
    let quarter = slab();
    let quarter_rss_before = rss_bytes();
    let mut i = 0u64;
    while quarter.bytes_used() < capacity / 4 {
        let key = tagged_key(b"qtr:", i);
        let size = content_size_for(&key, 16, 2048);
        quarter.put(&key[..], &churn_value[..size], SimTime::ZERO);
        i += 1;
    }
    let quarter_rss = rss_bytes().saturating_sub(quarter_rss_before);
    let live = quarter.slab_stats().expect("slab backend").live_bytes();
    let quarter_ratio = quarter_rss as f64 / live as f64;
    assert!(
        quarter_ratio <= QUARTER_RSS_BAR,
        "a quarter-full cache is resident at {quarter_ratio:.3}x its live bytes \
         (bar {QUARTER_RSS_BAR}x) — pages are committed before they are written"
    );
    println!(
        "populate RSS {rss_ratio:.3}x accounted, churn p99 drift {drift:.2}x, \
         quarter fill RSS {quarter_ratio:.3}x live"
    );
}
