//! Item-count scaling: millions of resident items per server under
//! the slab backend.
//!
//! The heap backend stores every value as its own allocation, so tens
//! of millions of small items fragment the allocator and bloat RSS
//! far past the accounted bytes. The slab backend packs items into
//! size-class pages. This binary measures what that buys at scale:
//!
//! 1. **Populate** — N small items (10 M by default), then compare
//!    the process RSS delta against the engine's accounted bytes. The
//!    gate is RSS ≤ 1.6× accounted: per-item index overhead plus page
//!    rounding, with no allocator blow-up.
//! 2. **Warmed gets** — random reads over the resident set with the
//!    counting global allocator, through the path the server runs (a
//!    borrowed read copied out under the shard lock): the gate is
//!    exactly zero allocations per hit.
//! 3. **Eviction churn** — mixed-size writes past capacity so every
//!    store evicts. Gates: set p99 stays stable from the first half
//!    of the run to the second (no accumulating fragmentation stall),
//!    and the slab's page accounting still covers its live bytes.
//! 4. **Quarter fill** — a second engine of the same capacity filled
//!    to a quarter with the churn phase's mixed sizes, so each shard
//!    has a partly filled page in every size class. Pages commit
//!    lazily, so resident memory must follow the data actually held
//!    (RSS ≤ 1.5× live key+value bytes), not the pages reserved.
//!
//! Run with: `cargo run --release --bin item_scale`
//!
//! `--smoke` shrinks the population for CI and exits non-zero if any
//! gate fails. `--items N` overrides the population size.

use std::time::Instant;

use proteus_bench::alloc_track::{is_counting, measure, CountingAlloc};
use proteus_bench::write_csv;
use proteus_cache::{CacheConfig, ShardedEngine, StorageKind};
use proteus_ring::hash::splitmix64;
use proteus_sim::SimTime;
use proteus_store::content_size_for;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const VALUE_LEN: usize = 64;
const KEY_LEN: usize = 12;
/// Charged per item beyond the payload (`CacheConfig` default).
const ITEM_OVERHEAD: u64 = 64;
/// Acceptance bar: resident memory over accounted bytes.
const RSS_BAR: f64 = 1.6;
/// Acceptance bar at a quarter fill: resident memory over live
/// key+value bytes.
const QUARTER_RSS_BAR: f64 = 1.5;
/// Churn p99 in the second half may not exceed this multiple of the
/// first half (wall-clock is noisy; drift is what we're after).
const P99_DRIFT_BAR: f64 = 5.0;

/// Builds the fixed-width key for item `i` without allocating.
fn key_of(i: u64, buf: &mut [u8; KEY_LEN]) -> &[u8] {
    *buf = tagged_key(b"itm:", i);
    &buf[..]
}

/// The fixed-width key `<tag><i>`; each phase writes under its own tag.
fn tagged_key(tag: &[u8; 4], i: u64) -> [u8; KEY_LEN] {
    let mut key = [0u8; KEY_LEN];
    key[..4].copy_from_slice(tag);
    key[4..].copy_from_slice(&i.to_le_bytes());
    key
}

/// Resident set size of this process, from `/proc/self/status`.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// p99 of `samples`, destructively.
fn p99(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let idx = (samples.len() - 1) * 99 / 100;
    *samples.select_nth_unstable(idx).1
}

fn main() {
    assert!(
        is_counting(),
        "counting allocator not registered; allocs/op would be vacuously zero"
    );
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let items: u64 = args
        .iter()
        .position(|a| a == "--items")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--items must be a number"))
        .unwrap_or(if smoke { 1_000_000 } else { 10_000_000 });

    // Capacity with ~20% headroom over the accounted cost, so the
    // populate phase never evicts and `len()` must land exactly on N.
    let per_item = KEY_LEN as u64 + VALUE_LEN as u64 + ITEM_OVERHEAD;
    let capacity = items * per_item * 12 / 10;
    let engine =
        ShardedEngine::new(CacheConfig::with_capacity(capacity).storage(StorageKind::Slab));
    println!(
        "item_scale: {items} items x {VALUE_LEN} B values, capacity {} MiB{}",
        capacity >> 20,
        if smoke { ", smoke mode" } else { "" }
    );

    // Phase 1: populate.
    let rss_before = rss_bytes().unwrap_or(0);
    let mut key_buf = [0u8; KEY_LEN];
    let mut value = [0u8; VALUE_LEN];
    let started = Instant::now();
    for i in 0..items {
        value[..8].copy_from_slice(&splitmix64(i).to_le_bytes());
        engine.put(key_of(i, &mut key_buf), &value[..], SimTime::ZERO);
    }
    let populate_elapsed = started.elapsed();
    assert_eq!(
        engine.len() as u64,
        items,
        "populate evicted — capacity headroom miscalculated"
    );
    let accounted = engine.bytes_used();
    let rss_after = rss_bytes().unwrap_or(0);
    let rss_delta = rss_after.saturating_sub(rss_before);
    let rss_ratio = rss_delta as f64 / accounted as f64;
    let slab = engine.slab_stats().expect("slab backend configured");
    println!(
        "populate: {:.2} M items/s, accounted {} MiB, RSS delta {} MiB ({rss_ratio:.3}x), \
         {} pages ({} MiB), fragmentation {:.3}",
        items as f64 / populate_elapsed.as_secs_f64() / 1e6,
        accounted >> 20,
        rss_delta >> 20,
        slab.pages_allocated,
        slab.page_bytes_total() >> 20,
        slab.fragmentation(),
    );

    // Phase 2: warmed random gets, counted exactly.
    let gets = items.min(2_000_000);
    let mut out = Vec::with_capacity(VALUE_LEN);
    let get_started = Instant::now();
    let ((), warm) = measure(|| {
        for i in 0..gets {
            let key = key_of(splitmix64(i) % items, &mut key_buf);
            out.clear();
            let hit = engine.with_key_shard(key, |e| {
                e.get(key, SimTime::ZERO).map(|v| out.extend_from_slice(v))
            });
            assert!(hit.is_some(), "resident key missing");
            std::hint::black_box(&out);
        }
    });
    let get_elapsed = get_started.elapsed();
    println!(
        "warmed gets: {gets} ops, {:.0} ns/op, {} allocations",
        get_elapsed.as_nanos() as f64 / gets as f64,
        warm.allocations,
    );

    // Phase 3: eviction churn with mixed sizes. Every write is a new
    // key, so once the headroom is gone each store evicts from the
    // LRU tail; sizes are log-uniform in 16..=2048 so chunks free and
    // refill across different size classes.
    let churn_ops: u64 = if smoke { 400_000 } else { 2_000_000 };
    // The first quarter is an unmeasured warm-up: it burns through the
    // populate headroom and reaches steady-state eviction, so the
    // drift gate compares two steady halves instead of ramp vs steady.
    let warmup = churn_ops / 4;
    let mut latencies: Vec<u64> = Vec::with_capacity(churn_ops as usize);
    let mut churn_value = Vec::with_capacity(2048);
    let mut evictions = 0u64;
    for i in 0..warmup + churn_ops {
        let churn_key = tagged_key(b"chn:", i);
        let size = content_size_for(&churn_key, 16, 2048);
        churn_value.clear();
        churn_value.resize(size, (i % 251) as u8);
        let op_start = Instant::now();
        let outcome = engine.put(&churn_key[..], &churn_value[..], SimTime::ZERO);
        if i >= warmup {
            latencies.push(op_start.elapsed().as_nanos() as u64);
            evictions += outcome.evicted;
        }
    }
    let (first, second) = latencies.split_at(latencies.len() / 2);
    let (p99_first, p99_second) = (p99(&mut first.to_vec()), p99(&mut second.to_vec()));
    let drift = p99_second as f64 / p99_first.max(1) as f64;
    let slab_after = engine.slab_stats().expect("slab backend configured");
    println!(
        "churn: {churn_ops} mixed-size sets, {evictions} evictions, \
         p99 {p99_first} ns -> {p99_second} ns ({drift:.2}x), \
         fragmentation {:.3}, heap fallbacks {}",
        slab_after.fragmentation(),
        slab_after.heap_fallbacks,
    );

    // Accounting must survive the churn exactly: every shard's free
    // lists, class stats, and LRU agree, and the pages the slab holds
    // cover every live byte it claims.
    engine.assert_storage_consistent();
    assert!(
        slab_after.page_bytes_total() >= slab_after.live_bytes(),
        "slab claims {} live bytes in only {} page bytes",
        slab_after.live_bytes(),
        slab_after.page_bytes_total(),
    );

    // Phase 4: the same capacity a quarter full of the churn phase's
    // mixed sizes, so every shard holds a partly filled page in each of
    // ~17 size classes. The first engine stays alive, so nothing it
    // holds can be recycled into this one.
    let quarter =
        ShardedEngine::new(CacheConfig::with_capacity(capacity).storage(StorageKind::Slab));
    let quarter_rss_before = rss_bytes().unwrap_or(0);
    let mut i = 0u64;
    while quarter.bytes_used() < capacity / 4 {
        let key = tagged_key(b"qtr:", i);
        churn_value.clear();
        churn_value.resize(content_size_for(&key, 16, 2048), (i % 251) as u8);
        quarter.put(&key[..], &churn_value[..], SimTime::ZERO);
        i += 1;
    }
    let quarter_rss = rss_bytes().unwrap_or(0).saturating_sub(quarter_rss_before);
    let quarter_slab = quarter.slab_stats().expect("slab backend configured");
    let quarter_ratio = quarter_rss as f64 / quarter_slab.live_bytes() as f64;
    println!(
        "quarter fill: {} mixed-size items, live {} MiB, RSS delta {} MiB ({quarter_ratio:.3}x), \
         {} pages reserved ({} MiB)",
        quarter.len(),
        quarter_slab.live_bytes() >> 20,
        quarter_rss >> 20,
        quarter_slab.pages_allocated,
        quarter_slab.page_bytes_total() >> 20,
    );

    if let Ok(path) = write_csv(
        "item_scale",
        &[
            "items",
            "accounted_mib",
            "rss_delta_mib",
            "rss_ratio",
            "get_ns_per_op",
            "get_allocs",
            "churn_p99_first_ns",
            "churn_p99_second_ns",
            "fragmentation",
        ],
        [vec![
            items.to_string(),
            (accounted >> 20).to_string(),
            (rss_delta >> 20).to_string(),
            format!("{rss_ratio:.4}"),
            format!("{:.1}", get_elapsed.as_nanos() as f64 / gets as f64),
            warm.allocations.to_string(),
            p99_first.to_string(),
            p99_second.to_string(),
            format!("{:.4}", slab_after.fragmentation()),
        ]],
    ) {
        println!("csv: {}", path.display());
    }

    if smoke {
        assert!(
            rss_ratio <= RSS_BAR,
            "RSS {rss_ratio:.3}x accounted bytes exceeds the {RSS_BAR}x bar"
        );
        assert_eq!(
            warm.allocations, 0,
            "warmed gets allocated — the borrowed read under the shard lock allocates"
        );
        assert!(
            quarter_ratio <= QUARTER_RSS_BAR,
            "a quarter-full cache is resident at {quarter_ratio:.3}x its live bytes \
             (bar {QUARTER_RSS_BAR}x) — pages are committed before they are written"
        );
        assert!(
            drift <= P99_DRIFT_BAR,
            "churn p99 drifted {drift:.2}x (bar {P99_DRIFT_BAR}x) — \
             eviction cost is growing with fragmentation"
        );
        println!("smoke check passed");
    }
}
