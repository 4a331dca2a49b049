//! Lock-striped cache engine for concurrent servers.

use parking_lot::Mutex;
use proteus_bloom::{partition_of, BloomConfig, BloomFilter};
use proteus_sim::{SimDuration, SimTime};

use crate::config::CacheConfig;
use crate::engine::{CacheEngine, Keys, StoreOutcome};
use crate::slab::SlabStats;
use crate::stats::{CacheStats, MemBytes};
use crate::SharedBytes;

/// One page of one shard's keys, hottest first (see
/// [`ShardedEngine::mru_page`]).
pub type MruPage<'a> = std::iter::Take<std::iter::Skip<Keys<'a>>>;

/// A concurrent cache engine: N independent [`CacheEngine`] shards,
/// each behind its own mutex, selected by key hash.
///
/// Compared to one engine behind one mutex:
///
/// - Operations on different shards proceed in parallel; the write
///   lock a `put` takes only stalls the ~1/N of keys sharing its
///   shard.
/// - Each shard owns its statistics; [`stats`](Self::stats) sums
///   them, one shard locked at a time, so an operation writes no
///   counter that another shard's threads share.
/// - [`digest_snapshot`](Self::digest_snapshot) visits shards *one at
///   a time*, collapsing each one's counters to bits and concatenating
///   the results, so a snapshot (the paper's `get SET_BLOOM_FILTER`)
///   never stops the world — at most one shard is locked, for one pass
///   over its 1/N of the counter words, while the other N−1 keep
///   serving.
///
/// The digest is partitioned, not copied: the configured
/// [`BloomConfig`] is split with
/// [`with_partitions`](BloomConfig::with_partitions)`(N)`, shard `s`
/// owns slice `s` as an ordinary filter of `l / N` counters, and
/// [`shard_of`](Self::shard_of) is [`partition_of`] — so the shards
/// hold `l·b` bits between them (what Eq. 10 provisions for the whole
/// server), and their concatenation is bit-identical to one whole
/// `partitions = N` filter fed the same keys.
///
/// Capacity is partitioned statically: each shard evicts independently
/// against `capacity_bytes / shards`, which bounds total usage by
/// `capacity_bytes` without any cross-shard accounting.
///
/// # Example
///
/// ```
/// use proteus_cache::{CacheConfig, ShardedEngine};
/// use proteus_sim::SimTime;
///
/// let cache = ShardedEngine::new(CacheConfig::with_capacity(1 << 20));
/// let t = SimTime::ZERO;
/// cache.put(b"page:1", vec![0u8; 64], t);
/// assert_eq!(cache.get(b"page:1", t).as_deref(), Some(&[0u8; 64][..]));
/// assert!(cache.digest_snapshot().contains(b"page:1"));
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Mutex<CacheEngine>>,
    config: CacheConfig,
}

impl ShardedEngine {
    /// Creates an empty sharded engine. `config.shards` is rounded up
    /// to a power of two (minimum 1); each shard gets an equal slice
    /// of `capacity_bytes` and an equal slice of the digest's counters.
    #[must_use]
    pub fn new(mut config: CacheConfig) -> Self {
        let shard_count = config.shards.max(1).next_power_of_two();
        config.digest = config.digest.with_partitions(shard_count);
        let shard_config = CacheConfig {
            capacity_bytes: config.capacity_bytes / shard_count as u64,
            shards: 1,
            digest: BloomConfig {
                counters: config.digest.counters / shard_count,
                partitions: 1,
                ..config.digest
            },
            ..config
        };
        ShardedEngine {
            shards: (0..shard_count)
                .map(|_| Mutex::new(CacheEngine::new(shard_config)))
                .collect(),
            config,
        }
    }

    /// The engine's configuration as given, before the per-shard split,
    /// except that `digest` is resolved: the partitioned shape (`l`
    /// rounded up to whole words a shard, `partitions` = shard count)
    /// the shards hold between them and
    /// [`digest_snapshot`](Self::digest_snapshot) broadcasts.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of shards (a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `key` lives in: the digest partition it hashes into.
    #[must_use]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        partition_of(key, self.shards.len())
    }

    /// Runs `f` under the lock of `key`'s shard. This is the engine's
    /// unit of atomicity: compound per-key operations (`add`,
    /// `replace`, `incr`, …) run their probe and write inside one call,
    /// and a borrowed read ([`CacheEngine::get`]) is consumed inside
    /// one. `f` must not block or make a syscall: every other key of
    /// the shard waits on it.
    pub fn with_key_shard<T>(&self, key: &[u8], f: impl FnOnce(&mut CacheEngine) -> T) -> T {
        self.with_shard(self.shard_of(key), f)
    }

    fn with_shard<T>(&self, shard: usize, f: impl FnOnce(&mut CacheEngine) -> T) -> T {
        f(&mut self.shards[shard].lock())
    }

    /// Runs `f` on one page of shard `shard`'s keys in MRU→LRU order —
    /// at most `limit` of them, starting `skip` keys from the hottest —
    /// under that shard's lock and no other. `None` if there is no such
    /// shard. Listing moves neither recency nor statistics, and like
    /// [`with_key_shard`](Self::with_key_shard) `f` must not block.
    ///
    /// Pages at `skip = 0, limit, 2·limit, …` up to the first short one
    /// concatenate to the shard's whole order as long as nothing
    /// touches the shard in between. Under traffic they do not: a hit
    /// or a store ahead of the cursor pushes the unread tail down (a
    /// key is listed twice), a removal behind it pulls the tail up (a
    /// key is skipped) — a walker that removes keys itself subtracts
    /// them from its next `skip`. Reaching the page costs `skip` list
    /// hops under the lock, so a whole walk is quadratic in the shard's
    /// item count over `limit`.
    pub fn mru_page<T>(
        &self,
        shard: usize,
        skip: usize,
        limit: usize,
        f: impl FnOnce(MruPage<'_>) -> T,
    ) -> Option<T> {
        let guard = self.shards.get(shard)?.lock();
        Some(f(guard.keys().skip(skip).take(limit)))
    }

    /// Looks up `key`, refreshing recency (see [`CacheEngine::get`]).
    /// Returns a value that outlives the shard lock: a refcount bump on
    /// the heap backend, one allocation and one copy on the slab
    /// backend ([`CacheEngine::get_shared`]). A caller that only needs
    /// the bytes while it can hold the lock — the server copying them
    /// into a response buffer — borrows them instead:
    /// `with_key_shard(key, |e| e.get(key, now).map(..))`.
    #[must_use]
    pub fn get(&self, key: &[u8], now: SimTime) -> Option<SharedBytes> {
        self.with_key_shard(key, |e| e.get_shared(key, now))
    }

    /// Inserts or replaces `key` with no expiry. The outcome reports
    /// whether the item was stored (an item larger than the shard's
    /// whole budget is rejected, leaving any existing value intact) and
    /// how many evictions it caused within `key`'s shard. On the heap
    /// backend a [`SharedBytes`] value is stored as-is (no copy); on
    /// the slab backend the bytes are copied once into a page.
    pub fn put(
        &self,
        key: &[u8],
        value: impl Into<SharedBytes> + AsRef<[u8]>,
        now: SimTime,
    ) -> StoreOutcome {
        self.with_key_shard(key, |e| e.put(key, value, now))
    }

    /// Inserts or replaces `key` with an optional TTL (see
    /// [`CacheEngine::put_with_expiry`]).
    pub fn put_with_expiry(
        &self,
        key: &[u8],
        value: impl Into<SharedBytes> + AsRef<[u8]>,
        now: SimTime,
        ttl: Option<SimDuration>,
    ) -> StoreOutcome {
        self.with_key_shard(key, |e| e.put_with_expiry(key, value, now, ttl))
    }

    /// Deletes `key`, returning whether it was present.
    pub fn delete(&self, key: &[u8]) -> bool {
        self.with_key_shard(key, |e| e.delete(key))
    }

    /// Refreshes `key`'s recency without reading it and gives it a new
    /// expiry (see [`CacheEngine::touch`]).
    pub fn touch(&self, key: &[u8], now: SimTime, ttl: Option<SimDuration>) -> bool {
        self.with_key_shard(key, |e| e.touch(key, now, ttl))
    }

    /// Whether `key` is cached (no side effects).
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.with_key_shard(key, |e| e.contains(key))
    }

    /// Total cached items across shards (locked one at a time, so the
    /// count is a consistent-per-shard approximation under writes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no shard holds any item.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Total accounted bytes across shards.
    #[must_use]
    pub fn bytes_used(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().bytes_used()).sum()
    }

    /// Cumulative statistics: the sum of the shards' own counters,
    /// each shard locked in turn while its counters are copied. Like
    /// memcached's, they survive [`clear`](Self::clear) (`flush_all`).
    /// Must not be called from inside [`with_key_shard`](Self::with_key_shard):
    /// the shard locks are not reentrant.
    ///
    /// # Consistency contract
    ///
    /// Shards are read one after another, so a snapshot taken
    /// mid-traffic is **not** a point-in-time cut. Two guarantees do
    /// hold, and telemetry relies on both:
    ///
    /// 1. **Per-counter monotonicity.** A shard's counters only grow,
    ///    and a later snapshot reads every shard after an earlier one
    ///    did, so for any single field successive snapshots never
    ///    decrease.
    /// 2. **Exactness per shard.** An operation runs under its shard's
    ///    lock, so a snapshot counts it entirely or not at all; once
    ///    the engine quiesces, every completed operation is reflected
    ///    exactly once.
    ///
    /// Cross-shard sums (e.g. `hits + misses == gets issued`) hold only
    /// at quiescence: a shard read early misses operations that land
    /// on it while later shards are read. Consumers (the server's
    /// `stats` command, the metrics registry) expose these values as
    /// independent monotone counters, which is exactly what
    /// scrape-based collectors expect.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .fold(CacheStats::default(), |mut sum, shard| {
                let s = shard.lock().stats();
                sum.hits += s.hits;
                sum.misses += s.misses;
                sum.sets += s.sets;
                sum.deletes += s.deletes;
                sum.evictions += s.evictions;
                sum.expired += s.expired;
                sum.rejected += s.rejected;
                sum
            })
    }

    /// Snapshot of the whole engine's digest. Shards are visited **one
    /// at a time**, each locked only while its slice of the counters is
    /// collapsed to bits (one word-parallel pass over `l·b / N` bits),
    /// so ongoing operations on other shards never wait on the
    /// snapshot; the slices are concatenated in shard order. The result
    /// is bit-identical to one whole filter of
    /// [`config().digest`](Self::config) fed the same keys.
    #[must_use]
    pub fn digest_snapshot(&self) -> BloomFilter {
        BloomFilter::concat(self.shards.iter().map(|s| s.lock().digest_snapshot()))
    }

    /// Estimated distinct-item count: the sum of the shards' own
    /// estimates, each read from its counters under its lock with no
    /// snapshot built. `None` if any shard's digest is saturated (no
    /// counter left at zero).
    #[must_use]
    pub fn digest_estimate(&self) -> Option<f64> {
        self.shards
            .iter()
            .map(|s| s.lock().digest().estimate_cardinality())
            .sum()
    }

    /// Merged slab-store snapshot across shards (per-class counters
    /// summed, shards locked one at a time), or `None` on the heap
    /// backend.
    #[must_use]
    pub fn slab_stats(&self) -> Option<SlabStats> {
        let mut merged: Option<SlabStats> = None;
        for shard in &self.shards {
            let snap = shard.lock().slab_stats()?;
            match &mut merged {
                Some(m) => m.merge(&snap),
                None => merged = Some(snap),
            }
        }
        merged
    }

    /// The shards' [`MemBytes`], summed, each read under its lock.
    #[must_use]
    pub fn mem_bytes(&self) -> MemBytes {
        self.shards
            .iter()
            .fold(MemBytes::default(), |mut sum, shard| {
                let m = shard.lock().mem_bytes();
                sum.slot_table += m.slot_table;
                sum.key_index += m.key_index;
                sum
            })
    }

    /// Empties every shard (one at a time).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Audits every shard's storage accounting (see
    /// [`CacheEngine::assert_storage_consistent`]), panicking on drift.
    pub fn assert_storage_consistent(&self) {
        for shard in &self.shards {
            shard.lock().assert_storage_consistent();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StorageKind;
    use proteus_bloom::BloomConfig;
    use std::sync::Arc;

    const T0: SimTime = SimTime::ZERO;

    fn config(capacity: u64, shards: usize) -> CacheConfig {
        CacheConfig::with_capacity(capacity)
            .item_overhead(0)
            .shards(shards)
            .digest(BloomConfig::new(1 << 14, 4, 4))
    }

    fn engine(capacity: u64, shards: usize) -> ShardedEngine {
        ShardedEngine::new(config(capacity, shards))
    }

    /// [`engine`] on the heap backend, whose reads are refcount bumps.
    fn heap_engine(capacity: u64, shards: usize) -> ShardedEngine {
        ShardedEngine::new(config(capacity, shards).storage(StorageKind::Heap))
    }

    /// A copy of `key`'s value, read without touching recency or stats.
    fn peek(c: &ShardedEngine, key: &[u8]) -> Option<Vec<u8>> {
        c.with_key_shard(key, |e| e.peek(key).map(<[u8]>::to_vec))
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(engine(1 << 20, 1).shard_count(), 1);
        assert_eq!(engine(1 << 20, 3).shard_count(), 4);
        assert_eq!(engine(1 << 20, 8).shard_count(), 8);
        assert_eq!(engine(1 << 20, 0).shard_count(), 1);
    }

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let c = engine(1 << 20, 8);
        let mut seen = vec![0usize; c.shard_count()];
        for i in 0..4096u64 {
            let key = i.to_le_bytes();
            assert_eq!(c.shard_of(&key), c.shard_of(&key));
            seen[c.shard_of(&key)] += 1;
        }
        for (shard, &count) in seen.iter().enumerate() {
            // 4096/8 = 512 expected; allow generous imbalance.
            assert!(count > 256, "shard {shard} got only {count} keys");
        }
    }

    #[test]
    fn basic_ops_roundtrip_across_shards() {
        let c = engine(1 << 20, 4);
        for i in 0..500u64 {
            c.put(&i.to_le_bytes(), i.to_string().into_bytes(), T0);
        }
        for i in 0..500u64 {
            assert_eq!(
                c.get(&i.to_le_bytes(), T0).as_deref(),
                Some(i.to_string().as_bytes())
            );
            assert!(c.contains(&i.to_le_bytes()));
        }
        assert_eq!(c.len(), 500);
        assert!(!c.is_empty());
        assert!(c.delete(&7u64.to_le_bytes()));
        assert!(!c.delete(&7u64.to_le_bytes()));
        assert_eq!(c.len(), 499);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes_used(), 0);
    }

    #[test]
    fn stats_sum_exactly_across_shards() {
        let c = engine(1 << 20, 8);
        for i in 0..300u64 {
            c.put(&i.to_le_bytes(), vec![0; 8], T0);
        }
        for i in 0..400u64 {
            let _ = c.get(&i.to_le_bytes(), T0);
        }
        for i in 0..100u64 {
            assert!(c.delete(&i.to_le_bytes()));
        }
        let s = c.stats();
        assert_eq!(s.sets, 300);
        assert_eq!(s.hits, 300);
        assert_eq!(s.misses, 100);
        assert_eq!(s.deletes, 100);
    }

    #[test]
    fn stats_are_exact_under_concurrency() {
        let c = Arc::new(engine(1 << 24, 8));
        let threads = 8;
        let per_thread = 2000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let key = (t * per_thread + i).to_le_bytes();
                        c.put(&key, vec![0; 16], T0);
                        assert!(c.get(&key, T0).is_some());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.sets, threads * per_thread);
        assert_eq!(s.hits, threads * per_thread);
        assert_eq!(c.len() as u64, threads * per_thread);
    }

    /// The documented consistency contract of [`ShardedEngine::stats`]:
    /// snapshots taken while writers hammer the engine may lag, but no
    /// counter ever moves backwards between successive reads.
    #[test]
    fn stats_snapshots_are_monotone_under_concurrent_load() {
        let c = Arc::new(engine(1 << 22, 8));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let c = Arc::clone(&c);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let key = ((t << 32) | (i % 4096)).to_le_bytes();
                        c.put(&key, vec![0; 16], T0);
                        let _ = c.get(&key, T0);
                        let _ = c.get(&((t << 32) | ((i + 1) % 8192)).to_le_bytes(), T0);
                        i += 1;
                    }
                })
            })
            .collect();
        let mut prev = c.stats();
        for _ in 0..2000 {
            let next = c.stats();
            for (field, a, b) in [
                ("hits", prev.hits, next.hits),
                ("misses", prev.misses, next.misses),
                ("sets", prev.sets, next.sets),
                ("deletes", prev.deletes, next.deletes),
                ("evictions", prev.evictions, next.evictions),
                ("expired", prev.expired, next.expired),
            ] {
                assert!(a <= b, "{field} went backwards: {a} -> {b}");
            }
            prev = next;
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn capacity_is_partitioned_and_never_exceeded() {
        let c = engine(8000, 4);
        for i in 0..2000u64 {
            c.put(&i.to_le_bytes(), vec![0; 50], T0);
            assert!(c.bytes_used() <= 8000, "over capacity at item {i}");
        }
        assert!(c.stats().evictions > 0, "pressure must evict");
    }

    /// The sharded digest is the whole partitioned one: the shards'
    /// slices, concatenated, equal one `partitions = N` filter that holds
    /// exactly what survived eviction and deletes.
    #[test]
    fn merged_snapshot_equals_unsharded_digest() {
        for shards in [1, 2, 4, 8, 16, 64] {
            // Too small for all 2000 items, so the digests also see
            // the removes of evictions.
            let config = CacheConfig::with_capacity(1 << 15)
                .item_overhead(0)
                .digest(BloomConfig::new((1 << 14) + 21, 3, 4));
            let sharded = ShardedEngine::new(config.shards(shards));
            for i in 0..2000u64 {
                sharded.put(&i.to_le_bytes(), vec![0; 16], T0);
            }
            assert!(sharded.stats().evictions > 0);
            for i in (0..2000u64).step_by(3) {
                sharded.delete(&i.to_le_bytes());
            }
            // The unsharded twin holds exactly what survived, in one
            // filter of the resolved (partitioned) shape.
            let resolved = sharded.config().digest;
            assert_eq!(resolved.partitions, shards);
            let mut single = CacheEngine::new(CacheConfig {
                capacity_bytes: 1 << 20,
                digest: resolved,
                ..config
            });
            let mut resident = 0;
            for i in 0..2000u64 {
                if sharded.contains(&i.to_le_bytes()) {
                    single.put(&i.to_le_bytes(), vec![0; 16], T0);
                    resident += 1;
                }
            }
            let snapshot = sharded.digest_snapshot();
            assert_eq!(snapshot, single.digest_snapshot(), "{shards} shards");
            assert_eq!(snapshot.config(), single.digest_snapshot().config());
            let est = sharded.digest_estimate().unwrap();
            let resident = f64::from(resident);
            assert!((est - resident).abs() / resident < 0.05, "estimate {est}");
        }
    }

    #[test]
    fn a_key_lives_in_the_shard_of_its_digest_partition() {
        for shards in [1, 2, 4, 8, 16, 32, 64] {
            let c = engine(1 << 20, shards);
            for i in 0..2048u64 {
                let key = i.to_le_bytes();
                assert_eq!(c.shard_of(&key), partition_of(&key, shards));
            }
            assert_eq!(c.shard_of(b""), partition_of(b"", shards));
        }
    }

    /// The shards hold the digest's `l·b` bits between them, not a copy
    /// each: within a word a shard of the resolved configuration's size,
    /// which is itself within a word a shard of the configured one.
    #[test]
    fn digest_memory_is_one_digest_not_one_per_shard() {
        let configured = CacheConfig::with_capacity(64 << 20).digest;
        assert_eq!(configured.counters, 622_017);
        for shards in [1, 2, 4, 8, 16, 32, 64] {
            let c = ShardedEngine::new(CacheConfig::with_capacity(64 << 20).shards(shards));
            let resolved = c.config().digest;
            let held: u64 = c
                .shards
                .iter()
                .map(|s| s.lock().digest().config().memory_bytes())
                .sum();
            let slack = 8 * shards as u64;
            assert!(
                held.abs_diff(resolved.memory_bytes()) <= slack,
                "{shards} shards hold {held} B, resolved {resolved:?}"
            );
            let rounding = u64::from(resolved.counter_bits) * slack;
            assert!(
                resolved.memory_bytes() - configured.memory_bytes() <= rounding,
                "{shards} shards: {resolved:?}"
            );
            assert_eq!(
                c.digest_snapshot().config(),
                BloomFilter::new(resolved).config()
            );
        }
    }

    /// A snapshot locks one shard at a time: while it waits for a shard
    /// somebody else holds, writers to every other shard keep going.
    #[test]
    fn snapshot_waiting_on_one_shard_blocks_no_other() {
        use std::sync::mpsc;
        use std::time::Duration;
        let c = Arc::new(engine(1 << 22, 8));
        c.put(b"before", vec![1], T0);
        let held = c.shard_count() - 1;
        let elsewhere: Vec<[u8; 8]> = (0..u64::MAX)
            .map(u64::to_le_bytes)
            .filter(|key| c.shard_of(key) != held)
            .take(4096)
            .collect();
        // The snapshot cannot finish while this guard lives.
        let guard = c.shards[held].lock();
        let (started, has_started) = mpsc::channel();
        let snapshot = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                started.send(()).unwrap();
                c.digest_snapshot()
            })
        };
        has_started.recv().unwrap();
        let (done, is_done) = mpsc::channel();
        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for key in &elsewhere {
                    c.put(key, vec![0; 16], T0);
                }
                done.send(()).unwrap();
            })
        };
        // A snapshot that kept the shards it had visited locked would
        // leave the writer stuck behind it until the guard drops.
        is_done
            .recv_timeout(Duration::from_secs(30))
            .expect("puts to unlocked shards must not wait for the snapshot");
        assert!(!snapshot.is_finished(), "the held shard is still locked");
        drop(guard);
        writer.join().unwrap();
        assert!(snapshot.join().unwrap().contains(b"before"));
    }

    #[test]
    fn mru_pages_concatenate_to_each_shards_key_order() {
        let c = engine(1 << 20, 4);
        for i in 0..300u64 {
            c.put(&i.to_le_bytes(), vec![0; 8], T0);
        }
        // Stir the recency order so it is not the insertion order.
        for i in (0..300u64).step_by(7) {
            assert!(c.get(&i.to_le_bytes(), T0).is_some());
        }
        let before = c.stats();
        let mut listed = 0;
        for shard in 0..c.shard_count() {
            let whole: Vec<Vec<u8>> = c.shards[shard].lock().keys().map(<[u8]>::to_vec).collect();
            let mut paged: Vec<Vec<u8>> = Vec::new();
            for limit in [7, 64] {
                paged.clear();
                loop {
                    let page = c
                        .mru_page(shard, paged.len(), limit, |keys| {
                            keys.map(<[u8]>::to_vec).collect::<Vec<_>>()
                        })
                        .expect("shard in range");
                    let short = page.len() < limit;
                    paged.extend(page);
                    if short {
                        break;
                    }
                }
                assert_eq!(paged, whole, "shard {shard}, pages of {limit}");
            }
            // Past the end the page is empty, not an error.
            assert_eq!(
                c.mru_page(shard, whole.len(), 7, |keys| keys.count()),
                Some(0)
            );
            assert!(whole.iter().all(|key| c.shard_of(key) == shard));
            listed += whole.len();
        }
        assert_eq!(listed, 300, "every key is in exactly one shard's walk");
        assert_eq!(c.mru_page(c.shard_count(), 0, 7, |keys| keys.count()), None);
        assert_eq!(c.stats(), before, "listing is not a cache read");
        // The hottest key of its shard is the one touched last.
        let last = 294u64.to_le_bytes();
        let first = c.mru_page(c.shard_of(&last), 0, 1, |mut keys| {
            keys.next().map(<[u8]>::to_vec)
        });
        assert_eq!(first, Some(Some(last.to_vec())));
    }

    #[test]
    fn expiry_and_sweep_work_per_shard() {
        let c = engine(1 << 20, 4);
        let ttl = SimDuration::from_secs(10);
        for i in 0..100u64 {
            c.put_with_expiry(&i.to_le_bytes(), vec![0; 8], T0, Some(ttl));
        }
        for i in 100..200u64 {
            c.put(&i.to_le_bytes(), vec![0; 8], T0);
        }
        let later = T0 + SimDuration::from_secs(11);
        let swept: u64 = (0..c.shards.len())
            .map(|i| c.with_shard(i, |e| e.sweep_expired(later)))
            .sum();
        assert_eq!(swept, 100);
        assert_eq!(c.len(), 100);
        assert_eq!(c.stats().expired, 100);
        // Lazy expiry path through get() as well.
        let c2 = engine(1 << 20, 4);
        c2.put_with_expiry(b"gone", vec![1], T0, Some(ttl));
        assert_eq!(c2.get(b"gone", later), None);
        assert_eq!(c2.stats().expired, 1);
    }

    #[test]
    fn touch_and_peek_do_not_disturb_stats() {
        let c = engine(1 << 20, 4);
        c.put(b"k", vec![1, 2], T0);
        let before = c.stats();
        assert!(c.touch(b"k", T0, None));
        assert!(!c.touch(b"missing", T0, None));
        assert_eq!(peek(&c, b"k").as_deref(), Some(&[1u8, 2][..]));
        assert_eq!(peek(&c, b"missing"), None);
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn heap_get_is_a_refcount_bump_not_a_copy() {
        let c = heap_engine(1 << 20, 4);
        let stored: SharedBytes = SharedBytes::from(vec![7u8; 128]);
        c.put(b"k", SharedBytes::clone(&stored), T0);
        let a = c.get(b"k", T0).unwrap();
        let b = c.get(b"k", T0).unwrap();
        assert!(
            stored.as_ptr() == a.as_ptr() && a.as_ptr() == b.as_ptr(),
            "shared puts and gets must alias one allocation"
        );
        assert_eq!(peek(&c, b"k").map(|v| v.len()), Some(128));
    }

    #[test]
    fn slab_backend_roundtrips_and_reports_merged_stats() {
        let c = ShardedEngine::new(config(1 << 20, 4).slab_page_bytes(4096));
        for i in 0..500u64 {
            c.put(&i.to_le_bytes(), i.to_string().into_bytes(), T0);
        }
        for i in 0..500u64 {
            assert_eq!(
                c.get(&i.to_le_bytes(), T0).as_deref(),
                Some(i.to_string().as_bytes())
            );
        }
        let slab = c.slab_stats().expect("slab backend");
        assert_eq!(slab.classes.iter().map(|cl| cl.items).sum::<u64>(), 500);
        assert!(slab.pages_allocated > 0);
        assert!(slab.page_bytes_total() >= slab.live_bytes());
        assert_eq!(heap_engine(1 << 20, 4).slab_stats(), None, "heap backend");
    }

    #[test]
    fn with_key_shard_makes_compound_ops_atomic() {
        let c = Arc::new(engine(1 << 20, 8));
        c.put(b"counter", b"0".to_vec(), T0);
        let threads = 8;
        let per_thread = 500u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.with_key_shard(b"counter", |e| {
                            let v: u64 = std::str::from_utf8(e.peek(b"counter").unwrap())
                                .unwrap()
                                .parse()
                                .unwrap();
                            e.put(b"counter", (v + 1).to_string().into_bytes(), T0);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            peek(&c, b"counter").as_deref(),
            Some((threads * per_thread).to_string().as_bytes())
        );
    }
}
