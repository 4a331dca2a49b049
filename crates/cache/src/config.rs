//! Cache-engine configuration.

use proteus_bloom::BloomConfig;

/// Which value-storage backend a [`CacheEngine`](crate::CacheEngine)
/// places item bytes in.
///
/// `Slab`, the default, packs items into size-classed pages (sized to
/// the engine's capacity, see [`CacheConfig::slab_page_bytes`]) so a
/// server's footprint tracks the capacity it is provisioned by
/// (DESIGN.md §12); the server binary, the simulator and the examples
/// all run it. `Heap` is one allocation per value, kept for three
/// jobs: it is the correctness oracle `storage_equivalence` and
/// `slab_churn` diff the slab against; it is the path a value over
/// one page, or with lengths that do not pack into a slot, takes
/// inside the slab backend; and it is an ideal byte-budget LRU, which
/// the slab is only while its pages outlast its byte budget.
///
/// The two keep the same accounting, digest and eviction order, and
/// are proptest-equivalent (`tests/storage_equivalence.rs`). Item for
/// item they agree only while no set finds its size class starved of
/// pages (`proteus_slab_starved_sets_total` reads 0): a starved set
/// evicts from its own class, so on a wide mix of sizes the resident
/// set drifts (DESIGN.md §12's replay keeps 22 031 items against the
/// heap's 22 027).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// One heap allocation per item: the oracle and the fallback path.
    Heap,
    /// Memcached-style slab pages with ×1.125-growth size classes.
    #[default]
    Slab,
}

/// Configuration for a [`CacheEngine`](crate::CacheEngine).
///
/// The paper's deployment gives each memcached server 1 GB for 4 KB
/// page objects (Fig. 6 tunes this). The paper's hot-data TTL is the
/// length of a transition window, so it is configured where windows
/// are timed (the simulator's cluster configuration, the live
/// controller's drain), not in the engine.
///
/// # Example
///
/// ```
/// use proteus_cache::CacheConfig;
///
/// let cfg = CacheConfig::with_capacity(1 << 30);
/// assert_eq!(cfg.capacity_bytes, 1 << 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum bytes of key+value payload (plus per-item overhead)
    /// held before LRU eviction kicks in.
    pub capacity_bytes: u64,
    /// Accounted per-item metadata overhead, mirroring memcached's
    /// item-header cost. Each stored item is charged
    /// `key.len() + value.len() + item_overhead` against
    /// `capacity_bytes`; the default 64 covers the engine's real
    /// bookkeeping — a 32-byte slot (location word 8, hash 4, packed
    /// key and value lengths 4, expiry 8, two LRU links 8) plus 5–9
    /// bytes of index bucket at its 7/8 maximum load — with slack to
    /// spare (up to ⅛ of the item lost to chunk rounding on the slab),
    /// so the configured budget tracks actual memory even for tiny
    /// items.
    pub item_overhead: u32,
    /// Value-storage backend (see [`StorageKind`]).
    pub storage: StorageKind,
    /// Page size for [`StorageKind::Slab`], in bytes. `0` (the
    /// default) derives it from the capacity the engine is built with
    /// — per shard, under a [`ShardedEngine`](crate::ShardedEngine) —
    /// as the largest power of two ≤ capacity / 128, clamped to
    /// 4 KiB ..= 1 MiB: 64 KiB for the server's default 8 MiB shard,
    /// 1 MiB for the paper's 1 GB server. Half a page of unfilled tail
    /// in every size class then fits inside the slack
    /// `slab_page_budget` grants, so the byte budget, not the page
    /// count, is what fills first. Any other value is taken as given
    /// (clamped to ≥ 1 KiB). Items larger than one page go to the heap
    /// path. Ignored by [`StorageKind::Heap`].
    pub slab_page_bytes: u32,
    /// Hard page-count budget for [`StorageKind::Slab`]. `0` (the
    /// default) derives the budget from `capacity_bytes`: 1.3× the
    /// accounted capacity, which covers size-class rounding at the
    /// default `item_overhead`. Set explicitly when payload accounting
    /// and physical layout diverge badly and the slab should never run
    /// out of pages before LRU eviction frees them. Tiny items at
    /// `item_overhead = 0` are that case: a 9-byte item is charged 9
    /// bytes but fills a 64-byte chunk, so the derived budget runs out
    /// long before the byte budget does. A test that wants an ideal
    /// byte-budget LRU of such items (the Che cross-check in
    /// `proteus-workload`) runs [`StorageKind::Heap`], which ignores
    /// this.
    pub slab_page_budget: u64,
    /// The broadcast digest's shape: `l` bits, `h` hashes and the seed.
    /// The engine builds the digest from its keys when asked, so it
    /// keeps no counters and ignores `counter_bits`.
    pub digest: BloomConfig,
    /// Number of independent shards a
    /// [`ShardedEngine`](crate::ShardedEngine) splits the capacity
    /// into (rounded up to a power of two, minimum 1). A plain
    /// [`CacheEngine`](crate::CacheEngine) ignores this.
    pub shards: usize,
}

impl CacheConfig {
    /// A configuration with the given payload capacity and defaults
    /// matching the paper's evaluation: 64-byte item overhead, slab
    /// storage with pages derived from the capacity, and a digest
    /// sized for the item count the capacity implies at 4 KB objects
    /// (h = 4, as in Section VI-B). Name [`StorageKind::Heap`] only to
    /// get the oracle or an ideal byte-budget LRU.
    #[must_use]
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        let expected_items = (capacity_bytes / 4096).max(1024);
        CacheConfig {
            capacity_bytes,
            item_overhead: 64,
            digest: BloomConfig::optimal(expected_items, 4, 1e-4, 1e-4),
            shards: 8,
            storage: StorageKind::Slab,
            slab_page_bytes: 0,
            slab_page_budget: 0,
        }
    }

    /// Sets the digest configuration (builder style).
    #[must_use]
    pub fn digest(mut self, digest: BloomConfig) -> Self {
        self.digest = digest;
        self
    }

    /// Sets the per-item accounting overhead (builder style).
    #[must_use]
    pub fn item_overhead(mut self, overhead: u32) -> Self {
        self.item_overhead = overhead;
        self
    }

    /// Sets the shard count for sharded engines (builder style).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the value-storage backend (builder style).
    #[must_use]
    pub fn storage(mut self, storage: StorageKind) -> Self {
        self.storage = storage;
        self
    }

    /// Sets the slab page size in bytes, overriding the derivation
    /// from the capacity (builder style; slab backend only, `0` =
    /// derive).
    #[must_use]
    pub fn slab_page_bytes(mut self, bytes: u32) -> Self {
        self.slab_page_bytes = bytes;
        self
    }

    /// Sets an explicit slab page budget, overriding the 1.3×-capacity
    /// derivation (builder style; slab backend only, `0` = derive).
    #[must_use]
    pub fn slab_page_budget(mut self, pages: u64) -> Self {
        self.slab_page_budget = pages;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let cfg = CacheConfig::with_capacity(1 << 30);
        assert!(cfg.digest.counters > 0);
        // Digest sized for ~262k items at 4 KB each.
        assert!(cfg.digest.counters > 262_144);
    }

    #[test]
    fn builders_apply() {
        let digest = BloomConfig::new(1024, 4, 4);
        let cfg = CacheConfig::with_capacity(1 << 16)
            .item_overhead(0)
            .shards(4)
            .digest(digest);
        assert_eq!(cfg.item_overhead, 0);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.digest, digest);
    }

    #[test]
    fn storage_defaults_to_slab_and_builds_to_heap() {
        assert_eq!(StorageKind::default(), StorageKind::Slab);
        let cfg = CacheConfig::with_capacity(1 << 20);
        assert_eq!(cfg.storage, StorageKind::Slab);
        assert_eq!(cfg.slab_page_bytes, 0, "derived from the capacity");
        let cfg = cfg.slab_page_bytes(1 << 16).storage(StorageKind::Heap);
        assert_eq!(cfg.storage, StorageKind::Heap);
        assert_eq!(cfg.slab_page_bytes, 1 << 16);
    }
}
