//! Sharded store placement and statistics.

use std::collections::HashMap;
use std::fmt;

use proteus_ring::hash::KeyHasher;

use crate::content::generate_page_content;

/// Identity of a database shard (one "MySQL server").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(u32);

impl ShardId {
    /// Zero-based shard index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "db{}", self.0)
    }
}

/// Per-shard query counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Fetches served by this shard.
    pub fetches: u64,
    /// Explicit writes stored on this shard.
    pub writes: u64,
}

/// Configuration for [`ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of shards; the paper uses 7 non-overlapping MySQL shards.
    pub shards: usize,
    /// Size of generated page objects; the paper treats pages as 4 KB
    /// fixed-size units (Section II's equal-object-size assumption).
    pub object_size: usize,
    /// Seed of the key→shard hash.
    pub placement_seed: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 7,
            object_size: 4096,
            placement_seed: 0x570_12e5,
        }
    }
}

/// The sharded backing store: deterministic generated content with an
/// explicit-write overlay, partitioned by key hash over `shards`
/// shards.
///
/// Every fetch conceptually performs the paper's three sequential
/// index lookups, `page → page_latest → rev_text_id → old_text`
/// (Section V-A4).
///
/// # Example
///
/// ```
/// use proteus_store::{ShardedStore, StoreConfig};
/// let mut store = ShardedStore::new(StoreConfig { shards: 7, ..StoreConfig::default() });
/// let shard = store.shard_of(b"page:1");
/// assert!(shard.index() < 7);
/// let _ = store.fetch(b"page:1");
/// assert_eq!(store.shard_stats()[shard.index()].fetches, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedStore {
    config: StoreConfig,
    hasher: KeyHasher,
    overlay: HashMap<Vec<u8>, Vec<u8>>,
    stats: Vec<ShardStats>,
}

impl ShardedStore {
    /// Creates a store.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `object_size == 0`.
    #[must_use]
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.object_size > 0, "object size must be positive");
        ShardedStore {
            config,
            hasher: KeyHasher::new(config.placement_seed),
            overlay: HashMap::new(),
            stats: vec![ShardStats::default(); config.shards],
        }
    }

    /// The shard holding `key` (`hash mod shards` — the paper's
    /// horizontal partitioning).
    #[must_use]
    pub fn shard_of(&self, key: &[u8]) -> ShardId {
        ShardId((self.hasher.hash_bytes(key) % self.config.shards as u64) as u32)
    }

    /// Fetches the value for `key`: the overlay value if one was
    /// written, else deterministically generated page content.
    pub fn fetch(&mut self, key: &[u8]) -> Vec<u8> {
        let shard = self.shard_of(key);
        self.stats[shard.index()].fetches += 1;
        self.overlay
            .get(key)
            .cloned()
            .unwrap_or_else(|| generate_page_content(key, self.config.object_size))
    }

    /// Writes an explicit value, overriding generated content.
    pub fn write(&mut self, key: &[u8], value: Vec<u8>) {
        let shard = self.shard_of(key);
        self.stats[shard.index()].writes += 1;
        self.overlay.insert(key.to_vec(), value);
    }

    /// Per-shard statistics, indexed by shard.
    #[must_use]
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// Total fetches across all shards.
    #[must_use]
    pub fn total_fetches(&self) -> u64 {
        self.stats.iter().map(|s| s.fetches).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_is_deterministic_and_balanced() {
        let store = ShardedStore::new(StoreConfig::default());
        let mut counts = vec![0u32; 7];
        for i in 0..70_000u64 {
            let key = format!("page:{i}").into_bytes();
            let s = store.shard_of(&key);
            assert_eq!(s, store.shard_of(&key));
            counts[s.index()] += 1;
        }
        for &c in &counts {
            let dev = (f64::from(c) - 10_000.0).abs() / 10_000.0;
            assert!(dev < 0.05, "shard count {c}");
        }
    }

    #[test]
    fn fetch_returns_object_size_content() {
        let mut store = ShardedStore::new(StoreConfig::default());
        let v = store.fetch(b"page:1");
        assert_eq!(v.len(), 4096);
        assert_eq!(store.fetch(b"page:1"), v, "deterministic");
    }

    #[test]
    fn overlay_overrides_generated_content() {
        let mut store = ShardedStore::new(StoreConfig::default());
        store.write(b"page:1", b"edited".to_vec());
        assert_eq!(store.fetch(b"page:1"), b"edited");
        assert_eq!(store.fetch(b"page:2").len(), 4096);
    }

    #[test]
    fn stats_track_per_shard_traffic() {
        let mut store = ShardedStore::new(StoreConfig {
            shards: 3,
            ..StoreConfig::default()
        });
        for i in 0..300u64 {
            let _ = store.fetch(format!("k{i}").as_bytes());
        }
        assert_eq!(store.total_fetches(), 300);
        assert!(store.shard_stats().iter().all(|s| s.fetches > 50));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedStore::new(StoreConfig {
            shards: 0,
            ..StoreConfig::default()
        });
    }
}
