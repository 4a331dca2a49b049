//! Cache statistics counters.

/// Cumulative operation counters for one cache engine, in the spirit
/// of memcached's `stats` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// `get` calls that found the key.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// `put` calls (inserts and updates).
    pub sets: u64,
    /// Explicit `delete` calls that removed a key.
    pub deletes: u64,
    /// Items evicted by the LRU policy to make room.
    pub evictions: u64,
    /// Items reaped after their expiry time (lazy or swept).
    pub expired: u64,
    /// Stores rejected because the item could never fit the shard's
    /// capacity budget (memcached's `SERVER_ERROR object too large`).
    pub rejected: u64,
}

impl CacheStats {
    /// Total `get` calls.
    #[must_use]
    pub fn gets(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio over all `get`s, or 0 if none have happened.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let gets = self.gets();
        if gets == 0 {
            0.0
        } else {
            self.hits as f64 / gets as f64
        }
    }
}

/// Bytes an engine's bookkeeping holds, one field a structure: what a
/// server exports as `proteus_mem_bytes{component=…}`. Item bytes are
/// not here; the slab's are in [`SlabStats`](crate::SlabStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemBytes {
    /// The slot table's blocks, filled or not: 32 B a slot, 1 024
    /// slots a block.
    pub slot_table: u64,
    /// The key index's bucket table: 4 B a bucket.
    pub key_index: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_handles_empty_and_counts() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.hits = 3;
        s.misses = 1;
        s.expired = 2;
        assert_eq!(s.gets(), 4);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }
}
