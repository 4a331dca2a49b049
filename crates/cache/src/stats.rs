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
