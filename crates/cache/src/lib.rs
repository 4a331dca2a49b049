//! The cache-server engine: a memcached-like LRU key-value store whose
//! Bloom filter digest is built from its key index on demand.
//!
//! This is the reproduction's analogue of the paper's modified
//! memcached (Section V-A3), with one deviation. The paper keeps a
//! counting filter in step with every item link and unlink; here a
//! write touches no digest, and a snapshot sets the bits of the keys
//! resident when it is built. Either way the broadcast digest is
//! exactly the cache's contents at snapshot time — the property
//! Algorithm 2 depends on — and a built one has no counter to saturate.
//!
//! [`CacheEngine`] is deliberately single-threaded and deterministic;
//! the discrete-event simulator drives one engine per simulated cache
//! server. The TCP tier (`proteus-net`) uses [`ShardedEngine`], which
//! stripes keys across independent per-shard engines so concurrent
//! connections rarely contend, sums the shards' own statistics on
//! demand, and builds digest snapshots one shard at a time.
//!
//! # Example
//!
//! ```
//! use proteus_cache::{CacheConfig, CacheEngine};
//! use proteus_sim::SimTime;
//!
//! let mut cache = CacheEngine::new(CacheConfig::with_capacity(1 << 20));
//! let t = SimTime::ZERO;
//! cache.put(b"page:1", vec![0u8; 4096], t);
//! assert!(cache.get(b"page:1", t).is_some());
//! assert!(cache.digest_snapshot().contains(b"page:1"));
//! cache.delete(b"page:1");
//! assert!(!cache.digest_snapshot().contains(b"page:1"));
//! ```

// One `madvise` call in `slab` (a pooled page's memory back to the
// kernel) is the only unsafe code in the crate, in one module that
// carries `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod config;
mod engine;
mod index;
mod sharded;
mod slab;
mod stats;

pub use bytes::SharedBytes;
pub use config::{CacheConfig, StorageKind};
pub use engine::{CacheEngine, Keys, StoreOutcome};
pub use sharded::{MruPage, ShardedEngine};
pub use slab::{SlabClassStats, SlabStats};
pub use stats::{CacheStats, MemBytes};
