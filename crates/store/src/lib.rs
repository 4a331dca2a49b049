//! The database tier: a sharded backing store.
//!
//! The paper's deployment stores the 70 GB English Wikipedia dump
//! horizontally partitioned over 7 MySQL servers; each fetch walks a
//! three-table chain (`page` → `page_latest` → `rev_text_id` →
//! `old_text`). We substitute a deterministic synthetic store: page
//! content is generated on demand from the key (so no 70 GB dump is
//! needed), sharding and the 3-stage lookup structure are preserved,
//! and explicit writes can overlay the generated content (used by the
//! TCP tier's tests).
//!
//! Latency/queueing belongs to the cluster simulation (`proteus-core`),
//! which wraps each shard in a connection-pool `Resource`
//! (from `proteus-sim`); this crate models *placement
//! and content* only.
//!
//! # Example
//!
//! ```
//! use proteus_store::{ShardedStore, StoreConfig};
//!
//! let mut store = ShardedStore::new(StoreConfig::default());
//! let v = store.fetch(b"page:42");
//! assert_eq!(v.len(), 4096);
//! // Deterministic: the same key always yields the same bytes.
//! assert_eq!(store.fetch(b"page:42"), v);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod content;
mod sharded;

pub use content::{content_size_for, generate_page_content};
pub use sharded::{ShardId, ShardStats, ShardedStore, StoreConfig};
