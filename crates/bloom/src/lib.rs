//! Bloom-filter cache digests for smooth provisioning transitions.
//!
//! Section IV of the Proteus paper (ICDCS 2013) gives each cache
//! server a **counting Bloom filter** tracking its in-cache keys. At a
//! provisioning transition the digests are broadcast to the web tier,
//! which uses them (Algorithm 2) to decide whether a missing object is
//! still "hot" on its old server — migrating it on demand — or must be
//! fetched from the database.
//!
//! This crate provides:
//!
//! - [`CountingBloomFilter`] — `l` packed `b`-bit counters with `h`
//!   hash functions, supporting insert *and* delete (kept in sync with
//!   the cache's item link/unlink path), with a choice of
//!   [`OverflowPolicy`]: saturating (the safe system default) or
//!   wrapping (the behaviour Eq. 5's false-negative analysis models).
//! - [`BloomFilter`] — a plain bit-array filter, used as the compact
//!   broadcast form of a digest ("a few KB each", Section IV-A).
//! - [`BloomConfig::with_partitions`] / [`partition_of`] /
//!   [`BloomFilter::concat`] — a digest split into `P` equal slices, a
//!   key hashing inside one of them only, so a sharded cache keeps one
//!   slice per shard (`l·b` bits in all, as Eq. 10 provisions) and
//!   broadcasts their concatenation.
//! - [`DigestSnapshot`] — the serialized wire form exchanged via the
//!   paper's `SET_BLOOM_FILTER` / `BLOOM_FILTER` protocol keys.
//! - [`config`] — the Eq. 4 false-positive and Eq. 5 false-negative
//!   predictors and the Eq. 10 memory-optimal `(l, b)` solver, with an
//!   in-repo Lambert-W implementation.
//!
//! # Example
//!
//! ```
//! use proteus_bloom::{BloomConfig, CountingBloomFilter};
//!
//! // Configure for 10,000 keys, 4 hashes, 10^-4 error bounds — the
//! // paper's worked example, which lands on b = 3, ~150 KB.
//! let cfg = BloomConfig::optimal(10_000, 4, 1e-4, 1e-4);
//! assert_eq!(cfg.counter_bits, 3);
//!
//! let mut digest = CountingBloomFilter::new(cfg);
//! digest.insert(b"Main_Page");
//! assert!(digest.contains(b"Main_Page"));
//! digest.remove(b"Main_Page");
//! assert!(!digest.contains(b"Main_Page"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod counting;
mod filter;
mod indexing;
mod snapshot;

pub use config::BloomConfig;
pub use counting::{CountingBloomFilter, OverflowPolicy};
pub use filter::BloomFilter;
pub use indexing::partition_of;
pub use snapshot::{DigestSnapshot, SnapshotError};
