//! Real-socket deployment of the Proteus cache tier.
//!
//! The discrete-event simulator (`proteus-core`) reproduces the
//! paper's *measurements*; this crate demonstrates the *protocol* end
//! to end on live TCP sockets, mirroring the paper's implementation
//! section:
//!
//! - [`CacheServer`] — a cache server wrapping a lock-striped
//!   [`proteus_cache::ShardedEngine`] (no global engine mutex),
//!   speaking a memcached-flavoured text protocol (`get` / multi-key
//!   `get k1 k2 ...` / `set` / `delete` / `stats` / `quit`). One
//!   connection state machine frames and answers the byte stream;
//!   two data planes, selected by [`ServerConfig`], drive it: a
//!   non-blocking **epoll reactor** (the Linux default — a handful of
//!   event-loop threads absorb thousands of mostly-idle web-tier
//!   connections) and the portable thread-per-connection plane (the
//!   only one off Linux).
//!   Like the paper's modified memcached, the reserved keys
//!   `SET_BLOOM_FILTER` and `BLOOM_FILTER` snapshot and retrieve the
//!   server's digest **through the ordinary data protocol**, so any
//!   stock client library can fetch digests; the snapshot is built one
//!   shard at a time and never stalls unrelated traffic.
//! - [`CacheClient`] — a blocking client with connection pooling
//!   (the paper pools connections via Apache Commons Pool) and
//!   multi-key gets ([`get_many`](CacheClient::get_many)).
//! - [`ClusterClient`] — the web-tier side: consistent routing over
//!   any [`PlacementStrategy`](proteus_ring::PlacementStrategy) plus
//!   Algorithm 2 retrieval against live servers with a pluggable
//!   database fallback.
//! - **Fault tolerance** — a power policy turns cache servers off
//!   mid-traffic, so unreachable servers are the common case, not an
//!   exception. Each [`CacheClient`] retries transport failures with
//!   jittered exponential backoff, reconnects broken pooled
//!   connections, and trips a per-server circuit breaker
//!   ([`ClientConfig`]); the [`ClusterClient`] degrades failed fetches
//!   to the database ([`ClusterFetch::Degraded`]) instead of erroring.
//!   [`FaultProxy`] is a TCP fault-injection forwarder for exercising
//!   these paths in integration tests and benches.
//!
//! # Example
//!
//! ```no_run
//! use proteus_cache::CacheConfig;
//! use proteus_net::{CacheClient, CacheServer};
//!
//! let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20))?;
//! let client = CacheClient::connect(server.addr())?;
//! client.set(b"k", b"v")?;
//! assert_eq!(client.get(b"k")?.as_deref(), Some(&b"v"[..]));
//! server.stop();
//! # Ok::<(), proteus_net::NetError>(())
//! ```

// `deny` (not `forbid`) so the one FFI module can opt back in: the
// epoll/eventfd bindings in `poll` are the only unsafe code in the
// crate, and carry `#[allow(unsafe_code)]` at each use site.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod cluster_client;
mod conn;
mod error;
mod fault;
#[cfg(target_os = "linux")]
mod poll;
mod protocol;
#[cfg(target_os = "linux")]
mod reactor;
mod server;

pub use client::{CacheClient, ClientConfig, ClientStats};
pub use cluster_client::{
    ClusterClient, ClusterFetch, ClusterStats, DbFallback, PullProgress, PullState,
    TransitionStatus,
};
pub use error::NetError;
pub use fault::{FaultMode, FaultProxy};
pub use protocol::{
    mru_keys_key, parse_raw_command, read_response_buffered, write_command_unflushed,
    write_response_unflushed, RawCommand, Response, ResponseWriter, ValueItem, WireBuf, DIGEST_KEY,
    DIGEST_SNAPSHOT_KEY, MAX_GET_KEYS, MRU_KEYS_PAGE, MRU_KEYS_PREFIX, PULL_BATCH,
};
pub use server::{CacheServer, EngineKind, ServerConfig, ServerMetrics};

/// Always `false`: there is no io_uring plane (DESIGN.md §14 has the
/// measurement that removed it), so an [`EngineKind::Uring`] request
/// runs the [`EngineKind::Reactor`]. It stays so that code which
/// asked it before measuring io_uring keeps compiling, and skips that
/// measurement.
#[must_use]
pub fn uring_supported() -> bool {
    false
}

/// Re-export of the shared value-buffer type the wire layer hands out
/// (see [`proteus_cache::SharedBytes`]).
pub use proteus_cache::SharedBytes;
