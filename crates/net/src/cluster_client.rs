//! The web-tier cluster client: Algorithm 2 over live TCP servers,
//! degrading to the database when cache servers fail. The window and
//! the decision are `proteus-core`'s; the submodules drive them over
//! sockets (`routing`) and broadcast digests when a window opens
//! (`transition`). Beside Algorithm 2, `pull` moves an open window's
//! keys in the background.

mod pull;
mod routing;
mod transition;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use proteus_core::{FetchClass, Router, TransitionManager};
use proteus_obs::{
    trace_metrics, EventTracer, FetchClassKind, FetchLatencies, Metric, MetricSource,
};
use proteus_ring::{PlacementStrategy, ServerId};
use proteus_store::ShardedStore;

use crate::client::{CacheClient, ClientConfig};
use crate::error::NetError;

pub use pull::{PullProgress, PullState};
pub use transition::TransitionStatus;

/// The authoritative backing store a [`ClusterClient`] falls back to
/// when data is not in cache.
///
/// Implemented for [`ShardedStore`] out of the box; applications plug
/// in their own databases.
pub trait DbFallback {
    /// Fetches `key` from the authoritative store.
    ///
    /// # Errors
    ///
    /// Implementations surface their own transport failures as
    /// [`NetError`].
    fn fetch(&self, key: &[u8]) -> Result<Vec<u8>, NetError>;
}

impl DbFallback for Mutex<ShardedStore> {
    fn fetch(&self, key: &[u8]) -> Result<Vec<u8>, NetError> {
        Ok(self.lock().fetch(key))
    }
}

/// How a [`ClusterClient::fetch`] was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterFetch {
    /// Hit at the key's new-mapping server.
    Hit,
    /// Migrated on demand from the old server during a transition.
    Migrated,
    /// Fetched from the backing store (ordinary miss).
    Database,
    /// Fetched from the backing store because a cache server was
    /// unreachable: the paper's failure model — a dead cache reads as
    /// a miss, never as an outage. Counted separately so callers and
    /// benches can see failure-induced database load.
    Degraded,
    /// Fetched from the backing store after the old server's digest
    /// claimed the key but the old server missed: a Bloom-filter false
    /// positive (or a racing eviction on the departing server). The
    /// request pays one wasted cache round trip on top of the DB
    /// fetch, which is exactly the cost the paper's digest sizing
    /// trades against — so it gets its own class.
    FalsePositive,
    /// Never produced. It named a hit at a non-home replica of a hot
    /// key, from the client-side replication that is gone (DESIGN.md
    /// §13); the variant stays so code that matches it by name still
    /// compiles, and it is counted as a [`Hit`](Self::Hit).
    ReplicaHit,
}

impl From<FetchClass> for ClusterFetch {
    fn from(class: FetchClass) -> Self {
        match class {
            FetchClass::NewHit => ClusterFetch::Hit,
            FetchClass::Migrated => ClusterFetch::Migrated,
            FetchClass::Database => ClusterFetch::Database,
            FetchClass::DatabaseFalsePositive => ClusterFetch::FalsePositive,
            FetchClass::Degraded => ClusterFetch::Degraded,
        }
    }
}

/// Maps the wire-level fetch classification onto the telemetry
/// registry's [`FetchClassKind`].
fn class_kind(class: ClusterFetch) -> FetchClassKind {
    match class {
        ClusterFetch::Hit | ClusterFetch::ReplicaHit => FetchClassKind::NewHit,
        ClusterFetch::Migrated => FetchClassKind::Migrated,
        ClusterFetch::Database => FetchClassKind::Database,
        ClusterFetch::Degraded => FetchClassKind::Degraded,
        ClusterFetch::FalsePositive => FetchClassKind::FalsePositive,
    }
}

/// Reads a transport failure as an observation — the server is down,
/// `None` — rather than an error; semantic errors still surface.
fn reachable<T>(result: Result<T, NetError>) -> Result<Option<T>, NetError> {
    match result {
        Ok(value) => Ok(Some(value)),
        Err(e) if e.is_transport() => Ok(None),
        Err(e) => Err(e),
    }
}

/// Cumulative cluster-level fault counters (see
/// [`ClusterClient::fault_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Fetches served from the database because a cache server was
    /// unreachable ([`ClusterFetch::Degraded`]).
    pub degraded_fetches: u64,
    /// On-demand migrations skipped because the old-mapping server was
    /// unreachable during a transition.
    pub skipped_migrations: u64,
    /// Cache writes dropped because the target server was unreachable:
    /// a fill after a DB fetch, an on-demand migration, a `put`, or a
    /// pull batch's keys.
    pub dropped_installs: u64,
    /// Fills and on-demand migrations the server refused because the
    /// key was present: they install with `add`, and a newer write (a
    /// racing `put`, a pull) got there first. Not a drop.
    pub fills_superseded: u64,
    /// Digest snapshots that could not be obtained at
    /// `begin_transition` (the affected server's keys fall through to
    /// the database instead of migrating).
    pub missing_digests: u64,
    /// Keys the background pulls of all windows so far stored at their
    /// new server (see [`ClusterClient::pull_progress`]). Not fetches:
    /// [`ClusterClient::fetch_stats`] does not count them.
    pub pulled_keys: u64,
    /// Batches those pulls carried to a new server.
    pub pull_batches: u64,
    /// Windows whose pull stopped before it had listed every old
    /// server to its last key — a source stopped answering, or the
    /// window closed first.
    pub pulls_incomplete: u64,
    /// Per-op retries summed over every server's clients, the
    /// background pull's included.
    pub retries: u64,
    /// Breaker trips summed over every server's clients, the
    /// background pull's included.
    pub breaker_trips: u64,
    /// Fast-fails summed over every server's clients, the background
    /// pull's included.
    pub fast_fails: u64,
}

#[derive(Debug, Default)]
struct AtomicClusterStats {
    degraded_fetches: AtomicU64,
    skipped_migrations: AtomicU64,
    dropped_installs: AtomicU64,
    fills_superseded: AtomicU64,
    missing_digests: AtomicU64,
    pulled_keys: AtomicU64,
    pull_batches: AtomicU64,
    pulls_incomplete: AtomicU64,
}

impl AtomicClusterStats {
    /// One snapshot of these counters, with `clients`' retries,
    /// breaker trips and fast fails summed in.
    fn load<'a>(&self, clients: impl IntoIterator<Item = &'a CacheClient>) -> ClusterStats {
        let mut out = ClusterStats {
            degraded_fetches: self.degraded_fetches.load(Ordering::Relaxed),
            skipped_migrations: self.skipped_migrations.load(Ordering::Relaxed),
            dropped_installs: self.dropped_installs.load(Ordering::Relaxed),
            fills_superseded: self.fills_superseded.load(Ordering::Relaxed),
            missing_digests: self.missing_digests.load(Ordering::Relaxed),
            pulled_keys: self.pulled_keys.load(Ordering::Relaxed),
            pull_batches: self.pull_batches.load(Ordering::Relaxed),
            pulls_incomplete: self.pulls_incomplete.load(Ordering::Relaxed),
            ..ClusterStats::default()
        };
        for client in clients {
            let c = client.fault_stats();
            out.retries += c.retries;
            out.breaker_trips += c.breaker_trips;
            out.fast_fails += c.fast_fails;
        }
        out
    }
}

/// A web server's view of the live cache cluster: one pooled client
/// per cache server, the placement [`Router`], and the
/// [`TransitionManager`] holding the current and previous active
/// counts and the digests broadcast at the last transition.
///
/// It drives the same Algorithm 2 decision as the simulator
/// ([`TransitionManager::probe_target`], [`proteus_core::fetch_class`])
/// with real sockets underneath — plus the failure model the paper's
/// power policy demands. A power policy turns cache servers off
/// *mid-traffic*, so an unreachable server is business as usual here:
/// transport failures degrade to the authoritative store
/// ([`ClusterFetch::Degraded`]) instead of erroring, and each server's
/// [`CacheClient`] retries, reconnects, and fails fast through its
/// circuit breaker.
pub struct ClusterClient {
    /// Shared with the metric source, which sums their fault counters.
    clients: Arc<[CacheClient]>,
    /// Shared with the open window's puller thread.
    router: Arc<Router>,
    window: TransitionManager,
    stats: Arc<AtomicClusterStats>,
    fetches: Arc<FetchLatencies>,
    tracer: Arc<EventTracer>,
    puller: pull::Puller,
}

impl ClusterClient {
    /// Connects to every cache server (in provisioning order) with the
    /// default [`ClientConfig`] and starts with all of them active.
    ///
    /// # Errors
    ///
    /// Returns the first connection failure.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or its length differs from the
    /// strategy's `max_servers()`.
    pub fn connect(
        addrs: &[std::net::SocketAddr],
        strategy: Box<dyn PlacementStrategy + Send + Sync>,
    ) -> Result<ClusterClient, NetError> {
        ClusterClient::connect_with(addrs, strategy, ClientConfig::default())
    }

    /// [`connect`](Self::connect) with explicit per-server
    /// fault-tolerance tunables.
    ///
    /// # Errors
    ///
    /// Returns the first connection failure.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or its length differs from the
    /// strategy's `max_servers()`.
    pub fn connect_with(
        addrs: &[std::net::SocketAddr],
        strategy: Box<dyn PlacementStrategy + Send + Sync>,
        config: ClientConfig,
    ) -> Result<ClusterClient, NetError> {
        assert!(!addrs.is_empty(), "need at least one cache server");
        assert_eq!(
            addrs.len(),
            strategy.max_servers(),
            "strategy sized for a different cluster"
        );
        let clients = addrs
            .iter()
            .map(|&a| CacheClient::connect_with(a, config))
            .collect::<Result<Arc<[_]>, _>>()?;
        let tracer = Arc::new(EventTracer::default());
        let puller = pull::Puller::new(addrs, config);
        for (i, (client, pulling)) in clients.iter().zip(puller.clients().iter()).enumerate() {
            // One shared ring: breaker transitions interleave with the
            // cluster's own transition/migration events in seq order.
            client.attach_tracer(Arc::clone(&tracer), i as u32);
            pulling.attach_tracer(Arc::clone(&tracer), i as u32);
        }
        let n = clients.len();
        Ok(ClusterClient {
            clients,
            router: Arc::new(Router::new(strategy)),
            window: TransitionManager::new(n, n),
            stats: Arc::new(AtomicClusterStats::default()),
            fetches: Arc::new(FetchLatencies::default()),
            tracer,
            puller,
        })
    }

    /// Currently active servers.
    #[must_use]
    pub fn active(&self) -> usize {
        self.window.active()
    }

    /// The server responsible for `key` at the current active count.
    #[must_use]
    pub fn server_for(&self, key: &[u8]) -> ServerId {
        self.router.server_for(key, self.window.active())
    }

    /// The per-server client, for inspecting breaker state and
    /// fault counters.
    #[must_use]
    pub fn client(&self, server: usize) -> &CacheClient {
        &self.clients[server]
    }

    /// Cluster-level fault counters, with the per-server client
    /// counters (retries, breaker trips, fast fails) summed in, the
    /// background pull's clients' among them.
    #[must_use]
    pub fn fault_stats(&self) -> ClusterStats {
        self.stats
            .load(self.clients.iter().chain(self.puller.clients().iter()))
    }

    /// Per-fetch-class latency histograms: every
    /// [`fetch`](Self::fetch) records its end-to-end latency under its
    /// [`ClusterFetch`] class, so a class's fetch count is its
    /// histogram's sample count.
    #[must_use]
    pub fn fetch_stats(&self) -> &FetchLatencies {
        &self.fetches
    }

    /// The transition/breaker event ring shared by this client and
    /// every per-server [`CacheClient`]. Inspect after a transition to
    /// see the ordered begin → digest broadcast → per-key migration →
    /// drain lifecycle.
    #[must_use]
    pub fn tracer(&self) -> &Arc<EventTracer> {
        &self.tracer
    }

    /// A pull-based registry source for this client's web-tier view of
    /// the cluster, suitable for [`proteus_obs::MetricsServer::spawn`]
    /// (pair with [`MetricsServer::spawn_traced`] and
    /// [`tracer`](Self::tracer) to also serve the transition trace at
    /// `/trace.jsonl`): per-fetch-class counters and latency
    /// histograms, one [`fault_stats`](Self::fault_stats) snapshot
    /// (the cluster's fault and pull counters and the per-server
    /// clients' retries, breaker trips and fast fails), the bytes of
    /// buffer the pooled connections hold
    /// (`proteus_mem_bytes{component="client_buffers"}`, the pull's
    /// clients included), and trace ring health.
    ///
    /// [`MetricsServer::spawn_traced`]: proteus_obs::MetricsServer::spawn_traced
    #[must_use]
    pub fn metric_source(&self) -> MetricSource {
        let stats = Arc::clone(&self.stats);
        let clients = Arc::clone(&self.clients);
        let pulling = Arc::clone(self.puller.clients());
        let fetches = Arc::clone(&self.fetches);
        let tracer = Arc::clone(&self.tracer);
        Arc::new(move || {
            let mut out = Vec::new();
            for (class, snap) in fetches.snapshot_all() {
                out.push(
                    Metric::counter("proteus_client_fetches_total", snap.count())
                        .with_label("class", class.name()),
                );
                out.push(
                    Metric::histogram("proteus_client_fetch_latency_seconds", snap)
                        .with_label("class", class.name()),
                );
            }
            let every_client = || clients.iter().chain(pulling.iter());
            let s = stats.load(every_client());
            for (name, value) in [
                ("proteus_client_degraded_fetches_total", s.degraded_fetches),
                (
                    "proteus_client_skipped_migrations_total",
                    s.skipped_migrations,
                ),
                ("proteus_client_dropped_installs_total", s.dropped_installs),
                ("proteus_client_fills_superseded_total", s.fills_superseded),
                ("proteus_client_missing_digests_total", s.missing_digests),
                ("proteus_client_pulled_keys_total", s.pulled_keys),
                ("proteus_client_pull_batches_total", s.pull_batches),
                ("proteus_client_pulls_incomplete_total", s.pulls_incomplete),
                ("proteus_client_retries_total", s.retries),
                ("proteus_client_breaker_trips_total", s.breaker_trips),
                ("proteus_client_fast_fails_total", s.fast_fails),
            ] {
                out.push(Metric::counter(name, value));
            }
            let buffers: usize = every_client().map(CacheClient::buffer_bytes).sum();
            out.push(
                Metric::gauge("proteus_mem_bytes", buffers as i64)
                    .with_label("component", "client_buffers"),
            );
            out.extend(trace_metrics(&tracer));
            out
        })
    }
}

impl fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterClient")
            .field("servers", &self.clients.len())
            .field("active", &self.window.active())
            .field("in_transition", &self.window.is_open())
            .field("strategy", &self.router.strategy().name())
            .finish()
    }
}

#[cfg(test)]
mod testing {
    //! Live clusters for the submodules' tests.

    use super::*;
    use crate::server::CacheServer;
    use proteus_cache::CacheConfig;
    use proteus_ring::ProteusPlacement;
    use proteus_store::StoreConfig;

    pub(super) type Cluster = (Vec<CacheServer>, ClusterClient, Mutex<ShardedStore>);

    /// `n` servers behind a client.
    pub(super) fn cluster(n: usize) -> Cluster {
        let servers: Vec<CacheServer> = (0..n)
            .map(|_| {
                CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(4 << 20)).unwrap()
            })
            .collect();
        let addrs: Vec<_> = servers.iter().map(CacheServer::addr).collect();
        let client = ClusterClient::connect_with(
            &addrs,
            Box::new(ProteusPlacement::generate(n)),
            ClientConfig::fast_failover(),
        )
        .unwrap();
        let db = Mutex::new(ShardedStore::new(StoreConfig {
            object_size: 64,
            ..StoreConfig::default()
        }));
        (servers, client, db)
    }

    pub(super) fn page_keys(n: u32) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("page:{i}").into_bytes()).collect()
    }

    pub(super) fn stop(servers: Vec<CacheServer>) {
        for s in servers {
            s.stop();
        }
    }
}
