//! Algorithm 2: digest-guided data retrieval, driven against in-memory
//! cache engines.
//!
//! The decision itself — whether to ask the old server, and what the
//! answers amount to — lives in [`crate::transition`]; [`Router::fetch`]
//! performs the lookups it asks for directly on `CacheEngine`s.

use proteus_cache::CacheEngine;
use proteus_ring::{hash::KeyHasher, PlacementStrategy, ServerId};
use proteus_sim::SimTime;
use proteus_store::ShardedStore;

use crate::metrics::FetchClass;
use crate::transition::{fetch_class, Probe, TransitionManager};

/// The result of one Algorithm 2 fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchOutcome {
    /// The data (always retrieved; the database is authoritative).
    pub value: Vec<u8>,
    /// Which branch served it.
    pub class: FetchClass,
    /// The key's server under the new mapping.
    pub new_server: ServerId,
}

/// The web tier's routing logic: consistent key→server mapping plus
/// Algorithm 2's transition-aware retrieval.
///
/// Every web server holds an identical `Router` (same strategy, same
/// hash seed), satisfying the paper's consistency objective without
/// coordination.
///
/// # Example
///
/// ```
/// use proteus_core::{Router, Scenario, TransitionManager};
/// use proteus_cache::{CacheConfig, CacheEngine};
/// use proteus_store::{ShardedStore, StoreConfig};
/// use proteus_sim::SimTime;
///
/// let router = Router::new(Scenario::Proteus.strategy(4, 0));
/// let mut caches: Vec<CacheEngine> = (0..4)
///     .map(|_| CacheEngine::new(CacheConfig::with_capacity(1 << 20)))
///     .collect();
/// let mut db = ShardedStore::new(StoreConfig::default());
/// let tm = TransitionManager::new(4, 4);
///
/// let out = router.fetch(b"page:1", SimTime::ZERO, &mut caches, &mut db, &tm, true);
/// assert_eq!(out.class, proteus_core::FetchClass::Database); // cold start
/// let out = router.fetch(b"page:1", SimTime::ZERO, &mut caches, &mut db, &tm, true);
/// assert_eq!(out.class, proteus_core::FetchClass::NewHit);
/// ```
pub struct Router {
    strategy: Box<dyn PlacementStrategy + Send + Sync>,
    hasher: KeyHasher,
}

impl Router {
    /// Creates a router over the given placement strategy, hashing keys
    /// with the default seed (all web servers must share it).
    #[must_use]
    pub fn new(strategy: Box<dyn PlacementStrategy + Send + Sync>) -> Self {
        Router {
            strategy,
            hasher: KeyHasher::default(),
        }
    }

    /// The key hash used for ring placement.
    #[must_use]
    pub fn key_hash(&self, key: &[u8]) -> u64 {
        self.hasher.hash_bytes(key)
    }

    /// The server responsible for `key` when `active` servers are on.
    #[must_use]
    pub fn server_for(&self, key: &[u8], active: usize) -> ServerId {
        self.strategy.server_for(self.key_hash(key), active)
    }

    /// The underlying strategy.
    #[must_use]
    pub fn strategy(&self) -> &(dyn PlacementStrategy + Send + Sync) {
        &*self.strategy
    }

    /// Algorithm 2, lines 1–15: fetch `key`, consulting the old
    /// server's digest while a transition window is open (when
    /// `use_digests`) and migrating hot data on demand; fall back to
    /// the database otherwise. The retrieved value is always
    /// (re)inserted into the new server's cache (line 12).
    pub fn fetch(
        &self,
        key: &[u8],
        now: SimTime,
        caches: &mut [CacheEngine],
        db: &mut ShardedStore,
        transition: &TransitionManager,
        use_digests: bool,
    ) -> FetchOutcome {
        let new_server = self.server_for(key, transition.active());
        // Line 2: try the new location first.
        let mut value = caches[new_server.index()].get(key, now).map(<[u8]>::to_vec);
        let new = Probe::answered(value.is_some());
        // Lines 6-8: on a miss, the old server if its digest vouches.
        let target = if new == Probe::Miss && use_digests {
            transition.probe_target(self, key, new_server)
        } else {
            None
        };
        let mut old = None;
        if let Some(server) = target {
            value = caches[server.index()].get(key, now).map(<[u8]>::to_vec);
            old = Some(Probe::answered(value.is_some()));
        }
        let class = fetch_class(new, old);
        // Lines 9-12: the database is the last resort; whatever was not
        // already at the new location is installed there.
        let value = value.unwrap_or_else(|| db.fetch(key));
        if class != FetchClass::NewHit {
            caches[new_server.index()].put(key, value.clone(), now);
        }
        FetchOutcome {
            value,
            class,
            new_server,
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use proteus_cache::CacheConfig;
    use proteus_store::StoreConfig;

    fn setup(servers: usize) -> (Router, Vec<CacheEngine>, ShardedStore) {
        let router = Router::new(Scenario::Proteus.strategy(servers, 0));
        let caches = (0..servers)
            .map(|_| CacheEngine::new(CacheConfig::with_capacity(1 << 22)))
            .collect();
        let db = ShardedStore::new(StoreConfig::default());
        (router, caches, db)
    }

    fn snapshots(caches: &[CacheEngine]) -> Vec<Option<proteus_bloom::BloomFilter>> {
        caches.iter().map(|c| Some(c.digest_snapshot())).collect()
    }

    #[test]
    fn cold_then_hot() {
        let (router, mut caches, mut db) = setup(4);
        let tm = TransitionManager::new(4, 4);
        let a = router.fetch(b"k", SimTime::ZERO, &mut caches, &mut db, &tm, true);
        assert_eq!(a.class, FetchClass::Database);
        let b = router.fetch(b"k", SimTime::ZERO, &mut caches, &mut db, &tm, true);
        assert_eq!(b.class, FetchClass::NewHit);
        assert_eq!(a.value, b.value);
        assert_eq!(db.total_fetches(), 1, "second fetch never reached the DB");
    }

    #[test]
    fn transition_migrates_hot_data_without_db_traffic() {
        let (router, mut caches, mut db) = setup(4);
        let mut tm = TransitionManager::new(4, 4);
        // Find a key that moves when server 4 turns off.
        let moving_key = (0..10_000u64)
            .map(|i| format!("page:{i}").into_bytes())
            .find(|k| router.server_for(k, 4).index() == 3 && router.server_for(k, 3).index() != 3)
            .expect("some key lives on s4");
        // Warm it on its old server.
        let warm = router.fetch(&moving_key, SimTime::ZERO, &mut caches, &mut db, &tm, true);
        assert_eq!(warm.class, FetchClass::Database);
        let db_before = db.total_fetches();
        // Scale 4 → 3 with a digest broadcast.
        tm.begin(3, snapshots(&caches)).unwrap();
        let t = SimTime::from_secs(2);
        let got = router.fetch(&moving_key, t, &mut caches, &mut db, &tm, true);
        assert_eq!(got.class, FetchClass::Migrated);
        assert_eq!(got.value, warm.value);
        assert_eq!(db.total_fetches(), db_before, "migration avoided the DB");
        // Subsequent requests hit the new server directly (the
        // "only the first request reaches the old server" property).
        let again = router.fetch(&moving_key, t, &mut caches, &mut db, &tm, true);
        assert_eq!(again.class, FetchClass::NewHit);
    }

    #[test]
    fn without_digests_transition_goes_to_db() {
        let (router, mut caches, mut db) = setup(4);
        let mut tm = TransitionManager::new(4, 4);
        let moving_key = (0..10_000u64)
            .map(|i| format!("page:{i}").into_bytes())
            .find(|k| router.server_for(k, 4).index() == 3)
            .unwrap();
        router.fetch(&moving_key, SimTime::ZERO, &mut caches, &mut db, &tm, false);
        tm.begin(3, snapshots(&caches)).unwrap();
        let before = db.total_fetches();
        let got = router.fetch(
            &moving_key,
            SimTime::from_secs(2),
            &mut caches,
            &mut db,
            &tm,
            false,
        );
        assert_eq!(got.class, FetchClass::Database);
        assert_eq!(db.total_fetches(), before + 1);
    }

    #[test]
    fn cold_data_during_transition_is_database_not_false_positive() {
        let (router, mut caches, mut db) = setup(4);
        let mut tm = TransitionManager::new(4, 4);
        tm.begin(3, snapshots(&caches)).unwrap(); // all empty
        let got = router.fetch(
            b"never-seen",
            SimTime::from_secs(1),
            &mut caches,
            &mut db,
            &tm,
            true,
        );
        assert_eq!(got.class, FetchClass::Database);
    }

    #[test]
    fn after_window_digests_are_not_consulted() {
        let (router, mut caches, mut db) = setup(4);
        let mut tm = TransitionManager::new(4, 4);
        let moving_key = (0..10_000u64)
            .map(|i| format!("page:{i}").into_bytes())
            .find(|k| router.server_for(k, 4).index() == 3 && router.server_for(k, 3).index() != 3)
            .unwrap();
        router.fetch(&moving_key, SimTime::ZERO, &mut caches, &mut db, &tm, true);
        tm.begin(3, snapshots(&caches)).unwrap();
        // Window closed (the old server not yet cleared): Algorithm 2
        // line 6 no longer fires.
        tm.finalize();
        let t = SimTime::from_secs(2);
        let got = router.fetch(&moving_key, t, &mut caches, &mut db, &tm, true);
        assert_eq!(got.class, FetchClass::Database);
    }

    #[test]
    fn routing_is_consistent_across_router_instances() {
        let (a, _, _) = setup(8);
        let (b, _, _) = setup(8);
        for i in 0..1000u64 {
            let key = format!("page:{i}").into_bytes();
            for n in [2usize, 5, 8] {
                assert_eq!(a.server_for(&key, n), b.server_for(&key, n));
            }
        }
    }
}
