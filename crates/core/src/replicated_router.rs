//! Replication-aware routing (Section III-E).
//!
//! The paper sketches fault tolerance: run `r` consistent-hashing
//! rings with `r` hash functions over the *same* virtual-node
//! placement; a key is stored wherever any ring places it. This module
//! turns that sketch into a working router: writes go to every
//! replica, reads try replicas in ring order and skip servers marked
//! failed, and the database remains the backstop — so a single server
//! crash loses no data that a surviving replica holds (probability
//! `1 - Pnc` of co-location per key, Eq. 3).

use proteus_cache::CacheEngine;
use proteus_ring::{ReplicatedPlacement, ServerId};
use proteus_sim::SimTime;
use proteus_store::ShardedStore;

/// How a replicated fetch was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaFetch {
    /// Served by the replica on ring `ring` (0-based).
    Hit {
        /// Which ring's placement answered.
        ring: usize,
        /// The serving server.
        server: ServerId,
    },
    /// All replicas missed (or were down); fetched from the database
    /// and re-installed on every live replica.
    Database,
}

/// A web-tier router over a [`ReplicatedPlacement`].
///
/// # Example
///
/// ```
/// use proteus_cache::{CacheConfig, CacheEngine};
/// use proteus_core::{ReplicaFetch, ReplicatedRouter};
/// use proteus_sim::SimTime;
/// use proteus_store::{ShardedStore, StoreConfig};
///
/// let router = ReplicatedRouter::new(4, 2, 42);
/// let mut caches: Vec<CacheEngine> = (0..4)
///     .map(|_| CacheEngine::new(CacheConfig::with_capacity(1 << 20)))
///     .collect();
/// let mut db = ShardedStore::new(StoreConfig::default());
/// let down = vec![false; 4];
///
/// let t = SimTime::ZERO;
/// let (_, how) = router.fetch(b"page:1", t, &mut caches, &mut db, &down, 4);
/// assert_eq!(how, ReplicaFetch::Database); // cold
/// let (_, how) = router.fetch(b"page:1", t, &mut caches, &mut db, &down, 4);
/// assert!(matches!(how, ReplicaFetch::Hit { ring: 0, .. }));
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedRouter {
    placement: ReplicatedPlacement,
}

impl ReplicatedRouter {
    /// Creates a router for `servers` servers with `replicas` rings
    /// seeded from `seed` (all web servers must share the seed).
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` or `servers` is invalid for
    /// [`proteus_ring::ProteusPlacement::generate`].
    #[must_use]
    pub fn new(servers: usize, replicas: usize, seed: u64) -> Self {
        ReplicatedRouter {
            placement: ReplicatedPlacement::new(servers, replicas, seed),
        }
    }

    /// Fetches `key`: replicas are probed in ring order, skipping
    /// servers flagged in `down`; a miss everywhere falls back to the
    /// database and re-installs the value on every *distinct, live*
    /// replica.
    ///
    /// # Panics
    ///
    /// Panics if `down.len()` differs from the cache count, or
    /// `active` exceeds it.
    pub fn fetch(
        &self,
        key: &[u8],
        now: SimTime,
        caches: &mut [CacheEngine],
        db: &mut ShardedStore,
        down: &[bool],
        active: usize,
    ) -> (Vec<u8>, ReplicaFetch) {
        assert_eq!(down.len(), caches.len(), "down-mask / cache count mismatch");
        assert!(active <= caches.len(), "more active servers than caches");
        let replicas: Vec<usize> = self
            .placement
            .servers_for(key, active)
            .iter()
            .map(|s| s.index())
            .collect();
        for (ring, server) in live_ring_order(&replicas, |s| down[s]) {
            if let Some(v) = caches[server].get(key, now) {
                let value = v.to_vec();
                return (
                    value,
                    ReplicaFetch::Hit {
                        ring,
                        server: ServerId::new(server as u32),
                    },
                );
            }
        }
        let value = db.fetch(key);
        for server in distinct_live(&replicas, |s| down[s]) {
            caches[server].put(key, value.clone(), now);
        }
        (value, ReplicaFetch::Database)
    }
}

/// The read-probe order over a key's per-ring replica servers: ring
/// order with down servers skipped, duplicates preserved (a later ring
/// colliding with an earlier one is just probed once more). Returns
/// `(ring, server)` pairs.
fn live_ring_order(ring_servers: &[usize], is_down: impl Fn(usize) -> bool) -> Vec<(usize, usize)> {
    ring_servers
        .iter()
        .enumerate()
        .filter(|&(_, &s)| !is_down(s))
        .map(|(ring, &s)| (ring, s))
        .collect()
}

/// The install fan-out after a database fill: every *distinct, live*
/// replica server, in first-ring order.
fn distinct_live(ring_servers: &[usize], is_down: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut out = Vec::with_capacity(ring_servers.len());
    for &s in ring_servers {
        if !is_down(s) && !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_cache::CacheConfig;
    use proteus_store::StoreConfig;

    fn setup(
        servers: usize,
        replicas: usize,
    ) -> (ReplicatedRouter, Vec<CacheEngine>, ShardedStore) {
        let router = ReplicatedRouter::new(servers, replicas, 42);
        let caches = (0..servers)
            .map(|_| CacheEngine::new(CacheConfig::with_capacity(16 << 20)))
            .collect();
        let db = ShardedStore::new(StoreConfig {
            object_size: 256,
            ..StoreConfig::default()
        });
        (router, caches, db)
    }

    const T: SimTime = SimTime::ZERO;

    #[test]
    fn live_ring_order_skips_down_servers() {
        let order = live_ring_order(&[2, 5, 2, 7], |s| s == 5);
        assert_eq!(order, vec![(0, 2), (2, 2), (3, 7)]);
    }

    #[test]
    fn distinct_live_dedups_in_first_ring_order() {
        assert_eq!(distinct_live(&[2, 5, 2, 7], |_| false), vec![2, 5, 7]);
        assert_eq!(distinct_live(&[2, 5, 2, 7], |s| s == 2), vec![5, 7]);
    }

    #[test]
    fn fills_all_distinct_replicas_on_miss() {
        let (router, mut caches, mut db) = setup(8, 3);
        let all_up = vec![false; 8];
        let (value, how) = router.fetch(b"page:1", T, &mut caches, &mut db, &all_up, 8);
        assert_eq!(how, ReplicaFetch::Database);
        let replicas = router.placement.servers_for(b"page:1", 8);
        for &s in &replicas {
            assert_eq!(caches[s.index()].peek(b"page:1"), Some(&value[..]));
        }
    }

    #[test]
    fn survives_primary_crash() {
        let (router, mut caches, mut db) = setup(8, 2);
        let all_up = vec![false; 8];
        // Warm 200 keys on both replicas.
        let keys: Vec<Vec<u8>> = (0..200u32)
            .map(|i| format!("page:{i}").into_bytes())
            .collect();
        for k in &keys {
            router.fetch(k, T, &mut caches, &mut db, &all_up, 8);
        }
        // Crash server 0: contents lost, marked down.
        caches[0].clear();
        let mut down = vec![false; 8];
        down[0] = true;
        let db_before = db.total_fetches();
        let mut served_by_replica = 0;
        let mut refetched = 0;
        for k in &keys {
            match router.fetch(k, T, &mut caches, &mut db, &down, 8).1 {
                ReplicaFetch::Hit { server, .. } => {
                    assert_ne!(server.index(), 0, "down server must not serve");
                    served_by_replica += 1;
                }
                ReplicaFetch::Database => refetched += 1,
            }
        }
        // Keys whose replicas were distinct survive; only co-located
        // keys (both rings → server 0) need the database. Eq. 3 with
        // r=2, n=8 predicts 1/8 co-location ≈ 25 keys; allow slack.
        assert!(
            served_by_replica > 150,
            "{served_by_replica} served by replicas"
        );
        assert!(refetched < 60, "{refetched} refetched");
        assert_eq!(db.total_fetches(), db_before + refetched as u64);
    }

    #[test]
    fn no_replication_degenerates_to_single_ring() {
        let (router, mut caches, mut db) = setup(4, 1);
        let all_up = vec![false; 4];
        assert_eq!(router.placement.replicas(), 1);
        router.fetch(b"k", T, &mut caches, &mut db, &all_up, 4);
        let cached: usize = caches.iter().filter(|c| c.contains(b"k")).count();
        assert_eq!(cached, 1, "exactly one copy with r = 1");
    }

    #[test]
    fn reads_prefer_the_first_live_ring() {
        let (router, mut caches, mut db) = setup(6, 3);
        let all_up = vec![false; 6];
        router.fetch(b"page:9", T, &mut caches, &mut db, &all_up, 6);
        let (_, how) = router.fetch(b"page:9", T, &mut caches, &mut db, &all_up, 6);
        match how {
            ReplicaFetch::Hit { ring, .. } => assert_eq!(ring, 0),
            other => panic!("expected hit, got {other:?}"),
        }
        // With ring 0's server down, ring 1 takes over.
        let primary = router.placement.servers_for(b"page:9", 6)[0];
        let mut down = vec![false; 6];
        down[primary.index()] = true;
        let (_, how) = router.fetch(b"page:9", T, &mut caches, &mut db, &down, 6);
        match how {
            ReplicaFetch::Hit { ring, server } => {
                assert!(ring >= 1);
                assert_ne!(server, primary);
            }
            ReplicaFetch::Database => {
                // Legal only if all replicas co-located on the primary.
                let distinct = router
                    .placement
                    .distinct_servers_for(b"page:9", 6)
                    .into_iter()
                    .filter(|s| *s != primary)
                    .count();
                assert_eq!(distinct, 0, "live replicas must have served");
            }
        }
    }

    #[test]
    fn works_under_scale_down() {
        let (router, mut caches, mut db) = setup(8, 2);
        let all_up = vec![false; 8];
        let keys: Vec<Vec<u8>> = (0..100u32).map(|i| format!("p:{i}").into_bytes()).collect();
        for k in &keys {
            router.fetch(k, T, &mut caches, &mut db, &all_up, 8);
        }
        // Active count drops to 5: all replica lookups stay within the
        // active prefix.
        for k in &keys {
            let (_, how) = router.fetch(k, T, &mut caches, &mut db, &all_up, 5);
            if let ReplicaFetch::Hit { server, .. } = how {
                assert!(server.index() < 5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "down-mask / cache count mismatch")]
    fn down_mask_must_match() {
        let (router, mut caches, mut db) = setup(4, 2);
        let _ = router.fetch(b"k", T, &mut caches, &mut db, &[false; 3], 4);
    }
}
