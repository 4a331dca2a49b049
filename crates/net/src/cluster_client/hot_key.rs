//! Hot-key replication on top of the standard Algorithm 2 path: a
//! space-saving sketch promotes hot keys to R replicas, reads pick a
//! replica by power-of-two-choices, and a transition recomputes every
//! replica set against the new ring.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use proteus_cache::SharedBytes;
use proteus_core::hot_key::{ReplicaRings, SpaceSaving, TwoChoices};
use proteus_obs::{Counter, FetchClassKind, Gauge};
use proteus_ring::PlacementStrategy;

use super::{reachable, ClusterClient, ClusterFetch};
use crate::client::ClientConfig;
use crate::error::NetError;

/// Hot-key replication knobs for
/// [`ClusterClient::connect_replicated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotKeyConfig {
    /// Target number of distinct servers holding each hot key
    /// (including its home server). `1` disables replication.
    pub replicas: usize,
    /// Estimated fetch count at which a key is promoted to hot and
    /// replicated.
    pub hot_key_threshold: u64,
    /// Keys the space-saving sketch monitors; bounds detector memory.
    pub sketch_capacity: usize,
}

impl Default for HotKeyConfig {
    fn default() -> Self {
        HotKeyConfig {
            replicas: 2,
            hot_key_threshold: 64,
            sketch_capacity: 128,
        }
    }
}

/// Cumulative hot-key replication counters (see
/// [`ClusterClient::hot_key_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HotKeyStats {
    /// Keys currently replicated (the hot-key gauge).
    pub replicated_keys: i64,
    /// Keys ever promoted to hot.
    pub promotions: u64,
    /// Replica invalidations issued by writes (one per key per
    /// non-home target server).
    pub invalidations: u64,
    /// Fetches served by a non-home replica
    /// ([`ClusterFetch::ReplicaHit`]).
    pub replica_hits: u64,
}

/// Per-server load estimate feeding the power-of-two-choices routing:
/// requests currently in flight plus an EWMA of recent get latency,
/// both maintained purely client-side.
#[derive(Debug, Default)]
struct ServerLoad {
    in_flight: AtomicU64,
    ewma_nanos: AtomicU64,
}

impl ServerLoad {
    /// A single comparable score: queue depth dominates, smoothed
    /// latency breaks ties between equally idle servers.
    fn score(&self) -> u64 {
        let in_flight = self.in_flight.load(Ordering::Relaxed);
        let ewma = self.ewma_nanos.load(Ordering::Relaxed);
        in_flight
            .saturating_add(1)
            .saturating_mul(ewma.saturating_add(1))
    }

    fn record(&self, elapsed_nanos: u64) {
        // EWMA with alpha = 1/4: old - old/4 + sample/4, relaxed (a
        // lost race just loses one smoothing step).
        let old = self.ewma_nanos.load(Ordering::Relaxed);
        self.ewma_nanos
            .store(old - old / 4 + elapsed_nanos / 4, Ordering::Relaxed);
    }
}

/// Everything the hot-key layer owns. Interior-mutable because
/// [`ClusterClient::fetch`] takes `&self`.
pub(super) struct HotKeyState {
    config: HotKeyConfig,
    rings: ReplicaRings,
    pub(super) sketch: Mutex<SpaceSaving>,
    /// Hot key → its distinct replica servers under the **current**
    /// active count, home server first. Recomputed against the new
    /// ring by `open_window`.
    pub(super) replicated: Mutex<HashMap<Vec<u8>, Vec<usize>>>,
    chooser: TwoChoices,
    loads: Vec<ServerLoad>,
    promotions: Counter,
    pub(super) invalidations: Counter,
    hot_keys: Gauge,
}

impl HotKeyState {
    /// Replica sets are a function of the active prefix: recompute
    /// every hot key's set against the new ring so no replica points
    /// at a drained/powered-off server. Newly added replicas start
    /// cold and are backfilled lazily by the next read that misses
    /// there (`try_replicas` re-installs on the servers it probed
    /// and missed), so no bulk copy happens at transition time.
    pub(super) fn recompute(&self, strategy: &dyn PlacementStrategy, active: usize) {
        for (key, set) in self.replicated.lock().iter_mut() {
            *set = self
                .rings
                .replica_set(key, |h| strategy.server_for(h, active).index());
        }
    }
}

impl ClusterClient {
    /// [`connect_with`](Self::connect_with) plus hot-key replication:
    /// the client tracks its own per-key fetch counts in a bounded
    /// space-saving sketch, replicates keys whose estimated count
    /// crosses `hot.hot_key_threshold` to `hot.replicas` distinct
    /// servers, routes replicated reads with power-of-two-choices by
    /// its own in-flight/latency load estimate, and invalidates every
    /// replica on [`put`](Self::put).
    ///
    /// Replica 0 of any key is its ordinary home server, so keys that
    /// never get hot behave exactly as with
    /// [`connect_with`](Self::connect_with).
    ///
    /// # Errors
    ///
    /// Returns the first connection failure.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or its length differs from the
    /// strategy's `max_servers()`, or if `hot.replicas == 0` or
    /// `hot.sketch_capacity == 0`.
    pub fn connect_replicated(
        addrs: &[std::net::SocketAddr],
        strategy: Box<dyn PlacementStrategy + Send + Sync>,
        config: ClientConfig,
        hot: HotKeyConfig,
    ) -> Result<ClusterClient, NetError> {
        let mut client = ClusterClient::connect_with(addrs, strategy, config)?;
        let n = client.clients.len();
        client.hot = Some(HotKeyState {
            config: hot,
            rings: ReplicaRings::new(client.router.hasher(), hot.replicas),
            sketch: Mutex::new(SpaceSaving::new(hot.sketch_capacity)),
            replicated: Mutex::new(HashMap::new()),
            chooser: TwoChoices::new(),
            loads: (0..n).map(|_| ServerLoad::default()).collect(),
            promotions: Counter::new(),
            invalidations: Counter::new(),
            hot_keys: Gauge::new(),
        });
        Ok(client)
    }

    /// Hot-key replication counters, or `None` if this client was not
    /// built with [`connect_replicated`](Self::connect_replicated).
    #[must_use]
    pub fn hot_key_stats(&self) -> Option<HotKeyStats> {
        self.hot.as_ref().map(|hot| HotKeyStats {
            replicated_keys: hot.hot_keys.get(),
            promotions: hot.promotions.get(),
            invalidations: hot.invalidations.get(),
            replica_hits: self.fetches.count(FetchClassKind::ReplicaHit),
        })
    }

    /// The distinct replica servers currently assigned to `key`, home
    /// first, or `None` if the key is not replicated (or replication
    /// is off).
    #[must_use]
    pub fn replicas_of(&self, key: &[u8]) -> Option<Vec<usize>> {
        self.hot.as_ref()?.replicated.lock().get(key).cloned()
    }

    /// Probes a replicated key's replica set: power-of-two-choices
    /// picks the first server by the client's own load estimate, the
    /// remaining replicas serve as failover (a miss or a dead server
    /// just moves to the next replica). On a hit, replicas that were
    /// probed and missed are backfilled best-effort — this is how
    /// replicas added by a transition's recompute warm up without a
    /// bulk copy.
    ///
    /// Returns `None` when the key is not replicated or no replica
    /// could serve it (the standard tree then resolves the fetch).
    pub(super) fn try_replicas(
        &self,
        key: &[u8],
        home: usize,
    ) -> Result<Option<(SharedBytes, ClusterFetch)>, NetError> {
        let Some(hot) = &self.hot else {
            return Ok(None);
        };
        let Some(replicas) = hot.replicated.lock().get(key).cloned() else {
            return Ok(None);
        };
        if replicas.len() < 2 {
            return Ok(None);
        }
        let first = replicas[hot
            .chooser
            .choose(replicas.len(), |i| hot.loads[replicas[i]].score())];
        let order = std::iter::once(first).chain(replicas.iter().copied().filter(|&s| s != first));
        let mut missed = Vec::new();
        for server in order {
            let load = &hot.loads[server];
            load.in_flight.fetch_add(1, Ordering::Relaxed);
            let begin = Instant::now();
            let result = self.clients[server].get(key);
            load.in_flight.fetch_sub(1, Ordering::Relaxed);
            // A dead replica is routed around, not degraded: the
            // surviving replicas (or the standard tree) serve.
            let Some(found) = reachable(result)? else {
                continue;
            };
            load.record(u64::try_from(begin.elapsed().as_nanos()).unwrap_or(u64::MAX));
            match found {
                Some(value) => {
                    for &m in &missed {
                        self.install(m, key, &value)?;
                    }
                    let class = if server == home {
                        ClusterFetch::Hit
                    } else {
                        ClusterFetch::ReplicaHit
                    };
                    return Ok(Some((value, class)));
                }
                None => missed.push(server),
            }
        }
        Ok(None)
    }

    /// Sketch update, hot-key promotion, and re-replication after the
    /// standard tree resolved a fetch. A key crossing the threshold is
    /// promoted: its distinct replica set is computed against the
    /// current ring and the just-fetched value is installed on every
    /// non-home replica. For an already-replicated key that the
    /// standard tree resolved (every replica missed or the value was
    /// just migrated/refetched), the non-home replicas are re-filled —
    /// excluding the home server the tree already installed at, so a
    /// migration install is never duplicated.
    pub(super) fn hot_key_after_fetch(
        &self,
        key: &[u8],
        value: &SharedBytes,
        home: usize,
        class: ClusterFetch,
    ) -> Result<(), NetError> {
        let Some(hot) = &self.hot else {
            return Ok(());
        };
        if hot.config.replicas < 2 {
            return Ok(());
        }
        let count = hot.sketch.lock().observe(key);
        let existing = hot.replicated.lock().get(key).cloned();
        let set = match existing {
            Some(set) => {
                if class == ClusterFetch::Hit {
                    // Home served directly (e.g. the p2c probe raced a
                    // concurrent promotion): nothing to re-fill.
                    return Ok(());
                }
                set
            }
            None => {
                if count < hot.config.hot_key_threshold {
                    return Ok(());
                }
                let active = self.window.active();
                let set = hot.rings.replica_set(key, |h| {
                    self.router.strategy().server_for(h, active).index()
                });
                if set.len() < 2 {
                    return Ok(());
                }
                let mut map = hot.replicated.lock();
                map.insert(key.to_vec(), set.clone());
                hot.promotions.inc();
                hot.hot_keys.set(map.len() as i64);
                set
            }
        };
        for &server in set.iter().filter(|&&s| s != home) {
            self.install(server, key, value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{cluster_on, cluster_with, stop};
    use super::*;
    use crate::server::EngineKind;

    #[test]
    fn hot_key_is_promoted_replicated_and_served_by_replicas() {
        let hot = HotKeyConfig {
            replicas: 3,
            hot_key_threshold: 10,
            sketch_capacity: 32,
        };
        let (servers, client, db) = cluster_with(4, Some(hot));
        let (celebrity, _) = client.fetch(b"celebrity", &db).unwrap();
        for _ in 0..80 {
            let (v, how) = client.fetch(b"celebrity", &db).unwrap();
            assert_eq!(v, celebrity);
            assert!(
                matches!(how, ClusterFetch::Hit | ClusterFetch::ReplicaHit),
                "hot key must stay cached, got {how:?}"
            );
        }
        let stats = client.hot_key_stats().unwrap();
        assert_eq!(stats.promotions, 1);
        assert_eq!(stats.replicated_keys, 1);
        assert!(
            stats.replica_hits > 0,
            "p2c must route some reads to non-home replicas"
        );
        let replicas = client.replicas_of(b"celebrity").unwrap();
        assert_eq!(replicas.len(), 3, "three distinct replicas");
        assert_eq!(
            replicas[0],
            client.server_for(b"celebrity").index(),
            "replica 0 is the home server"
        );
        // Every replica server really holds the value.
        for &s in &replicas {
            assert_eq!(
                client.client(s).get(b"celebrity").unwrap().as_deref(),
                Some(&celebrity[..])
            );
        }
        // A cold key stays un-replicated and behaves as ever.
        let (_, how) = client.fetch(b"cold:1", &db).unwrap();
        assert_eq!(how, ClusterFetch::Database);
        assert!(client.replicas_of(b"cold:1").is_none());
        stop(servers);
    }

    /// One celebrity stream against a fresh 6-server cluster: 90 % of
    /// fetches on one key, the rest uniform over 600 tail keys, 2 000 to
    /// warm the caches and the sketch, then 8 000 measured. Returns the
    /// max/mean get load over the measured fetches, read from each
    /// server's own `get_hits + get_misses` (the imbalance metric of the
    /// paper's Figure 5), the share of them served by a non-home
    /// replica, and the keys replicated at the end.
    fn celebrity_stream(hot: Option<HotKeyConfig>) -> (f64, f64, i64) {
        const SERVERS: usize = 6;
        const MEASURED: u64 = 8_000;
        // The threaded plane: what is measured is the client's routing,
        // and a debug build of the reactor zero-fills 64 KiB per
        // `read(2)` a byte at a time — 0.6 ms a round trip, 13 s here.
        let (servers, client, db) = cluster_on(EngineKind::Threaded, SERVERS, hot);
        let get_loads = || -> Vec<u64> {
            (0..SERVERS)
                .map(|s| {
                    let stats = client.client(s).stats().unwrap();
                    let read = |name: &str| -> u64 {
                        let (_, v) = stats.iter().find(|(k, _)| k == name).unwrap();
                        v.parse().unwrap()
                    };
                    read("get_hits") + read("get_misses")
                })
                .collect()
        };
        let mut rng = proteus_sim::SimRng::seed_from_u64(7);
        let mut fetch = || {
            let key = if (rng.next_u64() as f64 / u64::MAX as f64) < 0.9 {
                b"celebrity".to_vec()
            } else {
                format!("page:{}", rng.next_u64() % 600).into_bytes()
            };
            client.fetch(&key, &db).unwrap().1
        };
        for _ in 0..MEASURED / 4 {
            fetch();
        }
        let before = get_loads();
        let replica_hits = (0..MEASURED)
            .filter(|_| fetch() == ClusterFetch::ReplicaHit)
            .count();
        let loads: Vec<u64> = get_loads()
            .iter()
            .zip(&before)
            .map(|(now, then)| now - then)
            .collect();
        let max = *loads.iter().max().unwrap() as f64;
        let mean = loads.iter().sum::<u64>() as f64 / SERVERS as f64;
        let replicated = client.hot_key_stats().map_or(0, |s| s.replicated_keys);
        drop(client);
        stop(servers);
        (
            max / mean,
            replica_hits as f64 / MEASURED as f64,
            replicated,
        )
    }

    /// Placement spreads the key space, not the traffic: one celebrity
    /// key pins its home server at several times the mean. Replicating
    /// it and routing reads by power-of-two-choices must flatten that
    /// (5.49 -> 1.25 when written) with no server-side coordination.
    #[test]
    fn replication_flattens_a_celebrity_key() {
        let (unreplicated, _, _) = celebrity_stream(None);
        let (replicated, replica_share, hot_keys) = celebrity_stream(Some(HotKeyConfig {
            replicas: 6,
            hot_key_threshold: 32,
            sketch_capacity: 64,
        }));
        println!(
            "celebrity max/mean: {unreplicated:.2} unreplicated -> {replicated:.2} replicated"
        );
        assert!(
            unreplicated > replicated,
            "replication must reduce the imbalance ({unreplicated:.2} -> {replicated:.2})"
        );
        assert!(
            replicated <= 1.5,
            "celebrity with replication must flatten to max/mean <= 1.5, got {replicated:.2}"
        );
        assert!(hot_keys >= 1, "the celebrity key must be promoted");
        assert!(
            replica_share > 0.1,
            "p2c must spread a meaningful share of reads to replicas, got {:.1}%",
            replica_share * 100.0
        );
    }

    #[test]
    fn writes_invalidate_every_replica_with_no_stale_reads() {
        let hot = HotKeyConfig {
            replicas: 3,
            hot_key_threshold: 5,
            sketch_capacity: 32,
        };
        let (servers, client, db) = cluster_with(4, Some(hot));
        for _ in 0..20 {
            client.fetch(b"celebrity", &db).unwrap();
        }
        let replicas = client.replicas_of(b"celebrity").unwrap();
        assert!(replicas.len() > 1);
        client.put(b"celebrity", b"rewritten").unwrap();
        // The home holds the new value; every other replica was
        // invalidated, not left stale.
        let home = client.server_for(b"celebrity").index();
        assert_eq!(
            client.client(home).get(b"celebrity").unwrap().as_deref(),
            Some(&b"rewritten"[..])
        );
        for &s in replicas.iter().filter(|&&s| s != home) {
            assert_eq!(
                client.client(s).get(b"celebrity").unwrap(),
                None,
                "replica {s} must be invalidated"
            );
        }
        let stats = client.hot_key_stats().unwrap();
        assert_eq!(stats.invalidations, (replicas.len() - 1) as u64);
        // Subsequent fetches only ever see the new value (replicas are
        // backfilled from the home copy, never from a stale one).
        for _ in 0..20 {
            let (v, _) = client.fetch(b"celebrity", &db).unwrap();
            assert_eq!(&v[..], b"rewritten", "stale replica value resurfaced");
        }
        stop(servers);
    }

    #[test]
    fn transition_recomputes_replica_sets_against_the_new_ring() {
        let hot = HotKeyConfig {
            replicas: 2,
            hot_key_threshold: 5,
            sketch_capacity: 32,
        };
        let (servers, mut client, db) = cluster_with(4, Some(hot));
        let (value, _) = client.fetch(b"celebrity", &db).unwrap();
        for _ in 0..20 {
            client.fetch(b"celebrity", &db).unwrap();
        }
        assert!(client.replicas_of(b"celebrity").is_some());
        // Scale down: every replica must point inside the new active
        // prefix, and reads must keep serving the same value with zero
        // errors across the whole window.
        client.open_window(2).unwrap();
        let replicas = client.replicas_of(b"celebrity").unwrap();
        assert!(
            replicas.iter().all(|&s| s < 2),
            "replica set {replicas:?} must live in the active prefix"
        );
        let db_before = db.lock().total_fetches();
        for _ in 0..30 {
            let (v, _) = client.fetch(b"celebrity", &db).unwrap();
            assert_eq!(v, value);
        }
        assert_eq!(
            db.lock().total_fetches(),
            db_before,
            "the hot key must never fall through to the database"
        );
        client.end_transition();
        for _ in 0..10 {
            let (v, _) = client.fetch(b"celebrity", &db).unwrap();
            assert_eq!(v, value);
        }
        stop(servers);
    }
}
