//! Algorithm 2 over sockets: [`ClusterClient::fetch`] pays one round
//! trip per lookup. It asks `probe_target` whether to go to the old
//! server and `fetch_class` what the answers amount to; what it adds is
//! the live failure model (a transport failure is `Probe::Down`) and
//! the trace.

use std::sync::atomic::Ordering;
use std::time::Instant;

use proteus_cache::SharedBytes;
use proteus_core::{fetch_class, FetchClass, Probe};
use proteus_obs::TraceKind;
use proteus_ring::ServerId;

use super::{class_kind, reachable, ClusterClient, ClusterFetch, DbFallback};
use crate::error::NetError;

impl ClusterClient {
    /// Installs a fill or a migrated `value` at `server` with `add`,
    /// never `set`: a value read before a concurrent `put` must not
    /// overwrite the newer one that `put` stored (the look-aside "stale
    /// set"). A key already present counts in `fills_superseded`. Best
    /// effort: an unreachable server just costs the cache fill, never
    /// the request; semantic errors still surface. The value is encoded
    /// from the caller's buffer — a migration sends the allocation the
    /// `get` handed back, so the value crosses the web tier without
    /// ever being copied.
    fn install(&self, server: usize, key: &[u8], value: &[u8]) -> Result<(), NetError> {
        let counter = match reachable(self.clients[server].add(key, value))? {
            None => &self.stats.dropped_installs,
            Some(false) => &self.stats.fills_superseded,
            Some(true) => return Ok(()),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// One lookup as Algorithm 2 sees it: what the server answered,
    /// and the value if it had one.
    fn lookup(&self, server: usize, key: &[u8]) -> Result<(Probe, Option<SharedBytes>), NetError> {
        Ok(match reachable(self.clients[server].get(key))? {
            Some(found) => (Probe::answered(found.is_some()), found),
            None => (Probe::Down, None),
        })
    }

    /// Algorithm 2's database tail for a fetch classified `class`:
    /// fetches from the database and best-effort installs at the
    /// new-mapping server. A degraded fetch is counted and traced by
    /// the server that was down: `old_server` if the migration source
    /// was asked, the new-mapping server otherwise.
    fn db_fetch<D: DbFallback + ?Sized>(
        &self,
        key: &[u8],
        db: &D,
        new_server: usize,
        old_server: Option<usize>,
        class: FetchClass,
    ) -> Result<(SharedBytes, ClusterFetch), NetError> {
        if class == FetchClass::Degraded {
            self.stats.degraded_fetches.fetch_add(1, Ordering::Relaxed);
            self.tracer.record(match old_server {
                // The departing server died early; its hot keys fall
                // through to the database.
                Some(old) => {
                    self.stats
                        .skipped_migrations
                        .fetch_add(1, Ordering::Relaxed);
                    TraceKind::MigrationSkipped { server: old as u32 }
                }
                None => TraceKind::Degraded {
                    server: new_server as u32,
                },
            });
        }
        let value: SharedBytes = db.fetch(key)?.into();
        self.install(new_server, key, &value)?;
        Ok((value, class.into()))
    }

    /// Algorithm 2 against live servers: new server first; during a
    /// transition the old server's digest decides whether to migrate on
    /// demand; the backing store is the last resort. The value is
    /// installed at the new server on every non-hit path.
    ///
    /// Failure semantics: a transport failure at the new-mapping
    /// server degrades straight to the database
    /// ([`ClusterFetch::Degraded`]); a transport failure at the old
    /// server mid-transition skips the migration and falls through to
    /// the database likewise. A request only errors if the **database**
    /// errors (or a server returns a semantic error).
    ///
    /// # Errors
    ///
    /// Returns backing-store failures and semantic (non-transport)
    /// cache-server errors.
    pub fn fetch<D: DbFallback + ?Sized>(
        &self,
        key: &[u8],
        db: &D,
    ) -> Result<(SharedBytes, ClusterFetch), NetError> {
        let begin = Instant::now();
        let new_server = self.server_for(key);
        let home = new_server.index();
        let (new, mut value) = self.lookup(home, key)?;
        // With the new server down there is no point attempting a
        // migration either — there is nowhere to install it.
        let target = if new == Probe::Miss {
            self.window.probe_target(&self.router, key, new_server)
        } else {
            None
        };
        let mut old = None;
        if let Some(server) = target {
            let (seen, found) = self.lookup(server.index(), key)?;
            old = Some(seen);
            value = found;
        }
        let class = fetch_class(new, old);
        let (value, class) = match value {
            None => self.db_fetch(key, db, home, target.map(ServerId::index), class)?,
            Some(value) => {
                if let Some(from) = target {
                    // Same allocation all the way through: the buffer
                    // read off the old server's socket is the one
                    // installed at the new server.
                    self.install(home, key, &value)?;
                    self.tracer.record(TraceKind::KeyMigrated {
                        from: from.index() as u32,
                        to: home as u32,
                    });
                }
                (value, class.into())
            }
        };
        self.fetches.record(class_kind(class), begin.elapsed());
        Ok((value, class))
    }

    /// Stores `value` at `key`'s home server and — mid-transition —
    /// deletes it from the old-mapping server, whose digest could
    /// otherwise resurrect the stale value through an on-demand
    /// migration. That is the only other copy a reader could find, so
    /// it is at most one `delete`.
    ///
    /// The write and the delete are best-effort on transport failures
    /// (a dead server serves nothing; the paper's failure model treats
    /// it as a miss), so a write never errors because a server is down.
    ///
    /// # Errors
    ///
    /// Returns semantic (non-transport) cache-server errors.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), NetError> {
        let home = self.server_for(key);
        if reachable(self.clients[home.index()].set(key, value))?.is_none() {
            self.stats.dropped_installs.fetch_add(1, Ordering::Relaxed);
        }
        // Outside a window the old mapping is the new one.
        let old = self.router.server_for(key, self.window.previous_active());
        if old != home {
            reachable(self.clients[old.index()].delete(key))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{cluster, page_keys, stop};
    use super::*;
    use parking_lot::Mutex;
    use std::time::Duration;

    /// A database a writer races: `fetch` reads the committed value,
    /// then — before returning it — commits the next one and `put`s it
    /// through the same client, as a concurrent writer would.
    struct RacingDb<'a> {
        client: &'a ClusterClient,
        committed: Mutex<Vec<u8>>,
        next: Vec<u8>,
    }

    impl DbFallback for RacingDb<'_> {
        fn fetch(&self, key: &[u8]) -> Result<Vec<u8>, NetError> {
            let read = std::mem::replace(&mut *self.committed.lock(), self.next.clone());
            self.client.put(key, &self.next)?;
            Ok(read)
        }
    }

    #[test]
    fn a_fill_never_overwrites_the_put_that_raced_it() {
        let (servers, client, _) = cluster(2);
        let db = RacingDb {
            client: &client,
            committed: Mutex::new(b"v1".to_vec()),
            next: b"v2".to_vec(),
        };
        let (read, how) = client.fetch(b"page:race", &db).unwrap();
        assert_eq!((&read[..], how), (&b"v1"[..], ClusterFetch::Database));
        // The cache holds what the database holds, not the older read.
        let (cached, how) = client.fetch(b"page:race", &db).unwrap();
        assert_eq!((&cached[..], how), (&b"v2"[..], ClusterFetch::Hit));
        let stats = client.fault_stats();
        assert_eq!((stats.fills_superseded, stats.dropped_installs), (1, 0));
        stop(servers);
    }

    #[test]
    fn a_migration_never_overwrites_the_put_that_raced_it() {
        // Two servers, the old one behind a proxy that delays every
        // request 200 ms. A shrink to one server leaves the key on the
        // old server; a fetch reads it there (v1) while a `put` stores
        // v2 at home, so the migration reaches home after the `put`.
        // The `put` starts once home has answered the fetch's miss and
        // the old server's `get` is in the proxy: its home `set` lands
        // long before the `get`'s answer, its old-server `delete` long
        // after the `get`.
        use crate::fault::{FaultMode, FaultProxy};
        use crate::server::CacheServer;
        use proteus_cache::CacheConfig;
        use proteus_ring::ProteusPlacement;
        const DELAY: Duration = Duration::from_millis(200);
        let config = || CacheConfig::with_capacity(4 << 20);
        let home = CacheServer::spawn("127.0.0.1:0", config()).unwrap();
        let old = CacheServer::spawn("127.0.0.1:0", config()).unwrap();
        let proxy = FaultProxy::spawn(old.addr()).unwrap();
        let mut client = ClusterClient::connect_with(
            &[home.addr(), proxy.addr()],
            Box::new(ProteusPlacement::generate(2)),
            crate::ClientConfig::default(),
        )
        .unwrap();
        let key = page_keys(64)
            .into_iter()
            .find(|k| client.server_for(k).index() == 1)
            .expect("a key of the second server");
        client.put(&key, b"v1").unwrap();
        client.open_window(1).unwrap();
        proxy.set_mode(FaultMode::Latency(DELAY));
        let db = Mutex::new(proteus_store::ShardedStore::new(Default::default()));
        let misses = || home.with_engine(|e| e.stats().misses);
        let missed = misses();
        std::thread::scope(|scope| {
            let fetch = scope.spawn(|| client.fetch(&key, &db).unwrap());
            while misses() == missed {
                std::thread::yield_now();
            }
            std::thread::sleep(DELAY / 4);
            client.put(&key, b"v2").unwrap();
            let (read, how) = fetch.join().unwrap();
            assert_eq!((&read[..], how), (&b"v1"[..], ClusterFetch::Migrated));
        });
        let (cached, how) = client.fetch(&key, &db).unwrap();
        assert_eq!((&cached[..], how), (&b"v2"[..], ClusterFetch::Hit));
        assert_eq!(client.fault_stats().fills_superseded, 1);
        drop(client);
        proxy.stop();
        stop(vec![home, old]);
    }

    #[test]
    fn fetch_cold_then_hot() {
        let (servers, client, db) = cluster(3);
        let (v1, how1) = client.fetch(b"page:1", &db).unwrap();
        assert_eq!(how1, ClusterFetch::Database);
        let (v2, how2) = client.fetch(b"page:1", &db).unwrap();
        assert_eq!(how2, ClusterFetch::Hit);
        assert_eq!(v1, v2);
        stop(servers);
    }

    #[test]
    fn live_scale_down_migrates_hot_keys_with_zero_db_traffic() {
        let (servers, mut client, db) = cluster(4);
        let keys = page_keys(100);
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        let db_before = db.lock().total_fetches();
        // Scale 4 -> 3 with digest broadcast over the real protocol.
        client.open_window(3).unwrap();
        for k in &keys {
            let (_, how) = client.fetch(k, &db).unwrap();
            assert_ne!(
                how,
                ClusterFetch::Database,
                "hot key {:?} must not reach the database",
                String::from_utf8_lossy(k)
            );
        }
        assert_eq!(
            db.lock().total_fetches(),
            db_before,
            "zero database traffic during the smooth transition"
        );
        // And the amortization property: the keys now all hit directly.
        for k in &keys {
            let (_, how) = client.fetch(k, &db).unwrap();
            assert_eq!(how, ClusterFetch::Hit);
        }
        client.end_transition();
        stop(servers);
    }

    #[test]
    fn dead_server_degrades_to_database_not_error() {
        let (mut servers, client, db) = cluster(3);
        let keys = page_keys(60);
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        // Kill server 1; its keys must degrade to the DB, the rest hit.
        servers.remove(1).stop();
        let mut degraded = 0;
        let mut hits = 0;
        for k in &keys {
            let (value, how) = client.fetch(k, &db).unwrap();
            assert!(!value.is_empty());
            match how {
                ClusterFetch::Degraded => degraded += 1,
                ClusterFetch::Hit => hits += 1,
                other => panic!("unexpected class {other:?} for {k:?}"),
            }
            if client.server_for(k).index() == 1 {
                assert_eq!(how, ClusterFetch::Degraded);
            }
        }
        assert!(degraded > 0, "some keys lived on the dead server");
        assert!(hits > 0, "other servers keep serving");
        let stats = client.fault_stats();
        assert_eq!(stats.degraded_fetches, degraded);
        assert!(
            stats.breaker_trips >= 1,
            "repeated failures must trip the dead server's breaker"
        );
        stop(servers);
    }
}
