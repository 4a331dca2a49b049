//! Algorithm 2 over sockets: [`ClusterClient::fetch`] pays one round
//! trip per lookup, [`ClusterClient::fetch_many`] pipelines them per
//! server. Both ask `probe_target` whether to go to the old server and
//! `fetch_class` what the answers amount to; what they add is the live
//! failure model (a transport failure is `Probe::Down`) and the trace.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::time::Instant;

use proteus_cache::SharedBytes;
use proteus_core::{fetch_class, FetchClass, Probe};
use proteus_obs::TraceKind;
use proteus_ring::ServerId;

use super::{class_kind, reachable, ClusterClient, ClusterFetch, DbFallback};
use crate::error::NetError;

/// One server's share of a pipelined batch: the server, the positions
/// (into the caller's `keys`) it was asked for, and its answers in the
/// same order — `None` if it could not be reached.
type GroupAnswers = (usize, Vec<usize>, Option<Vec<Option<SharedBytes>>>);

impl ClusterClient {
    /// Installs `value` at `server` on a best-effort basis: an
    /// unreachable server just costs the cache fill, never the
    /// request. Semantic errors still surface. The value is encoded
    /// from the caller's buffer — a migration re-`set` sends the
    /// allocation the `get` handed back, so the value crosses the web
    /// tier without ever being copied.
    pub(super) fn install(&self, server: usize, key: &[u8], value: &[u8]) -> Result<(), NetError> {
        if reachable(self.clients[server].set(key, value))?.is_none() {
            self.stats.dropped_installs.fetch_add(1, Ordering::Relaxed);
        }
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
                    // re-`set` at the new server.
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
        self.install(home.index(), key, value)?;
        // Outside a window the old mapping is the new one.
        let old = self.router.server_for(key, self.window.previous_active());
        if old != home {
            reachable(self.clients[old.index()].delete(key))?;
        }
        Ok(())
    }

    /// One pipelined multi-key get per server: every request is
    /// written before any response is awaited, overlapping the
    /// per-server round trips. A server that fails the send or the
    /// receive answers `None` for its whole group.
    fn get_groups(
        &self,
        keys: &[&[u8]],
        groups: HashMap<usize, Vec<usize>>,
    ) -> Result<Vec<GroupAnswers>, NetError> {
        let mut pending = Vec::with_capacity(groups.len());
        for (server, positions) in groups {
            let group_keys: Vec<&[u8]> = positions.iter().map(|&p| keys[p]).collect();
            let sent = reachable(self.clients[server].send_get_many(&group_keys))?;
            pending.push((server, positions, sent));
        }
        pending
            .into_iter()
            .map(|(server, positions, sent)| {
                let values = match sent {
                    Some(sent) => reachable(self.clients[server].recv_get_many(sent))?,
                    None => None,
                };
                Ok((server, positions, values))
            })
            .collect()
    }

    /// Batched Algorithm 2: fetches many keys with one pipelined
    /// multi-key get per involved server instead of one round trip per
    /// key. Keys are grouped by their new-mapping server and all
    /// requests are written before any response is awaited. The misses
    /// stay batched too: during a transition, old-server digest probes
    /// are pipelined per old server and the migration re-`set`s are
    /// batched per new server ([`CacheClient::set_many`]), so a batch
    /// that migrates M keys from one departing server pays two round
    /// trips, not 2·M. Only genuinely per-key work — database fetches
    /// and keys whose new-mapping server failed the batch — runs key
    /// by key.
    ///
    /// Per-server failures are isolated: one dead server degrades only
    /// its own key group (those keys take the single-key path, which
    /// serves them from the database), while every other group
    /// proceeds normally — and the dead server's circuit breaker makes
    /// the per-key fallback fail fast rather than paying a timeout per
    /// key.
    ///
    /// Results align with `keys`.
    ///
    /// # Errors
    ///
    /// Returns backing-store failures and semantic (non-transport)
    /// cache-server errors.
    ///
    /// [`CacheClient::set_many`]: crate::CacheClient::set_many
    pub fn fetch_many<D: DbFallback + ?Sized>(
        &self,
        keys: &[&[u8]],
        db: &D,
    ) -> Result<Vec<(SharedBytes, ClusterFetch)>, NetError> {
        // The new-mapping lookups. Batched hits are counted but not
        // timed: the round trip was shared by the whole group, so a
        // per-key latency would be fiction.
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for (pos, key) in keys.iter().enumerate() {
            groups
                .entry(self.server_for(key).index())
                .or_default()
                .push(pos);
        }
        let hit = ClusterFetch::from(fetch_class(Probe::Hit, None));
        let mut out: Vec<Option<(SharedBytes, ClusterFetch)>> = vec![None; keys.len()];
        let mut down: HashSet<usize> = HashSet::new();
        for (server, positions, values) in self.get_groups(keys, groups)? {
            let Some(values) = values else {
                down.insert(server);
                continue;
            };
            for (pos, value) in positions.into_iter().zip(values) {
                if let Some(data) = value {
                    self.fetches.count_only(class_kind(hit));
                    out[pos] = Some((data, hit));
                }
            }
        }
        // The remaining keys missed (or their server is down). Keys
        // whose new-mapping server failed keep the per-key path (the
        // tripped breaker fails fast, preserving the degraded
        // semantics); keys the window names an old server for are
        // grouped by it; everything else is an ordinary database miss.
        // Duplicate keys resolve once: the first unresolved position
        // of each distinct key is its representative; the rest mirror
        // its result at the end. Without this, N copies of one key in
        // a batch would fetch the database N times, migrate (and
        // trace, and count) the same key N times, and re-install it N
        // times.
        let mut rep_of: HashMap<&[u8], usize> = HashMap::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        let mut probe_groups: HashMap<usize, Vec<usize>> = HashMap::new();
        // (position, new server, old server asked, class) per cache miss.
        let mut from_database: Vec<(usize, usize, Option<usize>, FetchClass)> = Vec::new();
        for pos in 0..keys.len() {
            if out[pos].is_some() {
                continue;
            }
            let key = keys[pos];
            match rep_of.entry(key) {
                Entry::Occupied(rep) => {
                    dups.push((pos, *rep.get()));
                    continue;
                }
                Entry::Vacant(slot) => {
                    slot.insert(pos);
                }
            }
            let new_server = self.server_for(key);
            if down.contains(&new_server.index()) {
                out[pos] = Some(self.fetch(key, db)?);
                continue;
            }
            match self.window.probe_target(&self.router, key, new_server) {
                Some(old) => probe_groups.entry(old.index()).or_default().push(pos),
                None => {
                    let class = fetch_class(Probe::Miss, None);
                    from_database.push((pos, new_server.index(), None, class));
                }
            }
        }
        // Probe each old server with one pipelined multi-get instead of
        // one round trip per migrating key. Migration hits are re-`set`
        // in per-new-server batches below; digest false positives and
        // the groups of unreachable old servers join the database tail.
        let mut installs: HashMap<usize, Vec<(usize, usize, SharedBytes)>> = HashMap::new();
        for (old, positions, values) in self.get_groups(keys, probe_groups)? {
            let seen_down = values.is_none();
            let values = values.unwrap_or_else(|| vec![None; positions.len()]);
            for (pos, value) in positions.into_iter().zip(values) {
                let new_server = self.server_for(keys[pos]).index();
                match value {
                    Some(data) => installs
                        .entry(new_server)
                        .or_default()
                        .push((pos, old, data)),
                    None => {
                        let seen = if seen_down { Probe::Down } else { Probe::Miss };
                        let class = fetch_class(Probe::Miss, Some(seen));
                        from_database.push((pos, new_server, Some(old), class));
                    }
                }
            }
        }
        // The database tail is genuinely per-key work, so it is timed
        // under its class and recorded as the single-key path would.
        for (pos, new_server, old, class) in from_database {
            let begin = Instant::now();
            let resolved = self.db_fetch(keys[pos], db, new_server, old, class)?;
            self.fetches.record(class_kind(resolved.1), begin.elapsed());
            out[pos] = Some(resolved);
        }
        // Batched installs: one pipelined `set` batch per new server.
        // The shared buffers read off the old servers' sockets go to
        // the wire without copying, and a batch whose target server
        // fails is dropped whole (best effort, like `install`).
        let migrated = ClusterFetch::from(fetch_class(Probe::Miss, Some(Probe::Hit)));
        for (new_server, batch) in installs {
            let pairs: Vec<(&[u8], SharedBytes)> = batch
                .iter()
                .map(|(pos, _, data)| (keys[*pos], SharedBytes::clone(data)))
                .collect();
            if reachable(self.clients[new_server].set_many(&pairs))?.is_none() {
                self.stats
                    .dropped_installs
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
            }
            for (pos, old, data) in batch {
                self.tracer.record(TraceKind::KeyMigrated {
                    from: old as u32,
                    to: new_server as u32,
                });
                // Counted, not timed: the probe round trip and the
                // install were both shared by the group.
                self.fetches.count_only(class_kind(migrated));
                out[pos] = Some((data, migrated));
            }
        }
        // Duplicate positions mirror their representative's resolution
        // (same shared buffer, same class — counted so every position
        // is accounted exactly once, like the batched hits).
        for (pos, rep) in dups {
            let resolved = out[rep].clone().expect("representative resolved");
            self.fetches.count_only(class_kind(resolved.1));
            out[pos] = Some(resolved);
        }
        Ok(out
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{cluster, page_keys, stop};
    use super::*;

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
    fn fetch_many_matches_per_key_fetch() {
        let (servers, client, db) = cluster(3);
        let keys = page_keys(60);
        // Warm the even keys only.
        for k in keys.iter().step_by(2) {
            client.fetch(k, &db).unwrap();
        }
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let batched = client.fetch_many(&refs, &db).unwrap();
        assert_eq!(batched.len(), keys.len());
        for (i, (value, how)) in batched.iter().enumerate() {
            // Values always match a direct single-key fetch.
            let (single, _) = client.fetch(&keys[i], &db).unwrap();
            assert_eq!(value, &single, "key {i}");
            let expected = if i % 2 == 0 {
                ClusterFetch::Hit
            } else {
                ClusterFetch::Database
            };
            assert_eq!(*how, expected, "key {i}");
        }
        // The batch installed the misses; a re-run is all hits.
        for (_, how) in client.fetch_many(&refs, &db).unwrap() {
            assert_eq!(how, ClusterFetch::Hit);
        }
        stop(servers);
    }

    #[test]
    fn fetch_many_takes_more_keys_for_a_server_than_one_get_may_name() {
        let (servers, client, db) = cluster(2);
        let keys = page_keys(3000);
        let mut by_server: [Vec<(&[u8], SharedBytes)>; 2] = Default::default();
        for k in &keys {
            by_server[client.server_for(k).index()].push((k, SharedBytes::from(k.as_slice())));
        }
        for (server, pairs) in by_server.iter().enumerate() {
            assert!(pairs.len() > crate::protocol::MAX_GET_KEYS);
            client.client(server).set_many(pairs).unwrap();
        }
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        for (k, (value, how)) in keys.iter().zip(client.fetch_many(&refs, &db).unwrap()) {
            assert_eq!((&value[..], how), (k.as_slice(), ClusterFetch::Hit));
        }
        stop(servers);
    }

    #[test]
    fn fetch_many_migrates_during_transition() {
        let (servers, mut client, db) = cluster(4);
        let keys = page_keys(80);
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        let db_before = db.lock().total_fetches();
        client.open_window(3).unwrap();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut migrated = 0;
        for (_, how) in client.fetch_many(&refs, &db).unwrap() {
            assert_ne!(how, ClusterFetch::Database);
            if how == ClusterFetch::Migrated {
                migrated += 1;
            }
        }
        assert_eq!(db.lock().total_fetches(), db_before);
        assert!(migrated > 0, "the scale-down must move some keys");
        // The batched re-`set`s landed: the same batch is now all hits
        // at the new mapping, with zero dropped installs.
        for (_, how) in client.fetch_many(&refs, &db).unwrap() {
            assert_eq!(how, ClusterFetch::Hit);
        }
        assert_eq!(client.fault_stats().dropped_installs, 0);
        client.end_transition();
        stop(servers);
    }

    #[test]
    fn fetch_many_skips_migration_when_old_server_dies() {
        let (mut servers, mut client, db) = cluster(4);
        let keys = page_keys(80);
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        // The digest broadcast succeeds, then the departing server dies
        // before its keys migrate: the batched probe to it fails, and
        // every candidate key must degrade to the database exactly as
        // the single-key path would.
        client.open_window(3).unwrap();
        servers.remove(3).stop();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let results = client.fetch_many(&refs, &db).unwrap();
        let mut degraded = 0;
        for (value, how) in &results {
            assert!(!value.is_empty());
            match how {
                ClusterFetch::Hit => {}
                ClusterFetch::Degraded => degraded += 1,
                other => panic!("unexpected class {other:?}"),
            }
        }
        assert!(degraded > 0, "some keys lived on the departed server");
        let stats = client.fault_stats();
        assert_eq!(
            stats.skipped_migrations, degraded as u64,
            "every degraded key must be a skipped migration"
        );
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

    #[test]
    fn fetch_many_with_duplicate_keys_resolves_each_key_once_mid_transition() {
        let (servers, mut client, db) = cluster(4);
        let warm = page_keys(40);
        for k in &warm {
            client.fetch(k, &db).unwrap();
        }
        client.open_window(3).unwrap();
        // Each warm key three times, plus cold keys twice each, shuffled
        // into repeated runs so duplicates land in the same phase-3 pass.
        let cold: Vec<Vec<u8>> = (0..10u32)
            .map(|i| format!("cold:{i}").into_bytes())
            .collect();
        let mut batch: Vec<&[u8]> = Vec::new();
        for _ in 0..3 {
            batch.extend(warm.iter().map(Vec::as_slice));
        }
        for _ in 0..2 {
            batch.extend(cold.iter().map(Vec::as_slice));
        }
        let db_before = db.lock().total_fetches();
        let migrated_events = |client: &ClusterClient| {
            client
                .tracer()
                .events()
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::KeyMigrated { .. }))
                .count()
        };
        let migrated_before = migrated_events(&client);
        let results = client.fetch_many(&batch, &db).unwrap();
        assert_eq!(results.len(), batch.len());
        // Every duplicate position mirrors its representative exactly.
        let mut first: HashMap<&[u8], &(SharedBytes, ClusterFetch)> = HashMap::new();
        for (key, resolved) in batch.iter().zip(&results) {
            let rep = first.entry(key).or_insert(resolved);
            assert_eq!(rep.0, resolved.0, "duplicate value diverged");
            assert_eq!(rep.1, resolved.1, "duplicate class diverged");
        }
        // One database fetch per *unique* cold key, not per position.
        assert_eq!(
            db.lock().total_fetches() - db_before,
            cold.len() as u64,
            "duplicates must not multiply database fetches"
        );
        // And one migration per unique migrating key, not per position.
        let migrated_unique = first
            .values()
            .filter(|(_, how)| *how == ClusterFetch::Migrated)
            .count();
        assert!(migrated_unique > 0, "the scale-down must move some keys");
        assert_eq!(
            migrated_events(&client) - migrated_before,
            migrated_unique,
            "duplicates must not double-migrate"
        );
        // Values agree with the single-key path.
        for (key, (value, _)) in batch.iter().zip(&results) {
            let (single, _) = client.fetch(key, &db).unwrap();
            assert_eq!(value, &single);
        }
        client.end_transition();
        stop(servers);
    }

    #[test]
    fn fetch_many_isolates_a_dead_server_to_its_key_group() {
        let (mut servers, client, db) = cluster(3);
        let keys = page_keys(60);
        for k in &keys {
            client.fetch(k, &db).unwrap();
        }
        servers.remove(0).stop();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let results = client.fetch_many(&refs, &db).unwrap();
        for (k, (value, how)) in keys.iter().zip(&results) {
            assert!(!value.is_empty());
            if client.server_for(k).index() == 0 {
                assert_eq!(*how, ClusterFetch::Degraded, "dead group degrades");
            } else {
                assert_eq!(*how, ClusterFetch::Hit, "live groups are untouched");
            }
        }
        stop(servers);
    }
}
