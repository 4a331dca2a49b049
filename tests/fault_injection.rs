//! Fault-injection integration tests: the cluster must survive a cache
//! server dying mid-traffic — including mid-*transition* — with every
//! request still answered, bounded retries, and the circuit breaker
//! keeping connect pressure on the dead server to O(probes).
//!
//! Every cache server sits behind a [`FaultProxy`], so tests can
//! blackhole or reset one "server" at any moment without touching the
//! real process.

#[path = "../crates/obs/tests/prom_text/mod.rs"]
mod prom_text;

use parking_lot::Mutex;
use proteus::cache::CacheConfig;
use proteus::net::{CacheServer, ClientConfig, ClusterClient, ClusterFetch, FaultMode, FaultProxy};
use proteus::obs::to_prometheus;
use proteus::ring::ProteusPlacement;
use proteus::store::{ShardedStore, StoreConfig};

struct Rig {
    servers: Vec<CacheServer>,
    proxies: Vec<FaultProxy>,
    cluster: ClusterClient,
    db: Mutex<ShardedStore>,
}

fn rig(n: usize) -> Rig {
    let servers: Vec<CacheServer> = (0..n)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap())
        .collect();
    let proxies: Vec<FaultProxy> = servers
        .iter()
        .map(|s| FaultProxy::spawn(s.addr()).unwrap())
        .collect();
    let addrs: Vec<_> = proxies.iter().map(FaultProxy::addr).collect();
    let cluster = ClusterClient::connect_with(
        &addrs,
        Box::new(ProteusPlacement::generate(n)),
        ClientConfig::fast_failover(),
    )
    .unwrap();
    let db = Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 128,
        ..StoreConfig::default()
    }));
    Rig {
        servers,
        proxies,
        cluster,
        db,
    }
}

impl Rig {
    fn teardown(self) {
        drop(self.cluster);
        for p in self.proxies {
            p.stop();
        }
        for s in self.servers {
            s.stop();
        }
    }
}

fn hot_keys(n: u32) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("page:{i}").into_bytes()).collect()
}

/// A writable backing store for staleness tests: the test can advance
/// a key to a new version, so any later read of the old bytes is a
/// provable stale copy rather than an honest authoritative answer.
#[derive(Default)]
struct VersionedDb {
    values: Mutex<std::collections::HashMap<Vec<u8>, Vec<u8>>>,
    fetches: std::sync::atomic::AtomicU64,
}

impl VersionedDb {
    fn set(&self, key: &[u8], value: &[u8]) {
        self.values.lock().insert(key.to_vec(), value.to_vec());
    }

    fn fetches(&self) -> u64 {
        self.fetches.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl proteus::net::DbFallback for VersionedDb {
    fn fetch(&self, key: &[u8]) -> Result<Vec<u8>, proteus::net::NetError> {
        self.fetches
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(self.values.lock().get(key).cloned().unwrap_or_default())
    }
}

/// A write inside a window deletes the key from its old-mapping
/// server. Otherwise the old server's digest, snapshotted when the
/// window opened, still vouches for the key there, and a fetch that
/// misses at the new home would migrate the stale copy back.
#[test]
fn a_put_inside_a_window_leaves_no_stale_copy_on_the_old_server() {
    let mut r = rig(4);
    let key = hot_keys(1000)
        .into_iter()
        .find(|k| r.cluster.server_for(k).index() == 3)
        .expect("some key lives on server 3");
    let db = VersionedDb::default();
    db.set(&key, b"v1");
    r.cluster.fetch(&key, &db).unwrap();
    assert_eq!(r.cluster.fetch(&key, &db).unwrap().1, ClusterFetch::Hit);

    // No pull: it would move the key itself and hide the rule.
    r.cluster.open_window(3).unwrap();
    db.set(&key, b"v2");
    r.cluster.put(&key, b"v2").unwrap();
    // The new home restarts empty.
    let home = r.cluster.server_for(&key).index();
    r.cluster.client(home).flush_all().unwrap();

    let db_before = db.fetches();
    let (value, how) = r.cluster.fetch(&key, &db).unwrap();
    assert_eq!(
        (String::from_utf8_lossy(&value).as_ref(), how),
        ("v2", ClusterFetch::FalsePositive),
        "server 3's digest still vouches for the key, but the write deleted it there"
    );
    assert_eq!(db.fetches(), db_before + 1);
    r.cluster.end_transition();
    r.teardown();
}

/// The headline scenario from the issue: a 4-server warmed cluster
/// begins a 4→3 transition, the departing server goes dark mid-window,
/// and a full sweep of the hot set still answers every request — some
/// migrated, some degraded to the database, none errored.
#[test]
fn server_death_mid_transition_degrades_but_never_errors() {
    let mut r = rig(4);
    let keys = hot_keys(200);
    for k in &keys {
        r.cluster.fetch(k, &r.db).unwrap();
    }
    // Opened without the background pull: it would have moved most of
    // these keys before the server dies, and dials the server itself.
    r.cluster.open_window(3).unwrap();

    // Mid-transition, the departing server (old-mapping index 3) dies:
    // it accepts connections but never answers another byte.
    r.proxies[3].set_mode(FaultMode::Blackhole);
    let accepted_before = r.proxies[3].connections_accepted();

    let mut counts = std::collections::HashMap::new();
    for k in &keys {
        let (value, how) = r.cluster.fetch(k, &r.db).unwrap_or_else(|e| {
            panic!("request for {:?} errored: {e}", String::from_utf8_lossy(k))
        });
        assert!(!value.is_empty());
        *counts.entry(how).or_insert(0u32) += 1;
    }
    // Every key resolved into one of the four classes; keys that
    // needed the dead server for migration show up as Degraded.
    let degraded = counts.get(&ClusterFetch::Degraded).copied().unwrap_or(0);
    assert!(degraded > 0, "some hot keys lived only on the dead server");
    let answered: u32 = counts.values().sum();
    assert_eq!(answered, keys.len() as u32);

    // The circuit breaker caps connect pressure on the dead server:
    // a handful of dials (initial failures + cooldown probes), not one
    // per degraded request.
    let dials = r.proxies[3].connections_accepted() - accepted_before;
    assert!(
        dials <= 10,
        "breaker should bound dials to the dead server, saw {dials}"
    );
    let stats = r.cluster.fault_stats();
    assert!(stats.breaker_trips > 0, "the dead server's breaker opened");
    assert!(
        stats.fast_fails > 0,
        "later requests must fast-fail through the open breaker"
    );
    assert_eq!(stats.degraded_fetches, u64::from(degraded));
    // The client's exposition carries the same snapshot, strictly typed.
    let body = to_prometheus(&r.cluster.metric_source()());
    let families = prom_text::read(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    for (name, value) in [
        ("proteus_client_retries_total", stats.retries),
        ("proteus_client_breaker_trips_total", stats.breaker_trips),
        ("proteus_client_fast_fails_total", stats.fast_fails),
    ] {
        let family = families.iter().find(|f| f.name == name);
        let family = family.unwrap_or_else(|| panic!("no {name} in\n{body}"));
        assert_eq!(family.samples[0].value, value as f64, "{name}");
    }

    // A second sweep is served without the dead server at all: every
    // key is now installed at its new-mapping server.
    for k in &keys {
        let (_, how) = r.cluster.fetch(k, &r.db).unwrap();
        assert!(
            matches!(how, ClusterFetch::Hit | ClusterFetch::Database),
            "second sweep should not need migration, got {how:?}"
        );
    }
    r.cluster.end_transition();
    r.teardown();
}

/// A *surviving* server dying outside any transition: its share of the
/// key space degrades to the database, every other server keeps
/// serving hits, and recovery is automatic once the server returns.
#[test]
fn dead_then_revived_server_heals_without_intervention() {
    let r = rig(3);
    let keys = hot_keys(120);
    for k in &keys {
        r.cluster.fetch(k, &r.db).unwrap();
    }

    r.proxies[0].set_mode(FaultMode::Reset);
    let mut degraded = 0u32;
    for k in &keys {
        let (_, how) = r.cluster.fetch(k, &r.db).unwrap();
        match how {
            ClusterFetch::Degraded => degraded += 1,
            ClusterFetch::Hit => {}
            other => panic!("unexpected class {other:?}"),
        }
        if r.cluster.server_for(k).index() == 0 {
            assert_eq!(how, ClusterFetch::Degraded);
        }
    }
    assert!(degraded > 0);

    // Server comes back; the breaker's next probe closes the circuit
    // and the keys repopulate on demand.
    r.proxies[0].set_mode(FaultMode::Forward);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(15);
    loop {
        let all_hits = keys.iter().all(|k| {
            matches!(
                r.cluster.fetch(k, &r.db),
                Ok((_, ClusterFetch::Hit | ClusterFetch::Database))
            )
        });
        if all_hits {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "cluster never healed after the server returned"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    r.teardown();
}

/// The digest broadcast at `begin_transition` must overlap the
/// per-server round trips: with every server behind a 150ms-per-request
/// proxy, a snapshot costs ~300ms per server (two delayed requests), so
/// a serial 4-server broadcast needs >= ~1.2s while the parallel one
/// finishes in roughly one server's time.
#[test]
fn digest_broadcast_overlaps_slow_servers() {
    use std::time::{Duration, Instant};
    let delay = Duration::from_millis(150);
    let servers: Vec<CacheServer> = (0..4)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap())
        .collect();
    let proxies: Vec<FaultProxy> = servers
        .iter()
        .map(|s| FaultProxy::spawn(s.addr()).unwrap())
        .collect();
    let addrs: Vec<_> = proxies.iter().map(FaultProxy::addr).collect();
    // Generous timeouts: the injected latency must read as slowness,
    // not as a transport failure.
    let config = ClientConfig {
        op_timeout: Duration::from_secs(5),
        connect_timeout: Duration::from_secs(1),
        max_retries: 0,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        breaker_threshold: 10,
        breaker_cooldown: Duration::from_secs(1),
    };
    let mut cluster =
        ClusterClient::connect_with(&addrs, Box::new(ProteusPlacement::generate(4)), config)
            .unwrap();
    for proxy in &proxies {
        proxy.set_mode(FaultMode::Latency(delay));
    }

    let begin = Instant::now();
    cluster.begin_transition(3).unwrap();
    let elapsed = begin.elapsed();

    assert_eq!(
        cluster.fault_stats().missing_digests,
        0,
        "every slow-but-alive server must deliver its digest"
    );
    // Parallel floor is ~2x delay (one server's two requests); the
    // serial broadcast would need at least 8x delay. Split the
    // difference with headroom for a loaded CI machine.
    assert!(
        elapsed < delay * 5,
        "broadcast must overlap per-server round trips, took {elapsed:?}"
    );
    cluster.end_transition();
    drop(cluster);
    for p in proxies {
        p.stop();
    }
    for s in servers {
        s.stop();
    }
}

/// Flaky-but-alive failure modes: added latency slows requests without
/// errors, and a mid-response cut is retried (or degraded) — never
/// surfaced to the caller.
#[test]
fn latency_and_cut_responses_stay_invisible_to_callers() {
    let r = rig(2);
    let keys = hot_keys(40);
    for k in &keys {
        r.cluster.fetch(k, &r.db).unwrap();
    }

    r.proxies[0].set_mode(FaultMode::Latency(std::time::Duration::from_millis(5)));
    for k in &keys {
        let (_, how) = r.cluster.fetch(k, &r.db).unwrap();
        assert!(matches!(how, ClusterFetch::Hit | ClusterFetch::Database));
    }

    r.proxies[0].set_mode(FaultMode::CutResponses(2));
    for k in &keys {
        // Truncated responses surface inside the client as transport
        // failures; the cluster client must still answer the request.
        let (value, _) = r.cluster.fetch(k, &r.db).unwrap();
        assert!(!value.is_empty());
    }
    assert!(r.proxies[0].responses_cut() > 0 || r.cluster.fault_stats().fast_fails > 0);
    r.teardown();
}
