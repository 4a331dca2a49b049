//! End-to-end tests of the live TCP tier, including the cross-check
//! that the wire implementation of Algorithm 2 agrees with the
//! in-memory reference router.

use std::collections::HashMap;

use parking_lot::Mutex;
use proteus::cache::{CacheConfig, CacheEngine};
use proteus::core::{Router, Scenario, TransitionManager};
use proteus::net::{CacheClient, CacheServer, ClusterClient, ClusterFetch};
use proteus::sim::SimTime;
use proteus::store::{ShardedStore, StoreConfig};

fn spawn_cluster(n: usize) -> (Vec<CacheServer>, Vec<std::net::SocketAddr>) {
    let servers: Vec<CacheServer> = (0..n)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap())
        .collect();
    let addrs = servers.iter().map(CacheServer::addr).collect();
    (servers, addrs)
}

#[test]
fn protocol_round_trip_with_binary_values() {
    let (servers, addrs) = spawn_cluster(1);
    let client = CacheClient::connect(addrs[0]).unwrap();
    let value: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
    client.set(b"binary", &value).unwrap();
    assert_eq!(client.get(b"binary").unwrap().as_deref(), Some(&value[..]));
    for s in servers {
        s.stop();
    }
}

#[test]
fn digest_travels_the_ordinary_data_protocol() {
    let (servers, addrs) = spawn_cluster(1);
    let client = CacheClient::connect(addrs[0]).unwrap();
    for i in 0..500u32 {
        client.set(format!("page:{i}").as_bytes(), b"x").unwrap();
    }
    let digest = client.snapshot_digest().unwrap().unwrap();
    for i in 0..500u32 {
        assert!(digest.contains(format!("page:{i}").as_bytes()));
    }
    let absent = (1000..2000u32)
        .filter(|i| digest.contains(format!("page:{i}").as_bytes()))
        .count();
    assert!(absent < 10, "{absent} false positives in 1000 probes");
    for s in servers {
        s.stop();
    }
}

#[test]
fn live_smooth_transition_has_zero_db_traffic_for_hot_keys() {
    let (servers, addrs) = spawn_cluster(4);
    let mut cluster = ClusterClient::connect(&addrs, Scenario::Proteus.strategy(4, 0)).unwrap();
    let db = Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 128,
        ..StoreConfig::default()
    }));
    let keys: Vec<Vec<u8>> = (0..150u32)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    for k in &keys {
        cluster.fetch(k, &db).unwrap();
    }
    let before = db.lock().total_fetches();
    cluster.begin_transition(3).unwrap();
    for k in &keys {
        let (_, how) = cluster.fetch(k, &db).unwrap();
        assert_ne!(how, ClusterFetch::Database);
    }
    assert_eq!(db.lock().total_fetches(), before);
    cluster.end_transition();
    for s in servers {
        s.stop();
    }
}

/// Two drivers, one history: `Router::fetch` on in-memory engines and
/// `ClusterClient::fetch` over sockets evaluate the same Algorithm 2
/// decision, so the same key sequence through warm → 4→3 → close →
/// 3→4 → close must classify identically, key for key. The
/// windows are opened with `open_window`: the reference router has no
/// background pull, and with one the classes would depend on timing.
#[test]
fn wire_and_reference_routers_agree() {
    let n = 4;
    let store = || {
        ShardedStore::new(StoreConfig {
            object_size: 128,
            ..StoreConfig::default()
        })
    };
    // Reference side.
    let router = Router::new(Scenario::Proteus.strategy(n, 0));
    let mut engines: Vec<CacheEngine> = (0..n)
        .map(|_| CacheEngine::new(CacheConfig::with_capacity(8 << 20)))
        .collect();
    let mut ref_db = store();
    let mut tm = TransitionManager::new(n, n);
    // Wire side.
    let (servers, addrs) = spawn_cluster(n);
    let mut wire = ClusterClient::connect(&addrs, Scenario::Proteus.strategy(n, 0)).unwrap();
    let wire_db = Mutex::new(store());

    let keys: Vec<Vec<u8>> = (0..120u32)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    let now = SimTime::ZERO;
    // Runs the whole key sequence through both drivers, checks they
    // agree, and returns how often each class occurred.
    let mut sweep = |phase: &str,
                     engines: &mut Vec<CacheEngine>,
                     tm: &TransitionManager,
                     wire: &ClusterClient| {
        let mut seen: HashMap<ClusterFetch, usize> = HashMap::new();
        for k in &keys {
            let reference = router.fetch(k, now, engines, &mut ref_db, tm, true);
            let expected = ClusterFetch::from(reference.class);
            let (value, class) = wire.fetch(k, &wire_db).unwrap();
            assert_eq!(class, expected, "{phase}: fetch {k:?}");
            assert_eq!(&value[..], &reference.value[..], "{phase}: {k:?}");
            *seen.entry(expected).or_default() += 1;
        }
        seen
    };

    let seen = sweep("warm", &mut engines, &tm, &wire);
    assert_eq!(seen[&ClusterFetch::Database], keys.len());

    // 4 -> 3. One key the departing server's digest vouches for is
    // deleted there before anyone asks: a forced false positive.
    let snapshots: Vec<_> = engines.iter().map(|e| Some(e.digest_snapshot())).collect();
    tm.begin(3, snapshots).unwrap();
    wire.open_window(3).unwrap();
    let vanished = keys
        .iter()
        .find(|k| router.server_for(k, 4).index() == 3)
        .expect("some key lives on the departing server");
    assert!(engines[3].delete(vanished));
    assert!(wire.client(3).delete(vanished).unwrap());
    let seen = sweep("4->3", &mut engines, &tm, &wire);
    assert_eq!(seen[&ClusterFetch::FalsePositive], 1);
    assert!(seen[&ClusterFetch::Migrated] > 0);
    assert_eq!(
        seen[&ClusterFetch::Hit] + seen[&ClusterFetch::Migrated] + 1,
        keys.len()
    );

    // Close: the departed server powers off and loses its contents.
    for server in tm.finalize() {
        engines[server].clear();
        wire.client(server).flush_all().unwrap();
    }
    assert_eq!(wire.end_transition().map(|w| (w.from, w.to)), Some((4, 3)));
    let seen = sweep("3 active", &mut engines, &tm, &wire);
    assert_eq!(seen[&ClusterFetch::Hit], keys.len());

    // 3 -> 4: the rejoining server starts cold and fills by migration.
    let snapshots: Vec<_> = engines.iter().map(|e| Some(e.digest_snapshot())).collect();
    tm.begin(4, snapshots).unwrap();
    wire.open_window(4).unwrap();
    let seen = sweep("3->4", &mut engines, &tm, &wire);
    assert!(seen[&ClusterFetch::Migrated] > 0);
    assert_eq!(
        seen[&ClusterFetch::Hit] + seen[&ClusterFetch::Migrated],
        keys.len()
    );
    assert!(tm.finalize().is_empty(), "a grow powers nobody off");
    wire.end_transition();
    let seen = sweep("4 active", &mut engines, &tm, &wire);
    assert_eq!(seen[&ClusterFetch::Hit], keys.len());

    assert_eq!(ref_db.total_fetches(), wire_db.lock().total_fetches());
    for s in servers {
        s.stop();
    }
}

/// A multi-key `get` must produce exactly the bytes of the N single
/// `get`s concatenated (each intermediate `END\r\n` removed, one final
/// `END`), with misses omitted — stock memcached clients depend on
/// this shape.
#[test]
fn multi_get_is_byte_identical_to_single_gets() {
    use std::io::{Read, Write};
    let (servers, addrs) = spawn_cluster(1);
    let client = CacheClient::connect(addrs[0]).unwrap();
    client.set(b"alpha", b"one").unwrap();
    client
        .set(b"gamma", &(0..=255u8).collect::<Vec<u8>>())
        .unwrap();
    client.set(b"delta", b"").unwrap();
    // "beta" and "omega" stay misses.
    let keys: [&[u8]; 5] = [b"alpha", b"beta", b"gamma", b"delta", b"omega"];

    let mut raw = std::net::TcpStream::connect(addrs[0]).unwrap();
    let mut read_single = |key: &[u8]| -> Vec<u8> {
        raw.write_all(b"get ").unwrap();
        raw.write_all(key).unwrap();
        raw.write_all(b"\r\n").unwrap();
        // Responses end with the first END line.
        let mut bytes = Vec::new();
        let mut one = [0u8; 1];
        loop {
            raw.read_exact(&mut one).unwrap();
            bytes.push(one[0]);
            if bytes.ends_with(b"END\r\n") {
                return bytes;
            }
        }
    };

    // Expected: single-get responses concatenated, inner ENDs dropped.
    let mut expected = Vec::new();
    for key in keys {
        let single = read_single(key);
        expected.extend_from_slice(&single[..single.len() - b"END\r\n".len()]);
    }
    expected.extend_from_slice(b"END\r\n");

    raw.write_all(b"get alpha beta gamma delta omega\r\n")
        .unwrap();
    let mut actual = vec![0u8; expected.len()];
    raw.read_exact(&mut actual).unwrap();
    assert_eq!(
        actual,
        expected,
        "multi-get bytes diverge: {:?} vs {:?}",
        String::from_utf8_lossy(&actual),
        String::from_utf8_lossy(&expected)
    );
    // The connection is still in sync: no stray bytes follow.
    raw.write_all(b"version\r\n").unwrap();
    let mut tail = [0u8; 8];
    raw.read_exact(&mut tail).unwrap();
    assert!(tail.starts_with(b"VERSION "), "{tail:?}");
    for s in servers {
        s.stop();
    }
}

/// The sharded server under fire: 8 client threads doing mixed
/// set/get/delete on disjoint key ranges while another thread loops
/// `get SET_BLOOM_FILTER` snapshots. No update may be lost, and the
/// final digest must match the final contents modulo Bloom false
/// positives.
#[test]
fn stress_concurrent_clients_with_snapshot_loop() {
    let (servers, addrs) = spawn_cluster(1);
    let addr = addrs[0];
    let threads = 8u32;
    let keys_per_thread = 120u32;
    let rounds = 3u32;

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let snapshotter = {
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let client = CacheClient::connect(addr).unwrap();
            let mut taken = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let digest = client.snapshot_digest().unwrap();
                assert!(digest.is_some(), "snapshot must always be available");
                taken += 1;
            }
            taken
        })
    };

    let workers: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let client = CacheClient::connect(addr).unwrap();
                for round in 0..rounds {
                    for i in 0..keys_per_thread {
                        let key = format!("t{t}:k{i}");
                        let value = format!("{t}:{i}:{round}");
                        client.set(key.as_bytes(), value.as_bytes()).unwrap();
                        // Read-your-write: the per-key shard lock makes
                        // this exact, snapshots notwithstanding.
                        assert_eq!(
                            client.get(key.as_bytes()).unwrap().as_deref(),
                            Some(value.as_bytes()),
                            "lost update on {key}"
                        );
                    }
                }
                // Final round: delete the odd keys.
                for i in (1..keys_per_thread).step_by(2) {
                    let key = format!("t{t}:k{i}");
                    assert!(client.delete(key.as_bytes()).unwrap(), "{key} vanished");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let snapshots = snapshotter.join().unwrap();
    assert!(snapshots > 0, "snapshot loop never completed a snapshot");

    // Verify final contents and digest agreement.
    let client = CacheClient::connect(addr).unwrap();
    let digest = client.snapshot_digest().unwrap().unwrap();
    let mut false_positives = 0u32;
    for t in 0..threads {
        for i in 0..keys_per_thread {
            let key = format!("t{t}:k{i}");
            let expected = format!("{t}:{i}:{}", rounds - 1);
            if i % 2 == 0 {
                assert_eq!(
                    client.get(key.as_bytes()).unwrap().as_deref(),
                    Some(expected.as_bytes()),
                    "wrong final value for {key}"
                );
                assert!(digest.contains(key.as_bytes()), "digest lost {key}");
            } else {
                assert_eq!(client.get(key.as_bytes()).unwrap(), None, "{key} undeleted");
                false_positives += u32::from(digest.contains(key.as_bytes()));
            }
        }
    }
    let deleted = threads * keys_per_thread / 2;
    assert!(
        false_positives * 20 < deleted,
        "{false_positives} false positives on {deleted} deleted keys"
    );
    for s in servers {
        s.stop();
    }
}

#[test]
fn concurrent_web_tier_against_one_cluster() {
    let (servers, addrs) = spawn_cluster(3);
    let cluster = std::sync::Arc::new(
        ClusterClient::connect(&addrs, Scenario::Proteus.strategy(3, 0)).unwrap(),
    );
    let db = std::sync::Arc::new(Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 64,
        ..StoreConfig::default()
    })));
    let mut handles = Vec::new();
    for t in 0..4 {
        let cluster = std::sync::Arc::clone(&cluster);
        let db = std::sync::Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..100u32 {
                let key = format!("page:{}", (t * 100 + i) % 150);
                let (value, _) = cluster.fetch(key.as_bytes(), &*db).unwrap();
                assert!(!value.is_empty());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for s in servers {
        s.stop();
    }
}
