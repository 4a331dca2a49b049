//! The probe pass: tight loops over each crate's public functions on
//! generated keys and values, one number per layer row.
//!
//! Every timing is the median of [`BATCHES`] batches. The probes do not
//! depend on the workload being run, so the same rows appear — and
//! should read the same — in every traced run; what a probe's row
//! should move end to end is written down in the README's interaction
//! table.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proteus_agg::{
    http_get, merge_metrics, parse_metrics, ClusterObserver, ObserverConfig, METRICS_PATH,
};
use proteus_bloom::{CountingBloomFilter, DigestSnapshot};
use proteus_cache::{CacheConfig, ShardedEngine, StorageKind};
use proteus_ctl::{PolicyConfig, PolicyInput, WallPolicy};
use proteus_net::{
    parse_raw_command, read_response_buffered, uring_supported, CacheClient, CacheServer,
    ClusterFetch, EngineKind, ResponseWriter, ServerConfig, SharedBytes, WireBuf,
};
use proteus_obs::{to_json, MetricsServer, OpClass, OpLatencies};
use proteus_ring::hash::KeyHasher;
use proteus_ring::{PlacementStrategy, ProteusPlacement};
use proteus_sim::{SimDuration, SimRng, SimTime};
use proteus_store::{ShardedStore, StoreConfig};
use proteus_workload::{CompressedDay, DiurnalCurve, ReplayPacer, ZipfSampler};

use crate::alloc_count::{self, AllocCounts};
use crate::cluster::{Cluster, SERVERS};
use crate::reduce::{median, quantile_of};
use crate::single::{default_server, SERVER_CAPACITY_BYTES};
use crate::values::{key_bytes, Sizes, ValueSpace, KEY_LEN};

const BATCHES: usize = 7;
const PROBE_KEYS: usize = 20_000;
const VALUE_BYTES: usize = 256;
/// How long each data plane is driven at depth 1.
const PLANE_WINDOW: Duration = Duration::from_millis(700);

pub type Rows = Vec<(&'static str, f64)>;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches of
/// `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let begin = Instant::now();
            for i in 0..iters {
                f(i);
            }
            begin.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_batch).expect("at least one batch")
}

/// Median nanoseconds of one call of `f`, over [`BATCHES`] calls.
fn ns_once<T>(mut f: impl FnMut() -> T) -> f64 {
    ns_per_call(1, |_| {
        std::hint::black_box(f());
    })
}

fn p50_us(latencies_ns: &mut [u64]) -> f64 {
    quantile_of(latencies_ns, 0.5).unwrap_or(0) as f64 / 1e3
}

/// Program-thread allocations per call of `f`.
fn allocs_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let before = AllocCounts::now();
    for i in 0..iters {
        f(i);
    }
    AllocCounts::now().since(before).program as f64 / iters as f64
}

pub fn run(seed: u64, notes: &mut Vec<String>) -> Result<Rows, String> {
    // The probes call the program directly: their allocations are the
    // program's, whatever this thread did before.
    alloc_count::set_generator(false);
    let values = Arc::new(ValueSpace::new(seed, PROBE_KEYS, Sizes::Fixed(VALUE_BYTES)));
    let keys: Vec<[u8; KEY_LEN]> = (0..PROBE_KEYS).map(key_bytes).collect();
    let mut rows = Rows::new();
    ring(&keys, &mut rows);
    bloom(&keys, &mut rows);
    cache(&keys, &values, &mut rows);
    protocol(&keys, &values, &mut rows);
    planes(&keys, &values, notes, &mut rows)?;
    let get_p50 = client(&keys, &values, &mut rows)?;
    cluster(seed, get_p50, &mut rows)?;
    store_and_workload(seed, &keys, &mut rows);
    telemetry(&mut rows)?;
    syscall(&mut rows).map_err(|e| format!("syscall probe: {e}"))?;
    Ok(rows)
}

fn ring(keys: &[[u8; KEY_LEN]], rows: &mut Rows) {
    let hasher = KeyHasher::new(0);
    rows.push((
        "ring.hash_ns",
        ns_per_call(keys.len(), |i| {
            std::hint::black_box(hasher.hash_bytes(&keys[i]));
        }),
    ));
    let placement = ProteusPlacement::generate(SERVERS);
    let hashes: Vec<u64> = keys.iter().map(|k| hasher.hash_bytes(k)).collect();
    let strategy: &dyn PlacementStrategy = &placement;
    rows.push((
        "ring.lookup_ns",
        ns_per_call(hashes.len(), |i| {
            std::hint::black_box(strategy.server_for(hashes[i], SERVERS - (i & 1)));
        }),
    ));
    rows.push((
        "ring.generate_ms",
        ns_once(|| ProteusPlacement::generate(SERVERS)) / 1e6,
    ));
}

fn bloom(keys: &[[u8; KEY_LEN]], rows: &mut Rows) {
    // The digest a default server keeps.
    let config = CacheConfig::with_capacity(SERVER_CAPACITY_BYTES).digest;
    let mut filter = CountingBloomFilter::new(config);
    // Insert and remove the same resident set each batch, so the
    // filter's load is that of a warm server, not a growing one.
    let resident = &keys[..keys.len() / 2];
    let mut insert = Vec::new();
    let mut remove = Vec::new();
    for _ in 0..BATCHES {
        let begin = Instant::now();
        resident.iter().for_each(|k| filter.insert(k));
        insert.push(begin.elapsed().as_nanos() as f64 / resident.len() as f64);
        let begin = Instant::now();
        resident.iter().for_each(|k| filter.remove(k));
        remove.push(begin.elapsed().as_nanos() as f64 / resident.len() as f64);
    }
    rows.push(("bloom.insert_ns", median(&insert).expect("batches ran")));
    rows.push(("bloom.remove_ns", median(&remove).expect("batches ran")));
    resident.iter().for_each(|k| filter.insert(k));
    let snapshot = filter.snapshot();
    rows.push((
        "bloom.contains_ns",
        ns_per_call(keys.len(), |i| {
            std::hint::black_box(snapshot.contains(&keys[i]));
        }),
    ));
    let bytes = DigestSnapshot::from_filter(&snapshot).to_bytes();
    rows.push((
        "bloom.encode_ms",
        ns_once(|| DigestSnapshot::from_filter(&snapshot).to_bytes()) / 1e6,
    ));
    rows.push((
        "bloom.decode_ms",
        ns_once(|| DigestSnapshot::from_bytes(&bytes).expect("own encoding decodes")) / 1e6,
    ));
    rows.push(("bloom.snapshot_bytes", bytes.len() as f64));
}

fn cache(keys: &[[u8; KEY_LEN]], values: &ValueSpace, rows: &mut Rows) {
    let now = SimTime::ZERO;
    let engine = ShardedEngine::new(
        CacheConfig::with_capacity(SERVER_CAPACITY_BYTES).storage(StorageKind::Slab),
    );
    let (resident, absent) = keys.split_at(keys.len() / 2);
    for (i, key) in resident.iter().enumerate() {
        engine.put(key, values.value(i), now);
    }
    rows.push((
        "cache.get_hit_ns",
        ns_per_call(resident.len(), |i| {
            std::hint::black_box(engine.get(&resident[i], now));
        }),
    ));
    rows.push((
        "cache.get_miss_ns",
        ns_per_call(absent.len(), |i| {
            std::hint::black_box(engine.get(&absent[i], now));
        }),
    ));
    rows.push((
        "cache.put_overwrite_ns",
        ns_per_call(resident.len(), |i| {
            engine.put(&resident[i], values.value(i), now);
        }),
    ));
    rows.push((
        "cache.allocs_per_get",
        allocs_per_call(resident.len(), |i| {
            std::hint::black_box(engine.get(&resident[i], now));
        }),
    ));
    rows.push((
        "cache.allocs_per_put",
        allocs_per_call(resident.len(), |i| {
            engine.put(&resident[i], values.value(i), now);
        }),
    ));
    // Delete then put back, timing only the delete.
    let mut delete = Vec::new();
    for _ in 0..BATCHES {
        let begin = Instant::now();
        resident.iter().for_each(|k| {
            engine.delete(k);
        });
        delete.push(begin.elapsed().as_nanos() as f64 / resident.len() as f64);
        for (i, key) in resident.iter().enumerate() {
            engine.put(key, values.value(i), now);
        }
    }
    rows.push(("cache.delete_ns", median(&delete).expect("batches ran")));
    rows.push((
        "cache.digest_snapshot_ms",
        ns_once(|| engine.digest_snapshot()) / 1e6,
    ));

    // A small cache kept full: every put of a fresh key evicts.
    let full = ShardedEngine::new(CacheConfig::with_capacity(4 << 20).storage(StorageKind::Slab));
    let mut fresh = 0usize;
    let mut put_fresh = |_: usize| {
        full.put(&key_bytes(fresh), values.value(fresh % PROBE_KEYS), now);
        fresh += 1;
    };
    (0..40_000).for_each(&mut put_fresh);
    rows.push(("cache.put_evict_ns", ns_per_call(10_000, put_fresh)));
}

fn protocol(keys: &[[u8; KEY_LEN]], values: &ValueSpace, rows: &mut Rows) {
    let gets: Vec<Vec<u8>> = keys
        .iter()
        .map(|k| [b"get ", &k[..], b"\r\n"].concat())
        .collect();
    let sets: Vec<Vec<u8>> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let v = values.value(i);
            [
                b"set ",
                &k[..],
                format!(" 0 0 {}\r\n", v.len()).as_bytes(),
                v,
                b"\r\n",
            ]
            .concat()
        })
        .collect();
    let mut buf = WireBuf::new();
    rows.push((
        "protocol.parse_get_ns",
        ns_per_call(gets.len(), |i| {
            std::hint::black_box(
                parse_raw_command(&gets[i], &mut buf)
                    .expect("a valid get")
                    .is_some(),
            );
        }),
    ));
    rows.push((
        "protocol.parse_set_ns",
        ns_per_call(sets.len(), |i| {
            std::hint::black_box(
                parse_raw_command(&sets[i], &mut buf)
                    .expect("a valid set")
                    .is_some(),
            );
        }),
    ));
    let mut writer = ResponseWriter::new(Vec::with_capacity(4096));
    let mut write_value = |i: usize| {
        writer.get_mut().clear();
        writer
            .write_single_value(&keys[i], 0, values.value(i))
            .expect("write to a Vec");
    };
    rows.push((
        "protocol.write_value_ns",
        ns_per_call(keys.len(), &mut write_value),
    ));
    rows.push((
        "protocol.allocs_per_cmd",
        allocs_per_call(keys.len(), |i| {
            std::hint::black_box(
                parse_raw_command(&gets[i], &mut buf)
                    .expect("a valid get")
                    .is_some(),
            );
            write_value(i);
        }),
    ));
    let replies: Vec<Vec<u8>> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let v = values.value(i);
            [
                b"VALUE ",
                &k[..],
                format!(" 0 {}\r\n", v.len()).as_bytes(),
                v,
                b"\r\nEND\r\n",
            ]
            .concat()
        })
        .collect();
    rows.push((
        "protocol.read_response_ns",
        ns_per_call(replies.len(), |i| {
            std::hint::black_box(
                read_response_buffered(&mut &replies[i][..], &mut buf).expect("a valid reply"),
            );
        }),
    ));
}

fn load(client: &CacheClient, keys: &[[u8; KEY_LEN]], values: &ValueSpace) -> Result<(), String> {
    let pairs: Vec<(&[u8], SharedBytes)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| (&key[..], values.value(i).into()))
        .collect();
    client
        .set_many(&pairs)
        .map_err(|e| format!("probe preload: {e}"))
}

/// Two depth-1 `CacheClient`s against one server per data plane.
fn planes(
    keys: &[[u8; KEY_LEN]],
    values: &ValueSpace,
    notes: &mut Vec<String>,
    rows: &mut Rows,
) -> Result<(), String> {
    let keys = &keys[..2000];
    let plans: [(EngineKind, [&'static str; 3]); 3] = [
        (
            EngineKind::Reactor { loops: 0 },
            [
                "server.reactor.syscalls_per_op",
                "server.reactor.depth1_p50_us",
                "server.reactor.depth1_ops_s",
            ],
        ),
        (
            EngineKind::Uring { loops: 0 },
            [
                "server.uring.syscalls_per_op",
                "server.uring.depth1_p50_us",
                "server.uring.depth1_ops_s",
            ],
        ),
        (
            EngineKind::Threaded,
            [
                "server.threaded.syscalls_per_op",
                "server.threaded.depth1_p50_us",
                "server.threaded.depth1_ops_s",
            ],
        ),
    ];
    for (engine, names) in plans {
        if matches!(engine, EngineKind::Uring { .. }) && !uring_supported() {
            notes.push(
                "io_uring is not available here: the server.uring.* rows are 0 (not measured)"
                    .into(),
            );
            rows.extend(names.map(|n| (n, 0.0)));
            continue;
        }
        let server = CacheServer::spawn_with(
            "127.0.0.1:0",
            CacheConfig::with_capacity(SERVER_CAPACITY_BYTES).storage(StorageKind::Slab),
            ServerConfig { engine },
        )
        .map_err(|e| format!("plane probe: {e}"))?;
        let loader =
            CacheClient::connect(server.addr()).map_err(|e| format!("plane probe: {e}"))?;
        load(&loader, keys, values)?;
        let served_before = server.metrics().ops().snapshot(OpClass::Get).count();
        let syscalls_before = server.metrics().plane_syscalls();
        let begin = Instant::now();
        let mut latencies: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|w| {
                    let addr = server.addr();
                    scope.spawn(move || -> Result<Vec<u64>, String> {
                        alloc_count::set_generator(true);
                        let client =
                            CacheClient::connect(addr).map_err(|e| format!("plane probe: {e}"))?;
                        let mut out = Vec::with_capacity(1 << 17);
                        let mut i = w;
                        while begin.elapsed() < PLANE_WINDOW {
                            let t = Instant::now();
                            let hit = client
                                .get(&keys[i % keys.len()])
                                .map_err(|e| format!("plane probe: {e}"))?;
                            out.push(t.elapsed().as_nanos() as u64);
                            if hit.as_deref().map(|v| v == values.value(i % keys.len()))
                                != Some(true)
                            {
                                return Err("plane probe read a wrong value".into());
                            }
                            i += 2;
                        }
                        Ok(out)
                    })
                })
                .collect();
            let mut all = Vec::new();
            for w in workers {
                all.extend(w.join().expect("plane probe worker panicked")?);
            }
            Ok::<_, String>(all)
        })?;
        let elapsed = begin.elapsed().as_secs_f64();
        let served = server.metrics().ops().snapshot(OpClass::Get).count() - served_before;
        let syscalls = server.metrics().plane_syscalls() - syscalls_before;
        rows.push((names[0], syscalls as f64 / served.max(1) as f64));
        rows.push((names[2], latencies.len() as f64 / elapsed));
        rows.push((names[1], p50_us(&mut latencies)));
        drop(loader);
        server.stop();
    }
    Ok(())
}

/// One depth-1 `CacheClient` against a default server. Returns the
/// `get` p50 in µs.
fn client(keys: &[[u8; KEY_LEN]], values: &ValueSpace, rows: &mut Rows) -> Result<f64, String> {
    let keys = &keys[..2000];
    let err = |e| format!("client probe: {e}");
    let server = default_server()?;
    let client = CacheClient::connect(server.addr()).map_err(err)?;
    load(&client, keys, values)?;
    let timed =
        |f: &mut dyn FnMut(usize) -> Result<(), proteus_net::NetError>| -> Result<f64, String> {
            let mut lat = Vec::with_capacity(keys.len());
            for i in 0..keys.len() {
                let t = Instant::now();
                f(i).map_err(err)?;
                lat.push(t.elapsed().as_nanos() as u64);
            }
            Ok(p50_us(&mut lat))
        };
    let get = timed(&mut |i| client.get(&keys[i]).map(drop))?;
    let set = timed(&mut |i| client.set(&keys[i], values.value(i)))?;
    let many = timed(&mut |i| {
        let batch: Vec<&[u8]> = (0..8).map(|j| &keys[(i + j) % keys.len()][..]).collect();
        client.get_many(&batch).map(drop)
    })?;
    rows.push(("client.get_p50_us", get));
    rows.push(("client.set_p50_us", set));
    rows.push(("client.get_many8_p50_us", many));
    drop(client);
    server.stop();
    Ok(get)
}

/// A four-server cluster walked through hits, 4→3→4 transitions with
/// on-demand migration, and database fetches.
fn cluster(seed: u64, client_get_p50_us: f64, rows: &mut Rows) -> Result<(), String> {
    const KEYS: usize = 4000;
    let err = |e| format!("cluster probe: {e}");
    let values = Arc::new(ValueSpace::new(seed, KEYS, Sizes::Fixed(VALUE_BYTES)));
    let Cluster {
        servers,
        mut client,
        db,
    } = Cluster::set_up(&values)?;
    let mut by_class: Vec<(ClusterFetch, Vec<u64>)> = Vec::new();
    let mut fetch_all = |client: &proteus_net::ClusterClient,
                         range: std::ops::Range<usize>|
     -> Result<(), String> {
        for i in range {
            let t = Instant::now();
            let (value, class) = client.fetch(&key_bytes(i), &db).map_err(err)?;
            let ns = t.elapsed().as_nanos() as u64;
            if value.as_slice() != values.value(i) {
                return Err("cluster probe read a wrong value".into());
            }
            match by_class.iter_mut().find(|c| c.0 == class) {
                Some(c) => c.1.push(ns),
                None => by_class.push((class, vec![ns])),
            }
        }
        Ok(())
    };
    fetch_all(&client, 0..KEYS / 2)?;
    let mut begin_ns = Vec::new();
    let mut end_ns = Vec::new();
    for round in 0..4 {
        for target in [SERVERS - 1, SERVERS] {
            let t = Instant::now();
            client.begin_transition(target).map_err(err)?;
            begin_ns.push(t.elapsed().as_nanos() as u64);
            // A different eighth of the keys each window, so every
            // window has keys still waiting on the old server.
            let at = (round * 2 + usize::from(target == SERVERS)) * KEYS / 8;
            fetch_all(&client, at..at + KEYS / 8)?;
            let t = Instant::now();
            client.end_transition();
            end_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    for s in 0..SERVERS {
        client.client(s).flush_all().map_err(err)?;
    }
    fetch_all(&client, 0..300)?;
    let mut p50_of = |class: ClusterFetch| {
        by_class
            .iter_mut()
            .find(|c| c.0 == class)
            .map_or(0.0, |c| p50_us(&mut c.1))
    };
    let hit = p50_of(ClusterFetch::Hit);
    rows.push(("cluster.fetch_hit_p50_us", hit));
    rows.push((
        "cluster.fetch_migrated_p50_us",
        p50_of(ClusterFetch::Migrated),
    ));
    rows.push(("cluster.fetch_db_p50_us", p50_of(ClusterFetch::Database)));
    rows.push(("cluster.fetch_overhead_us", hit - client_get_p50_us));
    rows.push(("cluster.begin_transition_ms", p50_us(&mut begin_ns) / 1e3));
    rows.push(("cluster.end_transition_ms", p50_us(&mut end_ns) / 1e3));
    Cluster {
        servers,
        client,
        db,
    }
    .stop();
    Ok(())
}

fn store_and_workload(seed: u64, keys: &[[u8; KEY_LEN]], rows: &mut Rows) {
    let mut store = ShardedStore::new(StoreConfig {
        object_size: VALUE_BYTES,
        ..StoreConfig::default()
    });
    rows.push((
        "store.fetch_ns",
        ns_per_call(keys.len(), |i| {
            std::hint::black_box(store.fetch(&keys[i]));
        }),
    ));
    let zipf = ZipfSampler::new(100_000, 0.99);
    let mut rng = SimRng::seed_from_u64(seed);
    rows.push((
        "workload.zipf_sample_ns",
        ns_per_call(100_000, |_| {
            std::hint::black_box(zipf.sample(&mut rng));
        }),
    ));
    let day = CompressedDay::new(
        DiurnalCurve::new(2000.0, 3.0, SimDuration::from_secs(86_400)),
        4000.0,
    );
    // A fresh pacer per batch: one that has already seen a later time
    // returns at once, and the row would time that early return.
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut pacer = ReplayPacer::new(day);
            let begin = Instant::now();
            for i in 1..=100_000u64 {
                std::hint::black_box(pacer.due(Duration::from_micros(i * 100)));
            }
            begin.elapsed().as_nanos() as f64 / 100_000.0
        })
        .collect();
    rows.push((
        "workload.pacer_due_ns",
        median(&per_batch).expect("batches ran"),
    ));
}

/// `obs`, `agg` and `ctl`: the telemetry and control plane of a
/// four-server cluster that is otherwise idle.
fn telemetry(rows: &mut Rows) -> Result<(), String> {
    let ops = OpLatencies::new();
    rows.push((
        "obs.record_ns",
        ns_per_call(100_000, |i| {
            ops.record(OpClass::Get, Duration::from_nanos(500 + (i as u64 & 1023)));
        }),
    ));
    rows.push(("obs.snapshot_us", ns_once(|| ops.snapshot_merged()) / 1e3));

    let servers = (0..SERVERS)
        .map(|_| default_server())
        .collect::<Result<Vec<_>, _>>()?;
    let warm =
        CacheClient::connect(servers[0].addr()).map_err(|e| format!("telemetry probe: {e}"))?;
    for i in 0..500 {
        warm.set(&key_bytes(i), b"v")
            .and_then(|()| warm.get(&key_bytes(i)))
            .map_err(|e| format!("telemetry probe: {e}"))?;
    }
    let source = servers[0].metric_source();
    rows.push(("obs.render_json_us", ns_once(|| to_json(&source())) / 1e3));
    let endpoints = servers
        .iter()
        .map(|s| MetricsServer::spawn("127.0.0.1:0", s.metric_source()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("telemetry probe: {e}"))?;
    let config = ObserverConfig::default();
    let scrape = || {
        http_get(
            endpoints[0].local_addr(),
            METRICS_PATH,
            config.connect_timeout,
            config.read_timeout,
        )
    };
    let body = scrape().map_err(|e| format!("telemetry probe: {e}"))?;
    rows.push(("obs.scrape_http_us", ns_once(scrape) / 1e3));
    let parsed = parse_metrics(&body).map_err(|e| format!("telemetry probe: {e}"))?;
    rows.push(("agg.parse_us", ns_once(|| parse_metrics(&body)) / 1e3));
    let four: Vec<&[_]> = (0..SERVERS).map(|_| &parsed[..]).collect();
    rows.push(("agg.merge_us", ns_once(|| merge_metrics(&four)) / 1e3));

    let observer = ClusterObserver::new(config);
    for e in &endpoints {
        observer.add_server(e.local_addr());
    }
    let mut ticks: Vec<u64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            observer.tick();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    rows.push((
        "agg.tick_max_ms",
        ticks.iter().copied().max().unwrap_or(0) as f64 / 1e6,
    ));
    rows.push(("agg.tick_p50_ms", p50_us(&mut ticks) / 1e3));

    let policy = WallPolicy::new(PolicyConfig::for_cluster(SERVERS, 1000.0));
    let now = Instant::now();
    let input = |i: usize| PolicyInput {
        active: 1 + i % SERVERS,
        ops_per_sec: 500.0 + (i % 3000) as f64,
        p99: Some(Duration::from_micros(200)),
    };
    rows.push((
        "ctl.decide_ns",
        ns_per_call(100_000, |i| {
            std::hint::black_box(policy.decide(now, &input(i)));
        }),
    ));
    drop(warm);
    drop(endpoints);
    servers.into_iter().for_each(CacheServer::stop);
    Ok(())
}

/// What one socket syscall costs here: a 64-byte write and the read
/// that receives it, over loopback TCP, halved.
fn syscall(rows: &mut Rows) -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut a = TcpStream::connect(listener.local_addr()?)?;
    let (mut b, _) = listener.accept()?;
    a.set_nodelay(true)?;
    let mut buf = [0u8; 64];
    let mut failed = None;
    let pair = ns_per_call(20_000, |_| {
        if let Err(e) = a.write_all(&buf).and_then(|()| b.read_exact(&mut buf)) {
            failed = Some(e);
        }
    });
    match failed {
        Some(e) => Err(e),
        None => {
            rows.push(("bench.syscall_ns", pair / 2.0));
            Ok(())
        }
    }
}
