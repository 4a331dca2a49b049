//! Acceptance tests for the live telemetry layer: the `stats proteus`
//! registry over real TCP must reconcile with what the client itself
//! observed, a provisioning transition must leave an ordered lifecycle
//! trace in the event ring, and the HTTP scrape endpoint must serve
//! the same registry in both exposition formats, the Prometheus one
//! valid for a strict reader.

#[path = "../crates/obs/tests/prom_text/mod.rs"]
mod prom_text;

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use proteus::cache::CacheConfig;
use proteus::net::{CacheClient, CacheServer, ClusterClient, ClusterFetch};
use proteus::obs::{to_prometheus, FetchClassKind, Metric, MetricsServer, TraceKind};
use proteus::ring::ProteusPlacement;
use proteus::store::{ShardedStore, StoreConfig};

fn stat_map(pairs: Vec<(String, String)>) -> HashMap<String, String> {
    pairs.into_iter().collect()
}

fn stat_u64(stats: &HashMap<String, String>, key: &str) -> u64 {
    stats
        .get(key)
        .unwrap_or_else(|| panic!("registry missing {key}: {stats:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("{key} not numeric"))
}

/// `stats proteus` over the wire reports exactly the operations this
/// client performed: command counts, hit/miss splits, connection
/// gauges, and per-command latency percentiles.
#[test]
fn stats_proteus_reconciles_with_client_observations() {
    let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap();
    let client = CacheClient::connect(server.addr()).unwrap();

    let mut client_hits = 0u64;
    let mut client_misses = 0u64;
    for i in 0..100u32 {
        client.set(format!("key:{i}").as_bytes(), b"value").unwrap();
    }
    for i in 0..100u32 {
        if client.get(format!("key:{i}").as_bytes()).unwrap().is_some() {
            client_hits += 1;
        }
    }
    for i in 0..20u32 {
        if client
            .get(format!("absent:{i}").as_bytes())
            .unwrap()
            .is_none()
        {
            client_misses += 1;
        }
    }

    let stats = stat_map(client.stats_proteus().unwrap());

    // Engine counters reconcile with the client's own observations.
    assert_eq!(stat_u64(&stats, "proteus_get_hits_total"), client_hits);
    assert_eq!(stat_u64(&stats, "proteus_get_misses_total"), client_misses);
    assert_eq!(stat_u64(&stats, "proteus_sets_total"), 100);
    assert_eq!(stat_u64(&stats, "proteus_curr_items"), 100);
    assert!(stat_u64(&stats, "proteus_bytes") > 0);

    // Connection gauges: this client's pooled connection is live.
    assert!(stat_u64(&stats, "proteus_curr_connections") >= 1);
    assert!(stat_u64(&stats, "proteus_total_connections") >= 1);

    // Per-command latency histograms: every command this client sent
    // was timed, and the percentile fields are present and sane.
    let gets = "proteus_command_latency_seconds_op_get";
    let sets = "proteus_command_latency_seconds_op_set";
    assert_eq!(
        stat_u64(&stats, &format!("{gets}_count")),
        client_hits + client_misses
    );
    assert_eq!(stat_u64(&stats, &format!("{sets}_count")), 100);
    for field in ["p50_us", "p99_us", "p999_us", "mean_us", "max_us"] {
        let v = stat_u64(&stats, &format!("{gets}_{field}"));
        assert!(v < 10_000_000, "absurd {field} for gets: {v}");
    }
    let p50 = stat_u64(&stats, &format!("{gets}_p50_us"));
    let p99 = stat_u64(&stats, &format!("{gets}_p99_us"));
    assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");

    // The plain memcached `stats` got the satellite fields too.
    let basic = stat_map(client.stats().unwrap());
    assert_eq!(stat_u64(&basic, "curr_items"), 100);
    assert_eq!(stat_u64(&basic, "get_hits"), client_hits);
    assert_eq!(
        stat_u64(&basic, "total_connections"),
        stat_u64(&stats, "proteus_total_connections")
    );
    assert!(basic.contains_key("uptime"));
    assert!(basic.contains_key("bytes"));
    assert!(basic.contains_key("get_p99_us"));

    server.stop();
}

/// A scale-down transition leaves an ordered lifecycle trace:
/// begin → digest broadcast per old-active server → per-key
/// migrations → drain → power-off of the departing server. The
/// client-side fetch-class counters reconcile with the trace.
#[test]
fn transition_emits_ordered_lifecycle_trace() {
    let servers: Vec<CacheServer> = (0..4)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(CacheServer::addr).collect();
    let mut cluster =
        ClusterClient::connect(&addrs, Box::new(ProteusPlacement::generate(4))).unwrap();
    let db = Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 64,
        ..StoreConfig::default()
    }));

    let keys: Vec<Vec<u8>> = (0..100u32)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    for k in &keys {
        let (_, how) = cluster.fetch(k, &db).unwrap();
        assert_eq!(how, ClusterFetch::Database, "cold key must come from db");
    }
    assert!(
        cluster.tracer().is_empty(),
        "no events before the transition"
    );

    // Algorithm 2 alone: a background pull would take migrations away
    // from the requests counted here, by an amount that depends on timing.
    cluster.open_window(3).unwrap();
    let mut migrated = 0u64;
    for k in &keys {
        let (_, how) = cluster.fetch(k, &db).unwrap();
        if how == ClusterFetch::Migrated {
            migrated += 1;
        }
    }
    cluster.end_transition();

    let events = cluster.tracer().events();
    let kinds: Vec<&'static str> = events.iter().map(|e| e.kind.name()).collect();

    // Phase order: begin, then 4 digest broadcasts, then migrations,
    // then drain, then the departing server powers off.
    assert!(
        matches!(
            events[0].kind,
            TraceKind::TransitionBegin { from: 4, to: 3 }
        ),
        "first event must open the transition: {kinds:?}"
    );
    for i in 0..4 {
        match events[1 + i].kind {
            TraceKind::DigestBroadcast { server, ok } => {
                assert_eq!(server as usize, i, "broadcast order follows server order");
                assert!(ok, "all servers are healthy");
            }
            other => panic!(
                "event {} should be a digest broadcast, got {other:?}",
                1 + i
            ),
        }
    }
    let migrations: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.kind, TraceKind::KeyMigrated { .. }))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(migrations.len() as u64, migrated, "one event per migration");
    assert!(migrated > 0, "a 4→3 scale-down must migrate some keys");
    let drain = events
        .iter()
        .position(|e| matches!(e.kind, TraceKind::TransitionDrain { from: 4, to: 3 }))
        .expect("drain event present");
    assert!(
        migrations.iter().all(|&m| m > 4 && m < drain),
        "migrations happen inside the window: {kinds:?}"
    );
    assert!(
        matches!(events[drain + 1].kind, TraceKind::PowerOff { server: 3 }),
        "departing server powers off after the drain: {kinds:?}"
    );
    assert_eq!(events.len(), drain + 2, "no stray events: {kinds:?}");

    // Timestamps are monotone along the trace.
    assert!(events
        .windows(2)
        .all(|w| w[0].at <= w[1].at && w[0].seq < w[1].seq));

    // Client-side fetch-class counters tell the same story.
    let fetches = cluster.fetch_stats();
    assert_eq!(
        fetches.snapshot(FetchClassKind::Database).count(),
        keys.len() as u64
    );
    assert_eq!(fetches.snapshot(FetchClassKind::Migrated).count(), migrated);
    assert_eq!(
        fetches.snapshot(FetchClassKind::NewHit).count(),
        keys.len() as u64 - migrated
    );
    assert_eq!(fetches.snapshot(FetchClassKind::Degraded).count(), 0);
    let (_, hit_snap) = fetches
        .snapshot_all()
        .into_iter()
        .find(|(kind, _)| *kind == FetchClassKind::NewHit)
        .expect("new-hit class present");
    assert_eq!(hit_snap.count(), keys.len() as u64 - migrated);

    for s in servers {
        s.stop();
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: proteus\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    (head.to_string(), body.to_string())
}

/// `proteus_mem_bytes` reports the slot table and the key index as the
/// engine holds them: 1 024-slot blocks of 32-byte slots, and 4-byte
/// buckets at a load of at most 7/8. The digest's share is the encoded
/// snapshot the last window left: nothing before one, then the 24-byte
/// header and `l` bits.
#[test]
fn metrics_report_the_slot_table_and_the_key_index() {
    const ITEMS: u64 = 2_500;
    let config = CacheConfig::with_capacity(8 << 20).shards(1);
    let server = CacheServer::spawn("127.0.0.1:0", config).unwrap();
    let mut metrics = MetricsServer::spawn("127.0.0.1:0", server.metric_source()).unwrap();
    let client = CacheClient::connect(server.addr()).unwrap();
    for i in 0..ITEMS {
        client.set(format!("key:{i}").as_bytes(), b"value").unwrap();
    }

    let (_, body) = http_get(metrics.local_addr(), "/metrics");
    let families = prom_text::read(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    let mem = families
        .iter()
        .find(|f| f.name == "proteus_mem_bytes")
        .expect("proteus_mem_bytes family");
    let component = |name: &str| -> u64 {
        let sample = mem
            .samples
            .iter()
            .find(|s| s.labels == [("component".to_string(), name.to_string())])
            .unwrap_or_else(|| panic!("no {name} series in\n{body}"));
        sample.value as u64
    };
    let blocks = ITEMS.div_ceil(1024);
    assert_eq!(component("slot_table"), blocks * 1024 * 32);
    let mut buckets = 16;
    while ITEMS * 8 > buckets * 7 {
        buckets *= 2;
    }
    assert_eq!(component("key_index"), buckets * 4);
    assert_eq!(component("digest"), 0, "no window has asked for one");

    assert!(client.snapshot_digest().unwrap().is_some());
    let held = client
        .get(b"BLOOM_FILTER")
        .unwrap()
        .expect("a held snapshot");
    let encoded = 24 + config.digest.counters.div_ceil(64) as u64 * 8;
    assert_eq!(held.len() as u64, encoded);
    assert_eq!(mem_component(server.metric_source()(), "digest"), encoded);

    metrics.stop();
    server.stop();
}

/// One `proteus_mem_bytes` component of a registry, read the way a
/// scraper reads it.
fn mem_component(registry: Vec<Metric>, component: &str) -> u64 {
    let body = to_prometheus(&registry);
    let families = prom_text::read(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    let mem = families.iter().find(|f| f.name == "proteus_mem_bytes");
    let sample = mem.and_then(|f| {
        (f.samples.iter()).find(|s| s.labels == [("component".to_string(), component.to_string())])
    });
    sample
        .unwrap_or_else(|| panic!("no {component} series in\n{body}"))
        .value as u64
}

/// `proteus_mem_bytes{component="histograms"}` is the stripe cells of
/// every command class plus, for each class recorded into, the stripe
/// and one 512-byte bucket group an octave its samples span. One
/// connection is served by one thread, so by one stripe a class.
#[test]
fn metrics_report_the_histogram_stripes_and_groups() {
    /// 12 command classes × 8 stripes, a 16-byte cell each.
    const CELLS: u64 = 12 * 8 * 16;
    /// 60 group cells of 16 bytes and four 8-byte totals.
    const STRIPE: u64 = 60 * 16 + 4 * 8;
    /// 64 bucket counters.
    const GROUP: u64 = 64 * 8;
    let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap();
    assert_eq!(mem_component(server.metric_source()(), "histograms"), CELLS);
    let client = CacheClient::connect(server.addr()).unwrap();
    for i in 0..300u32 {
        client
            .set(format!("key:{i}").as_bytes(), &[b'v'; 700])
            .unwrap();
        client.get(format!("key:{i}").as_bytes()).unwrap();
    }
    client.delete(b"key:0").unwrap();

    let mut expected = CELLS;
    for (_, snap) in server.metrics().ops().snapshot_all() {
        let octaves: HashSet<usize> = (snap.nonzero_buckets().iter())
            .map(|&(index, _)| index / 64)
            .collect();
        if !octaves.is_empty() {
            expected += STRIPE + GROUP * octaves.len() as u64;
        }
    }
    assert!(
        expected > CELLS + 3 * STRIPE,
        "get, set and delete were recorded"
    );
    assert_eq!(
        mem_component(server.metric_source()(), "histograms"),
        expected
    );
    server.stop();
}

/// Polls `read` until it returns `want`, for at most ten seconds: a
/// connection settles its buffers just after it has flushed the reply
/// that tells the test it may look.
fn settles_at(want: u64, mut read: impl FnMut() -> u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = read();
    while got != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
        got = read();
    }
    assert_eq!(got, want);
}

/// A server connection and the client at its other end that carried
/// one 1 MiB value give the excess back at the next exchange that
/// fits their buffers at rest — 64 KiB each way on both ends — and a
/// pipelined batch of small `set`s then takes none of them past it:
/// `conn_buffers` on the server, `client_buffers` on the cluster
/// client, both at rest.
#[test]
fn a_connection_that_carried_a_mebibyte_returns_to_rest() {
    const REST: u64 = 64 << 10;
    let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(64 << 20)).unwrap();
    let cluster =
        ClusterClient::connect(&[server.addr()], Box::new(ProteusPlacement::generate(1))).unwrap();
    let client = cluster.client(0);
    let conn_buffers = || mem_component(server.metric_source()(), "conn_buffers");
    let client_buffers = || mem_component(cluster.metric_source()(), "client_buffers");

    let big = vec![b'b'; 1 << 20];
    client.set(b"big", &big).unwrap();
    assert_eq!(client.get(b"big").unwrap().as_deref(), Some(&big[..]));
    assert!(
        client_buffers() > 2 << 20,
        "the 1 MiB went through both client buffers"
    );
    assert!(conn_buffers() > 2 << 20, "and through both server buffers");

    client.set(b"small", b"value").unwrap();
    settles_at(2 * REST, conn_buffers);
    assert_eq!(client_buffers(), 2 * REST);

    let keys: Vec<String> = (0..2_000).map(|i| format!("pipelined:{i}")).collect();
    let pairs: Vec<(&[u8], proteus::net::SharedBytes)> = (keys.iter())
        .map(|key| (key.as_bytes(), vec![b'p'; 100].into()))
        .collect();
    client.set_many(&pairs).unwrap();
    assert_eq!(
        client.get(b"pipelined:1999").unwrap().as_deref(),
        Some(&[b'p'; 100][..])
    );
    settles_at(2 * REST, conn_buffers);
    assert_eq!(client_buffers(), 2 * REST);
    drop(cluster);
    settles_at(0, conn_buffers);
    server.stop();
}

/// The HTTP scrape endpoint serves the same registry as `stats
/// proteus`, in Prometheus text exposition and in JSON. A server built
/// from `CacheConfig::with_capacity` alone runs the slab.
#[test]
fn metrics_endpoint_serves_prometheus_and_json() {
    let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap();
    let mut metrics = MetricsServer::spawn("127.0.0.1:0", server.metric_source()).unwrap();
    let client = CacheClient::connect(server.addr()).unwrap();
    for i in 0..50u32 {
        client.set(format!("key:{i}").as_bytes(), b"value").unwrap();
        client.get(format!("key:{i}").as_bytes()).unwrap();
    }

    let (head, body) = http_get(metrics.local_addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    // Valid exposition text: one TYPE line a family, each family's
    // series together (a latency family per op, a gauge per loop).
    let families = prom_text::read(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    let latency = families
        .iter()
        .find(|f| f.name == "proteus_command_latency_seconds")
        .expect("latency family");
    assert!(latency.samples.len() > 6, "more than one op under one TYPE");
    assert!(body.contains("# TYPE proteus_command_latency_seconds summary"));
    assert!(body.contains("proteus_command_latency_seconds{op=\"get\",quantile=\"0.99\"}"));
    assert!(body.contains("proteus_get_hits_total 50"));
    assert!(body.contains("proteus_sets_total 50"));
    assert!(body.contains("proteus_curr_items 50"));
    assert!(body.contains(",storage=\"slab\"} 1\n"), "{body}");
    assert!(body.contains("\nproteus_slab_pages_allocated "), "{body}");

    let (head, json) = http_get(metrics.local_addr(), "/metrics.json");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    assert!(json.contains("\"proteus_get_hits_total\""));
    assert!(json.contains("\"quantiles_ns\""));

    let (head, _) = http_get(metrics.local_addr(), "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    metrics.stop();
    server.stop();
}
