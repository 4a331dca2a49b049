//! End-to-end acceptance of the cluster observability plane: four live
//! TCP cache servers, each with its own metrics endpoint, an observer
//! aggregating them, and a provisioning transition in the middle of
//! the run. Five claims are proven:
//!
//! 1. `/trace.jsonl` replays the full transition lifecycle in order,
//!    parseable line by line, with zero sequence gaps beyond the
//!    counted drops.
//! 2. The cluster-wide p99 computed from scraped, remotely-merged
//!    histograms matches the servers' own merged snapshots.
//! 3. The wall-clock energy meter prices the post-transition (n−1)
//!    window strictly below an all-on baseline of the same duration.
//! 4. The observer's `/metrics` body, the cluster client's, and the
//!    two joined as `proteus-controller` serves them are valid
//!    exposition text for a strict reader.
//! 5. In an optimised build, opening a warmed transition window holds
//!    the client for at most 10 ms.

#[path = "../crates/obs/tests/prom_text/mod.rs"]
mod prom_text;

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use proteus::agg::{http_get, json, ClusterObserver, ObserverConfig, WallEnergyMeter};
use proteus::cache::CacheConfig;
use proteus::core::{PowerState, Scenario};
use proteus::net::{CacheServer, ClusterClient, ClusterFetch};
use proteus::obs::{HistogramSnapshot, MetricSource, MetricValue, MetricsServer, TraceKind};
use proteus::store::{ShardedStore, StoreConfig};

const N: usize = 4;

#[test]
fn cluster_observability_end_to_end() {
    // --- A live cluster: 4 cache servers, each with a metrics
    // endpoint, plus the cluster client's own traced endpoint.
    // 64 MiB is what a server started with no flags holds; the digest,
    // and so the cost of opening a window (gated below), is sized from it.
    let servers: Vec<CacheServer> = (0..N)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(64 << 20)).unwrap())
        .collect();
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(CacheServer::addr).collect();
    let metric_endpoints: Vec<MetricsServer> = servers
        .iter()
        .map(|s| MetricsServer::spawn("127.0.0.1:0", s.metric_source()).unwrap())
        .collect();

    let mut cluster = ClusterClient::connect(&addrs, Scenario::Proteus.strategy(N, 0)).unwrap();
    let client_obs = MetricsServer::spawn_traced(
        "127.0.0.1:0",
        cluster.metric_source(),
        Arc::clone(cluster.tracer()),
    )
    .unwrap();

    let config = ObserverConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(2),
        ..ObserverConfig::default()
    };
    let observer = Arc::new(ClusterObserver::new(config));
    for endpoint in &metric_endpoints {
        observer.add_server(endpoint.local_addr());
    }

    // --- Load, with a provisioning transition mid-run.
    let db = Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 128,
        ..StoreConfig::default()
    }));
    let keys: Vec<Vec<u8>> = (0..200u32)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    for k in &keys {
        cluster.fetch(k, &db).unwrap();
    }
    observer.tick(); // baseline counters for rate derivation
    let joules_at_baseline = observer.energy().joules();

    // Requests and the window's background pull move the departing
    // server's keys between them; who gets to which first is timing, so
    // what is asserted is the outcome: the cache tier serves the window.
    let db_before = db.lock().total_fetches();
    cluster.begin_transition(N - 1).unwrap();
    for k in &keys {
        let (_, how) = cluster.fetch(k, &db).unwrap();
        assert!(
            matches!(how, ClusterFetch::Hit | ClusterFetch::Migrated),
            "{how:?}"
        );
    }
    cluster.end_transition();
    assert_eq!(
        db.lock().total_fetches(),
        db_before,
        "the database is not asked while the window is open"
    );
    let final_snap = observer.tick();

    // The observer's own account: energy grows strictly between ticks
    // and never beats the proportional oracle; the loaded snapshot has
    // a rate and a max/mean imbalance.
    let meter = observer.energy();
    assert!(meter.joules() > joules_at_baseline);
    assert!(meter.proportionality().expect("energy accumulated") >= 1.0);
    assert!(final_snap.ops_per_sec > 0.0);
    assert!(final_snap.imbalance.expect("load was observed") >= 1.0);

    // --- Claim 1: the trace endpoint replays the whole lifecycle.
    let body = http_get(
        client_obs.local_addr(),
        "/trace.jsonl",
        Duration::from_millis(500),
        Duration::from_secs(2),
    )
    .unwrap();
    let tracer = cluster.tracer();
    let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "transition must have produced events");
    let mut kinds = Vec::with_capacity(lines.len());
    let mut prev_seq: Option<u64> = None;
    for line in &lines {
        let event = json::parse(line).expect("every trace line parses alone");
        let seq = event.get("seq").unwrap().as_u64().unwrap();
        if let Some(prev) = prev_seq {
            assert_eq!(seq, prev + 1, "zero sequence gaps inside the replay");
        }
        prev_seq = Some(seq);
        assert!(event.get("at_ns").unwrap().as_u128().is_some());
        kinds.push(event.get("kind").unwrap().as_str().unwrap().to_string());
    }
    let first_seq = json::parse(lines[0])
        .unwrap()
        .get("seq")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(
        first_seq,
        tracer.dropped(),
        "the only admissible gap is the counted drops before the ring"
    );
    assert_eq!(lines.len() as u64, tracer.recorded() - tracer.dropped());

    // Lifecycle order: begin, then digest broadcasts, then keys moving
    // (on demand or by the pull), then the drain that closes the window.
    let begin = kinds.iter().position(|k| k == "transition_begin").unwrap();
    let broadcast = kinds.iter().position(|k| k == "digest_broadcast").unwrap();
    let moved = kinds
        .iter()
        .position(|k| k == "key_migrated" || k == "keys_pulled")
        .unwrap();
    let drain = kinds.iter().rposition(|k| k == "transition_drain").unwrap();
    assert!(begin < broadcast && broadcast < moved && moved < drain);
    let begin_event = json::parse(lines[begin]).unwrap();
    assert_eq!(begin_event.get("from").unwrap().as_u64(), Some(N as u64));
    assert_eq!(begin_event.get("to").unwrap().as_u64(), Some(N as u64 - 1));
    let on_demand = tracer
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::KeyMigrated { .. }))
        .count() as u64;
    assert!(
        on_demand + cluster.fault_stats().pulled_keys > 0,
        "transition to n-1 must move keys"
    );

    // --- Claim 2: scraped-and-merged p99 equals the servers' own
    // merged snapshots. No commands run between the final tick and
    // this oracle, and the JSON wire is lossless, so the match is
    // exact — stronger than the histogram's error bound.
    let mut oracle = HistogramSnapshot::empty();
    for server in &servers {
        for m in server.metric_source()() {
            if m.name == "proteus_command_latency_seconds" {
                if let MetricValue::Histogram(h) = m.value {
                    oracle.merge(&h);
                }
            }
        }
    }
    let mut scraped = HistogramSnapshot::empty();
    for m in &final_snap.merged {
        if m.name == "proteus_command_latency_seconds" {
            if let MetricValue::Histogram(h) = &m.value {
                scraped.merge(h);
            }
        }
    }
    assert!(scraped.count() > 0, "load must have produced latencies");
    assert_eq!(scraped, oracle, "remote merge == in-process merge");
    assert_eq!(
        scraped.quantile(0.99),
        oracle.quantile(0.99),
        "cluster p99 from scrapes matches the servers' own"
    );
    assert!(
        final_snap.servers.iter().all(|s| s.fresh),
        "all four endpoints scraped successfully"
    );

    // --- Claim 3: metering the observed post-transition cluster (one
    // server powered off) over a fixed window costs strictly less than
    // the all-on baseline over the same window. Utilizations come from
    // the live observation; the timeline is synthetic so both windows
    // have exactly equal duration.
    let observed_util: Vec<f64> = final_snap.servers.iter().map(|s| s.utilization).collect();
    let window = Duration::from_secs(300);
    let t0 = Instant::now();
    let mut baseline = WallEnergyMeter::new(config.power, N, config.server_capacity_ops);
    baseline.sample_at(t0, &observed_util);
    baseline.sample_at(t0 + window, &observed_util);
    let mut scaled = WallEnergyMeter::new(config.power, N, config.server_capacity_ops);
    scaled.set_state(N - 1, PowerState::Off);
    let mut scaled_util = observed_util;
    scaled_util[N - 1] = 0.0;
    scaled.sample_at(t0, &scaled_util);
    scaled.sample_at(t0 + window, &scaled_util);
    assert!(
        scaled.joules() < baseline.joules(),
        "n-1 window must be strictly cheaper: {} vs {} J",
        scaled.joules(),
        baseline.joules()
    );
    assert!(scaled.server_seconds() < baseline.server_seconds());

    // The observer's own account tracks the power-down too.
    observer.set_power_state(metric_endpoints[N - 1].local_addr(), PowerState::Off);
    let after_off = observer.tick();
    assert_eq!(after_off.active_servers, N - 1);
    assert!(observer.energy().server_seconds() > 0.0);
    assert_eq!(observer.scrape_totals().1, 0, "no scrape may fail");

    // --- Claim 4: the cluster's expositions read strictly: the
    // observer's, as `proteus-cluster-obs` serves it, the cluster
    // client's, and the observer's followed by the client's, as
    // `proteus-controller` serves them: the two bodies' families, none
    // merged into another or lost.
    let observer_obs = MetricsServer::spawn("127.0.0.1:0", observer.metric_source()).unwrap();
    let (observer_source, client_source) = (observer.metric_source(), cluster.metric_source());
    let joined: MetricSource = Arc::new(move || {
        let mut out = observer_source();
        out.extend(client_source());
        out
    });
    let controller_obs = MetricsServer::spawn("127.0.0.1:0", joined).unwrap();
    let mut names = Vec::new();
    for (what, addr) in [
        ("observer", observer_obs.local_addr()),
        ("cluster client", client_obs.local_addr()),
        ("controller", controller_obs.local_addr()),
    ] {
        let body = http_get(
            addr,
            "/metrics",
            Duration::from_millis(500),
            Duration::from_secs(2),
        )
        .unwrap();
        let families = prom_text::read(&body).unwrap_or_else(|e| panic!("{what}: {e}\n{body}"));
        assert!(!families.is_empty(), "{what} exposes no family");
        names.push(families.into_iter().map(|f| f.name).collect::<Vec<_>>());
    }
    assert_eq!(names[2], [&names[0][..], &names[1][..]].concat());
    drop((observer_obs, controller_obs));

    // --- Claim 5: the client serves nothing while a window opens, so
    // this is the delay spike a transition costs. It comes last because
    // the broadcast's gets would break claim 2's exact histogram match.
    // The 4→3 window above also paid the first touch of four lazily
    // zeroed digests; the window back up is what every later transition
    // costs. An unoptimised build is several times slower and proves
    // nothing.
    let begin = Instant::now();
    cluster.begin_transition(N).unwrap();
    let stall = begin.elapsed();
    cluster.end_transition();
    assert!(
        cfg!(debug_assertions) || stall <= Duration::from_millis(10),
        "opening a transition window stalled the client for {stall:?}"
    );

    drop(client_obs);
    drop(metric_endpoints);
    for s in servers {
        s.stop();
    }
}
