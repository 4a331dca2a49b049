//! Live smoke check for the cluster observability plane.
//!
//! Stands up a real 4-server TCP cache tier with per-server metrics
//! endpoints, drives load through the cluster client (including a
//! provisioning transition), and runs a [`ClusterObserver`] against
//! the endpoints. Gates, with hard assertions:
//!
//! 1. **Merge fidelity** — the cluster p99 computed from scraped,
//!    remotely-merged histograms equals the servers' own in-process
//!    merged snapshot (the JSON wire is lossless, so the match is
//!    exact, not approximate).
//! 2. **Health series sanity** — every server fresh, aggregate ops
//!    accounted, imbalance ≥ 1 (it is max/mean by construction).
//! 3. **Energy monotonicity** — the wall-clock energy account grows
//!    strictly across ticks, and the proportionality ratio is ≥ 1.
//! 4. **Transition stall** — `begin_transition` (a digest snapshot on
//!    every default-sized server, broadcast in one round trip) returns
//!    within [`BEGIN_TRANSITION_LIMIT`] in a release build: the client
//!    serves nothing while it runs, so this is the delay spike a
//!    transition costs.
//!
//! `--smoke` is the CI entry point: fewer keys, hard assertions,
//! non-zero exit on regression.
//!
//! Run with: `cargo run --release -p proteus-bench --bin cluster_obs -- --smoke`

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use proteus_agg::{ClusterObserver, ObserverConfig};
use proteus_cache::CacheConfig;
use proteus_core::Scenario;
use proteus_net::{CacheServer, ClusterClient};
use proteus_obs::{HistogramSnapshot, MetricValue, MetricsServer};
use proteus_store::{ShardedStore, StoreConfig};

const N: usize = 4;

/// What a server started with no flags holds; the digest, and so the
/// snapshot's cost, is sized from it.
const SERVER_CAPACITY_BYTES: u64 = 64 << 20;

/// About one loopback round trip plus one pass over the counters is
/// 1–2 ms; the per-counter collapse this replaced took 25–45 ms.
const BEGIN_TRANSITION_LIMIT: Duration = Duration::from_millis(10);

fn merged_command_histogram(metrics: &[proteus_obs::Metric]) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::empty();
    for m in metrics {
        if m.name == "proteus_command_latency_seconds" {
            if let MetricValue::Histogram(h) = &m.value {
                merged.merge(h);
            }
        }
    }
    merged
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let keys_n: u32 = if smoke { 300 } else { 3000 };

    let servers: Vec<CacheServer> = (0..N)
        .map(|_| {
            CacheServer::spawn(
                "127.0.0.1:0",
                CacheConfig::with_capacity(SERVER_CAPACITY_BYTES),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(CacheServer::addr).collect();
    let endpoints: Vec<MetricsServer> = servers
        .iter()
        .map(|s| MetricsServer::spawn("127.0.0.1:0", s.metric_source()).unwrap())
        .collect();
    let mut cluster = ClusterClient::connect(&addrs, Scenario::Proteus.strategy(N, 0)).unwrap();
    let db = Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 128,
        ..StoreConfig::default()
    }));

    let observer = ClusterObserver::new(ObserverConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(2),
        ..ObserverConfig::default()
    });
    for e in &endpoints {
        observer.add_server(e.local_addr());
    }

    println!(
        "cluster_obs: {N} live servers, {keys_n} keys{}",
        if smoke { ", smoke mode" } else { "" }
    );

    let keys: Vec<Vec<u8>> = (0..keys_n)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    for k in &keys {
        cluster.fetch(k, &db).unwrap();
    }
    observer.tick();
    let joules_after_first = observer.energy().joules();

    let begin = Instant::now();
    cluster.begin_transition(N - 1).unwrap();
    let first_stall = begin.elapsed();
    for k in &keys {
        cluster.fetch(k, &db).unwrap();
    }
    cluster.end_transition();
    // The first window also pays the first touch of four lazily zeroed
    // digests (a page fault per 4 KiB of counters); the window back up
    // is what every later transition costs, and the one that is gated.
    let begin = Instant::now();
    cluster.begin_transition(N).unwrap();
    let stall = begin.elapsed();
    cluster.end_transition();
    println!(
        "  begin_transition   : {first_stall:?} first, {stall:?} warmed \
         (limit {BEGIN_TRANSITION_LIMIT:?} in release)"
    );
    // An unoptimised build is several times slower and proves nothing.
    assert!(
        cfg!(debug_assertions) || stall <= BEGIN_TRANSITION_LIMIT,
        "opening a transition window stalled the client for {stall:?}"
    );
    // A tiny real interval so the second tick integrates nonzero time
    // and per-server rates are well-defined.
    std::thread::sleep(Duration::from_millis(50));
    let snap = observer.tick();

    // --- merge fidelity -------------------------------------------
    let oracle = {
        let mut merged = HistogramSnapshot::empty();
        for s in &servers {
            merged.merge(&merged_command_histogram(&s.metric_source()()));
        }
        merged
    };
    let scraped = merged_command_histogram(&snap.merged);
    assert!(scraped.count() > 0, "no latencies scraped");
    assert_eq!(scraped, oracle, "remote merge must equal in-process merge");
    let p99 = scraped.quantile(0.99).unwrap_or_default();
    println!(
        "  merged histogram   : {} samples, p99 {:?} (exact match with in-process merge)",
        scraped.count(),
        p99
    );

    // --- health series --------------------------------------------
    let fresh = snap.servers.iter().filter(|s| s.fresh).count();
    assert_eq!(fresh, N, "all endpoints must be fresh");
    assert_eq!(snap.active_servers, N);
    assert!(
        snap.ops_per_sec > 0.0,
        "load must register as cluster ops/s"
    );
    let imbalance = snap.imbalance.expect("load was observed");
    assert!(imbalance >= 1.0, "max/mean is >= 1 by construction");
    println!(
        "  health             : {fresh}/{N} fresh, {:.0} ops/s, imbalance {imbalance:.3}, hit ratio {:?}",
        snap.ops_per_sec, snap.hit_ratio
    );

    // --- energy monotonicity --------------------------------------
    std::thread::sleep(Duration::from_millis(50));
    observer.tick();
    let meter = observer.energy();
    assert!(
        meter.joules() > joules_after_first,
        "energy must accumulate across ticks: {} then {}",
        joules_after_first,
        meter.joules()
    );
    assert!(meter.server_seconds() > 0.0);
    let proportionality = meter.proportionality().expect("energy accumulated");
    assert!(
        proportionality >= 1.0,
        "a cluster cannot beat the proportional oracle: {proportionality}"
    );
    println!(
        "  energy             : {:.1} J measured, {:.1} J oracle, proportionality {proportionality:.2}, {:.1} server-seconds",
        meter.joules(),
        meter.oracle_joules(),
        meter.server_seconds()
    );

    let (scrapes, failures) = observer.scrape_totals();
    assert_eq!(failures, 0, "no scrape may fail against live endpoints");
    println!("cluster_obs gate passed ({scrapes} scrapes, 0 failures)");

    drop(endpoints);
    for s in servers {
        s.stop();
    }
}
