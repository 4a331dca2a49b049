//! A live TCP cache cluster on localhost.
//!
//! Spins up four real cache servers speaking the memcached-flavoured
//! protocol (with the paper's `SET_BLOOM_FILTER` / `BLOOM_FILTER`
//! digest keys), warms them through an Algorithm 2 cluster client,
//! then performs a live smooth scale-down and shows that hot keys
//! move over the wire — migrated by the requests that touch them and
//! pulled ahead by the window's background thread — with zero database
//! traffic.
//!
//! Run with: `cargo run --example tcp_cluster`

use parking_lot::Mutex;
use proteus::cache::CacheConfig;
use proteus::core::Scenario;
use proteus::net::{CacheServer, ClusterClient, ClusterFetch};
use proteus::store::{ShardedStore, StoreConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4;
    let servers: Vec<CacheServer> = (0..n)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(16 << 20)))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<_> = servers.iter().map(CacheServer::addr).collect();
    println!("cache servers listening:");
    for (i, addr) in addrs.iter().enumerate() {
        println!("  s{}: {addr}", i + 1);
    }

    let mut cluster = ClusterClient::connect(&addrs, Scenario::Proteus.strategy(n, 0))?;
    let db = Mutex::new(ShardedStore::new(StoreConfig::default()));

    // Warm 200 pages through the cluster.
    let keys: Vec<Vec<u8>> = (1..=200u32)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    for key in &keys {
        cluster.fetch(key, &db)?;
    }
    println!(
        "\nwarmed {} pages ({} database fetches)",
        keys.len(),
        db.lock().total_fetches()
    );
    for (i, server) in servers.iter().enumerate() {
        let items = server.with_engine(|e| e.len());
        println!("  s{}: {items} items", i + 1);
    }

    // Live smooth scale-down: digests travel over the data protocol.
    let db_before = db.lock().total_fetches();
    cluster.begin_transition(3)?;
    println!("\nscaled 4 → 3 (digest snapshots fetched via get BLOOM_FILTER)");
    let mut hits = 0;
    let mut migrated = 0;
    let mut database = 0;
    for key in &keys {
        match cluster.fetch(key, &db)?.1 {
            ClusterFetch::Hit | ClusterFetch::ReplicaHit => hits += 1,
            ClusterFetch::Migrated => migrated += 1,
            ClusterFetch::Database | ClusterFetch::Degraded | ClusterFetch::FalsePositive => {
                database += 1;
            }
        }
    }
    println!("first pass: {hits} hits, {migrated} migrated on demand, {database} database");
    let pull = cluster.pull_progress().expect("a window is open");
    println!(
        "background pull: {} of {} listed keys moved ahead of demand ({:?})",
        pull.moved, pull.listed, pull.state
    );
    assert_eq!(
        db.lock().total_fetches(),
        db_before,
        "hot keys must migrate, not refetch"
    );
    cluster.end_transition();

    // s4 can now power off.
    let mut servers = servers;
    let retired = servers.pop().expect("four servers");
    retired.stop();
    println!("s4 powered off; cluster serving on 3 servers");

    let mut hits = 0;
    for key in &keys {
        if cluster.fetch(key, &db)?.1 == ClusterFetch::Hit {
            hits += 1;
        }
    }
    println!(
        "second pass: {hits}/{} direct hits — migration amortized",
        keys.len()
    );
    for server in servers {
        server.stop();
    }
    println!("\ntcp_cluster OK");
    Ok(())
}
