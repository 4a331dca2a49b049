//! Quickstart: the Proteus actuator in a nutshell.
//!
//! Builds a 4-server cache tier in front of a sharded store, warms it,
//! then performs a smooth scale-down (4 → 3) exactly as Section IV
//! prescribes: digests are broadcast, the mapping switches, and hot
//! data migrates on demand with **zero** database traffic.
//!
//! Run with: `cargo run --example quickstart`

use proteus::cache::{CacheConfig, CacheEngine};
use proteus::core::{FetchClass, Router, Scenario, TransitionManager};
use proteus::sim::{SimDuration, SimTime};
use proteus::store::{ShardedStore, StoreConfig};

fn main() {
    let servers = 4;
    let router = Router::new(Scenario::Proteus.strategy(servers, 0));
    let mut caches: Vec<CacheEngine> = (0..servers)
        .map(|_| CacheEngine::new(CacheConfig::with_capacity(64 << 20)))
        .collect();
    let mut db = ShardedStore::new(StoreConfig::default());
    let mut transition = TransitionManager::new(servers, servers);

    // --- Warm phase: 500 pages enter the cache through misses. -------
    let t0 = SimTime::ZERO;
    let keys: Vec<Vec<u8>> = (1..=500u32)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    for key in &keys {
        router.fetch(key, t0, &mut caches, &mut db, &transition, true);
    }
    println!(
        "warmed {} pages; database fetches so far: {}",
        keys.len(),
        db.total_fetches()
    );
    for (i, cache) in caches.iter().enumerate() {
        println!(
            "  s{}: {} items, {} KiB",
            i + 1,
            cache.len(),
            cache.bytes_used() / 1024
        );
    }

    // --- Scale down 4 → 3, the Proteus way. --------------------------
    let t1 = t0 + SimDuration::from_secs(1);
    let db_before = db.total_fetches();
    transition
        .begin(3, caches.iter().map(|c| Some(c.digest_snapshot())))
        .expect("no window is open");
    println!("\nscaling 4 → 3: digests broadcast, s4 draining for TTL");

    let mut classes = [0u32; 3]; // hits, migrations, database
    for key in &keys {
        let outcome = router.fetch(key, t1, &mut caches, &mut db, &transition, true);
        match outcome.class {
            FetchClass::NewHit => classes[0] += 1,
            FetchClass::Migrated => classes[1] += 1,
            FetchClass::Database | FetchClass::DatabaseFalsePositive | FetchClass::Degraded => {
                classes[2] += 1;
            }
        }
    }
    println!(
        "first pass after the switch: {} direct hits, {} migrated on demand, {} database",
        classes[0], classes[1], classes[2]
    );
    assert_eq!(
        db.total_fetches(),
        db_before,
        "smooth transition must not touch the database for hot data"
    );

    // The migration is amortized: a second pass is all direct hits.
    let mut second_hits = 0;
    for key in &keys {
        if router
            .fetch(key, t1, &mut caches, &mut db, &transition, true)
            .class
            == FetchClass::NewHit
        {
            second_hits += 1;
        }
    }
    println!("second pass: {second_hits}/{} direct hits", keys.len());

    // After TTL the drained server powers off safely.
    for server in transition.finalize() {
        caches[server].clear();
        println!("s{} powered off (cache cleared)", server + 1);
    }
    println!("\nload per server with 3 active:");
    for (i, cache) in caches.iter().enumerate().take(3) {
        println!("  s{}: {} items", i + 1, cache.len());
    }
    println!("\nquickstart OK: zero delay penalty, minimal migration, balanced load.");
}
