//! Smoke tests of the facade crate: every subsystem is reachable
//! through `proteus::*` and composes.

use proteus::bloom::BloomConfig;
use proteus::cache::{CacheConfig, CacheEngine};
use proteus::ring::{PlacementStrategy, ProteusPlacement};
use proteus::sim::{SimDuration, SimRng, SimTime, Welford};
use proteus::store::{ShardedStore, StoreConfig};
use proteus::workload::{Trace, TraceConfig, ZipfSampler};

#[test]
fn every_subsystem_is_reachable_and_composes() {
    // ring
    let placement = ProteusPlacement::generate(4);
    let server = placement.server_for(42, 4);
    assert!(server.index() < 4);
    // bloom via cache digest
    let mut cache = CacheEngine::new(CacheConfig::with_capacity(1 << 20).digest(BloomConfig::new(
        1 << 12,
        4,
        4,
    )));
    cache.put(b"k", b"v".to_vec(), SimTime::ZERO);
    assert!(cache.digest_snapshot().contains(b"k"));
    // store
    let mut store = ShardedStore::new(StoreConfig::default());
    assert_eq!(store.fetch(b"k").len(), 4096);
    // workload
    let zipf = ZipfSampler::new(100, 0.8);
    let mut rng = SimRng::seed_from_u64(1);
    assert!((1..=100).contains(&zipf.sample(&mut rng)));
    // Session-granular synthesis needs a horizon long enough for a few
    // sessions to arrive.
    let trace = Trace::synthesize(
        &TraceConfig {
            duration: SimDuration::from_secs(60),
            mean_rate: 100.0,
            pages: 100,
            ..TraceConfig::default()
        },
        1,
    );
    assert!(!trace.is_empty());
    // sim statistics
    let w: Welford = [1.0, 2.0, 3.0].into_iter().collect();
    assert_eq!(w.count(), 3);
}

#[test]
fn readme_quickstart_compiles_and_runs() {
    use proteus::core::{ClusterConfig, ClusterSim, ProvisioningPlan, Scenario};
    let mut config = ClusterConfig::small();
    config.slots = 2;
    let trace = Trace::synthesize(&config.trace_config(50.0), 42);
    let plan = ProvisioningPlan::load_proportional(
        &trace.requests_per_slot(config.slot, config.slots),
        config.cache_servers,
        2,
    );
    let report = ClusterSim::new(config, Scenario::Proteus, &trace, &plan, 7).run();
    assert!(report.worst_bucket_quantile(0.999).is_some());
}
