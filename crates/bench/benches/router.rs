//! Algorithm 2 fetch-path benchmarks: the cost of routing decisions
//! in and out of transition windows.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use proteus_cache::{CacheConfig, CacheEngine};
use proteus_core::{Router, Scenario, TransitionManager};
use proteus_sim::SimTime;
use proteus_store::{ShardedStore, StoreConfig};

fn setup(n: usize) -> (Router, Vec<CacheEngine>, ShardedStore, TransitionManager) {
    let router = Router::new(Scenario::Proteus.strategy(n, 0));
    let mut caches: Vec<CacheEngine> = (0..n)
        .map(|_| CacheEngine::new(CacheConfig::with_capacity(256 << 20)))
        .collect();
    let mut db = ShardedStore::new(StoreConfig {
        object_size: 4096,
        ..StoreConfig::default()
    });
    let tm = TransitionManager::new(n, n);
    // Warm 20k pages.
    for i in 0..20_000u64 {
        let key = format!("page:{i}");
        router.fetch(
            key.as_bytes(),
            SimTime::ZERO,
            &mut caches,
            &mut db,
            &tm,
            true,
        );
    }
    (router, caches, db, tm)
}

fn fetch_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm2_fetch");
    group.sample_size(30);

    group.bench_function("hit_steady_state", |b| {
        let (router, mut caches, mut db, tm) = setup(10);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 20_000;
            let key = format!("page:{i}");
            black_box(router.fetch(
                key.as_bytes(),
                SimTime::ZERO,
                &mut caches,
                &mut db,
                &tm,
                true,
            ))
        });
    });

    group.bench_function("hit_during_transition", |b| {
        let (router, mut caches, mut db, mut tm) = setup(10);
        tm.begin(9, caches.iter().map(|c| Some(c.digest_snapshot())))
            .expect("no window is open");
        let t = SimTime::from_secs(1);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 20_000;
            let key = format!("page:{i}");
            black_box(router.fetch(key.as_bytes(), t, &mut caches, &mut db, &tm, true))
        });
    });

    group.bench_function("database_miss", |b| {
        let (router, mut caches, mut db, tm) = setup(10);
        let mut i = 10_000_000u64;
        b.iter(|| {
            i += 1;
            let key = format!("cold:{i}");
            black_box(router.fetch(
                key.as_bytes(),
                SimTime::ZERO,
                &mut caches,
                &mut db,
                &tm,
                true,
            ))
        });
    });

    group.finish();
}

criterion_group!(benches, fetch_paths);
criterion_main!(benches);
