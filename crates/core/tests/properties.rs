//! Property-based tests for the core system's state machines.

use proptest::prelude::*;
use proteus_bloom::{BloomConfig, BloomFilter, CountingBloomFilter};
use proteus_cache::{CacheConfig, CacheEngine};
use proteus_core::{
    fetch_class, FeedbackController, FetchClass, PowerState, Probe, ProvisioningPlan, Router,
    Scenario, TransitionManager, TransitionOverlap,
};
use proteus_sim::{SimDuration, SimTime};
use proteus_store::{ShardedStore, StoreConfig};

fn empty_digests(n: usize) -> impl Iterator<Item = Option<BloomFilter>> {
    (0..n).map(|_| Some(CountingBloomFilter::new(BloomConfig::new(64, 1, 2)).snapshot()))
}

/// Every row of Algorithm 2's outcome table yields its class, and the
/// old server's answer matters only after the new server missed.
#[test]
fn outcome_table_rows() {
    use Probe::{Down, Hit, Miss};
    assert_eq!(fetch_class(Hit, None), FetchClass::NewHit);
    assert_eq!(fetch_class(Down, None), FetchClass::Degraded);
    assert_eq!(fetch_class(Miss, None), FetchClass::Database);
    assert_eq!(fetch_class(Miss, Some(Hit)), FetchClass::Migrated);
    assert_eq!(
        fetch_class(Miss, Some(Miss)),
        FetchClass::DatabaseFalsePositive
    );
    assert_eq!(fetch_class(Miss, Some(Down)), FetchClass::Degraded);
    for new in [Hit, Down] {
        for old in [Hit, Miss, Down] {
            assert_eq!(fetch_class(new, Some(old)), fetch_class(new, None));
        }
    }
}

proptest! {
    /// The transition state machine keeps its invariants under any
    /// sequence of transitions: the active prefix is On, Off servers
    /// are outside both mappings, Draining servers sit between `active`
    /// and `previous_active`, and a smooth transition inside an open
    /// window is rejected without moving anything.
    #[test]
    fn transition_state_machine_invariants(
        total in 2usize..12,
        targets in prop::collection::vec(1usize..12, 1..20),
        smooth in prop::collection::vec(any::<bool>(), 20),
    ) {
        let mut tm = TransitionManager::new(total, total);
        for (step, (&target, &smooth)) in targets.iter().zip(&smooth).enumerate() {
            let target = target.min(total);
            if smooth {
                let before = (tm.previous_active(), tm.active());
                let overlap = tm.is_open() && target != tm.active();
                let result = tm.begin(target, empty_digests(total));
                if overlap {
                    prop_assert_eq!(result, Err(TransitionOverlap), "step {}", step);
                    prop_assert_eq!((tm.previous_active(), tm.active()), before);
                } else {
                    prop_assert_eq!(result, Ok(()), "step {}", step);
                    prop_assert_eq!(tm.active(), target, "step {}", step);
                }
            } else {
                for _server in tm.switch_abrupt(target) {}
                prop_assert_eq!(tm.active(), target, "step {}", step);
                prop_assert!(!tm.is_open());
            }
            for i in 0..tm.active() {
                prop_assert_eq!(tm.state(i), PowerState::On, "active server {} state", i);
            }
            for i in tm.active().max(tm.previous_active())..total {
                prop_assert_eq!(tm.state(i), PowerState::Off, "outside server {}", i);
            }
            for i in 0..total {
                if tm.state(i) == PowerState::Draining {
                    prop_assert!(i >= tm.active() && i < tm.previous_active());
                }
            }
            // Finalize sometimes, mimicking drain deadlines.
            if step % 3 == 2 {
                let draining = tm.active()..tm.previous_active();
                prop_assert_eq!(tm.finalize(), draining.collect::<Vec<_>>());
                prop_assert!(!tm.is_open());
            }
        }
    }

    /// Digest snapshots exist exactly for old-mapping servers while a
    /// window is open, and never after finalize.
    #[test]
    fn transition_digest_lifecycle(total in 2usize..10, target in 1usize..10) {
        let target = target.min(total);
        let mut tm = TransitionManager::new(total, total);
        tm.begin(target, empty_digests(total)).unwrap();
        for i in 0..total {
            prop_assert_eq!(tm.digest(i).is_some(), tm.is_open(), "during window, server {}", i);
        }
        tm.finalize();
        for i in 0..total {
            prop_assert!(tm.digest(i).is_none(), "after finalize, server {}", i);
        }
    }

    /// The one routing decision of Algorithm 2, for random cluster
    /// sizes, windows and digests (some missing): it never probes with
    /// the window closed, never names a server outside the old active
    /// prefix, never probes a key whose mapping did not change
    /// (Algorithm 1's minimal remap seen from Algorithm 2), and probes
    /// exactly when the old server's digest vouches for the key.
    #[test]
    fn probe_target_follows_the_window(
        total in 2usize..9,
        from in 1usize..9,
        to in 1usize..9,
        open in any::<bool>(),
        cached in prop::collection::vec(any::<bool>(), 120),
        have_digest in prop::collection::vec(any::<bool>(), 9),
    ) {
        let (from, to) = (from.min(total), to.min(total));
        let router = Router::new(Scenario::Proteus.strategy(total, 0));
        let keys: Vec<Vec<u8>> =
            (0..cached.len()).map(|i| format!("page:{i}").into_bytes()).collect();
        // Every old server's digest holds the cached keys it owns.
        let mut filters: Vec<CountingBloomFilter> = (0..from)
            .map(|_| CountingBloomFilter::new(BloomConfig::new(1 << 12, 4, 4)))
            .collect();
        for (key, _) in keys.iter().zip(&cached).filter(|(_, &c)| c) {
            filters[router.server_for(key, from).index()].insert(key);
        }
        let mut tm = TransitionManager::new(total, from);
        if open {
            let digests = filters.iter().zip(&have_digest).map(|(f, &have)| have.then(|| f.snapshot()));
            tm.begin(to, digests).unwrap();
        }
        prop_assert_eq!(tm.is_open(), open && from != to);
        for (key, &cached) in keys.iter().zip(&cached) {
            let new = router.server_for(key, tm.active());
            let old = router.server_for(key, tm.previous_active());
            let target = tm.probe_target(&router, key, new);
            let vouched = tm.is_open()
                && old != new
                && tm.digest(old.index()).is_some_and(|d| d.contains(key));
            prop_assert_eq!(target, vouched.then_some(old));
            if let Some(named) = target {
                prop_assert!(named.index() < tm.previous_active(), "outside the old prefix");
            }
            if cached && tm.is_open() && old != new && have_digest[old.index()] {
                prop_assert_eq!(target, Some(old), "a digest has no false negatives");
            }
        }
    }

    /// Load-proportional plans always respect bounds and track volume
    /// monotonically: a strictly larger volume never gets fewer servers.
    #[test]
    fn plan_respects_bounds_and_monotonicity(
        volumes in prop::collection::vec(1u64..1_000_000, 2..50),
        total in 2usize..32,
    ) {
        let min = (total / 3).max(1);
        let plan = ProvisioningPlan::load_proportional(&volumes, total, min);
        for (i, &n) in plan.counts().iter().enumerate() {
            prop_assert!((min..=total).contains(&n), "slot {} count {}", i, n);
        }
        for i in 0..volumes.len() {
            for j in 0..volumes.len() {
                if volumes[i] > volumes[j] {
                    prop_assert!(
                        plan.active_at(i) >= plan.active_at(j),
                        "volume {} > {} but servers {} < {}",
                        volumes[i], volumes[j], plan.active_at(i), plan.active_at(j)
                    );
                }
            }
        }
        // The peak slot gets everything.
        let peak = volumes.iter().enumerate().max_by_key(|(_, &v)| v).unwrap().0;
        prop_assert_eq!(plan.active_at(peak), total);
    }

    /// The feedback controller never leaves its bounds and always
    /// reacts in the correct direction.
    #[test]
    fn feedback_controller_direction(
        total in 2usize..20,
        current in 1usize..20,
        delay_ms in 0u64..5_000,
    ) {
        let current = current.min(total);
        let mut fc = FeedbackController::paper_defaults(total);
        let delay = SimDuration::from_millis(delay_ms);
        let next = fc.decide(current, delay);
        prop_assert!((1..=total).contains(&next));
        if delay > SimDuration::from_millis(500) {
            prop_assert!(next >= current, "over bound must not scale down");
        }
        if delay_ms < 100 {
            prop_assert!(next <= current, "deep headroom must not scale up");
        }
        prop_assert!((next as i64 - current as i64).abs() <= 1, "one step per slot");
    }

    /// Algorithm 2 always returns the authoritative value regardless of
    /// cache/transition state, for any interleaving of fetches and
    /// transitions.
    #[test]
    fn router_always_returns_authoritative_data(
        ops in prop::collection::vec((0u16..60, any::<bool>()), 1..60),
        servers in 2usize..6,
    ) {
        let router = Router::new(Scenario::Proteus.strategy(servers, 0));
        let mut caches: Vec<CacheEngine> = (0..servers)
            .map(|_| {
                CacheEngine::new(
                    CacheConfig::with_capacity(1 << 16)
                        .digest(BloomConfig::new(1 << 12, 4, 4)),
                )
            })
            .collect();
        let mut db = ShardedStore::new(StoreConfig { object_size: 64, ..StoreConfig::default() });
        let mut tm = TransitionManager::new(servers, servers);
        let mut now = SimTime::ZERO;
        let mut next_active = servers;
        for &(page, do_transition) in &ops {
            now += SimDuration::from_millis(200);
            if do_transition {
                // One window at a time: close the open one first.
                for server in tm.finalize() {
                    caches[server].clear();
                }
                next_active = if next_active > 1 { next_active - 1 } else { servers };
                let snapshots: Vec<_> =
                    caches.iter().map(|c| Some(c.digest_snapshot())).collect();
                tm.begin(next_active, snapshots).unwrap();
            }
            let key = format!("page:{page}").into_bytes();
            let expect = proteus_store::generate_page_content(&key, 64);
            let out = router.fetch(&key, now, &mut caches, &mut db, &tm, true);
            prop_assert_eq!(&out.value, &expect, "wrong data for page {}", page);
            prop_assert!(out.new_server.index() < tm.active());
        }
    }
}
