//! Analytical LRU hit-ratio prediction (Che's approximation).
//!
//! Fig. 6 measures the cache hit ratio against cache size by replay;
//! this module predicts the same curve analytically. Under the
//! independent reference model, an LRU cache of `C` objects behaves as
//! if each object stays cached for a *characteristic time* `T_C`
//! (measured in requests) satisfying
//!
//! ```text
//! Σ_i (1 − e^{−p_i·T_C}) = C
//! ```
//!
//! and the hit ratio is `Σ_i p_i (1 − e^{−p_i·T_C})` (Che, Tung &
//! Wang, 2002). The approximation is famously accurate for Zipf-like
//! popularity — the regime of this paper's workload — and the test
//! suite cross-validates it against the real
//! [`CacheEngine`](../../proteus_cache/struct.CacheEngine.html).

/// Solves for Che's characteristic time `T_C` (in requests) for a
/// popularity distribution `probs` (need not be normalized) and a
/// cache holding `capacity` objects.
///
/// Returns `None` if `capacity` is zero or at least the catalog size
/// (where the model degenerates: hit ratio 0 or 1).
///
fn characteristic_time(probs: &[f64], capacity: usize) -> Option<f64> {
    if capacity == 0 || capacity >= probs.len() {
        return None;
    }
    let total: f64 = probs.iter().sum();
    assert!(total > 0.0, "popularity mass must be positive");
    let occupied = |t: f64| -> f64 {
        probs
            .iter()
            .map(|&p| 1.0 - (-p / total * t).exp())
            .sum::<f64>()
    };
    // Bisection on the monotone occupancy function.
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    while occupied(hi) < capacity as f64 {
        hi *= 2.0;
        if hi > 1e18 {
            return None;
        }
    }
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        if occupied(mid) < capacity as f64 {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) <= 1e-9 * hi {
            break;
        }
    }
    Some((lo + hi) / 2.0)
}

/// Che's approximation of the LRU hit ratio for popularity `probs` and
/// a cache of `capacity` objects.
///
/// # Example
///
/// ```
/// use proteus_workload::lru_model;
/// // A cache holding the full catalog hits on everything.
/// assert_eq!(lru_model::hit_ratio(&[0.6, 0.4], 2), 1.0);
/// // An empty cache hits on nothing.
/// assert_eq!(lru_model::hit_ratio(&[0.6, 0.4], 0), 0.0);
/// ```
#[must_use]
pub fn hit_ratio(probs: &[f64], capacity: usize) -> f64 {
    if capacity == 0 || probs.is_empty() {
        return 0.0;
    }
    if capacity >= probs.len() {
        return 1.0;
    }
    let total: f64 = probs.iter().sum();
    let t = characteristic_time(probs, capacity).expect("interior capacity");
    probs
        .iter()
        .map(|&p| {
            let q = p / total;
            q * (1.0 - (-q * t).exp())
        })
        .sum()
}

/// Convenience: the predicted LRU hit ratio for a Zipf(`s`) catalog of
/// `pages` objects with a cache of `capacity` objects.
///
/// # Panics
///
/// Panics if `pages == 0` or `s` is not finite and positive.
#[must_use]
pub fn zipf_hit_ratio(pages: u64, s: f64, capacity: usize) -> f64 {
    assert!(pages > 0, "need at least one page");
    assert!(s.is_finite() && s > 0.0, "invalid exponent {s}");
    let probs: Vec<f64> = (1..=pages).map(|k| (k as f64).powf(-s)).collect();
    hit_ratio(&probs, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ZipfSampler;
    use proteus_sim::SimRng;

    #[test]
    fn occupancy_boundaries() {
        assert_eq!(hit_ratio(&[], 5), 0.0);
        assert_eq!(hit_ratio(&[1.0], 0), 0.0);
        assert_eq!(hit_ratio(&[0.7, 0.3], 5), 1.0);
        assert_eq!(characteristic_time(&[0.5, 0.5], 0), None);
        assert_eq!(characteristic_time(&[0.5, 0.5], 2), None);
    }

    #[test]
    fn hit_ratio_is_monotone_in_capacity() {
        let probs: Vec<f64> = (1..=1000u64).map(|k| (k as f64).powf(-0.8)).collect();
        let mut last = 0.0;
        for capacity in [10, 50, 100, 300, 600, 999] {
            let h = hit_ratio(&probs, capacity);
            assert!(h > last, "capacity {capacity}: {h} <= {last}");
            assert!(h < 1.0);
            last = h;
        }
    }

    #[test]
    fn uniform_popularity_hit_ratio_is_fill_fraction() {
        // With uniform popularity, LRU holds a uniform random subset:
        // hit ratio ≈ C/n.
        let probs = vec![1.0; 1000];
        for capacity in [100, 500, 900] {
            let h = hit_ratio(&probs, capacity);
            let expect = capacity as f64 / 1000.0;
            assert!((h - expect).abs() < 0.02, "C={capacity}: {h} vs {expect}");
        }
    }

    #[test]
    fn prediction_matches_simulated_lru_engine() {
        // Cross-validation: an IRM Zipf request stream against the real
        // CacheEngine must land on Che's curve.
        use proteus_cache::{CacheConfig, CacheEngine, StorageKind};
        use proteus_sim::SimTime;

        let pages = 20_000u64;
        let s = 0.8;
        let zipf = ZipfSampler::new(pages, s);
        let mut rng = SimRng::seed_from_u64(7);
        for capacity in [500usize, 2000, 8000] {
            // object size 1 (key-only accounting) so capacity = items.
            // Che models an ideal byte-budget LRU: the heap backend is
            // one. On the slab each 9-byte item fills a 64-byte chunk,
            // so pages would run out before the byte budget does.
            let mut cache = CacheEngine::new(
                CacheConfig::with_capacity(capacity as u64 * 9)
                    .item_overhead(0)
                    .storage(StorageKind::Heap),
            );
            let mut hits = 0u64;
            let requests = 300_000u64;
            for _ in 0..requests {
                let page = zipf.sample(&mut rng);
                let key = format!("{page:08}").into_bytes(); // 8 bytes
                if cache.get(&key, SimTime::ZERO).is_some() {
                    hits += 1;
                } else {
                    cache.put(&key, vec![0u8; 1], SimTime::ZERO);
                }
            }
            let measured = hits as f64 / requests as f64;
            let predicted = zipf_hit_ratio(pages, s, capacity);
            assert!(
                (measured - predicted).abs() < 0.02,
                "C={capacity}: measured {measured:.4}, Che predicts {predicted:.4}"
            );
        }
    }

    #[test]
    fn characteristic_time_grows_with_capacity() {
        let probs: Vec<f64> = (1..=500u64).map(|k| (k as f64).powf(-0.9)).collect();
        let t1 = characteristic_time(&probs, 50).unwrap();
        let t2 = characteristic_time(&probs, 200).unwrap();
        assert!(t2 > t1);
    }
}
