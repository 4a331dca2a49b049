//! Fault-tolerant replication over multiple hash rings
//! (Section III-E).
//!
//! Proteus extends to `r` replicas by running `r` consistent-hashing
//! rings with `r` different hash functions, all sharing the *same*
//! virtual-node placement. A key is stored on the server owning it in
//! each ring; Eq. 3 gives the probability that all `r` copies land on
//! distinct servers.

use std::fmt;

use crate::hash::{replica_ring_hasher, KeyHasher};
use crate::placement::ProteusPlacement;
use crate::server::ServerId;
use crate::strategy::PlacementStrategy;

/// A Proteus placement replicated across `r` hash rings.
///
/// # Example
///
/// ```
/// use proteus_ring::ReplicatedPlacement;
///
/// let rp = ReplicatedPlacement::new(10, 3, 42);
/// let servers = rp.servers_for(b"Main_Page", 10);
/// assert_eq!(servers.len(), 3);
/// // Eq. 3: with n = 10, r = 3 the no-conflict probability is
/// // (10/10)(9/10)(8/10) = 0.72.
/// let p = ReplicatedPlacement::no_conflict_probability(3, 10);
/// assert!((p - 0.72).abs() < 1e-12);
/// ```
#[derive(Clone)]
pub struct ReplicatedPlacement {
    placement: ProteusPlacement,
    hashers: Vec<KeyHasher>,
}

impl ReplicatedPlacement {
    /// Creates a placement for `servers` servers with `replicas` rings
    /// whose hash functions derive from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` or the cluster size is invalid for
    /// [`ProteusPlacement::generate`].
    #[must_use]
    pub fn new(servers: usize, replicas: usize, seed: u64) -> Self {
        assert!(replicas > 0, "need at least one replica");
        let placement = ProteusPlacement::generate(servers);
        let hashers = (0..replicas)
            .map(|i| replica_ring_hasher(seed, i))
            .collect();
        ReplicatedPlacement { placement, hashers }
    }

    /// Number of replicas (`r`).
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.hashers.len()
    }

    /// The servers holding each replica of `key` when `active` servers
    /// are on — one entry per ring, in ring order. Entries may repeat
    /// (a hash conflict, Section III-E); use
    /// [`distinct_servers_for`](Self::distinct_servers_for) for the
    /// deduplicated set.
    #[must_use]
    pub fn servers_for(&self, key: &[u8], active: usize) -> Vec<ServerId> {
        self.hashers
            .iter()
            .map(|h| self.placement.server_for(h.hash_bytes(key), active))
            .collect()
    }

    /// The distinct servers holding `key`, in provisioning order.
    #[must_use]
    pub fn distinct_servers_for(&self, key: &[u8], active: usize) -> Vec<ServerId> {
        let mut v = self.servers_for(key, active);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Eq. 3: the probability that `r` independent uniform placements
    /// over `n` servers are pairwise distinct,
    /// `Π_{i=0}^{r-1} (n - i) / n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn no_conflict_probability(r: usize, n: usize) -> f64 {
        assert!(n > 0, "need at least one server");
        (0..r).fold(1.0, |acc, i| acc * (n.saturating_sub(i)) as f64 / n as f64)
    }
}

impl fmt::Debug for ReplicatedPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicatedPlacement")
            .field("servers", &self.placement.max_servers())
            .field("replicas", &self.hashers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_count_and_activity() {
        let rp = ReplicatedPlacement::new(8, 2, 0);
        assert_eq!(rp.replicas(), 2);
        for k in 0..100u64 {
            let key = k.to_le_bytes();
            for s in rp.servers_for(&key, 5) {
                assert!(s.index() < 5);
            }
        }
    }

    #[test]
    fn rings_are_independent() {
        // The two rings should disagree on a substantial fraction of
        // keys; identical rings would defeat replication.
        let rp = ReplicatedPlacement::new(10, 2, 7);
        let mut differ = 0;
        for k in 0..5_000u64 {
            let servers = rp.servers_for(&k.to_le_bytes(), 10);
            if servers[0] != servers[1] {
                differ += 1;
            }
        }
        let frac = f64::from(differ) / 5_000.0;
        // Eq. 3 predicts 90% distinct for r=2, n=10.
        assert!((frac - 0.9).abs() < 0.03, "distinct fraction {frac}");
    }

    #[test]
    fn empirical_conflict_rate_matches_eq3() {
        for (r, n) in [(2usize, 5usize), (3, 10), (2, 20)] {
            let rp = ReplicatedPlacement::new(n.max(r), r, 13);
            let trials = 20_000u64;
            let mut all_distinct = 0u64;
            for k in 0..trials {
                if rp.distinct_servers_for(&k.to_le_bytes(), n).len() == r {
                    all_distinct += 1;
                }
            }
            let measured = all_distinct as f64 / trials as f64;
            let predicted = ReplicatedPlacement::no_conflict_probability(r, n);
            assert!(
                (measured - predicted).abs() < 0.02,
                "r={r} n={n}: measured {measured}, Eq.3 {predicted}"
            );
        }
    }

    #[test]
    fn no_conflict_probability_edge_cases() {
        assert_eq!(ReplicatedPlacement::no_conflict_probability(1, 10), 1.0);
        assert_eq!(ReplicatedPlacement::no_conflict_probability(11, 10), 0.0);
        let p = ReplicatedPlacement::no_conflict_probability(3, 1000);
        assert!(p > 0.99, "large n makes conflicts rare: {p}");
    }

    #[test]
    fn distinct_servers_deduplicates() {
        let rp = ReplicatedPlacement::new(4, 3, 0);
        for k in 0..500u64 {
            let key = k.to_le_bytes();
            let all = rp.servers_for(&key, 4);
            let distinct = rp.distinct_servers_for(&key, 4);
            assert!(distinct.len() <= all.len());
            assert!(!distinct.is_empty());
            let mut sorted = distinct.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, distinct, "sorted order");
        }
    }
}
