//! Classic consistent hashing with randomly placed virtual nodes —
//! the paper's `Consistent` baseline.

use std::fmt;

use crate::hash::splitmix64;
use crate::placement::PrefixTables;
use crate::server::ServerId;
use crate::strategy::PlacementStrategy;

/// Consistent hashing with `vnodes_per_server` randomly positioned
/// virtual nodes per physical server.
///
/// The paper evaluates two configurations of this baseline (Fig. 5):
/// `O(log n)` virtual nodes and `n²/2` total virtual nodes (i.e. `n/2`
/// per server, matching Proteus's total). Both balance noticeably worse
/// than Algorithm 1's deterministic placement. Positions derive from a
/// seed, mirroring the paper's setup where "all web servers share the
/// same random seed (0)" so that routing stays consistent across the
/// web tier.
///
/// # Example
///
/// ```
/// use proteus_ring::{PlacementStrategy, RandomRing};
///
/// let ring = RandomRing::new(10, 5, 0);
/// let s = ring.server_for(0xFEED, 7);
/// assert!(s.index() < 7);
/// // Same seed ⇒ identical routing on every web server.
/// let other = RandomRing::new(10, 5, 0);
/// assert_eq!(other.server_for(0xFEED, 7), s);
/// ```
#[derive(Clone)]
pub struct RandomRing {
    servers: usize,
    vnodes_per_server: usize,
    tables: PrefixTables,
}

impl RandomRing {
    /// Creates a ring for `servers` servers with `vnodes_per_server`
    /// virtual nodes each, positioned pseudo-randomly from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `vnodes_per_server == 0`.
    #[must_use]
    pub fn new(servers: usize, vnodes_per_server: usize, seed: u64) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(
            vnodes_per_server > 0,
            "need at least one virtual node per server"
        );
        let nodes: Vec<(u64, ServerId)> = (0..servers)
            .flat_map(|j| {
                (0..vnodes_per_server)
                    .map(move |k| (vnode_position(seed, j, k), ServerId::new(j as u32)))
            })
            .collect();
        RandomRing {
            servers,
            vnodes_per_server,
            tables: PrefixTables::build(servers, &nodes),
        }
    }

    /// The paper's `O(log n)` configuration: `ceil(log2 n)` virtual
    /// nodes per server.
    #[must_use]
    pub fn with_log_vnodes(servers: usize, seed: u64) -> Self {
        let v = (usize::BITS - servers.leading_zeros()).max(1) as usize;
        RandomRing::new(servers, v, seed)
    }

    /// The paper's `n²/2` configuration: `ceil(n/2)` virtual nodes per
    /// server, `n²/2` total — the same budget Algorithm 1 uses.
    #[must_use]
    pub fn with_quadratic_vnodes(servers: usize, seed: u64) -> Self {
        RandomRing::new(servers, servers.div_ceil(2).max(1), seed)
    }
}

fn vnode_position(seed: u64, server: usize, replica: usize) -> u64 {
    splitmix64(seed ^ splitmix64((server as u64) << 20 | replica as u64))
}

impl PlacementStrategy for RandomRing {
    fn server_for(&self, key_hash: u64, active: usize) -> ServerId {
        self.tables.server_for(key_hash, active)
    }

    fn max_servers(&self) -> usize {
        self.servers
    }

    fn name(&self) -> &str {
        "consistent"
    }
}

impl fmt::Debug for RandomRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomRing")
            .field("servers", &self.servers)
            .field("vnodes_per_server", &self.vnodes_per_server)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeyHasher;

    #[test]
    fn consistent_hashing_moves_few_keys_on_scale_down() {
        // The defining property vs modulo: n -> n-1 moves only the
        // departing server's keys (≈ 1/n), not almost everything.
        let ring = RandomRing::new(10, 16, 0);
        let hasher = KeyHasher::new(1);
        let samples = 50_000u64;
        let mut moved = 0u32;
        for k in 0..samples {
            let key = hasher.hash_bytes(&k.to_le_bytes());
            let before = ring.server_for(key, 10);
            let after = ring.server_for(key, 9);
            if before != after {
                moved += 1;
                assert_eq!(before, ServerId::new(9), "only s10's keys may move");
            }
        }
        let frac = f64::from(moved) / samples as f64;
        assert!(frac < 0.25, "moved fraction {frac} should be near 1/10");
    }

    #[test]
    fn few_vnodes_balance_poorly_many_balance_better() {
        // Reproduces the Fig. 5 ordering at the ownership level.
        let imbalance = |ring: &RandomRing, n: usize| {
            let mut counts = vec![0u64; n];
            let hasher = KeyHasher::new(2);
            for k in 0..200_000u64 {
                counts[ring
                    .server_for(hasher.hash_bytes(&k.to_le_bytes()), n)
                    .index()] += 1;
            }
            let min = *counts.iter().min().unwrap() as f64;
            let max = *counts.iter().max().unwrap() as f64;
            min / max
        };
        let log_ring = RandomRing::with_log_vnodes(10, 0);
        let quad_ring = RandomRing::with_quadratic_vnodes(10, 0);
        let dense_ring = RandomRing::new(10, 256, 0);
        let r_log = imbalance(&log_ring, 10);
        let r_quad = imbalance(&quad_ring, 10);
        let r_dense = imbalance(&dense_ring, 10);
        assert!(r_log < r_dense, "log {r_log} vs dense {r_dense}");
        assert!(r_quad <= r_dense + 0.05, "quad {r_quad} vs dense {r_dense}");
        // Even 256 random vnodes/server stays visibly below exact balance.
        assert!(r_dense < 0.999);
    }

    #[test]
    fn seed_controls_layout() {
        let a = RandomRing::new(4, 8, 0);
        let b = RandomRing::new(4, 8, 0);
        let c = RandomRing::new(4, 8, 1);
        let mut diff = 0;
        for k in 0..1000u64 {
            let key = splitmix64(k);
            assert_eq!(a.server_for(key, 4), b.server_for(key, 4));
            if a.server_for(key, 4) != c.server_for(key, 4) {
                diff += 1;
            }
        }
        assert!(diff > 100, "different seeds should route differently");
    }

    #[test]
    fn configuration_helpers() {
        assert_eq!(RandomRing::with_log_vnodes(10, 0).vnodes_per_server, 4);
        assert_eq!(
            RandomRing::with_quadratic_vnodes(10, 0).vnodes_per_server,
            5
        );
        assert_eq!(RandomRing::with_log_vnodes(1, 0).vnodes_per_server, 1);
    }

    #[test]
    #[should_panic(expected = "at least one virtual node")]
    fn zero_vnodes_rejected() {
        let _ = RandomRing::new(3, 0, 0);
    }
}
