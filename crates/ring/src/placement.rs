//! Algorithm 1: deterministic virtual-node placement.
//!
//! Given the fixed provisioning order `s1..sN`, the algorithm places
//! `N(N-1)/2 + 1` virtual nodes on the unit ring such that:
//!
//! - for every active prefix size `n`, each active server owns exactly
//!   `1/n` of the key space (the Balance Condition), and
//! - a transition `n → n'` remaps exactly `|n - n'| / max(n, n')` of
//!   the key space — the information-theoretic minimum.
//!
//! Construction (paper Section III-C): `s1` starts with one virtual
//! node covering the whole ring. For each subsequent server `s_i`, one
//! virtual node is created per smaller-indexed server `s_j` by
//! borrowing a host range of length `1/(i(i-1))` from the *start* of
//! the first of `s_j`'s ranges that is strictly longer than that.
//! Theorem 1 shows no placement satisfying the Balance Condition can
//! use fewer virtual nodes.

use std::fmt;

use crate::ratio::Ratio;
use crate::server::ServerId;
use crate::strategy::PlacementStrategy;

/// The largest cluster size for which exact (`i128`-rational) placement
/// arithmetic is guaranteed not to overflow.
///
/// Host-range endpoints have denominators dividing
/// `lcm{ i(i-1) : i ≤ N }`; at `N = 64` that is ≈ 6 × 10²⁷, leaving
/// ample headroom in `i128`. The paper's evaluation uses `N = 10`.
pub const MAX_EXACT_SERVERS: usize = 64;

/// A half-open arc `[start, start + len)` of the unit ring owned by one
/// virtual node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRange {
    /// Start of the arc, in `[0, 1)`.
    pub start: Ratio,
    /// Length of the arc, in `(0, 1]`.
    pub len: Ratio,
}

impl HostRange {
    /// The arc's end (`start + len`), wrapped onto the unit circle.
    ///
    /// On the consistent-hashing ring the virtual node *sits at* this
    /// position: it serves keys in `(predecessor, end]`.
    #[must_use]
    pub fn end(&self) -> Ratio {
        (self.start + self.len).wrap_unit()
    }
}

/// One virtual node: a host range plus the physical server hosting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualNode {
    /// The server hosting this virtual node.
    pub server: ServerId,
    /// The host range assigned by Algorithm 1.
    pub range: HostRange,
}

impl VirtualNode {
    /// The node's position on the ring (the end of its host range).
    #[must_use]
    pub fn position(&self) -> Ratio {
        self.range.end()
    }
}

/// The Proteus virtual-node placement (Algorithm 1) with precomputed
/// per-prefix lookup tables.
///
/// # Example
///
/// ```
/// use proteus_ring::{PlacementStrategy, ProteusPlacement};
///
/// let p = ProteusPlacement::generate(6);
/// // Theorem 1 lower bound: N(N-1)/2 + 1 virtual nodes.
/// assert_eq!(p.virtual_node_count(), 16);
/// // Exact balance for every active prefix.
/// for n in 1..=6 {
///     let shares = p.ownership_shares(n);
///     assert!(shares.iter().all(|s| *s == proteus_ring::Ratio::new(1, n as i128)));
/// }
/// ```
#[derive(Clone)]
pub struct ProteusPlacement {
    servers: usize,
    nodes: Vec<VirtualNode>,
    tables: PrefixTables,
}

impl ProteusPlacement {
    /// Runs Algorithm 1 for `servers` physical servers and precomputes
    /// lookup tables for every active prefix.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `servers > MAX_EXACT_SERVERS`.
    #[must_use]
    pub fn generate(servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(
            servers <= MAX_EXACT_SERVERS,
            "exact placement supports up to {MAX_EXACT_SERVERS} servers, got {servers}"
        );
        // R[j] = s_{j+1}'s host ranges, in insertion order.
        let mut ranges: Vec<Vec<HostRange>> = vec![Vec::new(); servers];
        ranges[0].push(HostRange {
            start: Ratio::ZERO,
            len: Ratio::ONE,
        });
        for i in 2..=servers {
            let borrow = Ratio::new(1, (i as i128) * (i as i128 - 1));
            for j in 1..i {
                // Find the first feasible range of s_j: strictly longer
                // than the borrow amount (Algorithm 1 line 7).
                let donor = ranges[j - 1]
                    .iter_mut()
                    .find(|r| r.len > borrow)
                    .unwrap_or_else(|| {
                        panic!(
                            "Algorithm 1 invariant violated: no feasible donor in R[{j}] for s{i}"
                        )
                    });
                let new_range = HostRange {
                    start: donor.start,
                    len: borrow,
                };
                donor.start = (donor.start + borrow).wrap_unit();
                donor.len -= borrow;
                ranges[i - 1].push(new_range);
            }
        }
        let mut nodes = Vec::with_capacity(servers * (servers - 1) / 2 + 1);
        for (j, server_ranges) in ranges.iter().enumerate() {
            for &range in server_ranges {
                nodes.push(VirtualNode {
                    server: ServerId::new(j as u32),
                    range,
                });
            }
        }
        let positions: Vec<(u64, ServerId)> = nodes
            .iter()
            .map(|v| (v.position().to_ring_position(), v.server))
            .collect();
        let tables = PrefixTables::build(servers, &positions);
        ProteusPlacement {
            servers,
            nodes,
            tables,
        }
    }

    /// Total number of virtual nodes (`N(N-1)/2 + 1` by Theorem 1).
    #[must_use]
    pub fn virtual_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The virtual nodes hosted by one server.
    #[must_use]
    pub fn virtual_nodes_of(&self, server: ServerId) -> Vec<VirtualNode> {
        self.nodes
            .iter()
            .filter(|v| v.server == server)
            .copied()
            .collect()
    }

    /// Exact share of the key space owned by each of the first `n`
    /// servers when exactly `n` servers are active.
    ///
    /// Ownership follows consistent-hashing successor semantics: the
    /// virtual node at position `p` owns the arc from the previous
    /// *active* virtual node's position to `p`. Algorithm 1 guarantees
    /// every entry equals `1/n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > max_servers()`.
    #[must_use]
    pub fn ownership_shares(&self, n: usize) -> Vec<Ratio> {
        assert!(n >= 1 && n <= self.servers, "invalid active count {n}");
        let mut active: Vec<(Ratio, ServerId)> = self
            .nodes
            .iter()
            .filter(|v| v.server.is_active(n))
            .map(|v| (v.position(), v.server))
            .collect();
        active.sort();
        let mut shares = vec![Ratio::ZERO; n];
        for (idx, &(pos, server)) in active.iter().enumerate() {
            let prev = if idx == 0 {
                // Wrap: the first node owns from the last node around 0.
                active.last().unwrap().0
            } else {
                active[idx - 1].0
            };
            let arc = if idx == 0 {
                // (prev, 1) ∪ (0, pos]
                (Ratio::ONE - prev) + pos
            } else {
                pos - prev
            };
            shares[server.index()] += arc;
        }
        if n == 1 {
            shares[0] = Ratio::ONE;
        }
        shares
    }

    /// Sorted `(ring position, server)` lookup table for `n` active
    /// servers. Positions are the virtual nodes' arc ends scaled onto
    /// the 64-bit ring.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > max_servers()`.
    #[must_use]
    pub fn lookup_table(&self, n: usize) -> &[(u64, ServerId)] {
        self.tables.table(n)
    }
}

/// One sorted `(ring position, server)` table per active prefix, the
/// `n`-th holding the nodes of servers `s1..sn`. Both placements route
/// through it, so every ring has one lookup: a binary search.
#[derive(Clone)]
pub(crate) struct PrefixTables(Vec<Vec<(u64, ServerId)>>);

impl PrefixTables {
    /// Builds the table of every prefix `n = 1..=servers` from all
    /// `servers` servers' nodes.
    pub(crate) fn build(servers: usize, nodes: &[(u64, ServerId)]) -> PrefixTables {
        PrefixTables(
            (1..=servers)
                .map(|n| {
                    let mut table: Vec<(u64, ServerId)> = nodes
                        .iter()
                        .copied()
                        .filter(|(_, s)| s.is_active(n))
                        .collect();
                    table.sort_unstable();
                    table
                })
                .collect(),
        )
    }

    /// The table for `n` active servers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the servers built for.
    pub(crate) fn table(&self, n: usize) -> &[(u64, ServerId)] {
        assert!(n >= 1 && n <= self.0.len(), "invalid active count {n}");
        &self.0[n - 1]
    }

    /// The server owning `key_hash` when `n` servers are active.
    pub(crate) fn server_for(&self, key_hash: u64, n: usize) -> ServerId {
        successor(self.table(n), key_hash)
    }
}

/// Successor lookup on a sorted `(position, server)` table: the first
/// node at or after `key`, wrapping to the smallest position.
fn successor(table: &[(u64, ServerId)], key: u64) -> ServerId {
    debug_assert!(!table.is_empty());
    match table.binary_search_by(|&(pos, _)| pos.cmp(&key)) {
        Ok(i) => table[i].1,
        Err(i) if i < table.len() => table[i].1,
        Err(_) => table[0].1,
    }
}

impl PlacementStrategy for ProteusPlacement {
    fn server_for(&self, key_hash: u64, active: usize) -> ServerId {
        self.tables.server_for(key_hash, active)
    }

    fn max_servers(&self) -> usize {
        self.servers
    }

    fn name(&self) -> &str {
        "proteus"
    }
}

impl fmt::Debug for ProteusPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProteusPlacement")
            .field("servers", &self.servers)
            .field("virtual_nodes", &self.nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_owns_everything() {
        let p = ProteusPlacement::generate(1);
        assert_eq!(p.virtual_node_count(), 1);
        assert_eq!(p.ownership_shares(1), vec![Ratio::ONE]);
        assert_eq!(p.server_for(u64::MAX / 3, 1), ServerId::new(0));
    }

    #[test]
    fn two_servers_split_in_half() {
        let p = ProteusPlacement::generate(2);
        assert_eq!(p.virtual_node_count(), 2);
        assert_eq!(
            p.ownership_shares(2),
            vec![Ratio::new(1, 2), Ratio::new(1, 2)]
        );
    }

    #[test]
    fn vnode_count_matches_theorem_1_lower_bound() {
        for n in 1..=20 {
            let p = ProteusPlacement::generate(n);
            assert_eq!(p.virtual_node_count(), n * (n - 1) / 2 + 1, "N={n}");
        }
    }

    #[test]
    fn every_prefix_is_exactly_balanced() {
        // The central claim of Section III-D, verified exactly.
        for total in [1usize, 2, 3, 4, 6, 10, 16] {
            let p = ProteusPlacement::generate(total);
            for n in 1..=total {
                let shares = p.ownership_shares(n);
                for (i, s) in shares.iter().enumerate() {
                    assert_eq!(
                        *s,
                        Ratio::new(1, n as i128),
                        "N={total} n={n} server={i} share={s}"
                    );
                }
            }
        }
    }

    #[test]
    fn server_i_has_i_minus_1_vnodes_except_first() {
        let p = ProteusPlacement::generate(8);
        assert_eq!(p.virtual_nodes_of(ServerId::new(0)).len(), 1);
        for i in 1..8u32 {
            assert_eq!(
                p.virtual_nodes_of(ServerId::new(i)).len(),
                i as usize,
                "s{}",
                i + 1
            );
        }
    }

    #[test]
    fn host_ranges_partition_the_full_ring() {
        let p = ProteusPlacement::generate(10);
        let total: Ratio = p.nodes.iter().fold(Ratio::ZERO, |acc, v| acc + v.range.len);
        assert_eq!(total, Ratio::ONE);
        // No zero-length ranges (the footnote's degenerate case).
        assert!(p.nodes.iter().all(|v| v.range.len != Ratio::ZERO));
        // Starts are unique.
        let mut starts: Vec<Ratio> = p.nodes.iter().map(|v| v.range.start).collect();
        starts.sort();
        starts.dedup();
        assert_eq!(starts.len(), p.virtual_node_count());
    }

    #[test]
    fn lookup_agrees_with_exact_ownership() {
        // Sampled keys land on each server in proportion 1/n.
        let p = ProteusPlacement::generate(6);
        for n in 1..=6usize {
            let mut counts = vec![0u32; n];
            let samples = 60_000u64;
            for k in 0..samples {
                let key = crate::hash::splitmix64(k);
                counts[p.server_for(key, n).index()] += 1;
            }
            let expect = samples as f64 / n as f64;
            for (i, &c) in counts.iter().enumerate() {
                let dev = (f64::from(c) - expect).abs() / expect;
                assert!(dev < 0.02, "n={n} server={i} count={c} expect={expect}");
            }
        }
    }

    #[test]
    fn scale_down_migrates_only_the_removed_servers_share() {
        // Minimal-migration claim: going n -> n-1 remaps exactly the
        // keys owned by s_n, i.e. a 1/n fraction, and every key not on
        // s_n keeps its server.
        let p = ProteusPlacement::generate(10);
        for n in 2..=10usize {
            let mut moved = 0u32;
            let samples = 50_000u64;
            for k in 0..samples {
                let key = crate::hash::splitmix64(k ^ 0xABCD);
                let before = p.server_for(key, n);
                let after = p.server_for(key, n - 1);
                if before != after {
                    moved += 1;
                    assert_eq!(
                        before,
                        ServerId::new(n as u32 - 1),
                        "only keys of the deactivated server may move"
                    );
                }
            }
            let frac = f64::from(moved) / samples as f64;
            let expect = 1.0 / n as f64;
            assert!(
                (frac - expect).abs() < 0.01,
                "n={n} moved fraction {frac} expected {expect}"
            );
        }
    }

    #[test]
    fn scale_down_spreads_load_evenly_over_survivors() {
        // Balance Condition: when s_n turns off, its keys are split
        // evenly (1/(n(n-1)) each) over the n-1 survivors.
        let p = ProteusPlacement::generate(6);
        for n in 3..=6usize {
            let mut gains = vec![0u32; n - 1];
            let samples = 120_000u64;
            for k in 0..samples {
                let key = crate::hash::splitmix64(k ^ 0x77);
                let before = p.server_for(key, n);
                if before == ServerId::new(n as u32 - 1) {
                    gains[p.server_for(key, n - 1).index()] += 1;
                }
            }
            let total: u32 = gains.iter().sum();
            let expect = f64::from(total) / (n - 1) as f64;
            for (i, &g) in gains.iter().enumerate() {
                let dev = (f64::from(g) - expect).abs() / expect;
                assert!(dev < 0.05, "n={n} survivor={i} gain={g} expect={expect}");
            }
        }
    }

    #[test]
    fn lookup_is_deterministic_across_instances() {
        // Two independently generated placements (as two web servers
        // would hold) agree on every decision.
        let a = ProteusPlacement::generate(12);
        let b = ProteusPlacement::generate(12);
        for k in 0..10_000u64 {
            let key = crate::hash::splitmix64(k);
            for n in [1usize, 3, 7, 12] {
                assert_eq!(a.server_for(key, n), b.server_for(key, n));
            }
        }
    }

    #[test]
    fn generate_succeeds_up_to_max_exact_servers() {
        let p = ProteusPlacement::generate(MAX_EXACT_SERVERS);
        assert_eq!(
            p.virtual_node_count(),
            MAX_EXACT_SERVERS * (MAX_EXACT_SERVERS - 1) / 2 + 1
        );
        // Spot-check balance at a few prefixes (full exactness is
        // covered for smaller N; this guards overflow).
        for n in [1usize, 2, 32, 63, 64] {
            let shares = p.ownership_shares(n);
            assert!(
                shares.iter().all(|s| *s == Ratio::new(1, n as i128)),
                "n={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exact placement supports up to")]
    fn generate_rejects_oversized_cluster() {
        let _ = ProteusPlacement::generate(MAX_EXACT_SERVERS + 1);
    }

    #[test]
    #[should_panic(expected = "invalid active count")]
    fn zero_active_rejected() {
        let p = ProteusPlacement::generate(3);
        let _ = p.server_for(1, 0);
    }

    #[test]
    fn debug_is_nonempty() {
        let p = ProteusPlacement::generate(3);
        assert!(format!("{p:?}").contains("ProteusPlacement"));
    }
}
