//! Property-based tests for the placement algorithms.

use proptest::prelude::*;
use proteus_ring::{
    analysis, hash::splitmix64, ModuloStrategy, PlacementStrategy, ProteusPlacement, RandomRing,
    Ratio, ReplicatedPlacement, ServerId,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1's Balance Condition, exactly, for every prefix of
    /// every cluster size up to 24.
    #[test]
    fn proteus_balance_is_exact_for_all_prefixes(total in 1usize..24) {
        let p = ProteusPlacement::generate(total);
        for n in 1..=total {
            let shares = p.ownership_shares(n);
            for s in &shares {
                prop_assert_eq!(*s, Ratio::new(1, n as i128));
            }
        }
    }

    /// Theorem 1: the generated placement always uses exactly the
    /// lower-bound number of virtual nodes.
    #[test]
    fn proteus_vnode_count_is_lower_bound(total in 1usize..40) {
        let p = ProteusPlacement::generate(total);
        prop_assert_eq!(p.virtual_node_count(), total * (total - 1) / 2 + 1);
    }

    /// Lookups are consistent: the same key and active count always map
    /// to an *active* server, and the mapping is stable under repeated
    /// queries.
    #[test]
    fn proteus_lookup_is_stable_and_active(
        total in 1usize..16,
        keys in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        let p = ProteusPlacement::generate(total);
        for n in 1..=total {
            for &k in &keys {
                let a = p.server_for(k, n);
                prop_assert!(a.index() < n);
                prop_assert_eq!(a, p.server_for(k, n));
            }
        }
    }

    /// Minimal migration for a single-step transition: only the keys of
    /// the deactivated server move.
    #[test]
    fn proteus_single_step_moves_only_departing_keys(
        total in 2usize..16,
        keys in prop::collection::vec(any::<u64>(), 50..200),
    ) {
        let p = ProteusPlacement::generate(total);
        for n in 2..=total {
            for &k in &keys {
                let before = p.server_for(k, n);
                let after = p.server_for(k, n - 1);
                if before != after {
                    prop_assert_eq!(before, ServerId::new(n as u32 - 1));
                }
            }
        }
    }

    /// Monotone transitions: a key that survives a scale-down on server
    /// s stays on s for every intermediate step (no ping-ponging).
    #[test]
    fn proteus_scale_down_never_ping_pongs(
        total in 3usize..14,
        key in any::<u64>(),
    ) {
        let p = ProteusPlacement::generate(total);
        let mut owner = p.server_for(key, total);
        for n in (1..total).rev() {
            let next = p.server_for(key, n);
            if next != owner {
                // The key may only move because its owner shut down.
                prop_assert_eq!(owner.index(), n, "owner {} shut down at n={}", owner, n);
            }
            owner = next;
        }
    }

    /// Multi-step transitions never remap more than the per-step sum,
    /// and at least the single-step minimum.
    #[test]
    fn proteus_multi_step_remap_is_bounded(
        total in 4usize..14,
        delta in 1usize..4,
    ) {
        let p = ProteusPlacement::generate(total);
        let from = total;
        let to = total - delta.min(total - 1);
        let f = analysis::remap_fraction(&p, from, to, 8_000, 99);
        let bound = analysis::minimal_remap_fraction(from, to);
        prop_assert!((f - bound).abs() < 0.03, "remap {} vs bound {}", f, bound);
    }

    /// Modulo and consistent-hashing baselines always return an active
    /// server too (routing safety holds for every scenario).
    #[test]
    fn baselines_return_active_servers(
        total in 1usize..12,
        key in any::<u64>(),
    ) {
        let m = ModuloStrategy::new(total);
        let r = RandomRing::new(total, 4, 0);
        for n in 1..=total {
            prop_assert!(m.server_for(key, n).index() < n);
            prop_assert!(r.server_for(key, n).index() < n);
        }
    }

    /// Replicated placement always yields one server per ring, all
    /// active, and deduplication is sound.
    #[test]
    fn replication_yields_active_replicas(
        total in 2usize..10,
        replicas in 1usize..4,
        key in any::<u64>(),
    ) {
        let rp = ReplicatedPlacement::new(total, replicas, 3);
        for n in 1..=total {
            let servers = rp.servers_for(&key.to_le_bytes(), n);
            prop_assert_eq!(servers.len(), replicas);
            prop_assert!(servers.iter().all(|s| s.index() < n));
            let distinct = rp.distinct_servers_for(&key.to_le_bytes(), n);
            prop_assert!(distinct.len() <= replicas);
            prop_assert!(!distinct.is_empty());
        }
    }

    /// Ratio arithmetic: (a/b + c/d) - c/d == a/b over a broad range.
    #[test]
    fn ratio_add_sub_roundtrip(
        a in 0i128..1000, b in 1i128..1000,
        c in 0i128..1000, d in 1i128..1000,
    ) {
        let x = Ratio::new(a, b);
        let y = Ratio::new(c, d);
        prop_assert_eq!((x + y) - y, x);
        prop_assert!(x + y >= x);
    }

    /// Ring-position scaling is monotone in the rational value.
    #[test]
    fn ring_position_is_monotone(
        a in 0i128..10_000, c in 0i128..10_000, d in 1i128..10_000,
    ) {
        let b = d + a.max(c) + 1; // ensure both < 1
        let x = Ratio::new(a.min(c), b);
        let y = Ratio::new(a.max(c), b);
        prop_assert!(x.to_ring_position() <= y.to_ring_position());
    }

    /// `server_for` routes every `(n, key_hash)` pair to the first
    /// entry of `lookup_table(n)` at or after the hash, wrapping —
    /// including hashes drawn adversarially near the vnode positions,
    /// where the successor flips.
    #[test]
    fn flat_lookup_agrees_with_binary_search(
        total in 1usize..24,
        keys in prop::collection::vec(any::<u64>(), 1..80),
        jitter in prop::collection::vec(-2i64..=2, 1..20),
    ) {
        let p = ProteusPlacement::generate(total);
        // The oracle: first table entry at or after `k`, wrapping.
        let bsearch = |k: u64, n: usize| {
            let table = p.lookup_table(n);
            table[table.partition_point(|&(pos, _)| pos < k) % table.len()].1
        };
        for n in 1..=total {
            for &k in &keys {
                prop_assert_eq!(p.server_for(k, n), bsearch(k, n));
            }
            // Perturbed vnode positions: boundaries of the successor
            // relation, where an off-by-one would first show.
            for (&(pos, _), &j) in p.lookup_table(n).iter().zip(jitter.iter().cycle()) {
                let k = pos.wrapping_add_signed(j);
                prop_assert_eq!(p.server_for(k, n), bsearch(k, n));
            }
        }
    }
}

/// Deterministic cross-check of the worked example in the paper's
/// Fig. 2 discussion: the final-successor sets for N = 6.
#[test]
fn fig2_final_successor_sets() {
    let p = ProteusPlacement::generate(6);
    for i in 2..=6u32 {
        let ps = analysis::final_successors(&p, ServerId::new(i - 1));
        assert_eq!(ps.len() as u32, i - 1, "|Ps_{i}|");
    }
}

/// Balance comparison across all four Table II strategies at the
/// paper's cluster size (10 cache servers): Proteus and modulo are
/// near-perfect, random consistent hashing is visibly worse.
#[test]
fn table2_strategy_balance_ordering() {
    let samples = 200_000;
    let p = ProteusPlacement::generate(10);
    let m = ModuloStrategy::new(10);
    let logn = RandomRing::with_log_vnodes(10, 0);
    let quad = RandomRing::with_quadratic_vnodes(10, 0);
    for n in [4usize, 7, 10] {
        let r_p = analysis::balance_ratio(&p, n, samples, 5);
        let r_m = analysis::balance_ratio(&m, n, samples, 5);
        let r_l = analysis::balance_ratio(&logn, n, samples, 5);
        let r_q = analysis::balance_ratio(&quad, n, samples, 5);
        assert!(r_p > 0.97, "n={n} proteus {r_p}");
        assert!(r_m > 0.97, "n={n} modulo {r_m}");
        assert!(r_l < r_p, "n={n} log-consistent {r_l}");
        assert!(r_q < r_p, "n={n} quad-consistent {r_q}");
    }
}

/// Keys drawn from a realistic (hashed-id) population also balance.
#[test]
fn hashed_page_ids_balance_on_proteus() {
    let p = ProteusPlacement::generate(10);
    let mut counts = [0u64; 10];
    for page in 0..500_000u64 {
        let key = splitmix64(page);
        counts[p.server_for(key, 10).index()] += 1;
    }
    let min = *counts.iter().min().unwrap() as f64;
    let max = *counts.iter().max().unwrap() as f64;
    assert!(min / max > 0.98, "min/max {}", min / max);
}

/// Routing is pinned bit for bit. Each placement's `server_for`, over
/// every active count `n`, is folded into one `u64`: 100 000 hashed
/// keys, both ends of the ring, and every virtual node's position with
/// its two neighbours — where the successor flips, and where a key at
/// the top of the ring wraps to the smallest position. A key exactly
/// on a node's position belongs to that node.
#[test]
fn routing_matches_known_answers() {
    fn fold(
        strategy: &impl PlacementStrategy,
        nodes: impl Fn(usize) -> Vec<(u64, ServerId)>,
    ) -> u64 {
        let mut acc = 0u64;
        for n in 1..=strategy.max_servers() {
            let mut keys: Vec<u64> = (0..100_000u64).map(splitmix64).collect();
            keys.extend([0, u64::MAX]);
            for (pos, server) in nodes(n) {
                assert_eq!(strategy.server_for(pos, n), server, "n={n} pos={pos:#x}");
                keys.extend([pos.wrapping_sub(1), pos, pos.wrapping_add(1)]);
            }
            for key in keys {
                acc = splitmix64(acc ^ strategy.server_for(key, n).index() as u64);
            }
        }
        acc
    }
    // `RandomRing`'s node positions, as `RandomRing::new` draws them.
    let random_nodes = |vnodes: usize, seed: u64| {
        move |n: usize| -> Vec<(u64, ServerId)> {
            (0..n)
                .flat_map(|j| {
                    (0..vnodes).map(move |k| {
                        let pos = splitmix64(seed ^ splitmix64((j as u64) << 20 | k as u64));
                        (pos, ServerId::new(j as u32))
                    })
                })
                .collect()
        }
    };
    // Proteus at N = 1, 2, 3, 4, 5, 10, 17, 64, then the two random rings.
    let known: [u64; 10] = [
        0xc451fe77665e5e1e,
        0x1a3c5a78a0fa4b91,
        0x2c8aa57753b5bfed,
        0x5f0456e517ef2555,
        0xfabff5bdafb7adf4,
        0xe17b80a3a61b5c9b,
        0x29f85d725cf9ab66,
        0x9545575b53f86c1d,
        0x67197f0f524f845f,
        0x1f1cc4d89fed457d,
    ];
    let mut got: Vec<u64> = [1usize, 2, 3, 4, 5, 10, 17, 64]
        .into_iter()
        .map(|total| {
            let p = ProteusPlacement::generate(total);
            fold(&p, |n| p.lookup_table(n).to_vec())
        })
        .collect();
    got.push(fold(
        &RandomRing::with_quadratic_vnodes(10, 0),
        random_nodes(5, 0),
    ));
    got.push(fold(&RandomRing::new(64, 3, 7), random_nodes(3, 7)));
    assert_eq!(got, known, "got {got:#018x?}");
}
