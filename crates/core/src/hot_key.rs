//! Hot-key detection and replica routing, shared by the DES
//! [`ReplicatedRouter`](crate::ReplicatedRouter) and the live TCP
//! cluster client in `proteus-net`.
//!
//! Algorithm 1 balances the *key space*, not the *request load*: under
//! Zipfian skew one viral key saturates its home server no matter how
//! many servers are powered on. The DistCache-style remedy implemented
//! here has three parts, each a small self-contained piece so both the
//! simulator and the TCP client can reuse them:
//!
//! - [`SpaceSaving`] — a bounded top-K heavy-hitter sketch (Metwally
//!   et al.): `O(k)` memory, every key's true count is bounded by
//!   `estimate - error ≤ true ≤ estimate`, so a threshold on the
//!   estimate never misses a genuinely hot key.
//! - [`ReplicaRings`] — derives `r` independent hash rings from one
//!   primary [`KeyHasher`]. Ring 0 **is** the primary hasher, so a
//!   key's first replica is exactly its ordinary home server and
//!   un-replicated keys behave identically with or without this layer.
//! - [`TwoChoices`] — the power-of-two-choices chooser: pick two
//!   pseudo-random candidates, route to the less loaded one. No RNG
//!   dependency; a relaxed atomic tick through `splitmix64` is enough.
//!
//! The free functions [`live_ring_order`] and [`distinct_live`] are
//! the placement logic promoted out of `replicated_router`: the probe
//! order for reads (ring order, down servers skipped) and the install
//! fan-out for fills (distinct live replicas, first-ring order).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use proteus_ring::hash::{replica_ring_hasher, splitmix64, KeyHasher};

/// A space-saving top-K sketch: tracks (approximately) the `k` most
/// frequent keys of a stream in bounded memory.
///
/// Guarantees (Metwally et al., "Efficient Computation of Frequent and
/// Top-k Elements in Data Streams"): every monitored key's estimate
/// overcounts by at most its recorded `error`, and any key whose true
/// frequency exceeds the minimum monitored count is in the sketch.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    entries: HashMap<Vec<u8>, SketchEntry>,
}

#[derive(Debug, Clone, Copy)]
struct SketchEntry {
    count: u64,
    error: u64,
}

/// One monitored key with its estimated count and overcount bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotKeyEstimate {
    /// The monitored key.
    pub key: Vec<u8>,
    /// Estimated occurrence count (an upper bound on the true count).
    pub count: u64,
    /// Maximum overcount: `count - error` lower-bounds the true count.
    pub error: u64,
}

impl SpaceSaving {
    /// Creates a sketch monitoring at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sketch needs room for at least one key");
        SpaceSaving {
            capacity,
            entries: HashMap::with_capacity(capacity),
        }
    }

    /// Records one occurrence of `key` and returns its new estimated
    /// count. If the sketch is full and `key` is unmonitored, the
    /// minimum-count entry is evicted and `key` inherits its count as
    /// the error bound — the classic space-saving replacement.
    pub fn observe(&mut self, key: &[u8]) -> u64 {
        if let Some(e) = self.entries.get_mut(key) {
            e.count += 1;
            return e.count;
        }
        if self.entries.len() < self.capacity {
            self.entries
                .insert(key.to_vec(), SketchEntry { count: 1, error: 0 });
            return 1;
        }
        let evict = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.count)
            .map(|(k, e)| (k.clone(), e.count))
            .expect("capacity > 0, sketch full");
        self.entries.remove(&evict.0);
        let count = evict.1 + 1;
        self.entries.insert(
            key.to_vec(),
            SketchEntry {
                count,
                error: evict.1,
            },
        );
        count
    }

    /// The estimated count for `key`, or `None` if unmonitored.
    #[must_use]
    pub fn estimate(&self, key: &[u8]) -> Option<u64> {
        self.entries.get(key).map(|e| e.count)
    }

    /// Every monitored key with its estimate, most frequent first.
    #[must_use]
    pub fn top(&self) -> Vec<HotKeyEstimate> {
        let mut v: Vec<HotKeyEstimate> = self
            .entries
            .iter()
            .map(|(k, e)| HotKeyEstimate {
                key: k.clone(),
                count: e.count,
                error: e.error,
            })
            .collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        v
    }

    /// Number of monitored keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the sketch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `r` independent hash rings derived from one primary hasher.
///
/// Ring 0 is the primary hasher itself, so replica 0 of any key is
/// its ordinary home server; ring `i ≥ 1` is
/// [`replica_ring_hasher`]`(primary.seed(), i)`. More rings than
/// requested replicas are derived so [`replica_set`](Self::replica_set)
/// can skip hash conflicts (two rings landing on the same server) and
/// still reach the requested number of *distinct* servers.
#[derive(Debug, Clone)]
pub struct ReplicaRings {
    hashers: Vec<KeyHasher>,
    replicas: usize,
}

impl ReplicaRings {
    /// Over-derivation factor: enough extra rings that collisions
    /// almost never leave a key under-replicated on clusters where
    /// `replicas` distinct servers exist at all.
    const RING_SLACK: usize = 4;

    /// Creates rings targeting `replicas` distinct servers per key,
    /// with ring 0 fixed to `primary`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    #[must_use]
    pub fn new(primary: KeyHasher, replicas: usize) -> Self {
        assert!(replicas > 0, "need at least one replica");
        let rings = replicas.saturating_mul(Self::RING_SLACK).max(replicas);
        let hashers = std::iter::once(primary)
            .chain((1..rings).map(|i| replica_ring_hasher(primary.seed(), i)))
            .collect();
        ReplicaRings { hashers, replicas }
    }

    /// The target number of distinct replicas per key.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// The replica set for a key: up to [`replicas`](Self::replicas)
    /// *distinct* servers in ring order, the home server (ring 0)
    /// first. `server_of` maps a ring's key hash to a server index —
    /// callers plug in their placement strategy at the current active
    /// count. Fewer servers are returned only when the derived rings
    /// cannot produce enough distinct ones (e.g. `replicas > active`).
    #[must_use]
    pub fn replica_set(&self, key: &[u8], mut server_of: impl FnMut(u64) -> usize) -> Vec<usize> {
        let mut set = Vec::with_capacity(self.replicas);
        for hasher in &self.hashers {
            let server = server_of(hasher.hash_bytes(key));
            if !set.contains(&server) {
                set.push(server);
                if set.len() == self.replicas {
                    break;
                }
            }
        }
        set
    }
}

/// The read-probe order over a key's per-ring replica servers: ring
/// order with down servers skipped, duplicates preserved (a later ring
/// colliding with an earlier one is just probed once more). Returns
/// `(ring, server)` pairs.
#[must_use]
pub fn live_ring_order(
    ring_servers: &[usize],
    is_down: impl Fn(usize) -> bool,
) -> Vec<(usize, usize)> {
    ring_servers
        .iter()
        .enumerate()
        .filter(|&(_, &s)| !is_down(s))
        .map(|(ring, &s)| (ring, s))
        .collect()
}

/// The install fan-out after a database fill: every *distinct, live*
/// replica server, in first-ring order.
#[must_use]
pub fn distinct_live(ring_servers: &[usize], is_down: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut out = Vec::with_capacity(ring_servers.len());
    for &s in ring_servers {
        if !is_down(s) && !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// A power-of-two-choices chooser: each call draws two pseudo-random
/// candidate indices and returns the one whose `load` is lower.
///
/// Deterministic and dependency-free: a relaxed atomic tick pushed
/// through `splitmix64` gives a well-mixed candidate pair per call,
/// so under equal loads the choice is (near-)uniform and under skewed
/// loads the loaded server is avoided with probability `1 - 1/n²` —
/// the classic "power of two choices" guarantee.
#[derive(Debug, Default)]
pub struct TwoChoices {
    tick: AtomicU64,
}

impl TwoChoices {
    /// Creates a chooser.
    #[must_use]
    pub fn new() -> Self {
        TwoChoices::default()
    }

    /// Picks an index in `0..n`, preferring the lower `load`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn choose(&self, n: usize, load: impl Fn(usize) -> u64) -> usize {
        assert!(n > 0, "cannot choose among zero candidates");
        if n == 1 {
            return 0;
        }
        let h = splitmix64(self.tick.fetch_add(1, Ordering::Relaxed).wrapping_add(1));
        let a = (h % n as u64) as usize;
        let mut b = ((h >> 32) % n as u64) as usize;
        if b == a {
            b = (a + 1) % n;
        }
        if load(b) < load(a) {
            b
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_saving_tracks_exact_counts_under_capacity() {
        let mut s = SpaceSaving::new(8);
        for _ in 0..5 {
            s.observe(b"a");
        }
        for _ in 0..3 {
            s.observe(b"b");
        }
        assert_eq!(s.estimate(b"a"), Some(5));
        assert_eq!(s.estimate(b"b"), Some(3));
        assert_eq!(s.estimate(b"c"), None);
        let top = s.top();
        assert_eq!(top[0].key, b"a");
        assert_eq!(top[0].error, 0, "no evictions, exact counts");
    }

    #[test]
    fn space_saving_never_loses_a_true_heavy_hitter() {
        // One key at 30% of a stream vastly wider than the sketch.
        let mut s = SpaceSaving::new(16);
        for i in 0..10_000u32 {
            if i % 10 < 3 {
                s.observe(b"celebrity");
            } else {
                s.observe(format!("tail:{i}").as_bytes());
            }
        }
        let est = s.estimate(b"celebrity").expect("heavy hitter monitored");
        assert!(est >= 3_000, "estimate {est} below true count");
        assert_eq!(s.len(), 16, "bounded memory");
    }

    #[test]
    fn space_saving_estimate_upper_bounds_truth() {
        let mut s = SpaceSaving::new(4);
        for i in 0..1_000u32 {
            s.observe(format!("k:{}", i % 13).as_bytes());
        }
        for e in s.top() {
            // count - error ≤ true ≤ count; true count of k:j is ~77.
            assert!(e.count >= e.count - e.error);
            assert!(e.count - e.error <= 1_000 / 13 + 1);
        }
    }

    #[test]
    fn ring_zero_is_the_primary_hasher() {
        let primary = KeyHasher::new(99);
        let rings = ReplicaRings::new(primary, 3);
        let set = rings.replica_set(b"page:1", |h| (h % 10) as usize);
        assert_eq!(
            set[0],
            (primary.hash_bytes(b"page:1") % 10) as usize,
            "replica 0 must be the ordinary home server"
        );
    }

    #[test]
    fn replica_set_is_distinct_and_sized() {
        let rings = ReplicaRings::new(KeyHasher::default(), 3);
        for k in 0..500u32 {
            let key = format!("page:{k}");
            let set = rings.replica_set(key.as_bytes(), |h| (h % 8) as usize);
            let mut dedup = set.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), set.len(), "no duplicate servers");
            assert_eq!(set.len(), 3, "slack rings absorb collisions");
        }
    }

    #[test]
    fn replica_set_caps_at_cluster_size() {
        let rings = ReplicaRings::new(KeyHasher::default(), 5);
        let set = rings.replica_set(b"k", |h| (h % 3) as usize);
        assert!(set.len() <= 3);
    }

    #[test]
    fn live_ring_order_skips_down_servers() {
        let order = live_ring_order(&[2, 5, 2, 7], |s| s == 5);
        assert_eq!(order, vec![(0, 2), (2, 2), (3, 7)]);
    }

    #[test]
    fn distinct_live_dedups_in_first_ring_order() {
        assert_eq!(distinct_live(&[2, 5, 2, 7], |_| false), vec![2, 5, 7]);
        assert_eq!(distinct_live(&[2, 5, 2, 7], |s| s == 2), vec![5, 7]);
    }

    #[test]
    fn two_choices_prefers_the_lighter_server() {
        let chooser = TwoChoices::new();
        let loads = [100u64, 0, 100, 100];
        let mut picked_light = 0;
        for _ in 0..1_000 {
            if chooser.choose(4, |i| loads[i]) == 1 {
                picked_light += 1;
            }
        }
        // Server 1 is picked whenever it is drawn: P ≈ 1 - (3/4)² ≈ 0.44.
        assert!(
            picked_light > 300,
            "light server picked only {picked_light}/1000"
        );
    }

    #[test]
    fn two_choices_spreads_equal_loads() {
        let chooser = TwoChoices::new();
        let mut counts = [0u32; 4];
        for _ in 0..4_000 {
            counts[chooser.choose(4, |_| 0)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (600..=1_400).contains(&c),
                "server {i} got {c}/4000 under equal load"
            );
        }
    }
}
