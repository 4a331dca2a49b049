//! Model-checking the cache engine against a naive reference
//! implementation, plus digest-consistency invariants.

use std::collections::HashMap;

use proptest::prelude::*;
use proteus_bloom::BloomConfig;
use proteus_cache::{CacheConfig, CacheEngine};
use proteus_sim::{SimDuration, SimTime};

/// A straightforward reference LRU cache: a map plus an explicit
/// recency list. O(n) per op, obviously correct.
#[derive(Default)]
struct ReferenceLru {
    capacity: u64,
    map: HashMap<Vec<u8>, Vec<u8>>,
    recency: Vec<Vec<u8>>, // front = LRU, back = MRU
}

impl ReferenceLru {
    fn new(capacity: u64) -> Self {
        ReferenceLru {
            capacity,
            ..Default::default()
        }
    }

    fn bytes(&self) -> u64 {
        self.map
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum()
    }

    fn touch(&mut self, key: &[u8]) {
        self.recency.retain(|k| k != key);
        self.recency.push(key.to_vec());
    }

    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(v) = self.map.get(key).cloned() {
            self.touch(key);
            Some(v)
        } else {
            None
        }
    }

    fn put(&mut self, key: &[u8], value: Vec<u8>) {
        self.map.insert(key.to_vec(), value);
        self.touch(key);
        while self.bytes() > self.capacity {
            let victim = self.recency.remove(0);
            self.map.remove(&victim);
        }
    }

    fn delete(&mut self, key: &[u8]) -> bool {
        self.recency.retain(|k| k != key);
        self.map.remove(key).is_some()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Put(u8, u8),
    Delete(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>()).prop_map(Op::Get),
        (any::<u8>(), 1u8..32).prop_map(|(k, len)| Op::Put(k, len)),
        (any::<u8>()).prop_map(Op::Delete),
    ]
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("key:{k:03}").into_bytes()
}

proptest! {
    /// The engine agrees with the reference LRU on every observable:
    /// presence, values, and which keys survive eviction.
    #[test]
    fn engine_matches_reference_lru(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let capacity = 600u64;
        let mut engine = CacheEngine::new(
            CacheConfig::with_capacity(capacity)
                .item_overhead(0)
                .digest(BloomConfig::new(1 << 12, 4, 4)),
        );
        let mut reference = ReferenceLru::new(capacity);
        let mut t = SimTime::ZERO;
        for op in &ops {
            t += SimDuration::from_millis(1);
            match op {
                Op::Get(k) => {
                    let key = key_bytes(*k);
                    let a = engine.get(&key, t).map(<[u8]>::to_vec);
                    let b = reference.get(&key);
                    prop_assert_eq!(a, b);
                }
                Op::Put(k, len) => {
                    let key = key_bytes(*k);
                    let value = vec![*k; *len as usize];
                    engine.put(&key, value.clone(), t);
                    reference.put(&key, value);
                }
                Op::Delete(k) => {
                    let key = key_bytes(*k);
                    prop_assert_eq!(engine.delete(&key), reference.delete(&key));
                }
            }
            prop_assert_eq!(engine.len(), reference.map.len());
            prop_assert_eq!(engine.bytes_used(), reference.bytes());
            prop_assert!(engine.bytes_used() <= capacity);
        }
        // Final content equivalence.
        for k in 0..=255u8 {
            let key = key_bytes(k);
            prop_assert_eq!(engine.peek(&key).map(<[u8]>::to_vec), reference.map.get(&key).cloned());
        }
    }

    /// Digest invariant: after any operation sequence, every cached key
    /// is in the digest; with a roomy filter, evicted/deleted keys are
    /// not (allowing for the filter's tiny false-positive rate).
    #[test]
    fn digest_stays_consistent_with_contents(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut engine = CacheEngine::new(
            CacheConfig::with_capacity(500)
                .item_overhead(0)
                .digest(BloomConfig::new(1 << 14, 4, 4)),
        );
        let mut t = SimTime::ZERO;
        for op in &ops {
            t += SimDuration::from_millis(1);
            match op {
                Op::Get(k) => {
                    let _ = engine.get(&key_bytes(*k), t);
                }
                Op::Put(k, len) => {
                    engine.put(&key_bytes(*k), vec![0u8; *len as usize], t);
                }
                Op::Delete(k) => {
                    let _ = engine.delete(&key_bytes(*k));
                }
            }
        }
        let digest = engine.digest_snapshot();
        let mut false_positives = 0;
        for k in 0..=255u8 {
            let key = key_bytes(k);
            if engine.contains(&key) {
                prop_assert!(digest.contains(&key), "cached key {k} absent from digest");
            } else if digest.contains(&key) {
                false_positives += 1;
            }
        }
        // 16k counters for <=256 keys: essentially zero false positives.
        prop_assert!(false_positives <= 2, "{false_positives} false positives");
    }

    /// The LRU iterator yields exactly the cached keys, MRU-first.
    #[test]
    fn keys_iterator_matches_reference_order(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let capacity = 400u64;
        let mut engine = CacheEngine::new(
            CacheConfig::with_capacity(capacity)
                .item_overhead(0)
                .digest(BloomConfig::new(1 << 12, 4, 4)),
        );
        let mut reference = ReferenceLru::new(capacity);
        let mut t = SimTime::ZERO;
        for op in &ops {
            t += SimDuration::from_millis(1);
            match op {
                Op::Get(k) => {
                    let _ = engine.get(&key_bytes(*k), t);
                    let _ = reference.get(&key_bytes(*k));
                }
                Op::Put(k, len) => {
                    engine.put(&key_bytes(*k), vec![0; *len as usize], t);
                    reference.put(&key_bytes(*k), vec![0; *len as usize]);
                }
                Op::Delete(k) => {
                    let _ = engine.delete(&key_bytes(*k));
                    let _ = reference.delete(&key_bytes(*k));
                }
            }
        }
        let engine_order: Vec<&[u8]> = engine.keys().collect();
        let mut reference_order = reference.recency.clone();
        reference_order.reverse(); // reference is LRU-first
        prop_assert_eq!(
            engine_order,
            reference_order.iter().map(Vec::as_slice).collect::<Vec<_>>()
        );
    }
}
