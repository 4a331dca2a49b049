//! Slab-vs-heap storage equivalence.
//!
//! The slab backend is a pure storage substitution: every observable —
//! values returned, presence, LRU order, eviction timing, counters —
//! must be byte-identical to the heap backend under any operation
//! interleaving. This suite drives both backends through the same
//! random command streams (the same role `reactor_equivalence.rs`
//! plays for the two data planes) and diffs everything after every
//! step. The heap path thereby serves as the correctness oracle for
//! the slab allocator.
//!
//! `add`/`replace`/`incr`/`decr` are emulated here exactly the way the
//! TCP server composes them from engine primitives (probe + peek +
//! put_with_deadline under one lock), so the streams exercise the
//! read-modify-write shapes production traffic produces.

use proptest::prelude::*;
use proteus_bloom::BloomConfig;
use proteus_cache::{CacheConfig, CacheEngine, StorageKind};
use proteus_sim::{SimDuration, SimTime};

/// Operations mirror the server's command surface. Keys draw from a
/// small space so streams collide constantly; value lengths straddle
/// several slab size classes.
#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Set(u8, u16),
    /// Set with a short TTL so later ops observe expiry.
    SetExpiry(u8, u16, u8),
    Add(u8, u16),
    Replace(u8, u16),
    Delete(u8),
    /// Touch with a new TTL in seconds; 0 clears the expiry, like the
    /// wire's exptime 0.
    Touch(u8, u8),
    /// Store an ASCII number, for the incr/decr path.
    SetCounter(u8, u32),
    Incr(u8, u8),
    Decr(u8, u8),
    Sweep,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Get),
        (any::<u8>(), 1u16..700).prop_map(|(k, n)| Op::Set(k, n)),
        (any::<u8>(), 1u16..300, 1u8..20).prop_map(|(k, n, t)| Op::SetExpiry(k, n, t)),
        (any::<u8>(), 1u16..300).prop_map(|(k, n)| Op::Add(k, n)),
        (any::<u8>(), 1u16..300).prop_map(|(k, n)| Op::Replace(k, n)),
        any::<u8>().prop_map(Op::Delete),
        (any::<u8>(), 0u8..20).prop_map(|(k, t)| Op::Touch(k, t)),
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| Op::SetCounter(k, v)),
        (any::<u8>(), 1u8..50).prop_map(|(k, d)| Op::Incr(k, d)),
        (any::<u8>(), 1u8..50).prop_map(|(k, d)| Op::Decr(k, d)),
        Just(Op::Sweep),
    ]
}

fn key_bytes(k: u8) -> Vec<u8> {
    format!("key:{k:03}").into_bytes()
}

/// Deterministic value: a function of key and length so replacing a
/// key with a different length changes the bytes too.
fn value_bytes(k: u8, len: u16) -> Vec<u8> {
    (0..len as usize)
        .map(|i| (k as usize).wrapping_add(i.wrapping_mul(31)) as u8)
        .collect()
}

/// The server's `add`: store only when the key is absent (and not
/// expired) right now.
fn add(engine: &mut CacheEngine, key: &[u8], value: &[u8], now: SimTime) -> bool {
    if engine.probe(key, now) {
        false
    } else {
        engine.put(key, value, now).stored
    }
}

/// The server's `replace`: store only when the key is present.
fn replace(engine: &mut CacheEngine, key: &[u8], value: &[u8], now: SimTime) -> bool {
    if engine.probe(key, now) {
        engine.put(key, value, now).stored
    } else {
        false
    }
}

/// The server's `incr`/`decr`: parse the ASCII value, apply the delta
/// (decr floors at zero), and write back preserving the item's
/// original deadline. Returns the new value, or `None` on a miss or a
/// non-numeric value.
fn numeric_op(
    engine: &mut CacheEngine,
    key: &[u8],
    delta: u64,
    neg: bool,
    now: SimTime,
) -> Option<u64> {
    if !engine.probe(key, now) {
        return None;
    }
    let deadline = engine.expiry_of(key).unwrap_or(SimTime::MAX);
    let current = engine.peek(key)?;
    let parsed: u64 = std::str::from_utf8(current).ok()?.parse().ok()?;
    let next = if neg {
        parsed.saturating_sub(delta)
    } else {
        parsed.wrapping_add(delta)
    };
    engine.put_with_deadline(key, next.to_string().into_bytes(), deadline);
    Some(next)
}

fn engine_pair() -> (CacheEngine, CacheEngine) {
    let base = || {
        CacheConfig::with_capacity(4096)
            .item_overhead(0)
            .digest(BloomConfig::new(1 << 12, 4, 4))
    };
    let heap = CacheEngine::new(base().storage(StorageKind::Heap));
    // An ample explicit page budget: with `item_overhead 0` and tiny
    // 1 KiB pages, chunk rounding can exceed the default 1.3× slack,
    // and a page-starved slab evicts *extra* items (correct, but a
    // different item set than the heap oracle). The equivalence claim
    // under test is the storage substitution itself, so pages are
    // plentiful here; the starved regime is covered by the engine's
    // own unit tests and the churn suite.
    let slab = CacheEngine::new(base().slab_page_bytes(1024).slab_page_budget(4096));
    (heap, slab)
}

/// Diffs every observable the engines expose.
fn assert_same_state(heap: &CacheEngine, slab: &CacheEngine) {
    assert_eq!(heap.len(), slab.len(), "item counts diverged");
    assert_eq!(heap.bytes_used(), slab.bytes_used(), "accounting diverged");
    let hs = heap.stats();
    let ss = slab.stats();
    assert_eq!(hs, ss, "counters diverged");
    let heap_keys: Vec<&[u8]> = heap.keys().collect();
    let slab_keys: Vec<&[u8]> = slab.keys().collect();
    assert_eq!(heap_keys, slab_keys, "LRU order diverged");
    for key in heap_keys {
        assert_eq!(heap.peek(key), slab.peek(key), "value bytes diverged");
        assert_eq!(heap.expiry_of(key), slab.expiry_of(key), "expiry diverged");
    }
    slab.assert_storage_consistent();
}

proptest! {
    /// Both backends agree on every observable after every operation.
    #[test]
    fn slab_matches_heap_on_any_interleaving(
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        let (mut heap, mut slab) = engine_pair();
        let mut t = SimTime::ZERO;
        for op in &ops {
            t += SimDuration::from_millis(700);
            match op {
                Op::Get(k) => {
                    let key = key_bytes(*k);
                    let a = heap.get(&key, t).map(<[u8]>::to_vec);
                    let b = slab.get(&key, t).map(<[u8]>::to_vec);
                    prop_assert_eq!(a, b, "get diverged");
                }
                Op::Set(k, n) => {
                    let (key, value) = (key_bytes(*k), value_bytes(*k, *n));
                    let a = heap.put(&key, value.clone(), t);
                    let b = slab.put(&key, value, t);
                    prop_assert_eq!(a, b, "set outcome diverged");
                }
                Op::SetExpiry(k, n, ttl) => {
                    let (key, value) = (key_bytes(*k), value_bytes(*k, *n));
                    let ttl = Some(SimDuration::from_secs(u64::from(*ttl)));
                    let a = heap.put_with_expiry(&key, value.clone(), t, ttl);
                    let b = slab.put_with_expiry(&key, value, t, ttl);
                    prop_assert_eq!(a, b, "set-with-expiry outcome diverged");
                }
                Op::Add(k, n) => {
                    let (key, value) = (key_bytes(*k), value_bytes(*k, *n));
                    prop_assert_eq!(
                        add(&mut heap, &key, &value, t),
                        add(&mut slab, &key, &value, t),
                        "add diverged"
                    );
                }
                Op::Replace(k, n) => {
                    let (key, value) = (key_bytes(*k), value_bytes(*k, *n));
                    prop_assert_eq!(
                        replace(&mut heap, &key, &value, t),
                        replace(&mut slab, &key, &value, t),
                        "replace diverged"
                    );
                }
                Op::Delete(k) => {
                    let key = key_bytes(*k);
                    prop_assert_eq!(heap.delete(&key), slab.delete(&key), "delete diverged");
                }
                Op::Touch(k, ttl) => {
                    let key = key_bytes(*k);
                    let ttl = (*ttl > 0).then(|| SimDuration::from_secs(u64::from(*ttl)));
                    prop_assert_eq!(
                        heap.touch(&key, t, ttl),
                        slab.touch(&key, t, ttl),
                        "touch diverged"
                    );
                }
                Op::SetCounter(k, v) => {
                    let key = key_bytes(*k);
                    let value = v.to_string().into_bytes();
                    let a = heap.put(&key, value.clone(), t);
                    let b = slab.put(&key, value, t);
                    prop_assert_eq!(a, b, "counter set diverged");
                }
                Op::Incr(k, d) => {
                    let key = key_bytes(*k);
                    prop_assert_eq!(
                        numeric_op(&mut heap, &key, u64::from(*d), false, t),
                        numeric_op(&mut slab, &key, u64::from(*d), false, t),
                        "incr diverged"
                    );
                }
                Op::Decr(k, d) => {
                    let key = key_bytes(*k);
                    prop_assert_eq!(
                        numeric_op(&mut heap, &key, u64::from(*d), true, t),
                        numeric_op(&mut slab, &key, u64::from(*d), true, t),
                        "decr diverged"
                    );
                }
                Op::Sweep => {
                    prop_assert_eq!(heap.sweep_expired(t), slab.sweep_expired(t), "sweep diverged");
                }
            }
            assert_same_state(&heap, &slab);
        }
        // Whole-keyspace probe, including keys never written.
        for k in 0..=255u8 {
            let key = key_bytes(k);
            prop_assert_eq!(heap.peek(&key), slab.peek(&key));
            prop_assert_eq!(heap.contains(&key), slab.contains(&key));
        }
    }

    /// Oversize churn: streams biased toward values near and past the
    /// capacity limit, so rejection and mass-eviction paths get hit
    /// constantly on both backends.
    #[test]
    fn slab_matches_heap_under_oversize_pressure(
        ops in prop::collection::vec(
            (any::<u8>(), 1u32..6000).prop_map(|(k, n)| (k, n as usize)),
            1..120,
        ),
    ) {
        let (mut heap, mut slab) = engine_pair();
        let mut t = SimTime::ZERO;
        for (k, n) in &ops {
            t += SimDuration::from_millis(1);
            let key = key_bytes(*k);
            let value = vec![*k; *n];
            let a = heap.put(&key, value.clone(), t);
            let b = slab.put(&key, value, t);
            prop_assert_eq!(a, b, "outcome diverged at len {}", n);
            assert_same_state(&heap, &slab);
        }
    }
}
