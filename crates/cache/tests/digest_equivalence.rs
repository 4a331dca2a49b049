//! The digest a window broadcasts holds exactly the engine's resident
//! keys. After every step of a random sequence of puts, overwrites,
//! evicting puts, rejected puts, deletes, expiries, reaps and flushes,
//! on both storage kinds and at 1, 8 and 64 shards,
//! `ShardedEngine::digest_snapshot` equals, word for word, the snapshot
//! of a counting filter of the same shape fed the inserts and removes
//! that the changes of the live set imply.
//!
//! The oracle sees a key's link and unlink only through `contains`, so
//! the property is about the resident set, not about how the engine
//! keeps its digest. It holds while no oracle counter saturates, which
//! the roomy filter makes all but certain and each case checks.

use proptest::prelude::*;
use proteus_bloom::{BloomConfig, CountingBloomFilter};
use proteus_cache::{CacheConfig, ShardedEngine, StorageKind};
use proteus_sim::{SimDuration, SimTime};

/// Keys in the universe each step diffs.
const KEYS: u8 = 96;
/// Each shard's byte budget: a few of the larger values fill it.
const SHARD_BYTES: u64 = 4096;

#[derive(Debug, Clone)]
enum Op {
    /// A store with no expiry: a new key, an overwrite, an evicting
    /// put, a value over the 1 KiB slab page (the heap path) or one
    /// over the shard's budget (rejected), by its length.
    Put(u8, u16),
    /// A store that expires this many milliseconds from now.
    PutExpiring(u8, u16, u8),
    Delete(u8),
    /// A read, which reaps the key if it has expired.
    Get(u8),
    /// Moves the clock forward this many milliseconds.
    Advance(u8),
    /// Reaps every expired key of this key's shard.
    Sweep(u8),
    /// `flush_all`.
    Clear,
}

/// Mostly values below a slab page, one in five between a page and
/// past the shard's budget.
fn value_len(raw: u16) -> u16 {
    if raw < 4800 {
        raw / 4
    } else {
        raw - 1000
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0u16..6000).prop_map(|(k, len)| Op::Put(k, value_len(len))),
        (any::<u8>(), 0u16..6000).prop_map(|(k, len)| Op::Put(k, value_len(len))),
        (any::<u8>(), 0u16..6000, 1u8..50).prop_map(|(k, len, ttl)| Op::PutExpiring(
            k,
            value_len(len),
            ttl
        )),
        (any::<u8>()).prop_map(Op::Delete),
        (any::<u8>()).prop_map(Op::Get),
        (0u8..40).prop_map(Op::Advance),
        (any::<u8>()).prop_map(Op::Sweep),
        (0u8..16).prop_map(|k| if k == 0 { Op::Clear } else { Op::Get(k) }),
    ]
}

fn key(k: u8) -> Vec<u8> {
    format!("k{:02}", k % KEYS).into_bytes()
}

fn engine(shards: usize, storage: StorageKind) -> ShardedEngine {
    ShardedEngine::new(
        CacheConfig::with_capacity(SHARD_BYTES * shards as u64)
            .item_overhead(0)
            .shards(shards)
            .storage(storage)
            .slab_page_bytes(1024)
            .digest(BloomConfig::new((1 << 12) + 21, 3, 3).with_seed(0x5EED)),
    )
}

/// Runs `ops` on a fresh engine, holding its snapshot to the oracle's
/// after every step.
fn check(ops: &[Op], shards: usize, storage: StorageKind) -> Result<(), TestCaseError> {
    let engine = engine(shards, storage);
    let mut oracle = CountingBloomFilter::new(engine.config().digest);
    let mut live = vec![false; usize::from(KEYS)];
    let mut now = SimTime::ZERO;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Put(k, len) => {
                engine.put(&key(k), vec![k; usize::from(len)], now);
            }
            Op::PutExpiring(k, len, ttl) => {
                let ttl = SimDuration::from_millis(u64::from(ttl));
                engine.put_with_expiry(&key(k), vec![k; usize::from(len)], now, Some(ttl));
            }
            Op::Delete(k) => {
                engine.delete(&key(k));
            }
            Op::Get(k) => {
                let _ = engine.get(&key(k), now);
            }
            Op::Advance(ms) => now += SimDuration::from_millis(u64::from(ms)),
            Op::Sweep(k) => {
                engine.with_key_shard(&key(k), |e| e.sweep_expired(now));
            }
            Op::Clear => engine.clear(),
        }
        for (k, was) in (0..KEYS).zip(live.iter_mut()) {
            let is = engine.contains(&key(k));
            match (*was, is) {
                (false, true) => oracle.insert(&key(k)),
                (true, false) => oracle.remove(&key(k)),
                _ => {}
            }
            *was = is;
        }
        prop_assert_eq!(oracle.overflow_events(), 0, "a counter saturated");
        let (built, expected) = (engine.digest_snapshot(), oracle.snapshot());
        let at = format!("{shards} shards, {storage:?}, step {step}: {op:?}");
        prop_assert_eq!(built.config(), expected.config(), "{}", at);
        prop_assert_eq!(built.words(), expected.words(), "{}", at);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_snapshot_is_the_resident_keys_on_every_shape(
        ops in prop::collection::vec(op_strategy(), 1..200)
    ) {
        for shards in [1, 8, 64] {
            for storage in [StorageKind::Slab, StorageKind::Heap] {
                check(&ops, shards, storage)?;
            }
        }
    }
}
