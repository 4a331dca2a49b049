//! A compact open-addressed key index: hash → slot number.
//!
//! At 10M+ resident items the engine's old `HashMap<Box<[u8]>, u32>`
//! carried a second copy of every key (the slot already owns one) plus
//! ~50 bytes of map node per item. This index stores **only** a `u32`
//! slot number per bucket — the keys themselves stay wherever the slot
//! put them (a heap buffer or a slab page), and all comparisons go
//! through caller-supplied closures. Cost per item: 4 bytes × the
//! table's load slack, instead of a duplicated key allocation plus a
//! map entry.
//!
//! Collision policy is linear probing with backward-shift deletion (no
//! tombstones, so long-lived churn cannot degrade probe lengths), at a
//! maximum load factor of 7/8. The engine stores each slot's 32-bit
//! hash, the same bits the index reads its home buckets from, so growth
//! and deletion never have to touch key bytes.

/// Sentinel for an empty bucket.
const EMPTY: u32 = u32::MAX;

/// Minimum table capacity (buckets).
const MIN_CAPACITY: usize = 16;

/// Open-addressed `hash → slot` index. See the module docs.
#[derive(Debug)]
pub(crate) struct KeyIndex {
    buckets: Box<[u32]>,
    mask: u32,
    len: usize,
}

impl KeyIndex {
    pub(crate) fn new() -> KeyIndex {
        KeyIndex {
            buckets: vec![EMPTY; MIN_CAPACITY].into_boxed_slice(),
            mask: (MIN_CAPACITY - 1) as u32,
            len: 0,
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Finds the slot whose key hashes to `hash` and satisfies
    /// `matches` (stored hash + key-byte comparison, supplied by the
    /// engine). Probes stop at the first empty bucket — correct
    /// because deletion backward-shifts instead of leaving tombstones.
    pub(crate) fn find(&self, hash: u32, mut matches: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut i = hash & self.mask;
        loop {
            let slot = self.buckets[i as usize];
            if slot == EMPTY {
                return None;
            }
            if matches(slot) {
                return Some(slot);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts `slot` under `hash`. The caller guarantees the key is
    /// not already present. `slot_hash` reports the stored hash of an
    /// arbitrary slot and is only consulted when the table grows.
    pub(crate) fn insert(&mut self, hash: u32, slot: u32, slot_hash: impl Fn(u32) -> u32) {
        if (self.len + 1) * 8 > self.buckets.len() * 7 {
            self.grow(&slot_hash);
        }
        let mut i = hash & self.mask;
        while self.buckets[i as usize] != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.buckets[i as usize] = slot;
        self.len += 1;
    }

    /// Removes `slot` (stored under `hash`), back-shifting any
    /// displaced followers so probe chains stay tombstone-free.
    /// Returns whether the slot was present.
    pub(crate) fn remove(&mut self, hash: u32, slot: u32, slot_hash: impl Fn(u32) -> u32) -> bool {
        // Locate the bucket actually holding `slot`.
        let mut i = hash & self.mask;
        loop {
            let v = self.buckets[i as usize];
            if v == EMPTY {
                return false;
            }
            if v == slot {
                break;
            }
            i = (i + 1) & self.mask;
        }
        // Backward-shift: walk the probe chain after the hole; any
        // entry whose home bucket lies at or before the hole (in probe
        // order) moves into it, opening a new hole further along.
        let mask = self.mask;
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let v = self.buckets[j as usize];
            if v == EMPTY {
                break;
            }
            let home = slot_hash(v) & mask;
            // `v` may fill the hole iff the hole lies within v's probe
            // path, i.e. distance(home → j) >= distance(hole → j).
            let dist_home = j.wrapping_sub(home) & mask;
            let dist_hole = j.wrapping_sub(hole) & mask;
            if dist_home >= dist_hole {
                self.buckets[hole as usize] = v;
                hole = j;
            }
        }
        self.buckets[hole as usize] = EMPTY;
        self.len -= 1;
        true
    }

    /// Empties the index, keeping the current table size.
    pub(crate) fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.len = 0;
    }

    /// Bytes the bucket table holds: 4 a bucket.
    pub(crate) fn bytes(&self) -> u64 {
        std::mem::size_of_val(&*self.buckets) as u64
    }

    fn grow(&mut self, slot_hash: impl Fn(u32) -> u32) {
        let new_cap = self.buckets.len() * 2;
        let old = std::mem::replace(&mut self.buckets, vec![EMPTY; new_cap].into_boxed_slice());
        self.mask = u32::try_from(new_cap - 1).expect("index capacity exceeds u32");
        for &slot in old.iter().filter(|&&s| s != EMPTY) {
            let mut i = slot_hash(slot) & self.mask;
            while self.buckets[i as usize] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.buckets[i as usize] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Reference harness: slots are (hash, id) pairs held in a Vec;
    /// the index maps hash→slot exactly as the engine uses it.
    struct Harness {
        index: KeyIndex,
        slots: Vec<u32>, // slot id -> hash
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                index: KeyIndex::new(),
                slots: Vec::new(),
            }
        }

        fn insert(&mut self, hash: u32) -> u32 {
            let slot = self.slots.len() as u32;
            self.slots.push(hash);
            let slots = &self.slots;
            self.index.insert(hash, slot, |s| slots[s as usize]);
            slot
        }

        fn find(&self, hash: u32, want: u32) -> Option<u32> {
            self.index.find(hash, |s| s == want)
        }

        fn remove(&mut self, hash: u32, slot: u32) -> bool {
            let slots = &self.slots;
            self.index.remove(hash, slot, |s| slots[s as usize])
        }
    }

    #[test]
    fn insert_find_remove_roundtrip() {
        let mut h = Harness::new();
        let a = h.insert(11);
        let b = h.insert(22);
        assert_eq!(h.find(11, a), Some(a));
        assert_eq!(h.find(22, b), Some(b));
        assert_eq!(h.find(33, 99), None);
        assert!(h.remove(11, a));
        assert!(!h.remove(11, a));
        assert_eq!(h.find(11, a), None);
        assert_eq!(h.find(22, b), Some(b));
        assert_eq!(h.index.len(), 1);
    }

    #[test]
    fn colliding_hashes_probe_past_each_other() {
        // All hashes map to the same home bucket.
        let mut h = Harness::new();
        let slots: Vec<u32> = (0..8).map(|i| h.insert(16 * i)).collect();
        for (i, &s) in slots.iter().enumerate() {
            assert_eq!(h.find(16 * i as u32, s), Some(s), "entry {i}");
        }
        // Removing from the middle of the chain keeps the rest findable
        // (backward shift, no tombstones).
        assert!(h.remove(16 * 3, slots[3]));
        for (i, &s) in slots.iter().enumerate() {
            if i != 3 {
                assert_eq!(h.find(16 * i as u32, s), Some(s), "entry {i} after removal");
            }
        }
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut h = Harness::new();
        let n = 10_000u32;
        let hash_of = |i: u32| i.wrapping_mul(0x9e37_79b9);
        let slots: Vec<u32> = (0..n).map(|i| h.insert(hash_of(i))).collect();
        assert_eq!(h.index.len(), n as usize);
        for (i, &s) in slots.iter().enumerate() {
            assert_eq!(h.find(hash_of(i as u32), s), Some(s), "entry {i}");
        }
    }

    #[test]
    fn random_churn_matches_reference_map() {
        // Deterministic xorshift; mixes inserts, removals, lookups.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut h = Harness::new();
        let mut reference: HashMap<u64, u32> = HashMap::new();
        for _ in 0..50_000 {
            // A small key space forces collisions; the mask clusters
            // their homes.
            let key = rand() % 512;
            let hash = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32 & !0xf;
            match rand() % 3 {
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = reference.entry(key) {
                        let slot = h.insert(hash);
                        e.insert(slot);
                    }
                }
                1 => {
                    if let Some(slot) = reference.remove(&key) {
                        assert!(h.remove(hash, slot), "remove key {key}");
                    }
                }
                _ => {
                    let expect = reference.get(&key).copied();
                    let got = h.index.find(hash, |s| Some(s) == expect);
                    assert_eq!(got, expect, "lookup key {key}");
                }
            }
            assert_eq!(h.index.len(), reference.len());
        }
    }
}
