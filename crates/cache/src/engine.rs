//! The LRU cache engine and the digest built from its keys.

use std::fmt;

use proteus_bloom::BloomFilter;
use proteus_ring::hash::{fnv1a64, splitmix64};
use proteus_sim::{SimDuration, SimTime};

use crate::config::{CacheConfig, StorageKind};
use crate::index::KeyIndex;
use crate::slab::{class_count, ChunkLoc, SlabError, SlabStats, SlabStore};
use crate::stats::{CacheStats, MemBytes};
use crate::SharedBytes;

const NIL: u32 = u32::MAX;

/// How many slots up from the LRU tail a slab placement looks for an
/// item of its own size class when the store reports `Full` (no free
/// chunk in the class, page budget spent) before the item takes the
/// heap path. Bounds the worst-case `set`.
const SLAB_EVICT_RETRY_LIMIT: u32 = 64;

/// The page size a slab engine of `capacity` bytes gets when
/// [`CacheConfig::slab_page_bytes`] is left at 0: the largest power of
/// two ≤ capacity / 128, within 4 KiB ..= 1 MiB. A class's last page
/// is half empty on average. At 64 KiB pages the ×1.125 classes number
/// 57, so a store that uses every one of them leaves about 28 pages of
/// tail, 22 % of 128, and chunk rounding adds up to ⅛ of the items'
/// bytes (about 6 % on average). The 30 % slack the page budget adds
/// covers the two together with the per-item overhead the byte budget
/// charges and no page holds (`item_overhead`, 64 B an item, a fifth
/// of a 300-byte item). Lazy commit makes an unfilled tail cost only
/// the 4 KiB pieces it wrote. A store of few pages, where 30 % is less
/// than the tails, gets half a page a class instead (see
/// [`CacheEngine::new`]). Where the pages still run out first (at 1 MiB
/// pages the 81 classes' tails alone would reach 32 %), a set evicts an
/// item of its own class or takes the heap path
/// (`SlabStats::starved_sets`); it never fails.
fn derived_page_bytes(capacity: u64) -> u32 {
    let target = (capacity / 128).clamp(4 << 10, 1 << 20);
    1 << target.ilog2()
}

/// FNV-1a through the SplitMix64 finalizer, narrowed to its low 32
/// bits. The finalizer matters: `ShardedEngine::shard_of` picks shards
/// from folded FNV bits, and the per-shard index must not see hashes
/// correlated with that fold or every key in a shard would share home
/// buckets. A slot keeps these 32 bits, which the index also uses for
/// home buckets, growth and removal.
fn hash_key(key: &[u8]) -> u32 {
    splitmix64(fnv1a64(key)) as u32
}

/// The absolute expiry of an item given `ttl` at `now`: `SimTime::MAX`
/// (never) for `None`.
fn deadline(now: SimTime, ttl: Option<SimDuration>) -> SimTime {
    ttl.map_or(SimTime::MAX, |d| now + d)
}

/// Heap-backed item payload: the original one-allocation-per-value
/// layout, kept in the engine's [`HeapItems`] side table.
#[derive(Debug)]
struct HeapItem {
    key: Box<[u8]>,
    value: SharedBytes,
}

/// The items on the heap path (heap backend, or slab
/// overflow/oversize fallback), indexed by a heap slot's location
/// word. A vacated entry is `None` until an insert reuses its index.
#[derive(Debug, Default)]
struct HeapItems {
    items: Vec<Option<HeapItem>>,
    vacant: Vec<u32>,
}

impl HeapItems {
    fn insert(&mut self, item: HeapItem) -> u32 {
        match self.vacant.pop() {
            Some(idx) => {
                self.items[idx as usize] = Some(item);
                idx
            }
            None => {
                self.items.push(Some(item));
                u32::try_from(self.items.len() - 1).expect("heap item overflow")
            }
        }
    }

    fn remove(&mut self, idx: u32) -> HeapItem {
        let item = self.items[idx as usize].take().expect("live heap item");
        self.vacant.push(idx);
        item
    }

    /// Drops every item and keeps the table's memory.
    fn clear(&mut self) {
        self.items.clear();
        self.vacant.clear();
    }
}

impl std::ops::Index<u32> for HeapItems {
    type Output = HeapItem;

    fn index(&self, idx: u32) -> &HeapItem {
        self.items[idx as usize].as_ref().expect("live heap item")
    }
}

/// The class byte of a location word that is not a slab chunk. Slab
/// classes stay below both (`SlabStore::new` asserts it).
const TAG_HEAP: u64 = 0xFF;
const TAG_FREE: u64 = 0xFE;

/// A slot's 8-byte location word. A slab item's [`ChunkLoc`] packs
/// into it as class (top byte), chunk (next three bytes) and page (low
/// four); a heap item's word is [`TAG_HEAP`] over its [`HeapItems`]
/// index, and a slot on the free list holds [`TAG_FREE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc(u64);

/// A [`Loc`] unpacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// `[key][value]` live in a slab page chunk.
    Slab(ChunkLoc),
    /// Key and value live in [`HeapItems`] at this index.
    Heap(u32),
    /// The slot is on the free list.
    Free,
}

impl Loc {
    const FREE: Loc = Loc(TAG_FREE << 56);

    /// Packs a chunk location. The slab never produces a class of
    /// [`TAG_FREE`] or above, nor a chunk index of 2²⁴ or above (its
    /// pages are at most 1 GiB of chunks of at least 64 B).
    fn slab(loc: ChunkLoc) -> Loc {
        debug_assert!(u64::from(loc.class) < TAG_FREE && loc.chunk < 1 << 24);
        Loc(u64::from(loc.class) << 56 | u64::from(loc.chunk) << 32 | u64::from(loc.page))
    }

    fn heap(idx: u32) -> Loc {
        Loc(TAG_HEAP << 56 | u64::from(idx))
    }

    fn place(self) -> Place {
        match self.0 >> 56 {
            TAG_HEAP => Place::Heap(self.0 as u32),
            TAG_FREE => Place::Free,
            class => Place::Slab(ChunkLoc {
                class: class as u8,
                chunk: (self.0 >> 32) as u32 & 0xFF_FFFF,
                page: self.0 as u32,
            }),
        }
    }
}

/// A slab item's key length (top byte) and value length (low three
/// bytes) in one word, or `None` when they do not fit: a key over
/// 255 B or a value of 16 MiB or more takes the heap path, which
/// behaves the same. A heap item's lengths are its buffers'.
fn pack_lens(klen: usize, vlen: usize) -> Option<u32> {
    let klen = u8::try_from(klen).ok()?;
    (vlen < 1 << 24).then(|| u32::from(klen) << 24 | vlen as u32)
}

/// The key and value lengths [`pack_lens`] packed.
fn unpack_lens(lens: u32) -> (usize, usize) {
    ((lens >> 24) as usize, (lens & 0xFF_FFFF) as usize)
}

/// Per-item state: the location word (8), the hash (4), the packed
/// lengths (4), the expiry (8) and the two LRU links (4 + 4). A field
/// added here is charged to every resident item.
#[derive(Debug)]
struct Slot {
    loc: Loc,
    /// The [`hash_key`] of the key; lets index growth/deletion and
    /// probe filtering skip key-byte reads.
    hash: u32,
    /// A slab item's [`pack_lens`]; 0 for a heap item.
    lens: u32,
    /// Absolute expiry instant; `SimTime::MAX` means never.
    expires_at: SimTime,
    prev: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

/// Slots per block of the slot table (32 KiB of 32-byte slots).
const SLOT_BLOCK: usize = 1024;

/// The engine's slots, in fixed blocks of [`SLOT_BLOCK`]: growing
/// appends a block and never moves a slot, where a doubling `Vec` would
/// copy the whole table under the shard lock and free the old one.
/// Block 0 grows by doubling up to the block size, so a tiny engine
/// stays tiny. `clear` keeps every block for the refill.
#[derive(Debug, Default)]
struct SlotTable {
    blocks: Vec<Vec<Slot>>,
    len: u32,
}

impl SlotTable {
    /// Appends `slot`, returning its index.
    fn push(&mut self, slot: Slot) -> u32 {
        let idx = self.len;
        let block = idx as usize / SLOT_BLOCK;
        if block == self.blocks.len() {
            self.blocks.push(match block {
                0 => Vec::new(),
                _ => Vec::with_capacity(SLOT_BLOCK),
            });
        }
        let slots = &mut self.blocks[block];
        if slots.len() == slots.capacity() {
            // Only block 0 is ever full short of the block size.
            slots.reserve_exact(slots.len().clamp(4, SLOT_BLOCK - slots.len()));
        }
        slots.push(slot);
        self.len = idx.checked_add(1).expect("cache slot overflow");
        idx
    }

    /// Drops every slot and keeps the blocks.
    fn clear(&mut self) {
        self.blocks.iter_mut().for_each(Vec::clear);
        self.len = 0;
    }

    /// Bytes the blocks hold, filled or not.
    fn bytes(&self) -> u64 {
        let slots: usize = self.blocks.iter().map(Vec::capacity).sum();
        (slots * std::mem::size_of::<Slot>()) as u64
    }
}

impl std::ops::Index<u32> for SlotTable {
    type Output = Slot;

    fn index(&self, idx: u32) -> &Slot {
        &self.blocks[idx as usize / SLOT_BLOCK][idx as usize % SLOT_BLOCK]
    }
}

impl std::ops::IndexMut<u32> for SlotTable {
    fn index_mut(&mut self, idx: u32) -> &mut Slot {
        &mut self.blocks[idx as usize / SLOT_BLOCK][idx as usize % SLOT_BLOCK]
    }
}

/// What a store operation did: whether the item was stored at all
/// (`false` = rejected as larger than the engine's whole budget) and
/// how many LRU evictions made room for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreOutcome {
    /// The item is now cached.
    pub stored: bool,
    /// Items evicted to make room.
    pub evicted: u64,
}

/// The stored key bytes of a live slot, wherever they live.
fn slot_key<'a>(store: &'a Option<SlabStore>, heap: &'a HeapItems, slot: &Slot) -> &'a [u8] {
    match slot.loc.place() {
        Place::Heap(i) => &heap[i].key,
        Place::Slab(loc) => store
            .as_ref()
            .expect("slab slot without slab store")
            .key_slice(loc, unpack_lens(slot.lens).0),
        Place::Free => unreachable!("reading key of a free slot"),
    }
}

/// The stored value bytes of a live slot.
fn slot_value<'a>(store: &'a Option<SlabStore>, heap: &'a HeapItems, slot: &Slot) -> &'a [u8] {
    match slot.loc.place() {
        Place::Heap(i) => &heap[i].value[..],
        Place::Slab(loc) => {
            let (klen, vlen) = unpack_lens(slot.lens);
            store
                .as_ref()
                .expect("slab slot without slab store")
                .value_slice(loc, klen, vlen)
        }
        Place::Free => unreachable!("reading value of a free slot"),
    }
}

/// A single cache server's storage engine: an LRU-evicting key-value
/// store with byte-capacity accounting, and a digest of its keys built
/// when a transition asks for one.
///
/// The paper's modified memcached keeps a counting Bloom filter in step
/// with its contents from `do_item_link` and `do_item_unlink`. This
/// engine keeps no digest between windows: its key index already lists
/// every resident key, so [`digest_snapshot`](Self::digest_snapshot)
/// builds the broadcast bit filter from it on demand, and a write pays
/// nothing for the digest. The snapshot's `contains(k)` is `true`
/// exactly for the keys resident when it was built (modulo Bloom false
/// positives).
///
/// Item bytes live in one of two backends selected by
/// [`CacheConfig::storage`]: the heap path (one allocation per item)
/// or the memcached-style slab store (size-classed pages sized to the
/// capacity, DESIGN.md §12). The backends are behaviourally identical;
/// every item is charged `key + value + item_overhead` bytes against
/// `capacity_bytes` either way, so eviction decisions — and therefore
/// digest contents — do not depend on the backend.
///
/// # Example
///
/// ```
/// use proteus_cache::{CacheConfig, CacheEngine};
/// use proteus_sim::SimTime;
///
/// let mut cache = CacheEngine::new(CacheConfig::with_capacity(64 * 1024));
/// cache.put(b"a", b"alpha".to_vec(), SimTime::ZERO);
/// assert_eq!(cache.get(b"a", SimTime::ZERO).map(<[u8]>::to_vec), Some(b"alpha".to_vec()));
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct CacheEngine {
    config: CacheConfig,
    index: KeyIndex,
    slots: SlotTable,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    bytes_used: u64,
    store: Option<SlabStore>,
    heap: HeapItems,
    stats: CacheStats,
}

impl CacheEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let store = match config.storage {
            StorageKind::Heap => None,
            StorageKind::Slab => {
                // Page budget: the payload capacity plus 30% slack for
                // chunk rounding and partially-filled pages, plus two
                // pages of headroom so tiny configurations still have
                // pages to reassign between classes. A store of few
                // pages gets at least the payload plus half a page a
                // size class, the tails' average when every class holds
                // items, since 30% of a few pages cannot cover them. An
                // explicit `slab_page_budget` overrides the derivation.
                let page_bytes = match config.slab_page_bytes {
                    0 => derived_page_bytes(config.capacity_bytes),
                    bytes => bytes.max(1024),
                };
                let pages = |bytes: u64| bytes.div_ceil(u64::from(page_bytes));
                let budget = config.capacity_bytes.saturating_mul(13) / 10;
                let max_pages = match config.slab_page_budget {
                    0 => (pages(budget) + 2)
                        .max(pages(config.capacity_bytes) + class_count(page_bytes).div_ceil(2)),
                    pages => pages,
                };
                Some(SlabStore::new(page_bytes, max_pages))
            }
        };
        CacheEngine {
            config,
            index: KeyIndex::new(),
            slots: SlotTable::default(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes_used: 0,
            store,
            heap: HeapItems::default(),
            stats: CacheStats::default(),
        }
    }

    /// Number of cached items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Bytes currently accounted (keys + values + per-item overhead).
    #[must_use]
    pub fn bytes_used(&self) -> u64 {
        self.bytes_used
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Slab-store usage snapshot, or `None` on the heap backend.
    #[must_use]
    pub fn slab_stats(&self) -> Option<SlabStats> {
        self.store.as_ref().map(SlabStore::stats)
    }

    /// Bytes the engine's slot table and key index hold (see
    /// [`MemBytes`]).
    #[must_use]
    pub fn mem_bytes(&self) -> MemBytes {
        MemBytes {
            slot_table: self.slots.bytes(),
            key_index: self.index.bytes(),
        }
    }

    /// Audits internal storage accounting, panicking on drift: slab
    /// chunk conservation per page, per-class counter agreement, the
    /// page-budget bound, and that accounted bytes stay within the
    /// capacity budget. A no-op in spirit for the heap backend (only
    /// the capacity check applies). Intended for tests; cost is
    /// proportional to the number of slab pages.
    pub fn assert_storage_consistent(&self) {
        if let Some(store) = &self.store {
            store.assert_consistent();
        }
        assert!(
            self.bytes_used <= self.config.capacity_bytes || self.index.len() == 0,
            "accounted bytes {} exceed capacity {}",
            self.bytes_used,
            self.config.capacity_bytes
        );
    }

    /// The digest as a broadcast-ready bit filter, built now from the
    /// resident keys — the engine-level equivalent of
    /// `get("SET_BLOOM_FILTER")` followed by `get("BLOOM_FILTER")`.
    ///
    /// The filter has the configured `(l, h, seed)` and one key set for
    /// every live slot, on the slab path and the heap path alike; an
    /// expired item no read has reaped yet is still resident, so it is
    /// in. The slot table is walked in index order, one contiguous scan
    /// that skips free slots, so the time it takes grows with the slots
    /// the table holds, not with the order of the LRU chain.
    #[must_use]
    pub fn digest_snapshot(&self) -> BloomFilter {
        let mut digest = BloomFilter::new(self.config.digest);
        for slot in self.slots.blocks.iter().flatten() {
            if slot.loc != Loc::FREE {
                digest.insert(slot_key(&self.store, &self.heap, slot));
            }
        }
        digest
    }

    fn entry_cost(&self, klen: usize, vlen: usize) -> u64 {
        klen as u64 + vlen as u64 + u64::from(self.config.item_overhead)
    }

    /// Index lookup: the slot holding exactly `key`, if any.
    fn find_slot(&self, key: &[u8], hash: u32) -> Option<u32> {
        let (slots, store, heap) = (&self.slots, &self.store, &self.heap);
        self.index.find(hash, |s| {
            let slot = &slots[s];
            slot.hash == hash && slot_key(store, heap, slot) == key
        })
    }

    /// The stored value bytes of the live slot `idx`.
    fn value_of(&self, idx: u32) -> &[u8] {
        slot_value(&self.store, &self.heap, &self.slots[idx])
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, refreshing its recency. Returns the value bytes
    /// if present and not expired.
    ///
    /// Expiry is lazy, memcached-style: an expired item is unlinked
    /// the first time anything looks at it.
    pub fn get(&mut self, key: &[u8], now: SimTime) -> Option<&[u8]> {
        self.hit_slot(key, now).map(|idx| self.value_of(idx))
    }

    /// Like [`get`](Self::get), but hands back a value that outlives
    /// the borrow of the engine: a refcount bump on the heap backend
    /// (which stores each value as a [`SharedBytes`]), one allocation
    /// and one copy on the slab backend (which owns its pages and lends
    /// them only as `&[u8]`). The convenience path for tests, the
    /// simulator and tools; the server reads through
    /// [`get`](Self::get) under its shard lock instead.
    pub fn get_shared(&mut self, key: &[u8], now: SimTime) -> Option<SharedBytes> {
        self.hit_slot(key, now).map(|idx| self.owned_value(idx))
    }

    /// An owned handle on a live slot's value (see
    /// [`get_shared`](Self::get_shared) for what it costs).
    fn owned_value(&self, idx: u32) -> SharedBytes {
        match self.slots[idx].loc.place() {
            Place::Heap(i) => SharedBytes::clone(&self.heap[i].value),
            _ => SharedBytes::from(self.value_of(idx)),
        }
    }

    /// The slot holding `key` if it has not expired by `now`. An
    /// expired item is reaped here (unlinked and counted as expired);
    /// nothing else moves.
    fn live_slot(&mut self, key: &[u8], now: SimTime) -> Option<u32> {
        let idx = self.find_slot(key, hash_key(key))?;
        if self.slots[idx].expires_at <= now {
            self.remove_slot(idx);
            self.stats.expired += 1;
            return None;
        }
        Some(idx)
    }

    /// Shared hit path: a [`live_slot`](Self::live_slot) lookup that
    /// refreshes recency on a hit and moves the hit/miss counters.
    /// Returns the slot index on a hit.
    fn hit_slot(&mut self, key: &[u8], now: SimTime) -> Option<u32> {
        let Some(idx) = self.live_slot(key, now) else {
            self.stats.misses += 1;
            return None;
        };
        self.detach(idx);
        self.push_front(idx);
        self.stats.hits += 1;
        Some(idx)
    }

    /// The memcached `touch` command: refreshes `key`'s recency without
    /// reading the value and gives it a new expiry, `ttl` after `now`
    /// (`None` never expires, as with
    /// [`put_with_expiry`](Self::put_with_expiry)). Returns whether the
    /// key was present. Does not count as a hit or miss.
    pub fn touch(&mut self, key: &[u8], now: SimTime, ttl: Option<SimDuration>) -> bool {
        let Some(idx) = self.live_slot(key, now) else {
            return false;
        };
        self.detach(idx);
        self.push_front(idx);
        self.slots[idx].expires_at = deadline(now, ttl);
        true
    }

    /// Non-mutating lookup: neither recency nor statistics change.
    /// Expired-but-not-yet-reaped items still show here (they are
    /// physically present until something touches them), as they do in
    /// a [`digest_snapshot`](Self::digest_snapshot).
    #[must_use]
    pub fn peek(&self, key: &[u8]) -> Option<&[u8]> {
        self.find_slot(key, hash_key(key))
            .map(|idx| self.value_of(idx))
    }

    /// Presence probe for compound storage commands (`add`/`replace`):
    /// reaps the item if it has expired (like [`get`](Self::get)), but
    /// moves **no** statistics and does not refresh recency. memcached's
    /// `add` on a present key is not a cache read and must not count as
    /// a `get` hit.
    pub fn probe(&mut self, key: &[u8], now: SimTime) -> bool {
        self.live_slot(key, now).is_some()
    }

    /// The absolute expiry instant of `key`, if cached:
    /// `Some(SimTime::MAX)` means it never expires; `None` means the
    /// key is absent. Expired-but-unreaped items still report their
    /// (past) deadline, matching [`peek`](Self::peek) semantics.
    #[must_use]
    pub fn expiry_of(&self, key: &[u8]) -> Option<SimTime> {
        self.find_slot(key, hash_key(key))
            .map(|idx| self.slots[idx].expires_at)
    }

    /// Reaps every expired item now (memcached leaves this to lazy
    /// access). Returns the number of items reaped. No snapshot path
    /// calls it: an expired item nothing has read since stays in a
    /// broadcast digest until a read reaps it.
    pub fn sweep_expired(&mut self, now: SimTime) -> u64 {
        let mut expired = Vec::new();
        let mut cursor = self.head;
        while cursor != NIL {
            let slot = &self.slots[cursor];
            if slot.expires_at <= now {
                expired.push(cursor);
            }
            cursor = slot.next;
        }
        let count = expired.len() as u64;
        for idx in expired {
            self.remove_slot(idx);
            self.stats.expired += 1;
        }
        count
    }

    /// Whether `key` is cached (no recency/stat side effects).
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.find_slot(key, hash_key(key)).is_some()
    }

    /// Inserts or replaces `key` with no expiry, evicting LRU items
    /// until the new item fits.
    ///
    /// A replacement is an unlink of the old item plus a link of the
    /// new one, as memcached's `do_item_unlink`/`do_item_link` pair. An
    /// item whose accounted cost exceeds the engine's entire capacity
    /// is **rejected** (memcached's
    /// `SERVER_ERROR object too large`): nothing is evicted for it and
    /// a pre-existing value under the key survives untouched.
    pub fn put(
        &mut self,
        key: &[u8],
        value: impl Into<SharedBytes> + AsRef<[u8]>,
        now: SimTime,
    ) -> StoreOutcome {
        self.put_with_expiry(key, value, now, None)
    }

    /// Inserts or replaces `key`, optionally expiring it `ttl` after
    /// `now` (the memcached `exptime`; the paper's "fixed expiration
    /// duration" eviction strategy). `None` never expires.
    pub fn put_with_expiry(
        &mut self,
        key: &[u8],
        value: impl Into<SharedBytes> + AsRef<[u8]>,
        now: SimTime,
        ttl: Option<SimDuration>,
    ) -> StoreOutcome {
        self.put_with_deadline(key, value, deadline(now, ttl))
    }

    /// Inserts or replaces `key` with an **absolute** expiry instant
    /// (`SimTime::MAX` = never). This is the primitive `incr`/`decr`
    /// need to rewrite a counter's value while preserving the original
    /// item's deadline, as memcached does.
    pub fn put_with_deadline(
        &mut self,
        key: &[u8],
        value: impl Into<SharedBytes> + AsRef<[u8]>,
        expires_at: SimTime,
    ) -> StoreOutcome {
        self.stats.sets += 1;
        let hash = hash_key(key);
        let klen = key.len();
        let vlen = value.as_ref().len();
        let cost = self.entry_cost(klen, vlen);
        if cost > self.config.capacity_bytes {
            // Rejecting (rather than evicting the whole cache and then
            // failing anyway) keeps any existing value under the key.
            self.stats.rejected += 1;
            return StoreOutcome {
                stored: false,
                evicted: 0,
            };
        }
        // Replace = unlink old + link new. Unlinking first frees the
        // old chunk, which the new value often reuses immediately.
        if let Some(idx) = self.find_slot(key, hash) {
            self.remove_slot(idx);
        }
        let mut evicted = 0;
        while self.bytes_used + cost > self.config.capacity_bytes && self.tail != NIL {
            self.remove_slot(self.tail);
            self.stats.evictions += 1;
            evicted += 1;
        }
        let slab = match pack_lens(klen, vlen) {
            Some(lens) if self.store.is_some() => self
                .place_slab(key, value.as_ref(), &mut evicted)
                .map(|loc| (Loc::slab(loc), lens)),
            _ => None,
        };
        let (loc, lens) = match slab {
            Some(placed) => placed,
            None => {
                // Larger than a page, lengths that do not pack, or a
                // starved class with none of its own items near the LRU
                // tail: the heap path always succeeds, so a
                // within-budget set never fails outright.
                if let Some(store) = &mut self.store {
                    store.note_heap_fallback();
                }
                let item = HeapItem {
                    key: key.into(),
                    value: value.into(),
                };
                (Loc::heap(self.heap.insert(item)), 0)
            }
        };
        let slot = Slot {
            loc,
            hash,
            lens,
            expires_at,
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(free) = self.free.pop() {
            self.slots[free] = slot;
            free
        } else {
            self.slots.push(slot)
        };
        let slots = &self.slots;
        self.index.insert(hash, idx, |s| slots[s].hash);
        self.push_front(idx);
        self.bytes_used += cost;
        StoreOutcome {
            stored: true,
            evicted,
        }
    }

    /// Tries to place `[key][bytes]` in the slab store. When the item's
    /// size class is starved (the store reports `Full`), only an item
    /// of that same class can give it a chunk: the least-recent one
    /// within [`SLAB_EVICT_RETRY_LIMIT`] slots of the LRU tail is
    /// evicted and its chunk reused. `None` means "use the heap path"
    /// (oversize, or no such item), evicting nobody.
    fn place_slab(&mut self, key: &[u8], bytes: &[u8], evicted: &mut u64) -> Option<ChunkLoc> {
        let store = self.store.as_mut().expect("slab engine");
        match store.insert(key, bytes) {
            Ok(loc) => return Some(loc),
            Err(SlabError::Oversize) => return None,
            Err(SlabError::Full) => {}
        }
        let class = store.class_of(key.len() + bytes.len())?;
        let mut cursor = self.tail;
        let mut walked = 0;
        let victim = loop {
            if cursor == NIL || walked == SLAB_EVICT_RETRY_LIMIT {
                return None;
            }
            let slot = &self.slots[cursor];
            if matches!(slot.loc.place(), Place::Slab(loc) if loc.class == class) {
                break cursor;
            }
            cursor = slot.prev;
            walked += 1;
        };
        self.remove_slot(victim);
        self.stats.evictions += 1;
        *evicted += 1;
        // The victim's chunk is free now, so this cannot be `Full`.
        self.store
            .as_mut()
            .expect("slab engine")
            .insert(key, bytes)
            .ok()
    }

    fn remove_slot(&mut self, idx: u32) {
        self.detach(idx);
        let slot = &mut self.slots[idx];
        let (hash, lens) = (slot.hash, slot.lens);
        let (klen, vlen) = match std::mem::replace(&mut slot.loc, Loc::FREE).place() {
            Place::Heap(i) => {
                let item = self.heap.remove(i);
                (item.key.len(), item.value.len())
            }
            Place::Slab(loc) => {
                let (klen, vlen) = unpack_lens(lens);
                let store = self.store.as_mut().expect("slab slot without slab store");
                store.free(loc, klen + vlen);
                (klen, vlen)
            }
            Place::Free => unreachable!("removing a free slot"),
        };
        let slots = &self.slots;
        self.index.remove(hash, idx, |s| slots[s].hash);
        self.bytes_used -= self.entry_cost(klen, vlen);
        self.free.push(idx);
    }

    /// Deletes `key`, returning whether it was present.
    pub fn delete(&mut self, key: &[u8]) -> bool {
        match self.find_slot(key, hash_key(key)) {
            Some(idx) => {
                self.remove_slot(idx);
                self.stats.deletes += 1;
                true
            }
            None => false,
        }
    }

    /// Iterates over cached keys in MRU→LRU order.
    #[must_use]
    pub fn keys(&self) -> Keys<'_> {
        Keys {
            slots: &self.slots,
            store: &self.store,
            heap: &self.heap,
            cursor: self.head,
        }
    }

    /// Empties the cache (a server powering off loses its contents).
    /// The bookkeeping stays with the engine for the refill: the index
    /// keeps its table, the slot table its blocks and the heap-item
    /// table its capacity. The slab keeps its pages' address space and
    /// hands every page's memory back to the kernel, its one-page
    /// reserve included (see `SlabStore::clear`).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.heap.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.bytes_used = 0;
        if let Some(store) = &mut self.store {
            store.clear();
        }
    }
}

/// The keys of a [`CacheEngine`], hottest first (see
/// [`CacheEngine::keys`]). A clone restarts from where the original
/// stands, so a caller can measure a walk before it copies one.
#[derive(Clone)]
pub struct Keys<'a> {
    slots: &'a SlotTable,
    store: &'a Option<SlabStore>,
    heap: &'a HeapItems,
    cursor: u32,
}

impl fmt::Debug for Keys<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Keys").finish_non_exhaustive()
    }
}

impl<'a> Iterator for Keys<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.cursor == NIL {
            return None;
        }
        let slot = &self.slots[self.cursor];
        self.cursor = slot.next;
        Some(slot_key(self.store, self.heap, slot))
    }
}

impl fmt::Debug for CacheEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheEngine")
            .field("items", &self.len())
            .field("bytes_used", &self.bytes_used)
            .field("capacity_bytes", &self.config.capacity_bytes)
            .field("storage", &self.config.storage)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_bloom::BloomConfig;

    fn config(capacity: u64) -> CacheConfig {
        CacheConfig::with_capacity(capacity)
            .item_overhead(0)
            .digest(BloomConfig::new(1 << 14, 4, 4))
    }

    fn engine(capacity: u64) -> CacheEngine {
        CacheEngine::new(config(capacity))
    }

    fn slab_engine(capacity: u64) -> CacheEngine {
        CacheEngine::new(config(capacity).slab_page_bytes(4096))
    }

    /// The oracle: one allocation per value, reads are refcount bumps.
    fn heap_engine(capacity: u64) -> CacheEngine {
        CacheEngine::new(config(capacity).storage(StorageKind::Heap))
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn get_put_roundtrip_and_stats() {
        let mut c = engine(1 << 16);
        assert!(c.get(b"k", T0).is_none());
        c.put(b"k", b"v".to_vec(), T0);
        assert_eq!(c.get(b"k", T0).unwrap(), b"v");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.sets), (1, 1, 1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn replacement_updates_value_and_bytes() {
        let mut c = engine(1 << 16);
        c.put(b"k", vec![0; 100], T0);
        let before = c.bytes_used();
        c.put(b"k", vec![0; 10], T0);
        assert_eq!(c.bytes_used(), before - 90);
        assert_eq!(c.get(b"k", T0).unwrap().len(), 10);
        assert_eq!(c.len(), 1);
        assert!(c.digest_snapshot().contains(b"k"));
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Capacity for exactly 3 items of 10+1 bytes.
        let mut c = engine(33);
        c.put(b"a", vec![0; 10], T0);
        c.put(b"b", vec![0; 10], T0);
        c.put(b"c", vec![0; 10], T0);
        // Touch "a" so "b" is now LRU.
        assert!(c.get(b"a", T0).is_some());
        let outcome = c.put(b"d", vec![0; 10], T0);
        assert_eq!(outcome.evicted, 1);
        assert!(outcome.stored);
        assert!(!c.contains(b"b"), "b was LRU");
        assert!(c.contains(b"a") && c.contains(b"c") && c.contains(b"d"));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = engine(1000);
        for i in 0..200u64 {
            c.put(&i.to_le_bytes(), vec![0; 50], T0);
            assert!(c.bytes_used() <= 1000, "over capacity at item {i}");
        }
    }

    #[test]
    fn oversized_item_is_rejected_and_leaves_contents_intact() {
        let mut c = engine(100);
        c.put(b"small", vec![0; 10], T0);
        // A 200-byte item can never fit a 100-byte budget: it is
        // rejected outright, evicting nothing.
        let outcome = c.put(b"huge", vec![0; 200], T0);
        assert!(!outcome.stored);
        assert_eq!(outcome.evicted, 0);
        assert!(!c.contains(b"huge"));
        assert!(!c.digest_snapshot().contains(b"huge"));
        assert_eq!(c.peek(b"small"), Some(&[0u8; 10][..]), "survivor intact");
        assert_eq!(c.stats().rejected, 1);
        assert_eq!(c.stats().evictions, 0);
        // A replace that would not fit keeps the old value too.
        let outcome = c.put(b"small", vec![1; 150], T0);
        assert!(!outcome.stored);
        assert_eq!(c.peek(b"small"), Some(&[0u8; 10][..]));
        assert_eq!(c.stats().rejected, 2);
    }

    #[test]
    fn digest_tracks_contents_through_eviction() {
        let mut c = engine(120);
        for i in 0..50u64 {
            c.put(&i.to_le_bytes(), vec![0; 10], T0);
        }
        // Only a handful fit; digest must agree with contents for all
        // current keys and report evicted ones absent (small filter
        // false-positive rate aside, which the wide test filter avoids).
        let digest = c.digest_snapshot();
        let mut present = 0;
        for i in 0..50u64 {
            let key = i.to_le_bytes();
            if c.contains(&key) {
                assert!(digest.contains(&key), "cached key {i} missing from digest");
                present += 1;
            } else {
                assert!(!digest.contains(&key), "evicted key {i} still in digest");
            }
        }
        assert!(present > 0);
    }

    #[test]
    fn delete_unlinks_and_updates_digest() {
        let mut c = engine(1 << 16);
        c.put(b"k", vec![1, 2, 3], T0);
        assert!(c.delete(b"k"));
        assert!(!c.delete(b"k"));
        assert!(!c.contains(b"k"));
        assert!(!c.digest_snapshot().contains(b"k"));
        assert_eq!(c.stats().deletes, 1);
        assert_eq!(c.bytes_used(), 0);
    }

    /// Per-item state is 32 bytes: the location word (8: a packed
    /// `ChunkLoc`, or a tagged heap-item index), the low 32 bits of the
    /// hash (4), the key and value lengths packed as u8 + u24 (4), the
    /// expiry (8) and the two LRU links (4 + 4). A field added here is
    /// charged to every resident item.
    #[test]
    fn a_slot_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
    }

    #[test]
    fn the_extreme_slab_locations_survive_the_location_word() {
        // The largest class, the last chunk of the smallest class and
        // the last page index a store can produce, with the largest
        // budget, at the smallest, the largest default and the largest
        // page size.
        for page_bytes in [1 << 10, 1 << 20, 1 << 30] {
            let store = SlabStore::new(page_bytes, u64::MAX);
            let largest = store.class_of(page_bytes as usize).unwrap();
            assert_eq!(store.class_of(page_bytes as usize + 1), None);
            let last_chunk = page_bytes / store.chunk_size(0) - 1;
            let extremes = [
                ChunkLoc {
                    class: largest,
                    chunk: last_chunk,
                    page: u32::MAX,
                },
                ChunkLoc {
                    class: 0,
                    chunk: 0,
                    page: 0,
                },
            ];
            for loc in extremes {
                assert_eq!(
                    Loc::slab(loc).place(),
                    Place::Slab(loc),
                    "{page_bytes} B pages"
                );
            }
        }
        assert_eq!(Loc::heap(u32::MAX).place(), Place::Heap(u32::MAX));
        assert_eq!(Loc::heap(0).place(), Place::Heap(0));
        assert_eq!(Loc::FREE.place(), Place::Free);

        let limit = (1 << 24) - 1;
        assert_eq!(pack_lens(255, limit).map(unpack_lens), Some((255, limit)));
        assert_eq!(pack_lens(0, 0).map(unpack_lens), Some((0, 0)));
        assert_eq!(pack_lens(256, 0), None);
        assert_eq!(pack_lens(0, limit + 1), None);
    }

    #[test]
    fn lengths_that_do_not_pack_take_the_heap_path_and_read_back() {
        // 32 MiB pages, so a value of 2^24 B fits a chunk but not the
        // 24 bits a slot keeps for its length.
        let mut c = CacheEngine::new(config(1 << 26).slab_page_bytes(32 << 20));
        let key_255 = [b'a'; 255];
        let key_256 = [b'b'; 256];
        let giant = vec![7u8; 1 << 24];
        let items: [(&[u8], Vec<u8>, bool); 3] = [
            (&key_255, b"slab".to_vec(), false),
            (&key_256, b"heap".to_vec(), true),
            (b"giant", giant, true),
        ];
        for (key, value, _) in &items {
            assert!(c.put(key, value.clone(), T0).stored);
        }
        assert_eq!(c.slab_stats().unwrap().heap_fallbacks, 2);
        for (key, value, on_heap) in &items {
            let idx = c.find_slot(key, hash_key(key)).unwrap();
            let place = c.slots[idx].loc.place();
            assert_eq!(matches!(place, Place::Heap(_)), *on_heap, "{place:?}");
            assert_eq!(c.peek(key), Some(&value[..]));
            assert_eq!(&c.get_shared(key, T0).unwrap()[..], &value[..]);
            assert_eq!(c.keys().filter(|k| k == key).count(), 1);
        }
        c.assert_storage_consistent();
        for (key, _, _) in &items {
            assert!(c.delete(key));
            assert!(!c.digest_snapshot().contains(key));
        }
        assert_eq!(c.bytes_used(), 0);
        assert_eq!(c.slab_stats().unwrap().live_bytes(), 0);
        c.assert_storage_consistent();
    }

    #[test]
    fn keys_iterate_mru_to_lru() {
        let mut c = engine(1 << 16);
        c.put(b"a", vec![0], T0);
        c.put(b"b", vec![0], T0);
        c.put(b"c", vec![0], T0);
        let _ = c.get(b"a", T0); // a becomes MRU
        let order: Vec<&[u8]> = c.keys().collect();
        assert_eq!(order, [b"a".as_slice(), b"c", b"b"]);
    }

    #[test]
    fn get_shared_hands_out_the_same_buffer() {
        let mut c = heap_engine(1 << 16);
        c.put(b"k", b"shared".to_vec(), T0);
        let a = c.get_shared(b"k", T0).unwrap();
        let b = c.get_shared(b"k", T0).unwrap();
        assert!(
            a.as_ptr() == b.as_ptr(),
            "repeated hits must share one allocation"
        );
        assert_eq!(c.peek(b"k").unwrap().as_ptr(), a.as_ptr());
        assert_eq!(&a[..], b"shared");
        assert_eq!(c.stats().hits, 2);
        // The buffer outlives deletion for whoever holds a clone.
        assert!(c.delete(b"k"));
        assert_eq!(&a[..], b"shared");
    }

    #[test]
    fn slot_reuse_after_delete() {
        let mut c = engine(1 << 16);
        for round in 0..10 {
            for i in 0..100u64 {
                c.put(&i.to_le_bytes(), vec![round; 8], T0);
            }
            for i in 0..100u64 {
                assert!(c.delete(&i.to_le_bytes()));
            }
        }
        assert!(c.is_empty());
        // The slot table should not have grown past one round's worth.
        assert!(c.slots.len <= 100, "slot table grew to {}", c.slots.len);
    }

    #[test]
    fn the_slot_table_grows_in_blocks_and_keeps_them_through_clear() {
        let mut c = slab_engine(1 << 20);
        let key = |i: u32| format!("k{i}").into_bytes();
        let slot_of = |c: &CacheEngine, k: &[u8]| c.find_slot(k, hash_key(k));
        c.put(&key(0), vec![0], T0);
        assert_eq!(c.slots.blocks[0].capacity(), 4, "a tiny engine stays tiny");

        let n = 2 * SLOT_BLOCK as u32 + 1;
        for i in 1..n {
            c.put(&key(i), i.to_le_bytes().to_vec(), T0);
        }
        let capacities: Vec<usize> = c.slots.blocks.iter().map(Vec::capacity).collect();
        assert_eq!(capacities, [SLOT_BLOCK; 3]);
        let homes: Vec<*const Slot> = c.slots.blocks.iter().map(|b| b.as_ptr()).collect();
        let homes_now = |c: &CacheEngine| -> Vec<*const Slot> {
            c.slots.blocks.iter().map(|b| b.as_ptr()).collect()
        };

        // Free the last slot of block 0 and the first of block 1; the
        // free list hands them back LIFO, and the table does not grow.
        assert_eq!(slot_of(&c, &key(1023)), Some(1023));
        assert_eq!(slot_of(&c, &key(1024)), Some(1024));
        assert!(c.delete(&key(1023)) && c.delete(&key(1024)));
        c.put(b"x", b"ex".to_vec(), T0);
        c.put(b"y", b"why".to_vec(), T0);
        assert_eq!(slot_of(&c, b"x"), Some(1024));
        assert_eq!(slot_of(&c, b"y"), Some(1023));
        assert_eq!(c.slots.len, n);
        assert_eq!(c.get(b"x", T0).unwrap(), b"ex");
        assert_eq!(c.get(b"y", T0).unwrap(), b"why");
        for i in (1..n).filter(|i| !(1023..=1024).contains(i)) {
            assert_eq!(c.peek(&key(i)).unwrap(), i.to_le_bytes(), "key {i}");
        }
        assert_eq!(homes_now(&c), homes, "no slot moved");

        // Clear keeps the blocks, and the refill lands in them.
        c.clear();
        assert_eq!((c.slots.len, c.slots.blocks.len()), (0, 3));
        for i in 0..n {
            c.put(&key(i), i.to_le_bytes().to_vec(), T0);
        }
        assert_eq!(slot_of(&c, &key(1023)), Some(1023));
        assert_eq!(slot_of(&c, &key(1024)), Some(1024));
        assert_eq!(c.peek(&key(n - 1)).unwrap(), (n - 1).to_le_bytes());
        assert_eq!(homes_now(&c), homes, "the refill reused every block");
        assert_eq!(c.len(), n as usize);
        c.assert_storage_consistent();
    }

    #[test]
    fn clear_resets_all_state() {
        let mut c = engine(1 << 16);
        c.put(b"k", vec![0; 10], T0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes_used(), 0);
        assert!(!c.digest_snapshot().contains(b"k"));
        assert_eq!(c.keys().count(), 0);
    }

    #[test]
    fn touch_refreshes_recency_without_stats() {
        let mut c = engine(1 << 16);
        c.put(b"a", vec![1], T0);
        c.put(b"b", vec![2], T0);
        let before = c.stats();
        let later = T0 + SimDuration::from_secs(5);
        assert!(c.touch(b"a", later, None));
        assert!(!c.touch(b"missing", later, None));
        assert_eq!(c.stats(), before, "touch must not move hit/miss counters");
        // "a" is MRU again.
        assert_eq!(c.keys().next().unwrap(), b"a");
    }

    #[test]
    fn touch_sets_the_new_expiry() {
        let mut c = engine(1 << 16);
        let ttl = SimDuration::from_secs(30);
        c.put_with_expiry(b"k", vec![1], T0, Some(SimDuration::from_secs(100)));
        let t5 = T0 + SimDuration::from_secs(5);
        // exptime 0: the item never expires any more.
        assert!(c.touch(b"k", t5, None));
        assert_eq!(c.expiry_of(b"k"), Some(SimTime::MAX));
        // A non-expiring item gets a deadline `ttl` after the touch.
        assert!(c.touch(b"k", t5, Some(ttl)));
        assert_eq!(c.expiry_of(b"k"), Some(t5 + ttl));
        assert!(
            c.get(b"k", t5 + ttl).is_none(),
            "expired at the new deadline"
        );
    }

    #[test]
    fn slab_incr_rewrite_with_a_reader_holding_the_old_value_stays_in_the_slab() {
        // The server's incr path (probe → expiry_of → peek →
        // put_with_deadline) rewrites the counter while a client may
        // still hold an earlier get's result. The slab owns its pages,
        // so that result is a copy: even with a single-page budget the
        // rewrite reuses the counter's own chunk — no heap fallback, no
        // second page — and the reader's copy keeps the old bytes.
        let mut c = CacheEngine::new(config(1 << 16).slab_page_bytes(1024).slab_page_budget(1));
        c.put(b"ctr", b"41".to_vec(), T0);
        let held = c.get_shared(b"ctr", T0).unwrap();

        // The server's numeric_op composition.
        assert!(c.probe(b"ctr", T0));
        let deadline = c.expiry_of(b"ctr").unwrap();
        let current: u64 = std::str::from_utf8(c.peek(b"ctr").unwrap())
            .unwrap()
            .parse()
            .unwrap();
        let outcome = c.put_with_deadline(b"ctr", (current + 1).to_string().into_bytes(), deadline);
        assert!(outcome.stored);

        assert_eq!(c.get(b"ctr", T0).unwrap(), b"42");
        assert_eq!(&held[..], b"41", "a reader's copy is never rewritten");
        let stats = c.slab_stats().unwrap();
        assert_eq!(stats.heap_fallbacks, 0);
        assert_eq!(stats.pages_allocated, 1);
        assert_eq!(stats.live_bytes(), 5);
        assert_eq!(c.bytes_used(), 5, "key + value, single accounting model");
        c.assert_storage_consistent();
    }

    #[test]
    fn probe_reports_presence_without_stats_or_recency() {
        let mut c = engine(1 << 16);
        c.put(b"a", vec![1], T0);
        c.put(b"b", vec![2], T0);
        let before = c.stats();
        assert!(c.probe(b"a", T0));
        assert!(!c.probe(b"missing", T0));
        assert_eq!(c.stats(), before, "probe must not move hit/miss counters");
        // LRU order unchanged: "b" still MRU despite the probe on "a".
        assert_eq!(c.keys().next().unwrap(), b"b");
        // An expired item is reaped by the probe (counted as expired,
        // never as a miss) and reads as absent.
        c.put_with_expiry(b"gone", vec![3], T0, Some(SimDuration::from_secs(5)));
        let later = T0 + SimDuration::from_secs(6);
        assert!(!c.probe(b"gone", later));
        assert!(!c.contains(b"gone"));
        assert_eq!(c.stats().expired, before.expired + 1);
        assert_eq!(c.stats().misses, before.misses);
    }

    #[test]
    fn put_with_deadline_preserves_an_absolute_expiry() {
        let mut c = engine(1 << 16);
        c.put_with_expiry(b"k", b"1".to_vec(), T0, Some(SimDuration::from_secs(10)));
        let deadline = c.expiry_of(b"k").unwrap();
        assert_eq!(deadline, T0 + SimDuration::from_secs(10));
        // Rewrite the value, keeping the original deadline.
        c.put_with_deadline(b"k", b"2".to_vec(), deadline);
        assert_eq!(c.expiry_of(b"k"), Some(deadline));
        assert!(c.get(b"k", T0 + SimDuration::from_secs(9)).is_some());
        assert!(c.get(b"k", T0 + SimDuration::from_secs(10)).is_none());
        // Items without a TTL report the MAX sentinel; absent keys None.
        c.put(b"forever", vec![0], T0);
        assert_eq!(c.expiry_of(b"forever"), Some(SimTime::MAX));
        assert_eq!(c.expiry_of(b"nope"), None);
    }

    #[test]
    fn peek_has_no_side_effects() {
        let mut c = engine(1 << 16);
        c.put(b"a", vec![1], T0);
        c.put(b"b", vec![2], T0);
        let before = c.stats();
        assert_eq!(c.peek(b"a"), Some(&[1u8][..]));
        assert_eq!(c.peek(b"nope"), None);
        assert_eq!(c.stats(), before);
        // LRU order unchanged: "b" still MRU.
        assert_eq!(c.keys().next().unwrap(), b"b");
    }

    // ---- slab backend ----

    #[test]
    fn slab_roundtrip_digest_and_stats() {
        let mut c = slab_engine(1 << 16);
        assert!(c.get(b"k", T0).is_none());
        c.put(b"k", b"v".to_vec(), T0);
        assert_eq!(c.get(b"k", T0).unwrap(), b"v");
        assert!(c.digest_snapshot().contains(b"k"));
        assert!(c.delete(b"k"));
        assert!(!c.digest_snapshot().contains(b"k"));
        let slab = c.slab_stats().expect("slab backend");
        assert_eq!(slab.classes.iter().map(|cl| cl.items).sum::<u64>(), 0);
        assert!(slab.pages_allocated >= 1, "a page was touched");
    }

    #[test]
    fn slab_get_shared_is_an_owned_copy() {
        let mut c = slab_engine(1 << 16);
        c.put(b"k", b"slabbed".to_vec(), T0);
        let a = c.get_shared(b"k", T0).unwrap();
        let b = c.get_shared(b"k", T0).unwrap();
        assert_ne!(a.as_ptr(), b.as_ptr(), "each hit copies out");
        assert_eq!((&a[..], &b[..]), (&b"slabbed"[..], &b"slabbed"[..]));
        // The copy outlives deletion and the chunk's reuse.
        assert!(c.delete(b"k"));
        c.put(b"x", b"rewrite".to_vec(), T0);
        assert_eq!(&a[..], b"slabbed");
        assert_eq!(c.peek(b"x").unwrap(), b"rewrite");
    }

    #[test]
    fn slab_oversize_item_takes_the_heap_path() {
        // Page size 4096: a 6000-byte value exceeds every size class
        // but fits the byte budget, so it lands on the heap untouched.
        let mut c = slab_engine(1 << 20);
        let outcome = c.put(b"big", vec![9u8; 6000], T0);
        assert!(outcome.stored);
        assert_eq!(c.get(b"big", T0).unwrap(), &vec![9u8; 6000][..]);
        assert_eq!(c.slab_stats().unwrap().heap_fallbacks, 1);
        // Deleting it must not disturb slab accounting.
        assert!(c.delete(b"big"));
        assert_eq!(c.bytes_used(), 0);
    }

    #[test]
    fn slab_eviction_and_rejection_match_heap_semantics() {
        let mut heap = heap_engine(1000);
        let mut slab = slab_engine(1000);
        for c in [&mut heap, &mut slab] {
            for i in 0..200u64 {
                c.put(&i.to_le_bytes(), vec![0; 50], T0);
                assert!(c.bytes_used() <= 1000);
            }
            let outcome = c.put(b"way-too-big", vec![0; 2000], T0);
            assert!(!outcome.stored);
        }
        assert_eq!(heap.len(), slab.len());
        assert_eq!(heap.bytes_used(), slab.bytes_used());
        assert_eq!(heap.stats(), slab.stats());
        let hk: Vec<Vec<u8>> = heap.keys().map(<[u8]>::to_vec).collect();
        let sk: Vec<Vec<u8>> = slab.keys().map(<[u8]>::to_vec).collect();
        assert_eq!(hk, sk, "identical LRU contents and order");
    }

    #[test]
    fn slab_churn_keeps_accounting_consistent() {
        let mut c = slab_engine(64 * 1024);
        // Mixed sizes, several waves of overwrite + delete churn.
        for wave in 0..6u64 {
            for i in 0..500u64 {
                let len = 8 + ((i * 37 + wave * 11) % 600) as usize;
                c.put(&i.to_le_bytes(), vec![wave as u8; len], T0);
            }
            for i in (0..500u64).step_by(3) {
                c.delete(&i.to_le_bytes());
            }
        }
        let slab = c.slab_stats().expect("slab backend");
        let live: u64 = slab.classes.iter().map(|cl| cl.live_bytes).sum();
        assert!(
            slab.page_bytes_total() >= live,
            "pages ({}) must cover live bytes ({live})",
            slab.page_bytes_total()
        );
        // Accounted payload bytes equal slab live bytes (overhead 0,
        // no heap fallbacks for these sizes).
        assert_eq!(slab.heap_fallbacks, 0);
        assert_eq!(c.bytes_used(), live);
    }
}
