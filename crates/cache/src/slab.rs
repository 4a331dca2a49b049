//! Slab/size-class storage: memcached-style page allocator for items.
//!
//! The heap backend allocates one buffer per value. At 10M+ small
//! resident items that means 10M allocator headers, unpredictable
//! fragmentation, and an allocator-bound eviction path. The slab store
//! instead carves fixed-size **pages** (sized to the engine's capacity
//! by default: 64 KiB for an 8 MiB shard, 1 MiB from 128 MiB up) into
//! chunks of geometric size classes (×1.125 growth) and places each
//! item's `[key][value]` bytes into the smallest chunk that fits. Above
//! the 64-byte floor a chunk rounds its item up by at most ⅛ (plus the
//! rounding of chunk sizes to 8 bytes); pages are the only allocation
//! unit the system allocator ever sees. Finer classes mean more classes
//! with a partly filled last page, which lazy commit (below) makes
//! cheap: the unfilled tail of a page costs only the 4 KiB pieces it
//! wrote.
//!
//! # Ownership model (one `unsafe` call)
//!
//! The store is the sole owner of its pages: a page is a `Box<[u8]>`
//! and nothing outside this module ever holds a reference into one
//! beyond a borrow of the store itself. Reads are the borrowed
//! accessors [`SlabStore::key_slice`] / [`SlabStore::value_slice`]
//! (`&self` → `&[u8]`), writes go through `&mut self`, and the shard
//! mutex around the owning engine serializes the two — so the borrow
//! checker, not a refcount, proves no reader can observe a chunk being
//! rewritten. A caller that needs the bytes past the lock copies them
//! out while it holds it (the server copies straight into the
//! connection's output buffer; DESIGN.md §9). The one exception to
//! safe code is the `kernel` module below: a single `madvise` call on
//! a pooled page the store holds by value (see "Page release").
//!
//! # Lazy commit
//!
//! A page is allocated zeroed (`vec![0; n].into_boxed_slice()`, i.e.
//! `calloc`). A page at or above the allocator's mmap threshold
//! (128 KiB in glibc) is its own anonymous mapping; a smaller one is
//! cut from the top of the allocator's heap, which `calloc` knows to be
//! zero already when it was never handed out before. Either way the
//! kernel has not backed it yet: a 4 KiB piece of it becomes resident
//! only when a chunk inside it is first written. (Memory the allocator
//! recycles is zeroed by hand and comes back resident.) Chunks are
//! handed out in address order from a per-page bump cursor and freed
//! chunks are reused (LIFO) before the cursor advances, so resident
//! memory follows the chunks actually written while
//! [`SlabStats::page_bytes_total`] counts reserved address space.
//!
//! # Page release
//!
//! A page belongs to a class only while it holds a live item: the
//! [`SlabStore::free`] that takes its last item moves it into the
//! store's pool at once, and [`SlabStore::clear`] (`flush_all`) pools
//! every page with its memory released. The pool keeps
//! [`POOL_RESERVE`] pages resident and hands the physical memory of
//! every other one back to the kernel with `madvise(MADV_DONTNEED)` on
//! the whole 4 KiB kernel pages inside it. The `Box` itself is kept, so
//! the address space stays reserved, `pages_allocated` does not move,
//! and the page comes back zero-filled and unbacked, committing again
//! chunk by chunk as in "Lazy commit". Releasing is done on Linux on x86-64 only, where the
//! kernel's base page is always 4 KiB: `madvise` rounds a length up to
//! the kernel's page, so on a kernel with larger pages a 4 KiB-aligned
//! range could reach past the buffer. A page the kernel does not take —
//! on another target, or a page too small to hold a whole 4 KiB page
//! once its unaligned head and tail are cut off — stays resident in the
//! pool and is counted in [`SlabStats::pages_resident`].
//!
//! Dropping the `Box` instead would not return the memory: a 64 KiB
//! block freed in the middle of the allocator's heap stays resident.
//! The reserve exists for the lone key whose page empties and refills
//! on every overwrite (the engine unlinks the old value before it
//! places the new one): the page goes to the reserve and straight back,
//! with no syscall. A flush is never in the middle of such an
//! overwrite, so `clear` keeps no reserve.
//!
//! # Page reassignment
//!
//! An insert that finds no free chunk in its class takes a pooled page
//! (resident ones first) before it asks the allocator for a new one
//! within the page budget; a page that emptied out of another class
//! installed this way is counted in [`SlabStats::pages_reassigned`] —
//! the memcached "slab rebalance" move, done at the moment a class
//! needs a page. With the pool empty and the budget spent
//! [`SlabStore::insert`] reports [`SlabError::Full`] and the engine
//! frees a chunk of the starved class itself (its least-recent item)
//! or takes the heap path; it never evicts items of other classes to
//! empty a page.

/// Smallest chunk size. Items smaller than this still occupy one
/// minimum chunk (48-byte memcached floor rounded to 64).
const MIN_CHUNK: u32 = 64;

/// Size-class growth factor: 1.125, expressed as a ratio.
const GROWTH_NUM: u64 = 9;
const GROWTH_DEN: u64 = 8;

/// Largest page size. A page holds at most `MAX_PAGE_BYTES / MIN_CHUNK`
/// = 2²⁴ chunks, so a chunk index fits the 24 bits the engine's slot
/// keeps for it, and the class table stays under 150 classes.
const MAX_PAGE_BYTES: u32 = 1 << 30;

/// Empty pages the pool keeps resident; every other pooled page has
/// its memory released (see "Page release" in the module docs).
const POOL_RESERVE: usize = 1;

/// Where an item's bytes live: size class, page within the class, and
/// chunk within the page (below 2²⁴, see [`MAX_PAGE_BYTES`]). The
/// item's key/value lengths are stored by the owner (the engine slot),
/// not in the page, so chunks carry no headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkLoc {
    pub(crate) class: u8,
    pub(crate) page: u32,
    pub(crate) chunk: u32,
}

/// Why an insert could not be placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabError {
    /// The item exceeds the largest size class (one whole page); the
    /// caller stores it on the heap instead.
    Oversize,
    /// No free chunk, no pooled page, and the page budget is
    /// exhausted: the caller evicts an item of this item's class and
    /// retries, or falls back to the heap.
    Full,
}

#[derive(Debug)]
struct Page {
    buf: Box<[u8]>,
    /// Bump cursor: chunks `cursor..chunks_per_page` were never handed
    /// out (and their memory never written since the page was made).
    cursor: u32,
    /// Chunks handed out and since freed, reused LIFO before the
    /// cursor advances.
    free: Vec<u32>,
    /// Live items in this page.
    live: u32,
    /// Whether the page is queued in its class's candidate ring.
    queued: bool,
}

impl Page {
    /// Takes a free chunk: the most recently freed one, else the next
    /// never-used one.
    fn take_chunk(&mut self, chunks_per_page: u32) -> Option<u32> {
        self.free.pop().or_else(|| {
            (self.cursor < chunks_per_page).then(|| {
                self.cursor += 1;
                self.cursor - 1
            })
        })
    }

    fn is_full(&self, chunks_per_page: u32) -> bool {
        self.free.is_empty() && self.cursor == chunks_per_page
    }
}

#[derive(Debug)]
struct SizeClass {
    chunk_size: u32,
    chunks_per_page: u32,
    /// Stable page table: `ChunkLoc::page` indexes here, so the entry
    /// of a page that emptied becomes `None` rather than shifting its
    /// neighbours.
    pages: Vec<Option<Page>>,
    /// Indices of `None` entries in `pages`, reusable for new pages.
    vacant: Vec<u32>,
    /// Number of `Some` entries in `pages`.
    page_count: u64,
    /// Pages that may have free chunks; inserts fill the front one. A
    /// fresh page queues at the back, a page that just had a chunk
    /// freed at the front. An entry whose page emptied is stale and is
    /// dropped when it reaches the front; a page is installed only
    /// once the ring is empty, so a reused `vacant` index never has a
    /// stale entry behind it.
    candidates: std::collections::VecDeque<u32>,
    live_items: u64,
    /// Exact key+value bytes of live items (≤ live_items × chunk_size).
    live_bytes: u64,
}

/// Per-class usage snapshot, exported through `stats proteus` and the
/// Prometheus registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlabClassStats {
    /// Chunk size of this class in bytes.
    pub chunk_size: u32,
    /// Pages currently assigned to the class.
    pub pages: u64,
    /// Live items.
    pub items: u64,
    /// Exact key+value bytes of live items.
    pub live_bytes: u64,
    /// Internal waste: `items × chunk_size − live_bytes`.
    pub bytes_wasted: u64,
}

/// Whole-store usage snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlabStats {
    /// Per-class breakdown, ascending chunk size. Classes that never
    /// held an item are omitted.
    pub classes: Vec<SlabClassStats>,
    /// Configured page size in bytes.
    pub page_bytes: u64,
    /// Pages allocated from the system (assigned + pooled). This is
    /// reserved address space, not memory: a pooled page beyond the
    /// reserve holds none, and an assigned one only what its chunks
    /// have written (see [`SlabStats::pages_resident`]).
    pub pages_allocated: u64,
    /// Empty pages waiting in the cross-class pool, resident or not.
    pub pages_pooled: u64,
    /// Pages that may hold memory: assigned pages plus the pool's
    /// resident ones (its reserve, and any page the kernel did not
    /// take).
    pub pages_resident: u64,
    /// Pooled pages whose memory was handed back to the kernel, over
    /// the store's life.
    pub pages_released: u64,
    /// Emptied pages installed in a class other than the one they left.
    /// A page pooled by `SlabStore::clear` left no class, so its
    /// refill counts nothing here.
    pub pages_reassigned: u64,
    /// Items the engine stored on the heap, for either reason: the
    /// item is larger than a page, or its class was starved and had no
    /// item of its own near the LRU tail to evict.
    pub heap_fallbacks: u64,
    /// Sets that found their size class starved — no free chunk, no
    /// page left in the budget, no empty page to reassign — and so
    /// evicted an item of that class or took the heap path. Nonzero
    /// means the pages, not the byte budget, are what is filling;
    /// while it stays 0 every heap fallback is a value over one page.
    pub starved_sets: u64,
}

impl SlabStats {
    /// Total live key+value bytes across classes.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.live_bytes).sum()
    }

    /// Total bytes reserved for pages (allocated × page size): address
    /// space, not memory. Pages commit lazily and pooled pages beyond
    /// the reserve are released, so resident memory can be well below
    /// this (the benchmark's `cache.slab_bytes_per_live_byte` divides
    /// this figure too).
    #[must_use]
    pub fn page_bytes_total(&self) -> u64 {
        self.pages_allocated * self.page_bytes
    }

    /// Fraction of page memory **not** holding live item bytes:
    /// `1 − live_bytes / page_bytes_total`, in `0.0..=1.0`. Counts
    /// both internal (chunk rounding) and external (unfilled pages)
    /// fragmentation. `0.0` when no pages are allocated.
    #[must_use]
    pub fn fragmentation(&self) -> f64 {
        let total = self.page_bytes_total();
        if total == 0 {
            0.0
        } else {
            1.0 - self.live_bytes() as f64 / total as f64
        }
    }

    /// Folds another store's snapshot into this one (the sharded
    /// engine merges its per-shard stores class-by-class).
    pub fn merge(&mut self, other: &SlabStats) {
        self.page_bytes = self.page_bytes.max(other.page_bytes);
        self.pages_allocated += other.pages_allocated;
        self.pages_pooled += other.pages_pooled;
        self.pages_resident += other.pages_resident;
        self.pages_released += other.pages_released;
        self.pages_reassigned += other.pages_reassigned;
        self.heap_fallbacks += other.heap_fallbacks;
        self.starved_sets += other.starved_sets;
        for oc in &other.classes {
            match self
                .classes
                .iter_mut()
                .find(|c| c.chunk_size == oc.chunk_size)
            {
                Some(c) => {
                    c.pages += oc.pages;
                    c.items += oc.items;
                    c.live_bytes += oc.live_bytes;
                    c.bytes_wasted += oc.bytes_wasted;
                }
                None => self.classes.push(*oc),
            }
        }
        self.classes.sort_by_key(|c| c.chunk_size);
    }
}

/// An empty page out of every class.
#[derive(Debug)]
struct PooledPage {
    buf: Box<[u8]>,
    /// The class the page left when its last item was freed; `None`
    /// for a page [`SlabStore::clear`] pooled.
    left: Option<u8>,
}

/// The cross-class pool: resident pages, at most [`POOL_RESERVE`] of
/// them releasable, and pages whose memory went back to the kernel.
#[derive(Debug, Default)]
struct PagePool {
    /// The reserve, plus any page the kernel did not take.
    resident: Vec<PooledPage>,
    released: Vec<PooledPage>,
    /// Successful releases over the store's life.
    releases: u64,
}

impl PagePool {
    /// Pools `page`, releasing its memory once `reserve` pages are
    /// resident.
    fn put(&mut self, mut page: PooledPage, reserve: usize) {
        if self.resident.len() >= reserve && kernel::release(&mut page.buf) {
            self.releases += 1;
            self.released.push(page);
        } else {
            self.resident.push(page);
        }
    }

    /// A resident page if there is one, else a released one.
    fn take(&mut self) -> Option<PooledPage> {
        self.resident.pop().or_else(|| self.released.pop())
    }

    fn len(&self) -> usize {
        self.resident.len() + self.released.len()
    }
}

/// The crate's one `unsafe` call: handing a pooled page's memory back
/// to the kernel while keeping its address space.
#[allow(unsafe_code)]
mod kernel {
    use std::ops::Range;

    /// Whether pages are released at all: only on Linux on x86-64,
    /// whose base page is always 4 KiB. `madvise` acts on whole kernel
    /// pages, rounding a length up, so on a kernel with 16 or 64 KiB
    /// pages a 4 KiB-aligned range would reach past the buffer.
    /// Elsewhere a pooled page simply stays resident.
    const RELEASES: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

    /// The base page size where [`RELEASES`] holds.
    const PAGE: usize = 4096;

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    const MADV_DONTNEED: std::os::raw::c_int = 4;

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    extern "C" {
        fn madvise(
            addr: *mut std::os::raw::c_void,
            len: usize,
            advice: std::os::raw::c_int,
        ) -> std::os::raw::c_int;
    }

    /// The indices of the whole kernel pages inside `buf`, or `None`
    /// when there is none or this target releases nothing.
    pub(super) fn interior(buf: &[u8]) -> Option<Range<usize>> {
        if !RELEASES {
            return None;
        }
        let addr = buf.as_ptr() as usize;
        let head = addr.next_multiple_of(PAGE) - addr;
        let end = buf.len().saturating_sub((addr + buf.len()) % PAGE);
        (head < end).then_some(head..end)
    }

    /// Releases the physical memory of the whole kernel pages inside
    /// `buf`, which read as zeros afterwards and commit again as they
    /// are written. Returns whether the kernel took them.
    pub(super) fn release(buf: &mut [u8]) -> bool {
        let Some(range) = interior(buf) else {
            return false;
        };
        let pages = &mut buf[range];
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            // SAFETY: `pages` lies inside a live allocation that the
            // caller borrows uniquely, so no other reference can observe
            // the call. It starts and ends on 4 KiB boundaries, which
            // are kernel page boundaries on x86-64, so the kernel acts
            // on exactly this range and on nothing past either end. On
            // private anonymous memory — a page's `Box`, whether its own
            // mapping or cut from the allocator's heap — `MADV_DONTNEED`
            // only replaces the range's contents with zeros, which is
            // equivalent to writing zeros through `pages`. The
            // allocator's bookkeeping for the block sits before its
            // first byte or after its last, outside the range.
            unsafe { madvise(pages.as_mut_ptr().cast(), pages.len(), MADV_DONTNEED) == 0 }
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            let _ = pages;
            false
        }
    }
}

/// The slab store. One per engine shard; all access is serialized by
/// the shard (the engine is `&mut self` throughout).
#[derive(Debug)]
pub struct SlabStore {
    page_bytes: u32,
    classes: Vec<SizeClass>,
    pool: PagePool,
    pages_allocated: u64,
    max_pages: u64,
    pages_reassigned: u64,
    heap_fallbacks: u64,
    starved_sets: u64,
}

/// The size-class chunk table for a page size: MIN_CHUNK growing by
/// ×1.125 (rounded up to 8) until one chunk fills the page.
fn class_table(page_bytes: u32) -> Vec<u32> {
    let mut sizes = Vec::new();
    let mut size = MIN_CHUNK.min(page_bytes);
    loop {
        sizes.push(size);
        if size >= page_bytes {
            break;
        }
        let next = ((u64::from(size) * GROWTH_NUM / GROWTH_DEN + 7) & !7) as u32;
        size = next.min(page_bytes);
    }
    sizes
}

/// The page size a store asked for `page_bytes` uses: 1 KiB ..= 1 GiB.
fn clamp_page_bytes(page_bytes: u32) -> u32 {
    page_bytes.clamp(1024, MAX_PAGE_BYTES)
}

/// The number of size classes of a store asked for `page_bytes`.
pub(crate) fn class_count(page_bytes: u32) -> u64 {
    class_table(clamp_page_bytes(page_bytes)).len() as u64
}

impl SlabStore {
    /// A store with the given page size and a budget of `max_pages`
    /// pages. `page_bytes` is clamped to 1 KiB ..= 1 GiB.
    #[must_use]
    pub fn new(page_bytes: u32, max_pages: u64) -> SlabStore {
        let page_bytes = clamp_page_bytes(page_bytes);
        let classes: Vec<SizeClass> = class_table(page_bytes)
            .into_iter()
            .map(|chunk_size| SizeClass {
                chunk_size,
                chunks_per_page: page_bytes / chunk_size,
                pages: Vec::new(),
                vacant: Vec::new(),
                page_count: 0,
                candidates: std::collections::VecDeque::new(),
                live_items: 0,
                live_bytes: 0,
            })
            .collect();
        // The engine tags its location words with the two class bytes
        // above every real class.
        assert!(classes.len() < 0xFE, "{} size classes", classes.len());
        SlabStore {
            page_bytes,
            classes,
            pool: PagePool::default(),
            pages_allocated: 0,
            max_pages: max_pages.max(1),
            pages_reassigned: 0,
            heap_fallbacks: 0,
            starved_sets: 0,
        }
    }

    /// The size class an item of `len` bytes lands in, or `None` if it
    /// exceeds the largest class (→ heap path).
    #[must_use]
    pub fn class_of(&self, len: usize) -> Option<u8> {
        if len > self.page_bytes as usize {
            return None;
        }
        // Chunk sizes ascend to `page_bytes`, so the first class that
        // fits exists.
        let len = len as u32;
        Some(self.classes.partition_point(|c| c.chunk_size < len) as u8)
    }

    /// Chunk size of class `class`.
    #[cfg(test)]
    pub fn chunk_size(&self, class: u8) -> u32 {
        self.classes[class as usize].chunk_size
    }

    /// Records that the engine stored an item on the heap because the
    /// slab could not place it.
    pub fn note_heap_fallback(&mut self) {
        self.heap_fallbacks += 1;
    }

    /// Places `[key][value]` into the smallest chunk that fits.
    ///
    /// # Errors
    ///
    /// [`SlabError::Oversize`] if the item exceeds the largest class;
    /// [`SlabError::Full`] if no chunk can be produced right now (the
    /// caller evicts and retries, or falls back to the heap).
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<ChunkLoc, SlabError> {
        let len = key.len() + value.len();
        let class = self.class_of(len).ok_or(SlabError::Oversize)?;
        loop {
            // 1. The front candidate page of the class with a free chunk.
            let c = &mut self.classes[class as usize];
            while let Some(&pid) = c.candidates.front() {
                if let Some(page) = c.pages[pid as usize].as_mut() {
                    if let Some(chunk) = page.take_chunk(c.chunks_per_page) {
                        let off = (chunk * c.chunk_size) as usize;
                        page.buf[off..off + key.len()].copy_from_slice(key);
                        page.buf[off + key.len()..off + len].copy_from_slice(value);
                        page.live += 1;
                        if page.is_full(c.chunks_per_page) {
                            page.queued = false;
                            c.candidates.pop_front();
                        }
                        c.live_items += 1;
                        c.live_bytes += len as u64;
                        return Ok(ChunkLoc {
                            class,
                            page: pid,
                            chunk,
                        });
                    }
                    page.queued = false;
                }
                // Stale candidate: pooled or fully occupied.
                c.candidates.pop_front();
            }
            // 2. A fresh page — from the pool, or from the allocator
            //    within budget — becomes the only candidate; go round
            //    again.
            let Some(page) = self.take_page() else {
                self.starved_sets += 1;
                return Err(SlabError::Full);
            };
            self.install_page(class, page);
        }
    }

    /// Pops a pooled page, or allocates one within budget.
    fn take_page(&mut self) -> Option<PooledPage> {
        if let Some(page) = self.pool.take() {
            return Some(page);
        }
        if self.pages_allocated < self.max_pages {
            self.pages_allocated += 1;
            // Zeroed straight from the allocator, never copied: see
            // "Lazy commit" in the module docs.
            return Some(PooledPage {
                buf: vec![0u8; self.page_bytes as usize].into_boxed_slice(),
                left: None,
            });
        }
        None
    }

    /// Installs `page` as a new, empty candidate page of `class`.
    fn install_page(&mut self, class: u8, page: PooledPage) {
        if page.left.is_some_and(|left| left != class) {
            self.pages_reassigned += 1;
        }
        let c = &mut self.classes[class as usize];
        let page = Some(Page {
            buf: page.buf,
            cursor: 0,
            free: Vec::new(),
            live: 0,
            queued: true,
        });
        c.page_count += 1;
        let pid = match c.vacant.pop() {
            Some(pid) => {
                c.pages[pid as usize] = page;
                pid
            }
            None => {
                c.pages.push(page);
                u32::try_from(c.pages.len() - 1).expect("page table overflow")
            }
        };
        c.candidates.push_back(pid);
    }

    /// Releases the chunk at `loc` (item of `len = klen + vlen` bytes).
    /// The bytes are left in place until the chunk is handed out again.
    /// Freeing a page's last item moves the page into the pool.
    pub fn free(&mut self, loc: ChunkLoc, len: usize) {
        let c = &mut self.classes[loc.class as usize];
        let entry = &mut c.pages[loc.page as usize];
        let page = entry.as_mut().expect("freeing a chunk of a pooled page");
        page.live -= 1;
        c.live_items -= 1;
        c.live_bytes -= len as u64;
        if page.live == 0 {
            // Its candidate entry, if any, goes stale (see `candidates`).
            let page = entry.take().expect("checked Some");
            c.vacant.push(loc.page);
            c.page_count -= 1;
            self.pool.put(
                PooledPage {
                    buf: page.buf,
                    left: Some(loc.class),
                },
                POOL_RESERVE,
            );
            return;
        }
        page.free.push(loc.chunk);
        if !page.queued {
            // At the front: the next insert of the class — the second
            // half of an overwrite, usually — lands in the chunk just
            // freed, which is still in cache and already resident,
            // rather than in the untouched tail of a newer page.
            page.queued = true;
            c.candidates.push_front(loc.page);
        }
    }

    /// The stored key bytes at `loc`.
    #[must_use]
    pub fn key_slice(&self, loc: ChunkLoc, klen: usize) -> &[u8] {
        let (buf, off) = self.chunk(loc);
        &buf[off..off + klen]
    }

    /// The stored value bytes at `loc`.
    #[must_use]
    pub fn value_slice(&self, loc: ChunkLoc, klen: usize, vlen: usize) -> &[u8] {
        let (buf, off) = self.chunk(loc);
        &buf[off + klen..off + klen + vlen]
    }

    fn chunk(&self, loc: ChunkLoc) -> (&[u8], usize) {
        let c = &self.classes[loc.class as usize];
        let page = c.pages[loc.page as usize].as_ref().expect("live chunk");
        (&page.buf[..], (loc.chunk * c.chunk_size) as usize)
    }

    /// Forgets every item and moves every page into the pool
    /// (`flush_all` / server power-off), releasing the memory of every
    /// pooled page, the reserve's included: the reserve is there for a
    /// lone key's overwrite, and a flush is never in the middle of one.
    /// The refill takes the pages back before asking the allocator for
    /// more, and `pages_allocated` keeps counting them. A chunk is
    /// always written before it is read, so a pooled page is not zeroed.
    pub fn clear(&mut self) {
        for page in std::mem::take(&mut self.pool.resident) {
            self.pool.put(page, 0);
        }
        for c in &mut self.classes {
            for page in c.pages.drain(..).flatten() {
                let page = PooledPage {
                    buf: page.buf,
                    left: None,
                };
                self.pool.put(page, 0);
            }
            c.vacant.clear();
            c.page_count = 0;
            c.candidates.clear();
            c.live_items = 0;
            c.live_bytes = 0;
        }
    }

    /// Usage snapshot (see [`SlabStats`]).
    #[must_use]
    pub fn stats(&self) -> SlabStats {
        let classes = self
            .classes
            .iter()
            .filter(|c| c.page_count > 0 || c.live_items > 0)
            .map(|c| SlabClassStats {
                chunk_size: c.chunk_size,
                pages: c.page_count,
                items: c.live_items,
                live_bytes: c.live_bytes,
                bytes_wasted: c.live_items * u64::from(c.chunk_size) - c.live_bytes,
            })
            .collect();
        let assigned: u64 = self.classes.iter().map(|c| c.page_count).sum();
        SlabStats {
            classes,
            page_bytes: u64::from(self.page_bytes),
            pages_allocated: self.pages_allocated,
            pages_pooled: self.pool.len() as u64,
            pages_resident: assigned + self.pool.resident.len() as u64,
            pages_released: self.pool.releases,
            pages_reassigned: self.pages_reassigned,
            heap_fallbacks: self.heap_fallbacks,
            starved_sets: self.starved_sets,
        }
    }

    /// Internal-consistency audit for tests: chunk conservation per
    /// page, no empty page in any class, counter agreement per class,
    /// page conservation, the pool's reserve (at most
    /// [`POOL_RESERVE`] pooled pages that could be released are kept
    /// resident, which assumes the process does not lock its memory),
    /// and the page-budget bound. Panics on drift.
    pub fn assert_consistent(&self) {
        let mut assigned = 0u64;
        for (ci, c) in self.classes.iter().enumerate() {
            let mut live_items = 0u64;
            let mut pages = 0u64;
            for page in c.pages.iter().flatten() {
                pages += 1;
                let cursor_remaining = c.chunks_per_page - page.cursor;
                assert_eq!(
                    cursor_remaining + page.free.len() as u32 + page.live,
                    c.chunks_per_page,
                    "class {ci}: chunk leak (unused {cursor_remaining} + free {} + live {} != {})",
                    page.free.len(),
                    page.live,
                    c.chunks_per_page
                );
                assert!(
                    page.live > 0,
                    "class {ci}: an empty page stayed in its class"
                );
                live_items += u64::from(page.live);
            }
            assert_eq!(pages, c.page_count, "class {ci}: page-count drift");
            assigned += pages;
            assert_eq!(live_items, c.live_items, "class {ci}: live-item drift");
            assert!(
                c.live_bytes <= c.live_items * u64::from(c.chunk_size),
                "class {ci}: live bytes exceed chunk capacity"
            );
        }
        assert_eq!(
            assigned + self.pool.len() as u64,
            self.pages_allocated,
            "page conservation: assigned + pooled != allocated"
        );
        let releasable = self
            .pool
            .resident
            .iter()
            .filter(|p| kernel::interior(&p.buf).is_some())
            .count();
        assert!(
            releasable <= POOL_RESERVE,
            "{releasable} releasable pooled pages kept resident, reserve {POOL_RESERVE}"
        );
        assert!(
            self.pages_allocated <= self.max_pages,
            "page budget exceeded: {} > {}",
            self.pages_allocated,
            self.max_pages
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_grows_geometrically_to_one_page() {
        let sizes = class_table(1 << 20);
        assert_eq!(sizes[0], 64);
        assert_eq!(*sizes.last().unwrap(), 1 << 20);
        for w in sizes.windows(2) {
            assert!(w[1] > w[0]);
            // Growth never exceeds ×1.125 by more than rounding-to-8.
            assert!(u64::from(w[1]) <= u64::from(w[0]) * 9 / 8 + 8);
        }
        // 81 classes for 1 MiB pages, 139 at the largest page: u8
        // class ids leave the engine its two tag bytes.
        assert_eq!(sizes.len(), 81);
        assert_eq!(class_table(MAX_PAGE_BYTES).len(), 139);
    }

    #[test]
    fn insert_free_reuse_roundtrip() {
        let mut s = SlabStore::new(4096, 8);
        let a = s.insert(b"k1", b"hello").unwrap();
        let b = s.insert(b"k2", b"world").unwrap();
        assert_eq!(a.class, b.class);
        assert_eq!(s.key_slice(a, 2), b"k1");
        assert_eq!(s.value_slice(a, 2, 5), b"hello");
        assert_eq!(s.value_slice(b, 2, 5), b"world");
        s.free(a, 7);
        // The freed chunk is reused.
        let c = s.insert(b"k3", b"again");
        assert_eq!(s.value_slice(c.unwrap(), 2, 5), b"again");
        s.assert_consistent();
    }

    #[test]
    fn freed_chunks_are_reused_before_untouched_ones() {
        // 64 chunks of 64 bytes per page; three items take chunks 0..3
        // off the bump cursor.
        let mut s = SlabStore::new(4096, 8);
        let locs: Vec<ChunkLoc> = (0..3u8)
            .map(|i| s.insert(&[i], b"value").unwrap())
            .collect();
        assert_eq!(locs.iter().map(|l| l.chunk).collect::<Vec<_>>(), [0, 1, 2]);
        s.free(locs[0], 6);
        s.free(locs[1], 6);
        // LIFO: the most recently freed (already written) chunk first,
        // then the other freed one, and only then fresh memory.
        let chunks: Vec<u32> = (3..6u8)
            .map(|i| s.insert(&[i], b"other").unwrap().chunk)
            .collect();
        assert_eq!(chunks, [1, 0, 3]);
        // The survivor was never disturbed by its neighbours' reuse.
        assert_eq!(s.key_slice(locs[2], 1), [2]);
        assert_eq!(s.value_slice(locs[2], 1, 5), b"value");
        s.assert_consistent();
    }

    #[test]
    fn oversize_items_are_refused_to_the_heap_path() {
        let mut s = SlabStore::new(1024, 4);
        assert_eq!(s.insert(b"k", &vec![0u8; 2048]), Err(SlabError::Oversize));
        assert!(s.class_of(4096).is_none());
        assert!(s.class_of(1024).is_some());
    }

    #[test]
    fn page_budget_is_enforced_and_eviction_unblocks() {
        // 1 KiB pages, budget 2: class 64 holds 16 chunks/page.
        let mut s = SlabStore::new(1024, 2);
        let locs: Vec<ChunkLoc> = (0..32)
            .map(|i| s.insert(&[i as u8], &[0u8; 40]).unwrap())
            .collect();
        assert_eq!(s.insert(b"x", &[0u8; 40]), Err(SlabError::Full));
        assert_eq!(s.stats().starved_sets, 1);
        s.free(locs[0], 41);
        let again = s.insert(b"x", &[0u8; 40]).unwrap();
        assert_eq!((again.page, again.chunk), (locs[0].page, locs[0].chunk));
        s.assert_consistent();
    }

    #[test]
    fn empty_pages_move_between_starved_and_rich_classes() {
        // Budget 2 pages. Fill a small class across both pages, then
        // free one page's worth; a large-class insert must take the
        // emptied page from the pool rather than fail.
        let mut s = SlabStore::new(1024, 2);
        let locs: Vec<ChunkLoc> = (0..32)
            .map(|i| s.insert(&[i as u8], &[0u8; 40]).unwrap())
            .collect();
        let first_page = locs[0].page;
        for &loc in locs.iter().filter(|l| l.page == first_page) {
            s.free(loc, 41);
        }
        let big = s.insert(b"big", &vec![0u8; 700]).unwrap();
        assert!(s.chunk_size(big.class) >= 703);
        assert_eq!(s.stats().pages_reassigned, 1);
        assert_eq!(s.value_slice(big, 3, 700), &vec![0u8; 700][..]);
        s.assert_consistent();
    }

    #[test]
    fn an_emptied_page_leaves_its_class_and_a_refilled_one_stays() {
        // Budget 2 pages, both filled by the small class. Page 0 is
        // emptied, so it leaves the class for the pool at once, and one
        // item takes it straight back; page 1 is emptied afterwards. A
        // large-class insert gets page 1 from the pool — never the page
        // that holds a live item again.
        let mut s = SlabStore::new(1024, 2);
        let locs: Vec<ChunkLoc> = (0..32)
            .map(|i| s.insert(&[i as u8], &[0u8; 40]).unwrap())
            .collect();
        let (first, second): (Vec<ChunkLoc>, Vec<ChunkLoc>) =
            locs.iter().partition(|l| l.page == locs[0].page);
        for &loc in &first {
            s.free(loc, 41);
        }
        assert_eq!(s.stats().classes[0].pages, 1, "the empty page left");
        assert_eq!(s.stats().pages_pooled, 1);
        s.assert_consistent();
        let back = s.insert(b"r", &[7u8; 40]).unwrap();
        assert_eq!(back.page, locs[0].page, "the vacant index is reused");
        assert_eq!(s.stats().pages_reassigned, 0, "same class");
        for &loc in &second {
            s.free(loc, 41);
        }
        let big = s.insert(b"big", &vec![9u8; 700]).unwrap();
        assert_eq!(s.stats().pages_reassigned, 1);
        assert_eq!(s.value_slice(big, 3, 700), &vec![9u8; 700][..]);
        assert_eq!(s.value_slice(back, 1, 40), &[7u8; 40][..]);
        s.assert_consistent();
    }

    #[test]
    fn cycling_a_key_alone_in_its_page_releases_nothing() {
        // The page empties and refills on every cycle; the reserve
        // keeps it resident, so no cycle costs a syscall.
        let mut s = SlabStore::new(4096, 8);
        for _ in 0..100_000 {
            let loc = s.insert(b"k", b"value").unwrap();
            s.free(loc, 6);
        }
        let stats = s.stats();
        assert_eq!(stats.pages_allocated, 1);
        assert_eq!(
            (
                stats.pages_pooled,
                stats.pages_resident,
                stats.pages_released
            ),
            (1, 1, 0)
        );
        s.assert_consistent();
    }

    #[test]
    fn a_release_covers_only_whole_kernel_pages_inside_the_page() {
        // Every offset into a buffer, so both ends are cut at every
        // alignment: the range starts and ends on a 4 KiB boundary and
        // stays inside the slice.
        let buf = vec![0u8; 80 << 10];
        let base = buf.as_ptr() as usize;
        let mut released = 0;
        for head in (0..8192).step_by(8) {
            let page = &buf[head..head + (64 << 10)];
            let Some(range) = kernel::interior(page) else {
                continue;
            };
            released += 1;
            let (start, end) = (base + head + range.start, base + head + range.end);
            assert!(range.end <= page.len());
            assert_eq!((start % 4096, end % 4096), (0, 0), "head {head}");
            assert!(range.len() >= page.len() - 8192);
        }
        let supported = cfg!(all(target_os = "linux", target_arch = "x86_64"));
        assert_eq!(released, if supported { 1024 } else { 0 });
        // A slice that holds no whole kernel page has no range.
        let small = &buf[(4096 - base % 4096) + 8..][..4096];
        assert_eq!(kernel::interior(small), None);
    }

    #[test]
    fn pooled_pages_beyond_the_reserve_are_released_and_reused() {
        // Four 64 KiB pages of 64-byte chunks, emptied one after
        // another: the first stays resident, the other three are
        // released, and a refill takes the resident one first.
        let mut s = SlabStore::new(64 << 10, 4);
        let locs: Vec<ChunkLoc> = (0..4096u32)
            .map(|i| s.insert(&i.to_le_bytes(), b"value").unwrap())
            .collect();
        assert_eq!(s.stats().pages_allocated, 4);
        for &loc in &locs {
            s.free(loc, 9);
        }
        let emptied = s.stats();
        assert!(emptied.classes.is_empty());
        let released = if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            3
        } else {
            0
        };
        assert_eq!(
            (
                emptied.pages_pooled,
                emptied.pages_resident,
                emptied.pages_released
            ),
            (4, 4 - released, released)
        );
        s.assert_consistent();
        let first = s.insert(b"again", b"value").unwrap();
        assert_eq!(s.value_slice(first, 5, 5), b"value");
        let refilled = s.stats();
        assert_eq!(
            (refilled.pages_pooled, refilled.pages_resident),
            (3, 4 - released)
        );
        s.assert_consistent();
    }

    #[test]
    fn class_lookup_and_page_counts_agree_with_the_table() {
        let mut s = SlabStore::new(4096, 3);
        // Every length lands in the first class that fits it.
        for len in 0..=4096usize {
            let class = s.class_of(len).unwrap();
            assert!(s.chunk_size(class) as usize >= len);
            assert!(class == 0 || (s.chunk_size(class - 1) as usize) < len);
        }
        // The per-class counter follows install, reassignment and clear.
        let small: Vec<ChunkLoc> = (0..65u8)
            .map(|i| s.insert(&[i], &[0u8; 40]).unwrap())
            .collect();
        s.insert(b"big", &[0u8; 3000]).unwrap();
        let pages =
            |s: &SlabStore| -> Vec<u64> { s.stats().classes.iter().map(|c| c.pages).collect() };
        assert_eq!(pages(&s), [2, 1]);
        s.free(small[64], 41);
        s.insert(b"mid", &[0u8; 1000]).unwrap();
        assert_eq!(pages(&s), [1, 1, 1], "the emptied page moved class");
        s.assert_consistent();
        s.clear();
        assert!(s.stats().classes.is_empty());
        s.assert_consistent();
    }

    #[test]
    fn stats_track_waste_and_fragmentation() {
        let mut s = SlabStore::new(4096, 4);
        for i in 0..10u8 {
            s.insert(&[i], &[7u8; 30]).unwrap(); // 31 bytes in 64-byte chunks
        }
        let stats = s.stats();
        let class = &stats.classes[0];
        assert_eq!(class.chunk_size, 64);
        assert_eq!(class.items, 10);
        assert_eq!(class.live_bytes, 310);
        assert_eq!(class.bytes_wasted, 10 * 64 - 310);
        assert!(stats.fragmentation() > 0.0 && stats.fragmentation() < 1.0);
        assert_eq!(stats.page_bytes_total(), 4096);
        s.clear();
        // The items are gone; the page stays allocated, in the pool.
        let cleared = s.stats();
        assert!(cleared.classes.is_empty());
        assert_eq!((cleared.pages_allocated, cleared.pages_pooled), (1, 1));
        assert_eq!(cleared.fragmentation(), 1.0);
        s.assert_consistent();
    }

    #[test]
    fn a_cleared_store_refills_from_its_own_pages() {
        // Budget 4 pages, two classes: 64-byte chunks (16 a page) and
        // 1 KiB chunks (one a page). Four pages are in use, then all
        // pooled; the refill swaps the classes' shares around and still
        // never asks for a fifth page nor counts a reassignment.
        let mut s = SlabStore::new(1024, 4);
        let small: Vec<ChunkLoc> = (0..48u8)
            .map(|i| s.insert(&[i], &[1u8; 40]).unwrap())
            .collect();
        s.insert(b"big", &[2u8; 1000]).unwrap();
        assert_eq!(s.stats().pages_allocated, 4);
        assert_eq!(small.last().unwrap().page, 2);
        s.clear();
        let pooled = s.stats();
        assert_eq!((pooled.pages_allocated, pooled.pages_pooled), (4, 4));
        s.assert_consistent();

        let big: Vec<ChunkLoc> = (0..3u8)
            .map(|i| s.insert(&[i], &[3u8; 1000]).unwrap())
            .collect();
        let again = s.insert(b"s", &[4u8; 40]).unwrap();
        assert_eq!(s.insert(b"x", &[5u8; 1000]), Err(SlabError::Full));
        let refilled = s.stats();
        assert_eq!(
            (refilled.pages_allocated, refilled.pages_pooled),
            (4, 0),
            "the pool, not the allocator, gave the refill its pages"
        );
        assert_eq!(refilled.pages_reassigned, 0);
        // Old bytes under a reused chunk are overwritten, never read.
        for (i, &loc) in big.iter().enumerate() {
            assert_eq!(s.key_slice(loc, 1), [i as u8]);
            assert_eq!(s.value_slice(loc, 1, 1000), &[3u8; 1000][..]);
        }
        assert_eq!(s.value_slice(again, 1, 40), &[4u8; 40][..]);
        s.assert_consistent();
    }
}
