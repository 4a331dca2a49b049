//! A counting global allocator for allocations-per-operation
//! accounting.
//!
//! The zero-copy work (shared value buffers, borrow-based parsing)
//! claims "no allocations on the warmed hot path" — a claim throughput
//! numbers alone cannot verify, because an allocator can be fast right
//! up until it fragments or contends. This module lets a binary or
//! test *count*: register the allocator once and measure deltas around
//! a workload.
//!
//! ```ignore
//! use proteus_bench::alloc_track::{measure, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! let (value, delta) = measure(|| cache.get(b"warm-key"));
//! assert_eq!(delta.allocations, 0);
//! ```
//!
//! Counting costs three relaxed atomic adds and a thread-local add per
//! allocation, which is negligible next to the allocation itself. A
//! deallocation is not an acquisition (the hot-path claim is about
//! acquiring memory, and frees of shared buffers happen on whichever
//! thread drops the last reference); it only lowers [`live_bytes`], the
//! bytes held right now.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's acquisitions (see [`thread_allocations`]). A
    /// `const` cell with nothing to drop: reading it never allocates
    /// and works until the thread is gone.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one acquisition, process-wide and for the calling thread.
fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator plus three relaxed counters and a per-thread
/// count. Register with `#[global_allocator]` in the binary that wants
/// accounting; code linked into a binary that does *not* register it
/// simply reads counters frozen at zero (see [`is_counting`]).
pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter updates have no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is a fresh acquisition of `new_size` bytes as far as
        // hot-path accounting is concerned.
        count(new_size);
        // The block now holds `new_size` bytes instead of `layout.size()`
        // (a wrapping add of the difference, which may be negative).
        LIVE.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation counters at one instant (or a delta between two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Heap acquisitions (alloc, alloc_zeroed, realloc).
    pub allocations: u64,
    /// Bytes requested across those acquisitions.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter movement since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocations: self.allocations - earlier.allocations,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The current counter values.
#[must_use]
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Bytes the process holds right now: every acquisition's size minus
/// every release's, a realloc counted by its change in size. Unlike
/// [`AllocSnapshot::bytes`] it falls when memory is given back, so two
/// readings bracket what a piece of code *kept*.
#[must_use]
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Heap acquisitions the calling thread has made so far. Two readings
/// bracket what one thread allocated while other threads of the process
/// (a server in the same process, the test harness) go on allocating.
#[must_use]
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns its result together with the allocations it
/// (and any concurrent threads — measure single-threaded for exact
/// numbers) performed.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocSnapshot) {
    let before = snapshot();
    let value = f();
    (value, snapshot().since(before))
}

/// Whether the counting allocator is actually registered in this
/// binary. Guards against silently-green gates: a test that forgets
/// `#[global_allocator]` would otherwise see zero allocations
/// everywhere and pass vacuously.
#[must_use]
pub fn is_counting() -> bool {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(Box::new(0u8));
    ALLOCATIONS.load(Ordering::Relaxed) != before
}
