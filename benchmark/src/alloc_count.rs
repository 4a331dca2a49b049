//! Counting global allocator that tells the program's threads from
//! the load generator's.
//!
//! Servers, generators and probes share one process, so a plain
//! process-wide counter would charge the generator's own buffers to
//! the server. A thread that calls [`set_generator`] is left out;
//! everything else (server loops, accept threads, scrape
//! endpoints, the controller) lands in the program counters that
//! `server.allocs_per_op` and the `*.allocs_per_*` probes read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static PROGRAM_ALLOCS: AtomicU64 = AtomicU64::new(0);
static PROGRAM_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates or re-enters.
    static IS_GENERATOR: Cell<bool> = const { Cell::new(false) };
}

/// Says whether the calling thread is, from now on, part of the load
/// generator.
pub fn set_generator(on: bool) {
    IS_GENERATOR.with(|g| g.set(on));
}

fn count(bytes: usize) {
    // `try_with` because a thread's last frees can run after its
    // thread-locals are gone; such a thread counts as program.
    if !IS_GENERATOR.try_with(Cell::get).unwrap_or(false) {
        PROGRAM_ALLOCS.fetch_add(1, Ordering::Relaxed);
        PROGRAM_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// The system allocator plus the counters above.
pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates touch no returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Counters at one instant; subtract two to get a measured region.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCounts {
    /// Acquisitions (alloc, alloc_zeroed, realloc) by program threads.
    pub program: u64,
    /// Bytes those acquisitions asked for.
    pub program_bytes: u64,
}

impl AllocCounts {
    pub fn now() -> AllocCounts {
        AllocCounts {
            program: PROGRAM_ALLOCS.load(Ordering::Relaxed),
            program_bytes: PROGRAM_BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            program: self.program - earlier.program,
            program_bytes: self.program_bytes - earlier.program_bytes,
        }
    }
}
