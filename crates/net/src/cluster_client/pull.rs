//! Pull-ahead migration: while a window is open, a background thread
//! moves the keys whose owner changes from their old server to their
//! new one, hottest first, instead of leaving every one of them to the
//! request that happens to touch it — or to the database, once the
//! window has closed and the old server is gone.
//!
//! This is not part of Algorithm 2. The window, the digests, the fetch
//! classes and the database never see the puller; it talks to the
//! servers through connections of its own and everything it does is
//! best effort. DESIGN.md, "Pull-ahead migration", has the reasons.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use proteus_cache::SharedBytes;
use proteus_core::Router;
use proteus_obs::{EventTracer, TraceKind};

use super::{AtomicClusterStats, ClusterClient};
use crate::client::{CacheClient, ClientConfig};
use crate::protocol::{mru_keys_key, MRU_KEYS_PAGE, PULL_BATCH};

/// Where a window's pull stands (see [`PullProgress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullState {
    /// Still walking the old servers.
    Running,
    /// Every old server whose keys move was listed to its last key.
    /// What a batch could not store because its new server was
    /// unreachable is in [`ClusterStats::dropped_installs`], not here.
    ///
    /// [`ClusterStats::dropped_installs`]: super::ClusterStats::dropped_installs
    Done,
    /// Stopped short: an old server stopped answering, or the window
    /// closed first.
    GaveUp,
}

/// How far the pull of one transition window got: the evidence a
/// control loop can close a window on. Read with
/// [`ClusterClient::pull_progress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PullProgress {
    /// Active-server count under the window's old mapping.
    pub from: usize,
    /// Active-server count under its new mapping.
    pub to: usize,
    /// Keys the old servers listed, whether they move or not.
    pub listed: u64,
    /// Keys stored at their new server. A key already there — migrated
    /// on demand, or written, before the pull reached it — is not
    /// counted: the new server keeps what it has.
    pub moved: u64,
    /// Keys deleted from an old server that stays active (a grow), so
    /// the move leaves no twin behind.
    pub deleted: u64,
    /// Whether the pull is running, finished or gave up.
    pub state: PullState,
}

const RUNNING: u8 = 0;
const DONE: u8 = 1;
const GAVE_UP: u8 = 2;

/// What one window's puller shares with whoever polls it.
#[derive(Debug)]
struct PullWindow {
    from: usize,
    to: usize,
    /// Set by `end_transition`; the puller looks between batches.
    /// `Relaxed`: the flag publishes nothing, and the join that follows
    /// it is what synchronises.
    cancel: AtomicBool,
    listed: AtomicU64,
    moved: AtomicU64,
    deleted: AtomicU64,
    /// Stored with `Release` after the last counter update and loaded
    /// with `Acquire` before the counters are read, so a poller that
    /// sees the pull finished also sees everything it counted.
    state: AtomicU8,
}

impl PullWindow {
    fn finish(&self, complete: bool) {
        let state = if complete { DONE } else { GAVE_UP };
        self.state.store(state, Ordering::Release);
    }
}

/// The client's side of the pull: connections that are the puller's
/// alone, and the thread of the open window with its record (kept after
/// the window closes, until the next one opens).
pub(super) struct Puller {
    clients: Arc<[CacheClient]>,
    window: Option<Arc<PullWindow>>,
    thread: Option<JoinHandle<()>>,
}

impl Puller {
    /// One disconnected client a server: nothing is dialled until the
    /// first window's puller needs it, so connecting a cluster client
    /// costs what it did; the connections then live as long as the
    /// client. Separate from the foreground clients so that a source
    /// failing under the pull trips a breaker no request depends on.
    pub(super) fn new(addrs: &[SocketAddr], config: ClientConfig) -> Puller {
        Puller {
            clients: addrs
                .iter()
                .map(|&addr| CacheClient::disconnected(addr, config))
                .collect(),
            window: None,
            thread: None,
        }
    }

    /// The puller's own clients, one a server in provisioning order.
    pub(super) fn clients(&self) -> &Arc<[CacheClient]> {
        &self.clients
    }

    /// Starts the pull of a window that just opened. If no thread can
    /// be had the window simply migrates on demand alone.
    pub(super) fn start(
        &mut self,
        router: &Arc<Router>,
        stats: &Arc<AtomicClusterStats>,
        tracer: &Arc<EventTracer>,
        from: usize,
        to: usize,
    ) {
        debug_assert!(self.thread.is_none(), "one window, one puller");
        let window = Arc::new(PullWindow {
            from,
            to,
            cancel: AtomicBool::new(false),
            listed: AtomicU64::new(0),
            moved: AtomicU64::new(0),
            deleted: AtomicU64::new(0),
            state: AtomicU8::new(RUNNING),
        });
        let worker = Worker {
            clients: Arc::clone(&self.clients),
            router: Arc::clone(router),
            stats: Arc::clone(stats),
            tracer: Arc::clone(tracer),
            window: Arc::clone(&window),
        };
        self.thread = std::thread::Builder::new()
            .name("proteus-pull".into())
            .spawn(move || worker.run())
            .ok();
        if self.thread.is_none() {
            stats.pulls_incomplete.fetch_add(1, Ordering::Relaxed);
            window.finish(false);
        }
        self.window = Some(window);
    }

    /// Cancels the open window's pull and waits for it: at most the
    /// batch in flight. A no-op without one.
    pub(super) fn stop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        let window = self.window.as_ref().expect("a thread has a window");
        window.cancel.store(true, Ordering::Relaxed);
        if thread.join().is_err() {
            // The puller panicked before it could say how it ended.
            window.finish(false);
        }
    }

    fn progress(&self) -> Option<PullProgress> {
        let window = self.window.as_ref()?;
        let state = match window.state.load(Ordering::Acquire) {
            RUNNING => PullState::Running,
            DONE => PullState::Done,
            _ => PullState::GaveUp,
        };
        Some(PullProgress {
            from: window.from,
            to: window.to,
            listed: window.listed.load(Ordering::Relaxed),
            moved: window.moved.load(Ordering::Relaxed),
            deleted: window.deleted.load(Ordering::Relaxed),
            state,
        })
    }
}

impl Drop for Puller {
    fn drop(&mut self) {
        self.stop();
    }
}

impl ClusterClient {
    /// How far the background pull of the open window has got — or,
    /// with no window open, how far the last one
    /// [`begin_transition`](Self::begin_transition) opened got before
    /// it closed. `None` until the first such window.
    /// ([`open_window`](Self::open_window) starts no pull and leaves
    /// this alone.)
    #[must_use]
    pub fn pull_progress(&self) -> Option<PullProgress> {
        self.puller.progress()
    }
}

/// One shard of one source, and how far down its listing the walk is.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    source: usize,
    shard: usize,
    skip: usize,
    /// The shard's first page: what finds out whether the shard exists.
    first: bool,
}

/// What asking a source for one page came to.
enum Page {
    /// The source has no such shard.
    NoShard,
    /// The shard's last page.
    Last,
    /// More follow, the next one from this `skip`.
    Next(usize),
}

/// Why a walk stops short.
enum Stop {
    /// The source failed a request; nothing more is asked of it.
    SourceLost,
    /// The window closed.
    Cancelled,
}

/// Everything the puller thread owns.
struct Worker {
    clients: Arc<[CacheClient]>,
    router: Arc<Router>,
    stats: Arc<AtomicClusterStats>,
    tracer: Arc<EventTracer>,
    window: Arc<PullWindow>,
}

impl Worker {
    fn run(&self) {
        let complete = self.walk();
        if !complete {
            self.stats.pulls_incomplete.fetch_add(1, Ordering::Relaxed);
        }
        self.window.finish(complete);
    }

    /// Walks every source page by page; whether it reached the last key
    /// of all of them.
    ///
    /// Sources are the servers that hold keys whose owner changes: the
    /// departing ones on a shrink, every old one on a grow. The order
    /// is by depth — page 0 of every shard of every source, then page 1
    /// of each, … — so a window that closes early has moved the hottest
    /// keys of every shard, not all of one server and none of the next.
    /// A shard's first page, when it is there, queues the next shard's
    /// ahead of everything deeper: the shard count is learnt by asking.
    fn walk(&self) -> bool {
        let PullWindow { from, to, .. } = *self.window;
        let sources = if to < from { to..from } else { 0..from };
        let mut queue: VecDeque<Cursor> = sources
            .map(|source| Cursor {
                source,
                shard: 0,
                skip: 0,
                first: true,
            })
            .collect();
        let mut complete = true;
        while let Some(cursor) = queue.pop_front() {
            match self.page(cursor) {
                Ok(Page::NoShard) => {}
                Ok(page) => {
                    if cursor.first {
                        queue.push_front(Cursor {
                            shard: cursor.shard + 1,
                            ..cursor
                        });
                    }
                    if let Page::Next(skip) = page {
                        queue.push_back(Cursor {
                            skip,
                            first: false,
                            ..cursor
                        });
                    }
                }
                Err(Stop::SourceLost) => {
                    complete = false;
                    queue.retain(|c| c.source != cursor.source);
                }
                Err(Stop::Cancelled) => return false,
            }
        }
        complete
    }

    fn cancelled(&self) -> Result<(), Stop> {
        if self.window.cancel.load(Ordering::Relaxed) {
            Err(Stop::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Lists one page and moves the keys of it that change owner.
    fn page(&self, cursor: Cursor) -> Result<Page, Stop> {
        self.cancelled()?;
        let PullWindow { from, to, .. } = *self.window;
        let listing = self.clients[cursor.source]
            .get(&mru_keys_key(cursor.shard, cursor.skip))
            .map_err(|_| Stop::SourceLost)?;
        let Some(listing) = listing else {
            return Ok(Page::NoShard);
        };
        // A resident key that this server does not own under the old
        // mapping is a leftover of some earlier window, possibly stale:
        // it stays where it is.
        let mut by_dest: Vec<Vec<&[u8]>> = vec![Vec::new(); self.clients.len()];
        let strategy = self.router.strategy();
        let mut listed = 0;
        for key in listing.split(|&b| b == b'\n').filter(|key| !key.is_empty()) {
            listed += 1;
            let hash = self.router.key_hash(key);
            let dest = strategy.server_for(hash, to).index();
            if dest != cursor.source && strategy.server_for(hash, from).index() == cursor.source {
                by_dest[dest].push(key);
            }
        }
        self.window
            .listed
            .fetch_add(listed as u64, Ordering::Relaxed);
        // The walk's own effect on the listing it is reading: the `get`s
        // below reorder only keys this page has already passed, but
        // every key the source no longer holds afterwards pulled the
        // unread tail one place up.
        let mut gone = 0;
        for (dest, moving) in by_dest.iter().enumerate() {
            for batch in moving.chunks(PULL_BATCH) {
                self.cancelled()?;
                gone += self.move_batch(cursor.source, dest, batch)?;
            }
        }
        Ok(if listed < MRU_KEYS_PAGE {
            Page::Last
        } else {
            Page::Next(cursor.skip + listed - gone)
        })
    }

    /// Moves one batch from `source` to `dest`: multi-key `get`,
    /// pipelined `add` — never `set`: a value a foreground `put` wrote
    /// meanwhile must win — and, when the source stays active, a
    /// pipelined `delete`. Returns how many of `keys` the source no
    /// longer holds.
    fn move_batch(&self, source: usize, dest: usize, keys: &[&[u8]]) -> Result<usize, Stop> {
        let values = self.clients[source]
            .get_many(keys)
            .map_err(|_| Stop::SourceLost)?;
        let held: Vec<(&[u8], SharedBytes)> = keys
            .iter()
            .zip(values)
            .filter_map(|(&key, value)| Some((key, value?)))
            .collect();
        let missing = keys.len() - held.len();
        if held.is_empty() {
            return Ok(missing);
        }
        let Ok(stored) = self.clients[dest].add_many(&held) else {
            // An unreachable destination costs the batch, as it costs
            // any other install; the source keeps its copies.
            self.stats
                .dropped_installs
                .fetch_add(held.len() as u64, Ordering::Relaxed);
            return Ok(missing);
        };
        self.window.moved.fetch_add(stored, Ordering::Relaxed);
        self.stats.pulled_keys.fetch_add(stored, Ordering::Relaxed);
        self.stats.pull_batches.fetch_add(1, Ordering::Relaxed);
        self.tracer.record(TraceKind::KeysPulled {
            from: source as u32,
            to: dest as u32,
            keys: stored as u32,
        });
        if source >= self.window.to {
            // A departing source is about to lose everything anyway.
            return Ok(missing);
        }
        // A copy left on a server that stays active would be found
        // again — stale by then — when a later shrink maps the key
        // back. The new server holds the key now, whether this batch
        // stored it or not.
        let moved: Vec<&[u8]> = held.iter().map(|(key, _)| *key).collect();
        let deleted = self.clients[source]
            .delete_many(&moved)
            .map_err(|_| Stop::SourceLost)?;
        self.window.deleted.fetch_add(deleted, Ordering::Relaxed);
        Ok(keys.len())
    }
}
