//! The epoll reactor data plane (Linux only).
//!
//! Thread-per-connection (the [`EngineKind::Threaded`] plane) burns
//! one OS thread per attached web-tier client; the paper's testbed
//! already has every front-end holding a persistent connection to
//! every cache server, so fan-in grows with cluster size and the
//! thread count becomes the scalability ceiling long before the
//! zero-copy engine saturates. This module replaces that plane with a
//! small, fixed set of event-loop threads:
//!
//! - An **accept thread** owns the listener and round-robins new
//!   sockets across loops via a mutex-protected mailbox, waking the
//!   target loop through an [`EventFd`] doorbell.
//! - Each **event loop** owns one epoll instance and the connections
//!   routed to it; a connection never migrates, so all per-connection
//!   state is single-threaded and lock-free.
//! - Each **connection** is a [`ConnCore`] state machine: *reading*
//!   bytes into a growable input buffer, *executing* every complete
//!   command it holds (through the same `serve_command` the threaded
//!   plane uses), and *writing* the queued responses, resuming partial
//!   writes when the socket backs up.
//!
//! The hot path is the threaded plane's: commands are parsed in place
//! by [`parse_raw_command`](crate::protocol::parse_raw_command)
//! (borrowed keys and data blocks, one long-lived `WireBuf` per
//! connection) and responses are assembled by `ResponseWriter` into a
//! reused output buffer, so a warmed connection serves gets and sets
//! without allocating.
//!
//! [`EngineKind::Threaded`]: crate::EngineKind::Threaded

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use proteus_obs::{Counter, Gauge};

use crate::conn::ConnCore;
use crate::error::NetError;
use crate::poll::{Epoll, EventFd, Events, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::server::{accept_retry_delay, Shared, OUT_HIGH_WATER};

/// Token reserved for the loop's eventfd doorbell; connection tokens
/// count up from zero and never collide with it.
const WAKE_TOKEN: u64 = u64::MAX;

/// How long a loop sleeps in `epoll_wait` with nothing ready. Bounds
/// shutdown latency the same way the threaded plane's idle read
/// timeout does (the doorbell usually wakes loops sooner).
const WAIT_TIMEOUT: Duration = Duration::from_millis(100);

/// Socket read granularity: the size of each loop's scratch buffer,
/// which is what every `read` call is offered.
const READ_CHUNK: usize = 64 << 10;

/// Reactor telemetry: per-loop connection gauges plus accept,
/// read-`EAGAIN`, and wait/event batch counters, surfaced through the
/// server's registry (`stats proteus` and the metrics endpoint).
/// `events / waits` is the mean readiness batch one `epoll_wait`
/// syscall delivers.
#[derive(Debug)]
pub(crate) struct ReactorStats {
    per_loop_connections: Vec<Gauge>,
    accepted: Counter,
    read_eagain: Counter,
    wakeups: Counter,
    waits: Counter,
    events: Counter,
}

impl ReactorStats {
    /// Fresh counters for a reactor with `loops` event loops.
    pub(crate) fn new(loops: usize) -> Self {
        ReactorStats {
            per_loop_connections: (0..loops).map(|_| Gauge::new()).collect(),
            accepted: Counter::new(),
            read_eagain: Counter::new(),
            wakeups: Counter::new(),
            waits: Counter::new(),
            events: Counter::new(),
        }
    }

    /// Connections currently owned by each loop, in loop order.
    pub(crate) fn loop_connections(&self) -> Vec<i64> {
        self.per_loop_connections.iter().map(Gauge::get).collect()
    }

    /// Sockets accepted and routed to a loop.
    pub(crate) fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// Socket reads that returned `EAGAIN`. A short read is the usual
    /// "drained" signal, so this counts only reads that found nothing
    /// (a full buffer's worth arrived exactly, or a spurious wake-up).
    pub(crate) fn read_eagain(&self) -> u64 {
        self.read_eagain.get()
    }

    /// Doorbell wake-ups delivered to event loops.
    pub(crate) fn wakeups(&self) -> u64 {
        self.wakeups.get()
    }

    /// `epoll_wait` syscalls issued (the submit side of a batch).
    pub(crate) fn waits(&self) -> u64 {
        self.waits.get()
    }

    /// Readiness events delivered across all waits (the complete side
    /// of a batch).
    pub(crate) fn events(&self) -> u64 {
        self.events.get()
    }
}

/// A cross-thread handoff slot: the accept thread pushes sockets, the
/// owning loop drains them when its doorbell rings.
struct Mailbox {
    queue: Mutex<Vec<TcpStream>>,
    wake: EventFd,
}

impl Mailbox {
    fn new() -> Result<Mailbox, NetError> {
        Ok(Mailbox {
            queue: Mutex::new(Vec::new()),
            wake: EventFd::new()?,
        })
    }
}

/// The running reactor: the accept thread plus its event loops.
/// Dropping it after [`stop`](Reactor::stop) is a no-op; the server
/// owns shutdown ordering.
pub(crate) struct Reactor {
    accept_thread: Option<JoinHandle<()>>,
    loops: Vec<LoopHandle>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("loops", &self.loops.len())
            .finish_non_exhaustive()
    }
}

struct LoopHandle {
    thread: Option<JoinHandle<()>>,
    mailbox: Arc<Mailbox>,
}

impl Reactor {
    /// Starts `loops` event-loop threads and the accept thread.
    ///
    /// # Errors
    ///
    /// Returns an error if an epoll instance, eventfd, or thread
    /// cannot be created. The loops started before the failure are
    /// stopped and joined first: they hold `shared`, and no server
    /// exists whose drop would stop them.
    pub(crate) fn spawn(
        listener: TcpListener,
        shared: Arc<Shared>,
        loops: usize,
    ) -> Result<Reactor, NetError> {
        let mut reactor = Reactor {
            accept_thread: None,
            loops: Vec::with_capacity(loops.max(1)),
        };
        match reactor.start(listener, &shared, loops.max(1)) {
            Ok(()) => Ok(reactor),
            Err(e) => {
                shared.shutdown.store(true, Ordering::SeqCst);
                reactor.stop();
                Err(e)
            }
        }
    }

    fn start(
        &mut self,
        listener: TcpListener,
        shared: &Arc<Shared>,
        loops: usize,
    ) -> Result<(), NetError> {
        let stats = shared
            .reactor_stats
            .clone()
            .expect("reactor spawned with reactor stats");
        for index in 0..loops {
            let mailbox = Arc::new(Mailbox::new()?);
            let epoll = Epoll::new()?;
            epoll.add(mailbox.wake.fd(), WAKE_TOKEN, EPOLLIN)?;
            let mut worker = Worker {
                epoll,
                mailbox: Arc::clone(&mailbox),
                shared: Arc::clone(shared),
                stats: Arc::clone(&stats),
                index,
                conns: HashMap::new(),
                next_token: 0,
                scratch: vec![0; READ_CHUNK].into_boxed_slice(),
            };
            let thread = std::thread::Builder::new()
                .name(format!("proteus-loop-{index}"))
                .spawn(move || worker.run())?;
            self.loops.push(LoopHandle {
                thread: Some(thread),
                mailbox,
            });
        }
        let mailboxes: Vec<Arc<Mailbox>> =
            self.loops.iter().map(|h| Arc::clone(&h.mailbox)).collect();
        let accept_shared = Arc::clone(shared);
        let accept_thread = std::thread::Builder::new()
            .name("proteus-accept".into())
            .spawn(move || {
                let mut next = 0usize;
                for stream in listener.incoming() {
                    // One blocking `accept` syscall per iteration.
                    accept_shared.metrics.plane_syscalls.inc();
                    if accept_shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            let mailbox = &mailboxes[next % mailboxes.len()];
                            next = next.wrapping_add(1);
                            stats.accepted.inc();
                            mailbox.queue.lock().push(stream);
                            mailbox.wake.notify();
                            accept_shared.metrics.plane_syscalls.inc(); // eventfd write
                        }
                        // Same policy as the threaded plane: no accept
                        // error kills the listener; exhaustion backs
                        // off, aborts retry immediately.
                        Err(e) => {
                            if let Some(delay) = accept_retry_delay(&e) {
                                std::thread::sleep(delay);
                            }
                        }
                    }
                }
            })?;
        self.accept_thread = Some(accept_thread);
        Ok(())
    }

    /// Joins the accept thread and every event loop. The caller
    /// (`CacheServer::stop`) has already set the shutdown flag and
    /// poked the listener with a dummy connection; this rings every
    /// loop's doorbell so none waits out its epoll timeout.
    pub(crate) fn stop(&mut self) {
        for handle in &self.loops {
            handle.mailbox.wake.notify();
        }
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        for handle in &mut self.loops {
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// One connection on the epoll plane: the shared state machine plus
/// the epoll interest bits currently registered for it.
struct Conn {
    core: ConnCore,
    /// The epoll interest bits currently registered.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            core: ConnCore::new(stream),
            interest: EPOLLIN | EPOLLRDHUP,
        }
    }
}

/// One event loop: an epoll instance plus the connections routed to
/// it. Runs on its own thread until the server's shutdown flag rises.
struct Worker {
    epoll: Epoll,
    mailbox: Arc<Mailbox>,
    shared: Arc<Shared>,
    stats: Arc<ReactorStats>,
    index: usize,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Where every `read` of this loop lands before the bytes that
    /// arrived are appended to their connection's input buffer: a
    /// connection holds what it was sent, not a chunk of spare space,
    /// and nothing is zero-filled per read.
    scratch: Box<[u8]>,
}

impl Worker {
    fn run(&mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            self.stats.waits.inc();
            self.shared.metrics.plane_syscalls.inc();
            let Ok(n) = self.epoll.wait(&mut events, Some(WAIT_TIMEOUT)) else {
                break;
            };
            self.stats.events.add(n as u64);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // A stale token for a connection closed earlier in the
            // batch just misses the map.
            for (token, bits) in events.iter() {
                if token == WAKE_TOKEN {
                    self.stats.wakeups.inc();
                    self.mailbox.wake.drain();
                    self.shared.metrics.plane_syscalls.inc(); // eventfd read
                    self.adopt_new();
                } else {
                    self.drive(token, bits);
                }
            }
        }
        // Shutdown: drop every connection (closing the sockets) and
        // settle the gauges, mirroring the threaded plane's quiesce.
        for (_, conn) in self.conns.drain() {
            drop(conn);
            self.shared.metrics.curr_connections.dec();
            self.stats.per_loop_connections[self.index].dec();
        }
    }

    /// Registers every socket waiting in the mailbox.
    fn adopt_new(&mut self) {
        let streams: Vec<TcpStream> = std::mem::take(&mut *self.mailbox.queue.lock());
        for stream in streams {
            if stream.set_nonblocking(true).is_err() {
                continue; // peer already gone
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .epoll
                .add(stream.as_raw_fd(), token, EPOLLIN | EPOLLRDHUP)
                .is_err()
            {
                continue;
            }
            self.shared.metrics.plane_syscalls.add(3); // nonblocking + nodelay + epoll_ctl
            self.conns.insert(token, Conn::new(stream));
            self.shared.metrics.total_connections.inc();
            self.shared.metrics.curr_connections.inc();
            self.stats.per_loop_connections[self.index].inc();
        }
    }

    /// Advances one connection's state machine for one readiness
    /// event, closing it when it finishes or fails.
    fn drive(&mut self, token: u64, bits: u32) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        match self.drive_conn(&mut conn, bits) {
            Ok(true) => {
                self.update_interest(token, &mut conn);
                self.conns.insert(token, conn);
            }
            Ok(false) | Err(()) => {
                // Socket closes on drop (deregistering it from epoll).
                drop(conn);
                self.shared.metrics.curr_connections.dec();
                self.stats.per_loop_connections[self.index].dec();
            }
        }
    }

    /// Runs the read → execute → write cycle. `Ok(true)` keeps the
    /// connection, `Ok(false)` is a graceful close (EOF or `closing`
    /// with everything flushed), `Err` is a fatal socket error.
    fn drive_conn(&mut self, conn: &mut Conn, bits: u32) -> Result<bool, ()> {
        if bits & EPOLLERR != 0 {
            return Err(());
        }
        if bits & EPOLLOUT != 0 {
            flush_out(&mut conn.core, &self.shared)?;
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            fill_in(&mut conn.core, &mut self.scratch, &self.stats, &self.shared)?;
        }
        loop {
            conn.core.process(&self.shared);
            let stopped_over_mark = conn.core.out_pending() > OUT_HIGH_WATER;
            flush_out(&mut conn.core, &self.shared)?;
            // Backpressure may have stopped the parse with whole
            // commands still buffered. If the socket then took enough
            // to get back under the mark, serve on: no readiness event
            // will ever announce input that has already been read.
            if !stopped_over_mark || conn.core.out_pending() > OUT_HIGH_WATER {
                break;
            }
        }
        if conn.core.closing && conn.core.out_pending() == 0 {
            return Ok(false);
        }
        Ok(true)
    }

    /// Re-arms epoll for what the connection now cares about: always
    /// readable while open and under the output high-water mark,
    /// writable only while responses are queued (level-triggered
    /// EPOLLOUT would spin otherwise).
    fn update_interest(&self, token: u64, conn: &mut Conn) {
        let pending = conn.core.out_pending();
        let mut want = 0;
        if pending > 0 {
            want |= EPOLLOUT;
        }
        if !conn.core.closing && pending <= OUT_HIGH_WATER {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if want != conn.interest {
            self.shared.metrics.plane_syscalls.inc();
            let _ = self.epoll.modify(conn.core.stream.as_raw_fd(), token, want);
            conn.interest = want;
        }
    }
}

/// Reads until the socket is drained, EOF, or the output high-water
/// mark says to stop pulling in more work. A read shorter than the
/// scratch buffer means the socket had no more to give: stopping there
/// saves the `read` that would return `EAGAIN`, and level-triggered
/// epoll reports any bytes that arrive later.
fn fill_in(
    conn: &mut ConnCore,
    scratch: &mut [u8],
    stats: &ReactorStats,
    shared: &Shared,
) -> Result<(), ()> {
    loop {
        if conn.out_pending() > OUT_HIGH_WATER {
            return Ok(());
        }
        shared.metrics.plane_syscalls.inc();
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.eof = true;
                return Ok(());
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&scratch[..n]);
                if n < scratch.len() {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                stats.read_eagain.inc();
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
}

/// Drains queued response bytes to the socket, resuming where the
/// last partial write stopped; backs off on `EAGAIN` (EPOLLOUT will
/// re-arm) and reports hard errors.
fn flush_out(conn: &mut ConnCore, shared: &Shared) -> Result<(), ()> {
    let ConnCore { stream, writer, .. } = conn;
    let out = writer.get_mut();
    while out.pos < out.buf.len() {
        shared.metrics.plane_syscalls.inc();
        match stream.write(&out.buf[out.pos..]) {
            Ok(0) => return Err(()),
            Ok(n) => out.pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    if out.pos == out.buf.len() && out.pos > 0 {
        out.buf.clear();
        out.pos = 0;
    }
    Ok(())
}
