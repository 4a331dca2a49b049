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
//! - An **accept thread** runs the server's accept loop and
//!   round-robins new sockets across loops via a mutex-protected
//!   mailbox, waking the target loop through an [`EventFd`] doorbell.
//! - Each **event loop** owns one epoll instance and the connections
//!   routed to it; a connection never migrates, so all per-connection
//!   state is single-threaded and lock-free.
//! - Each **connection** is a non-blocking socket plus a [`ConnCore`],
//!   the one connection state machine both planes drive. On
//!   readiness the loop reads what the socket holds into the core,
//!   lets it serve every complete command and flush the replies, and
//!   re-arms EPOLLOUT while a partial write is pending.
//!
//! One core, two drivers: framing, parsing, serving, backpressure and
//! the buffers are the core's, so this module holds only how a
//! connection waits for bytes — epoll interest and the doorbell.
//!
//! [`EngineKind::Threaded`]: crate::EngineKind::Threaded

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use proteus_obs::{Counter, Gauge};

use crate::conn::{ConnCore, OUT_HIGH_WATER};
use crate::error::NetError;
use crate::poll::{Epoll, EventFd, Events, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::server::{accept_loop, Shared};

/// Token reserved for the loop's eventfd doorbell; connection tokens
/// count up from zero and never collide with it.
const WAKE_TOKEN: u64 = u64::MAX;

/// How long a loop sleeps in `epoll_wait` with nothing ready. Bounds
/// shutdown latency the same way the threaded plane's idle read
/// timeout does (the doorbell usually wakes loops sooner).
const WAIT_TIMEOUT: Duration = Duration::from_millis(100);

/// Reactor telemetry: per-loop connection gauges plus accept,
/// read-`EAGAIN`, and wait/event batch counters, surfaced through the
/// server's registry (`stats proteus` and the metrics endpoint).
/// `events / waits` is the mean readiness batch one `epoll_wait`
/// syscall delivers.
#[derive(Debug, Default)]
pub(crate) struct ReactorStats {
    /// Connections currently owned by each loop, in loop order.
    pub(crate) per_loop_connections: Vec<Gauge>,
    /// Sockets accepted and routed to a loop.
    pub(crate) accepted: Counter,
    /// Socket reads that returned `EAGAIN`. A short read is the usual
    /// "drained" signal, so this counts only reads that found nothing
    /// (a full buffer's worth arrived exactly, or a spurious wake-up).
    pub(crate) read_eagain: Counter,
    /// Doorbell wake-ups delivered to event loops.
    pub(crate) wakeups: Counter,
    /// `epoll_wait` syscalls issued (the submit side of a batch).
    pub(crate) waits: Counter,
    /// Readiness events delivered across all waits (the complete side
    /// of a batch).
    pub(crate) events: Counter,
}

impl ReactorStats {
    /// Fresh counters for a reactor with `loops` event loops.
    pub(crate) fn new(loops: usize) -> Self {
        ReactorStats {
            per_loop_connections: (0..loops).map(|_| Gauge::new()).collect(),
            ..ReactorStats::default()
        }
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
                accept_loop(listener, &accept_shared, |stream| {
                    let mailbox = &mailboxes[next % mailboxes.len()];
                    next = next.wrapping_add(1);
                    stats.accepted.inc();
                    mailbox.queue.lock().push(stream);
                    mailbox.wake.notify();
                    accept_shared.metrics.plane_syscalls.inc(); // eventfd write
                });
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

/// One connection on the epoll plane: its non-blocking socket, the
/// shared state machine, and the epoll interest bits registered for it.
struct Conn {
    stream: TcpStream,
    core: ConnCore,
    /// The epoll interest bits currently registered.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            core: ConnCore::new(),
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
        for (_, conn) in std::mem::take(&mut self.conns) {
            self.close(conn);
        }
    }

    /// Drops a finished connection (closing its socket, which takes it
    /// out of epoll) and settles the gauges it was counted in.
    fn close(&self, mut conn: Conn) {
        conn.core.release(&self.shared);
        drop(conn);
        self.shared.metrics.curr_connections.dec();
        self.stats.per_loop_connections[self.index].dec();
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
            Ok(false) | Err(()) => self.close(conn),
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
            conn.core.flush_to(&mut conn.stream, &self.shared)?;
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            self.fill_in(conn)?;
        }
        conn.core.serve(&mut conn.stream, &self.shared)
    }

    /// Reads until the socket is drained, EOF, or the output high-water
    /// mark says to stop pulling in more work, parsing what each read
    /// brought before the next. A read that did not fill the room it
    /// was offered means the socket had no more to give: stopping there
    /// saves the `read` that would return `EAGAIN`, and level-triggered
    /// epoll reports any bytes that arrive later.
    fn fill_in(&mut self, conn: &mut Conn) -> Result<(), ()> {
        while conn.core.out_pending() <= OUT_HIGH_WATER && !conn.core.closing {
            match conn.core.read_from(&mut conn.stream, &self.shared) {
                Ok(false) => break,
                Ok(true) => conn.core.process(&self.shared),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.stats.read_eagain.inc();
                    break;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        Ok(())
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
            let _ = self.epoll.modify(conn.stream.as_raw_fd(), token, want);
            conn.interest = want;
        }
    }
}
