//! The io_uring data plane (Linux only).
//!
//! The epoll reactor ([`reactor`](crate::reactor)) multiplexes
//! hundreds of connections onto a few threads, but still pays one
//! syscall per ready connection per batch: `epoll_wait`, then a `read`
//! for every readable socket and a `write` for every queued response.
//! This plane folds all of that into io_uring submission batches — one
//! `io_uring_enter` per loop iteration submits every queued receive,
//! send, and accept and waits for completions, so the syscall count
//! per operation falls as load (and therefore batch size) rises.
//!
//! Structure:
//!
//! - **Loop 0 owns the listener** with one multishot-accept SQE: a
//!   single submission keeps producing one CQE per accepted socket.
//!   Accepted sockets round-robin across loops; handoff to a sibling
//!   reuses the epoll plane's [`Mailbox`] + eventfd doorbell (watched
//!   here via `IORING_OP_POLL_ADD` instead of epoll).
//! - **Receives use a registered provided-buffer ring** per loop
//!   ([`BufRing`]): parked connections keep one small SQE in flight
//!   instead of pinning a 64 KiB read buffer each; the kernel picks a
//!   buffer only when bytes actually arrive, and the loop copies them
//!   into the connection's [`ConnCore`] input buffer and recycles the
//!   id in the same batch.
//! - **Sends are double-buffered**: response bytes accumulate in the
//!   shared [`ConnCore`] output buffer while at most one send SQE is
//!   in flight against a dedicated in-flight buffer that is never
//!   touched until its CQE is reaped (the memory-safety contract of
//!   [`Sqe::send`]). Partial sends resume from the recorded offset.
//!
//! Command parsing, execution, backpressure (the shared 1 MiB
//! high-water mark), and close semantics all live in [`ConnCore`], so
//! this plane is byte-identical to the threaded and epoll planes by
//! construction — `tests/reactor_equivalence.rs` proves it.

use std::collections::HashMap;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use proteus_obs::{Counter, Gauge};

use crate::conn::ConnCore;
use crate::error::NetError;
use crate::reactor::Mailbox;
use crate::server::{accept_retry_delay_os, Shared, OUT_HIGH_WATER};
use crate::uring::{
    tcp_from_accept, BufRing, Cqe, Ring, Sqe, ENOBUFS, IORING_CQE_BUFFER_SHIFT,
    IORING_CQE_F_BUFFER, IORING_CQE_F_MORE,
};

/// Submission-queue depth per loop. 256 slots batch far more than one
/// wait's worth of re-arms; overflow falls back to an extra submit.
const SQ_ENTRIES: u32 = 256;

/// Completion-queue depth per loop (`IORING_SETUP_CQSIZE`). Sized so a
/// full batch of multishot accepts plus one recv and one send per
/// connection cannot overflow in practice; `IORING_FEAT_NODROP` queues
/// the remainder if it ever does.
const CQ_ENTRIES: u32 = 4096;

/// Provided buffers per loop and their size. 32 × 64 KiB = 2 MiB per
/// loop caps receive memory regardless of connection count — the point
/// of buffer selection; momentary exhaustion surfaces as `-ENOBUFS`
/// and the receive re-arms once buffers recycle.
const BUF_COUNT: u16 = 32;
const BUF_LEN: usize = 64 << 10;
/// Buffer group id (arbitrary; one group per loop-local ring).
const BGID: u16 = 1;

/// How long one `io_uring_enter` waits with nothing completing; bounds
/// shutdown latency exactly like the epoll plane's `WAIT_TIMEOUT`.
const WAIT_TIMEOUT: Duration = Duration::from_millis(100);

/// How long shutdown waits for in-flight send CQEs before leaking the
/// (kernel-visible) buffers instead of freeing them under the kernel.
const QUIESCE_DEADLINE: Duration = Duration::from_millis(500);

// user_data encoding: kind in the top byte, connection token below.
const UD_KIND_SHIFT: u32 = 56;
const UD_ACCEPT: u64 = 1 << UD_KIND_SHIFT;
const UD_WAKE: u64 = 2 << UD_KIND_SHIFT;
const UD_RECV: u64 = 3 << UD_KIND_SHIFT;
const UD_SEND: u64 = 4 << UD_KIND_SHIFT;
const UD_TOKEN_MASK: u64 = (1 << UD_KIND_SHIFT) - 1;

/// io_uring plane telemetry, surfaced through the server registry
/// (`stats proteus` and Prometheus). `sqes / enters` and
/// `cqes / enters` are the mean submission and completion batch sizes
/// one syscall carries — the direct counterpart of the epoll plane's
/// `events / waits`.
#[derive(Debug)]
pub(crate) struct UringStats {
    per_loop_connections: Vec<Gauge>,
    accepted: Counter,
    enters: Counter,
    sqes: Counter,
    cqes: Counter,
    wakeups: Counter,
    buf_starved: Counter,
}

impl UringStats {
    /// Fresh counters for a plane with `loops` event loops.
    pub(crate) fn new(loops: usize) -> Self {
        UringStats {
            per_loop_connections: (0..loops).map(|_| Gauge::new()).collect(),
            accepted: Counter::new(),
            enters: Counter::new(),
            sqes: Counter::new(),
            cqes: Counter::new(),
            wakeups: Counter::new(),
            buf_starved: Counter::new(),
        }
    }

    /// Connections currently owned by each loop, in loop order.
    pub(crate) fn loop_connections(&self) -> Vec<i64> {
        self.per_loop_connections.iter().map(Gauge::get).collect()
    }

    /// Sockets delivered by multishot accept.
    pub(crate) fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// `io_uring_enter` syscalls issued.
    pub(crate) fn enters(&self) -> u64 {
        self.enters.get()
    }

    /// SQEs submitted across all enters.
    pub(crate) fn sqes(&self) -> u64 {
        self.sqes.get()
    }

    /// CQEs reaped across all enters.
    pub(crate) fn cqes(&self) -> u64 {
        self.cqes.get()
    }

    /// Doorbell wake-ups delivered (sibling handed this loop sockets).
    pub(crate) fn wakeups(&self) -> u64 {
        self.wakeups.get()
    }

    /// Receives that momentarily found the provided-buffer ring empty
    /// (`-ENOBUFS`) and re-armed after the batch recycled buffers.
    pub(crate) fn buf_starved(&self) -> u64 {
        self.buf_starved.get()
    }
}

/// The running io_uring plane: its event-loop threads. Unlike the
/// epoll plane there is no accept thread — loop 0 owns the listener.
pub(crate) struct UringReactor {
    loops: Vec<LoopHandle>,
}

impl std::fmt::Debug for UringReactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UringReactor")
            .field("loops", &self.loops.len())
            .finish_non_exhaustive()
    }
}

struct LoopHandle {
    thread: Option<JoinHandle<()>>,
    mailbox: Arc<Mailbox>,
}

impl UringReactor {
    /// Starts `loops` event-loop threads; loop 0 adopts the listener
    /// and runs multishot accept.
    ///
    /// # Errors
    ///
    /// Returns an error if a ring, buffer ring, eventfd, or thread
    /// cannot be created. The caller ([`CacheServer::spawn_with`]) has
    /// already probed [`crate::uring::supported`], so errors here are
    /// resource exhaustion, not missing kernel support.
    ///
    /// [`CacheServer::spawn_with`]: crate::CacheServer::spawn_with
    pub(crate) fn spawn(
        listener: TcpListener,
        shared: Arc<Shared>,
        loops: usize,
    ) -> Result<UringReactor, NetError> {
        let stats = shared
            .uring_stats
            .clone()
            .expect("uring plane spawned with uring stats");
        let loops = loops.max(1);
        let mailboxes: Vec<Arc<Mailbox>> = (0..loops)
            .map(|_| Mailbox::new().map(Arc::new))
            .collect::<Result<_, _>>()?;
        let mut handles = Vec::with_capacity(loops);
        let mut listener = Some(listener);
        for index in 0..loops {
            let ring = Ring::new(SQ_ENTRIES, CQ_ENTRIES).map_err(NetError::from)?;
            let bufs = BufRing::new(&ring, BGID, BUF_COUNT, BUF_LEN).map_err(NetError::from)?;
            let mut worker = Worker {
                // Declaration order drops `bufs` (unregister) before
                // `ring` (fd close) — see struct field docs.
                bufs,
                ring,
                listener: if index == 0 { listener.take() } else { None },
                mailboxes: mailboxes.clone(),
                shared: Arc::clone(&shared),
                stats: Arc::clone(&stats),
                index,
                conns: HashMap::new(),
                next_token: 0,
                next_route: 0,
                accept_armed: false,
                accept_rearm_at: None,
                wake_armed: false,
                backlog: Vec::new(),
                dirty: Vec::new(),
            };
            let thread = std::thread::Builder::new()
                .name(format!("proteus-uring-{index}"))
                .spawn(move || worker.run())?;
            handles.push(LoopHandle {
                thread: Some(thread),
                mailbox: Arc::clone(&mailboxes[index]),
            });
        }
        Ok(UringReactor { loops: handles })
    }

    /// Rings every loop's doorbell (producing a poll CQE that breaks
    /// the `io_uring_enter` wait) and joins the threads. The caller
    /// has already set the shutdown flag.
    pub(crate) fn stop(&mut self) {
        for handle in &self.loops {
            handle.mailbox.wake.notify();
        }
        for handle in &mut self.loops {
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// One connection on the io_uring plane: the shared state machine plus
/// this plane's in-flight op bookkeeping.
struct UConn {
    core: ConnCore,
    /// A buffer-select recv SQE is outstanding for this socket.
    recv_armed: bool,
    /// A send SQE referencing `inflight[send_pos..]` is outstanding —
    /// while true, `inflight` must not be touched (grown, freed, or
    /// reallocated): the kernel may read it at any moment.
    send_inflight: bool,
    /// Bytes being sent; swapped wholesale with the [`ConnCore`]
    /// output buffer (ping-pong, so both allocations are reused).
    inflight: Vec<u8>,
    /// Resume offset into `inflight` after a partial send.
    send_pos: usize,
    /// Close decided (error or graceful); the connection only lingers
    /// until its in-flight send completes.
    dying: bool,
}

impl UConn {
    fn new(stream: TcpStream) -> UConn {
        UConn {
            core: ConnCore::new(stream),
            recv_armed: false,
            send_inflight: false,
            inflight: Vec::new(),
            send_pos: 0,
            dying: false,
        }
    }

    /// Response bytes this plane holds outside the [`ConnCore`] output
    /// buffer — counted against the shared high-water mark.
    fn inflight_pending(&self) -> usize {
        self.inflight.len() - self.send_pos
    }
}

/// One event loop: an io_uring instance, its provided-buffer ring, and
/// the connections routed to it.
struct Worker {
    /// Dropped before `ring` (declaration order) so unregistration
    /// still has a live ring fd.
    bufs: BufRing,
    ring: Ring,
    /// Loop 0 only: the listening socket driven by multishot accept.
    listener: Option<TcpListener>,
    mailboxes: Vec<Arc<Mailbox>>,
    shared: Arc<Shared>,
    stats: Arc<UringStats>,
    index: usize,
    conns: HashMap<u64, UConn>,
    next_token: u64,
    next_route: usize,
    accept_armed: bool,
    /// Accept backoff: no re-arm before this instant (EMFILE/ENFILE —
    /// the shared [`accept_retry_delay_os`] policy, implemented as a
    /// deadline instead of a sleep so the event loop never stalls).
    accept_rearm_at: Option<Instant>,
    wake_armed: bool,
    /// CQEs reaped early to unclog a full SQ; drained next iteration.
    backlog: Vec<Cqe>,
    /// Tokens touched this batch, stepped once after CQE processing.
    dirty: Vec<u64>,
}

impl Worker {
    fn run(&mut self) {
        let mut cqes: Vec<Cqe> = Vec::with_capacity(CQ_ENTRIES as usize);
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            self.arm_control();
            let before = self.ring.pending();
            self.stats.enters.inc();
            self.shared.metrics.plane_syscalls.inc();
            let submitted = match self.ring.submit_and_wait(WAIT_TIMEOUT) {
                Ok(n) => n,
                Err(_) => break,
            };
            self.stats.sqes.add(u64::from(submitted.min(before)));
            cqes.clear();
            cqes.append(&mut self.backlog);
            self.ring.reap(&mut cqes);
            self.stats.cqes.add(cqes.len() as u64);
            for cqe in cqes.drain(..) {
                self.handle_cqe(cqe);
            }
            let mut batch = std::mem::take(&mut self.dirty);
            batch.sort_unstable();
            batch.dedup();
            for token in batch {
                self.step(token);
            }
        }
        self.quiesce();
    }

    /// Arms the loop's standing control ops: the mailbox doorbell poll
    /// on every loop, multishot accept on loop 0 (respecting the
    /// exhaustion-backoff deadline).
    fn arm_control(&mut self) {
        if !self.wake_armed {
            let fd = self.mailboxes[self.index].wake.fd();
            self.push_hard(Sqe::poll_readable(fd, UD_WAKE));
            self.wake_armed = true;
        }
        if let Some(listener) = &self.listener {
            let backoff_over = match self.accept_rearm_at {
                Some(at) => Instant::now() >= at,
                None => true,
            };
            if !self.accept_armed && backoff_over {
                let fd = listener.as_raw_fd();
                self.push_hard(Sqe::accept_multishot(fd, UD_ACCEPT));
                self.accept_armed = true;
                self.accept_rearm_at = None;
            }
        }
    }

    /// Queues an SQE, making room with an extra submit (and, if the
    /// kernel is pushing back on a full CQ, an early reap) when the
    /// submission ring is full.
    fn push_hard(&mut self, sqe: Sqe) {
        loop {
            if self.ring.push(sqe) {
                return;
            }
            let pending = self.ring.pending();
            self.stats.enters.inc();
            self.shared.metrics.plane_syscalls.inc();
            match self.ring.submit() {
                Ok(n) => {
                    self.stats.sqes.add(u64::from(n.min(pending)));
                    if n == 0 {
                        // CQ backlog (EBUSY path): reap to make room.
                        self.ring.reap(&mut self.backlog);
                    }
                }
                Err(_) => return, // ring is wedged; shutdown will reap
            }
        }
    }

    fn handle_cqe(&mut self, cqe: Cqe) {
        match cqe.user_data & !UD_TOKEN_MASK {
            UD_ACCEPT => self.on_accept(cqe),
            UD_WAKE => {
                self.stats.wakeups.inc();
                self.wake_armed = false;
                self.mailboxes[self.index].wake.drain();
                self.shared.metrics.plane_syscalls.inc(); // eventfd read
                self.adopt_new();
            }
            UD_RECV => self.on_recv(cqe),
            UD_SEND => self.on_send(cqe),
            _ => {}
        }
    }

    fn on_accept(&mut self, cqe: Cqe) {
        if cqe.flags & IORING_CQE_F_MORE == 0 {
            // The multishot SQE retired (error, or the kernel asks for
            // a re-arm); `arm_control` re-submits next iteration.
            self.accept_armed = false;
        }
        if cqe.res >= 0 {
            let stream = tcp_from_accept(cqe.res);
            // `CacheServer::stop` raises the flag *before* its wake-up
            // connect, and this batch's CQEs are handled before `run`
            // looks at the flag again: a socket accepted with the flag
            // up is that dummy (or a client racing shutdown) and is
            // closed uncounted, as the other planes' accept loops do.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            self.stats.accepted.inc();
            self.route(stream);
        } else if let Some(delay) = accept_retry_delay_os(-cqe.res) {
            // Same policy as the other planes' accept loops, expressed
            // as a deadline: fd exhaustion pauses accepting without
            // blocking this loop's existing connections.
            self.accept_rearm_at = Some(Instant::now() + delay);
        }
    }

    /// Round-robins an accepted socket across loops: local adoption
    /// for this loop, mailbox + doorbell for siblings.
    fn route(&mut self, stream: TcpStream) {
        let target = self.next_route % self.mailboxes.len();
        self.next_route = self.next_route.wrapping_add(1);
        if target == self.index {
            self.adopt(stream);
        } else {
            let mailbox = &self.mailboxes[target];
            mailbox.queue.lock().push(stream);
            mailbox.wake.notify();
            self.shared.metrics.plane_syscalls.inc(); // eventfd write
        }
    }

    /// Registers every socket waiting in this loop's mailbox.
    fn adopt_new(&mut self) {
        let streams: Vec<TcpStream> = std::mem::take(&mut *self.mailboxes[self.index].queue.lock());
        for stream in streams {
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        // No O_NONBLOCK needed: io_uring drives pollable fds
        // asynchronously regardless of the flag.
        let _ = stream.set_nodelay(true);
        self.shared.metrics.plane_syscalls.inc(); // nodelay
        let token = self.next_token & UD_TOKEN_MASK;
        self.next_token += 1;
        self.conns.insert(token, UConn::new(stream));
        self.shared.metrics.total_connections.inc();
        self.shared.metrics.curr_connections.inc();
        self.stats.per_loop_connections[self.index].inc();
        self.dirty.push(token); // step() arms the first recv
    }

    fn on_recv(&mut self, cqe: Cqe) {
        let token = cqe.user_data & UD_TOKEN_MASK;
        // Copy out and recycle the provided buffer first — even when
        // the connection is already gone, the buffer id must go back
        // to the kernel's ring (invariant 3 in `uring`).
        let bid = if cqe.flags & IORING_CQE_F_BUFFER != 0 {
            Some((cqe.flags >> IORING_CQE_BUFFER_SHIFT) as u16)
        } else {
            None
        };
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.recv_armed = false;
            if cqe.res > 0 {
                if let Some(bid) = bid {
                    let bytes = self.bufs.bytes(bid, cqe.res as usize);
                    conn.core.rbuf.extend_from_slice(bytes);
                }
            } else if cqe.res == 0 {
                conn.core.eof = true;
            } else if cqe.res == -ENOBUFS {
                // All provided buffers are out being processed; this
                // batch recycles them, step() re-arms the recv.
                self.stats.buf_starved.inc();
            } else {
                conn.core.eof = true;
                conn.core.closing = true;
            }
            self.dirty.push(token);
        }
        if let Some(bid) = bid {
            self.bufs.recycle(bid);
        }
    }

    fn on_send(&mut self, cqe: Cqe) {
        let token = cqe.user_data & UD_TOKEN_MASK;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.send_inflight = false;
        if cqe.res > 0 {
            conn.send_pos += cqe.res as usize;
        } else {
            // 0-byte send or an error: the peer is gone (EPIPE,
            // ECONNRESET) or the write cannot make progress.
            conn.dying = true;
        }
        self.dirty.push(token);
    }

    /// Advances one connection after this batch's completions landed:
    /// execute buffered commands, pump the send pipeline, re-arm the
    /// receive, and retire the connection when it is done.
    fn step(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if !conn.dying {
            conn.core.process(&self.shared, conn.inflight_pending());
            self.pump_send(token, &mut conn);
            let backpressured = conn.core.out_pending() + conn.inflight_pending() > OUT_HIGH_WATER;
            if !conn.recv_armed && !conn.core.closing && !conn.core.eof && !backpressured {
                self.push_hard(Sqe::recv_select(
                    conn.core.stream.as_raw_fd(),
                    self.bufs.bgid(),
                    UD_RECV | token,
                ));
                conn.recv_armed = true;
            }
            let flushed = conn.core.out_pending() == 0 && conn.inflight_pending() == 0;
            if conn.core.closing && flushed && !conn.send_inflight {
                self.retire(conn);
                return;
            }
        } else {
            // Error path: force any outstanding ops to complete so the
            // in-flight send buffer can be released, then linger only
            // until the send CQE arrives.
            let _ = conn.core.stream.shutdown(Shutdown::Both);
            self.shared.metrics.plane_syscalls.inc();
            if !conn.send_inflight {
                self.retire(conn);
                return;
            }
        }
        self.conns.insert(token, conn);
    }

    /// Starts or resumes the at-most-one in-flight send: finish the
    /// current in-flight buffer first, then swap in the accumulated
    /// output buffer (ping-pong — both allocations are reused).
    fn pump_send(&mut self, token: u64, conn: &mut UConn) {
        if conn.send_inflight {
            return;
        }
        if conn.send_pos >= conn.inflight.len() {
            // In-flight buffer fully sent: safe to touch it again.
            conn.inflight.clear();
            conn.send_pos = 0;
            let out = conn.core.writer.get_mut();
            if out.buf.is_empty() {
                return;
            }
            debug_assert_eq!(out.pos, 0, "uring plane never partially drains OutBuf");
            std::mem::swap(&mut out.buf, &mut conn.inflight);
        }
        let ptr = conn.inflight[conn.send_pos..].as_ptr();
        let len = conn.inflight.len() - conn.send_pos;
        // Safety contract of `Sqe::send`: `inflight` is not touched
        // until the CQE for this SQE is reaped (`send_inflight` guards
        // every mutation site).
        self.push_hard(Sqe::send(
            conn.core.stream.as_raw_fd(),
            ptr,
            len,
            UD_SEND | token,
        ));
        conn.send_inflight = true;
    }

    /// Closes a connection and settles the gauges. Any still-pending
    /// recv op holds its own file reference and completes harmlessly
    /// against the dead token (its buffer is recycled in `on_recv`).
    fn retire(&mut self, conn: UConn) {
        debug_assert!(!conn.send_inflight, "retire with send in flight");
        drop(conn);
        self.shared.metrics.curr_connections.dec();
        self.stats.per_loop_connections[self.index].dec();
    }

    /// Shutdown: force-complete outstanding sends so their buffers can
    /// be freed, then drop every connection. A send that outlives the
    /// deadline has its buffer leaked rather than freed under a kernel
    /// that might still read it.
    fn quiesce(&mut self) {
        for conn in self.conns.values_mut() {
            let _ = conn.core.stream.shutdown(Shutdown::Both);
        }
        let deadline = Instant::now() + QUIESCE_DEADLINE;
        let mut cqes: Vec<Cqe> = Vec::new();
        while self.conns.values().any(|c| c.send_inflight) && Instant::now() < deadline {
            self.stats.enters.inc();
            self.shared.metrics.plane_syscalls.inc();
            if self
                .ring
                .submit_and_wait(Duration::from_millis(10))
                .is_err()
            {
                break;
            }
            cqes.clear();
            self.ring.reap(&mut cqes);
            for cqe in cqes.drain(..) {
                if cqe.user_data & !UD_TOKEN_MASK == UD_SEND {
                    let token = cqe.user_data & UD_TOKEN_MASK;
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.send_inflight = false;
                    }
                }
            }
        }
        for (_, mut conn) in self.conns.drain() {
            if conn.send_inflight {
                // Deadline hit with the kernel possibly still reading
                // this allocation: leaking it is the only safe exit.
                std::mem::forget(std::mem::take(&mut conn.inflight));
            }
            drop(conn);
            self.shared.metrics.curr_connections.dec();
            self.stats.per_loop_connections[self.index].dec();
        }
    }
}
