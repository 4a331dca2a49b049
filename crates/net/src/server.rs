//! The TCP cache server.

use std::collections::HashMap;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use proteus_bloom::DigestSnapshot;
use proteus_cache::{CacheConfig, ShardedEngine, SharedBytes};
use proteus_obs::{
    accept_retry_delay, to_stat_pairs, trace_metrics, Counter, EventTracer, Gauge, Metric,
    MetricSource, OpClass, OpLatencies, TraceKind,
};
use proteus_sim::{SimDuration, SimTime};

use crate::conn::ConnCore;
use crate::error::NetError;
use crate::protocol::{
    parse_mru_keys_page, RawCommand, Response, ResponseWriter, DIGEST_KEY, DIGEST_SNAPSHOT_KEY,
    MRU_KEYS_PAGE, MRU_KEYS_PREFIX,
};

/// How long a connection thread blocks in `read` before re-checking
/// the shutdown flag. Bounds how long `CacheServer::stop()` waits for
/// parked connection threads to quiesce.
const IDLE_READ_TIMEOUT: Duration = Duration::from_millis(100);

/// A connection's response buffer, and the only thing
/// [`serve_command`] can write to: commands are served under engine
/// shard locks, where nothing may block, so responses are assembled
/// in memory and the owning plane drains `buf[pos..]` to the socket
/// afterwards, resuming partial writes where they stopped.
#[derive(Debug, Default)]
pub(crate) struct OutBuf {
    pub(crate) buf: Vec<u8>,
    pub(crate) pos: usize,
}

impl OutBuf {
    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

impl Write for OutBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Live telemetry the server keeps alongside the engine: one latency
/// histogram per wire-command class plus connection gauges. Recording
/// is lock-free and allocation-free (see `proteus-obs`), so it stays on
/// under full load.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    pub(crate) ops: OpLatencies,
    pub(crate) curr_connections: Gauge,
    pub(crate) total_connections: Counter,
    /// Data-plane syscalls issued: accepts, socket reads/writes,
    /// `epoll_wait`/`epoll_ctl`, eventfd pokes — counted at every call
    /// site on both planes so syscalls-per-operation can be compared
    /// across them honestly.
    pub(crate) plane_syscalls: Counter,
    /// The socket `read`s and `write`s among them, on both planes.
    pub(crate) socket_reads: Counter,
    pub(crate) socket_writes: Counter,
    /// Bytes of buffer capacity the live connections hold, input and
    /// output buffers both.
    pub(crate) conn_buffers: Gauge,
}

impl ServerMetrics {
    /// Per-command-class latency histograms.
    #[must_use]
    pub fn ops(&self) -> &OpLatencies {
        &self.ops
    }

    /// Connections currently attached.
    #[must_use]
    pub fn curr_connections(&self) -> i64 {
        self.curr_connections.get()
    }

    /// Connections ever accepted.
    #[must_use]
    pub fn total_connections(&self) -> u64 {
        self.total_connections.get()
    }

    /// Data-plane syscalls issued so far (see the field docs). Benches
    /// difference this across a run to report syscalls per operation.
    #[must_use]
    pub fn plane_syscalls(&self) -> u64 {
        self.plane_syscalls.get()
    }

    /// Socket `read`s and `write`s issued so far, the part of
    /// [`plane_syscalls`](Self::plane_syscalls) a connection's traffic
    /// pays once the event plane has reported it.
    #[must_use]
    pub fn socket_reads_writes(&self) -> (u64, u64) {
        (self.socket_reads.get(), self.socket_writes.get())
    }
}

/// Selects the data plane a [`CacheServer`] runs on.
///
/// Both engines share the engine, protocol, metrics, and command
/// execution code; they differ only in how sockets are driven. The
/// threaded engine is the portable fallback and correctness oracle;
/// the reactor is the production data plane on Linux (see DESIGN.md
/// §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// One OS thread per connection, blocking reads with an idle
    /// timeout. Portable; thread count grows with connection count.
    Threaded,
    /// Non-blocking epoll reactor: `loops` event-loop threads share
    /// all connections (Linux only; falls back to [`Threaded`]
    /// elsewhere).
    ///
    /// [`Threaded`]: EngineKind::Threaded
    Reactor {
        /// Number of event-loop threads; `0` means
        /// `min(available cores, 4)`.
        loops: usize,
    },
    /// Runs the [`Reactor`] with the same `loops`: there is no io_uring
    /// plane (DESIGN.md §14 has the measurement that removed it).
    /// [`CacheServer::engine_kind`] never reports this variant; it is
    /// kept so code that names it keeps compiling.
    ///
    /// [`Reactor`]: EngineKind::Reactor
    Uring {
        /// Number of event-loop threads; `0` means
        /// `min(available cores, 4)`.
        loops: usize,
    },
}

impl EngineKind {
    /// Stable lowercase name for labels and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Threaded => "threaded",
            EngineKind::Reactor { .. } => "reactor",
            EngineKind::Uring { .. } => "uring",
        }
    }
}

impl Default for EngineKind {
    /// The reactor on Linux, the threaded engine elsewhere.
    fn default() -> Self {
        #[cfg(target_os = "linux")]
        {
            EngineKind::Reactor { loops: 0 }
        }
        #[cfg(not(target_os = "linux"))]
        {
            EngineKind::Threaded
        }
    }
}

/// Server-level configuration (as opposed to [`CacheConfig`], which
/// configures the cache engine the server fronts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerConfig {
    /// Which data plane to run.
    pub engine: EngineKind,
}

/// Resolves the `loops: 0` auto setting to a concrete thread count.
fn resolve_loops(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .clamp(1, 4)
    }
}

pub(crate) struct Shared {
    pub(crate) engine: ShardedEngine,
    /// The digest snapshot taken by the last `get SET_BLOOM_FILTER`.
    /// Shared so serving `get BLOOM_FILTER` is a refcount bump.
    pub(crate) snapshot: Mutex<Option<SharedBytes>>,
    pub(crate) started: Instant,
    pub(crate) shutdown: AtomicBool,
    pub(crate) metrics: ServerMetrics,
    /// Server-side transition trace: records the digest-snapshot half
    /// of a digest broadcast as observed on this end of the wire, and
    /// feeds the `/trace.jsonl` endpoint when the server's metrics
    /// exposition is spawned traced.
    pub(crate) tracer: Arc<EventTracer>,
    /// The resolved data plane, kept for `proteus_build_info`.
    engine_kind: EngineKind,
    /// Live connection sockets, so the threaded engine's `stop()` can
    /// interrupt blocked reads instead of waiting out their timeout.
    /// Each connection registers a clone on accept and removes itself
    /// on exit. (The reactor never blocks in reads, so it leaves this
    /// empty.)
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    /// Reactor telemetry (per-loop gauges, EAGAIN counters); `None`
    /// when the threaded engine is driving.
    #[cfg(target_os = "linux")]
    pub(crate) reactor_stats: Option<Arc<crate::reactor::ReactorStats>>,
}

impl Shared {
    /// A fresh engine plus the server state around it, for a data plane
    /// already resolved to `engine_kind`.
    fn new(config: CacheConfig, engine_kind: EngineKind) -> Shared {
        Shared {
            engine: ShardedEngine::new(config),
            snapshot: Mutex::new(None),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            metrics: ServerMetrics::default(),
            tracer: Arc::new(EventTracer::new()),
            engine_kind,
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            #[cfg(target_os = "linux")]
            reactor_stats: match engine_kind {
                EngineKind::Reactor { loops } => {
                    Some(Arc::new(crate::reactor::ReactorStats::new(loops)))
                }
                EngineKind::Threaded | EngineKind::Uring { .. } => None,
            },
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_nanos(self.started.elapsed().as_nanos() as u64)
    }
}

/// A running cache server: an accept thread plus a data plane —
/// either one thread per connection or an epoll reactor, selected by
/// [`ServerConfig`] — all sharing one lock-striped [`ShardedEngine`].
/// Connections touching different key shards proceed in parallel;
/// there is no global engine lock.
///
/// Digest protocol, exactly as in the paper's modified memcached:
/// `get SET_BLOOM_FILTER` snapshots the counting Bloom filter digest
/// (built one shard at a time, so unrelated gets keep flowing);
/// `get BLOOM_FILTER` returns the snapshot bytes as a normal value.
/// Multi-key `get k1 k2 ...` answers all keys in one round trip.
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug)]
pub struct CacheServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    engine_kind: EngineKind,
    data_plane: DataPlane,
}

/// The running data plane behind a [`CacheServer`].
#[derive(Debug)]
enum DataPlane {
    Threaded {
        accept_thread: Option<JoinHandle<()>>,
        conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    },
    #[cfg(target_os = "linux")]
    Reactor(crate::reactor::Reactor),
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl CacheServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving on the default data plane (the epoll reactor on Linux,
    /// thread-per-connection elsewhere).
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound.
    pub fn spawn<A: ToSocketAddrs>(addr: A, config: CacheConfig) -> Result<CacheServer, NetError> {
        CacheServer::spawn_with(addr, config, ServerConfig::default())
    }

    /// Binds `addr` and starts serving on the data plane selected by
    /// `server_config`. On non-Linux targets a
    /// [`EngineKind::Reactor`] request falls back to the threaded
    /// engine.
    ///
    /// # Errors
    ///
    /// Returns an error if the address cannot be bound or (reactor
    /// only) an event loop's epoll instance, eventfd or thread cannot
    /// be created; the loops already started are stopped first.
    pub fn spawn_with<A: ToSocketAddrs>(
        addr: A,
        config: CacheConfig,
        server_config: ServerConfig,
    ) -> Result<CacheServer, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        #[cfg(target_os = "linux")]
        let engine_kind = match server_config.engine {
            EngineKind::Uring { loops } | EngineKind::Reactor { loops } => EngineKind::Reactor {
                loops: resolve_loops(loops),
            },
            EngineKind::Threaded => EngineKind::Threaded,
        };
        #[cfg(not(target_os = "linux"))]
        let engine_kind = {
            let _ = resolve_loops(0);
            let _ = server_config;
            EngineKind::Threaded
        };
        let shared = Arc::new(Shared::new(config, engine_kind));
        let data_plane = match engine_kind {
            #[cfg(target_os = "linux")]
            EngineKind::Reactor { loops } => {
                let reactor = crate::reactor::Reactor::spawn(listener, Arc::clone(&shared), loops)?;
                DataPlane::Reactor(reactor)
            }
            #[cfg(not(target_os = "linux"))]
            EngineKind::Reactor { .. } => unreachable!("normalized to Threaded above"),
            EngineKind::Uring { .. } => unreachable!("resolved above"),
            EngineKind::Threaded => spawn_threaded(listener, &shared),
        };
        Ok(CacheServer {
            addr,
            shared,
            engine_kind,
            data_plane,
        })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The data plane actually running (auto values resolved: a
    /// requested `Reactor { loops: 0 }` reports its concrete loop
    /// count, a `Uring` request reports the [`EngineKind::Reactor`] it
    /// runs, and any reactor request on a non-Linux target reports
    /// [`EngineKind::Threaded`]).
    #[must_use]
    pub fn engine_kind(&self) -> EngineKind {
        self.engine_kind
    }

    /// Runs `f` on the server's engine (inspection from tests and the
    /// transition orchestrator).
    pub fn with_engine<T>(&self, f: impl FnOnce(&ShardedEngine) -> T) -> T {
        f(&self.shared.engine)
    }

    /// The server's live telemetry (per-command latency histograms and
    /// connection gauges).
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// A pull-based registry source for this server, suitable for
    /// [`proteus_obs::MetricsServer::spawn`]. Each call materialises
    /// the full registry: engine counters, connection gauges, and
    /// per-command latency histograms.
    #[must_use]
    pub fn metric_source(&self) -> MetricSource {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || registry(&shared))
    }

    /// The server-side transition tracer (digest-snapshot events seen
    /// on this end of the wire). Hand a clone to
    /// [`proteus_obs::MetricsServer::spawn_traced`] to serve it at
    /// `/trace.jsonl`.
    #[must_use]
    pub fn tracer(&self) -> Arc<EventTracer> {
        Arc::clone(&self.shared.tracer)
    }

    /// Stops accepting connections, quiesces every connection thread
    /// (idle ones are woken by a socket shutdown and the idle read
    /// timeout), and joins them all. In-flight connections finish
    /// their current command; returns promptly even with idle clients
    /// still attached.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        match &mut self.data_plane {
            DataPlane::Threaded {
                accept_thread,
                conn_threads,
            } => {
                // Interrupt connection threads parked in a blocking read.
                for stream in self.shared.conns.lock().values() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                if let Some(handle) = accept_thread.take() {
                    let _ = handle.join();
                }
                for handle in conn_threads.lock().drain(..) {
                    let _ = handle.join();
                }
            }
            #[cfg(target_os = "linux")]
            DataPlane::Reactor(reactor) => reactor.stop(),
        }
    }
}

/// The accept loop both data planes run, each handing every accepted
/// socket to its own `admit`. A failed accept never kills the
/// listener: the connection-level errors (ECONNABORTED & friends) retry
/// immediately, resource exhaustion backs off first. Only shutdown
/// ends the loop.
pub(crate) fn accept_loop(
    listener: TcpListener,
    shared: &Shared,
    mut admit: impl FnMut(TcpStream),
) {
    for stream in listener.incoming() {
        // One blocking `accept` syscall per iteration.
        shared.metrics.plane_syscalls.inc();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => admit(stream),
            Err(e) => {
                if let Some(delay) = accept_retry_delay(&e) {
                    std::thread::sleep(delay);
                }
            }
        }
    }
}

/// Starts the thread-per-connection data plane: the accept loop spawns
/// one serving thread per connection.
fn spawn_threaded(listener: TcpListener, shared: &Arc<Shared>) -> DataPlane {
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept_shared = Arc::clone(shared);
    let accept_conn_threads = Arc::clone(&conn_threads);
    let accept_thread = std::thread::spawn(move || {
        accept_loop(listener, &accept_shared, |stream| {
            let conn_shared = Arc::clone(&accept_shared);
            let handle = std::thread::spawn(move || serve_connection(stream, &conn_shared));
            let mut threads = accept_conn_threads.lock();
            // Reap finished handles so long-running servers don't
            // accumulate one entry per past connection.
            threads.retain(|h| !h.is_finished());
            threads.push(handle);
        });
    });
    DataPlane::Threaded {
        accept_thread: Some(accept_thread),
        conn_threads,
    }
}

impl Drop for CacheServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Classifies a parsed command for per-class latency recording. The
/// reserved keys — the digest's two and the `MRU_KEYS:` listing — are
/// traffic of their own class even though they arrive as plain `get`s,
/// one key at a time or several in one multi-key `get` (a client's
/// digest broadcast sends both digest keys that way).
pub(crate) fn op_class_of(cmd: &RawCommand<'_>) -> OpClass {
    let reserved = |key: &[u8]| {
        key == DIGEST_SNAPSHOT_KEY || key == DIGEST_KEY || key.starts_with(MRU_KEYS_PREFIX)
    };
    match cmd {
        RawCommand::Get { key } if reserved(key) => OpClass::Digest,
        RawCommand::MultiGet { keys } if keys.iter().all(|key| reserved(key)) => OpClass::Digest,
        RawCommand::Get { .. } => OpClass::Get,
        RawCommand::MultiGet { .. } => OpClass::MultiGet,
        RawCommand::Set { .. } => OpClass::Set,
        RawCommand::Add { .. } => OpClass::Add,
        RawCommand::Replace { .. } => OpClass::Replace,
        RawCommand::Delete { .. } => OpClass::Delete,
        RawCommand::Touch { .. } => OpClass::Touch,
        RawCommand::Incr { .. } => OpClass::Incr,
        RawCommand::Decr { .. } => OpClass::Decr,
        RawCommand::Stats | RawCommand::StatsProteus => OpClass::Stats,
        RawCommand::FlushAll | RawCommand::Version | RawCommand::Quit => OpClass::Other,
    }
}

/// The threaded plane's driver of one connection: block in `read`,
/// then let the [`ConnCore`] serve and flush, until it says the
/// connection is done.
fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        shared.conns.lock().insert(conn_id, clone);
    }
    shared.metrics.total_connections.inc();
    shared.metrics.curr_connections.inc();
    // A parked reader wakes every IDLE_READ_TIMEOUT to re-check the
    // shutdown flag, so `stop()` quiesces instead of waiting for the
    // peer to hang up.
    let _ = stream.set_read_timeout(Some(IDLE_READ_TIMEOUT));
    let mut core = ConnCore::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match core.read_from(&mut stream, shared) {
            // A timeout only re-checks the shutdown flag, whether or
            // not a command is half-read.
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(_) => break,
            Ok(_) if core.serve(&mut stream, shared) != Ok(true) => break,
            Ok(_) => {}
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    core.release(shared);
    shared.metrics.curr_connections.dec();
    shared.conns.lock().remove(&conn_id);
}

/// Materialises the full telemetry registry: engine counters,
/// item/connection gauges, and one latency histogram per command
/// class. This is what `stats proteus` flattens to `STAT` pairs and
/// what the `--metrics-addr` endpoint renders as Prometheus text/JSON.
pub(crate) fn registry(shared: &Shared) -> Vec<Metric> {
    let stats = shared.engine.stats();
    let slab = shared.engine.slab_stats();
    let digest = shared.engine.config().digest;
    let m = &shared.metrics;
    let mut out = vec![
        // Info-gauge idiom: constant 1, identity in the labels, so any
        // scrape names the build and backend that produced it.
        Metric::gauge("proteus_build_info", 1)
            .with_label("version", env!("CARGO_PKG_VERSION"))
            .with_label("engine", shared.engine_kind.name())
            .with_label("storage", if slab.is_some() { "slab" } else { "heap" }),
        Metric::gauge(
            "proteus_uptime_seconds",
            shared.started.elapsed().as_secs() as i64,
        ),
        Metric::gauge("proteus_curr_items", shared.engine.len() as i64),
        Metric::gauge("proteus_bytes", shared.engine.bytes_used() as i64),
        // The digest as resolved for this shard count: l, P, and the
        // l·b/8 bytes of counters the shards hold between them.
        Metric::gauge("proteus_digest_counters", digest.counters as i64),
        Metric::gauge("proteus_digest_partitions", digest.partitions as i64),
        Metric::gauge("proteus_digest_bytes", digest.memory_bytes() as i64),
        Metric::gauge("proteus_curr_connections", m.curr_connections.get()),
        Metric::counter("proteus_total_connections", m.total_connections.get()),
        Metric::counter("proteus_get_hits_total", stats.hits),
        Metric::counter("proteus_get_misses_total", stats.misses),
        Metric::counter("proteus_sets_total", stats.sets),
        Metric::counter("proteus_deletes_total", stats.deletes),
        Metric::counter("proteus_evictions_total", stats.evictions),
        Metric::counter("proteus_expirations_total", stats.expired),
        Metric::counter("proteus_rejected_sets_total", stats.rejected),
        Metric::counter("proteus_plane_syscalls_total", m.plane_syscalls.get()),
    ];
    // Resident bytes by structure, read at scrape time: the engine's
    // tables, the latency stripes built so far, the connections' buffers.
    let mem = shared.engine.mem_bytes();
    for (component, bytes) in [
        ("slot_table", mem.slot_table as i64),
        ("key_index", mem.key_index as i64),
        ("histograms", m.ops.heap_bytes() as i64),
        ("conn_buffers", m.conn_buffers.get()),
    ] {
        out.push(Metric::gauge("proteus_mem_bytes", bytes).with_label("component", component));
    }
    if let Some(slab) = slab {
        out.push(Metric::gauge(
            "proteus_slab_pages_allocated",
            slab.pages_allocated as i64,
        ));
        out.push(Metric::gauge(
            "proteus_slab_pages_pooled",
            slab.pages_pooled as i64,
        ));
        out.push(Metric::gauge(
            "proteus_slab_pages_resident",
            slab.pages_resident as i64,
        ));
        out.push(Metric::counter(
            "proteus_slab_pages_released_total",
            slab.pages_released,
        ));
        out.push(Metric::gauge(
            "proteus_slab_page_bytes",
            slab.page_bytes as i64,
        ));
        out.push(Metric::gauge(
            "proteus_slab_live_bytes",
            slab.live_bytes() as i64,
        ));
        out.push(Metric::float_gauge(
            "proteus_slab_fragmentation_ratio",
            slab.fragmentation(),
        ));
        out.push(Metric::counter(
            "proteus_slab_heap_fallbacks_total",
            slab.heap_fallbacks,
        ));
        out.push(Metric::counter(
            "proteus_slab_starved_sets_total",
            slab.starved_sets,
        ));
        out.push(Metric::counter(
            "proteus_slab_pages_reassigned_total",
            slab.pages_reassigned,
        ));
        for class in &slab.classes {
            let chunk = class.chunk_size.to_string();
            out.push(
                Metric::gauge("proteus_slab_class_pages", class.pages as i64)
                    .with_label("chunk_size", chunk.clone()),
            );
            out.push(
                Metric::gauge("proteus_slab_class_items", class.items as i64)
                    .with_label("chunk_size", chunk.clone()),
            );
            out.push(
                Metric::gauge("proteus_slab_class_live_bytes", class.live_bytes as i64)
                    .with_label("chunk_size", chunk.clone()),
            );
            out.push(
                Metric::gauge("proteus_slab_class_bytes_wasted", class.bytes_wasted as i64)
                    .with_label("chunk_size", chunk),
            );
        }
    }
    for (class, snap) in m.ops.snapshot_all() {
        out.push(
            Metric::histogram("proteus_command_latency_seconds", snap)
                .with_label("op", class.name()),
        );
    }
    // Trace ring health (recorded / dropped / retained): also lands in
    // `stats proteus` via to_stat_pairs, so ring overflow is visible
    // on the memcached wire too.
    out.extend(trace_metrics(&shared.tracer));
    #[cfg(target_os = "linux")]
    if let Some(rs) = &shared.reactor_stats {
        // events / waits = mean readiness batch per epoll_wait.
        for (name, counter) in [
            ("proteus_reactor_accepted_total", &rs.accepted),
            ("proteus_reactor_read_eagain_total", &rs.read_eagain),
            ("proteus_reactor_wakeups_total", &rs.wakeups),
            ("proteus_reactor_waits_total", &rs.waits),
            ("proteus_reactor_events_total", &rs.events),
        ] {
            out.push(Metric::counter(name, counter.get()));
        }
        for (index, conns) in rs.per_loop_connections.iter().enumerate() {
            out.push(
                Metric::gauge("proteus_reactor_loop_connections", conns.get())
                    .with_label("loop", index.to_string()),
            );
        }
    }
    out
}

/// Executes one parsed command and queues its response in the
/// connection's in-memory output buffer. Returns `true` for `quit`.
///
/// The `get` paths echo the request's own (borrowed) key bytes and copy
/// each value out of the cache once, straight into the reply, under the
/// value's shard lock — which is why the target is an [`OutBuf`] and
/// not a writer that could reach a socket.
pub(crate) fn serve_command(
    command: RawCommand<'_>,
    shared: &Shared,
    writer: &mut ResponseWriter<OutBuf>,
) -> bool {
    // Writes to an `OutBuf` cannot fail.
    let queued = 'reply: {
        let response = match command {
            RawCommand::Quit => return true,
            // A `get` queues each hit as it finds it; every other
            // command's one reply is queued below.
            RawCommand::Get { key } => break 'reply serve_get(shared, &[key], writer),
            // Memcached semantics: each key is served independently
            // (misses omitted), in one response round trip.
            RawCommand::MultiGet { keys } => break 'reply serve_get(shared, &keys, writer),
            RawCommand::Set {
                key, data, exptime, ..
            } => {
                let now = shared.now();
                // The data block is still in the connection's input buffer:
                // the slab backend copies it into a chunk, the heap backend
                // into a buffer of the value's own.
                let outcome = shared
                    .engine
                    .put_with_expiry(key, data, now, expiry(exptime));
                stored_reply(outcome)
            }
            RawCommand::Add {
                key, data, exptime, ..
            } => {
                let now = shared.now();
                // `probe` reaps expired-but-unreaped items (so `add`
                // succeeds after expiry) but, unlike a get, moves no
                // hit/miss statistics: a storage command's presence check
                // is not a cache read. Probe and store share one shard
                // lock.
                shared.engine.with_key_shard(key, |engine| {
                    if engine.probe(key, now) {
                        Response::NotStored
                    } else {
                        stored_reply(engine.put_with_expiry(key, data, now, expiry(exptime)))
                    }
                })
            }
            RawCommand::Replace {
                key, data, exptime, ..
            } => {
                let now = shared.now();
                shared.engine.with_key_shard(key, |engine| {
                    if engine.probe(key, now) {
                        stored_reply(engine.put_with_expiry(key, data, now, expiry(exptime)))
                    } else {
                        Response::NotStored
                    }
                })
            }
            RawCommand::Touch { key, exptime } => {
                let now = shared.now();
                if shared.engine.touch(key, now, expiry(exptime)) {
                    Response::Touched
                } else {
                    Response::NotFound
                }
            }
            RawCommand::Incr { key, delta } => numeric_op(shared, key, |v| v.wrapping_add(delta)),
            RawCommand::Decr { key, delta } => numeric_op(shared, key, |v| v.saturating_sub(delta)),
            RawCommand::Delete { key } => {
                if shared.engine.delete(key) {
                    Response::Deleted
                } else {
                    Response::NotFound
                }
            }
            RawCommand::FlushAll => {
                shared.engine.clear();
                // The held snapshot describes the keys just dropped.
                *shared.snapshot.lock() = None;
                Response::Ok
            }
            RawCommand::Version => {
                Response::Version(format!("proteus-cache {}", env!("CARGO_PKG_VERSION")))
            }
            RawCommand::Stats => {
                let stats = shared.engine.stats();
                let m = &shared.metrics;
                let mut pairs = vec![
                    (
                        "uptime".into(),
                        shared.started.elapsed().as_secs().to_string(),
                    ),
                    ("curr_items".into(), shared.engine.len().to_string()),
                    ("bytes".into(), shared.engine.bytes_used().to_string()),
                    (
                        "curr_connections".into(),
                        m.curr_connections.get().to_string(),
                    ),
                    (
                        "total_connections".into(),
                        m.total_connections.get().to_string(),
                    ),
                    ("get_hits".into(), stats.hits.to_string()),
                    ("get_misses".into(), stats.misses.to_string()),
                    ("cmd_set".into(), stats.sets.to_string()),
                    ("delete_hits".into(), stats.deletes.to_string()),
                    ("evictions".into(), stats.evictions.to_string()),
                    ("expirations".into(), stats.expired.to_string()),
                    ("rejected_sets".into(), stats.rejected.to_string()),
                    (
                        "digest_estimated_items".into(),
                        shared
                            .engine
                            .digest_estimate()
                            .map_or_else(|| "saturated".into(), |e| format!("{e:.0}")),
                    ),
                ];
                // Headline percentiles for the two hot classes; the full
                // per-class breakdown lives behind `stats proteus`.
                for class in [OpClass::Get, OpClass::Set] {
                    if let Some(p) = m.ops.snapshot(class).percentiles() {
                        let name = class.name();
                        pairs.push((format!("{name}_p50_us"), p.p50.as_micros().to_string()));
                        pairs.push((format!("{name}_p99_us"), p.p99.as_micros().to_string()));
                        pairs.push((format!("{name}_p999_us"), p.p999.as_micros().to_string()));
                    }
                }
                Response::Stats(pairs)
            }
            RawCommand::StatsProteus => {
                Response::Stats(to_stat_pairs(&registry(shared)).into_iter().collect())
            }
        };
        writer.write(&response)
    };
    debug_assert!(queued.is_ok(), "in-memory write failed: {queued:?}");
    false
}

/// Applies `op` to the ASCII-decimal value stored under `key`, storing
/// and returning the new value — memcached `incr`/`decr` semantics
/// (missing key → `NOT_FOUND`; non-numeric value → error; the item's
/// original expiry is preserved, not reset).
fn numeric_op(shared: &Shared, key: &[u8], op: impl FnOnce(u64) -> u64) -> Response {
    let now = shared.now();
    // Probe and store under one shard lock so concurrent incr/decr on
    // the same key never lose updates.
    shared.engine.with_key_shard(key, |engine| {
        // An expired counter must read as absent, not resurrect.
        if !engine.probe(key, now) {
            return Response::NotFound;
        }
        let deadline = engine.expiry_of(key).expect("probed present");
        let Some(current) = engine.peek(key) else {
            return Response::NotFound;
        };
        let Ok(text) = std::str::from_utf8(current) else {
            return Response::Error("cannot increment or decrement non-numeric value".into());
        };
        let Ok(value) = text.trim().parse::<u64>() else {
            return Response::Error("cannot increment or decrement non-numeric value".into());
        };
        let next = op(value);
        // Rewrite the counter under the item's original deadline —
        // memcached's incr/decr never extend or reset the TTL.
        engine.put_with_deadline(key, next.to_string().into_bytes(), deadline);
        Response::Numeric(next)
    })
}

/// Queues the `MRU_KEYS:<shard>:<skip>` listing as the value of `key`
/// (`page` is what follows the prefix): the page is measured and copied
/// into the reply under the one shard lock, like any value. A page
/// that does not parse, or names a shard there is not, is a miss.
fn serve_mru_keys(
    shared: &Shared,
    key: &[u8],
    page: &[u8],
    writer: &mut ResponseWriter<OutBuf>,
) -> Result<(), NetError> {
    let Some((shard, skip)) = parse_mru_keys_page(page) else {
        return Ok(());
    };
    shared
        .engine
        .mru_page(shard, skip, MRU_KEYS_PAGE, |keys| {
            let len = keys.clone().map(|k| k.len() + 1).sum::<usize>();
            writer.write_value_joined(key, 0, len.saturating_sub(1), keys)
        })
        .unwrap_or(Ok(()))
}

/// Queues a `get` reply: one `VALUE` block per key that hits —
/// including the reserved keys — then `END`.
fn serve_get(
    shared: &Shared,
    keys: &[&[u8]],
    writer: &mut ResponseWriter<OutBuf>,
) -> Result<(), NetError> {
    let now = shared.now();
    for &key in keys {
        if key == DIGEST_SNAPSHOT_KEY {
            // Built and encoded outside the snapshot lock, which is held
            // only to swap the finished bytes in.
            let bytes: SharedBytes = DigestSnapshot::from(shared.engine.digest_snapshot())
                .to_bytes()
                .into();
            *shared.snapshot.lock() = Some(bytes);
            // The server-side half of a digest broadcast: this is the event
            // the aggregator correlates with the client's DigestBroadcast.
            shared.tracer.record(TraceKind::DigestSnapshot);
            writer.write_value(key, 0, b"OK")?;
        } else if key == DIGEST_KEY {
            let snapshot = shared.snapshot.lock().clone();
            if let Some(data) = snapshot {
                writer.write_value(key, 0, &data)?;
            }
        } else if let Some(page) = key.strip_prefix(MRU_KEYS_PREFIX) {
            serve_mru_keys(shared, key, page, writer)?;
        } else {
            shared
                .engine
                .with_key_shard(key, |engine| match engine.get(key, now) {
                    Some(data) => writer.write_value(key, 0, data),
                    None => Ok(()),
                })?;
        }
    }
    writer.write_end()
}

/// The largest `exptime` read as seconds from now; a larger one is an
/// absolute Unix time (memcached's `protocol.txt`).
const MAX_RELATIVE_EXPTIME: u32 = 60 * 60 * 24 * 30;

/// Maps the protocol's `exptime` to an engine TTL, memcached semantics:
/// 0 never expires, up to 30 days it counts seconds from now, and above
/// that it is an absolute Unix time, where one already past gives a TTL
/// of zero (the item is stored expired).
fn expiry(exptime: u32) -> Option<SimDuration> {
    if exptime > MAX_RELATIVE_EXPTIME {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default();
        let left = Duration::from_secs(u64::from(exptime)).saturating_sub(now);
        // An exptime of at most 2^32 s is under 2^64 ns.
        return Some(SimDuration::from_nanos(left.as_nanos() as u64));
    }
    (exptime > 0).then(|| SimDuration::from_secs(u64::from(exptime)))
}

/// Maps a storage outcome onto the wire: a rejected item (larger than
/// the shard's whole budget) answers like memcached's
/// `SERVER_ERROR object too large for cache` instead of silently
/// evicting the world and failing anyway.
fn stored_reply(outcome: proteus_cache::StoreOutcome) -> Response {
    if outcome.stored {
        Response::Stored
    } else {
        Response::Error("object too large for cache".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CacheClient, ClientCore};

    fn test_server() -> CacheServer {
        CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20))
            .expect("bind ephemeral port")
    }

    #[test]
    fn spawn_serve_stop() {
        let server = test_server();
        let client = CacheClient::connect(server.addr()).unwrap();
        client.set(b"a", b"1").unwrap();
        assert_eq!(client.get(b"a").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(client.get(b"missing").unwrap(), None);
        assert!(client.delete(b"a").unwrap());
        assert!(!client.delete(b"a").unwrap());
        server.stop();
    }

    #[test]
    fn engine_is_shared_across_connections() {
        let server = test_server();
        let c1 = CacheClient::connect(server.addr()).unwrap();
        let c2 = CacheClient::connect(server.addr()).unwrap();
        c1.set(b"shared", b"value").unwrap();
        assert_eq!(c2.get(b"shared").unwrap().as_deref(), Some(&b"value"[..]));
        server.stop();
    }

    #[test]
    fn stats_reflect_operations() {
        let server = test_server();
        let client = CacheClient::connect(server.addr()).unwrap();
        client.set(b"k", b"v").unwrap();
        let _ = client.get(b"k").unwrap();
        let _ = client.get(b"absent").unwrap();
        // Storage-command probes are not cache reads: an `add` on a
        // present key must not count a get hit, a `replace` on a
        // missing key must not count a get miss, and successful probes
        // are equally silent — memcached semantics, and what keeps the
        // hit-ratio benches honest.
        assert!(!client.add(b"k", b"other").unwrap());
        assert!(client.add(b"fresh", b"v").unwrap());
        assert!(!client.replace(b"nothere", b"v").unwrap());
        assert!(client.replace(b"k", b"v2").unwrap());
        let stats = client.stats().unwrap();
        let lookup = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(lookup("get_hits"), "1");
        assert_eq!(lookup("get_misses"), "1");
        // set + stored add + stored replace each count as a set.
        assert_eq!(lookup("cmd_set"), "3");
        assert_eq!(lookup("curr_items"), "2");
        server.stop();
    }

    #[test]
    fn incr_preserves_the_items_expiry() {
        use crate::protocol::write_command_unflushed;
        let server = test_server();
        let mut writer = TcpStream::connect(server.addr()).unwrap();
        let mut reader = writer.try_clone().unwrap();
        let mut core = ClientCore::default();
        let mut reply = || core.recv(&mut reader).unwrap();
        write_command_unflushed(
            &mut writer,
            &RawCommand::Set {
                key: b"c",
                flags: 0,
                exptime: 60,
                data: b"5",
            },
        )
        .unwrap();
        assert_eq!(reply(), Response::Stored);
        let deadline_before = server
            .with_engine(|e| e.with_key_shard(b"c", |se| se.expiry_of(b"c")))
            .expect("item present");
        assert!(deadline_before < SimTime::MAX, "set stored a real TTL");
        write_command_unflushed(
            &mut writer,
            &RawCommand::Incr {
                key: b"c",
                delta: 3,
            },
        )
        .unwrap();
        assert_eq!(reply(), Response::Numeric(8));
        let deadline_after = server
            .with_engine(|e| e.with_key_shard(b"c", |se| se.expiry_of(b"c")))
            .expect("item still present");
        assert_eq!(
            deadline_after, deadline_before,
            "incr must not reset or drop the original expiry"
        );
        server.stop();
    }

    #[test]
    fn stop_returns_promptly_with_an_idle_client_attached() {
        let server = test_server();
        // A live client connection parked in the server's read loop...
        let idle = TcpStream::connect(server.addr()).unwrap();
        let active = CacheClient::connect(server.addr()).unwrap();
        active.set(b"k", b"v").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // ...must not stall shutdown: the socket shutdown plus the idle
        // read timeout wake the connection thread, and stop() joins it.
        let begin = std::time::Instant::now();
        server.stop();
        assert!(
            begin.elapsed() < std::time::Duration::from_secs(1),
            "stop() took {:?} with an idle client attached",
            begin.elapsed()
        );
        drop(idle);
    }

    #[test]
    fn digest_keys_follow_the_paper_protocol() {
        let server = test_server();
        let client = CacheClient::connect(server.addr()).unwrap();
        client.set(b"hot", b"data").unwrap();
        // Before a snapshot is taken, BLOOM_FILTER misses.
        assert_eq!(client.get(DIGEST_KEY).unwrap(), None);
        // get SET_BLOOM_FILTER takes a snapshot...
        assert!(client.get(DIGEST_SNAPSHOT_KEY).unwrap().is_some());
        // ...and get BLOOM_FILTER retrieves it as plain value bytes.
        let digest = client.fetch_digest().unwrap().unwrap();
        assert!(digest.contains(b"hot"));
        assert!(!digest.contains(b"cold"));
        server.stop();
    }

    #[test]
    fn snapshot_is_a_point_in_time() {
        let server = test_server();
        let client = CacheClient::connect(server.addr()).unwrap();
        client.set(b"early", b"1").unwrap();
        client.get(DIGEST_SNAPSHOT_KEY).unwrap();
        client.set(b"late", b"2").unwrap();
        let digest = client.fetch_digest().unwrap().unwrap();
        assert!(digest.contains(b"early"));
        assert!(
            !digest.contains(b"late"),
            "snapshot must not see later sets"
        );
        server.stop();
    }

    #[test]
    fn malformed_input_gets_an_error_and_close() {
        use std::io::{Read, Write};
        let server = test_server();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"frobnicate now\r\n").unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("ERROR"), "got {text:?}");
        server.stop();
    }

    /// Hands `bytes` to `core` the way a socket would: read by read,
    /// each read's commands served into `sink` before the next.
    fn deliver(core: &mut ConnCore, mut bytes: &[u8], sink: &mut Vec<u8>, shared: &Shared) {
        while !bytes.is_empty() {
            core.read_from(&mut bytes, shared).unwrap();
            assert_eq!(core.serve(sink, shared), Ok(true));
        }
    }

    /// A connection parses a set again each time a piece of its value
    /// arrives, and owes no reply until the value is whole.
    #[test]
    fn a_set_arriving_in_pieces_is_parsed_when_it_starts_and_when_it_is_whole() {
        const VALUE: usize = 1 << 20;
        const PIECE: usize = 64 << 10;

        let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(64 << 20))
            .expect("bind ephemeral port");
        let value: Vec<u8> = (0..VALUE).map(|i| i as u8).collect();
        let mut command = format!("set big 0 0 {VALUE}\r\n").into_bytes();
        command.extend_from_slice(&value);
        command.extend_from_slice(b"\r\n");
        let mut pieces = command.chunks(PIECE);
        let last = pieces.next_back().unwrap();

        let (mut core, mut replies) = (ConnCore::new(), Vec::new());
        for piece in pieces {
            deliver(&mut core, piece, &mut replies, &server.shared);
            assert!(replies.is_empty());
        }
        // A peer that hangs up mid-block still closes silently.
        let mut hung_up = ConnCore::new();
        deliver(
            &mut hung_up,
            &command[..command.len() - last.len()],
            &mut replies,
            &server.shared,
        );
        hung_up.eof = true;
        hung_up.process(&server.shared);
        assert!(hung_up.closing && hung_up.out_pending() == 0 && replies.is_empty());

        deliver(&mut core, last, &mut replies, &server.shared);
        assert_eq!(replies, b"STORED\r\n");
        assert!(core.in_pending() == 0 && !core.closing);
        let stored = server.with_engine(|e| e.get(b"big", SimTime::ZERO));
        assert_eq!(stored.as_deref(), Some(&value[..]));
        server.stop();
    }

    /// One generated command's wire bytes: a `get`, a multi-key `get`,
    /// a `set` of up to 100 KiB (or of a number, for `incr` to find), a
    /// `delete` or an `incr`, over six keys so they meet.
    fn wire_command() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        let key = || (0u8..6).prop_map(|k| format!("k{k}"));
        let value = prop_oneof![
            (0usize..100 << 10, any::<u8>())
                .prop_map(|(len, seed)| (0..len).map(|i| seed.wrapping_add(i as u8)).collect()),
            any::<u32>().prop_map(|n| n.to_string().into_bytes()),
        ];
        prop_oneof![
            key().prop_map(|k| format!("get {k}\r\n").into_bytes()),
            prop::collection::vec(key(), 2..5)
                .prop_map(|k| format!("get {}\r\n", k.join(" ")).into()),
            (key(), value).prop_map(|(k, value)| {
                let mut bytes = format!("set {k} 0 0 {}\r\n", value.len()).into_bytes();
                bytes.extend_from_slice(&value);
                bytes.extend_from_slice(b"\r\n");
                bytes
            }),
            key().prop_map(|k| format!("delete {k}\r\n").into_bytes()),
            (key(), 0u64..1000).prop_map(|(k, d)| format!("incr {k} {d}\r\n").into_bytes()),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A connection owes the replies of exactly the commands that
        /// have wholly arrived, at every split point and before any EOF.
        /// The reference is a second server's core fed one command at a
        /// time; a malformed line then earns `ERROR` and a close on both.
        #[test]
        fn replies_are_due_for_exactly_the_commands_that_have_arrived(
            commands in proptest::collection::vec(wire_command(), 1..8),
            cuts in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..24),
            header_cuts in proptest::collection::vec(0usize..24, 8),
        ) {
            use proptest::prelude::*;
            let config = CacheConfig::with_capacity(64 << 20);
            let shared = Shared::new(config, EngineKind::Threaded);
            let reference = Shared::new(config, EngineKind::Threaded);
            let (mut oracle, mut expected) = (ConnCore::new(), Vec::new());
            // `owed[i]`: reply bytes due once the first `i` commands arrived.
            let (mut stream, mut ends, mut owed) = (Vec::new(), Vec::new(), vec![0]);
            let mut splits = Vec::new();
            for (command, cut) in commands.iter().zip(&header_cuts) {
                // A split inside each command's first line, and at its end.
                splits.push(stream.len() + cut % command.len());
                stream.extend_from_slice(command);
                ends.push(stream.len());
                deliver(&mut oracle, command, &mut expected, &reference);
                owed.push(expected.len());
            }
            splits.extend(cuts.iter().map(|cut| cut % stream.len()).chain(ends.clone()));
            splits.sort_unstable();
            splits.dedup();

            let (mut core, mut got, mut fed) = (ConnCore::new(), Vec::new(), 0);
            for split in splits {
                deliver(&mut core, &stream[fed..split], &mut got, &shared);
                fed = split;
                let arrived = ends.iter().filter(|&&end| end <= fed).count();
                prop_assert!(got == expected[..owed[arrived]], "{fed} of {} bytes", stream.len());
            }

            let malformed = b"frobnicate now\r\nget k0\r\n";
            for (conn, shared, replies) in
                [(&mut core, &shared, &mut got), (&mut oracle, &reference, &mut expected)]
            {
                conn.read_from(&mut &malformed[..], shared).unwrap();
                prop_assert_eq!(conn.serve(replies, shared), Ok(false));
            }
            prop_assert_eq!(&got, &expected);
            let error = &got[owed[commands.len()]..];
            prop_assert!(error.starts_with(b"ERROR") && error.ends_with(b"\r\n"));
            prop_assert_eq!(error.iter().filter(|&&b| b == b'\n').count(), 1);
        }
    }

    #[test]
    fn drop_stops_the_server() {
        let addr;
        {
            let server = test_server();
            addr = server.addr();
        }
        // After drop, new connections are refused or die immediately.
        if let Ok(mut stream) = TcpStream::connect(addr) {
            // Accept loop has exited; the connection cannot be served.
            let read = std::io::Read::read(&mut stream, &mut [0; 1]);
            assert!(matches!(read, Ok(0) | Err(_)));
        } // a refused connection is also acceptable
    }
}
