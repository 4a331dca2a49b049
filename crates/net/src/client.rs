//! Blocking cache client with connection pooling, bounded retries, and
//! a per-server circuit breaker.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use proteus_bloom::{BloomFilter, DigestSnapshot};
use proteus_cache::SharedBytes;
use proteus_obs::{EventTracer, TraceKind};
use proteus_ring::hash::splitmix64;

use crate::conn::{rest, room_end, OUT_HIGH_WATER};
use crate::error::NetError;
use crate::protocol::{
    parse_response, write_command_unflushed, RawCommand, Response, ValueItem, DIGEST_KEY,
    DIGEST_SNAPSHOT_KEY, MAX_GET_KEYS,
};

/// Tunables for one [`CacheClient`]'s fault-tolerance machinery.
///
/// The defaults suit a production cluster (generous timeouts, a couple
/// of quick retries, a breaker that fails fast after a burst of
/// consecutive transport errors). Integration tests and benches shrink
/// the timeouts so injected faults resolve in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Read/write timeout for one protocol exchange.
    pub op_timeout: Duration,
    /// TCP connect timeout (a dead host otherwise pays the OS SYN
    /// retransmit schedule, which is tens of seconds).
    pub connect_timeout: Duration,
    /// Transport-failure retries per operation (total attempts =
    /// `max_retries + 1`). Semantic errors never retry.
    pub max_retries: u32,
    /// First retry backoff; doubles per retry (with jitter).
    pub backoff_base: Duration,
    /// Upper bound for any single backoff sleep.
    pub backoff_cap: Duration,
    /// Consecutive transport failures that trip the circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before probing the server
    /// again.
    pub breaker_cooldown: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            op_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(1),
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
        }
    }
}

impl ClientConfig {
    /// A configuration with short timeouts and cooldowns, for tests and
    /// benches that inject faults and cannot afford multi-second
    /// timeouts per dead server.
    #[must_use]
    pub fn fast_failover() -> Self {
        ClientConfig {
            op_timeout: Duration::from_millis(150),
            connect_timeout: Duration::from_millis(150),
            max_retries: 1,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(2),
        }
    }
}

/// Cumulative fault-tolerance counters for one [`CacheClient`]
/// (a snapshot of lock-free atomics; see [`CacheClient::fault_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Operations retried after a transport failure.
    pub retries: u64,
    /// Fresh connections dialed (first use and reconnects alike).
    pub connects: u64,
    /// Closed→open breaker transitions.
    pub breaker_trips: u64,
    /// Operations rejected without touching the network because the
    /// breaker was open.
    pub fast_fails: u64,
    /// Half-open probes sent after a cooldown elapsed.
    pub probes: u64,
}

#[derive(Debug, Default)]
struct AtomicClientStats {
    retries: AtomicU64,
    connects: AtomicU64,
    breaker_trips: AtomicU64,
    fast_fails: AtomicU64,
    probes: AtomicU64,
}

impl AtomicClientStats {
    fn load(&self) -> ClientStats {
        ClientStats {
            retries: self.retries.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            fast_fails: self.fast_fails.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Traffic flows normally.
    Closed,
    /// Failing fast until the cooldown deadline.
    Open { until: Instant },
    /// One probe is in flight; everyone else still fails fast.
    HalfOpen,
}

/// Admission decision for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    Normal,
    Probe,
}

#[derive(Debug)]
struct Breaker {
    state: Mutex<BreakerState>,
    consecutive: AtomicU32,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: Mutex::new(BreakerState::Closed),
            consecutive: AtomicU32::new(0),
        }
    }

    /// Whether an attempt may proceed right now, and in what role.
    fn admit(&self) -> Result<Admission, ()> {
        let mut state = self.state.lock();
        match *state {
            BreakerState::Closed => Ok(Admission::Normal),
            BreakerState::Open { until } if Instant::now() >= until => {
                *state = BreakerState::HalfOpen;
                Ok(Admission::Probe)
            }
            BreakerState::Open { .. } | BreakerState::HalfOpen => Err(()),
        }
    }

    /// Records one success; returns `true` when this closed a
    /// previously open (or half-open) breaker — the recovery edge worth
    /// tracing.
    fn record_success(&self) -> bool {
        self.consecutive.store(0, Ordering::Relaxed);
        let mut state = self.state.lock();
        let reopened = !matches!(*state, BreakerState::Closed);
        *state = BreakerState::Closed;
        reopened
    }

    /// Records one transport failure; returns `true` when this failure
    /// transitions the breaker to open (a "trip").
    fn record_failure(&self, config: &ClientConfig) -> bool {
        let consecutive = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        let mut state = self.state.lock();
        match *state {
            // A failed probe swings straight back to open (not a fresh
            // trip for counting purposes — the outage is ongoing).
            BreakerState::HalfOpen => {
                *state = BreakerState::Open {
                    until: Instant::now() + config.breaker_cooldown,
                };
                false
            }
            BreakerState::Closed if consecutive >= config.breaker_threshold => {
                *state = BreakerState::Open {
                    until: Instant::now() + config.breaker_cooldown,
                };
                true
            }
            _ => false,
        }
    }
}

/// A connection's input buffer before its first reply, std's default
/// read-buffer size. It doubles only for a reply that does not fit: a
/// large value, or a long `VALUE` run such as a pull batch.
const INPUT_BYTES: usize = 8 << 10;

/// One client connection without its socket, kept for the connection's
/// life so a warmed exchange allocates nothing of its own: commands are
/// encoded into `out` and leave in a `write` each time [`OUT_HIGH_WATER`]
/// bytes have queued and once at the end, and each reply is parsed where
/// it lands in `input` (what `ConnCore` is to a server connection).
/// Like a server connection's, each buffer that one larger message (a
/// large value, a long `VALUE` run) grew past
/// [`REST_BYTES`](crate::conn::REST_BYTES) returns to it at the next
/// drain of traffic that fits ([`rest`]).
#[derive(Debug, Default)]
pub(crate) struct ClientCore {
    /// Zeroed when it grows, not per read: the bytes read end at `end`,
    /// and `pos` is the parse cursor.
    input: Vec<u8>,
    pos: usize,
    end: usize,
    out: Vec<u8>,
}

impl ClientCore {
    /// Encodes `cmd` behind whatever is already queued. Returns whether
    /// the queue has passed [`OUT_HIGH_WATER`] and wants sending before
    /// the next command.
    pub(crate) fn queue(&mut self, cmd: &RawCommand<'_>) -> bool {
        write_command_unflushed(&mut self.out, cmd).expect("writing to a Vec cannot fail");
        self.out.len() > OUT_HIGH_WATER
    }

    /// Bytes of buffer capacity this connection holds.
    fn capacity(&self) -> usize {
        self.input.capacity() + self.out.capacity()
    }

    /// Sends everything queued.
    pub(crate) fn flush_to(&mut self, sink: &mut impl Write) -> Result<(), NetError> {
        let (sent, queued) = (sink.write_all(&self.out), self.out.len());
        self.out.clear();
        rest(&mut self.out, queued);
        Ok(sent?)
    }

    /// Issues one `read` into the input buffer's unused tail (at most up
    /// to [`REST_BYTES`](crate::conn::REST_BYTES) while what it holds
    /// fits under that), after dropping the replies already parsed, and
    /// returns the bytes read. The buffer grows only when the one reply
    /// it holds fills it.
    pub(crate) fn read_from(&mut self, source: &mut impl Read) -> std::io::Result<usize> {
        if self.pos > 0 {
            self.input.copy_within(self.pos..self.end, 0);
            (self.end, self.pos) = (self.end - self.pos, 0);
        }
        if self.end == self.input.len() {
            self.input.resize((2 * self.end).max(INPUT_BYTES), 0);
        }
        let room = self.end..room_end(self.input.len(), self.end);
        let n = source.read(&mut self.input[room])?;
        self.end += n;
        Ok(n)
    }

    /// The next reply if it has wholly arrived, `Ok(None)` if not.
    pub(crate) fn next_reply(&mut self) -> Result<Option<Response>, NetError> {
        let Some((reply, used)) = parse_response(&self.input[self.pos..self.end])? else {
            return Ok(None);
        };
        self.pos += used;
        if self.pos == self.end {
            // Everything read is parsed: the next read starts at the
            // front, in a buffer back at rest if one reply had grown it.
            rest(&mut self.input, self.end);
            (self.pos, self.end) = (0, 0);
        }
        Ok(Some(reply))
    }

    /// Reads from `source` until the next reply has wholly arrived.
    pub(crate) fn recv(&mut self, source: &mut impl Read) -> Result<Response, NetError> {
        loop {
            if let Some(reply) = self.next_reply()? {
                return Ok(reply);
            }
            if self.read_from(source)? == 0 {
                return Err(NetError::Io(ErrorKind::UnexpectedEof.into()));
            }
        }
    }
}

/// A pooled connection: its socket beside its core.
type Conn = (TcpStream, ClientCore);

/// Clients this process has built, mixed into each one's jitter seed.
static CLIENTS_BUILT: AtomicU64 = AtomicU64::new(0);

/// A pooled, blocking client for one cache server.
///
/// Connections are created lazily, checked out per call, and returned
/// to the pool afterwards — the paper's web tier does the same with
/// Apache Commons Pool so servlet threads share connections.
///
/// Every operation is one exchange on one pooled connection: its
/// commands leave in one write and one reply per command is read back,
/// in order. So a batch (`set_many`, `add_many`, `delete_many`) pays
/// one round trip, and `get_many` one per [`MAX_GET_KEYS`] keys.
///
/// Every operation is fault tolerant:
///
/// - transport failures (broken pooled connection, refused connect,
///   read timeout) retry up to [`ClientConfig::max_retries`] times on a
///   **fresh** connection, with exponential backoff and jitter;
/// - after [`ClientConfig::breaker_threshold`] consecutive transport
///   failures the per-server circuit breaker opens and operations fail
///   fast with [`NetError::CircuitOpen`] — no connect timeout is paid —
///   until a cooldown elapses and a single probe tests the server
///   again;
/// - any answer, a semantic error ([`NetError::ServerError`], a
///   protocol violation) included, means the server is up: it never
///   retries, never trips the breaker, and closes a half-open one.
///
/// `CacheClient` is `Send + Sync`; clone-free sharing via `&` works
/// from multiple threads.
///
/// # Example
///
/// ```no_run
/// use proteus_net::{CacheClient, CacheServer};
/// use proteus_cache::CacheConfig;
///
/// let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20))?;
/// let client = CacheClient::connect(server.addr())?;
/// client.set(b"k", b"v")?;
/// assert_eq!(client.get(b"k")?.as_deref(), Some(&b"v"[..]));
/// # Ok::<(), proteus_net::NetError>(())
/// ```
#[derive(Debug)]
pub struct CacheClient {
    addr: SocketAddr,
    pool: Mutex<Vec<Conn>>,
    config: ClientConfig,
    breaker: Breaker,
    stats: AtomicClientStats,
    /// Optional transition tracer: breaker state changes for this
    /// server are recorded as lifecycle events (open / probe / close).
    /// Touched only on state *transitions*, never per operation.
    tracer: Mutex<Option<(Arc<EventTracer>, u32)>>,
    /// xorshift state for backoff jitter (quality is irrelevant; only
    /// decorrelation between concurrent retriers matters).
    jitter: AtomicU64,
}

impl CacheClient {
    /// Creates a client for the server at `addr` with default
    /// [`ClientConfig`] and verifies connectivity with one probe
    /// connection.
    ///
    /// # Errors
    ///
    /// Returns an error if the server is unreachable.
    pub fn connect(addr: SocketAddr) -> Result<CacheClient, NetError> {
        CacheClient::connect_with(addr, ClientConfig::default())
    }

    /// [`connect`](Self::connect) with explicit fault-tolerance
    /// tunables.
    ///
    /// # Errors
    ///
    /// Returns an error if the server is unreachable.
    pub fn connect_with(addr: SocketAddr, config: ClientConfig) -> Result<CacheClient, NetError> {
        let client = CacheClient::disconnected(addr, config);
        let probe = client.dial()?;
        client.checkin(probe);
        Ok(client)
    }

    /// Creates a client without probing connectivity. The first
    /// operation dials lazily; a dead server surfaces there (and trips
    /// the breaker like any other transport failure). This is what a
    /// web tier wants when some cache servers may be powered off at
    /// start-up.
    #[must_use]
    pub fn disconnected(addr: SocketAddr, config: ClientConfig) -> CacheClient {
        // Decorrelate jitter streams across clients without an RNG
        // dependency: hash the port, a wall-clock sample (which sets
        // processes apart) and the count of clients this process has
        // built (which sets apart two built in one clock tick).
        let wall = SystemTime::now().duration_since(UNIX_EPOCH);
        let sample = u64::from(addr.port()) ^ wall.map_or(0, |d| d.as_nanos() as u64);
        let seed =
            splitmix64(splitmix64(sample) ^ CLIENTS_BUILT.fetch_add(1, Ordering::Relaxed)) | 1;
        CacheClient {
            addr,
            pool: Mutex::new(Vec::new()),
            config,
            breaker: Breaker::new(),
            stats: AtomicClientStats::default(),
            tracer: Mutex::new(None),
            jitter: AtomicU64::new(seed),
        }
    }

    /// Attaches a transition tracer: from now on, circuit-breaker state
    /// changes are recorded as [`TraceKind::BreakerOpen`] /
    /// [`TraceKind::BreakerProbe`] / [`TraceKind::BreakerClose`] events
    /// tagged with `server` (the cluster's index for this client).
    pub fn attach_tracer(&self, tracer: Arc<EventTracer>, server: u32) {
        *self.tracer.lock() = Some((tracer, server));
    }

    /// Records a breaker lifecycle event if a tracer is attached.
    fn trace_breaker(&self, make: impl FnOnce(u32) -> TraceKind) {
        if let Some((tracer, server)) = self.tracer.lock().as_ref() {
            tracer.record(make(*server));
        }
    }

    /// Snapshot of the client-side fault-tolerance counters (retries,
    /// reconnects, breaker activity). The server's own `stats` command
    /// is [`stats`](Self::stats).
    #[must_use]
    pub fn fault_stats(&self) -> ClientStats {
        self.stats.load()
    }

    /// Bytes of buffer capacity the pooled connections hold (a
    /// connection checked out by an operation in flight is not
    /// counted until it is pooled again).
    pub(crate) fn buffer_bytes(&self) -> usize {
        self.pool
            .lock()
            .iter()
            .map(|(_, core)| core.capacity())
            .sum()
    }

    fn dial(&self) -> Result<Conn, NetError> {
        self.stats.connects.fetch_add(1, Ordering::Relaxed);
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.op_timeout))?;
        stream.set_write_timeout(Some(self.config.op_timeout))?;
        stream.set_nodelay(true)?;
        Ok((stream, ClientCore::default()))
    }

    fn checkout(&self) -> Result<Conn, NetError> {
        if let Some(conn) = self.pool.lock().pop() {
            return Ok(conn);
        }
        self.dial()
    }

    /// Pools `conn` again, unless it holds bytes past the last reply it
    /// was owed: those would be read as the reply to the next command.
    fn checkin(&self, (stream, core): Conn) {
        let mut pool = self.pool.lock();
        if pool.len() < 8 && core.pos == core.end {
            pool.push((stream, core));
        }
    }

    /// Drops every pooled connection. After one transport failure the
    /// rest of the pool is suspect (server restart, network blip), and
    /// reconnecting is cheaper than diagnosing each stream.
    fn poison_pool(&self) {
        self.pool.lock().clear();
    }

    fn jitter_sleep(&self, retry: u32) {
        // Exponential backoff with full-ish jitter: sleep uniformly in
        // [backoff/2, backoff), so concurrent retriers spread out.
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << retry.min(16))
            .min(self.config.backoff_cap);
        let mut x = self.jitter.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.store(x, Ordering::Relaxed);
        let nanos = exp.as_nanos() as u64;
        let jittered = nanos / 2 + x % (nanos / 2).max(1);
        std::thread::sleep(Duration::from_nanos(jittered));
    }

    /// Runs `attempt` under the retry + circuit-breaker policy:
    /// transport failures poison the pool, feed the breaker, and retry
    /// with backoff. Any other outcome, an error included, means the
    /// server answered: it closes the breaker and passes through. An
    /// open breaker fails fast with [`NetError::CircuitOpen`].
    fn with_failover<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut retry = 0u32;
        loop {
            let admission = match self.breaker.admit() {
                Ok(a) => a,
                Err(()) => {
                    self.stats.fast_fails.fetch_add(1, Ordering::Relaxed);
                    return Err(NetError::CircuitOpen(self.addr));
                }
            };
            if admission == Admission::Probe {
                self.stats.probes.fetch_add(1, Ordering::Relaxed);
                self.trace_breaker(|server| TraceKind::BreakerProbe { server });
            }
            match attempt() {
                Err(e @ NetError::Io(_)) => {
                    self.poison_pool();
                    if self.breaker.record_failure(&self.config) {
                        self.stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
                        self.trace_breaker(|server| TraceKind::BreakerOpen { server });
                        // The breaker just opened: stop burning retries,
                        // callers get the underlying error this once and
                        // fast CircuitOpen failures afterwards.
                        return Err(e);
                    }
                    if admission == Admission::Probe || retry >= self.config.max_retries {
                        return Err(e);
                    }
                    retry += 1;
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                    self.jitter_sleep(retry);
                }
                answered => {
                    if self.breaker.record_success() {
                        self.trace_breaker(|server| TraceKind::BreakerClose { server });
                    }
                    return answered;
                }
            }
        }
    }

    /// The one exchange every operation makes: checks out a connection,
    /// sends `commands` in one write and reads one reply per command, in
    /// order. `read` folds each reply into what the replies before it
    /// came to, starting from `init`, or hands back a reply its command
    /// cannot have, which ends the exchange with [`NetError::Protocol`].
    /// An `ERROR` reply ends it with [`NetError::ServerError`] before
    /// `read` sees it. The connection is pooled again only when every
    /// reply it was owed has been read and none was one its command
    /// cannot have: a batch cut short, or a server out of step, would
    /// hand a reply to the next command.
    ///
    /// The exchange retries under the failover policy on transport
    /// failures, each attempt folding from `init` afresh, so the
    /// commands must be harmless to replay.
    fn exchange<T: Clone>(
        &self,
        commands: &[RawCommand<'_>],
        init: T,
        read: impl Fn(T, Response) -> Result<T, Response>,
    ) -> Result<T, NetError> {
        if commands.is_empty() {
            return Ok(init);
        }
        self.with_failover(|| {
            let (mut stream, mut core) = self.checkout()?;
            for command in commands {
                if core.queue(command) {
                    core.flush_to(&mut stream)?;
                }
            }
            core.flush_to(&mut stream)?;
            let mut folded = init.clone();
            for still_owed in (0..commands.len()).rev() {
                folded = match core.recv(&mut stream)? {
                    Response::Error(msg) => {
                        if still_owed == 0 {
                            self.checkin((stream, core));
                        }
                        return Err(NetError::ServerError(msg));
                    }
                    reply => read(folded, reply).map_err(|other| {
                        NetError::Protocol(format!("unexpected reply {other:?}"))
                    })?,
                };
            }
            self.checkin((stream, core));
            Ok(folded)
        })
    }

    /// Fetches `key`, returning its value if cached.
    ///
    /// The value arrives as a [`SharedBytes`] buffer: the bytes were
    /// copied off the socket exactly once, and handing them onward
    /// (to a migration re-`set`, another thread, ...) is a refcount
    /// bump, not a copy.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn get(&self, key: &[u8]) -> Result<Option<SharedBytes>, NetError> {
        self.exchange(&[RawCommand::Get { key }], None, |_, reply| match reply {
            Response::Value { data, .. } => Ok(Some(data)),
            Response::Miss => Ok(None),
            other => Err(other),
        })
    }

    /// Fetches several keys (memcached `get k1 k2 ...`), one exchange
    /// per [`MAX_GET_KEYS`] of them. Results align with `keys`:
    /// position `i` holds `Some(value)` if `keys[i]` was cached, `None`
    /// if not. The server answers a chunk's hits in key order and
    /// leaves its misses out, so each `VALUE` block answers the first
    /// key left that it names; a block that names no key left fails the
    /// call with [`NetError::Protocol`].
    ///
    /// Each chunk retries on its own under the failover policy on
    /// transport failures, as a `get` does.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn get_many(&self, keys: &[&[u8]]) -> Result<Vec<Option<SharedBytes>>, NetError> {
        let mut chunks = keys.chunks(MAX_GET_KEYS).map(|chunk| {
            let command = match chunk {
                [key] => RawCommand::Get { key },
                keys => RawCommand::MultiGet {
                    keys: keys.to_vec(),
                },
            };
            self.exchange(&[command], Vec::new(), |_, reply| line_up(chunk, reply))
        });
        // The first chunk's answers grow into the whole batch's.
        let mut values = chunks.next().transpose()?.unwrap_or_default();
        for answers in chunks {
            values.extend(answers?);
        }
        Ok(values)
    }

    /// Stores `value` under `key`.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn set(&self, key: &[u8], value: &[u8]) -> Result<(), NetError> {
        self.exchange(&[set_command(key, value)], (), |(), reply| stored(reply))
    }

    /// Stores several `(key, value)` pairs in one pipelined exchange:
    /// every `set` is written before any reply is read, so a batch of
    /// N installs pays one round trip instead of N. The values are
    /// encoded straight from the caller's shared buffers, so a batch a
    /// `get` returned is re-`set` without a copy.
    ///
    /// The whole batch retries under the failover policy on transport
    /// failures (`set` is idempotent, so a replay is harmless).
    ///
    /// # Errors
    ///
    /// Returns transport errors or the first [`NetError::ServerError`]
    /// in the batch.
    pub fn set_many(&self, pairs: &[(&[u8], SharedBytes)]) -> Result<(), NetError> {
        let sets: Vec<RawCommand<'_>> = (pairs.iter())
            .map(|(key, value)| set_command(key, value))
            .collect();
        self.exchange(&sets, (), |(), reply| stored(reply))
    }

    /// [`set_many`](Self::set_many) with `add`: each pair is stored only
    /// if its key is absent, so a value that got there first — a newer
    /// one, written while this batch was on its way — is never
    /// overwritten. Returns how many of the pairs were stored.
    ///
    /// The whole batch retries under the failover policy on transport
    /// failures; a replay finds the pairs its first attempt stored
    /// already present, so the count can then read low, never high.
    ///
    /// # Errors
    ///
    /// Returns transport errors or the first [`NetError::ServerError`]
    /// in the batch.
    pub fn add_many(&self, pairs: &[(&[u8], SharedBytes)]) -> Result<u64, NetError> {
        let adds: Vec<RawCommand<'_>> = (pairs.iter())
            .map(|(key, value)| add_command(key, value))
            .collect();
        self.exchange(&adds, 0, |n, reply| Ok(n + u64::from(added(reply)?)))
    }

    /// Stores `value` only if `key` is absent (`add`); returns whether
    /// it was stored.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn add(&self, key: &[u8], value: &[u8]) -> Result<bool, NetError> {
        self.exchange(&[add_command(key, value)], false, |_, reply| added(reply))
    }

    /// Stores `value` only if `key` is present (`replace`); returns
    /// whether it was stored.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn replace(&self, key: &[u8], value: &[u8]) -> Result<bool, NetError> {
        let replace = RawCommand::Replace {
            key,
            flags: 0,
            exptime: 0,
            data: value,
        };
        self.exchange(&[replace], false, |_, reply| added(reply))
    }

    /// Refreshes `key`'s recency (`touch` with exptime 0, which also
    /// clears any expiry the item had); returns whether it existed.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn touch(&self, key: &[u8]) -> Result<bool, NetError> {
        let touch = RawCommand::Touch { key, exptime: 0 };
        self.exchange(&[touch], false, |_, reply| match reply {
            Response::Touched => Ok(true),
            Response::NotFound => Ok(false),
            other => Err(other),
        })
    }

    /// Adds `delta` to the numeric value under `key`, returning the new
    /// value, or `None` if the key is absent.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`] (e.g.
    /// a non-numeric stored value).
    pub fn incr(&self, key: &[u8], delta: u64) -> Result<Option<u64>, NetError> {
        self.exchange(&[RawCommand::Incr { key, delta }], None, |_, reply| {
            numeric(reply)
        })
    }

    /// Subtracts `delta` from the numeric value under `key` (floored at
    /// zero), returning the new value, or `None` if the key is absent.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn decr(&self, key: &[u8], delta: u64) -> Result<Option<u64>, NetError> {
        self.exchange(&[RawCommand::Decr { key, delta }], None, |_, reply| {
            numeric(reply)
        })
    }

    /// Clears the server's cache (`flush_all`).
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn flush_all(&self) -> Result<(), NetError> {
        self.exchange(&[RawCommand::FlushAll], (), |(), reply| match reply {
            Response::Ok => Ok(()),
            other => Err(other),
        })
    }

    /// The server's version string.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn version(&self) -> Result<String, NetError> {
        self.exchange(
            &[RawCommand::Version],
            String::new(),
            |_, reply| match reply {
                Response::Version(v) => Ok(v),
                other => Err(other),
            },
        )
    }

    /// Deletes `key`, returning whether it existed.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn delete(&self, key: &[u8]) -> Result<bool, NetError> {
        self.exchange(&[RawCommand::Delete { key }], false, |_, reply| {
            deleted(reply)
        })
    }

    /// Deletes several keys in one pipelined exchange: every `delete`
    /// is written before any reply is read, so deleting N keys pays
    /// one round trip instead of N. Returns how many of the keys
    /// existed.
    ///
    /// The whole batch retries under the failover policy on transport
    /// failures (`delete` is idempotent; a replayed delete just
    /// reports the key as already gone).
    ///
    /// # Errors
    ///
    /// Returns transport errors or the first [`NetError::ServerError`]
    /// in the batch.
    pub fn delete_many(&self, keys: &[&[u8]]) -> Result<u64, NetError> {
        let deletes: Vec<RawCommand<'_>> =
            keys.iter().map(|key| RawCommand::Delete { key }).collect();
        self.exchange(&deletes, 0, |n, reply| Ok(n + u64::from(deleted(reply)?)))
    }

    /// Retrieves the server's statistics as `(name, value)` pairs.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn stats(&self) -> Result<Vec<(String, String)>, NetError> {
        self.exchange(&[RawCommand::Stats], Vec::new(), |_, reply| {
            stat_pairs(reply)
        })
    }

    /// Retrieves the server's full telemetry registry (`stats proteus`):
    /// engine counters, connection gauges, and per-command latency
    /// percentiles, flattened to `(name, value)` pairs.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a [`NetError::ServerError`].
    pub fn stats_proteus(&self) -> Result<Vec<(String, String)>, NetError> {
        self.exchange(&[RawCommand::StatsProteus], Vec::new(), |_, reply| {
            stat_pairs(reply)
        })
    }

    /// Takes a fresh digest snapshot on the server and downloads it in
    /// one round trip: the multi-key `get SET_BLOOM_FILTER BLOOM_FILTER`,
    /// whose keys the server serves in order, decoded into a
    /// [`BloomFilter`]. Returns `None` if the server answered either
    /// key with a miss (no snapshot available).
    ///
    /// # Errors
    ///
    /// Returns transport errors or a decode failure
    /// ([`NetError::BadDigest`]).
    pub fn snapshot_digest(&self) -> Result<Option<BloomFilter>, NetError> {
        match &self.get_many(&[DIGEST_SNAPSHOT_KEY, DIGEST_KEY])?[..] {
            [Some(_taken), Some(bytes)] => Ok(Some(decode_digest(bytes)?)),
            _ => Ok(None),
        }
    }

    /// Downloads the last digest snapshot (`get BLOOM_FILTER`) without
    /// taking a new one.
    ///
    /// # Errors
    ///
    /// Returns transport errors or a decode failure.
    pub fn fetch_digest(&self) -> Result<Option<BloomFilter>, NetError> {
        self.get(DIGEST_KEY)?
            .map(|bytes| decode_digest(&bytes))
            .transpose()
    }
}

/// `set` of `data` under `key`, with no flags and no expiry.
fn set_command<'a>(key: &'a [u8], data: &'a [u8]) -> RawCommand<'a> {
    RawCommand::Set {
        key,
        flags: 0,
        exptime: 0,
        data,
    }
}

/// [`set_command`] with `add`.
fn add_command<'a>(key: &'a [u8], data: &'a [u8]) -> RawCommand<'a> {
    RawCommand::Add {
        key,
        flags: 0,
        exptime: 0,
        data,
    }
}

/// The reply to a `set`.
fn stored(reply: Response) -> Result<(), Response> {
    match reply {
        Response::Stored => Ok(()),
        other => Err(other),
    }
}

/// The reply to an `add` or a `replace`: whether it stored.
fn added(reply: Response) -> Result<bool, Response> {
    match reply {
        Response::Stored => Ok(true),
        Response::NotStored => Ok(false),
        other => Err(other),
    }
}

/// The reply to a `delete`: whether the key existed.
fn deleted(reply: Response) -> Result<bool, Response> {
    match reply {
        Response::Deleted => Ok(true),
        Response::NotFound => Ok(false),
        other => Err(other),
    }
}

/// The reply to an `incr` or a `decr`: the new value, `None` if the key
/// is absent.
fn numeric(reply: Response) -> Result<Option<u64>, Response> {
    match reply {
        Response::Numeric(v) => Ok(Some(v)),
        Response::NotFound => Ok(None),
        other => Err(other),
    }
}

/// The reply to `stats` or `stats proteus`.
fn stat_pairs(reply: Response) -> Result<Vec<(String, String)>, Response> {
    match reply {
        Response::Stats(pairs) => Ok(pairs),
        other => Err(other),
    }
}

/// The reply to a `get` of `keys`, lined up with them: the server
/// answers hits in key order and leaves misses out, so each `VALUE`
/// block answers the first key left that it names. A block that names
/// no key left is handed back as a reply the command cannot have.
fn line_up(keys: &[&[u8]], reply: Response) -> Result<Vec<Option<SharedBytes>>, Response> {
    let items = match reply {
        Response::Miss => Vec::new(),
        Response::Value { key, flags, data } => vec![ValueItem { key, flags, data }],
        Response::Values(items) => items,
        other => return Err(other),
    };
    let mut hits = items.into_iter().peekable();
    let values = (keys.iter())
        .map(|&key| hits.next_if(|hit| hit.key == key).map(|hit| hit.data))
        .collect();
    match hits.next() {
        None => Ok(values),
        Some(ValueItem { key, flags, data }) => Err(Response::Value { key, flags, data }),
    }
}

fn decode_digest(bytes: &[u8]) -> Result<BloomFilter, NetError> {
    Ok(DigestSnapshot::from_bytes(bytes)?.into_filter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::CacheServer;
    use proteus_cache::CacheConfig;

    #[test]
    fn connect_fails_fast_when_no_server() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(matches!(CacheClient::connect(addr), Err(NetError::Io(_))));
    }

    #[test]
    fn pool_reuses_connections() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let client = CacheClient::connect(server.addr()).unwrap();
        for i in 0..50u32 {
            client.set(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        // Sequential use should keep exactly one pooled connection.
        assert_eq!(client.pool.lock().len(), 1);
        // ... which means exactly one dial ever happened.
        assert_eq!(client.fault_stats().connects, 1);
        server.stop();
    }

    #[test]
    fn concurrent_clients_share_safely() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let client = std::sync::Arc::new(CacheClient::connect(server.addr()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = std::sync::Arc::clone(&client);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u32 {
                    let key = format!("t{t}:{i}");
                    c.set(key.as_bytes(), key.as_bytes()).unwrap();
                    assert_eq!(
                        c.get(key.as_bytes()).unwrap().as_deref(),
                        Some(key.as_bytes())
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server.stop();
    }

    #[test]
    fn delete_many_pipelines_and_counts_existing_keys() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let client = CacheClient::connect(server.addr()).unwrap();
        for i in 0..10u32 {
            client.set(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        // Half the batch exists, half never did.
        let keys: Vec<Vec<u8>> = (0..20u32).map(|i| format!("k{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        assert_eq!(client.delete_many(&refs).unwrap(), 10);
        for k in &refs {
            assert_eq!(client.get(k).unwrap(), None);
        }
        // Idempotent: a replay reports everything already gone.
        assert_eq!(client.delete_many(&refs).unwrap(), 0);
        assert_eq!(client.delete_many(&[]).unwrap(), 0);
        server.stop();
    }

    #[test]
    fn get_many_aligns_hits_and_misses() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let client = CacheClient::connect(server.addr()).unwrap();
        client.set(b"a", b"1").unwrap();
        client.set(b"c", b"3").unwrap();
        let got = client
            .get_many(&[
                b"a".as_slice(),
                b"b".as_slice(),
                b"c".as_slice(),
                b"a".as_slice(),
            ])
            .unwrap();
        let got: Vec<Option<&[u8]>> = got.iter().map(Option::as_deref).collect();
        assert_eq!(
            got,
            vec![Some(&b"1"[..]), None, Some(&b"3"[..]), Some(&b"1"[..])]
        );
        // Degenerate sizes.
        assert_eq!(
            client.get_many(&[]).unwrap(),
            Vec::<Option<SharedBytes>>::new()
        );
        assert_eq!(
            client.get_many(&[b"c".as_slice()]).unwrap()[0].as_deref(),
            Some(&b"3"[..])
        );
        assert_eq!(client.get_many(&[b"nope".as_slice()]).unwrap(), vec![None]);
        server.stop();
    }

    /// Batches above the wire's per-`get` key limit are split, and the
    /// answers still line up with the keys.
    #[test]
    fn get_many_splits_batches_above_the_wire_limit() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap();
        let client = CacheClient::connect(server.addr()).unwrap();
        let keys: Vec<Vec<u8>> = (0..3000u32).map(|i| format!("k{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        // Every third key is absent.
        let pairs: Vec<(&[u8], SharedBytes)> = (refs.iter().enumerate())
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, key)| (*key, SharedBytes::from(*key)))
            .collect();
        client.set_many(&pairs).unwrap();
        let check = |got: Vec<Option<SharedBytes>>| {
            assert_eq!(got.len(), keys.len());
            for (i, (key, value)) in keys.iter().zip(got).enumerate() {
                let expect = (i % 3 != 0).then_some(key.as_slice());
                assert_eq!(value.as_deref(), expect, "key {i}");
            }
        };
        check(client.get_many(&refs).unwrap());
        // Exactly at the limit is still one `get`.
        let at_limit = client.get_many(&refs[..MAX_GET_KEYS]).unwrap();
        assert_eq!(at_limit.len(), MAX_GET_KEYS);
        assert_eq!(
            client.fault_stats().connects,
            1,
            "one connection throughout"
        );
        server.stop();
    }

    #[test]
    fn add_many_stores_only_the_absent_keys() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let client = CacheClient::connect(server.addr()).unwrap();
        client.set(b"k1", b"first").unwrap();
        let keys: Vec<Vec<u8>> = (0..4u32).map(|i| format!("k{i}").into_bytes()).collect();
        let pairs: Vec<(&[u8], SharedBytes)> = keys
            .iter()
            .map(|k| (k.as_slice(), SharedBytes::from(&b"late"[..])))
            .collect();
        assert_eq!(client.add_many(&pairs).unwrap(), 3);
        assert_eq!(client.get(b"k1").unwrap().as_deref(), Some(&b"first"[..]));
        assert_eq!(client.get(b"k2").unwrap().as_deref(), Some(&b"late"[..]));
        // A replay stores nothing and overwrites nothing.
        assert_eq!(client.add_many(&pairs).unwrap(), 0);
        assert_eq!(client.add_many(&[]).unwrap(), 0);
        server.stop();
    }

    #[test]
    fn set_many_installs_every_pair_in_one_exchange() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let client = CacheClient::connect(server.addr()).unwrap();
        let pairs: Vec<(Vec<u8>, SharedBytes)> = (0..20u32)
            .map(|i| {
                (
                    format!("k{i}").into_bytes(),
                    SharedBytes::from(format!("v{i}").as_bytes()),
                )
            })
            .collect();
        let refs: Vec<(&[u8], SharedBytes)> = pairs
            .iter()
            .map(|(k, v)| (k.as_slice(), SharedBytes::clone(v)))
            .collect();
        client.set_many(&refs).unwrap();
        for (k, v) in &pairs {
            assert_eq!(client.get(k).unwrap().as_deref(), Some(&v[..]));
        }
        // The empty batch is a no-op, not a protocol exchange.
        client.set_many(&[]).unwrap();
        // The pipelined batch used one pooled connection throughout.
        assert_eq!(client.fault_stats().connects, 1);
        server.stop();
    }

    /// A pooled connection outlives its exchanges, so replies left
    /// unread on it would be handed to whoever checks it out next: a
    /// batch that stops at the first `ERROR` must drop the connection
    /// instead.
    ///
    /// The test relies on no order between connections: the dropped
    /// connection's `set c` may land before the next connection's
    /// `get c` or after it, or not at all, since the server promises
    /// nothing across connections. What it checks is that each `get`
    /// reads its own reply — a stale `STORED` would fail it as an
    /// unexpected reply — and that `a`, acknowledged before the
    /// error, reads back.
    #[test]
    fn a_batch_aborted_by_an_error_does_not_pool_its_connection() {
        // One shard of 64 KiB: a 128 KiB value is refused with `ERROR`
        // and the connection stays open for the commands behind it.
        let config = CacheConfig::with_capacity(64 << 10)
            .shards(1)
            .slab_page_bytes(16 << 10);
        let server = CacheServer::spawn("127.0.0.1:0", config).unwrap();
        let client = CacheClient::connect(server.addr()).unwrap();
        let small = SharedBytes::from(&b"small"[..]);
        let huge = SharedBytes::from(vec![0xAB; 128 << 10]);
        let batch = [
            (&b"a"[..], SharedBytes::clone(&small)),
            (&b"too-big"[..], huge),
            (&b"c"[..], SharedBytes::clone(&small)),
        ];
        assert!(matches!(
            client.set_many(&batch),
            Err(NetError::ServerError(_))
        ));
        // The third `STORED` was never read, so its connection is gone...
        assert!(client.pool.lock().is_empty());
        // ...and the next operations read their own replies, not that one.
        assert_eq!(client.get(b"a").unwrap().as_deref(), Some(&b"small"[..]));
        let c = client.get(b"c").unwrap();
        assert!(matches!(c.as_deref(), None | Some(b"small")), "{c:?}");
        assert_eq!(client.fault_stats().connects, 2);
        assert_eq!(client.fault_stats().retries, 0);
        server.stop();
    }

    /// A reply no command asked for, written behind the one that was
    /// owed, is never read as the next command's reply: a connection
    /// that holds unread bytes is dropped, not pooled.
    #[test]
    fn a_stray_reply_is_not_served_to_the_next_command() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One canned answer per connection, sent once its command came
        // in: one write on loopback, so one read.
        let fake = std::thread::spawn(move || {
            let answers = [
                &b"STORED\r\nVALUE other 0 5\r\nstale\r\nEND\r\n"[..],
                b"END\r\n",
            ];
            answers.map(|answer| {
                let mut stream = listener.accept().unwrap().0;
                assert!(stream.read(&mut [0; 256]).unwrap() > 0);
                stream.write_all(answer).unwrap();
                stream
            })
        });
        let client = CacheClient::connect(addr).unwrap();
        client.set(b"k", b"v").unwrap();
        assert_eq!(client.get(b"other").unwrap(), None);
        assert_eq!(client.fault_stats().connects, 2, "the get dialled afresh");
        drop(fake.join().unwrap());
    }

    /// A `VALUE` block for a key the `get` did not ask for is not
    /// dropped: it fails the call, which does not retry, and the
    /// connection that carried it is not pooled.
    #[test]
    fn a_get_many_reply_must_line_up_with_its_keys() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let answers = [&b"VALUE c 0 1\r\nx\r\nEND\r\n"[..], b"END\r\n"];
            answers.map(|answer| {
                let mut stream = listener.accept().unwrap().0;
                assert!(stream.read(&mut [0; 256]).unwrap() > 0);
                stream.write_all(answer).unwrap();
                stream
            })
        });
        let client = CacheClient::connect(addr).unwrap();
        let keys = [b"a".as_slice(), b"b".as_slice()];
        assert!(matches!(client.get_many(&keys), Err(NetError::Protocol(_))));
        assert_eq!(client.fault_stats().retries, 0);
        assert!(client.pool.lock().is_empty());
        assert_eq!(client.get_many(&keys).unwrap(), vec![None, None]);
        assert_eq!(client.fault_stats().connects, 2, "the retry dialled afresh");
        drop(fake.join().unwrap());
    }

    /// The client twin of the server's
    /// `replies_are_due_for_exactly_the_commands_that_have_arrived`: a
    /// reply stream fed to a core in three pieces, cut anywhere (inside
    /// a reply's first line and inside a run included), yields after
    /// each piece exactly the replies that have wholly arrived, in
    /// order, and then "not yet". The reference is the stream parsed
    /// whole, one reply after another.
    #[test]
    fn replies_come_out_exactly_when_they_have_wholly_arrived() {
        let stream: &[u8] = b"VALUE k 1 4\r\nv\r\nw\r\nEND\r\n\
            VALUE a 0 1\r\n1\r\nVALUE b 2 0\r\n\r\nVALUE c 0 2\r\n22\r\nEND\r\nEND\r\n\
            STORED\r\nNOT_STORED\r\nDELETED\r\nNOT_FOUND\r\nTOUCHED\r\n42\r\nOK\r\n\
            VERSION 1.6 proteus\r\nSTAT pid 7\r\nSTAT version 1 2\r\nEND\r\nERROR no such verb\r\n";
        let (mut expected, mut ends, mut pos) = (Vec::new(), Vec::new(), 0);
        while let Some((reply, used)) = parse_response(&stream[pos..]).unwrap() {
            pos += used;
            expected.push(reply);
            ends.push(pos);
        }
        assert_eq!((expected.len(), pos), (13, stream.len()));
        for first in 0..=stream.len() {
            for second in first..=stream.len() {
                let (mut core, mut got, mut fed) = (ClientCore::default(), Vec::new(), 0);
                for cut in [first, second, stream.len()] {
                    let mut piece = &stream[fed..cut];
                    while !piece.is_empty() {
                        core.read_from(&mut piece).unwrap();
                    }
                    fed = cut;
                    while let Some(reply) = core.next_reply().unwrap() {
                        got.push(reply);
                    }
                    let arrived = ends.iter().filter(|&&end| end <= fed).count();
                    assert_eq!(got, expected[..arrived], "cut at {first} and {second}");
                }
            }
        }
    }

    #[test]
    fn snapshot_digest_roundtrip() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let client = CacheClient::connect(server.addr()).unwrap();
        client.set(b"page:1", b"content").unwrap();
        let digest = client.snapshot_digest().unwrap().unwrap();
        assert!(digest.contains(b"page:1"));
        assert!(!digest.contains(b"page:2"));
        server.stop();
    }

    #[test]
    fn reconnects_when_pooled_connection_breaks() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let addr = server.addr();
        let client = CacheClient::connect_with(addr, ClientConfig::fast_failover()).unwrap();
        client.set(b"k", b"v").unwrap();
        // Kill the server; the pooled connection is now broken.
        server.stop();
        let server2 = CacheServer::spawn(addr, CacheConfig::with_capacity(1 << 20)).unwrap();
        // The stale pooled stream fails, the retry dials fresh, and the
        // operation succeeds against the restarted server.
        assert_eq!(client.get(b"k").unwrap(), None);
        let stats = client.fault_stats();
        assert!(stats.retries >= 1, "expected a retry, stats {stats:?}");
        assert!(stats.connects >= 2, "expected a reconnect, stats {stats:?}");
        // A multi-key read takes the same path: after a second restart
        // the stale pooled stream fails `get_many` once, and the retry
        // on a fresh connection answers in key order.
        server2.stop();
        let server3 = CacheServer::spawn(addr, CacheConfig::with_capacity(1 << 20)).unwrap();
        let writer = CacheClient::connect(addr).unwrap();
        writer.set(b"a", b"1").unwrap();
        writer.set(b"c", b"3").unwrap();
        let before = client.fault_stats();
        let got = client
            .get_many(&[b"a".as_slice(), b"b".as_slice(), b"c".as_slice()])
            .unwrap();
        let got: Vec<Option<&[u8]>> = got.iter().map(Option::as_deref).collect();
        assert_eq!(got, vec![Some(&b"1"[..]), None, Some(&b"3"[..])]);
        let after = client.fault_stats();
        assert_eq!(after.retries, before.retries + 1, "{after:?}");
        assert_eq!(after.connects, before.connects + 1, "{after:?}");
        server3.stop();
    }

    fn breaker_closed(client: &CacheClient) -> bool {
        matches!(*client.breaker.state.lock(), BreakerState::Closed)
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let addr = server.addr();
        let mut config = ClientConfig::fast_failover();
        config.breaker_cooldown = Duration::from_millis(100);
        let client = CacheClient::connect_with(addr, config).unwrap();
        client.set(b"k", b"v").unwrap();
        server.stop();

        // Failures accumulate until the breaker trips...
        let mut saw_io = 0;
        while client.fault_stats().breaker_trips == 0 {
            match client.get(b"k") {
                Err(NetError::Io(_)) => saw_io += 1,
                other => panic!("expected Io failure against dead server, got {other:?}"),
            }
            assert!(saw_io < 10, "breaker never opened");
        }
        assert_eq!(client.fault_stats().breaker_trips, 1);
        // ...then operations fail fast without touching the network.
        let dials_when_open = client.fault_stats().connects;
        for _ in 0..20 {
            match client.get(b"k") {
                Err(NetError::CircuitOpen(a)) => assert_eq!(a, addr),
                other => panic!("expected CircuitOpen, got {other:?}"),
            }
        }
        assert_eq!(
            client.fault_stats().connects,
            dials_when_open,
            "open breaker must not dial"
        );
        assert!(client.fault_stats().fast_fails >= 20);

        // After the cooldown, a probe finds the restarted server and
        // the breaker closes again.
        let server2 = CacheServer::spawn(addr, CacheConfig::with_capacity(1 << 20)).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(client.get(b"k").unwrap(), None);
        assert!(breaker_closed(&client));
        assert!(client.fault_stats().probes >= 1);
        client.set(b"k2", b"v2").unwrap();
        assert_eq!(client.get(b"k2").unwrap().as_deref(), Some(&b"v2"[..]));
        server2.stop();
    }

    #[test]
    fn server_errors_do_not_retry_or_trip_the_breaker() {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let client =
            CacheClient::connect_with(server.addr(), ClientConfig::fast_failover()).unwrap();
        client.set(b"text", b"not-a-number").unwrap();
        for _ in 0..5 {
            assert!(matches!(
                client.incr(b"text", 1),
                Err(NetError::ServerError(_))
            ));
        }
        let stats = client.fault_stats();
        assert_eq!(stats.retries, 0, "semantic errors must not retry");
        assert_eq!(stats.breaker_trips, 0);
        assert!(breaker_closed(&client));
        server.stop();
    }

    /// A breaker closes on the probe the server answers, whatever the
    /// answer: here an `ERROR` to a batch's only `set` (a 128 KiB value
    /// for a 64 KiB shard).
    #[test]
    fn a_probe_answered_with_an_error_closes_the_breaker() {
        let cache = CacheConfig::with_capacity(64 << 10)
            .shards(1)
            .slab_page_bytes(16 << 10);
        let server = CacheServer::spawn("127.0.0.1:0", cache).unwrap();
        let addr = server.addr();
        let mut config = ClientConfig::fast_failover();
        config.breaker_cooldown = Duration::from_millis(100);
        let client = CacheClient::connect_with(addr, config).unwrap();
        server.stop();
        for attempt in 0.. {
            assert!(attempt < 10, "breaker never opened");
            if client.fault_stats().breaker_trips == 1 {
                break;
            }
            assert!(matches!(client.get(b"k"), Err(NetError::Io(_))));
        }
        let server = CacheServer::spawn(addr, cache).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let huge = SharedBytes::from(vec![0xAB; 128 << 10]);
        assert!(matches!(
            client.set_many(&[(&b"too-big"[..], huge)]),
            Err(NetError::ServerError(_))
        ));
        assert!(
            breaker_closed(&client),
            "the answered probe left it half-open"
        );
        assert_eq!(client.get(b"k").unwrap(), None);
        assert!(breaker_closed(&client));
        assert_eq!(client.fault_stats().probes, 1);
        server.stop();
    }

    /// The same for a probe answered with bytes that are no reply.
    #[test]
    fn a_probe_answered_with_garbage_closes_the_breaker() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap().0;
            assert!(stream.read(&mut [0; 256]).unwrap() > 0);
            stream.write_all(b"GARBAGE\r\n").unwrap();
            stream
        });
        let client = CacheClient::disconnected(addr, ClientConfig::fast_failover());
        *client.breaker.state.lock() = BreakerState::Open {
            until: Instant::now(),
        };
        assert!(matches!(client.get(b"k"), Err(NetError::Protocol(_))));
        assert!(
            breaker_closed(&client),
            "the answered probe left it half-open"
        );
        assert_eq!(client.fault_stats().probes, 1);
        drop(fake.join().unwrap());
    }

    /// Two clients built on one code path for one server back off on
    /// different schedules.
    #[test]
    fn clients_for_one_address_draw_different_jitter() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let [a, b] = [(); 2].map(|()| CacheClient::disconnected(addr, ClientConfig::default()));
        assert_ne!(
            a.jitter.load(Ordering::Relaxed),
            b.jitter.load(Ordering::Relaxed)
        );
    }
}
