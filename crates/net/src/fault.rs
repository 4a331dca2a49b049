//! TCP fault-injection proxy for failure testing.
//!
//! [`FaultProxy`] sits between a client and a real [`CacheServer`],
//! forwarding bytes in both directions until told to misbehave. Tests
//! point a client at the proxy's address and then flip the
//! [`FaultMode`] at runtime to simulate the failures the paper's power
//! policy produces in production: a server powered off mid-traffic
//! (connection resets), a wedged server (accepted connections that
//! never answer), a congested link (added latency), or a crash halfway
//! through a response.
//!
//! [`CacheServer`]: crate::CacheServer

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use proteus_obs::accept_retry_delay;

use crate::error::NetError;

/// How the proxy treats traffic right now. Switch at runtime with
/// [`FaultProxy::set_mode`]; the mode applies to new connections and,
/// for [`Blackhole`](FaultMode::Blackhole) and
/// [`CutResponses`](FaultMode::CutResponses), to in-flight ones too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Forward bytes faithfully in both directions.
    Forward,
    /// Refuse service abruptly: accepted connections are reset
    /// immediately and existing connections are torn down. Models a
    /// server killed by the power policy.
    Reset,
    /// Accept connections but never forward or answer anything.
    /// Models a wedged server or a silently dropped route — the
    /// client's *operation timeout* (not connect timeout) is what
    /// rescues it.
    Blackhole,
    /// Forward, but delay each upstream write by the given amount.
    /// Models a congested or distant link.
    Latency(Duration),
    /// Forward the request upstream, then cut the connection after
    /// relaying at most this many bytes of the response. Models a
    /// crash mid-response; exercises the client's reconnect-and-retry
    /// path with a half-delivered payload in its buffer.
    CutResponses(usize),
}

#[derive(Debug, Default)]
struct ProxyStats {
    accepted: AtomicU64,
    resets: AtomicU64,
    blackholed: AtomicU64,
    cut: AtomicU64,
}

struct Shared {
    upstream: SocketAddr,
    mode: Mutex<FaultMode>,
    // Generation counter: bumped on every set_mode so long-lived
    // relay loops notice Blackhole/Reset flips promptly.
    generation: AtomicUsize,
    shutdown: AtomicBool,
    stats: ProxyStats,
    conns: Mutex<Vec<TcpStream>>,
}

impl Shared {
    fn mode(&self) -> FaultMode {
        *self.mode.lock()
    }

    fn register(&self, stream: &TcpStream) {
        if let Ok(clone) = stream.try_clone() {
            let mut conns = self.conns.lock();
            conns.retain(|s| s.take_error().is_ok());
            conns.push(clone);
        }
    }

    fn teardown_conns(&self) {
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// A controllable TCP forwarder for fault-injection tests: listens on
/// an ephemeral local port, relays to one upstream server, and
/// misbehaves on command (see [`FaultMode`]).
///
/// ```no_run
/// use proteus_cache::CacheConfig;
/// use proteus_net::{CacheClient, CacheServer, FaultMode, FaultProxy};
///
/// let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20))?;
/// let proxy = FaultProxy::spawn(server.addr())?;
/// let client = CacheClient::connect(proxy.addr())?;
/// client.set(b"k", b"v")?;
/// proxy.set_mode(FaultMode::Blackhole); // the "server" goes dark
/// assert!(client.get(b"k").is_err());
/// proxy.stop();
/// server.stop();
/// # Ok::<(), proteus_net::NetError>(())
/// ```
pub struct FaultProxy {
    shared: Arc<Shared>,
    local: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral `127.0.0.1` port relaying to
    /// `upstream`, initially in [`FaultMode::Forward`].
    ///
    /// # Errors
    ///
    /// Returns an error if the listening socket cannot be bound.
    pub fn spawn(upstream: SocketAddr) -> Result<FaultProxy, NetError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            upstream,
            mode: Mutex::new(FaultMode::Forward),
            generation: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            stats: ProxyStats::default(),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("fault-proxy-{local}"))
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(NetError::Io)?;
        Ok(FaultProxy {
            shared,
            local,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// Switches the failure mode. [`Reset`](FaultMode::Reset) and
    /// [`Blackhole`](FaultMode::Blackhole) also tear down in-flight
    /// connections so the change takes effect immediately.
    pub fn set_mode(&self, mode: FaultMode) {
        *self.shared.mode.lock() = mode;
        self.shared.generation.fetch_add(1, Ordering::SeqCst);
        if matches!(mode, FaultMode::Reset | FaultMode::Blackhole) {
            self.shared.teardown_conns();
        }
    }

    /// Connections accepted since spawn — the measure of how hard
    /// clients hammered this endpoint. With a working circuit breaker
    /// this stays O(probes) while a server is down, not O(requests).
    #[must_use]
    pub fn connections_accepted(&self) -> u64 {
        self.shared.stats.accepted.load(Ordering::Relaxed)
    }

    /// Responses cut short by [`FaultMode::CutResponses`].
    #[must_use]
    pub fn responses_cut(&self) -> u64 {
        self.shared.stats.cut.load(Ordering::Relaxed)
    }

    /// Stops the proxy and tears down every relayed connection.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local, Duration::from_millis(200));
        self.shared.teardown_conns();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_inner();
        }
    }
}

impl std::fmt::Debug for FaultProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultProxy")
            .field("addr", &self.local)
            .field("upstream", &self.shared.upstream)
            .field("mode", &self.shared.mode())
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        let downstream = match listener.accept() {
            Ok((downstream, _)) => downstream,
            Err(e) => {
                // Back off as the server does, or fd exhaustion spins.
                if let Some(delay) = accept_retry_delay(&e) {
                    std::thread::sleep(delay);
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        match shared.mode() {
            FaultMode::Reset => {
                shared.stats.resets.fetch_add(1, Ordering::Relaxed);
                // Immediate close: the client's next read sees EOF (or
                // RST if bytes were in flight) — a dead server either way.
                let _ = downstream.shutdown(Shutdown::Both);
                drop(downstream);
            }
            FaultMode::Blackhole => {
                shared.stats.blackholed.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                spawn_detached(move || blackhole(downstream, &shared));
            }
            FaultMode::Forward | FaultMode::Latency(_) | FaultMode::CutResponses(_) => {
                let shared = Arc::clone(shared);
                spawn_detached(move || relay_connection(downstream, &shared));
            }
        }
    }
}

fn spawn_detached(f: impl FnOnce() + Send + 'static) {
    let _ = std::thread::Builder::new()
        .name("fault-proxy-conn".into())
        .spawn(f);
}

/// Holds the connection open without ever reading or answering, until
/// the mode changes or the proxy stops.
fn blackhole(stream: TcpStream, shared: &Shared) {
    shared.register(&stream);
    let born = shared.generation.load(Ordering::SeqCst);
    while !shared.shutdown.load(Ordering::SeqCst)
        && shared.generation.load(Ordering::SeqCst) == born
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Bidirectional relay with per-direction fault hooks. The
/// client→server direction runs on this thread; server→client on a
/// second one. Short read timeouts keep both loops responsive to mode
/// flips and shutdown.
fn relay_connection(downstream: TcpStream, shared: &Arc<Shared>) {
    let Ok(upstream) = TcpStream::connect_timeout(&shared.upstream, Duration::from_secs(2)) else {
        let _ = downstream.shutdown(Shutdown::Both);
        return;
    };
    shared.register(&downstream);
    shared.register(&upstream);
    let born = shared.generation.load(Ordering::SeqCst);

    let up_read = match upstream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let down_write = match downstream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let response_shared = Arc::clone(shared);
    let response_thread = std::thread::Builder::new()
        .name("fault-proxy-resp".into())
        .spawn(move || relay_responses(up_read, down_write, &response_shared, born));

    relay_requests(downstream, upstream, shared, born);
    if let Ok(handle) = response_thread {
        let _ = handle.join();
    }
}

/// client → server: applies [`FaultMode::Latency`] before each write.
fn relay_requests(downstream: TcpStream, mut upstream: TcpStream, shared: &Shared, born: usize) {
    let mut downstream = downstream;
    let _ = downstream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut buf = [0u8; 16 * 1024];
    loop {
        if shared.shutdown.load(Ordering::SeqCst)
            || shared.generation.load(Ordering::SeqCst) != born
                && matches!(shared.mode(), FaultMode::Reset | FaultMode::Blackhole)
        {
            break;
        }
        match downstream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if let FaultMode::Latency(delay) = shared.mode() {
                    std::thread::sleep(delay);
                }
                if upstream.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    let _ = upstream.shutdown(Shutdown::Both);
    let _ = downstream.shutdown(Shutdown::Both);
}

/// server → client: applies [`FaultMode::CutResponses`], killing the
/// connection after relaying at most N bytes of a response burst.
fn relay_responses(
    mut upstream: TcpStream,
    mut downstream: TcpStream,
    shared: &Shared,
    born: usize,
) {
    let _ = upstream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut buf = [0u8; 16 * 1024];
    loop {
        if shared.shutdown.load(Ordering::SeqCst)
            || shared.generation.load(Ordering::SeqCst) != born
                && matches!(shared.mode(), FaultMode::Reset | FaultMode::Blackhole)
        {
            break;
        }
        match upstream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let allowed = match shared.mode() {
                    FaultMode::CutResponses(limit) => limit.min(n),
                    _ => n,
                };
                if downstream.write_all(&buf[..allowed]).is_err() {
                    break;
                }
                if allowed < n {
                    shared.stats.cut.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    let _ = downstream.shutdown(Shutdown::Both);
    let _ = upstream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CacheClient, ClientConfig};
    use crate::server::CacheServer;
    use proteus_cache::CacheConfig;

    fn rig() -> (CacheServer, FaultProxy, CacheClient) {
        let server =
            CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap();
        let proxy = FaultProxy::spawn(server.addr()).unwrap();
        let client =
            CacheClient::connect_with(proxy.addr(), ClientConfig::fast_failover()).unwrap();
        (server, proxy, client)
    }

    #[test]
    fn forwards_faithfully() {
        let (server, proxy, client) = rig();
        client.set(b"k", b"v").unwrap();
        assert_eq!(client.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        assert!(proxy.connections_accepted() >= 1);
        proxy.stop();
        server.stop();
    }

    #[test]
    fn reset_mode_breaks_requests_then_recovery_works() {
        let (server, proxy, client) = rig();
        client.set(b"k", b"v").unwrap();
        proxy.set_mode(FaultMode::Reset);
        assert!(client.get(b"k").unwrap_err().is_transport());
        assert!(proxy.shared.stats.resets.load(Ordering::Relaxed) >= 1);
        proxy.set_mode(FaultMode::Forward);
        // Breaker may be open; wait out the cooldown then confirm the
        // value survived on the real server.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match client.get(b"k") {
                Ok(v) => {
                    assert_eq!(v.as_deref(), Some(&b"v"[..]));
                    break;
                }
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("never recovered: {e}"),
            }
        }
        proxy.stop();
        server.stop();
    }

    #[test]
    fn blackhole_times_out_instead_of_hanging() {
        let (server, proxy, client) = rig();
        client.set(b"k", b"v").unwrap();
        proxy.set_mode(FaultMode::Blackhole);
        let start = std::time::Instant::now();
        assert!(client.get(b"k").unwrap_err().is_transport());
        // fast_failover: 150 ms op timeout, 1 retry — well under 2 s.
        assert!(start.elapsed() < Duration::from_secs(2));
        assert!(proxy.shared.stats.blackholed.load(Ordering::Relaxed) >= 1);
        proxy.stop();
        server.stop();
    }

    #[test]
    fn latency_mode_still_answers() {
        let (server, proxy, client) = rig();
        client.set(b"k", b"v").unwrap();
        proxy.set_mode(FaultMode::Latency(Duration::from_millis(10)));
        let start = std::time::Instant::now();
        assert_eq!(client.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        assert!(start.elapsed() >= Duration::from_millis(10));
        proxy.stop();
        server.stop();
    }

    #[test]
    fn cut_responses_forces_a_retry_that_succeeds_off_proxy() {
        let (server, proxy, client) = rig();
        client
            .set(b"key-with-a-value", b"0123456789abcdef")
            .unwrap();
        proxy.set_mode(FaultMode::CutResponses(3));
        // The cut connection surfaces as a transport error; the
        // client retries on a fresh connection, which gets cut again —
        // so the op fails, but cleanly, and counting shows the cut.
        assert!(client.get(b"key-with-a-value").unwrap_err().is_transport());
        assert!(proxy.responses_cut() >= 1);
        proxy.set_mode(FaultMode::Forward);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match client.get(b"key-with-a-value") {
                Ok(v) => {
                    assert_eq!(v.as_deref(), Some(&b"0123456789abcdef"[..]));
                    break;
                }
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("never recovered: {e}"),
            }
        }
        proxy.stop();
        server.stop();
    }
}
