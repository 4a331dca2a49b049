//! Fd-exhaustion regression tests for the epoll reactor: it survives a
//! transient `EMFILE` on accept and resumes serving, and a spawn that
//! runs out of fds part-way leaves no event loop behind.
//!
//! The accept policy under test is `accept_retry_delay`, which the
//! reactor's accept thread applies to the `io::Error` it gets from
//! `accept(2)`. The scenario:
//!
//! 1. exhaust the process fd table for real — every fd *number* below
//!    `RLIMIT_NOFILE` occupied by a placeholder (the limit is clamped
//!    to 512 first, to keep the fill cheap);
//! 2. park client connections — their TCP handshakes complete in the
//!    kernel via the listen backlog, needing no server-side fd — and
//!    watch the reactor hit `EMFILE` on accept without dying, spinning,
//!    or disturbing connections that are already being served;
//! 3. release the placeholders: the backed-off accept retries, adopts
//!    the parked connection, and serves the requests that sat in its
//!    socket the whole time.
//!
//! An accept path that died at step 2 times out at step 3.
//!
//! The reactor's accept thread blocks inside `accept(2)`, and Linux
//! reserves the result fd number at syscall *entry* — before blocking —
//! so the accept that was already parked when the table filled up
//! completes on its pre-fill reservation. The first client therefore
//! gets served mid-exhaustion (asserted — it proves accept-boundary
//! exhaustion leaves live service untouched) and the *next* accept
//! hits `EMFILE`.
//!
//! The threaded plane is exercised for the same policy by the unit
//! tests on `accept_retry_delay` instead: its blocking accept holds
//! the same entry-time reservation *and* needs two `try_clone` fds per
//! connection, so fd-table fault injection races the accept thread for
//! every freed slot and cannot be made deterministic from outside.
//!
//! One sequential `#[test]` covers both scenarios because the fd
//! table, `RLIMIT_NOFILE` and `/proc/self/status`'s thread count are
//! process-wide state (this integration test is its own process, and
//! in-process parallelism is what must be avoided).

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::FromRawFd;
use std::time::{Duration, Instant};

use proteus_cache::CacheConfig;
use proteus_net::{CacheServer, EngineKind, NetError, ServerConfig};

// Raw rlimit/socket FFI: std exposes neither, and this test crate is
// outside the lib's `#![deny(unsafe_code)]` boundary.
const RLIMIT_NOFILE: i32 = 7;
const AF_INET: i32 = 2;
const SOCK_STREAM: i32 = 1;

/// Low enough that filling the table is instant, high enough that the
/// server's own fds (listener, epoll instances, eventfds, pre-fault
/// connection) never come close.
const CLAMPED_LIMIT: u64 = 512;

#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    cur: u64,
    max: u64,
}

#[repr(C)]
struct SockaddrIn {
    family: u16,
    port_be: u16,
    addr_be: u32,
    zero: [u8; 8],
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
}

fn nofile_limit() -> Rlimit {
    let mut lim = Rlimit { cur: 0, max: 0 };
    let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) };
    assert_eq!(rc, 0, "getrlimit failed");
    lim
}

fn set_nofile_cur(cur: u64, original: Rlimit) {
    let lim = Rlimit {
        cur,
        max: original.max,
    };
    let rc = unsafe { setrlimit(RLIMIT_NOFILE, &lim) };
    assert_eq!(rc, 0, "setrlimit({cur}) failed");
}

/// Occupies every free fd number below the limit. `File::open` fails
/// with `EMFILE` exactly when no number below `RLIMIT_NOFILE` is free.
fn fill_fd_table() -> Vec<File> {
    let mut fill = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => fill.push(f),
            Err(e) => {
                assert_eq!(
                    e.raw_os_error(),
                    Some(24),
                    "table fill must end in EMFILE, got {e:?}"
                );
                return fill;
            }
        }
    }
}

/// A TCP socket whose fd is allocated *now* (while fds are plentiful)
/// but which connects later — `connect(2)` needs no new fd, so the
/// second client can reach the server from inside the exhaustion.
struct PreSocket(i32);

impl PreSocket {
    fn new() -> Self {
        let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
        assert!(fd >= 0, "socket() failed");
        PreSocket(fd)
    }

    fn connect(self, addr: SocketAddr) -> TcpStream {
        let SocketAddr::V4(v4) = addr else {
            panic!("test listener is always IPv4");
        };
        let sin = SockaddrIn {
            family: AF_INET as u16,
            port_be: v4.port().to_be(),
            addr_be: u32::from(*v4.ip()).to_be(),
            zero: [0; 8],
        };
        let rc = unsafe { connect(self.0, &sin, std::mem::size_of::<SockaddrIn>() as u32) };
        assert_eq!(rc, 0, "connect() on pre-created socket failed");
        let fd = self.0;
        std::mem::forget(self);
        unsafe { TcpStream::from_raw_fd(fd) }
    }
}

impl Drop for PreSocket {
    fn drop(&mut self) {
        drop(unsafe { File::from_raw_fd(self.0) });
    }
}

/// OS threads in this process, from `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("a Threads: line").trim().parse().unwrap()
}

/// A reactor whose fourth loop cannot get its fds fails to spawn, and
/// the three loops it had started are gone within a second: they hold
/// the server's shared state, and no `CacheServer` exists whose drop
/// would stop them.
fn failed_spawn_leaves_no_loop_running() {
    let threads_before = os_threads();
    let mut fill = fill_fd_table();
    // The listener, then an eventfd and an epoll instance for each of
    // three loops; the fourth loop's eventfd hits EMFILE.
    fill.truncate(fill.len() - (1 + 2 * 3));
    let spawned = CacheServer::spawn_with(
        "127.0.0.1:0",
        CacheConfig::with_capacity(1 << 20),
        ServerConfig {
            engine: EngineKind::Reactor { loops: 64 },
        },
    );
    drop(fill);
    let err = spawned.expect_err("64 loops cannot get their fds from 7 free slots");
    assert!(
        matches!(&err, NetError::Io(e) if e.raw_os_error() == Some(24)),
        "expected EMFILE, got {err}"
    );
    // A joined thread leaves `/proc`'s count a moment after the join.
    let deadline = Instant::now() + Duration::from_secs(1);
    while os_threads() > threads_before {
        assert!(
            Instant::now() < deadline,
            "a failed spawn left {} threads running",
            os_threads() - threads_before
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn exercise_reactor() {
    let engine = EngineKind::Reactor { loops: 1 };
    let server = CacheServer::spawn_with(
        "127.0.0.1:0",
        CacheConfig::with_capacity(1 << 20),
        ServerConfig { engine },
    )
    .unwrap();
    assert_eq!(server.engine_kind(), engine, "plane must not fall back");
    let addr = server.addr();

    // Prove the server serves before the fault.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"set pre 0 0 2\r\nok\r\nquit\r\n").unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        assert_eq!(&out[..], b"STORED\r\n", "{engine:?} pre-fault");
    }

    // The server releases the pre-fault connection's fds *after* the
    // client sees EOF. Let the table settle before filling it, or a
    // slot freed afterwards would punch an allocatable hole in the
    // exhaustion.
    let settle = std::time::Instant::now();
    while server.metrics().curr_connections() != 0 {
        assert!(
            settle.elapsed() < Duration::from_secs(5),
            "pre-fault connection never drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(50));

    // The second client's fd, allocated while allocation still works.
    let second_socket = PreSocket::new();

    // Exhaust the table, then free exactly one slot (the last
    // placeholder's own number — the kernel allocates lowest-free, so
    // every other number below the limit stays occupied) for the first
    // client's socket.
    let mut fill = fill_fd_table();
    drop(fill.pop().expect("the fill is never empty"));

    // First client: spends the one free slot on its own socket. Its
    // connection is adopted via the accept thread's pre-fill fd
    // reservation and served normally.
    let mut first = TcpStream::connect(addr).expect("connect via backlog");
    first
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    first.write_all(b"get pre\r\n").unwrap();
    let mut buf = [0u8; 64];
    let n = first.read(&mut buf).unwrap();
    assert_eq!(
        &buf[..n],
        b"VALUE pre 0 2\r\nok\r\nEND\r\n",
        "the pre-reserved accept must still serve mid-exhaustion"
    );
    // `first` stays open, pinning its fd and keeping the plane visibly
    // mid-service while accept is starved.

    // Second client: zero allocatable fds remain, so this connection
    // can only park in the listen backlog behind a failing accept.
    let mut second = second_socket.connect(addr);
    second
        .set_read_timeout(Some(Duration::from_millis(150)))
        .unwrap();
    second.write_all(b"get pre\r\nquit\r\n").unwrap();
    // Parked means parked: no reply arrives while the table is full.
    // (This is the discriminating assertion — if the fault failed to
    // bite, the reply would land well within the timeout.)
    let mut probe = [0u8; 1];
    match second.read(&mut probe) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => {
            panic!("{engine:?}: second connection must stay parked under EMFILE, got {other:?}")
        }
    }

    // Recovery: release the placeholders; the backed-off accept must
    // retry, adopt the parked socket, and serve the requests queued
    // there.
    drop(fill);
    second
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    second
        .read_to_end(&mut out)
        .expect("parked connection must eventually be served");
    assert_eq!(
        &out[..],
        b"VALUE pre 0 2\r\nok\r\nEND\r\n",
        "{engine:?} must serve the connection parked through EMFILE, got {:?}",
        String::from_utf8_lossy(&out)
    );
    drop(first);

    // And the accept path is fully healthy for new connections.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"get pre\r\nquit\r\n").unwrap();
    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    assert_eq!(&out[..], b"VALUE pre 0 2\r\nok\r\nEND\r\n");
    server.stop();
}

#[test]
fn accept_survives_fd_exhaustion_on_event_planes() {
    let original = nofile_limit();
    // A small limit keeps each fill instant.
    set_nofile_cur(CLAMPED_LIMIT.min(original.cur), original);
    failed_spawn_leaves_no_loop_running();
    exercise_reactor();
    set_nofile_cur(original.cur, original);
    // Whatever happened, the process limit is back where it started.
    assert_eq!(nofile_limit().cur, original.cur);
}
