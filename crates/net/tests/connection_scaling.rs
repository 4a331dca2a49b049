//! What a parked connection costs each data plane, and what an
//! operation costs in syscalls.
//!
//! The threaded plane spends one OS thread per attached socket, so 512
//! parked memcached clients are 512 stacks before a byte of work
//! arrives; the epoll reactor multiplexes every connection onto a
//! fixed set of loops. On the reactor: 512 parked sockets, each proven
//! adopted by a `version` round trip, 8 workers running a 90/10
//! get/set mix with every reply compared byte for byte, a sample of
//! the parked sockets answering afterwards, at most 8 threads added by
//! the server, and at most `SYSCALLS_PER_OP_CEILING` data-plane
//! syscalls per operation (the server's own `plane_syscalls` counter).
//! (`benchmark/` prints the numbers: `server.<plane>.syscalls_per_op`,
//! `server.threads`.)
//!
//! One `#[test]` in a file — a process — of its own: `Threads:` in
//! `/proc/self/status` is process-wide.

use std::io::{BufRead, BufReader, Write};
use std::mem::discriminant;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Duration;

use proteus_cache::CacheConfig;
use proteus_net::{CacheServer, EngineKind, ServerConfig};

const PARKED: usize = 512;
const WORKERS: usize = 8;
const OPS_PER_WORKER: u64 = 2_000;
const KEYS_PER_WORKER: u64 = 64;
/// Event loops plus the acceptor.
const THREAD_BUDGET: usize = 8;
/// A reactor operation costs about three syscalls (2.57–3.06 over ten
/// release runs on a 2-core x86-64 host): the `epoll_wait` that reports
/// the socket readable, the `read` of the command and the `write` of the
/// reply. A read shorter than the buffer ends the drain, so no `read`
/// returns `EAGAIN`. The ceiling sits 5 % above the highest of those
/// runs; an `epoll_ctl` or a draining `read` per operation, which a
/// regression in interest re-arming or in `fill_in` would add, breaks it.
const SYSCALLS_PER_OP_CEILING: f64 = 3.2;

/// OS threads in this process (the server shares it with the test),
/// or 0 where there is no `/proc`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.map_or(0, |v| v.trim().parse().unwrap())
}

/// One `version` round trip: the server has accepted this socket and
/// is serving it.
fn touch(stream: &mut TcpStream) {
    stream.write_all(b"version\r\n").unwrap();
    let mut line = String::new();
    let read = BufReader::new(&*stream).read_line(&mut line);
    read.expect("a parked socket died");
    assert!(line.starts_with("VERSION"), "{line:?}");
}

fn reply_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    assert_ne!(reader.read_line(&mut line).unwrap(), 0, "EOF mid-reply");
    line
}

fn set(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, key: &str, value: &str) {
    write!(stream, "set {key} 0 0 {}\r\n{value}\r\n", value.len()).unwrap();
    assert_eq!(reply_line(reader), "STORED\r\n");
}

/// One active client: a private key set, then `OPS_PER_WORKER`
/// operations, one in ten a `set`, every reply checked in full.
fn worker(addr: SocketAddr, w: usize, start: &Barrier) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let value = String::from_utf8(vec![b'a' + (w % 26) as u8; 32]).unwrap();
    for k in 0..KEYS_PER_WORKER {
        set(&mut stream, &mut reader, &format!("k{w}:{k}"), &value);
    }
    start.wait();
    for j in 0..OPS_PER_WORKER {
        let key = format!("k{w}:{}", j % KEYS_PER_WORKER);
        if j % 10 == 0 {
            set(&mut stream, &mut reader, &key, &value);
        } else {
            write!(stream, "get {key}\r\n").unwrap();
            assert_eq!(reply_line(&mut reader), format!("VALUE {key} 0 32\r\n"));
            assert_eq!(reply_line(&mut reader), format!("{value}\r\n"));
            assert_eq!(reply_line(&mut reader), "END\r\n");
        }
    }
}

/// Parks `parked` sockets on a fresh server, runs the active mix, and
/// returns the OS threads the server added (acceptor, loops or
/// per-connection handlers) and its data-plane syscalls per active
/// operation: `plane_syscalls` tight around the active phase, so accept
/// and park traffic stay out (each worker's prepopulation is in, the
/// same burst on every plane).
fn run(engine: EngineKind, parked: usize) -> (usize, f64) {
    // The run before this one joined its threads, but a joined thread
    // leaves `/proc`'s count a moment after the join returns; one still
    // counted here would be missing from the difference below, and the
    // threaded plane clears its bar by exactly one thread.
    let mut threads_before = os_threads();
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let now = os_threads();
        if now >= threads_before {
            break;
        }
        threads_before = now;
    }
    let server = CacheServer::spawn_with(
        "127.0.0.1:0",
        CacheConfig::with_capacity(64 << 20),
        ServerConfig { engine },
    )
    .unwrap();
    // Off Linux every request resolves to the threaded plane.
    assert!(
        !cfg!(target_os = "linux") || discriminant(&server.engine_kind()) == discriminant(&engine),
        "{engine:?} request fell back to {:?}",
        server.engine_kind()
    );
    let mut sockets: Vec<TcpStream> = (0..parked)
        .map(|_| {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            touch(&mut stream);
            stream
        })
        .collect();
    let threads = os_threads().saturating_sub(threads_before);

    let syscalls_before = server.metrics().plane_syscalls();
    let start = Barrier::new(WORKERS);
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let (addr, start) = (server.addr(), &start);
            s.spawn(move || worker(addr, w, start));
        }
    });
    let syscalls = server.metrics().plane_syscalls() - syscalls_before;

    // The parked sockets lived through the active phase.
    for stream in sockets.iter_mut().step_by(parked / 8) {
        touch(stream);
    }
    drop(sockets);
    server.stop();
    let ops = WORKERS as u64 * (OPS_PER_WORKER + KEYS_PER_WORKER);
    (threads, syscalls as f64 / ops as f64)
}

#[test]
fn parked_connections_cost_an_event_plane_no_threads() {
    // A pinned loop count keeps the thread budget hardware-independent:
    // 4 loops + 1 acceptor.
    let (threads, syscalls) = run(EngineKind::Reactor { loops: 4 }, PARKED);
    let threaded = run(EngineKind::Threaded, 128);
    println!("(threads, syscalls/op): reactor ({threads}, {syscalls:.3}), threaded {threaded:?}");
    // Every reply was verified and every sampled parked socket
    // answered, or `run` would have panicked. What is left reads
    // `/proc` and the epoll plane, which only Linux has.
    if !cfg!(target_os = "linux") {
        println!("skipped: not Linux (thread budget and syscalls per op not enforced)");
        return;
    }
    assert!(
        threaded.0 > 128,
        "the threaded plane spends a thread per connection, saw {} for 128 parked",
        threaded.0
    );
    assert!(
        threads > 0 && threads <= THREAD_BUDGET,
        "the reactor used {threads} threads for {PARKED} connections (budget {THREAD_BUDGET})"
    );
    assert!(
        syscalls <= SYSCALLS_PER_OP_CEILING,
        "the reactor spent {syscalls:.3} syscalls per operation (ceiling {SYSCALLS_PER_OP_CEILING})"
    );
}
