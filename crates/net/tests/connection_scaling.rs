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
//! syscalls per operation (the server's own `plane_syscalls` counter),
//! of which one socket `read` and one `write`.
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
/// A reactor operation costs at most three syscalls: the `epoll_wait`
/// that reports the socket readable (one wait reports several sockets
/// when the loop is busy, so fewer), the `read` of the command and the
/// `write` of the reply. A read shorter than the room it was offered
/// ends the drain, so no `read` returns `EAGAIN`. An `epoll_ctl` or a
/// draining `read` per operation, which a regression in interest
/// re-arming or in `fill_in` would add, breaks the ceiling.
const SYSCALLS_PER_OP_CEILING: f64 = 3.2;
/// Socket `read`s and `write`s per operation: each command is sent in
/// one `write` and answered before the next, so the server reads it
/// once and writes its reply once, whatever the scheduling. (Sent in
/// pieces, as `write!` on a socket sends its format's pieces, a command
/// could wake the loop once a piece: one more `epoll_wait` and `read`
/// each time, which took the total from 2.6 to 3.3 per operation from
/// one run to the next on a 2-core host.) The slack is for the parked
/// sockets' `version` checks and the connection set-up the window
/// brackets.
const READS_PER_OP_CEILING: f64 = 1.01;
const WRITES_PER_OP_CEILING: f64 = 1.01;

/// OS threads in this process (the server shares it with the test),
/// or 0 where there is no `/proc`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.map_or(0, |v| v.trim().parse().unwrap())
}

/// Sends one command in one `write`, so that it reaches the server
/// whole.
fn send(stream: &mut TcpStream, command: &str) {
    stream.write_all(command.as_bytes()).unwrap();
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
    send(
        stream,
        &format!("set {key} 0 0 {}\r\n{value}\r\n", value.len()),
    );
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
            send(&mut stream, &format!("get {key}\r\n"));
            assert_eq!(reply_line(&mut reader), format!("VALUE {key} 0 32\r\n"));
            assert_eq!(reply_line(&mut reader), format!("{value}\r\n"));
            assert_eq!(reply_line(&mut reader), "END\r\n");
        }
    }
}

/// What a run measured: the OS threads the server added (acceptor,
/// loops or per-connection handlers), and its data-plane syscalls,
/// socket reads and socket writes per active operation.
#[derive(Debug)]
struct Costs {
    threads: usize,
    syscalls: f64,
    reads: f64,
    writes: f64,
}

/// The server's own counters: all data-plane syscalls, socket reads,
/// socket writes.
fn counters(server: &CacheServer) -> [u64; 3] {
    let (reads, writes) = server.metrics().socket_reads_writes();
    [server.metrics().plane_syscalls(), reads, writes]
}

/// Parks `parked` sockets on a fresh server, runs the active mix, and
/// returns its [`Costs`]: the counters are read tight around the active
/// phase, so accept and park traffic stay out (each worker's
/// prepopulation is in, the same burst on every plane).
fn run(engine: EngineKind, parked: usize) -> Costs {
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

    let before = counters(&server);
    let start = Barrier::new(WORKERS);
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let (addr, start) = (server.addr(), &start);
            s.spawn(move || worker(addr, w, start));
        }
    });
    let after = counters(&server);

    // The parked sockets lived through the active phase.
    for stream in sockets.iter_mut().step_by(parked / 8) {
        touch(stream);
    }
    drop(sockets);
    server.stop();
    let ops = (WORKERS as u64 * (OPS_PER_WORKER + KEYS_PER_WORKER)) as f64;
    let per_op = |i: usize| (after[i] - before[i]) as f64 / ops;
    Costs {
        threads,
        syscalls: per_op(0),
        reads: per_op(1),
        writes: per_op(2),
    }
}

#[test]
fn parked_connections_cost_an_event_plane_no_threads() {
    // A pinned loop count keeps the thread budget hardware-independent:
    // 4 loops + 1 acceptor.
    let reactor = run(EngineKind::Reactor { loops: 4 }, PARKED);
    let threaded = run(EngineKind::Threaded, 128);
    println!("reactor {reactor:?}, threaded {threaded:?}");
    // Every reply was verified and every sampled parked socket
    // answered, or `run` would have panicked. What is left reads
    // `/proc` and the epoll plane, which only Linux has.
    if !cfg!(target_os = "linux") {
        println!("skipped: not Linux (thread budget and syscalls per op not enforced)");
        return;
    }
    assert!(
        threaded.threads > 128,
        "the threaded plane spends a thread per connection, saw {} for 128 parked",
        threaded.threads
    );
    let Costs {
        threads,
        syscalls,
        reads,
        writes,
    } = reactor;
    assert!(
        threads > 0 && threads <= THREAD_BUDGET,
        "the reactor used {threads} threads for {PARKED} connections (budget {THREAD_BUDGET})"
    );
    assert!(
        reads <= READS_PER_OP_CEILING && writes <= WRITES_PER_OP_CEILING,
        "the reactor spent {reads:.3} reads and {writes:.3} writes per operation \
         (ceilings {READS_PER_OP_CEILING}, {WRITES_PER_OP_CEILING})"
    );
    assert!(
        syscalls <= SYSCALLS_PER_OP_CEILING,
        "the reactor spent {syscalls:.3} syscalls per operation (ceiling {SYSCALLS_PER_OP_CEILING})"
    );
}
