//! The epoll reactor serves exactly the same bytes as the threaded
//! data plane.
//!
//! Both planes drive one connection core (`ConnCore`): they differ only
//! in how a connection waits for bytes — epoll readiness on a few
//! event-loop threads, or a blocking read with a 100 ms timeout on a
//! thread of its own. So this suite diffs two drivers of one core.
//! Every property here spawns one server per plane over identically
//! configured engines, drives the **same byte stream** into each over
//! fresh sockets — well-formed pipelines under random chunking,
//! arbitrary garbage, mutated valid streams, a deterministic
//! split-at-every-boundary sweep, and a command that pauses longer than
//! the read timeout mid-way — and requires byte-identical responses.
//!
//! Framing is checked in three places, each independently of the
//! others:
//!
//! - parse decisions, against a transplanted reference parser
//!   (`parser_equivalence.rs`);
//! - resumption at every split point, with no socket: a property in
//!   `server.rs`'s unit tests requires that a core has answered exactly
//!   the commands wholly inside each prefix of a split pipeline;
//! - the two drivers, over sockets: this file.
//!
//! Stream constraints that keep the comparison deterministic:
//!
//! - `stats` / `stats proteus` are excluded (uptime and latency values
//!   are nondeterministic by nature); `version` is included (fixed).
//! - Generated `exptime` is pinned to 0: a 1-second TTL could expire
//!   on one server and not the other across a tick boundary.
//! - Streams that can provoke an error-close (garbage, mutations) are
//!   written whole before the server looks at them and kept well under
//!   one read's worth, so the server always drains its socket
//!   before closing (close-with-unread-input would RST the response
//!   away nondeterministically on either plane).

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

mod common;

use common::Command;
use proptest::prelude::*;
use proteus_cache::CacheConfig;
use proteus_net::{
    mru_keys_key, CacheServer, EngineKind, ServerConfig, DIGEST_KEY, DIGEST_SNAPSHOT_KEY,
};
use proteus_obs::{MetricValue, OpClass};

/// One server per plane, oracle (threaded) first.
fn spawn_planes() -> Vec<(&'static str, CacheServer)> {
    spawn_planes_with(CacheConfig::with_capacity(8 << 20))
}

fn spawn_planes_with(config: CacheConfig) -> Vec<(&'static str, CacheServer)> {
    let spawn =
        |engine| CacheServer::spawn_with("127.0.0.1:0", config, ServerConfig { engine }).unwrap();
    let threaded = spawn(EngineKind::Threaded);
    assert_eq!(threaded.engine_kind(), EngineKind::Threaded);
    let reactor = spawn(EngineKind::Reactor { loops: 2 });
    assert_eq!(reactor.engine_kind(), EngineKind::Reactor { loops: 2 });
    vec![("threaded", threaded), ("reactor", reactor)]
}

fn stop_all(planes: Vec<(&'static str, CacheServer)>) {
    for (_, server) in planes {
        server.stop();
    }
}

/// Writes `stream` to a fresh connection in the given chunk sizes
/// (pausing between chunks when asked, so the bytes genuinely arrive
/// as separate reads), half-closes, and returns everything the server
/// sent back.
fn drive(addr: SocketAddr, stream: &[u8], chunks: &[usize], pause: Option<Duration>) -> Vec<u8> {
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.set_nodelay(true).unwrap();
    // Writes tolerate failure: a pipeline containing `quit` closes the
    // server side mid-stream, and the bytes after it hit a broken pipe
    // — on either plane alike.
    let mut sent = 0;
    for &n in chunks {
        let end = (sent + n.max(1)).min(stream.len());
        if end > sent {
            if sock.write_all(&stream[sent..end]).is_err() {
                sent = stream.len();
                break;
            }
            sent = end;
        }
        if let Some(p) = pause {
            std::thread::sleep(p);
        }
    }
    if sent < stream.len() {
        let _ = sock.write_all(&stream[sent..]);
    }
    let _ = sock.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    // An error after partial data keeps the partial read; both planes
    // are compared on whatever actually arrived.
    let _ = sock.read_to_end(&mut out);
    out
}

/// Drives every plane with identical bytes and asserts each one
/// answers byte-identically to the threaded oracle (the first entry).
fn assert_equivalent(
    planes: &[(&'static str, CacheServer)],
    stream: &[u8],
    chunks: &[usize],
    pause: Option<Duration>,
) -> Result<(), TestCaseError> {
    let (oracle_name, oracle) = &planes[0];
    let expected = drive(oracle.addr(), stream, chunks, pause);
    for (name, server) in &planes[1..] {
        let got = drive(server.addr(), stream, chunks, pause);
        prop_assert_eq!(
            &expected,
            &got,
            "planes diverged on stream {:?}: {} {:?} vs {} {:?}",
            String::from_utf8_lossy(stream),
            oracle_name,
            String::from_utf8_lossy(&expected),
            name,
            String::from_utf8_lossy(&got)
        );
    }
    Ok(())
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(33u8..=126, 1..24)
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..128)
}

/// Every deterministic command: no `stats` (uptime, live latencies)
/// and `exptime` pinned to 0 (a real TTL could lapse on one plane and
/// not the other).
fn command_strategy() -> impl Strategy<Value = Command> {
    prop_oneof![
        key_strategy().prop_map(|key| Command::Get { key }),
        prop::collection::vec(key_strategy(), 2..6).prop_map(|keys| Command::MultiGet { keys }),
        (key_strategy(), any::<u32>(), value_strategy()).prop_map(|(key, flags, data)| {
            Command::Set {
                key,
                flags,
                exptime: 0,
                data,
            }
        }),
        (key_strategy(), any::<u32>(), value_strategy()).prop_map(|(key, flags, data)| {
            Command::Add {
                key,
                flags,
                exptime: 0,
                data,
            }
        }),
        (key_strategy(), any::<u32>(), value_strategy()).prop_map(|(key, flags, data)| {
            Command::Replace {
                key,
                flags,
                exptime: 0,
                data,
            }
        }),
        key_strategy().prop_map(|key| Command::Delete { key }),
        key_strategy().prop_map(|key| Command::Touch { key, exptime: 0 }),
        (key_strategy(), any::<u64>()).prop_map(|(key, delta)| Command::Incr { key, delta }),
        (key_strategy(), any::<u64>()).prop_map(|(key, delta)| Command::Decr { key, delta }),
        Just(Command::FlushAll),
        Just(Command::Version),
        Just(Command::Quit),
        // The paper's reserved keys: take a digest snapshot, download
        // it, and both in the one request a digest broadcast sends.
        Just(Command::Get {
            key: DIGEST_SNAPSHOT_KEY.to_vec()
        }),
        Just(Command::Get {
            key: DIGEST_KEY.to_vec()
        }),
        Just(Command::MultiGet {
            keys: vec![DIGEST_SNAPSHOT_KEY.to_vec(), DIGEST_KEY.to_vec()]
        }),
        // The reserved listing key: pages of the eight shards there are
        // and of two there are not, alone and beside a data key.
        (0usize..10, 0usize..4).prop_map(|(shard, skip)| Command::Get {
            key: mru_keys_key(shard, skip)
        }),
        (0usize..10, 0usize..4, key_strategy()).prop_map(|(shard, skip, key)| {
            Command::MultiGet {
                keys: vec![key, mru_keys_key(shard, skip)],
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Well-formed pipelines under random chunking: both planes return
    /// the same bytes regardless of how the stream is fragmented.
    #[test]
    fn valid_pipelines_are_byte_identical(
        cmds in prop::collection::vec(command_strategy(), 1..8),
        chunks in prop::collection::vec(1usize..64, 1..12),
    ) {
        let mut stream = Vec::new();
        for cmd in &cmds {
            cmd.write_to(&mut stream);
        }
        let planes = spawn_planes();
        assert_equivalent(&planes, &stream, &chunks, Some(Duration::from_millis(1)))?;
        stop_all(planes);
    }

    /// Arbitrary garbage: whatever the verdict (serve, error-close),
    /// it is the same verdict with the same bytes on both planes.
    #[test]
    fn garbage_streams_are_byte_identical(
        bytes in prop::collection::vec(any::<u8>(), 0..384),
    ) {
        let planes = spawn_planes();
        assert_equivalent(&planes, &bytes, &[bytes.len().max(1)], None)?;
        stop_all(planes);
    }

    /// CRLF-framed garbage text (the realistic fuzz surface) mixed in
    /// front of a valid command: the error response and close behavior
    /// must match.
    #[test]
    fn framed_garbage_is_byte_identical(
        lines in prop::collection::vec("[ -~]{0,60}", 1..4),
    ) {
        let mut stream = Vec::new();
        for line in &lines {
            stream.extend_from_slice(line.as_bytes());
            stream.extend_from_slice(b"\r\n");
        }
        Command::Version.write_to(&mut stream);
        let planes = spawn_planes();
        assert_equivalent(&planes, &stream, &[stream.len()], None)?;
        stop_all(planes);
    }

    /// Mutated valid streams: flip one byte or truncate a well-formed
    /// pipeline — both planes must still answer identically.
    #[test]
    fn mutated_streams_are_byte_identical(
        cmd in command_strategy(),
        flip_at in any::<usize>(),
        flip_to in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let mut stream = Vec::new();
        cmd.write_to(&mut stream);
        let planes = spawn_planes();

        let mut flipped = stream.clone();
        let i = flip_at % flipped.len();
        flipped[i] = flip_to;
        assert_equivalent(&planes, &flipped, &[flipped.len()], None)?;

        let truncated = &stream[..cut % (stream.len() + 1)];
        assert_equivalent(&planes, truncated, &[truncated.len().max(1)], None)?;
        stop_all(planes);
    }
}

/// A fixed mixed pipeline split at **every** byte boundary, with a
/// pause so the halves genuinely arrive as separate reads: the
/// event-driven planes' resumable parsers must agree with the threaded
/// plane's blocking parser at every partial-arrival point.
#[test]
fn every_split_point_is_byte_identical() {
    let stream: &[u8] = b"set a 0 0 3\r\nxyz\r\nget a\r\nincr a 1\r\nset n 7 0 2\r\n42\r\nincr n 8\r\nget a n miss\r\ndelete a\r\nget a\r\nversion\r\nquit\r\n";
    let planes = spawn_planes();
    let whole: Vec<Vec<u8>> = planes
        .iter()
        .map(|(_, s)| drive(s.addr(), stream, &[stream.len()], None))
        .collect();
    for (i, (name, _)) in planes.iter().enumerate().skip(1) {
        assert_eq!(whole[0], whole[i], "whole-stream divergence on {name}");
    }
    assert!(
        whole[0].starts_with(b"STORED\r\n"),
        "sanity: the pipeline must actually be served, got {:?}",
        String::from_utf8_lossy(&whole[0])
    );
    // The pipeline deletes `a` itself but leaves `n` behind, and
    // `incr n 8` is not idempotent across replays — reset `n` between
    // runs so every replay answers exactly like the first.
    let reset: &[u8] = b"delete n\r\nquit\r\n";
    for split in 1..stream.len() {
        // One chunk of `split` bytes, a pause, then the rest: each
        // server sees a genuine partial arrival at this boundary.
        let mut replies = Vec::with_capacity(planes.len());
        for (_, server) in &planes {
            drive(server.addr(), reset, &[reset.len()], None);
            replies.push(drive(
                server.addr(),
                stream,
                &[split],
                Some(Duration::from_millis(1)),
            ));
        }
        for (i, (name, _)) in planes.iter().enumerate().skip(1) {
            assert_eq!(
                replies[0],
                replies[i],
                "planes diverged at split {split}: threaded {:?} vs {name} {:?}",
                String::from_utf8_lossy(&replies[0]),
                String::from_utf8_lossy(&replies[i])
            );
        }
        assert_eq!(replies[0], whole[0], "split {split} changed the responses");
    }
    stop_all(planes);
}

/// A command whose bytes pause for longer than the threaded plane's
/// 100 ms idle read timeout, once inside its header line and once inside
/// its data block, is still served — alike on both planes.
#[test]
fn a_command_that_pauses_mid_way_is_served_on_both_planes() {
    let stream: &[u8] = b"set k 0 0 5\r\nhello\r\nget k\r\n";
    let planes = spawn_planes();
    // "set " | 250 ms | "k 0 0 5\r\nhel" | 250 ms | "lo\r\nget k\r\n"
    let replies: Vec<Vec<u8>> = planes
        .iter()
        .map(|(_, s)| drive(s.addr(), stream, &[4, 12], Some(Duration::from_millis(250))))
        .collect();
    for (i, (name, _)) in planes.iter().enumerate() {
        assert_eq!(
            String::from_utf8_lossy(&replies[i]),
            "STORED\r\nVALUE k 0 5\r\nhello\r\nEND\r\n",
            "{name} dropped a command that paused mid-way"
        );
    }
    stop_all(planes);
}

/// Multi-key `get`s whose replies each exceed the 1 MiB output
/// high-water mark, pipelined at a client that does not read: every
/// plane — the threaded one now assembles replies in memory too — must
/// stop serving once its output is over the mark and the socket is full
/// (bounded memory), and once the client does read, deliver every reply
/// byte-identically. Runs on the server binary's default storage.
#[test]
fn replies_past_the_high_water_mark_are_bounded_and_byte_identical() {
    const KEYS: usize = 40;
    const VALUE: usize = 32 << 10; // 40 x 32 KiB = 1.25 MiB per reply
    const GETS: u64 = 40;
    let value = |i: usize| -> Vec<u8> { (0..VALUE).map(|j| (i * 31 + j) as u8).collect() };
    let mut sets = Vec::new();
    let mut get = b"get".to_vec();
    let mut reply = Vec::new();
    for i in 0..KEYS {
        let header = format!("k{i} 0 {VALUE}\r\n");
        sets.extend_from_slice(format!("set k{i} 0 0 {VALUE}\r\n").as_bytes());
        sets.extend_from_slice(&value(i));
        sets.extend_from_slice(b"\r\n");
        get.extend_from_slice(format!(" k{i}").as_bytes());
        reply.extend_from_slice(b"VALUE ");
        reply.extend_from_slice(header.as_bytes());
        reply.extend_from_slice(&value(i));
        reply.extend_from_slice(b"\r\n");
    }
    get.extend_from_slice(b"\r\n");
    reply.extend_from_slice(b"END\r\n");
    assert!(reply.len() > 1 << 20, "one reply must pass the mark");

    let planes = spawn_planes_with(CacheConfig::with_capacity(64 << 20));
    for (name, server) in &planes {
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        sock.write_all(&sets).unwrap();
        let mut stored = vec![0u8; KEYS * b"STORED\r\n".len()];
        sock.read_exact(&mut stored).unwrap();
        assert_eq!(stored, b"STORED\r\n".repeat(KEYS), "{name}: preload");

        // Pipeline every get without reading a byte of the replies.
        for _ in 0..GETS {
            sock.write_all(&get).unwrap();
        }
        sock.write_all(b"quit\r\n").unwrap();
        // Wait until the server has stopped making progress against the
        // full socket, then look at how far it got.
        let served = || server.metrics().ops().snapshot(OpClass::MultiGet).count();
        let (mut last, mut stable) = (served(), 0);
        while stable < 5 {
            std::thread::sleep(Duration::from_millis(40));
            let now = served();
            stable = if now == last { stable + 1 } else { 0 };
            last = now;
        }
        assert!(
            (1..=GETS / 2).contains(&last),
            "{name}: {last} of {GETS} replies (1.25 MiB each) were assembled for a client \
             that reads nothing — backpressure must stop the server near the 1 MiB mark \
             plus what the socket buffers hold"
        );

        let mut got = Vec::new();
        sock.read_to_end(&mut got).unwrap();
        assert_eq!(got.len(), reply.len() * GETS as usize, "{name}: reply size");
        assert!(
            got.chunks(reply.len()).all(|r| r == reply),
            "{name}: a reply differs from the stored values"
        );
    }
    stop_all(planes);
}

/// Shutdown quiesces cleanly with idle connections parked on the
/// plane's event loops (mirrors the threaded shutdown test in
/// `tcp_integration.rs`): `stop` must not hang waiting on them, and
/// it must wake every loop, not just one.
fn shutdown_quiesces_with_idle_connections(engine: EngineKind) {
    let server = CacheServer::spawn_with(
        "127.0.0.1:0",
        CacheConfig::with_capacity(1 << 20),
        ServerConfig { engine },
    )
    .unwrap();
    assert_eq!(server.engine_kind(), engine, "plane must not fall back");
    let addr = server.addr();
    // Park idle connections on every loop (round-robin assignment) and
    // verify they are live first.
    let mut idle = Vec::new();
    for i in 0..9 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "set k{i} 0 0 1\r\nx\r\n").unwrap();
        let mut buf = [0u8; 8];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"STORED\r\n");
        idle.push(s);
    }
    // A connection that disconnects *before* shutdown must be decremented
    // exactly once — not again by the shutdown drain.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "set early 0 0 1\r\nx\r\n").unwrap();
        let mut buf = [0u8; 8];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"STORED\r\n");
        write!(s, "quit\r\n").unwrap();
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
    }
    assert_eq!(server.metrics().total_connections(), 10);
    // `stop` consumes the server; the pull-based source keeps the shared
    // metrics alive so the post-shutdown gauge can be inspected.
    let source = server.metric_source();
    let begin = std::time::Instant::now();
    server.stop();
    assert!(
        begin.elapsed() < Duration::from_secs(5),
        "stop must not wait on idle connections, took {:?}",
        begin.elapsed()
    );
    // The parked sockets observe the close.
    for mut s in idle {
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(rest.is_empty(), "no stray bytes at shutdown: {rest:?}");
    }
    // Connection accounting is exactly-once: after every socket (the
    // early-quit one and the drained idle ones) is gone, the gauge is
    // back at zero — neither leaked (>0) nor double-decremented (<0) —
    // and the monotone total still reflects all ten accepts.
    let metrics = source();
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} missing from registry"))
            .value
            .clone()
    };
    assert!(
        matches!(value("proteus_curr_connections"), MetricValue::Gauge(0)),
        "curr_connections must settle at exactly zero, got {:?}",
        value("proteus_curr_connections")
    );
    assert!(
        matches!(value("proteus_total_connections"), MetricValue::Counter(10)),
        "total_connections must count each accept once, got {:?}",
        value("proteus_total_connections")
    );
}

#[test]
fn reactor_shutdown_quiesces_with_idle_connections() {
    shutdown_quiesces_with_idle_connections(EngineKind::Reactor { loops: 3 });
}

/// After `stop`, the plane's port no longer accepts work and a new
/// server can bind a fresh port and serve immediately (no leaked
/// event-loop threads or epoll instances holding state).
fn stops_accepting_and_releases_resources(engine: EngineKind) {
    let server = CacheServer::spawn_with(
        "127.0.0.1:0",
        CacheConfig::with_capacity(1 << 20),
        ServerConfig { engine },
    )
    .unwrap();
    let addr = server.addr();
    server.stop();
    // The listener is gone: either the connect fails outright or the
    // accepted-then-orphaned socket yields no service.
    if let Ok(mut s) = TcpStream::connect(addr) {
        s.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let _ = s.write_all(b"version\r\n");
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        assert!(out.is_empty(), "stopped server must not serve: {out:?}");
    }
    // A successor spawns and serves at once.
    let next = CacheServer::spawn_with(
        "127.0.0.1:0",
        CacheConfig::with_capacity(1 << 20),
        ServerConfig { engine },
    )
    .unwrap();
    let mut s = TcpStream::connect(next.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"set k 0 0 1\r\nv\r\nget k\r\nquit\r\n")
        .unwrap();
    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    assert_eq!(&out[..], b"STORED\r\nVALUE k 0 1\r\nv\r\nEND\r\n");
    next.stop();
}

#[test]
fn reactor_stops_accepting_and_releases_resources() {
    stops_accepting_and_releases_resources(EngineKind::Reactor { loops: 2 });
}
