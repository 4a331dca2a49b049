//! Robustness tests of the TCP server against awkward clients.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use proteus_cache::CacheConfig;
use proteus_net::{CacheClient, CacheServer};

fn server() -> CacheServer {
    CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(128 << 20)).unwrap()
}

fn read_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// Pipelining: a client may write several commands before reading any
/// response; replies come back in order.
#[test]
fn pipelined_commands_answer_in_order() {
    let server = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"set a 0 0 1\r\n1\r\nset b 0 0 1\r\n2\r\nget a\r\nget b\r\nget c\r\n")
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_line(&mut reader), "STORED");
    assert_eq!(read_line(&mut reader), "STORED");
    assert_eq!(read_line(&mut reader), "VALUE a 0 1");
    assert_eq!(read_line(&mut reader), "1");
    assert_eq!(read_line(&mut reader), "END");
    assert_eq!(read_line(&mut reader), "VALUE b 0 1");
    assert_eq!(read_line(&mut reader), "2");
    assert_eq!(read_line(&mut reader), "END");
    assert_eq!(read_line(&mut reader), "END"); // miss for c
    server.stop();
}

/// Values arriving in many small writes (slow client) are reassembled.
#[test]
fn dribbled_writes_are_reassembled() {
    let server = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let payload = b"set slow 0 0 10\r\n0123456789\r\nget slow\r\n";
    for chunk in payload.chunks(3) {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_line(&mut reader), "STORED");
    assert_eq!(read_line(&mut reader), "VALUE slow 0 10");
    assert_eq!(read_line(&mut reader), "0123456789");
    server.stop();
}

/// A multi-megabyte value survives the round trip intact.
#[test]
fn large_values_round_trip() {
    let server = server();
    let client = CacheClient::connect(server.addr()).unwrap();
    let value: Vec<u8> = (0..4 << 20).map(|i| (i % 249) as u8).collect();
    client.set(b"big", &value).unwrap();
    assert_eq!(client.get(b"big").unwrap().as_deref(), Some(&value[..]));
    server.stop();
}

/// A client that disconnects mid-command must not take the server (or
/// other clients) down.
#[test]
fn disconnect_mid_command_is_isolated() {
    let server = server();
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Announce 100 bytes but send only 3 and hang up.
        stream.write_all(b"set truncated 0 0 100\r\nabc").unwrap();
    } // dropped: RST/FIN mid-body
    std::thread::sleep(Duration::from_millis(50));
    let client = CacheClient::connect(server.addr()).unwrap();
    client.set(b"after", b"fine").unwrap();
    assert_eq!(client.get(b"after").unwrap().as_deref(), Some(&b"fine"[..]));
    assert_eq!(client.get(b"truncated").unwrap(), None);
    server.stop();
}

/// Declaring an absurd value length is rejected before any allocation
/// of that size happens.
#[test]
fn oversized_declared_length_is_rejected() {
    let server = server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"set bomb 0 0 99999999999\r\n").unwrap();
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .unwrap();
    assert!(response.starts_with("ERROR"), "got {response:?}");
    server.stop();
}

/// Many sequential connections (connect, one op, quit) don't exhaust
/// the server.
#[test]
fn connection_churn() {
    let server = server();
    for i in 0..50u32 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(format!("set churn{i} 0 0 1\r\nx\r\nquit\r\n").as_bytes())
            .unwrap();
        let mut reader = BufReader::new(stream);
        assert_eq!(read_line(&mut reader), "STORED");
    }
    let client = CacheClient::connect(server.addr()).unwrap();
    let stats = client.stats().unwrap();
    let items: u64 = stats
        .iter()
        .find(|(k, _)| k == "curr_items")
        .map(|(_, v)| v.parse().unwrap())
        .unwrap();
    assert_eq!(items, 50);
    server.stop();
}

/// A capacity whose byte count overflows 64 bits is refused at start-up
/// (non-zero exit), not wrapped into a server that stores nothing.
#[test]
fn the_server_binary_refuses_a_capacity_that_overflows() {
    use std::process::{Command, Stdio};
    use std::time::Instant;
    let mut child = Command::new(env!("CARGO_BIN_EXE_proteus-cache-server"))
        .args(["--bind", "127.0.0.1:0", "--capacity-mb", "17592186044416"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() > deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let Some(status) = status else {
        child.kill().unwrap();
        child.wait().unwrap();
        panic!("--capacity-mb 2^44 started a server");
    };
    assert!(!status.success(), "{status}");
}
