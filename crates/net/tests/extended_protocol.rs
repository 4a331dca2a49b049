//! Tests of the extended memcached command surface over live sockets.

mod common;

use proteus_cache::CacheConfig;
use proteus_net::{CacheClient, CacheServer, EngineKind, NetError};

fn server() -> CacheServer {
    CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(1 << 20)).unwrap()
}

/// Every data plane this host can run.
fn planes() -> Vec<EngineKind> {
    let mut engines = vec![EngineKind::Threaded];
    if cfg!(target_os = "linux") {
        engines.push(EngineKind::Reactor { loops: 2 });
    }
    engines
}

#[test]
fn add_stores_only_when_absent() {
    let server = server();
    let client = CacheClient::connect(server.addr()).unwrap();
    assert!(client.add(b"k", b"first").unwrap());
    assert!(!client.add(b"k", b"second").unwrap());
    assert_eq!(client.get(b"k").unwrap().as_deref(), Some(&b"first"[..]));
    server.stop();
}

#[test]
fn replace_stores_only_when_present() {
    let server = server();
    let client = CacheClient::connect(server.addr()).unwrap();
    assert!(!client.replace(b"k", b"nope").unwrap());
    client.set(b"k", b"old").unwrap();
    assert!(client.replace(b"k", b"new").unwrap());
    assert_eq!(client.get(b"k").unwrap().as_deref(), Some(&b"new"[..]));
    server.stop();
}

#[test]
fn touch_refreshes_and_reports_presence() {
    let server = server();
    let client = CacheClient::connect(server.addr()).unwrap();
    client.set(b"k", b"v").unwrap();
    assert!(client.touch(b"k").unwrap());
    assert!(!client.touch(b"missing").unwrap());
    server.stop();
}

/// `touch <key> <exptime>` gives the item a new expiry, as memcached's
/// does: exptime 0 clears the deadline, a positive one sets it from now.
#[test]
fn touch_sets_the_items_new_expiry_on_every_plane() {
    use proteus_net::{write_command_unflushed, RawCommand, Response, ServerConfig};
    use proteus_sim::SimTime;
    use std::io::BufReader;
    for engine in planes() {
        let config = CacheConfig::with_capacity(1 << 20);
        let server =
            CacheServer::spawn_with("127.0.0.1:0", config, ServerConfig { engine }).unwrap();
        let mut writer = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(writer.try_clone().unwrap());
        let mut send = |command: RawCommand<'_>| {
            write_command_unflushed(&mut writer, &command).unwrap();
            common::reply::read_response(&mut reader).unwrap()
        };
        let expiry_of =
            |key: &[u8]| server.with_engine(|e| e.with_key_shard(key, |se| se.expiry_of(key)));
        let set = |key: &'static [u8], exptime| RawCommand::Set {
            key,
            flags: 0,
            exptime,
            data: b"v",
        };

        assert_eq!(send(set(b"k", 100)), Response::Stored);
        assert!(expiry_of(b"k").unwrap() < SimTime::MAX);
        let touch = RawCommand::Touch {
            key: b"k",
            exptime: 0,
        };
        assert_eq!(send(touch), Response::Touched);
        assert_eq!(expiry_of(b"k"), Some(SimTime::MAX), "{engine:?}");

        assert_eq!(send(set(b"forever", 0)), Response::Stored);
        assert_eq!(expiry_of(b"forever"), Some(SimTime::MAX));
        let touch = RawCommand::Touch {
            key: b"forever",
            exptime: 30,
        };
        assert_eq!(send(touch), Response::Touched);
        assert!(expiry_of(b"forever").unwrap() < SimTime::MAX, "{engine:?}");
        server.stop();
    }
}

#[test]
fn incr_decr_arithmetic() {
    let server = server();
    let client = CacheClient::connect(server.addr()).unwrap();
    client.set(b"counter", b"10").unwrap();
    assert_eq!(client.incr(b"counter", 5).unwrap(), Some(15));
    assert_eq!(client.decr(b"counter", 3).unwrap(), Some(12));
    // Floors at zero, memcached-style.
    assert_eq!(client.decr(b"counter", 100).unwrap(), Some(0));
    // Missing key.
    assert_eq!(client.incr(b"absent", 1).unwrap(), None);
    // The stored value is the ASCII rendering.
    assert_eq!(client.get(b"counter").unwrap().as_deref(), Some(&b"0"[..]));
    server.stop();
}

#[test]
fn incr_on_non_numeric_value_is_a_server_error() {
    let server = server();
    let client = CacheClient::connect(server.addr()).unwrap();
    client.set(b"text", b"hello").unwrap();
    match client.incr(b"text", 1) {
        Err(NetError::ServerError(msg)) => assert!(msg.contains("non-numeric")),
        other => panic!("expected server error, got {other:?}"),
    }
    server.stop();
}

#[test]
fn flush_all_clears_everything_including_digest() {
    let server = server();
    let client = CacheClient::connect(server.addr()).unwrap();
    for i in 0..50u32 {
        client.set(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    // A snapshot taken before the flush describes keys the flush drops:
    // `get BLOOM_FILTER` misses afterwards, as on a fresh server.
    assert!(client.snapshot_digest().unwrap().unwrap().contains(b"k0"));
    client.flush_all().unwrap();
    assert_eq!(client.fetch_digest().unwrap(), None, "stale digest served");
    assert_eq!(client.get(b"k0").unwrap(), None);
    let digest = client.snapshot_digest().unwrap().unwrap();
    assert!(!digest.contains(b"k0"), "digest cleared with the cache");
    assert_eq!(server.with_engine(|e| e.len()), 0);
    server.stop();
}

/// The digest broadcast is one request: `snapshot_digest` sends both
/// reserved keys as one multi-key `get`, the server counts it as one
/// digest-class command, and the semantics of the two keys are what
/// they were as two requests.
#[test]
fn snapshot_digest_is_one_round_trip_with_the_same_semantics() {
    use proteus_obs::OpClass;
    let server = server();
    let served = |class| server.metrics().ops().snapshot(class).count();
    let client = CacheClient::connect(server.addr()).unwrap();
    let keys: Vec<Vec<u8>> = (0..200u32).map(|i| format!("k{i}").into_bytes()).collect();
    for key in &keys {
        client.set(key, b"v").unwrap();
    }
    // Nothing to fetch before the first snapshot.
    assert_eq!(client.fetch_digest().unwrap(), None);
    assert_eq!(served(OpClass::Digest), 1);

    let digest = client.snapshot_digest().unwrap().unwrap();
    assert_eq!(served(OpClass::Digest), 2, "one command, not two");
    assert_eq!(served(OpClass::MultiGet), 0, "and it is not a data get");
    assert_eq!(served(OpClass::Get), 0);
    for key in &keys {
        assert!(digest.contains(key), "{:?}", String::from_utf8_lossy(key));
    }

    // Snapshot isolation: `get BLOOM_FILTER` keeps returning the last
    // snapshot, bit for bit, while later sets land in the live digest.
    for i in 0..200u32 {
        client.set(format!("late{i}").as_bytes(), b"v").unwrap();
    }
    assert_eq!(client.fetch_digest().unwrap().as_ref(), Some(&digest));
    let fresh = client.snapshot_digest().unwrap().unwrap();
    assert!(fresh.contains(b"late0") && fresh.set_bits() > digest.set_bits());
    server.stop();
}

/// The third reserved key: `get MRU_KEYS:<shard>:<skip>` pages through
/// one engine shard's keys, hottest first, as an ordinary value — and is
/// counted as reserved-key traffic, not as a data `get`.
#[test]
fn mru_keys_listing_pages_every_shard_hottest_first() {
    use proteus_net::{mru_keys_key, MRU_KEYS_PAGE};
    use proteus_obs::OpClass;
    let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap();
    let served = |class| server.metrics().ops().snapshot(class).count();
    let client = CacheClient::connect(server.addr()).unwrap();
    let keys: Vec<Vec<u8>> = (0..6000u32).map(|i| format!("k{i}").into_bytes()).collect();
    for key in &keys {
        client.set(key, b"v").unwrap();
    }
    // Stir the recency order away from the insertion order.
    for key in keys.iter().step_by(5) {
        assert!(client.get(key).unwrap().is_some());
    }
    let (gets, stats) = (served(OpClass::Get), server.with_engine(|e| e.stats()));
    let page = |shard: usize, skip: usize| client.get(&mru_keys_key(shard, skip)).unwrap();

    let shards = server.with_engine(|e| e.shard_count());
    let (mut listed, mut requests) = (0, 0);
    for shard in 0..shards {
        let mut walk: Vec<Vec<u8>> = Vec::new();
        loop {
            requests += 1;
            let value = page(shard, walk.len()).expect("the shard exists");
            let before = walk.len();
            walk.extend(
                (value.split(|&b| b == b'\n').filter(|k| !k.is_empty())).map(<[u8]>::to_vec),
            );
            if walk.len() - before < MRU_KEYS_PAGE {
                break;
            }
        }
        let order: Vec<Vec<u8>> = server
            .with_engine(|e| {
                e.mru_page(shard, 0, usize::MAX, |keys| {
                    keys.map(<[u8]>::to_vec).collect()
                })
            })
            .unwrap();
        assert!(order.len() > MRU_KEYS_PAGE, "more than one page a shard");
        assert_eq!(walk, order, "shard {shard}");
        // Past the last key the value is empty; it is still a value.
        requests += 1;
        assert_eq!(page(shard, walk.len()).as_deref(), Some(&b""[..]));
        listed += walk.len();
    }
    assert_eq!(listed, keys.len());
    // A shard there is not, and a page that does not parse, are misses.
    assert_eq!(page(shards, 0), None);
    for bad in [
        "MRU_KEYS:",
        "MRU_KEYS:0",
        "MRU_KEYS:0:",
        "MRU_KEYS:x:0",
        "MRU_KEYS:0:-1",
    ] {
        assert_eq!(client.get(bad.as_bytes()).unwrap(), None, "{bad}");
    }
    requests += 6;

    assert_eq!(served(OpClass::Digest), requests, "reserved-key traffic");
    assert_eq!(served(OpClass::Get), gets, "not data gets");
    assert_eq!(server.with_engine(|e| e.stats()), stats, "nor cache reads");
    // Beside a data key it is one more key of an ordinary multi-get.
    let both = client
        .get_many(&[b"MRU_KEYS:0:0".as_slice(), b"k0".as_slice()])
        .unwrap();
    assert!(both[0].as_ref().is_some_and(|v| v.contains(&b'\n')));
    assert_eq!(both[1].as_deref(), Some(&b"v"[..]));
    assert_eq!(served(OpClass::MultiGet), 1);
    server.stop();
}

/// The reply bytes of the two reserved keys — asked for one by one or
/// in one multi-key `get` — against bytes built without the server's
/// collapse or its shards: with no removes, the digest of a key set is
/// the plain filter of that key set, of the shape the server resolved
/// for its shard count (one partition a shard), in the `PBF1` encoding.
#[test]
fn digest_replies_are_byte_exact_on_every_plane() {
    use proteus_bloom::{BloomFilter, DigestSnapshot};
    use proteus_net::ServerConfig;
    use std::io::{Read, Write};
    let config = CacheConfig::with_capacity(1 << 20);
    let keys: Vec<Vec<u8>> = (0..300u32)
        .map(|i| format!("key:{i}").into_bytes())
        .collect();
    let resolved = config.digest.with_partitions(config.shards);
    assert_eq!(resolved.partitions, 8);
    let mut expected = BloomFilter::new(resolved);
    keys.iter().for_each(|key| expected.insert(key));
    let pbf1 = DigestSnapshot::from(expected).to_bytes();
    let value = |key: &str, data: &[u8]| {
        let mut reply = format!("VALUE {key} 0 {}\r\n", data.len()).into_bytes();
        reply.extend_from_slice(data);
        reply.extend_from_slice(b"\r\n");
        reply
    };
    let taken = value("SET_BLOOM_FILTER", b"OK");
    let digest = value("BLOOM_FILTER", &pbf1);
    let one_by_one = [&taken[..], b"END\r\n", &digest, b"END\r\n"].concat();
    let together = [&taken[..], &digest, b"END\r\n"].concat();

    for engine in planes() {
        let server =
            CacheServer::spawn_with("127.0.0.1:0", config, ServerConfig { engine }).unwrap();
        let client = CacheClient::connect(server.addr()).unwrap();
        for key in &keys {
            client.set(key, b"v").unwrap();
        }
        let ask = |request: &[u8]| {
            let mut sock = std::net::TcpStream::connect(server.addr()).unwrap();
            sock.write_all(request).unwrap();
            sock.write_all(b"quit\r\n").unwrap();
            let mut reply = Vec::new();
            sock.read_to_end(&mut reply).unwrap();
            reply
        };
        assert!(
            ask(b"get SET_BLOOM_FILTER\r\nget BLOOM_FILTER\r\n") == one_by_one,
            "two requests on {engine:?}"
        );
        assert!(
            ask(b"get SET_BLOOM_FILTER BLOOM_FILTER\r\n") == together,
            "one request on {engine:?}"
        );
        server.stop();
    }
}

/// A server never sets a bit past its digest's last counter, saturated
/// or not, whether the tail word is partial (one shard, `l` not a
/// multiple of 64) or the slices are whole words (eight shards): a
/// decoder that rejects such bits reads every reply, and the decoded
/// fill never passes 100 %.
#[test]
fn a_served_digest_sets_no_bit_past_its_last_counter() {
    use proteus_bloom::{BloomConfig, DigestSnapshot};
    for (shards, keys) in [(1, 4u32), (1, 400), (8, 4), (8, 4000)] {
        let config = CacheConfig::with_capacity(1 << 20)
            .shards(shards)
            .digest(BloomConfig::new(65, 2, 4));
        let server = CacheServer::spawn("127.0.0.1:0", config).unwrap();
        let client = CacheClient::connect(server.addr()).unwrap();
        for i in 0..keys {
            client.set(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        assert!(client.snapshot_digest().unwrap().is_some());
        let raw = client.get(b"BLOOM_FILTER").unwrap().expect("just taken");
        let digest = DigestSnapshot::from_bytes(&raw)
            .unwrap_or_else(|e| panic!("{shards} shards, {keys} keys: {e}"))
            .into_filter();
        let counters = digest.config().counters;
        assert_eq!(counters, if shards == 1 { 65 } else { 8 * 64 });
        assert!(digest.set_bits() <= counters && digest.fill_ratio() <= 1.0);
        assert_eq!(digest.set_bits() == counters, keys >= 400, "{keys} keys");
        server.stop();
    }
}

#[test]
fn exptime_is_honored_over_the_wire() {
    use proteus_net::{write_command_unflushed, RawCommand, Response};
    use std::io::BufReader;
    let server = server();
    let mut writer = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut reply = || common::reply::read_response(&mut reader).unwrap();
    // Store with a 1-second expiry.
    write_command_unflushed(
        &mut writer,
        &RawCommand::Set {
            key: b"ephemeral",
            flags: 0,
            exptime: 1,
            data: b"v",
        },
    )
    .unwrap();
    assert_eq!(reply(), Response::Stored);
    // Visible immediately...
    let get = RawCommand::Get { key: b"ephemeral" };
    write_command_unflushed(&mut writer, &get).unwrap();
    assert!(matches!(reply(), Response::Value { .. }));
    // ...gone after the wall-clock second elapses.
    std::thread::sleep(std::time::Duration::from_millis(1100));
    write_command_unflushed(&mut writer, &get).unwrap();
    assert_eq!(reply(), Response::Miss);
    // And `add` can now claim the key.
    let client = CacheClient::connect(server.addr()).unwrap();
    assert!(client.add(b"ephemeral", b"new").unwrap());
    server.stop();
}

/// An `exptime` above 30 days is an absolute Unix time: one a second
/// ahead expires within about two seconds, one already past is a miss
/// at once, and either is `STORED`.
#[test]
fn an_exptime_past_thirty_days_is_a_unix_time() {
    use proteus_net::{write_command_unflushed, RawCommand, Response};
    use std::io::BufReader;
    use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
    let server = server();
    let mut writer = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut ask = |command: &RawCommand| {
        write_command_unflushed(&mut writer, command).unwrap();
        common::reply::read_response(&mut reader).unwrap()
    };
    let now_unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_secs() as u32;
    let set = |key, exptime| RawCommand::Set {
        key,
        flags: 0,
        exptime,
        data: b"v",
    };
    assert_eq!(ask(&set(b"past", now_unix - 10)), Response::Stored);
    assert_eq!(ask(&RawCommand::Get { key: b"past" }), Response::Miss);
    assert_eq!(ask(&set(b"soon", now_unix + 1)), Response::Stored);
    let start = Instant::now();
    while ask(&RawCommand::Get { key: b"soon" }) != Response::Miss {
        assert!(
            start.elapsed() < Duration::from_millis(2500),
            "an exptime one second ahead outlived two seconds"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.stop();
}

/// `incr` wraps at 2^64, as memcached's `protocol.txt` says; `decr`
/// floors at 0.
#[test]
fn incr_wraps_at_two_to_the_64() {
    let server = server();
    let client = CacheClient::connect(server.addr()).unwrap();
    client.set(b"n", b"18446744073709551615").unwrap();
    assert_eq!(client.incr(b"n", 2).unwrap(), Some(1));
    assert_eq!(client.get(b"n").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(client.decr(b"n", 5).unwrap(), Some(0));
    server.stop();
}

#[test]
fn stats_expose_digest_estimate() {
    let server = server();
    let client = CacheClient::connect(server.addr()).unwrap();
    for i in 0..200u32 {
        client.set(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    let stats = client.stats().unwrap();
    let estimate: f64 = stats
        .iter()
        .find(|(k, _)| k == "digest_estimated_items")
        .map(|(_, v)| v.parse().unwrap())
        .unwrap();
    assert!((estimate - 200.0).abs() < 20.0, "estimate {estimate}");
    server.stop();
}

#[test]
fn slab_backend_serves_the_full_protocol() {
    let config = CacheConfig::with_capacity(1 << 20).slab_page_bytes(64 << 10);
    let server = CacheServer::spawn("127.0.0.1:0", config).unwrap();
    let client = CacheClient::connect(server.addr()).unwrap();
    for i in 0..300u32 {
        let key = format!("slab-key-{i}");
        let value = vec![(i % 251) as u8; 16 + (i as usize % 900)];
        client.set(key.as_bytes(), &value).unwrap();
        assert_eq!(
            client.get(key.as_bytes()).unwrap().as_deref(),
            Some(&value[..])
        );
    }
    client.set(b"counter", b"41").unwrap();
    assert_eq!(client.incr(b"counter", 1).unwrap(), Some(42));

    // `stats proteus` exposes the slab allocator's telemetry.
    let stats = client.stats_proteus().unwrap();
    let lookup = |name: &str| -> String {
        stats
            .iter()
            .find(|(k, _)| k == name || k.starts_with(&format!("{name}{{")))
            .unwrap_or_else(|| panic!("missing stat {name}"))
            .1
            .clone()
    };
    let pages: u64 = lookup("proteus_slab_pages_allocated").parse().unwrap();
    assert!(pages >= 1, "slab server must hold at least one page");
    // Assigned pages plus the pool's reserve; nothing emptied a page
    // beyond it yet, so nothing was released.
    let resident: u64 = lookup("proteus_slab_pages_resident").parse().unwrap();
    assert!(resident >= 1 && resident <= pages, "{resident} of {pages}");
    assert_eq!(lookup("proteus_slab_pages_released_total"), "0");
    let live: u64 = lookup("proteus_slab_live_bytes").parse().unwrap();
    assert!(live > 0);
    let frag: f64 = lookup("proteus_slab_fragmentation_ratio").parse().unwrap();
    assert!((0.0..1.0).contains(&frag), "fragmentation {frag}");
    assert_eq!(lookup("proteus_slab_page_bytes"), "65536");
    // The digest as resolved for the default eight shards: Eq. 10 for
    // the 1 024 items the capacity implies, l rounded up to whole words
    // a shard, b = 3 bits each.
    let counters: u64 = lookup("proteus_digest_counters").parse().unwrap();
    assert_eq!(lookup("proteus_digest_partitions"), "8");
    assert_eq!(counters % (8 * 64), 0);
    assert!(counters - config.digest.counters as u64 <= 8 * 64);
    assert_eq!(
        lookup("proteus_digest_bytes"),
        (counters * 3 / 8).to_string()
    );
    // Five pages a shard cannot give each of this mix's classes one:
    // the starved sets that evicted or went to the heap are counted
    // apart from the total of heap fallbacks.
    let starved: u64 = lookup("proteus_slab_starved_sets_total").parse().unwrap();
    let fallbacks: u64 = lookup("proteus_slab_heap_fallbacks_total").parse().unwrap();
    assert!(
        fallbacks <= starved,
        "{fallbacks} fallbacks, {starved} starved"
    );
    assert!(
        stats
            .iter()
            .any(|(k, _)| k.starts_with("proteus_slab_class_items")),
        "per-class metrics must be present"
    );
    server.stop();
}

#[test]
fn oversized_set_is_rejected_with_a_server_error() {
    // Value larger than the whole shard budget: the server must refuse
    // it cleanly instead of evicting everything or looping.
    let config = CacheConfig::with_capacity(64 << 10)
        .shards(1)
        .slab_page_bytes(16 << 10);
    let server = CacheServer::spawn("127.0.0.1:0", config).unwrap();
    let client = CacheClient::connect(server.addr()).unwrap();
    client.set(b"survivor", b"still here").unwrap();
    let huge = vec![0xAB; 128 << 10];
    match client.set(b"way-too-big", &huge) {
        Err(NetError::ServerError(msg)) => assert!(msg.contains("too large"), "{msg}"),
        other => panic!("expected rejection, got {other:?}"),
    }
    // Existing contents are untouched and the rejection is counted.
    assert_eq!(
        client.get(b"survivor").unwrap().as_deref(),
        Some(&b"still here"[..])
    );
    let stats = client.stats().unwrap();
    let rejected: u64 = stats
        .iter()
        .find(|(k, _)| k == "rejected_sets")
        .map(|(_, v)| v.parse().unwrap())
        .unwrap();
    assert_eq!(rejected, 1);
    server.stop();
}

#[test]
fn version_reports_the_crate_version() {
    let server = server();
    let client = CacheClient::connect(server.addr()).unwrap();
    let v = client.version().unwrap();
    assert!(v.starts_with("proteus-cache "), "{v}");
    server.stop();
}

#[test]
fn counters_survive_concurrent_increments() {
    // incr is atomic under the engine lock: N threads × M increments
    // must land exactly on N*M.
    let server = server();
    let client = std::sync::Arc::new(CacheClient::connect(server.addr()).unwrap());
    client.set(b"hits", b"0").unwrap();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let c = std::sync::Arc::clone(&client);
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                c.incr(b"hits", 1).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(client.get(b"hits").unwrap().as_deref(), Some(&b"200"[..]));
    server.stop();
}
