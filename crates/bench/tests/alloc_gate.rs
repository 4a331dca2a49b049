//! Allocation-regression gate for the zero-copy hot path, the
//! telemetry record path and the fixed footprint of a server.
//!
//! Counts heap acquisitions with the crate's counting global allocator
//! and fails if the warmed read path, the borrowing parser or a
//! histogram record starts allocating again, if a server that holds
//! no key yet asks for more than a third of a mebibyte (a digest kept
//! between windows or eagerly built histogram stripes), or if a scrape
//! costs more than its body (dense snapshots, a string per rendered
//! bucket, a JSON tree, a thread per scrape). It also holds an engine
//! to the memory it already has: a flushed engine refills
//! from its own pages, and a growing one adds slot blocks instead of
//! copying its table. Unlike the throughput numbers, these counts are
//! exact and identical on any hardware, so the budgets are tight.
//!
//! Everything runs inside a single `#[test]` — the test harness runs
//! sibling tests on concurrent threads, and their allocations would
//! bleed into our measurement windows otherwise.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use proteus_agg::{build_request, http_get_into, ClusterObserver, ObserverConfig, METRICS_PATH};
use proteus_bench::alloc_track::{
    is_counting, live_bytes, measure, thread_allocations, CountingAlloc,
};
use proteus_cache::{CacheConfig, CacheEngine, ShardedEngine, StorageKind};
use proteus_net::{
    parse_raw_command, CacheClient, CacheServer, NetError, RawCommand, SharedBytes, WireBuf,
};
use proteus_obs::{
    to_json, Counter, HistogramSnapshot, LatencyHistogram, MetricSource, MetricsServer, OpClass,
    OpLatencies,
};
use proteus_sim::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const GET_OPS: u64 = 10_000;
const PARSE_COMMANDS: u64 = 1_000;

/// Once the buffer pool is warm, borrowed parsing allocates only the
/// key list of a multi-key `get` — every third command of the stream —
/// plus the boxed end-of-stream error that ends the drain.
const PARSE_BUDGET: u64 = PARSE_COMMANDS.div_ceil(3) + 4;

/// What the parser may ask the allocator for before it refuses a `get`
/// line of just under 1 MiB that names too many keys: the refusal's
/// error and nothing else, since the keys are counted before any list
/// exists. Measured 24 B, the error's message; the budget leaves room
/// for a longer message but not for a list (eight keys' list is
/// 128 B). 32 728 B while the list of `MAX_GET_KEYS` keys was built
/// before the count; 16 777 176 B in 19 allocations when the parser
/// listed every key before counting them.
const OVERSIZED_GET_BUDGET_BYTES: u64 = 64;

/// Pipelined commands of each kind the live-server section sends, and
/// what the whole process may allocate while serving both batches:
/// 0.05 per command.
const SERVER_COMMANDS: u64 = 10_000;
const SERVER_BUDGET: u64 = 2 * SERVER_COMMANDS / 20;

/// Round trips per single-command client section, pipelined batches per
/// batch section, and the keys in one batch (`PULL_BATCH`, what a
/// pull-ahead migration sends).
const CLIENT_OPS: u64 = 1_000;
const CLIENT_BATCHES: u64 = 20;
const CLIENT_BATCH_KEYS: u64 = 128;
/// A `get` hit keeps two things the caller owns: the value's
/// `SharedBytes` and the echoed key.
const CLIENT_GET_BUDGET: u64 = 2 * CLIENT_OPS;
/// A pipelined batch owns the list of its borrowed commands; the rest
/// is slack for a buffer on the path growing once.
const CLIENT_BATCH_BUDGET: u64 = 4 * CLIENT_BATCHES;
/// A `get_many` keeps the same two per hit as a `get`, plus per batch
/// the client's borrowed key list, the answers and the reply's item
/// list (sized once its run has been counted). The window counts the
/// client's thread only, so the server's key list (sized once its keys
/// have been counted) is no longer in it. Measured with it: 260 a batch,
/// 2.03 per key (265 while the server's list doubled from 4 to 128
/// keys as the line was parsed, 266 while a lookup table lined answers
/// up with keys, 272 while the item list doubled as it filled, 3.15
/// per key for the client that copied every key it sent); the budget
/// is 5 a batch over the hits, one over the measurement.
const CLIENT_GET_MANY_BUDGET: u64 = CLIENT_BATCHES * (2 * CLIENT_BATCH_KEYS + 5);

/// A warmed scrape over a recycled buffer is socket I/O into existing
/// capacity: connect, write a prebuilt request, read into the reused
/// `Vec`. A handful of allocations of slack covers libstd internals;
/// anything beyond that means the observer's scrape path has regressed
/// to per-tick buffers.
const SCRAPE_BUDGET: u64 = 8;

/// The read side of the scrape plane, on four default servers that each
/// served `SCRAPE_FIXTURE_OPS` `set`s, as many `get`s and one `delete`:
/// one server's registry rendered as JSON, and one observer tick across
/// every thread — four scrapes on the observer's and the endpoints'
/// kept scrape threads, four renders, four one-pass decodes and the
/// merge. The tick measured 380–445 KB (debug and release); the budget
/// leaves 79 KB, about a sixth, for the renders' spread. 892 370 B
/// while each tick started four scrape threads, each endpoint one per
/// scrape, and each body was decoded through a JSON tree; 667 520 + 78 847 B
/// and 7.0 MB when every snapshot was a dense 30 KiB bucket vector and
/// the renderers built a string per label, quantile and bucket.
const SCRAPE_FIXTURE_OPS: u64 = 2_000;
const RENDER_BUDGET_BYTES: u64 = 80 << 10;
const TICK_BUDGET_BYTES: u64 = 512 << 10;

/// Records per telemetry section, and the mean cost one may have in an
/// optimised build. The path is about five relaxed atomic RMWs and sits
/// well under 100 ns on anything modern; the budget is loose enough for
/// a shared runner, and a lock or an allocation in the path goes past
/// it at once. (`benchmark/` prints the number as `obs.record_ns`.)
const RECORDS: u64 = 2_000_000;
const RECORD_BUDGET_NS: f64 = 1_000.0;
const RECORD_THREADS: u64 = 4;
/// The samples the record loops sweep, `100 + i % 100_000` ns: eleven
/// octaves.
const SWEEP_NS: std::ops::RangeInclusive<u64> = 100..=100_099;

/// What a default server (64 MiB, 8 shards, slab storage) may ask the
/// allocator for between `spawn` and its first reply, before it holds a
/// key: the shards' empty indexes, the loops, the first connection's
/// 8 KiB input buffer, and the stripe and bucket group the first
/// command touches. No digest: it is built when a window asks for one.
/// Measured 279 561 B with two loops (debug and release); the budget
/// leaves 74 KiB for up to four loops and allocator noise. 513 785 B
/// while the shards kept a counting digest of `l·b` bits between them
/// (228 KiB), 0.61 MiB when each loop also kept a 64 KiB read scratch
/// and a stripe built all 30 KiB of its buckets, 4.95 MiB when every
/// shard held a whole digest and every histogram stripe was built up
/// front.
const SPAWN_BUDGET_BYTES: u64 = 347 << 10;
/// A histogram registry nobody has recorded into is cells, not buckets.
const FRESH_OPS_BUDGET_BYTES: u64 = 8 << 10;
/// Two threads recording into two classes build four stripes and the
/// bucket groups of the octaves each one's samples span: measured
/// 20 136 B with the fresh registry (28 groups of 512 B); the budget
/// leaves 4 KiB, eight groups, of margin. 160 KiB when a stripe built
/// all 3 840 buckets (30 KiB) on its first record, 2.81 MiB when all 96
/// stripes were built up front.
const RECORDED_OPS_BUDGET_BYTES: u64 = 24 << 10;
/// One octave's 64 bucket counters.
const GROUP_BYTES: u64 = 64 * 8;

/// Items a default engine holds before it is flushed and refilled, and
/// the value sizes they cycle through (several size classes). Measured:
/// the refill asked for 0 B and ended 4 256 B above the first fill; when
/// `clear` dropped the pages, each flush gave back all 253 and the
/// refill bought them again.
const FLUSH_ITEMS: u64 = 20_000;
const FLUSH_VALUE_BYTES: [usize; 4] = [100, 300, 700, 1500];

/// Items in one default-shaped shard (8 MiB, 64 KiB pages) just past a
/// power of two, and the slot table's block: 1 024 slots of 32 bytes
/// (`engine::tests::a_slot_is_32_bytes` pins the slot's size).
/// Over the pages, the blocks and the index, the engine may keep
/// `GROWTH_SLACK_BYTES` of bookkeeping (the classes' page lists, the
/// block list). A slot table that doubles holds 8 192 slots (256 KiB)
/// for 4 097 items, where five blocks are 160 KiB. Measured: the shard
/// grew 721 488 B, 592 B over pages + blocks + index (869 392 B with
/// 48-byte slots and ×1.25 size classes; 1 016 656 B when that table
/// doubled).
const GROWN_ITEMS: u64 = 4_097;
const SLOT_BLOCK_BYTES: u64 = 1024 * 32;
const GROWTH_SLACK_BYTES: u64 = 4 << 10;

/// The counting allocator tallies process-wide, and the test harness's
/// own housekeeping thread occasionally allocates inside a measurement
/// window. A genuine hot-path regression allocates on *every* run —
/// O(ops) times, not once or twice — so the minimum over a few
/// attempts isolates the code path from scheduler noise without
/// loosening any budget.
fn min_allocations(runs: usize, mut f: impl FnMut()) -> u64 {
    (0..runs)
        .map(|_| measure(&mut f).1.allocations)
        .min()
        .expect("at least one run")
}

/// [`min_allocations`] counting only the calling thread's allocations.
fn min_thread_allocations(runs: usize, mut f: impl FnMut()) -> u64 {
    (0..runs)
        .map(|_| {
            let before = thread_allocations();
            f();
            thread_allocations() - before
        })
        .min()
        .expect("at least one run")
}

/// [`min_allocations`] for the bytes requested.
fn min_bytes(runs: usize, mut f: impl FnMut()) -> u64 {
    (0..runs)
        .map(|_| measure(&mut f).1.bytes)
        .min()
        .expect("at least one run")
}

/// Allocations over `RECORDS` calls of `record` and the mean
/// nanoseconds a call took: the best of up to three attempts, for the
/// reason above, stopping at the first that allocates nothing.
fn record_cost(mut record: impl FnMut(u64)) -> (u64, f64) {
    let mut best = (u64::MAX, f64::MAX);
    for _ in 0..3 {
        let (elapsed, tally) = measure(|| {
            let began = Instant::now();
            (0..RECORDS).for_each(&mut record);
            began.elapsed()
        });
        let ns = elapsed.as_secs_f64() * 1e9 / RECORDS as f64;
        best = (best.0.min(tally.allocations), best.1.min(ns));
        if best.0 == 0 {
            break;
        }
    }
    best
}

/// Allocations while `RECORD_THREADS` threads record into `hist` at
/// once. The workers are spawned before the window opens and joined
/// after it closes — stacks and `JoinHandle`s are not the record path —
/// so the window brackets only the record loops.
///
/// Each worker records its octaves before the window: a thread's first
/// record may build the stripe it landed on, and the first in an octave
/// that octave's bucket group, and those are the only allocations the
/// path is allowed.
fn contended_record_allocations(hist: &LatencyHistogram) -> u64 {
    let start = Barrier::new(RECORD_THREADS as usize + 1);
    let done = Barrier::new(RECORD_THREADS as usize + 1);
    std::thread::scope(|s| {
        for t in 0..RECORD_THREADS {
            let (start, done) = (&start, &done);
            s.spawn(move || {
                warm_octaves(|ns| hist.record_nanos(ns));
                start.wait();
                for i in 0..RECORDS / RECORD_THREADS {
                    hist.record_nanos(100 + ((i + t * 7919) % 100_000));
                }
                done.wait();
            });
        }
        start.wait();
        measure(|| done.wait()).1.allocations
    })
}

/// Records one sample in every octave of `SWEEP_NS`, the range the
/// record loops below sweep: after it, recording there allocates
/// nothing.
fn warm_octaves(record: impl Fn(u64)) {
    let octaves = (0..64).map(|bit| 1u64 << bit);
    let inside = octaves.filter(|ns| SWEEP_NS.contains(ns));
    [*SWEEP_NS.start(), *SWEEP_NS.end()]
        .into_iter()
        .chain(inside)
        .for_each(record);
}

/// The telemetry record path is safe to leave on in production: zero
/// heap allocations and a handful of relaxed atomics per record, for a
/// latency histogram on one thread and on several, for the per-op-class
/// registry and for a plain counter — all three sit on the server's
/// per-command path. (A snapshot allocates the span of buckets its
/// samples occupy; `scrape_path_stays_within_budget` bounds it.)
fn telemetry_records_without_allocating() {
    let budget = |what: &str, ns: f64| {
        assert!(
            cfg!(debug_assertions) || ns < RECORD_BUDGET_NS,
            "{what} too slow: {ns:.1} ns > {RECORD_BUDGET_NS} ns budget"
        );
    };

    let hist = LatencyHistogram::new();
    // The first records assign this thread its stripe and build it and
    // the octaves the sweep below touches.
    warm_octaves(|ns| hist.record_nanos(ns));
    // Spread across buckets so the sweep is not one cache line.
    let (allocations, ns) = record_cost(|i| hist.record_nanos(100 + (i % 100_000)));
    assert_eq!(allocations, 0, "histogram record path allocated");
    budget("histogram record", ns);

    let hist = LatencyHistogram::new();
    assert!(
        (0..3).any(|_| contended_record_allocations(&hist) == 0),
        "contended record path allocated"
    );

    let ops = OpLatencies::default();
    for class in [OpClass::Get, OpClass::Set] {
        warm_octaves(|ns| ops.record(class, Duration::from_nanos(ns)));
    }
    let (allocations, ns) = record_cost(|i| {
        let class = if i % 10 == 0 {
            OpClass::Set
        } else {
            OpClass::Get
        };
        ops.record(class, Duration::from_nanos(100 + (i % 100_000)));
    });
    assert_eq!(allocations, 0, "op-class record path allocated");
    budget("op-class record", ns);

    let counter = Counter::new();
    let (allocations, _) = record_cost(|_| counter.inc());
    assert_eq!(allocations, 0, "counter inc allocated");
}

/// Telemetry costs memory where it is used: a fresh per-op-class
/// registry is a cell a stripe, and after two threads recorded into two
/// classes it holds the (at most) four stripes they touched — not the 96
/// a registry of 12 classes × 8 stripes could — and in those only the
/// bucket groups of the octaves they recorded.
fn histograms_materialise_where_they_are_recorded() {
    let (ops, fresh) = measure(OpLatencies::default);
    assert!(
        fresh.bytes < FRESH_OPS_BUDGET_BYTES,
        "a fresh OpLatencies allocated {} B (budget {FRESH_OPS_BUDGET_BYTES}) — \
         stripes are built before anything records into them",
        fresh.bytes
    );
    let ((), recorded) = measure(|| {
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let ops = &ops;
                s.spawn(move || {
                    for i in 0..50_000u64 {
                        let class = [OpClass::Get, OpClass::Set][(i % 2) as usize];
                        ops.record(class, Duration::from_nanos(100 + (i + t * 7919) % 100_000));
                    }
                });
            }
        });
    });
    let total = fresh.bytes + recorded.bytes;
    assert!(
        (2 * GROUP_BYTES..=RECORDED_OPS_BUDGET_BYTES).contains(&total),
        "two threads recording into two classes left {total} B allocated \
         (a bucket group a class at least, budget {RECORDED_OPS_BUDGET_BYTES})"
    );
    assert_eq!(ops.snapshot(OpClass::Get).count(), 50_000);
    assert_eq!(ops.snapshot(OpClass::Set).count(), 50_000);
    assert!(ops.snapshot(OpClass::Delete).is_empty());
}

/// A scrape costs its body: an untouched histogram's snapshot, and an
/// empty one, build nothing; a server's registry and its JSON rendering
/// allocate the occupied buckets and one output buffer; and an observer
/// tick over four servers stays under 512 KiB across every thread,
/// serving side included. Each figure is the least of three runs, after
/// two warm-up ticks have sized the observer's recycled buffers. Once
/// warm, ten ticks start no thread on either side.
fn scrape_path_stays_within_budget() {
    let (_, empty) = measure(HistogramSnapshot::empty);
    let untouched = LatencyHistogram::new();
    let (snap, unread) = measure(|| untouched.snapshot());
    assert!(snap.is_empty());
    assert_eq!(
        (empty.bytes, unread.bytes),
        (0, 0),
        "an empty snapshot allocated {} B and an untouched histogram's {} B — \
         a snapshot builds buckets nobody recorded into",
        empty.bytes,
        unread.bytes
    );

    let servers: Vec<CacheServer> = (0..4)
        .map(|_| {
            let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(64 << 20))
                .expect("bind an ephemeral port");
            let client = CacheClient::connect(server.addr()).expect("connect to the server");
            for i in 0..SCRAPE_FIXTURE_OPS {
                client.set(format!("k:{i}").as_bytes(), b"value").unwrap();
            }
            for i in 0..SCRAPE_FIXTURE_OPS {
                assert!(client.get(format!("k:{i}").as_bytes()).unwrap().is_some());
            }
            assert!(client.delete(b"k:0").unwrap());
            server
        })
        .collect();

    let source = servers[0].metric_source();
    let render = min_bytes(3, || {
        std::hint::black_box(to_json(&source()));
    });
    assert!(
        render <= RENDER_BUDGET_BYTES,
        "one server's registry and JSON rendering allocated {render} B \
         (budget {RENDER_BUDGET_BYTES}) — snapshots or the renderer build per-bucket garbage"
    );

    let endpoints: Vec<MetricsServer> = servers
        .iter()
        .map(|s| MetricsServer::spawn("127.0.0.1:0", s.metric_source()).expect("bind"))
        .collect();
    let observer = ClusterObserver::new(ObserverConfig::default());
    for endpoint in &endpoints {
        observer.add_server(endpoint.local_addr());
    }
    for _ in 0..2 {
        observer.tick();
    }
    let tick = min_bytes(3, || {
        let snap = observer.tick();
        assert_eq!(snap.servers.iter().filter(|s| s.fresh).count(), 4);
    });
    let created = threads_ten_ticks_create(&servers);
    drop(endpoints);
    servers.into_iter().for_each(CacheServer::stop);
    assert!(
        tick <= TICK_BUDGET_BYTES,
        "an observer tick over four servers allocated {tick} B across every thread \
         (budget {TICK_BUDGET_BYTES}) — a scrape costs more than its body again"
    );
    assert!(
        created.is_empty(),
        "ten warmed observer ticks over four endpoints started {} threads — \
         a scrape starts a thread again",
        created.len()
    );
}

/// The ids of this process's live threads.
fn live_threads() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// The threads that ten warmed observer ticks over `servers`' four
/// endpoints started: thread ids in `/proc/self/task` after the ticks,
/// or while an endpoint rendered a scrape (when the scraping thread
/// and the serving thread are both alive), that were not there before
/// them. A tick that starts its scrape threads, or an endpoint that
/// starts one per scrape, leaves none behind, so the listing taken
/// during each render is what catches them.
fn threads_ten_ticks_create(servers: &[CacheServer]) -> Vec<u64> {
    let seen = Arc::new(Mutex::new(BTreeSet::new()));
    let endpoints: Vec<MetricsServer> = servers
        .iter()
        .map(|s| {
            let registry = s.metric_source();
            let seen = Arc::clone(&seen);
            let source: MetricSource = Arc::new(move || {
                seen.lock().unwrap().extend(live_threads());
                registry()
            });
            MetricsServer::spawn("127.0.0.1:0", source).expect("bind")
        })
        .collect();
    let observer = ClusterObserver::new(ObserverConfig::default());
    for endpoint in &endpoints {
        observer.add_server(endpoint.local_addr());
    }
    for _ in 0..2 {
        observer.tick();
    }
    let before = live_threads();
    seen.lock().unwrap().clear();
    for _ in 0..10 {
        let snap = observer.tick();
        assert_eq!(snap.servers.iter().filter(|s| s.fresh).count(), 4);
    }
    let mut during = live_threads();
    during.extend(seen.lock().unwrap().iter());
    during.difference(&before).copied().collect()
}

/// The client half of the wire, against a live server: a command is
/// encoded from the caller's slices into the pooled connection's buffer
/// and a reply parsed where it lands in the connection's input buffer,
/// so a warmed exchange allocates only what it hands back. 1 KiB
/// values. The window counts the calling thread's allocations only,
/// which are the client's: the client runs on its caller's thread.
/// Counted here, a latency landing in an octave of the server's
/// histograms that no command had reached yet built its bucket group
/// inside the window, and failed this section now and then on unchanged
/// code. The server's threads are held to a budget by the live-server
/// section instead, which counts the whole process over 20 000
/// commands.
fn client_stays_within_allocation_budget(server: &CacheServer) {
    let client = CacheClient::connect(server.addr()).expect("connect to the server");
    let value = [b'v'; 1024];
    let keys: Vec<Vec<u8>> = (0..CLIENT_BATCH_KEYS)
        .map(|i| format!("client:{i}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let pairs: Vec<(&[u8], SharedBytes)> = refs
        .iter()
        .map(|&key| (key, SharedBytes::from(&value[..])))
        .collect();
    let key_of = |i: u64| refs[(i % CLIENT_BATCH_KEYS) as usize];
    let per_batch = |run: &mut dyn FnMut()| {
        run(); // sizes the connection's buffers outside the window
        min_thread_allocations(3, || (0..CLIENT_BATCHES).for_each(|_| run()))
    };

    client.set_many(&pairs).unwrap();
    client.get(key_of(0)).unwrap(); // warm the reply path
    let get = min_thread_allocations(3, || {
        for i in 0..CLIENT_OPS {
            let hit = client.get(key_of(i)).unwrap();
            assert_eq!(hit.as_deref(), Some(&value[..]));
        }
    });
    assert!(
        get <= CLIENT_GET_BUDGET,
        "{CLIENT_OPS} client gets allocated {get} times (budget {CLIENT_GET_BUDGET}) — \
         the client copies a key or builds per-call buffers again"
    );
    let set = min_thread_allocations(3, || {
        for i in 0..CLIENT_OPS {
            client.set(key_of(i), &value).unwrap();
        }
    });
    assert_eq!(
        set, 0,
        "{CLIENT_OPS} client sets allocated {set} times — \
         a set owns nothing once its connection's buffers are warm"
    );

    let set_many = per_batch(&mut || client.set_many(&pairs).unwrap());
    let add_many = per_batch(&mut || assert_eq!(client.add_many(&pairs).unwrap(), 0));
    let get_many = per_batch(&mut || {
        let got = client.get_many(&refs).unwrap();
        assert!(got.iter().all(Option::is_some), "a loaded key missed");
    });
    let delete_many = per_batch(&mut || {
        client.delete_many(&refs).unwrap();
    });
    for (what, allocations) in [
        ("set_many", set_many),
        ("add_many", add_many),
        ("delete_many", delete_many),
    ] {
        assert!(
            allocations <= CLIENT_BATCH_BUDGET,
            "{CLIENT_BATCHES} {what} batches of {CLIENT_BATCH_KEYS} allocated {allocations} \
             times (budget {CLIENT_BATCH_BUDGET}) — the batch copies its keys or values again"
        );
    }
    assert!(
        get_many <= CLIENT_GET_MANY_BUDGET,
        "{CLIENT_BATCHES} get_many batches of {CLIENT_BATCH_KEYS} allocated {get_many} times \
         (budget {CLIENT_GET_MANY_BUDGET}) — more than the value and the echoed key per hit"
    );
}

/// A flushed engine reuses the pages it holds: a default engine keeps
/// its slab pages in its pools through `clear`, so refilling it with the
/// same items asks the allocator for less than a page and ends where the
/// first fill did.
fn a_flushed_engine_refills_from_its_own_pages() {
    let value = [b'v'; 1500];
    let engine = ShardedEngine::new(CacheConfig::with_capacity(64 << 20));
    let fill = || {
        for i in 0..FLUSH_ITEMS {
            let len = FLUSH_VALUE_BYTES[(i % 4) as usize];
            let outcome = engine.put(&i.to_le_bytes(), &value[..len], SimTime::ZERO);
            assert!(outcome.stored);
        }
    };
    let pages = || engine.slab_stats().expect("slab backend");
    fill();
    let (filled, first) = (pages(), live_bytes());
    engine.clear();
    let cleared = pages();
    let ((), refill) = measure(fill);
    let (refilled, last) = (pages(), live_bytes());
    assert_eq!(
        (cleared.pages_allocated, refilled.pages_allocated),
        (filled.pages_allocated, filled.pages_allocated),
        "flush_all gave back slab pages (after the fill / the flush / the refill: {} / {} / {})",
        filled.pages_allocated,
        cleared.pages_allocated,
        refilled.pages_allocated
    );
    assert_eq!(cleared.pages_pooled, filled.pages_allocated);
    assert!(
        last <= first + filled.page_bytes && refill.bytes < filled.page_bytes,
        "a flushed engine's refill asked for {} B and ended holding {last} B, \
         against {first} B after the first fill (one page: {} B)",
        refill.bytes,
        filled.page_bytes
    );
}

/// A shard that grows past a power of two of items holds its pages, one
/// slot block a 1 024 items and its index: no doubled slot table.
fn a_growing_shard_adds_slot_blocks() {
    let value = [b'v'; 100];
    let config = CacheConfig::with_capacity(8 << 20);
    let mut shard = CacheEngine::new(config);
    let created = live_bytes();
    for i in 0..GROWN_ITEMS {
        let outcome = shard.put(&i.to_le_bytes(), &value[..], SimTime::ZERO);
        assert!(outcome.stored);
    }
    let grown = live_bytes() - created;
    let page_bytes = shard.slab_stats().expect("slab backend").page_bytes_total();
    let blocks = GROWN_ITEMS.div_ceil(1024) * SLOT_BLOCK_BYTES;
    // The index's table: the least power of two of `u32` buckets, at
    // least 16, that holds the items at a load of 7/8 or less.
    let mut buckets = 16;
    while GROWN_ITEMS * 8 > buckets * 7 {
        buckets *= 2;
    }
    let budget = page_bytes + blocks + 4 * buckets + GROWTH_SLACK_BYTES;
    assert!(
        grown <= budget,
        "{GROWN_ITEMS} items grew a shard by {grown} B: pages {page_bytes} B + slot blocks \
         {blocks} B + index {} B + {GROWTH_SLACK_BYTES} B of slack is {budget} B — \
         the slot table grows by doubling again",
        4 * buckets
    );
}

#[test]
fn hot_paths_stay_within_allocation_budget() {
    assert!(
        is_counting(),
        "counting allocator not registered — the gate would pass vacuously"
    );

    // Warmed gets on the heap backend: handing out the shared buffer
    // is a refcount bump, so the budget is zero. No slack: a single
    // allocation per get is exactly the regression this gate exists to
    // catch.
    let engine =
        ShardedEngine::new(CacheConfig::with_capacity(64 << 20).storage(StorageKind::Heap));
    for i in 0..512u64 {
        engine.put(&i.to_le_bytes(), vec![9u8; 128], SimTime::ZERO);
    }
    let warm = min_allocations(3, || {
        for i in 0..GET_OPS {
            let key = (i % 512).to_le_bytes();
            let hit = engine.get(&key, SimTime::ZERO);
            assert!(hit.is_some(), "prepopulated key missing");
            std::hint::black_box(&hit);
        }
    });
    assert_eq!(
        warm, 0,
        "warmed gets allocated {warm} times over {GET_OPS} ops — \
         the shared-buffer read path has regressed to copying"
    );

    // The slab backend owns its pages and lends them under the shard
    // lock; the server copies a hit straight into the connection's
    // output buffer inside `with_key_shard`. That path — not the
    // owned-copy convenience `ShardedEngine::get` — is what must stay
    // allocation-free.
    let slab = ShardedEngine::new(CacheConfig::with_capacity(64 << 20));
    for i in 0..512u64 {
        slab.put(&i.to_le_bytes(), vec![7u8; 128], SimTime::ZERO);
    }
    let mut out = Vec::with_capacity(256);
    let slab_warm = min_allocations(3, || {
        for i in 0..GET_OPS {
            let key = (i % 512).to_le_bytes();
            out.clear();
            let hit = slab.with_key_shard(&key, |e| {
                e.get(&key, SimTime::ZERO).map(|v| out.extend_from_slice(v))
            });
            assert!(hit.is_some(), "prepopulated slab key missing");
            std::hint::black_box(&out);
        }
    });
    assert_eq!(
        slab_warm, 0,
        "warmed slab gets allocated {slab_warm} times over {GET_OPS} ops — \
         the borrowed read under the shard lock allocates"
    );

    // Warmed overwriting puts on the slab backend copy the value into
    // a page, and touch no digest: the digest is built from the keys
    // when a window asks for it. Budget zero: an allocation per put in
    // the index, the slot table or the slab write path is the
    // regression this pins.
    let value = [5u8; 128];
    let slab_put = min_allocations(3, || {
        for i in 0..GET_OPS {
            let key = (i % 512).to_le_bytes();
            let outcome = slab.put(&key, &value[..], SimTime::ZERO);
            assert!(outcome.stored, "overwrite rejected");
        }
    });
    assert_eq!(
        slab_put, 0,
        "warmed slab puts allocated {slab_put} times over {GET_OPS} ops — \
         the slab write path allocates again"
    );

    // Borrowed parsing over a reused buffer pool: after a warm-up
    // drain sizes the pool, steady state allocates only the key list
    // of a multi-key get — nothing for a single-key get, and never the
    // key or value bytes of a set.
    let mut stream = Vec::new();
    for i in 0..PARSE_COMMANDS {
        if i % 3 == 0 {
            stream.extend_from_slice(format!("get a:{i} b:{i}\r\n").as_bytes());
        } else if i % 3 == 1 {
            stream.extend_from_slice(format!("get a:{i}\r\n").as_bytes());
        } else {
            stream.extend_from_slice(format!("set k:{i} 0 0 32\r\n").as_bytes());
            stream.extend_from_slice(&[b'v'; 32]);
            stream.extend_from_slice(b"\r\n");
        }
    }
    let drain = |buf: &mut WireBuf| {
        let mut input = &stream[..];
        let mut parsed = 0u64;
        while let Some((cmd, used)) = parse_raw_command(input, buf).expect("a valid stream") {
            input = &input[used..];
            assert!(!matches!(cmd, RawCommand::Quit));
            std::hint::black_box(&cmd);
            parsed += 1;
        }
        assert_eq!(parsed, PARSE_COMMANDS);
    };
    let mut buf = WireBuf::new();
    drain(&mut buf); // warm the pool outside the window
    let parse = min_allocations(3, || drain(&mut buf));
    assert!(
        parse <= PARSE_BUDGET,
        "borrowed parser allocated {parse} times over {PARSE_COMMANDS} commands \
         (budget {PARSE_BUDGET}) — per-command buffers are no longer reused"
    );

    // A `get` naming 524 285 keys in a 1 048 575-byte line is refused
    // for naming more than `MAX_GET_KEYS`, without listing them all.
    let mut oversized = b"get".to_vec();
    while oversized.len() + 4 <= 1_048_575 {
        oversized.extend_from_slice(b" a");
    }
    oversized.extend_from_slice(b"\r\n");
    assert_eq!(oversized.len(), 1_048_575);
    let refused = min_bytes(3, || {
        let verdict = parse_raw_command(&oversized, &mut buf);
        assert!(matches!(verdict, Err(NetError::Protocol(_))), "{verdict:?}");
    });
    assert!(
        refused < OVERSIZED_GET_BUDGET_BYTES,
        "refusing an oversized get asked for {refused} B \
         (budget {OVERSIZED_GET_BUDGET_BYTES}) — it lists every key before counting them"
    );

    // The whole server path on a live default server (slab storage,
    // default plane), one connection: 10 k pipelined `get`s, then 10 k
    // pipelined `set`s. Parse borrows the wire buffer, a hit is copied
    // from the page into the connection's output buffer, a set is
    // copied from the wire buffer into its chunk — nothing per command
    // allocates. The client side of the window is a prebuilt request,
    // `write_all`, and `read_exact` into a sized buffer; the budget
    // leaves room for per-wake-up bookkeeping in an event loop
    // (measured: none at all over the 20 k commands).
    //
    // Before it holds a key, that server is small: the window below
    // runs from `spawn` to the first reply, so it holds the engine, the
    // loops and the first histogram stripe.
    let (server, spawn) = measure(|| {
        let server = CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(64 << 20))
            .expect("bind an ephemeral port");
        let mut sock = TcpStream::connect(server.addr()).expect("connect to the server");
        sock.write_all(b"get nothing-yet\r\n").unwrap();
        let mut end = [0u8; 5];
        sock.read_exact(&mut end).unwrap();
        assert_eq!(&end, b"END\r\n");
        server
    });
    assert!(
        spawn.bytes <= SPAWN_BUDGET_BYTES,
        "a default server allocated {} B before its first key (budget {SPAWN_BUDGET_BYTES}) — \
         a digest kept between windows, or histograms built before they are recorded into",
        spawn.bytes
    );
    let mut gets = Vec::new();
    let mut sets = Vec::new();
    for i in 0..SERVER_COMMANDS {
        let key = i % 512;
        gets.extend_from_slice(format!("get key:{key}\r\n").as_bytes());
        sets.extend_from_slice(format!("set key:{key} 0 0 128\r\n").as_bytes());
        sets.extend_from_slice(&[b'v'; 128]);
        sets.extend_from_slice(b"\r\n");
    }
    let stored = b"STORED\r\n".len() * SERVER_COMMANDS as usize;
    let values: usize = (0..SERVER_COMMANDS)
        .map(|i| format!("VALUE key:{} 0 128\r\n", i % 512).len() + 128 + b"\r\nEND\r\n".len())
        .sum();
    let mut sock = TcpStream::connect(server.addr()).expect("connect to the server");
    let mut reply = vec![0u8; stored.max(values)];
    let mut round = |sock: &mut TcpStream| {
        sock.write_all(&sets).unwrap();
        sock.read_exact(&mut reply[..stored]).unwrap();
        assert!(reply[..stored].ends_with(b"STORED\r\n"));
        sock.write_all(&gets).unwrap();
        sock.read_exact(&mut reply[..values]).unwrap();
        assert!(reply[..values].ends_with(b"\r\nEND\r\n"));
    };
    round(&mut sock); // loads the keys and sizes every buffer on the path
    let served = min_allocations(3, || round(&mut sock));
    drop(sock);
    client_stays_within_allocation_budget(&server);
    server.stop();
    assert!(
        served <= SERVER_BUDGET,
        "a live server allocated {served} times over {} pipelined commands \
         (budget {SERVER_BUDGET}) — the serve path allocates per command again",
        2 * SERVER_COMMANDS
    );

    // The observer's scrape I/O path: prebuilt request bytes, response
    // read into a buffer recycled across ticks. Measured against a raw
    // responder thread that writes a canned response built before the
    // window, so the only allocations in the window are the client's.
    // The allocator counts process-wide, so a real MetricsServer would
    // add its registry and rendering to this count; the read-path
    // section bounds those in bytes.
    let canned = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
        r#"[{"name":"proteus_get_hits_total","labels":{},"type":"counter","value":42}]"#
    )
    .into_bytes();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const WARM_SCRAPES: usize = 2;
    const MEASURED_SCRAPES: usize = 3; // min over these three
    const SCRAPES: usize = WARM_SCRAPES + MEASURED_SCRAPES;
    let responder = std::thread::spawn(move || {
        for _ in 0..SCRAPES {
            if let Ok((mut stream, _)) = listener.accept() {
                // Closing with the request unread resets the connection
                // under the client's read.
                let mut request = [0u8; 512];
                let _ = stream.read(&mut request);
                let _ = stream.write_all(&canned);
            }
        }
    });
    let request = build_request(METRICS_PATH);
    let timeout = Duration::from_secs(2);
    let mut body = Vec::new();
    for _ in 0..WARM_SCRAPES {
        // First call grows `body` to the response size; second proves
        // outside the window that the warm path works at all.
        http_get_into(addr, &request, timeout, timeout, &mut body).unwrap();
    }
    let scrape = min_allocations(MEASURED_SCRAPES, || {
        let offset = http_get_into(addr, &request, timeout, timeout, &mut body).unwrap();
        assert!(body.len() > offset, "scrape returned an empty body");
    });
    responder.join().unwrap();
    assert!(
        scrape <= SCRAPE_BUDGET,
        "warmed scrape allocated {scrape} times (budget {SCRAPE_BUDGET}) — \
         the reused response buffer or prebuilt request has regressed"
    );

    scrape_path_stays_within_budget();
    telemetry_records_without_allocating();
    histograms_materialise_where_they_are_recorded();
    a_flushed_engine_refills_from_its_own_pages();
    a_growing_shard_adds_slot_blocks();
}
