//! The background pull of a transition window, on four live servers:
//! `begin_transition` moves the keys whose owner changes ahead of the
//! requests that would migrate them, so that closing the window — and
//! powering the old server off — costs no database fetch.
//!
//! Every test synchronises with the puller by polling
//! `ClusterClient::pull_progress()` against a deadline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use proteus::cache::CacheConfig;
use proteus::net::{
    CacheServer, ClientConfig, ClusterClient, ClusterFetch, DbFallback, FaultMode, FaultProxy,
    NetError, PullProgress, PullState, SharedBytes,
};
use proteus::obs::{FetchClassKind, TraceKind};
use proteus::ring::ProteusPlacement;

const N: usize = 4;

/// The authoritative store: counts how often it is asked, and lets a
/// test move a key to a new version.
#[derive(Default)]
struct Db {
    written: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
    fetches: AtomicU64,
}

impl Db {
    fn original(key: &[u8]) -> Vec<u8> {
        [b"value of ", key].concat()
    }

    fn set(&self, key: &[u8], value: &[u8]) {
        self.written.lock().insert(key.to_vec(), value.to_vec());
    }

    fn fetches(&self) -> u64 {
        self.fetches.load(Ordering::Relaxed)
    }
}

impl DbFallback for Db {
    fn fetch(&self, key: &[u8]) -> Result<Vec<u8>, NetError> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        let written = self.written.lock().get(key).cloned();
        Ok(written.unwrap_or_else(|| Db::original(key)))
    }
}

struct Rig {
    servers: Vec<CacheServer>,
    proxies: Vec<FaultProxy>,
    cluster: ClusterClient,
    keys: Vec<Vec<u8>>,
}

/// Four servers — behind fault proxies if asked — holding `keys` keys,
/// each stored where the four-server mapping puts it.
fn rig(keys: u32, proxied: bool) -> Rig {
    let servers: Vec<CacheServer> = (0..N)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(8 << 20)).unwrap())
        .collect();
    let proxies: Vec<FaultProxy> = if proxied {
        (servers.iter())
            .map(|s| FaultProxy::spawn(s.addr()).unwrap())
            .collect()
    } else {
        Vec::new()
    };
    let addrs: Vec<_> = if proxied {
        proxies.iter().map(FaultProxy::addr).collect()
    } else {
        servers.iter().map(CacheServer::addr).collect()
    };
    // Short timeouts only where a test injects faults: elsewhere a slow
    // moment of the host must not read as one (a retry would dial).
    let config = if proxied {
        ClientConfig::fast_failover()
    } else {
        ClientConfig::default()
    };
    let cluster =
        ClusterClient::connect_with(&addrs, Box::new(ProteusPlacement::generate(N)), config)
            .unwrap();
    let keys: Vec<Vec<u8>> = (0..keys)
        .map(|i| format!("page:{i}").into_bytes())
        .collect();
    for chunk in keys.chunks(512) {
        let mut by_server: [Vec<(&[u8], SharedBytes)>; N] = Default::default();
        for key in chunk {
            by_server[cluster.server_for(key).index()].push((key, Db::original(key).into()));
        }
        for (server, pairs) in by_server.iter().enumerate() {
            cluster.client(server).set_many(pairs).unwrap();
        }
    }
    Rig {
        servers,
        proxies,
        cluster,
        keys,
    }
}

impl Rig {
    /// The keys the four-server mapping puts on the last server: the
    /// ones a 4→3 step moves away and a 3→4 step moves back.
    fn moving(&self) -> Vec<&[u8]> {
        assert_eq!(self.cluster.active(), N);
        (self.keys.iter().map(Vec::as_slice))
            .filter(|key| self.cluster.server_for(key).index() == N - 1)
            .collect()
    }

    fn holds(&self, server: usize, key: &[u8]) -> bool {
        self.servers[server].with_engine(|engine| engine.contains(key))
    }

    fn teardown(self) {
        drop(self.cluster);
        for proxy in self.proxies {
            proxy.stop();
        }
        for server in self.servers {
            server.stop();
        }
    }
}

/// Polls until the open window's pull has stopped, one way or the other.
fn pull_finished(cluster: &ClusterClient) -> PullProgress {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let progress = cluster.pull_progress().expect("a window was opened");
        if progress.state != PullState::Running {
            return progress;
        }
        assert!(Instant::now() < deadline, "stuck at {progress:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn kinds(cluster: &ClusterClient) -> Vec<TraceKind> {
    cluster.tracer().events().iter().map(|e| e.kind).collect()
}

/// (a) A shrink whose departing server is flushed the moment the window
/// closes, and the grow back: every key stays a cache hit, the database
/// is never asked, and the grow is a move, not a copy.
#[test]
fn shrink_and_grow_cost_no_database_fetch() {
    let mut r = rig(3000, false);
    let db = Db::default();
    let moving: Vec<Vec<u8>> = r.moving().into_iter().map(<[u8]>::to_vec).collect();
    assert!(moving.len() > 500, "a quarter of the keys, give or take");
    assert_eq!(r.cluster.pull_progress(), None, "no window yet");

    r.cluster.begin_transition(N - 1).unwrap();
    // A window is a window: the overlap rule holds, and the rejected
    // call leaves the running pull alone.
    assert!(matches!(
        r.cluster.begin_transition(N - 2),
        Err(NetError::TransitionInProgress)
    ));
    let shrink = pull_finished(&r.cluster);
    assert_eq!(
        shrink,
        PullProgress {
            from: N,
            to: N - 1,
            listed: moving.len() as u64,
            moved: moving.len() as u64,
            deleted: 0,
            state: PullState::Done,
        }
    );
    // Power-off loses DRAM.
    r.cluster.client(N - 1).flush_all().unwrap();
    let closed = r.cluster.end_transition().expect("the window was open");
    assert_eq!((closed.from, closed.to), (N, N - 1));
    assert_eq!(r.cluster.pull_progress(), Some(shrink), "kept after close");
    for key in &r.keys {
        let (value, how) = r.cluster.fetch(key, &db).unwrap();
        assert_eq!(how, ClusterFetch::Hit, "{}", String::from_utf8_lossy(key));
        assert_eq!(&value[..], &Db::original(key)[..]);
    }

    r.cluster.begin_transition(N).unwrap();
    let grow = pull_finished(&r.cluster);
    assert_eq!(
        grow,
        PullProgress {
            from: N - 1,
            to: N,
            listed: r.keys.len() as u64,
            moved: moving.len() as u64,
            deleted: moving.len() as u64,
            state: PullState::Done,
        }
    );
    r.cluster.end_transition().expect("the window was open");
    for key in &r.keys {
        let (value, how) = r.cluster.fetch(key, &db).unwrap();
        assert_eq!(how, ClusterFetch::Hit, "{}", String::from_utf8_lossy(key));
        assert_eq!(&value[..], &Db::original(key)[..]);
    }
    for key in &moving {
        assert!(r.holds(N - 1, key));
        for old in 0..N - 1 {
            assert!(!r.holds(old, key), "server {old} kept a twin");
        }
    }
    assert_eq!(db.fetches(), 0, "the database was never asked");

    // The pull is not Algorithm 2: no fetch class, no per-key event, no
    // foreground connection.
    let stats = r.cluster.fault_stats();
    assert_eq!(stats.pulled_keys, 2 * moving.len() as u64);
    assert_eq!(stats.pulls_incomplete, 0);
    assert_eq!(stats.dropped_installs, 0);
    assert_eq!(
        r.cluster
            .fetch_stats()
            .snapshot(FetchClassKind::Migrated)
            .count(),
        0,
        "nothing was left to migrate on demand"
    );
    for server in 0..N {
        assert_eq!(r.cluster.client(server).fault_stats().connects, 1);
    }
    let trace = kinds(&r.cluster);
    let pulled = |from_ok: fn(u32) -> bool, to_ok: fn(u32) -> bool, events: &[TraceKind]| -> u64 {
        (events.iter())
            .map(|kind| match *kind {
                TraceKind::KeysPulled { from, to, keys } if from_ok(from) && to_ok(to) => {
                    u64::from(keys)
                }
                other => panic!("not a pulled batch of this window: {other:?}"),
            })
            .sum()
    };
    let drains: Vec<usize> = (0..trace.len())
        .filter(|&i| matches!(trace[i], TraceKind::TransitionDrain { .. }))
        .collect();
    assert_eq!(drains.len(), 2);
    assert_eq!(trace[0], TraceKind::TransitionBegin { from: 4, to: 3 });
    assert!(trace[1..=4]
        .iter()
        .all(|k| matches!(k, TraceKind::DigestBroadcast { ok: true, .. })));
    assert_eq!(
        pulled(|from| from == 3, |to| to < 3, &trace[5..drains[0]]),
        moving.len() as u64
    );
    assert_eq!(trace[drains[0] + 1], TraceKind::PowerOff { server: 3 });
    assert_eq!(
        trace[drains[0] + 2],
        TraceKind::TransitionBegin { from: 3, to: 4 }
    );
    assert_eq!(
        pulled(
            |from| from < 3,
            |to| to == 3,
            &trace[drains[0] + 6..drains[1]]
        ),
        moving.len() as u64
    );
    assert_eq!(drains[1], trace.len() - 1, "a grow powers nobody off");
    // Everything else in the trace is a pulled batch: the shrink's
    // begin, four broadcasts, drain and power-off, the grow's begin,
    // three broadcasts and drain.
    assert_eq!(stats.pull_batches as usize, trace.len() - 12);
    r.teardown();
}

/// (b) Writes race the pull and always win: the pull installs with
/// `add`, so a value `put` while a batch was on its way is never
/// overwritten by the older one the batch carries.
#[test]
fn a_put_during_the_pull_is_never_overwritten() {
    let mut r = rig(6000, false);
    let db = Db::default();
    let moving: Vec<Vec<u8>> = r.moving().into_iter().map(<[u8]>::to_vec).collect();

    r.cluster.begin_transition(N - 1).unwrap();
    // Rewrite moving keys for as long as the pull runs.
    let mut acknowledged: HashMap<&[u8], Vec<u8>> = HashMap::new();
    let mut version = 0u64;
    'pull: loop {
        for key in &moving {
            version += 1;
            let value = format!("version {version}").into_bytes();
            r.cluster.put(key, &value).unwrap();
            acknowledged.insert(key, value);
            if r.cluster.pull_progress().unwrap().state != PullState::Running {
                break 'pull;
            }
        }
    }
    assert_eq!(pull_finished(&r.cluster).state, PullState::Done);
    r.cluster.client(N - 1).flush_all().unwrap();
    r.cluster.end_transition();

    for key in &moving {
        let (value, how) = r.cluster.fetch(key, &db).unwrap();
        assert_eq!(how, ClusterFetch::Hit);
        let expected = (acknowledged.get(key.as_slice()).cloned()).unwrap_or(Db::original(key));
        assert_eq!(
            String::from_utf8_lossy(&value),
            String::from_utf8_lossy(&expected),
            "read of {} is not its last acknowledged write",
            String::from_utf8_lossy(key)
        );
    }
    assert_eq!(db.fetches(), 0);
    r.teardown();
}

/// (c) The stale twin. On-demand migration copies: the old server keeps
/// its value, and when that server stays active (a grow) a later shrink
/// maps the key back to it — to a value older than writes made in
/// between. The pull deletes what it moves off a server that stays, so
/// a grow window whose pull finished leaves no twin.
#[test]
fn a_grow_leaves_no_stale_twin_behind() {
    for pulled in [true, false] {
        let mut r = rig(0, false);
        let db = Db::default();
        // A key the four-server mapping gives to the last server.
        let key = (0..)
            .map(|i| format!("twin:{i}").into_bytes())
            .find(|key| r.cluster.server_for(key).index() == N - 1)
            .unwrap();
        let key = key.as_slice();
        // Down to three servers, where the key is first read.
        r.cluster.begin_transition(N - 1).unwrap();
        r.cluster.end_transition();
        let old_home = r.cluster.server_for(key).index();
        db.set(key, b"v1");
        assert_eq!(r.cluster.fetch(key, &db).unwrap().1, ClusterFetch::Database);

        // Grow to four: the key now belongs to the server that joined.
        if pulled {
            r.cluster.begin_transition(N).unwrap();
            assert_eq!(pull_finished(&r.cluster).state, PullState::Done);
        } else {
            // Algorithm 2 alone migrates the key when it is asked for.
            r.cluster.open_window(N).unwrap();
            assert_eq!(r.cluster.fetch(key, &db).unwrap().1, ClusterFetch::Migrated);
        }
        r.cluster.end_transition();
        assert!(r.holds(N - 1, key));
        assert_eq!(r.holds(old_home, key), !pulled, "the twin");

        // A write after the window closed reaches the new home only.
        db.set(key, b"v2");
        r.cluster.put(key, b"v2").unwrap();

        // Shrink again: the key maps back to its old home.
        r.cluster.begin_transition(N - 1).unwrap();
        assert_eq!(pull_finished(&r.cluster).state, PullState::Done);
        r.cluster.end_transition();
        let (value, how) = r.cluster.fetch(key, &db).unwrap();
        assert_eq!(how, ClusterFetch::Hit);
        // Without the pull's delete the read is older than the last
        // acknowledged write: the hazard DESIGN.md records for a grow
        // window opened with `open_window` or closed before its pull
        // was done.
        let expected: &[u8] = if pulled { b"v2" } else { b"v1" };
        assert_eq!(&value[..], expected, "pulled: {pulled}");
        r.teardown();
    }
}

/// (d) The departing server fails in the middle of the pull. The pull
/// gives up on it and says so; no request and no transition call sees
/// an error, `end_transition` does not wait for a dead server, and the
/// trace still reads begin → … → drain → power-off.
fn departing_server_fails_mid_pull(fault: FaultMode) {
    let mut r = rig(4000, true);
    let db = Db::default();
    let resident = r.moving().len() as u64;
    // Slow the departing server down so that the pull is certainly
    // still running when the fault is injected.
    r.proxies[N - 1].set_mode(FaultMode::Latency(Duration::from_millis(5)));
    r.cluster.begin_transition(N - 1).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    while r.cluster.pull_progress().unwrap().moved == 0 {
        assert!(Instant::now() < deadline, "the pull never started moving");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Requests and the pull share the window.
    for key in r.keys.iter().step_by(100) {
        let (value, how) = r.cluster.fetch(key, &db).unwrap();
        assert!(matches!(how, ClusterFetch::Hit | ClusterFetch::Migrated));
        assert_eq!(&value[..], &Db::original(key)[..]);
    }
    assert_eq!(r.cluster.pull_progress().unwrap().state, PullState::Running);

    r.proxies[N - 1].set_mode(fault);
    let begin = Instant::now();
    let closed = r.cluster.end_transition().expect("the window was open");
    let waited = begin.elapsed();
    assert_eq!((closed.from, closed.to), (N, N - 1));
    // At most one request in flight at the dead server: the client's
    // timeout and its one retry (150 ms each), not a walk through what
    // was left.
    assert!(waited < Duration::from_secs(2), "waited {waited:?}");
    let progress = r.cluster.pull_progress().unwrap();
    assert_eq!(progress.state, PullState::GaveUp);
    assert!(
        progress.moved > 0 && progress.moved < resident,
        "{progress:?}"
    );
    assert_eq!(r.cluster.fault_stats().pulls_incomplete, 1);

    // What the pull moved hits; what it did not is the database's.
    for key in r.keys.iter().step_by(8) {
        let (value, how) = r.cluster.fetch(key, &db).unwrap();
        assert!(matches!(how, ClusterFetch::Hit | ClusterFetch::Database));
        assert_eq!(&value[..], &Db::original(key)[..]);
    }
    let trace = kinds(&r.cluster);
    assert_eq!(trace[0], TraceKind::TransitionBegin { from: 4, to: 3 });
    assert_eq!(
        trace[trace.len() - 2..],
        [
            TraceKind::TransitionDrain { from: 4, to: 3 },
            TraceKind::PowerOff { server: 3 }
        ]
    );
    assert!(trace.contains(&TraceKind::DigestBroadcast {
        server: 3,
        ok: true
    }));
    assert!(trace
        .iter()
        .any(|kind| matches!(kind, TraceKind::KeysPulled { from: 3, .. })));
    r.teardown();
}

#[test]
fn departing_server_reset_mid_pull() {
    departing_server_fails_mid_pull(FaultMode::Reset);
}

#[test]
fn departing_server_blackholed_mid_pull() {
    departing_server_fails_mid_pull(FaultMode::Blackhole);
}

/// The pull's own clients are instrumented like the foreground ones: a
/// departing server blackholed under the pull costs the puller a retry
/// and a breaker trip, and both reach `fault_stats()`, the client's
/// exposition and the trace, while no foreground client saw a fault.
#[test]
fn a_blackholed_pull_source_reaches_the_counters() {
    let mut r = rig(4000, true);
    r.proxies[N - 1].set_mode(FaultMode::Latency(Duration::from_millis(5)));
    r.cluster.begin_transition(N - 1).unwrap();
    r.proxies[N - 1].set_mode(FaultMode::Blackhole);
    assert_eq!(pull_finished(&r.cluster).state, PullState::GaveUp);

    for server in 0..N {
        let foreground = r.cluster.client(server).fault_stats();
        assert_eq!((foreground.retries, foreground.breaker_trips), (0, 0));
    }
    // `fast_failover`: one retry, and the second timeout trips.
    let stats = r.cluster.fault_stats();
    assert_eq!((stats.retries, stats.breaker_trips), (1, 1), "{stats:?}");
    assert!(kinds(&r.cluster).contains(&TraceKind::BreakerOpen {
        server: N as u32 - 1
    }));
    let body = proteus::obs::to_prometheus(&r.cluster.metric_source()());
    assert!(
        body.contains("\nproteus_client_retries_total 1\n"),
        "{body}"
    );
    assert!(
        body.contains("\nproteus_client_breaker_trips_total 1\n"),
        "{body}"
    );

    r.cluster.end_transition().expect("the window was open");
    r.teardown();
}
