//! `cluster_transition` and `diurnal_day`: four servers behind a
//! `ClusterClient`, open loop, one generator thread issuing depth-1
//! fetches and timing each from the moment it was due.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use proteus_agg::{ClusterObserver, ObserverConfig};
use proteus_core::Scenario;
use proteus_ctl::{ActuationConfig, ClusterController, PolicyConfig, StepAction, WallPolicy};
use proteus_net::{CacheServer, ClusterClient, ClusterFetch, NetError, SharedBytes};
use proteus_obs::MetricsServer;
use proteus_sim::{SimDuration, SimRng};
use proteus_workload::{CompressedDay, DiurnalCurve, ReplayPacer, ZipfSampler};

use crate::alloc_count::{self, AllocCounts};
use crate::counters::ServerCounters;
use crate::measure::{self, Sample, WindowFacts, IN_WINDOW, TRACED, WARM_UP};
use crate::reduce::{quantile_of, SLICES};
use crate::single::default_server;
use crate::values::{key_bytes, BenchDb, Sizes, ValueSpace};
use crate::{procfs, spans, Measured, RunArgs};

pub const SERVERS: usize = 4;
const DB_SERVICE: Duration = Duration::from_millis(1);
/// Recording flips every this many requests in the traced pass.
const TRACE_BLOCK: usize = 64;
/// Keys per round of `set_many`s while preloading.
const PRELOAD_CHUNK: usize = 1024;

pub fn class_name(class: ClusterFetch) -> &'static str {
    match class {
        ClusterFetch::Hit => "hit",
        ClusterFetch::Migrated => "migrated",
        ClusterFetch::Database => "database",
        ClusterFetch::Degraded => "degraded",
        ClusterFetch::FalsePositive => "false_positive",
        ClusterFetch::ReplicaHit => "replica_hit",
    }
}

/// Whether the cache tier, not the database, produced the value.
fn from_cache(class: ClusterFetch) -> bool {
    matches!(
        class,
        ClusterFetch::Hit | ClusterFetch::Migrated | ClusterFetch::ReplicaHit
    )
}

pub struct Cluster {
    pub servers: Vec<CacheServer>,
    pub client: ClusterClient,
    pub db: BenchDb,
}

impl Cluster {
    /// Spawn four default servers, connect with Algorithm 1 placement,
    /// and store every key on the server the client maps it to, with
    /// pipelined `set_many`s. (Loading through `fetch_many`'s miss path
    /// costs one depth-1 `set` per key, and the run of 50 000 of those
    /// took 0.8 s or 2.7 s depending on where the scheduler happened to
    /// put the threads — set-up time must not be a coin toss.)
    pub fn set_up(values: &Arc<ValueSpace>) -> Result<Cluster, String> {
        let servers = (0..SERVERS)
            .map(|_| default_server())
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<SocketAddr> = servers.iter().map(CacheServer::addr).collect();
        let client = ClusterClient::connect(&addrs, Scenario::Proteus.strategy(SERVERS, 0))
            .map_err(|e| format!("cannot connect the cluster client: {e}"))?;
        let keys: Vec<_> = (0..values.keys()).map(key_bytes).collect();
        for (first, chunk) in keys.chunks(PRELOAD_CHUNK).enumerate() {
            let mut by_server: [Vec<(&[u8], SharedBytes)>; SERVERS] = Default::default();
            for (i, key) in chunk.iter().enumerate() {
                let value = values.value(first * PRELOAD_CHUNK + i);
                by_server[client.server_for(key).index()].push((key, value.into()));
            }
            for (server, pairs) in by_server.iter().enumerate() {
                client
                    .client(server)
                    .set_many(pairs)
                    .map_err(|e| format!("preload failed: {e}"))?;
            }
        }
        let db = BenchDb::new(Arc::clone(values), DB_SERVICE);
        Ok(Cluster {
            servers,
            client,
            db,
        })
    }

    pub fn stop(self) {
        drop(self.client);
        for server in self.servers {
            server.stop();
        }
    }
}

/// What the open-loop generator hands back.
struct Driven {
    samples: Vec<Sample>,
    /// How late each request was issued, nanoseconds.
    lateness_ns: Vec<u64>,
    /// Fetches by `ClusterFetch` class name.
    classes: Vec<(&'static str, u64)>,
}

/// Sleeps to just short of `due_at`, then spins: a bare sleep overshoots
/// by the timer slack, which is most of a hit's latency.
fn wait_until(due_at: Instant) {
    if let Some(coarse) = due_at
        .saturating_duration_since(Instant::now())
        .checked_sub(Duration::from_micros(120))
    {
        std::thread::sleep(coarse);
    }
    while Instant::now() < due_at {
        std::hint::spin_loop();
    }
}

/// The first `WARM_UP` of the schedule, run ahead of the window on the
/// last keys of the stream and not recorded. A wrong reply here would
/// be a wrong reply in the window too, so only errors are looked at.
fn warm_up(
    due_ns: &[u64],
    keys: &[u32],
    mut fetch: impl FnMut(&[u8]) -> Result<(SharedBytes, ClusterFetch), NetError>,
) -> Result<(), String> {
    let begin = Instant::now();
    for (&due, &key) in due_ns.iter().zip(keys.iter().rev()) {
        if due >= WARM_UP.as_nanos() as u64 {
            break;
        }
        wait_until(begin + Duration::from_nanos(due));
        fetch(&key_bytes(key as usize)).map_err(|e| format!("warm-up fetch failed: {e}"))?;
    }
    wait_until(begin + WARM_UP);
    Ok(())
}

/// Issues request `i` (key `keys[i]`) when `due_ns[i]` after `start`
/// has passed. `before` runs first and says whether a transition
/// window is open; whatever it costs delays the request and is charged
/// to it, because latency runs from the due time.
fn drive(
    values: &ValueSpace,
    due_ns: &[u64],
    keys: &[u32],
    start: Instant,
    trace: bool,
    mut before: impl FnMut(usize) -> bool,
    mut fetch: impl FnMut(&[u8]) -> Result<(SharedBytes, ClusterFetch), NetError>,
) -> Driven {
    let mut samples = Vec::with_capacity(due_ns.len());
    let mut lateness_ns = Vec::with_capacity(due_ns.len());
    let mut classes: Vec<(&'static str, u64)> = Vec::new();
    for (i, (&due, &key)) in due_ns.iter().zip(keys).enumerate() {
        let traced = trace && (i / TRACE_BLOCK).is_multiple_of(2);
        if trace && i.is_multiple_of(TRACE_BLOCK) {
            spans::set_recording(traced);
        }
        let due_at = start + Duration::from_nanos(due);
        wait_until(due_at);
        let in_window = before(i);
        let issued = Instant::now();
        lateness_ns.push((issued - due_at).as_nanos() as u64);
        let key = key as usize;
        let (class, ok) = {
            let _op = spans::enter("op");
            let mut span = spans::enter("cluster.fetch");
            match fetch(&key_bytes(key)) {
                Ok((value, class)) => {
                    span.tag(class_name(class));
                    (Some(class), value.as_slice() == values.value(key))
                }
                Err(_) => (None, false),
            }
        };
        let done = Instant::now();
        let name = class.map_or("error", class_name);
        match classes.iter_mut().find(|c| c.0 == name) {
            Some(c) => c.1 += 1,
            None => classes.push((name, 1)),
        }
        samples.push(Sample {
            at_us: (due / 1000) as u32,
            latency_ns: (done - due_at).as_nanos().min(u128::from(u32::MAX)) as u32,
            ops: 1,
            gets: 1,
            hits: u16::from(class.is_some_and(from_cache)),
            failed: u8::from(!ok),
            flags: if in_window { IN_WINDOW } else { 0 } | if traced { TRACED } else { 0 },
        });
    }
    spans::set_recording(false);
    spans::flush_thread();
    Driven {
        samples,
        lateness_ns,
        classes,
    }
}

/// Runs `f` on the calling (generator) thread while a second thread
/// reads per-task CPU time at the slice boundaries.
fn with_cpu_watch<T>(
    start: Instant,
    window: Duration,
    generator: u32,
    f: impl FnOnce() -> T,
) -> (T, io::Result<measure::CpuSlices>) {
    std::thread::scope(|scope| {
        let watcher = scope.spawn(move || {
            alloc_count::set_generator(true);
            measure::watch_cpu(start, window, &[generator, procfs::thread_tid()?])
        });
        let out = f();
        (out, watcher.join().expect("cpu watcher panicked"))
    })
}

fn sample_keys(seed: u64, n: usize, universe: usize, exponent: f64) -> Vec<u32> {
    let zipf = ZipfSampler::new(universe as u64, exponent);
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n).map(|_| (zipf.sample(&mut rng) - 1) as u32).collect()
}

fn count_of(classes: &[(&'static str, u64)], name: &str) -> u64 {
    classes.iter().find(|c| c.0 == name).map_or(0, |c| c.1)
}

/// Client-side and database counts, read just before and just after
/// the measured window.
struct ClientCounts {
    retries: u64,
    connects: u64,
    breaker_trips: u64,
    degraded: u64,
    db_fetches: u64,
    db_busy_ns: u64,
}

impl ClientCounts {
    fn read(client: &ClusterClient, db: &BenchDb) -> ClientCounts {
        let (db_fetches, db_busy_ns) = db.counters();
        let mut out = ClientCounts {
            retries: 0,
            connects: 0,
            breaker_trips: 0,
            degraded: client.fault_stats().degraded_fetches,
            db_fetches,
            db_busy_ns,
        };
        for s in 0..SERVERS {
            let f = client.client(s).fault_stats();
            out.retries += f.retries;
            out.connects += f.connects;
            out.breaker_trips += f.breaker_trips;
        }
        out
    }
}

/// Layer rows every cluster workload reports the same way.
fn cluster_rows(
    driven: &mut Driven,
    windows: u64,
    before: &ClientCounts,
    after: &ClientCounts,
    window: Duration,
) -> Vec<(&'static str, f64)> {
    let fetches = driven.samples.len().max(1) as f64;
    let db_fetches = (after.db_fetches - before.db_fetches) as f64;
    vec![
        (
            "cluster.migrated_per_window",
            count_of(&driven.classes, "migrated") as f64 / windows.max(1) as f64,
        ),
        (
            "cluster.false_positive_frac",
            count_of(&driven.classes, "false_positive") as f64 / fetches,
        ),
        (
            "cluster.degraded",
            (after.degraded - before.degraded) as f64,
        ),
        ("client.retries", (after.retries - before.retries) as f64),
        (
            "client.reconnects",
            (after.connects - before.connects) as f64,
        ),
        (
            "client.breaker_opens",
            (after.breaker_trips - before.breaker_trips) as f64,
        ),
        ("db.fetches", db_fetches),
        ("db.fetch_frac", db_fetches / fetches),
        (
            "db.busy_frac",
            (after.db_busy_ns - before.db_busy_ns) as f64 / window.as_nanos() as f64,
        ),
        (
            "bench.lateness_p99_us",
            quantile_of(&mut driven.lateness_ns, 0.99).unwrap_or(0) as f64 / 1e3,
        ),
    ]
}

/// Class counts must add up to the fetches attempted, and the database
/// must have been asked exactly as often as the client says it fell
/// back to it.
fn class_gates(driven: &Driven, db_fetches: u64) -> Vec<(String, bool)> {
    let total: u64 = driven.classes.iter().map(|c| c.1).sum();
    let to_db: u64 = ["database", "false_positive", "degraded"]
        .iter()
        .map(|n| count_of(&driven.classes, n))
        .sum();
    vec![
        (
            "fetch classes sum to fetches attempted".into(),
            total == driven.samples.len() as u64,
        ),
        (
            "database fetches equal database-class fetches".into(),
            to_db == db_fetches,
        ),
    ]
}

// ------------------------------------------------------------------
// cluster_transition
// ------------------------------------------------------------------

/// Half of what one synchronous generator thread can issue with the
/// 1 ms database in the path: the run stays open loop when the host
/// slows down, instead of turning into a backlog.
const TRANSITION_RATE: f64 = 2000.0;
const TRANSITION_KEYS: usize = 50_000;

pub fn run_transition(args: &RunArgs) -> Result<Measured, String> {
    let io = |e: io::Error| format!("cluster_transition: {e}");
    let values = Arc::new(ValueSpace::new(
        args.seed,
        TRANSITION_KEYS,
        Sizes::Fixed(256),
    ));
    let total = (args.seconds * TRANSITION_RATE) as usize;
    let due_ns: Vec<u64> = (0..total)
        .map(|i| (i as f64 * 1e9 / TRANSITION_RATE) as u64)
        .collect();
    let keys = sample_keys(args.seed, total, TRANSITION_KEYS, 0.9);
    // One cycle per slice: hold, 4→3 window, hold, 3→4 window, in
    // request counts, so database and migration counts repeat exactly.
    let cycle = (total / SLICES).max(6);

    let rss_before = procfs::rss_bytes().map_err(io)?;
    let begin = Instant::now();
    let Cluster {
        servers,
        mut client,
        db,
    } = Cluster::set_up(&values)?;
    let first_set_up_s = begin.elapsed().as_secs_f64();

    alloc_count::set_generator(true);
    warm_up(&due_ns, &keys, |key| client.fetch(key, &db))?;
    let generators = [procfs::thread_tid().map_err(io)?];
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now() + Duration::from_millis(100);
    let mut windows = 0u64;
    let mut open = false;
    let departing = SERVERS - 1;

    let client_before = ClientCounts::read(&client, &db);
    let before = ServerCounters::read(&servers);
    let allocs = AllocCounts::now();
    // The generator thread drives the schedule inline, so a transition
    // call stalls exactly the requests queued behind it. `before` needs
    // the client mutably and `fetch` shared, one after the other.
    let client_cell = std::cell::RefCell::new(&mut client);
    let (mut driven, cpu) = with_cpu_watch(start, window, generators[0], || {
        drive(
            &values,
            &due_ns,
            &keys,
            start,
            args.trace,
            |i| {
                let pos = i % cycle;
                let mut client = client_cell.borrow_mut();
                if pos == cycle / 6 {
                    let _span = spans::enter("begin_transition");
                    client
                        .begin_transition(SERVERS - 1)
                        .expect("no window is open");
                    (open, windows) = (true, windows + 1);
                } else if pos == cycle / 2 {
                    let _span = spans::enter("end_transition");
                    client.end_transition();
                    // Power-off loses DRAM.
                    client
                        .client(departing)
                        .flush_all()
                        .expect("flush the powered-off server");
                    open = false;
                } else if pos == cycle * 2 / 3 {
                    let _span = spans::enter("begin_transition");
                    client.begin_transition(SERVERS).expect("no window is open");
                    (open, windows) = (true, windows + 1);
                } else if pos == 0 && i > 0 {
                    let _span = spans::enter("end_transition");
                    client.end_transition();
                    open = false;
                }
                open
            },
            |key| client_cell.borrow().fetch(key, &db),
        )
    });
    let cpu = cpu.map_err(io)?;
    client.end_transition();

    let allocs = AllocCounts::now().since(allocs);
    let rss_after = procfs::rss_bytes().map_err(io)?;
    let after = ServerCounters::read(&servers);
    let client_after = ClientCounts::read(&client, &db);
    let threads = procfs::task_cpu_ns().map_err(io)?.len() as u64 - 1;
    let extra = cluster_rows(&mut driven, windows, &client_before, &client_after, window);
    let mut gates = class_gates(&driven, client_after.db_fetches - client_before.db_fetches);
    gates.push((
        "cluster_transition migrated keys in its windows".into(),
        count_of(&driven.classes, "migrated") > 0,
    ));
    for server in &servers {
        server.with_engine(|engine| engine.assert_storage_consistent());
    }
    let plane = servers[0].engine_kind().name();
    Cluster {
        servers,
        client,
        db,
    }
    .stop();

    let setups_s =
        measure::set_up_times(first_set_up_s, || Cluster::set_up(&values), Cluster::stop)?;

    let facts = WindowFacts {
        window,
        cpu,
        setups_s,
        mem_bytes_per_user_byte: measure::mem_ratio(rss_before, rss_after, after.user_bytes),
        energy: None,
    };
    Ok(Measured {
        samples: driven.samples,
        facts,
        before,
        after,
        allocs,
        threads,
        plane,
        extra,
        gates,
    })
}

// ------------------------------------------------------------------
// diurnal_day
// ------------------------------------------------------------------

const DAY_MEAN_RATE: f64 = 1000.0;
const DAY_PEAK_TO_NADIR: f64 = 3.0;
const DAY_CAPACITY_OPS: f64 = 500.0;
const DAY_KEYS: usize = 20_000;
const CONTROLLER_TICK: Duration = Duration::from_millis(200);

/// Four servers, their cluster client, and the control plane
/// `proteus-controller` would run, in process.
struct DayRig {
    servers: Vec<CacheServer>,
    client: Arc<RwLock<ClusterClient>>,
    db: BenchDb,
    endpoints: Vec<MetricsServer>,
    observer: Arc<ClusterObserver>,
    controller: ClusterController,
}

impl DayRig {
    fn set_up(values: &Arc<ValueSpace>) -> Result<DayRig, String> {
        let Cluster {
            servers,
            client,
            db,
        } = Cluster::set_up(values)?;
        let client = Arc::new(RwLock::new(client));
        let endpoints = servers
            .iter()
            .map(|s| MetricsServer::spawn("127.0.0.1:0", s.metric_source()))
            .collect::<io::Result<Vec<_>>>()
            .map_err(|e| format!("cannot start a metrics endpoint: {e}"))?;
        let observer = Arc::new(ClusterObserver::new(ObserverConfig {
            server_capacity_ops: DAY_CAPACITY_OPS,
            ..ObserverConfig::default()
        }));
        for e in &endpoints {
            observer.add_server(e.local_addr());
        }
        // `power_loop`'s settings: same cooldown and boot/drain delays, at
        // five times its request rate.
        let policy = WallPolicy::new(PolicyConfig {
            min_servers: 1,
            max_step: 2,
            cooldown: Duration::from_millis(600),
            ..PolicyConfig::for_cluster(SERVERS, DAY_CAPACITY_OPS)
        });
        let controller = ClusterController::new(
            Arc::clone(&observer),
            Arc::clone(&client),
            endpoints.iter().map(MetricsServer::local_addr).collect(),
            policy,
            ActuationConfig {
                boot_delay: Duration::from_millis(150),
                drain: Duration::from_millis(150),
            },
        );
        Ok(DayRig {
            servers,
            client,
            db,
            endpoints,
            observer,
            controller,
        })
    }

    fn stop(self) {
        drop(self.controller);
        drop(self.client);
        drop(self.endpoints);
        for server in self.servers {
            server.stop();
        }
    }
}

/// What the controller thread saw.
#[derive(Default)]
struct ControlLog {
    step_ns: Vec<u64>,
    shrinks: u64,
    grows: u64,
    worst_window_p99: Duration,
}

pub fn run_diurnal(args: &RunArgs) -> Result<Measured, String> {
    let io = |e: io::Error| format!("diurnal_day: {e}");
    let values = Arc::new(ValueSpace::new(args.seed, DAY_KEYS, Sizes::Fixed(256)));
    let window = Duration::from_secs_f64(args.seconds);
    let day = CompressedDay::new(
        DiurnalCurve::new(
            DAY_MEAN_RATE,
            DAY_PEAK_TO_NADIR,
            SimDuration::from_secs(86_400),
        ),
        86_400.0 / args.seconds,
    );
    // The crate's own pacer, stepped at 100 µs, gives each request a
    // due time that does not depend on when the generator gets to poll.
    let mut pacer = ReplayPacer::new(day);
    let mut due_ns = Vec::new();
    let step = Duration::from_micros(100);
    let mut at = step;
    while at <= window {
        for _ in 0..pacer.due(at) {
            due_ns.push(at.as_nanos() as u64);
        }
        at += step;
    }
    let keys = sample_keys(args.seed, due_ns.len(), DAY_KEYS, 0.9);

    let rss_before = procfs::rss_bytes().map_err(io)?;
    let begin = Instant::now();
    let DayRig {
        servers,
        client,
        db,
        endpoints,
        observer,
        mut controller,
    } = DayRig::set_up(&values)?;
    let first_set_up_s = begin.elapsed().as_secs_f64();

    alloc_count::set_generator(true);
    warm_up(&due_ns, &keys, |key| client.read().fetch(key, &db))?;
    let generators = [procfs::thread_tid().map_err(io)?];
    let start = Instant::now() + Duration::from_millis(100);
    let stop = AtomicBool::new(false);
    let client_before = ClientCounts::read(&client.read(), &db);
    let before = ServerCounters::read(&servers);
    let allocs = AllocCounts::now();

    let ((mut driven, log), cpu) = with_cpu_watch(start, window, generators[0], || {
        std::thread::scope(|scope| {
            let control = scope.spawn(|| {
                let mut log = ControlLog::default();
                spans::set_recording(args.trace);
                let mut next = start;
                while !stop.load(Ordering::Relaxed) {
                    measure::sleep_until(next);
                    next += CONTROLLER_TICK;
                    let began = Instant::now();
                    let report = {
                        let _span = spans::enter("controller.step");
                        controller.step()
                    };
                    log.step_ns.push(began.elapsed().as_nanos() as u64);
                    if let StepAction::WindowClosed { from, to } = report.action {
                        if to < from {
                            log.shrinks += 1;
                            // Power-off loses DRAM.
                            let client = client.read();
                            for s in to..from {
                                client
                                    .client(s)
                                    .flush_all()
                                    .expect("flush a powered-off server");
                            }
                        } else {
                            log.grows += 1;
                        }
                    }
                    if let Some(p99) = report.signal.p99 {
                        log.worst_window_p99 = log.worst_window_p99.max(p99);
                    }
                }
                spans::set_recording(false);
                spans::flush_thread();
                log
            });
            let driven = drive(
                &values,
                &due_ns,
                &keys,
                start,
                args.trace,
                |_| client.read().transition_active(),
                |key| client.read().fetch(key, &db),
            );
            stop.store(true, Ordering::Relaxed);
            (driven, control.join().expect("controller thread panicked"))
        })
    });
    let cpu = cpu.map_err(io)?;
    // Close the energy account at the end of the day, as `power_loop` does.
    observer.tick();

    let allocs = AllocCounts::now().since(allocs);
    let rss_after = procfs::rss_bytes().map_err(io)?;
    let after = ServerCounters::read(&servers);
    let client_after = ClientCounts::read(&client.read(), &db);
    let threads = procfs::task_cpu_ns().map_err(io)?.len() as u64 - 1;
    let meter = observer.energy();
    let elapsed = meter.elapsed().map_or(0.0, |d| d.as_secs_f64());
    // Server-seconds of the fewest servers that could carry the day.
    let oracle_server_s: f64 = (0..1000)
        .map(|k| {
            let at = window.mul_f64((k as f64 + 0.5) / 1000.0);
            (day.rate_at_wall(at) / DAY_CAPACITY_OPS)
                .ceil()
                .clamp(1.0, SERVERS as f64)
                * args.seconds
                / 1000.0
        })
        .sum();

    let mut step_ns = log.step_ns.clone();
    let step_max = step_ns.iter().copied().max().unwrap_or(0);
    let windows = log.shrinks + log.grows;
    let mut extra = cluster_rows(&mut driven, windows, &client_before, &client_after, window);
    extra.extend([
        (
            "ctl.step_p50_ms",
            quantile_of(&mut step_ns, 0.5).unwrap_or(0) as f64 / 1e6,
        ),
        ("ctl.step_max_ms", step_max as f64 / 1e6),
        ("ctl.decisions", controller.decisions() as f64),
        ("ctl.shrinks", log.shrinks as f64),
        ("ctl.grows", log.grows as f64),
        ("ctl.backoffs", controller.backoffs() as f64),
        (
            "ctl.excess_server_s",
            meter.server_seconds() - oracle_server_s,
        ),
        (
            "ctl.worst_window_p99_us",
            log.worst_window_p99.as_secs_f64() * 1e6,
        ),
        ("agg.scrape_failures", observer.scrape_totals().1 as f64),
        (
            "agg.server_seconds_frac",
            meter.server_seconds() / (SERVERS as f64 * elapsed.max(f64::MIN_POSITIVE)),
        ),
    ]);

    let mut gates = class_gates(&driven, client_after.db_fetches - client_before.db_fetches);
    gates.push(("diurnal_day shed servers at night".into(), log.shrinks >= 1));
    gates.push(("diurnal_day grew them back".into(), log.grows >= 1));
    let events = client.read().tracer().events();
    gates.push((
        "diurnal_day trace has contiguous seqs".into(),
        !events.is_empty() && events.windows(2).all(|w| w[1].seq == w[0].seq + 1),
    ));
    let ratio = meter.proportionality().unwrap_or(f64::INFINITY);
    gates.push((
        format!("diurnal_day energy within 1.5x the oracle ({ratio:.3})"),
        ratio <= 1.5,
    ));
    for server in &servers {
        server.with_engine(|engine| engine.assert_storage_consistent());
    }
    let plane = servers[0].engine_kind().name();

    DayRig {
        servers,
        client,
        db,
        endpoints,
        observer,
        controller,
    }
    .stop();
    let setups_s = measure::set_up_times(first_set_up_s, || DayRig::set_up(&values), DayRig::stop)?;

    let facts = WindowFacts {
        window,
        cpu,
        setups_s,
        mem_bytes_per_user_byte: measure::mem_ratio(rss_before, rss_after, after.user_bytes),
        energy: Some((meter.joules(), meter.oracle_joules())),
    };
    Ok(Measured {
        samples: driven.samples,
        facts,
        before,
        after,
        allocs,
        threads,
        plane,
        extra,
        gates,
    })
}
