//! A live, wall-clock demonstration of the Proteus actuator on real
//! sockets.
//!
//! Spins up a local cache cluster, drives it with closed-loop
//! think-time load (the paper's RBE model), and walks a provisioning
//! schedule down and back up, printing per-phase statistics. At each
//! step hot keys move cache-to-cache over TCP — pulled ahead by the
//! window's background thread, migrated on demand where a request gets
//! there first; the backing store sees no transition traffic.
//!
//! ```text
//! proteus-cluster-demo [--servers N] [--users U] [--seconds-per-phase S]
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use proteus_cache::CacheConfig;
use proteus_net::{CacheServer, ClusterClient, ClusterFetch};
use proteus_ring::ProteusPlacement;
use proteus_store::{ShardedStore, StoreConfig};

struct Options {
    servers: usize,
    users: usize,
    phase_secs: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        servers: 4,
        users: 16,
        phase_secs: 3,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))?
                .parse::<u64>()
                .map_err(|_| format!("{name} must be a number"))
        };
        match flag.as_str() {
            "--servers" => opts.servers = value("--servers")? as usize,
            "--users" => opts.users = value("--users")? as usize,
            "--seconds-per-phase" => opts.phase_secs = value("--seconds-per-phase")?,
            other => {
                return Err(format!(
                    "unknown flag {other}\nusage: proteus-cluster-demo \
                     [--servers N] [--users U] [--seconds-per-phase S]"
                ))
            }
        }
    }
    if opts.servers < 2 || opts.servers > 16 {
        return Err("--servers must be in 2..=16".into());
    }
    Ok(opts)
}

/// Shared load-generation counters.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    migrated: AtomicU64,
    database: AtomicU64,
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("demo failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let servers: Vec<CacheServer> = (0..opts.servers)
        .map(|_| CacheServer::spawn("127.0.0.1:0", CacheConfig::with_capacity(32 << 20)))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<_> = servers.iter().map(CacheServer::addr).collect();
    println!("cache cluster up: {} servers on localhost", opts.servers);

    let cluster = Arc::new(Mutex::new(ClusterClient::connect(
        &addrs,
        Box::new(ProteusPlacement::generate(opts.servers)),
    )?));
    let db = Arc::new(Mutex::new(ShardedStore::new(StoreConfig {
        object_size: 2048,
        ..StoreConfig::default()
    })));

    // Closed-loop RBE load: each user thread fetches from its personal
    // page set with a short think time (scaled down from the paper's
    // 0.5 s so a short demo still generates meaningful traffic).
    let stop = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    let mut user_threads = Vec::new();
    for user in 0..opts.users {
        let cluster = Arc::clone(&cluster);
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        let counters = Arc::clone(&counters);
        user_threads.push(std::thread::spawn(move || {
            let pages: Vec<String> = (0..50)
                .map(|i| format!("page:{}", (user * 37 + i * 101) % 2000))
                .collect();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                i = (i + 1) % pages.len();
                let outcome = {
                    let cluster = cluster.lock();
                    cluster.fetch(pages[i].as_bytes(), &*db)
                };
                match outcome {
                    Ok((_, ClusterFetch::Hit)) | Ok((_, ClusterFetch::ReplicaHit)) => {
                        counters.hits.fetch_add(1, Ordering::Relaxed)
                    }
                    Ok((_, ClusterFetch::Migrated)) => {
                        counters.migrated.fetch_add(1, Ordering::Relaxed)
                    }
                    Ok((_, ClusterFetch::Database))
                    | Ok((_, ClusterFetch::Degraded))
                    | Ok((_, ClusterFetch::FalsePositive)) => {
                        counters.database.fetch_add(1, Ordering::Relaxed)
                    }
                    Err(_) => break,
                };
                std::thread::sleep(Duration::from_millis(5));
            }
        }));
    }

    // Walk the provisioning schedule: full → half → full.
    let schedule: Vec<usize> = {
        let n = opts.servers;
        vec![n, n - 1, (n / 2).max(1), n - 1, n]
    };
    let mut phase_start = (
        counters.hits.load(Ordering::Relaxed),
        counters.migrated.load(Ordering::Relaxed),
        counters.database.load(Ordering::Relaxed),
        0,
    );
    println!(
        "\n{:>6} {:>8} {:>8} {:>10} {:>8} {:>10} {:>8}",
        "phase", "active", "hits", "migrated", "pulled", "database", "req/s"
    );
    for (phase, &target) in schedule.iter().enumerate() {
        {
            let mut cluster = cluster.lock();
            let before = cluster.active();
            if target != before {
                cluster.begin_transition(target)?;
            }
        }
        let started = Instant::now();
        std::thread::sleep(Duration::from_secs(opts.phase_secs));
        let pulled = {
            // End the window at the phase boundary (the TTL analogue).
            let mut cluster = cluster.lock();
            cluster.end_transition();
            cluster.fault_stats().pulled_keys
        };
        let now = (
            counters.hits.load(Ordering::Relaxed),
            counters.migrated.load(Ordering::Relaxed),
            counters.database.load(Ordering::Relaxed),
            pulled,
        );
        let total = (now.0 - phase_start.0) + (now.1 - phase_start.1) + (now.2 - phase_start.2);
        println!(
            "{:>6} {:>8} {:>8} {:>10} {:>8} {:>10} {:>8.0}",
            phase,
            target,
            now.0 - phase_start.0,
            now.1 - phase_start.1,
            now.3 - phase_start.3,
            now.2 - phase_start.2,
            total as f64 / started.elapsed().as_secs_f64(),
        );
        phase_start = now;
    }

    stop.store(true, Ordering::Relaxed);
    for t in user_threads {
        let _ = t.join();
    }
    for s in servers {
        s.stop();
    }
    println!(
        "\ndemo complete: every step moved its hot keys cache-to-cache; \
         database fetches concentrate in the warm-up phase."
    );
    Ok(())
}
