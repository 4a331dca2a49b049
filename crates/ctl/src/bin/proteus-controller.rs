//! The Proteus power-control daemon.
//!
//! ```text
//! proteus-controller --cache ADDR[,ADDR...] --metrics ADDR[,ADDR...]
//!                    [--bind ADDR] [--tick-ms N] [--capacity-ops N]
//!                    [--min-servers N] [--max-step N] [--cooldown-ms N]
//!                    [--boot-delay-ms N] [--drain-ms N]
//! ```
//!
//! Closes the paper's feedback loop against a live deployment: every
//! tick it scrapes all `--metrics` endpoints into one merged snapshot,
//! decides n(t) from measured ops/s and windowed p99 against the
//! reference/bound set points, and actuates transitions on the
//! `--cache` servers through the digest-broadcast/drain machinery. The
//! i-th `--metrics` address must belong to the i-th `--cache` server
//! (provisioning order).
//!
//! Its own listener re-exposes the merged `proteus_cluster_*` series,
//! then its cluster client's `proteus_client_*` series (fetch classes,
//! pulls, faults) and trace ring health, and serves the
//! decision/transition trace at `/trace.jsonl`.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use proteus_agg::{ClusterObserver, ObserverConfig};
use proteus_ctl::{ActuationConfig, ClusterController, PolicyConfig, StepAction, WallPolicy};
use proteus_net::ClusterClient;
use proteus_obs::{MetricSource, MetricsServer};

struct Options {
    cache: Vec<SocketAddr>,
    metrics: Vec<SocketAddr>,
    bind: String,
    tick: Duration,
    capacity_ops: f64,
    min_servers: usize,
    max_step: usize,
    cooldown: Duration,
    actuation: ActuationConfig,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        cache: Vec::new(),
        metrics: Vec::new(),
        bind: "127.0.0.1:9902".to_string(),
        tick: Duration::from_secs(1),
        capacity_ops: 50_000.0,
        min_servers: 1,
        max_step: 2,
        cooldown: Duration::from_secs(60),
        actuation: ActuationConfig::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let millis = |name: &str, v: String| {
            v.parse::<u64>()
                .map(Duration::from_millis)
                .map_err(|_| format!("{name} must be a number of milliseconds"))
        };
        let addrs = |name: &str, v: String| {
            v.split(',')
                .map(|part| {
                    part.trim()
                        .parse::<SocketAddr>()
                        .map_err(|_| format!("{name}: bad address `{part}`"))
                })
                .collect::<Result<Vec<_>, _>>()
        };
        match flag.as_str() {
            "--cache" => opts.cache = addrs("--cache", value("--cache")?)?,
            "--metrics" => opts.metrics = addrs("--metrics", value("--metrics")?)?,
            "--bind" => opts.bind = value("--bind")?,
            "--tick-ms" => opts.tick = millis("--tick-ms", value("--tick-ms")?)?,
            "--capacity-ops" => {
                opts.capacity_ops = value("--capacity-ops")?
                    .parse()
                    .map_err(|_| "--capacity-ops must be a number".to_string())?;
            }
            "--min-servers" => {
                opts.min_servers = value("--min-servers")?
                    .parse()
                    .map_err(|_| "--min-servers must be a number".to_string())?;
            }
            "--max-step" => {
                opts.max_step = value("--max-step")?
                    .parse()
                    .map_err(|_| "--max-step must be a number".to_string())?;
            }
            "--cooldown-ms" => opts.cooldown = millis("--cooldown-ms", value("--cooldown-ms")?)?,
            "--boot-delay-ms" => {
                opts.actuation.boot_delay = millis("--boot-delay-ms", value("--boot-delay-ms")?)?;
            }
            "--drain-ms" => opts.actuation.drain = millis("--drain-ms", value("--drain-ms")?)?,
            "--help" | "-h" => {
                return Err("usage: proteus-controller --cache ADDR[,ADDR...] \
                            --metrics ADDR[,ADDR...] [--bind ADDR] [--tick-ms N] \
                            [--capacity-ops N] [--min-servers N] [--max-step N] \
                            [--cooldown-ms N] [--boot-delay-ms N] [--drain-ms N]"
                    .to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.cache.is_empty() {
        return Err("--cache requires at least one server".to_string());
    }
    if opts.cache.len() != opts.metrics.len() {
        return Err("--metrics must list one endpoint per --cache server, in order".to_string());
    }
    if !(opts.capacity_ops.is_finite() && opts.capacity_ops > 0.0) {
        return Err("--capacity-ops must be a finite positive number".to_string());
    }
    if opts.tick.is_zero() {
        return Err("--tick-ms must be positive".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let n = opts.cache.len();
    let client =
        match ClusterClient::connect(&opts.cache, proteus_core::Scenario::Proteus.strategy(n, 0)) {
            Ok(c) => Arc::new(RwLock::new(c)),
            Err(e) => {
                eprintln!("failed to connect to cache servers: {e}");
                return ExitCode::FAILURE;
            }
        };
    let observer = Arc::new(ClusterObserver::new(ObserverConfig {
        interval: opts.tick,
        server_capacity_ops: opts.capacity_ops,
        ..ObserverConfig::default()
    }));
    for &addr in &opts.metrics {
        observer.add_server(addr);
    }
    let tracer = Arc::clone(client.read().tracer());
    let observer_source = observer.metric_source();
    let client_source = client.read().metric_source();
    let source: MetricSource = Arc::new(move || {
        let mut out = observer_source();
        out.extend(client_source());
        out
    });
    let policy = WallPolicy::new(PolicyConfig {
        min_servers: opts.min_servers.clamp(1, n),
        max_step: opts.max_step.max(1),
        cooldown: opts.cooldown,
        ..PolicyConfig::for_cluster(n, opts.capacity_ops)
    });
    let mut controller = ClusterController::new(
        Arc::clone(&observer),
        client,
        opts.metrics.clone(),
        policy,
        opts.actuation,
    );
    let _exposition = match MetricsServer::spawn_traced(&opts.bind, source, tracer) {
        Ok(m) => {
            println!(
                "proteus-controller steering {n} server(s); cluster view at \
                 http://{0}/metrics.json, decision trace at http://{0}/trace.jsonl",
                m.local_addr()
            );
            m
        }
        Err(e) => {
            eprintln!("failed to bind {}: {e}", opts.bind);
            return ExitCode::FAILURE;
        }
    };
    loop {
        let report = controller.step();
        match report.action {
            StepAction::BootScheduled { from, to } => {
                println!("decision: scale {from} -> {to} (booting)");
            }
            StepAction::WindowOpened { from, to } => {
                println!("transition window open: {from} -> {to}");
            }
            StepAction::WindowClosed { from, to } => {
                println!("transition complete: {from} -> {to}");
            }
            _ => {}
        }
        std::thread::sleep(opts.tick);
    }
}
