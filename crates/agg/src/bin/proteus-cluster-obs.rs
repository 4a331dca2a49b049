//! The cluster observability aggregator.
//!
//! ```text
//! proteus-cluster-obs --servers ADDR[,ADDR...] [--bind ADDR]
//!                     [--interval-ms N] [--connect-timeout-ms N]
//!                     [--read-timeout-ms N] [--stale-after N]
//!                     [--capacity-ops N]
//! ```
//!
//! Scrapes every listed server's `/metrics.json` endpoint on the
//! interval, merges the expositions into cluster-wide series (true
//! merged-histogram percentiles, aggregate ops/s, hit ratio, load
//! imbalance, live energy accounting), and re-exposes the result under
//! `proteus_cluster_*` names on its own HTTP listener: `GET /metrics`
//! for Prometheus text, `GET /metrics.json` for JSON.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use proteus_agg::{ClusterObserver, ObserverConfig};
use proteus_obs::MetricsServer;

struct Options {
    servers: Vec<SocketAddr>,
    bind: String,
    config: ObserverConfig,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        servers: Vec::new(),
        bind: "127.0.0.1:9901".to_string(),
        config: ObserverConfig::default(),
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
        match flag.as_str() {
            "--servers" => {
                for part in value("--servers")?.split(',') {
                    let addr = part
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad server address `{part}`"))?;
                    opts.servers.push(addr);
                }
            }
            "--bind" => opts.bind = value("--bind")?,
            "--interval-ms" => {
                opts.config.interval = millis("--interval-ms", value("--interval-ms")?)?;
            }
            "--connect-timeout-ms" => {
                opts.config.connect_timeout =
                    millis("--connect-timeout-ms", value("--connect-timeout-ms")?)?;
            }
            "--read-timeout-ms" => {
                opts.config.read_timeout =
                    millis("--read-timeout-ms", value("--read-timeout-ms")?)?;
            }
            "--stale-after" => {
                opts.config.stale_after = value("--stale-after")?
                    .parse()
                    .map_err(|_| "--stale-after must be a number".to_string())?;
            }
            "--capacity-ops" => {
                opts.config.server_capacity_ops = value("--capacity-ops")?
                    .parse()
                    .map_err(|_| "--capacity-ops must be a number".to_string())?;
            }
            "--help" | "-h" => {
                return Err("usage: proteus-cluster-obs --servers ADDR[,ADDR...] \
                            [--bind ADDR] [--interval-ms N] \
                            [--connect-timeout-ms N] [--read-timeout-ms N] \
                            [--stale-after N] [--capacity-ops N]"
                    .to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.servers.is_empty() {
        return Err("--servers requires at least one metrics endpoint".to_string());
    }
    let capacity = opts.config.server_capacity_ops;
    if !(capacity.is_finite() && capacity > 0.0) {
        return Err("--capacity-ops must be a finite positive number".to_string());
    }
    if opts.config.interval.is_zero() {
        return Err("--interval-ms must be positive".to_string());
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
    let observer_loop = ClusterObserver::spawn(opts.config, &opts.servers);
    let observer = observer_loop.observer();
    // The aggregator's own exposition: one scrape answers for the
    // whole cluster.
    let _metrics = match MetricsServer::spawn(&opts.bind, observer.metric_source()) {
        Ok(m) => {
            println!(
                "proteus-cluster-obs aggregating {} server(s), serving http://{}/metrics \
                 (Prometheus) and /metrics.json",
                opts.servers.len(),
                m.local_addr()
            );
            m
        }
        Err(e) => {
            eprintln!("failed to bind {}: {e}", opts.bind);
            return ExitCode::FAILURE;
        }
    };
    println!("press Ctrl-C to stop");
    loop {
        std::thread::park();
    }
}
