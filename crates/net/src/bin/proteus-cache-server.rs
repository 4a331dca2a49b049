//! A standalone Proteus cache server.
//!
//! ```text
//! proteus-cache-server [--bind ADDR] [--capacity-mb N] [--metrics-addr ADDR]
//! ```
//!
//! Speaks the memcached-flavoured text protocol on `ADDR`
//! (default `127.0.0.1:11211`), including the paper's
//! `SET_BLOOM_FILTER` / `BLOOM_FILTER` digest keys. Try it with netcat:
//!
//! ```text
//! $ printf 'set greeting 0 0 5\r\nhello\r\nget greeting\r\nquit\r\n' | nc 127.0.0.1 11211
//! ```
//!
//! With `--metrics-addr`, a second listener serves the telemetry
//! registry over HTTP: `GET /metrics` returns Prometheus text
//! exposition, `GET /metrics.json` the same registry as JSON. The
//! identical data is also available in-band via `stats proteus`.
//!
//! The server runs its platform's data plane: the epoll reactor on
//! Linux, with one event loop per core up to four, and one thread per
//! connection elsewhere. The startup line names the plane it resolved.

use std::process::ExitCode;

use proteus_cache::CacheConfig;
use proteus_net::{CacheServer, EngineKind};
use proteus_obs::MetricsServer;

struct Options {
    bind: String,
    capacity_bytes: u64,
    metrics_addr: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        bind: "127.0.0.1:11211".to_string(),
        capacity_bytes: 64 << 20,
        metrics_addr: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--bind" => opts.bind = value("--bind")?,
            "--capacity-mb" => {
                let mb: u64 = value("--capacity-mb")?
                    .parse()
                    .map_err(|_| "--capacity-mb must be a number".to_string())?;
                opts.capacity_bytes = mb
                    .checked_mul(1 << 20)
                    .ok_or("--capacity-mb must be under 2^44 (its bytes must fit 64 bits)")?;
            }
            "--metrics-addr" => opts.metrics_addr = Some(value("--metrics-addr")?),
            "--help" | "-h" => {
                return Err("usage: proteus-cache-server [--bind ADDR] \
                            [--capacity-mb N] [--metrics-addr ADDR]"
                    .to_string());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.capacity_bytes == 0 {
        return Err("--capacity-mb must be positive".to_string());
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
    let config = CacheConfig::with_capacity(opts.capacity_bytes);
    let server = match CacheServer::spawn(&*opts.bind, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", opts.bind);
            return ExitCode::FAILURE;
        }
    };
    let plane = match server.engine_kind() {
        EngineKind::Threaded => "thread-per-connection".to_string(),
        EngineKind::Reactor { loops } | EngineKind::Uring { loops } => {
            format!("epoll reactor, {loops} event loops")
        }
    };
    println!(
        "proteus-cache-server listening on {} ({} MB, {plane}, slab storage)",
        server.addr(),
        opts.capacity_bytes >> 20
    );
    // Kept alive for the life of the process; dropping it would stop
    // the scrape listener.
    let _metrics = match &opts.metrics_addr {
        Some(addr) => match MetricsServer::spawn_traced(
            addr.as_str(),
            server.metric_source(),
            server.tracer(),
        ) {
            Ok(m) => {
                println!(
                    "metrics on http://{}/metrics (Prometheus), /metrics.json, /trace.jsonl",
                    m.local_addr()
                );
                Some(m)
            }
            Err(e) => {
                eprintln!("failed to bind metrics listener {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    println!("press Ctrl-C to stop");
    // Serve until killed.
    loop {
        std::thread::park();
    }
}
