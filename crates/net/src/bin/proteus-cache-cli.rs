//! A command-line client for a Proteus cache server.
//!
//! ```text
//! proteus-cache-cli ADDR get KEY
//! proteus-cache-cli ADDR set KEY VALUE
//! proteus-cache-cli ADDR add KEY VALUE
//! proteus-cache-cli ADDR replace KEY VALUE
//! proteus-cache-cli ADDR delete KEY
//! proteus-cache-cli ADDR touch KEY     # refresh; clears any expiry
//! proteus-cache-cli ADDR incr KEY DELTA
//! proteus-cache-cli ADDR decr KEY DELTA
//! proteus-cache-cli ADDR stats
//! proteus-cache-cli ADDR digest        # snapshot + summarize the digest
//! proteus-cache-cli ADDR version
//! proteus-cache-cli ADDR flush
//! ```

use std::process::ExitCode;

use proteus_net::CacheClient;

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: proteus-cache-cli ADDR <get|set|add|replace|delete|touch|incr|decr|stats|digest|version|flush> [KEY] [VALUE|DELTA]\n\
                 touch refreshes KEY and clears any expiry it had";
    let addr_text = args.first().ok_or(usage)?;
    let addr = addr_text
        .parse()
        .map_err(|_| format!("invalid address {addr_text}"))?;
    let verb = args.get(1).ok_or(usage)?.as_str();
    let client = CacheClient::connect(addr).map_err(|e| e.to_string())?;
    let key = || -> Result<&[u8], String> {
        args.get(2)
            .map(|s| s.as_bytes())
            .ok_or_else(|| usage.into())
    };
    let value = || -> Result<&[u8], String> {
        args.get(3)
            .map(|s| s.as_bytes())
            .ok_or_else(|| usage.into())
    };
    let delta = || -> Result<u64, String> {
        args.get(3)
            .ok_or(usage)?
            .parse()
            .map_err(|_| "DELTA must be a number".to_string())
    };
    let render = |e: proteus_net::NetError| e.to_string();
    match verb {
        "get" => match client.get(key()?).map_err(render)? {
            Some(v) => Ok(String::from_utf8_lossy(&v).into_owned()),
            None => Ok("(miss)".into()),
        },
        "set" => {
            client.set(key()?, value()?).map_err(render)?;
            Ok("STORED".into())
        }
        "add" => Ok(if client.add(key()?, value()?).map_err(render)? {
            "STORED".into()
        } else {
            "NOT_STORED".into()
        }),
        "replace" => Ok(if client.replace(key()?, value()?).map_err(render)? {
            "STORED".into()
        } else {
            "NOT_STORED".into()
        }),
        "delete" => Ok(if client.delete(key()?).map_err(render)? {
            "DELETED".into()
        } else {
            "NOT_FOUND".into()
        }),
        "touch" => Ok(if client.touch(key()?).map_err(render)? {
            "TOUCHED".into()
        } else {
            "NOT_FOUND".into()
        }),
        "incr" => match client.incr(key()?, delta()?).map_err(render)? {
            Some(v) => Ok(v.to_string()),
            None => Ok("NOT_FOUND".into()),
        },
        "decr" => match client.decr(key()?, delta()?).map_err(render)? {
            Some(v) => Ok(v.to_string()),
            None => Ok("NOT_FOUND".into()),
        },
        "stats" => {
            let stats = client.stats().map_err(render)?;
            Ok(stats
                .into_iter()
                .map(|(k, v)| format!("{k} = {v}"))
                .collect::<Vec<_>>()
                .join("\n"))
        }
        "digest" => match client.snapshot_digest().map_err(render)? {
            Some(filter) => Ok(format!(
                "digest: {} bits, {} set ({:.2}% full), {} hash functions",
                filter.config().counters,
                filter.set_bits(),
                filter.fill_ratio() * 100.0,
                filter.config().hashes
            )),
            None => Ok("(no digest snapshot)".into()),
        },
        "version" => client.version().map_err(render),
        "flush" => {
            client.flush_all().map_err(render)?;
            Ok("OK".into())
        }
        other => Err(format!("unknown command {other}\n{usage}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(output) => {
            // Tolerate a closed stdout (e.g. piping into `head`).
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
