//! The repository benchmark.
//!
//! ```text
//! proteus-benchmark [--workload NAME]... [--seed N] [--seconds S | --quick]
//!                   [--trace 0|1] [--json PATH] [--list]
//! proteus-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! Runs the chosen workloads (default: all four) on live loopback
//! sockets against in-process servers configured as
//! `proteus-cache-server` with no flags, checks every reply, and
//! prints every metric by name with its unit. `--trace 0` is the
//! untraced pass that gives the end-to-end metrics, `--trace 1` the
//! traced pass plus the probes that give the per-layer metrics; with
//! neither, both passes run. Each (workload, pass) runs in a process of
//! its own (`run_all`); the last line of standard output is the result
//! object of the last run. See `README.md`.

mod alloc_count;
mod cluster;
mod counters;
mod measure;
mod probes;
mod procfs;
mod reduce;
mod report;
mod single;
mod spans;
mod values;
mod wire;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use proteus_obs::OpClass;

use alloc_count::{AllocCounts, CountingAlloc};
use counters::ServerCounters;
use measure::{Sample, WindowFacts, LATENCY_LIMIT, TRACED};
use reduce::quantile_of;
use report::{Outcome, END_TO_END, RUN_SECONDS, UNBOUNDED_ROWS, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back from its measured window.
pub struct Measured {
    pub samples: Vec<Sample>,
    pub facts: WindowFacts,
    /// Server counters at the start and end of the window.
    pub before: ServerCounters,
    pub after: ServerCounters,
    /// Allocations during the window.
    pub allocs: AllocCounts,
    /// Live threads that are not the generator's, at the end of the window.
    pub threads: u64,
    /// The data plane `EngineKind::default()` resolved to.
    pub plane: &'static str,
    /// Layer rows only this workload can fill.
    pub extra: Vec<(&'static str, f64)>,
    pub gates: Vec<(String, bool)>,
}

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    /// `None` runs both passes.
    trace: Option<bool>,
    json: Option<PathBuf>,
}

const USAGE: &str = "usage: proteus-benchmark [--workload NAME]... [--seed N] [--seconds S | --quick] \
                     [--trace 0|1] [--json PATH] [--list]\n       proteus-benchmark compare A.jsonl B.jsonl";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name}"))?;
                opts.workloads.push(known.name);
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(opts.seconds >= 1.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            // Development only: never for a recorded number.
            "--quick" => opts.seconds = 5.0,
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--json" => opts.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().map(|w| w.name).collect();
    }
    Ok(opts)
}

/// Traced against untraced requests of one traced run, which records
/// spans in alternating blocks: the relative change in median latency.
fn trace_overhead(samples: &[Sample]) -> f64 {
    let arm = |traced: bool| {
        let mut v: Vec<u64> = samples
            .iter()
            .filter(|s| (s.flags & TRACED != 0) == traced)
            .map(|s| u64::from(s.latency_ns))
            .collect();
        quantile_of(&mut v, 0.5)
    };
    match (arm(true), arm(false)) {
        (Some(on), Some(off)) if off > 0 => on as f64 / off as f64 - 1.0,
        _ => 0.0,
    }
}

/// The layer rows every workload fills the same way, from the window's
/// counter deltas and the probe rows.
fn layer_rows(
    m: &Measured,
    probe: &BTreeMap<&'static str, f64>,
    e2e: &BTreeMap<&'static str, reduce::Reduced>,
) -> Vec<(&'static str, f64)> {
    let d = |f: fn(&ServerCounters) -> u64| (f(&m.after) - f(&m.before)) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let served = d(ServerCounters::served_total);
    let sets = d(|c| c.stats.sets);
    let serve = m.after.serve.saturating_delta(&m.before.serve);
    let serve_ns = |q| serve.quantile(q).map_or(0.0, |d| d.as_nanos() as f64);
    let ops: u64 = m.samples.iter().map(|s| u64::from(s.ops)).sum();
    let failed: u64 = m.samples.iter().map(|s| u64::from(s.failed)).sum();
    let over = m
        .samples
        .iter()
        .filter(|s| u64::from(s.latency_ns) > LATENCY_LIMIT.as_nanos() as u64 || s.failed > 0)
        .count();
    let program_ns: u64 = m.facts.cpu.program_ns.iter().sum();
    let generator_ns: u64 = m.facts.cpu.generator_ns.iter().sum();

    // Reconcile: what the probed layers say the served commands should
    // have cost, against the CPU time the program's threads really took.
    let p = |name: &str| probe.get(name).copied().unwrap_or(0.0);
    let hits = d(|c| c.stats.hits);
    let misses = d(|c| c.stats.misses);
    let class = |c: OpClass| (m.after.served_of(c) - m.before.served_of(c)) as f64;
    let evictions_per_set = per(d(|c| c.stats.evictions), sets);
    let put_ns = p("cache.put_overwrite_ns")
        + evictions_per_set.min(1.0)
            * (p("cache.put_evict_ns") - p("cache.put_overwrite_ns")).max(0.0);
    let modelled_ns = (class(OpClass::Get) + class(OpClass::MultiGet) + class(OpClass::Delete))
        * p("protocol.parse_get_ns")
        + hits * (p("cache.get_hit_ns") + p("protocol.write_value_ns"))
        + misses * p("cache.get_miss_ns")
        + class(OpClass::Set) * (p("protocol.parse_set_ns") + put_ns)
        + class(OpClass::Delete) * p("cache.delete_ns")
        + served * p("obs.record_ns")
        + d(|c| c.syscalls) * p("bench.syscall_ns");
    let sum_ns = per(modelled_ns, served);
    let measured_ns = per(program_ns as f64, served);

    let mut rows = vec![
        ("cache.evictions_per_set", evictions_per_set),
        (
            "cache.slab_bytes_per_live_byte",
            per(
                m.after.slab_page_bytes as f64,
                m.after.slab_live_bytes as f64,
            ),
        ),
        ("cache.pages_reassigned", d(|c| c.pages_reassigned)),
        ("cache.heap_fallbacks", d(|c| c.heap_fallbacks)),
        ("cache.rejected", d(|c| c.stats.rejected)),
        ("server.serve_p50_ns", serve_ns(0.5)),
        ("server.serve_p99_ns", serve_ns(0.99)),
        ("server.syscalls_per_op", per(d(|c| c.syscalls), served)),
        ("server.allocs_per_op", per(m.allocs.program as f64, served)),
        (
            "server.alloc_bytes_per_op",
            per(m.allocs.program_bytes as f64, served),
        ),
        ("server.threads", m.threads as f64),
        (
            "bench.gen_cpu_us_per_op",
            per(generator_ns as f64 / 1e3, ops as f64),
        ),
        ("bench.trace_overhead_frac", trace_overhead(&m.samples)),
        ("bench.failed_frac", per(failed as f64, ops as f64)),
        (
            "bench.over_limit_frac",
            per(over as f64, m.samples.len() as f64),
        ),
        ("reconcile.sum_ns", sum_ns),
        ("reconcile.residual_ns", measured_ns - sum_ns),
        (
            "reconcile.residual_frac",
            per(measured_ns - sum_ns, measured_ns),
        ),
    ];
    rows.extend(
        UNBOUNDED_ROWS
            .iter()
            .map(|&name| (name, e2e.get(name).map_or(0.0, |r| r.value))),
    );
    rows
}

fn out_dir() -> PathBuf {
    // The driver and the README both run from the repository root.
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn run_one(workload: &'static str, args: &RunArgs) -> Result<Outcome, String> {
    let mut measured = match workload {
        "single_read" => single::run(&single::READ, args)?,
        "single_churn" => single::run(&single::CHURN, args)?,
        "cluster_transition" => cluster::run_transition(args)?,
        "diurnal_day" => cluster::run_diurnal(args)?,
        _ => unreachable!("workload names are checked when parsed"),
    };
    let end_to_end = measure::end_to_end(&measured.samples, &measured.facts)
        .ok_or_else(|| format!("{workload}: the measured window produced no samples"))?;
    let attempted: u64 = measured.samples.iter().map(|s| u64::from(s.ops)).sum();
    let failed: u64 = measured.samples.iter().map(|s| u64::from(s.failed)).sum();
    let mut gates = std::mem::take(&mut measured.gates);
    let mut notes = vec![format!("set-ups took {:.3?} s", measured.facts.setups_s)];
    if measured.facts.energy.is_none() {
        notes.push("no power policy runs here: energy_ratio does not apply and reads 1".into());
    }
    gates.push((
        format!("{workload}: no reply was wrong or missing"),
        failed == 0,
    ));
    for m in &END_TO_END {
        let value = end_to_end.get(m.name).map_or(f64::NAN, |r| r.value);
        gates.push((
            format!("{} is a usable number ({value})", m.name),
            value.is_finite() && value > 0.0,
        ));
    }
    let evictions = measured.after.stats.evictions - measured.before.stats.evictions;
    let sets = measured.after.stats.sets - measured.before.stats.sets;
    let hit_frac = end_to_end["hit_frac"].value;
    match workload {
        "single_read" => {
            // The working set fits, so nothing should be evicted; the
            // program evicts anyway when a set finds its slab page
            // pinned by replies in flight (README, "Findings").
            let per_set = evictions as f64 / sets.max(1) as f64;
            gates.push((
                format!("single_read evicts on few sets ({per_set:.3} per set)"),
                per_set < 0.25,
            ));
            gates.push((
                format!("single_read hits nearly every get (hit_frac {hit_frac:.4})"),
                hit_frac >= 0.95,
            ));
        }
        "single_churn" => {
            let per_set = evictions as f64 / sets.max(1) as f64;
            gates.push((
                format!("single_churn evicts on most sets ({per_set:.3} per set)"),
                per_set > 0.5,
            ));
            gates.push((
                format!("single_churn misses most gets (hit_frac {hit_frac:.3})"),
                hit_frac < 0.5,
            ));
        }
        _ => {}
    }

    let mut layers = BTreeMap::new();
    let mut span_table = Vec::new();
    if args.trace {
        // The workload's spans leave the recorder before the probes run.
        let all = spans::drain();
        let path = out_dir().join(format!("trace-{workload}.jsonl"));
        spans::write_jsonl(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("{} spans written to {}", all.len(), path.display()));
        span_table = spans::totals(&all)
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6,
                )
            })
            .collect();
        let probe: BTreeMap<&'static str, f64> =
            probes::run(args.seed, &mut notes)?.into_iter().collect();
        layers.extend(layer_rows(&measured, &probe, &end_to_end));
        layers.extend(probe);
        layers.extend(measured.extra.iter().copied());
        layers.insert("bench.spans", all.len() as f64);
        if layers
            .get("bench.lateness_p99_us")
            .is_some_and(|&v| v > 1000.0)
        {
            notes.push("warning: the generator ran more than 1 ms late at p99".into());
        }
        if layers["bench.trace_overhead_frac"] > 0.10 {
            notes.push("warning: tracing cost more than 10%".into());
        }
    }
    Ok(Outcome {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        plane: measured.plane,
        attempted,
        failed,
        end_to_end,
        layers,
        gates,
        notes,
        span_table,
    })
}

/// Runs one workload, one pass, in this process.
fn run_here(workload: &'static str, trace: bool, opts: &Options) -> Result<bool, String> {
    let args = RunArgs {
        seed: opts.seed,
        seconds: opts.seconds,
        trace,
    };
    let outcome = run_one(workload, &args)?;
    outcome.print();
    if let Some(path) = &opts.json {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", outcome.record_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", outcome.result_json());
    Ok(outcome.correct())
}

/// Every (workload, pass) runs in a process of its own:
/// `mem_bytes_per_user_byte` is resident memory against a baseline read
/// before set-up, and heap freed by an earlier run stays resident, so a
/// second run in the same process would read too little. Asked for
/// more than one, this process starts itself once per run, one after
/// the other, and each child prints its own tables and result object.
fn run_all(opts: &Options) -> Result<bool, String> {
    let passes: &[bool] = match opts.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    if let ([workload], [trace]) = (&opts.workloads[..], passes) {
        return run_here(workload, *trace, opts);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut all_correct = true;
    for &workload in &opts.workloads {
        for &trace in passes {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(path) = &opts.json {
                child.arg("--json").arg(path);
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            all_correct &= status.success();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--list") => {
            println!("{}", report::manifest_json());
            Ok(true)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a, b).map(|trouble| !trouble),
            _ => Err(USAGE.to_string()),
        },
        _ => parse_args(&args).and_then(|opts| run_all(&opts)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
