//! The metric tables (`BENCHMARK.json` is printed from them with
//! `--list`), a run's outcome, and how it is printed and compared.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use proteus_agg::json::{self, Json};

use crate::reduce::{median, quartile_spread, Reduced};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

impl Better {
    fn word(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "single_read",
        why: "1 server, 2 conns pipelining 32 cmds, 90% get/5% 8-key get/5% set, Zipf 0.99 over 100k keys that fit: parser, index probe, slab read, response write; hardly any eviction",
    },
    Workload {
        name: "single_churn",
        why: "same server, 16 cmds per batch, 50% set/45% get/5% delete, uniform keys over 4x capacity, 256B-4KiB values: most sets evict, update the digest, compete for slab pages",
    },
    Workload {
        name: "cluster_transition",
        why: "4 servers + ClusterClient, open loop 2000 fetch/s, 4->3->4 windows fired on request index, 1 ms database: Algorithm 2 on real sockets, digests, on-demand migration",
    },
    Workload {
        name: "diurnal_day",
        why: "4 servers, scrape endpoints, observer, WallPolicy and controller on its own thread, one compressed day replayed open loop: the control loop and the energy account",
    },
];

/// Seconds one run measures; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 21;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The driver wants every one of these from every workload, never 0,
/// and a bound of at most 0.25 that the spread of ten runs stays
/// within on each workload (README, "The contract"): the list holds
/// what can be bounded on all four. `energy_ratio` applies to
/// `diurnal_day` alone and reads 1 elsewhere.
pub const END_TO_END: [EndToEnd; 5] = [
    e("setup_s", "s", Lower, 0.25),
    e("within_limit_frac", "ratio", Higher, 0.10),
    e("hit_frac", "ratio", Higher, 0.08),
    e("mem_bytes_per_user_byte", "ratio", Lower, 0.25),
    e("energy_ratio", "ratio", Lower, 0.10),
];

/// Rows computed like the end-to-end metrics (per slice, median of
/// slices) that carry no bound, because identical runs moved them by
/// more than any bound allowed (README, "What became of the issue's
/// thirteen"). Both passes print them, `--json` records them and
/// `compare` shows them. A row is absent where it does not apply.
pub const UNBOUNDED_ROWS: [&str; 6] = [
    "bench.ops_per_s",
    "bench.server_cpu_us_per_op",
    "bench.joules_per_req",
    "bench.p50_us",
    "bench.p99_us",
    "bench.window_p99_us",
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn l(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// One row per layer metric. A traced run prints all of them; a row
/// reads 0 when its layer took no part in the workload.
pub const PER_LAYER: [Layer; 98] = [
    l("ring.hash_ns", "ns", Lower),
    l("ring.lookup_ns", "ns", Lower),
    l("ring.generate_ms", "ms", Lower),
    l("bloom.insert_ns", "ns", Lower),
    l("bloom.remove_ns", "ns", Lower),
    l("bloom.contains_ns", "ns", Lower),
    l("bloom.encode_ms", "ms", Lower),
    l("bloom.decode_ms", "ms", Lower),
    l("bloom.snapshot_bytes", "bytes", Lower),
    l("cache.get_hit_ns", "ns", Lower),
    l("cache.get_miss_ns", "ns", Lower),
    l("cache.put_overwrite_ns", "ns", Lower),
    l("cache.put_evict_ns", "ns", Lower),
    l("cache.delete_ns", "ns", Lower),
    l("cache.digest_snapshot_ms", "ms", Lower),
    l("cache.allocs_per_get", "count", Lower),
    l("cache.allocs_per_put", "count", Lower),
    l("cache.evictions_per_set", "ratio", Lower),
    l("cache.slab_bytes_per_live_byte", "ratio", Lower),
    l("cache.pages_reassigned", "count", Lower),
    l("cache.heap_fallbacks", "count", Lower),
    l("cache.rejected", "count", Lower),
    l("protocol.parse_get_ns", "ns", Lower),
    l("protocol.parse_set_ns", "ns", Lower),
    l("protocol.write_value_ns", "ns", Lower),
    l("protocol.read_response_ns", "ns", Lower),
    l("protocol.allocs_per_cmd", "count", Lower),
    l("server.reactor.syscalls_per_op", "count", Lower),
    l("server.reactor.depth1_p50_us", "us", Lower),
    l("server.reactor.depth1_ops_s", "1/s", Higher),
    l("server.uring.syscalls_per_op", "count", Lower),
    l("server.uring.depth1_p50_us", "us", Lower),
    l("server.uring.depth1_ops_s", "1/s", Higher),
    l("server.threaded.syscalls_per_op", "count", Lower),
    l("server.threaded.depth1_p50_us", "us", Lower),
    l("server.threaded.depth1_ops_s", "1/s", Higher),
    l("server.serve_p50_ns", "ns", Lower),
    l("server.serve_p99_ns", "ns", Lower),
    l("server.syscalls_per_op", "count", Lower),
    l("server.allocs_per_op", "count", Lower),
    l("server.alloc_bytes_per_op", "bytes", Lower),
    l("server.threads", "count", Lower),
    l("client.get_p50_us", "us", Lower),
    l("client.set_p50_us", "us", Lower),
    l("client.get_many8_p50_us", "us", Lower),
    l("client.retries", "count", Lower),
    l("client.reconnects", "count", Lower),
    l("client.breaker_opens", "count", Lower),
    l("cluster.fetch_hit_p50_us", "us", Lower),
    l("cluster.fetch_migrated_p50_us", "us", Lower),
    l("cluster.fetch_db_p50_us", "us", Lower),
    l("cluster.fetch_overhead_us", "us", Lower),
    l("cluster.begin_transition_ms", "ms", Lower),
    l("cluster.end_transition_ms", "ms", Lower),
    l("cluster.migrated_per_window", "count", Higher),
    l("cluster.false_positive_frac", "ratio", Lower),
    l("cluster.degraded", "count", Lower),
    l("store.fetch_ns", "ns", Lower),
    l("db.fetches", "count", Lower),
    l("db.fetch_frac", "ratio", Lower),
    l("db.busy_frac", "ratio", Lower),
    l("obs.record_ns", "ns", Lower),
    l("obs.snapshot_us", "us", Lower),
    l("obs.render_json_us", "us", Lower),
    l("obs.scrape_http_us", "us", Lower),
    l("agg.tick_p50_ms", "ms", Lower),
    l("agg.tick_max_ms", "ms", Lower),
    l("agg.parse_us", "us", Lower),
    l("agg.merge_us", "us", Lower),
    l("agg.scrape_failures", "count", Lower),
    l("agg.server_seconds_frac", "ratio", Lower),
    l("ctl.decide_ns", "ns", Lower),
    l("ctl.step_p50_ms", "ms", Lower),
    l("ctl.step_max_ms", "ms", Lower),
    l("ctl.decisions", "count", Lower),
    l("ctl.shrinks", "count", Higher),
    l("ctl.grows", "count", Lower),
    l("ctl.backoffs", "count", Lower),
    l("ctl.excess_server_s", "s", Lower),
    l("ctl.worst_window_p99_us", "us", Lower),
    l("workload.zipf_sample_ns", "ns", Lower),
    l("workload.pacer_due_ns", "ns", Lower),
    l("bench.lateness_p99_us", "us", Lower),
    l("bench.gen_cpu_us_per_op", "us", Lower),
    l("bench.trace_overhead_frac", "ratio", Lower),
    l("bench.failed_frac", "ratio", Lower),
    l("bench.over_limit_frac", "ratio", Lower),
    l("bench.syscall_ns", "ns", Lower),
    l("bench.ops_per_s", "1/s", Higher),
    l("bench.server_cpu_us_per_op", "us", Lower),
    l("bench.joules_per_req", "J", Lower),
    l("bench.p50_us", "us", Lower),
    l("bench.p99_us", "us", Lower),
    l("bench.window_p99_us", "us", Lower),
    l("bench.spans", "count", Lower),
    l("reconcile.sum_ns", "ns", Lower),
    l("reconcile.residual_ns", "ns", Lower),
    l("reconcile.residual_frac", "ratio", Lower),
];

fn layer(name: &str) -> &'static Layer {
    PER_LAYER
        .iter()
        .find(|l| l.name == name)
        .expect("every unbounded row is a per-layer row")
}

/// What one run of one workload produced.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub plane: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics and the unbounded rows, by name.
    pub end_to_end: BTreeMap<&'static str, Reduced>,
    /// Per-layer rows; filled by the traced pass only.
    pub layers: BTreeMap<&'static str, f64>,
    /// `(what was checked, whether it held)`.
    pub gates: Vec<(String, bool)>,
    /// Warnings and omissions, printed under the tables.
    pub notes: Vec<String>,
    /// `(span name, count, total ms, self ms)`, traced pass only.
    pub span_table: Vec<(&'static str, u64, f64, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.1)
    }

    /// `(name, unit, value)` of every metric this pass reports: the
    /// end-to-end metrics untraced, the per-layer metrics traced.
    fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        self.layers.get(m.name).copied().unwrap_or(0.0),
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name,
                        m.unit,
                        self.end_to_end.get(m.name).map_or(f64::NAN, |r| r.value),
                    )
                })
                .collect()
        }
    }

    /// The result object the contract asks for on the last line.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics().into_iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// One `--json` record: the result object, which run it was, and
    /// the rows that carry no bound.
    pub fn record_json(&self) -> String {
        let unbounded: Vec<String> = UNBOUNDED_ROWS
            .iter()
            .filter_map(|&name| {
                let value = self.end_to_end.get(name)?.value;
                Some(format!("\"{name}\": {value}"))
            })
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"result\": {}, \"unbounded\": {{{}}}}}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.result_json(),
            unbounded.join(", ")
        )
    }

    /// Every metric by name with its unit, then gates and notes.
    pub fn print(&self) {
        println!(
            "== {}  seed {}  {} s  {}  plane {} ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" },
            self.plane
        );
        println!(
            "  {:<34}{:>16}  {:<6}  samples/slice",
            "end-to-end", "value", "unit"
        );
        for m in &END_TO_END {
            if let Some(r) = self.end_to_end.get(m.name) {
                println!(
                    "  {:<34}{:>16.4}  {:<6}  {}",
                    m.name, r.value, m.unit, r.samples_per_slice
                );
            }
        }
        println!(
            "  {:<34}{:>16}  {:<6}  samples/slice",
            "no bound", "value", "unit"
        );
        for name in UNBOUNDED_ROWS {
            if let Some(r) = self.end_to_end.get(name) {
                println!(
                    "  {:<34}{:>16.4}  {:<6}  {}",
                    name,
                    r.value,
                    layer(name).unit,
                    r.samples_per_slice
                );
            }
        }
        if self.traced {
            println!("  {:<34}{:>16}  unit", "per-layer", "value");
            for (name, unit, value) in self.metrics() {
                println!("  {name:<34}{value:>16.4}  {unit}");
            }
            println!(
                "  {:<34}{:>10}{:>14}{:>14}",
                "span", "count", "total ms", "self ms"
            );
            for (name, count, total, own) in &self.span_table {
                println!("  {name:<34}{count:>10}{total:>14.2}{own:>14.2}");
            }
        }
        for (what, held) in &self.gates {
            println!("  gate {}: {what}", if *held { "ok  " } else { "FAIL" });
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
    }
}

/// `BENCHMARK.json`, printed from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.word()
        );
    }
    out.push_str("  ]\n}");
    out
}

/// End-to-end and unbounded values of every untraced record in a
/// `--json` file, by `(workload, metric)`.
fn load_records(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record =
            json::parse(line).map_err(|e| format!("{path}: {} at byte {}", e.message, e.at))?;
        let field = |name: &str| {
            record
                .get(name)
                .ok_or_else(|| format!("{path}: record has no `{name}`"))
        };
        if field("trace")?.as_u64() != Some(0) {
            continue;
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let metrics = field("result")?.get("metrics");
        for m in &END_TO_END {
            let value = metrics
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: {workload} record has no {}", m.name))?;
            out.entry((workload.clone(), m.name.to_string()))
                .or_default()
                .push(value);
        }
        // A row is missing where it does not apply (`bench.joules_per_req`).
        for name in UNBOUNDED_ROWS {
            if let Some(value) = field("unbounded")?.get(name).and_then(Json::as_f64) {
                out.entry((workload.clone(), name.to_string()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

/// `compare A B`: one row per (workload, end-to-end metric) with both
/// medians, the relative change, the bound and a verdict, then the
/// rows without a bound. Returns whether any row is `worse` or
/// `unresolved`.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let a = load_records(a_path)?;
    let b = load_records(b_path)?;
    println!(
        "{:<20}{:<28}{:>14}{:>14}{:>9}{:>8}{:>9}{:>9}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "A spread", "B spread"
    );
    let bounded = END_TO_END.iter().map(|m| (m.name, m.better, Some(m.bound)));
    let unbounded = UNBOUNDED_ROWS
        .iter()
        .map(|&name| (name, layer(name).better, None));
    let rows: Vec<_> = bounded.chain(unbounded).collect();
    let mut trouble = false;
    for w in &WORKLOADS {
        for &(name, better, bound) in &rows {
            let key = (w.name.to_string(), name.to_string());
            let (Some(av), Some(bv)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (am, bm) = (
                median(av).expect("non-empty"),
                median(bv).expect("non-empty"),
            );
            // Positive means B is worse than A.
            let worse_by = match better {
                Lower => (bm - am) / am,
                Higher => (am - bm) / am,
            };
            let spreads = [quartile_spread(av), quartile_spread(bv)];
            let verdict = match bound {
                None => "no bound",
                // Set-up time has a bound on its median only.
                Some(bound)
                    if name != "setup_s" && spreads.iter().flatten().any(|&s| s > bound) =>
                {
                    "unresolved"
                }
                Some(bound) if worse_by > bound => "worse",
                Some(bound) if worse_by < -bound => "better",
                Some(_) => "same",
            };
            trouble |= matches!(verdict, "unresolved" | "worse");
            let percent =
                |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<20}{:<28}{:>14.4}{:>14.4}{:>8.1}%{:>8}{:>9}{:>9}  {verdict}",
                w.name,
                name,
                am,
                bm,
                worse_by * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                percent(spreads[0]),
                percent(spreads[1]),
            );
        }
    }
    Ok(trouble)
}
