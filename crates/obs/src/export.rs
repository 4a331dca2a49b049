//! Metric exposition: a flat registry snapshot plus renderers for
//! Prometheus text format, JSON, and memcached-style `STAT` pairs,
//! and a minimal HTTP server that serves them.
//!
//! The registry is pull-based: producers keep their own atomics and
//! histograms, and a collector closure materialises a `Vec<Metric>` on
//! demand. That keeps the hot paths ignorant of exposition formats.

use std::fmt::{self, Write as _};
use std::io::{self, IoSlice, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::histogram::HistogramSnapshot;
use crate::tracer::{EventTracer, TraceEvent, TraceKind};

/// The value carried by one [`Metric`].
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A monotone event count.
    Counter(u64),
    /// An instantaneous level.
    Gauge(i64),
    /// An instantaneous ratio or other fractional level (e.g. a
    /// fragmentation fraction). Rendered with six decimal places.
    FloatGauge(f64),
    /// A full latency distribution.
    Histogram(HistogramSnapshot),
}

/// One named, optionally labelled, metric sample.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`snake_case`, no spaces).
    pub name: String,
    /// Label pairs, e.g. `[("op", "get")]`.
    pub labels: Vec<(String, String)>,
    /// The sample.
    pub value: MetricValue,
}

impl Metric {
    /// A counter sample without labels.
    #[must_use]
    pub fn counter(name: impl Into<String>, v: u64) -> Self {
        Metric {
            name: name.into(),
            labels: Vec::new(),
            value: MetricValue::Counter(v),
        }
    }

    /// A gauge sample without labels.
    #[must_use]
    pub fn gauge(name: impl Into<String>, v: i64) -> Self {
        Metric {
            name: name.into(),
            labels: Vec::new(),
            value: MetricValue::Gauge(v),
        }
    }

    /// A fractional gauge sample without labels.
    #[must_use]
    pub fn float_gauge(name: impl Into<String>, v: f64) -> Self {
        Metric {
            name: name.into(),
            labels: Vec::new(),
            value: MetricValue::FloatGauge(v),
        }
    }

    /// A histogram sample without labels.
    #[must_use]
    pub fn histogram(name: impl Into<String>, snap: HistogramSnapshot) -> Self {
        Metric {
            name: name.into(),
            labels: Vec::new(),
            value: MetricValue::Histogram(snap),
        }
    }

    /// Adds a label pair (builder style).
    #[must_use]
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((key.into(), value.into()));
        self
    }

    /// The labels folded into a `STAT` name: `_k_v` per pair, with every
    /// character that is not printable ASCII (a space, a tab, a line
    /// feed, any control or non-ASCII character) written as `_`, so the
    /// name stays one token on a `STAT <name> <value>` line.
    fn label_suffix(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.labels {
            for part in [k, v] {
                out.push('_');
                out.extend(
                    part.chars()
                        .map(|c| if c.is_ascii_graphic() { c } else { '_' }),
                );
            }
        }
        out
    }

    /// Writes the name, a suffix such as `_sum`, and the label set
    /// `{k="v",...}` (plus `extra`, unescaped), or no braces at all
    /// when there is no label. A label value escapes `\`, `"` and the
    /// line feed, as the exposition format asks.
    fn write_prometheus_series(&self, out: &mut String, suffix: &str, extra: Option<(&str, &str)>) {
        out.push_str(&self.name);
        out.push_str(suffix);
        if self.labels.is_empty() && extra.is_none() {
            return;
        }
        let mut sep = '{';
        for (k, v) in &self.labels {
            out.push(sep);
            out.push_str(k);
            out.push_str("=\"");
            for c in v.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
            sep = ',';
        }
        if let Some((k, v)) = extra {
            out.push(sep);
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
}

fn write_json_str(out: &mut String, v: &str) -> fmt::Result {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.push(c),
        }
    }
    out.push('"');
    Ok(())
}

/// Bytes reserved a metric before rendering: a counter or gauge line
/// takes well under this, a histogram's six Prometheus lines or its
/// JSON head about four times it. A render that outgrows the guess
/// reallocates.
const BYTES_PER_METRIC: usize = 128;

/// Bytes reserved an occupied histogram bucket in the JSON rendering
/// (`[1234,56],`).
const BYTES_PER_BUCKET: usize = 12;

fn reserve_for(metrics: &[Metric], bytes_per_bucket: usize) -> String {
    let bytes = metrics
        .iter()
        .map(|m| match &m.value {
            MetricValue::Histogram(snap) => {
                let occupied = snap.bucket_range().1.iter().filter(|&&c| c > 0).count();
                4 * BYTES_PER_METRIC + bytes_per_bucket * occupied
            }
            _ => BYTES_PER_METRIC,
        })
        .sum();
    String::with_capacity(bytes)
}

/// The quantiles every histogram metric is expanded into:
/// `(quantile, prometheus label value, stat-pair key stem)`.
const QUANTILES: [(f64, &str, &str); 4] = [
    (0.50, "0.5", "p50"),
    (0.90, "0.9", "p90"),
    (0.99, "0.99", "p99"),
    (0.999, "0.999", "p999"),
];

/// Renders metrics in Prometheus text exposition format. Histograms
/// are rendered summary-style: `<name>{quantile="..."}` gauges in
/// seconds plus `<name>_count` and `<name>_sum`.
///
/// Metrics that share a name are one family: it gets one `# TYPE`
/// line, at the place of its first metric in `metrics`, with every
/// series of the family right after it (the format allows one `TYPE`
/// line a name and wants a family's lines together). The family's
/// type is its first metric's.
#[must_use]
pub fn to_prometheus(metrics: &[Metric]) -> String {
    let mut out = reserve_for(metrics, 0);
    write_prometheus(&mut out, metrics).expect("writing to a String cannot fail");
    out
}

fn write_prometheus(out: &mut String, metrics: &[Metric]) -> fmt::Result {
    for (i, m) in metrics.iter().enumerate() {
        // Written with its family already. Nearest first: most
        // families are contiguous.
        let seen = |p: &Metric| p.name == m.name;
        if metrics[..i].iter().rev().any(seen) {
            continue;
        }
        let kind = match m.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) | MetricValue::FloatGauge(_) => "gauge",
            MetricValue::Histogram(_) => "summary",
        };
        writeln!(out, "# TYPE {} {kind}", m.name)?;
        for member in metrics[i..].iter().filter(|p| seen(p)) {
            write_prometheus_samples(out, member)?;
        }
    }
    Ok(())
}

fn write_prometheus_samples(out: &mut String, m: &Metric) -> fmt::Result {
    match &m.value {
        MetricValue::Counter(v) => {
            m.write_prometheus_series(out, "", None);
            writeln!(out, " {v}")?;
        }
        MetricValue::Gauge(v) => {
            m.write_prometheus_series(out, "", None);
            writeln!(out, " {v}")?;
        }
        MetricValue::FloatGauge(v) => {
            m.write_prometheus_series(out, "", None);
            writeln!(out, " {v:.6}")?;
        }
        MetricValue::Histogram(snap) => {
            for (q, qname, _) in QUANTILES {
                m.write_prometheus_series(out, "", Some(("quantile", qname)));
                let v = snap.quantile(q).unwrap_or_default().as_secs_f64();
                writeln!(out, " {v}")?;
            }
            m.write_prometheus_series(out, "_sum", None);
            writeln!(out, " {}", snap.sum_nanos() as f64 / 1e9)?;
            m.write_prometheus_series(out, "_count", None);
            writeln!(out, " {}", snap.count())?;
        }
    }
    Ok(())
}

/// Renders metrics as a JSON array. Histograms become objects with
/// `count`, `sum_ns`, `min_ns`/`max_ns`/`mean_ns` and a `quantiles_ns`
/// object.
#[must_use]
pub fn to_json(metrics: &[Metric]) -> String {
    let mut out = reserve_for(metrics, BYTES_PER_BUCKET);
    write_json(&mut out, metrics).expect("writing to a String cannot fail");
    out
}

fn write_json(out: &mut String, metrics: &[Metric]) -> fmt::Result {
    out.push('[');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_json_str(out, &m.name)?;
        out.push_str(",\"labels\":{");
        for (j, (k, v)) in m.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_json_str(out, k)?;
            out.push(':');
            write_json_str(out, v)?;
        }
        out.push_str("},");
        match &m.value {
            MetricValue::Counter(v) => write!(out, "\"type\":\"counter\",\"value\":{v}")?,
            MetricValue::Gauge(v) => write!(out, "\"type\":\"gauge\",\"value\":{v}")?,
            MetricValue::FloatGauge(v) => write!(out, "\"type\":\"gauge\",\"value\":{v:.6}")?,
            MetricValue::Histogram(snap) => {
                write!(
                    out,
                    "\"type\":\"histogram\",\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"quantiles_ns\":{{",
                    snap.count(),
                    snap.sum_nanos(),
                    snap.min().unwrap_or_default().as_nanos(),
                    snap.max().unwrap_or_default().as_nanos(),
                    snap.mean().unwrap_or_default().as_nanos(),
                )?;
                for (k, (q, qname, _)) in QUANTILES.iter().enumerate() {
                    let sep = if k > 0 { "," } else { "" };
                    let v = snap.quantile(*q).unwrap_or_default().as_nanos();
                    write!(out, "{sep}\"{qname}\":{v}")?;
                }
                // The sparse buckets make the exposition lossless: a
                // remote aggregator rebuilds the exact snapshot with
                // `HistogramSnapshot::from_sparse` and merges across
                // servers for true cluster-wide quantiles, instead of
                // averaging pre-computed per-server percentiles.
                out.push_str("},\"buckets\":[");
                let (first, counts) = snap.bucket_range();
                let mut sep = "";
                for (idx, c) in (first..).zip(counts).filter(|&(_, &c)| c > 0) {
                    write!(out, "{sep}[{idx},{c}]")?;
                    sep = ",";
                }
                out.push(']');
            }
        }
        out.push('}');
    }
    out.push(']');
    Ok(())
}

/// Flattens metrics into memcached-style `(key, value)` STAT pairs.
/// Labels are folded into the key (`latency_op_get_p99_us`), histogram
/// quantiles are reported in integer microseconds, and empty
/// histograms are skipped.
#[must_use]
pub fn to_stat_pairs(metrics: &[Metric]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for m in metrics {
        let key = format!("{}{}", m.name, m.label_suffix());
        match &m.value {
            MetricValue::Counter(v) => out.push((key, v.to_string())),
            MetricValue::Gauge(v) => out.push((key, v.to_string())),
            MetricValue::FloatGauge(v) => out.push((key, format!("{v:.6}"))),
            MetricValue::Histogram(snap) => {
                out.push((format!("{key}_count"), snap.count().to_string()));
                if snap.is_empty() {
                    continue;
                }
                for (q, _, qkey) in QUANTILES {
                    let micros = snap.quantile(q).unwrap_or_default().as_micros();
                    out.push((format!("{key}_{qkey}_us"), micros.to_string()));
                }
                out.push((
                    format!("{key}_mean_us"),
                    snap.mean().unwrap_or_default().as_micros().to_string(),
                ));
                out.push((
                    format!("{key}_max_us"),
                    snap.max().unwrap_or_default().as_micros().to_string(),
                ));
            }
        }
    }
    out
}

/// Renders events as JSONL, the machine-readable trace schema: one
/// JSON object per event, each newline-terminated (so the output is
/// valid even when concatenated across incremental cursor reads).
///
/// The schema is stable: every line carries `seq` (global record
/// order, gap-free except for counted ring drops), `at_ns` (monotonic
/// nanoseconds since tracer creation), and `kind` (the snake_case
/// [`TraceKind::name`]), plus the kind-specific fields — `from`/`to`
/// for transitions and migrations (a pulled batch adds `keys`),
/// `server` for per-server events, `ok` for digest broadcasts.
#[must_use]
pub fn trace_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * TRACE_LINE_BYTES);
    for e in events {
        write_trace_event(&mut out, e).expect("writing to a String cannot fail");
        out.push('\n');
    }
    out
}

/// Bytes reserved a trace line; the longest kind renders in about 100.
const TRACE_LINE_BYTES: usize = 128;

fn write_trace_event(out: &mut String, event: &TraceEvent) -> fmt::Result {
    write!(
        out,
        "{{\"seq\":{},\"at_ns\":{},\"kind\":\"{}\"",
        event.seq,
        event.at.as_nanos(),
        event.kind.name()
    )?;
    match event.kind {
        TraceKind::TransitionBegin { from, to }
        | TraceKind::TransitionDrain { from, to }
        | TraceKind::KeyMigrated { from, to } => write!(out, ",\"from\":{from},\"to\":{to}")?,
        TraceKind::DigestBroadcast { server, ok } => {
            write!(out, ",\"server\":{server},\"ok\":{ok}")?;
        }
        TraceKind::KeysPulled { from, to, keys } => {
            write!(out, ",\"from\":{from},\"to\":{to},\"keys\":{keys}")?;
        }
        TraceKind::ControllerDecision {
            from,
            to,
            p99_us,
            ops,
        } => write!(
            out,
            ",\"from\":{from},\"to\":{to},\"p99_us\":{p99_us},\"ops\":{ops}"
        )?,
        TraceKind::MigrationSkipped { server }
        | TraceKind::Degraded { server }
        | TraceKind::PowerOff { server }
        | TraceKind::BreakerOpen { server }
        | TraceKind::BreakerProbe { server }
        | TraceKind::BreakerClose { server } => write!(out, ",\"server\":{server}")?,
        TraceKind::DigestSnapshot => {}
    }
    out.push('}');
    Ok(())
}

/// The tracer's own health as registry metrics:
/// `proteus_trace_recorded_total`, `proteus_trace_dropped_total`
/// (events the bounded ring overwrote before they were exported —
/// non-zero means the trace has holes and the ring needs to be larger
/// or drained more often), and the `proteus_trace_retained` gauge.
#[must_use]
pub fn trace_metrics(tracer: &EventTracer) -> Vec<Metric> {
    vec![
        Metric::counter("proteus_trace_recorded_total", tracer.recorded()),
        Metric::counter("proteus_trace_dropped_total", tracer.dropped()),
        Metric::gauge("proteus_trace_retained", tracer.len() as i64),
    ]
}

/// A closure that materialises the current registry.
pub type MetricSource = Arc<dyn Fn() -> Vec<Metric> + Send + Sync>;

/// Scrapes served concurrently, and the most scrape threads a server
/// keeps; further connections are answered `503 Service Unavailable`
/// inline and counted as rejected. A stalled or malicious scraper can
/// therefore pin at most this many threads, never one per connection.
const MAX_CONCURRENT_SCRAPES: u64 = 4;

/// Per-scrape socket read and write timeout: bounds how long a stalled
/// request head, or a scraper that stops reading, holds a serving slot.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Backoff before re-trying `accept` after a resource-exhaustion error
/// (`EMFILE`/`ENFILE`/`ENOBUFS`/`ENOMEM`): gives the process a beat to
/// shed file descriptors instead of spinning.
const ACCEPT_EXHAUSTED_BACKOFF: Duration = Duration::from_millis(50);

/// Classifies an `accept` error: `None` means retry immediately (the
/// aborted-connection family — the listener itself is fine), `Some(d)`
/// means back off for `d` first (resource exhaustion — retrying in a
/// tight loop would spin at 100% CPU). No error kills an accept loop:
/// a transient `EMFILE` must not permanently silence a server that
/// keeps running. The cache server, the fault proxy and
/// [`MetricsServer`] all follow it.
///
/// EMFILE(24) and ENFILE(23) surface as Uncategorized on stable, so
/// they are matched by raw code, with ENOBUFS(105) and ENOMEM(12).
#[must_use]
pub fn accept_retry_delay(e: &io::Error) -> Option<Duration> {
    let exhausted = match e.raw_os_error() {
        Some(code) => matches!(code, 23 | 24 | 12 | 105),
        None => matches!(
            e.kind(),
            io::ErrorKind::OutOfMemory | io::ErrorKind::WouldBlock
        ),
    };
    exhausted.then_some(ACCEPT_EXHAUSTED_BACKOFF)
}

/// Cumulative scrape-admission counters (see
/// [`MetricsServer::scrape_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrapeStats {
    /// Scrapes accepted and handed to a scrape thread.
    pub served: u64,
    /// Connections refused with `503` because four scrapes were already
    /// in flight.
    pub rejected: u64,
    /// Scrapes in flight right now.
    pub active: u64,
}

#[derive(Debug, Default)]
struct AtomicScrapeStats {
    served: AtomicU64,
    rejected: AtomicU64,
    active: AtomicU64,
}

/// A minimal HTTP/1.1 server exposing `/metrics` (Prometheus text)
/// and `/metrics.json` (JSON array).
///
/// Scrapes are served by at most four worker threads, each started the
/// first time every existing one is busy and then kept, each socket
/// under a 2 s read and write timeout: a connection beyond four in
/// flight gets an inline `503`, so a misbehaving scraper cannot exhaust
/// the process, and a scraper that comes back each second starts no
/// thread. The server stops when dropped or on [`MetricsServer::stop`].
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<AtomicScrapeStats>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving metrics
    /// produced by `source`.
    ///
    /// # Errors
    ///
    /// Returns any socket bind error.
    pub fn spawn(addr: &str, source: MetricSource) -> io::Result<MetricsServer> {
        MetricsServer::spawn_inner(addr, source, None)
    }

    /// [`spawn`](Self::spawn) plus a trace ring: the
    /// endpoint additionally serves `/trace.jsonl` — the retained
    /// [`EventTracer`] events as one JSON object per line (see
    /// [`trace_to_jsonl`] for the schema) — with cursor-based
    /// incremental reads via `?since_seq=N` (events with `seq > N`
    /// only, so a poller passes the last seq it consumed and receives
    /// each event exactly once, ring overflow aside).
    ///
    /// # Errors
    ///
    /// Returns any socket bind error.
    pub fn spawn_traced(
        addr: &str,
        source: MetricSource,
        tracer: Arc<EventTracer>,
    ) -> io::Result<MetricsServer> {
        MetricsServer::spawn_inner(addr, source, Some(tracer))
    }

    fn spawn_inner(
        addr: &str,
        source: MetricSource,
        tracer: Option<Arc<EventTracer>>,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(AtomicScrapeStats::default());
        let stop = Arc::clone(&shutdown);
        let loop_stats = Arc::clone(&stats);
        let handle = std::thread::Builder::new()
            .name("proteus-metrics".into())
            .spawn(move || {
                // Accepted connections queue here for the workers; the
                // queue is dropped below to stop them.
                let (queue, incoming) = mpsc::channel::<TcpStream>();
                let incoming = Arc::new(Mutex::new(incoming));
                let mut workers: Vec<JoinHandle<()>> = Vec::new();
                loop {
                    // Blocks until a scraper connects; `stop` raises
                    // the flag and then connects to get it looked at.
                    let accepted = listener.accept();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match accepted {
                        Ok((stream, _)) => {
                            // Only this thread raises `active`.
                            let active = loop_stats.active.load(Ordering::SeqCst);
                            if active >= MAX_CONCURRENT_SCRAPES {
                                loop_stats.rejected.fetch_add(1, Ordering::Relaxed);
                                let _ = reject_scrape(stream);
                                continue;
                            }
                            loop_stats.active.fetch_add(1, Ordering::SeqCst);
                            // A worker lowers `active` before it closes
                            // its connection and waits for the next, so
                            // with fewer scrapes in flight than live
                            // workers one is free, or about to be.
                            workers.retain(|w| !w.is_finished());
                            if active >= workers.len() as u64 {
                                let worker = spawn_scrape_worker(
                                    Arc::clone(&incoming),
                                    Arc::clone(&source),
                                    tracer.clone(),
                                    Arc::clone(&loop_stats),
                                );
                                match worker {
                                    Ok(w) => workers.push(w),
                                    Err(_) => {
                                        // Release the slot; the dropped
                                        // stream reads as a failed
                                        // scrape at the client.
                                        loop_stats.active.fetch_sub(1, Ordering::SeqCst);
                                        continue;
                                    }
                                }
                            }
                            queue
                                .send(stream)
                                .expect("this thread holds the receiving end too");
                        }
                        // Out of descriptors or memory: wait — `stop`
                        // unparks — for some to free up. A connection
                        // that died in the backlog retries at once.
                        Err(e) => {
                            if let Some(delay) = accept_retry_delay(&e) {
                                std::thread::park_timeout(delay);
                            }
                        }
                    }
                }
                // Let in-flight scrapes finish (each is bounded by the
                // socket timeouts) before the server reports stopped;
                // the closed queue ends every worker's loop.
                drop(queue);
                for w in workers {
                    let _ = w.join();
                }
            })
            .expect("spawn metrics thread");
        Ok(MetricsServer {
            addr,
            shutdown,
            stats,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the scrape-admission counters: how many scrapes were
    /// served, how many were refused at the cap, and how many are in
    /// flight right now.
    #[must_use]
    pub fn scrape_stats(&self) -> ScrapeStats {
        ScrapeStats {
            served: self.stats.served.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            active: self.stats.active.load(Ordering::Relaxed),
        }
    }

    /// Stops the accept loop and joins the server thread (which in turn
    /// joins any in-flight scrape workers).
    pub fn stop(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        handle.thread().unpark();
        // The loop is blocked in `accept`: a connection of our own wakes it.
        // Should even that fail (no descriptor left), the thread is left
        // behind rather than joined, which would never return.
        if TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)).is_ok() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts one scrape worker: it serves connections from `incoming`
/// one after another until the queue closes.
fn spawn_scrape_worker(
    incoming: Arc<Mutex<Receiver<TcpStream>>>,
    source: MetricSource,
    tracer: Option<Arc<EventTracer>>,
    stats: Arc<AtomicScrapeStats>,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("proteus-scrape".into())
        .spawn(move || loop {
            let next = incoming
                .lock()
                .expect("a scrape worker panicked holding the queue")
                .recv();
            let Ok(stream) = next else {
                return;
            };
            // Serve errors (client hangup etc.) only affect that one
            // scrape.
            let _ = serve_scrape(&stream, &source, tracer.as_deref());
            stats.served.fetch_add(1, Ordering::Relaxed);
            // The slot is free before the scraper sees the connection
            // close, so a scraper that comes straight back finds this
            // worker free.
            stats.active.fetch_sub(1, Ordering::SeqCst);
            drop(stream);
        })
}

/// Refuses a connection over the concurrency cap with an inline `503`
/// (best effort: a scraper that cannot even take the refusal is simply
/// dropped).
fn reject_scrape(mut stream: TcpStream) -> io::Result<()> {
    stream.set_write_timeout(Some(SCRAPE_TIMEOUT))?;
    let body = "too many concurrent scrapes\n";
    let response = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// The longest request head a scrape reads; the rest goes unread.
const MAX_REQUEST_HEAD: usize = 8192;

/// Reads one HTTP request head and writes the matching exposition.
fn serve_scrape(
    mut stream: &TcpStream,
    source: &MetricSource,
    tracer: Option<&EventTracer>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(SCRAPE_TIMEOUT))?;
    stream.set_write_timeout(Some(SCRAPE_TIMEOUT))?;
    let mut head = [0u8; MAX_REQUEST_HEAD];
    let mut len = 0;
    // Read until the blank line ending the request head (or EOF, or
    // the cap), as many bytes a `read` as have arrived.
    while len < head.len() {
        let n = stream.read(&mut head[len..])?;
        if n == 0 {
            break;
        }
        // The terminator may straddle the previous read.
        let scan_from = len.saturating_sub(3);
        len += n;
        if head[scan_from..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head[..len]);
    let target = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };

    let (status, content_type, body) = match path {
        "/metrics" | "/" => {
            let body = to_prometheus(&source());
            ("200 OK", "text/plain; version=0.0.4", body)
        }
        "/metrics.json" => {
            let body = to_json(&source());
            ("200 OK", "application/json", body)
        }
        "/trace.jsonl" => match tracer {
            Some(tracer) => {
                let since_seq = query.and_then(parse_since_seq);
                let body = trace_to_jsonl(&tracer.events_since(since_seq));
                ("200 OK", "application/x-ndjson", body)
            }
            None => (
                "404 Not Found",
                "text/plain",
                "no tracer attached\n".to_string(),
            ),
        },
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // Head and body leave in one `writev`, the body from where it was
    // rendered.
    let mut parts = [IoSlice::new(head.as_bytes()), IoSlice::new(body.as_bytes())];
    let mut unsent = &mut parts[..];
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// Extracts the `since_seq` cursor from a query string
/// (`since_seq=42`, possibly among other `&`-separated pairs). A
/// malformed value reads as "no cursor" — the full retained ring —
/// rather than an error, since over-serving is always safe.
fn parse_since_seq(query: &str) -> Option<u64> {
    query
        .split('&')
        .find_map(|pair| pair.strip_prefix("since_seq="))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::LatencyHistogram;

    #[test]
    fn accept_errors_never_kill_the_listener() {
        use std::io::{Error, ErrorKind};
        // Connection-level aborts retry immediately...
        assert_eq!(
            accept_retry_delay(&Error::from(ErrorKind::ConnectionAborted)),
            None
        );
        assert_eq!(
            accept_retry_delay(&Error::from(ErrorKind::ConnectionReset)),
            None
        );
        // ...resource exhaustion backs off first (EMFILE/ENFILE land in
        // Uncategorized, so raw OS codes are what's matched).
        for code in [23, 24, 12, 105] {
            assert_eq!(
                accept_retry_delay(&Error::from_raw_os_error(code)),
                Some(ACCEPT_EXHAUSTED_BACKOFF),
                "os error {code}"
            );
        }
        assert_eq!(
            accept_retry_delay(&Error::from(ErrorKind::OutOfMemory)),
            Some(ACCEPT_EXHAUSTED_BACKOFF)
        );
        // ECONNABORTED as a raw code: retry now.
        assert_eq!(accept_retry_delay(&Error::from_raw_os_error(103)), None);
    }

    fn sample_metrics() -> Vec<Metric> {
        let h = LatencyHistogram::new();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        vec![
            Metric::counter("proteus_requests_total", 42).with_label("op", "get"),
            Metric::gauge("proteus_connections", 3),
            Metric::float_gauge("proteus_fragmentation_ratio", 0.25),
            Metric::histogram("proteus_latency_seconds", h.snapshot()).with_label("op", "get"),
        ]
    }

    #[test]
    fn prometheus_text_has_types_labels_and_quantiles() {
        let text = to_prometheus(&sample_metrics());
        assert!(text.contains("# TYPE proteus_requests_total counter"));
        assert!(text.contains("proteus_requests_total{op=\"get\"} 42"));
        assert!(text.contains("# TYPE proteus_connections gauge"));
        assert!(text.contains("proteus_connections 3"));
        assert!(text.contains("# TYPE proteus_fragmentation_ratio gauge"));
        assert!(text.contains("proteus_fragmentation_ratio 0.250000"));
        assert!(text.contains("proteus_latency_seconds{op=\"get\",quantile=\"0.99\"}"));
        assert!(text.contains("proteus_latency_seconds_count{op=\"get\"} 100"));
    }

    #[test]
    fn json_is_parseable_shape() {
        let json = to_json(&sample_metrics());
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"name\":\"proteus_requests_total\""));
        assert!(json.contains("\"labels\":{\"op\":\"get\"}"));
        assert!(json.contains("\"type\":\"histogram\""));
        assert!(json.contains("\"quantiles_ns\""));
    }

    #[test]
    fn stat_pairs_flatten_labels_and_quantiles() {
        let pairs = to_stat_pairs(&sample_metrics());
        let get = |k: &str| {
            pairs
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("proteus_requests_total_op_get").unwrap(), "42");
        assert_eq!(get("proteus_connections").unwrap(), "3");
        assert_eq!(get("proteus_fragmentation_ratio").unwrap(), "0.250000");
        assert_eq!(get("proteus_latency_seconds_op_get_count").unwrap(), "100");
        let p99: u64 = get("proteus_latency_seconds_op_get_p99_us")
            .unwrap()
            .parse()
            .unwrap();
        assert!((90_000..=110_000).contains(&p99), "p99_us={p99}");
    }

    #[test]
    fn empty_histograms_expose_only_count_zero() {
        let pairs = to_stat_pairs(&[Metric::histogram("empty_hist", HistogramSnapshot::empty())]);
        assert_eq!(pairs, vec![("empty_hist_count".into(), "0".into())]);
    }

    #[test]
    fn scrape_cap_rejects_excess_connections_and_recovers() {
        let source: MetricSource = Arc::new(sample_metrics);
        let mut server = MetricsServer::spawn("127.0.0.1:0", source).unwrap();
        let addr = server.local_addr();

        // As many scrapers as there are slots connect and stall without
        // sending a request: each pins one slot until its read timeout.
        let stalled: Vec<TcpStream> = (0..MAX_CONCURRENT_SCRAPES)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.scrape_stats().active < MAX_CONCURRENT_SCRAPES {
            assert!(
                std::time::Instant::now() < deadline,
                "stalled scrapes never occupied the slots: {:?}",
                server.scrape_stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // The rejecting side closes without reading the request, which
        // can reset the connection before the 503 arrives — so reads
        // tolerate errors and callers retry on an empty reply.
        let try_fetch = || -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out
        };

        // The next scrape is refused inline, not queued behind the
        // stalled ones (which hold their slots for `SCRAPE_TIMEOUT`).
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        let reply = loop {
            let out = try_fetch();
            if !out.is_empty() {
                break out;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "never got a reply while the slots were pinned"
            );
        };
        assert!(
            reply.starts_with("HTTP/1.1 503"),
            "expected 503, got {reply:?}"
        );
        let stats = server.scrape_stats();
        assert!(stats.rejected >= 1, "stats {stats:?}");

        // Releasing the stalled connections frees the slots and normal
        // service resumes.
        drop(stalled);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let out = try_fetch();
            if out.starts_with("HTTP/1.1 200 OK") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "scrapes never recovered after the stalled clients left: {out:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(server.scrape_stats().served >= 1);
        server.stop();
    }

    #[test]
    fn trace_jsonl_schema_is_stable() {
        let t = EventTracer::new();
        t.record(TraceKind::TransitionBegin { from: 4, to: 3 });
        t.record(TraceKind::DigestBroadcast {
            server: 2,
            ok: false,
        });
        t.record(TraceKind::KeyMigrated { from: 3, to: 1 });
        t.record(TraceKind::DigestSnapshot);
        t.record(TraceKind::PowerOff { server: 3 });
        t.record(TraceKind::ControllerDecision {
            from: 4,
            to: 3,
            p99_us: 1200,
            ops: 5000,
        });
        t.record(TraceKind::KeysPulled {
            from: 3,
            to: 0,
            keys: 128,
        });
        let jsonl = trace_to_jsonl(&t.events());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 7);
        assert!(lines[0].starts_with("{\"seq\":0,\"at_ns\":"));
        assert!(lines[0].ends_with("\"kind\":\"transition_begin\",\"from\":4,\"to\":3}"));
        assert!(lines[1].ends_with("\"kind\":\"digest_broadcast\",\"server\":2,\"ok\":false}"));
        assert!(lines[2].ends_with("\"kind\":\"key_migrated\",\"from\":3,\"to\":1}"));
        assert!(lines[3].ends_with("\"kind\":\"digest_snapshot\"}"));
        assert!(lines[4].ends_with("\"kind\":\"power_off\",\"server\":3}"));
        assert!(lines[5].ends_with(
            "\"kind\":\"controller_decision\",\"from\":4,\"to\":3,\"p99_us\":1200,\"ops\":5000}"
        ));
        assert!(lines[6].ends_with("\"kind\":\"keys_pulled\",\"from\":3,\"to\":0,\"keys\":128}"));
        // Every line is self-contained JSON (no trailing commas, all
        // braces balanced) so a reader can parse line-by-line.
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "unbalanced: {line}"
            );
        }
    }

    #[test]
    fn sparse_buckets_round_trip_exactly() {
        let h = LatencyHistogram::new();
        for ns in [0u64, 5, 63, 64, 1_000, 123_456_789, 7_000_000_000] {
            h.record_nanos(ns);
        }
        let snap = h.snapshot();
        let rebuilt = HistogramSnapshot::from_sparse(
            &snap.nonzero_buckets(),
            snap.sum_nanos(),
            snap.min().unwrap().as_nanos() as u64,
            snap.max().unwrap().as_nanos() as u64,
        )
        .unwrap();
        assert_eq!(rebuilt, snap);
        // Empty snapshots round-trip too (min/max are ignored).
        let empty = HistogramSnapshot::empty();
        assert_eq!(HistogramSnapshot::from_sparse(&[], 0, 0, 0).unwrap(), empty);
        // Out-of-range bucket indices are rejected, not mis-binned.
        assert!(HistogramSnapshot::from_sparse(&[(usize::MAX, 1)], 0, 1, 1).is_none());
    }

    #[test]
    fn trace_metrics_expose_drop_counter() {
        let t = EventTracer::with_capacity(2);
        for s in 0..5u32 {
            t.record(TraceKind::Degraded { server: s });
        }
        let metrics = trace_metrics(&t);
        let get = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert!(
            matches!(
                get("proteus_trace_recorded_total").value,
                MetricValue::Counter(5)
            ),
            "recorded"
        );
        assert!(
            matches!(
                get("proteus_trace_dropped_total").value,
                MetricValue::Counter(3)
            ),
            "dropped"
        );
        assert!(
            matches!(get("proteus_trace_retained").value, MetricValue::Gauge(2)),
            "retained"
        );
    }

    #[test]
    fn traced_server_serves_trace_jsonl_with_cursor() {
        let source: MetricSource = Arc::new(sample_metrics);
        let tracer = Arc::new(EventTracer::new());
        tracer.record(TraceKind::TransitionBegin { from: 3, to: 2 });
        tracer.record(TraceKind::TransitionDrain { from: 3, to: 2 });
        tracer.record(TraceKind::PowerOff { server: 2 });
        let mut server =
            MetricsServer::spawn_traced("127.0.0.1:0", source, Arc::clone(&tracer)).unwrap();
        let addr = server.local_addr();

        let fetch = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };

        let full = fetch("/trace.jsonl");
        assert!(full.starts_with("HTTP/1.1 200 OK"), "{full}");
        assert!(full.contains("application/x-ndjson"), "{full}");
        let body = full.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(body.lines().count(), 3);
        assert!(body.lines().next().unwrap().contains("\"seq\":0"));

        // Cursor read: everything after seq 1.
        let tail = fetch("/trace.jsonl?since_seq=1");
        let body = tail.split("\r\n\r\n").nth(1).unwrap();
        assert_eq!(body.lines().count(), 1);
        assert!(body.contains("\"kind\":\"power_off\""));

        // Caught-up cursor: empty body, still 200.
        let empty = fetch("/trace.jsonl?since_seq=2");
        assert!(empty.starts_with("HTTP/1.1 200 OK"));
        assert_eq!(empty.split("\r\n\r\n").nth(1).unwrap(), "");

        // An untraced server 404s the trace path.
        server.stop();
        let source: MetricSource = Arc::new(sample_metrics);
        let mut plain = MetricsServer::spawn("127.0.0.1:0", source).unwrap();
        let addr = plain.local_addr();
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET /trace.jsonl HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 404"), "{out}");
        plain.stop();
    }

    /// The accept loop blocks in `accept` (no polling), so `stop` has
    /// to wake it: an idle server stops at once, a stopped one stays
    /// stopped, and nothing listens afterwards.
    #[test]
    fn stop_wakes_an_idle_accept_loop() {
        let source: MetricSource = Arc::new(sample_metrics);
        let mut server = MetricsServer::spawn("127.0.0.1:0", source).unwrap();
        let addr = server.local_addr();
        let begin = std::time::Instant::now();
        server.stop();
        server.stop();
        assert!(
            begin.elapsed() < Duration::from_millis(500),
            "stop took {:?}",
            begin.elapsed()
        );
        assert!(TcpStream::connect(addr).is_err(), "listener still open");
    }

    /// A scraper whose request head arrives in two segments, the blank
    /// line that ends it split between them, is served once the second
    /// lands: the head is read as it arrives, not a byte a `read`.
    #[test]
    fn a_request_head_split_across_writes_is_served() {
        let source: MetricSource = Arc::new(sample_metrics);
        let mut server = MetricsServer::spawn("127.0.0.1:0", source).unwrap();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.set_nodelay(true).unwrap();
        s.write_all(b"GET /metrics.json HTTP/1.1\r\nHost: x\r\n\r")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));
        s.write_all(b"\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let body = to_json(&sample_metrics());
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(
            out.contains(&format!("\r\nContent-Length: {}\r\n", body.len())),
            "{out}"
        );
        assert!(out.ends_with(&format!("\r\n\r\n{body}")), "{out}");
        server.stop();
    }

    #[test]
    fn metrics_server_serves_both_formats() {
        let source: MetricSource = Arc::new(sample_metrics);
        let mut server = MetricsServer::spawn("127.0.0.1:0", source).unwrap();
        let addr = server.local_addr();

        let fetch = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };

        let text = fetch("/metrics");
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("proteus_requests_total{op=\"get\"} 42"));

        let json = fetch("/metrics.json");
        assert!(json.starts_with("HTTP/1.1 200 OK"));
        assert!(json.contains("application/json"));
        assert!(json.contains("\"type\":\"counter\""));

        let missing = fetch("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        server.stop();
    }
}
