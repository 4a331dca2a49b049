//! The cluster observer: periodic concurrent scrapes of every server's
//! metrics endpoint, merged into one cluster-wide view.
//!
//! Each tick connects to all known servers in parallel, each from its
//! endpoint's own long-lived scrape thread (each scrape individually
//! deadline-bounded, so one blackholed server delays a tick by at most
//! `connect_timeout + read_timeout`), decodes their
//! `/metrics.json` expositions, and merges them by `(name, labels)`:
//! counters and integer gauges sum, fractional gauges average, and
//! histograms merge bucket-by-bucket — so the cluster p99 is computed
//! from the union of every server's samples, not an average of
//! per-server percentiles. On top of the merge it derives the health
//! series the paper's evaluation watches: aggregate ops/s, hit ratio,
//! per-server load imbalance (max/mean, the DistCache metric), and the
//! active-server count, and it feeds observed utilization into a
//! [`WallEnergyMeter`] for live joules and proportionality.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use proteus_core::{PowerModel, PowerState};
use proteus_obs::{HistogramSnapshot, Metric, MetricSource, MetricValue};

use crate::energy::WallEnergyMeter;
use crate::scrape::{build_request, http_get_into, parse_metrics, ScrapeError};

/// The endpoint the observer scrapes on every server.
pub const METRICS_PATH: &str = "/metrics.json";

/// Tuning for a [`ClusterObserver`].
#[derive(Debug, Clone, Copy)]
pub struct ObserverConfig {
    /// Scrape period for the background loop ([`ClusterObserver::spawn`]).
    pub interval: Duration,
    /// TCP connect timeout per scrape.
    pub connect_timeout: Duration,
    /// Overall response deadline per scrape.
    pub read_timeout: Duration,
    /// Consecutive scrape failures after which a server's last-known
    /// metrics stop contributing to the merged view.
    pub stale_after: u32,
    /// One server's serving capacity in ops/s: the denominator for
    /// utilization and the oracle's sizing unit.
    pub server_capacity_ops: f64,
    /// Per-server power model for energy accounting.
    pub power: PowerModel,
}

impl Default for ObserverConfig {
    fn default() -> Self {
        ObserverConfig {
            interval: Duration::from_secs(1),
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(2),
            stale_after: 3,
            server_capacity_ops: 50_000.0,
            power: PowerModel::default(),
        }
    }
}

/// One server's standing in the latest cluster snapshot.
#[derive(Debug, Clone)]
pub struct ServerStatus {
    /// The server's metrics endpoint address.
    pub addr: SocketAddr,
    /// Whether the server's data is current (scraped successfully
    /// within the staleness budget).
    pub fresh: bool,
    /// Scrape failures since the last success.
    pub consecutive_failures: u32,
    /// Observed request rate over the last successful scrape interval.
    pub ops_per_sec: f64,
    /// `ops_per_sec / server_capacity_ops`, clamped to `[0, 1]`.
    pub utilization: f64,
    /// Power state as told to the observer (servers cannot report
    /// their own offness).
    pub power_state: PowerState,
}

/// One merged view of the whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// All fresh servers' metrics merged by `(name, labels)`, original
    /// per-server names preserved.
    pub merged: Vec<Metric>,
    /// Aggregate request rate across fresh servers.
    pub ops_per_sec: f64,
    /// Cluster hit ratio over this tick's counter deltas, if any
    /// lookups happened.
    pub hit_ratio: Option<f64>,
    /// Max/mean per-server request rate across fresh active servers
    /// (1.0 = perfectly balanced), if any load was observed.
    pub imbalance: Option<f64>,
    /// Servers currently powered on (including booting/draining).
    pub active_servers: usize,
    /// Per-server detail, in registration order.
    pub servers: Vec<ServerStatus>,
    /// Cluster command latency over **this window only**: the delta of
    /// successive cumulative merged `proteus_command_latency_seconds`
    /// reads, unioned across every fresh server and op. Cumulative
    /// histograms stop reflecting the present once millions of old
    /// samples dominate; a feedback controller needs the p99 of the
    /// last tick, so this is the series it steers by.
    pub window_latency: HistogramSnapshot,
}

/// The per-tick summary a feedback controller steers by.
#[derive(Debug, Clone, Copy)]
pub struct ControlSignal {
    /// Aggregate request rate across fresh servers.
    pub ops_per_sec: f64,
    /// Windowed cluster p99 command latency, or `None` when no
    /// commands landed this window (an idle cluster has no delay).
    pub p99: Option<Duration>,
    /// Samples inside the window (how trustworthy `p99` is).
    pub window_samples: u64,
    /// Servers currently powered on (including booting/draining).
    pub active_servers: usize,
    /// Powered-on servers whose scrape succeeded *this tick*. A server
    /// that did not answer keeps counting as fresh for `stale_after`
    /// ticks, but its rate reads 0 and its latency is missing from the
    /// window, so only `answered_servers == active_servers` means the
    /// signal covers the whole cluster.
    pub answered_servers: usize,
}

impl ClusterSnapshot {
    /// Collapses this snapshot to the [`ControlSignal`] a provisioning
    /// loop consumes.
    #[must_use]
    pub fn control_signal(&self) -> ControlSignal {
        ControlSignal {
            ops_per_sec: self.ops_per_sec,
            p99: self.window_latency.quantile(0.99),
            window_samples: self.window_latency.count(),
            active_servers: self.active_servers,
            answered_servers: (self.servers.iter())
                .filter(|s| s.power_state != PowerState::Off)
                .filter(|s| s.fresh && s.consecutive_failures == 0)
                .count(),
        }
    }
}

/// Cumulative counters a server carries between ticks, for rates.
#[derive(Debug, Clone, Copy, Default)]
struct OpCounters {
    ops: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct ServerEntry {
    addr: SocketAddr,
    consecutive_failures: u32,
    /// Metrics from the most recent successful scrape.
    last_metrics: Option<Vec<Metric>>,
    /// `(when, counters)` at the most recent successful scrape.
    prev: Option<(Instant, OpCounters)>,
    /// Rates computed from the last two successful scrapes.
    ops_per_sec: f64,
    hit_delta: u64,
    lookup_delta: u64,
    /// Response buffer recycled across this server's scrapes: sent to
    /// the scrape worker with each job, handed back with the outcome.
    /// Once grown to the exposition size, steady-state scrapes stop
    /// allocating for I/O entirely.
    scrape_buf: Vec<u8>,
    /// The endpoint's scrape thread, started by its first tick and
    /// kept until the observer is dropped.
    worker: Option<ScrapeWorker>,
}

/// One endpoint's scrape thread: it takes a job, scrapes into the job's
/// buffer and sends the buffer back with the outcome, job after job,
/// so a tick starts no thread.
#[derive(Debug)]
struct ScrapeWorker {
    jobs: Sender<ScrapeJob>,
    handle: JoinHandle<()>,
}

/// One scrape asked of a [`ScrapeWorker`]: the entry's index, its
/// recycled buffer, and where the tick collects the outcome.
struct ScrapeJob {
    slot: usize,
    buf: Vec<u8>,
    done: Sender<ScrapeDone>,
}

/// A finished scrape: the entry's index, its buffer (the response in
/// it) and where the body starts, or why there is none.
type ScrapeDone = (usize, Vec<u8>, Result<usize, ScrapeError>);

impl ScrapeWorker {
    fn spawn(addr: SocketAddr, config: &ObserverConfig) -> std::io::Result<ScrapeWorker> {
        let (jobs, queue) = mpsc::channel::<ScrapeJob>();
        let (connect, read) = (config.connect_timeout, config.read_timeout);
        let handle = std::thread::Builder::new()
            .name("proteus-agg-scrape".into())
            .spawn(move || {
                // The request never varies: rendered once per endpoint.
                let request = build_request(METRICS_PATH);
                for ScrapeJob {
                    slot,
                    mut buf,
                    done,
                } in queue
                {
                    let body = http_get_into(addr, &request, connect, read, &mut buf);
                    // A tick that is no longer waiting dropped its end.
                    let _ = done.send((slot, buf, body));
                }
            })?;
        Ok(ScrapeWorker { jobs, handle })
    }
}

impl ServerEntry {
    /// Hands `job` to this endpoint's scrape thread, starting one if it
    /// has none yet or its last one is gone.
    fn scrape(&mut self, job: ScrapeJob, config: &ObserverConfig) -> Result<(), ScrapeError> {
        let job = match &self.worker {
            Some(worker) => match worker.jobs.send(job) {
                Ok(()) => return Ok(()),
                Err(mpsc::SendError(job)) => job,
            },
            None => job,
        };
        if let Some(dead) = self.worker.take() {
            let _ = dead.handle.join();
        }
        let worker = ScrapeWorker::spawn(self.addr, config)?;
        let sent = worker.jobs.send(job);
        self.worker = Some(worker);
        sent.map_err(|_| ScrapeError::Parse("scrape thread exited".into()))
    }
}

#[derive(Debug)]
struct Inner {
    entries: Vec<ServerEntry>,
    meter: WallEnergyMeter,
    latest: Option<ClusterSnapshot>,
    scrapes_total: u64,
    scrape_failures_total: u64,
    /// Cumulative merged command-latency histogram as of the previous
    /// tick, the subtrahend for the windowed latency delta.
    prev_latency: Option<HistogramSnapshot>,
}

/// Scrapes every registered server on demand ([`tick`](Self::tick)) or
/// on a timer ([`spawn`](Self::spawn)), maintaining the merged
/// [`ClusterSnapshot`] and the cluster energy account.
///
/// All methods take `&self`; share the observer with `Arc` between the
/// scrape loop and the re-exposition endpoint.
#[derive(Debug)]
pub struct ClusterObserver {
    config: ObserverConfig,
    inner: Mutex<Inner>,
}

impl ClusterObserver {
    /// An observer with no servers yet.
    #[must_use]
    pub fn new(config: ObserverConfig) -> Self {
        ClusterObserver {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                meter: WallEnergyMeter::new(config.power, 0, config.server_capacity_ops),
                latest: None,
                scrapes_total: 0,
                scrape_failures_total: 0,
                prev_latency: None,
            }),
            config,
        }
    }

    /// Registers a server's metrics endpoint. Idempotent: re-adding a
    /// known address is a no-op. New servers join as
    /// [`PowerState::On`] and are scraped from the next tick.
    pub fn add_server(&self, addr: SocketAddr) {
        let mut inner = self.inner.lock();
        if inner.entries.iter().any(|e| e.addr == addr) {
            return;
        }
        inner.entries.push(ServerEntry {
            addr,
            consecutive_failures: 0,
            last_metrics: None,
            prev: None,
            ops_per_sec: 0.0,
            hit_delta: 0,
            lookup_delta: 0,
            scrape_buf: Vec::new(),
            worker: None,
        });
        inner.meter.push_server(PowerState::On);
    }

    /// Tells the observer about a server's power state (the cluster
    /// controller knows; an off server cannot say so itself). Returns
    /// whether the address was known.
    pub fn set_power_state(&self, addr: SocketAddr, state: PowerState) -> bool {
        let mut inner = self.inner.lock();
        match inner.entries.iter().position(|e| e.addr == addr) {
            Some(idx) => {
                inner.meter.set_state(idx, state);
                true
            }
            None => false,
        }
    }

    /// The most recent merged snapshot, if a tick has completed.
    #[must_use]
    pub fn latest(&self) -> Option<ClusterSnapshot> {
        self.inner.lock().latest.clone()
    }

    /// A copy of the energy account as of the latest tick.
    #[must_use]
    pub fn energy(&self) -> WallEnergyMeter {
        self.inner.lock().meter.clone()
    }

    /// Total scrape attempts and failures since construction.
    #[must_use]
    pub fn scrape_totals(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.scrapes_total, inner.scrape_failures_total)
    }

    /// Runs one aggregation round: scrape every server concurrently,
    /// fold results into the merged snapshot, and advance the energy
    /// integral. Returns the snapshot it produced.
    ///
    /// Wall-clock cost is bounded by the slowest single scrape
    /// (`connect_timeout + read_timeout`), not the sum over servers:
    /// each endpoint's scrape runs on its own long-lived thread.
    pub fn tick(&self) -> ClusterSnapshot {
        // Hand every registered server's scrape to its worker without
        // holding the lock across network I/O. A server added
        // mid-scrape is first scraped on the next tick. Each server's
        // recycled response buffer travels with its job and is handed
        // back below, so steady-state ticks reuse the same heap blocks
        // tick after tick.
        let (done, finished) = mpsc::channel();
        // Per entry, once its scrape is back: the buffer and the decode.
        type Scraped = (Vec<u8>, Result<Vec<Metric>, ScrapeError>);
        let mut results: Vec<Option<Scraped>> = {
            let mut inner = self.inner.lock();
            (inner.entries.iter_mut().enumerate())
                .map(|(slot, entry)| {
                    let buf = std::mem::take(&mut entry.scrape_buf);
                    let job = ScrapeJob {
                        slot,
                        buf,
                        done: done.clone(),
                    };
                    match entry.scrape(job, &self.config) {
                        Ok(()) => None,
                        Err(e) => Some((Vec::new(), Err(e))),
                    }
                })
                .collect()
        };
        drop(done);
        // The waiting is done in parallel — the tick is bounded by the
        // slowest server, not the sum — the decoding one body after the
        // other on this thread, each as its scrape finishes: N decoders
        // at once are a burst of CPU that, on a host shared with the
        // servers, stalls their requests for the length of the tick.
        // The loop ends when every worker has answered (or, should one
        // have died mid-job, dropped its sender).
        for (slot, buf, body) in finished {
            let result = body.and_then(|body| {
                let text = std::str::from_utf8(&buf[body..])
                    .map_err(|_| ScrapeError::Parse("body is not valid UTF-8".into()))?;
                parse_metrics(text)
            });
            results[slot] = Some((buf, result));
        }
        let now = Instant::now();

        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        // Membership only grows, so slot `i` is still the i-th entry.
        for (entry, result) in inner.entries.iter_mut().zip(results) {
            let (buf, result) = result.unwrap_or_else(|| {
                (
                    Vec::new(),
                    Err(ScrapeError::Parse("scrape thread exited".into())),
                )
            });
            entry.scrape_buf = buf;
            inner.scrapes_total += 1;
            match result {
                Ok(metrics) => {
                    let counters = extract_counters(&metrics);
                    if let Some((prev_at, prev_counters)) = entry.prev {
                        let dt = now
                            .checked_duration_since(prev_at)
                            .unwrap_or(Duration::ZERO)
                            .as_secs_f64();
                        // saturating_sub tolerates a server restart
                        // (counters reset to zero) without producing a
                        // huge negative spike.
                        let d_ops = counters.ops.saturating_sub(prev_counters.ops);
                        entry.ops_per_sec = if dt > 0.0 { d_ops as f64 / dt } else { 0.0 };
                        entry.hit_delta = counters.hits.saturating_sub(prev_counters.hits);
                        entry.lookup_delta = d_ops.min(
                            entry.hit_delta + counters.misses.saturating_sub(prev_counters.misses),
                        );
                    }
                    entry.prev = Some((now, counters));
                    entry.last_metrics = Some(metrics);
                    entry.consecutive_failures = 0;
                }
                Err(_) => {
                    inner.scrape_failures_total += 1;
                    entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
                    entry.ops_per_sec = 0.0;
                    entry.hit_delta = 0;
                    entry.lookup_delta = 0;
                }
            }
        }

        let stale_after = self.config.stale_after;
        let capacity = self.config.server_capacity_ops;
        let mut statuses = Vec::with_capacity(inner.entries.len());
        let mut utilizations = Vec::with_capacity(inner.entries.len());
        let mut merged_sources: Vec<&[Metric]> = Vec::new();
        let mut ops_per_sec = 0.0;
        let mut hit_delta = 0;
        let mut lookup_delta = 0;
        let mut active = 0;
        let mut balance_rates = Vec::new();
        for (idx, entry) in inner.entries.iter().enumerate() {
            let fresh = entry.last_metrics.is_some() && entry.consecutive_failures < stale_after;
            let power_state = inner.meter.state(idx);
            let is_active = power_state != PowerState::Off;
            if is_active {
                active += 1;
            }
            if fresh {
                merged_sources.push(entry.last_metrics.as_deref().unwrap_or(&[]));
                ops_per_sec += entry.ops_per_sec;
                hit_delta += entry.hit_delta;
                lookup_delta += entry.lookup_delta;
                if is_active {
                    balance_rates.push(entry.ops_per_sec);
                }
            }
            utilizations.push((entry.ops_per_sec / capacity).clamp(0.0, 1.0));
            statuses.push(ServerStatus {
                addr: entry.addr,
                fresh,
                consecutive_failures: entry.consecutive_failures,
                ops_per_sec: entry.ops_per_sec,
                utilization: (entry.ops_per_sec / capacity).clamp(0.0, 1.0),
                power_state,
            });
        }
        inner.meter.sample_at(now, &utilizations);

        let mean_rate = if balance_rates.is_empty() {
            0.0
        } else {
            balance_rates.iter().sum::<f64>() / balance_rates.len() as f64
        };
        let imbalance = (mean_rate > 0.0)
            .then(|| balance_rates.iter().copied().fold(0.0_f64, f64::max) / mean_rate);
        let hit_ratio =
            (lookup_delta > 0).then(|| hit_delta.min(lookup_delta) as f64 / lookup_delta as f64);

        let merged = merge_metrics(&merged_sources);
        // Union the cumulative command-latency histograms across every
        // op label, then subtract the previous tick's union: the result
        // is the latency distribution of *this window's* commands only,
        // which is what a delay-bound controller must react to.
        let mut cumulative = HistogramSnapshot::empty();
        for metric in &merged {
            if metric.name == "proteus_command_latency_seconds" {
                if let MetricValue::Histogram(h) = &metric.value {
                    cumulative.merge(h);
                }
            }
        }
        let window_latency = match &inner.prev_latency {
            Some(prev) => cumulative.saturating_delta(prev),
            None => cumulative.clone(),
        };
        inner.prev_latency = Some(cumulative);

        let snapshot = ClusterSnapshot {
            merged,
            ops_per_sec,
            hit_ratio,
            imbalance,
            active_servers: active,
            servers: statuses,
            window_latency,
        };
        inner.latest = Some(snapshot.clone());
        snapshot
    }

    /// A [`MetricSource`] re-exposing the merged cluster view under
    /// `proteus_cluster_*` names, for serving through a
    /// [`proteus_obs::MetricsServer`] of the aggregator's own.
    #[must_use]
    pub fn metric_source(self: &Arc<Self>) -> MetricSource {
        let observer = Arc::clone(self);
        Arc::new(move || observer.cluster_registry())
    }

    /// The aggregator's own exposition (see
    /// [`metric_source`](Self::metric_source)).
    fn cluster_registry(&self) -> Vec<Metric> {
        let (scrapes, failures) = self.scrape_totals();
        let meter = self.energy();
        let mut out = vec![Metric::gauge("proteus_cluster_build_info", 1)
            .with_label("version", env!("CARGO_PKG_VERSION"))];
        out.push(Metric::counter("proteus_cluster_scrapes_total", scrapes));
        out.push(Metric::counter(
            "proteus_cluster_scrape_failures_total",
            failures,
        ));
        out.push(Metric::float_gauge(
            "proteus_cluster_joules_total",
            meter.joules(),
        ));
        out.push(Metric::float_gauge(
            "proteus_cluster_oracle_joules_total",
            meter.oracle_joules(),
        ));
        out.push(Metric::float_gauge(
            "proteus_cluster_server_seconds_total",
            meter.server_seconds(),
        ));
        if let Some(w) = meter.watts() {
            out.push(Metric::float_gauge("proteus_cluster_watts", w));
        }
        if let Some(p) = meter.proportionality() {
            out.push(Metric::float_gauge("proteus_cluster_proportionality", p));
        }
        let Some(snap) = self.latest() else {
            return out;
        };
        out.push(Metric::gauge(
            "proteus_cluster_servers",
            snap.servers.len() as i64,
        ));
        out.push(Metric::gauge(
            "proteus_cluster_active_servers",
            snap.active_servers as i64,
        ));
        out.push(Metric::gauge(
            "proteus_cluster_fresh_servers",
            snap.servers.iter().filter(|s| s.fresh).count() as i64,
        ));
        out.push(Metric::float_gauge(
            "proteus_cluster_ops_per_sec",
            snap.ops_per_sec,
        ));
        if let Some(h) = snap.hit_ratio {
            out.push(Metric::float_gauge("proteus_cluster_hit_ratio", h));
        }
        if let Some(p99) = snap.window_latency.quantile(0.99) {
            out.push(Metric::float_gauge(
                "proteus_cluster_window_p99_seconds",
                p99.as_secs_f64(),
            ));
        }
        if let Some(i) = snap.imbalance {
            out.push(Metric::float_gauge("proteus_cluster_load_imbalance", i));
        }
        for status in &snap.servers {
            let addr = status.addr.to_string();
            out.push(
                Metric::gauge("proteus_cluster_server_up", i64::from(status.fresh))
                    .with_label("server", addr.clone()),
            );
            out.push(
                Metric::counter(
                    "proteus_cluster_server_consecutive_failures",
                    u64::from(status.consecutive_failures),
                )
                .with_label("server", addr.clone()),
            );
            out.push(
                Metric::float_gauge("proteus_cluster_server_ops_per_sec", status.ops_per_sec)
                    .with_label("server", addr),
            );
        }
        for metric in &snap.merged {
            // Per-server identity series do not aggregate; everything
            // else is re-exposed under the cluster namespace.
            if matches!(
                metric.name.as_str(),
                "proteus_build_info" | "proteus_uptime_seconds"
            ) {
                continue;
            }
            let renamed = metric.name.strip_prefix("proteus_").map_or_else(
                || format!("proteus_cluster_{}", metric.name),
                |rest| format!("proteus_cluster_{rest}"),
            );
            let mut m = metric.clone();
            m.name = renamed;
            out.push(m);
        }
        out
    }

    /// Starts a background loop that ticks every `config.interval`
    /// against `seeds`, returning the shared observer and its loop
    /// handle.
    #[must_use]
    pub fn spawn(config: ObserverConfig, seeds: &[SocketAddr]) -> ObserverLoop {
        let observer = Arc::new(ClusterObserver::new(config));
        for &addr in seeds {
            observer.add_server(addr);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let loop_observer = Arc::clone(&observer);
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("proteus-agg-observer".into())
            .spawn(move || {
                while !loop_stop.load(Ordering::Acquire) {
                    loop_observer.tick();
                    // Sleep in short slices so stop() returns promptly
                    // even with multi-second intervals.
                    let deadline = Instant::now() + loop_observer.config.interval;
                    while Instant::now() < deadline {
                        if loop_stop.load(Ordering::Acquire) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            })
            .expect("spawn observer thread");
        ObserverLoop {
            observer,
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for ClusterObserver {
    /// Stops and joins the scrape threads. No tick can be running (it
    /// would hold a borrow), so each one is waiting for a job and ends
    /// as soon as its queue closes.
    fn drop(&mut self) {
        for entry in self.inner.get_mut().entries.drain(..) {
            if let Some(ScrapeWorker { jobs, handle }) = entry.worker {
                drop(jobs);
                let _ = handle.join();
            }
        }
    }
}

/// Handle to a running observer loop; stops the loop when dropped.
#[derive(Debug)]
pub struct ObserverLoop {
    observer: Arc<ClusterObserver>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObserverLoop {
    /// The observer the loop drives (shareable with an exposition
    /// endpoint).
    #[must_use]
    pub fn observer(&self) -> Arc<ClusterObserver> {
        Arc::clone(&self.observer)
    }

    /// Stops the loop and joins its thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObserverLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Pulls the rate-bearing cumulative counters out of one server's
/// exposition. "Ops" is the request total the paper's load metric
/// tracks: lookups plus writes.
fn extract_counters(metrics: &[Metric]) -> OpCounters {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| match m.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .unwrap_or(0)
    };
    let hits = get("proteus_get_hits_total");
    let misses = get("proteus_get_misses_total");
    OpCounters {
        ops: hits + misses + get("proteus_sets_total") + get("proteus_deletes_total"),
        hits,
        misses,
    }
}

/// Merges any number of expositions by `(name, labels)`: counters and
/// integer gauges sum, fractional gauges average, histograms merge.
/// Mixed-type collisions keep the first-seen value.
#[must_use]
pub fn merge_metrics(sources: &[&[Metric]]) -> Vec<Metric> {
    // Key on name + sorted labels so label order never splits a series.
    type Key = (String, Vec<(String, String)>);
    let mut merged: BTreeMap<Key, (Metric, u64)> = BTreeMap::new();
    for source in sources {
        for metric in *source {
            let mut labels = metric.labels.clone();
            labels.sort();
            let key = (metric.name.clone(), labels);
            match merged.get_mut(&key) {
                None => {
                    merged.insert(key, (metric.clone(), 1));
                }
                Some((acc, n)) => {
                    *n += 1;
                    match (&mut acc.value, &metric.value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                            *a = a.saturating_add(*b);
                        }
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                            *a = a.saturating_add(*b);
                        }
                        (MetricValue::FloatGauge(a), MetricValue::FloatGauge(b)) => *a += b,
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                        _ => {}
                    }
                }
            }
        }
    }
    merged
        .into_values()
        .map(|(mut metric, n)| {
            if let MetricValue::FloatGauge(v) = &mut metric.value {
                *v /= n as f64;
            }
            metric
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_obs::LatencyHistogram;

    fn snap(durations_us: &[u64]) -> proteus_obs::HistogramSnapshot {
        let h = LatencyHistogram::new();
        for &us in durations_us {
            h.record(Duration::from_micros(us));
        }
        h.snapshot()
    }

    #[test]
    fn merge_sums_counts_and_merges_histograms() {
        let a = vec![
            Metric::counter("hits", 10),
            Metric::gauge("items", 5),
            Metric::float_gauge("frag", 0.2),
            Metric::histogram("lat", snap(&[10, 20])),
        ];
        let b = vec![
            Metric::counter("hits", 32),
            Metric::gauge("items", 7),
            Metric::float_gauge("frag", 0.4),
            Metric::histogram("lat", snap(&[30, 40])),
        ];
        let merged = merge_metrics(&[&a, &b]);
        let by_name = |name: &str| merged.iter().find(|m| m.name == name).unwrap();
        assert!(matches!(by_name("hits").value, MetricValue::Counter(42)));
        assert!(matches!(by_name("items").value, MetricValue::Gauge(12)));
        match by_name("frag").value {
            MetricValue::FloatGauge(f) => assert!((f - 0.3).abs() < 1e-9, "averaged"),
            ref other => panic!("expected float gauge, got {other:?}"),
        }
        match &by_name("lat").value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count(), 4);
                let mut oracle = snap(&[10, 20]);
                oracle.merge(&snap(&[30, 40]));
                assert_eq!(h, &oracle, "merge must equal in-process merge");
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn merge_keys_on_labels_regardless_of_order() {
        let a = vec![Metric::counter("c", 1)
            .with_label("x", "1")
            .with_label("y", "2")];
        let b = vec![Metric::counter("c", 2)
            .with_label("y", "2")
            .with_label("x", "1")];
        let c = vec![Metric::counter("c", 100).with_label("x", "other")];
        let merged = merge_metrics(&[&a, &b, &c]);
        assert_eq!(merged.len(), 2, "same labels fold, different stay apart");
        let total: u64 = merged
            .iter()
            .filter_map(|m| match m.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum();
        assert_eq!(total, 103);
    }

    #[test]
    fn membership_and_power_state_bookkeeping() {
        let observer = ClusterObserver::new(ObserverConfig::default());
        let a: SocketAddr = "127.0.0.1:11511".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:11512".parse().unwrap();
        observer.add_server(a);
        observer.add_server(a); // idempotent
        observer.add_server(b);
        let servers: Vec<SocketAddr> = observer
            .inner
            .lock()
            .entries
            .iter()
            .map(|e| e.addr)
            .collect();
        assert_eq!(servers, vec![a, b]);
        assert!(observer.set_power_state(b, PowerState::Draining));
        assert!(!observer.set_power_state("127.0.0.1:1".parse().unwrap(), PowerState::Off));
        assert_eq!(observer.energy().state(1), PowerState::Draining);
    }

    #[test]
    fn tick_against_no_servers_yields_empty_snapshot() {
        let observer = ClusterObserver::new(ObserverConfig::default());
        let snap = observer.tick();
        assert!(snap.merged.is_empty());
        assert_eq!(snap.active_servers, 0);
        assert_eq!(snap.ops_per_sec, 0.0);
        assert_eq!(snap.hit_ratio, None);
        assert_eq!(snap.imbalance, None);
        assert!(observer.latest().is_some());
    }

    #[test]
    fn windowed_latency_isolates_each_ticks_samples() {
        use proteus_obs::MetricsServer;
        let hist = std::sync::Arc::new(LatencyHistogram::new());
        let source_hist = std::sync::Arc::clone(&hist);
        let source: proteus_obs::MetricSource = std::sync::Arc::new(move || {
            vec![
                Metric::histogram("proteus_command_latency_seconds", source_hist.snapshot())
                    .with_label("op", "get"),
            ]
        });
        let server = MetricsServer::spawn("127.0.0.1:0", source).unwrap();
        let observer = ClusterObserver::new(ObserverConfig::default());
        observer.add_server(server.local_addr());

        for _ in 0..100 {
            hist.record(Duration::from_micros(500));
        }
        let first = observer.tick();
        assert_eq!(first.window_latency.count(), 100);
        let signal = first.control_signal();
        assert_eq!(signal.window_samples, 100);
        assert!(signal.p99.unwrap() < Duration::from_millis(5));

        // The next window's samples are two orders of magnitude slower;
        // a cumulative p99 would still be dominated by the fast cohort,
        // the windowed one must see only the slow samples.
        for _ in 0..50 {
            hist.record(Duration::from_millis(80));
        }
        let second = observer.tick();
        assert_eq!(second.window_latency.count(), 50);
        let p99 = second.control_signal().p99.unwrap();
        assert!(
            p99 >= Duration::from_millis(60),
            "windowed p99 {p99:?} must reflect the slow cohort"
        );

        // An idle window has no delay signal at all.
        let third = observer.tick();
        assert_eq!(third.window_latency.count(), 0);
        assert_eq!(third.control_signal().p99, None);
        drop(server);
    }

    #[test]
    fn unreachable_server_counts_failures_and_goes_stale() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dead = listener.local_addr().unwrap();
        drop(listener);
        let config = ObserverConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(200),
            stale_after: 2,
            ..ObserverConfig::default()
        };
        let observer = ClusterObserver::new(config);
        observer.add_server(dead);
        for expected_failures in 1..=3 {
            let snap = observer.tick();
            let status = &snap.servers[0];
            assert_eq!(status.consecutive_failures, expected_failures);
            assert!(!status.fresh, "no successful scrape ever");
        }
        let (scrapes, failures) = observer.scrape_totals();
        assert_eq!(scrapes, 3);
        assert_eq!(failures, 3);
    }
}
