//! Live telemetry for the Proteus cluster.
//!
//! The paper's whole evaluation (Section VI) rests on per-class
//! latency and hit-ratio measurements taken *during* provisioning
//! transitions. This crate is the measurement substrate that makes
//! those observations cheap enough to leave on in production:
//!
//! - [`LatencyHistogram`] — a striped log-linear histogram whose
//!   record path is lock-free and, once the octaves it records into
//!   exist, allocation-free (a handful of relaxed atomics), with
//!   mergeable [`HistogramSnapshot`]s and p50/p90/p99/p999 extraction
//!   at ~1.6% relative error.
//! - [`Counter`] / [`Gauge`] and the typed class enums [`OpClass`]
//!   (wire commands) and [`FetchClassKind`] (how a cluster fetch was
//!   satisfied: NewHit / Migrated / Database / Degraded /
//!   FalsePositive) with their fixed histogram families
//!   [`OpLatencies`] and [`FetchLatencies`], one [`ClassLatencies`].
//! - [`EventTracer`] — a bounded ring buffer of transition lifecycle
//!   events ([`TraceKind`]: begin, digest broadcast, per-key
//!   migration, drain, power-off, breaker transitions) stamped with a
//!   global sequence number and monotonic timestamps.
//! - [`Metric`] exposition: Prometheus text ([`to_prometheus`]), JSON
//!   ([`to_json`]), memcached `STAT` pairs ([`to_stat_pairs`]), and a
//!   minimal scrape endpoint ([`MetricsServer`]).
//! - Trace export: seq-stamped JSONL encoding of tracer events
//!   ([`trace_to_jsonl`]) served at `/trace.jsonl?since_seq=` by a
//!   traced [`MetricsServer`], and drop-count metrics ([`trace_metrics`]) so ring overflow is
//!   detectable rather than silent.
//!
//! The producers (server, cluster client, benches) own their atomics;
//! exposition is pull-based via closures, so the hot paths never see a
//! format string.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod export;
mod histogram;
mod tracer;

pub use counters::{
    ClassLatencies, Counter, FetchClassKind, FetchLatencies, Gauge, LatencyClass, OpClass,
    OpLatencies,
};
pub use export::{
    accept_retry_delay, to_json, to_prometheus, to_stat_pairs, trace_metrics, trace_to_jsonl,
    Metric, MetricSource, MetricValue, MetricsServer, ScrapeStats,
};
pub use histogram::{HistogramSnapshot, LatencyHistogram, Percentiles};
pub use proteus_sim::histogram::relative_error_bound;
pub use tracer::{EventTracer, TraceEvent, TraceKind};
