//! Byte-for-byte pins of the four exposition formats: Prometheus text
//! (`/metrics`), JSON (`/metrics.json`), the trace's JSONL
//! (`/trace.jsonl`) and the `STAT` pairs `stats proteus` sends.
//!
//! Scrapers and the aggregator parse these bytes, so a renderer may get
//! cheaper but must not change what it writes. The registry below is
//! fixed (one stripe, fixed samples, every metric kind, labels that need
//! escaping, an empty histogram, every trace kind), and the files under
//! `tests/golden/` are its rendering as it stood before the renderers
//! were rewritten to write into one buffer, except for two deliberate
//! format fixes since: `metrics.prom` writes one `# TYPE` line a family
//! and escapes a line feed in a label value, and `stats.txt` writes
//! every character of a label that is not printable ASCII as `_`.

use std::time::Duration;

use proteus_obs::{
    to_json, to_prometheus, to_stat_pairs, trace_to_jsonl, HistogramSnapshot, LatencyHistogram,
    Metric, TraceEvent, TraceKind,
};

fn histogram(samples_ns: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::with_stripes(1);
    for &ns in samples_ns {
        h.record_nanos(ns);
    }
    h.snapshot()
}

fn registry() -> Vec<Metric> {
    let ramp: Vec<u64> = (1..=200).map(|i| i * 7_919).collect();
    vec![
        Metric::gauge("proteus_build_info", 1)
            .with_label("version", "0.1.0")
            .with_label("engine", "reactor"),
        Metric::counter("proteus_get_hits_total", 123_456_789),
        Metric::gauge("proteus_curr_connections", -3),
        Metric::float_gauge("proteus_slab_fragmentation_ratio", 0.128_906_25),
        Metric::float_gauge("proteus_cluster_watts", 1_234.5),
        Metric::counter("proteus_odd_labels_total", 7)
            .with_label("path", "a\"quoted\\path\"")
            .with_label("note", "tab\there\nnewline\u{1}"),
        Metric::histogram("proteus_command_latency_seconds", histogram(&ramp))
            .with_label("op", "get"),
        Metric::histogram(
            "proteus_command_latency_seconds",
            histogram(&[
                0,
                5,
                63,
                64,
                1_000,
                123_456_789,
                7_000_000_000,
                u64::MAX / 4,
            ]),
        )
        .with_label("op", "set"),
        Metric::histogram(
            "proteus_command_latency_seconds",
            HistogramSnapshot::empty(),
        )
        .with_label("op", "delete"),
        Metric::histogram("proteus_unlabelled_seconds", histogram(&[42_000; 3])),
    ]
}

fn trace() -> Vec<TraceEvent> {
    let kinds = [
        TraceKind::ControllerDecision {
            from: 4,
            to: 3,
            p99_us: 1_200,
            ops: 5_000,
        },
        TraceKind::TransitionBegin { from: 4, to: 3 },
        TraceKind::DigestSnapshot,
        TraceKind::DigestBroadcast {
            server: 2,
            ok: false,
        },
        TraceKind::KeysPulled {
            from: 3,
            to: 0,
            keys: 128,
        },
        TraceKind::KeyMigrated { from: 3, to: 1 },
        TraceKind::MigrationSkipped { server: 3 },
        TraceKind::Degraded { server: 1 },
        TraceKind::BreakerOpen { server: 1 },
        TraceKind::BreakerProbe { server: 1 },
        TraceKind::BreakerClose { server: 1 },
        TraceKind::TransitionDrain { from: 4, to: 3 },
        TraceKind::PowerOff { server: 3 },
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent {
            seq: 40 + i as u64,
            at: Duration::from_nanos(1_000_003 * (i as u64 + 1)),
            kind,
        })
        .collect()
}

fn stat_lines(metrics: &[Metric]) -> String {
    to_stat_pairs(metrics)
        .into_iter()
        .map(|(k, v)| format!("STAT {k} {v}\r\n"))
        .collect()
}

#[test]
fn prometheus_text_is_unchanged() {
    assert_eq!(
        to_prometheus(&registry()),
        include_str!("golden/metrics.prom")
    );
}

#[test]
fn json_is_unchanged() {
    assert_eq!(to_json(&registry()), include_str!("golden/metrics.json"));
}

#[test]
fn trace_jsonl_is_unchanged() {
    assert_eq!(trace_to_jsonl(&trace()), include_str!("golden/trace.jsonl"));
    assert_eq!(trace_to_jsonl(&[]), "");
}

#[test]
fn stat_pairs_are_unchanged() {
    assert_eq!(stat_lines(&registry()), include_str!("golden/stats.txt"));
}
