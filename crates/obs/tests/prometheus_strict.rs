//! `/metrics` is valid exposition text: the golden body and a live
//! `MetricsServer`'s body pass a strict reader written from the format's
//! description (`prom_text`), and the reader rejects each defect it
//! exists to catch.

mod prom_text;

use std::io::{Read as _, Write as _};
use std::sync::Arc;

use proteus_obs::{to_prometheus, HistogramSnapshot, LatencyHistogram, Metric, MetricsServer};

fn histogram(samples_ns: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::with_stripes(1);
    for &ns in samples_ns {
        h.record_nanos(ns);
    }
    h.snapshot()
}

/// A registry shaped like a server's: a labelled histogram family per
/// op, and per-class gauges interleaved class by class, so that two
/// families are split in registry order.
fn interleaved() -> Vec<Metric> {
    let mut out = vec![Metric::counter("proteus_sets_total", 9)];
    for op in ["get", "set"] {
        out.push(
            Metric::histogram(
                "proteus_command_latency_seconds",
                histogram(&[1_000, 2_000]),
            )
            .with_label("op", op),
        );
    }
    for chunk in ["64", "80"] {
        out.push(Metric::gauge("proteus_slab_class_pages", 2).with_label("chunk_size", chunk));
        out.push(Metric::gauge("proteus_slab_class_items", 5).with_label("chunk_size", chunk));
    }
    out.push(Metric::gauge("proteus_reactor_loop_connections", 1).with_label("loop", "0"));
    out.push(Metric::gauge("proteus_curr_items", 10));
    out.push(Metric::gauge("proteus_reactor_loop_connections", 0).with_label("loop", "1"));
    out.push(
        Metric::counter("proteus_odd_labels_total", 1).with_label("note", "two\nlines \"q\" \\"),
    );
    out
}

#[test]
fn the_golden_body_is_valid_exposition_text() {
    let families = prom_text::read(include_str!("golden/metrics.prom")).unwrap();
    let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "proteus_build_info",
            "proteus_get_hits_total",
            "proteus_curr_connections",
            "proteus_slab_fragmentation_ratio",
            "proteus_cluster_watts",
            "proteus_odd_labels_total",
            "proteus_command_latency_seconds",
            "proteus_unlabelled_seconds",
        ]
    );
    let odd = &families[5].samples[0];
    assert_eq!(
        odd.labels[1].1, "tab\there\nnewline\u{1}",
        "escapes read back"
    );
    assert_eq!(families[6].samples.len(), 3 * 6, "three ops under one TYPE");
}

#[test]
fn a_family_split_in_the_registry_is_grouped_under_one_type() {
    let body = to_prometheus(&interleaved());
    let families = prom_text::read(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    let shape: Vec<(&str, usize)> = families
        .iter()
        .map(|f| (f.name.as_str(), f.samples.len()))
        .collect();
    assert_eq!(
        shape,
        [
            ("proteus_sets_total", 1),
            ("proteus_command_latency_seconds", 12),
            ("proteus_slab_class_pages", 2),
            ("proteus_slab_class_items", 2),
            ("proteus_reactor_loop_connections", 2),
            ("proteus_curr_items", 1),
            ("proteus_odd_labels_total", 1),
        ],
        "first-appearance order, every series kept:\n{body}"
    );
    assert_eq!(families[6].samples[0].labels[0].1, "two\nlines \"q\" \\");
}

#[test]
fn a_live_scrape_is_valid_exposition_text() {
    let source: proteus_obs::MetricSource = Arc::new(interleaved);
    let mut server = MetricsServer::spawn("127.0.0.1:0", source).unwrap();
    let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
    write!(
        conn,
        "GET /metrics HTTP/1.1\r\nHost: proteus\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    server.stop();
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let families = prom_text::read(body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    assert_eq!(families.len(), 7);
}

#[test]
fn the_reader_rejects_what_a_strict_scraper_rejects() {
    let cases = [
        (
            "# TYPE a counter\na 1\n# TYPE a counter\na{x=\"1\"} 2\n",
            "a second TYPE line",
        ),
        (
            "# TYPE a gauge\na{l=\"0\"} 1\n# TYPE b gauge\nb 2\na{l=\"1\"} 3\n",
            "split from its family",
        ),
        (
            "# TYPE a gauge\na 1\nb 2\n# TYPE b gauge\n",
            "before its TYPE",
        ),
        ("b 2\n", "before any TYPE"),
        ("# TYPE a gauge\na{l=\"x\ny\"} 1\n", "unterminated value"),
        ("# TYPE a gauge\na{l=\"x\\ty\"} 1\n", "bad escape"),
        ("# TYPE a gauge\na{l=\"1\",l=\"2\"} 1\n", "repeated"),
        ("# TYPE a gauge\na 1\na 2\n", "a repeated series"),
        ("# TYPE a gauge\na one\n", "bad value"),
        ("# TYPE a gauge\na inf\n", "bad value"),
        ("# TYPE a gauge\na 1", "not terminated"),
        ("# TYPE a summary\na 1\n", "without quantile"),
        ("# TYPE a histogram\na_bucket 1\n", "without le"),
        ("# TYPE 1a gauge\n", "bad metric name"),
        ("# TYPE a meter\n", "unknown type"),
    ];
    for (body, why) in cases {
        let err = prom_text::read(body).expect_err(body);
        assert!(err.contains(why), "{body:?}: {err} (wanted {why:?})");
    }
    // And accepts what the format allows: comments, HELP, blank lines,
    // a timestamp, the special values, a trailing comma in a label set.
    let fine = "# HELP a the help\n# a comment\n\n# TYPE a gauge\n\
                a{l=\"v\",} +Inf 1700000000000\n# TYPE b summary\n\
                b{quantile=\"0.5\"} NaN\nb_sum 1e3\nb_count 2\n";
    let families = prom_text::read(fine).unwrap();
    assert_eq!(families[1].samples.len(), 3);
}
