//! Bounded HTTP/1.0 scrape client and metrics-wire decoding.
//!
//! The client is deliberately tiny: one GET, `Connection: close`,
//! read-to-EOF with a hard wall-clock deadline. A slow or blackholed
//! server must never stall an aggregation tick past
//! `connect_timeout + read_timeout`, because ticks over N servers run
//! concurrently but the tick barrier waits for the slowest scrape.

use std::borrow::Cow;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use proteus_obs::{HistogramSnapshot, Metric, MetricValue};

use crate::json::{self, Json, ParseError, Reader};

/// Upper bound on a scrape body. A full server exposition is a few KiB;
/// 4 MiB leaves three orders of magnitude of headroom while keeping a
/// misbehaving endpoint from exhausting aggregator memory.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// The least and the most room a scrape read is offered in the
/// response buffer.
const READ_MIN_ROOM: usize = 4 << 10;
const READ_MAX_ROOM: usize = 64 << 10;

/// Why a scrape failed.
#[derive(Debug)]
pub enum ScrapeError {
    /// Connect, read, or write failed (includes timeouts).
    Io(std::io::Error),
    /// The overall deadline elapsed before the response completed.
    DeadlineExceeded,
    /// The server answered with a non-200 status line.
    HttpStatus(String),
    /// The response had no header/body separator.
    MalformedResponse,
    /// The body exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The body was not valid metrics JSON.
    Parse(String),
}

impl std::fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScrapeError::Io(e) => write!(f, "scrape i/o error: {e}"),
            ScrapeError::DeadlineExceeded => write!(f, "scrape deadline exceeded"),
            ScrapeError::HttpStatus(line) => write!(f, "scrape got non-200 status: {line}"),
            ScrapeError::MalformedResponse => write!(f, "scrape response had no header terminator"),
            ScrapeError::BodyTooLarge => write!(f, "scrape body exceeded size cap"),
            ScrapeError::Parse(msg) => write!(f, "scrape body did not parse: {msg}"),
        }
    }
}

impl std::error::Error for ScrapeError {}

impl From<std::io::Error> for ScrapeError {
    fn from(e: std::io::Error) -> Self {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            ScrapeError::DeadlineExceeded
        } else {
            ScrapeError::Io(e)
        }
    }
}

/// Issues `GET <path>` against `addr` and returns the response body.
///
/// `connect_timeout` bounds the TCP handshake; `read_timeout` is the
/// overall response deadline — each socket read gets only the time
/// remaining, so a server that trickles one byte per second cannot
/// extend the scrape indefinitely.
///
/// # Errors
///
/// Returns a [`ScrapeError`] on connect/read failure, deadline
/// exhaustion, non-200 status, or an oversized/malformed response.
pub fn http_get(
    addr: SocketAddr,
    path: &str,
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Result<String, ScrapeError> {
    let request = build_request(path);
    let mut raw = Vec::new();
    let body = http_get_into(addr, &request, connect_timeout, read_timeout, &mut raw)?;
    Ok(String::from_utf8_lossy(&raw[body..]).into_owned())
}

/// Renders the request bytes [`http_get_into`] sends for `path`.
/// Build once per endpoint and reuse across scrapes — the request
/// never changes, so re-rendering it every tick is pure allocation
/// churn.
#[must_use]
pub fn build_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.0\r\nHost: proteus\r\nConnection: close\r\n\r\n").into_bytes()
}

/// Allocation-reusing core of [`http_get`]: sends prebuilt `request`
/// bytes, reads the full response into `raw` (cleared first, capacity
/// kept), and returns the byte offset where the body starts. On the
/// steady-state path — same endpoint, similar body size every tick —
/// this performs **zero** heap allocations once `raw` has grown to the
/// response size.
///
/// # Errors
///
/// Returns a [`ScrapeError`] on connect/read failure, deadline
/// exhaustion, non-200 status, or an oversized/malformed response.
/// `raw` holds whatever was read so far; its capacity survives either
/// way.
pub fn http_get_into(
    addr: SocketAddr,
    request: &[u8],
    connect_timeout: Duration,
    read_timeout: Duration,
    raw: &mut Vec<u8>,
) -> Result<usize, ScrapeError> {
    raw.clear();
    let mut stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
    let deadline = Instant::now() + read_timeout;
    stream.set_write_timeout(Some(read_timeout)).ok();
    stream.write_all(request)?;

    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or(ScrapeError::DeadlineExceeded)?;
        stream.set_read_timeout(Some(remaining)).ok();
        // Read straight into `raw`, with no stack buffer to copy
        // through: a kept scrape thread would hold that buffer's pages
        // for good. `raw` grows by doubling; a read is offered at least
        // `READ_MIN_ROOM` and at most `READ_MAX_ROOM` of it.
        let filled = raw.len();
        raw.reserve(READ_MIN_ROOM);
        raw.resize(raw.capacity().min(filled + READ_MAX_ROOM), 0);
        let read = stream.read(&mut raw[filled..]);
        raw.truncate(filled + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) => break,
            Ok(_) if raw.len() > MAX_BODY_BYTES => return Err(ScrapeError::BodyTooLarge),
            Ok(_) => {}
            Err(e) => return Err(e.into()),
        }
    }

    // Header/status checks run on the raw bytes: no lossy UTF-8 copy
    // of a multi-KiB body just to find "\r\n\r\n".
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(ScrapeError::MalformedResponse)?;
    let status_line = &raw[..raw.iter().position(|&b| b == b'\r').unwrap_or(header_end)];
    if !status_line.windows(5).any(|w| w == b" 200 ") {
        return Err(ScrapeError::HttpStatus(
            String::from_utf8_lossy(status_line).into_owned(),
        ));
    }
    Ok(header_end + 4)
}

/// The shortest object that decodes to a metric,
/// `{"name":"","type":"gauge","value":0}`.
const MIN_METRIC_BYTES: usize = 36;

/// Decodes a `/metrics.json` body back into [`Metric`] samples.
///
/// One linear pass over `to_json`'s array of metric objects, straight
/// into [`Metric`]s with no JSON tree in between: a member is kept only
/// if the decoder reads it, and a key or string without escapes is
/// borrowed from the body. It decodes what parsing the body with
/// [`json::parse`] and walking the tree would: a duplicated key's last
/// value wins, labels come out sorted by key, and integers stay exact
/// (`sum_ns` is a `u128`). Histograms are rebuilt losslessly from their
/// sparse buckets via [`HistogramSnapshot::from_sparse`], so merging
/// decoded snapshots across servers is bit-identical to merging
/// in-process. Entries that do not decode (unknown type, corrupt
/// buckets) are skipped rather than failing the whole scrape — one bad
/// sample should not blind the aggregator to a server's remaining
/// series.
///
/// # Errors
///
/// Returns [`ScrapeError::Parse`] when the body is not JSON, or not a
/// JSON array.
pub fn parse_metrics(body: &str) -> Result<Vec<Metric>, ScrapeError> {
    let mut reader = Reader::new(body);
    reader.skip_ws();
    if reader.peek() != Some(b'[') {
        // Name the first syntax error, as a full parse would, or the
        // shape.
        return Err(ScrapeError::Parse(match json::parse(body) {
            Err(e) => e.to_string(),
            Ok(_) => "top level is not an array".into(),
        }));
    }
    // Every metric has a `"name":` key, and a string's own quotes are
    // escaped, so this sizes the output once (a label called `name`
    // only adds room). Repeated keys cannot make a body reserve more
    // metrics than it has room to hold.
    let metrics = body.matches("\"name\":").count();
    let mut out = Vec::with_capacity(metrics.min(body.len() / MIN_METRIC_BYTES));
    let mut buckets = Vec::new();
    reader
        .elements(0, |r, depth| {
            if let Some(metric) = decode_metric(r, depth, &mut buckets)? {
                out.push(metric);
            }
            Ok(())
        })
        .and_then(|()| reader.finish())
        .map_err(|e| ScrapeError::Parse(e.to_string()))?;
    Ok(out)
}

/// The members of one metric object the decoder reads, each as its
/// last occurrence left it; `None` where that value has the wrong
/// type (or the member is absent).
#[derive(Default)]
struct Members {
    name: Option<String>,
    kind: Option<Kind>,
    /// `None` values are labels whose value is not a string.
    labels: Vec<(String, Option<String>)>,
    value: Option<Json>,
    sum_ns: Option<u128>,
    min_ns: Option<u64>,
    max_ns: Option<u64>,
    /// Whether the last `buckets` member was an array of `[index,
    /// count]` pairs, held in the caller's scratch.
    buckets: bool,
}

#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// Reads one element of the top-level array: `Ok(None)` for one that is
/// valid JSON but not a metric this decoder knows.
fn decode_metric(
    r: &mut Reader<'_>,
    depth: usize,
    buckets: &mut Vec<(usize, u64)>,
) -> Result<Option<Metric>, ParseError> {
    if r.peek() != Some(b'{') {
        return r.skip(depth).map(|()| None);
    }
    let mut m = Members::default();
    r.members(depth, |r, key, depth| {
        match &*key {
            "name" => m.name = r.string_or_skip(depth)?.map(Cow::into_owned),
            "type" => {
                m.kind = r.string_or_skip(depth)?.and_then(|t| match &*t {
                    "counter" => Some(Kind::Counter),
                    // Both integer and fractional gauges expose
                    // `"type":"gauge"`; a fractional rendering
                    // (`0.250000`) decodes as a float gauge.
                    "gauge" => Some(Kind::Gauge),
                    "histogram" => Some(Kind::Histogram),
                    _ => None,
                });
            }
            "labels" => {
                m.labels.clear();
                if r.peek() != Some(b'{') {
                    return r.skip(depth);
                }
                r.members(depth, |r, key, depth| {
                    let value = r.string_or_skip(depth)?.map(Cow::into_owned);
                    m.labels.push((key.into_owned(), value));
                    Ok(())
                })?;
            }
            "value" => m.value = r.number_or_skip(depth)?,
            "sum_ns" => m.sum_ns = r.number_or_skip(depth)?.and_then(|n| n.as_u128()),
            "min_ns" => m.min_ns = r.number_or_skip(depth)?.and_then(|n| n.as_u64()),
            "max_ns" => m.max_ns = r.number_or_skip(depth)?.and_then(|n| n.as_u64()),
            "buckets" => {
                buckets.clear();
                m.buckets = r.peek() == Some(b'[');
                if !m.buckets {
                    return r.skip(depth);
                }
                r.elements(depth, |r, depth| {
                    let pair = decode_bucket(r, depth)?;
                    match pair {
                        Some(pair) => buckets.push(pair),
                        None => m.buckets = false,
                    }
                    Ok(())
                })?;
            }
            _ => r.skip(depth)?,
        }
        Ok(())
    })?;
    Ok(m.into_metric(buckets))
}

/// Reads one `[index, count]` bucket: `Ok(None)` for a value of any
/// other shape.
fn decode_bucket(r: &mut Reader<'_>, depth: usize) -> Result<Option<(usize, u64)>, ParseError> {
    if r.peek() != Some(b'[') {
        return r.skip(depth).map(|()| None);
    }
    let mut pair = [None; 2];
    let mut len = 0;
    r.elements(depth, |r, depth| {
        let n = r.number_or_skip(depth)?.and_then(|n| n.as_u64());
        if let Some(slot) = pair.get_mut(len) {
            *slot = n;
        }
        len += 1;
        Ok(())
    })?;
    Ok(match (len, pair) {
        (2, [Some(idx), Some(count)]) => usize::try_from(idx).ok().map(|idx| (idx, count)),
        _ => None,
    })
}

impl Members {
    fn into_metric(self, buckets: &[(usize, u64)]) -> Option<Metric> {
        let name = self.name?;
        let mut labels = self.labels;
        // Sorted by key, the last of a duplicated key kept: an object's
        // members as a map holds them.
        labels.sort_by(|a, b| a.0.cmp(&b.0));
        labels.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        let labels = (labels.into_iter())
            .map(|(k, v)| Some((k, v?)))
            .collect::<Option<Vec<_>>>()?;
        let value = match self.kind? {
            Kind::Counter => MetricValue::Counter(self.value?.as_u64()?),
            Kind::Gauge => match self.value? {
                Json::Float(f) => MetricValue::FloatGauge(f),
                int => MetricValue::Gauge(int.as_i64()?),
            },
            Kind::Histogram => MetricValue::Histogram(HistogramSnapshot::from_sparse(
                self.buckets.then_some(buckets)?,
                self.sum_ns?,
                self.min_ns?,
                self.max_ns?,
            )?),
        };
        Some(Metric {
            name,
            labels,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_obs::{to_json, LatencyHistogram};

    #[test]
    fn decodes_every_metric_kind_round_trip() {
        let hist = LatencyHistogram::new();
        for us in [3_u64, 90, 90, 4000] {
            hist.record(Duration::from_micros(us));
        }
        let snap = hist.snapshot();
        let body = to_json(&[
            Metric::counter("hits", 41).with_label("op", "get"),
            Metric::gauge("conns", -2),
            Metric::float_gauge("frag", 0.125),
            Metric::histogram("lat", snap.clone()),
        ]);
        let decoded = parse_metrics(&body).unwrap();
        assert_eq!(decoded.len(), 4);
        assert_eq!(decoded[0].name, "hits");
        assert_eq!(
            decoded[0].labels,
            vec![("op".to_string(), "get".to_string())]
        );
        assert!(matches!(decoded[0].value, MetricValue::Counter(41)));
        assert!(matches!(decoded[1].value, MetricValue::Gauge(-2)));
        match decoded[2].value {
            MetricValue::FloatGauge(f) => assert!((f - 0.125).abs() < 1e-9),
            ref other => panic!("expected float gauge, got {other:?}"),
        }
        match &decoded[3].value {
            MetricValue::Histogram(rebuilt) => assert_eq!(rebuilt, &snap, "lossless transport"),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn skips_undecodable_entries_without_failing() {
        let body = r#"[
            {"name":"ok","labels":{},"type":"counter","value":1},
            {"name":"weird","labels":{},"type":"summary","value":2},
            {"name":"bad_hist","labels":{},"type":"histogram","count":1,"sum_ns":5,"min_ns":9,"max_ns":2,"quantiles_ns":{},"buckets":[[1,1]]}
        ]"#;
        let decoded = parse_metrics(body).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].name, "ok");
    }

    #[test]
    fn rejects_non_array_bodies() {
        assert!(matches!(
            parse_metrics("{\"oops\":1}"),
            Err(ScrapeError::Parse(_))
        ));
        assert!(matches!(
            parse_metrics("not json"),
            Err(ScrapeError::Parse(_))
        ));
    }

    #[test]
    fn http_get_times_out_against_a_silent_server() {
        // A bound listener that never accepts: connect succeeds (the
        // backlog takes it) but no bytes ever arrive.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let started = Instant::now();
        let result = http_get(
            addr,
            "/metrics.json",
            Duration::from_millis(500),
            Duration::from_millis(200),
        );
        assert!(matches!(result, Err(ScrapeError::DeadlineExceeded)));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline must bound the scrape"
        );
        drop(listener);
    }

    #[test]
    fn http_get_fails_fast_on_closed_port() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let result = http_get(
            addr,
            "/metrics.json",
            Duration::from_millis(500),
            Duration::from_millis(500),
        );
        assert!(result.is_err());
    }
}
