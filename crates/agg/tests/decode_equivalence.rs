//! The one-pass scrape decoder against the tree walk it replaced.
//!
//! `parse_metrics` reads `to_json`'s array of metrics straight into
//! `Metric`s. The oracle here is the decoder it replaced: parse the
//! body into a `Json` tree with `json::parse`, then walk the tree
//! (`decode_metric` / `decode_histogram` below, kept as they were).
//! On every input both give the same metrics, or both refuse the body.
//! A last test holds both decoders to linear time in the length of a
//! string.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use proteus_agg::json::{self, Json};
use proteus_agg::parse_metrics;
use proteus_obs::{to_json, HistogramSnapshot, LatencyHistogram, Metric, MetricValue};

/// The tree-walking decoder: `json::parse`, then one `Metric` per
/// array element that decodes.
fn oracle(body: &str) -> Result<Vec<Metric>, String> {
    let doc = json::parse(body).map_err(|e| e.to_string())?;
    let items = doc
        .as_array()
        .ok_or_else(|| "top level is not an array".to_string())?;
    Ok(items.iter().filter_map(decode_metric).collect())
}

fn decode_metric(item: &Json) -> Option<Metric> {
    let name = item.get("name")?.as_str()?.to_string();
    let mut labels = Vec::new();
    if let Some(Json::Object(map)) = item.get("labels") {
        for (k, v) in map {
            labels.push((k.clone(), v.as_str()?.to_string()));
        }
    }
    let value = match item.get("type")?.as_str()? {
        "counter" => MetricValue::Counter(item.get("value")?.as_u64()?),
        "gauge" => match item.get("value")? {
            Json::Int(_) => MetricValue::Gauge(item.get("value")?.as_i64()?),
            Json::Float(f) => MetricValue::FloatGauge(*f),
            _ => return None,
        },
        "histogram" => MetricValue::Histogram(decode_histogram(item)?),
        _ => return None,
    };
    Some(Metric {
        name,
        labels,
        value,
    })
}

fn decode_histogram(item: &Json) -> Option<HistogramSnapshot> {
    let sum_ns = item.get("sum_ns")?.as_u128()?;
    let min_ns = item.get("min_ns")?.as_u64()?;
    let max_ns = item.get("max_ns")?.as_u64()?;
    let mut pairs = Vec::new();
    for entry in item.get("buckets")?.as_array()? {
        let pair = entry.as_array()?;
        if pair.len() != 2 {
            return None;
        }
        let idx = usize::try_from(pair[0].as_u64()?).ok()?;
        pairs.push((idx, pair[1].as_u64()?));
    }
    HistogramSnapshot::from_sparse(&pairs, sum_ns, min_ns, max_ns)
}

/// Both decoders on `body`: the same metrics (compared through `Debug`,
/// since `Metric` has no `PartialEq`; equal floats print alike), or an
/// error from both with the same message.
fn agree(body: &str) -> Result<(), String> {
    let fast = parse_metrics(body).map_err(|e| e.to_string());
    let slow = oracle(body).map_err(|e| format!("scrape body did not parse: {e}"));
    match (&fast, &slow) {
        (Ok(a), Ok(b)) if format!("{a:?}") == format!("{b:?}") => Ok(()),
        (Err(a), Err(b)) if a == b => Ok(()),
        _ => Err(format!(
            "decoders disagree on {body:?}\n  one pass: {fast:?}\n tree walk: {slow:?}"
        )),
    }
}

/// Label text with what `to_json` escapes (quotes, backslashes, control
/// characters) and what it passes through (multi-byte UTF-8).
fn label_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just(' '),
            Just('"'),
            Just('\\'),
            Just('\n'),
            Just('\t'),
            Just('\u{1}'),
            Just('/'),
            Just('é'),
            Just('漢'),
            Just('😀'),
        ],
        0..10,
    )
    .prop_map(String::from_iter)
}

/// A histogram snapshot: empty, a few sparse samples, or one whose sum
/// is past 2^64 (what a long run reaches, and what a `u64` cannot hold).
fn histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        prop::collection::vec(
            prop_oneof![0u64..64, 64u64..100_000, 100_000u64..10_000_000_000],
            0..12,
        ),
        0u64..4,
    )
        .prop_map(|(samples, big)| {
            let h = LatencyHistogram::new();
            for &ns in &samples {
                h.record_nanos(ns);
            }
            let snap = h.snapshot();
            if big == 0 || snap.is_empty() {
                return snap;
            }
            let sum = u128::from(u64::MAX) * u128::from(big) + 7;
            let (min, max) = (snap.min().unwrap(), snap.max().unwrap());
            HistogramSnapshot::from_sparse(
                &snap.nonzero_buckets(),
                sum,
                min.as_nanos() as u64,
                max.as_nanos() as u64,
            )
            .expect("a snapshot's own buckets rebuild")
        })
}

fn metric() -> impl Strategy<Value = Metric> {
    let value = prop_oneof![
        any::<u64>().prop_map(MetricValue::Counter),
        any::<i64>().prop_map(MetricValue::Gauge),
        (-1.0e6f64..1.0e6).prop_map(MetricValue::FloatGauge),
        histogram().prop_map(MetricValue::Histogram),
    ];
    (
        "[a-z_]{1,12}",
        // Few key letters, so a metric often repeats a label key.
        prop::collection::vec(("[abc]{1,2}", label_text()), 0..4),
        value,
    )
        .prop_map(|(name, labels, value)| Metric {
            name,
            labels,
            value,
        })
}

fn registry() -> impl Strategy<Value = Vec<Metric>> {
    prop::collection::vec(metric(), 0..8)
}

proptest! {
    /// Whatever `to_json` renders, both decoders read alike.
    #[test]
    fn rendered_registries_decode_alike(metrics in registry()) {
        let body = to_json(&metrics);
        prop_assert!(agree(&body).is_ok(), "{}", agree(&body).unwrap_err());
        // Every metric survives; labels only reorder and deduplicate.
        prop_assert_eq!(parse_metrics(&body).unwrap().len(), metrics.len());
    }

    /// A rendered body cut short, or with one ASCII byte replaced,
    /// deleted or doubled: both decoders refuse it, or both read the
    /// same metrics out of it.
    #[test]
    fn damaged_bodies_decode_alike(
        metrics in registry(),
        cuts in prop::collection::vec((0usize..4096, 0u8..4, 0usize..16), 1..24),
    ) {
        const BYTES: &[u8] = b"\"\\{}[],:0123456789-.eE+ tfnulabx";
        let body = to_json(&metrics);
        for &(at, how, with) in &cuts {
            let at = at % (body.len() + 1);
            let mut damaged = body.clone().into_bytes();
            let ascii = damaged.get(at).is_some_and(u8::is_ascii);
            match how {
                0 => damaged.truncate(at),
                1 if ascii => damaged[at] = BYTES[with % BYTES.len()],
                2 if ascii => {
                    damaged.remove(at);
                }
                3 if ascii => damaged.insert(at, damaged[at]),
                _ => continue,
            }
            let Ok(damaged) = String::from_utf8(damaged) else {
                continue;
            };
            prop_assert!(agree(&damaged).is_ok(), "{}", agree(&damaged).unwrap_err());
        }
    }
}

/// Hand-written bodies `to_json` never renders: members reordered and
/// repeated (the last wins), labels out of order (they come out sorted),
/// wrong-typed members, elements that are no metric at all, and bodies
/// that are not an array of objects.
#[test]
fn hand_written_bodies_decode_alike() {
    let bodies = [
        r#"[{"value":3,"type":"counter","labels":{"b":"2","a":"1"},"name":"x"}]"#,
        r#"[{"name":"x","name":"y","labels":{"a":"1","a":"0"},"type":"gauge","value":1,"value":-2}]"#,
        r#"[{"name":"x","labels":{"a":5,"a":"ok"},"type":"counter","value":1}]"#,
        r#"[{"name":"x","labels":{"a":"ok","a":5},"type":"counter","value":1}]"#,
        r#"[{"name":"x","labels":{"a":"1"},"labels":7,"type":"counter","value":1}]"#,
        r#"[{"name":"x","labels":7,"labels":{"z":"1","y":"2"},"type":"counter","value":1}]"#,
        r#"[{"name":"x","labels":{},"type":"counter","type":"summary","value":1}]"#,
        r#"[{"name":"x","labels":{},"type":"summary","type":"counter","value":1}]"#,
        r#"[{"name":"x","labels":{},"type":"counter","value":-1}]"#,
        r#"[{"name":"x","labels":{},"type":"counter","value":1.5}]"#,
        r#"[{"name":"x","labels":{},"type":"counter","value":18446744073709551616}]"#,
        r#"[{"name":"x","labels":{},"type":"gauge","value":9223372036854775808}]"#,
        r#"[{"name":"x","labels":{},"type":"gauge","value":"1"}]"#,
        r#"[{"name":"x","labels":{},"type":"gauge","value":2e3}]"#,
        r#"[{"name":7,"labels":{},"type":"counter","value":1}]"#,
        r#"[{"labels":{},"type":"counter","value":1}]"#,
        r#"[{"name":"h","labels":{},"type":"histogram","count":2,"sum_ns":36893488147419103232,"min_ns":3,"max_ns":90,"buckets":[[3,1],[60,1]]}]"#,
        r#"[{"name":"h","labels":{},"type":"histogram","sum_ns":5,"min_ns":3,"max_ns":3,"buckets":[[3,1]],"buckets":[]}]"#,
        r#"[{"name":"h","labels":{},"type":"histogram","sum_ns":5,"min_ns":3,"max_ns":3,"buckets":[[3,1,1]]}]"#,
        r#"[{"name":"h","labels":{},"type":"histogram","sum_ns":5,"min_ns":3,"max_ns":3,"buckets":[[3]]}]"#,
        r#"[{"name":"h","labels":{},"type":"histogram","sum_ns":5,"min_ns":3,"max_ns":3,"buckets":[3,1]}]"#,
        r#"[{"name":"h","labels":{},"type":"histogram","sum_ns":5,"min_ns":3,"max_ns":3,"buckets":{"3":1}}]"#,
        r#"[{"name":"h","labels":{},"type":"histogram","sum_ns":-5,"min_ns":3,"max_ns":3,"buckets":[[3,1]]}]"#,
        r#"[{"name":"h","labels":{},"type":"histogram","sum_ns":5,"min_ns":9,"max_ns":3,"buckets":[[3,1]]}]"#,
        r#"[{"name":"h","labels":{},"type":"histogram","sum_ns":5,"min_ns":3,"max_ns":3,"buckets":[[99999,1]]}]"#,
        r#"[{"name":"x","extra":{"deep":[[[{"a":null}]]],"t":true},"labels":{},"type":"counter","value":1}]"#,
        r#"[1,"two",null,true,[],{},{"name":"x","labels":{},"type":"counter","value":1}]"#,
        r#"  [ { "name" : "x" , "labels" : { "k" : "vé\"" } , "type" : "counter" , "value" : 1 } ]  "#,
        r#"[]"#,
        r#"{"name":"x"}"#,
        r#""text""#,
        r#"17"#,
        r#""#,
        r#"["#,
        r#"[{"name":"x","labels":{},"type":"counter","value":1},]"#,
        r#"[{"name":"x","labels":{},"type":"counter","value":1}] trailing"#,
        r#"[{"name":"x\q","labels":{},"type":"counter","value":1}]"#,
        r#"[{"name":"\ud800","labels":{},"type":"counter","value":1}]"#,
        r#"[{"name":"x","labels":{},"type":"counter","value":1,"extra":tru}]"#,
        r#"[{"name":"x","labels":{},"type":"counter","value":-}]"#,
    ];
    for body in bodies {
        if let Err(e) = agree(body) {
            panic!("{e}");
        }
    }

    // What the map semantics mean, spelled out on two of them.
    let decoded = parse_metrics(bodies[1]).unwrap();
    assert_eq!(decoded[0].name, "y", "the last duplicate wins");
    assert_eq!(decoded[0].labels, [("a".to_string(), "0".to_string())]);
    assert!(matches!(decoded[0].value, MetricValue::Gauge(-2)));
    let decoded = parse_metrics(bodies[5]).unwrap();
    assert_eq!(
        decoded[0].labels,
        [
            ("y".to_string(), "2".to_string()),
            ("z".to_string(), "1".to_string())
        ],
        "labels come out sorted by key"
    );
    // Nesting past the parser's depth cap is refused by both, inside
    // a member the decoder would otherwise skip.
    let deep = format!(
        r#"[{{"name":"x","labels":{{}},"type":"counter","value":1,"extra":{}{}}}]"#,
        "[".repeat(40),
        "]".repeat(40)
    );
    agree(&deep).unwrap();
    assert!(parse_metrics(&deep).is_err());
}

/// A body whose one label value is a mebibyte decodes in linear time
/// through both decoders: well under a second even unoptimised. A
/// decoder that re-validates the rest of the body for every character
/// of a string takes minutes here (2.2 s at 256 KiB, optimised).
#[test]
fn a_mebibyte_label_decodes_in_linear_time() {
    // A quote every 64 characters, so the value is decoded run by run
    // between escapes rather than borrowed whole.
    let value: String = (0..(1 << 20) / 64)
        .map(|i| {
            if i % 2 == 0 {
                "a".repeat(63) + "\""
            } else {
                "é".repeat(32)
            }
        })
        .collect();
    let body = to_json(&[Metric::counter("proteus_big", 1).with_label("v", value.clone())]);
    assert!(body.len() > 1 << 20);

    let started = Instant::now();
    let decoded = parse_metrics(&body).unwrap();
    let one_pass = started.elapsed();
    assert_eq!(decoded[0].labels[0].1, value);

    let started = Instant::now();
    let tree = json::parse(&body).unwrap();
    let tree_walk = started.elapsed();
    assert_eq!(
        tree.as_array().unwrap()[0]
            .get("labels")
            .unwrap()
            .get("v")
            .unwrap()
            .as_str(),
        Some(value.as_str())
    );

    for (decoder, took) in [("parse_metrics", one_pass), ("json::parse", tree_walk)] {
        assert!(
            took < Duration::from_secs(1),
            "{decoder} took {took:?} over a {} B body",
            body.len()
        );
    }
}
