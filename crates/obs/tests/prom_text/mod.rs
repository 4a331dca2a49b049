//! A strict reader of the Prometheus text exposition format (0.0.4),
//! written from the format's description, with no parsing crate:
//! <https://prometheus.io/docs/instrumenting/exposition_formats/>.
//!
//! It accepts what the format allows and rejects what a strict scraper
//! would, plus one rule of this repository's own: every sample follows
//! the `# TYPE` line of its family (the renderer types everything).
//! Rejected, each with a message naming the line:
//! - a second `# TYPE` line for a name;
//! - a family whose lines are split by another family's;
//! - a sample before its family's `# TYPE` line, or with none;
//! - a line feed inside a label value (it breaks the line in two), and
//!   any escape in a label value other than `\\`, `\"` and `\n`;
//! - a malformed name, label, value or timestamp, a repeated label,
//!   a repeated series, and a body whose last line is unterminated;
//! - a summary sample without `quantile`, a histogram bucket without
//!   `le`.
//!
//! Shared by the obs crate's own tests and the root suite's scrape of a
//! live server (`#[path]`-included there).

#![allow(dead_code)]

use std::collections::HashSet;

/// One sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// A `# TYPE` line and the samples grouped under it.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    pub name: String,
    pub kind: String,
    pub samples: Vec<Sample>,
}

/// Reads a whole exposition body.
///
/// # Errors
///
/// The first violation, with its 1-based line number.
pub fn read(body: &str) -> Result<Vec<Family>, String> {
    if !body.is_empty() && !body.ends_with('\n') {
        return Err("the last line is not terminated by a line feed".into());
    }
    let mut families: Vec<Family> = Vec::new();
    let mut typed: HashSet<String> = HashSet::new();
    let mut series: HashSet<(String, Vec<(String, String)>)> = HashSet::new();
    for (n, line) in body.lines().enumerate() {
        let at = |what: String| format!("line {}: {what}: {line:?}", n + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_ascii_whitespace();
            match words.next() {
                Some("TYPE") => {
                    let name = words
                        .next()
                        .ok_or_else(|| at("TYPE without a name".into()))?;
                    let kind = words
                        .next()
                        .ok_or_else(|| at("TYPE without a type".into()))?;
                    if words.next().is_some() {
                        return Err(at("trailing words after the type".into()));
                    }
                    if !is_metric_name(name) {
                        return Err(at(format!("bad metric name {name:?}")));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(at(format!("unknown type {kind:?}")));
                    }
                    if !typed.insert(name.to_string()) {
                        return Err(at(format!("a second TYPE line for {name}")));
                    }
                    families.push(Family {
                        name: name.into(),
                        kind: kind.into(),
                        samples: Vec::new(),
                    });
                }
                Some("HELP") => {
                    let name = words
                        .next()
                        .ok_or_else(|| at("HELP without a name".into()))?;
                    if !is_metric_name(name) {
                        return Err(at(format!("bad metric name {name:?}")));
                    }
                }
                _ => {}
            }
            continue;
        }
        let sample = parse_sample(line).map_err(at)?;
        let Some(family) = families.last_mut() else {
            return Err(at("a sample before any TYPE line".into()));
        };
        if !belongs(&sample.name, family) {
            let what = if typed.iter().any(|t| belongs(&sample.name, &family_of(t))) {
                "a sample split from its family"
            } else {
                "a sample before its TYPE line"
            };
            return Err(at(format!("{what} (current family {})", family.name)));
        }
        let label = |key: &str| sample.labels.iter().any(|(k, _)| k == key);
        if family.kind == "summary" && sample.name == family.name && !label("quantile") {
            return Err(at("a summary sample without quantile".into()));
        }
        if family.kind == "histogram" && sample.name.ends_with("_bucket") && !label("le") {
            return Err(at("a histogram bucket without le".into()));
        }
        let mut key = sample.labels.clone();
        key.sort();
        if !series.insert((sample.name.clone(), key)) {
            return Err(at("a repeated series".into()));
        }
        family.samples.push(sample);
    }
    Ok(families)
}

fn family_of(name: &str) -> Family {
    Family {
        name: name.into(),
        kind: String::new(),
        samples: Vec::new(),
    }
}

/// Whether a sample called `name` is one of `family`'s lines. A
/// summary or histogram family also owns its `_sum` and `_count`
/// series (a histogram its `_bucket` too); a name whose type is not
/// known here is matched against all of them.
fn belongs(name: &str, family: &Family) -> bool {
    let Some(rest) = name.strip_prefix(family.name.as_str()) else {
        return false;
    };
    matches!(
        (rest, family.kind.as_str()),
        ("", _) | ("_sum" | "_count", "summary" | "histogram" | "") | ("_bucket", "histogram" | "")
    )
}

fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// `name [{label="value",...}] value [timestamp]`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let name_end = line.find(['{', ' ', '\t']).ok_or("no value")?;
    let name = &line[..name_end];
    if !is_metric_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let mut rest = &line[name_end..];
    let mut labels: Vec<(String, String)> = Vec::new();
    if let Some(inner) = rest.strip_prefix('{') {
        let mut chars = inner.char_indices().peekable();
        let end = loop {
            match chars.peek() {
                Some(&(i, '}')) => break i,
                None => return Err("unterminated label set".into()),
                _ => {}
            }
            let start = chars.peek().map(|&(i, _)| i).expect("peeked");
            let mut eq = None;
            for (i, c) in chars.by_ref() {
                if c == '=' {
                    eq = Some(i);
                    break;
                }
            }
            let eq = eq.ok_or("a label without '='")?;
            let key = &inner[start..eq];
            if !is_label_name(key) {
                return Err(format!("bad label name {key:?}"));
            }
            if chars.next().map(|(_, c)| c) != Some('"') {
                return Err(format!("label {key} has no opening quote"));
            }
            let mut value = String::new();
            loop {
                match chars.next().map(|(_, c)| c) {
                    None => return Err(format!("label {key}: unterminated value")),
                    Some('"') => break,
                    Some('\\') => match chars.next().map(|(_, c)| c) {
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('n') => value.push('\n'),
                        other => return Err(format!("label {key}: bad escape \\{other:?}")),
                    },
                    Some(c) => value.push(c),
                }
            }
            if labels.iter().any(|(k, _)| k == key) {
                return Err(format!("label {key} repeated"));
            }
            labels.push((key.into(), value));
            match chars.peek() {
                Some(&(_, ',')) => {
                    chars.next();
                }
                Some(&(_, '}')) => {}
                _ => return Err(format!("label {key}: expected ',' or '}}'")),
            }
        };
        rest = &inner[end + 1..];
    }
    if !rest.starts_with([' ', '\t']) {
        return Err("no blank before the value".into());
    }
    let mut words = rest.split_ascii_whitespace();
    let value = words.next().ok_or("no value")?;
    let value = parse_value(value).ok_or_else(|| format!("bad value {value:?}"))?;
    if let Some(ts) = words.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("bad timestamp {ts:?}"))?;
    }
    if words.next().is_some() {
        return Err("trailing words after the timestamp".into());
    }
    Ok(Sample {
        name: name.into(),
        labels,
        value,
    })
}

/// A Go `ParseFloat` value: decimal or exponent notation, `NaN`,
/// `+Inf`, `-Inf` (Rust's parser also takes `inf` and `infinity`,
/// which the format does not).
fn parse_value(word: &str) -> Option<f64> {
    match word {
        "NaN" => Some(f64::NAN),
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        w if w
            .bytes()
            .all(|b| b.is_ascii_digit() || b"+-.eE".contains(&b)) =>
        {
            w.parse().ok()
        }
        _ => None,
    }
}
