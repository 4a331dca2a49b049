//! Parsing the real Wikipedia access trace (Urdaneta et al.,
//! "Wikipedia workload analysis for decentralized hosting").
//!
//! The paper drives its load-balancing and Bloom-filter experiments
//! with this trace ("the trace contains timestamp and requested URL
//! for every single user request", and the authors "first do some
//! preliminaries to distill the requests that hit English Wikipedia").
//! The trace itself is not redistributable here, but this module
//! implements the same distillation so the real file drops in:
//!
//! ```text
//! <counter> <epoch-seconds.millis> <url> <save-flag>
//! 4619 1194892306.002 http://en.wikipedia.org/wiki/Main_Page -
//! ```
//!
//! [`parse_line`] extracts the page title from article URLs
//! (`/wiki/Title` and `/w/index.php?title=Title` forms) on a chosen
//! host, skipping non-article namespaces and media; [`distill`] turns
//! a whole file into a time-rebased [`Trace`] with stable title→page-id
//! hashing, optionally compressing time (this reproduction runs a
//! 60:1-compressed day).

use std::collections::HashMap;
use std::io::{self, BufRead};

use proteus_sim::{SimDuration, SimTime};

use crate::trace::{Trace, TraceRecord};

/// One parsed article request.
#[derive(Debug, Clone, PartialEq)]
pub struct WikiRequest {
    /// Seconds since the Unix epoch (fractional).
    pub epoch_secs: f64,
    /// The decoded article title (URL percent-decoding applied).
    pub title: String,
}

/// Namespace prefixes that are not article pages; the paper's
/// experiments (and ours) serve articles only.
const SKIPPED_PREFIXES: [&str; 10] = [
    "Special:",
    "Image:",
    "File:",
    "User:",
    "Talk:",
    "Wikipedia:",
    "Template:",
    "Category:",
    "Help:",
    "MediaWiki:",
];

/// Parses one wikibench trace line, returning the article request if
/// the line is a well-formed page view on `host` (e.g.
/// `"en.wikipedia.org"`), or `None` for anything else (other hosts,
/// media, non-article namespaces, malformed lines).
///
/// # Example
///
/// ```
/// use proteus_workload::wikipedia::parse_line;
/// let line = "4619 1194892306.002 http://en.wikipedia.org/wiki/Main_Page -";
/// let req = parse_line(line, "en.wikipedia.org").unwrap();
/// assert_eq!(req.title, "Main_Page");
/// assert!((req.epoch_secs - 1194892306.002).abs() < 1e-9);
/// ```
#[must_use]
pub fn parse_line(line: &str, host: &str) -> Option<WikiRequest> {
    let mut fields = line.split_ascii_whitespace();
    let _counter = fields.next()?;
    let epoch_secs: f64 = fields.next()?.parse().ok()?;
    if !epoch_secs.is_finite() || epoch_secs < 0.0 {
        return None;
    }
    let url = fields.next()?;
    let title = page_title(url, host)?;
    Some(WikiRequest { epoch_secs, title })
}

/// Extracts the article title from a Wikipedia URL on `host`.
fn page_title(url: &str, host: &str) -> Option<String> {
    let rest = url
        .strip_prefix("http://")
        .or_else(|| url.strip_prefix("https://"))?;
    let path = rest.strip_prefix(host)?;
    let raw = if let Some(wiki) = path.strip_prefix("/wiki/") {
        wiki.split(['?', '#']).next()?
    } else if let Some(q) = path.strip_prefix("/w/index.php?") {
        q.split('&')
            .find_map(|kv| kv.strip_prefix("title="))?
            .split('#')
            .next()?
    } else {
        return None;
    };
    if raw.is_empty() {
        return None;
    }
    let decoded = percent_decode(raw)?;
    if SKIPPED_PREFIXES.iter().any(|p| decoded.starts_with(p)) {
        return None;
    }
    Some(decoded)
}

/// Minimal percent-decoding (the trace percent-encodes non-ASCII
/// titles). Returns `None` on malformed escapes.
fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 2 > bytes.len() {
                return None;
            }
            let hex = s.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Statistics from one distillation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistillStats {
    /// Lines read.
    pub lines: u64,
    /// Article requests kept.
    pub kept: u64,
    /// Lines skipped (other hosts, media, malformed, namespaces).
    pub skipped: u64,
    /// Distinct article titles seen.
    pub distinct_titles: u64,
}

/// Distills a wikibench trace stream into a [`Trace`]: keeps article
/// views on `host`, rebases time to the first kept request, compresses
/// time by `compression` (the reproduction's experiments run 60:1),
/// and assigns stable page IDs in order of first appearance.
///
/// Returns the trace, the title table (page id − 1 indexes it), and
/// the pass statistics.
///
/// # Errors
///
/// Propagates I/O errors from the reader; malformed lines are skipped
/// and counted, not fatal (real traces contain noise).
pub fn distill<R: BufRead>(
    reader: R,
    host: &str,
    compression: f64,
) -> io::Result<(Trace, Vec<String>, DistillStats)> {
    assert!(
        compression.is_finite() && compression >= 1.0,
        "compression must be >= 1"
    );
    let mut stats = DistillStats::default();
    let mut titles: Vec<String> = Vec::new();
    let mut ids: HashMap<String, u64> = HashMap::new();
    let mut records = Vec::new();
    let mut origin: Option<f64> = None;
    for line in reader.lines() {
        let line = line?;
        stats.lines += 1;
        let Some(req) = parse_line(&line, host) else {
            stats.skipped += 1;
            continue;
        };
        stats.kept += 1;
        let origin = *origin.get_or_insert(req.epoch_secs);
        let rel = ((req.epoch_secs - origin) / compression).max(0.0);
        let page = *ids.entry(req.title.clone()).or_insert_with(|| {
            titles.push(req.title.clone());
            titles.len() as u64
        });
        records.push(TraceRecord {
            at: SimTime::ZERO + SimDuration::from_secs_f64(rel),
            page,
        });
    }
    stats.distinct_titles = titles.len() as u64;
    Ok((Trace::from_records(records), titles, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOST: &str = "en.wikipedia.org";

    #[test]
    fn parses_wiki_path_urls() {
        let req = parse_line(
            "1 1194892306.002 http://en.wikipedia.org/wiki/Consistent_hashing -",
            HOST,
        )
        .unwrap();
        assert_eq!(req.title, "Consistent_hashing");
    }

    #[test]
    fn parses_index_php_urls() {
        let req = parse_line(
            "2 1194892306.500 http://en.wikipedia.org/w/index.php?title=Memcached&action=view -",
            HOST,
        )
        .unwrap();
        assert_eq!(req.title, "Memcached");
    }

    #[test]
    fn strips_query_and_fragment() {
        let req = parse_line(
            "3 1.0 http://en.wikipedia.org/wiki/Cache?useskin=modern#History -",
            HOST,
        )
        .unwrap();
        assert_eq!(req.title, "Cache");
    }

    #[test]
    fn decodes_percent_escapes() {
        let req = parse_line("4 1.0 http://en.wikipedia.org/wiki/Z%C3%BCrich -", HOST).unwrap();
        assert_eq!(req.title, "Zürich");
    }

    #[test]
    fn skips_other_hosts_and_media() {
        for line in [
            "5 1.0 http://de.wikipedia.org/wiki/Berlin -",
            "6 1.0 http://upload.wikimedia.org/wikipedia/commons/a/ab/X.jpg -",
            "7 1.0 http://en.wikipedia.org/wiki/Image:Foo.png -",
            "8 1.0 http://en.wikipedia.org/wiki/Special:Random -",
            "9 1.0 http://en.wikipedia.org/wiki/User:Someone -",
            "10 1.0 http://en.wikipedia.org/robots.txt -",
        ] {
            assert_eq!(parse_line(line, HOST), None, "should skip: {line}");
        }
    }

    #[test]
    fn tolerates_malformed_lines() {
        for line in [
            "",
            "not a trace line",
            "1 not-a-time http://en.wikipedia.org/wiki/X -",
            "1 -5.0 http://en.wikipedia.org/wiki/X -",
            "1 1.0 http://en.wikipedia.org/wiki/Bad%ZZescape -",
            "1 1.0 http://en.wikipedia.org/wiki/ -",
        ] {
            assert_eq!(parse_line(line, HOST), None, "should reject: {line}");
        }
    }

    #[test]
    fn distill_rebases_compresses_and_numbers_pages() {
        let input = "\
1 1000.000 http://en.wikipedia.org/wiki/Alpha -
2 1030.000 http://en.wikipedia.org/wiki/Beta -
3 1030.000 http://de.wikipedia.org/wiki/Gamma -
4 1060.000 http://en.wikipedia.org/wiki/Alpha -
";
        let (trace, titles, stats) = distill(input.as_bytes(), HOST, 60.0).unwrap();
        assert_eq!(stats.lines, 4);
        assert_eq!(stats.kept, 3);
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.distinct_titles, 2);
        assert_eq!(titles, vec!["Alpha".to_string(), "Beta".to_string()]);
        let recs = trace.records();
        assert_eq!(recs.len(), 3);
        // 60:1 compression: 30 s gaps become 0.5 s.
        assert_eq!(recs[0].at, SimTime::ZERO);
        assert_eq!(recs[1].at, SimTime::ZERO + SimDuration::from_millis(500));
        assert_eq!(recs[2].at, SimTime::ZERO + SimDuration::from_secs(1));
        // Alpha got id 1 on first appearance and keeps it.
        assert_eq!(recs[0].page, 1);
        assert_eq!(recs[1].page, 2);
        assert_eq!(recs[2].page, 1);
    }

    #[test]
    fn distilled_trace_feeds_requests_per_slot() {
        let input = "\
1 0.0 http://en.wikipedia.org/wiki/A -
2 10.0 http://en.wikipedia.org/wiki/B -
3 20.0 http://en.wikipedia.org/wiki/C -
";
        let (trace, _, _) = distill(input.as_bytes(), HOST, 1.0).unwrap();
        let counts = trace.requests_per_slot(SimDuration::from_secs(10), 3);
        assert_eq!(counts, vec![1, 1, 1]);
    }

    #[test]
    fn percent_decode_edge_cases() {
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert_eq!(percent_decode("a%20b").unwrap(), "a b");
        assert_eq!(percent_decode("%"), None);
        assert_eq!(percent_decode("%1"), None);
        assert_eq!(percent_decode("%GG"), None);
    }
}
