//! A minimal JSON reader for the metrics wire.
//!
//! The build environment has no serde, and the aggregator only ever
//! parses one producer's output — `proteus_obs::to_json` — so a small
//! hand-rolled reader is the honest dependency-free choice. One cursor,
//! `Reader`, tokenizes in a single linear pass: [`parse`] builds a
//! [`Json`] tree on it, and `scrape::parse_metrics` decodes a scrape
//! body on it straight into metrics, with no tree. Integers are kept as
//! `i128` (not folded into `f64`), because histogram `sum_ns` values
//! exceed 2^53 on long runs and the merge identity (aggregator merge ==
//! in-process merge, *exactly*) would silently break at the first
//! rounding.

use std::borrow::Cow;
use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fraction or exponent, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object. BTreeMap keeps iteration deterministic.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value as `&str`, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `u128`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Int(i) => u128::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen; exact only below 2^53).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Member lookup, if the value is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }
}

/// Why a parse failed. The position is a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth cap: the metrics exposition is at most 4 levels deep,
/// so anything past this is garbage (or an attack on the stack).
const MAX_DEPTH: usize = 32;

/// Parses one JSON document, requiring it to span the whole input
/// (trailing whitespace aside).
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut reader = Reader::new(input);
    reader.skip_ws();
    let value = reader.value(0)?;
    reader.finish()?;
    Ok(value)
}

/// A cursor over one JSON text: the one tokenizer behind [`parse`] and
/// the scrape decoder, which reads `to_json`'s shape straight into
/// metrics without building a [`Json`] tree.
///
/// Every method consumes exactly the bytes of what it reads, so the
/// whole text is scanned once. A string is scanned as runs between
/// escapes and comes back borrowed from the input when it has none.
/// Containers are walked with callbacks ([`members`](Self::members),
/// [`elements`](Self::elements)) that must consume one value each;
/// [`skip`](Self::skip) consumes a value the caller does not want,
/// checked exactly as [`value`](Self::value) would check it.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            at: self.pos,
            message,
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    pub(crate) fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Requires nothing but whitespace after the document.
    pub(crate) fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing data after document"))
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    /// Reads the value at the cursor, `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.members(depth, |r, key, depth| {
                    map.insert(key.into_owned(), r.value(depth)?);
                    Ok(())
                })?;
                Ok(Json::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(depth, |r, depth| {
                    items.push(r.value(depth)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Consumes the value at the cursor without keeping it: accepts and
    /// refuses exactly what [`value`](Self::value) does.
    pub(crate) fn skip(&mut self, depth: usize) -> Result<(), ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.members(depth, |r, _, depth| r.skip(depth)),
            Some(b'[') => self.elements(depth, |r, depth| r.skip(depth)),
            Some(b'"') => self.string().map(drop),
            _ => self.value(depth).map(drop),
        }
    }

    /// The string at the cursor, or `None` (the value skipped) if the
    /// value there is not a string.
    pub(crate) fn string_or_skip(
        &mut self,
        depth: usize,
    ) -> Result<Option<Cow<'a, str>>, ParseError> {
        if self.peek() == Some(b'"') {
            self.string().map(Some)
        } else {
            self.skip(depth).map(|()| None)
        }
    }

    /// The number at the cursor ([`Json::Int`] or [`Json::Float`]), or
    /// `None` (the value skipped) if the value there is not a number.
    pub(crate) fn number_or_skip(&mut self, depth: usize) -> Result<Option<Json>, ParseError> {
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            self.number().map(Some)
        } else {
            self.skip(depth).map(|()| None)
        }
    }

    fn literal(&mut self, word: &'static [u8], value: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("malformed literal"))
        }
    }

    /// Walks the object at the cursor (itself `depth` deep): `member`
    /// gets each key with the cursor on its value, and the value's
    /// depth, and must consume the value.
    pub(crate) fn members(
        &mut self,
        depth: usize,
        mut member: impl FnMut(&mut Self, Cow<'a, str>, usize) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.eat(b'{', "expected '{'")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            member(self, key, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Walks the array at the cursor (itself `depth` deep): `element`
    /// gets the cursor on each element, and its depth, and must
    /// consume it.
    pub(crate) fn elements(
        &mut self,
        depth: usize,
        mut element: impl FnMut(&mut Self, usize) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.eat(b'[', "expected '['")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// The string at the cursor, escapes decoded. The text between
    /// escapes is copied a run at a time; with no escape at all the
    /// string is borrowed from the input.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let bytes = self.text.as_bytes();
        let mut decoded: Option<String> = None;
        loop {
            let run_start = self.pos;
            // `"` and `\` are ASCII and never occur inside a multi-byte
            // UTF-8 sequence, so a run ends on a character boundary.
            let Some(run_len) = bytes[run_start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += run_len;
            let run = self
                .text
                .get(run_start..self.pos)
                .ok_or_else(|| self.err("bad utf-8"))?;
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match decoded {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = decoded.get_or_insert_with(String::new);
            out.push_str(run);
            self.pos += 1;
            let escaped = self.peek().ok_or_else(|| self.err("dangling escape"))?;
            self.pos += 1;
            match escaped {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs never occur in the metrics
                    // exposition (names and labels are ASCII); reject
                    // rather than mis-decode.
                    let c = char::from_u32(hex)
                        .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                    out.push(c);
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    /// The number at the cursor: [`Json::Int`] without a fraction or
    /// exponent, else [`Json::Float`].
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse()
                .map(Json::Float)
                .map_err(|_| self.err("bad float"))
        } else {
            text.parse()
                .map(Json::Int)
                .map_err(|_| self.err("bad integer"))
        }
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = parse(r#"{"a":[1,-2,3.5],"b":"x\ny","c":true,"d":null}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(doc.get("a").unwrap().as_array().unwrap()[1], Json::Int(-2));
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[2],
            Json::Float(3.5)
        );
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(doc.get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Json::Null));
    }

    #[test]
    fn big_integers_stay_exact() {
        // 2^64 + 5 would round in an f64 and overflow a u64; it must
        // survive intact as a u128 (histogram sums are u128 on the wire).
        let doc = parse("{\"sum_ns\":18446744073709551621}").unwrap();
        assert_eq!(
            doc.get("sum_ns").unwrap().as_u128(),
            Some(18_446_744_073_709_551_621)
        );
        assert_eq!(doc.get("sum_ns").unwrap().as_u64(), None, "out of u64");
    }

    #[test]
    fn rejects_garbage_with_positions() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert_eq!(parse(&deep).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn round_trips_the_obs_exposition() {
        use proteus_obs::{to_json, Metric};
        let json = to_json(&[
            Metric::counter("c", 7).with_label("op", "get"),
            Metric::float_gauge("g", 0.25),
        ]);
        let doc = parse(&json).unwrap();
        let items = doc.as_array().unwrap();
        assert_eq!(items[0].get("name").unwrap().as_str(), Some("c"));
        assert_eq!(
            items[0].get("labels").unwrap().get("op").unwrap().as_str(),
            Some("get")
        );
        assert_eq!(items[0].get("value").unwrap().as_u64(), Some(7));
        assert_eq!(items[1].get("value").unwrap().as_f64(), Some(0.25));
    }
}
