//! A minimal JSON value type with a writer and a strict parser.
//!
//! The build environment is fully offline (no serde), and the bench
//! suite needs exactly one interchange format: the schema-versioned
//! `BENCH_*.json` perf trajectory that CI diffs against a checked-in
//! baseline. This module is the smallest JSON kernel that supports that
//! round trip:
//!
//! * numbers are written with Rust's shortest-round-trip `Display` for
//!   `f64` (integers stay integral), so `write → parse` reproduces every
//!   stored value **bit for bit** — the property the baseline's
//!   certainty-drift check rests on;
//! * objects preserve insertion order (they are association lists, not
//!   maps), so emitted files are deterministic and diff cleanly;
//! * the parser accepts exactly the constructs the writer emits (RFC
//!   8259 minus unicode escapes beyond `\uXXXX`, with no trailing
//!   garbage), and reports byte offsets on error.

use std::fmt;

/// A JSON value. Objects are ordered association lists.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (integers round-trip exactly up to 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number from a `u64` (exact up to 2⁵³, plenty for the
    /// suite's counters).
    pub fn num_u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline — the
    /// checked-in-baseline format (stable under `git diff`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    debug_assert!(n.is_finite(), "JSON has no NaN/∞");
    // Rust's `Display` for f64 is shortest-round-trip and never uses
    // scientific notation, both of which RFC 8259 parsers accept.
    use fmt::Write;
    write!(out, "{n}").expect("write to String");
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (no trailing non-whitespace).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("non-UTF-8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Basic-plane only: the writer never emits
                            // surrogate pairs (it writes raw UTF-8).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // slicing at char boundaries is safe via chars()).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number characters");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

// ---------------------------------------------------------------------
// BENCH document fields
// ---------------------------------------------------------------------

/// Parses a `BENCH_*.json` document and checks its header: the schema
/// name, a version no newer than this binary's, and a `kind` that is
/// one of `kinds`. Returns the document, its version, and its kind.
pub(crate) fn parse_document(text: &str, kinds: &[&str]) -> Result<(Json, u64, String), String> {
    use crate::suite::{SCHEMA_NAME, SCHEMA_VERSION};
    let doc = parse(text).map_err(|e| e.to_string())?;
    let schema = req_str(&doc, "schema")?;
    if schema != SCHEMA_NAME {
        return Err(format!("unknown schema `{schema}` (expected `{SCHEMA_NAME}`)"));
    }
    let schema_version = req_u64(&doc, "schema_version")?;
    if schema_version > SCHEMA_VERSION {
        return Err(format!(
            "schema version {schema_version} is newer than this binary's {SCHEMA_VERSION}"
        ));
    }
    let kind = req_str(&doc, "kind")?;
    if !kinds.contains(&kind.as_str()) {
        return Err(format!("document kind `{kind}` is not a {} report", kinds.join("/")));
    }
    Ok((doc, schema_version, kind))
}

/// The object field `key`, or an error naming it.
pub(crate) fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

/// The string field `key`.
pub(crate) fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// The integer field `key`.
pub(crate) fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer field `{key}`"))
}

/// The number field `key`.
pub(crate) fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing number field `{key}`"))
}

/// The array field `key`.
pub(crate) fn req_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing array field `{key}`"))
}

/// The array-of-numbers field `key`.
pub(crate) fn req_f64_arr(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    req_arr(v, key)?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| format!("`{key}`: expected numbers")))
        .collect()
}

/// A counter block (`as_pairs` names in order) as a JSON object.
pub(crate) fn counters_to_json(pairs: &[(String, u64)]) -> Json {
    Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), Json::num_u64(*v))).collect())
}

/// Parses a counter block written by [`counters_to_json`]; `what` names
/// the block in errors.
pub(crate) fn counters_from_json(v: &Json, what: &str) -> Result<Vec<(String, u64)>, String> {
    match v {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("{what}.{k}: expected a counter"))
            })
            .collect(),
        _ => Err(format!("{what}: expected an object")),
    }
}

/// A static-name counter block (`as_pairs` output) with owned names.
pub(crate) fn pairs(p: &[(&'static str, u64)]) -> Vec<(String, u64)> {
    p.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let doc = Json::obj([
            ("name", Json::str("bench")),
            ("n", Json::num_u64(42)),
            ("pi", Json::Num(0.1 + 0.2)),
            ("neg", Json::Num(-1.5e-7)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("items", Json::Arr(vec![Json::num_u64(1), Json::str("two"), Json::Arr(vec![])])),
            ("empty", Json::obj([] as [(&str, Json); 0])),
        ]);
        let text = doc.pretty();
        let back = parse(&text).expect("parse own output");
        assert_eq!(back, doc);
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        for bits in [0.1f64, 1.0 / 3.0, 2f64.powi(-40), 123456789.12345679, 0.0, 1e300, -3.5e-12] {
            let text = Json::Num(bits).pretty();
            let back = parse(&text).expect("number parses");
            assert_eq!(back.as_f64().unwrap().to_bits(), bits.to_bits(), "{text}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quoted\" back\\slash tab\t control\u{1} ünïcode";
        let text = Json::str(s).pretty();
        assert_eq!(parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn object_lookup_and_accessors() {
        let doc = parse("{\"a\": 3, \"b\": [\"x\"], \"c\": 2.5}").unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("b").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(doc.get("c").and_then(Json::as_u64), None, "2.5 is not integral");
        assert_eq!(doc.get("missing"), None);
    }
}
