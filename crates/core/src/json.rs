//! Minimal hand-rolled JSON: a value tree, a writer, and a parser.
//!
//! The query API ([`crate::query`]) renders [`AnalysisReport`](crate::query::AnalysisReport)s
//! to JSON so sweeps can be dumped for external tooling (plots, dashboards, diffing
//! across runs). The workspace builds offline against vendored crates only, so this
//! module implements the small slice of JSON the reports need by hand instead of
//! pulling in serde:
//!
//! * **Numbers round-trip.** Finite `f64`s are written with Rust's shortest-
//!   representation formatting (`{}`), which is guaranteed to parse back to the
//!   identical bits — probabilities in a report survive a JSON round trip exactly.
//! * **Non-finite policy.** JSON has no `NaN`/`Infinity` literal; [`JsonValue::number`]
//!   maps them to `null`, and the writer refuses to invent non-standard tokens.
//! * **Parser.** [`JsonValue::parse`] is a strict recursive-descent parser
//!   (objects, arrays, strings with escapes, numbers, literals) used by the
//!   round-trip tests and by the service's request lines. It is not a streaming
//!   parser; nesting is bounded by [`MAX_NESTING_DEPTH`], so its recursion
//!   cannot be driven off the stack by the input.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level and a stack overflow aborts the process (it cannot
/// be caught), so the bound has to hold before the stack does. Requests and
/// reports nest fewer than ten levels.
pub const MAX_NESTING_DEPTH: usize = 128;

/// A JSON value. Object keys keep insertion order (reports render columns in a
/// stable order); [`JsonValue::get`] is a linear scan, fine at report sizes.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` — also the encoding of every non-finite number.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Constructors must uphold finiteness; use
    /// [`JsonValue::number`] rather than building the variant directly.
    Number(f64),
    /// A string (escaped on write, unescaped on parse).
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object as an ordered key/value list.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Wraps a number, mapping non-finite values to `null` (the serialization
    /// policy for `NaN`/`±inf` — JSON has no token for them).
    pub fn number(value: f64) -> JsonValue {
        if value.is_finite() {
            JsonValue::Number(value)
        } else {
            JsonValue::Null
        }
    }

    /// Wraps an optional number (`None` and non-finite both become `null`).
    pub fn optional(value: Option<f64>) -> JsonValue {
        value.map_or(JsonValue::Null, JsonValue::number)
    }

    /// Wraps a string.
    pub fn string(value: impl Into<String>) -> JsonValue {
        JsonValue::String(value.into())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Parses a JSON document. Strict: exactly one value, nothing but whitespace
    /// around it, no trailing commas, no comments.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// The value as a single-line compact document (no whitespace) — the NDJSON
    /// writer path: a streamed record is one `to_compact_string` plus `'\n'`, so
    /// a server never buffers more than one record. Numbers keep the same
    /// shortest-round-trip formatting as the pretty writer; only whitespace
    /// differs, so `parse` reads both forms back to the identical tree.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(v) => write_number(out, *v),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_indented(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(v) => write_number(out, *v),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_indented(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_indented(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    /// Pretty-prints with two-space indentation (the style of the committed
    /// `BENCH_analysis.json`); the output is valid JSON either way.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_indented(&mut out, 0);
        f.write_str(&out)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "JsonValue::Number holds finite values");
    // Rust's Display for f64 is the shortest representation that parses back
    // to the same bits — exactly the round-trip contract.
    write!(out, "{v}").expect("writing to a String cannot fail");
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why a JSON document failed to parse: a message plus the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where it went wrong.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonValue, JsonError>,
    ) -> Result<JsonValue, JsonError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_NESTING_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        let mut seen = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(self.error(&format!("duplicate object key \"{key}\"")));
            }
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            members.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Advance over the plain (unescaped, ASCII-or-multibyte) run in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs are not produced by our writer; accept
                            // only scalar values and reject lone surrogates.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.error("non-hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
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
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.error("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_writer_round_trips_bit_exactly() {
        // Awkward doubles: subnormals, extremes, negative zero, long fractions.
        let values = [
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::MAX,
            -0.0,
            1.0 / 3.0,
            2.225_073_858_507_201e-308,
            9.869604401089358,
        ];
        let doc = JsonValue::Object(vec![
            (
                "values".to_string(),
                JsonValue::Array(values.iter().map(|&v| JsonValue::number(v)).collect()),
            ),
            ("label".to_string(), JsonValue::string("a \"quoted\"\nline")),
        ]);
        let compact = doc.to_compact_string();
        assert!(
            !compact.contains('\n') && !compact.contains(": "),
            "compact output must be one whitespace-free line: {compact}"
        );
        let reparsed = JsonValue::parse(&compact).expect("compact output parses");
        let bits: Vec<u64> = reparsed.get("values").unwrap().as_array().unwrap()[..]
            .iter()
            .map(|v| v.as_f64().unwrap().to_bits())
            .collect();
        let expected: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected, "every f64 must round-trip bit-exactly");
        // Compact and pretty forms parse to the identical tree.
        assert_eq!(reparsed, JsonValue::parse(&doc.to_string()).unwrap());
    }

    #[test]
    fn compact_writer_maps_non_finite_to_null() {
        let doc = JsonValue::Array(vec![
            JsonValue::number(f64::NAN),
            JsonValue::number(f64::INFINITY),
            JsonValue::number(f64::NEG_INFINITY),
            JsonValue::number(1.0),
        ]);
        assert_eq!(doc.to_compact_string(), "[null,null,null,1]");
    }

    #[test]
    fn compact_empty_containers() {
        assert_eq!(JsonValue::Array(vec![]).to_compact_string(), "[]");
        assert_eq!(JsonValue::Object(vec![]).to_compact_string(), "{}");
    }

    #[test]
    fn scalars_render_and_parse() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::Bool(true).to_string(), "true");
        assert_eq!(JsonValue::number(0.25).to_string(), "0.25");
        assert_eq!(JsonValue::string("hi").to_string(), "\"hi\"");
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-1.5e-3").unwrap().as_f64(), Some(-1.5e-3));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert!(JsonValue::number(f64::NAN).is_null());
        assert!(JsonValue::number(f64::INFINITY).is_null());
        assert!(JsonValue::number(f64::NEG_INFINITY).is_null());
        assert!(JsonValue::optional(None).is_null());
        assert_eq!(JsonValue::optional(Some(1.0)), JsonValue::Number(1.0));
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [
            0.1,
            1.0 / 3.0,
            0.05f64.powi(10),
            1e-300,
            -2.2250738585072014e-308,
            f64::MAX,
            0.30000000000000004,
            0.999,
            1.0 - 1e-12,
        ] {
            let rendered = JsonValue::number(v).to_string();
            let back = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {rendered} -> {back}");
        }
    }

    #[test]
    fn strings_round_trip_with_escapes() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnewline\n",
            "unicode é ✓",
            "back\\slash",
        ] {
            let rendered = JsonValue::string(s).to_string();
            assert_eq!(
                JsonValue::parse(&rendered).unwrap().as_str(),
                Some(s),
                "via {rendered}"
            );
        }
        assert_eq!(
            JsonValue::parse("\"\\u0041\\u00e9\"").unwrap().as_str(),
            Some("Aé")
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let doc = JsonValue::Object(vec![
            ("name".into(), JsonValue::string("sweep")),
            (
                "cells".into(),
                JsonValue::Array(vec![
                    JsonValue::Object(vec![
                        ("n".into(), JsonValue::number(5.0)),
                        ("p".into(), JsonValue::number(0.01)),
                        ("ess".into(), JsonValue::Null),
                    ]),
                    JsonValue::Object(vec![]),
                ]),
            ),
            ("empty".into(), JsonValue::Array(vec![])),
        ]);
        let rendered = doc.to_string();
        let parsed = JsonValue::parse(&rendered).unwrap();
        assert_eq!(parsed, doc);
        let first = &parsed.get("cells").unwrap().as_array().unwrap()[0];
        assert_eq!(first.get("p").and_then(JsonValue::as_f64), Some(0.01));
        assert!(first.get("ess").unwrap().is_null());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": 1,}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\": 1, \"a\": 2}",
            "[01x]",
            "\"\\q\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_before_the_stack_is() {
        for (open, innermost, close) in [("[", "", "]"), ("{\"k\":", "1", "}")] {
            let doc =
                |depth: usize| format!("{}{innermost}{}", open.repeat(depth), close.repeat(depth));
            assert!(JsonValue::parse(&doc(MAX_NESTING_DEPTH)).is_ok());
            let err = JsonValue::parse(&doc(MAX_NESTING_DEPTH + 1))
                .expect_err("one level past the limit");
            assert!(err.message.contains("nesting"), "{err}");
            // Unclosed and far past any stack: an error, not an abort.
            assert!(JsonValue::parse(&open.repeat(500_000)).is_err());
        }
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_finite_numbers_round_trip(bits in 0u64..u64::MAX) {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                let rendered = JsonValue::number(v).to_string();
                let back = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
                // -0.0 and 0.0 compare equal but have distinct bits; Display writes
                // "-0" for -0.0, which parses back to -0.0, so bits are preserved.
                proptest::prop_assert_eq!(v.to_bits(), back.to_bits());
            }
        }
    }
}
