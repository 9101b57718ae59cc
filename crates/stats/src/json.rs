//! Minimal self-contained JSON reading and writing.
//!
//! The workspace builds in environments with no access to crates.io, so
//! model persistence (trained networks, registry entries) and the daemon's
//! request bodies use this small JSON module instead of an external
//! serialization framework. Floats are
//! written with Rust's shortest round-trip formatting (`{:?}`), so a
//! value → text → value trip reproduces every `f64` bit-for-bit; non-finite
//! floats are written as `null`.
//!
//! Both directions do work linear in the document. The parser copies each
//! run of a string between escapes in one step and UTF-8-validates only
//! that run, and the writer formats numbers and `\u` escapes straight into
//! its output. Request bodies reach [`Value::parse`] from the network, so
//! it refuses arrays and objects nested more than 128 deep, at the offset
//! of the first bracket past the limit, instead of recursing until the
//! thread's stack overflows.

use std::fmt::{self, Write};

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also used to encode non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// Error produced by [`Value::parse`] or the typed accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset of the error, when known.
    pub offset: Option<usize>,
}

impl JsonError {
    /// Builds an application-level error (schema mismatch, bad field), for
    /// use by callers layering typed decoding on top of [`Value`].
    pub fn custom(message: impl Into<String>) -> Self {
        Self::new(message)
    }

    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            offset: None,
        }
    }

    fn at(message: impl Into<String>, offset: usize) -> Self {
        Self {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} (at byte {o})", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at("trailing characters", pos));
        }
        Ok(value)
    }

    /// Renders the document as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }

    /// Builds a number, mapping non-finite floats to [`Value::Null`].
    pub fn num(x: f64) -> Value {
        if x.is_finite() {
            Value::Num(x)
        } else {
            Value::Null
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Object(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::new(format!("missing key {key:?}"))),
            _ => Err(JsonError::new(format!(
                "expected object while looking up {key:?}"
            ))),
        }
    }

    /// The value as a finite `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Value::Num(x) => Ok(*x),
            _ => Err(JsonError::new("expected number")),
        }
    }

    /// The value as an `f64`, decoding `null` as the given non-finite
    /// stand-in (see module docs).
    pub fn as_f64_or(&self, non_finite: f64) -> Result<f64, JsonError> {
        match self {
            Value::Null => Ok(non_finite),
            other => other.as_f64(),
        }
    }

    /// The value as a non-negative integer.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) {
            Ok(x as u64)
        } else {
            Err(JsonError::new(format!(
                "expected unsigned integer, got {x}"
            )))
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        Ok(self.as_u64()? as usize)
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(JsonError::new("expected boolean")),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(JsonError::new("expected string")),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(JsonError::new("expected array")),
        }
    }

    /// The value as a `Vec<f64>` (array of finite numbers).
    pub fn as_f64_vec(&self) -> Result<Vec<f64>, JsonError> {
        self.as_array()?.iter().map(Value::as_f64).collect()
    }

    /// Builds an array of numbers.
    pub fn from_f64s(xs: &[f64]) -> Value {
        Value::Array(xs.iter().map(|&x| Value::num(x)).collect())
    }
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) => {
            if x.is_finite() {
                // `{:?}` is Rust's shortest representation that parses back
                // to the identical f64. Writing to a `String` cannot fail.
                let _ = write!(out, "{x:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects [`Value::parse`] accepts. Parsing
/// recurses once per level, and a stack overflow aborts the process
/// rather than unwinding, so untrusted input must not choose the depth.
/// The deepest document this workspace writes nests 7 levels.
const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError::at(format!("expected {lit:?}"), *pos))
    }
}

/// Parses the value at `pos`, which `depth` arrays and objects enclose.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(JsonError::at(
            format!("arrays and objects nest deeper than {MAX_DEPTH}"),
            *pos,
        ));
    }
    match bytes.get(*pos) {
        None => Err(JsonError::at("unexpected end of input", *pos)),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(JsonError::at("expected ',' or ']'", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(members));
                    }
                    _ => return Err(JsonError::at("expected ',' or '}'", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::at("expected string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, backslash or control byte in
        // one step. The run starts and ends at ASCII bytes (or the end) of
        // text that came in as a `&str`, so it is whole UTF-8 characters;
        // validating it touches each byte once.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(bytes.len() - *pos);
        let text = std::str::from_utf8(&bytes[*pos..*pos + run])
            .map_err(|_| JsonError::at("invalid UTF-8", *pos))?;
        out.push_str(text);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err(JsonError::at("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            // JSON requires control characters inside strings escaped.
            Some(&b) if b < 0x20 => return Err(JsonError::at("unescaped control character", *pos)),
            Some(_) => {
                // The run stopped at a backslash: one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let escape = *pos;
                        let mut code = hex4(bytes, escape)?;
                        *pos += 4;
                        // A high surrogate followed by a `\u` low surrogate
                        // is one character outside the Basic Multilingual
                        // Plane (RFC 8259 §7).
                        if (0xD800..0xDC00).contains(&code) && bytes[*pos + 1..].starts_with(b"\\u")
                        {
                            let low = hex4(bytes, *pos + 2)?;
                            if (0xDC00..0xE000).contains(&low) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                *pos += 6;
                            }
                        }
                        let c = char::from_u32(code)
                            .ok_or_else(|| JsonError::at("lone surrogate", escape))?;
                        out.push(c);
                    }
                    _ => return Err(JsonError::at("bad escape", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

/// The code unit of the four hex digits after the `u` at `at`. Only ASCII
/// hex digits count: `u32::from_str_radix` would also take a sign.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let digits = bytes
        .get(at + 1..at + 5)
        .ok_or_else(|| JsonError::at("truncated \\u escape", at))?;
    digits.iter().try_fold(0, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| JsonError::at("bad \\u escape", at))?;
        Ok(code << 4 | digit)
    })
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at("invalid number", start))?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| JsonError::at(format!("invalid number {text:?}"), start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_f64_bit_pattern_tested() {
        for &x in &[
            0.0,
            -0.0,
            1.5,
            std::f64::consts::PI,
            1e-300,
            -2.225_073_858_507_201e-308,
            f64::MAX,
            f64::MIN_POSITIVE,
            0.1 + 0.2,
        ] {
            let text = Value::Num(x).to_json();
            let back = Value::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::num(f64::NAN), Value::Null);
        assert_eq!(Value::Num(f64::INFINITY).to_json(), "null");
        let v = Value::parse("null").unwrap();
        assert!(v.as_f64_or(f64::INFINITY).unwrap().is_infinite());
    }

    #[test]
    fn parses_nested_structures() {
        let text = r#"{"a": [1, 2.5, {"b": "x\ny"}], "c": true, "d": null}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("c").unwrap(), &Value::Bool(true));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[1].as_f64().unwrap(), 2.5);
        assert_eq!(a[2].get("b").unwrap().as_str().unwrap(), "x\ny");
        // Round trip.
        let again = Value::parse(&v.to_json()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in ["", "{", "[1,", "{\"a\" 1}", "tru", "1.2.3", "[1] tail"] {
            assert!(Value::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        // Each text parses to its string, and so does the writer's
        // rendering of that string.
        for (text, s) in [
            (
                r#""quote \" backslash \\ newline \n tab \t control \u0001""#,
                "quote \" backslash \\ newline \n tab \t control \u{1}",
            ),
            // Characters beyond the Basic Multilingual Plane arrive as
            // UTF-16 surrogate pairs, in either case.
            (r#""\ud83d\ude00""#, "\u{1f600}"),
            (r#""a\uD834\uDD1E\u00e9""#, "a\u{1d11e}\u{e9}"),
        ] {
            assert_eq!(Value::parse(text).unwrap().as_str().unwrap(), s, "{text}");
            let written = Value::Str(s.to_string()).to_json();
            assert_eq!(Value::parse(&written).unwrap().as_str().unwrap(), s);
        }
    }

    #[test]
    fn error_offsets_are_pinned() {
        for (text, error) in [
            (r#""abc"#, JsonError::at("unterminated string", 4)),
            ("\"\u{e9}\u{20ac}", JsonError::at("unterminated string", 6)),
            (r#"["a\qb"]"#, JsonError::at("bad escape", 4)),
            (r#"{"k":"\u12"#, JsonError::at("truncated \\u escape", 7)),
            (r#""\u12zz""#, JsonError::at("bad \\u escape", 2)),
            (r#""\u+041""#, JsonError::at("bad \\u escape", 2)),
            (r#""\ud83d""#, JsonError::at("lone surrogate", 2)),
            (r#""\ude00\ud83d""#, JsonError::at("lone surrogate", 2)),
            (r#"["x\ud83d\u0041"]"#, JsonError::at("lone surrogate", 4)),
            (
                "\"a\u{1}b\"",
                JsonError::at("unescaped control character", 2),
            ),
            (
                "{\"k\n\":1}",
                JsonError::at("unescaped control character", 3),
            ),
        ] {
            assert_eq!(Value::parse(text).unwrap_err(), error, "{text:?}");
        }
    }

    #[test]
    fn writer_bytes_are_pinned() {
        let v = Value::Object(vec![
            (
                "n".into(),
                Value::from_f64s(&[1.0, -0.0, 0.1 + 0.2, 1e-300]),
            ),
            (
                "s".into(),
                Value::Str("\"\\\n\r\t\u{0}\u{1f}/\u{7f}\u{e9}".into()),
            ),
        ]);
        assert_eq!(
            v.to_json(),
            "{\"n\":[1.0,-0.0,0.30000000000000004,1e-300],\
             \"s\":\"\\\"\\\\\\n\\r\\t\\u0000\\u001f/\u{7f}\u{e9}\"}"
        );
    }

    /// Random strings of ASCII, 2-, 3- and 4-byte characters, every escape
    /// the writer emits, and characters the reader also accepts escaped
    /// (`\/`, `\b`, `\f`, `\uXXXX`), each as a value and as a key inside
    /// nested arrays and objects.
    #[test]
    fn seeded_strings_round_trip_as_values_and_keys() {
        const PIECES: [char; 16] = [
            'a',
            'Z',
            '7',
            ' ',
            '\u{e9}',
            '\u{3a9}',
            '\u{20ac}',
            '\u{4e2d}',
            '\u{1f600}',
            '\u{1d11e}',
            '"',
            '\\',
            '/',
            '\n',
            '\u{8}',
            '\u{c}',
        ];
        let mut rng = crate::rng::Xoshiro256::seed_from(0x75F8);
        for _ in 0..200 {
            let len = rng.index(24);
            let s: String = (0..len)
                .map(|_| match rng.index(PIECES.len() + 2) {
                    i if i < PIECES.len() => PIECES[i],
                    // Any other control character, or any BMP scalar.
                    i if i == PIECES.len() => char::from_u32(rng.below(0x20) as u32).unwrap(),
                    _ => char::from_u32(rng.below(0xD800) as u32).unwrap(),
                })
                .collect();
            let doc = Value::Array(vec![
                Value::Str(s.clone()),
                Value::Object(vec![(
                    s.clone(),
                    Value::Array(vec![Value::Object(vec![(
                        s.clone(),
                        Value::Str(s.clone()),
                    )])]),
                )]),
            ]);
            let text = doc.to_json();
            assert_eq!(Value::parse(&text).unwrap(), doc, "{text:?}");

            // The same document with every character the reader accepts
            // in escaped form written that way.
            let escaped: String = s
                .chars()
                .map(|c| match c {
                    '/' => "\\/".to_string(),
                    '\u{8}' => "\\b".to_string(),
                    '\u{c}' => "\\f".to_string(),
                    '"' => "\\\"".to_string(),
                    '\\' => "\\\\".to_string(),
                    c if (c as u32) < 0x20 || ((c as u32) < 0x10000 && rng.chance(0.5)) => {
                        format!("\\u{:04X}", c as u32)
                    }
                    c => c.to_string(),
                })
                .collect();
            let text = format!(r#"["{e}",{{"{e}":[{{"{e}":"{e}"}}]}}]"#, e = escaped);
            assert_eq!(Value::parse(&text).unwrap(), doc, "{text:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_at_the_offending_bracket() {
        let arrays = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        // Objects count alike; each `{"k":` opens a level in 5 bytes.
        let objects = |levels: usize| "{\"k\":".repeat(levels) + "1" + &"}".repeat(levels);
        assert!(Value::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&objects(MAX_DEPTH)).is_ok());
        let deeper = |offset| {
            JsonError::at(
                format!("arrays and objects nest deeper than {MAX_DEPTH}"),
                offset,
            )
        };
        let errors = [
            Value::parse(&arrays(MAX_DEPTH + 1)),
            Value::parse(&objects(MAX_DEPTH + 1)),
            // An unclosed flood fails at the same bracket, however long.
            Value::parse(&"[".repeat(100_000)),
        ]
        .map(Result::unwrap_err);
        assert_eq!(
            errors,
            [deeper(MAX_DEPTH), deeper(5 * MAX_DEPTH), deeper(MAX_DEPTH)]
        );
    }
}
