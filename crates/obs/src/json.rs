//! A tiny, dependency-free JSON value, parser, and serializer.
//!
//! This module is the canonical JSON layer of the whole stack: the serve
//! protocol speaks it (re-exported as `sibia_serve::Json`), the metrics
//! registry serializes snapshots with it, and the span tracer emits Chrome
//! `trace_event` lines through it — one serializer, one set of guarantees.
//!
//! Its consumers need exactly three guarantees, none of which require an
//! external crate:
//!
//! 1. **Canonical serialization** — object members serialize in insertion
//!    order and floats use Rust's shortest round-trip formatting, so the
//!    same value always produces the same bytes. The byte-identical
//!    served-vs-library acceptance test rests on this.
//! 2. **Lossless numbers** — integer literals parse as `i64` (cycle and
//!    event counts), everything else as `f64`; a parse → serialize round
//!    trip reproduces the input number text.
//! 3. **Bounded, total parsing** — malformed input yields a positioned
//!    [`JsonError`], never a panic, so one bad client line cannot take a
//!    connection handler down.
//!
//! Each scalar has one formatting, in one public writer: [`write_str`]
//! (escaped), [`write_i64`] and [`write_f64`] (shortest round trip,
//! non-finite as `null`). [`Json::write_to`] calls them, and so do the
//! writers that emit a document without building a tree first, such as
//! `sibia_sim::jsonio`'s result writer.
//!
//! A served `simulate` answer is 3–35 KB of it, so both directions take
//! fast paths: the parser copies a string's unescaped run as one slice,
//! accumulates an integer's digits as it scans them, and keeps the members
//! and items of the objects and arrays it is inside on two parser-owned
//! stacks, so each finished object or array is one `Vec` of exact size;
//! the writers put numbers and unescaped runs straight into their output.
//! The tests compare both with the former char-at-a-time codec.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
///
/// Objects preserve member insertion order (a `Vec` of pairs, not a map):
/// serialization is canonical and `parse(s).to_string() == s` holds for
/// compact canonical input.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in member insertion order.
    Object(Vec<(String, Json)>),
}

/// A positioned parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            members: Vec::new(),
            items: Vec::new(),
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Looks up an object member by key; `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64` (integers only; floats are not truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `f64` (both numeric variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's member slice, in insertion order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Appends the canonical serialization (compact, insertion order,
    /// shortest floats) to `out`: the bytes of `to_string()`, without its
    /// intermediate copy. Response writers build a whole line this way.
    pub fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => write_i64(*n, out),
            Json::Float(x) => write_f64(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_to(&mut s);
        f.write_str(&s)
    }
}

impl From<f64> for Json {
    /// Floats that happen to be integral still serialize with their shortest
    /// form (`1` for `1.0`), which round-trips through [`Json::Int`]; both
    /// spellings compare equal through [`Json::as_f64`].
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<u64> for Json {
    /// # Panics
    ///
    /// Panics if `n` exceeds `i64::MAX` (no simulated count does).
    fn from(n: u64) -> Json {
        Json::Int(i64::try_from(n).expect("count fits i64"))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Appends `n` in decimal: the canonical integer.
pub fn write_i64(n: i64, out: &mut String) {
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{n}");
}

/// Appends the shortest round-trip form of `x`: the canonical float.
/// Non-finite values (which valid simulation output never contains)
/// degrade to `null`, and `-0.0` is spelled `0`, as ECMAScript's
/// `JSON.stringify` and RFC 8785 spell it.
pub fn write_f64(x: f64, out: &mut String) {
    if x == 0.0 {
        // `-0` would parse back as Int(0) and re-serialize as `0`, so the
        // canonical text of both zeros is `0`.
        out.push('0');
    } else if x.is_finite() {
        // `{}` prints integral floats without a fractional part ("1"); that
        // is fine — the reparse yields Int(1) which serializes identically.
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Whether a string byte must be escaped: `"`, `\` and the C0 controls.
/// All are ASCII, so they never occur inside a multi-byte UTF-8 sequence.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Appends `s` as a quoted, escaped JSON string: the canonical string.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    // Runs that need no escaping are copied whole; each run ends at an
    // ASCII byte, so every slice boundary is a char boundary.
    for (i, &b) in bytes.iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Maximum nesting depth accepted by the parser (requests are flat; this
/// bounds stack use against adversarial input).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Members of the objects being parsed, innermost last. A finished
    /// object drains its own run into one `Vec` of exact size, so no
    /// object's member list grows by doubling.
    members: Vec<(String, Json)>,
    /// Items of the arrays being parsed, kept the same way.
    items: Vec<Json>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    // An array or object pushes onto its stack above `start` and drains
    // exactly that run when it closes; nested values drain theirs first.
    // An error abandons the stacks with the parser, so nothing a failed
    // parse pushed outlives it.
    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(Vec::new()));
        }
        let start = self.items.len();
        loop {
            self.skip_ws();
            let item = self.value(depth + 1)?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(self.items.drain(start..).collect()));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(Vec::new()));
        }
        let start = self.members.len();
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            self.members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(self.members.drain(start..).collect()));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: \uXXXX\uXXXX.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            s.push(c);
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Take the whole run up to the next quote, backslash or
                    // control byte as one slice. It ends at an ASCII byte or
                    // at the end of the input, so both ends are char
                    // boundaries of the `&str` input.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| needs_escape(b))
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    let chunk = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    s.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut is_float = false;
        // An integer literal's magnitude, accumulated during the scan;
        // `None` once it overflows `i64`.
        let mut magnitude = Some(0i64);
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(i64::from(b - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let has_digits = self.pos > start + usize::from(negative);
        if !is_float && has_digits {
            if let Some(m) = magnitude {
                return Ok(Json::Int(if negative { -m } else { m }));
            }
        }
        // Fractions, exponents, a lone `-` and overflow (`i64::MIN`
        // included) go through the standard library's parsers.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits and punctuation are ascii");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_canonical_documents() {
        for doc in [
            "null",
            "true",
            "false",
            "0",
            "-7",
            "9007199254740993",
            "1.5",
            "-0.25",
            "\"hi\"",
            "\"a\\\"b\\\\c\\nd\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"b\":1,\"a\":[true,null]}",
            "{\"nested\":{\"x\":[{\"y\":0.5}]}}",
        ] {
            let v = Json::parse(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            assert_eq!(v.to_string(), doc, "round trip of {doc}");
        }
        // Exponent notation is accepted but not canonical: serialization
        // expands it, and the expanded form is the stable fixed point.
        let v = Json::parse("1e30").unwrap();
        let canonical = v.to_string();
        assert_eq!(canonical, "1000000000000000000000000000000");
        assert_eq!(Json::parse(&canonical).unwrap().as_f64(), Some(1e30));
        assert_eq!(Json::parse(&canonical).unwrap().to_string(), canonical);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse("{\"z\":1,\"a\":2,\"m\":3}").unwrap();
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2,\"m\":3}");
        assert_eq!(v.get("a"), Some(&Json::Int(2)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn as_object_exposes_members_in_insertion_order() {
        let v = Json::parse("{\"z\":1,\"a\":2}").unwrap();
        let members = v.as_object().expect("object");
        assert_eq!(members.len(), 2);
        assert_eq!(members[0], ("z".to_owned(), Json::Int(1)));
        assert_eq!(members[1], ("a".to_owned(), Json::Int(2)));
        assert_eq!(Json::Int(1).as_object(), None);
        assert_eq!(Json::Array(vec![]).as_object(), None);
    }

    #[test]
    fn integer_literals_stay_exact() {
        // 2^60 + 1 is not representable in f64; the Int variant keeps it.
        let v = Json::parse("1152921504606846977").unwrap();
        assert_eq!(v.as_i64(), Some(1152921504606846977));
        assert_eq!(v.to_string(), "1152921504606846977");
    }

    #[test]
    fn float_serialization_round_trips_bytes() {
        for x in [0.1, 1.0 / 3.0, 123456.789, 1e-12, f64::MAX, -0.0] {
            let s = Json::Float(x).to_string();
            let back = Json::parse(&s).unwrap();
            assert_eq!(back.as_f64(), Some(x), "{s}");
            assert_eq!(back.to_string(), s, "{s}");
        }
    }

    #[test]
    fn errors_are_positioned_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"a\"1}",
            "[1 2]",
            "nul",
            "01x",
            "{\"a\":}",
            "\"\\q\"",
            "\u{7f}nope",
            "1 1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("Aé😀"));
        // Serialization does not re-escape printable unicode.
        assert_eq!(v.to_string(), "\"Aé😀\"");
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let doc = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&doc).is_err());
    }

    #[test]
    fn whitespace_tolerated_on_input() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.to_string(), "{\"a\":[1,2]}");
    }

    /// Asserts that every object and array in `v` holds exactly its
    /// members: one allocation of exact size, never a doubled buffer.
    fn assert_exact(v: &Json) {
        match v {
            Json::Array(items) => {
                assert_eq!(items.capacity(), items.len(), "{v}");
                items.iter().for_each(assert_exact);
            }
            Json::Object(members) => {
                assert_eq!(members.capacity(), members.len(), "{v}");
                members.iter().for_each(|(_, m)| assert_exact(m));
            }
            _ => {}
        }
    }

    #[test]
    fn parsed_objects_and_arrays_are_exactly_sized() {
        let layer = |i: usize| {
            format!(
                "{{\"name\":\"l{i}\",\"a\":1,\"b\":2,\"c\":3,\"d\":4.5,\"e\":[{i},[],{{}}],\
                 \"events\":{{\"x\":1,\"y\":2,\"z\":[1,2,3,4,5]}}}}"
            )
        };
        let layers: Vec<String> = (0..53).map(layer).collect();
        let doc = format!("{{\"cells\":[{}],\"n\":[[1],[2,3]]}}", layers.join(","));
        let v = Json::parse(&doc).unwrap();
        assert_exact(&v);
        assert_eq!(v.to_string(), doc);
    }

    /// The former codec, kept verbatim as the reference the fast paths are
    /// compared against: one `from_utf8` and `push_str` per string char, one
    /// `str::parse` per number, and a temporary `String` per serialized
    /// number or escape.
    mod reference {
        use super::super::{Json, JsonError, MAX_DEPTH};

        pub fn to_string(v: &Json) -> String {
            let mut out = String::new();
            write(v, &mut out);
            out
        }

        fn write(v: &Json, out: &mut String) {
            match v {
                Json::Null => out.push_str("null"),
                Json::Bool(true) => out.push_str("true"),
                Json::Bool(false) => out.push_str("false"),
                Json::Int(n) => out.push_str(&n.to_string()),
                Json::Float(x) => {
                    if *x == 0.0 {
                        out.push('0');
                    } else if x.is_finite() {
                        out.push_str(&format!("{x}"));
                    } else {
                        out.push_str("null");
                    }
                }
                Json::Str(s) => write_escaped(s, out),
                Json::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write(item, out);
                    }
                    out.push(']');
                }
                Json::Object(members) => {
                    out.push('{');
                    for (i, (k, v)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_escaped(k, out);
                        out.push(':');
                        write(v, out);
                    }
                    out.push('}');
                }
            }
        }

        fn write_escaped(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{08}' => out.push_str("\\b"),
                    '\u{0C}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        pub fn parse(input: &str) -> Result<Json, JsonError> {
            let mut p = Parser {
                bytes: input.as_bytes(),
                pos: 0,
            };
            p.skip_ws();
            let v = p.value(0)?;
            p.skip_ws();
            if p.pos != p.bytes.len() {
                return Err(p.err("trailing characters after document"));
            }
            Ok(v)
        }

        struct Parser<'a> {
            bytes: &'a [u8],
            pos: usize,
        }

        impl Parser<'_> {
            fn err(&self, message: &str) -> JsonError {
                JsonError {
                    offset: self.pos,
                    message: message.to_owned(),
                }
            }

            fn skip_ws(&mut self) {
                while let Some(&b) = self.bytes.get(self.pos) {
                    if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
            }

            fn peek(&self) -> Option<u8> {
                self.bytes.get(self.pos).copied()
            }

            fn expect(&mut self, b: u8) -> Result<(), JsonError> {
                if self.peek() == Some(b) {
                    self.pos += 1;
                    Ok(())
                } else {
                    Err(self.err(&format!("expected '{}'", b as char)))
                }
            }

            fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
                if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                    self.pos += lit.len();
                    Ok(value)
                } else {
                    Err(self.err(&format!("expected '{lit}'")))
                }
            }

            fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
                if depth > MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                match self.peek() {
                    Some(b'n') => self.literal("null", Json::Null),
                    Some(b't') => self.literal("true", Json::Bool(true)),
                    Some(b'f') => self.literal("false", Json::Bool(false)),
                    Some(b'"') => Ok(Json::Str(self.string()?)),
                    Some(b'[') => self.array(depth),
                    Some(b'{') => self.object(depth),
                    Some(b'-' | b'0'..=b'9') => self.number(),
                    Some(_) => Err(self.err("unexpected character")),
                    None => Err(self.err("unexpected end of input")),
                }
            }

            fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
                self.expect(b'[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }

            fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
                self.expect(b'{')?;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Object(members));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }

            fn string(&mut self) -> Result<String, JsonError> {
                self.expect(b'"')?;
                let mut s = String::new();
                loop {
                    match self.peek() {
                        None => return Err(self.err("unterminated string")),
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(s);
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.peek() {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'/') => s.push('/'),
                                Some(b'n') => s.push('\n'),
                                Some(b'r') => s.push('\r'),
                                Some(b't') => s.push('\t'),
                                Some(b'b') => s.push('\u{08}'),
                                Some(b'f') => s.push('\u{0C}'),
                                Some(b'u') => {
                                    self.pos += 1;
                                    let hi = self.hex4()?;
                                    let c = if (0xD800..0xDC00).contains(&hi) {
                                        if self.peek() != Some(b'\\') {
                                            return Err(self.err("lone high surrogate"));
                                        }
                                        self.pos += 1;
                                        self.expect(b'u')?;
                                        let lo = self.hex4()?;
                                        if !(0xDC00..0xE000).contains(&lo) {
                                            return Err(self.err("invalid low surrogate"));
                                        }
                                        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(cp)
                                            .ok_or_else(|| self.err("invalid code point"))?
                                    } else {
                                        char::from_u32(hi)
                                            .ok_or_else(|| self.err("invalid code point"))?
                                    };
                                    s.push(c);
                                    continue;
                                }
                                _ => return Err(self.err("invalid escape")),
                            }
                            self.pos += 1;
                        }
                        Some(b) if b < 0x20 => {
                            return Err(self.err("raw control character in string"))
                        }
                        Some(_) => {
                            let rest = &self.bytes[self.pos..];
                            let len = utf8_len(rest[0]);
                            let chunk = std::str::from_utf8(&rest[..len])
                                .map_err(|_| self.err("invalid utf-8"))?;
                            s.push_str(chunk);
                            self.pos += len;
                        }
                    }
                }
            }

            fn hex4(&mut self) -> Result<u32, JsonError> {
                let mut v = 0u32;
                for _ in 0..4 {
                    let b = self
                        .peek()
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let d = (b as char)
                        .to_digit(16)
                        .ok_or_else(|| self.err("invalid hex digit"))?;
                    v = v * 16 + d;
                    self.pos += 1;
                }
                Ok(v)
            }

            fn number(&mut self) -> Result<Json, JsonError> {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                let mut is_float = false;
                while let Some(b) = self.peek() {
                    match b {
                        b'0'..=b'9' => self.pos += 1,
                        b'.' | b'e' | b'E' | b'+' | b'-' => {
                            is_float = true;
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("digits and punctuation are ascii");
                if !is_float {
                    if let Ok(n) = text.parse::<i64>() {
                        return Ok(Json::Int(n));
                    }
                }
                text.parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("invalid number"))
            }
        }

        fn utf8_len(first: u8) -> usize {
            match first {
                0x00..=0x7F => 1,
                0xC0..=0xDF => 2,
                0xE0..=0xEF => 3,
                _ => 4,
            }
        }
    }

    /// Parses `input` with both codecs and asserts the same value or the
    /// same positioned error, then the same bytes for the parsed value.
    fn assert_same_as_reference(input: &str) {
        let got = Json::parse(input);
        assert_eq!(got, reference::parse(input), "parse of {input:?}");
        if let Ok(v) = got {
            assert_eq!(
                v.to_string(),
                reference::to_string(&v),
                "bytes of {input:?}"
            );
        }
    }

    /// A splitmix64 stream: a deterministic corpus without a dependency.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_text(rng: &mut Stream) -> String {
        // Quote, backslash, every kind of control byte, DEL and one to
        // four-byte UTF-8: every branch of both string paths.
        const ALPHABET: [char; 16] = [
            'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '✓',
            '😀', 'ю',
        ];
        (0..rng.below(10))
            .map(|_| ALPHABET[rng.below(ALPHABET.len())])
            .collect()
    }

    fn random_value(rng: &mut Stream, depth: usize) -> Json {
        match rng.below(9) {
            0 if depth < 4 => Json::Array(
                (0..rng.below(4))
                    .map(|_| random_value(rng, depth + 1))
                    .collect(),
            ),
            1 if depth < 4 => Json::Object(
                (0..rng.below(4))
                    .map(|_| (random_text(rng), random_value(rng, depth + 1)))
                    .collect(),
            ),
            2 => Json::Str(random_text(rng)),
            3 => Json::Int(rng.next() as i64 >> rng.below(64)),
            4 => Json::Float(f64::from_bits(rng.next())),
            5 => Json::Float((rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 1e6 - 5e5),
            6 => Json::Bool(rng.below(2) == 0),
            7 => Json::Int(rng.below(100) as i64 - 50),
            _ => Json::Null,
        }
    }

    #[test]
    fn codec_matches_the_reference_on_edge_cases() {
        let mut cases: Vec<String> = [
            // Every escape, valid and not.
            r#""\"\\\/\b\f\n\r\t""#,
            r#""aAé✓b""#,
            r#""\q""#,
            r#""\u12""#,
            r#""\u12G4""#,
            r#""\"#,
            // Surrogate pairs and lone surrogates.
            r#""😀""#,
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ud83d\n""#,
            r#""\udc00""#,
            r#""􏿿""#,
            // Raw control bytes.
            "\"a\u{1}b\"",
            "\"\u{1f}\"",
            "\"\t\"",
            "\"\n\"",
            "\"\u{7f}\"",
            // Multi-byte UTF-8 in keys and in values.
            "{\"ключ\":\"значение ✓ 😀\",\"é\":[\"😀😀\",\"a✓\"]}",
            // Unterminated strings at the end of the input.
            "\"abc",
            "\"é",
            "\"abc\\",
            "\"abc\\u12",
            "{\"a\":\"x",
            "[\"x\",\"",
            // Numbers and their quirks.
            "-0",
            "01",
            "-",
            "1-2",
            "-a",
            "--1",
            "0.5",
            "-0.0",
            "1.",
            ".5",
            "1e30",
            "1E+2",
            "1e999",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999999",
            "[1,-2,30,-0,01]",
            // Everything else.
            "",
            " ",
            "null",
            "nul",
            "true ",
            "[1 2]",
            "{\"a\"1}",
            "{\"a\":}",
            "{1:2}",
            "1 1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // Nesting at and around the depth bound.
        for depth in 63..=66 {
            cases.push("[".repeat(depth) + &"]".repeat(depth));
            cases.push("{\"k\":".repeat(depth) + "0" + &"}".repeat(depth));
        }
        for case in &cases {
            assert_same_as_reference(case);
        }
        // Nesting 65 deep is the deepest accepted; 66 is an error.
        assert!(Json::parse(&("[".repeat(65) + &"]".repeat(65))).is_ok());
        assert!(Json::parse(&("[".repeat(66) + &"]".repeat(66))).is_err());
        assert_eq!(Json::parse("01"), Ok(Json::Int(1)));
        assert_eq!(Json::parse("-0"), Ok(Json::Int(0)));
        assert_eq!(Json::parse("-9223372036854775808"), Ok(Json::Int(i64::MIN)));
        assert_eq!(Json::parse("1e30"), Ok(Json::Float(1e30)));
        assert_eq!(
            Json::parse("1-2").unwrap_err(),
            JsonError {
                offset: 3,
                message: "invalid number".to_owned()
            }
        );

        // Serialization of values no parse produces: every control char,
        // non-finite and extreme floats, extreme integers.
        let every_control: String = (0u8..0x20)
            .map(char::from)
            .chain(['\u{7f}', '"', '\\'])
            .collect();
        for v in [
            Json::Str(every_control.clone()),
            Json::Object(vec![(every_control, Json::Null)]),
            Json::Float(f64::NAN),
            Json::Float(f64::INFINITY),
            Json::Float(-0.0),
            Json::Float(5e-324),
            Json::Float(f64::MAX),
            Json::Float(1.0),
            Json::Int(i64::MIN),
            Json::Int(i64::MAX),
        ] {
            assert_eq!(v.to_string(), reference::to_string(&v), "{v:?}");
        }
    }

    #[test]
    fn codec_matches_the_reference_on_a_generated_corpus() {
        const EDITS: &[u8] = b"\"\\-0.eE+u[]{}:, \x01";
        let mut rng = Stream(0x5EED_0026);
        for _ in 0..2_000 {
            let v = random_value(&mut rng, 0);
            let text = reference::to_string(&v);
            let mut written = String::from("prefix ");
            v.write_to(&mut written);
            assert_eq!(written[7..], text, "{v:?}");
            assert_same_as_reference(&text);
            // Truncations, and single-byte edits that land on the codec's
            // branch points.
            let bytes = text.as_bytes();
            for _ in 0..4 {
                let cut = rng.below(bytes.len() + 1);
                assert_same_as_reference(&String::from_utf8_lossy(&bytes[..cut]));
                let mut edited = bytes.to_vec();
                let at = rng.below(edited.len());
                edited[at] = EDITS[rng.below(EDITS.len())];
                assert_same_as_reference(&String::from_utf8_lossy(&edited));
            }
        }
    }
}
