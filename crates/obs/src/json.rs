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

use std::fmt;

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

    /// Serializes canonically (compact, insertion order, shortest floats)
    /// into `out`.
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                out.push_str(&n.to_string());
            }
            Json::Float(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
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
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
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

/// Shortest round-trip float formatting; non-finite values (which valid
/// simulation output never contains) degrade to `null`.
fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        out.push_str(&format!("{x}"));
        // `{}` prints integral floats without a fractional part ("1"); that
        // is fine — the reparse yields Int(1) which serializes identically.
    } else {
        out.push_str("null");
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
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum nesting depth accepted by the parser (requests are flat; this
/// bounds stack use against adversarial input).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
                    // Consume one UTF-8 character (input is &str, so the
                    // boundary math cannot fail).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid utf-8"))?;
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
        for x in [0.1, 1.0 / 3.0, 123456.789, 1e-12, f64::MAX] {
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
}
