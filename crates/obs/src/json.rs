//! Minimal JSON support: one value type, its writer and its parser. Every
//! JSON artifact the toolchain writes (Chrome traces, bench, profile and
//! DSE reports) is built as a [`Json`] value and rendered by its
//! [`Display`](fmt::Display) impl; `experiments compare` and the
//! trace-validation tests read them back with [`Json::parse`]. The
//! workspace takes no serialization dependency, so both directions are
//! hand-rolled here and nowhere else.
//!
//! ```
//! use cgpa_obs::json::Json;
//!
//! let doc = Json::obj([("label", "q\"x".into()), ("cycles", 1200u64.into())]);
//! assert_eq!(doc.to_string(), r#"{"label":"q\"x","cycles":1200}"#);
//! assert_eq!(Json::parse(&doc.to_string()), Ok(doc));
//! ```

use std::fmt;

/// A parsed JSON value. Objects preserve key order (they are association
/// lists, not maps) — good enough for diffing and validation, and it keeps
/// round-trip diagnostics readable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish int/float).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, as an ordered list of `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What was expected or found.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects or missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer value, if this is a number that is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.trunc() == *n && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// String value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// An object from `(key, value)` members, in order.
    #[must_use]
    pub fn obj<'k>(members: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `x` rounded to `places` decimals, to the same value that parsing
    /// `format!("{x:.places$}")` gives. Reports round their ratios and
    /// fractions through this one helper so that equal inputs always
    /// serialize to equal numbers. Non-finite values become 0.
    #[must_use]
    pub fn rounded(x: f64, places: usize) -> Json {
        if !x.is_finite() {
            return Json::Num(0.0);
        }
        Json::Num(format!("{x:.places$}").parse().expect("a formatted finite f64 parses"))
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN or infinity; -0 prints as 0.
            Json::Num(n) if !n.is_finite() || *n == 0.0 => f.write_str("0"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => write_seq(f, indent, ('[', ']'), items.iter().map(|v| (None, v))),
            Json::Obj(members) => {
                write_seq(f, indent, ('{', '}'), members.iter().map(|(k, v)| (Some(k.as_str()), v)))
            }
        }
    }
}

/// Compact by default; the alternate form (`{:#}`) pretty-prints with
/// two-space indentation. Either form parses back to an equal value.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let indent = f.alternate().then_some(0);
        self.write(f, indent)
    }
}

/// Write an array or object: `(key, value)` items between `open` and `close`,
/// one per line at `indent + 2` when pretty-printing.
fn write_seq<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: Option<usize>,
    (open, close): (char, char),
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    let empty = items.len() == 0;
    let inner = indent.map(|n| n + 2);
    write!(f, "{open}")?;
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        if let Some(n) = inner {
            write!(f, "\n{:n$}", "")?;
        }
        if let Some(k) = key {
            write_str(f, k)?;
            f.write_str(if inner.is_some() { ": " } else { ":" })?;
        }
        value.write(f, inner)?;
    }
    if let (Some(n), false) = (indent, empty) {
        write!(f, "\n{:n$}", "")?;
    }
    write!(f, "{close}")
}

/// Write `s` as a quoted JSON string with the mandatory escapes.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl From<u64> for Json {
    /// Exact up to 2^53, like every JSON number a double-based reader sees.
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(f64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Num(v as f64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is `null`.
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, msg: msg.into() }
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
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
                _ => return Err(self.err("expected ',' or ']' in array")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: JSON encodes astral-plane
                            // characters as \uD8xx\uDCxx.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // on char boundaries is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null"), Ok(Json::Null));
        assert_eq!(Json::parse("true"), Ok(Json::Bool(true)));
        assert_eq!(Json::parse(" -3.5e2 "), Ok(Json::Num(-350.0)));
        assert_eq!(Json::parse("\"a\\nb\""), Ok(Json::Str("a\nb".to_string())));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":false}],"c":{}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).and_then(|a| a[2].get("b")),
            Some(&Json::Bool(false))
        );
        assert_eq!(v.get("c"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "quote \" backslash \\ newline \n tab \t control \u{1} unicode é";
        let written = Json::from(original).to_string();
        assert_eq!(
            written,
            r#""quote \" backslash \\ newline \n tab \t control \u0001 unicode é""#
        );
        assert_eq!(Json::parse(&written), Ok(Json::Str(original.to_string())));
    }

    fn sample() -> Json {
        Json::obj([
            ("label", "q\"x".into()),
            ("n", 42u64.into()),
            ("neg", (-7i64).into()),
            ("ratio", Json::rounded(2.0 / 3.0, 4)),
            ("ok", true.into()),
            ("none", Json::from(None::<u32>)),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj([])),
            ("items", Json::Arr(vec![1.5.into(), Json::obj([("k", "v".into())])])),
        ])
    }

    #[test]
    fn written_values_parse_back_equal_in_both_forms() {
        let v = sample();
        for text in [v.to_string(), format!("{v:#}")] {
            assert_eq!(Json::parse(&text).as_ref(), Ok(&v), "{text}");
        }
        assert_eq!(
            v.to_string(),
            r#"{"label":"q\"x","n":42,"neg":-7,"ratio":0.6667,"ok":true,"none":null,"empty_arr":[],"empty_obj":{},"items":[1.5,{"k":"v"}]}"#
        );
    }

    #[test]
    fn written_text_is_a_fixed_point_of_parse_then_write() {
        let v = sample();
        for text in [v.to_string(), format!("{v:#}")] {
            let reparsed = Json::parse(&text).unwrap();
            let rewritten =
                if text.contains('\n') { format!("{reparsed:#}") } else { reparsed.to_string() };
            assert_eq!(rewritten, text);
        }
    }

    #[test]
    fn pretty_form_indents_two_spaces_per_level() {
        let v = Json::obj([("a", Json::Arr(vec![1u32.into()])), ("b", Json::obj([]))]);
        assert_eq!(format!("{v:#}"), "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}");
    }

    #[test]
    fn numbers_render_as_json_and_round_like_format() {
        assert_eq!(Json::Num(4.0).to_string(), "4");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(-0.0).to_string(), "0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "0");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "0");
        assert_eq!(Json::from(1u64 << 40).to_string(), "1099511627776");
        for (x, places) in [(2.0 / 3.0, 3), (1.0005, 3), (0.125, 2), (123.456_789, 6)] {
            let text = format!("{x:.places$}");
            assert_eq!(Json::rounded(x, places), Json::parse(&text).unwrap(), "{text}");
        }
        assert_eq!(Json::rounded(f64::NAN, 3), Json::Num(0.0));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(Json::parse("\"\\ud83d\\ude00\""), Ok(Json::Str("😀".to_string())));
        assert!(Json::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn as_u64_accepts_only_integers() {
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(4.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("42".into()).as_u64(), None);
    }
}
