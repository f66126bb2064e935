//! A minimal JSON reader/writer.
//!
//! PostgreSQL exposes query plans as `EXPLAIN (FORMAT JSON)` documents;
//! `lantern-plan` parses that artifact into an operator tree. The
//! sanctioned offline dependency set contains `serde` but not
//! `serde_json`, so this module implements the subset of JSON needed
//! (which is in fact all of JSON) with precise error positions: one
//! pull reader ([`JsonReader`]) that `lantern-plan` reads plans with
//! and [`JsonValue::parse`] builds trees with, and one writer.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// A parsed JSON value. Objects use `BTreeMap` so output is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(BTreeMap<String, JsonValue>),
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where the error occurred.
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parse a JSON document.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut reader = JsonReader::new(input);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }

    /// An object of `members` (a later duplicate key wins).
    pub fn object<'k>(members: impl IntoIterator<Item = (&'k str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// String content if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Array content if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Bool content if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize compactly.
    pub fn to_string_compact(&self) -> String {
        let mut s = String::new();
        self.write_compact(&mut s);
        s
    }

    /// Append the compact serialization to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Serialize with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => write_number(out, *n),
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !map.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// Bytes a JSON string literal cannot carry raw: `"`, `\` and every
/// control byte below 0x20. All of them are ASCII, so a byte scan never
/// splits a multibyte UTF-8 sequence.
const NEEDS_ESCAPE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = true;
        b += 1;
    }
    table[b'"' as usize] = true;
    table[b'\\' as usize] = true;
    table
};

/// Append `s` to `out` as a JSON string literal, quotes included: `"`,
/// `\`, `\n`, `\r` and `\t` get their short escapes, other bytes
/// below 0x20 become lowercase `\u00xx`, and everything else (0x7F,
/// multibyte UTF-8, U+2028) is copied raw. Runs between escapes are
/// copied whole.
pub fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !NEEDS_ESCAPE[b as usize] {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `n` to `out` as a JSON number: integral values below 9e15 in
/// magnitude as integers (`-0.0` as `0`), everything else through
/// `f64`'s `Display` (so NaN and infinities print as `NaN` / `inf`).
pub fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let value = n as i64;
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        let mut rest = value.unsigned_abs();
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if value < 0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    } else {
        use std::fmt::Write;
        let _ = write!(out, "{n}");
    }
}

const OBJECT_SEPARATOR: &str = "expected ',' or '}' in object";
const ARRAY_SEPARATOR: &str = "expected ',' or ']' in array";

/// A pull reader over one JSON document: the one JSON tokenizer.
///
/// Callers walk the document with [`begin_object`](Self::begin_object)
/// / [`next_key`](Self::next_key) and [`begin_array`](Self::begin_array)
/// / [`next_item`](Self::next_item), decode the scalars they keep with
/// [`string`](Self::string) and [`number`](Self::number), and step over
/// everything else with [`skip_value`](Self::skip_value), which
/// validates without allocating. Keys and strings without escapes come
/// back borrowed from the input. [`JsonValue::parse`] is this reader
/// building a tree, so every consumer reports the same error, at the
/// same offset, for the same bytes.
///
/// Each value method expects the reader at the value's first byte;
/// the navigation methods leave it there (whitespace skipped), and
/// [`finish`](Self::finish) rejects anything but trailing whitespace.
///
/// ```
/// use lantern_text::json::JsonReader;
///
/// let mut r = JsonReader::new(r#"{"a": [1, "x"], "b": "y"}"#);
/// let mut key = r.begin_object().unwrap();
/// let mut b = None;
/// while let Some(k) = key {
///     if k == "b" {
///         b = Some(r.string().unwrap());
///     } else {
///         r.skip_value().unwrap();
///     }
///     key = r.next_key().unwrap();
/// }
/// r.finish().unwrap();
/// assert_eq!(b.as_deref(), Some("y"));
/// ```
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> JsonReader<'a> {
    /// A reader at the first value of `src` (leading whitespace skipped).
    pub fn new(src: &'a str) -> Self {
        let mut reader = JsonReader { src, pos: 0 };
        reader.skip_ws();
        reader
    }

    /// The next byte without consuming it: the first byte of the next
    /// value when called where a value is expected.
    pub fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The reader's byte offset into the input: where the next value
    /// starts, or just past the value last read.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// End of document: only whitespace may follow the value read.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// Open an object: consume `{` and return its first key (the reader
    /// then sits at that member's value), or `None` for `{}`.
    pub fn begin_object(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.open(b'{', b'}')? {
            self.key().map(Some)
        } else {
            Ok(None)
        }
    }

    /// After a member's value: the next key, or `None` at the closing `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.more(b'}', OBJECT_SEPARATOR)? {
            self.key().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Open an array: consume `[` and report whether an item follows
    /// (the reader then sits at it).
    pub fn begin_array(&mut self) -> Result<bool, JsonError> {
        self.open(b'[', b']')
    }

    /// After an item: whether another follows, consuming the `,` (or
    /// the closing `]`).
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.more(b']', ARRAY_SEPARATOR)
    }

    /// Decode a string value. Borrowed from the input when it holds no
    /// escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
        }
        let mut out = String::with_capacity(self.pos - start + 16);
        out.push_str(&self.src[start..self.pos]);
        self.string_rest(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Decode a number value.
    pub fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))
    }

    /// Read the value at the reader into a [`JsonValue`] tree.
    pub fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                let mut key = self.begin_object()?;
                while let Some(k) = key {
                    let value = self.value()?;
                    map.insert(k.into_owned(), value);
                    key = self.next_key()?;
                }
                Ok(JsonValue::Object(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                let mut more = self.begin_array()?;
                while more {
                    items.push(self.value()?);
                    more = self.next_item()?;
                }
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?.into_owned())),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonValue::Number),
            _ => self.scalar_literal(),
        }
    }

    /// Step over the value at the reader, validating it exactly as
    /// [`value`](Self::value) would, without building or allocating
    /// anything.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut more = self.open(b'{', b'}')?;
                while more {
                    self.expect(b'"')?;
                    self.string_rest(None)?;
                    self.colon()?;
                    self.skip_value()?;
                    more = self.more(b'}', OBJECT_SEPARATOR)?;
                }
                Ok(())
            }
            Some(b'[') => {
                let mut more = self.begin_array()?;
                while more {
                    self.skip_value()?;
                    more = self.next_item()?;
                }
                Ok(())
            }
            Some(b'"') => {
                self.pos += 1;
                self.string_rest(None)
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => self.scalar_literal().map(drop),
        }
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(rest.len());
    }

    fn digits(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(rest.len());
    }

    /// Advance to the next byte that ends a plain string run: the
    /// closing quote, a backslash or a raw control byte — the bytes
    /// [`write_string`] escapes.
    fn plain_run(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| NEEDS_ESCAPE[b as usize])
            .unwrap_or(rest.len());
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Consume the `open` bracket; `true` when a member follows rather
    /// than the `close` bracket.
    fn open(&mut self, open: u8, close: u8) -> Result<bool, JsonError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(false);
        }
        self.skip_ws();
        Ok(true)
    }

    /// After a member: consume `,` (`true`) or the `close` bracket.
    fn more(&mut self, close: u8, separator: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.bump() {
            Some(b',') => {
                self.skip_ws();
                Ok(true)
            }
            Some(b) if b == close => Ok(false),
            _ => Err(self.err(separator)),
        }
    }

    fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let key = self.string()?;
        self.colon()?;
        Ok(key)
    }

    fn colon(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(())
    }

    /// `true`, `false`, `null`, or the error for whatever else sits
    /// where a value belongs.
    fn scalar_literal(&mut self) -> Result<JsonValue, JsonError> {
        let (lit, value) = match self.peek() {
            Some(b't') => ("true", JsonValue::Bool(true)),
            Some(b'f') => ("false", JsonValue::Bool(false)),
            Some(b'n') => ("null", JsonValue::Null),
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected '{lit}'")))
        }
    }

    /// The rest of a string literal after its opening quote (or after
    /// a plain prefix already taken): validate through the closing
    /// quote, appending the decoded text to `out` when given.
    fn string_rest(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        loop {
            let start = self.pos;
            self.plain_run();
            if let Some(out) = &mut out {
                out.push_str(&self.src[start..self.pos]);
            }
            match self.bump() {
                Some(b'"') => return Ok(()),
                Some(b'\\') => {
                    let c = self.escape()?;
                    if let Some(out) = &mut out {
                        out.push(c);
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// One escape sequence, after its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let cp = self.hex4()?;
                if (0xD800..0xDC00).contains(&cp) {
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.err("bad codepoint"))?
                } else {
                    char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?
                }
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }
}

/// Split a top-level JSON array into the byte ranges of its items,
/// validating the whole document without building values: the ranges
/// index `doc` and cover each item exactly, without the surrounding
/// whitespace. `Ok(None)` when `doc` is valid JSON but not an array.
pub fn array_item_spans(doc: &str) -> Result<Option<Vec<Range<usize>>>, JsonError> {
    let mut reader = JsonReader::new(doc);
    if reader.peek() != Some(b'[') {
        reader.skip_value()?;
        reader.finish()?;
        return Ok(None);
    }
    let mut spans = Vec::new();
    let mut more = reader.begin_array()?;
    while more {
        let start = reader.pos;
        reader.skip_value()?;
        spans.push(start..reader.pos);
        more = reader.next_item()?;
    }
    reader.finish()?;
    Ok(Some(spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-3.5").unwrap(), JsonValue::Number(-3.5));
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::String("hi".into())
        );
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"Plan": {"Node Type": "Hash Join", "Plans": [{"Node Type": "Seq Scan", "Relation Name": "orders"}]}}"#;
        let v = JsonValue::parse(doc).unwrap();
        let plan = v.get("Plan").unwrap();
        assert_eq!(plan.get("Node Type").unwrap().as_str(), Some("Hash Join"));
        let kids = plan.get("Plans").unwrap().as_array().unwrap();
        assert_eq!(
            kids[0].get("Relation Name").unwrap().as_str(),
            Some("orders")
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(JsonValue::parse("{} x").is_err());
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(JsonValue::parse("\"abc").is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let original = JsonValue::String("line\nquote\"backslash\\tab\t".into());
        let text = original.to_string_compact();
        assert_eq!(JsonValue::parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escapes() {
        let v = JsonValue::parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn surrogate_pair() {
        let v = JsonValue::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn pretty_print_round_trips() {
        let doc = r#"{"a":[1,2,{"b":true}],"c":null}"#;
        let v = JsonValue::parse(doc).unwrap();
        let pretty = v.to_string_pretty();
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integers_serialize_without_fraction() {
        let v = JsonValue::Number(42.0);
        assert_eq!(v.to_string_compact(), "42");
    }

    #[test]
    fn exponent_numbers() {
        assert_eq!(JsonValue::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(JsonValue::parse("2.5E-1").unwrap().as_f64(), Some(0.25));
    }

    /// The char-at-a-time escaper `write_string` replaced, kept as the
    /// oracle its run-copying scan must match byte for byte.
    fn escape_oracle(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn string_writer_matches_the_char_escaper_on_every_low_byte() {
        let mut every: String = (0u8..0x80).map(char::from).collect();
        every.push_str("é漢😀\u{2028}\u{2029}\u{7f}");
        let mut cases = vec![String::new(), every.clone(), every.chars().rev().collect()];
        for c in every.chars() {
            cases.push(c.to_string());
            cases.push(format!("a{c}b{c}{c}"));
        }
        for case in &cases {
            let mut out = String::from("prefix");
            write_string(&mut out, case);
            assert_eq!(out, format!("prefix{}", escape_oracle(case)), "{case:?}");
            let parsed = JsonValue::parse(&out["prefix".len()..]).unwrap();
            assert_eq!(parsed.as_str(), Some(case.as_str()));
        }
        let mut out = String::new();
        write_string(&mut out, "\u{1}\u{1f}\u{7f}");
        assert_eq!(out, "\"\\u0001\\u001f\u{7f}\"");
    }

    #[test]
    fn number_writer_keeps_the_integral_and_display_rule() {
        for (n, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (42.0, "42"),
            (-7.0, "-7"),
            (0.1, "0.1"),
            (-2.5, "-2.5"),
            (1e15, "1000000000000000"),
            (8_999_999_999_999_999.0, "8999999999999999"),
            (9e15, "9000000000000000"),
            (-9e15, "-9000000000000000"),
            (1e16, "10000000000000000"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ] {
            let mut out = String::new();
            write_number(&mut out, n);
            assert_eq!(out, text, "{n:?}");
            let oracle = if n.fract() == 0.0 && n.abs() < 9.0e15 {
                format!("{}", n as i64)
            } else {
                format!("{n}")
            };
            assert_eq!(out, oracle, "{n:?}");
        }
    }

    #[test]
    fn reader_borrows_escape_free_strings() {
        let mut r = JsonReader::new(r#"{"plain": "x y", "esc\u0061ped": "a\"b"}"#);
        let key = r.begin_object().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("plain")));
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("x y")));
        let key = r.next_key().unwrap().unwrap();
        assert!(matches!(&key, Cow::Owned(k) if k == "escaped"));
        assert_eq!(r.string().unwrap(), "a\"b");
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn skip_value_reports_what_parse_reports() {
        for doc in [
            r#"{"a": [1, {"b": "\q"}]}"#,
            r#"[1, 2,]"#,
            r#"{"a" 1}"#,
            r#""\ud800x""#,
            "[\"tab\there\"]",
            r#"{"a": tru}"#,
            r#"-"#,
            r#"{"a": [null, false, "\u00e9"]} x"#,
            r#"{"a": [null, false, "\u00e9"]}"#,
        ] {
            let mut r = JsonReader::new(doc);
            let skipped = r.skip_value().and_then(|()| r.finish());
            assert_eq!(skipped, JsonValue::parse(doc).map(drop), "{doc}");
        }
    }

    #[test]
    fn array_item_spans_cover_each_item() {
        let doc = r#" [ "a\"b" , {"k": [1, 2]},3 ] "#;
        let spans = array_item_spans(doc).unwrap().unwrap();
        let items: Vec<&str> = spans.into_iter().map(|s| &doc[s]).collect();
        assert_eq!(items, [r#""a\"b""#, r#"{"k": [1, 2]}"#, "3"]);
        assert_eq!(array_item_spans("[]").unwrap(), Some(vec![]));
        assert_eq!(array_item_spans(r#"{"a": 1}"#).unwrap(), None);
        assert_eq!(
            array_item_spans("[1, 2").unwrap_err(),
            JsonValue::parse("[1, 2").unwrap_err()
        );
        assert!(array_item_spans(r#"{"a": 1} x"#).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(JsonValue::parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(
            JsonValue::parse("{}").unwrap(),
            JsonValue::Object(Default::default())
        );
    }
}
