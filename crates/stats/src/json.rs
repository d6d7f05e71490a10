//! The workspace's one JSON module: the string escaper and `f64`
//! formatter every `rocc-*/vN` writer uses, and the strict parser every
//! reader uses.
//!
//! [`parse`] accepts exactly RFC 8259 JSON. It rejects trailing data,
//! duplicate keys, bare `NaN`/`inf`, bad escapes, raw control characters
//! in strings and unterminated input, each as a [`JsonError`] with a byte
//! offset (and a line number from [`parse_jsonl`]). Numbers keep their
//! source text, so `u64` values read back exactly, and every object
//! member records the byte span of its value so a reader can splice or
//! quote the source.

use std::fmt;
use std::ops::Range;

/// Nesting limit for arrays and objects (keeps hostile input off the
/// stack limit; artifacts nest a few levels).
const MAX_DEPTH: usize = 128;

/// Escape `s` for use between the quotes of a JSON string: `"` and `\`
/// are backslash-escaped, `\n` `\r` `\t` take their short forms, other
/// control characters become `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// An `f64` as a JSON number: `{}` for finite values, `0` for NaN and
/// ±inf, which JSON cannot represent.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its source text.
    Number(String),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Object),
}

/// An object: members in source order, keys unique.
#[derive(Debug, Clone, PartialEq)]
pub struct Object {
    /// Byte offset of the `{` in the parsed text.
    pub offset: usize,
    /// The members.
    pub members: Vec<Member>,
}

/// One `"key": value` member.
#[derive(Debug, Clone, PartialEq)]
pub struct Member {
    /// The decoded key.
    pub key: String,
    /// The value.
    pub value: Value,
    /// Byte range of the value's source text.
    pub span: Range<usize>,
}

/// What a [`JsonError`] rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// Input ended inside a value (unterminated string, array, object).
    UnexpectedEnd,
    /// A character no value can start or continue with here (bare `NaN`
    /// and `inf`, raw control characters in strings).
    UnexpectedChar(char),
    /// Non-whitespace after the complete value.
    TrailingData,
    /// An object repeats this key.
    DuplicateKey(String),
    /// An invalid `\` escape or unpaired surrogate.
    BadEscape,
    /// A number outside the JSON number grammar.
    BadNumber,
    /// Nesting deeper than the parser's limit.
    TooDeep,
    /// A required member is absent.
    MissingField(String),
    /// A member (empty name: the document) is not what the reader needs.
    WrongType {
        /// The member's key.
        field: String,
        /// What the reader expected, e.g. `"u64"`.
        expected: &'static str,
    },
}

/// A typed rejection: kind, byte offset, and 1-based line for JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What was rejected.
    pub kind: ErrorKind,
    /// Byte offset into the document (the line, for JSONL).
    pub offset: usize,
    /// Line number, set by [`parse_jsonl`].
    pub line: Option<usize>,
}

impl JsonError {
    fn new(kind: ErrorKind, offset: usize) -> Self {
        JsonError { kind, offset, line: None }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(line) = self.line {
            write!(f, "line {line}, ")?;
        }
        write!(f, "byte {}: ", self.offset)?;
        match &self.kind {
            ErrorKind::UnexpectedEnd => write!(f, "unexpected end of input"),
            ErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            ErrorKind::TrailingData => write!(f, "trailing data after the value"),
            ErrorKind::DuplicateKey(k) => write!(f, "duplicate key {k:?}"),
            ErrorKind::BadEscape => write!(f, "invalid escape"),
            ErrorKind::BadNumber => write!(f, "malformed number"),
            ErrorKind::TooDeep => write!(f, "nested deeper than {MAX_DEPTH}"),
            ErrorKind::MissingField(k) => write!(f, "missing field {k:?}"),
            ErrorKind::WrongType { field, expected } if field.is_empty() => {
                write!(f, "document: expected {expected}")
            }
            ErrorKind::WrongType { field, expected } => write!(f, "field {field:?}: expected {expected}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// The number as an exact `u64`; `None` with a sign, fraction or
    /// exponent, or above `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(t) if t.bytes().all(|b| b.is_ascii_digit()) => t.parse().ok(),
            _ => None,
        }
    }

    /// The number as a finite `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(t) => t.parse::<f64>().ok().filter(|x| x.is_finite()),
            _ => None,
        }
    }

    /// The string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array's elements.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The member at a dotted key path such as `engine.events_per_sec`
    /// (keys match whole).
    pub fn path(&self, path: &str) -> Option<&Member> {
        let mut v = self;
        let mut found = None;
        for key in path.split('.') {
            let m = v.as_object()?.member(key)?;
            v = &m.value;
            found = Some(m);
        }
        found
    }
}

impl Object {
    /// The member named `key`.
    pub fn member(&self, key: &str) -> Option<&Member> {
        self.members.iter().find(|m| m.key == key)
    }

    /// Member `key`, or [`ErrorKind::MissingField`].
    pub fn field(&self, key: &str) -> Result<&Member, JsonError> {
        let missing = || JsonError::new(ErrorKind::MissingField(key.into()), self.offset);
        self.member(key).ok_or_else(missing)
    }

    /// Member `key` converted by `read`, or [`ErrorKind::WrongType`]
    /// naming `expected` when `read` returns `None`.
    pub fn read<'a, T>(
        &'a self,
        key: &str,
        expected: &'static str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, JsonError> {
        let m = self.field(key)?;
        let kind = || ErrorKind::WrongType { field: key.into(), expected };
        read(&m.value).ok_or_else(|| JsonError::new(kind(), m.span.start))
    }

    /// Member `key` as an exact `u64`.
    pub fn u64(&self, key: &str) -> Result<u64, JsonError> {
        self.read(key, "u64", Value::as_u64)
    }

    /// Member `key` as a string.
    pub fn str(&self, key: &str) -> Result<&str, JsonError> {
        self.read(key, "string", Value::as_str)
    }

    /// Member `key` as a boolean.
    pub fn bool(&self, key: &str) -> Result<bool, JsonError> {
        self.read(key, "bool", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { src: text, pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(JsonError::new(ErrorKind::TrailingData, p.pos));
    }
    Ok(v)
}

/// Parse one JSON document whose root must be an object.
pub fn parse_object(text: &str) -> Result<Object, JsonError> {
    match parse(text)? {
        Value::Object(o) => Ok(o),
        _ => Err(JsonError::new(
            ErrorKind::WrongType { field: String::new(), expected: "object" },
            0,
        )),
    }
}

/// Parse JSONL: each non-blank line must be an object, handed to
/// `decode`. One result per such line; errors carry the line number.
pub fn parse_jsonl<'a, T: 'a>(
    text: &'a str,
    mut decode: impl FnMut(&Object) -> Result<T, JsonError> + 'a,
) -> impl Iterator<Item = Result<T, JsonError>> + 'a {
    let lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    lines.map(move |(i, line)| {
        let tag = |mut e: JsonError| {
            e.line = Some(i + 1);
            e
        };
        parse_object(line).and_then(|o| decode(&o)).map_err(tag)
    })
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The error for whatever sits at the cursor.
    fn unexpected(&self) -> JsonError {
        let kind = match self.src[self.pos..].chars().next() {
            None => ErrorKind::UnexpectedEnd,
            Some(c) => ErrorKind::UnexpectedChar(c),
        };
        JsonError::new(kind, self.pos)
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        let (word, v) = match self.peek() {
            Some(b'{') => return self.object(),
            Some(b'[') => return self.array(),
            Some(b'"') => return self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            Some(b'n') => ("null", Value::Null),
            _ => return Err(self.unexpected()),
        };
        for b in word.bytes() {
            if !self.eat(b) {
                return Err(self.unexpected());
            }
        }
        Ok(v)
    }

    /// The items of an array or object (`close` is its closing bracket),
    /// each parsed by `item` with the cursor on it. Errors abandon the
    /// whole parse, so only the success path unwinds `depth`.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(ErrorKind::TooDeep, self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let mut first = true;
        while !self.eat(close) {
            if !first && !self.eat(b',') {
                return Err(self.unexpected());
            }
            first = false;
            self.skip_ws();
            item(self)?;
            self.skip_ws();
        }
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        let offset = self.pos;
        let mut members: Vec<Member> = Vec::new();
        self.items(b'}', |p| {
            let key_at = p.pos;
            if p.peek() != Some(b'"') {
                return Err(p.unexpected());
            }
            let key = p.string()?;
            if members.iter().any(|m| m.key == key) {
                return Err(JsonError::new(ErrorKind::DuplicateKey(key), key_at));
            }
            p.skip_ws();
            if !p.eat(b':') {
                return Err(p.unexpected());
            }
            p.skip_ws();
            let start = p.pos;
            let value = p.value()?;
            members.push(Member { key, value, span: start..p.pos });
            Ok(())
        })?;
        Ok(Value::Object(Object { offset, members }))
    }

    /// One or more digits (`BadNumber` on none).
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(JsonError::new(ErrorKind::BadNumber, self.pos));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        Ok(Value::Number(self.src[start..self.pos].to_string()))
    }

    /// A string, the cursor on its opening quote.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if self.peek() != Some(b'\\') {
                return Err(self.unexpected());
            }
            out.push(self.escape()?);
        }
    }

    /// The escape at the cursor (on its backslash).
    fn escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let bad = JsonError::new(ErrorKind::BadEscape, at);
        let Some(b) = self.src.as_bytes().get(at + 1) else {
            self.pos += 1;
            return Err(self.unexpected());
        };
        self.pos += 2;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4().ok_or(bad.clone())?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    let lo = self.src[self.pos..].strip_prefix("\\u").and_then(|_| {
                        self.pos += 2;
                        self.hex4()
                    });
                    match lo {
                        Some(lo @ 0xDC00..=0xDFFF) => 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00),
                        _ => return Err(bad),
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or(bad)?
            }
            _ => return Err(bad),
        })
    }

    /// Four hex digits at the cursor.
    fn hex4(&mut self) -> Option<u32> {
        let hex = self.src.get(self.pos..self.pos + 4)?;
        if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.pos += 4;
        u32::from_str_radix(hex, 16).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(text: &str) -> ErrorKind {
        parse(text).expect_err(text).kind
    }

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}\r\t"), "\\u0001\\r\\t");
        assert_eq!(escape("plain/é"), "plain/é");
    }

    #[test]
    fn fmt_f64_is_display_or_zero() {
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(1e21), "1000000000000000000000");
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "0");
    }

    #[test]
    fn escaped_strings_round_trip() {
        for s in ["", "a\"b\\c\nd", "\u{0}\u{1f}\u{7f}", "sw\"1\n", "日本 🎉"] {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(parse(&doc).unwrap().as_str(), Some(s), "{doc}");
        }
        assert_eq!(parse(r#""\ud83c\udf89\/""#).unwrap().as_str(), Some("🎉/"));
    }

    #[test]
    fn u64_round_trips_exactly() {
        let doc = format!("{{\"seed\":{}}}", u64::MAX);
        let o = parse_object(&doc).unwrap();
        assert_eq!(o.u64("seed"), Ok(u64::MAX));
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_u64(), None);
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn numbers_keep_source_text() {
        let v = parse("[3.5e-2, -0.0, 1E+2]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0], Value::Number("3.5e-2".into()));
        assert_eq!(a[0].as_f64(), Some(0.035));
        assert_eq!(a[1].as_f64(), Some(-0.0));
        assert_eq!(a[2].as_f64(), Some(100.0));
        assert_eq!(parse("1e999").unwrap().as_f64(), None, "non-finite is rejected");
    }

    #[test]
    fn rejects_malformed_documents() {
        assert_eq!(kind("{} x"), ErrorKind::TrailingData);
        assert_eq!(kind("{}{}"), ErrorKind::TrailingData);
        assert_eq!(kind("{\"a\":1,\"a\":2}"), ErrorKind::DuplicateKey("a".into()));
        assert_eq!(kind("NaN"), ErrorKind::UnexpectedChar('N'));
        assert_eq!(kind("[inf]"), ErrorKind::UnexpectedChar('i'));
        assert_eq!(kind("[-inf]"), ErrorKind::BadNumber);
        assert_eq!(kind("\"abc"), ErrorKind::UnexpectedEnd);
        assert_eq!(kind("{\"a\":[1,2"), ErrorKind::UnexpectedEnd);
        assert_eq!(kind(""), ErrorKind::UnexpectedEnd);
        assert_eq!(kind("\"\\x\""), ErrorKind::BadEscape);
        assert_eq!(kind("\"\\ud800\""), ErrorKind::BadEscape);
        assert_eq!(kind("\"\\u12\""), ErrorKind::BadEscape);
        assert_eq!(kind("\"a\nb\""), ErrorKind::UnexpectedChar('\n'));
        assert_eq!(kind("01"), ErrorKind::TrailingData);
        assert_eq!(kind("1."), ErrorKind::BadNumber);
        assert_eq!(kind("[1,]"), ErrorKind::UnexpectedChar(']'));
        assert_eq!(kind("{\"a\" 1}"), ErrorKind::UnexpectedChar('1'));
        assert_eq!(kind(&"[".repeat(MAX_DEPTH + 1)), ErrorKind::TooDeep);
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("{\"a\":1} ,").unwrap_err();
        assert_eq!((e.kind, e.offset), (ErrorKind::TrailingData, 8));
        let e = parse("{\"a\":1,\"a\":2}").unwrap_err();
        assert_eq!(e.offset, 7);
    }

    #[test]
    fn typed_fields_name_the_field() {
        let o = parse_object("{\"n\":\"x\",\"f\":1.5}").unwrap();
        let e = o.u64("missing").unwrap_err();
        assert_eq!(e.kind, ErrorKind::MissingField("missing".into()));
        let e = o.u64("n").unwrap_err();
        assert_eq!(e.kind, ErrorKind::WrongType { field: "n".into(), expected: "u64" });
        assert_eq!(e.offset, 5);
        assert!(o.u64("f").is_err());
        assert_eq!(o.read("f", "number", Value::as_f64), Ok(1.5));
        assert!(e.to_string().contains("\"n\""), "{e}");
        assert!(parse_object("[1]").is_err());
    }

    #[test]
    fn path_lookup_respects_key_boundaries() {
        let doc = "{\"profiled_events_per_sec\":1.0,\"engine\":{\"events_per_sec\":2.0}}";
        let v = parse(doc).unwrap();
        let m = v.path("engine.events_per_sec").unwrap();
        assert_eq!(m.value.as_f64(), Some(2.0));
        assert_eq!(&doc[m.span.clone()], "2.0");
        assert!(v.path("events_per_sec").is_none());
        assert!(v.path("engine.profiled_events_per_sec").is_none());
        assert_eq!(v.path("profiled_events_per_sec").unwrap().value.as_f64(), Some(1.0));
    }

    #[test]
    fn jsonl_errors_carry_line_numbers() {
        let text = "{\"t\":1}\n\n{\"t\":2}\n{\"t\":";
        let rows: Vec<_> = parse_jsonl(text, |o| o.u64("t")).collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], Ok(1));
        assert_eq!(rows[1], Ok(2));
        let e = rows[2].clone().unwrap_err();
        assert_eq!((e.kind.clone(), e.line), (ErrorKind::UnexpectedEnd, Some(4)));
        assert!(e.to_string().starts_with("line 4, byte 5"), "{e}");
        let e = parse_jsonl("{\"t\":1}\n{\"u\":1}", |o| o.u64("t")).nth(1).unwrap().unwrap_err();
        assert_eq!((e.kind, e.line), (ErrorKind::MissingField("t".into()), Some(2)));
    }
}
