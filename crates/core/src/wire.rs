//! The wire layer — a dependency-free JSON value model for the
//! campaign-as-a-service protocol.
//!
//! Every report in this workspace already *renders* JSON by hand
//! ([`CampaignReport::to_json`](crate::campaign::CampaignReport::to_json)
//! and friends); a verification daemon additionally has to *consume*
//! JSON — client requests arrive as newline-delimited JSON lines, and
//! round-trip tests must prove the streamed
//! [`CampaignEvent`](crate::campaign::CampaignEvent) NDJSON is a stable
//! contract. crates.io is unreachable here, so this module supplies the
//! missing half as a small recursive-descent parser over a [`JsonValue`]
//! tree, plus the escaping helper every renderer shares.
//!
//! The model is deliberately minimal: objects preserve key order (they
//! are association lists, not maps), numbers are `f64` with checked
//! integer accessors, and parsing rejects trailing garbage — a protocol
//! line is one value, not a prefix of one. Nesting is capped at
//! [`MAX_DEPTH`], so a hostile line of brackets gets an error instead of
//! overflowing the parsing thread's stack.
//!
//! ```
//! use advm::wire::JsonValue;
//!
//! let value = JsonValue::parse(r#"{"cmd":"submit","job":7,"tags":["a","b"]}"#)?;
//! assert_eq!(value.get("cmd").and_then(JsonValue::as_str), Some("submit"));
//! assert_eq!(value.u64_field("job")?, 7);
//! assert_eq!(value.get("tags").and_then(JsonValue::as_array).map(<[_]>::len), Some(2));
//! // Rendering round-trips structurally.
//! assert_eq!(JsonValue::parse(&value.to_json())?, value);
//! # Ok::<(), advm::wire::WireError>(())
//! ```

use std::fmt;

/// The deepest nesting of arrays and objects [`JsonValue::parse`]
/// accepts. Requests nest 3 deep and the deepest report the workspace
/// emits (a fault audit's, wrapped in the daemon's `done` line) 7 deep.
pub const MAX_DEPTH: usize = 128;

/// A structured wire-format failure: what went wrong and the byte
/// offset in the input where it was noticed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    message: String,
    offset: usize,
}

impl WireError {
    /// Builds an error at a byte offset.
    pub fn new(message: impl Into<String>, offset: usize) -> Self {
        Self {
            message: message.into(),
            offset,
        }
    }

    /// Builds an error about the value's *shape* (a missing field, a
    /// wrong type) rather than its syntax.
    pub fn shape(message: impl Into<String>) -> Self {
        Self::new(message, 0)
    }

    /// Byte offset in the input where the error was noticed.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for WireError {}

/// One parsed JSON value.
///
/// Objects are association lists: key order is preserved and duplicate
/// keys are kept as parsed ([`JsonValue::get`] returns the first).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Integers above 2^53 lose precision; the checked
    /// accessors reject values that did.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error, and so is nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Self, WireError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(WireError::new(
                "trailing characters after JSON value",
                parser.pos,
            ));
        }
        Ok(value)
    }

    /// Looks up a key of an object (first occurrence); `None` for
    /// missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer: rejects non-numbers,
    /// negatives, fractions and magnitudes past 2^53 (where `f64`
    /// parsing already lost precision).
    pub(crate) fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        if n.fract() == 0.0 && (0.0..EXACT).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A required string field of an object, with a shape error naming
    /// the key when absent or mistyped.
    pub fn str_field(&self, key: &str) -> Result<&str, WireError> {
        self.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| WireError::shape(format!("missing or non-string field `{key}`")))
    }

    /// A required unsigned-integer field of an object, with a shape
    /// error naming the key when absent or mistyped.
    pub fn u64_field(&self, key: &str) -> Result<u64, WireError> {
        self.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| WireError::shape(format!("missing or non-integer field `{key}`")))
    }

    /// A required boolean field of an object, with a shape error naming
    /// the key when absent or mistyped.
    pub fn bool_field(&self, key: &str) -> Result<bool, WireError> {
        self.get(key)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| WireError::shape(format!("missing or non-boolean field `{key}`")))
    }

    /// Renders the value back to compact JSON. Parsing the result
    /// yields a structurally equal value (numbers render via Rust's
    /// shortest-round-trip `f64` formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out);
        out
    }

    fn render(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            JsonValue::Str(s) => out.push_str(&json_string(s)),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(key));
                    out.push(':');
                    value.render(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string into a double-quoted JSON literal — the one escaping
/// routine every renderer in the workspace shares.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
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

/// The recursive-descent parser state: a byte cursor over the input and
/// the number of arrays and objects open at it.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), WireError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(WireError::new(
                format!("expected `{}`", byte as char),
                self.pos,
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(WireError::new(format!("expected `{word}`"), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, WireError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(WireError::new(
                format!("unexpected character `{}`", other as char),
                self.pos,
            )),
            None => Err(WireError::new("unexpected end of input", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, WireError>,
    ) -> Result<JsonValue, WireError> {
        if self.depth == MAX_DEPTH {
            return Err(WireError::new(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, WireError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
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
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(WireError::new("expected `,` or `}` in object", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, WireError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(WireError::new("expected `,` or `]` in array", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(WireError::new("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| WireError::new("unterminated escape", self.pos))?;
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
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(WireError::new(
                                format!("unknown escape `\\{}`", other as char),
                                self.pos - 1,
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar, not one byte: the
                    // input is a &str, so boundaries are trustworthy.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| WireError::new("invalid UTF-8 in string", self.pos))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, WireError> {
        let unit = self.hex4()?;
        // Surrogate pairs: a high surrogate must be followed by an
        // escaped low surrogate; anything else is malformed.
        if (0xD800..=0xDBFF).contains(&unit) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&low) {
                    let combined =
                        0x10000 + ((u32::from(unit) - 0xD800) << 10) + (u32::from(low) - 0xDC00);
                    return char::from_u32(combined)
                        .ok_or_else(|| WireError::new("invalid surrogate pair", self.pos));
                }
            }
            return Err(WireError::new("unpaired surrogate escape", self.pos));
        }
        char::from_u32(u32::from(unit))
            .ok_or_else(|| WireError::new("invalid \\u escape", self.pos))
    }

    fn hex4(&mut self) -> Result<u16, WireError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| WireError::new("truncated \\u escape", self.pos))?;
        let unit = u16::from_str_radix(digits, 16)
            .map_err(|_| WireError::new("non-hex \\u escape", self.pos))?;
        self.pos = end;
        Ok(unit)
    }

    fn number(&mut self) -> Result<JsonValue, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| WireError::new(format!("bad number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" false ").unwrap(), JsonValue::Bool(false));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Num(42.0));
        assert_eq!(JsonValue::parse("-1.5e2").unwrap(), JsonValue::Num(-150.0));
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::Str("hi".to_owned())
        );
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let v = JsonValue::parse(r#"{"b":[1,{"x":null}],"a":"z"}"#).unwrap();
        let JsonValue::Object(pairs) = &v else {
            panic!("an object parses to an object: {v:?}");
        };
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        assert_eq!(v.get("a").and_then(JsonValue::as_str), Some("z"));
        let b = v.get("b").and_then(JsonValue::as_array).unwrap();
        assert_eq!(b[0].as_u64(), Some(1));
        assert_eq!(b[1].get("x"), Some(&JsonValue::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let raw = "a\"b\\c\nd\te\u{1}f/δ";
        let rendered = json_string(raw);
        let parsed = JsonValue::parse(&rendered).unwrap();
        assert_eq!(parsed.as_str(), Some(raw));
        // Surrogate pair decoding.
        let v = JsonValue::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "tru",
            "{\"a\" 1}",
            "1 2",
            "{'a':1}",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn integer_accessor_is_exact() {
        assert_eq!(JsonValue::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(JsonValue::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-7").unwrap().as_u64(), None);
        // 2^53 + 1 is not representable exactly — refuse to pretend.
        assert_eq!(JsonValue::parse("9007199254740993").unwrap().as_u64(), None);
    }

    #[test]
    fn render_round_trips_real_report_shapes() {
        let text = r#"{"total":4,"pass_rate":0.75,"cache":{"hits":2},"tests":[{"env":"PAGE","results":{"golden":"pass"}}]}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
        assert_eq!(v.to_json(), text, "integer-valued numbers render bare");
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nest = |depth: usize| {
                let mut text = open.repeat(depth);
                text.push('1');
                text.push_str(&close.repeat(depth));
                text
            };
            assert!(
                JsonValue::parse(&nest(MAX_DEPTH)).is_ok(),
                "{open} at the cap"
            );
            let err = JsonValue::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
            let message = format!("nesting deeper than {MAX_DEPTH} levels");
            assert!(err.to_string().contains(&message), "{err}");
            assert_eq!(err.offset(), MAX_DEPTH * open.len());
            // Far past the cap, unterminated: an error, not a stack
            // overflow.
            assert!(JsonValue::parse(&open.repeat(1 << 20)).is_err(), "{open}");
        }
    }

    #[test]
    fn shape_accessors_name_the_missing_field() {
        let v = JsonValue::parse(r#"{"cmd":"status"}"#).unwrap();
        assert_eq!(v.str_field("cmd").unwrap(), "status");
        let err = v.u64_field("job").unwrap_err();
        assert!(err.to_string().contains("`job`"), "{err}");
    }
}
