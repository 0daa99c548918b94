//! Minimal, dependency-free JSON: a [`Json`] value type, a strict parser with
//! character positions in its error messages, and a canonical renderer.
//!
//! The serving protocol is JSON-*lines* — one request object per line, one response
//! object per line — so the parser rejects trailing garbage after the top-level
//! value and never needs streaming. Numbers are kept as `f64` (integers up to 2⁵³
//! round-trip exactly, which covers every counter and node id the protocol
//! carries); rendering writes integral numbers without a decimal point so counters
//! look like counters.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser recurses once
/// per level, so without a bound a line of a few hundred thousand `[` overflows
/// the thread's stack; no protocol message or report nests more than a few levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved for deterministic rendering.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.err("unexpected trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractions and
    /// out-of-range values).
    pub fn as_usize(&self) -> Option<usize> {
        let v = self.as_f64()?;
        if v.fract() == 0.0 && (0.0..9.007_199_254_740_992e15).contains(&v) {
            Some(v as usize)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build a number from a usize (exact up to 2⁵³).
    pub fn num(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl fmt::Display for Json {
    /// Canonical single-line rendering (no insignificant whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => {
                if !v.is_finite() {
                    // JSON has no NaN/Inf; null is the least-surprising spelling.
                    write!(f, "null")
                } else if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
                    write!(f, "{}", *v as i64)
                } else {
                    write!(f, "{v}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> String {
        format!("char {}: {message}", self.pos + 1)
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

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(&format!("unexpected character '{}'", other as char))),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
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
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let code = self.unicode_escape()?;
                            out.push(code);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so boundaries are
                    // valid; find the end of the current char).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        // self.pos is at 'u'.
        let hex = |p: &Self, start: usize| -> Result<u32, String> {
            let slice = p
                .bytes
                .get(start..start + 4)
                .ok_or_else(|| p.err("truncated \\u escape"))?;
            let text = std::str::from_utf8(slice).map_err(|_| p.err("invalid \\u escape"))?;
            u32::from_str_radix(text, 16).map_err(|_| p.err("invalid \\u escape"))
        };
        let first = hex(self, self.pos + 1)?;
        self.pos += 5;
        if (0xd800..0xdc00).contains(&first) {
            // High surrogate: require the paired low surrogate.
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                let second = hex(self, self.pos + 2)?;
                if (0xdc00..0xe000).contains(&second) {
                    self.pos += 6;
                    let combined = 0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00);
                    return char::from_u32(combined)
                        .ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate in \\u escape"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, String> {
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
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str) -> String {
        Json::parse(text).unwrap().to_string()
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(round_trip("null"), "null");
        assert_eq!(round_trip("true"), "true");
        assert_eq!(round_trip(" -12.5e2 "), "-1250");
        assert_eq!(round_trip("3.25"), "3.25");
        assert_eq!(
            round_trip("\"a\\nb\\\"c\\u0041\""),
            "\"a\\nb\\\"c\\u0041\"".replace("\\u0041", "A")
        );
        assert_eq!(round_trip("[1, 2, [3], {}]"), "[1,2,[3],{}]");
        assert_eq!(
            round_trip("{\"a\": 1, \"b\": [true, null]}"),
            "{\"a\":1,\"b\":[true,null]}"
        );
        assert_eq!(round_trip("[]"), "[]");
    }

    #[test]
    fn surrogate_pairs_and_unicode_survive() {
        assert_eq!(round_trip("\"\\ud83d\\ude00\""), "\"😀\"");
        assert_eq!(round_trip("\"héllo\""), "\"héllo\"");
        assert!(Json::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn errors_carry_positions() {
        for (input, fragment) in [
            ("", "end of input"),
            ("{", "string key"),
            ("{\"a\" 1}", "expected ':'"),
            ("[1 2]", "',' or ']'"),
            ("nul", "invalid literal"),
            ("\"abc", "unterminated"),
            ("{} extra", "trailing"),
            ("{\"a\":1,}", "string key"),
            ("+1", "unexpected character"),
            (
                "[".repeat(200_000).as_str(),
                "char 129: nesting deeper than 128 levels",
            ),
        ] {
            let err = Json::parse(input).unwrap_err();
            assert!(err.contains("char "), "{input}: {err}");
            assert!(err.contains(fragment), "{input}: {err}");
        }
        // The bound itself still parses.
        assert!(Json::parse(&("[".repeat(128) + &"]".repeat(128))).is_ok());
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Json::parse("{\"cmd\":\"seed\",\"add\":[[3,1]],\"flag\":true,\"n\":7}").unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("seed"));
        assert_eq!(v.get("n").and_then(Json::as_usize), Some(7));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        let add = v.get("add").and_then(Json::as_array).unwrap();
        assert_eq!(add[0].as_array().unwrap()[1].as_usize(), Some(1));
        assert!(v.get("absent").is_none());
        assert!(Json::Num(1.5).as_usize().is_none());
        assert!(Json::Num(-1.0).as_usize().is_none());
    }

    #[test]
    fn rendering_escapes_and_formats_numbers() {
        let v = Json::obj(vec![
            ("s", Json::str("a\"b\\c\nd")),
            ("int", Json::num(42)),
            ("float", Json::Num(0.5)),
            ("nan", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"int\":42,\"float\":0.5,\"nan\":null}"
        );
    }
}
