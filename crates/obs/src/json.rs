//! Hand-rolled JSON primitives: string escaping for the JSONL writer and a
//! minimal line parser for round-trip tests and downstream tooling.
//!
//! Deliberately small: objects, arrays, strings, numbers, booleans and
//! null — the subset the [`crate::Snapshot::write_jsonl`] schema emits.
//! Integers up to `u64::MAX` parse losslessly into [`Json::Int`]; anything
//! fractional or negative falls back to [`Json::Num`]. Nesting is capped
//! at [`MAX_DEPTH`], so hostile input cannot overflow the parser's stack.

use std::collections::BTreeMap;
use std::fmt;

/// Escapes a string for embedding in a JSON string literal (without the
/// surrounding quotes): `"` and `\` are backslash-escaped, control
/// characters use `\n`/`\r`/`\t` or `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Deepest array/object nesting [`parse`] accepts. The parser is
/// recursive descent, so without a cap one line of `[[[…` could overflow
/// the stack of whatever thread parses it (a serve connection thread, a
/// JSONL or `check --json` reader). Every document this workspace writes
/// nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with source-independent (sorted) key access.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as `u64`, if it is an [`Json::Int`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Member `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What was wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value (typically one JSONL line).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, trailing garbage, or
/// nesting deeper than [`MAX_DEPTH`] ("nesting too deep").
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

/// Parses every non-empty line of a JSONL document, in order.
///
/// # Errors
///
/// Fails on the first malformed line.
pub fn parse_lines(input: &str) -> Result<Vec<Json>, ParseError> {
    input.lines().filter(|l| !l.trim().is_empty()).map(parse).collect()
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes; `pos` indexes both and always sits on a char
    /// boundary.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError { at: self.pos, message }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let value = body(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("unpaired surrogate"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote
                    // or backslash in one go: both are ASCII, so the run
                    // ends on a char boundary. Scanning only this run keeps
                    // the parser linear in the input length.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let plain =
                        self.text.get(self.pos..run).ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(plain);
                    self.pos = run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let bad = ParseError { at: start, message: "bad number" };
        let text = self.text.get(start..self.pos).ok_or_else(|| bad.clone())?;
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Int(v));
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials_and_control() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\tz"), "x\\ny\\tz");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("µs"), "µs");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-1.5").unwrap(), Json::Num(-1.5));
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).unwrap();
        let arr = v.get("a").unwrap();
        match arr {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Int(1));
                assert_eq!(items[2].get("b").unwrap().as_str(), Some("c"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn roundtrips_escaped_strings() {
        let original = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode µ";
        let wire = format!("\"{}\"", escape(original));
        assert_eq!(parse(&wire).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn nesting_is_capped_without_overflowing_the_stack() {
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.at, MAX_DEPTH);
        let err = parse(&"{\"a\":".repeat(100_000)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        // Exactly MAX_DEPTH levels still parse.
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deepest).is_ok());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&too_deep).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // ~1 MiB of short-string objects: the per-character rescan of the
        // rest of the document this guards against took 26.8 s here in a
        // release build.
        let item = r#"{"k":"abcdefghijklmnop","v":"qrstuvwxyz"}"#;
        let count = (1 << 20) / (item.len() + 1);
        let doc = format!("[{}]", vec![item; count].join(","));
        let started = std::time::Instant::now();
        let Json::Arr(items) = parse(&doc).unwrap() else { panic!("expected an array") };
        let elapsed = started.elapsed();
        assert_eq!(items.len(), count);
        assert_eq!(items[count - 1].get("v").and_then(Json::as_str), Some("qrstuvwxyz"));
        assert!(elapsed < std::time::Duration::from_secs(2), "took {elapsed:?}");
    }

    #[test]
    fn a_60_kib_string_in_a_serve_line_parses() {
        let long = "µ1:".repeat(60 * 1024 / 4);
        let line = format!(r#"{{"op":"plan","ratio":"{long}","pad":"a\"b"}}"#);
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ratio").and_then(Json::as_str), Some(long.as_str()));
        assert_eq!(v.get("pad").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn parses_lines() {
        let lines = parse_lines("{\"a\":1}\n\n{\"b\":2}\n").unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].get("b").unwrap().as_u64(), Some(2));
    }
}
