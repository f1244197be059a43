//! Minimal JSON emit + parse.
//!
//! The workspace builds offline, without a serialization framework, so
//! the exporters build their JSON by hand.
//! This module centralizes both directions: string escaping / number
//! formatting for emitters, a writer for a parsed [`Value`]
//! ([`write_value`], which trace merge re-emits documents through), and
//! a small recursive-descent parser ([`parse`], its inverse) used by
//! tests, trace merge and `swgmx_mdrun --profile`. The parser reads files
//! from disk, so its recursion is bounded: nesting deeper than
//! [`MAX_DEPTH`] is a [`ParseError`], not a stack overflow.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64, like JavaScript).
    Num(f64),
    /// String (unescaped).
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object; insertion order is not preserved (sorted by key).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string.
///
/// Output is pure ASCII: everything outside printable ASCII — control
/// characters (C0 *and* DEL/C1) and all non-ASCII — is emitted as
/// `\uXXXX`, with non-BMP scalars split into UTF-16 surrogate pairs.
/// Span/metric labels are arbitrary user strings, so the emitter must
/// not assume they are tame.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ' '..='~' => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
    out.push('"');
}

/// `s` as a quoted, escaped JSON string.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// Format an f64 the way JSON expects (no NaN/Inf; trailing precision
/// trimmed so integers stay integers).
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Append `v` to `out` as compact JSON. Object members come out in
/// key order (a [`Value::Obj`] keeps no other); [`parse`] reads the
/// output back to an equal value whenever every number is finite.
pub fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => out.push_str(&number(*n)),
        Value::Str(s) => write_escaped(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Every document this
/// workspace emits nests at most 6 deep.
pub const MAX_DEPTH: usize = 128;

/// Parse error: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.num(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// One level of nesting, refused past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(m));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(v));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.pos += 1;
                            s.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    s.push(c);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let tail = std::str::from_utf8(rest).map_err(|_| self.err("bad UTF-8"))?;
                    let c = tail
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Exactly four hex digits at the cursor (strict: `from_str_radix`
    /// would accept a leading `+`).
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for i in 0..4 {
            let b = *self
                .bytes
                .get(self.pos + i)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("bad \\u escape")),
            };
            v = v * 16 + digit as u32;
        }
        self.pos += 4;
        Ok(v)
    }

    /// Body of a `\u` escape, cursor on the first hex digit. Handles
    /// UTF-16 surrogate pairs (the emitter produces them for non-BMP
    /// scalars); a lone surrogate decodes as U+FFFD rather than
    /// rejecting the document.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&hi) {
            if self.bytes.get(self.pos) == Some(&b'\\')
                && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                let save = self.pos;
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..=0xDFFF).contains(&lo) {
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return Ok(char::from_u32(cp).unwrap_or('\u{fffd}'));
                }
                // Lookahead was an ordinary escape, not the low half:
                // rewind and let the loop handle it on its own.
                self.pos = save;
            }
            return Ok('\u{fffd}');
        }
        if (0xDC00..=0xDFFF).contains(&hi) {
            return Ok('\u{fffd}');
        }
        Ok(char::from_u32(hi).unwrap_or('\u{fffd}'))
    }

    fn num(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+')) {
            self.pos += 1;
        }
        // A `-` inside an exponent (1e-5) is consumed by the loop above
        // only if we allow it: handle exponent sign explicitly.
        if matches!(self.bytes.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
            && self.peek() == Some(b'-')
        {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        for s in ["plain", "with \"quotes\"", "tab\there", "nl\nthere", "π∂"] {
            let doc = escaped(s);
            assert_eq!(parse(&doc).unwrap(), Value::Str(s.to_string()), "{doc}");
        }
    }

    #[test]
    fn escapes_are_pure_ascii_including_surrogate_pairs() {
        // Non-BMP scalar: U+1F680 -> \ud83d\ude80.
        let doc = escaped("go \u{1F680} now");
        assert!(doc.is_ascii(), "{doc}");
        assert!(doc.contains("\\ud83d\\ude80"), "{doc}");
        assert_eq!(parse(&doc).unwrap(), Value::Str("go \u{1F680} now".into()));
        // DEL and C1 controls must not pass through raw.
        let doc = escaped("a\u{7f}b\u{9b}c");
        assert!(doc.is_ascii() && doc.contains("\\u007f") && doc.contains("\\u009b"));
        assert_eq!(parse(&doc).unwrap(), Value::Str("a\u{7f}b\u{9b}c".into()));
    }

    #[test]
    fn lone_surrogates_decode_as_replacement() {
        assert_eq!(parse("\"\\ud800\"").unwrap(), Value::Str("\u{fffd}".into()));
        assert_eq!(parse("\"\\udfff\"").unwrap(), Value::Str("\u{fffd}".into()));
        // High surrogate followed by a non-surrogate escape: the high
        // half becomes U+FFFD, the follower survives.
        assert_eq!(
            parse("\"\\ud800\\u0041\"").unwrap(),
            Value::Str("\u{fffd}A".into())
        );
    }

    #[test]
    fn strict_hex_in_unicode_escapes() {
        for bad in ["\"\\u+123\"", "\"\\u12g4\"", "\"\\u12\"", "\"\\u\""] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3e-2], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        for (open, n) in [("[", 1_000_000), ("{\"a\":", 200_000)] {
            let err = parse(&open.repeat(n)).unwrap_err();
            assert_eq!(err.msg, "nesting too deep");
            assert_eq!(
                err.at,
                MAX_DEPTH * open.len(),
                "refused at the first level past the cap"
            );
        }
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert_eq!(parse(&past_cap).unwrap_err().msg, "nesting too deep");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(3.25), "3.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(
            parse(&number(1234567.875)).unwrap().as_num(),
            Some(1234567.875)
        );
    }
}
