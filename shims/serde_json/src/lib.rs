//! Offline stand-in for the [`serde_json`](https://crates.io/crates/serde_json)
//! crate.
//!
//! Renders the shim [`serde::Value`] tree as standard JSON text and parses
//! JSON text back, so artifacts written by this workspace (trained models,
//! trace reports) are plain interoperable JSON files. Implements the subset
//! PowerLens uses: [`to_string`], [`to_string_pretty`] and [`from_str`].
//!
//! Numbers are carried as `f64` and printed with Rust's shortest
//! round-trip formatting, so `f64` model weights survive a save/load cycle
//! bit-exactly. Non-finite floats are rejected (like upstream, which has no
//! JSON representation for them).
//!
//! # Example
//!
//! ```
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Debug, PartialEq, Serialize, Deserialize)]
//! struct Point { x: f64, y: f64 }
//!
//! let p = Point { x: 1.5, y: -2.0 };
//! let json = serde_json::to_string(&p).unwrap();
//! assert_eq!(json, r#"{"x":1.5,"y":-2}"#);
//! let back: Point = serde_json::from_str(&json).unwrap();
//! assert_eq!(back, p);
//! ```

use std::fmt;

pub use serde::Value;

/// Serialization / deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn write_num(out: &mut String, n: f64) -> Result<()> {
    if !n.is_finite() {
        return Err(Error::new(format!(
            "cannot serialize non-finite number {n}"
        )));
    }
    out.push_str(&format!("{n}"));
    Ok(())
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>) -> Result<()> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(out, *n)?,
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent.map(|d| d + 1));
                write_value(out, item, indent.map(|d| d + 1))?;
            }
            if !items.is_empty() {
                newline_indent(out, indent);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent.map(|d| d + 1));
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent.map(|d| d + 1))?;
            }
            if !fields.is_empty() {
                newline_indent(out, indent);
            }
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite number.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None)?;
    Ok(out)
}

/// Serializes a value to human-readable, two-space-indented JSON text.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite number.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(0))?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest nesting of arrays and objects [`from_str`] accepts (upstream
/// serde_json's default recursion limit). Parsing recurses once per level,
/// so without a bound a few kilobytes of `[` overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'s> {
    bytes: &'s [u8],
    pos: usize,
    depth: usize,
}

impl<'s> Parser<'s> {
    fn new(s: &'s str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.err(&format!("unexpected character `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        // Fast path: a plain integer short enough to stay exact in an i64
        // accumulator skips the general f64 parser. Most real documents
        // (shapes, counts, indices) are almost entirely such integers.
        let mut int: i64 = 0;
        let int_start = self.pos;
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
            if self.pos - int_start >= 18 {
                break;
            }
            int = int * 10 + i64::from(b - b'0');
            self.pos += 1;
        }
        if self.pos > int_start
            && !matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            )
        {
            return Ok(Value::Num(if neg { -(int as f64) } else { int as f64 }));
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: a \uXXXX low surrogate follows.
                                if !self.eat_literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                let combined =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?
                            };
                            out.push(c);
                            continue; // parse_hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the maximal run of unescaped bytes with one
                    // UTF-8 validation. Breaking on the raw `"` and `\`
                    // bytes is safe: both are ASCII, and ASCII byte values
                    // never appear inside a multi-byte UTF-8 sequence.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or on shape mismatch with `T`.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(T::from_value(&v)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip() {
        let v = Value::Object(vec![
            ("a".into(), Value::Num(1.5)),
            (
                "b".into(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".into(), Value::Str("hi \"there\"\n".into())),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MAX,
            5e-324,
            -0.0,
            123_456_789.123_456_79,
        ] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text}");
        }
    }

    #[test]
    fn non_finite_rejected() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&f64::INFINITY).is_err());
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v: Value = from_str(" { \"x\" : [ 1 , 2.5 , { } ] } ").unwrap();
        assert_eq!(
            v,
            Value::Object(vec![(
                "x".into(),
                Value::Array(vec![
                    Value::Num(1.0),
                    Value::Num(2.5),
                    Value::Object(vec![])
                ])
            )])
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<Value>(&objects).is_err());
        // Far past the bound: refused, not a stack overflow.
        assert!(from_str::<Value>(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn unicode_escapes() {
        let s: Value = from_str(r#""é😀""#).unwrap();
        assert_eq!(s, Value::Str("é😀".into()));
    }

    #[test]
    fn pretty_print_is_parseable() {
        let v = Value::Object(vec![(
            "xs".into(),
            Value::Array(vec![Value::Num(1.0), Value::Num(2.0)]),
        )]);
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains('\n'));
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, v);
    }
}
