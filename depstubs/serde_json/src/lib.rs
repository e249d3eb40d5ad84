//! Offline stand-in for `serde_json`.
//!
//! Renders and parses the serde stand-in's [`Value`] tree as JSON
//! text. Numbers are stored as `f64` and printed with Rust's shortest
//! round-trip formatting, so every value survives
//! `from_str(&to_string(v))` bit-exactly (the real crate's
//! `float_roundtrip` behaviour); integers round-trip exactly up to
//! 2^53. Non-finite numbers serialize as `null`, as in the real crate,
//! and a number literal too large for an `f64` (`1e999`) is a parse
//! error ("number out of range"), never an infinity.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;

pub use serde::__private::Error;
pub use serde::__private::Value;

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Returns [`Error`] when [`serde::Serialize::serialize`] fails (an
/// integer beyond 2^53).
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize()?, &mut out, None, 0);
    Ok(out)
}

/// Serializes `value` as two-space-indented JSON.
///
/// # Errors
///
/// As [`to_string`].
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize()?, &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any [`serde::Deserialize`] type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    T::deserialize(&v)
}

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => {
            if n.is_finite() {
                // Rust's `Display` for f64 is shortest-round-trip.
                out.push_str(&n.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            if !map.is_empty() {
                newline_indent(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * depth) {
            out.push(' ');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(Error::custom(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::custom("invalid UTF-8 in string"))?,
            );
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error::custom("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::custom("bad \\u escape"))?;
                            // Surrogate pairs are not reassembled; the
                            // workspace never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::custom("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::custom("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            Ok(_) => Err(Error::custom("number out of range")),
            Err(_) => Err(Error::custom(format!("invalid number `{text}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips() {
        let mut obj = BTreeMap::new();
        obj.insert("pi".to_string(), Value::Number(std::f64::consts::PI));
        obj.insert("neg".to_string(), Value::Number(-0.001));
        obj.insert("n".to_string(), Value::Number(12345.0));
        obj.insert("s".to_string(), Value::String("a \"b\"\n\\c".to_string()));
        obj.insert(
            "a".to_string(),
            Value::Array(vec![Value::Null, Value::Bool(true), Value::Bool(false)]),
        );
        obj.insert("empty".to_string(), Value::Array(vec![]));
        let v = Value::Object(obj);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
        // Pretty output parses back to the same tree too.
        let pretty = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [1.0e-300, 0.1 + 0.2, f64::MAX, 1.5e300, -7.25] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn overflowing_numbers_are_out_of_range() {
        for text in ["1e999", "-1e999", "[0.5, 1e400]"] {
            let err = from_str::<Value>(text).unwrap_err();
            assert_eq!(err.to_string(), "number out of range", "{text}");
        }
        // Underflow rounds to zero, as in the real crate.
        assert_eq!(from_str::<f64>("1e-999").unwrap(), 0.0);
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("\"open").is_err());
    }
}
