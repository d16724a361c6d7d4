//! Stand-in for `serde_json`: `to_vec`/`to_string`/`from_slice`/`from_str` as a
//! printer and a parser of the serde stand-in's `Value`.
//!
//! Output is compact, with map entries in declaration order, as the published
//! crate prints a derived struct. Input comes off sockets (certificates,
//! handshake tokens, MyProxy messages), so the parser rejects trailing bytes,
//! bounds nesting, and never panics.

use serde::{Deserialize, Serialize, Value};
use std::fmt::{self, Display, Write};

/// Deepest nesting the parser follows.
const MAX_DEPTH: usize = 128;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let value = serde::to_value(value).map_err(|e| Error(e.0))?;
    let mut out = String::new();
    print(&value, &mut out);
    Ok(out)
}

pub fn to_vec<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn from_str<T: for<'de> Deserialize<'de>>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

pub fn from_slice<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T> {
    let mut parser = Parser { bytes, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_space();
    if parser.pos != bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    serde::from_value(value).map_err(|e| Error(e.0))
}

fn print(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
        Value::I64(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
        // `{:?}` keeps a fraction or exponent, so the text parses back as a float.
        Value::F64(x) if x.is_finite() => {
            write!(out, "{x:?}").expect("writing to a String cannot fail")
        }
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => print_str(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print_str(key, out);
                out.push(':');
                print(item, out);
            }
            out.push('}');
        }
    }
}

fn print_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
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
    fn error(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_space(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_space();
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_space();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_space();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_space();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_space();
                    let key = self.string()?;
                    self.skip_space();
                    self.expect(b':')?;
                    entries.push((key, self.value(depth + 1)?));
                    self.skip_space();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number characters are ASCII");
        let value = if float {
            text.parse().ok().map(Value::F64)
        } else if text.starts_with('-') {
            text.parse().ok().map(Value::I64)
        } else {
            text.parse().ok().map(Value::U64)
        };
        value.ok_or_else(|| Error(format!("invalid number `{text}` at byte {start}")))
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one step.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[run..self.pos])
                .map_err(|_| self.error("invalid UTF-8 in string"))?;
            out.push_str(text);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("unfinished escape"))?;
                    self.pos += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("invalid escape")),
                    });
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape whose `\u` is already consumed,
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.error("lone surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.error("invalid surrogate pair"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Inner {
        id: u64,
        label: String,
        ratio: f64,
        note: Option<String>,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        Named {
            items: Vec<Inner>,
            signed: i32,
            flag: bool,
        },
    }

    #[test]
    fn derived_types_round_trip_and_print_like_serde_json() {
        let inner = Inner {
            id: u64::MAX,
            label: "a \"q\" \\ \n \u{1} é 😀".into(),
            ratio: 1.0,
            note: None,
        };
        let text = to_string(&inner).unwrap();
        assert_eq!(
            text,
            "{\"id\":18446744073709551615,\"label\":\"a \\\"q\\\" \\\\ \\n \\u0001 é 😀\",\"ratio\":1.0,\"note\":null}"
        );
        assert_eq!(from_str::<Inner>(&text).unwrap(), inner);
        let shape = Shape::Named {
            items: vec![inner.clone(), inner],
            signed: -7,
            flag: true,
        };
        let text = to_string(&shape).unwrap();
        assert!(text.starts_with("{\"Named\":{\"items\":[{"));
        assert_eq!(from_str::<Shape>(&text).unwrap(), shape);
        assert_eq!(to_string(&Shape::Unit).unwrap(), "\"Unit\"");
        assert_eq!(from_str::<Shape>(" \"Unit\" ").unwrap(), Shape::Unit);
        assert_eq!(
            from_str::<String>("\"\\ud83d\\ude00\\u00e9\"").unwrap(),
            "😀é"
        );
    }

    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"id\":}",
            "\"abc",
            "\"\\u12\"",
            "\"\\ud800x\"",
            "nul",
            "1 2",
            "{\"a\" 1}",
            "[1 2]",
            "-",
            "1e",
            "\"\u{1}\"",
            "{\"Other\":{}}",
            "\"Missing\"",
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(from_str::<Inner>("{\"id\":-1,\"label\":\"\",\"ratio\":0}").is_err());
        assert!(
            from_str::<Inner>("{\"id\":1,\"ratio\":0}").is_err(),
            "missing field"
        );
        let deep = "[".repeat(100_000);
        assert!(from_str::<Vec<u64>>(&deep).is_err());
        assert!(from_slice::<String>(&[b'"', 0xff, b'"']).is_err());
    }
}
