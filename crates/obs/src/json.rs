//! The one JSON codec: a value tree, a writer, a parser, and the typed
//! encode/decode layer that every security token in the tree travels
//! through (certificates, CSRs, GSI handshake and delegation messages,
//! MyProxy logon, admin frames, trace lines, metric snapshots).
//!
//! `ig-obs` sits below every other runtime crate in the dependency
//! graph, so the codec is std-only. Encoding rules (DESIGN.md §10):
//! compact separators; struct fields in declaration order; enums
//! externally tagged (`{"Variant":{..}}`); `None` is `null`; `Vec<u8>`
//! is a lowercase hex string; integers are exact `u64`/`i64`. TBS and
//! CSR bodies are *signed* and re-encoded on verify, so these bytes are
//! pinned by the recorded vectors in `tests/vectors/`.
//!
//! The parser reads input a peer chose: it makes one pass, nests at most
//! [`MAX_DEPTH`] deep, and answers a typed [`Error`], never a panic.

use std::fmt;

/// A JSON value; also the typed field value attached to an event or metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Finite float (NaN/inf are emitted as `null`).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Array.
    Arr(Vec<Value>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Non-negative integral payload (`4096` and `4096.0` both count).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::F64(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= 2f64.powi(53) => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// Numeric payload as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            Value::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// Bool payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// `From<$ty>` by way of the variant that carries it.
macro_rules! value_from {
    ($($ty:ty => $variant:ident),+) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Self {
                Value::$variant(v.into())
            }
        }
    )+};
}
value_from!(u64 => U64, u32 => U64, i64 => I64, f64 => F64, bool => Bool);
value_from!(&str => Str, String => Str);

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Build a `(key, value)` field pair; sugar for event call sites.
pub fn kv(key: &str, value: impl Into<Value>) -> (String, Value) {
    (key.to_string(), value.into())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Append `s` as a JSON string literal (quotes included) to `out`.
pub fn escape_str_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a [`Value`] in JSON syntax to `out`.
///
/// f64 uses Rust's shortest-roundtrip `Display`, which is deterministic
/// for a given bit pattern — a requirement for byte-stable trace replays.
pub fn value_into(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) if x.is_finite() => out.push_str(&x.to_string()),
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => escape_str_into(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                value_into(out, item);
            }
            out.push(']');
        }
        Value::Obj(fields) => fields_into(out, fields),
    }
}

/// Append `fields` as a JSON object, preserving insertion order.
pub fn fields_into(out: &mut String, fields: &[(String, Value)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_str_into(out, k);
        out.push(':');
        value_into(out, v);
    }
    out.push('}');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest nesting of arrays and objects [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Why a document was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input at byte `offset` (or its end there) is not `expected`:
    /// malformed JSON, a bad escape or lone surrogate, a non-finite
    /// number, bytes that are not UTF-8.
    Syntax {
        /// Where parsing stopped.
        offset: usize,
        /// What the grammar allows at that point.
        expected: &'static str,
    },
    /// Arrays/objects nested deeper than [`MAX_DEPTH`], at `offset`.
    Depth {
        /// Offset of the bracket that crossed the cap.
        offset: usize,
    },
    /// Well-formed JSON of the wrong shape for the requested type: a
    /// missing field, a wrong type, an unknown variant, bad hex.
    Shape(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { offset, expected } => write!(f, "expected {expected} at offset {offset}"),
            Error::Depth { offset } => write!(f, "nesting deeper than {MAX_DEPTH} at offset {offset}"),
            Error::Shape(what) => f.write_str(what),
        }
    }
}

impl std::error::Error for Error {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser { s, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(v),
        Some(_) => Err(p.syntax("end of input")),
    }
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Step over an opening bracket; true if the container closes at once.
    fn open(&mut self, depth: usize, close: u8) -> Result<bool, Error> {
        if depth >= MAX_DEPTH {
            return Err(Error::Depth { offset: self.pos });
        }
        self.pos += 1;
        self.skip_ws();
        Ok(self.eat(close))
    }

    /// After an element: true at the closing bracket, false at a comma.
    fn closes(&mut self, close: u8, expected: &'static str) -> Result<bool, Error> {
        self.skip_ws();
        if self.eat(b',') {
            Ok(false)
        } else if self.eat(close) {
            Ok(true)
        } else {
            Err(self.syntax(expected))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn syntax(&self, expected: &'static str) -> Error {
        Error::Syntax { offset: self.pos, expected }
    }

    fn literal(&mut self, word: &'static str, v: Value) -> Result<Value, Error> {
        if self.s.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.syntax(word))
        }
    }

    /// `depth` is the number of enclosing arrays/objects; the recursion
    /// is bounded by [`MAX_DEPTH`], not by the input.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                let mut items = Vec::new();
                if !self.open(depth, b']')? {
                    loop {
                        items.push(self.value(depth + 1)?);
                        if self.closes(b']', "',' or ']'")? {
                            break;
                        }
                    }
                }
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                if !self.open(depth, b'}')? {
                    loop {
                        self.skip_ws();
                        if self.peek() != Some(b'"') {
                            return Err(self.syntax("a string key"));
                        }
                        let key = self.string()?;
                        self.skip_ws();
                        if !self.eat(b':') {
                            return Err(self.syntax("':'"));
                        }
                        fields.push((key, self.value(depth + 1)?));
                        if self.closes(b'}', "',' or '}'")? {
                            break;
                        }
                    }
                }
                Ok(Value::Obj(fields))
            }
            _ => Err(self.syntax("a value")),
        }
    }

    /// A run of number characters, read as an exact `u64` (`i64` when
    /// negative) if it is one, else as a finite `f64`.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        let text = &self.s[start..self.pos];
        if let Ok(n) = text.parse() {
            return Ok(Value::U64(n));
        }
        if let Ok(n) = text.parse() {
            return Ok(Value::I64(n));
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::F64(x)),
            _ => Err(Error::Syntax { offset: start, expected: "a finite number" }),
        }
    }

    /// Called at the opening quote. Unescaped runs are copied whole: the
    /// delimiters are ASCII, so every run boundary is a char boundary.
    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.s[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                _ => return Err(self.syntax("a closing quote")),
            }
        }
    }

    /// Called at the backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let bad = Error::Syntax { offset: self.pos, expected: "a valid escape" };
        self.pos += 1;
        Ok(match self.next() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4().ok_or(bad.clone())?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate is only valid as the first half of a pair.
                    if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                        return Err(bad);
                    }
                    let low = self.hex4().filter(|l| (0xDC00..0xE000).contains(l));
                    code = 0x10000 + ((code - 0xD800) << 10) + (low.ok_or(bad.clone())? - 0xDC00);
                }
                char::from_u32(code).ok_or(bad)?
            }
            _ => return Err(bad),
        })
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.s.as_bytes().get(self.pos..self.pos + 4)?;
        let digit = |acc: u32, &d: &u8| Some(acc * 16 + char::from(d).to_digit(16)?);
        let code = digits.iter().try_fold(0, digit)?;
        self.pos += 4;
        Some(code)
    }
}

// ---------------------------------------------------------------------------
// Typed layer
// ---------------------------------------------------------------------------

/// A type with a JSON encoding (the rules are in the module doc).
pub trait Json: Sized {
    /// This value as a tree.
    fn to_json(&self) -> Value;
    /// Read `v`; a value of the wrong shape is [`Error::Shape`].
    fn from_json(v: &Value) -> Result<Self, Error>;
}

/// Render `v` as a string.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    value_into(&mut out, v);
    out
}

/// Encode `v` to bytes.
pub fn to_vec<T: Json>(v: &T) -> Vec<u8> {
    to_string(&v.to_json()).into_bytes()
}

/// [`parse`] for bytes that still have to prove they are UTF-8.
pub fn parse_slice(bytes: &[u8]) -> Result<Value, Error> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| Error::Syntax { offset: e.valid_up_to(), expected: "utf-8" })?;
    parse(text)
}

/// Parse and decode `bytes`. Callers cap the length (frame and PEM
/// limits) before calling.
pub fn from_slice<T: Json>(bytes: &[u8]) -> Result<T, Error> {
    T::from_json(&parse_slice(bytes)?)
}

fn shape<T>(expected: &str, got: &Value) -> Result<T, Error> {
    let got = match got {
        Value::Null => "null",
        Value::U64(_) | Value::I64(_) | Value::F64(_) => "a number",
        Value::Str(_) => "a string",
        Value::Bool(_) => "a boolean",
        Value::Arr(_) => "an array",
        Value::Obj(_) => "an object",
    };
    Err(Error::Shape(format!("expected {expected}, got {got}")))
}

/// [`Json`] for a scalar: out through `From`, in from the one variant
/// that fits.
macro_rules! json_scalar {
    ($($ty:ty, $what:literal, $fits:pat $(if $guard:expr)? => $got:expr;)+) => {$(
        impl Json for $ty {
            fn to_json(&self) -> Value {
                self.clone().into()
            }
            fn from_json(v: &Value) -> Result<Self, Error> {
                match v {
                    $fits $(if $guard)? => Ok($got),
                    other => shape($what, other),
                }
            }
        }
    )+};
}
json_scalar! {
    u64, "an unsigned integer", Value::U64(n) => *n;
    u32, "a 32-bit unsigned integer", Value::U64(n) if *n <= u64::from(u32::MAX) => *n as u32;
    bool, "a boolean", Value::Bool(b) => *b;
    String, "a string", Value::Str(s) => s.clone();
}

/// Bytes travel as a lowercase hex string.
impl Json for Vec<u8> {
    fn to_json(&self) -> Value {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let nibbles = self.iter().flat_map(|b| [b >> 4, b & 0xf]);
        Value::Str(nibbles.map(|n| char::from(DIGITS[usize::from(n)])).collect())
    }
    fn from_json(v: &Value) -> Result<Self, Error> {
        let Value::Str(s) = v else { return shape("a hex string", v) };
        let nibble = |d: u8| char::from(d).to_digit(16).map(|n| n as u8);
        let pairs = s.as_bytes().chunks_exact(2);
        if !pairs.remainder().is_empty() {
            return Err(Error::Shape("odd-length hex string".into()));
        }
        pairs
            .map(|p| Some(nibble(p[0])? << 4 | nibble(p[1])?))
            .collect::<Option<Vec<u8>>>()
            .ok_or_else(|| Error::Shape("non-hex digit in hex string".into()))
    }
}

impl<T: Json> Json for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_json).collect(),
            other => shape("an array", other),
        }
    }
}

impl<T: Json> Json for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

/// Decode the field `name` of the object `obj`. Unknown fields are never
/// looked at; an absent field reads as `null`, so it decodes to `None`
/// for an `Option` and is an error for anything else.
pub fn field<T: Json>(obj: &Value, name: &str) -> Result<T, Error> {
    let Value::Obj(_) = obj else { return shape("an object", obj) };
    T::from_json(obj.get(name).unwrap_or(&Value::Null))
        .map_err(|e| Error::Shape(format!("field `{name}`: {e}")))
}

/// Split an externally tagged enum, `{"Variant":{..}}`, into its tag and
/// the object holding the variant's fields.
pub fn variant(v: &Value) -> Result<(&str, &Value), Error> {
    match v {
        Value::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, &fields[0].1)),
        other => shape("an object with one key naming the variant", other),
    }
}

/// Implement [`Json`] for a plain struct, or for an enum whose variants
/// all have named fields, with the field and variant names as keys:
///
/// ```text
/// json_codec!(struct Validity { not_before, not_after });
/// json_codec!(enum ScpReply { Ok { len }, Err { message } });
/// ```
#[macro_export]
macro_rules! json_codec {
    (struct $ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::json::Json for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![$(
                    $crate::json::kv(stringify!($f), $crate::json::Json::to_json(&self.$f))
                ),+])
            }
            fn from_json(v: &$crate::json::Value) -> ::std::result::Result<Self, $crate::json::Error> {
                Ok($ty { $( $f: $crate::json::field(v, stringify!($f))? ),+ })
            }
        }
    };
    (enum $ty:ident { $($var:ident { $($f:ident),+ $(,)? }),+ $(,)? }) => {
        impl $crate::json::Json for $ty {
            fn to_json(&self) -> $crate::json::Value {
                let (tag, fields) = match self {
                    $( $ty::$var { $($f),+ } => (stringify!($var), vec![$(
                        $crate::json::kv(stringify!($f), $crate::json::Json::to_json($f))
                    ),+]), )+
                };
                $crate::json::Value::Obj(vec![$crate::json::kv(tag, $crate::json::Value::Obj(fields))])
            }
            fn from_json(v: &$crate::json::Value) -> ::std::result::Result<Self, $crate::json::Error> {
                let (tag, body) = $crate::json::variant(v)?;
                match tag {
                    $( stringify!($var) => Ok($ty::$var {
                        $( $f: $crate::json::field(body, stringify!($f))? ),+
                    }), )+
                    other => Err($crate::json::Error::Shape(format!("unknown variant `{other}`"))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_controls_and_quotes() {
        let mut s = String::new();
        escape_str_into(&mut s, "a\"b\\c\nd\x01e");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001e\"");
    }

    #[test]
    fn values_render() {
        let mut s = String::new();
        value_into(&mut s, &Value::U64(7));
        value_into(&mut s, &Value::I64(-2));
        value_into(&mut s, &Value::Bool(true));
        value_into(&mut s, &Value::F64(1.5));
        value_into(&mut s, &Value::F64(f64::NAN));
        assert_eq!(s, "7-2true1.5null");
    }

    #[test]
    fn fields_preserve_order() {
        let mut s = String::new();
        fields_into(&mut s, &[kv("z", 1u64), kv("a", "x")]);
        assert_eq!(s, "{\"z\":1,\"a\":\"x\"}");
    }
}
