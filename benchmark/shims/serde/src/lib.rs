//! Stand-in for `serde`: `Serialize`/`Deserialize` with their derives, routed
//! through one in-memory [`Value`] tree.
//!
//! A serializer's one required method takes a finished `Value` and a
//! deserializer's one required method gives one up, so a data format (here
//! only `serde_json`) is a `Value` printer and a `Value` parser. The method
//! names the ig-* crates call (`serialize_str`, `serialize_some`,
//! `String::deserialize`, `de::Error::custom`) keep the published signatures.

use std::fmt::{self, Display};

pub use serde_derive::{Deserialize, Serialize};

/// The data model every value passes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Entries in declaration order, so output is a pure function of the value.
    Map(Vec<(String, Value)>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::U64(_) | Value::I64(_) => "an integer",
            Value::F64(_) => "a float",
            Value::Str(_) => "a string",
            Value::Seq(_) => "a sequence",
            Value::Map(_) => "a map",
        }
    }
}

/// The error of the `Value` serializer and deserializer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

pub mod ser {
    pub use super::{Serialize, Serializer};
    use std::fmt::Display;

    pub trait Error: Sized + Display {
        fn custom<T: Display>(msg: T) -> Self;
    }

    impl Error for super::Error {
        fn custom<T: Display>(msg: T) -> Self {
            super::Error(msg.to_string())
        }
    }
}

pub mod de {
    pub use super::{Deserialize, Deserializer};
    use std::fmt::Display;

    pub trait Error: Sized + Display {
        fn custom<T: Display>(msg: T) -> Self;
    }

    impl Error for super::Error {
        fn custom<T: Display>(msg: T) -> Self {
            super::Error(msg.to_string())
        }
    }
}

pub trait Serializer: Sized {
    type Ok;
    type Error: ser::Error;

    fn serialize_value(self, value: Value) -> Result<Self::Ok, Self::Error>;

    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Bool(v))
    }

    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::U64(v))
    }

    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(if v >= 0 {
            Value::U64(v as u64)
        } else {
            Value::I64(v)
        })
    }

    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::F64(v))
    }

    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Str(v.to_string()))
    }

    fn serialize_none(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Null)
    }

    fn serialize_some<T: ?Sized + Serialize>(self, v: &T) -> Result<Self::Ok, Self::Error> {
        let value = to_value(v).map_err(ser::Error::custom)?;
        self.serialize_value(value)
    }
}

pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

pub trait Deserializer<'de>: Sized {
    type Error: de::Error;

    fn into_value(self) -> Result<Value, Self::Error>;
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// The serializer whose output is the `Value` itself.
pub struct ValueSerializer;

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;

    fn serialize_value(self, value: Value) -> Result<Value, Error> {
        Ok(value)
    }
}

/// The deserializer that reads from a `Value`.
pub struct ValueDeserializer(pub Value);

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = Error;

    fn into_value(self) -> Result<Value, Error> {
        Ok(self.0)
    }
}

pub fn to_value<T: ?Sized + Serialize>(v: &T) -> Result<Value, Error> {
    v.serialize(ValueSerializer)
}

pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T, Error> {
    T::deserialize(ValueDeserializer(value))
}

fn unexpected<E: de::Error>(want: &str, got: &Value) -> E {
    E::custom(format_args!("expected {want}, found {}", got.kind()))
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_i64(*self as i64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let value = d.into_value()?;
                let out = match value {
                    Value::U64(n) => <$t>::try_from(n).ok(),
                    Value::I64(n) => <$t>::try_from(n).ok(),
                    _ => return Err(unexpected(stringify!($t), &value)),
                };
                out.ok_or_else(|| de::Error::custom(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}
int_impls!(i8, i16, i32, i64, isize, u8, u16, u32);

macro_rules! wide_uint_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_u64(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let value = d.into_value()?;
                match value {
                    Value::U64(n) => <$t>::try_from(n)
                        .map_err(|_| de::Error::custom(concat!("integer out of range for ", stringify!($t)))),
                    _ => Err(unexpected(stringify!($t), &value)),
                }
            }
        }
    )*};
}
wide_uint_impls!(u64, usize);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Bool(b) => Ok(b),
            other => Err(unexpected("a boolean", &other)),
        }
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_f64(*self)
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::F64(x) => Ok(x),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            other => Err(unexpected("a number", &other)),
        }
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Str(s) => Ok(s),
            other => Err(unexpected("a string", &other)),
        }
    }
}

impl<T: ?Sized + Serialize> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let items: Result<Vec<Value>, Error> = self.iter().map(to_value).collect();
        s.serialize_value(Value::Seq(items.map_err(ser::Error::custom)?))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Seq(items) => items
                .into_iter()
                .map(|v| from_value(v).map_err(de::Error::custom))
                .collect(),
            other => Err(unexpected("a sequence", &other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => s.serialize_some(v),
            None => s.serialize_none(),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Null => Ok(None),
            value => from_value(value).map(Some).map_err(de::Error::custom),
        }
    }
}

/// What the derives expand to. Not for hand-written code.
#[doc(hidden)]
pub mod __private {
    use super::{de, ser, Deserialize, Deserializer, Error, Serialize, Value, ValueDeserializer};

    pub fn ser_field<S: super::Serializer, T: ?Sized + Serialize>(
        v: &T,
    ) -> Result<Value, S::Error> {
        super::to_value(v).map_err(ser::Error::custom)
    }

    /// Lift the result of a `#[serde(with = "..")]` function into the caller's error.
    pub fn lift_ser<S: super::Serializer>(r: Result<Value, Error>) -> Result<Value, S::Error> {
        r.map_err(ser::Error::custom)
    }

    pub fn lift_de<'de, D: Deserializer<'de>, T>(r: Result<T, Error>) -> Result<T, D::Error> {
        r.map_err(de::Error::custom)
    }

    /// The named fields of a struct or of a struct variant.
    pub struct Fields {
        owner: &'static str,
        entries: Vec<(String, Value)>,
    }

    pub fn fields<'de, D: Deserializer<'de>>(
        d: D,
        owner: &'static str,
    ) -> Result<Fields, D::Error> {
        match d.into_value()? {
            Value::Map(entries) => Ok(Fields { owner, entries }),
            other => Err(super::unexpected(&format!("a map for {owner}"), &other)),
        }
    }

    impl Fields {
        /// Remove and return a field; an absent one reads as `null`, so an
        /// `Option` field may be left out and any other type reports the miss.
        pub fn take(&mut self, name: &str) -> ValueDeserializer {
            let value = match self.entries.iter().position(|(k, _)| k == name) {
                Some(i) => self.entries.swap_remove(i).1,
                None => Value::Null,
            };
            ValueDeserializer(value)
        }

        pub fn field<'de, D: Deserializer<'de>, T: for<'a> Deserialize<'a>>(
            &mut self,
            name: &str,
        ) -> Result<T, D::Error> {
            T::deserialize(self.take(name))
                .map_err(|e| de::Error::custom(format_args!("{}.{name}: {e}", self.owner)))
        }
    }

    /// Split an externally tagged enum into its variant name and content.
    pub fn variant<'de, D: Deserializer<'de>>(
        d: D,
        owner: &'static str,
    ) -> Result<(String, ValueDeserializer), D::Error> {
        match d.into_value()? {
            Value::Str(name) => Ok((name, ValueDeserializer(Value::Null))),
            Value::Map(mut entries) if entries.len() == 1 => {
                let (name, content) = entries.pop().expect("length checked");
                Ok((name, ValueDeserializer(content)))
            }
            other => Err(super::unexpected(&format!("a variant of {owner}"), &other)),
        }
    }

    pub fn unknown_variant<E: de::Error>(owner: &str, name: &str) -> E {
        E::custom(format_args!("unknown variant `{name}` of {owner}"))
    }
}
