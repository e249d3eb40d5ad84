//! Offline stand-in for `serde`.
//!
//! The build container has no registry access, so the workspace patches
//! `serde` to this crate (see `[patch.crates-io]` in the root
//! `Cargo.toml`). Instead of the full serde data model (visitors,
//! `Serializer`/`Deserializer` dispatch), this stand-in routes
//! everything through one concrete JSON-shaped tree, [`__private::Value`]:
//!
//! * [`Serialize`] converts a value **to** a [`__private::Value`]. It is
//!   fallible, as real serde's is: integers beyond 2^53 (which a JSON
//!   number cannot carry exactly) are an error instead of being rounded.
//!   An `f64` always serializes to [`Value::Number`](__private::Value),
//!   so a NaN or infinity stays visible in the tree for the caller to
//!   reject (the text writer in `serde_json` prints it as `null`);
//! * [`Deserialize`] reconstructs a value **from** one.
//!
//! The `serde_derive` stand-in generates impls of these two traits and
//! the `serde_json` stand-in renders/parses the tree as JSON text.
//!
//! # Derive support
//!
//! * structs with named fields → JSON objects keyed by field name;
//! * enums of unit variants → JSON strings holding the variant name;
//! * enums with named-field variants, given a container `tag` → JSON
//!   objects carrying the variant name under the tag key.
//!
//! Attributes (`#[serde(...)]`):
//!
//! | where | attribute | effect |
//! |-------|-----------|--------|
//! | enum | `tag = "kind"` | internally tagged: `{"kind": "variant", ...fields}` |
//! | enum | `rename_all = "lowercase"` | variant names lowercased |
//! | struct | `default` | a missing or `null` key takes the field of `Default::default()` |
//! | struct | `deny_unknown_fields` | a key no field names is an error |
//! | struct, enum | `expecting = "name"` | the name container errors use (default: the type name) |
//! | field | `rename = "key"` | the JSON key differs from the field name |
//! | field | `default = "path"` | a missing or `null` key takes `path()` |
//! | field | `with = "module"` | `module::serialize(&T) -> Result<Value, Error>` and `module::deserialize(&Value) -> Result<T, Error>` replace the field type's impls |
//!
//! Anything else — tuple structs, generics (lifetimes included), data
//! variants without a `tag`, unknown attributes — is a compile error
//! naming the limitation:
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Pair(f64, f64);
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! struct Wrapper<T> {
//!     inner: T,
//! }
//! ```
//!
//! # Errors
//!
//! An error names where it happened once. A container (a derived struct
//! or enum) names itself — `unknown spec key 'kernal'`, `spec must be a
//! JSON object` — and such an error passes through enclosing fields
//! unchanged. Any other error is prefixed with the innermost field
//! that holds it: ``field `time`: expected number``.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// Support machinery shared by the derive macro and `serde_json`.
///
/// The name mirrors real serde's hidden support module; unlike real
/// serde's, this one is a documented, stable part of the stand-in.
pub mod __private {
    use std::collections::BTreeMap;
    use std::fmt;

    /// A JSON-shaped tree: the single interchange format of the
    /// stand-in (re-exported as `serde_json::Value`).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// JSON `null`.
        Null,
        /// JSON booleans.
        Bool(bool),
        /// JSON numbers (all stored as `f64`; integers up to 2^53
        /// round-trip exactly).
        Number(f64),
        /// JSON strings.
        String(String),
        /// JSON arrays.
        Array(Vec<Value>),
        /// JSON objects, ordered by key for deterministic output.
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// The object map, if this is an object.
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Object(m) => Some(m),
                _ => None,
            }
        }

        /// The array items, if this is an array.
        pub fn as_array(&self) -> Option<&Vec<Value>> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }

        /// The string contents, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }

        /// The number as `f64`, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The number as `u64`, if this is a non-negative integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                    Some(*n as u64)
                }
                _ => None,
            }
        }

        /// The boolean, if this is a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// Whether this is `null`.
        pub fn is_null(&self) -> bool {
            matches!(self, Value::Null)
        }

        /// Looks up `key` when this is an object (`None` otherwise).
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.as_object().and_then(|m| m.get(key))
        }
    }

    /// Serialization/deserialization failure: a message, and whether it
    /// already names where it happened (see the crate docs).
    #[derive(Debug, Clone, PartialEq)]
    pub struct Error {
        message: String,
        located: bool,
    }

    impl Error {
        /// An error carrying `message`; the enclosing field names it.
        pub fn custom(message: impl Into<String>) -> Self {
            Error {
                message: message.into(),
                located: false,
            }
        }

        /// An error whose `message` already names its place (a derived
        /// container's own errors); enclosing fields leave it as is.
        pub fn located(message: impl Into<String>) -> Self {
            Error {
                message: message.into(),
                located: true,
            }
        }
    }

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    impl std::error::Error for Error {}

    /// The value under `key`, treating an explicit `null` like a
    /// missing key (derived code applies defaults to both).
    pub fn present<'a>(obj: &'a BTreeMap<String, Value>, key: &str) -> Option<&'a Value> {
        obj.get(key).filter(|v| !v.is_null())
    }

    /// Names field `key` in `result`'s error unless it names its own
    /// place already.
    pub fn at<T>(key: &str, result: Result<T, Error>) -> Result<T, Error> {
        result.map_err(|e| {
            if e.located {
                e
            } else {
                Error::located(format!("field `{key}`: {}", e.message))
            }
        })
    }
}

use __private::{Error, Value};

/// Conversion to the stand-in's interchange tree (see crate docs).
pub trait Serialize {
    /// This value as a [`__private::Value`].
    ///
    /// # Errors
    ///
    /// Returns [`__private::Error`] when the value has no exact JSON
    /// form (an integer beyond 2^53).
    fn serialize(&self) -> Result<Value, Error>;
}

/// Reconstruction from the stand-in's interchange tree (see crate
/// docs).
pub trait Deserialize: Sized {
    /// Parses `v` into `Self`.
    ///
    /// # Errors
    ///
    /// Returns [`__private::Error`] when `v` has the wrong shape.
    fn deserialize(v: &Value) -> Result<Self, Error>;
}

impl Serialize for Value {
    fn serialize(&self) -> Result<Value, Error> {
        Ok(self.clone())
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Result<Value, Error> {
        Ok(Value::Bool(*self))
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected boolean"))
    }
}

impl Serialize for String {
    fn serialize(&self) -> Result<Value, Error> {
        Ok(Value::String(self.clone()))
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Result<Value, Error> {
        Ok(Value::Number(*self))
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

/// Largest magnitude a JSON number (an `f64`) carries exactly.
const MAX_EXACT_INT: u128 = 1 << 53;

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Result<Value, Error> {
                if (*self as i128).unsigned_abs() <= MAX_EXACT_INT {
                    Ok(Value::Number(*self as f64))
                } else {
                    Err(Error::custom(format!(
                        "integer {self} exceeds JSON's exact range"
                    )))
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) if n.fract() == 0.0 => {
                        let i = *n as i128;
                        <$t>::try_from(i)
                            .map_err(|_| Error::custom("integer out of range"))
                    }
                    _ => Err(Error::custom("expected integer")),
                }
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Result<Value, Error> {
        match self {
            Some(x) => x.serialize(),
            None => Ok(Value::Null),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::deserialize(v).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Result<Value, Error> {
        self.as_slice().serialize()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Result<Value, Error> {
        self.iter()
            .map(Serialize::serialize)
            .collect::<Result<_, _>>()
            .map(Value::Array)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self) -> Result<Value, Error> {
        Ok(Value::Array(vec![self.0.serialize()?, self.1.serialize()?]))
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v.as_array().map(Vec::as_slice) {
            Some([a, b]) => Ok((A::deserialize(a)?, B::deserialize(b)?)),
            _ => Err(Error::custom("expected 2-element array")),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn serialize(&self) -> Result<Value, Error> {
        self.iter()
            .map(|(k, v)| Ok((k.clone(), v.serialize()?)))
            .collect::<Result<_, _>>()
            .map(Value::Object)
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object"))?
            .iter()
            .map(|(k, x)| Ok((k.clone(), V::deserialize(x)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_beyond_two_to_the_53_do_not_serialize() {
        assert_eq!(
            (1u64 << 53).serialize(),
            Ok(Value::Number(9_007_199_254_740_992.0))
        );
        assert_eq!((-(1i64 << 53)).serialize().map(|_| ()), Ok(()));
        for err in [((1u64 << 53) + 1).serialize(), u64::MAX.serialize()] {
            assert!(err.unwrap_err().to_string().contains("exact range"));
        }
    }

    #[test]
    fn non_finite_floats_stay_visible_in_the_tree() {
        let v = f64::NAN.serialize().unwrap();
        assert!(matches!(v, Value::Number(n) if n.is_nan()));
    }

    #[test]
    fn field_errors_are_named_once() {
        let leaf = __private::at("time", f64::deserialize(&Value::Null));
        assert_eq!(
            leaf.unwrap_err().to_string(),
            "field `time`: expected number"
        );
        let own = __private::at::<f64>("region", Err(Error::located("unknown region key 'z'")));
        assert_eq!(own.unwrap_err().to_string(), "unknown region key 'z'");
    }
}
