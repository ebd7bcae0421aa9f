//! Offline stand-in for `serde_json`: the entry points around the `serde`
//! shim's JSON [`Writer`] and [`Reader`]. A value is written straight into
//! the output string and read straight off the input text; no value tree
//! is built in between.
//!
//! Maps are arrays of `[key, value]` pairs (keys need not be strings), so
//! round trips are lossless.

use serde::{Deserialize, Reader, Serialize, Writer};
use std::fmt;

/// JSON (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

fn written<T: Serialize + ?Sized>(value: &T, mut out: Writer) -> Result<String, Error> {
    value.serialize(&mut out);
    Ok(out.finish())
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    written(value, Writer::compact())
}

/// Serializes a value to human-readable, indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    written(value, Writer::pretty(2))
}

/// Parses a JSON document into a deserializable value; anything but
/// whitespace after it is an error.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.end()?;
    Ok(value)
}
