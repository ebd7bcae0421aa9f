//! Offline stand-in for `serde_json`: the entry points around the `serde`
//! shim's JSON [`Writer`] and [`Reader`]. A value is written straight into
//! the output string and read straight off the input text; no value tree
//! is built in between.
//!
//! Maps are arrays of `[key, value]` pairs (keys need not be strings), so
//! round trips are lossless.

#![forbid(unsafe_code)]

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
        Error(e.0.into())
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

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn compact_and_pretty_texts_read_back_alike() {
        let text =
            r#"{"a":[1,-2,3.5,"x\ny",null,true],"b":{},"c":[[1,"k"]],"d":18446744073709551615}"#;
        let value: Value = from_str(text).unwrap();
        assert_eq!(to_string(&value).unwrap(), text);
        let pretty = to_string_pretty(&value).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    -2,\n    3.5,\n    \"x\\ny\",\n    null,\n    true\n  ],\
             \n  \"b\": {},\n  \"c\": [\n    [\n      1,\n      \"k\"\n    ]\n  ],\
             \n  \"d\": 18446744073709551615\n}"
        );
        assert_eq!(from_str::<Value>(&pretty).unwrap(), value);
        assert_eq!(value.get("d"), Some(&Value::UInt(u64::MAX)));
    }

    #[test]
    fn a_document_is_all_there_is() {
        assert_eq!(from_str::<u32>(" 7 \n").unwrap(), 7);
        let err = from_str::<u32>("7 8").unwrap_err();
        assert_eq!(
            err.to_string(),
            "JSON error: trailing characters at offset 2"
        );
        assert!(from_str::<Vec<u32>>("[1,2").is_err());
        assert!(from_str::<Value>("").is_err());
    }
}
