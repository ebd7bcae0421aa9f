//! A JSON document without a schema.

use crate::{Deserialize, Error, Number, Reader, Serialize, Writer};

/// Any JSON value, as a tree: for documents read, edited and written back
/// by code that knows their shape only loosely (`cargo xtask bench-record`
/// and its `BENCH_*.json`). Nothing on an encode or decode path of the
/// engine builds one.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer that fits `i64`.
    Int(i64),
    /// An integer above `i64::MAX`.
    UInt(u64),
    /// A number with a fraction or an exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Seq(Vec<Value>),
    /// An object, members in document order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The member of an object under `key` (the first, if it repeats).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl Serialize for Value {
    fn serialize(&self, out: &mut Writer) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Int(i) => out.int(*i),
            Value::UInt(u) => out.uint(*u),
            Value::Float(x) => out.float(*x),
            Value::Str(s) => out.str(s),
            Value::Seq(items) => out.seq(items),
            Value::Map(members) => {
                out.begin_map();
                for (at, (key, value)) in members.iter().enumerate() {
                    out.key_str(at == 0, key);
                    value.serialize(out);
                }
                out.end_map(members.is_empty());
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.peek() {
            Some(b'n') => {
                r.null()?;
                Value::Null
            }
            Some(b't' | b'f') => Value::Bool(r.bool()?),
            Some(b'"') => Value::Str(r.string()?.into_owned()),
            Some(b'[') => Value::Seq(Deserialize::deserialize(r)?),
            Some(b'{') => {
                r.begin_map()?;
                let mut members = Vec::new();
                while let Some(key) = r.map_next(members.is_empty())? {
                    members.push((key.into_owned(), Value::deserialize(r)?));
                }
                Value::Map(members)
            }
            _ => match r.number()? {
                Number::Int(i) => Value::Int(i),
                Number::UInt(u) => Value::UInt(u),
                Number::Float(x) => Value::Float(x),
            },
        })
    }
}
