//! Offline stand-in for `serde` providing the exact surface this workspace
//! uses: [`Serialize`] / [`Deserialize`] traits, the derive macros
//! re-exported from `serde_derive`, and the JSON text they work on.
//!
//! There is no intermediate value model: `Serialize::serialize` writes
//! compact JSON straight into a [`Writer`]'s buffer and
//! `Deserialize::deserialize` pulls tokens from a [`Reader`] over the input
//! text — a record costs its bytes, not a tree of them. `serde_json` (the
//! sibling shim) is the entry points (`to_string`, `from_str`) around the
//! two. [`Value`] is what is left of the old interchange form: one more
//! type implementing both traits, for documents edited without a schema.
//!
//! The encoding (what the derive macros and the impls below agree on):
//!
//! * named-field struct  → `{"field": value, ...}`, fields in declaration
//!   order; read in any order, unknown fields skipped, a missing or
//!   repeated field an error
//! * newtype struct      → the inner value
//! * tuple struct, tuple → `[...]`, of exactly that length
//! * unit struct, `()`   → `null`
//! * unit enum variant   → `"Variant"`
//! * tuple enum variant  → `{"Variant": [...]}`
//! * struct enum variant → `{"Variant": {...}}`
//! * `Option`            → `null` or the value
//! * sequences and sets  → `[...]`
//! * maps                → `[[key, value], ...]` (keys need not be strings)

mod read;
mod value;
mod write;

pub use read::{Number, Reader, MAX_DEPTH};
pub use serde_derive::{Deserialize, Serialize};
pub use value::Value;
pub use write::Writer;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// Deserialization error: what was expected, and where.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serialization as JSON text.
pub trait Serialize {
    /// Writes `self` into `out`.
    fn serialize(&self, out: &mut Writer);
}

/// Deserialization from JSON text.
pub trait Deserialize: Sized {
    /// Reads one `Self` off `r`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

// ----------------------------------------------------------------------
// Helpers used by derive-generated code
// ----------------------------------------------------------------------

/// Reads the value of field `name` into its slot; a second one is an error.
pub fn read_field<T: Deserialize>(
    slot: &mut Option<T>,
    name: &'static str,
    r: &mut Reader<'_>,
) -> Result<(), Error> {
    if slot.is_some() {
        return Err(Error(format!("duplicate field {name:?}")));
    }
    *slot = Some(T::deserialize(r)?);
    Ok(())
}

/// The value read for field `name`; none is an error.
pub fn take_field<T>(slot: Option<T>, name: &'static str) -> Result<T, Error> {
    slot.ok_or_else(|| Error(format!("missing field {name:?}")))
}

/// The error for a variant name the enum does not have (or has in the
/// other shape: a payload where the variant has none, or none where it
/// has one).
pub fn unknown_variant(tag: &str, of: &'static str) -> Error {
    Error(format!("unknown variant {tag:?} of {of}"))
}

// ----------------------------------------------------------------------
// Primitive impls
// ----------------------------------------------------------------------

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Writer) {
                out.int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let converted = match r.number()? {
                    Number::Int(i) => <$t>::try_from(i).ok(),
                    Number::UInt(u) => <$t>::try_from(u).ok(),
                    Number::Float(_) => None,
                };
                converted.ok_or_else(|| Error(format!("expected {}", stringify!($t))))
            }
        }
    )*};
}
int_impl!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

impl Serialize for u64 {
    fn serialize(&self, out: &mut Writer) {
        out.uint(*self)
    }
}

impl Deserialize for u64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        match r.number()? {
            Number::Int(i) => u64::try_from(i).map_err(|_| Error(format!("{i} negative"))),
            Number::UInt(u) => Ok(u),
            Number::Float(_) => Err(Error("expected u64".into())),
        }
    }
}

impl Serialize for f64 {
    fn serialize(&self, out: &mut Writer) {
        out.float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.number()? {
            Number::Float(x) => x,
            Number::Int(i) => i as f64,
            Number::UInt(u) => u as f64,
        })
    }
}

impl Serialize for f32 {
    fn serialize(&self, out: &mut Writer) {
        out.float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        f64::deserialize(r).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self, out: &mut Writer) {
        out.bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.bool()
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Writer) {
        out.str(self)
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Writer) {
        out.str(self)
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.string().map(|s| s.into_owned())
    }
}

impl Deserialize for Arc<str> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.string().map(|s| Arc::from(&*s))
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut Writer) {
        out.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = r.string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error(format!("expected char, got {s:?}"))),
        }
    }
}

impl Serialize for () {
    fn serialize(&self, out: &mut Writer) {
        out.null()
    }
}

impl Deserialize for () {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.null()
    }
}

// ----------------------------------------------------------------------
// Composite impls
// ----------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Writer) {
        (**self).serialize(out)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, out: &mut Writer) {
        (**self).serialize(out)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize(&self, out: &mut Writer) {
        (**self).serialize(out)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Writer) {
        match self {
            None => out.null(),
            Some(x) => x.serialize(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.opt_null() {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, out: &mut Writer) {
        out.begin_seq();
        out.elem(true);
        self.0.serialize(out);
        out.elem(false);
        self.1.serialize(out);
        out.end_seq(false);
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_seq()?;
        let pair = (r.elem(true)?, r.elem(false)?);
        r.close_seq(false)?;
        Ok(pair)
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self, out: &mut Writer) {
        out.begin_seq();
        out.elem(true);
        self.0.serialize(out);
        out.elem(false);
        self.1.serialize(out);
        out.elem(false);
        self.2.serialize(out);
        out.end_seq(false);
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_seq()?;
        let triple = (r.elem(true)?, r.elem(false)?, r.elem(false)?);
        r.close_seq(false)?;
        Ok(triple)
    }
}

/// The elements of an array, one `T` each.
struct Elements<'r, 'a, T> {
    r: &'r mut Reader<'a>,
    first: bool,
    of: std::marker::PhantomData<T>,
}

impl<T: Deserialize> Iterator for Elements<'_, '_, T> {
    type Item = Result<T, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        let more = self.r.seq_next(std::mem::take(&mut self.first));
        match more {
            Ok(true) => Some(T::deserialize(self.r)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Reads an array into any collection of its element type (a map's being
/// the `(key, value)` pair).
fn collect<T: Deserialize, C: FromIterator<T>>(r: &mut Reader<'_>) -> Result<C, Error> {
    r.begin_seq()?;
    let elements = Elements {
        r,
        first: true,
        of: std::marker::PhantomData,
    };
    elements.collect()
}

macro_rules! seq_impl {
    ($($c:ident: $($bound:path),*;)*) => {$(
        impl<T: Serialize> Serialize for $c<T> {
            fn serialize(&self, out: &mut Writer) {
                out.seq(self)
            }
        }
        impl<T: Deserialize $(+ $bound)*> Deserialize for $c<T> {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                collect(r)
            }
        }
    )*};
}
seq_impl! {
    Vec: ;
    BTreeSet: Ord;
    HashSet: Eq, Hash;
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Writer) {
        out.seq(self)
    }
}

macro_rules! map_impl {
    ($($c:ident: $($bound:path),*;)*) => {$(
        impl<K: Serialize, V: Serialize> Serialize for $c<K, V> {
            fn serialize(&self, out: &mut Writer) {
                out.pairs(self)
            }
        }
        impl<K: Deserialize $(+ $bound)*, V: Deserialize> Deserialize for $c<K, V> {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                collect::<(K, V), Self>(r)
            }
        }
    )*};
}
map_impl! {
    BTreeMap: Ord;
    HashMap: Eq, Hash;
}
