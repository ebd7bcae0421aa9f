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
//!
//! # What is fast, what is cold
//!
//! A journal line or a snapshot costs its bytes, not its tokens:
//!
//! * **Writing compact text** — derived code appends a member's separator,
//!   key and colon as one literal (`,"key":`, [`Writer::member`]), an enum
//!   variant's opening as another (`{"Variant":`, [`Writer::variant`]), a
//!   unit variant's quoted name as a third ([`Writer::tag`]); integers are
//!   formatted two digits at a time from a table; a string without
//!   anything to escape is copied whole. Pretty text (`BENCH_*.json`)
//!   takes its own branch of each structural call and is byte-for-byte
//!   what it always was.
//! * **Reading compact text** — the mirror of writing it. Every hot
//!   step of [`Reader`] is inlined into the decoder that takes it: a
//!   bracket, comma or colon is one byte compared in place; derived code
//!   hands the reader its field names ([`Reader::field`]) and matches the
//!   `"key":` of the member declared after the last one read as it stands;
//!   an enum tag is matched in place against its variants' names and comes
//!   back as an index ([`Reader::variant`]), no tag string built; an
//!   integer of at most 18 digits is read by one loop; a vector is filled
//!   by a loop, not through an iterator of `Result`s; a string without an
//!   escape is borrowed. An [`Error`] holds a boxed `str`, so a decoder's
//!   `Result` is at most two words wider than its value.
//! * **Cold** — whitespace, escapes (both ways), fractions and exponents,
//!   signs, integers of more than 18 digits, a member or a tag not where
//!   compact text puts it, and every error. A cold path reads its token
//!   the general way, and every error the reader returns is the error,
//!   with the text, that the one general path returned
//!   (`tests/tests/codec_reference.rs` holds it to that path, kept as
//!   `adept_tests::reference::json`); a text spaced out or escaped
//!   decodes to what its compact twin decodes to
//!   (`codec_bytes.rs::spaced_and_escaped_texts_decode_as_their_compact_twins`).
//!
//! The codec has no `unsafe`: hostile bytes reach the reader first, and
//! every failure there is an [`Error`], never a panic or an out-of-bounds
//! read.

#![forbid(unsafe_code)]

mod read;
mod value;
mod write;

// The derive names the crate by its path; its tests derive too.
#[cfg(test)]
extern crate self as serde;

pub use read::{Number, Reader, MAX_DEPTH};
pub use serde_derive::{Deserialize, Serialize};
pub use value::Value;
pub use write::Writer;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

/// Deserialization error: what was expected, and where. The text is a
/// boxed `str`, two words, not a `String`'s three: every `Result` a
/// decoder returns carries it.
#[derive(Debug, Clone)]
pub struct Error(pub Box<str>);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl Error {
    /// The error `message` describes.
    #[cold]
    pub fn new(message: String) -> Self {
        Error(message.into_boxed_str())
    }
}

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
#[inline]
pub fn read_field<T: Deserialize>(
    slot: &mut Option<T>,
    name: &'static str,
    r: &mut Reader<'_>,
) -> Result<(), Error> {
    if slot.is_some() {
        return Err(field_error("duplicate", name));
    }
    *slot = Some(T::deserialize(r)?);
    Ok(())
}

/// The value read for field `name`; none is an error.
#[inline]
pub fn take_field<T>(slot: Option<T>, name: &'static str) -> Result<T, Error> {
    match slot {
        Some(value) => Ok(value),
        None => Err(field_error("missing", name)),
    }
}

#[cold]
#[inline(never)]
fn field_error(what: &str, name: &str) -> Error {
    Error::new(format!("{what} field {name:?}"))
}

/// The error for a variant name the enum does not have (or has in the
/// other shape: a payload where the variant has none, or none where it
/// has one).
#[cold]
#[inline(never)]
pub fn unknown_variant(tag: &str, of: &'static str) -> Error {
    Error::new(format!("unknown variant {tag:?} of {of}"))
}

// ----------------------------------------------------------------------
// Primitive impls
// ----------------------------------------------------------------------

macro_rules! int_serialize {
    ($write:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, out: &mut Writer) {
                out.$write(*self as $wide)
            }
        }
    )*};
}
int_serialize!(int as i64: i8, i16, i32, i64, isize);
int_serialize!(uint as u64: u8, u16, u32, u64, usize);

macro_rules! int_deserialize {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            #[inline(always)]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let converted = match r.small_uint() {
                    Some(u) => <$t>::try_from(u).ok(),
                    None => match r.number()? {
                        Number::Int(i) => <$t>::try_from(i).ok(),
                        Number::UInt(u) => <$t>::try_from(u).ok(),
                        Number::Float(_) => None,
                    },
                };
                match converted {
                    Some(n) => Ok(n),
                    None => Err(expected(stringify!($t))),
                }
            }
        }
    )*};
}
int_deserialize!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

#[cold]
#[inline(never)]
fn expected(what: &str) -> Error {
    Error::new(format!("expected {what}"))
}

impl Deserialize for u64 {
    #[inline(always)]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if let Some(u) = r.small_uint() {
            return Ok(u);
        }
        match r.number()? {
            Number::Int(i) => u64::try_from(i).map_err(|_| negative(i)),
            Number::UInt(u) => Ok(u),
            Number::Float(_) => Err(expected("u64")),
        }
    }
}

#[cold]
#[inline(never)]
fn negative(i: i64) -> Error {
    Error::new(format!("{i} negative"))
}

impl Serialize for f64 {
    fn serialize(&self, out: &mut Writer) {
        out.float(*self)
    }
}

impl Deserialize for f64 {
    #[inline]
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
    #[inline]
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
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.string().map(|s| s.into_owned())
    }
}

impl Deserialize for Arc<str> {
    #[inline]
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
            _ => Err(Error::new(format!("expected char, got {s:?}"))),
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
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize(&self, out: &mut Writer) {
        (**self).serialize(out)
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Arc::new)
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
    #[inline]
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
    #[inline]
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
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_seq()?;
        let triple = (r.elem(true)?, r.elem(false)?, r.elem(false)?);
        r.close_seq(false)?;
        Ok(triple)
    }
}

/// Reads an array into a set or a map (a map's element being the `(key,
/// value)` pair), element by element; the last of equal keys wins.
fn collect<T: Deserialize, C: Default + Extend<T>>(r: &mut Reader<'_>) -> Result<C, Error> {
    r.begin_seq()?;
    let mut items = C::default();
    let mut first = true;
    while r.seq_next(std::mem::take(&mut first))? {
        items.extend(Some(T::deserialize(r)?));
    }
    Ok(items)
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Writer) {
        out.seq(self)
    }
}

/// An array, read element by element into the vector it grows.
impl<T: Deserialize> Deserialize for Vec<T> {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_seq()?;
        let mut items = Vec::new();
        while r.seq_next(items.is_empty())? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }
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

// The codec's own tests: every token kind, every escape, the number
// boundaries, the depth bound, and compact text against pretty.
#[cfg(test)]
mod tests {
    use super::{Deserialize, Error, Number, Reader, Serialize, Value, Writer, MAX_DEPTH};

    fn compact<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = Writer::compact();
        value.serialize(&mut out);
        out.finish()
    }

    fn pretty<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = Writer::pretty(2);
        value.serialize(&mut out);
        out.finish()
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        let mut r = Reader::new(text);
        let value = T::deserialize(&mut r)?;
        r.end()?;
        Ok(value)
    }

    fn error<T: Deserialize + std::fmt::Debug>(text: &str) -> String {
        read::<T>(text).expect_err(text).0.into()
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Record {
        id: u64,
        name: String,
        tags: Vec<Kind>,
        parent: Option<Box<Record>>,
        pair: (i32, bool),
        unit: Unit,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Unit;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Plain,
        Weighted(f64),
        Pair(u8, char),
        Named { at: i64, note: Option<String> },
    }

    fn sample() -> Record {
        Record {
            id: 7,
            name: "a \"quoted\"\tname – ü".into(),
            tags: vec![
                Kind::Plain,
                Kind::Weighted(-2.5),
                Kind::Pair(255, 'é'),
                Kind::Named {
                    at: i64::MIN,
                    note: None,
                },
            ],
            parent: Some(Box::new(Record {
                id: u64::MAX,
                name: String::new(),
                tags: vec![],
                parent: None,
                pair: (-1, false),
                unit: Unit,
            })),
            pair: (0, true),
            unit: Unit,
        }
    }

    #[test]
    fn every_token_kind_reads_back() {
        assert_eq!(compact(&()), "null");
        assert_eq!(compact(&true), "true");
        assert_eq!(compact(&false), "false");
        assert_eq!(compact(&-12i32), "-12");
        assert_eq!(compact(&0.5f64), "0.5");
        assert_eq!(compact(&f64::NAN), "null");
        assert_eq!(compact("x"), "\"x\"");
        assert_eq!(compact(&Vec::<u8>::new()), "[]");
        assert_eq!(compact(&vec![Some(1u8), None]), "[1,null]");
        let map: std::collections::BTreeMap<u32, String> =
            [(2, "b".into()), (1, "a".into())].into();
        assert_eq!(compact(&map), "[[1,\"a\"],[2,\"b\"]]");
        assert_eq!(
            read::<std::collections::BTreeMap<u32, String>>(&compact(&map)).unwrap(),
            map
        );

        let record = sample();
        let text = compact(&record);
        assert_eq!(
            text,
            "{\"id\":7,\"name\":\"a \\\"quoted\\\"\\tname – ü\",\"tags\":[\"Plain\",\
             {\"Weighted\":[-2.5]},{\"Pair\":[255,\"é\"]},\
             {\"Named\":{\"at\":-9223372036854775808,\"note\":null}}],\
             \"parent\":{\"id\":18446744073709551615,\"name\":\"\",\"tags\":[],\
             \"parent\":null,\"pair\":[-1,false],\"unit\":null},\"pair\":[0,true],\"unit\":null}"
        );
        assert_eq!(read::<Record>(&text).unwrap(), record);
        assert_eq!(read::<Value>(&text).map(|v| compact(&v)).unwrap(), text);
    }

    /// Views borrowing what they write, as the journal's are.
    #[derive(Serialize)]
    struct RecordView<'a> {
        id: u64,
        name: &'a str,
        tags: &'a [Kind],
        parent: Option<&'a Record>,
        pair: (i32, bool),
        unit: &'a Unit,
    }

    #[derive(Serialize)]
    enum KindView<'a> {
        Plain,
        Named { at: i64, note: Option<&'a str> },
    }

    #[test]
    fn a_borrowing_view_writes_the_owned_bytes() {
        let record = sample();
        let view = RecordView {
            id: record.id,
            name: &record.name,
            tags: &record.tags,
            parent: record.parent.as_deref(),
            pair: record.pair,
            unit: &record.unit,
        };
        assert_eq!(compact(&view), compact(&record));
        let owned = Kind::Named {
            at: -3,
            note: Some("n".into()),
        };
        let view = KindView::Named {
            at: -3,
            note: Some("n"),
        };
        assert_eq!(compact(&view), compact(&owned));
        assert_eq!(compact(&KindView::Plain), compact(&Kind::Plain));
    }

    #[test]
    fn a_struct_reads_in_any_member_order_and_skips_strangers() {
        let text = r#"{"unit":null,"pair":[0,true],"x":{"y":[1,"z",null,{}]},"parent":null,
                       "tags":[],"name":"n","id":3}"#;
        let record = read::<Record>(text).unwrap();
        assert_eq!((record.id, record.name.as_str()), (3, "n"));
        assert!(error::<Record>(r#"{"id":1,"id":1}"#).contains("duplicate field \"id\""));
        assert!(error::<Record>(r#"{"id":1}"#).contains("missing field \"name\""));
        assert!(error::<Kind>(r#""Weighted""#).contains("unknown variant"));
        assert!(error::<Kind>(r#"{"Plain":null}"#).contains("unknown variant"));
        assert!(
            error::<Kind>(r#"{"Weighted":[1.0],"Plain":1}"#).contains("more than one variant tag")
        );
        assert!(error::<(u8, u8)>("[1]").contains("array too short"));
        assert!(error::<(u8, u8)>("[1,2,3]").contains("array too long"));
    }

    #[test]
    fn every_escape_is_written_and_read() {
        let all: String = (0u8..0x20)
            .map(char::from)
            .chain("\"\\/é€😀".chars())
            .collect();
        let text = compact(&all);
        assert!(text.starts_with("\"\\u0000\\u0001"));
        assert!(text.contains("\\n") && text.contains("\\r") && text.contains("\\t"));
        assert!(text.ends_with("\\u001f\\\"\\\\/é€😀\""));
        assert_eq!(read::<String>(&text).unwrap(), all);

        let escapes = r#""\"\\\/\n\r\t\b\f\u00e9\u20AC""#;
        assert_eq!(read::<String>(escapes).unwrap(), "\"\\/\n\r\t\u{8}\u{c}é€");
        assert_eq!(error::<String>(r#""\x""#), "unknown escape at offset 3");
        assert_eq!(error::<String>(r#""\u12""#), "truncated text at offset 3");
        assert_eq!(error::<String>(r#""\u12g4""#), "bad \\u escape at offset 3");
        assert_eq!(error::<String>("\"abc"), "unterminated string at offset 1");
        assert_eq!(error::<String>("\"ab\\"), "unterminated escape at offset 4");
        assert_eq!(error::<String>("x"), "expected '\"' at offset 0");
        // An unescaped string is borrowed; an escaped one is built.
        let mut r = Reader::new("\"plain\" \"esc\\n\"");
        assert!(matches!(
            r.string().unwrap(),
            std::borrow::Cow::Borrowed("plain")
        ));
        assert!(matches!(r.string().unwrap(), std::borrow::Cow::Owned(s) if s == "esc\n"));
    }

    #[test]
    fn an_escaped_surrogate_pair_is_one_character() {
        assert_eq!(read::<String>(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
        assert_eq!(
            read::<String>(r#""a\uD834\uDD1Eb""#).unwrap(),
            "a\u{1D11E}b"
        );
        assert_eq!(read::<char>(r#""\udbff\udfff""#).unwrap(), '\u{10FFFF}');
        assert_eq!(read::<char>(r#""\ud800\udc00""#).unwrap(), '\u{10000}');
    }

    #[test]
    fn a_lone_surrogate_is_an_error() {
        for (text, offset) in [
            (r#""\ud83d""#, 3),
            (r#""\ud83dx""#, 3),
            (r#""\ud83dA""#, 3),
            (r#""\ud83d\ud83d""#, 3),
            (r#""\ude00""#, 3),
            (r#""ab\ude00\ud83d""#, 5),
            (r#""\ud83d\ude0""#, 3),
        ] {
            assert_eq!(
                error::<String>(text),
                format!("bad \\u escape at offset {offset}"),
                "{text}"
            );
        }
    }

    #[test]
    fn integers_are_written_in_decimal() {
        let mut samples: Vec<u64> = (0..1000).collect();
        for p in 1..20 {
            let ten = 10u64.pow(p);
            samples.extend([ten - 1, ten, ten + 1]);
        }
        samples.extend([u64::MAX, u64::MAX - 1, i64::MAX as u64, i64::MAX as u64 + 1]);
        for u in samples {
            assert_eq!(compact(&u), u.to_string());
            assert_eq!(read::<u64>(&u.to_string()).unwrap(), u);
            if let Ok(i) = i64::try_from(u) {
                assert_eq!(compact(&-i), (-i).to_string());
                assert_eq!(read::<i64>(&(-i).to_string()).unwrap(), -i);
            }
        }
    }

    #[test]
    fn number_boundaries_round_trip() {
        for u in [0usize, 1, usize::MAX] {
            assert_eq!(compact(&u), u.to_string());
            assert_eq!(read::<usize>(&compact(&u)).unwrap(), u);
        }
        // Above `i64::MAX` an unsigned value is written as itself, not wrapped.
        let big = 9_223_372_036_854_775_812usize;
        assert_eq!(compact(&big), "9223372036854775812");
        assert_eq!(read::<usize>(&compact(&big)).unwrap(), big);
        assert_eq!(read::<u64>(&compact(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(read::<i64>(&compact(&i64::MIN)).unwrap(), i64::MIN);
        assert_eq!(read::<i64>(&compact(&0i64)).unwrap(), 0);
        assert_eq!(compact(&u8::MAX), "255");
        assert_eq!(compact(&i8::MIN), "-128");

        let number = |text: &str| Reader::new(text).number();
        assert_eq!(number("-0").unwrap(), Number::Int(0));
        assert_eq!(number("007").unwrap(), Number::Int(7));
        assert_eq!(
            number("-9223372036854775808").unwrap(),
            Number::Int(i64::MIN)
        );
        assert_eq!(
            number("9223372036854775808").unwrap(),
            Number::UInt(1 << 63)
        );
        assert_eq!(
            number("18446744073709551615").unwrap(),
            Number::UInt(u64::MAX)
        );
        assert_eq!(number("1e300").unwrap(), Number::Float(1e300));
        assert_eq!(number("-2.5E-3").unwrap(), Number::Float(-2.5e-3));
        assert_eq!(number("12,").unwrap(), Number::Int(12));
        for bad in [
            "18446744073709551616",
            "-9223372036854775809",
            "-",
            "1e",
            "--1",
            "1-2",
        ] {
            assert_eq!(
                &*number(bad).unwrap_err().0,
                format!("bad number {bad:?} at offset 0")
            );
        }
        assert_eq!(
            &*number("x").unwrap_err().0,
            "expected a number at offset 0"
        );
        assert_eq!(error::<u8>("256"), "expected u8");
        assert_eq!(error::<u64>("-1"), "-1 negative");
        assert_eq!(error::<i32>("1.0"), "expected i32");

        for x in [
            0.1,
            1.0 / 3.0,
            -2.5,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            1e300,
            0.0,
        ] {
            let text = compact(&x);
            assert!(text.contains(['.', 'e']), "{text}");
            assert_eq!(read::<f64>(&text).unwrap().to_bits(), x.to_bits(), "{text}");
        }
        assert_eq!(compact(&-0.0f64), "-0.0");
        assert_eq!(read::<f64>("7").unwrap(), 7.0);
    }

    #[test]
    fn nesting_is_bounded() {
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(read::<Value>(&at_bound).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(
            error::<Value>(&past),
            format!("nested too deep at offset {}", MAX_DEPTH + 1)
        );
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(error::<Value>(&objects).starts_with("nested too deep"));
    }

    #[test]
    fn whitespace_is_skipped_between_tokens() {
        let spaced = " \t\r\n{ \"id\" :\n7 , \"name\"\t: \"n\" , \"tags\" : [ \"Plain\" , { \"Weighted\" : [ 1.5 ] } ] ,\
                      \"parent\" : null , \"pair\" : [ 1 , true ] , \"unit\" : null }\n ";
        let record = read::<Record>(spaced).unwrap();
        assert_eq!(record.tags, vec![Kind::Plain, Kind::Weighted(1.5)]);
        assert_eq!(error::<u8>("1 2"), "trailing characters at offset 2");
        assert_eq!(error::<Vec<u8>>("[1 2]"), "expected ',' or ']' at offset 3");
        assert_eq!(error::<Vec<u8>>("[1,]"), "expected a number at offset 3");
        assert_eq!(error::<bool>(" tru"), "expected a boolean at offset 1");
        assert_eq!(error::<()>("nul"), "expected null at offset 0");
    }

    /// Pretty text differs from compact only in line breaks and indentation,
    /// and reads back to the same value.
    #[test]
    fn pretty_text_is_compact_text_laid_out() {
        let record = sample();
        let pretty_text = pretty(&record);
        assert!(pretty_text.starts_with("{\n  \"id\": 7,\n  \"name\": "));
        assert!(pretty_text.contains("\n  \"tags\": [\n    \"Plain\",\n    {\n      \"Weighted\": [\n        -2.5\n      ]\n    },"));
        assert!(pretty_text.contains("\"tags\": [],"));
        assert!(pretty_text.ends_with("\n  \"unit\": null\n}"));
        assert_eq!(read::<Record>(&pretty_text).unwrap(), record);
        let as_value = read::<Value>(&pretty_text).unwrap();
        assert_eq!(compact(&as_value), compact(&record));
        assert_eq!(pretty(&as_value), pretty_text);

        let map: std::collections::BTreeMap<u8, Vec<u8>> = [(1, vec![2])].into();
        assert_eq!(pretty(&map), "[\n  [1, [\n    2\n  ]]\n]");
        let members = Value::Map(vec![
            ("k y".into(), Value::Seq(vec![])),
            ("e".into(), Value::Map(vec![])),
        ]);
        assert_eq!(pretty(&members), "{\n  \"k y\": [],\n  \"e\": {}\n}");
        assert_eq!(compact(&members), "{\"k y\":[],\"e\":{}}");
    }
}
