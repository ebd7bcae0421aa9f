//! The JSON pull reader every [`crate::Deserialize`] impl reads from.
//!
//! This is the code hostile bytes reach first (a damaged journal line, a
//! truncated snapshot): nothing here indexes, unwraps or recurses without
//! a bound — every failure is an [`Error`].
//!
//! Compact text is the hot path, and every step of it is inlined into the
//! decoder that takes it: a bracket, a comma or a colon is one byte
//! compared where it stands; a struct member's `"name":` is matched in
//! place against the member expected next, an enum tag against the names
//! of its variants, without a scan for the closing quote; an integer of
//! at most 18 digits is read by one loop; a string without an escape is
//! found by one scan and borrowed. What is rare — whitespace, escapes,
//! fractions and exponents, signs, longer integers, names not expected —
//! takes a cold path that reads it the general way, so each text reads as
//! its compact twin does, and fails with the same error.

use crate::{Deserialize, Error};
use std::borrow::Cow;

/// How deep arrays and objects may nest: ten times what any record of this
/// workspace reaches, and shallow enough that no input can exhaust the
/// stack of the thread decoding it.
pub const MAX_DEPTH: usize = 128;

/// A JSON number as read: an integer where the text is one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An integer that fits `i64`.
    Int(i64),
    /// An integer above `i64::MAX`.
    UInt(u64),
    /// Text with a fraction or an exponent.
    Float(f64),
}

#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// Whether `b` belongs to the text of a number.
#[inline]
fn is_number_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
}

/// The value of four hex digits, if that is what `hex` is.
fn hex4(hex: &str) -> Option<u32> {
    if hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        None
    }
}

/// A cursor over JSON text, handing out one token or one container
/// boundary at a time. Whitespace between tokens is skipped.
#[derive(Debug)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    #[inline]
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    #[cold]
    #[inline(never)]
    fn fail<T>(&self, what: &str) -> Result<T, Error> {
        Err(Error::new(format!("{what} at offset {}", self.pos)))
    }

    #[cold]
    #[inline(never)]
    fn expected<T>(&self, byte: u8) -> Result<T, Error> {
        self.fail(&format!("expected {:?}", char::from(byte)))
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    #[inline]
    fn rest(&self) -> &'a [u8] {
        self.bytes().get(self.pos..).unwrap_or_default()
    }

    #[inline]
    fn slice(&self, from: usize, to: usize) -> Result<&'a str, Error> {
        match self.src.get(from..to) {
            Some(s) => Ok(s),
            None => self.fail("truncated text"),
        }
    }

    /// The next byte that is not whitespace, not consumed.
    #[inline(always)]
    pub(crate) fn peek(&mut self) -> Option<u8> {
        match self.bytes().get(self.pos) {
            // Every byte above the space is not whitespace.
            Some(&b) if b > b' ' => Some(b),
            _ => self.peek_past_space(),
        }
    }

    #[cold]
    #[inline(never)]
    fn peek_past_space(&mut self) -> Option<u8> {
        let rest = self.rest();
        let ws = rest
            .iter()
            .position(|&b| !is_space(b))
            .unwrap_or(rest.len());
        self.pos += ws;
        rest.get(ws).copied()
    }

    /// Consumes `byte`, the next byte that is not whitespace.
    #[inline(always)]
    fn punct(&mut self, byte: u8) -> Result<(), Error> {
        if self.bytes().get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.punct_past_space(byte)
        }
    }

    #[cold]
    #[inline(never)]
    fn punct_past_space(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.expected(byte)
        }
    }

    #[inline]
    fn literal(&mut self, lit: &str) -> bool {
        let found = self.peek().is_some() && self.rest().starts_with(lit.as_bytes());
        if found {
            self.pos += lit.len();
        }
        found
    }

    /// Succeeds if nothing but whitespace is left.
    #[inline]
    pub fn end(&mut self) -> Result<(), Error> {
        if self.pos == self.src.len() {
            return Ok(());
        }
        match self.peek() {
            None => Ok(()),
            Some(_) => self.fail("trailing characters"),
        }
    }

    /// Consumes a `null` if that is what comes next.
    #[inline]
    pub fn opt_null(&mut self) -> bool {
        self.literal("null")
    }

    /// `null`.
    pub fn null(&mut self) -> Result<(), Error> {
        if self.opt_null() {
            Ok(())
        } else {
            self.fail("expected null")
        }
    }

    /// `true` / `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, Error> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            self.fail("expected a boolean")
        }
    }

    /// A number. An integer is parsed as it is scanned; anything else —
    /// a fraction, an exponent, a value out of range, stray signs — is
    /// read the general way, by one cold path.
    #[inline(always)]
    pub fn number(&mut self) -> Result<Number, Error> {
        match self.small_uint() {
            // At most 18 digits: below `i64::MAX`.
            Some(u) => Ok(Number::Int(u as i64)),
            None => self.any_number(),
        }
    }

    /// A plain unsigned integer of at most 18 digits where the next byte
    /// starts one — no whitespace before it, no sign, fraction or exponent
    /// about it — or `None`, nothing read: the integer of compact text,
    /// read by one loop.
    #[inline(always)]
    pub(crate) fn small_uint(&mut self) -> Option<u64> {
        let bytes = self.bytes();
        let mut at = self.pos;
        let mut value = 0u64;
        while at - self.pos < 18 {
            match bytes.get(at) {
                Some(&b) if b.is_ascii_digit() => value = value * 10 + u64::from(b - b'0'),
                _ => break,
            }
            at += 1;
        }
        if at == self.pos || bytes.get(at).is_some_and(|&b| is_number_byte(b)) {
            return None;
        }
        self.pos = at;
        Some(value)
    }

    /// [`Reader::number`] past its fast path: whitespace before the
    /// number, a sign, or more digits.
    #[inline(never)]
    fn any_number(&mut self) -> Result<Number, Error> {
        let Some(first) = self.peek() else {
            return self.fail("expected a number");
        };
        let negative = first == b'-';
        if !negative && !first.is_ascii_digit() {
            return self.fail("expected a number");
        }
        let bytes = self.bytes();
        let mut at = self.pos + usize::from(negative);
        let digits = at;
        let mut magnitude = 0u64;
        while let Some(&b) = bytes.get(at) {
            if !b.is_ascii_digit() {
                break;
            }
            let digit = u64::from(b - b'0');
            match magnitude.checked_mul(10).and_then(|m| m.checked_add(digit)) {
                Some(m) => magnitude = m,
                None => return self.number_text(),
            }
            at += 1;
        }
        if at == digits || bytes.get(at).is_some_and(|&b| is_number_byte(b)) {
            return self.number_text();
        }
        let number = match (negative, i64::try_from(magnitude)) {
            (false, Ok(i)) => Number::Int(i),
            (false, Err(_)) => Number::UInt(magnitude),
            (true, _) if magnitude <= i64::MIN.unsigned_abs() => {
                Number::Int(0i64.wrapping_sub_unsigned(magnitude))
            }
            (true, _) => return self.number_text(),
        };
        self.pos = at;
        Ok(number)
    }

    /// A number the general way: the longest run of number bytes, parsed
    /// as a float if it has a fraction or an exponent, else as an `i64`,
    /// else as a `u64`.
    #[cold]
    fn number_text(&mut self) -> Result<Number, Error> {
        let rest = self.rest();
        let len = rest
            .iter()
            .position(|&b| !is_number_byte(b))
            .unwrap_or(rest.len());
        let text = self.slice(self.pos, self.pos + len)?;
        let number = if text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            text.parse().map(Number::Float).ok()
        } else if let Ok(i) = text.parse() {
            Some(Number::Int(i))
        } else {
            text.parse().map(Number::UInt).ok()
        };
        match number {
            Some(number) => {
                self.pos += len;
                Ok(number)
            }
            None => self.fail(&format!("bad number {text:?}")),
        }
    }

    /// A string: borrowed from the input unless it holds an escape.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.punct(b'"')?;
        self.string_body()
    }

    /// The rest of a string, the reader past its opening quote.
    #[inline(always)]
    fn string_body(&mut self) -> Result<Cow<'a, str>, Error> {
        let rest = self.rest();
        let Some(len) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
            return self.fail("unterminated string");
        };
        if rest.get(len) != Some(&b'"') {
            return self.escaped(String::new());
        }
        // `len` is at an ASCII byte: a character boundary.
        let clean = self.slice(self.pos, self.pos + len)?;
        self.pos += len + 1;
        Ok(Cow::Borrowed(clean))
    }

    /// A quoted name, read as [`Reader::string`] reads it: its index in
    /// `names`, or the name itself where `names` does not hold it. A name
    /// of `names` standing in the text as it is — quotes, no escape — is
    /// matched in place, without a scan for its end.
    #[inline(always)]
    fn name(&mut self, names: &[&str]) -> Result<Result<usize, Cow<'a, str>>, Error> {
        self.punct(b'"')?;
        let rest = self.rest();
        for (at, name) in names.iter().enumerate() {
            let len = name.len();
            if rest.get(..len) == Some(name.as_bytes()) && rest.get(len) == Some(&b'"') {
                self.pos += len + 1;
                return Ok(Ok(at));
            }
        }
        self.other_name(names)
    }

    /// [`Reader::name`] past its fast path: a name that holds an escape or
    /// is not among `names`.
    #[cold]
    #[inline(never)]
    fn other_name(&mut self, names: &[&str]) -> Result<Result<usize, Cow<'a, str>>, Error> {
        let name = self.string_body()?;
        Ok(match names.iter().position(|n| *n == name) {
            Some(at) => Ok(at),
            None => Err(name),
        })
    }

    /// The rest of a string that holds an escape, appended to `unescaped`
    /// — the reader positioned inside the quotes.
    #[cold]
    fn escaped(&mut self, mut unescaped: String) -> Result<Cow<'a, str>, Error> {
        loop {
            let rest = self.rest();
            let Some(len) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return self.fail("unterminated string");
            };
            let clean = self.slice(self.pos, self.pos + len)?;
            self.pos += len + 1;
            if rest.get(len) == Some(&b'"') {
                return Ok(Cow::Owned(unescaped + clean));
            }
            unescaped.push_str(clean);
            let Some(escape) = self.rest().first().copied() else {
                return self.fail("unterminated escape");
            };
            self.pos += 1;
            unescaped.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => self.unicode_escape()?,
                _ => return self.fail("unknown escape"),
            });
        }
    }

    /// The character of a `\u` escape, the reader past the `u`: four hex
    /// digits, or a high surrogate's and then `\u` and a low surrogate's.
    /// A lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let code = hex4(self.slice(self.pos, self.pos + 4)?);
        let Some(code) = code else {
            return self.fail("bad \\u escape");
        };
        if let Some(c) = char::from_u32(code) {
            self.pos += 4;
            return Ok(c);
        }
        let low = (0xD800..0xDC00).contains(&code).then(|| {
            let tail = self.src.get(self.pos + 4..self.pos + 10)?;
            let low = hex4(tail.strip_prefix("\\u")?)?;
            (0xDC00..0xE000).contains(&low).then_some(low)
        });
        let paired = low
            .flatten()
            .and_then(|low| char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)));
        match paired {
            Some(c) => {
                self.pos += 10;
                Ok(c)
            }
            None => self.fail("bad \\u escape"),
        }
    }

    #[inline(always)]
    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        self.punct(bracket)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.fail("nested too deep");
        }
        Ok(())
    }

    /// Whether another element or member follows — right after the opening
    /// bracket (`first`) as it stands, afterwards past a `,` — or the
    /// closing bracket does, which is consumed.
    #[inline(always)]
    fn more(&mut self, first: bool, close: u8) -> Result<bool, Error> {
        match self.bytes().get(self.pos) {
            Some(&b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            Some(&b) if first && b > b' ' => Ok(true),
            _ => self.more_past_space(first, close),
        }
    }

    /// [`Reader::more`] where whitespace or something unexpected comes
    /// next.
    #[cold]
    #[inline(never)]
    fn more_past_space(&mut self, first: bool, close: u8) -> Result<bool, Error> {
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if first => Ok(true),
            _ => self.no_more(close),
        }
    }

    #[cold]
    #[inline(never)]
    fn no_more<T>(&self, close: u8) -> Result<T, Error> {
        self.fail(&format!("expected ',' or {:?}", char::from(close)))
    }

    /// Opens an array.
    #[inline(always)]
    pub fn begin_seq(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    /// Whether the array holds another element (`first`: asked right after
    /// [`Reader::begin_seq`]); closes the array when it does not.
    #[inline(always)]
    pub fn seq_next(&mut self, first: bool) -> Result<bool, Error> {
        self.more(first, b']')
    }

    /// The next element of an array that must have one.
    #[inline(always)]
    pub fn elem<T: Deserialize>(&mut self, first: bool) -> Result<T, Error> {
        if self.seq_next(first)? {
            T::deserialize(self)
        } else {
            self.fail("array too short")
        }
    }

    /// Closes an array that must have no further element.
    #[inline(always)]
    pub fn close_seq(&mut self, first: bool) -> Result<(), Error> {
        if self.seq_next(first)? {
            self.fail("array too long")
        } else {
            Ok(())
        }
    }

    /// Opens an object.
    #[inline(always)]
    pub fn begin_map(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    /// The key of the object's next member, its value up next (`first`:
    /// asked right after [`Reader::begin_map`]); `None` closes the object.
    #[inline]
    pub fn map_next(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.more(first, b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.punct(b':')?;
        Ok(Some(key))
    }

    /// The next member of an object whose members are `fields` (`first`:
    /// asked right after [`Reader::begin_map`]), its value up next: the
    /// member's index in `fields`, `fields.len()` for a member not among
    /// them, `None` when the object closes. The member at `next` is
    /// expected: in compact text, its `"name":` is matched as it stands.
    #[inline(always)]
    pub fn field(
        &mut self,
        first: bool,
        fields: &[&str],
        next: usize,
    ) -> Result<Option<usize>, Error> {
        if !self.more(first, b'}')? {
            return Ok(None);
        }
        if let Some(name) = fields.get(next) {
            let rest = self.rest();
            let len = name.len();
            let quoted = rest.first() == Some(&b'"')
                && rest.get(1..len + 1) == Some(name.as_bytes())
                && rest.get(len + 1..len + 3) == Some(&b"\":"[..]);
            if quoted {
                self.pos += len + 3;
                return Ok(Some(next));
            }
        }
        let at = self.name(fields)?.unwrap_or(fields.len());
        self.punct(b':')?;
        Ok(Some(at))
    }

    /// The key of the object's next member, as [`Reader::field`] reads
    /// it: its index in `names`, or the key itself where `names` does not
    /// hold it; `None` closes the object.
    #[inline(always)]
    pub fn key(
        &mut self,
        first: bool,
        names: &[&str],
    ) -> Result<Option<Result<usize, Cow<'a, str>>>, Error> {
        if !self.more(first, b'}')? {
            return Ok(None);
        }
        let key = self.name(names)?;
        self.punct(b':')?;
        Ok(Some(key))
    }

    /// Opens a value of enum `of`, whose variants are `names`: the
    /// variant's index in `names`, and whether a payload follows
    /// (`{"Variant": payload}`, to be closed with [`Reader::end_enum`]) or
    /// the variant is a bare string. A name not among `names` is an
    /// error, [`crate::unknown_variant`]'s.
    #[inline(always)]
    pub fn variant(&mut self, names: &[&str], of: &'static str) -> Result<(usize, bool), Error> {
        let (name, payload) = if self.peek() == Some(b'"') {
            (self.name(names)?, false)
        } else {
            self.begin_map()?;
            match self.key(true, names)? {
                Some(name) => (name, true),
                None => return self.fail("expected a variant tag"),
            }
        };
        match name {
            Ok(at) => Ok((at, payload)),
            Err(name) => Err(crate::unknown_variant(&name, of)),
        }
    }

    /// Closes an enum value after its payload: one variant tag, no more.
    #[inline(always)]
    pub fn end_enum(&mut self) -> Result<(), Error> {
        if self.more(false, b'}')? {
            self.fail("more than one variant tag")
        } else {
            Ok(())
        }
    }

    /// Reads past one value of any shape (an unknown field's).
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => {
                self.begin_seq()?;
                let mut first = true;
                while self.seq_next(first)? {
                    first = false;
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_map()?;
                let mut first = true;
                while self.map_next(first)?.is_some() {
                    first = false;
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') => self.null(),
            _ => self.number().map(drop),
        }
    }
}
