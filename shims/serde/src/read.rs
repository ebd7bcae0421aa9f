//! The JSON pull reader every [`crate::Deserialize`] impl reads from.
//!
//! This is the code hostile bytes reach first (a damaged journal line, a
//! truncated snapshot): nothing here indexes, unwraps or recurses without
//! a bound — every failure is an [`Error`].

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
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, Error> {
        Err(Error(format!("{what} at offset {}", self.pos)))
    }

    fn rest(&self) -> &'a [u8] {
        self.src.as_bytes().get(self.pos..).unwrap_or_default()
    }

    fn slice(&self, from: usize, to: usize) -> Result<&'a str, Error> {
        match self.src.get(from..to) {
            Some(s) => Ok(s),
            None => self.fail("truncated text"),
        }
    }

    /// The next byte that is not whitespace, not consumed.
    pub(crate) fn peek(&mut self) -> Option<u8> {
        let rest = self.rest();
        let ws = rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(rest.len());
        self.pos += ws;
        rest.get(ws).copied()
    }

    fn punct(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected {:?}", char::from(byte)))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        let found = self.peek().is_some() && self.rest().starts_with(lit.as_bytes());
        if found {
            self.pos += lit.len();
        }
        found
    }

    /// Succeeds if nothing but whitespace is left.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.fail("trailing characters"),
        }
    }

    /// Consumes a `null` if that is what comes next.
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
    pub fn bool(&mut self) -> Result<bool, Error> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            self.fail("expected a boolean")
        }
    }

    /// A number.
    pub fn number(&mut self) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return self.fail("expected a number");
        }
        let rest = self.rest();
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
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
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.punct(b'"')?;
        let mut unescaped = String::new();
        loop {
            let rest = self.rest();
            let Some(len) = rest.iter().position(|b| matches!(b, b'"' | b'\\')) else {
                return self.fail("unterminated string");
            };
            let clean = self.slice(self.pos, self.pos + len)?;
            self.pos += len + 1;
            if rest.get(len) == Some(&b'"') {
                return Ok(if unescaped.is_empty() {
                    Cow::Borrowed(clean)
                } else {
                    Cow::Owned(unescaped + clean)
                });
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
                b'u' => {
                    let hex = self.slice(self.pos, self.pos + 4)?;
                    let code = hex
                        .bytes()
                        .all(|b| b.is_ascii_hexdigit())
                        .then(|| u32::from_str_radix(hex, 16).ok())
                        .flatten();
                    let Some(c) = code.and_then(char::from_u32) else {
                        return self.fail("bad \\u escape");
                    };
                    self.pos += 4;
                    c
                }
                _ => return self.fail("unknown escape"),
            });
        }
    }

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
    fn more(&mut self, first: bool, close: u8) -> Result<bool, Error> {
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
            _ => self.fail(&format!("expected ',' or {:?}", char::from(close))),
        }
    }

    /// Opens an array.
    pub fn begin_seq(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    /// Whether the array holds another element (`first`: asked right after
    /// [`Reader::begin_seq`]); closes the array when it does not.
    pub fn seq_next(&mut self, first: bool) -> Result<bool, Error> {
        self.more(first, b']')
    }

    /// The next element of an array that must have one.
    pub fn elem<T: Deserialize>(&mut self, first: bool) -> Result<T, Error> {
        if self.seq_next(first)? {
            T::deserialize(self)
        } else {
            self.fail("array too short")
        }
    }

    /// Closes an array that must have no further element.
    pub fn close_seq(&mut self, first: bool) -> Result<(), Error> {
        if self.seq_next(first)? {
            self.fail("array too long")
        } else {
            Ok(())
        }
    }

    /// Opens an object.
    pub fn begin_map(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    /// The key of the object's next member, its value up next (`first`:
    /// asked right after [`Reader::begin_map`]); `None` closes the object.
    pub fn map_next(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.more(first, b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.punct(b':')?;
        Ok(Some(key))
    }

    /// Opens an enum value: the variant's name, and whether a payload
    /// follows (`{"Variant": payload}`, to be closed with
    /// [`Reader::end_enum`]) or the variant is a bare string.
    pub fn begin_enum(&mut self) -> Result<(Cow<'a, str>, bool), Error> {
        if self.peek() == Some(b'"') {
            return Ok((self.string()?, false));
        }
        self.begin_map()?;
        match self.map_next(true)? {
            Some(tag) => Ok((tag, true)),
            None => self.fail("expected a variant tag"),
        }
    }

    /// Closes an enum value after its payload: one variant tag, no more.
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
