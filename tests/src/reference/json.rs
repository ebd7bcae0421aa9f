//! The JSON reader the codec shim had before its compact fast paths: one
//! general scan per token, numbers through `str::parse`, strings through
//! one loop for clean and escaped text alike. Nothing under `crates/` or
//! `shims/` uses it; `codec_reference.rs` holds `serde::Reader` to it —
//! on every text, both read the same [`Value`] or both fail.

use serde::{Number, Value, MAX_DEPTH};
use std::borrow::Cow;

/// Reads one JSON document (anything but whitespace after it is an
/// error) into a [`Value`], the way `serde_json::from_str::<Value>` does.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader::new(text);
    let value = value(&mut r)?;
    r.end()?;
    Ok(value)
}

fn value(r: &mut Reader<'_>) -> Result<Value, String> {
    Ok(match r.peek() {
        Some(b'n') => {
            r.null()?;
            Value::Null
        }
        Some(b't' | b'f') => Value::Bool(r.bool()?),
        Some(b'"') => Value::Str(r.string()?.into_owned()),
        Some(b'[') => {
            r.begin_seq()?;
            let mut items = Vec::new();
            while r.seq_next(items.is_empty())? {
                items.push(value(r)?);
            }
            Value::Seq(items)
        }
        Some(b'{') => {
            r.begin_map()?;
            let mut members = Vec::new();
            while let Some(key) = r.map_next(members.is_empty())? {
                members.push((key.into_owned(), value(r)?));
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

/// A cursor over JSON text, handing out one token or one container
/// boundary at a time. Whitespace between tokens is skipped.
#[derive(Debug)]
struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.pos))
    }

    fn rest(&self) -> &'a [u8] {
        self.src.as_bytes().get(self.pos..).unwrap_or_default()
    }

    fn slice(&self, from: usize, to: usize) -> Result<&'a str, String> {
        match self.src.get(from..to) {
            Some(s) => Ok(s),
            None => self.fail("truncated text"),
        }
    }

    /// The next byte that is not whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        let rest = self.rest();
        let ws = rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(rest.len());
        self.pos += ws;
        rest.get(ws).copied()
    }

    fn punct(&mut self, byte: u8) -> Result<(), String> {
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
    fn end(&mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.fail("trailing characters"),
        }
    }

    /// Consumes a `null` if that is what comes next.
    fn opt_null(&mut self) -> bool {
        self.literal("null")
    }

    /// `null`.
    fn null(&mut self) -> Result<(), String> {
        if self.opt_null() {
            Ok(())
        } else {
            self.fail("expected null")
        }
    }

    /// `true` / `false`.
    fn bool(&mut self) -> Result<bool, String> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            self.fail("expected a boolean")
        }
    }

    /// A number.
    fn number(&mut self) -> Result<Number, String> {
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
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
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

    fn open(&mut self, bracket: u8) -> Result<(), String> {
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
    fn more(&mut self, first: bool, close: u8) -> Result<bool, String> {
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
    fn begin_seq(&mut self) -> Result<(), String> {
        self.open(b'[')
    }

    /// Whether the array holds another element (`first`: asked right after
    /// [`Reader::begin_seq`]); closes the array when it does not.
    fn seq_next(&mut self, first: bool) -> Result<bool, String> {
        self.more(first, b']')
    }

    /// Opens an object.
    fn begin_map(&mut self) -> Result<(), String> {
        self.open(b'{')
    }

    /// The key of the object's next member, its value up next (`first`:
    /// asked right after [`Reader::begin_map`]); `None` closes the object.
    fn map_next(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, String> {
        if !self.more(first, b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.punct(b':')?;
        Ok(Some(key))
    }
}
