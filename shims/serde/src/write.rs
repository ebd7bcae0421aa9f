//! The JSON text writer every [`crate::Serialize`] impl writes into.
//!
//! Compact text is the hot path — every journal line and snapshot — so
//! each token there is one append into a buffer that usually has room:
//! derived code hands a member's separator, key and colon over as one
//! literal (`,"key":`, [`Writer::member`]), a unit variant's quoted name as
//! another ([`Writer::tag`]), and integers are formatted two digits at a
//! time. Pretty text keeps its own branch of each structural call.

use std::fmt::Write as _;

/// `"00" "01" … "99"`: the two-digit groups integers are written in.
const PAIRS: &str = match std::str::from_utf8(&pair_table()) {
    Ok(pairs) => pairs,
    Err(_) => panic!("the digit table is ASCII"),
};

const fn pair_table() -> [u8; 200] {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
}

/// The decimal text of `u < 100`, borrowed from [`PAIRS`].
#[inline]
fn small(u: u64) -> &'static str {
    let at = 2 * u as usize;
    if u < 10 {
        &PAIRS[at + 1..at + 2]
    } else {
        &PAIRS[at..at + 2]
    }
}

/// Whether byte `b` of a string must be escaped.
#[inline]
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// An output buffer of JSON text. Compact by default; with an indent it
/// breaks and indents every array element and object member (the one
/// difference between `serde_json::to_string` and `to_string_pretty`).
/// Empty arrays and objects are `[]` and `{}` either way.
#[derive(Debug)]
pub struct Writer {
    out: String,
    /// Spaces per nesting level; 0 = compact.
    indent: usize,
    depth: usize,
}

impl Writer {
    /// A compact writer.
    pub fn compact() -> Self {
        Self::pretty(0)
    }

    /// A writer that puts every element and member on its own line,
    /// `indent` spaces per level deep.
    pub fn pretty(indent: usize) -> Self {
        Writer {
            // Most journal records fit: no regrowth on the command path.
            out: String::with_capacity(1024),
            indent,
            depth: 0,
        }
    }

    /// The text written.
    pub fn finish(self) -> String {
        self.out
    }

    /// `null`.
    #[inline]
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` / `false`.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An unsigned integer, in decimal.
    #[inline]
    pub fn uint(&mut self, u: u64) {
        if u < 100 {
            self.out.push_str(small(u));
        } else {
            self.long_uint(u);
        }
    }

    fn long_uint(&mut self, mut u: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        while u >= 100 {
            let pair = 2 * (u % 100) as usize;
            u /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&PAIRS.as_bytes()[pair..pair + 2]);
        }
        let head = small(u).as_bytes();
        at -= head.len();
        digits[at..at + head.len()].copy_from_slice(head);
        if let Ok(text) = std::str::from_utf8(&digits[at..]) {
            self.out.push_str(text);
        }
    }

    /// A signed integer, in decimal.
    #[inline]
    pub fn int(&mut self, i: i64) {
        if i < 0 {
            self.out.push('-');
        }
        self.uint(i.unsigned_abs());
    }

    /// A float: the shortest text that parses back to the same `f64`,
    /// always with a `.` or an exponent; `null` if it is not finite.
    pub fn float(&mut self, x: f64) {
        if x.is_finite() {
            // Writing into a `String` cannot fail.
            let _ = write!(self.out, "{x:?}");
        } else {
            self.null();
        }
    }

    /// A string, quoted and escaped.
    #[inline]
    pub fn str(&mut self, s: &str) {
        if s.bytes().any(needs_escape) {
            self.escaped(s);
        } else {
            self.out.reserve(s.len() + 2);
            self.out.push('"');
            self.out.push_str(s);
            self.out.push('"');
        }
    }

    #[cold]
    fn escaped(&mut self, s: &str) {
        self.out.push('"');
        let mut clean = 0;
        for (at, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // `b` is ASCII, so `at` is a character boundary.
            self.out.push_str(&s[clean..at]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            clean = at + 1;
        }
        self.out.push_str(&s[clean..]);
        self.out.push('"');
    }

    /// A unit enum variant from its quoted name, `"Variant"` — a string
    /// that needs no escaping, written as given.
    #[inline]
    pub fn tag(&mut self, quoted: &'static str) {
        self.out.push_str(quoted);
    }

    #[cold]
    fn line(&mut self) {
        self.out.push('\n');
        self.out
            .extend(std::iter::repeat_n(' ', self.indent * self.depth));
    }

    #[inline]
    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
    }

    #[inline]
    fn next(&mut self, first: bool) {
        if !first {
            self.out.push(',');
        }
        if self.indent > 0 {
            self.line();
        }
    }

    #[inline]
    fn close(&mut self, empty: bool, bracket: char) {
        self.depth -= 1;
        if !empty && self.indent > 0 {
            self.line();
        }
        self.out.push(bracket);
    }

    /// Opens an array.
    #[inline]
    pub fn begin_seq(&mut self) {
        self.open('[');
    }

    /// Starts the next array element (`first`: the one after the `[`).
    #[inline]
    pub fn elem(&mut self, first: bool) {
        self.next(first);
    }

    /// Closes an array (`empty`: no element was written).
    #[inline]
    pub fn end_seq(&mut self, empty: bool) {
        self.close(empty, ']');
    }

    /// Opens an object.
    #[inline]
    pub fn begin_map(&mut self) {
        self.open('{');
    }

    /// Starts an object member from its compact text: `"key":` for the
    /// first member, `,"key":` for a later one (the key an identifier that
    /// needs no escaping) — what derived code names fields by. One append
    /// when compact.
    #[inline]
    pub fn member(&mut self, text: &'static str) {
        if self.indent == 0 {
            self.out.push_str(text);
        } else {
            self.pretty_member(text);
        }
    }

    #[cold]
    fn pretty_member(&mut self, text: &'static str) {
        let key = match text.strip_prefix(',') {
            Some(key) => {
                self.out.push(',');
                key
            }
            None => text,
        };
        self.line();
        self.out.push_str(key);
        self.out.push(' ');
    }

    /// Opens an enum variant's payload from its compact text,
    /// `{"Variant":` — the object [`Writer::end_map`] closes. One append
    /// when compact.
    #[inline]
    pub fn variant(&mut self, open: &'static str) {
        self.depth += 1;
        if self.indent == 0 {
            self.out.push_str(open);
        } else {
            self.out.push('{');
            self.pretty_member(open.get(1..).unwrap_or_default());
        }
    }

    /// Starts the next object member under any key.
    pub fn key_str(&mut self, first: bool, key: &str) {
        self.next(first);
        self.str(key);
        self.out.push(':');
        if self.indent > 0 {
            self.out.push(' ');
        }
    }

    /// Closes an object (`empty`: no member was written).
    #[inline]
    pub fn end_map(&mut self, empty: bool) {
        self.close(empty, '}');
    }

    /// A whole array, one element per item.
    #[inline]
    pub fn seq<T: crate::Serialize>(&mut self, items: impl IntoIterator<Item = T>) {
        self.begin_seq();
        let mut first = true;
        for item in items {
            self.elem(first);
            first = false;
            item.serialize(self);
        }
        self.end_seq(first);
    }

    /// A map as an array of `[key, value]` pairs — keys need not be
    /// strings, and the order written is the order read back.
    pub fn pairs<K: crate::Serialize, V: crate::Serialize>(
        &mut self,
        entries: impl IntoIterator<Item = (K, V)>,
    ) {
        self.begin_seq();
        let mut first = true;
        for (k, v) in entries {
            self.elem(first);
            first = false;
            self.out.push('[');
            k.serialize(self);
            self.out.push_str(if self.indent > 0 { ", " } else { "," });
            v.serialize(self);
            self.out.push(']');
        }
        self.end_seq(first);
    }
}
