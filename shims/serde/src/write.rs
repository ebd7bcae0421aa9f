//! The JSON text writer every [`crate::Serialize`] impl writes into.

use std::fmt::Write as _;

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
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An unsigned integer, in decimal.
    pub fn uint(&mut self, mut u: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (u % 10) as u8;
            u /= 10;
            if u == 0 {
                break;
            }
        }
        if let Ok(text) = std::str::from_utf8(&digits[at..]) {
            self.out.push_str(text);
        }
    }

    /// A signed integer, in decimal.
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
    pub fn str(&mut self, s: &str) {
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

    /// A string that needs no escaping — a Rust identifier: what derived
    /// code names unit variants by.
    pub fn ident(&mut self, ident: &'static str) {
        self.out.push('"');
        self.out.push_str(ident);
        self.out.push('"');
    }

    fn line(&mut self) {
        if self.indent > 0 {
            self.out.push('\n');
            self.out
                .extend(std::iter::repeat_n(' ', self.indent * self.depth));
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
    }

    fn next(&mut self, first: bool) {
        if !first {
            self.out.push(',');
        }
        self.line();
    }

    fn close(&mut self, empty: bool, bracket: char) {
        self.depth -= 1;
        if !empty {
            self.line();
        }
        self.out.push(bracket);
    }

    /// Opens an array.
    pub fn begin_seq(&mut self) {
        self.open('[');
    }

    /// Starts the next array element (`first`: the one after the `[`).
    pub fn elem(&mut self, first: bool) {
        self.next(first);
    }

    /// Closes an array (`empty`: no element was written).
    pub fn end_seq(&mut self, empty: bool) {
        self.close(empty, ']');
    }

    /// Opens an object.
    pub fn begin_map(&mut self) {
        self.open('{');
    }

    fn colon(&mut self) {
        self.out.push(':');
        if self.indent > 0 {
            self.out.push(' ');
        }
    }

    /// Starts the next object member under a key that needs no escaping —
    /// a Rust identifier: what derived code names fields and variants by.
    pub fn key(&mut self, first: bool, ident: &'static str) {
        self.next(first);
        self.ident(ident);
        self.colon();
    }

    /// Starts the next object member under any key.
    pub fn key_str(&mut self, first: bool, key: &str) {
        self.next(first);
        self.str(key);
        self.colon();
    }

    /// Closes an object (`empty`: no member was written).
    pub fn end_map(&mut self, empty: bool) {
        self.close(empty, '}');
    }

    /// A whole array, one element per item.
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
            self.out.push(',');
            if self.indent > 0 {
                self.out.push(' ');
            }
            v.serialize(self);
            self.out.push(']');
        }
        self.end_seq(first);
    }
}
