//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` for structs and enums, written directly
//! against `proc_macro` (no syn/quote dependency). No generics,
//! except one lifetime parameter on a `Serialize` item — a view borrowing
//! what it writes.
//!
//! Generated code writes into the sibling `serde` shim's `Writer` and reads
//! from its `Reader` — JSON text on both sides, no value tree in between
//! (the encoding is listed in that crate's docs). A struct's fields are
//! written in declaration order and read in any; an unknown field is
//! skipped, a missing or repeated one an error.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

// ----------------------------------------------------------------------
// A minimal item model
// ----------------------------------------------------------------------

enum Fields {
    Unit,
    /// Tuple fields; the count.
    Tuple(usize),
    /// Named fields in declaration order.
    Named(Vec<String>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Shape {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// The lifetime parameter, `<'a>`, or empty.
    generics: String,
    shape: Shape,
}

fn expand(input: TokenStream, serialize: bool) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) if !serialize && !item.generics.is_empty() => {
            let msg = format!("derive shim reads no generic item ({})", item.name);
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
        Ok(item) => item,
        Err(msg) => {
            return format!("compile_error!({msg:?});").parse().unwrap();
        }
    };
    let code = if serialize {
        gen_serialize(&item)
    } else {
        gen_deserialize(&item)
    };
    code.parse().unwrap()
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut toks = input.into_iter().peekable();
    // Skip outer attributes and the visibility.
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                toks.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next(); // pub(crate) etc.
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, got {other:?}")),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected item name, got {other:?}")),
    };
    let mut generics = String::new();
    if let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() == '<' {
            toks.next();
            generics = match (toks.next(), toks.next(), toks.next()) {
                (
                    Some(TokenTree::Punct(q)),
                    Some(TokenTree::Ident(lt)),
                    Some(TokenTree::Punct(c)),
                ) if q.as_char() == '\'' && c.as_char() == '>' => {
                    format!("<'{lt}>")
                }
                _ => {
                    return Err(format!(
                        "derive shim supports one lifetime parameter on {name}"
                    ))
                }
            };
        }
    }
    let shape = match kind.as_str() {
        "struct" => {
            let fields = match toks.next() {
                None => Fields::Unit,
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                other => return Err(format!("unexpected token after struct name: {other:?}")),
            };
            Shape::Struct(fields)
        }
        "enum" => {
            let body = match toks.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("expected enum body, got {other:?}")),
            };
            Shape::Enum(parse_variants(body)?)
        }
        other => return Err(format!("cannot derive for {other}")),
    };
    Ok(Item {
        name,
        generics,
        shape,
    })
}

/// Parses `{ attrs? vis? name: Type, ... }` into the field names. Type
/// tokens are skipped with angle-bracket depth tracking (generic argument
/// commas are not field separators).
fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut toks = body.into_iter().peekable();
    loop {
        // Skip attributes (doc comments) and visibility.
        loop {
            match toks.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    toks.next();
                    toks.next();
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    toks.next();
                    if let Some(TokenTree::Group(g)) = toks.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            toks.next();
                        }
                    }
                }
                _ => break,
            }
        }
        let Some(tree) = toks.next() else { break };
        let TokenTree::Ident(id) = tree else {
            return Err(format!("expected field name, got {tree:?}"));
        };
        fields.push(id.to_string());
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected ':' after field, got {other:?}")),
        }
        // Skip the type up to the next top-level comma.
        let mut angle = 0i32;
        loop {
            match toks.peek() {
                None => break,
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                    angle += 1;
                    toks.next();
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => {
                    angle -= 1;
                    toks.next();
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && angle == 0 => {
                    toks.next();
                    break;
                }
                _ => {
                    toks.next();
                }
            }
        }
    }
    Ok(fields)
}

/// Counts the fields of a tuple struct/variant body (top-level commas at
/// angle depth 0, tolerant of a trailing comma).
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut count = 0usize;
    let mut saw_tokens = false;
    let mut angle = 0i32;
    let mut pending = false;
    for t in body {
        saw_tokens = true;
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                count += 1;
                pending = false;
                continue;
            }
            _ => {}
        }
        pending = true;
    }
    if pending {
        count += 1;
    }
    if saw_tokens {
        count
    } else {
        0
    }
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut toks = body.into_iter().peekable();
    loop {
        // Skip attributes.
        while let Some(TokenTree::Punct(p)) = toks.peek() {
            if p.as_char() == '#' {
                toks.next();
                toks.next();
            } else {
                break;
            }
        }
        let Some(tree) = toks.next() else { break };
        let TokenTree::Ident(id) = tree else {
            return Err(format!("expected variant name, got {tree:?}"));
        };
        let name = id.to_string();
        let fields = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = Fields::Named(parse_named_fields(g.stream())?);
                toks.next();
                f
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let f = Fields::Tuple(count_tuple_fields(g.stream()));
                toks.next();
                f
            }
            _ => Fields::Unit,
        };
        match toks.next() {
            None => {
                variants.push(Variant { name, fields });
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {
                variants.push(Variant { name, fields });
            }
            other => return Err(format!("unexpected token after variant {name}: {other:?}")),
        }
    }
    Ok(variants)
}

// ----------------------------------------------------------------------
// Code generation
// ----------------------------------------------------------------------

/// `{"a": <a>, ...}` written from the expressions `access(field)`.
fn write_named(fs: &[String], access: impl Fn(&str) -> String) -> String {
    let mut code = String::from("__out.begin_map();\n");
    for (i, f) in fs.iter().enumerate() {
        let member = format!("{}{f:?}:", if i == 0 { "" } else { "," });
        code.push_str(&format!(
            "__out.member({member:?}); ::serde::Serialize::serialize({}, __out);\n",
            access(f)
        ));
    }
    code.push_str(&format!("__out.end_map({});\n", fs.is_empty()));
    code
}

/// `[<0>, ...]` written from the expressions `access(index)`.
fn write_tuple(n: usize, access: impl Fn(usize) -> String) -> String {
    let mut code = String::from("__out.begin_seq();\n");
    for i in 0..n {
        code.push_str(&format!(
            "__out.elem({}); ::serde::Serialize::serialize({}, __out);\n",
            i == 0,
            access(i)
        ));
    }
    code.push_str(&format!("__out.end_seq({});\n", n == 0));
    code
}

fn gen_serialize(item: &Item) -> String {
    let Item {
        name,
        generics,
        shape,
    } = item;
    let body = match shape {
        Shape::Struct(fields) => match fields {
            Fields::Unit => "__out.null();".to_string(),
            Fields::Tuple(1) => "::serde::Serialize::serialize(&self.0, __out);".to_string(),
            Fields::Tuple(n) => write_tuple(*n, |i| format!("&self.{i}")),
            Fields::Named(fs) => write_named(fs, |f| format!("&self.{f}")),
        },
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let (pattern, payload) = match &v.fields {
                    Fields::Unit => {
                        let quoted = format!("{vn:?}");
                        arms.push_str(&format!("{name}::{vn} => __out.tag({quoted:?}),\n"));
                        continue;
                    }
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        (
                            format!("({})", binds.join(", ")),
                            write_tuple(*n, |i| format!("f{i}")),
                        )
                    }
                    Fields::Named(fs) => (
                        format!("{{ {} }}", fs.join(", ")),
                        write_named(fs, str::to_string),
                    ),
                };
                let open = format!("{{{vn:?}:");
                arms.push_str(&format!(
                    "{name}::{vn} {pattern} => {{ __out.variant({open:?});\n\
                     {payload} __out.end_map(false); }}\n"
                ));
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl{generics} ::serde::Serialize for {name}{generics} {{
            fn serialize(&self, __out: &mut ::serde::Writer) {{ {body} }}
        }}"
    )
}

/// Reads `{...}` into one `Option` slot per field, then builds
/// `ctor {{ field: value, ... }}`. The member after the one read last is
/// expected first — the order they are written in.
fn read_named(fs: &[String], ctor: &str) -> String {
    let mut slots = String::new();
    let mut names = String::new();
    let mut arms = String::new();
    let mut build = String::new();
    for (i, f) in fs.iter().enumerate() {
        slots.push_str(&format!("let mut slot{i} = ::std::option::Option::None;\n"));
        names.push_str(&format!("{f:?}, "));
        arms.push_str(&format!(
            "{i} => ::serde::read_field(&mut slot{i}, {f:?}, r)?,\n"
        ));
        build.push_str(&format!("{f}: ::serde::take_field(slot{i}, {f:?})?, "));
    }
    format!(
        "{{ {slots}
            const FIELDS: &[&str] = &[{names}];
            r.begin_map()?;
            let mut first = true;
            let mut next = 0usize;
            while let ::std::option::Option::Some(at) = r.field(first, FIELDS, next)? {{
                first = false;
                match at {{
                    {arms}
                    _ => r.skip_value()?,
                }}
                next = at + 1;
            }}
            {ctor} {{ {build} }} }}"
    )
}

/// Reads `[...]` of exactly `n` elements into `ctor(...)`.
fn read_tuple(n: usize, ctor: &str) -> String {
    let elems: Vec<String> = (0..n).map(|i| format!("r.elem({})?", i == 0)).collect();
    format!(
        "{{ r.begin_seq()?; let v = {ctor}({}); r.close_seq({})?; v }}",
        elems.join(", "),
        n == 0
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => match fields {
            Fields::Unit => format!("{{ r.null()?; {name} }}"),
            Fields::Tuple(1) => format!("{name}(::serde::Deserialize::deserialize(r)?)"),
            Fields::Tuple(n) => read_tuple(*n, name),
            Fields::Named(fs) => read_named(fs, name),
        },
        Shape::Enum(variants) => {
            let mut names = String::new();
            let mut arms = String::new();
            for (i, v) in variants.iter().enumerate() {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                let (payload, value) = match &v.fields {
                    Fields::Unit => (false, ctor),
                    Fields::Tuple(n) => (true, read_tuple(*n, &ctor)),
                    Fields::Named(fs) => (true, read_named(fs, &ctor)),
                };
                names.push_str(&format!("{vn:?}, "));
                arms.push_str(&format!("({i}, {payload}) => {value},\n"));
            }
            format!(
                "{{ const VARIANTS: &[&str] = &[{names}];
                    let (at, payload) = r.variant(VARIANTS, {name:?})?;
                    let v = match (at, payload) {{
                        {arms}
                        _ => return ::std::result::Result::Err(::serde::unknown_variant(VARIANTS.get(at).copied().unwrap_or_default(), {name:?})),
                    }};
                    if payload {{ r.end_enum()?; }}
                    v }}"
            )
        }
    };
    // A newtype is its inner value: inlined wherever it is read.
    let inline = match &item.shape {
        Shape::Struct(Fields::Tuple(1)) => "#[inline(always)]",
        _ => "#[inline]",
    };
    format!(
        "impl ::serde::Deserialize for {name} {{
            {inline}
            fn deserialize(r: &mut ::serde::Reader<'_>) -> ::std::result::Result<Self, ::serde::Error> {{
                ::std::result::Result::Ok({body})
            }}
        }}"
    )
}
