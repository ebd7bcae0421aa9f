//! Repo automation. `cargo xtask bench-record` writes a `BENCH_<pr>.json`
//! point of the benchmark trajectory (see [`bench_record`]); `cargo xtask
//! size [root]` prints the design-size counts (see [`size`]); `cargo xtask
//! lint` is the static lock-discipline pass CI runs on every push:
//!
//! 1. **No raw locks.** `RwLock` / `Mutex` identifier tokens are
//!    forbidden in first-party source outside
//!    `crates/storage/src/ordered.rs` — every shared-state lock must be
//!    an `OrderedRwLock`/`OrderedMutex` carrying a declared
//!    `LockClass`, or the acquisition-order checker cannot see it.
//!    Applies to test code too (tests use `classes::TEST_SUPPORT`).
//! 2. **No classless constructions.** The first argument of
//!    `OrderedRwLock::new` / `OrderedMutex::new` / `Shards::new` must name
//!    a `classes::` constant (or forward a `class` parameter).
//! 3. **No stray panics on mutation paths.** In non-test
//!    `crates/engine/src` and `crates/storage/src` code (and the other
//!    [`PANIC_SCAN_ROOTS`], the `serde` / `serde_json` shims that decode
//!    journal and snapshot bytes among them), `.unwrap()` is
//!    forbidden and `.expect(...)` must carry a message starting with
//!    `"invariant:"` — a reviewed claim that the branch is unreachable,
//!    not a shrug. `#[cfg(test)]` regions are exempt.
//! 4. **One builder of the analysed schema.** In non-test `crates/*/src`
//!    code, `Blocks::analyze(` (or its `Blocks::analyze_indexed(` form)
//!    and `CompiledSchema::compile(` may be called only by
//!    `adept_state::Execution` — the one place a schema's block structure
//!    and arena are built — and by the few files that
//!    analyse a schema no context holds yet ([`ANALYSIS_ALLOWED`]): the
//!    verifier's one entry among them, which hands the blocks it judged a
//!    candidate on to whoever compiles it (`Execution::with_blocks`).
//!    Everything else takes the parts from the `Execution` it already
//!    has: a per-instance re-analysis in a migration hop, commit, undo or
//!    audit fails here.
//!
//! The scanner is deliberately a hand-rolled token pass (the workspace
//! builds fully offline — no `syn`): comments are stripped, string
//! literals masked, identifiers matched on word boundaries. It is a
//! tripwire, not a proof; the run-time checker in
//! `adept_storage::ordered` is the authority.

mod bench_record;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("size") => size(&args.next().map_or_else(repo_root, PathBuf::from)),
        Some("bench-record") => bench_record::run(&repo_root(), args),
        Some(other) => {
            eprintln!("unknown xtask `{other}` (available: lint, size, bench-record)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <lint | size [root] | bench-record --pr <n>>");
            ExitCode::FAILURE
        }
    }
}

/// Files rule 1 (no raw locks) skips: the one module allowed to touch
/// the underlying lock types.
const RAW_LOCK_ALLOWED: &[&str] = &["crates/storage/src/ordered.rs"];

/// Directories scanned for rules 1–2 (first-party source; shims provide
/// the lock types themselves and are excluded by construction).
const LOCK_SCAN_ROOTS: &[&str] = &["crates", "tests", "examples"];

/// Paths rule 3 (panic denylist) applies to: the engine/storage
/// mutation paths plus the compiled execution core, whose panics would
/// take down command processing, and the codec shims and the state-delta
/// module — the code hostile bytes (a damaged journal line, a truncated
/// snapshot) reach first. Entries may be directories (walked recursively) or single
/// `.rs` files.
const PANIC_SCAN_ROOTS: &[&str] = &[
    "crates/engine/src",
    "crates/storage/src",
    "crates/model/src/compiled.rs",
    // The dense index the arena compiles from.
    "crates/model/src/index.rs",
    "crates/state/src/compact.rs",
    // Applies decoded journal bytes to an instance's state.
    "crates/state/src/delta.rs",
    "shims/serde/src",
    "shims/serde_json/src",
];

/// Files rule 4 lets call `Blocks::analyze` / `CompiledSchema::compile`
/// outside tests, each with the reason no context could have handed it
/// the result.
const ANALYSIS_ALLOWED: &[&str] = &[
    // The one builder: `Execution::new` / `Execution::with_blocks`.
    "crates/state/src/execution.rs",
    // Analyses the schema it is in the middle of editing.
    "crates/core/src/apply.rs",
    // The verifier judges a candidate schema nothing has deployed yet —
    // once, in `verify_analysed`, which hands the blocks on.
    "crates/verify/src/lib.rs",
    // The change generator reads the structure of a schema it was just
    // handed to propose an operation against (tests and benches only).
    "crates/simgen/src/changegen.rs",
];

fn lint() -> ExitCode {
    let root = repo_root();
    let mut violations: Vec<String> = Vec::new();

    for dir in LOCK_SCAN_ROOTS {
        for file in rust_files(&root.join(dir)) {
            let rel = rel_path(&root, &file);
            let Ok(text) = std::fs::read_to_string(&file) else {
                violations.push(format!("{rel}: unreadable"));
                continue;
            };
            let masked = mask_comments_and_strings(&text);
            if !RAW_LOCK_ALLOWED.contains(&rel.as_str()) {
                check_raw_locks(&rel, &masked, &mut violations);
            }
            check_declared_classes(&rel, &text, &masked, &mut violations);
        }
    }

    for dir in PANIC_SCAN_ROOTS {
        for file in rust_files(&root.join(dir)) {
            let rel = rel_path(&root, &file);
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue; // already reported above
            };
            let mut masked = mask_comments_and_strings(&text);
            blank_cfg_test_regions(&mut masked);
            check_panic_denylist(&rel, &text, &masked, &mut violations);
        }
    }

    for file in rust_files(&root.join("crates")) {
        let rel = rel_path(&root, &file);
        if !rel.contains("/src/") || ANALYSIS_ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue; // already reported above
        };
        let mut masked = mask_comments_and_strings(&text);
        blank_cfg_test_regions(&mut masked);
        check_single_builder(&rel, &masked, &mut violations);
    }

    if violations.is_empty() {
        println!("xtask lint: ok");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Prints the five counts that measure the design's size, for the tree
/// at `root`: the lines of `crates/*/src`, the `pub fn`s and the pub types
/// among them (lines matching `^\s*pub fn ` and
/// `^\s*pub (struct|enum|trait|type) `), the workspace members and the
/// declared lock classes (`crates/storage/src/ordered.rs`). Pass the root
/// of another checkout to count it with the same rules.
fn size(root: &Path) -> ExitCode {
    let Ok(crates) = std::fs::read_dir(root.join("crates")) else {
        eprintln!("xtask size: no crates/ under {}", root.display());
        return ExitCode::FAILURE;
    };
    const PUB_TYPES: [&str; 4] = ["pub struct ", "pub enum ", "pub trait ", "pub type "];
    let (mut lines, mut pub_fns, mut pub_types) = (0usize, 0usize, 0usize);
    for krate in crates.flatten() {
        for file in rust_files(&krate.path().join("src")) {
            let text = std::fs::read_to_string(&file).unwrap_or_default();
            lines += text.bytes().filter(|&b| b == b'\n').count();
            for line in text.lines().map(str::trim_start) {
                pub_fns += usize::from(line.starts_with("pub fn "));
                pub_types += usize::from(PUB_TYPES.iter().any(|t| line.starts_with(t)));
            }
        }
    }
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    let members = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or(0, |(list, _)| list.matches('"').count() / 2);
    let lock_classes = std::fs::read_to_string(root.join("crates/storage/src/ordered.rs"))
        .unwrap_or_default()
        .matches(": LockClass = LockClass::new(")
        .count();
    println!("crates/*/src lines: {lines}");
    println!("pub fn: {pub_fns}");
    println!("pub types: {pub_types}");
    println!("workspace members: {members}");
    println!("lock classes: {lock_classes}");
    ExitCode::SUCCESS
}

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is xtask/; the workspace root is its parent.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .expect("invariant: cargo always sets CARGO_MANIFEST_DIR");
    Path::new(&manifest)
        .parent()
        .expect("invariant: xtask lives one level below the workspace root")
        .to_path_buf()
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    if dir.is_file() {
        return vec![dir.to_path_buf()];
    }
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Replaces comments with spaces and string/char literal *contents* with
/// `·`-free spaces, preserving byte offsets and newlines so line numbers
/// survive. Quotes themselves are kept so the caller can still see where
/// a literal started.
fn mask_comments_and_strings(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1;
                out[i] = b' ';
                out[i + 1] = b' ';
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        continue;
                    }
                    if bytes[i] != b'\n' {
                        out[i] = b' ';
                    }
                    i += 1;
                }
                i += 1; // closing quote
            }
            b'\'' => {
                // Char literal or lifetime. A lifetime has no closing
                // quote within a couple of bytes; chars do.
                let close = bytes.iter().skip(i + 1).take(4).position(|&b| b == b'\'');
                if let Some(off) = close {
                    for b in out.iter_mut().skip(i + 1).take(off) {
                        if *b != b'\n' {
                            *b = b' ';
                        }
                    }
                    i += off + 2;
                } else {
                    i += 1; // lifetime; leave as-is
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("invariant: masking only writes ASCII spaces over valid UTF-8")
}

/// Blanks every `#[cfg(test)]`-gated region (attribute through the end
/// of the following brace-delimited item) so later rules skip test code.
fn blank_cfg_test_regions(masked: &mut String) {
    let mut search_from = 0;
    while let Some(pos) = masked[search_from..].find("#[cfg(test)]") {
        let start = search_from + pos;
        let bytes = masked.as_bytes();
        let Some(open_rel) = bytes[start..].iter().position(|&b| b == b'{') else {
            break;
        };
        let open = start + open_rel;
        let mut depth = 0usize;
        let mut end = masked.len();
        for (j, &b) in bytes.iter().enumerate().skip(open) {
            if b == b'{' {
                depth += 1;
            } else if b == b'}' {
                depth -= 1;
                if depth == 0 {
                    end = j + 1;
                    break;
                }
            }
        }
        // SAFETY of offsets: only ASCII bytes are replaced.
        let blanked: String = masked[start..end]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        masked.replace_range(start..end, &blanked);
        search_from = end.min(masked.len());
    }
}

fn line_of(text: &str, offset: usize) -> usize {
    text[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Yields `(offset, ident)` for every identifier token in `masked`.
fn idents(masked: &str) -> Vec<(usize, &str)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_byte(bytes[i]) && (i == 0 || !is_ident_byte(bytes[i - 1])) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            out.push((start, &masked[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

/// Rule 1: no bare `RwLock` / `Mutex` identifiers outside the ordered
/// module.
fn check_raw_locks(rel: &str, masked: &str, violations: &mut Vec<String>) {
    for (off, ident) in idents(masked) {
        if ident == "RwLock" || ident == "Mutex" {
            violations.push(format!(
                "{rel}:{}: raw `{ident}` — use `adept_storage::ordered::{{OrderedRwLock, \
                 OrderedMutex}}` with a declared LockClass (see docs/LOCK_ORDER.md)",
                line_of(masked, off)
            ));
        }
    }
}

/// Rule 2: ordered-lock constructors must receive a `classes::` constant
/// (or forward a `class` parameter) as their first argument.
fn check_declared_classes(rel: &str, text: &str, masked: &str, violations: &mut Vec<String>) {
    const CONSTRUCTORS: &[(&str, &[&str])] = &[
        ("OrderedRwLock", &["new"]),
        ("OrderedMutex", &["new"]),
        ("Shards", &["new"]),
    ];
    let toks = idents(masked);
    for (k, &(off, ident)) in toks.iter().enumerate() {
        let Some((_, methods)) = CONSTRUCTORS.iter().find(|(t, _)| *t == ident) else {
            continue;
        };
        // The constructor call is `Type::method(` or `Type::<..>::method(`;
        // the method name is the next identifier token either way.
        let Some(&(m_off, m_ident)) = toks.get(k + 1) else {
            continue;
        };
        if !methods.contains(&m_ident) {
            continue;
        }
        // Require `(` directly after the method name and `::` between —
        // otherwise this is a definition or an unrelated mention.
        let between = &masked[off + ident.len()..m_off];
        if !between.contains("::") {
            continue;
        }
        let after = masked[m_off + m_ident.len()..].trim_start();
        if !after.starts_with('(') {
            continue;
        }
        // First argument: everything to the first top-level comma.
        let open = masked[m_off..]
            .find('(')
            .map(|p| m_off + p + 1)
            .expect("invariant: checked above that a paren follows");
        let mut depth = 0usize;
        let mut end = open;
        for (j, b) in masked.as_bytes().iter().enumerate().skip(open) {
            match b {
                b'(' | b'[' | b'<' => depth += 1,
                b')' if depth == 0 => {
                    end = j;
                    break;
                }
                b')' | b']' | b'>' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
        }
        let first_arg = text[open..end].trim();
        let names_class = first_arg.contains("classes::")
            || first_arg == "class"
            || first_arg == "&class"
            || first_arg == "self.class";
        if !names_class {
            violations.push(format!(
                "{rel}:{}: `{ident}::{m_ident}` without a declared lock class — pass a \
                 `classes::` constant (see crates/storage/src/ordered.rs)",
                line_of(masked, off)
            ));
        }
    }
}

/// Rule 3: `.unwrap()` forbidden; `.expect(` must open an
/// `"invariant:"-prefixed message.
fn check_panic_denylist(rel: &str, text: &str, masked: &str, violations: &mut Vec<String>) {
    let bytes = masked.as_bytes();
    for (off, ident) in idents(masked) {
        let preceded_by_dot = off > 0 && bytes[off - 1] == b'.';
        if !preceded_by_dot {
            continue;
        }
        match ident {
            "unwrap" => {
                let after = masked[off + ident.len()..].trim_start();
                if after.starts_with("()") {
                    violations.push(format!(
                        "{rel}:{}: `.unwrap()` on a mutation path — return a typed error or \
                         use `.expect(\"invariant: ...\")` with a reviewed claim",
                        line_of(masked, off)
                    ));
                }
            }
            "expect" => {
                let Some(open_rel) = masked[off..].find('(') else {
                    continue;
                };
                let msg = text[off + open_rel + 1..].trim_start();
                if !msg.starts_with("\"invariant:") {
                    violations.push(format!(
                        "{rel}:{}: `.expect()` message must start with \"invariant:\" — \
                         state why the branch is unreachable, or return a typed error",
                        line_of(masked, off)
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Rule 4: no `Blocks::analyze(` / `Blocks::analyze_indexed(` /
/// `CompiledSchema::compile(` call outside the builder (the caller skips
/// [`ANALYSIS_ALLOWED`] files and blanks test regions).
fn check_single_builder(rel: &str, masked: &str, violations: &mut Vec<String>) {
    const BUILDER_CALLS: &[(&str, &str)] = &[
        ("Blocks", "analyze"),
        ("Blocks", "analyze_indexed"),
        ("CompiledSchema", "compile"),
    ];
    let toks = idents(masked);
    for (k, &(off, ident)) in toks.iter().enumerate() {
        let Some(&(m_off, m_ident)) = toks.get(k + 1) else {
            continue;
        };
        if !BUILDER_CALLS.contains(&(ident, m_ident))
            || masked[off + ident.len()..m_off].trim() != "::"
            || !masked[m_off + m_ident.len()..]
                .trim_start()
                .starts_with('(')
        {
            continue;
        }
        violations.push(format!(
            "{rel}:{}: `{ident}::{m_ident}` outside the one builder — take blocks and arena \
             from the `Execution` at hand, compile over the blocks \
             `verify_analysed` handed back (`Execution::with_blocks`), or build all three once \
             with `adept_state::Execution::new`",
            line_of(masked, off)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_strips_comments_and_string_bodies() {
        let src = "let a = \"Mutex\"; // RwLock\nlet b = 1; /* Mutex */";
        let m = mask_comments_and_strings(src);
        assert!(!m.contains("Mutex"));
        assert!(!m.contains("RwLock"));
        assert_eq!(m.len(), src.len());
        assert_eq!(m.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn raw_lock_rule_fires_on_identifiers_only() {
        let mut v = Vec::new();
        check_raw_locks("f.rs", "let x: OrderedRwLock<u8>;", &mut v);
        assert!(v.is_empty(), "substring must not match: {v:?}");
        check_raw_locks("f.rs", "use std::sync::RwLock;", &mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn class_rule_accepts_classes_path_and_forwarded_param() {
        let mut v = Vec::new();
        let good = "Shards::new(&classes::STORE_SHARD, 8); Shards::new(class, n); \
                    Shards::<u32>::new(&classes::TEST_SUPPORT, n);";
        let m = mask_comments_and_strings(good);
        check_declared_classes("f.rs", good, &m, &mut v);
        assert!(v.is_empty(), "{v:?}");
        let bad = "OrderedMutex::new(&SOME_CLASS, 0);";
        let m = mask_comments_and_strings(bad);
        check_declared_classes("f.rs", bad, &m, &mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn panic_rule_requires_invariant_prefix_and_skips_cfg_test() {
        let src = "fn f() { x.unwrap(); y.expect(\"oops\"); z.expect(\"invariant: fine\"); }\n\
                   #[cfg(test)]\nmod t { fn g() { a.unwrap(); } }";
        let mut masked = mask_comments_and_strings(src);
        blank_cfg_test_regions(&mut masked);
        let mut v = Vec::new();
        check_panic_denylist("f.rs", src, &masked, &mut v);
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn single_builder_rule_fires_on_a_per_instance_reanalysis() {
        // The shape `migrate_instance` had: the target re-analysed per hop.
        let src =
            "fn hop(target: &ProcessSchema) {\n    let blocks = Blocks::analyze(target)?;\n    \
                   let arena = CompiledSchema :: compile(target, &blocks);\n    \
                   Blocks::analyze_indexed(&SchemaIndex::of(target))?;\n}\n\
                   // Blocks::analyze(in a comment)\n\
                   fn fine(b: &Blocks) { b.analyze_nothing(); let _ = \"Blocks::analyze(\"; }\n\
                   #[cfg(test)]\nmod t { fn g() { Blocks::analyze(&s).unwrap(); } }";
        let mut masked = mask_comments_and_strings(src);
        blank_cfg_test_regions(&mut masked);
        let mut v = Vec::new();
        check_single_builder("crates/core/src/migration.rs", &masked, &mut v);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v[0].starts_with("crates/core/src/migration.rs:2:"), "{v:?}");
        assert!(v[1].starts_with("crates/core/src/migration.rs:3:"), "{v:?}");
        assert!(v[2].starts_with("crates/core/src/migration.rs:4:"), "{v:?}");
    }
}
