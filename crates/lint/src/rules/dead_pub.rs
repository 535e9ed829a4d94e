//! Rule `dead_pub`: `pub` means "another file uses this".
//!
//! A `pub` fn, struct, enum, trait, type alias, const or static in a
//! library file (`crates/*/src/**`, `src/**`; bins and `main.rs` are
//! exempt) is reported when its name appears in no other file of the
//! corpus (see [`crate::config::LintConfig::dead_pub_corpus`]). Names are
//! matched as whole identifiers on masked text, so a mention in a comment,
//! a doc example or a string is not a use, and neither is a `pub use`
//! re-export. A name that another `pub` declaration of its own file
//! carries — a return type, a parameter, a `pub` field — is exposed API
//! and is not reported.
//!
//! The remedy is to delete the item, narrow it to private or
//! `pub(crate)`, move a test-only helper under `#[cfg(test)]`, or keep it
//! with `// lint: allow(dead_pub, "reason")` directly above the item
//! (after its doc comment and attributes). An allow on an item that would
//! not be reported is stale and is itself a violation, so an allow cannot
//! outlive the reason it was written for.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use crate::lexer::MaskedFile;
use crate::report::Violation;
use crate::rules::{idents, token_positions};

const RULE: &str = "dead_pub";

/// Item keywords the rule reports.
const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Qualifiers that may sit between `pub` and `fn`.
const FN_QUALIFIERS: &[&str] = &["const", "unsafe", "async"];

/// One `pub` item of a library file.
struct Item<'a> {
    kind: &'a str,
    name: &'a str,
    /// Byte offset of the `pub` token.
    at: usize,
}

/// `true` for a library source file: under `src/` or a crate's `src/`,
/// and neither a bin nor a `main.rs`.
fn is_library(rel: &str) -> bool {
    let in_src = rel.starts_with("src/")
        || rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"));
    in_src && !rel.contains("/bin/") && !rel.ends_with("main.rs")
}

/// Checks every library file of `corpus` against the names used by the
/// rest of it. `corpus` holds every file whose identifiers count as uses,
/// as (workspace-relative path, lexed file) pairs.
#[must_use]
pub fn check(corpus: &[(String, MaskedFile)]) -> Vec<Violation> {
    // name -> indexes of the corpus files that use it.
    let mut users: HashMap<&str, HashSet<usize>> = HashMap::new();
    for (i, (_, file)) in corpus.iter().enumerate() {
        for name in used_idents(file) {
            users.entry(name).or_default().insert(i);
        }
    }
    let mut out = Vec::new();
    for (i, (rel, file)) in corpus.iter().enumerate() {
        if !is_library(rel) {
            continue;
        }
        let items = pub_items(file);
        let decls: Vec<(Range<usize>, HashSet<&str>)> = pub_decl_spans(file)
            .into_iter()
            .map(|span| {
                let names = idents(&file.masked[span.clone()]).collect();
                (span, names)
            })
            .collect();
        for item in &items {
            let named_elsewhere = users
                .get(item.name)
                .is_some_and(|files| files.iter().any(|&f| f != i));
            let exposed = decls
                .iter()
                .any(|(span, names)| !span.contains(&item.at) && names.contains(item.name));
            let dead = !named_elsewhere && !exposed;
            let line = file.line_of(item.at);
            match (dead, allow_line(file, line)) {
                (true, None) => out.push(Violation::new(
                    RULE,
                    rel,
                    line,
                    format!(
                        "`pub {} {}` is named by no other file: delete it, make it private \
                         or `pub(crate)`, move a test-only helper under `#[cfg(test)]`, or \
                         keep it with `// lint: allow(dead_pub, \"who needs it\")`",
                        item.kind, item.name
                    ),
                )),
                (false, Some(allow)) => out.push(Violation::new(
                    RULE,
                    rel,
                    allow,
                    format!(
                        "stale allow: `{}` is {}, so the rule would not report it; \
                         remove the annotation",
                        item.name,
                        if named_elsewhere {
                            "named by another file"
                        } else {
                            "exposed by another `pub` declaration of this file"
                        }
                    ),
                )),
                _ => {}
            }
        }
        // An allow comment that sits above no `pub` item covers nothing.
        // (Doc comments and string literals that quote the syntax are not
        // annotations.)
        let annotation = |line: usize| {
            let text = file.line_text(line).trim_start();
            text.starts_with("//") && !text.starts_with("///") && !text.starts_with("//!")
        };
        for allow in file
            .allows
            .iter()
            .filter(|a| a.rule == RULE && annotation(a.line))
        {
            let covers = items
                .iter()
                .any(|item| allow_line(file, file.line_of(item.at)) == Some(allow.line));
            if !covers {
                out.push(Violation::new(
                    RULE,
                    rel,
                    allow.line,
                    "stale allow: no `pub` item below it; remove the annotation",
                ));
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Identifiers of a file's masked text, outside `pub use` statements.
fn used_idents(file: &MaskedFile) -> Vec<&str> {
    let masked = &file.masked;
    let mut out = Vec::new();
    let mut from = 0usize;
    for at in token_positions(masked, "pub use ") {
        out.extend(idents(&masked[from..at]));
        from = masked[at..].find(';').map_or(masked.len(), |off| at + off);
    }
    out.extend(idents(&masked[from..]));
    out
}

/// Every reportable `pub` item outside `#[cfg(test)]` code.
fn pub_items(file: &MaskedFile) -> Vec<Item<'_>> {
    let masked = &file.masked;
    let mut out = Vec::new();
    for at in pub_positions(masked) {
        if file.in_test(at) {
            continue;
        }
        // `pub const fn f` / `pub unsafe fn f` declare the fn `f`, while
        // `pub const N` declares the const `N`.
        let words: Vec<&str> = idents(&masked[at + "pub".len()..]).take(5).collect();
        let skip = words
            .iter()
            .take_while(|w| FN_QUALIFIERS.contains(w))
            .count();
        let skip = if words.get(skip) == Some(&"fn") {
            skip
        } else {
            0
        };
        if let [kind, name, ..] = words[skip..] {
            if KINDS.contains(&kind) {
                out.push(Item { kind, name, at });
            }
        }
    }
    out
}

/// Offsets of the `pub` keyword when it is a bare visibility (not
/// `pub(crate)`/`pub(super)`).
fn pub_positions(masked: &str) -> impl Iterator<Item = usize> + '_ {
    let bytes = masked.as_bytes();
    token_positions(masked, "pub")
        .filter(move |&at| bytes.get(at + 3).is_some_and(u8::is_ascii_whitespace))
}

/// The text of every `pub` declaration outside `#[cfg(test)]` code and
/// `pub use`/`pub mod` lines: from `pub` to the `{` or `;` that ends its
/// signature, or the `,` or closing bracket that ends a `pub` field.
fn pub_decl_spans(file: &MaskedFile) -> Vec<Range<usize>> {
    let masked = &file.masked;
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for at in pub_positions(masked) {
        if file.in_test(at) || matches!(idents(&masked[at + 3..]).next(), Some("use" | "mod")) {
            continue;
        }
        // Brackets nest; angle brackets only matter for a field's `,`.
        let (mut depth, mut angle) = (0i32, 0i32);
        let len = bytes[at..].iter().enumerate().position(|(k, &b)| {
            match b {
                b'(' | b'[' => depth += 1,
                b')' | b']' | b'}' | b'{' | b';' if depth == 0 => return true,
                b')' | b']' => depth -= 1,
                b'<' => angle += 1,
                b'>' if !matches!(bytes[at + k - 1], b'-' | b'=') => angle -= 1,
                b',' => return depth == 0 && angle <= 0,
                _ => {}
            }
            false
        });
        out.push(at..len.map_or(masked.len(), |len| at + len));
    }
    out
}

/// The line of the `dead_pub` allow covering the item declared on
/// `line`: that line itself, or one in the run of comment and attribute
/// lines directly above it.
fn allow_line(file: &MaskedFile, line: usize) -> Option<usize> {
    let covered = |l: usize| {
        file.allows
            .iter()
            .any(|a| a.line == l && a.rule == RULE && !a.reason.is_empty())
    };
    let mut l = line;
    loop {
        if covered(l) {
            return Some(l);
        }
        if l == 1 {
            return None;
        }
        l -= 1;
        let text = file.line_text(l).trim_start();
        if !(text.starts_with("//") || text.starts_with("#[")) {
            return None;
        }
    }
}
