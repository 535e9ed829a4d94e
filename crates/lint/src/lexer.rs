//! A hand-rolled Rust source lexer, just deep enough for invariant
//! linting — no `syn`, no crates.io, no real parse tree.
//!
//! The lexer produces a [`MaskedFile`]: a copy of the source in which
//! every comment, string literal body, raw-string body, and char literal
//! body is blanked to spaces **at the same byte offsets** (newlines are
//! preserved), so rule passes can scan for tokens like `.unwrap()` or
//! `Ordering::Relaxed` with plain substring searches and never trip over
//! a commented-out `panic!` or a raw string that happens to contain
//! `unwrap()`. On top of the mask it extracts:
//!
//! * a line index (`byte offset -> 1-based line`),
//! * `fn` item spans with their body brace ranges (for per-function lock
//!   analysis and match-arm extraction),
//! * `#[cfg(test)]` item spans (test modules are exempt from every rule),
//! * `// lint: allow(rule, "reason")` annotations per line.

use std::ops::Range;

/// One `fn` item: its name and the byte range of its `{ ... }` body
/// (delimiters included).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's identifier.
    pub name: String,
    /// Byte range of the body, including both braces.
    pub body: Range<usize>,
}

/// One `// lint: allow(rule, "reason")` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule key being allowed (e.g. `panic`, `relaxed`).
    pub rule: String,
    /// The justification string; empty when the author left it off,
    /// which is itself a violation.
    pub reason: String,
    /// 1-based line the annotation sits on.
    pub line: usize,
}

/// A lexed source file: original text, comment/string-masked text, and
/// the structural indexes rule passes work from.
#[derive(Debug)]
pub struct MaskedFile {
    /// The original source.
    pub source: String,
    /// Same length as `source`, with comment and literal bodies blanked.
    pub masked: String,
    /// Byte offset of the start of each line (index 0 = line 1).
    pub line_starts: Vec<usize>,
    /// Every `fn` item found, in source order (nested fns included).
    pub fns: Vec<FnSpan>,
    /// Byte ranges of `#[cfg(test)]` items (usually `mod tests`).
    pub test_spans: Vec<Range<usize>>,
    /// All `lint: allow` annotations, in source order.
    pub allows: Vec<Allow>,
}

impl MaskedFile {
    /// Lexes `source` into a masked view plus structural indexes.
    #[must_use]
    pub fn new(source: &str) -> Self {
        let masked = mask(source);
        let line_starts = line_starts(source);
        let fns = fn_spans(&masked);
        let test_spans = cfg_test_spans(&masked);
        let allows = parse_allows(source, &line_starts);
        Self {
            source: source.to_string(),
            masked,
            line_starts,
            fns,
            test_spans,
            allows,
        }
    }

    /// 1-based line number of a byte offset.
    #[must_use]
    pub fn line_of(&self, pos: usize) -> usize {
        match self.line_starts.binary_search(&pos) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// `true` when `pos` falls inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test(&self, pos: usize) -> bool {
        self.test_spans.iter().any(|r| r.contains(&pos))
    }

    /// The innermost `fn` whose body contains `pos`.
    #[cfg(test)]
    fn fn_at(&self, pos: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(&pos))
            .min_by_key(|f| f.body.end - f.body.start)
    }

    /// Whether a violation of `rule` at 1-based `line` is covered by a
    /// reasoned `lint: allow` — on the same line, or on a contiguous run
    /// of comment-only lines directly above it.
    #[must_use]
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        let covered = |l: usize| {
            self.allows
                .iter()
                .any(|a| a.line == l && a.rule == rule && !a.reason.is_empty())
        };
        if covered(line) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let text = self.line_text(l).trim_start();
            if !text.starts_with("//") {
                return false;
            }
            if covered(l) {
                return true;
            }
        }
        false
    }

    /// The original text of 1-based line `line`.
    #[must_use]
    pub fn line_text(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .copied()
            .unwrap_or(self.source.len());
        self.source[start..end].trim_end_matches('\n')
    }
}

fn line_starts(source: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in source.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Blanks comments and literal bodies to spaces, preserving newlines and
/// byte offsets. Handles line/nested-block comments, string and raw
/// string literals (including `b"..."` / `br#"..."#`), and char/byte
/// literals, and keeps lifetimes (`'a`) out of the char-literal state.
fn mask(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out: Vec<u8> = bytes.to_vec();
    let mut i = 0usize;
    let blank = |out: &mut [u8], range: Range<usize>| {
        for b in &mut out[range] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let end = source[i..].find('\n').map_or(bytes.len(), |off| i + off);
                blank(&mut out, i..end);
                i = end;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && j + 1 < bytes.len() && bytes[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && j + 1 < bytes.len() && bytes[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i..j);
                i = j;
            }
            b'r' | b'b' if starts_raw_string(bytes, i) => {
                let (hash_at, hashes) = raw_string_hashes(bytes, i);
                // hash_at points at the opening quote.
                let closer: Vec<u8> = std::iter::once(b'"')
                    .chain(std::iter::repeat_n(b'#', hashes))
                    .collect();
                let body_start = hash_at + 1;
                let end = find_subslice(bytes, &closer, body_start).unwrap_or(bytes.len());
                blank(&mut out, body_start..end);
                i = (end + closer.len()).min(bytes.len());
            }
            b'b' if i + 1 < bytes.len() && (bytes[i + 1] == b'"' || bytes[i + 1] == b'\'') => {
                // Byte string/char: defer to the quote handling below.
                i += 1;
            }
            b'"' => {
                let end = scan_string(bytes, i + 1, b'"');
                blank(&mut out, i + 1..end.saturating_sub(1).max(i + 1));
                i = end;
            }
            b'\'' => {
                if is_char_literal(bytes, i) {
                    let end = scan_string(bytes, i + 1, b'\'');
                    blank(&mut out, i + 1..end.saturating_sub(1).max(i + 1));
                    i = end;
                } else {
                    // A lifetime (or a label): leave it alone.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    // SAFETY-free reconstruction: we only wrote ASCII spaces over bytes,
    // but a multi-byte UTF-8 char partially blanked would corrupt the
    // string. Blanking always covers whole literal/comment bodies, so we
    // re-validate and fall back to lossy only if something slipped.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// `r"`, `r#"`, `br"`, `br#"` openers.
fn starts_raw_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'r' {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"' && !prev_is_ident(bytes, i)
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Returns (offset of the opening quote, number of hashes).
fn raw_string_hashes(bytes: &[u8], i: usize) -> (usize, usize) {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0usize;
    while j < bytes.len() && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    (j, hashes)
}

fn find_subslice(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() || from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|off| from + off)
}

/// Scans an escaped literal body from `start` to just past the closing
/// delimiter; returns the offset one past the delimiter.
fn scan_string(bytes: &[u8], start: usize, delim: u8) -> usize {
    let mut j = start;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b if b == delim => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// `'x'` / `'\n'` are char literals; `'a` in `<'a>` is a lifetime. A char
/// literal always closes within a few bytes; a lifetime never has a
/// closing quote before a non-ident char.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    let j = i + 1;
    if j >= bytes.len() {
        return false;
    }
    if bytes[j] == b'\\' {
        return true;
    }
    // `'X'` for any single char (multi-byte UTF-8 chars included: scan to
    // the next quote within 6 bytes).
    let limit = (j + 6).min(bytes.len());
    (j + 1..limit).any(|k| bytes[k] == b'\'' && k > j)
        && !(bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_')
        || (j + 1 < bytes.len() && bytes[j + 1] == b'\'')
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds every `fn name` item in the masked source and the brace range of
/// its body. Bodiless declarations (trait methods ending in `;`) are
/// skipped.
fn fn_spans(masked: &str) -> Vec<FnSpan> {
    let bytes = masked.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while let Some(off) = masked[i..].find("fn ") {
        let at = i + off;
        i = at + 3;
        if prev_is_ident(bytes, at) {
            continue; // e.g. `some_fn ` or `often `
        }
        // The identifier after `fn`.
        let mut j = at + 3;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < bytes.len() && is_ident_byte(bytes[j]) {
            j += 1;
        }
        if j == name_start {
            continue;
        }
        let name = masked[name_start..j].to_string();
        // Body: the first `{` before any `;` at paren/bracket depth zero.
        let mut depth = 0i32;
        let mut body_start = None;
        while j < bytes.len() {
            match bytes[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => {
                    body_start = Some(j);
                    break;
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(start) = body_start else { continue };
        if let Some(end) = matching_brace(bytes, start) {
            spans.push(FnSpan {
                name,
                body: start..end + 1,
            });
        }
    }
    spans
}

/// The offset of the `}` matching the `{` at `open`.
fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Byte ranges of items annotated `#[cfg(test)]`.
fn cfg_test_spans(masked: &str) -> Vec<Range<usize>> {
    let bytes = masked.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while let Some(off) = masked[i..].find("#[cfg(test)]") {
        let at = i + off;
        i = at + "#[cfg(test)]".len();
        // Skip whitespace and any further attributes, then find the
        // item's body brace (or a `;` for bodiless items).
        let mut j = i;
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'#' {
                // Another attribute: skip its bracket group.
                let mut depth = 0i32;
                while j < bytes.len() {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else {
                break;
            }
        }
        while j < bytes.len() && bytes[j] != b'{' && bytes[j] != b';' {
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b'{' {
            if let Some(end) = matching_brace(bytes, j) {
                spans.push(at..end + 1);
                i = end + 1;
            }
        }
    }
    spans
}

/// Extracts `lint: allow(rule, "reason")` annotations from the original
/// source (they live in comments, which the mask blanks).
fn parse_allows(source: &str, line_starts: &[usize]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, &start) in line_starts.iter().enumerate() {
        let end = line_starts.get(idx + 1).copied().unwrap_or(source.len());
        let text = &source[start..end];
        let Some(comment_at) = text.find("//") else {
            continue;
        };
        let comment = &text[comment_at..];
        let Some(key_at) = comment.find("lint: allow(") else {
            continue;
        };
        let rest = &comment[key_at + "lint: allow(".len()..];
        let rule: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let after_rule = &rest[rule.len()..];
        let reason = after_rule
            .find('"')
            .and_then(|q| {
                let body = &after_rule[q + 1..];
                body.find('"').map(|close| body[..close].to_string())
            })
            .unwrap_or_default();
        allows.push(Allow {
            rule,
            reason,
            line: idx + 1,
        });
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = r##"
let a = "panic!(inside a string)";
// a commented-out panic!("x")
let raw = r#"unwrap() in a raw string"#;
let c = '"'; // a quote char literal
let real = x.unwrap();
"##;
        let m = MaskedFile::new(src);
        assert!(!m.masked.contains("panic!"));
        assert!(m.masked.contains(".unwrap()"));
        assert_eq!(m.masked.len(), src.len());
        // Newlines survive so line numbers stay true.
        assert_eq!(m.masked.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.trim() }\nlet y = q.unwrap();";
        let m = MaskedFile::new(src);
        assert!(m.masked.contains(".unwrap()"));
        assert!(m.masked.contains("'a"));
    }

    #[test]
    fn fn_spans_nest_and_name() {
        let src = "fn outer() { fn inner() { x(); } inner(); }";
        let m = MaskedFile::new(src);
        assert_eq!(m.fns.len(), 2);
        let inner_call = src.find("x();").unwrap();
        assert_eq!(m.fn_at(inner_call).unwrap().name, "inner");
    }

    #[test]
    fn cfg_test_regions_are_found() {
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { b.unwrap(); } }";
        let m = MaskedFile::new(src);
        let live = src.find("a.unwrap").unwrap();
        let test = src.find("b.unwrap").unwrap();
        assert!(!m.in_test(live));
        assert!(m.in_test(test));
    }

    #[test]
    fn allow_annotations_parse_and_require_reasons() {
        let src = "// lint: allow(panic, \"poisoning is unreachable here\")\nx.unwrap();\ny.unwrap(); // lint: allow(panic, \"same line\")\nz.unwrap(); // lint: allow(panic)\n";
        let m = MaskedFile::new(src);
        assert!(m.allowed("panic", 2));
        assert!(m.allowed("panic", 3));
        assert!(!m.allowed("panic", 4), "reasonless allow must not count");
        assert!(!m.allowed("relaxed", 2), "rule keys must match");
    }

    #[test]
    fn allow_blocks_stop_at_code_lines() {
        let src = "// lint: allow(panic, \"r\")\nlet a = 1;\nx.unwrap();\n";
        let m = MaskedFile::new(src);
        assert!(!m.allowed("panic", 3), "a code line breaks the comment run");
    }
}
