//! Rule `safety`: every `unsafe` states why it is sound.
//!
//! An `unsafe` block, impl or fn is a proof obligation the compiler hands
//! back to the author. The obligation must be written down where a
//! reviewer reads the code: a `// SAFETY:` comment on the same line, or
//! in the comment block directly above. Consecutive `unsafe` lines may
//! share one comment (two `unsafe impl`s for `Send` and `Sync`, or two
//! raw-pointer calls that are one argument); any other line between the
//! comment and the `unsafe` breaks the link.

use crate::lexer::MaskedFile;
use crate::report::Violation;
use crate::rules::token_positions;

const RULE: &str = "safety";
const MARKER: &str = "// SAFETY:";

pub fn check(file: &MaskedFile, path: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for at in keyword_positions(&file.masked) {
        if file.in_test(at) {
            continue;
        }
        let line = file.line_of(at);
        if justified(file, line) || file.allowed(RULE, line) {
            continue;
        }
        out.push(Violation::new(
            RULE,
            path,
            line,
            "`unsafe` without a `// SAFETY:` comment on its line or directly above it \
             (consecutive `unsafe` lines may share one); state why it is sound",
        ));
    }
    out
}

/// Byte offsets of the `unsafe` keyword in masked source: identifier
/// boundaries on both sides, so `unsafe_count` does not match.
fn keyword_positions(masked: &str) -> impl Iterator<Item = usize> + '_ {
    let bytes = masked.as_bytes();
    token_positions(masked, "unsafe").filter(move |&at| {
        bytes
            .get(at + "unsafe".len())
            .is_none_or(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
    })
}

/// `true` when masked line `line` (1-based) holds the `unsafe` keyword.
fn has_keyword(file: &MaskedFile, line: usize) -> bool {
    let start = file.line_starts[line - 1];
    let end = file
        .line_starts
        .get(line)
        .copied()
        .unwrap_or(file.masked.len());
    keyword_positions(&file.masked[start..end]).next().is_some()
}

/// Whether the `unsafe` on `line` is covered by a `// SAFETY:` comment:
/// trailing on the line itself, or in the comment block directly above
/// the run of consecutive `unsafe` lines that `line` belongs to.
fn justified(file: &MaskedFile, line: usize) -> bool {
    if file.line_text(line).contains(MARKER) {
        return true;
    }
    let mut l = line;
    while l > 1 && has_keyword(file, l - 1) {
        l -= 1;
    }
    while l > 1 {
        l -= 1;
        let text = file.line_text(l).trim_start();
        if !text.starts_with("//") {
            return false;
        }
        if text.starts_with(MARKER) {
            return true;
        }
    }
    false
}
