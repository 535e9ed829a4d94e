//! Rule `relaxed`: atomic-ordering audit.
//!
//! `Ordering::Relaxed` is correct for monotonic telemetry counters and
//! claim cursors, and quietly wrong for anything a thread *decides* on —
//! epoch watermarks, shutdown flags, publish gates. PR 7's burnt-epoch
//! bug was exactly a consistency-bearing counter treated as telemetry.
//! This pass allows `Relaxed` when some identifier in the statement is on
//! the counter allowlist (exact names or `*_count`-style suffixes from
//! [`crate::config`]); every other use needs
//! `// lint: allow(relaxed, "reason")` or a stronger ordering.

use crate::config::LintConfig;
use crate::lexer::MaskedFile;
use crate::report::Violation;
use crate::rules::{idents, token_positions};

const RULE: &str = "relaxed";

pub fn check(file: &MaskedFile, path: &str, cfg: &LintConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    for at in token_positions(&file.masked, "Ordering::Relaxed") {
        if file.in_test(at) {
            continue;
        }
        let line = file.line_of(at);
        if file.allowed(RULE, line) {
            continue;
        }
        // The statement the use sits in: back to the nearest `;`/`{`/`}`.
        let stmt_start = file.masked[..at]
            .rfind([';', '{', '}'])
            .map_or(0, |p| p + 1);
        let allowlisted = idents(&file.masked[stmt_start..at]).any(|id| {
            cfg.relaxed_names.contains(&id) || cfg.relaxed_suffixes.iter().any(|s| id.ends_with(s))
        });
        if allowlisted {
            continue;
        }
        out.push(Violation::new(
            RULE,
            path,
            line,
            "`Ordering::Relaxed` on a non-allowlisted atomic; use SeqCst/Acquire-Release \
             for anything control flow depends on, or annotate \
             `lint: allow(relaxed, \"…\")` if this really is a counter",
        ));
    }
    out
}
