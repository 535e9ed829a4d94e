//! Rule `nondet`: determinism fence.
//!
//! The ranking kernels (`core`, `linalg`, `rank`, `graph::delta`) claim
//! bitwise-identical output at any thread count, and the tests assert
//! it. Wall-clock reads (`Instant::now`, `SystemTime`) and randomized
//! hashing (`RandomState`, the `HashMap::new` default) inside those
//! crates either leak into results or into iteration order. Any use must
//! carry `// lint: allow(nondet, "reason")` — e.g. a coarse progress
//! log that provably never feeds the math.

use crate::config::LintConfig;
use crate::lexer::MaskedFile;
use crate::report::Violation;
use crate::rules::token_positions;

const RULE: &str = "nondet";

pub fn check(file: &MaskedFile, path: &str, cfg: &LintConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    for token in cfg.det_banned {
        for at in token_positions(&file.masked, token) {
            if file.in_test(at) {
                continue;
            }
            let line = file.line_of(at);
            if file.allowed(RULE, line) {
                continue;
            }
            out.push(Violation::new(
                RULE,
                path,
                line,
                format!(
                    "`{token}` inside the deterministic kernel fence; these crates promise \
                     bitwise-reproducible output — thread timing or hash seeds must not \
                     reach them (annotate `lint: allow(nondet, \"…\")` if it provably \
                     cannot affect results)"
                ),
            ));
        }
    }
    out.sort_by_key(|v| v.line);
    out
}
