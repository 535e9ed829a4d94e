//! Violation records and report rendering.

use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule key (`panic`, `lock_order`, `lock_free`, `relaxed`,
    /// `nondet`, `safety`, `dead_pub`) — also the key an
    /// annotation must use to allow it.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line, or 0 when the violation is file-level (e.g. a
    /// declared lock-free function the file no longer defines).
    pub line: usize,
    /// Human-readable description with enough context to act on.
    pub message: String,
}

impl Violation {
    pub fn new(rule: &'static str, file: &str, line: usize, message: impl Into<String>) -> Self {
        Self {
            rule,
            file: file.to_string(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// Renders a report and returns the number of violations.
pub fn render(violations: &[Violation], out: &mut impl fmt::Write) -> usize {
    for v in violations {
        let _ = writeln!(out, "{v}");
    }
    if !violations.is_empty() {
        let _ = writeln!(
            out,
            "lmm-lint: {} violation(s). Annotate intentional sites with \
             `// lint: allow(<rule>, \"reason\")` or fix them.",
            violations.len()
        );
    }
    violations.len()
}
