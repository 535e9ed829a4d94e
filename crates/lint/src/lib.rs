//! `lmm-lint` — a workspace invariant checker for the lmm crates.
//!
//! The repo's value proposition is its correctness claims: bitwise
//! determinism at any thread count, epoch-consistent serving, a total
//! wire decoder, zero wrong-epoch responses under chaos. Tests exercise
//! those claims; this crate makes the *source-level disciplines behind
//! them* machine-checked, with no dependency on `syn` or crates.io — a
//! hand-rolled lexer ([`lexer::MaskedFile`]) blanks comments and string
//! literals so rule passes can scan for tokens without false positives,
//! and tracks `fn` spans, `#[cfg(test)]` regions, and
//! `// lint: allow(rule, "reason")` annotations.
//!
//! # Rules
//!
//! | key | pass | enforces |
//! |-----|------|----------|
//! | `panic` | [`rules::panics`] | hot-path modules (`serve/{router,shard}`, `cluster/{node,client,transport,wire,retry}`, `par`) contain no unannotated `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` |
//! | `lock_order` | [`rules::locks`] | nested `.lock()`/`.read()`/`.write()` acquisitions follow the declared per-file partial order (no deadlock-shaped inversions) |
//! | `lock_free` | [`rules::locks`] | the declared serve read-path functions (every `serve/router.rs` read) exist and contain no blocking synchronization at all — no `.lock()`/`.read()`/`.write()`, no `Mutex`/`RwLock` |
//! | `relaxed` | [`rules::atomics`] | `Ordering::Relaxed` only on allowlisted counter names; epochs, flags, and shutdown bits need a stronger ordering or a reasoned annotation |
//! | `nondet` | [`rules::det`] | the deterministic kernels (`core`, `linalg`, `rank`, `graph::delta`) never touch `Instant::now`/`SystemTime`/`RandomState` |
//! | `safety` | [`rules::safety`] | every `unsafe` in scanned code sits under a `// SAFETY:` comment (on its line, or directly above a run of consecutive `unsafe` lines) |
//! | `dead_pub` | [`rules::dead_pub`] | every `pub` fn/struct/enum/trait/type/const/static of a library file is named by another file of `crates/`, `src/`, `tests/`, `examples/` or `benchmark/src` (a `pub use` is not a use; a type a `pub` signature or field of its own file exposes is API); a stale allow is itself a violation |
//!
//! Every rule exempts `#[cfg(test)]` regions, and every rule honors
//! `// lint: allow(<key>, "reason")` on the offending line or on the
//! comment block directly above it (for `dead_pub`, the block may
//! include the item's attributes). The reason string is mandatory — an
//! allow without one does not count.
//!
//! # Entry points
//!
//! * `cargo run -p lmm-lint` — check the workspace, exit non-zero on any
//!   violation.
//! * `cargo test -p lmm-lint` — fixture tests for each rule plus a
//!   `workspace_is_clean` test that runs the full pass, so plain
//!   `cargo test` catches violations locally before CI does.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use config::LintConfig;
use lexer::MaskedFile;
use report::Violation;

/// Recursively collects `.rs` files under the configured scan roots,
/// returning workspace-relative forward-slash paths, sorted.
#[must_use]
pub fn collect_files(root: &Path, cfg: &LintConfig) -> Vec<String> {
    let mut files = collect_under(root, cfg.scan_roots, cfg);
    files.retain(|f| !cfg.skip_contains.iter().any(|s| f.contains(s)));
    files
}

/// `.rs` files under `dirs`, minus the skipped prefixes, sorted.
fn collect_under(root: &Path, dirs: &[&str], cfg: &LintConfig) -> Vec<String> {
    let mut files = Vec::new();
    for dir in dirs {
        walk(&root.join(dir), root, &mut files);
    }
    files.retain(|f| !cfg.skip_prefixes.iter().any(|p| f.starts_with(p)));
    files.sort();
    files
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Runs every per-file rule over one already-lexed file.
#[must_use]
fn check_file(file: &MaskedFile, rel: &str, cfg: &LintConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    if cfg.hot_path.contains(&rel) {
        out.extend(rules::panics::check(file, rel));
    }
    if let Some(order) = cfg.lock_orders.iter().find(|o| o.file == rel) {
        out.extend(rules::locks::check(file, rel, order));
    }
    if let Some(policy) = cfg.lock_free.iter().find(|p| p.file == rel) {
        out.extend(rules::locks::check_lock_free(file, rel, policy));
    }
    out.extend(rules::atomics::check(file, rel, cfg));
    if cfg.det_prefixes.iter().any(|p| rel.starts_with(p)) {
        out.extend(rules::det::check(file, rel, cfg));
    }
    out.extend(rules::safety::check(file, rel));
    out
}

/// Runs the full pass over the workspace at `root`: every per-file rule,
/// then `dead_pub`, which needs the whole corpus at once. Violations come
/// back sorted by file then line.
#[must_use]
pub fn run_workspace(root: &Path, cfg: &LintConfig) -> Vec<Violation> {
    let lex = |rel: String| {
        let source = std::fs::read_to_string(root.join(&rel)).ok()?;
        Some((rel, MaskedFile::new(&source)))
    };
    let mut out = Vec::new();
    for (rel, file) in collect_files(root, cfg).into_iter().filter_map(lex) {
        out.extend(check_file(&file, &rel, cfg));
    }
    let corpus: Vec<_> = collect_under(root, cfg.dead_pub_corpus, cfg)
        .into_iter()
        .filter_map(lex)
        .collect();
    out.extend(rules::dead_pub::check(&corpus));
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// The workspace root, resolved from this crate's own manifest dir so
/// the bin and tests work from any cwd.
#[must_use]
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}
