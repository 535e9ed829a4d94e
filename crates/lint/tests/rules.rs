//! One positive + one negative fixture per rule: the positive fixture
//! must produce violations (so `cargo run -p lmm-lint` would exit
//! non-zero on such code), the negative must be clean.

use lmm_lint::config::{self, LockFreePath, LockOrder};
use lmm_lint::lexer::MaskedFile;
use lmm_lint::rules;

fn fixture(name: &str) -> MaskedFile {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    MaskedFile::new(&source)
}

const FIXTURE_ORDER: LockOrder = LockOrder {
    file: "lock fixture",
    tiers: &[&["gate"], &["cell"]],
};

#[test]
fn panic_positive_flags_every_site() {
    let v = rules::panics::check(&fixture("panic_bad.rs"), "panic_bad.rs");
    // unwrap, expect, panic!, todo!, unreachable! — five distinct sites.
    assert_eq!(v.len(), 5, "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "panic"));
}

#[test]
fn panic_negative_is_clean() {
    let v = rules::panics::check(&fixture("panic_ok.rs"), "panic_ok.rs");
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn lock_positive_flags_inversions() {
    let v = rules::locks::check(&fixture("lock_bad.rs"), "lock_bad.rs", &FIXTURE_ORDER);
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "lock_order"));
    assert!(v[0].message.contains("`gate`"), "{}", v[0].message);
}

#[test]
fn lock_negative_is_clean() {
    let v = rules::locks::check(&fixture("lock_ok.rs"), "lock_ok.rs", &FIXTURE_ORDER);
    assert!(v.is_empty(), "{v:#?}");
}

const FIXTURE_LOCK_FREE: LockFreePath = LockFreePath {
    file: "lockfree fixture",
    fns: &["score", "compare", "top_k_for_site", "stats"],
};

#[test]
fn lock_free_positive_flags_every_blocking_token() {
    let v = rules::locks::check_lock_free(
        &fixture("lockfree_bad.rs"),
        "lockfree_bad.rs",
        &FIXTURE_LOCK_FREE,
    );
    // score: .lock(); compare: .read(); top_k_for_site: Mutex + .lock().
    // stats carries a reasoned allow; publish is off the policy list.
    assert_eq!(v.len(), 4, "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "lock_free"));
    assert!(v.iter().any(|v| v.message.contains("`score`")), "{v:#?}");
    assert!(v.iter().any(|v| v.message.contains("`Mutex`")), "{v:#?}");
}

#[test]
fn lock_free_negative_is_clean() {
    let v = rules::locks::check_lock_free(
        &fixture("lockfree_ok.rs"),
        "lockfree_ok.rs",
        &FIXTURE_LOCK_FREE,
    );
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn lock_free_flags_declared_fns_the_file_no_longer_defines() {
    let v = rules::locks::check_lock_free(
        &fixture("lockfree_stale.rs"),
        "lockfree_stale.rs",
        &FIXTURE_LOCK_FREE,
    );
    // compare (test-only), top_k_for_site (renamed), stats (gone).
    assert_eq!(v.len(), 3, "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "lock_free" && v.line == 0));
    for name in ["`compare`", "`top_k_for_site`", "`stats`"] {
        assert!(v.iter().any(|v| v.message.contains(name)), "{v:#?}");
    }
}

#[test]
fn relaxed_positive_flags_flags_and_epochs() {
    let cfg = config::workspace();
    let v = rules::atomics::check(&fixture("relaxed_bad.rs"), "relaxed_bad.rs", &cfg);
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "relaxed"));
}

#[test]
fn relaxed_negative_is_clean() {
    let cfg = config::workspace();
    let v = rules::atomics::check(&fixture("relaxed_ok.rs"), "relaxed_ok.rs", &cfg);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn nondet_positive_flags_clock_and_hash() {
    let cfg = config::workspace();
    let v = rules::det::check(&fixture("nondet_bad.rs"), "nondet_bad.rs", &cfg);
    // Instant::now, SystemTime, RandomState.
    assert_eq!(v.len(), 3, "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "nondet"));
}

#[test]
fn nondet_negative_is_clean() {
    let cfg = config::workspace();
    let v = rules::det::check(&fixture("nondet_ok.rs"), "nondet_ok.rs", &cfg);
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn safety_positive_flags_every_unargued_unsafe() {
    let v = rules::safety::check(&fixture("safety_bad.rs"), "safety_bad.rs");
    // No comment; a non-SAFETY comment; a code line between comment and
    // `unsafe`; the second half of a run a code line broke.
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![5, 9, 15, 22], "{v:#?}");
    assert!(v.iter().all(|v| v.rule == "safety"));
}

#[test]
fn safety_negative_is_clean() {
    let v = rules::safety::check(&fixture("safety_ok.rs"), "safety_ok.rs");
    assert!(v.is_empty(), "{v:#?}");
}

/// A two-file corpus: `lib` as a library file, beside the fixture that
/// uses (and only mentions) its items.
fn dead_pub_corpus(lib: &str) -> Vec<(String, MaskedFile)> {
    vec![
        ("crates/fx/src/lib.rs".to_string(), fixture(lib)),
        (
            "crates/fx/tests/user.rs".to_string(),
            fixture("dead_pub_user.rs"),
        ),
    ]
}

#[test]
fn dead_pub_positive_flags_items_no_other_file_uses() {
    let v = rules::dead_pub::check(&dead_pub_corpus("dead_pub_bad.rs"));
    // Unnamed; only re-exported; only in a comment, doc example and
    // string; only in the file's own tests.
    assert_eq!(v.len(), 4, "{v:#?}");
    assert!(v
        .iter()
        .all(|v| v.rule == "dead_pub" && v.file == "crates/fx/src/lib.rs"));
    for name in [
        "`pub fn nobody_calls`",
        "`pub struct OnlyReexported`",
        "`pub fn only_in_comments`",
        "`pub fn only_own_tests`",
    ] {
        assert!(v.iter().any(|v| v.message.contains(name)), "{name}: {v:#?}");
    }
}

#[test]
fn dead_pub_negative_is_clean() {
    // Used elsewhere; exposed by a `pub` signature or field (multi-line
    // and generic ones too); `pub(crate)`; test code; a reasoned allow.
    let v = rules::dead_pub::check(&dead_pub_corpus("dead_pub_ok.rs"));
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn dead_pub_flags_stale_allows() {
    let v = rules::dead_pub::check(&dead_pub_corpus("dead_pub_stale.rs"));
    // An allow on an item another file names, and one above no `pub` item.
    let lines: Vec<usize> = v.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![4, 10], "{v:#?}");
    assert!(
        v.iter().all(|v| v.message.contains("stale allow")),
        "{v:#?}"
    );
}

#[test]
fn dead_pub_exempts_bins_and_main() {
    for rel in ["crates/fx/src/bin/tool.rs", "crates/fx/src/main.rs"] {
        let corpus = vec![(rel.to_string(), fixture("dead_pub_bad.rs"))];
        let v = rules::dead_pub::check(&corpus);
        assert!(v.is_empty(), "{rel}: {v:#?}");
    }
}
