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
fn wire_positive_flags_duplicates_and_asymmetry() {
    let file = fixture("wire_bad.rs");
    let golden = rules::wire::render_golden(&rules::wire::encode_tags(&file));
    let v = rules::wire::check(&file, "wire_bad.rs", Some(&golden), "wire.golden");
    // Duplicate tag 2 in encode; encode tag 3 = Pong vs decode tag 3 =
    // Ping (both directions flagged); encode tag 4 with no decode arm.
    assert!(v.len() >= 3, "{v:#?}");
    assert!(v.iter().any(|v| v.message.contains("duplicate tag 2")));
    assert!(
        v.iter().any(|v| v.message.contains("no matching")),
        "{v:#?}"
    );
}

#[test]
fn wire_negative_is_clean_and_nested_arms_are_ignored() {
    let file = fixture("wire_ok.rs");
    let encode = rules::wire::encode_tags(&file);
    let decode = rules::wire::decode_tags(&file);
    assert_eq!(encode.len(), 3);
    // The nested `match r.u8()?` arms (0/1) must not appear as tags.
    assert_eq!(decode.len(), 3, "{decode:#?}");
    let golden = rules::wire::render_golden(&encode);
    let v = rules::wire::check(&file, "wire_ok.rs", Some(&golden), "wire.golden");
    assert!(v.is_empty(), "{v:#?}");
}

#[test]
fn wire_missing_golden_is_a_violation() {
    let file = fixture("wire_ok.rs");
    let v = rules::wire::check(&file, "wire_ok.rs", None, "wire.golden");
    assert_eq!(v.len(), 1);
    assert!(v[0].message.contains("missing"));
}

#[test]
fn wire_golden_drift_is_a_violation() {
    let file = fixture("wire_ok.rs");
    let golden = "1 Register\n2 Registered\n3 Renamed\n";
    let v = rules::wire::check(&file, "wire_ok.rs", Some(golden), "wire.golden");
    assert!(!v.is_empty());
}
