//! The workspace's lint policy: which files are hot-path, which lock
//! acquisition orders are legal, which atomics may be `Relaxed`, where
//! the determinism fence runs, and which files count as callers of a
//! `pub` item.
//!
//! Everything here is data. The rule passes in [`crate::rules`] consume
//! it, so policy changes (a new hot-path module, a new lock) are one-line
//! edits to this file, not lexer surgery. Paths are workspace-relative
//! with forward slashes.

/// A declared lock acquisition order for one file: tiers of lock names,
/// earlier tiers must be acquired before later ones. A tier may list
/// aliases for the same logical lock (e.g. a field and the local names
/// it is borrowed under).
#[derive(Debug, Clone)]
pub struct LockOrder {
    /// Workspace-relative path of the file the order governs.
    pub file: &'static str,
    /// Tiers in required acquisition order; each tier is a set of
    /// receiver-name aliases for one logical lock.
    pub tiers: &'static [&'static [&'static str]],
}

/// A declared lock-free read path: functions in `file` that must never
/// block — no `.lock()`/`.read()`/`.write()`, no `Mutex`/`RwLock` at
/// all. This is the inverse of [`LockOrder`]: instead of constraining
/// how locks nest, it bans them outright, so a refactor that quietly
/// reintroduces a mutex on a latency-critical path fails the lint
/// before it fails the benchmark.
#[derive(Debug, Clone)]
pub struct LockFreePath {
    /// Workspace-relative path of the file the policy governs.
    pub file: &'static str,
    /// Function names (as written after `fn`) that must stay lock-free.
    pub fns: &'static [&'static str],
}

/// The full lint policy for this workspace.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Directories scanned for sources, relative to the workspace root.
    pub scan_roots: &'static [&'static str],
    /// Path prefixes excluded from every rule (vendored shims never
    /// follow product policy; `target/` is build output).
    pub skip_prefixes: &'static [&'static str],
    /// Path substrings excluded from every rule: integration-test and
    /// example trees are test code even without `#[cfg(test)]`.
    pub skip_contains: &'static [&'static str],
    /// Hot-path files: unannotated `unwrap`/`expect`/`panic!`-family
    /// macros are violations here (tests exempt).
    pub hot_path: &'static [&'static str],
    /// Declared lock orders, one per file that nests acquisitions.
    pub lock_orders: &'static [LockOrder],
    /// Declared lock-free read paths: named functions where any blocking
    /// synchronization token is a violation.
    pub lock_free: &'static [LockFreePath],
    /// Exact identifier names allowed to use `Ordering::Relaxed`
    /// (monotonic counters and claim cursors whose readers tolerate
    /// staleness).
    pub relaxed_names: &'static [&'static str],
    /// Identifier suffixes allowed to use `Ordering::Relaxed` (the
    /// telemetry counter naming convention).
    pub relaxed_suffixes: &'static [&'static str],
    /// Path prefixes inside the determinism fence: wall-clock time and
    /// randomized hashing are banned (tests assert bitwise
    /// reproducibility of these kernels).
    pub det_prefixes: &'static [&'static str],
    /// Tokens banned inside the fence.
    pub det_banned: &'static [&'static str],
    /// Directories whose `.rs` files count as users for `dead_pub`: a
    /// library `pub` item none of them names is dead. Wider than
    /// `scan_roots`, since tests, examples and the benchmark harness are
    /// callers too.
    pub dead_pub_corpus: &'static [&'static str],
}

/// The policy for this workspace.
#[must_use]
pub fn workspace() -> LintConfig {
    LintConfig {
        scan_roots: &["crates", "src"],
        skip_prefixes: &["crates/shims/", "target/", "crates/lint/tests/fixtures/"],
        skip_contains: &["/tests/", "/examples/"],
        hot_path: &[
            "crates/serve/src/router.rs",
            "crates/serve/src/shard.rs",
            "crates/cluster/src/node.rs",
            "crates/cluster/src/client.rs",
            "crates/cluster/src/transport.rs",
            "crates/cluster/src/wire.rs",
            "crates/cluster/src/retry.rs",
            "crates/par/src/lib.rs",
        ],
        lock_orders: &[
            LockOrder {
                // The publish gate is the router's only mutex: the
                // serving set is an `ArcCell`, so there is nothing to nest
                // under it. The single tier keeps the file under the
                // rule's watch — a second mutex added here must also
                // declare its tier or fail review.
                file: "crates/serve/src/router.rs",
                tiers: &[&["gate"]],
            },
            LockOrder {
                // One publish at a time, then the control state, then
                // the node-link pool (eviction and rejoin drop an
                // address's parked links while they hold the registry;
                // the pool's own mutex is a leaf inside transport.rs),
                // then the catch-up thread registry.
                file: "crates/cluster/src/controller.rs",
                tiers: &[&["publish_gate"], &["state"], &["pool"], &["aux"]],
            },
            LockOrder {
                // Stage and commit hold the staged set while they read
                // the committed epoch, and commit swaps serving in last.
                file: "crates/cluster/src/node.rs",
                tiers: &[&["staged"], &["serving"]],
            },
            LockOrder {
                file: "crates/cluster/src/client.rs",
                tiers: &[&["state"], &["pool"]],
            },
            LockOrder {
                // The scope latch signals while the panic slot is free.
                file: "crates/par/src/lib.rs",
                tiers: &[&["pending"], &["panic"]],
            },
        ],
        lock_free: &[
            LockFreePath {
                // The serve read path: every read function of the router.
                // Each answers on the caller's thread from one `ArcCell` load
                // of the serving set, so it must complete even while a
                // publisher holds (or has poisoned) the gate. Only `publish`
                // and `publish_paced` take the gate. A listed name the file
                // no longer defines is itself a violation.
                file: "crates/serve/src/router.rs",
                fns: &[
                    "n_shards",
                    "epoch",
                    "stats",
                    "finish",
                    "doc_score",
                    "score",
                    "score_batch",
                    "top_k",
                    "top_k_for_site",
                    "compare",
                    "shard_states",
                ],
            },
            LockFreePath {
                // The shard store's read path, which every router read ends
                // in: per-site orders are shared `Arc`s read in place, so
                // keeping them never needs a lock.
                file: "crates/serve/src/shard.rs",
                fns: &[
                    "score",
                    "top_k",
                    "site_top_k",
                    "site_order",
                    "epoch",
                    "sites",
                    "n_docs",
                ],
            },
        ],
        relaxed_names: &[
            // byte/frame counters
            "sent",
            "recv",
            "frames",
            "counter",
            // claim cursors: contended index handout where only
            // uniqueness matters, not ordering
            "next",
            "next_conn",
            "next_op",
            // telemetry counters without the suffix convention
            "queries",
            "buckets",
            "publishes",
            "evictions",
            "failovers",
            "rejoins",
            "reconnects",
            "commits",
            "aborted",
        ],
        relaxed_suffixes: &[
            "_count",
            "_counts",
            "_queries",
            "_retries",
            "_escalations",
            "_failures",
            "_refreshes",
            "_evictions",
            "_rejections",
            "_rejected",
            "_aborts",
            "_expired",
            "_heartbeats",
        ],
        det_prefixes: &[
            "crates/core/src/",
            "crates/linalg/src/",
            "crates/rank/src/",
            "crates/graph/src/delta.rs",
        ],
        det_banned: &["Instant::now", "SystemTime", "RandomState"],
        dead_pub_corpus: &["crates", "src", "tests", "examples", "benchmark/src"],
    }
}
