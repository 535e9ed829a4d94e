//! Experiment harness shared by the `exp_*` binaries.
//!
//! Every table and figure of the paper maps to one binary:
//!
//! | binary | experiment | paper artifact |
//! |--------|------------|----------------|
//! | `exp_fig2` | E2 | §2.3 worked example, Figure 2 |
//! | `exp_campus` | E3/E4 | Figures 3 and 4 (top-15 lists, spam shares) |
//! | `exp_partition` | E5 | Theorem 2 at scale |
//! | `exp_scalability` | E6 | §2.3.3 complexity claim |
//! | `exp_distributed` | E7 | §3.2 P2P deployment traffic |
//! | `exp_ablation` | E8–E10 | BlockRank contrast, weighting/self-loop/α ablations |
//! | `exp_crawl` | E11 | §2.2 self-similarity: ranking stability vs crawl coverage |
//!
//! Run all of them with `for b in exp_fig2 exp_campus exp_partition
//! exp_scalability exp_distributed exp_ablation exp_crawl; do cargo run --release -p
//! lmm-bench --bin $b; done`.

use std::time::{Duration, Instant};

use lmm_engine::{BackendSpec, EngineError, RankEngine};
use lmm_graph::docgraph::DocGraph;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::DocId;
use lmm_rank::Ranking;

/// Builds a `RankEngine` with the experiments' shared defaults (damping
/// 0.85, tolerance 1e-10) — every experiment binary goes through the
/// unified engine API with these settings unless it sweeps them.
///
/// # Errors
/// Propagates builder validation failures (none for built-in backends with
/// these defaults).
pub fn experiment_engine(backend: BackendSpec) -> Result<RankEngine, EngineError> {
    RankEngine::builder()
        .backend(backend)
        .damping(0.85)
        .tolerance(1e-10)
        .build()
}

/// Prints a section separator with a title.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Times a closure, returning its result and the wall duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// The experiment-scale campus web: honors the `--full` CLI flag (433k
/// pages) and otherwise uses the 50k-page default that matches the paper's
/// 218 sites.
#[must_use]
pub fn campus_config_from_args() -> CampusWebConfig {
    if std::env::args().any(|a| a == "--full") {
        CampusWebConfig::full_scale()
    } else {
        CampusWebConfig::paper_scale()
    }
}

/// Prints a Figure-3/4-style top-`k` listing: rank value, spam marker,
/// URL.
pub fn print_top_k(graph: &DocGraph, ranking: &Ranking, k: usize) {
    let spam = graph.spam_labels();
    for (pos, doc) in ranking.top_k(k).into_iter().enumerate() {
        let marker = if spam[doc] { "SPAM" } else { "    " };
        println!(
            "  {:>2}. {marker} {:.6}  {}",
            pos + 1,
            ranking.score(doc),
            graph.url(DocId(doc))
        );
    }
}

/// Formats a byte count with a binary-prefix unit.
#[must_use]
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn default_config_is_paper_scale() {
        let cfg = campus_config_from_args();
        assert_eq!(cfg.n_sites, 218);
    }
}
