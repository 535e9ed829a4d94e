//! Partial-crawl ranking stability, Section 2.2's self-similarity argument:
//! "part of it demonstrates properties similar to those of the whole Web",
//! so rankings computed on partial views should already be useful. Crawls
//! the campus web from the portal root with growing page budgets (the
//! paper's crawl methodology), ranks each partial graph with both methods,
//! and measures agreement with the full-graph ranking over the crawled
//! pages.

use lmm::engine::BackendSpec;
use lmm::graph::crawler::{crawl, CrawlConfig};
use lmm::graph::generator::CampusWebConfig;
use lmm::graph::DocId;
use lmm::rank::{metrics, Ranking};

use crate::{experiment_engine, section, spam15, Claims, Result, Table, LAYERED};

/// Restricts a full-graph score vector to the crawled pages (in crawl
/// numbering) and renormalizes, so partial and full rankings compare over
/// the same item set.
fn restrict(full_scores: &[f64], visited: &[DocId]) -> Result<Ranking> {
    let weights: Vec<f64> = visited.iter().map(|d| full_scores[d.index()]).collect();
    Ok(Ranking::from_weights(weights)?)
}

pub fn run(_full: bool, _claims: &mut Claims) -> Result {
    let mut cfg = CampusWebConfig::paper_scale();
    cfg.total_docs = 20_000;
    let graph = cfg.generate()?;
    // One engine per method, reused across every (partial) graph — each
    // rank() call on a new graph recomputes; unchanged graphs hit the cache.
    let mut flat_engine = experiment_engine(BackendSpec::FlatPageRank).build()?;
    let mut layered_engine = experiment_engine(LAYERED).build()?;
    let full_flat = flat_engine.rank(&graph)?.clone();
    let full_layered = layered_engine.rank(&graph)?.clone();
    let spam = graph.spam_labels();

    section("Ranking stability vs crawl coverage (BFS from the portal root)");
    let mut table = Table::new(&[
        "budget",
        "coverage",
        "tau flat",
        "tau layered",
        "flat spam@15",
        "lmm spam@15",
    ]);
    for budget_pct in [5usize, 10, 20, 40, 60, 80, 100] {
        let budget = (graph.n_docs() * budget_pct).div_ceil(100);
        let result = crawl(&graph, &CrawlConfig::from_seed(DocId(0), budget))?;
        let partial_flat = flat_engine.rank(&result.graph)?.clone();
        let partial_layered = layered_engine.rank(&result.graph)?.clone();
        let tau_flat = metrics::kendall_tau(
            &partial_flat.ranking,
            &restrict(full_flat.ranking.scores(), &result.visited)?,
        );
        let tau_layered = metrics::kendall_tau(
            &partial_layered.ranking,
            &restrict(full_layered.ranking.scores(), &result.visited)?,
        );
        let partial_spam: Vec<bool> = result.visited.iter().map(|d| spam[d.index()]).collect();
        table.row(vec![
            format!("{budget_pct}%"),
            format!("{:.1}%", 100.0 * result.coverage(&graph)),
            format!("{tau_flat:.3}"),
            format!("{tau_layered:.3}"),
            spam15(&partial_flat.ranking, &partial_spam),
            spam15(&partial_layered.ranking, &partial_spam),
        ]);
    }
    print!("{table}");
    println!(
        "\nReading: high tau at small coverage supports the paper's self-similarity\n\
         argument — partial (per-peer) views already induce the full ranking's order,\n\
         and the layered method's spam resistance holds at every coverage level."
    );
    Ok(())
}
