//! A crawl simulator over document graphs.
//!
//! The paper's crawl methodology (Section 3.3): start from the university
//! home page, follow hyperlinks, and stop after a budget — "researchers
//! usually let the crawler run and then stop it after it has been running
//! for a period of time". [`crawl`] reproduces that process over a synthetic
//! web, producing the induced subgraph of the visited pages. The experiment
//! harness uses it to test the paper's Section 2.2 self-similarity claim:
//! rankings computed on partial crawls should already resemble the
//! full-graph ranking.

use std::collections::VecDeque;

use crate::docgraph::{DocGraph, DocGraphBuilder};
use crate::error::{GraphError, Result};
use crate::ids::DocId;

/// Crawl parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlConfig {
    /// Documents to start from (the paper starts from `www.epfl.ch`).
    pub seeds: Vec<DocId>,
    /// Stop after visiting this many pages.
    pub max_pages: usize,
}

impl CrawlConfig {
    /// A breadth-first crawl from one seed with a page budget.
    #[must_use]
    pub fn from_seed(seed: DocId, max_pages: usize) -> Self {
        Self {
            seeds: vec![seed],
            max_pages,
        }
    }
}

/// Result of a simulated crawl.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlResult {
    /// The induced subgraph over the visited pages, densely renumbered in
    /// visit order (`graph` doc `i` is `visited[i]` in the source graph).
    pub graph: DocGraph,
    /// Visited source-graph documents in visit order.
    pub visited: Vec<DocId>,
    /// `true` when the frontier emptied before the budget was reached (the
    /// reachable component is smaller than `max_pages`).
    pub frontier_exhausted: bool,
}

impl CrawlResult {
    /// Fraction of the source graph covered.
    #[must_use]
    pub fn coverage(&self, source: &DocGraph) -> f64 {
        self.visited.len() as f64 / source.n_docs() as f64
    }
}

/// Simulates a breadth-first crawl of `source` (the polite-crawler order
/// the paper's crawl approximates), following links from the seeds until
/// `max_pages` pages have been fetched (or the frontier empties).
///
/// # Errors
/// Returns [`GraphError::InvalidConfig`] for an empty seed list, a zero
/// budget, or out-of-range seeds.
pub fn crawl(source: &DocGraph, config: &CrawlConfig) -> Result<CrawlResult> {
    if config.seeds.is_empty() {
        return Err(GraphError::InvalidConfig {
            reason: "crawl needs at least one seed".into(),
        });
    }
    if config.max_pages == 0 {
        return Err(GraphError::InvalidConfig {
            reason: "crawl budget must be positive".into(),
        });
    }
    for seed in &config.seeds {
        if seed.index() >= source.n_docs() {
            return Err(GraphError::InvalidConfig {
                reason: format!("seed {seed} out of range"),
            });
        }
    }

    let mut visited_mark = vec![false; source.n_docs()];
    let mut visited: Vec<DocId> = Vec::with_capacity(config.max_pages);
    let mut frontier: VecDeque<DocId> = VecDeque::new();
    for &seed in &config.seeds {
        if !visited_mark[seed.index()] {
            visited_mark[seed.index()] = true;
            frontier.push_back(seed);
        }
    }
    // `visited_mark` doubles as the "enqueued" marker, so the budget counts
    // fetched pages exactly once.
    while visited.len() < config.max_pages {
        let Some(doc) = frontier.pop_front() else {
            break;
        };
        visited.push(doc);
        for &dst in source.out_links(doc) {
            if !visited_mark[dst] {
                visited_mark[dst] = true;
                frontier.push_back(DocId(dst));
            }
        }
    }
    let frontier_exhausted = frontier.is_empty();

    // Induced subgraph, renumbered in visit order.
    let mut new_id = vec![usize::MAX; source.n_docs()];
    for (i, d) in visited.iter().enumerate() {
        new_id[d.index()] = i;
    }
    let mut builder = DocGraphBuilder::with_capacity(visited.len(), visited.len() * 8);
    for d in &visited {
        builder.add_doc_with_kind(
            source.site_name(source.site_of(*d)),
            source.url(*d),
            source.kind(*d),
        );
    }
    for (i, d) in visited.iter().enumerate() {
        for &dst in source.out_links(*d) {
            if new_id[dst] != usize::MAX {
                builder
                    .add_link(DocId(i), DocId(new_id[dst]))
                    .expect("renumbered ids are dense");
            }
        }
    }
    Ok(CrawlResult {
        graph: builder.build(),
        visited,
        frontier_exhausted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CampusWebConfig;
    use crate::ids::SiteId;

    fn campus() -> DocGraph {
        let mut cfg = CampusWebConfig::small();
        cfg.total_docs = 500;
        cfg.n_sites = 10;
        cfg.spam_farms.truncate(1);
        cfg.spam_farms[0].host_site = 4;
        cfg.spam_farms[0].n_pages = 50;
        cfg.generate().unwrap()
    }

    #[test]
    fn budget_is_respected() {
        let g = campus();
        let r = crawl(&g, &CrawlConfig::from_seed(DocId(0), 100)).unwrap();
        assert_eq!(r.visited.len(), 100);
        assert_eq!(r.graph.n_docs(), 100);
        assert!(!r.frontier_exhausted);
        assert!((r.coverage(&g) - 100.0 / g.n_docs() as f64).abs() < 1e-12);
    }

    #[test]
    fn full_budget_covers_reachable_component() {
        let g = campus();
        let r = crawl(&g, &CrawlConfig::from_seed(DocId(0), g.n_docs() * 2)).unwrap();
        assert!(r.frontier_exhausted);
        // The campus web is built around a reachable core; the crawl from
        // the portal root should reach the vast majority of it.
        assert!(r.coverage(&g) > 0.9, "coverage {}", r.coverage(&g));
    }

    #[test]
    fn induced_subgraph_preserves_metadata_and_edges() {
        let g = campus();
        let r = crawl(&g, &CrawlConfig::from_seed(DocId(0), 200)).unwrap();
        for (new, old) in r.visited.iter().enumerate() {
            assert_eq!(r.graph.url(DocId(new)), g.url(*old));
            assert_eq!(r.graph.kind(DocId(new)), g.kind(*old));
            assert_eq!(
                r.graph.site_name(r.graph.site_of(DocId(new))),
                g.site_name(g.site_of(*old))
            );
        }
        // Every induced edge exists in the source graph.
        for (from, to) in r.graph.links() {
            let src = r.visited[from.index()];
            let dst = r.visited[to.index()];
            assert_eq!(g.adjacency().get(src.index(), dst.index()), 1.0);
        }
    }

    #[test]
    fn bfs_visits_in_level_order() {
        let g = campus();
        let r = crawl(&g, &CrawlConfig::from_seed(DocId(0), 50)).unwrap();
        assert_eq!(r.visited[0], DocId(0));
        // The root's direct out-neighbors come before anything else that is
        // not a neighbor (BFS level property for the first layer).
        let (neighbors, _) = g.adjacency().row(0);
        let first_after_root = r.visited[1];
        assert!(neighbors.contains(&first_after_root.index()));
    }

    #[test]
    fn multiple_seeds_union() {
        let g = campus();
        let far_seed = g.docs_of_site(SiteId(9))[0];
        let r = crawl(
            &g,
            &CrawlConfig {
                seeds: vec![DocId(0), far_seed],
                max_pages: 10,
            },
        )
        .unwrap();
        assert!(r.visited.contains(&DocId(0)));
        assert!(r.visited.contains(&far_seed));
    }

    #[test]
    fn validation() {
        let g = campus();
        assert!(crawl(
            &g,
            &CrawlConfig {
                seeds: vec![],
                max_pages: 5,
            }
        )
        .is_err());
        assert!(crawl(&g, &CrawlConfig::from_seed(DocId(0), 0)).is_err());
        assert!(crawl(&g, &CrawlConfig::from_seed(DocId(999_999), 5)).is_err());
    }
}
