//! The Layered Method for DocRank (Section 3.2): SiteRank × local DocRank
//! over a real [`DocGraph`].
//!
//! Pipeline steps (numbered as in the paper):
//!
//! 1. the DocGraph is given;
//! 2. derive the SiteGraph with SiteLink counts;
//! 3. per site `s`, compute the local DocRank
//!    `π_D(s) = DocRank(M̂(G_d^s))` — classical PageRank on the intra-site
//!    subgraph (fully decentralizable);
//! 4. compute the SiteRank `π_S` = principal eigenvector of `M̂(G_S)`
//!    (PageRank of the SiteGraph, which is primitive by maximal
//!    irreducibility);
//! 5. the global DocRank is the weighted concatenation
//!    `DocRank(G_D) = (π_S(s_1)·π_D(s_1)ᵀ, …, π_S(s_N)·π_D(s_N)ᵀ)ᵀ`.
//!
//! Each step is written once, and every pipeline — cold
//! [`layered_doc_rank`], warm [`crate::incremental::incremental_update`]
//! and the distributed runs of `lmm-p2p` — calls the same functions:
//!
//! * steps 2 and 4 are [`site_layer`]: the SiteGraph restricted to the
//!   live sites (the identity restriction on a graph without tombstones),
//!   ranked cold or warm and scattered back into slot space;
//! * step 3 is [`local_ranks`]: the listed sites solved cold or warm on
//!   the shared worker pool;
//! * step 5 is [`compose`] (or, when σ did not move, a patch of the
//!   previous global vector).
//!
//! Personalization (Section 3.2, last paragraphs) enters at step 3 (per-site
//! document preferences) and/or step 4 (site preferences).

use std::collections::HashMap;

use std::sync::Arc;

use crate::error::{LmmError, Result};
use lmm_graph::docgraph::DocGraph;
use lmm_graph::ids::{DocId, SiteId};
use lmm_graph::sitegraph::{ranking_site_graph, SiteGraph, SiteGraphOptions};
use lmm_linalg::{
    power_method_pool, structure, vec_ops, ConvergenceReport, CooMatrix, CsrMatrix, PowerOptions,
    StationaryOperator, StochasticMatrix,
};
use lmm_par::ThreadPool;
use lmm_rank::pagerank::{PageRank, PageRankResult};
use lmm_rank::Ranking;

/// How the SiteRank vector `π_S` is computed at step 4.
///
/// `PageRank` is the paper's Web instantiation (Section 3.2): maximal
/// irreducibility applied to `M(G_S)`. `Stationary` is the raw stationary
/// distribution of `M(G_S)` — the Layered Method's Approach-4 site layer,
/// which by the Partition Theorem makes the composed DocRank equal the
/// stationary distribution of the layer-decomposable global chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SiteLayerMethod {
    /// Damped PageRank of the SiteGraph (the paper's default; supports
    /// site-layer personalization).
    #[default]
    PageRank,
    /// Raw stationary distribution of the SiteGraph transition matrix
    /// (requires a primitive SiteGraph; ignores personalization, which the
    /// un-damped chain cannot express).
    Stationary,
}

/// Configuration of the layered DocRank pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredRankConfig {
    /// Damping of the per-site local DocRank computations (step 3).
    pub local_damping: f64,
    /// Damping of the SiteRank computation (step 4).
    pub site_damping: f64,
    /// How the site layer is ranked (step 4).
    pub site_method: SiteLayerMethod,
    /// SiteGraph derivation options (step 2).
    pub site_options: SiteGraphOptions,
    /// Power-method budget shared by all computations.
    pub power: PowerOptions,
    /// Optional site-layer personalization vector (length = number of
    /// sites).
    pub site_personalization: Option<Vec<f64>>,
    /// Optional per-site document personalization vectors, keyed by site
    /// index; each vector is over the site's *local* document indices.
    pub local_personalization: HashMap<usize, Vec<f64>>,
    /// Worker threads for the per-site local DocRank fan-out (step 3) —
    /// `0` (the default) means one per available core. Each site's solve
    /// stays serial and writes only its own slot, so the composed ranking
    /// is **bit-identical for every thread count**; threads change wall
    /// time only.
    pub threads: usize,
}

impl Default for LayeredRankConfig {
    fn default() -> Self {
        Self {
            local_damping: 0.85,
            site_damping: 0.85,
            site_method: SiteLayerMethod::PageRank,
            site_options: SiteGraphOptions::default(),
            power: PowerOptions::with_tol(1e-10),
            site_personalization: None,
            local_personalization: HashMap::new(),
            threads: 0,
        }
    }
}

impl LayeredRankConfig {
    /// Configuration with both damping factors set to `f`.
    #[must_use]
    pub fn with_damping(f: f64) -> Self {
        Self {
            local_damping: f,
            site_damping: f,
            ..Self::default()
        }
    }
}

/// Output of the layered DocRank pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredDocRank {
    /// SiteRank `π_S` over sites.
    pub site_rank: Ranking,
    /// Per-site local DocRanks `π_D(s)` (indexed by site, then local doc).
    pub local_ranks: Vec<Ranking>,
    /// The composed global DocRank over all documents (a probability
    /// distribution by Theorem 1).
    pub global: Ranking,
    /// Convergence of the SiteRank computation.
    pub site_report: ConvergenceReport,
    /// Total power iterations across all local DocRank computations (the
    /// decentralized work; each site's share runs independently).
    pub total_local_iterations: usize,
    /// The largest local iteration count — the critical-path length when
    /// all sites compute in parallel.
    pub max_local_iterations: usize,
}

impl LayeredDocRank {
    /// Global score of one document.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn score(&self, doc: DocId) -> f64 {
        self.global.score(doc.index())
    }

    /// The `k` top-ranked documents.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<DocId> {
        self.global.top_k(k).into_iter().map(DocId).collect()
    }
}

/// The live-site restriction of `site_graph`, the ranking SiteGraph of
/// `graph`: the ascending list of live site slots plus the dense `k×k`
/// weight matrix over them. On a graph without tombstoned sites this is
/// the identity restriction (every slot, the full weight matrix).
///
/// Removal keeps site ids stable by tombstoning slots, but a stationary
/// computation over the slot space would leak teleport mass into dead,
/// linkless sites — so every site-layer solve runs over this restriction
/// and scatters the result back into the slot space (dead slots score 0).
pub(crate) fn live_site_chain(graph: &DocGraph, site_graph: SiteGraph) -> (Vec<usize>, CsrMatrix) {
    let live: Vec<usize> = graph.live_sites().map(SiteId::index).collect();
    if live.len() == graph.n_sites() {
        return (live, site_graph.into_weights());
    }
    let mut dense_of: Vec<Option<usize>> = vec![None; graph.n_sites()];
    for (j, &s) in live.iter().enumerate() {
        dense_of[s] = Some(j);
    }
    let mut coo = CooMatrix::new(live.len(), live.len());
    for (j, &s) in live.iter().enumerate() {
        let (cols, vals) = site_graph.weights().row(s);
        for (&t, &w) in cols.iter().zip(vals) {
            if let Some(jt) = dense_of[t] {
                coo.push(j, jt, w);
            }
        }
    }
    (live, coo.to_csr())
}

/// Checks `config` against `graph` before any solve, so the cold and the
/// incremental pipeline reject the same configurations with the same
/// [`LmmError::InvalidModel`]: a site personalization under the un-damped
/// Stationary site layer or on a graph with tombstoned sites (a
/// slot-indexed vector has no meaning over the live restriction), a
/// document personalization for a dead or absent site, and vectors that do
/// not cover the graph's sites or a site's documents.
pub(crate) fn check_config(graph: &DocGraph, config: &LayeredRankConfig) -> Result<()> {
    let invalid = |reason: String| Err(LmmError::InvalidModel { reason });
    if let Some(v) = &config.site_personalization {
        if config.site_method == SiteLayerMethod::Stationary {
            return invalid(
                "site-layer personalization requires SiteLayerMethod::PageRank (the \
                 un-damped stationary chain has no teleport vector)"
                    .into(),
            );
        }
        if !graph.dead_sites().is_empty() {
            return invalid(
                "site personalization is unsupported on a graph with tombstoned sites; \
                 compact_ids() first"
                    .into(),
            );
        }
        if v.len() != graph.n_sites() {
            return invalid(format!(
                "site personalization has length {}, the graph has {} sites",
                v.len(),
                graph.n_sites()
            ));
        }
    }
    for (&s, v) in &config.local_personalization {
        if !graph.is_live_site(SiteId(s)) {
            return invalid(format!("document personalization names no live site {s}"));
        }
        if v.len() != graph.site_size(SiteId(s)) {
            return invalid(format!(
                "document personalization for site {s} has length {}, the site has {} \
                 documents",
                v.len(),
                graph.site_size(SiteId(s))
            ));
        }
    }
    Ok(())
}

/// Steps 2 and 4: the SiteRank `π_S`, solved over the SiteGraph restricted
/// to the live sites and scattered back into slot space (dead slots score
/// 0). `warm: None` is the cold start. `Some(previous)` warm-starts from
/// the previous SiteRank: dead slots' mass is dropped, sites appended since
/// are padded with their teleport mass (`(1-f)·v(s)` under PageRank,
/// uniform mass under the raw stationary method), and the L1
/// renormalization spreads the difference **proportionally over the
/// survivors** — the dangling-node rule, and the cheapest consistent prior
/// for a site nobody has linked long enough to rank.
///
/// # Errors
/// Returns [`LmmError::InvalidModel`] when every site is tombstoned, and
/// [`LmmError::PhaseMatrixNotPrimitive`] when the Stationary method meets
/// a live site chain with a periodic recurrent class (its power iteration
/// would not converge); propagates the site solve's failures.
pub fn site_layer(
    graph: &DocGraph,
    config: &LayeredRankConfig,
    warm: Option<&Ranking>,
) -> Result<(Ranking, ConvergenceReport)> {
    site_layer_over(
        graph,
        ranking_site_graph(graph, &config.site_options),
        config,
        warm,
    )
}

/// [`site_layer`] over `site_graph`, the ranking SiteGraph of `graph` the
/// caller already derived (with `config.site_options`), so a caller that
/// also reads the SiteGraph derives it once.
///
/// # Errors
/// See [`site_layer`].
pub fn site_layer_over(
    graph: &DocGraph,
    site_graph: SiteGraph,
    config: &LayeredRankConfig,
    warm: Option<&Ranking>,
) -> Result<(Ranking, ConvergenceReport)> {
    let (live, chain) = live_site_chain(graph, site_graph);
    if live.is_empty() {
        return Err(LmmError::InvalidModel {
            reason: "every site is tombstoned — nothing to rank".into(),
        });
    }
    let k = live.len() as f64;
    let initial = warm.map(|previous| {
        // Padding multiplies by `1/k` rather than dividing by `k`: the two
        // differ in the last bit for some `k`, and the pinned rankings were
        // computed with this form.
        let pad = |s: usize| match (config.site_method, &config.site_personalization) {
            (SiteLayerMethod::PageRank, Some(v)) => (1.0 - config.site_damping) * v[s],
            (SiteLayerMethod::PageRank, None) => (1.0 - config.site_damping) * (1.0 / k),
            (SiteLayerMethod::Stationary, _) => 1.0 / k,
        };
        let mut x: Vec<f64> = live
            .iter()
            .map(|&s| {
                if s < previous.len() {
                    previous.score(s)
                } else {
                    pad(s)
                }
            })
            .collect();
        if x.iter().sum::<f64>() <= 0.0 {
            x = vec![1.0 / k; live.len()];
        }
        vec_ops::normalize_l1(&mut x).map(|_| x)
    });
    let initial = initial.transpose()?;
    let stochastic = StochasticMatrix::from_adjacency(chain)?;
    let (pi, report) = match config.site_method {
        SiteLayerMethod::PageRank => {
            let mut pr = PageRank::new();
            pr.damping(config.site_damping)
                .tol(config.power.tol)
                .max_iters(config.power.max_iters);
            if let Some(v) = &config.site_personalization {
                pr.personalization(v.clone());
            }
            if let Some(x) = initial {
                pr.initial(x);
            }
            let result = pr.run(&stochastic)?;
            (result.ranking.into_scores(), result.report)
        }
        // Cold, this is `power::stationary_distribution` bit for bit: the
        // same iteration from the uniform vector, and the pull-mode
        // operator sums each entry in the serial scatter's order.
        SiteLayerMethod::Stationary => {
            // Without damping the iteration converges only when every
            // recurrent class of the chain is aperiodic: refuse a chain
            // with a periodic one before the first power step.
            let report = structure::analyze(stochastic.matrix())?;
            if report.recurrent_period > 1 {
                return Err(LmmError::PhaseMatrixNotPrimitive {
                    components: report.components,
                    period: report.recurrent_period,
                });
            }
            let pool = ThreadPool::shared(config.threads);
            let op = StationaryOperator::new(stochastic.matrix(), Arc::clone(&pool))?;
            let x0 = initial.unwrap_or_else(|| vec_ops::uniform(live.len()));
            power_method_pool(&op, &x0, &config.power, &pool)?
        }
    };
    let mut scores = vec![0.0f64; graph.n_sites()];
    for (&s, p) in live.iter().zip(pi) {
        scores[s] = p;
    }
    Ok((Ranking::from_scores(scores)?, report))
}

/// Step 3: the local DocRank `π_D(s)` of each listed site — PageRank over
/// its intra-site subgraph — fanned out over the shared pool of
/// `config.threads` workers. A job `(s, true)` warm-starts from `ranks[s]`,
/// the site's previous vector (its size must be unchanged); `(s, false)`
/// solves cold. Each solution replaces `ranks[s]`. Every solve is serial
/// and fills only its own slot, so the ranks are bit-identical at every
/// thread count. Returns the total and the largest iteration count.
///
/// # Errors
/// Propagates PageRank failures (non-convergence, invalid personalization
/// vectors).
pub fn local_ranks(
    graph: &DocGraph,
    ranks: &mut [Ranking],
    jobs: &[(usize, bool)],
    config: &LayeredRankConfig,
) -> Result<(usize, usize)> {
    let solved = ThreadPool::shared(config.threads).par_map(jobs, |_, &(s, warm)| {
        let mut pr = PageRank::new();
        pr.damping(config.local_damping)
            .tol(config.power.tol)
            .max_iters(config.power.max_iters);
        if warm {
            pr.initial(ranks[s].scores().to_vec());
        }
        if let Some(v) = config.local_personalization.get(&s) {
            pr.personalization(v.clone());
        }
        pr.run_adjacency(graph.site_subgraph(SiteId(s)).adjacency)
    });
    let (mut total, mut max) = (0usize, 0usize);
    for (&(s, _), result) in jobs.iter().zip(solved) {
        let result = result?;
        total += result.report.iterations;
        max = max.max(result.report.iterations);
        ranks[s] = result.ranking;
    }
    Ok((total, max))
}

/// Step 5: the weighted concatenation `σ_s·π_D(s)` over every site, O(N);
/// dead slots stay zero.
///
/// # Errors
/// Returns [`LmmError::InvalidModel`] when a local vector does not cover
/// its site's documents, and fails when the composed scores are not a
/// distribution.
pub fn compose(graph: &DocGraph, site_rank: &Ranking, local_ranks: &[Ranking]) -> Result<Ranking> {
    let mut scores = vec![0.0f64; graph.n_docs()];
    for s in 0..local_ranks.len() {
        write_site(&mut scores, graph, site_rank, local_ranks, s)?;
    }
    Ok(Ranking::from_scores(scores)?)
}

/// [`compose`] as a patch of `previous` (the last global vector, composed
/// under the same σ): appended slots start at zero, the documents a shrunk
/// site lost — dead now, like every tombstoned slot — are zeroed, and each
/// recomputed site's members are rewritten. Every written score is the
/// same product the full loop writes, so the result equals [`compose`] bit
/// for bit (the `patched_recompose_*` test holds it over a churn stream).
pub(crate) fn compose_patch(
    previous: &[f64],
    graph: &DocGraph,
    site_rank: &Ranking,
    local_ranks: &[Ranking],
    recomputed: impl IntoIterator<Item = usize>,
) -> Result<Ranking> {
    let mut scores = Vec::with_capacity(graph.n_docs());
    scores.extend_from_slice(previous);
    scores.resize(graph.n_docs(), 0.0);
    for &d in graph.dead_docs() {
        scores[d.index()] = 0.0;
    }
    for s in recomputed {
        write_site(&mut scores, graph, site_rank, local_ranks, s)?;
    }
    Ok(Ranking::from_scores(scores)?)
}

/// Writes site `s`'s scores `σ_s · π_s(d)` into the global vector, with an
/// explicit size check so an inconsistent state can never silently
/// misalign scores.
fn write_site(
    scores: &mut [f64],
    graph: &DocGraph,
    site_rank: &Ranking,
    local_ranks: &[Ranking],
    s: usize,
) -> Result<()> {
    let ranks = &local_ranks[s];
    let members = graph.docs_of_site(SiteId(s));
    if ranks.len() != members.len() {
        return Err(LmmError::InvalidModel {
            reason: format!(
                "local rank for site {s} covers {} documents, site has {}",
                ranks.len(),
                members.len()
            ),
        });
    }
    let weight = site_rank.score(s);
    for (doc, &local) in members.iter().zip(ranks.scores()) {
        scores[doc.index()] = weight * local;
    }
    Ok(())
}

/// Runs the full layered DocRank pipeline (Section 3.2) on a document
/// graph: every live site solved cold. Tombstoned sites (if any) keep zero
/// rank and an empty local vector; the surviving sites' scores still form
/// a distribution.
///
/// # Errors
/// Returns [`LmmError::InvalidModel`] for a site personalization under the
/// Stationary site layer or on a graph with tombstoned sites, and for a
/// personalization vector that does not fit the graph — the same checks
/// [`crate::incremental::incremental_update`] makes; propagates PageRank
/// failures (non-convergence) from either layer.
///
/// # Example
/// ```
/// use lmm_core::siterank::{layered_doc_rank, LayeredRankConfig};
/// use lmm_graph::generator::CampusWebConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cfg = CampusWebConfig::small();
/// cfg.total_docs = 600;
/// cfg.n_sites = 12;
/// cfg.spam_farms.clear();
/// let graph = cfg.generate()?;
/// let result = layered_doc_rank(&graph, &LayeredRankConfig::default())?;
/// assert!((result.global.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn layered_doc_rank(graph: &DocGraph, config: &LayeredRankConfig) -> Result<LayeredDocRank> {
    check_config(graph, config)?;
    let (site_rank, site_report) = site_layer(graph, config, None)?;
    let mut local = vec![Ranking::empty(); graph.n_sites()];
    let jobs: Vec<(usize, bool)> = graph.live_sites().map(|s| (s.index(), false)).collect();
    let (total_local_iterations, max_local_iterations) =
        local_ranks(graph, &mut local, &jobs, config)?;
    let global = compose(graph, &site_rank, &local)?;
    Ok(LayeredDocRank {
        site_rank,
        local_ranks: local,
        global,
        site_report,
        total_local_iterations,
        max_local_iterations,
    })
}

/// The flat baseline: classical PageRank over the whole DocGraph (what the
/// paper's Figure 3 uses), with the gather SpMV and vector passes spread
/// over `threads` workers (`0` = one per core; the ranking is identical
/// for every value).
///
/// # Errors
/// Propagates PageRank failures.
pub fn flat_pagerank(
    graph: &DocGraph,
    damping: f64,
    power: &PowerOptions,
    threads: usize,
) -> Result<PageRankResult> {
    let mut pr = PageRank::new();
    pr.damping(damping)
        .tol(power.tol)
        .max_iters(power.max_iters)
        .threads(threads);
    Ok(pr.run_adjacency(graph.adjacency().clone())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_graph::docgraph::DocGraphBuilder;
    use lmm_graph::generator::CampusWebConfig;
    use lmm_rank::metrics;

    fn small_campus() -> DocGraph {
        let mut cfg = CampusWebConfig::small();
        cfg.total_docs = 800;
        cfg.n_sites = 16;
        cfg.spam_farms.truncate(1);
        cfg.spam_farms[0].host_site = 9;
        cfg.spam_farms[0].n_pages = 120;
        cfg.generate().unwrap()
    }

    #[test]
    fn global_is_distribution() {
        let g = small_campus();
        let r = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        assert_eq!(r.global.len(), g.n_docs());
        assert!((r.global.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(r.local_ranks.len(), g.n_sites());
    }

    #[test]
    fn composition_identity_holds() {
        // score(d) == site_rank(site(d)) * local_rank(d) for every doc.
        let g = small_campus();
        let r = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        for s in 0..g.n_sites() {
            let members = g.docs_of_site(SiteId(s));
            for (local, doc) in members.iter().enumerate() {
                let expected = r.site_rank.score(s) * r.local_ranks[s].score(local);
                assert!((r.score(*doc) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn demotes_spam_relative_to_flat_pagerank() {
        let g = small_campus();
        let spam = g.spam_labels();
        let layered = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        let flat = flat_pagerank(&g, 0.85, &PowerOptions::with_tol(1e-10), 0).unwrap();
        let k = 15;
        let spam_flat = metrics::labeled_share_at_k(&flat.ranking, &spam, k);
        let spam_layered = metrics::labeled_share_at_k(&layered.global, &spam, k);
        assert!(
            spam_layered < spam_flat,
            "layered {spam_layered} should beat flat {spam_flat}"
        );
    }

    #[test]
    fn site_personalization_shifts_site_rank() {
        let g = small_campus();
        let n = g.n_sites();
        let mut v = vec![0.0; n];
        v[5] = 1.0;
        let cfg = LayeredRankConfig {
            site_personalization: Some(v),
            ..LayeredRankConfig::default()
        };
        let personalized = layered_doc_rank(&g, &cfg).unwrap();
        let neutral = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        assert!(personalized.site_rank.score(5) > neutral.site_rank.score(5));
    }

    #[test]
    fn local_personalization_shifts_docs_within_site() {
        let g = small_campus();
        let site = 3usize;
        let size = g.site_size(SiteId(site));
        // All local preference on the last local doc of the site.
        let mut v = vec![0.0; size];
        v[size - 1] = 1.0;
        let mut cfg = LayeredRankConfig::default();
        cfg.local_personalization.insert(site, v);
        let personalized = layered_doc_rank(&g, &cfg).unwrap();
        let neutral = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        let doc = *g.docs_of_site(SiteId(site)).last().unwrap();
        assert!(personalized.score(doc) > neutral.score(doc));
        // Other sites' scores are untouched (decentralized personalization).
        let other_doc = g.docs_of_site(SiteId(0))[0];
        assert!((personalized.score(other_doc) - neutral.score(other_doc)).abs() < 1e-9);
    }

    #[test]
    fn iteration_accounting_consistent() {
        let g = small_campus();
        let r = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        assert!(r.max_local_iterations <= r.total_local_iterations);
        assert!(r.max_local_iterations > 0);
    }

    #[test]
    fn single_site_graph_reduces_to_local_rank() {
        let mut b = DocGraphBuilder::new();
        let d0 = b.add_doc("only.site", "u0");
        let d1 = b.add_doc("only.site", "u1");
        let d2 = b.add_doc("only.site", "u2");
        b.add_link(d0, d1).unwrap();
        b.add_link(d1, d2).unwrap();
        b.add_link(d2, d0).unwrap();
        let g = b.build();
        let r = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        // One site: site rank = 1, global == local.
        assert!((r.site_rank.score(0) - 1.0).abs() < 1e-12);
        for d in 0..3 {
            assert!((r.global.score(d) - r.local_ranks[0].score(d)).abs() < 1e-12);
        }
    }

    #[test]
    fn thread_count_never_changes_the_ranking() {
        // The per-site fan-out must be bit-invisible: every layer of the
        // result — not just the composition — identical across pool sizes.
        let g = small_campus();
        let serial = layered_doc_rank(
            &g,
            &LayeredRankConfig {
                threads: 1,
                ..LayeredRankConfig::default()
            },
        )
        .unwrap();
        for threads in [2usize, 4, 0] {
            let parallel = layered_doc_rank(
                &g,
                &LayeredRankConfig {
                    threads,
                    ..LayeredRankConfig::default()
                },
            )
            .unwrap();
            assert_eq!(serial.global.scores(), parallel.global.scores());
            assert_eq!(serial.site_rank.scores(), parallel.site_rank.scores());
            assert_eq!(serial.local_ranks, parallel.local_ranks);
            assert_eq!(
                serial.total_local_iterations,
                parallel.total_local_iterations
            );
        }
    }

    #[test]
    fn cold_stationary_site_layer_is_the_serial_stationary_distribution() {
        // More sites than one `vec_ops::PAR_CHUNK`, so every normalization
        // sums several chunks.
        let n = vec_ops::PAR_CHUNK + 500;
        let mut b = DocGraphBuilder::new();
        let docs: Vec<DocId> = (0..n)
            .map(|i| b.add_doc(&format!("s{i}.example"), &format!("http://s{i}.example/")))
            .collect();
        let mut state = 7u64;
        for &d in &docs {
            for _ in 0..3 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let t = docs[(state >> 33) as usize % n];
                if t != d {
                    b.add_link(d, t).unwrap();
                }
            }
        }
        let g = b.build();
        let (_, chain) = live_site_chain(&g, ranking_site_graph(&g, &SiteGraphOptions::default()));
        let stochastic = StochasticMatrix::from_adjacency(chain).unwrap();
        let power = PowerOptions::with_tol(1e-10);
        let (serial, _) =
            lmm_linalg::power::stationary_distribution(stochastic.matrix(), &power).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1usize, 4] {
            let cfg = LayeredRankConfig {
                site_method: SiteLayerMethod::Stationary,
                power: power.clone(),
                threads,
                ..LayeredRankConfig::default()
            };
            let (sigma, _) = site_layer(&g, &cfg, None).unwrap();
            assert_eq!(bits(sigma.scores()), bits(&serial), "{threads} threads");
        }
    }

    #[test]
    fn top_k_accessor() {
        let g = small_campus();
        let r = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        let top = r.top_k(5);
        assert_eq!(top.len(), 5);
        assert!(r.score(top[0]) >= r.score(top[4]));
    }
}
