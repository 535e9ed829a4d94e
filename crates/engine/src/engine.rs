//! The unified engine: one validated configuration, one builder, pluggable
//! backends, and a query-serving layer over the cached ranking.

use std::sync::Arc;

use crate::backends::{
    CentralizedStationary, DistributedRanker, FlatPageRank, IncrementalRanker, LayeredRanker,
};
use crate::context::{ConvergencePolicy, ExecContext, Personalization};
use crate::error::{EngineError, Result};
use crate::fingerprint::GraphFingerprint;
use crate::outcome::{RankComparison, RankOutcome};
use crate::ranker::Ranker;
use crate::snapshot::{RankSnapshot, Staleness};
use crate::telemetry::TelemetrySink;
use lmm_core::approaches::RankApproach;
use lmm_core::siterank::SiteLayerMethod;
use lmm_graph::docgraph::DocGraph;
use lmm_graph::sitegraph::SiteGraphOptions;
use lmm_graph::{DocId, SiteId};
use lmm_p2p::network::FaultConfig;
use lmm_p2p::runner::Architecture;

/// Which built-in backend an engine runs.
///
/// Custom strategies plug in through
/// [`RankEngineBuilder::custom_backend`]; this enum only names the
/// built-ins so configurations stay plain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendSpec {
    /// Flat PageRank over the whole document graph (Approach 1's Web
    /// instantiation; the paper's Figure 3 baseline).
    FlatPageRank,
    /// Stationary distribution of the induced global chain through the
    /// factored operator (Approach 2).
    CentralizedStationary,
    /// The layered SiteRank × DocRank pipeline (Approaches 3/4).
    Layered {
        /// How the site layer is ranked: `PageRank` (Approach 3) or
        /// `Stationary` (Approach 4, the Layered Method).
        site_layer: SiteLayerMethod,
    },
    /// A distributed deployment of the layered pipeline.
    Distributed {
        /// Deployment topology.
        architecture: Architecture,
    },
    /// Incremental maintenance of the layered pipeline across `rank` calls.
    Incremental,
}

impl BackendSpec {
    /// Maps one of the paper's four approaches to its engine backend.
    #[must_use]
    pub fn approach(approach: RankApproach) -> Self {
        match approach {
            RankApproach::PageRankOnGlobal => BackendSpec::FlatPageRank,
            RankApproach::StationaryOfGlobal => BackendSpec::CentralizedStationary,
            RankApproach::LayeredWithPageRankSite => BackendSpec::Layered {
                site_layer: SiteLayerMethod::PageRank,
            },
            RankApproach::Layered => BackendSpec::Layered {
                site_layer: SiteLayerMethod::Stationary,
            },
        }
    }
}

/// The validated engine configuration the builder produces: every scattered
/// knob of the underlying crates (`LmmParams`, `LayeredRankConfig`,
/// `DistributedConfig`, `PowerOptions`, `SiteGraphOptions`) unified in one
/// place.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The selected backend.
    pub backend: BackendSpec,
    /// Damping of per-site (document-layer) computations, and the
    /// gatekeeper mixing parameter `α` of the centralized approaches.
    pub local_damping: f64,
    /// Damping of site-layer computations.
    pub site_damping: f64,
    /// Convergence policy of every stationary computation.
    pub convergence: ConvergencePolicy,
    /// SiteGraph derivation options.
    pub site_options: SiteGraphOptions,
    /// Personalization at both layers.
    pub personalization: Personalization,
    /// Worker threads for parallel per-site phases (`0` = one per core).
    pub threads: usize,
    /// Optional message-loss injection for distributed backends.
    pub fault: Option<FaultConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            backend: BackendSpec::Layered {
                site_layer: SiteLayerMethod::PageRank,
            },
            local_damping: 0.85,
            site_damping: 0.85,
            convergence: ConvergencePolicy::default(),
            site_options: SiteGraphOptions::default(),
            personalization: Personalization::default(),
            threads: 0,
            fault: None,
        }
    }
}

impl EngineConfig {
    /// Validates every field.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidConfig`] for out-of-range fields.
    pub fn validate(&self) -> Result<()> {
        for (label, f) in [
            ("local damping", self.local_damping),
            ("site damping", self.site_damping),
        ] {
            if !f.is_finite() || f <= 0.0 || f >= 1.0 {
                return Err(EngineError::InvalidConfig {
                    reason: format!("{label} {f} must lie strictly in (0, 1)"),
                });
            }
        }
        self.context().validate()
    }

    /// The execution context this configuration induces (with a no-op
    /// telemetry sink; the builder installs the configured sink).
    #[must_use]
    pub fn context(&self) -> ExecContext {
        ExecContext {
            convergence: self.convergence,
            personalization: self.personalization.clone(),
            site_options: self.site_options,
            threads: self.threads,
            fault: self.fault,
            ..ExecContext::default()
        }
    }

    fn make_ranker(&self) -> Box<dyn Ranker> {
        match self.backend {
            BackendSpec::FlatPageRank => Box::new(FlatPageRank {
                damping: self.local_damping,
            }),
            BackendSpec::CentralizedStationary => Box::new(CentralizedStationary {
                alpha: self.local_damping,
            }),
            BackendSpec::Layered { site_layer } => Box::new(LayeredRanker {
                local_damping: self.local_damping,
                site_damping: self.site_damping,
                site_layer,
            }),
            BackendSpec::Distributed { architecture } => Box::new(DistributedRanker {
                architecture,
                site_damping: self.site_damping,
                local_damping: self.local_damping,
            }),
            BackendSpec::Incremental => Box::new(IncrementalRanker::new(
                self.local_damping,
                self.site_damping,
            )),
        }
    }
}

/// Fluent builder for [`RankEngine`] — the single entry point that
/// replaces the ad-hoc constructors (`PageRank::new().run()`,
/// `layered_doc_rank(..)`, `run_distributed(..)`, ...).
///
/// # Example
/// ```
/// use lmm_engine::{BackendSpec, RankEngine};
///
/// # fn main() -> Result<(), lmm_engine::EngineError> {
/// let engine = RankEngine::builder()
///     .backend(BackendSpec::FlatPageRank)
///     .damping(0.9)
///     .tolerance(1e-8)
///     .build()?;
/// assert_eq!(engine.backend_name(), "flat-pagerank");
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct RankEngineBuilder {
    config: EngineConfig,
    telemetry: Option<Arc<dyn TelemetrySink>>,
    custom: Option<Box<dyn Ranker>>,
}

impl std::fmt::Debug for RankEngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankEngineBuilder")
            .field("config", &self.config)
            .field("telemetry", &self.telemetry.is_some())
            .field("custom", &self.custom.as_ref().map(|r| r.name()))
            .finish()
    }
}

impl RankEngineBuilder {
    /// Selects a built-in backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.config.backend = backend;
        self
    }

    /// Selects the backend matching one of the paper's four approaches.
    #[must_use]
    pub fn approach(mut self, approach: RankApproach) -> Self {
        self.config.backend = BackendSpec::approach(approach);
        self
    }

    /// Installs a custom [`Ranker`] strategy instead of a built-in backend.
    #[must_use]
    pub fn custom_backend(mut self, ranker: Box<dyn Ranker>) -> Self {
        self.custom = Some(ranker);
        self
    }

    /// Sets both damping factors (and the gatekeeper `α`) at once — the
    /// common case; the paper uses 0.85 everywhere.
    #[must_use]
    pub fn damping(mut self, f: f64) -> Self {
        self.config.local_damping = f;
        self.config.site_damping = f;
        self
    }

    /// Sets only the document-layer damping / gatekeeper `α`.
    #[must_use]
    pub fn local_damping(mut self, f: f64) -> Self {
        self.config.local_damping = f;
        self
    }

    /// Sets only the site-layer damping.
    #[must_use]
    pub fn site_damping(mut self, f: f64) -> Self {
        self.config.site_damping = f;
        self
    }

    /// Sets the convergence tolerance.
    #[must_use]
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.config.convergence.tol = tol;
        self
    }

    /// Sets the iteration/round budget.
    #[must_use]
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.config.convergence.max_iters = max_iters;
        self
    }

    /// Sets SiteGraph derivation options.
    #[must_use]
    pub fn site_options(mut self, options: SiteGraphOptions) -> Self {
        self.config.site_options = options;
        self
    }

    /// Sets the site-layer personalization (teleport) vector.
    #[must_use]
    pub fn site_personalization(mut self, v: Vec<f64>) -> Self {
        self.config.personalization.site = Some(v);
        self
    }

    /// Sets one site's document-layer personalization vector (over the
    /// site's local document indices).
    #[must_use]
    pub fn local_personalization(mut self, site: SiteId, v: Vec<f64>) -> Self {
        self.config.personalization.local.insert(site.index(), v);
        self
    }

    /// Sets the worker-thread count for parallel per-site phases.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Injects message loss into distributed backends.
    #[must_use]
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.config.fault = Some(fault);
        self
    }

    /// Installs a telemetry sink notified after every run.
    #[must_use]
    pub fn telemetry(mut self, sink: Arc<dyn TelemetrySink>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidConfig`] for out-of-range damping,
    /// tolerance, budgets, personalization, or fault probability.
    pub fn build(self) -> Result<RankEngine> {
        self.config.validate()?;
        let ranker = match self.custom {
            Some(ranker) => ranker,
            None => self.config.make_ranker(),
        };
        let mut ctx = self.config.context();
        if let Some(sink) = self.telemetry {
            ctx.telemetry = sink;
        }
        Ok(RankEngine {
            config: self.config,
            ctx,
            ranker,
            cache: None,
            epoch: 0,
        })
    }
}

struct ServingCache {
    outcome: RankOutcome,
    fingerprint: GraphFingerprint,
    snapshot: RankSnapshot,
}

/// The unified ranking engine: one configured backend plus a query-serving
/// layer over the cached ranking.
///
/// [`rank`](RankEngine::rank) computes (or re-serves) the ranking;
/// [`top_k`](RankEngine::top_k), [`top_k_for_site`](RankEngine::top_k_for_site),
/// [`score`](RankEngine::score), and [`compare`](RankEngine::compare) then
/// answer queries without recomputation — the first step toward the
/// serving tier.
pub struct RankEngine {
    config: EngineConfig,
    ctx: ExecContext,
    ranker: Box<dyn Ranker>,
    cache: Option<ServingCache>,
    /// Monotone snapshot epoch: advanced by every *fresh* computation
    /// (never reset by [`invalidate`](Self::invalidate)), so a serving
    /// tier can order snapshots across cache drops.
    epoch: u64,
}

/// Builds the immutable serving snapshot of one fresh computation. It
/// copies nothing: the scores and the site layer are the outcome's own
/// buffers, and the membership and assignment tables are the graph's.
fn build_snapshot(
    epoch: u64,
    outcome: &RankOutcome,
    graph: &DocGraph,
    staleness: Staleness,
) -> RankSnapshot {
    RankSnapshot::new(
        epoch,
        outcome.backend.clone(),
        Arc::clone(outcome.ranking.shared_scores()),
        outcome
            .site_rank
            .as_ref()
            .map(|r| Arc::clone(r.shared_scores())),
        Arc::clone(graph.shared_members()),
        Arc::clone(graph.shared_site_assignments()),
        staleness,
    )
}

impl std::fmt::Debug for RankEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankEngine")
            .field("config", &self.config)
            .field("backend", &self.ranker.name())
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

impl RankEngine {
    /// Starts building an engine.
    #[must_use]
    pub fn builder() -> RankEngineBuilder {
        RankEngineBuilder::default()
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The active backend's name.
    #[must_use]
    pub fn backend_name(&self) -> String {
        self.ranker.name()
    }

    /// The shared execution context handed to the backend.
    #[must_use]
    pub fn context(&self) -> &ExecContext {
        &self.ctx
    }

    /// Ranks the graph, caching the outcome for the serving methods.
    ///
    /// A repeated call with an unchanged graph serves the cached outcome
    /// without recomputation; a changed graph (or [`invalidate`](Self::invalidate))
    /// triggers a fresh run. Every fresh run is reported to the telemetry
    /// sink.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidConfig`] when the configured
    /// personalization does not fit this graph's shape (wrong site-vector
    /// length, unknown site key, wrong per-site vector length); otherwise
    /// propagates backend failures.
    pub fn rank(&mut self, graph: &DocGraph) -> Result<&RankOutcome> {
        self.ctx.personalization.validate_against_graph(graph)?;
        let fingerprint = GraphFingerprint::of(graph);
        let fresh = match &self.cache {
            Some(cache) => cache.fingerprint != fingerprint,
            None => true,
        };
        if fresh {
            let mut outcome = self.ranker.rank(graph, &self.ctx)?;
            self.epoch += 1;
            outcome.telemetry.epoch = self.epoch;
            self.ctx.telemetry.record(&outcome.telemetry);
            // A from-scratch run gives no per-site staleness accounting, so
            // the snapshot conservatively declares everything moved.
            let snapshot = build_snapshot(self.epoch, &outcome, graph, Staleness::Full);
            self.cache = Some(ServingCache {
                outcome,
                fingerprint,
                snapshot,
            });
        }
        Ok(&self.cache.as_ref().expect("cache populated above").outcome)
    }

    /// Applies a structural [`GraphDelta`](lmm_graph::delta::GraphDelta)
    /// to the maintained graph, re-ranking **incrementally**: only the
    /// changed, grown, and added sites are recomputed (warm-started where
    /// the dimensions allow), the serving cache and graph fingerprint are
    /// updated *in place* — no full invalidation — and the run's
    /// [`UpdateStats`](lmm_core::incremental::UpdateStats)-derived
    /// telemetry is reported to the sink like any fresh run.
    ///
    /// After this returns, the serving methods answer over the mutated
    /// graph, and a subsequent [`rank`](Self::rank) call with the mutated
    /// graph is a cache hit.
    ///
    /// # Errors
    /// [`EngineError::NotRanked`] before the first `rank` call;
    /// [`EngineError::UnsupportedDelta`] unless the backend maintains
    /// incremental state ([`BackendSpec::Incremental`]); otherwise delta
    /// validation and backend failures.
    pub fn apply_delta(&mut self, delta: &lmm_graph::delta::GraphDelta) -> Result<&RankOutcome> {
        if self.cache.is_none() {
            return Err(EngineError::NotRanked);
        }
        let mut updated = self.ranker.apply_delta(delta, &self.ctx)?;
        self.epoch += 1;
        updated.outcome.telemetry.epoch = self.epoch;
        self.ctx.telemetry.record(&updated.outcome.telemetry);
        let cache = self.cache.as_mut().expect("checked above");
        // O(delta) fingerprint refresh: fold the exact induced edge diff
        // into the cached fingerprint instead of re-hashing the graph.
        cache.fingerprint = cache.fingerprint.compose(&updated.applied);
        debug_assert_eq!(
            cache.fingerprint,
            GraphFingerprint::of(&updated.graph),
            "composed fingerprint diverged from a from-scratch hash"
        );
        // Shard invalidation set: the sites whose local vectors were
        // recomputed. Every other site kept `π_s`, so its scores
        // `σ_s · π_s(d)` are bit-identical (`Sites`) unless the SiteRank
        // reran. Then all are rescaled by one `σ_s > 0`, and IEEE
        // multiplication by a positive factor is monotone, so the site's
        // serving order survives unless two distinct local scores round to
        // one product (the serve tier's refresh debug-asserts they never
        // do): `Resized`, so unnamed shards refresh instead of rebuild.
        let mut sites = updated.applied.changed_sites.clone();
        sites.extend_from_slice(&updated.applied.grown_sites);
        sites.extend_from_slice(&updated.applied.shrunk_sites);
        let staleness = if updated.stats.site_rank_recomputed {
            let old_sites = updated.graph.n_sites() - updated.applied.added_sites;
            // A slot appended dead (a cancelled same-delta addition) has no
            // content, but it is tombstoned at this epoch all the same.
            let (live, dead): (Vec<usize>, Vec<usize>) = (old_sites..updated.graph.n_sites())
                .partition(|&s| updated.graph.is_live_site(SiteId(s)));
            sites.extend(live);
            sites.sort_unstable();
            let mut removed_sites = updated.applied.removed_sites.clone();
            removed_sites.extend(dead);
            Staleness::Resized {
                sites,
                removed_sites,
            }
        } else {
            sites.sort_unstable();
            Staleness::Sites(sites)
        };
        // The snapshot shares the new graph's tables, which share every
        // untouched site's member list with the previous epoch's
        // (lmm-serve's `unnamed_sites_share_their_buffers_at_every_layer`):
        // no delta copies membership it left alone.
        cache.snapshot = build_snapshot(self.epoch, &updated.outcome, &updated.graph, staleness);
        cache.outcome = updated.outcome;
        Ok(&cache.outcome)
    }

    /// Drops the cached ranking, forcing the next [`rank`](Self::rank) to
    /// recompute. The epoch counter is **not** reset: the recompute will
    /// publish the next epoch, so serving tiers keep a total order.
    pub fn invalidate(&mut self) {
        self.cache = None;
    }

    /// The current snapshot epoch (`0` before the first fresh computation;
    /// each fresh `rank` or `apply_delta` advances it by one).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The immutable serving snapshot of the cached ranking — the hand-off
    /// unit for the sharded serving tier. Cheap: the returned value shares
    /// the cached score and membership storage behind `Arc`s.
    ///
    /// # Errors
    /// Returns [`EngineError::NotRanked`] before the first `rank` call.
    pub fn snapshot(&self) -> Result<RankSnapshot> {
        self.cache
            .as_ref()
            .map(|c| c.snapshot.clone())
            .ok_or(EngineError::NotRanked)
    }

    /// The cached outcome.
    ///
    /// # Errors
    /// Returns [`EngineError::NotRanked`] before the first `rank` call.
    pub fn outcome(&self) -> Result<&RankOutcome> {
        self.cache
            .as_ref()
            .map(|c| &c.outcome)
            .ok_or(EngineError::NotRanked)
    }

    /// The `k` top-ranked documents with scores, best first, from the
    /// cache. Tombstoned documents never appear (their dead slots hold
    /// zero score but are not ranked results), so this stays bitwise
    /// comparable with the serving tier's `top_k` at any `k`.
    ///
    /// # Errors
    /// Returns [`EngineError::NotRanked`] before the first `rank` call.
    pub fn top_k(&self, k: usize) -> Result<Vec<(DocId, f64)>> {
        let cache = self.cache.as_ref().ok_or(EngineError::NotRanked)?;
        let dead = cache.snapshot.n_docs() - cache.snapshot.n_live_docs();
        if dead == 0 {
            return Ok(cache.outcome.top_k(k));
        }
        // Dead slots score 0.0, so the top (k + dead) contains at least k
        // live entries; filter them out rather than serve the dead.
        let mut top = cache.outcome.top_k(k.saturating_add(dead));
        top.retain(|&(d, _)| cache.snapshot.is_live_doc(d));
        top.truncate(k);
        Ok(top)
    }

    /// The `k` top-ranked documents *within one site*, best first, from
    /// the cache.
    ///
    /// # Errors
    /// [`EngineError::NotRanked`] before the first `rank` call;
    /// [`EngineError::OutOfRange`] for an unknown site;
    /// [`EngineError::Tombstoned`] for a removed site.
    pub fn top_k_for_site(&self, site: SiteId, k: usize) -> Result<Vec<(DocId, f64)>> {
        let cache = self.cache.as_ref().ok_or(EngineError::NotRanked)?;
        if site.index() >= cache.snapshot.n_sites() {
            return Err(EngineError::OutOfRange {
                what: "site",
                index: site.index(),
                len: cache.snapshot.n_sites(),
            });
        }
        if cache.snapshot.is_tombstoned_site(site) {
            return Err(EngineError::Tombstoned {
                what: "site",
                index: site.index(),
            });
        }
        let members = cache.snapshot.members_of_site(site);
        let scores = cache.outcome.ranking.scores();
        let mut ranked: Vec<(DocId, f64)> =
            members.iter().map(|&d| (d, scores[d.index()])).collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite scores")
                .then(a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        Ok(ranked)
    }

    /// Global score of one document, from the cache.
    ///
    /// # Errors
    /// [`EngineError::NotRanked`] before the first `rank` call;
    /// [`EngineError::OutOfRange`] for an unknown document;
    /// [`EngineError::Tombstoned`] for a removed document (a dead slot's
    /// zero is not a score).
    pub fn score(&self, doc: DocId) -> Result<f64> {
        let cache = self.cache.as_ref().ok_or(EngineError::NotRanked)?;
        if doc.index() < cache.snapshot.n_docs() && !cache.snapshot.is_live_doc(doc) {
            return Err(EngineError::Tombstoned {
                what: "document",
                index: doc.index(),
            });
        }
        cache.outcome.score(doc)
    }

    /// SiteRank score of one site, from the cache (`None` when the backend
    /// has no site layer).
    ///
    /// # Errors
    /// [`EngineError::NotRanked`] before the first `rank` call;
    /// [`EngineError::OutOfRange`] for an unknown site;
    /// [`EngineError::Tombstoned`] for a removed site.
    pub fn site_score(&self, site: SiteId) -> Result<Option<f64>> {
        let cache = self.cache.as_ref().ok_or(EngineError::NotRanked)?;
        if site.index() < cache.snapshot.n_sites() && cache.snapshot.is_tombstoned_site(site) {
            return Err(EngineError::Tombstoned {
                what: "site",
                index: site.index(),
            });
        }
        cache.outcome.site_score(site)
    }

    /// Compares the cached ranking against another outcome (e.g. produced
    /// by an engine with a different backend).
    ///
    /// # Errors
    /// [`EngineError::NotRanked`] before the first `rank` call; see
    /// [`RankOutcome::compare`].
    pub fn compare(&self, other: &RankOutcome, k: usize) -> Result<RankComparison> {
        self.outcome()?.compare(other, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_graph::docgraph::DocGraphBuilder;
    use lmm_graph::DocId;

    /// 2 sites x 2 docs with a configurable edge list.
    fn graph_with_edges(edges: &[(usize, usize)]) -> DocGraph {
        let mut b = DocGraphBuilder::new();
        b.add_doc("a.org", "http://a.org/");
        b.add_doc("a.org", "http://a.org/1");
        b.add_doc("b.org", "http://b.org/");
        b.add_doc("b.org", "http://b.org/1");
        for &(f, t) in edges {
            b.add_link(DocId(f), DocId(t)).unwrap();
        }
        b.build()
    }

    #[test]
    fn engine_recomputes_on_same_shape_rewire() {
        // End-to-end form of the audit: a rewired recrawl must be a cache
        // miss, not a stale serve.
        let g = graph_with_edges(&[(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)]);
        let h = graph_with_edges(&[(0, 1), (1, 0), (3, 2), (2, 1), (3, 0)]);
        let sink = std::sync::Arc::new(crate::telemetry::MemorySink::new());
        let mut engine = RankEngine::builder()
            .backend(BackendSpec::FlatPageRank)
            .telemetry(sink.clone())
            .build()
            .unwrap();
        engine.rank(&g).unwrap();
        engine.rank(&g).unwrap(); // unchanged: served from cache
        assert_eq!(sink.len(), 1);
        engine.rank(&h).unwrap(); // rewired: must recompute
        assert_eq!(sink.len(), 2);
    }

    #[test]
    fn epoch_advances_only_on_fresh_computations() {
        let g = graph_with_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut engine = RankEngine::builder()
            .backend(BackendSpec::FlatPageRank)
            .build()
            .unwrap();
        assert_eq!(engine.epoch(), 0);
        assert!(engine.snapshot().is_err());
        engine.rank(&g).unwrap();
        assert_eq!(engine.epoch(), 1);
        engine.rank(&g).unwrap(); // cache hit: same epoch
        assert_eq!(engine.epoch(), 1);
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.staleness(), &Staleness::Full);
        assert_eq!(snap.scores(), engine.outcome().unwrap().ranking.scores());
        // Invalidation keeps the counter monotone across the recompute.
        engine.invalidate();
        engine.rank(&g).unwrap();
        assert_eq!(engine.epoch(), 2);
    }
}
