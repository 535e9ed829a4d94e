//! Incremental maintenance of the layered DocRank under graph changes —
//! structural growth **and** removal.
//!
//! The paper's Section 1.2 motivation: centralized PageRank has "a limited
//! potential of keeping up with the Web growth" because any change anywhere
//! invalidates the global computation. The layered decomposition localizes
//! change: if only site `s`'s internal pages/links changed, only `π_D(s)`
//! must be recomputed; the SiteRank is touched only when *cross-site* links
//! (or the live site set itself) changed. [`incremental_update`] implements
//! that contract for five kinds of staleness:
//!
//! * **changed** sites (same membership, different intra-site links) are
//!   recomputed *warm* — the previous local vector seeds the power method;
//! * **grown** sites (new pages joined) are rebuilt *cold* — their rank
//!   dimension changed, so no previous vector fits;
//! * **shrunk** sites (pages tombstoned, possibly also gained) are rebuilt
//!   cold for the same reason;
//! * **removed** sites are dropped: their slot keeps zero rank and an
//!   empty local vector, and their rank mass is redistributed over the
//!   survivors **dangling-style** — proportionally to the surviving
//!   SiteRank scores, the same rule the stochastic-complement semantics
//!   applies to a state excised from a chain — before the warm-started
//!   power iteration re-converges;
//! * **added** sites (appended by a [`lmm_graph::delta::GraphDelta`]) are
//!   computed cold, and the SiteRank warm-starts from the previous vector
//!   padded with the teleport mass of the new sites.
//!
//! [`diff_sites`] derives a [`SiteDelta`] from two graph snapshots
//! (tolerating growth and tombstone-based removal, rejecting slot
//! shrinkage, resurrection, and re-partitions), and [`SiteDelta::from`]
//! converts the [`lmm_graph::delta::AppliedDelta`] summary that
//! [`lmm_graph::DocGraph::apply`] reports — the zero-diff path used by the
//! engine's `apply_delta`. [`remap_result`] carries a layered result
//! across an explicit [`DocGraph::compact_ids`] densification, so
//! surviving sites warm-start straight through the
//! [`IdRemap`]. The tests verify every pipeline
//! reproduces a from-scratch recomputation.

use std::sync::Arc;

use crate::error::{LmmError, Result};
use crate::siterank::{
    layered_doc_rank, live_site_chain, reject_personalization_on_tombstones, LayeredDocRank,
    LayeredRankConfig, SiteLayerMethod,
};
use lmm_graph::delta::AppliedDelta;
use lmm_graph::docgraph::DocGraph;
use lmm_graph::ids::SiteId;
use lmm_graph::remap::IdRemap;
use lmm_linalg::{power_method_pool, vec_ops, StationaryOperator, StochasticMatrix};
use lmm_par::ThreadPool;
use lmm_rank::pagerank::PageRank;
use lmm_rank::Ranking;

/// What changed between two versions of a document graph whose common
/// prefix of documents kept its site partition (growth appends documents
/// and sites, removal tombstones them in place; ids never renumber).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SiteDelta {
    /// Sites whose intra-site subgraph changed with unchanged membership
    /// (local ranks stale, warm-startable).
    pub changed_sites: Vec<usize>,
    /// Pre-existing sites that gained pages and lost none (local rank
    /// dimension changed — cold rebuild).
    pub grown_sites: Vec<usize>,
    /// Pre-existing sites that lost pages but survive (cold rebuild).
    pub shrunk_sites: Vec<usize>,
    /// Pre-existing sites tombstoned outright (their rank mass is
    /// redistributed over the survivors).
    pub removed_sites: Vec<usize>,
    /// Number of site slots appended at the end of the site range (slots
    /// both appended and tombstoned by the same delta included).
    pub added_sites: usize,
    /// Whether any cross-site link count (or the live site set) changed
    /// (SiteRank stale).
    pub cross_links_changed: bool,
}

impl SiteDelta {
    /// `true` when nothing changed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changed_sites.is_empty()
            && self.grown_sites.is_empty()
            && self.shrunk_sites.is_empty()
            && self.removed_sites.is_empty()
            && self.added_sites == 0
            && !self.cross_links_changed
    }
}

impl From<&AppliedDelta> for SiteDelta {
    fn from(applied: &AppliedDelta) -> Self {
        Self {
            changed_sites: applied.changed_sites.clone(),
            grown_sites: applied.grown_sites.clone(),
            shrunk_sites: applied.shrunk_sites.clone(),
            removed_sites: applied.removed_sites.clone(),
            added_sites: applied.added_sites,
            cross_links_changed: applied.cross_links_changed,
        }
    }
}

/// Cost accounting of one incremental update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Local DocRanks recomputed (changed + grown + shrunk + added).
    pub sites_recomputed: usize,
    /// Of those, pre-existing sites rebuilt cold because they grew.
    pub sites_grown: usize,
    /// Of those, pre-existing sites rebuilt cold because they lost pages.
    pub sites_shrunk: usize,
    /// Of those, brand-new (live) sites computed for the first time.
    pub sites_added: usize,
    /// Pre-existing sites tombstoned by this update (no local rank
    /// computed — their mass was redistributed).
    pub sites_removed: usize,
    /// Local DocRanks reused untouched (live surviving sites only).
    pub sites_reused: usize,
    /// Whether the SiteRank power iteration ran.
    pub site_rank_recomputed: bool,
}

/// Compares two graph snapshots and reports which layers are stale.
///
/// The new graph may have **grown** (documents appended to existing sites,
/// whole sites appended after the old range) and **shrunk by tombstoning**
/// (documents or sites dead in `new` that were live in `old`). The common
/// document prefix must keep its site partition, the slot counts must not
/// shrink (removal tombstones, it never renumbers), and tombstones are
/// permanent — a dead slot never comes back to life.
///
/// # Errors
/// Returns [`LmmError::InvalidModel`] when the new graph lost id slots or
/// resurrected a tombstoned one (re-discovery of the web, not a recrawl),
/// when any pre-existing document moved to a different site, or when an
/// appended live site is empty.
pub fn diff_sites(old: &DocGraph, new: &DocGraph) -> Result<SiteDelta> {
    if new.n_docs() < old.n_docs() || new.n_sites() < old.n_sites() {
        return Err(LmmError::InvalidModel {
            reason: format!(
                "incremental diff never renumbers: id slots shrank from {}x{} \
                 to {}x{} (docs x sites) — removal tombstones in place",
                old.n_docs(),
                old.n_sites(),
                new.n_docs(),
                new.n_sites()
            ),
        });
    }
    if old.site_assignments() != &new.site_assignments()[..old.n_docs()] {
        return Err(LmmError::InvalidModel {
            reason: "incremental diff needs an identical site partition over the \
                     common document prefix"
                .into(),
        });
    }
    if let Some(&d) = old.dead_docs().iter().find(|&&d| new.is_live_doc(d)) {
        return Err(LmmError::InvalidModel {
            reason: format!("tombstoned document {d} came back to life"),
        });
    }
    if let Some(&s) = old.dead_sites().iter().find(|&&s| new.is_live_site(s)) {
        return Err(LmmError::InvalidModel {
            reason: format!("tombstoned site {s} came back to life"),
        });
    }
    let mut changed_sites = Vec::new();
    let mut grown_sites = Vec::new();
    let mut shrunk_sites = Vec::new();
    let mut removed_sites = Vec::new();
    for s in 0..old.n_sites() {
        let site = SiteId(s);
        if !old.is_live_site(site) {
            continue; // stays dead (resurrection rejected above)
        }
        if !new.is_live_site(site) {
            removed_sites.push(s);
            continue;
        }
        let lost = old.docs_of_site(site).iter().any(|&d| !new.is_live_doc(d));
        // Members are ascending, so an appended member shows at the tail.
        let gained = new
            .docs_of_site(site)
            .last()
            .is_some_and(|d| d.index() >= old.n_docs());
        if lost {
            shrunk_sites.push(s);
        } else if gained {
            grown_sites.push(s);
        } else if old.site_subgraph(site) != new.site_subgraph(site) {
            changed_sites.push(s);
        }
    }
    let added_sites = new.n_sites() - old.n_sites();
    let mut live_added = 0usize;
    for s in old.n_sites()..new.n_sites() {
        if !new.is_live_site(SiteId(s)) {
            continue;
        }
        live_added += 1;
        if new.site_size(SiteId(s)) == 0 {
            return Err(LmmError::InvalidModel {
                reason: format!(
                    "appended site {s} ({:?}) has no documents — empty sites have \
                     no local rank distribution",
                    new.site_name(SiteId(s))
                ),
            });
        }
    }
    // Cross-site links changed iff the live-restricted cross-link
    // multisets differ (counts per ordered live site pair); a changed live
    // site set stales the SiteRank unconditionally because its dimension
    // changed. Intra-site count changes can also stale the SiteRank, but
    // only under self-loop SiteGraphs — [`incremental_update`] handles
    // that from the config, since the delta itself is options-agnostic.
    let opts = lmm_graph::sitegraph::SiteGraphOptions::default();
    let cross_links_changed = live_added > 0
        || !removed_sites.is_empty()
        || live_site_chain(old, &opts).1 != live_site_chain(new, &opts).1;
    Ok(SiteDelta {
        changed_sites,
        grown_sites,
        shrunk_sites,
        removed_sites,
        added_sites,
        cross_links_changed,
    })
}

/// A [`SiteDelta`] checked and normalized against the previous result and
/// the new graph: sorted, deduplicated, bounds-validated, size-coherent.
struct ValidDelta {
    changed: Vec<usize>,
    grown: Vec<usize>,
    shrunk: Vec<usize>,
    removed: Vec<usize>,
    added_sites: usize,
    cross_links_changed: bool,
}

/// Dedups and bounds-validates a caller-supplied delta so malformed input
/// surfaces as [`LmmError::InvalidModel`] instead of a panic or — worse — a
/// silently misaligned recomposition.
fn validate_delta(
    previous: &LayeredDocRank,
    new_graph: &DocGraph,
    delta: &SiteDelta,
) -> Result<ValidDelta> {
    let n_sites = new_graph.n_sites();
    let n_old = previous.local_ranks.len();
    if previous.site_rank.len() != n_old {
        return Err(LmmError::InvalidModel {
            reason: format!(
                "previous result is inconsistent: {} local ranks but a SiteRank \
                 over {} sites",
                n_old,
                previous.site_rank.len()
            ),
        });
    }
    if n_old + delta.added_sites != n_sites {
        return Err(LmmError::InvalidModel {
            reason: format!(
                "delta reports {} added sites but the graph went from {} to {} sites",
                delta.added_sites, n_old, n_sites
            ),
        });
    }
    let normalize = |list: &[usize], label: &str| -> Result<Vec<usize>> {
        let mut sorted = list.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(&s) = sorted.iter().find(|&&s| s >= n_old) {
            return Err(LmmError::InvalidModel {
                reason: format!(
                    "delta lists {label} site {s}, but only sites 0..{n_old} pre-exist"
                ),
            });
        }
        Ok(sorted)
    };
    let changed = normalize(&delta.changed_sites, "changed")?;
    let grown = normalize(&delta.grown_sites, "grown")?;
    let shrunk = normalize(&delta.shrunk_sites, "shrunk")?;
    let removed = normalize(&delta.removed_sites, "removed")?;
    let classes: [(&str, &[usize]); 4] = [
        ("changed", &changed),
        ("grown", &grown),
        ("shrunk", &shrunk),
        ("removed", &removed),
    ];
    for (i, (label_a, a)) in classes.iter().enumerate() {
        for (label_b, b) in &classes[i + 1..] {
            if let Some(&s) = a.iter().find(|s| b.binary_search(s).is_ok()) {
                return Err(LmmError::InvalidModel {
                    reason: format!("delta lists site {s} as both {label_a} and {label_b}"),
                });
            }
        }
    }
    // Size / liveness coherence: a "changed" or untouched site must have
    // kept its size and liveness — a mismatch means the delta
    // under-reports growth, shrinkage, or removal, and the recomposition
    // below would silently misalign local vectors.
    for s in 0..n_old {
        let site = SiteId(s);
        let size = new_graph.site_size(site);
        let prev = previous.local_ranks[s].len();
        let live = new_graph.is_live_site(site);
        if removed.binary_search(&s).is_ok() {
            if live {
                return Err(LmmError::InvalidModel {
                    reason: format!("delta reports site {s} removed but it is live"),
                });
            }
            if prev == 0 {
                return Err(LmmError::InvalidModel {
                    reason: format!("removed site {s} was already tombstoned"),
                });
            }
        } else if !live {
            if prev > 0 {
                return Err(LmmError::InvalidModel {
                    reason: format!(
                        "site {s} was tombstoned but the delta does not report it \
                         as removed"
                    ),
                });
            }
            if classes[..3]
                .iter()
                .any(|(_, list)| list.binary_search(&s).is_ok())
            {
                return Err(LmmError::InvalidModel {
                    reason: format!("delta lists tombstoned site {s} as stale"),
                });
            }
        } else if grown.binary_search(&s).is_ok() || shrunk.binary_search(&s).is_ok() {
            if size == 0 {
                return Err(LmmError::InvalidModel {
                    reason: format!("grown/shrunk site {s} has no documents"),
                });
            }
        } else if size != prev {
            return Err(LmmError::InvalidModel {
                reason: format!(
                    "site {s} went from {prev} to {size} documents but the delta \
                     does not report it as grown or shrunk"
                ),
            });
        }
    }
    for s in n_old..n_sites {
        if new_graph.is_live_site(SiteId(s)) && new_graph.site_size(SiteId(s)) == 0 {
            return Err(LmmError::InvalidModel {
                reason: format!("added site {s} has no documents"),
            });
        }
    }
    Ok(ValidDelta {
        changed,
        grown,
        shrunk,
        removed,
        added_sites: delta.added_sites,
        cross_links_changed: delta.cross_links_changed,
    })
}

/// Recomputes the SiteRank, warm-started from the previous vector. When
/// sites were appended, the previous vector is padded with each new site's
/// teleport mass (`(1-f)·v(s)` under PageRank, uniform mass under the raw
/// stationary method) and renormalized — the cheapest consistent prior for
/// a site nobody has linked long enough to rank. When sites were
/// tombstoned, the computation runs over the live restriction: the dead
/// slots' previous mass is dropped and the L1 renormalization spreads it
/// **proportionally over the survivors** (the dangling-node rule), the
/// warm start the power iteration then converges from.
fn recompute_site_rank(
    previous: &LayeredDocRank,
    new_graph: &DocGraph,
    config: &LayeredRankConfig,
) -> Result<(Ranking, lmm_linalg::ConvergenceReport)> {
    let n_sites = new_graph.n_sites();
    let n_old = previous.site_rank.len();
    if !new_graph.dead_sites().is_empty() {
        let (live, chain) = live_site_chain(new_graph, &config.site_options);
        if live.is_empty() {
            return Err(LmmError::InvalidModel {
                reason: "every site is tombstoned — nothing to rank".into(),
            });
        }
        let k = live.len();
        let pad = match config.site_method {
            SiteLayerMethod::PageRank => (1.0 - config.site_damping) / k as f64,
            SiteLayerMethod::Stationary => 1.0 / k as f64,
        };
        let mut warm: Vec<f64> = live
            .iter()
            .map(|&s| {
                if s < n_old {
                    previous.site_rank.score(s)
                } else {
                    pad
                }
            })
            .collect();
        if warm.iter().sum::<f64>() <= 0.0 {
            warm = vec![1.0 / k as f64; k];
        }
        vec_ops::normalize_l1(&mut warm)?;
        let stochastic = StochasticMatrix::from_adjacency(chain)?;
        let (pi, report) = match config.site_method {
            SiteLayerMethod::PageRank => {
                let mut pr = PageRank::new();
                pr.damping(config.site_damping)
                    .tol(config.power.tol)
                    .max_iters(config.power.max_iters)
                    .initial(warm);
                let result = pr.run(&stochastic)?;
                (result.ranking.into_scores(), result.report)
            }
            SiteLayerMethod::Stationary => {
                let pool = ThreadPool::shared(config.threads);
                let op = StationaryOperator::new(stochastic.matrix(), Arc::clone(&pool))?;
                power_method_pool(&op, &warm, &config.power, &pool)?
            }
        };
        let mut scores = vec![0.0f64; n_sites];
        for (j, &s) in live.iter().enumerate() {
            scores[s] = pi[j];
        }
        return Ok((Ranking::from_scores(scores)?, report));
    }
    let site_graph = lmm_graph::sitegraph::ranking_site_graph(new_graph, &config.site_options);
    let mut warm = previous.site_rank.scores().to_vec();
    match config.site_method {
        SiteLayerMethod::PageRank => {
            for s in n_old..n_sites {
                // The caller validated the personalization vector against
                // the updated site count, so `v[s]` covers the new sites.
                let teleport = match &config.site_personalization {
                    Some(v) => v[s],
                    None => 1.0 / n_sites as f64,
                };
                warm.push((1.0 - config.site_damping) * teleport);
            }
            vec_ops::normalize_l1(&mut warm)?;
            let mut pr = PageRank::new();
            pr.damping(config.site_damping)
                .tol(config.power.tol)
                .max_iters(config.power.max_iters)
                .initial(warm);
            if let Some(v) = &config.site_personalization {
                pr.personalization(v.clone());
            }
            let result = pr.run(&site_graph.to_stochastic()?)?;
            Ok((result.ranking, result.report))
        }
        SiteLayerMethod::Stationary => {
            if config.site_personalization.is_some() {
                return Err(LmmError::InvalidModel {
                    reason: "site-layer personalization requires SiteLayerMethod::PageRank \
                             (the un-damped stationary chain has no teleport vector)"
                        .into(),
                });
            }
            warm.extend(std::iter::repeat_n(1.0 / n_sites as f64, n_sites - n_old));
            vec_ops::normalize_l1(&mut warm)?;
            let stochastic = site_graph.to_stochastic()?;
            let pool = ThreadPool::shared(config.threads);
            let op = StationaryOperator::new(stochastic.matrix(), Arc::clone(&pool))?;
            let (pi, report) = power_method_pool(&op, &warm, &config.power, &pool)?;
            Ok((Ranking::from_scores(pi)?, report))
        }
    }
}

/// Applies an incremental update: recomputes only the stale layers of
/// `previous` against `new_graph` and recomposes the global ranking.
///
/// Changed sites warm-start from the previous local vectors, so a small
/// intra-site edit converges in a handful of iterations; grown and added
/// sites are rebuilt cold. When the site set or any cross-site link
/// changed, the SiteRank reruns warm-started from the (padded) previous
/// vector.
///
/// # Errors
/// Returns [`LmmError::InvalidModel`] for a delta that is out of range,
/// inconsistent with the graphs' shapes, or under-reports growth;
/// propagates PageRank failures. Obtain a coherent `delta` from
/// [`diff_sites`] or from [`lmm_graph::DocGraph::apply`]'s summary.
pub fn incremental_update(
    previous: &LayeredDocRank,
    new_graph: &DocGraph,
    delta: &SiteDelta,
    config: &LayeredRankConfig,
) -> Result<(LayeredDocRank, UpdateStats)> {
    let delta = validate_delta(previous, new_graph, delta)?;
    let n_sites = new_graph.n_sites();
    let n_old = n_sites - delta.added_sites;
    // Personalization must fit the *new* graph: a site vector of the old
    // length (or a per-site vector of a grown site's old size) would fail
    // deep inside PageRank with an opaque message — or worse, silently
    // skew a recomposed ranking the caller believes personalized. On a
    // graph with tombstoned sites, slot-indexed vectors are rejected
    // outright.
    if !new_graph.dead_sites().is_empty() {
        reject_personalization_on_tombstones(new_graph, config)?;
    }
    if let Some(v) = &config.site_personalization {
        if v.len() != n_sites {
            return Err(LmmError::InvalidModel {
                reason: format!(
                    "site personalization has length {}, the updated graph has {} \
                     sites — supply a vector covering the added sites",
                    v.len(),
                    n_sites
                ),
            });
        }
    }
    for (&s, v) in &config.local_personalization {
        if s >= n_sites || v.len() != new_graph.site_size(SiteId(s)) {
            return Err(LmmError::InvalidModel {
                reason: format!(
                    "document personalization for site {s} has length {}, the \
                     updated graph's site has {} documents",
                    v.len(),
                    if s < n_sites {
                        new_graph.site_size(SiteId(s))
                    } else {
                        0
                    }
                ),
            });
        }
    }
    // Appended slots a same-delta removal already tombstoned never compute.
    let added_live: Vec<usize> = (n_old..n_sites)
        .filter(|&s| new_graph.is_live_site(SiteId(s)))
        .collect();
    let mut stats = UpdateStats {
        sites_grown: delta.grown.len(),
        sites_shrunk: delta.shrunk.len(),
        sites_added: added_live.len(),
        sites_removed: delta.removed.len(),
        ..UpdateStats::default()
    };

    // SiteRank: reuse, or recompute warm-started (padded when sites were
    // appended, redistributed when sites were removed — either way the
    // dimension changed, so reuse is impossible). Under a self-loop
    // SiteGraph, intra-site count changes also move the site weights, so
    // any changed/grown/shrunk site stales the SiteRank too (the warm
    // start makes a spurious recompute converge immediately).
    let self_loops_stale = config.site_options.include_self_loops
        && !(delta.changed.is_empty() && delta.grown.is_empty() && delta.shrunk.is_empty());
    let (site_rank, site_report) = if delta.cross_links_changed
        || delta.added_sites > 0
        || !delta.removed.is_empty()
        || self_loops_stale
    {
        stats.site_rank_recomputed = true;
        recompute_site_rank(previous, new_graph, config)?
    } else {
        (previous.site_rank.clone(), previous.site_report)
    };

    // Local ranks: recompute only the stale sites, fanned across the shared
    // pool — changed sites warm, grown/shrunk/added sites cold; removed
    // sites drop to an empty placeholder. Each solve is independent and
    // fills only its own slot, so the fan-out stays deterministic at any
    // thread count.
    let jobs: Vec<(usize, bool)> = delta
        .changed
        .iter()
        .map(|&s| (s, true))
        .chain(delta.grown.iter().map(|&s| (s, false)))
        .chain(delta.shrunk.iter().map(|&s| (s, false)))
        .chain(added_live.iter().map(|&s| (s, false)))
        .collect();
    let mut local_ranks: Vec<Option<Ranking>> =
        previous.local_ranks.iter().cloned().map(Some).collect();
    local_ranks.resize(n_sites, None);
    // Dead slots (removed now, or appended dead) hold the empty ranking —
    // zero weight, zero members, nothing to compute.
    for (s, slot) in local_ranks.iter_mut().enumerate() {
        if !new_graph.is_live_site(SiteId(s)) {
            *slot = Some(Ranking::empty());
        }
    }
    let mut total_local_iterations = 0usize;
    let mut max_local_iterations = 0usize;
    let pool = ThreadPool::shared(config.threads);
    let solved = pool.par_map(&jobs, |_, &(s, warm)| {
        let sub = new_graph.site_subgraph(SiteId(s));
        let mut pr = PageRank::new();
        pr.damping(config.local_damping)
            .tol(config.power.tol)
            .max_iters(config.power.max_iters);
        if warm {
            // Validated above: a changed site kept its size.
            pr.initial(previous.local_ranks[s].scores().to_vec());
        }
        if let Some(v) = config.local_personalization.get(&s) {
            pr.personalization(v.clone());
        }
        pr.run_adjacency(sub.adjacency)
    });
    for (&(s, _), result) in jobs.iter().zip(solved) {
        let result = result?;
        total_local_iterations += result.report.iterations;
        max_local_iterations = max_local_iterations.max(result.report.iterations);
        local_ranks[s] = Some(result.ranking);
    }
    stats.sites_recomputed = jobs.len();
    stats.sites_reused = new_graph.n_live_sites() - stats.sites_recomputed;

    // Recompose (O(N) — the Partition Theorem's aggregation step), with an
    // explicit size check so an inconsistent state can never silently
    // misalign scores.
    let mut scores = vec![0.0f64; new_graph.n_docs()];
    for (s, ranks) in local_ranks.iter().enumerate() {
        let ranks = ranks.as_ref().ok_or_else(|| LmmError::InvalidModel {
            reason: format!("no local rank computed or reused for site {s}"),
        })?;
        let members = new_graph.docs_of_site(SiteId(s));
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
        for (local, doc) in members.iter().enumerate() {
            scores[doc.index()] = weight * ranks.score(local);
        }
    }
    let global = Ranking::from_scores(scores)?;
    let local_ranks: Vec<Ranking> = local_ranks.into_iter().flatten().collect();
    Ok((
        LayeredDocRank {
            site_rank,
            local_ranks,
            global,
            site_report,
            total_local_iterations,
            max_local_iterations,
        },
        stats,
    ))
}

/// Convenience: diff + update + (in debug builds) equivalence check against
/// a full recomputation.
///
/// # Errors
/// See [`diff_sites`] and [`incremental_update`].
pub fn refresh(
    previous: &LayeredDocRank,
    old_graph: &DocGraph,
    new_graph: &DocGraph,
    config: &LayeredRankConfig,
) -> Result<(LayeredDocRank, UpdateStats)> {
    let delta = diff_sites(old_graph, new_graph)?;
    if delta.is_empty() {
        return Ok((
            previous.clone(),
            UpdateStats {
                sites_reused: new_graph.n_sites(),
                ..UpdateStats::default()
            },
        ));
    }
    let (updated, stats) = incremental_update(previous, new_graph, &delta, config)?;
    debug_assert!(
        {
            let full = layered_doc_rank(new_graph, config)?;
            lmm_linalg::vec_ops::l1_diff(full.global.scores(), updated.global.scores()) < 1e-6
        },
        "incremental update diverged from full recomputation"
    );
    Ok((updated, stats))
}

/// Carries a layered result across an explicit
/// [`DocGraph::compact_ids`] densification: surviving sites keep their
/// local vectors verbatim (the monotone remap preserves member order
/// within a site), while the SiteRank and global vectors drop their dead
/// slots — which held zero mass, so both stay exact distributions.
///
/// The returned result ranks the **compacted** graph: feeding it to
/// [`diff_sites`]/[`incremental_update`] against that graph sees an empty
/// delta, so compaction never forces a recompute — every surviving site
/// warm-starts straight through the remap.
///
/// # Errors
/// Returns [`LmmError::InvalidModel`] when the remap's old shape does not
/// match `previous`, or when a dropped slot still carried rank mass (the
/// remap belongs to a different graph state).
pub fn remap_result(previous: &LayeredDocRank, remap: &IdRemap) -> Result<LayeredDocRank> {
    if previous.site_rank.len() != remap.n_old_sites()
        || previous.global.len() != remap.n_old_docs()
    {
        return Err(LmmError::InvalidModel {
            reason: format!(
                "remap covers {}x{} slots (docs x sites), previous result ranks {}x{}",
                remap.n_old_docs(),
                remap.n_old_sites(),
                previous.global.len(),
                previous.site_rank.len()
            ),
        });
    }
    let mut site_scores = Vec::with_capacity(remap.n_new_sites());
    let mut local_ranks = Vec::with_capacity(remap.n_new_sites());
    for s in 0..remap.n_old_sites() {
        if remap.site(SiteId(s)).is_some() {
            site_scores.push(previous.site_rank.score(s));
            local_ranks.push(previous.local_ranks[s].clone());
        } else if previous.site_rank.score(s) != 0.0 {
            return Err(LmmError::InvalidModel {
                reason: format!(
                    "remap drops site {s}, which still carries rank mass — the \
                     remap does not belong to this result's graph"
                ),
            });
        }
    }
    let mut global = Vec::with_capacity(remap.n_new_docs());
    for d in 0..remap.n_old_docs() {
        if remap.doc(lmm_graph::DocId(d)).is_some() {
            global.push(previous.global.score(d));
        } else if previous.global.score(d) != 0.0 {
            return Err(LmmError::InvalidModel {
                reason: format!(
                    "remap drops document {d}, which still carries rank mass — \
                     the remap does not belong to this result's graph"
                ),
            });
        }
    }
    Ok(LayeredDocRank {
        site_rank: Ranking::from_scores(site_scores)?,
        local_ranks,
        global: Ranking::from_scores(global)?,
        site_report: previous.site_report,
        total_local_iterations: previous.total_local_iterations,
        max_local_iterations: previous.max_local_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_graph::delta::GraphDelta;
    use lmm_graph::docgraph::DocGraphBuilder;
    use lmm_graph::generator::CampusWebConfig;
    use lmm_graph::DocId;
    use lmm_linalg::vec_ops;

    fn campus() -> DocGraph {
        let mut cfg = CampusWebConfig::small();
        cfg.total_docs = 600;
        cfg.n_sites = 12;
        cfg.spam_farms.clear();
        cfg.generate().unwrap()
    }

    /// Rewires one intra-site link inside `site` and returns the new graph.
    fn edit_intra_site(graph: &DocGraph, site: usize) -> DocGraph {
        let docs = graph.docs_of_site(SiteId(site));
        let (a, b, c) = (docs[0], docs[1], docs[docs.len() - 1]);
        let mut builder = DocGraphBuilder::from_graph(graph);
        builder.remove_link(a, b);
        builder.add_link(b, c).unwrap();
        builder.add_link(c, a).unwrap();
        builder.build()
    }

    #[test]
    fn diff_detects_local_change_only() {
        let old = campus();
        let new = edit_intra_site(&old, 3);
        let delta = diff_sites(&old, &new).unwrap();
        assert_eq!(delta.changed_sites, vec![3]);
        assert!(delta.grown_sites.is_empty());
        assert_eq!(delta.added_sites, 0);
        assert!(!delta.cross_links_changed);
        assert!(!delta.is_empty());
    }

    #[test]
    fn diff_detects_cross_change() {
        let old = campus();
        let src = old.docs_of_site(SiteId(2))[1];
        let dst = old.docs_of_site(SiteId(9))[0];
        let mut builder = DocGraphBuilder::from_graph(&old);
        builder.add_link(src, dst).unwrap();
        let new = builder.build();
        let delta = diff_sites(&old, &new).unwrap();
        assert!(delta.cross_links_changed);
        // The source doc's out-row changed but no intra-site subgraph did.
        assert!(delta.changed_sites.is_empty());
    }

    #[test]
    fn diff_detects_growth() {
        let old = campus();
        let mut gd = GraphDelta::for_graph(&old);
        let root = old.docs_of_site(SiteId(4))[0];
        let p = gd.add_page(SiteId(4), "http://grown.example/p").unwrap();
        gd.add_link(root, p).unwrap();
        gd.add_link(p, root).unwrap();
        let s = gd.add_site("appended.example");
        let q = gd.add_page(s, "http://appended.example/").unwrap();
        gd.add_link(q, root).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();
        let delta = diff_sites(&old, &new).unwrap();
        assert_eq!(delta.grown_sites, vec![4]);
        assert_eq!(delta.added_sites, 1);
        assert!(delta.cross_links_changed);
        // The apply-time summary and the two-snapshot diff must agree.
        assert_eq!(delta, SiteDelta::from(&applied));
    }

    #[test]
    fn diff_rejects_shrinkage_and_repartition() {
        let old = campus();
        // Shrinkage: diff the other way around.
        let mut gd = GraphDelta::for_graph(&old);
        gd.add_page(SiteId(0), "http://x/p").unwrap();
        let (grown, _) = old.apply(&gd).unwrap();
        assert!(diff_sites(&grown, &old).is_err());
        // Re-partition: same doc count, one doc moved to another site.
        let mut builder = DocGraphBuilder::new();
        for d in 0..old.n_docs() {
            let doc = DocId(d);
            let site = if d == 0 {
                old.site_name(SiteId(1)).to_string()
            } else {
                old.site_name(old.site_of(doc)).to_string()
            };
            builder.add_doc(&site, old.url(doc));
        }
        let repartitioned = builder.build();
        assert!(diff_sites(&old, &repartitioned).is_err());
    }

    #[test]
    fn incremental_equals_full_recompute_local_edit() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let new = edit_intra_site(&old, 5);
        let (updated, stats) = refresh(&base, &old, &new, &cfg).unwrap();
        let full = layered_doc_rank(&new, &cfg).unwrap();
        assert!(vec_ops::l1_diff(updated.global.scores(), full.global.scores()) < 1e-8);
        assert_eq!(stats.sites_recomputed, 1);
        assert_eq!(stats.sites_reused, new.n_sites() - 1);
        assert!(!stats.site_rank_recomputed);
    }

    #[test]
    fn incremental_equals_full_recompute_cross_edit() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let src = old.docs_of_site(SiteId(1))[2];
        let dst = old.docs_of_site(SiteId(7))[0];
        let mut builder = DocGraphBuilder::from_graph(&old);
        builder.add_link(src, dst).unwrap();
        let new = builder.build();
        let (updated, stats) = refresh(&base, &old, &new, &cfg).unwrap();
        let full = layered_doc_rank(&new, &cfg).unwrap();
        assert!(vec_ops::l1_diff(updated.global.scores(), full.global.scores()) < 1e-8);
        assert!(stats.site_rank_recomputed);
        assert_eq!(stats.sites_recomputed, 0);
    }

    #[test]
    fn incremental_handles_growth_end_to_end() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let mut gd = GraphDelta::for_graph(&old);
        // Grow site 2 by two pages and append a small new site with links
        // in both directions.
        let root = old.docs_of_site(SiteId(2))[0];
        let p1 = gd.add_page(SiteId(2), "http://grown/1").unwrap();
        let p2 = gd.add_page(SiteId(2), "http://grown/2").unwrap();
        gd.add_link(root, p1).unwrap();
        gd.add_link(p1, p2).unwrap();
        gd.add_link(p2, root).unwrap();
        let s = gd.add_site("new-site.example");
        let q0 = gd.add_page(s, "http://new-site.example/").unwrap();
        let q1 = gd.add_page(s, "http://new-site.example/1").unwrap();
        gd.add_link(q0, q1).unwrap();
        gd.add_link(q1, q0).unwrap();
        gd.add_link(root, q0).unwrap();
        gd.add_link(q0, old.docs_of_site(SiteId(8))[0]).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();

        let delta = SiteDelta::from(&applied);
        let (updated, stats) = incremental_update(&base, &new, &delta, &cfg).unwrap();
        let full = layered_doc_rank(&new, &cfg).unwrap();
        assert!(vec_ops::l1_diff(updated.global.scores(), full.global.scores()) < 1e-8);
        assert_eq!(stats.sites_grown, 1);
        assert_eq!(stats.sites_added, 1);
        assert_eq!(stats.sites_recomputed, 2);
        assert_eq!(stats.sites_reused, new.n_sites() - 2);
        assert!(stats.site_rank_recomputed);
        assert_eq!(updated.local_ranks.len(), new.n_sites());
        assert_eq!(updated.site_rank.len(), new.n_sites());
    }

    #[test]
    fn growth_works_with_stationary_site_layer() {
        let old = campus();
        let cfg = LayeredRankConfig {
            site_method: SiteLayerMethod::Stationary,
            ..LayeredRankConfig::default()
        };
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let mut gd = GraphDelta::for_graph(&old);
        let s = gd.add_site("stationary-new.example");
        let q = gd.add_page(s, "http://stationary-new.example/").unwrap();
        let root = old.docs_of_site(SiteId(0))[0];
        gd.add_link(root, q).unwrap();
        gd.add_link(q, root).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();
        let (updated, _) =
            incremental_update(&base, &new, &SiteDelta::from(&applied), &cfg).unwrap();
        let full = layered_doc_rank(&new, &cfg).unwrap();
        assert!(vec_ops::l1_diff(updated.global.scores(), full.global.scores()) < 1e-7);
    }

    #[test]
    fn no_change_reuses_everything() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let (same, stats) = refresh(&base, &old, &old.clone(), &cfg).unwrap();
        assert_eq!(same.global.scores(), base.global.scores());
        assert_eq!(stats.sites_recomputed, 0);
        assert_eq!(stats.sites_reused, old.n_sites());
        assert!(!stats.site_rank_recomputed);
    }

    #[test]
    fn warm_start_converges_quickly() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let new = edit_intra_site(&old, 5);
        let delta = diff_sites(&old, &new).unwrap();
        let (updated, _) = incremental_update(&base, &new, &delta, &cfg).unwrap();
        // The single changed site should converge from the warm start in
        // far fewer iterations than the cold full pipeline's worst site.
        assert!(updated.max_local_iterations <= base.max_local_iterations);
        let _ = DocId(0);
    }

    #[test]
    fn duplicate_delta_entries_are_deduped() {
        // Regression: duplicate entries used to inflate `sites_recomputed`
        // past `n_sites`, underflowing the `sites_reused` subtraction.
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let new = edit_intra_site(&old, 5);
        let delta = SiteDelta {
            changed_sites: vec![5, 5, 5, 5],
            ..SiteDelta::default()
        };
        let (updated, stats) = incremental_update(&base, &new, &delta, &cfg).unwrap();
        assert_eq!(stats.sites_recomputed, 1);
        assert_eq!(stats.sites_reused, new.n_sites() - 1);
        let full = layered_doc_rank(&new, &cfg).unwrap();
        assert!(vec_ops::l1_diff(updated.global.scores(), full.global.scores()) < 1e-8);
    }

    #[test]
    fn out_of_range_delta_is_an_error_not_a_panic() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let delta = SiteDelta {
            changed_sites: vec![0, old.n_sites() + 3],
            ..SiteDelta::default()
        };
        let err = incremental_update(&base, &old, &delta, &cfg).unwrap_err();
        assert!(matches!(err, LmmError::InvalidModel { .. }));
    }

    #[test]
    fn under_reported_growth_is_an_explicit_error() {
        // Regression: a size mismatch used to silently skip the warm start
        // while the recomposition still assumed the old dimensions.
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let mut gd = GraphDelta::for_graph(&old);
        let root = old.docs_of_site(SiteId(3))[0];
        let p = gd.add_page(SiteId(3), "http://grown/x").unwrap();
        gd.add_link(root, p).unwrap();
        let (new, _) = old.apply(&gd).unwrap();
        // Lie: claim site 3 merely "changed" (or say nothing at all).
        for delta in [
            SiteDelta {
                changed_sites: vec![3],
                ..SiteDelta::default()
            },
            SiteDelta::default(),
        ] {
            let err = incremental_update(&base, &new, &delta, &cfg).unwrap_err();
            assert!(matches!(err, LmmError::InvalidModel { .. }), "{err}");
        }
    }

    #[test]
    fn self_loop_site_graph_stays_fresh_under_intra_edits() {
        // Regression: with include_self_loops the SiteRank depends on
        // intra-site link *counts*, so an intra edit that changes a count
        // must recompute it — reusing the old vector serves stale ranks.
        let old = campus();
        let cfg = LayeredRankConfig {
            site_options: lmm_graph::sitegraph::SiteGraphOptions {
                include_self_loops: true,
                ..Default::default()
            },
            ..LayeredRankConfig::default()
        };
        let base = layered_doc_rank(&old, &cfg).unwrap();
        // Add a brand-new intra-site link (count +1, not a rewire): find a
        // doc pair inside site 4 that the generator did not already link.
        let docs = old.docs_of_site(SiteId(4));
        let adj = old.adjacency();
        let (a, b) = docs
            .iter()
            .flat_map(|&a| docs.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| a != b && adj.get(a.index(), b.index()) == 0.0)
            .expect("site 4 is not a complete digraph");
        let mut gd = GraphDelta::for_graph(&old);
        gd.add_link(a, b).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();
        assert_eq!(applied.changed_sites, vec![4]);
        assert!(!applied.cross_links_changed);
        let (updated, stats) =
            incremental_update(&base, &new, &SiteDelta::from(&applied), &cfg).unwrap();
        assert!(stats.site_rank_recomputed);
        let full = layered_doc_rank(&new, &cfg).unwrap();
        assert!(vec_ops::l1_diff(updated.global.scores(), full.global.scores()) < 1e-8);
    }

    #[test]
    fn personalization_must_cover_the_grown_graph() {
        let old = campus();
        let mut gd = GraphDelta::for_graph(&old);
        let s = gd.add_site("personalized-new.example");
        let q = gd.add_page(s, "http://personalized-new.example/").unwrap();
        let root = old.docs_of_site(SiteId(0))[0];
        gd.add_link(root, q).unwrap();
        gd.add_link(q, root).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();
        let delta = SiteDelta::from(&applied);

        // Stale vector (old site count): a clear error, not a deep rank
        // failure or a silently skewed recomposition.
        let mut stale = vec![1.0 / old.n_sites() as f64; old.n_sites()];
        stale[3] += 0.1;
        vec_ops::normalize_l1(&mut stale).unwrap();
        let stale_cfg = LayeredRankConfig {
            site_personalization: Some(stale),
            ..LayeredRankConfig::default()
        };
        let base = layered_doc_rank(&old, &stale_cfg).unwrap();
        let err = incremental_update(&base, &new, &delta, &stale_cfg).unwrap_err();
        assert!(matches!(err, LmmError::InvalidModel { .. }), "{err}");

        // An updated vector covering the added site flows through and
        // matches a scratch run under the same configuration.
        let mut v = vec![1.0 / new.n_sites() as f64; new.n_sites()];
        v[3] += 0.1;
        vec_ops::normalize_l1(&mut v).unwrap();
        let new_cfg = LayeredRankConfig {
            site_personalization: Some(v),
            ..LayeredRankConfig::default()
        };
        let (updated, _) = incremental_update(&base, &new, &delta, &new_cfg).unwrap();
        let full = layered_doc_rank(&new, &new_cfg).unwrap();
        assert!(vec_ops::l1_diff(updated.global.scores(), full.global.scores()) < 1e-7);

        // A stale per-site document vector on a grown site errors too.
        let mut gd = GraphDelta::for_graph(&old);
        let p = gd.add_page(SiteId(2), "http://grown-doc/").unwrap();
        gd.add_link(root, p).unwrap();
        let (grown, applied) = old.apply(&gd).unwrap();
        let mut local_cfg = LayeredRankConfig::default();
        let size = old.site_size(SiteId(2));
        let mut lv = vec![0.0; size];
        lv[0] = 1.0;
        local_cfg.local_personalization.insert(2, lv);
        let base = layered_doc_rank(&old, &local_cfg).unwrap();
        let err =
            incremental_update(&base, &grown, &SiteDelta::from(&applied), &local_cfg).unwrap_err();
        assert!(matches!(err, LmmError::InvalidModel { .. }), "{err}");
    }

    /// L1 distance between a result on the tombstoned graph and a scratch
    /// result on its compacted twin, compared over surviving docs through
    /// the remap.
    fn drift_vs_compacted(updated: &LayeredDocRank, tombstoned: &DocGraph) -> f64 {
        let (dense, remap) = tombstoned.compact_ids();
        let cfg = LayeredRankConfig::default();
        let scratch = layered_doc_rank(&dense, &cfg).unwrap();
        let carried = remap_result(updated, &remap).unwrap();
        vec_ops::l1_diff(carried.global.scores(), scratch.global.scores())
    }

    #[test]
    fn incremental_handles_page_removal() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let mut gd = GraphDelta::for_graph(&old);
        let victim = old.docs_of_site(SiteId(3))[2];
        gd.remove_page(victim).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();
        let delta = SiteDelta::from(&applied);
        assert_eq!(delta, diff_sites(&old, &new).unwrap());
        assert_eq!(delta.shrunk_sites, vec![3]);

        let (updated, stats) = incremental_update(&base, &new, &delta, &cfg).unwrap();
        assert_eq!(stats.sites_shrunk, 1);
        assert_eq!(stats.sites_removed, 0);
        assert!(stats.sites_recomputed >= 1);
        // Mass is conserved exactly (a distribution by construction).
        let total: f64 = updated.global.scores().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass leaked: {total}");
        // The dead slot scores zero; survivors match a compacted scratch.
        assert_eq!(updated.global.score(victim.index()), 0.0);
        assert!(drift_vs_compacted(&updated, &new) < 1e-7);
    }

    #[test]
    fn incremental_handles_site_removal_with_redistribution() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let mut gd = GraphDelta::for_graph(&old);
        gd.remove_site(SiteId(6)).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();
        let delta = SiteDelta::from(&applied);
        assert_eq!(delta, diff_sites(&old, &new).unwrap());
        assert_eq!(delta.removed_sites, vec![6]);
        assert!(delta.cross_links_changed);

        let (updated, stats) = incremental_update(&base, &new, &delta, &cfg).unwrap();
        assert!(stats.site_rank_recomputed);
        assert_eq!(stats.sites_removed, 1);
        // The removed site's mass was redistributed: the survivors still
        // sum to one and the dead slot holds none of it.
        let total: f64 = updated.global.scores().iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass leaked: {total}");
        assert_eq!(updated.site_rank.score(6), 0.0);
        assert!(updated.local_ranks[6].is_empty());
        for &d in old.docs_of_site(SiteId(6)) {
            assert_eq!(updated.global.score(d.index()), 0.0);
        }
        assert!(drift_vs_compacted(&updated, &new) < 1e-7);
    }

    #[test]
    fn mixed_remove_shrink_grow_matches_compacted_scratch() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let mut gd = GraphDelta::for_graph(&old);
        gd.remove_site(SiteId(1)).unwrap();
        gd.remove_page(old.docs_of_site(SiteId(5))[1]).unwrap();
        let root = old.docs_of_site(SiteId(8))[0];
        let p = gd
            .add_page(SiteId(8), "http://mixed-grow.example/")
            .unwrap();
        gd.add_link(root, p).unwrap();
        gd.add_link(p, root).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();
        let delta = SiteDelta::from(&applied);
        assert_eq!(delta, diff_sites(&old, &new).unwrap());
        assert_eq!(delta.removed_sites, vec![1]);
        assert_eq!(delta.shrunk_sites, vec![5]);
        assert_eq!(delta.grown_sites, vec![8]);

        let (updated, stats) = incremental_update(&base, &new, &delta, &cfg).unwrap();
        assert_eq!(stats.sites_recomputed, 2); // shrunk + grown
        assert_eq!(stats.sites_reused, new.n_live_sites() - 2);
        let total: f64 = updated.global.scores().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(drift_vs_compacted(&updated, &new) < 1e-7);
    }

    #[test]
    fn remap_result_seeds_the_compacted_graph() {
        // Compaction is a free warm start: the carried result diffs empty
        // against the dense graph and every site is reused.
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let mut gd = GraphDelta::for_graph(&old);
        gd.remove_site(SiteId(2)).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();
        let (updated, _) =
            incremental_update(&base, &new, &SiteDelta::from(&applied), &cfg).unwrap();
        let (dense, remap) = new.compact_ids();
        let carried = remap_result(&updated, &remap).unwrap();
        assert_eq!(carried.local_ranks.len(), dense.n_sites());
        let (same, stats) = refresh(&carried, &dense, &dense, &cfg).unwrap();
        assert_eq!(stats.sites_recomputed, 0);
        assert_eq!(stats.sites_reused, dense.n_sites());
        assert_eq!(same.global.scores(), carried.global.scores());
        // A shape-mismatched remap is an error, not a silent misalignment.
        assert!(remap_result(&base, &remap).is_err());
    }

    #[test]
    fn under_reported_removal_is_an_explicit_error() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let mut gd = GraphDelta::for_graph(&old);
        gd.remove_site(SiteId(4)).unwrap();
        let (new, _) = old.apply(&gd).unwrap();
        // Lie: claim nothing was removed (or that the site merely changed).
        for delta in [
            SiteDelta {
                cross_links_changed: true,
                ..SiteDelta::default()
            },
            SiteDelta {
                changed_sites: vec![4],
                cross_links_changed: true,
                ..SiteDelta::default()
            },
        ] {
            let err = incremental_update(&base, &new, &delta, &cfg).unwrap_err();
            assert!(matches!(err, LmmError::InvalidModel { .. }), "{err}");
        }
    }

    #[test]
    fn diff_rejects_resurrection() {
        let old = campus();
        let mut gd = GraphDelta::for_graph(&old);
        gd.remove_page(old.docs_of_site(SiteId(0))[1]).unwrap();
        let (dead, _) = old.apply(&gd).unwrap();
        // Old had the doc live; diffing backwards would resurrect it.
        assert!(diff_sites(&dead, &old).is_err());
    }

    #[test]
    fn site_removal_works_with_stationary_site_layer() {
        let old = campus();
        let cfg = LayeredRankConfig {
            site_method: SiteLayerMethod::Stationary,
            ..LayeredRankConfig::default()
        };
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let mut gd = GraphDelta::for_graph(&old);
        gd.remove_site(SiteId(7)).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();
        let (updated, _) =
            incremental_update(&base, &new, &SiteDelta::from(&applied), &cfg).unwrap();
        let full = layered_doc_rank(&new, &cfg).unwrap();
        assert!(vec_ops::l1_diff(updated.global.scores(), full.global.scores()) < 1e-7);
        let total: f64 = updated.global.scores().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn personalization_is_rejected_on_tombstoned_sites() {
        let old = campus();
        let mut gd = GraphDelta::for_graph(&old);
        gd.remove_site(SiteId(9)).unwrap();
        let (new, applied) = old.apply(&gd).unwrap();
        let mut v = vec![1.0 / old.n_sites() as f64; old.n_sites()];
        v[0] += 0.1;
        vec_ops::normalize_l1(&mut v).unwrap();
        let cfg = LayeredRankConfig {
            site_personalization: Some(v),
            ..LayeredRankConfig::default()
        };
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let err = incremental_update(&base, &new, &SiteDelta::from(&applied), &cfg).unwrap_err();
        assert!(matches!(err, LmmError::InvalidModel { .. }), "{err}");
    }

    #[test]
    fn conflicting_changed_and_grown_rejected() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let delta = SiteDelta {
            changed_sites: vec![2],
            grown_sites: vec![2],
            ..SiteDelta::default()
        };
        assert!(incremental_update(&base, &old, &delta, &cfg).is_err());
    }

    #[test]
    fn wrong_added_count_rejected() {
        let old = campus();
        let cfg = LayeredRankConfig::default();
        let base = layered_doc_rank(&old, &cfg).unwrap();
        let delta = SiteDelta {
            added_sites: 2,
            cross_links_changed: true,
            ..SiteDelta::default()
        };
        assert!(incremental_update(&base, &old, &delta, &cfg).is_err());
    }
}
