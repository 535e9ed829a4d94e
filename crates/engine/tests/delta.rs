//! End-to-end tests of live graph mutation through the public engine API:
//! `RankEngine::apply_delta` must re-rank incrementally, keep the serving
//! cache coherent, and report honest `UpdateStats`-derived telemetry.

use std::sync::Arc;

use lmm_core::incremental::{incremental_update, SiteDelta};
use lmm_core::siterank::{layered_doc_rank, LayeredRankConfig, SiteLayerMethod};
use lmm_engine::{BackendSpec, EngineError, GraphFingerprint, MemorySink, RankEngine};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::{DocGraph, SiteId};

fn campus() -> DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.total_docs = 600;
    cfg.n_sites = 12;
    cfg.spam_farms.clear();
    cfg.generate().unwrap()
}

fn incremental_engine(sink: Arc<MemorySink>) -> RankEngine {
    RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .telemetry(sink)
        .build()
        .unwrap()
}

/// A mixed delta: one intra-site rewire, one grown site, one new site with
/// cross links.
fn mixed_delta(graph: &DocGraph) -> GraphDelta {
    let mut delta = GraphDelta::for_graph(graph);
    let s3 = graph.docs_of_site(SiteId(3));
    delta.remove_link(s3[0], s3[1]).unwrap();
    delta.add_link(s3[1], s3[0]).unwrap();
    let root = graph.docs_of_site(SiteId(7))[0];
    let p = delta.add_page(SiteId(7), "http://grown.example/p").unwrap();
    delta.add_link(root, p).unwrap();
    delta.add_link(p, root).unwrap();
    let s = delta.add_site("fresh.example");
    let q0 = delta.add_page(s, "http://fresh.example/").unwrap();
    let q1 = delta.add_page(s, "http://fresh.example/1").unwrap();
    delta.add_link(q0, q1).unwrap();
    delta.add_link(q1, q0).unwrap();
    delta.add_link(root, q0).unwrap();
    assert_eq!(delta.n_new_sites(), 1);
    assert_eq!(delta.n_new_pages(), 3);
    delta
}

#[test]
fn apply_delta_matches_scratch_rank_and_updates_serving() {
    let base = campus();
    let sink = Arc::new(MemorySink::new());
    let mut engine = incremental_engine(sink.clone());
    engine.rank(&base).unwrap();

    let delta = mixed_delta(&base);
    let (mutated, applied) = base.apply(&delta).unwrap();
    let outcome = engine.apply_delta(&delta).unwrap();
    assert_eq!(outcome.n_docs(), mutated.n_docs());

    // Scratch reference: the layered pipeline on the mutated graph.
    let mut scratch = RankEngine::builder()
        .backend(BackendSpec::Layered {
            site_layer: SiteLayerMethod::PageRank,
        })
        .damping(0.85)
        .tolerance(1e-10)
        .build()
        .unwrap();
    scratch.rank(&mutated).unwrap();
    let cmp = engine.compare(scratch.outcome().unwrap(), 20).unwrap();
    assert!(cmp.l1 < 1e-8, "incremental drifted from scratch: {cmp}");

    // Telemetry: two fresh runs recorded, the second with partial
    // recomputation matching the induced delta.
    let runs = sink.runs();
    assert_eq!(runs.len(), 2);
    let update = &runs[1];
    let expected = applied.changed_sites.len() + applied.grown_sites.len() + applied.added_sites;
    assert_eq!(update.sites_recomputed, expected);
    assert_eq!(
        update.sites_reused,
        mutated.n_sites() - update.sites_recomputed
    );
    assert_eq!(
        update.sites_grown,
        applied.grown_sites.len() + applied.added_sites
    );
    assert!(update.sites_recomputed < mutated.n_sites());
}

#[test]
fn apply_delta_refreshes_cache_in_place() {
    let base = campus();
    let sink = Arc::new(MemorySink::new());
    let mut engine = incremental_engine(sink.clone());
    engine.rank(&base).unwrap();

    let delta = mixed_delta(&base);
    let (mutated, _) = base.apply(&delta).unwrap();
    engine.apply_delta(&delta).unwrap();

    // Serving methods answer over the mutated graph...
    assert_eq!(engine.outcome().unwrap().n_docs(), mutated.n_docs());
    let new_site = SiteId(mutated.n_sites() - 1);
    assert_eq!(mutated.site_name(new_site), "fresh.example");
    let top = engine.top_k_for_site(new_site, 5).unwrap();
    assert_eq!(top.len(), 2);
    assert!(engine.site_score(new_site).unwrap().unwrap() > 0.0);

    // ...and the fingerprint was updated in place: re-ranking the mutated
    // graph is a cache hit (no third telemetry record), not a recompute.
    let cached = engine.rank(&mutated).unwrap().ranking.clone();
    assert_eq!(sink.len(), 2);
    // An empty delta is also served without recomputation.
    let empty = GraphDelta::for_graph(&mutated);
    let outcome = engine.apply_delta(&empty).unwrap();
    assert_eq!(outcome.ranking, cached);
    assert_eq!(sink.runs()[2].sites_reused, mutated.n_sites());
}

#[test]
fn apply_delta_streams_compose() {
    // A stream of deltas applied one by one ends at the same ranking as a
    // from-scratch run on the final graph.
    let base = campus();
    let sink = Arc::new(MemorySink::new());
    let mut engine = incremental_engine(sink);
    engine.rank(&base).unwrap();

    let mut current = base;
    for step in 0..3 {
        let mut delta = GraphDelta::for_graph(&current);
        let site = SiteId(step * 3 % current.n_sites());
        let root = current.docs_of_site(site)[0];
        let p = delta
            .add_page(site, &format!("http://stream.example/{step}"))
            .unwrap();
        delta.add_link(root, p).unwrap();
        delta.add_link(p, root).unwrap();
        let (next, _) = current.apply(&delta).unwrap();
        engine.apply_delta(&delta).unwrap();
        current = next;
    }

    let mut scratch = RankEngine::builder()
        .backend(BackendSpec::Layered {
            site_layer: SiteLayerMethod::PageRank,
        })
        .damping(0.85)
        .tolerance(1e-10)
        .build()
        .unwrap();
    scratch.rank(&current).unwrap();
    let cmp = engine.compare(scratch.outcome().unwrap(), 20).unwrap();
    assert!(cmp.l1 < 1e-7, "streamed deltas drifted: {cmp}");
}

#[test]
fn apply_delta_handles_removal_and_stays_a_cache_hit() {
    let base = campus();
    let sink = Arc::new(MemorySink::new());
    let mut engine = incremental_engine(sink.clone());
    engine.rank(&base).unwrap();

    // Remove one whole site and one page of another; grow a third.
    let mut delta = GraphDelta::for_graph(&base);
    delta.remove_site(SiteId(2)).unwrap();
    let shrunk_doc = base.docs_of_site(SiteId(6))[1];
    delta.remove_page(shrunk_doc).unwrap();
    let root = base.docs_of_site(SiteId(9))[0];
    let p = delta
        .add_page(SiteId(9), "http://engine-grow.example/")
        .unwrap();
    delta.add_link(root, p).unwrap();
    delta.add_link(p, root).unwrap();
    let (mutated, _) = base.apply(&delta).unwrap();

    let outcome = engine.apply_delta(&delta).unwrap().clone();
    // Mass conserved after redistribution.
    let total: f64 = outcome.ranking.scores().iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "mass leaked: {total}");
    // Dead slots carry no score; the member tables dropped them.
    for &d in base.docs_of_site(SiteId(2)) {
        assert_eq!(outcome.ranking.score(d.index()), 0.0);
    }
    let snap = engine.snapshot().unwrap();
    assert!(!snap.is_live_doc(shrunk_doc));
    assert!(snap.is_tombstoned_site(SiteId(2)));
    assert!(snap.members_of_site(SiteId(2)).is_empty());

    // The engine's own query surface refuses the dead — a dead slot's
    // zero is not a score, and top-k never lists tombstoned ids even when
    // k exceeds the live count.
    assert!(matches!(
        engine.score(shrunk_doc),
        Err(EngineError::Tombstoned {
            what: "document",
            ..
        })
    ));
    assert!(matches!(
        engine.site_score(SiteId(2)),
        Err(EngineError::Tombstoned { what: "site", .. })
    ));
    assert!(matches!(
        engine.top_k_for_site(SiteId(2), 3),
        Err(EngineError::Tombstoned { what: "site", .. })
    ));
    let everything = engine.top_k(mutated.n_docs() + 10).unwrap();
    assert_eq!(everything.len(), mutated.n_live_docs());
    assert!(everything.iter().all(|&(d, _)| snap.is_live_doc(d)));

    // Telemetry reports the removal accounting.
    let update = &sink.runs()[1];
    assert_eq!(update.sites_removed, 1);
    assert_eq!(update.sites_shrunk, 1);
    assert_eq!(
        update.sites_reused,
        mutated.n_live_sites() - update.sites_recomputed
    );

    // Survivors match a from-scratch layered run on the compacted graph.
    let (dense, remap) = mutated.compact_ids();
    let mut scratch = RankEngine::builder()
        .backend(BackendSpec::Layered {
            site_layer: SiteLayerMethod::PageRank,
        })
        .damping(0.85)
        .tolerance(1e-10)
        .build()
        .unwrap();
    scratch.rank(&dense).unwrap();
    let mut l1 = 0.0f64;
    for d in 0..mutated.n_docs() {
        if let Some(new) = remap.doc(lmm_graph::DocId(d)) {
            l1 += (outcome.ranking.score(d) - scratch.score(new).unwrap()).abs();
        }
    }
    assert!(l1 < 1e-6, "drifted from compacted scratch by {l1}");

    // The composed fingerprint keeps the tombstoned graph a cache hit.
    let before = sink.len();
    engine.rank(&mutated).unwrap();
    assert_eq!(sink.len(), before, "re-rank of the tombstoned graph missed");
}

#[test]
fn dense_backends_reject_tombstoned_graphs() {
    let base = campus();
    let mut delta = GraphDelta::for_graph(&base);
    delta.remove_page(base.docs_of_site(SiteId(0))[1]).unwrap();
    let (tombstoned, _) = base.apply(&delta).unwrap();
    for backend in [
        BackendSpec::FlatPageRank,
        BackendSpec::CentralizedStationary,
    ] {
        let mut engine = RankEngine::builder().backend(backend).build().unwrap();
        let err = engine.rank(&tombstoned).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig { .. }), "{err}");
    }
    // The layered backend handles tombstones natively.
    let mut layered = RankEngine::builder()
        .backend(BackendSpec::Layered {
            site_layer: SiteLayerMethod::PageRank,
        })
        .build()
        .unwrap();
    let outcome = layered.rank(&tombstoned).unwrap();
    let total: f64 = outcome.ranking.scores().iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn apply_delta_requires_a_ranked_incremental_backend() {
    let base = campus();
    let delta = GraphDelta::for_graph(&base);

    // Before any rank: NotRanked.
    let mut engine = incremental_engine(Arc::new(MemorySink::new()));
    assert!(matches!(
        engine.apply_delta(&delta),
        Err(EngineError::NotRanked)
    ));

    // Stateless backend: UnsupportedDelta.
    let mut flat = RankEngine::builder()
        .backend(BackendSpec::FlatPageRank)
        .build()
        .unwrap();
    flat.rank(&base).unwrap();
    assert!(matches!(
        flat.apply_delta(&delta),
        Err(EngineError::UnsupportedDelta { .. })
    ));
}

#[test]
fn apply_delta_rejects_stale_personalization_fast() {
    // The engine's personalization is fixed at build time; once a delta
    // adds a site the old site-layer vector no longer covers the graph.
    // That must surface as a config-level error — not a deep rank failure
    // and never a silently skewed ranking.
    let base = campus();
    let mut v = vec![1.0 / base.n_sites() as f64; base.n_sites()];
    v[0] += 0.25;
    let total: f64 = v.iter().sum();
    v.iter_mut().for_each(|x| *x /= total);
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .site_personalization(v)
        .build()
        .unwrap();
    engine.rank(&base).unwrap();

    let mut delta = GraphDelta::for_graph(&base);
    let s = delta.add_site("uncovered.example");
    let q = delta.add_page(s, "http://uncovered.example/").unwrap();
    delta.add_link(q, base.docs_of_site(SiteId(0))[0]).unwrap();
    let err = engine.apply_delta(&delta).unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig { .. }), "{err}");
    // A page-growth delta (site count unchanged) still works.
    let mut grow = GraphDelta::for_graph(&base);
    let root = base.docs_of_site(SiteId(2))[0];
    let p = grow
        .add_page(SiteId(2), "http://covered.example/p")
        .unwrap();
    grow.add_link(root, p).unwrap();
    engine.apply_delta(&grow).unwrap();
}

#[test]
fn rank_after_growth_still_goes_incremental() {
    // The rank(graph) path (diff-based) also survives structural growth
    // now: a grown recrawl must not fall back to a full recompute.
    let base = campus();
    let sink = Arc::new(MemorySink::new());
    let mut engine = incremental_engine(sink.clone());
    engine.rank(&base).unwrap();

    let mut delta = GraphDelta::for_graph(&base);
    let root = base.docs_of_site(SiteId(1))[0];
    let p = delta.add_page(SiteId(1), "http://grown.example/q").unwrap();
    delta.add_link(root, p).unwrap();
    let (mutated, _) = base.apply(&delta).unwrap();

    engine.rank(&mutated).unwrap();
    let runs = sink.runs();
    assert_eq!(runs.len(), 2);
    assert!(
        runs[1].sites_reused > 0,
        "growth should not force a full recompute"
    );
    assert_eq!(runs[1].sites_grown, 1);
}

/// The write path reads links through the per-site blocks only: applying a
/// local and a global delta, summarizing them, re-ranking incrementally and
/// composing the fingerprint never materialize the O(docs + links) flat
/// adjacency view — on the base graph or on either mutated one.
#[test]
fn the_write_path_never_builds_the_flat_view() {
    let base = campus();
    let cfg = LayeredRankConfig::default();
    let ranked = layered_doc_rank(&base, &cfg).unwrap();
    let fingerprint = GraphFingerprint::of(&base);

    let mut local = GraphDelta::for_graph(&base);
    let s3 = base.docs_of_site(SiteId(3));
    local.remove_link(s3[0], s3[1]).unwrap();
    local.add_link(s3[1], s3[0]).unwrap();
    let (rewired, applied) = base.apply(&local).unwrap();
    assert!(!applied.cross_links_changed);
    let (ranked, stats) =
        incremental_update(&ranked, &rewired, &SiteDelta::from(&applied), &cfg).unwrap();
    assert!(!stats.site_rank_recomputed);
    let fingerprint = fingerprint.compose(&applied);

    let (grown, applied) = rewired.apply(&mixed_delta(&rewired)).unwrap();
    assert!(applied.cross_links_changed);
    let (_, stats) = incremental_update(&ranked, &grown, &SiteDelta::from(&applied), &cfg).unwrap();
    assert!(stats.site_rank_recomputed);
    assert_eq!(fingerprint.compose(&applied), GraphFingerprint::of(&grown));

    for graph in [&base, &rewired, &grown] {
        assert!(!graph.flat_view_is_built());
    }
    // The probe does see a consumer that asks for the whole matrix.
    assert_eq!(grown.adjacency().nnz(), grown.n_links());
    assert!(grown.flat_view_is_built() && !rewired.flat_view_is_built());
}
