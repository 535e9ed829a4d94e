//! Regression: the delta-composed [`GraphFingerprint`] must equal a
//! from-scratch hash after **every** step of a mixed churn
//! mutation stream — the composition being exact is what lets
//! `RankEngine::apply_delta` refresh its cache key in O(delta).

use std::sync::Arc;

use lmm_engine::{BackendSpec, GraphFingerprint, MemorySink, RankEngine, Staleness};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::{DocGraph, SiteId};

fn campus() -> DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.total_docs = 500;
    cfg.n_sites = 10;
    cfg.spam_farms.clear();
    cfg.generate().unwrap()
}

/// A mixed churn shape: every step rewires one
/// site internally; every 2nd grows a site; every 3rd adds a cross link;
/// every 4th appends a whole new site.
fn churn_delta(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut site = (step * 7 + 3) % n_sites;
    while graph.site_size(SiteId(site)) < 3 {
        site = (site + 1) % n_sites;
    }
    let docs = graph.docs_of_site(SiteId(site));
    delta.remove_link(docs[0], docs[1]).unwrap();
    delta.add_link(docs[1], docs[2]).unwrap();
    delta.add_link(docs[2], docs[0]).unwrap();
    if step.is_multiple_of(2) {
        let target = SiteId((step * 5 + 1) % n_sites);
        let root = graph.docs_of_site(target)[0];
        for i in 0..2 {
            let p = delta
                .add_page(target, &format!("http://fp-grow-{step}-{i}.page/"))
                .unwrap();
            delta.add_link(root, p).unwrap();
            delta.add_link(p, root).unwrap();
        }
    }
    if step.is_multiple_of(3) {
        let a = graph.docs_of_site(SiteId((step * 11 + 2) % n_sites))[0];
        let b = graph.docs_of_site(SiteId((step * 13 + 5) % n_sites))[0];
        delta.add_link(a, b).unwrap();
    }
    if step % 4 == 3 {
        let s = delta.add_site(&format!("fp-churn-{step}.example"));
        let mut pages = Vec::new();
        for i in 0..3 {
            pages.push(
                delta
                    .add_page(s, &format!("http://fp-churn-{step}.example/{i}"))
                    .unwrap(),
            );
        }
        for w in pages.windows(2) {
            delta.add_link(w[0], w[1]).unwrap();
        }
        delta.add_link(pages[2], pages[0]).unwrap();
        let anchor = graph.docs_of_site(SiteId(step % n_sites))[0];
        delta.add_link(anchor, pages[0]).unwrap();
        delta.add_link(pages[0], anchor).unwrap();
    }
    delta
}

#[test]
fn composed_fingerprint_matches_scratch_on_every_churn_step() {
    let mut current = campus();
    let mut fp = GraphFingerprint::of(&current);
    for step in 0..12 {
        let delta = churn_delta(&current, step);
        let (mutated, applied) = current.apply(&delta).unwrap();
        fp = fp.compose(&applied);
        assert_eq!(
            fp,
            GraphFingerprint::of(&mutated),
            "step {step}: composed fingerprint diverged from scratch"
        );
        current = mutated;
    }
}

#[test]
fn membership_preserving_deltas_repin_snapshot_tables() {
    // A rewire adds no documents/sites, so the new snapshot must share the
    // previous snapshot's membership storage instead of re-materializing
    // O(docs) tables — the serving-side analogue of the O(delta) refresh.
    let base = campus();
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .build()
        .unwrap();
    engine.rank(&base).unwrap();
    let before = engine.snapshot().unwrap();

    let mut rewire = GraphDelta::for_graph(&base);
    let docs = base.docs_of_site(SiteId(2));
    rewire.remove_link(docs[0], docs[1]).unwrap();
    rewire.add_link(docs[1], docs[0]).unwrap();
    engine.apply_delta(&rewire).unwrap();
    let after = engine.snapshot().unwrap();
    assert!(std::ptr::eq(
        before.members_of_site(SiteId(0)).as_ptr(),
        after.members_of_site(SiteId(0)).as_ptr(),
    ));

    // Growth changes site 0's membership: its list is new, while every
    // other site's list is still the one the first snapshot held.
    let (current, _) = base.apply(&rewire).unwrap();
    let mut grow = GraphDelta::for_graph(&current);
    let root = current.docs_of_site(SiteId(0))[0];
    let p = grow.add_page(SiteId(0), "http://repin-grow.page/").unwrap();
    grow.add_link(root, p).unwrap();
    engine.apply_delta(&grow).unwrap();
    let grown = engine.snapshot().unwrap();
    assert!(!std::ptr::eq(
        after.members_of_site(SiteId(0)).as_ptr(),
        grown.members_of_site(SiteId(0)).as_ptr(),
    ));
    assert!(grown.members_of_site(SiteId(0)).contains(&p));
    assert!(std::ptr::eq(
        before.members_of_site(SiteId(1)).as_ptr(),
        grown.members_of_site(SiteId(1)).as_ptr(),
    ));
}

#[test]
fn engine_delta_stream_stays_a_cache_hit_and_localizes_staleness() {
    // End-to-end: the engine's composed fingerprint keeps re-ranks of the
    // mutated graph cache hits across a whole churn stream, and each
    // snapshot's staleness set matches the induced delta's site sets.
    let base = campus();
    let sink = Arc::new(MemorySink::new());
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .telemetry(sink.clone())
        .build()
        .unwrap();
    engine.rank(&base).unwrap();

    let mut current = base;
    for step in 0..6 {
        let delta = churn_delta(&current, step);
        let (mutated, applied) = current.apply(&delta).unwrap();
        engine.apply_delta(&delta).unwrap();
        let snap = engine.snapshot().unwrap();
        assert_eq!(snap.epoch(), engine.epoch());
        // Growth-only churn: the recomputed sites are the changed and
        // grown ones, plus every appended (live) site.
        let mut expected: Vec<usize> = applied
            .changed_sites
            .iter()
            .chain(applied.grown_sites.iter())
            .copied()
            .chain(current.n_sites()..mutated.n_sites())
            .collect();
        expected.sort_unstable();
        let site_rank_reran = applied.cross_links_changed || applied.added_sites > 0;
        match snap.staleness() {
            Staleness::Full => {
                panic!("step {step}: only a from-scratch rank may report Full");
            }
            Staleness::Sites(sites) => {
                assert!(!site_rank_reran, "step {step}: SiteRank reran, got Sites");
                assert_eq!(sites, &expected, "step {step}: staleness set mismatch");
            }
            Staleness::Resized {
                sites,
                removed_sites,
            } => {
                // A SiteRank rerun rescales every site; only the
                // recomputed ones lose their within-site order.
                assert!(site_rank_reran, "step {step}: Resized without a rerun");
                assert_eq!(sites, &expected, "step {step}: staleness set mismatch");
                assert!(removed_sites.is_empty(), "step {step}: nothing was removed");
            }
        }
        // The composed fingerprint must make this a cache hit.
        let before = sink.len();
        engine.rank(&mutated).unwrap();
        assert_eq!(sink.len(), before, "step {step}: re-rank was not a hit");
        current = mutated;
    }

    // Telemetry carries the serving epoch: one initial rank + 6 deltas.
    let runs = sink.runs();
    assert_eq!(runs.len(), 7);
    for (i, run) in runs.iter().enumerate() {
        assert_eq!(run.epoch, i as u64 + 1);
    }
}
