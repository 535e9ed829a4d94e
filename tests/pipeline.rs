//! End-to-end layered DocRank pipeline tests on the synthetic campus web
//! (`lmm-repro campus`'s acceptance criteria).

use lmm::core::siterank::{flat_pagerank, layered_doc_rank, LayeredRankConfig};
use lmm::graph::generator::CampusWebConfig;
use lmm::graph::{DocId, SiteId};
use lmm::linalg::PowerOptions;
use lmm::rank::metrics;

fn campus() -> lmm::graph::DocGraph {
    CampusWebConfig::small().generate().expect("campus web")
}

#[test]
fn figure3_flat_pagerank_is_spam_dominated() {
    let graph = campus();
    let flat = flat_pagerank(&graph, 0.85, &PowerOptions::with_tol(1e-10), 0).expect("flat");
    let spam_share = metrics::labeled_share_at_k(&flat.ranking, &graph.spam_labels(), 15);
    assert!(
        spam_share >= 0.3,
        "flat PageRank top-15 should be dominated by farm pages, got {spam_share}"
    );
}

#[test]
fn figure4_layered_method_is_spam_free() {
    let graph = campus();
    let layered = layered_doc_rank(&graph, &LayeredRankConfig::default()).expect("layered");
    let spam_share = metrics::labeled_share_at_k(&layered.global, &graph.spam_labels(), 15);
    assert_eq!(
        spam_share, 0.0,
        "the layered top-15 should contain no farm pages"
    );
}

#[test]
fn layered_top15_is_authoritative_roots() {
    // Figure 4's qualitative reading: the layered list surfaces site roots
    // (home pages) rather than deep pages.
    let graph = campus();
    let layered = layered_doc_rank(&graph, &LayeredRankConfig::default()).expect("layered");
    let roots_in_top15 = layered
        .top_k(15)
        .into_iter()
        .filter(|&d| graph.url(d).ends_with('/'))
        .count();
    assert!(
        roots_in_top15 >= 10,
        "expected mostly root pages in the layered top-15, got {roots_in_top15}"
    );
}

#[test]
fn portal_root_ranks_first_under_both_methods() {
    let graph = campus();
    let root = graph.docs_of_site(SiteId(0))[0];
    let flat = flat_pagerank(&graph, 0.85, &PowerOptions::with_tol(1e-10), 0).expect("flat");
    let layered = layered_doc_rank(&graph, &LayeredRankConfig::default()).expect("layered");
    assert_eq!(flat.ranking.order()[0], root.index());
    assert_eq!(layered.global.order()[0], root.index());
}

#[test]
fn rankings_correlate_but_differ() {
    let graph = campus();
    let flat = flat_pagerank(&graph, 0.85, &PowerOptions::with_tol(1e-10), 0).expect("flat");
    let layered = layered_doc_rank(&graph, &LayeredRankConfig::default()).expect("layered");
    let tau = metrics::kendall_tau(&flat.ranking, &layered.global);
    assert!(
        tau > 0.2 && tau < 0.95,
        "methods should correlate without coinciding, tau = {tau}"
    );
}

#[test]
fn pipeline_is_deterministic() {
    let g1 = campus();
    let g2 = campus();
    assert_eq!(g1, g2);
    let r1 = layered_doc_rank(&g1, &LayeredRankConfig::default()).expect("run 1");
    let r2 = layered_doc_rank(&g2, &LayeredRankConfig::default()).expect("run 2");
    assert_eq!(r1.global.scores(), r2.global.scores());
}

#[test]
fn clean_web_keeps_methods_closer() {
    // Removing the farms increases agreement between flat and layered —
    // the divergence in the spam case is driven by the farms.
    let spammy = campus();
    let clean = CampusWebConfig::small()
        .without_spam()
        .generate()
        .expect("clean web");
    let power = PowerOptions::with_tol(1e-10);
    let tau_spammy = metrics::kendall_tau(
        &flat_pagerank(&spammy, 0.85, &power, 0)
            .expect("flat")
            .ranking,
        &layered_doc_rank(&spammy, &LayeredRankConfig::default())
            .expect("layered")
            .global,
    );
    let tau_clean = metrics::kendall_tau(
        &flat_pagerank(&clean, 0.85, &power, 0)
            .expect("flat")
            .ranking,
        &layered_doc_rank(&clean, &LayeredRankConfig::default())
            .expect("layered")
            .global,
    );
    assert!(
        tau_clean > tau_spammy,
        "clean tau {tau_clean} should exceed spammy tau {tau_spammy}"
    );
}

#[test]
fn site_mass_equals_site_rank() {
    // Sum of a site's document scores equals its SiteRank entry — the
    // conservation property behind Theorem 1.
    let graph = campus();
    let layered = layered_doc_rank(&graph, &LayeredRankConfig::default()).expect("layered");
    for s in 0..graph.n_sites() {
        let mass: f64 = graph
            .docs_of_site(SiteId(s))
            .iter()
            .map(|d| layered.score(*d))
            .sum();
        assert!(
            (mass - layered.site_rank.score(s)).abs() < 1e-9,
            "site {s}: mass {mass} vs site rank {}",
            layered.site_rank.score(s)
        );
    }
}

#[test]
fn every_document_is_ranked() {
    let graph = campus();
    let layered = layered_doc_rank(&graph, &LayeredRankConfig::default()).expect("layered");
    assert_eq!(layered.global.len(), graph.n_docs());
    // Teleportation guarantees strictly positive scores everywhere.
    for d in 0..graph.n_docs() {
        assert!(layered.global.score(d) > 0.0, "doc {d} has zero score");
    }
    let _ = DocId(0); // exercise the id type in the integration context
}
