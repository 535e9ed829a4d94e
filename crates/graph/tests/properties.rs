//! Property-based tests of the web-graph substrate: structural invariants
//! of generated graphs and consistency between DocGraph and SiteGraph
//! views.

use lmm_graph::docgraph::DocGraphBuilder;
use lmm_graph::generator::{random_web, CampusWebConfig, ZipfSampler};
use lmm_graph::sitegraph::{SiteGraph, SiteGraphOptions, SiteLinkWeighting};
use lmm_graph::{DocId, SiteId};
use lmm_linalg::CooMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_campus(seed: u64, n_sites: usize, total_docs: usize) -> lmm_graph::DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.seed = seed;
    cfg.n_sites = n_sites;
    cfg.total_docs = total_docs;
    cfg.spam_farms.truncate(1);
    cfg.spam_farms[0].host_site = n_sites / 2;
    cfg.spam_farms[0].n_pages = 25;
    cfg.generate().expect("campus web")
}

/// xorshift64*: deterministic churn without pulling in rand. `step(m)`
/// draws from `0..m`.
fn xorshift(seed: u64) -> impl FnMut(usize) -> usize {
    let mut rng = seed | 1; // the zero state is absorbing
    move |m| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % m
    }
}

/// Repeated add/remove flips on random doc pairs, plus a page grown onto a
/// random site every other round.
fn churny_delta(
    g: &lmm_graph::DocGraph,
    step: &mut impl FnMut(usize) -> usize,
    round: usize,
) -> lmm_graph::GraphDelta {
    let mut d = lmm_graph::GraphDelta::for_graph(g);
    for _ in 0..12 {
        let a = DocId(step(g.n_docs()));
        let b = DocId(step(g.n_docs()));
        if a == b {
            continue;
        }
        if step(2) == 0 {
            d.add_link(a, b).unwrap();
        } else {
            d.remove_link(a, b).unwrap();
        }
    }
    if round % 2 == 1 {
        let site = SiteId(step(g.n_sites()));
        let p = d
            .add_page(site, &format!("http://compact-{round}.page/"))
            .unwrap();
        d.add_link(g.docs_of_site(site)[0], p).unwrap();
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Site membership partitions the documents: every doc belongs to
    /// exactly one site's member list, at its own index.
    #[test]
    fn site_membership_is_a_partition(seed in any::<u64>(), n_sites in 4usize..12) {
        let g = small_campus(seed, n_sites, 400);
        let mut seen = vec![false; g.n_docs()];
        for s in 0..g.n_sites() {
            for d in g.docs_of_site(SiteId(s)) {
                prop_assert!(!seen[d.index()], "doc {} in two sites", d);
                seen[d.index()] = true;
                prop_assert_eq!(g.site_of(*d), SiteId(s));
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }

    /// SiteGraph link-count weights tally exactly the cross-site doc links.
    #[test]
    fn sitegraph_weights_count_cross_links(seed in any::<u64>()) {
        let g = small_campus(seed, 8, 400);
        let s = SiteGraph::from_doc_graph(&g, &SiteGraphOptions::default());
        let total_weight: f64 = s.weights().iter().map(|(_, _, w)| w).sum();
        prop_assert_eq!(total_weight as usize, g.cross_site_links());
        // With self-loops the total covers every link.
        let s_all = SiteGraph::from_doc_graph(
            &g,
            &SiteGraphOptions { include_self_loops: true, ..SiteGraphOptions::default() },
        );
        let total_all: f64 = s_all.weights().iter().map(|(_, _, w)| w).sum();
        prop_assert_eq!(total_all as usize, g.n_links());
    }

    /// Site subgraphs contain exactly the intra-site edges.
    #[test]
    fn subgraph_edge_counts_are_consistent(seed in any::<u64>()) {
        let g = small_campus(seed, 8, 400);
        let intra_total: usize = (0..g.n_sites())
            .map(|s| g.site_subgraph(SiteId(s)).adjacency.nnz())
            .sum();
        prop_assert_eq!(intra_total, g.n_links() - g.cross_site_links());
    }

    /// Generation is a pure function of the configuration.
    #[test]
    fn generation_deterministic(seed in any::<u64>()) {
        let g1 = small_campus(seed, 6, 300);
        let g2 = small_campus(seed, 6, 300);
        prop_assert_eq!(g1, g2);
    }

    /// Uniform weighting never exceeds count weighting and log weighting
    /// sits in between for counts >= 1.
    #[test]
    fn weighting_orderings(seed in any::<u64>()) {
        let g = small_campus(seed, 8, 400);
        let count = SiteGraph::from_doc_graph(&g, &SiteGraphOptions::default());
        let uniform = SiteGraph::from_doc_graph(&g, &SiteGraphOptions {
            weighting: SiteLinkWeighting::Uniform, ..SiteGraphOptions::default()
        });
        let log = SiteGraph::from_doc_graph(&g, &SiteGraphOptions {
            weighting: SiteLinkWeighting::LogCount, ..SiteGraphOptions::default()
        });
        for (r, c, w) in count.weights().iter() {
            let u = uniform.weights().get(r, c);
            let l = log.weights().get(r, c);
            prop_assert_eq!(u, 1.0);
            prop_assert!(l <= w.max(1.0) + 1e-12);
            prop_assert!(l > 0.0);
        }
    }

    /// Random webs have the advertised shape and no self-loops.
    #[test]
    fn random_web_shape(
        n_docs in 10usize..200,
        n_sites in 1usize..10,
        links in 1usize..5,
        seed in any::<u64>(),
    ) {
        prop_assume!(n_sites <= n_docs);
        let g = random_web(n_docs, n_sites, links, seed).expect("random web");
        prop_assert_eq!(g.n_docs(), n_docs);
        prop_assert_eq!(g.n_sites(), n_sites);
        for (from, to) in g.links() {
            prop_assert_ne!(from, to, "self-loop generated");
        }
        // In/out degree sums both equal the edge count.
        let in_sum: usize = g.in_degrees().iter().sum();
        let out_sum: usize = (0..n_docs).map(|d| g.out_degree(DocId(d))).sum();
        prop_assert_eq!(in_sum, g.n_links());
        prop_assert_eq!(out_sum, g.n_links());
    }

    /// Compacting a merged delta log preserves both the mutated graph and
    /// the induced summary, while collapsing per-pair churn to one op.
    #[test]
    fn compact_log_equals_sequential_apply(seed in any::<u64>(), rounds in 2usize..6) {
        let g = small_campus(seed, 6, 200);
        let mut step = xorshift(seed);
        // Build a churny log: several deltas, each with repeated add/remove
        // flips on a small pool of doc pairs plus occasional growth.
        let mut current = g.clone();
        let mut log: Option<lmm_graph::GraphDelta> = None;
        for round in 0..rounds {
            let d = churny_delta(&current, &mut step, round);
            let (next, _) = current.apply(&d).unwrap();
            current = next;
            log = Some(match log {
                None => d,
                Some(mut merged) => {
                    merged.merge(d).unwrap();
                    merged
                }
            });
        }
        let log = log.expect("at least two rounds");
        let compacted = log.compact();
        prop_assert!(compacted.n_added_links() + compacted.n_removed_links()
            <= log.n_added_links() + log.n_removed_links());
        let (seq, seq_applied) = g.apply(&log).unwrap();
        let (one, one_applied) = g.apply(&compacted).unwrap();
        prop_assert_eq!(&current, &seq, "merge must equal sequential apply");
        prop_assert_eq!(&seq, &one, "compaction changed the mutated graph");
        prop_assert_eq!(seq_applied, one_applied, "compaction changed the summary");
    }

    /// A graph patched block by block is the graph a builder makes from
    /// scratch out of the same links, and its derived flat view is the
    /// matrix those links assemble to.
    #[test]
    fn patched_graph_equals_scratch_rebuild(seed in any::<u64>(), rounds in 1usize..8) {
        let mut g = small_campus(seed, 6, 200);
        let mut step = xorshift(seed);
        for round in 0..rounds {
            g = g.apply(&churny_delta(&g, &mut step, round)).unwrap().0;
        }
        prop_assert!(!g.flat_view_is_built(), "apply must not build the flat view");
        prop_assert_eq!(&DocGraphBuilder::from_graph(&g).build(), &g);
        let mut coo = CooMatrix::new(g.n_docs(), g.n_docs());
        coo.extend(g.links().map(|(from, to)| (from.index(), to.index(), 1.0)));
        prop_assert_eq!(g.adjacency(), &coo.to_csr());
        prop_assert_eq!(g.n_links(), g.adjacency().nnz());
        // Every site's block holds exactly its members' matrix rows.
        for s in 0..g.n_sites() {
            for (doc, row) in g.site_out_links(SiteId(s)) {
                prop_assert_eq!(row, g.adjacency().row(doc.index()).0);
                prop_assert_eq!(row, g.out_links(doc));
            }
        }
    }

    /// Zipf samples stay in range and low indices dominate on average.
    #[test]
    fn zipf_sampler_in_range(n in 2usize..100, seed in any::<u64>()) {
        let z = ZipfSampler::new(n, 1.2).expect("valid");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut first_half = 0usize;
        for _ in 0..200 {
            let s = z.sample(&mut rng);
            prop_assert!(s < n);
            if s < n.div_ceil(2) {
                first_half += 1;
            }
        }
        prop_assert!(first_half >= 100, "only {} of 200 in the head", first_half);
    }
}
