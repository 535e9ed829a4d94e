//! Property-based tests of the web-graph substrate: structural invariants
//! of generated graphs and consistency between DocGraph and SiteGraph
//! views.

use lmm_graph::docgraph::DocGraphBuilder;
use lmm_graph::generator::{random_web, CampusWebConfig, ZipfSampler};
use lmm_graph::sitegraph::{ranking_site_graph, SiteGraph, SiteGraphOptions, SiteLinkWeighting};
use lmm_graph::{DocGraph, DocId, GraphDelta, SiteId};
use lmm_linalg::{CooMatrix, CsrMatrix};
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

/// The SiteGraph by its definition, walking every document link: one
/// `1.0` per link summed per ordered site pair, then weighted. The oracle
/// for the SiteLink count rows the graph maintains.
fn walked_site_graph(g: &DocGraph, options: &SiteGraphOptions) -> CsrMatrix {
    let ns = g.n_sites();
    let mut coo = CooMatrix::new(ns, ns);
    let site_of = g.site_assignments();
    for s in 0..ns {
        for (_, row) in g.site_out_links(SiteId(s)) {
            for &dst in row {
                let t = site_of[dst].index();
                if s != t || options.include_self_loops {
                    coo.push(s, t, 1.0);
                }
            }
        }
    }
    let counts = coo.to_csr();
    match options.weighting {
        SiteLinkWeighting::LinkCount => counts,
        SiteLinkWeighting::Uniform => counts.map_values(|_| 1.0),
        SiteLinkWeighting::LogCount => counts.map_values(|c| (1.0 + c).ln()),
    }
}

/// Asserts `ranking_site_graph` equals the link walk bit for bit under every
/// weighting, with self-loops on and off, and that the cross-link count
/// summed from the rows is the walked one.
fn assert_site_layer_matches_walk(g: &DocGraph, context: &str) {
    let bits = |m: &CsrMatrix| -> (usize, usize, Vec<(usize, usize, u64)>) {
        let entries = m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        (m.nrows(), m.ncols(), entries)
    };
    for weighting in [
        SiteLinkWeighting::LinkCount,
        SiteLinkWeighting::Uniform,
        SiteLinkWeighting::LogCount,
    ] {
        for include_self_loops in [false, true] {
            let options = SiteGraphOptions {
                include_self_loops,
                weighting,
            };
            assert_eq!(
                bits(ranking_site_graph(g, &options).weights()),
                bits(&walked_site_graph(g, &options)),
                "{context}: {options:?}"
            );
        }
    }
    let crossing = g.links().filter(|(a, b)| g.site_of(*a) != g.site_of(*b));
    assert_eq!(g.cross_site_links(), crossing.count(), "{context}");
}

fn pick<T: Copy>(items: &[T], step: &mut impl FnMut(usize) -> usize) -> T {
    items[step(items.len())]
}

/// One delta of a stream that mixes every structural mutation: intra- and
/// cross-site link additions and removals (a removal usually names a
/// present link, so counts really fall), then by round a grown page, a
/// removed page, a new site, a removed site, or a site and a page each
/// added and removed within the same delta.
fn mixed_delta(g: &DocGraph, step: &mut impl FnMut(usize) -> usize, round: usize) -> GraphDelta {
    let mut d = GraphDelta::for_graph(g);
    let sites: Vec<SiteId> = g.live_sites().collect();
    for k in 0..6 {
        let s = pick(&sites, step);
        let from = pick(g.docs_of_site(s), step);
        let t = if k % 2 == 0 { s } else { pick(&sites, step) };
        let to = pick(g.docs_of_site(t), step);
        let present = g.out_links(from);
        if step(2) == 0 {
            d.add_link(from, to).unwrap();
        } else if present.is_empty() {
            d.remove_link(from, to).unwrap();
        } else {
            d.remove_link(from, DocId(pick(present, step))).unwrap();
        }
    }
    let s = pick(&sites, step);
    let member = pick(g.docs_of_site(s), step);
    let elsewhere = {
        let t = pick(&sites, step);
        pick(g.docs_of_site(t), step)
    };
    match round % 5 {
        0 => {
            let p = d.add_page(s, &format!("http://grown-{round}/")).unwrap();
            d.add_link(member, p).unwrap();
            d.add_link(p, elsewhere).unwrap();
        }
        1 if g.site_size(s) >= 2 => d.remove_page(member).unwrap(),
        2 => {
            let t = d.add_site(&format!("new-{round}.example"));
            let p0 = d.add_page(t, &format!("http://new-{round}/")).unwrap();
            let p1 = d.add_page(t, &format!("http://new-{round}/1")).unwrap();
            for (from, to) in [(p0, p1), (p1, p0), (p1, elsewhere), (member, p0)] {
                d.add_link(from, to).unwrap();
            }
        }
        3 if sites.len() > 4 => d.remove_site(s).unwrap(),
        4 => {
            let t = d.add_site(&format!("doomed-{round}.example"));
            let q = d.add_page(t, &format!("http://doomed-{round}/")).unwrap();
            d.add_link(q, member).unwrap();
            d.add_link(elsewhere, q).unwrap();
            d.remove_site(t).unwrap();
            let p = d.add_page(s, &format!("http://brief-{round}/")).unwrap();
            d.add_link(member, p).unwrap();
            d.remove_page(p).unwrap();
        }
        _ => {}
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

    /// The SiteLink counts `apply` maintains never drift from the links:
    /// through a stream of every kind of mutation, the site layer equals a
    /// walk over all links after each delta, after `compact_ids`, and after
    /// a snapshot round trip of the compacted graph.
    #[test]
    fn maintained_site_counts_match_a_link_walk(seed in any::<u64>()) {
        let mut g = small_campus(seed, 8, 300);
        let mut step = xorshift(seed);
        assert_site_layer_matches_walk(&g, "built");
        for round in 0..40 {
            g = g.apply(&mixed_delta(&g, &mut step, round)).unwrap().0;
            assert_site_layer_matches_walk(&g, &format!("round {round}"));
            if round % 10 == 9 {
                let dense = g.compact_ids().0;
                assert_site_layer_matches_walk(&dense, &format!("round {round}, compacted"));
                let mut buf = Vec::new();
                lmm_graph::io::write_snapshot(&dense, &mut buf).unwrap();
                // (The reread graph interns sites in document order, so its
                // site ids may differ from `dense`'s; its counts are its own.)
                let read = lmm_graph::io::read_snapshot(buf.as_slice()).unwrap();
                assert_site_layer_matches_walk(&read, &format!("round {round}, reread"));
            }
        }
        prop_assert!(g.has_tombstones() && g.n_sites() > 8);
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
