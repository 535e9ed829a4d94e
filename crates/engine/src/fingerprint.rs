//! Delta-composable graph fingerprints — the serving cache's key.
//!
//! A fingerprint must answer "is this the graph I ranked?" cheaply. The
//! previous design mixed every word *sequentially*, which made composition
//! impossible: applying a [`GraphDelta`](lmm_graph::delta::GraphDelta)
//! forced a full O(docs + links) re-hash on every
//! [`RankEngine::apply_delta`](crate::RankEngine::apply_delta) — the one
//! path that is supposed to be O(delta).
//!
//! This version hashes each element (one site assignment, one weighted
//! edge) through a strong 64-bit finalizer and combines the element hashes
//! with **wrapping addition**. Addition is commutative and invertible, so
//! the exact edge diff reported by [`AppliedDelta`] composes in O(delta):
//! add the terms of added links and appended documents, subtract the terms
//! of removed links. [`GraphFingerprint::compose`] is *exact* — it equals
//! [`GraphFingerprint::of`] on the mutated graph bit for bit (a regression
//! test replays a growth-and-removal mutation stream to keep that true).
//!
//! The structural counts are compared exactly; the hash covers content, so
//! a stale cache hit needs a 64-bit collision between same-shape graphs —
//! accepted as negligible for a serving cache, and
//! [`RankEngine::invalidate`](crate::RankEngine::invalidate) always forces
//! a recompute.

use lmm_graph::delta::AppliedDelta;
use lmm_graph::docgraph::DocGraph;

/// Domain tags keep assignment terms and edge terms from aliasing even for
/// identical index words.
const ASSIGN_TAG: u64 = 0x9e37_79b9_7f4a_7c15;
const EDGE_TAG: u64 = 0xc2b2_ae3d_27d4_eb4f;
/// Odd multipliers injecting each field into the pre-mix word bijectively
/// (and asymmetrically, so edge `(a, b)` never aliases `(b, a)`).
const P1: u64 = 0x8cb9_2ba7_2f3d_8dd7;
const P2: u64 = 0xff51_afd7_ed55_8ccd;
const P3: u64 = 0x2545_f491_4f6c_dd1d;

/// SplitMix64 finalizer: a well-mixed bijection on 64-bit words. The one
/// copy in the workspace; `lmm-cluster`'s retry jitter and fault streams
/// are built on it.
#[must_use]
pub fn finalizer(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Hash term of one document's site assignment.
fn assign_term(doc: usize, site: usize) -> u64 {
    finalizer(ASSIGN_TAG ^ (doc as u64).wrapping_mul(P1) ^ (site as u64).wrapping_mul(P2))
}

/// Hash term of one weighted edge.
fn edge_term(src: usize, dst: usize, weight_bits: u64) -> u64 {
    finalizer(
        EDGE_TAG
            ^ (src as u64).wrapping_mul(P1)
            ^ (dst as u64).wrapping_mul(P2)
            ^ weight_bits.wrapping_mul(P3),
    )
}

/// Cache key for a graph: exact structural counts plus a commutative sum of
/// per-element hashes over the site assignments and weighted edges. See the
/// module docs for why the combine must be commutative (delta composition)
/// and why per-element collisions are not a practical concern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphFingerprint {
    n_docs: usize,
    n_sites: usize,
    n_links: usize,
    hash: u64,
}

impl GraphFingerprint {
    /// Fingerprints a graph from scratch: one pass, site by site, over the
    /// **live** assignments (the member lists, which exclude tombstoned
    /// documents) and their out-links (dead documents own no row and appear
    /// in none) — O(docs + links). The sum is order-free, so the per-site
    /// link blocks are read in place and the flat adjacency view is never
    /// built.
    ///
    /// Audit note: the hash must cover the *content* of the edge set and
    /// the site partition — not just the counts — or a same-shape recrawl
    /// with rewired links would serve a stale cached ranking. The collision
    /// regression tests below keep this honest. Tombstoned slots are
    /// *excluded* so removal terms can retire commutatively in
    /// [`compose`](Self::compose); two graphs differing only in dead-slot
    /// metadata hash alike, which is sound because dead slots carry no
    /// ranking-relevant state.
    #[must_use]
    pub fn of(graph: &DocGraph) -> Self {
        let mut hash = 0u64;
        let unit = 1.0f64.to_bits();
        for site in 0..graph.n_sites() {
            for (doc, links) in graph.site_out_links(lmm_graph::SiteId(site)) {
                hash = hash.wrapping_add(assign_term(doc.index(), site));
                for &dst in links {
                    hash = hash.wrapping_add(edge_term(doc.index(), dst, unit));
                }
            }
        }
        Self {
            n_docs: graph.n_docs(),
            n_sites: graph.n_sites(),
            n_links: graph.n_links(),
            hash,
        }
    }

    /// Folds an applied delta into the fingerprint in O(delta): the terms
    /// of appended documents and added links are added; the terms of
    /// removed links **and removed documents' assignments** are
    /// subtracted — removal composes commutatively exactly like addition,
    /// because the combine is a wrapping sum of per-element terms. The
    /// result is bit-identical to [`GraphFingerprint::of`] on the mutated
    /// graph, because [`AppliedDelta`] reports the *exact* induced edge
    /// diff (no-op mutations never appear; every link dropped by a
    /// tombstoned endpoint does appear) and [`DocGraph::apply`] creates
    /// every link with weight `1.0`.
    #[must_use]
    pub fn compose(&self, applied: &AppliedDelta) -> Self {
        let mut hash = self.hash;
        for (i, site) in applied.new_doc_sites.iter().enumerate() {
            hash = hash.wrapping_add(assign_term(self.n_docs + i, site.index()));
        }
        for (doc, site) in applied.removed_docs.iter().zip(&applied.removed_doc_sites) {
            hash = hash.wrapping_sub(assign_term(doc.index(), site.index()));
        }
        let unit = 1.0f64.to_bits();
        for &(src, dst) in &applied.links_added {
            hash = hash.wrapping_add(edge_term(src.index(), dst.index(), unit));
        }
        for &(src, dst) in &applied.links_removed {
            hash = hash.wrapping_sub(edge_term(src.index(), dst.index(), unit));
        }
        Self {
            n_docs: self.n_docs + applied.new_doc_sites.len(),
            n_sites: self.n_sites + applied.added_sites,
            n_links: self.n_links + applied.links_added.len() - applied.links_removed.len(),
            hash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_graph::delta::GraphDelta;
    use lmm_graph::docgraph::DocGraphBuilder;
    use lmm_graph::{DocId, SiteId};

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
    fn identical_graphs_share_a_fingerprint() {
        let g = graph_with_edges(&[(0, 1), (1, 2), (2, 3)]);
        let h = graph_with_edges(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(GraphFingerprint::of(&g), GraphFingerprint::of(&h));
    }

    #[test]
    fn rewired_links_change_the_fingerprint_despite_equal_counts() {
        // Same docs, same sites, same number of links — only the wiring
        // differs. A count-only fingerprint would collide and serve the
        // stale ranking.
        let g = graph_with_edges(&[(0, 1), (1, 2), (2, 3)]);
        let h = graph_with_edges(&[(1, 0), (1, 2), (2, 3)]);
        assert_eq!(g.n_docs(), h.n_docs());
        assert_eq!(g.n_links(), h.n_links());
        assert_ne!(GraphFingerprint::of(&g), GraphFingerprint::of(&h));
    }

    #[test]
    fn reversed_edge_direction_changes_the_fingerprint() {
        // The commutative combine must not make the edge term symmetric.
        let g = graph_with_edges(&[(0, 1)]);
        let h = graph_with_edges(&[(1, 0)]);
        assert_ne!(GraphFingerprint::of(&g), GraphFingerprint::of(&h));
    }

    #[test]
    fn repartitioned_sites_change_the_fingerprint_despite_equal_counts() {
        let edges = [(0, 1), (1, 2), (2, 3)];
        let g = graph_with_edges(&edges);
        // Same edge set, same site count — but doc 1 now belongs to b.org.
        let mut b = DocGraphBuilder::new();
        b.add_doc("a.org", "http://a.org/");
        b.add_doc("b.org", "http://a.org/1");
        b.add_doc("b.org", "http://b.org/");
        b.add_doc("a.org", "http://b.org/1");
        for (f, t) in edges {
            b.add_link(DocId(f), DocId(t)).unwrap();
        }
        let h = b.build();
        assert_eq!(g.n_sites(), h.n_sites());
        assert_eq!(g.n_links(), h.n_links());
        assert_ne!(GraphFingerprint::of(&g), GraphFingerprint::of(&h));
    }

    #[test]
    fn composition_is_exact_for_a_mixed_delta() {
        let g = graph_with_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let base = GraphFingerprint::of(&g);
        let mut d = GraphDelta::for_graph(&g);
        d.remove_link(DocId(0), DocId(1)).unwrap();
        d.add_link(DocId(1), DocId(0)).unwrap();
        let p = d.add_page(SiteId(1), "http://b.org/2").unwrap();
        d.add_link(DocId(2), p).unwrap();
        let s = d.add_site("c.org");
        let c = d.add_page(s, "http://c.org/").unwrap();
        d.add_link(p, c).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        assert_eq!(base.compose(&applied), GraphFingerprint::of(&h));
    }

    #[test]
    fn composition_with_noop_mutations_is_identity() {
        let g = graph_with_edges(&[(0, 1), (1, 2)]);
        let base = GraphFingerprint::of(&g);
        let mut d = GraphDelta::for_graph(&g);
        d.remove_link(DocId(1), DocId(0)).unwrap(); // absent: no-op
        d.add_link(DocId(0), DocId(1)).unwrap(); // present: no-op
        let (h, applied) = g.apply(&d).unwrap();
        assert_eq!(g, h);
        assert_eq!(base.compose(&applied), base);
    }

    #[test]
    fn composition_is_exact_for_removal_deltas() {
        let g = graph_with_edges(&[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let base = GraphFingerprint::of(&g);
        // Tombstone one page: its assignment term and both incident links
        // retire from the sum.
        let mut d = GraphDelta::for_graph(&g);
        d.remove_page(DocId(1)).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        assert_eq!(applied.removed_docs, vec![DocId(1)]);
        let composed = base.compose(&applied);
        assert_ne!(composed, base);
        assert_eq!(composed, GraphFingerprint::of(&h));
        // Tombstone a whole site on top — composition chains.
        let mut d2 = GraphDelta::for_graph(&h);
        d2.remove_site(SiteId(1)).unwrap();
        let (i, applied2) = h.apply(&d2).unwrap();
        assert_eq!(composed.compose(&applied2), GraphFingerprint::of(&i));
        // A mixed remove + grow delta also composes exactly.
        let mut d3 = GraphDelta::for_graph(&g);
        d3.remove_page(DocId(3)).unwrap();
        let p = d3.add_page(SiteId(0), "http://a.org/2").unwrap();
        d3.add_link(DocId(0), p).unwrap();
        let (j, applied3) = g.apply(&d3).unwrap();
        assert_eq!(base.compose(&applied3), GraphFingerprint::of(&j));
    }

    #[test]
    fn cancelled_additions_compose_to_the_same_fingerprint() {
        // add-page-then-remove-page in one delta: the slot is appended
        // dead, so its terms cancel and only the slot count moves.
        let g = graph_with_edges(&[(0, 1), (2, 3)]);
        let base = GraphFingerprint::of(&g);
        let mut d = GraphDelta::for_graph(&g);
        let doomed = d.add_page(SiteId(0), "http://a.org/doomed").unwrap();
        d.add_link(DocId(0), doomed).unwrap();
        d.remove_page(doomed).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        let composed = base.compose(&applied);
        assert_eq!(composed, GraphFingerprint::of(&h));
        assert_eq!(composed.hash, base.hash, "dead slot leaves no term");
        assert_eq!(composed.n_docs, base.n_docs + 1, "but the slot count moved");
    }

    #[test]
    fn net_zero_rewire_still_changes_the_fingerprint() {
        // A cross-site rewire with unchanged per-pair counts keeps every
        // ranking layer fresh, yet the graph differs — the composed
        // fingerprint must differ too, and match a from-scratch hash.
        let g = graph_with_edges(&[(1, 2), (0, 1), (2, 3)]);
        let base = GraphFingerprint::of(&g);
        let mut d = GraphDelta::for_graph(&g);
        d.remove_link(DocId(1), DocId(2)).unwrap();
        d.add_link(DocId(0), DocId(3)).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        assert!(applied.is_empty(), "rank layers stay fresh");
        let composed = base.compose(&applied);
        assert_ne!(composed, base);
        assert_eq!(composed, GraphFingerprint::of(&h));
    }
}
