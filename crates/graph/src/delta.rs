//! Structural graph deltas: validated mutations of a
//! [`DocGraph`] — growth **and** shrinkage.
//!
//! The paper's Section 1.2 motivates the layered decomposition with the
//! observation that centralized PageRank cannot keep up with Web churn —
//! and real crawls delete as much as they add. A [`GraphDelta`] records
//! every structural mutation against a fixed base graph:
//!
//! * link additions and removals (in order, so add/remove on the same pair
//!   compose like sequential edits);
//! * new pages joining an existing site;
//! * whole new sites (which must receive at least one page);
//! * **page removals** ([`GraphDelta::remove_page`]) and **whole-site
//!   removals** ([`GraphDelta::remove_site`]).
//!
//! [`DocGraph::apply`] replays a delta onto the base graph and returns the
//! mutated graph together with the induced [`AppliedDelta`] — the
//! site-granular summary the incremental ranking layer consumes: which
//! existing sites changed internally, which grew, which **shrank**, which
//! were **removed**, how many sites were appended, and whether any
//! cross-site link changed.
//!
//! Renumbering is *consistent*: every existing document and site keeps its
//! id; new documents get ids `n_docs..`, new sites get ids `n_sites..`, in
//! the order they were added to the delta. Removal is **tombstone-based**:
//! a removed document's slot stays (so surviving ids never shift under a
//! delta stream), its incident links are dropped, and it leaves its site's
//! member list. Densifying the id space is the *explicit*
//! [`DocGraph::compact_ids`] maintenance step, which returns the old→new
//! [`IdRemap`](crate::remap::IdRemap).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use crate::docgraph::{DocGraph, LinkBlock, PageKind};
use crate::error::{GraphError, Result};
use crate::ids::{DocId, SiteId};

/// One recorded link mutation. Ordered replay makes add/remove on the same
/// pair behave like sequential edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkOp {
    Add(DocId, DocId),
    Remove(DocId, DocId),
}

/// A page added by a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NewPage {
    site: SiteId,
    url: String,
    kind: PageKind,
}

/// A validated set of structural mutations against one base graph shape.
///
/// Create one with [`GraphDelta::for_graph`]; ids handed out by
/// [`add_site`](GraphDelta::add_site) / [`add_page`](GraphDelta::add_page)
/// are the ids the mutated graph will use, so links to not-yet-applied
/// pages can be recorded immediately.
///
/// # Example
/// ```
/// use lmm_graph::docgraph::DocGraphBuilder;
/// use lmm_graph::delta::GraphDelta;
///
/// # fn main() -> Result<(), lmm_graph::GraphError> {
/// let mut b = DocGraphBuilder::new();
/// let home = b.add_doc("a.org", "http://a.org/");
/// let page = b.add_doc("a.org", "http://a.org/p");
/// b.add_link(home, page)?;
/// let graph = b.build();
///
/// let mut delta = GraphDelta::for_graph(&graph);
/// let site = delta.add_site("b.org");
/// let new_home = delta.add_page(site, "http://b.org/")?;
/// delta.add_link(page, new_home)?;
/// let (grown, applied) = graph.apply(&delta)?;
/// assert_eq!(grown.n_docs(), 3);
/// assert_eq!(grown.n_sites(), 2);
/// assert_eq!(applied.added_sites, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphDelta {
    base_docs: usize,
    base_sites: usize,
    new_sites: Vec<String>,
    new_pages: Vec<NewPage>,
    link_ops: Vec<LinkOp>,
    /// Documents to tombstone, in result-space indices (base documents or
    /// pages added by this delta).
    removed_pages: BTreeSet<usize>,
    /// Sites to tombstone, in result-space indices; removing a site
    /// implicitly removes all its pages.
    removed_sites: BTreeSet<usize>,
}

impl GraphDelta {
    /// Starts an empty delta against `graph`'s shape.
    #[must_use]
    pub fn for_graph(graph: &DocGraph) -> Self {
        Self::for_shape(graph.n_docs(), graph.n_sites())
    }

    /// Starts an empty delta against an explicit `(n_docs, n_sites)` base
    /// shape.
    fn for_shape(base_docs: usize, base_sites: usize) -> Self {
        Self {
            base_docs,
            base_sites,
            new_sites: Vec::new(),
            new_pages: Vec::new(),
            link_ops: Vec::new(),
            removed_pages: BTreeSet::new(),
            removed_sites: BTreeSet::new(),
        }
    }

    /// Document slots in the graph this delta produces (tombstoned slots
    /// included — removal never shrinks the id space).
    fn result_docs(&self) -> usize {
        self.base_docs + self.new_pages.len()
    }

    /// Site slots in the graph this delta produces.
    fn result_sites(&self) -> usize {
        self.base_sites + self.new_sites.len()
    }

    /// `true` when the delta records no mutation at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.new_sites.is_empty()
            && self.new_pages.is_empty()
            && self.link_ops.is_empty()
            && self.removed_pages.is_empty()
            && self.removed_sites.is_empty()
    }

    /// Number of pages this delta adds.
    #[must_use]
    pub fn n_new_pages(&self) -> usize {
        self.new_pages.len()
    }

    /// Number of whole sites this delta adds.
    #[must_use]
    pub fn n_new_sites(&self) -> usize {
        self.new_sites.len()
    }

    /// Declares a new site, returning the id it will have after `apply`.
    /// The site must receive at least one page before the delta is applied.
    pub fn add_site(&mut self, name: &str) -> SiteId {
        let id = SiteId(self.result_sites());
        self.new_sites.push(name.to_string());
        id
    }

    /// Adds a regular page to `site` (existing or added by this delta),
    /// returning the id it will have after `apply`.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidDelta`] for an unknown site.
    pub fn add_page(&mut self, site: SiteId, url: &str) -> Result<DocId> {
        self.add_page_with_kind(site, url, PageKind::Regular)
    }

    /// Adds a page with an explicit [`PageKind`] label.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidDelta`] for an unknown site.
    fn add_page_with_kind(&mut self, site: SiteId, url: &str, kind: PageKind) -> Result<DocId> {
        if site.index() >= self.result_sites() {
            return Err(GraphError::InvalidDelta {
                reason: format!(
                    "add_page names site {} but only {} sites exist (including {} added)",
                    site.index(),
                    self.result_sites(),
                    self.new_sites.len()
                ),
            });
        }
        let id = DocId(self.result_docs());
        self.new_pages.push(NewPage {
            site,
            url: url.to_string(),
            kind,
        });
        Ok(id)
    }

    /// Tombstones a page (a base document or a page added by this delta).
    /// Its incident links are dropped at `apply`; its id slot stays dead.
    ///
    /// # Errors
    /// [`GraphError::UnknownDoc`] when the id is outside the delta's
    /// resulting range; [`GraphError::InvalidDelta`] when this delta
    /// already removed the page.
    pub fn remove_page(&mut self, doc: DocId) -> Result<()> {
        if doc.index() >= self.result_docs() {
            return Err(GraphError::UnknownDoc {
                doc: doc.index(),
                n_docs: self.result_docs(),
            });
        }
        if !self.removed_pages.insert(doc.index()) {
            return Err(GraphError::InvalidDelta {
                reason: format!("page {doc} is already removed by this delta"),
            });
        }
        Ok(())
    }

    /// Tombstones a whole site (a base site or one added by this delta),
    /// implicitly removing all its pages.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidDelta`] for an unknown site, or when
    /// this delta already removed it.
    pub fn remove_site(&mut self, site: SiteId) -> Result<()> {
        if site.index() >= self.result_sites() {
            return Err(GraphError::InvalidDelta {
                reason: format!(
                    "remove_site names site {} but only {} sites exist",
                    site.index(),
                    self.result_sites()
                ),
            });
        }
        if !self.removed_sites.insert(site.index()) {
            return Err(GraphError::InvalidDelta {
                reason: format!("site {site} is already removed by this delta"),
            });
        }
        Ok(())
    }

    /// Records a link addition between two documents (existing or added by
    /// this delta). A link that already exists collapses at `apply` like
    /// every duplicate; a link to a removed document is dropped.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownDoc`] when either endpoint is outside
    /// the delta's resulting document range.
    pub fn add_link(&mut self, from: DocId, to: DocId) -> Result<()> {
        self.check_endpoints(from, to)?;
        self.link_ops.push(LinkOp::Add(from, to));
        Ok(())
    }

    /// Records a (directed) link removal. Removing a link that does not
    /// exist is a no-op at `apply` time.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownDoc`] when either endpoint is outside
    /// the delta's resulting document range.
    pub fn remove_link(&mut self, from: DocId, to: DocId) -> Result<()> {
        self.check_endpoints(from, to)?;
        self.link_ops.push(LinkOp::Remove(from, to));
        Ok(())
    }

    fn check_endpoints(&self, from: DocId, to: DocId) -> Result<()> {
        let n = self.result_docs();
        for d in [from, to] {
            if d.index() >= n {
                return Err(GraphError::UnknownDoc {
                    doc: d.index(),
                    n_docs: n,
                });
            }
        }
        Ok(())
    }

    /// Site of a document reference (existing or added by this delta),
    /// given the base graph.
    fn site_of_ref(&self, graph: &DocGraph, doc: DocId) -> SiteId {
        if doc.index() < self.base_docs {
            graph.site_of(doc)
        } else {
            self.new_pages[doc.index() - self.base_docs].site
        }
    }
}

/// The summary a [`DocGraph::apply`] call induces — the site-granular
/// staleness sets the incremental re-ranking layer consumes, plus the
/// **exact** edge diff the serving layer folds into delta-composed graph
/// fingerprints (and a future delta-gossip layer can ship to replicas).
/// Its size is O(delta): `apply` visits only the rows the delta can change.
///
/// `changed_sites`, `grown_sites`, `shrunk_sites`, and `removed_sites` are
/// pairwise disjoint, sorted, and deduplicated; all name *pre-existing*
/// sites. Appended site slots are counted by `added_sites` (their ids are
/// the trailing range of the mutated graph; a slot both added and removed
/// by the delta is appended dead). `links_added`/`links_removed` record
/// only *real* changes: no-op mutations (removing an absent link, re-adding
/// a present one, add+remove churn on one pair) never appear, while every
/// link dropped by a page or site removal does.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AppliedDelta {
    /// Pre-existing sites with unchanged membership whose intra-site link
    /// structure actually changed (a rank recomputation can warm-start from
    /// the previous vector).
    pub changed_sites: Vec<usize>,
    /// Pre-existing sites that gained pages and lost none (their local
    /// rank dimension changed — cold rebuild).
    pub grown_sites: Vec<usize>,
    /// Pre-existing sites that lost pages but survive (cold rebuild; they
    /// may have gained pages too).
    pub shrunk_sites: Vec<usize>,
    /// Pre-existing sites tombstoned by this delta (their pages all appear
    /// in `removed_docs`).
    pub removed_sites: Vec<usize>,
    /// Number of site slots appended (ids `old_n_sites..new_n_sites`).
    pub added_sites: usize,
    /// Whether the SiteRank is stale: any cross-site link count changed,
    /// or the live site set itself changed.
    pub cross_links_changed: bool,
    /// Every link present in the mutated graph but not the base graph
    /// (deterministic order: ascending by source, then destination).
    pub links_added: Vec<(DocId, DocId)>,
    /// Every link present in the base graph but not the mutated graph
    /// (same ordering as `links_added`) — including links dropped because
    /// an endpoint was removed.
    pub links_removed: Vec<(DocId, DocId)>,
    /// Site assignment of every appended document slot, in id order
    /// (`old_n_docs..new_n_docs`; slots cancelled by a same-delta removal
    /// included).
    pub new_doc_sites: Vec<SiteId>,
    /// Every document tombstoned by this delta, ascending — explicit page
    /// removals, members of removed sites, and same-delta cancelled
    /// additions.
    pub removed_docs: Vec<DocId>,
    /// Site assignment of each entry of `removed_docs` (parallel), so
    /// fingerprints can retire the assignment terms in O(delta).
    pub removed_doc_sites: Vec<SiteId>,
}

impl AppliedDelta {
    /// `true` when the delta induced no *ranking-relevant* change. A
    /// net-zero cross-site rewire keeps every layer fresh (SiteRank weights
    /// are counts) yet still reports its edge diff in
    /// `links_added`/`links_removed` — the graph changed even though the
    /// ranking did not.
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

impl DocGraph {
    /// Applies a structural delta, returning the mutated graph and the
    /// induced [`AppliedDelta`].
    ///
    /// Renumbering is consistent: existing documents and sites keep their
    /// ids; new documents and sites are appended in delta order; removed
    /// documents and sites are **tombstoned** in place (see
    /// [`compact_ids`](DocGraph::compact_ids) for the explicit
    /// densification step).
    ///
    /// This is the hot path of live re-ranking, so it **patches** rather
    /// than rebuilds. Links live in one `Arc`-shared block of out-link rows
    /// per site; only the rows the delta can change are edited — sources of
    /// its link ops, rows it tombstones, rows holding a link to a document
    /// it tombstones — and only the sites that own a row that really
    /// changed, or whose membership changed, get a new block (and, for
    /// membership, a new member list). Every other site's block and member
    /// list, and the URL/kind/site-name columns, are shared with the base
    /// graph. The induced summary falls out of the same pass — the per-row
    /// diffs between old and new edge sets — so no-op mutations (removing
    /// an absent link, re-adding an existing one, net-zero cross rewires)
    /// never mark a layer stale and never copy a block. The same diffs,
    /// summed per ordered site pair, patch the SiteLink count row of every
    /// rebuilt block, so the site layer is maintained rather than recounted.
    ///
    /// Cost: O(ops · log + Σ size of the rebuilt site blocks + sites) for
    /// growth and rewire deltas — `sites` is the clone of the two per-site
    /// pointer tables — plus a `memcpy` of the site-assignment table and
    /// the tombstone lists. A delta that removes pages or sites also reads
    /// the SiteLink rows (O(sites + SiteLinks)) and then the blocks of just
    /// the sites whose row names a site that loses a document — the only
    /// blocks that can hold an in-link of the dead. It never touches the
    /// flat [`adjacency`](DocGraph::adjacency) view: the mutated graph
    /// starts without one, and the first caller that asks for it pays the
    /// O(docs + links) materialization.
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidDelta`] when the delta was built
    /// against a different shape, a new site name is empty / duplicates an
    /// existing or sibling name, a new site received no (surviving) pages,
    /// a removal names an already-tombstoned page or site, a page is added
    /// to an already-tombstoned site, or a removal empties a site that was
    /// not itself removed.
    #[allow(clippy::too_many_lines)]
    pub fn apply(&self, delta: &GraphDelta) -> Result<(DocGraph, AppliedDelta)> {
        if delta.base_docs != self.n_docs() || delta.base_sites != self.n_sites() {
            return Err(GraphError::InvalidDelta {
                reason: format!(
                    "delta expects base shape {}x{} (docs x sites), graph is {}x{}",
                    delta.base_docs,
                    delta.base_sites,
                    self.n_docs(),
                    self.n_sites()
                ),
            });
        }
        let n_base_docs = self.n_docs();
        let n_base_sites = self.n_sites();
        if !delta.new_sites.is_empty() {
            let mut names: HashSet<&str> = self.site_names.iter().map(String::as_str).collect();
            for name in &delta.new_sites {
                if name.is_empty() {
                    return Err(GraphError::InvalidDelta {
                        reason: "new site name is empty".into(),
                    });
                }
                if !names.insert(name) {
                    return Err(GraphError::InvalidDelta {
                        reason: format!("new site name {name:?} already exists"),
                    });
                }
            }
        }

        // --- Removal validation and the newly-dead set. ---
        for &s in &delta.removed_sites {
            if s < n_base_sites && !self.is_live_site(SiteId(s)) {
                return Err(GraphError::InvalidDelta {
                    reason: format!("site {s} is already tombstoned"),
                });
            }
        }
        let mut dead_new: BTreeSet<usize> = BTreeSet::new();
        for &d in &delta.removed_pages {
            if d < n_base_docs {
                if !self.is_live_doc(DocId(d)) {
                    return Err(GraphError::InvalidDelta {
                        reason: format!("page {d} is already tombstoned"),
                    });
                }
                // Strict so one delta ≡ the same edits in sequence: removing
                // a base page whose whole site this delta also removes would
                // fail replayed (the site removal tombstones it first).
                let s = self.site_of(DocId(d)).index();
                if delta.removed_sites.contains(&s) {
                    return Err(GraphError::InvalidDelta {
                        reason: format!(
                            "page {d} belongs to site {s}, which this delta also \
                             removes — drop the redundant remove_page"
                        ),
                    });
                }
            }
            dead_new.insert(d);
        }
        for &s in &delta.removed_sites {
            if s < n_base_sites {
                for &d in self.docs_of_site(SiteId(s)) {
                    dead_new.insert(d.index());
                }
            }
        }
        for (k, page) in delta.new_pages.iter().enumerate() {
            // Adds to a base site this delta removes are rejected (they
            // would fail a sequential replay too); adds to a site the
            // delta itself created and then removed are the cancellation
            // path — the page materializes tombstoned.
            if page.site.index() < n_base_sites
                && (!self.is_live_site(page.site)
                    || delta.removed_sites.contains(&page.site.index()))
            {
                return Err(GraphError::InvalidDelta {
                    reason: format!(
                        "page {:?} added to tombstoned site {}",
                        page.url,
                        page.site.index()
                    ),
                });
            }
            if delta.removed_sites.contains(&page.site.index()) {
                dead_new.insert(n_base_docs + k);
            }
        }

        // --- Per-site membership accounting (live pages only). ---
        // `lost`: explicit page removals per pre-existing site (validated
        // above: such a site is never itself removed, so it survives).
        let mut lost: BTreeMap<usize, usize> = BTreeMap::new();
        for &d in &delta.removed_pages {
            if d < n_base_docs {
                *lost.entry(self.site_of(DocId(d)).index()).or_insert(0) += 1;
            }
        }
        // `appended`: surviving new pages per site slot, in id order.
        let mut appended: BTreeMap<usize, Vec<DocId>> = BTreeMap::new();
        for (k, page) in delta.new_pages.iter().enumerate() {
            let id = n_base_docs + k;
            if !dead_new.contains(&id) {
                appended
                    .entry(page.site.index())
                    .or_default()
                    .push(DocId(id));
            }
        }
        // Every surviving site must stay non-empty; only a site that loses
        // pages can fail that.
        for (&s, &n_lost) in &lost {
            let size = self.site_size(SiteId(s)) + appended.get(&s).map_or(0, Vec::len) - n_lost;
            if size == 0 {
                return Err(GraphError::InvalidDelta {
                    reason: format!(
                        "removing every page of site {s} ({:?}) without removing the \
                         site — remove_site makes the intent explicit",
                        self.site_name(SiteId(s))
                    ),
                });
            }
        }
        for (k, name) in delta.new_sites.iter().enumerate() {
            let slot = n_base_sites + k;
            if !delta.removed_sites.contains(&slot) && appended.get(&slot).map_or(0, Vec::len) == 0
            {
                return Err(GraphError::InvalidDelta {
                    reason: format!("new site {name:?} has no pages"),
                });
            }
        }

        // --- Site classification (pre-existing, pairwise disjoint). ---
        let removed_sites: Vec<usize> = delta
            .removed_sites
            .iter()
            .copied()
            .filter(|&s| s < n_base_sites)
            .collect();
        let shrunk: BTreeSet<usize> = lost.keys().copied().collect();
        let grown: BTreeSet<usize> = appended
            .keys()
            .copied()
            .filter(|&s| s < n_base_sites && !shrunk.contains(&s))
            .collect();
        // Sites whose rank is already stale for membership reasons never
        // also land in `changed`.
        let mut cold: BTreeSet<usize> = shrunk.union(&grown).copied().collect();
        cold.extend(removed_sites.iter().copied());

        // The rows this delta can change, ascending (so the edge diff comes
        // out ordered by source): sources of link ops, grouped with replay
        // order preserved within a row — a removal only erases links present
        // *at that point*, so add-then-remove deletes and remove-then-add
        // restores, like sequential edits — plus every newly dead row, plus
        // (a read-only scan, only when something dies) every row holding a
        // link to the newly dead.
        let mut touched: BTreeMap<usize, Vec<(usize, bool)>> = BTreeMap::new();
        for op in &delta.link_ops {
            let (from, to, is_add) = match *op {
                LinkOp::Add(from, to) => (from, to, true),
                LinkOp::Remove(from, to) => (from, to, false),
            };
            touched
                .entry(from.index())
                .or_default()
                .push((to.index(), is_add));
        }
        for &d in &dead_new {
            touched.entry(d).or_default();
        }
        if !dead_new.is_empty() {
            // Only a site whose SiteLink row names the site of a newly dead
            // base document can link to it, so only those blocks are read.
            // Appended documents that die are linked by this delta's own
            // ops alone, which are in `touched` already.
            let dead_in: BTreeSet<usize> = dead_new
                .iter()
                .filter(|&&d| d < n_base_docs)
                .map(|&d| self.site_of(DocId(d)).index())
                .collect();
            for s in 0..n_base_sites {
                let row = self.site_link_row(SiteId(s));
                if !row.iter().any(|(t, _)| dead_in.contains(t)) {
                    continue;
                }
                for (doc, row) in self.site_out_links(SiteId(s)) {
                    if row.iter().any(|c| dead_new.contains(c)) {
                        touched.entry(doc.index()).or_default();
                    }
                }
            }
        }

        let n_docs = delta.result_docs();
        let mut changed: BTreeSet<usize> = BTreeSet::new();
        // Net link count change per ordered site pair, intra pairs
        // included: it patches the SiteLink rows of the relinked sites, and
        // since the SiteRank depends on the cross *counts* only, a rewire
        // that removes one s->t link and adds another leaves it fresh —
        // exactly like comparing the derived SiteGraphs, at O(ops).
        let mut pair_deltas: BTreeMap<(usize, usize), isize> = BTreeMap::new();
        let mut links_added: Vec<(DocId, DocId)> = Vec::new();
        let mut links_removed: Vec<(DocId, DocId)> = Vec::new();
        let mut record_change = |src: usize, dst: usize, sign: isize| {
            if sign > 0 {
                links_added.push((DocId(src), DocId(dst)));
            } else {
                links_removed.push((DocId(src), DocId(dst)));
            }
            let s = delta.site_of_ref(self, DocId(src)).index();
            let t = delta.site_of_ref(self, DocId(dst)).index();
            if s == t && s < n_base_sites && !cold.contains(&s) {
                changed.insert(s);
            }
            *pair_deltas.entry((s, t)).or_insert(0) += sign;
        };

        // A target is dead when tombstoned by this delta or already dead in
        // the base (live base rows never hold old-dead columns, but link
        // ops may name them).
        let is_dead = |d: usize| -> bool {
            dead_new.contains(&d) || (d < n_base_docs && !self.is_live_doc(DocId(d)))
        };
        // New contents of every live row that really changed (ascending by
        // row), and the sites that own one.
        let mut patched: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut relink: BTreeSet<usize> = BTreeSet::new();
        for (&row, ops) in &touched {
            let base_cols: &[usize] = if row < n_base_docs {
                self.out_links(DocId(row))
            } else {
                &[]
            };
            if is_dead(row) {
                // The whole row dies; every base link is a real removal.
                for &b in base_cols {
                    record_change(row, b, -1);
                }
                continue;
            }
            let mut set: BTreeSet<usize> = base_cols.iter().copied().collect();
            for &(dst, is_add) in ops {
                if is_add {
                    set.insert(dst);
                } else {
                    set.remove(&dst);
                }
            }
            set.retain(|&c| !is_dead(c));
            let final_cols: Vec<usize> = set.into_iter().collect();
            if final_cols == base_cols {
                continue;
            }
            // The set made the row strictly ascending; a block must also
            // never name a document outside the mutated graph.
            if let Some(&c) = final_cols.last().filter(|&&c| c >= n_docs) {
                return Err(GraphError::InvalidDelta {
                    reason: format!(
                        "patched adjacency is inconsistent: row {row} links document {c}, \
                         but only {n_docs} exist"
                    ),
                });
            }
            // Sorted merge-diff of base vs final edge sets — only *real*
            // changes feed the induced delta.
            let (mut i, mut j) = (0usize, 0usize);
            while i < base_cols.len() || j < final_cols.len() {
                match (base_cols.get(i), final_cols.get(j)) {
                    (Some(&b), Some(&f)) if b == f => {
                        i += 1;
                        j += 1;
                    }
                    (Some(&b), Some(&f)) if b < f => {
                        record_change(row, b, -1);
                        i += 1;
                    }
                    (Some(&b), None) => {
                        record_change(row, b, -1);
                        i += 1;
                    }
                    (_, Some(&f)) => {
                        record_change(row, f, 1);
                        j += 1;
                    }
                    (None, None) => unreachable!("loop condition"),
                }
            }
            relink.insert(delta.site_of_ref(self, DocId(row)).index());
            patched.push((row, final_cols));
        }

        // --- Columnar storage: copy-on-write extension + targeted member
        // and link-block rebuilds (existing entries keep their positions —
        // that is the renumbering guarantee). ---
        let urls = self
            .urls
            .append(delta.new_pages.iter().map(|p| p.url.clone()).collect());
        let kinds = self
            .kinds
            .append(delta.new_pages.iter().map(|p| p.kind).collect());
        // A delta that appends no page keeps the assignment table whole.
        let site_of = if delta.new_pages.is_empty() {
            Arc::clone(&self.site_of)
        } else {
            let mut site_of = Vec::with_capacity(self.site_of.len() + delta.new_pages.len());
            site_of.extend_from_slice(&self.site_of);
            site_of.extend(delta.new_pages.iter().map(|p| p.site));
            Arc::new(site_of)
        };
        let site_names = self.site_names.append(delta.new_sites.clone());
        let mut site_members = self.site_members.as_ref().clone();
        site_members.resize(site_names.len(), Arc::from(Vec::new()));
        let mut site_links = self.site_links.clone();
        site_links.resize(site_names.len(), Arc::new(LinkBlock::with_capacity(0, 0)));
        // Sites whose membership changes get a new member list; those and
        // the owners of a patched row get a new link block. Every other
        // site keeps sharing both with the base graph.
        let mut regroup: BTreeSet<usize> = appended.keys().copied().collect();
        regroup.extend(lost.keys().copied());
        regroup.extend(delta.removed_sites.iter().copied());
        relink.extend(regroup.iter().copied());
        let patched_row = |d: DocId| {
            let found = patched.binary_search_by_key(&d.index(), |(row, _)| *row);
            found.ok().map(|i| patched[i].1.as_slice())
        };
        for &s in &relink {
            let mut members: Vec<DocId> = Vec::new();
            let mut block = LinkBlock::with_capacity(0, 0);
            if !delta.removed_sites.contains(&s) {
                if s < n_base_sites {
                    block = LinkBlock::with_capacity(
                        self.site_size(SiteId(s)),
                        self.site_links[s].n_links(),
                    );
                    for (d, row) in self.site_out_links(SiteId(s)) {
                        if !dead_new.contains(&d.index()) {
                            members.push(d);
                            block.push_row(patched_row(d).unwrap_or(row));
                        }
                    }
                }
                for &d in appended.get(&s).into_iter().flatten() {
                    members.push(d);
                    block.push_row(patched_row(d).unwrap_or(&[]));
                }
                let base_row = if s < n_base_sites {
                    self.site_link_row(SiteId(s))
                } else {
                    &[]
                };
                let nets = pair_deltas.range((s, 0)..(s + 1, 0));
                block.site_row = patch_site_row(base_row, nets.map(|(&(_, t), &n)| (t, n)));
            }
            debug_assert_eq!(
                block.site_row,
                block.count_site_row(&site_of),
                "patched SiteLink row of site {s} disagrees with its links"
            );
            if regroup.contains(&s) {
                site_members[s] = Arc::from(members);
            }
            site_links[s] = Arc::new(block);
        }
        let n_links = self.n_links + links_added.len() - links_removed.len();
        // The tombstone lists are shared unless this delta removes more.
        let dead_docs = if dead_new.is_empty() {
            Arc::clone(&self.dead_docs)
        } else {
            let mut dead_docs: Vec<DocId> = self.dead_docs.as_ref().clone();
            dead_docs.extend(dead_new.iter().map(|&d| DocId(d)));
            dead_docs.sort_unstable();
            Arc::new(dead_docs)
        };
        let dead_sites = if delta.removed_sites.is_empty() {
            Arc::clone(&self.dead_sites)
        } else {
            let mut dead_sites: Vec<SiteId> = self.dead_sites.as_ref().clone();
            dead_sites.extend(delta.removed_sites.iter().map(|&s| SiteId(s)));
            dead_sites.sort_unstable();
            Arc::new(dead_sites)
        };

        let removed_doc_sites: Vec<SiteId> = dead_new
            .iter()
            .map(|&d| {
                if d < n_base_docs {
                    self.site_of(DocId(d))
                } else {
                    delta.new_pages[d - n_base_docs].site
                }
            })
            .collect();
        let removed_docs: Vec<DocId> = dead_new.iter().map(|&d| DocId(d)).collect();

        let mutated = DocGraph {
            urls,
            kinds,
            site_of,
            site_names,
            site_members: Arc::new(site_members),
            site_links,
            n_links,
            dead_docs,
            dead_sites,
            flat: Arc::default(),
        };

        let added_sites = delta.new_sites.len();
        let live_added = (0..added_sites)
            .filter(|k| !delta.removed_sites.contains(&(n_base_sites + k)))
            .count();
        let cross_links_changed = live_added > 0
            || !removed_sites.is_empty()
            || pair_deltas.iter().any(|(&(s, t), &net)| s != t && net != 0);
        let applied = AppliedDelta {
            changed_sites: changed.into_iter().collect(),
            grown_sites: grown.into_iter().collect(),
            shrunk_sites: shrunk.into_iter().collect(),
            removed_sites,
            added_sites,
            cross_links_changed,
            links_added,
            links_removed,
            new_doc_sites: delta.new_pages.iter().map(|p| p.site).collect(),
            removed_docs,
            removed_doc_sites,
        };
        Ok((mutated, applied))
    }
}

/// Adds net per-target link changes (ascending by target site) to a
/// SiteLink count row, dropping the counts that reach zero.
fn patch_site_row(
    base: &[(usize, usize)],
    nets: impl Iterator<Item = (usize, isize)>,
) -> Vec<(usize, usize)> {
    let mut row = base.to_vec();
    for (t, net) in nets {
        match row.binary_search_by_key(&t, |&(site, _)| site) {
            Ok(i) => {
                row[i].1 = row[i]
                    .1
                    .checked_add_signed(net)
                    .expect("a delta never removes more links than a site pair holds");
            }
            Err(i) => {
                let links = usize::try_from(net).expect("a new site pair only gains links");
                row.insert(i, (t, links));
            }
        }
    }
    row.retain(|&(_, links)| links > 0);
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docgraph::DocGraphBuilder;
    use crate::generator::CampusWebConfig;
    use lmm_linalg::CooMatrix;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn base() -> DocGraph {
        let mut b = DocGraphBuilder::new();
        let a0 = b.add_doc_with_kind("a.org", "http://a.org/", PageKind::SiteRoot);
        let a1 = b.add_doc("a.org", "http://a.org/1");
        let a2 = b.add_doc("a.org", "http://a.org/2");
        let b0 = b.add_doc_with_kind("b.org", "http://b.org/", PageKind::SiteRoot);
        let b1 = b.add_doc("b.org", "http://b.org/1");
        b.add_link(a0, a1).unwrap();
        b.add_link(a1, a2).unwrap();
        b.add_link(a2, a0).unwrap();
        b.add_link(a2, b0).unwrap();
        b.add_link(b0, b1).unwrap();
        b.add_link(b1, a0).unwrap();
        b.build()
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = base();
        let delta = GraphDelta::for_graph(&g);
        assert!(delta.is_empty());
        let (h, applied) = g.apply(&delta).unwrap();
        assert_eq!(g, h);
        assert!(applied.is_empty());
    }

    #[test]
    fn grow_existing_site_renumbers_consistently() {
        let g = base();
        let mut delta = GraphDelta::for_graph(&g);
        let p = delta.add_page(SiteId(0), "http://a.org/new").unwrap();
        assert_eq!(p, DocId(5));
        delta.add_link(DocId(0), p).unwrap();
        let (h, applied) = g.apply(&delta).unwrap();
        assert_eq!(h.n_docs(), 6);
        assert_eq!(h.n_sites(), 2);
        // Existing ids untouched.
        for d in 0..5 {
            assert_eq!(h.url(DocId(d)), g.url(DocId(d)));
            assert_eq!(h.site_of(DocId(d)), g.site_of(DocId(d)));
        }
        assert_eq!(h.site_of(p), SiteId(0));
        assert_eq!(h.docs_of_site(SiteId(0)).len(), 4);
        assert_eq!(applied.grown_sites, vec![0]);
        assert_eq!(applied.added_sites, 0);
        // A root -> new-page link is intra-site only; cross counts kept.
        assert!(applied.changed_sites.is_empty());
        assert!(!applied.cross_links_changed);
    }

    #[test]
    fn add_whole_site_with_cross_links() {
        let g = base();
        let mut delta = GraphDelta::for_graph(&g);
        let s = delta.add_site("c.org");
        assert_eq!(s, SiteId(2));
        let c0 = delta
            .add_page_with_kind(s, "http://c.org/", PageKind::SiteRoot)
            .unwrap();
        let c1 = delta.add_page(s, "http://c.org/1").unwrap();
        delta.add_link(c0, c1).unwrap();
        delta.add_link(c1, c0).unwrap();
        delta.add_link(DocId(0), c0).unwrap();
        delta.add_link(c0, DocId(3)).unwrap();
        let (h, applied) = g.apply(&delta).unwrap();
        assert_eq!(h.n_sites(), 3);
        assert_eq!(h.site_name(s), "c.org");
        assert_eq!(h.docs_of_site(s), &[c0, c1]);
        assert_eq!(h.kind(c0), PageKind::SiteRoot);
        assert_eq!(applied.added_sites, 1);
        assert!(applied.cross_links_changed);
        assert!(applied.grown_sites.is_empty());
    }

    #[test]
    fn intra_rewire_reports_changed_site_only() {
        let g = base();
        let mut delta = GraphDelta::for_graph(&g);
        delta.remove_link(DocId(0), DocId(1)).unwrap();
        delta.add_link(DocId(1), DocId(0)).unwrap();
        let (h, applied) = g.apply(&delta).unwrap();
        assert_eq!(h.n_links(), g.n_links());
        assert_eq!(applied.changed_sites, vec![0]);
        assert!(applied.grown_sites.is_empty());
        assert!(!applied.cross_links_changed);
    }

    #[test]
    fn noop_mutations_do_not_mark_sites_stale() {
        let g = base();
        let mut delta = GraphDelta::for_graph(&g);
        // Remove a link that does not exist, re-add one that does.
        delta.remove_link(DocId(1), DocId(0)).unwrap();
        delta.add_link(DocId(0), DocId(1)).unwrap();
        let (h, applied) = g.apply(&delta).unwrap();
        assert_eq!(g, h);
        assert!(applied.is_empty());
    }

    #[test]
    fn link_ops_replay_in_order() {
        let g = base();
        // Add then remove: the link (and its base duplicate) is gone.
        let mut delta = GraphDelta::for_graph(&g);
        delta.add_link(DocId(0), DocId(1)).unwrap();
        delta.remove_link(DocId(0), DocId(1)).unwrap();
        let (h, _) = g.apply(&delta).unwrap();
        assert_eq!(h.adjacency().get(0, 1), 0.0);
        // Remove then add: the link survives.
        let mut delta = GraphDelta::for_graph(&g);
        delta.remove_link(DocId(0), DocId(1)).unwrap();
        delta.add_link(DocId(0), DocId(1)).unwrap();
        let (h, _) = g.apply(&delta).unwrap();
        assert_eq!(h.adjacency().get(0, 1), 1.0);
    }

    #[test]
    fn apply_rejects_wrong_base_shape() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        d.add_page(SiteId(0), "http://a.org/x").unwrap();
        let (grown, _) = g.apply(&d).unwrap();
        // The same delta cannot be applied to the already-grown graph.
        assert!(matches!(
            grown.apply(&d),
            Err(GraphError::InvalidDelta { .. })
        ));
    }

    #[test]
    fn apply_rejects_duplicate_and_empty_site_names() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        let s = d.add_site("a.org"); // collides with an existing site
        d.add_page(s, "http://a.org/dup").unwrap();
        assert!(matches!(g.apply(&d), Err(GraphError::InvalidDelta { .. })));

        let mut d = GraphDelta::for_graph(&g);
        let s = d.add_site("");
        d.add_page(s, "http://nameless/").unwrap();
        assert!(matches!(g.apply(&d), Err(GraphError::InvalidDelta { .. })));
    }

    #[test]
    fn apply_rejects_empty_new_site() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        d.add_site("c.org");
        assert!(matches!(g.apply(&d), Err(GraphError::InvalidDelta { .. })));
    }

    #[test]
    fn builder_rejects_out_of_range_references() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        assert!(d.add_page(SiteId(7), "http://nowhere/").is_err());
        assert!(d.add_link(DocId(0), DocId(99)).is_err());
        assert!(d.remove_link(DocId(99), DocId(0)).is_err());
        assert!(d.remove_page(DocId(99)).is_err());
        assert!(d.remove_site(SiteId(7)).is_err());
        // A link to a page added by the delta itself is fine.
        let p = d.add_page(SiteId(0), "http://a.org/x").unwrap();
        d.add_link(DocId(0), p).unwrap();
        assert_eq!(d.n_new_pages(), 1);
        assert_eq!(d.n_new_sites(), 0);
    }

    #[test]
    fn applied_delta_reports_exact_edge_diffs() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        // One real removal, one real addition, one no-op removal (absent
        // link), one no-op re-add (present link).
        d.remove_link(DocId(0), DocId(1)).unwrap();
        d.add_link(DocId(1), DocId(0)).unwrap();
        d.remove_link(DocId(4), DocId(3)).unwrap();
        d.add_link(DocId(3), DocId(4)).unwrap();
        let (_, applied) = g.apply(&d).unwrap();
        assert_eq!(applied.links_added, vec![(DocId(1), DocId(0))]);
        assert_eq!(applied.links_removed, vec![(DocId(0), DocId(1))]);
        assert!(applied.new_doc_sites.is_empty());

        // Growth: appended docs report their site assignments in id order.
        let mut d = GraphDelta::for_graph(&g);
        let p = d.add_page(SiteId(1), "http://b.org/new").unwrap();
        let s = d.add_site("c.org");
        let c = d.add_page(s, "http://c.org/").unwrap();
        d.add_link(p, c).unwrap();
        let (_, applied) = g.apply(&d).unwrap();
        assert_eq!(applied.new_doc_sites, vec![SiteId(1), SiteId(2)]);
        assert_eq!(applied.links_added, vec![(p, c)]);
        assert!(applied.links_removed.is_empty());
    }

    #[test]
    fn net_zero_cross_rewire_reports_links_but_stays_rank_fresh() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        // Remove the one a->b cross link, add a different a->b cross link:
        // counts per site pair are unchanged, so no layer is stale — but
        // the graph itself changed and the diff must say so.
        d.remove_link(DocId(2), DocId(3)).unwrap();
        d.add_link(DocId(1), DocId(4)).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        assert_ne!(g, h);
        assert!(applied.is_empty(), "ranking-relevant summary is empty");
        assert_eq!(applied.links_added, vec![(DocId(1), DocId(4))]);
        assert_eq!(applied.links_removed, vec![(DocId(2), DocId(3))]);
    }

    #[test]
    fn mixed_delta_summary_is_exact() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        // Intra rewire in site 1, growth in site 0, one new site.
        d.remove_link(DocId(3), DocId(4)).unwrap();
        d.add_link(DocId(4), DocId(3)).unwrap();
        let p = d.add_page(SiteId(0), "http://a.org/x").unwrap();
        d.add_link(p, DocId(0)).unwrap();
        let s = d.add_site("c.org");
        let c = d.add_page(s, "http://c.org/").unwrap();
        d.add_link(c, c).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        assert_eq!(applied.changed_sites, vec![1]);
        assert_eq!(applied.grown_sites, vec![0]);
        assert_eq!(applied.added_sites, 1);
        assert!(applied.cross_links_changed);
        assert_eq!(h.n_docs(), 7);
        assert_eq!(h.n_sites(), 3);
    }

    // --- Removal ---

    #[test]
    fn remove_page_tombstones_in_place() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        d.remove_page(DocId(1)).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        // Slots unchanged; doc 1 is dead, its links dropped both ways.
        assert_eq!(h.n_docs(), 5);
        assert_eq!(h.n_live_docs(), 4);
        assert!(!h.is_live_doc(DocId(1)));
        assert!(h.is_live_doc(DocId(0)));
        assert_eq!(h.docs_of_site(SiteId(0)), &[DocId(0), DocId(2)]);
        assert_eq!(h.adjacency().get(0, 1), 0.0); // in-link dropped
        assert_eq!(h.out_degree(DocId(1)), 0); // out-links dropped
        assert_eq!(applied.shrunk_sites, vec![0]);
        assert!(applied.changed_sites.is_empty());
        assert!(applied.removed_sites.is_empty());
        assert_eq!(applied.removed_docs, vec![DocId(1)]);
        assert_eq!(applied.removed_doc_sites, vec![SiteId(0)]);
        assert_eq!(
            applied.links_removed,
            vec![(DocId(0), DocId(1)), (DocId(1), DocId(2))]
        );
        // Intra-only removal: cross counts are untouched.
        assert!(!applied.cross_links_changed);
        // Ids stay meaningful: surviving docs keep urls and sites.
        assert_eq!(h.url(DocId(2)), g.url(DocId(2)));
    }

    #[test]
    fn remove_site_tombstones_every_member() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        d.remove_site(SiteId(1)).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        assert_eq!(h.n_sites(), 2);
        assert_eq!(h.n_live_sites(), 1);
        assert!(!h.is_live_site(SiteId(1)));
        assert!(h.docs_of_site(SiteId(1)).is_empty());
        assert!(!h.is_live_doc(DocId(3)));
        assert!(!h.is_live_doc(DocId(4)));
        assert_eq!(applied.removed_sites, vec![1]);
        assert_eq!(applied.removed_docs, vec![DocId(3), DocId(4)]);
        assert!(applied.cross_links_changed);
        // The a2 -> b0 and b1 -> a0 cross links died with the site.
        assert!(applied.links_removed.contains(&(DocId(2), DocId(3))));
        assert!(applied.links_removed.contains(&(DocId(4), DocId(0))));
        // Site 0 lost no members: it is not shrunk (its cross row changed,
        // which the SiteRank recompute covers).
        assert!(applied.shrunk_sites.is_empty());
        assert_eq!(h.live_sites().collect::<Vec<_>>(), vec![SiteId(0)]);
    }

    #[test]
    fn double_removal_is_rejected() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        d.remove_page(DocId(1)).unwrap();
        assert!(d.remove_page(DocId(1)).is_err());
        d.remove_site(SiteId(1)).unwrap();
        assert!(d.remove_site(SiteId(1)).is_err());
        // Applying twice: the second apply sees already-dead slots.
        let (h, _) = g.apply(&d).unwrap();
        let mut again = GraphDelta::for_graph(&h);
        again.remove_page(DocId(1)).unwrap();
        assert!(matches!(
            h.apply(&again),
            Err(GraphError::InvalidDelta { .. })
        ));
        let mut again = GraphDelta::for_graph(&h);
        again.remove_site(SiteId(1)).unwrap();
        assert!(matches!(
            h.apply(&again),
            Err(GraphError::InvalidDelta { .. })
        ));
    }

    #[test]
    fn emptying_a_site_without_removing_it_is_rejected() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        d.remove_page(DocId(3)).unwrap();
        d.remove_page(DocId(4)).unwrap();
        assert!(matches!(g.apply(&d), Err(GraphError::InvalidDelta { .. })));
        // Replacing the membership keeps the site alive.
        let mut d = GraphDelta::for_graph(&g);
        d.remove_page(DocId(3)).unwrap();
        d.remove_page(DocId(4)).unwrap();
        let p = d.add_page(SiteId(1), "http://b.org/fresh").unwrap();
        d.add_link(p, DocId(0)).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        assert_eq!(h.docs_of_site(SiteId(1)), &[p]);
        // Lost and gained: classified shrunk (cold rebuild), not grown.
        assert_eq!(applied.shrunk_sites, vec![1]);
        assert!(applied.grown_sites.is_empty());
    }

    #[test]
    fn adding_to_a_tombstoned_site_is_rejected() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        d.remove_site(SiteId(1)).unwrap();
        let (h, _) = g.apply(&d).unwrap();
        let mut again = GraphDelta::for_graph(&h);
        again.add_page(SiteId(1), "http://b.org/zombie").unwrap();
        assert!(matches!(
            h.apply(&again),
            Err(GraphError::InvalidDelta { .. })
        ));
    }

    #[test]
    fn removal_then_growth_keeps_ids_stable_across_a_stream() {
        let g = base();
        let mut d1 = GraphDelta::for_graph(&g);
        d1.remove_page(DocId(1)).unwrap();
        let (h, _) = g.apply(&d1).unwrap();
        // The next delta's new page lands after the tombstoned slot.
        let mut d2 = GraphDelta::for_graph(&h);
        let p = d2.add_page(SiteId(0), "http://a.org/late").unwrap();
        assert_eq!(p, DocId(5));
        d2.add_link(DocId(0), p).unwrap();
        let (i, applied) = h.apply(&d2).unwrap();
        assert_eq!(i.docs_of_site(SiteId(0)), &[DocId(0), DocId(2), p]);
        assert!(!i.is_live_doc(DocId(1)));
        assert_eq!(applied.grown_sites, vec![0]);
    }

    #[test]
    fn links_to_removed_docs_are_dropped_not_errors() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        d.remove_page(DocId(1)).unwrap();
        d.add_link(DocId(0), DocId(1)).unwrap(); // target dies
        d.add_link(DocId(1), DocId(2)).unwrap(); // source dies
        let (h, applied) = g.apply(&d).unwrap();
        assert_eq!(h.adjacency().get(0, 1), 0.0);
        assert_eq!(h.out_degree(DocId(1)), 0);
        // Neither op produced a link_added entry.
        assert!(applied.links_added.is_empty());
    }

    #[test]
    fn compact_ids_densifies_after_removal() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        d.remove_page(DocId(1)).unwrap();
        let (h, _) = g.apply(&d).unwrap();
        let (dense, remap) = h.compact_ids();
        assert_eq!(dense.n_docs(), 4);
        assert!(!dense.has_tombstones());
        assert_eq!(remap.doc(DocId(0)), Some(DocId(0)));
        assert_eq!(remap.doc(DocId(1)), None);
        assert_eq!(remap.doc(DocId(2)), Some(DocId(1)));
        assert_eq!(remap.doc(DocId(4)), Some(DocId(3)));
        assert_eq!(dense.url(DocId(1)), g.url(DocId(2)));
        // Edges survive under the renumbering: a2 -> a0 becomes 1 -> 0.
        assert_eq!(dense.adjacency().get(1, 0), 1.0);
        // Site removal compacts the site axis too.
        let mut d2 = GraphDelta::for_graph(&h);
        d2.remove_site(SiteId(1)).unwrap();
        let (i, _) = h.apply(&d2).unwrap();
        let (dense2, remap2) = i.compact_ids();
        assert_eq!(dense2.n_sites(), 1);
        assert_eq!(remap2.site(SiteId(1)), None);
        assert_eq!(dense2.n_docs(), 2);
    }

    #[test]
    fn mixed_removal_delta_summary_is_exact() {
        // One removed site, one shrunk site, one grown site — the
        // acceptance shape at graph level — on a 4-site base.
        let mut b = DocGraphBuilder::new();
        let mut docs = Vec::new();
        for s in 0..4 {
            let name = format!("s{s}.org");
            let d0 = b.add_doc(&name, &format!("http://{name}/"));
            let d1 = b.add_doc(&name, &format!("http://{name}/1"));
            let d2 = b.add_doc(&name, &format!("http://{name}/2"));
            b.add_link(d0, d1).unwrap();
            b.add_link(d1, d2).unwrap();
            b.add_link(d2, d0).unwrap();
            docs.push((d0, d1, d2));
        }
        b.add_link(docs[0].2, docs[1].0).unwrap();
        b.add_link(docs[1].2, docs[2].0).unwrap();
        b.add_link(docs[3].0, docs[0].0).unwrap();
        let g = b.build();

        let mut d = GraphDelta::for_graph(&g);
        d.remove_site(SiteId(1)).unwrap();
        d.remove_page(docs[2].1).unwrap();
        let p = d.add_page(SiteId(3), "http://s3.org/new").unwrap();
        d.add_link(docs[3].0, p).unwrap();
        d.add_link(p, docs[3].0).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        assert_eq!(applied.removed_sites, vec![1]);
        assert_eq!(applied.shrunk_sites, vec![2]);
        assert_eq!(applied.grown_sites, vec![3]);
        assert!(applied.changed_sites.is_empty());
        assert!(applied.cross_links_changed);
        assert_eq!(h.n_live_sites(), 3);
        assert_eq!(h.site_size(SiteId(2)), 2);
        assert_eq!(h.site_size(SiteId(3)), 4);
        assert_eq!(applied.removed_docs.len(), 4);
    }
    // --- Site-blocked storage: sharing and equivalence ---

    /// Base sites whose link block / member list `new` does not share with
    /// `old`.
    fn unshared(old: &DocGraph, new: &DocGraph) -> (BTreeSet<usize>, BTreeSet<usize>) {
        let sites = 0..old.n_sites();
        let relinked = |&s: &usize| !Arc::ptr_eq(&old.site_links[s], &new.site_links[s]);
        let regrouped = |&s: &usize| !Arc::ptr_eq(&old.site_members[s], &new.site_members[s]);
        (
            sites.clone().filter(relinked).collect(),
            sites.filter(regrouped).collect(),
        )
    }

    /// One step of a seeded churn stream, recorded twice: as a
    /// [`GraphDelta`] and as the plain op list / death list a naive edge-set
    /// model replays. Steps below `GROWTH_ONLY` only rewire and grow; later
    /// ones also remove pages and sites and cancel same-delta additions.
    struct ChurnStep {
        delta: GraphDelta,
        ops: Vec<(usize, usize, bool)>,
        dead: Vec<usize>,
    }
    const GROWTH_ONLY: usize = 40;

    impl ChurnStep {
        fn link(&mut self, from: DocId, to: DocId, add: bool) {
            if add {
                self.delta.add_link(from, to).unwrap();
            } else {
                self.delta.remove_link(from, to).unwrap();
            }
            self.ops.push((from.index(), to.index(), add));
        }

        fn generate(g: &DocGraph, rng: &mut StdRng, step: usize) -> Self {
            let sites: Vec<SiteId> = g.live_sites().collect();
            let site = |rng: &mut StdRng| sites[rng.random_range(0..sites.len())];
            let doc_of = |rng: &mut StdRng, s: SiteId| {
                let members = g.docs_of_site(s);
                members[rng.random_range(0..members.len())]
            };
            let any_doc = |rng: &mut StdRng| {
                let s = site(rng);
                doc_of(rng, s)
            };
            let mut this = ChurnStep {
                delta: GraphDelta::for_graph(g),
                ops: Vec::new(),
                dead: Vec::new(),
            };
            // Rewires inside and across sites; many are no-ops (re-adding a
            // present link, removing an absent one).
            for _ in 0..rng.random_range(0..5usize) {
                let from = any_doc(rng);
                let to = match g.out_links(from).first() {
                    Some(&present) if rng.random::<bool>() => DocId(present),
                    _ => any_doc(rng),
                };
                this.link(from, to, rng.random::<bool>());
            }
            let kind = step % if step < GROWTH_ONLY { 3 } else { 6 };
            match kind {
                1 => {
                    let s = site(rng);
                    let p = this
                        .delta
                        .add_page(s, &format!("http://grow-{step}/"))
                        .unwrap();
                    this.link(doc_of(rng, s), p, true);
                    this.link(p, any_doc(rng), true);
                }
                2 => {
                    let s = this.delta.add_site(&format!("site-{step}.example"));
                    let p0 = this.delta.add_page(s, &format!("http://s{step}/")).unwrap();
                    let p1 = this
                        .delta
                        .add_page(s, &format!("http://s{step}/1"))
                        .unwrap();
                    this.link(p0, p1, true);
                    this.link(p1, p0, true);
                    this.link(any_doc(rng), p0, true);
                }
                3 => {
                    let s = site(rng);
                    if g.site_size(s) >= 2 {
                        let victim = doc_of(rng, s);
                        this.delta.remove_page(victim).unwrap();
                        this.dead.push(victim.index());
                    }
                }
                4 if sites.len() > 6 => {
                    let s = site(rng);
                    // Ops recorded so far may sit in `s`; they die with it.
                    this.delta.remove_site(s).unwrap();
                    this.dead
                        .extend(g.docs_of_site(s).iter().map(|d| d.index()));
                }
                5 => {
                    // Same-delta cancellations: a page, and a whole site.
                    let s = site(rng);
                    let doomed = this.delta.add_page(s, "http://doomed/").unwrap();
                    this.link(doc_of(rng, s), doomed, true);
                    this.delta.remove_page(doomed).unwrap();
                    let t = this.delta.add_site(&format!("doomed-{step}.example"));
                    let q = this.delta.add_page(t, "http://doomed.example/").unwrap();
                    this.link(q, doc_of(rng, s), true);
                    this.delta.remove_site(t).unwrap();
                    this.dead.extend([doomed.index(), q.index()]);
                }
                _ => {}
            }
            this
        }
    }

    #[test]
    fn apply_rebuilds_exactly_the_touched_blocks_over_a_churn_stream() {
        let mut cfg = CampusWebConfig::small();
        (cfg.total_docs, cfg.n_sites) = (400, 10);
        cfg.spam_farms.clear();
        let mut g = cfg.generate().unwrap();
        let mut rng = StdRng::seed_from_u64(0x5174_b10c);
        // The naive model: a set of edges and the documents dead so far.
        let mut edges: BTreeSet<(usize, usize)> =
            g.links().map(|(a, b)| (a.index(), b.index())).collect();
        let mut dead: BTreeSet<usize> = BTreeSet::new();
        let (mut removals, mut noop_steps) = (0usize, 0usize);
        for step in 0..240 {
            let churn = ChurnStep::generate(&g, &mut rng, step);
            let (new, applied) = g.apply(&churn.delta).unwrap();

            // (b) Equivalence against the model, which shares no code with
            // `apply`: replay the ops on the edge set, then drop what
            // touches a dead document.
            let before = edges.clone();
            for &(from, to, add) in &churn.ops {
                if add {
                    edges.insert((from, to));
                } else {
                    edges.remove(&(from, to));
                }
            }
            dead.extend(churn.dead.iter().copied());
            edges.retain(|(a, b)| !dead.contains(a) && !dead.contains(b));
            let stored: Vec<(usize, usize)> =
                new.links().map(|(a, b)| (a.index(), b.index())).collect();
            assert!(
                stored.iter().copied().eq(edges.iter().copied()),
                "step {step}"
            );
            let pairs = |v: &[(DocId, DocId)]| -> Vec<(usize, usize)> {
                v.iter().map(|(a, b)| (a.index(), b.index())).collect()
            };
            let added: Vec<_> = edges.difference(&before).copied().collect();
            let removed: Vec<_> = before.difference(&edges).copied().collect();
            assert_eq!(pairs(&applied.links_added), added, "step {step}");
            assert_eq!(pairs(&applied.links_removed), removed, "step {step}");
            assert_eq!(new.n_links(), edges.len());
            let mut coo = CooMatrix::new(new.n_docs(), new.n_docs());
            coo.extend(edges.iter().map(|&(a, b)| (a, b, 1.0)));
            assert_eq!(*new.adjacency(), coo.to_csr(), "step {step}");
            assert_eq!(new.n_links(), new.adjacency().nnz());
            // The patched graph equals one built from scratch out of its
            // own links (densified first once it carries tombstones).
            let dense = new.compact_ids().0;
            assert_eq!(
                new.has_tombstones(),
                step >= GROWTH_ONLY && !dead.is_empty()
            );
            assert_eq!(DocGraphBuilder::from_graph(&dense).build(), dense);

            // (a) Sharing is exact: a base site gets a new block iff one of
            // its rows really changed or its membership did, a new member
            // list iff its membership did; everything else is the base
            // graph's own allocation.
            let regrouped: BTreeSet<usize> = applied
                .grown_sites
                .iter()
                .chain(&applied.shrunk_sites)
                .chain(&applied.removed_sites)
                .copied()
                .collect();
            let mut relinked = regrouped.clone();
            for (src, _) in applied.links_added.iter().chain(&applied.links_removed) {
                let s = new.site_of(*src).index();
                if s < g.n_sites() {
                    relinked.insert(s);
                }
            }
            assert_eq!(
                unshared(&g, &new),
                (relinked.clone(), regrouped),
                "step {step}"
            );
            removals += usize::from(!applied.removed_docs.is_empty());
            noop_steps += usize::from(relinked.is_empty());
            g = new;
        }
        // The stream really mixed: removals happened, and some steps
        // touched nothing (pure no-op rewires share every block).
        assert!(removals >= 60, "{removals} removal steps");
        assert!(noop_steps >= 1, "{noop_steps} no-op steps");
        assert!(g.n_sites() > 10 && g.n_live_sites() < g.n_sites());
    }

    #[test]
    fn removing_a_page_rebuilds_the_block_that_linked_it() {
        // a.org's page a1 has exactly one in-link, from c.org; b.org is a
        // bystander.
        let mut b = DocGraphBuilder::new();
        let a0 = b.add_doc("a.org", "http://a.org/");
        let a1 = b.add_doc("a.org", "http://a.org/1");
        let b0 = b.add_doc("b.org", "http://b.org/");
        let b1 = b.add_doc("b.org", "http://b.org/1");
        let c0 = b.add_doc("c.org", "http://c.org/");
        let c1 = b.add_doc("c.org", "http://c.org/1");
        for (from, to) in [(a0, b0), (b0, b1), (b1, a0), (c0, a1), (c0, c1), (c1, c0)] {
            b.add_link(from, to).unwrap();
        }
        let g = b.build();
        let mut d = GraphDelta::for_graph(&g);
        d.remove_page(a1).unwrap();
        let (h, applied) = g.apply(&d).unwrap();
        assert_eq!(applied.links_removed, vec![(c0, a1)]);
        assert_eq!(applied.shrunk_sites, vec![0]);
        assert_eq!(h.out_links(c0), &[c1.index()]);
        assert_eq!(h.n_links(), 5);
        // a.org lost a member (new list, new block); c.org only lost a link
        // (new block, same list); b.org is untouched.
        assert_eq!(
            unshared(&g, &h),
            (BTreeSet::from([0, 2]), BTreeSet::from([0]))
        );
    }

    #[test]
    fn noop_and_name_free_deltas_share_everything() {
        let g = base();
        let mut d = GraphDelta::for_graph(&g);
        d.add_link(DocId(0), DocId(1)).unwrap(); // already present
        d.remove_link(DocId(1), DocId(0)).unwrap(); // absent
        let (h, _) = g.apply(&d).unwrap();
        assert_eq!(unshared(&g, &h), (BTreeSet::new(), BTreeSet::new()));
        // No site added: the name table is the same segment, not a copy.
        assert_eq!(h.site_names, g.site_names);
        assert_eq!(
            h.site_name(SiteId(1)).as_ptr(),
            g.site_name(SiteId(1)).as_ptr()
        );
    }
}
