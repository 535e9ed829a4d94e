//! The document-level web graph `G_D(V_D, E_D)` of Section 3.1.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::error::{GraphError, Result};
use crate::ids::{DocId, SiteId};
use crate::remap::IdRemap;
use lmm_linalg::{CooMatrix, CsrMatrix};

/// Classification of a generated or crawled page, used as ground truth by
/// the evaluation harness (the paper's Figures 3/4 distinguish authoritative
/// root pages from spam-cluster pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageKind {
    /// An ordinary content page.
    #[default]
    Regular,
    /// The root / home page of its site (an "authoritative" page in the
    /// paper's qualitative reading of Figure 4).
    SiteRoot,
    /// A member of a densely self-linked agglomerate (the paper's javadoc /
    /// `Webdriver?` clusters) — the structures that hijack flat PageRank.
    SpamFarm,
}

impl PageKind {
    /// Single-character tag used by the snapshot format.
    #[must_use]
    pub fn tag(self) -> char {
        match self {
            PageKind::Regular => 'R',
            PageKind::SiteRoot => 'O',
            PageKind::SpamFarm => 'S',
        }
    }

    /// Parses the snapshot tag.
    #[must_use]
    pub fn from_tag(c: char) -> Option<Self> {
        match c {
            'R' => Some(PageKind::Regular),
            'O' => Some(PageKind::SiteRoot),
            'S' => Some(PageKind::SpamFarm),
            _ => None,
        }
    }
}

/// Append-friendly copy-on-write column: a sequence of immutable `Arc`
/// segments. [`DocGraph::apply`](crate::delta::GraphDelta) clones the
/// segment *pointers* and pushes one new segment per delta, so append-only
/// deltas pay O(delta + segments) instead of O(n_docs) per apply.
///
/// Lookups binary-search the (tiny) offset table; iteration chains the
/// segments in order.
#[derive(Debug)]
pub(crate) struct CowColumn<T> {
    segments: Vec<Arc<Vec<T>>>,
    /// Cumulative segment starts; `offsets.len() == segments.len() + 1`,
    /// first entry 0, last entry the column length.
    offsets: Vec<usize>,
}

impl<T> CowColumn<T> {
    pub(crate) fn from_vec(v: Vec<T>) -> Self {
        let len = v.len();
        if len == 0 {
            return Self {
                segments: Vec::new(),
                offsets: vec![0],
            };
        }
        Self {
            segments: vec![Arc::new(v)],
            offsets: vec![0, len],
        }
    }

    pub(crate) fn len(&self) -> usize {
        *self.offsets.last().expect("offsets are non-empty")
    }

    pub(crate) fn get(&self, i: usize) -> &T {
        let seg = self.offsets.partition_point(|&o| o <= i) - 1;
        &self.segments[seg][i - self.offsets[seg]]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.segments.iter().flat_map(|s| s.iter())
    }

    /// A new column sharing every existing segment plus `tail` appended.
    pub(crate) fn append(&self, tail: Vec<T>) -> Self {
        let mut col = self.clone();
        if !tail.is_empty() {
            col.offsets.push(col.len() + tail.len());
            col.segments.push(Arc::new(tail));
        }
        col
    }
}

// Manual impl: the derive would demand `T: Clone`, but cloning only copies
// the segment `Arc`s.
impl<T> Clone for CowColumn<T> {
    fn clone(&self) -> Self {
        Self {
            segments: self.segments.clone(),
            offsets: self.offsets.clone(),
        }
    }
}

impl<T: PartialEq> PartialEq for CowColumn<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

/// One site's out-link rows — the unit of link *state*, as the site is the
/// unit of rank state. Row `i` holds the out-links of the site's `i`-th
/// member as ascending global document ids; a block is immutable once built,
/// so [`DocGraph::apply`] shares the blocks of sites a delta does not touch
/// by `Arc`.
///
/// The block also carries its site's **SiteLink count row**: the ascending
/// `(target site, links)` pairs over all of its out-links, the intra-site
/// count included and zero counts never stored — the paper's SiteLink
/// multiplicities (Section 3.1), which is all the site layer reads.
/// [`DocGraphBuilder::build`] counts it while it fills the block,
/// [`DocGraph::compact_ids`] renumbers it, and `apply` patches it from the
/// per-site-pair net change of the delta instead of recounting.
#[derive(Debug, PartialEq)]
pub(crate) struct LinkBlock {
    /// Row starts; `row_ptr.len() == rows + 1`, first entry 0.
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    pub(crate) site_row: Vec<(usize, usize)>,
}

impl LinkBlock {
    pub(crate) fn with_capacity(rows: usize, links: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        Self {
            row_ptr,
            cols: Vec::with_capacity(links),
            site_row: Vec::new(),
        }
    }

    fn from_rows<'a>(
        rows: impl ExactSizeIterator<Item = &'a [usize]> + Clone,
        site_of: &[SiteId],
    ) -> Self {
        let links = rows.clone().map(<[usize]>::len).sum();
        let mut block = Self::with_capacity(rows.len(), links);
        for row in rows {
            block.push_row(row);
        }
        block.site_row = block.count_site_row(site_of);
        block
    }

    pub(crate) fn push_row(&mut self, cols: &[usize]) {
        self.cols.extend_from_slice(cols);
        self.row_ptr.push(self.cols.len());
    }

    /// Counts the SiteLink row from the block's links, O(links · log).
    pub(crate) fn count_site_row(&self, site_of: &[SiteId]) -> Vec<(usize, usize)> {
        let mut targets: Vec<usize> = self.cols.iter().map(|&c| site_of[c].index()).collect();
        targets.sort_unstable();
        let mut row: Vec<(usize, usize)> = Vec::new();
        for t in targets {
            match row.last_mut() {
                Some((site, links)) if *site == t => *links += 1,
                _ => row.push((t, 1)),
            }
        }
        row
    }

    fn row(&self, i: usize) -> &[usize] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    pub(crate) fn n_links(&self) -> usize {
        self.cols.len()
    }

    fn rows(&self) -> impl ExactSizeIterator<Item = &[usize]> {
        self.row_ptr.windows(2).map(|w| &self.cols[w[0]..w[1]])
    }
}

/// An immutable document-level web graph: documents with URLs, their owning
/// sites, and deduplicated hyperlink edges.
///
/// Links are stored the way the layered model partitions them: one
/// `Arc`-shared block of out-link rows per site, parallel to the member
/// lists. [`out_links`](Self::out_links), [`site_out_links`](Self::site_out_links)
/// and [`links`](Self::links) read the blocks directly;
/// [`adjacency`](Self::adjacency) is a derived whole-graph view for the
/// consumers that need one matrix. Each block also keeps its site's
/// SiteLink counts, maintained by [`apply`](Self::apply), so the site layer
/// ([`crate::sitegraph::SiteGraph::from_doc_graph`],
/// [`cross_site_links`](Self::cross_site_links)) costs O(sites +
/// SiteLinks), never a walk over the links.
///
/// Build one with [`DocGraphBuilder`] or generate one with
/// [`crate::generator`].
///
/// # Tombstones
///
/// Structural deltas can **remove** pages and sites
/// ([`crate::delta::GraphDelta::remove_page`] /
/// [`remove_site`](crate::delta::GraphDelta::remove_site)). Removal is
/// tombstone-based: the slot stays (so every surviving id keeps meaning
/// across deltas — the stability serving caches and delta-composed
/// fingerprints rely on), but the document leaves its site's member list
/// and every incident link is dropped. [`DocGraph::compact_ids`] is the
/// explicit maintenance step that densifies the id space, returning the
/// old→new [`IdRemap`].
#[derive(Debug, Clone)]
pub struct DocGraph {
    pub(crate) urls: CowColumn<String>,
    pub(crate) kinds: CowColumn<PageKind>,
    /// Site of every document slot. Shared by `Arc` with the serving
    /// snapshots of this graph version; [`apply`](Self::apply) copies it
    /// only when it appends pages.
    pub(crate) site_of: Arc<Vec<SiteId>>,
    pub(crate) site_names: CowColumn<String>,
    /// Live members of each site, ascending. Both the table and each list
    /// are shared: `apply` hands on the list of every site it leaves
    /// alone, and a serving snapshot of this version holds the table.
    pub(crate) site_members: Arc<Vec<Arc<[DocId]>>>,
    /// Out-link rows of each site, parallel to `site_members`: row `i` of
    /// block `s` belongs to `site_members[s][i]`. Tombstoned documents are
    /// in no member list, hence in no block. Block `s` also holds site
    /// `s`'s SiteLink count row.
    pub(crate) site_links: Vec<Arc<LinkBlock>>,
    pub(crate) n_links: usize,
    /// Tombstoned document ids, ascending (usually empty).
    pub(crate) dead_docs: Arc<Vec<DocId>>,
    /// Tombstoned site ids, ascending (usually empty).
    pub(crate) dead_sites: Arc<Vec<SiteId>>,
    /// The whole-graph CSR view behind [`DocGraph::adjacency`], built from
    /// the blocks on first use. One cell per graph version: clones share
    /// it, `apply` starts the mutated graph with a fresh one.
    pub(crate) flat: Arc<OnceLock<CsrMatrix>>,
}

impl PartialEq for DocGraph {
    fn eq(&self, other: &Self) -> bool {
        self.urls == other.urls
            && self.kinds == other.kinds
            && self.site_of == other.site_of
            && self.site_names == other.site_names
            && self.site_members == other.site_members
            && self.dead_docs == other.dead_docs
            && self.dead_sites == other.dead_sites
            && self.site_links == other.site_links
    }
}

/// An intra-site subgraph `G_d^s = (V_d(s), E_d(s))`: only the documents of
/// one site and the links between them (Section 3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSubgraph {
    /// Intra-site adjacency; dimension equals the number of member docs.
    pub adjacency: CsrMatrix,
    /// `members[local] = global` document ids, ascending.
    pub members: Vec<DocId>,
}

impl DocGraph {
    /// Number of document slots `N_D` (tombstoned slots included; see
    /// [`n_live_docs`](Self::n_live_docs)).
    #[must_use]
    pub fn n_docs(&self) -> usize {
        self.urls.len()
    }

    /// Number of site slots `N_S` (tombstoned slots included; see
    /// [`n_live_sites`](Self::n_live_sites)).
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.site_names.len()
    }

    /// Number of live (non-tombstoned) documents.
    #[must_use]
    pub fn n_live_docs(&self) -> usize {
        self.n_docs() - self.dead_docs.len()
    }

    /// Number of live (non-tombstoned) sites.
    #[must_use]
    pub fn n_live_sites(&self) -> usize {
        self.n_sites() - self.dead_sites.len()
    }

    /// `true` when any document or site slot is tombstoned.
    #[must_use]
    pub fn has_tombstones(&self) -> bool {
        !self.dead_docs.is_empty() || !self.dead_sites.is_empty()
    }

    /// Tombstoned document ids, ascending.
    #[must_use]
    pub fn dead_docs(&self) -> &[DocId] {
        &self.dead_docs
    }

    /// The tombstone table itself, for a consumer that keeps it (a serving
    /// snapshot); [`apply`](Self::apply) copies it only when it removes
    /// documents.
    #[must_use]
    pub fn shared_dead_docs(&self) -> &Arc<Vec<DocId>> {
        &self.dead_docs
    }

    /// Tombstoned site ids, ascending.
    #[must_use]
    pub fn dead_sites(&self) -> &[SiteId] {
        &self.dead_sites
    }

    /// `true` when `doc` is in range and not tombstoned.
    #[must_use]
    pub fn is_live_doc(&self, doc: DocId) -> bool {
        doc.index() < self.n_docs() && self.dead_docs.binary_search(&doc).is_err()
    }

    /// `true` when `site` is in range and not tombstoned.
    #[must_use]
    pub fn is_live_site(&self, site: SiteId) -> bool {
        site.index() < self.n_sites() && self.dead_sites.binary_search(&site).is_err()
    }

    /// Live site ids, ascending.
    pub fn live_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.n_sites())
            .map(SiteId)
            .filter(|&s| self.dead_sites.binary_search(&s).is_err())
    }

    /// Number of (deduplicated) hyperlink edges.
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// URL of a document.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn url(&self, doc: DocId) -> &str {
        self.urls.get(doc.index())
    }

    /// Page classification of a document.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn kind(&self, doc: DocId) -> PageKind {
        *self.kinds.get(doc.index())
    }

    /// The owning site of a document (the paper's `site(d)`). Tombstoned
    /// documents keep their last site assignment, so removed ids still
    /// route (e.g. to the shard that must answer "gone").
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn site_of(&self, doc: DocId) -> SiteId {
        self.site_of[doc.index()]
    }

    /// Site assignments for all documents, indexed by document id.
    #[must_use]
    pub fn site_assignments(&self) -> &[SiteId] {
        &self.site_of
    }

    /// The assignment table itself, for a consumer that keeps it (a
    /// serving snapshot) without copying O(docs) ids per graph version.
    #[must_use]
    pub fn shared_site_assignments(&self) -> &Arc<Vec<SiteId>> {
        &self.site_of
    }

    /// Every site's member list (see [`docs_of_site`](Self::docs_of_site)),
    /// shared: a site that [`apply`](Self::apply) left alone keeps the very
    /// list of the base graph, so `Arc::ptr_eq` tells it from a rebuilt one.
    #[must_use]
    pub fn shared_members(&self) -> &Arc<Vec<Arc<[DocId]>>> {
        &self.site_members
    }

    /// Host name of a site.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn site_name(&self, site: SiteId) -> &str {
        self.site_names.get(site.index())
    }

    /// Live documents of a site (ascending ids) — the paper's `V_d(s)`.
    /// Empty for a tombstoned site.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn docs_of_site(&self, site: SiteId) -> &[DocId] {
        &self.site_members[site.index()]
    }

    /// Size of a site, `size(s)` — live members only.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn site_size(&self, site: SiteId) -> usize {
        self.site_members[site.index()].len()
    }

    /// Out-links of a document: ascending ids of the documents it links
    /// to. Empty for a tombstoned document. O(log size of its site).
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn out_links(&self, doc: DocId) -> &[usize] {
        let site = self.site_of[doc.index()].index();
        match self.site_members[site].binary_search(&doc) {
            Ok(row) => self.site_links[site].row(row),
            Err(_) => &[],
        }
    }

    /// The live documents of a site (ascending) paired with their out-links
    /// — one site's link block, read in place. Walking every site this way
    /// visits each link once, grouped by site rather than in id order;
    /// order-free whole-graph passes (sums, counts, hashes) should use it
    /// instead of [`adjacency`](Self::adjacency).
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    pub fn site_out_links(&self, site: SiteId) -> impl Iterator<Item = (DocId, &[usize])> + '_ {
        let members = self.site_members[site.index()].iter().copied();
        members.zip(self.site_links[site.index()].rows())
    }

    /// The deduplicated 0/1 adjacency matrix of the DocGraph. Tombstoned
    /// documents have empty rows and appear in no column.
    ///
    /// This is a **derived view**: the first call on a graph version
    /// materializes the matrix from the per-site link blocks in
    /// O(docs + links) and caches it (clones of the graph share the cache;
    /// [`apply`](Self::apply) never builds it). It is for consumers that
    /// need the whole matrix — flat PageRank, HITS, the simulated P2P
    /// baseline. Per-document and per-site readers should use
    /// [`out_links`](Self::out_links), [`site_out_links`](Self::site_out_links)
    /// or [`links`](Self::links), which cost nothing up front.
    #[must_use]
    pub fn adjacency(&self) -> &CsrMatrix {
        self.flat.get_or_init(|| {
            let n = self.n_docs();
            let mut row_ptr = Vec::with_capacity(n + 1);
            row_ptr.push(0);
            let mut col_idx = Vec::with_capacity(self.n_links);
            for doc in 0..n {
                col_idx.extend_from_slice(self.out_links(DocId(doc)));
                row_ptr.push(col_idx.len());
            }
            let values = vec![1.0f64; col_idx.len()];
            CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, values)
                .expect("link blocks hold sorted, in-range rows (apply checks every patched row)")
        })
    }

    /// `true` once [`adjacency`](Self::adjacency) has materialized the flat
    /// view of this graph version (test probe: the write path must not).
    #[doc(hidden)]
    #[must_use]
    pub fn flat_view_is_built(&self) -> bool {
        self.flat.get().is_some()
    }

    /// Out-degree of a document.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn out_degree(&self, doc: DocId) -> usize {
        self.out_links(doc).len()
    }

    /// In-degrees of all documents (one pass over the edges).
    #[must_use]
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n_docs()];
        for block in &self.site_links {
            for &dst in &block.cols {
                deg[dst] += 1;
            }
        }
        deg
    }

    /// `true` for documents labeled as spam-farm members, indexed by doc id.
    #[must_use]
    pub fn spam_labels(&self) -> Vec<bool> {
        self.kinds
            .iter()
            .map(|&k| k == PageKind::SpamFarm)
            .collect()
    }

    /// Extracts the intra-site subgraph `G_d^s` of one site: member
    /// documents and the links whose both endpoints belong to the site.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn site_subgraph(&self, site: SiteId) -> SiteSubgraph {
        let members: &[DocId] = &self.site_members[site.index()];
        let mut local_of: HashMap<usize, usize> = HashMap::with_capacity(members.len());
        for (local, d) in members.iter().enumerate() {
            local_of.insert(d.index(), local);
        }
        let mut coo = CooMatrix::new(members.len(), members.len());
        for (local, (_, row)) in self.site_out_links(site).enumerate() {
            for dst in row {
                if let Some(&dst_local) = local_of.get(dst) {
                    coo.push(local, dst_local, 1.0);
                }
            }
        }
        SiteSubgraph {
            adjacency: coo.to_csr(),
            members: members.to_vec(),
        }
    }

    /// Counts the links that cross site boundaries: a sum over the SiteLink
    /// count rows, O(sites + SiteLinks).
    #[must_use]
    pub fn cross_site_links(&self) -> usize {
        let mut crossing = 0;
        for (s, block) in self.site_links.iter().enumerate() {
            let leaves = block.site_row.iter().filter(|&&(t, _)| t != s);
            crossing += leaves.map(|&(_, links)| links).sum::<usize>();
        }
        crossing
    }

    /// A site's SiteLink count row: ascending `(target site, links)` pairs
    /// over its out-links, intra-site count included, no zeros.
    pub(crate) fn site_link_row(&self, site: SiteId) -> &[(usize, usize)] {
        &self.site_links[site.index()].site_row
    }

    /// `true` when `other` holds the very allocations of this graph's
    /// member list and link block for `site` — what [`apply`](Self::apply)
    /// hands on for every site a delta leaves alone. Shared state is equal
    /// state, so a caller comparing the two graphs site by site may skip
    /// such a site; `false` (including for an id out of either graph's
    /// range) says nothing either way.
    #[must_use]
    pub fn shares_site(&self, other: &DocGraph, site: SiteId) -> bool {
        let s = site.index();
        match (self.site_links.get(s), other.site_links.get(s)) {
            (Some(a), Some(b)) => {
                Arc::ptr_eq(a, b) && Arc::ptr_eq(&self.site_members[s], &other.site_members[s])
            }
            _ => false,
        }
    }

    /// Iterates over all `(from, to)` document links, ascending by source
    /// then destination (the order snapshot files are written in). Costs one
    /// O(log site size) row lookup per document; passes that do not need
    /// the order should walk [`site_out_links`](Self::site_out_links).
    pub fn links(&self) -> impl Iterator<Item = (DocId, DocId)> + '_ {
        (0..self.n_docs()).flat_map(move |src| {
            let row = self.out_links(DocId(src));
            row.iter().map(move |&dst| (DocId(src), DocId(dst)))
        })
    }

    /// Densifies the id space: drops every tombstoned document and site
    /// slot, renumbering survivors in order, and returns the compacted
    /// graph together with the old→new [`IdRemap`].
    ///
    /// This is the explicit maintenance step that trades id stability for
    /// a dense graph (flat baselines, snapshots, and rebalancing want
    /// density; live delta streams want stability). On a graph without
    /// tombstones it returns a clone and the identity remap.
    #[must_use]
    pub fn compact_ids(&self) -> (DocGraph, IdRemap) {
        if !self.has_tombstones() {
            return (
                self.clone(),
                IdRemap::identity(self.n_docs(), self.n_sites()),
            );
        }
        let mut next = 0usize;
        let doc_map: Vec<Option<DocId>> = (0..self.n_docs())
            .map(|d| {
                self.is_live_doc(DocId(d)).then(|| {
                    let id = DocId(next);
                    next += 1;
                    id
                })
            })
            .collect();
        let mut next_site = 0usize;
        let site_map: Vec<Option<SiteId>> = (0..self.n_sites())
            .map(|s| {
                self.is_live_site(SiteId(s)).then(|| {
                    let id = SiteId(next_site);
                    next_site += 1;
                    id
                })
            })
            .collect();

        let mut urls = Vec::with_capacity(next);
        let mut kinds = Vec::with_capacity(next);
        let mut site_of = Vec::with_capacity(next);
        for (d, mapped) in doc_map.iter().enumerate() {
            if mapped.is_some() {
                urls.push(self.urls.get(d).clone());
                kinds.push(*self.kinds.get(d));
                site_of.push(
                    site_map[self.site_of[d].index()].expect(
                        "a live document always belongs to a live site (apply enforces it)",
                    ),
                );
            }
        }
        // Survivors keep their relative order, so member lists and link
        // rows stay sorted under the renumbering.
        let mut site_names = Vec::with_capacity(next_site);
        let mut site_members = Vec::with_capacity(next_site);
        let mut site_links = Vec::with_capacity(next_site);
        for (s, mapped) in site_map.iter().enumerate() {
            if mapped.is_none() {
                continue;
            }
            site_names.push(self.site_names.get(s).clone());
            let mut members = Vec::with_capacity(self.site_members[s].len());
            let mut block =
                LinkBlock::with_capacity(members.capacity(), self.site_links[s].n_links());
            let mut remapped = Vec::new();
            for (d, row) in self.site_out_links(SiteId(s)) {
                members.push(doc_map[d.index()].expect("members are live"));
                remapped.clear();
                remapped.extend(
                    row.iter()
                        .map(|&c| doc_map[c].expect("no live row links a dead column").index()),
                );
                block.push_row(&remapped);
            }
            // A live row names only live sites, and survivors keep their
            // order, so the counts carry over renumbered and still sorted.
            block.site_row = self
                .site_link_row(SiteId(s))
                .iter()
                .map(|&(t, links)| {
                    let t = site_map[t].expect("live rows name only live sites");
                    (t.index(), links)
                })
                .collect();
            site_members.push(Arc::from(members));
            site_links.push(Arc::new(block));
        }
        let compacted = DocGraph {
            urls: CowColumn::from_vec(urls),
            kinds: CowColumn::from_vec(kinds),
            site_of: Arc::new(site_of),
            site_names: CowColumn::from_vec(site_names),
            site_members: Arc::new(site_members),
            site_links,
            n_links: self.n_links,
            dead_docs: Arc::new(Vec::new()),
            dead_sites: Arc::new(Vec::new()),
            flat: Arc::default(),
        };
        (compacted, IdRemap::new(doc_map, site_map))
    }
}

/// Incremental builder for [`DocGraph`].
///
/// Sites are interned by name on first use; duplicate links collapse to one
/// edge at [`DocGraphBuilder::build`] time (the standard web-graph
/// convention: multiple anchor tags between the same pair of pages count
/// once for PageRank, while the SiteGraph counts *distinct document pairs*).
///
/// # Example
/// ```
/// use lmm_graph::docgraph::DocGraphBuilder;
/// # fn main() -> Result<(), lmm_graph::GraphError> {
/// let mut b = DocGraphBuilder::new();
/// let home = b.add_doc("www.x.org", "http://www.x.org/");
/// let page = b.add_doc("www.x.org", "http://www.x.org/a.html");
/// b.add_link(home, page)?;
/// b.add_link(home, page)?; // duplicate, collapses
/// let g = b.build();
/// assert_eq!(g.n_links(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DocGraphBuilder {
    urls: Vec<String>,
    kinds: Vec<PageKind>,
    site_of: Vec<SiteId>,
    site_names: Vec<String>,
    site_index: HashMap<String, SiteId>,
    edges: Vec<(DocId, DocId)>,
}

impl DocGraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with edge capacity preallocated.
    #[must_use]
    pub fn with_capacity(docs: usize, edges: usize) -> Self {
        Self {
            urls: Vec::with_capacity(docs),
            kinds: Vec::with_capacity(docs),
            site_of: Vec::with_capacity(docs),
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Interns a site by name, returning its id.
    pub fn site(&mut self, name: &str) -> SiteId {
        if let Some(&id) = self.site_index.get(name) {
            return id;
        }
        let id = SiteId(self.site_names.len());
        self.site_names.push(name.to_string());
        self.site_index.insert(name.to_string(), id);
        id
    }

    /// Adds a regular document belonging to `site_name`.
    pub fn add_doc(&mut self, site_name: &str, url: &str) -> DocId {
        self.add_doc_with_kind(site_name, url, PageKind::Regular)
    }

    /// Adds a document with an explicit [`PageKind`] label.
    pub fn add_doc_with_kind(&mut self, site_name: &str, url: &str, kind: PageKind) -> DocId {
        let site = self.site(site_name);
        let id = DocId(self.urls.len());
        self.urls.push(url.to_string());
        self.kinds.push(kind);
        self.site_of.push(site);
        id
    }

    /// Adds a document, deriving its site from the URL's host
    /// (see [`crate::url::host_of`]).
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidConfig`] when the URL has no host.
    // lint: allow(dead_pub, "paper §3.1: a site is the pages of one host; entry for real crawls")
    pub fn add_url(&mut self, url: &str) -> Result<DocId> {
        let host = crate::url::host_of(url).ok_or_else(|| GraphError::InvalidConfig {
            reason: format!("url {url:?} has no host"),
        })?;
        Ok(self.add_doc(&host, url))
    }

    /// Number of documents added so far.
    #[must_use]
    pub fn n_docs(&self) -> usize {
        self.urls.len()
    }

    /// Records a hyperlink between two previously added documents.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownDoc`] when either endpoint was never
    /// added.
    pub fn add_link(&mut self, from: DocId, to: DocId) -> Result<()> {
        let n = self.urls.len();
        for d in [from, to] {
            if d.index() >= n {
                return Err(GraphError::UnknownDoc {
                    doc: d.index(),
                    n_docs: n,
                });
            }
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Reconstructs a builder from an existing graph, so callers can apply
    /// edits (recrawls, link additions/removals) and rebuild — the workflow
    /// behind incremental rank maintenance.
    ///
    /// # Panics
    /// Panics on a tombstoned graph: the builder's dense id space cannot
    /// represent dead slots — [`DocGraph::compact_ids`] first.
    #[must_use]
    pub fn from_graph(graph: &DocGraph) -> Self {
        assert!(
            !graph.has_tombstones(),
            "DocGraphBuilder::from_graph needs a dense graph; call compact_ids() first"
        );
        let mut builder = Self::with_capacity(graph.n_docs(), graph.n_links());
        // Intern sites in id order so ids are preserved.
        for s in 0..graph.n_sites() {
            builder.site(graph.site_name(SiteId(s)));
        }
        for d in 0..graph.n_docs() {
            let doc = DocId(d);
            builder.add_doc_with_kind(
                graph.site_name(graph.site_of(doc)),
                graph.url(doc),
                graph.kind(doc),
            );
        }
        builder.edges.extend(graph.links());
        builder
    }

    /// Removes every recorded link between `from` and `to` (directed).
    /// Returns the number of removed link records.
    pub fn remove_link(&mut self, from: DocId, to: DocId) -> usize {
        let before = self.edges.len();
        self.edges.retain(|&(f, t)| !(f == from && t == to));
        before - self.edges.len()
    }

    /// Finalizes the graph: deduplicates edges and freezes the site index.
    #[must_use]
    pub fn build(self) -> DocGraph {
        let n = self.urls.len();
        let mut coo = CooMatrix::with_capacity(n, n, self.edges.len());
        for (from, to) in &self.edges {
            coo.push(from.index(), to.index(), 1.0);
        }
        // Sorted rows with duplicate links collapsed, then dealt out to
        // their sites, each block counting its SiteLink row as it fills.
        let rows = coo.to_csr();
        let mut site_members = vec![Vec::new(); self.site_names.len()];
        for (doc, site) in self.site_of.iter().enumerate() {
            site_members[site.index()].push(DocId(doc));
        }
        let site_links = site_members
            .iter()
            .map(|members| {
                let rows = members.iter().map(|d| rows.row(d.index()).0);
                Arc::new(LinkBlock::from_rows(rows, &self.site_of))
            })
            .collect();
        DocGraph {
            urls: CowColumn::from_vec(self.urls),
            kinds: CowColumn::from_vec(self.kinds),
            site_of: Arc::new(self.site_of),
            site_names: CowColumn::from_vec(self.site_names),
            site_members: Arc::new(site_members.into_iter().map(Arc::from).collect()),
            site_links,
            n_links: rows.nnz(),
            dead_docs: Arc::new(Vec::new()),
            dead_sites: Arc::new(Vec::new()),
            flat: Arc::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_site_graph() -> DocGraph {
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
    fn counts() {
        let g = two_site_graph();
        assert_eq!(g.n_docs(), 5);
        assert_eq!(g.n_sites(), 2);
        assert_eq!(g.n_links(), 6);
        assert_eq!(g.cross_site_links(), 2);
        assert_eq!(g.n_live_docs(), 5);
        assert_eq!(g.n_live_sites(), 2);
        assert!(!g.has_tombstones());
    }

    #[test]
    fn site_interning_reuses_ids() {
        let mut b = DocGraphBuilder::new();
        let s1 = b.site("x.org");
        let s2 = b.site("x.org");
        assert_eq!(s1, s2);
        let d = b.add_doc("x.org", "http://x.org/");
        assert_eq!(b.n_docs(), 1);
        let g = b.build();
        assert_eq!(g.site_of(d), s1);
    }

    #[test]
    fn duplicate_links_collapse() {
        let mut b = DocGraphBuilder::new();
        let d0 = b.add_doc("x", "u0");
        let d1 = b.add_doc("x", "u1");
        b.add_link(d0, d1).unwrap();
        b.add_link(d0, d1).unwrap();
        b.add_link(d0, d1).unwrap();
        let g = b.build();
        assert_eq!(g.n_links(), 1);
        assert_eq!(g.adjacency().get(0, 1), 1.0);
    }

    #[test]
    fn unknown_doc_rejected() {
        let mut b = DocGraphBuilder::new();
        let d0 = b.add_doc("x", "u0");
        assert!(matches!(
            b.add_link(d0, DocId(5)),
            Err(GraphError::UnknownDoc { doc: 5, .. })
        ));
    }

    #[test]
    fn add_url_derives_site() {
        let mut b = DocGraphBuilder::new();
        let d = b.add_url("http://Sub.Host.org/page").unwrap();
        let g = b.build();
        assert_eq!(g.site_name(g.site_of(d)), "sub.host.org");
    }

    #[test]
    fn add_url_rejects_hostless() {
        let mut b = DocGraphBuilder::new();
        assert!(b.add_url("http://").is_err());
    }

    #[test]
    fn site_subgraph_restricts_edges() {
        let g = two_site_graph();
        let sub = g.site_subgraph(SiteId(0));
        assert_eq!(sub.members, vec![DocId(0), DocId(1), DocId(2)]);
        // Only the 3-cycle inside a.org survives; the a2 -> b0 edge is cut.
        assert_eq!(sub.adjacency.nnz(), 3);
        let sub_b = g.site_subgraph(SiteId(1));
        assert_eq!(sub_b.members, vec![DocId(3), DocId(4)]);
        assert_eq!(sub_b.adjacency.nnz(), 1);
    }

    #[test]
    fn degrees() {
        let g = two_site_graph();
        assert_eq!(g.out_degree(DocId(2)), 2);
        let indeg = g.in_degrees();
        assert_eq!(indeg[0], 2); // a0 <- a2, b1
        assert_eq!(indeg[3], 1); // b0 <- a2
    }

    #[test]
    fn spam_labels_default_false() {
        let g = two_site_graph();
        assert!(g.spam_labels().iter().all(|&s| !s));
        assert_eq!(g.kind(DocId(0)), PageKind::SiteRoot);
        assert_eq!(g.kind(DocId(1)), PageKind::Regular);
    }

    #[test]
    fn page_kind_tags_roundtrip() {
        for k in [PageKind::Regular, PageKind::SiteRoot, PageKind::SpamFarm] {
            assert_eq!(PageKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(PageKind::from_tag('x'), None);
    }

    #[test]
    fn docs_of_site_ascending() {
        let g = two_site_graph();
        let docs = g.docs_of_site(SiteId(0));
        assert!(docs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(g.site_size(SiteId(1)), 2);
    }

    #[test]
    fn links_iterator_matches_adjacency() {
        let g = two_site_graph();
        assert_eq!(g.links().count(), g.n_links());
        // Ascending by (source, destination), like the matrix's own order.
        let from_matrix: Vec<_> = g.adjacency().iter().map(|(s, d, _)| (s, d)).collect();
        let listed: Vec<_> = g.links().map(|(s, d)| (s.index(), d.index())).collect();
        assert_eq!(listed, from_matrix);
    }

    #[test]
    fn block_reads_agree_with_the_flat_view() {
        let g = two_site_graph();
        assert_eq!(g.out_links(DocId(2)), &[0, 3]);
        let rows: Vec<_> = g.site_out_links(SiteId(1)).collect();
        assert_eq!(rows, vec![(DocId(3), &[4][..]), (DocId(4), &[0][..])]);
        for d in 0..g.n_docs() {
            assert_eq!(g.out_links(DocId(d)), g.adjacency().row(d).0);
        }
    }

    #[test]
    fn flat_view_is_lazy_and_shared_by_clones() {
        let g = two_site_graph();
        assert!(!g.flat_view_is_built());
        // Block readers leave it unbuilt.
        let _ = (g.in_degrees(), g.cross_site_links(), g.links().count());
        let _ = g.site_subgraph(SiteId(0));
        assert!(!g.flat_view_is_built());
        // A clone taken before or after the first call shares the one view.
        let early = g.clone();
        let view: *const CsrMatrix = g.adjacency();
        assert!(g.flat_view_is_built() && early.flat_view_is_built());
        assert!(std::ptr::eq(view, early.adjacency()));
        assert!(std::ptr::eq(view, g.clone().adjacency()));
    }

    #[test]
    fn from_graph_roundtrips() {
        let g = two_site_graph();
        let rebuilt = DocGraphBuilder::from_graph(&g).build();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn from_graph_allows_edits() {
        let g = two_site_graph();
        let mut b = DocGraphBuilder::from_graph(&g);
        let removed = b.remove_link(DocId(0), DocId(1));
        assert_eq!(removed, 1);
        b.add_link(DocId(1), DocId(0)).unwrap();
        let edited = b.build();
        assert_eq!(edited.n_links(), g.n_links()); // one removed, one added
        assert_eq!(edited.adjacency().get(0, 1), 0.0);
        assert_eq!(edited.adjacency().get(1, 0), 1.0);
        // Site structure is preserved.
        assert_eq!(edited.n_sites(), g.n_sites());
        assert_eq!(edited.site_name(SiteId(0)), g.site_name(SiteId(0)));
    }

    #[test]
    fn remove_link_missing_is_zero() {
        let g = two_site_graph();
        let mut b = DocGraphBuilder::from_graph(&g);
        assert_eq!(b.remove_link(DocId(4), DocId(4)), 0);
    }

    #[test]
    fn cow_column_appends_share_segments() {
        let base = CowColumn::from_vec(vec![1, 2, 3]);
        let grown = base.append(vec![4, 5]);
        assert_eq!(grown.len(), 5);
        assert_eq!(*grown.get(0), 1);
        assert_eq!(*grown.get(4), 5);
        assert_eq!(
            grown.iter().copied().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        // The first segment is shared, not cloned.
        assert!(Arc::ptr_eq(&base.segments[0], &grown.segments[0]));
        // Empty appends add no segment.
        let same = base.append(Vec::new());
        assert_eq!(same.segments.len(), base.segments.len());
        assert_eq!(base, base.clone());
    }

    #[test]
    fn compact_ids_on_dense_graph_is_identity() {
        let g = two_site_graph();
        let (dense, remap) = g.compact_ids();
        assert_eq!(dense, g);
        assert!(remap.is_identity());
    }
}
