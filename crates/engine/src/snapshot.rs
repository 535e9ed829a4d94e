//! Immutable rank snapshots — the hand-off unit between the engine and the
//! sharded serving tier (`lmm-serve`).
//!
//! Every fresh computation ([`RankEngine::rank`](crate::RankEngine::rank)
//! on a changed graph, or
//! [`RankEngine::apply_delta`](crate::RankEngine::apply_delta)) advances a
//! monotone **epoch** and produces a new [`RankSnapshot`]: the score
//! vector, the site layer, and the membership tables behind `Arc`s, plus a
//! [`Staleness`] record naming what changed since the previous epoch.
//! Building one copies nothing: the scores and the site layer are the
//! engine outcome's own buffers, and the membership tables are the
//! graph's own — one `Arc` per site member list, so a site a delta left
//! alone keeps the very list of the previous epoch
//! (lmm-serve's `unnamed_sites_share_their_buffers_at_every_layer`
//! holds both with `Arc::ptr_eq` over a churn stream). A
//! serving tier pins a snapshot, answers every query of one response from
//! that single pin, and uses the staleness set to rebuild only the shards
//! a delta actually touched — everything else re-pins its existing
//! per-shard structures against the new epoch.
//!
//! The staleness contract is strict so re-pinning is sound: a site **not**
//! named by [`Staleness::Sites`] kept the scores of all its documents (and
//! its member list) *bit-identical* to the previous epoch — untouched
//! sites reuse their local vectors and the SiteRank weight they are scaled
//! by. An update that recomputes the SiteRank reports
//! [`Staleness::Resized`]: an unnamed site keeps its local vector, so its
//! scores are rescaled by one positive weight and its order survives.
//! Only a from-scratch [`RankEngine::rank`](crate::RankEngine::rank)
//! reports [`Staleness::Full`].

use std::sync::Arc;

use lmm_graph::{DocId, SiteId};

/// What changed between a snapshot and its predecessor (epoch − 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Staleness {
    /// Everything may have moved: a from-scratch computation (the first
    /// ranking, or a re-rank after the cache was invalidated or the graph
    /// was replaced), which gives no per-site accounting.
    Full,
    /// Only the named sites' documents changed (sorted, deduplicated);
    /// every other site's scores and membership are bit-identical to the
    /// previous epoch. An empty list means the ranking is unchanged (e.g.
    /// a no-op delta) even though the epoch advanced.
    Sites(Vec<usize>),
    /// The SiteRank was recomputed (cross-site link counts changed, sites
    /// were appended or removed, or a self-loop site graph saw an
    /// intra-site change). The named `sites` (sorted) and `removed_sites`
    /// changed **membership or within-site order** and must be rebuilt.
    /// Every *other* live site kept its member list and its within-site
    /// serving order (its local vector is untouched), but its absolute
    /// scores were rescaled by its new SiteRank weight — so per-site
    /// orderings survive a cheap refresh while any cached absolute score
    /// or cross-site interleaving must be re-derived from this snapshot.
    Resized {
        /// Live sites whose membership or local ordering changed — grown,
        /// shrunk, changed, and appended live sites (sorted,
        /// deduplicated).
        sites: Vec<usize>,
        /// Sites tombstoned by this epoch (sorted), slots appended dead by
        /// a cancelled same-delta addition included; their documents are
        /// gone and point lookups for them must fail typed.
        removed_sites: Vec<usize>,
    },
}

/// One immutable, cheaply clonable ranking epoch: everything a serving
/// tier needs to answer `score` / `top_k` / `top_k_for_site` queries
/// without touching the engine again.
#[derive(Debug, Clone)]
pub struct RankSnapshot {
    epoch: u64,
    backend: String,
    scores: Arc<Vec<f64>>,
    site_rank: Option<Arc<Vec<f64>>>,
    site_members: Arc<Vec<Arc<[DocId]>>>,
    site_of: Arc<Vec<SiteId>>,
    dead_docs: Arc<Vec<DocId>>,
    staleness: Staleness,
}

impl RankSnapshot {
    /// Assembles a snapshot. Used by the engine; external `Ranker`
    /// implementations normally receive snapshots rather than build them.
    ///
    /// `dead_docs` is the graph's tombstone table (ascending), the dead
    /// slots [`export_segment`](Self::export_segment) ships; the engine
    /// passes the graph's own table, so a snapshot holds it without a
    /// copy.
    // Each argument is one of the graph's or the outcome's shared tables;
    // bundling them would only rename the list.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        epoch: u64,
        backend: String,
        scores: Arc<Vec<f64>>,
        site_rank: Option<Arc<Vec<f64>>>,
        site_members: Arc<Vec<Arc<[DocId]>>>,
        site_of: Arc<Vec<SiteId>>,
        dead_docs: Arc<Vec<DocId>>,
        staleness: Staleness,
    ) -> Self {
        debug_assert_eq!(scores.len(), site_of.len());
        Self {
            epoch,
            backend,
            scores,
            site_rank,
            site_members,
            site_of,
            dead_docs,
            staleness,
        }
    }

    /// Monotone snapshot epoch (1 is the first computed ranking).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Name of the backend that produced the ranking.
    #[must_use]
    pub fn backend(&self) -> &str {
        &self.backend
    }

    /// Number of ranked documents.
    #[must_use]
    pub fn n_docs(&self) -> usize {
        self.scores.len()
    }

    /// Number of sites.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.site_members.len()
    }

    /// Number of live (non-tombstoned) documents at this epoch — one pass
    /// over the member lists.
    #[must_use]
    pub fn n_live_docs(&self) -> usize {
        self.site_members.iter().map(|m| m.len()).sum()
    }

    /// The global score vector, indexed by `DocId`.
    #[must_use]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The SiteRank vector, when the backend computed a site layer.
    #[must_use]
    pub fn site_rank(&self) -> Option<&[f64]> {
        self.site_rank.as_deref().map(Vec::as_slice)
    }

    /// Member documents of one site (empty slice for an unknown site).
    #[must_use]
    pub fn members_of_site(&self, site: SiteId) -> &[DocId] {
        self.site_members.get(site.index()).map_or(&[], |m| m)
    }

    /// Owning site of one document.
    ///
    /// # Panics
    /// Panics for a document outside this snapshot.
    #[must_use]
    pub fn site_of(&self, doc: DocId) -> SiteId {
        self.site_of[doc.index()]
    }

    /// Site assignments of every document, indexed by `DocId`.
    #[must_use]
    pub fn site_assignments(&self) -> &[SiteId] {
        &self.site_of
    }

    /// What changed since epoch − 1.
    #[must_use]
    pub fn staleness(&self) -> &Staleness {
        &self.staleness
    }

    /// `true` when `doc` is ranked live at this epoch: in range and still
    /// a member of its site. Tombstoned documents keep their slot (and
    /// their last site assignment, for routing) but leave the member list,
    /// so liveness is a binary search in the owning site's members.
    #[must_use]
    pub fn is_live_doc(&self, doc: DocId) -> bool {
        let Some(&site) = self.site_of.get(doc.index()) else {
            return false;
        };
        self.members_of_site(site).binary_search(&doc).is_ok()
    }

    /// `true` when `site` is in range and tombstoned (no members). Live
    /// sites are never empty, so emptiness is the tombstone marker.
    #[must_use]
    pub fn is_tombstoned_site(&self, site: SiteId) -> bool {
        site.index() < self.n_sites() && self.members_of_site(site).is_empty()
    }

    /// Exports the slice of this snapshot one shard needs: the member
    /// lists and scores of the sites in `sites`, plus the tombstoned
    /// document slots assigned to those sites, ascending. The segment is
    /// the unit a cluster controller stages to a shard node over the
    /// wire. It costs the covered sites' documents plus one pass over the
    /// tombstone table, never the whole id space.
    ///
    /// Sites beyond this snapshot's range contribute nothing (the range is
    /// clamped), so callers can pass a shard map's last-shard range
    /// extended past the site count without special-casing.
    #[must_use]
    pub fn export_segment(&self, sites: std::ops::Range<usize>) -> SnapshotSegment {
        let sites = sites.start.min(self.n_sites())..sites.end.min(self.n_sites());
        let members: Vec<Vec<DocId>> = sites
            .clone()
            .map(|s| self.site_members[s].to_vec())
            .collect();
        let member_scores: Vec<Vec<f64>> = members
            .iter()
            .map(|docs| docs.iter().map(|d| self.scores[d.index()]).collect())
            .collect();
        // The dead slots owned by the covered sites, in the tombstone
        // table's ascending order.
        let tombstoned: Vec<(DocId, SiteId)> = self
            .dead_docs
            .iter()
            .filter_map(|&doc| {
                let site = self.site_of[doc.index()];
                sites.contains(&site.index()).then_some((doc, site))
            })
            .collect();
        SnapshotSegment {
            epoch: self.epoch,
            backend: self.backend.clone(),
            sites,
            n_docs: self.n_docs(),
            n_sites: self.n_sites(),
            members,
            member_scores,
            tombstoned,
        }
    }
}

/// One shard's slice of a [`RankSnapshot`]: everything a remote shard
/// store needs to serve its site range at one epoch, in a flat,
/// wire-serializable shape (plain vectors, no `Arc` sharing).
///
/// Scores are carried as `f64` values and round-trip bit-exactly through
/// `to_bits`/`from_bits`, so a store rebuilt from a shipped segment is
/// *bitwise* identical to one built from the full snapshot — the property
/// the cluster tier's parity benches assert.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotSegment {
    /// The snapshot epoch the segment was cut from.
    pub epoch: u64,
    /// Name of the backend that produced the ranking.
    pub backend: String,
    /// The covered site-id range (clamped to the snapshot's site count).
    pub sites: std::ops::Range<usize>,
    /// Total documents of the source snapshot (the full id space, so the
    /// reconstruction can distinguish out-of-range ids from dead slots).
    pub n_docs: usize,
    /// Total sites of the source snapshot.
    pub n_sites: usize,
    /// Member documents per covered site (empty = tombstoned site).
    pub members: Vec<Vec<DocId>>,
    /// Scores parallel to `members`.
    pub member_scores: Vec<Vec<f64>>,
    /// Dead document slots assigned to covered sites, ascending, with their
    /// last site assignment. A store needs no entry for them: `n_docs`
    /// already tells a dead slot from an id that never existed.
    pub tombstoned: Vec<(DocId, SiteId)>,
}

impl SnapshotSegment {
    /// Live documents carried by this segment.
    #[must_use]
    pub fn n_live_docs(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(lists: Vec<Vec<DocId>>) -> Arc<Vec<Arc<[DocId]>>> {
        Arc::new(lists.into_iter().map(Arc::from).collect())
    }

    fn snapshot(staleness: Staleness) -> RankSnapshot {
        RankSnapshot::new(
            3,
            "test".into(),
            Arc::new(vec![0.25, 0.75]),
            None,
            members(vec![vec![DocId(0)], vec![DocId(1)]]),
            Arc::new(vec![SiteId(0), SiteId(1)]),
            Arc::default(),
            staleness,
        )
    }

    #[test]
    fn accessors_expose_the_pinned_data() {
        let s = snapshot(Staleness::Sites(vec![1]));
        assert_eq!(s.epoch(), 3);
        assert_eq!(s.backend(), "test");
        assert_eq!(s.n_docs(), 2);
        assert_eq!(s.n_sites(), 2);
        assert_eq!(s.scores(), &[0.25, 0.75]);
        assert_eq!(s.members_of_site(SiteId(1)), &[DocId(1)]);
        assert!(s.members_of_site(SiteId(9)).is_empty());
        assert_eq!(s.site_of(DocId(1)), SiteId(1));
        assert_eq!(s.staleness(), &Staleness::Sites(vec![1]));
    }

    #[test]
    fn liveness_follows_membership() {
        // Doc 1's slot exists but it left site 1's member list: tombstoned.
        let s = RankSnapshot::new(
            3,
            "test".into(),
            Arc::new(vec![0.6, 0.0, 0.4]),
            None,
            members(vec![vec![DocId(0)], Vec::new(), vec![DocId(2)]]),
            Arc::new(vec![SiteId(0), SiteId(1), SiteId(2)]),
            Arc::new(vec![DocId(1)]),
            Staleness::Resized {
                sites: vec![],
                removed_sites: vec![1],
            },
        );
        assert!(s.is_live_doc(DocId(0)));
        assert!(!s.is_live_doc(DocId(1)));
        assert!(!s.is_live_doc(DocId(9))); // out of range, not tombstoned
        assert!(s.is_tombstoned_site(SiteId(1)));
        assert!(!s.is_tombstoned_site(SiteId(0)));
        assert!(!s.is_tombstoned_site(SiteId(9)));
    }

    #[test]
    fn clones_share_storage() {
        let s = snapshot(Staleness::Full);
        let t = s.clone();
        assert!(std::ptr::eq(s.scores().as_ptr(), t.scores().as_ptr()));
    }

    /// 3 sites: {0,1}, {} (tombstoned, doc 2 dead), {3,4}.
    fn tombstoned_snapshot() -> RankSnapshot {
        RankSnapshot::new(
            5,
            "test".into(),
            Arc::new(vec![0.3, 0.2, 0.0, 0.4, 0.1]),
            None,
            members(vec![
                vec![DocId(0), DocId(1)],
                Vec::new(),
                vec![DocId(3), DocId(4)],
            ]),
            Arc::new(vec![SiteId(0), SiteId(0), SiteId(1), SiteId(2), SiteId(2)]),
            Arc::new(vec![DocId(2)]),
            Staleness::Full,
        )
    }

    #[test]
    fn segment_carries_the_covered_slice() {
        let s = tombstoned_snapshot();
        let seg = s.export_segment(1..3);
        assert_eq!(seg.epoch, 5);
        assert_eq!(seg.sites, 1..3);
        assert_eq!(seg.n_docs, 5);
        assert_eq!(seg.n_sites, 3);
        assert_eq!(seg.n_live_docs(), 2);
        assert_eq!(seg.members, vec![Vec::new(), vec![DocId(3), DocId(4)]]);
        assert_eq!(seg.member_scores, vec![Vec::new(), vec![0.4, 0.1]]);
        // Doc 2's slot is dead and owned by covered site 1.
        assert_eq!(seg.tombstoned, vec![(DocId(2), SiteId(1))]);
        // A segment of other sites does not carry it.
        assert!(s.export_segment(0..1).tombstoned.is_empty());
    }

    #[test]
    fn segment_range_is_clamped() {
        let s = tombstoned_snapshot();
        // The last shard's range is extended past the site count; the
        // export must clamp instead of panicking.
        let seg = s.export_segment(2..10);
        assert_eq!(seg.sites, 2..3);
        assert_eq!(seg.members.len(), 1);
    }

    /// The segment as it was cut before the tombstone table was shared: a
    /// walk over every document slot, keeping the dead ones assigned to a
    /// covered site. The reference the table filter must equal.
    fn walked_segment(s: &RankSnapshot, sites: std::ops::Range<usize>) -> SnapshotSegment {
        let mut seg = s.export_segment(sites);
        seg.tombstoned = (0..s.n_docs())
            .map(DocId)
            .filter(|&d| seg.sites.contains(&s.site_of(d).index()) && !s.is_live_doc(d))
            .map(|d| (d, s.site_of(d)))
            .collect();
        seg
    }

    #[test]
    fn segment_tombstones_equal_the_slot_walk() {
        // Ids interleave across sites, as appended pages do: site 2 was
        // removed (docs 2 and 6), docs 3, 5 and 9 were removed from live
        // sites 0 and 1.
        let site_of = [0, 1, 2, 0, 3, 1, 2, 0, 3, 1].map(SiteId);
        let s = RankSnapshot::new(
            9,
            "test".into(),
            Arc::new(vec![0.2, 0.1, 0.0, 0.0, 0.3, 0.0, 0.0, 0.15, 0.25, 0.0]),
            None,
            members(vec![
                vec![DocId(0), DocId(7)],
                vec![DocId(1)],
                Vec::new(),
                vec![DocId(4), DocId(8)],
            ]),
            Arc::new(site_of.to_vec()),
            Arc::new([2, 3, 5, 6, 9].map(DocId).to_vec()),
            Staleness::Full,
        );
        for start in 0..=4 {
            for end in start..=6 {
                let seg = s.export_segment(start..end);
                assert_eq!(seg, walked_segment(&s, start..end), "sites {start}..{end}");
            }
        }
        assert_eq!(
            s.export_segment(0..3).tombstoned,
            [(2, 2), (3, 0), (5, 1), (6, 2), (9, 1)].map(|(d, site)| (DocId(d), SiteId(site)))
        );
    }
}
