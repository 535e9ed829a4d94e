//! Immutable per-shard stores: precomputed top-k orderings, per-site
//! document orderings, and score lookups over one pinned [`RankSnapshot`].
//!
//! A [`ShardState`] is the unit the hot-swap replaces: it pins one snapshot
//! epoch and the shard's precomputed orderings. Scores are **always
//! read through the pinned snapshot** — the data stores only document
//! *orderings*, one `Arc` per site — which gives the publisher three swap
//! grades:
//!
//! * [`rebuild`](ShardState::rebuild) — re-sort only the sites the
//!   snapshot's staleness set names (and sites appended to the shard),
//!   share every other site's order, and k-way merge the shard-level top
//!   list, for shards whose sites a delta staled. Exact under both
//!   [`Staleness::Sites`] and [`Staleness::Resized`], since an unnamed site
//!   keeps its order under either; [`build`](ShardState::build) is the same
//!   function with every site named. Over a 240-delta churn stream,
//!   `tests/refresh.rs` holds the result equal to a from-scratch build
//!   (`refreshed_shards_equal_rebuilt_shards_over_a_delta_stream`) and
//!   every unnamed site's order shared by `Arc`
//!   (`unnamed_sites_share_their_buffers_at_every_layer`); the unit test
//!   `merged_top_equals_the_heap_built_top_under_cross_site_ties` holds
//!   the merge equal to a bounded heap over every document;
//! * [`refresh`](ShardState::refresh) — the same function with no site
//!   named: every per-site order is reused and only the top list
//!   re-merges under the new snapshot's scores. Sound whenever every
//!   covered site kept its member list and within-site order (the
//!   [`Staleness::Resized`] contract after any SiteRank rerun: per-site
//!   orders survive, absolute scores and cross-site interleavings do
//!   not);
//! * [`repin`](ShardState::repin) — share the data `Arc` outright, for
//!   snapshots whose unnamed sites are bit-identical
//!   ([`Staleness::Sites`]).
//!
//! [`Staleness::Resized`]: lmm_engine::Staleness::Resized
//! [`Staleness::Sites`]: lmm_engine::Staleness::Sites

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

use lmm_engine::RankSnapshot;
use lmm_graph::{DocId, SiteId};

/// Orders documents for serving: score descending, ties broken by id
/// ascending — the exact order `Ranking::order` uses, so serve-tier
/// results are bitwise comparable with engine-cache results.
fn serve_cmp(a: &(DocId, f64), b: &(DocId, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        // lint: allow(panic, "scores come from a stochastic-matrix power iteration and are finite by construction; a NaN here means the kernel itself is broken")
        .expect("ranking scores are finite")
        .then(a.0.cmp(&b.0))
}

/// Max-heap head for the k-way merge of per-site orders into a shard's
/// top list: greatest = best in serving order.
struct MergeHead {
    entry: (DocId, f64),
    site_idx: usize,
    pos: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        // serve_cmp returns Less when its first argument serves first, so
        // flipping the arguments makes the serve-first entry the greatest.
        serve_cmp(&other.entry, &self.entry)
    }
}

/// A shard-level score lookup: live value, tombstoned slot, or a document
/// the answering epoch never ranked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DocScore {
    /// The document is ranked at this epoch.
    Live(f64),
    /// The document existed but was removed — its id slot is dead.
    Tombstoned,
    /// The document id is outside the answering epoch's range.
    Unknown,
}

/// A shard-level site top-k answer.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteTopK {
    /// The site's best documents in serving order.
    Entries(Vec<(DocId, f64)>),
    /// The site was removed — queries for it must fail typed.
    Tombstoned,
    /// The site is outside this shard's range or the epoch's site count.
    NotCovered,
}

/// The heavy, rebuild-on-stale part of a shard: the document *orderings*
/// derived from the shard's scores (never the scores themselves — those
/// are always read through the pinned snapshot, so a refresh can re-pair
/// surviving orders with rescaled scores).
#[derive(Debug)]
struct ShardData {
    /// The shard's best documents in serving order, at most the configured
    /// heap capacity.
    top: Vec<DocId>,
    /// Per covered site (indexed relative to the shard's first site), the
    /// site's documents in serving order — one `Arc` per site, shared with
    /// the previous store for every site a rebuild or refresh did not
    /// re-sort.
    site_order: Vec<Arc<[DocId]>>,
    /// Documents owned by the shard (so `top.len() == n_docs.min(cap)`
    /// tells whether `top` is exhaustive).
    n_docs: usize,
}

/// One site's documents sorted into serving order under `snapshot`.
fn sort_site(snapshot: &RankSnapshot, site: usize) -> Arc<[DocId]> {
    let scores = snapshot.scores();
    let mut ordered: Vec<(DocId, f64)> = snapshot
        .members_of_site(SiteId(site))
        .iter()
        .map(|&d| (d, scores[d.index()]))
        .collect();
    ordered.sort_unstable_by(serve_cmp);
    ordered.into_iter().map(|(d, _)| d).collect()
}

/// The `heap_k` best documents over all `orders`, in serving order: a
/// k-way merge of the per-site heads, O(sites + k log sites). Exact
/// because each order is sorted under `scores` and `serve_cmp` is a
/// strict total order.
fn merge_top(orders: &[Arc<[DocId]>], scores: &[f64], heap_k: usize, n_docs: usize) -> Vec<DocId> {
    let mut heads: BinaryHeap<MergeHead> = orders
        .iter()
        .enumerate()
        .filter_map(|(site_idx, order)| {
            order.first().map(|&d| MergeHead {
                entry: (d, scores[d.index()]),
                site_idx,
                pos: 0,
            })
        })
        .collect();
    let mut top = Vec::with_capacity(heap_k.min(n_docs));
    while top.len() < heap_k {
        let Some(head) = heads.pop() else { break };
        top.push(head.entry.0);
        if let Some(&next) = orders[head.site_idx].get(head.pos + 1) {
            heads.push(MergeHead {
                entry: (next, scores[next.index()]),
                site_idx: head.site_idx,
                pos: head.pos + 1,
            });
        }
    }
    top
}

/// One shard's pinned serving state: an epoch, the snapshot it came from,
/// and the precomputed data.
#[derive(Debug, Clone)]
pub struct ShardState {
    sites: Range<usize>,
    snapshot: RankSnapshot,
    data: Arc<ShardData>,
}

impl ShardState {
    /// Builds a shard store from scratch over `sites` (heap capacity
    /// `heap_k`): every site sorted, then the top list merged from the
    /// per-site orders. Tombstoned sites in the range contribute an empty
    /// ordering.
    #[must_use]
    pub fn build(snapshot: &RankSnapshot, sites: Range<usize>, heap_k: usize) -> Self {
        Self::assemble(None, snapshot, sites, &|_| true, heap_k)
    }

    /// Rebuilds this shard over `sites` for a newer snapshot, re-sorting
    /// only the sites in `stale` (sorted; the snapshot's staleness set)
    /// and any site this store did not cover (appended since). Every
    /// other site's order is shared with this store, and the top list is
    /// merged afresh. Exact whenever every unnamed site kept its member
    /// list and within-site order — what both [`Staleness::Sites`] and
    /// [`Staleness::Resized`] guarantee for the sites they do not name.
    ///
    /// [`Staleness::Sites`]: lmm_engine::Staleness::Sites
    /// [`Staleness::Resized`]: lmm_engine::Staleness::Resized
    #[must_use]
    pub fn rebuild(
        &self,
        snapshot: &RankSnapshot,
        sites: Range<usize>,
        stale: &[usize],
        heap_k: usize,
    ) -> Self {
        debug_assert!(snapshot.epoch() >= self.snapshot.epoch());
        let named = |site: usize| stale.binary_search(&site).is_ok();
        Self::assemble(Some(self), snapshot, sites, &named, heap_k)
    }

    /// Re-pins this shard against a newer snapshot without rebuilding: the
    /// data `Arc` is shared. Sound only when every site of this shard is
    /// absent from the snapshot's staleness set (the publisher checks).
    #[must_use]
    pub fn repin(&self, snapshot: &RankSnapshot) -> Self {
        debug_assert!(snapshot.epoch() >= self.snapshot.epoch());
        Self {
            sites: self.sites.clone(),
            snapshot: snapshot.clone(),
            data: Arc::clone(&self.data),
        }
    }

    /// Rebuilds only the shard-level top list under the new snapshot's
    /// scores, **reusing** every per-site ordering — a
    /// [`rebuild`](Self::rebuild) naming no site. Exact whenever every
    /// covered site kept its member list and within-site order, which is
    /// what [`Staleness::Resized`] guarantees for sites it does not name.
    /// O(sites + k log sites) instead of a full re-sort.
    ///
    /// [`Staleness::Resized`]: lmm_engine::Staleness::Resized
    #[must_use]
    pub fn refresh(&self, snapshot: &RankSnapshot, heap_k: usize) -> Self {
        debug_assert!(snapshot.epoch() >= self.snapshot.epoch());
        Self::assemble(Some(self), snapshot, self.sites.clone(), &|_| false, heap_k)
    }

    /// The one store builder behind [`build`](Self::build),
    /// [`rebuild`](Self::rebuild) and [`refresh`](Self::refresh): sort the
    /// sites `stale` names and those `prev` did not cover, share every
    /// other site's order with `prev`, then merge the top list.
    ///
    /// Debug builds check the sharing contract: every reused order must
    /// still be strictly in serving order under the new scores.
    fn assemble(
        prev: Option<&ShardState>,
        snapshot: &RankSnapshot,
        sites: Range<usize>,
        stale: &dyn Fn(usize) -> bool,
        heap_k: usize,
    ) -> Self {
        let scores = snapshot.scores();
        let site_order: Vec<Arc<[DocId]>> = sites
            .clone()
            .map(|site| {
                let kept = prev
                    .filter(|_| !stale(site))
                    .and_then(|p| p.site_order(SiteId(site)));
                let Some(order) = kept else {
                    return sort_site(snapshot, site);
                };
                debug_assert!(
                    order.windows(2).all(|w| {
                        let entry = |d: DocId| (d, scores[d.index()]);
                        serve_cmp(&entry(w[0]), &entry(w[1])) == Ordering::Less
                    }),
                    "a reused order of site {site} is out of serving order under the new scores"
                );
                Arc::clone(order)
            })
            .collect();
        let n_docs = site_order.iter().map(|order| order.len()).sum();
        Self {
            sites,
            snapshot: snapshot.clone(),
            data: Arc::new(ShardData {
                top: merge_top(&site_order, scores, heap_k, n_docs),
                site_order,
                n_docs,
            }),
        }
    }

    /// One covered site's serving order as the shared `Arc` (`None` for a
    /// site outside this shard's range) — the allocation a rebuild that
    /// does not name the site hands on to the next store.
    #[must_use]
    pub fn site_order(&self, site: SiteId) -> Option<&Arc<[DocId]>> {
        let offset = site.index().checked_sub(self.sites.start)?;
        self.data.site_order.get(offset)
    }

    /// The epoch this state answers from.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The site-id range this shard covers.
    #[must_use]
    pub fn sites(&self) -> &Range<usize> {
        &self.sites
    }

    /// Live documents owned by this shard.
    #[must_use]
    pub fn n_docs(&self) -> usize {
        self.data.n_docs
    }

    /// `true` when this state shares its data with `other` (re-pinned, not
    /// rebuilt).
    #[cfg(test)]
    fn shares_data_with(&self, other: &ShardState) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// `true` when this state shares every per-site ordering with `other`
    /// (refreshed: new top list, same orders).
    #[cfg(test)]
    fn shares_orders_with(&self, other: &ShardState) -> bool {
        let (a, b) = (&self.data.site_order, &other.data.site_order);
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
    }

    /// Score of one document at this shard's epoch — answered from the
    /// pinned global score vector, so *any* shard can serve any document.
    /// Tombstoned slots answer [`DocScore::Tombstoned`], so a removed id
    /// never leaks a stale (or zero) score as if it were ranked.
    #[must_use]
    pub fn score(&self, doc: DocId) -> DocScore {
        if doc.index() >= self.snapshot.n_docs() {
            return DocScore::Unknown;
        }
        if !self.snapshot.is_live_doc(doc) {
            return DocScore::Tombstoned;
        }
        DocScore::Live(self.snapshot.scores()[doc.index()])
    }

    /// The shard's `k` best documents. The boolean reports whether the
    /// precomputed list sufficed (`false` = `k` exceeded its capacity and
    /// the shard fell back to a full scan).
    #[must_use]
    pub fn top_k(&self, k: usize) -> (Vec<(DocId, f64)>, bool) {
        let data = &self.data;
        let scores = self.snapshot.scores();
        if k <= data.top.len() || data.top.len() == data.n_docs {
            return (
                data.top
                    .iter()
                    .take(k)
                    .map(|&d| (d, scores[d.index()]))
                    .collect(),
                true,
            );
        }
        // k exceeds the precomputed capacity: scan every covered site.
        let mut all: Vec<(DocId, f64)> = self
            .sites
            .clone()
            .flat_map(|s| self.snapshot.members_of_site(SiteId(s)))
            .map(|&d| (d, scores[d.index()]))
            .collect();
        all.sort_unstable_by(serve_cmp);
        all.truncate(k);
        (all, false)
    }

    /// The `k` best documents of one covered site, distinguishing a
    /// tombstoned site from one this shard never covered.
    #[must_use]
    pub fn site_top_k(&self, site: SiteId, k: usize) -> SiteTopK {
        if !self.sites.contains(&site.index()) || site.index() >= self.snapshot.n_sites() {
            return SiteTopK::NotCovered;
        }
        if self.snapshot.is_tombstoned_site(site) {
            return SiteTopK::Tombstoned;
        }
        let Some(order) = self.site_order(site) else {
            return SiteTopK::NotCovered;
        };
        let scores = self.snapshot.scores();
        SiteTopK::Entries(
            order
                .iter()
                .take(k)
                .map(|&d| (d, scores[d.index()]))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_engine::Staleness;

    /// Two sites: site 0 = docs {0, 1}, site 1 = docs {2, 3, 4}.
    fn snapshot(epoch: u64, scores: Vec<f64>) -> RankSnapshot {
        RankSnapshot::new(
            epoch,
            "test".into(),
            Arc::new(scores),
            None,
            Arc::new(vec![
                Arc::from([DocId(0), DocId(1)]),
                Arc::from([DocId(2), DocId(3), DocId(4)]),
            ]),
            Arc::new(vec![SiteId(0), SiteId(0), SiteId(1), SiteId(1), SiteId(1)]),
            Arc::default(),
            Staleness::Full,
        )
    }

    /// The top list by a bounded heap over every document of `sites`:
    /// the oracle for the merge.
    fn heap_top(snapshot: &RankSnapshot, sites: Range<usize>, heap_k: usize) -> Vec<DocId> {
        /// Ranks worse entries greater, so the heap root is the weakest.
        struct Weakest(DocId, f64);
        impl PartialEq for Weakest {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl Eq for Weakest {}
        impl PartialOrd for Weakest {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Weakest {
            fn cmp(&self, other: &Self) -> Ordering {
                serve_cmp(&(self.0, self.1), &(other.0, other.1))
            }
        }
        let scores = snapshot.scores();
        let mut heap: BinaryHeap<Weakest> = BinaryHeap::new();
        for site in sites {
            for &d in snapshot.members_of_site(SiteId(site)) {
                heap.push(Weakest(d, scores[d.index()]));
                if heap.len() > heap_k {
                    heap.pop();
                }
            }
        }
        heap.into_sorted_vec().into_iter().map(|w| w.0).collect()
    }

    #[test]
    fn merged_top_equals_the_heap_built_top_under_cross_site_ties() {
        // 5 sites of 40 interleaved documents, only three distinct scores:
        // nearly every comparison ties on score across sites and falls
        // through to the id.
        let (n_sites, n) = (5usize, 200usize);
        let scores: Vec<f64> = (0..n).map(|d| [0.002, 0.005, 0.008][(d * 7) % 3]).collect();
        let members: Vec<Arc<[DocId]>> = (0..n_sites)
            .map(|s| (s..n).step_by(n_sites).map(DocId).collect())
            .collect();
        let snap = RankSnapshot::new(
            1,
            "test".into(),
            Arc::new(scores),
            None,
            Arc::new(members),
            Arc::new((0..n).map(|d| SiteId(d % n_sites)).collect()),
            Arc::default(),
            Staleness::Full,
        );
        for sites in [0..n_sites, 1..4] {
            let shard_docs: usize = sites
                .clone()
                .map(|s| snap.members_of_site(SiteId(s)).len())
                .sum();
            for heap_k in [1, 64, shard_docs + 7] {
                let shard = ShardState::build(&snap, sites.clone(), heap_k);
                assert_eq!(
                    shard.data.top,
                    heap_top(&snap, sites.clone(), heap_k),
                    "sites {sites:?}, heap_k {heap_k}"
                );
            }
        }
    }

    #[test]
    fn rebuild_resorts_only_the_named_sites() {
        let snap1 = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap1, 0..2, 3);
        // Site 1's local order flips; site 0 is untouched.
        let snap2 = snapshot(2, vec![0.1, 0.3, 0.25, 0.15, 0.2]);
        let rebuilt = shard.rebuild(&snap2, 0..2, &[1], 3);
        let order = |s: &ShardState, site| Arc::clone(s.site_order(SiteId(site)).unwrap());
        assert!(Arc::ptr_eq(&order(&shard, 0), &order(&rebuilt, 0)));
        assert!(!Arc::ptr_eq(&order(&shard, 1), &order(&rebuilt, 1)));
        let fresh = ShardState::build(&snap2, 0..2, 3);
        assert_eq!(rebuilt.top_k(3), fresh.top_k(3));
        assert_eq!(
            rebuilt.site_top_k(SiteId(1), 3),
            fresh.site_top_k(SiteId(1), 3)
        );
        assert_eq!(rebuilt.n_docs(), 5);
    }

    #[test]
    fn build_precomputes_serving_order() {
        let snap = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap, 0..2, 3);
        assert_eq!(shard.epoch(), 1);
        assert_eq!(shard.n_docs(), 5);
        let (top, from_heap) = shard.top_k(3);
        assert!(from_heap);
        assert_eq!(
            top,
            vec![(DocId(1), 0.3), (DocId(3), 0.25), (DocId(2), 0.2)]
        );
        let site1 = shard.site_top_k(SiteId(1), 2);
        assert_eq!(
            site1,
            SiteTopK::Entries(vec![(DocId(3), 0.25), (DocId(2), 0.2)])
        );
        assert_eq!(shard.score(DocId(4)), DocScore::Live(0.15));
        assert_eq!(shard.score(DocId(9)), DocScore::Unknown);
    }

    #[test]
    fn equal_scores_break_ties_by_id() {
        let snap = snapshot(1, vec![0.2, 0.2, 0.2, 0.2, 0.2]);
        let shard = ShardState::build(&snap, 0..2, 4);
        let (top, _) = shard.top_k(4);
        assert_eq!(
            top.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            vec![DocId(0), DocId(1), DocId(2), DocId(3)]
        );
    }

    #[test]
    fn oversized_k_falls_back_to_a_scan() {
        let snap = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap, 0..2, 2);
        let (top, from_heap) = shard.top_k(5);
        assert!(!from_heap);
        assert_eq!(top.len(), 5);
        assert_eq!(top[0], (DocId(1), 0.3));
        assert_eq!(top[4], (DocId(0), 0.1));
        // Small shards whose list holds everything never scan.
        let all = ShardState::build(&snap, 0..2, 16);
        let (_, from_heap) = all.top_k(9);
        assert!(from_heap);
    }

    #[test]
    fn repin_shares_data_and_advances_the_epoch() {
        let snap1 = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap1, 0..2, 3);
        let snap2 = snapshot(2, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let repinned = shard.repin(&snap2);
        assert_eq!(repinned.epoch(), 2);
        assert!(repinned.shares_data_with(&shard));
        assert_eq!(repinned.top_k(3), shard.top_k(3));
        let rebuilt = ShardState::build(&snap2, 0..2, 3);
        assert!(!rebuilt.shares_data_with(&shard));
    }

    #[test]
    fn refresh_remerges_the_top_under_rescaled_scores() {
        let snap1 = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap1, 0..2, 3);
        // Site 0's weight shrank, site 1's grew: per-site orders are
        // unchanged but the cross-site interleaving flips.
        let snap2 = snapshot(2, vec![0.02, 0.06, 0.30, 0.375, 0.225]);
        let refreshed = shard.refresh(&snap2, 3);
        assert_eq!(refreshed.epoch(), 2);
        assert!(!refreshed.shares_data_with(&shard));
        assert!(refreshed.shares_orders_with(&shard));
        let (top, from_heap) = refreshed.top_k(3);
        assert!(from_heap);
        assert_eq!(
            top,
            vec![(DocId(3), 0.375), (DocId(2), 0.30), (DocId(4), 0.225)]
        );
        // The refreshed top equals a full rebuild's, entry for entry.
        let rebuilt = ShardState::build(&snap2, 0..2, 3);
        assert_eq!(refreshed.top_k(3), rebuilt.top_k(3));
        // Per-site answers read fresh scores through the shared orders.
        assert_eq!(
            refreshed.site_top_k(SiteId(0), 2),
            SiteTopK::Entries(vec![(DocId(1), 0.06), (DocId(0), 0.02)])
        );
    }

    #[test]
    fn tombstoned_docs_and_sites_answer_typed() {
        // Site 1 removed: members empty, its docs dead (slots remain).
        let snap = RankSnapshot::new(
            2,
            "test".into(),
            Arc::new(vec![0.4, 0.6, 0.0, 0.0, 0.0]),
            None,
            Arc::new(vec![Arc::from([DocId(0), DocId(1)]), Arc::from([])]),
            Arc::new(vec![SiteId(0), SiteId(0), SiteId(1), SiteId(1), SiteId(1)]),
            Arc::new(vec![DocId(2), DocId(3), DocId(4)]),
            Staleness::Resized {
                sites: vec![],
                removed_sites: vec![1],
            },
        );
        let shard = ShardState::build(&snap, 0..2, 4);
        assert_eq!(shard.n_docs(), 2);
        assert_eq!(shard.score(DocId(0)), DocScore::Live(0.4));
        assert_eq!(shard.score(DocId(3)), DocScore::Tombstoned);
        assert_eq!(shard.score(DocId(7)), DocScore::Unknown);
        assert_eq!(shard.site_top_k(SiteId(1), 2), SiteTopK::Tombstoned);
        assert_eq!(shard.site_top_k(SiteId(5), 2), SiteTopK::NotCovered);
        let (top, _) = shard.top_k(4);
        assert_eq!(top, vec![(DocId(1), 0.6), (DocId(0), 0.4)]);
    }

    #[test]
    fn site_outside_the_shard_is_refused() {
        let snap = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap, 1..2, 3);
        assert_eq!(shard.site_top_k(SiteId(0), 2), SiteTopK::NotCovered);
        assert_eq!(shard.site_top_k(SiteId(7), 2), SiteTopK::NotCovered);
        assert!(matches!(
            shard.site_top_k(SiteId(1), 2),
            SiteTopK::Entries(_)
        ));
        // But scores of foreign documents still answer (global vector).
        assert_eq!(shard.score(DocId(0)), DocScore::Live(0.1));
    }
}
