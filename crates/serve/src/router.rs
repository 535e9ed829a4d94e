//! The sharded server: every query answers on the caller's thread from
//! one atomically swapped serving set, and an epoch-swap publisher that
//! never blocks reads.
//!
//! # Concurrency design
//!
//! The server holds one **serving set** in an [`ArcCell`]: the routing
//! snapshot (doc → site → shard) and every shard's immutable
//! [`ShardState`], all pinned to one epoch. Loading the cell is lock-free
//! (see [`crate::cell`] for the algorithm): no mutex, no syscall, no
//! thread wake-up — so a publish in progress never blocks a query, and a
//! query never observes a half-built store.
//!
//! Every read — [`score`], [`score_batch`], [`top_k`],
//! [`top_k_for_site`], [`compare`] and [`epoch`] — does exactly one load
//! and answers from the loaded set, so every response carries **exactly
//! one epoch** by construction. A global `top_k` merges the shards'
//! precomputed lists right there; nothing is scattered, gathered,
//! retried or escalated.
//!
//! The publisher holds the publish gate, which serializes publishers and
//! is never touched by a read. It builds the next set from the current
//! one — rebuilding the stores the snapshot's [`Staleness`] set names,
//! refreshing or re-pinning the rest — and installs it with one `store`.
//! Readers answer from the old set until that store and from the new one
//! after it. A publisher that panics before its store leaves the old set
//! whole, so the gate recovers from poisoning and the next publish goes
//! ahead.
//!
//! [`score`]: ShardedServer::score
//! [`score_batch`]: ShardedServer::score_batch
//! [`top_k`]: ShardedServer::top_k
//! [`top_k_for_site`]: ShardedServer::top_k_for_site
//! [`compare`]: ShardedServer::compare
//! [`epoch`]: ShardedServer::epoch

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::cell::ArcCell;
use crate::error::{Result, ServeError};
use crate::shard::{DocScore, ShardState, SiteTopK};
use crate::telemetry::{ServeStats, ServeStatsSnapshot};
use lmm_engine::{RankSnapshot, Staleness};
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocId, SiteId};

/// Tuning knobs of a [`ShardedServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Capacity of each shard's precomputed top-k list. Queries with
    /// `k` beyond it still answer (the shard falls back to a scan), they
    /// just stop being O(k).
    pub heap_k: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { heap_k: 64 }
    }
}

/// How one shard's store is swapped by a publish — the three grades the
/// epoch/staleness contract allows. Shared with the cluster tier
/// (`lmm-cluster`), whose controller grades each remote shard with the
/// same rules before shipping segments over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapGrade {
    /// The snapshot's staleness set names one of the shard's sites: the
    /// store is rebuilt from the snapshot.
    Rebuild,
    /// A removal rescaled every site's absolute scores
    /// ([`Staleness::Resized`]): per-site orders are reused, the shard top
    /// list re-merges under the new scores.
    Refresh,
    /// Bit-identical data ([`Staleness::Sites`] not naming the shard): the
    /// existing store is re-pinned against the new epoch.
    Repin,
}

/// Grades every shard of `map` for publishing `snapshot` over a tier
/// currently serving `serving_epoch`. A snapshot that skipped epochs
/// conservatively rebuilds everything, since its staleness set only
/// describes the last step. This is the single source of truth for the
/// swap contract: the in-process publisher and the cluster controller
/// both call it, so a shard is rebuilt remotely exactly when it would be
/// rebuilt locally.
#[must_use]
pub fn publish_grades(
    map: &ShardMap,
    serving_epoch: u64,
    snapshot: &RankSnapshot,
) -> Vec<SwapGrade> {
    let n_shards = map.n_shards();
    let contiguous = snapshot.epoch() == serving_epoch + 1;
    let (stale_shards, fresh): (Vec<usize>, SwapGrade) = match (contiguous, snapshot.staleness()) {
        (true, Staleness::Sites(sites)) => {
            (map.shards_of_sites(sites.iter().copied()), SwapGrade::Repin)
        }
        (
            true,
            Staleness::Resized {
                sites,
                removed_sites,
            },
        ) => (
            map.shards_of_sites(sites.iter().chain(removed_sites).copied()),
            SwapGrade::Refresh,
        ),
        _ => ((0..n_shards).collect(), SwapGrade::Repin),
    };
    let mut grades = vec![fresh; n_shards];
    for shard in stale_shards {
        grades[shard] = SwapGrade::Rebuild;
    }
    grades
}

/// Shard `shard`'s site range under `map`, with the last shard extended to
/// absorb sites appended after the map was built — the range a shard store
/// (local or remote) must cover at a snapshot with `n_sites` sites.
#[must_use]
pub fn shard_site_range(map: &ShardMap, shard: usize, n_sites: usize) -> std::ops::Range<usize> {
    let mut range = map.sites_of_shard(shard);
    if shard == map.n_shards() - 1 {
        range.end = range.end.max(n_sites);
    }
    range
}

/// Accounting of one [`ShardedServer::publish`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReport {
    /// The epoch now served.
    pub epoch: u64,
    /// Shard stores rebuilt (stale shards).
    pub shards_rebuilt: usize,
    /// Shard stores re-pinned (fresh shards: new epoch, same data).
    pub shards_repinned: usize,
    /// Shard stores refreshed (removal publishes: per-site orders reused,
    /// shard top list re-merged under the redistributed scores).
    pub shards_refreshed: usize,
    /// `true` when the snapshot was already being served and nothing was
    /// swapped.
    pub noop: bool,
}

/// What the server answers from: one epoch's routing snapshot and every
/// shard's store at that same epoch, replaced whole by each publish.
struct Serving {
    snapshot: RankSnapshot,
    shards: Vec<Arc<ShardState>>,
}

impl Serving {
    fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }
}

/// The serving tier: site-sharded, read-mostly, hot-swappable.
///
/// Build one with [`ShardedServer::start`] from an engine snapshot, then
/// answer queries from any number of threads (`&self` throughout) while a
/// writer thread feeds fresh snapshots through
/// [`publish`](ShardedServer::publish).
pub struct ShardedServer {
    map: ShardMap,
    /// The serving set; every read loads it exactly once.
    serving: ArcCell<Serving>,
    /// The publish gate: serializes publishers so each builds on the set
    /// the previous one stored. The read paths never touch it.
    gate: Mutex<()>,
    stats: ServeStats,
    config: ServeConfig,
}

impl std::fmt::Debug for ShardedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServer")
            .field("n_shards", &self.n_shards())
            .field("epoch", &self.epoch())
            .field("config", &self.config)
            .finish()
    }
}

impl ShardedServer {
    /// Builds every shard store from `snapshot` and starts serving.
    ///
    /// # Errors
    /// Returns [`ServeError::InvalidConfig`] when `heap_k` is zero or the
    /// shard map covers more sites than the snapshot ranks.
    pub fn start(map: ShardMap, snapshot: &RankSnapshot, config: ServeConfig) -> Result<Self> {
        if config.heap_k == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "heap_k must be at least 1".into(),
            });
        }
        if map.n_sites() > snapshot.n_sites() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "shard map covers {} sites, snapshot ranks only {}",
                    map.n_sites(),
                    snapshot.n_sites()
                ),
            });
        }
        let shards = (0..map.n_shards())
            .map(|shard| {
                let sites = shard_site_range(&map, shard, snapshot.n_sites());
                Arc::new(ShardState::build(snapshot, sites, config.heap_k))
            })
            .collect();
        Ok(Self {
            map,
            serving: ArcCell::new(Arc::new(Serving {
                snapshot: snapshot.clone(),
                shards,
            })),
            gate: Mutex::new(()),
            stats: ServeStats::default(),
            config,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.map.n_shards()
    }

    /// The epoch reads currently answer from. A publish in flight is not
    /// visible until its single store.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.serving.load().epoch()
    }

    /// The server's telemetry counters, plus the live per-shard document
    /// counts (read from the currently pinned stores) — the skew signal a
    /// rebalancer watches: removal drains shards in place and growth piles
    /// into the last one, so
    /// [`doc_skew`](crate::ServeStatsSnapshot::doc_skew) drifting from 1.0
    /// is the trigger to re-split the site ranges.
    #[must_use]
    pub fn stats(&self) -> ServeStatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        snapshot.shard_docs = self
            .serving
            .load()
            .shards
            .iter()
            .map(|state| state.n_docs() as u64)
            .collect();
        snapshot
    }

    /// Swaps in a fresh snapshot without ever blocking readers: shards
    /// whose sites the snapshot's [`Staleness`] set names rebuild their
    /// stores; every other shard re-pins its existing store `Arc` against
    /// the new epoch — or, after a removal ([`Staleness::Resized`]),
    /// **refreshes**: the per-site orders are reused and only the shard
    /// top list re-merges under the redistributed scores. A snapshot that
    /// skipped epochs (the publisher missed one) conservatively rebuilds
    /// everything, since its staleness set only describes the last step.
    ///
    /// # Errors
    /// Returns [`ServeError::StaleSnapshot`] when the snapshot's epoch is
    /// older than the serving epoch. Re-publishing the serving epoch is a
    /// no-op, not an error.
    pub fn publish(&self, snapshot: &RankSnapshot) -> Result<PublishReport> {
        self.publish_paced(snapshot, &|_| {})
    }

    /// [`publish`](Self::publish) with a pacing hook invoked after each
    /// shard store is built, before the set is stored — lets tests hold a
    /// publish partway through (or make it panic there) at a chosen shard.
    /// Not part of the stable API.
    ///
    /// # Errors
    /// As [`publish`](Self::publish).
    #[doc(hidden)]
    pub fn publish_paced(
        &self,
        snapshot: &RankSnapshot,
        built: &dyn Fn(usize),
    ) -> Result<PublishReport> {
        // A publisher that panicked while holding the gate did so before
        // its one store, so the set it left behind is whole.
        let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let current = self.serving.load();
        let serving = current.epoch();
        if snapshot.epoch() < serving {
            return Err(ServeError::StaleSnapshot {
                published: snapshot.epoch(),
                serving,
            });
        }
        ServeStats::bump(&self.stats.publishes);
        let mut report = PublishReport {
            epoch: snapshot.epoch(),
            shards_rebuilt: 0,
            shards_repinned: 0,
            shards_refreshed: 0,
            noop: snapshot.epoch() == serving,
        };
        if report.noop {
            return Ok(report);
        }
        let grades = publish_grades(&self.map, serving, snapshot);
        let mut shards = Vec::with_capacity(grades.len());
        for (shard, (state, grade)) in current.shards.iter().zip(&grades).enumerate() {
            let next = match grade {
                SwapGrade::Rebuild => {
                    report.shards_rebuilt += 1;
                    let sites = shard_site_range(&self.map, shard, snapshot.n_sites());
                    ShardState::build(snapshot, sites, self.config.heap_k)
                }
                SwapGrade::Refresh => {
                    report.shards_refreshed += 1;
                    state.refresh(snapshot, self.config.heap_k)
                }
                SwapGrade::Repin => {
                    report.shards_repinned += 1;
                    state.repin(snapshot)
                }
            };
            shards.push(Arc::new(next));
            built(shard);
        }
        // The swap itself: one lock-free store, readers never blocked.
        self.serving.store(Arc::new(Serving {
            snapshot: snapshot.clone(),
            shards,
        }));
        ServeStats::add(&self.stats.shards_rebuilt, report.shards_rebuilt as u64);
        ServeStats::add(&self.stats.shards_repinned, report.shards_repinned as u64);
        ServeStats::add(&self.stats.shards_refreshed, report.shards_refreshed as u64);
        Ok(report)
    }

    /// Records one answered query's latency.
    fn finish(&self, start: Instant) {
        self.stats.latency.record(start.elapsed());
    }

    /// One document's score, looked up in the shard owning its site and
    /// mapped into the router's typed errors. Documents beyond the
    /// snapshot fall into the last shard, which answers them
    /// [`ServeError::UnknownDoc`].
    fn doc_score(&self, serving: &Serving, doc: DocId) -> Result<f64> {
        let shard = serving
            .snapshot
            .site_assignments()
            .get(doc.index())
            .map_or(self.n_shards() - 1, |&site| self.map.shard_of_site(site));
        match serving.shards[shard].score(doc) {
            DocScore::Live(score) => Ok(score),
            DocScore::Tombstoned => {
                ServeStats::bump(&self.stats.tombstone_rejections);
                Err(ServeError::TombstonedDoc {
                    doc: doc.index(),
                    epoch: serving.epoch(),
                })
            }
            DocScore::Unknown => Err(ServeError::UnknownDoc {
                doc: doc.index(),
                epoch: serving.epoch(),
            }),
        }
    }

    /// Global score of one document, answered on the calling thread from
    /// the shard owning its site.
    ///
    /// # Errors
    /// [`ServeError::UnknownDoc`] when the answering epoch never ranked
    /// the document; [`ServeError::TombstonedDoc`] when the document was
    /// removed (stale scores are never served for the dead).
    pub fn score(&self, doc: DocId) -> Result<(u64, f64)> {
        ServeStats::bump(&self.stats.score_queries);
        let start = Instant::now();
        let serving = self.serving.load();
        let score = self.doc_score(&serving, doc);
        self.finish(start);
        Ok((serving.epoch(), score?))
    }

    /// Batched score lookups in input order, all answered from **one**
    /// epoch — whether the documents share a shard or not.
    ///
    /// # Errors
    /// [`ServeError::UnknownDoc`] / [`ServeError::TombstonedDoc`] for the
    /// first document (in input order) the answering epoch cannot score.
    pub fn score_batch(&self, docs: &[DocId]) -> Result<(u64, Vec<f64>)> {
        ServeStats::bump(&self.stats.batch_queries);
        let start = Instant::now();
        let serving = self.serving.load();
        let scores: Result<Vec<f64>> = docs
            .iter()
            .map(|&doc| self.doc_score(&serving, doc))
            .collect();
        self.finish(start);
        Ok((serving.epoch(), scores?))
    }

    /// Global top-`k`: every shard's precomputed list merged on the
    /// calling thread.
    ///
    /// # Errors
    /// None today; the `Result` keeps the shape of [`crate::ShardQuery`].
    pub fn top_k(&self, k: usize) -> Result<(u64, Vec<(DocId, f64)>)> {
        ServeStats::bump(&self.stats.top_k_queries);
        let start = Instant::now();
        let serving = self.serving.load();
        let mut merged: Vec<(DocId, f64)> = Vec::with_capacity(k.saturating_mul(2));
        for state in &serving.shards {
            let (entries, from_heap) = state.top_k(k);
            if !from_heap {
                ServeStats::bump(&self.stats.heap_overflow_scans);
            }
            merged.extend(entries);
        }
        merged.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                // lint: allow(panic, "scores come from a stochastic-matrix power iteration and are finite by construction; a NaN here means the kernel itself is broken")
                .expect("ranking scores are finite")
                .then(a.0.cmp(&b.0))
        });
        merged.truncate(k);
        self.finish(start);
        Ok((serving.epoch(), merged))
    }

    /// Top-`k` within one site, straight off the owning shard's
    /// precomputed per-site ranking.
    ///
    /// # Errors
    /// [`ServeError::UnknownSite`] when the answering epoch never ranked
    /// the site; [`ServeError::TombstonedSite`] when the site was removed.
    pub fn top_k_for_site(&self, site: SiteId, k: usize) -> Result<(u64, Vec<(DocId, f64)>)> {
        ServeStats::bump(&self.stats.site_top_k_queries);
        let start = Instant::now();
        let serving = self.serving.load();
        let epoch = serving.epoch();
        let entries = serving.shards[self.map.shard_of_site(site)].site_top_k(site, k);
        self.finish(start);
        match entries {
            SiteTopK::Entries(e) => Ok((epoch, e)),
            SiteTopK::Tombstoned => {
                ServeStats::bump(&self.stats.tombstone_rejections);
                Err(ServeError::TombstonedSite {
                    site: site.index(),
                    epoch,
                })
            }
            SiteTopK::NotCovered => Err(ServeError::UnknownSite {
                site: site.index(),
                epoch,
            }),
        }
    }

    /// Compares two documents at one epoch: `Greater` means `a` outranks
    /// `b`.
    ///
    /// # Errors
    /// [`ServeError::UnknownDoc`] / [`ServeError::TombstonedDoc`] when the
    /// answering epoch cannot score `a`, else `b`.
    pub fn compare(&self, a: DocId, b: DocId) -> Result<(u64, std::cmp::Ordering)> {
        ServeStats::bump(&self.stats.compare_queries);
        let start = Instant::now();
        let serving = self.serving.load();
        let scores = self
            .doc_score(&serving, a)
            .and_then(|sa| Ok((sa, self.doc_score(&serving, b)?)));
        self.finish(start);
        let (sa, sb) = scores?;
        let order = sa
            .partial_cmp(&sb)
            // lint: allow(panic, "scores come from a stochastic-matrix power iteration and are finite by construction; a NaN here means the kernel itself is broken")
            .expect("ranking scores are finite")
            // Equal scores: the lower doc id ranks first, matching the
            // serving order everywhere else in the tier.
            .then(b.cmp(&a));
        Ok((serving.epoch(), order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 sites x 2 docs, epoch-stamped scores.
    fn snapshot(epoch: u64, scores: Vec<f64>, staleness: Staleness) -> RankSnapshot {
        let n = scores.len();
        assert_eq!(n % 2, 0);
        let members = (0..n / 2)
            .map(|s| vec![DocId(2 * s), DocId(2 * s + 1)])
            .collect::<Vec<_>>();
        let site_of = (0..n).map(|d| SiteId(d / 2)).collect::<Vec<_>>();
        RankSnapshot::new(
            epoch,
            "test".into(),
            Arc::new(scores),
            None,
            Arc::new(members),
            Arc::new(site_of),
            staleness,
        )
    }

    fn base_scores() -> Vec<f64> {
        vec![0.05, 0.10, 0.20, 0.15, 0.08, 0.12, 0.18, 0.12]
    }

    fn server() -> ShardedServer {
        let map = ShardMap::uniform(4, 2).unwrap();
        let snap = snapshot(1, base_scores(), Staleness::Full);
        ShardedServer::start(map, &snap, ServeConfig::default()).unwrap()
    }

    #[test]
    fn queries_answer_from_the_started_snapshot() {
        let srv = server();
        assert_eq!(srv.epoch(), 1);
        let (epoch, top) = srv.top_k(3).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(
            top,
            vec![(DocId(2), 0.20), (DocId(6), 0.18), (DocId(3), 0.15)]
        );
        let (_, score) = srv.score(DocId(5)).unwrap();
        assert_eq!(score, 0.12);
        let (_, site_top) = srv.top_k_for_site(SiteId(1), 1).unwrap();
        assert_eq!(site_top, vec![(DocId(2), 0.20)]);
        // Equal scores tie-break by doc id, globally and in compare.
        let (_, order) = srv.compare(DocId(5), DocId(7)).unwrap();
        assert_eq!(order, std::cmp::Ordering::Greater);
        let (_, order) = srv.compare(DocId(2), DocId(6)).unwrap();
        assert_eq!(order, std::cmp::Ordering::Greater);
    }

    #[test]
    fn every_query_records_one_latency_sample() {
        let srv = server();
        srv.score(DocId(5)).unwrap();
        srv.score_batch(&[DocId(0), DocId(7)]).unwrap();
        srv.top_k(3).unwrap();
        srv.top_k_for_site(SiteId(1), 2).unwrap();
        srv.compare(DocId(0), DocId(7)).unwrap();
        assert!(srv.score(DocId(99)).is_err());
        let stats = srv.stats();
        assert_eq!(stats.total_queries(), 6);
        assert_eq!(stats.latency.count(), 6, "failed reads are timed too");
        // The fields the benchmark harness still reads: every query is a
        // caller-thread answer, and nothing fans out, retries or
        // escalates.
        assert_eq!(stats.direct_hits, 6);
        assert_eq!(
            (
                stats.fanout_queries,
                stats.gather_retries,
                stats.gate_escalations
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn batch_reassembles_in_input_order() {
        let srv = server();
        let docs = [DocId(7), DocId(0), DocId(4), DocId(2)];
        let (epoch, scores) = srv.score_batch(&docs).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(scores, vec![0.12, 0.05, 0.08, 0.20]);
    }

    #[test]
    fn empty_batch_answers_empty_at_the_serving_epoch() {
        // Regression: an empty batch used to panic indexing replies[0].
        let srv = server();
        let (epoch, scores) = srv.score_batch(&[]).unwrap();
        assert_eq!(epoch, 1);
        assert!(scores.is_empty());
    }

    #[test]
    fn unknown_references_are_errors() {
        let srv = server();
        assert!(matches!(
            srv.score(DocId(99)),
            Err(ServeError::UnknownDoc { doc: 99, epoch: 1 })
        ));
        assert!(matches!(
            srv.top_k_for_site(SiteId(9), 2),
            Err(ServeError::UnknownSite { site: 9, .. })
        ));
    }

    #[test]
    fn publish_rebuilds_only_stale_shards() {
        let srv = server();
        // Site 3 (shard 1) moved; shard 0 must re-pin.
        let mut scores = base_scores();
        scores[6] = 0.30;
        scores[7] = 0.00;
        let snap = snapshot(2, scores, Staleness::Sites(vec![3]));
        let report = srv.publish(&snap).unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(report.shards_rebuilt, 1);
        assert_eq!(report.shards_repinned, 1);
        assert!(!report.noop);
        let (epoch, top) = srv.top_k(2).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(top, vec![(DocId(6), 0.30), (DocId(2), 0.20)]);
        let stats = srv.stats();
        assert_eq!(stats.shards_rebuilt, 1);
        assert_eq!(stats.shards_repinned, 1);
    }

    #[test]
    fn publish_rejects_stale_and_noops_on_current() {
        let srv = server();
        let current = snapshot(1, base_scores(), Staleness::Full);
        let report = srv.publish(&current).unwrap();
        assert!(report.noop);
        let snap2 = snapshot(2, base_scores(), Staleness::Sites(vec![]));
        srv.publish(&snap2).unwrap();
        assert!(matches!(
            srv.publish(&current),
            Err(ServeError::StaleSnapshot {
                published: 1,
                serving: 2
            })
        ));
    }

    #[test]
    fn empty_staleness_repins_everything() {
        let srv = server();
        let snap = snapshot(2, base_scores(), Staleness::Sites(vec![]));
        let report = srv.publish(&snap).unwrap();
        assert_eq!(report.shards_rebuilt, 0);
        assert_eq!(report.shards_repinned, 2);
        assert_eq!(srv.epoch(), 2);
    }

    #[test]
    fn skipped_epochs_force_a_full_rebuild() {
        let srv = server();
        // Epoch jumps 1 -> 3: the staleness set only describes 2 -> 3, so
        // the publisher must not trust it.
        let snap = snapshot(3, base_scores(), Staleness::Sites(vec![0]));
        let report = srv.publish(&snap).unwrap();
        assert_eq!(report.shards_rebuilt, 2);
        assert_eq!(report.shards_repinned, 0);
    }

    #[test]
    fn full_staleness_rebuilds_everything() {
        let srv = server();
        let snap = snapshot(2, base_scores(), Staleness::Full);
        let report = srv.publish(&snap).unwrap();
        assert_eq!(report.shards_rebuilt, 2);
    }

    #[test]
    fn poisoned_gate_recovers_for_the_next_publish() {
        let srv = server();
        // Poison the publish gate: a publisher panics while holding it.
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = srv.gate.lock().expect("gate still clean");
            panic!("publisher died mid-swap");
        }));
        assert!(poisoner.is_err(), "the poisoner must have panicked");
        assert!(srv.gate.is_poisoned());
        // Readers never touch the gate.
        assert_eq!(srv.epoch(), 1);
        let (_, score) = srv.score(DocId(5)).unwrap();
        assert_eq!(score, 0.12);
        let (_, top) = srv.top_k(2).unwrap();
        assert_eq!(top.len(), 2);
        // The dead publisher never stored, so the set is whole and the
        // next publish goes ahead.
        let snap = snapshot(2, base_scores(), Staleness::Full);
        assert_eq!(srv.publish(&snap).unwrap().shards_rebuilt, 2);
        assert_eq!(srv.epoch(), 2);
    }

    #[test]
    fn routing_never_outruns_the_cells() {
        let srv = server();
        for epoch in 2..6 {
            let snap = snapshot(epoch, base_scores(), Staleness::Full);
            srv.publish_paced(&snap, &|_| {
                // Mid-build: the routing epoch and every shard's answer
                // still come from the one stored set.
                assert_eq!(srv.epoch(), epoch - 1);
                assert_eq!(srv.top_k(8).unwrap().0, epoch - 1);
                assert_eq!(srv.score_batch(&[DocId(0), DocId(7)]).unwrap().0, epoch - 1);
            })
            .unwrap();
            assert_eq!(srv.epoch(), epoch);
            assert_eq!(srv.top_k(8).unwrap().0, epoch);
        }
    }

    #[test]
    fn grades_follow_the_staleness_contract() {
        let map = ShardMap::uniform(4, 2).unwrap();
        // Contiguous + Sites: named shards rebuild, rest re-pin.
        let snap = snapshot(2, base_scores(), Staleness::Sites(vec![3]));
        assert_eq!(
            publish_grades(&map, 1, &snap),
            vec![SwapGrade::Repin, SwapGrade::Rebuild]
        );
        // Contiguous + Resized: named shards rebuild, rest refresh.
        let snap = snapshot(
            2,
            base_scores(),
            Staleness::Resized {
                sites: vec![0],
                removed_sites: vec![],
            },
        );
        assert_eq!(
            publish_grades(&map, 1, &snap),
            vec![SwapGrade::Rebuild, SwapGrade::Refresh]
        );
        // Skipped epoch: staleness untrustworthy, rebuild everything.
        let snap = snapshot(3, base_scores(), Staleness::Sites(vec![]));
        assert_eq!(
            publish_grades(&map, 1, &snap),
            vec![SwapGrade::Rebuild, SwapGrade::Rebuild]
        );
    }

    #[test]
    fn growth_lands_in_the_last_shard() {
        let srv = server();
        // A fifth site (id 4) appears: beyond the map, absorbed by the
        // last shard under a Full publish.
        let mut members: Vec<Vec<DocId>> = (0..4)
            .map(|s| vec![DocId(2 * s), DocId(2 * s + 1)])
            .collect();
        members.push(vec![DocId(8), DocId(9)]);
        let mut site_of: Vec<SiteId> = (0..8).map(|d| SiteId(d / 2)).collect();
        site_of.extend([SiteId(4), SiteId(4)]);
        let snap = RankSnapshot::new(
            2,
            "test".into(),
            Arc::new(vec![
                0.04, 0.09, 0.18, 0.13, 0.07, 0.11, 0.16, 0.10, 0.02, 0.10,
            ]),
            None,
            Arc::new(members),
            Arc::new(site_of),
            Staleness::Full,
        );
        srv.publish(&snap).unwrap();
        let (epoch, site_top) = srv.top_k_for_site(SiteId(4), 2).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(site_top, vec![(DocId(9), 0.10), (DocId(8), 0.02)]);
        let (_, score) = srv.score(DocId(8)).unwrap();
        assert_eq!(score, 0.02);
    }
}
