//! Refresh ≡ rebuild over a seeded delta stream.
//!
//! A SiteRank rerun rescales every site by its new weight but leaves the
//! local vectors of unnamed sites untouched, so the publisher *refreshes*
//! their shards — reusing the per-site orders — instead of re-sorting
//! them. This test checks that claim instead of arguing it: 240 seeded
//! local, global (cross link; cross link + new site, at times beside a
//! cancelled same-delta site addition) and removal deltas run
//! `RankEngine::apply_delta` → `ShardedServer::publish`, and after
//! every publish every shard's top list and every site's full order equal
//! a from-scratch `ShardState::build` of the same snapshot, entry for
//! entry, while the rebuilt shards are exactly those the staleness names
//! and re-sort only the named sites.
//!
//! The same stream also checks that a delta copies only what it touched:
//! at every layer — the core's local ranks, the snapshot's member lists
//! and scores, the shard stores' per-site orders — each site the delta
//! does not name keeps the very allocation of the previous epoch.

use std::sync::Arc;

use lmm_core::incremental::{incremental_update, SiteDelta};
use lmm_core::siterank::{layered_doc_rank, LayeredRankConfig};
use lmm_engine::{BackendSpec, RankEngine, RankSnapshot, Staleness};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocGraph, SiteId};
use lmm_serve::{
    publish_grades, shard_site_range, ServeConfig, ServeError, ShardState, ShardedServer, SiteTopK,
    SwapGrade,
};

const STEPS: usize = 240;
const N_SHARDS: usize = 4;
/// Smaller than every shard, so refreshed top lists are real merges.
const HEAP_K: usize = 16;

/// Deterministic xorshift64* for the delta stream.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, m: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % m
    }

    /// A uniformly drawn live site with at least `min_size` pages.
    fn site(&mut self, graph: &DocGraph, min_size: usize) -> SiteId {
        let live: Vec<SiteId> = (0..graph.n_sites())
            .map(SiteId)
            .filter(|&s| graph.is_live_site(s) && graph.site_size(s) >= min_size)
            .collect();
        live[self.below(live.len())]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Local,
    CrossLink,
    NewSite,
    Removal,
}

fn delta(graph: &DocGraph, step: usize, rng: &mut XorShift) -> (GraphDelta, Kind) {
    let mut delta = GraphDelta::for_graph(graph);
    let kind = match rng.below(10) {
        0..=3 => Kind::Local,
        4..=5 => Kind::CrossLink,
        6..=7 => Kind::NewSite,
        _ => Kind::Removal,
    };
    // An intra-site rewire: local deltas always carry one, global deltas
    // every third step, so a SiteRank rerun also names a changed site.
    if kind == Kind::Local || (kind != Kind::Removal && step.is_multiple_of(3)) {
        let docs = graph.docs_of_site(rng.site(graph, 3));
        delta.remove_link(docs[0], docs[1]).unwrap();
        delta.add_link(docs[1], docs[2]).unwrap();
        delta.add_link(docs[2], docs[0]).unwrap();
    }
    match kind {
        Kind::Local => {
            // Every other time with a page of growth.
            let docs = graph.docs_of_site(rng.site(graph, 1));
            if step.is_multiple_of(2) {
                let p = delta
                    .add_page(graph.site_of(docs[0]), &format!("http://grow-{step}.page/"))
                    .unwrap();
                delta.add_link(docs[0], p).unwrap();
                delta.add_link(p, docs[0]).unwrap();
            }
        }
        Kind::CrossLink | Kind::NewSite => {
            let a = rng.site(graph, 1);
            let mut b = rng.site(graph, 1);
            while b == a {
                b = rng.site(graph, 1);
            }
            let (a, b) = (graph.docs_of_site(a)[0], graph.docs_of_site(b)[0]);
            delta.add_link(a, b).unwrap();
            if kind == Kind::NewSite {
                let s = delta.add_site(&format!("stream-{step}.example"));
                let pages: Vec<_> = (0..3)
                    .map(|i| {
                        delta
                            .add_page(s, &format!("http://stream-{step}.example/{i}"))
                            .unwrap()
                    })
                    .collect();
                for w in pages.windows(2) {
                    delta.add_link(w[0], w[1]).unwrap();
                }
                delta.add_link(pages[2], pages[0]).unwrap();
                delta.add_link(a, pages[0]).unwrap();
                delta.add_link(pages[0], a).unwrap();
            } else if step.is_multiple_of(5) {
                // A cancelled same-delta addition: a slot appended dead,
                // with no live site beside it to rebuild the last shard.
                let gone = delta.add_site(&format!("gone-{step}.example"));
                delta
                    .add_page(gone, &format!("http://gone-{step}.example/"))
                    .unwrap();
                delta.remove_site(gone).unwrap();
            }
        }
        Kind::Removal => {
            // Retire a whole site when enough remain, else shrink one.
            if graph.n_live_sites() > 10 && step.is_multiple_of(2) {
                delta.remove_site(rng.site(graph, 1)).unwrap();
            } else {
                let docs = graph.docs_of_site(rng.site(graph, 4));
                delta.remove_page(docs[docs.len() - 1]).unwrap();
            }
        }
    }
    (delta, kind)
}

/// The staleness set's rebuild names, sorted: recomputed sites plus
/// removed ones.
fn named_sites(snapshot: &RankSnapshot) -> Vec<usize> {
    let mut named: Vec<usize> = match snapshot.staleness() {
        Staleness::Sites(sites) => sites.clone(),
        Staleness::Resized {
            sites,
            removed_sites,
        } => sites.iter().chain(removed_sites).copied().collect(),
        Staleness::Full => panic!("apply_delta must never report Full"),
    };
    named.sort_unstable();
    named
}

fn campus() -> DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.total_docs = 600;
    cfg.n_sites = 12;
    cfg.spam_farms.clear();
    cfg.generate().unwrap()
}

fn incremental_engine(threads: usize) -> RankEngine {
    RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .threads(threads)
        .build()
        .unwrap()
}

#[test]
fn refreshed_shards_equal_rebuilt_shards_over_a_delta_stream() {
    let mut graph = campus();
    let mut engine = incremental_engine(1);
    engine.rank(&graph).unwrap();
    let map = ShardMap::uniform(graph.n_sites(), N_SHARDS).unwrap();
    let first = engine.snapshot().unwrap();
    let server = ShardedServer::start(map.clone(), &first, ServeConfig { heap_k: HEAP_K }).unwrap();
    // The shard stores a publish derives, mirrored the way a cluster node
    // keeps them: graded by the same `publish_grades`, never rebuilt
    // unless graded so.
    let mut shards: Vec<ShardState> = (0..N_SHARDS)
        .map(|s| ShardState::build(&first, shard_site_range(&map, s, first.n_sites()), HEAP_K))
        .collect();

    let mut rng = XorShift(0x5eed_2024);
    let mut refreshed_by_kind = [0usize; 4];
    let mut reruns_naming_sites = 0usize;
    let mut dead_slots = 0usize;
    for step in 0..STEPS {
        let (delta, kind) = delta(&graph, step, &mut rng);
        let (mutated, _) = graph.apply(&delta).unwrap();
        dead_slots += (graph.n_sites()..mutated.n_sites())
            .filter(|&s| !mutated.is_live_site(SiteId(s)))
            .count();
        engine.apply_delta(&delta).unwrap();
        let snapshot = engine.snapshot().unwrap();
        if matches!(snapshot.staleness(), Staleness::Resized { sites, .. } if !sites.is_empty()) {
            reruns_naming_sites += 1;
        }

        let grades = publish_grades(&map, server.epoch(), &snapshot);
        let report = server.publish(&snapshot).unwrap();
        let rebuilt: Vec<usize> = (0..N_SHARDS)
            .filter(|&s| grades[s] == SwapGrade::Rebuild)
            .collect();
        assert_eq!(
            rebuilt,
            map.shards_of_sites(named_sites(&snapshot)),
            "step {step} ({kind:?}): rebuilt shards differ from the named ones"
        );
        let count = |g| grades.iter().filter(|&&x| x == g).count();
        assert_eq!(
            (
                report.shards_rebuilt,
                report.shards_refreshed,
                report.shards_repinned
            ),
            (
                count(SwapGrade::Rebuild),
                count(SwapGrade::Refresh),
                count(SwapGrade::Repin)
            ),
            "step {step} ({kind:?})"
        );
        refreshed_by_kind[kind as usize] += report.shards_refreshed;

        for (s, (state, grade)) in shards.iter_mut().zip(&grades).enumerate() {
            let range = shard_site_range(&map, s, snapshot.n_sites());
            *state = match grade {
                SwapGrade::Rebuild => {
                    state.rebuild(&snapshot, range.clone(), &named_sites(&snapshot), HEAP_K)
                }
                SwapGrade::Refresh => state.refresh(&snapshot, HEAP_K),
                SwapGrade::Repin => state.repin(&snapshot),
            };
            let fresh = ShardState::build(&snapshot, range.clone(), HEAP_K);
            assert_eq!(
                state.top_k(HEAP_K),
                fresh.top_k(HEAP_K),
                "step {step} ({kind:?}): shard {s} top list ({grade:?}) differs from a rebuild"
            );
            for site in range.start..range.end.min(snapshot.n_sites()) {
                let want = fresh.site_top_k(SiteId(site), usize::MAX);
                assert_eq!(
                    state.site_top_k(SiteId(site), usize::MAX),
                    want,
                    "step {step} ({kind:?}): site {site} order ({grade:?}) differs from a rebuild"
                );
                let served = server.top_k_for_site(SiteId(site), usize::MAX);
                match want {
                    SiteTopK::Entries(entries) => {
                        assert_eq!(served.unwrap(), (snapshot.epoch(), entries), "site {site}");
                    }
                    SiteTopK::Tombstoned => assert!(
                        matches!(served, Err(ServeError::TombstonedSite { .. })),
                        "step {step}: site {site} answered {served:?}"
                    ),
                    SiteTopK::NotCovered => panic!("step {step}: site {site} not covered"),
                }
            }
        }
        assert_eq!(
            server.top_k(HEAP_K).unwrap(),
            (snapshot.epoch(), engine.top_k(HEAP_K).unwrap()),
            "step {step} ({kind:?}): served top-k differs from the engine's"
        );
        graph = mutated;
    }
    // Both global kinds reached the refresh path, not only removals;
    // SiteRank reruns also rebuilt the sites they recomputed, and slots
    // appended dead were among the checked sites.
    for kind in [Kind::CrossLink, Kind::NewSite, Kind::Removal] {
        assert!(
            refreshed_by_kind[kind as usize] > 0,
            "{kind:?} never refreshed"
        );
    }
    assert!(reruns_naming_sites > 0);
    assert!(dead_slots > 0);
}

#[test]
fn unnamed_sites_share_their_buffers_at_every_layer() {
    for threads in [1usize, 4] {
        let mut graph = campus();
        let mut engine = incremental_engine(threads);
        engine.rank(&graph).unwrap();
        let config = LayeredRankConfig {
            threads,
            ..LayeredRankConfig::with_damping(0.85)
        };
        let mut layered = layered_doc_rank(&graph, &config).unwrap();
        let map = ShardMap::uniform(graph.n_sites(), N_SHARDS).unwrap();
        let mut snapshot = engine.snapshot().unwrap();
        let server = ShardedServer::start(map, &snapshot, ServeConfig { heap_k: HEAP_K }).unwrap();
        let mut rng = XorShift(0x5eed_2024);
        let (mut shared_orders, mut resorted_orders) = (0usize, 0usize);
        for step in 0..STEPS {
            let (delta, kind) = delta(&graph, step, &mut rng);
            let (mutated, applied) = graph.apply(&delta).unwrap();
            let mut named: Vec<usize> = applied.changed_sites.clone();
            named.extend(&applied.grown_sites);
            named.extend(&applied.shrunk_sites);
            named.extend(&applied.removed_sites);
            let untouched = |s: &usize| !named.contains(s) && *s < graph.n_sites();

            // Core: an untouched site's local ranking is the same buffer.
            let (next, _) =
                incremental_update(&layered, &mutated, &SiteDelta::from(&applied), &config)
                    .unwrap();
            for s in (0..graph.n_sites()).filter(untouched) {
                assert!(
                    Arc::ptr_eq(
                        layered.local_ranks[s].shared_scores(),
                        next.local_ranks[s].shared_scores()
                    ),
                    "threads {threads}, step {step} ({kind:?}): site {s}'s local ranks copied"
                );
            }

            // Engine: the snapshot serves the outcome's own score buffer,
            // and an untouched site's member list is the previous one.
            engine.apply_delta(&delta).unwrap();
            let next_snapshot = engine.snapshot().unwrap();
            assert!(std::ptr::eq(
                next_snapshot.scores(),
                engine.outcome().unwrap().ranking.scores()
            ));
            for s in (0..graph.n_sites()).filter(untouched) {
                assert!(
                    std::ptr::eq(
                        snapshot.members_of_site(SiteId(s)),
                        next_snapshot.members_of_site(SiteId(s))
                    ),
                    "threads {threads}, step {step} ({kind:?}): site {s}'s members copied"
                );
            }

            // Serve: in every shard, an unnamed site keeps its order.
            let before = server.shard_states();
            server.publish(&next_snapshot).unwrap();
            let stale = named_sites(&next_snapshot);
            for (old, new) in before.iter().zip(server.shard_states()) {
                for site in old.sites().clone() {
                    let (Some(a), Some(b)) =
                        (old.site_order(SiteId(site)), new.site_order(SiteId(site)))
                    else {
                        continue;
                    };
                    if stale.binary_search(&site).is_ok() {
                        resorted_orders += usize::from(!Arc::ptr_eq(a, b));
                    } else {
                        assert!(
                            Arc::ptr_eq(a, b),
                            "threads {threads}, step {step} ({kind:?}): site {site}'s order copied"
                        );
                        shared_orders += 1;
                    }
                }
            }
            graph = mutated;
            layered = next;
            snapshot = next_snapshot;
        }
        assert!(shared_orders > 0 && resorted_orders > 0);
    }
}
