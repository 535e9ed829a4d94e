//! Property tests of the delta pipeline: for random mixed-mutation
//! sequences — growth *and* removal — `DocGraph::apply(delta)` followed by
//! `incremental_update` must reproduce a from-scratch `layered_doc_rank`
//! on the mutated graph — at one worker thread and at four — rank mass
//! must be conserved through every redistribution, and malformed deltas
//! must surface as errors, never as panics or silent misalignment.

use std::collections::{BTreeMap, BTreeSet};

use lmm_core::incremental::{diff_sites, incremental_update, SiteDelta};
use lmm_core::siterank::{layered_doc_rank, LayeredDocRank, LayeredRankConfig, SiteLayerMethod};
use lmm_core::LmmError;
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::{DocGraph, SiteId};
use lmm_linalg::vec_ops;
use proptest::prelude::*;

fn campus(seed: u64) -> DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.total_docs = 400;
    cfg.n_sites = 8;
    cfg.spam_farms.clear();
    cfg.seed = seed;
    cfg.generate().unwrap()
}

/// Splitmix-style deterministic stream for building mutation sequences.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Builds a random mixed delta against `graph`: intra rewires, cross
/// links, page growth, whole new sites, page/site removal, and cancelled
/// (add-then-remove) additions. `ops == 0` yields an empty delta. Tracks
/// planned removals so the delta stays valid: no double removal, no site
/// emptied without `remove_site`, at least two sites survive. Sites are
/// drawn from the live ones, so the generator also drives a chain of
/// deltas through tombstoned graphs (on a graph without tombstones the
/// draws are the slot indices themselves).
fn random_delta(graph: &DocGraph, stream: &mut Stream, ops: usize) -> GraphDelta {
    let mut delta = GraphDelta::for_graph(graph);
    let live: Vec<usize> = graph.live_sites().map(SiteId::index).collect();
    let n = live.len();
    let pick = |stream: &mut Stream| SiteId(live[stream.below(n)]);
    let mut removed_docs: BTreeSet<usize> = BTreeSet::new();
    let mut removed_sites: BTreeSet<usize> = BTreeSet::new();
    let mut lost_per_site: BTreeMap<usize, usize> = BTreeMap::new();
    // Base sites this delta adds pages to: `apply` rejects removing a
    // site while also adding pages to it (or removing its pages
    // explicitly), so site removal must avoid these.
    let mut added_to: BTreeSet<usize> = BTreeSet::new();
    for _ in 0..ops {
        match stream.below(8) {
            // Remove one page from a live site that keeps ≥ 2 members.
            5 => {
                let site = (0..n).map(|k| live[(stream.below(n) + k) % n]).find(|&s| {
                    !removed_sites.contains(&s)
                        && graph.site_size(SiteId(s))
                            > lost_per_site.get(&s).copied().unwrap_or(0) + 2
                });
                if let Some(s) = site {
                    let docs = graph.docs_of_site(SiteId(s));
                    let victim = (0..docs.len())
                        .map(|k| docs[(stream.below(docs.len()) + k) % docs.len()])
                        .find(|d| !removed_docs.contains(&d.index()));
                    if let Some(victim) = victim {
                        delta.remove_page(victim).unwrap();
                        removed_docs.insert(victim.index());
                        *lost_per_site.entry(s).or_insert(0) += 1;
                    }
                }
            }
            // Remove a whole site (keep at least two live; skip sites this
            // delta already grew or shrank).
            6 => {
                if removed_sites.len() + 2 < n {
                    let site = (0..n).map(|k| live[(stream.below(n) + k) % n]).find(|s| {
                        !removed_sites.contains(s)
                            && !added_to.contains(s)
                            && !lost_per_site.contains_key(s)
                    });
                    if let Some(s) = site {
                        delta.remove_site(SiteId(s)).unwrap();
                        removed_sites.insert(s);
                    }
                }
            }
            // Cancelled addition: add a page, link it, remove it again.
            7 => {
                let site = (0..n)
                    .map(|k| SiteId(live[(stream.below(n) + k) % n]))
                    .find(|s| !removed_sites.contains(&s.index()))
                    .expect("at least two sites survive");
                let root = graph.docs_of_site(site)[0];
                let url = format!("http://cancelled.example/{}", stream.next());
                let p = delta.add_page(site, &url).unwrap();
                delta.add_link(root, p).unwrap();
                delta.add_link(p, root).unwrap();
                delta.remove_page(p).unwrap();
                added_to.insert(site.index());
            }
            // Intra-site rewire.
            0 => {
                let site = pick(stream);
                let docs = graph.docs_of_site(site);
                if docs.len() >= 2 {
                    let a = docs[stream.below(docs.len())];
                    let b = docs[stream.below(docs.len())];
                    delta.remove_link(a, b).unwrap();
                    delta.add_link(b, a).unwrap();
                }
            }
            // Cross-site link.
            1 => {
                let s = pick(stream);
                let t = pick(stream);
                let a = graph.docs_of_site(s)[0];
                let b = graph.docs_of_site(t)[0];
                delta.add_link(a, b).unwrap();
            }
            // Grow an existing (not planned-removed) site by one page.
            2 => {
                let site = (0..n)
                    .map(|k| SiteId(live[(stream.below(n) + k) % n]))
                    .find(|s| !removed_sites.contains(&s.index()))
                    .expect("at least two sites survive");
                let root = graph.docs_of_site(site)[0];
                let url = format!("http://grown.example/{}", stream.next());
                let p = delta.add_page(site, &url).unwrap();
                delta.add_link(root, p).unwrap();
                delta.add_link(p, root).unwrap();
                added_to.insert(site.index());
            }
            // Append a whole new site with one or two pages.
            3 => {
                let name = format!("new-{}.example", stream.next());
                let s = delta.add_site(&name);
                let q0 = delta.add_page(s, &format!("http://{name}/")).unwrap();
                let anchor = graph.docs_of_site(pick(stream))[0];
                delta.add_link(anchor, q0).unwrap();
                delta.add_link(q0, anchor).unwrap();
                if stream.below(2) == 0 {
                    let q1 = delta.add_page(s, &format!("http://{name}/1")).unwrap();
                    delta.add_link(q0, q1).unwrap();
                    delta.add_link(q1, q0).unwrap();
                }
            }
            // Remove a (possibly absent) link — exercises no-op removals.
            _ => {
                let site = pick(stream);
                let docs = graph.docs_of_site(site);
                let a = docs[stream.below(docs.len())];
                let b = docs[stream.below(docs.len())];
                delta.remove_link(a, b).unwrap();
            }
        }
    }
    delta
}

/// FNV-1a fold of the bit patterns of `values` into `hash`.
fn fold_bits(hash: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(hash, |h, v| {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Digest of every score of a layered result — global, SiteRank and each
/// local vector — plus its iteration counters.
fn digest(hash: u64, r: &LayeredDocRank) -> u64 {
    let scores = r
        .local_ranks
        .iter()
        .chain([&r.site_rank, &r.global])
        .flat_map(|ranking| ranking.scores().iter().map(|x| x.to_bits()));
    let counters = [
        r.site_report.iterations as u64,
        r.total_local_iterations as u64,
        r.max_local_iterations as u64,
    ];
    fold_bits(fold_bits(hash, scores), counters)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Bit-for-bit pin of the layered pipeline: cold PageRank and Stationary
/// site layers on a graph without tombstones and on a tombstoned one, and
/// 240 chained mixed deltas (growth, removal, rewires, new sites) through
/// `incremental_update` — at one worker thread and at four.
/// The constants are the digests of the implementation this test was
/// written against; any change to the arithmetic of any step moves one.
#[test]
fn layered_rankings_are_bit_pinned() {
    for threads in [1usize, 4] {
        let cfg = LayeredRankConfig {
            threads,
            ..LayeredRankConfig::default()
        };
        let base = campus(3);
        let cold = layered_doc_rank(&base, &cfg).unwrap();
        assert_eq!(
            digest(FNV_OFFSET, &cold),
            COLD_PAGERANK,
            "threads {threads}"
        );
        let stationary = LayeredRankConfig {
            site_method: SiteLayerMethod::Stationary,
            ..cfg.clone()
        };
        let cold_stationary = layered_doc_rank(&base, &stationary).unwrap();
        assert_eq!(
            digest(FNV_OFFSET, &cold_stationary),
            COLD_STATIONARY,
            "threads {threads}"
        );

        let mut removal = GraphDelta::for_graph(&base);
        removal.remove_site(SiteId(2)).unwrap();
        removal
            .remove_page(base.docs_of_site(SiteId(5))[1])
            .unwrap();
        let (tombstoned, _) = base.apply(&removal).unwrap();
        let cold_tombstoned = [&cfg, &stationary].into_iter().fold(FNV_OFFSET, |h, c| {
            digest(h, &layered_doc_rank(&tombstoned, c).unwrap())
        });
        assert_eq!(cold_tombstoned, COLD_TOMBSTONED, "threads {threads}");

        assert_eq!(
            churn(&base, cold, &cfg, 240).unwrap(),
            CHURN,
            "threads {threads}"
        );
        // The un-damped site chain turns periodic 30 deltas into this
        // stream, so the Stationary run pins its first 24.
        assert_eq!(
            churn(&base, cold_stationary, &stationary, 24).unwrap(),
            STATIONARY_CHURN,
            "threads {threads}"
        );
    }
}

/// Digest of `steps` chained random deltas through `incremental_update`,
/// starting from `result`, the ranking of `base`; or the index (from 0)
/// of the first delta that failed, with its error.
fn churn(
    base: &DocGraph,
    mut result: LayeredDocRank,
    cfg: &LayeredRankConfig,
    steps: usize,
) -> Result<u64, (usize, LmmError)> {
    let mut stream = Stream(0x9e11);
    let mut graph = base.clone();
    let mut hash = FNV_OFFSET;
    for step in 0..steps {
        let ops = 1 + stream.below(4);
        let delta = random_delta(&graph, &mut stream, ops);
        let (next, applied) = graph.apply(&delta).unwrap();
        let (updated, _) = incremental_update(&result, &next, &SiteDelta::from(&applied), cfg)
            .map_err(|e| (step, e))?;
        hash = digest(hash, &updated);
        (graph, result) = (next, updated);
    }
    Ok(hash)
}

/// The Stationary stream of the pin above meets a site chain with a
/// periodic recurrent class at delta 30 (counting from 0). The un-damped
/// site layer refuses it by its structure, before any power step, instead
/// of spending the whole iteration budget and failing as `NotConverged`.
/// The reducible chains it meets earlier, whose recurrent classes are
/// aperiodic, still converge.
#[test]
fn stationary_site_layer_refuses_a_periodic_chain_up_front() {
    let stationary = LayeredRankConfig {
        site_method: SiteLayerMethod::Stationary,
        ..LayeredRankConfig::default()
    };
    let base = campus(3);
    let cold = layered_doc_rank(&base, &stationary).unwrap();
    match churn(&base, cold, &stationary, 40) {
        Err((30, LmmError::PhaseMatrixNotPrimitive { period, .. })) => assert!(period > 1),
        other => panic!("expected delta 30 to meet a periodic site chain, got {other:?}"),
    }
}

const COLD_PAGERANK: u64 = 0x058c_868d_b5d3_73b4;
const COLD_STATIONARY: u64 = 0x9c18_4928_5fa7_d82d;
const COLD_TOMBSTONED: u64 = 0x53c7_c523_2404_cfe4;
const CHURN: u64 = 0x99aa_530c_8487_73cc;
const STATIONARY_CHURN: u64 = 0x3b2b_a6da_f674_45e5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// apply(delta) + incremental_update ≡ from-scratch layered_doc_rank,
    /// across random mixed add/remove/grow churn, at 1 and 4 threads, with
    /// the apply-time summary agreeing with the two-snapshot diff, exact
    /// `UpdateStats` locality, and rank mass conserved through every
    /// removal redistribution.
    #[test]
    fn incremental_matches_scratch_under_mixed_mutations(
        graph_seed in 0u64..4,
        delta_seed in any::<u64>(),
        ops in 0usize..10,
    ) {
        let base = campus(graph_seed);
        let mut stream = Stream(delta_seed);
        let delta = random_delta(&base, &mut stream, ops);
        let (mutated, applied) = base.apply(&delta).expect("valid random delta");
        let site_delta = SiteDelta::from(&applied);
        prop_assert_eq!(&site_delta, &diff_sites(&base, &mutated).expect("churn diff"));
        let live_added = (base.n_sites()..mutated.n_sites())
            .filter(|&s| mutated.is_live_site(SiteId(s)))
            .count();

        for threads in [1usize, 4] {
            let cfg = LayeredRankConfig {
                threads,
                ..LayeredRankConfig::default()
            };
            let previous = layered_doc_rank(&base, &cfg).expect("base rank");
            let (updated, stats) =
                incremental_update(&previous, &mutated, &site_delta, &cfg).expect("update");
            let scratch = layered_doc_rank(&mutated, &cfg).expect("scratch rank");
            let drift = vec_ops::l1_diff(updated.global.scores(), scratch.global.scores());
            prop_assert!(drift < 1e-7, "drift {} at {} threads", drift, threads);
            let mass: f64 = updated.global.scores().iter().sum();
            prop_assert!((mass - 1.0).abs() < 1e-9, "mass {} at {} threads", mass, threads);
            prop_assert_eq!(
                stats.sites_recomputed + stats.sites_reused,
                mutated.n_live_sites()
            );
            prop_assert_eq!(
                stats.sites_recomputed,
                site_delta.changed_sites.len()
                    + site_delta.grown_sites.len()
                    + site_delta.shrunk_sites.len()
                    + live_added
            );
            prop_assert_eq!(stats.sites_removed, site_delta.removed_sites.len());
            prop_assert_eq!(stats.sites_shrunk, site_delta.shrunk_sites.len());
            prop_assert_eq!(updated.local_ranks.len(), mutated.n_sites());
            prop_assert_eq!(updated.global.len(), mutated.n_docs());
            // Dead slots hold no rank.
            for &d in mutated.dead_docs() {
                prop_assert_eq!(updated.global.score(d.index()), 0.0);
            }
        }
    }

    /// Duplicate site entries in a hand-built delta never inflate the
    /// accounting or panic — they dedup, and the result still matches a
    /// scratch recomputation.
    #[test]
    fn duplicate_entries_dedup(graph_seed in 0u64..4, site in 0usize..8) {
        let base = campus(graph_seed);
        let mut delta = GraphDelta::for_graph(&base);
        let docs = base.docs_of_site(SiteId(site));
        delta.remove_link(docs[0], docs[1]).unwrap();
        delta.add_link(docs[1], docs[0]).unwrap();
        let (mutated, applied) = base.apply(&delta).expect("apply");
        let mut noisy = SiteDelta::from(&applied);
        // Triple every entry.
        let doubled: Vec<usize> =
            noisy.changed_sites.iter().flat_map(|&s| [s, s, s]).collect();
        noisy.changed_sites = doubled;
        let cfg = LayeredRankConfig::default();
        let previous = layered_doc_rank(&base, &cfg).expect("base rank");
        let (updated, stats) =
            incremental_update(&previous, &mutated, &noisy, &cfg).expect("noisy update");
        prop_assert!(stats.sites_recomputed <= mutated.n_sites());
        prop_assert_eq!(stats.sites_reused, mutated.n_sites() - stats.sites_recomputed);
        let scratch = layered_doc_rank(&mutated, &cfg).expect("scratch");
        prop_assert!(
            vec_ops::l1_diff(updated.global.scores(), scratch.global.scores()) < 1e-7
        );
    }

    /// Grow-only deltas (no link rewires among existing pages) recompute
    /// exactly the grown/added sites.
    #[test]
    fn grow_only_deltas_localize_work(
        graph_seed in 0u64..4,
        delta_seed in any::<u64>(),
        n_growth in 1usize..4,
    ) {
        let base = campus(graph_seed);
        let mut stream = Stream(delta_seed);
        let mut delta = GraphDelta::for_graph(&base);
        let mut touched = std::collections::BTreeSet::new();
        for _ in 0..n_growth {
            let site = SiteId(stream.below(base.n_sites()));
            touched.insert(site.index());
            let root = base.docs_of_site(site)[0];
            let url = format!("http://grow-only.example/{}", stream.next());
            let p = delta.add_page(site, &url).unwrap();
            delta.add_link(root, p).unwrap();
            delta.add_link(p, root).unwrap();
        }
        let (mutated, applied) = base.apply(&delta).expect("apply");
        prop_assert_eq!(&applied.grown_sites, &touched.iter().copied().collect::<Vec<_>>());
        prop_assert!(applied.changed_sites.is_empty());
        let cfg = LayeredRankConfig::default();
        let previous = layered_doc_rank(&base, &cfg).expect("base rank");
        let (updated, stats) = incremental_update(
            &previous,
            &mutated,
            &SiteDelta::from(&applied),
            &cfg,
        ).expect("update");
        prop_assert_eq!(stats.sites_recomputed, touched.len());
        prop_assert_eq!(stats.sites_grown, touched.len());
        prop_assert_eq!(stats.sites_added, 0);
        let scratch = layered_doc_rank(&mutated, &cfg).expect("scratch");
        prop_assert!(
            vec_ops::l1_diff(updated.global.scores(), scratch.global.scores()) < 1e-7
        );
    }

    /// Empty deltas are exact no-ops through the whole pipeline.
    #[test]
    fn empty_deltas_are_noops(graph_seed in 0u64..4) {
        let base = campus(graph_seed);
        let delta = GraphDelta::for_graph(&base);
        let (mutated, applied) = base.apply(&delta).expect("apply");
        prop_assert!(applied.is_empty());
        prop_assert_eq!(&base, &mutated);
        let cfg = LayeredRankConfig::default();
        let previous = layered_doc_rank(&base, &cfg).expect("base rank");
        let (updated, stats) = incremental_update(
            &previous,
            &mutated,
            &SiteDelta::from(&applied),
            &cfg,
        ).expect("update");
        prop_assert_eq!(stats.sites_recomputed, 0);
        prop_assert_eq!(stats.sites_reused, base.n_sites());
        prop_assert!(!stats.site_rank_recomputed);
        prop_assert_eq!(updated.global.scores(), previous.global.scores());
    }
}
