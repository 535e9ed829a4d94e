//! Cross-crate guarantees of the distributed simulator (the acceptance
//! criteria of `lmm-repro distributed`): every layered architecture
//! computes the same ranking as the single-process pipeline, with and
//! without failures.

use lmm::core::siterank::{flat_pagerank, layered_doc_rank, LayeredRankConfig};
use lmm::graph::generator::CampusWebConfig;
use lmm::linalg::{vec_ops, PowerOptions};
use lmm::p2p::runner::{run_distributed, Architecture, DistributedConfig};
use lmm::p2p::FaultConfig;

fn campus() -> lmm::graph::DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.total_docs = 1_000;
    cfg.n_sites = 20;
    cfg.spam_farms.truncate(1);
    cfg.spam_farms[0].host_site = 7;
    cfg.spam_farms[0].n_pages = 100;
    cfg.generate().expect("campus web")
}

#[test]
fn every_layered_architecture_matches_the_reference_pipeline() {
    let graph = campus();
    let reference = layered_doc_rank(&graph, &LayeredRankConfig::default()).expect("reference");
    for arch in [
        Architecture::Flat,
        Architecture::SuperPeer { n_groups: 4 },
        Architecture::SuperPeer { n_groups: 20 }, // degenerate: flat
        Architecture::Hybrid,
    ] {
        let outcome = run_distributed(
            &graph,
            &DistributedConfig::default().with_architecture(arch),
        )
        .expect("distributed run");
        assert!(
            vec_ops::l1_diff(outcome.global.scores(), reference.global.scores()) < 1e-6,
            "{arch} diverged from the reference pipeline"
        );
        assert!(
            vec_ops::l1_diff(outcome.site_rank.scores(), reference.site_rank.scores()) < 1e-6,
            "{arch} site rank diverged"
        );
    }
}

#[test]
fn centralized_baseline_equals_flat_pagerank() {
    let graph = campus();
    let outcome = run_distributed(
        &graph,
        &DistributedConfig::default().with_architecture(Architecture::Centralized),
    )
    .expect("centralized run");
    let flat = flat_pagerank(&graph, 0.85, &PowerOptions::with_tol(1e-10), 0).expect("flat");
    assert!(vec_ops::l1_diff(outcome.global.scores(), flat.ranking.scores()) < 1e-8);
}

#[test]
fn message_loss_never_changes_the_answer() {
    let graph = campus();
    let clean = run_distributed(&graph, &DistributedConfig::default()).expect("clean");
    for drop_prob in [0.05, 0.25, 0.5] {
        let cfg = DistributedConfig {
            fault: Some(FaultConfig {
                drop_prob,
                seed: 99,
            }),
            ..DistributedConfig::default()
        };
        let lossy = run_distributed(&graph, &cfg).expect("lossy run");
        assert!(
            vec_ops::l1_diff(clean.global.scores(), lossy.global.scores()) < 1e-9,
            "loss rate {drop_prob} changed the ranking"
        );
        assert!(lossy.stats.total().retransmissions > 0);
    }
}

#[test]
fn traffic_ordering_across_architectures() {
    let graph = campus();
    let flat = run_distributed(&graph, &DistributedConfig::default()).expect("flat");
    let superpeer = run_distributed(
        &graph,
        &DistributedConfig::default().with_architecture(Architecture::SuperPeer { n_groups: 4 }),
    )
    .expect("superpeer");
    let hybrid = run_distributed(
        &graph,
        &DistributedConfig::default().with_architecture(Architecture::Hybrid),
    )
    .expect("hybrid");
    // Message counts: batching and central siterank each cut traffic.
    assert!(superpeer.stats.total().messages < flat.stats.total().messages);
    assert!(hybrid.stats.total().messages < superpeer.stats.total().messages);
}

#[test]
fn rounds_match_central_iteration_count_closely() {
    // The distributed siterank is the same Jacobi iteration as the central
    // power method; rounds should be within a couple of iterations (the
    // stop decision lags one round).
    let graph = campus();
    let outcome = run_distributed(&graph, &DistributedConfig::default()).expect("flat");
    let reference = layered_doc_rank(&graph, &LayeredRankConfig::default()).expect("reference");
    let central_iters = reference.site_report.iterations as i64;
    let rounds = i64::from(outcome.siterank_rounds);
    assert!(
        (rounds - central_iters).abs() <= 3,
        "rounds {rounds} vs central iterations {central_iters}"
    );
}

#[test]
fn outcome_reports_all_phases() {
    let graph = campus();
    let outcome = run_distributed(&graph, &DistributedConfig::default()).expect("flat");
    let names: Vec<&str> = outcome.stats.phases.iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        vec![
            "sitegraph",
            "siterank rounds",
            "local docranks",
            "aggregation"
        ]
    );
    // Local docranks are compute-only.
    assert_eq!(outcome.stats.phases[2].traffic.messages, 0);
    assert!(outcome.stats.total_wall().as_nanos() > 0);
}

/// FNV-1a fold of the bit patterns of `values` into `hash`.
fn fold_bits(hash: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(hash, |h, v| {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Bit-for-bit pin of every architecture's answer and traffic: the global
/// and site scores, the SiteRank rounds and each phase's messages and
/// bytes, at one worker thread and at four. The constant is the digest of
/// the implementation this test was written against.
#[test]
fn distributed_rankings_are_bit_pinned() {
    let graph = campus();
    for threads in [1usize, 4] {
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for arch in [
            Architecture::Flat,
            Architecture::SuperPeer { n_groups: 4 },
            Architecture::Hybrid,
            Architecture::Centralized,
        ] {
            let config = DistributedConfig {
                threads,
                ..DistributedConfig::default().with_architecture(arch)
            };
            let outcome = run_distributed(&graph, &config).expect("distributed run");
            let scores = outcome
                .global
                .scores()
                .iter()
                .chain(outcome.site_rank.scores());
            hash = fold_bits(hash, scores.map(|x| x.to_bits()));
            let phases = outcome.stats.phases.iter();
            hash = fold_bits(
                hash,
                phases.flat_map(|p| [p.traffic.messages, p.traffic.bytes, u64::from(p.rounds)]),
            );
            hash = fold_bits(hash, [u64::from(outcome.siterank_rounds)]);
        }
        assert_eq!(hash, DISTRIBUTED, "threads {threads}");
    }
}

const DISTRIBUTED: u64 = 0xbffa_7708_b0ea_c33f;
