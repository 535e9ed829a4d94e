//! Theorem 2, the Partition Theorem, at scale: on random Layered Markov
//! Models of growing size and on campus webs through the `RankEngine`, the
//! decentralized Layered Method (Approach 4) reproduces the global
//! stationary distribution (Approach 2) to numerical precision.

use lmm::core::approaches::LmmParams;
use lmm::core::model::LayeredMarkovModel;
use lmm::core::synth::{random_model, random_sparse_model};
use lmm::core::verify_partition_theorem;
use lmm::engine::BackendSpec;
use lmm::graph::generator::CampusWebConfig;

use crate::{experiment_engine, section, Claims, Result, Table, LAYERED_METHOD};

pub fn run(_full: bool, claims: &mut Claims) -> Result {
    section("Random models: dense (positive Y and U_I), sparse (web-like)");
    let mut table = Table::new(&["model", "states", "|A2-A4|_1", "same order", "iters A2"]);
    // One row per model and its Theorem 2 claim, which holds to 1e-9.
    let mut check = |model: String, lmm: &LayeredMarkovModel, alpha: f64| -> Result {
        let check = verify_partition_theorem(lmm, &LmmParams::with_factor(alpha))?;
        claims.within(&format!("{model}: |A2-A4|_inf"), check.linf, 0.0, 1e-9);
        table.row(vec![
            model,
            check.states.to_string(),
            format!("{:.2e}", check.l1),
            check.same_order.to_string(),
            check.central_iterations.to_string(),
        ]);
        Ok(())
    };
    for (n_phases, min_sub, max_sub, seed) in [
        (3usize, 2usize, 5usize, 1u64),
        (8, 4, 12, 2),
        (16, 8, 24, 3),
        (32, 16, 48, 4),
        (64, 16, 64, 5),
    ] {
        let model = random_model(n_phases, min_sub, max_sub, seed);
        check(format!("dense, {n_phases} phases"), &model, 0.85)?;
    }
    for (n_phases, sub, seed) in [(16usize, 100usize, 7u64), (32, 250, 8), (64, 500, 9)] {
        let model = random_sparse_model(n_phases, sub, 6, seed);
        check(format!("sparse, {n_phases} phases"), &model, 0.85)?;
    }
    let model = random_model(64, 8, 24, 11);
    for alpha in [0.5, 0.7, 0.85, 0.95, 0.99] {
        check(format!("dense, 64 phases, alpha {alpha}"), &model, alpha)?;
    }
    print!("{table}");

    section("Web instantiation through the unified RankEngine");
    let mut table = Table::new(&["docs", "sites", "top-20 overlap"]);
    for (total_docs, n_sites, seed) in [(600usize, 12usize, 1u64), (2_000, 30, 2), (6_000, 60, 3)] {
        let mut cfg = CampusWebConfig::small();
        cfg.total_docs = total_docs;
        cfg.n_sites = n_sites;
        cfg.seed = seed;
        cfg.spam_farms.truncate(1);
        cfg.spam_farms[0].host_site = n_sites / 2;
        cfg.spam_farms[0].n_pages = total_docs / 20;
        let graph = cfg.generate()?;
        let mut a2 = experiment_engine(BackendSpec::CentralizedStationary).build()?;
        a2.rank(&graph)?;
        let mut a4 = experiment_engine(LAYERED_METHOD).build()?;
        a4.rank(&graph)?;
        let cmp = a2.compare(a4.outcome()?, 20)?;
        table.row(vec![
            graph.n_docs().to_string(),
            graph.n_sites().to_string(),
            format!("{:.0}%", 100.0 * cmp.top_k_overlap),
        ]);
        // Many more local chains compose here than in a random model.
        let claim = format!("web, {} docs: |A2-A4|_inf", graph.n_docs());
        claims.within(&claim, cmp.linf, 0.0, 1e-8);
    }
    print!("{table}");
    Ok(())
}
