//! The §2.3.3 complexity claim: "the aggregation of those vectors where
//! only O(N) multiplications are necessary. In contrast, previous methods
//! require a large number of multiplications of two N x N matrices until
//! the resulting vector converges."
//!
//! Times, for growing state counts, Approach 2 on the explicit `W`
//! (materialize + power iterate, the centralized straw man), Approach 2
//! through the implicit factored operator, and Approach 4, the Layered
//! Method — the last both as total sequential work and as the critical
//! path when phases compute in parallel.

use std::time::{Duration, Instant};

use lmm::core::approaches::{compute, LmmParams, RankApproach};
use lmm::core::global::{global_transition_matrix, phase_gatekeeper_distributions};
use lmm::core::synth::random_sparse_model;
use lmm::engine::BackendSpec;
use lmm::graph::generator::CampusWebConfig;
use lmm::linalg::{power::stationary_distribution, vec_ops};

use crate::{experiment_engine, section, Claims, Result, Table, LAYERED_METHOD};

/// Materializing `W` costs nnz(W) = states² (its block rows are dense for
/// a positive `Y`): past ~10k states that is minutes of work and tens of
/// GB — the quadratic wall the factored operator removes.
const EXPLICIT_CAP: usize = 10_000;

pub fn run(_full: bool, claims: &mut Claims) -> Result {
    section("Centralized vs layered computation time");
    let params = LmmParams::default();
    let mut table = Table::new(&[
        "phases",
        "states",
        "explicit W",
        "implicit A2",
        "layered A4",
        "nnz(W)",
    ]);
    for (n_phases, sub, seed) in [
        (8usize, 50usize, 1u64),
        (16, 100, 2),
        (32, 200, 3),
        (64, 400, 4),
        (128, 400, 5),
    ] {
        let model = random_sparse_model(n_phases, sub, 6, seed);
        let dists = phase_gatekeeper_distributions(&model, params.alpha, &params.power)?;
        let states = model.total_states();

        let (t_explicit, nnz_w) = if states <= EXPLICIT_CAP {
            let start = Instant::now();
            let w = global_transition_matrix(&model, &dists)?;
            let (pi, _) = stationary_distribution(&w, &params.power)?;
            std::hint::black_box(pi);
            (format!("{:.2?}", start.elapsed()), w.nnz())
        } else {
            // states² entries would not fit in memory; report the size.
            ("skipped".to_string(), states * states)
        };

        let start = Instant::now();
        let a2 = compute(&model, RankApproach::StationaryOfGlobal, &params)?;
        let t_implicit = start.elapsed();
        let start = Instant::now();
        let a4 = compute(&model, RankApproach::Layered, &params)?;
        let t_layered = start.elapsed();
        let linf = vec_ops::linf_diff(a2.scores(), a4.scores());
        claims.within(&format!("{states} states: |A2-A4|_inf"), linf, 0.0, 1e-9);

        table.row(vec![
            n_phases.to_string(),
            states.to_string(),
            t_explicit,
            format!("{t_implicit:.2?}"),
            format!("{t_layered:.2?}"),
            nnz_w.to_string(),
        ]);
    }
    print!("{table}");

    section("Work decomposition of the Layered Method (64 phases x 400 states)");
    let model = random_sparse_model(64, 400, 6, 4);
    let start = Instant::now();
    let dists = phase_gatekeeper_distributions(&model, params.alpha, &params.power)?;
    let t_locals = start.elapsed();
    let start = Instant::now();
    let (site_vec, _) = stationary_distribution(model.phase_matrix().matrix(), &params.power)?;
    let t_site = start.elapsed();
    let start = Instant::now();
    let mut scores = Vec::with_capacity(model.total_states());
    for (i, dist) in dists.iter().enumerate() {
        scores.extend(dist.scores().iter().map(|&p| site_vec[i] * p));
    }
    std::hint::black_box(scores);
    let t_compose = start.elapsed();
    let per_phase = t_locals / 64;
    let critical: Duration = per_phase + t_site + t_compose;
    let mut table = Table::new(&["step", "wall"]);
    for (step, wall) in [
        ("all local gatekeeper PageRanks (sequential)", t_locals),
        ("-> per phase (parallel critical path)", per_phase),
        ("phase chain stationary vector", t_site),
        ("O(N) composition", t_compose),
        ("parallel critical path total", critical),
    ] {
        table.row(vec![step.to_string(), format!("{wall:.2?}")]);
    }
    print!("{table}");

    section("Engine backends on growing campus webs (wall time)");
    let mut table = Table::new(&["docs", "sites", "flat", "centralized", "layered"]);
    for (total_docs, n_sites, seed) in
        [(1_000usize, 20usize, 1u64), (4_000, 40, 2), (12_000, 80, 3)]
    {
        let mut cfg = CampusWebConfig::small();
        cfg.total_docs = total_docs;
        cfg.n_sites = n_sites;
        cfg.seed = seed;
        cfg.spam_farms.clear();
        let graph = cfg.generate()?;
        let mut row = vec![graph.n_docs().to_string(), graph.n_sites().to_string()];
        for backend in [
            BackendSpec::FlatPageRank,
            BackendSpec::CentralizedStationary,
            LAYERED_METHOD,
        ] {
            let mut engine = experiment_engine(backend).build()?;
            row.push(format!("{:.2?}", engine.rank(&graph)?.telemetry.wall));
        }
        table.row(row);
    }
    print!("{table}");
    Ok(())
}
