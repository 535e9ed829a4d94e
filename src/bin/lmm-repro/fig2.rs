//! Figure 2 and the §2.3 worked example: every vector the paper prints
//! (`π_G^1..3`, `π_Y`, `π̃_Y`, `π_W`, `π̃_W`), the highlighted state (2,3)
//! and the rank order, each checked at the paper's printed precision, and
//! Theorem 2 on the worked model and through the `RankEngine`.

use lmm::core::approaches::LmmParams;
use lmm::core::global::phase_gatekeeper_distributions;
use lmm::core::model::GlobalState;
use lmm::core::verify_partition_theorem;
use lmm::core::worked_example::{self as we, PAPER_TOL};
use lmm::engine::BackendSpec;
use lmm::graph::generator::CampusWebConfig;
use lmm::linalg::{power::stationary_distribution, PowerOptions};
use lmm::rank::pagerank::PageRank;

use crate::{experiment_engine, section, Claims, Result, LAYERED_METHOD};

/// One claim row per entry of a printed vector, named `{name}{label(i)}`.
fn vector(
    claims: &mut Claims,
    name: &str,
    ours: &[f64],
    paper: &[f64],
    label: impl Fn(usize) -> String,
) {
    for (i, &p) in paper.iter().enumerate() {
        let value = ours.get(i).copied().unwrap_or(f64::NAN);
        claims.within(&format!("{name}{}", label(i)), value, p, PAPER_TOL);
    }
}

/// 1-based rank positions, space-separated: Figure 2's order column.
fn order(positions: &[usize]) -> String {
    let ranks: Vec<String> = positions.iter().map(|p| (p + 1).to_string()).collect();
    ranks.join(" ")
}

pub fn run(_full: bool, claims: &mut Claims) -> Result {
    let model = we::paper_model()?;
    let alpha = we::PAPER_ALPHA;
    let opts = PowerOptions::default();
    let index = |i: usize| format!("({})", i + 1);
    let state = |i: usize| model.state_of(i).to_string();

    // Gatekeeper distributions (local PageRanks, Section 2.3.2).
    let dists = phase_gatekeeper_distributions(&model, alpha, &opts)?;
    let printed = [&we::PAPER_PI_G1[..], &we::PAPER_PI_G2, &we::PAPER_PI_G3];
    for (p, (dist, paper)) in dists.iter().zip(printed).enumerate() {
        let name = format!("pi_G^{}", p + 1);
        vector(claims, &name, dist.scores(), paper, index);
    }

    // Phase-layer vectors.
    let pi_y = PageRank::new()
        .damping(alpha)
        .run(model.phase_matrix())?
        .ranking;
    vector(claims, "pi_Y", pi_y.scores(), &we::PAPER_PI_Y, index);
    let (tilde_y, _) = stationary_distribution(model.phase_matrix().matrix(), &opts)?;
    vector(claims, "pi~_Y", &tilde_y, &we::PAPER_PI_Y_TILDE, index);

    // Figure 2: the global rankings and their order column.
    let a1 = model.pagerank_of_global(alpha)?;
    let a2 = model.stationary_of_global(alpha)?;
    vector(claims, "pi_W", a1.scores(), &we::PAPER_PI_W, state);
    vector(claims, "pi~_W", a2.scores(), &we::PAPER_PI_W_TILDE, state);
    let paper_order = order(&we::PAPER_RANK_POSITIONS);
    for (name, ranking) in [("pi_W", &a1), ("pi~_W", &a2)] {
        let ours = order(&ranking.ranking().positions());
        claims.exact(&format!("{name} rank order"), ours, paper_order.clone());
    }

    // The highlighted state (2,3).
    let s23 = GlobalState::new(1, 2);
    let a3 = model.layered_with_pagerank_site(alpha)?;
    let a4 = model.layered_method(alpha)?;
    let (ours3, ours4) = (a3.score_state(s23), a4.score_state(s23));
    claims.within("A3 pi(2,3)", ours3, we::PAPER_STATE_23_APPROACH3, PAPER_TOL);
    claims.within("A4 pi~(2,3)", ours4, we::PAPER_STATE_23_LAYERED, PAPER_TOL);

    section("Partition Theorem (Theorem 2)");
    let check = verify_partition_theorem(&model, &LmmParams::with_factor(alpha))?;
    println!("{check}");
    claims.within("Theorem 2 |A2-A4|_inf", check.linf, 0.0, 1e-9);

    section("The same theorem through the unified RankEngine");
    let mut cfg = CampusWebConfig::small();
    cfg.total_docs = 500;
    cfg.n_sites = 10;
    cfg.spam_farms.clear();
    let graph = cfg.generate()?;
    let mut central = experiment_engine(BackendSpec::CentralizedStationary).build()?;
    central.rank(&graph)?;
    let mut layered = experiment_engine(LAYERED_METHOD).build()?;
    layered.rank(&graph)?;
    let cmp = central.compare(layered.outcome()?, 10)?;
    println!("{cmp}");
    claims.within("engine Theorem 2 |A2-A4|_inf", cmp.linf, 0.0, 1e-9);
    Ok(())
}
