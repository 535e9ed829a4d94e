//! Experiment E2: the Section 2.3 worked example and Figure 2.
//!
//! Recomputes every vector the paper prints (`π_G^1..3`, `π_Y`, `π̃_Y`,
//! `π_W`, `π̃_W`), side by side with the printed values, and verifies the
//! Partition Theorem and the highlighted `π̃(2,3)` multiplication.
//!
//! Run: `cargo run --release -p lmm-bench --bin exp_fig2`

use lmm_bench::{experiment_engine, section};
use lmm_core::approaches::LmmParams;
use lmm_core::global::phase_gatekeeper_distributions;
use lmm_core::model::GlobalState;
use lmm_core::verify_partition_theorem;
use lmm_core::worked_example as we;
use lmm_linalg::{power::stationary_distribution, PowerOptions};
use lmm_rank::pagerank::PageRank;

fn print_vs(name: &str, ours: &[f64], paper: &[f64]) {
    print!("{name:<10} ours:  ");
    for v in ours {
        print!("{v:.4} ");
    }
    print!("\n{:<10} paper: ", "");
    for v in paper {
        print!("{v:.4} ");
    }
    let max_diff = ours
        .iter()
        .zip(paper)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("  (max diff {max_diff:.1e})");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = we::paper_model()?;
    let alpha = we::PAPER_ALPHA;
    let opts = PowerOptions::default();

    section("Gatekeeper distributions (local PageRanks, Section 2.3.2)");
    let dists = phase_gatekeeper_distributions(&model, alpha, &opts)?;
    print_vs("pi_G^1", dists[0].scores(), &we::PAPER_PI_G1);
    print_vs("pi_G^2", dists[1].scores(), &we::PAPER_PI_G2);
    print_vs("pi_G^3", dists[2].scores(), &we::PAPER_PI_G3);

    section("Phase-layer vectors");
    let pr_y = PageRank::new().damping(alpha).run(model.phase_matrix())?;
    print_vs("pi_Y", pr_y.ranking.scores(), &we::PAPER_PI_Y);
    let (tilde_y, _) = stationary_distribution(model.phase_matrix().matrix(), &opts)?;
    print_vs("pi~_Y", &tilde_y, &we::PAPER_PI_Y_TILDE);

    section("Figure 2: global rankings");
    let a1 = model.pagerank_of_global(alpha)?;
    let a2 = model.stationary_of_global(alpha)?;
    print_vs("pi_W", a1.scores(), &we::PAPER_PI_W);
    print_vs("pi~_W", a2.scores(), &we::PAPER_PI_W_TILDE);

    section("Rank order (1 = highest)");
    let positions = a2.ranking().positions();
    print!("state: ");
    for idx in 0..model.total_states() {
        print!("{} ", model.state_of(idx));
    }
    print!("\nours:  ");
    for p in &positions {
        print!("{:>5} ", p + 1);
    }
    print!("\npaper: ");
    for p in we::PAPER_RANK_POSITIONS {
        print!("{:>5} ", p + 1);
    }
    println!();
    assert_eq!(positions, we::PAPER_RANK_POSITIONS.to_vec());

    section("Highlighted state (2,3)");
    let s23 = GlobalState::new(1, 2);
    let a3 = model.layered_with_pagerank_site(alpha)?;
    let a4 = model.layered_method(alpha)?;
    println!(
        "Approach 3: pi(2,3)  = {:.4} (paper {:.4})",
        a3.score_state(s23),
        we::PAPER_STATE_23_APPROACH3
    );
    println!(
        "Approach 4: pi~(2,3) = {:.4} (paper {:.4})",
        a4.score_state(s23),
        we::PAPER_STATE_23_LAYERED
    );

    section("Partition Theorem (Theorem 2)");
    let check = verify_partition_theorem(&model, &LmmParams::with_factor(alpha))?;
    println!("{check}");
    assert!(check.linf < 1e-9);

    section("The same theorem through the unified RankEngine");
    let mut cfg = lmm_graph::generator::CampusWebConfig::small();
    cfg.total_docs = 500;
    cfg.n_sites = 10;
    cfg.spam_farms.clear();
    let graph = cfg.generate()?;
    let engine_check = (|| -> Result<(), lmm_engine::EngineError> {
        let mut a2 = experiment_engine(lmm_engine::BackendSpec::CentralizedStationary)?;
        a2.rank(&graph)?;
        let mut a4 = experiment_engine(lmm_engine::BackendSpec::Layered {
            site_layer: lmm_core::siterank::SiteLayerMethod::Stationary,
        })?;
        a4.rank(&graph)?;
        let cmp = a2.compare(a4.outcome()?, 10)?;
        println!("{cmp}");
        assert!(cmp.linf < 1e-9);
        Ok(())
    })();
    engine_check.expect("engine-level Partition Theorem");
    println!("\nAll Figure 2 values reproduced.");
    Ok(())
}
