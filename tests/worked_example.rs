//! End-to-end reproduction of the paper's Section 2.3 worked example
//! through the facade crate (`lmm-repro fig2`'s acceptance test).

use lmm::core::approaches::{LmmParams, RankApproach};
use lmm::core::model::GlobalState;
use lmm::core::{verify_partition_theorem, worked_example as we};
use lmm::linalg::vec_ops;

const PRINT_TOL: f64 = 7e-4;

#[test]
fn full_figure2_reproduction() {
    let model = we::paper_model().expect("paper model builds");
    let a1 = model.pagerank_of_global(we::PAPER_ALPHA).expect("A1");
    let a2 = model.stationary_of_global(we::PAPER_ALPHA).expect("A2");
    assert!(vec_ops::linf_diff(a1.scores(), &we::PAPER_PI_W) < PRINT_TOL);
    assert!(vec_ops::linf_diff(a2.scores(), &we::PAPER_PI_W_TILDE) < PRINT_TOL);
}

#[test]
fn approaches_1_2_4_rank_identically_on_paper_model() {
    // Figure 2's observation: "the two results rank all system states in an
    // identical order" — pi_W and pi~_W agree, and the Layered Method
    // reproduces pi~_W exactly. Approach 3 swaps two near-tied states
    // ((1,4) and (3,5) differ by ~3e-4), so it is checked by rank
    // correlation instead.
    let model = we::paper_model().expect("paper model builds");
    let params = LmmParams::with_factor(we::PAPER_ALPHA);
    let order = |a: RankApproach| -> Vec<GlobalState> {
        model.rank(a, &params).expect("ranks").order_states()
    };
    let a1 = order(RankApproach::PageRankOnGlobal);
    let a2 = order(RankApproach::StationaryOfGlobal);
    let a4 = order(RankApproach::Layered);
    assert_eq!(a1, a2);
    assert_eq!(a2, a4);

    let a2_ranking = model
        .rank(RankApproach::StationaryOfGlobal, &params)
        .expect("A2");
    let a3_ranking = model
        .rank(RankApproach::LayeredWithPageRankSite, &params)
        .expect("A3");
    let tau = lmm::rank::metrics::kendall_tau(a2_ranking.ranking(), a3_ranking.ranking());
    assert!(tau > 0.9, "A3 should stay strongly correlated, tau = {tau}");
}

#[test]
fn partition_theorem_verified_through_facade() {
    let model = we::paper_model().expect("paper model builds");
    let check = verify_partition_theorem(&model, &LmmParams::with_factor(0.85))
        .expect("both approaches run");
    assert!(check.linf < 1e-9, "{check}");
    assert!(check.same_order);
    assert_eq!(check.states, 12);
}

#[test]
fn paper_equation_five_composition() {
    // pi~(I, i) = pi~_Y(I) * pi_G^I(i), checked entry-wise against the
    // published per-layer vectors.
    let model = we::paper_model().expect("paper model builds");
    let a4 = model.layered_method(we::PAPER_ALPHA).expect("A4");
    let g = [
        &we::PAPER_PI_G1[..],
        &we::PAPER_PI_G2[..],
        &we::PAPER_PI_G3[..],
    ];
    for idx in 0..model.total_states() {
        let s = model.state_of(idx);
        let expected = we::PAPER_PI_Y_TILDE[s.phase] * g[s.phase][s.sub];
        assert!(
            (a4.scores()[idx] - expected).abs() < 2e-3,
            "state {s}: {} vs composed {expected}",
            a4.scores()[idx]
        );
    }
}
