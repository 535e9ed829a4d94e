//! The paper's Section 2.3 worked example: 3 phases, 12 sub-states, and all
//! printed reference vectors (Figure 2).
//!
//! The matrices `Y`, `U1`, `U2`, `U3` are transcribed verbatim; the
//! `PAPER_*` constants are the rank vectors the paper prints to 4 decimals.
//! The test suite and `lmm-repro fig2` validate our computations against them
//! (with α = f = 0.85, the standard damping, which reproduces every printed
//! digit).

use crate::error::Result;
use crate::model::{LayeredMarkovModel, PhaseModel};
use lmm_linalg::{DenseMatrix, StochasticMatrix};

/// The phase transition matrix `Y` (3 phases).
const Y: [[f64; 3]; 3] = [[0.1, 0.3, 0.6], [0.2, 0.4, 0.4], [0.3, 0.5, 0.2]];

/// Sub-state transition matrix `U1` of phase I (4 sub-states).
const U1: [[f64; 4]; 4] = [
    [0.3, 0.3, 0.2, 0.2],
    [0.5, 0.1, 0.1, 0.3],
    [0.1, 0.2, 0.6, 0.1],
    [0.4, 0.3, 0.1, 0.2],
];

/// Sub-state transition matrix `U2` of phase II (3 sub-states).
const U2: [[f64; 3]; 3] = [[0.2, 0.1, 0.7], [0.1, 0.8, 0.1], [0.05, 0.05, 0.9]];

/// Sub-state transition matrix `U3` of phase III (5 sub-states).
const U3: [[f64; 5]; 5] = [
    [0.6, 0.02, 0.2, 0.1, 0.08],
    [0.05, 0.2, 0.5, 0.05, 0.2],
    [0.4, 0.1, 0.2, 0.1, 0.2],
    [0.7, 0.1, 0.05, 0.1, 0.05],
    [0.5, 0.2, 0.1, 0.1, 0.1],
];

/// The mixing factor that reproduces the paper's printed numbers.
pub const PAPER_ALPHA: f64 = 0.85;

/// How far a computed value may sit from a `PAPER_*` value: the paper
/// prints 4 decimals, so half a unit in the last place plus a little slack
/// for its own convergence tolerance.
pub const PAPER_TOL: f64 = 7e-4;

/// Printed gatekeeper (local PageRank) vector `π_G^1` of phase I.
pub const PAPER_PI_G1: [f64; 4] = [0.3054, 0.2312, 0.2582, 0.2052];
/// Printed gatekeeper vector `π_G^2` of phase II.
pub const PAPER_PI_G2: [f64; 3] = [0.1191, 0.2691, 0.6117];
/// Printed gatekeeper vector `π_G^3` of phase III.
pub const PAPER_PI_G3: [f64; 5] = [0.4557, 0.1038, 0.2014, 0.1106, 0.1285];

/// Printed PageRank of `Y` (used by Approach 3).
pub const PAPER_PI_Y: [f64; 3] = [0.2315, 0.4015, 0.3670];
/// Printed stationary vector of `Y` (used by Approach 4).
pub const PAPER_PI_Y_TILDE: [f64; 3] = [0.2154, 0.4154, 0.3692];

/// Figure 2, middle vector: `π_W`, Approach 1 (PageRank on `W`).
pub const PAPER_PI_W: [f64; 12] = [
    0.0682, 0.0547, 0.0596, 0.0499, 0.0545, 0.1073, 0.2281, 0.1562, 0.0452, 0.0760, 0.0474, 0.0530,
];

/// Figure 2, right vector: `π̃_W`, Approaches 2 and 4.
pub const PAPER_PI_W_TILDE: [f64; 12] = [
    0.0658, 0.0498, 0.0556, 0.0442, 0.0495, 0.1118, 0.2541, 0.1683, 0.0383, 0.0744, 0.0408, 0.0474,
];

/// Figure 2's rank-order column (identical for both vectors): the 0-based
/// *rank position* of each state in flat order. State 7 = `(2,3)` is ranked
/// first, state 8 = `(3,1)` second, and so on.
pub const PAPER_RANK_POSITIONS: [usize; 12] = [4, 6, 5, 9, 7, 2, 0, 1, 11, 3, 10, 8];

/// The worked example's value `π̃(2,3) = π̃_Y(2) · π_G^2(3) = 0.2541`
/// (Approach 4 on the paper's highlighted state).
pub const PAPER_STATE_23_LAYERED: f64 = 0.2541;

/// The worked example's Approach 3 value `π(2,3) = π_Y(2) · π_G^2(3) =
/// 0.2456`.
pub const PAPER_STATE_23_APPROACH3: f64 = 0.2456;

fn stochastic_from<const N: usize>(rows: &[[f64; N]]) -> Result<StochasticMatrix> {
    let rows: Vec<Vec<f64>> = rows.iter().map(|r| r.to_vec()).collect();
    Ok(StochasticMatrix::new(
        DenseMatrix::from_rows(&rows)?.to_csr(),
    )?)
}

/// Builds the paper's 12-state Layered Markov Model with uniform initial
/// distributions (the configuration reproducing Figure 2).
///
/// # Errors
/// Never fails in practice — the constants are valid by transcription; the
/// `Result` simply propagates the validating constructors.
///
/// # Example
/// ```
/// # fn main() -> Result<(), lmm_core::LmmError> {
/// let model = lmm_core::worked_example::paper_model()?;
/// assert_eq!(model.n_phases(), 3);
/// assert_eq!(model.total_states(), 12);
/// # Ok(())
/// # }
/// ```
pub fn paper_model() -> Result<LayeredMarkovModel> {
    let y = stochastic_from(&Y)?;
    let phases = vec![
        PhaseModel::new(stochastic_from(&U1)?, None)?,
        PhaseModel::new(stochastic_from(&U2)?, None)?,
        PhaseModel::new(stochastic_from(&U3)?, None)?,
    ];
    LayeredMarkovModel::new(y, None, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approaches::LmmParams;
    use crate::global::phase_gatekeeper_distributions;
    use crate::model::GlobalState;
    use lmm_linalg::PowerOptions;
    use lmm_rank::pagerank::PageRank;

    fn assert_close(actual: &[f64], expected: &[f64], what: &str) {
        assert_eq!(actual.len(), expected.len(), "{what}: length");
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert!(
                (a - e).abs() < PAPER_TOL,
                "{what}[{i}]: computed {a:.6}, paper prints {e:.4}"
            );
        }
    }

    #[test]
    fn model_shape() {
        let m = paper_model().unwrap();
        assert_eq!(m.n_phases(), 3);
        assert_eq!(m.total_states(), 12);
        assert_eq!(m.offsets(), &[0, 4, 7, 12]);
    }

    #[test]
    fn gatekeeper_vectors_match_paper() {
        let m = paper_model().unwrap();
        let dists =
            phase_gatekeeper_distributions(&m, PAPER_ALPHA, &PowerOptions::default()).unwrap();
        assert_close(dists[0].scores(), &PAPER_PI_G1, "pi_G^1");
        assert_close(dists[1].scores(), &PAPER_PI_G2, "pi_G^2");
        assert_close(dists[2].scores(), &PAPER_PI_G3, "pi_G^3");
    }

    #[test]
    fn site_vectors_match_paper() {
        let m = paper_model().unwrap();
        let pr = PageRank::new()
            .damping(PAPER_ALPHA)
            .run(m.phase_matrix())
            .unwrap();
        assert_close(pr.ranking.scores(), &PAPER_PI_Y, "pi_Y");
        let (tilde, _) = lmm_linalg::power::stationary_distribution(
            m.phase_matrix().matrix(),
            &PowerOptions::default(),
        )
        .unwrap();
        assert_close(&tilde, &PAPER_PI_Y_TILDE, "pi_Y_tilde");
    }

    #[test]
    fn figure2_pi_w_matches_paper() {
        let m = paper_model().unwrap();
        let a1 = m.pagerank_of_global(PAPER_ALPHA).unwrap();
        assert_close(a1.scores(), &PAPER_PI_W, "pi_W (Approach 1)");
    }

    #[test]
    fn figure2_pi_w_tilde_matches_paper_both_ways() {
        let m = paper_model().unwrap();
        let a2 = m.stationary_of_global(PAPER_ALPHA).unwrap();
        assert_close(a2.scores(), &PAPER_PI_W_TILDE, "pi_W_tilde (Approach 2)");
        let a4 = m.layered_method(PAPER_ALPHA).unwrap();
        assert_close(a4.scores(), &PAPER_PI_W_TILDE, "pi_W_tilde (Approach 4)");
    }

    #[test]
    fn figure2_rank_order_matches_paper() {
        let m = paper_model().unwrap();
        for ranking in [
            m.pagerank_of_global(PAPER_ALPHA).unwrap(),
            m.stationary_of_global(PAPER_ALPHA).unwrap(),
            m.layered_method(PAPER_ALPHA).unwrap(),
        ] {
            let positions = ranking.ranking().positions();
            assert_eq!(
                positions,
                PAPER_RANK_POSITIONS.to_vec(),
                "Figure 2 order column"
            );
        }
    }

    #[test]
    fn highlighted_state_23_values() {
        let m = paper_model().unwrap();
        let s23 = GlobalState::new(1, 2); // the paper's (2,3)
        let a4 = m.layered_method(PAPER_ALPHA).unwrap();
        assert!((a4.score_state(s23) - PAPER_STATE_23_LAYERED).abs() < PAPER_TOL);
        let a3 = m.layered_with_pagerank_site(PAPER_ALPHA).unwrap();
        assert!((a3.score_state(s23) - PAPER_STATE_23_APPROACH3).abs() < PAPER_TOL);
    }

    #[test]
    fn top_three_states_match_paper() {
        // "the top three (highly ranked) overall system states are number
        //  7, 8 and 6, namely (2,3), (3,1) and (2,2)."
        let m = paper_model().unwrap();
        let order = m.layered_method(PAPER_ALPHA).unwrap().order_states();
        assert_eq!(order[0], GlobalState::new(1, 2)); // (2,3)
        assert_eq!(order[1], GlobalState::new(2, 0)); // (3,1)
        assert_eq!(order[2], GlobalState::new(1, 1)); // (2,2)
    }

    #[test]
    fn partition_check_on_paper_model() {
        let m = paper_model().unwrap();
        let check =
            crate::partition::verify_partition_theorem(&m, &LmmParams::with_factor(PAPER_ALPHA))
                .unwrap();
        assert!(check.linf < 1e-9, "{check}");
        assert!(check.same_order);
    }

    #[test]
    fn example_transition_value_from_paper() {
        // "w_(3,5)(2,3) = y_32 * u_G3^2 = 0.5 x 0.6117 = 0.3059"
        let m = paper_model().unwrap();
        let dists =
            phase_gatekeeper_distributions(&m, PAPER_ALPHA, &PowerOptions::default()).unwrap();
        let w = crate::global::global_transition_matrix(&m, &dists).unwrap();
        let from = m.state_index(GlobalState::new(2, 4)); // (3,5) -> index 11
        let to = m.state_index(GlobalState::new(1, 2)); // (2,3) -> index 6
        assert!((w.get(from, to) - 0.3059).abs() < PAPER_TOL);
    }
}
