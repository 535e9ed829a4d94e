//! Synthetic Layered Markov Models for tests, property checks and
//! benchmarks.
//!
//! The generators produce strictly positive phase matrices (hence primitive
//! `Y`, satisfying Theorem 2's precondition) and sparse-but-irreducible or
//! dense sub-state matrices, all deterministically seeded.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::model::{LayeredMarkovModel, PhaseModel};
use lmm_linalg::{CooMatrix, DenseMatrix, StochasticMatrix};

/// Generates a random dense strictly-positive row-stochastic matrix.
///
/// Strict positivity makes the matrix primitive, which is what the
/// Partition Theorem requires of `Y`.
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
fn random_positive_stochastic(n: usize, rng: &mut StdRng) -> StochasticMatrix {
    assert!(n > 0, "matrix must be non-empty");
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        // Offset by a small epsilon so no entry is exactly zero.
        let row: Vec<f64> = (0..n).map(|_| rng.random::<f64>() + 0.01).collect();
        rows.push(row);
    }
    let mut dense = DenseMatrix::from_rows(&rows).expect("non-empty rows");
    let dangling = dense.normalize_rows();
    debug_assert!(dangling.is_empty());
    StochasticMatrix::new(dense.to_csr()).expect("normalized rows are stochastic")
}

/// Generates a random sparse row-stochastic matrix with about
/// `out_degree` transitions per state (plus a guaranteed cyclic backbone so
/// no state is dangling).
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
fn random_sparse_stochastic(n: usize, out_degree: usize, rng: &mut StdRng) -> StochasticMatrix {
    assert!(n > 0, "matrix must be non-empty");
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        // Backbone edge keeps every row non-dangling and the chain connected.
        coo.push(i, (i + 1) % n, 1.0);
        for _ in 0..out_degree {
            let j = rng.random_range(0..n);
            coo.push(i, j, rng.random::<f64>() + 0.05);
        }
    }
    let (m, dangling) = coo.to_csr().normalize_rows();
    debug_assert!(dangling.is_empty());
    StochasticMatrix::new(m).expect("normalized rows are stochastic")
}

/// Generates a random LMM: a strictly positive `n_phases × n_phases` phase
/// matrix and dense positive sub-state matrices whose sizes are drawn
/// uniformly from `min_sub..=max_sub`.
///
/// # Panics
/// Panics if `n_phases == 0` or `min_sub` is 0 or exceeds `max_sub`.
#[must_use]
pub fn random_model(
    n_phases: usize,
    min_sub: usize,
    max_sub: usize,
    seed: u64,
) -> LayeredMarkovModel {
    assert!(n_phases > 0, "need at least one phase");
    assert!(
        min_sub > 0 && min_sub <= max_sub,
        "invalid sub-state range {min_sub}..={max_sub}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let y = random_positive_stochastic(n_phases, &mut rng);
    let phases: Vec<PhaseModel> = (0..n_phases)
        .map(|_| {
            let n = rng.random_range(min_sub..=max_sub);
            PhaseModel::new(random_positive_stochastic(n, &mut rng), None)
                .expect("positive matrices make valid phases")
        })
        .collect();
    LayeredMarkovModel::new(y, None, phases).expect("dimensions align by construction")
}

/// Generates a large sparse LMM for scalability benchmarks: `n_phases`
/// phases with exactly `sub_states` sparse sub-states each.
///
/// # Panics
/// Panics if either count is zero.
#[must_use]
pub fn random_sparse_model(
    n_phases: usize,
    sub_states: usize,
    out_degree: usize,
    seed: u64,
) -> LayeredMarkovModel {
    assert!(n_phases > 0 && sub_states > 0, "model must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let y = random_positive_stochastic(n_phases, &mut rng);
    let phases: Vec<PhaseModel> = (0..n_phases)
        .map(|_| {
            PhaseModel::new(
                random_sparse_stochastic(sub_states, out_degree, &mut rng),
                None,
            )
            .expect("sparse stochastic matrices make valid phases")
        })
        .collect();
    LayeredMarkovModel::new(y, None, phases).expect("dimensions align by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_linalg::structure;

    #[test]
    fn positive_stochastic_is_primitive() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_positive_stochastic(6, &mut rng);
        assert!(structure::is_primitive(m.matrix()).unwrap());
        assert!(m.is_fully_stochastic());
    }

    #[test]
    fn sparse_stochastic_has_no_dangling() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = random_sparse_stochastic(50, 3, &mut rng);
        assert!(m.is_fully_stochastic());
        // The cyclic backbone guarantees irreducibility.
        assert!(structure::is_irreducible(m.matrix()).unwrap());
    }

    #[test]
    fn random_model_shape() {
        let m = random_model(4, 2, 5, 7);
        assert_eq!(m.n_phases(), 4);
        assert!(m.total_states() >= 8);
        assert!(m.total_states() <= 20);
    }

    #[test]
    fn random_model_deterministic() {
        assert_eq!(random_model(3, 2, 4, 5), random_model(3, 2, 4, 5));
        assert_ne!(random_model(3, 2, 4, 5), random_model(3, 2, 4, 6));
    }

    #[test]
    fn sparse_model_shape() {
        let m = random_sparse_model(5, 100, 4, 3);
        assert_eq!(m.n_phases(), 5);
        assert_eq!(m.total_states(), 500);
    }
}
