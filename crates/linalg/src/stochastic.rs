//! Validated row-stochastic transition matrices.
//!
//! [`StochasticMatrix`] wraps a [`CsrMatrix`] whose every non-dangling row
//! sums to one, with the dangling (all-zero) rows recorded explicitly.
//! Ranking algorithms take a `StochasticMatrix`, so validation happens once
//! at the boundary instead of inside every iteration loop.

use crate::csr::CsrMatrix;
use crate::error::{LinalgError, Result};
use crate::vec_ops::DEFAULT_TOL;

/// How a ranking algorithm should treat dangling rows (pages without
/// out-links), whose transition row is all zero.
///
/// The paper's transition-matrix function `M(G)` follows standard PageRank
/// practice; the policy is made explicit here because the choice changes the
/// stationary vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DanglingPolicy {
    /// Redistribute the dangling mass uniformly over all states (the
    /// textbook patch, equivalent to replacing zero rows with `1/n` rows).
    #[default]
    Uniform,
    /// Redistribute the dangling mass according to the personalization /
    /// teleport vector.
    Teleport,
    /// Keep the matrix substochastic and renormalize the iterate each step
    /// (mass leaks and is rescaled; historically used by some crawler
    /// implementations).
    Renormalize,
}

/// A row-stochastic transition matrix with explicit dangling-row accounting.
///
/// # Example
/// ```
/// use lmm_linalg::{CooMatrix, StochasticMatrix};
///
/// // Two pages: page 0 links to page 1; page 1 has no out-links (dangling).
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 1.0);
/// let m = StochasticMatrix::from_adjacency(coo.to_csr()).unwrap();
/// assert_eq!(m.dangling(), &[1]);
/// assert_eq!(m.matrix().get(0, 1), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticMatrix {
    matrix: CsrMatrix,
    dangling: Vec<usize>,
}

impl StochasticMatrix {
    /// Builds a transition matrix from a non-negative adjacency/weight
    /// matrix by dividing each row by its sum (the paper's `M(G)`); all-zero
    /// rows become dangling rows.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::InvalidProbability`] if any entry is negative or not
    /// finite.
    pub fn from_adjacency(adjacency: CsrMatrix) -> Result<Self> {
        if !adjacency.is_square() {
            return Err(LinalgError::NotSquare {
                rows: adjacency.nrows(),
                cols: adjacency.ncols(),
            });
        }
        for (r, _c, v) in adjacency.iter() {
            if !v.is_finite() || v < 0.0 {
                return Err(LinalgError::InvalidProbability { index: r, value: v });
            }
        }
        let (matrix, dangling) = adjacency.normalize_rows();
        Ok(Self { matrix, dangling })
    }

    /// Wraps an already row-stochastic matrix, verifying that each row sums
    /// to 1 within [`DEFAULT_TOL`] or is entirely zero (dangling).
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::NotStochastic`] or
    /// [`LinalgError::InvalidProbability`] accordingly.
    pub fn new(matrix: CsrMatrix) -> Result<Self> {
        if !matrix.is_square() {
            return Err(LinalgError::NotSquare {
                rows: matrix.nrows(),
                cols: matrix.ncols(),
            });
        }
        let mut dangling = Vec::new();
        for r in 0..matrix.nrows() {
            let (_, vals) = matrix.row(r);
            let mut sum = 0.0;
            for &v in vals {
                if !v.is_finite() || v < 0.0 {
                    return Err(LinalgError::InvalidProbability { index: r, value: v });
                }
                sum += v;
            }
            if vals.is_empty() || sum == 0.0 {
                dangling.push(r);
            } else if (sum - 1.0).abs() > DEFAULT_TOL {
                return Err(LinalgError::NotStochastic { row: r, sum });
            }
        }
        Ok(Self { matrix, dangling })
    }

    /// The underlying row-stochastic CSR matrix (dangling rows are all-zero).
    #[must_use]
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Indices of dangling (all-zero) rows, ascending.
    #[must_use]
    pub fn dangling(&self) -> &[usize] {
        &self.dangling
    }

    /// Returns `true` when the chain has no dangling rows.
    #[must_use]
    pub fn is_fully_stochastic(&self) -> bool {
        self.dangling.is_empty()
    }

    /// Number of states.
    #[must_use]
    pub fn n(&self) -> usize {
        self.matrix.nrows()
    }

    /// Consumes the wrapper and returns the underlying matrix.
    #[must_use]
    pub fn into_matrix(self) -> CsrMatrix {
        self.matrix
    }

    /// One step of the rank iteration: `y = Mᵀ x` plus dangling-mass
    /// redistribution according to `policy` with teleport vector `v`
    /// (used by [`DanglingPolicy::Teleport`]; `Uniform` ignores it).
    ///
    /// With `Renormalize` the dangling mass is dropped here; the caller's
    /// iteration loop is expected to renormalize the iterate.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] on wrong buffer sizes.
    #[cfg(test)]
    fn rank_step_into(
        &self,
        x: &[f64],
        v: &[f64],
        policy: DanglingPolicy,
        y: &mut [f64],
    ) -> Result<()> {
        self.matrix.apply_transpose_into(x, y)?;
        self.redistribute_dangling(x, v, policy, y)
    }

    /// Adds the dangling-mass redistribution of one rank step to an
    /// already-computed `y = Mᵀ x` — the second half of one rank step,
    /// exposed separately so callers
    /// that compute the transpose product through a different kernel (the
    /// parallel pull-mode gather) can reuse the identical dangling
    /// arithmetic.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `policy` is
    /// [`DanglingPolicy::Teleport`] and `v` has the wrong length.
    pub fn redistribute_dangling(
        &self,
        x: &[f64],
        v: &[f64],
        policy: DanglingPolicy,
        y: &mut [f64],
    ) -> Result<()> {
        if self.dangling.is_empty() {
            return Ok(());
        }
        let dangling_mass: f64 = self.dangling.iter().map(|&r| x[r]).sum();
        if dangling_mass == 0.0 {
            return Ok(());
        }
        match policy {
            DanglingPolicy::Uniform => {
                let share = dangling_mass / self.n() as f64;
                for yi in y.iter_mut() {
                    *yi += share;
                }
            }
            DanglingPolicy::Teleport => {
                if v.len() != self.n() {
                    return Err(LinalgError::DimensionMismatch {
                        operation: "StochasticMatrix::redistribute_dangling teleport vector",
                        expected: self.n(),
                        found: v.len(),
                    });
                }
                for (yi, &vi) in y.iter_mut().zip(v) {
                    *yi += dangling_mass * vi;
                }
            }
            DanglingPolicy::Renormalize => {}
        }
        Ok(())
    }
}

impl AsRef<CsrMatrix> for StochasticMatrix {
    fn as_ref(&self) -> &CsrMatrix {
        &self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::vec_ops::l1_norm;

    fn chain_with_dangling() -> StochasticMatrix {
        // 0 -> 1 (w 2), 0 -> 2 (w 2), 1 -> 2, 2 dangling
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 2.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 2, 1.0);
        StochasticMatrix::from_adjacency(coo.to_csr()).unwrap()
    }

    #[test]
    fn from_adjacency_normalizes() {
        let m = chain_with_dangling();
        assert_eq!(m.matrix().get(0, 1), 0.5);
        assert_eq!(m.matrix().get(0, 2), 0.5);
        assert_eq!(m.matrix().get(1, 2), 1.0);
        assert_eq!(m.dangling(), &[2]);
        assert!(!m.is_fully_stochastic());
    }

    #[test]
    fn from_adjacency_rejects_negative() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, -1.0);
        assert!(matches!(
            StochasticMatrix::from_adjacency(coo.to_csr()),
            Err(LinalgError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn from_adjacency_rejects_non_square() {
        let coo = CooMatrix::new(2, 3);
        assert!(matches!(
            StochasticMatrix::from_adjacency(coo.to_csr()),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn from_stochastic_validates_row_sums() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.6);
        coo.push(0, 1, 0.6);
        coo.push(1, 0, 1.0);
        assert!(matches!(
            StochasticMatrix::new(coo.to_csr()),
            Err(LinalgError::NotStochastic { row: 0, .. })
        ));
    }

    #[test]
    fn rank_step_uniform_conserves_mass() {
        let m = chain_with_dangling();
        let x = [0.2, 0.3, 0.5];
        let v = [1.0 / 3.0; 3];
        let mut y = vec![0.0; 3];
        m.rank_step_into(&x, &v, DanglingPolicy::Uniform, &mut y)
            .unwrap();
        assert!((l1_norm(&y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_step_teleport_conserves_mass() {
        let m = chain_with_dangling();
        let x = [0.2, 0.3, 0.5];
        let v = [0.7, 0.2, 0.1];
        let mut y = vec![0.0; 3];
        m.rank_step_into(&x, &v, DanglingPolicy::Teleport, &mut y)
            .unwrap();
        assert!((l1_norm(&y) - 1.0).abs() < 1e-12);
        // The dangling mass 0.5 is routed through v: state 0 receives
        // 0.5 * 0.7 = 0.35 and nothing else points at state 0.
        assert!((y[0] - 0.35).abs() < 1e-12);
    }

    #[test]
    fn rank_step_renormalize_leaks_mass() {
        let m = chain_with_dangling();
        let x = [0.2, 0.3, 0.5];
        let v = [1.0 / 3.0; 3];
        let mut y = vec![0.0; 3];
        m.rank_step_into(&x, &v, DanglingPolicy::Renormalize, &mut y)
            .unwrap();
        assert!((l1_norm(&y) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rank_step_teleport_checks_vector_length() {
        let m = chain_with_dangling();
        let x = [0.2, 0.3, 0.5];
        let mut y = vec![0.0; 3];
        assert!(m
            .rank_step_into(&x, &[1.0], DanglingPolicy::Teleport, &mut y)
            .is_err());
    }

    #[test]
    fn fully_stochastic_has_no_dangling() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let m = StochasticMatrix::from_adjacency(coo.to_csr()).unwrap();
        assert!(m.is_fully_stochastic());
        assert_eq!(m.n(), 2);
    }
}
