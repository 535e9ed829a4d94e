//! Power-method engine for stationary distributions and principal
//! eigenvectors.
//!
//! The engine is generic over [`LinearOperator`], the abstraction of "one
//! rank-iteration step" `y ← op(x)`. Explicit CSR matrices participate via
//! their transpose product `y = Mᵀ x`; the Layered Markov
//! Model supplies an implicit factored operator that never materializes the
//! global transition matrix.

use std::sync::Arc;

use crate::csr::CsrMatrix;
use crate::error::{LinalgError, Result};
use crate::operator::StationaryOperator;
use crate::vec_ops;
use lmm_par::ThreadPool;

/// One step of a rank iteration: `y ← op(x)` with `dim`-sized buffers.
///
/// Implementors must map non-negative L1-normalized input to non-negative
/// output; the power method re-normalizes the iterate each step, so mass
/// leakage (substochastic operators) is tolerated.
pub trait LinearOperator {
    /// Dimension of the operand vectors.
    fn dim(&self) -> usize;

    /// Computes `y = op(x)`.
    ///
    /// # Errors
    /// Implementations return [`LinalgError::DimensionMismatch`] for wrong
    /// buffer sizes.
    fn apply_to(&self, x: &[f64], y: &mut [f64]) -> Result<()>;
}

/// Adapter exposing `y = Mᵀ x` of a row-stochastic [`CsrMatrix`] as a
/// [`LinearOperator`] — the iteration map whose fixed point is the
/// stationary distribution.
#[derive(Debug, Clone, Copy)]
struct TransposeOperator<'a>(&'a CsrMatrix);

impl LinearOperator for TransposeOperator<'_> {
    fn dim(&self) -> usize {
        self.0.nrows()
    }

    fn apply_to(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        self.0.apply_transpose_into(x, y)
    }
}

impl<T: LinearOperator + ?Sized> LinearOperator for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn apply_to(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        (**self).apply_to(x, y)
    }
}

/// Options controlling the power iteration: the plain power method with
/// an L1 residual, as the paper ranks every layer.
///
/// An exhausted budget is always an error, so an `Ok` from
/// [`power_method_pool`] is always converged.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerOptions {
    /// Stop when the L1 residual drops below this tolerance.
    pub tol: f64,
    /// Abort (with [`LinalgError::NotConverged`]) after this many iterations.
    pub max_iters: usize,
}

impl Default for PowerOptions {
    fn default() -> Self {
        Self {
            tol: 1e-12,
            max_iters: 10_000,
        }
    }
}

impl PowerOptions {
    /// Options with a custom tolerance, other fields default.
    #[must_use]
    pub fn with_tol(tol: f64) -> Self {
        Self {
            tol,
            ..Self::default()
        }
    }

    /// Returns `self` with the given iteration budget.
    #[must_use]
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }
}

/// Outcome statistics of a power iteration.
///
/// The power method returns a report only with a converged iterate (an
/// exhausted budget is [`LinalgError::NotConverged`]), so `converged` is
/// `true` on every report it returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceReport {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Residual between the last two iterates.
    pub residual: f64,
    /// Whether the residual dropped below the tolerance.
    pub converged: bool,
}

impl std::fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after {} iterations (residual {:.3e})",
            if self.converged {
                "converged"
            } else {
                "NOT converged"
            },
            self.iterations,
            self.residual
        )
    }
}

/// Runs the power method `x ← normalize(op(x))` from `x0` until the L1
/// residual between successive iterates drops below `opts.tol`, with
/// every `O(n)` vector pass (normalization, residual) executed on `pool`.
///
/// The iterate is L1-renormalized every step, so substochastic operators
/// (mass-leaking chains) converge to their normalized dominant eigenvector.
///
/// The operator is responsible for its own parallelism (see
/// [`StationaryOperator`]); this function parallelizes the glue around it.
/// All vector arithmetic uses the fixed [`vec_ops::PAR_CHUNK`]-gridded
/// chunked kernels of [`vec_ops`], so the trajectory — and the returned
/// vector — is **bit-identical for every pool size**, including the
/// serial pool. For operators larger than one chunk the summation grouping
/// differs from a plain left-to-right fold in the last bits — converged
/// results agree to the tolerance, but exact golden score vectors recorded
/// from pre-chunked versions of this routine may differ in trailing ulps.
///
/// # Errors
/// * [`LinalgError::DimensionMismatch`] if `x0.len() != op.dim()`;
/// * [`LinalgError::NotDistribution`] if `x0` cannot be normalized or the
///   operator annihilates the iterate;
/// * [`LinalgError::NotConverged`] if the budget is exhausted.
pub fn power_method_pool<O: LinearOperator>(
    op: O,
    x0: &[f64],
    opts: &PowerOptions,
    pool: &ThreadPool,
) -> Result<(Vec<f64>, ConvergenceReport)> {
    let n = op.dim();
    if x0.len() != n {
        return Err(LinalgError::DimensionMismatch {
            operation: "power_method x0",
            expected: n,
            found: x0.len(),
        });
    }
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    let mut x = x0.to_vec();
    vec_ops::normalize_l1_par(pool, &mut x)?;
    let mut y = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for iter in 1..=opts.max_iters {
        op.apply_to(&x, &mut y)?;
        vec_ops::normalize_l1_par(pool, &mut y)?;
        residual = vec_ops::l1_diff_par(pool, &x, &y);
        std::mem::swap(&mut x, &mut y);
        if residual < opts.tol {
            return Ok((
                x,
                ConvergenceReport {
                    iterations: iter,
                    residual,
                    converged: true,
                },
            ));
        }
    }
    Err(LinalgError::NotConverged {
        iterations: opts.max_iters,
        residual,
    })
}

/// [`power_method_pool`] on the serial pool.
fn power_method<O: LinearOperator>(
    op: O,
    x0: &[f64],
    opts: &PowerOptions,
) -> Result<(Vec<f64>, ConvergenceReport)> {
    power_method_pool(op, x0, opts, &ThreadPool::serial())
}

/// Computes the stationary distribution of a row-stochastic matrix by power
/// iteration from the uniform vector.
///
/// The matrix should be primitive for the result to be the unique stationary
/// distribution; use [`crate::structure::is_primitive`] to check when in
/// doubt (a non-primitive matrix typically surfaces as
/// [`LinalgError::NotConverged`] here).
///
/// # Errors
/// See [`power_method_pool`]; additionally [`LinalgError::NotSquare`] for a
/// non-square matrix.
pub fn stationary_distribution(
    m: &CsrMatrix,
    opts: &PowerOptions,
) -> Result<(Vec<f64>, ConvergenceReport)> {
    if !m.is_square() {
        return Err(LinalgError::NotSquare {
            rows: m.nrows(),
            cols: m.ncols(),
        });
    }
    let x0 = vec_ops::uniform(m.nrows());
    power_method(TransposeOperator(m), &x0, opts)
}

/// [`stationary_distribution`] through the pull-mode
/// [`StationaryOperator`]: `Mᵀ` is materialized once and every iteration
/// step runs as a parallel row-wise gather on `pool`, with the `O(n)`
/// vector passes parallelized as well.
///
/// The result is bit-identical to the serial [`stationary_distribution`]'s
/// matrix step for any pool size (see the [`crate::operator`] docs); only
/// the normalization's summation grouping differs from the historical
/// serial code, and only for chains larger than
/// [`vec_ops::PAR_CHUNK`].
///
/// # Errors
/// See [`power_method_pool`]; additionally [`LinalgError::NotSquare`] for a
/// non-square matrix.
pub fn stationary_distribution_pool(
    m: &CsrMatrix,
    opts: &PowerOptions,
    pool: Arc<ThreadPool>,
) -> Result<(Vec<f64>, ConvergenceReport)> {
    if m.nrows() == 0 {
        return Err(LinalgError::Empty);
    }
    let op = StationaryOperator::new(m, Arc::clone(&pool))?;
    let x0 = vec_ops::uniform(m.nrows());
    power_method_pool(&op, &x0, opts, &pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::dense::DenseMatrix;

    fn csr_from_rows(rows: &[Vec<f64>]) -> CsrMatrix {
        DenseMatrix::from_rows(rows).unwrap().to_csr()
    }

    #[test]
    fn two_state_chain_known_stationary() {
        // P = [[0.9, 0.1], [0.5, 0.5]] => pi = (5/6, 1/6)
        let m = csr_from_rows(&[vec![0.9, 0.1], vec![0.5, 0.5]]);
        let (pi, rep) = stationary_distribution(&m, &PowerOptions::default()).unwrap();
        assert!(rep.converged);
        assert!((pi[0] - 5.0 / 6.0).abs() < 1e-10);
        assert!((pi[1] - 1.0 / 6.0).abs() < 1e-10);
    }

    #[test]
    fn three_state_chain_matches_hand_solution() {
        // The paper's Y matrix; hand-derived stationary vector
        // (0.2154, 0.4154, 0.3692) (see Section 2.3.3, Approach 4).
        let m = csr_from_rows(&[
            vec![0.1, 0.3, 0.6],
            vec![0.2, 0.4, 0.4],
            vec![0.3, 0.5, 0.2],
        ]);
        let (pi, _) = stationary_distribution(&m, &PowerOptions::default()).unwrap();
        assert!((pi[0] - 0.2154).abs() < 5e-5);
        assert!((pi[1] - 0.4154).abs() < 5e-5);
        assert!((pi[2] - 0.3692).abs() < 5e-5);
    }

    #[test]
    fn stationary_is_fixed_point() {
        let m = csr_from_rows(&[
            vec![0.2, 0.3, 0.5],
            vec![0.4, 0.1, 0.5],
            vec![0.25, 0.25, 0.5],
        ]);
        let (pi, _) = stationary_distribution(&m, &PowerOptions::default()).unwrap();
        let next = m.apply_transpose(&pi).unwrap();
        assert!(vec_ops::l1_diff(&pi, &next) < 1e-10);
    }

    #[test]
    fn periodic_chain_does_not_converge() {
        // Pure 2-cycle: period 2, power method oscillates.
        let m = csr_from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let opts = PowerOptions {
            max_iters: 500,
            ..PowerOptions::default()
        };
        let err = stationary_distribution(&m, &opts);
        // From the uniform start the iterate is immediately the fixed point
        // (uniform is stationary for the doubly-stochastic cycle), so seed a
        // non-uniform start to expose the oscillation.
        assert!(err.is_ok(), "uniform start happens to be stationary");
        let res = power_method(TransposeOperator(&m), &[0.9, 0.1], &opts);
        assert!(matches!(res, Err(LinalgError::NotConverged { .. })));
    }

    #[test]
    fn substochastic_operator_converges_after_renormalization() {
        // Leaky chain: row sums 0.5; normalized iterate still converges.
        let m = csr_from_rows(&[vec![0.25, 0.25], vec![0.25, 0.25]]);
        let (pi, rep) =
            power_method(TransposeOperator(&m), &[0.3, 0.7], &PowerOptions::default()).unwrap();
        assert!(rep.converged);
        assert!((pi[0] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn zero_operator_errors() {
        let coo = CooMatrix::new(2, 2);
        let m = coo.to_csr();
        let res = power_method(TransposeOperator(&m), &[0.5, 0.5], &PowerOptions::default());
        assert!(matches!(res, Err(LinalgError::NotDistribution { .. })));
    }

    #[test]
    fn x0_dimension_checked() {
        let m = csr_from_rows(&[vec![1.0]]);
        assert!(
            power_method(TransposeOperator(&m), &[0.5, 0.5], &PowerOptions::default()).is_err()
        );
    }

    #[test]
    fn report_display() {
        let rep = ConvergenceReport {
            iterations: 12,
            residual: 1e-13,
            converged: true,
        };
        let s = rep.to_string();
        assert!(s.contains("12"));
        assert!(s.contains("converged"));
    }

    #[test]
    fn options_builders() {
        let o = PowerOptions::with_tol(1e-6).max_iters(5);
        assert_eq!(o.tol, 1e-6);
        assert_eq!(o.max_iters, 5);
    }
}
