//! Kleinberg's HITS algorithm (hubs and authorities).
//!
//! The paper reviews HITS as the other prominent link-based ranking method
//! and notes its instability relative to PageRank; we implement it as a
//! baseline for the evaluation harness. Iteration on the (possibly weighted)
//! adjacency matrix `A`:
//!
//! ```text
//! a ← Aᵀ h     (authority: pointed at by good hubs)
//! h ← A a      (hub: points at good authorities)
//! ```
//!
//! with normalization each round.

use crate::error::{RankError, Result};
use crate::ranking::Ranking;
use lmm_linalg::{vec_ops, ConvergenceReport, CsrMatrix};

/// Options for the HITS iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct HitsConfig {
    /// Convergence tolerance on the L1 residual of the authority vector.
    pub tol: f64,
    /// Iteration budget.
    pub max_iters: usize,
}

impl Default for HitsConfig {
    fn default() -> Self {
        Self {
            tol: 1e-12,
            max_iters: 10_000,
        }
    }
}

/// Result of a HITS computation.
#[derive(Debug, Clone, PartialEq)]
pub struct HitsResult {
    /// Authority scores (L1-normalized, so they are comparable with
    /// PageRank vectors).
    pub authorities: Ranking,
    /// Hub scores (L1-normalized likewise).
    pub hubs: Ranking,
    /// Convergence statistics (iterations, residual on authorities).
    pub report: ConvergenceReport,
}

/// Runs HITS on an adjacency matrix (entries are link weights; use 0/1 for
/// the classical unweighted algorithm).
///
/// # Errors
/// * [`RankError::Empty`] for an empty matrix or a graph with no edges;
/// * [`RankError::Linalg`] for a non-square matrix or non-convergence.
///
/// # Example
/// ```
/// use lmm_linalg::CooMatrix;
/// use lmm_rank::hits::{hits, HitsConfig};
///
/// # fn main() -> Result<(), lmm_rank::RankError> {
/// // Pages 1 and 2 both point at page 0.
/// let mut coo = CooMatrix::new(3, 3);
/// coo.push(1, 0, 1.0);
/// coo.push(2, 0, 1.0);
/// let r = hits(&coo.to_csr(), &HitsConfig::default())?;
/// assert_eq!(r.authorities.order()[0], 0); // page 0 is the top authority
/// # Ok(())
/// # }
/// ```
pub fn hits(adjacency: &CsrMatrix, config: &HitsConfig) -> Result<HitsResult> {
    let n = adjacency.nrows();
    if n == 0 {
        return Err(RankError::Empty);
    }
    if !adjacency.is_square() {
        return Err(RankError::Linalg(lmm_linalg::LinalgError::NotSquare {
            rows: adjacency.nrows(),
            cols: adjacency.ncols(),
        }));
    }
    if adjacency.nnz() == 0 {
        return Err(RankError::Empty);
    }

    // L1 between rounds: scores stay distributions, directly comparable
    // with PageRank vectors.
    let normalize = |x: &mut [f64]| -> Result<()> {
        let s = vec_ops::l1_norm(x);
        if !(s.is_finite() && s > 0.0) {
            return Err(RankError::Linalg(
                lmm_linalg::LinalgError::NotDistribution { sum: s },
            ));
        }
        vec_ops::scale(x, 1.0 / s);
        Ok(())
    };

    let mut h = vec![1.0 / n as f64; n];
    let mut a = vec![0.0; n];
    let mut a_prev = vec![0.0; n];
    let mut report = ConvergenceReport {
        iterations: 0,
        residual: f64::INFINITY,
        converged: false,
    };
    for iter in 1..=config.max_iters {
        adjacency.apply_transpose_into(&h, &mut a)?;
        normalize(&mut a)?;
        adjacency.apply_into(&a, &mut h)?;
        normalize(&mut h)?;
        let residual = vec_ops::l1_diff(&a, &a_prev);
        a_prev.copy_from_slice(&a);
        report = ConvergenceReport {
            iterations: iter,
            residual,
            converged: residual < config.tol,
        };
        if report.converged {
            break;
        }
    }
    if !report.converged {
        return Err(RankError::Linalg(lmm_linalg::LinalgError::NotConverged {
            iterations: report.iterations,
            residual: report.residual,
        }));
    }
    // Always expose L1-normalized distributions.
    vec_ops::normalize_l1(&mut a)?;
    vec_ops::normalize_l1(&mut h)?;
    Ok(HitsResult {
        authorities: Ranking::from_scores(a)?,
        hubs: Ranking::from_scores(h)?,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_linalg::CooMatrix;

    fn star_into_zero(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 1..n {
            coo.push(i, 0, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn star_authority_is_center() {
        let r = hits(&star_into_zero(5), &HitsConfig::default()).unwrap();
        assert_eq!(r.authorities.order()[0], 0);
        // The center has no out-links: hub score 0.
        assert_eq!(r.hubs.score(0), 0.0);
        // All spokes are equally good hubs.
        for i in 1..5 {
            assert!((r.hubs.score(i) - 0.25).abs() < 1e-10);
        }
    }

    #[test]
    fn empty_graph_rejected() {
        let coo = CooMatrix::new(3, 3);
        assert!(matches!(
            hits(&coo.to_csr(), &HitsConfig::default()),
            Err(RankError::Empty)
        ));
    }

    #[test]
    fn scores_are_distributions() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 1.0);
        coo.push(2, 0, 1.0);
        let r = hits(&coo.to_csr(), &HitsConfig::default()).unwrap();
        assert!((r.authorities.scores().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((r.hubs.scores().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tightly_knit_community_dominates() {
        // The TKC effect the paper criticizes: a 3-clique outranks a single
        // popular-but-isolated page.
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..3usize {
            for j in 0..3usize {
                if i != j {
                    coo.push(i, j, 1.0);
                }
            }
        }
        coo.push(3, 4, 1.0); // page 4 pointed at by one page only
        let r = hits(&coo.to_csr(), &HitsConfig::default()).unwrap();
        assert!(r.authorities.score(0) > r.authorities.score(4));
        // The isolated page's authority is crushed to (numerically) zero.
        assert!(r.authorities.score(4) < 1e-6);
    }
}
