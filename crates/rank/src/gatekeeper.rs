//! The **minimal irreducibility** construction of Section 2.3.2: gatekeeper
//! sub-states.
//!
//! Given a phase's sub-state transition matrix `U` (n states), a mixing
//! parameter `α` and an initial distribution `v`, the paper appends a
//! virtual *gatekeeper* sub-state `G`:
//!
//! ```text
//!        Û = [ α·U      (1−α)·e ]
//!            [ vᵀ        0      ]
//! ```
//!
//! The stationary distribution of `Û` restricted to the original `n` states
//! and renormalized is the gatekeeper out-distribution `u_G·` — and it equals
//! PageRank of `U` with damping `α`, personalization `v`, and the
//! [`Teleport`](lmm_linalg::DanglingPolicy::Teleport) dangling policy
//! (Langville & Meyer's equivalence of minimal and maximal irreducibility).
//! [`gatekeeper_distribution`] implements the construction literally; the
//! tests verify the equivalence numerically.

use crate::error::{RankError, Result};
use crate::pagerank::PageRank;
use crate::ranking::Ranking;
use lmm_linalg::{
    power::stationary_distribution, vec_ops, ConvergenceReport, CooMatrix, CsrMatrix,
    DanglingPolicy, PowerOptions, StochasticMatrix,
};

/// Result of the minimal-irreducibility (gatekeeper) computation.
#[derive(Debug, Clone, PartialEq)]
pub struct GatekeeperResult {
    /// Stationary distribution over the original sub-states, gatekeeper
    /// removed and renormalized — the `u_Gj` values of eq. (3).
    pub distribution: Ranking,
    /// Stationary mass of the virtual gatekeeper state before removal.
    pub gatekeeper_mass: f64,
    /// Power-method convergence statistics on the augmented chain.
    pub report: ConvergenceReport,
}

/// Builds the augmented `(n+1) x (n+1)` matrix `Û` of Section 2.3.2.
///
/// Dangling rows of `U` transition to the gatekeeper with probability 1
/// (there is no link mass to scale by `α`).
///
/// # Errors
/// * [`RankError::InvalidDamping`] unless `0 < alpha < 1`;
/// * [`RankError::InvalidPersonalization`] if `v` is not a distribution of
///   length `n`.
fn augmented_matrix(u: &StochasticMatrix, alpha: f64, v: &[f64]) -> Result<CsrMatrix> {
    let n = u.n();
    if n == 0 {
        return Err(RankError::Empty);
    }
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(RankError::InvalidDamping { value: alpha });
    }
    if v.len() != n {
        return Err(RankError::InvalidPersonalization {
            reason: "length differs from the number of sub-states",
        });
    }
    vec_ops::check_distribution(v, 1e-6).map_err(|_| RankError::InvalidPersonalization {
        reason: "entries must be non-negative and sum to 1",
    })?;

    let mut coo = CooMatrix::with_capacity(n + 1, n + 1, u.matrix().nnz() + 2 * n + 1);
    let mut is_dangling = vec![false; n];
    for &d in u.dangling() {
        is_dangling[d] = true;
    }
    for (r, c, val) in u.matrix().iter() {
        coo.push(r, c, alpha * val);
    }
    for (r, &dangling) in is_dangling.iter().enumerate() {
        if dangling {
            coo.push(r, n, 1.0);
        } else {
            coo.push(r, n, 1.0 - alpha);
        }
    }
    for (j, &vj) in v.iter().enumerate() {
        if vj > 0.0 {
            coo.push(n, j, vj);
        }
    }
    Ok(coo.to_csr())
}

/// Computes the gatekeeper out-distribution `u_G·` of a phase: stationary
/// vector of the augmented chain with the gatekeeper entry dropped and the
/// rest renormalized (Section 2.3.2).
///
/// `v` defaults to uniform when `None`.
///
/// # Errors
/// See `augmented_matrix`; additionally [`RankError::Linalg`] if the power
/// method on the augmented chain fails to converge within `opts`.
///
/// # Example
/// ```
/// use lmm_linalg::{DenseMatrix, PowerOptions, StochasticMatrix};
/// use lmm_rank::gatekeeper::gatekeeper_distribution;
///
/// # fn main() -> Result<(), lmm_rank::RankError> {
/// // U2 from the paper's worked example.
/// let u = DenseMatrix::from_rows(&[
///     vec![0.2, 0.1, 0.7],
///     vec![0.1, 0.8, 0.1],
///     vec![0.05, 0.05, 0.9],
/// ])?;
/// let u = StochasticMatrix::new(u.to_csr())?;
/// let g = gatekeeper_distribution(&u, 0.85, None, &PowerOptions::default())?;
/// // The paper's printed pi_G^2 = (0.1191, 0.2691, 0.6117).
/// assert!((g.distribution.score(2) - 0.6117).abs() < 5e-4);
/// # Ok(())
/// # }
/// ```
pub fn gatekeeper_distribution(
    u: &StochasticMatrix,
    alpha: f64,
    v: Option<&[f64]>,
    opts: &PowerOptions,
) -> Result<GatekeeperResult> {
    let n = u.n();
    let uniform;
    let v = match v {
        Some(v) => v,
        None => {
            uniform = vec_ops::uniform(n.max(1));
            &uniform
        }
    };
    if u.dangling().len() == n {
        // Degenerate phase with no internal links at all: the augmented
        // chain is bipartite (every state -> gatekeeper -> v), so the power
        // method oscillates with period 2. Its Cesàro limit restricted to
        // the original states is exactly `v` — which also matches the
        // maximal-irreducibility PageRank on an edgeless graph. Validate the
        // parameters through the regular path, then return `v` directly.
        let _ = augmented_matrix(u, alpha, v)?;
        return Ok(GatekeeperResult {
            distribution: Ranking::from_scores(v.to_vec())?,
            gatekeeper_mass: 0.5,
            report: lmm_linalg::ConvergenceReport {
                iterations: 0,
                residual: 0.0,
                converged: true,
            },
        });
    }
    let augmented = augmented_matrix(u, alpha, v)?;
    let (full, report) = stationary_distribution(&augmented, opts)?;
    let gatekeeper_mass = full[n];
    let mut rest = full[..n].to_vec();
    vec_ops::normalize_l1(&mut rest)?;
    Ok(GatekeeperResult {
        distribution: Ranking::from_scores(rest)?,
        gatekeeper_mass,
        report,
    })
}

/// Computes the same distribution through the maximal-irreducibility route
/// (PageRank with damping `alpha`, personalization `v`, teleport dangling
/// policy). Exposed so callers and tests can check the equivalence the
/// paper relies on.
///
/// # Errors
/// See [`PageRank::run`].
pub fn gatekeeper_via_pagerank(
    u: &StochasticMatrix,
    alpha: f64,
    v: Option<&[f64]>,
    tol: f64,
) -> Result<Ranking> {
    let mut pr = PageRank::new();
    pr.damping(alpha)
        .tol(tol)
        .dangling(DanglingPolicy::Teleport);
    if let Some(v) = v {
        pr.personalization(v.to_vec());
    }
    Ok(pr.run(u)?.ranking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_linalg::DenseMatrix;

    fn u2() -> StochasticMatrix {
        let d = DenseMatrix::from_rows(&[
            vec![0.2, 0.1, 0.7],
            vec![0.1, 0.8, 0.1],
            vec![0.05, 0.05, 0.9],
        ])
        .unwrap();
        StochasticMatrix::new(d.to_csr()).unwrap()
    }

    fn with_dangling() -> StochasticMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 0.5);
        coo.push(1, 2, 0.5);
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn augmented_matrix_is_stochastic() {
        let a = augmented_matrix(&u2(), 0.85, &vec_ops::uniform(3)).unwrap();
        for (i, s) in a.row_sums().iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-12, "row {i} sums to {s}");
        }
        assert_eq!(a.nrows(), 4);
    }

    #[test]
    fn augmented_matrix_dangling_rows_go_to_gatekeeper() {
        let a = augmented_matrix(&with_dangling(), 0.85, &vec_ops::uniform(3)).unwrap();
        // Row 2 is dangling: all its mass must go to the gatekeeper (col 3).
        assert_eq!(a.get(2, 3), 1.0);
        assert_eq!(a.row_nnz(2), 1);
        // Non-dangling rows keep (1 - alpha) for the gatekeeper.
        assert!((a.get(0, 3) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn matches_paper_pi_g2() {
        let g = gatekeeper_distribution(&u2(), 0.85, None, &PowerOptions::default()).unwrap();
        let expected = [0.1191, 0.2691, 0.6117];
        for (i, &e) in expected.iter().enumerate() {
            assert!(
                (g.distribution.score(i) - e).abs() < 5e-4,
                "pi_G^2[{i}] = {} != {e}",
                g.distribution.score(i)
            );
        }
    }

    #[test]
    fn equivalent_to_pagerank_no_dangling() {
        let u = u2();
        let g = gatekeeper_distribution(&u, 0.85, None, &PowerOptions::default()).unwrap();
        let pr = gatekeeper_via_pagerank(&u, 0.85, None, 1e-13).unwrap();
        assert!(vec_ops::l1_diff(g.distribution.scores(), pr.scores()) < 1e-8);
    }

    #[test]
    fn equivalent_to_pagerank_with_dangling() {
        let u = with_dangling();
        let g = gatekeeper_distribution(&u, 0.85, None, &PowerOptions::default()).unwrap();
        let pr = gatekeeper_via_pagerank(&u, 0.85, None, 1e-13).unwrap();
        assert!(vec_ops::l1_diff(g.distribution.scores(), pr.scores()) < 1e-8);
    }

    #[test]
    fn equivalent_to_pagerank_personalized() {
        let u = u2();
        let v = [0.6, 0.3, 0.1];
        let g = gatekeeper_distribution(&u, 0.7, Some(&v), &PowerOptions::default()).unwrap();
        let pr = gatekeeper_via_pagerank(&u, 0.7, Some(&v), 1e-13).unwrap();
        assert!(vec_ops::l1_diff(g.distribution.scores(), pr.scores()) < 1e-8);
    }

    #[test]
    fn gatekeeper_mass_matches_theory_without_dangling() {
        // Without dangling rows the gatekeeper mass is (1-a)/(2-a).
        let alpha = 0.85;
        let g = gatekeeper_distribution(&u2(), alpha, None, &PowerOptions::default()).unwrap();
        let expected = (1.0 - alpha) / (2.0 - alpha);
        assert!((g.gatekeeper_mass - expected).abs() < 1e-9);
    }

    #[test]
    fn alpha_validated() {
        for bad in [0.0, 1.0, -1.0, 2.0] {
            assert!(matches!(
                gatekeeper_distribution(&u2(), bad, None, &PowerOptions::default()),
                Err(RankError::InvalidDamping { .. })
            ));
        }
    }

    #[test]
    fn v_validated() {
        assert!(matches!(
            gatekeeper_distribution(&u2(), 0.85, Some(&[0.5, 0.5]), &PowerOptions::default()),
            Err(RankError::InvalidPersonalization { .. })
        ));
        assert!(matches!(
            gatekeeper_distribution(
                &u2(),
                0.85,
                Some(&[0.5, 0.6, 0.2]),
                &PowerOptions::default()
            ),
            Err(RankError::InvalidPersonalization { .. })
        ));
    }

    #[test]
    fn edgeless_phase_returns_teleport_vector() {
        // All-dangling phase: the augmented chain is bipartite; the
        // gatekeeper distribution degenerates to v (matching PageRank on an
        // edgeless graph).
        let edgeless = StochasticMatrix::from_adjacency(CooMatrix::new(3, 3).to_csr()).unwrap();
        let g = gatekeeper_distribution(&edgeless, 0.85, None, &PowerOptions::default()).unwrap();
        assert_eq!(g.distribution.scores(), &[1.0 / 3.0; 3]);
        let v = [0.5, 0.3, 0.2];
        let g =
            gatekeeper_distribution(&edgeless, 0.85, Some(&v), &PowerOptions::default()).unwrap();
        assert_eq!(g.distribution.scores(), &v);
        let pr = gatekeeper_via_pagerank(&edgeless, 0.85, Some(&v), 1e-13).unwrap();
        assert!(vec_ops::l1_diff(g.distribution.scores(), pr.scores()) < 1e-9);
    }

    #[test]
    fn distribution_sums_to_one() {
        let g =
            gatekeeper_distribution(&with_dangling(), 0.6, None, &PowerOptions::default()).unwrap();
        let s: f64 = g.distribution.scores().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
