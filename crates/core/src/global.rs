//! The global transition matrix `W` (eq. 3) — explicit and implicit forms.
//!
//! Under layer-decomposability, `w_(I,i)(J,j) = y_IJ · u_Gj^J`, so every row
//! of the block-row `I` is identical. Two representations exploit this:
//!
//! * [`global_transition_matrix`] materializes `W` as a CSR matrix — useful
//!   for small models (the paper's worked example) and for the centralized
//!   baselines the paper contrasts against;
//! * [`GlobalOperator`] applies `y = Wᵀ x` **without materializing `W`**, in
//!   `O(N_P + nnz(Y))` per step instead of `O(nnz(W))` — this factorization
//!   is precisely why the layered computation scales (Section 2.3.3).

use crate::error::Result;
use crate::model::LayeredMarkovModel;
use lmm_linalg::{CsrMatrix, LinalgError, LinearOperator, PowerOptions};
use lmm_rank::gatekeeper::gatekeeper_distribution;
use lmm_rank::Ranking;

/// Computes the gatekeeper out-distribution `u_G·^J` of every phase
/// (Section 2.3.2) with mixing parameter `alpha` and the phase's initial
/// distribution as the gatekeeper row.
///
/// These per-phase computations are independent — in the Web instantiation
/// each site computes its own (this is what [`lmm-p2p`](../lmm_p2p/index.html)
/// distributes across peers).
///
/// # Errors
/// Propagates gatekeeper/PageRank failures per phase.
pub fn phase_gatekeeper_distributions(
    model: &LayeredMarkovModel,
    alpha: f64,
    opts: &PowerOptions,
) -> Result<Vec<Ranking>> {
    phase_gatekeeper_distributions_pool(model, alpha, opts, &lmm_par::ThreadPool::serial())
}

/// [`phase_gatekeeper_distributions`] with the independent per-phase
/// solves fanned across `pool` (each phase's gatekeeper PageRank runs
/// serially in its own slot, so the result is identical for every pool
/// size — only wall time changes).
///
/// # Errors
/// Propagates gatekeeper/PageRank failures per phase.
pub fn phase_gatekeeper_distributions_pool(
    model: &LayeredMarkovModel,
    alpha: f64,
    opts: &PowerOptions,
    pool: &lmm_par::ThreadPool,
) -> Result<Vec<Ranking>> {
    let solved = pool.par_map(model.phases(), |_, phase| {
        gatekeeper_distribution(phase.transition(), alpha, Some(phase.initial()), opts)
    });
    solved.into_iter().map(|g| Ok(g?.distribution)).collect()
}

/// Materializes the global transition matrix `W` of eq. (3):
/// `w_(I,i)(J,j) = y_IJ · π_G^J(j)`.
///
/// `phase_dists[J]` must be the gatekeeper distribution of phase `J` (from
/// [`phase_gatekeeper_distributions`]). The result has `Σ_I n_I` rows; rows
/// within a block-row are identical, so the storage is
/// `O(total_states · Σ_{J reachable} n_J)` — the quadratic blow-up the
/// implicit operator avoids.
///
/// # Errors
/// Returns [`LinalgError::DimensionMismatch`] (wrapped) when
/// `phase_dists` does not match the model's phases.
pub fn global_transition_matrix(
    model: &LayeredMarkovModel,
    phase_dists: &[Ranking],
) -> Result<CsrMatrix> {
    check_dists(model, phase_dists)?;
    let n = model.total_states();
    let y = model.phase_matrix().matrix();
    let offsets = model.offsets();

    // Template row per phase I: concat over J (with y_IJ > 0) of
    // y_IJ * pi_G^J. Columns are naturally ascending because offsets are.
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for i_phase in 0..model.n_phases() {
        let (cols, vals) = y.row(i_phase);
        let mut template_cols: Vec<usize> = Vec::new();
        let mut template_vals: Vec<f64> = Vec::new();
        for (&j_phase, &y_ij) in cols.iter().zip(vals) {
            if y_ij == 0.0 {
                continue;
            }
            let dist = phase_dists[j_phase].scores();
            for (j, &p) in dist.iter().enumerate() {
                if p > 0.0 {
                    template_cols.push(offsets[j_phase] + j);
                    template_vals.push(y_ij * p);
                }
            }
        }
        let n_sub = model.phases()[i_phase].n_substates();
        for _ in 0..n_sub {
            col_idx.extend_from_slice(&template_cols);
            values.extend_from_slice(&template_vals);
            row_ptr.push(col_idx.len());
        }
    }
    Ok(CsrMatrix::from_raw_parts(n, n, row_ptr, col_idx, values)?)
}

/// Implicit `y = Wᵀ x` operator exploiting the factorization of eq. (3):
///
/// ```text
/// (Wᵀx)(J,j) = π_G^J(j) · Σ_I y_IJ · (Σ_i x_(I,i))
/// ```
///
/// One application costs a fold over `x` (`O(N_P)` states), one `Yᵀ`
/// product (`O(nnz(Y))`) and one scaled scatter (`O(N_P)` states) — versus
/// `O(nnz(W))` for the explicit matrix. This operator is the computational
/// heart of `lmm-repro scalability`.
#[derive(Debug, Clone)]
pub struct GlobalOperator<'a> {
    model: &'a LayeredMarkovModel,
    phase_dists: &'a [Ranking],
}

impl<'a> GlobalOperator<'a> {
    /// Builds the operator over a model and its gatekeeper distributions.
    ///
    /// # Errors
    /// Returns a dimension error when `phase_dists` does not match the
    /// model's phases.
    pub fn new(model: &'a LayeredMarkovModel, phase_dists: &'a [Ranking]) -> Result<Self> {
        check_dists(model, phase_dists)?;
        Ok(Self { model, phase_dists })
    }

    /// Sum of `x` within each phase block: `s_I = Σ_i x_(I,i)`.
    fn phase_sums(&self, x: &[f64]) -> Vec<f64> {
        let offsets = self.model.offsets();
        (0..self.model.n_phases())
            .map(|i| x[offsets[i]..offsets[i + 1]].iter().sum())
            .collect()
    }
}

impl LinearOperator for GlobalOperator<'_> {
    fn dim(&self) -> usize {
        self.model.total_states()
    }

    fn apply_to(&self, x: &[f64], y: &mut [f64]) -> std::result::Result<(), LinalgError> {
        if x.len() != self.dim() || y.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                operation: "GlobalOperator::apply_to",
                expected: self.dim(),
                found: if x.len() != self.dim() {
                    x.len()
                } else {
                    y.len()
                },
            });
        }
        let s = self.phase_sums(x);
        let t = self.model.phase_matrix().matrix().apply_transpose(&s)?;
        let offsets = self.model.offsets();
        for (j_phase, &tj) in t.iter().enumerate() {
            let dist = self.phase_dists[j_phase].scores();
            let out = &mut y[offsets[j_phase]..offsets[j_phase + 1]];
            for (o, &p) in out.iter_mut().zip(dist) {
                *o = tj * p;
            }
        }
        Ok(())
    }
}

fn check_dists(model: &LayeredMarkovModel, phase_dists: &[Ranking]) -> Result<()> {
    if phase_dists.len() != model.n_phases() {
        return Err(LinalgError::DimensionMismatch {
            operation: "global transition: phase distributions",
            expected: model.n_phases(),
            found: phase_dists.len(),
        }
        .into());
    }
    for (i, (dist, phase)) in phase_dists.iter().zip(model.phases()).enumerate() {
        if dist.len() != phase.n_substates() {
            return Err(LinalgError::DimensionMismatch {
                operation: "global transition: phase distribution length",
                expected: phase.n_substates(),
                found: dist.len(),
            }
            .into());
        }
        debug_assert!(i < model.n_phases());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PhaseModel;
    use lmm_linalg::{vec_ops, DenseMatrix, StochasticMatrix};

    fn stochastic(rows: &[Vec<f64>]) -> StochasticMatrix {
        StochasticMatrix::new(DenseMatrix::from_rows(rows).unwrap().to_csr()).unwrap()
    }

    fn model() -> LayeredMarkovModel {
        let y = stochastic(&[vec![0.1, 0.9], vec![0.6, 0.4]]);
        let p0 = PhaseModel::new(stochastic(&[vec![0.5, 0.5], vec![0.9, 0.1]]), None).unwrap();
        let p1 = PhaseModel::new(
            stochastic(&[
                vec![0.2, 0.3, 0.5],
                vec![0.1, 0.8, 0.1],
                vec![0.4, 0.4, 0.2],
            ]),
            None,
        )
        .unwrap();
        LayeredMarkovModel::new(y, None, vec![p0, p1]).unwrap()
    }

    #[test]
    fn w_is_row_stochastic() {
        let m = model();
        let dists = phase_gatekeeper_distributions(&m, 0.85, &PowerOptions::default()).unwrap();
        let w = global_transition_matrix(&m, &dists).unwrap();
        assert_eq!(w.nrows(), 5);
        for (r, s) in w.row_sums().iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-10, "row {r} sums to {s}");
        }
    }

    #[test]
    fn w_rows_constant_within_block() {
        let m = model();
        let dists = phase_gatekeeper_distributions(&m, 0.85, &PowerOptions::default()).unwrap();
        let w = global_transition_matrix(&m, &dists)
            .unwrap()
            .to_dense()
            .unwrap();
        // Rows 0 and 1 belong to phase 0 and must be identical (the paper:
        // "rows pertaining to a particular value I are constant").
        assert_eq!(w.row(0), w.row(1));
        assert_eq!(w.row(2), w.row(3));
        assert_eq!(w.row(3), w.row(4));
    }

    #[test]
    fn w_entries_match_formula() {
        let m = model();
        let dists = phase_gatekeeper_distributions(&m, 0.85, &PowerOptions::default()).unwrap();
        let w = global_transition_matrix(&m, &dists).unwrap();
        let y = m.phase_matrix().matrix();
        // w_(0,1)(1,2) = y_01 * pi_G^1(2); flat: row 1, col 2 + offset 2 = 4.
        let expected = y.get(0, 1) * dists[1].score(2);
        assert!((w.get(1, 4) - expected).abs() < 1e-12);
    }

    #[test]
    fn implicit_operator_matches_explicit_transpose_product() {
        let m = model();
        let dists = phase_gatekeeper_distributions(&m, 0.85, &PowerOptions::default()).unwrap();
        let w = global_transition_matrix(&m, &dists).unwrap();
        let op = GlobalOperator::new(&m, &dists).unwrap();
        let x = [0.1, 0.25, 0.2, 0.15, 0.3];
        let explicit = w.apply_transpose(&x).unwrap();
        let mut implicit = vec![0.0; 5];
        op.apply_to(&x, &mut implicit).unwrap();
        assert!(vec_ops::l1_diff(&explicit, &implicit) < 1e-12);
    }

    #[test]
    fn operator_dimension_checked() {
        let m = model();
        let dists = phase_gatekeeper_distributions(&m, 0.85, &PowerOptions::default()).unwrap();
        let op = GlobalOperator::new(&m, &dists).unwrap();
        let mut y = vec![0.0; 5];
        assert!(op.apply_to(&[0.5, 0.5], &mut y).is_err());
    }

    #[test]
    fn wrong_dist_count_rejected() {
        let m = model();
        let dists = phase_gatekeeper_distributions(&m, 0.85, &PowerOptions::default()).unwrap();
        assert!(global_transition_matrix(&m, &dists[..1]).is_err());
        assert!(GlobalOperator::new(&m, &dists[..1]).is_err());
    }

    #[test]
    fn gatekeeper_dists_use_phase_initials() {
        // A phase with a biased initial distribution shifts its gatekeeper
        // distribution relative to the uniform one.
        let y = stochastic(&[vec![1.0]]);
        let u = stochastic(&[vec![0.5, 0.5], vec![0.5, 0.5]]);
        let p_uniform = PhaseModel::new(u.clone(), None).unwrap();
        let p_biased = PhaseModel::new(u, Some(vec![0.95, 0.05])).unwrap();
        let m_uniform = LayeredMarkovModel::new(y.clone(), None, vec![p_uniform]).unwrap();
        let m_biased = LayeredMarkovModel::new(y, None, vec![p_biased]).unwrap();
        let d_u =
            phase_gatekeeper_distributions(&m_uniform, 0.85, &PowerOptions::default()).unwrap();
        let d_b =
            phase_gatekeeper_distributions(&m_biased, 0.85, &PowerOptions::default()).unwrap();
        assert!(d_b[0].score(0) > d_u[0].score(0));
    }
}
