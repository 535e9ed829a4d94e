//! Classical PageRank via **maximal irreducibility** (eq. 1 of the paper):
//! `M̂ = f·M + (1−f)/N·e·eᵀ`, generalized with a personalization vector `v`
//! (`M̂ = f·M + (1−f)·e·vᵀ`) and explicit dangling-row policies.
//!
//! The Google matrix is never materialized; each power-method step applies
//! the factored operator `y = f·(Mᵀx + dangling) + (1−f)·v` in `O(nnz)`.
//! The `Mᵀx` term runs through the pull-mode
//! [`StationaryOperator`] — `Mᵀ` is materialized once per
//! [`PageRank::run`] and each step is a row-wise gather, parallelized
//! across the builder's [`threads`](PageRank::threads) (bit-identical at
//! every thread count).

use std::sync::Arc;

use crate::error::{RankError, Result};
use crate::ranking::Ranking;
use lmm_linalg::{
    power_method_pool, vec_ops, ConvergenceReport, CsrMatrix, DanglingPolicy, LinearOperator,
    PowerOptions, StationaryOperator, StochasticMatrix,
};
use lmm_par::ThreadPool;

/// Plain-data PageRank parameters (damping, convergence budget, dangling
/// policy). Personalization and warm starts live on the [`PageRank`] builder
/// because their dimension is matrix-specific.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor `f` — probability of following a link rather than
    /// teleporting. Must lie strictly in `(0, 1)`.
    pub damping: f64,
    /// Convergence tolerance on the L1 residual between iterates.
    pub tol: f64,
    /// Iteration budget for the power method.
    pub max_iters: usize,
    /// Treatment of dangling (zero out-degree) rows.
    pub dangling: DanglingPolicy,
    /// Worker threads for the gather SpMV and `O(n)` vector passes
    /// (`0` = one per available core). Defaults to 1 (serial): inner
    /// solves — e.g. one site's DocRank inside a per-site fan-out — must
    /// stay serial, so parallelism is opt-in at the outermost level.
    /// Results are bit-identical for every value.
    pub threads: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            tol: 1e-12,
            max_iters: 10_000,
            dangling: DanglingPolicy::Uniform,
            threads: 1,
        }
    }
}

/// Result of a PageRank computation.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankResult {
    /// The rank vector (a probability distribution).
    pub ranking: Ranking,
    /// Power-method convergence statistics.
    pub report: ConvergenceReport,
}

/// Non-consuming builder for PageRank computations.
///
/// # Example
/// ```
/// use lmm_linalg::{CooMatrix, StochasticMatrix};
/// use lmm_rank::pagerank::PageRank;
///
/// # fn main() -> Result<(), lmm_rank::RankError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 1.0);
/// coo.push(1, 0, 1.0);
/// let m = StochasticMatrix::from_adjacency(coo.to_csr())?;
/// let result = PageRank::new().damping(0.9).tol(1e-12).run(&m)?;
/// assert!((result.ranking.score(0) - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageRank {
    config: PageRankConfig,
    personalization: Option<Vec<f64>>,
    initial: Option<Vec<f64>>,
}

impl PageRank {
    /// Creates a builder with default parameters (f = 0.85, uniform
    /// teleportation, tol = 1e-12).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder from an explicit config.
    #[must_use]
    pub fn from_config(config: PageRankConfig) -> Self {
        Self {
            config,
            personalization: None,
            initial: None,
        }
    }

    /// Sets the damping factor `f` (validated in [`PageRank::run`]).
    pub fn damping(&mut self, f: f64) -> &mut Self {
        self.config.damping = f;
        self
    }

    /// Sets the convergence tolerance.
    pub fn tol(&mut self, tol: f64) -> &mut Self {
        self.config.tol = tol;
        self
    }

    /// Sets the iteration budget.
    pub fn max_iters(&mut self, max_iters: usize) -> &mut Self {
        self.config.max_iters = max_iters;
        self
    }

    /// Sets the dangling-row policy.
    pub fn dangling(&mut self, policy: DanglingPolicy) -> &mut Self {
        self.config.dangling = policy;
        self
    }

    /// Sets the worker-thread count for the gather SpMV and vector passes
    /// (`0` = one per available core; default 1 = serial). The ranking is
    /// bit-identical for every value — threads only change wall time.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.config.threads = threads;
        self
    }

    /// Sets the personalization (teleport) vector `v` in
    /// `M̂ = f·M + (1−f)·e·vᵀ`. Defaults to the uniform distribution, which
    /// recovers the paper's eq. (1).
    pub fn personalization(&mut self, v: Vec<f64>) -> &mut Self {
        self.personalization = Some(v);
        self
    }

    /// Sets the starting iterate (defaults to uniform). Used by BlockRank to
    /// warm-start the global iteration from the aggregated approximation.
    pub fn initial(&mut self, x0: Vec<f64>) -> &mut Self {
        self.initial = Some(x0);
        self
    }

    /// Snapshot of the scalar configuration.
    #[must_use]
    pub fn config(&self) -> &PageRankConfig {
        &self.config
    }

    /// Runs PageRank on a validated transition matrix.
    ///
    /// # Errors
    /// * [`RankError::InvalidDamping`] unless `0 < f < 1`;
    /// * [`RankError::InvalidPersonalization`] if `v` is not a distribution
    ///   of length `n`;
    /// * [`RankError::Empty`] for a 0-state chain;
    /// * [`RankError::Linalg`] if the power method fails to converge.
    pub fn run(&self, m: &StochasticMatrix) -> Result<PageRankResult> {
        let n = m.n();
        if n == 0 {
            return Err(RankError::Empty);
        }
        let f = self.config.damping;
        if !(f > 0.0 && f < 1.0) {
            return Err(RankError::InvalidDamping { value: f });
        }
        let v = match &self.personalization {
            Some(v) => {
                if v.len() != n {
                    return Err(RankError::InvalidPersonalization {
                        reason: "length differs from the number of states",
                    });
                }
                vec_ops::check_distribution(v, 1e-6).map_err(|_| {
                    RankError::InvalidPersonalization {
                        reason: "entries must be non-negative and sum to 1",
                    }
                })?;
                v.clone()
            }
            None => vec_ops::uniform(n),
        };
        let x0 = match &self.initial {
            Some(x0) => {
                if x0.len() != n {
                    return Err(RankError::InvalidPersonalization {
                        reason: "initial vector length differs from the number of states",
                    });
                }
                x0.clone()
            }
            None => vec_ops::uniform(n),
        };
        let pool = ThreadPool::shared(self.config.threads);
        let op = GoogleOperator {
            // Pull mode: pay the transpose once, gather every step.
            mt: StationaryOperator::new(m.matrix(), Arc::clone(&pool))?,
            m,
            damping: f,
            v: &v,
            policy: self.config.dangling,
            pool: Arc::clone(&pool),
        };
        let opts = PowerOptions {
            tol: self.config.tol,
            max_iters: self.config.max_iters,
        };
        let (scores, report) = power_method_pool(&op, &x0, &opts, &pool)?;
        Ok(PageRankResult {
            ranking: Ranking::from_scores(scores)?,
            report,
        })
    }

    /// Convenience: row-normalizes a non-negative adjacency matrix (the
    /// paper's `M(G)`) and runs PageRank on it.
    ///
    /// # Errors
    /// See [`PageRank::run`]; additionally propagates adjacency validation
    /// errors from [`StochasticMatrix::from_adjacency`].
    pub fn run_adjacency(&self, adjacency: CsrMatrix) -> Result<PageRankResult> {
        let m = StochasticMatrix::from_adjacency(adjacency)?;
        self.run(&m)
    }
}

/// The factored Google-matrix step `y = f·(Mᵀx + dangling) + (1−f)·‖x‖₁·v`.
///
/// The `‖x‖₁` factor keeps the operator linear; under the power method's
/// per-step normalization it equals 1. The `Mᵀx` term is the parallel
/// pull-mode gather of [`StationaryOperator`] (bit-identical to the serial
/// scatter); the dangling redistribution reuses the exact arithmetic of
/// [`StochasticMatrix::rank_step_into`]; the final blend is an elementwise
/// parallel sweep. The step is therefore deterministic across thread
/// counts.
struct GoogleOperator<'a> {
    mt: StationaryOperator,
    m: &'a StochasticMatrix,
    damping: f64,
    v: &'a [f64],
    policy: DanglingPolicy,
    pool: Arc<ThreadPool>,
}

impl LinearOperator for GoogleOperator<'_> {
    fn dim(&self) -> usize {
        self.m.n()
    }

    fn apply_to(&self, x: &[f64], y: &mut [f64]) -> lmm_linalg::Result<()> {
        self.mt.apply_to(x, y)?;
        self.m.redistribute_dangling(x, self.v, self.policy, y)?;
        let sx = vec_ops::sum_par(&self.pool, x);
        let teleport = (1.0 - self.damping) * sx;
        let damping = self.damping;
        let v = self.v;
        self.pool
            .par_chunks_mut(y, vec_ops::PAR_CHUNK, |offset, chunk| {
                let len = chunk.len();
                for (yi, &vi) in chunk.iter_mut().zip(&v[offset..offset + len]) {
                    *yi = damping * *yi + teleport * vi;
                }
            });
        Ok(())
    }
}

/// Builds the explicit Google matrix `M̂ = f·M + (1−f)·e·vᵀ` densely, with
/// dangling rows replaced by the policy target first: the oracle the
/// factored operator is tested against — `O(n²)` memory.
///
/// # Errors
/// Same validation as [`PageRank::run`].
#[cfg(test)]
fn google_matrix_dense(
    m: &StochasticMatrix,
    damping: f64,
    personalization: Option<&[f64]>,
    policy: DanglingPolicy,
) -> Result<lmm_linalg::DenseMatrix> {
    let n = m.n();
    if n == 0 {
        return Err(RankError::Empty);
    }
    if !(damping > 0.0 && damping < 1.0) {
        return Err(RankError::InvalidDamping { value: damping });
    }
    let v = match personalization {
        Some(v) => v.to_vec(),
        None => vec_ops::uniform(n),
    };
    if v.len() != n {
        return Err(RankError::InvalidPersonalization {
            reason: "length differs from the number of states",
        });
    }
    let mut g = lmm_linalg::DenseMatrix::zeros(n, n)?;
    // Start from M with dangling rows patched.
    for (r, c, val) in m.matrix().iter() {
        g.set(r, c, val);
    }
    for &d in m.dangling() {
        let row = g.row_mut(d);
        match policy {
            DanglingPolicy::Uniform => row.fill(1.0 / n as f64),
            DanglingPolicy::Teleport => row.copy_from_slice(&v),
            DanglingPolicy::Renormalize => {}
        }
    }
    // Blend with the teleport rank-one term.
    #[allow(clippy::needless_range_loop)] // i and j index a 2-D matrix accessor
    for i in 0..n {
        for j in 0..n {
            let blended = damping * g.get(i, j) + (1.0 - damping) * v[j];
            g.set(i, j, blended);
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_linalg::CooMatrix;

    fn triangle() -> StochasticMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 2, 1.0);
        coo.push(2, 0, 1.0);
        StochasticMatrix::from_adjacency(coo.to_csr()).unwrap()
    }

    fn with_dangling() -> StochasticMatrix {
        // 0 -> 1, 0 -> 2, 1 -> 0; 2 dangling.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(0, 2, 1.0);
        coo.push(1, 0, 1.0);
        StochasticMatrix::from_adjacency(coo.to_csr()).unwrap()
    }

    #[test]
    fn symmetric_cycle_gives_uniform() {
        let r = PageRank::new().run(&triangle()).unwrap();
        for &s in r.ranking.scores() {
            assert!((s - 1.0 / 3.0).abs() < 1e-10);
        }
        assert!(r.report.converged);
    }

    #[test]
    fn sums_to_one_with_dangling() {
        for policy in [
            DanglingPolicy::Uniform,
            DanglingPolicy::Teleport,
            DanglingPolicy::Renormalize,
        ] {
            let r = PageRank::new()
                .dangling(policy)
                .run(&with_dangling())
                .unwrap();
            let total: f64 = r.ranking.scores().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "policy {policy:?}");
        }
    }

    #[test]
    fn matches_explicit_google_matrix() {
        let m = with_dangling();
        let r = PageRank::new().run(&m).unwrap();
        let g = google_matrix_dense(&m, 0.85, None, DanglingPolicy::Uniform).unwrap();
        let (pi, _) =
            lmm_linalg::power::stationary_distribution(&g.to_csr(), &PowerOptions::default())
                .unwrap();
        assert!(vec_ops::l1_diff(r.ranking.scores(), &pi) < 1e-9);
    }

    #[test]
    fn personalization_shifts_mass() {
        let m = triangle();
        let mut pr = PageRank::new();
        pr.personalization(vec![1.0, 0.0, 0.0]);
        let r = pr.run(&m).unwrap();
        // All teleportation lands on page 0, which then feeds 1 then 2.
        assert!(r.ranking.score(0) > r.ranking.score(2));
    }

    #[test]
    fn damping_validated() {
        for bad in [0.0, 1.0, -0.2, 1.5, f64::NAN] {
            let err = PageRank::new().damping(bad).run(&triangle()).unwrap_err();
            assert!(matches!(err, RankError::InvalidDamping { .. }), "{bad}");
        }
    }

    #[test]
    fn personalization_validated() {
        let m = triangle();
        let mut pr = PageRank::new();
        pr.personalization(vec![0.5, 0.5]); // wrong length
        assert!(matches!(
            pr.run(&m),
            Err(RankError::InvalidPersonalization { .. })
        ));
        let mut pr = PageRank::new();
        pr.personalization(vec![0.5, 0.6, 0.2]); // not a distribution
        assert!(matches!(
            pr.run(&m),
            Err(RankError::InvalidPersonalization { .. })
        ));
    }

    #[test]
    fn higher_damping_concentrates_on_link_structure() {
        // Star pointing at 0: higher damping should rank 0 higher.
        let mut coo = CooMatrix::new(4, 4);
        for i in 1..4 {
            coo.push(i, 0, 1.0);
        }
        coo.push(0, 1, 1.0);
        let m = StochasticMatrix::from_adjacency(coo.to_csr()).unwrap();
        let low = PageRank::new().damping(0.5).run(&m).unwrap();
        let high = PageRank::new().damping(0.95).run(&m).unwrap();
        assert!(high.ranking.score(0) > low.ranking.score(0));
    }

    #[test]
    fn warm_start_converges_to_same_vector() {
        let m = with_dangling();
        let cold = PageRank::new().run(&m).unwrap();
        let mut pr = PageRank::new();
        pr.initial(vec![0.7, 0.2, 0.1]);
        let warm = pr.run(&m).unwrap();
        assert!(vec_ops::l1_diff(cold.ranking.scores(), warm.ranking.scores()) < 1e-9);
    }

    #[test]
    fn run_adjacency_convenience() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 7.0);
        let r = PageRank::new().run_adjacency(coo.to_csr()).unwrap();
        assert!((r.ranking.score(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_rejected() {
        let m = StochasticMatrix::from_adjacency(CooMatrix::new(0, 0).to_csr()).unwrap();
        assert!(matches!(PageRank::new().run(&m), Err(RankError::Empty)));
    }

    #[test]
    fn google_matrix_is_row_stochastic() {
        let g = google_matrix_dense(&with_dangling(), 0.85, None, DanglingPolicy::Uniform).unwrap();
        g.check_row_stochastic(1e-12).unwrap();
    }

    #[test]
    fn thread_count_is_bit_invisible() {
        for policy in [
            DanglingPolicy::Uniform,
            DanglingPolicy::Teleport,
            DanglingPolicy::Renormalize,
        ] {
            let m = with_dangling();
            let serial = PageRank::new().dangling(policy).run(&m).unwrap();
            for threads in [2usize, 4, 0] {
                let mut pr = PageRank::new();
                pr.dangling(policy).threads(threads);
                let parallel = pr.run(&m).unwrap();
                let same = serial
                    .ranking
                    .scores()
                    .iter()
                    .zip(parallel.ranking.scores())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "policy {policy:?}, {threads} threads");
                assert_eq!(serial.report.iterations, parallel.report.iterations);
            }
        }
    }
}
