//! The four ranking approaches of Section 2.3, over one engine.
//!
//! * **Approach 1** (centralized): PageRank — maximal irreducibility — on
//!   the global matrix `W`;
//! * **Approach 2** (centralized): the stationary distribution of `W`
//!   directly (requires a primitive `Y`);
//! * **Approach 3** (decentralized): `πY(I) · π_G^I(i)` with `πY` the
//!   PageRank of `Y`;
//! * **Approach 4** (decentralized): `π̃Y(I) · π_G^I(i)` with `π̃Y` the raw
//!   stationary vector of `Y` — **the Layered Method**, equivalent to
//!   Approach 2 by the Partition Theorem.
//!
//! Approaches 1 and 2 never materialize `W`: they run the power method on
//! the factored [`GlobalOperator`].

use crate::error::{LmmError, Result};
use crate::global::{phase_gatekeeper_distributions_pool, GlobalOperator};
use crate::model::{GlobalState, LayeredMarkovModel};
use lmm_linalg::{
    power_method_pool, structure, vec_ops, ConvergenceReport, LinalgError, LinearOperator,
    PowerOptions,
};
use lmm_par::ThreadPool;
use lmm_rank::pagerank::PageRank;
use lmm_rank::Ranking;

/// Which of the paper's four ranking approaches to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankApproach {
    /// Approach 1: PageRank (maximal irreducibility) on `W`.
    PageRankOnGlobal,
    /// Approach 2: stationary distribution of the primitive `W`.
    StationaryOfGlobal,
    /// Approach 3: layered composition with PageRank of `Y`.
    LayeredWithPageRankSite,
    /// Approach 4: the Layered Method (`π̃Y` composed with gatekeeper
    /// distributions).
    Layered,
}

impl RankApproach {
    /// All four approaches, in the paper's numbering order.
    pub const ALL: [RankApproach; 4] = [
        RankApproach::PageRankOnGlobal,
        RankApproach::StationaryOfGlobal,
        RankApproach::LayeredWithPageRankSite,
        RankApproach::Layered,
    ];
}

impl std::fmt::Display for RankApproach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RankApproach::PageRankOnGlobal => "Approach 1 (PageRank on W)",
            RankApproach::StationaryOfGlobal => "Approach 2 (stationary of W)",
            RankApproach::LayeredWithPageRankSite => "Approach 3 (layered, PageRank Y)",
            RankApproach::Layered => "Approach 4 (Layered Method)",
        };
        f.write_str(name)
    }
}

/// Scalar parameters shared by the approaches.
#[derive(Debug, Clone, PartialEq)]
pub struct LmmParams {
    /// Gatekeeper mixing parameter `α` (Section 2.3.2) — the damping of the
    /// per-phase PageRank.
    pub alpha: f64,
    /// Damping used where a maximal-irreducibility adjustment applies
    /// (Approach 1 on `W`, Approach 3 on `Y`).
    pub damping: f64,
    /// Power-method budget for every stationary computation.
    pub power: PowerOptions,
    /// Worker threads for the per-phase fan-out and the global-chain
    /// vector passes (`0` = one per available core, the default). The
    /// ranking is identical for every value.
    pub threads: usize,
}

impl Default for LmmParams {
    fn default() -> Self {
        Self {
            alpha: 0.85,
            damping: 0.85,
            power: PowerOptions::default(),
            threads: 0,
        }
    }
}

impl LmmParams {
    /// Parameters with both mixing factors set to `f` (the common case —
    /// the paper uses 0.85 throughout).
    #[must_use]
    pub fn with_factor(f: f64) -> Self {
        Self {
            alpha: f,
            damping: f,
            ..Self::default()
        }
    }
}

/// A ranking over the global system states of a model, with the state
/// labeling needed to print Figure-2-style tables.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalRanking {
    ranking: Ranking,
    offsets: Vec<usize>,
    /// Convergence of the dominant stationary computation (the global chain
    /// for Approaches 1/2, the phase chain for 3/4).
    pub report: ConvergenceReport,
}

impl GlobalRanking {
    fn new(ranking: Ranking, offsets: Vec<usize>, report: ConvergenceReport) -> Self {
        Self {
            ranking,
            offsets,
            report,
        }
    }

    /// The underlying ranking (a probability distribution over all states).
    #[must_use]
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }

    /// Scores in flat state order.
    #[must_use]
    pub fn scores(&self) -> &[f64] {
        self.ranking.scores()
    }

    /// Number of global states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ranking.len()
    }

    /// `true` when there are no states (not constructible via this crate).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranking.is_empty()
    }

    /// Score of one `(phase, sub)` state.
    ///
    /// # Panics
    /// Panics if the state is out of range.
    #[must_use]
    pub fn score_state(&self, state: GlobalState) -> f64 {
        self.ranking.score(self.offsets[state.phase] + state.sub)
    }

    /// The `(phase, sub)` label of a flat index.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn state_of(&self, index: usize) -> GlobalState {
        assert!(index < self.len(), "state index out of range");
        let phase = self.offsets.partition_point(|&o| o <= index) - 1;
        GlobalState {
            phase,
            sub: index - self.offsets[phase],
        }
    }

    /// States in descending score order (Figure 2's right-hand columns).
    #[must_use]
    pub fn order_states(&self) -> Vec<GlobalState> {
        self.ranking
            .order()
            .into_iter()
            .map(|i| self.state_of(i))
            .collect()
    }
}

/// Damped (Google-style) wrapper over the factored global operator:
/// `y = d·(Wᵀx + dangling·u) + (1−d)·‖x‖₁·u` with uniform `u` — PageRank's
/// maximal irreducibility applied to `W` without materializing it.
struct DampedGlobalOperator<'a> {
    inner: GlobalOperator<'a>,
    model: &'a LayeredMarkovModel,
    damping: f64,
}

impl LinearOperator for DampedGlobalOperator<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply_to(&self, x: &[f64], y: &mut [f64]) -> std::result::Result<(), LinalgError> {
        self.inner.apply_to(x, y)?;
        // Rows of W in a phase whose Y-row is dangling are all-zero;
        // redistribute that mass uniformly (standard dangling patch).
        let offsets = self.model.offsets();
        let dangling_mass: f64 = self
            .model
            .phase_matrix()
            .dangling()
            .iter()
            .map(|&i_phase| {
                x[offsets[i_phase]..offsets[i_phase + 1]]
                    .iter()
                    .sum::<f64>()
            })
            .sum();
        let n = self.dim() as f64;
        let sx: f64 = x.iter().sum();
        let teleport = (self.damping * dangling_mass + (1.0 - self.damping) * sx) / n;
        for yi in y.iter_mut() {
            *yi = self.damping * *yi + teleport;
        }
        Ok(())
    }
}

/// Runs one of the four approaches on a model.
///
/// # Errors
/// * [`LmmError::PhaseMatrixNotPrimitive`] for Approaches 2 and 4 when `Y`
///   is not primitive (the paper's precondition for Theorem 2);
/// * propagated gatekeeper/PageRank/power-method failures otherwise.
pub fn compute(
    model: &LayeredMarkovModel,
    approach: RankApproach,
    params: &LmmParams,
) -> Result<GlobalRanking> {
    let pool = ThreadPool::shared(params.threads);
    let dists = phase_gatekeeper_distributions_pool(model, params.alpha, &params.power, &pool)?;
    let offsets = model.offsets().to_vec();
    match approach {
        RankApproach::PageRankOnGlobal => {
            let op = DampedGlobalOperator {
                inner: GlobalOperator::new(model, &dists)?,
                model,
                damping: params.damping,
            };
            let x0 = vec_ops::uniform(model.total_states());
            let (scores, report) = power_method_pool(&op, &x0, &params.power, &pool)?;
            Ok(GlobalRanking::new(
                Ranking::from_scores(scores)?,
                offsets,
                report,
            ))
        }
        RankApproach::StationaryOfGlobal => {
            require_primitive_phase_matrix(model)?;
            let op = GlobalOperator::new(model, &dists)?;
            let x0 = vec_ops::uniform(model.total_states());
            let (scores, report) = power_method_pool(&op, &x0, &params.power, &pool)?;
            Ok(GlobalRanking::new(
                Ranking::from_scores(scores)?,
                offsets,
                report,
            ))
        }
        RankApproach::LayeredWithPageRankSite => {
            let mut pr = PageRank::new();
            pr.damping(params.damping)
                .tol(params.power.tol)
                .max_iters(params.power.max_iters);
            let site = pr.run(model.phase_matrix())?;
            Ok(GlobalRanking::new(
                compose(model, site.ranking.scores(), &dists)?,
                offsets,
                site.report,
            ))
        }
        RankApproach::Layered => {
            require_primitive_phase_matrix(model)?;
            let (site, report) = lmm_linalg::power::stationary_distribution(
                model.phase_matrix().matrix(),
                &params.power,
            )?;
            Ok(GlobalRanking::new(
                compose(model, &site, &dists)?,
                offsets,
                report,
            ))
        }
    }
}

/// Composes a phase-layer vector with per-phase gatekeeper distributions:
/// `π(I, i) = site(I) · π_G^I(i)` (eq. 5). The result is a probability
/// distribution (Theorem 1).
fn compose(model: &LayeredMarkovModel, site: &[f64], dists: &[Ranking]) -> Result<Ranking> {
    let mut scores = Vec::with_capacity(model.total_states());
    for (i_phase, dist) in dists.iter().enumerate() {
        let weight = site[i_phase];
        scores.extend(dist.scores().iter().map(|&p| weight * p));
    }
    Ok(Ranking::from_scores(scores)?)
}

fn require_primitive_phase_matrix(model: &LayeredMarkovModel) -> Result<()> {
    let report = structure::analyze(model.phase_matrix().matrix())?;
    if !report.primitive {
        return Err(LmmError::PhaseMatrixNotPrimitive {
            components: report.components,
            period: report.period.unwrap_or(0),
        });
    }
    Ok(())
}

impl LayeredMarkovModel {
    /// Runs one of the paper's four approaches with explicit parameters.
    ///
    /// # Errors
    /// See [`compute`].
    pub fn rank(&self, approach: RankApproach, params: &LmmParams) -> Result<GlobalRanking> {
        compute(self, approach, params)
    }

    /// **Approach 4 — the Layered Method** (decentralized): composes the
    /// stationary vector of `Y` with the per-phase gatekeeper distributions
    /// at mixing factor `alpha`.
    ///
    /// # Errors
    /// See [`compute`]; requires a primitive `Y`.
    pub fn layered_method(&self, alpha: f64) -> Result<GlobalRanking> {
        compute(self, RankApproach::Layered, &LmmParams::with_factor(alpha))
    }

    /// **Approach 2** (centralized): the stationary distribution of the
    /// global chain `W`, computed through the factored operator.
    ///
    /// # Errors
    /// See [`compute`]; requires a primitive `Y`.
    pub fn stationary_of_global(&self, alpha: f64) -> Result<GlobalRanking> {
        compute(
            self,
            RankApproach::StationaryOfGlobal,
            &LmmParams::with_factor(alpha),
        )
    }

    /// **Approach 1** (centralized): PageRank with maximal irreducibility
    /// applied to `W`, both mixing factors set to `alpha`.
    ///
    /// # Errors
    /// See [`compute`].
    pub fn pagerank_of_global(&self, alpha: f64) -> Result<GlobalRanking> {
        compute(
            self,
            RankApproach::PageRankOnGlobal,
            &LmmParams::with_factor(alpha),
        )
    }

    /// **Approach 3** (decentralized): composes the PageRank of `Y` with the
    /// gatekeeper distributions.
    ///
    /// # Errors
    /// See [`compute`].
    pub fn layered_with_pagerank_site(&self, alpha: f64) -> Result<GlobalRanking> {
        compute(
            self,
            RankApproach::LayeredWithPageRankSite,
            &LmmParams::with_factor(alpha),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PhaseModel;
    use lmm_linalg::{DenseMatrix, StochasticMatrix};

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
    fn all_approaches_produce_distributions() {
        let m = model();
        for approach in RankApproach::ALL {
            let r = m.rank(approach, &LmmParams::default()).unwrap();
            let total: f64 = r.scores().iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{approach}");
            assert_eq!(r.len(), 5, "{approach}");
        }
    }

    #[test]
    fn partition_theorem_on_small_model() {
        let m = model();
        let a2 = m.stationary_of_global(0.85).unwrap();
        let a4 = m.layered_method(0.85).unwrap();
        assert!(vec_ops::linf_diff(a2.scores(), a4.scores()) < 1e-9);
        assert_eq!(a2.order_states(), a4.order_states());
    }

    #[test]
    fn approaches_one_and_three_close_but_distinct_from_two_and_four() {
        // With maximal irreducibility applied on top of an already primitive
        // chain, the vectors differ slightly (the paper's Figure 2 shows
        // this) but not wildly.
        let m = model();
        let a1 = m.pagerank_of_global(0.85).unwrap();
        let a2 = m.stationary_of_global(0.85).unwrap();
        let diff = vec_ops::linf_diff(a1.scores(), a2.scores());
        assert!(
            diff > 1e-6,
            "maximal irreducibility must perturb the vector"
        );
        assert!(diff < 0.1, "but only slightly");
    }

    #[test]
    fn a1_equals_a3_and_a2_equals_a4_pairwise() {
        // The paper's deeper claim: the *pairing* of adjustments matches.
        // A3 composes PageRank(Y); A1 applies PageRank to W. These are NOT
        // equal in general; only A2 == A4 is a theorem. Verify A3 != A2 to
        // guard against an implementation that conflates them.
        let m = model();
        let a2 = m.stationary_of_global(0.85).unwrap();
        let a3 = m.layered_with_pagerank_site(0.85).unwrap();
        assert!(vec_ops::linf_diff(a2.scores(), a3.scores()) > 1e-6);
    }

    #[test]
    fn non_primitive_y_rejected_for_a2_a4() {
        // Y = pure 2-cycle: irreducible but periodic, hence not primitive.
        let y = stochastic(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let p0 = PhaseModel::new(stochastic(&[vec![0.5, 0.5], vec![0.9, 0.1]]), None).unwrap();
        let p1 = PhaseModel::new(stochastic(&[vec![0.3, 0.7], vec![0.6, 0.4]]), None).unwrap();
        let m = LayeredMarkovModel::new(y, None, vec![p0, p1]).unwrap();
        assert!(matches!(
            m.layered_method(0.85),
            Err(LmmError::PhaseMatrixNotPrimitive { period: 2, .. })
        ));
        assert!(matches!(
            m.stationary_of_global(0.85),
            Err(LmmError::PhaseMatrixNotPrimitive { .. })
        ));
        // Approaches 1 and 3 still work (maximal irreducibility fixes Y/W).
        assert!(m.pagerank_of_global(0.85).is_ok());
        assert!(m.layered_with_pagerank_site(0.85).is_ok());
    }

    #[test]
    fn global_ranking_state_accessors() {
        let m = model();
        let r = m.layered_method(0.85).unwrap();
        let s = GlobalState::new(1, 2);
        let idx = m.state_index(s);
        assert_eq!(r.score_state(s), r.scores()[idx]);
        assert_eq!(r.state_of(idx), s);
        assert_eq!(r.order_states().len(), 5);
        assert!(!r.is_empty());
    }

    #[test]
    fn approach_metadata() {
        assert!(RankApproach::Layered.to_string().contains("Layered"));
    }

    #[test]
    fn alpha_affects_result() {
        let m = model();
        let lo = m.layered_method(0.5).unwrap();
        let hi = m.layered_method(0.99).unwrap();
        assert!(vec_ops::l1_diff(lo.scores(), hi.scores()) > 1e-4);
    }
}
