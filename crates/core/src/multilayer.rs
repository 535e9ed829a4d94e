//! Multi-layer extension of the Layered Markov Model.
//!
//! The paper analyzes a two-layer model but notes that "the analysis can be
//! extended to multi-layer models using similar reasoning" (Section 2.2).
//! This module implements that extension: an arbitrary-depth hierarchy
//! whose leaves carry sub-state transition matrices and whose internal
//! nodes carry transition matrices over their children.
//!
//! Ranking generalizes Approach 4 recursively:
//!
//! * a **leaf**'s local ranking is its gatekeeper distribution (PageRank at
//!   mixing factor `α`, as in Section 2.3.2);
//! * a **non-root internal** node's local ranking composes the PageRank of
//!   its child-transition matrix with its children's local rankings — the
//!   gatekeeper construction applied one level up;
//! * the **root** composes its children with either the raw stationary
//!   vector of its transition matrix (the Layered Method; requires
//!   primitivity) or its PageRank (the maximal-irreducibility variant).
//!
//! A two-level hierarchy with [`TopLevelMethod::Stationary`] reproduces the
//! two-layer Approach 4 exactly (verified in the tests).

use crate::error::{LmmError, Result};
use crate::model::LayeredMarkovModel;
use lmm_linalg::{power::stationary_distribution, structure, PowerOptions, StochasticMatrix};
use lmm_rank::gatekeeper::gatekeeper_distribution;
use lmm_rank::pagerank::PageRank;
use lmm_rank::Ranking;

/// A node of the layered hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub enum HierarchyNode {
    /// A leaf phase: sub-states with their transition matrix.
    Leaf {
        /// Sub-state transition matrix.
        transition: StochasticMatrix,
    },
    /// An internal grouping: a transition matrix over the children.
    Internal {
        /// Transition matrix over the children (dimension = number of
        /// children).
        transition: StochasticMatrix,
        /// The grouped sub-models.
        children: Vec<HierarchyNode>,
    },
}

impl HierarchyNode {
    /// Total number of leaf-level states in this subtree.
    #[must_use]
    pub fn total_states(&self) -> usize {
        match self {
            HierarchyNode::Leaf { transition } => transition.n(),
            HierarchyNode::Internal { children, .. } => {
                children.iter().map(HierarchyNode::total_states).sum()
            }
        }
    }

    /// Depth of the subtree (a leaf has depth 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        match self {
            HierarchyNode::Leaf { .. } => 1,
            HierarchyNode::Internal { children, .. } => {
                1 + children.iter().map(HierarchyNode::depth).max().unwrap_or(0)
            }
        }
    }

    fn validate(&self) -> Result<()> {
        match self {
            HierarchyNode::Leaf { transition } => {
                if transition.n() == 0 {
                    return Err(LmmError::InvalidModel {
                        reason: "leaf with zero sub-states".into(),
                    });
                }
                Ok(())
            }
            HierarchyNode::Internal {
                transition,
                children,
            } => {
                if children.is_empty() {
                    return Err(LmmError::InvalidModel {
                        reason: "internal node without children".into(),
                    });
                }
                if transition.n() != children.len() {
                    return Err(LmmError::InvalidModel {
                        reason: format!(
                            "internal transition is {}x{} over {} children",
                            transition.n(),
                            transition.n(),
                            children.len()
                        ),
                    });
                }
                children.iter().try_for_each(HierarchyNode::validate)
            }
        }
    }
}

/// How the root layer's weighting vector is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopLevelMethod {
    /// Raw stationary distribution of the root transition matrix — the
    /// multi-layer Layered Method (Approach 4). Requires primitivity.
    #[default]
    Stationary,
    /// PageRank of the root transition matrix (Approach 3's flavor).
    PageRank,
}

/// An arbitrary-depth layered model.
///
/// # Example
/// ```
/// use lmm_core::multilayer::{HierarchicalModel, HierarchyNode, TopLevelMethod};
/// use lmm_linalg::{DenseMatrix, StochasticMatrix};
///
/// # fn main() -> Result<(), lmm_core::LmmError> {
/// let leaf = |rows: &[Vec<f64>]| -> Result<HierarchyNode, lmm_core::LmmError> {
///     Ok(HierarchyNode::Leaf {
///         transition: StochasticMatrix::new(DenseMatrix::from_rows(rows)?.to_csr())?,
///     })
/// };
/// let root = HierarchyNode::Internal {
///     transition: StochasticMatrix::new(
///         DenseMatrix::from_rows(&[vec![0.3, 0.7], vec![0.6, 0.4]])?.to_csr(),
///     )?,
///     children: vec![
///         leaf(&[vec![0.5, 0.5], vec![0.2, 0.8]])?,
///         leaf(&[vec![0.1, 0.9], vec![0.9, 0.1]])?,
///     ],
/// };
/// let model = HierarchicalModel::new(root)?;
/// let ranking = model.rank(0.85, TopLevelMethod::Stationary)?;
/// assert_eq!(ranking.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalModel {
    root: HierarchyNode,
}

impl HierarchicalModel {
    /// Validates and wraps a hierarchy.
    ///
    /// # Errors
    /// Returns [`LmmError::InvalidModel`] for structural inconsistencies.
    pub fn new(root: HierarchyNode) -> Result<Self> {
        root.validate()?;
        Ok(Self { root })
    }

    /// The hierarchy root.
    #[must_use]
    pub fn root(&self) -> &HierarchyNode {
        &self.root
    }

    /// Total number of leaf states.
    #[must_use]
    pub fn total_states(&self) -> usize {
        self.root.total_states()
    }

    /// Number of layers (a flat chain is depth 1, the paper's model is
    /// depth 2).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Computes the global ranking over all leaf states.
    ///
    /// # Errors
    /// * [`LmmError::PhaseMatrixNotPrimitive`] when the root matrix is not
    ///   primitive and `method` is [`TopLevelMethod::Stationary`];
    /// * propagated PageRank/power-method failures elsewhere.
    pub fn rank(&self, alpha: f64, method: TopLevelMethod) -> Result<Ranking> {
        let weights = match (&self.root, method) {
            (HierarchyNode::Leaf { transition }, _) => {
                // A flat chain: its "ranking" is the gatekeeper distribution
                // itself.
                return Ok(gatekeeper_distribution(
                    transition,
                    alpha,
                    None,
                    &PowerOptions::default(),
                )?
                .distribution);
            }
            (HierarchyNode::Internal { transition, .. }, TopLevelMethod::Stationary) => {
                let report = structure::analyze(transition.matrix())?;
                if !report.primitive {
                    return Err(LmmError::PhaseMatrixNotPrimitive {
                        components: report.components,
                        period: report.period.unwrap_or(0),
                    });
                }
                stationary_distribution(transition.matrix(), &PowerOptions::default())?.0
            }
            (HierarchyNode::Internal { transition, .. }, TopLevelMethod::PageRank) => {
                PageRank::new()
                    .damping(alpha)
                    .run(transition)?
                    .ranking
                    .into_scores()
            }
        };
        let HierarchyNode::Internal { children, .. } = &self.root else {
            unreachable!("leaf case returned above")
        };
        // The children's local rankings are independent — fan them across
        // one worker per core and concatenate in child order. Each child is
        // ranked serially in its own slot, so the composition is identical
        // for every core count.
        let pool = lmm_par::ThreadPool::shared(0);
        let locals = pool.par_map(children, |_, child| local_rank(child, alpha));
        let mut scores = Vec::with_capacity(self.total_states());
        for (local, &w) in locals.into_iter().zip(&weights) {
            let local = local?;
            scores.extend(local.scores().iter().map(|&p| w * p));
        }
        Ok(Ranking::from_scores(scores)?)
    }
}

/// Local ranking of a non-root subtree: gatekeeper (PageRank) weighting at
/// every internal level, gatekeeper distributions at the leaves.
fn local_rank(node: &HierarchyNode, alpha: f64) -> Result<Ranking> {
    match node {
        HierarchyNode::Leaf { transition } => {
            Ok(
                gatekeeper_distribution(transition, alpha, None, &PowerOptions::default())?
                    .distribution,
            )
        }
        HierarchyNode::Internal {
            transition,
            children,
        } => {
            let weights = PageRank::new().damping(alpha).run(transition)?.ranking;
            let mut scores = Vec::with_capacity(node.total_states());
            for (child, &w) in children.iter().zip(weights.scores()) {
                let local = local_rank(child, alpha)?;
                scores.extend(local.scores().iter().map(|&p| w * p));
            }
            Ok(Ranking::from_scores(scores)?)
        }
    }
}

/// Converts a two-layer [`LayeredMarkovModel`] into the equivalent
/// two-level hierarchy.
#[must_use]
pub fn from_two_layer(model: &LayeredMarkovModel) -> HierarchicalModel {
    let children = model
        .phases()
        .iter()
        .map(|p| HierarchyNode::Leaf {
            transition: p.transition().clone(),
        })
        .collect();
    HierarchicalModel {
        root: HierarchyNode::Internal {
            transition: model.phase_matrix().clone(),
            children,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::random_model;
    use crate::worked_example;
    use lmm_linalg::{vec_ops, DenseMatrix};

    fn leaf(rows: &[Vec<f64>]) -> HierarchyNode {
        HierarchyNode::Leaf {
            transition: StochasticMatrix::new(DenseMatrix::from_rows(rows).unwrap().to_csr())
                .unwrap(),
        }
    }

    fn internal(rows: &[Vec<f64>], children: Vec<HierarchyNode>) -> HierarchyNode {
        HierarchyNode::Internal {
            transition: StochasticMatrix::new(DenseMatrix::from_rows(rows).unwrap().to_csr())
                .unwrap(),
            children,
        }
    }

    #[test]
    fn two_level_matches_layered_method() {
        // The multi-layer generalization must agree with Approach 4 on
        // two-layer models.
        for seed in [3, 17, 99] {
            let m = random_model(4, 2, 5, seed);
            let expected = m.layered_method(0.85).unwrap();
            let hier = from_two_layer(&m);
            let got = hier.rank(0.85, TopLevelMethod::Stationary).unwrap();
            assert!(
                vec_ops::linf_diff(expected.scores(), got.scores()) < 1e-9,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn paper_model_through_hierarchy() {
        let m = worked_example::paper_model().unwrap();
        let hier = from_two_layer(&m);
        let got = hier.rank(0.85, TopLevelMethod::Stationary).unwrap();
        for (g, e) in got.scores().iter().zip(worked_example::PAPER_PI_W_TILDE) {
            assert!((g - e).abs() < 7e-4);
        }
    }

    #[test]
    fn three_level_hierarchy_ranks() {
        let group_a = internal(
            &[vec![0.4, 0.6], vec![0.7, 0.3]],
            vec![
                leaf(&[vec![0.5, 0.5], vec![0.2, 0.8]]),
                leaf(&[vec![0.1, 0.9], vec![0.9, 0.1]]),
            ],
        );
        let group_b = leaf(&[
            vec![0.3, 0.3, 0.4],
            vec![0.2, 0.6, 0.2],
            vec![0.5, 0.25, 0.25],
        ]);
        let root = internal(&[vec![0.2, 0.8], vec![0.5, 0.5]], vec![group_a, group_b]);
        let model = HierarchicalModel::new(root).unwrap();
        assert_eq!(model.depth(), 3);
        assert_eq!(model.total_states(), 7);
        let r = model.rank(0.85, TopLevelMethod::Stationary).unwrap();
        assert_eq!(r.len(), 7);
        assert!((r.scores().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flat_leaf_model_is_gatekeeper_distribution() {
        let model = HierarchicalModel::new(leaf(&[vec![0.5, 0.5], vec![0.9, 0.1]])).unwrap();
        assert_eq!(model.depth(), 1);
        let r = model.rank(0.85, TopLevelMethod::Stationary).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.score(0) > r.score(1));
    }

    #[test]
    fn structural_validation() {
        // Internal with mismatched transition size.
        let bad = internal(&[vec![0.5, 0.5], vec![0.5, 0.5]], vec![leaf(&[vec![1.0]])]);
        assert!(HierarchicalModel::new(bad).is_err());
        // Internal without children.
        let bad = internal(&[vec![1.0]], vec![]);
        assert!(HierarchicalModel::new(bad).is_err());
    }

    #[test]
    fn non_primitive_root_rejected_for_stationary() {
        let root = internal(
            &[vec![0.0, 1.0], vec![1.0, 0.0]],
            vec![leaf(&[vec![1.0]]), leaf(&[vec![1.0]])],
        );
        let model = HierarchicalModel::new(root).unwrap();
        assert!(matches!(
            model.rank(0.85, TopLevelMethod::Stationary),
            Err(LmmError::PhaseMatrixNotPrimitive { .. })
        ));
        // PageRank at the root handles it.
        assert!(model.rank(0.85, TopLevelMethod::PageRank).is_ok());
    }

    #[test]
    fn pagerank_top_level_matches_approach3_on_two_layer() {
        let m = random_model(3, 2, 4, 5);
        let expected = m.layered_with_pagerank_site(0.85).unwrap();
        let hier = from_two_layer(&m);
        let got = hier.rank(0.85, TopLevelMethod::PageRank).unwrap();
        assert!(vec_ops::linf_diff(expected.scores(), got.scores()) < 1e-9);
    }
}
