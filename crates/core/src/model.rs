//! The Layered Markov Model structure (Definition 1).

use crate::error::{LmmError, Result};
use lmm_linalg::{vec_ops, StochasticMatrix};

/// A global system state `(I, i)`: sub-state `i` of phase `I`
/// (the paper writes e.g. `(2,3)` for sub-state 3 of phase 2, 1-based; this
/// type is 0-based like everything else in the workspace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalState {
    /// Phase (site) index.
    pub phase: usize,
    /// Sub-state (document) index within the phase.
    pub sub: usize,
}

impl GlobalState {
    /// Creates a global state.
    #[must_use]
    pub fn new(phase: usize, sub: usize) -> Self {
        Self { phase, sub }
    }
}

impl std::fmt::Display for GlobalState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Match the paper's 1-based (phase, sub-state) notation for easy
        // cross-checking against Figure 2.
        write!(f, "({},{})", self.phase + 1, self.sub + 1)
    }
}

/// One phase `P_I` of the model: its sub-state transition matrix `U_I` and
/// initial distribution `v_U^I`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseModel {
    u: StochasticMatrix,
    vu: Vec<f64>,
}

impl PhaseModel {
    /// Wraps a sub-state transition matrix with an optional initial
    /// distribution (uniform when `None`).
    ///
    /// # Errors
    /// Returns [`LmmError::InvalidModel`] when the phase has no sub-states
    /// or `vu` is not a distribution of matching length.
    pub fn new(u: StochasticMatrix, vu: Option<Vec<f64>>) -> Result<Self> {
        let n = u.n();
        if n == 0 {
            return Err(LmmError::InvalidModel {
                reason: "phase must have at least one sub-state".into(),
            });
        }
        let vu = match vu {
            Some(v) => {
                if v.len() != n {
                    return Err(LmmError::InvalidModel {
                        reason: format!(
                            "initial distribution has length {}, phase has {n} sub-states",
                            v.len()
                        ),
                    });
                }
                vec_ops::check_distribution(&v, 1e-6).map_err(|e| LmmError::InvalidModel {
                    reason: format!("initial distribution invalid: {e}"),
                })?;
                v
            }
            None => vec_ops::uniform(n),
        };
        Ok(Self { u, vu })
    }

    /// Number of sub-states `n_I`.
    #[must_use]
    pub fn n_substates(&self) -> usize {
        self.u.n()
    }

    /// The sub-state transition matrix `U_I`.
    #[must_use]
    pub fn transition(&self) -> &StochasticMatrix {
        &self.u
    }

    /// The initial sub-state distribution `v_U^I` (used as the gatekeeper's
    /// out-row in the minimal-irreducibility construction).
    #[must_use]
    pub fn initial(&self) -> &[f64] {
        &self.vu
    }
}

/// A two-layer Layered Markov Model `LMM = (P, Y, vY, O, U, vU)`
/// (Definition 1).
///
/// Use the high-level ranking methods ([`layered_method`],
/// [`stationary_of_global`], ...) or the lower-level functions in
/// [`crate::approaches`] and [`crate::global`].
///
/// [`layered_method`]: LayeredMarkovModel::layered_method
/// [`stationary_of_global`]: LayeredMarkovModel::stationary_of_global
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredMarkovModel {
    y: StochasticMatrix,
    vy: Vec<f64>,
    phases: Vec<PhaseModel>,
    /// Prefix sums of phase sizes: global index of `(I, i)` is
    /// `offsets[I] + i`; `offsets[n_phases]` is the total state count.
    offsets: Vec<usize>,
}

impl LayeredMarkovModel {
    /// Assembles a model from the phase-layer matrix `Y`, an optional phase
    /// initial distribution `vY` (uniform when `None`) and the per-phase
    /// sub-models.
    ///
    /// # Errors
    /// Returns [`LmmError::InvalidModel`] when there are no phases, when
    /// `Y`'s dimension differs from the number of phases, or when `vy` is
    /// not a distribution of matching length.
    pub fn new(y: StochasticMatrix, vy: Option<Vec<f64>>, phases: Vec<PhaseModel>) -> Result<Self> {
        if phases.is_empty() {
            return Err(LmmError::InvalidModel {
                reason: "model must have at least one phase".into(),
            });
        }
        if y.n() != phases.len() {
            return Err(LmmError::InvalidModel {
                reason: format!(
                    "phase matrix Y is {}x{} but there are {} phases",
                    y.n(),
                    y.n(),
                    phases.len()
                ),
            });
        }
        let vy = match vy {
            Some(v) => {
                if v.len() != phases.len() {
                    return Err(LmmError::InvalidModel {
                        reason: format!(
                            "vY has length {}, model has {} phases",
                            v.len(),
                            phases.len()
                        ),
                    });
                }
                vec_ops::check_distribution(&v, 1e-6).map_err(|e| LmmError::InvalidModel {
                    reason: format!("vY invalid: {e}"),
                })?;
                v
            }
            None => vec_ops::uniform(phases.len()),
        };
        let mut offsets = Vec::with_capacity(phases.len() + 1);
        offsets.push(0);
        for p in &phases {
            offsets.push(offsets.last().expect("non-empty") + p.n_substates());
        }
        Ok(Self {
            y,
            vy,
            phases,
            offsets,
        })
    }

    /// Number of phases `N_P`.
    #[must_use]
    pub fn n_phases(&self) -> usize {
        self.phases.len()
    }

    /// Total number of global system states `N_P = Σ_I n_I`.
    #[must_use]
    pub fn total_states(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// The phase-layer transition matrix `Y`.
    #[must_use]
    pub fn phase_matrix(&self) -> &StochasticMatrix {
        &self.y
    }

    /// The phases in index order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseModel] {
        &self.phases
    }

    /// One phase.
    ///
    /// # Errors
    /// Returns [`LmmError::PhaseOutOfRange`] for a bad index.
    pub fn phase(&self, index: usize) -> Result<&PhaseModel> {
        self.phases.get(index).ok_or(LmmError::PhaseOutOfRange {
            phase: index,
            n_phases: self.phases.len(),
        })
    }

    /// Flat index of a global state, ordered by phase then sub-state — the
    /// ordering the paper uses for `W` and the rank vectors.
    ///
    /// # Panics
    /// Panics if the state is out of range; states obtained from
    /// [`state_of`](Self::state_of) are always valid.
    #[must_use]
    pub fn state_index(&self, state: GlobalState) -> usize {
        assert!(state.phase < self.phases.len(), "phase out of range");
        assert!(
            state.sub < self.phases[state.phase].n_substates(),
            "sub-state out of range"
        );
        self.offsets[state.phase] + state.sub
    }

    /// Inverse of [`state_index`](Self::state_index).
    ///
    /// # Panics
    /// Panics if `index >= total_states()`.
    #[must_use]
    pub fn state_of(&self, index: usize) -> GlobalState {
        assert!(index < self.total_states(), "state index out of range");
        // offsets is sorted; find the phase whose range contains index.
        let phase = self.offsets.partition_point(|&o| o <= index) - 1;
        GlobalState {
            phase,
            sub: index - self.offsets[phase],
        }
    }

    /// All global states in index order.
    #[must_use]
    pub fn states(&self) -> Vec<GlobalState> {
        (0..self.total_states()).map(|i| self.state_of(i)).collect()
    }

    /// Prefix-sum offsets (`offsets[I]` = flat index of `(I, 0)`).
    #[must_use]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_linalg::DenseMatrix;

    fn stochastic(rows: &[Vec<f64>]) -> StochasticMatrix {
        StochasticMatrix::new(DenseMatrix::from_rows(rows).unwrap().to_csr()).unwrap()
    }

    fn tiny_model() -> LayeredMarkovModel {
        let y = stochastic(&[vec![0.5, 0.5], vec![0.3, 0.7]]);
        let p0 = PhaseModel::new(stochastic(&[vec![0.0, 1.0], vec![1.0, 0.0]]), None).unwrap();
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
    fn structure_accessors() {
        let m = tiny_model();
        assert_eq!(m.n_phases(), 2);
        assert_eq!(m.total_states(), 5);
        assert_eq!(m.offsets(), &[0, 2, 5]);
        assert_eq!(m.phase(0).unwrap().n_substates(), 2);
        assert_eq!(m.phase(1).unwrap().n_substates(), 3);
        assert!(matches!(
            m.phase(9),
            Err(LmmError::PhaseOutOfRange { phase: 9, .. })
        ));
    }

    #[test]
    fn state_index_roundtrip() {
        let m = tiny_model();
        for idx in 0..m.total_states() {
            let s = m.state_of(idx);
            assert_eq!(m.state_index(s), idx);
        }
        assert_eq!(m.state_index(GlobalState::new(1, 0)), 2);
        assert_eq!(m.state_of(4), GlobalState::new(1, 2));
    }

    #[test]
    fn states_enumeration_ordered() {
        let m = tiny_model();
        let states = m.states();
        assert_eq!(states.len(), 5);
        assert_eq!(states[0], GlobalState::new(0, 0));
        assert_eq!(states[4], GlobalState::new(1, 2));
        assert!(states.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn display_matches_paper_notation() {
        // The paper's state "(2,3)" is 0-based (1,2).
        assert_eq!(GlobalState::new(1, 2).to_string(), "(2,3)");
    }

    #[test]
    fn default_initial_distributions_are_uniform() {
        let m = tiny_model();
        assert_eq!(m.phase(1).unwrap().initial(), &[1.0 / 3.0; 3]);
    }

    #[test]
    fn dimension_validation() {
        let y = stochastic(&[vec![0.5, 0.5], vec![0.3, 0.7]]);
        let p = PhaseModel::new(stochastic(&[vec![1.0]]), None).unwrap();
        // One phase but Y is 2x2.
        assert!(matches!(
            LayeredMarkovModel::new(y, None, vec![p]),
            Err(LmmError::InvalidModel { .. })
        ));
    }

    #[test]
    fn empty_phase_list_rejected() {
        let y = stochastic(&[vec![1.0]]);
        assert!(LayeredMarkovModel::new(y, None, vec![]).is_err());
    }

    #[test]
    fn bad_initial_distributions_rejected() {
        let u = stochastic(&[vec![0.5, 0.5], vec![0.5, 0.5]]);
        assert!(PhaseModel::new(u.clone(), Some(vec![0.5])).is_err()); // wrong length
        assert!(PhaseModel::new(u.clone(), Some(vec![0.7, 0.7])).is_err()); // not a distribution
        assert!(PhaseModel::new(u, Some(vec![0.5, 0.5])).is_ok());

        let y = stochastic(&[vec![1.0]]);
        let p = PhaseModel::new(stochastic(&[vec![1.0]]), None).unwrap();
        assert!(LayeredMarkovModel::new(y.clone(), Some(vec![0.9, 0.1]), vec![p.clone()]).is_err());
        assert!(LayeredMarkovModel::new(y, Some(vec![1.0]), vec![p]).is_ok());
    }
}
