//! Numerical verification of the Partition Theorem (Theorem 2).
//!
//! The theorem asserts that the decentralized Layered Method (Approach 4)
//! produces *exactly* the stationary distribution of the global chain `W`
//! (Approach 2) whenever `Y` is primitive. [`verify_partition_theorem`]
//! computes both sides and reports the discrepancy — used by the test
//! suite (on random models), `lmm-repro partition` and the examples.

use crate::approaches::{compute, LmmParams, RankApproach};
use crate::error::Result;
use crate::model::LayeredMarkovModel;
use lmm_linalg::vec_ops;

/// Outcome of one Partition-Theorem check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionCheck {
    /// `max_i |π_A2(i) − π_A4(i)|`.
    pub linf: f64,
    /// `Σ_i |π_A2(i) − π_A4(i)|`.
    pub l1: f64,
    /// Whether both approaches rank every state identically.
    pub same_order: bool,
    /// Power iterations the centralized global chain needed.
    pub central_iterations: usize,
    /// Power iterations the layered phase chain needed (the per-phase
    /// gatekeeper iterations are independent of this count).
    pub layered_iterations: usize,
    /// Number of global states compared.
    pub states: usize,
}

impl std::fmt::Display for PartitionCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|A2 - A4|_inf = {:.3e}, |.|_1 = {:.3e}, same order: {} ({} states; {} vs {} iterations)",
            self.linf, self.l1, self.same_order, self.states,
            self.central_iterations, self.layered_iterations
        )
    }
}

/// Computes Approach 2 and Approach 4 on `model` and compares them.
///
/// # Errors
/// Propagates computation failures, including
/// [`LmmError::PhaseMatrixNotPrimitive`](crate::LmmError::PhaseMatrixNotPrimitive)
/// when `Y` violates the theorem's precondition.
pub fn verify_partition_theorem(
    model: &LayeredMarkovModel,
    params: &LmmParams,
) -> Result<PartitionCheck> {
    let central = compute(model, RankApproach::StationaryOfGlobal, params)?;
    let layered = compute(model, RankApproach::Layered, params)?;
    Ok(PartitionCheck {
        linf: vec_ops::linf_diff(central.scores(), layered.scores()),
        l1: vec_ops::l1_diff(central.scores(), layered.scores()),
        same_order: central.order_states() == layered.order_states(),
        central_iterations: central.report.iterations,
        layered_iterations: layered.report.iterations,
        states: central.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::random_model;

    #[test]
    fn holds_on_random_models() {
        for seed in 0..8 {
            let model = random_model(4, 2, 7, seed);
            let check = verify_partition_theorem(&model, &LmmParams::default()).unwrap();
            assert!(check.linf < 1e-9, "seed {seed}: {check}");
            assert!(check.same_order, "seed {seed}: order diverged");
        }
    }

    #[test]
    fn holds_for_various_alphas() {
        let model = random_model(5, 3, 6, 99);
        for alpha in [0.3, 0.5, 0.85, 0.99] {
            let check = verify_partition_theorem(&model, &LmmParams::with_factor(alpha)).unwrap();
            assert!(check.linf < 1e-9, "alpha {alpha}: {check}");
        }
    }

    #[test]
    fn display_mentions_norms() {
        let model = random_model(3, 2, 4, 1);
        let check = verify_partition_theorem(&model, &LmmParams::default()).unwrap();
        let s = check.to_string();
        assert!(s.contains("A2 - A4"));
        assert!(s.contains("same order"));
    }
}
