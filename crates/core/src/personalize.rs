//! Personalization-vector construction (Section 3.2, personalization at
//! both layers).
//!
//! The paper observes that personalized rankings fall out of the layered
//! method "in an elegant way": replace the uniform teleport vector with a
//! preference distribution at the site layer (step 4), the document layer
//! within chosen sites (step 3), or both. [`PersonalizationBuilder`] builds
//! such vectors from boosts over a baseline.

use crate::error::{LmmError, Result};
use lmm_linalg::vec_ops;

/// Builds a personalization (teleport) distribution by boosting selected
/// indices over a uniform baseline.
///
/// The result assigns `baseline` total mass spread uniformly over all `n`
/// entries and `1 − baseline` distributed over the boosted indices in
/// proportion to their boost weights. With no boosts the vector is uniform.
///
/// # Example
/// ```
/// use lmm_core::personalize::PersonalizationBuilder;
///
/// # fn main() -> Result<(), lmm_core::LmmError> {
/// let v = PersonalizationBuilder::new(4)
///     .baseline(0.2)
///     .boost(1, 3.0)
///     .boost(2, 1.0)
///     .build()?;
/// assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(v[1] > v[2] && v[2] > v[0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PersonalizationBuilder {
    n: usize,
    baseline: f64,
    boosts: Vec<(usize, f64)>,
}

impl PersonalizationBuilder {
    /// Starts a builder for a vector over `n` items with the default
    /// baseline share `0.5`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            baseline: 0.5,
            boosts: Vec::new(),
        }
    }

    /// Sets the share of mass kept uniform (in `[0, 1]`). `1.0` ignores the
    /// boosts entirely; `0.0` concentrates all mass on the boosted indices.
    #[must_use]
    pub fn baseline(mut self, share: f64) -> Self {
        self.baseline = share;
        self
    }

    /// Adds (or accumulates) a non-negative boost weight for an index.
    #[must_use]
    pub fn boost(mut self, index: usize, weight: f64) -> Self {
        self.boosts.push((index, weight));
        self
    }

    /// Builds the distribution.
    ///
    /// # Errors
    /// Returns [`LmmError::InvalidModel`] when `n == 0`, the baseline is out
    /// of `[0, 1]`, a boost index is out of range, a boost weight is
    /// negative/non-finite, or all mass is assigned to boosts but no boost
    /// was added.
    pub fn build(self) -> Result<Vec<f64>> {
        if self.n == 0 {
            return Err(LmmError::InvalidModel {
                reason: "personalization over zero items".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.baseline) {
            return Err(LmmError::InvalidModel {
                reason: format!("baseline share {} must lie in [0, 1]", self.baseline),
            });
        }
        let mut weights = vec![0.0f64; self.n];
        let mut boost_total = 0.0;
        for &(i, w) in &self.boosts {
            if i >= self.n {
                return Err(LmmError::InvalidModel {
                    reason: format!("boost index {i} out of range for {} items", self.n),
                });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(LmmError::InvalidModel {
                    reason: format!("boost weight {w} must be finite and non-negative"),
                });
            }
            weights[i] += w;
            boost_total += w;
        }
        let boosted_share = if boost_total > 0.0 {
            1.0 - self.baseline
        } else {
            if self.baseline == 0.0 {
                return Err(LmmError::InvalidModel {
                    reason: "baseline 0 with no boosts leaves no probability mass".into(),
                });
            }
            0.0
        };
        let uniform_share = 1.0 - boosted_share;
        let mut v = vec![uniform_share / self.n as f64; self.n];
        if boost_total > 0.0 {
            for (vi, wi) in v.iter_mut().zip(&weights) {
                *vi += boosted_share * wi / boost_total;
            }
        }
        debug_assert!(vec_ops::is_distribution(&v, 1e-9));
        Ok(v)
    }
}

/// Uniform personalization over `n` items — the neutral vector that
/// recovers the unpersonalized ranking.
///
/// # Errors
/// Returns [`LmmError::InvalidModel`] when `n == 0`.
pub fn uniform(n: usize) -> Result<Vec<f64>> {
    if n == 0 {
        return Err(LmmError::InvalidModel {
            reason: "personalization over zero items".into(),
        });
    }
    Ok(vec_ops::uniform(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_boosts_is_uniform() {
        let v = PersonalizationBuilder::new(5).build().unwrap();
        assert_eq!(v, vec![0.2; 5]);
    }

    #[test]
    fn boosts_redistribute_mass() {
        let v = PersonalizationBuilder::new(4)
            .baseline(0.4)
            .boost(0, 1.0)
            .build()
            .unwrap();
        // 0.4 uniform => 0.1 each; index 0 additionally gets 0.6.
        assert!((v[0] - 0.7).abs() < 1e-12);
        assert!((v[1] - 0.1).abs() < 1e-12);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn boosts_accumulate() {
        let v = PersonalizationBuilder::new(2)
            .baseline(0.0)
            .boost(0, 1.0)
            .boost(0, 1.0)
            .boost(1, 2.0)
            .build()
            .unwrap();
        assert!((v[0] - 0.5).abs() < 1e-12);
        assert!((v[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        assert!(PersonalizationBuilder::new(0).build().is_err());
        assert!(PersonalizationBuilder::new(3)
            .baseline(1.5)
            .build()
            .is_err());
        assert!(PersonalizationBuilder::new(3)
            .boost(9, 1.0)
            .build()
            .is_err());
        assert!(PersonalizationBuilder::new(3)
            .boost(0, -1.0)
            .build()
            .is_err());
        assert!(PersonalizationBuilder::new(3)
            .baseline(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn helpers() {
        assert_eq!(uniform(2).unwrap(), vec![0.5, 0.5]);
        assert!(uniform(0).is_err());
    }
}
