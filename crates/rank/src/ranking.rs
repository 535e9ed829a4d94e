//! The [`Ranking`] type: a probability-distribution score vector plus the
//! order it induces.

use std::sync::Arc;

use crate::error::{RankError, Result};
use lmm_linalg::vec_ops;

/// A ranking over `n` items: non-negative scores summing to one, with
/// helpers for the induced descending order.
///
/// Ties are broken by item index (lower index first) so orders are
/// deterministic — important for reproducible experiment tables.
///
/// The scores sit behind an `Arc`, so a clone is O(1) and shares them:
/// a layered result that reuses a site's local ranking, and a snapshot
/// that serves the global one, hold the very buffer that was computed.
///
/// # Example
/// ```
/// use lmm_rank::Ranking;
/// # fn main() -> Result<(), lmm_rank::RankError> {
/// let r = Ranking::from_scores(vec![0.2, 0.5, 0.3])?;
/// assert_eq!(r.order(), vec![1, 2, 0]);
/// assert_eq!(r.position_of(1), 0); // item 1 is ranked first
/// assert_eq!(r.top_k(2), vec![1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    scores: Arc<Vec<f64>>,
}

impl Ranking {
    /// Wraps a score vector that is already a probability distribution.
    ///
    /// # Errors
    /// Returns [`RankError::Linalg`] when the vector has negative / non-finite
    /// entries or does not sum to 1 within `1e-6`.
    pub fn from_scores(scores: Vec<f64>) -> Result<Self> {
        vec_ops::check_distribution(&scores, 1e-6)?;
        Ok(Self {
            scores: Arc::new(scores),
        })
    }

    /// Normalizes an arbitrary non-negative score vector into a ranking.
    ///
    /// # Errors
    /// Returns [`RankError::Linalg`] when the vector is empty, contains
    /// negative or non-finite entries, or sums to zero.
    pub fn from_weights(mut weights: Vec<f64>) -> Result<Self> {
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(RankError::Linalg(
                    lmm_linalg::LinalgError::InvalidProbability { index: i, value: w },
                ));
            }
        }
        vec_ops::normalize_l1(&mut weights)?;
        Ok(Self {
            scores: Arc::new(weights),
        })
    }

    /// The empty ranking over zero items — the placeholder a layered
    /// pipeline stores for a tombstoned (removed) site slot, whose member
    /// set is empty and whose rank weight is zero.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            scores: Arc::default(),
        }
    }

    /// The uniform ranking over `n` items.
    ///
    /// # Errors
    /// Returns [`RankError::Empty`] when `n == 0`.
    pub fn uniform(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(RankError::Empty);
        }
        Ok(Self {
            scores: Arc::new(vec_ops::uniform(n)),
        })
    }

    /// Number of ranked items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Returns `true` when the ranking covers no items (only
    /// [`Ranking::empty`] constructs such a value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The score vector (a probability distribution).
    #[must_use]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Score of item `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn score(&self, i: usize) -> f64 {
        self.scores[i]
    }

    /// The shared score buffer. Clones of this ranking hold the same
    /// `Arc`, so `Arc::ptr_eq` tells a reused ranking from a recomputed
    /// one, and a consumer can keep the scores without copying them.
    #[must_use]
    pub fn shared_scores(&self) -> &Arc<Vec<f64>> {
        &self.scores
    }

    /// Consumes the ranking, returning the raw score vector — without a
    /// copy when this ranking is the buffer's only owner.
    #[must_use]
    pub fn into_scores(self) -> Vec<f64> {
        Arc::try_unwrap(self.scores).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// Serving order of two items: descending score, ties broken by index
    /// — a strict total order, so every sort under it is deterministic.
    fn cmp_items(&self, a: usize, b: usize) -> std::cmp::Ordering {
        self.scores[b]
            .partial_cmp(&self.scores[a])
            .expect("ranking scores are finite")
            .then_with(|| a.cmp(&b))
    }

    /// Item indices sorted by descending score, ties broken by index.
    #[must_use]
    pub fn order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.scores.len()).collect();
        idx.sort_by(|&a, &b| self.cmp_items(a, b));
        idx
    }

    /// For each item, its 0-based position in the descending order
    /// (`positions()[item] == rank of item`).
    #[must_use]
    pub fn positions(&self) -> Vec<usize> {
        let order = self.order();
        let mut pos = vec![0usize; order.len()];
        for (p, &item) in order.iter().enumerate() {
            pos[item] = p;
        }
        pos
    }

    /// 0-based rank position of a single item.
    ///
    /// # Panics
    /// Panics if `item` is out of bounds.
    #[must_use]
    pub fn position_of(&self, item: usize) -> usize {
        assert!(item < self.scores.len(), "item out of bounds");
        self.positions()[item]
    }

    /// The `k` top-ranked item indices (all items when `k >= len`) —
    /// exactly `order()[..k]`, found by selection in O(n + k log k)
    /// instead of sorting all `n`.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.scores.len()).collect();
        if k < idx.len() {
            if k > 0 {
                idx.select_nth_unstable_by(k - 1, |&a, &b| self.cmp_items(a, b));
            }
            idx.truncate(k);
        }
        idx.sort_unstable_by(|&a, &b| self.cmp_items(a, b));
        idx
    }
}

impl AsRef<[f64]> for Ranking {
    fn as_ref(&self) -> &[f64] {
        &self.scores
    }
}

impl std::fmt::Display for Ranking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ranking[")?;
        for (i, s) in self.scores.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s:.4}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_scores_validates() {
        assert!(Ranking::from_scores(vec![0.5, 0.5]).is_ok());
        assert!(Ranking::from_scores(vec![0.5, 0.6]).is_err());
        assert!(Ranking::from_scores(vec![-0.5, 1.5]).is_err());
        assert!(Ranking::from_scores(vec![]).is_err());
    }

    #[test]
    fn from_weights_normalizes() {
        let r = Ranking::from_weights(vec![1.0, 3.0]).unwrap();
        assert_eq!(r.scores(), &[0.25, 0.75]);
    }

    #[test]
    fn from_weights_rejects_negative_and_zero_sum() {
        assert!(Ranking::from_weights(vec![1.0, -1.0]).is_err());
        assert!(Ranking::from_weights(vec![0.0, 0.0]).is_err());
    }

    #[test]
    fn order_descending_with_index_ties() {
        let r = Ranking::from_scores(vec![0.25, 0.25, 0.5]).unwrap();
        assert_eq!(r.order(), vec![2, 0, 1]);
    }

    #[test]
    fn positions_inverse_of_order() {
        let r = Ranking::from_scores(vec![0.1, 0.4, 0.2, 0.3]).unwrap();
        let order = r.order();
        let pos = r.positions();
        for (p, &item) in order.iter().enumerate() {
            assert_eq!(pos[item], p);
        }
        assert_eq!(r.position_of(1), 0);
    }

    #[test]
    fn top_k_truncates() {
        let r = Ranking::from_scores(vec![0.1, 0.4, 0.2, 0.3]).unwrap();
        assert_eq!(r.top_k(2), vec![1, 3]);
        assert_eq!(r.top_k(10).len(), 4);
    }

    #[test]
    fn top_k_selection_equals_the_sorted_prefix_under_heavy_ties() {
        for n in [1usize, 2, 7, 64] {
            // Only three distinct scores, scattered: most comparisons tie
            // on score and fall through to the index.
            let weights = (0..n).map(|i| ((i * 7 + 3) % 3 + 1) as f64).collect();
            let r = Ranking::from_weights(weights).unwrap();
            let order = r.order();
            for k in [0, 1, n / 2, n - 1, n, n + 5] {
                assert_eq!(r.top_k(k), order[..k.min(n)], "n = {n}, k = {k}");
            }
        }
        let uniform = Ranking::uniform(9).unwrap();
        assert_eq!(uniform.top_k(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn clones_share_the_scores_and_into_scores_copies_only_when_shared() {
        let r = Ranking::from_scores(vec![0.25, 0.75]).unwrap();
        let c = r.clone();
        assert!(Arc::ptr_eq(r.shared_scores(), c.shared_scores()));
        assert_eq!(c.into_scores(), vec![0.25, 0.75]); // shared: copied
        let ptr = r.scores().as_ptr();
        let owned = r.into_scores(); // sole owner: unwrapped in place
        assert_eq!(owned.as_ptr(), ptr);
    }

    #[test]
    fn display_shows_scores() {
        let r = Ranking::from_scores(vec![0.5, 0.5]).unwrap();
        assert!(r.to_string().contains("0.5000"));
    }
}
