//! Rank-comparison metrics for the evaluation harness.
//!
//! The paper's evaluation is qualitative (top-15 lists, spam domination);
//! these metrics quantify the same comparisons: Kendall τ and Spearman
//! footrule between two rankings, top-k overlap, and the share of
//! spam-labeled items in the top-k.

use crate::ranking::Ranking;

/// Kendall rank-correlation coefficient (τ-a, no tie handling) between the
/// orders induced by two rankings of the same item set.
///
/// Returns a value in `[-1, 1]`: 1 for identical orders, −1 for exactly
/// reversed orders. Computed in `O(n log n)` by inversion counting.
///
/// # Panics
/// Panics if the rankings cover different numbers of items.
///
/// # Example
/// ```
/// use lmm_rank::{metrics::kendall_tau, Ranking};
/// # fn main() -> Result<(), lmm_rank::RankError> {
/// let a = Ranking::from_scores(vec![0.5, 0.3, 0.2])?;
/// let b = Ranking::from_scores(vec![0.2, 0.3, 0.5])?;
/// assert!((kendall_tau(&a, &a) - 1.0).abs() < 1e-12);
/// assert!((kendall_tau(&a, &b) + 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn kendall_tau(a: &Ranking, b: &Ranking) -> f64 {
    assert_eq!(a.len(), b.len(), "rankings must cover the same items");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    // Walk items in a's order; the sequence of their positions in b has one
    // inversion per discordant pair.
    let b_pos = b.positions();
    let seq: Vec<usize> = a.order().into_iter().map(|item| b_pos[item]).collect();
    let inversions = count_inversions(seq);
    let pairs = (n * (n - 1) / 2) as f64;
    1.0 - 2.0 * inversions as f64 / pairs
}

/// Counts inversions of a permutation by merge sort, `O(n log n)`.
fn count_inversions(mut seq: Vec<usize>) -> u64 {
    let mut buf = vec![0usize; seq.len()];
    merge_count(&mut seq, &mut buf)
}

fn merge_count(seq: &mut [usize], buf: &mut [usize]) -> u64 {
    let n = seq.len();
    if n <= 1 {
        return 0;
    }
    let mid = n / 2;
    let (left, right) = seq.split_at_mut(mid);
    let mut inv = merge_count(left, &mut buf[..mid]) + merge_count(right, &mut buf[mid..]);
    // Merge while counting cross inversions.
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            buf[k] = left[i];
            i += 1;
        } else {
            buf[k] = right[j];
            inv += (left.len() - i) as u64;
            j += 1;
        }
        k += 1;
    }
    while i < left.len() {
        buf[k] = left[i];
        i += 1;
        k += 1;
    }
    while j < right.len() {
        buf[k] = right[j];
        j += 1;
        k += 1;
    }
    seq.copy_from_slice(&buf[..n]);
    inv
}

/// Spearman footrule distance: `Σ_i |pos_a(i) − pos_b(i)|`.
///
/// # Panics
/// Panics if the rankings cover different numbers of items.
#[must_use]
pub fn spearman_footrule(a: &Ranking, b: &Ranking) -> u64 {
    assert_eq!(a.len(), b.len(), "rankings must cover the same items");
    let pa = a.positions();
    let pb = b.positions();
    pa.iter()
        .zip(&pb)
        .map(|(&x, &y)| x.abs_diff(y) as u64)
        .sum()
}

/// Spearman footrule normalized into `[0, 1]` (0 = identical orders,
/// 1 = maximally displaced). The maximum of the footrule is `⌊n²/2⌋`.
///
/// # Panics
/// Panics if the rankings cover different numbers of items.
#[must_use]
pub fn spearman_footrule_normalized(a: &Ranking, b: &Ranking) -> f64 {
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let max = (n * n / 2) as f64;
    spearman_footrule(a, b) as f64 / max
}

/// Fraction of the top-`k` of `a` that also appears in the top-`k` of `b`
/// (symmetric). `k` is clamped to the ranking length.
///
/// # Panics
/// Panics if the rankings cover different numbers of items or `k == 0`.
#[must_use]
pub fn top_k_overlap(a: &Ranking, b: &Ranking, k: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "rankings must cover the same items");
    assert!(k > 0, "k must be positive");
    let k = k.min(a.len());
    let set_a: std::collections::HashSet<usize> = a.top_k(k).into_iter().collect();
    let hits = b.top_k(k).into_iter().filter(|i| set_a.contains(i)).count();
    hits as f64 / k as f64
}

/// Jaccard similarity of the top-`k` sets of two rankings.
///
/// # Panics
/// Panics if the rankings cover different numbers of items or `k == 0`.
#[must_use]
pub fn top_k_jaccard(a: &Ranking, b: &Ranking, k: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "rankings must cover the same items");
    assert!(k > 0, "k must be positive");
    let k = k.min(a.len());
    let set_a: std::collections::HashSet<usize> = a.top_k(k).into_iter().collect();
    let set_b: std::collections::HashSet<usize> = b.top_k(k).into_iter().collect();
    let inter = set_a.intersection(&set_b).count();
    let union = set_a.union(&set_b).count();
    inter as f64 / union as f64
}

/// Share of the top-`k` items carrying a boolean label (e.g. "is spam") —
/// the quantitative form of the paper's Figure 3 vs Figure 4 comparison.
///
/// # Panics
/// Panics if `labels.len() != ranking.len()` or `k == 0`.
#[must_use]
pub fn labeled_share_at_k(ranking: &Ranking, labels: &[bool], k: usize) -> f64 {
    assert_eq!(labels.len(), ranking.len(), "labels must cover all items");
    assert!(k > 0, "k must be positive");
    let k = k.min(ranking.len());
    let hits = ranking.top_k(k).into_iter().filter(|&i| labels[i]).count();
    hits as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(scores: Vec<f64>) -> Ranking {
        Ranking::from_weights(scores).unwrap()
    }

    #[test]
    fn tau_identity_and_reverse() {
        let a = r(vec![4.0, 3.0, 2.0, 1.0]);
        let b = r(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((kendall_tau(&a, &a) - 1.0).abs() < 1e-12);
        assert!((kendall_tau(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn tau_single_swap() {
        // Orders: a = [0,1,2,3]; b = [1,0,2,3] -> one discordant pair of 6.
        let a = r(vec![4.0, 3.0, 2.0, 1.0]);
        let b = r(vec![3.0, 4.0, 2.0, 1.0]);
        let expected = 1.0 - 2.0 * 1.0 / 6.0;
        assert!((kendall_tau(&a, &b) - expected).abs() < 1e-12);
    }

    #[test]
    fn tau_symmetric() {
        let a = r(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        let b = r(vec![1.0, 2.0, 5.0, 4.0, 3.0]);
        assert!((kendall_tau(&a, &b) - kendall_tau(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn inversion_count_known() {
        assert_eq!(count_inversions(vec![0, 1, 2]), 0);
        assert_eq!(count_inversions(vec![2, 1, 0]), 3);
        assert_eq!(count_inversions(vec![1, 0, 2]), 1);
        assert_eq!(count_inversions(vec![3, 1, 2, 0]), 5);
    }

    #[test]
    fn footrule_identity_zero() {
        let a = r(vec![3.0, 2.0, 1.0]);
        assert_eq!(spearman_footrule(&a, &a), 0);
        assert_eq!(spearman_footrule_normalized(&a, &a), 0.0);
    }

    #[test]
    fn footrule_reverse_is_max() {
        let a = r(vec![4.0, 3.0, 2.0, 1.0]);
        let b = r(vec![1.0, 2.0, 3.0, 4.0]);
        // n = 4: max footrule = floor(16/2) = 8.
        assert_eq!(spearman_footrule(&a, &b), 8);
        assert!((spearman_footrule_normalized(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_and_jaccard() {
        let a = r(vec![4.0, 3.0, 2.0, 1.0]); // top-2 {0,1}
        let b = r(vec![4.0, 1.0, 3.0, 2.0]); // top-2 {0,2}
        assert!((top_k_overlap(&a, &b, 2) - 0.5).abs() < 1e-12);
        assert!((top_k_jaccard(&a, &b, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert!((top_k_overlap(&a, &b, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn labeled_share() {
        let a = r(vec![4.0, 3.0, 2.0, 1.0]);
        let spam = [true, false, true, false];
        assert!((labeled_share_at_k(&a, &spam, 2) - 0.5).abs() < 1e-12);
        assert!((labeled_share_at_k(&a, &spam, 4) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same items")]
    fn tau_length_mismatch_panics() {
        let a = r(vec![1.0, 2.0]);
        let b = r(vec![1.0, 2.0, 3.0]);
        let _ = kendall_tau(&a, &b);
    }

    #[test]
    fn tau_trivial_sizes() {
        let a = r(vec![1.0]);
        assert_eq!(kendall_tau(&a, &a), 1.0);
    }
}
