//! Free functions over `&[f64]` slices used throughout the ranking stack.
//!
//! These are deliberately plain-slice operations (no vector newtype) so they
//! compose with buffers owned by any caller — power-method workspaces,
//! ranking vectors, message payloads in the P2P simulator, and so on.

use crate::error::{LinalgError, Result};
use lmm_par::ThreadPool;

/// Tolerance used by [`is_distribution`] and the stochastic validators.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Chunk length of the parallel reductions and elementwise kernels below.
///
/// The grid `[0..PAR_CHUNK)`, `[PAR_CHUNK..2·PAR_CHUNK)`, … depends only on
/// the vector length, never on the pool size, so every `*_par` function
/// returns **bit-identical** results for any thread count (including the
/// serial pool). Vectors at or below one chunk take the plain serial path.
pub const PAR_CHUNK: usize = 16 * 1024;

/// Returns the L1 norm `sum(|x_i|)` of `x`.
///
/// # Example
/// ```
/// assert_eq!(lmm_linalg::vec_ops::l1_norm(&[0.25, -0.25, 0.5]), 1.0);
/// ```
#[must_use]
pub fn l1_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Returns the L1 distance `sum(|x_i - y_i|)` between two equal-length slices.
///
/// # Panics
/// Panics if `x.len() != y.len()`; the callers in this workspace always pair
/// buffers of identical, statically-known length.
#[must_use]
pub fn l1_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "l1_diff requires equal lengths");
    x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum()
}

/// Returns the L∞ distance `max(|x_i - y_i|)` between two equal-length slices.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[must_use]
pub fn linf_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "linf_diff requires equal lengths");
    x.iter()
        .zip(y)
        .fold(0.0, |acc, (a, b)| acc.max((a - b).abs()))
}

/// Returns the dot product of two equal-length slices.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[must_use]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot requires equal lengths");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// In-place `y += alpha * x`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// In-place multiplication of every element by `alpha`.
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x {
        *v *= alpha;
    }
}

/// Normalizes `x` in place so that its entries sum to 1 (L1, assuming
/// non-negative entries) and returns the original sum.
///
/// # Errors
/// Returns [`LinalgError::Empty`] for an empty slice and
/// [`LinalgError::NotDistribution`] if the sum is zero, negative, or not
/// finite (the vector cannot be normalized into a distribution).
pub fn normalize_l1(x: &mut [f64]) -> Result<f64> {
    if x.is_empty() {
        return Err(LinalgError::Empty);
    }
    let sum: f64 = x.iter().sum();
    if !(sum.is_finite() && sum > 0.0) {
        return Err(LinalgError::NotDistribution { sum });
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
    Ok(sum)
}

/// Returns the uniform distribution over `n` states.
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
pub fn uniform(n: usize) -> Vec<f64> {
    assert!(n > 0, "uniform distribution requires n > 0");
    vec![1.0 / n as f64; n]
}

/// Checks whether `x` is a probability distribution: all entries finite and
/// non-negative, and the total within `tol` of 1.
///
/// One pass: the entry check and four independent partial sums (so the
/// sum is not one serial dependency chain) share each load; a bad entry
/// is reported at its first index.
///
/// # Errors
/// Returns [`LinalgError::InvalidProbability`] for a bad entry or
/// [`LinalgError::NotDistribution`] for a bad total.
pub fn check_distribution(x: &[f64], tol: f64) -> Result<()> {
    if x.is_empty() {
        return Err(LinalgError::Empty);
    }
    let bad = |v: f64| !v.is_finite() || v < 0.0;
    let first_bad = |start: usize, chunk: &[f64]| {
        let i = chunk.iter().position(|&v| bad(v)).unwrap_or(0);
        LinalgError::InvalidProbability {
            index: start + i,
            value: chunk[i],
        }
    };
    let mut acc = [0.0f64; 4];
    let mut quads = x.chunks_exact(4);
    for (q, quad) in quads.by_ref().enumerate() {
        if bad(quad[0]) | bad(quad[1]) | bad(quad[2]) | bad(quad[3]) {
            return Err(first_bad(4 * q, quad));
        }
        for (a, &v) in acc.iter_mut().zip(quad) {
            *a += v;
        }
    }
    let tail = quads.remainder();
    if tail.iter().any(|&v| bad(v)) {
        return Err(first_bad(x.len() - tail.len(), tail));
    }
    let sum = (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail.iter().sum::<f64>();
    if (sum - 1.0).abs() > tol {
        return Err(LinalgError::NotDistribution { sum });
    }
    Ok(())
}

/// Returns `true` when `x` is a probability distribution within `tol`.
#[must_use]
pub fn is_distribution(x: &[f64], tol: f64) -> bool {
    check_distribution(x, tol).is_ok()
}

/// Pool-parallel [`l1_norm`]: chunked partial sums folded in chunk order.
///
/// The chunk grid is fixed by the length alone, so the result does not
/// depend on the pool size (it may differ from the serial left-to-right
/// sum in the last bits — chunked summation is, if anything, more
/// accurate).
#[must_use]
pub fn l1_norm_par(pool: &ThreadPool, x: &[f64]) -> f64 {
    pool.par_reduce(
        x.len(),
        PAR_CHUNK,
        |r| x[r].iter().map(|v| v.abs()).sum::<f64>(),
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// Pool-parallel sum of all entries (chunk-ordered fold; see
/// [`l1_norm_par`] for the determinism contract).
#[must_use]
pub fn sum_par(pool: &ThreadPool, x: &[f64]) -> f64 {
    pool.par_reduce(
        x.len(),
        PAR_CHUNK,
        |r| x[r].iter().sum::<f64>(),
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// Pool-parallel [`l1_diff`].
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[must_use]
pub fn l1_diff_par(pool: &ThreadPool, x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "l1_diff requires equal lengths");
    pool.par_reduce(
        x.len(),
        PAR_CHUNK,
        |r| {
            x[r.clone()]
                .iter()
                .zip(&y[r])
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        },
        |a, b| a + b,
    )
    .unwrap_or(0.0)
}

/// Pool-parallel [`axpy`] (`y += alpha * x`): elementwise, so bit-identical
/// to the serial loop at any pool size.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
pub fn axpy_par(pool: &ThreadPool, alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    pool.par_chunks_mut(y, PAR_CHUNK, |offset, chunk| {
        let len = chunk.len();
        for (yi, xi) in chunk.iter_mut().zip(&x[offset..offset + len]) {
            *yi += alpha * xi;
        }
    });
}

/// Pool-parallel [`scale`] (elementwise; bit-identical at any pool size).
fn scale_par(pool: &ThreadPool, x: &mut [f64], alpha: f64) {
    pool.par_chunks_mut(x, PAR_CHUNK, |_, chunk| {
        for v in chunk {
            *v *= alpha;
        }
    });
}

/// Pool-parallel [`normalize_l1`]: the total is a chunk-ordered parallel
/// sum, the rescale an elementwise parallel sweep.
///
/// # Errors
/// See [`normalize_l1`].
pub fn normalize_l1_par(pool: &ThreadPool, x: &mut [f64]) -> Result<f64> {
    if x.is_empty() {
        return Err(LinalgError::Empty);
    }
    let sum = sum_par(pool, x);
    if !(sum.is_finite() && sum > 0.0) {
        return Err(LinalgError::NotDistribution { sum });
    }
    let inv = 1.0 / sum;
    scale_par(pool, x, inv);
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_on_known_vectors() {
        let x = [3.0, -4.0];
        assert_eq!(l1_norm(&x), 7.0);
    }

    #[test]
    fn l1_diff_and_linf_diff() {
        let x = [1.0, 2.0, 3.0];
        let y = [1.5, 2.0, 1.0];
        assert!((l1_diff(&x, &y) - 2.5).abs() < 1e-15);
        assert!((linf_diff(&x, &y) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn dot_and_axpy() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        assert_eq!(dot(&x, &y), 50.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn normalize_l1_makes_distribution() {
        let mut x = vec![1.0, 3.0];
        let sum = normalize_l1(&mut x).unwrap();
        assert_eq!(sum, 4.0);
        assert_eq!(x, vec![0.25, 0.75]);
        assert!(is_distribution(&x, 1e-12));
    }

    #[test]
    fn normalize_l1_rejects_zero_vector() {
        let mut x = vec![0.0, 0.0];
        assert!(matches!(
            normalize_l1(&mut x),
            Err(LinalgError::NotDistribution { .. })
        ));
    }

    #[test]
    fn normalize_l1_rejects_empty() {
        let mut x: Vec<f64> = vec![];
        assert_eq!(normalize_l1(&mut x), Err(LinalgError::Empty));
    }

    #[test]
    fn uniform_is_distribution() {
        let u = uniform(7);
        assert!(is_distribution(&u, 1e-12));
        assert!(u.iter().all(|&v| (v - 1.0 / 7.0).abs() < 1e-15));
    }

    #[test]
    fn check_distribution_catches_negative() {
        assert!(matches!(
            check_distribution(&[0.5, -0.1, 0.6], 1e-9),
            Err(LinalgError::InvalidProbability { index: 1, .. })
        ));
    }

    #[test]
    fn check_distribution_catches_nan() {
        assert!(matches!(
            check_distribution(&[f64::NAN, 1.0], 1e-9),
            Err(LinalgError::InvalidProbability { index: 0, .. })
        ));
    }

    #[test]
    fn check_distribution_reports_the_first_bad_index_in_quads_and_tail() {
        for n in [1usize, 3, 4, 5, 8, 11] {
            for first in 0..n {
                let mut x = vec![1.0 / n as f64; n];
                x[first] = f64::INFINITY;
                x[n - 1] = -1.0; // a later bad entry never wins
                if first == n - 1 {
                    x[first] = f64::INFINITY;
                }
                match check_distribution(&x, 1e-9) {
                    Err(LinalgError::InvalidProbability { index, value }) => {
                        assert_eq!((index, value), (first, f64::INFINITY), "n = {n}");
                    }
                    other => panic!("n = {n}, first = {first}: {other:?}"),
                }
            }
            assert!(check_distribution(&vec![1.0 / n as f64; n], 1e-9).is_ok());
            let short = vec![0.5 / n as f64; n];
            assert!(matches!(
                check_distribution(&short, 1e-9),
                Err(LinalgError::NotDistribution { .. })
            ));
        }
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(&mut x, -3.0);
        assert_eq!(x, vec![-3.0, 6.0]);
    }

    fn wiggly(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 * 0.7).sin() * 3.0) + if i % 3 == 0 { -1.5 } else { 0.25 })
            .collect()
    }

    #[test]
    fn par_reductions_are_pool_size_independent() {
        // Large enough for many chunks; values chosen to make the fold
        // order observable if it ever varied.
        let x = wiggly(5 * PAR_CHUNK + 17);
        let y = wiggly(5 * PAR_CHUNK + 17)
            .iter()
            .map(|v| v * 1.01)
            .collect::<Vec<_>>();
        let serial = ThreadPool::serial();
        for threads in [2usize, 4] {
            let pool = ThreadPool::new(threads);
            for (a, b) in [
                (l1_norm_par(&serial, &x), l1_norm_par(&pool, &x)),
                (sum_par(&serial, &x), sum_par(&pool, &x)),
                (l1_diff_par(&serial, &x, &y), l1_diff_par(&pool, &x, &y)),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn par_reductions_match_serial_closely() {
        let x = wiggly(3 * PAR_CHUNK);
        let y = wiggly(3 * PAR_CHUNK)
            .iter()
            .map(|v| v + 0.5)
            .collect::<Vec<_>>();
        let pool = ThreadPool::new(3);
        assert!((l1_norm_par(&pool, &x) - l1_norm(&x)).abs() < 1e-9 * l1_norm(&x));
        assert!((l1_diff_par(&pool, &x, &y) - l1_diff(&x, &y)).abs() < 1e-9 * l1_diff(&x, &y));
    }

    #[test]
    fn par_elementwise_match_serial_exactly() {
        let x = wiggly(2 * PAR_CHUNK + 5);
        let pool = ThreadPool::new(4);
        let mut y_serial = wiggly(2 * PAR_CHUNK + 5);
        let mut y_par = y_serial.clone();
        axpy(0.37, &x, &mut y_serial);
        axpy_par(&pool, 0.37, &x, &mut y_par);
        assert_eq!(y_serial, y_par);
        scale(&mut y_serial, -1.25);
        scale_par(&pool, &mut y_par, -1.25);
        assert_eq!(y_serial, y_par);
    }

    #[test]
    fn normalize_l1_par_basics() {
        let pool = ThreadPool::new(2);
        let mut x: Vec<f64> = (0..2 * PAR_CHUNK).map(|i| (i % 7) as f64 + 1.0).collect();
        let sum = normalize_l1_par(&pool, &mut x).unwrap();
        assert!(sum > 0.0);
        assert!(is_distribution(&x, 1e-9));
        // Pool-size independence of the normalized vector.
        let mut x1: Vec<f64> = (0..2 * PAR_CHUNK).map(|i| (i % 7) as f64 + 1.0).collect();
        normalize_l1_par(&ThreadPool::serial(), &mut x1).unwrap();
        assert_eq!(x, x1);

        let mut zero = vec![0.0; 8];
        assert!(matches!(
            normalize_l1_par(&pool, &mut zero),
            Err(LinalgError::NotDistribution { .. })
        ));
        let mut empty: Vec<f64> = vec![];
        assert_eq!(normalize_l1_par(&pool, &mut empty), Err(LinalgError::Empty));
    }
}
