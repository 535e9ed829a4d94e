//! Pull-mode stationary iteration operator: `y = Mᵀ x` as a parallel
//! row-wise gather over a pre-materialized transpose.
//!
//! [`CsrMatrix::apply_transpose_into`] walks the rows of `M` and
//! *scatters* `y[col] += v · x[row]`. That loop is unparallelizable as
//! written — every thread would contend on every element of `y` — and its
//! writes hop around `y` in column order, defeating the cache. A
//! stationary computation applies the same `Mᵀ` hundreds of times, so
//! [`StationaryOperator`] pays the transpose **once** and turns every
//! subsequent step into a *gather*: row `r` of `Mᵀ` computes
//! `y[r] = Σ_k v_k · x[col_k]`, meaning
//!
//! * each output row is owned by exactly one task — no races, no atomics;
//! * the matrix values and column indices stream sequentially;
//! * the in-row accumulation order equals the serial scatter's
//!   per-destination order, so the result is **bit-identical** to
//!   [`CsrMatrix::apply_transpose_into`] at any thread count.
//!
//! Rows are grouped into chunks of approximately equal `nnz` (not equal
//! row counts — web graphs are skewed), and chunks are claimed dynamically
//! by the pool's workers.

use std::sync::Arc;

use crate::csr::CsrMatrix;
use crate::error::{LinalgError, Result};
use crate::power::LinearOperator;
use lmm_par::ThreadPool;

/// How many chunks to cut per worker; >1 lets dynamic claiming smooth out
/// nnz-estimation error and OS scheduling noise.
const CHUNKS_PER_WORKER: usize = 4;

/// The iteration map `x ↦ Mᵀ x` of a (square) transition matrix `M`,
/// evaluated as a parallel gather over the pre-materialized `Mᵀ`.
///
/// # Example
/// ```
/// use std::sync::Arc;
/// use lmm_linalg::{CooMatrix, LinearOperator, StationaryOperator};
/// use lmm_par::ThreadPool;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 1.0);
/// coo.push(1, 0, 1.0);
/// let m = coo.to_csr();
/// let op = StationaryOperator::new(&m, ThreadPool::shared(2)).unwrap();
/// let mut y = vec![0.0; 2];
/// op.apply_to(&[0.25, 0.75], &mut y).unwrap();
/// assert_eq!(y, m.apply_transpose(&[0.25, 0.75]).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct StationaryOperator {
    /// `Mᵀ`, whose row `r` lists the in-edges of state `r`.
    mt: CsrMatrix,
    /// Half-open output-row ranges of roughly equal nnz covering `0..n`.
    row_chunks: Vec<(usize, usize)>,
    pool: Arc<ThreadPool>,
}

impl StationaryOperator {
    /// Builds the operator for a square matrix `M`, materializing `Mᵀ`
    /// (one `O(nnz)` pass) and precomputing the nnz-balanced row chunks.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for a non-square matrix.
    pub fn new(m: &CsrMatrix, pool: Arc<ThreadPool>) -> Result<Self> {
        Self::from_transpose(m.transpose(), pool)
    }

    /// Builds the operator from an already-transposed matrix (row `r` of
    /// `mt` holds the in-edges of state `r`).
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for a non-square matrix —
    /// stationary operators act on square chains.
    fn from_transpose(mt: CsrMatrix, pool: Arc<ThreadPool>) -> Result<Self> {
        if !mt.is_square() {
            return Err(LinalgError::NotSquare {
                rows: mt.nrows(),
                cols: mt.ncols(),
            });
        }
        let row_chunks = nnz_balanced_chunks(&mt, pool.threads() * CHUNKS_PER_WORKER);
        Ok(Self {
            mt,
            row_chunks,
            pool,
        })
    }

    /// The pre-materialized transpose `Mᵀ`.
    #[cfg(test)]
    fn transpose_matrix(&self) -> &CsrMatrix {
        &self.mt
    }

    /// The pool this operator gathers on.
    #[must_use]
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }
}

/// Splits `0..nrows` into at most `target` contiguous row ranges whose nnz
/// counts are as even as a greedy sweep can make them.
fn nnz_balanced_chunks(mt: &CsrMatrix, target: usize) -> Vec<(usize, usize)> {
    let n = mt.nrows();
    if n == 0 {
        return Vec::new();
    }
    let target = target.clamp(1, n);
    // Include the dense vector traffic (1 read of x per nnz, 1 write of y
    // per row) so empty-row stretches still cost something.
    let total_work = mt.nnz() + n;
    let per_chunk = total_work.div_ceil(target);
    let mut chunks = Vec::with_capacity(target);
    let mut start = 0usize;
    let mut acc = 0usize;
    for r in 0..n {
        acc += mt.row_nnz(r) + 1;
        if acc >= per_chunk {
            chunks.push((start, r + 1));
            start = r + 1;
            acc = 0;
        }
    }
    if start < n {
        chunks.push((start, n));
    }
    chunks
}

/// The gather kernel for one chunk of output rows: `y[r] = Σ v·x[col]`.
fn gather_rows(mt: &CsrMatrix, rows: (usize, usize), x: &[f64], y_chunk: &mut [f64]) {
    for (out, r) in y_chunk.iter_mut().zip(rows.0..rows.1) {
        let (cols, vals) = mt.row(r);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c];
        }
        *out = acc;
    }
}

impl LinearOperator for StationaryOperator {
    fn dim(&self) -> usize {
        self.mt.nrows()
    }

    fn apply_to(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        let n = self.mt.nrows();
        if x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "StationaryOperator::apply x",
                expected: n,
                found: x.len(),
            });
        }
        if y.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "StationaryOperator::apply y",
                expected: n,
                found: y.len(),
            });
        }
        if self.pool.is_serial() || self.row_chunks.len() <= 1 {
            for &rows in &self.row_chunks {
                gather_rows(&self.mt, rows, x, &mut y[rows.0..rows.1]);
            }
            return Ok(());
        }
        // Hand each chunk its disjoint output slice; workers claim the
        // (range, slice) tasks dynamically.
        let mut pieces: Vec<((usize, usize), &mut [f64])> =
            Vec::with_capacity(self.row_chunks.len());
        let mut rest = y;
        let mut cursor = 0usize;
        for &rows in &self.row_chunks {
            let (piece, tail) = rest.split_at_mut(rows.1 - cursor);
            pieces.push((rows, piece));
            rest = tail;
            cursor = rows.1;
        }
        self.pool.par_tasks(pieces, |(rows, piece)| {
            gather_rows(&self.mt, rows, x, piece)
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn random_ish_matrix(n: usize, seed: u64) -> CsrMatrix {
        // Deterministic LCG-filled sparse matrix (no external RNG).
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            let fanout = (step() % 6) as usize;
            for _ in 0..fanout {
                let c = (step() as usize) % n;
                let v = (step() % 1000) as f64 / 100.0;
                coo.push(r, c, v);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn gather_matches_scatter_bitwise() {
        for (n, seed) in [(1usize, 1u64), (7, 2), (64, 3), (501, 4)] {
            let m = random_ish_matrix(n, seed);
            let x: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
            let mut scatter = vec![0.0; n];
            m.apply_transpose_into(&x, &mut scatter).unwrap();
            for threads in [1usize, 2, 4] {
                let op = StationaryOperator::new(&m, Arc::new(ThreadPool::new(threads))).unwrap();
                let mut gather = vec![0.0; n];
                op.apply_to(&x, &mut gather).unwrap();
                let same = scatter
                    .iter()
                    .zip(&gather)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "n={n} seed={seed} threads={threads}");
            }
        }
    }

    #[test]
    fn rejects_non_square() {
        let coo = CooMatrix::new(2, 3);
        assert!(matches!(
            StationaryOperator::new(&coo.to_csr(), Arc::new(ThreadPool::serial())),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn dimension_checks() {
        let m = random_ish_matrix(8, 9);
        let op = StationaryOperator::new(&m, Arc::new(ThreadPool::serial())).unwrap();
        assert_eq!(op.dim(), 8);
        let mut y = vec![0.0; 8];
        assert!(op.apply_to(&[0.0; 5], &mut y).is_err());
        let mut short = vec![0.0; 5];
        assert!(op.apply_to(&[0.0; 8], &mut short).is_err());
    }

    #[test]
    fn chunks_cover_rows_exactly() {
        for (n, seed, target) in [
            (1usize, 5u64, 4usize),
            (10, 6, 3),
            (100, 7, 16),
            (100, 8, 1),
        ] {
            let m = random_ish_matrix(n, seed).transpose();
            let chunks = nnz_balanced_chunks(&m, target);
            assert!(chunks.len() <= target.max(1));
            let mut cursor = 0;
            for &(s, e) in &chunks {
                assert_eq!(s, cursor);
                assert!(e > s);
                cursor = e;
            }
            assert_eq!(cursor, n);
        }
    }

    #[test]
    fn transpose_accessor_is_the_transpose() {
        let m = random_ish_matrix(12, 11);
        let op = StationaryOperator::new(&m, Arc::new(ThreadPool::serial())).unwrap();
        assert_eq!(op.transpose_matrix(), &m.transpose());
        assert_eq!(op.pool().threads(), 1);
    }
}
