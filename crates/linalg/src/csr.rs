//! Compressed sparse row matrices — the compute-oriented sparse format.
//!
//! [`CsrMatrix`] is immutable once built (construct via
//! [`CooMatrix`](crate::coo::CooMatrix) or [`CsrMatrix::from_raw_parts`]) and
//! provides the matrix-vector kernels that dominate ranking computations:
//! `y = M x` and the transpose product `y = Mᵀ x` used by
//! stationary-distribution iterations.

use crate::dense::DenseMatrix;
use crate::error::{LinalgError, Result};

/// An immutable sparse matrix in compressed sparse row format.
///
/// Invariants (enforced by [`CsrMatrix::from_raw_parts`]):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, non-decreasing,
///   `row_ptr[nrows] == col_idx.len() == values.len()`;
/// * within each row, column indices are strictly increasing and `< ncols`.
///
/// # Example
/// ```
/// use lmm_linalg::{CooMatrix, CsrMatrix};
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 0.5);
/// coo.push(0, 1, 0.5);
/// coo.push(1, 0, 1.0);
/// let m: CsrMatrix = coo.to_csr();
/// assert_eq!(m.apply(&[1.0, 2.0]).unwrap(), vec![1.5, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating all invariants.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when the arrays are
    /// inconsistent and [`LinalgError::IndexOutOfBounds`] when a column index
    /// exceeds `ncols` or indices within a row are not strictly increasing.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(LinalgError::DimensionMismatch {
                operation: "CsrMatrix::from_raw_parts row_ptr",
                expected: nrows + 1,
                found: row_ptr.len(),
            });
        }
        if col_idx.len() != values.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "CsrMatrix::from_raw_parts col_idx/values",
                expected: col_idx.len(),
                found: values.len(),
            });
        }
        if row_ptr[0] != 0 || row_ptr[nrows] != col_idx.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "CsrMatrix::from_raw_parts row_ptr bounds",
                expected: col_idx.len(),
                found: row_ptr[nrows],
            });
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(LinalgError::DimensionMismatch {
                    operation: "CsrMatrix::from_raw_parts row_ptr monotone",
                    expected: row_ptr[r],
                    found: row_ptr[r + 1],
                });
            }
            let mut prev: Option<usize> = None;
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                if c >= ncols || prev.is_some_and(|p| p >= c) {
                    return Err(LinalgError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        rows: nrows,
                        cols: ncols,
                    });
                }
                prev = Some(c);
            }
        }
        Ok(Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// The `n x n` identity matrix.
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] when `n == 0`.
    pub fn identity(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        Self::from_raw_parts(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Returns `true` when the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Number of explicitly stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the `(column indices, values)` slices of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= nrows`.
    #[must_use]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(i < self.nrows, "row index out of bounds");
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Number of stored entries in row `i`.
    ///
    /// # Panics
    /// Panics if `i >= nrows`.
    #[must_use]
    pub fn row_nnz(&self, i: usize) -> usize {
        assert!(i < self.nrows, "row index out of bounds");
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Entry at `(row, col)`, `0.0` if not stored. Binary search in the row.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.nrows && col < self.ncols, "index out of bounds");
        let (cols, vals) = self.row(row);
        match cols.binary_search(&col) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored entries as `(row, col, value)` in row-major
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Matrix-vector product `y = M x`, writing into a caller-provided buffer.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != ncols` or
    /// `y.len() != nrows`.
    pub fn apply_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.ncols {
            return Err(LinalgError::DimensionMismatch {
                operation: "CsrMatrix::apply x",
                expected: self.ncols,
                found: x.len(),
            });
        }
        if y.len() != self.nrows {
            return Err(LinalgError::DimensionMismatch {
                operation: "CsrMatrix::apply y",
                expected: self.nrows,
                found: y.len(),
            });
        }
        for (r, out) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            *out = acc;
        }
        Ok(())
    }

    /// Matrix-vector product `y = M x`.
    ///
    /// # Errors
    /// See [`CsrMatrix::apply_into`].
    pub fn apply(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.nrows];
        self.apply_into(x, &mut y)?;
        Ok(y)
    }

    /// Transposed product `y = Mᵀ x`, writing into a caller-provided buffer.
    ///
    /// This is the kernel of stationary-distribution iterations: for a
    /// row-stochastic `M`, the rank vector satisfies `π = Mᵀ π`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != nrows` or
    /// `y.len() != ncols`.
    pub fn apply_transpose_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.nrows {
            return Err(LinalgError::DimensionMismatch {
                operation: "CsrMatrix::apply_transpose x",
                expected: self.nrows,
                found: x.len(),
            });
        }
        if y.len() != self.ncols {
            return Err(LinalgError::DimensionMismatch {
                operation: "CsrMatrix::apply_transpose y",
                expected: self.ncols,
                found: y.len(),
            });
        }
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                y[c] += v * xr;
            }
        }
        Ok(())
    }

    /// Transposed product `y = Mᵀ x`.
    ///
    /// # Errors
    /// See [`CsrMatrix::apply_transpose_into`].
    pub fn apply_transpose(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.ncols];
        self.apply_transpose_into(x, &mut y)?;
        Ok(y)
    }

    /// Returns the explicit transpose as a new CSR matrix.
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0usize; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut cursor = counts.clone();
        for (r, c, v) in self.iter() {
            let pos = cursor[c];
            cols[pos] = r;
            vals[pos] = v;
            cursor[c] += 1;
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: counts,
            col_idx: cols,
            values: vals,
        }
    }

    /// Sum of each row.
    #[must_use]
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.nrows)
            .map(|r| self.row(r).1.iter().sum())
            .collect()
    }

    /// Returns a copy with every stored value transformed by `f`.
    ///
    /// Entries mapped to exactly `0.0` remain stored.
    #[must_use]
    pub fn map_values<F: FnMut(f64) -> f64>(&self, mut f: F) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = f(*v);
        }
        out
    }

    /// Divides every row by its sum, leaving all-zero rows untouched, and
    /// returns the indices of those all-zero (dangling) rows.
    #[must_use = "the returned dangling rows usually need explicit handling"]
    pub fn normalize_rows(mut self) -> (CsrMatrix, Vec<usize>) {
        let mut dangling = Vec::new();
        for r in 0..self.nrows {
            let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let sum: f64 = self.values[s..e].iter().sum();
            if sum > 0.0 {
                for v in &mut self.values[s..e] {
                    *v /= sum;
                }
            } else {
                dangling.push(r);
            }
        }
        (self, dangling)
    }

    /// Converts to a dense matrix (test/diagnostic use; O(rows*cols) memory).
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] when either dimension is zero.
    pub fn to_dense(&self) -> Result<DenseMatrix> {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols)?;
        for (r, c, v) in self.iter() {
            d.set(r, c, v);
        }
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        coo.to_csr()
    }

    #[test]
    fn structure_accessors() {
        let m = sample();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        assert!(m.is_square());
    }

    #[test]
    fn get_with_binary_search() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
    }

    #[test]
    fn apply_matches_dense() {
        let m = sample();
        let d = m.to_dense().unwrap();
        let x = [1.0, -1.0, 0.5];
        assert_eq!(m.apply(&x).unwrap(), d.apply(&x).unwrap());
    }

    #[test]
    fn apply_transpose_matches_dense() {
        let m = sample();
        let d = m.to_dense().unwrap();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(
            m.apply_transpose(&x).unwrap(),
            d.apply_transpose(&x).unwrap()
        );
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let dt = m.to_dense().unwrap().transpose();
        assert_eq!(m.transpose().to_dense().unwrap(), dt);
    }

    #[test]
    fn normalize_rows_reports_dangling() {
        let (n, dangling) = sample().normalize_rows();
        assert_eq!(dangling, vec![1]);
        let sums = n.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-15);
        assert_eq!(sums[1], 0.0);
        assert!((sums[2] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn map_values_and_prune() {
        let m = sample().map_values(|v| if v > 2.0 { 0.0 } else { v });
        assert_eq!(m.nnz(), 4); // zeros kept
    }

    #[test]
    fn identity_applies_as_noop() {
        let id = CsrMatrix::identity(4).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(id.apply(&x).unwrap(), x.to_vec());
        assert_eq!(id.apply_transpose(&x).unwrap(), x.to_vec());
    }

    #[test]
    fn from_raw_parts_validates() {
        // row_ptr wrong length
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // column out of bounds
        assert!(CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![2], vec![1.0]).is_err());
        // unsorted columns within a row
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // duplicate columns within a row
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
        // valid
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 1.0]).is_ok());
    }

    #[test]
    fn iter_row_major_order() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(
            entries,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }

    #[test]
    fn dimension_errors_on_apply() {
        let m = sample();
        assert!(m.apply(&[1.0]).is_err());
        let mut small = vec![0.0; 2];
        assert!(m.apply_into(&[1.0, 2.0, 3.0], &mut small).is_err());
        assert!(m.apply_transpose(&[1.0]).is_err());
    }
}
