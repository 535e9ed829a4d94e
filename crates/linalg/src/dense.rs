//! Small row-major dense matrices.
//!
//! Dense matrices serve two roles in this workspace: the paper's worked
//! example (Section 2.3) is specified as small dense matrices, and the test
//! suites use dense reference implementations to validate the sparse kernels.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::{LinalgError, Result};
use crate::vec_ops;

/// A row-major dense matrix of `f64`.
///
/// # Example
/// ```
/// use lmm_linalg::DenseMatrix;
/// # fn main() -> Result<(), lmm_linalg::LinalgError> {
/// let m = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]])?;
/// assert_eq!(m.get(0, 1), 1.0);
/// assert_eq!(m.apply(&[2.0, 3.0])?, vec![3.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        Ok(Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// Creates the `n x n` identity matrix.
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] if `n == 0`.
    pub fn identity(n: usize) -> Result<Self> {
        let mut m = Self::zeros(n, n)?;
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        Ok(m)
    }

    /// Builds a matrix from a slice of equally-long rows.
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] when there are no rows or the first row
    /// is empty, and [`LinalgError::DimensionMismatch`] when rows have
    /// differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    operation: "DenseMatrix::from_rows",
                    expected: cols,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` when the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= self.rows()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns a mutable view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns the underlying row-major data slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix-vector product `y = M x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != cols`.
    pub fn apply(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "DenseMatrix::apply",
                expected: self.cols,
                found: x.len(),
            });
        }
        Ok((0..self.rows)
            .map(|i| vec_ops::dot(self.row(i), x))
            .collect())
    }

    /// Transposed matrix-vector product `y = Mᵀ x` (the direction used by
    /// stationary-distribution iterations on row-stochastic matrices).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != rows`.
    pub fn apply_transpose(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "DenseMatrix::apply_transpose",
                expected: self.rows,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                vec_ops::axpy(xi, self.row(i), &mut y);
            }
        }
        Ok(y)
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix {
            rows: self.cols,
            cols: self.rows,
            data: vec![0.0; self.data.len()],
        };
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Sum of each row.
    #[must_use]
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Checks that every row sums to 1 within `tol` and all entries are
    /// finite and non-negative.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotStochastic`] or
    /// [`LinalgError::InvalidProbability`] accordingly.
    pub fn check_row_stochastic(&self, tol: f64) -> Result<()> {
        for i in 0..self.rows {
            let mut sum = 0.0;
            for (j, &v) in self.row(i).iter().enumerate() {
                if !v.is_finite() || v < 0.0 {
                    return Err(LinalgError::InvalidProbability {
                        index: i * self.cols + j,
                        value: v,
                    });
                }
                sum += v;
            }
            if (sum - 1.0).abs() > tol {
                return Err(LinalgError::NotStochastic { row: i, sum });
            }
        }
        Ok(())
    }

    /// Divides every row by its sum, leaving all-zero rows untouched, and
    /// returns the indices of those all-zero (dangling) rows.
    pub fn normalize_rows(&mut self) -> Vec<usize> {
        let mut dangling = Vec::new();
        for i in 0..self.rows {
            let row = self.row_mut(i);
            let sum: f64 = row.iter().sum();
            if sum > 0.0 {
                for v in row {
                    *v /= sum;
                }
            } else {
                dangling.push(i);
            }
        }
        dangling
    }

    /// Converts to compressed sparse row form, dropping exact zeros.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let v = self.get(i, j);
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }
}

impl std::fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:8.4}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn empty_rejected() {
        assert!(DenseMatrix::from_rows(&[]).is_err());
        assert!(DenseMatrix::zeros(0, 3).is_err());
    }

    #[test]
    fn apply_matches_manual() {
        let m = sample();
        let y = m.apply(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn apply_transpose_matches_transpose_apply() {
        let m = sample();
        let x = [2.0, -1.0];
        let via_tr = m.transpose().apply(&x).unwrap();
        let direct = m.apply_transpose(&x).unwrap();
        assert_eq!(via_tr, direct);
    }

    #[test]
    fn apply_dimension_checked() {
        let m = sample();
        assert!(m.apply(&[1.0]).is_err());
        assert!(m.apply_transpose(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn normalize_rows_reports_dangling() {
        let mut m =
            DenseMatrix::from_rows(&[vec![2.0, 2.0], vec![0.0, 0.0], vec![1.0, 3.0]]).unwrap();
        let dangling = m.normalize_rows();
        assert_eq!(dangling, vec![1]);
        assert_eq!(m.row(0), &[0.5, 0.5]);
        assert_eq!(m.row(2), &[0.25, 0.75]);
    }

    #[test]
    fn check_row_stochastic_works() {
        let good = DenseMatrix::from_rows(&[vec![0.5, 0.5], vec![1.0, 0.0]]).unwrap();
        assert!(good.check_row_stochastic(1e-12).is_ok());
        let bad = DenseMatrix::from_rows(&[vec![0.5, 0.6]]).unwrap();
        assert!(matches!(
            bad.check_row_stochastic(1e-12),
            Err(LinalgError::NotStochastic { row: 0, .. })
        ));
    }

    #[test]
    fn to_csr_roundtrip_values() {
        let m = sample();
        let csr = m.to_csr();
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                assert_eq!(csr.get(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn display_nonempty() {
        let s = sample().to_string();
        assert!(s.contains("1.0000"));
    }
}
