//! Dense row-major matrix for small direct solves.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{LinalgError, LuFactors, Result};

/// A dense row-major matrix of `f64`.
///
/// Dense storage is reserved for the coarsest level of the multigrid
/// hierarchy and for reference computations in tests; production transition
/// matrices stay sparse.
///
/// # Example
///
/// ```
/// use stochcdr_linalg::DenseMatrix;
///
/// let mut a = DenseMatrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// assert_eq!(a.mul_right(&[1.0, 1.0]), vec![2.0, 4.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        DenseMatrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Overwrites every entry with `v` (e.g. re-zeroing a reused scratch
    /// matrix between coarse direct solves).
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of every entry, row-major: entry `(r, c)` is at
    /// `r · cols + c`. Lets a kernel split the storage into rows once
    /// (`split_at_mut`) instead of indexing entry by entry.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_right(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "x length must equal column count");
        (0..self.rows)
            .map(|r| self.row(r).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Computes `y = x A` for a row vector `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn mul_left(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "x length must equal row count");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (c, &v) in self.row(r).iter().enumerate() {
                y[c] += xr * v;
            }
        }
        y
    }

    /// Dense matrix product `C = A B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "{}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut c = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    c[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(c)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Factorizes the matrix as `P A = L U` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if not square, or
    /// [`LinalgError::SingularMatrix`] if a pivot underflows.
    pub fn lu(&self) -> Result<LuFactors> {
        LuFactors::factorize(self)
    }

    /// Solves `A x = b` via LU factorization.
    ///
    /// Convenience wrapper for one-shot solves; factor once with
    /// [`lu`](Self::lu) when solving repeatedly.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors and shape mismatches.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.lu()?.solve(b)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, " ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_mutate() {
        let mut a = DenseMatrix::zeros(2, 3);
        a[(1, 2)] = 7.0;
        assert_eq!(a[(1, 2)], 7.0);
        assert_eq!(a[(0, 0)], 0.0);
    }

    #[test]
    fn identity_matmul() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn mul_left_right_consistent_with_transpose() {
        let a = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = [1.0, -1.0];
        assert_eq!(a.mul_left(&x), a.transpose().mul_right(&x));
    }

    #[test]
    fn solve_small_system() {
        let a = DenseMatrix::from_rows(2, 2, &[3.0, 1.0, 1.0, 2.0]);
        let x = a.solve(&[9.0, 8.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_solve_errors() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            a.solve(&[1.0, 1.0]),
            Err(LinalgError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn debug_output_nonempty() {
        let a = DenseMatrix::zeros(1, 1);
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }
}
