//! Dense LU factorization with partial pivoting.

use crate::{DenseMatrix, LinalgError, Result};

/// LU factors of a square dense matrix, `P A = L U`.
///
/// `L` is unit lower triangular and `U` upper triangular, packed into one
/// matrix; `P` is stored as a pivot permutation. Used for the direct solve at
/// the coarsest multigrid level and for reference solutions in tests.
///
/// # Example
///
/// ```
/// use stochcdr_linalg::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
/// let lu = a.lu().unwrap(); // requires pivoting
/// let x = lu.solve(&[3.0, 5.0]).unwrap();
/// assert_eq!(x, vec![5.0, 3.0]);
/// ```
#[derive(Debug, Clone)]
pub struct LuFactors {
    /// Packed L (strictly lower, unit diagonal implicit) and U (upper).
    lu: DenseMatrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
}

/// Pivots smaller than this are treated as exact zeros.
const PIVOT_TOL: f64 = 1e-300;

impl LuFactors {
    /// Factorizes `a` with partial (row) pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `a` is not square, or
    /// [`LinalgError::SingularMatrix`] when no usable pivot exists.
    pub fn factorize(a: &DenseMatrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::ShapeMismatch(format!(
                "LU requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivoting: largest magnitude in column k at/below row k.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < PIVOT_TOL {
                return Err(LinalgError::SingularMatrix {
                    step: k,
                    pivot: pmax,
                });
            }
            if p != k {
                perm.swap(p, k);
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(p, c)];
                    lu[(p, c)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    let ukc = lu[(k, c)];
                    lu[(i, c)] -= m * ukc;
                }
            }
        }
        Ok(LuFactors { lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    #[allow(clippy::needless_range_loop)] // triangular solves read clearest indexed
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "rhs length {} != dimension {n}",
                b.len()
            )));
        }
        // Apply permutation, then forward and back substitution.
        let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for k in 0..i {
                acc -= self.lu[(i, k)] * x[k];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for k in (i + 1)..n {
                acc -= self.lu[(i, k)] * x[k];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wilkinson() -> DenseMatrix {
        DenseMatrix::from_rows(3, 3, &[1e-10, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 2.0])
    }

    #[test]
    fn solve_matches_manual() {
        let a = DenseMatrix::from_rows(3, 3, &[2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 0.0, 0.0]);
        let x = a.solve(&[4.0, 5.0, 6.0]).unwrap();
        let back = a.mul_right(&x);
        for (bi, ei) in back.iter().zip([4.0, 5.0, 6.0]) {
            assert!((bi - ei).abs() < 1e-10);
        }
    }

    #[test]
    fn pivoting_keeps_accuracy() {
        let a = wilkinson();
        let b = [1.0, 2.0, 3.0];
        let x = a.solve(&b).unwrap();
        let back = a.mul_right(&x);
        for (bi, ei) in back.iter().zip(b) {
            assert!((bi - ei).abs() < 1e-8, "residual too large: {back:?}");
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::ShapeMismatch(_))));
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let a = DenseMatrix::identity(3);
        let lu = a.lu().unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }
}
