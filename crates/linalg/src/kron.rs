//! Kronecker (tensor) products of sparse matrices.
//!
//! The paper builds the transition probability matrix of the whole CDR loop
//! "using hierarchical Kronecker algebra-like techniques as a composition of
//! smaller components". These are the corresponding primitive operations:
//! for independent components with transition matrices `A` and `B`, the
//! joint chain has matrix `A ⊗ B`.
//!
//! State `(i, j)` of the product maps to flat index `i * B.rows() + j`
//! (row-major, left factor varies slowest), matching
//! [`stochcdr_fsm`](https://docs.rs)’ state indexing convention.

use crate::{CooMatrix, CsrMatrix};

/// Computes the Kronecker product `A ⊗ B`.
///
/// The result has shape `(A.rows * B.rows) x (A.cols * B.cols)` and
/// `A.nnz * B.nnz` stored entries.
///
/// # Example
///
/// ```
/// use stochcdr_linalg::{CooMatrix, kron};
///
/// // A = [[0,1],[1,0]] (deterministic toggle), B = I2.
/// let mut a = CooMatrix::new(2, 2);
/// a.push(0, 1, 1.0);
/// a.push(1, 0, 1.0);
/// let a = a.to_csr();
/// let b = stochcdr_linalg::CsrMatrix::identity(2);
/// let k = kron::kron(&a, &b);
/// assert_eq!(k.rows(), 4);
/// assert_eq!(k.get(0, 2), 1.0); // (0,0) -> (1,0)
/// ```
pub fn kron(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let rows = a.rows() * b.rows();
    let cols = a.cols() * b.cols();
    let mut coo = CooMatrix::with_capacity(rows, cols, a.nnz() * b.nnz());
    for (ar, ac, av) in a.iter() {
        for (br, bc, bv) in b.iter() {
            coo.push(ar * b.rows() + br, ac * b.cols() + bc, av * bv);
        }
    }
    coo.to_csr()
}

/// Computes the Kronecker product of a sequence of factors, left to right.
///
/// An empty sequence yields the `1 x 1` identity (the unit of `⊗`).
pub fn kron_all<'a, I>(factors: I) -> CsrMatrix
where
    I: IntoIterator<Item = &'a CsrMatrix>,
{
    let mut acc = CsrMatrix::identity(1);
    for f in factors {
        acc = kron(&acc, f);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(rows, cols);
        for &(r, c, v) in entries {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    #[test]
    fn kron_matches_definition() {
        let a = mat(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)]);
        let b = mat(2, 2, &[(0, 1, 5.0), (1, 1, 7.0)]);
        let k = kron(&a, &b);
        assert_eq!(k.rows(), 4);
        assert_eq!(k.cols(), 4);
        assert_eq!(k.nnz(), a.nnz() * b.nnz());
        for (ar, ac, av) in a.iter() {
            for (br, bc, bv) in b.iter() {
                assert_eq!(k.get(2 * ar + br, 2 * ac + bc), av * bv);
            }
        }
    }

    #[test]
    fn kron_with_identity_is_block_diagonal() {
        let a = CsrMatrix::identity(3);
        let b = mat(2, 2, &[(0, 0, 0.5), (0, 1, 0.5), (1, 0, 1.0)]);
        let k = kron(&a, &b);
        // Block diagonal: entries only where row block == col block.
        for (r, c, _) in k.iter() {
            assert_eq!(r / 2, c / 2);
        }
    }

    #[test]
    fn kron_of_stochastic_is_stochastic() {
        let a = mat(2, 2, &[(0, 0, 0.3), (0, 1, 0.7), (1, 0, 1.0)]);
        let b = mat(2, 2, &[(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)]);
        let k = kron(&a, &b);
        for s in k.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn kron_all_unit_and_chain() {
        let e: Vec<&CsrMatrix> = vec![];
        let u = kron_all(e);
        assert_eq!(u.rows(), 1);
        assert_eq!(u.get(0, 0), 1.0);

        let a = CsrMatrix::identity(2);
        let b = CsrMatrix::identity(3);
        let c = CsrMatrix::identity(5);
        let k = kron_all([&a, &b, &c]);
        assert_eq!(k.rows(), 30);
        assert_eq!(k.nnz(), 30);
    }

    #[test]
    fn kron_associativity() {
        let a = mat(2, 2, &[(0, 1, 1.0), (1, 0, 0.5)]);
        let b = mat(2, 2, &[(0, 0, 2.0)]);
        let c = mat(2, 2, &[(1, 1, 3.0)]);
        let left = kron(&kron(&a, &b), &c);
        let right = kron(&a, &kron(&b, &c));
        assert_eq!(left, right);
    }
}
