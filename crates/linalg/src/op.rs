//! Matrix-free transition-operator abstraction.
//!
//! [`TransitionOp`] is the single interface every stationary solver,
//! passage solve, and multigrid smoother consumes. A backend only has to
//! expose dimension/nnz metadata, row access, and the two matrix–vector
//! products `x·A` (distribution step) and `A·x`; it never has to
//! materialize its entries. The concrete storage formats in this crate
//! ([`CsrMatrix`], [`DenseMatrix`]) implement it here;
//! downstream crates add structured backends (the stochastic wrapper in
//! `stochcdr-markov`, the Kronecker product-form operator in
//! `stochcdr-fsm`).
//!
//! # Accumulation-order contract
//!
//! For a given backend, each output element of `mul_left_into` /
//! `mul_right_into` is accumulated in ascending source-index order, and
//! the parallel kernels preserve that element-local order — so results
//! are bit-identical for every thread count. Different backends may
//! associate differently (the Kronecker operator applies mode by mode)
//! and agree only to rounding.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;

/// A linear operator with transition-matrix semantics: rows index source
/// states, columns index destination states.
///
/// `Sync` is a supertrait so operators can be shared with the persistent
/// worker pool in [`crate::par`], whose borrowed dispatches complete
/// before the dispatching call returns.
pub trait TransitionOp: Sync {
    /// Number of rows (source states).
    fn rows(&self) -> usize;

    /// Number of columns (destination states).
    fn cols(&self) -> usize;

    /// Number of stored entries in the backend's *compact* representation
    /// (for structured operators this can be far smaller than the nnz of
    /// the materialized matrix). `0` when unknown.
    fn nnz(&self) -> usize;

    /// Number of scalar multiply-adds one operator application performs —
    /// the honest unit for deterministic work accounting (multigrid
    /// cycle-equivalents). Defaults to [`nnz`](Self::nnz), which is exact
    /// for materialized backends; structured operators whose compact
    /// storage understates the apply cost (Kronecker products apply each
    /// factor across every fiber) must override this with the real
    /// figure.
    fn apply_cost(&self) -> usize {
        self.nnz()
    }

    /// Computes `y = x·A` (row-vector product; propagates a distribution
    /// one step).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    fn mul_left_into(&self, x: &[f64], y: &mut [f64]);

    /// Computes `y = A·x` (column-vector product).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    fn mul_right_into(&self, x: &[f64], y: &mut [f64]);

    /// Visits the stored `(col, value)` pairs of one row in ascending
    /// column order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64));

    /// Allocating wrapper around [`TransitionOp::mul_left_into`].
    fn mul_left(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols()];
        self.mul_left_into(x, &mut y);
        y
    }

    /// Allocating wrapper around [`TransitionOp::mul_right_into`].
    fn mul_right(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows()];
        self.mul_right_into(x, &mut y);
        y
    }

    /// Returns the main diagonal as a dense vector.
    ///
    /// The default allocates and delegates to
    /// [`TransitionOp::diagonal_into`].
    fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.rows().min(self.cols())];
        self.diagonal_into(&mut d);
        d
    }

    /// Writes the main diagonal into a caller-provided buffer.
    ///
    /// Same values as [`TransitionOp::diagonal`]; smoother setups hoist
    /// the buffer out of their sweep loops. The default probes each row
    /// via [`TransitionOp::for_each_in_row`] (O(nnz) total); backends with
    /// cheaper access override it.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != min(rows, cols)`.
    fn diagonal_into(&self, out: &mut [f64]) {
        let n = self.rows().min(self.cols());
        assert_eq!(out.len(), n, "diagonal buffer length must match");
        for (r, dr) in out.iter_mut().enumerate() {
            *dr = 0.0;
            self.for_each_in_row(r, &mut |c, v| {
                if c == r {
                    *dr = v;
                }
            });
        }
    }

    /// Returns the transpose as a CSR matrix if the backend keeps one
    /// cached (column-access solvers like Gauss–Seidel use it to avoid a
    /// materialize-and-transpose pass). `None` by default.
    fn transpose_csr(&self) -> Option<&CsrMatrix> {
        None
    }

    /// Returns the transpose as a [`TransitionOp`] if the backend can
    /// serve one without materializing.
    ///
    /// The default forwards the cached CSR transpose from
    /// [`TransitionOp::transpose_csr`]; structured backends (e.g. the
    /// Kronecker product-form operator) override it with a compact
    /// transposed operator so transpose-driven solvers stay implicit.
    fn transpose_op(&self) -> Option<&dyn TransitionOp> {
        self.transpose_csr().map(|m| m as &dyn TransitionOp)
    }

    /// The square factors `A_1 … A_k` (outermost, slowest-varying first)
    /// when every row of this operator is the matching row of
    /// `A_1 ⊗ … ⊗ A_k` up to one scalar per row — the structure that
    /// lets validation and aggregation work lane by lane instead of
    /// walking the product's entries. Row `r`'s digits are packed
    /// row-major, innermost factor fastest, and zero factor entries are
    /// not entries of the product (as in [`for_each_in_row`](Self::for_each_in_row)).
    /// `None` by default.
    fn kron_factors(&self) -> Option<&[CsrMatrix]> {
        None
    }

    /// Materializes the operator as a CSR matrix via row traversal.
    ///
    /// Structured backends pay O(materialized nnz) here — solvers that
    /// need it (direct elimination, transpose sweeps on backends without
    /// a cached transpose) document the cost.
    fn materialize_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.rows(), self.cols(), self.nnz());
        for r in 0..self.rows() {
            self.for_each_in_row(r, &mut |c, v| coo.push(r, c, v));
        }
        coo.to_csr()
    }

    /// Materializes the operator as a dense matrix via row traversal.
    fn materialize_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows(), self.cols());
        for r in 0..self.rows() {
            let row = d.row_mut(r);
            self.for_each_in_row(r, &mut |c, v| row[c] = v);
        }
        d
    }
}

impl TransitionOp for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }

    fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::mul_left_into(self, x, y);
    }

    fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::mul_right_into(self, x, y);
    }

    fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
        for (c, v) in CsrMatrix::row(self, row) {
            f(c, v);
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        CsrMatrix::diagonal(self)
    }

    fn diagonal_into(&self, out: &mut [f64]) {
        CsrMatrix::diagonal_into(self, out);
    }

    fn materialize_csr(&self) -> CsrMatrix {
        self.clone()
    }

    fn materialize_dense(&self) -> DenseMatrix {
        CsrMatrix::to_dense(self)
    }
}

impl TransitionOp for DenseMatrix {
    fn rows(&self) -> usize {
        DenseMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        DenseMatrix::cols(self)
    }

    fn nnz(&self) -> usize {
        DenseMatrix::rows(self) * DenseMatrix::cols(self)
    }

    fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            y.len(),
            DenseMatrix::cols(self),
            "y length must equal column count"
        );
        y.copy_from_slice(&DenseMatrix::mul_left(self, x));
    }

    fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(
            y.len(),
            DenseMatrix::rows(self),
            "y length must equal row count"
        );
        y.copy_from_slice(&DenseMatrix::mul_right(self, x));
    }

    fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
        for (c, &v) in DenseMatrix::row(self, row).iter().enumerate() {
            if v != 0.0 {
                f(c, v);
            }
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        let n = DenseMatrix::rows(self).min(DenseMatrix::cols(self));
        (0..n).map(|i| self[(i, i)]).collect()
    }

    fn materialize_dense(&self) -> DenseMatrix {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 0.5);
        coo.push(0, 1, 0.5);
        coo.push(1, 2, 1.0);
        coo.push(2, 0, 0.25);
        coo.push(2, 2, 0.75);
        coo.to_csr()
    }

    fn assert_backends_agree(op: &dyn TransitionOp, reference: &CsrMatrix) {
        let x = vec![0.2, 0.3, 0.5];
        assert_eq!(op.mul_left(&x), TransitionOp::mul_left(reference, &x));
        assert_eq!(op.mul_right(&x), TransitionOp::mul_right(reference, &x));
        assert_eq!(op.diagonal(), CsrMatrix::diagonal(reference));
        assert_eq!(op.materialize_csr(), reference.clone());
    }

    #[test]
    fn csr_and_dense_backends_agree() {
        let p = sample_csr();
        assert_backends_agree(&p, &p);
        assert_backends_agree(&p.to_dense(), &p);
    }

    #[test]
    fn row_traversal_is_sorted_and_complete() {
        let p = sample_csr();
        for r in 0..3 {
            let mut cols = Vec::new();
            TransitionOp::for_each_in_row(&p, r, &mut |c, _| cols.push(c));
            let mut sorted = cols.clone();
            sorted.sort_unstable();
            assert_eq!(cols, sorted);
        }
    }

    /// A backend that caches its transpose but keeps the trait's default
    /// `transpose_op`, like `StochasticMatrix` downstream.
    struct CachedTranspose {
        a: CsrMatrix,
        at: CsrMatrix,
    }

    impl TransitionOp for CachedTranspose {
        fn rows(&self) -> usize {
            self.a.rows()
        }

        fn cols(&self) -> usize {
            self.a.cols()
        }

        fn nnz(&self) -> usize {
            self.a.nnz()
        }

        fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
            TransitionOp::mul_left_into(&self.a, x, y);
        }

        fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
            TransitionOp::mul_right_into(&self.a, x, y);
        }

        fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
            TransitionOp::for_each_in_row(&self.a, row, f);
        }

        fn transpose_csr(&self) -> Option<&CsrMatrix> {
            Some(&self.at)
        }
    }

    #[test]
    fn transpose_op_default_forwards_the_csr_transpose() {
        let p = sample_csr();
        let cached = CachedTranspose {
            at: p.transpose(),
            a: p.clone(),
        };
        let t = TransitionOp::transpose_op(&cached).expect("cached transpose serves an op");
        let x = vec![0.1, 0.4, 0.5];
        assert_eq!(t.mul_right(&x), p.transpose().mul_right(&x));
        // Backends without a cached transpose default to None.
        assert!(TransitionOp::transpose_op(&p).is_none());
    }

    #[test]
    fn diagonal_into_matches_diagonal_for_every_backend() {
        let p = sample_csr();
        let backends: Vec<Box<dyn TransitionOp>> =
            vec![Box::new(p.clone()), Box::new(p.to_dense())];
        for op in &backends {
            let mut d = vec![f64::NAN; 3];
            op.diagonal_into(&mut d);
            assert_eq!(d, op.diagonal());
            assert_eq!(d, CsrMatrix::diagonal(&p));
        }
    }

    #[test]
    fn materialize_dense_round_trips() {
        let p = sample_csr();
        assert_eq!(TransitionOp::materialize_dense(&p), p.to_dense());
    }
}
