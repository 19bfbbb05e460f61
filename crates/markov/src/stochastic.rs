//! Validated transition probability matrices.

use stochcdr_linalg::{vecops, CsrMatrix, TransitionOp};
use stochcdr_obs as obs;

use crate::{MarkovError, Result};

/// Row-sum tolerance accepted at construction; rows are renormalized to sum
/// to exactly one afterwards so downstream analyses see a clean TPM.
pub(crate) const ROW_SUM_TOL: f64 = 1e-9;

/// A validated transition probability matrix of a discrete-time Markov
/// chain.
///
/// Invariants enforced at construction and preserved thereafter:
///
/// * the matrix is square,
/// * every stored entry is a finite probability in `[0, 1]` (up to
///   round-off),
/// * every row sums to one within [`f64`] round-off (rows are renormalized
///   exactly once at construction).
///
/// The paper calls this matrix `P`; its entries are
/// `p_ij = P(X_{k+1} = x_j | X_k = x_i)`.
///
/// # Example
///
/// ```
/// use stochcdr_linalg::CooMatrix;
/// use stochcdr_markov::StochasticMatrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 1, 1.0);
/// coo.push(1, 0, 1.0);
/// let p = StochasticMatrix::new(coo.to_csr())?;
/// assert_eq!(p.n(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticMatrix {
    p: CsrMatrix,
    /// Cached transpose, built lazily by solvers that sweep columns.
    /// Stored eagerly here to keep the type simple and shareable.
    pt: CsrMatrix,
}

impl StochasticMatrix {
    /// Validates and wraps a transition matrix.
    ///
    /// Rows whose sums deviate from one by at most `1e-9` are renormalized;
    /// larger deviations are rejected.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::NotSquare`] if the matrix is not square,
    /// * [`MarkovError::InvalidProbability`] for negative/non-finite entries,
    /// * [`MarkovError::RowSumNotOne`] if a row sum is off by more than the
    ///   tolerance (including empty rows).
    pub fn new(p: CsrMatrix) -> Result<Self> {
        Self::with_tolerance(p, ROW_SUM_TOL)
    }

    /// Like [`new`](Self::new) with a caller-chosen row-sum tolerance.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn with_tolerance(p: CsrMatrix, tol: f64) -> Result<Self> {
        if p.rows() != p.cols() {
            return Err(MarkovError::NotSquare {
                rows: p.rows(),
                cols: p.cols(),
            });
        }
        for (r, c, v) in p.iter() {
            if !v.is_finite() || v < 0.0 || v > 1.0 + tol {
                return Err(MarkovError::InvalidProbability {
                    row: r,
                    col: c,
                    value: v,
                });
            }
        }
        let sums = p.row_sums();
        let mut factors = Vec::with_capacity(p.rows());
        for (r, &s) in sums.iter().enumerate() {
            if (s - 1.0).abs() > tol {
                return Err(MarkovError::RowSumNotOne { row: r, sum: s });
            }
            factors.push(1.0 / s);
        }
        let p = p.scale_rows(&factors);
        let pt = p.transpose();
        Ok(StochasticMatrix { p, pt })
    }

    /// Wraps pre-validated parts without re-checking the invariants.
    ///
    /// `pt` must be the exact transpose of `p` and the rows of `p` must
    /// satisfy the documented invariants (the numeric-refresh paths in
    /// [`crate::lumping`] maintain them by construction).
    pub(crate) fn from_parts_unchecked(p: CsrMatrix, pt: CsrMatrix) -> Self {
        debug_assert_eq!(p.rows(), p.cols());
        debug_assert_eq!(pt.rows(), p.cols());
        debug_assert_eq!(pt.nnz(), p.nnz());
        StochasticMatrix { p, pt }
    }

    /// Mutable access to the matrix and its cached transpose, for
    /// numeric-refresh paths that overwrite values in a fixed pattern.
    /// The caller must keep the two value arrays consistent.
    pub(crate) fn parts_mut(&mut self) -> (&mut CsrMatrix, &mut CsrMatrix) {
        (&mut self.p, &mut self.pt)
    }

    /// Number of states.
    pub fn n(&self) -> usize {
        self.p.rows()
    }

    /// The underlying CSR matrix `P`.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.p
    }

    /// The cached transpose `P^T` (rows of `pt` are columns of `P`).
    pub fn transposed(&self) -> &CsrMatrix {
        &self.pt
    }

    /// Number of stored transitions.
    pub fn nnz(&self) -> usize {
        self.p.nnz()
    }

    /// One step of the chain: `x P` for a distribution row-vector `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n()`.
    pub fn step(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n()];
        self.step_into(x, &mut out);
        out
    }

    /// In-place step: writes `x P` into `out`.
    ///
    /// Computed as the row-parallel product `P^T x` on the cached
    /// transpose, which is bit-identical to the serial scatter `x P` (per
    /// output element, contributions accumulate in the same ascending
    /// source-row order, and IEEE multiplication commutes) while giving
    /// each output element to exactly one worker.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `n()`.
    pub fn step_into(&self, x: &[f64], out: &mut [f64]) {
        // Latency histogram only for operators large enough that the
        // clock reads are noise; coarse multigrid levels run sub-µs
        // SpMVs where the instrumentation would dominate the kernel.
        if obs::enabled() && x.len() >= 512 {
            let t0 = std::time::Instant::now();
            self.pt.mul_right_into(x, out);
            obs::histogram("markov.spmv.ns", t0.elapsed().as_nanos() as f64);
        } else {
            self.pt.mul_right_into(x, out);
        }
    }

    /// Residual `|| x P - x ||_1` of a candidate stationary vector
    /// (allocating; [`StochasticOp::stationary_residual_with`] is the
    /// allocation-free variant with the same bits).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n()`.
    pub fn stationary_residual(&self, x: &[f64]) -> f64 {
        let y = self.step(x);
        vecops::dist1(&y, x)
    }

    /// The transition probability `P(i -> j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.p.get(i, j)
    }

    /// Consumes the wrapper and returns the underlying matrix.
    pub fn into_inner(self) -> CsrMatrix {
        self.p
    }
}

impl TransitionOp for StochasticMatrix {
    fn rows(&self) -> usize {
        self.n()
    }

    fn cols(&self) -> usize {
        self.n()
    }

    fn nnz(&self) -> usize {
        StochasticMatrix::nnz(self)
    }

    fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        self.step_into(x, y);
    }

    fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
        self.p.mul_right_into(x, y);
    }

    fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
        for (c, v) in self.p.row(row) {
            f(c, v);
        }
    }

    fn diagonal_into(&self, out: &mut [f64]) {
        self.p.diagonal_into(out);
    }

    fn transpose_csr(&self) -> Option<&CsrMatrix> {
        Some(&self.pt)
    }

    fn materialize_csr(&self) -> CsrMatrix {
        self.p.clone()
    }

    fn materialize_dense(&self) -> stochcdr_linalg::DenseMatrix {
        self.p.to_dense()
    }
}

/// A validated chain: a [`TransitionOp`] whose rows are probability
/// distributions, checked once at construction. This is what the
/// multigrid solver and the lumping refresh consume, so an unvalidated
/// operator cannot reach them; the trait is sealed to the two validated
/// chain types, [`StochasticMatrix`] and the matrix-free
/// [`ImplicitStochastic`](crate::ImplicitStochastic).
pub trait StochasticOp: TransitionOp + sealed::Sealed {
    /// The stored row-ordered values `P`, or `None` for a matrix-free
    /// chain. Kernels that can read stored values directly (the lumping
    /// gather, Gauss–Seidel on the cached transpose, the dense coarse
    /// fill) choose their path from this once, never per entry.
    fn csr(&self) -> Option<&CsrMatrix>;

    /// Residual `|| x P - x ||_1` of a candidate stationary vector;
    /// `scratch` receives `x P`. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from the state count.
    fn stationary_residual_with(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        self.mul_left_into(x, scratch);
        vecops::dist1(scratch, x)
    }
}

impl StochasticOp for StochasticMatrix {
    fn csr(&self) -> Option<&CsrMatrix> {
        Some(&self.p)
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::StochasticMatrix {}
    impl Sealed for crate::ImplicitStochastic<'_> {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochcdr_linalg::CooMatrix;

    fn two_state(a: f64, b: f64) -> StochasticMatrix {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0 - a);
        coo.push(0, 1, a);
        coo.push(1, 0, b);
        coo.push(1, 1, 1.0 - b);
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn valid_chain_accepted() {
        let p = two_state(0.3, 0.6);
        assert_eq!(p.n(), 2);
        assert_eq!(p.prob(0, 1), 0.3);
    }

    #[test]
    fn non_square_rejected() {
        let coo = CooMatrix::new(2, 3);
        assert!(matches!(
            StochasticMatrix::new(coo.to_csr()),
            Err(MarkovError::NotSquare { .. })
        ));
    }

    #[test]
    fn bad_row_sum_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.5);
        coo.push(1, 1, 1.0);
        assert!(matches!(
            StochasticMatrix::new(coo.to_csr()),
            Err(MarkovError::RowSumNotOne { row: 0, .. })
        ));
    }

    #[test]
    fn empty_row_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        // row 1 empty -> sums to 0
        assert!(matches!(
            StochasticMatrix::new(coo.to_csr()),
            Err(MarkovError::RowSumNotOne { row: 1, .. })
        ));
    }

    #[test]
    fn negative_probability_rejected() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, -0.5);
        // -0.5 is stored; matrix invalid
        assert!(matches!(
            StochasticMatrix::new(coo.to_csr()),
            Err(MarkovError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn near_one_row_sums_are_renormalized() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 1.0 + 1e-12);
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        assert!((p.prob(0, 0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn step_propagates_distribution() {
        let p = two_state(1.0, 1.0); // deterministic toggle
        let x = p.step(&[1.0, 0.0]);
        assert_eq!(x, vec![0.0, 1.0]);
    }

    #[test]
    fn stationary_residual_zero_for_fixed_point() {
        let p = two_state(0.5, 0.5);
        assert!(p.stationary_residual(&[0.5, 0.5]) < 1e-15);
        assert!(p.stationary_residual(&[1.0, 0.0]) > 0.9);
    }

    #[test]
    fn transpose_is_cached_consistently() {
        let p = two_state(0.3, 0.6);
        assert_eq!(p.transposed().get(1, 0), 0.3);
        assert_eq!(p.transposed().get(0, 1), 0.6);
    }

    #[test]
    fn transpose_op_default_forwards_the_csr_transpose() {
        // StochasticMatrix overrides only `transpose_csr`; the trait's
        // default `transpose_op` must serve that cached transpose.
        let p = two_state(0.3, 0.6);
        let t = TransitionOp::transpose_op(&p).expect("chain serves a transpose op");
        let x = vec![0.1, 0.9];
        assert_eq!(t.mul_right(&x), p.transposed().mul_right(&x));
        // Backends without a cached transpose default to None.
        assert!(TransitionOp::transpose_op(p.matrix()).is_none());
    }

    #[test]
    fn transposed_step_is_bit_identical_to_scatter() {
        // The parallel step computes P^T x on the cached transpose; it must
        // reproduce the serial scatter x P bit for bit (same per-element
        // accumulation order; multiplication commutes).
        let n = 40;
        let mut coo = CooMatrix::new(n, n);
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            let mut row: Vec<f64> = (0..5).map(|_| next() + 1e-3).collect();
            let s: f64 = row.iter().sum();
            for v in &mut row {
                *v /= s;
            }
            for (k, v) in row.into_iter().enumerate() {
                coo.push(i, (i * 7 + k * 11) % n, v);
            }
        }
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let x: Vec<f64> = (0..n)
            .map(|i| if i % 3 == 0 { 0.0 } else { next() })
            .collect();
        assert_eq!(p.step(&x), p.matrix().mul_left(&x));
    }
}
