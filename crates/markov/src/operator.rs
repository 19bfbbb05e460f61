//! Matrix-free stationary analysis helpers.
//!
//! The paper's outlook for "more complex models" is to avoid explicit
//! sparse storage entirely, using "hierarchical generalized
//! Kronecker-algebra and/or probability decision diagram representations".
//! The workspace-wide interface for that is
//! [`TransitionOp`], which every [`StationarySolver`] consumes via
//! `solve_op`. This module keeps two conveniences on top of it:
//!
//! * [`FnOp`] — wraps a closure as a left-apply-only operator (tests and
//!   ad-hoc compositions),
//! * [`stationary_power`] — a thin functional wrapper over
//!   [`PowerIteration::solve_op`](crate::stationary::PowerIteration).

use stochcdr_linalg::TransitionOp;

use crate::stationary::{PowerIteration, SolveOptions, StationaryResult, StationarySolver};
use crate::Result;

/// Wraps a closure as a left-apply-only [`TransitionOp`] (useful for tests
/// and ad-hoc compositions).
///
/// Only `x·A` products are supported; `mul_right_into` and row traversal
/// panic. That restricts `FnOp` to solvers that are fully matrix-free in
/// the left product — power iteration — which is exactly the set of
/// methods a black-box operator can drive.
pub struct FnOp<F> {
    n: usize,
    f: F,
}

impl<F: Fn(&[f64], &mut [f64]) + Sync> FnOp<F> {
    /// Creates an operator of dimension `n` from `f(x, out)` computing
    /// `out = x P`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, f: F) -> Self {
        assert!(n > 0, "operator dimension must be positive");
        FnOp { n, f }
    }
}

impl<F: Fn(&[f64], &mut [f64]) + Sync> TransitionOp for FnOp<F> {
    fn rows(&self) -> usize {
        self.n
    }

    fn cols(&self) -> usize {
        self.n
    }

    fn nnz(&self) -> usize {
        0 // unknown for a black-box closure
    }

    fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        (self.f)(x, y)
    }

    fn mul_right_into(&self, _x: &[f64], _y: &mut [f64]) {
        panic!("FnOp exposes only the left product x·A");
    }

    fn for_each_in_row(&self, _row: usize, _f: &mut dyn FnMut(usize, f64)) {
        panic!("FnOp has no row access; use a materialized backend");
    }
}

impl std::fmt::Debug for FnOp<fn(&[f64], &mut [f64])> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnOp").field("n", &self.n).finish()
    }
}

/// Power iteration on a matrix-free operator: `x_{k+1} = x_k P`,
/// renormalized, until the L1 change drops below `tol`.
///
/// Equivalent to `PowerIteration::new(tol, max_iters).solve_op(op, init)`;
/// kept as a function for call sites that do not want to name the solver.
///
/// # Errors
///
/// * [`crate::MarkovError::InvalidArgument`] for a malformed initial
///   vector,
/// * [`crate::MarkovError::NotConverged`] when the budget is exhausted.
///
/// # Panics
///
/// Panics if `tol <= 0` or `max_iters == 0`.
pub fn stationary_power(
    op: &dyn TransitionOp,
    init: Option<&[f64]>,
    tol: f64,
    max_iters: usize,
) -> Result<StationaryResult> {
    PowerIteration::with_options(SolveOptions::new(tol, max_iters)).solve_op(op, init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MarkovError, StochasticMatrix};
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
    fn matrix_operator_matches_power_iteration() {
        let p = two_state(0.3, 0.6);
        let r = stationary_power(&p, None, 1e-12, 100_000).unwrap();
        assert!((r.distribution[0] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn closure_operator_works() {
        // Hand-rolled toggle-with-leak operator.
        let op = FnOp::new(2, |x: &[f64], out: &mut [f64]| {
            out[0] = 0.9 * x[1] + 0.1 * x[0];
            out[1] = 0.9 * x[0] + 0.1 * x[1];
        });
        let r = stationary_power(&op, None, 1e-12, 10_000).unwrap();
        assert!((r.distribution[0] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn invalid_init_rejected() {
        let p = two_state(0.5, 0.5);
        assert!(stationary_power(&p, Some(&[1.0]), 1e-9, 10).is_err());
        assert!(stationary_power(&p, Some(&[-1.0, 2.0]), 1e-9, 10).is_err());
    }

    #[test]
    fn budget_exhaustion_errors() {
        let p = two_state(1.0, 1.0); // periodic
        let err = stationary_power(&p, Some(&[1.0, 0.0]), 1e-12, 7).unwrap_err();
        assert!(matches!(
            err,
            MarkovError::NotConverged { iterations: 7, .. }
        ));
    }
}
