//! GMRES on the rank-one-shifted stationarity system.
//!
//! The homogeneous system `(I − Pᵀ) η = 0` with `Σ η = 1` is singular,
//! so Krylov methods cannot attack it directly. The classical remedy is
//! the rank-one shift
//!
//! ```text
//! B = (I − Pᵀ) + α · 1 1ᵀ,          α = 1/n,
//! ```
//!
//! which is nonsingular for an irreducible chain and satisfies
//! `B η = α · 1` exactly at the stationary distribution: the
//! normalization constraint is folded into the operator, and solving
//! `B x = α · 1` with [`stochcdr_linalg::gmres`] recovers `η` including
//! its scale. Every `B·x` product is one deterministic `x·P` kernel
//! (the cached-transpose SpMV all other solvers share) plus a serial
//! sum, so results are bit-identical at any worker thread count.

use stochcdr_linalg::{gmres, vecops, GmresOptions, LinalgError, TransitionOp};
use stochcdr_obs as obs;

use crate::{MarkovError, Result, StochasticMatrix};

use super::{ConvergenceTrace, SolveOptions, StationaryResult, StationarySolver};

/// Arnoldi basis vectors kept before the iteration restarts from the
/// current residual.
const RESTART: usize = 50;

/// The shifted operator `B = (I − Pᵀ) + α·1 1ᵀ` as a [`TransitionOp`].
///
/// `B` is structurally dense (the rank-one term touches every entry), so
/// row traversal merges the identity and `Pᵀ` entries into a full-length
/// scan; the matvecs used by GMRES stay sparse.
struct ShiftedStationaryOp<'a> {
    p: &'a StochasticMatrix,
    alpha: f64,
}

impl TransitionOp for ShiftedStationaryOp<'_> {
    fn rows(&self) -> usize {
        self.p.n()
    }

    fn cols(&self) -> usize {
        self.p.n()
    }

    fn nnz(&self) -> usize {
        // Dense by virtue of the rank-one shift.
        self.p.n() * self.p.n()
    }

    /// `y = B x = x − xP + α (Σx) 1` — `Pᵀx` and `xP` are the same
    /// vector, served by the chain's deterministic step kernel.
    fn mul_right_into(&self, x: &[f64], y: &mut [f64]) {
        self.p.step_into(x, y);
        let shift = self.alpha * vecops::sum(x);
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = xi - *yi + shift;
        }
    }

    /// `y = xᵀB = x − Px + α (Σx) 1` (the mirror image of
    /// [`mul_right_into`](TransitionOp::mul_right_into)).
    fn mul_left_into(&self, x: &[f64], y: &mut [f64]) {
        self.p.matrix().mul_right_into(x, y);
        let shift = self.alpha * vecops::sum(x);
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi = xi - *yi + shift;
        }
    }

    /// Row `r` of `B`: `α` everywhere, plus `1` on the diagonal, minus
    /// column `r` of `P` (= row `r` of the cached transpose).
    fn for_each_in_row(&self, row: usize, f: &mut dyn FnMut(usize, f64)) {
        let pt = self.p.transposed();
        let mut entries = pt.row(row).peekable();
        for c in 0..self.p.n() {
            let mut v = self.alpha;
            if c == row {
                v += 1.0;
            }
            if let Some(&(ec, ev)) = entries.peek() {
                if ec == c {
                    v -= ev;
                    entries.next();
                }
            }
            f(c, v);
        }
    }
}

/// Standalone GMRES stationary solver.
///
/// Solves the rank-one-shifted system `B x = α·1` (see the module docs)
/// with restarted GMRES, then clamps round-off noise and renormalizes.
/// No preconditioner: this is the baseline Krylov solver the registry
/// exposes as `gmres`; the multigrid-preconditioned variant lives in the
/// multigrid solver's acceleration path.
///
/// [`StationarySolver::solve_op`] materializes the operator first, like
/// the multigrid solver: the shifted matvec needs the chain's cached
/// transpose.
#[derive(Debug, Clone, PartialEq)]
pub struct GmresStationary {
    opts: SolveOptions,
}

impl GmresStationary {
    /// Creates a solver with the given relative residual tolerance and
    /// total inner-iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if `tol <= 0` or `max_iters == 0`.
    pub fn new(tol: f64, max_iters: usize) -> Self {
        GmresStationary::with_options(SolveOptions::new(tol, max_iters))
    }

    /// Creates a solver from shared [`SolveOptions`].
    pub fn with_options(opts: SolveOptions) -> Self {
        GmresStationary { opts }
    }
}

impl Default for GmresStationary {
    /// Tolerance `1e-12`, budget `100_000` inner iterations, restart 50.
    fn default() -> Self {
        GmresStationary::with_options(SolveOptions::default())
    }
}

impl StationarySolver for GmresStationary {
    /// Materializes the operator as a validated [`StochasticMatrix`] and
    /// solves on it: the shifted matvec is one `x·P` step, served by the
    /// chain's cached transpose.
    fn solve_op(&self, op: &dyn TransitionOp, init: Option<&[f64]>) -> Result<StationaryResult> {
        let p = StochasticMatrix::with_tolerance(op.materialize_csr(), 1e-6)?;
        self.solve(&p, init)
    }

    fn solve(&self, p: &StochasticMatrix, init: Option<&[f64]>) -> Result<StationaryResult> {
        let n = p.n();
        let x0 = self.opts.starting_vector(n, init)?;
        let alpha = 1.0 / n as f64;
        let b = vec![alpha; n];
        let shifted = ShiftedStationaryOp { p, alpha };
        // ‖b‖₂ = 1/√n, so a relative 2-norm residual of `tol` bounds the
        // L1 stationarity residual by `√n·‖Bx − b‖₂ = tol` (up to the
        // iterate's Σx drift, which the system itself drives to 1).
        let gopts = GmresOptions {
            restart: RESTART,
            tol: self.opts.tol,
            max_iters: self.opts.max_iters,
        };
        let run = gmres(&shifted, &b, Some(&x0), &gopts).map_err(|e| match e {
            LinalgError::SingularMatrix { step, .. } => MarkovError::NotConverged {
                iterations: step,
                residual: f64::NAN,
            },
            other => MarkovError::from(other),
        })?;
        let mut x = run.x;
        // GMRES knows nothing about non-negativity; the converged iterate
        // can undershoot zero by round-off on near-transient states.
        for v in &mut x {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        if !vecops::normalize_l1(&mut x) {
            return Err(MarkovError::NotConverged {
                iterations: run.iterations,
                residual: f64::NAN,
            });
        }
        // The per-restart trajectory lives inside `linalg::gmres`; the
        // report carries the final state only.
        let mut trace = ConvergenceTrace::new("markov.gmres.stall");
        trace.observe(run.rel_residual);
        let result = super::finalize(p, x, run.iterations, Vec::new(), trace.summary());
        obs::event(
            "markov.gmres",
            &[
                ("iterations", run.iterations.into()),
                ("restart", RESTART.into()),
                ("residual", result.report.residual.into()),
                ("rel_residual", run.rel_residual.into()),
            ],
        );
        Ok(result)
    }

    fn name(&self) -> &'static str {
        "gmres"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stationary::GthSolver;
    use stochcdr_linalg::CooMatrix;

    /// Birth–death chain of `n` states with up-probability `up`.
    fn birth_death(n: usize, up: f64) -> StochasticMatrix {
        let down = 1.0 - up;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            if i == 0 {
                coo.push(0, 0, down);
            } else {
                coo.push(i, i - 1, down);
            }
            if i == n - 1 {
                coo.push(i, i, up);
            } else {
                coo.push(i, i + 1, up);
            }
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn matches_direct_solve() {
        let p = birth_death(64, 0.45);
        let g = GmresStationary::new(1e-12, 100_000)
            .solve(&p, None)
            .unwrap();
        let d = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&g.distribution, &d.distribution) < 1e-9);
        assert!(g.residual() < 1e-10);
        assert!(g.iterations() > 0);
    }

    #[test]
    fn shifted_row_traversal_matches_matvec() {
        let p = birth_death(8, 0.4);
        let op = ShiftedStationaryOp {
            p: &p,
            alpha: 1.0 / 8.0,
        };
        // Rebuild B column-action from rows and compare against
        // mul_right_into on a ramp vector.
        let x: Vec<f64> = (0..8).map(|i| (i + 1) as f64).collect();
        let mut y = vec![0.0; 8];
        op.mul_right_into(&x, &mut y);
        let mut y_rows = vec![0.0; 8];
        for (r, yr) in y_rows.iter_mut().enumerate() {
            let mut acc = 0.0;
            op.for_each_in_row(r, &mut |c, v| acc += v * x[c]);
            *yr = acc;
        }
        for (a, b) in y.iter().zip(&y_rows) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let p = birth_death(128, 0.48);
        let solver = GmresStationary::new(1e-12, 100_000);
        let mut runs = Vec::new();
        for threads in [1usize, 4] {
            stochcdr_linalg::par::set_threads(Some(threads));
            runs.push(solver.solve(&p, None).unwrap());
            stochcdr_linalg::par::set_threads(None);
        }
        assert_eq!(runs[0].distribution, runs[1].distribution);
        assert_eq!(runs[0].iterations(), runs[1].iterations());
    }
}
