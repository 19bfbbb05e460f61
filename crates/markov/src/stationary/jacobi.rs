//! Damped Jacobi iteration for the stationary distribution.

use stochcdr_linalg::{vecops, TransitionOp};
use stochcdr_obs as obs;

use crate::{MarkovError, Result, StochasticMatrix};

use super::{
    finalize, square_dim, ConvergenceTrace, SolveOptions, StationaryResult, StationarySolver,
};

/// Damped (weighted) Jacobi iteration on the stationarity equations.
///
/// From `η = η P`, each component satisfies
/// `η_i = (Σ_{j≠i} η_j p_ji) / (1 − p_ii)`, which is the Jacobi update for
/// the singular system `(P^T − I) η = 0`. A damping factor `ω ∈ (0, 1]`
/// blends the update with the previous iterate:
///
/// ```text
/// η_i ← (1 − ω) η_i + ω (Σ_{j≠i} η_j p_ji) / (1 − p_ii)
/// ```
///
/// Damped Jacobi is also the *smoother* used between grid transfers in the
/// paper's multigrid method ("the lumping and expanding steps are
/// interleaved with simple Gauss–Jacobi iterations"); the `sweep_once`
/// entry point exists for that use.
///
/// Matrix-free: a sweep needs only the `x·A` product and the diagonal, so
/// structured backends such as the Kronecker product-form operator never
/// materialize. The dominant SpMV runs on the parallel kernel layer.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiSolver {
    opts: SolveOptions,
    omega: f64,
}

impl JacobiSolver {
    /// Creates a solver with tolerance, iteration budget and damping `ω`.
    ///
    /// # Panics
    ///
    /// Panics if `tol <= 0`, `max_iters == 0`, or `ω ∉ (0, 1]`.
    pub fn new(tol: f64, max_iters: usize, omega: f64) -> Self {
        JacobiSolver::with_options(SolveOptions::new(tol, max_iters), omega)
    }

    /// Creates a solver from shared [`SolveOptions`] and damping `ω`.
    ///
    /// # Panics
    ///
    /// Panics if `ω ∉ (0, 1]`.
    pub fn with_options(opts: SolveOptions, omega: f64) -> Self {
        assert!(omega > 0.0 && omega <= 1.0, "damping must be in (0, 1]");
        JacobiSolver { opts, omega }
    }

    /// Damping factor `ω`.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// The full iteration controls.
    pub fn options(&self) -> &SolveOptions {
        &self.opts
    }

    /// Performs one damped Jacobi sweep in place and returns the L1 change.
    ///
    /// `x` must be a probability vector; it remains one afterwards. States
    /// with `p_ii = 1` (absorbing) keep their current value: the update is
    /// undefined there and any mass they hold is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != p.n()`.
    pub fn sweep_once(&self, p: &StochasticMatrix, x: &mut [f64]) -> f64 {
        assert_eq!(x.len(), p.n(), "vector length must match state count");
        let diag = p.matrix().diagonal();
        self.sweep_op(p, &diag, x)
    }

    /// One damped Jacobi sweep against any operator; `diag` must be the
    /// operator's main diagonal (hoisted by callers that sweep repeatedly).
    pub(crate) fn sweep_op(&self, op: &dyn TransitionOp, diag: &[f64], x: &mut [f64]) -> f64 {
        let mut y = vec![0.0; x.len()];
        self.sweep_with_scratch(op, diag, x, &mut y)
    }

    /// Allocation-free sweep against any operator, materialized or
    /// matrix-free, with caller-provided diagonal and scratch.
    ///
    /// `diag` must be `op`'s main diagonal and `y` a scratch vector of the
    /// same length as `x`. Same bits as [`sweep_once`](Self::sweep_once),
    /// and the same bits on a matrix-free operator as on the materialized
    /// chain whose values it serves; multigrid smoothing hoists both
    /// buffers out of the cycle loop.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths are inconsistent with the operator.
    pub fn sweep_with_scratch(
        &self,
        op: &dyn TransitionOp,
        diag: &[f64],
        x: &mut [f64],
        y: &mut [f64],
    ) -> f64 {
        let n = x.len();
        assert_eq!(n, op.rows(), "vector length must match state count");
        assert_eq!(diag.len(), n, "diagonal length must match state count");
        assert_eq!(y.len(), n, "scratch length must match vector length");
        // y_i = Σ_j x_j p_ji = (x P)_i.
        op.mul_left_into(x, y);
        let mut change = 0.0;
        for i in 0..n {
            let pii = diag[i];
            let denom = 1.0 - pii;
            let new = if denom > f64::EPSILON {
                // Remove the diagonal term included in y_i.
                ((y[i] - pii * x[i]) / denom).max(0.0)
            } else {
                x[i]
            };
            let blended = (1.0 - self.omega) * x[i] + self.omega * new;
            change += (blended - x[i]).abs();
            y[i] = blended;
        }
        x.copy_from_slice(y);
        vecops::normalize_l1(x);
        change
    }
}

impl Default for JacobiSolver {
    /// Tolerance `1e-12`, budget `100_000`, damping `0.8`.
    fn default() -> Self {
        JacobiSolver::with_options(SolveOptions::default(), 0.8)
    }
}

impl StationarySolver for JacobiSolver {
    fn solve_op(&self, op: &dyn TransitionOp, init: Option<&[f64]>) -> Result<StationaryResult> {
        let n = square_dim(op)?;
        let mut x = self.opts.starting_vector(n, init)?;
        let diag = op.diagonal();
        let mut history = Vec::new();
        let mut trace = ConvergenceTrace::new("markov.jacobi.stall");
        let heartbeat = obs::Heartbeat::new("jacobi");
        for it in 1..=self.opts.max_iters {
            let change = self.sweep_op(op, &diag, &mut x);
            if vecops::sum(&x) == 0.0 {
                // Degenerate iterate (possible for adversarial starts on
                // structured chains); re-seed with the uniform vector.
                x = vecops::uniform(n);
                continue;
            }
            trace.observe(change);
            if heartbeat.active() {
                heartbeat.tick_solve(
                    it as u64,
                    change,
                    trace.summary().ewma_reduction,
                    self.opts.tol,
                );
            }
            if self.opts.record_history {
                history.push(change);
            }
            if change <= self.opts.tol {
                obs::event(
                    "markov.jacobi",
                    &[("iterations", it.into()), ("change", change.into())],
                );
                return Ok(finalize(op, x, it, history, trace.summary()));
            }
        }
        let residual = {
            let y = op.mul_left(&x);
            vecops::dist1(&y, &x)
        };
        Err(MarkovError::NotConverged {
            iterations: self.opts.max_iters,
            residual,
        })
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_chains::{birth_death, pseudo_random, two_state};
    use super::*;

    #[test]
    fn two_state_exact() {
        let (p, pi) = two_state(0.2, 0.5);
        let r = JacobiSolver::default().solve(&p, None).unwrap();
        assert!(vecops::dist1(&r.distribution, &pi) < 1e-9);
    }

    #[test]
    fn birth_death_converges() {
        let (p, pi) = birth_death(15, 0.45);
        let r = JacobiSolver::default().solve(&p, None).unwrap();
        assert!(vecops::dist1(&r.distribution, &pi) < 1e-8);
    }

    #[test]
    fn agrees_with_power_on_random_chain() {
        use super::super::PowerIteration;
        let p = pseudo_random(25, 7);
        let a = JacobiSolver::default().solve(&p, None).unwrap();
        let b = PowerIteration::default().solve(&p, None).unwrap();
        assert!(vecops::dist1(&a.distribution, &b.distribution) < 1e-8);
    }

    #[test]
    fn sweep_reduces_residual() {
        let p = pseudo_random(20, 3);
        let mut x = vecops::uniform(20);
        let r0 = p.stationary_residual(&x);
        let solver = JacobiSolver::default();
        for _ in 0..20 {
            solver.sweep_once(&p, &mut x);
        }
        assert!(p.stationary_residual(&x) < r0 * 0.5);
    }

    #[test]
    fn absorbing_state_mass_preserved() {
        // State 1 absorbing; all mass should end up there.
        let mut coo = stochcdr_linalg::CooMatrix::new(2, 2);
        coo.push(0, 0, 0.5);
        coo.push(0, 1, 0.5);
        coo.push(1, 1, 1.0);
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let r = JacobiSolver::default().solve(&p, None).unwrap();
        assert!(r.distribution[1] > 0.999999);
    }

    #[test]
    fn invalid_damping_panics() {
        let result = std::panic::catch_unwind(|| JacobiSolver::new(1e-9, 10, 1.5));
        assert!(result.is_err());
    }

    #[test]
    fn reported_residual_is_post_clamp() {
        let p = pseudo_random(18, 11);
        let r = JacobiSolver::default().solve(&p, None).unwrap();
        assert_eq!(r.residual(), p.stationary_residual(&r.distribution));
    }
}
