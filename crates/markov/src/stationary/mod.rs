//! Solvers for the stationary distribution `η P = η`, `η 1 = 1`.
//!
//! The paper frames this as "the most basic analysis for MCs": computing the
//! left eigenvector of the stochastic matrix `P` for eigenvalue 1, posed
//! either as an eigenvalue problem or as the homogeneous linear system
//! `(P^T − I) η^T = 0` with the normalization `η ξ = 1`.
//!
//! Four solvers are provided:
//!
//! * [`PowerIteration`] — `η_{k+1} = η_k P`; robust, slow for stiff chains,
//! * [`JacobiSolver`] — damped Jacobi on the stationarity equations; also
//!   the smoother inside the multigrid solver ("Gauss–Jacobi" in the paper),
//! * [`GaussSeidelSolver`] — forward sweeps using the transposed matrix,
//! * [`GthSolver`] — direct Grassmann–Taksar–Heyman elimination
//!   (subtraction-free, numerically exact up to round-off); `O(n^3)`, used
//!   for small chains and the coarsest multigrid level,
//! * [`GmresStationary`] — restarted GMRES on the rank-one-shifted
//!   nonsingular system `((I − Pᵀ) + (1/n)·1 1ᵀ) x = (1/n)·1`, whose unique
//!   solution is `η`; the registry's baseline Krylov solver.
//!
//! The multigrid method of the paper lives in the `stochcdr-multigrid`
//! crate and implements the same [`StationarySolver`] trait.

mod convergence;
mod gauss_seidel;
mod gth;
mod jacobi;
mod krylov;
mod power;

pub use convergence::{ConvergenceSummary, ConvergenceTrace};
pub use gauss_seidel::GaussSeidelSolver;
pub use gth::GthSolver;
pub use jacobi::JacobiSolver;
pub use krylov::GmresStationary;
pub use power::PowerIteration;

use stochcdr_linalg::{vecops, TransitionOp};
use stochcdr_obs as obs;

use crate::{Result, StochasticMatrix};

/// Shared iteration controls for every [`StationarySolver`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Convergence tolerance on the solver's per-iteration change metric.
    pub tol: f64,
    /// Iteration budget before giving up with `NotConverged`.
    pub max_iters: usize,
    /// Record the per-iteration convergence metric in
    /// [`SolveReport::residual_history`] (off by default: long power-method
    /// runs would otherwise allocate megabytes of history).
    pub record_history: bool,
    /// Warm-start vector for iterative methods: when set (and no explicit
    /// `init` argument is passed to the solve call, which takes
    /// precedence), iterations start from this distribution instead of
    /// uniform. Parameter sweeps seed each point from a neighbor's η this
    /// way. Validated and L1-normalized like an explicit `init`; direct
    /// methods ignore it.
    pub init: Option<Vec<f64>>,
}

impl Default for SolveOptions {
    /// Tolerance `1e-12`, budget `100_000` iterations, no history.
    fn default() -> Self {
        SolveOptions {
            tol: 1e-12,
            max_iters: 100_000,
            record_history: false,
            init: None,
        }
    }
}

impl SolveOptions {
    /// Creates options with the given tolerance and iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not positive/finite or `max_iters` is zero.
    pub fn new(tol: f64, max_iters: usize) -> Self {
        assert!(
            tol.is_finite() && tol > 0.0,
            "tolerance must be positive and finite"
        );
        assert!(max_iters > 0, "iteration budget must be positive");
        SolveOptions {
            tol,
            max_iters,
            record_history: false,
            init: None,
        }
    }

    /// Enables residual-history recording.
    #[must_use]
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// Sets the warm-start vector (see [`SolveOptions::init`]).
    #[must_use]
    pub fn with_init(mut self, init: Vec<f64>) -> Self {
        self.init = Some(init);
        self
    }

    /// Resolves the starting vector for an iterative solve: the explicit
    /// `init` argument wins, then [`SolveOptions::init`], then uniform.
    ///
    /// # Errors
    ///
    /// [`crate::MarkovError::InvalidArgument`] for a malformed vector
    /// (wrong length, negative entries, zero mass).
    pub fn starting_vector(&self, n: usize, init: Option<&[f64]>) -> Result<Vec<f64>> {
        initial_vector(n, init.or(self.init.as_deref()))
    }
}

/// What a solve did: iteration count, final residual, optional history.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveReport {
    /// Iterations performed (1 for direct solvers).
    pub iterations: usize,
    /// Final residual `||η P − η||_1`, measured *after* the roundoff clamp
    /// so it reports exactly the distribution handed back.
    pub residual: f64,
    /// Per-iteration convergence metric (solver-specific: the residual for
    /// power/multigrid, the sweep change for Jacobi/Gauss–Seidel), with
    /// the last entry synced to the final post-clamp residual. Empty
    /// unless [`SolveOptions::record_history`] is set — except for
    /// multigrid, which always records its (short) cycle history.
    pub residual_history: Vec<f64>,
    /// Condensed convergence trajectory: reduction-factor EWMA and the
    /// stall detector's verdict (see [`ConvergenceTrace`]). Default-empty
    /// for direct solvers.
    pub convergence: ConvergenceSummary,
}

/// Outcome of a stationary-distribution solve.
#[derive(Debug, Clone, PartialEq)]
pub struct StationaryResult {
    /// The stationary distribution `η` (non-negative, sums to one).
    pub distribution: Vec<f64>,
    /// Iteration/residual telemetry for the solve.
    pub report: SolveReport,
}

impl StationaryResult {
    /// Iterations performed (1 for direct solvers).
    pub fn iterations(&self) -> usize {
        self.report.iterations
    }

    /// Final residual `||η P − η||_1` (post-clamp).
    pub fn residual(&self) -> f64 {
        self.report.residual
    }
}

/// A solver computing the stationary distribution of a Markov chain.
///
/// Implementations must return a non-negative vector summing to one whose
/// residual `||η P − η||_1` meets the solver's own tolerance, or an error.
/// Every solver consumes the matrix-free [`TransitionOp`] interface;
/// [`StationarySolver::solve`] is a convenience wrapper for concrete
/// [`StochasticMatrix`] chains.
pub trait StationarySolver {
    /// Computes the stationary distribution of a transition operator.
    ///
    /// `init` optionally seeds iterative methods; direct methods ignore it.
    /// When `None`, the uniform distribution is used. Matrix-free backends
    /// (e.g. the Kronecker product-form operator) work without
    /// materialization for solvers that only need `x·A` products (power
    /// iteration, weighted Jacobi); solvers that need a transpose or dense
    /// elimination materialize and document the cost.
    ///
    /// # Errors
    ///
    /// * [`crate::MarkovError::NotConverged`] when the iteration budget is
    ///   exhausted,
    /// * [`crate::MarkovError::Reducible`] when the method requires an
    ///   irreducible chain and the structure makes the solve impossible,
    /// * [`crate::MarkovError::InvalidArgument`] for malformed `init` or a
    ///   non-square operator.
    fn solve_op(&self, op: &dyn TransitionOp, init: Option<&[f64]>) -> Result<StationaryResult>;

    /// Computes the stationary distribution of a validated stochastic
    /// matrix (see [`StationarySolver::solve_op`] for the contract).
    ///
    /// # Errors
    ///
    /// Same as [`StationarySolver::solve_op`].
    fn solve(&self, p: &StochasticMatrix, init: Option<&[f64]>) -> Result<StationaryResult> {
        self.solve_op(p, init)
    }

    /// Short human-readable name used in reports and benchmarks.
    fn name(&self) -> &'static str;
}

/// Rejects non-square operators; returns the dimension.
pub(crate) fn square_dim(op: &dyn TransitionOp) -> Result<usize> {
    if op.rows() != op.cols() {
        return Err(crate::MarkovError::InvalidArgument(format!(
            "stationary solve needs a square operator, got {}x{}",
            op.rows(),
            op.cols()
        )));
    }
    Ok(op.rows())
}

/// Shared convergence epilogue: clamp roundoff noise out of the iterate,
/// recompute the residual on the *clamped* vector so the report describes
/// exactly what is returned, sync the history tail, and emit the common
/// iteration telemetry.
pub(crate) fn finalize(
    op: &dyn TransitionOp,
    mut x: Vec<f64>,
    iterations: usize,
    mut residual_history: Vec<f64>,
    convergence: ConvergenceSummary,
) -> StationaryResult {
    vecops::clamp_roundoff(&mut x, 1e-12);
    let residual = {
        let y = op.mul_left(&x);
        vecops::dist1(&y, &x)
    };
    if let Some(last) = residual_history.last_mut() {
        *last = residual;
    }
    if obs::enabled() {
        obs::counter("markov.solve.iterations", iterations as u64);
        obs::gauge("markov.solve.residual", residual);
        if let Some(ewma) = convergence.ewma_reduction {
            obs::gauge("markov.solve.reduction_ewma", ewma);
        }
    }
    StationaryResult {
        distribution: x,
        report: SolveReport {
            iterations,
            residual,
            residual_history,
            convergence,
        },
    }
}

/// Validates/creates the starting vector shared by the iterative solvers.
pub(crate) fn initial_vector(n: usize, init: Option<&[f64]>) -> Result<Vec<f64>> {
    use crate::MarkovError;
    match init {
        None => Ok(stochcdr_linalg::vecops::uniform(n)),
        Some(x) => {
            if x.len() != n {
                return Err(MarkovError::InvalidArgument(format!(
                    "initial vector length {} != state count {n}",
                    x.len()
                )));
            }
            if !stochcdr_linalg::vecops::is_nonnegative(x) {
                return Err(MarkovError::InvalidArgument(
                    "initial vector must be non-negative and finite".into(),
                ));
            }
            let mut x = x.to_vec();
            if !stochcdr_linalg::vecops::normalize_l1(&mut x) {
                return Err(MarkovError::InvalidArgument(
                    "initial vector must have positive mass".into(),
                ));
            }
            Ok(x)
        }
    }
}

#[cfg(test)]
pub(crate) mod test_chains {
    //! Chains with known stationary distributions, shared by solver tests.

    use stochcdr_linalg::CooMatrix;

    use crate::StochasticMatrix;

    /// Two-state chain with stationary distribution `(b, a) / (a + b)`.
    pub fn two_state(a: f64, b: f64) -> (StochasticMatrix, Vec<f64>) {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0 - a);
        coo.push(0, 1, a);
        coo.push(1, 0, b);
        coo.push(1, 1, 1.0 - b);
        let pi = vec![b / (a + b), a / (a + b)];
        (StochasticMatrix::new(coo.to_csr()).unwrap(), pi)
    }

    /// Birth–death random walk on `0..n` with up-probability `p`,
    /// down-probability `q = 1 - p`, reflecting at the ends.
    /// Stationary distribution is geometric with ratio `p/q`.
    pub fn birth_death(n: usize, p: f64) -> (StochasticMatrix, Vec<f64>) {
        let q = 1.0 - p;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            if i == 0 {
                coo.push(0, 1, p);
                coo.push(0, 0, q);
            } else if i == n - 1 {
                coo.push(i, i - 1, q);
                coo.push(i, i, p);
            } else {
                coo.push(i, i + 1, p);
                coo.push(i, i - 1, q);
            }
        }
        // Detailed balance: pi[i+1]/pi[i] = p/q.
        let r = p / q;
        let mut pi = Vec::with_capacity(n);
        let mut v = 1.0;
        for _ in 0..n {
            pi.push(v);
            v *= r;
        }
        let s: f64 = pi.iter().sum();
        for v in &mut pi {
            *v /= s;
        }
        (StochasticMatrix::new(coo.to_csr()).unwrap(), pi)
    }

    /// Random dense-ish stochastic matrix with a deterministic seed
    /// (reproducible across runs without pulling in `rand`).
    pub fn pseudo_random(n: usize, seed: u64) -> StochasticMatrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let mut row: Vec<f64> = (0..n).map(|_| next() + 1e-3).collect();
            let s: f64 = row.iter().sum();
            for v in &mut row {
                *v /= s;
            }
            for (j, v) in row.into_iter().enumerate() {
                coo.push(i, j, v);
            }
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_vector_defaults_to_uniform() {
        let x = initial_vector(4, None).unwrap();
        assert_eq!(x, vec![0.25; 4]);
    }

    #[test]
    fn initial_vector_normalizes() {
        let x = initial_vector(2, Some(&[1.0, 3.0])).unwrap();
        assert_eq!(x, vec![0.25, 0.75]);
    }

    #[test]
    fn options_init_warm_starts_and_explicit_arg_wins() {
        let (p, pi) = test_chains::two_state(0.3, 0.2);
        let warm = PowerIteration::with_options(SolveOptions::new(1e-13, 10_000).with_init(pi));
        let seeded = warm.solve(&p, None).unwrap();
        let cold = PowerIteration::new(1e-13, 10_000).solve(&p, None).unwrap();
        assert!(
            seeded.iterations() < cold.iterations(),
            "seeding at the answer must converge faster ({} vs {})",
            seeded.iterations(),
            cold.iterations()
        );
        // An explicit init argument overrides the options seed.
        let explicit = warm.solve(&p, Some(&[0.5, 0.5])).unwrap();
        assert_eq!(explicit.iterations(), cold.iterations());
        // A malformed options seed is rejected like a malformed argument.
        let bad =
            PowerIteration::with_options(SolveOptions::new(1e-13, 10_000).with_init(vec![1.0]));
        assert!(bad.solve(&p, None).is_err());
    }

    #[test]
    fn initial_vector_rejects_bad_input() {
        assert!(initial_vector(2, Some(&[1.0])).is_err());
        assert!(initial_vector(2, Some(&[-1.0, 2.0])).is_err());
        assert!(initial_vector(2, Some(&[0.0, 0.0])).is_err());
    }
}
