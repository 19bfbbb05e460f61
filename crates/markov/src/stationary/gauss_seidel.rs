//! Gauss–Seidel iteration for the stationary distribution.

use stochcdr_linalg::{vecops, CsrMatrix, TransitionOp};
use stochcdr_obs as obs;

use crate::{MarkovError, Result, StochasticMatrix};

use super::{
    finalize, square_dim, ConvergenceTrace, SolveOptions, StationaryResult, StationarySolver,
};

/// Gauss–Seidel iteration on the stationarity equations.
///
/// Like [`JacobiSolver`](super::JacobiSolver) but each state immediately uses
/// the freshest values of previously-updated states within a sweep:
///
/// ```text
/// for i in 0..n:  η_i ← (Σ_{j≠i} η_j^{latest} p_ji) / (1 − p_ii)
/// ```
///
/// Sweeps run over the rows of `P^T` (the in-neighbors of each state), which
/// the [`StochasticMatrix`] caches. Typically converges in roughly half the
/// iterations of Jacobi on these chains and is the classical accelerated
/// baseline the paper's aggregation/disaggregation methods are built on.
///
/// For backends that do not cache a transpose
/// ([`TransitionOp::transpose_csr`] returns `None`, e.g. the Kronecker
/// product-form operator), `solve_op` materializes the operator and
/// transposes it once — an O(nnz) cost paid up front.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussSeidelSolver {
    opts: SolveOptions,
}

impl GaussSeidelSolver {
    /// Creates a solver with the given L1 change tolerance and budget.
    ///
    /// # Panics
    ///
    /// Panics if `tol <= 0` or `max_iters == 0`.
    pub fn new(tol: f64, max_iters: usize) -> Self {
        GaussSeidelSolver::with_options(SolveOptions::new(tol, max_iters))
    }

    /// Creates a solver from shared [`SolveOptions`].
    pub fn with_options(opts: SolveOptions) -> Self {
        GaussSeidelSolver { opts }
    }

    /// The full iteration controls.
    pub fn options(&self) -> &SolveOptions {
        &self.opts
    }

    /// Performs one forward sweep in place; returns the L1 change.
    ///
    /// Absorbing states (`p_ii = 1`) keep their value, as in Jacobi.
    ///
    /// A sweep can annihilate a vector whose support lies "behind" the
    /// sweep order (e.g. a delta at state 0 whose mass is overwritten
    /// before it propagates); the vector is then left at exactly zero and
    /// the caller must re-seed. [`solve`](StationarySolver::solve) handles
    /// this automatically.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != p.n()`.
    pub fn sweep_once(&self, p: &StochasticMatrix, x: &mut [f64]) -> f64 {
        GaussSeidelSolver::sweep_transposed(p.transposed(), x)
    }

    /// One forward sweep in place over the rows of a cached CSR transpose
    /// `P^T` ([`TransitionOp::transpose_csr`]); returns the L1 change.
    /// Same arithmetic as [`sweep_once`](Self::sweep_once), for callers
    /// that hold the chain as a trait object.
    ///
    /// Inherently sequential: each state's update reads the freshest
    /// values of the states swept before it, so this kernel does not
    /// parallelize.
    ///
    /// Each row's columns ascend, so the row splits at the diagonal: the
    /// entries below it, the diagonal entry if stored, and the entries
    /// above it, summed over row slices with no per-entry test. `x[i]` is
    /// final once row `i` is swept, so the closing L1 normalization's sum
    /// is accumulated along the sweep, in the same order and from the same
    /// `-0.0` as [`vecops::normalize_l1`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != pt.rows()`.
    pub fn sweep_transposed(pt: &CsrMatrix, x: &mut [f64]) -> f64 {
        assert_eq!(x.len(), pt.rows(), "vector length must match state count");
        let (indptr, indices, data) = (pt.indptr(), pt.indices(), pt.data());
        let mut change = 0.0;
        let mut total = -0.0;
        for i in 0..x.len() {
            let cols = &indices[indptr[i]..indptr[i + 1]];
            let vals = &data[indptr[i]..indptr[i + 1]];
            let mut acc = 0.0;
            let mut k = 0;
            while k < cols.len() && (cols[k] as usize) < i {
                acc += vals[k] * x[cols[k] as usize];
                k += 1;
            }
            let mut pii = 0.0;
            if k < cols.len() && cols[k] as usize == i {
                pii = vals[k];
                k += 1;
            }
            for (&j, &v) in cols[k..].iter().zip(&vals[k..]) {
                acc += v * x[j as usize];
            }
            let denom = 1.0 - pii;
            if denom > f64::EPSILON {
                let new = (acc / denom).max(0.0);
                change += (new - x[i]).abs();
                x[i] = new;
            }
            total += x[i];
        }
        if total != 0.0 && total.is_finite() {
            vecops::scale(1.0 / total, x);
        }
        change
    }
}

/// The per-entry loop [`GaussSeidelSolver::sweep_transposed`] replaced:
/// the oracle its row split and fused normalization are pinned against.
#[cfg(test)]
fn sweep_by_entries(pt: &CsrMatrix, x: &mut [f64]) -> f64 {
    let mut change = 0.0;
    for i in 0..x.len() {
        let mut acc = 0.0;
        let mut pii = 0.0;
        for (j, v) in pt.row(i) {
            if j == i {
                pii = v;
            } else {
                acc += v * x[j];
            }
        }
        let denom = 1.0 - pii;
        if denom > f64::EPSILON {
            let new = (acc / denom).max(0.0);
            change += (new - x[i]).abs();
            x[i] = new;
        }
    }
    vecops::normalize_l1(x);
    change
}

/// [`GaussSeidelSolver::sweep_transposed`] over a transposed operator
/// served by row traversal (a Kronecker product's transposed twin), for
/// `solve_op` on backends without a cached CSR transpose.
fn sweep_by_traversal(pt: &dyn TransitionOp, x: &mut [f64]) -> f64 {
    let mut change = 0.0;
    for i in 0..x.len() {
        let mut acc = 0.0;
        let mut pii = 0.0;
        {
            let xr: &[f64] = x;
            pt.for_each_in_row(i, &mut |j, v| {
                if j == i {
                    pii = v;
                } else {
                    acc += v * xr[j];
                }
            });
        }
        let denom = 1.0 - pii;
        if denom > f64::EPSILON {
            let new = (acc / denom).max(0.0);
            change += (new - x[i]).abs();
            x[i] = new;
        }
    }
    vecops::normalize_l1(x);
    change
}

impl Default for GaussSeidelSolver {
    /// Tolerance `1e-12`, budget `100_000`.
    fn default() -> Self {
        GaussSeidelSolver::with_options(SolveOptions::default())
    }
}

impl StationarySolver for GaussSeidelSolver {
    fn solve_op(&self, op: &dyn TransitionOp, init: Option<&[f64]>) -> Result<StationaryResult> {
        let n = square_dim(op)?;
        let mut x = self.opts.starting_vector(n, init)?;
        // Sweeps need P^T rows: prefer the cached CSR transpose, then a
        // matrix-free transposed operator, and only materialize as the
        // last resort.
        enum Pt<'a> {
            Csr(&'a CsrMatrix),
            Op(&'a dyn TransitionOp),
        }
        let pt_owned;
        let pt = match (op.transpose_csr(), op.transpose_op()) {
            (Some(t), _) => Pt::Csr(t),
            (None, Some(t)) => Pt::Op(t),
            (None, None) => {
                pt_owned = op.materialize_csr().transpose();
                Pt::Csr(&pt_owned)
            }
        };
        let mut history = Vec::new();
        let mut trace = ConvergenceTrace::new("markov.gauss_seidel.stall");
        let heartbeat = obs::Heartbeat::new("gauss-seidel");
        for it in 1..=self.opts.max_iters {
            let change = match &pt {
                Pt::Csr(m) => GaussSeidelSolver::sweep_transposed(m, &mut x),
                Pt::Op(t) => sweep_by_traversal(*t, &mut x),
            };
            if vecops::sum(&x) == 0.0 {
                // The sweep annihilated the iterate (possible for
                // concentrated starts); re-seed with the uniform vector.
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
                    "markov.gauss_seidel",
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
        "gauss-seidel"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_chains::{birth_death, pseudo_random, two_state};
    use super::super::{JacobiSolver, PowerIteration};
    use super::*;

    #[test]
    fn two_state_exact() {
        let (p, pi) = two_state(0.25, 0.75);
        let r = GaussSeidelSolver::default().solve(&p, None).unwrap();
        assert!(vecops::dist1(&r.distribution, &pi) < 1e-9);
    }

    #[test]
    fn agrees_with_other_solvers() {
        let p = pseudo_random(25, 99);
        let gs = GaussSeidelSolver::default().solve(&p, None).unwrap();
        let pw = PowerIteration::default().solve(&p, None).unwrap();
        let jc = JacobiSolver::default().solve(&p, None).unwrap();
        assert!(vecops::dist1(&gs.distribution, &pw.distribution) < 1e-8);
        assert!(vecops::dist1(&gs.distribution, &jc.distribution) < 1e-8);
    }

    #[test]
    fn faster_than_jacobi_on_birth_death() {
        let (p, _) = birth_death(30, 0.48);
        let gs = GaussSeidelSolver::new(1e-10, 200_000)
            .solve(&p, None)
            .unwrap();
        // Undamped Jacobi oscillates on this near-bipartite chain; use the
        // damped variant for a fair iteration-count comparison.
        let jc = JacobiSolver::new(1e-10, 200_000, 0.7)
            .solve(&p, None)
            .unwrap();
        assert!(
            gs.iterations() < jc.iterations(),
            "GS {} iters vs Jacobi {}",
            gs.iterations(),
            jc.iterations()
        );
    }

    #[test]
    fn delta_start_does_not_collapse_to_zero() {
        // A delta at state 0 is annihilated by one forward sweep (its mass
        // is overwritten before propagating); the solver must recover
        // rather than report the zero vector as converged.
        let (p, pi) = two_state(0.3, 0.6);
        let r = GaussSeidelSolver::default()
            .solve(&p, Some(&[1.0, 0.0]))
            .unwrap();
        assert!((vecops::sum(&r.distribution) - 1.0).abs() < 1e-12);
        assert!(vecops::dist1(&r.distribution, &pi) < 1e-9);
    }

    #[test]
    fn result_is_stationary() {
        let (p, _) = birth_death(12, 0.3);
        let r = GaussSeidelSolver::default().solve(&p, None).unwrap();
        assert!(p.stationary_residual(&r.distribution) < 1e-9);
        assert!(vecops::is_nonnegative(&r.distribution));
    }

    #[test]
    fn reported_residual_is_post_clamp() {
        let p = pseudo_random(18, 5);
        let r = GaussSeidelSolver::default().solve(&p, None).unwrap();
        assert_eq!(r.residual(), p.stationary_residual(&r.distribution));
    }

    #[test]
    fn row_split_sweep_is_bitwise_the_entry_loop() {
        // Row 1 of P^T has no diagonal entry (state 1 has no self loop)
        // and state 3 is absorbing (p_33 = 1 keeps its value).
        let mut coo = stochcdr_linalg::CooMatrix::new(4, 4);
        for (r, c, v) in [
            (0, 0, 0.2),
            (0, 1, 0.5),
            (0, 2, 0.3),
            (1, 0, 0.6),
            (1, 2, 0.4),
            (2, 1, 0.1),
            (2, 2, 0.3),
            (2, 3, 0.6),
            (3, 3, 1.0),
        ] {
            coo.push(r, c, v);
        }
        let absorbing = StochasticMatrix::new(coo.to_csr()).unwrap();
        let (annihilating, _) = two_state(0.3, 0.6);
        let cases = [
            (absorbing, vec![0.1, 0.2, 5e-324, 0.4]),
            // A delta the first sweep overwrites: x is left at zero and
            // not rescaled.
            (annihilating, vec![1.0, 0.0]),
            (pseudo_random(25, 99), vec![1.0 / 25.0; 25]),
        ];
        for (k, (p, x0)) in cases.into_iter().enumerate() {
            let (mut x, mut y) = (x0.clone(), x0);
            for sweep in 0..4 {
                let a = GaussSeidelSolver::sweep_transposed(p.transposed(), &mut x);
                let b = sweep_by_entries(p.transposed(), &mut y);
                assert_eq!(a.to_bits(), b.to_bits(), "case {k}, sweep {sweep}");
                let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&y), "case {k}, sweep {sweep}");
            }
            if k == 1 {
                assert_eq!(x, [0.0, 0.0], "the delta is annihilated");
            }
        }
    }

    #[test]
    fn uncached_transpose_backend_agrees() {
        // Solving through the bare CSR backend (no cached transpose) must
        // give exactly the cached-transpose result.
        let p = pseudo_random(15, 21);
        let solver = GaussSeidelSolver::default();
        let a = solver.solve(&p, None).unwrap();
        let b = solver.solve_op(p.matrix(), None).unwrap();
        assert_eq!(a.distribution, b.distribution);
    }
}
