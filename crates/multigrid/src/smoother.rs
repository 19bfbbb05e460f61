//! Smoothers used between grid transfers.
//!
//! Every sweep's hot product routes through the chain's own kernels: a
//! materialized level's cached transpose (`StochasticMatrix::step_into`
//! → `CsrMatrix::mul_right_into`) inherits the nnz-balanced
//! `RowPartition` blocking and the persistent `linalg::par` worker pool on
//! levels large enough to clear the parallel nnz gate, and coarse levels
//! stay serial by the same gate; a matrix-free fine level runs its
//! wrapped operator's own product (mode by mode for a Kronecker one).

use stochcdr_markov::stationary::{GaussSeidelSolver, JacobiSolver};
use stochcdr_markov::{StochasticMatrix, StochasticOp};

/// The relaxation applied before and after each coarse-grid correction.
///
/// The paper interleaves "simple Gauss–Jacobi iterations" with the lumping
/// and expanding steps; Gauss–Seidel is provided as the standard stronger
/// alternative on materialized chains.
#[derive(Debug, Clone, PartialEq)]
pub enum Smoother {
    /// Damped Jacobi with relaxation factor `ω ∈ (0, 1]`.
    Jacobi {
        /// Damping factor.
        omega: f64,
    },
    /// Forward Gauss–Seidel sweeps over the cached transpose `P^T`, so
    /// only chains that store one (materialized ones) can use it.
    GaussSeidel,
}

impl Smoother {
    /// Applies `sweeps` relaxation sweeps to `x` in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != p.n()` or (for Jacobi) `ω ∉ (0, 1]`.
    pub fn apply(&self, p: &StochasticMatrix, x: &mut [f64], sweeps: usize) {
        match self {
            Smoother::Jacobi { omega } => {
                let j = JacobiSolver::new(f64::MIN_POSITIVE, 1, *omega);
                for _ in 0..sweeps {
                    j.sweep_once(p, x);
                }
            }
            Smoother::GaussSeidel => {
                let g = GaussSeidelSolver::new(f64::MIN_POSITIVE, 1);
                for _ in 0..sweeps {
                    g.sweep_once(p, x);
                }
            }
        }
    }

    /// Allocation-free variant of [`apply`](Self::apply) on any validated
    /// chain, with caller-owned scratch: `diag` receives the chain's main
    /// diagonal (Jacobi only) and `scratch` is a work vector, both of
    /// length `fine.rows()`. Same bits as `apply` on a materialized
    /// chain, and on a matrix-free chain the materialized twin's result
    /// to rounding; the cycle loop hoists both buffers into the
    /// hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths disagree with `fine.rows()`, or for
    /// Gauss–Seidel on a chain without a cached transpose (the solver
    /// rejects that pairing before any cycle runs).
    pub(crate) fn apply_ws(
        &self,
        fine: &dyn StochasticOp,
        x: &mut [f64],
        sweeps: usize,
        diag: &mut [f64],
        scratch: &mut [f64],
    ) {
        if sweeps == 0 {
            return;
        }
        match self {
            Smoother::Jacobi { omega } => {
                // The diagonal is constant across sweeps: hoist it once.
                fine.diagonal_into(diag);
                let j = JacobiSolver::new(f64::MIN_POSITIVE, 1, *omega);
                for _ in 0..sweeps {
                    j.sweep_with_scratch(fine, diag, x, scratch);
                }
            }
            Smoother::GaussSeidel => {
                let pt = fine
                    .transpose_csr()
                    .expect("Gauss–Seidel smoothing needs the chain's cached transpose");
                for _ in 0..sweeps {
                    GaussSeidelSolver::sweep_transposed(pt, x);
                }
            }
        }
    }
}

impl Default for Smoother {
    /// Damped Jacobi with `ω = 0.8` — the paper's Gauss–Jacobi smoother.
    fn default() -> Self {
        Smoother::Jacobi { omega: 0.8 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochcdr_linalg::{vecops, CooMatrix};
    use stochcdr_markov::ImplicitStochastic;

    fn chain() -> StochasticMatrix {
        let n = 16;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 0.6);
            coo.push(i, (i + n - 1) % n, 0.3);
            coo.push(i, i, 0.1);
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    #[test]
    fn all_smoothers_reduce_residual() {
        let p = chain();
        for s in [Smoother::Jacobi { omega: 0.8 }, Smoother::GaussSeidel] {
            let mut x: Vec<f64> = (0..16).map(|i| (i + 1) as f64).collect();
            vecops::normalize_l1(&mut x);
            let before = p.stationary_residual(&x);
            s.apply(&p, &mut x, 10);
            let after = p.stationary_residual(&x);
            assert!(after < before, "{s:?}: {after} !< {before}");
            assert!((vecops::sum(&x) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn apply_ws_matches_apply_bitwise() {
        let p = chain();
        for s in [Smoother::Jacobi { omega: 0.8 }, Smoother::GaussSeidel] {
            let mut a: Vec<f64> = (0..16).map(|i| (i + 1) as f64).collect();
            vecops::normalize_l1(&mut a);
            let mut b = a.clone();
            let mut diag = vec![0.0; 16];
            let mut scratch = vec![f64::NAN; 16];
            s.apply(&p, &mut a, 7);
            s.apply_ws(&p, &mut b, 7, &mut diag, &mut scratch);
            assert_eq!(a, b, "{s:?}");
        }
    }

    #[test]
    fn apply_ws_on_an_implicit_chain_matches_the_materialized_chain() {
        // The implicit chain wraps the same raw CSR the materialized chain
        // validated; Jacobi, the one smoother a matrix-free chain admits,
        // sees the same diagonal bits and products equal to rounding (the
        // implicit chain scales the vector instead of the stored values),
        // so five sweeps agree entrywise to 1e-14 relative.
        let n = 16;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, (i + 1) % n, 0.6);
            coo.push(i, (i + n - 1) % n, 0.3);
            coo.push(i, i, 0.1);
        }
        let raw = coo.to_csr();
        let p = StochasticMatrix::with_tolerance(raw.clone(), 1e-6).unwrap();
        let rawt = raw.transpose();
        let imp = ImplicitStochastic::with_tolerance(&raw, &rawt, 1e-6).unwrap();
        let s = Smoother::Jacobi { omega: 0.8 };
        let mut a: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        vecops::normalize_l1(&mut a);
        let mut b = a.clone();
        let (mut da, mut db) = (vec![0.0; n], vec![0.0; n]);
        let (mut sa, mut sb) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        s.apply_ws(&p, &mut a, 5, &mut da, &mut sa);
        s.apply_ws(&imp, &mut b, 5, &mut db, &mut sb);
        assert_eq!(da, db, "diagonals diverge");
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 1e-14 * x.abs(), "{x} vs {y}");
        }
    }

    #[test]
    fn zero_sweeps_is_identity() {
        let p = chain();
        let mut x = vecops::uniform(16);
        let before = x.clone();
        Smoother::default().apply(&p, &mut x, 0);
        assert_eq!(x, before);
    }
}
