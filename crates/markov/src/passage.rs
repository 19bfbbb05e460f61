//! First-passage and absorption analysis.
//!
//! The paper's second performance measure — "the average time between cycle
//! slips ... translates into the computation of mean transition times
//! between certain sets of MC states, which is another standard computation
//! in MC analysis. It involves solving a linear system with the (modified)
//! TPM." This module provides that computation:
//!
//! * [`mean_hitting_times`] — expected steps until a target set is first
//!   entered, from every state (`(I − Q) t = 1` on the complement), by
//!   Gauss–Seidel sweeps,
//! * [`mean_hitting_times_direct`] — the same system by dense LU, exact
//!   for rare targets on small chains,
//! * [`mean_hitting_times_gmres`] — the same system by restarted GMRES.
//!
//! All entry points take the operator abstraction
//! [`TransitionOp`], so they work with any
//! backend — [`StochasticMatrix`](crate::StochasticMatrix) (which coerces at
//! the call site), bare CSR, dense, or product-form operators with row
//! access. Backends without a cached transpose are materialized once for the
//! backward-reachability check.

use stochcdr_linalg::{vecops, CsrMatrix, TransitionOp};
use stochcdr_obs as obs;

use crate::stationary::square_dim;
use crate::{MarkovError, Result};

/// Iterative-solve configuration shared by the passage computations.
///
/// The linear systems have the substochastic matrix `Q` (transitions that
/// stay outside the target set); they are solved by Gauss–Seidel sweeps,
/// which converge whenever every non-target state can reach the target.
#[derive(Debug, Clone, PartialEq)]
pub struct PassageOptions {
    /// Max-norm change tolerance for the sweeps.
    pub tol: f64,
    /// Iteration budget.
    pub max_iters: usize,
}

impl Default for PassageOptions {
    /// Tolerance `1e-10`, budget `1_000_000` sweeps.
    fn default() -> Self {
        PassageOptions {
            tol: 1e-10,
            max_iters: 1_000_000,
        }
    }
}

/// Expected number of steps to first hit `target`, from every state.
///
/// Entries for states inside `target` are zero. Solves
/// `t = 1 + Q t` by Gauss–Seidel, where `Q` is `P` restricted to the
/// complement of `target`.
///
/// # Example
///
/// ```
/// use stochcdr_linalg::CooMatrix;
/// use stochcdr_markov::{passage::{mean_hitting_times, PassageOptions}, StochasticMatrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Fair coin flips until the first head (state 1): E[T] = 2.
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 0.5);
/// coo.push(0, 1, 0.5);
/// coo.push(1, 1, 1.0);
/// let p = StochasticMatrix::new(coo.to_csr())?;
/// let t = mean_hitting_times(&p, &[1], &PassageOptions::default())?;
/// assert!((t[0] - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`MarkovError::InvalidArgument`] if `target` is empty or out of range,
/// * [`MarkovError::Reducible`] if some state cannot reach the target (its
///   hitting time is infinite),
/// * [`MarkovError::NotConverged`] if the budget is exhausted.
pub fn mean_hitting_times(
    p: &dyn TransitionOp,
    target: &[usize],
    opts: &PassageOptions,
) -> Result<Vec<f64>> {
    let n = square_dim(p)?;
    let in_target = membership(n, target)?;
    check_reachable(p, &in_target)?;

    let mut t = vec![0.0f64; n];
    for it in 0..opts.max_iters {
        let mut change = 0.0f64;
        for i in 0..n {
            if in_target[i] {
                continue;
            }
            let mut acc = 1.0;
            let mut pii = 0.0;
            p.for_each_in_row(i, &mut |j, v| {
                if j == i {
                    pii = v;
                } else if !in_target[j] {
                    acc += v * t[j];
                }
            });
            let denom = 1.0 - pii;
            debug_assert!(
                denom > 0.0,
                "reachability check should exclude absorbing non-targets"
            );
            let new = acc / denom;
            change = change.max((new - t[i]).abs());
            t[i] = new;
        }
        if change <= opts.tol * (1.0 + vecops::norm_inf(&t)) {
            obs::event(
                "markov.passage",
                &[("iterations", (it + 1).into()), ("states", n.into())],
            );
            return Ok(t);
        }
        let _ = it;
    }
    Err(MarkovError::NotConverged {
        iterations: opts.max_iters,
        residual: f64::NAN,
    })
}

/// Expected number of steps to first hit `target`, solved **directly**:
/// forms the dense `(I − Q)` system over the non-target states and LU-
/// factorizes it.
///
/// The iterative [`mean_hitting_times`] converges at rate `ρ(Q)`, which for
/// *rare* targets (cycle slips at low noise) is `1 − 1/E[T]` — hopeless
/// when `E[T] ~ 1e12`. The direct solve costs `O(n³)` but is exact for any
/// target rarity; use it when the transient set is small (≲ 2000 states).
///
/// # Errors
///
/// * [`MarkovError::InvalidArgument`] if `target` is empty or out of range,
/// * [`MarkovError::Reducible`] if some state cannot reach the target,
/// * [`MarkovError::Linalg`] if the dense solve fails.
pub fn mean_hitting_times_direct(p: &dyn TransitionOp, target: &[usize]) -> Result<Vec<f64>> {
    let n = square_dim(p)?;
    let in_target = membership(n, target)?;
    check_reachable(p, &in_target)?;
    let transient: Vec<usize> = (0..n).filter(|&i| !in_target[i]).collect();
    let mut index_of = vec![usize::MAX; n];
    for (k, &s) in transient.iter().enumerate() {
        index_of[s] = k;
    }
    let nt = transient.len();
    let mut a = stochcdr_linalg::DenseMatrix::identity(nt);
    for (k, &s) in transient.iter().enumerate() {
        p.for_each_in_row(s, &mut |j, v| {
            if !in_target[j] {
                a[(k, index_of[j])] -= v;
            }
        });
    }
    let sol = a.solve(&vec![1.0; nt])?;
    let mut t = vec![0.0; n];
    for (k, &s) in transient.iter().enumerate() {
        t[s] = sol[k];
    }
    Ok(t)
}

/// Expected number of steps to first hit `target`, solved with restarted
/// **GMRES** on the sparse `(I − Q) t = 1` system.
///
/// Sits between the Gauss–Seidel sweeps of [`mean_hitting_times`] (cheap,
/// but convergence degrades as hitting times grow) and the dense
/// [`mean_hitting_times_direct`] (exact, but `O(n³)`): Krylov iterations
/// handle moderately rare targets on chains far too large for the dense
/// path. The paper's numerical-methods section lists Krylov subspace
/// methods among the accelerable baselines.
///
/// # Errors
///
/// * [`MarkovError::InvalidArgument`] if `target` is empty or out of range,
/// * [`MarkovError::Reducible`] if some state cannot reach the target,
/// * [`MarkovError::Linalg`] if GMRES stagnates within its budget.
pub fn mean_hitting_times_gmres(
    p: &dyn TransitionOp,
    target: &[usize],
    opts: &stochcdr_linalg::GmresOptions,
) -> Result<Vec<f64>> {
    let n = square_dim(p)?;
    let in_target = membership(n, target)?;
    check_reachable(p, &in_target)?;
    let transient: Vec<usize> = (0..n).filter(|&i| !in_target[i]).collect();
    let mut index_of = vec![usize::MAX; n];
    for (k, &s) in transient.iter().enumerate() {
        index_of[s] = k;
    }
    // Assemble I − Q over the transient states, sparsely.
    let nt = transient.len();
    let mut coo = stochcdr_linalg::CooMatrix::new(nt, nt);
    for (k, &s) in transient.iter().enumerate() {
        coo.push(k, k, 1.0);
        p.for_each_in_row(s, &mut |j, v| {
            if !in_target[j] {
                coo.push(k, index_of[j], -v);
            }
        });
    }
    let a = coo.to_csr();
    let rhs = vec![1.0; nt];
    let sol = stochcdr_linalg::gmres(&a, &rhs, None, opts)?;
    let mut t = vec![0.0; n];
    for (k, &s) in transient.iter().enumerate() {
        t[s] = sol.x[k];
    }
    Ok(t)
}

/// Builds a membership mask, validating the index set.
fn membership(n: usize, set: &[usize]) -> Result<Vec<bool>> {
    if set.is_empty() {
        return Err(MarkovError::InvalidArgument("target set is empty".into()));
    }
    let mut mask = vec![false; n];
    for &s in set {
        if s >= n {
            return Err(MarkovError::InvalidArgument(format!(
                "target state {s} out of range 0..{n}"
            )));
        }
        mask[s] = true;
    }
    Ok(mask)
}

/// Fails with [`MarkovError::Reducible`] unless every state can reach the
/// target set. Uses the backend's cached transpose when available;
/// otherwise materializes and transposes once.
fn check_reachable(p: &dyn TransitionOp, in_target: &[bool]) -> Result<()> {
    let pt_owned;
    let pt: &CsrMatrix = match p.transpose_csr() {
        Some(t) => t,
        None => {
            pt_owned = p.materialize_csr().transpose();
            &pt_owned
        }
    };
    let reachable = backward_reachable(pt, in_target);
    if let Some(bad) = reachable.iter().position(|&r| !r) {
        return Err(MarkovError::Reducible(format!(
            "state {bad} cannot reach the target set; its hitting time is infinite"
        )));
    }
    Ok(())
}

/// BFS along reversed edges from the target: which states can reach it?
fn backward_reachable(pt: &CsrMatrix, in_target: &[bool]) -> Vec<bool> {
    let n = in_target.len();
    let mut seen: Vec<bool> = in_target.to_vec();
    let mut queue: std::collections::VecDeque<usize> = (0..n).filter(|&i| in_target[i]).collect();
    while let Some(v) = queue.pop_front() {
        // Rows of pt are in-edges of v in the original graph.
        for (u, _) in pt.row(v) {
            if !seen[u] {
                seen[u] = true;
                queue.push_back(u);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StochasticMatrix;
    use stochcdr_linalg::CooMatrix;

    fn chain(n: usize, edges: &[(usize, usize, f64)]) -> StochasticMatrix {
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in edges {
            coo.push(r, c, v);
        }
        StochasticMatrix::new(coo.to_csr()).unwrap()
    }

    /// Gambler's-ruin style walk on 0..=3, absorbing at 3; fair coin.
    fn walk() -> StochasticMatrix {
        chain(
            4,
            &[
                (0, 0, 0.5),
                (0, 1, 0.5),
                (1, 0, 0.5),
                (1, 2, 0.5),
                (2, 1, 0.5),
                (2, 3, 0.5),
                (3, 3, 1.0),
            ],
        )
    }

    #[test]
    fn hitting_times_of_reflecting_walk() {
        // For the reflecting fair walk, E[T_3 | start=i] follows from
        // t_i = 1 + 0.5 t_{i-1} + 0.5 t_{i+1} with reflection at 0;
        // solving: t_2 = 10? Let's derive: t3=0.
        // t0 = 1 + .5 t0 + .5 t1 -> .5 t0 = 1 + .5 t1 -> t0 = 2 + t1
        // t1 = 1 + .5 t0 + .5 t2
        // t2 = 1 + .5 t1
        // Substitute: t1 = 1 + .5(2 + t1) + .5(1 + .5 t1) -> t1 = 2.5 + .75 t1
        // -> t1 = 10, t0 = 12, t2 = 6.
        let p = walk();
        let t = mean_hitting_times(&p, &[3], &PassageOptions::default()).unwrap();
        assert!((t[0] - 12.0).abs() < 1e-7, "{t:?}");
        assert!((t[1] - 10.0).abs() < 1e-7);
        assert!((t[2] - 6.0).abs() < 1e-7);
        assert_eq!(t[3], 0.0);
    }

    #[test]
    fn direct_matches_iterative() {
        let p = walk();
        let ti = mean_hitting_times(&p, &[3], &PassageOptions::default()).unwrap();
        let td = mean_hitting_times_direct(&p, &[3]).unwrap();
        for (a, b) in ti.iter().zip(&td) {
            assert!((a - b).abs() < 1e-6, "{ti:?} vs {td:?}");
        }
    }

    #[test]
    fn csr_backend_is_bit_identical() {
        // The port to TransitionOp must not change the arithmetic: running
        // the solve through the bare CSR backend (no cached transpose)
        // reproduces the StochasticMatrix path bit for bit.
        let p = walk();
        let a = mean_hitting_times(&p, &[3], &PassageOptions::default()).unwrap();
        let b = mean_hitting_times(p.matrix(), &[3], &PassageOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn direct_handles_rare_targets() {
        // A nearly-absorbing loop: expected hitting time ~ 1/eps, far
        // beyond iterative reach at eps = 1e-12.
        let eps = 1e-12;
        let p = chain(2, &[(0, 0, 1.0 - eps), (0, 1, eps), (1, 1, 1.0)]);
        let t = mean_hitting_times_direct(&p, &[1]).unwrap();
        assert!((t[0] * eps - 1.0).abs() < 1e-3, "t0 = {}", t[0]);
    }

    #[test]
    fn gmres_matches_direct() {
        let p = walk();
        let tg =
            mean_hitting_times_gmres(&p, &[3], &stochcdr_linalg::GmresOptions::default()).unwrap();
        let td = mean_hitting_times_direct(&p, &[3]).unwrap();
        for (a, b) in tg.iter().zip(&td) {
            assert!((a - b).abs() < 1e-6, "{tg:?} vs {td:?}");
        }
    }

    #[test]
    fn gmres_rejects_unreachable() {
        let p = walk();
        assert!(matches!(
            mean_hitting_times_gmres(&p, &[0], &stochcdr_linalg::GmresOptions::default()),
            Err(MarkovError::Reducible(_))
        ));
    }

    #[test]
    fn direct_rejects_unreachable() {
        let p = walk();
        assert!(matches!(
            mean_hitting_times_direct(&p, &[0]),
            Err(MarkovError::Reducible(_))
        ));
    }

    #[test]
    fn unreachable_target_is_an_error() {
        // Target 0 unreachable from absorbing state 3.
        let p = walk();
        assert!(matches!(
            mean_hitting_times(&p, &[0], &PassageOptions::default()),
            Err(MarkovError::Reducible(_))
        ));
    }

    #[test]
    fn empty_or_invalid_target_rejected() {
        let p = walk();
        assert!(mean_hitting_times(&p, &[], &PassageOptions::default()).is_err());
        assert!(mean_hitting_times(&p, &[9], &PassageOptions::default()).is_err());
    }
}
