//! Direct GTH (Grassmann–Taksar–Heyman) stationary solver.

use stochcdr_linalg::{vecops, DenseMatrix, TransitionOp};
use stochcdr_obs as obs;

use crate::{MarkovError, Result};

use super::{StationaryResult, StationarySolver};

/// Direct stationary solver using Grassmann–Taksar–Heyman state elimination.
///
/// GTH is the numerically preferred direct method for stationary
/// distributions: it performs no subtractions, so it cannot suffer the
/// catastrophic cancellation Gaussian elimination exhibits on singular
/// `I − P` systems. Cost is `O(n^3)` time and `O(n^2)` space — exactly right
/// for the *coarsest* level of the multigrid hierarchy ("the coarsest
/// problem is solved exactly with a direct method" in the paper) and for
/// reference solutions in tests.
///
/// The derivation is censoring: eliminating state `k` replaces the chain by
/// the chain *watched only on states `< k`*, with transitions
/// `p'_ij = p_ij + p_ik · p_kj / s_k` where `s_k = Σ_{j<k} p_kj` is the
/// probability of leaving `k` downward. Back-substitution then rebuilds the
/// full stationary vector from `π_0 = 1`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GthSolver {
    _private: (),
}

impl GthSolver {
    /// Creates a GTH solver.
    pub fn new() -> Self {
        GthSolver::default()
    }

    /// Runs GTH elimination on an explicit dense matrix.
    ///
    /// Exposed separately so the multigrid coarse solver can reuse a dense
    /// scratch matrix without round-tripping through sparse storage.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Reducible`] when some state cannot reach the
    /// states below it (elimination breaks down), and
    /// [`MarkovError::NotSquare`] for non-square input.
    pub fn solve_dense(&self, a: &DenseMatrix) -> Result<Vec<f64>> {
        let mut p = a.clone();
        let mut pi = vec![0.0; a.rows()];
        self.solve_dense_in_place(&mut p, &mut pi)?;
        Ok(pi)
    }

    /// Allocation-free variant of [`solve_dense`](Self::solve_dense): the
    /// elimination destroys `p` (which must hold the transition matrix on
    /// entry) and the stationary vector lands in `pi`. Same arithmetic,
    /// same bits as the allocating path; the multigrid coarse solver
    /// reuses one dense scratch across all cycles this way.
    ///
    /// # Errors
    ///
    /// Same as [`solve_dense`](Self::solve_dense).
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != p.rows()`.
    pub fn solve_dense_in_place(&self, p: &mut DenseMatrix, pi: &mut [f64]) -> Result<()> {
        if p.rows() != p.cols() {
            return Err(MarkovError::NotSquare {
                rows: p.rows(),
                cols: p.cols(),
            });
        }
        let n = p.rows();
        assert_eq!(pi.len(), n, "stationary vector length must match");
        if n == 0 {
            return Err(MarkovError::InvalidArgument("empty chain".into()));
        }
        if n == 1 {
            pi[0] = 1.0;
            return Ok(());
        }
        eliminate(p.as_mut_slice(), n)?;
        back_substitute(p, pi)
    }
}

/// GTH elimination phase on the row-major `n × n` matrix `p`: removes
/// states `n−1, n−2, …, 1`, leaving each censored row's normalizer in its
/// diagonal slot for back-substitution.
///
/// Works on row slices: row `k` is split off the rows above it once per
/// step, and each update `p_i· += p_ik · p_k·` runs over contiguous
/// slices without a per-entry test, so the compiler vectorizes it. The
/// dropped test skipped `p_kj == 0`; adding `p_ik · 0 = ±0.0` to a finite
/// entry changes at most the sign of a zero, which neither the row sums
/// nor the back-substitution can see, so the stationary vector keeps the
/// bits of the entry-by-entry loop. Rows with `p_ik == 0` are still
/// skipped whole.
fn eliminate(p: &mut [f64], n: usize) -> Result<()> {
    for k in (1..n).rev() {
        let (above, rest) = p.split_at_mut(k * n);
        let row_k = &mut rest[..n];
        let s: f64 = row_k[..k].iter().sum();
        if s <= 0.0 {
            return Err(MarkovError::Reducible(format!(
                "state {k} has no transitions into states 0..{k}"
            )));
        }
        for v in &mut row_k[..k] {
            *v /= s;
        }
        let pk = &row_k[..k];
        for row_i in above.chunks_exact_mut(n) {
            let pik = row_i[k];
            if pik == 0.0 {
                continue;
            }
            for (v, &pkj) in row_i[..k].iter_mut().zip(pk) {
                *v += pik * pkj;
            }
        }
        // Record the normalizer in the (k,k) slot for back-substitution.
        row_k[k] = s;
    }
    Ok(())
}

/// GTH back-substitution phase on an eliminated matrix: `pi` is built
/// relative to `pi[0] = 1`, so a stationary vector spanning more than
/// f64's range overflows here. On overflow the computed prefix is
/// rescaled by an exact power of two and the entry recomputed; so is the
/// whole vector if its sum overflows. Exact scaling keeps every ratio: a
/// solve whose entries and sum stay finite keeps its bits, and entries far
/// below the largest underflow to zero, their value at f64 range.
fn back_substitute(p: &DenseMatrix, pi: &mut [f64]) -> Result<()> {
    let n = p.rows();
    pi.fill(0.0);
    pi[0] = 1.0;
    for k in 1..n {
        let entry = |pi: &[f64]| {
            let mut acc = 0.0;
            for i in 0..k {
                acc += pi[i] * p[(i, k)];
            }
            acc / p[(k, k)]
        };
        let mut v = entry(pi);
        while !v.is_finite() && pi[..k].iter().any(|&x| x > 0.0) {
            vecops::scale(OVERFLOW_RESCALE, &mut pi[..k]);
            v = entry(pi);
        }
        pi[k] = v;
    }
    if !vecops::sum(pi).is_finite() {
        vecops::scale(OVERFLOW_RESCALE, pi);
    }
    if !vecops::normalize_l1(pi) {
        return Err(MarkovError::InvalidArgument(
            "GTH back-substitution left no finite probability mass".into(),
        ));
    }
    Ok(())
}

/// Exact power of two, 2^-512, applied to the partial stationary vector
/// when GTH back-substitution overflows.
const OVERFLOW_RESCALE: f64 = f64::from_bits((1023 - 512) << 52);

impl StationarySolver for GthSolver {
    /// Materializes the operator as a dense matrix (O(n²) space) and runs
    /// the elimination. No roundoff clamp is applied: GTH is
    /// subtraction-free, so the result is non-negative by construction and
    /// tiny true stationary masses are preserved exactly. The reported
    /// residual is measured on the returned vector.
    fn solve_op(&self, op: &dyn TransitionOp, _init: Option<&[f64]>) -> Result<StationaryResult> {
        let _span = obs::span("markov.gth");
        let dense = op.materialize_dense();
        let pi = self.solve_dense(&dense)?;
        let residual = {
            let y = op.mul_left(&pi);
            vecops::dist1(&y, &pi)
        };
        obs::event(
            "markov.gth",
            &[("states", op.rows().into()), ("residual", residual.into())],
        );
        Ok(StationaryResult {
            distribution: pi,
            report: super::SolveReport {
                iterations: 1,
                residual,
                residual_history: vec![residual],
                convergence: super::ConvergenceSummary::default(),
            },
        })
    }

    fn name(&self) -> &'static str {
        "gth"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_chains::{birth_death, pseudo_random, two_state};
    use super::super::PowerIteration;
    use super::*;
    use crate::StochasticMatrix;

    /// The entry-by-entry elimination [`eliminate`] replaced, kept as its
    /// oracle.
    fn eliminate_indexed(p: &mut DenseMatrix) -> Result<()> {
        let n = p.rows();
        for k in (1..n).rev() {
            let s: f64 = (0..k).map(|j| p[(k, j)]).sum();
            if s <= 0.0 {
                return Err(MarkovError::Reducible(format!(
                    "state {k} has no transitions into states 0..{k}"
                )));
            }
            for j in 0..k {
                p[(k, j)] /= s;
            }
            for i in 0..k {
                let pik = p[(i, k)];
                if pik == 0.0 {
                    continue;
                }
                for j in 0..k {
                    let pkj = p[(k, j)];
                    if pkj != 0.0 {
                        p[(i, j)] += pik * pkj;
                    }
                }
            }
            p[(k, k)] = s;
        }
        Ok(())
    }

    /// Runs both eliminations on copies of `a` and checks the eliminated
    /// matrices, and the stationary vectors built from them, bit for bit.
    fn assert_elimination_is_bitwise(a: &DenseMatrix) {
        let n = a.rows();
        let (mut fast, mut slow) = (a.clone(), a.clone());
        eliminate(fast.as_mut_slice(), n).unwrap();
        eliminate_indexed(&mut slow).unwrap();
        for i in 0..n {
            for (j, (x, y)) in fast.row(i).iter().zip(slow.row(i)).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "entry ({i}, {j})");
            }
        }
        let (mut pi_fast, mut pi_slow) = (vec![0.0; n], vec![0.0; n]);
        back_substitute(&fast, &mut pi_fast).unwrap();
        back_substitute(&slow, &mut pi_slow).unwrap();
        assert!(pi_fast
            .iter()
            .zip(&pi_slow)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn slice_elimination_is_bitwise_the_indexed_loop() {
        assert_elimination_is_bitwise(&pseudo_random(40, 5).matrix().to_dense());
        // Tridiagonal, so most updates add zero products; its
        // back-substitution overflows and rescales.
        assert_elimination_is_bitwise(&birth_death(2000, 0.6).0.matrix().to_dense());

        // States {2, 3} are closed: both eliminations stop at state 2.
        let mut a = DenseMatrix::zeros(4, 4);
        for (i, j, v) in [
            (0, 1, 1.0),
            (1, 0, 0.5),
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 2, 1.0),
        ] {
            a[(i, j)] = v;
        }
        let fast = eliminate(a.clone().as_mut_slice(), 4);
        assert_eq!(fast, eliminate_indexed(&mut a.clone()));
        assert_eq!(
            fast,
            Err(MarkovError::Reducible(
                "state 2 has no transitions into states 0..2".into()
            ))
        );
    }

    #[test]
    fn two_state_closed_form() {
        let (p, pi) = two_state(0.3, 0.7);
        let r = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&r.distribution, &pi) < 1e-14);
        assert!(r.residual() < 1e-14);
    }

    #[test]
    fn periodic_chain_handled_exactly() {
        // Power iteration cannot solve the deterministic toggle; GTH can.
        let (p, pi) = two_state(1.0, 1.0);
        let r = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&r.distribution, &pi) < 1e-14);
    }

    #[test]
    fn birth_death_matches_geometric() {
        let (p, pi) = birth_death(25, 0.35);
        let r = GthSolver::new().solve(&p, None).unwrap();
        assert!(vecops::dist1(&r.distribution, &pi) < 1e-12);
    }

    #[test]
    fn birth_death_beyond_f64_range_stays_finite() {
        // pi[i+1] / pi[i] = 1.5 and the back-substitution starts from
        // pi[0] = 1. At 1,750 states its largest entries stay finite but
        // their sum overflows; at 2,000 the vector spans 1.5^1999 ≈ 1e352
        // and the back-substitution itself overflows near state 1,750.
        let up = 0.6;
        for n in [1750, 2000] {
            let (p, _) = birth_death(n, up);
            let r = GthSolver::new().solve(&p, None).unwrap();
            // Closed form built downward from the largest entry, so its
            // tail underflows instead of its head overflowing.
            let ratio = (1.0 - up) / up;
            let mut pi = vec![0.0; n];
            let mut v = 1.0;
            for x in pi.iter_mut().rev() {
                *x = v;
                v *= ratio;
            }
            vecops::normalize_l1(&mut pi);
            assert!(r.distribution.iter().all(|x| x.is_finite()), "n = {n}");
            assert!(vecops::dist1(&r.distribution, &pi) < 1e-12, "n = {n}");
            assert!(r.residual() < 1e-12, "n = {n}: residual {}", r.residual());
            if n == 2000 {
                // (2/3)^1999 ≈ 1e-352 lies below f64's range.
                assert_eq!(pi[0], 0.0);
                assert_eq!(r.distribution[0], 0.0);
            }
        }
    }

    #[test]
    fn agrees_with_power_iteration() {
        let p = pseudo_random(40, 5);
        let a = GthSolver::new().solve(&p, None).unwrap();
        let b = PowerIteration::default().solve(&p, None).unwrap();
        assert!(vecops::dist1(&a.distribution, &b.distribution) < 1e-9);
    }

    #[test]
    fn reducible_chain_rejected() {
        // Two absorbing states: no unique stationary distribution.
        let mut coo = stochcdr_linalg::CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        assert!(matches!(
            GthSolver::new().solve(&p, None),
            Err(MarkovError::Reducible(_))
        ));
    }

    #[test]
    fn singleton_chain() {
        let mut coo = stochcdr_linalg::CooMatrix::new(1, 1);
        coo.push(0, 0, 1.0);
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let r = GthSolver::new().solve(&p, None).unwrap();
        assert_eq!(r.distribution, vec![1.0]);
    }

    #[test]
    fn stiff_chain_retains_accuracy() {
        // Nearly-decomposable chain: two tight clusters with epsilon
        // coupling — the classic case where naive elimination loses digits.
        let eps = 1e-12;
        let mut coo = stochcdr_linalg::CooMatrix::new(4, 4);
        // Cluster {0,1}.
        coo.push(0, 0, 0.5 - eps / 2.0);
        coo.push(0, 1, 0.5 - eps / 2.0);
        coo.push(0, 2, eps);
        coo.push(1, 0, 0.5);
        coo.push(1, 1, 0.5);
        // Cluster {2,3}.
        coo.push(2, 2, 0.5 - eps / 2.0);
        coo.push(2, 3, 0.5 - eps / 2.0);
        coo.push(2, 0, eps);
        coo.push(3, 2, 0.5);
        coo.push(3, 3, 0.5);
        let p = StochasticMatrix::new(coo.to_csr()).unwrap();
        let r = GthSolver::new().solve(&p, None).unwrap();
        // By symmetry both clusters carry mass 1/2, split evenly inside.
        for &v in &r.distribution {
            assert!((v - 0.25).abs() < 1e-9, "got {:?}", r.distribution);
        }
    }
}
